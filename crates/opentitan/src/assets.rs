//! The twenty security-critical assets of Table 1.

use std::fmt;

/// The paper's asset classification (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssetClass {
    /// Cryptographic keys (CK): OTP-stored keys, key-manager outputs,
    /// scrambling keys.
    CryptoKey,
    /// State values or tokens (SV/T): life-cycle state and unlock tokens
    /// stored in one-time-programmable memory.
    StateValueToken,
    /// Signals (S): buses carrying sensitive data to/from security
    /// peripherals.
    Signal,
}

impl fmt::Display for AssetClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CryptoKey => f.write_str("CK"),
            Self::StateValueToken => f.write_str("SV/T"),
            Self::Signal => f.write_str("S"),
        }
    }
}

/// Route-length order statistics for one asset, in picoseconds, exactly
/// as printed in Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteLengthStats {
    /// Mean route length.
    pub mean_ps: f64,
    /// Standard deviation of route lengths.
    pub sd_ps: f64,
    /// Minimum route length.
    pub min_ps: f64,
    /// 25th-percentile route length.
    pub q25_ps: f64,
    /// Median route length.
    pub q50_ps: f64,
    /// 75th-percentile route length.
    pub q75_ps: f64,
    /// Maximum route length.
    pub max_ps: f64,
}

/// One security-critical asset.
#[derive(Debug, Clone, PartialEq)]
pub struct Asset {
    /// Table 1 row number (1-based, sorted ascending by max route length).
    pub index: u8,
    /// Hierarchical path of the asset in the Earl Grey design.
    pub path: String,
    /// Asset classification.
    pub class: AssetClass,
    /// Number of routes (bits) the asset spans.
    pub bus_width: u16,
    /// The paper's published route-length statistics.
    pub paper_stats: RouteLengthStats,
}

macro_rules! asset {
    ($idx:literal, $path:literal, $class:ident, $width:literal,
     $mean:literal, $sd:literal, $min:literal, $q25:literal, $q50:literal, $q75:literal, $max:literal) => {
        Asset {
            index: $idx,
            path: $path.to_owned(),
            class: AssetClass::$class,
            bus_width: $width,
            paper_stats: RouteLengthStats {
                mean_ps: $mean,
                sd_ps: $sd,
                min_ps: $min,
                q25_ps: $q25,
                q50_ps: $q50,
                q75_ps: $q75,
                max_ps: $max,
            },
        }
    };
}

/// The twenty assets of Table 1, in the paper's order (ascending max
/// route length).
#[must_use]
pub fn earl_grey_assets() -> Vec<Asset> {
    vec![
        asset!(
            1,
            "/otp_ctrl_otp_lc_data[state]",
            StateValueToken,
            320,
            169.5,
            98.1,
            39.0,
            95.5,
            157.5,
            228.0,
            509.0
        ),
        asset!(
            2,
            "/u_otp_ctrl/otp_ctrl_otp_lc_data[test_exit_token]",
            StateValueToken,
            128,
            197.5,
            115.4,
            37.0,
            114.0,
            170.0,
            242.2,
            534.0
        ),
        asset!(
            3,
            "/otp_ctrl_otp_lc_data[rma_token]",
            StateValueToken,
            101,
            239.8,
            122.8,
            38.0,
            148.0,
            222.0,
            325.0,
            583.0
        ),
        asset!(
            4,
            "/otp_ctrl_otp_lc_data[test_unlock_token]",
            StateValueToken,
            128,
            207.9,
            120.1,
            38.0,
            130.5,
            178.5,
            247.2,
            609.0
        ),
        asset!(
            5,
            "/keymgr_aes_key[key][1]_282",
            CryptoKey,
            32,
            538.3,
            106.4,
            380.0,
            433.5,
            551.0,
            614.0,
            738.0
        ),
        asset!(
            6,
            "/keymgr_otbn_key[key][0]_285",
            CryptoKey,
            384,
            219.8,
            150.9,
            41.0,
            99.0,
            167.0,
            327.2,
            919.0
        ),
        asset!(
            7,
            "/keymgr_kmac_key[key][0]_28",
            CryptoKey,
            256,
            317.6,
            141.7,
            49.0,
            213.8,
            291.0,
            408.0,
            1050.0
        ),
        asset!(
            8,
            "/otp_ctrl_otp_keymgr_key[key_share0]",
            CryptoKey,
            256,
            187.3,
            200.8,
            37.0,
            54.0,
            109.0,
            217.0,
            1064.0
        ),
        asset!(
            9,
            "/u_otp_ctrl/part_scrmbl_rsp_data",
            CryptoKey,
            64,
            353.4,
            146.1,
            116.0,
            267.2,
            348.5,
            411.2,
            1075.0
        ),
        asset!(
            10,
            "/keymgr_aes_key[key][0]_283",
            CryptoKey,
            256,
            360.3,
            154.2,
            86.0,
            270.0,
            333.0,
            412.2,
            1311.0
        ),
        asset!(
            11,
            "/u_otp_ctrl/u_otp_ctrl_scrmbl/gen_anchor_keys",
            CryptoKey,
            135,
            220.1,
            358.7,
            0.0,
            57.0,
            94.0,
            162.5,
            1333.0
        ),
        asset!(
            12,
            "/otp_ctrl_otp_keymgr_key[key_share1]",
            CryptoKey,
            256,
            262.5,
            273.4,
            37.0,
            51.0,
            158.0,
            335.5,
            1381.0
        ),
        asset!(
            13,
            "/csrng_tl_rsp[d_data]",
            Signal,
            32,
            1291.8,
            105.7,
            1031.0,
            1244.8,
            1323.0,
            1359.8,
            1432.0
        ),
        asset!(
            14,
            "/aes_tl_rsp[d_data]",
            Signal,
            32,
            1105.3,
            411.4,
            276.0,
            1135.8,
            1279.0,
            1369.5,
            1631.0
        ),
        asset!(
            15,
            "/keymgr_otbn_key[key][1]_284",
            CryptoKey,
            32,
            1062.7,
            281.2,
            480.0,
            854.0,
            1074.5,
            1270.0,
            1670.0
        ),
        asset!(
            16,
            "/u_otp_ctrl/part_otp_rdata",
            Signal,
            64,
            1298.9,
            213.0,
            933.0,
            1118.5,
            1311.5,
            1447.2,
            1784.0
        ),
        asset!(
            17,
            "/flash_ctrl_otp_rsp[key]",
            CryptoKey,
            128,
            1816.6,
            404.6,
            1215.0,
            1503.0,
            1717.5,
            2010.2,
            3245.0
        ),
        asset!(
            18,
            "/kmac_app_rsp",
            Signal,
            777,
            94.2,
            179.7,
            15.0,
            40.0,
            58.0,
            97.0,
            3398.0
        ),
        asset!(
            19,
            "/flash_ctrl_otp_rsp[rand_key]",
            CryptoKey,
            128,
            1908.1,
            670.7,
            553.0,
            1337.0,
            1882.0,
            2308.8,
            3706.0
        ),
        asset!(
            20,
            "/aes_tl_req[a_data]",
            Signal,
            32,
            2114.8,
            471.8,
            1455.0,
            1805.0,
            2079.5,
            2337.2,
            3946.0
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_assets_in_ascending_max_order() {
        let assets = earl_grey_assets();
        assert_eq!(assets.len(), 20);
        for w in assets.windows(2) {
            assert!(w[0].paper_stats.max_ps <= w[1].paper_stats.max_ps);
        }
        for (i, a) in assets.iter().enumerate() {
            assert_eq!(usize::from(a.index), i + 1);
        }
    }

    #[test]
    fn quantiles_are_monotone_within_each_asset() {
        for a in earl_grey_assets() {
            let s = a.paper_stats;
            assert!(s.min_ps <= s.q25_ps, "{}", a.path);
            assert!(s.q25_ps <= s.q50_ps, "{}", a.path);
            assert!(s.q50_ps <= s.q75_ps, "{}", a.path);
            assert!(s.q75_ps <= s.max_ps, "{}", a.path);
        }
    }

    #[test]
    fn class_counts_match_table() {
        let assets = earl_grey_assets();
        let count = |c: AssetClass| assets.iter().filter(|a| a.class == c).count();
        assert_eq!(count(AssetClass::CryptoKey), 11);
        assert_eq!(count(AssetClass::StateValueToken), 4);
        assert_eq!(count(AssetClass::Signal), 5);
    }

    #[test]
    fn kmac_is_the_widest_bus() {
        let assets = earl_grey_assets();
        let widest = assets.iter().max_by_key(|a| a.bus_width).unwrap();
        assert_eq!(widest.path, "/kmac_app_rsp");
        assert_eq!(widest.bus_width, 777);
    }

    #[test]
    fn class_display_matches_paper_abbreviations() {
        assert_eq!(AssetClass::CryptoKey.to_string(), "CK");
        assert_eq!(AssetClass::StateValueToken.to_string(), "SV/T");
        assert_eq!(AssetClass::Signal.to_string(), "S");
    }
}
