//! Amazon FPGA Images and the marketplace.
//!
//! An AFI is the sealed form in which third-party designs are sold: the
//! renter can *load and run* it, but "no FPGA internal design code is
//! exposed" (the AWS guarantee the paper's Threat Model 1 violates). We
//! model sealing as an access-control bit: renters can obtain the design
//! for loading through the platform, but `inspect` refuses unless the
//! caller is the publisher.

use std::collections::HashMap;
use std::fmt;

use fpga_fabric::{Bitstream, Design};

use crate::{CloudError, TenantId};

/// Identifier of a published FPGA image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AfiId(pub u64);

impl fmt::Display for AfiId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agfi-{:010x}", self.0)
    }
}

/// A published FPGA image: a configuration binary plus its
/// intellectual-property seal. The marketplace stores *bitstreams* — the
/// platform, not the renter, turns them back into designs at load time.
#[derive(Debug, Clone, PartialEq)]
pub struct Afi {
    id: AfiId,
    publisher: TenantId,
    design: Design,
    bitstream: Bitstream,
    sealed: bool,
}

impl Afi {
    /// The image id.
    #[must_use]
    pub fn id(&self) -> AfiId {
        self.id
    }

    /// The tenant who published the image.
    #[must_use]
    pub fn publisher(&self) -> &TenantId {
        &self.publisher
    }

    /// Whether the design internals are hidden from renters.
    #[must_use]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Inspects the design source, enforcing the IP seal.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::AfiSealed`] when the image is sealed and
    /// `viewer` is not the publisher. This is the guarantee Threat Model 1
    /// bypasses *without* ever calling this method — by reading the analog
    /// imprint instead.
    pub fn inspect(&self, viewer: &TenantId) -> Result<&Design, CloudError> {
        if self.sealed && viewer != &self.publisher {
            return Err(CloudError::AfiSealed(self.id));
        }
        Ok(&self.design)
    }

    /// The configuration binary, enforcing the IP seal like
    /// [`inspect`](Afi::inspect): even the raw bits are withheld from
    /// renters of a sealed image (AWS never hands out the bitstream).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::AfiSealed`] for non-publisher viewers of a
    /// sealed image.
    pub fn bitstream(&self, viewer: &TenantId) -> Result<&Bitstream, CloudError> {
        if self.sealed && viewer != &self.publisher {
            return Err(CloudError::AfiSealed(self.id));
        }
        Ok(&self.bitstream)
    }

    /// The configuration binary, for the platform's own loader.
    #[must_use]
    pub(crate) fn bitstream_for_loading(&self) -> &Bitstream {
        &self.bitstream
    }
}

/// The marketplace: the catalog of published AFIs.
#[derive(Debug, Clone, Default)]
pub struct Marketplace {
    next_id: u64,
    afis: HashMap<AfiId, Afi>,
}

impl Marketplace {
    /// Creates an empty marketplace.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a design and returns its image id. The design is
    /// assembled into its binary form on the way in — what the catalog
    /// holds is a [`Bitstream`].
    pub fn publish(&mut self, publisher: TenantId, design: Design, sealed: bool) -> AfiId {
        let id = AfiId(self.next_id);
        self.next_id += 1;
        let bitstream = Bitstream::assemble(&design);
        self.afis.insert(
            id,
            Afi {
                id,
                publisher,
                design,
                bitstream,
                sealed,
            },
        );
        id
    }

    /// Looks up an image.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownAfi`] for an unknown id.
    pub fn get(&self, id: AfiId) -> Result<&Afi, CloudError> {
        self.afis.get(&id).ok_or(CloudError::UnknownAfi(id))
    }

    /// Number of published images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.afis.len()
    }

    /// Whether the marketplace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.afis.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_afi_hides_internals_from_renters() {
        let mut market = Marketplace::new();
        let publisher = TenantId::new("vendor");
        let id = market.publish(publisher.clone(), Design::new("secret-accel"), true);
        let afi = market.get(id).unwrap();
        assert!(afi.is_sealed());
        assert!(afi.inspect(&TenantId::new("renter")).is_err());
        assert!(afi.inspect(&publisher).is_ok());
    }

    #[test]
    fn open_afi_is_inspectable() {
        let mut market = Marketplace::new();
        let id = market.publish(TenantId::new("oss"), Design::new("opentitan"), false);
        let afi = market.get(id).unwrap();
        assert!(afi.inspect(&TenantId::new("anyone")).is_ok());
    }

    #[test]
    fn unknown_afi_errors() {
        let market = Marketplace::new();
        assert!(matches!(
            market.get(AfiId(9)),
            Err(CloudError::UnknownAfi(_))
        ));
        assert!(market.is_empty());
    }

    #[test]
    fn sealed_bitstream_is_also_withheld() {
        let mut market = Marketplace::new();
        let publisher = TenantId::new("vendor");
        let id = market.publish(publisher.clone(), Design::new("ip"), true);
        let afi = market.get(id).unwrap();
        assert!(afi.bitstream(&TenantId::new("renter")).is_err());
        assert!(afi.bitstream(&publisher).is_ok());
        assert!(!afi.bitstream(&publisher).unwrap().is_empty());
    }

    #[test]
    fn ids_are_unique() {
        let mut market = Marketplace::new();
        let a = market.publish(TenantId::new("t"), Design::new("a"), true);
        let b = market.publish(TenantId::new("t"), Design::new("b"), true);
        assert_ne!(a, b);
        assert_eq!(market.len(), 2);
    }
}
