//! Rental sessions: a tenant's handle to one leased device.

use std::fmt;

use crate::{DeviceId, TenantId};

/// A lease on one FPGA instance.
///
/// Sessions are capability handles: every operation goes through the
/// [`Provider`](crate::Provider), which validates that the session still
/// owns its device. Dropping a session without releasing it leaks the
/// lease (as forgetting to terminate an instance does in a real cloud).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Session {
    id: u64,
    tenant: TenantId,
    device_id: DeviceId,
}

impl Session {
    pub(crate) fn new(id: u64, tenant: TenantId, device_id: DeviceId) -> Self {
        Self {
            id,
            tenant,
            device_id,
        }
    }

    /// The unique session id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant holding the lease.
    #[must_use]
    pub fn tenant(&self) -> &TenantId {
        &self.tenant
    }

    /// The device this session is attached to.
    ///
    /// Device ids are *not* secret: tenants can observe which physical
    /// board they landed on through fingerprinting, so exposing the id
    /// models information the attacker legitimately has.
    #[must_use]
    pub fn device_id(&self) -> DeviceId {
        self.device_id
    }
}

impl fmt::Display for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "session#{} ({} on {})",
            self.id, self.tenant, self.device_id
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceId;

    #[test]
    fn accessors_and_display() {
        let s = Session::new(7, TenantId::new("alice"), DeviceId(3));
        assert_eq!(s.id(), 7);
        assert_eq!(s.tenant().as_str(), "alice");
        assert_eq!(s.device_id(), DeviceId(3));
        assert_eq!(s.to_string(), "session#7 (alice on fpga-0003)");
    }

    #[test]
    fn sessions_hash_and_compare_by_value() {
        let a = Session::new(1, TenantId::new("t"), DeviceId(0));
        let b = Session::new(1, TenantId::new("t"), DeviceId(0));
        let c = Session::new(2, TenantId::new("t"), DeviceId(0));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set: std::collections::HashSet<Session> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }
}
