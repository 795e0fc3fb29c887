//! Tenant identities.

use std::fmt;

/// An opaque cloud account identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(String);

impl TenantId {
    /// Creates a tenant id.
    ///
    /// # Panics
    ///
    /// Panics if `name` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        let name = name.into();
        assert!(!name.is_empty(), "tenant id must not be empty");
        Self(name)
    }

    /// The account name.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for TenantId {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        let t = TenantId::new("alice");
        assert_eq!(t.as_str(), "alice");
        assert_eq!(t.to_string(), "alice");
        assert_eq!(TenantId::from("alice"), t);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = TenantId::new("");
    }
}
