//! Zoning and LUN mapping/masking.
//!
//! Two configuration settings dictate which servers can reach which storage (Section
//! 3.1.1): *zoning* controls which subsystem ports a server's HBA ports may talk to
//! through the FC fabric, and *LUN mapping/masking* controls which volumes a given host
//! is allowed to access. Scenario 1 of the evaluation is triggered by exactly these two
//! settings: a new volume V′ is created on V1's physical disks and a new zone plus LUN
//! mapping gives another application server access to it.

use std::collections::{BTreeMap, BTreeSet};

/// A named zone: a set of server names and subsystem names that may communicate.
///
/// Real zones contain WWPNs of individual ports; the simulation zones whole servers and
/// subsystems, which is the granularity the diagnosis workflow cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zone {
    /// Zone name.
    pub name: String,
    /// Servers included in the zone.
    pub servers: BTreeSet<String>,
    /// Storage subsystems included in the zone.
    pub subsystems: BTreeSet<String>,
}

impl Zone {
    /// Creates a zone from iterators of server and subsystem names.
    pub fn new(
        name: impl Into<String>,
        servers: impl IntoIterator<Item = String>,
        subsystems: impl IntoIterator<Item = String>,
    ) -> Self {
        Zone {
            name: name.into(),
            servers: servers.into_iter().collect(),
            subsystems: subsystems.into_iter().collect(),
        }
    }

    /// Whether the zone lets `server` reach `subsystem`.
    pub fn allows(&self, server: &str, subsystem: &str) -> bool {
        self.servers.contains(server) && self.subsystems.contains(subsystem)
    }
}

/// LUN mapping/masking: which hosts may access which volumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LunMapping {
    /// volume name -> set of server names allowed to access it.
    map: BTreeMap<String, BTreeSet<String>>,
}

impl LunMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `server` access to `volume`.
    pub fn map(&mut self, volume: impl Into<String>, server: impl Into<String>) {
        self.map.entry(volume.into()).or_default().insert(server.into());
    }

    /// Whether `server` is allowed to access `volume`.
    pub(crate) fn is_mapped(&self, volume: &str, server: &str) -> bool {
        self.map.get(volume).is_some_and(|s| s.contains(server))
    }

    /// The volumes a server is mapped to, borrowed, in name order.
    pub(crate) fn volumes_of<'a>(&'a self, server: &'a str) -> impl Iterator<Item = &'a str> {
        self.map.iter().filter(move |(_, servers)| servers.contains(server)).map(|(v, _)| v.as_str())
    }
}

/// The full access-control configuration: zones plus LUN mapping.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ZoningConfig {
    zones: Vec<Zone>,
    /// LUN mapping/masking table.
    pub lun_mapping: LunMapping,
}

impl ZoningConfig {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces, by name) a zone.
    pub fn add_zone(&mut self, zone: Zone) {
        if let Some(existing) = self.zones.iter_mut().find(|z| z.name == zone.name) {
            *existing = zone;
        } else {
            self.zones.push(zone);
        }
    }

    /// Whether the fabric configuration lets `server` reach `subsystem` at all.
    pub fn zoned(&self, server: &str, subsystem: &str) -> bool {
        self.zones.iter().any(|z| z.allows(server, subsystem))
    }

    /// Whether `server` can actually do I/O to `volume` hosted on `subsystem`:
    /// it must be both zoned to the subsystem and LUN-mapped to the volume.
    pub fn can_access(&self, server: &str, subsystem: &str, volume: &str) -> bool {
        self.zoned(server, subsystem) && self.lun_mapping.is_mapped(volume, server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ZoningConfig {
        let mut z = ZoningConfig::new();
        z.add_zone(Zone::new("db-zone", vec!["db-server".into()], vec!["DS6000".into()]));
        z.lun_mapping.map("V1", "db-server");
        z.lun_mapping.map("V2", "db-server");
        z
    }

    #[test]
    fn zone_allows_only_its_members() {
        let zone = Zone::new("z", vec!["s1".into()], vec!["sub1".into()]);
        assert!(zone.allows("s1", "sub1"));
        assert!(!zone.allows("s2", "sub1"));
        assert!(!zone.allows("s1", "sub2"));
    }

    #[test]
    fn access_requires_zone_and_mapping() {
        let cfg = config();
        assert!(cfg.can_access("db-server", "DS6000", "V1"));
        // Zoned but not mapped.
        assert!(!cfg.can_access("db-server", "DS6000", "V3"));
        // Mapped but not zoned.
        let mut cfg2 = ZoningConfig::new();
        cfg2.lun_mapping.map("V1", "etl-server");
        assert!(!cfg2.can_access("etl-server", "DS6000", "V1"));
    }

    #[test]
    fn scenario1_misconfiguration_grants_access() {
        // The scenario-1 misconfiguration: a new zone + mapping lets the ETL server
        // reach the new volume V' on the DB's disks.
        let mut cfg = config();
        cfg.add_zone(Zone::new("etl-zone", vec!["etl-server".into()], vec!["DS6000".into()]));
        cfg.lun_mapping.map("Vprime", "etl-server");
        assert!(cfg.can_access("etl-server", "DS6000", "Vprime"));
        assert!(!cfg.can_access("etl-server", "DS6000", "V1"));
    }

    #[test]
    fn add_zone_replaces_by_name() {
        let mut cfg = config();
        assert_eq!(cfg.zones.len(), 1);
        cfg.add_zone(Zone::new("db-zone", vec!["other".into()], vec!["DS6000".into()]));
        assert_eq!(cfg.zones.len(), 1);
        assert!(!cfg.zoned("db-server", "DS6000"));
        assert!(cfg.zoned("other", "DS6000"));
    }

    #[test]
    fn mapping_lookups() {
        let cfg = config();
        assert_eq!(cfg.lun_mapping.volumes_of("db-server").collect::<Vec<_>>(), ["V1", "V2"]);
    }
}
