//! SAN topology: devices, logical entities, connectivity and configuration changes.
//!
//! The topology mirrors the taxonomy of Figure 1: servers with HBAs connect through FC
//! switches to a storage subsystem, whose physical disks are aggregated into RAID pools
//! from which logical volumes are carved and mapped to hosts. Every mutating operation
//! (creating a volume, changing zoning or LUN mapping, failing a disk, starting a RAID
//! rebuild) appends a configuration/system event to the topology's event log, which is
//! what DIADS later inspects.

use std::collections::BTreeMap;

use diads_monitor::{ComponentId, Event, EventKind, EventStore, Timestamp};

use crate::raid::RaidLevel;
use crate::zoning::{Zone, ZoningConfig};
use crate::{Result, SanError};

/// A host server.
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    /// Host name (e.g. `db-server`).
    pub name: String,
    /// Operating system label (informational, shown in APG renderings).
    pub os: String,
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// Clock speed per core in MHz.
    pub cpu_mhz_per_core: f64,
    /// Installed memory in MB.
    pub memory_mb: u64,
    /// Names of the HBAs installed in this server.
    pub hbas: Vec<String>,
}

/// A host bus adapter.
#[derive(Debug, Clone, PartialEq)]
pub struct Hba {
    /// HBA name (e.g. `db-server-hba0`).
    pub name: String,
    /// Owning server.
    pub server: String,
    /// Number of FC ports.
    pub ports: u32,
}

/// A fibre-channel switch.
#[derive(Debug, Clone, PartialEq)]
pub struct FcSwitch {
    /// Switch name.
    pub name: String,
    /// Number of ports.
    pub ports: u32,
    /// Aggregate bandwidth in MB/s.
    pub bandwidth_mb_per_sec: f64,
}

/// A storage subsystem (controller).
#[derive(Debug, Clone, PartialEq)]
pub struct StorageSubsystem {
    /// Subsystem name (e.g. `DS6000`).
    pub name: String,
    /// Model string.
    pub model: String,
    /// Controller cache in GB.
    pub cache_gb: u32,
}

/// A physical disk.
#[derive(Debug, Clone, PartialEq)]
pub struct Disk {
    /// Disk name (e.g. `disk-05`).
    pub name: String,
    /// Owning subsystem.
    pub subsystem: String,
    /// Capacity in GB.
    pub capacity_gb: u64,
    /// Maximum random IOPS the disk can sustain.
    pub max_random_iops: f64,
    /// Maximum sequential throughput in MB/s.
    pub max_seq_mb_per_sec: f64,
    /// Whether the disk has failed.
    pub failed: bool,
}

/// A RAID pool aggregating physical disks.
#[derive(Debug, Clone, PartialEq)]
pub struct StoragePool {
    /// Pool name (e.g. `P1`).
    pub name: String,
    /// Owning subsystem.
    pub subsystem: String,
    /// RAID level.
    pub raid: RaidLevel,
    /// Member disks.
    pub disks: Vec<String>,
}

/// A logical volume carved out of a pool.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageVolume {
    /// Volume name (e.g. `V1`).
    pub name: String,
    /// Owning pool.
    pub pool: String,
    /// Capacity in GB.
    pub capacity_gb: u64,
}

/// The full SAN topology plus its configuration/event history.
#[derive(Debug, Clone, Default)]
pub struct SanTopology {
    servers: BTreeMap<String, Server>,
    hbas: BTreeMap<String, Hba>,
    switches: BTreeMap<String, FcSwitch>,
    subsystems: BTreeMap<String, StorageSubsystem>,
    disks: BTreeMap<String, Disk>,
    pools: BTreeMap<String, StoragePool>,
    volumes: BTreeMap<String, StorageVolume>,
    /// Zoning and LUN mapping configuration.
    pub zoning: ZoningConfig,
    events: EventStore,
}

impl SanTopology {
    /// Creates an empty topology (use [`TopologyBuilder`] for convenient construction).
    pub fn new() -> Self {
        Self::default()
    }

    // ---- lookups ----

    /// A server by name.
    pub fn server(&self, name: &str) -> Option<&Server> {
        self.servers.get(name)
    }

    /// A volume by name.
    pub fn volume(&self, name: &str) -> Option<&StorageVolume> {
        self.volumes.get(name)
    }

    /// A pool by name.
    pub fn pool(&self, name: &str) -> Option<&StoragePool> {
        self.pools.get(name)
    }

    /// A disk by name.
    pub fn disk(&self, name: &str) -> Option<&Disk> {
        self.disks.get(name)
    }

    /// An HBA by name.
    pub fn hba(&self, name: &str) -> Option<&Hba> {
        self.hbas.get(name)
    }

    /// A switch by name.
    pub fn switch(&self, name: &str) -> Option<&FcSwitch> {
        self.switches.get(name)
    }

    /// A subsystem by name.
    pub fn subsystem(&self, name: &str) -> Option<&StorageSubsystem> {
        self.subsystems.get(name)
    }

    /// All volume names.
    pub fn volume_names(&self) -> Vec<String> {
        self.volumes.keys().cloned().collect()
    }

    /// All pool names.
    pub fn pool_names(&self) -> Vec<String> {
        self.pools.keys().cloned().collect()
    }

    /// All switch names.
    pub fn switch_names(&self) -> Vec<String> {
        self.switches.keys().cloned().collect()
    }

    /// All volumes, in name order.
    pub(crate) fn volumes(&self) -> impl Iterator<Item = &StorageVolume> {
        self.volumes.values()
    }

    /// All pools, in name order.
    pub(crate) fn pools(&self) -> impl Iterator<Item = &StoragePool> {
        self.pools.values()
    }

    /// All switches, in name order.
    pub(crate) fn switches(&self) -> impl Iterator<Item = &FcSwitch> {
        self.switches.values()
    }

    /// All subsystems, in name order.
    pub(crate) fn subsystems(&self) -> impl Iterator<Item = &StorageSubsystem> {
        self.subsystems.values()
    }

    /// All HBAs, in name order.
    pub(crate) fn hbas(&self) -> impl Iterator<Item = &Hba> {
        self.hbas.values()
    }

    /// The pool a volume lives in.
    pub fn pool_of_volume(&self, volume: &str) -> Option<&StoragePool> {
        self.volumes.get(volume).and_then(|v| self.pools.get(&v.pool))
    }

    /// The (non-failed) disks backing a volume.
    pub fn disks_of_volume(&self, volume: &str) -> Vec<&Disk> {
        self.pool_of_volume(volume)
            .map(|p| p.disks.iter().filter_map(|d| self.disks.get(d)).filter(|d| !d.failed).collect())
            .unwrap_or_default()
    }

    /// All volumes carved from a pool.
    pub fn volumes_in_pool(&self, pool: &str) -> Vec<&StorageVolume> {
        self.volumes.values().filter(|v| v.pool == pool).collect()
    }

    /// Other volumes that share physical disks with `volume` (same pool).
    pub fn volumes_sharing_disks(&self, volume: &str) -> Vec<String> {
        match self.volumes.get(volume) {
            Some(v) => self
                .volumes_in_pool(&v.pool)
                .into_iter()
                .filter(|o| o.name != volume)
                .map(|o| o.name.clone())
                .collect(),
            None => Vec::new(),
        }
    }

    /// The configuration/system event log.
    pub fn events(&self) -> &EventStore {
        &self.events
    }

    // ---- mutations that emit events ----

    /// Creates a new volume in an existing pool (emits [`EventKind::VolumeCreated`]).
    ///
    /// # Errors
    /// Fails if the pool does not exist or the volume name is already taken.
    pub fn create_volume(
        &mut self,
        time: Timestamp,
        name: impl Into<String>,
        pool: &str,
        capacity_gb: u64,
    ) -> Result<()> {
        let name = name.into();
        if self.volumes.contains_key(&name) {
            return Err(SanError::DuplicateComponent(name));
        }
        if !self.pools.contains_key(pool) {
            return Err(SanError::UnknownComponent(pool.to_string()));
        }
        self.volumes
            .insert(name.clone(), StorageVolume { name: name.clone(), pool: pool.to_string(), capacity_gb });
        self.events.record(Event::new(
            time,
            ComponentId::volume(name.clone()),
            EventKind::VolumeCreated,
            format!("volume {name} created in pool {pool}"),
        ));
        Ok(())
    }

    /// Adds a zone (emits [`EventKind::ZoningChanged`]).
    pub fn add_zone(&mut self, time: Timestamp, zone: Zone) {
        let detail = format!(
            "zone {} connects servers [{}] to subsystems [{}]",
            zone.name,
            zone.servers.iter().cloned().collect::<Vec<_>>().join(", "),
            zone.subsystems.iter().cloned().collect::<Vec<_>>().join(", ")
        );
        let subsystem = zone.subsystems.iter().next().cloned().unwrap_or_default();
        self.zoning.add_zone(zone);
        self.events.record(Event::new(
            time,
            ComponentId::new(diads_monitor::ComponentKind::StorageSubsystem, subsystem),
            EventKind::ZoningChanged,
            detail,
        ));
    }

    /// Maps a volume to a host (emits [`EventKind::LunMappingChanged`]).
    ///
    /// # Errors
    /// Fails if the volume or server does not exist.
    pub fn map_lun(&mut self, time: Timestamp, volume: &str, server: &str) -> Result<()> {
        if !self.volumes.contains_key(volume) {
            return Err(SanError::UnknownComponent(volume.to_string()));
        }
        if !self.servers.contains_key(server) {
            return Err(SanError::UnknownComponent(server.to_string()));
        }
        self.zoning.lun_mapping.map(volume, server);
        self.events.record(Event::new(
            time,
            ComponentId::volume(volume),
            EventKind::LunMappingChanged,
            format!("volume {volume} mapped to host {server}"),
        ));
        Ok(())
    }

    /// Marks a disk as failed (emits [`EventKind::DiskFailure`]).
    ///
    /// # Errors
    /// Fails if the disk does not exist.
    pub fn fail_disk(&mut self, time: Timestamp, disk: &str) -> Result<()> {
        let d = self.disks.get_mut(disk).ok_or_else(|| SanError::UnknownComponent(disk.to_string()))?;
        d.failed = true;
        self.events.record(Event::new(
            time,
            ComponentId::disk(disk),
            EventKind::DiskFailure,
            format!("disk {disk} failed"),
        ));
        Ok(())
    }

    /// Emits the RAID-rebuild-started event for a pool (the performance impact is
    /// modelled by the perf engine's rebuild windows).
    ///
    /// # Errors
    /// Fails if the pool does not exist.
    pub fn start_raid_rebuild(&mut self, time: Timestamp, pool: &str) -> Result<()> {
        if !self.pools.contains_key(pool) {
            return Err(SanError::UnknownComponent(pool.to_string()));
        }
        self.events.record(Event::new(
            time,
            ComponentId::pool(pool),
            EventKind::RaidRebuildStarted,
            format!("RAID rebuild started on pool {pool}"),
        ));
        Ok(())
    }

    // ---- component-id helpers ----
}

/// Fluent builder for [`SanTopology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    topology: SanTopology,
}

impl TopologyBuilder {
    /// Starts an empty build.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a server.
    pub fn server(
        mut self,
        name: &str,
        os: &str,
        cpu_cores: u32,
        cpu_mhz_per_core: f64,
        memory_mb: u64,
    ) -> Self {
        self.topology.servers.insert(
            name.to_string(),
            Server {
                name: name.to_string(),
                os: os.to_string(),
                cpu_cores,
                cpu_mhz_per_core,
                memory_mb,
                hbas: Vec::new(),
            },
        );
        self
    }

    /// Adds an HBA to an existing server.
    pub fn hba(mut self, name: &str, server: &str, ports: u32) -> Self {
        self.topology
            .hbas
            .insert(name.to_string(), Hba { name: name.to_string(), server: server.to_string(), ports });
        if let Some(s) = self.topology.servers.get_mut(server) {
            s.hbas.push(name.to_string());
        }
        self
    }

    /// Adds an FC switch.
    pub fn switch(mut self, name: &str, ports: u32, bandwidth_mb_per_sec: f64) -> Self {
        self.topology
            .switches
            .insert(name.to_string(), FcSwitch { name: name.to_string(), ports, bandwidth_mb_per_sec });
        self
    }

    /// Adds a storage subsystem.
    pub fn subsystem(mut self, name: &str, model: &str, cache_gb: u32) -> Self {
        self.topology.subsystems.insert(
            name.to_string(),
            StorageSubsystem { name: name.to_string(), model: model.to_string(), cache_gb },
        );
        self
    }

    /// Adds `count` identical disks named `{prefix}-NN` to a subsystem and returns their names.
    pub fn disks(
        mut self,
        prefix: &str,
        count: usize,
        subsystem: &str,
        capacity_gb: u64,
        max_random_iops: f64,
        max_seq_mb_per_sec: f64,
    ) -> Self {
        for i in 1..=count {
            let name = format!("{prefix}-{i:02}");
            self.topology.disks.insert(
                name.clone(),
                Disk {
                    name,
                    subsystem: subsystem.to_string(),
                    capacity_gb,
                    max_random_iops,
                    max_seq_mb_per_sec,
                    failed: false,
                },
            );
        }
        self
    }

    /// Adds a RAID pool over existing disks.
    pub fn pool(mut self, name: &str, subsystem: &str, raid: RaidLevel, disks: &[&str]) -> Self {
        self.topology.pools.insert(
            name.to_string(),
            StoragePool {
                name: name.to_string(),
                subsystem: subsystem.to_string(),
                raid,
                disks: disks.iter().map(|d| d.to_string()).collect(),
            },
        );
        self
    }

    /// Adds a volume to an existing pool.
    pub fn volume(mut self, name: &str, pool: &str, capacity_gb: u64) -> Self {
        self.topology.volumes.insert(
            name.to_string(),
            StorageVolume { name: name.to_string(), pool: pool.to_string(), capacity_gb },
        );
        self
    }

    /// Adds a zone.
    pub fn zone(mut self, name: &str, servers: &[&str], subsystems: &[&str]) -> Self {
        self.topology.zoning.add_zone(Zone::new(
            name,
            servers.iter().map(|s| s.to_string()),
            subsystems.iter().map(|s| s.to_string()),
        ));
        self
    }

    /// Maps a volume to a server.
    pub fn lun(mut self, volume: &str, server: &str) -> Self {
        self.topology.zoning.lun_mapping.map(volume, server);
        self
    }

    /// Finalises the build after validating referential integrity.
    ///
    /// # Errors
    /// Returns an error if any HBA, pool, volume or LUN mapping references a missing
    /// component, or a pool has no disks.
    pub fn build(self) -> Result<SanTopology> {
        let t = &self.topology;
        for hba in t.hbas.values() {
            if !t.servers.contains_key(&hba.server) {
                return Err(SanError::UnknownComponent(hba.server.clone()));
            }
        }
        for pool in t.pools.values() {
            if !t.subsystems.contains_key(&pool.subsystem) {
                return Err(SanError::UnknownComponent(pool.subsystem.clone()));
            }
            if pool.disks.is_empty() {
                return Err(SanError::EmptySet("pool disks"));
            }
            for d in &pool.disks {
                if !t.disks.contains_key(d) {
                    return Err(SanError::UnknownComponent(d.clone()));
                }
            }
        }
        for vol in t.volumes.values() {
            if !t.pools.contains_key(&vol.pool) {
                return Err(SanError::UnknownComponent(vol.pool.clone()));
            }
        }
        Ok(self.topology)
    }
}

/// The Figure-1 testbed: a Red Hat Linux database server with one dual-port HBA,
/// two FC switches, an IBM DS6000-class controller with two pools — P1 (disks
/// ds-01..ds-04) holding volume V1 and P2 (disks ds-05..ds-10) holding volumes V2, V3
/// and V4 — plus a second application server that external workloads run on.
pub fn paper_testbed() -> SanTopology {
    TopologyBuilder::new()
        .server("db-server", "Red Hat Enterprise Linux", 8, 2400.0, 32_768)
        .server("app-server", "Red Hat Enterprise Linux", 8, 2400.0, 16_384)
        .hba("db-server-hba0", "db-server", 2)
        .hba("app-server-hba0", "app-server", 2)
        .switch("fc-switch-edge", 32, 4096.0)
        .switch("fc-switch-core", 64, 8192.0)
        .subsystem("DS6000", "IBM TotalStorage DS6800", 4)
        .disks("ds", 10, "DS6000", 300, 160.0, 90.0)
        .pool("P1", "DS6000", RaidLevel::Raid5, &["ds-01", "ds-02", "ds-03", "ds-04"])
        .pool("P2", "DS6000", RaidLevel::Raid5, &["ds-05", "ds-06", "ds-07", "ds-08", "ds-09", "ds-10"])
        .volume("V1", "P1", 200)
        .volume("V2", "P2", 600)
        .volume("V3", "P2", 200)
        .volume("V4", "P2", 200)
        .zone("db-zone", &["db-server"], &["DS6000"])
        .zone("app-zone", &["app-server"], &["DS6000"])
        .lun("V1", "db-server")
        .lun("V2", "db-server")
        .lun("V3", "app-server")
        .lun("V4", "app-server")
        .build()
        .expect("paper testbed is internally consistent")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_structure() {
        let t = paper_testbed();
        assert_eq!(t.servers.len(), 2);
        assert_eq!(t.volume_names(), vec!["V1", "V2", "V3", "V4"]);
        assert_eq!(t.pool_names(), vec!["P1", "P2"]);
        assert_eq!(t.disks.len(), 10);
        assert_eq!(t.pool_of_volume("V1").unwrap().name, "P1");
        assert_eq!(t.pool_of_volume("V2").unwrap().name, "P2");
        assert_eq!(t.disks_of_volume("V2").len(), 6);
        assert_eq!(t.disks_of_volume("V1").len(), 4);
        // V2 shares P2's disks with V3 and V4 — its outer dependency path in Figure 1.
        assert_eq!(t.volumes_sharing_disks("V2"), vec!["V3", "V4"]);
        assert!(t.volumes_sharing_disks("V1").is_empty());
        assert!(t.zoning.can_access("db-server", "DS6000", "V1"));
        assert!(!t.zoning.can_access("app-server", "DS6000", "V1"));
    }

    #[test]
    fn builder_validates_references() {
        let bad_pool = TopologyBuilder::new()
            .subsystem("S", "model", 1)
            .pool("P1", "S", RaidLevel::Raid0, &["missing-disk"])
            .build();
        assert!(matches!(bad_pool, Err(SanError::UnknownComponent(_))));

        let empty_pool =
            TopologyBuilder::new().subsystem("S", "model", 1).pool("P1", "S", RaidLevel::Raid0, &[]).build();
        assert!(matches!(empty_pool, Err(SanError::EmptySet(_))));

        let bad_volume = TopologyBuilder::new()
            .subsystem("S", "model", 1)
            .disks("d", 2, "S", 100, 100.0, 50.0)
            .pool("P1", "S", RaidLevel::Raid0, &["d-01", "d-02"])
            .volume("V1", "NOPOOL", 10)
            .build();
        assert!(bad_volume.is_err());

        let bad_hba = TopologyBuilder::new().hba("h0", "missing-server", 2).build();
        assert!(bad_hba.is_err());
    }

    #[test]
    fn create_volume_emits_event_and_validates() {
        let mut t = paper_testbed();
        assert!(t.create_volume(Timestamp::new(100), "Vprime", "P1", 50).is_ok());
        assert_eq!(t.volumes_sharing_disks("V1"), vec!["Vprime"]);
        assert!(matches!(
            t.create_volume(Timestamp::new(101), "Vprime", "P1", 50),
            Err(SanError::DuplicateComponent(_))
        ));
        assert!(matches!(
            t.create_volume(Timestamp::new(102), "V9", "NOPOOL", 50),
            Err(SanError::UnknownComponent(_))
        ));
        let events = t.events().of_kind(&EventKind::VolumeCreated);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].time, Timestamp::new(100));
    }

    #[test]
    fn zoning_and_lun_mutations_emit_events() {
        let mut t = paper_testbed();
        t.create_volume(Timestamp::new(10), "Vprime", "P1", 50).unwrap();
        t.add_zone(
            Timestamp::new(11),
            Zone::new("etl-zone", vec!["app-server".into()], vec!["DS6000".into()]),
        );
        t.map_lun(Timestamp::new(12), "Vprime", "app-server").unwrap();
        assert!(t.zoning.can_access("app-server", "DS6000", "Vprime"));
        assert_eq!(t.events().of_kind(&EventKind::ZoningChanged).len(), 1);
        assert_eq!(t.events().of_kind(&EventKind::LunMappingChanged).len(), 1);
        assert!(t.map_lun(Timestamp::new(13), "missing", "app-server").is_err());
        assert!(t.map_lun(Timestamp::new(13), "V1", "missing").is_err());
    }

    #[test]
    fn disk_failure_and_rebuild_events() {
        let mut t = paper_testbed();
        t.fail_disk(Timestamp::new(5), "ds-03").unwrap();
        assert!(t.disk("ds-03").unwrap().failed);
        assert_eq!(t.disks_of_volume("V1").len(), 3);
        t.start_raid_rebuild(Timestamp::new(6), "P1").unwrap();
        assert_eq!(t.events().len(), 2);
        assert!(t.fail_disk(Timestamp::new(7), "no-disk").is_err());
        assert!(t.start_raid_rebuild(Timestamp::new(7), "no-pool").is_err());
    }

    #[test]
    fn lookups_return_none_for_missing() {
        let t = paper_testbed();
        assert!(t.volume("V9").is_none());
        assert!(t.pool_of_volume("V9").is_none());
        assert!(t.disks_of_volume("V9").is_empty());
        assert!(t.server("nobody").is_none());
        assert!(t.switch("sw9").is_none());
        assert!(t.subsystem("X").is_none());
        assert!(t.hba("h9").is_none());
        assert!(t.disk("d9").is_none());
    }
}
