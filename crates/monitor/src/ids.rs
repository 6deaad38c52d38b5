//! Typed identities for every monitored component.
//!
//! An Annotated Plan Graph ties together entities from the *database* layer (the
//! instance, tablespaces, plan operators) and the *SAN* layer (servers, HBAs, switch
//! fabric, storage subsystem, pools, volumes, disks) plus the external workloads that
//! share storage. All of them are addressed uniformly by a [`ComponentId`] so that a
//! single metric store and a single dependency graph can span both layers.

/// Which administrative silo a component belongs to (Figure 1's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// Database-level entities (instance, tablespaces, plan operators).
    Database,
    /// Host server entities (the machine running the database).
    Server,
    /// Storage-network entities (HBAs, FC switches and their ports).
    Network,
    /// Storage subsystem entities (controllers, pools, volumes, disks).
    Storage,
    /// Other applications and their workloads sharing the SAN.
    Workload,
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Layer::Database => "database",
            Layer::Server => "server",
            Layer::Network => "network",
            Layer::Storage => "storage",
            Layer::Workload => "workload",
        };
        f.write_str(s)
    }
}

/// The kind of a monitored component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComponentKind {
    /// A database instance (e.g. the PostgreSQL server of the testbed).
    DatabaseInstance,
    /// A database tablespace (maps to one or more SAN volumes).
    Tablespace,
    /// One operator of a query execution plan (O1..O25 in Figure 1).
    PlanOperator,
    /// A physical host server.
    Server,
    /// A host bus adapter inside a server.
    Hba,
    /// An FC port on an HBA.
    HbaPort,
    /// A fibre-channel switch.
    FcSwitch,
    /// A port on an FC switch.
    SwitchPort,
    /// A storage subsystem / controller (e.g. IBM DS6000).
    StorageSubsystem,
    /// An FC port on a storage subsystem.
    SubsystemPort,
    /// A logical storage pool inside a subsystem.
    StoragePool,
    /// A logical volume carved out of a pool.
    StorageVolume,
    /// A physical disk backing a pool.
    Disk,
    /// An external application workload sharing the SAN.
    ExternalWorkload,
}

impl ComponentKind {
    /// The layer this kind of component belongs to.
    pub fn layer(self) -> Layer {
        match self {
            ComponentKind::DatabaseInstance | ComponentKind::Tablespace | ComponentKind::PlanOperator => {
                Layer::Database
            }
            ComponentKind::Server => Layer::Server,
            ComponentKind::Hba
            | ComponentKind::HbaPort
            | ComponentKind::FcSwitch
            | ComponentKind::SwitchPort => Layer::Network,
            ComponentKind::StorageSubsystem
            | ComponentKind::SubsystemPort
            | ComponentKind::StoragePool
            | ComponentKind::StorageVolume
            | ComponentKind::Disk => Layer::Storage,
            ComponentKind::ExternalWorkload => Layer::Workload,
        }
    }

    /// Short human-readable label used in rendered APGs.
    pub fn label(self) -> &'static str {
        match self {
            ComponentKind::DatabaseInstance => "db",
            ComponentKind::Tablespace => "tablespace",
            ComponentKind::PlanOperator => "operator",
            ComponentKind::Server => "server",
            ComponentKind::Hba => "hba",
            ComponentKind::HbaPort => "hba-port",
            ComponentKind::FcSwitch => "fc-switch",
            ComponentKind::SwitchPort => "switch-port",
            ComponentKind::StorageSubsystem => "subsystem",
            ComponentKind::SubsystemPort => "subsystem-port",
            ComponentKind::StoragePool => "pool",
            ComponentKind::StorageVolume => "volume",
            ComponentKind::Disk => "disk",
            ComponentKind::ExternalWorkload => "ext-workload",
        }
    }

    /// Resolves a kind from its [`ComponentKind::label`] spelling — the inverse used
    /// when deserialising rendered identities (e.g. engine snapshots).
    pub fn from_label(label: &str) -> Option<ComponentKind> {
        Self::all().iter().copied().find(|k| k.label() == label)
    }

    /// All component kinds (useful for catalog enumeration and property tests).
    pub fn all() -> &'static [ComponentKind] {
        &[
            ComponentKind::DatabaseInstance,
            ComponentKind::Tablespace,
            ComponentKind::PlanOperator,
            ComponentKind::Server,
            ComponentKind::Hba,
            ComponentKind::HbaPort,
            ComponentKind::FcSwitch,
            ComponentKind::SwitchPort,
            ComponentKind::StorageSubsystem,
            ComponentKind::SubsystemPort,
            ComponentKind::StoragePool,
            ComponentKind::StorageVolume,
            ComponentKind::Disk,
            ComponentKind::ExternalWorkload,
        ]
    }
}

impl std::fmt::Display for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Identity of a monitored component: its kind plus a unique name within that kind
/// (e.g. `volume:V1`, `operator:O23`, `disk:disk-07`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentId {
    /// The kind of component.
    pub kind: ComponentKind,
    /// The component's name, unique within its kind.
    pub name: String,
}

impl ComponentId {
    /// Creates a component identity.
    pub fn new(kind: ComponentKind, name: impl Into<String>) -> Self {
        ComponentId { kind, name: name.into() }
    }

    /// Shorthand for a storage-volume id.
    pub fn volume(name: impl Into<String>) -> Self {
        Self::new(ComponentKind::StorageVolume, name)
    }

    /// Shorthand for a storage-pool id.
    pub fn pool(name: impl Into<String>) -> Self {
        Self::new(ComponentKind::StoragePool, name)
    }

    /// Shorthand for a disk id.
    pub fn disk(name: impl Into<String>) -> Self {
        Self::new(ComponentKind::Disk, name)
    }

    /// Shorthand for a server id.
    pub fn server(name: impl Into<String>) -> Self {
        Self::new(ComponentKind::Server, name)
    }

    /// Shorthand for a plan-operator id (e.g. `O23`).
    pub fn operator(name: impl Into<String>) -> Self {
        Self::new(ComponentKind::PlanOperator, name)
    }

    /// Shorthand for a tablespace id.
    pub fn tablespace(name: impl Into<String>) -> Self {
        Self::new(ComponentKind::Tablespace, name)
    }

    /// Shorthand for an external-workload id.
    pub fn external_workload(name: impl Into<String>) -> Self {
        Self::new(ComponentKind::ExternalWorkload, name)
    }
}

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind.label(), self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_map_to_layers() {
        assert_eq!(ComponentKind::PlanOperator.layer(), Layer::Database);
        assert_eq!(ComponentKind::Server.layer(), Layer::Server);
        assert_eq!(ComponentKind::FcSwitch.layer(), Layer::Network);
        assert_eq!(ComponentKind::StorageVolume.layer(), Layer::Storage);
        assert_eq!(ComponentKind::ExternalWorkload.layer(), Layer::Workload);
    }

    #[test]
    fn all_kinds_are_enumerated_once() {
        let all = ComponentKind::all();
        assert_eq!(all.len(), 14);
        let mut dedup = all.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn labels_round_trip() {
        for k in ComponentKind::all() {
            assert_eq!(ComponentKind::from_label(k.label()), Some(*k));
        }
        assert_eq!(ComponentKind::from_label("nonsense"), None);
    }

    #[test]
    fn component_id_display_and_shorthands() {
        assert_eq!(ComponentId::volume("V1").to_string(), "volume:V1");
        assert_eq!(ComponentId::operator("O23").to_string(), "operator:O23");
        assert_eq!(ComponentId::disk("disk-07").to_string(), "disk:disk-07");
        assert_eq!(ComponentId::pool("P2").kind, ComponentKind::StoragePool);
        assert_eq!(ComponentId::server("dbhost").kind, ComponentKind::Server);
        assert_eq!(ComponentId::tablespace("ts_part").kind, ComponentKind::Tablespace);
        assert_eq!(ComponentId::external_workload("batch-etl").kind, ComponentKind::ExternalWorkload);
    }

    #[test]
    fn component_ids_are_hashable_and_ordered() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ComponentId::volume("V1"));
        set.insert(ComponentId::volume("V1"));
        set.insert(ComponentId::volume("V2"));
        assert_eq!(set.len(), 2);
        assert!(ComponentId::volume("V1") < ComponentId::volume("V2"));
    }
}
