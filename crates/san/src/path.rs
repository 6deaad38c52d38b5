//! I/O-path resolution: the SAN half of APG dependency paths.
//!
//! Section 3 defines, for every plan operator, an *inner dependency path* — the
//! components whose performance can affect the operator directly (server, HBA, FC
//! switches, storage subsystem, pool, volume, disks) — and an *outer dependency path* —
//! components that affect it indirectly by loading the inner-path components (volumes
//! sharing the same physical disks, and the external workloads using those volumes).
//! This module computes both halves for a *volume*; `diads-core` extends them up to the
//! operator level using the tablespace→volume mapping of the database layer.

use diads_monitor::{ComponentId, ComponentKind};

use crate::topology::SanTopology;
use crate::workload::ExternalWorkload;

/// The SAN components on the inner dependency path of I/O against `volume`, issued by
/// `server`: the server itself, its HBAs, every FC switch in the fabric, the owning
/// subsystem, the owning pool, the volume, and the pool's live disks.
///
/// Unknown volumes yield an empty path.
pub fn inner_path(topology: &SanTopology, server: &str, volume: &str) -> Vec<ComponentId> {
    let Some(vol) = topology.volume(volume) else {
        return Vec::new();
    };
    let mut path = Vec::new();
    if topology.server(server).is_some() {
        path.push(ComponentId::server(server));
        if let Some(s) = topology.server(server) {
            for hba in &s.hbas {
                path.push(ComponentId::new(ComponentKind::Hba, hba.clone()));
            }
        }
    }
    for switch in topology.switch_names() {
        path.push(ComponentId::new(ComponentKind::FcSwitch, switch));
    }
    if let Some(pool) = topology.pool(&vol.pool) {
        path.push(ComponentId::new(ComponentKind::StorageSubsystem, pool.subsystem.clone()));
        path.push(ComponentId::pool(pool.name.clone()));
    }
    path.push(ComponentId::volume(volume));
    for disk in topology.disks_of_volume(volume) {
        path.push(ComponentId::disk(disk.name.clone()));
    }
    path
}

/// The SAN components on the outer dependency path of `volume`: the other volumes that
/// share its physical disks and the external workloads that target those volumes (or
/// the volume itself).
pub fn outer_path(topology: &SanTopology, workloads: &[ExternalWorkload], volume: &str) -> Vec<ComponentId> {
    let mut path = Vec::new();
    let sharing = topology.volumes_sharing_disks(volume);
    for v in &sharing {
        path.push(ComponentId::volume(v.clone()));
    }
    for w in workloads {
        if w.volume == volume || sharing.contains(&w.volume) {
            path.push(ComponentId::external_workload(w.name.clone()));
        }
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::paper_testbed;
    use crate::workload::IoProfile;
    use diads_monitor::{TimeRange, Timestamp};

    #[test]
    fn inner_path_of_v2_matches_figure1() {
        // Figure 1: the inner dependency path of the Part index scan (on V2) includes
        // the server, HBA, FC switches, storage subsystem, pool P2, volume V2 and
        // disks 5-10.
        let t = paper_testbed();
        let path = inner_path(&t, "db-server", "V2");
        let has = |kind: ComponentKind, name: &str| path.iter().any(|c| c.kind == kind && c.name == name);
        assert!(has(ComponentKind::Server, "db-server"));
        assert!(has(ComponentKind::Hba, "db-server-hba0"));
        assert!(has(ComponentKind::FcSwitch, "fc-switch-edge"));
        assert!(has(ComponentKind::FcSwitch, "fc-switch-core"));
        assert!(has(ComponentKind::StorageSubsystem, "DS6000"));
        assert!(has(ComponentKind::StoragePool, "P2"));
        assert!(has(ComponentKind::StorageVolume, "V2"));
        for i in 5..=10 {
            assert!(has(ComponentKind::Disk, &format!("ds-{i:02}")), "missing disk ds-{i:02}");
        }
        // And nothing from P1.
        assert!(!has(ComponentKind::StoragePool, "P1"));
        assert!(!has(ComponentKind::Disk, "ds-01"));
    }

    #[test]
    fn inner_path_unknown_volume_is_empty() {
        let t = paper_testbed();
        assert!(inner_path(&t, "db-server", "V99").is_empty());
    }

    #[test]
    fn outer_path_of_v2_includes_v3_v4_and_their_workloads() {
        // Figure 1: V2's outer dependency path includes volumes V3 and V4 (shared
        // disks) and the other applications' workloads.
        let t = paper_testbed();
        let workloads = vec![
            ExternalWorkload::steady(
                "report-archiver",
                "app-server",
                "V3",
                IoProfile::oltp(50.0, 20.0),
                TimeRange::new(Timestamp::new(0), Timestamp::new(1_000)),
            ),
            ExternalWorkload::steady(
                "unrelated-on-v1",
                "app-server",
                "V1",
                IoProfile::oltp(50.0, 20.0),
                TimeRange::new(Timestamp::new(0), Timestamp::new(1_000)),
            ),
        ];
        let path = outer_path(&t, &workloads, "V2");
        assert!(path.contains(&ComponentId::volume("V3")));
        assert!(path.contains(&ComponentId::volume("V4")));
        assert!(path.contains(&ComponentId::external_workload("report-archiver")));
        assert!(!path.contains(&ComponentId::external_workload("unrelated-on-v1")));
        // V1 shares no disks with anything in the default testbed.
        assert!(outer_path(&t, &[], "V1").is_empty());
    }
}
