//! The declarative fault vocabulary: one registry row per [`Fault`] variant.
//!
//! Everything the rest of the system needs to know *about a fault kind* — which
//! layer it injects into, which root cause a correct diagnosis is expected to
//! surface for it, whether the optimizer reacts to it with a plan change — lives
//! here as data instead of being scattered across `match` arms. Consumers:
//!
//! * [`Fault::is_database_side`] and [`crate::Scenario::is_compound_db_san`]
//!   derive layer membership from the registry, so generated compound scenarios
//!   classify correctly without per-call-site fault-kind matching;
//! * the generative scenario engine (`diads-gen`) keys its samplers and its
//!   property oracles on [`FaultKindInfo::cause_id`] and
//!   [`FaultKindInfo::also_explains`];
//! * the exclusion groups keep generated compositions diagnosable (two faults
//!   that manifest identically on the same component are never overlaid).
//!
//! Adding a `Fault` variant means adding **one row** here; the
//! `vocabulary_covers_every_fault_variant` test fails until the row exists, and
//! [`Fault::vocabulary`] panics loudly on an unregistered label rather than
//! silently misfiling the new fault.

use crate::fault::Fault;

/// The layer a fault injects into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLayer {
    /// Database-side: catalog, locks, configuration, data properties.
    Database,
    /// SAN-side: topology, external workloads, RAID, disks.
    San,
}

/// The registry row for one fault kind.
#[derive(Debug, Clone)]
pub struct FaultKindInfo {
    /// The kind's stable label — exactly what [`Fault::label`] returns.
    pub label: &'static str,
    /// The layer the fault injects into.
    pub layer: FaultLayer,
    /// The root-cause id ([`crate::scenarios::cause_ids`]) a correct diagnosis
    /// surfaces for this fault.
    pub cause_id: &'static str,
    /// Further cause ids a diagnosis may legitimately rank as actionable when
    /// this fault is injected (e.g. a SAN misconfiguration *is* an external
    /// workload hitting the database volume's disks, so a contention finding is
    /// not spurious). Soundness oracles treat these as explained, not spurious.
    pub also_explains: &'static [&'static str],
    /// Whether the optimizer reacts with a plan change, putting the diagnosis on
    /// the PD/re-drill path.
    pub changes_plan: bool,
    /// Whether the kind's diagnosis signal is inherently weak — a single event
    /// plus a modest metric shift, so confidence legitimately lands at Medium
    /// on short, noisy histories even when the fault acts alone. Oracles over
    /// generated scenarios hold subtle kinds to Medium instead of High.
    pub subtle: bool,
    /// Faults in the same exclusion group manifest near-identically on the same
    /// components; scenario generators must not overlay two of them (`None` for
    /// freely combinable kinds).
    pub exclusion_group: Option<&'static str>,
}

use crate::scenarios::cause_ids;

/// The full vocabulary, one row per [`Fault`] variant, in [`Fault::label`] order.
pub const FAULT_VOCABULARY: &[FaultKindInfo] = &[
    FaultKindInfo {
        label: "san-misconfiguration",
        layer: FaultLayer::San,
        cause_id: cause_ids::SAN_MISCONFIGURATION,
        also_explains: &[cause_ids::EXTERNAL_WORKLOAD_CONTENTION],
        changes_plan: false,
        subtle: false,
        exclusion_group: Some("v1-contention"),
    },
    FaultKindInfo {
        label: "external-volume-contention",
        layer: FaultLayer::San,
        cause_id: cause_ids::EXTERNAL_WORKLOAD_CONTENTION,
        also_explains: &[],
        changes_plan: false,
        subtle: false,
        exclusion_group: Some("v1-contention"),
    },
    FaultKindInfo {
        label: "bulk-dml",
        layer: FaultLayer::Database,
        cause_id: cause_ids::DATA_PROPERTY_CHANGE,
        also_explains: &[],
        changes_plan: false,
        subtle: false,
        // Large row growth makes the optimizer replan, so bulk DML competes
        // with the dedicated plan-change kinds for PD attribution — composing
        // them confounds the diagnosis.
        exclusion_group: Some("plan-change"),
    },
    FaultKindInfo {
        label: "table-lock-contention",
        layer: FaultLayer::Database,
        cause_id: cause_ids::TABLE_LOCK_CONTENTION,
        also_explains: &[],
        changes_plan: false,
        subtle: false,
        exclusion_group: None,
    },
    FaultKindInfo {
        label: "index-drop",
        layer: FaultLayer::Database,
        cause_id: cause_ids::INDEX_DROPPED,
        also_explains: &[],
        changes_plan: true,
        subtle: false,
        exclusion_group: Some("plan-change"),
    },
    FaultKindInfo {
        label: "config-parameter-change",
        layer: FaultLayer::Database,
        cause_id: cause_ids::CONFIG_PARAMETER_CHANGE,
        also_explains: &[],
        changes_plan: true,
        subtle: false,
        exclusion_group: Some("plan-change"),
    },
    // P1 degradation (fewer spindles / rebuild traffic) raises V1's service
    // times exactly like an external load on the volume would, so a concurrent
    // contention finding is explained, not spurious — the handcrafted
    // raid-rebuild/disk-failure scenarios likewise do not reject it.
    FaultKindInfo {
        label: "disk-failure",
        layer: FaultLayer::San,
        cause_id: cause_ids::DISK_FAILURE,
        also_explains: &[cause_ids::EXTERNAL_WORKLOAD_CONTENTION],
        changes_plan: false,
        subtle: true,
        exclusion_group: Some("p1-degradation"),
    },
    FaultKindInfo {
        label: "raid-rebuild",
        layer: FaultLayer::San,
        cause_id: cause_ids::RAID_REBUILD,
        also_explains: &[cause_ids::EXTERNAL_WORKLOAD_CONTENTION],
        changes_plan: false,
        subtle: false,
        exclusion_group: Some("p1-degradation"),
    },
];

/// Looks up the registry row for a fault-kind label.
pub fn kind_info(label: &str) -> Option<&'static FaultKindInfo> {
    FAULT_VOCABULARY.iter().find(|k| k.label == label)
}

impl Fault {
    /// The fault's vocabulary row.
    ///
    /// # Panics
    /// Panics when the fault's label is not registered in [`FAULT_VOCABULARY`] —
    /// which means a new `Fault` variant was added without its vocabulary row.
    pub fn vocabulary(&self) -> &'static FaultKindInfo {
        kind_info(self.label()).unwrap_or_else(|| {
            panic!(
                "fault kind {:?} has no row in FAULT_VOCABULARY; register it in \
                 inject/src/vocabulary.rs (layer, cause id, plan-change flag, exclusion group)",
                self.label()
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diads_db::DbConfig;
    use diads_monitor::{TimeRange, Timestamp};
    use diads_san::workload::{BurstPattern, IoProfile};

    /// One sample instance of every `Fault` variant. The match in
    /// `sample_faults` is intentionally written over an exhaustive list of
    /// variant names so adding a variant forces an update here too.
    fn sample_faults() -> Vec<Fault> {
        let w = TimeRange::new(Timestamp::new(0), Timestamp::new(100));
        vec![
            Fault::SanMisconfiguration {
                pool: "P1".into(),
                new_volume: "Vprime".into(),
                workload_server: "app-server".into(),
                profile: IoProfile::oltp(10.0, 5.0),
                window: w,
            },
            Fault::ExternalVolumeContention {
                volume: "V1".into(),
                workload_server: "app-server".into(),
                profile: IoProfile::oltp(10.0, 5.0),
                pattern: BurstPattern::Steady,
                window: w,
            },
            Fault::BulkDml {
                table: "partsupp".into(),
                row_factor: 1.5,
                new_selectivity: 1.0,
                at: Timestamp::new(1),
            },
            Fault::TableLockContention { table: "partsupp".into(), window: w, wait_secs_per_scan: 10.0 },
            Fault::IndexDrop { index: "idx".into(), at: Timestamp::new(1) },
            Fault::ConfigParameterChange {
                description: "x".into(),
                new_config: DbConfig::paper_default(),
                at: Timestamp::new(1),
            },
            Fault::DiskFailure { disk: "ds-01".into(), at: Timestamp::new(1) },
            Fault::RaidRebuild { pool: "P1".into(), window: w },
        ]
    }

    #[test]
    fn vocabulary_covers_every_fault_variant() {
        let faults = sample_faults();
        // Every variant has a row, and the registry has no strays or duplicates.
        for fault in &faults {
            let info = fault.vocabulary();
            assert_eq!(info.label, fault.label());
        }
        assert_eq!(FAULT_VOCABULARY.len(), faults.len(), "vocabulary rows must match Fault variants 1:1");
        let mut labels: Vec<&str> = FAULT_VOCABULARY.iter().map(|k| k.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FAULT_VOCABULARY.len(), "duplicate vocabulary labels");
    }

    #[test]
    fn layer_matches_the_legacy_classification() {
        for fault in sample_faults() {
            assert_eq!(
                fault.vocabulary().layer == FaultLayer::Database,
                fault.is_database_side(),
                "{}: vocabulary layer and is_database_side disagree",
                fault.label()
            );
        }
    }

    #[test]
    fn every_cause_id_is_canonical() {
        let canonical = [
            cause_ids::SAN_MISCONFIGURATION,
            cause_ids::EXTERNAL_WORKLOAD_CONTENTION,
            cause_ids::DATA_PROPERTY_CHANGE,
            cause_ids::TABLE_LOCK_CONTENTION,
            cause_ids::INDEX_DROPPED,
            cause_ids::CONFIG_PARAMETER_CHANGE,
            cause_ids::RAID_REBUILD,
            cause_ids::DISK_FAILURE,
        ];
        for info in FAULT_VOCABULARY {
            assert!(canonical.contains(&info.cause_id), "{}: unknown cause id", info.label);
            for also in info.also_explains {
                assert!(canonical.contains(also), "{}: unknown also_explains id", info.label);
            }
        }
    }

    #[test]
    fn plan_changing_kinds_share_one_exclusion_group() {
        for info in FAULT_VOCABULARY.iter().filter(|k| k.changes_plan) {
            assert_eq!(
                info.exclusion_group,
                Some("plan-change"),
                "{}: plan-changing kinds must be mutually exclusive in generated compositions",
                info.label
            );
        }
    }
}
