//! Fault types and the injector that applies them to a testbed.

use diads_db::{Catalog, DbConfig, LockContentionWindow, LockManager};
use diads_monitor::{ComponentId, Event, EventKind, EventStore, TimeRange, Timestamp};
use diads_san::workload::{BurstPattern, ExternalWorkload, IoProfile};
use diads_san::zoning::Zone;
use diads_san::SanSimulator;

/// A fault that can be injected into the database or SAN layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Scenario 1's SAN misconfiguration: a new volume is created on an existing pool
    /// (sharing its physical disks with the database's volume), a new zone and LUN
    /// mapping give another server access to it, and an external workload starts
    /// hammering it.
    SanMisconfiguration {
        /// Pool the new volume is carved from (the database volume's pool).
        pool: String,
        /// Name of the new volume (the paper's V′).
        new_volume: String,
        /// Server the interfering application runs on.
        workload_server: String,
        /// I/O intensity of the interfering application.
        profile: IoProfile,
        /// Window during which the interfering application runs.
        window: TimeRange,
    },
    /// Direct contention from an external workload on an *existing* volume
    /// (scenario 2's V1/V2 loads, and the bursty V2 load of Table 2's second column).
    ExternalVolumeContention {
        /// Target volume.
        volume: String,
        /// Server the workload runs on.
        workload_server: String,
        /// I/O intensity.
        profile: IoProfile,
        /// Temporal shape.
        pattern: BurstPattern,
        /// Active window.
        window: TimeRange,
    },
    /// A bulk DML statement changes a table's data properties (scenarios 3 and 4).
    BulkDml {
        /// Affected table.
        table: String,
        /// Multiplier applied to the row count.
        row_factor: f64,
        /// New predicate selectivity.
        new_selectivity: f64,
        /// When the DML ran.
        at: Timestamp,
    },
    /// Another session holds conflicting locks on a table (scenario 5).
    TableLockContention {
        /// Locked table.
        table: String,
        /// Window of contention.
        window: TimeRange,
        /// Seconds each scan of the table waits during the window.
        wait_secs_per_scan: f64,
    },
    /// An index is dropped (a classic cause of plan changes for module PD).
    IndexDrop {
        /// Index name.
        index: String,
        /// When it was dropped.
        at: Timestamp,
    },
    /// A planner configuration parameter changes (another plan-change cause).
    ConfigParameterChange {
        /// Human-readable description of the change (e.g. `random_page_cost: 4 -> 40`).
        description: String,
        /// The configuration in effect after the change.
        new_config: DbConfig,
        /// When the change took effect.
        at: Timestamp,
    },
    /// A physical disk fails.
    DiskFailure {
        /// Disk name.
        disk: String,
        /// When it failed.
        at: Timestamp,
    },
    /// A RAID rebuild loads a pool for a window of time.
    RaidRebuild {
        /// Pool being rebuilt.
        pool: String,
        /// Rebuild window.
        window: TimeRange,
    },
}

impl Fault {
    /// A short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::SanMisconfiguration { .. } => "san-misconfiguration",
            Fault::ExternalVolumeContention { .. } => "external-volume-contention",
            Fault::BulkDml { .. } => "bulk-dml",
            Fault::TableLockContention { .. } => "table-lock-contention",
            Fault::IndexDrop { .. } => "index-drop",
            Fault::ConfigParameterChange { .. } => "config-parameter-change",
            Fault::DiskFailure { .. } => "disk-failure",
            Fault::RaidRebuild { .. } => "raid-rebuild",
        }
    }

    /// Whether the fault injects into the **database** layer (`true`) or the
    /// **SAN** layer (`false`). Derived from the fault's
    /// [`crate::vocabulary::FAULT_VOCABULARY`] row — adding a `Fault` variant
    /// forces a registry entry (the lookup panics otherwise), so
    /// compound-scenario accounting ([`crate::Scenario::is_compound_db_san`])
    /// can never silently misfile a new fault.
    pub fn is_database_side(&self) -> bool {
        self.vocabulary().layer == crate::vocabulary::FaultLayer::Database
    }

    /// When the fault first takes effect.
    pub(crate) fn effective_at(&self) -> Timestamp {
        match self {
            Fault::SanMisconfiguration { window, .. } => window.start,
            Fault::ExternalVolumeContention { window, .. } => window.start,
            Fault::BulkDml { at, .. } => *at,
            Fault::TableLockContention { window, .. } => window.start,
            Fault::IndexDrop { at, .. } => *at,
            Fault::ConfigParameterChange { at, .. } => *at,
            Fault::DiskFailure { at, .. } => *at,
            Fault::RaidRebuild { window, .. } => window.start,
        }
    }
}

/// A fault wrapped with the timestamp it should be injected at (usually the same as the
/// fault's own effective time, kept separate so scenarios can stage configuration ahead
/// of activity).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFault {
    /// When the injector should apply the fault.
    pub inject_at: Timestamp,
    /// The fault.
    pub fault: Fault,
}

impl TimedFault {
    /// Wraps a fault, injecting it at its own effective time.
    pub fn new(fault: Fault) -> Self {
        TimedFault { inject_at: fault.effective_at(), fault }
    }
}

/// Applies faults to the mutable pieces of a testbed.
#[derive(Debug, Default)]
pub struct Injector;

impl Injector {
    /// Creates an injector.
    pub fn new() -> Self {
        Injector
    }

    /// Applies one fault. Database-side faults also leave an event on the shared event
    /// store so module SD can reason about them (SAN-side faults emit their events
    /// through the topology itself).
    ///
    /// Returns a human-readable description of what was done.
    ///
    /// # Panics
    /// Never panics; faults referencing unknown components are reported in the returned
    /// description and otherwise skipped (the injector is a test harness, not an API).
    pub fn apply(
        &self,
        fault: &Fault,
        san: &mut SanSimulator,
        catalog: &mut Catalog,
        locks: &mut LockManager,
        config: &mut DbConfig,
        events: &mut EventStore,
    ) -> String {
        match fault {
            Fault::SanMisconfiguration { pool, new_volume, workload_server, profile, window } => {
                let t = window.start;
                if let Err(e) = san.topology_mut().create_volume(t, new_volume.clone(), pool, 100) {
                    return format!("san-misconfiguration failed: {e}");
                }
                let subsystem = san.topology().pool(pool).map(|p| p.subsystem.clone()).unwrap_or_default();
                san.topology_mut().add_zone(
                    t,
                    Zone::new(
                        format!("{workload_server}-zone-{new_volume}"),
                        vec![workload_server.clone()],
                        vec![subsystem],
                    ),
                );
                let _ = san.topology_mut().map_lun(t, new_volume, workload_server);
                let _ = san.add_workload(ExternalWorkload::steady(
                    format!("interloper-on-{new_volume}"),
                    workload_server.clone(),
                    new_volume.clone(),
                    *profile,
                    *window,
                ));
                format!(
                    "created volume {new_volume} on pool {pool}, zoned and mapped it to {workload_server}, \
                     and started an external workload against it"
                )
            }
            Fault::ExternalVolumeContention { volume, workload_server, profile, pattern, window } => {
                let workload = ExternalWorkload::bursty(
                    format!("contention-on-{volume}"),
                    workload_server.clone(),
                    volume.clone(),
                    *profile,
                    *pattern,
                    *window,
                );
                match san.add_workload(workload) {
                    Ok(()) => format!("started an external workload against volume {volume}"),
                    Err(e) => format!("external contention failed: {e}"),
                }
            }
            Fault::BulkDml { table, row_factor, new_selectivity, at } => {
                match catalog.apply_bulk_dml(table, *row_factor, *new_selectivity) {
                    Ok(rows) => {
                        events.record(Event::new(
                            *at,
                            ComponentId::tablespace(
                                catalog.table(table).map(|t| t.tablespace.clone()).unwrap_or_default(),
                            ),
                            EventKind::DataPropertiesChanged,
                            format!("bulk DML on {table}: now {rows} rows, selectivity {new_selectivity}"),
                        ));
                        format!("bulk DML changed data properties of {table}")
                    }
                    Err(e) => format!("bulk DML failed: {e}"),
                }
            }
            Fault::TableLockContention { table, window, wait_secs_per_scan } => {
                locks.add_contention(LockContentionWindow {
                    table: table.clone(),
                    window: *window,
                    wait_secs_per_scan: *wait_secs_per_scan,
                });
                events.record(Event::new(
                    window.start,
                    ComponentId::new(diads_monitor::ComponentKind::DatabaseInstance, "reports-db"),
                    EventKind::LockContention,
                    format!("long-running transaction holds locks on {table}"),
                ));
                format!("lock contention on {table} for {}s per scan", wait_secs_per_scan)
            }
            Fault::IndexDrop { index, at } => match catalog.drop_index(index) {
                Ok(dropped) => {
                    events.record(Event::new(
                        *at,
                        ComponentId::new(diads_monitor::ComponentKind::DatabaseInstance, "reports-db"),
                        EventKind::IndexDropped,
                        format!("index {index} on {} dropped", dropped.table),
                    ));
                    format!("dropped index {index}")
                }
                Err(e) => format!("index drop failed: {e}"),
            },
            Fault::ConfigParameterChange { description, new_config, at } => {
                *config = new_config.clone();
                events.record(Event::new(
                    *at,
                    ComponentId::new(diads_monitor::ComponentKind::DatabaseInstance, "reports-db"),
                    EventKind::ConfigParameterChanged,
                    description.clone(),
                ));
                format!("configuration changed: {description}")
            }
            Fault::DiskFailure { disk, at } => match san.topology_mut().fail_disk(*at, disk) {
                Ok(()) => format!("disk {disk} failed"),
                Err(e) => format!("disk failure injection failed: {e}"),
            },
            Fault::RaidRebuild { pool, window } => match san.add_rebuild_window(pool, *window) {
                Ok(()) => format!("RAID rebuild on pool {pool} for {}s", window.duration().as_secs()),
                Err(e) => format!("raid rebuild injection failed: {e}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diads_monitor::Duration;
    use diads_san::topology::paper_testbed;
    use diads_workload::{tpch_catalog, TpchLayout};

    fn window(start: u64, secs: u64) -> TimeRange {
        TimeRange::with_duration(Timestamp::new(start), Duration::from_secs(secs))
    }

    struct Bed {
        san: SanSimulator,
        catalog: Catalog,
        locks: LockManager,
        config: DbConfig,
        events: EventStore,
    }

    fn bed() -> Bed {
        Bed {
            san: SanSimulator::new(paper_testbed()),
            catalog: tpch_catalog(1.0, &TpchLayout::paper_default()),
            locks: LockManager::new(),
            config: DbConfig::paper_default(),
            events: EventStore::new(),
        }
    }

    fn apply(bed: &mut Bed, fault: &Fault) -> String {
        Injector::new().apply(
            fault,
            &mut bed.san,
            &mut bed.catalog,
            &mut bed.locks,
            &mut bed.config,
            &mut bed.events,
        )
    }

    #[test]
    fn san_misconfiguration_creates_volume_zone_mapping_and_workload() {
        let mut b = bed();
        let fault = Fault::SanMisconfiguration {
            pool: "P1".into(),
            new_volume: "Vprime".into(),
            workload_server: "app-server".into(),
            profile: IoProfile::oltp(200.0, 100.0),
            window: window(1_000, 100_000),
        };
        let msg = apply(&mut b, &fault);
        assert!(msg.contains("Vprime"));
        assert!(b.san.topology().volume("Vprime").is_some());
        assert!(b.san.topology().zoning.can_access("app-server", "DS6000", "Vprime"));
        assert_eq!(b.san.workloads().len(), 1);
        // The three configuration events of scenario 1 are on the topology timeline.
        let events = b.san.topology().events();
        assert_eq!(events.of_kind(&EventKind::VolumeCreated).len(), 1);
        assert_eq!(events.of_kind(&EventKind::ZoningChanged).len(), 1);
        assert_eq!(events.of_kind(&EventKind::LunMappingChanged).len(), 1);
        assert_eq!(fault.label(), "san-misconfiguration");
        assert_eq!(fault.effective_at(), Timestamp::new(1_000));
    }

    #[test]
    fn external_contention_and_rebuild_and_disk_failure() {
        let mut b = bed();
        let msg = apply(
            &mut b,
            &Fault::ExternalVolumeContention {
                volume: "V2".into(),
                workload_server: "app-server".into(),
                profile: IoProfile::batch_write(300.0),
                pattern: BurstPattern::Steady,
                window: window(0, 10_000),
            },
        );
        assert!(msg.contains("V2"));
        assert_eq!(b.san.workloads().len(), 1);

        let msg = apply(&mut b, &Fault::RaidRebuild { pool: "P2".into(), window: window(100, 500) });
        assert!(msg.contains("P2"));
        let msg = apply(&mut b, &Fault::DiskFailure { disk: "ds-07".into(), at: Timestamp::new(5) });
        assert!(msg.contains("ds-07"));
        assert!(b.san.topology().disk("ds-07").unwrap().failed);

        // Unknown targets are reported, not panicked on.
        let msg = apply(&mut b, &Fault::DiskFailure { disk: "nope".into(), at: Timestamp::new(5) });
        assert!(msg.contains("failed:"));
        let msg = apply(
            &mut b,
            &Fault::ExternalVolumeContention {
                volume: "V99".into(),
                workload_server: "app-server".into(),
                profile: IoProfile::oltp(1.0, 1.0),
                pattern: BurstPattern::Steady,
                window: window(0, 10),
            },
        );
        assert!(msg.contains("failed"));
    }

    #[test]
    fn database_side_faults_record_events() {
        let mut b = bed();
        apply(
            &mut b,
            &Fault::BulkDml {
                table: "partsupp".into(),
                row_factor: 2.0,
                new_selectivity: 0.3,
                at: Timestamp::new(7),
            },
        );
        assert_eq!(b.catalog.table("partsupp").unwrap().row_count, 1_600_000);
        assert_eq!(b.events.of_kind(&EventKind::DataPropertiesChanged).len(), 1);

        apply(
            &mut b,
            &Fault::TableLockContention {
                table: "partsupp".into(),
                window: window(10, 100),
                wait_secs_per_scan: 30.0,
            },
        );
        assert_eq!(b.locks.windows().len(), 1);
        assert_eq!(b.events.of_kind(&EventKind::LockContention).len(), 1);

        apply(&mut b, &Fault::IndexDrop { index: "part_type_size_idx".into(), at: Timestamp::new(20) });
        assert!(b.catalog.index("part_type_size_idx").is_none());
        assert_eq!(b.events.of_kind(&EventKind::IndexDropped).len(), 1);

        let new_config = DbConfig::paper_default().with_random_page_cost(40.0);
        apply(
            &mut b,
            &Fault::ConfigParameterChange {
                description: "random_page_cost: 4 -> 40".into(),
                new_config: new_config.clone(),
                at: Timestamp::new(30),
            },
        );
        assert_eq!(b.config, new_config);
        assert_eq!(b.events.of_kind(&EventKind::ConfigParameterChanged).len(), 1);

        // Failed database faults are reported.
        let msg = apply(&mut b, &Fault::IndexDrop { index: "missing".into(), at: Timestamp::new(40) });
        assert!(msg.contains("failed"));
        let msg = apply(
            &mut b,
            &Fault::BulkDml {
                table: "missing".into(),
                row_factor: 1.0,
                new_selectivity: 0.1,
                at: Timestamp::new(41),
            },
        );
        assert!(msg.contains("failed"));
    }

    #[test]
    fn timed_fault_defaults_to_effective_time() {
        let fault = Fault::IndexDrop { index: "part_pkey".into(), at: Timestamp::new(99) };
        let timed = TimedFault::new(fault.clone());
        assert_eq!(timed.inject_at, Timestamp::new(99));
        assert_eq!(timed.fault, fault);
    }
}
