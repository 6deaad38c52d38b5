//! The five problem-injection scenarios of Table 1, the bursty-V2 variant of
//! scenario 1 that produces the second column of Table 2, and the extended matrix:
//! plan-change scenarios, SAN-degradation scenarios and **compound** DB+SAN
//! scenarios built with [`ScenarioComposer`].
//!
//! Each scenario is a canned timeline: a period of satisfactory report runs, one or
//! more faults injected, and a period of unsatisfactory runs, together with the
//! expected diagnosis outcome so that the experiment harness and the integration tests
//! can check DIADS's verdict automatically. Compound scenarios overlay two or more
//! faults with *independent onset times* onto one timeline — the paper's
//! "my-problem-or-yours" situation where database and SAN problems co-occur.

use diads_db::DbConfig;
use diads_monitor::noise::NoiseModel;
use diads_monitor::{Duration, TimeRange, Timestamp};
use diads_san::workload::{BurstPattern, IoProfile};

use crate::fault::{Fault, TimedFault};

/// Canonical root-cause identifiers shared between the scenarios' expected outcomes and
/// the symptoms database of `diads-core`.
pub mod cause_ids {
    /// A misconfigured new volume placed on the database volume's disks plus an
    /// external workload against it.
    pub const SAN_MISCONFIGURATION: &str = "san-misconfiguration-contention";
    /// Contention from an external workload directly on a database volume.
    pub const EXTERNAL_WORKLOAD_CONTENTION: &str = "external-workload-contention";
    /// A change in data properties caused by DML.
    pub const DATA_PROPERTY_CHANGE: &str = "data-property-change";
    /// Lock contention on a database table.
    pub const TABLE_LOCK_CONTENTION: &str = "table-lock-contention";
    /// A plan change caused by an index being dropped.
    pub const INDEX_DROPPED: &str = "index-dropped";
    /// A plan change caused by a configuration-parameter change.
    pub const CONFIG_PARAMETER_CHANGE: &str = "config-parameter-change";
    /// A RAID rebuild loading the pool.
    pub const RAID_REBUILD: &str = "raid-rebuild";
    /// A failed disk shrinking the pool backing a database volume.
    pub const DISK_FAILURE: &str = "disk-failure";
}

/// The run cadence and satisfactory/unsatisfactory split of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioTimeline {
    /// Time of the first report run.
    pub first_run: Timestamp,
    /// Interval between runs.
    pub run_interval: Duration,
    /// Number of runs before the fault (the satisfactory history).
    pub satisfactory_runs: usize,
    /// Number of runs after the fault (the unsatisfactory evidence).
    pub unsatisfactory_runs: usize,
}

impl ScenarioTimeline {
    /// The paper-style cadence: a report every hour, 30 satisfactory runs, 10
    /// unsatisfactory runs.
    pub fn paper_default() -> Self {
        ScenarioTimeline {
            first_run: Timestamp::new(3_600),
            run_interval: Duration::from_hours(1),
            satisfactory_runs: 30,
            unsatisfactory_runs: 10,
        }
    }

    /// A shorter cadence for fast tests (12 satisfactory / 6 unsatisfactory runs).
    pub fn short() -> Self {
        ScenarioTimeline {
            first_run: Timestamp::new(1_800),
            run_interval: Duration::from_hours(1),
            satisfactory_runs: 12,
            unsatisfactory_runs: 6,
        }
    }

    /// Total number of runs.
    pub fn total_runs(&self) -> usize {
        self.satisfactory_runs + self.unsatisfactory_runs
    }

    /// When the fault takes effect: half an interval before the first unsatisfactory run.
    pub fn fault_time(&self) -> Timestamp {
        self.first_run
            .plus(self.run_interval.scale(self.satisfactory_runs as f64))
            .minus(self.run_interval.scale(0.5))
    }

    /// The end of the simulated period (one interval after the last run).
    pub fn end_time(&self) -> Timestamp {
        self.first_run.plus(self.run_interval.scale(self.total_runs() as f64 + 1.0))
    }

    /// Start time of the last scheduled run — a natural instant for what-if
    /// evaluation, since every (possibly staggered) fault has taken effect by then.
    pub fn last_run_start(&self) -> Timestamp {
        self.first_run.plus(self.run_interval.scale(self.total_runs().saturating_sub(1) as f64))
    }

    /// The window from the fault to the end of the simulation (the default "active"
    /// window of injected contention).
    pub(crate) fn fault_window(&self) -> TimeRange {
        TimeRange::new(self.fault_time(), self.end_time())
    }

    /// The onset time of a *secondary* fault injected `delay` after the primary
    /// fault — the independent-onset knob compound scenarios stagger faults with.
    pub fn fault_time_after(&self, delay: Duration) -> Timestamp {
        self.fault_time().plus(delay)
    }

    /// The active window of a fault whose onset is `delay` after the primary fault
    /// time (running to the end of the simulation).
    pub(crate) fn fault_window_after(&self, delay: Duration) -> TimeRange {
        TimeRange::new(self.fault_time_after(delay), self.end_time())
    }
}

/// What DIADS is expected to conclude for a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedOutcome {
    /// Cause ids that must be reported with high confidence and high impact.
    pub primary_causes: Vec<String>,
    /// Cause ids that must *not* end up as high-confidence, high-impact findings
    /// (the spurious explanations the scenario is designed to tempt a tool into).
    pub rejected_causes: Vec<String>,
}

/// One evaluation scenario: faults over a timeline plus the expected verdict.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable identifier (`scenario-1` .. `scenario-5`, `scenario-1b`).
    pub id: String,
    /// The Table-1 problem description.
    pub name: String,
    /// A longer explanation of the injected problem.
    pub description: String,
    /// The Table-1 "critical role of DIADS modules" column.
    pub critical_modules: String,
    /// Run cadence.
    pub timeline: ScenarioTimeline,
    /// TPC-H scale factor of the testbed.
    pub scale_factor: f64,
    /// Faults to inject, in injection order.
    pub faults: Vec<TimedFault>,
    /// Monitoring-noise model for the collector.
    pub noise: NoiseModel,
    /// Expected diagnosis.
    pub expected: ExpectedOutcome,
}

impl Scenario {
    /// Returns a copy of the scenario with the shorter test timeline, re-deriving the
    /// fault windows (only scenarios built by this module's constructors are supported).
    pub(crate) fn with_timeline(&self, timeline: ScenarioTimeline) -> Scenario {
        let builder: fn(ScenarioTimeline) -> Scenario = match self.id.as_str() {
            "scenario-1" => scenario_1,
            "scenario-1b" => scenario_1b,
            "scenario-2" => scenario_2,
            "scenario-3" => scenario_3,
            "scenario-4" => scenario_4,
            "scenario-5" => scenario_5,
            "scenario-index-drop" => index_drop_scenario,
            "scenario-config-change" => config_change_scenario,
            "scenario-raid-rebuild" => raid_rebuild_scenario,
            "scenario-disk-failure" => disk_failure_scenario,
            "compound-lock-interloper" => compound_lock_and_interloper_scenario,
            "compound-index-raid" => compound_index_drop_and_raid_scenario,
            "compound-config-contention" => compound_config_and_contention_scenario,
            "compound-dml-contention" => compound_dml_and_contention_scenario,
            _ => return self.clone(),
        };
        builder(timeline)
    }

    /// Whether the scenario injects faults into **both** layers — at least one
    /// database-side fault and at least one SAN-side fault (the paper's compound
    /// "my-problem-or-yours" situation). Layer membership comes from each fault's
    /// [`crate::vocabulary::FAULT_VOCABULARY`] row, so a new fault variant cannot
    /// be silently misfiled: an unregistered kind panics at classification time
    /// instead of defaulting into one layer.
    pub fn is_compound_db_san(&self) -> bool {
        use crate::vocabulary::FaultLayer;
        let mut db = false;
        let mut san = false;
        for f in &self.faults {
            match f.fault.vocabulary().layer {
                FaultLayer::Database => db = true,
                FaultLayer::San => san = true,
            }
        }
        db && san
    }
}

/// Builder for scenarios composed of several faults with independent onset times —
/// the library support the compound DB+SAN scenarios are written with.
///
/// A composer starts from an id, a name and a timeline (defaults: scale factor 10,
/// the Table-1 Gaussian collector noise) and accumulates faults in injection-time
/// order. Faults are overlaid either one at a time ([`ScenarioComposer::fault`],
/// `ScenarioComposer::timed_fault`) or wholesale from an existing scenario
/// ([`ScenarioComposer::overlay`], which rebases the donor onto the composer's
/// timeline and merges its expected causes). Onset staggering comes from the
/// timeline helpers (`ScenarioTimeline::fault_window_after` /
/// [`ScenarioTimeline::fault_time_after`]): each fault carries its own window or
/// instant, so two faults need not start together.
#[derive(Debug, Clone)]
pub struct ScenarioComposer {
    scenario: Scenario,
}

impl ScenarioComposer {
    /// Starts a composition with the defaults shared by the Table-1 scenarios
    /// (scale factor 10, `Gaussian { sigma: 0.05 }` noise, no faults yet).
    pub fn new(id: impl Into<String>, name: impl Into<String>, timeline: ScenarioTimeline) -> Self {
        ScenarioComposer {
            scenario: Scenario {
                id: id.into(),
                name: name.into(),
                description: String::new(),
                critical_modules: String::new(),
                timeline,
                scale_factor: 10.0,
                faults: Vec::new(),
                noise: NoiseModel::Gaussian { sigma: 0.05 },
                expected: ExpectedOutcome { primary_causes: Vec::new(), rejected_causes: Vec::new() },
            },
        }
    }

    /// Sets the long-form description.
    pub fn describe(mut self, description: impl Into<String>) -> Self {
        self.scenario.description = description.into();
        self
    }

    /// Sets the "critical role of DIADS modules" note.
    pub fn critical_modules(mut self, modules: impl Into<String>) -> Self {
        self.scenario.critical_modules = modules.into();
        self
    }

    /// Overrides the TPC-H scale factor.
    pub fn scale_factor(mut self, scale_factor: f64) -> Self {
        self.scenario.scale_factor = scale_factor;
        self
    }

    /// Overrides the collector-noise model.
    pub fn noise(mut self, noise: NoiseModel) -> Self {
        self.scenario.noise = noise;
        self
    }

    /// Overlays a fault, injected at its own effective time (the start of its
    /// window, or its instant). Stagger onsets by building the fault with
    /// `ScenarioTimeline::fault_window_after` / [`ScenarioTimeline::fault_time_after`].
    pub fn fault(self, fault: Fault) -> Self {
        self.timed_fault(TimedFault::new(fault))
    }

    /// Overlays a fault with an explicit injection time (for staging configuration
    /// ahead of activity).
    pub(crate) fn timed_fault(mut self, fault: TimedFault) -> Self {
        self.scenario.faults.push(fault);
        self.scenario.faults.sort_by_key(|f| f.inject_at);
        self
    }

    /// Overlays every fault of an existing scenario, rebased onto this composer's
    /// timeline, and merges the donor's expected primary/rejected causes (rejected
    /// causes that another donor expects as primary are dropped).
    ///
    /// A donor already on the composer's timeline is taken as-is; any other donor
    /// is rebased through `Scenario::with_timeline`, which only knows this
    /// module's constructors.
    ///
    /// # Panics
    /// Panics when the donor sits on a different timeline *and* is not rebasable
    /// (its id is not a registered constructor): silently merging its fault times
    /// verbatim would produce a scenario whose faults miss the composed
    /// satisfactory/unsatisfactory split. Also panics when a (rebased) donor
    /// fault is injected at or after the composer timeline's end: such a fault
    /// never influences a run, so its merged expected causes could not be
    /// satisfied — the donor's expectations would be silently truncated from the
    /// observable behaviour. Build such donors on the composer's timeline (or a
    /// shorter one) instead.
    pub fn overlay(mut self, donor: &Scenario) -> Self {
        // A donor already on this timeline is merged verbatim — including any
        // caller customisations a registered-constructor rebuild would discard.
        let rebased = if donor.timeline == self.scenario.timeline {
            donor.clone()
        } else {
            donor.with_timeline(self.scenario.timeline)
        };
        assert!(
            rebased.timeline == self.scenario.timeline,
            "ScenarioComposer::overlay: donor {} is on a different timeline and has no registered \
             constructor to rebase it; build it on the composer's timeline instead",
            donor.id
        );
        let end = self.scenario.timeline.end_time();
        for f in &rebased.faults {
            assert!(
                f.inject_at < end,
                "ScenarioComposer::overlay: donor {} injects {} at t={}s, at/after the composer \
                 timeline's end ({}s); the fault would never influence a run and the donor's \
                 expected causes would be silently unobservable — build the donor on the \
                 composer's timeline",
                donor.id,
                f.fault.label(),
                f.inject_at.as_secs(),
                end.as_secs()
            );
        }
        self.scenario.faults.extend(rebased.faults);
        self.scenario.faults.sort_by_key(|f| f.inject_at);
        for cause in rebased.expected.primary_causes {
            if !self.scenario.expected.primary_causes.contains(&cause) {
                self.scenario.expected.primary_causes.push(cause);
            }
        }
        for cause in rebased.expected.rejected_causes {
            if !self.scenario.expected.rejected_causes.contains(&cause) {
                self.scenario.expected.rejected_causes.push(cause);
            }
        }
        self
    }

    /// Adds an expected primary cause.
    pub fn expect(mut self, cause_id: impl Into<String>) -> Self {
        let cause = cause_id.into();
        if !self.scenario.expected.primary_causes.contains(&cause) {
            self.scenario.expected.primary_causes.push(cause);
        }
        self
    }

    /// Adds a cause that must *not* be reported with high confidence and impact.
    pub fn reject(mut self, cause_id: impl Into<String>) -> Self {
        let cause = cause_id.into();
        if !self.scenario.expected.rejected_causes.contains(&cause) {
            self.scenario.expected.rejected_causes.push(cause);
        }
        self
    }

    /// Finishes the composition. Expected primary causes win over rejections
    /// inherited from overlaid donors (a donor's "must not report X" no longer
    /// applies once the composition injects X's fault).
    pub fn build(mut self) -> Scenario {
        let primary = self.scenario.expected.primary_causes.clone();
        self.scenario.expected.rejected_causes.retain(|c| !primary.contains(c));
        self.scenario
    }
}

/// The interloper profile used by the SAN-misconfiguration scenarios: enough random
/// I/O against a 4-disk RAID-5 pool to roughly double V1's service times.
fn interloper_profile() -> IoProfile {
    IoProfile::oltp(150.0, 60.0)
}

/// Scenario 1: SAN misconfiguration leading to contention in volume V1.
pub fn scenario_1(timeline: ScenarioTimeline) -> Scenario {
    Scenario {
        id: "scenario-1".into(),
        name: "SAN misconfiguration leading to contention in volume V1".into(),
        description: "A new volume V' is created on pool P1 (the physical disks backing V1), a new zone and \
                      LUN mapping give the application server access to it, and an external workload starts \
                      issuing I/O against it. The report query slows down because its partsupp scans share \
                      V1's disks with the interloper."
            .into(),
        critical_modules:
            "Identified symptoms pinpoint the correct volume; SD maps symptoms to the correct root cause"
                .into(),
        timeline,
        scale_factor: 10.0,
        faults: vec![TimedFault::new(Fault::SanMisconfiguration {
            pool: "P1".into(),
            new_volume: "Vprime".into(),
            workload_server: "app-server".into(),
            profile: interloper_profile(),
            window: timeline.fault_window(),
        })],
        noise: NoiseModel::Gaussian { sigma: 0.05 },
        expected: ExpectedOutcome {
            primary_causes: vec![cause_ids::SAN_MISCONFIGURATION.into()],
            rejected_causes: vec![
                cause_ids::DATA_PROPERTY_CHANGE.into(),
                cause_ids::TABLE_LOCK_CONTENTION.into(),
            ],
        },
    }
}

/// Scenario 1b: scenario 1 plus a *bursty* external load on V2 that raises V2's metrics
/// without materially affecting the query (the second column of Table 2).
pub fn scenario_1b(timeline: ScenarioTimeline) -> Scenario {
    let mut s = scenario_1(timeline);
    s.id = "scenario-1b".into();
    s.name = "Scenario 1 plus bursty, low-impact contention on volume V2".into();
    s.description.push_str(
        " Additionally, a bursty write workload hits V2 directly; it inflates V2's performance metrics but \
         has little impact on the query beyond the original effect of V1's contention.",
    );
    s.faults.push(TimedFault::new(Fault::ExternalVolumeContention {
        volume: "V2".into(),
        workload_server: "app-server".into(),
        profile: IoProfile::batch_write(150.0),
        pattern: BurstPattern::Bursty {
            period_secs: 1_800,
            burst_secs: 900,
            multiplier: 1.0,
            idle_fraction: 0.0,
        },
        window: timeline.fault_window(),
    }));
    s.expected.rejected_causes.push(cause_ids::EXTERNAL_WORKLOAD_CONTENTION.into());
    s
}

/// Scenario 2: external contention on both V1 and V2, with only the V1 load affecting
/// query performance.
pub fn scenario_2(timeline: ScenarioTimeline) -> Scenario {
    Scenario {
        id: "scenario-2".into(),
        name: "Contention caused by external workloads on volumes V1 and V2; only the former affects query performance"
            .into(),
        description: "Two external workloads appear at the same time: a heavy random-I/O workload on V1 (which the \
                      partsupp scans depend on) and a light sequential write workload on V2 (whose leaf operators are \
                      small and mostly cached). Only the V1 contention explains the slowdown; dependency analysis must \
                      prune the V2 symptoms."
            .into(),
        critical_modules: "DA prunes out the unrelated symptoms and events for volume V2".into(),
        timeline,
        scale_factor: 10.0,
        faults: vec![
            TimedFault::new(Fault::ExternalVolumeContention {
                volume: "V1".into(),
                workload_server: "app-server".into(),
                profile: interloper_profile(),
                pattern: BurstPattern::Steady,
                window: timeline.fault_window(),
            }),
            TimedFault::new(Fault::ExternalVolumeContention {
                volume: "V2".into(),
                workload_server: "app-server".into(),
                profile: IoProfile::batch_write(80.0),
                pattern: BurstPattern::Steady,
                window: timeline.fault_window(),
            }),
        ],
        noise: NoiseModel::Gaussian { sigma: 0.05 },
        expected: ExpectedOutcome {
            primary_causes: vec![cause_ids::EXTERNAL_WORKLOAD_CONTENTION.into()],
            rejected_causes: vec![cause_ids::DATA_PROPERTY_CHANGE.into(), cause_ids::TABLE_LOCK_CONTENTION.into()],
        },
    }
}

/// Scenario 3: a bulk DML statement subtly changes data properties; the extra data
/// propagates to the SAN as higher volume load.
pub fn scenario_3(timeline: ScenarioTimeline) -> Scenario {
    Scenario {
        id: "scenario-3".into(),
        name: "SQL DML causes a subtle change in data properties; problem propagates to SAN causing volume contention"
            .into(),
        description: "A nightly load grows partsupp by ~70% and shifts its value distribution. Operator record counts \
                      change, the query reads considerably more data from V1, and V1's utilisation rises — but the \
                      root cause is the data change, not the storage."
            .into(),
        critical_modules: "CR identifies the important symptoms; IA rules out volume contention as a root cause".into(),
        timeline,
        scale_factor: 10.0,
        faults: vec![TimedFault::new(Fault::BulkDml {
            table: "partsupp".into(),
            row_factor: 1.7,
            new_selectivity: 1.0,
            at: timeline.fault_time(),
        })],
        noise: NoiseModel::Gaussian { sigma: 0.05 },
        expected: ExpectedOutcome {
            primary_causes: vec![cause_ids::DATA_PROPERTY_CHANGE.into()],
            rejected_causes: vec![
                cause_ids::SAN_MISCONFIGURATION.into(),
                cause_ids::EXTERNAL_WORKLOAD_CONTENTION.into(),
            ],
        },
    }
}

/// Scenario 4: concurrent database (data-property change) and SAN (misconfiguration)
/// problems.
pub fn scenario_4(timeline: ScenarioTimeline) -> Scenario {
    Scenario {
        id: "scenario-4".into(),
        name: "Concurrent DB (change in data properties) and SAN (misconfiguration) problems".into(),
        description:
            "The scenario-1 misconfiguration and a scenario-3-style bulk DML happen in the same maintenance \
                      window. Both contribute to the slowdown; impact analysis must rank them."
                .into(),
        critical_modules: "Both problems identified; IA correctly ranks them".into(),
        timeline,
        scale_factor: 10.0,
        faults: vec![
            TimedFault::new(Fault::SanMisconfiguration {
                pool: "P1".into(),
                new_volume: "Vprime".into(),
                workload_server: "app-server".into(),
                profile: interloper_profile(),
                window: timeline.fault_window(),
            }),
            TimedFault::new(Fault::BulkDml {
                table: "partsupp".into(),
                row_factor: 1.4,
                new_selectivity: 1.0,
                at: timeline.fault_time(),
            }),
        ],
        noise: NoiseModel::Gaussian { sigma: 0.05 },
        expected: ExpectedOutcome {
            primary_causes: vec![
                cause_ids::SAN_MISCONFIGURATION.into(),
                cause_ids::DATA_PROPERTY_CHANGE.into(),
            ],
            rejected_causes: vec![cause_ids::TABLE_LOCK_CONTENTION.into()],
        },
    }
}

/// Scenario 5: a locking problem inside the database plus monitoring noise that creates
/// spurious volume-contention symptoms.
pub fn scenario_5(timeline: ScenarioTimeline) -> Scenario {
    Scenario {
        id: "scenario-5".into(),
        name: "DB problem (locking-based) and spurious symptoms of volume contention due to noise".into(),
        description: "A long-running maintenance transaction holds locks on partsupp, stalling every report run's \
                      scans. At the same time the monitoring data is noisier than usual, occasionally spiking V2's \
                      storage metrics even though nothing is wrong with the SAN."
            .into(),
        critical_modules: "IA identifies volume contention as low impact".into(),
        timeline,
        scale_factor: 10.0,
        faults: vec![TimedFault::new(Fault::TableLockContention {
            table: "partsupp".into(),
            window: timeline.fault_window(),
            wait_secs_per_scan: 150.0,
        })],
        noise: NoiseModel::GaussianWithSpikes { sigma: 0.08, spike_prob: 0.06, spike_factor: 4.0 },
        expected: ExpectedOutcome {
            primary_causes: vec![cause_ids::TABLE_LOCK_CONTENTION.into()],
            rejected_causes: vec![
                cause_ids::EXTERNAL_WORKLOAD_CONTENTION.into(),
                cause_ids::SAN_MISCONFIGURATION.into(),
            ],
        },
    }
}

/// A plan-change scenario (not part of Table 1, used by module-PD tests and the
/// what-if example): the part index is dropped between the satisfactory and
/// unsatisfactory periods, so later runs use a different, slower plan.
pub fn index_drop_scenario(timeline: ScenarioTimeline) -> Scenario {
    Scenario {
        id: "scenario-index-drop".into(),
        name: "Plan change caused by dropping the part index".into(),
        description:
            "A migration script drops part_type_size_idx; the optimizer switches to the sequential-scan \
                      plan for part, and the report slows down."
                .into(),
        critical_modules: "PD detects the plan change and attributes it to the dropped index".into(),
        timeline,
        scale_factor: 10.0,
        faults: vec![TimedFault::new(Fault::IndexDrop {
            index: "part_type_size_idx".into(),
            at: timeline.fault_time(),
        })],
        noise: NoiseModel::Gaussian { sigma: 0.05 },
        expected: ExpectedOutcome {
            primary_causes: vec![cause_ids::INDEX_DROPPED.into()],
            rejected_causes: vec![cause_ids::EXTERNAL_WORKLOAD_CONTENTION.into()],
        },
    }
}

/// A configuration-change scenario for module PD: `random_page_cost` is mis-set.
pub fn config_change_scenario(timeline: ScenarioTimeline) -> Scenario {
    Scenario {
        id: "scenario-config-change".into(),
        name: "Plan change caused by a configuration-parameter change".into(),
        description:
            "random_page_cost is raised from 4 to 80, pricing the index plan out; the optimizer switches \
                      to sequential scans and the report slows down."
                .into(),
        critical_modules: "PD detects the plan change and attributes it to the parameter change".into(),
        timeline,
        scale_factor: 10.0,
        faults: vec![TimedFault::new(Fault::ConfigParameterChange {
            description: "random_page_cost: 4 -> 80".into(),
            new_config: DbConfig::paper_default().with_random_page_cost(80.0),
            at: timeline.fault_time(),
        })],
        noise: NoiseModel::Gaussian { sigma: 0.05 },
        expected: ExpectedOutcome {
            primary_causes: vec![cause_ids::CONFIG_PARAMETER_CHANGE.into()],
            rejected_causes: vec![],
        },
    }
}

/// A SAN-degradation scenario: a RAID rebuild loads P1 (the pool backing V1) for
/// the whole unsatisfactory period, slowing the partsupp scans without any
/// configuration or database change.
pub fn raid_rebuild_scenario(timeline: ScenarioTimeline) -> Scenario {
    ScenarioComposer::new(
        "scenario-raid-rebuild",
        "RAID rebuild on pool P1 loading the disks behind volume V1",
        timeline,
    )
    .describe(
        "A disk replacement kicks off a RAID-5 rebuild on P1. The rebuild traffic competes with the \
         report query's partsupp scans for the same four spindles; nothing changed in the database.",
    )
    .critical_modules("DA flags V1/P1; SD maps the rebuild event to the root cause")
    .fault(Fault::RaidRebuild { pool: "P1".into(), window: timeline.fault_window() })
    .expect(cause_ids::RAID_REBUILD)
    .reject(cause_ids::DATA_PROPERTY_CHANGE)
    .reject(cause_ids::TABLE_LOCK_CONTENTION)
    .build()
}

/// A SAN-degradation scenario: a physical disk in P1 fails, shrinking the array and
/// concentrating V1's I/O on the surviving spindles.
pub fn disk_failure_scenario(timeline: ScenarioTimeline) -> Scenario {
    ScenarioComposer::new(
        "scenario-disk-failure",
        "Disk failure in pool P1 concentrating V1's I/O on the surviving disks",
        timeline,
    )
    .describe(
        "ds-02 fails. P1 keeps serving I/O from its remaining three disks, so every partsupp page read \
         queues longer; the database layer is untouched.",
    )
    .critical_modules("SD maps the disk-failure event to the root cause; DA confirms V1's metrics")
    .fault(Fault::DiskFailure { disk: "ds-02".into(), at: timeline.fault_time() })
    .expect(cause_ids::DISK_FAILURE)
    .reject(cause_ids::DATA_PROPERTY_CHANGE)
    .build()
}

/// Compound scenario: the scenario-1 SAN misconfiguration (interloper on V1's
/// disks) *plus* a database-side lock-contention window that opens two hours later —
/// database and SAN problems with independent onsets.
pub fn compound_lock_and_interloper_scenario(timeline: ScenarioTimeline) -> Scenario {
    let lock_delay = Duration::from_hours(2);
    ScenarioComposer::new(
        "compound-lock-interloper",
        "Lock contention inside the database during SAN interloper load on V1",
        timeline,
    )
    .describe(
        "The scenario-1 misconfiguration puts an interloper on V1's disks; two hours into the slowdown a \
         maintenance transaction additionally starts holding locks on partsupp. Both layers are guilty, \
         with different onsets.",
    )
    .critical_modules("Both problems identified despite staggered onsets; IA apportions the slowdown")
    .overlay(&scenario_1(timeline))
    .fault(Fault::TableLockContention {
        table: "partsupp".into(),
        window: timeline.fault_window_after(lock_delay),
        wait_secs_per_scan: 90.0,
    })
    .expect(cause_ids::TABLE_LOCK_CONTENTION)
    .reject(cause_ids::DATA_PROPERTY_CHANGE)
    .build()
}

/// Compound scenario: a dropped index (database) *plus* a RAID rebuild on P1 (SAN).
/// The plan change explains most of the slowdown, but the rebuild is real too.
pub fn compound_index_drop_and_raid_scenario(timeline: ScenarioTimeline) -> Scenario {
    ScenarioComposer::new(
        "compound-index-raid",
        "Index drop forcing a plan change while a RAID rebuild degrades pool P1",
        timeline,
    )
    .describe(
        "A migration script drops part_type_size_idx at the same time as a disk replacement starts a \
         RAID-5 rebuild on P1. The optimizer switches plans and the new plan's partsupp scans run \
         against a rebuilding array.",
    )
    .critical_modules("PD attributes the plan change; SD still surfaces the concurrent rebuild")
    .fault(Fault::IndexDrop { index: "part_type_size_idx".into(), at: timeline.fault_time() })
    .fault(Fault::RaidRebuild { pool: "P1".into(), window: timeline.fault_window() })
    .expect(cause_ids::INDEX_DROPPED)
    .reject(cause_ids::DATA_PROPERTY_CHANGE)
    .build()
}

/// Compound scenario: a planner-configuration regression (database) *plus* direct
/// external contention on V1 (SAN) starting an hour later.
pub fn compound_config_and_contention_scenario(timeline: ScenarioTimeline) -> Scenario {
    let contention_delay = Duration::from_hours(1);
    ScenarioComposer::new(
        "compound-config-contention",
        "Configuration regression changing the plan plus external contention on V1",
        timeline,
    )
    .describe(
        "random_page_cost is raised from 4 to 80, pricing the index plan out; an hour later an external \
         workload starts hammering V1 directly. The regressed plan and the contended volume both hurt — \
         and the what-if planner shows that reverting the parameter alone barely helps while V1 stays \
         contended (the integrated tool's point).",
    )
    .critical_modules("PD attributes the plan change to the parameter; the contention is surfaced alongside")
    .fault(Fault::ConfigParameterChange {
        description: "random_page_cost: 4 -> 80".into(),
        new_config: DbConfig::paper_default().with_random_page_cost(80.0),
        at: timeline.fault_time(),
    })
    .fault(Fault::ExternalVolumeContention {
        volume: "V1".into(),
        workload_server: "app-server".into(),
        profile: interloper_profile(),
        pattern: BurstPattern::Steady,
        window: timeline.fault_window_after(contention_delay),
    })
    .expect(cause_ids::CONFIG_PARAMETER_CHANGE)
    .reject(cause_ids::INDEX_DROPPED)
    .build()
}

/// Compound scenario: a bulk DML growing partsupp (database) *plus* direct external
/// contention on V1 (SAN) — scenario 4's shape with contention instead of a
/// misconfiguration, onsets one interval apart.
pub fn compound_dml_and_contention_scenario(timeline: ScenarioTimeline) -> Scenario {
    ScenarioComposer::new(
        "compound-dml-contention",
        "Bulk DML growing partsupp plus an external workload contending on V1",
        timeline,
    )
    .describe(
        "A nightly load grows partsupp by ~40% at the fault time; one run interval later an external \
         OLTP workload starts issuing random I/O against V1. The query reads more data and reads it \
         slower.",
    )
    .critical_modules("CR identifies the data change, DA the contention; IA ranks the two")
    .fault(Fault::BulkDml {
        table: "partsupp".into(),
        row_factor: 1.4,
        new_selectivity: 1.0,
        at: timeline.fault_time(),
    })
    .fault(Fault::ExternalVolumeContention {
        volume: "V1".into(),
        workload_server: "app-server".into(),
        profile: interloper_profile(),
        pattern: BurstPattern::Steady,
        window: timeline.fault_window_after(timeline.run_interval),
    })
    .expect(cause_ids::EXTERNAL_WORKLOAD_CONTENTION)
    .expect(cause_ids::DATA_PROPERTY_CHANGE)
    .reject(cause_ids::SAN_MISCONFIGURATION)
    .build()
}

/// The full scenario matrix on the paper timeline: the Table-1 scenarios (1–5), the
/// Table-2 variant (1b), the two plan-change scenarios, the two SAN-degradation
/// scenarios and the four compound DB+SAN scenarios.
pub fn all_scenarios() -> Vec<Scenario> {
    let t = ScenarioTimeline::paper_default();
    vec![
        scenario_1(t),
        scenario_1b(t),
        scenario_2(t),
        scenario_3(t),
        scenario_4(t),
        scenario_5(t),
        index_drop_scenario(t),
        config_change_scenario(t),
        raid_rebuild_scenario(t),
        disk_failure_scenario(t),
        compound_lock_and_interloper_scenario(t),
        compound_index_drop_and_raid_scenario(t),
        compound_config_and_contention_scenario(t),
        compound_dml_and_contention_scenario(t),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_arithmetic() {
        let t = ScenarioTimeline::paper_default();
        assert_eq!(t.total_runs(), 40);
        // Fault lands between run 29 (the 30th) and run 30 (the 31st).
        let run_30_start = t.first_run.plus(t.run_interval.scale(29.0));
        let run_31_start = t.first_run.plus(t.run_interval.scale(30.0));
        assert!(t.fault_time() > run_30_start);
        assert!(t.fault_time() < run_31_start);
        assert!(t.end_time() > t.first_run.plus(t.run_interval.scale(40.0)));
        assert!(t.fault_window().contains(run_31_start));
        assert!(!t.fault_window().contains(run_30_start));
        let s = ScenarioTimeline::short();
        assert_eq!(s.total_runs(), 18);
        assert!(s.end_time() < t.end_time());
    }

    #[test]
    fn every_scenario_has_faults_and_expectations() {
        for s in all_scenarios() {
            assert!(!s.faults.is_empty(), "{}", s.id);
            assert!(!s.expected.primary_causes.is_empty(), "{}", s.id);
            assert!(!s.name.is_empty() && !s.critical_modules.is_empty());
            assert!(s.scale_factor > 0.0);
            // Every fault takes effect after the satisfactory period starts.
            for f in &s.faults {
                assert!(f.inject_at >= s.timeline.fault_time(), "{}", s.id);
            }
        }
    }

    #[test]
    fn scenario_1b_extends_scenario_1() {
        let t = ScenarioTimeline::paper_default();
        let s1 = scenario_1(t);
        let s1b = scenario_1b(t);
        assert_eq!(s1.faults.len(), 1);
        assert_eq!(s1b.faults.len(), 2);
        assert_eq!(s1b.expected.primary_causes, s1.expected.primary_causes);
        assert!(s1b.expected.rejected_causes.len() > s1.expected.rejected_causes.len());
    }

    #[test]
    fn scenario_4_is_concurrent() {
        let s = scenario_4(ScenarioTimeline::paper_default());
        assert_eq!(s.faults.len(), 2);
        assert_eq!(s.expected.primary_causes.len(), 2);
    }

    #[test]
    fn scenario_5_uses_noisy_monitoring() {
        let s = scenario_5(ScenarioTimeline::paper_default());
        assert!(matches!(s.noise, NoiseModel::GaussianWithSpikes { .. }));
        assert_eq!(s.expected.primary_causes, vec![cause_ids::TABLE_LOCK_CONTENTION.to_string()]);
    }

    #[test]
    fn with_timeline_rebuilds_fault_windows() {
        let paper = scenario_1(ScenarioTimeline::paper_default());
        let short = paper.with_timeline(ScenarioTimeline::short());
        assert_eq!(short.id, "scenario-1");
        assert!(short.timeline.total_runs() < paper.timeline.total_runs());
        assert!(short.faults[0].inject_at < paper.faults[0].inject_at);
        // Unknown ids fall back to a plain clone.
        let mut odd = paper.clone();
        odd.id = "custom".into();
        let same = odd.with_timeline(ScenarioTimeline::short());
        assert_eq!(same.timeline, odd.timeline);
    }

    #[test]
    fn extra_pd_scenarios_exist() {
        let t = ScenarioTimeline::short();
        let idx = index_drop_scenario(t);
        assert_eq!(idx.expected.primary_causes, vec![cause_ids::INDEX_DROPPED.to_string()]);
        let cfg = config_change_scenario(t);
        assert_eq!(cfg.expected.primary_causes, vec![cause_ids::CONFIG_PARAMETER_CHANGE.to_string()]);
    }

    #[test]
    fn composer_staggers_onsets_and_sorts_faults() {
        let t = ScenarioTimeline::short();
        let s = compound_lock_and_interloper_scenario(t);
        assert_eq!(s.faults.len(), 2, "one SAN + one DB fault");
        assert!(s.is_compound_db_san());
        // Independent onsets: the lock window opens two hours after the interloper.
        assert_eq!(s.faults[0].inject_at, t.fault_time());
        assert_eq!(s.faults[1].inject_at, t.fault_time_after(Duration::from_hours(2)));
        assert!(s.faults.windows(2).all(|w| w[0].inject_at <= w[1].inject_at));
        // Rebasing onto another timeline re-derives both windows.
        let paper = s.with_timeline(ScenarioTimeline::paper_default());
        assert_eq!(paper.id, s.id);
        assert!(paper.faults[1].inject_at > s.faults[1].inject_at);
    }

    #[test]
    fn composer_overlay_merges_expectations() {
        let t = ScenarioTimeline::short();
        // scenario_1 rejects TABLE_LOCK_CONTENTION; expecting it afterwards must win.
        let s = ScenarioComposer::new("custom", "overlay test", t)
            .overlay(&scenario_1(t))
            .fault(Fault::TableLockContention {
                table: "partsupp".into(),
                window: t.fault_window_after(Duration::from_hours(1)),
                wait_secs_per_scan: 60.0,
            })
            .expect(cause_ids::TABLE_LOCK_CONTENTION)
            .build();
        assert!(s.expected.primary_causes.contains(&cause_ids::SAN_MISCONFIGURATION.to_string()));
        assert!(s.expected.primary_causes.contains(&cause_ids::TABLE_LOCK_CONTENTION.to_string()));
        assert!(!s.expected.rejected_causes.contains(&cause_ids::TABLE_LOCK_CONTENTION.to_string()));
        // The overlay really rebased scenario 1's fault onto the composer timeline.
        assert_eq!(s.faults[0].inject_at, t.fault_time());
        // An unknown id keeps its composed shape under with_timeline.
        assert_eq!(s.with_timeline(t).faults.len(), s.faults.len());
    }

    #[test]
    fn overlay_accepts_custom_donors_on_the_same_timeline() {
        let t = ScenarioTimeline::short();
        // A donor the with_timeline registry does not know, already on the
        // composer's timeline: its faults merge as-is.
        let donor = ScenarioComposer::new("custom-donor", "donor", t)
            .fault(Fault::RaidRebuild { pool: "P1".into(), window: t.fault_window() })
            .expect(cause_ids::RAID_REBUILD)
            .build();
        let composed = ScenarioComposer::new("host", "host", t).overlay(&donor).build();
        assert_eq!(composed.faults.len(), 1);
        assert_eq!(composed.expected.primary_causes, vec![cause_ids::RAID_REBUILD.to_string()]);
    }

    #[test]
    #[should_panic(expected = "different timeline")]
    fn overlay_rejects_unrebasable_donors_on_a_different_timeline() {
        let short = ScenarioTimeline::short();
        let donor = ScenarioComposer::new("custom-donor", "donor", short)
            .fault(Fault::RaidRebuild { pool: "P1".into(), window: short.fault_window() })
            .build();
        // The composer runs on the paper timeline; the short-timeline donor has no
        // registered constructor to rebase it, so merging would silently misplace
        // its fault relative to the satisfactory/unsatisfactory split.
        let _ = ScenarioComposer::new("host", "host", ScenarioTimeline::paper_default()).overlay(&donor);
    }

    #[test]
    fn overlay_rebases_longer_timeline_donors_instead_of_truncating() {
        let short = ScenarioTimeline::short();
        // The donor sits on the *longer* paper timeline: its fault times lie far
        // beyond the short timeline's end. A registered constructor exists, so
        // overlay must rebase it onto the composer's timeline rather than merge
        // (and effectively truncate) the out-of-range faults.
        let donor = scenario_1(ScenarioTimeline::paper_default());
        assert!(donor.faults[0].inject_at >= short.end_time(), "precondition: donor outlasts base");
        let composed = ScenarioComposer::new("host", "host", short).overlay(&donor).build();
        assert_eq!(composed.faults.len(), 1);
        assert_eq!(composed.faults[0].inject_at, short.fault_time());
        assert!(composed.faults[0].inject_at < short.end_time());
        assert!(composed.expected.primary_causes.contains(&cause_ids::SAN_MISCONFIGURATION.to_string()));
    }

    #[test]
    #[should_panic(expected = "never influence a run")]
    fn overlay_rejects_donor_faults_beyond_the_timeline_end() {
        let t = ScenarioTimeline::short();
        // Same timeline (so no rebase happens), but the donor's fault fires after
        // the last run: merging it would carry expectations no run can observe.
        let donor = ScenarioComposer::new("custom-donor", "donor", t)
            .timed_fault(TimedFault {
                inject_at: t.end_time().plus(Duration::from_hours(1)),
                fault: Fault::RaidRebuild {
                    pool: "P1".into(),
                    window: TimeRange::with_duration(
                        t.end_time().plus(Duration::from_hours(1)),
                        Duration::from_hours(2),
                    ),
                },
            })
            .expect(cause_ids::RAID_REBUILD)
            .build();
        let _ = ScenarioComposer::new("host", "host", t).overlay(&donor);
    }

    #[test]
    fn the_matrix_covers_fourteen_scenarios_with_compound_db_san() {
        let scenarios = all_scenarios();
        assert!(scenarios.len() >= 14, "matrix shrank to {}", scenarios.len());
        let ids: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        let unique: std::collections::BTreeSet<&&str> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "scenario ids must be unique");
        let compound = scenarios.iter().filter(|s| s.is_compound_db_san()).count();
        assert!(compound >= 3, "only {compound} compound DB+SAN scenarios");
        // The SAN-degradation additions are single-layer by design.
        assert!(!raid_rebuild_scenario(ScenarioTimeline::short()).is_compound_db_san());
        assert!(!disk_failure_scenario(ScenarioTimeline::short()).is_compound_db_san());
    }
}
