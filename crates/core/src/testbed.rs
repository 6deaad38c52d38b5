//! The simulated deployment: everything Figure 5 shows, wired together.
//!
//! A [`Testbed`] assembles the SAN simulator, the TPC-H database simulator, the
//! monitoring collector and the report workload into one object, and
//! [`Testbed::run_scenario`] executes a fault-injection [`Scenario`] end to end: it
//! schedules the periodic report runs, injects the scenario's faults at their times,
//! records database and SAN monitoring data into the metric/event stores, and labels
//! the runs. The result — a [`ScenarioOutcome`] — is exactly the input DIADS needs:
//! historic monitoring data plus a satisfactory/unsatisfactory run history.
//!
//! Recording is split from simulation: runs execute (and faults apply) first, then
//! the collected observations are recorded. Under the `parallel` feature the
//! recording phase can go through [`MetricStore::sharded_writer`]: the database
//! recorder and several SAN samplers — one per interval-aligned time chunk — write
//! concurrently, and per-series noise streams make the result bit-identical to the
//! sequential reference path (see [`RecordingMode`]).

use std::sync::Arc;

use diads_db::{
    BufferCache, Catalog, DbConfig, ExecutionEnvironment, Executor, LockManager, Optimizer, Plan,
    QueryRunRecord,
};
use diads_inject::{Injector, Scenario};
use diads_monitor::{Duration, EventStore, IntervalSampler, MetricStore, TimeRange, Timestamp};
use diads_san::topology::paper_testbed;
use diads_san::{SanPerfConfig, SanSimulator, VolumeLoad};
use diads_workload::{q2_plan_candidates, tpch_catalog, ReportQuery, TpchLayout};

use crate::apg::Apg;
use crate::diagnosis::DiagnosisReport;
use crate::engine::{DiagnosisEngine, DiagnosisWatermark};
use crate::runs::RunHistory;
use crate::workflow::DiagnosisContext;

/// Name of the simulated database instance.
pub const DB_INSTANCE: &str = "reports-db";
/// Name of the server the database instance runs on.
pub const DB_SERVER: &str = "db-server";

/// The assembled deployment.
#[derive(Debug)]
pub struct Testbed {
    /// The SAN simulator (topology + external workloads + perf model).
    pub san: SanSimulator,
    /// The database catalog (tables, indexes, tablespaces, data properties).
    pub catalog: Catalog,
    /// Database configuration parameters.
    pub config: DbConfig,
    /// Lock-contention model.
    pub locks: LockManager,
    /// Database-side events (index drops, DML, lock contention, parameter changes).
    pub db_events: EventStore,
    /// The monitoring store everything is recorded into.
    pub store: MetricStore,
    /// The report query under diagnosis and its candidate plans.
    pub query: ReportQuery,
    /// The diagnosis engine this testbed routes its diagnoses through: the
    /// cross-diagnosis KDE-fit cache keyed by ((history fingerprint, store
    /// content), variable) — see [`ScenarioOutcome::engine_fingerprint`].
    /// Freshly built testbeds get a private engine; batch runners
    /// ([`Testbed::run_scenarios_with_engine`]) swap in one fleet-level engine so
    /// every outcome in the batch shares warm fits.
    pub engine: Arc<DiagnosisEngine>,
}

impl Testbed {
    /// Builds the paper's testbed: the Figure-1 SAN topology, a TPC-H catalog at the
    /// given scale factor laid out with partsupp on V1, the default configuration, and
    /// TPC-H Q2 as the report query.
    pub fn paper_default(scale_factor: f64) -> Testbed {
        let san_config = SanPerfConfig { metric_step_secs: 60, ..SanPerfConfig::default() };
        let san = SanSimulator::with_config(paper_testbed(), san_config);
        let catalog = tpch_catalog(scale_factor, &TpchLayout::paper_default());
        let candidates = q2_plan_candidates(&catalog);
        Testbed {
            san,
            catalog,
            config: DbConfig::paper_default(),
            locks: LockManager::new(),
            db_events: EventStore::new(),
            store: MetricStore::new(),
            query: ReportQuery { name: "TPC-H Q2".into(), candidates },
            engine: DiagnosisEngine::shared(),
        }
    }

    /// Forks the deployment for hypothetical evaluation (what-if analysis, the
    /// remediation planner): a deep copy of every piece of *configuration and
    /// simulation* state — SAN, catalog, database configuration, lock windows,
    /// database events and the report query — that a proposed change could touch.
    ///
    /// Two fields are deliberately **not** copied:
    ///
    /// * the fork starts with an **empty [`MetricStore`]** — the recorded monitoring
    ///   history describes the *real* deployment, and carrying it into a hypothetical
    ///   one would let later diagnoses score the hypothesis against data it never
    ///   produced;
    /// * the fork gets a **private [`DiagnosisEngine`]**, never the original's
    ///   (possibly fleet-shared) one — a hypothetical deployment must not warm, nor
    ///   read, engine slots keyed by real outcomes.
    ///
    /// Adding a field to [`Testbed`] forces a decision here (the struct literal is
    /// exhaustive), so a what-if copy can never silently drop state again.
    pub fn fork(&self) -> Testbed {
        Testbed {
            san: self.san.clone(),
            catalog: self.catalog.clone(),
            config: self.config.clone(),
            locks: self.locks.clone(),
            db_events: self.db_events.clone(),
            store: MetricStore::new(),
            query: self.query.clone(),
            engine: DiagnosisEngine::shared(),
        }
    }

    /// The merged event timeline (SAN configuration/system events + database events).
    pub fn all_events(&self) -> EventStore {
        let mut events = self.san.topology().events().clone();
        events.merge(&self.db_events);
        events
    }

    /// Plans the query with the current catalog and configuration and executes it once
    /// at `start`, returning the run record (without recording monitoring data).
    ///
    /// # Errors
    /// Propagates optimizer and executor errors (e.g. no feasible plan).
    pub fn execute_once(&self, start: Timestamp) -> Result<QueryRunRecord, diads_db::DbError> {
        let optimizer = Optimizer::new(self.config.clone());
        let choice = optimizer.choose(&self.query.candidates, &self.catalog)?;
        let buffer = BufferCache::new(&self.config);
        let env = ExecutionEnvironment {
            catalog: &self.catalog,
            planned_stats: &choice.stats,
            config: &self.config,
            buffer: &buffer,
            locks: &self.locks,
            san: &self.san,
            db_server: DB_SERVER,
        };
        Executor::new().execute(&choice.plan, &env, start)
    }

    /// Builds the APG of a plan over the current testbed configuration.
    pub fn build_apg(&self, plan: &Plan) -> Apg {
        Apg::build(
            &self.query.name,
            plan,
            &self.catalog,
            self.san.topology(),
            self.san.workloads(),
            DB_SERVER,
            DB_INSTANCE,
        )
    }

    /// The candidate plan whose fingerprint matches, if any.
    pub fn plan_by_fingerprint(&self, fingerprint: &str) -> Option<&Plan> {
        self.query.candidates.iter().find(|p| p.fingerprint() == fingerprint)
    }

    /// Runs a complete fault-injection scenario and returns the final testbed state,
    /// the labelled run history and the scenario itself. Recording uses
    /// [`RecordingMode::auto`]: in-scenario sharded recording on multi-core hosts
    /// with the `parallel` feature, the sequential collector otherwise — the stored
    /// data is bit-identical either way.
    pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
        Self::run_scenario_with_recording(scenario, RecordingMode::auto())
    }

    /// Runs a scenario with an explicit [`RecordingMode`] (the equivalence tests and
    /// benchmarks pin sequential against sharded recording through this).
    pub fn run_scenario_with_recording(scenario: &Scenario, recording: RecordingMode) -> ScenarioOutcome {
        let mut testbed = Testbed::paper_default(scenario.scale_factor);
        let injector = Injector::new();
        let mut seed = 0u64;
        for b in scenario.id.bytes() {
            seed = seed.wrapping_mul(31).wrapping_add(b as u64);
        }

        let schedule: Vec<Timestamp> = (0..scenario.timeline.total_runs())
            .map(|i| scenario.timeline.first_run.plus(scenario.timeline.run_interval.scale(i as f64)))
            .collect();

        let mut pending: Vec<_> = scenario.faults.clone();
        pending.sort_by_key(|f| f.inject_at);
        let mut fault_log = Vec::new();

        // Phase 1 — simulate: execute the scheduled runs with faults applied in
        // order. Nothing is recorded yet (execution never reads the metric store),
        // so the recording phase is free to choose its concurrency.
        let mut records = Vec::new();
        let mut query_loads: Vec<VolumeLoad> = Vec::new();
        for &run_start in &schedule {
            // Apply every fault due before this run.
            while pending.first().is_some_and(|f| f.inject_at <= run_start) {
                let fault = pending.remove(0);
                let message = injector.apply(
                    &fault.fault,
                    &mut testbed.san,
                    &mut testbed.catalog,
                    &mut testbed.locks,
                    &mut testbed.config,
                    &mut testbed.db_events,
                );
                fault_log.push((fault.inject_at, message));
            }
            match testbed.execute_once(run_start) {
                Ok(record) => {
                    query_loads.extend(record.volume_loads.clone());
                    records.push(record);
                }
                Err(e) => {
                    fault_log.push((run_start, format!("run failed: {e}")));
                }
            }
        }
        // Apply any faults scheduled after the last run (rare, but keeps the log honest).
        for fault in pending {
            let message = injector.apply(
                &fault.fault,
                &mut testbed.san,
                &mut testbed.catalog,
                &mut testbed.locks,
                &mut testbed.config,
                &mut testbed.db_events,
            );
            fault_log.push((fault.inject_at, message));
        }

        // Phase 2 — record: the database runs' observations plus the SAN's view of
        // the whole period (including the query's own I/O).
        let range = TimeRange::new(Timestamp::ZERO, scenario.timeline.end_time());
        record_outcome(&mut testbed, scenario, &records, &query_loads, seed, range, recording);

        // Label runs by the scenario's timeline: everything before the fault is
        // satisfactory (the administrator's time-window marking).
        let mut history = RunHistory::new(records);
        history.label_by_start_time(scenario.timeline.fault_time());

        ScenarioOutcome { scenario: scenario.clone(), testbed, history, fault_log }
    }

    /// Runs a batch of scenarios sequentially, in input order, sharing one
    /// fleet-level [`DiagnosisEngine`] across the batch — the reference loop the
    /// concurrent engine is checked against.
    pub fn run_scenarios(scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
        Self::run_scenarios_with_engine(scenarios, &DiagnosisEngine::shared())
    }

    /// Runs a batch of scenarios sequentially, attaching every outcome's testbed to
    /// the given fleet-level engine: diagnoses of identically-labelled histories —
    /// even across independently-built stores — share KDE fits.
    pub fn run_scenarios_with_engine(
        scenarios: &[Scenario],
        engine: &Arc<DiagnosisEngine>,
    ) -> Vec<ScenarioOutcome> {
        scenarios
            .iter()
            .map(|scenario| {
                let mut outcome = Testbed::run_scenario(scenario);
                outcome.testbed.engine = Arc::clone(engine);
                outcome
            })
            .collect()
    }

    /// Runs a batch of scenarios concurrently on a scoped thread pool and returns
    /// their outcomes **in input order**, sharing one fleet-level engine.
    ///
    /// Each scenario simulates an independent testbed (its own SAN, catalog, sampler
    /// seed and sharded metric store), so every outcome — and every report diagnosed
    /// from it — is bit-identical to what the sequential [`Testbed::run_scenarios`]
    /// loop produces; only the wall-clock changes. Uses one worker per available
    /// core, capped at the batch size.
    #[cfg(feature = "parallel")]
    pub fn run_scenarios_concurrent(scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
        Self::run_scenarios_concurrent_with_engine(scenarios, &DiagnosisEngine::shared())
    }

    /// [`Testbed::run_scenarios_concurrent`] with a caller-supplied fleet engine.
    #[cfg(feature = "parallel")]
    pub fn run_scenarios_concurrent_with_engine(
        scenarios: &[Scenario],
        engine: &Arc<DiagnosisEngine>,
    ) -> Vec<ScenarioOutcome> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let threads = cores.min(scenarios.len());
        if threads <= 1 {
            return Self::run_scenarios_with_engine(scenarios, engine);
        }
        // The scenario workers already occupy one core each; nesting sharded
        // in-scenario recording under a core-saturating batch would oversubscribe
        // ~cores² threads for no wall-clock gain. Keep it only when cores outnumber
        // the batch (the recorded data is bit-identical either way).
        let recording = if threads >= cores { RecordingMode::Sequential } else { RecordingMode::auto() };
        let chunk_len = scenarios.len().div_ceil(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = scenarios
                .chunks(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|scenario| {
                                let mut outcome = Testbed::run_scenario_with_recording(scenario, recording);
                                outcome.testbed.engine = Arc::clone(engine);
                                outcome
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            // Chunks are contiguous and joined in spawn order, so concatenation
            // restores the input order deterministically.
            handles.into_iter().flat_map(|h| h.join().expect("scenario worker panicked")).collect()
        })
    }
}

/// How [`Testbed::run_scenario_with_recording`] records a scenario's monitoring data.
///
/// Both modes produce **bit-identical stores**: interval averages are pure functions
/// of the observations, and the per-series noise streams (seeded by series identity
/// and interval start) are independent of recording order, chunking and thread
/// count. The mode is purely a wall-clock choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordingMode {
    /// One collector records everything in time order — the reference path.
    Sequential,
    /// Database and SAN observations are recorded concurrently through
    /// [`MetricStore::sharded_writer`]: one worker replays the run records while
    /// several SAN samplers each cover an interval-aligned chunk of the timeline.
    #[cfg(feature = "parallel")]
    Sharded,
}

impl RecordingMode {
    /// Sharded when the `parallel` feature is on and the host has more than one
    /// core; sequential otherwise (a single core would only pay locking overhead).
    pub fn auto() -> Self {
        #[cfg(feature = "parallel")]
        if std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) > 1 {
            return RecordingMode::Sharded;
        }
        RecordingMode::Sequential
    }
}

/// Records a finished simulation's observations into the testbed's store, honouring
/// the recording mode.
fn record_outcome(
    testbed: &mut Testbed,
    scenario: &Scenario,
    records: &[QueryRunRecord],
    query_loads: &[VolumeLoad],
    seed: u64,
    range: TimeRange,
    recording: RecordingMode,
) {
    let interval = Duration::from_mins(5);
    #[cfg(feature = "parallel")]
    if recording == RecordingMode::Sharded {
        let step = testbed.san.config().metric_step_secs.max(1);
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(2);
        let chunks = recording_chunks(range, interval.as_secs(), step, workers);
        let san = &testbed.san;
        let writer = testbed.store.sharded_writer();
        std::thread::scope(|scope| {
            let writer = &writer;
            // Every worker records through its own batched front-end: points
            // buffer thread-locally and each shard is locked once per flush
            // instead of once per point. The merged store stays bit-identical —
            // batching preserves each key's stream order, which is all the
            // sharded-equivalence argument needs.
            //
            // The database recorder replays every run in order (per-series point
            // order is preserved by the single writer thread)...
            scope.spawn(move || {
                let mut sink = writer.batched();
                for record in records {
                    record.record_metrics(&mut sink, DB_INSTANCE, DB_SERVER);
                }
            });
            // ...while each SAN worker samples its own interval-aligned chunk of
            // the timeline with a private collector. Per-series noise streams make
            // the union identical to one sequential sampler over the full range.
            for chunk in chunks {
                let noise = scenario.noise.clone();
                scope.spawn(move || {
                    let mut sampler = IntervalSampler::new(interval, noise, seed);
                    let mut sink = writer.batched();
                    san.record_metrics(chunk, query_loads, &mut sampler, &mut sink);
                    sampler.flush(&mut sink);
                });
            }
        });
        return;
    }
    #[cfg(not(feature = "parallel"))]
    let RecordingMode::Sequential = recording;
    for record in records {
        record.record_metrics(&mut testbed.store, DB_INSTANCE, DB_SERVER);
    }
    let mut sampler = IntervalSampler::new(interval, scenario.noise.clone(), seed);
    testbed.san.record_metrics(range, query_loads, &mut sampler, &mut testbed.store);
    sampler.flush(&mut testbed.store);
}

/// Splits a recording range into up to `workers` chunks whose boundaries are
/// aligned to both the sampler interval and the SAN metric step, so no sampling
/// interval (and no emission instant) straddles two workers. Returns the whole
/// range as one chunk when it cannot be split safely.
#[cfg(feature = "parallel")]
fn recording_chunks(range: TimeRange, interval_secs: u64, step_secs: u64, workers: usize) -> Vec<TimeRange> {
    fn gcd(a: u64, b: u64) -> u64 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let total = range.duration().as_secs();
    let align = interval_secs / gcd(interval_secs, step_secs) * step_secs;
    if workers <= 1 || align == 0 || total <= align || !range.start.as_secs().is_multiple_of(interval_secs) {
        return vec![range];
    }
    let chunk = (total / workers as u64).max(1).div_ceil(align).max(1) * align;
    let mut out = Vec::new();
    let mut lo = range.start.as_secs();
    while lo < range.end.as_secs() {
        let hi = (lo + chunk).min(range.end.as_secs());
        out.push(TimeRange::new(Timestamp::new(lo), Timestamp::new(hi)));
        lo = hi;
    }
    out
}

/// The result of running a scenario end to end.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario that was run.
    pub scenario: Scenario,
    /// The final testbed state (catalog/SAN after faults, full metric and event stores).
    pub testbed: Testbed,
    /// The labelled run history.
    pub history: RunHistory,
    /// What the injector did, in time order.
    pub fault_log: Vec<(Timestamp, String)>,
}

impl ScenarioOutcome {
    /// The plan used by the unsatisfactory runs if they all share one, otherwise the
    /// plan of the last run; falls back to the first candidate for an empty history.
    pub fn diagnosed_plan(&self) -> Plan {
        let fingerprint = self
            .history
            .unsatisfactory()
            .last()
            .map(|r| r.record.plan_fingerprint.clone())
            .or_else(|| self.history.runs.last().map(|r| r.record.plan_fingerprint.clone()));
        match fingerprint.and_then(|f| self.testbed.plan_by_fingerprint(&f).cloned()) {
            Some(plan) => plan,
            None => self.testbed.query.candidates[0].clone(),
        }
    }

    /// Builds the APG for the diagnosed plan over the final testbed state.
    pub fn apg(&self) -> Apg {
        self.testbed.build_apg(&self.diagnosed_plan())
    }

    /// The [`DiagnosisContext`] of this outcome over a caller-owned APG (usually
    /// [`ScenarioOutcome::apg`]) and event timeline (usually
    /// [`Testbed::all_events`]).
    pub fn context<'a>(&'a self, apg: &'a Apg, events: &'a EventStore) -> DiagnosisContext<'a> {
        DiagnosisContext {
            apg,
            history: &self.history,
            store: &self.testbed.store,
            events,
            catalog: &self.testbed.catalog,
            config: &self.testbed.config,
            topology: self.testbed.san.topology(),
            workloads: self.testbed.san.workloads(),
        }
    }

    /// The outcome's [`DiagnosisEngine`] slot key: the labelled history's
    /// fingerprint mixed with the monitoring store's content fingerprint.
    ///
    /// Cached KDE fits are functions of *both* halves — the satisfactory run set
    /// (pinned by the history fingerprint) and the per-run metric samples read from
    /// the store (pinned by [`MetricStore::content_fingerprint`]). Mixing the store
    /// half in means two outcomes share a slot **iff** they would produce the same
    /// fits: independently-built testbeds with bit-identical recordings warm each
    /// other, while identical histories over *differently-noised* stores land in
    /// separate slots instead of silently scoring against the wrong samples.
    pub fn engine_fingerprint(&self) -> u64 {
        self.engine_fingerprint_with(self.history.fingerprint())
    }

    /// [`ScenarioOutcome::engine_fingerprint`] from an already computed history
    /// fingerprint, for callers that need both halves: hashing the history is the
    /// expensive part (every run's plan fingerprint goes through FNV).
    pub(crate) fn engine_fingerprint_with(&self, history_fingerprint: u64) -> u64 {
        diads_monitor::rng::SplitMix64::mix(history_fingerprint, self.testbed.store.content_fingerprint())
    }

    /// Diagnoses the outcome with the default workflow, through the testbed's
    /// [`DiagnosisEngine`].
    ///
    /// The first diagnosis of a labelling fits every variable once and warms the
    /// engine slot keyed by the history's fingerprint; every later diagnosis of the
    /// same labelling — from this outcome or, with a shared engine, any testbed
    /// whose history carries the same fingerprint — reuses the fits. The report is
    /// identical either way: the engine is purely a latency optimisation.
    pub fn diagnose(&self) -> DiagnosisReport {
        self.testbed.engine.diagnose(self)
    }

    /// Seals the store's open append window and captures a [`DiagnosisWatermark`]
    /// describing the outcome as it stands: the engine slot key, the sealed epoch
    /// with its cumulative fingerprint, the run-history prefix, and the diagnosed
    /// plan's fingerprint. Diagnose first (warming the slot and recording its
    /// evidence), seal the watermark, append new metrics — then
    /// [`ScenarioOutcome::diagnose_incremental`] re-scores only what changed.
    pub fn seal_watermark(&mut self) -> DiagnosisWatermark {
        let history_fingerprint = self.history.fingerprint();
        let fingerprint = self.engine_fingerprint_with(history_fingerprint);
        let epoch = self.testbed.store.seal_epoch();
        let store_fingerprint = self
            .testbed
            .store
            .epoch_cumulative_fingerprint(epoch)
            .expect("just-sealed epoch has a cumulative fingerprint");
        DiagnosisWatermark {
            fingerprint,
            epoch,
            store_fingerprint,
            history_fingerprint,
            runs: self.history.len(),
            plan_fingerprint: self.diagnosed_plan().fingerprint(),
        }
    }

    /// Incrementally re-diagnoses the outcome against the evidence recorded at
    /// `since`, through the testbed's [`DiagnosisEngine`] — see
    /// [`DiagnosisEngine::diagnose_incremental`] for the replay/fallback contract.
    /// The report is always exactly what [`ScenarioOutcome::diagnose`] would
    /// produce; replay is purely a latency optimisation.
    pub fn diagnose_incremental(&self, since: &DiagnosisWatermark) -> DiagnosisReport {
        self.testbed.engine.diagnose_incremental(self, since)
    }

    /// Relabels the run history and explicitly invalidates the engine slots
    /// involved: the abandoned labelling's slot (its fits no longer describe any
    /// current labelling) and, defensively, the slot of the new fingerprint.
    pub fn relabel(&mut self, relabel: impl FnOnce(&mut RunHistory)) {
        let old = self.engine_fingerprint();
        relabel(&mut self.history);
        self.testbed.engine.invalidate(old);
        self.testbed.engine.invalidate(self.engine_fingerprint());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diads_inject::scenarios::{scenario_1, ScenarioTimeline};

    #[test]
    fn paper_testbed_assembles() {
        let testbed = Testbed::paper_default(1.0);
        assert_eq!(testbed.query.candidates.len(), 3);
        assert!(testbed.san.topology().volume("V1").is_some());
        assert!(testbed.catalog.table("partsupp").is_some());
        let record = testbed.execute_once(Timestamp::new(3_600)).unwrap();
        assert_eq!(record.operators.len(), 25);
        let apg = testbed.build_apg(testbed.plan_by_fingerprint(&record.plan_fingerprint).unwrap());
        assert_eq!(apg.leaves_on_volume("V1").len(), 2);
        assert!(testbed.all_events().is_empty());
    }

    #[test]
    fn scenario_1_produces_a_labelled_slowdown() {
        let scenario = scenario_1(ScenarioTimeline::short());
        let outcome = Testbed::run_scenario(&scenario);
        assert_eq!(outcome.history.len(), scenario.timeline.total_runs());
        assert_eq!(outcome.history.satisfactory().len(), scenario.timeline.satisfactory_runs);
        assert_eq!(outcome.history.unsatisfactory().len(), scenario.timeline.unsatisfactory_runs);
        // The injected contention really slows the query down.
        let slowdown = outcome.history.relative_slowdown().unwrap();
        assert!(slowdown > 0.3, "slowdown = {slowdown}");
        // The fault log shows the misconfiguration was applied.
        assert!(outcome.fault_log.iter().any(|(_, m)| m.contains("Vprime")));
        // The configuration events are visible on the merged timeline.
        let events = outcome.testbed.all_events();
        assert!(events.len() >= 3);
        // Monitoring data was recorded for volumes and operators.
        assert!(outcome.testbed.store.series_count() > 50);
        let apg = outcome.apg();
        assert_eq!(apg.plan.operator_count(), 25);
    }

    #[test]
    fn diagnose_warms_the_testbed_engine_and_relabel_invalidates() {
        let scenario = scenario_1(ScenarioTimeline::short());
        let mut outcome = Testbed::run_scenario(&scenario);
        let fingerprint = outcome.engine_fingerprint();
        assert!(!outcome.testbed.engine.is_warm(fingerprint));
        let cold = outcome.diagnose();
        assert!(outcome.testbed.engine.is_warm(fingerprint));
        let warm = outcome.diagnose();
        assert_eq!(cold, warm, "warm diagnosis must be identical to cold");
        // Relabelling abandons the old slot and changes the fingerprint.
        outcome.relabel(|h| h.label_by_threshold(f64::MAX));
        assert!(!outcome.testbed.engine.is_warm(fingerprint));
        assert_ne!(outcome.engine_fingerprint(), fingerprint);
    }

    #[test]
    fn engine_slots_distinguish_identical_histories_over_different_stores() {
        // Same timeline and faults, but no collector noise: the executed runs — and
        // therefore the history fingerprint — are identical, while the recorded
        // monitoring data differs. The engine slot key must tell them apart, or the
        // second outcome would be scored against the first one's samples.
        let scenario = scenario_1(ScenarioTimeline::short());
        let mut quiet = scenario.clone();
        quiet.noise = diads_monitor::noise::NoiseModel::None;
        let noisy_outcome = Testbed::run_scenario(&scenario);
        let quiet_outcome = Testbed::run_scenario(&quiet);
        assert_eq!(noisy_outcome.history.fingerprint(), quiet_outcome.history.fingerprint());
        assert_ne!(
            noisy_outcome.testbed.store.content_fingerprint(),
            quiet_outcome.testbed.store.content_fingerprint()
        );
        assert_ne!(noisy_outcome.engine_fingerprint(), quiet_outcome.engine_fingerprint());

        let engine = crate::engine::DiagnosisEngine::shared();
        engine.diagnose(&noisy_outcome);
        let fleet = engine.diagnose(&quiet_outcome);
        assert_eq!(engine.stats().warm_checkouts, 0, "different stores must not share a slot");
        assert_eq!(fleet, quiet_outcome.diagnose(), "cold fleet diagnosis must match the outcome's own");
    }

    #[test]
    fn batch_runs_share_one_fleet_engine() {
        let t = ScenarioTimeline::short();
        let scenarios = [scenario_1(t), diads_inject::scenarios::scenario_3(t)];
        let engine = crate::engine::DiagnosisEngine::shared();
        let outcomes = Testbed::run_scenarios_with_engine(&scenarios, &engine);
        for outcome in &outcomes {
            assert!(Arc::ptr_eq(&outcome.testbed.engine, &engine));
            outcome.diagnose();
        }
        assert_eq!(engine.slot_count(), 2, "one warm slot per distinct history");
    }

    #[test]
    fn run_scenarios_preserves_input_order() {
        let t = ScenarioTimeline::short();
        // Distinct scenarios, deliberately not in constructor order, so any
        // reordering of the outcomes is caught by the per-index id checks.
        let scenarios =
            [diads_inject::scenarios::scenario_3(t), scenario_1(t), diads_inject::scenarios::scenario_5(t)];
        let outcomes = Testbed::run_scenarios(&scenarios);
        assert_eq!(outcomes.len(), 3);
        for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
            assert_eq!(outcome.scenario.id, scenario.id);
            assert_eq!(outcome.history.len(), t.total_runs());
        }
    }
}
