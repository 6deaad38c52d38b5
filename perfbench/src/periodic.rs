//! `periodic`: the paper's periodic-report setting. K report queries (one per
//! generated tenant) each start from their run history up to and including
//! the first slow run. Each op is one new report run arriving: its monitoring
//! window is ingested into the live store through the batched sharded writer,
//! the run joins the history, `diagnose_incremental` re-diagnoses against the
//! previous watermark, `Planner::candidates` derives remediations, and a new
//! watermark is sealed for the next run. A query whose history is exhausted
//! restarts from its prefix, outside the timed region.

use std::sync::Arc;
use std::time::Instant;

use diads_core::runs::LabeledRun;
use diads_core::{DiagnosisEngine, DiagnosisWatermark, Planner, RunHistory, ScenarioOutcome};
use diads_monitor::rng::SplitMix64;
use diads_monitor::{DataPoint, Duration, MetricKey, MetricStore, TimeRange, Timestamp};

use crate::layers::{stage_spans, LayerSamples};
use crate::metrics::{median, Percentiles, RunResult};
use crate::setup::{repeated_setups, select_plans, signature, simulate_tenants, Config, Tenant};
use crate::trace::Tracer;

type Slice = Vec<(MetricKey, Vec<DataPoint>)>;

/// One tenant's periodic report query.
struct Query {
    live: ScenarioOutcome,
    prefix_store: MetricStore,
    prefix_len: usize,
    runs: Vec<LabeledRun>,
    /// `slices[k]`: the points that arrive with run `k` (empty below the prefix).
    slices: Vec<Slice>,
    watermark: DiagnosisWatermark,
    next: usize,
}

impl Query {
    fn new(tenant: Tenant, engine: &Arc<DiagnosisEngine>) -> Query {
        let full = tenant.outcome;
        let runs = full.history.runs.clone();
        let first_slow = runs.iter().position(|r| !r.satisfactory).expect("paper timeline has slow runs");
        let prefix_len = first_slow + 1;
        // Runs are monitored over `[start - 5 min, end + 5 min)`, and the
        // incremental path needs appended points to land after every earlier
        // run's window. cut[k]: everything before it is in the store once run
        // k has arrived.
        let pad = Duration::from_mins(5);
        let mut cut = Vec::with_capacity(runs.len());
        for run in &runs {
            let at = run.record.end.plus(pad);
            cut.push(cut.last().map_or(at, |&prev: &Timestamp| prev.max(at)));
        }
        let points = |range: TimeRange| -> Slice {
            full.testbed
                .store
                .iter_sorted()
                .map(|(key, series)| (key, series.range(range).to_vec()))
                .filter(|(_, pts)| !pts.is_empty())
                .collect()
        };
        let mut prefix_store = MetricStore::new();
        for (key, pts) in points(TimeRange::new(Timestamp::ZERO, cut[prefix_len - 1])) {
            for p in pts {
                prefix_store.record_key(key, p.time, p.value);
            }
        }
        let slices = (0..runs.len())
            .map(|k| if k < prefix_len { Vec::new() } else { points(TimeRange::new(cut[k - 1], cut[k])) })
            .collect();
        let mut testbed = full.testbed.fork();
        testbed.engine = Arc::clone(engine);
        testbed.store = prefix_store.clone();
        let mut live = ScenarioOutcome {
            scenario: full.scenario.clone(),
            testbed,
            history: RunHistory { runs: runs[..prefix_len].to_vec() },
            fault_log: full.fault_log.clone(),
        };
        live.diagnose();
        let watermark = live.seal_watermark();
        Query { live, prefix_store, prefix_len, runs, slices, watermark, next: prefix_len }
    }

    /// Back to the prefix: the history up to the first slow run, its store,
    /// a diagnosis through the shared engine and a sealed watermark. The
    /// slot of the finished history is dropped, as a retired report's would be.
    fn restart(&mut self) {
        self.live.testbed.engine.invalidate(self.live.engine_fingerprint());
        self.live.testbed.store = self.prefix_store.clone();
        self.live.history.runs.truncate(self.prefix_len);
        self.live.diagnose();
        self.watermark = self.live.seal_watermark();
        self.next = self.prefix_len;
    }
}

/// Measured ops checked against the cold reference: 1 in `CHECK_EVERY`, on a
/// sample seeded by `--seed`. Laps repeat the same states, and the warm-up lap
/// checks every one of them.
const CHECK_EVERY: u64 = 4;

/// What one op measured and, when checked, whether its report matched the
/// cold reference.
struct OpOutcome {
    op_ms: f64,
    staleness_ms: f64,
    fell_back: bool,
    matches_cold: Option<bool>,
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let plans = select_plans(cfg);
    let engine = DiagnosisEngine::shared();
    let mut queries = repeated_setups(cfg, &mut result, tracer, |tracer| {
        let tenants = simulate_tenants(&plans, tracer);
        let sig = signature(tenants.iter().map(|t| &t.outcome));
        engine.invalidate_all();
        (tenants.into_iter().map(|t| Query::new(t, &engine)).collect::<Vec<_>>(), sig)
    });
    let k = queries.len();
    let lap = k * (queries[0].runs.len() - queries[0].prefix_len);

    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut staleness_ms = Vec::new();
    let mut layers = LayerSamples::default();
    let mut off = Tracer::new(false);
    let mut fallbacks = 0u64;
    let mut evictions_before = 0;
    let mut sample = SplitMix64::new(cfg.seed);
    let mut started = Instant::now();
    // Op `i` serves query `i % k`. The first lap is an untimed warm-up (its
    // reports are still checked); after it, whole laps alternate between
    // untraced and traced in a traced run.
    let min_ops = lap * if tracer.enabled() { 3 } else { 2 };
    let mut op = 0usize;
    while op < min_ops || started.elapsed().as_secs_f64() < cfg.seconds {
        let warm_up = op < lap;
        if op == lap {
            started = Instant::now();
            evictions_before = engine.stats().evictions;
        }
        let query = &mut queries[op % k];
        if query.next == query.runs.len() {
            query.restart();
        }
        let traced = !warm_up && tracer.enabled() && (op / lap).is_multiple_of(2);
        let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let check = warm_up || sample.next_u64().is_multiple_of(CHECK_EVERY);
        let out = one_op(query, op as u64, check, t, &mut layers);
        result.attempted += 1;
        if let Some(ok) = out.matches_cold {
            result.check("incremental_equals_cold", ok);
            result.failed += u64::from(!ok);
        }
        op += 1;
        if warm_up {
            continue;
        }
        fallbacks += u64::from(out.fell_back);
        if traced {
            layers.fallback(out.fell_back);
            traced_ms.push(out.op_ms);
        } else {
            op_ms.push(out.op_ms);
            staleness_ms.push(out.staleness_ms);
        }
    }
    let measured = op - lap;
    let timed_s: f64 = op_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
    result.ops_per_s = measured as f64 / timed_s;
    result.op = Some(Percentiles::windowed(&op_ms));
    result.staleness = Some(Percentiles::windowed(&staleness_ms));
    result.note("queries", k);
    result.note("measured_ops", measured);
    result.note("fallbacks", fallbacks);
    if tracer.enabled() {
        layers.evictions(engine.stats().evictions - evictions_before);
        layers.finish(tracer, &mut result);
        result.layers.insert("bench.trace_overhead_ratio", median(&traced_ms) / median(&op_ms));
    }
    result
}

/// One report run arriving for `query`: ingest, grow, re-diagnose, derive
/// candidates, seal. The cold reference check runs after the timed region.
fn one_op(query: &mut Query, op: u64, check: bool, t: &mut Tracer, layers: &mut LayerSamples) -> OpOutcome {
    let slice = &query.slices[query.next];
    let run = query.runs[query.next].clone();
    let live = &mut query.live;

    let t0 = Instant::now();
    let root = t.begin("op", op, None);
    let span = t.begin("monitor.ingest", op, Some(root));
    {
        let writer = live.testbed.store.sharded_writer();
        let mut batched = writer.batched();
        for (key, points) in slice {
            for p in points {
                batched.record_key(*key, p.time, p.value);
            }
        }
    }
    t.end(span);
    live.history.runs.push(run);
    let span = t.begin("core.engine.diagnose_incremental", op, Some(root));
    let report = live.diagnose_incremental(&query.watermark);
    t.end(span);
    let t1 = Instant::now();
    let planner = Planner::for_outcome(live);
    t.time("core.planner.candidates", op, Some(root), || planner.candidates(&report, &live.testbed));
    let watermark = t.time("monitor.seal_watermark", op, Some(root), || live.seal_watermark());
    t.end(root);
    let t2 = Instant::now();

    if t.enabled() {
        t.derived_children(span, stage_spans(&report));
        layers.report(&report);
        layers.ingested(slice.iter().map(|(_, p)| p.len()).sum());
        // Probes of calls the op makes internally, timed on their own after it.
        let since = query.watermark.epoch;
        t.time("monitor.delta_since", op, None, || {
            live.testbed.store.delta_since(since).map(|d| d.point_count())
        });
        t.time("core.apg.build", op, None, || live.apg());
        t.time("core.testbed.all_events", op, None, || live.testbed.all_events());
        t.time("monitor.content_fingerprint", op, None, || live.testbed.store.content_fingerprint());
    }
    // A fallback re-runs cold and applies no epochs; a replayed incremental
    // always applies the ingested one.
    let fell_back = report.provenance.epochs_applied == 0;
    let matches_cold = check.then(|| report == DiagnosisEngine::new().diagnose(live));
    query.watermark = watermark;
    query.next += 1;
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    OpOutcome { op_ms: ms(t0, t2), staleness_ms: ms(t0, t1), fell_back, matches_cold }
}
