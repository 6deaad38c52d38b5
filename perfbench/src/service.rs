//! `service`: `DiagnosisService::from_outcomes` over K generated tenants with
//! `ServiceConfig::default()`. `run_cycles` passes on `min(2, nproc - 1)`
//! worker threads (at least one) with a never-drained 64-slot subscriber
//! attached. The service's probes land off the APG, so every diagnosed cycle
//! takes the incremental replay fast path.
//!
//! `ServiceStats` spectra are cumulative and cannot be reset, so every pass
//! runs on a fresh service built from copies of the simulated outcomes: one
//! warm-up pass, then several measured passes of a fixed cycle count. The
//! end-to-end figures are medians over the measured passes, so one pass
//! disturbed by the host does not decide them.

use std::time::Instant;

use diads_core::{DiagnosisEngine, Planner, ScenarioOutcome};
use diads_monitor::{ComponentId, Duration, MetricName};
use diads_service::{ChannelSink, DiagnosisService, EventHub, ServiceConfig, ServiceStats, SpectrumSummary};

use crate::layers::{stage_spans, LayerSamples};
use crate::metrics::{median, ratio, Percentiles, RunResult};
use crate::setup::{copy_outcome, repeated_setups, select_plans, signature, simulate_tenants, Config};
use crate::trace::Tracer;

/// Capacity of the subscriber that is attached and never drained.
const SUBSCRIBER_SLOTS: usize = 64;
/// Cycles per tenant per worker thread per second of `--seconds`, split
/// across the measured passes: about one second of passes per second.
const CYCLES_PER_THREAD_SECOND: f64 = 1_000.0;
const MEASURED_PASSES: usize = 15;
const WARM_UP_CYCLES: u64 = 256;

struct Pass {
    stats: ServiceStats,
    tenant_cycles_per_s: f64,
}

fn run_pass(service: &DiagnosisService, cycles: u64, threads: usize, t: &mut Tracer) -> Pass {
    let rx = service.hub().subscribe(SUBSCRIBER_SLOTS);
    let started = Instant::now();
    t.time("service.run_cycles", 0, None, || service.run_cycles(cycles, threads));
    let wall_s = started.elapsed().as_secs_f64();
    drop(rx);
    let stats = t.time("service.stats", 0, None, || service.stats());
    let tenant_cycles_per_s = (cycles * service.tenant_count() as u64) as f64 / wall_s;
    Pass { stats, tenant_cycles_per_s }
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let plans = select_plans(cfg);
    // Up to two workers, leaving one core to the rest of the host: with two
    // busy workers on a 2-core host, other load decided the tail (cycle p99
    // ranged from 0.28 to 2.7 ms over ten seeds; 0.25 to 0.45 ms with one).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = cores.saturating_sub(1).clamp(1, 2);
    let outcomes = repeated_setups(cfg, &mut result, tracer, |tracer| {
        let outcomes: Vec<ScenarioOutcome> =
            simulate_tenants(&plans, tracer).into_iter().map(|t| t.outcome).collect();
        let sig = signature(&outcomes);
        (outcomes, sig)
    });
    let fresh = || {
        DiagnosisService::from_outcomes(outcomes.iter().map(copy_outcome).collect(), ServiceConfig::default())
    };

    let mut off = Tracer::new(false);
    run_pass(&fresh(), WARM_UP_CYCLES, threads, &mut off);

    // A traced run alternates untraced and traced passes.
    let passes = if cfg.smoke { 2 } else { MEASURED_PASSES + usize::from(tracer.enabled()) };
    let cycles = ((CYCLES_PER_THREAD_SECOND * threads as f64 * cfg.seconds / passes as f64) as u64).max(8);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut layers = LayerSamples::default();
    for p in 0..passes {
        let trace_this = tracer.enabled() && p % 2 == 1;
        let service = fresh();
        let pass = run_pass(&service, cycles, threads, if trace_this { &mut *tracer } else { &mut off });
        check_tenants(&service, &pass, &mut result);
        if trace_this {
            for tenant in 0..service.tenant_count() {
                if let Some(report) = service.last_report(tenant) {
                    layers.report(&report);
                    layers.fallback(report.provenance.epochs_applied == 0);
                }
            }
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }

    let of = |passes: &[Pass], f: fn(&ServiceStats) -> Option<f64>| {
        median(&passes.iter().map(|p| f(&p.stats).unwrap_or(f64::NAN)).collect::<Vec<_>>())
    };
    let samples = |passes: &[Pass], f: fn(&ServiceStats) -> &SpectrumSummary| {
        passes.iter().map(|p| f(&p.stats).count).sum::<usize>()
    };
    // `ServiceStats` reports p50/p99/p999, so the tail is p99; a 0.2 ms cycle
    // is rarely the one a host preemption lands in.
    let cycle_p99 = of(&untraced, |s| s.cycle_latency.p99_ms);
    result.op = Some(Percentiles {
        p50: of(&untraced, |s| s.cycle_latency.p50_ms),
        tail: cycle_p99,
        tail_percentile: 99,
        p99: cycle_p99,
        samples: samples(&untraced, |s| &s.cycle_latency),
    });
    let staleness_p99 = of(&untraced, |s| s.staleness.p99_ms);
    result.staleness = Some(Percentiles {
        p50: of(&untraced, |s| s.staleness.p50_ms),
        tail: staleness_p99,
        tail_percentile: 99,
        p99: staleness_p99,
        samples: samples(&untraced, |s| &s.staleness),
    });
    result.ops_per_s = median(&untraced.iter().map(|p| p.tenant_cycles_per_s).collect::<Vec<_>>());
    result.note("tenants", outcomes.len());
    result.note("threads", threads);
    result.note(
        "passes",
        format!("{} untraced, {} traced, percentiles are medians over passes", untraced.len(), traced.len()),
    );
    result.note("cycles_per_tenant_per_pass", cycles);
    let per_pass = |f: fn(&ServiceStats) -> Option<f64>| -> Vec<String> {
        untraced.iter().map(|p| format!("{:.4}", f(&p.stats).unwrap_or(f64::NAN))).collect()
    };
    result.note("cycle_p99_ms_per_pass", per_pass(|s| s.cycle_latency.p99_ms).join(" "));
    result.note("staleness_p50_ms_per_pass", per_pass(|s| s.staleness.p50_ms).join(" "));
    let last = untraced.last().expect("at least one untraced pass");
    result.note("diagnosed_cycles_per_pass", last.stats.cycles);
    result.note("skipped_cycles_per_pass", last.stats.skipped_cycles);

    if let Some(pass) = traced.last() {
        let s = &pass.stats;
        layers.evictions(s.engine.evictions);
        shadow_cycles(cfg, &outcomes[0], tracer, &mut layers);
        layers.finish(tracer, &mut result);
        let l = &mut result.layers;
        l.insert("core.engine.warm_hit_rate", s.engine.warm_hit_rate());
        l.insert("service.diagnosed_ratio", ratio(s.cycles as f64, (s.cycles + s.skipped_cycles) as f64));
        l.insert("service.events_published", ratio(s.events_published as f64, s.cycles as f64));
        l.insert("service.drop_ratio", ratio(s.events_dropped as f64, s.events_published as f64));
        let p50 = |s: &ServiceStats| s.cycle_latency.p50_ms;
        l.insert("bench.trace_overhead_ratio", of(&traced, p50) / of(&untraced, p50));
    }
    result
}

/// After a pass every tenant's last report must equal a cold diagnosis of its
/// store as it stands. A mismatch fails that tenant's final cycle.
fn check_tenants(service: &DiagnosisService, pass: &Pass, result: &mut RunResult) {
    result.attempted += pass.stats.cycles;
    for tenant in 0..service.tenant_count() {
        let ok = match service.last_report(tenant) {
            Some(report) => service.with_outcome(tenant, |o| DiagnosisEngine::new().diagnose(o)) == report,
            None => false,
        };
        result.check("last_report_equals_cold", ok);
        result.failed += u64::from(!ok);
    }
    result.check("no_cancelled_cycles", pass.stats.cancelled_cycles == 0);
}

/// Replays diagnosed service cycles on one extra tenant with the same calls
/// the service makes (batched probe ingest, seal, streamed incremental
/// diagnosis, candidates), so each layer of a cycle gets its own span.
fn shadow_cycles(cfg: &Config, simulated: &ScenarioOutcome, t: &mut Tracer, layers: &mut LayerSamples) {
    let config = ServiceConfig::default();
    let mut outcome = copy_outcome(simulated);
    let _ = outcome.diagnose();
    let mut watermark = outcome.seal_watermark();
    let hub = EventHub::new();
    let _rx = hub.subscribe(SUBSCRIBER_SLOTS);
    let key = outcome
        .testbed
        .store
        .intern(&ComponentId::server("svc-host-shadow"), &MetricName::Custom("svcProbeShadow".into()));
    let last_end = outcome.history.runs.iter().map(|r| r.record.end).max().expect("runs");
    let mut probe_time = last_end.plus(Duration::from_mins(10));
    let step = Duration::from_secs((config.probe_interval.as_secs() / config.probes_per_cycle as u64).max(1));
    let planner = Planner::for_outcome(&outcome);
    let diagnosed_cycles: u64 = if cfg.smoke { 20 } else { 400 };
    // Enough probe batches per diagnosis to meet the seal policy, as in the
    // service loop.
    let batches = (config.seal_policy.max_interval.as_secs() / config.probe_interval.as_secs()).max(1);
    for cycle in 0..diagnosed_cycles {
        let root = t.begin("op", cycle, None);
        for _ in 0..batches {
            probe_time = probe_time.plus(config.probe_interval);
            t.time("monitor.ingest", cycle, Some(root), || {
                let writer = outcome.testbed.store.sharded_writer();
                let mut batched = writer.batched();
                for p in 0..config.probes_per_cycle {
                    batched.record_key(
                        key,
                        probe_time.plus(step.scale(p as f64)),
                        (cycle * 1000 + p as u64) as f64,
                    );
                }
            });
            layers.ingested(config.probes_per_cycle);
        }
        let span = t.begin("core.engine.diagnose_incremental", cycle, Some(root));
        let sink = ChannelSink::new(&hub, 0, cycle);
        let report = outcome.testbed.engine.diagnose_incremental_streamed(&outcome, &watermark, &sink, None);
        t.end(span);
        t.derived_children(span, stage_spans(&report));
        t.time("core.planner.candidates", cycle, Some(root), || {
            planner.candidates(&report, &outcome.testbed)
        });
        let since = watermark.epoch;
        watermark = t.time("monitor.seal_watermark", cycle, Some(root), || outcome.seal_watermark());
        t.end(root);
        t.time("monitor.delta_since", cycle, None, || {
            outcome.testbed.store.delta_since(since).map(|d| d.point_count())
        });
        t.time("core.testbed.all_events", cycle, None, || outcome.testbed.all_events());
        t.time("monitor.content_fingerprint", cycle, None, || outcome.testbed.store.content_fingerprint());
    }
}
