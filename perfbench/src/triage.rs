//! `triage`: one client diagnoses seeded generated incidents one after another.
//! Each op is a cold `DiagnosisEngine::new().diagnose` followed by
//! `Planner::plan` (what-if executions against forks of the testbed).

use std::time::Instant;

use diads_core::{DiagnosisEngine, DiagnosisReport, Planner, RemediationPlan};
use diads_gen::evaluate;

use crate::layers::{stage_spans, LayerSamples};
use crate::metrics::{median, Percentiles, RunResult};
use crate::setup::{repeated_setups, select_plans, signature, simulate_tenants, Config, Tenant};
use crate::trace::Tracer;

struct Incident {
    tenant: Tenant,
    /// The first report and rendered plan, which every repeat must reproduce.
    reference: Option<(DiagnosisReport, String)>,
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> RunResult {
    let mut result = RunResult::default();
    let plans = select_plans(cfg);
    let tenants = repeated_setups(cfg, &mut result, tracer, |tracer| {
        let tenants = simulate_tenants(&plans, tracer);
        let sig = signature(tenants.iter().map(|t| &t.outcome));
        (tenants, sig)
    });
    let mut incidents: Vec<Incident> =
        tenants.into_iter().map(|tenant| Incident { tenant, reference: None }).collect();
    let k = incidents.len();

    // Warm-up: one untimed pass over every incident, which also records the
    // reference each repeat is compared with.
    let mut off = Tracer::new(false);
    let mut layers = LayerSamples::default();
    for (i, incident) in incidents.iter_mut().enumerate() {
        let (report, plan, _) = one_op(incident, i as u64, &mut off, &mut layers);
        check(incident, report, plan, &mut result);
    }

    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut staleness_ms = Vec::new();
    let started = Instant::now();
    let min_ops = k as u64 * if tracer.enabled() { 2 } else { 1 };
    let mut op = 0u64;
    while op < min_ops || started.elapsed().as_secs_f64() < cfg.seconds {
        let incident = &mut incidents[op as usize % k];
        // Whole laps alternate between untraced and traced, so both halves see
        // every incident.
        let traced = tracer.enabled() && (op / k as u64) % 2 == 1;
        let t: &mut Tracer = if traced { &mut *tracer } else { &mut off };
        let (report, plan, (ms, stale)) = one_op(incident, op, t, &mut layers);
        if traced {
            traced_ms.push(ms);
        } else {
            op_ms.push(ms);
            staleness_ms.push(stale);
        }
        check(incident, report, plan, &mut result);
        op += 1;
    }
    let timed_s: f64 = op_ms.iter().chain(&traced_ms).sum::<f64>() / 1e3;
    result.ops_per_s = op as f64 / timed_s;
    result.op = Some(Percentiles::windowed(&op_ms));
    result.staleness = Some(Percentiles::windowed(&staleness_ms));
    result.note("incidents", k);
    result.note("ops", op);
    if tracer.enabled() {
        layers.finish(tracer, &mut result);
        result.layers.insert("bench.trace_overhead_ratio", median(&traced_ms) / median(&op_ms));
    }
    result
}

/// One op: cold diagnose, then plan. Returns the report, the plan and
/// (op ms, staleness ms) where staleness is the time until the diagnosis (the
/// first answer) is ready. Spans and counters are recorded when `t` is on.
fn one_op(
    incident: &Incident,
    op: u64,
    t: &mut Tracer,
    layers: &mut LayerSamples,
) -> (DiagnosisReport, RemediationPlan, (f64, f64)) {
    let outcome = &incident.tenant.outcome;
    let engine = DiagnosisEngine::new();
    let planner = Planner::for_outcome(outcome);

    let t0 = Instant::now();
    let root = t.begin("op", op, None);
    let span = t.begin("core.engine.diagnose", op, Some(root));
    let report = engine.diagnose(outcome);
    t.end(span);
    let t1 = Instant::now();
    let plan = t.time("core.planner.plan", op, Some(root), || planner.plan(&report, &outcome.testbed));
    t.end(root);
    let t2 = Instant::now();

    if t.enabled() {
        t.derived_children(span, stage_spans(&report));
        layers.report(&report);
        layers.evictions(engine.stats().evictions);
        layers.plan(&plan);
        // Probes of calls the op makes internally, timed on their own after it.
        t.time("core.apg.build", op, None, || outcome.apg());
        t.time("core.testbed.all_events", op, None, || outcome.testbed.all_events());
        t.time("monitor.content_fingerprint", op, None, || outcome.testbed.store.content_fingerprint());
        let at = planner.config.evaluate_at;
        let _ = t.time("db.execute_once", op, None, || outcome.testbed.execute_once(at));
        t.time("core.planner.candidates", op, None, || planner.candidates(&report, &outcome.testbed));
    }
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    (report, plan, (ms(t0, t2), ms(t0, t1)))
}

/// The report must pass the completeness and soundness oracles, and repeat
/// the incident's first report and plan bit for bit.
fn check(incident: &mut Incident, report: DiagnosisReport, plan: RemediationPlan, result: &mut RunResult) {
    let oracle_ok = evaluate(&incident.tenant.plan, &report).is_empty();
    let rendered = plan.render();
    let repeat_ok = match &incident.reference {
        Some((first, first_plan)) => *first == report && *first_plan == rendered,
        None => {
            incident.reference = Some((report, rendered));
            true
        }
    };
    result.check("oracle_completeness_soundness", oracle_ok);
    result.check("repeat_bit_identical", repeat_ok);
    result.attempted += 1;
    result.failed += u64::from(!(oracle_ok && repeat_ok));
}
