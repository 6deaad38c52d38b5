//! Run configuration and the shared set-up step: simulating seeded generated
//! tenants on the paper's 30 + 10 run timeline, repeated so `setup_s` is a
//! median.
//!
//! Every run takes the same mix of fault-plan shapes, drawn from the seed's
//! plan stream. The op-latency tail is set by a few shapes: compound plans run
//! up to 8 what-ifs in `triage`, a plan change makes diagnosis re-drill, and
//! one that starts after the first slow run makes one `periodic` op per lap
//! fall back to a cold diagnosis. Left to chance, the number of such tenants
//! among 12 varies from seed to seed (from 0 to 6 plan changes) and moves
//! the p99 of op latency by half; fixed quotas keep the seeds comparable while
//! each plan is still the generator's.

use std::time::Instant;

use diads_core::{ScenarioOutcome, Testbed};
use diads_gen::{GenPlan, Generator, TimelineKind};
use diads_monitor::rng::SplitMix64;

use crate::metrics::RunResult;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the self-test: 2 tenants, one set-up.
    pub smoke: bool,
}

impl Config {
    /// How often the set-up is repeated; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// When a plan-changing fault (an index drop or a configuration change)
/// starts: it decides whether diagnosis re-drills against a new plan, and a
/// late one makes one `periodic` op per lap fall back to a cold diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlanChange {
    None,
    AtOnset,
    Late,
}

fn plan_change(plan: &GenPlan) -> PlanChange {
    let onset = plan
        .overlays
        .iter()
        .filter(|o| matches!(o.kind.as_str(), "index-drop" | "config-parameter-change"))
        .map(|o| o.onset_delay_hours)
        .min();
    match onset {
        None => PlanChange::None,
        Some(0) => PlanChange::AtOnset,
        Some(_) => PlanChange::Late,
    }
}

/// Plan shapes and how many tenants of each a run takes: (overlay count,
/// plan change, tenants).
const MIX: &[(usize, PlanChange, usize)] = &[
    (1, PlanChange::None, 3),
    (1, PlanChange::AtOnset, 1),
    (2, PlanChange::None, 2),
    (2, PlanChange::AtOnset, 1),
    (2, PlanChange::Late, 1),
    (3, PlanChange::None, 2),
    (3, PlanChange::AtOnset, 1),
    (3, PlanChange::Late, 1),
];
/// The `--smoke` mix: one plain plan and one with a late plan change.
const SMOKE_MIX: &[(usize, PlanChange, usize)] = &[(1, PlanChange::None, 1), (2, PlanChange::Late, 1)];

/// The first plans of the seed's stream, in stream order, that fill the mix.
pub fn select_plans(cfg: &Config) -> Vec<GenPlan> {
    let generator = Generator::new(cfg.seed, TimelineKind::Paper);
    let mix = if cfg.smoke { SMOKE_MIX } else { MIX };
    let mut left: Vec<usize> = mix.iter().map(|m| m.2).collect();
    let mut plans = Vec::new();
    for index in 0.. {
        if left.iter().all(|&n| n == 0) {
            break;
        }
        assert!(index < 100_000, "seed {} never fills the plan mix", cfg.seed);
        let plan = generator.plan(index);
        let shape = (plan.overlays.len(), plan_change(&plan));
        if let Some(i) = mix.iter().position(|m| (m.0, m.1) == shape) {
            if left[i] > 0 {
                left[i] -= 1;
                plans.push(plan);
            }
        }
    }
    plans
}

/// One simulated tenant: its generated fault plan and the scenario outcome.
pub struct Tenant {
    pub plan: GenPlan,
    pub outcome: ScenarioOutcome,
}

/// Simulates the run's plans (`Testbed::run_scenario` each, traced as
/// `setup.simulate`).
pub fn simulate_tenants(plans: &[GenPlan], tracer: &mut Tracer) -> Vec<Tenant> {
    plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let scenario = plan.to_scenario();
            let outcome = tracer.time("setup.simulate", i as u64, None, || Testbed::run_scenario(&scenario));
            Tenant { plan: plan.clone(), outcome }
        })
        .collect()
}

/// An independent copy of a simulated outcome with its own engine: the same
/// testbed, history and recorded store, without simulating again.
pub fn copy_outcome(outcome: &ScenarioOutcome) -> ScenarioOutcome {
    let mut testbed = outcome.testbed.fork();
    testbed.store = outcome.testbed.store.clone();
    ScenarioOutcome {
        scenario: outcome.scenario.clone(),
        testbed,
        history: outcome.history.clone(),
        fault_log: outcome.fault_log.clone(),
    }
}

/// A signature of simulated state that must repeat across set-ups: the engine
/// fingerprints (history + store content) of every tenant, in order.
pub fn signature<'a>(outcomes: impl IntoIterator<Item = &'a ScenarioOutcome>) -> u64 {
    outcomes.into_iter().fold(0, |acc, o| SplitMix64::mix(acc, o.engine_fingerprint()))
}

/// Runs `build` `cfg.setups()` times, timing each, and returns the last
/// set-up's value (earlier ones are dropped as soon as they are timed). Every
/// set-up must produce the same signature: the simulation is seeded.
pub fn repeated_setups<T>(
    cfg: &Config,
    result: &mut RunResult,
    tracer: &mut Tracer,
    mut build: impl FnMut(&mut Tracer) -> (T, u64),
) -> T {
    let mut first_signature = None;
    let mut last = None;
    for _ in 0..cfg.setups() {
        let started = Instant::now();
        let (value, sig) = build(tracer);
        result.setup_s.push(started.elapsed().as_secs_f64());
        result.check("setup_deterministic", *first_signature.get_or_insert(sig) == sig);
        last = Some(value);
    }
    last.expect("at least one set-up")
}
