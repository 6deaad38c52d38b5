//! Compound faults: database and SAN problems hitting the same report query at the
//! same time — the capability the paper calls unique to an integrated tool. DIADS
//! identifies both problems, impact analysis ranks them, and the remediation
//! planner turns the report into what-if-evaluated next steps.
//!
//! Run with `cargo run --release --example concurrent_db_san_problems`.

use diads::core::{ConfidenceLevel, Planner, Testbed};
use diads::inject::scenarios::{
    compound_lock_and_interloper_scenario, scenario_4, scenario_5, ScenarioTimeline,
};

fn main() {
    let timeline = ScenarioTimeline::short();

    println!("=== Scenario 4: concurrent database and SAN problems ===\n");
    let scenario = scenario_4(timeline);
    let outcome = Testbed::run_scenario(&scenario);
    let report = diads::diagnose_scenario_outcome(&outcome);
    println!("{}", report.render());
    let high: Vec<_> = report.causes.iter().filter(|c| c.confidence == ConfidenceLevel::High).collect();
    println!("High-confidence causes found: {}", high.len());
    for cause in &high {
        println!("  {} — {:.1}% of the slowdown", cause.cause_id, cause.impact_pct);
    }

    println!("\n=== Scenario 5: locking problem plus spurious SAN symptoms from noise ===\n");
    let scenario = scenario_5(timeline);
    let outcome = Testbed::run_scenario(&scenario);
    let report = diads::diagnose_scenario_outcome(&outcome);
    println!("{}", report.render());
    println!(
        "Primary cause: {} (volume-contention causes, if any, carry little impact — the noise is filtered out)",
        report.primary_cause().map(|c| c.cause_id.clone()).unwrap_or_default()
    );

    // --- Compound scenario with independent onsets, planned end to end. ---
    println!("\n=== Compound: lock contention during SAN interloper load (staggered onsets) ===\n");
    let scenario = compound_lock_and_interloper_scenario(timeline);
    let outcome = Testbed::run_scenario(&scenario);
    // Diagnose, then plan: the planner derives candidate changes from the report's
    // ranked causes and what-if-evaluates each against a fork of the deployment.
    let report = diads::diagnose_scenario_outcome(&outcome);
    println!("{}", report.render());
    let plan = Planner::for_outcome(&outcome).plan(&report, &outcome.testbed);
    print!("{}", plan.render());
    println!(
        "\nBoth layers are guilty (the lock window opened two hours into the interloper load);\n\
         the planner's ranked changes address the SAN side — the lock holder is a running\n\
         transaction, not a deployment knob, so no what-if change claims to fix it."
    );
}
