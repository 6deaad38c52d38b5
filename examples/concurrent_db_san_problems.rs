//! Compound faults: database and SAN problems hitting the same report query at the
//! same time — the capability the paper calls unique to an integrated tool. DIADS
//! identifies both problems, impact analysis ranks them, and the remediation
//! planner (appended to the diagnosis pipeline as a custom stage) turns the report
//! into what-if-evaluated next steps.
//!
//! Run with `cargo run --release --example concurrent_db_san_problems`.

use diads::core::{
    ConfidenceLevel, DiagnosisPipeline, Planner, PlannerStage, Stage, Testbed, WorkflowSession,
};
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
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    // The planner rides the pipeline as a custom stage appended after IA; the
    // session exposes its ledger slot.
    let stage = PlannerStage::new(Planner::for_outcome(&outcome), &outcome.testbed);
    let pipeline = DiagnosisPipeline::standard().insert_after(Stage::ImpactAnalysis, Box::new(stage));
    println!("Pipeline: {}\n", pipeline.stage_names().join(" -> "));
    let mut session = WorkflowSession::with_pipeline(pipeline, ctx);
    let report = session.finish();
    println!("{}", report.render());
    let plan = session.state().remediation.clone().expect("the PLAN stage filled the ledger slot");
    print!("{}", plan.render());
    println!(
        "\nBoth layers are guilty (the lock window opened two hours into the interloper load);\n\
         the planner's ranked changes address the SAN side — the lock holder is a running\n\
         transaction, not a deployment knob, so no what-if change claims to fix it."
    );
}
