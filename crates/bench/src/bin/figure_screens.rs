//! Regenerates **Figures 3, 6 and 7** (the GUI screens) as text: the query-selection
//! table, the APG visualization with a metric panel for volume V1, and the interactive
//! workflow screen after each module.
//!
//! Run with `cargo run --release -p diads-bench --bin figure_screens`.

use diads_bench::harness::heading;
use diads_core::screens::{apg_visualization_screen, query_selection_screen, workflow_screen};
use diads_core::{DiagnosisWorkflow, Testbed, WorkflowSession};
use diads_inject::scenarios::{scenario_1, ScenarioTimeline};
use diads_monitor::ComponentId;

fn main() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    heading("Figure 3: query selection screen");
    println!("{}", query_selection_screen("TPC-H Q2", &outcome.history));

    heading("Figure 6: APG visualization screen (volume V1 selected)");
    let window = outcome
        .history
        .unsatisfactory()
        .first()
        .map(|r| r.record.window())
        .unwrap_or_else(|| outcome.history.runs.last().expect("runs exist").record.window());
    println!(
        "{}",
        apg_visualization_screen(&apg, &outcome.testbed.store, &ComponentId::volume("V1"), window)
    );

    heading("Figure 7: interactive workflow execution screen");
    let mut session = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
    println!("{}", workflow_screen(&session));
    session.run_plan_diffing();
    println!("{}", workflow_screen(&session));
    session.run_correlated_operators();
    println!("{}", workflow_screen(&session));
    session.run_dependency_analysis();
    println!("{}", workflow_screen(&session));
    session.run_record_counts();
    println!("{}", workflow_screen(&session));
    session.run_symptoms();
    println!("{}", workflow_screen(&session));
    session.run_impact_analysis();
    println!("{}", workflow_screen(&session));
}
