//! The interactive mode of Figures 3/6/7: browse the run history, look at the APG and a
//! component's metrics, then drive the diagnosis pipeline stage by stage — editing
//! module CO's result before the downstream stages consume it, exactly as the paper's
//! administrator-in-the-loop mode allows. The session is a thin driver over the same
//! `DiagnosisPipeline` batch diagnosis runs, so the finished report (and its stage
//! provenance) is identical to a batch run over the edited evidence.
//!
//! Run with `cargo run --release --example interactive_workflow`.

use diads::core::screens::{apg_visualization_screen, query_selection_screen, workflow_screen};
use diads::core::{DiagnosisWorkflow, Testbed, WorkflowSession};
use diads::db::OperatorId;
use diads::inject::scenarios::{scenario_1, ScenarioTimeline};
use diads::monitor::ComponentId;

fn main() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    // Figure 3: the administrator looks at the executions and their labels.
    println!("{}", query_selection_screen("TPC-H Q2", &outcome.history));

    // Figure 6: the APG with volume V1's metrics during the first unsatisfactory run.
    let window = outcome.history.unsatisfactory()[0].record.window();
    println!(
        "{}",
        apg_visualization_screen(&apg, &outcome.testbed.store, &ComponentId::volume("V1"), window)
    );

    // Figure 7: step through the standard pipeline interactively. The session owns
    // the evidence ledger; each run_* executes that stage (plus any unmet
    // stage it depends on) against it.
    let mut session = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
    session.run_plan_diffing();
    session.run_correlated_operators();
    println!("{}", workflow_screen(&session));

    // The administrator trims the correlated-operator set down to the two partsupp
    // scans before letting dependency analysis run; downstream ledger slots are
    // invalidated and recomputed from the edit.
    session.edit_correlated_operators(vec![OperatorId(8), OperatorId(22)]);
    session.run_dependency_analysis();
    session.run_record_counts();
    session.run_symptoms();
    session.run_impact_analysis();
    println!("{}", workflow_screen(&session));

    let report = session.finish();
    println!("{}", report.render());
}
