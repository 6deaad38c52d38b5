//! Regenerates the **Section-5 scenario-1 drill-down**: the in-text results the paper
//! walks through (PD/CR find nothing, CO flags the V1 leaves plus upstream operators,
//! DA confirms V1's metrics only, SD gives the misconfiguration high confidence and the
//! workload-change cause medium, IA attributes ~100 % of the slowdown).
//!
//! Run with `cargo run --release -p diads-bench --bin scenario1_drilldown`.

use diads_bench::harness::heading;
use diads_core::{DiagnosisCache, DiagnosisWorkflow, Testbed};
use diads_inject::scenarios::{scenario_1, ScenarioTimeline};
use diads_monitor::ComponentKind;

fn main() {
    let scenario = scenario_1(ScenarioTimeline::paper_default());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let workflow = DiagnosisWorkflow::new();
    let mut cache = DiagnosisCache::new();

    heading("Scenario 1 drill-down (SAN misconfiguration causing contention in V1)");
    println!(
        "Satisfactory runs: {} (mean {:.0}s); unsatisfactory runs: {} (mean {:.0}s)",
        outcome.history.satisfactory().len(),
        outcome.history.mean_satisfactory_elapsed().unwrap_or(0.0),
        outcome.history.unsatisfactory().len(),
        outcome.history.mean_unsatisfactory_elapsed().unwrap_or(0.0),
    );

    let pd = workflow.plan_diffing(&ctx);
    println!("\n[Module PD] same plan in both periods: {}", pd.same_plan);

    let cos = workflow.correlated_operators(&ctx, &mut cache);
    println!("\n[Module CO] operator anomaly scores above the 0.8 threshold:");
    for op in &cos.correlated {
        let leaf = apg.plan.operator(*op).map(|n| n.kind.is_leaf()).unwrap_or(false);
        println!(
            "    {:>4}  score {:.3}  {}{}",
            op.to_string(),
            cos.scores[op],
            if leaf { "leaf" } else { "intermediate (event propagation)" },
            apg.volume_of(*op).map(|v| format!(", volume {v}")).unwrap_or_default()
        );
    }

    let da = workflow.dependency_analysis(&ctx, &cos, &mut cache);
    println!("\n[Module DA] correlated components (storage side):");
    for c in da.correlated_components.iter().filter(|c| {
        matches!(c.kind, ComponentKind::StorageVolume | ComponentKind::StoragePool | ComponentKind::Disk)
    }) {
        println!("    {c}");
    }

    let cr = workflow.record_counts(&ctx, &cos, &mut cache);
    println!(
        "\n[Module CR] operators with record-count changes: {}",
        if cr.changed.is_empty() {
            "none (data properties unchanged)".to_string()
        } else {
            format!("{:?}", cr.changed)
        }
    );

    let sd = workflow.symptoms(&ctx, &pd, &cos, &da, &cr);
    println!("\n[Module SD] root-cause confidence scores:");
    for cause in &sd.causes {
        println!(
            "    [{:<6}] {:>5.1}%  {}",
            cause.confidence.label(),
            cause.confidence_score,
            cause.cause_id
        );
    }

    let ia = workflow.impact_analysis(&ctx, &cos, &da, &cr, &sd);
    println!("\n[Module IA] impact scores (inverse dependency analysis):");
    for impact in &ia.impacts {
        println!("    {:<40} {:>6.1}%", impact.cause_id, impact.impact_pct);
    }
    println!("\nPaper reference: impact score 99.8% for the high-confidence root cause.");

    let report = workflow.assemble_report(&ctx, &pd, &cos, &da, &cr, &sd, &ia);
    println!("\n{}", report.render());
}
