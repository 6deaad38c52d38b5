//! Scenario-1 deep dive: step through the diagnosis workflow module by module, printing
//! the intermediate results the paper walks through in Section 5 (correlated operators,
//! dependency analysis scores for V1 vs V2, symptoms, confidence and impact).
//!
//! Run with `cargo run --release --example san_misconfiguration`.

use diads::core::{DiagnosisCache, DiagnosisWorkflow, Testbed};
use diads::inject::scenarios::{scenario_1, ScenarioTimeline};
use diads::monitor::{ComponentId, MetricName};

fn main() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let workflow = DiagnosisWorkflow::new();
    // One scoring cache threads through every module: each variable's satisfactory
    // history is fitted once across the whole drill-down.
    let mut cache = DiagnosisCache::new();

    println!("== Annotated Plan Graph ==\n{}", apg.render());

    let pd = workflow.plan_diffing(&ctx);
    println!("== Module PD ==\nsame plan: {}\n", pd.same_plan);

    let cos = workflow.correlated_operators(&ctx, &mut cache);
    println!("== Module CO == (threshold 0.8)");
    for (op, score) in &cos.scores {
        if *score >= 0.5 {
            println!(
                "  {op}: {score:.3}{}",
                if cos.correlated.contains(op) { "  <-- correlated" } else { "" }
            );
        }
    }

    let da = workflow.dependency_analysis(&ctx, &cos, &mut cache);
    println!("\n== Module DA == (write metrics of the two pools)");
    for (component, metric) in [
        (ComponentId::pool("P1"), MetricName::WriteIo),
        (ComponentId::pool("P1"), MetricName::WriteTime),
        (ComponentId::pool("P2"), MetricName::WriteIo),
        (ComponentId::pool("P2"), MetricName::WriteTime),
    ] {
        if let Some(score) = da.score_of(&component, &metric) {
            println!("  {component} {metric}: {score:.3}");
        }
    }
    println!(
        "  correlated components: {:?}",
        da.correlated_components.iter().map(|c| c.to_string()).collect::<Vec<_>>()
    );

    let cr = workflow.record_counts(&ctx, &cos, &mut cache);
    println!("\n== Module CR ==\nrecord-count changes: {:?}", cr.changed);

    let sd = workflow.symptoms(&ctx, &pd, &cos, &da, &cr);
    println!("\n== Module SD ==");
    for symptom in &sd.symptoms {
        println!("  symptom: {:?} — {}", symptom.kind, symptom.detail);
    }
    for cause in sd.causes.iter().take(4) {
        println!(
            "  cause: [{:<6}] {:>5.1}%  {}",
            cause.confidence.label(),
            cause.confidence_score,
            cause.cause_id
        );
    }

    let ia = workflow.impact_analysis(&ctx, &cos, &da, &cr, &sd);
    println!("\n== Module IA ==");
    for impact in &ia.impacts {
        println!("  {}: {:.1}% of the slowdown", impact.cause_id, impact.impact_pct);
    }
}
