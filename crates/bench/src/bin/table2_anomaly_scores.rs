//! Regenerates **Table 2**: the anomaly scores dependency analysis computes for the
//! write metrics of volumes V1 and V2, without and with the bursty extra load on V2.
//!
//! The paper reports the `writeIO` and `writeTime` counters of the two volumes; the
//! simulated controller exposes the same counters at both the volume (front-end) and
//! pool (back-end) level, and the table prints both so the contention on V1's spindles
//! (pool P1, caused by the interloper volume V') is visible exactly where it physically
//! happens.
//!
//! Run with `cargo run --release -p diads-bench --bin table2_anomaly_scores`.

use diads_bench::harness::heading;
use diads_core::{DiagnosisCache, DiagnosisWorkflow, Testbed};
use diads_inject::scenarios::{scenario_1, scenario_1b, ScenarioTimeline};
use diads_monitor::{ComponentId, MetricName};

fn scores_for(scenario: &diads_inject::Scenario) -> Vec<((&'static str, &'static str), f64)> {
    let outcome = Testbed::run_scenario(scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let workflow = DiagnosisWorkflow::new();
    let mut cache = DiagnosisCache::new();
    let cos = workflow.correlated_operators(&ctx, &mut cache);
    // Score every component (pruning off) so both volumes appear even when only one is
    // on the correlated operators' paths.
    let mut unpruned = DiagnosisWorkflow::new();
    unpruned.prune_by_dependency_paths = false;
    let da = unpruned.dependency_analysis(&ctx, &cos, &mut cache);

    let rows = [
        (("V1 (volume)", "writeIO"), ComponentId::volume("V1"), MetricName::WriteIo),
        (("V1 (volume)", "writeTime"), ComponentId::volume("V1"), MetricName::WriteTime),
        (("V1 (pool P1)", "writeIO"), ComponentId::pool("P1"), MetricName::WriteIo),
        (("V1 (pool P1)", "writeTime"), ComponentId::pool("P1"), MetricName::WriteTime),
        (("V2 (volume)", "writeIO"), ComponentId::volume("V2"), MetricName::WriteIo),
        (("V2 (volume)", "writeTime"), ComponentId::volume("V2"), MetricName::WriteTime),
        (("V2 (pool P2)", "writeIO"), ComponentId::pool("P2"), MetricName::WriteIo),
        (("V2 (pool P2)", "writeTime"), ComponentId::pool("P2"), MetricName::WriteTime),
    ];
    rows.iter()
        .map(|(label, component, metric)| (*label, da.score_of(component, metric).unwrap_or(f64::NAN)))
        .collect()
}

fn main() {
    let timeline = ScenarioTimeline::paper_default();
    let without_v2 = scores_for(&scenario_1(timeline));
    let with_v2 = scores_for(&scenario_1b(timeline));

    heading("Table 2: anomaly scores from dependency analysis (volumes V1 and V2)");
    println!(
        "{:<18} {:<10} {:>28} {:>28}",
        "Volume", "Metric", "Anomaly (no contention in V2)", "Anomaly (contention in V2)"
    );
    for (a, b) in without_v2.iter().zip(&with_v2) {
        println!("{:<18} {:<10} {:>28.3} {:>28.3}", a.0 .0, a.0 .1, a.1, b.1);
    }
    println!("\nPaper's Table 2 for reference:");
    println!("  V1 writeIO  0.894 / 0.894     V1 writeTime 0.823 / 0.823");
    println!("  V2 writeIO  0.063 / 0.512     V2 writeTime 0.479 / 0.879");
}
