//! Regenerates **Table 1**: the five problem-injection scenarios, the verdict DIADS
//! reaches for each, the critical module the paper attributes the result to, and — for
//! the Section-5 discussion — what the SAN-only and DB-only silo tools would have said.
//!
//! Run with `cargo run --release -p diads-bench --bin table1_scenarios`.

use diads_bench::harness::{diagnose, heading};
use diads_core::baseline::{DbOnlyTool, SanOnlyTool};
use diads_core::{ConfidenceLevel, Testbed};
use diads_inject::scenarios::{scenario_1, scenario_2, scenario_3, scenario_4, scenario_5, ScenarioTimeline};

fn main() {
    let timeline = ScenarioTimeline::paper_default();
    let scenarios = [
        scenario_1(timeline),
        scenario_2(timeline),
        scenario_3(timeline),
        scenario_4(timeline),
        scenario_5(timeline),
    ];

    heading("Table 1: problem scenarios of increasing complexity");
    for (i, scenario) in scenarios.iter().enumerate() {
        let outcome = Testbed::run_scenario(scenario);
        let report = diagnose(&outcome);

        println!("\n--- Scenario {} ({}) ---", i + 1, scenario.id);
        println!("Problem: {}", scenario.name);
        println!("Critical role of DIADS modules (paper): {}", scenario.critical_modules);
        println!(
            "Observed slowdown: {:.0}s -> {:.0}s ({:+.0}%)",
            report.satisfactory_mean_secs,
            report.unsatisfactory_mean_secs,
            report.relative_slowdown() * 100.0
        );
        println!("DIADS verdict (confidence, impact):");
        for cause in report.causes.iter().filter(|c| c.confidence != ConfidenceLevel::Low) {
            println!(
                "    [{:<6}] {:>5.1}% conf, {:>5.1}% impact  {}",
                cause.confidence.label(),
                cause.confidence_score,
                cause.impact_pct,
                cause.cause_id
            );
        }
        let expected_found =
            scenario.expected.primary_causes.iter().all(|e| {
                report.causes.iter().any(|c| &c.cause_id == e && c.confidence == ConfidenceLevel::High)
            });
        println!(
            "Expected root cause(s) identified with high confidence: {}",
            if expected_found { "YES" } else { "NO" }
        );

        // Silo-tool comparison (Section 5 discussion).
        let apg = outcome.apg();
        let events = outcome.testbed.all_events();
        let ctx = outcome.context(&apg, &events);
        let san_only = SanOnlyTool::new().diagnose(&ctx);
        let db_only = DbOnlyTool::new().diagnose(&ctx);
        println!("SAN-only tool would report:");
        for f in san_only.iter().take(3) {
            println!("    {}", f.description);
        }
        println!("DB-only tool would report:");
        for f in db_only.iter().take(3) {
            println!("    {}", f.description);
        }
    }
}
