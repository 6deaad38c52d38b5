//! Shared helpers for the experiment binaries.

use diads_core::{DiagnosisPipeline, DiagnosisReport, ScenarioOutcome, Testbed};
use diads_inject::Scenario;

/// Runs a scenario end to end and diagnoses it with the default workflow.
pub fn run_and_diagnose(scenario: &Scenario) -> (ScenarioOutcome, DiagnosisReport) {
    let outcome = Testbed::run_scenario(scenario);
    let report = diagnose(&outcome);
    (outcome, report)
}

/// Diagnoses an already-simulated scenario outcome.
pub fn diagnose(outcome: &ScenarioOutcome) -> DiagnosisReport {
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    DiagnosisPipeline::standard().run(&outcome.context(&apg, &events))
}

/// Prints a horizontal rule with a title.
pub fn heading(title: &str) {
    println!("\n{}\n{}", title, "=".repeat(title.len()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use diads_inject::scenarios::{scenario_1, ScenarioTimeline};

    #[test]
    fn harness_round_trips_a_scenario() {
        let (outcome, report) = run_and_diagnose(&scenario_1(ScenarioTimeline::short()));
        assert!(!report.causes.is_empty());
        assert!(outcome.history.relative_slowdown().unwrap() > 0.0);
    }
}
