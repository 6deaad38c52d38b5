//! Fingerprints mean the same thing in every process.
//!
//! A store's content fingerprint — and with it `ScenarioOutcome::engine_fingerprint`,
//! the key of every engine slot, snapshot entry and watermark — must depend on the
//! recorded content only, never on the order in which the process happened to
//! intern component and metric names. This test re-runs its own binary as a child
//! process that interns extra names first (shifting every symbol number), builds
//! `index_drop_scenario(short)`, and prints the outcome's engine fingerprint, its
//! cold report and the snapshot of the engine that diagnosed it. The parent builds
//! the same scenario in natural intern order and checks that the fingerprints and
//! reports agree and that the child's snapshot restores warm here.

use std::process::Command;

use diads::core::{DiagnosisEngine, DiagnosisReport, Testbed};
use diads::inject::scenarios::{index_drop_scenario, ScenarioTimeline};
use diads::monitor::{ComponentId, Interner, MetricName};

/// Set on the child process: run the child's half and print its results.
const CHILD_MARKER: &str = "DIADS_FINGERPRINT_CHILD";
const TEST_NAME: &str = "fingerprints_and_snapshots_carry_across_processes";

/// The report's JSON with its wall-clock stage timings zeroed.
fn timeless_json(mut report: DiagnosisReport) -> String {
    for stage in &mut report.provenance.stages {
        stage.elapsed_nanos = 0;
    }
    report.to_json()
}

fn child_half() {
    let interner = Interner::global();
    interner.intern_component(&ComponentId::server("intern-order-shift"));
    interner.intern_metric(&MetricName::Custom("internOrderShift".into()));
    let outcome = Testbed::run_scenario(&index_drop_scenario(ScenarioTimeline::short()));
    let engine = DiagnosisEngine::new();
    let report = engine.diagnose(&outcome);
    println!("FINGERPRINT {}", outcome.engine_fingerprint());
    println!("REPORT {}", timeless_json(report));
    println!("SNAPSHOT {}", engine.snapshot(interner));
}

/// The rest of the child's output line after `marker ` (the test harness may print
/// its own progress text ahead of it on the same line).
fn field<'a>(stdout: &'a str, marker: &str) -> &'a str {
    let tag = format!("{marker} ");
    stdout
        .lines()
        .find_map(|line| line.split_once(tag.as_str()).map(|(_, value)| value))
        .unwrap_or_else(|| panic!("child printed no {marker} line:\n{stdout}"))
}

#[test]
fn fingerprints_and_snapshots_carry_across_processes() {
    if std::env::var_os(CHILD_MARKER).is_some() {
        child_half();
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let child = Command::new(exe)
        .args(["--exact", TEST_NAME, "--nocapture", "--test-threads=1"])
        .env(CHILD_MARKER, "1")
        .output()
        .expect("child process must start");
    let stdout = String::from_utf8(child.stdout).expect("utf-8 child output");
    assert!(child.status.success(), "child failed:\n{stdout}\n{}", String::from_utf8_lossy(&child.stderr));

    let outcome = Testbed::run_scenario(&index_drop_scenario(ScenarioTimeline::short()));
    let fingerprint = outcome.engine_fingerprint();
    assert_eq!(
        field(&stdout, "FINGERPRINT"),
        fingerprint.to_string(),
        "the same content must fingerprint the same under another intern order"
    );

    let cold = DiagnosisEngine::new().diagnose(&outcome);
    assert_eq!(
        field(&stdout, "REPORT"),
        timeless_json(cold.clone()),
        "the cold report must be byte-identical under another intern order"
    );

    let restored = DiagnosisEngine::restore(field(&stdout, "SNAPSHOT"), Interner::global())
        .expect("the child's snapshot must restore");
    assert!(restored.is_warm(fingerprint), "the child's slot must be found in this process");
    let report = restored.diagnose(&outcome);
    assert!(report.provenance.engine.as_ref().expect("engine provenance").warm);
    assert_eq!(report, cold, "restored diagnosis must equal batch");
}
