//! Self-test of the benchmark at tiny sizes (`--smoke`): every metric that
//! `BENCHMARK.json` declares is printed, with its unit, for every workload in
//! both modes; the correctness checks ran and held; and the path-evidence
//! conditions hold (`periodic` executes stages, `service` diagnoses).

use std::path::{Path, PathBuf};
use std::process::Command;

use diads_core::jsonio::Json;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repository").to_path_buf()
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one smoke invocation; returns all stdout lines and the parsed result.
fn run(workload: &str, trace: bool) -> (Vec<String>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0.5",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--smoke")
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<String> = stdout.lines().map(String::from).collect();
    let last = lines.last().expect("a result line").clone();
    (lines, Json::parse(&last).expect("the last line is JSON"))
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap()
}

fn check_run(workload: &str, trace: bool) -> Json {
    let doc = declared();
    let (lines, result) = run(workload, trace);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{workload}: {lines:#?}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(lines.iter().any(|l| l.starts_with("environment {")), "{workload}: no environment block");
    let checks = lines.iter().find(|l| l.starts_with("checks {")).expect("a checks line");
    assert!(checks.contains("\"run\": ") && !checks.contains("\"run\": 0,"), "{workload}: {checks}");
    assert!(lines.iter().any(|l| l.starts_with("error_rate ")));
    let expected = names(&doc, if trace { "per_layer" } else { "end_to_end" });
    let metrics = result.get("metrics").expect("metrics");
    for (name, unit) in &expected {
        let m = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert!(m.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite), "{workload}: {name}");
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{workload}: {name} unit");
    }
    if !trace {
        assert!(lines.iter().any(|l| l.starts_with("samples {")), "{workload}: no sample counts");
        for (name, _) in &expected {
            assert!(metric(&result, name) > 0.0, "{workload}: end-to-end {name} must not be 0");
        }
    }
    result
}

#[test]
fn triage_prints_every_metric() {
    check_run("triage", false);
    let traced = check_run("triage", true);
    assert!(metric(&traced, "core.planner.whatif_evals") > 0.0);
    assert!(metric(&traced, "stats.kde_fits") > 0.0);
}

#[test]
fn periodic_prints_every_metric_and_executes_stages() {
    check_run("periodic", false);
    let traced = check_run("periodic", true);
    assert!(metric(&traced, "core.pipeline.reused_ratio") < 1.0, "periodic must reach the stage loop");
    assert!(metric(&traced, "core.pipeline.da_ms") > 0.0);
    assert!(metric(&traced, "monitor.ingest_points") > 0.0);
    let fallback = metric(&traced, "core.engine.fallback_ratio");
    assert!((0.0..=1.0).contains(&fallback));
}

#[test]
fn service_prints_every_metric_and_diagnoses() {
    check_run("service", false);
    let traced = check_run("service", true);
    assert!(metric(&traced, "service.diagnosed_ratio") > 0.0, "service must diagnose some cycles");
    assert!(metric(&traced, "service.events_published") > 0.0);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in
        [&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..], &["--seed", "1"][..]]
    {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench")).args(args).output().expect("run perfbench");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
