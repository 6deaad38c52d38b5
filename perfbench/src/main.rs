//! The DIADS benchmark: one command that runs a named workload from a seed,
//! checks every diagnosis it makes, and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload triage|periodic|service --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with tracing off.
//! `--trace 1` records spans around the calls into each layer and prints the
//! per-layer metrics, a self-time breakdown against the op span, and writes
//! the spans to `$CARGO_TARGET_DIR/perfbench-traces/` (default `.bench_build`).
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Inputs come only from `diads_gen::Generator::new(seed, TimelineKind::Paper)`.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod layers;
mod metrics;
mod periodic;
mod service;
mod setup;
mod trace;
mod triage;

use std::fmt::Write as _;
use std::process::ExitCode;

use metrics::{median, peak_rss_mb, RunResult, END_TO_END, PER_LAYER};
use setup::Config;
use trace::Tracer;

const WORKLOADS: &[&str] = &["triage", "periodic", "service"];

struct Args {
    workload: String,
    config: Config,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1> [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let config = Config {
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    };
    Ok(Args { workload, config })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = args.config;
    let mut tracer = Tracer::new(cfg.trace);
    let mut result = match args.workload.as_str() {
        "triage" => triage::run(&cfg, &mut tracer),
        "periodic" => periodic::run(&cfg, &mut tracer),
        "service" => service::run(&cfg, &mut tracer),
        _ => unreachable!("workload validated by parse_args"),
    };

    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("environment {}", environment(&cfg));
    for (key, value) in &result.notes {
        println!("note {key}={value}");
    }
    let checks_ok = print_checks(&result);

    let op = result.op.expect("every workload measures ops");
    let stale = result.staleness.expect("every workload measures staleness");
    println!(
        "samples {{\"op_p50_ms\": {}, \"op_tail_ms\": {{\"percentile\": {}, \"samples\": {}}}, \"staleness_p50_ms\": {}, \"setup_s\": {}}}",
        op.samples,
        op.tail_percentile,
        op.samples,
        stale.samples,
        result.setup_s.len()
    );
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if cfg.trace {
        print_breakdown(&tracer);
        result.layers.insert("bench.op_p99_ms", op.p99);
        result.layers.insert("bench.staleness_p99_ms", stale.p99);
        let mut off_path = Vec::new();
        for (name, unit) in PER_LAYER {
            let value = result.layers.get(name).copied().unwrap_or_else(|| {
                off_path.push(*name);
                0.0
            });
            metrics.push((name, value, unit));
        }
        println!("off_path {}", json_strings(&off_path));
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
        let path = std::path::Path::new(&dir)
            .join("perfbench-traces")
            .join(format!("{}-seed{}.jsonl", args.workload, cfg.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("trace {} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => println!("trace not written to {}: {e}", path.display()),
        }
    } else {
        let values = [median(&result.setup_s), op.p50, op.tail, result.ops_per_s, stale.p50, peak_rss_mb()];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    let all_finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !all_finite {
        println!("error: a metric is not a finite number");
    }
    let correct = checks_ok && result.failed == 0 && result.attempted > 0 && all_finite;
    println!("{}", result_line(correct, &result, &metrics));
    ExitCode::SUCCESS
}

/// Prints the correctness checks that ran and `error_rate`; true when all held.
fn print_checks(result: &RunResult) -> bool {
    let mut line = String::from("checks {");
    for (i, c) in result.checks.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(line, "{sep}\"{}\": {{\"run\": {}, \"failed\": {}}}", c.name, c.run, c.failed);
    }
    line.push('}');
    println!("{line}");
    let error_rate = metrics::ratio(result.failed as f64, result.attempted as f64);
    println!("error_rate {error_rate} ({} failed of {} attempted ops)", result.failed, result.attempted);
    !result.checks.is_empty() && result.checks.iter().all(|c| c.run > 0 && c.failed == 0)
}

/// Self time of each layer under the op spans, against the op total; the
/// op's own self time is the part no layer span covers.
fn print_breakdown(tracer: &Tracer) {
    let (total, by_name) = tracer.breakdown("op");
    println!("breakdown self time under op spans (total {total:.3} ms):");
    let mut rows: Vec<(&str, f64)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ms) in rows {
        let label = if name == "op" { "op (unattributed)" } else { name };
        println!("  {label:<40} {ms:>12.3} ms {:>6.1}%", 100.0 * metrics::ratio(ms, total));
    }
}

fn json_strings(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    format!("[{}]", quoted.join(", "))
}

fn result_line(correct: bool, result: &RunResult, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite values are not JSON numbers; `correct` is already false.
            let v = if value.is_finite() { format!("{value}") } else { "null".to_string() };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.attempted,
        result.failed,
        body.join(", ")
    )
}

/// Where and how the numbers were produced.
fn environment(cfg: &Config) -> String {
    let nproc = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"available_parallelism\": {parallelism}, \"features\": \"default\", \"parallel_feature\": false, \"profile\": \"{}\", \"seed\": {}, \"seconds\": {}, \"setups\": {}, \"git_revision\": \"{}\", \"source_fnv\": \"{:016x}\"}}",
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cfg.seed,
        cfg.seconds,
        cfg.setups(),
        git_revision(),
        source_fingerprint(),
    )
}

/// `git rev-parse HEAD` of the working directory, never looking above it.
fn git_revision() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_ref().and_then(|d| d.parent()).map(|p| p.to_path_buf()).unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".to_string(), |s| s.trim().to_string())
}

/// FNV-1a over the workspace sources the benchmark builds (`Cargo.toml`,
/// `Cargo.lock` and every file under `crates/`), in path order: identifies
/// the code revision in a checkout without git metadata.
fn source_fingerprint() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![std::path::PathBuf::from("Cargo.toml"), std::path::PathBuf::from("Cargo.lock")];
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
