//! The metric catalogue (names and units, mirrored in `BENCHMARK.json`) and the
//! summary statistics every workload reports with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("staleness_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). Times are
/// medians per op, counts are means per op unless the README says otherwise.
/// A layer the workload's ops never call reads 0 and is listed as off-path.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.pipeline.pd_ms", "ms"),
    ("core.pipeline.co_ms", "ms"),
    ("core.pipeline.da_ms", "ms"),
    ("core.pipeline.cr_ms", "ms"),
    ("core.pipeline.sd_ms", "ms"),
    ("core.pipeline.ia_ms", "ms"),
    ("core.pipeline.reused_ratio", "ratio"),
    ("core.engine.diagnose_ms", "ms"),
    ("core.engine.unattributed_ms", "ms"),
    ("core.engine.fallback_ratio", "ratio"),
    ("core.engine.warm_hit_rate", "ratio"),
    ("core.engine.evictions", "count"),
    ("core.apg.build_ms", "ms"),
    ("core.testbed.all_events_ms", "ms"),
    ("core.planner.plan_ms", "ms"),
    ("core.planner.candidates_ms", "ms"),
    ("core.planner.whatif_evals", "count"),
    ("core.planner.whatif_failed", "count"),
    ("db.execute_once_ms", "ms"),
    ("stats.kde_fits", "count"),
    ("stats.kde_hits", "count"),
    ("stats.kde_hit_ratio", "ratio"),
    ("monitor.ingest_ms", "ms"),
    ("monitor.ingest_points", "count"),
    ("monitor.seal_ms", "ms"),
    ("monitor.delta_since_ms", "ms"),
    ("monitor.content_fingerprint_ms", "ms"),
    ("service.diagnosed_ratio", "ratio"),
    ("service.events_published", "count"),
    ("service.drop_ratio", "ratio"),
    ("setup.simulate_ms", "ms"),
    ("bench.op_p99_ms", "ms"),
    ("bench.staleness_p99_ms", "ms"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Nearest-rank percentile (`p` in `[0, 1]`): the smallest sample with at
/// least `ceil(p * n)` samples at or below it. NaN when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Ratio that reads 0 rather than NaN when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A median, the gated tail percentile and p99, with the sample count behind
/// them.
///
/// The tail is p90 where the benchmark holds every op's latency, and p99
/// where the program only reports p50/p99/p999 (`ServiceStats`). On a
/// virtual machine whose vCPUs the host preempts, about 1% of millisecond
/// ops are stretched several times over, so their p99 reads the host, not
/// the program (triage p99 ranged 5–16 ms over five seeds at a steady p50).
/// p99 is still reported, ungated, as a per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Percentiles {
    pub p50: f64,
    pub tail: f64,
    pub tail_percentile: u8,
    pub p99: f64,
    pub samples: usize,
}

/// Time windows a run's op samples are split into; see [`Percentiles::windowed`].
pub const WINDOWS: usize = 5;

impl Percentiles {
    /// Percentiles of samples in the order they were taken: the median over
    /// [`WINDOWS`] consecutive, equal windows of each window's percentile. A
    /// burst of load from elsewhere on the host moves one window's tail, not
    /// the median of all of them.
    pub fn windowed(samples: &[f64]) -> Self {
        let n = samples.len();
        let windows = WINDOWS.min(n.max(1));
        let (mut p50, mut p90, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        for w in 0..windows {
            let window = &samples[w * n / windows..(w + 1) * n / windows];
            p50.push(percentile(window, 0.5));
            p90.push(percentile(window, 0.9));
            p99.push(percentile(window, 0.99));
        }
        Percentiles {
            p50: median(&p50),
            tail: median(&p90),
            tail_percentile: 90,
            p99: median(&p99),
            samples: n,
        }
    }
}

/// One correctness check and how often it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub run: u64,
    pub failed: u64,
}

/// Everything a workload measured in one run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Wall seconds of each repeated set-up.
    pub setup_s: Vec<f64>,
    pub op: Option<Percentiles>,
    pub staleness: Option<Percentiles>,
    pub ops_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Per-layer values (traced runs only); absent names are off-path.
    pub layers: BTreeMap<&'static str, f64>,
    /// Free-form facts printed with the run (path evidence, sizes).
    pub notes: Vec<(String, String)>,
}

impl RunResult {
    /// Records one outcome of a named check; a failing check fails the op.
    pub fn check(&mut self, name: &'static str, ok: bool) {
        let entry = match self.checks.iter_mut().position(|c| c.name == name) {
            Some(i) => &mut self.checks[i],
            None => {
                self.checks.push(Check { name, run: 0, failed: 0 });
                self.checks.last_mut().expect("just pushed")
            }
        };
        entry.run += 1;
        entry.failed += u64::from(!ok);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn windowed_percentiles_ignore_one_noisy_window() {
        let mut s: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        for v in &mut s[..200] {
            *v += 1000.0;
        }
        let p = Percentiles::windowed(&s);
        assert_eq!((p.p50, p.tail, p.p99, p.samples), (49.0, 89.0, 98.0, 1000));
    }

    #[test]
    fn catalogue_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
