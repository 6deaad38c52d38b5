//! Turns traced spans and the counters the program returns
//! (`StageProvenance`, `EngineStats`, `RemediationPlan`) into per-layer metrics.

use diads_core::{DiagnosisReport, RemediationPlan};

use crate::metrics::{mean, median, ratio, RunResult};
use crate::trace::Tracer;

/// Span name → per-layer metric holding the median span duration.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("core.pipeline.pd", "core.pipeline.pd_ms"),
    ("core.pipeline.co", "core.pipeline.co_ms"),
    ("core.pipeline.da", "core.pipeline.da_ms"),
    ("core.pipeline.cr", "core.pipeline.cr_ms"),
    ("core.pipeline.sd", "core.pipeline.sd_ms"),
    ("core.pipeline.ia", "core.pipeline.ia_ms"),
    ("core.engine.diagnose", "core.engine.diagnose_ms"),
    ("core.engine.diagnose_incremental", "core.engine.diagnose_ms"),
    ("core.apg.build", "core.apg.build_ms"),
    ("core.testbed.all_events", "core.testbed.all_events_ms"),
    ("core.planner.plan", "core.planner.plan_ms"),
    ("core.planner.candidates", "core.planner.candidates_ms"),
    ("db.execute_once", "db.execute_once_ms"),
    ("monitor.ingest", "monitor.ingest_ms"),
    ("monitor.seal_watermark", "monitor.seal_ms"),
    ("monitor.delta_since", "monitor.delta_since_ms"),
    ("monitor.content_fingerprint", "monitor.content_fingerprint_ms"),
    ("setup.simulate", "setup.simulate_ms"),
];

/// Child spans of a diagnose span, one per stage execution, from the
/// durations the report's provenance carries.
pub fn stage_spans(report: &DiagnosisReport) -> Vec<(&'static str, u64)> {
    report
        .provenance
        .stages
        .iter()
        .filter_map(|s| {
            let name = match s.stage.as_str() {
                "PD" => "core.pipeline.pd",
                "CO" => "core.pipeline.co",
                "DA" => "core.pipeline.da",
                "CR" => "core.pipeline.cr",
                "SD" => "core.pipeline.sd",
                "IA" => "core.pipeline.ia",
                _ => return None,
            };
            Some((name, s.elapsed_nanos))
        })
        .collect()
}

/// Per-op counters of the traced ops.
#[derive(Debug, Default)]
pub struct LayerSamples {
    kde_fits: Vec<f64>,
    kde_hits: Vec<f64>,
    stages: u64,
    reused: u64,
    warm: Vec<f64>,
    fallbacks: Vec<f64>,
    evictions: u64,
    whatif_evals: Vec<f64>,
    whatif_failed: Vec<f64>,
    ingest_points: Vec<f64>,
}

impl LayerSamples {
    /// Counters of one diagnosis.
    pub fn report(&mut self, report: &DiagnosisReport) {
        let stages = &report.provenance.stages;
        self.kde_fits.push(stages.iter().map(|s| s.cache_misses).sum::<u64>() as f64);
        self.kde_hits.push(stages.iter().map(|s| s.cache_hits).sum::<u64>() as f64);
        self.stages += stages.len() as u64;
        self.reused += stages.iter().filter(|s| s.reused).count() as u64;
        self.warm.push(f64::from(u8::from(report.provenance.engine.is_some_and(|e| e.warm))));
    }

    /// LRU evictions an engine made while serving the traced ops.
    pub fn evictions(&mut self, evictions: u64) {
        self.evictions += evictions;
    }

    /// An incremental diagnosis that fell back to a cold run.
    pub fn fallback(&mut self, fell_back: bool) {
        self.fallbacks.push(f64::from(u8::from(fell_back)));
    }

    pub fn plan(&mut self, plan: &RemediationPlan) {
        self.whatif_evals.push((plan.ranked.len() + plan.failed.len()) as f64);
        self.whatif_failed.push(plan.failed.len() as f64);
    }

    pub fn ingested(&mut self, points: usize) {
        self.ingest_points.push(points as f64);
    }

    /// Writes every per-layer metric the trace and the counters support.
    pub fn finish(&self, tracer: &Tracer, result: &mut RunResult) {
        for (span, metric) in SPAN_METRICS {
            let durations = tracer.durations_ms(span);
            if !durations.is_empty() {
                result.layers.insert(metric, median(&durations));
            }
        }
        // The diagnose span minus the stage spans under it.
        for span in ["core.engine.diagnose", "core.engine.diagnose_incremental"] {
            let unattributed = tracer.self_times_ms(span);
            if !unattributed.is_empty() {
                result.layers.insert("core.engine.unattributed_ms", median(&unattributed));
            }
        }
        let mut put = |name: &'static str, values: &[f64], f: fn(&[f64]) -> f64| {
            if !values.is_empty() {
                result.layers.insert(name, f(values));
            }
        };
        put("stats.kde_fits", &self.kde_fits, mean);
        put("stats.kde_hits", &self.kde_hits, mean);
        put("core.engine.warm_hit_rate", &self.warm, mean);
        put("core.engine.fallback_ratio", &self.fallbacks, mean);
        put("core.planner.whatif_evals", &self.whatif_evals, mean);
        put("core.planner.whatif_failed", &self.whatif_failed, mean);
        put("monitor.ingest_points", &self.ingest_points, mean);
        if self.stages > 0 {
            let (hits, fits): (f64, f64) = (self.kde_hits.iter().sum(), self.kde_fits.iter().sum());
            result.layers.insert("stats.kde_hit_ratio", ratio(hits, hits + fits));
            result.layers.insert("core.pipeline.reused_ratio", ratio(self.reused as f64, self.stages as f64));
        }
        if !self.warm.is_empty() {
            result.layers.insert("core.engine.evictions", self.evictions as f64);
        }
    }
}
