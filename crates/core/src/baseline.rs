//! The silo-based comparison tools of Section 5's discussion.
//!
//! "Unlike DIADS, a SAN-only diagnosis tool may spot higher I/O loads in both V1 and V2
//! and attribute both of these as potential root causes. Even worse, the tool may give
//! more importance to V2 because most of the data is on V2. A database-only tool can
//! pinpoint the slowdown in the operators, but it would likely give several false
//! positives like a suboptimal buffer pool setting or a suboptimal choice of execution
//! plan." These two baselines implement exactly those behaviours so the `table1`
//! harness can print all three verdicts side by side.

use diads_monitor::{ComponentId, ComponentKind, MetricName};
use diads_stats::Kde;

use crate::runs::LabeledRun;
use crate::workflow::DiagnosisContext;

/// A finding produced by one of the silo tools.
#[derive(Debug, Clone, PartialEq)]
pub struct SiloFinding {
    /// The suspected cause, in the tool's own vocabulary.
    pub description: String,
    /// The component blamed, when the tool names one.
    pub subject: Option<ComponentId>,
    /// The tool's own ranking score (higher = more suspicious to that tool).
    pub score: f64,
}

/// A SAN-only diagnosis tool: looks at volume-level metrics in isolation and ranks
/// every volume whose load or response time rose, weighting by how much data (I/O) the
/// volume serves — which is how it ends up preferring V2 over V1.
#[derive(Debug, Default)]
pub struct SanOnlyTool;

impl SanOnlyTool {
    /// Creates the tool.
    pub fn new() -> Self {
        SanOnlyTool
    }

    /// Diagnoses using only the storage metrics.
    pub fn diagnose(&self, ctx: &DiagnosisContext<'_>) -> Vec<SiloFinding> {
        let mut findings = Vec::new();
        let satisfactory = ctx.satisfactory_runs();
        let unsatisfactory = ctx.unsatisfactory_runs();
        for component in ctx.store.components_of_kind(ComponentKind::StorageVolume) {
            let mut worst = 0.0_f64;
            let mut total_io = 0.0_f64;
            for metric in [
                MetricName::ReadTime,
                MetricName::WriteTime,
                MetricName::ReadIo,
                MetricName::WriteIo,
                MetricName::TotalIos,
            ] {
                // One series lookup and one forward walk per run set.
                let series = ctx.store.series(&component, &metric);
                let run_means = |runs: &[&LabeledRun]| -> Vec<f64> {
                    series.map_or_else(Vec::new, |s| {
                        s.means_in(runs.iter().map(|r| r.record.window())).flatten().collect()
                    })
                };
                let sat = run_means(&satisfactory);
                let unsat = run_means(&unsatisfactory);
                if sat.len() >= 3 && !unsat.is_empty() {
                    if let Ok(kde) = Kde::fit(&sat) {
                        let score = kde.anomaly_score(unsat.iter().sum::<f64>() / unsat.len() as f64);
                        worst = worst.max(score);
                    }
                }
                if metric == MetricName::TotalIos {
                    total_io = unsat.iter().sum::<f64>().max(sat.iter().sum::<f64>());
                }
            }
            if worst >= 0.7 {
                findings.push(SiloFinding {
                    description: format!("I/O load or response time increased on {component}"),
                    subject: Some(component),
                    // The silo tool weighs "importance" by how much I/O the volume serves.
                    score: worst * (1.0 + total_io.log10().max(0.0)),
                });
            }
        }
        findings.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        findings
    }
}

/// A database-only diagnosis tool: sees slow operators, the buffer-cache counters and
/// the plan, and nominates the usual database-level suspects without any visibility
/// into the SAN.
#[derive(Debug, Default)]
pub struct DbOnlyTool;

impl DbOnlyTool {
    /// Creates the tool.
    pub fn new() -> Self {
        DbOnlyTool
    }

    /// Diagnoses using only database-level observations.
    pub fn diagnose(&self, ctx: &DiagnosisContext<'_>) -> Vec<SiloFinding> {
        let mut findings = Vec::new();
        let satisfactory = ctx.satisfactory_runs();
        let unsatisfactory = ctx.unsatisfactory_runs();

        // Slow operators (it can see these precisely).
        let mut slow_ops = Vec::new();
        for op in ctx.apg.plan.operators() {
            let sat: Vec<f64> = satisfactory
                .iter()
                .filter_map(|r| r.record.operator(op.id).map(|o| o.elapsed_secs))
                .collect();
            let unsat: Vec<f64> = unsatisfactory
                .iter()
                .filter_map(|r| r.record.operator(op.id).map(|o| o.elapsed_secs))
                .collect();
            if sat.len() >= 3 && !unsat.is_empty() {
                if let Ok(kde) = Kde::fit(&sat) {
                    if kde.anomaly_score(unsat.iter().sum::<f64>() / unsat.len() as f64) >= 0.8 {
                        slow_ops.push(op.id.to_string());
                    }
                }
            }
        }
        if !slow_ops.is_empty() {
            findings.push(SiloFinding {
                description: format!(
                    "operators {} slowed down; consider a suboptimal execution plan",
                    slow_ops.join(", ")
                ),
                subject: None,
                score: 0.9,
            });
            findings.push(SiloFinding {
                description: "I/O-bound operators slowed down; consider increasing shared_buffers (suboptimal buffer pool setting)".into(),
                subject: None,
                score: 0.7,
            });
        }

        // Lock waits (it can see these too).
        let lock_unsat: Vec<f64> = unsatisfactory
            .iter()
            .filter_map(|r| {
                r.record.db_metrics.iter().find(|(m, _)| *m == MetricName::LockWaitTime).map(|(_, v)| *v)
            })
            .collect();
        if !lock_unsat.is_empty() && lock_unsat.iter().sum::<f64>() / lock_unsat.len() as f64 > 10.0 {
            findings.push(SiloFinding {
                description: "significant lock waits observed".into(),
                subject: None,
                score: 0.85,
            });
        }

        // Record-count drift.
        let drift = ctx.apg.plan.leaves().iter().any(|leaf| {
            let sat: Vec<f64> = satisfactory
                .iter()
                .filter_map(|r| r.record.operator(leaf.id).map(|o| o.actual_rows))
                .collect();
            let unsat: Vec<f64> = unsatisfactory
                .iter()
                .filter_map(|r| r.record.operator(leaf.id).map(|o| o.actual_rows))
                .collect();
            !sat.is_empty()
                && !unsat.is_empty()
                && (unsat.iter().sum::<f64>() / unsat.len() as f64)
                    > 1.2 * (sat.iter().sum::<f64>() / sat.len() as f64)
        });
        if drift {
            findings.push(SiloFinding {
                description: "table statistics appear stale (row counts changed); run ANALYZE".into(),
                subject: None,
                score: 0.8,
            });
        }

        findings.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
        findings
    }
}
