//! Text renderings of the DIADS user interface (Figures 3, 6 and 7).
//!
//! The paper's prototype has three GUI screens: a query-selection table listing every
//! execution with its plan, timings and an "unsatisfactory" checkbox (Figure 3); an APG
//! visualization with a metric table for any selected component (Figure 6); and the
//! interactive workflow screen showing per-module results (Figure 7). The reproduction
//! renders the same content as plain text so the demo scenarios are scriptable.

use diads_monitor::{ComponentId, MetricStore, TimeRange};

use crate::apg::Apg;
use crate::runs::RunHistory;
use crate::session::WorkflowSession;

/// The query-selection screen (Figure 3): one row per execution with plan, start/end
/// time, duration in minutes and the unsatisfactory mark.
pub fn query_selection_screen(query: &str, history: &RunHistory) -> String {
    let mut out = String::new();
    out.push_str(&format!("Query executions for: {query}\n"));
    out.push_str(&format!(
        "{:<5} {:<22} {:>12} {:>12} {:>10}  {}\n",
        "Run", "Plan", "Start", "End", "Duration", "Unsatisfactory"
    ));
    for run in &history.runs {
        out.push_str(&format!(
            "{:<5} {:<22} {:>12} {:>12} {:>8.1}m  [{}]\n",
            run.index,
            run.record.plan_name,
            run.record.start.to_string(),
            run.record.end.to_string(),
            run.record.elapsed_secs / 60.0,
            if run.satisfactory { " " } else { "x" }
        ));
    }
    out
}

/// The APG-visualization screen (Figure 6): the APG tree on the left and, for a selected
/// component, the time series of its metrics within a window on the right.
pub fn apg_visualization_screen(
    apg: &Apg,
    store: &MetricStore,
    selected: &ComponentId,
    window: TimeRange,
) -> String {
    let mut out = apg.render();
    out.push_str(&format!("\nPerformance metrics for {selected} in {window}:\n"));
    let metrics = store.metrics_of(selected);
    if metrics.is_empty() {
        out.push_str("  (no metrics recorded)\n");
        return out;
    }
    for metric in metrics {
        let points = store.points_in(selected, &metric, window);
        if points.is_empty() {
            continue;
        }
        let mean = points.iter().map(|p| p.value).sum::<f64>() / points.len() as f64;
        let max = points.iter().map(|p| p.value).fold(f64::MIN, f64::max);
        out.push_str(&format!(
            "  {:<22} samples={:<4} mean={:<12.3} max={:.3}\n",
            metric.to_string(),
            points.len(),
            mean,
            max
        ));
    }
    out
}

/// The workflow-execution screen (Figure 7): which of the six stages have run and the
/// result panel of the most advanced module.
pub fn workflow_screen(session: &WorkflowSession<'_>) -> String {
    let mut out = String::new();
    out.push_str("DIADS workflow: ");
    for (stage, done) in session.stage_progress() {
        if done {
            out.push_str(&format!("[{stage}*] "));
        } else {
            out.push_str(&format!("[{stage} ] "));
        }
    }
    out.push('\n');

    let state = session.state();
    out.push_str("Result panel:\n");
    if let Some(ia) = &state.ia {
        out.push_str("  Impact Analysis:\n");
        for impact in &ia.impacts {
            out.push_str(&format!(
                "    {:<38} impact {:>5.1}% (operators: {})\n",
                impact.cause_id,
                impact.impact_pct,
                impact.affected_operators.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(", ")
            ));
        }
    } else if let Some(sd) = &state.sd {
        out.push_str("  Symptoms Database:\n");
        for cause in sd.causes.iter().take(5) {
            out.push_str(&format!(
                "    [{:<6}] {:>5.1}%  {}\n",
                cause.confidence.label(),
                cause.confidence_score,
                cause.cause_id
            ));
        }
    } else if let Some(cr) = &state.cr {
        out.push_str(&format!(
            "  Correlated Record-counts: {}\n",
            if cr.changed.is_empty() {
                "no significant record-count changes".to_string()
            } else {
                cr.changed.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(", ")
            }
        ));
    } else if let Some(da) = &state.da {
        out.push_str("  Dependency Analysis (correlated components):\n");
        for c in &da.correlated_components {
            out.push_str(&format!("    {c}\n"));
        }
    } else if let Some(cos) = &state.cos {
        out.push_str(&format!(
            "  Correlated Operators: {}\n",
            cos.correlated.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(", ")
        ));
    } else if let Some(pd) = &state.pd {
        out.push_str(&format!(
            "  Plan Diffing: {}\n",
            if pd.same_plan { "same plan in both periods" } else { "plans differ" }
        ));
    } else {
        out.push_str("  (no module executed yet)\n");
    }
    out
}
