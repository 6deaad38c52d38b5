//! The diagnosis property oracles.
//!
//! Two properties, checked against the full ranked-cause list of a
//! [`DiagnosisReport`]:
//!
//! * **completeness** — every cause the plan expects (one per injected fault
//!   kind, at the confidence the generator's policy assigns) is present at or
//!   above that confidence; High expectations additionally demand the
//!   handcrafted matrix's ≥ 25 % impact bar (`tests/scenarios.rs`).
//! * **soundness** — no cause is reported High-confidence at ≥ 50 % impact
//!   (the bar the handcrafted scenarios use for *rejected* causes) unless an
//!   injected fault explains it, directly or through the vocabulary's
//!   `also_explains` (a SAN misconfiguration *is* external contention on the
//!   database volume's disks).

use diads_core::{ConfidenceLevel, DiagnosisReport, Testbed};
use diads_inject::vocabulary::kind_info;

use crate::plan::GenPlan;

/// Impact bar (percent) a High-confidence expectation must also clear.
pub(crate) const PRIMARY_IMPACT_PCT: f64 = 25.0;
/// Impact bar (percent) above which an unexplained High-confidence cause is
/// spurious.
pub(crate) const SPURIOUS_IMPACT_PCT: f64 = 50.0;

/// One oracle violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Completeness: an expected cause is missing or under-confident.
    MissingCause {
        /// The expected cause id.
        cause_id: String,
        /// The confidence it had to reach.
        required: ConfidenceLevel,
        /// What the report actually said (`None` when absent entirely).
        got: Option<(ConfidenceLevel, f64)>,
    },
    /// Soundness: a high-confidence, high-impact cause no injected fault explains.
    SpuriousCause {
        /// The offending cause id.
        cause_id: String,
        /// Its impact (percent).
        impact_pct: f64,
    },
}

impl Violation {
    /// A stable, report-independent signature for bugbase comparison
    /// (`missing:<cause>` / `spurious:<cause>`).
    pub fn signature(&self) -> String {
        match self {
            Violation::MissingCause { cause_id, .. } => format!("missing:{cause_id}"),
            Violation::SpuriousCause { cause_id, .. } => format!("spurious:{cause_id}"),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::MissingCause { cause_id, required, got } => match got {
                None => write!(f, "completeness: expected cause {cause_id:?} (>= {required:?}) is absent"),
                Some((level, impact)) => write!(
                    f,
                    "completeness: expected cause {cause_id:?} >= {required:?}, got {level:?} at {impact:.1}% impact"
                ),
            },
            Violation::SpuriousCause { cause_id, impact_pct } => write!(
                f,
                "soundness: cause {cause_id:?} is High-confidence at {impact_pct:.1}% impact but no injected fault explains it"
            ),
        }
    }
}

/// The result of running a plan through the testbed and the oracles.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// The diagnosis report the plan's scenario produced.
    pub report: DiagnosisReport,
    /// Oracle violations (empty = the plan passes).
    pub violations: Vec<Violation>,
}

impl OracleOutcome {
    /// Whether both properties held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Sorted violation signatures (the bugbase's comparison key).
    pub fn signatures(&self) -> Vec<String> {
        let mut sigs: Vec<String> = self.violations.iter().map(Violation::signature).collect();
        sigs.sort();
        sigs.dedup();
        sigs
    }
}

/// Checks both properties of `report` against `plan` (pure; no simulation).
pub fn evaluate(plan: &GenPlan, report: &DiagnosisReport) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Completeness. The ≥ 25 % impact bar only binds when a single fault owns
    // the slowdown: in compound plans impact analysis apportions blame across
    // the co-occurring faults, so any share is acceptable (the handcrafted
    // compound scenarios' PR-7 pins likewise only constrain confidence).
    let impact_bar = if plan.overlays.len() == 1 { PRIMARY_IMPACT_PCT } else { 0.0 };
    for expectation in &plan.expected {
        let found = report.causes.iter().find(|c| c.cause_id == expectation.cause_id);
        let ok = match found {
            Some(cause) => {
                cause.confidence >= expectation.min_confidence
                    && (expectation.min_confidence < ConfidenceLevel::High || cause.impact_pct >= impact_bar)
            }
            None => false,
        };
        if !ok {
            violations.push(Violation::MissingCause {
                cause_id: expectation.cause_id.clone(),
                required: expectation.min_confidence,
                got: found.map(|c| (c.confidence, c.impact_pct)),
            });
        }
    }

    // Soundness: collect everything the injected faults explain.
    let mut explained: Vec<&str> = Vec::new();
    for overlay in &plan.overlays {
        if let Some(info) = kind_info(&overlay.kind) {
            explained.push(info.cause_id);
            explained.extend(info.also_explains);
        }
    }
    for cause in &report.causes {
        if cause.confidence == ConfidenceLevel::High
            && cause.impact_pct >= SPURIOUS_IMPACT_PCT
            && !explained.iter().any(|id| *id == cause.cause_id)
        {
            violations.push(Violation::SpuriousCause {
                cause_id: cause.cause_id.clone(),
                impact_pct: cause.impact_pct,
            });
        }
    }

    violations
}

/// Runs the plan's scenario end to end on a fresh [`Testbed`] and checks both
/// properties. Fully deterministic: the same plan always yields the same report
/// and the same violations.
pub fn check_plan(plan: &GenPlan) -> OracleOutcome {
    let scenario = plan.to_scenario();
    let outcome = Testbed::run_scenario(&scenario);
    let report = outcome.diagnose();
    let violations = evaluate(plan, &report);
    OracleOutcome { report, violations }
}
