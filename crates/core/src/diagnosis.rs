//! The final diagnosis report (v2): ranked causes plus machine-readable provenance.
//!
//! A [`DiagnosisReport`] carries two kinds of content:
//!
//! * **findings** — the ranked [`RankedCause`]s and the per-module summaries
//!   (correlated operators/components, record-count changes), each cause with the
//!   evidence trail that produced it;
//! * **provenance** — how the diagnosis was executed: which pipeline stages ran, how
//!   long each took, how many KDE fits were served warm vs. fitted fresh, and whether
//!   the [`crate::engine::DiagnosisEngine`] slot was checked out warm or cold.
//!
//! Findings are deterministic and participate in `PartialEq` (the golden and
//! equivalence suites compare them bit-for-bit); provenance is wall-clock-dependent
//! and explicitly excluded from equality. [`DiagnosisReport::render`] prints the
//! Figure-7 text panel, [`DiagnosisReport::to_json`] emits the whole report —
//! findings *and* provenance — as dependency-free JSON for machine consumers.

use diads_monitor::ComponentId;

/// Confidence category of a root cause (Section 4.1: high ≥ 80 %, medium ≥ 50 %, low otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConfidenceLevel {
    /// Score below 50 %.
    Low,
    /// Score in [50 %, 80 %).
    Medium,
    /// Score of 80 % or more.
    High,
}

impl ConfidenceLevel {
    /// Buckets a confidence score.
    pub fn from_score(score: f64) -> Self {
        if score >= 80.0 {
            ConfidenceLevel::High
        } else if score >= 50.0 {
            ConfidenceLevel::Medium
        } else {
            ConfidenceLevel::Low
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ConfidenceLevel::High => "high",
            ConfidenceLevel::Medium => "medium",
            ConfidenceLevel::Low => "low",
        }
    }
}

impl std::fmt::Display for ConfidenceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A root cause in the final report: confidence from module SD plus impact from module IA.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCause {
    /// The cause's stable identifier.
    pub cause_id: String,
    /// Human-readable description.
    pub description: String,
    /// The component most strongly implicated, if any.
    pub subject: Option<ComponentId>,
    /// Confidence score in `[0, 100]`.
    pub confidence_score: f64,
    /// Confidence category.
    pub confidence: ConfidenceLevel,
    /// Percentage of the query slowdown attributable to this cause (module IA).
    pub impact_pct: f64,
    /// The evidence trail behind the cause: one line per supporting symptom (the
    /// SD-side match) plus, when impact analysis attributed operators, the operator
    /// set the impact was computed over. Deterministic — part of report equality.
    pub evidence: Vec<String>,
}

/// Execution provenance of one pipeline stage.
#[derive(Debug, Clone, Default)]
pub struct StageProvenance {
    /// The stage's name (`"PD"`, `"CO"`, … for the standard stages).
    pub stage: String,
    /// Wall-clock time the stage took, in nanoseconds.
    pub elapsed_nanos: u64,
    /// KDE-fit lookups the stage served from the (engine- or session-) warm cache.
    pub cache_hits: u64,
    /// KDE-fit lookups the stage had to fit fresh (or negatively cache).
    pub cache_misses: u64,
    /// Whether an incremental re-diagnosis replayed this stage's prior evidence
    /// instead of executing it (`false` for every freshly-executed stage).
    pub reused: bool,
    /// Whether the stage ran (or was replayed) in **re-drill** mode: PD reported a
    /// plan change, so the drill-down re-ran against the new plan's APG instead of
    /// recording empty results (`false` for PD/IA and for same-plan diagnoses).
    pub redrilled: bool,
}

/// How the diagnosis interacted with the fleet-level
/// [`crate::engine::DiagnosisEngine`], when one was involved.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineProvenance {
    /// The engine slot key the diagnosis checked out
    /// ([`crate::testbed::ScenarioOutcome::engine_fingerprint`]).
    pub fingerprint: u64,
    /// Whether the checkout found previously-warmed fits (`true`) or started from an
    /// empty slot (`false`).
    pub warm: bool,
}

/// Machine-readable execution provenance of a whole diagnosis: the stage trail and
/// the engine interaction. Excluded from [`DiagnosisReport`] equality — timings are
/// wall-clock facts, not findings.
#[derive(Debug, Clone, Default)]
pub struct DiagnosisProvenance {
    /// One entry per executed pipeline stage, in execution order (re-executed stages
    /// appear once per execution — the trail is a log, not a set).
    pub stages: Vec<StageProvenance>,
    /// The engine checkout backing the diagnosis, when it ran through a
    /// [`crate::engine::DiagnosisEngine`]; `None` for private-cache runs.
    pub engine: Option<EngineProvenance>,
    /// How many metric-store epochs an incremental re-diagnosis applied on top of
    /// its watermark (0 for batch diagnoses and for incremental runs with no delta).
    pub epochs_applied: u64,
    /// When a [`crate::pipeline::CancelToken`] stopped the run at a stage
    /// boundary, the name of the first stage that did **not** run; `None` for
    /// runs that completed. A cancelled report's findings cover exactly the
    /// completed stages (downstream modules read as empty results).
    pub cancelled_at: Option<String>,
}

/// Outcome of the whole workflow for one slowdown investigation.
///
/// `PartialEq` compares every *finding* field (including the f64 scores bit-for-bit
/// via equality), which is what the concurrent-vs-sequential equivalence tests pin.
/// The [`DiagnosisReport::provenance`] field is excluded: two reports with identical
/// findings are equal even when their stage timings or engine warm/cold paths
/// differ (that is precisely what "the warm path changes nothing" tests assert).
#[derive(Debug, Clone, Default)]
pub struct DiagnosisReport {
    /// The investigated query.
    pub query: String,
    /// Mean elapsed time of satisfactory runs (seconds).
    pub satisfactory_mean_secs: f64,
    /// Mean elapsed time of unsatisfactory runs (seconds).
    pub unsatisfactory_mean_secs: f64,
    /// Whether the plan changed between the two periods.
    pub plan_changed: bool,
    /// Explanations found for a plan change (empty when the plan did not change).
    pub plan_change_causes: Vec<String>,
    /// Operator names in the correlated-operator set (module CO).
    pub correlated_operators: Vec<String>,
    /// Components in the correlated-component set (module DA).
    pub correlated_components: Vec<ComponentId>,
    /// Operators whose record counts changed (module CR).
    pub record_count_changes: Vec<String>,
    /// Root causes ranked by confidence then impact.
    pub causes: Vec<RankedCause>,
    /// Execution provenance: the stage trail and engine interaction (not compared
    /// by `PartialEq`).
    pub provenance: DiagnosisProvenance,
}

impl PartialEq for DiagnosisReport {
    fn eq(&self, other: &Self) -> bool {
        self.query == other.query
            && self.satisfactory_mean_secs == other.satisfactory_mean_secs
            && self.unsatisfactory_mean_secs == other.unsatisfactory_mean_secs
            && self.plan_changed == other.plan_changed
            && self.plan_change_causes == other.plan_change_causes
            && self.correlated_operators == other.correlated_operators
            && self.correlated_components == other.correlated_components
            && self.record_count_changes == other.record_count_changes
            && self.causes == other.causes
    }
}

impl DiagnosisReport {
    /// The single most likely root cause, if any cause was scored at all.
    pub fn primary_cause(&self) -> Option<&RankedCause> {
        self.causes.first()
    }

    /// The relative slowdown between the two periods.
    pub fn relative_slowdown(&self) -> f64 {
        if self.satisfactory_mean_secs <= 0.0 {
            return 0.0;
        }
        (self.unsatisfactory_mean_secs - self.satisfactory_mean_secs) / self.satisfactory_mean_secs
    }

    /// Renders the report as text (the batch-mode result panel of Figure 7).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== DIADS diagnosis report: {} ===\n", self.query));
        out.push_str(&format!(
            "Satisfactory runs averaged {:.1}s; unsatisfactory runs averaged {:.1}s ({:+.0}% change)\n",
            self.satisfactory_mean_secs,
            self.unsatisfactory_mean_secs,
            self.relative_slowdown() * 100.0
        ));
        if self.plan_changed {
            out.push_str("Plan Diffing: the execution plan CHANGED between the two periods.\n");
            for cause in &self.plan_change_causes {
                out.push_str(&format!("  plan-change cause: {cause}\n"));
            }
            out.push_str(&format!(
                "Re-drill against the new plan — correlated components: {}\n",
                if self.correlated_components.is_empty() {
                    "none".to_string()
                } else {
                    self.correlated_components.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
                }
            ));
        } else {
            out.push_str("Plan Diffing: the same plan was used in both periods.\n");
            out.push_str(&format!(
                "Correlated operators (anomaly > threshold): {}\n",
                if self.correlated_operators.is_empty() {
                    "none".to_string()
                } else {
                    self.correlated_operators.join(", ")
                }
            ));
            out.push_str(&format!(
                "Correlated components: {}\n",
                if self.correlated_components.is_empty() {
                    "none".to_string()
                } else {
                    self.correlated_components.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", ")
                }
            ));
            out.push_str(&format!(
                "Operators with record-count changes: {}\n",
                if self.record_count_changes.is_empty() {
                    "none".to_string()
                } else {
                    self.record_count_changes.join(", ")
                }
            ));
        }
        out.push_str("Root causes (confidence, impact):\n");
        for cause in &self.causes {
            out.push_str(&format!(
                "  [{:>6}] {:>5.1}% confidence, {:>5.1}% impact — {}{}\n",
                cause.confidence.label(),
                cause.confidence_score,
                cause.impact_pct,
                cause.description,
                cause.subject.as_ref().map(|s| format!(" ({s})")).unwrap_or_default()
            ));
        }
        out
    }

    /// Serializes the whole report — findings, per-cause evidence and execution
    /// provenance — as a single-line JSON object, with no external dependencies.
    ///
    /// The shape is part of the public contract (pinned by the
    /// `report_json_golden` integration test): top-level keys in declaration order,
    /// `causes` in rank order, `provenance.stages` in execution order. Numbers are
    /// emitted with Rust's shortest-round-trip float formatting; the engine
    /// fingerprint is a string (it can exceed 2^53, the safe-integer range of most
    /// JSON consumers).
    pub fn to_json(&self) -> String {
        let mut w = json::Writer::new();
        w.open_object();
        w.string_field("query", &self.query);
        w.number_field("satisfactory_mean_secs", self.satisfactory_mean_secs);
        w.number_field("unsatisfactory_mean_secs", self.unsatisfactory_mean_secs);
        w.bool_field("plan_changed", self.plan_changed);
        w.string_array_field("plan_change_causes", self.plan_change_causes.iter());
        w.string_array_field("correlated_operators", self.correlated_operators.iter());
        w.string_array_field(
            "correlated_components",
            self.correlated_components.iter().map(|c| c.to_string()),
        );
        w.string_array_field("record_count_changes", self.record_count_changes.iter());
        w.key("causes");
        w.open_array();
        for cause in &self.causes {
            w.open_object();
            w.string_field("cause_id", &cause.cause_id);
            w.string_field("description", &cause.description);
            match &cause.subject {
                Some(subject) => w.string_field("subject", &subject.to_string()),
                None => w.null_field("subject"),
            }
            w.number_field("confidence_score", cause.confidence_score);
            w.string_field("confidence", cause.confidence.label());
            w.number_field("impact_pct", cause.impact_pct);
            w.string_array_field("evidence", cause.evidence.iter());
            w.close_object();
        }
        w.close_array();
        w.key("provenance");
        w.open_object();
        w.key("stages");
        w.open_array();
        for stage in &self.provenance.stages {
            w.open_object();
            w.string_field("stage", &stage.stage);
            w.number_field("elapsed_nanos", stage.elapsed_nanos as f64);
            w.number_field("cache_hits", stage.cache_hits as f64);
            w.number_field("cache_misses", stage.cache_misses as f64);
            w.bool_field("reused", stage.reused);
            w.bool_field("redrilled", stage.redrilled);
            w.close_object();
        }
        w.close_array();
        w.number_field("epochs_applied", self.provenance.epochs_applied as f64);
        // Emitted only for cancelled runs, so the pinned key sequence of complete
        // reports is byte-identical to the pre-cancellation format.
        if let Some(cancelled_at) = &self.provenance.cancelled_at {
            w.string_field("cancelled_at", cancelled_at);
        }
        match &self.provenance.engine {
            Some(engine) => {
                w.key("engine");
                w.open_object();
                w.string_field("fingerprint", &engine.fingerprint.to_string());
                w.bool_field("warm", engine.warm);
                w.close_object();
            }
            None => w.null_field("engine"),
        }
        w.close_object();
        w.close_object();
        w.finish()
    }
}

/// A minimal JSON emitter: just enough structure (comma tracking, string escaping,
/// finite-number policy) to serialize [`DiagnosisReport`] (and, in
/// [`DiagnosisEngine::snapshot`](crate::engine::DiagnosisEngine::snapshot), engine
/// snapshots) without a dependency.
pub mod json {
    /// Streaming writer for one JSON document.
    pub struct Writer {
        out: String,
        /// Whether the next value at the current nesting level needs a `,` first.
        needs_comma: Vec<bool>,
    }

    impl Default for Writer {
        fn default() -> Self {
            Writer::new()
        }
    }

    impl Writer {
        /// Starts an empty document.
        pub fn new() -> Self {
            Writer { out: String::new(), needs_comma: vec![false] }
        }

        fn before_value(&mut self) {
            if self.needs_comma.last().copied().unwrap_or(false) {
                self.out.push(',');
            }
            if let Some(last) = self.needs_comma.last_mut() {
                *last = true;
            }
        }

        /// Opens a `{`-delimited object (as a field value or array element).
        pub fn open_object(&mut self) {
            self.before_value();
            self.out.push('{');
            self.needs_comma.push(false);
        }

        /// Closes the innermost object.
        pub fn close_object(&mut self) {
            self.out.push('}');
            self.needs_comma.pop();
        }

        /// Opens a `[`-delimited array (as a field value or array element).
        pub fn open_array(&mut self) {
            self.before_value();
            self.out.push('[');
            self.needs_comma.push(false);
        }

        /// Closes the innermost array.
        pub fn close_array(&mut self) {
            self.out.push(']');
            self.needs_comma.pop();
        }

        /// Writes an object key; the following write is its value.
        pub fn key(&mut self, key: &str) {
            self.before_value();
            self.push_string(key);
            self.out.push(':');
            // The value after a key must not emit another comma.
            if let Some(last) = self.needs_comma.last_mut() {
                *last = false;
            }
        }

        /// Writes a string-valued field.
        pub fn string_field(&mut self, key: &str, value: &str) {
            self.key(key);
            self.before_value();
            self.push_string(value);
        }

        /// Non-finite floats have no JSON representation; they serialize as `null`.
        pub fn number_field(&mut self, key: &str, value: f64) {
            self.key(key);
            self.before_value();
            if value.is_finite() {
                self.out.push_str(&value.to_string());
            } else {
                self.out.push_str("null");
            }
        }

        /// Writes a boolean-valued field.
        pub fn bool_field(&mut self, key: &str, value: bool) {
            self.key(key);
            self.before_value();
            self.out.push_str(if value { "true" } else { "false" });
        }

        /// Writes a `null`-valued field.
        pub fn null_field(&mut self, key: &str) {
            self.key(key);
            self.before_value();
            self.out.push_str("null");
        }

        /// Writes an array of finite numbers (non-finite values serialize as
        /// `null`, mirroring [`Writer::number_field`]).
        pub fn number_array_field(&mut self, key: &str, values: impl Iterator<Item = f64>) {
            self.key(key);
            self.open_array();
            for value in values {
                self.before_value();
                if value.is_finite() {
                    self.out.push_str(&value.to_string());
                } else {
                    self.out.push_str("null");
                }
            }
            self.close_array();
        }

        /// Writes an array of strings.
        pub fn string_array_field(&mut self, key: &str, values: impl Iterator<Item = impl AsRef<str>>) {
            self.key(key);
            self.open_array();
            for value in values {
                self.before_value();
                self.push_string(value.as_ref());
            }
            self.close_array();
        }

        fn push_string(&mut self, s: &str) {
            self.out.push('"');
            for c in s.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    '\r' => self.out.push_str("\\r"),
                    '\t' => self.out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        self.out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }

        /// Returns the completed document.
        pub fn finish(self) -> String {
            self.out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cause(id: &str, score: f64, impact: f64) -> RankedCause {
        RankedCause {
            cause_id: id.into(),
            description: format!("cause {id}"),
            subject: Some(ComponentId::volume("V1")),
            confidence_score: score,
            confidence: ConfidenceLevel::from_score(score),
            impact_pct: impact,
            evidence: vec![format!("symptom supporting {id}")],
        }
    }

    #[test]
    fn confidence_buckets_match_the_paper() {
        assert_eq!(ConfidenceLevel::from_score(100.0), ConfidenceLevel::High);
        assert_eq!(ConfidenceLevel::from_score(80.0), ConfidenceLevel::High);
        assert_eq!(ConfidenceLevel::from_score(79.9), ConfidenceLevel::Medium);
        assert_eq!(ConfidenceLevel::from_score(50.0), ConfidenceLevel::Medium);
        assert_eq!(ConfidenceLevel::from_score(49.9), ConfidenceLevel::Low);
        assert!(ConfidenceLevel::High > ConfidenceLevel::Medium);
        assert_eq!(ConfidenceLevel::High.to_string(), "high");
    }

    #[test]
    fn report_accessors_and_render() {
        let report = DiagnosisReport {
            query: "TPC-H Q2".into(),
            satisfactory_mean_secs: 200.0,
            unsatisfactory_mean_secs: 400.0,
            plan_changed: false,
            plan_change_causes: vec![],
            correlated_operators: vec!["O8".into(), "O22".into()],
            correlated_components: vec![ComponentId::volume("V1")],
            record_count_changes: vec![],
            causes: vec![cause("san-misconfiguration-contention", 100.0, 99.8), cause("other", 40.0, 5.0)],
            provenance: DiagnosisProvenance::default(),
        };
        assert!((report.relative_slowdown() - 1.0).abs() < 1e-9);
        assert_eq!(report.primary_cause().unwrap().cause_id, "san-misconfiguration-contention");
        let text = report.render();
        assert!(text.contains("same plan"));
        assert!(text.contains("O8, O22"));
        assert!(text.contains("volume:V1"));
        assert!(text.contains("99.8% impact"));
        let empty = DiagnosisReport::default();
        assert!(empty.primary_cause().is_none());
        assert_eq!(empty.relative_slowdown(), 0.0);
    }

    #[test]
    fn plan_change_render_shows_causes() {
        let report = DiagnosisReport {
            query: "TPC-H Q2".into(),
            satisfactory_mean_secs: 100.0,
            unsatisfactory_mean_secs: 250.0,
            plan_changed: true,
            plan_change_causes: vec!["index part_type_size_idx dropped".into()],
            ..DiagnosisReport::default()
        };
        let text = report.render();
        assert!(text.contains("CHANGED"));
        assert!(text.contains("part_type_size_idx"));
    }

    #[test]
    fn equality_ignores_provenance_but_not_findings() {
        let mut a = DiagnosisReport { query: "Q".into(), ..DiagnosisReport::default() };
        let mut b = a.clone();
        b.provenance.stages.push(StageProvenance {
            stage: "PD".into(),
            elapsed_nanos: 12345,
            cache_hits: 1,
            cache_misses: 2,
            reused: true,
            redrilled: false,
        });
        b.provenance.epochs_applied = 3;
        b.provenance.engine = Some(EngineProvenance { fingerprint: 7, warm: true });
        assert_eq!(a, b, "provenance must not affect report equality");
        b.causes.push(cause("x", 90.0, 10.0));
        assert_ne!(a, b, "findings must affect report equality");
        a.causes.push(cause("x", 90.0, 10.0));
        a.causes[0].evidence.push("extra evidence".into());
        assert_ne!(a, b, "the evidence trail is a finding");
    }

    #[test]
    fn to_json_escapes_and_serializes_every_section() {
        let report = DiagnosisReport {
            query: "TPC-H \"Q2\"\n".into(),
            satisfactory_mean_secs: 200.5,
            unsatisfactory_mean_secs: f64::NAN,
            plan_changed: false,
            plan_change_causes: vec![],
            correlated_operators: vec!["O8".into()],
            correlated_components: vec![ComponentId::volume("V1")],
            record_count_changes: vec![],
            causes: vec![cause("a", 95.0, 90.0)],
            provenance: DiagnosisProvenance {
                stages: vec![StageProvenance {
                    stage: "PD".into(),
                    elapsed_nanos: 42,
                    cache_hits: 0,
                    cache_misses: 3,
                    reused: false,
                    redrilled: true,
                }],
                engine: Some(EngineProvenance { fingerprint: u64::MAX, warm: false }),
                epochs_applied: 2,
                cancelled_at: None,
            },
        };
        let json = report.to_json();
        assert!(json.starts_with("{\"query\":\"TPC-H \\\"Q2\\\"\\n\""), "{json}");
        assert!(json.contains("\"unsatisfactory_mean_secs\":null"), "non-finite -> null: {json}");
        assert!(json.contains("\"correlated_components\":[\"volume:V1\"]"), "{json}");
        assert!(json.contains("\"cause_id\":\"a\""), "{json}");
        assert!(json.contains("\"evidence\":[\"symptom supporting a\"]"), "{json}");
        assert!(json.contains("\"stages\":[{\"stage\":\"PD\",\"elapsed_nanos\":42"), "{json}");
        assert!(json.contains("\"reused\":false,\"redrilled\":true"), "{json}");
        assert!(json.contains("\"epochs_applied\":2"), "{json}");
        // u64::MAX exceeds 2^53: the fingerprint must be emitted as a string.
        assert!(json.contains(&format!("\"fingerprint\":\"{}\"", u64::MAX)), "{json}");
        assert!(json.contains("\"warm\":false"), "{json}");
        let empty = DiagnosisReport::default();
        assert!(empty.to_json().contains("\"engine\":null"));
        // `cancelled_at` appears only on cancelled runs, so complete reports keep
        // the pre-cancellation byte layout.
        assert!(!json.contains("cancelled_at"), "{json}");
        let mut cancelled = report;
        cancelled.provenance.cancelled_at = Some("DA".into());
        assert!(cancelled.to_json().contains("\"epochs_applied\":2,\"cancelled_at\":\"DA\""));
    }
}
