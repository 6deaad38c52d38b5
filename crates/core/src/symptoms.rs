//! The symptoms database (module SD's domain knowledge).
//!
//! The paper models its symptoms database on the commercially-used *Codebook* format:
//! each root cause is an entry `Cond_1 & Cond_2 & ... & Cond_z`, where each condition
//! asserts the presence (`∃ symp`) or absence (`¬∃ symp`) of a symptom and carries a
//! weight; the weights of an entry sum to 100 %. The confidence score of a root cause
//! is the sum of the weights of its satisfied conditions, bucketed into high (≥ 80 %),
//! medium (≥ 50 %) and low (< 50 %).

use std::sync::OnceLock;

use diads_monitor::{ComponentId, Timestamp};

use crate::diagnosis::ConfidenceLevel;

/// Coarse classes of observable symptoms — the vocabulary shared by the workflow
/// modules (which *observe* symptoms) and the root-cause entries (which *expect* them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SymptomKind {
    /// The same plan was used in satisfactory and unsatisfactory runs.
    PlanUnchanged,
    /// Different plans were used in satisfactory vs unsatisfactory runs.
    PlanChanged,
    /// A storage component (volume/pool/disk) on a correlated operator's dependency
    /// path shows anomalous performance metrics.
    VolumeMetricsAnomalous,
    /// Operators whose dependency path includes an anomalous storage component are
    /// themselves anomalous (the cross-layer link of scenario 1).
    OperatorsOnContendedVolumeAnomalous,
    /// A new volume was created on physical disks shared with an affected volume.
    NewVolumeOnSharedDisks,
    /// Zoning or LUN mapping changed shortly before the slowdown.
    ZoningOrMappingChanged,
    /// An external application workload is active on disks shared with an affected volume.
    ExternalWorkloadOnSharedDisks,
    /// Operator record counts changed between satisfactory and unsatisfactory runs.
    RecordCountsChanged,
    /// A data-properties-changed (bulk DML / ANALYZE drift) event was observed.
    DataPropertiesChangedEvent,
    /// Lock wait time is significantly higher in unsatisfactory runs.
    LockWaitHigh,
    /// A lock-contention event was reported by the database.
    LockContentionEvent,
    /// An index-dropped event was observed between the two periods.
    IndexDroppedEvent,
    /// A configuration-parameter-change event was observed between the two periods.
    ConfigParameterChangedEvent,
    /// A RAID rebuild was active during unsatisfactory runs.
    RaidRebuildEvent,
    /// A disk failure was observed.
    DiskFailureEvent,
    /// The database server's CPU is saturated during unsatisfactory runs.
    CpuSaturated,
    /// The buffer-cache hit ratio dropped significantly.
    BufferHitRatioDropped,
}

impl SymptomKind {
    /// A stable identifier for serialized output (report evidence trails,
    /// `DiagnosisReport::to_json`). Unlike the `Debug` representation, this is a
    /// public contract: renaming an enum variant must not change it.
    pub fn label(self) -> &'static str {
        match self {
            SymptomKind::PlanUnchanged => "PlanUnchanged",
            SymptomKind::PlanChanged => "PlanChanged",
            SymptomKind::VolumeMetricsAnomalous => "VolumeMetricsAnomalous",
            SymptomKind::OperatorsOnContendedVolumeAnomalous => "OperatorsOnContendedVolumeAnomalous",
            SymptomKind::NewVolumeOnSharedDisks => "NewVolumeOnSharedDisks",
            SymptomKind::ZoningOrMappingChanged => "ZoningOrMappingChanged",
            SymptomKind::ExternalWorkloadOnSharedDisks => "ExternalWorkloadOnSharedDisks",
            SymptomKind::RecordCountsChanged => "RecordCountsChanged",
            SymptomKind::DataPropertiesChangedEvent => "DataPropertiesChangedEvent",
            SymptomKind::LockWaitHigh => "LockWaitHigh",
            SymptomKind::LockContentionEvent => "LockContentionEvent",
            SymptomKind::IndexDroppedEvent => "IndexDroppedEvent",
            SymptomKind::ConfigParameterChangedEvent => "ConfigParameterChangedEvent",
            SymptomKind::RaidRebuildEvent => "RaidRebuildEvent",
            SymptomKind::DiskFailureEvent => "DiskFailureEvent",
            SymptomKind::CpuSaturated => "CpuSaturated",
            SymptomKind::BufferHitRatioDropped => "BufferHitRatioDropped",
        }
    }
}

/// One observed symptom.
#[derive(Debug, Clone, PartialEq)]
pub struct Symptom {
    /// What class of symptom this is.
    pub kind: SymptomKind,
    /// The component the symptom is about, when there is a specific one.
    pub subject: Option<ComponentId>,
    /// Human-readable detail.
    pub detail: String,
    /// When the underlying observation happened (events) — used for temporal checks.
    pub observed_at: Option<Timestamp>,
    /// Strength in `[0, 1]` (e.g. the anomaly score that produced the symptom).
    pub strength: f64,
}

impl Symptom {
    /// Creates a symptom without a subject or timestamp.
    pub fn simple(kind: SymptomKind, detail: impl Into<String>, strength: f64) -> Self {
        Symptom { kind, subject: None, detail: detail.into(), observed_at: None, strength }
    }

    /// Creates a symptom about a specific component.
    pub fn about(kind: SymptomKind, subject: ComponentId, detail: impl Into<String>, strength: f64) -> Self {
        Symptom { kind, subject: Some(subject), detail: detail.into(), observed_at: None, strength }
    }

    /// Attaches an observation time (builder style).
    pub fn at(mut self, time: Timestamp) -> Self {
        self.observed_at = Some(time);
        self
    }
}

/// One condition of a root-cause entry: the presence or absence of a symptom kind,
/// with a weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Condition {
    /// `true` for `∃ symptom`, `false` for `¬∃ symptom`.
    pub present: bool,
    /// The symptom class the condition is about.
    pub kind: SymptomKind,
    /// Weight of the condition (the weights of one entry sum to 100).
    pub weight: f64,
}

impl Condition {
    /// A presence condition.
    pub fn requires(kind: SymptomKind, weight: f64) -> Self {
        Condition { present: true, kind, weight }
    }

    /// An absence condition.
    pub(crate) fn excludes(kind: SymptomKind, weight: f64) -> Self {
        Condition { present: false, kind, weight }
    }
}

/// A root-cause entry of the symptoms database.
#[derive(Debug, Clone, PartialEq)]
pub struct RootCauseEntry {
    /// Stable identifier (matching `diads_inject::scenarios::cause_ids` for the causes
    /// the evaluation scenarios inject).
    pub id: String,
    /// Human-readable description reported to the administrator.
    pub description: String,
    /// The weighted conditions.
    pub conditions: Vec<Condition>,
}

/// A root cause scored against the observed symptoms.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCause {
    /// The entry's identifier.
    pub cause_id: String,
    /// The entry's description.
    pub description: String,
    /// Confidence score in `[0, 100]`.
    pub confidence_score: f64,
    /// Confidence category (high ≥ 80, medium ≥ 50, low otherwise).
    pub confidence: ConfidenceLevel,
    /// The component most strongly implicated by the matching symptoms, if any.
    pub subject: Option<ComponentId>,
    /// The symptoms that satisfied the entry's presence conditions.
    pub supporting_symptoms: Vec<Symptom>,
}

/// The symptoms database: a collection of weighted root-cause entries.
#[derive(Debug, Clone, Default)]
pub struct SymptomsDatabase {
    entries: Vec<RootCauseEntry>,
}

impl SymptomsDatabase {
    /// The built-in database developed for query-slowdown diagnosis: entries for the
    /// root causes the evaluation scenarios inject plus common distractors
    /// (buffer-pool misconfiguration, CPU saturation, disk failure, RAID rebuild).
    /// Built once per process and shared by every diagnosis.
    pub fn builtin() -> &'static SymptomsDatabase {
        static BUILTIN: OnceLock<SymptomsDatabase> = OnceLock::new();
        BUILTIN.get_or_init(Self::build_builtin)
    }

    fn build_builtin() -> Self {
        use SymptomKind as S;
        let entries = vec![
            RootCauseEntry {
                id: "san-misconfiguration-contention".into(),
                description: "SAN misconfiguration: a newly created volume was placed on (and mapped to another \
                              host over) the physical disks backing a database volume, and its workload contends \
                              with the query's I/O"
                    .into(),
                conditions: vec![
                    Condition::requires(S::VolumeMetricsAnomalous, 25.0),
                    Condition::requires(S::OperatorsOnContendedVolumeAnomalous, 15.0),
                    Condition::requires(S::NewVolumeOnSharedDisks, 25.0),
                    Condition::requires(S::ZoningOrMappingChanged, 15.0),
                    Condition::requires(S::PlanUnchanged, 10.0),
                    Condition::excludes(S::RecordCountsChanged, 10.0),
                ],
            },
            RootCauseEntry {
                id: "external-workload-contention".into(),
                description: "Contention from another application's workload on the physical disks backing a \
                              database volume"
                    .into(),
                conditions: vec![
                    Condition::requires(S::VolumeMetricsAnomalous, 25.0),
                    Condition::requires(S::OperatorsOnContendedVolumeAnomalous, 20.0),
                    Condition::requires(S::ExternalWorkloadOnSharedDisks, 20.0),
                    Condition::requires(S::PlanUnchanged, 5.0),
                    Condition::excludes(S::RecordCountsChanged, 5.0),
                    Condition::excludes(S::NewVolumeOnSharedDisks, 25.0),
                ],
            },
            RootCauseEntry {
                id: "data-property-change".into(),
                description: "A change in data properties (bulk DML) increased the data processed by the query".into(),
                conditions: vec![
                    Condition::requires(S::RecordCountsChanged, 40.0),
                    Condition::requires(S::DataPropertiesChangedEvent, 30.0),
                    Condition::excludes(S::NewVolumeOnSharedDisks, 15.0),
                    Condition::excludes(S::LockWaitHigh, 15.0),
                ],
            },
            RootCauseEntry {
                id: "table-lock-contention".into(),
                description: "Lock contention on a table scanned by the query".into(),
                conditions: vec![
                    Condition::requires(S::LockWaitHigh, 40.0),
                    Condition::requires(S::LockContentionEvent, 25.0),
                    Condition::requires(S::PlanUnchanged, 15.0),
                    Condition::excludes(S::VolumeMetricsAnomalous, 20.0),
                ],
            },
            RootCauseEntry {
                id: "index-dropped".into(),
                description: "The plan changed because an index used by the good plan was dropped".into(),
                conditions: vec![
                    Condition::requires(S::PlanChanged, 40.0),
                    Condition::requires(S::IndexDroppedEvent, 50.0),
                    Condition::excludes(S::VolumeMetricsAnomalous, 10.0),
                ],
            },
            RootCauseEntry {
                id: "config-parameter-change".into(),
                description: "The plan changed because a planner configuration parameter changed".into(),
                conditions: vec![
                    Condition::requires(S::PlanChanged, 40.0),
                    Condition::requires(S::ConfigParameterChangedEvent, 50.0),
                    Condition::excludes(S::IndexDroppedEvent, 10.0),
                ],
            },
            RootCauseEntry {
                id: "raid-rebuild".into(),
                description: "A RAID rebuild is loading the pool backing a database volume".into(),
                conditions: vec![
                    Condition::requires(S::VolumeMetricsAnomalous, 30.0),
                    Condition::requires(S::RaidRebuildEvent, 50.0),
                    Condition::requires(S::OperatorsOnContendedVolumeAnomalous, 20.0),
                ],
            },
            RootCauseEntry {
                id: "disk-failure".into(),
                description: "A failed disk shrank the pool backing a database volume".into(),
                conditions: vec![
                    Condition::requires(S::DiskFailureEvent, 60.0),
                    Condition::requires(S::VolumeMetricsAnomalous, 40.0),
                ],
            },
            RootCauseEntry {
                id: "buffer-pool-misconfiguration".into(),
                description: "The buffer pool is too small for the working set (hit ratio dropped)".into(),
                conditions: vec![
                    Condition::requires(S::BufferHitRatioDropped, 60.0),
                    Condition::requires(S::PlanUnchanged, 20.0),
                    Condition::excludes(S::VolumeMetricsAnomalous, 20.0),
                ],
            },
            RootCauseEntry {
                id: "cpu-saturation".into(),
                description: "The database server's CPU is saturated".into(),
                conditions: vec![
                    Condition::requires(S::CpuSaturated, 70.0),
                    Condition::requires(S::PlanUnchanged, 30.0),
                ],
            },
        ];
        SymptomsDatabase { entries }
    }

    /// The entries.
    pub fn entries(&self) -> &[RootCauseEntry] {
        &self.entries
    }

    /// Scores every entry against the observed symptoms, highest confidence first.
    pub fn evaluate(&self, symptoms: &[Symptom]) -> Vec<ScoredCause> {
        let mut out: Vec<ScoredCause> = self
            .entries
            .iter()
            .map(|entry| {
                let mut score = 0.0;
                let mut supporting = Vec::new();
                for condition in &entry.conditions {
                    let matching: Vec<&Symptom> =
                        symptoms.iter().filter(|s| s.kind == condition.kind).collect();
                    let found = !matching.is_empty();
                    if condition.present == found {
                        score += condition.weight;
                        if condition.present {
                            supporting.extend(matching.into_iter().cloned());
                        }
                    }
                }
                let subject = supporting
                    .iter()
                    .filter(|s| s.subject.is_some())
                    .max_by(|a, b| a.strength.partial_cmp(&b.strength).expect("finite strengths"))
                    .and_then(|s| s.subject.clone());
                ScoredCause {
                    cause_id: entry.id.clone(),
                    description: entry.description.clone(),
                    confidence_score: score,
                    confidence: ConfidenceLevel::from_score(score),
                    subject,
                    supporting_symptoms: supporting,
                }
            })
            .collect();
        out.sort_by(|a, b| b.confidence_score.partial_cmp(&a.confidence_score).expect("finite scores"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario1_symptoms() -> Vec<Symptom> {
        vec![
            Symptom::simple(SymptomKind::PlanUnchanged, "same plan in both periods", 1.0),
            Symptom::about(
                SymptomKind::VolumeMetricsAnomalous,
                ComponentId::volume("V1"),
                "V1 writeTime 0.89",
                0.89,
            ),
            Symptom::about(
                SymptomKind::OperatorsOnContendedVolumeAnomalous,
                ComponentId::volume("V1"),
                "O8, O22 anomalous and depend on V1",
                0.9,
            ),
            Symptom::about(
                SymptomKind::NewVolumeOnSharedDisks,
                ComponentId::volume("Vprime"),
                "V' on P1",
                1.0,
            )
            .at(Timestamp::new(100)),
            Symptom::simple(SymptomKind::ZoningOrMappingChanged, "new zone + LUN mapping", 1.0),
            Symptom::about(
                SymptomKind::ExternalWorkloadOnSharedDisks,
                ComponentId::external_workload("interloper-on-Vprime"),
                "external workload on V'",
                1.0,
            ),
        ]
    }

    #[test]
    fn builtin_entries_sum_to_100() {
        let db = SymptomsDatabase::builtin();
        assert_eq!(db.entries().len(), 10);
        for entry in db.entries() {
            let total: f64 = entry.conditions.iter().map(|c| c.weight).sum();
            assert!((total - 100.0).abs() < 1e-9, "{}", entry.id);
        }
    }

    #[test]
    fn scenario1_symptoms_give_the_misconfiguration_high_confidence() {
        let db = SymptomsDatabase::builtin();
        let causes = db.evaluate(&scenario1_symptoms());
        let top = &causes[0];
        assert_eq!(top.cause_id, "san-misconfiguration-contention");
        assert_eq!(top.confidence, ConfidenceLevel::High);
        assert!((top.confidence_score - 100.0).abs() < 1e-9);
        assert_eq!(top.subject, Some(ComponentId::volume("Vprime")));
        // The paper: the workload-change cause gets a medium confidence.
        let workload = causes.iter().find(|c| c.cause_id == "external-workload-contention").unwrap();
        assert_eq!(workload.confidence, ConfidenceLevel::Medium);
        // Everything unrelated is low.
        let lock = causes.iter().find(|c| c.cause_id == "table-lock-contention").unwrap();
        assert_eq!(lock.confidence, ConfidenceLevel::Low);
        let dml = causes.iter().find(|c| c.cause_id == "data-property-change").unwrap();
        assert_eq!(dml.confidence, ConfidenceLevel::Low);
        // Ordering is by descending confidence.
        assert!(causes.windows(2).all(|w| w[0].confidence_score >= w[1].confidence_score));
    }

    #[test]
    fn lock_scenario_symptoms_favour_the_lock_entry_even_with_spurious_noise() {
        let db = SymptomsDatabase::builtin();
        let mut symptoms = vec![
            Symptom::simple(SymptomKind::PlanUnchanged, "same plan", 1.0),
            Symptom::simple(SymptomKind::LockWaitHigh, "lock wait 150s per run", 0.95),
            Symptom::simple(SymptomKind::LockContentionEvent, "maintenance txn holds locks", 1.0),
        ];
        let clean = db.evaluate(&symptoms);
        assert_eq!(clean[0].cause_id, "table-lock-contention");
        assert_eq!(clean[0].confidence, ConfidenceLevel::High);
        // Add a spurious V2 anomaly: confidence drops to exactly 80 but stays High.
        symptoms.push(Symptom::about(
            SymptomKind::VolumeMetricsAnomalous,
            ComponentId::volume("V2"),
            "noise spike",
            0.82,
        ));
        let noisy = db.evaluate(&symptoms);
        let lock = noisy.iter().find(|c| c.cause_id == "table-lock-contention").unwrap();
        assert_eq!(lock.confidence, ConfidenceLevel::High);
        assert!((lock.confidence_score - 80.0).abs() < 1e-9);
    }

    #[test]
    fn builtin_is_built_once_and_shared() {
        assert!(std::ptr::eq(SymptomsDatabase::builtin(), SymptomsDatabase::builtin()));
    }

    #[test]
    fn empty_database_scores_nothing() {
        let db = SymptomsDatabase::default();
        assert!(db.evaluate(&scenario1_symptoms()).is_empty());
    }

    #[test]
    fn plan_change_entries_match_plan_change_symptoms() {
        let db = SymptomsDatabase::builtin();
        let symptoms = vec![
            Symptom::simple(SymptomKind::PlanChanged, "plans differ", 1.0),
            Symptom::simple(SymptomKind::IndexDroppedEvent, "part_type_size_idx dropped", 1.0),
        ];
        let causes = db.evaluate(&symptoms);
        assert_eq!(causes[0].cause_id, "index-dropped");
        assert_eq!(causes[0].confidence, ConfidenceLevel::High);
    }
}
