//! # diads-core
//!
//! The DIADS diagnosis engine — the primary contribution of *"Why Did My Query Slow
//! Down?"* (CIDR 2009) — built on the substrates of the companion crates
//! (`diads-san`, `diads-db`, `diads-monitor`, `diads-stats`, `diads-workload`,
//! `diads-inject`).
//!
//! The two core abstractions are:
//!
//! * the **Annotated Plan Graph** ([`apg`]): a single graph that ties every operator of
//!   a query plan to the database and SAN components it depends on (inner and outer
//!   dependency paths), annotated with the monitoring data collected during each run;
//! * the **diagnosis pipeline** ([`pipeline`], Figure 2): Plan Diffing → Correlated
//!   Operators → Dependency Analysis → Correlated Record-counts → Symptoms Database →
//!   Impact Analysis as one fixed sequence of [`pipeline::Stage`]s over a typed
//!   evidence ledger ([`pipeline::DiagnosisState`]), combining KDE-based anomaly
//!   scoring with domain knowledge. The per-module computations live in
//!   [`workflow`]; every driver — batch, the fleet-level [`engine`], the interactive
//!   [`session`] — executes the same pipeline and emits a provenance-carrying
//!   [`diagnosis::DiagnosisReport`].
//!
//! Supporting modules: [`testbed`] assembles a full simulated deployment and executes a
//! fault-injection [`diads_inject::Scenario`] end to end, [`runs`] holds the
//! satisfactory/unsatisfactory run history, [`symptoms`] implements the codebook-style
//! symptoms database, [`diagnosis`] is the final report (with machine-readable
//! [`diagnosis::DiagnosisReport::to_json`]), [`baseline`] contains the SAN-only and
//! DB-only comparison tools discussed in Section 5, [`screens`] renders the text
//! equivalents of the paper's GUI screens (Figures 3, 6 and 7), and [`whatif`]
//! implements the Section-7 what-if extension.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod apg;
pub mod baseline;
pub mod diagnosis;
pub mod engine;
/// The crate's dependency-free JSON path, re-exported for downstream tooling
/// (the generative scenario engine's plan/bugbase files use the same emitter
/// and parser as [`diagnosis::DiagnosisReport::to_json`] and engine snapshots).
pub mod jsonio {
    pub use crate::diagnosis::json::Writer;
    pub use crate::snapshot::Json;
}
pub mod pipeline;
pub mod planner;
pub mod runs;
pub mod screens;
pub mod session;
pub(crate) mod snapshot;
pub mod symptoms;
pub mod testbed;
pub mod whatif;
pub mod workflow;

pub use apg::Apg;
pub use diagnosis::{
    ConfidenceLevel, DiagnosisProvenance, DiagnosisReport, EngineProvenance, RankedCause, StageProvenance,
};
pub use engine::{DiagnosisEngine, DiagnosisWatermark, EngineStats};
pub use pipeline::{
    CancelToken, DiagnosisPipeline, DiagnosisState, EventSink, LedgerInputs, PipelineEvent, Stage,
};
pub use planner::{Planner, PlannerConfig, RankedRemediation, RemediationCandidate, RemediationPlan};
pub use runs::{LabeledRun, RunHistory};
pub use session::WorkflowSession;
pub use symptoms::{Condition, RootCauseEntry, ScoredCause, Symptom, SymptomKind, SymptomsDatabase};
pub use testbed::{ScenarioOutcome, Testbed};
pub use workflow::{DiagnosisCache, DiagnosisContext, DiagnosisWorkflow};
