//! # diads
//!
//! An open-source reproduction of **DIADS**, the integrated database + SAN
//! query-slowdown diagnosis tool of *"Why Did My Query Slow Down?"* (Borisov, Babu,
//! Uttamchandani, Routray, Singh — CIDR 2009).
//!
//! This facade crate re-exports the workspace's crates under one roof:
//!
//! * [`stats`] — KDE anomaly scoring, the scoring cache, baseline detectors;
//! * [`monitor`] — component identities, the Figure-4 metric catalog, time-series and
//!   event stores, the noisy interval collector;
//! * [`san`] — the SAN simulator (topology, zoning, RAID, external workloads,
//!   queueing-based performance model);
//! * [`db`] — the PostgreSQL-flavoured database simulator (catalog, plans, cost model,
//!   optimizer, buffer cache, locks, executor);
//! * [`workload`] — the TPC-H-like schema and the Figure-1 Q2 plan;
//! * [`inject`] — the fault injector and the Table-1 evaluation scenarios;
//! * [`core`] — Annotated Plan Graphs, the diagnosis pipeline (the fixed PD, CO,
//!   DA, CR, SD, IA stage sequence over a typed evidence ledger, with per-stage provenance),
//!   the fleet-level diagnosis engine, the symptoms database, impact analysis, the
//!   silo-tool baselines, the text screens and the what-if extension;
//! * [`gen`] — the generative scenario engine: seeded fault-plan generation,
//!   diagnosis property oracles (soundness + completeness), 1-minimal shrinking,
//!   and the replayable JSON bugbase behind the `gen_scenarios` CLI;
//! * [`service`] — diagnosis-as-a-service: the continuous ingest → seal →
//!   incremental-re-diagnosis → plan loop over tenant testbeds, streaming typed
//!   pipeline events through a bounded in-tree channel, with per-tenant
//!   cancellation and a scrapeable stats snapshot.
//!
//! ## Quick start
//!
//! ```no_run
//! use diads::core::{DiagnosisContext, DiagnosisWorkflow, Testbed};
//! use diads::inject::scenarios::{scenario_1, ScenarioTimeline};
//!
//! // Run the paper's scenario 1 (SAN misconfiguration causing contention on V1)
//! // on a shortened timeline, then diagnose it.
//! let scenario = scenario_1(ScenarioTimeline::short());
//! let outcome = Testbed::run_scenario(&scenario);
//! let report = diads::diagnose_scenario_outcome(&outcome);
//! println!("{}", report.render());
//! assert!(!report.causes.is_empty());
//! ```

pub use diads_core as core;
pub use diads_db as db;
pub use diads_gen as gen;
pub use diads_inject as inject;
pub use diads_monitor as monitor;
pub use diads_san as san;
pub use diads_service as service;
pub use diads_stats as stats;
pub use diads_workload as workload;

/// Convenience: build the diagnosis context for a completed scenario run and execute
/// the full batch workflow, returning the report.
///
/// Routes through the testbed's fleet-capable [`core::DiagnosisEngine`], so
/// diagnosing the same outcome (same run labelling) repeatedly reuses every KDE
/// fit. The report is identical cold or warm.
pub fn diagnose_scenario_outcome(outcome: &core::ScenarioOutcome) -> core::DiagnosisReport {
    outcome.diagnose()
}
