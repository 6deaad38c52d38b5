//! The remediation planner — what-if analysis driven by a diagnosis.
//!
//! Section 7 proposes what-if analysis as the natural extension of integrated
//! DB+SAN diagnosis; [`crate::whatif`] implements the evaluation primitive. This
//! module closes the loop: a [`Planner`] takes the *output* of a diagnosis (the
//! ranked causes of a [`DiagnosisReport`]), derives the candidate
//! [`ProposedChange`]s that would address each sufficiently-confident cause,
//! evaluates every candidate against a [`Testbed::fork`] of the deployment, and
//! ranks them by predicted improvement — turning "here is what is wrong" into
//! "here is what to do about it, cheapest-to-verify first".
//!
//! The library API is [`Planner::plan`] over a report, or [`Planner::plan_outcome`]
//! straight off a [`ScenarioOutcome`]; the service loop calls `plan` after each
//! diagnosis it plans remediation for.
//!
//! Candidate derivation is deliberately conservative: only causes the what-if
//! vocabulary can actually address produce candidates (contention → remove the
//! workload / move the tablespace, pool degradation → move the tablespace,
//! configuration regression → revert the configuration, lock contention → clear
//! the lock windows, dropped index → recreate it from its retained definition).
//! Causes with no reversible counterpart — a bulk data load — derive nothing
//! rather than something misleading.
//!
//! Compound faults need compound fixes: on top of the single changes the planner
//! evaluates **compound change sets** — pairs of candidates addressing *different*
//! causes (e.g. revert the config AND remove the interloper), applied to one fork
//! via [`whatif::evaluate_set_with_baseline`] and ranked alongside the singles.
//! The pair search evaluates at most four sets.

use diads_inject::scenarios::cause_ids;
use diads_monitor::{ComponentId, ComponentKind, Timestamp};

use crate::diagnosis::{ConfidenceLevel, DiagnosisReport};
use crate::testbed::{ScenarioOutcome, Testbed, DB_SERVER};
use crate::whatif::{self, ProposedChange, WhatIfOutcome};

/// The remediation planner's tunable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// The instant the report query is (hypothetically) executed at. Pick a time
    /// inside the unsatisfactory period when every injected/observed problem is
    /// active — e.g. the start of the last report run.
    pub evaluate_at: Timestamp,
}

/// Minimum confidence a ranked cause needs before candidates are derived from it
/// (low-confidence causes are noise).
const MIN_CONFIDENCE: ConfidenceLevel = ConfidenceLevel::Medium;

/// Candidate budget for the compound search: at most this many two-change sets are
/// evaluated, taken in derivation order over pairs of successfully evaluated
/// singles that address different causes. Each set costs one fork and one
/// execution, the same as a single candidate.
const MAX_COMPOUND_SETS: usize = 4;

/// A candidate change derived from one ranked cause, before evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct RemediationCandidate {
    /// The cause the candidate addresses.
    pub cause_id: String,
    /// The change to evaluate.
    pub change: ProposedChange,
    /// Why this change addresses the cause.
    pub rationale: String,
}

/// One evaluated remediation: a change set (one candidate for a single change,
/// two for a compound set) plus its what-if outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedRemediation {
    /// The candidates that were evaluated together — applied in order to one
    /// fork. A single change is a one-element set.
    pub candidates: Vec<RemediationCandidate>,
    /// The what-if evaluation of the change set.
    pub outcome: WhatIfOutcome,
}

impl RankedRemediation {
    /// Predicted relative improvement of the change set (positive = faster).
    pub fn improvement(&self) -> f64 {
        self.outcome.improvement()
    }

    /// Whether this is a compound set (more than one change).
    pub fn is_compound(&self) -> bool {
        self.candidates.len() > 1
    }

    /// The distinct cause ids the set addresses, joined with `" + "` in candidate
    /// order.
    pub(crate) fn cause_label(&self) -> String {
        let mut ids: Vec<&str> = Vec::new();
        for c in &self.candidates {
            if !ids.contains(&c.cause_id.as_str()) {
                ids.push(&c.cause_id);
            }
        }
        ids.join(" + ")
    }
}

/// The planner's output: evaluated candidates ranked by predicted improvement,
/// plus the candidates whose evaluation failed (with the error).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemediationPlan {
    /// Successfully evaluated candidates, best predicted improvement first (ties
    /// keep cause-rank order).
    pub ranked: Vec<RankedRemediation>,
    /// Candidates whose what-if evaluation returned an error.
    pub failed: Vec<(RemediationCandidate, String)>,
}

impl RemediationPlan {
    /// The recommended change: the top-ranked remediation, if any was evaluated.
    pub fn best(&self) -> Option<&RankedRemediation> {
        self.ranked.first()
    }

    /// Whether the planner produced no candidates at all.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty() && self.failed.is_empty()
    }

    /// Renders the plan as a text panel (the what-if counterpart of
    /// [`DiagnosisReport::render`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("=== Remediation plan (what-if evaluated) ===\n");
        if self.ranked.is_empty() {
            out.push_str("No evaluable remediation candidates.\n");
        }
        for (i, r) in self.ranked.iter().enumerate() {
            out.push_str(&format!(
                "  {}. [{:+6.1}%] {} — addresses {} ({:.0}s -> {:.0}s)\n",
                i + 1,
                r.improvement() * 100.0,
                r.outcome.change,
                r.cause_label(),
                r.outcome.baseline_secs,
                r.outcome.predicted_secs,
            ));
        }
        for (candidate, error) in &self.failed {
            out.push_str(&format!("  [failed] {} — {}\n", candidate.change.describe(), error));
        }
        out
    }
}

/// Derives and evaluates remediation candidates for a diagnosis.
#[derive(Debug, Clone)]
pub struct Planner {
    /// The planner's tunables.
    pub config: PlannerConfig,
}

impl Planner {
    /// A planner evaluating at `evaluate_at`, deriving candidates from causes of at
    /// least [`ConfidenceLevel::Medium`] and evaluating up to 4 compound sets.
    pub fn new(evaluate_at: Timestamp) -> Self {
        Planner { config: PlannerConfig { evaluate_at } }
    }

    /// A planner for a completed scenario: evaluates at the start of the last
    /// scheduled report run, when every (possibly staggered) fault is active.
    pub fn for_outcome(outcome: &ScenarioOutcome) -> Self {
        Planner::new(outcome.scenario.timeline.last_run_start())
    }

    /// Derives candidates from a report, evaluates each against a fork of
    /// `testbed` ([`whatif::evaluate`]) and ranks them by predicted improvement.
    pub fn plan(&self, report: &DiagnosisReport, testbed: &Testbed) -> RemediationPlan {
        self.evaluate_candidates(self.candidates(report, testbed), testbed)
    }

    /// Convenience: diagnoses a scenario outcome (through its testbed's engine) and
    /// plans remediations for the resulting report.
    pub fn plan_outcome(&self, outcome: &ScenarioOutcome) -> RemediationPlan {
        self.plan(&outcome.diagnose(), &outcome.testbed)
    }

    /// Evaluates pre-derived candidates and ranks them. The unmodified deployment
    /// is executed once; every candidate then only pays for its own prediction.
    fn evaluate_candidates(
        &self,
        candidates: Vec<RemediationCandidate>,
        testbed: &Testbed,
    ) -> RemediationPlan {
        if candidates.is_empty() {
            return RemediationPlan::default();
        }
        let baseline = match testbed.execute_once(self.config.evaluate_at) {
            Ok(record) => record.elapsed_secs,
            Err(e) => {
                // No baseline, no predictions: every candidate fails with the
                // executor's error instead of a misleading partial ranking.
                let error = e.to_string();
                return RemediationPlan {
                    ranked: Vec::new(),
                    failed: candidates.into_iter().map(|c| (c, error.clone())).collect(),
                };
            }
        };
        let mut ranked = Vec::new();
        let mut failed = Vec::new();
        for candidate in candidates {
            match whatif::evaluate_with_baseline(
                testbed,
                &candidate.change,
                self.config.evaluate_at,
                baseline,
            ) {
                Ok(outcome) => ranked.push(RankedRemediation { candidates: vec![candidate], outcome }),
                Err(error) => failed.push((candidate, error)),
            }
        }
        // Compound search: pairs of evaluable singles addressing *different*
        // causes, in derivation order, each applied to one fork. Bounded by the
        // candidate budget; `singles` is fixed before anything is appended, so
        // sets never pair with sets.
        let singles = ranked.len();
        let mut sets_evaluated = 0;
        'pairs: for i in 0..singles {
            for j in (i + 1)..singles {
                if sets_evaluated >= MAX_COMPOUND_SETS {
                    break 'pairs;
                }
                let (a, b) = (&ranked[i].candidates[0], &ranked[j].candidates[0]);
                if a.cause_id == b.cause_id {
                    continue;
                }
                let set = vec![a.clone(), b.clone()];
                let changes: Vec<ProposedChange> = set.iter().map(|c| c.change.clone()).collect();
                sets_evaluated += 1;
                match whatif::evaluate_set_with_baseline(testbed, &changes, self.config.evaluate_at, baseline)
                {
                    Ok(outcome) => ranked.push(RankedRemediation { candidates: set, outcome }),
                    // Both members validated as singles, so a set failure is an
                    // executor error: surface it on each member rather than
                    // dropping the set silently.
                    Err(error) => {
                        failed.extend(set.into_iter().map(|c| (c, format!("compound set: {error}"))))
                    }
                }
            }
        }
        // Stable sort: ties keep cause-rank (derivation) order, singles before the
        // compound sets derived from them.
        ranked.sort_by(rank_order);
        RemediationPlan { ranked, failed }
    }

    /// Derives the candidate changes for a report's ranked causes, without
    /// evaluating them — cause-rank order, deduplicated by change.
    pub fn candidates(&self, report: &DiagnosisReport, testbed: &Testbed) -> Vec<RemediationCandidate> {
        let mut out: Vec<RemediationCandidate> = Vec::new();
        let mut push = |cause_id: &str, change: ProposedChange, rationale: String| {
            if !out.iter().any(|c| c.change == change) {
                out.push(RemediationCandidate { cause_id: cause_id.to_string(), change, rationale });
            }
        };
        for cause in &report.causes {
            if cause.confidence < MIN_CONFIDENCE {
                continue;
            }
            let id = cause.cause_id.as_str();
            match id {
                cause_ids::SAN_MISCONFIGURATION | cause_ids::EXTERNAL_WORKLOAD_CONTENTION => {
                    let pool = implicated_pool(testbed, cause.subject.as_ref());
                    // Remove every external workload hitting the implicated pool
                    // (all workloads when the subject resolves to no pool).
                    for workload in testbed.san.workloads() {
                        let on_pool = match &pool {
                            Some(pool) => testbed
                                .san
                                .topology()
                                .pool_of_volume(&workload.volume)
                                .is_some_and(|p| &p.name == pool),
                            None => true,
                        };
                        if on_pool {
                            push(
                                id,
                                ProposedChange::RemoveExternalWorkload { workload: workload.name.clone() },
                                format!(
                                    "external workload {} contends on {}; move it off the shared disks",
                                    workload.name, workload.volume
                                ),
                            );
                        }
                    }
                    for (candidate, rationale) in move_tablespace_candidates(testbed, pool.as_deref()) {
                        push(id, candidate, rationale);
                    }
                }
                cause_ids::RAID_REBUILD | cause_ids::DISK_FAILURE => {
                    let pool = implicated_pool(testbed, cause.subject.as_ref());
                    for (candidate, rationale) in move_tablespace_candidates(testbed, pool.as_deref()) {
                        push(id, candidate, rationale);
                    }
                }
                cause_ids::CONFIG_PARAMETER_CHANGE => {
                    push(
                        id,
                        ProposedChange::ChangeConfig {
                            new_config: diads_db::DbConfig::paper_default(),
                            description: "revert planner configuration to the defaults".into(),
                        },
                        "a recent configuration-parameter change regressed the plan; revert it".into(),
                    );
                }
                cause_ids::TABLE_LOCK_CONTENTION => {
                    push(
                        id,
                        ProposedChange::ClearLockWindows,
                        "a blocking transaction holds table locks on the query's tables; \
                         kill or commit it to clear the contention windows"
                            .into(),
                    );
                }
                cause_ids::INDEX_DROPPED => {
                    for index in testbed.catalog.dropped_index_names() {
                        push(
                            id,
                            ProposedChange::RecreateIndex { index: index.clone() },
                            format!(
                                "index {index} was dropped, regressing the plan; \
                                 recreate it from its retained definition"
                            ),
                        );
                    }
                }
                // No reversible counterpart in the what-if vocabulary: bulk data
                // changes (data is not un-loadable) derive nothing.
                _ => {}
            }
        }
        out
    }
}

/// Descending order by predicted improvement, NaN strictly last: the comparison
/// is total ([`f64::total_cmp`]), so an unexpected NaN (a degenerate executor
/// time) can never panic the sort *or* float to the top — it sorts after every
/// finite improvement regardless of where it started.
fn rank_order(a: &RankedRemediation, b: &RankedRemediation) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.improvement().is_nan(), b.improvement().is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.improvement().total_cmp(&a.improvement()),
    }
}

/// Resolves a cause's subject to the storage pool it implicates: a volume to its
/// pool, a pool to itself, a disk to the pool containing it, an external workload
/// to its target volume's pool.
fn implicated_pool(testbed: &Testbed, subject: Option<&ComponentId>) -> Option<String> {
    let topology = testbed.san.topology();
    let subject = subject?;
    match subject.kind {
        ComponentKind::StoragePool => Some(subject.name.clone()),
        ComponentKind::StorageVolume => topology.pool_of_volume(&subject.name).map(|p| p.name.clone()),
        ComponentKind::Disk => topology
            .pool_names()
            .into_iter()
            .find(|p| topology.pool(p).is_some_and(|pp| pp.disks.contains(&subject.name))),
        ComponentKind::ExternalWorkload => testbed
            .san
            .workloads()
            .iter()
            .find(|w| w.name == subject.name)
            .and_then(|w| topology.pool_of_volume(&w.volume).map(|p| p.name.clone())),
        _ => None,
    }
}

/// For every tablespace on a volume of the implicated pool, the candidate move to
/// the first volume on a *different* pool that the database server can reach
/// (deterministic: topology volume order). With no implicated pool, no moves are
/// derived — moving data around without a located problem is not a remediation.
fn move_tablespace_candidates(testbed: &Testbed, pool: Option<&str>) -> Vec<(ProposedChange, String)> {
    let Some(pool) = pool else { return Vec::new() };
    let topology = testbed.san.topology();
    let mut out = Vec::new();
    for name in testbed.catalog.tablespace_names() {
        let Some(ts) = testbed.catalog.tablespace(&name) else { continue };
        let on_pool = topology.pool_of_volume(&ts.volume).is_some_and(|p| p.name == pool);
        if !on_pool {
            continue;
        }
        let destination = topology.volume_names().into_iter().find(|v| {
            let other_pool = topology.pool_of_volume(v).map(|p| p.name.clone());
            let reachable = topology
                .pool_of_volume(v)
                .map(|p| topology.zoning.can_access(DB_SERVER, &p.subsystem, v))
                .unwrap_or(false);
            other_pool.as_deref() != Some(pool) && reachable
        });
        if let Some(to_volume) = destination {
            let rationale = format!(
                "tablespace {name} sits on {} in the degraded/contended pool {pool}; \
                 move it to {to_volume}",
                ts.volume
            );
            out.push((ProposedChange::MoveTablespace { tablespace: name, to_volume }, rationale));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_handles_empty_and_failed_plans() {
        let empty = RemediationPlan::default();
        assert!(empty.is_empty());
        assert!(empty.best().is_none());
        assert!(empty.render().contains("No evaluable"));

        let candidate = RemediationCandidate {
            cause_id: "external-workload-contention".into(),
            change: ProposedChange::RemoveExternalWorkload { workload: "ghost".into() },
            rationale: "test".into(),
        };
        let plan = RemediationPlan { ranked: vec![], failed: vec![(candidate, "unknown workload".into())] };
        assert!(!plan.is_empty());
        let text = plan.render();
        assert!(text.contains("[failed]"));
        assert!(text.contains("ghost"));
    }

    #[test]
    fn nan_improvement_sorts_last_not_in_place() {
        let entry = |label: &str, predicted_secs: f64| RankedRemediation {
            candidates: vec![RemediationCandidate {
                cause_id: label.to_string(),
                change: ProposedChange::ClearLockWindows,
                rationale: "test".into(),
            }],
            outcome: WhatIfOutcome { change: label.to_string(), baseline_secs: 100.0, predicted_secs },
        };
        // The NaN entry starts *first* — the old partial_cmp(..).unwrap_or(Equal)
        // sort left it exactly there.
        let mut ranked =
            [entry("nan", f64::NAN), entry("worse", 120.0), entry("best", 60.0), entry("good", 90.0)];
        ranked.sort_by(rank_order);
        let order: Vec<&str> = ranked.iter().map(|r| r.outcome.change.as_str()).collect();
        assert_eq!(order, vec!["best", "good", "worse", "nan"]);
        assert!(ranked.last().unwrap().improvement().is_nan());
    }

    #[test]
    fn implicated_pool_resolves_every_subject_kind() {
        let testbed = Testbed::paper_default(1.0);
        assert_eq!(implicated_pool(&testbed, Some(&ComponentId::volume("V1"))), Some("P1".to_string()));
        assert_eq!(implicated_pool(&testbed, Some(&ComponentId::pool("P2"))), Some("P2".to_string()));
        assert_eq!(implicated_pool(&testbed, Some(&ComponentId::disk("ds-06"))), Some("P2".to_string()));
        assert_eq!(implicated_pool(&testbed, Some(&ComponentId::server("db-server"))), None);
        assert_eq!(implicated_pool(&testbed, None), None);
    }

    #[test]
    fn move_candidates_target_reachable_volumes_off_the_pool() {
        let testbed = Testbed::paper_default(1.0);
        // Only ts_partsupp sits on P1 (via V1); V2 is the first db-server-reachable
        // volume on another pool.
        let candidates = move_tablespace_candidates(&testbed, Some("P1"));
        assert_eq!(candidates.len(), 1);
        for (change, rationale) in &candidates {
            let ProposedChange::MoveTablespace { to_volume, .. } = change else {
                panic!("unexpected candidate {change:?}");
            };
            assert_eq!(to_volume, "V2", "V3/V4 are zoned to app-server only");
            assert!(rationale.contains("P1"));
        }
        assert!(move_tablespace_candidates(&testbed, None).is_empty());
    }
}
