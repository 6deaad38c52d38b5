//! The DIADS diagnosis modules (Figure 2) and their shared scoring machinery.
//!
//! The workflow drills down progressively — Query → Plans → Operators → Components →
//! Events → Symptoms → Impact — combining statistical machine learning (KDE anomaly
//! scores over the satisfactory history) with domain knowledge (dependency paths, the
//! symptoms database, impact analysis):
//!
//! * **PD — Plan Diffing**: did satisfactory and unsatisfactory runs use the same plan?
//!   If not, which schema/configuration/data change explains the switch?
//! * **CO — Correlated Operators**: which operators' running times best explain the
//!   plan's slowdown (anomaly score `prob(S ≤ u)` above a threshold)?
//! * **DA — Dependency Analysis**: which components on those operators' dependency
//!   paths have performance metrics that are themselves anomalous?
//! * **CR — Correlated Record-counts**: did the operators' record counts change
//!   (i.e. did data properties change)?
//! * **SD — Symptoms Database**: map the observed symptoms to root causes with
//!   weighted codebook entries and confidence categories.
//! * **IA — Impact Analysis**: for each high-confidence cause, how much of the
//!   slowdown does it actually explain (inverse dependency analysis)?
//!
//! This module owns the *computation* of each drill-down step: [`DiagnosisWorkflow`]
//! exposes exactly one method per module, every scoring method threading one
//! [`DiagnosisCache`] (no cached/uncached duplicates). *Sequencing* lives in
//! [`crate::pipeline`]: batch diagnosis ([`crate::pipeline::DiagnosisPipeline::run`]),
//! the fleet-level [`crate::engine::DiagnosisEngine`] and the interactive
//! [`crate::session::WorkflowSession`] all drive the pipeline's one stage executor
//! over the same typed evidence ledger ([`crate::pipeline::DiagnosisState`]).

use std::collections::BTreeMap;

use diads_db::{Catalog, DbConfig, OperatorId};
use diads_monitor::{
    ComponentId, ComponentKind, Duration, EventKind, EventStore, MetricKey, MetricName, MetricStore,
    TimeRange, Timestamp,
};
use diads_san::workload::ExternalWorkload;
use diads_san::SanTopology;
use diads_stats::ScoringCache;

use crate::apg::Apg;
use crate::diagnosis::{ConfidenceLevel, DiagnosisReport, RankedCause};
use crate::runs::{LabeledRun, RunHistory};
use crate::symptoms::{ScoredCause, Symptom, SymptomKind, SymptomsDatabase};

/// Identity of a scored variable, used to cache KDE fits.
///
/// The satisfactory sample of a variable is fixed for the lifetime of one
/// [`DiagnosisContext`], so a fit survives for as long as the cache does. The key
/// space is disjoint per module (CO scores elapsed times, CR record counts, DA
/// component metrics), so a single cold batch run fits each variable exactly once
/// either way — the cache pays off on *re-execution*: interactive sessions
/// re-running modules, repeated diagnoses of one context, and DA workers folding
/// fits back for later passes. All variants are `Copy`.
///
/// Every variant is a **store-agnostic identity**: operator ids are plan-structural,
/// and [`ScoreKey::Metric`] holds a [`MetricKey`] issued by the shared interner, so
/// the same (component, metric) pair keys the same slot no matter which store
/// recorded it. This is what lets the fleet-level
/// [`crate::engine::DiagnosisEngine`] reuse fits across testbeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoreKey {
    /// Elapsed running time of one operator (module CO).
    OperatorElapsed(OperatorId),
    /// Actual record count of one operator (module CR).
    OperatorRows(OperatorId),
    /// One (component, metric) series, by interned identity key (module DA).
    Metric(MetricKey),
}

/// The per-diagnosis scoring cache: one KDE fit per [`ScoreKey`].
///
/// Keys are store-agnostic, but the cached *samples* come from one run history's
/// satisfactory set — so a cache is bound to the history labelling it was first
/// used with, not to a particular store. Reusing a cache across *differently
/// labelled* histories silently mixes up sample sets; that binding is what the
/// fleet-level [`crate::engine::DiagnosisEngine`] enforces by keying its slots with
/// [`crate::runs::RunHistory::fingerprint`]. Create a fresh cache (or
/// [`ScoringCache::clear`] this one) whenever the labelling changes.
pub type DiagnosisCache = ScoringCache<ScoreKey>;

/// Minimum number of satisfactory observations required before a variable is scored
/// (the paper's KDE needs a handful of samples to be meaningful).
const MIN_SATISFACTORY_SAMPLES: usize = 3;

/// Minimum number of components each DA worker should score: below this, the scoped
/// thread spawns cost more than the KDE fits they parallelize.
#[cfg(feature = "parallel")]
const DA_MIN_COMPONENTS_PER_WORKER: usize = 8;

/// How many DA workers a component set warrants: one per
/// [`DA_MIN_COMPONENTS_PER_WORKER`] components, capped by the machine's available
/// parallelism. Single-core containers (and small component sets) get `1`, which
/// routes DA onto the sequential path with zero thread overhead.
#[cfg(feature = "parallel")]
fn da_worker_count(component_count: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    cores.min(component_count / DA_MIN_COMPONENTS_PER_WORKER).max(1)
}

/// One DA worker's output: per-component (metric scores, flagged) results plus the
/// worker's thread-local fit cache (absorbed into the shared cache after the join).
#[cfg(feature = "parallel")]
type DaChunkOutcome = (Vec<(Vec<ComponentMetricScore>, bool)>, DiagnosisCache);

/// Scores the mean of `unsatisfactory` against a fitted KDE. Empty sets score 0.0 —
/// "no evidence" never reads as an anomaly.
fn score_against(kde: &diads_stats::Kde, unsatisfactory: &[f64], two_sided: bool) -> f64 {
    let score = if two_sided {
        kde.two_sided_score_mean(unsatisfactory)
    } else {
        kde.anomaly_score_mean(unsatisfactory)
    };
    score.unwrap_or(0.0)
}

/// Scores `unsat` against the cached (or freshly fitted) KDE of `key`.
///
/// Returns `None` when the variable is not scoreable — fewer than
/// [`MIN_SATISFACTORY_SAMPLES`] satisfactory observations (or an unfittable sample).
/// This is the single scoring code path for every module: CO and CR map `None` to a
/// 0.0 score, DA skips the variable entirely (the pre-cache behaviour of each).
fn cached_score(
    cache: &mut DiagnosisCache,
    key: ScoreKey,
    satisfactory: impl FnOnce() -> Vec<f64>,
    unsatisfactory: &[f64],
    two_sided: bool,
) -> Option<f64> {
    let kde = cache.fit_or_insert_with(key, || {
        let sample = satisfactory();
        (sample.len() >= MIN_SATISFACTORY_SAMPLES).then_some(sample)
    })?;
    Some(score_against(kde, unsatisfactory, two_sided))
}

/// Tunables of the workflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkflowConfig {
    /// Anomaly-score threshold for operators and component metrics (the paper uses 0.8).
    pub anomaly_threshold: f64,
    /// Two-sided score threshold for record-count changes.
    pub record_count_threshold: f64,
    /// Impact percentage above which a high-confidence cause is considered actionable.
    pub actionable_impact_pct: f64,
    /// Whether dependency-path pruning is enabled (the ablation flag: when off, DA
    /// scores *every* monitored component instead of only those on the correlated
    /// operators' dependency paths).
    pub prune_by_dependency_paths: bool,
}

impl Default for WorkflowConfig {
    fn default() -> Self {
        WorkflowConfig {
            anomaly_threshold: 0.8,
            record_count_threshold: 0.8,
            actionable_impact_pct: 25.0,
            prune_by_dependency_paths: true,
        }
    }
}

/// Everything the workflow needs to diagnose one slowdown.
#[derive(Debug, Clone, Copy)]
pub struct DiagnosisContext<'a> {
    /// The APG of the plan under diagnosis.
    pub apg: &'a Apg,
    /// The labelled run history.
    pub history: &'a RunHistory,
    /// The monitoring store.
    pub store: &'a MetricStore,
    /// The merged SAN + database event timeline.
    pub events: &'a EventStore,
    /// The current catalog.
    pub catalog: &'a Catalog,
    /// The current database configuration.
    pub config: &'a DbConfig,
    /// The SAN topology (configuration data collected by the management tool).
    pub topology: &'a SanTopology,
    /// The external workloads known to the management tool.
    pub workloads: &'a [ExternalWorkload],
}

impl<'a> DiagnosisContext<'a> {
    /// The window in which configuration changes are considered "recent": from the
    /// start of the last satisfactory run to the end of the last unsatisfactory run.
    pub fn change_window(&self) -> TimeRange {
        let start = self.history.satisfactory().last().map(|r| r.record.start).unwrap_or(Timestamp::ZERO);
        let end = self
            .history
            .unsatisfactory()
            .last()
            .map(|r| r.record.end.plus(Duration::from_mins(5)))
            .unwrap_or_else(|| start.plus(Duration::from_hours(24)));
        TimeRange::new(start, end)
    }

    fn runs_with_plan<'h>(&self, runs: &[&'h LabeledRun]) -> Vec<&'h LabeledRun> {
        let fingerprint = self.apg.plan.fingerprint();
        runs.iter().copied().filter(|r| r.record.plan_fingerprint == fingerprint).collect()
    }

    /// Satisfactory runs that used the diagnosed plan.
    pub fn satisfactory_runs(&self) -> Vec<&'a LabeledRun> {
        self.runs_with_plan(&self.history.satisfactory())
    }

    /// Unsatisfactory runs that used the diagnosed plan.
    pub fn unsatisfactory_runs(&self) -> Vec<&'a LabeledRun> {
        self.runs_with_plan(&self.history.unsatisfactory())
    }

    /// The satisfactory baseline for **metric** scoring: plan-filtered satisfactory
    /// runs when any exist, otherwise *all* satisfactory runs. Component metrics
    /// (volume service times, pool throughput, instance counters) are physical facts
    /// independent of which plan produced the load, so when a plan change leaves the
    /// plan-filtered satisfactory sample empty the re-drill pass baselines against
    /// the full satisfactory history instead of scoring nothing. Operator-level
    /// scoring (CO/CR) must **not** use this: operator ids are per-plan structural
    /// positions, so cross-plan operator samples are meaningless.
    pub fn baseline_runs(&self) -> Vec<&'a LabeledRun> {
        let filtered = self.satisfactory_runs();
        if filtered.is_empty() {
            self.history.satisfactory()
        } else {
            filtered
        }
    }
}

// ---------------------------------------------------------------------------
// Module results
// ---------------------------------------------------------------------------

/// A cause of a plan change identified by module PD.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanChangeCause {
    /// What changed (index dropped, parameter changed, data properties changed).
    pub kind: EventKind,
    /// Human-readable explanation.
    pub description: String,
}

/// Result of module PD.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDiffResult {
    /// Whether one plan is shared by satisfactory and unsatisfactory runs.
    pub same_plan: bool,
    /// Fingerprints used by satisfactory runs.
    pub satisfactory_plans: Vec<String>,
    /// Fingerprints used by unsatisfactory runs.
    pub unsatisfactory_plans: Vec<String>,
    /// Explanations for the plan change (empty when `same_plan`).
    pub change_causes: Vec<PlanChangeCause>,
}

/// Result of module CO.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CorrelatedOperatorsResult {
    /// Anomaly score of every operator.
    pub scores: BTreeMap<OperatorId, f64>,
    /// The correlated operator set (scores above the threshold).
    pub correlated: Vec<OperatorId>,
}

/// Anomaly score of one performance metric of one component (module DA).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentMetricScore {
    /// The component.
    pub component: ComponentId,
    /// The metric.
    pub metric: MetricName,
    /// Anomaly score of the metric's per-run means.
    pub anomaly_score: f64,
}

/// Result of module DA.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DependencyAnalysisResult {
    /// Every scored (component, metric) pair.
    pub metric_scores: Vec<ComponentMetricScore>,
    /// The correlated component set (components with at least one metric above threshold).
    pub correlated_components: Vec<ComponentId>,
}

impl DependencyAnalysisResult {
    /// The anomaly score of one (component, metric) pair, if it was evaluated.
    pub fn score_of(&self, component: &ComponentId, metric: &MetricName) -> Option<f64> {
        self.metric_scores
            .iter()
            .find(|s| &s.component == component && &s.metric == metric)
            .map(|s| s.anomaly_score)
    }
}

/// Result of module CR.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RecordCountResult {
    /// Two-sided change score of every correlated operator's record counts.
    pub scores: BTreeMap<OperatorId, f64>,
    /// Operators whose record counts changed significantly.
    pub changed: Vec<OperatorId>,
}

/// Result of module SD.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SymptomsResult {
    /// Every symptom extracted from the earlier modules, the events and the metrics.
    pub symptoms: Vec<Symptom>,
    /// Root causes scored against the symptoms database, best first.
    pub causes: Vec<ScoredCause>,
}

/// Impact of one root cause (module IA).
#[derive(Debug, Clone, PartialEq)]
pub struct CauseImpact {
    /// The cause.
    pub cause_id: String,
    /// Percentage of the plan slowdown attributable to the cause.
    pub impact_pct: f64,
    /// The operators the cause affects.
    pub affected_operators: Vec<OperatorId>,
}

/// Result of module IA.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ImpactResult {
    /// Impact of every evaluated cause.
    pub impacts: Vec<CauseImpact>,
}

impl ImpactResult {
    /// The impact of a cause, 0 when it was not evaluated.
    pub fn impact_of(&self, cause_id: &str) -> f64 {
        self.impacts.iter().find(|i| i.cause_id == cause_id).map(|i| i.impact_pct).unwrap_or(0.0)
    }
}

// ---------------------------------------------------------------------------
// The workflow
// ---------------------------------------------------------------------------

/// The DIADS diagnosis workflow.
#[derive(Debug, Clone)]
pub struct DiagnosisWorkflow {
    /// Workflow tunables.
    pub config: WorkflowConfig,
    /// The symptoms database used by module SD.
    pub symptoms_db: SymptomsDatabase,
}

impl Default for DiagnosisWorkflow {
    fn default() -> Self {
        DiagnosisWorkflow { config: WorkflowConfig::default(), symptoms_db: SymptomsDatabase::builtin() }
    }
}

impl DiagnosisWorkflow {
    /// A workflow with the built-in symptoms database and default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workflow with a custom symptoms database.
    pub fn with_symptoms_db(symptoms_db: SymptomsDatabase) -> Self {
        DiagnosisWorkflow { config: WorkflowConfig::default(), symptoms_db }
    }

    // ----- Module PD -----

    /// Module PD: plan diffing and plan-change analysis.
    pub fn plan_diffing(&self, ctx: &DiagnosisContext<'_>) -> PlanDiffResult {
        let satisfactory_plans = ctx.history.satisfactory_plan_fingerprints();
        let unsatisfactory_plans = ctx.history.unsatisfactory_plan_fingerprints();
        let same_plan = !unsatisfactory_plans.is_empty()
            && unsatisfactory_plans.iter().all(|f| satisfactory_plans.contains(f));
        let mut change_causes = Vec::new();
        if !same_plan {
            let window = ctx.change_window();
            for event in ctx.events.configuration_changes_in(window) {
                if matches!(
                    event.kind,
                    EventKind::IndexDropped | EventKind::IndexCreated | EventKind::ConfigParameterChanged
                ) {
                    change_causes.push(PlanChangeCause {
                        kind: event.kind.clone(),
                        description: event.detail.clone(),
                    });
                }
            }
            for event in ctx.events.in_range(window) {
                if event.kind == EventKind::DataPropertiesChanged {
                    change_causes.push(PlanChangeCause {
                        kind: event.kind.clone(),
                        description: event.detail.clone(),
                    });
                }
            }
        }
        PlanDiffResult { same_plan, satisfactory_plans, unsatisfactory_plans, change_causes }
    }

    // ----- Module CO -----

    /// Module CO: KDE anomaly scores over operator running times.
    ///
    /// `cache` is the diagnosis's scoring cache: fits are reused across modules and
    /// re-executions (pass a fresh [`DiagnosisCache`] for a one-shot scoring).
    pub fn correlated_operators(
        &self,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
    ) -> CorrelatedOperatorsResult {
        let satisfactory = ctx.satisfactory_runs();
        let unsatisfactory = ctx.unsatisfactory_runs();
        let mut scores = BTreeMap::new();
        let mut correlated = Vec::new();
        for op in ctx.apg.plan.operators() {
            let unsat: Vec<f64> = samples(&unsatisfactory, |r| r.operator(op.id).map(|o| o.elapsed_secs));
            let score = cached_score(
                cache,
                ScoreKey::OperatorElapsed(op.id),
                || samples(&satisfactory, |r| r.operator(op.id).map(|o| o.elapsed_secs)),
                &unsat,
                false,
            )
            .unwrap_or(0.0);
            scores.insert(op.id, score);
            if score >= self.config.anomaly_threshold {
                correlated.push(op.id);
            }
        }
        CorrelatedOperatorsResult { scores, correlated }
    }

    // ----- Module DA -----

    /// The component set DA scores, in deterministic order.
    fn dependency_components(
        &self,
        ctx: &DiagnosisContext<'_>,
        cos: &CorrelatedOperatorsResult,
    ) -> Vec<ComponentId> {
        if self.config.prune_by_dependency_paths {
            ctx.apg
                .components_on_paths(&cos.correlated)
                .into_iter()
                .filter(|c| c.kind != ComponentKind::PlanOperator)
                .collect()
        } else {
            ctx.store.components().into_iter().filter(|c| c.kind != ComponentKind::PlanOperator).collect()
        }
    }

    /// The component set the DA **re-drill** pass scores: every non-operator
    /// component of the (new) plan's APG. Under a plan change there are no
    /// correlated operators to prune by, so the re-drill widens to the whole
    /// dependency graph of the plan actually running (still far narrower than the
    /// unpruned every-component ablation).
    fn redrill_components(&self, ctx: &DiagnosisContext<'_>) -> Vec<ComponentId> {
        if self.config.prune_by_dependency_paths {
            ctx.apg.all_components().into_iter().filter(|c| c.kind != ComponentKind::PlanOperator).collect()
        } else {
            ctx.store.components().into_iter().filter(|c| c.kind != ComponentKind::PlanOperator).collect()
        }
    }

    /// Module DA: anomaly scores for the performance metrics of components on the
    /// correlated operators' dependency paths (or of every component when pruning is
    /// disabled — the ablation the paper's §1.1 argues against).
    ///
    /// Dispatches to the scoped thread pool when the `parallel` feature is enabled,
    /// the machine has more than one core, and the component set is large enough to
    /// amortise the spawns; the merge order is deterministic and the result identical
    /// to the sequential path.
    pub fn dependency_analysis(
        &self,
        ctx: &DiagnosisContext<'_>,
        cos: &CorrelatedOperatorsResult,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let components = self.dependency_components(ctx, cos);
        let satisfactory = ctx.satisfactory_runs();
        self.dependency_analysis_dispatch(ctx, components, satisfactory, cache)
    }

    /// Module DA, **re-drill** mode: invoked by the standard pipeline when PD has
    /// reported a plan change. The component set widens to every non-operator
    /// component of the new plan's APG (`Self::redrill_components`) and the
    /// satisfactory baseline falls back to the full satisfactory history
    /// ([`DiagnosisContext::baseline_runs`]) — component metrics are plan-independent
    /// physical facts, so the old plan's runs remain a valid baseline for them.
    pub fn dependency_analysis_redrill(
        &self,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let components = self.redrill_components(ctx);
        let satisfactory = ctx.baseline_runs();
        self.dependency_analysis_dispatch(ctx, components, satisfactory, cache)
    }

    fn dependency_analysis_dispatch(
        &self,
        ctx: &DiagnosisContext<'_>,
        components: Vec<ComponentId>,
        satisfactory: Vec<&LabeledRun>,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        // A disabled cache is a refit-baseline request: it must stay on the
        // sequential per-call-refit path, not on pooled workers with live caches.
        #[cfg(feature = "parallel")]
        if cache.is_enabled() {
            let workers = da_worker_count(components.len());
            if workers > 1 {
                return self.dependency_analysis_on_pool(ctx, &components, &satisfactory, workers, cache);
            }
        }
        self.score_components_sequential(ctx, components, satisfactory, cache)
    }

    /// Module DA, forced sequential (the baseline the parallel path is benchmarked
    /// against; always produces the same result).
    pub fn dependency_analysis_sequential(
        &self,
        ctx: &DiagnosisContext<'_>,
        cos: &CorrelatedOperatorsResult,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let components = self.dependency_components(ctx, cos);
        let satisfactory = ctx.satisfactory_runs();
        self.score_components_sequential(ctx, components, satisfactory, cache)
    }

    fn score_components_sequential(
        &self,
        ctx: &DiagnosisContext<'_>,
        components: Vec<ComponentId>,
        satisfactory: Vec<&LabeledRun>,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let unsatisfactory = ctx.unsatisfactory_runs();
        let mut metric_scores = Vec::new();
        let mut correlated_components = Vec::new();
        for component in components {
            let (scores, flagged) =
                self.score_component(ctx, &component, &satisfactory, &unsatisfactory, None, cache);
            metric_scores.extend(scores);
            if flagged {
                correlated_components.push(component);
            }
        }
        DependencyAnalysisResult { metric_scores, correlated_components }
    }

    /// Scores every metric of one component. Zero-copy: the component's series are
    /// walked by interned key (a contiguous range scan), per-run means are computed
    /// straight off borrowed slices, and the satisfactory sample is materialised only
    /// when no cache layer has a fit for it yet.
    ///
    /// `shared` is an optional read-only warm layer (the caller's cross-module cache
    /// during a parallel pass); fits found there are used directly, misses fall
    /// through to the writable `cache`.
    fn score_component(
        &self,
        ctx: &DiagnosisContext<'_>,
        component: &ComponentId,
        satisfactory: &[&LabeledRun],
        unsatisfactory: &[&LabeledRun],
        shared: Option<&DiagnosisCache>,
        cache: &mut DiagnosisCache,
    ) -> (Vec<ComponentMetricScore>, bool) {
        let store = ctx.store;
        let Some(sym) = store.interner().component_sym(component) else {
            // Component never reported a metric: nothing to score.
            return (Vec::new(), false);
        };
        let mut out = Vec::new();
        let mut flagged = false;
        for key in store.keys_of(sym) {
            let unsat = per_run_metric_means_by_key(store, key, unsatisfactory);
            if unsat.is_empty() {
                continue;
            }
            let metric = store.resolve(key).1;
            let two_sided = !metric.higher_is_worse();
            let score = match shared.and_then(|s| s.probe(&ScoreKey::Metric(key))) {
                // Warm fit: score directly.
                Some(Some(kde)) => Some(score_against(kde, &unsat, two_sided)),
                // Warm negative entry: known unscoreable, skip without re-deriving.
                Some(None) => None,
                // Unknown to the warm layer: fit (or negatively cache) locally.
                None => cached_score(
                    cache,
                    ScoreKey::Metric(key),
                    || per_run_metric_means_by_key(store, key, satisfactory),
                    &unsat,
                    two_sided,
                ),
            };
            let Some(score) = score else {
                // Fewer than MIN_SATISFACTORY_SAMPLES satisfactory observations: the
                // variable is not scoreable (the pre-refactor loop `continue`d here).
                continue;
            };
            if score >= self.config.anomaly_threshold {
                flagged = true;
            }
            out.push(ComponentMetricScore {
                component: component.clone(),
                metric: metric.clone(),
                anomaly_score: score,
            });
        }
        (out, flagged)
    }

    /// Module DA on a scoped thread pool: components are split into contiguous chunks,
    /// each chunk is scored by one worker with a thread-local cache, and the chunk
    /// results are concatenated in order — the merge is deterministic and the scores
    /// are bit-identical to the sequential path.
    ///
    /// `threads == 0` sizes the pool from the machine's available parallelism and
    /// the component count (see [`da_worker_count`]).
    #[cfg(feature = "parallel")]
    pub fn dependency_analysis_parallel(
        &self,
        ctx: &DiagnosisContext<'_>,
        cos: &CorrelatedOperatorsResult,
        threads: usize,
    ) -> DependencyAnalysisResult {
        let components = self.dependency_components(ctx, cos);
        let satisfactory = ctx.satisfactory_runs();
        self.dependency_analysis_on_pool(ctx, &components, &satisfactory, threads, &mut DiagnosisCache::new())
    }

    #[cfg(feature = "parallel")]
    fn dependency_analysis_on_pool(
        &self,
        ctx: &DiagnosisContext<'_>,
        components: &[ComponentId],
        satisfactory: &[&LabeledRun],
        threads: usize,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let threads = if threads == 0 { da_worker_count(components.len()) } else { threads };
        let threads = threads.clamp(1, components.len().max(1));
        let unsatisfactory = ctx.unsatisfactory_runs();
        let chunk_len = components.len().div_ceil(threads);
        let chunks: Vec<&[ComponentId]> = components.chunks(chunk_len.max(1)).collect();
        let shared = &*cache;
        let per_chunk: Vec<DaChunkOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    let satisfactory = &satisfactory;
                    let unsatisfactory = &unsatisfactory;
                    scope.spawn(move || {
                        let mut local = DiagnosisCache::new();
                        let results = chunk
                            .iter()
                            .map(|c| {
                                self.score_component(
                                    ctx,
                                    c,
                                    satisfactory,
                                    unsatisfactory,
                                    Some(shared),
                                    &mut local,
                                )
                            })
                            .collect::<Vec<_>>();
                        (results, local)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("DA worker panicked")).collect()
        });
        let mut per_chunk_results = Vec::with_capacity(per_chunk.len());
        for (results, local) in per_chunk {
            // Fold every worker's fits back into the shared cache so later modules and
            // warm re-executions reuse them.
            cache.absorb(local);
            per_chunk_results.push(results);
        }
        let per_chunk = per_chunk_results;
        let mut metric_scores = Vec::new();
        let mut correlated_components = Vec::new();
        for (chunk, results) in chunks.iter().zip(per_chunk) {
            for (component, (scores, flagged)) in chunk.iter().zip(results) {
                metric_scores.extend(scores);
                if flagged {
                    correlated_components.push(component.clone());
                }
            }
        }
        DependencyAnalysisResult { metric_scores, correlated_components }
    }

    // ----- Module CR -----

    /// Module CR: two-sided change scores of the correlated operators' record counts.
    pub fn record_counts(
        &self,
        ctx: &DiagnosisContext<'_>,
        cos: &CorrelatedOperatorsResult,
        cache: &mut DiagnosisCache,
    ) -> RecordCountResult {
        let satisfactory = ctx.satisfactory_runs();
        let unsatisfactory = ctx.unsatisfactory_runs();
        let mut scores = BTreeMap::new();
        let mut changed = Vec::new();
        for &op in &cos.correlated {
            let sat: Vec<f64> = samples(&satisfactory, |r| r.operator(op).map(|o| o.actual_rows));
            let unsat: Vec<f64> = samples(&unsatisfactory, |r| r.operator(op).map(|o| o.actual_rows));
            if sat.is_empty() || unsat.is_empty() {
                continue;
            }
            let sat_mean = mean(&sat);
            let unsat_mean = mean(&unsat);
            let relative_change = if sat_mean.abs() > f64::EPSILON {
                ((unsat_mean - sat_mean) / sat_mean).abs()
            } else if unsat_mean.abs() > f64::EPSILON {
                1.0
            } else {
                0.0
            };
            let score = if relative_change < 0.02 {
                0.0
            } else {
                cached_score(cache, ScoreKey::OperatorRows(op), || sat, &unsat, true).unwrap_or(0.0)
            };
            scores.insert(op, score);
            if score >= self.config.record_count_threshold {
                changed.push(op);
            }
        }
        RecordCountResult { scores, changed }
    }

    // ----- Module SD -----

    /// Module SD: extract symptoms from the earlier modules, the event timeline and the
    /// instance/server metrics, then score the symptoms database against them.
    pub fn symptoms(
        &self,
        ctx: &DiagnosisContext<'_>,
        pd: &PlanDiffResult,
        cos: &CorrelatedOperatorsResult,
        da: &DependencyAnalysisResult,
        cr: &RecordCountResult,
    ) -> SymptomsResult {
        let symptoms = self.extract_symptoms(ctx, pd, cos, da, cr);
        let causes = self.symptoms_db.evaluate(&symptoms);
        SymptomsResult { symptoms, causes }
    }

    fn extract_symptoms(
        &self,
        ctx: &DiagnosisContext<'_>,
        pd: &PlanDiffResult,
        cos: &CorrelatedOperatorsResult,
        da: &DependencyAnalysisResult,
        cr: &RecordCountResult,
    ) -> Vec<Symptom> {
        let mut symptoms = Vec::new();
        if pd.same_plan {
            symptoms.push(Symptom::simple(SymptomKind::PlanUnchanged, "same plan used in both periods", 1.0));
        } else {
            symptoms.push(Symptom::simple(
                SymptomKind::PlanChanged,
                "different plans in the two periods",
                1.0,
            ));
        }

        // Storage components with anomalous metrics.
        let storage_kinds = [ComponentKind::StorageVolume, ComponentKind::StoragePool, ComponentKind::Disk];
        let mut anomalous_storage: Vec<(ComponentId, f64)> = Vec::new();
        for component in &da.correlated_components {
            if storage_kinds.contains(&component.kind) {
                let strength = da
                    .metric_scores
                    .iter()
                    .filter(|s| &s.component == component)
                    .map(|s| s.anomaly_score)
                    .fold(0.0_f64, f64::max);
                anomalous_storage.push((component.clone(), strength));
            }
        }
        for (component, strength) in &anomalous_storage {
            symptoms.push(Symptom::about(
                SymptomKind::VolumeMetricsAnomalous,
                component.clone(),
                format!("{component} has anomalous performance metrics"),
                *strength,
            ));
        }

        // Operators on contended storage: some correlated operator's inner path contains
        // an anomalous storage component.
        let contended_ops: Vec<OperatorId> = cos
            .correlated
            .iter()
            .copied()
            .filter(|op| {
                ctx.apg.inner_path(*op).iter().any(|c| anomalous_storage.iter().any(|(a, _)| a == c))
            })
            .collect();
        if !contended_ops.is_empty() {
            let subject = anomalous_storage
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
                .map(|(c, _)| c.clone())
                .expect("non-empty");
            symptoms.push(Symptom::about(
                SymptomKind::OperatorsOnContendedVolumeAnomalous,
                subject,
                format!(
                    "correlated operators {} depend on anomalous storage components",
                    contended_ops.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(", ")
                ),
                0.9,
            ));
        }

        // Configuration and system events in the change window.
        let window = ctx.change_window();
        let relevant_volumes: Vec<String> = if pd.same_plan {
            cos.correlated
                .iter()
                .flat_map(|op| ctx.apg.inner_path(*op))
                .filter(|c| c.kind == ComponentKind::StorageVolume)
                .map(|c| c.name.clone())
                .collect()
        } else {
            // Re-drill: a plan change leaves no correlated operators to narrow the
            // volume set, so consider every volume the *new* plan's leaves read.
            ctx.apg.leaf_volume_names().into_iter().collect()
        };
        for event in ctx.events.in_range(window) {
            match event.kind {
                EventKind::VolumeCreated => {
                    let new_volume = &event.component.name;
                    let shares_disks = ctx
                        .topology
                        .pool_of_volume(new_volume)
                        .map(|pool| {
                            relevant_volumes.iter().any(|v| {
                                ctx.topology.pool_of_volume(v).map(|p| p.name == pool.name).unwrap_or(false)
                            })
                        })
                        .unwrap_or(false);
                    if shares_disks {
                        symptoms.push(
                            Symptom::about(
                                SymptomKind::NewVolumeOnSharedDisks,
                                event.component.clone(),
                                event.detail.clone(),
                                1.0,
                            )
                            .at(event.time),
                        );
                    }
                }
                EventKind::ZoningChanged | EventKind::LunMappingChanged => {
                    symptoms.push(
                        Symptom::about(
                            SymptomKind::ZoningOrMappingChanged,
                            event.component.clone(),
                            event.detail.clone(),
                            1.0,
                        )
                        .at(event.time),
                    );
                }
                EventKind::DataPropertiesChanged => {
                    symptoms.push(
                        Symptom::about(
                            SymptomKind::DataPropertiesChangedEvent,
                            event.component.clone(),
                            event.detail.clone(),
                            1.0,
                        )
                        .at(event.time),
                    );
                }
                EventKind::LockContention => {
                    symptoms.push(
                        Symptom::about(
                            SymptomKind::LockContentionEvent,
                            event.component.clone(),
                            event.detail.clone(),
                            1.0,
                        )
                        .at(event.time),
                    );
                }
                EventKind::IndexDropped => {
                    symptoms.push(
                        Symptom::about(
                            SymptomKind::IndexDroppedEvent,
                            event.component.clone(),
                            event.detail.clone(),
                            1.0,
                        )
                        .at(event.time),
                    );
                }
                EventKind::ConfigParameterChanged => {
                    symptoms.push(
                        Symptom::about(
                            SymptomKind::ConfigParameterChangedEvent,
                            event.component.clone(),
                            event.detail.clone(),
                            1.0,
                        )
                        .at(event.time),
                    );
                }
                EventKind::RaidRebuildStarted => {
                    symptoms.push(
                        Symptom::about(
                            SymptomKind::RaidRebuildEvent,
                            event.component.clone(),
                            event.detail.clone(),
                            1.0,
                        )
                        .at(event.time),
                    );
                }
                EventKind::DiskFailure => {
                    symptoms.push(
                        Symptom::about(
                            SymptomKind::DiskFailureEvent,
                            event.component.clone(),
                            event.detail.clone(),
                            1.0,
                        )
                        .at(event.time),
                    );
                }
                _ => {}
            }
        }

        // External workloads active during the unsatisfactory period on disks shared
        // with the correlated operators' volumes.
        let unsat_window = window;
        for workload in ctx.workloads {
            if !workload.active.overlaps(&unsat_window) {
                continue;
            }
            let shares = relevant_volumes.iter().any(|v| {
                v == &workload.volume
                    || ctx.topology.volumes_sharing_disks(v).iter().any(|s| s == &workload.volume)
            });
            if shares {
                symptoms.push(Symptom::about(
                    SymptomKind::ExternalWorkloadOnSharedDisks,
                    ComponentId::external_workload(workload.name.clone()),
                    format!("external workload {} targets {}", workload.name, workload.volume),
                    1.0,
                ));
            }
        }

        // Record counts.
        if !cr.changed.is_empty() {
            symptoms.push(Symptom::simple(
                SymptomKind::RecordCountsChanged,
                format!(
                    "record counts changed for {}",
                    cr.changed.iter().map(|o| o.to_string()).collect::<Vec<_>>().join(", ")
                ),
                1.0,
            ));
        }

        // Instance-level and server-level signals. Instance metrics are physical
        // facts independent of the plan, so the re-drill pass baselines them
        // against the full satisfactory history (identical to the plan-filtered
        // set whenever that set is non-empty, i.e. whenever the plan is unchanged).
        let satisfactory = if pd.same_plan { ctx.satisfactory_runs() } else { ctx.baseline_runs() };
        let unsatisfactory = ctx.unsatisfactory_runs();
        let lock_sat = db_metric_samples(&satisfactory, &MetricName::LockWaitTime);
        let lock_unsat = db_metric_samples(&unsatisfactory, &MetricName::LockWaitTime);
        if !lock_unsat.is_empty() {
            let sat_mean = mean(&lock_sat);
            let unsat_mean = mean(&lock_unsat);
            if unsat_mean > 10.0 && unsat_mean > 3.0 * sat_mean.max(1.0) {
                symptoms.push(Symptom::simple(
                    SymptomKind::LockWaitHigh,
                    format!("lock wait rose from {sat_mean:.1}s to {unsat_mean:.1}s per run"),
                    0.95,
                ));
            }
        }
        let hit_sat = db_metric_samples(&satisfactory, &MetricName::BufferHitRatio);
        let hit_unsat = db_metric_samples(&unsatisfactory, &MetricName::BufferHitRatio);
        if !hit_sat.is_empty() && !hit_unsat.is_empty() && mean(&hit_unsat) < 0.7 * mean(&hit_sat) {
            symptoms.push(Symptom::simple(
                SymptomKind::BufferHitRatioDropped,
                "buffer hit ratio dropped by >30%",
                0.8,
            ));
        }
        let cpu_unsat = per_run_metric_means(
            ctx.store,
            &ComponentId::server(&ctx.apg.db_server),
            &MetricName::CpuUsagePercent,
            &unsatisfactory,
        );
        if !cpu_unsat.is_empty() && mean(&cpu_unsat) > 90.0 {
            symptoms.push(Symptom::simple(SymptomKind::CpuSaturated, "database server CPU above 90%", 0.9));
        }

        symptoms
    }

    // ----- Module IA -----

    /// Module IA: impact of each medium/high-confidence cause via inverse dependency
    /// analysis — the extra self time of the operators the cause affects, as a share of
    /// the extra plan time.
    pub fn impact_analysis(
        &self,
        ctx: &DiagnosisContext<'_>,
        cos: &CorrelatedOperatorsResult,
        da: &DependencyAnalysisResult,
        cr: &RecordCountResult,
        sd: &SymptomsResult,
    ) -> ImpactResult {
        let satisfactory = ctx.satisfactory_runs();
        let unsatisfactory = ctx.unsatisfactory_runs();
        let extra_plan = (mean(&samples(&unsatisfactory, |r| Some(r.elapsed_secs)))
            - mean(&samples(&satisfactory, |r| Some(r.elapsed_secs))))
        .max(1e-9);

        let extra_of = |op: OperatorId, f: &dyn Fn(&diads_db::OperatorRunStats) -> f64| -> f64 {
            let sat = samples(&satisfactory, |r| r.operator(op).map(f));
            let unsat = samples(&unsatisfactory, |r| r.operator(op).map(f));
            if sat.is_empty() || unsat.is_empty() {
                return 0.0;
            }
            (mean(&unsat) - mean(&sat)).max(0.0)
        };

        let mut impacts = Vec::new();
        for cause in &sd.causes {
            if cause.confidence == ConfidenceLevel::Low {
                continue;
            }
            let (ops, extra): (Vec<OperatorId>, f64) = match cause.cause_id.as_str() {
                "san-misconfiguration-contention"
                | "external-workload-contention"
                | "raid-rebuild"
                | "disk-failure" => {
                    // comp(R): the storage components implicated by the cause's subject
                    // (its pool and sibling volumes); op(R): correlated operators whose
                    // inner path touches them.
                    let related = related_storage_components(ctx, cause.subject.as_ref(), da);
                    let ops: Vec<OperatorId> = cos
                        .correlated
                        .iter()
                        .copied()
                        .filter(|op| ctx.apg.inner_path(*op).iter().any(|c| related.contains(c)))
                        .filter(|op| ctx.apg.plan.operator(*op).map(|n| n.kind.is_leaf()).unwrap_or(false))
                        .collect();
                    let extra = ops.iter().map(|&op| extra_of(op, &|o| o.io_secs)).sum();
                    (ops, extra)
                }
                "data-property-change" => {
                    let ops: Vec<OperatorId> = cr
                        .changed
                        .iter()
                        .copied()
                        .filter(|op| ctx.apg.plan.operator(*op).map(|n| n.kind.is_leaf()).unwrap_or(false))
                        .collect();
                    let ops = if ops.is_empty() { cr.changed.clone() } else { ops };
                    // Attribute the share of the unsatisfactory self time that is
                    // proportional to the record-count growth.
                    let mut extra = 0.0;
                    for &op in &ops {
                        let sat_rows =
                            mean(&samples(&satisfactory, |r| r.operator(op).map(|o| o.actual_rows)));
                        let unsat_rows =
                            mean(&samples(&unsatisfactory, |r| r.operator(op).map(|o| o.actual_rows)));
                        let unsat_self =
                            mean(&samples(&unsatisfactory, |r| r.operator(op).map(|o| o.self_secs)));
                        if sat_rows > 0.0 && unsat_rows > sat_rows {
                            let growth_share = 1.0 - sat_rows / unsat_rows;
                            extra += (unsat_self * growth_share).min(extra_of(op, &|o| o.self_secs));
                        }
                    }
                    (ops, extra)
                }
                "table-lock-contention" => {
                    let ops: Vec<OperatorId> = cos
                        .correlated
                        .iter()
                        .copied()
                        .filter(|&op| extra_of(op, &|o| o.lock_wait_secs) > 1.0)
                        .collect();
                    let extra = ops.iter().map(|&op| extra_of(op, &|o| o.lock_wait_secs)).sum();
                    (ops, extra)
                }
                "index-dropped" | "config-parameter-change" => {
                    // A plan change explains the entire slowdown.
                    (cos.correlated.clone(), extra_plan)
                }
                "cpu-saturation" => {
                    let ops = cos.correlated.clone();
                    let extra = ops.iter().map(|&op| extra_of(op, &|o| o.cpu_secs)).sum();
                    (ops, extra)
                }
                _ => {
                    // Generic fallback: extra self time of the correlated leaf operators.
                    let ops: Vec<OperatorId> = cos
                        .correlated
                        .iter()
                        .copied()
                        .filter(|op| ctx.apg.plan.operator(*op).map(|n| n.kind.is_leaf()).unwrap_or(false))
                        .collect();
                    let extra = ops.iter().map(|&op| extra_of(op, &|o| o.self_secs)).sum();
                    (ops, extra)
                }
            };
            impacts.push(CauseImpact {
                cause_id: cause.cause_id.clone(),
                impact_pct: (extra / extra_plan * 100.0).clamp(0.0, 100.0),
                affected_operators: ops,
            });
        }
        ImpactResult { impacts }
    }

    /// Builds the final report from the module results.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_report(
        &self,
        ctx: &DiagnosisContext<'_>,
        pd: &PlanDiffResult,
        cos: &CorrelatedOperatorsResult,
        da: &DependencyAnalysisResult,
        cr: &RecordCountResult,
        sd: &SymptomsResult,
        ia: &ImpactResult,
    ) -> DiagnosisReport {
        let mut causes: Vec<RankedCause> = sd
            .causes
            .iter()
            .map(|c| {
                // The evidence trail: the SD-side symptom matches, then the operator
                // set IA attributed the impact over. Both are deterministic, so they
                // participate in report equality.
                let mut evidence: Vec<String> = c
                    .supporting_symptoms
                    .iter()
                    .map(|s| format!("{}: {} (strength {:.2})", s.kind.label(), s.detail, s.strength))
                    .collect();
                let impact = ia.impacts.iter().find(|i| i.cause_id == c.cause_id);
                if let Some(impact) = impact {
                    if !impact.affected_operators.is_empty() {
                        evidence.push(format!(
                            "impact computed over operators {}",
                            impact
                                .affected_operators
                                .iter()
                                .map(|o| o.to_string())
                                .collect::<Vec<_>>()
                                .join(", ")
                        ));
                    }
                }
                RankedCause {
                    cause_id: c.cause_id.clone(),
                    description: c.description.clone(),
                    subject: c.subject.clone(),
                    confidence_score: c.confidence_score,
                    confidence: c.confidence,
                    impact_pct: impact.map(|i| i.impact_pct).unwrap_or(0.0),
                    evidence,
                }
            })
            .collect();
        causes.sort_by(|a, b| {
            (b.confidence_score, b.impact_pct)
                .partial_cmp(&(a.confidence_score, a.impact_pct))
                .expect("finite scores")
        });
        DiagnosisReport {
            query: ctx.apg.query.clone(),
            satisfactory_mean_secs: ctx.history.mean_satisfactory_elapsed().unwrap_or(0.0),
            unsatisfactory_mean_secs: ctx.history.mean_unsatisfactory_elapsed().unwrap_or(0.0),
            plan_changed: !pd.same_plan,
            plan_change_causes: pd.change_causes.iter().map(|c| c.description.clone()).collect(),
            correlated_operators: cos.correlated.iter().map(|o| o.to_string()).collect(),
            correlated_components: da.correlated_components.clone(),
            record_count_changes: cr.changed.iter().map(|o| o.to_string()).collect(),
            causes,
            provenance: Default::default(),
        }
    }
}

/// Brings an engine slot's cached fits up to date after runs were appended to the
/// history — the pre-pass of incremental re-diagnosis.
///
/// For every cached variable: a *positive* fit is grown by merge-inserting the
/// samples the new runs (`index >= prior_runs`) contribute, exactly mirroring how
/// each module derives its satisfactory sample (CO: operator elapsed times over
/// plan-filtered runs, CR: operator record counts over plan-filtered runs, DA:
/// per-run metric means over baseline runs); a *negative* entry is dropped, because
/// the new runs may have pushed the
/// variable over [`MIN_SATISFACTORY_SAMPLES`] — the next lookup re-derives it from
/// the full sample. [`diads_stats::Kde::extended`] is bit-identical to a cold refit
/// of the concatenated sample, so diagnosing with the extended cache matches a cold
/// batch diagnosis exactly.
pub(crate) fn extend_cache_for_new_runs(
    cache: &mut DiagnosisCache,
    ctx: &DiagnosisContext<'_>,
    prior_runs: usize,
) {
    if prior_runs >= ctx.history.len() {
        // No runs were appended: every cached sample is already exact.
        return;
    }
    // Operator-level fits (CO/CR) are always derived from the plan-filtered
    // satisfactory runs; metric fits (DA, and the re-drill pass) are derived from
    // [`DiagnosisContext::baseline_runs`], which falls back to the full satisfactory
    // history when a plan change empties the plan-filtered set. The two sets are
    // identical whenever the plan-filtered set is non-empty, and the engine falls
    // back to a cold diagnosis when the appended runs flip that emptiness (see the
    // scope-flip guard in `DiagnosisEngine::diagnose_incremental`), so each delta
    // below exactly mirrors the sample the corresponding module scores with.
    let new_satisfactory: Vec<&LabeledRun> =
        ctx.satisfactory_runs().into_iter().filter(|r| r.index >= prior_runs).collect();
    let new_baseline: Vec<&LabeledRun> =
        ctx.baseline_runs().into_iter().filter(|r| r.index >= prior_runs).collect();
    let keys: Vec<ScoreKey> = cache.entries().map(|(k, _)| *k).collect();
    for key in keys {
        if cache.get(&key).is_none() {
            cache.remove(&key);
            continue;
        }
        let delta: Vec<f64> = match key {
            ScoreKey::OperatorElapsed(op) => {
                samples(&new_satisfactory, |r| r.operator(op).map(|o| o.elapsed_secs))
            }
            ScoreKey::OperatorRows(op) => {
                samples(&new_satisfactory, |r| r.operator(op).map(|o| o.actual_rows))
            }
            ScoreKey::Metric(metric_key) => per_run_metric_means_by_key(ctx.store, metric_key, &new_baseline),
        };
        if !cache.extend_fit(&key, &delta) {
            cache.remove(&key);
        }
    }
}

// ---------------------------------------------------------------------------
// Small shared helpers
// ---------------------------------------------------------------------------

fn samples<F>(runs: &[&LabeledRun], f: F) -> Vec<f64>
where
    F: Fn(&diads_db::QueryRunRecord) -> Option<f64>,
{
    runs.iter().filter_map(|r| f(&r.record)).collect()
}

fn db_metric_samples(runs: &[&LabeledRun], metric: &MetricName) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.record.db_metrics.iter().find(|(m, _)| m == metric).map(|(_, v)| *v))
        .collect()
}

/// The padded monitoring window of one run (coarse 5-minute samples overlapping the
/// run's edges are included).
fn run_window(run: &LabeledRun) -> TimeRange {
    TimeRange::new(
        run.record.start.minus(Duration::from_mins(5)),
        run.record.end.plus(Duration::from_mins(5)),
    )
}

/// The mean of one metric over each run's [`run_window`], in run order, skipping
/// runs whose window holds no points; empty when the store has no such series.
fn per_run_metric_means(
    store: &MetricStore,
    component: &ComponentId,
    metric: &MetricName,
    runs: &[&LabeledRun],
) -> Vec<f64> {
    match store.key_of(component, metric) {
        Some(key) => per_run_metric_means_by_key(store, key, runs),
        None => Vec::new(),
    }
}

/// [`per_run_metric_means`] by interned key. The series is looked up once and
/// walked once by [`TimeSeries::means_in`](diads_monitor::series::TimeSeries::means_in):
/// the runs come in history order, so their padded windows start in time order and
/// the cursor only moves forward; a run that started before its predecessor costs
/// a restart from the front, never a different mean.
fn per_run_metric_means_by_key(store: &MetricStore, key: MetricKey, runs: &[&LabeledRun]) -> Vec<f64> {
    store.series_by_key(key).map_or_else(Vec::new, |series| {
        series.means_in(runs.iter().map(|r| run_window(r))).flatten().collect()
    })
}

/// Mean with the workflow's "no evidence reads as zero" convention. The underlying
/// single code path (and its empty-sample policy) is [`diads_stats::summary::mean`] —
/// the same one [`diads_stats::Kde::anomaly_score_mean`] scores sets through.
fn mean(values: &[f64]) -> f64 {
    diads_stats::summary::mean(values).unwrap_or(0.0)
}

fn related_storage_components(
    ctx: &DiagnosisContext<'_>,
    subject: Option<&ComponentId>,
    da: &DependencyAnalysisResult,
) -> Vec<ComponentId> {
    let storage_kinds = [ComponentKind::StorageVolume, ComponentKind::StoragePool, ComponentKind::Disk];
    let anomalous: Vec<ComponentId> =
        da.correlated_components.iter().filter(|c| storage_kinds.contains(&c.kind)).cloned().collect();
    let Some(subject) = subject else { return anomalous };
    // Resolve the subject to a pool, then return that pool, its volumes and disks.
    let pool_name = match subject.kind {
        ComponentKind::StoragePool => Some(subject.name.clone()),
        ComponentKind::StorageVolume => ctx.topology.pool_of_volume(&subject.name).map(|p| p.name.clone()),
        ComponentKind::Disk => ctx
            .topology
            .pool_names()
            .into_iter()
            .find(|p| ctx.topology.pool(p).map(|pp| pp.disks.contains(&subject.name)).unwrap_or(false)),
        _ => None,
    };
    match pool_name {
        Some(pool) => {
            let mut out = vec![ComponentId::pool(pool.clone())];
            for v in ctx.topology.volumes_in_pool(&pool) {
                out.push(ComponentId::volume(v.name.clone()));
            }
            if let Some(p) = ctx.topology.pool(&pool) {
                for d in &p.disks {
                    out.push(ComponentId::disk(d.clone()));
                }
            }
            out
        }
        None => anomalous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workflow_config_defaults_match_the_paper() {
        let cfg = WorkflowConfig::default();
        assert_eq!(cfg.anomaly_threshold, 0.8);
        assert!(cfg.prune_by_dependency_paths);
    }

    fn score(satisfactory: &[f64], unsatisfactory: &[f64], two_sided: bool) -> f64 {
        let mut cache = DiagnosisCache::new();
        cached_score(
            &mut cache,
            ScoreKey::OperatorElapsed(OperatorId(1)),
            || satisfactory.to_vec(),
            unsatisfactory,
            two_sided,
        )
        .unwrap_or(0.0)
    }

    #[test]
    fn anomaly_score_helpers_handle_small_samples() {
        assert_eq!(score(&[1.0, 2.0], &[10.0], false), 0.0);
        assert_eq!(score(&[1.0, 2.0, 3.0, 2.5], &[], false), 0.0);
        assert!(score(&[1.0, 1.1, 0.9, 1.05, 0.95], &[5.0], false) > 0.95);
        assert!(score(&[1.0, 1.1, 0.9, 1.05, 0.95], &[1.0], true) < 0.5);
        assert!(score(&[10.0, 10.5, 9.5, 10.2, 9.8], &[2.0], true) > 0.9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn cached_score_fits_each_variable_once() {
        let mut cache = DiagnosisCache::new();
        let sat = [1.0, 1.1, 0.9, 1.05, 0.95];
        let mut fits = 0;
        for _ in 0..4 {
            let s = cached_score(
                &mut cache,
                ScoreKey::OperatorElapsed(OperatorId(7)),
                || {
                    fits += 1;
                    sat.to_vec()
                },
                &[5.0],
                false,
            );
            assert_eq!(fits, 1, "fit exactly once");
            assert!(s.unwrap_or(0.0) > 0.95);
        }
        assert_eq!(fits, 1);
        // A different variable gets its own fit.
        cached_score(&mut cache, ScoreKey::OperatorRows(OperatorId(7)), || sat.to_vec(), &[1.0], true);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn impact_result_lookup_defaults_to_zero() {
        let r = ImpactResult::default();
        assert_eq!(r.impact_of("anything"), 0.0);
    }
}
