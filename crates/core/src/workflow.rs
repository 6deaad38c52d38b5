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
use diads_monitor::series::TimeSeries;
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
/// re-running modules, repeated diagnoses of one context, and incremental
/// re-diagnoses extending a slot's fits. All variants are `Copy`.
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

/// Scores `unsat` against the cached (or freshly fitted) KDE of `key`.
///
/// Returns `None` when the variable is not scoreable — fewer than
/// [`MIN_SATISFACTORY_SAMPLES`] satisfactory observations (or an unfittable sample).
/// This is the single scoring code path for every module: CO and CR map `None` to a
/// 0.0 score, DA skips the variable entirely (the pre-cache behaviour of each). An
/// empty `unsatisfactory` set scores 0.0 — "no evidence" never reads as an anomaly.
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
    let score = if two_sided {
        kde.two_sided_score_mean(unsatisfactory)
    } else {
        kde.anomaly_score_mean(unsatisfactory)
    };
    Some(score.unwrap_or(0.0))
}

/// Anomaly-score threshold for operators and component metrics (the paper uses 0.8).
const ANOMALY_THRESHOLD: f64 = 0.8;

/// Two-sided score threshold for record-count changes.
const RECORD_COUNT_THRESHOLD: f64 = 0.8;

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
    pub(crate) fn change_window(&self) -> TimeRange {
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

/// The DIADS diagnosis workflow. Module SD scores against the built-in
/// [`SymptomsDatabase`].
#[derive(Debug, Clone, Copy)]
pub struct DiagnosisWorkflow {
    /// Whether dependency-path pruning is enabled (the ablation flag: when off, DA
    /// scores *every* monitored component instead of only those on the correlated
    /// operators' dependency paths).
    pub prune_by_dependency_paths: bool,
}

impl Default for DiagnosisWorkflow {
    fn default() -> Self {
        DiagnosisWorkflow { prune_by_dependency_paths: true }
    }
}

impl DiagnosisWorkflow {
    /// A workflow with the paper's thresholds and dependency-path pruning on.
    pub fn new() -> Self {
        Self::default()
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
            if score >= ANOMALY_THRESHOLD {
                correlated.push(op.id);
            }
        }
        CorrelatedOperatorsResult { scores, correlated }
    }

    // ----- Module DA -----

    /// The non-operator components DA scores, in deterministic order: those on the
    /// dependency paths of the `correlated` operators, or — for the **re-drill**
    /// pass (`None`), where a plan change leaves no correlated operators to prune
    /// by — every one in the (new) plan's APG, still far narrower than the unpruned
    /// every-component ablation.
    fn components_to_score(
        &self,
        ctx: &DiagnosisContext<'_>,
        correlated: Option<&[OperatorId]>,
    ) -> Vec<ComponentId> {
        let mut components: Vec<ComponentId> = match (self.prune_by_dependency_paths, correlated) {
            (true, Some(operators)) => ctx.apg.components_on_paths(operators).into_iter().collect(),
            (true, None) => ctx.apg.all_components().into_iter().collect(),
            (false, _) => ctx.store.components(),
        };
        components.retain(|c| c.kind != ComponentKind::PlanOperator);
        components
    }

    /// Module DA: anomaly scores for the performance metrics of components on the
    /// correlated operators' dependency paths (or of every component when pruning is
    /// disabled — the ablation the paper's §1.1 argues against).
    pub fn dependency_analysis(
        &self,
        ctx: &DiagnosisContext<'_>,
        cos: &CorrelatedOperatorsResult,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let components = self.components_to_score(ctx, Some(&cos.correlated));
        self.score_components(ctx, components, &ctx.satisfactory_runs(), cache)
    }

    /// Module DA, **re-drill** mode: invoked by the standard pipeline when PD has
    /// reported a plan change. The component set widens to every non-operator
    /// component of the new plan's APG (`Self::components_to_score`) and the
    /// satisfactory baseline falls back to the full satisfactory history
    /// ([`DiagnosisContext::baseline_runs`]) — component metrics are plan-independent
    /// physical facts, so the old plan's runs remain a valid baseline for them.
    pub fn dependency_analysis_redrill(
        &self,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let components = self.components_to_score(ctx, None);
        self.score_components(ctx, components, &ctx.baseline_runs(), cache)
    }

    /// The DA scoring loop: scores every component in order against `satisfactory`.
    /// The windows both samples read are built once, for every component.
    fn score_components(
        &self,
        ctx: &DiagnosisContext<'_>,
        components: Vec<ComponentId>,
        satisfactory: &[&LabeledRun],
        cache: &mut DiagnosisCache,
    ) -> DependencyAnalysisResult {
        let windows = DaWindows::new(ctx.history, satisfactory, &ctx.unsatisfactory_runs());
        let mut metric_scores = Vec::new();
        let mut correlated_components = Vec::new();
        for component in components {
            let (scores, flagged) = self.score_component(ctx, &component, &windows, cache);
            metric_scores.extend(scores);
            if flagged {
                correlated_components.push(component);
            }
        }
        DependencyAnalysisResult { metric_scores, correlated_components }
    }

    /// Scores every metric of one component. The component's series are walked by
    /// interned key (a contiguous range scan) and per-run means are computed straight
    /// off borrowed slices. A key the cache has never seen reads both samples in one
    /// forward walk over the series, and its miss fits the baseline sample from that
    /// walk; a key the cache already holds walks only the unsatisfactory windows,
    /// since its baseline fit (or its "not scoreable" entry) is reused.
    fn score_component(
        &self,
        ctx: &DiagnosisContext<'_>,
        component: &ComponentId,
        windows: &DaWindows,
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
            let Some(series) = store.series_by_key(key) else { continue };
            let score_key = ScoreKey::Metric(key);
            // Only a key with no entry can miss: a disabled cache holds no entries,
            // so every lookup it refits reads the baseline here too.
            let (unsat, baseline) = windows.means(series, cache.probe(&score_key).is_none());
            if unsat.is_empty() {
                continue;
            }
            let metric = store.resolve(key).1;
            let score = cached_score(cache, score_key, || baseline, &unsat, !metric.higher_is_worse());
            let Some(score) = score else {
                // Fewer than MIN_SATISFACTORY_SAMPLES satisfactory observations: the
                // variable is not scoreable (the pre-refactor loop `continue`d here).
                continue;
            };
            if score >= ANOMALY_THRESHOLD {
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
            if score >= RECORD_COUNT_THRESHOLD {
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
        let causes = SymptomsDatabase::builtin().evaluate(&symptoms);
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
            let kind = match event.kind {
                EventKind::VolumeCreated => {
                    let shares_disks = ctx
                        .topology
                        .pool_of_volume(&event.component.name)
                        .map(|pool| {
                            relevant_volumes.iter().any(|v| {
                                ctx.topology.pool_of_volume(v).map(|p| p.name == pool.name).unwrap_or(false)
                            })
                        })
                        .unwrap_or(false);
                    if !shares_disks {
                        continue;
                    }
                    SymptomKind::NewVolumeOnSharedDisks
                }
                EventKind::ZoningChanged | EventKind::LunMappingChanged => {
                    SymptomKind::ZoningOrMappingChanged
                }
                EventKind::DataPropertiesChanged => SymptomKind::DataPropertiesChangedEvent,
                EventKind::LockContention => SymptomKind::LockContentionEvent,
                EventKind::IndexDropped => SymptomKind::IndexDroppedEvent,
                EventKind::ConfigParameterChanged => SymptomKind::ConfigParameterChangedEvent,
                EventKind::RaidRebuildStarted => SymptomKind::RaidRebuildEvent,
                EventKind::DiskFailure => SymptomKind::DiskFailureEvent,
                _ => continue,
            };
            symptoms.push(
                Symptom::about(kind, event.component.clone(), event.detail.clone(), 1.0).at(event.time),
            );
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
/// walked once by [`TimeSeries::means_in`]: the runs come in history order, so their
/// padded windows start in time order and the cursor only moves forward; a run that
/// started before its predecessor costs a restart from the front, never a different
/// mean. Module DA does not call this: it reads both of its samples in one walk
/// through [`DaWindows::means`]. The symptoms checks and the incremental extension
/// pass, which each read one set of runs, do.
fn per_run_metric_means_by_key(store: &MetricStore, key: MetricKey, runs: &[&LabeledRun]) -> Vec<f64> {
    store.series_by_key(key).map_or_else(Vec::new, |series| {
        series.means_in(runs.iter().map(|r| run_window(r))).flatten().collect()
    })
}

/// The run windows module DA reads: the padded [`run_window`] of every baseline and
/// every unsatisfactory run, in history order, each tagged with the sample it
/// belongs to.
///
/// Both samples are order-preserving filters of the history, so one pass over
/// `history.runs` tags them, and each sample's windows keep that sample's order.
/// One [`TimeSeries::means_in`] walk over all the windows then yields both samples,
/// each bit-identical to walking its runs alone (see [`per_run_metric_means_by_key`]).
struct DaWindows {
    /// `(window, unsatisfactory)` in history order.
    tagged: Vec<(TimeRange, bool)>,
    unsatisfactory: usize,
}

impl DaWindows {
    fn new(history: &RunHistory, baseline: &[&LabeledRun], unsatisfactory: &[&LabeledRun]) -> Self {
        let mut baseline = baseline.iter().peekable();
        let mut unsat = unsatisfactory.iter().peekable();
        let mut tagged = Vec::with_capacity(baseline.len() + unsat.len());
        for run in &history.runs {
            if baseline.next_if(|r| std::ptr::eq(**r, run)).is_some() {
                tagged.push((run_window(run), false));
            } else if unsat.next_if(|r| std::ptr::eq(**r, run)).is_some() {
                tagged.push((run_window(run), true));
            }
        }
        debug_assert!(
            baseline.peek().is_none() && unsat.peek().is_none(),
            "DA's run sets must be filters of the history, in its order"
        );
        DaWindows { tagged, unsatisfactory: unsatisfactory.len() }
    }

    /// The per-run means of `series` as `(unsatisfactory, baseline)`, skipping runs
    /// whose window holds no points. With `with_baseline` unset only the
    /// unsatisfactory windows are walked and the baseline sample is empty.
    fn means(&self, series: &TimeSeries, with_baseline: bool) -> (Vec<f64>, Vec<f64>) {
        let mut unsat = Vec::with_capacity(self.unsatisfactory);
        let mut baseline =
            Vec::with_capacity(if with_baseline { self.tagged.len() - self.unsatisfactory } else { 0 });
        let walked = self.tagged.iter().filter(|(_, unsatisfactory)| with_baseline || *unsatisfactory);
        let means = series.means_in(walked.clone().map(|(window, _)| *window));
        for ((_, unsatisfactory), mean) in walked.zip(means) {
            if let Some(mean) = mean {
                if *unsatisfactory {
                    unsat.push(mean)
                } else {
                    baseline.push(mean)
                }
            }
        }
        (unsat, baseline)
    }
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
        assert_eq!(ANOMALY_THRESHOLD, 0.8);
        assert_eq!(RECORD_COUNT_THRESHOLD, 0.8);
        assert!(DiagnosisWorkflow::new().prune_by_dependency_paths);
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
