//! The diagnosis pipeline — the single execution path of the workflow.
//!
//! The paper's Figure-2 workflow is one fixed drill-down: PD → CO → DA → CR → SD →
//! IA, combining ML and domain knowledge. This module runs it:
//!
//! * [`Stage`] names the six stages. Every driver runs them in that order; the
//!   interactive session runs them one at a time.
//! * [`DiagnosisState`] is the typed **evidence ledger** stages read and write: one
//!   slot per module result, replacing the ad-hoc locals the monolithic workflow
//!   used to thread between modules.
//! * [`DiagnosisPipeline`] is the driver: the workflow whose module methods the
//!   stages call, plus an optional event sink and an optional cancel token. Every
//!   run emits a [`crate::diagnosis::DiagnosisReport`] carrying per-stage
//!   provenance (timings, cache hit/miss deltas, engine warm/cold, re-drill
//!   markers) next to the findings.
//!
//! # Streaming: the typed event bus
//!
//! Progress streams through a **typed event vocabulary** ([`PipelineEvent`])
//! delivered to a run's one [`EventSink`], set with [`DiagnosisPipeline::with_sink`]
//! (or handed to the engine's `*_streamed` entry points):
//!
//! | event | fired |
//! |---|---|
//! | [`PipelineEvent::StageStarted`] | before a stage executes (or replays) |
//! | [`PipelineEvent::StageCompleted`] | after, with the stage's [`StageProvenance`] |
//! | [`PipelineEvent::CausesRanked`] | after SD fills the ledger's cause ranking |
//! | [`PipelineEvent::RemediationPlanned`] | when the service loop plans remediation for a report |
//! | [`PipelineEvent::RunCompleted`] | after assembly, with the full report |
//! | [`PipelineEvent::Cancelled`] | when a [`CancelToken`] stops the run |
//!
//! # One executor
//!
//! Every run walks the six stages through one private executor, starting from a
//! ledger whose filled slots it skips. For each other stage it either
//! **executes** the stage or **replays** its slot from a prior evidence ledger. A
//! stage executes when there is no prior, when an input it reads changed since the
//! prior was recorded (see [`LedgerInputs`]), or when the result of a stage it
//! depends on changed. Cancellation checks, event emission, provenance and the
//! stamping of [`LedgerInputs`] therefore live in one place, and every driver emits
//! the same per-stage sequence; a subscriber can tell which driver served it only
//! through provenance. The drivers are:
//!
//! * [`DiagnosisPipeline::run`] and [`DiagnosisPipeline::run_with_cache`]: batch,
//!   with no prior;
//! * the fleet-level [`crate::engine::DiagnosisEngine`], through its four entry
//!   points `diagnose`, `diagnose_streamed`, `diagnose_incremental` and
//!   `diagnose_incremental_streamed`: the standard pipeline over an engine slot,
//!   with the slot's recorded ledger as the prior when an incremental watermark
//!   still holds. A run whose every stage replays hands back the recorded
//!   findings with fresh provenance and never builds the APG;
//! * the interactive [`crate::session::WorkflowSession`]: one stage at a time
//!   through `DiagnosisPipeline::run_stage`, which is the executor's per-stage
//!   body; its `finish` hands the session's ledger, cache and stage trail to the
//!   executor, which runs the stages whose slots are still empty.
//!
//! Cancellation is checked **between stages**: a cancelled run stops before the next
//! stage executes, emits [`PipelineEvent::Cancelled`], and still returns a
//! well-formed report assembled from the partial ledger, with
//! [`crate::diagnosis::DiagnosisProvenance::cancelled_at`] naming the stage that
//! never ran. Completed slots keep their evidence, downstream slots stay empty, and
//! a [`crate::session::WorkflowSession`] resumed after [`CancelToken::reset`]
//! re-runs only the stages the cancellation skipped.
//!
//! When PD reports a plan change the pipeline does **not** stop at the plan-change
//! causes: the drill-down stages re-run against the *new* plan's APG (the
//! **re-drill** pass — DA widens to every component the new plan depends on, SD
//! falls back to its leaf volumes, both baselined on the full satisfactory
//! history), so a concurrent SAN-side cause surfaces next to the plan change
//! instead of being masked by it (the paper's "my-problem-or-yours" syndrome).

use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use diads_monitor::EventStore;

use crate::apg::Apg;
use crate::diagnosis::{DiagnosisProvenance, DiagnosisReport, StageProvenance};
use crate::testbed::ScenarioOutcome;
use crate::workflow::{
    CorrelatedOperatorsResult, DependencyAnalysisResult, DiagnosisCache, DiagnosisContext, DiagnosisWorkflow,
    ImpactResult, PlanDiffResult, RecordCountResult, SymptomsResult,
};

/// The six standard drill-down stages, in the paper's Figure-2 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// PD — plan diffing and plan-change analysis.
    PlanDiffing,
    /// CO — KDE anomaly scores over operator running times.
    CorrelatedOperators,
    /// DA — anomaly scores over dependency-path component metrics.
    DependencyAnalysis,
    /// CR — two-sided change scores over operator record counts.
    RecordCounts,
    /// SD — symptom extraction and symptoms-database matching.
    Symptoms,
    /// IA — impact analysis (inverse dependency analysis).
    ImpactAnalysis,
}

impl Stage {
    /// The standard stages in workflow order.
    pub(crate) const ALL: [Stage; 6] = [
        Stage::PlanDiffing,
        Stage::CorrelatedOperators,
        Stage::DependencyAnalysis,
        Stage::RecordCounts,
        Stage::Symptoms,
        Stage::ImpactAnalysis,
    ];

    /// The stage's short name — the module label of Figures 2 and 7.
    pub fn name(self) -> &'static str {
        match self {
            Stage::PlanDiffing => "PD",
            Stage::CorrelatedOperators => "CO",
            Stage::DependencyAnalysis => "DA",
            Stage::RecordCounts => "CR",
            Stage::Symptoms => "SD",
            Stage::ImpactAnalysis => "IA",
        }
    }

    /// The slot index in workflow order (the position in `Stage::ALL`).
    fn index(self) -> usize {
        self as usize
    }

    /// Whether the stage runs in re-drill mode when PD found a plan change. PD
    /// derives the plan change itself and IA works off whatever causes SD
    /// produced, so neither re-drills.
    fn redrills(self) -> bool {
        !matches!(self, Stage::PlanDiffing | Stage::ImpactAnalysis)
    }

    /// The stages whose *results* feed this stage: the ledger slots it reads, plus
    /// PD for CO, DA and CR, which consult PD's verdict through
    /// [`DiagnosisState::plan_changed`] (a changed plan flips DA — and SD, via
    /// `pd` — into re-drill mode). The interactive session runs a stage's unmet
    /// dependencies first; incremental re-diagnosis re-runs a stage when one of
    /// them produced a different result.
    pub(crate) fn staleness_deps(self) -> &'static [Stage] {
        match self {
            Stage::PlanDiffing => &[],
            Stage::CorrelatedOperators => &[Stage::PlanDiffing],
            Stage::DependencyAnalysis => &[Stage::PlanDiffing, Stage::CorrelatedOperators],
            Stage::RecordCounts => &[Stage::PlanDiffing, Stage::CorrelatedOperators],
            Stage::Symptoms => &[
                Stage::PlanDiffing,
                Stage::CorrelatedOperators,
                Stage::DependencyAnalysis,
                Stage::RecordCounts,
            ],
            Stage::ImpactAnalysis => {
                &[Stage::CorrelatedOperators, Stage::DependencyAnalysis, Stage::RecordCounts, Stage::Symptoms]
            }
        }
    }

    /// Whether this stage's execution reads the given input component at all.
    ///
    /// The sensitivity map behind incremental re-diagnosis: a stage only goes stale
    /// when a component it actually reads changed (or a dependency's result did).
    /// PD reads the run history and the event timeline; CO/CR/IA score run records
    /// only; DA additionally scores per-run metric-store means; SD reads all three.
    fn reads(self, component: InputComponent) -> bool {
        use InputComponent::*;
        match self {
            Stage::PlanDiffing => matches!(component, History | Events),
            Stage::CorrelatedOperators => matches!(component, History),
            Stage::DependencyAnalysis => matches!(component, History | Store),
            Stage::RecordCounts => matches!(component, History),
            Stage::Symptoms => true,
            Stage::ImpactAnalysis => matches!(component, History),
        }
    }
}

/// One of the three inputs a stage may read (see [`Stage::reads`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputComponent {
    /// The labelled run history.
    History,
    /// The event timeline.
    Events,
    /// The metric store.
    Store,
}

/// Content fingerprints of the three diagnosis inputs a ledger's results were
/// computed from. Recorded into [`DiagnosisState::inputs`] by evidence-recording
/// runs; incremental re-diagnosis diffs them component-by-component to decide which
/// stages went stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerInputs {
    /// [`crate::runs::RunHistory::fingerprint`] of the diagnosed history.
    pub history: u64,
    /// [`diads_monitor::EventStore::fingerprint`] of the merged event timeline.
    pub events: u64,
    /// `MetricStore::content_fingerprint` of the metric store.
    pub store: u64,
}

impl LedgerInputs {
    fn stage_stale(&self, prior: &LedgerInputs, stage: Stage) -> bool {
        (self.history != prior.history && stage.reads(InputComponent::History))
            || (self.events != prior.events && stage.reads(InputComponent::Events))
            || (self.store != prior.store && stage.reads(InputComponent::Store))
    }
}

/// The typed evidence ledger of one diagnosis: every module result that the
/// monolithic workflow used to thread through ad-hoc locals, as an inspectable value.
/// Stages read their inputs from here and write their output back; the interactive
/// session edits it between stages.
#[derive(Debug, Clone, Default)]
pub struct DiagnosisState {
    /// Module PD's result, once executed.
    pub pd: Option<PlanDiffResult>,
    /// Module CO's result, once executed.
    pub cos: Option<CorrelatedOperatorsResult>,
    /// Module DA's result, once executed.
    pub da: Option<DependencyAnalysisResult>,
    /// Module CR's result, once executed.
    pub cr: Option<RecordCountResult>,
    /// Module SD's result, once executed.
    pub sd: Option<SymptomsResult>,
    /// Module IA's result, once executed.
    pub ia: Option<ImpactResult>,
    /// Fingerprints of the inputs the results were computed from, when the
    /// ledger was produced by an evidence-recording run (engine-backed diagnoses).
    /// `None` for plain pipeline runs; incremental re-diagnosis requires it.
    pub inputs: Option<LedgerInputs>,
}

impl DiagnosisState {
    /// Whether PD ran and found a plan change. The scoring stages consult this to
    /// pick their **re-drill** mode: a changed plan makes operator-level correlation
    /// meaningless (operator ids are per-plan structural positions), so CO/CR still
    /// run but their plan-filtered satisfactory sample is empty and they score
    /// nothing, while DA widens to every component of the new plan's APG and SD
    /// falls back to the new plan's leaf volumes — both baselined against the full
    /// satisfactory history, so concurrent SAN-side causes surface alongside the
    /// plan-change causes instead of being masked by them. A PD that has not run
    /// reads as "no plan-change evidence".
    pub fn plan_changed(&self) -> bool {
        self.pd.as_ref().is_some_and(|pd| !pd.same_plan)
    }

    /// Whether the given stage's ledger slot is filled.
    pub fn is_complete(&self, stage: Stage) -> bool {
        match stage {
            Stage::PlanDiffing => self.pd.is_some(),
            Stage::CorrelatedOperators => self.cos.is_some(),
            Stage::DependencyAnalysis => self.da.is_some(),
            Stage::RecordCounts => self.cr.is_some(),
            Stage::Symptoms => self.sd.is_some(),
            Stage::ImpactAnalysis => self.ia.is_some(),
        }
    }

    /// Names of the filled slots, in workflow order.
    pub fn completed(&self) -> Vec<&'static str> {
        Stage::ALL.iter().filter(|s| self.is_complete(**s)).map(|s| s.name()).collect()
    }

    /// Empties one stage's ledger slot. Also drops the recorded input fingerprints:
    /// an edited ledger no longer describes one consistent run, so it must not seed
    /// incremental replay.
    fn clear_slot(&mut self, stage: Stage) {
        self.inputs = None;
        match stage {
            Stage::PlanDiffing => self.pd = None,
            Stage::CorrelatedOperators => self.cos = None,
            Stage::DependencyAnalysis => self.da = None,
            Stage::RecordCounts => self.cr = None,
            Stage::Symptoms => self.sd = None,
            Stage::ImpactAnalysis => self.ia = None,
        }
    }

    /// Clears every slot strictly after `stage` in workflow order — the
    /// downstream-invalidation rule for interactive edits (editing CO's result
    /// invalidates DA, CR, SD and IA).
    pub fn clear_after(&mut self, stage: Stage) {
        for s in &Stage::ALL[stage.index() + 1..] {
            self.clear_slot(*s);
        }
    }
}

/// What a report reads for a PD slot that never ran (a cancelled run's partial
/// ledger): no plan-diff evidence, as if the plan were stable.
fn missing_pd() -> PlanDiffResult {
    PlanDiffResult {
        same_plan: true,
        satisfactory_plans: Vec::new(),
        unsatisfactory_plans: Vec::new(),
        change_causes: Vec::new(),
    }
}

impl Stage {
    /// Executes the stage: reads its inputs from `state`, scores through `cache`
    /// and writes its result back into `state`. A stage computes its slot only
    /// from filled upstream slots; while one it reads is empty, its own slot stays
    /// empty.
    fn run(
        self,
        workflow: &DiagnosisWorkflow,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
        state: &mut DiagnosisState,
    ) {
        match self {
            Stage::PlanDiffing => {
                state.pd = Some(workflow.plan_diffing(ctx));
            }
            // CO/CR always execute: under a plan change their plan-filtered
            // satisfactory sample is empty and they score nothing, which is the
            // honest result (operator ids are per-plan structural positions, so a
            // cross-plan baseline would be meaningless). DA switches to the
            // re-drill entry point, widening to the new plan's whole APG against
            // the plan-independent metric baseline — this is what surfaces a
            // concurrent SAN-side cause that the old plan-change gating masked.
            Stage::CorrelatedOperators => {
                state.cos = Some(workflow.correlated_operators(ctx, cache));
            }
            Stage::DependencyAnalysis => {
                state.da = match (&state.pd, &state.cos) {
                    (Some(pd), _) if !pd.same_plan => Some(workflow.dependency_analysis_redrill(ctx, cache)),
                    (Some(_), Some(cos)) => Some(workflow.dependency_analysis(ctx, cos, cache)),
                    _ => None,
                };
            }
            Stage::RecordCounts => {
                state.cr = state.cos.as_ref().map(|cos| workflow.record_counts(ctx, cos, cache));
            }
            Stage::Symptoms => {
                state.sd = match (&state.pd, &state.cos, &state.da, &state.cr) {
                    (Some(pd), Some(cos), Some(da), Some(cr)) => {
                        Some(workflow.symptoms(ctx, pd, cos, da, cr))
                    }
                    _ => None,
                };
            }
            Stage::ImpactAnalysis => {
                state.ia = match (&state.cos, &state.da, &state.cr, &state.sd) {
                    (Some(cos), Some(da), Some(cr), Some(sd)) => {
                        Some(workflow.impact_analysis(ctx, cos, da, cr, sd))
                    }
                    _ => None,
                };
            }
        }
    }
}

/// The typed vocabulary of the pipeline's streaming event bus — what every
/// execution path (batch, engine warm/cold, incremental replay, interactive
/// session) emits to its [`EventSink`], in a pinned per-stage order:
/// `StageStarted` → `StageCompleted` (→ `CausesRanked` after SD), repeated per
/// stage, then exactly one terminal `RunCompleted` or `Cancelled`. The service
/// loop adds `RemediationPlanned` after a run it plans remediation for.
#[derive(Debug, Clone)]
pub enum PipelineEvent {
    /// A stage is about to execute (or, during incremental re-diagnosis, to replay
    /// its prior evidence).
    StageStarted {
        /// The stage's short name (`"PD"`, `"CO"`, …).
        stage: String,
    },
    /// A stage finished, with its execution provenance (timing, cache deltas,
    /// reused/redrilled markers).
    StageCompleted {
        /// The completed stage's provenance.
        provenance: StageProvenance,
    },
    /// Module SD filled the ledger's cause ranking — the earliest moment a
    /// subscriber can act on ranked causes, one stage before the final report.
    CausesRanked {
        /// The scored causes, best first (SD's ranking).
        causes: Vec<crate::symptoms::ScoredCause>,
    },
    /// The service loop planned remediation for a diagnosed report
    /// ([`crate::planner::Planner::plan`]).
    RemediationPlanned {
        /// The what-if-evaluated remediation plan.
        plan: crate::planner::RemediationPlan,
    },
    /// The run finished and assembled its report. Terminal; never follows
    /// `Cancelled` within one run.
    RunCompleted {
        /// The assembled report, findings and provenance.
        report: DiagnosisReport,
    },
    /// A [`CancelToken`] stopped the run at a stage boundary. Terminal; the run
    /// still returns a partial report whose provenance carries the same stage name.
    Cancelled {
        /// Name of the first stage that did **not** run.
        at_stage: String,
    },
}

impl PipelineEvent {
    /// A short label for the event kind (test pins and log lines).
    pub fn kind(&self) -> &'static str {
        match self {
            PipelineEvent::StageStarted { .. } => "stage_started",
            PipelineEvent::StageCompleted { .. } => "stage_completed",
            PipelineEvent::CausesRanked { .. } => "causes_ranked",
            PipelineEvent::RemediationPlanned { .. } => "remediation_planned",
            PipelineEvent::RunCompleted { .. } => "run_completed",
            PipelineEvent::Cancelled { .. } => "cancelled",
        }
    }
}

/// A subscriber on the pipeline's event bus. Sinks receive every
/// [`PipelineEvent`] next to the evidence ledger as it stands, synchronously on
/// the diagnosing thread — a sink that must not block the diagnosis hands the
/// event off (e.g. the service layer's bounded channel) instead of processing
/// in place.
pub trait EventSink {
    /// Delivers one event. `state` is the ledger at emission time: completed
    /// slots are filled, pending ones empty.
    fn on_event(&self, event: &PipelineEvent, state: &DiagnosisState);
}

/// A shared cancellation flag checked between pipeline stages: `cancel()` from any
/// thread (or from a sink reacting to an event) stops the run before its next
/// stage, which returns a partial, consistent report. Clones share one flag;
/// [`CancelToken::reset`] re-arms it so a cancelled session can resume.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: the owning run stops at its next stage boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }

    /// Clears the flag so the next (or resumed) run proceeds.
    pub fn reset(&self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

/// The emission context one run threads through its stage loop: the run's one
/// optional sink (the pipeline's, or the one handed to the engine's `*_streamed`
/// entry points) and the effective cancel token. Borrow-only and crate-internal;
/// the public surface is [`EventSink`]/[`CancelToken`].
pub(crate) struct Emitter<'a> {
    sink: Option<&'a dyn EventSink>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> Emitter<'a> {
    pub(crate) fn new(sink: Option<&'a dyn EventSink>, cancel: Option<&'a CancelToken>) -> Self {
        Emitter { sink, cancel }
    }

    /// Delivers the event `make` builds to the sink; `make` runs only when there
    /// is a sink, so unobserved runs never clone payloads.
    fn emit(&self, state: &DiagnosisState, make: impl FnOnce() -> PipelineEvent) {
        if let Some(sink) = self.sink {
            sink.on_event(&make(), state);
        }
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(|c| c.is_cancelled())
    }

    fn stage_started(&self, stage: Stage, state: &DiagnosisState) {
        self.emit(state, || PipelineEvent::StageStarted { stage: stage.name().to_string() });
    }

    /// Emits `StageCompleted`, plus `CausesRanked` right after SD fills the cause
    /// ranking.
    fn stage_completed(&self, stage: Stage, provenance: &StageProvenance, state: &DiagnosisState) {
        self.emit(state, || PipelineEvent::StageCompleted { provenance: provenance.clone() });
        if stage == Stage::Symptoms {
            if let Some(sd) = &state.sd {
                self.emit(state, || PipelineEvent::CausesRanked { causes: sd.causes.clone() });
            }
        }
    }

    fn run_completed(&self, report: &DiagnosisReport, state: &DiagnosisState) {
        self.emit(state, || PipelineEvent::RunCompleted { report: report.clone() });
    }

    fn cancelled(&self, at_stage: &str, state: &DiagnosisState) {
        self.emit(state, || PipelineEvent::Cancelled { at_stage: at_stage.to_string() });
    }
}

/// A recorded run the executor can replay from: its evidence ledger, stamped with
/// the [`LedgerInputs`] it was computed from, and the report assembled from it.
#[derive(Debug, Clone)]
pub(crate) struct Evidence {
    pub(crate) state: DiagnosisState,
    pub(crate) report: DiagnosisReport,
}

/// Where a run's [`DiagnosisContext`] comes from: borrowed from the caller, or built
/// from a scenario outcome the first time a stage executes or a report is
/// assembled (the APG lands in the caller's `apg` cell), so a run that replays
/// every stage never builds the APG.
pub(crate) enum ContextSource<'a, 'c> {
    Borrowed(&'a DiagnosisContext<'c>),
    Outcome { outcome: &'a ScenarioOutcome, events: &'a EventStore, apg: &'a OnceCell<Apg> },
}

impl ContextSource<'_, '_> {
    pub(crate) fn get(&self) -> DiagnosisContext<'_> {
        match self {
            ContextSource::Borrowed(ctx) => **ctx,
            ContextSource::Outcome { outcome, events, apg } => {
                outcome.context(apg.get_or_init(|| outcome.apg()), events)
            }
        }
    }
}

/// The diagnosis pipeline: the paper's Figure-2 stage sequence over a workflow
/// (whose module methods the stages call), with an optional event sink and an
/// optional cancel token.
///
/// It is bit-identical to the pre-pipeline monolithic workflow (all golden pins
/// unchanged).
pub struct DiagnosisPipeline {
    workflow: DiagnosisWorkflow,
    sink: Option<Box<dyn EventSink>>,
    cancel: Option<CancelToken>,
}

impl Default for DiagnosisPipeline {
    fn default() -> Self {
        Self::standard()
    }
}

impl DiagnosisPipeline {
    /// The paper's PD → CO → DA → CR → SD → IA pipeline with the default workflow
    /// (dependency-path pruning on).
    pub fn standard() -> Self {
        Self::with_workflow(DiagnosisWorkflow::new())
    }

    /// The stage sequence over a given workflow (e.g. the unpruned ablation).
    pub fn with_workflow(workflow: DiagnosisWorkflow) -> Self {
        DiagnosisPipeline { workflow, sink: None, cancel: None }
    }

    /// The emission context for a run of this pipeline: its sink plus its cancel
    /// token.
    pub(crate) fn emitter(&self) -> Emitter<'_> {
        Emitter::new(self.sink.as_deref(), self.cancel.as_ref())
    }

    /// Sets the pipeline's one [`EventSink`], which receives every
    /// [`PipelineEvent`] of every run of this pipeline, on the diagnosing thread;
    /// a later call replaces the earlier sink. The sink does not change what a run
    /// computes.
    pub fn with_sink(mut self, sink: impl EventSink + 'static) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Attaches a cancellation token checked between stages of every run of this
    /// pipeline. See [`CancelToken`]; the engine's `*_streamed` entry points can
    /// supply a per-run token instead.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the pipeline with a fresh private cache.
    pub fn run(&self, ctx: &DiagnosisContext<'_>) -> DiagnosisReport {
        self.run_with_cache(ctx, &mut DiagnosisCache::new())
    }

    /// Runs the pipeline with a caller-supplied cache, kept warm across repeated
    /// runs of the **same** context (pass [`DiagnosisCache::disabled`] to measure
    /// the per-call-refit baseline). The report's provenance carries the stage
    /// trail; `engine` stays `None`.
    ///
    /// Cancellation (see [`DiagnosisPipeline::with_cancel_token`]) is checked
    /// before each stage: a cancelled run stops, emits
    /// [`PipelineEvent::Cancelled`], and returns the report assembled from the
    /// partial ledger with `provenance.cancelled_at` naming the stage that never
    /// ran.
    pub fn run_with_cache(&self, ctx: &DiagnosisContext<'_>, cache: &mut DiagnosisCache) -> DiagnosisReport {
        let source = ContextSource::Borrowed(ctx);
        let state = DiagnosisState::default();
        self.execute(&source, cache, &self.emitter(), state, None, DiagnosisProvenance::default()).0
    }

    /// Executes one stage against an external ledger and cache, returning its
    /// provenance — the executor's per-stage body, and the step primitive the
    /// interactive [`crate::session::WorkflowSession`] drives.
    pub(crate) fn run_stage(
        &self,
        stage: Stage,
        ctx: &DiagnosisContext<'_>,
        cache: &mut DiagnosisCache,
        state: &mut DiagnosisState,
    ) -> StageProvenance {
        self.step(stage, &ContextSource::Borrowed(ctx), cache, state, &self.emitter(), None)
    }

    /// Assembles the v2 report from a ledger: ranked causes (with their evidence
    /// trails) from the SD/IA slots, module summaries from the rest, and the given
    /// provenance. Missing slots read as empty results, so a cancelled run's
    /// partial ledger still produces a well-formed report.
    fn assemble(
        &self,
        ctx: &DiagnosisContext<'_>,
        state: &DiagnosisState,
        provenance: DiagnosisProvenance,
    ) -> DiagnosisReport {
        let mut report = self.workflow.assemble_report(
            ctx,
            state.pd.as_ref().unwrap_or(&missing_pd()),
            state.cos.as_ref().unwrap_or(&CorrelatedOperatorsResult::default()),
            state.da.as_ref().unwrap_or(&DependencyAnalysisResult::default()),
            state.cr.as_ref().unwrap_or(&RecordCountResult::default()),
            state.sd.as_ref().unwrap_or(&SymptomsResult::default()),
            state.ia.as_ref().unwrap_or(&ImpactResult::default()),
        );
        report.provenance = provenance;
        report
    }

    /// The stage executor: walks `Stage::ALL` once from the ledger `state` and,
    /// for each stage whose slot is still empty, either executes it or replays its
    /// slot out of `prior`. A filled slot is skipped with no event and no
    /// provenance entry. A stage replays only when `prior` holds its slot, no
    /// input it reads changed between `prior`'s stamped [`LedgerInputs`] and this
    /// run's (`state.inputs`), and no stage it depends on
    /// ([`Stage::staleness_deps`]) produced a result different from `prior`'s. The
    /// caller's `cache` must already reflect this run's inputs, which is what makes
    /// a mixed run bit-identical to one that executes everything.
    ///
    /// `provenance` arrives with the caller's engine fields and stage trail so far;
    /// the executor extends the trail, records any cancellation point, then emits
    /// `RunCompleted` unless cancelled. `state.inputs` is lifted off the ledger for
    /// the run and stamped back only onto a completed one, so a partial ledger
    /// never seeds a replay. When no stage executed, `prior`'s findings come back
    /// with the new provenance instead of being re-assembled.
    pub(crate) fn execute(
        &self,
        ctx: &ContextSource<'_, '_>,
        cache: &mut DiagnosisCache,
        emitter: &Emitter<'_>,
        mut state: DiagnosisState,
        mut prior: Option<Evidence>,
        mut provenance: DiagnosisProvenance,
    ) -> (DiagnosisReport, DiagnosisState) {
        let inputs = state.inputs.take();
        let replayable = inputs.zip(prior.as_ref().and_then(|p| p.state.inputs));
        let mut changed = [false; Stage::ALL.len()];
        let mut executed = false;
        provenance.stages.reserve(Stage::ALL.len());
        for stage in Stage::ALL {
            if state.is_complete(stage) {
                continue;
            }
            if emitter.is_cancelled() {
                let at_stage = stage.name().to_string();
                emitter.cancelled(&at_stage, &state);
                provenance.cancelled_at = Some(at_stage);
                break;
            }
            let replay = match (prior.as_mut(), replayable) {
                (Some(prior), Some((now, then)))
                    if prior.state.is_complete(stage)
                        && !now.stage_stale(&then, stage)
                        && !stage.staleness_deps().iter().any(|d| changed[d.index()]) =>
                {
                    Some(&mut prior.state)
                }
                _ => None,
            };
            executed |= replay.is_none();
            let step = self.step(stage, ctx, cache, &mut state, emitter, replay);
            if let (Some(prior), false) = (prior.as_ref(), step.reused) {
                changed[stage.index()] = result_changed(stage, &state, &prior.state);
            }
            provenance.stages.push(step);
        }
        let completed = provenance.cancelled_at.is_none();
        if completed {
            state.inputs = inputs;
        }
        let report = match prior {
            Some(prior) if completed && !executed => DiagnosisReport { provenance, ..prior.report },
            _ => self.assemble(&ctx.get(), &state, provenance),
        };
        if completed {
            emitter.run_completed(&report, &state);
        }
        (report, state)
    }

    /// Runs `stage` into `state` between its `StageStarted` and
    /// `StageCompleted` events: executed, or — given `replay` — its slot moved
    /// over from the prior ledger. Either way the provenance carries the measured
    /// time.
    fn step(
        &self,
        stage: Stage,
        ctx: &ContextSource<'_, '_>,
        cache: &mut DiagnosisCache,
        state: &mut DiagnosisState,
        emitter: &Emitter<'_>,
        replay: Option<&mut DiagnosisState>,
    ) -> StageProvenance {
        emitter.stage_started(stage, state);
        let (hits_before, misses_before) = (cache.hits(), cache.misses());
        let reused = replay.is_some();
        let elapsed = match replay {
            Some(prior) => {
                let started = Instant::now();
                take_slot(stage, prior, state);
                started.elapsed()
            }
            None => {
                let ctx = ctx.get();
                let started = Instant::now();
                stage.run(&self.workflow, &ctx, cache, state);
                started.elapsed()
            }
        };
        let provenance = StageProvenance {
            stage: stage.name().to_string(),
            elapsed_nanos: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            cache_hits: cache.hits() - hits_before,
            cache_misses: cache.misses() - misses_before,
            reused,
            redrilled: state.plan_changed() && stage.redrills(),
        };
        emitter.stage_completed(stage, &provenance, state);
        provenance
    }
}

/// Whether `stage`'s result in `state` differs from the prior ledger's — the
/// result-equality edge of staleness propagation.
fn result_changed(stage: Stage, state: &DiagnosisState, prior: &DiagnosisState) -> bool {
    match stage {
        Stage::PlanDiffing => state.pd != prior.pd,
        Stage::CorrelatedOperators => state.cos != prior.cos,
        Stage::DependencyAnalysis => state.da != prior.da,
        Stage::RecordCounts => state.cr != prior.cr,
        Stage::Symptoms => state.sd != prior.sd,
        Stage::ImpactAnalysis => state.ia != prior.ia,
    }
}

/// Moves `stage`'s slot out of the prior ledger into `state` — the replay edge of
/// the executor.
fn take_slot(stage: Stage, prior: &mut DiagnosisState, state: &mut DiagnosisState) {
    match stage {
        Stage::PlanDiffing => state.pd = prior.pd.take(),
        Stage::CorrelatedOperators => state.cos = prior.cos.take(),
        Stage::DependencyAnalysis => state.da = prior.da.take(),
        Stage::RecordCounts => state.cr = prior.cr.take(),
        Stage::Symptoms => state.sd = prior.sd.take(),
        Stage::ImpactAnalysis => state.ia = prior.ia.take(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_stage_names_and_prerequisites() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["PD", "CO", "DA", "CR", "SD", "IA"]);
        assert!(Stage::PlanDiffing.staleness_deps().is_empty());
        assert_eq!(
            Stage::DependencyAnalysis.staleness_deps(),
            &[Stage::PlanDiffing, Stage::CorrelatedOperators],
            "DA reads PD's verdict to pick re-drill mode"
        );
        assert_eq!(Stage::Symptoms.staleness_deps().len(), 4);
    }

    #[test]
    fn ledger_tracks_completion_and_downstream_invalidation() {
        let mut state = DiagnosisState::default();
        assert!(state.completed().is_empty());
        assert!(!state.plan_changed());
        state.pd = Some(missing_pd());
        state.cos = Some(CorrelatedOperatorsResult::default());
        state.da = Some(DependencyAnalysisResult::default());
        state.sd = Some(SymptomsResult::default());
        assert_eq!(state.completed(), vec!["PD", "CO", "DA", "SD"]);
        state.clear_after(Stage::CorrelatedOperators);
        assert_eq!(state.completed(), vec!["PD", "CO"]);
        assert!(state.is_complete(Stage::PlanDiffing));
        assert!(!state.is_complete(Stage::DependencyAnalysis));
        state.pd = Some(PlanDiffResult { same_plan: false, ..missing_pd() });
        assert!(state.plan_changed());
    }

    #[test]
    fn a_stage_with_an_empty_upstream_slot_leaves_its_own_slot_empty() {
        use crate::testbed::Testbed;
        use diads_inject::scenarios::{scenario_1, ScenarioTimeline};

        let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
        let (apg, events) = (outcome.apg(), outcome.testbed.all_events());
        let ctx = outcome.context(&apg, &events);
        let pipeline = DiagnosisPipeline::standard();
        let mut cache = DiagnosisCache::new();
        let mut state = DiagnosisState::default();
        let downstream =
            [Stage::DependencyAnalysis, Stage::RecordCounts, Stage::Symptoms, Stage::ImpactAnalysis];
        for stage in downstream {
            let provenance = pipeline.run_stage(stage, &ctx, &mut cache, &mut state);
            assert_eq!(provenance.stage, stage.name());
        }
        assert!(state.completed().is_empty(), "no stand-in fills a slot: {:?}", state.completed());

        for stage in Stage::ALL {
            pipeline.run_stage(stage, &ctx, &mut cache, &mut state);
        }
        assert_eq!(state.completed(), vec!["PD", "CO", "DA", "CR", "SD", "IA"]);
    }
}
