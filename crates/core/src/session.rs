//! The interactive workflow session (Figure 7): a thin, resumable driver over the
//! [`DiagnosisPipeline`].
//!
//! The paper's interactive mode executes modules one at a time, lets the
//! administrator inspect and edit intermediate results, and re-executes downstream
//! modules on the edited inputs. [`WorkflowSession`] implements exactly that over
//! the pipeline's six stages: it owns the [`DiagnosisState`] evidence ledger, runs
//! any stage (after the unmet stages it depends on) on demand, and invalidates
//! downstream slots on edits. [`WorkflowSession::finish`] hands the ledger, the
//! cache and the stage trail to the pipeline's one stage executor, which runs the
//! stages whose slots are still empty and assembles the same provenance-carrying
//! report batch diagnosis produces — interactive and batch share one execution
//! path. A stage counts as complete when its ledger slot is filled.
//!
//! A session scores through its own [`DiagnosisCache`], so re-executed stages
//! reuse the fits of earlier executions; the fits die with the session.

use crate::diagnosis::{DiagnosisProvenance, DiagnosisReport, StageProvenance};
use crate::pipeline::{ContextSource, DiagnosisPipeline, DiagnosisState, Stage};
use crate::workflow::{
    CorrelatedOperatorsResult, DependencyAnalysisResult, DiagnosisCache, DiagnosisContext, DiagnosisWorkflow,
    ImpactResult, PlanDiffResult, RecordCountResult, SymptomsResult,
};
use diads_db::OperatorId;

/// A step-by-step workflow session: stages are executed one at a time, results can
/// be inspected and edited before the next stage consumes them, and stages can be
/// re-executed — the paper's interactive mode, driven over the same
/// [`DiagnosisPipeline`] as batch diagnosis.
pub struct WorkflowSession<'a> {
    pipeline: DiagnosisPipeline,
    ctx: DiagnosisContext<'a>,
    cache: DiagnosisCache,
    state: DiagnosisState,
    /// The stage trail accumulated across the session — a log, so re-executions
    /// appear once per execution.
    trail: Vec<StageProvenance>,
}

impl<'a> WorkflowSession<'a> {
    /// Starts a session over the pipeline with the given workflow.
    pub fn new(workflow: DiagnosisWorkflow, ctx: DiagnosisContext<'a>) -> Self {
        Self::with_pipeline(DiagnosisPipeline::with_workflow(workflow), ctx)
    }

    /// Starts a session over a pipeline carrying an event sink or a cancel token.
    pub fn with_pipeline(pipeline: DiagnosisPipeline, ctx: DiagnosisContext<'a>) -> Self {
        WorkflowSession {
            pipeline,
            ctx,
            cache: DiagnosisCache::new(),
            state: DiagnosisState::default(),
            trail: Vec::new(),
        }
    }

    /// The evidence ledger as it stands.
    pub fn state(&self) -> &DiagnosisState {
        &self.state
    }

    /// The stage trail executed so far (one entry per stage execution).
    pub fn trail(&self) -> &[StageProvenance] {
        &self.trail
    }

    /// Every stage's name with its completion flag, in workflow order — what the
    /// Figure-7 screen renders.
    pub fn stage_progress(&self) -> Vec<(&'static str, bool)> {
        Stage::ALL.iter().map(|s| (s.name(), self.state.is_complete(*s))).collect()
    }

    /// Names of the stages that have completed, in workflow order.
    pub fn completed_modules(&self) -> Vec<String> {
        self.state.completed().into_iter().map(str::to_string).collect()
    }

    /// Executes (or re-executes) `stage`, running the unmet stages whose results it
    /// depends on first — so a session's report does not depend on the order its
    /// stages are called in.
    pub fn run_stage(&mut self, stage: Stage) {
        for dependency in stage.staleness_deps() {
            if !self.state.is_complete(*dependency) {
                self.run_stage(*dependency);
            }
        }
        let provenance = self.pipeline.run_stage(stage, &self.ctx, &mut self.cache, &mut self.state);
        self.trail.push(provenance);
    }

    /// Clears the ledger slot of every stage after `stage` in workflow order — call
    /// after editing a result so downstream stages recompute from the edit.
    pub fn invalidate_downstream(&mut self, stage: Stage) {
        self.state.clear_after(stage);
    }

    /// Replaces the correlated-operator set (the administrator editing module CO's
    /// result before the next module runs), running CO and its unmet dependencies
    /// first when CO has not run; downstream results are invalidated.
    pub fn edit_correlated_operators(&mut self, operators: Vec<OperatorId>) {
        if !self.state.is_complete(Stage::CorrelatedOperators) {
            self.run_stage(Stage::CorrelatedOperators);
        }
        if let Some(cos) = &mut self.state.cos {
            cos.correlated = operators;
        }
        self.invalidate_downstream(Stage::CorrelatedOperators);
    }

    /// Executes (or re-executes) module PD.
    pub fn run_plan_diffing(&mut self) -> &PlanDiffResult {
        self.run_stage(Stage::PlanDiffing);
        self.state.pd.as_ref().expect("a stage run fills its slot")
    }

    /// Executes (or re-executes) module CO; runs PD first if needed. Re-executions
    /// reuse the session's cached KDE fits.
    pub fn run_correlated_operators(&mut self) -> &CorrelatedOperatorsResult {
        self.run_stage(Stage::CorrelatedOperators);
        self.state.cos.as_ref().expect("a stage run fills its slot")
    }

    /// Executes (or re-executes) module DA; runs PD and CO first if needed.
    pub fn run_dependency_analysis(&mut self) -> &DependencyAnalysisResult {
        self.run_stage(Stage::DependencyAnalysis);
        self.state.da.as_ref().expect("a stage run fills its slot")
    }

    /// Executes (or re-executes) module CR; runs PD and CO first if needed.
    pub fn run_record_counts(&mut self) -> &RecordCountResult {
        self.run_stage(Stage::RecordCounts);
        self.state.cr.as_ref().expect("a stage run fills its slot")
    }

    /// Executes (or re-executes) module SD; runs PD, CO, DA and CR first if needed.
    pub fn run_symptoms(&mut self) -> &SymptomsResult {
        self.run_stage(Stage::Symptoms);
        self.state.sd.as_ref().expect("a stage run fills its slot")
    }

    /// Executes (or re-executes) module IA; runs the modules it depends on first if
    /// needed.
    pub fn run_impact_analysis(&mut self) -> &ImpactResult {
        self.run_stage(Stage::ImpactAnalysis);
        self.state.ia.as_ref().expect("a stage run fills its slot")
    }

    /// Finishes the session through the pipeline's stage executor: runs every
    /// incomplete stage (in workflow order) and assembles the report, with the
    /// session's full stage trail as provenance.
    ///
    /// Honours the pipeline's [`crate::pipeline::CancelToken`] between stages: a
    /// cancelled finish stops before the first incomplete stage it reaches, emits
    /// [`crate::pipeline::PipelineEvent::Cancelled`] and assembles the partial,
    /// consistent ledger (provenance `cancelled_at` names the stopped stage).
    /// Filled slots stay filled, so resetting the token and calling `finish`
    /// again re-runs **only** the cancelled stages.
    pub fn finish(&mut self) -> DiagnosisReport {
        let provenance =
            DiagnosisProvenance { stages: std::mem::take(&mut self.trail), ..DiagnosisProvenance::default() };
        let (report, state) = self.pipeline.execute(
            &ContextSource::Borrowed(&self.ctx),
            &mut self.cache,
            &self.pipeline.emitter(),
            std::mem::take(&mut self.state),
            None,
            provenance,
        );
        self.state = state;
        self.trail = report.provenance.stages.clone();
        report
    }
}
