//! The interactive workflow session (Figure 7): a thin, resumable driver over the
//! composable [`DiagnosisPipeline`].
//!
//! The paper's interactive mode executes modules one at a time, lets the
//! administrator inspect and edit intermediate results, and re-executes downstream
//! modules on the edited inputs. [`WorkflowSession`] implements exactly that as a
//! cursor over a pipeline: it owns the [`DiagnosisState`] evidence ledger, runs any
//! stage (after its unmet prerequisites) on demand, invalidates downstream slots on
//! edits, and [`WorkflowSession::finish`] completes the remaining stages and
//! assembles the same provenance-carrying report batch diagnosis produces —
//! interactive and batch share one execution path.
//!
//! A session scores through its own [`DiagnosisCache`], so re-executed stages
//! reuse the fits of earlier executions; the fits die with the session.

use crate::diagnosis::{DiagnosisProvenance, DiagnosisReport, StageProvenance};
use crate::pipeline::{CancelToken, DiagnosisPipeline, DiagnosisState, Stage};
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
    /// Which pipeline stages (by index) have completed since the last invalidation.
    completed: Vec<bool>,
    /// The stage trail accumulated across the session — a log, so re-executions
    /// appear once per execution.
    trail: Vec<StageProvenance>,
}

impl<'a> WorkflowSession<'a> {
    /// Starts a session over the standard pipeline with the given workflow.
    pub fn new(workflow: DiagnosisWorkflow, ctx: DiagnosisContext<'a>) -> Self {
        Self::with_pipeline(DiagnosisPipeline::with_workflow(workflow), ctx)
    }

    /// Starts a session over a custom pipeline (skipped, inserted or custom stages).
    pub fn with_pipeline(pipeline: DiagnosisPipeline, ctx: DiagnosisContext<'a>) -> Self {
        let completed = vec![false; pipeline.len()];
        WorkflowSession {
            pipeline,
            ctx,
            cache: DiagnosisCache::new(),
            state: DiagnosisState::default(),
            completed,
            trail: Vec::new(),
        }
    }

    /// The pipeline the session drives.
    pub fn pipeline(&self) -> &DiagnosisPipeline {
        &self.pipeline
    }

    /// The evidence ledger as it stands.
    pub fn state(&self) -> &DiagnosisState {
        &self.state
    }

    /// The stage trail executed so far (one entry per stage execution).
    pub fn trail(&self) -> &[StageProvenance] {
        &self.trail
    }

    /// Every pipeline stage's name with its completion flag, in pipeline order —
    /// what the Figure-7 screen renders.
    pub fn stage_progress(&self) -> Vec<(&str, bool)> {
        (0..self.pipeline.len()).map(|i| (self.pipeline.stage_at(i).name(), self.completed[i])).collect()
    }

    /// Names of the stages that have completed, in pipeline order.
    pub fn completed_modules(&self) -> Vec<String> {
        self.stage_progress().into_iter().filter(|(_, done)| *done).map(|(n, _)| n.to_string()).collect()
    }

    /// Executes (or re-executes) the stage named `name`, running its unmet
    /// prerequisites first. Returns `false` when the pipeline has no such stage.
    pub fn run_stage(&mut self, name: &str) -> bool {
        match self.pipeline.position(name) {
            Some(index) => {
                self.run_index(index);
                true
            }
            None => false,
        }
    }

    /// Runs the stage at `index`, recursively completing any prerequisite stages
    /// that are present in the pipeline but not yet complete. Prerequisites that
    /// were skipped out of the pipeline are (by design) left to the stage's
    /// empty-input fallback.
    fn run_index(&mut self, index: usize) {
        let prerequisites: Vec<Stage> = self.pipeline.stage_at(index).prerequisites().to_vec();
        for prerequisite in prerequisites {
            if let Some(i) = self.pipeline.position(prerequisite.name()) {
                if !self.completed[i] {
                    self.run_index(i);
                }
            }
        }
        let provenance = self.pipeline.run_stage_at(index, &self.ctx, &mut self.cache, &mut self.state);
        self.completed[index] = true;
        self.trail.push(provenance);
    }

    /// Marks every stage after `stage` (in **pipeline order**) incomplete and
    /// clears those stages' standard ledger slots — call after editing a result so
    /// downstream stages recompute from the edit. Completion flags and ledger slots
    /// are invalidated by the same (pipeline-order) rule, so reordered pipelines
    /// never strand a cleared slot behind a still-set completion flag. When `stage`
    /// is not in the pipeline at all, the standard workflow-order rule
    /// ([`DiagnosisState::clear_after`]) applies.
    pub fn invalidate_downstream(&mut self, stage: Stage) {
        match self.pipeline.position(stage.name()) {
            Some(index) => {
                for i in index + 1..self.pipeline.len() {
                    self.completed[i] = false;
                    if let Some(standard) = Stage::from_name(self.pipeline.stage_at(i).name()) {
                        self.state.clear_slot(standard);
                    }
                }
                // The remediation slot belongs to a custom stage; clear it
                // conservatively on any invalidation (its owner re-runs anyway).
                self.state.remediation = None;
            }
            None => {
                self.state.clear_after(stage);
                // Re-derive completion from the ledger: any pipeline stage whose
                // standard slot was just emptied must run again (a stage that truly
                // completed holds at least an empty result, never a missing one).
                for i in 0..self.pipeline.len() {
                    if let Some(standard) = Stage::from_name(self.pipeline.stage_at(i).name()) {
                        if !self.state.is_complete(standard) {
                            self.completed[i] = false;
                        }
                    }
                }
            }
        }
    }

    /// Replaces the correlated-operator set (the administrator editing module CO's
    /// result before the next module runs); downstream results are invalidated.
    pub fn edit_correlated_operators(&mut self, operators: Vec<OperatorId>) {
        if let Some(cos) = &mut self.state.cos {
            cos.correlated = operators;
        }
        self.invalidate_downstream(Stage::CorrelatedOperators);
    }

    /// Executes (or re-executes) module PD. Returns `None` when the session's
    /// pipeline skips the stage (as every typed `run_*` helper does).
    pub fn run_plan_diffing(&mut self) -> Option<&PlanDiffResult> {
        self.run_stage(Stage::PlanDiffing.name());
        self.state.pd.as_ref()
    }

    /// Executes (or re-executes) module CO. Re-executions reuse the session's cached
    /// KDE fits. Returns `None` when the pipeline skips the stage.
    pub fn run_correlated_operators(&mut self) -> Option<&CorrelatedOperatorsResult> {
        self.run_stage(Stage::CorrelatedOperators.name());
        self.state.cos.as_ref()
    }

    /// Executes (or re-executes) module DA; runs CO first if needed. Returns `None`
    /// when the pipeline skips the stage.
    pub fn run_dependency_analysis(&mut self) -> Option<&DependencyAnalysisResult> {
        self.run_stage(Stage::DependencyAnalysis.name());
        self.state.da.as_ref()
    }

    /// Executes (or re-executes) module CR; runs CO first if needed. Returns `None`
    /// when the pipeline skips the stage.
    pub fn run_record_counts(&mut self) -> Option<&RecordCountResult> {
        self.run_stage(Stage::RecordCounts.name());
        self.state.cr.as_ref()
    }

    /// Executes (or re-executes) module SD; runs the prerequisite modules first if
    /// needed. Returns `None` when the pipeline skips the stage.
    pub fn run_symptoms(&mut self) -> Option<&SymptomsResult> {
        self.run_stage(Stage::Symptoms.name());
        self.state.sd.as_ref()
    }

    /// Executes (or re-executes) module IA; runs the prerequisite modules first if
    /// needed. Returns `None` when the pipeline skips the stage.
    pub fn run_impact_analysis(&mut self) -> Option<&ImpactResult> {
        self.run_stage(Stage::ImpactAnalysis.name());
        self.state.ia.as_ref()
    }

    /// Finishes the session: runs every incomplete stage (in pipeline order) and
    /// assembles the report, with the session's full stage trail as provenance.
    ///
    /// Honours the pipeline's [`CancelToken`] between stages: a cancelled finish
    /// stops before the first incomplete stage it reaches, emits
    /// [`crate::pipeline::PipelineEvent::Cancelled`] and assembles the partial,
    /// consistent ledger (provenance `cancelled_at` names the stopped stage).
    /// The completed/incomplete flags are left as they stand, so resetting the
    /// token and calling `finish` again re-runs **only** the cancelled stages.
    pub fn finish(&mut self) -> DiagnosisReport {
        let mut cancelled_at = None;
        for index in 0..self.pipeline.len() {
            if self.completed[index] {
                continue;
            }
            if self.pipeline.cancel_token().is_some_and(CancelToken::is_cancelled) {
                let at_stage = self.pipeline.stage_at(index).name().to_string();
                self.pipeline.emitter().cancelled(&at_stage, &self.state);
                cancelled_at = Some(at_stage);
                break;
            }
            self.run_index(index);
        }
        let report = self.pipeline.assemble(
            &self.ctx,
            &self.state,
            DiagnosisProvenance {
                stages: self.trail.clone(),
                cancelled_at,
                ..DiagnosisProvenance::default()
            },
        );
        if report.provenance.cancelled_at.is_none() {
            self.pipeline.emitter().run_completed(&report, &self.state);
        }
        report
    }
}
