//! Equivalence tests for the [`DiagnosisPipeline`].
//!
//! The pipeline is the *only* batch execution path now, so equivalence is pinned
//! against an independent, manually-sequenced composition of the module methods —
//! PD → CO → (DA, re-drilled against the new plan's APG when PD found a plan
//! change) → CR → SD → IA — rather than against a retired twin implementation.
//! The rest pins what rides on the pipeline: sinks stream per-stage progress,
//! the planner reads a finished session's report like a batch one, and session
//! edits invalidate downstream stages.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use diads::core::workflow::CorrelatedOperatorsResult;
use diads::core::{
    DiagnosisCache, DiagnosisContext, DiagnosisPipeline, DiagnosisReport, DiagnosisState, DiagnosisWorkflow,
    EventSink, PipelineEvent, StageProvenance, Testbed, WorkflowSession,
};
use diads::inject::scenarios::{all_scenarios, index_drop_scenario, scenario_1, ScenarioTimeline};

/// Calls the closure on every `StageCompleted` event.
struct OnStageCompleted<F>(F);

impl<F: Fn(&StageProvenance, &DiagnosisState)> EventSink for OnStageCompleted<F> {
    fn on_event(&self, event: &PipelineEvent, state: &DiagnosisState) {
        if let PipelineEvent::StageCompleted { provenance } = event {
            (self.0)(provenance, state);
        }
    }
}

/// The batch sequencing, spelled out module by module: one shared cache, every
/// stage always runs, and DA switches to its re-drill entry point when PD finds a
/// plan change (SD picks re-drill mode internally off `pd`). This is deliberately
/// *not* implemented via the pipeline.
fn legacy_module_by_module(ctx: &DiagnosisContext<'_>) -> DiagnosisReport {
    let workflow = DiagnosisWorkflow::new();
    let mut cache = DiagnosisCache::new();
    let pd = workflow.plan_diffing(ctx);
    let cos = workflow.correlated_operators(ctx, &mut cache);
    let da = if pd.same_plan {
        workflow.dependency_analysis(ctx, &cos, &mut cache)
    } else {
        workflow.dependency_analysis_redrill(ctx, &mut cache)
    };
    let cr = workflow.record_counts(ctx, &cos, &mut cache);
    let sd = workflow.symptoms(ctx, &pd, &cos, &da, &cr);
    let ia = workflow.impact_analysis(ctx, &cos, &da, &cr, &sd);
    workflow.assemble_report(ctx, &pd, &cos, &da, &cr, &sd, &ia)
}

/// `DiagnosisPipeline::standard()` must reproduce the module-by-module
/// composition report-for-report over the full scenario matrix (including the
/// plan-change scenarios, which exercise the DA/SD re-drill dispatch).
#[test]
fn standard_pipeline_matches_legacy_composition_over_all_scenarios() {
    for scenario in all_scenarios() {
        let outcome = Testbed::run_scenario(&scenario);
        let apg = outcome.apg();
        let events = outcome.testbed.all_events();
        let ctx = outcome.context(&apg, &events);
        let legacy = legacy_module_by_module(&ctx);
        let piped = DiagnosisPipeline::standard().run(&ctx);
        assert_eq!(
            legacy, piped,
            "{}: pipeline report drifted from the legacy composition\n--- legacy ---\n{}\n--- pipeline ---\n{}",
            scenario.id,
            legacy.render(),
            piped.render()
        );
        // The session driver runs the same stages over the same ledger: finishing a
        // fresh session must produce the identical report too.
        let mut session = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
        let finished = session.finish();
        assert_eq!(legacy, finished, "{}: session report drifted", scenario.id);
    }
}

/// The refit baseline (`DiagnosisCache::disabled()`, which every bench
/// `refit_baseline` column measures) must find exactly what the cached pipeline
/// finds: per-call refits, a fresh cache and a reused warm cache give equal
/// reports on every scenario.
#[test]
fn refit_baseline_matches_cached_pipeline_over_all_scenarios() {
    let pipeline = DiagnosisPipeline::standard();
    for scenario in all_scenarios() {
        let outcome = Testbed::run_scenario(&scenario);
        let apg = outcome.apg();
        let events = outcome.testbed.all_events();
        let ctx = outcome.context(&apg, &events);

        let mut disabled = DiagnosisCache::disabled();
        let refit = pipeline.run_with_cache(&ctx, &mut disabled);
        assert!(disabled.is_empty(), "{}: a disabled cache must retain no fits", scenario.id);
        let cached = pipeline.run(&ctx);
        let mut reused = DiagnosisCache::new();
        pipeline.run_with_cache(&ctx, &mut reused);
        let misses = reused.misses();
        let warm = pipeline.run_with_cache(&ctx, &mut reused);
        assert_eq!(reused.misses(), misses, "{}: the warm run must not refit", scenario.id);

        assert_eq!(
            refit,
            cached,
            "{}: refit baseline drifted from the cached pipeline\n--- refit ---\n{}\n--- cached ---\n{}",
            scenario.id,
            refit.render(),
            cached.render()
        );
        assert_eq!(cached, warm, "{}: warm-cache report drifted from the cold one", scenario.id);
    }
}

/// Observers stream per-stage progress: every stage reports in order, with the
/// ledger reflecting everything completed so far.
#[test]
fn on_stage_complete_observers_stream_progress() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    type Progress = Vec<(String, Vec<&'static str>)>;
    let seen: Arc<Mutex<Progress>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let report = DiagnosisPipeline::standard()
        .with_sink(OnStageCompleted(move |provenance: &StageProvenance, state: &DiagnosisState| {
            sink.lock().unwrap().push((provenance.stage.clone(), state.completed()));
        }))
        .run(&ctx);
    let seen = seen.lock().unwrap();
    let order: Vec<&str> = seen.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(order, vec!["PD", "CO", "DA", "CR", "SD", "IA"]);
    // After the CO callback the ledger holds exactly PD and CO.
    assert_eq!(seen[1].1, vec!["PD", "CO"]);
    assert_eq!(seen[5].1, vec!["PD", "CO", "DA", "CR", "SD", "IA"]);
    // The observer saw the same run the report describes.
    assert_eq!(report.provenance.stages.len(), 6);
    assert!(report.provenance.stages.iter().any(|s| s.cache_misses > 0), "cold run must fit variables");
}

/// The remediation planner reads a diagnosis report, however it was produced: the
/// plan over a finished interactive session's report equals the plan over the
/// batch report, and it ranks a real fix for scenario 1 first.
#[test]
fn planner_plans_a_finished_session_like_a_batch_report() {
    use diads::core::Planner;

    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let planner = Planner::for_outcome(&outcome);

    let batch = DiagnosisPipeline::standard().run(&ctx);
    let plan = planner.plan(&batch, &outcome.testbed);
    let best = plan.best().expect("scenario 1 has evaluable remediations");
    assert!(best.improvement() > 0.1, "{}", plan.render());
    assert_eq!(best.candidates[0].cause_id, "san-misconfiguration-contention");

    let mut session = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
    let finished = session.finish();
    assert_eq!(planner.plan(&finished, &outcome.testbed), plan, "session and batch derive the same plan");
}

/// A changed plan no longer gates CO/DA/CR off — DA re-drills against the new
/// plan's APG (with pruning disabled: every non-operator monitored component)
/// using the cross-plan satisfactory baseline, while CO still reports an honest
/// empty result because no satisfactory run shares the new plan's fingerprint.
#[test]
fn plan_change_redrills_with_pruning_disabled() {
    let scenario = diads::inject::scenarios::index_drop_scenario(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let mut workflow = DiagnosisWorkflow::new();
    workflow.prune_by_dependency_paths = false;
    let report = DiagnosisPipeline::with_workflow(workflow).run(&ctx);
    assert!(report.plan_changed);
    assert!(
        report.correlated_operators.is_empty(),
        "CO's plan-filtered satisfactory sample is empty across a plan change"
    );
    let da = report.provenance.stages.iter().find(|s| s.stage == "DA").expect("DA ran");
    assert!(da.redrilled, "DA is marked re-drilled on a plan change");
    assert!(
        da.cache_hits + da.cache_misses > 0,
        "re-drilled DA scores components through the cache instead of being gated off"
    );
    let co = report.provenance.stages.iter().find(|s| s.stage == "CO").expect("CO ran");
    assert!(co.redrilled, "CO is marked re-drilled on a plan change");
}

/// A pipeline over an explicit default workflow is the standard pipeline — same
/// report.
#[test]
fn workflow_run_is_the_standard_pipeline() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let via_workflow = DiagnosisPipeline::with_workflow(DiagnosisWorkflow::new()).run(&ctx);
    let via_pipeline = DiagnosisPipeline::standard().run(&ctx);
    assert_eq!(via_workflow, via_pipeline);
    assert_eq!(via_workflow.provenance.stages.len(), 6, "the wrapper carries the stage trail too");
}

/// Editing a result through the session invalidates downstream slots, and the
/// edited set drives recomputation.
#[test]
fn session_edit_invalidation_works_over_the_standard_pipeline() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let mut session = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
    session.run_dependency_analysis();
    assert_eq!(session.completed_modules(), vec!["PD", "CO", "DA"], "DA pulled PD and CO in");
    session.edit_correlated_operators(vec![diads::db::OperatorId(8)]);
    assert_eq!(session.completed_modules(), vec!["PD", "CO"], "edit invalidates DA");
    assert!(session.state().da.is_none());
    let report = session.finish();
    assert_eq!(report.correlated_operators, vec!["O8".to_string()]);
    // An empty CO edit composes with default results everywhere downstream.
    let empty = CorrelatedOperatorsResult { scores: BTreeMap::new(), correlated: vec![] };
    assert_eq!(empty, CorrelatedOperatorsResult::default());
}

/// A session's report does not depend on the order its stages are called in: DA
/// reads PD's verdict to pick re-drill mode, so running DA first pulls PD in, and
/// on a plan change the session's report equals the batch report.
#[test]
fn session_running_da_first_matches_batch_on_a_plan_change() {
    let outcome = Testbed::run_scenario(&index_drop_scenario(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let batch = DiagnosisPipeline::standard().run(&ctx);
    assert!(batch.plan_changed, "the index drop changes the plan");

    let mut session = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
    session.run_dependency_analysis();
    assert!(session.state().plan_changed(), "DA pulled PD in first");
    assert_eq!(session.finish(), batch);
}
