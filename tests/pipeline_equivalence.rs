//! Equivalence and composability tests for the [`DiagnosisPipeline`].
//!
//! The pipeline is the *only* batch execution path now, so equivalence is pinned
//! against an independent, manually-sequenced composition of the module methods —
//! PD → CO → (DA, re-drilled against the new plan's APG when PD found a plan
//! change) → CR → SD → IA — rather than against a retired twin implementation.
//! The composability half exercises the builder: skipped stages fall back to
//! well-formed empty inputs, custom stages rewrite the evidence ledger, and
//! sinks stream per-stage progress.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use diads::core::workflow::CorrelatedOperatorsResult;
use diads::core::{
    DiagnosisCache, DiagnosisContext, DiagnosisPipeline, DiagnosisReport, DiagnosisStage, DiagnosisState,
    DiagnosisWorkflow, EventSink, PipelineEvent, Stage, StageCtx, StageProvenance, Testbed, WorkflowSession,
};
use diads::inject::scenarios::{all_scenarios, scenario_1, ScenarioTimeline};

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

/// Skipping Plan Diffing must still produce a well-formed report: the drill-down
/// proceeds as if the plan were stable, every remaining stage runs, and the causes
/// are still ranked.
#[test]
fn skipping_plan_diffing_still_produces_a_well_formed_report() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let report = DiagnosisPipeline::standard().skip(Stage::PlanDiffing).run(&ctx);
    let ran: Vec<&str> = report.provenance.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(ran, vec!["CO", "DA", "CR", "SD", "IA"], "PD must not appear in the stage trail");
    assert!(!report.plan_changed, "a skipped PD reads as no plan-change evidence");
    assert!(!report.causes.is_empty(), "causes must still be ranked");
    assert!(!report.correlated_operators.is_empty(), "CO must still run without PD");
    assert_eq!(
        report.primary_cause().expect("ranked").cause_id,
        "san-misconfiguration-contention",
        "the drill-down evidence still dominates without PD"
    );
}

/// A SAN-only triage pipeline — skip PD *and* CR — exercises two missing ledger
/// slots at once (SD and IA read empty record-count results).
#[test]
fn san_only_triage_pipeline_skips_pd_and_cr() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let report = DiagnosisPipeline::standard().skip(Stage::PlanDiffing).skip(Stage::RecordCounts).run(&ctx);
    let ran: Vec<&str> = report.provenance.stages.iter().map(|s| s.stage.as_str()).collect();
    assert_eq!(ran, vec!["CO", "DA", "SD", "IA"]);
    assert!(report.record_count_changes.is_empty());
    assert_eq!(report.primary_cause().expect("ranked").cause_id, "san-misconfiguration-contention");
}

/// A custom stage inserted after CO can rewrite the evidence ledger; downstream
/// stages consume the edited result — the programmatic version of the paper's
/// administrator-in-the-loop edit.
#[test]
fn custom_stage_edits_flow_into_downstream_stages() {
    /// Keeps only the two partsupp leaf scans in the correlated-operator set.
    struct PartsuppOnly;
    impl DiagnosisStage for PartsuppOnly {
        fn name(&self) -> &str {
            "PARTSUPP-ONLY"
        }
        fn prerequisites(&self) -> &[Stage] {
            &[Stage::CorrelatedOperators]
        }
        fn run(&self, s: &mut StageCtx<'_, '_>) {
            let keep = [diads::db::OperatorId(8), diads::db::OperatorId(22)];
            if let Some(cos) = &mut s.state.cos {
                cos.correlated.retain(|op| keep.contains(op));
            }
        }
    }

    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let pipeline =
        DiagnosisPipeline::standard().insert_after(Stage::CorrelatedOperators, Box::new(PartsuppOnly));
    assert_eq!(pipeline.stage_names(), vec!["PD", "CO", "PARTSUPP-ONLY", "DA", "CR", "SD", "IA"]);
    let report = pipeline.run(&ctx);
    assert_eq!(
        report.correlated_operators,
        vec!["O8".to_string(), "O22".to_string()],
        "downstream stages must see the edited operator set"
    );
    assert_eq!(report.primary_cause().expect("ranked").cause_id, "san-misconfiguration-contention");
    assert_eq!(report.provenance.stages.len(), 7);
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

/// The remediation planner as a custom stage appended after the standard
/// sequence — the `insert_after` consumer the machinery was built for. The stage
/// list grows by `"PLAN"`, the report's findings are bit-identical to the plain
/// standard pipeline (the planner only *reads* the ledger), and the
/// [`diads::core::RemediationPlan`] lands in the ledger's `remediation` slot,
/// where both observers and interactive sessions read it.
#[test]
fn planner_stage_appends_to_the_standard_pipeline_and_fills_the_ledger() {
    use diads::core::{Planner, PlannerStage, RemediationPlan};

    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let stage = PlannerStage::new(Planner::for_outcome(&outcome), &outcome.testbed);
    let observed: Arc<Mutex<Option<RemediationPlan>>> = Arc::new(Mutex::new(None));
    let sink = Arc::clone(&observed);
    let pipeline = DiagnosisPipeline::standard()
        .insert_after(Stage::ImpactAnalysis, Box::new(stage))
        .with_sink(OnStageCompleted(move |provenance: &StageProvenance, state: &DiagnosisState| {
            if provenance.stage == PlannerStage::NAME {
                *sink.lock().unwrap() = state.remediation.clone();
            }
        }));
    assert_eq!(pipeline.stage_names(), vec!["PD", "CO", "DA", "CR", "SD", "IA", "PLAN"]);

    let report = pipeline.run(&ctx);
    assert_eq!(report.provenance.stages.len(), 7, "PLAN appears in the stage trail");
    assert_eq!(report, DiagnosisPipeline::standard().run(&ctx), "the planner must not alter findings");

    let plan = observed.lock().unwrap().take().expect("the PLAN observer fired with the ledger slot set");
    let best = plan.best().expect("scenario 1 has evaluable remediations");
    assert!(best.improvement() > 0.1, "{}", plan.render());
    assert_eq!(best.candidates[0].cause_id, "san-misconfiguration-contention");

    // The interactive route reads the same slot straight off the session ledger —
    // running PLAN pulls its SD prerequisite chain in, but not IA.
    let stage = PlannerStage::new(Planner::for_outcome(&outcome), &outcome.testbed);
    let session_pipeline = DiagnosisPipeline::standard().insert_after(Stage::ImpactAnalysis, Box::new(stage));
    let mut session = WorkflowSession::with_pipeline(session_pipeline, ctx);
    assert!(session.run_stage(PlannerStage::NAME));
    assert_eq!(session.completed_modules(), vec!["PD", "CO", "DA", "CR", "SD", "PLAN"]);
    let session_plan = session.state().remediation.clone().expect("ledger slot filled");
    assert_eq!(session_plan, plan, "session and batch derive the same plan");
    // Editing an upstream result invalidates the plan along with the standard
    // downstream slots; finishing recomputes both.
    session.edit_correlated_operators(vec![diads::db::OperatorId(8)]);
    assert!(session.state().remediation.is_none(), "edits stale the remediation slot");
    session.finish();
    assert!(session.state().remediation.is_some(), "finish re-runs the planner stage");
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
/// edited set drives recomputation — with a custom pipeline under the session.
#[test]
fn session_edit_invalidation_works_over_a_recomposed_pipeline() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let pipeline = DiagnosisPipeline::standard().skip(Stage::RecordCounts);
    let mut session = WorkflowSession::with_pipeline(pipeline, ctx);
    session.run_dependency_analysis();
    assert_eq!(session.completed_modules(), vec!["CO", "DA"], "DA pulled CO in, PD untouched");
    session.edit_correlated_operators(vec![diads::db::OperatorId(8)]);
    assert_eq!(session.completed_modules(), vec!["CO"], "edit invalidates DA");
    assert!(session.state().da.is_none());
    let report = session.finish();
    assert_eq!(report.correlated_operators, vec!["O8".to_string()]);
    assert!(report.record_count_changes.is_empty(), "CR stays skipped");
    // An empty CO edit composes with default results everywhere downstream.
    let empty = CorrelatedOperatorsResult { scores: BTreeMap::new(), correlated: vec![] };
    assert_eq!(empty, CorrelatedOperatorsResult::default());
}

/// The typed `run_*` helpers must degrade gracefully — not panic — when the
/// session's pipeline skips that stage.
#[test]
fn typed_helpers_return_none_for_skipped_stages() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let pipeline = DiagnosisPipeline::standard().skip(Stage::PlanDiffing).skip(Stage::RecordCounts);
    let mut session = WorkflowSession::with_pipeline(pipeline, ctx);
    assert!(session.run_plan_diffing().is_none(), "skipped PD must be a no-op, not a panic");
    assert!(session.run_record_counts().is_none(), "skipped CR must be a no-op, not a panic");
    assert!(session.run_correlated_operators().is_some());
    assert!(!session.finish().causes.is_empty());
}

/// Downstream invalidation follows pipeline order for both completion flags and
/// ledger slots, so a reordered pipeline can never end up with a cleared slot
/// stranded behind a still-set completion flag.
#[test]
fn reordered_pipeline_invalidation_keeps_flags_and_slots_consistent() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    // A deliberately reversed pipeline: DA first (its CO prerequisite sits later in
    // the pipeline and is pulled in on demand), then CO.
    let pipeline = DiagnosisPipeline::empty(DiagnosisWorkflow::new())
        .push(Box::new(Stage::DependencyAnalysis))
        .push(Box::new(Stage::CorrelatedOperators));
    let mut session = WorkflowSession::with_pipeline(pipeline, ctx);
    assert!(session.run_stage("DA"));
    assert_eq!(session.completed_modules(), vec!["DA", "CO"], "CO ran first as DA's prerequisite");
    session.edit_correlated_operators(vec![diads::db::OperatorId(8)]);
    // Nothing sits after CO in *pipeline* order, so nothing is invalidated — and in
    // particular DA's slot is not cleared while its completion flag stays set.
    assert_eq!(session.completed_modules(), vec!["DA", "CO"]);
    assert!(session.state().da.is_some(), "completed DA must keep its ledger slot");
}

/// Editing a result whose stage is not in the pipeline at all must still invalidate
/// downstream stages coherently: the cleared ledger slots drag the matching
/// completion flags down with them, so a re-finish recomputes instead of
/// assembling an empty report.
#[test]
fn editing_outside_the_pipeline_still_invalidates_coherently() {
    let outcome = Testbed::run_scenario(&scenario_1(ScenarioTimeline::short()));
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let pipeline = DiagnosisPipeline::standard().skip(Stage::CorrelatedOperators);
    let mut session = WorkflowSession::with_pipeline(pipeline, ctx);
    let first = session.finish();
    assert!(!first.causes.is_empty());
    // CO is not in the pipeline; the edit falls back to the workflow-order rule and
    // must mark the cleared downstream stages (DA, CR, SD, IA) incomplete too.
    session.edit_correlated_operators(vec![diads::db::OperatorId(8)]);
    assert_eq!(session.completed_modules(), vec!["PD"], "downstream flags must drop with their slots");
    let second = session.finish();
    assert_eq!(first, second, "re-finish recomputes the same report, not an empty one");
}
