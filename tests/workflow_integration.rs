//! Integration tests for the workflow modules, the interactive session, the silo-tool
//! baselines and the what-if extension, all over the scenario-1 deployment.

use diads::core::baseline::{DbOnlyTool, SanOnlyTool};
use diads::core::whatif::{evaluate, ProposedChange};
use diads::core::{DiagnosisCache, DiagnosisWorkflow, Testbed, WorkflowSession};
use diads::inject::scenarios::{scenario_1, ScenarioTimeline};
use diads::monitor::{ComponentId, MetricName, Timestamp};

#[test]
fn scenario_1_module_by_module_drilldown() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);
    let workflow = DiagnosisWorkflow::new();
    let mut cache = DiagnosisCache::new();

    // PD: same plan; CR will find no data change.
    let pd = workflow.plan_diffing(&ctx);
    assert!(pd.same_plan);
    assert!(pd.change_causes.is_empty());

    // CO: the V1 leaves (O8, O22) and their ancestors are correlated; most V2 leaves are not.
    let cos = workflow.correlated_operators(&ctx, &mut cache);
    let o8 = diads::db::OperatorId(8);
    let o22 = diads::db::OperatorId(22);
    assert!(cos.correlated.contains(&o8), "scores: {:?}", cos.scores);
    assert!(cos.correlated.contains(&o22));
    assert!(cos.scores[&o8] > 0.8 && cos.scores[&o22] > 0.8);
    // Event propagation: the root operator's elapsed time is anomalous too.
    assert!(cos.correlated.contains(&diads::db::OperatorId(1)));
    // Most of the seven V2 leaves stay below the threshold.
    let v2_leaves = apg.leaves_on_volume("V2");
    let flagged_v2 = v2_leaves.iter().filter(|op| cos.correlated.contains(op)).count();
    assert!(flagged_v2 <= 2, "V2 leaves flagged: {flagged_v2}");

    // DA: V1-side storage components are correlated; V2's volume is not.
    let da = workflow.dependency_analysis(&ctx, &cos, &mut cache);
    let v1_side = da.correlated_components.iter().any(|c| {
        c.name == "V1" || c.name == "P1" || ["ds-01", "ds-02", "ds-03", "ds-04"].contains(&c.name.as_str())
    });
    assert!(v1_side, "correlated components: {:?}", da.correlated_components);
    // V2's pool never looks contended (an occasional V2 front-end metric may cross the
    // threshold through noise — the paper's false-positive case — but the physical
    // back end of P2 stays quiet).
    assert!(!da.correlated_components.contains(&ComponentId::pool("P2")));
    // Table-2 shape: the V1-side writeTime score is high, the V2-side one is lower.
    let p1_write = da.score_of(&ComponentId::pool("P1"), &MetricName::WriteTime).unwrap_or(0.0);
    let p2_write = da.score_of(&ComponentId::pool("P2"), &MetricName::WriteTime).unwrap_or(0.0);
    assert!(p1_write > 0.8, "P1 writeTime score = {p1_write}");
    assert!(p2_write < p1_write, "P2 writeTime {p2_write} vs P1 {p1_write}");

    // CR: no record-count changes.
    let cr = workflow.record_counts(&ctx, &cos, &mut cache);
    assert!(cr.changed.is_empty(), "{:?}", cr.changed);

    // SD: misconfiguration is the top cause with high confidence.
    let sd = workflow.symptoms(&ctx, &pd, &cos, &da, &cr);
    assert_eq!(sd.causes[0].cause_id, "san-misconfiguration-contention");
    assert!(sd.causes[0].confidence_score >= 80.0);
    assert!(sd.symptoms.iter().any(|s| s.kind == diads::core::SymptomKind::NewVolumeOnSharedDisks));
    assert!(sd.symptoms.iter().any(|s| s.kind == diads::core::SymptomKind::ZoningOrMappingChanged));

    // IA: the misconfiguration explains most of the slowdown.
    let ia = workflow.impact_analysis(&ctx, &cos, &da, &cr, &sd);
    assert!(ia.impact_of("san-misconfiguration-contention") > 70.0);
}

#[test]
fn disabling_dependency_path_pruning_widens_the_search_space() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let pruned = DiagnosisWorkflow::new();
    let unpruned = DiagnosisWorkflow { prune_by_dependency_paths: false };

    let mut cache = DiagnosisCache::new();
    let cos = pruned.correlated_operators(&ctx, &mut cache);
    let da_pruned = pruned.dependency_analysis(&ctx, &cos, &mut cache);
    // The unpruned pass scores a strictly larger variable set; give it its own
    // cache so the comparison below is about search-space width, not fit reuse.
    let da_unpruned = unpruned.dependency_analysis(&ctx, &cos, &mut DiagnosisCache::new());
    // Without pruning, DA evaluates strictly more (component, metric) pairs.
    assert!(da_unpruned.metric_scores.len() > da_pruned.metric_scores.len());
}

#[test]
fn interactive_session_supports_editing_and_reexecution() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    let mut session = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
    assert!(session.completed_modules().is_empty());
    session.run_plan_diffing();
    session.run_correlated_operators();
    assert_eq!(session.completed_modules(), vec!["PD", "CO"]);

    // The administrator prunes the set down to the two partsupp scans; downstream
    // modules are invalidated and then recomputed on the edited set.
    session.edit_correlated_operators(vec![diads::db::OperatorId(8), diads::db::OperatorId(22)]);
    assert_eq!(session.completed_modules(), vec!["PD", "CO"]);
    let report = session.finish();
    assert_eq!(session.completed_modules(), vec!["PD", "CO", "DA", "CR", "SD", "IA"]);
    assert_eq!(report.correlated_operators, vec!["O8".to_string(), "O22".to_string()]);
    assert_eq!(report.primary_cause().unwrap().cause_id, "san-misconfiguration-contention");

    // An edit made before CO has run runs CO (and PD) first, then applies: the
    // next stages see the edited set, not a fresh unedited CO.
    let mut fresh = WorkflowSession::new(DiagnosisWorkflow::new(), ctx);
    fresh.edit_correlated_operators(vec![diads::db::OperatorId(8), diads::db::OperatorId(22)]);
    assert_eq!(fresh.completed_modules(), vec!["PD", "CO"]);
    let fresh_report = fresh.finish();
    assert_eq!(fresh_report.correlated_operators, vec!["O8".to_string(), "O22".to_string()]);
    assert_eq!(fresh_report.primary_cause().unwrap().cause_id, "san-misconfiguration-contention");

    // The screens render without panicking and mention the key pieces.
    let screen = diads::core::screens::workflow_screen(&session);
    assert!(screen.contains("[IA*]"));
    let selection = diads::core::screens::query_selection_screen("TPC-H Q2", &outcome.history);
    assert!(selection.contains("[x]"));
    let apg_screen = diads::core::screens::apg_visualization_screen(
        &apg,
        &outcome.testbed.store,
        &ComponentId::volume("V1"),
        outcome.history.runs.last().unwrap().record.window(),
    );
    assert!(apg_screen.contains("volume:V1"));
}

#[test]
fn silo_tools_reproduce_their_documented_blind_spots() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let apg = outcome.apg();
    let events = outcome.testbed.all_events();
    let ctx = outcome.context(&apg, &events);

    // The DB-only tool sees slow operators but proposes database-level suspects.
    let db_findings = DbOnlyTool::new().diagnose(&ctx);
    assert!(!db_findings.is_empty());
    assert!(db_findings.iter().any(|f| f.description.contains("plan") || f.description.contains("buffer")));
    assert!(db_findings.iter().all(|f| !f.description.contains("zone")));

    // The SAN-only tool flags volume-level anomalies but cannot name the misconfiguration.
    let san_findings = SanOnlyTool::new().diagnose(&ctx);
    assert!(san_findings.iter().all(|f| !f.description.contains("misconfiguration")));
}

#[test]
fn whatif_predicts_that_removing_the_interloper_helps() {
    let scenario = scenario_1(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    // Evaluate the changes at a time when the interloper is still active (mid
    // unsatisfactory period), as an administrator reacting to the slowdown would.
    let at = Timestamp::new(scenario.timeline.end_time().as_secs() - 3_600);

    // Removing the interfering workload should speed the query back up.
    let workload_name = outcome.testbed.san.workloads()[0].name.clone();
    let fix =
        evaluate(&outcome.testbed, &ProposedChange::RemoveExternalWorkload { workload: workload_name }, at)
            .unwrap();
    assert!(fix.improvement() > 0.2, "improvement = {}", fix.improvement());

    // Moving partsupp off the contended pool also helps.
    let migrate = evaluate(
        &outcome.testbed,
        &ProposedChange::MoveTablespace { tablespace: "ts_partsupp".into(), to_volume: "V2".into() },
        at,
    )
    .unwrap();
    assert!(migrate.improvement() > 0.1, "improvement = {}", migrate.improvement());

    // Dropping the part index is predicted to hurt, not help.
    let drop =
        evaluate(&outcome.testbed, &ProposedChange::DropIndex { index: "part_type_size_idx".into() }, at)
            .unwrap();
    assert!(drop.improvement() < 0.05);

    // Unknown targets are reported as errors.
    assert!(evaluate(
        &outcome.testbed,
        &ProposedChange::MoveTablespace { tablespace: "ts_partsupp".into(), to_volume: "V99".into() },
        at
    )
    .is_err());
}
