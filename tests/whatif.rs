//! End-to-end tests for the Section-7 what-if extension and the remediation
//! planner built on it.
//!
//! The what-if half covers every [`ProposedChange`] variant against real
//! scenario outcomes — including the error paths that used to be silent
//! no-ops (an unknown tablespace or workload, or clearing lock windows when
//! none exist, rebuilt an *identical* deployment and reported ~0% improvement)
//! — plus the [`Testbed::fork`] contract the evaluations rely on. The planner
//! half pins, for every compound DB+SAN scenario, that the top-ranked
//! remediation targets only faults the scenario actually injected and predicts a
//! strictly positive improvement — and that the compound-set search (pairs of
//! single changes addressing different causes, applied to one fork) finds the
//! cross-layer fixes no single change can deliver.

use diads::core::whatif::{evaluate, ProposedChange};
use diads::core::{ConfidenceLevel, Planner, Testbed};
use diads::db::DbConfig;
use diads::inject::scenarios::{
    cause_ids, compound_config_and_contention_scenario, compound_dml_and_contention_scenario,
    compound_index_drop_and_raid_scenario, compound_lock_and_interloper_scenario, index_drop_scenario,
    scenario_1, Scenario, ScenarioTimeline,
};
use diads::inject::Fault;

fn short() -> ScenarioTimeline {
    ScenarioTimeline::short()
}

#[test]
fn fork_copies_configuration_but_resets_store_and_engine() {
    let outcome = Testbed::run_scenario(&scenario_1(short()));
    let testbed = &outcome.testbed;
    let fork = testbed.fork();
    // Configuration state is a deep copy...
    assert_eq!(fork.config, testbed.config);
    assert_eq!(fork.catalog.table_names(), testbed.catalog.table_names());
    assert_eq!(fork.san.workloads().len(), testbed.san.workloads().len());
    assert_eq!(fork.san.topology().volume_names(), testbed.san.topology().volume_names());
    assert_eq!(fork.query.name, testbed.query.name);
    assert_eq!(fork.db_events.len(), testbed.db_events.len());
    // ...but the monitoring history stays behind (it describes the real
    // deployment, not the hypothesis)...
    assert!(testbed.store.series_count() > 0);
    assert_eq!(fork.store.series_count(), 0);
    // ...and the fork never shares the (possibly fleet-level) engine.
    assert!(!std::sync::Arc::ptr_eq(&fork.engine, &testbed.engine));
    // The fork executes identically to the original (same simulation state).
    let at = short().last_run_start();
    let original = testbed.execute_once(at).unwrap();
    let forked = fork.execute_once(at).unwrap();
    assert_eq!(original.elapsed_secs, forked.elapsed_secs);
}

#[test]
fn unknown_names_are_errors_not_zero_improvement_successes() {
    let outcome = Testbed::run_scenario(&scenario_1(short()));
    let at = short().last_run_start();

    // The two formerly-silent no-ops: the rebuild loops simply never matched.
    let err = evaluate(
        &outcome.testbed,
        &ProposedChange::MoveTablespace { tablespace: "ts_ghost".into(), to_volume: "V2".into() },
        at,
    )
    .unwrap_err();
    assert!(err.contains("unknown tablespace ts_ghost"), "{err}");

    let err = evaluate(
        &outcome.testbed,
        &ProposedChange::RemoveExternalWorkload { workload: "ghost-workload".into() },
        at,
    )
    .unwrap_err();
    assert!(err.contains("unknown external workload ghost-workload"), "{err}");

    // The pre-existing unknown-volume check still holds.
    let err = evaluate(
        &outcome.testbed,
        &ProposedChange::MoveTablespace { tablespace: "ts_partsupp".into(), to_volume: "V9".into() },
        at,
    )
    .unwrap_err();
    assert!(err.contains("unknown destination volume V9"), "{err}");

    // Clearing lock windows on a deployment that has none is the same class of
    // silent no-op: scenario 1 injects no lock contention, so it must error.
    let err = evaluate(&outcome.testbed, &ProposedChange::ClearLockWindows, at).unwrap_err();
    assert!(err.contains("no lock-contention windows"), "{err}");
}

#[test]
fn remove_workload_and_move_tablespace_recover_scenario_1() {
    let outcome = Testbed::run_scenario(&scenario_1(short()));
    let at = short().last_run_start();
    let interloper = outcome.testbed.san.workloads()[0].name.clone();

    let removed = evaluate(
        &outcome.testbed,
        &ProposedChange::RemoveExternalWorkload { workload: interloper.clone() },
        at,
    )
    .unwrap();
    assert!(
        removed.improvement() > 0.2,
        "removing the interloper must recover a large share: {:+.3}",
        removed.improvement()
    );
    assert_eq!(removed.change, format!("remove external workload {interloper}"));

    let moved = evaluate(
        &outcome.testbed,
        &ProposedChange::MoveTablespace { tablespace: "ts_partsupp".into(), to_volume: "V2".into() },
        at,
    )
    .unwrap();
    assert!(
        moved.improvement() > 0.2,
        "moving partsupp off the contended pool must recover a large share: {:+.3}",
        moved.improvement()
    );
    // Both predictions are real slowdown recoveries, not noise.
    assert!(removed.baseline_secs > removed.predicted_secs);
    assert!(moved.baseline_secs > moved.predicted_secs);
}

/// What-if must *predict* what the plan-change scenarios later *measure*: the
/// DropIndex / ChangeConfig evaluation on the clean testbed reproduces, to
/// floating-point accuracy, the per-run times the corresponding injected scenario
/// records before and after its fault (the executor is deterministic and
/// time-invariant on an idle SAN).
#[test]
fn drop_index_and_change_config_predict_the_scenario_measured_reality() {
    let clean = Testbed::paper_default(10.0);
    let at = short().last_run_start();

    let idx_outcome = Testbed::run_scenario(&index_drop_scenario(short()));
    let idx_report = diads::diagnose_scenario_outcome(&idx_outcome);
    let predicted =
        evaluate(&clean, &ProposedChange::DropIndex { index: "part_type_size_idx".into() }, at).unwrap();
    assert!((predicted.baseline_secs - idx_report.satisfactory_mean_secs).abs() < 1e-6);
    assert!((predicted.predicted_secs - idx_report.unsatisfactory_mean_secs).abs() < 1e-6);

    let cfg_outcome = Testbed::run_scenario(&diads::inject::scenarios::config_change_scenario(short()));
    let cfg_report = diads::diagnose_scenario_outcome(&cfg_outcome);
    let predicted = evaluate(
        &clean,
        &ProposedChange::ChangeConfig {
            new_config: DbConfig::paper_default().with_random_page_cost(80.0),
            description: "raise random_page_cost to 80".into(),
        },
        at,
    )
    .unwrap();
    assert!((predicted.baseline_secs - cfg_report.satisfactory_mean_secs).abs() < 1e-6);
    assert!((predicted.predicted_secs - cfg_report.unsatisfactory_mean_secs).abs() < 1e-6);

    // And evaluated on the *faulted* deployment, reverting the regressed
    // parameter restores exactly the pre-fault plan time.
    let reverted = evaluate(
        &cfg_outcome.testbed,
        &ProposedChange::ChangeConfig {
            new_config: DbConfig::paper_default(),
            description: "revert random_page_cost to 4".into(),
        },
        at,
    )
    .unwrap();
    assert!((reverted.predicted_secs - cfg_report.satisfactory_mean_secs).abs() < 1e-6);
}

/// The fault label a remediation's motivating cause corresponds to, for checking
/// "the recommended change targets a fault the scenario really injected".
fn injected_fault_label(cause_id: &str) -> Option<&'static str> {
    match cause_id {
        cause_ids::SAN_MISCONFIGURATION => Some("san-misconfiguration"),
        cause_ids::EXTERNAL_WORKLOAD_CONTENTION => Some("external-volume-contention"),
        cause_ids::RAID_REBUILD => Some("raid-rebuild"),
        cause_ids::DISK_FAILURE => Some("disk-failure"),
        cause_ids::CONFIG_PARAMETER_CHANGE => Some("config-parameter-change"),
        cause_ids::INDEX_DROPPED => Some("index-drop"),
        cause_ids::DATA_PROPERTY_CHANGE => Some("bulk-dml"),
        cause_ids::TABLE_LOCK_CONTENTION => Some("table-lock-contention"),
        _ => None,
    }
}

/// The acceptance pin for the compound matrix: for every compound DB+SAN
/// scenario, the planner's top-ranked change addresses a cause whose fault the
/// scenario really injected, with predicted improvement > 0.
#[test]
fn planner_top_change_targets_an_injected_fault_on_every_compound_scenario() {
    let compounds: Vec<Scenario> = vec![
        compound_lock_and_interloper_scenario(short()),
        compound_index_drop_and_raid_scenario(short()),
        compound_config_and_contention_scenario(short()),
        compound_dml_and_contention_scenario(short()),
    ];
    for scenario in compounds {
        assert!(scenario.is_compound_db_san(), "{}", scenario.id);
        let outcome = Testbed::run_scenario(&scenario);
        let plan = Planner::for_outcome(&outcome).plan_outcome(&outcome);
        let best = plan
            .best()
            .unwrap_or_else(|| panic!("{}: planner produced no remediation\n{}", scenario.id, plan.render()));
        assert!(
            best.improvement() > 0.0,
            "{}: best remediation must predict a positive improvement, got {:+.4}\n{}",
            scenario.id,
            best.improvement(),
            plan.render()
        );
        for candidate in &best.candidates {
            let label = injected_fault_label(&candidate.cause_id).unwrap_or_else(|| {
                panic!("{}: cause {} maps to no fault label", scenario.id, candidate.cause_id)
            });
            assert!(
                scenario.faults.iter().any(|f| f.fault.label() == label),
                "{}: best remediation addresses {}, but no {label} fault was injected\n{}",
                scenario.id,
                candidate.cause_id,
                plan.render()
            );
        }
        // Nothing the planner evaluated may error out on these scenarios.
        assert!(plan.failed.is_empty(), "{}: {:?}", scenario.id, plan.failed);
    }
}

/// Exact pins for the flagship compound scenario: both layers' causes are
/// high-confidence, and the planner now derives a remediation for *each* layer —
/// the dominant lock contention leads the ranking (clear the lock windows), with
/// the SAN-side fixes evaluated right behind it.
#[test]
fn planner_pins_for_the_lock_plus_interloper_scenario() {
    let scenario = compound_lock_and_interloper_scenario(short());
    let outcome = Testbed::run_scenario(&scenario);
    let report = diads::diagnose_scenario_outcome(&outcome);
    let misconfig =
        report.causes.iter().find(|c| c.cause_id == cause_ids::SAN_MISCONFIGURATION).expect("ranked");
    let lock = report.causes.iter().find(|c| c.cause_id == cause_ids::TABLE_LOCK_CONTENTION).expect("ranked");
    assert_eq!(misconfig.confidence, ConfidenceLevel::High);
    assert_eq!(lock.confidence, ConfidenceLevel::High);
    assert!(lock.impact_pct > misconfig.impact_pct, "the 90s/scan lock dominates the slowdown");

    let planner = Planner::for_outcome(&outcome);
    let plan = planner.plan(&report, &outcome.testbed);
    assert!(plan.ranked.len() >= 3, "{}", plan.render());
    // The 90s/scan lock dominates the slowdown, so clearing the lock windows is
    // the top-ranked remediation.
    let best_single = plan
        .ranked
        .iter()
        .find(|r| !r.is_compound())
        .expect("at least one single-change remediation evaluated");
    assert_eq!(best_single.candidates[0].change, ProposedChange::ClearLockWindows);
    assert_eq!(best_single.candidates[0].cause_id, cause_ids::TABLE_LOCK_CONTENTION);
    assert!(best_single.improvement() > 0.1, "{:+.3}", best_single.improvement());
    // The SAN-side fixes are evaluated too, and also predicted to help.
    let moved = plan
        .ranked
        .iter()
        .find(|r| {
            !r.is_compound()
                && r.candidates[0].change
                    == ProposedChange::MoveTablespace {
                        tablespace: "ts_partsupp".into(),
                        to_volume: "V2".into(),
                    }
        })
        .expect("tablespace move evaluated");
    assert!(moved.improvement() > 0.1, "{:+.3}", moved.improvement());
    let removal = plan
        .ranked
        .iter()
        .find(|r| {
            !r.is_compound()
                && matches!(&r.candidates[0].change, ProposedChange::RemoveExternalWorkload { workload }
                    if workload == "interloper-on-Vprime")
        })
        .expect("interloper removal evaluated");
    assert!(removal.improvement() > 0.1);
}

/// The compound-set acceptance pin for the flagship plan-change compound
/// scenario. After the post-PD re-drill both causes rank (config High, SAN
/// contention Medium), so the planner derives candidates for *both* layers and
/// the compound search finds that fixing the layers together beats any single
/// change: the best overall remediation is a two-change set pairing the config
/// revert with a SAN-contention fix, strictly better than every single. The
/// DB-side revert alone is nearly free (+0.6%: on a contended volume the
/// reverted index plan is barely faster) — its value only shows up *inside* the
/// compound set, which is exactly why the pair search exists.
#[test]
fn planner_best_compound_set_pairs_config_revert_with_a_contention_fix() {
    let scenario = compound_config_and_contention_scenario(short());
    let outcome = Testbed::run_scenario(&scenario);
    let plan = Planner::for_outcome(&outcome).plan_outcome(&outcome);
    let best = plan.best().expect("remediations evaluated");
    assert!(best.is_compound(), "best remediation must be a compound set\n{}", plan.render());
    let causes: Vec<&str> = best.candidates.iter().map(|c| c.cause_id.as_str()).collect();
    assert!(causes.contains(&cause_ids::CONFIG_PARAMETER_CHANGE), "{}", plan.render());
    assert!(causes.contains(&cause_ids::EXTERNAL_WORKLOAD_CONTENTION), "{}", plan.render());
    for single in plan.ranked.iter().filter(|r| !r.is_compound()) {
        assert!(
            best.improvement() > single.improvement(),
            "compound set ({:+.4}) must beat the single '{}' ({:+.4})\n{}",
            best.improvement(),
            single.outcome.change,
            single.improvement(),
            plan.render()
        );
    }
    // The config-revert + workload-removal pair is in the evaluated set too.
    assert!(
        plan.ranked.iter().any(|r| r.is_compound()
            && r.candidates
                .iter()
                .any(|c| matches!(&c.change, ProposedChange::RemoveExternalWorkload { .. }))),
        "{}",
        plan.render()
    );
}

/// The index-drop half of `compound_index_raid` now gets a DB-side remediation:
/// the catalog retains the dropped index's definition as a tombstone, so the
/// planner derives a `RecreateIndex` candidate from the index-dropped cause.
/// Alone it is slightly *negative* (the recreated index plan does random reads
/// against the still-rebuilding pool), but paired with moving the tablespace off
/// that pool it becomes the best remediation overall — beating the tablespace
/// move alone.
#[test]
fn planner_recreates_the_dropped_index_for_the_index_plus_raid_scenario() {
    let scenario = compound_index_drop_and_raid_scenario(short());
    let outcome = Testbed::run_scenario(&scenario);
    let plan = Planner::for_outcome(&outcome).plan_outcome(&outcome);
    let recreate = plan
        .ranked
        .iter()
        .find(|r| {
            !r.is_compound()
                && matches!(&r.candidates[0].change, ProposedChange::RecreateIndex { index }
                    if index == "part_type_size_idx")
        })
        .unwrap_or_else(|| panic!("recreate-index candidate evaluated\n{}", plan.render()));
    assert_eq!(recreate.candidates[0].cause_id, cause_ids::INDEX_DROPPED);

    let best = plan.best().expect("remediations evaluated");
    assert!(best.is_compound(), "{}", plan.render());
    assert!(
        best.candidates.iter().any(|c| matches!(&c.change, ProposedChange::RecreateIndex { .. })),
        "the best compound set recreates the index\n{}",
        plan.render()
    );
    let best_single = plan
        .ranked
        .iter()
        .filter(|r| !r.is_compound())
        .map(|r| r.improvement())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best.improvement() > best_single,
        "compound set ({:+.4}) must beat the best single ({:+.4})\n{}",
        best.improvement(),
        best_single,
        plan.render()
    );
}

/// Candidate derivation is driven by the report: scenario 1's report yields both
/// SAN-side candidates, deduplicated across the misconfiguration and contention
/// causes, in cause-rank order before evaluation.
#[test]
fn planner_candidates_derive_from_ranked_causes() {
    let outcome = Testbed::run_scenario(&scenario_1(short()));
    let report = diads::diagnose_scenario_outcome(&outcome);
    let planner = Planner::for_outcome(&outcome);
    let candidates = planner.candidates(&report, &outcome.testbed);
    assert!(!candidates.is_empty());
    // Dedup: every change appears once even though two causes derive it.
    for (i, a) in candidates.iter().enumerate() {
        for b in candidates.iter().skip(i + 1) {
            assert_ne!(a.change, b.change, "duplicate candidate");
        }
    }
    assert!(candidates.iter().any(|c| {
        matches!(&c.change, ProposedChange::RemoveExternalWorkload { workload }
            if workload == "interloper-on-Vprime")
    }));
    assert!(candidates.iter().any(|c| {
        matches!(&c.change, ProposedChange::MoveTablespace { tablespace, to_volume }
            if tablespace == "ts_partsupp" && to_volume == "V2")
    }));
    // Every candidate explains itself.
    assert!(candidates.iter().all(|c| !c.rationale.is_empty() && !c.cause_id.is_empty()));
}

/// The staggered second fault really takes effect mid-scenario: the injector log
/// shows both faults applied, in onset order.
#[test]
fn compound_fault_log_shows_both_onsets_in_order() {
    let scenario = compound_lock_and_interloper_scenario(short());
    let outcome = Testbed::run_scenario(&scenario);
    assert!(outcome.fault_log.iter().any(|(_, m)| m.contains("Vprime")));
    assert!(outcome.fault_log.iter().any(|(_, m)| m.contains("lock contention on partsupp")));
    let times: Vec<_> = outcome.fault_log.iter().map(|(t, _)| *t).collect();
    let mut sorted = times.clone();
    sorted.sort();
    assert_eq!(times, sorted, "fault log must be in injection order");
    // The second fault's onset really is staggered: the lock fault was injected
    // two hours after the interloper.
    assert!(matches!(scenario.faults[1].fault, Fault::TableLockContention { .. }));
    assert_eq!(scenario.faults[1].inject_at.as_secs(), scenario.faults[0].inject_at.as_secs() + 7_200);
}
