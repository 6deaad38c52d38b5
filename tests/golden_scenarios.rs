//! Golden regression tests for the diagnosis engine.
//!
//! These pin the *exact* top-ranked root cause and its confidence level for every
//! scenario constructor in `diads_inject::scenarios` — the full Table-1 matrix
//! (scenarios 1–5), the Table-2 bursty variant (1b), the two plan-change
//! scenarios (index drop, configuration change), the two SAN-degradation
//! scenarios (RAID rebuild, disk failure) and the four compound DB+SAN scenarios.
//! Any sharding / caching work in the hot path has to be behavior-preserving, and
//! this is the tripwire that proves it.
//!
//! **Recapture note (per-series noise streams).** The goldens were originally
//! captured with a single ordered noise generator whose draws depended on the
//! collector's cross-series flush order. That design serialized in-scenario
//! recording, so the sampler was re-keyed to deterministic per-series streams
//! (`seed = mix(mix(scenario seed, series identity hash), interval start)`): recorded
//! values now depend only on (series, sample index), so any recording order gives
//! the same store. The switch changed the exact noise drawn per sample, so every pin
//! was recaptured once against the new streams — all eight (top cause, confidence)
//! pairs came back unchanged, because the Table-1 fault signatures dominate the
//! collector jitter.
//!
//! **Recapture note (post-PD re-drill).** Plan-change diagnoses used to gate
//! CO/DA/CR off entirely, so the four plan-change scenarios (index drop, config
//! change, and the two compound scenarios built on them) ranked only the
//! plan-change cause. The re-drill runs CO/DA/CR/SD against the *new* plan's
//! access-path graph with cross-plan metric baselines, which adds component
//! evidence and symptom scores below the top slot. Every pin in this file was
//! deliberately re-verified against the re-drilled reports: all fourteen (top
//! cause, confidence) pairs came back unchanged — the plan-change cause still
//! dominates each ranking — so no pinned value moved; the change is confined to
//! the *secondary* causes, which the two plan-change compound goldens below now
//! additionally pin (the SAN-side cause used to be invisible there, the exact
//! masking bug the re-drill fixes). Non-plan-change pins are byte-identical by
//! construction: `baseline_runs()` equals the plan-filtered satisfactory set
//! whenever that set is non-empty.

use diads::core::{ConfidenceLevel, Testbed};
use diads::inject::scenarios::{
    compound_config_and_contention_scenario, compound_dml_and_contention_scenario,
    compound_index_drop_and_raid_scenario, compound_lock_and_interloper_scenario, config_change_scenario,
    disk_failure_scenario, index_drop_scenario, raid_rebuild_scenario, scenario_1, scenario_1b, scenario_2,
    scenario_3, scenario_4, scenario_5, Scenario, ScenarioTimeline,
};

struct Golden {
    scenario: Scenario,
    top_cause: &'static str,
    confidence: ConfidenceLevel,
}

fn check(golden: Golden) {
    let outcome = Testbed::run_scenario(&golden.scenario);
    let report = diads::diagnose_scenario_outcome(&outcome);
    let top = report
        .primary_cause()
        .unwrap_or_else(|| panic!("{}: no cause was ranked\n{}", golden.scenario.id, report.render()));
    assert_eq!(
        top.cause_id,
        golden.top_cause,
        "{}: top-ranked cause drifted\n{}",
        golden.scenario.id,
        report.render()
    );
    assert_eq!(
        top.confidence,
        golden.confidence,
        "{}: confidence level of {} drifted (score {:.3})\n{}",
        golden.scenario.id,
        top.cause_id,
        top.confidence_score,
        report.render()
    );
    // The warm-cache path must reproduce the cold report exactly.
    let warm = diads::diagnose_scenario_outcome(&outcome);
    assert_eq!(report, warm, "{}: warm-cache diagnosis drifted from cold", golden.scenario.id);
}

#[test]
fn golden_scenario_1_top_cause_and_confidence() {
    check(Golden {
        scenario: scenario_1(ScenarioTimeline::short()),
        top_cause: "san-misconfiguration-contention",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_scenario_1b_top_cause_and_confidence() {
    check(Golden {
        scenario: scenario_1b(ScenarioTimeline::short()),
        top_cause: "san-misconfiguration-contention",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_scenario_2_top_cause_and_confidence() {
    check(Golden {
        scenario: scenario_2(ScenarioTimeline::short()),
        top_cause: "external-workload-contention",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_scenario_3_top_cause_and_confidence() {
    check(Golden {
        scenario: scenario_3(ScenarioTimeline::short()),
        top_cause: "data-property-change",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_scenario_4_top_cause_and_confidence() {
    check(Golden {
        scenario: scenario_4(ScenarioTimeline::short()),
        top_cause: "san-misconfiguration-contention",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_scenario_5_top_cause_and_confidence() {
    check(Golden {
        scenario: scenario_5(ScenarioTimeline::short()),
        top_cause: "table-lock-contention",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_index_drop_top_cause_and_confidence() {
    check(Golden {
        scenario: index_drop_scenario(ScenarioTimeline::short()),
        top_cause: "index-dropped",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_config_change_top_cause_and_confidence() {
    check(Golden {
        scenario: config_change_scenario(ScenarioTimeline::short()),
        top_cause: "config-parameter-change",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_raid_rebuild_top_cause_and_confidence() {
    check(Golden {
        scenario: raid_rebuild_scenario(ScenarioTimeline::short()),
        top_cause: "raid-rebuild",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_disk_failure_top_cause_and_confidence() {
    check(Golden {
        scenario: disk_failure_scenario(ScenarioTimeline::short()),
        top_cause: "disk-failure",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_compound_lock_interloper_top_cause_and_confidence() {
    check(Golden {
        scenario: compound_lock_and_interloper_scenario(ScenarioTimeline::short()),
        top_cause: "san-misconfiguration-contention",
        confidence: ConfidenceLevel::High,
    });
}

#[test]
fn golden_compound_index_raid_top_cause_and_confidence() {
    check(Golden {
        scenario: compound_index_drop_and_raid_scenario(ScenarioTimeline::short()),
        top_cause: "index-dropped",
        confidence: ConfidenceLevel::High,
    });
}

/// The re-drill acceptance pin: the SAN half of the index-drop + RAID-rebuild
/// scenario must rank even though the DB half changed the plan.
#[test]
fn golden_compound_index_raid_ranks_the_raid_rebuild_too() {
    let scenario = compound_index_drop_and_raid_scenario(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let report = diads::diagnose_scenario_outcome(&outcome);
    assert!(report.plan_changed, "the dropped index changes the plan");
    let rebuild = report
        .causes
        .iter()
        .find(|c| c.cause_id == "raid-rebuild")
        .unwrap_or_else(|| panic!("raid-rebuild missing\n{}", report.render()));
    assert_eq!(rebuild.confidence, ConfidenceLevel::High, "score {:.1}", rebuild.confidence_score);
}

#[test]
fn golden_compound_config_contention_top_cause_and_confidence() {
    check(Golden {
        scenario: compound_config_and_contention_scenario(ScenarioTimeline::short()),
        top_cause: "config-parameter-change",
        confidence: ConfidenceLevel::High,
    });
}

/// The re-drill acceptance pin: both causes of the flagship plan-change compound
/// scenario rank — the config change High (plan-diff evidence) *and* the
/// concurrent SAN contention at Medium or better (re-drilled DA/SD evidence,
/// which the old plan-change gating threw away).
#[test]
fn golden_compound_config_contention_ranks_both_causes() {
    let scenario = compound_config_and_contention_scenario(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let report = diads::diagnose_scenario_outcome(&outcome);
    assert!(report.plan_changed, "the config change flips the plan");
    let config = report
        .causes
        .iter()
        .find(|c| c.cause_id == "config-parameter-change")
        .unwrap_or_else(|| panic!("config-parameter-change missing\n{}", report.render()));
    assert_eq!(config.confidence, ConfidenceLevel::High, "score {:.1}", config.confidence_score);
    let contention = report
        .causes
        .iter()
        .find(|c| c.cause_id == "external-workload-contention")
        .unwrap_or_else(|| panic!("external-workload-contention missing\n{}", report.render()));
    assert!(
        contention.confidence >= ConfidenceLevel::Medium,
        "the concurrent SAN contention must not be masked by the plan change: {:?} (score {:.1})\n{}",
        contention.confidence,
        contention.confidence_score,
        report.render()
    );
}

#[test]
fn golden_compound_dml_contention_top_cause_and_confidence() {
    check(Golden {
        scenario: compound_dml_and_contention_scenario(ScenarioTimeline::short()),
        top_cause: "data-property-change",
        confidence: ConfidenceLevel::High,
    });
}

/// A fleet-level engine shared across testbeds built from **independent stores**
/// must hit the warm path on the second diagnosis of the same (fingerprint,
/// variable) — the acceptance pin for identity-based `ScoreKey::Metric`: with
/// store-relative keys the second store's fits would never match the first's.
#[test]
fn fleet_engine_warms_across_independent_testbeds() {
    use diads::core::DiagnosisEngine;
    let scenario = scenario_1(ScenarioTimeline::short());
    // Two end-to-end runs: independent testbeds, independent metric stores, but the
    // same deterministic simulation — so the run histories share one fingerprint.
    let a = Testbed::run_scenario(&scenario);
    let b = Testbed::run_scenario(&scenario);
    assert!(!std::sync::Arc::ptr_eq(&a.testbed.engine, &b.testbed.engine));
    assert_eq!(a.history.fingerprint(), b.history.fingerprint());
    // Deterministic recording: the independent stores hold bit-identical data, so
    // the outcomes share an engine slot (history fingerprint × store content).
    assert_eq!(a.engine_fingerprint(), b.engine_fingerprint());

    let engine = DiagnosisEngine::shared();
    let cold = engine.diagnose(&a);
    let stats = engine.stats();
    assert_eq!((stats.warm_checkouts, stats.cold_checkouts), (0, 1));
    assert!(engine.is_warm(a.engine_fingerprint()));

    let warm = engine.diagnose(&b);
    let stats = engine.stats();
    assert_eq!(stats.warm_checkouts, 1, "second testbed must check out the warm slot");
    assert_eq!(cold, warm, "fleet-warmed diagnosis must be identical to cold");
}
