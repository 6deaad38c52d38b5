//! Service-loop equivalence and accounting: the continuous ingest → seal →
//! re-diagnose → plan loop must end every pass bit-identical to a one-shot
//! batch diagnosis over the same sealed store, for **every** `all_scenarios()`
//! tenant — and its counters must balance exactly.

use diads::inject::scenarios::{all_scenarios, scenario_1, scenario_3, ScenarioTimeline};
use diads::service::{DiagnosisService, ServiceConfig};

#[test]
fn final_cycle_report_matches_one_shot_batch_for_every_tenant() {
    let scenarios = all_scenarios();
    let service = DiagnosisService::new(&scenarios, ServiceConfig::default());

    // A multi-thread pass through the shared engine: the final cycle
    // forces a diagnosis, so every tenant ends covering its whole store.
    service.run_cycles(3, 3);

    for (tenant, scenario) in scenarios.iter().enumerate() {
        let last = service
            .last_report(tenant)
            .unwrap_or_else(|| panic!("{}: final cycle forces a diagnosis", scenario.id));
        let batch = service.with_outcome(tenant, |outcome| outcome.diagnose());
        assert_eq!(
            last, batch,
            "{}: service-loop findings must be bit-identical to the one-shot batch",
            scenario.id
        );
    }

    let stats = service.stats();
    assert_eq!(stats.tenants, scenarios.len());
    assert_eq!(stats.cancelled_cycles, 0, "nothing was cancelled");
    // Every tenant cycle is accounted for exactly once: diagnosed or skipped.
    assert_eq!(stats.cycles + stats.skipped_cycles, 3 * scenarios.len() as u64);
    assert_eq!(stats.epochs_sealed, stats.cycles, "each diagnosed cycle re-seals once");
    assert_eq!(
        stats.points_ingested,
        3 * scenarios.len() as u64 * ServiceConfig::default().probes_per_cycle as u64,
        "ingest runs every cycle, diagnosed or not"
    );
    assert_eq!(stats.cycle_latency.count as u64, stats.cycles);
    assert!(stats.warm_hit_rate() > 0.0, "repeated cycles hit the warm slots");
}

#[test]
fn cancelled_tenant_stalls_and_resumes_losslessly() {
    let timeline = ScenarioTimeline::short();
    let scenarios = vec![scenario_1(timeline), scenario_3(timeline)];
    let service = DiagnosisService::new(&scenarios, ServiceConfig::default());

    service.run_cycles(1, 1);
    let before = service.stats();
    assert!(service.last_report(0).is_some() && service.last_report(1).is_some());

    // Cancel tenant 1: its forced final cycles stop before their first stage,
    // while tenant 0 keeps diagnosing normally.
    service.cancel_tenant(1);
    service.run_cycles(2, 1);
    let paused = service.stats();
    assert_eq!(paused.cancelled_cycles, 1, "tenant 1's forced cycle was cancelled");
    assert_eq!(
        paused.cycles,
        before.cycles + 1,
        "only tenant 0 completed a diagnosis while tenant 1 was paused"
    );

    // Resume: the next pass re-covers everything the cancelled cycles skipped
    // and lands on the batch reference for the accumulated store.
    service.resume_tenant(1);
    service.run_cycles(1, 1);
    let resumed = service.stats();
    assert_eq!(resumed.cancelled_cycles, paused.cancelled_cycles, "no new cancellations");
    for tenant in 0..2 {
        let last = service.last_report(tenant).expect("diagnosed after resume");
        let batch = service.with_outcome(tenant, |outcome| outcome.diagnose());
        assert_eq!(last, batch, "tenant {tenant}: resume re-covers the full store");
    }
}

#[test]
fn watermark_policy_gates_rediagnosis_between_forced_cycles() {
    let timeline = ScenarioTimeline::short();
    let scenarios = vec![scenario_1(timeline)];
    let config = ServiceConfig::default();
    let service = DiagnosisService::new(&scenarios, config);

    // 16 probes / 30 simulated seconds per cycle against a 256-point / 2-minute
    // policy: the interval arm seals every 4th cycle; of a 9-cycle pass, the
    // rest are policy skips (plus the forced final cycle).
    service.run_cycles(9, 1);
    let stats = service.stats();
    assert_eq!(stats.cycles + stats.skipped_cycles, 9, "every cycle accounted for");
    assert!(
        stats.skipped_cycles >= 6,
        "most cycles must be policy skips under the default watermark policy \
         (got {} skips / {} diagnoses)",
        stats.skipped_cycles,
        stats.cycles
    );
    assert!(stats.cycles >= 2, "the interval arm fires at least once besides the forced cycle");
    assert_eq!(stats.staleness.count as u64, stats.cycles, "staleness sampled per diagnosis");

    // The stats snapshot serializes through diads_core::jsonio.
    let json = stats.to_json();
    for key in ["\"cycles\":", "\"staleness\":", "\"events_published\":", "\"engine\":"] {
        assert!(json.contains(key), "stats JSON must carry {key}: {json}");
    }
}
