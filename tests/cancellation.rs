//! Cancellation coverage: a cancelled run stops at a stage boundary with a
//! partial, *consistent* ledger — and resuming re-runs only what was cancelled.
//!
//! For every `all_scenarios()` scenario and every one of the six stage
//! boundaries, a [`diads::core::CancelToken`] is tripped after exactly `k`
//! completed stages (via a sink matching `StageCompleted`, i.e. from inside the
//! event stream itself). The assertions pin:
//!
//! * provenance `cancelled_at` names the first stage that never ran;
//! * the evidence ledger holds exactly the completed stages' results — every
//!   downstream slot is `None`;
//! * resetting the token and finishing the session re-runs **only** the
//!   cancelled stages (the trail grows by `6 - k`, never re-executing a
//!   completed stage) and lands on the uncancelled reference findings.
//!
//! A second suite pins the engine-routed streamed paths: a cancelled
//! `diagnose_streamed` records no evidence (a later batch diagnosis is still
//! bit-identical to an uncancelled one and starts from the warmed fits), and a
//! cancelled `diagnose_incremental_streamed` degrades to the same guarantee.

use std::cell::Cell;
use std::rc::Rc;

use diads::core::workflow::DiagnosisWorkflow;
use diads::core::{
    CancelToken, DiagnosisPipeline, DiagnosisState, EventSink, PipelineEvent, StageProvenance, Testbed,
    WorkflowSession,
};
use diads::inject::scenarios::all_scenarios;
use diads::monitor::{ComponentId, Duration, MetricName};

const STAGES: [&str; 6] = ["PD", "CO", "DA", "CR", "SD", "IA"];

/// Calls the closure on every `StageCompleted` event.
struct OnStageCompleted<F>(F);

impl<F: Fn(&StageProvenance, &DiagnosisState)> EventSink for OnStageCompleted<F> {
    fn on_event(&self, event: &PipelineEvent, state: &DiagnosisState) {
        if let PipelineEvent::StageCompleted { provenance } = event {
            (self.0)(provenance, state);
        }
    }
}

/// Whether ledger slot `i` (workflow order PD..IA) is filled.
fn slot_filled(state: &DiagnosisState, i: usize) -> bool {
    match i {
        0 => state.pd.is_some(),
        1 => state.cos.is_some(),
        2 => state.da.is_some(),
        3 => state.cr.is_some(),
        4 => state.sd.is_some(),
        5 => state.ia.is_some(),
        _ => unreachable!("six standard stages"),
    }
}

#[test]
fn session_cancel_at_every_stage_boundary_of_every_scenario() {
    for scenario in all_scenarios() {
        let outcome = Testbed::run_scenario(&scenario);
        let reference = outcome.diagnose();
        let apg = outcome.apg();
        let events = outcome.testbed.all_events();

        for k in 0..STAGES.len() {
            let token = CancelToken::new();
            let completed = Rc::new(Cell::new(0usize));
            let pipeline = {
                let token = token.clone();
                let completed = Rc::clone(&completed);
                DiagnosisPipeline::standard().with_cancel_token(token.clone()).with_sink(OnStageCompleted(
                    move |_: &StageProvenance, _: &DiagnosisState| {
                        completed.set(completed.get() + 1);
                        if completed.get() == k {
                            token.cancel();
                        }
                    },
                ))
            };
            let ctx = outcome.context(&apg, &events);
            let mut session = WorkflowSession::with_pipeline(pipeline, ctx);
            if k == 0 {
                token.cancel(); // boundary zero: cancelled before the first stage
            }

            let partial = session.finish();
            assert_eq!(
                partial.provenance.cancelled_at.as_deref(),
                Some(STAGES[k]),
                "{}: cancel after {k} stages must stop at {}",
                scenario.id,
                STAGES[k]
            );
            assert_eq!(session.trail().len(), k, "{}: exactly {k} stages executed", scenario.id);
            assert_eq!(
                session.completed_modules(),
                STAGES[..k].iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                "{}: completion flags track the boundary",
                scenario.id
            );
            for (i, _) in STAGES.iter().enumerate() {
                assert_eq!(
                    slot_filled(session.state(), i),
                    i < k,
                    "{}: after cancelling at {}, ledger slot {} must be {}",
                    scenario.id,
                    STAGES[k],
                    STAGES[i],
                    if i < k { "filled" } else { "empty" }
                );
            }
            assert!(session.state().remediation.is_none(), "no remediation on a partial ledger");

            // Resume: only the cancelled stages re-run, landing on the
            // uncancelled findings.
            token.reset();
            let resumed = session.finish();
            assert!(resumed.provenance.cancelled_at.is_none(), "{}: resume completes", scenario.id);
            assert_eq!(
                session.trail().len(),
                STAGES.len(),
                "{}: resume after {k} stages re-runs exactly the {} cancelled stages",
                scenario.id,
                STAGES.len() - k
            );
            assert_eq!(
                resumed, reference,
                "{}: resumed findings must match the uncancelled reference",
                scenario.id
            );
        }
    }
}

#[test]
fn cancelled_engine_run_records_no_evidence_and_keeps_fits() {
    let scenario = &all_scenarios()[0];
    let outcome = Testbed::run_scenario(scenario);
    let reference = outcome.diagnose(); // cold, records evidence + warms fits

    // Cancel after SD: the streamed run returns a partial report…
    let token = CancelToken::new();
    let seen = Rc::new(Cell::new(0usize));
    struct CountSink {
        token: CancelToken,
        seen: Rc<Cell<usize>>,
    }
    impl diads::core::EventSink for CountSink {
        fn on_event(&self, event: &diads::core::PipelineEvent, _state: &DiagnosisState) {
            if let diads::core::PipelineEvent::StageCompleted { .. } = event {
                self.seen.set(self.seen.get() + 1);
                if self.seen.get() == 5 {
                    self.token.cancel();
                }
            }
        }
    }
    let sink = CountSink { token: token.clone(), seen: Rc::clone(&seen) };
    let engine = outcome.testbed.engine.clone();
    let partial = engine.diagnose_streamed(&outcome, &sink, Some(&token));
    assert_eq!(partial.provenance.cancelled_at.as_deref(), Some("IA"));
    assert_eq!(partial.provenance.stages.len(), 5, "five stages completed before the cancel");
    assert!(!partial.causes.is_empty(), "causes are ranked at SD, before the cancel point");

    // …whose evidence was NOT recorded: an incremental resume from a watermark
    // sealed over the cancelled state falls back to a cold run and still
    // matches the reference bit-for-bit, from the kept warm fits.
    let stats_before = engine.stats();
    let full = outcome.diagnose();
    assert_eq!(full, reference, "post-cancel batch diagnosis is unaffected");
    let stats_after = engine.stats();
    assert_eq!(
        stats_after.warm_checkouts,
        stats_before.warm_checkouts + 1,
        "cancelled run kept the warmed fits"
    );
}

#[test]
fn cancelled_incremental_degrades_to_cold_equivalence() {
    let scenario = &all_scenarios()[1];
    let mut outcome = Testbed::run_scenario(scenario);
    let _ = outcome.diagnose();
    let wm = outcome.seal_watermark();

    // Append a probe past every run window, then cancel the incremental
    // re-diagnosis before its first stage.
    let probe_time =
        outcome.history.runs.iter().map(|r| r.record.end).max().expect("runs").plus(Duration::from_mins(10));
    outcome.testbed.store.record(
        &ComponentId::server("cancel-host"),
        &MetricName::Custom("cancelProbe".into()),
        probe_time,
        1.0,
    );

    struct NullSink;
    impl diads::core::EventSink for NullSink {
        fn on_event(&self, _e: &diads::core::PipelineEvent, _s: &DiagnosisState) {}
    }
    let token = CancelToken::new();
    token.cancel();
    let engine = outcome.testbed.engine.clone();
    let partial = engine.diagnose_incremental_streamed(&outcome, &wm, &NullSink, Some(&token));
    assert_eq!(partial.provenance.cancelled_at.as_deref(), Some("PD"));

    // The consumed watermark and the skipped evidence both degrade safely: the
    // next incremental falls back to a cold run with identical findings.
    token.reset();
    let incremental = outcome.diagnose_incremental(&wm);
    let batch = DiagnosisPipeline::with_workflow(DiagnosisWorkflow::new())
        .run(&outcome.context(&outcome.apg(), &outcome.testbed.all_events()));
    assert_eq!(incremental, batch, "post-cancel incremental equals the batch reference");
}
