//! Event-stream equivalence: the typed event bus is part of the pipeline's
//! contract, so every execution strategy must narrate the *same* story.
//!
//! * Cold, warm and incremental runs (including the all-replay run, which moves
//!   every stage's recorded slot through the stage executor instead of
//!   re-computing it, emitting each stage's events as it goes), a batch
//!   pipeline run and a session's `finish` emit the same pinned sequence:
//!   `StageStarted`/`StageCompleted` pairs in `PD → CO → DA → CR → SD → IA`
//!   order, `CausesRanked` immediately after SD, and exactly one terminal
//!   `RunCompleted`. A session's `finish` narrates only the stages it runs.
//! * The service's bounded MPSC fan-out never blocks a diagnosis: a subscriber
//!   that stops draining loses events — counted, not silently — while the
//!   diagnosis itself stays bit-identical to a one-shot batch run.

use std::cell::RefCell;
use std::rc::Rc;

use diads::core::{
    DiagnosisPipeline, DiagnosisState, EventSink, PipelineEvent, ScenarioOutcome, Testbed, WorkflowSession,
};
use diads::inject::scenarios::{all_scenarios, scenario_2, ScenarioTimeline};
use diads::monitor::{ComponentId, Duration, MetricName};
use diads::service::{DiagnosisService, ServiceConfig};

/// Records each event as a compact trace token: `started:PD`,
/// `completed:PD[run|reused|redrilled]`, `causes_ranked`, `run_completed`, …
/// Clones share one trace, so a clone can be handed to a pipeline.
#[derive(Default, Clone)]
struct TraceSink {
    trace: Rc<RefCell<Vec<String>>>,
}

impl TraceSink {
    fn take(&self) -> Vec<String> {
        std::mem::take(&mut self.trace.borrow_mut())
    }
}

impl EventSink for TraceSink {
    fn on_event(&self, event: &PipelineEvent, _state: &DiagnosisState) {
        let token = match event {
            PipelineEvent::StageStarted { stage } => format!("started:{stage}"),
            PipelineEvent::StageCompleted { provenance } => {
                let mode = if provenance.redrilled {
                    "redrilled"
                } else if provenance.reused {
                    "reused"
                } else {
                    "run"
                };
                format!("completed:{}[{mode}]", provenance.stage)
            }
            PipelineEvent::CausesRanked { causes } => {
                format!("causes_ranked:{}", causes.len())
            }
            PipelineEvent::RemediationPlanned { .. } => "remediation_planned".to_string(),
            PipelineEvent::RunCompleted { .. } => "run_completed".to_string(),
            PipelineEvent::Cancelled { at_stage } => format!("cancelled:{at_stage}"),
        };
        self.trace.borrow_mut().push(token);
    }
}

/// The stage-visit skeleton of a trace: started/completed stage names with the
/// per-stage execution mode erased, plus the interleaved milestone events. This
/// is the cross-strategy invariant — cold runs execute, incremental runs may
/// reuse or redrill, but the *order and identity* of stages never changes.
fn skeleton(trace: &[String]) -> Vec<String> {
    trace
        .iter()
        .map(|t| match t.split_once('[') {
            Some((head, _)) => head.to_string(),
            None => match t.split_once(':') {
                Some(("causes_ranked", _)) => "causes_ranked".to_string(),
                _ => t.clone(),
            },
        })
        .collect()
}

const PINNED_SKELETON: [&str; 14] = [
    "started:PD",
    "completed:PD",
    "started:CO",
    "completed:CO",
    "started:DA",
    "completed:DA",
    "started:CR",
    "completed:CR",
    "started:SD",
    "completed:SD",
    "causes_ranked",
    "started:IA",
    "completed:IA",
    "run_completed",
];

/// Appends one probe point past every run window, so the next incremental
/// re-diagnosis takes the wholesale reuse fast path (no stale run windows).
fn append_probe(outcome: &mut ScenarioOutcome, tag: &str) {
    let probe_time =
        outcome.history.runs.iter().map(|r| r.record.end).max().expect("runs").plus(Duration::from_mins(10));
    outcome.testbed.store.record(
        &ComponentId::server(tag),
        &MetricName::Custom(format!("{tag}Probe")),
        probe_time,
        1.0,
    );
}

#[test]
fn cold_warm_and_incremental_streams_share_one_pinned_skeleton() {
    for scenario in all_scenarios() {
        let mut outcome = Testbed::run_scenario(&scenario);
        let engine = outcome.testbed.engine.clone();
        let sink = TraceSink::default();

        // Cold: every stage executes.
        let cold_report = engine.diagnose_streamed(&outcome, &sink, None);
        let cold = sink.take();
        assert_eq!(skeleton(&cold), PINNED_SKELETON, "{}: cold skeleton", scenario.id);
        assert!(
            cold.iter().take(13).all(|t| !t.contains("[reused]")),
            "{}: a cold run never reuses evidence",
            scenario.id
        );

        // Warm: same fingerprint, same skeleton.
        let warm_report = engine.diagnose_streamed(&outcome, &sink, None);
        let warm = sink.take();
        assert_eq!(skeleton(&warm), skeleton(&cold), "{}: warm == cold skeleton", scenario.id);
        assert_eq!(warm_report, cold_report, "{}: warm findings unchanged", scenario.id);

        // Incremental over an appended probe beyond every run window: every
        // stage is replayed through the stage executor from the recorded
        // evidence rather than re-computed — the subscriber cannot tell the
        // difference structurally.
        let watermark = outcome.seal_watermark();
        append_probe(&mut outcome, &format!("evt-{}", scenario.id));
        let incr_report = engine.diagnose_incremental_streamed(&outcome, &watermark, &sink, None);
        let incr = sink.take();
        assert_eq!(skeleton(&incr), PINNED_SKELETON, "{}: incremental skeleton matches cold", scenario.id);
        assert!(
            incr.iter().any(|t| t.contains("[reused]")),
            "{}: the fast path marks stages as reused",
            scenario.id
        );
        assert_eq!(
            incr_report, cold_report,
            "{}: incremental findings match the batch reference",
            scenario.id
        );

        // The full incremental==batch pin from the epoch-store work, restated
        // through the event bus: same inputs ⇒ same findings AND same story.
        let batch = outcome.diagnose();
        assert_eq!(incr_report, batch, "{}: streamed incremental == batch", scenario.id);

        // A batch pipeline carrying the sink.
        let apg = outcome.apg();
        let events = outcome.testbed.all_events();
        let ctx = outcome.context(&apg, &events);
        let piped = || DiagnosisPipeline::standard().with_sink(sink.clone());
        let pipeline_report = piped().run(&ctx);
        assert_eq!(skeleton(&sink.take()), PINNED_SKELETON, "{}: batch pipeline skeleton", scenario.id);
        assert_eq!(pipeline_report, batch, "{}: batch pipeline findings", scenario.id);

        // A fresh session's finish runs every stage through the same executor.
        WorkflowSession::with_pipeline(piped(), ctx).finish();
        assert_eq!(skeleton(&sink.take()), PINNED_SKELETON, "{}: fresh session finish", scenario.id);

        // A session that ran PD and CO narrates only the stages finish runs; a
        // second finish on the full ledger runs none.
        let mut session = WorkflowSession::with_pipeline(piped(), ctx);
        session.run_plan_diffing();
        session.run_correlated_operators();
        sink.take();
        session.finish();
        assert_eq!(skeleton(&sink.take()), PINNED_SKELETON[4..], "{}: finish from DA on", scenario.id);
        session.finish();
        assert_eq!(sink.take(), ["run_completed"], "{}: finish on a full ledger", scenario.id);
    }
}

#[test]
fn causes_ranked_carries_the_sd_ranking_before_the_report() {
    let scenario = scenario_2(ScenarioTimeline::short());
    let outcome = Testbed::run_scenario(&scenario);
    let engine = outcome.testbed.engine.clone();

    struct RankCheck {
        ranked_len: RefCell<Option<usize>>,
        report_len: RefCell<Option<usize>>,
    }
    impl EventSink for RankCheck {
        fn on_event(&self, event: &PipelineEvent, state: &DiagnosisState) {
            match event {
                PipelineEvent::CausesRanked { causes } => {
                    assert!(state.ia.is_none(), "CausesRanked fires before impact analysis runs");
                    *self.ranked_len.borrow_mut() = Some(causes.len());
                }
                PipelineEvent::RunCompleted { report } => {
                    *self.report_len.borrow_mut() = Some(report.causes.len());
                }
                _ => {}
            }
        }
    }
    let sink = RankCheck { ranked_len: RefCell::new(None), report_len: RefCell::new(None) };
    let report = engine.diagnose_streamed(&outcome, &sink, None);
    let ranked = sink.ranked_len.borrow().expect("CausesRanked fired");
    let streamed = sink.report_len.borrow().expect("RunCompleted fired");
    assert_eq!(streamed, report.causes.len(), "RunCompleted carries the returned report");
    assert_eq!(ranked, report.causes.len(), "the early ranking is the final ranking");
}

#[test]
fn slow_subscriber_drops_are_counted_and_never_corrupt_the_diagnosis() {
    let scenario = scenario_2(ScenarioTimeline::short());
    let service = DiagnosisService::new(std::slice::from_ref(&scenario), ServiceConfig::default());

    // A two-slot queue that is never drained: after two publishes, every
    // further event takes the counted-drop path.
    let rx = service.hub().subscribe(2);
    service.run_cycles(6, 1);

    let stats = service.stats();
    assert!(
        stats.events_dropped > 0,
        "an undrained bounded subscriber must shed load ({} published)",
        stats.events_published
    );
    assert_eq!(rx.try_iter().count(), 2, "exactly the queue capacity was retained");
    assert!(stats.events_published >= stats.events_dropped, "drops are a subset of publishes");

    // Backpressure shed events, never diagnosis quality: the service's final
    // report is bit-identical to a one-shot batch diagnosis of the same store.
    let batch = service.with_outcome(0, |outcome| outcome.diagnose());
    let last = service.last_report(0).expect("final cycle forces a diagnosis");
    assert_eq!(last, batch, "slow subscriber left the findings untouched");
}
