//! The continuous re-diagnosis loop: K tenant testbeds, one shared engine,
//! cycles of batched-sharded ingest → watermark-policy seal →
//! incremental re-diagnosis → remediation planning, with every pipeline event
//! streamed onto the service bus.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use diads_core::{
    CancelToken, DiagnosisEngine, DiagnosisReport, DiagnosisWatermark, PipelineEvent, Planner,
    ScenarioOutcome, Testbed,
};
use diads_inject::Scenario;
use diads_monitor::{ComponentId, Duration, MetricKey, MetricName, SealPolicy, Timestamp};
use diads_stats::LatencySpectrum;

use crate::bus::{ChannelSink, EventHub, ServiceEvent};
use crate::stats::{ServiceStats, SpectrumSummary};

/// Tunables of the service loop.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// When accumulated appends are sealed into an epoch and re-diagnosed.
    pub seal_policy: SealPolicy,
    /// Simulated time advanced per cycle (the probe clock step).
    pub probe_interval: Duration,
    /// Probe observations ingested per tenant per cycle.
    pub probes_per_cycle: usize,
}

impl Default for ServiceConfig {
    /// One probe batch of 16 points every simulated 30 s, sealed under the
    /// default [`SealPolicy`] (256 points or 2 simulated minutes — so a lone
    /// tenant diagnoses every 4th cycle on the interval arm).
    fn default() -> Self {
        ServiceConfig {
            seal_policy: SealPolicy::default(),
            probe_interval: Duration::from_secs(30),
            probes_per_cycle: 16,
        }
    }
}

/// One tenant's mutable loop state, behind its own mutex (a tenant is owned by
/// exactly one worker thread per pass; the mutex makes cross-pass sharing safe).
struct TenantState {
    outcome: ScenarioOutcome,
    /// The watermark sealed after the last completed diagnosis — the baseline
    /// the next incremental re-diagnosis resumes from.
    watermark: DiagnosisWatermark,
    probe_key: MetricKey,
    probe_time: Timestamp,
    /// Simulated time of the last seal (the policy's interval arm).
    last_seal_time: Timestamp,
    /// Wall-clock arrival of the oldest observation not yet covered by a
    /// completed diagnosis — the staleness sample taken when one completes.
    pending_since: Option<Instant>,
    /// The report of the last completed (non-cancelled) diagnosis cycle.
    last_report: Option<DiagnosisReport>,
}

/// Diagnosis-as-a-service: owns a shared [`DiagnosisEngine`], K tenant
/// testbeds and the service [`EventHub`], and runs the continuous
/// ingest → seal → re-diagnose → plan loop over them.
///
/// One tenant cycle:
///
/// 1. **ingest** — append a batch of probe observations through the store's
///    batched sharded writer (simulated time advances by
///    [`ServiceConfig::probe_interval`]);
/// 2. **policy** — consult the [`SealPolicy`] over the store's open point count
///    and the simulated time since the last seal; an unmet policy skips the
///    rest of the cycle (staleness accumulates, counted when next diagnosed);
/// 3. **diagnose** — incremental re-diagnosis against the tenant's watermark,
///    streaming the full event sequence onto the bus and honouring the
///    tenant's [`CancelToken`] between stages;
/// 4. **plan** — remediation candidates every cycle; the final cycle of a pass
///    runs the full what-if-evaluated [`Planner::plan`] and publishes it as a
///    [`PipelineEvent::RemediationPlanned`];
/// 5. **seal** — seal a fresh watermark as the next cycle's baseline.
///
/// The final cycle of every [`DiagnosisService::run_cycles`] pass forces a
/// diagnosis regardless of policy, so a pass always ends with every tenant's
/// `last_report` covering its entire store.
pub struct DiagnosisService {
    engine: Arc<DiagnosisEngine>,
    tenants: Vec<Mutex<TenantState>>,
    /// Per-tenant cancellation, outside the tenant mutexes so an in-flight
    /// diagnosis can be cancelled without waiting for its cycle's lock.
    cancels: Vec<CancelToken>,
    hub: EventHub,
    config: ServiceConfig,
    cycle_latency: Mutex<LatencySpectrum>,
    staleness: Mutex<LatencySpectrum>,
    cycles: AtomicU64,
    skipped_cycles: AtomicU64,
    cancelled_cycles: AtomicU64,
    points_ingested: AtomicU64,
    epochs_sealed: AtomicU64,
}

impl DiagnosisService {
    /// Builds the service over freshly-run scenario testbeds (one tenant per
    /// scenario), all attached to one shared engine.
    pub fn new(scenarios: &[Scenario], config: ServiceConfig) -> Self {
        Self::from_outcomes(scenarios.iter().map(Testbed::run_scenario).collect(), config)
    }

    /// Builds the service over already-run outcomes: every testbed is
    /// re-pointed at one shared engine, warm-diagnosed once (recording the
    /// evidence incremental cycles resume from) and sealed at its initial
    /// watermark.
    pub fn from_outcomes(outcomes: Vec<ScenarioOutcome>, config: ServiceConfig) -> Self {
        let engine = DiagnosisEngine::shared();
        let tenants = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, mut outcome)| {
                outcome.testbed.engine = Arc::clone(&engine);
                let _ = outcome.diagnose();
                let watermark = outcome.seal_watermark();
                let probe_time = outcome
                    .history
                    .runs
                    .iter()
                    .map(|r| r.record.end)
                    .max()
                    .expect("scenario produced runs")
                    .plus(Duration::from_mins(10));
                let host = ComponentId::server(format!("svc-host-{i:02}"));
                let metric = MetricName::Custom(format!("svcProbe{i:02}"));
                let probe_key = outcome.testbed.store.intern(&host, &metric);
                Mutex::new(TenantState {
                    outcome,
                    watermark,
                    probe_key,
                    probe_time,
                    last_seal_time: probe_time,
                    pending_since: None,
                    last_report: None,
                })
            })
            .collect::<Vec<_>>();
        let cancels = tenants.iter().map(|_| CancelToken::new()).collect();
        DiagnosisService {
            engine,
            tenants,
            cancels,
            hub: EventHub::new(),
            config,
            cycle_latency: Mutex::new(LatencySpectrum::new()),
            staleness: Mutex::new(LatencySpectrum::new()),
            cycles: AtomicU64::new(0),
            skipped_cycles: AtomicU64::new(0),
            cancelled_cycles: AtomicU64::new(0),
            points_ingested: AtomicU64::new(0),
            epochs_sealed: AtomicU64::new(0),
        }
    }

    /// Number of tenant testbeds.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// The service event bus — subscribe here before running cycles.
    pub fn hub(&self) -> &EventHub {
        &self.hub
    }

    /// The shared engine every tenant diagnoses through.
    pub fn engine(&self) -> &Arc<DiagnosisEngine> {
        &self.engine
    }

    /// Requests cancellation of `tenant`'s diagnoses: an in-flight run stops at
    /// its next stage boundary; subsequent cycles stop before their first stage
    /// — until [`DiagnosisService::resume_tenant`].
    pub fn cancel_tenant(&self, tenant: usize) {
        self.cancels[tenant].cancel();
    }

    /// Clears `tenant`'s cancellation; the next cycle diagnoses normally (a
    /// cold, warm-fit run re-covering what the cancelled cycles skipped).
    pub fn resume_tenant(&self, tenant: usize) {
        self.cancels[tenant].reset();
    }

    /// The report of `tenant`'s last completed (non-cancelled) diagnosis cycle.
    pub fn last_report(&self, tenant: usize) -> Option<DiagnosisReport> {
        self.tenants[tenant].lock().expect("tenant lock poisoned").last_report.clone()
    }

    /// Runs `f` over `tenant`'s outcome as it stands (store sealed through the
    /// last completed cycle) — how the equivalence suite re-diagnoses a
    /// tenant's exact store out-of-band.
    pub fn with_outcome<R>(&self, tenant: usize, f: impl FnOnce(&ScenarioOutcome) -> R) -> R {
        f(&self.tenants[tenant].lock().expect("tenant lock poisoned").outcome)
    }

    /// Runs `cycles` service cycles per tenant, the fleet partitioned
    /// round-robin across `threads` worker threads (each tenant owned by
    /// exactly one thread per pass, so work is constant across thread counts).
    pub fn run_cycles(&self, cycles: u64, threads: usize) {
        let threads = threads.clamp(1, self.tenants.len().max(1));
        std::thread::scope(|scope| {
            for worker in 0..threads {
                scope.spawn(move || {
                    for cycle in 0..cycles {
                        let force = cycle + 1 == cycles;
                        for (i, slot) in self.tenants.iter().enumerate() {
                            if i % threads != worker {
                                continue;
                            }
                            let mut tenant = slot.lock().expect("tenant lock poisoned");
                            self.run_tenant_cycle(i, cycle, force, &mut tenant);
                        }
                    }
                });
            }
        });
    }

    /// One tenant cycle: ingest, policy check, streamed incremental diagnosis,
    /// planning, re-seal. `force` (the pass's final cycle) overrides the policy.
    fn run_tenant_cycle(&self, index: usize, cycle: u64, force: bool, tenant: &mut TenantState) {
        let config = self.config;
        // --- ingest: one probe batch through the batched sharded writer.
        tenant.probe_time = tenant.probe_time.plus(config.probe_interval);
        let step = Duration::from_secs(
            (config.probe_interval.as_secs() / config.probes_per_cycle.max(1) as u64).max(1),
        );
        {
            let writer = tenant.outcome.testbed.store.sharded_writer();
            let mut batched = writer.batched();
            for p in 0..config.probes_per_cycle {
                let t = tenant.probe_time.plus(step.scale(p as f64));
                batched.record_key(tenant.probe_key, t, (cycle * 1000 + p as u64) as f64);
            }
        }
        self.points_ingested.fetch_add(config.probes_per_cycle as u64, Ordering::Relaxed);
        tenant.pending_since.get_or_insert_with(Instant::now);

        // --- policy: seal-and-diagnose only once enough points or time piled up.
        let open = tenant.outcome.testbed.store.open_point_count();
        let elapsed = tenant.probe_time.since(tenant.last_seal_time);
        if !force && !config.seal_policy.should_seal(open, elapsed) {
            self.skipped_cycles.fetch_add(1, Ordering::Relaxed);
            return;
        }

        // --- diagnose: incremental against the last sealed watermark, events
        // streamed onto the bus, the tenant's cancel token honoured between
        // stages.
        let sink = ChannelSink::new(&self.hub, index, cycle);
        let pending = tenant.pending_since;
        let t0 = Instant::now();
        let report = self.engine.diagnose_incremental_streamed(
            &tenant.outcome,
            &tenant.watermark,
            &sink,
            Some(&self.cancels[index]),
        );
        let latency = t0.elapsed().as_nanos() as f64;
        if report.provenance.cancelled_at.is_some() {
            // The cancelled run recorded no evidence and consumed the prior
            // watermark's; leave the watermark and staleness clock as they are —
            // a resumed tenant's next diagnosis re-covers everything (cold,
            // warm-fit) and samples the full accumulated staleness.
            self.cancelled_cycles.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.cycle_latency.lock().expect("latency lock poisoned").record(latency);
        if let Some(since) = pending {
            self.staleness.lock().expect("staleness lock poisoned").record(since.elapsed().as_nanos() as f64);
        }
        tenant.pending_since = None;

        // --- plan: candidates every cycle, the full what-if-evaluated plan on
        // the pass's final cycle (published as RemediationPlanned).
        let planner = Planner::for_outcome(&tenant.outcome);
        let candidates = planner.candidates(&report, &tenant.outcome.testbed);
        std::hint::black_box(candidates.len());
        if force {
            let plan = planner.plan(&report, &tenant.outcome.testbed);
            self.hub.publish(ServiceEvent {
                tenant: index,
                cycle,
                event: PipelineEvent::RemediationPlanned { plan },
            });
        }
        tenant.last_report = Some(report);

        // --- seal: the diagnosis above was checked in under the outcome's
        // current fingerprint; sealing now captures exactly that state as the
        // next cycle's baseline.
        tenant.watermark = tenant.outcome.seal_watermark();
        tenant.last_seal_time = tenant.probe_time;
        self.epochs_sealed.fetch_add(1, Ordering::Relaxed);
        self.cycles.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time snapshot of the service's counters and spectra.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            tenants: self.tenants.len(),
            cycles: self.cycles.load(Ordering::Relaxed),
            skipped_cycles: self.skipped_cycles.load(Ordering::Relaxed),
            cancelled_cycles: self.cancelled_cycles.load(Ordering::Relaxed),
            points_ingested: self.points_ingested.load(Ordering::Relaxed),
            epochs_sealed: self.epochs_sealed.load(Ordering::Relaxed),
            cycle_latency: SpectrumSummary::from_nanos(
                &mut self.cycle_latency.lock().expect("latency lock poisoned"),
            ),
            staleness: SpectrumSummary::from_nanos(
                &mut self.staleness.lock().expect("staleness lock poisoned"),
            ),
            events_published: self.hub.published(),
            events_dropped: self.hub.dropped(),
            engine: self.engine.stats(),
        }
    }
}
