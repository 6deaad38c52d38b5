//! The fleet-level diagnosis engine.
//!
//! A [`DiagnosisEngine`] owns the cross-diagnosis KDE-fit cache **across testbeds**:
//! one engine can back a whole batch of scenario outcomes (or a fleet of monitored
//! deployments), and every diagnosis routed through it shares fits keyed by
//! *(run-history fingerprint, variable)*.
//!
//! Sharing across testbeds is sound because both halves of the key are
//! store-agnostic identities:
//!
//! * the outer key is [`crate::testbed::ScenarioOutcome::engine_fingerprint`] — the
//!   labelled history's [`crate::runs::RunHistory::fingerprint`] mixed with the
//!   monitoring store's content fingerprint, so a slot pins both the satisfactory
//!   run set *and* the recorded samples the fits are computed from;
//! * the inner key is [`crate::workflow::ScoreKey`], whose
//!   [`ScoreKey::Metric`](crate::workflow::ScoreKey) variant holds a
//!   [`diads_monitor::MetricKey`] issued by the **shared interner** — the same
//!   (component, metric) pair resolves to the same key in every store, so a fit
//!   warmed by one testbed's diagnosis is found (and valid) when an independent
//!   store with identical contents and history is diagnosed later.
//!
//! The engine preserves the per-fingerprint invalidation and generation-counter
//! semantics of the per-testbed cache it grew out of: slots are checked out while a
//! diagnosis runs (never holding the lock across scoring), explicit invalidation
//! wins over concurrent in-flight check-ins, and relabelled histories land in fresh
//! slots. Slots are additionally **LRU-bounded**: a long-running fleet accumulating
//! distinct history fingerprints recycles its least-recently-used slot once the
//! configurable capacity is exceeded (recycling costs at most a later re-fit), with
//! evictions observable through [`DiagnosisEngine::stats`].
//!
//! Diagnoses routed through the engine ([`DiagnosisEngine::diagnose`]) execute the
//! composable [`crate::pipeline::DiagnosisPipeline`] — the same path batch and
//! interactive drivers use — and the emitted report's provenance records whether
//! the slot checkout was warm or cold.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use diads_monitor::{Duration, EpochId, Interner};

use crate::diagnosis::{DiagnosisProvenance, DiagnosisReport, EngineProvenance};
use crate::pipeline::{
    CancelToken, ContextSource, DiagnosisPipeline, Emitter, EventSink, Evidence, LedgerInputs,
};
use crate::testbed::ScenarioOutcome;
use crate::workflow::{DiagnosisCache, ScoreKey};

/// Default bound on the number of warm slots — generous (a slot per distinct
/// labelled history; fleets rarely track this many live labellings at once), but
/// finite, so an unbounded stream of fingerprints cannot grow the engine forever.
pub const DEFAULT_SLOT_CAPACITY: usize = 1024;

/// One warm slot: the cached fits, the evidence of the last standard diagnosis
/// recorded into it (the seed of incremental re-diagnosis), plus the recency
/// stamp eviction orders by.
#[derive(Debug)]
struct Slot {
    cache: DiagnosisCache,
    /// The last completed engine-routed diagnosis checked into this slot: its
    /// stamped ledger and report, which [`DiagnosisEngine::diagnose_incremental`]
    /// replays. `None` until one is recorded.
    evidence: Option<Evidence>,
    /// Value of the engine's monotonic check-in counter when this slot was last
    /// checked in — higher is more recent.
    last_used: u64,
}

/// A slot removed from its stripe for the duration of one use: its fits, its
/// recorded evidence, the generation the checkout observed, and whether it was
/// warm.
struct Checkout {
    cache: DiagnosisCache,
    evidence: Option<Evidence>,
    generation: u64,
    warm: bool,
}

/// Number of independent lock stripes the slot table is split into. A power of two
/// so stripe selection is a mask of the fingerprint's low bits; 16 stripes keep
/// contention negligible for any realistic tenant-thread count while the per-stripe
/// maps stay small.
const STRIPE_COUNT: usize = 16;

/// The stripe owning a slot fingerprint.
fn stripe_index(fingerprint: u64) -> usize {
    (fingerprint as usize) & (STRIPE_COUNT - 1)
}

/// One lock stripe of the slot table: a plain fingerprint→slot map. All
/// cross-stripe state (recency clock, generation, bounds accounting, stats) lives
/// in the engine's atomics, so two diagnoses whose fingerprints land in different
/// stripes never touch the same lock.
#[derive(Debug, Default)]
struct Stripe {
    map: HashMap<u64, Slot>,
}

/// Everything [`DiagnosisEngine::diagnose_incremental`] needs to resume from a
/// sealed point in time: which engine slot holds the prior evidence, which store
/// epoch the prior diagnosis observed (with its cumulative fingerprint for
/// validation), the run-history prefix it was computed over, and the diagnosed
/// plan's fingerprint. Obtain one from
/// [`crate::testbed::ScenarioOutcome::seal_watermark`].
///
/// A watermark is only a *claim* about the past; every incremental entry point
/// re-validates it against the live store and history and silently falls back to a
/// cold batch diagnosis when anything fails to line up — results are always exactly
/// what a cold diagnosis would produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisWatermark {
    /// The engine-slot fingerprint at seal time
    /// ([`crate::testbed::ScenarioOutcome::engine_fingerprint`]).
    pub fingerprint: u64,
    /// The store epoch sealed when the watermark was taken.
    pub epoch: EpochId,
    /// The store's cumulative content fingerprint at that epoch.
    pub store_fingerprint: u64,
    /// Fingerprint of the run-history prefix the prior diagnosis was computed over.
    pub history_fingerprint: u64,
    /// Number of runs in that prefix.
    pub runs: usize,
    /// Fingerprint of the plan under diagnosis (plan drift forces a cold run).
    pub plan_fingerprint: String,
}

/// Checkout statistics of a [`DiagnosisEngine`] — the observable that pins the
/// fleet-level warm path (and the LRU bound) in tests and benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Slot checkouts that found previously-warmed fits.
    pub warm_checkouts: u64,
    /// Slot checkouts that started from an empty slot.
    pub cold_checkouts: u64,
    /// Warm slots recycled by the LRU capacity bound.
    pub evictions: u64,
}

impl EngineStats {
    /// Fraction of slot checkouts that found previously-warmed fits (`0.0` before
    /// the first checkout).
    pub fn warm_hit_rate(&self) -> f64 {
        let total = self.warm_checkouts + self.cold_checkouts;
        if total == 0 {
            0.0
        } else {
            self.warm_checkouts as f64 / total as f64
        }
    }

    /// One scrapeable JSON object over the engine counters (via
    /// [`crate::jsonio::Writer`]), e.g.
    /// `{"warm_checkouts":3,"cold_checkouts":1,"evictions":0,"warm_hit_rate":0.75}`.
    pub fn to_json(&self) -> String {
        let mut w = crate::diagnosis::json::Writer::new();
        w.open_object();
        w.number_field("warm_checkouts", self.warm_checkouts as f64);
        w.number_field("cold_checkouts", self.cold_checkouts as f64);
        w.number_field("evictions", self.evictions as f64);
        w.number_field("warm_hit_rate", self.warm_hit_rate());
        w.close_object();
        w.finish()
    }
}

/// A fleet-level diagnosis cache: one [`DiagnosisCache`] slot per run-history
/// fingerprint, shareable across testbeds and threads, LRU-bounded.
///
/// The slot table is **lock-striped**: fingerprints map onto `STRIPE_COUNT` (16)
/// independent mutexes, so checkouts of different histories touch different locks
/// and a tenant fleet never serializes on one engine-wide mutex (a slot is
/// additionally checked *out* while a diagnosis runs, so even same-stripe
/// diagnoses only contend for the microseconds of the checkout itself). All
/// cross-stripe coordination — the LRU recency clock, the invalidation
/// generation, slot/fit accounting for the eviction bounds, and the
/// [`EngineStats`] counters — runs on atomics, never a stats lock. An
/// invalidation that lands while a slot is checked out still wins: the in-flight
/// fits are discarded at check-in instead of resurrecting the invalidated slot.
#[derive(Debug)]
pub struct DiagnosisEngine {
    stripes: Vec<Mutex<Stripe>>,
    /// Maximum number of warm slots kept (immutable after construction); the
    /// globally least-recently-used slot is recycled when a check-in exceeds it.
    capacity: usize,
    /// Optional bound on the *total fitted-KDE count* across all warm slots
    /// (measured with [`diads_stats::ScoringCache::len`]): when a check-in pushes
    /// the sum over it, least-recently-used slots are recycled until the sum fits
    /// again — a memory bound proportional to actual fits rather than slot count.
    fit_budget: Option<usize>,
    /// Bumped by every invalidation. A check-in whose
    /// checkout observed an older generation is dropped — conservative (an
    /// invalidation of *any* fingerprint discards concurrent in-flight fits, costing
    /// at most a re-fit later), but it can never re-insert invalidated fits.
    /// Same-fingerprint races serialize through the fingerprint's stripe lock:
    /// invalidation bumps while holding it, check-ins re-read it under it.
    generation: AtomicU64,
    /// Monotonic check-in counter: the recency clock for LRU eviction. Global, so
    /// recency stamps are comparable across stripes.
    tick: AtomicU64,
    /// Number of checked-in slots across all stripes (checked-out slots are absent
    /// from their map and from this count, exactly like the single-mutex engine).
    slot_count: AtomicUsize,
    /// Total fitted KDEs across all checked-in slots (the fit-budget observable).
    total_fits: AtomicUsize,
    /// Checkouts that found a warm (previously checked-in) slot.
    warm_checkouts: AtomicU64,
    /// Checkouts that created a fresh slot.
    cold_checkouts: AtomicU64,
    /// Slots recycled by the LRU bound.
    evictions: AtomicU64,
}

impl Default for DiagnosisEngine {
    fn default() -> Self {
        DiagnosisEngine {
            stripes: (0..STRIPE_COUNT).map(|_| Mutex::new(Stripe::default())).collect(),
            capacity: DEFAULT_SLOT_CAPACITY,
            fit_budget: None,
            generation: AtomicU64::new(0),
            tick: AtomicU64::new(0),
            slot_count: AtomicUsize::new(0),
            total_fits: AtomicUsize::new(0),
            warm_checkouts: AtomicU64::new(0),
            cold_checkouts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl DiagnosisEngine {
    /// Creates an empty engine with the default slot capacity
    /// ([`DEFAULT_SLOT_CAPACITY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine bounded to at most `capacity` warm slots (at least
    /// one). Checkouts refresh a slot's recency; a check-in that exceeds the bound
    /// recycles the least-recently-used slot.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut engine = Self::new();
        engine.capacity = capacity.max(1);
        engine
    }

    /// Creates an empty engine bounded by *fitted-cache size* rather than slot
    /// count: whenever the total number of fitted KDEs across all warm slots
    /// (summed with [`diads_stats::ScoringCache::len`]) exceeds `budget` (at least
    /// one), least-recently-used slots are recycled until it fits — except that the
    /// single most-recent slot is always kept, even when it alone exceeds the
    /// budget. The slot-count bound stays at [`DEFAULT_SLOT_CAPACITY`] as a
    /// backstop.
    pub fn with_fit_budget(budget: usize) -> Self {
        let mut engine = Self::new();
        engine.fit_budget = Some(budget.max(1));
        engine
    }

    /// Creates an empty engine behind an `Arc`, ready to share across testbeds.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// The configured slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured fitted-cache budget, when bounded by
    /// [`DiagnosisEngine::with_fit_budget`].
    pub fn fit_budget(&self) -> Option<usize> {
        self.fit_budget
    }

    /// Total fitted KDEs currently held across all warm slots.
    pub fn total_cached_fits(&self) -> usize {
        self.total_fits.load(Ordering::SeqCst)
    }

    /// The stripe lock owning a fingerprint's slot.
    fn stripe(&self, fingerprint: u64) -> &Mutex<Stripe> {
        &self.stripes[stripe_index(fingerprint)]
    }

    /// Whether the slot of `fingerprint` holds a recorded evidence ledger (i.e. a
    /// standard engine-routed diagnosis was checked into it) — the precondition
    /// for [`DiagnosisEngine::diagnose_incremental`] taking the replay path.
    pub fn has_evidence(&self, fingerprint: u64) -> bool {
        self.stripe(fingerprint)
            .lock()
            .expect("stripe lock poisoned")
            .map
            .get(&fingerprint)
            .is_some_and(|slot| slot.evidence.is_some())
    }

    /// Diagnoses a scenario outcome through this engine (rather than through the
    /// engine its testbed carries): the fleet-level entry point that lets one engine
    /// warm-serve outcomes from independently-built testbeds. Runs the standard
    /// [`DiagnosisPipeline`] and records its evidence ledger (stamped with the input
    /// fingerprints it was computed from) into the engine slot — the seed a later
    /// [`DiagnosisEngine::diagnose_incremental`] replays.
    pub fn diagnose(&self, outcome: &ScenarioOutcome) -> DiagnosisReport {
        self.run(outcome, None, None, None)
    }

    /// [`DiagnosisEngine::diagnose`] streaming the run's full [`crate::pipeline::PipelineEvent`]
    /// sequence to `sink` (on the diagnosing thread) and honouring `cancel`
    /// between stages. A cancelled run returns a partial, consistent report
    /// (provenance `cancelled_at` names the first stage that never ran) and
    /// records **no** evidence — the warmed fits are kept, so a resumed diagnosis
    /// starts warm.
    pub fn diagnose_streamed(
        &self,
        outcome: &ScenarioOutcome,
        sink: &dyn EventSink,
        cancel: Option<&CancelToken>,
    ) -> DiagnosisReport {
        self.run(outcome, None, Some(sink), cancel)
    }

    /// Re-diagnoses an outcome *incrementally* against the evidence recorded at
    /// `since` (see [`crate::testbed::ScenarioOutcome::seal_watermark`]): the engine
    /// validates the watermark against the live store and history, brings the
    /// slot's cached fits up to date with any appended runs, and re-executes only
    /// the stages whose inputs actually changed — every other stage replays its
    /// prior result, marked `reused` in the report's provenance. The refreshed
    /// evidence is checked back in under the outcome's *current* engine
    /// fingerprint, so chained incrementals keep working.
    ///
    /// Falls back to a cold [`DiagnosisEngine::diagnose`] (bit-identical by
    /// construction) whenever the watermark cannot be validated: the store was
    /// rebuilt or its epochs compacted away, the recorded run prefix was relabelled,
    /// the plan drifted, appended metrics intrude into the monitored window of a
    /// pre-watermark run, or the slot's evidence was evicted.
    pub fn diagnose_incremental(
        &self,
        outcome: &ScenarioOutcome,
        since: &DiagnosisWatermark,
    ) -> DiagnosisReport {
        self.run(outcome, Some(since), None, None)
    }

    /// [`DiagnosisEngine::diagnose_incremental`] streaming the run's full
    /// [`crate::pipeline::PipelineEvent`] sequence to `sink` and honouring `cancel` between
    /// stages. Replayed stages emit the same `StageStarted`/`StageCompleted`
    /// pairs a cold run would, so warm, cold and incremental paths stream
    /// identical event sequences over the same outcome. A cancelled run records
    /// no evidence and leaves the `since` watermark consumed — the next
    /// diagnosis (incremental or batch) falls back to a warm-fit cold run.
    pub fn diagnose_incremental_streamed(
        &self,
        outcome: &ScenarioOutcome,
        since: &DiagnosisWatermark,
        sink: &dyn EventSink,
        cancel: Option<&CancelToken>,
    ) -> DiagnosisReport {
        self.run(outcome, Some(since), Some(sink), cancel)
    }

    /// Every engine-routed diagnosis: the standard pipeline over the outcome's slot,
    /// replaying from the evidence `since` recorded when [`DiagnosisEngine::resume`]
    /// accepts it, and with no prior otherwise. A completed run's evidence is
    /// checked in under the outcome's current fingerprint; a cancelled run checks
    /// in its fits alone.
    fn run(
        &self,
        outcome: &ScenarioOutcome,
        since: Option<&DiagnosisWatermark>,
        sink: Option<&dyn EventSink>,
        cancel: Option<&CancelToken>,
    ) -> DiagnosisReport {
        let events = outcome.testbed.all_events();
        let apg = OnceCell::new();
        let ctx = ContextSource::Outcome { outcome, events: &events, apg: &apg };
        let history = outcome.history.fingerprint();
        let fingerprint = outcome.engine_fingerprint_with(history);
        let inputs = LedgerInputs {
            history,
            events: events.fingerprint(),
            store: outcome.testbed.store.content_fingerprint(),
        };
        let (mut slot, inputs, epochs_applied) =
            match since.and_then(|since| self.resume(outcome, since, &ctx, inputs)) {
                Some(resumed) => resumed,
                None => (Checkout { evidence: None, ..self.checkout(fingerprint) }, inputs, 0),
            };
        let provenance = DiagnosisProvenance {
            engine: Some(EngineProvenance { fingerprint, warm: slot.warm }),
            epochs_applied,
            ..DiagnosisProvenance::default()
        };
        let (report, state) = DiagnosisPipeline::standard().execute(
            &ctx,
            &mut slot.cache,
            &Emitter::new(&[], sink, cancel),
            slot.evidence,
            Some(inputs),
            provenance,
        );
        let evidence =
            report.provenance.cancelled_at.is_none().then(|| Evidence { state, report: report.clone() });
        self.checkin(fingerprint, slot.cache, evidence, slot.generation);
        report
    }

    /// Checks out the slot `since` was sealed against when its recorded evidence
    /// can seed a replay of `outcome`, with the slot's fits extended over any runs
    /// appended since, the run's `inputs` (carrying the prior store fingerprint
    /// forward when no run observes the appended metrics) and the number of
    /// epochs applied. `None` — run with no prior — when the store no longer holds
    /// the watermark's epoch or content, the recorded run prefix or the plan
    /// changed, appended metrics land inside a pre-watermark run's monitored
    /// window, the appended runs flip the metric-baseline scope, or the slot holds
    /// no stamped evidence.
    fn resume(
        &self,
        outcome: &ScenarioOutcome,
        since: &DiagnosisWatermark,
        ctx: &ContextSource<'_, '_>,
        inputs: LedgerInputs,
    ) -> Option<(Checkout, LedgerInputs, u64)> {
        let store = &outcome.testbed.store;
        let history = &outcome.history;
        // With no run appended (the service replay case) the recorded prefix is the
        // whole history, whose fingerprint `inputs` already carries.
        let prefix_fingerprint = if since.runs == history.len() {
            Some(inputs.history)
        } else {
            history.prefix_fingerprint(since.runs)
        };
        let valid = store.epoch_cumulative_fingerprint(since.epoch) == Some(since.store_fingerprint)
            && prefix_fingerprint == Some(since.history_fingerprint)
            && outcome.diagnosed_plan().fingerprint() == since.plan_fingerprint;
        if !valid {
            return None;
        }
        let delta = store.delta_since(since.epoch)?;
        // Runs are monitored over [start - pad, end + pad); cached per-run samples
        // (operator stats, per-run metric means) for the pre-watermark runs stay
        // valid only while appended points land strictly after every such window.
        let pad = Duration::from_mins(5);
        let prior_cutoff = history.runs[..since.runs].iter().map(|r| r.record.end.plus(pad)).max();
        if let (Some(earliest), Some(cutoff)) = (delta.earliest_time(), prior_cutoff) {
            if earliest < cutoff {
                return None;
            }
        }
        // Re-drill scope guard: metric fits are baselined on the plan-filtered
        // satisfactory runs when any exist, else on the full satisfactory history
        // ([`crate::workflow::DiagnosisContext::baseline_runs`]). If the appended
        // runs flip that emptiness, the slot's cached fits were derived under the
        // other scope and cannot be extended.
        let plan_filtered_empty = |runs: &[crate::runs::LabeledRun]| {
            !runs.iter().any(|r| r.satisfactory && r.record.plan_fingerprint == since.plan_fingerprint)
        };
        if plan_filtered_empty(&history.runs[..since.runs]) != plan_filtered_empty(&history.runs) {
            return None;
        }
        let sealed_after = store.epoch_count() as u64 - (since.epoch.index() as u64 + 1);
        let epochs_applied = sealed_after.max(u64::from(!delta.is_empty()));
        // Whether the delta is visible to any *current* run's monitored window — if
        // not, the store DA/SD observe is unchanged even though its content hash
        // moved, and the prior observed-store fingerprint is carried forward.
        let full_cutoff = history.runs.iter().map(|r| r.record.end.plus(pad)).max();
        let delta_visible = match (delta.earliest_time(), full_cutoff) {
            (Some(earliest), Some(cutoff)) => earliest < cutoff,
            (Some(_), None) => true,
            (None, _) => false,
        };

        let mut slot = self.checkout(since.fingerprint);
        let Some(prior_inputs) = slot.evidence.as_ref().and_then(|e| e.state.inputs) else {
            // Nothing recorded (or the slot was recycled): put the fits back.
            self.checkin(since.fingerprint, slot.cache, slot.evidence, slot.generation);
            return None;
        };
        let inputs =
            LedgerInputs { store: if delta_visible { inputs.store } else { prior_inputs.store }, ..inputs };
        if since.runs < history.len() {
            // Fold the satisfactory samples of the appended runs into the cached
            // fits so warm scores match what a cold fit over the full history
            // would produce.
            crate::workflow::extend_cache_for_new_runs(&mut slot.cache, &ctx.get(), since.runs);
        }
        Some((slot, inputs, epochs_applied))
    }

    /// Runs `f` with the slot of `fingerprint` checked out (created empty on first
    /// use) and whether the checkout was warm, returning `f`'s result. The mutex is
    /// held only while checking the slot out and back in, never across `f`;
    /// concurrent users of one fingerprint each get a working cache and their fits
    /// are merged afterwards. While a slot is checked out it is absent from the map,
    /// so [`DiagnosisEngine::is_warm`] reports only checked-in slots. A check-in
    /// that pushes the map over capacity recycles the least-recently-used slot.
    pub fn with_slot_tracked<R>(
        &self,
        fingerprint: u64,
        f: impl FnOnce(&mut DiagnosisCache, bool) -> R,
    ) -> R {
        let mut slot = self.checkout(fingerprint);
        let out = f(&mut slot.cache, slot.warm);
        // The evidence ledger rides along untouched: stage-level users (interactive
        // sessions) neither read nor invalidate it.
        self.checkin(fingerprint, slot.cache, slot.evidence, slot.generation);
        out
    }

    /// Removes the slot of `fingerprint` from its stripe (creating an empty cache on
    /// a cold checkout). Locks only the owning stripe; the stats counters are
    /// atomic, so even warm checkouts of different histories share no lock at all.
    fn checkout(&self, fingerprint: u64) -> Checkout {
        let mut stripe = self.stripe(fingerprint).lock().expect("stripe lock poisoned");
        // Read the generation under the stripe lock, so a same-fingerprint
        // invalidation (which bumps under this lock) is totally ordered with us.
        let generation = self.generation.load(Ordering::SeqCst);
        match stripe.map.remove(&fingerprint) {
            Some(slot) => {
                self.warm_checkouts.fetch_add(1, Ordering::Relaxed);
                self.slot_count.fetch_sub(1, Ordering::SeqCst);
                self.total_fits.fetch_sub(slot.cache.len(), Ordering::SeqCst);
                Checkout { cache: slot.cache, evidence: slot.evidence, generation, warm: true }
            }
            None => {
                self.cold_checkouts.fetch_add(1, Ordering::Relaxed);
                Checkout { cache: DiagnosisCache::default(), evidence: None, generation, warm: false }
            }
        }
    }

    /// Re-inserts a checked-out slot (possibly under a *different* fingerprint than
    /// it was checked out with — that is how an incremental re-diagnosis moves a
    /// slot forward to the new engine fingerprint). Dropped entirely when an
    /// invalidation bumped the generation meanwhile (re-checked under the target
    /// stripe's lock, so a same-fingerprint invalidation can never lose the race).
    /// On a concurrent check-in to the same fingerprint the caches are merged and a
    /// `Some` incoming evidence ledger replaces the resident one (latest recording
    /// wins). Applies the LRU bounds afterwards, outside the stripe lock.
    fn checkin(&self, fingerprint: u64, cache: DiagnosisCache, evidence: Option<Evidence>, generation: u64) {
        {
            let mut stripe = self.stripe(fingerprint).lock().expect("stripe lock poisoned");
            if self.generation.load(Ordering::SeqCst) != generation {
                return;
            }
            let tick = self.tick.fetch_add(1, Ordering::SeqCst) + 1;
            match stripe.map.entry(fingerprint) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    let slot = e.get_mut();
                    let resident = slot.cache.len();
                    slot.cache.absorb(cache);
                    self.total_fits.fetch_add(slot.cache.len() - resident, Ordering::SeqCst);
                    if evidence.is_some() {
                        slot.evidence = evidence;
                    }
                    slot.last_used = tick;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    self.slot_count.fetch_add(1, Ordering::SeqCst);
                    self.total_fits.fetch_add(cache.len(), Ordering::SeqCst);
                    v.insert(Slot { cache, evidence, last_used: tick });
                }
            }
        }
        self.evict_over_bounds();
    }

    /// Recycles the globally least-recently-used checked-in slot, never holding two
    /// stripe locks at once: a first pass scans stripes one at a time for the
    /// minimum recency stamp, then the winning stripe is re-locked and the victim
    /// re-validated (it may have been touched or checked out meanwhile) before
    /// removal. Returns whether a slot was evicted; a handful of retries absorbs
    /// concurrent touches, after which the (advisory, best-effort under races)
    /// eviction yields to the next check-in.
    fn evict_lru(&self) -> bool {
        for _ in 0..4 {
            let mut victim: Option<(usize, u64, u64)> = None;
            for (index, stripe) in self.stripes.iter().enumerate() {
                let stripe = stripe.lock().expect("stripe lock poisoned");
                for (fp, slot) in &stripe.map {
                    if victim.is_none_or(|(_, _, used)| slot.last_used < used) {
                        victim = Some((index, *fp, slot.last_used));
                    }
                }
            }
            let Some((index, fp, used)) = victim else { return false };
            let mut stripe = self.stripes[index].lock().expect("stripe lock poisoned");
            match stripe.map.get(&fp) {
                Some(slot) if slot.last_used == used => {
                    let fits = slot.cache.len();
                    stripe.map.remove(&fp);
                    self.slot_count.fetch_sub(1, Ordering::SeqCst);
                    self.total_fits.fetch_sub(fits, Ordering::SeqCst);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
                _ => continue, // Touched or checked out since the scan: re-scan.
            }
        }
        false
    }

    /// Applies the slot-count bound and, if configured, the fitted-cache budget.
    /// The just-checked-in slot carries the newest tick, so it is never the LRU
    /// victim of the capacity bound (capacity is at least 1); the fit budget stops
    /// at one remaining slot, so a single over-budget slot is kept rather than
    /// looping forever.
    fn evict_over_bounds(&self) {
        while self.slot_count.load(Ordering::SeqCst) > self.capacity {
            if !self.evict_lru() {
                break;
            }
        }
        if let Some(budget) = self.fit_budget {
            while self.slot_count.load(Ordering::SeqCst) > 1
                && self.total_fits.load(Ordering::SeqCst) > budget
            {
                if !self.evict_lru() {
                    break;
                }
            }
        }
    }

    /// Drops the slot of one fingerprint (call when the labelling it was fitted for
    /// is abandoned, e.g. on run relabelling). Also discards any concurrent in-flight
    /// check-in, so an invalidated slot cannot be resurrected: the generation bump
    /// happens under the fingerprint's stripe lock, which every check-in re-reads
    /// the generation under.
    pub fn invalidate(&self, fingerprint: u64) {
        let mut stripe = self.stripe(fingerprint).lock().expect("stripe lock poisoned");
        if let Some(slot) = stripe.map.remove(&fingerprint) {
            self.slot_count.fetch_sub(1, Ordering::SeqCst);
            self.total_fits.fetch_sub(slot.cache.len(), Ordering::SeqCst);
        }
        self.generation.fetch_add(1, Ordering::SeqCst);
    }

    /// Drops every slot (call when the underlying monitoring store or run records
    /// change, which invalidates every fit), including concurrent in-flight ones.
    /// Locks all stripes (in index order — the same order every multi-stripe path
    /// uses, so the engine stays deadlock-free) so the bump is ordered with every
    /// possible concurrent check-in.
    pub fn invalidate_all(&self) {
        let mut stripes: Vec<_> =
            self.stripes.iter().map(|s| s.lock().expect("stripe lock poisoned")).collect();
        self.generation.fetch_add(1, Ordering::SeqCst);
        for stripe in &mut stripes {
            for (_, slot) in stripe.map.drain() {
                self.slot_count.fetch_sub(1, Ordering::SeqCst);
                self.total_fits.fetch_sub(slot.cache.len(), Ordering::SeqCst);
            }
        }
    }

    /// Whether a checked-in slot exists for this fingerprint (i.e. a previous
    /// diagnosis warmed it and no diagnosis currently has it checked out).
    pub fn is_warm(&self, fingerprint: u64) -> bool {
        self.stripe(fingerprint).lock().expect("stripe lock poisoned").map.contains_key(&fingerprint)
    }

    /// Number of distinct history fingerprints with a warm slot.
    pub fn slot_count(&self) -> usize {
        self.slot_count.load(Ordering::SeqCst)
    }

    /// Serializes every warm slot — fingerprint plus all cache entries, fitted
    /// and negative — to dependency-free JSON (the format lives in
    /// `crate::snapshot`), in least- to most-recently-used order so a restore
    /// preserves LRU eviction order.
    /// `interner` must be the one the cached metric keys were issued by (for
    /// testbed-built stores that is [`Interner::global`]); it resolves interned
    /// symbols to the portable component/metric identities the snapshot stores.
    ///
    /// Evidence ledgers are not serialized: after a restore, plain
    /// [`DiagnosisEngine::diagnose`] calls start warm, while the first
    /// [`DiagnosisEngine::diagnose_incremental`] against a pre-restart watermark
    /// falls back to a cold-path (but warm-fit) run and re-records its evidence.
    pub fn snapshot(&self, interner: &Interner) -> String {
        // Lock every stripe (index order, like `invalidate_all`) so the snapshot is
        // a consistent cut, then order slots globally by recency.
        let stripes: Vec<_> = self.stripes.iter().map(|s| s.lock().expect("stripe lock poisoned")).collect();
        let mut ordered: Vec<(&u64, &Slot)> = stripes.iter().flat_map(|s| s.map.iter()).collect();
        ordered.sort_by_key(|(_, slot)| slot.last_used);
        let data: Vec<crate::snapshot::SlotData> = ordered
            .into_iter()
            .map(|(fp, slot)| {
                let mut entries: Vec<crate::snapshot::FitEntry> = slot
                    .cache
                    .entries()
                    .map(|(key, fit)| (*key, fit.map(|kde| (kde.samples().to_vec(), kde.bandwidth()))))
                    .collect();
                // The cache map iterates in hash order; sort on the resolved
                // identity so identical engines produce identical snapshots.
                entries.sort_by_cached_key(|(key, _)| match key {
                    ScoreKey::OperatorElapsed(op) => (0u8, op.0, String::new(), false, String::new()),
                    ScoreKey::OperatorRows(op) => (1, op.0, String::new(), false, String::new()),
                    ScoreKey::Metric(mk) => {
                        let component = interner.component(mk.component);
                        let metric = interner.metric(mk.metric);
                        (
                            2,
                            0,
                            format!("{}/{}", component.kind.label(), component.name),
                            // A custom metric may share a builtin's short name;
                            // the flag breaks the tie deterministically.
                            matches!(metric, diads_monitor::MetricName::Custom(_)),
                            metric.short_name().to_string(),
                        )
                    }
                });
                (*fp, entries)
            })
            .collect();
        drop(stripes);
        crate::snapshot::serialize_slots(&data, interner)
    }

    /// Rebuilds an engine (default capacity, no fit budget) from a
    /// [`DiagnosisEngine::snapshot`], re-interning metric identities against
    /// `interner`. Fitted entries rebuild bit-identically
    /// ([`diads_stats::Kde::from_parts`] with the recorded bandwidth); negative
    /// entries stay negative. Fails on malformed documents, unknown versions, or
    /// identities the current build does not know.
    pub fn restore(json: &str, interner: &Interner) -> Result<Self, String> {
        let parsed = crate::snapshot::parse_slots(json, interner)?;
        let engine = Self::new();
        for (fingerprint, cache) in parsed {
            let tick = engine.tick.fetch_add(1, Ordering::SeqCst) + 1;
            let mut stripe = engine.stripe(fingerprint).lock().expect("stripe lock poisoned");
            engine.slot_count.fetch_add(1, Ordering::SeqCst);
            engine.total_fits.fetch_add(cache.len(), Ordering::SeqCst);
            stripe.map.insert(fingerprint, Slot { cache, evidence: None, last_used: tick });
        }
        engine.evict_over_bounds();
        Ok(engine)
    }

    /// Checkout statistics since the engine was created. Lock-free (atomic reads);
    /// totals are exact once concurrent checkouts have checked back in.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            warm_checkouts: self.warm_checkouts.load(Ordering::Relaxed),
            cold_checkouts: self.cold_checkouts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::ScoreKey;
    use diads_db::OperatorId;

    fn warm_slot(engine: &DiagnosisEngine, fingerprint: u64) {
        engine.with_slot_tracked(fingerprint, |c, _| {
            c.fit_or_insert_with(ScoreKey::OperatorElapsed(OperatorId(1)), || {
                Some(vec![1.0, 1.1, 0.9, 1.05, 0.95])
            });
        });
    }

    #[test]
    fn slots_are_keyed_by_fingerprint() {
        let engine = DiagnosisEngine::new();
        assert!(!engine.is_warm(1));
        assert_eq!(engine.capacity(), DEFAULT_SLOT_CAPACITY);
        let fitted = engine.with_slot_tracked(1, |c, _| {
            c.fit_or_insert_with(ScoreKey::OperatorElapsed(OperatorId(1)), || {
                Some(vec![1.0, 1.1, 0.9, 1.05, 0.95])
            })
            .is_some()
        });
        assert!(fitted);
        assert!(engine.is_warm(1));
        // The same fingerprint gets its fits back; a different one starts cold.
        engine.with_slot_tracked(1, |c, _| assert_eq!(c.len(), 1));
        engine.with_slot_tracked(2, |c, _| assert!(c.is_empty()));
        assert_eq!(engine.slot_count(), 2);
        assert_eq!(engine.stats(), EngineStats { warm_checkouts: 1, cold_checkouts: 2, evictions: 0 });
        engine.invalidate(1);
        assert!(!engine.is_warm(1));
        engine.invalidate_all();
        assert_eq!(engine.slot_count(), 0);
    }

    #[test]
    fn with_slot_tracked_reports_warm_and_cold_checkouts() {
        let engine = DiagnosisEngine::new();
        let warm = engine.with_slot_tracked(5, |_, warm| warm);
        assert!(!warm, "first checkout is cold");
        let warm = engine.with_slot_tracked(5, |_, warm| warm);
        assert!(warm, "second checkout of the same fingerprint is warm");
        engine.invalidate(5);
        let warm = engine.with_slot_tracked(5, |_, warm| warm);
        assert!(!warm, "invalidated slots check out cold again");
    }

    #[test]
    fn invalidation_during_checkout_is_not_resurrected() {
        let engine = DiagnosisEngine::new();
        // Invalidate while the slot is checked out: the check-in must be discarded.
        engine.with_slot_tracked(7, |c, _| {
            c.fit_or_insert_with(ScoreKey::OperatorElapsed(OperatorId(1)), || {
                Some(vec![1.0, 1.1, 0.9, 1.05, 0.95])
            });
            engine.invalidate_all();
        });
        assert!(!engine.is_warm(7), "invalidated slot must not be re-inserted at check-in");
        engine.with_slot_tracked(7, |c, _| assert!(c.is_empty()));
        // An invalidation of an unrelated fingerprint is conservative: it also drops
        // the in-flight fits (never resurrects), at worst costing a later re-fit.
        engine.with_slot_tracked(8, |_, _| engine.invalidate(9999));
        assert!(!engine.is_warm(8));
    }

    #[test]
    fn lru_bound_recycles_only_over_capacity() {
        let engine = DiagnosisEngine::with_capacity(2);
        assert_eq!(engine.capacity(), 2);
        warm_slot(&engine, 1);
        // Under-capacity churn: re-using the other slot any number of times must
        // never evict the warm slot.
        for _ in 0..10 {
            warm_slot(&engine, 2);
        }
        assert!(engine.is_warm(1), "warm slot must survive under-capacity churn");
        assert_eq!(engine.stats().evictions, 0);
        // Going over capacity recycles the least-recently-used slot: fingerprint 1
        // is the oldest (2 was just touched), so it is the victim.
        warm_slot(&engine, 3);
        assert_eq!(engine.slot_count(), 2);
        assert!(!engine.is_warm(1), "LRU slot must be recycled over capacity");
        assert!(engine.is_warm(2));
        assert!(engine.is_warm(3));
        assert_eq!(engine.stats().evictions, 1);
        // A recycled fingerprint simply checks out cold again.
        let warm = engine.with_slot_tracked(1, |_, warm| warm);
        assert!(!warm);
    }

    #[test]
    fn snapshot_round_trips_warm_slots() {
        use diads_monitor::{ComponentId, MetricKey, MetricName};
        let interner = Interner::global();
        let metric_key = MetricKey {
            component: interner.intern_component(&ComponentId::volume("snap-vol")),
            metric: interner.intern_metric(&MetricName::WriteIo),
        };
        let custom_key = MetricKey {
            component: interner.intern_component(&ComponentId::volume("snap-vol")),
            metric: interner.intern_metric(&MetricName::Custom("writeIO".into())),
        };
        let engine = DiagnosisEngine::new();
        warm_slot(&engine, 11);
        engine.with_slot_tracked(11, |c, _| {
            // A negative entry (too few samples) and two metric fits, one of them a
            // custom metric whose spelling collides with a builtin short name.
            c.fit_or_insert_with(ScoreKey::OperatorRows(OperatorId(2)), || None);
            c.fit_or_insert_with(ScoreKey::Metric(metric_key), || Some(vec![4.0, 4.5, 3.5, 4.25, 3.75]));
            c.fit_or_insert_with(ScoreKey::Metric(custom_key), || Some(vec![9.0, 9.5, 8.5, 9.25, 8.75]));
        });
        warm_slot(&engine, u64::MAX); // fingerprints beyond 2^53 must survive JSON
        let json = engine.snapshot(interner);
        let restored = DiagnosisEngine::restore(&json, interner).expect("snapshot must restore");
        // Determinism check first: later inspections refresh slot recency, which
        // legitimately reorders a subsequent snapshot.
        assert_eq!(restored.snapshot(interner), json, "snapshots are deterministic");
        assert!(restored.is_warm(11));
        assert!(restored.is_warm(u64::MAX));
        assert_eq!(restored.total_cached_fits(), engine.total_cached_fits());
        restored.with_slot_tracked(11, |c, _| {
            assert!(
                matches!(c.probe(&ScoreKey::OperatorRows(OperatorId(2))), Some(None)),
                "negative entries stay negative"
            );
            let original = engine.with_slot_tracked(11, |o, _| {
                let kde = o.get(&ScoreKey::Metric(metric_key)).unwrap();
                (kde.samples().to_vec(), kde.bandwidth())
            });
            let kde = c.get(&ScoreKey::Metric(metric_key)).expect("builtin metric fit restored");
            assert_eq!((kde.samples().to_vec(), kde.bandwidth()), original, "bit-identical rebuild");
            assert!(c.get(&ScoreKey::Metric(custom_key)).is_some(), "custom metric fit restored");
            assert!(c.get(&ScoreKey::OperatorElapsed(OperatorId(1))).is_some());
        });
        // Restored evidence is absent by design; plain diagnoses still start warm.
        assert!(!restored.has_evidence(11));
        assert!(DiagnosisEngine::restore("{\"version\":9,\"slots\":[]}", interner).is_err());
        assert!(DiagnosisEngine::restore("not json", interner).is_err());
    }

    #[test]
    fn fit_budget_recycles_by_total_fits() {
        let engine = DiagnosisEngine::with_fit_budget(1);
        assert_eq!(engine.fit_budget(), Some(1));
        assert_eq!(DiagnosisEngine::new().fit_budget(), None);
        warm_slot(&engine, 1);
        assert_eq!(engine.total_cached_fits(), 1);
        // A second one-fit slot pushes the total to 2 > 1: the older slot is
        // recycled, the just-checked-in one survives.
        warm_slot(&engine, 2);
        assert!(!engine.is_warm(1), "over-budget fits recycle the LRU slot");
        assert!(engine.is_warm(2), "the most recent slot is always kept");
        assert_eq!(engine.total_cached_fits(), 1);
        assert_eq!(engine.stats().evictions, 1);
    }

    #[test]
    fn single_over_budget_slot_is_kept() {
        let engine = DiagnosisEngine::with_fit_budget(1);
        engine.with_slot_tracked(9, |c, _| {
            for op in 1..=3 {
                c.fit_or_insert_with(ScoreKey::OperatorElapsed(OperatorId(op)), || {
                    Some(vec![1.0, 1.1, 0.9, 1.05, 0.95])
                });
            }
        });
        // One slot holding three fits exceeds the budget, but evicting it would
        // leave the engine permanently cold — the last slot is exempt.
        assert!(engine.is_warm(9));
        assert_eq!(engine.total_cached_fits(), 3);
        assert_eq!(engine.stats().evictions, 0);
    }

    #[test]
    fn concurrent_checkouts_keep_exact_stats() {
        // Distinct fingerprints per thread: every first checkout is cold, every
        // later one warm, and the atomic counters must account for each exactly.
        const THREADS: u64 = 8;
        const ITERS: u64 = 200;
        let engine = DiagnosisEngine::new();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let engine = &engine;
                scope.spawn(move || {
                    for _ in 0..ITERS {
                        engine.with_slot_tracked(t, |c, _| {
                            c.fit_or_insert_with(ScoreKey::OperatorElapsed(OperatorId(1)), || {
                                Some(vec![1.0, 1.1, 0.9, 1.05, 0.95])
                            });
                        });
                    }
                });
            }
        });
        let stats = engine.stats();
        assert_eq!(stats.cold_checkouts, THREADS, "one cold checkout per fingerprint");
        assert_eq!(stats.warm_checkouts, THREADS * (ITERS - 1));
        assert_eq!(stats.evictions, 0);
        assert_eq!(engine.slot_count(), THREADS as usize);
        assert_eq!(engine.total_cached_fits(), THREADS as usize);

        // Contended case: every thread hammers ONE fingerprint. Warm/cold split
        // depends on interleaving (checked-out slots are absent, so concurrent
        // checkouts may both run cold), but the total is exact and the slot
        // converges to a single warm entry with merged fits.
        let shared = DiagnosisEngine::new();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let shared = &shared;
                scope.spawn(move || {
                    for _ in 0..ITERS {
                        shared.with_slot_tracked(42, |c, _| {
                            c.fit_or_insert_with(ScoreKey::OperatorElapsed(OperatorId(1)), || {
                                Some(vec![1.0, 1.1, 0.9, 1.05, 0.95])
                            });
                        });
                    }
                });
            }
        });
        let stats = shared.stats();
        assert_eq!(stats.warm_checkouts + stats.cold_checkouts, THREADS * ITERS);
        assert!(stats.cold_checkouts >= 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(shared.slot_count(), 1);
        assert_eq!(shared.total_cached_fits(), 1, "concurrent fits of one key merge");
    }

    #[test]
    fn checkout_refreshes_recency() {
        let engine = DiagnosisEngine::with_capacity(2);
        warm_slot(&engine, 1);
        warm_slot(&engine, 2);
        // Touch 1 so 2 becomes the LRU victim.
        engine.with_slot_tracked(1, |_, _| {});
        warm_slot(&engine, 3);
        assert!(engine.is_warm(1), "recently-touched slot survives");
        assert!(!engine.is_warm(2), "stale slot is the LRU victim");
        assert!(engine.is_warm(3));
    }
}
