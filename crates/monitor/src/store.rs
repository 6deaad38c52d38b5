//! The central metric store — the reproduction's stand-in for the TPC/DB2 monitoring
//! database the paper's deployment records everything into (Figure 5).
//!
//! Series are keyed by interned [`MetricKey`]s (two `u32`s, `Copy`), so the scoring
//! hot path of the diagnosis workflow performs **zero string clones and zero
//! allocations** per lookup. Rich identities are cloned exactly once, when a series
//! is first recorded. The store does **not** own its [`Interner`]: it shares the
//! process-global one by default (or an explicitly-shared one via
//! [`MetricStore::with_interner`]), so keys are stable identities *across* stores —
//! two independent stores that record `volume:V1/writeIO` agree on the key, which is
//! what lets fleet-level diagnosis caches compare keys across testbeds.
//!
//! Internally the series map is **sharded by [`ComponentSym`]**: every component's
//! series live in exactly one of `MetricStore::SHARD_COUNT` sorted shards. Reads
//! stay lock-free borrows (a key addresses its shard directly; full iteration is a
//! deterministic k-way merge in key order, identical to the pre-sharding `BTreeMap`
//! order), while [`MetricStore::sharded_writer`] temporarily splits the store into a
//! lock-per-shard writer so N simulator threads can record concurrently — contention
//! free as long as they touch different shards, and bit-identical to sequential
//! recording as long as each key's observations keep their relative order.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::ids::{ComponentId, ComponentKind};
use crate::intern::{ComponentSym, Interner, MetricSym};
use crate::metric::{MetricKey, MetricName};
use crate::rng::SplitMix64;
use crate::series::{DataPoint, TimeSeries};
use crate::time::{Duration, TimeRange, Timestamp};

/// One recorded series with its key's stable identity hash
/// ([`Interner::key_hash`]), looked up once when the series is created.
#[derive(Debug, Clone)]
struct Recorded {
    key_hash: u64,
    series: TimeSeries,
}

/// One shard: the sorted sub-map of every series whose component hashes here.
#[derive(Debug, Clone, Default)]
struct Shard {
    series: BTreeMap<MetricKey, Recorded>,
    /// Order-independent content hash of the shard: the wrapping sum of every
    /// recorded observation's [`point_hash`]. Updated on each insert (under the
    /// shard lock when recording through the sharded writer), so reading it is
    /// O(1) and identical no matter how the writers interleaved.
    content: u64,
    /// Set once the store seals its first epoch; from then on a non-tail insert can
    /// land *before* a recorded watermark.
    sealed: bool,
    /// Sticky: an out-of-order (non-tail) insert happened after sealing, so suffix
    /// slices past a watermark no longer cover exactly the post-seal observations.
    /// Poisoned shards force delta consumers back onto the batch path.
    delta_poisoned: bool,
}

impl Shard {
    /// The single insert path: every recorded observation lands here, keeping the
    /// content hash (and the epoch-delta validity flag) in sync with the series maps.
    /// `interner` is the one `key` was issued by.
    fn push(&mut self, interner: &Interner, key: MetricKey, time: Timestamp, value: f64) {
        let recorded = self
            .series
            .entry(key)
            .or_insert_with(|| Recorded { key_hash: interner.key_hash(key), series: TimeSeries::new() });
        self.content = self.content.wrapping_add(point_hash(recorded.key_hash, time, value));
        if !recorded.series.push(time, value) && self.sealed {
            self.delta_poisoned = true;
        }
    }
}

/// Hash of one observation, over (the key's stable identity hash, time, value
/// bits). The identity hash depends only on the component and metric names, so
/// equal content hashes equally in every store and every process, whatever order
/// the identities were interned in.
fn point_hash(key_hash: u64, time: Timestamp, value: f64) -> u64 {
    SplitMix64::mix(key_hash, SplitMix64::mix(time.as_secs(), value.to_bits()))
}

/// An in-memory store of metric time series keyed by interned (component, metric)
/// symbols.
///
/// Series are partitioned across `MetricStore::SHARD_COUNT` `BTreeMap` shards by
/// component symbol. Within a shard, key order keeps iteration deterministic (symbol
/// order = first-recorded order, which is deterministic for a deterministic
/// simulation) and groups each component's series contiguously, so per-component
/// scans are range queries instead of full traversals; across shards, the merged
/// view re-establishes global key order.
#[derive(Debug, Clone)]
pub struct MetricStore {
    interner: Arc<Interner>,
    shards: Vec<Shard>,
    sealed: Vec<SealedEpoch>,
}

/// Identifier of one sealed epoch of a [`MetricStore`] (the zero-based seal order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EpochId(u64);

impl EpochId {
    /// The zero-based seal index of the epoch.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// When a continuously-ingesting consumer should seal the open append window into
/// the next epoch — the watermark policy of the service loop.
///
/// Sealing is cheap but not free (O(dirty series + shards)), and each sealed epoch
/// is a validation anchor incremental re-diagnosis can resume from; the policy
/// trades epoch granularity against seal overhead. The open window is sealed as
/// soon as **either** threshold is crossed — `min_points` observations have
/// accumulated, or `max_interval` of (simulated) time has passed since the last
/// seal — and never while it is empty (an empty epoch anchors nothing a previous
/// seal doesn't already).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SealPolicy {
    /// Seal once this many observations have accumulated in the open window.
    pub min_points: usize,
    /// Seal once this much time has passed since the previous seal, even if fewer
    /// than `min_points` observations arrived.
    pub max_interval: Duration,
}

impl Default for SealPolicy {
    /// The service-loop defaults: 256 points or 2 simulated minutes, whichever
    /// comes first (one probe cycle of a medium tenant, or four idle cycles).
    fn default() -> Self {
        SealPolicy { min_points: 256, max_interval: Duration::from_mins(2) }
    }
}

impl SealPolicy {
    /// Whether a window holding `open_points` observations, `elapsed` after the
    /// previous seal, should be sealed now.
    pub fn should_seal(&self, open_points: usize, elapsed: Duration) -> bool {
        open_points > 0 && (open_points >= self.min_points || elapsed >= self.max_interval)
    }
}

/// Snapshot taken by [`MetricStore::seal_epoch`]: the cumulative content
/// fingerprints and per-series lengths at the moment the append window closed.
///
/// Because the content hash is a wrapping (commutative, associative) sum over
/// observations, the per-epoch fingerprint is simply the difference between two
/// consecutive cumulative snapshots — sealing costs O(series), never a re-hash.
#[derive(Debug, Clone)]
struct SealedEpoch {
    /// The store-wide [`MetricStore::content_fingerprint`] at seal time.
    cumulative: u64,
    /// The per-shard cumulative content hashes at seal time.
    shard_contents: Vec<u64>,
    /// Length of every series at seal time, one map per shard: the suffix past a
    /// watermark is exactly the data recorded after the epoch closed (as long as
    /// appends stayed in time order — see [`MetricStore::deltas_intact`]). Shards
    /// whose content hash did not move between seals share the previous epoch's map
    /// via the `Arc`, so sealing costs O(dirty series + shards), not O(all series).
    watermarks: Vec<Arc<BTreeMap<MetricKey, usize>>>,
}

/// The per-key observations recorded after a sealed epoch, borrowed straight from
/// the store (see [`MetricStore::delta_since`]). Entries are in key order and only
/// keys with at least one new point appear.
#[derive(Debug, Clone)]
pub struct MetricDelta<'a> {
    entries: Vec<(MetricKey, &'a [DataPoint])>,
}

impl<'a> MetricDelta<'a> {
    /// Per-key new points, in key (symbol) order.
    pub fn entries(&self) -> &[(MetricKey, &'a [DataPoint])] {
        &self.entries
    }

    /// Whether nothing was recorded since the epoch sealed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of new observations.
    pub fn point_count(&self) -> usize {
        self.entries.iter().map(|(_, p)| p.len()).sum()
    }

    /// The earliest new observation time, if any — lets a consumer prove the delta
    /// cannot intersect read windows that end before it.
    pub fn earliest_time(&self) -> Option<Timestamp> {
        self.entries.iter().filter_map(|(_, p)| p.first()).map(|p| p.time).min()
    }
}

impl Default for MetricStore {
    fn default() -> Self {
        Self::with_interner(Arc::clone(Interner::global()))
    }
}

/// The shard a component's series live in (power-of-two mask over the dense symbol).
fn shard_index(component: ComponentSym) -> usize {
    component.index() & (MetricStore::SHARD_COUNT - 1)
}

impl MetricStore {
    /// Number of shards the series map is split into. A power of two so the shard of
    /// a symbol is a mask, not a division.
    pub(crate) const SHARD_COUNT: usize = 16;

    /// Creates an empty store sharing the process-global [`Interner`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store over an explicitly-shared interner (for fleets that
    /// want an identity universe isolated from the global one, e.g. property tests).
    pub fn with_interner(interner: Arc<Interner>) -> Self {
        MetricStore {
            interner,
            shards: (0..Self::SHARD_COUNT).map(|_| Shard::default()).collect(),
            sealed: Vec::new(),
        }
    }

    fn shard(&self, component: ComponentSym) -> &Shard {
        &self.shards[shard_index(component)]
    }

    // ----- Interning -----

    /// The store's shared interner (for resolving symbols and for attaching further
    /// stores to the same identity universe).
    pub fn interner(&self) -> &Arc<Interner> {
        &self.interner
    }

    /// Interns a (component, metric) pair into a `Copy` key. Allocates only the first
    /// time an identity is seen anywhere in the sharing fleet.
    pub fn intern(&self, component: &ComponentId, metric: &MetricName) -> MetricKey {
        MetricKey::new(self.interner.intern_component(component), self.interner.intern_metric(metric))
    }

    /// Interns a component on its own (e.g. to hoist the symbol out of a loop that
    /// emits many metrics for the same component).
    pub fn intern_component(&self, component: &ComponentId) -> ComponentSym {
        self.interner.intern_component(component)
    }

    /// Interns a metric name on its own.
    pub fn intern_metric(&self, metric: &MetricName) -> MetricSym {
        self.interner.intern_metric(metric)
    }

    /// The stable identity hash of a key (see [`Interner::key_hash`]): independent
    /// of intern order, so per-series noise streams can seed from it.
    pub fn key_hash(&self, key: MetricKey) -> u64 {
        self.interner.key_hash(key)
    }

    /// The key for an already-interned (component, metric) pair, without mutating the
    /// interner. Zero clones, zero allocations. Because the interner is shared
    /// across stores, a `Some` key does not imply this store holds the series —
    /// lookups through a key absent here behave as empty.
    pub fn key_of(&self, component: &ComponentId, metric: &MetricName) -> Option<MetricKey> {
        Some(MetricKey::new(self.interner.component_sym(component)?, self.interner.metric_sym(metric)?))
    }

    /// Resolves a key back to its rich identities (`'static`: interned identities
    /// live for the process, see [`Interner`]).
    ///
    /// # Panics
    /// Panics if the key was issued by a store with a different (non-shared) interner.
    pub fn resolve(&self, key: MetricKey) -> (&'static ComponentId, &'static MetricName) {
        (self.interner.component(key.component), self.interner.metric(key.metric))
    }

    /// Renders a key as `component/metric` (the old `MetricKey` display format).
    pub fn display_key(&self, key: MetricKey) -> String {
        let (component, metric) = self.resolve(key);
        format!("{component}/{metric}")
    }

    // ----- Recording -----

    /// Records one observation.
    pub fn record(&mut self, component: &ComponentId, metric: &MetricName, time: Timestamp, value: f64) {
        let key = self.intern(component, metric);
        self.record_key(key, time, value);
    }

    /// Records one observation by interned key (the zero-allocation fast path).
    pub fn record_key(&mut self, key: MetricKey, time: Timestamp, value: f64) {
        self.shards[shard_index(key.component)].push(&self.interner, key, time, value);
    }

    /// An order-independent fingerprint of the store's contents: the wrapping sum
    /// of a hash of every recorded (key, time, value) observation. Two stores hold
    /// the same data **iff** their fingerprints match (modulo hash collisions),
    /// whichever interners they use and whatever order those interned in; the
    /// value is independent of recording order, chunking and thread count.
    /// O(shards) to read — the per-observation work is done at record time.
    pub fn content_fingerprint(&self) -> u64 {
        self.shards.iter().fold(0u64, |acc, s| acc.wrapping_add(s.content))
    }

    // ----- Epochs -----

    /// Seals the open append window and returns its [`EpochId`].
    ///
    /// Sealing snapshots the cumulative content fingerprints (store-wide and
    /// per-shard) and every series' length. The snapshot makes two queries cheap:
    /// [`Self::epoch_cumulative_fingerprint`] (the store's content when the epoch
    /// sealed) is a lookup, and [`Self::delta_since`] (what was recorded *after* an
    /// epoch) is a suffix slice per series. Sealing is
    /// O(dirty series + shards) — shards untouched since the previous seal share
    /// its watermark snapshot — and does not interrupt recording; the next
    /// observation simply starts the next open window.
    pub fn seal_epoch(&mut self) -> EpochId {
        let prev = self.sealed.last();
        let watermarks: Vec<Arc<BTreeMap<MetricKey, usize>>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| match prev {
                // The content hash is a wrapping sum over observations, so an equal
                // hash means no appends landed here: the lengths are the previous
                // snapshot's.
                Some(p) if p.shard_contents[i] == shard.content => Arc::clone(&p.watermarks[i]),
                _ => Arc::new(shard.series.iter().map(|(k, r)| (*k, r.series.len())).collect()),
            })
            .collect();
        let shard_contents: Vec<u64> = self.shards.iter().map(|s| s.content).collect();
        let cumulative = self.content_fingerprint();
        for shard in &mut self.shards {
            shard.sealed = true;
        }
        self.sealed.push(SealedEpoch { cumulative, shard_contents, watermarks });
        EpochId(self.sealed.len() as u64 - 1)
    }

    /// Number of sealed epochs.
    pub fn epoch_count(&self) -> usize {
        self.sealed.len()
    }

    /// Number of observations in the open append window — recorded since the last
    /// [`MetricStore::seal_epoch`] (everything, if nothing was sealed yet). This is
    /// the point count a [`SealPolicy`] decides over. O(series).
    pub fn open_point_count(&self) -> usize {
        let sealed: usize = match self.sealed.last() {
            Some(epoch) => epoch.watermarks.iter().flat_map(|w| w.values()).sum(),
            None => 0,
        };
        self.point_count().saturating_sub(sealed)
    }

    /// The cumulative store fingerprint at the moment `epoch` sealed — by
    /// construction equal to what [`Self::content_fingerprint`] returned right then.
    /// This is the validation anchor for persisted watermarks: a store "contains"
    /// a watermark iff the epoch exists and this snapshot matches.
    pub fn epoch_cumulative_fingerprint(&self, epoch: EpochId) -> Option<u64> {
        self.sealed.get(epoch.index()).map(|e| e.cumulative)
    }

    /// Whether suffix-based deltas are still exact. Turns `false` (permanently) once
    /// any series receives an out-of-order observation after the first seal: a
    /// non-tail insert can land before a watermark, so the suffix past it would no
    /// longer be "everything recorded since".
    pub(crate) fn deltas_intact(&self) -> bool {
        self.shards.iter().all(|s| !s.delta_poisoned)
    }

    /// Everything recorded after `epoch` sealed, as per-key borrowed suffix slices
    /// (later sealed epochs and the open window included). Returns `None` when the
    /// epoch is unknown or when a post-seal out-of-order insert made suffixes
    /// inexact (`Self::deltas_intact`) — consumers then fall back to a full pass.
    pub fn delta_since(&self, epoch: EpochId) -> Option<MetricDelta<'_>> {
        let sealed = self.sealed.get(epoch.index())?;
        if !self.deltas_intact() {
            return None;
        }
        let mut entries = Vec::new();
        for (i, shard) in self.shards.iter().enumerate() {
            // A shard whose content hash still matches the seal snapshot received
            // nothing since — skip it wholesale. The scan is O(changed series +
            // shards), not O(all series).
            if shard.content == sealed.shard_contents[i] {
                continue;
            }
            let watermarks = &sealed.watermarks[i];
            for (key, recorded) in &shard.series {
                let watermark = watermarks.get(key).copied().unwrap_or(0);
                let suffix = &recorded.series.points()[watermark..];
                if !suffix.is_empty() {
                    entries.push((*key, suffix));
                }
            }
        }
        // Shards interleave key ranges, so re-establish the documented global key
        // order (deltas are small; this is cheaper than a k-way merge setup).
        entries.sort_unstable_by_key(|(key, _)| *key);
        Some(MetricDelta { entries })
    }

    /// Splits the store into a lock-per-shard concurrent writer.
    ///
    /// Worker threads record through `&ShardedWriter` by interned key; each write
    /// locks only the shard that owns the key's component, so threads recording
    /// different components (different shards) never contend. Keys must be interned
    /// up front — the interner is not part of the writer view.
    ///
    /// Dropping the writer re-unifies the store. The merged read view is
    /// deterministic: as long as each key's observations keep their relative order
    /// (e.g. one logical stream per component), the resulting store is bit-identical
    /// to sequential recording, regardless of how the streams interleave across
    /// threads.
    pub fn sharded_writer(&mut self) -> ShardedWriter<'_> {
        ShardedWriter {
            interner: Arc::clone(&self.interner),
            shards: self.shards.iter_mut().map(Mutex::new).collect(),
        }
    }

    // ----- Lookups (hot path: no clones, no allocations, no locks) -----

    /// The series for a (component, metric) pair, if any observation was ever recorded.
    pub fn series(&self, component: &ComponentId, metric: &MetricName) -> Option<&TimeSeries> {
        self.series_by_key(self.key_of(component, metric)?)
    }

    /// The series for an interned key.
    pub fn series_by_key(&self, key: MetricKey) -> Option<&TimeSeries> {
        self.shard(key.component).series.get(&key).map(|r| &r.series)
    }

    /// Points of a metric within a time range, as a borrowed slice (empty if the
    /// series does not exist).
    pub fn points_in(&self, component: &ComponentId, metric: &MetricName, range: TimeRange) -> &[DataPoint] {
        self.series(component, metric).map(|s| s.range(range)).unwrap_or(&[])
    }

    /// Points of a metric within a time range by interned key, as a borrowed slice.
    pub fn points_in_by_key(&self, key: MetricKey, range: TimeRange) -> &[DataPoint] {
        self.series_by_key(key).map(|s| s.range(range)).unwrap_or(&[])
    }

    /// Values of a metric within a time range, without allocating (empty if the
    /// series does not exist).
    pub fn iter_in(
        &self,
        component: &ComponentId,
        metric: &MetricName,
        range: TimeRange,
    ) -> impl Iterator<Item = f64> + '_ {
        self.points_in(component, metric, range).iter().map(|p| p.value)
    }

    /// Mean of a metric within a time range.
    pub fn mean_in(&self, component: &ComponentId, metric: &MetricName, range: TimeRange) -> Option<f64> {
        self.series(component, metric).and_then(|s| s.mean_in(range))
    }

    // ----- Enumeration (cold path: resolves and sorts for stable public order) -----

    /// Every series key of one component, in metric-symbol order. Zero allocations:
    /// this is a range scan over the contiguous key block of the component inside its
    /// shard.
    pub fn keys_of(&self, component: ComponentSym) -> impl Iterator<Item = MetricKey> + '_ {
        let lo = MetricKey::new(component, MetricSym::MIN);
        let hi = MetricKey::new(component, MetricSym::MAX);
        self.shard(component).series.range(lo..=hi).map(|(k, _)| *k)
    }

    /// All metric names ever recorded for a component, sorted by name order.
    pub fn metrics_of(&self, component: &ComponentId) -> Vec<MetricName> {
        let Some(sym) = self.interner.component_sym(component) else { return Vec::new() };
        let mut out: Vec<MetricName> =
            self.keys_of(sym).map(|k| self.interner.metric(k.metric).clone()).collect();
        out.sort();
        out
    }

    /// All components of a given kind that have at least one recorded metric, sorted.
    pub fn components_of_kind(&self, kind: ComponentKind) -> Vec<ComponentId> {
        let mut out: Vec<ComponentId> = self
            .component_syms()
            .map(|s| self.interner.component(s))
            .filter(|c| c.kind == kind)
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// All distinct components with any recorded metric, sorted.
    pub fn components(&self) -> Vec<ComponentId> {
        let mut out: Vec<ComponentId> =
            self.component_syms().map(|s| self.interner.component(s).clone()).collect();
        out.sort();
        out
    }

    /// All distinct component symbols with any recorded series, in symbol order
    /// (merged across shards).
    pub fn component_syms(&self) -> impl Iterator<Item = ComponentSym> + '_ {
        let mut syms: Vec<ComponentSym> = Vec::new();
        for shard in &self.shards {
            let mut last: Option<ComponentSym> = None;
            for k in shard.series.keys() {
                if last != Some(k.component) {
                    last = Some(k.component);
                    syms.push(k.component);
                }
            }
        }
        syms.sort_unstable();
        syms.into_iter()
    }

    /// Number of distinct (component, metric) series.
    pub fn series_count(&self) -> usize {
        self.shards.iter().map(|s| s.series.len()).sum()
    }

    /// Total number of recorded data points across all series.
    pub fn point_count(&self) -> usize {
        self.shards.iter().flat_map(|s| s.series.values()).map(|r| r.series.len()).sum()
    }

    /// Iterates over every (key, series) pair in key (symbol) order — a deterministic
    /// k-way merge of the shards, identical to the pre-sharding single-map order. Use
    /// [`Self::resolve`] on the keys for rich identities, or [`Self::iter_sorted`]
    /// for name-sorted iteration.
    pub fn iter(&self) -> impl Iterator<Item = (MetricKey, &TimeSeries)> {
        MergedIter { shards: self.shards.iter().map(|s| s.series.iter().peekable()).collect() }
    }

    /// Iterates in (component, metric) *name* order — the old rich-key iteration
    /// order. Allocates a sort index, so keep it out of hot loops.
    pub fn iter_sorted(&self) -> impl Iterator<Item = (MetricKey, &TimeSeries)> {
        let mut keys: Vec<MetricKey> = self.iter().map(|(k, _)| k).collect();
        keys.sort_by(|a, b| self.resolve(*a).cmp(&self.resolve(*b)));
        keys.into_iter().map(|k| (k, self.series_by_key(k).expect("key from iter")))
    }
}

/// K-way merge over the shards' sorted maps. Component symbols map to exactly one
/// shard, so keys never tie and the merge is a total order.
struct MergedIter<'a> {
    shards: Vec<std::iter::Peekable<std::collections::btree_map::Iter<'a, MetricKey, Recorded>>>,
}

impl<'a> Iterator for MergedIter<'a> {
    type Item = (MetricKey, &'a TimeSeries);

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(MetricKey, usize)> = None;
        for (i, iter) in self.shards.iter_mut().enumerate() {
            if let Some(&(&key, _)) = iter.peek() {
                if best.is_none_or(|(b, _)| key < b) {
                    best = Some((key, i));
                }
            }
        }
        let (_, i) = best?;
        self.shards[i].next().map(|(k, r)| (*k, &r.series))
    }
}

/// A destination for interned-key metric observations.
///
/// This is the seam that lets the simulators' recording paths (the SAN engine's
/// [`crate::sampler::IntervalSampler`] feed, the database run recorder) write either
/// into an exclusively-borrowed [`MetricStore`] — the sequential reference path — or
/// through a shared [`&ShardedWriter`](ShardedWriter) from many threads inside one
/// scenario. Both implementations intern through the same shared [`Interner`], so a
/// key minted via one sink is valid in the other.
pub trait MetricSink {
    /// Interns a component (shared-interner backed, callable from any thread).
    fn intern_component(&mut self, component: &ComponentId) -> ComponentSym;
    /// Interns a metric name.
    fn intern_metric(&mut self, metric: &MetricName) -> MetricSym;
    /// Interns a (component, metric) pair into a key.
    fn intern(&mut self, component: &ComponentId, metric: &MetricName) -> MetricKey {
        MetricKey::new(self.intern_component(component), self.intern_metric(metric))
    }
    /// The stable identity hash of a key (see [`Interner::key_hash`]).
    fn key_hash(&self, key: MetricKey) -> u64;
    /// Records one observation by interned key.
    fn record_key(&mut self, key: MetricKey, time: Timestamp, value: f64);
}

impl MetricSink for MetricStore {
    fn intern_component(&mut self, component: &ComponentId) -> ComponentSym {
        MetricStore::intern_component(self, component)
    }

    fn intern_metric(&mut self, metric: &MetricName) -> MetricSym {
        MetricStore::intern_metric(self, metric)
    }

    fn key_hash(&self, key: MetricKey) -> u64 {
        MetricStore::key_hash(self, key)
    }

    fn record_key(&mut self, key: MetricKey, time: Timestamp, value: f64) {
        MetricStore::record_key(self, key, time, value);
    }
}

/// The per-thread view of a sharded writer: `&ShardedWriter` is itself a sink, so
/// each worker passes its own `&mut &writer` without coordinating with the others.
impl MetricSink for &ShardedWriter<'_> {
    fn intern_component(&mut self, component: &ComponentId) -> ComponentSym {
        self.interner.intern_component(component)
    }

    fn intern_metric(&mut self, metric: &MetricName) -> MetricSym {
        self.interner.intern_metric(metric)
    }

    fn key_hash(&self, key: MetricKey) -> u64 {
        self.interner.key_hash(key)
    }

    fn record_key(&mut self, key: MetricKey, time: Timestamp, value: f64) {
        ShardedWriter::record_key(self, key, time, value);
    }
}

/// A lock-per-shard concurrent writer over a [`MetricStore`], created by
/// [`MetricStore::sharded_writer`].
///
/// The writer borrows the store mutably, so no reads are possible while it lives —
/// readers get the merged view back the moment it drops. Recording locks only the
/// shard owning the key's component: threads recording disjoint components proceed
/// without contention, and the final store contents are independent of the thread
/// interleaving (each shard's map is keyed, and each series keeps its points
/// time-sorted). The writer carries the store's shared [`Interner`], so workers can
/// intern new identities mid-flight without a store borrow.
#[derive(Debug)]
pub struct ShardedWriter<'a> {
    interner: Arc<Interner>,
    shards: Vec<Mutex<&'a mut Shard>>,
}

impl<'a> ShardedWriter<'a> {
    /// Records one observation by interned key, locking only the owning shard.
    pub fn record_key(&self, key: MetricKey, time: Timestamp, value: f64) {
        let mut shard = self.shards[shard_index(key.component)].lock().expect("shard lock poisoned");
        shard.push(&self.interner, key, time, value);
    }

    /// A thread-local batching view over this writer (default flush threshold).
    ///
    /// Each worker thread creates its own [`BatchedWriter`]; points accumulate in
    /// per-shard buffers and each shard is locked once per flush instead of once
    /// per point, which is what erases the per-point locking overhead of
    /// [`ShardedWriter::record_key`] (see the `store_recording` benchmark group).
    pub fn batched<'w>(&'w self) -> BatchedWriter<'w, 'a> {
        self.batched_with_threshold(BatchedWriter::DEFAULT_THRESHOLD)
    }

    /// A batching view with an explicit per-shard flush threshold (points buffered
    /// per shard before that shard's lock is taken). A threshold of 1 degenerates
    /// to unbatched recording; the property tests use small thresholds to force
    /// mid-stream flushes.
    pub fn batched_with_threshold<'w>(&'w self, threshold: usize) -> BatchedWriter<'w, 'a> {
        let threshold = threshold.max(1);
        BatchedWriter {
            writer: self,
            // Pre-sized to the threshold: a buffer never grows past it, so the
            // recording loop never reallocates.
            buffers: (0..self.shards.len()).map(|_| Vec::with_capacity(threshold)).collect(),
            threshold,
        }
    }
}

/// A thread-local batching front-end over a [`ShardedWriter`], created by
/// [`ShardedWriter::batched`].
///
/// Observations buffer in per-shard vectors owned by this (single-threaded) value;
/// when a shard's buffer reaches the flush threshold — or on [`BatchedWriter::flush`]
/// or drop — the shard is locked **once** and the whole buffer drains into it. The
/// merged store contents are bit-identical to sequential recording under the same
/// precondition as the unbatched writer (each key's observations arrive through one
/// logical stream in order): batching preserves the per-key order of each stream,
/// points within a shard still land via the same keyed, time-sorted
/// `Shard::push`, and cross-key interleaving never affects the merged view.
///
/// Dropping the batch writer flushes any residue, so scoping it is enough for
/// correctness; call [`BatchedWriter::flush`] explicitly only to bound latency
/// between recording and visibility (e.g. before a barrier).
#[derive(Debug)]
pub struct BatchedWriter<'w, 'a> {
    writer: &'w ShardedWriter<'a>,
    buffers: Vec<Vec<(MetricKey, Timestamp, f64)>>,
    threshold: usize,
}

impl BatchedWriter<'_, '_> {
    /// Default per-shard flush threshold: large enough to amortize a shard lock
    /// over many points, small enough to keep buffers cache-resident.
    pub(crate) const DEFAULT_THRESHOLD: usize = 256;

    /// Records one observation by interned key into the owning shard's buffer,
    /// flushing that shard if it reached the threshold.
    pub fn record_key(&mut self, key: MetricKey, time: Timestamp, value: f64) {
        let index = shard_index(key.component);
        let buffer = &mut self.buffers[index];
        buffer.push((key, time, value));
        if buffer.len() >= self.threshold {
            self.flush_shard(index);
        }
    }

    /// Number of points currently buffered (not yet visible in the store).
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    fn flush_shard(&mut self, index: usize) {
        let buffer = &mut self.buffers[index];
        if buffer.is_empty() {
            return;
        }
        let mut shard = self.writer.shards[index].lock().expect("shard lock poisoned");
        // Iterate + clear rather than drain: the drain iterator's per-item
        // bookkeeping is measurable at fleet recording rates, a shared-slice walk
        // is not, and clearing afterwards keeps the buffer's capacity.
        for &(key, time, value) in buffer.iter() {
            shard.push(&self.writer.interner, key, time, value);
        }
        buffer.clear();
    }

    /// Drains every buffered point into its shard (one lock per non-empty shard).
    pub fn flush(&mut self) {
        for index in 0..self.buffers.len() {
            self.flush_shard(index);
        }
    }
}

impl Drop for BatchedWriter<'_, '_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl MetricSink for BatchedWriter<'_, '_> {
    fn intern_component(&mut self, component: &ComponentId) -> ComponentSym {
        self.writer.interner.intern_component(component)
    }

    fn intern_metric(&mut self, metric: &MetricName) -> MetricSym {
        self.writer.interner.intern_metric(metric)
    }

    fn key_hash(&self, key: MetricKey) -> u64 {
        self.writer.interner.key_hash(key)
    }

    fn record_key(&mut self, key: MetricKey, time: Timestamp, value: f64) {
        BatchedWriter::record_key(self, key, time, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn volume(name: &str) -> ComponentId {
        ComponentId::volume(name)
    }

    /// A store over a private interner, so assertions about which identities are
    /// interned cannot be perturbed by other tests sharing the global interner.
    fn isolated_store() -> MetricStore {
        MetricStore::with_interner(Arc::new(Interner::new()))
    }

    #[test]
    fn record_and_query() {
        let mut store = MetricStore::new();
        for t in 0..10 {
            store.record(&volume("V1"), &MetricName::WriteIo, Timestamp::new(t * 60), t as f64);
        }
        let r = TimeRange::new(Timestamp::new(0), Timestamp::new(300));
        assert_eq!(
            store.iter_in(&volume("V1"), &MetricName::WriteIo, r).collect::<Vec<_>>(),
            vec![0.0, 1.0, 2.0, 3.0, 4.0]
        );
        assert_eq!(store.mean_in(&volume("V1"), &MetricName::WriteIo, r), Some(2.0));
        // Unknown series behave as empty.
        assert_eq!(store.mean_in(&volume("V1"), &MetricName::ReadIo, r), None);
        // Zero-copy range access returns the same values as a borrowed slice.
        let points = store.points_in(&volume("V1"), &MetricName::WriteIo, r);
        assert_eq!(points.len(), 5);
        assert_eq!(points[2].value, 2.0);
        assert!(store.points_in(&volume("V9"), &MetricName::WriteIo, r).is_empty());
    }

    #[test]
    fn interned_keys_round_trip() {
        let mut store = isolated_store();
        store.record(&volume("V1"), &MetricName::WriteIo, Timestamp::new(0), 1.0);
        let key = store.key_of(&volume("V1"), &MetricName::WriteIo).expect("recorded");
        assert_eq!(store.series_by_key(key).unwrap().len(), 1);
        let (c, m) = store.resolve(key);
        assert_eq!(c, &volume("V1"));
        assert_eq!(m, &MetricName::WriteIo);
        assert_eq!(store.display_key(key), "volume:V1/writeIO");
        // Unrecorded identities have no key and cause no interning.
        assert!(store.key_of(&volume("V9"), &MetricName::WriteIo).is_none());
        assert!(store.key_of(&volume("V1"), &MetricName::ReadIo).is_none());
        assert_eq!(
            store
                .series_by_key(key)
                .and_then(|s| s.mean_in(TimeRange::new(Timestamp::new(0), Timestamp::new(10)))),
            Some(1.0)
        );
    }

    #[test]
    fn metrics_of_and_components() {
        let mut store = MetricStore::new();
        store.record(&volume("V1"), &MetricName::WriteIo, Timestamp::new(0), 1.0);
        store.record(&volume("V1"), &MetricName::WriteTime, Timestamp::new(0), 1.0);
        store.record(&volume("V2"), &MetricName::WriteIo, Timestamp::new(0), 1.0);
        store.record(&ComponentId::disk("d1"), &MetricName::Utilization, Timestamp::new(0), 0.3);

        assert_eq!(store.metrics_of(&volume("V1")).len(), 2);
        assert_eq!(store.components_of_kind(ComponentKind::StorageVolume).len(), 2);
        assert_eq!(store.components_of_kind(ComponentKind::Disk), vec![ComponentId::disk("d1")]);
        assert_eq!(store.components().len(), 3);
        assert_eq!(store.series_count(), 4);
        assert_eq!(store.point_count(), 4);
        // keys_of covers exactly the component's series.
        let sym = store.interner().component_sym(&volume("V1")).unwrap();
        assert_eq!(store.keys_of(sym).count(), 2);
    }

    #[test]
    fn content_fingerprint_is_independent_of_intern_order() {
        // Same content in two stores over fresh interners; one interns an extra
        // component and metric first, so every symbol number differs between them.
        let record = |store: &mut MetricStore| {
            for (i, name) in ["V1", "V2", "V3"].into_iter().enumerate() {
                for t in 0..5u64 {
                    store.record(&volume(name), &MetricName::WriteIo, Timestamp::new(t * 60), (i + 1) as f64);
                    store.record(
                        &volume(name),
                        &MetricName::ReadTime,
                        Timestamp::new(t * 60),
                        t as f64 * 0.5,
                    );
                }
            }
        };
        let mut plain = isolated_store();
        record(&mut plain);
        let mut shifted = isolated_store();
        shifted.intern(&ComponentId::disk("extra-disk"), &MetricName::Custom("extraMetric".into()));
        record(&mut shifted);
        assert_ne!(
            plain.key_of(&volume("V1"), &MetricName::WriteIo),
            shifted.key_of(&volume("V1"), &MetricName::WriteIo),
            "the intern orders must differ for the check to mean anything"
        );
        assert_eq!(plain.content_fingerprint(), shifted.content_fingerprint());
    }

    #[test]
    fn iteration_is_deterministic() {
        let build = || {
            let mut store = MetricStore::new();
            store.record(&volume("V2"), &MetricName::WriteIo, Timestamp::new(0), 1.0);
            store.record(&volume("V1"), &MetricName::WriteIo, Timestamp::new(0), 1.0);
            store
        };
        let (a, b) = (build(), build());
        let ka: Vec<String> = a.iter().map(|(k, _)| a.display_key(k)).collect();
        let kb: Vec<String> = b.iter().map(|(k, _)| b.display_key(k)).collect();
        assert_eq!(ka, kb, "same record order must give same iteration order");
        // Name-sorted iteration matches the old rich-key BTreeMap order.
        let sorted: Vec<String> = a.iter_sorted().map(|(k, _)| a.display_key(k)).collect();
        let mut expect = ka.clone();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn merged_iteration_is_in_global_key_order() {
        // Enough components to populate many shards, interned in shuffled order so
        // shards receive interleaved symbols.
        let mut store = MetricStore::new();
        for i in [7usize, 2, 31, 0, 16, 15, 9, 24, 1, 8] {
            store.record(&volume(&format!("V{i:02}")), &MetricName::WriteIo, Timestamp::new(0), i as f64);
            store.record(&volume(&format!("V{i:02}")), &MetricName::ReadIo, Timestamp::new(0), i as f64);
        }
        let keys: Vec<MetricKey> = store.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merged iteration must be ascending key order");
        assert_eq!(keys.len(), store.series_count());
        // component_syms is ascending and distinct.
        let syms: Vec<_> = store.component_syms().collect();
        let mut expect = syms.clone();
        expect.sort();
        expect.dedup();
        assert_eq!(syms, expect);
        assert_eq!(syms.len(), 10);
    }

    #[test]
    fn sharded_writer_matches_sequential_recording() {
        // Build identical key sets in two stores, then record the same streams —
        // sequentially in one, through the sharded writer (single-threaded here;
        // threaded equivalence is covered by the property test) in the other.
        let mut seq = MetricStore::new();
        let mut par = MetricStore::new();
        let keys: Vec<(MetricKey, MetricKey)> = (0..10)
            .map(|i| {
                let c = volume(&format!("V{i}"));
                (seq.intern(&c, &MetricName::WriteIo), par.intern(&c, &MetricName::WriteIo))
            })
            .collect();
        for t in 0..50u64 {
            let (ks, _) = keys[(t % 10) as usize];
            seq.record_key(ks, Timestamp::new(t), t as f64);
        }
        {
            let writer = par.sharded_writer();
            for t in 0..50u64 {
                let (_, kp) = keys[(t % 10) as usize];
                writer.record_key(kp, Timestamp::new(t), t as f64);
            }
        }
        assert_eq!(seq.series_count(), par.series_count());
        for ((ks, kp), _) in keys.iter().zip(0..) {
            assert_eq!(seq.series_by_key(*ks).unwrap().points(), par.series_by_key(*kp).unwrap().points());
        }
    }

    #[test]
    fn sharded_writer_records_from_real_threads() {
        let mut store = MetricStore::new();
        let keys: Vec<MetricKey> =
            (0..8).map(|i| store.intern(&volume(&format!("V{i}")), &MetricName::WriteIo)).collect();
        {
            let writer = store.sharded_writer();
            std::thread::scope(|scope| {
                for chunk in keys.chunks(2) {
                    let writer = &writer;
                    scope.spawn(move || {
                        for &key in chunk {
                            for t in 0..100u64 {
                                writer.record_key(key, Timestamp::new(t), t as f64);
                            }
                        }
                    });
                }
            });
        }
        assert_eq!(store.series_count(), 8);
        assert_eq!(store.point_count(), 800);
        for key in keys {
            let points = store.series_by_key(key).unwrap().points();
            assert_eq!(points.len(), 100);
            assert!(points.windows(2).all(|w| w[0].time <= w[1].time));
        }
    }

    #[test]
    fn batched_writer_matches_sequential_recording() {
        // Same streams through a sequential store and through a batched writer with
        // a small threshold (forces mid-stream flushes): merged contents and the
        // content fingerprint must be bit-identical.
        let mut seq = MetricStore::new();
        let mut par = MetricStore::new();
        let keys: Vec<(MetricKey, MetricKey)> = (0..10)
            .map(|i| {
                let c = volume(&format!("V{i}"));
                (seq.intern(&c, &MetricName::WriteIo), par.intern(&c, &MetricName::WriteIo))
            })
            .collect();
        for t in 0..200u64 {
            let (ks, _) = keys[(t % 10) as usize];
            seq.record_key(ks, Timestamp::new(t), t as f64);
        }
        {
            let writer = par.sharded_writer();
            let mut batched = writer.batched_with_threshold(7);
            for t in 0..200u64 {
                let (_, kp) = keys[(t % 10) as usize];
                batched.record_key(kp, Timestamp::new(t), t as f64);
            }
            // Residue below the threshold flushes on drop.
            assert!(batched.buffered() < 10 * 7);
        }
        assert_eq!(seq.series_count(), par.series_count());
        assert_eq!(seq.content_fingerprint(), par.content_fingerprint());
        for (ks, kp) in &keys {
            assert_eq!(seq.series_by_key(*ks).unwrap().points(), par.series_by_key(*kp).unwrap().points());
        }
    }

    #[test]
    fn batched_writer_flushes_on_explicit_flush_and_drop() {
        let mut store = MetricStore::new();
        let key = store.intern(&volume("V1"), &MetricName::WriteIo);
        {
            let writer = store.sharded_writer();
            let mut batched = writer.batched(); // default threshold: nothing auto-flushes here
            batched.record_key(key, Timestamp::new(1), 1.0);
            batched.record_key(key, Timestamp::new(2), 2.0);
            assert_eq!(batched.buffered(), 2);
            batched.flush();
            assert_eq!(batched.buffered(), 0);
            batched.record_key(key, Timestamp::new(3), 3.0);
            assert_eq!(batched.buffered(), 1);
            // The last point rides the drop flush.
        }
        assert_eq!(store.series_by_key(key).unwrap().points().len(), 3);
    }

    #[test]
    fn batched_writers_record_from_real_threads() {
        // One batched front-end per thread over one shared sharded writer; each key
        // is written by exactly one thread (the bit-identity precondition).
        let mut store = MetricStore::new();
        let keys: Vec<MetricKey> =
            (0..8).map(|i| store.intern(&volume(&format!("V{i}")), &MetricName::WriteIo)).collect();
        {
            let writer = store.sharded_writer();
            std::thread::scope(|scope| {
                for chunk in keys.chunks(2) {
                    let writer = &writer;
                    scope.spawn(move || {
                        let mut batched = writer.batched_with_threshold(13);
                        for &key in chunk {
                            for t in 0..100u64 {
                                batched.record_key(key, Timestamp::new(t), t as f64);
                            }
                        }
                    });
                }
            });
        }
        assert_eq!(store.series_count(), 8);
        assert_eq!(store.point_count(), 800);
        for key in keys {
            let points = store.series_by_key(key).unwrap().points();
            assert_eq!(points.len(), 100);
            assert!(points.windows(2).all(|w| w[0].time <= w[1].time));
        }
    }

    #[test]
    fn epoch_cumulative_fingerprints_snapshot_the_content_fingerprint() {
        let mut store = isolated_store();
        let k1 = store.intern(&volume("V1"), &MetricName::WriteIo);
        let k2 = store.intern(&volume("V2"), &MetricName::ReadIo);
        assert_eq!(store.epoch_count(), 0);

        store.record_key(k1, Timestamp::new(10), 1.0);
        let at_e0 = store.content_fingerprint();
        let e0 = store.seal_epoch();
        store.record_key(k1, Timestamp::new(20), 2.0);
        store.record_key(k2, Timestamp::new(30), 3.0);
        let at_e1 = store.content_fingerprint();
        let e1 = store.seal_epoch();
        store.record_key(k2, Timestamp::new(40), 4.0);

        // Each seal snapshots the live fingerprint of that moment; later appends
        // move the live fingerprint but never an earlier snapshot.
        assert_eq!(store.epoch_count(), 2);
        assert_eq!(store.epoch_cumulative_fingerprint(e0), Some(at_e0));
        assert_eq!(store.epoch_cumulative_fingerprint(e1), Some(at_e1));
        assert_ne!(store.content_fingerprint(), at_e1);
        assert!(store.epoch_cumulative_fingerprint(EpochId(9)).is_none());
    }

    #[test]
    fn delta_since_exposes_only_new_points() {
        let mut store = isolated_store();
        let k1 = store.intern(&volume("V1"), &MetricName::WriteIo);
        let k2 = store.intern(&volume("V2"), &MetricName::ReadIo);
        store.record_key(k1, Timestamp::new(10), 1.0);
        let e0 = store.seal_epoch();
        assert!(store.delta_since(e0).unwrap().is_empty());

        store.record_key(k1, Timestamp::new(20), 2.0);
        store.record_key(k2, Timestamp::new(30), 3.0);
        let delta = store.delta_since(e0).unwrap();
        assert_eq!(delta.point_count(), 2);
        assert_eq!(delta.entries().len(), 2);
        let (dk1, pts1) = delta.entries()[0];
        assert_eq!(dk1, k1);
        assert_eq!(pts1, &[DataPoint::new(Timestamp::new(20), 2.0)]);
        let (dk2, pts2) = delta.entries()[1];
        assert_eq!(dk2, k2);
        assert_eq!(pts2.len(), 1, "brand-new series appears in full");
        assert_eq!(delta.earliest_time(), Some(Timestamp::new(20)));
        assert!(store.delta_since(EpochId(5)).is_none(), "unknown epoch");

        // A later epoch's delta starts past its own watermark.
        let e1 = store.seal_epoch();
        assert!(store.delta_since(e1).unwrap().is_empty());
        assert_eq!(store.delta_since(e0).unwrap().point_count(), 2, "older epochs keep their view");
    }

    #[test]
    fn out_of_order_append_after_seal_poisons_deltas() {
        let mut store = isolated_store();
        let k = store.intern(&volume("V1"), &MetricName::WriteIo);
        // Out-of-order before any seal is fine: no watermark can be invalidated.
        store.record_key(k, Timestamp::new(100), 1.0);
        store.record_key(k, Timestamp::new(50), 0.5);
        let e0 = store.seal_epoch();
        assert!(store.deltas_intact());

        // In-order appends after the seal keep deltas exact.
        store.record_key(k, Timestamp::new(200), 2.0);
        assert!(store.deltas_intact());
        assert_eq!(store.delta_since(e0).unwrap().point_count(), 1);

        // An insert landing before the watermark invalidates suffix deltas for good.
        store.record_key(k, Timestamp::new(60), 0.6);
        assert!(!store.deltas_intact());
        assert!(store.delta_since(e0).is_none());
    }
}
