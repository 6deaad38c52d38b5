//! Symbol interning for monitored identities.
//!
//! The scoring hot path of the diagnosis workflow performs millions of
//! (component, metric) series lookups. With string-based [`ComponentId`]s as map keys,
//! every lookup used to clone two `String`s just to *build* the probe key. Interning
//! gives every distinct component and metric a dense `u32` symbol: keys become `Copy`,
//! comparisons become integer compares, and lookups allocate nothing.
//!
//! Symbols are **store-agnostic identities**: every [`crate::store::MetricStore`]
//! shares the [`Interner::global`] interner by default (explicitly-shared interners
//! are possible via [`crate::store::MetricStore::with_interner`]), so a
//! [`crate::metric::MetricKey`] names the same (component, metric) pair in every
//! store that shares the interner. This is what lets fleet-level caches key on
//! `MetricKey` directly and compare keys across testbeds.
//!
//! Interned identities are stored as leaked `&'static` references: the set of
//! distinct components and metrics a process ever monitors is small and bounded, and
//! leaking them keeps resolution zero-copy. **Resolution is lock-free**: alongside
//! the (write-locked) name→symbol maps, every interned identity is published into an
//! append-only page slab of `OnceLock` cells, so [`Interner::component`],
//! [`Interner::metric`] and the identity-hash accessors are two atomic loads — no
//! read lock, no contention with concurrent interning. A fleet of tenant threads
//! resolving keys on every diagnosis never serializes on the interner.
//!
//! Alongside the dense symbol, the interner records a **stable identity hash** of
//! each identity (FNV-1a over the rich name, independent of intern order, process
//! and platform). Consumers that need determinism under concurrent interning — the
//! per-series noise streams of [`crate::sampler::IntervalSampler`] — seed from the
//! stable hash, never from the (order-dependent) symbol value.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::ids::ComponentId;
use crate::metric::{MetricKey, MetricName};

/// Interned identity of a [`ComponentId`]. `Copy`, 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComponentSym(pub(crate) u32);

/// Interned identity of a [`MetricName`]. `Copy`, 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricSym(pub(crate) u32);

impl ComponentSym {
    /// The dense index of the symbol (0-based intern order) — the natural index into
    /// per-component dense arrays (store shards, sampler slots).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl MetricSym {
    /// Range bounds for per-component key scans.
    pub(crate) const MIN: MetricSym = MetricSym(0);
    pub(crate) const MAX: MetricSym = MetricSym(u32::MAX);

    /// The dense index of the symbol (0-based intern order).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// FNV-1a over a sequence of byte strings, with a `0xFF` separator between parts
/// (none of the hashed names contain `0xFF`, so concatenation cannot collide).
fn fnv1a(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
        hash ^= 0xFF;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Stable identity hash of a component: depends only on (kind, name), never on
/// intern order. Deterministic across threads, processes and platforms.
pub(crate) fn component_identity_hash(component: &ComponentId) -> u64 {
    fnv1a(&[b"component", component.kind.label().as_bytes(), component.name.as_bytes()])
}

/// Stable identity hash of a metric name. Built-in metrics and [`MetricName::Custom`]
/// metrics hash under distinct tags, so `Custom("writeIO")` never collides with the
/// built-in `writeIO`.
pub(crate) fn metric_identity_hash(metric: &MetricName) -> u64 {
    match metric {
        MetricName::Custom(name) => fnv1a(&[b"metric-custom", name.as_bytes()]),
        builtin => fnv1a(&[b"metric", builtin.short_name().as_bytes()]),
    }
}

/// One published identity: the leaked rich identity plus its precomputed stable
/// hash, readable without any lock.
#[derive(Debug)]
struct Published<T: 'static> {
    value: &'static T,
    hash: u64,
}

impl<T: 'static> Clone for Published<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: 'static> Copy for Published<T> {}

/// Number of pages in an [`AtomicSlab`]. Page `p` holds `64 << p` entries, so 26
/// pages cover `64 * (2^26 - 1)` symbols — beyond the `u32` symbol space.
const SLAB_PAGES: usize = 26;
/// log2 of the first page's size.
const SLAB_PAGE0_SHIFT: u32 = 6;

/// An append-only, wait-free-on-read symbol→identity table: geometrically growing
/// pages of `OnceLock` cells. `get` is two atomic loads (page pointer, cell);
/// `publish` allocates a page at most once per page index and sets a cell once.
/// Entries are never moved or freed, so a published reference stays valid for the
/// process lifetime — exactly the lifetime of the leaked identities it stores.
#[derive(Debug)]
struct AtomicSlab<T: 'static> {
    pages: [OnceLock<SlabPage<T>>; SLAB_PAGES],
}

/// One geometrically-sized page of slab cells, allocated on first publish.
type SlabPage<T> = Box<[OnceLock<Published<T>>]>;

impl<T: 'static> Default for AtomicSlab<T> {
    fn default() -> Self {
        AtomicSlab { pages: std::array::from_fn(|_| OnceLock::new()) }
    }
}

/// Splits a dense symbol index into (page, offset within page).
fn slab_location(index: usize) -> (usize, usize) {
    let slot = index + (1usize << SLAB_PAGE0_SHIFT);
    let page = (usize::BITS - 1 - slot.leading_zeros() - SLAB_PAGE0_SHIFT) as usize;
    let offset = slot - (1usize << (page as u32 + SLAB_PAGE0_SHIFT));
    (page, offset)
}

impl<T: 'static> AtomicSlab<T> {
    /// The published entry at `index`, lock-free. `None` if nothing was published
    /// there (a symbol from a different interner).
    fn get(&self, index: usize) -> Option<Published<T>> {
        let (page, offset) = slab_location(index);
        self.pages.get(page)?.get()?.get(offset)?.get().copied()
    }

    /// Publishes an entry at `index`. Called only by interning writers (under the
    /// interner's write lock), so each cell is set exactly once.
    fn publish(&self, index: usize, value: &'static T, hash: u64) {
        let (page, offset) = slab_location(index);
        let cells = self.pages[page].get_or_init(|| {
            (0..(1usize << (page as u32 + SLAB_PAGE0_SHIFT))).map(|_| OnceLock::new()).collect()
        });
        let _ = cells[offset].set(Published { value, hash });
    }
}

/// The write-locked state behind an [`Interner`]: only the name→symbol maps used to
/// deduplicate interning live here. Symbol→identity resolution goes through the
/// lock-free slabs instead.
#[derive(Debug, Default)]
struct InternerState {
    component_syms: HashMap<ComponentId, ComponentSym>,
    metric_syms: HashMap<MetricName, MetricSym>,
}

/// Bidirectional map between rich identities and their dense symbols, sharable
/// across stores and threads.
///
/// Interning clones (and leaks) the identity exactly once, on first sight; every
/// later name→symbol lookup is a borrowed hash probe under a read lock with zero
/// allocations, and every symbol→identity resolution (including the stable hash
/// accessors and [`Interner::key_hash`]) is **lock-free** — atomic loads against
/// the append-only publication slab, never touching the lock. The process-global
/// instance ([`Interner::global`]) is what makes symbols stable identities across
/// every [`crate::store::MetricStore`] in the process.
#[derive(Debug, Default)]
pub struct Interner {
    state: RwLock<InternerState>,
    components: AtomicSlab<ComponentId>,
    metrics: AtomicSlab<MetricName>,
}

impl Interner {
    /// Creates an empty, private interner (symbols are only comparable among stores
    /// explicitly sharing it).
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-global interner every [`crate::store::MetricStore`] shares by
    /// default.
    pub fn global() -> &'static Arc<Interner> {
        static GLOBAL: OnceLock<Arc<Interner>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(Interner::new()))
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, InternerState> {
        self.state.read().expect("interner lock poisoned")
    }

    /// The symbol for a component, interning it on first sight.
    pub fn intern_component(&self, component: &ComponentId) -> ComponentSym {
        if let Some(&sym) = self.read().component_syms.get(component) {
            return sym;
        }
        let mut state = self.state.write().expect("interner lock poisoned");
        if let Some(&sym) = state.component_syms.get(component) {
            return sym; // Raced with another interning thread.
        }
        let sym = ComponentSym(u32::try_from(state.component_syms.len()).expect("< 2^32 components"));
        // Publish to the lock-free slab *before* the symbol becomes discoverable
        // through the map, so any thread that can hold the symbol can resolve it.
        self.components.publish(
            sym.index(),
            Box::leak(Box::new(component.clone())),
            component_identity_hash(component),
        );
        state.component_syms.insert(component.clone(), sym);
        sym
    }

    /// The symbol for a metric, interning it on first sight.
    pub fn intern_metric(&self, metric: &MetricName) -> MetricSym {
        if let Some(&sym) = self.read().metric_syms.get(metric) {
            return sym;
        }
        let mut state = self.state.write().expect("interner lock poisoned");
        if let Some(&sym) = state.metric_syms.get(metric) {
            return sym;
        }
        let sym = MetricSym(u32::try_from(state.metric_syms.len()).expect("< 2^32 metrics"));
        self.metrics.publish(sym.index(), Box::leak(Box::new(metric.clone())), metric_identity_hash(metric));
        state.metric_syms.insert(metric.clone(), sym);
        sym
    }

    /// The symbol of an already-interned component (no allocation, no mutation).
    pub fn component_sym(&self, component: &ComponentId) -> Option<ComponentSym> {
        self.read().component_syms.get(component).copied()
    }

    /// The symbol of an already-interned metric (no allocation, no mutation).
    pub fn metric_sym(&self, metric: &MetricName) -> Option<MetricSym> {
        self.read().metric_syms.get(metric).copied()
    }

    /// Resolves a component symbol back to its identity — lock-free (two atomic
    /// loads against the publication slab).
    ///
    /// # Panics
    /// Panics if the symbol was issued by a different interner.
    pub fn component(&self, sym: ComponentSym) -> &'static ComponentId {
        self.components.get(sym.index()).expect("component symbol from a different interner").value
    }

    /// Resolves a metric symbol back to its name — lock-free.
    ///
    /// # Panics
    /// Panics if the symbol was issued by a different interner.
    pub fn metric(&self, sym: MetricSym) -> &'static MetricName {
        self.metrics.get(sym.index()).expect("metric symbol from a different interner").value
    }

    /// The stable identity hash of an interned component (precomputed at intern
    /// time, read lock-free).
    pub(crate) fn component_hash(&self, sym: ComponentSym) -> u64 {
        self.components.get(sym.index()).expect("component symbol from a different interner").hash
    }

    /// The stable identity hash of an interned metric (read lock-free).
    pub(crate) fn metric_hash(&self, sym: MetricSym) -> u64 {
        self.metrics.get(sym.index()).expect("metric symbol from a different interner").hash
    }

    /// The stable identity hash of a series key: a mix of its component and metric
    /// identity hashes. Depends only on the rich identities, never on symbol
    /// numbering — safe to seed per-series noise streams from. Lock-free.
    pub fn key_hash(&self, key: MetricKey) -> u64 {
        crate::rng::SplitMix64::mix(self.component_hash(key.component), self.metric_hash(key.metric))
    }

    /// Number of distinct components interned.
    #[cfg(test)]
    fn component_count(&self) -> usize {
        self.read().component_syms.len()
    }

    /// Number of distinct metrics interned.
    #[cfg(test)]
    fn metric_count(&self) -> usize {
        self.read().metric_syms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_resolves_back() {
        let i = Interner::new();
        let v1 = ComponentId::volume("V1");
        let a = i.intern_component(&v1);
        let b = i.intern_component(&v1);
        assert_eq!(a, b);
        assert_eq!(i.component(a), &v1);
        assert_eq!(i.component_count(), 1);

        let m = i.intern_metric(&MetricName::WriteIo);
        assert_eq!(i.metric_sym(&MetricName::WriteIo), Some(m));
        assert_eq!(i.metric(m), &MetricName::WriteIo);
        assert_eq!(i.metric_sym(&MetricName::ReadIo), None);
    }

    #[test]
    fn distinct_identities_get_distinct_symbols() {
        let i = Interner::new();
        let a = i.intern_component(&ComponentId::volume("V1"));
        let b = i.intern_component(&ComponentId::volume("V2"));
        let c = i.intern_component(&ComponentId::disk("V1"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.component_count(), 3);
        // Custom metrics intern by value.
        let m1 = i.intern_metric(&MetricName::Custom("q".into()));
        let m2 = i.intern_metric(&MetricName::Custom("q".into()));
        assert_eq!(m1, m2);
    }

    #[test]
    fn borrowed_lookup_does_not_intern() {
        let i = Interner::new();
        assert!(i.component_sym(&ComponentId::volume("V1")).is_none());
        assert_eq!(i.component_count(), 0);
    }

    #[test]
    fn slab_pages_cover_contiguous_indices() {
        // Page/offset maths: indices map injectively and pages grow geometrically.
        assert_eq!(slab_location(0), (0, 0));
        assert_eq!(slab_location(63), (0, 63));
        assert_eq!(slab_location(64), (1, 0));
        assert_eq!(slab_location(191), (1, 127));
        assert_eq!(slab_location(192), (2, 0));
        // Every index up to a few pages round-trips to a unique location.
        let mut seen = std::collections::HashSet::new();
        for index in 0..1_000usize {
            let (page, offset) = slab_location(index);
            assert!(offset < (64usize << page), "offset in page bounds");
            assert!(page < SLAB_PAGES);
            assert!(seen.insert((page, offset)), "index {index} collided");
        }
    }

    #[test]
    fn resolution_crosses_page_boundaries() {
        // Intern enough metrics to span pages 0..=2 of the slab; every symbol must
        // resolve to its own identity through the lock-free path.
        let i = Interner::new();
        let syms: Vec<MetricSym> =
            (0..300).map(|n| i.intern_metric(&MetricName::Custom(format!("m{n}")))).collect();
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(i.metric(*sym), &MetricName::Custom(format!("m{n}")));
            assert_eq!(i.metric_hash(*sym), metric_identity_hash(&MetricName::Custom(format!("m{n}"))));
        }
    }

    #[test]
    fn identity_hashes_are_stable_and_intern_order_independent() {
        // Two interners, opposite intern orders: symbols differ, hashes agree.
        let (a, b) = (Interner::new(), Interner::new());
        let v1 = ComponentId::volume("V1");
        let v2 = ComponentId::volume("V2");
        let sa1 = a.intern_component(&v1);
        let sa2 = a.intern_component(&v2);
        let sb2 = b.intern_component(&v2);
        let sb1 = b.intern_component(&v1);
        assert_ne!(sa1, sb1, "intern order determines symbols");
        assert_eq!(a.component_hash(sa1), b.component_hash(sb1));
        assert_eq!(a.component_hash(sa2), b.component_hash(sb2));
        assert_ne!(a.component_hash(sa1), a.component_hash(sa2));
        // Key hashes follow the same rule.
        let ma = a.intern_metric(&MetricName::WriteIo);
        let _pad = b.intern_metric(&MetricName::ReadIo);
        let mb = b.intern_metric(&MetricName::WriteIo);
        assert_eq!(a.key_hash(MetricKey::new(sa1, ma)), b.key_hash(MetricKey::new(sb1, mb)));
    }

    #[test]
    fn custom_metric_never_collides_with_builtin_of_same_short_name() {
        let custom = MetricName::Custom("writeIO".into());
        assert_eq!(custom.short_name(), MetricName::WriteIo.short_name());
        assert_ne!(metric_identity_hash(&custom), metric_identity_hash(&MetricName::WriteIo));
    }

    #[test]
    fn global_interner_is_shared_across_call_sites() {
        let sym = Interner::global().intern_component(&ComponentId::volume("global-intern-test"));
        assert_eq!(Interner::global().component_sym(&ComponentId::volume("global-intern-test")), Some(sym));
    }

    /// Guardrail for unbounded `Custom` metric names. Interned identities are
    /// leaked for the process lifetime, and every default store shares
    /// [`Interner::global`] — so a workload that mints an unbounded stream of
    /// distinct `MetricName::Custom` values (per-request names, session-tagged
    /// counters) would grow the global symbol universe, and everything densely
    /// indexed by it, forever. The supported pattern is a *scoped* interner via
    /// [`crate::store::MetricStore::with_interner`]: the cardinality is absorbed
    /// by an interner whose tables die with the workload, and the global universe
    /// does not grow at all. This test documents the pattern and pins the
    /// isolation.
    #[test]
    fn unbounded_custom_names_belong_in_a_scoped_interner() {
        use crate::time::Timestamp;

        let scoped = Arc::new(Interner::new());

        // Simulated high-cardinality workload: every "request" mints a new name.
        let mut store = crate::store::MetricStore::with_interner(Arc::clone(&scoped));
        let host = ComponentId::server("cardinality-probe-host");
        for request in 0..256u64 {
            let name = MetricName::Custom(format!("reqLatency.{request}"));
            store.record(&host, &name, Timestamp::new(request), 1.0);
        }

        // The scoped universe absorbed the cardinality (and keys still resolve)...
        assert_eq!(scoped.metric_count(), 256);
        assert_eq!(scoped.component_count(), 1);
        let key = store.key_of(&host, &MetricName::Custom("reqLatency.0".into())).expect("interned");
        assert_eq!(store.resolve(key).0, &host);
        // ...while none of it leaked into the process-global universe: the damage
        // is bounded by this workload's lifetime instead of poisoning every store
        // sharing the global interner. (Membership, not counts — unrelated tests
        // intern into the global interner concurrently.)
        assert_eq!(Interner::global().component_sym(&host), None);
        assert_eq!(Interner::global().metric_sym(&MetricName::Custom("reqLatency.0".into())), None);
    }

    #[test]
    fn concurrent_interning_is_race_free() {
        let i = Interner::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for n in 0..64 {
                        i.intern_component(&ComponentId::volume(format!("V{n}")));
                        i.intern_metric(&MetricName::Custom(format!("m{n}")));
                    }
                });
            }
        });
        assert_eq!(i.component_count(), 64);
        assert_eq!(i.metric_count(), 64);
        for n in 0..64 {
            let sym = i.component_sym(&ComponentId::volume(format!("V{n}"))).expect("interned");
            assert_eq!(i.component(sym).name, format!("V{n}"));
        }
    }

    #[test]
    fn concurrent_resolution_races_interning_safely() {
        // Writers keep interning fresh identities while readers resolve every
        // symbol they can observe — the lock-free read path must always see a
        // fully-published entry for any symbol discoverable through the maps.
        let i = Interner::new();
        std::thread::scope(|scope| {
            for w in 0..2 {
                let i = &i;
                scope.spawn(move || {
                    for n in 0..512 {
                        i.intern_component(&ComponentId::volume(format!("W{w}-{n}")));
                    }
                });
            }
            for _ in 0..2 {
                let i = &i;
                scope.spawn(move || {
                    for _ in 0..2_000 {
                        let count = i.component_count();
                        for index in 0..count {
                            let sym = ComponentSym(index as u32);
                            let c = i.component(sym);
                            assert_eq!(i.component_hash(sym), component_identity_hash(c));
                        }
                    }
                });
            }
        });
        assert_eq!(i.component_count(), 1024);
    }
}
