//! The process-lifetime, fingerprint-keyed cross-call result registry.
//!
//! The per-search `ρ`/`ρ*` caches of PR 2 die with their search, so
//! repeated searches on one instance (`hgtool widths` running three
//! engines, `fhw_frac_search` iterating budgets, the strict-HD integer
//! search, the agreement test suites) re-price every bag from scratch.
//! This registry keeps one [`cover::ShardedCache`] per
//! `(hypergraph fingerprint, cache slot)` alive for the process lifetime,
//! so a bag priced once is priced never again — across calls, strategies
//! and thread counts. On top of the price slots, [`cached_query`] uses the
//! same registry to cache *whole-query answers*: a
//! `(instance, strategy, parameters)` triple maps to the full result —
//! width, lifted witness and engine counters — so a repeated call skips
//! the search entirely, and an identical call already in flight is
//! deduplicated through the cache's `Pending` claim machinery (the second
//! caller parks and adopts the first one's answer).
//!
//! Soundness: a cached value is only valid for the instance it was
//! computed on, so the registry stores the full [`CanonicalForm`] next to
//! the caches and compares it on every lookup. A fingerprint collision
//! does not discard sharing anymore: each distinct canonical form behind
//! one fingerprint gets its own *variant* (keyed by a secondary hash), so
//! colliding instances still reuse their own caches across calls; only
//! the astronomically unlikely double collision (same fingerprint *and*
//! same secondary hash, different structure) falls back to a fresh
//! private session — never to wrong prices.
//!
//! Memory: all slots of all variants share one byte budget
//! ([`BUDGET_ENV`], default 64 MiB), estimated via [`cover::MemSize`] and
//! enforced by least-recently-used eviction over `(fingerprint, variant)`
//! keys at session-open time. Opening a session touches its key; slot
//! checkouts mark the key dirty so the next sweep re-measures it. An open
//! never scans the registry: the touch is O(log n) in an ordered tick map,
//! and the sweep keeps a running byte total, so it only re-measures dirty
//! variants and pops victims off the LRU front.
//!
//! Determinism: widths and witnesses are unaffected by reuse (prices and
//! results are exact values, and witnesses are revalidated by the test
//! suites). The `price_*` counters and the runtime counters
//! (`result_cache_hits`, `inflight_dedup`) of a session *are* affected —
//! that is the point — so the engine determinism tests run with reuse off
//! and compare [`SearchStats::engine_only`].

use crate::fingerprint::{canonical_form, fingerprint_of_canon, CanonicalForm, Fingerprint};
use crate::stats::SearchStats;
use cover::{Claim, MemSize, ShardedCache};
use hypergraph::fx::FxHasher;
use hypergraph::Hypergraph;
use std::any::Any;
use std::collections::{hash_map::Entry, BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable overriding the shared cache byte budget.
pub const BUDGET_ENV: &str = "HGTOOL_CACHE_BYTES";

/// Default shared byte budget: price caches and the whole-query result
/// cache together.
const DEFAULT_BUDGET_BYTES: usize = 64 << 20;

/// One registered slot, type-erased: the byte-budget sweep measures it
/// without type knowledge, and checkouts downcast it back through `Any`.
trait Slot: Any + Send + Sync {
    fn approx_bytes(&self) -> usize;
}

impl<K, V> Slot for ShardedCache<K, V>
where
    K: Eq + Hash + MemSize + Send + Sync + 'static,
    V: Clone + MemSize + Send + Sync + 'static,
{
    fn approx_bytes(&self) -> usize {
        ShardedCache::approx_bytes(self)
    }
}

/// A variant key: the primary fingerprint plus the secondary hash of the
/// canonical form.
type Key = (u128, u64);

/// One canonical form behind a fingerprint: the exact incidence structure
/// (collision guard), its slot map, the byte estimate as of the last
/// sweep (stale while the variant is in the dirty set), and the tick of
/// its last touch (its position in the LRU order).
struct Variant {
    canon: CanonicalForm,
    slots: HashMap<&'static str, Arc<dyn Slot>>,
    bytes: usize,
    tick: u64,
}

/// The interior state: variants by key, the LRU order as touch tick →
/// key (least recent first), the keys whose byte estimate went stale
/// since the last sweep, and the sum of every variant's `bytes`.
#[derive(Default)]
struct Registry {
    variants: HashMap<Key, Variant>,
    order: BTreeMap<u64, Key>,
    next_tick: u64,
    dirty: HashSet<Key>,
    total: usize,
}

/// The process-lifetime registry. Obtain the shared one through
/// [`global`]; tests build private instances with
/// [`GlobalPriceCache::new`] (leaked to `'static`, since sessions borrow
/// the registry for the process lifetime).
pub struct GlobalPriceCache {
    inner: Mutex<Registry>,
    budget: usize,
}

/// The process-wide registry instance, budgeted by [`BUDGET_ENV`].
pub fn global() -> &'static GlobalPriceCache {
    static GLOBAL: OnceLock<GlobalPriceCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let budget = std::env::var(BUDGET_ENV)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(DEFAULT_BUDGET_BYTES);
        GlobalPriceCache::new(budget)
    })
}

/// The secondary hash separating canonical forms that collide on the
/// primary fingerprint (FxHash over the same word stream the fingerprint
/// reads, but with a different mixing function — independent enough that
/// a double collision would need two simultaneous 64-bit+128-bit breaks).
fn secondary_hash(canon: &CanonicalForm) -> u64 {
    let mut hasher = FxHasher::default();
    canon.hash(&mut hasher);
    hasher.finish()
}

impl GlobalPriceCache {
    /// An empty registry with the given byte budget.
    pub fn new(budget: usize) -> Self {
        GlobalPriceCache {
            inner: Mutex::new(Registry::default()),
            budget,
        }
    }

    /// Opens a session for `h`: cached slots of the same instance are
    /// shared; an unknown instance (or a new canonical form behind a
    /// colliding fingerprint) is registered as its own variant. Opening
    /// touches the LRU key and runs the byte-budget sweep, evicting
    /// least-recently-used variants (never the one just opened) while the
    /// estimate exceeds the budget.
    pub fn session(&'static self, h: &Hypergraph) -> PriceSession {
        let canon = canonical_form(h);
        let fp = fingerprint_of_canon(&canon);
        let key = (fp.0, secondary_hash(&canon));
        let mut guard = self.inner.lock().expect("price registry poisoned");
        let reg = &mut *guard;
        let tick = reg.next_tick;
        reg.next_tick += 1;
        match reg.variants.entry(key) {
            Entry::Occupied(entry) => {
                let v = entry.into_mut();
                // Double collision (fingerprint and secondary hash): never
                // share. This is per *structure*, not per call — merely
                // fingerprint-colliding instances each keep their own
                // shared variant.
                if v.canon != canon {
                    return PriceSession::fresh();
                }
                reg.order.remove(&v.tick);
                v.tick = tick;
            }
            Entry::Vacant(entry) => {
                entry.insert(Variant {
                    canon,
                    slots: HashMap::new(),
                    bytes: 0,
                    tick,
                });
            }
        }
        reg.order.insert(tick, key);
        self.sweep(reg, key);
        PriceSession {
            registry: Some((self, fp, key.1)),
        }
    }

    /// Re-measures dirty variants, then evicts from the LRU front while
    /// the running total exceeds the budget. `just_opened` holds the
    /// newest tick, so reaching it means nothing older is left to evict.
    fn sweep(&self, reg: &mut Registry, just_opened: Key) {
        for key in std::mem::take(&mut reg.dirty) {
            if let Some(v) = reg.variants.get_mut(&key) {
                let bytes = v.slots.values().map(|s| s.approx_bytes()).sum();
                reg.total = reg.total - v.bytes + bytes;
                v.bytes = bytes;
            }
        }
        while reg.total > self.budget {
            match reg.order.first_entry() {
                Some(oldest) if *oldest.get() != just_opened => {
                    let victim = reg.variants.remove(&oldest.remove());
                    reg.total -= victim.expect("ordered key is resident").bytes;
                }
                _ => break,
            }
        }
    }

    /// The registered shared cache for `(fingerprint, variant, slot)`,
    /// created on first use and marked dirty for the next sweep. `None`
    /// when the variant was evicted meanwhile.
    fn slot<K, V>(
        &self,
        fp: Fingerprint,
        sec: u64,
        name: &'static str,
    ) -> Option<Arc<ShardedCache<K, V>>>
    where
        K: Eq + Hash + MemSize + Send + Sync + 'static,
        V: Clone + MemSize + Send + Sync + 'static,
    {
        let mut guard = self.inner.lock().expect("price registry poisoned");
        let reg = &mut *guard;
        let variant = reg.variants.get_mut(&(fp.0, sec))?;
        let slot: Arc<dyn Any + Send + Sync> = variant
            .slots
            .entry(name)
            .or_insert_with(|| Arc::new(ShardedCache::<K, V>::new()))
            .clone();
        let cache = slot
            .downcast::<ShardedCache<K, V>>()
            .expect("slot name reused with a different cache type");
        reg.dirty.insert((fp.0, sec));
        Some(cache)
    }

    /// Resident variants (diagnostics).
    pub fn len(&self) -> usize {
        self.occupancy().0
    }

    /// True when nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The byte estimate as of the last sweep (diagnostics; dirty variants
    /// report their stale measurement).
    pub fn approx_bytes(&self) -> usize {
        self.occupancy().1
    }

    /// `(resident variants, byte estimate)` read under one lock.
    fn occupancy(&self) -> (usize, usize) {
        let reg = self.inner.lock().expect("price registry poisoned");
        (reg.variants.len(), reg.total)
    }
}

/// A per-search handle to the shared caches of one instance (or to fresh
/// private caches when reuse is off / double-collided / evicted).
pub struct PriceSession {
    /// `Some` when backed by a registry: the registry plus the variant key.
    registry: Option<(&'static GlobalPriceCache, Fingerprint, u64)>,
}

impl PriceSession {
    /// A session with private caches only (reuse disabled).
    pub fn fresh() -> Self {
        PriceSession { registry: None }
    }

    /// True when backed by a process-lifetime registry.
    pub fn is_shared(&self) -> bool {
        self.registry.is_some()
    }

    /// The cache for `slot`, shared across calls when the session is
    /// registry-backed, private otherwise.
    pub fn cache<K, V>(&self, slot: &'static str) -> Arc<ShardedCache<K, V>>
    where
        K: Eq + Hash + MemSize + Send + Sync + 'static,
        V: Clone + MemSize + Send + Sync + 'static,
    {
        self.registry
            .and_then(|(reg, fp, sec)| reg.slot::<K, V>(fp, sec, slot))
            .unwrap_or_else(|| Arc::new(ShardedCache::new()))
    }
}

/// One strategy cache checked out of a session, carrying the counter
/// baselines taken at checkout so a search can report *its own* traffic —
/// the shared cache's counters are cumulative across every search that
/// ever borrowed it. This is the one place the baseline/delta bookkeeping
/// lives; the strategy wrappers in `hd`/`ghd`/`fhd` all go through it.
pub struct SessionCache<K, V> {
    /// The (shared or private) cache itself.
    pub cache: Arc<ShardedCache<K, V>>,
    base_hits: usize,
    base_misses: usize,
}

impl<K, V> SessionCache<K, V>
where
    K: Eq + Hash + MemSize + Send + Sync + 'static,
    V: Clone + MemSize + Send + Sync + 'static,
{
    /// Opens the `slot` cache for `h`: registry-backed when `reuse` asks
    /// for it (and `HGTOOL_NO_PREP` doesn't veto it), private otherwise —
    /// with counter baselines snapshotted for [`SessionCache::deltas`].
    pub fn open(h: &Hypergraph, slot: &'static str, reuse: bool) -> Self {
        let session = if crate::reuse_enabled(reuse) {
            global().session(h)
        } else {
            PriceSession::fresh()
        };
        let cache = session.cache::<K, V>(slot);
        let (base_hits, base_misses) = cache.counters();
        SessionCache {
            cache,
            base_hits,
            base_misses,
        }
    }

    /// `(hits, misses)` accumulated since checkout — what the strategy
    /// wrappers surface as `price_hits`/`price_misses`.
    /// Process-history-independent on private caches; on shared ones,
    /// concurrent borrowers' traffic is included (which is why the
    /// determinism suites run with reuse off).
    pub fn deltas(&self) -> (usize, usize) {
        let (hits, misses) = self.cache.counters();
        (hits - self.base_hits, misses - self.base_misses)
    }
}

/// Routes one whole-query computation through the cross-call result
/// cache: `(instance fingerprint, slot, key)` maps to the full answer —
/// result (including the lifted witness) plus the engine counters of the
/// run that computed it.
///
/// `slot` names the strategy (one result cache per strategy per
/// instance); `key` encodes every parameter the answer depends on
/// (cutoff, width bound, engine options that affect the result). With
/// reuse off (or vetoed by `HGTOOL_NO_PREP`, or double-collided) `run`
/// executes directly.
///
/// * A repeated identical query returns the stored answer with
///   `result_cache_hits = 1` and never runs a search.
/// * An identical query *in flight* parks on the entry's `Pending` claim
///   and adopts the owner's answer (`inflight_dedup = 1` on top of the
///   hit) — exactly one search runs however many threads ask.
/// * If the owning computation panics, the claim is abandoned and one
///   parked waiter re-runs (nobody deadlocks on a poisoned entry).
pub fn cached_query<R>(
    h: &Hypergraph,
    slot: &'static str,
    key: String,
    reuse: bool,
    run: impl FnOnce() -> (R, SearchStats),
) -> (R, SearchStats)
where
    R: Clone + MemSize + Send + Sync + 'static,
{
    if !crate::reuse_enabled(reuse) {
        return run();
    }
    let session = global().session(h);
    let Some((_, fp, _)) = session.registry else {
        return run();
    };
    let span = obs::span!("result_cache", slot = slot);
    let cache: Arc<ShardedCache<String, (R, SearchStats)>> = session.cache(slot);
    // Anytime-bounds plumbing (only when an ambient control is
    // installed): if an identical query is already in flight, attach our
    // sink as a listener *before* parking on the claim — the owner's
    // best-so-far bounds replay immediately and future reports stream in
    // while we wait.
    let ambient = crate::anytime::current_sink();
    if let Some(sink) = &ambient {
        inflight_bounds::attach_waiter(fp, slot, &key, sink);
    }
    let (claim, waited) = cache.claim_tracking_wait(&key);
    let answer = match claim {
        Claim::Hit((result, mut stats)) => {
            stats.result_cache_hits = 1;
            stats.inflight_dedup = usize::from(waited);
            cache_metrics::handles().hits.inc();
            if waited {
                cache_metrics::handles().inflight_dedup.inc();
            }
            if let Some(span) = span.as_ref() {
                span.record("hit", true);
                span.record("deduped", waited);
            }
            (result, stats)
        }
        Claim::Owner => {
            cache_metrics::handles().misses.inc();
            if let Some(span) = span.as_ref() {
                span.record("hit", false);
            }
            let guard = QueryGuard {
                cache: &cache,
                key: Some(&key),
            };
            // Publish this run's sink so deduplicated waiters (and any
            // other observer of the same (instance, slot, key)) can
            // watch the bounds tighten; deregistered on drop, unwind
            // included.
            let _published = ambient
                .as_ref()
                .map(|sink| inflight_bounds::publish(fp, slot, &key, sink));
            let (result, stats) = run();
            guard.disarm();
            cache.complete(key, (result.clone(), stats.clone()));
            (result, stats)
        }
    };
    // Occupancy gauges follow every routed query (byte accounting is the
    // registry's LRU estimate — the same number its sweep budgets by).
    let (variants, bytes) = global().occupancy();
    cache_metrics::handles().bytes.set(bytes as i64);
    cache_metrics::handles().variants.set(variants as i64);
    answer
}

/// Process-lifetime counters and occupancy gauges of the cross-call
/// registry, mirrored into the `obs` metrics registry. Observational
/// only — cache behavior never depends on them.
mod cache_metrics {
    use obs::metrics::{counter, gauge, Counter, Gauge};
    use std::sync::{Arc, OnceLock};

    pub(super) struct Handles {
        pub hits: Arc<Counter>,
        pub misses: Arc<Counter>,
        pub inflight_dedup: Arc<Counter>,
        pub bytes: Arc<Gauge>,
        pub variants: Arc<Gauge>,
    }

    pub(super) fn handles() -> &'static Handles {
        static HANDLES: OnceLock<Handles> = OnceLock::new();
        HANDLES.get_or_init(|| Handles {
            hits: counter(
                "hgtool_result_cache_hits_total",
                "Whole-query answers served from the cross-call result cache",
            ),
            misses: counter(
                "hgtool_result_cache_misses_total",
                "Whole-query searches that ran because no cached answer existed",
            ),
            inflight_dedup: counter(
                "hgtool_inflight_dedup_total",
                "Duplicate queries that parked on an in-flight identical search",
            ),
            bytes: gauge(
                "hgtool_result_cache_bytes",
                "Approximate byte occupancy of the cross-call price+result registry",
            ),
            variants: gauge(
                "hgtool_result_cache_variants",
                "Instance variants resident in the cross-call registry",
            ),
        })
    }
}

/// The registry making anytime bounds of in-flight queries observable:
/// `(instance fingerprint, slot, key)` of each owned [`cached_query`]
/// computation maps to the owner's ambient [`crate::anytime::BoundSink`]
/// while the computation runs.
mod inflight_bounds {
    use super::*;
    use crate::anytime::BoundSink;

    type Key = (u128, &'static str, String);

    fn registry() -> &'static Mutex<HashMap<Key, BoundSink>> {
        static REGISTRY: OnceLock<Mutex<HashMap<Key, BoundSink>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// If `(fp, slot, key)` is in flight, attach `sink` as a listener of
    /// the owner's sink (replays best-so-far, then streams improvements).
    pub(super) fn attach_waiter(fp: Fingerprint, slot: &'static str, key: &str, sink: &BoundSink) {
        let owner = registry()
            .lock()
            .expect("in-flight bound registry poisoned")
            .get(&(fp.0, slot, key.to_string()))
            .cloned();
        if let Some(owner) = owner {
            owner.attach(sink.clone());
        }
    }

    /// Publishes `sink` as the in-flight owner of `(fp, slot, key)`;
    /// the registration is removed when the returned guard drops.
    pub(super) fn publish(
        fp: Fingerprint,
        slot: &'static str,
        key: &str,
        sink: &BoundSink,
    ) -> Published {
        let k: Key = (fp.0, slot, key.to_string());
        registry()
            .lock()
            .expect("in-flight bound registry poisoned")
            .insert(k.clone(), sink.clone());
        Published { key: k }
    }

    pub(super) struct Published {
        key: Key,
    }

    impl Drop for Published {
        fn drop(&mut self) {
            registry()
                .lock()
                .expect("in-flight bound registry poisoned")
                .remove(&self.key);
        }
    }
}

/// Abandons an owned result claim on unwind unless disarmed, so a
/// panicking search cannot strand parked duplicate queries forever.
struct QueryGuard<'c, R: Clone> {
    cache: &'c ShardedCache<String, (R, SearchStats)>,
    key: Option<&'c String>,
}

impl<R: Clone> QueryGuard<'_, R> {
    fn disarm(mut self) {
        self.key = None;
    }
}

impl<R: Clone> Drop for QueryGuard<'_, R> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.cache.abandon(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    /// A private registry leaked to `'static` (sessions borrow it).
    fn private(budget: usize) -> &'static GlobalPriceCache {
        Box::leak(Box::new(GlobalPriceCache::new(budget)))
    }

    #[test]
    fn session_cache_reports_per_checkout_deltas() {
        let h = generators::path(3);
        let first: SessionCache<u32, u32> = SessionCache::open(&h, "test-slot-deltas", true);
        first.cache.get_or_insert_with(&1, || 10);
        first.cache.get_or_insert_with(&1, || 10);
        assert_eq!(first.deltas(), (1, 1));
        let second: SessionCache<u32, u32> = SessionCache::open(&h, "test-slot-deltas", true);
        second.cache.get_or_insert_with(&1, || 10);
        assert_eq!(second.deltas(), (1, 0), "cross-checkout lookup hits");
    }

    #[test]
    fn repeated_sessions_share_and_warm() {
        let h = generators::cycle(4);
        let s1 = global().session(&h);
        assert!(s1.is_shared());
        let c1 = s1.cache::<u32, u32>("test-slot-a");
        c1.complete(7, 9);
        let s2 = global().session(&h);
        let c2 = s2.cache::<u32, u32>("test-slot-a");
        assert_eq!(c2.get(&7), Some(9), "second session sees cached prices");
    }

    #[test]
    fn fresh_sessions_are_private() {
        let h = generators::cycle(5);
        let s1 = PriceSession::fresh();
        let c1 = s1.cache::<u32, u32>("test-slot-b");
        c1.complete(1, 2);
        let s2 = PriceSession::fresh();
        let c2 = s2.cache::<u32, u32>("test-slot-b");
        assert_eq!(c2.get(&1), None);
        let _ = &h;
    }

    #[test]
    fn lru_evicts_least_recently_used_variant_under_byte_pressure() {
        let reg = private(2_000);
        let h1 = generators::path(3);
        let h2 = generators::cycle(4);
        let h3 = generators::star(4);
        // Register h1 and h2 and give each a slot worth ~1.5k bytes (the
        // sharding skeleton alone is most of it).
        reg.session(&h1).cache::<u32, u32>("t").complete(1, 1);
        reg.session(&h2).cache::<u32, u32>("t").complete(2, 2);
        assert_eq!(reg.len(), 2);
        // Touch h1 so h2 is the LRU victim, then open h3: the sweep must
        // evict h2 (and possibly h1), never the just-opened h3.
        let s1 = reg.session(&h1);
        assert!(s1.is_shared());
        let s3 = reg.session(&h3);
        assert!(s3.is_shared());
        let survivors = reg.len();
        assert!(survivors <= 2, "budget forces eviction, kept {survivors}");
        // h2 was evicted: a new session starts from an empty slot.
        let c2 = reg.session(&h2).cache::<u32, u32>("t");
        assert_eq!(c2.get(&2), None, "evicted variant lost its entries");
    }

    #[test]
    fn sweep_never_evicts_the_just_opened_session() {
        let reg = private(0); // everything is over budget
        let h = generators::path(4);
        reg.session(&h).cache::<u32, u32>("t").complete(1, 1);
        // Reopening under a zero budget keeps the reopened variant alive
        // for this session even though it exceeds the budget.
        let s = reg.session(&h);
        assert!(s.is_shared());
        assert_eq!(s.cache::<u32, u32>("t").get(&1), Some(1));
    }

    #[test]
    fn double_collision_gets_a_fresh_private_session() {
        let reg = private(1 << 20);
        let h = generators::path(3);
        reg.session(&h).cache::<u32, u32>("t").complete(1, 1);
        // Forge a double collision: the resident variant keeps its key
        // (fingerprint and secondary hash) but holds another structure.
        for v in reg.inner.lock().unwrap().variants.values_mut() {
            v.canon.push(0);
        }
        let s = reg.session(&h);
        assert!(!s.is_shared(), "a double collision never shares");
        assert_eq!(s.cache::<u32, u32>("t").get(&1), None);
        assert_eq!(reg.len(), 1, "the resident variant stays");
    }

    /// The registry against a naive reference: a `Vec` LRU (least recent
    /// first) that re-sums every resident variant on each open, over
    /// several hundred instances, a budget holding a few dozen, and a
    /// deterministic mix of opens, slot checkouts and completions.
    #[test]
    fn registry_matches_a_naive_vec_lru_model() {
        type Prices = Arc<ShardedCache<u32, u32>>;
        type Lists = Arc<ShardedCache<u32, Vec<u32>>>;
        /// The model's view of one resident variant: the caches checked
        /// out of it so far and their size as of the last sweep.
        #[derive(Default)]
        struct Model {
            prices: Option<Prices>,
            lists: Option<Lists>,
            bytes: usize,
        }
        impl Model {
            fn measure(&self) -> usize {
                self.prices.as_ref().map_or(0, |c| c.approx_bytes())
                    + self.lists.as_ref().map_or(0, |c| c.approx_bytes())
            }
        }

        const INSTANCES: usize = 300;
        let reg = private(48 << 10);
        let graphs: Vec<Hypergraph> = (0..INSTANCES).map(|i| generators::path(i + 2)).collect();
        let keys: Vec<Key> = graphs
            .iter()
            .map(|h| {
                let canon = canonical_form(h);
                (fingerprint_of_canon(&canon).0, secondary_hash(&canon))
            })
            .collect();
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), INSTANCES);

        let mut order: Vec<usize> = Vec::new();
        let mut model: HashMap<usize, Model> = HashMap::new();
        let mut dirty: HashSet<usize> = HashSet::new();
        let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move |bound: usize| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % bound as u64) as usize
        };
        let mut evictions = 0;
        for step in 0..3_000 {
            // Skewed toward low indices, so hits mix with evicting misses.
            let i = next(INSTANCES) * next(INSTANCES) / INSTANCES;
            let before: HashSet<Key> = reg.inner.lock().unwrap().variants.keys().copied().collect();
            let session = reg.session(&graphs[i]);
            assert!(session.is_shared());

            // Model open: touch, re-measure dirty, evict from the front.
            order.retain(|&j| j != i);
            order.push(i);
            model.entry(i).or_default();
            for j in std::mem::take(&mut dirty) {
                let m = model.get_mut(&j).expect("dirty variants are resident");
                m.bytes = m.measure();
            }
            let mut total: usize = order.iter().map(|j| model[j].bytes).sum();
            let mut victims = HashSet::new();
            while total > reg.budget && order[0] != i {
                let j = order.remove(0);
                total -= model.remove(&j).expect("ordered is resident").bytes;
                victims.insert(keys[j]);
            }
            evictions += victims.len();

            {
                let inner = reg.inner.lock().unwrap();
                let lru: Vec<Key> = inner.order.values().copied().collect();
                let expected: Vec<Key> = order.iter().map(|&j| keys[j]).collect();
                assert_eq!(lru, expected, "LRU order diverged at step {step}");
                let after: HashSet<Key> = inner.variants.keys().copied().collect();
                let evicted: HashSet<Key> = before.difference(&after).copied().collect();
                assert_eq!(evicted, victims, "eviction victims diverged at step {step}");
                assert!(after.contains(&keys[i]), "just-opened variant evicted");
                for (k, v) in &inner.variants {
                    assert_eq!(inner.order.get(&v.tick), Some(k), "tick out of order");
                }
            }
            let fresh: usize = order.iter().map(|j| model[j].measure()).sum();
            assert_eq!(reg.approx_bytes(), fresh, "running total at step {step}");
            assert_eq!(reg.len(), order.len());

            // Slot checkouts (marking the variant dirty) and completions.
            let m = model.get_mut(&i).expect("just opened");
            let op = next(4);
            if op >= 1 {
                let c: Prices = session.cache("prices");
                if let Some(old) = &m.prices {
                    assert!(Arc::ptr_eq(old, &c), "resident slot was replaced");
                }
                let completions = if op >= 2 { next(40) as u32 } else { 0 };
                for k in 0..completions {
                    c.complete(k, k);
                }
                m.prices = Some(c);
                dirty.insert(i);
            }
            if op == 3 {
                let c: Lists = session.cache("lists");
                c.complete(step as u32, vec![0; next(64)]);
                m.lists = Some(c);
            }
        }
        assert!(evictions > 1_000, "the budget kept evicting ({evictions})");
    }

    #[test]
    fn cached_query_replays_results_and_counts_hits() {
        let h = generators::cycle(6);
        let mut runs = 0;
        let (v1, s1) = cached_query(&h, "test-result-slot", "k=2".into(), true, || {
            runs += 1;
            let stats = SearchStats {
                states: 5,
                ..SearchStats::default()
            };
            (41_u32, stats)
        });
        assert_eq!((v1, s1.result_cache_hits), (41, 0));
        let (v2, s2) = cached_query(&h, "test-result-slot", "k=2".into(), true, || {
            runs += 1;
            (0_u32, SearchStats::default())
        });
        assert_eq!(runs, 1, "second identical query never ran");
        assert_eq!(v2, 41);
        assert_eq!(s2.result_cache_hits, 1);
        assert_eq!(s2.states, 5, "stored engine counters replayed");
        // A different key is a different query.
        let (v3, _) = cached_query(&h, "test-result-slot", "k=3".into(), true, || {
            runs += 1;
            (7_u32, SearchStats::default())
        });
        assert_eq!((runs, v3), (2, 7));
        // Reuse off bypasses the cache entirely.
        let (v4, s4) = cached_query(&h, "test-result-slot", "k=2".into(), false, || {
            runs += 1;
            (13_u32, SearchStats::default())
        });
        assert_eq!((runs, v4, s4.result_cache_hits), (3, 13, 0));
    }

    #[test]
    fn inflight_duplicate_queries_park_and_dedup() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let h = generators::cycle(7);
        let started = AtomicBool::new(false);
        std::thread::scope(|s| {
            let owner = s.spawn(|| {
                cached_query(&h, "test-dedup-slot", "q".into(), true, || {
                    started.store(true, Ordering::SeqCst);
                    // Hold the Pending claim long enough for the duplicate
                    // query on the main thread to park on it.
                    std::thread::sleep(std::time::Duration::from_millis(100));
                    let stats = SearchStats {
                        states: 3,
                        ..SearchStats::default()
                    };
                    (99_u32, stats)
                })
            });
            while !started.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            let (v, stats) = cached_query::<u32>(&h, "test-dedup-slot", "q".into(), true, || {
                unreachable!("the duplicate must adopt the in-flight answer")
            });
            let (vo, so) = owner.join().expect("owner completes");
            assert_eq!((vo, so.result_cache_hits), (99, 0), "one search ran");
            assert_eq!(v, 99, "waiter adopted the owner's answer");
            assert_eq!(stats.result_cache_hits, 1);
            assert_eq!(stats.inflight_dedup, 1, "the duplicate parked in flight");
            assert_eq!(stats.states, 3, "owner's engine counters replayed");
        });
    }

    #[test]
    fn cached_query_abandons_on_panic() {
        let h = generators::grid(2, 2);
        let attempt = std::panic::catch_unwind(|| {
            cached_query::<u32>(&h, "test-panic-slot", "x".into(), true, || {
                panic!("search blew up")
            })
        });
        assert!(attempt.is_err());
        // The claim was abandoned, not left Pending: a retry runs and
        // completes instead of parking forever.
        let (v, _) = cached_query(&h, "test-panic-slot", "x".into(), true, || {
            (3_u32, SearchStats::default())
        });
        assert_eq!(v, 3);
    }
}
