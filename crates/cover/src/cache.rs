//! Concurrent, sharded memo tables with in-flight entry states.
//!
//! The exact width searches price the *same* bag over and over: subset bags
//! repeat across `(component, connector)` states, and the strict-HD search
//! re-prices separators both while checking `ρ*(H_λ) <= k` and while
//! building the witness. Pricing (branch-and-bound set cover for `ρ`, an
//! exact-rational LP for `ρ*`) dominates those searches, so every strategy
//! routes its prices through one of these caches — and the `solver` engine
//! uses the same table for its `(component, connector)` memo.
//!
//! Every entry is in one of two states: **`Pending`** (some thread claimed
//! the key and is computing it) or **`Done`** (the value is available). A
//! thread that hits a `Pending` key parks on the shard's condvar until the
//! owner [`ShardedCache::complete`]s (the wait returns the value — the key
//! was computed exactly once) or [`ShardedCache::abandon`]s (the waiter
//! re-claims and computes it itself). This in-flight dedup is what makes
//! the hit/miss counters deterministic under concurrency: each distinct key
//! is charged exactly one miss — the claim that ends up computing it — and
//! every other lookup is a hit, regardless of thread interleaving. (The
//! pre-entry-state version let two racing threads both price a fresh key,
//! double-counting the miss and duplicating the work.)
//!
//! [`ShardedCache`] is deliberately generic over key and value — the subset
//! strategies key on the bag [`VertexSet`], the strict-HD search keys on
//! the sorted separator edge list, the search engine on its memo key — and
//! keeps hit/miss counters that the strategy wrappers surface as
//! `SearchStats::price_hits` / `price_misses`.

use crate::{FractionalCover, IntegralCover};
use arith::Rational;
use hypergraph::fx::{FxHashMap, FxHasher};
use hypergraph::{Hypergraph, VertexSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Number of shards (power of two). Sized so that the engine's worker
/// threads rarely contend on one lock.
const SHARDS: usize = 32;

/// Entry state: claimed-but-computing, or computed.
enum Slot<V> {
    /// A thread claimed the key and is computing the value; arrivals park
    /// on the shard condvar.
    Pending,
    /// The computed value.
    Done(V),
}

/// One shard: the map plus the condvar `Pending` waiters park on. The
/// condvar is per shard, not per entry — completions are broadcast and
/// waiters re-check their own key, which keeps the entries allocation-free.
/// `waiters` (maintained under the map lock) lets the uncontended
/// completion path skip the notify entirely.
struct Shard<K, V> {
    map: Mutex<FxHashMap<K, Slot<V>>>,
    resolved: Condvar,
    waiters: AtomicUsize,
}

impl<K, V> Shard<K, V> {
    /// Wakes parked waiters, if any (the common case — no thread ever
    /// parked on this shard — costs one relaxed load).
    fn wake(&self) {
        if self.waiters.load(Ordering::Relaxed) > 0 {
            self.resolved.notify_all();
        }
    }
}

/// Outcome of [`ShardedCache::claim`].
pub enum Claim<V> {
    /// The key was vacant and is now `Pending` under this caller, who must
    /// [`ShardedCache::complete`] it (or [`ShardedCache::abandon`] it on a
    /// non-completing exit) — every other thread parks on it until then.
    Owner,
    /// The value, computed by this or another thread (the call blocks
    /// through a `Pending` entry rather than duplicating the work).
    Hit(V),
}

/// A thread-safe memo table: `K -> V` behind `SHARDS` mutexes, with
/// in-flight entry states and hit/miss counters. Computation always runs
/// *outside* the shard lock, so a slow LP on one bag never blocks lookups
/// of other bags in the same shard.
pub struct ShardedCache<K, V> {
    shards: Vec<Shard<K, V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        ShardedCache {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    map: Mutex::new(FxHashMap::default()),
                    resolved: Condvar::new(),
                    waiters: AtomicUsize::new(0),
                })
                .collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let mut hasher = FxHasher::default();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) & (SHARDS - 1)]
    }

    /// Claims `key`: the caller either becomes the entry's owner (counted
    /// as the key's one miss) or gets the value (counted as a hit),
    /// parking through any in-flight `Pending` state. If the in-flight
    /// owner abandons, one parked waiter is promoted to owner.
    pub fn claim(&self, key: &K) -> Claim<V>
    where
        K: Clone,
    {
        self.claim_tracking_wait(key).0
    }

    /// As [`ShardedCache::claim`], also reporting whether the caller
    /// parked on an in-flight `Pending` entry before resolving — i.e.
    /// whether this lookup deduplicated against a computation that was
    /// already running. The whole-query result cache surfaces this as the
    /// `inflight_dedup` counter.
    pub fn claim_tracking_wait(&self, key: &K) -> (Claim<V>, bool)
    where
        K: Clone,
    {
        let shard = self.shard(key);
        let mut map = shard.map.lock().expect("cache poisoned");
        let mut waited = false;
        loop {
            match map.get(key) {
                Some(Slot::Done(v)) => {
                    let v = v.clone();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Claim::Hit(v), waited);
                }
                Some(Slot::Pending) => {
                    waited = true;
                    shard.waiters.fetch_add(1, Ordering::Relaxed);
                    map = shard.resolved.wait(map).expect("cache poisoned");
                    shard.waiters.fetch_sub(1, Ordering::Relaxed);
                }
                None => {
                    map.insert(key.clone(), Slot::Pending);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return (Claim::Owner, waited);
                }
            }
        }
    }

    /// Resolves a claim (or unconditionally stores a value computed
    /// elsewhere) and wakes every thread parked on the entry.
    pub fn complete(&self, key: K, value: V) {
        let shard = self.shard(&key);
        shard
            .map
            .lock()
            .expect("cache poisoned")
            .insert(key, Slot::Done(value));
        shard.wake();
    }

    /// Releases a `Pending` claim without a value (the owner was canceled
    /// or is unwinding): the entry reverts to vacant and parked waiters
    /// race to re-claim it. A no-op on `Done` or vacant entries.
    pub fn abandon(&self, key: &K) {
        let shard = self.shard(key);
        let mut map = shard.map.lock().expect("cache poisoned");
        if matches!(map.get(key), Some(Slot::Pending)) {
            map.remove(key);
        }
        drop(map);
        shard.wake();
    }

    /// The cached value for `key`, if present, parking through any
    /// in-flight `Pending` state (an abandoned claim reads as absent).
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard(key);
        let mut map = shard.map.lock().expect("cache poisoned");
        loop {
            match map.get(key) {
                Some(Slot::Done(v)) => {
                    let v = v.clone();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Some(v);
                }
                Some(Slot::Pending) => {
                    shard.waiters.fetch_add(1, Ordering::Relaxed);
                    map = shard.resolved.wait(map).expect("cache poisoned");
                    shard.waiters.fetch_sub(1, Ordering::Relaxed);
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return None;
                }
            }
        }
    }

    /// Inserts a value computed elsewhere (e.g. after a bound-gated skip
    /// turned into a real price). Equivalent to [`ShardedCache::complete`].
    pub fn insert(&self, key: K, value: V) {
        self.complete(key, value);
    }

    /// The cached value for `key`, computing it with `price` on a miss.
    /// The closure runs without holding the shard lock, and each distinct
    /// key is priced exactly once: concurrent callers of a fresh key park
    /// until the first finishes (if it panics, a parked caller is promoted
    /// and re-prices).
    pub fn get_or_insert_with(&self, key: &K, price: impl FnOnce() -> V) -> V
    where
        K: Clone,
    {
        match self.claim(key) {
            Claim::Hit(v) => v,
            Claim::Owner => {
                // Abandon on unwind so a panicking pricing closure cannot
                // strand waiters on a Pending entry forever.
                let guard = AbandonGuard {
                    cache: self,
                    key: Some(key),
                };
                let value = price();
                guard.disarm();
                self.complete(key.clone(), value.clone());
                value
            }
        }
    }

    /// `(hits, misses)` so far. With the entry-state protocol these are
    /// deterministic at any thread count: one miss per computed key, one
    /// hit per other lookup.
    pub fn counters(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached (`Done`) entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.map
                    .lock()
                    .expect("cache poisoned")
                    .values()
                    .filter(|slot| matches!(slot, Slot::Done(_)))
                    .count()
            })
            .sum()
    }

    /// True iff nothing has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash + crate::MemSize, V: Clone + crate::MemSize> ShardedCache<K, V> {
    /// Approximate resident bytes of the whole table: per-entry key/value
    /// estimates plus a flat per-entry map overhead, over the sharding
    /// skeleton. Feeds the registry's shared LRU byte budget.
    pub fn approx_bytes(&self) -> usize {
        // Hash-map bucket + slot-enum overhead per entry, beyond the
        // key/value payloads themselves.
        const ENTRY_OVERHEAD: usize = 48;
        let mut total = SHARDS * std::mem::size_of::<Shard<K, V>>();
        for shard in &self.shards {
            let map = shard.map.lock().expect("cache poisoned");
            for (k, slot) in map.iter() {
                total += ENTRY_OVERHEAD + k.approx_bytes();
                if let Slot::Done(v) = slot {
                    total += v.approx_bytes();
                }
            }
        }
        total
    }
}

/// Releases a claim on unwind unless disarmed (the happy path completes
/// the entry instead).
struct AbandonGuard<'c, K: Eq + Hash, V: Clone> {
    cache: &'c ShardedCache<K, V>,
    key: Option<&'c K>,
}

impl<K: Eq + Hash, V: Clone> AbandonGuard<'_, K, V> {
    fn disarm(mut self) {
        self.key = None;
    }
}

impl<K: Eq + Hash, V: Clone> Drop for AbandonGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.cache.abandon(key);
        }
    }
}

impl<K: Eq + Hash, V: Clone> Default for ShardedCache<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// A priced integral cover: `(ρ(bag), minimum cover edges)`; `None` when
/// the bag is uncoverable.
pub type PricedRho = Option<(usize, Vec<usize>)>;

/// A priced fractional cover: `(ρ*(bag), sparse optimal weights)`; `None`
/// when the bag is uncoverable.
pub type PricedRhoStar = Option<(Rational, Vec<(usize, Rational)>)>;

/// Shared `ρ` price cache, keyed by the bag.
pub type RhoCache = ShardedCache<VertexSet, PricedRho>;

/// Shared `ρ*` price cache, keyed by the bag.
pub type RhoStarCache = ShardedCache<VertexSet, PricedRhoStar>;

/// `ρ(bag)` with its minimum cover, through the shared cache.
pub fn rho_priced(h: &Hypergraph, bag: &VertexSet, cache: &RhoCache) -> PricedRho {
    cache.get_or_insert_with(bag, || {
        // The span covers only the miss path: a cache hit does no
        // pricing work worth a record.
        let _span = obs::span!("price", kind = "rho", bag = bag.len());
        crate::integral_cover(h, bag).map(|c: IntegralCover| (c.weight(), c.edges))
    })
}

/// `ρ*(bag)` with its sparse optimal weights, through the shared cache.
pub fn rho_star_priced(h: &Hypergraph, bag: &VertexSet, cache: &RhoStarCache) -> PricedRhoStar {
    cache.get_or_insert_with(bag, || {
        let _span = obs::span!("price", kind = "rho_star", bag = bag.len());
        crate::fractional_cover(h, bag).map(|c: FractionalCover| {
            let weights: Vec<(usize, Rational)> = c
                .weights
                .into_iter()
                .enumerate()
                .filter(|(_, w)| !w.is_zero())
                .collect();
            (c.weight, weights)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use hypergraph::generators;

    #[test]
    fn prices_each_bag_once() {
        let h = generators::cycle(3);
        let cache = RhoStarCache::new();
        let bag = h.all_vertices();
        let first = rho_star_priced(&h, &bag, &cache).expect("coverable");
        assert_eq!(first.0, rat(3, 2));
        let again = rho_star_priced(&h, &bag, &cache).expect("coverable");
        assert_eq!(first, again);
        let (hits, misses) = cache.counters();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn integral_prices_agree_with_direct_covers() {
        let h = generators::clique(5);
        let cache = RhoCache::new();
        let bag = h.all_vertices();
        let (w, edges) = rho_priced(&h, &bag, &cache).expect("coverable");
        assert_eq!(w, 3);
        assert_eq!(edges.len(), 3);
        let direct = crate::integral_cover(&h, &bag).expect("coverable");
        assert_eq!(direct.weight(), w);
    }

    #[test]
    fn uncoverable_bags_cache_their_failure() {
        let h = hypergraph::Hypergraph::from_edges(3, vec![vec![0, 1]]);
        let cache = RhoStarCache::new();
        let bag = VertexSet::from_iter([2]);
        assert_eq!(rho_star_priced(&h, &bag, &cache), None);
        assert_eq!(rho_star_priced(&h, &bag, &cache), None);
        assert_eq!(cache.counters(), (1, 1));
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let h = generators::clique(4);
        let cache = RhoStarCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for v in 0..h.num_vertices() {
                        let mut bag = h.all_vertices();
                        bag.remove(v);
                        let (w, _) = rho_star_priced(&h, &bag, &cache).expect("coverable");
                        assert_eq!(w, rat(3, 2));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn claim_then_complete_resolves_waiters() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        assert!(matches!(cache.claim(&7), Claim::Owner));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match cache.claim(&7) {
                Claim::Hit(v) => v,
                Claim::Owner => panic!("key is pending under the main thread"),
            });
            // The waiter parks on the Pending entry until the owner
            // completes; completion hands it the value.
            cache.complete(7, 42);
            assert_eq!(waiter.join().expect("waiter"), 42);
        });
        assert_eq!(cache.get(&7), Some(42));
        // One miss (the claim that computed), two hits (waiter + get).
        assert_eq!(cache.counters(), (2, 1));
    }

    #[test]
    fn abandon_promotes_a_waiter_to_owner() {
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        assert!(matches!(cache.claim(&3), Claim::Owner));
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| match cache.claim(&3) {
                Claim::Owner => {
                    cache.complete(3, 9);
                    true
                }
                Claim::Hit(_) => false,
            });
            cache.abandon(&3);
            assert!(waiter.join().expect("waiter"), "waiter re-claims");
        });
        assert_eq!(cache.get(&3), Some(9));
    }

    #[test]
    fn racing_computations_charge_one_miss_per_key() {
        // The counter-determinism contract: however many threads race into
        // one fresh key, exactly one miss is charged and the value is
        // computed once.
        let cache: ShardedCache<u32, u32> = ShardedCache::new();
        let computed = AtomicUsize::new(0);
        let workers = 8;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let v = cache.get_or_insert_with(&11, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        23
                    });
                    assert_eq!(v, 23);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "priced exactly once");
        let (hits, misses) = cache.counters();
        assert_eq!(misses, 1);
        assert_eq!(hits, workers - 1);
    }
}
