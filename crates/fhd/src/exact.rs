//! Exact `fhw` baseline, expressed as a minimizing strategy over the shared
//! [`solver`] engine, with candidate bags priced by the fractional edge
//! cover number `rho*(B)` (computed by exact LP). Widths are exact
//! rationals — e.g. `fhw(C3) = 3/2` comes out as the literal fraction.
//!
//! Candidate generation is hybrid: the `candgen` edge-union stream runs
//! first (component-restricted unions of at most `⌈ub⌉` edges — the bags
//! of bag-maximal GHD normal form, which are usually where cheap
//! fractional covers live), then the subset stream completes the space.
//! Unlike the integral case, *fractional* covers do not normalize to
//! unions of few edges (a bag's `B(γ)` can be a strict subset of
//! `⋃ supp(γ)`), so the subset tail is what keeps the search exact — the
//! edge-union prefix only front-loads good candidates so the
//! witness-backed heuristic bound `ub` and the engine's pre-pricing gates
//! prune the tail hard. A search failing at the seeded cutoff *is* the
//! exact answer `ub`. Pieces beyond the subset range fall back to the
//! elimination DP (its cutoff also seeded by `ub`), and the subset-only
//! path survives as [`fhw_exact_subset_oracle`].

use arith::Rational;
use cover::{PricingContext, PricingPool, RhoStarCache};
use decomp::Decomposition;
use hypergraph::{properties, Hypergraph, VertexSet};
use solver::{
    Admission, CandidateStream, EngineOptions, Guess, SearchContext, SearchState, SearchStats,
    WidthSolver,
};
use std::sync::Arc;

/// Edge-union feasibility cap for the hybrid prefix (shared with the
/// `ghw` engine through `candgen`): when the per-state enumeration would
/// exceed this many unions the prefix is skipped (the subset tail alone
/// is the old, still-exact behavior).
const CANDGEN_STREAM_CAP: u64 = candgen::DEFAULT_STREAM_CAP;

/// Minimum piece size for the candgen apparatus (heuristic seed and
/// edge-union prefix): below this the subset space is at most `2^8` bags
/// and the plain engine beats any seeding or reordering overhead.
const PREFIX_MIN_VERTICES: usize = 9;

/// Computes `fhw(H)` exactly together with an optimal FHD.
///
/// Pieces up to [`solver::MAX_SUBSET_SEARCH_VERTICES`] vertices run on
/// the shared-engine hybrid search; between that and
/// [`ghd::elimination::MAX_EXACT_VERTICES`] vertices the elimination-order
/// DP answers (seeded with the heuristic upper bound). Returns `None` when
/// a piece is larger still, `H` has isolated vertices, or `cutoff` is
/// given and `fhw(H) >= cutoff`.
pub fn fhw_exact(h: &Hypergraph, cutoff: Option<Rational>) -> Option<(Rational, Decomposition)> {
    fhw_exact_with_stats(h, cutoff, EngineOptions::default()).0
}

/// As [`fhw_exact`], also reporting engine, LP price-cache and
/// candidate-generation counters (engine counters are zero when the
/// elimination-DP fallback answered). `opts` pins the engine scheduling;
/// width, witness and stats are identical at every thread count (the
/// determinism tests compare them).
///
/// Unless opted out (`opts.prep` / `HGTOOL_NO_PREP`), the instance first
/// runs through `prep`'s minimizer pipeline: GYO-style simplification plus
/// biconnected-block splitting, each block solved independently (candidate
/// generation and the heuristic bound run per block), the width combined
/// as the maximum and the witness lifted back to `h`. With
/// `opts.reuse_prices` the `ρ*` LP prices are shared process-wide across
/// calls keyed by each block's fingerprint.
pub fn fhw_exact_with_stats(
    h: &Hypergraph,
    cutoff: Option<Rational>,
    opts: EngineOptions,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    let _span = obs::span!(
        "solve",
        measure = "fhw",
        vertices = h.num_vertices(),
        edges = h.num_edges()
    );
    let started = std::time::Instant::now();
    let key = format!(
        "cutoff={cutoff:?};prep={};rp={};backend=auto",
        opts.prep, opts.reuse_prices
    );
    let (result, stats) = prep::cached_query(h, "result-fhw", key, opts.reuse_results, || {
        prep::run_minimizer(h, opts.prep, |block| fhw_piece(block, cutoff.clone(), opts))
    });
    solve_metrics::latency().observe_us(started.elapsed().as_micros() as u64);
    (result, stats)
}

/// Process-lifetime solve metrics, observational only.
mod solve_metrics {
    use obs::metrics::{histogram_with_buckets, Histogram, DEFAULT_LATENCY_BUCKETS_S};
    use std::sync::{Arc, OnceLock};

    /// `hgtool_solve_latency_seconds{strategy="fhw"}`.
    pub(super) fn latency() -> &'static Arc<Histogram> {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| {
            // Explicit bucket config: the µs-scale default grid,
            // spelled out here so re-tuning is a one-line change.
            histogram_with_buckets(
                "hgtool_solve_latency_seconds",
                "End-to-end exact width-solve latency by strategy",
                &[("strategy", "fhw")],
                &DEFAULT_LATENCY_BUCKETS_S,
            )
        })
    }
}

/// Computes `fhw(H)` via the elimination-order DP alone (no engine
/// search): every preprocessed block must fit
/// [`ghd::elimination::MAX_EXACT_VERTICES`], else the whole call returns
/// `None`. This is the portfolio's `elim` backend; on mid-size instances
/// whose subset space stalls the engine, the DP's `n^2 · 2^n` schedule is
/// the faster exact path.
pub fn fhw_exact_elimination_with_stats(
    h: &Hypergraph,
    cutoff: Option<Rational>,
    opts: EngineOptions,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    let key = format!(
        "cutoff={cutoff:?};prep={};rp={};backend=elim",
        opts.prep, opts.reuse_prices
    );
    prep::cached_query(h, "result-fhw", key, opts.reuse_results, || {
        prep::run_minimizer(h, opts.prep, |block| {
            if block.num_vertices() > ghd::elimination::MAX_EXACT_VERTICES {
                return (None, SearchStats::default());
            }
            let mut stats = SearchStats::default();
            let result = fhw_by_elimination(block, cutoff.clone(), &mut stats);
            (result, stats)
        })
    })
}

/// Computes the heuristic upper bound on `fhw(H)` (min-degree / min-fill
/// elimination orderings plus local search, bags priced by `ρ*`) together
/// with its witness FHD — no exact search. This is the bound that seeds
/// [`fhw_exact`]'s cutoff; `hgtool widths --heuristic-only` surfaces it
/// directly. Returns `None` only for empty or isolated-vertex inputs.
pub fn fhw_upper_bound(h: &Hypergraph) -> Option<(Rational, Decomposition)> {
    fhw_upper_bound_with_stats(h, EngineOptions::default()).0
}

/// As [`fhw_upper_bound`] with explicit options (preprocessing still
/// applies: bounds are computed per reduced block and the witness is
/// stitched and lifted like any exact result).
pub fn fhw_upper_bound_with_stats(
    h: &Hypergraph,
    opts: EngineOptions,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    if h.num_vertices() == 0 || h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    prep::run_minimizer(h, opts.prep, |block| {
        let mut ctx = PricingContext::new();
        let (ub, d) = candgen::upper_bound(block, rho_star_price(block, &mut ctx));
        let lp = ctx.stats();
        let stats = SearchStats {
            ub_width: Some(ub.clone()),
            lp_pivots: lp.pivots,
            lp_warm_starts: lp.warm_starts,
            lp_cold_solves: lp.cold_solves,
            ..SearchStats::default()
        };
        (Some((ub, d)), stats)
    })
}

/// The subset-bag cross-check oracle: the pre-candgen search proposing
/// every bag `conn ⊆ B ⊆ conn ∪ C`, kept as an independent certification
/// path for the hybrid engine (routine use up to
/// [`solver::MAX_SUBSET_ORACLE_VERTICES`] vertices; hard-gated at
/// [`solver::MAX_SUBSET_SEARCH_VERTICES`]). Runs without preprocessing or
/// heuristic seeding.
pub fn fhw_exact_subset_oracle(
    h: &Hypergraph,
    cutoff: Option<Rational>,
) -> Option<(Rational, Decomposition)> {
    if h.has_isolated_vertices() || h.num_vertices() > solver::MAX_SUBSET_SEARCH_VERTICES {
        return None;
    }
    let session = prep::SessionCache::open(h, "fhw-rho-star", false);
    let strategy = Arc::new(FhwSearch::new(
        h,
        cutoff,
        Arc::clone(&session.cache),
        BagMode::Subset,
    ));
    let cx = SearchContext::with_options(EngineOptions::sequential());
    cx.run(h, &strategy)
}

/// The `ρ*` bag pricer shared by the heuristic bound and its tests. The
/// elimination orderings walk neighboring bags, so the context carries
/// each solve's basis into the next (warm starts) — valid here because the
/// heuristic is strictly sequential and its bag order deterministic.
fn rho_star_price<'a>(
    h: &'a Hypergraph,
    ctx: &'a mut PricingContext,
) -> impl FnMut(&VertexSet) -> candgen::PricedBag<Rational> + 'a {
    |bag| {
        ctx.price_warm(h, bag)
            .expect("no isolated vertices, so every bag is coverable")
    }
}

/// Solves one (already preprocessed) piece: heuristic upper bound first,
/// then the hybrid engine under the seeded cutoff when the piece fits the
/// subset range, the elimination DP in the window above it, `None`
/// beyond.
fn fhw_piece(
    h: &Hypergraph,
    cutoff: Option<Rational>,
    opts: EngineOptions,
) -> (Option<(Rational, Decomposition)>, SearchStats) {
    // Tiny pieces skip the candgen apparatus entirely: with at most
    // `2^8` subset bags the plain engine is already optimal, and the
    // heuristic seed (let alone the prefix) cannot pay for its own
    // computation. This keeps the toy-corpus fhw columns at their
    // pre-candgen timings exactly.
    if h.num_vertices() < PREFIX_MIN_VERTICES {
        let session = prep::SessionCache::open(h, "fhw-rho-star", opts.reuse_prices);
        let strategy = Arc::new(FhwSearch::new(
            h,
            cutoff,
            Arc::clone(&session.cache),
            BagMode::Subset,
        ));
        let cx = SearchContext::with_options(opts);
        let result = cx.run(h, &strategy).map(|(w, d)| {
            debug_assert!(d.width() <= w);
            (w, d)
        });
        let mut stats = cx.stats();
        (stats.price_hits, stats.price_misses) = session.deltas();
        merge_lp(&mut stats, strategy.pool.stats());
        return (result, stats);
    }
    // The seed is the *integral* (`ρ`-priced) heuristic bound: since
    // `fhw <= ghw`, its witness — integral weights are a valid fractional
    // cover — upper-bounds `fhw` too, and branch-and-bound covers cost
    // microseconds where the `ρ*` LPs cost milliseconds (the LP-tight
    // bound is still available separately via [`fhw_upper_bound`]). A
    // looser seed only delays the gates; exactness never depends on it.
    let (ub_int, ub_witness) = candgen::upper_bound(h, |bag| {
        let c =
            cover::integral_cover(h, bag).expect("no isolated vertices, so every bag is coverable");
        let weight = c.weight();
        (
            weight,
            c.edges.into_iter().map(|e| (e, Rational::one())).collect(),
        )
    });
    let ub = Rational::from(ub_int);
    if let Some(sink) = prep::anytime::current_sink() {
        // Anytime channel: the witnessed heuristic bound is this piece's
        // first upper bound (`fhw <= ghw`, and integral weights are a
        // valid fractional cover), streamed before the search starts.
        sink.report_upper(ub.clone(), Some(&ub_witness));
    }
    let seeded = cutoff.as_ref().is_none_or(|c| ub < *c);
    let eff = if seeded {
        ub.clone()
    } else {
        cutoff.expect("unseeded")
    };
    let mut stats = SearchStats {
        ub_width: Some(ub.clone()),
        ..SearchStats::default()
    };
    let searched = if eff <= Rational::one() {
        // Every nonempty bag costs rho* >= 1, so nothing beats eff <= 1:
        // the trivial search already failed.
        Some(None)
    } else if h.num_vertices() <= solver::MAX_SUBSET_SEARCH_VERTICES {
        // Edge-union prefix budget: `⌈eff⌉` edges (where integral-cover
        // normal forms live); completeness comes from the subset tail, so
        // the prefix is skipped outright (budget 0) whenever it would not
        // pay — on small subset spaces (the prefix is pure reordering
        // there, and the tail's smallest-first discipline is already
        // good) and whenever its union count rivals the subset space
        // itself (dense instances like cliques) or the feasibility cap.
        let subset_space = 1u64
            .checked_shl(h.num_vertices() as u32)
            .unwrap_or(u64::MAX);
        let prefix_cap = (CANDGEN_STREAM_CAP.min(subset_space)) / 4;
        let budget = if h.num_vertices() >= PREFIX_MIN_VERTICES {
            let b = eff.ceil().to_i64().unwrap_or(0).max(0) as usize;
            if candgen::stream_size_bound(h.num_edges(), b, prefix_cap) < prefix_cap {
                b
            } else {
                0
            }
        } else {
            0
        };
        let session = prep::SessionCache::open(h, "fhw-rho-star", opts.reuse_prices);
        let strategy = Arc::new(FhwSearch::new(
            h,
            Some(eff),
            Arc::clone(&session.cache),
            BagMode::Hybrid(
                // The subset tail completes the space, so the prefix can
                // take the adaptive per-state cap: states whose union
                // bound outgrows their own subset space skip straight to
                // the tail (counted as `cand_cap_hits`).
                candgen::EdgeUnionConfig::with_budget(budget)
                    .with_per_state_cap(CANDGEN_STREAM_CAP),
            ),
        ));
        let cx = SearchContext::with_options(opts);
        let result = cx.run(h, &strategy);
        let engine = cx.stats();
        stats.merge(&engine);
        (stats.price_hits, stats.price_misses) = session.deltas();
        stats.cand_generated = strategy.counters.generated();
        stats.cand_filtered = strategy.counters.filtered();
        stats.cand_cap_hits = strategy.counters.cap_hits();
        merge_lp(&mut stats, strategy.pool.stats());
        Some(result)
    } else if h.num_vertices() <= ghd::elimination::MAX_EXACT_VERTICES {
        Some(fhw_by_elimination(h, Some(eff), &mut stats))
    } else {
        None
    };
    let result = match searched {
        Some(Some((w, d))) => {
            debug_assert!(d.width() <= w);
            Some((w, d))
        }
        // The search below `eff` is complete, so failing it pins the width
        // to exactly `ub` when the cutoff was ours.
        Some(None) if seeded => {
            debug_assert!(ub_witness.width() <= ub);
            Some((ub, ub_witness))
        }
        _ => None,
    };
    (result, stats)
}

/// Folds a workspace's LP counters into the search stats.
fn merge_lp(stats: &mut SearchStats, lp: lp::LpStats) {
    stats.lp_pivots += lp.pivots;
    stats.lp_warm_starts += lp.warm_starts;
    stats.lp_cold_solves += lp.cold_solves;
}

/// The pre-engine elimination-order DP, the fallback for pieces between
/// the subset range and 24 vertices. The DP visits bags in a deterministic
/// sequential order, so one warm pricing context serves the whole run.
fn fhw_by_elimination(
    h: &Hypergraph,
    cutoff: Option<Rational>,
    stats: &mut SearchStats,
) -> Option<(Rational, Decomposition)> {
    let mut ctx = PricingContext::new();
    let searched = ghd::elimination::optimal_elimination(
        h,
        |bag| {
            // The DP runs outside the engine's cancellation checks, so it
            // polls the ambient token itself on its hot path.
            if prep::anytime::interrupted() {
                prep::anytime::interrupt::raise();
            }
            ctx.price_warm(h, bag)
                .expect("no isolated vertices, so every bag is coverable")
                .0
        },
        cutoff,
    );
    let result = searched.map(|(width, order)| {
        let d = ghd::elimination::assemble(h, &order, |bag| {
            ctx.price_warm(h, bag).expect("coverable").1
        });
        debug_assert!(d.width() <= width);
        (width, d)
    });
    merge_lp(stats, ctx.stats());
    result
}

/// Which candidate-bag space the strategy streams.
enum BagMode {
    /// The `candgen` edge-union prefix followed by the (deduplicated)
    /// subset tail — the primary, exact path.
    Hybrid(candgen::EdgeUnionConfig),
    /// The full subset space alone — the cross-check oracle.
    Subset,
}

/// The exact-`fhw` strategy: candidate bags priced by `rho*` through the
/// shared concurrent LP price cache.
struct FhwSearch {
    cutoff: Option<Rational>,
    /// `rank(H)`: counting coverage gives `rho*(bag) >= |bag| / rank`, the
    /// lower bound that gates the LP against the engine bound.
    rank: usize,
    /// Scattered-set lower bound (pairwise non-adjacent bag vertices each
    /// force a unit of cover weight) — the sharpest of the pre-LP gates.
    scatter: cover::ScatterBound,
    /// `bag -> (rho*(bag), optimal weights)` — the LP is admission's
    /// dominant cost and bags repeat across search states and worker
    /// threads; each distinct bag is priced once per search (once per
    /// *process* when the session is backed by the cross-call registry).
    cover_cache: Arc<RhoStarCache>,
    /// Pooled simplex workspaces pricing cache misses through the packing
    /// dual — one context per in-flight solve, buffers reused across bags
    /// and workers. Solves are cold (per-bag-pure), so the pooled pivot
    /// totals are schedule-independent.
    pool: PricingPool,
    /// Candidate space (hybrid on the primary path, subsets on the
    /// oracle).
    bags: BagMode,
    /// Generated/filtered tallies of the edge-union prefix streams.
    counters: candgen::Counters,
}

impl FhwSearch {
    /// A strategy over `h` with the given candidate space: derived fields
    /// (rank, scattered-set bound, gate memo, counters) are uniform across
    /// the oracle, the tiny-piece fast path and the hybrid engine.
    fn new(
        h: &Hypergraph,
        cutoff: Option<Rational>,
        cover_cache: Arc<RhoStarCache>,
        bags: BagMode,
    ) -> Self {
        FhwSearch {
            cutoff,
            rank: properties::rank(h),
            scatter: cover::ScatterBound::new(h),
            cover_cache,
            pool: PricingPool::new(),
            bags,
            counters: candgen::Counters::new(),
        }
    }

    /// Per-edge-coverage rejection thresholds under `bound`, for the
    /// per-state gate closure (admission recomputes single entries through
    /// [`threshold`] instead — per candidate, a `Vec` would be the hot
    /// path's only allocation).
    fn thresholds(&self, bound: &Rational) -> Vec<usize> {
        (0..=self.rank).map(|r| threshold(bound, r)).collect()
    }
}

/// The smallest `|bag|` the bound gate rejects when at most `r` bag
/// vertices fit in one edge: `max(1, ⌈bound · r⌉)` (exact at integers).
/// Runs on the per-candidate hot path, so the small-rational case is pure
/// integer arithmetic — no allocation, no locks.
fn threshold(bound: &Rational, r: usize) -> usize {
    if let Some((n, d)) = bound.as_small() {
        // Widths are positive, so `n >= 0` and plain ceiling division is
        // exact; `i128` cannot overflow from reduced `i64` parts.
        let t = ((n as i128) * (r as i128) + (d as i128) - 1).div_euclid(d as i128);
        t.clamp(1, usize::MAX as i128) as usize
    } else {
        let t = (bound * &Rational::from(r))
            .ceil()
            .to_i64()
            .unwrap_or(i64::MAX);
        t.max(1) as usize
    }
}

/// `len >= threshold(bound, r)` as one cross-multiplication: for nonempty
/// bags (`len >= 1`) the ceiling never needs computing — `len ≥ ⌈n·r/d⌉ ⟺
/// len·d ≥ n·r`. This replaces a division with a multiply on the gate
/// every streamed candidate hits.
#[inline]
fn exceeds(bound: &Rational, r: usize, len: usize) -> bool {
    if let Some((n, d)) = bound.as_small() {
        (len as i128) * (d as i128) >= (n as i128) * (r as i128)
    } else {
        len >= threshold(bound, r)
    }
}

impl WidthSolver for FhwSearch {
    type Cost = Rational;

    fn is_decision(&self) -> bool {
        false
    }

    fn cutoff(&self) -> Option<Rational> {
        self.cutoff.clone()
    }

    fn candidates<'a>(&'a self, h: &'a Hypergraph, state: SearchState<'a>) -> CandidateStream<'a> {
        let cfg = match &self.bags {
            BagMode::Subset => return solver::stream_subset_bags(state),
            // A zero prefix budget (small subset space, or an infeasible
            // union count) degrades to the plain subset stream — skip the
            // prefix plumbing (restriction pool, dedup set) entirely.
            BagMode::Hybrid(cfg) if cfg.max_edges == 0 => return solver::stream_subset_bags(state),
            BagMode::Hybrid(cfg) => cfg,
        };
        // The rank/scatter pre-pricing gates, hoisted into the generator
        // against the static seeded cutoff (admission re-applies them
        // against the tighter running bound). A gated union reappears in
        // the subset tail, where admission rejects it just as cheaply.
        let thresholds = self.cutoff.as_ref().map(|b| self.thresholds(b));
        let rank = self.rank;
        let scatter = &self.scatter;
        let gate = move |bag: &VertexSet| match &thresholds {
            Some(t) => bag.len() < t[rank] && !scatter.at_least(bag, t[1.min(rank)]),
            None => true,
        };
        let mut prefix = Some(candgen::edge_union_bags(
            h,
            state.comp,
            state.conn,
            cfg,
            &self.counters,
            gate,
        ));
        let mut seen: Vec<VertexSet> = Vec::new();
        let mut tail: Option<CandidateStream<'a>> = None;
        CandidateStream::new(std::iter::from_fn(move || {
            // Stream the edge-union prefix first, remembering its bags so
            // the completing subset tail never re-streams one. The tail
            // is only built once the prefix is dry — `seen` is complete
            // then, and becomes the tail's precompiled skip list (no
            // per-candidate dedup lookups).
            if let Some(p) = prefix.as_mut() {
                if let Some(bag) = p.next() {
                    seen.push(bag.clone());
                    return Some(Guess {
                        edges: Vec::new(),
                        extra: bag,
                    });
                }
                prefix = None;
            }
            tail.get_or_insert_with(|| {
                solver::stream_subset_bags_excluding(state, &std::mem::take(&mut seen))
            })
            .next()
        }))
    }

    fn admit(
        &self,
        h: &Hypergraph,
        _state: SearchState<'_>,
        guess: &Guess,
        bound: Option<&Rational>,
    ) -> Option<Admission<Rational>> {
        let bag = &guess.extra;
        // Bound gates ahead of everything: a cover's total coverage gives
        // rho*(bag) >= |bag| / r where r bounds how many bag vertices one
        // edge covers; a bag whose bound is already at the engine bound
        // can neither beat it nor survive the cost check, so it dies here
        // — no LP, no cache traffic, no admission construction. The cheap
        // global-rank gate runs first; survivors pay one O(edges) scan for
        // the per-bag rank, which is far sharper on sparse instances.
        // Candidate streams order cheap bags first, so a cheap
        // decomposition tightens both gates early.
        if let Some(b) = bound {
            // The scatter threshold `⌈b·1⌉` is division-free on the small
            // rational path (`at_least_ratio` cross-multiplies instead of
            // paying a 128-bit division per candidate).
            if exceeds(b, self.rank, bag.len())
                || match b.as_small() {
                    Some((n, d)) if n > 0 && self.rank >= 1 => {
                        self.scatter.at_least_ratio(bag, n, d)
                    }
                    _ => self.scatter.at_least(bag, threshold(b, 1.min(self.rank))),
                }
                // The O(edges) per-bag rank only sharpens the global gate
                // when rank > 2: at rank <= 2 its r = 1 case is the
                // scattered bound's independent-bag case.
                || (self.rank > 2 && exceeds(b, cover::bag_rank(h, bag).min(self.rank), bag.len()))
            {
                return None;
            }
        }
        let (weight, weights) = cover::rho_star_priced_with(h, bag, &self.cover_cache, &self.pool)?;
        Some(Admission {
            split: bag.clone(),
            bag: bag.clone(),
            cost: weight,
            weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use decomp::validate;
    use hypergraph::generators;

    fn assert_fhw(h: &Hypergraph, expected: Rational) {
        let (w, d) = fhw_exact(h, None).expect("in range");
        assert_eq!(w, expected);
        assert_eq!(validate::validate_fhd(h, &d), Ok(()), "{}", d.render(h));
        assert!(d.width() <= expected);
    }

    #[test]
    fn triangle_is_three_halves() {
        assert_fhw(&generators::cycle(3), rat(3, 2));
    }

    #[test]
    fn longer_cycles_are_2() {
        for n in 4..8 {
            assert_fhw(&generators::cycle(n), rat(2, 1));
        }
    }

    #[test]
    fn cliques_are_half_n() {
        // Lemma 2.3 (and its odd extension): fhw(K_m) = m/2.
        for m in 3..7i64 {
            assert_fhw(&generators::clique(m as usize), rat(m, 2));
        }
    }

    #[test]
    fn acyclic_is_1() {
        assert_fhw(&generators::path(6), rat(1, 1));
        assert_fhw(&generators::cq_chain(4, 3, 1), rat(1, 1));
    }

    #[test]
    fn example_4_3_fhw_is_2() {
        // fhw <= ghw = 2, and the 4-clique-free structure still forces 2
        // (H0 is cyclic with only small edges).
        let h = generators::example_4_3();
        let (w, _) = fhw_exact(&h, None).unwrap();
        assert!(w > Rational::one());
        assert!(w <= rat(2, 1));
    }

    #[test]
    fn nineteen_plus_vertices_reach_the_dp_window_seeded() {
        // 20 vertices: the elimination DP answers, its cutoff seeded by
        // the heuristic bound (which is tight here, so the DP only has to
        // refute an improvement — formerly an unseeded 2^20 sweep).
        let h = generators::cycle(20);
        let (w, d) = fhw_exact(&h, None).expect("DP window");
        assert_eq!(w, rat(2, 1));
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
    }

    #[test]
    fn hierarchy_fhw_le_ghw_le_hw() {
        // Lemma-level sanity across engines on a mixed corpus.
        for seed in 0..4u64 {
            let h = generators::random_bip(8, 6, 2, 3, seed);
            let (fhw, _) = fhw_exact(&h, None).unwrap();
            let (ghw, _) = ghd::ghw_exact(&h, None).unwrap();
            let hw = hd::hypertree_width(&h, 6).map(|(w, _)| w).unwrap();
            assert!(fhw <= Rational::from(ghw), "seed {seed}");
            assert!(ghw <= hw, "seed {seed}");
            // Adler-Gottlob-Grohe: hw <= 3*ghw + 1.
            assert!(hw <= 3 * ghw + 1, "seed {seed}");
        }
    }

    #[test]
    fn lemma_2_7_monotone_under_induced_subhypergraphs() {
        let h = generators::example_4_3();
        let (whole, _) = fhw_exact(&h, None).unwrap();
        // Drop two vertices; fhw must not increase.
        let mut w = h.all_vertices();
        w.remove(0);
        w.remove(5);
        let (sub, _, _) = h.induced(&w);
        if !sub.has_isolated_vertices() {
            let (part, _) = fhw_exact(&sub, None).unwrap();
            assert!(part <= whole);
        }
    }

    #[test]
    fn cutoff_certifies_lower_bound() {
        let h = generators::cycle(3);
        assert!(fhw_exact(&h, Some(rat(3, 2))).is_none());
        assert_eq!(fhw_exact(&h, Some(rat(2, 1))).unwrap().0, rat(3, 2));
    }

    #[test]
    fn subset_oracle_agrees_with_the_hybrid_engine() {
        let corpus = vec![
            generators::cycle(3),
            generators::cycle(6),
            generators::clique(5),
            generators::triangle_chain(2),
            generators::example_5_1(4),
        ];
        for h in corpus {
            let primary = fhw_exact(&h, None).map(|(w, _)| w);
            let oracle = fhw_exact_subset_oracle(&h, None).map(|(w, _)| w);
            assert_eq!(primary, oracle, "engine vs subset oracle on {h:?}");
        }
    }

    #[test]
    fn upper_bound_is_witnessed_and_sound() {
        for h in [
            generators::cycle(3),
            generators::clique(5),
            generators::example_5_1(4),
            generators::example_4_3(),
        ] {
            let (ub, d) = fhw_upper_bound(&h).expect("valid instance");
            let (exact, _) = fhw_exact(&h, None).expect("small");
            assert!(ub >= exact, "ub {ub} < exact {exact} on {h:?}");
            assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
            assert!(d.width() <= ub);
        }
    }

    #[test]
    fn engine_agrees_with_elimination_dp_baseline() {
        // Certify the shared-engine search against the independent
        // elimination-order DP kept in `ghd::elimination`.
        let corpus = vec![
            generators::cycle(3),
            generators::cycle(6),
            generators::clique(5),
            generators::triangle_chain(2),
            generators::example_4_3(),
            generators::example_5_1(4),
        ];
        for h in corpus {
            let engine = fhw_exact(&h, None).map(|(w, _)| w);
            let dp = ghd::elimination::optimal_elimination(
                &h,
                |bag| cover::fractional_cover(&h, bag).expect("coverable").weight,
                None,
            )
            .map(|(w, _)| w);
            assert_eq!(engine, dp, "engine vs elimination DP on {h:?}");
        }
    }
}
