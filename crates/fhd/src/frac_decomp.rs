//! Algorithm 3: `(k, ε, c)-frac-decomp` — the alternating algorithm of
//! Section 6.1 deciding whether `H` has an FHD of width `<= k + ε` with
//! `c`-bounded fractional part satisfying the weak special condition
//! (Theorem 6.16), implemented deterministically as a decision strategy
//! over the shared [`solver`] search engine.
//!
//! Per search state the strategy guesses the *integral* part `S`
//! (`|S| = ℓ <= k + ε` edges of weight 1) and the *fractional shadow*
//! `W_s` (`|W_s| <= c` vertices); the candidate bag is `V(S) ∪ W_s` and
//! admission checks
//!
//! * (2.a) some `γ` of weight `<= k + ε − ℓ` covers `W_s` (an LP),
//! * (2.b) `∀e ∈ edges(C_r): e ∩ (V(R) ∪ W_r) ⊆ V(S) ∪ W_s` (engine:
//!   `conn ⊆ bag`),
//! * (2.c) `(V(S) ∪ W_s) ∩ C_r ≠ ∅` (engine progress check),
//!
//! with the engine recursing on the `[V(S) ∪ W_s]`-components inside `C_r`.

use arith::Rational;
use cover::ShardedCache;
use decomp::Decomposition;
use hypergraph::{Hypergraph, VertexSet};
use lp::{Cmp, LinearProgram, LpResult};
use solver::{
    Admission, CandidateStream, EngineOptions, Guess, SearchContext, SearchState, SearchStats,
    WidthSolver,
};
use std::sync::Arc;

/// Parameters of Algorithm 3.
#[derive(Clone, Debug)]
pub struct FracDecompParams {
    /// Target width `k`.
    pub k: Rational,
    /// Slack `ε > 0`.
    pub eps: Rational,
    /// Fractional-part bound `c` (Definition 6.2). Lemma 6.4 supplies
    /// `c = 2ik² + 4k³i/ε` for `i`-BIP inputs; see
    /// [`crate::approx_bip::lemma_6_4_c`].
    pub c: usize,
}

/// Runs `(k, ε, c)-frac-decomp`; on acceptance returns the witness FHD
/// (width `<= k + ε`, weak special condition; Theorem 6.16).
pub fn frac_decomp(h: &Hypergraph, params: &FracDecompParams) -> Option<Decomposition> {
    frac_decomp_with_stats(h, params, EngineOptions::default()).0
}

/// As [`frac_decomp`], also reporting the engine counters, with explicit
/// scheduling. Algorithm 3 is a decision strategy, so it runs sequentially
/// and stops at the first witness.
pub fn frac_decomp_with_stats(
    h: &Hypergraph,
    params: &FracDecompParams,
    opts: EngineOptions,
) -> (Option<Decomposition>, SearchStats) {
    assert!(params.eps.is_positive(), "ε must be positive");
    if h.has_isolated_vertices() {
        return (None, SearchStats::default());
    }
    let key = format!(
        "k={:?};eps={:?};c={};prep={};rp={};backend=auto",
        params.k, params.eps, params.c, opts.prep, opts.reuse_prices
    );
    prep::cached_query(h, "result-frac-decomp", key, opts.reuse_results, || {
        // Decision profile: duplicate-edge and twin-vertex collapse only —
        // the passes whose lifts preserve the weak special condition. The
        // `c` bound is checked on the *reduced* instance, so acceptance is
        // one-sided monotone: anything the unprepped algorithm accepts is
        // still accepted (an FHD with a c-bounded part projects onto the
        // collapsed instance), and everything accepted lifts to a valid
        // width-(k+ε) witness of `h` — but collapsed twins need fewer
        // `W_s` slots, so prep can accept where the raw algorithm's
        // c-relative completeness gave up.
        let (result, stats) = prep::run_decision(h, opts.prep, |block| {
            let (d, s) = frac_decomp_piece(block, params, opts);
            (d.map(|d| ((), d)), s)
        });
        (result.map(|(_, d)| d), stats)
    })
}

/// Runs Algorithm 3 proper on an (already preprocessed) instance.
fn frac_decomp_piece(
    h: &Hypergraph,
    params: &FracDecompParams,
    opts: EngineOptions,
) -> (Option<Decomposition>, SearchStats) {
    let budget = &params.k + &params.eps;
    let l_max_big = budget.floor();
    let l_max = l_max_big.to_i64().unwrap_or(0).max(0) as usize;
    let session = prep::SessionCache::open(h, "frac-shadow-lp", opts.reuse_prices);
    let strategy = Arc::new(FracDecomp {
        budget,
        l_max,
        c: params.c,
        shadow: Arc::clone(&session.cache),
    });
    let cx = SearchContext::with_options(opts);
    let result = cx.run(h, &strategy).map(|(_, d)| d);
    let mut stats = cx.stats();
    (stats.price_hits, stats.price_misses) = session.deltas();
    (result, stats)
}

/// Upper-bounds `fhw(H)` by running Algorithm 3 on a decreasing sequence of
/// integer-and-half budgets; returns the smallest accepted `k` in halves
/// together with its witness. A convenience for callers without an exact
/// oracle (completeness is relative to `c`, as everywhere in Section 6.1).
pub fn fhw_frac_search(
    h: &Hypergraph,
    max_k: usize,
    c: usize,
) -> Option<(Rational, Decomposition)> {
    let eps = Rational::from_frac(1, 4);
    let mut best: Option<(Rational, Decomposition)> = None;
    for halves in (2..=2 * max_k).rev() {
        let k = Rational::from_frac(halves as i64, 2) - eps.clone();
        match frac_decomp(
            h,
            &FracDecompParams {
                k: k.clone(),
                eps: eps.clone(),
                c,
            },
        ) {
            Some(d) => {
                let width = d.width();
                best = Some((width, d));
            }
            None => break,
        }
    }
    best
}

/// The Algorithm 3 strategy: streams `(S, W_s)` pairs combinatorially; the
/// LP for the fractional part runs at admission time, so the engine's
/// first-success cutoff skips it for losing guesses.
///
/// The `(S, W_s)` shadow space is exponential in `c` by nature (that is
/// Algorithm 3's guess space), which is exactly why the enumeration is a
/// lazy two-level stream — the outer level walks integral parts `S`, the
/// inner level walks shadows `W_s` for the current `S` — so the engine
/// holds one guess at a time and a first witness leaves the rest of the
/// space unenumerated.
struct FracDecomp {
    budget: Rational,
    l_max: usize,
    c: usize,
    /// Memoized (2.a) LPs: `(budget, S, W_s)` fully determines the shadow
    /// cover, and the same `(S, W_s)` pair is guessed again and again
    /// across sibling search states — and across *calls* at one budget
    /// when the session is backed by the cross-call registry (the
    /// PTAAS-style iteration loops re-run identical budgets).
    shadow: Arc<ShadowCache>,
}

/// `(budget, sorted separator, shadow) -> γ` memo for the (2.a) LP.
type ShadowCache = ShardedCache<(Rational, Vec<usize>, VertexSet), Option<Vec<(usize, Rational)>>>;

impl WidthSolver for FracDecomp {
    type Cost = Rational;

    fn is_decision(&self) -> bool {
        true
    }

    fn candidates<'a>(&'a self, h: &'a Hypergraph, state: SearchState<'a>) -> CandidateStream<'a> {
        let neighborhood = h.union_of_edges(state.comp_edges.iter().copied());
        let candidates: Vec<usize> = (0..h.num_edges())
            .filter(|&e| h.edge(e).intersects(&neighborhood))
            .collect();
        // W_s candidates: interface ∪ comp (other vertices are useless).
        let w_space: Vec<usize> = state.conn.union(state.comp).to_vec();
        let c = self.c;
        let seps =
            std::iter::once(Vec::new()).chain(solver::stream_subsets_up_to(candidates, self.l_max));
        let stream = seps.filter_map(move |sep| {
            let vs = h.union_of_edges(sep.iter().copied());
            // (2.b) pre-check: the uncovered part of the interface must fit
            // in W_s.
            let missing = state.conn.difference(&vs);
            if missing.len() > c {
                return None;
            }
            let extras: Vec<usize> = w_space
                .iter()
                .copied()
                .filter(|&v| !vs.contains(v) && !missing.contains(v))
                .collect();
            let slots = c - missing.len();
            let shadows =
                std::iter::once(Vec::new()).chain(solver::stream_subsets_up_to(extras, slots));
            let comp = state.comp;
            let inner = shadows.filter_map(move |shadow| {
                let mut ws = missing.clone();
                ws.extend(shadow.iter().copied());
                // (2.c) pre-check: V(S) ∪ W_s must eat into the component —
                // filtered here so the admission LP never runs on
                // structurally hopeless guesses.
                if !vs.intersects(comp) && !ws.intersects(comp) {
                    return None;
                }
                Some(Guess {
                    edges: sep.clone(),
                    extra: ws,
                })
            });
            Some(inner)
        });
        CandidateStream::new(stream.flatten())
    }

    fn admit(
        &self,
        h: &Hypergraph,
        _state: SearchState<'_>,
        guess: &Guess,
        _bound: Option<&Rational>,
    ) -> Option<Admission<Rational>> {
        let vs = h.union_of_edges(guess.edges.iter().copied());
        let bag = vs.union(&guess.extra);
        if bag.is_empty() {
            return None;
        }
        // (2.a): LP covering W_s \ V(S) with weight <= k + ε − ℓ on edges
        // outside S.
        let need = bag.difference(&vs);
        let slack = &self.budget - &Rational::from(guess.edges.len());
        if slack.is_negative() {
            return None;
        }
        let key = (
            self.budget.clone(),
            guess.edges.clone(),
            guess.extra.clone(),
        );
        let gamma = self
            .shadow
            .get_or_insert_with(&key, || cover_shadow(h, &need, &guess.edges, &slack, &bag))?;
        let mut weights: Vec<(usize, Rational)> =
            guess.edges.iter().map(|&e| (e, Rational::one())).collect();
        let mut cost = Rational::from(weights.len());
        for (e, w) in gamma {
            cost = &cost + &w;
            weights.push((e, w));
        }
        Some(Admission {
            split: bag.clone(),
            bag,
            cost,
            weights,
        })
    }
}

/// The (2.a) LP: find `γ` (over edges outside `sep`) with
/// `need ⊆ B(γ)`, `weight(γ) <= slack`, and — so that the witness
/// satisfies `B(γ_s) = V(S) ∪ W_s` (the property Lemmas 6.12–6.15
/// rely on) — *no* vertex outside `basis = V(S) ∪ W_s` fully covered.
/// Strictness of that last condition is handled by maximizing a slack
/// variable `t` with `coverage(v) + t <= 1` for every outside vertex:
/// a conforming `γ` exists iff the optimum has `t > 0` (or there are
/// no constraints at all).
fn cover_shadow(
    h: &Hypergraph,
    need: &VertexSet,
    sep: &[usize],
    slack: &Rational,
    basis: &VertexSet,
) -> Option<Vec<(usize, Rational)>> {
    if need.is_empty() {
        return Some(Vec::new());
    }
    let usable: Vec<usize> = (0..h.num_edges())
        .filter(|e| !sep.contains(e) && h.edge(*e).intersects(need))
        .collect();
    let t_var = usable.len();
    let mut prog = LinearProgram::maximize(t_var + 1);
    prog.set_objective(t_var, Rational::one());
    for v in need.iter() {
        let coeffs: Vec<(usize, Rational)> = usable
            .iter()
            .enumerate()
            .filter(|(_, &e)| h.edge(e).contains(v))
            .map(|(col, _)| (col, Rational::one()))
            .collect();
        if coeffs.is_empty() {
            return None;
        }
        prog.add_constraint(coeffs, Cmp::Ge, Rational::one());
    }
    // weight(γ) <= slack, and γ : E → [0, 1].
    prog.add_constraint(
        (0..usable.len())
            .map(|col| (col, Rational::one()))
            .collect(),
        Cmp::Le,
        slack.clone(),
    );
    for col in 0..usable.len() {
        prog.add_constraint(vec![(col, Rational::one())], Cmp::Le, Rational::one());
    }
    // Outside vertices must stay strictly below full coverage.
    let outside: Vec<usize> = (0..h.num_vertices())
        .filter(|&v| !basis.contains(v))
        .collect();
    for &v in &outside {
        let mut coeffs: Vec<(usize, Rational)> = usable
            .iter()
            .enumerate()
            .filter(|(_, &e)| h.edge(e).contains(v))
            .map(|(col, _)| (col, Rational::one()))
            .collect();
        if coeffs.is_empty() {
            continue;
        }
        coeffs.push((t_var, Rational::one()));
        prog.add_constraint(coeffs, Cmp::Le, Rational::one());
    }
    prog.add_constraint(vec![(t_var, Rational::one())], Cmp::Le, Rational::one());
    match prog.solve() {
        LpResult::Optimal { value, solution } if value.is_positive() => Some(
            solution
                .into_iter()
                .take(usable.len())
                .enumerate()
                .filter(|(_, w)| !w.is_zero())
                .map(|(col, w)| (usable[col], w))
                .collect(),
        ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arith::rat;
    use decomp::validate;
    use hypergraph::generators;

    fn params(k: Rational, eps: Rational, c: usize) -> FracDecompParams {
        FracDecompParams { k, eps, c }
    }

    #[test]
    fn acyclic_accepted() {
        let h = generators::path(5);
        let d = frac_decomp(&h, &params(Rational::one(), rat(1, 2), 0)).expect("paths: fhw 1");
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
        assert!(d.width() <= rat(3, 2));
    }

    #[test]
    fn triangle_with_fractional_shadow() {
        // k = 1, ε = 1/2: the width budget 3/2 forces the genuinely
        // fractional cover; c = 3 lets W_s hold the triangle.
        let h = generators::cycle(3);
        let d = frac_decomp(&h, &params(Rational::one(), rat(1, 2), 3)).expect("fhw(C3) = 3/2");
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
        assert!(d.width() <= rat(3, 2));
        assert!(validate::validate_weak_special(&h, &d).is_ok());
        assert!(validate::has_c_bounded_fractional_part(&h, &d, 3));
    }

    #[test]
    fn triangle_rejected_below_three_halves() {
        let h = generators::cycle(3);
        assert!(frac_decomp(&h, &params(Rational::one(), rat(1, 3), 3)).is_none());
    }

    #[test]
    fn cycles_accepted_at_2() {
        let h = generators::cycle(5);
        let d = frac_decomp(&h, &params(rat(3, 2), rat(1, 2), 2)).expect("fhw(C5) = 2");
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
        assert!(d.width() <= rat(2, 1));
    }

    #[test]
    fn example_5_1_exploits_fractional_part() {
        // rho*(H_n) = 2 - 1/n; a single node with S = {big edge} and W_s
        // = {v0} covered fractionally realizes width 2 - 1/n <= k + ε
        // with k = 1, ε = 1 - 1/n... use ε = 1 for simplicity.
        let h = generators::example_5_1(4);
        let d =
            frac_decomp(&h, &params(Rational::one(), Rational::one(), 1)).expect("fhw <= 2 - 1/4");
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "{}", d.render(&h));
        assert!(d.width() <= rat(2, 1));
    }

    #[test]
    fn zero_c_reduces_to_integral_covers() {
        // With c = 0 the algorithm can only build GHD-like covers, so the
        // triangle needs budget 2.
        let h = generators::cycle(3);
        assert!(frac_decomp(&h, &params(Rational::one(), rat(1, 2), 0)).is_none());
        assert!(frac_decomp(&h, &params(rat(3, 2), rat(1, 2), 0)).is_some());
    }

    #[test]
    fn frac_search_brackets_the_optimum() {
        let h = generators::cycle(3);
        let (w, d) = fhw_frac_search(&h, 3, 3).expect("triangle decomposes");
        assert!(w >= rat(3, 2));
        assert!(w <= rat(7, 4)); // 3/2 budgeted with eps = 1/4
        assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
    }

    #[test]
    fn theorem_6_16_soundness_on_corpus() {
        // Whatever frac-decomp accepts must validate at width k + ε.
        for seed in 0..3u64 {
            let h = generators::random_bounded_degree(8, 5, 2, 3, seed);
            let p = params(rat(2, 1), rat(1, 2), 2);
            if let Some(d) = frac_decomp(&h, &p) {
                assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "seed {seed}");
                assert!(d.width() <= rat(5, 2), "seed {seed}");
            }
        }
    }
}
