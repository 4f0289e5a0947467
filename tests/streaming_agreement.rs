//! Agreement suite for the streaming search engine: on random small
//! hypergraphs, the engine strategies must agree with the two independent
//! pre-engine implementations kept exactly for this purpose — the retired
//! elimination-order DP (`ghd::elimination`) for `ghw`/`fhw`, and the
//! legacy private strict-HD recursion (`fhd::check_fhd_bdp_legacy`) for
//! `Check(FHD, k)` — and searches at every thread count must return
//! identical widths, witnesses *and* [`SearchStats`] (the in-flight memo
//! dedup plus round-snapshot bounds make the whole search deterministic).
//!
//! The `HGTOOL_THREADS` environment variable shifts the default worker
//! count of every engine entry point; CI runs this suite at 1 and 4.

use hypertree::arith::{rat, Rational};
use hypertree::cover;
use hypertree::decomp::validate;
use hypertree::hypergraph::{generators, parser, Hypergraph};
use hypertree::solver::EngineOptions;
use hypertree::{fhd, ghd, hd};
use proptest::prelude::*;

/// Strategy: a random hypergraph on at most 10 vertices, mixing the
/// workspace's generator families.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..8, 0u64..400).prop_map(|(n, seed)| match seed % 4 {
        0 => generators::random_bip(n + 3, n, 2, 3, seed),
        1 => generators::random_bounded_degree(n + 3, n, 3, 3, seed),
        2 => generators::random_acyclic(n, 3, seed),
        _ => generators::cycle(n),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ghw_engine_agrees_with_elimination_dp(h in arb_hypergraph()) {
        let engine = ghd::ghw_exact(&h, None).map(|(w, _)| w);
        let dp = ghd::elimination::optimal_elimination(
            &h,
            |bag| cover::integral_cover(&h, bag).expect("coverable").weight(),
            None,
        )
        .map(|(w, _)| w);
        prop_assert_eq!(engine, dp, "streaming engine vs elimination DP on {:?}", h);
    }

    #[test]
    fn fhw_engine_agrees_with_elimination_dp(h in arb_hypergraph()) {
        let engine = fhd::fhw_exact(&h, None).map(|(w, _)| w);
        let dp = ghd::elimination::optimal_elimination(
            &h,
            |bag| cover::fractional_cover(&h, bag).expect("coverable").weight,
            None,
        )
        .map(|(w, _)| w);
        prop_assert_eq!(engine, dp, "streaming engine vs elimination DP on {:?}", h);
    }

    #[test]
    fn hw_witnesses_validate_and_sandwich_ghw(h in arb_hypergraph()) {
        // det-k-decomp has no independent DP; certify it through its
        // validated witness and the Adler–Gottlob–Grohe sandwich around
        // the DP-certified ghw.
        let Some((ghw, _)) = ghd::ghw_exact(&h, None) else { return Ok(()); };
        let Some((hw, d)) = hd::hypertree_width(&h, 3 * ghw + 1) else {
            return Err(TestCaseError::Reject);
        };
        prop_assert_eq!(validate::validate_hd(&h, &d), Ok(()));
        prop_assert!(ghw <= hw, "ghw {} > hw {}", ghw, hw);
        prop_assert!(hw <= 3 * ghw + 1, "hw {} vs ghw {}", hw, ghw);
    }
}

proptest! {
    // Each case runs the fhw search at four thread counts, twice (with and
    // without a cutoff); fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The work-stealing pool is fully deterministic: widths, witnesses
    /// and every `SearchStats` counter are identical at thread counts
    /// 1, 2, 4 and 8 — including under cutoffs, where the bound snapshot
    /// is the tighter of cutoff and best-so-far.
    #[test]
    fn searches_are_identical_across_thread_counts(h in arb_hypergraph()) {
        for cutoff in [None, Some(rat(2, 1))] {
            let (baseline, base_stats) =
                fhd::fhw_exact_with_stats(&h, cutoff.clone(), EngineOptions::sequential());
            for threads in [2usize, 4, 8] {
                let (result, stats) = fhd::fhw_exact_with_stats(
                    &h,
                    cutoff.clone(),
                    EngineOptions::with_threads(threads),
                );
                // Width AND witness: the first-minimum merge reproduces the
                // sequential engine's plan choice exactly.
                prop_assert_eq!(
                    &baseline, &result,
                    "fhw result at {} threads (cutoff {:?}) on {:?}", threads, cutoff, h
                );
                // Engine counters only: the runtime counters (result-cache
                // hits, in-flight dedup) depend on process history, not on
                // the search.
                prop_assert_eq!(
                    base_stats.engine_only(), stats.engine_only(),
                    "fhw stats at {} threads (cutoff {:?}) on {:?}", threads, cutoff, h
                );
            }
            if let Some((w, d)) = baseline {
                prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
                prop_assert!(d.width() <= w);
            }
        }
    }
}

proptest! {
    // The strict-HD check prices separators of an augmented hypergraph;
    // fewer, smaller cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn strict_hd_strategy_agrees_with_legacy_oracle(
        n in 3usize..6,
        seed in 0u64..200,
        below in any::<bool>(),
    ) {
        let h = generators::random_bounded_degree(n + 2, n, 2, 3, seed);
        let Some((fhw, _)) = fhd::fhw_exact(&h, None) else { return Ok(()); };
        // At k = fhw both must say yes; strictly below, both must agree
        // (typically no — never a yes/no split).
        let k = if below { &fhw - &rat(1, 5) } else { fhw.clone() };
        if !k.is_positive() {
            return Err(TestCaseError::Reject);
        }
        let engine = fhd::check_fhd_bdp(&h, &k, fhd::HdkParams::default());
        let legacy = fhd::check_fhd_bdp_legacy(&h, &k, fhd::HdkParams::default());
        prop_assert_eq!(
            engine.is_yes(),
            legacy.is_yes(),
            "engine vs legacy at k = {} on {:?}", k, h
        );
        if !below {
            prop_assert!(engine.is_yes(), "strict check must accept fhw = {}", fhw);
        }
        for (name, ans) in [("engine", &engine), ("legacy", &legacy)] {
            if let Some(d) = ans.decomposition() {
                prop_assert_eq!(validate::validate_fhd(&h, &d.clone()), Ok(()), "{}", name);
                prop_assert!(d.width() <= k, "{} witness exceeds {}", name, k);
            }
        }
    }
}

/// The in-flight memo dedup regression (ROADMAP's `threads > 1` stats bug):
/// on the whole bench corpus plus the shipped example instance, `ghw` and
/// `fhw` stats from `with_threads(4)` equal `with_threads(1)` exactly —
/// states are no longer double-evaluated and counters no longer inflate.
#[test]
fn stats_are_thread_count_invariant_on_the_example_instances() {
    let mut instances: Vec<(String, Hypergraph)> = hypertree_bench::corpus()
        .into_iter()
        .map(|w| (w.name, w.hypergraph))
        .collect();
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/data/example_4_3.hg"
    ))
    .expect("example instance file");
    instances.push((
        "examples/data/example_4_3.hg".into(),
        parser::parse(&text).expect("parsable example"),
    ));
    for (name, h) in instances {
        let (ghw_seq, ghw_seq_stats) =
            ghd::ghw_exact_with_stats(&h, None, EngineOptions::sequential());
        let (ghw_par, ghw_par_stats) =
            ghd::ghw_exact_with_stats(&h, None, EngineOptions::with_threads(4));
        assert_eq!(ghw_seq, ghw_par, "{name}: ghw result");
        // `engine_only` strips the runtime counters, which depend on
        // process history, not on the search.
        assert_eq!(
            ghw_seq_stats.engine_only(),
            ghw_par_stats.engine_only(),
            "{name}: ghw stats"
        );

        let (fhw_seq, fhw_seq_stats) =
            fhd::fhw_exact_with_stats(&h, None, EngineOptions::sequential());
        let (fhw_par, fhw_par_stats) =
            fhd::fhw_exact_with_stats(&h, None, EngineOptions::with_threads(4));
        assert_eq!(fhw_seq, fhw_par, "{name}: fhw result");
        assert_eq!(
            fhw_seq_stats.engine_only(),
            fhw_par_stats.engine_only(),
            "{name}: fhw stats"
        );

        // The full-struct equality above already covers these, but the
        // simplex work counters are the ones a scheduling leak would
        // corrupt first (a warm start on a pool path would make pivot
        // counts order-dependent) — name them explicitly so a failure
        // points at the counter, not just "stats differ".
        for (engine, seq, par) in [
            ("ghw", &ghw_seq_stats, &ghw_par_stats),
            ("fhw", &fhw_seq_stats, &fhw_par_stats),
        ] {
            assert_eq!(seq.lp_pivots, par.lp_pivots, "{name}: {engine} lp_pivots");
            assert_eq!(
                seq.lp_warm_starts, par.lp_warm_starts,
                "{name}: {engine} lp_warm_starts"
            );
            assert_eq!(
                seq.lp_cold_solves, par.lp_cold_solves,
                "{name}: {engine} lp_cold_solves"
            );
            assert_eq!(
                seq.cand_cap_hits, par.cand_cap_hits,
                "{name}: {engine} cand_cap_hits"
            );
        }
    }
}

/// Decision streams must stop early: on an acyclic instance the first
/// admitted candidate per state wins, so the engine pulls far fewer guesses
/// than the full `det-k-decomp` candidate space.
#[test]
fn decision_searches_short_circuit_on_the_first_witness() {
    let h = generators::cq_chain(5, 3, 1);
    let (d, stats) = hd::check_hd_with_stats(&h, 1, EngineOptions::default());
    assert!(d.is_some(), "chains are acyclic");
    assert!(stats.streamed > 0);
    assert!(
        stats.streamed <= stats.states * h.num_edges(),
        "streamed {} guesses over {} states — the stream is not lazy",
        stats.streamed,
        stats.states
    );
}

/// The fhw engine's shared ρ* cache must actually dedup: pricing runs at
/// most once per distinct bag, and repeats hit the cache.
#[test]
fn fhw_price_cache_dedups_identical_bags() {
    let h = generators::cycle(6);
    let (result, stats) = fhd::fhw_exact_with_stats(&h, None, EngineOptions::sequential());
    let (w, _) = result.expect("cycles decompose");
    assert_eq!(w, Rational::from(2usize));
    assert!(
        stats.price_hits + stats.price_misses <= stats.admitted,
        "price lookups {} exceed admitted candidates {}",
        stats.price_hits + stats.price_misses,
        stats.admitted
    );
    // 2^6 - 1 subset bags exist per full component; far fewer LPs may run
    // thanks to the bound gate, and none twice.
    assert!(stats.price_misses > 0);
}
