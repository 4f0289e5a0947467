//! Agreement suite for the `candgen` subsystem: the edge-union-driven
//! `ghw`/`fhw` engines must agree with the retained subset-bag oracle and
//! the independent elimination DP on small instances, the heuristic upper
//! bounds must be sound (`ub >= exact`) with witnesses that re-validate,
//! and the ≥19-vertex instances that motivated the subsystem must now
//! resolve exactly.
//!
//! Runs in the `HGTOOL_THREADS={1,4}` CI matrix alongside the other
//! agreement suites — candidate streams are pulled in a deterministic
//! round schedule, so widths, witnesses and the candidate counters are
//! identical at every thread count.

use hypertree::arith::Rational;
use hypertree::cover;
use hypertree::decomp::validate;
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::solver::EngineOptions;
use hypertree::{fhd, ghd};
use hypertree_bench as workloads;
use proptest::prelude::*;

/// Random small hypergraphs mixing the families of the other agreement
/// suites: sparse/dense, cyclic/acyclic, cut-vertex-rich.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..8, 0u64..400).prop_map(|(n, seed)| match seed % 6 {
        0 => generators::random_bip(n + 3, n, 2, 3, seed),
        1 => generators::random_bounded_degree(n + 3, n, 3, 3, seed),
        2 => generators::random_acyclic(n, 3, seed),
        3 => generators::triangle_chain(n.min(4)),
        4 => generators::grid(2, n.min(5)),
        _ => generators::cycle(n),
    })
}

/// Default scheduling, fresh price caches (deterministic stats), default
/// thread count — what the CI `HGTOOL_THREADS={1,4}` matrix varies.
fn opts() -> EngineOptions {
    EngineOptions {
        threads: None,
        prep: true,
        reuse_prices: false,
        reuse_results: false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn candgen_ghw_agrees_with_subset_oracle_and_dp(h in arb_hypergraph()) {
        let (primary, stats) = ghd::ghw_exact_with_stats(&h, None, opts());
        let oracle = ghd::ghw_exact_subset_oracle(&h, None).map(|(w, _)| w);
        let dp = ghd::elimination::optimal_elimination(
            &h,
            |bag| cover::integral_cover(&h, bag).expect("coverable").weight(),
            None,
        )
        .map(|(w, _)| w);
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| *w),
            oracle,
            "candgen ghw vs subset oracle on {:?}",
            h
        );
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| *w),
            dp,
            "candgen ghw vs elimination DP on {:?}",
            h
        );
        if let Some((w, d)) = primary {
            prop_assert_eq!(validate::validate_ghd(&h, &d), Ok(()), "ghw witness");
            prop_assert!(d.width() <= Rational::from(w));
            prop_assert!(stats.ub_width.is_some(), "heuristic seed recorded");
        }
    }

    #[test]
    fn candgen_fhw_agrees_with_subset_oracle_and_dp(h in arb_hypergraph()) {
        let (primary, _) = fhd::fhw_exact_with_stats(&h, None, opts());
        let oracle = fhd::fhw_exact_subset_oracle(&h, None).map(|(w, _)| w);
        let dp = ghd::elimination::optimal_elimination(
            &h,
            |bag| cover::fractional_cover(&h, bag).expect("coverable").weight,
            None,
        )
        .map(|(w, _)| w);
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| w.clone()),
            oracle,
            "candgen fhw vs subset oracle on {:?}",
            h
        );
        prop_assert_eq!(
            primary.as_ref().map(|(w, _)| w.clone()),
            dp,
            "candgen fhw vs elimination DP on {:?}",
            h
        );
        if let Some((w, d)) = primary {
            prop_assert_eq!(validate::validate_fhd(&h, &d), Ok(()), "fhw witness");
            prop_assert!(d.width() <= w);
        }
    }

    #[test]
    fn heuristic_bounds_are_sound_and_witnessed(h in arb_hypergraph()) {
        let Some((ghw_ub, ghw_d)) = ghd::ghw_upper_bound(&h) else { return Ok(()); };
        let Some((fhw_ub, fhw_d)) = fhd::fhw_upper_bound(&h) else { return Ok(()); };
        prop_assert_eq!(validate::validate_ghd(&h, &ghw_d), Ok(()), "ghw ub witness");
        prop_assert_eq!(validate::validate_fhd(&h, &fhw_d), Ok(()), "fhw ub witness");
        prop_assert!(ghw_d.width() <= Rational::from(ghw_ub));
        prop_assert!(fhw_d.width() <= fhw_ub.clone());
        if let Some((exact, _)) = ghd::ghw_exact(&h, None) {
            prop_assert!(ghw_ub >= exact, "ghw ub {} < exact {}", ghw_ub, exact);
        }
        if let Some((exact, _)) = fhd::fhw_exact(&h, None) {
            prop_assert!(fhw_ub >= exact, "fhw ub {} < exact {}", fhw_ub, exact);
        }
    }
}

#[test]
fn heuristic_bounds_are_sound_corpus_wide() {
    for w in workloads::corpus() {
        let h = &w.hypergraph;
        let (ghw_ub, ghw_d) = ghd::ghw_upper_bound(h).expect("corpus instances are valid");
        let (fhw_ub, fhw_d) = fhd::fhw_upper_bound(h).expect("corpus instances are valid");
        assert_eq!(
            validate::validate_ghd(h, &ghw_d),
            Ok(()),
            "{}: ghw ub witness",
            w.name
        );
        assert_eq!(
            validate::validate_fhd(h, &fhw_d),
            Ok(()),
            "{}: fhw ub witness",
            w.name
        );
        let (ghw, _) = ghd::ghw_exact(h, None).expect("corpus is in range");
        let (fhw, _) = fhd::fhw_exact(h, None).expect("corpus is in range");
        assert!(ghw_ub >= ghw, "{}: ghw ub {ghw_ub} < exact {ghw}", w.name);
        assert!(fhw_ub >= fhw, "{}: fhw ub {fhw_ub} < exact {fhw}", w.name);
        assert!(fhw_ub <= Rational::from(ghw_ub), "{}: ub hierarchy", w.name);
    }
}

#[test]
fn breaks_the_eighteen_vertex_wall() {
    // cycle(20): formerly elimination-DP territory (19-24 window).
    let h = generators::cycle(20);
    let (w, d) = ghd::ghw_exact(&h, None).expect("candgen range");
    assert_eq!(w, 2);
    assert_eq!(validate::validate_ghd(&h, &d), Ok(()));
    // cycle(26): formerly a hard None (beyond subset search AND the DP).
    let h = generators::cycle(26);
    let (w, d) = ghd::ghw_exact(&h, None).expect("candgen range");
    assert_eq!(w, 2);
    assert_eq!(validate::validate_ghd(&h, &d), Ok(()));
    // The seeded DP window still answers fhw exactly at 20 vertices.
    let h = generators::cycle(20);
    let (w, d) = fhd::fhw_exact(&h, None).expect("seeded DP window");
    assert_eq!(w, Rational::from(2usize));
    assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
    // 21 vertices of glued triangles: block splitting keeps every piece in
    // engine range, so even fhw is exact — and genuinely fractional.
    let h = generators::triangle_chain(10);
    let (w, d) = fhd::fhw_exact(&h, None).expect("per-block engine range");
    assert_eq!(w, Rational::from_frac(3, 2));
    assert_eq!(validate::validate_fhd(&h, &d), Ok(()));
}

#[test]
fn candidate_counters_are_reported_and_thread_invariant() {
    let h = generators::example_4_3();
    let (r1, s1) = ghd::ghw_exact_with_stats(&h, None, EngineOptions::with_threads(1));
    let (r4, s4) = ghd::ghw_exact_with_stats(&h, None, EngineOptions::with_threads(4));
    assert_eq!(r1.map(|(w, _)| w), r4.as_ref().map(|(w, _)| *w));
    // `engine_only` strips the runtime counters, which depend on process
    // history, not on the search.
    assert_eq!(
        s1.engine_only(),
        s4.engine_only(),
        "candgen counters drift across thread counts"
    );
    assert!(s1.cand_generated > 0, "edge-union generator ran");
    assert_eq!(s1.ub_width, Some(Rational::from(2usize)));
}
