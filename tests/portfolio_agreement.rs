//! Agreement suite for the backend portfolio: racing a measure's backend
//! registry must be indistinguishable — width for width, witness
//! validity for witness validity — from running any single backend alone,
//! for `hw`, `ghw` and `fhw`, and must match the independent
//! subset-enumeration oracles on the instances they reach. Also checks
//! the anytime contract: the merged bound trace is monotone (lower bounds
//! nondecreasing, upper bounds nonincreasing), every race that ends in an
//! exact answer closes its bounds at `lb == ub == width`, and the
//! winner's witness re-validates on the original instance.
//!
//! Runs in the `HGTOOL_THREADS={1,4}` CI matrix (plus a dedicated
//! 8-thread step): backends inherit the engine's thread-count
//! determinism, so the race's *answers* are schedule-independent even
//! though the *winner* is not.

use hypertree::arith::Rational;
use hypertree::decomp::validate;
use hypertree::hypergraph::{generators, Hypergraph};
use hypertree::solver::backend::BackendId;
use hypertree::solver::backend::{execute, BoundEvent, Measure, Outcome, RunCtl, WidthRequest};
use hypertree::solver::portfolio::{race, RaceReport};
use hypertree::solver::{EngineOptions, MAX_SUBSET_ORACLE_VERTICES};
use hypertree::{fhd, ghd};
use proptest::prelude::*;

/// Random small hypergraphs, the same families as the other agreement
/// suites.
fn arb_hypergraph() -> impl Strategy<Value = Hypergraph> {
    (3usize..8, 0u64..400).prop_map(|(n, seed)| match seed % 6 {
        0 => generators::random_bip(n + 3, n, 2, 3, seed),
        1 => generators::random_bounded_degree(n + 3, n, 3, 3, seed),
        2 => generators::random_acyclic(n, 3, seed),
        3 => generators::triangle_chain(n.min(4)),
        4 => generators::cq_chain(n, 3, 1),
        _ => generators::cycle(n),
    })
}

fn request(measure: Measure) -> WidthRequest {
    WidthRequest {
        measure,
        opts: EngineOptions::default(),
    }
}

/// Runs every registered backend alone (fresh control channel each) and
/// returns the outcomes of those that were eligible.
fn solo_outcomes(h: &Hypergraph, req: &WidthRequest) -> Vec<Outcome> {
    hypertree::backends_for(&req.measure)
        .iter()
        .filter(|b| b.eligible(h, req))
        .map(|b| execute(b.as_ref(), h, req, &RunCtl::default()))
        .collect()
}

/// The anytime contract on a finished race: monotone bound trace, and on
/// an exact win the bounds closed at `lb == ub == width`.
fn assert_anytime_contract(r: &RaceReport) -> Result<(), TestCaseError> {
    let mut last_lower: Option<Rational> = None;
    let mut last_upper: Option<Rational> = None;
    for event in &r.trace {
        match event {
            BoundEvent::Lower(w) => {
                if let Some(prev) = &last_lower {
                    prop_assert!(w >= prev, "lower bounds must be nondecreasing");
                }
                last_lower = Some(w.clone());
            }
            BoundEvent::Upper(w) => {
                if let Some(prev) = &last_upper {
                    prop_assert!(w <= prev, "upper bounds must be nonincreasing");
                }
                last_upper = Some(w.clone());
            }
        }
    }
    prop_assert_eq!(&r.bounds.lower, &last_lower, "snapshot matches the trace");
    prop_assert_eq!(&r.bounds.upper, &last_upper, "snapshot matches the trace");
    if let Some(w) = &r.outcome.width {
        prop_assert_eq!(
            r.bounds.lower.as_ref(),
            Some(w),
            "exact win closes the lower bound"
        );
        prop_assert_eq!(
            r.bounds.upper.as_ref(),
            Some(w),
            "exact win closes the upper bound"
        );
    }
    Ok(())
}

/// Whether the subset-enumeration oracles routinely reach `h`.
fn oracle_eligible(h: &Hypergraph) -> bool {
    h.num_vertices() <= MAX_SUBSET_ORACLE_VERTICES
}

/// Portfolio width == every solo backend's width (on the instances where
/// that backend resolves), for the three minimizing measures.
fn assert_width_agreement(
    h: &Hypergraph,
    measure: Measure,
) -> Result<(RaceReport, Vec<Outcome>), TestCaseError> {
    let req = request(measure);
    let backends = hypertree::backends_for(&req.measure);
    let report = race(h, &req, &backends, None);
    let solos = solo_outcomes(h, &req);
    for solo in &solos {
        if solo.resolved {
            prop_assert_eq!(
                &report.outcome.width,
                &solo.width,
                "portfolio disagrees with solo backend {} on {:?}",
                solo.provenance,
                h
            );
        }
    }
    assert_anytime_contract(&report)?;
    Ok((report, solos))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hw_portfolio_agrees_with_every_backend(h in arb_hypergraph()) {
        let (report, solos) = assert_width_agreement(&h, Measure::Hw { max_k: 6 })?;
        if let (Some(w), Some(d)) = (&report.outcome.width, &report.outcome.witness) {
            prop_assert_eq!(validate::validate_hd(&h, d), Ok(()), "portfolio hw witness");
            prop_assert!(d.width() <= *w);
            // The race runs the same deterministic ladder as the solo
            // backend, so even the witnesses are byte-identical.
            for solo in &solos {
                if solo.resolved {
                    prop_assert_eq!(solo.witness.as_ref(), Some(d),
                        "hw witnesses must be byte-identical across backends");
                }
            }
        }
    }

    #[test]
    fn ghw_portfolio_agrees_with_every_backend(h in arb_hypergraph()) {
        let (report, solos) = assert_width_agreement(&h, Measure::Ghw { cutoff: None })?;
        if oracle_eligible(&h) {
            let oracle = ghd::ghw_exact_subset_oracle(&h, None).map(|(w, _)| Rational::from(w));
            prop_assert_eq!(&report.outcome.width, &oracle, "portfolio vs ghw oracle on {:?}", h);
        }
        if let (Some(w), Some(d)) = (&report.outcome.width, &report.outcome.witness) {
            prop_assert_eq!(validate::validate_ghd(&h, d), Ok(()), "portfolio ghw witness");
            prop_assert!(d.width() <= *w);
        }
        // Solo witnesses may legitimately differ by backend (different
        // exact algorithms, same width); each must still validate.
        for solo in &solos {
            if let Some(d) = &solo.witness {
                prop_assert_eq!(validate::validate_ghd(&h, d), Ok(()),
                    "solo {} ghw witness", solo.provenance);
            }
        }
    }

    #[test]
    fn fhw_portfolio_agrees_with_every_backend(h in arb_hypergraph()) {
        let (report, solos) = assert_width_agreement(&h, Measure::Fhw { cutoff: None })?;
        if oracle_eligible(&h) {
            let oracle = fhd::fhw_exact_subset_oracle(&h, None).map(|(w, _)| w);
            prop_assert_eq!(&report.outcome.width, &oracle, "portfolio vs fhw oracle on {:?}", h);
        }
        if let (Some(w), Some(d)) = (&report.outcome.width, &report.outcome.witness) {
            prop_assert_eq!(validate::validate_fhd(&h, d), Ok(()), "portfolio fhw witness");
            prop_assert!(d.width() <= *w);
        }
        for solo in &solos {
            if let Some(d) = &solo.witness {
                prop_assert_eq!(validate::validate_fhd(&h, d), Ok(()),
                    "solo {} fhw witness", solo.provenance);
            }
        }
    }
}

/// The registries race exactly the members that win on the hard tier.
#[test]
fn registries_race_the_winning_backends() {
    let ids = |measure: Measure| -> Vec<BackendId> {
        hypertree::backends_for(&measure)
            .iter()
            .map(|b| b.id())
            .collect()
    };
    assert_eq!(ids(Measure::Hw { max_k: 6 }), ["iterate"]);
    assert_eq!(ids(Measure::Ghw { cutoff: None }), ["engine", "elim"]);
    assert_eq!(ids(Measure::Fhw { cutoff: None }), ["engine", "elim"]);
}
