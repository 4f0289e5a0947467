//! # hypertree-core
//!
//! The unified public API of the *General and Fractional Hypertree
//! Decompositions: Hard and Easy Cases* reproduction (Fischl, Gottlob,
//! Pichler; PODS'18).
//!
//! Re-exports every workspace crate as a module and offers a small
//! high-level layer: [`analyze_structure`] (the Section 4–6 restriction
//! criteria), [`resolve`] (one measure through its backend registry, alone
//! or as a portfolio race), [`exact_widths`] (certified `hw`/`ghw`/`fhw`
//! for small instances) and the [`prelude`].
//!
//! ```
//! use hypertree_core::prelude::*;
//!
//! // The paper's Example 4.3 hypergraph: ghw = 2 but hw = 3.
//! let h = hypergraph::generators::example_4_3();
//! let widths = hypertree_core::exact_widths(&h, 6).unwrap();
//! assert_eq!(widths.hw, 3);
//! assert_eq!(widths.ghw, 2);
//! assert!(widths.fhw <= Rational::from(2usize));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use arith;
pub use candgen;
pub use cover;
pub use decomp;
pub use fhd;
pub use ghd;
pub use hd;
pub use hypergraph;
pub use lp;
pub use prep;
pub use reduction;
pub use solver;

use arith::Rational;
use hypergraph::{properties, Hypergraph};
use solver::backend::{Measure, WidthRequest};
use solver::portfolio::RaceReport;
use std::time::Duration;

/// Frequently used items in one import.
pub mod prelude {
    pub use arith::{rat, BigInt, Rational};
    pub use cover::{fractional_cover, integral_cover, rho, rho_star, tau, tau_star};
    pub use decomp::{validate_fhd, validate_ghd, validate_hd, Decomposition, Node};
    pub use fhd::{check_fhd_bdp, fhw_approximation, fhw_exact, frac_decomp, FracDecompParams};
    pub use ghd::{check_ghd_bip, ghw_exact, GhdAnswer, SubedgeLimits};
    pub use hd::{check_hd, hypertree_width};
    pub use hypergraph::{self, Hypergraph, VertexSet};
    pub use reduction::{Cnf, Literal};
}

/// Structural profile of a hypergraph against the paper's restriction
/// criteria (BIP, BMIP, BDP, VC-dimension, α-acyclicity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StructureReport {
    /// `|V(H)|`.
    pub num_vertices: usize,
    /// `|E(H)|`.
    pub num_edges: usize,
    /// Maximum edge size.
    pub rank: usize,
    /// Degree (BDP parameter `d`).
    pub degree: usize,
    /// Intersection width (BIP parameter `i`).
    pub intersection_width: usize,
    /// `c`-multi-intersection widths for `c = 2, 3, 4`.
    pub multi_intersection_widths: [usize; 3],
    /// VC-dimension (`None` when the instance is too large to compute).
    pub vc_dimension: Option<usize>,
    /// α-acyclicity (equivalent to `hw = ghw = fhw = 1`).
    pub alpha_acyclic: bool,
}

/// Computes the [`StructureReport`]. The VC-dimension is skipped above
/// `vc_limit` vertices (it is itself an exponential computation).
pub fn analyze_structure(h: &Hypergraph, vc_limit: usize) -> StructureReport {
    StructureReport {
        num_vertices: h.num_vertices(),
        num_edges: h.num_edges(),
        rank: properties::rank(h),
        degree: properties::degree(h),
        intersection_width: properties::intersection_width(h),
        multi_intersection_widths: [
            properties::multi_intersection_width(h, 2),
            properties::multi_intersection_width(h, 3),
            properties::multi_intersection_width(h, 4),
        ],
        vc_dimension: (h.num_vertices() <= vc_limit).then(|| properties::vc_dimension(h)),
        alpha_acyclic: properties::is_alpha_acyclic(h),
    }
}

/// Certified exact widths of a (small) hypergraph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactWidths {
    /// Hypertree width (`det-k-decomp` on the shared search engine).
    pub hw: usize,
    /// Generalized hypertree width (shared-engine subset search with `rho`).
    pub ghw: usize,
    /// Fractional hypertree width (shared-engine subset search with
    /// `rho*`), exact rational.
    pub fhw: Rational,
}

/// Computes `hw`, `ghw` and `fhw` exactly; `None` when the instance exceeds
/// the exact engines' size limits or `hw > max_hw`.
///
/// Each measure is one [`resolve`] call with the default
/// [`solver::EngineOptions`] and no portfolio: the registry's default
/// backend (`det-k-decomp` for `hw`, the shared-engine subset searches
/// priced by `rho` and `rho*` for `ghw` and `fhw`) runs alone.
pub fn exact_widths(h: &Hypergraph, max_hw: usize) -> Option<ExactWidths> {
    let width = |measure| {
        resolve(h, measure, solver::EngineOptions::default(), false, None)
            .outcome
            .width
    };
    let integral = |w: Rational| w.floor().to_i64().unwrap_or(0).max(0) as usize;
    let [hw, ghw, fhw] = width_measures(max_hw);
    Some(ExactWidths {
        hw: integral(width(hw)?),
        ghw: integral(width(ghw)?),
        fhw: width(fhw)?,
    })
}

/// The portfolio registry: the [`solver::backend::Backend`]s worth racing
/// for the given measure, in admission order (the always-eligible default
/// first): `iterate` for `hw`, `engine` + `elim` for `ghw` and `fhw`.
/// This is the one place the three measures' backend sets are wired
/// together; [`resolve`] hands the list to [`solver::portfolio::race`].
pub fn backends_for(measure: &Measure) -> Vec<Box<dyn solver::backend::Backend>> {
    match measure {
        Measure::Hw { .. } => hd::backends::backends(),
        Measure::Ghw { .. } => ghd::backends::backends(),
        Measure::Fhw { .. } => fhd::backends::fhw_backends(),
    }
}

/// The three measures of a widths query, in resolution order: `hw` (up to
/// `max_hw`), then unbounded `ghw` and `fhw`.
pub fn width_measures(max_hw: usize) -> [Measure; 3] {
    [
        Measure::Hw { max_k: max_hw },
        Measure::Ghw { cutoff: None },
        Measure::Fhw { cutoff: None },
    ]
}

/// Resolves one measure on `h`: the one path every front end (`hgtool
/// widths`, serve's `/solve`, [`exact_widths`]) takes.
///
/// With `portfolio`, every member of [`backends_for`] races under
/// `deadline` (first exact answer wins, losers are cancelled). Without,
/// only the always-eligible default member (`iterate` / `engine`) runs —
/// a race of one, inline on the calling thread, calling the same
/// `*_with_stats` function as a direct call, so widths, witnesses and
/// engine counters are identical to it.
///
/// A race that ends unresolved because the caller's ambient cancellation
/// token fired (a request deadline, a drain) re-raises the interrupt, as
/// the engine root would outside a race; an unresolved race under its own
/// `deadline` only returns an unresolved report carrying the best bounds.
pub fn resolve(
    h: &Hypergraph,
    measure: Measure,
    opts: solver::EngineOptions,
    portfolio: bool,
    deadline: Option<Duration>,
) -> RaceReport {
    let mut backends = backends_for(&measure);
    if !portfolio {
        backends.truncate(1);
    }
    let report = solver::portfolio::race(h, &WidthRequest { measure, opts }, &backends, deadline);
    if report.winner.is_none() && report.canceled > 0 && solver::backend::interrupted() {
        solver::backend::interrupt::raise();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    #[test]
    fn example_4_3_headline_numbers() {
        let h = generators::example_4_3();
        let w = exact_widths(&h, 5).unwrap();
        assert_eq!(w.hw, 3);
        assert_eq!(w.ghw, 2);
        assert!(w.fhw <= Rational::from(2usize) && w.fhw > Rational::one());
        let s = analyze_structure(&h, 16);
        assert_eq!(s.intersection_width, 1);
        assert_eq!(s.multi_intersection_widths, [1, 1, 0]);
        assert!(!s.alpha_acyclic);
    }

    #[test]
    fn width_hierarchy_everywhere() {
        for h in [
            generators::cycle(5),
            generators::clique(5),
            generators::triangle_chain(2),
            generators::example_5_1(4),
        ] {
            let w = exact_widths(&h, 6).unwrap();
            assert!(w.fhw <= Rational::from(w.ghw));
            assert!(w.ghw <= w.hw);
            assert!(w.hw <= 3 * w.ghw + 1);
        }
    }

    #[test]
    fn structure_report_on_acyclic() {
        let h = generators::cq_chain(4, 3, 1);
        let s = analyze_structure(&h, 16);
        assert!(s.alpha_acyclic);
        assert_eq!(s.rank, 3);
    }
}
