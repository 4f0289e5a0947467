//! The `fhw` members of the width-backend portfolio.
//!
//! They mirror the `ghw` pair, each reusing the corresponding
//! `_with_stats` path, so a backend's answer is byte-identical to calling
//! that path directly and concurrent identical runs dedup through the
//! result cache (note the `;backend=` slot in the cache keys):
//!
//! * `engine` — hybrid prefix + subset tail, DP fallback. Always
//!   eligible.
//! * `elim` — the elimination DP alone (≤ 24 vertices), the faster
//!   member on small instances.

use crate::exact::{fhw_exact_elimination_with_stats, fhw_exact_with_stats};
use arith::Rational;
use decomp::Decomposition;
use hypergraph::Hypergraph;
use solver::backend::{Backend, BackendId, Measure, Outcome, RunCtl, WidthRequest};
use solver::SearchStats;

/// The `fhw` portfolio, in admission order (the always-eligible engine
/// first).
pub fn fhw_backends() -> Vec<Box<dyn Backend>> {
    vec![Box::new(FhwEngine), Box::new(FhwElimination)]
}

fn fhw_cutoff(req: &WidthRequest) -> Option<Rational> {
    match &req.measure {
        Measure::Fhw { cutoff } => cutoff.clone(),
        m => unreachable!("fhw backend asked for {m:?}"),
    }
}

/// `(width, witness)` minimizer answer → [`Outcome`] (the `ghw` pair's
/// logic: `None` certifies "> cutoff" when one was set).
fn outcome_of(
    id: BackendId,
    bounded: bool,
    result: Option<(Rational, Decomposition)>,
    stats: SearchStats,
) -> Outcome {
    match result {
        Some((w, d)) => Outcome::exact(id, w, d, stats),
        None if bounded => Outcome::certified_no(id, stats),
        None => Outcome::unresolved(id, stats),
    }
}

struct FhwEngine;

impl Backend for FhwEngine {
    fn id(&self) -> BackendId {
        "engine"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let cutoff = fhw_cutoff(req);
        let bounded = cutoff.is_some();
        let (result, stats) = fhw_exact_with_stats(h, cutoff, req.opts);
        outcome_of(self.id(), bounded, result, stats)
    }
}

struct FhwElimination;

impl Backend for FhwElimination {
    fn id(&self) -> BackendId {
        "elim"
    }

    fn eligible(&self, h: &Hypergraph, _req: &WidthRequest) -> bool {
        h.num_vertices() <= ghd::elimination::MAX_EXACT_VERTICES
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let cutoff = fhw_cutoff(req);
        let bounded = cutoff.is_some();
        let (result, stats) = fhw_exact_elimination_with_stats(h, cutoff, req.opts);
        outcome_of(self.id(), bounded, result, stats)
    }
}
