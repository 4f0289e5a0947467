//! The `ghw` members of the width-backend portfolio.
//!
//! Two [`Backend`]s resolve [`Measure::Ghw`] requests, each reusing the
//! corresponding `_with_stats` path (so a backend's answer is
//! byte-identical to calling that path directly, and repeated or
//! concurrent identical runs deduplicate through the result cache —
//! note the `;backend=` slot in every cache key):
//!
//! * `engine` — the default hybrid: heuristic seed, edge-union engine
//!   under the seeded cutoff, elimination-DP fallback. Always eligible.
//! * `elim` — the elimination-order DP alone (≤ 24 vertices), the
//!   faster member on small dense instances.

use crate::exact::{ghw_exact_elimination_with_stats, ghw_exact_with_stats};
use arith::Rational;
use decomp::Decomposition;
use hypergraph::Hypergraph;
use solver::backend::{Backend, BackendId, Measure, Outcome, RunCtl, WidthRequest};
use solver::SearchStats;

/// The `ghw` portfolio, in admission order (the always-eligible engine
/// first).
pub fn backends() -> Vec<Box<dyn Backend>> {
    vec![Box::new(Engine), Box::new(Elimination)]
}

fn cutoff_of(req: &WidthRequest) -> Option<usize> {
    match req.measure {
        Measure::Ghw { cutoff } => cutoff,
        ref m => unreachable!("ghw backend asked for {m:?}"),
    }
}

/// Converts a `(width, witness)` minimizer answer into an [`Outcome`]:
/// `None` from these complete searches means "no decomposition within
/// the cutoff" when one was set, and "out of range" when searching
/// unbounded.
fn outcome_of(
    id: BackendId,
    bounded: bool,
    result: Option<(usize, Decomposition)>,
    stats: SearchStats,
) -> Outcome {
    match result {
        Some((w, d)) => Outcome::exact(id, Rational::from(w), d, stats),
        None if bounded => Outcome::certified_no(id, stats),
        None => Outcome::unresolved(id, stats),
    }
}

struct Engine;

impl Backend for Engine {
    fn id(&self) -> BackendId {
        "engine"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let cutoff = cutoff_of(req);
        let (result, stats) = ghw_exact_with_stats(h, cutoff, req.opts);
        // The hybrid's `None` is definitive under a cutoff; unbounded, it
        // means every exact path was out of range.
        outcome_of(self.id(), cutoff.is_some(), result, stats)
    }
}

struct Elimination;

impl Backend for Elimination {
    fn id(&self) -> BackendId {
        "elim"
    }

    fn eligible(&self, h: &Hypergraph, _req: &WidthRequest) -> bool {
        // Conservative pre-prep gate; preprocessing only shrinks blocks.
        h.num_vertices() <= crate::elimination::MAX_EXACT_VERTICES
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let cutoff = cutoff_of(req);
        let (result, stats) = ghw_exact_elimination_with_stats(h, cutoff, req.opts);
        outcome_of(self.id(), cutoff.is_some(), result, stats)
    }
}
