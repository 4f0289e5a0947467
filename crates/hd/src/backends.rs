//! The `hw` member of the width-backend portfolio.
//!
//! `iterate` is the classic `k = 1, 2, ...` ladder of `det-k-decomp`
//! checks. It is the only `hw` backend: a lone member races inline, so
//! the portfolio answer is exactly the plain path's.

use crate::detk::hypertree_width_with_stats;
use arith::Rational;
use hypergraph::Hypergraph;
use solver::backend::{Backend, BackendId, Measure, Outcome, RunCtl, WidthRequest};

/// The `hw` portfolio.
pub fn backends() -> Vec<Box<dyn Backend>> {
    vec![Box::new(Iterate)]
}

struct Iterate;

impl Backend for Iterate {
    fn id(&self) -> BackendId {
        "iterate"
    }

    fn run(&self, h: &Hypergraph, req: &WidthRequest, _ctl: &RunCtl) -> Outcome {
        let max_k = match req.measure {
            Measure::Hw { max_k } => max_k,
            ref m => unreachable!("hw backend asked for {m:?}"),
        };
        let (result, stats) = hypertree_width_with_stats(h, max_k, req.opts);
        match result {
            Some((w, d)) => Outcome::exact(self.id(), Rational::from(w), d, stats),
            // The ladder is complete up to `max_k`, so `None` certifies
            // `hw > max_k`.
            None => Outcome::certified_no(self.id(), stats),
        }
    }
}
