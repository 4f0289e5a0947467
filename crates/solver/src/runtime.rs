//! The process-wide search runtime: batch admission control on top of the
//! shared worker pool and the cross-call result registry.
//!
//! A single search already multiplexes the process-wide worker pool (see
//! the pool plumbing in the crate root) and routes its whole-query answer
//! through `prep`'s result registry. What is left for a *batch* of
//! instances — `hgtool widths` over a corpus, the bench harness, an
//! embedding application resolving many queries — is admission control:
//! which instance to admit next. [`solve_batch`] orders admission by a
//! cheap candidate-space estimate ([`admission_estimate`], the
//! `candgen::stream_size_bound` feasibility count the strategy wrappers
//! gate the edge-union engine on), so small instances are never starved
//! behind a monster that saturates the pool for seconds, and duplicate
//! instances admitted back-to-back resolve through the result cache
//! instead of re-searching.
//!
//! Searches are admitted one at a time — each search saturates the shared
//! pool by itself, so overlapping two batch members would only thrash the
//! memo caches — but the admission *order* is the scheduling decision,
//! and results are returned in input order regardless.

use hypergraph::Hypergraph;

/// The union arity the admission estimate prices the candidate space at.
/// Three is the smallest fan-out that separates trivially-acyclic
/// instances (whose space collapses after one union) from genuinely
/// combinatorial ones; the estimate only ranks, so the absolute scale is
/// irrelevant.
const ADMISSION_UNION_ARITY: usize = 3;

/// A cheap, deterministic hardness estimate for batch admission: the size
/// of the edge-union candidate space at a small fixed fan-out, saturating
/// at [`candgen::DEFAULT_STREAM_CAP`] (everything at the cap ties and
/// falls back to the size tie-break of [`solve_batch`]).
pub fn admission_estimate(h: &Hypergraph) -> u64 {
    candgen::stream_size_bound(
        h.num_edges(),
        ADMISSION_UNION_ARITY,
        candgen::DEFAULT_STREAM_CAP,
    )
}

/// Solves a batch of instances through one runtime: admission ordered by
/// [`admission_estimate`] (ascending, ties broken by vertex count, edge
/// count, then input position — fully deterministic), executed one search
/// at a time over the shared pool, results returned in *input* order.
///
/// `solve` receives the input index alongside the instance, so callers
/// can vary per-instance parameters (cutoffs, strategy choices) while the
/// runtime owns the schedule; whatever it returns per instance (counters
/// included, if the caller wants them) comes back untouched. With result
/// reuse on, duplicate instances in one batch resolve from the result
/// cache for every admission after the first.
pub fn solve_batch<R>(
    instances: &[Hypergraph],
    mut solve: impl FnMut(usize, &Hypergraph) -> R,
) -> Vec<R> {
    let keys: Vec<(u64, usize, usize)> = instances
        .iter()
        .map(|h| (admission_estimate(h), h.num_vertices(), h.num_edges()))
        .collect();
    let mut order: Vec<usize> = (0..instances.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    let mut results: Vec<Option<R>> = (0..instances.len()).map(|_| None).collect();
    for i in order {
        results[i] = Some(solve(i, &instances[i]));
    }
    results
        .into_iter()
        .map(|r| r.expect("every admitted instance produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypergraph::generators;

    #[test]
    fn results_come_back_in_input_order() {
        let instances = vec![
            generators::clique(6),
            generators::path(3),
            generators::cycle(5),
        ];
        let mut admitted: Vec<usize> = Vec::new();
        let results = solve_batch(&instances, |i, h| {
            admitted.push(i);
            (i, h.num_edges())
        });
        // Input order out...
        let indices: Vec<usize> = results.iter().map(|(i, _)| *i).collect();
        assert_eq!(indices, vec![0, 1, 2]);
        // ...but the path (2 edges) was admitted before the cycle
        // (5 edges) before the clique (15 edges).
        assert_eq!(admitted, vec![1, 2, 0]);
    }

    #[test]
    fn estimate_orders_by_candidate_space() {
        let small = admission_estimate(&generators::path(3));
        let large = admission_estimate(&generators::clique(6));
        assert!(small < large);
    }
}
