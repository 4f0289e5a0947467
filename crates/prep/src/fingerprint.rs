//! Canonical hypergraph fingerprints for the cross-call price cache.
//!
//! The fingerprint is a 128-bit hash of the *canonicalized incidence
//! structure*: the vertex count plus the edge contents (each edge as its
//! sorted vertex list), in edge-index order. Names never enter — only the
//! structure addressable by indices does. It is deliberately **not** a
//! graph canonical form, and deliberately **not** edge-order-independent
//! either: cached prices carry vertex *and edge* indices (a `ρ*` witness
//! is a sparse weight list by edge id), so a cached value is only valid
//! for an instance with the identical numbering of both. Two hypergraphs
//! with the same edge multiset but permuted edge ids — e.g. a cycle and a
//! clique on three vertices — must not share prices.
//!
//! Collisions are not trusted: the registry stores the canonical form next
//! to the caches and compares it on every lookup (see
//! [`crate::global_cache`]), so a colliding instance never reads wrong
//! prices.

use hypergraph::Hypergraph;
use std::fmt;

/// A 128-bit hash of a hypergraph's incidence structure.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// The canonical incidence structure as one prefix-free word stream:
/// `|V|`, then per edge (in edge-index order) its length followed by its
/// sorted vertices. It identifies the instance exactly (up to names),
/// which is what the registry compares to rule out hash collisions, and
/// it is the stream both fingerprint halves hash.
pub type CanonicalForm = Vec<u64>;

/// Computes the canonical form of `h` (one allocation, sized exactly).
pub fn canonical_form(h: &Hypergraph) -> CanonicalForm {
    let edges = h.edges();
    let words = 1 + edges.len() + edges.iter().map(|e| e.len()).sum::<usize>();
    let mut canon = Vec::with_capacity(words);
    canon.push(h.num_vertices() as u64);
    for e in edges {
        canon.push(e.len() as u64);
        canon.extend(e.iter().map(|v| v as u64));
    }
    canon
}

/// 64-bit FNV-1a over a word stream, with a caller-chosen basis so two
/// passes yield independent halves of the 128-bit fingerprint.
fn fnv1a(words: &[u64], basis: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut state = basis;
    for w in words {
        for byte in w.to_le_bytes() {
            state ^= byte as u64;
            state = state.wrapping_mul(PRIME);
        }
    }
    state
}

/// Fingerprints `h` (vertex- and edge-index-sensitive, name-blind).
pub fn fingerprint(h: &Hypergraph) -> Fingerprint {
    fingerprint_of_canon(&canonical_form(h))
}

/// Fingerprints an already-canonicalized incidence structure.
pub fn fingerprint_of_canon(canon: &CanonicalForm) -> Fingerprint {
    let lo = fnv1a(canon, 0xcbf2_9ce4_8422_2325);
    let hi = fnv1a(canon, 0x6c62_272e_07bb_0142);
    Fingerprint(((hi as u128) << 64) | lo as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_order_matters_because_prices_are_index_addressed() {
        // A cached cover is a weight list by *edge id*, so instances with
        // permuted edge ids (cycle vs clique on 3 vertices!) must not
        // share a fingerprint.
        let a = Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2]]);
        let b = Hypergraph::from_edges(3, vec![vec![1, 2], vec![0, 1]]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn vertex_order_inside_an_edge_does_not_matter() {
        let a = Hypergraph::from_edges(3, vec![vec![0, 1, 2]]);
        let b = Hypergraph::from_edges(3, vec![vec![2, 0, 1]]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn structure_matters() {
        let a = Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2]]);
        let b = Hypergraph::from_edges(3, vec![vec![0, 1], vec![0, 2]]);
        let c = Hypergraph::from_edges(4, vec![vec![0, 1], vec![1, 2]]);
        assert_ne!(fingerprint(&a), fingerprint(&b), "different incidence");
        assert_ne!(fingerprint(&a), fingerprint(&c), "different vertex count");
    }

    #[test]
    fn names_do_not_matter() {
        let a = Hypergraph::from_parts(
            vec!["x".into(), "y".into()],
            vec!["r".into()],
            vec![vec![0, 1]],
        );
        let b = Hypergraph::from_edges(2, vec![vec![0, 1]]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Cached keys and `hgtool prep` output depend on these exact
        // values: the canonical word stream and both FNV bases are fixed.
        let triangle = Hypergraph::from_edges(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        let grid = hypergraph::generators::grid(3, 3);
        let wide = Hypergraph::from_edges(80, vec![vec![79, 0, 65], vec![3], vec![64, 63, 3]]);
        assert_eq!(fingerprint(&triangle).0, 0xa9cbe794b1ee8f83ff5ebf4b804bbda4);
        assert_eq!(fingerprint(&grid).0, 0x6302860b9227a4ab9753ab61500b302c);
        assert_eq!(fingerprint(&wide).0, 0xeeb7ffd00db752428ae697d78c9fe405);
    }
}
