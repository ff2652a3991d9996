//! Delta validation: reject a [`GraphDelta`] that cannot apply to a
//! fragment set before anything is planned or mutated.
//!
//! The apply path ([`crate::apply_to_fragments_par`]) treats a malformed
//! delta as a caller bug and panics; [`validate`] is the check that turns
//! the same conditions into an `Err` for callers handling untrusted
//! deltas (`aap-session`'s `Session::apply`).

use crate::ops::GraphDelta;
use aap_graph::{Fragment, VertexId};
use std::borrow::Borrow;

/// A delta op that cannot apply to the fragment set it was checked
/// against (see [`validate`]). Each variant names the offending op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidDelta {
    /// An edge op names a vertex that neither exists nor is added by
    /// the same delta.
    UnknownEndpoint {
        /// `"add_edge"`, `"remove_edge"` or `"set_weight"`.
        op: &'static str,
        /// The edge's source.
        u: VertexId,
        /// The edge's target.
        v: VertexId,
    },
    /// `remove_vertex` names a vertex that does not exist.
    UnknownVertex(VertexId),
    /// `add_vertex` names an id that already exists.
    VertexExists(VertexId),
    /// `add_vertex` ids do not extend the dense id space contiguously.
    NotContiguous {
        /// The id the delta adds.
        id: VertexId,
        /// The id the next added vertex must have.
        expected: u64,
    },
}

impl std::fmt::Display for InvalidDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidDelta::UnknownEndpoint { op, u, v } => {
                write!(f, "{op}({u}, {v}) names a vertex that does not exist")
            }
            InvalidDelta::UnknownVertex(v) => {
                write!(f, "remove_vertex({v}) names a vertex that does not exist")
            }
            InvalidDelta::VertexExists(v) => write!(f, "add_vertex({v}): the vertex exists"),
            InvalidDelta::NotContiguous { id, expected } => {
                write!(f, "add_vertex({id}): new ids must extend the id space, expected {expected}")
            }
        }
    }
}

impl std::error::Error for InvalidDelta {}

/// Check that `delta` can apply to `frags`: every edge endpoint exists
/// or is added by the delta, every removed vertex exists, and the added
/// ids are new and extend `0..n` contiguously (`n` = the vertices the
/// fragments own). Fragment ids are dense, so this is `O(|delta| + m)`.
///
/// # Errors
/// The first offending op, in the order: added vertices, removed
/// vertices, then edge inserts, removals and weight updates.
pub fn validate<V, E, F: Borrow<Fragment<V, E>>>(
    frags: &[F],
    delta: &GraphDelta<V, E>,
) -> Result<(), InvalidDelta> {
    let n: u64 = frags.iter().map(|f| f.borrow().owned_count() as u64).sum();
    let mut expected = n;
    for &(id, _) in delta.vertices_added() {
        if (id as u64) < n {
            return Err(InvalidDelta::VertexExists(id));
        }
        if id as u64 != expected {
            return Err(InvalidDelta::NotContiguous { id, expected });
        }
        expected += 1;
    }
    if let Some(&v) = delta.vertices_removed().iter().find(|&&v| v as u64 >= n) {
        return Err(InvalidDelta::UnknownVertex(v));
    }
    let known = |(u, v): (VertexId, VertexId)| (u as u64) < expected && (v as u64) < expected;
    let edges = (delta.edges_added().iter().map(|e| ("add_edge", e.0, e.1)))
        .chain(delta.edges_removed().iter().map(|e| ("remove_edge", e.0, e.1)))
        .chain(delta.weight_updates().iter().map(|e| ("set_weight", e.0, e.1)));
    for (op, u, v) in edges {
        if !known((u, v)) {
            return Err(InvalidDelta::UnknownEndpoint { op, u, v });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeltaBuilder;
    use aap_graph::generate;
    use aap_graph::partition::{build_fragments_n, hash_partition};

    #[test]
    fn names_the_first_bad_op() {
        let g = generate::small_world(10, 2, 0.1, 1);
        let frags = build_fragments_n(&g, &hash_partition(&g, 2), 2);
        let check = |b: &mut DeltaBuilder<(), u32>| validate(&frags, &std::mem::take(b).build());
        let mut b = DeltaBuilder::new();
        assert_eq!(check(b.add_edge(0, 9, 1)), Ok(()));
        assert_eq!(check(b.add_vertex(10, ()).add_edge(10, 0, 1)), Ok(()));
        assert_eq!(
            check(b.set_weight(3, 10, 1)),
            Err(InvalidDelta::UnknownEndpoint { op: "set_weight", u: 3, v: 10 })
        );
        assert_eq!(check(b.remove_vertex(10)), Err(InvalidDelta::UnknownVertex(10)));
        assert_eq!(check(b.add_vertex(9, ())), Err(InvalidDelta::VertexExists(9)));
        assert_eq!(
            check(b.add_vertex(11, ())),
            Err(InvalidDelta::NotContiguous { id: 11, expected: 10 })
        );
    }
}
