//! Malformed deltas return `Err`, never panic: `Session::apply`
//! validates every delta against the session's graph before anything is
//! planned, mutated or logged. Hand-written deltas against a 40-vertex
//! small-world session serving SSSP and CC, on both partition kinds:
//! each invalid one returns `SessionError::InvalidDelta` naming its op,
//! and both programs then answer exactly as before the call; the valid
//! ones (odd but well-formed) apply as usual.

use grape_aap::delta::InvalidDelta;
use grape_aap::prelude::*;

type Ops = fn(&mut DeltaBuilder<(), u32>) -> &mut DeltaBuilder<(), u32>;

fn delta(ops: Ops) -> GraphDelta<(), u32> {
    let mut b = DeltaBuilder::new();
    ops(&mut b);
    b.build()
}

#[test]
fn malformed_deltas_are_rejected_before_anything_changes() {
    let g = grape_aap::graph::generate::small_world(40, 2, 0.2, 5);
    let far = u32::MAX - 1;
    let invalid = [
        (
            delta(|b| b.add_edge(3, 1000, 1)),
            InvalidDelta::UnknownEndpoint { op: "add_edge", u: 3, v: 1000 },
        ),
        (
            delta(|b| b.add_edge(3, u32::MAX - 1, 1)),
            InvalidDelta::UnknownEndpoint { op: "add_edge", u: 3, v: far },
        ),
        (delta(|b| b.remove_vertex(1000)), InvalidDelta::UnknownVertex(1000)),
        (delta(|b| b.add_vertex(1000, ())), InvalidDelta::NotContiguous { id: 1000, expected: 40 }),
        (delta(|b| b.add_vertex(3, ())), InvalidDelta::VertexExists(3)),
    ];
    // Odd but well-formed: a missing edge removed or re-weighted, a
    // self-loop, a zero weight, one edge added and removed, vertex 0
    // isolated.
    let valid = [
        delta(|b| b.remove_edge(0, 39)),
        delta(|b| b.set_weight(0, 39, 4)),
        delta(|b| b.add_edge(5, 5, 1)),
        delta(|b| b.add_edge(1, 7, 0)),
        delta(|b| b.add_edge(2, 9, 3).remove_edge(2, 9)),
        delta(|b| b.remove_vertex(0)),
    ];
    for partition in [edge_cut(4), vertex_cut(4)] {
        let mut session = Session::builder(g.clone())
            .partition(partition)
            .program("sssp", Sssp)
            .program("cc", ConnectedComponents)
            .open()
            .unwrap();
        for (bad, why) in &invalid {
            let sssp = session.query::<Sssp>("sssp", &1).unwrap();
            let cc = session.query::<ConnectedComponents>("cc", &()).unwrap();
            match session.apply(bad) {
                Err(SessionError::InvalidDelta(e)) => assert_eq!(&e, why, "{bad:?}"),
                other => panic!("{bad:?} must be rejected, got {other:?}"),
            }
            assert_eq!(session.query::<Sssp>("sssp", &1).unwrap(), sssp, "{bad:?}");
            assert_eq!(session.query::<ConnectedComponents>("cc", &()).unwrap(), cc, "{bad:?}");
        }
        for good in &valid {
            session.apply(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
    }
}
