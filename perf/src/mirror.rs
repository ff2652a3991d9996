//! The harness's own copy of a directed graph under a delta stream.
//!
//! It is updated off the clock as each batch is generated, so batches
//! stay valid (removals name edges that exist, weight changes go up) and
//! the sequential oracle has a graph to run on at the end. Parallel
//! copies of an edge are folded to their count and minimum weight: that
//! is all SSSP and CC can see, and it is what `remove_edge` (drops every
//! copy) and `set_weight` (overwrites every copy) act on.

use crate::adapter::{self, Graph};
use crate::loadgen::Rng;
use std::collections::{HashMap, HashSet};

#[derive(Clone, Copy)]
struct Edge {
    min_w: u32,
    copies: u32,
    /// Position in `keys`, for O(1) uniform picks and removals.
    slot: u32,
}

pub struct Mirror {
    n: usize,
    edges: HashMap<u64, Edge>,
    keys: Vec<u64>,
    copies: usize,
}

fn key(u: u32, v: u32) -> u64 {
    (u as u64) << 32 | v as u64
}

fn ends(k: u64) -> (u32, u32) {
    ((k >> 32) as u32, k as u32)
}

impl Mirror {
    pub fn of(g: &Graph) -> Mirror {
        assert!(g.is_directed(), "the mirror folds directed edges only");
        let mut m = Mirror {
            n: g.num_vertices(),
            edges: HashMap::with_capacity(g.num_edges()),
            keys: Vec::with_capacity(g.num_edges()),
            copies: 0,
        };
        for (u, v, w) in adapter::graph_edges(g) {
            m.add(u, v, w);
        }
        m
    }

    pub fn vertices(&self) -> usize {
        self.n
    }

    /// Stored edges, parallel copies counted.
    pub fn edge_copies(&self) -> usize {
        self.copies
    }

    fn add(&mut self, u: u32, v: u32, w: u32) {
        self.copies += 1;
        let slot = self.keys.len() as u32;
        match self.edges.entry(key(u, v)) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let e = e.get_mut();
                e.copies += 1;
                e.min_w = e.min_w.min(w);
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Edge { min_w: w, copies: 1, slot });
                self.keys.push(key(u, v));
            }
        }
    }

    fn remove(&mut self, k: u64) {
        let e = self.edges.remove(&k).expect("removals name existing edges");
        self.copies -= e.copies as usize;
        self.keys.swap_remove(e.slot as usize);
        if let Some(&moved) = self.keys.get(e.slot as usize) {
            self.edges.get_mut(&moved).expect("key list and map agree").slot = e.slot;
        }
    }

    /// `count` new edges with distinct endpoints pairs, both ends drawn
    /// from `pool` (all vertices when `None`), weights in `1..=100`.
    pub fn insert_batch(
        &mut self,
        count: usize,
        pool: Option<&[u32]>,
        rng: &mut Rng,
    ) -> Vec<(u32, u32, u32)> {
        let pick = |rng: &mut Rng| match pool {
            Some(p) => p[rng.below(p.len() as u64) as usize],
            None => rng.below(self.n as u64) as u32,
        };
        let mut seen = HashSet::with_capacity(count);
        let mut adds = Vec::with_capacity(count);
        while adds.len() < count {
            let (u, v) = (pick(rng), pick(rng));
            if u != v && seen.insert(key(u, v)) {
                adds.push((u, v, 1 + rng.below(100) as u32));
            }
        }
        for &(u, v, w) in &adds {
            self.add(u, v, w);
        }
        adds
    }

    /// Remove uniformly picked edges until at least `copies` stored
    /// copies are gone, and raise the weight of `increases` others.
    #[allow(clippy::type_complexity)]
    pub fn remove_batch(
        &mut self,
        copies: usize,
        increases: usize,
        rng: &mut Rng,
    ) -> (Vec<(u32, u32)>, Vec<(u32, u32, u32)>) {
        let target = self.copies.saturating_sub(copies);
        let mut removes = Vec::new();
        while self.copies > target && !self.keys.is_empty() {
            let k = self.keys[rng.below(self.keys.len() as u64) as usize];
            self.remove(k);
            removes.push(ends(k));
        }
        let mut raised = HashSet::with_capacity(increases);
        let mut setw = Vec::with_capacity(increases);
        while setw.len() < increases.min(self.keys.len()) {
            let k = self.keys[rng.below(self.keys.len() as u64) as usize];
            if raised.insert(k) {
                let e = self.edges.get_mut(&k).expect("key list and map agree");
                e.min_w += 1 + rng.below(50) as u32;
                let (u, v) = ends(k);
                setw.push((u, v, e.min_w));
            }
        }
        (removes, setw)
    }

    /// The mirrored graph, one edge per distinct pair at its minimum
    /// weight — equal to the real graph for SSSP and CC.
    pub fn to_graph(&self) -> Graph {
        adapter::graph_from_edges(
            self.n,
            true,
            self.keys.iter().map(|&k| {
                let (u, v) = ends(k);
                (u, v, self.edges[&k].min_w)
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Mirror {
        // 0->1 twice (weights 5 and 3), 1->2, 2->3, 3->0.
        let g = adapter::graph_from_edges(
            5,
            true,
            [(0, 1, 5), (0, 1, 3), (1, 2, 4), (2, 3, 6), (3, 0, 7)].into_iter(),
        );
        Mirror::of(&g)
    }

    #[test]
    fn folds_parallel_copies_and_rebuilds() {
        let m = small();
        assert_eq!(m.edge_copies(), 5);
        assert_eq!(m.keys.len(), 4);
        let g = m.to_graph();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(adapter::seq_dijkstra(&g, 0)[..4], [0, 3, 7, 13]);
    }

    #[test]
    fn batches_keep_map_and_key_list_in_step() {
        let mut m = small();
        let mut rng = Rng::new(9);
        let adds = m.insert_batch(6, None, &mut rng);
        assert_eq!(adds.len(), 6);
        assert!(adds.iter().all(|&(u, v, w)| u != v && u < 5 && v < 5 && (1..=100).contains(&w)));
        assert_eq!(m.edge_copies(), 11);
        let local = m.insert_batch(2, Some(&[1, 2, 3]), &mut rng);
        assert!(local.iter().all(|&(u, v, _)| (1..=3).contains(&u) && (1..=3).contains(&v)));
        let before = m.edge_copies();
        let (removes, setw) = m.remove_batch(4, 2, &mut rng);
        assert!(before - m.edge_copies() >= 4);
        assert!(!removes.is_empty() && setw.len() == 2);
        for (u, v) in removes {
            assert!(!m.edges.contains_key(&key(u, v)));
        }
        for (u, v, w) in setw {
            assert_eq!(m.edges[&key(u, v)].min_w, w);
        }
        assert_eq!(m.keys.len(), m.edges.len());
        for (i, k) in m.keys.iter().enumerate() {
            assert_eq!(m.edges[k].slot as usize, i);
        }
        assert_eq!(m.edges.values().map(|e| e.copies as usize).sum::<usize>(), m.edge_copies());
    }
}
