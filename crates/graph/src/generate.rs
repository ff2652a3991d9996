//! Deterministic workload generators.
//!
//! The paper evaluates on five real-life graphs plus GTgraph-generated
//! synthetic graphs "following the power law and the small world property"
//! (§7). Those datasets are not redistributable here, so each generator
//! below produces a synthetic stand-in with the *shape* that drives the
//! experiments (see the README's "Substitutions" section):
//!
//! * [`rmat`] — R-MAT power-law graphs (Friendster / UKWeb / GTgraph
//!   stand-in);
//! * [`lattice2d`] — 2-D grid with uniform random weights, high diameter and
//!   near-uniform degree (US road network `traffic` stand-in);
//! * [`small_world`] — Watts–Strogatz rewired ring;
//! * [`uniform`] — Erdős–Rényi `G(n, m)`;
//! * [`bipartite_ratings`] — user × item rating graphs (movieLens / Netflix
//!   stand-in) with planted latent factors so CF has signal to recover.
//!
//! All generators are deterministic functions of their seed.

use crate::{Graph, GraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random positive edge weight in `1..=100`, the shape used for SSSP
/// ("we randomly assigned weights" to Friendster, §7).
fn weight(rng: &mut SmallRng) -> u32 {
    rng.gen_range(1..=100)
}

/// Erdős–Rényi style `G(n, m)` multigraph with random weights.
pub fn uniform(n: usize, m: usize, directed: bool, seed: u64) -> Graph<(), u32> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0001);
    let mut b = GraphBuilder::with_node_data(directed, vec![(); n]);
    b.reserve_edges(m);
    for _ in 0..m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        b.add_edge(u, v, weight(&mut rng));
    }
    b.build()
}

/// R-MAT power-law generator (Chakrabarti et al.), the standard model behind
/// GTgraph. `n = 2^scale` vertices and `n * edge_factor` edges with
/// partition probabilities `(a, b, c, d) = (0.57, 0.19, 0.19, 0.05)`.
pub fn rmat(scale: u32, edge_factor: usize, directed: bool, seed: u64) -> Graph<(), u32> {
    rmat_with(scale, edge_factor, directed, seed, (0.57, 0.19, 0.19, 0.05))
}

/// R-MAT with explicit quadrant probabilities.
pub fn rmat_with(
    scale: u32,
    edge_factor: usize,
    directed: bool,
    seed: u64,
    (a, b, c, _d): (f64, f64, f64, f64),
) -> Graph<(), u32> {
    let n = 1usize << scale;
    let m = n * edge_factor;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0002);
    let mut builder = GraphBuilder::with_node_data(directed, vec![(); n]);
    builder.reserve_edges(m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for level in (0..scale).rev() {
            let r: f64 = rng.gen();
            // Slightly perturb probabilities per level, as GTgraph does, to
            // avoid exact self-similar striping.
            let noise = 0.05 * (rng.gen::<f64>() - 0.5);
            let (pa, pb, pc) = (a + noise, b, c);
            if r < pa {
                // top-left: no bits set
            } else if r < pa + pb {
                v |= 1 << level;
            } else if r < pa + pb + pc {
                u |= 1 << level;
            } else {
                u |= 1 << level;
                v |= 1 << level;
            }
        }
        builder.add_edge(u as VertexId, v as VertexId, weight(&mut rng));
    }
    builder.build()
}

/// Watts–Strogatz small world: ring of `n` vertices, each linked to its `k`
/// nearest clockwise neighbours, each edge rewired with probability `p`.
/// Undirected.
pub fn small_world(n: usize, k: usize, p: f64, seed: u64) -> Graph<(), u32> {
    assert!(k >= 1 && k < n);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0003);
    let mut b = GraphBuilder::with_node_data(false, vec![(); n]);
    b.reserve_edges(n * k);
    for v in 0..n {
        for j in 1..=k {
            let mut t = (v + j) % n;
            if rng.gen::<f64>() < p {
                t = rng.gen_range(0..n);
                if t == v {
                    t = (v + 1) % n;
                }
            }
            b.add_edge(v as VertexId, t as VertexId, weight(&mut rng));
        }
    }
    b.build()
}

/// `rows × cols` 2-D lattice with uniform random weights; undirected. High
/// diameter and degree ≤ 4, like a road network.
pub fn lattice2d(rows: usize, cols: usize, seed: u64) -> Graph<(), u32> {
    let n = rows * cols;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0004);
    let mut b = GraphBuilder::with_node_data(false, vec![(); n]);
    b.reserve_edges(2 * n);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), weight(&mut rng));
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), weight(&mut rng));
            }
        }
    }
    b.build()
}

/// A bipartite rating graph for collaborative filtering.
///
/// Vertices `0..num_users` are users; `num_users..num_users + num_items`
/// are items. Directed edges run user → item carrying a rating.
#[derive(Debug, Clone)]
pub struct RatingsGraph {
    /// The directed user → item graph with ratings as edge data.
    pub graph: Graph<(), f32>,
    /// Number of user vertices (ids `0..num_users`).
    pub num_users: usize,
    /// Number of item vertices (ids `num_users..num_users+num_items`).
    pub num_items: usize,
    /// Latent dimensionality used to plant the ratings.
    pub planted_dim: usize,
}

impl RatingsGraph {
    /// First item vertex id.
    pub fn item_base(&self) -> VertexId {
        self.num_users as VertexId
    }

    /// Whether vertex `v` is an item.
    pub fn is_item(&self, v: VertexId) -> bool {
        v as usize >= self.num_users
    }
}

/// Generate ratings from planted latent factors plus noise, so SGD-based CF
/// has recoverable structure: `r(u, p) = fu · fp + ε`, clamped to `[1, 5]`.
pub fn bipartite_ratings(
    num_users: usize,
    num_items: usize,
    ratings_per_user: usize,
    dim: usize,
    seed: u64,
) -> RatingsGraph {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0005);
    let fac =
        |rng: &mut SmallRng| -> Vec<f32> { (0..dim).map(|_| rng.gen_range(0.2f32..1.0)).collect() };
    let user_f: Vec<Vec<f32>> = (0..num_users).map(|_| fac(&mut rng)).collect();
    let item_f: Vec<Vec<f32>> = (0..num_items).map(|_| fac(&mut rng)).collect();
    let n = num_users + num_items;
    let mut b = GraphBuilder::with_node_data(true, vec![(); n]);
    b.reserve_edges(num_users * ratings_per_user);
    for (u, uf) in user_f.iter().enumerate() {
        for _ in 0..ratings_per_user {
            let p = rng.gen_range(0..num_items);
            let dot: f32 = uf.iter().zip(&item_f[p]).map(|(a, b)| a * b).sum();
            let noise: f32 = rng.gen_range(-0.1..0.1);
            let r = (dot + noise).clamp(0.2, 5.0);
            b.add_edge(u as VertexId, (num_users + p) as VertexId, r);
        }
    }
    RatingsGraph { graph: b.build(), num_users, num_items, planted_dim: dim }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = rmat(8, 8, true, 42);
        let b = rmat(8, 8, true, 42);
        let c = rmat(8, 8, true, 43);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
        // Different seeds should differ somewhere.
        let differs = a.vertices().any(|v| a.neighbors(v) != c.neighbors(v));
        assert!(differs);
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(10, 16, true, 1);
        let mut degs: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
        degs.sort_unstable_by(|a, b| b.cmp(a));
        let top = degs[..10].iter().sum::<usize>() as f64;
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(top / 10.0 > 4.0 * avg, "top-10 avg degree {} vs mean {avg}", top / 10.0);
    }

    #[test]
    fn lattice_shape() {
        let g = lattice2d(5, 7, 9);
        assert_eq!(g.num_vertices(), 35);
        // interior vertex has degree 4
        let interior = (2 * 7 + 3) as VertexId;
        assert_eq!(g.degree(interior), 4);
        // corner has degree 2
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn small_world_degree() {
        let g = small_world(100, 3, 0.1, 5);
        // every vertex initiated exactly k edges; undirected doubling means
        // total stored edges = 2 * n * k
        assert_eq!(g.num_edges(), 2 * 100 * 3);
    }

    #[test]
    fn ratings_in_range() {
        let r = bipartite_ratings(50, 20, 10, 4, 3);
        assert_eq!(r.graph.num_vertices(), 70);
        assert_eq!(r.graph.num_edges(), 500);
        for (u, v, &w) in r.graph.all_edges() {
            assert!(!r.is_item(u));
            assert!(r.is_item(v));
            assert!((0.2..=5.0).contains(&w));
        }
    }

    #[test]
    fn uniform_counts() {
        let g = uniform(100, 400, true, 11);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 400);
    }
}
