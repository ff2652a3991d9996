//! Named workloads standing in for the paper's datasets (see the
//! README's "Substitutions" section). Sizes are laptop-scale; every generator is
//! deterministic, so numbers in EXPERIMENTS.md are reproducible bit-for-bit.

use aap_graph::generate::{self, RatingsGraph};
use aap_graph::Graph;

/// Friendster stand-in: power-law social network with random weights.
pub fn friendster() -> Graph<(), u32> {
    generate::rmat(14, 10, true, 0xF12E)
}

/// UKWeb stand-in: denser power-law web graph.
pub fn ukweb() -> Graph<(), u32> {
    generate::rmat(13, 16, true, 0x0E8B)
}

/// US-road-network (`traffic`) stand-in: high-diameter 2-D lattice.
pub fn traffic() -> Graph<(), u32> {
    generate::lattice2d(80, 80, 0x7AF)
}

/// movieLens stand-in: small bipartite rating graph.
pub fn movielens() -> RatingsGraph {
    generate::bipartite_ratings(600, 120, 24, 8, 0x31)
}

/// Netflix stand-in: larger bipartite rating graph.
pub fn netflix() -> RatingsGraph {
    generate::bipartite_ratings(1500, 300, 32, 8, 0x4F)
}

/// Synthetic scale series for the scale-up experiments (Fig 6(i)/(j)):
/// graph size grows with the worker count.
pub fn scaled_powerlaw(workers: usize) -> Graph<(), u32> {
    let scale = 9 + (workers / 64).min(4) as u32;
    generate::rmat(scale, 10, true, 0x5CA1E + workers as u64)
}

/// The largest synthetic graph used by Fig 6(l).
pub fn big_synthetic() -> Graph<(), u32> {
    generate::rmat(14, 12, true, 0xB16)
}

#[cfg(test)]
mod tests {
    #[test]
    fn workloads_have_expected_shapes() {
        let f = super::friendster();
        assert_eq!(f.num_vertices(), 1 << 14);
        assert!(f.is_directed());
        let t = super::traffic();
        assert_eq!(t.num_vertices(), 80 * 80);
        assert!(!t.is_directed());
        let ml = super::movielens();
        assert_eq!(ml.num_users, 600);
        let s = super::scaled_powerlaw(320);
        assert!(s.num_vertices() > super::scaled_powerlaw(64).num_vertices());
    }
}
