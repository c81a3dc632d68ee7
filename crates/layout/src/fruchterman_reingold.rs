//! Fruchterman–Reingold force-directed layout.
//!
//! Included alongside Kamada–Kawai because Noack (2009) — cited by the paper
//! (§III-C) — shows modularity clustering is equivalent to a class of force-
//! directed layouts; comparing both layout families on the measurement graph
//! is a useful qualitative check.

use crate::geometry::{normalize_to_box, Point2};
use btt_cluster::graph::WeightedGraph;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Side length of the layout square.
const SIZE: f64 = 100.0;

/// Number of cooling iterations.
const ITERATIONS: usize = 300;

/// Computes a Fruchterman–Reingold layout in a 100 × 100 box. Edge weights
/// scale attraction, so heavy (high-bandwidth) edges pull nodes together,
/// matching the inverse-weight convention of the Kamada–Kawai path.
pub fn fruchterman_reingold(g: &WeightedGraph, seed: u64) -> Vec<Point2> {
    let n = g.num_nodes();
    if n == 0 {
        return Vec::new();
    }
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut pos: Vec<Point2> =
        (0..n).map(|_| Point2::new(rng.gen_range(0.0..SIZE), rng.gen_range(0.0..SIZE))).collect();
    if n == 1 {
        return pos;
    }

    // Ideal pairwise distance.
    let k = SIZE / (n as f64).sqrt();
    let mean_w = {
        let total: f64 = g.edges().iter().map(|e| e.2).sum();
        let cnt = g.num_edges().max(1) as f64;
        (total / cnt).max(1e-12)
    };

    let mut disp = vec![Point2::default(); n];
    for iter in 0..ITERATIONS {
        // Linear cooling.
        let t = SIZE / 10.0 * (1.0 - iter as f64 / ITERATIONS as f64) + 1e-3;

        for d in disp.iter_mut() {
            *d = Point2::default();
        }
        // Repulsion (all pairs).
        for i in 0..n {
            for j in (i + 1)..n {
                let delta = pos[i] - pos[j];
                let dist = delta.norm().max(1e-6);
                let f = k * k / dist;
                let dir = delta / dist;
                disp[i] = disp[i] + dir * f;
                disp[j] = disp[j] - dir * f;
            }
        }
        // Attraction (edges, weight-scaled).
        for (a, b, w) in g.edges() {
            if a == b {
                continue;
            }
            let (i, j) = (a as usize, b as usize);
            let delta = pos[i] - pos[j];
            let dist = delta.norm().max(1e-6);
            let f = dist * dist / k * (w / mean_w);
            let dir = delta / dist;
            disp[i] = disp[i] - dir * f;
            disp[j] = disp[j] + dir * f;
        }
        // Apply, clamped to temperature.
        for i in 0..n {
            let d = disp[i];
            let norm = d.norm().max(1e-9);
            pos[i] = pos[i] + d / norm * norm.min(t);
        }
    }

    normalize_to_box(&mut pos, SIZE);
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_heavy_cliques() -> WeightedGraph {
        let mut edges = Vec::new();
        for base in [0u32, 4] {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    edges.push((base + a, base + b, 10.0));
                }
            }
        }
        edges.push((0, 4, 0.5));
        WeightedGraph::from_edges(8, &edges)
    }

    #[test]
    fn finite_and_boxed() {
        let g = two_heavy_cliques();
        let pos = fruchterman_reingold(&g, 1);
        for p in &pos {
            assert!(p.is_finite());
            assert!(p.x >= -1e-6 && p.x <= 100.0 + 1e-6);
            assert!(p.y >= -1e-6 && p.y <= 100.0 + 1e-6);
        }
    }

    #[test]
    fn separates_heavy_cliques() {
        let g = two_heavy_cliques();
        let pos = fruchterman_reingold(&g, 7);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let mut intra = vec![];
        let mut inter = vec![];
        for a in 0..8usize {
            for b in (a + 1)..8 {
                let d = pos[a].dist(pos[b]);
                if (a < 4) == (b < 4) {
                    intra.push(d);
                } else {
                    inter.push(d);
                }
            }
        }
        assert!(mean(&inter) > 1.5 * mean(&intra), "inter {} intra {}", mean(&inter), mean(&intra));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let g = two_heavy_cliques();
        let a = fruchterman_reingold(&g, 3);
        let b = fruchterman_reingold(&g, 3);
        assert_eq!(a, b);
        let c = fruchterman_reingold(&g, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn degenerate_inputs() {
        let g0 = WeightedGraph::from_edges(0, &[]);
        assert!(fruchterman_reingold(&g0, 0).is_empty());
        let g1 = WeightedGraph::from_edges(1, &[]);
        assert_eq!(fruchterman_reingold(&g1, 0).len(), 1);
    }
}
