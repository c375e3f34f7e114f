//! The hypergraph behind IBLT peeling.
//!
//! An IBLT with `m` cells and `q` hashes per key is a `q`-uniform
//! hypergraph: cells are vertices, keys are hyperedges. Peeling the table
//! is peeling vertices of degree 1. [`Hypergraph::from_layout`] builds the
//! exact graph a concrete [`crate::CellLayout`] induces, and
//! [`Hypergraph::peel`] runs the peeling process and reports the 2-core —
//! the structural reference the IBLT decoder is tested against.

use crate::layout::CellLayout;

/// An explicit `q`-uniform hypergraph on `m` vertices.
#[derive(Clone, Debug)]
pub struct Hypergraph {
    num_vertices: usize,
    edges: Vec<Vec<usize>>,
}

/// Result of peeling a hypergraph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeelOutcome {
    /// Edges peeled, in peel order.
    pub peeled: Vec<usize>,
    /// Edges remaining in the 2-core (empty iff peeling succeeded).
    pub core: Vec<usize>,
    /// Number of peeling rounds (for the parallel-peeling depth claims).
    pub rounds: usize,
}

impl Hypergraph {
    /// Creates a hypergraph from explicit edges.
    pub fn new(num_vertices: usize, edges: Vec<Vec<usize>>) -> Self {
        for e in &edges {
            assert!(e.iter().all(|&v| v < num_vertices), "vertex out of range");
            let set: std::collections::HashSet<_> = e.iter().collect();
            assert_eq!(set.len(), e.len(), "edge with repeated vertex");
        }
        Hypergraph {
            num_vertices,
            edges,
        }
    }

    /// Builds the hypergraph a set of keys induces on a [`CellLayout`] —
    /// the exact graph the corresponding (R)IBLT peels.
    pub fn from_layout(layout: &CellLayout, keys: &[u64]) -> Self {
        Hypergraph {
            num_vertices: layout.num_cells(),
            edges: keys.iter().map(|&k| layout.cells_of(k)).collect(),
        }
    }

    fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_vertices];
        for e in &self.edges {
            for &v in e {
                deg[v] += 1;
            }
        }
        deg
    }

    fn incidence(&self) -> Vec<Vec<usize>> {
        let mut inc = vec![Vec::new(); self.num_vertices];
        for (i, e) in self.edges.iter().enumerate() {
            for &v in e {
                inc[v].push(i);
            }
        }
        inc
    }

    /// The structural purity predicate: a vertex is *peelable* when
    /// exactly one live edge remains on it, and that edge is what it
    /// peels. This is the hypergraph face of the IBLT's pure-cell test
    /// ([`CellLayout::pure_cell_sign`]): a degree-1 cell holds exactly
    /// one key, so its count is ±1 and its checksum matches. The
    /// `pure_cells_match_degree_one_vertices` regression test pins the
    /// correspondence to the concrete table.
    fn peelable_edge(deg: &[usize], inc: &[Vec<usize>], alive: &[bool], v: usize) -> Option<usize> {
        if deg[v] != 1 {
            return None;
        }
        inc[v].iter().copied().find(|&e| alive[e])
    }

    /// Runs the (round-synchronous) peeling process: every round, all
    /// vertices of degree 1 peel their edges simultaneously. Returns the
    /// peel order and the surviving 2-core.
    pub fn peel(&self) -> PeelOutcome {
        let mut deg = self.degrees();
        let inc = self.incidence();
        let mut alive = vec![true; self.edges.len()];
        let mut peeled = Vec::new();
        let mut rounds = 0;
        loop {
            // All currently-peelable edges (some vertex of degree 1).
            let mut batch = Vec::new();
            for v in 0..self.num_vertices {
                if let Some(e) = Self::peelable_edge(&deg, &inc, &alive, v) {
                    if !batch.contains(&e) {
                        batch.push(e);
                    }
                }
            }
            if batch.is_empty() {
                break;
            }
            rounds += 1;
            for e in batch {
                if !alive[e] {
                    continue;
                }
                alive[e] = false;
                peeled.push(e);
                for &v in &self.edges[e] {
                    deg[v] -= 1;
                }
            }
        }
        let core = (0..self.edges.len()).filter(|&e| alive[e]).collect();
        PeelOutcome {
            peeled,
            core,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_edge_peels_in_one_round() {
        let g = Hypergraph::new(5, vec![vec![0, 1, 2]]);
        let out = g.peel();
        assert_eq!(out.peeled, vec![0]);
        assert!(out.core.is_empty());
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn sparse_graph_fully_peels() {
        // Ten random keys in 201 cells: density 0.05 ≪ any threshold.
        let mut rng = StdRng::seed_from_u64(50);
        let keys: Vec<u64> = (0..10).map(|_| rng.gen()).collect();
        let g = Hypergraph::from_layout(&CellLayout::new(200, 3, 50), &keys);
        assert!(g.peel().core.is_empty());
    }

    #[test]
    fn tight_cycle_is_a_core() {
        // Three edges forming a "sunflower-free" 2-regular structure:
        // every vertex has degree 2 → nothing peels.
        let g = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        let out = g.peel();
        assert!(out.peeled.is_empty());
        assert_eq!(out.core.len(), 3);
    }

    #[test]
    fn from_layout_matches_table_structure() {
        let layout = CellLayout::new(30, 3, 5);
        let keys = vec![1u64, 2, 3];
        let g = Hypergraph::from_layout(&layout, &keys);
        assert_eq!(g.edges.len(), 3);
        assert_eq!(g.num_vertices, layout.num_cells());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(g.edges[i], layout.cells_of(k));
        }
    }

    #[test]
    fn peel_matches_iblt_decodability() {
        // The hypergraph peels completely iff the IBLT with the same keys
        // decodes completely (no duplicate keys involved).
        let mut rng = StdRng::seed_from_u64(53);
        for trial in 0..20 {
            let seed = 100 + trial;
            let layout = CellLayout::new(24, 3, seed);
            let keys: Vec<u64> = (0..20).map(|_| rng.gen()).collect();
            let g = Hypergraph::from_layout(&layout, &keys);
            let mut t = crate::Iblt::new(24, 3, seed);
            for &k in &keys {
                t.insert(k);
            }
            let d = t.decode();
            assert_eq!(
                g.peel().core.is_empty(),
                d.complete,
                "mismatch at trial {trial}"
            );
        }
    }

    #[test]
    fn pure_cells_match_degree_one_vertices() {
        // Regression for the shared purity predicate: with distinct
        // random keys, the IBLT's pure cells are exactly the degree-1
        // vertices of the induced hypergraph. Both sides derive cell
        // structure from the same single-pass layout hash, so a change
        // to the hash path that desynchronized them would trip this.
        let mut rng = StdRng::seed_from_u64(54);
        for trial in 0..20 {
            let seed = 500 + trial;
            let layout = CellLayout::new(30, 3, seed);
            let keys: Vec<u64> = (0..18).map(|_| rng.gen()).collect();
            let g = Hypergraph::from_layout(&layout, &keys);
            let deg = g.degrees();
            let degree_one: Vec<usize> = (0..g.num_vertices).filter(|&v| deg[v] == 1).collect();
            let mut t = crate::Iblt::new(30, 3, seed);
            for &k in &keys {
                t.insert(k);
            }
            assert_eq!(t.pure_cells(), degree_one, "trial {trial}");
        }
    }
}
