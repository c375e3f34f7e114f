//! Random-hypergraph analysis behind IBLT peeling.
//!
//! An IBLT with `m` cells and `q` hashes per key is the random `q`-uniform
//! hypergraph `G^q_{m,cm}`: cells are vertices, keys are hyperedges.
//! Peeling the table is peeling vertices of degree 1. This module provides:
//!
//! * [`Hypergraph`] — explicit hypergraphs, either sampled uniformly
//!   (`G^q_{m,cm}`) or extracted from a concrete [`crate::CellLayout`];
//! * [`Hypergraph::peel`] — the peeling process, reporting the 2-core;
//! * [`Hypergraph::classify_components`] — trees / unicyclic / complex
//!   component counts (Lemma B.3: below density `1/(q(q−1))` everything is
//!   a tree or unicyclic w.h.p.);
//! * [`Hypergraph::error_propagation`] — the Lemma 3.10 process: one random
//!   vertex starts with error count 1; peeling a vertex adds its error
//!   count to every vertex of the peeled edge. The final `Σ C_v` is O(1)
//!   below the density threshold — experiment F1 measures this.

use crate::layout::CellLayout;
use rand::Rng;

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

/// Component census (Lemma B.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComponentCensus {
    /// Components that are hypertrees (`V = E(q−1) + 1`).
    pub trees: usize,
    /// Unicyclic components (`V = E(q−1)`).
    pub unicyclic: usize,
    /// Anything denser.
    pub complex: usize,
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

    /// Samples `G^q_{m,em}`: `num_edges` edges drawn uniformly (each edge a
    /// uniform `q`-subset of the `m` vertices).
    pub fn sample_uniform<R: Rng + ?Sized>(
        num_vertices: usize,
        num_edges: usize,
        q: usize,
        rng: &mut R,
    ) -> Self {
        assert!(q <= num_vertices);
        let edges = (0..num_edges)
            .map(|_| {
                let mut verts = Vec::with_capacity(q);
                while verts.len() < q {
                    let v = rng.gen_range(0..num_vertices);
                    if !verts.contains(&v) {
                        verts.push(v);
                    }
                }
                verts
            })
            .collect();
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

    /// Number of vertices `m`.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge density `c = edges/vertices`.
    pub fn density(&self) -> f64 {
        self.edges.len() as f64 / self.num_vertices as f64
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

    /// The structural purity predicate, shared by every peeling process
    /// in this module: a vertex is *peelable* when exactly one live edge
    /// remains on it, and that edge is what it peels. This is the
    /// hypergraph face of the IBLT's pure-cell test
    /// ([`CellLayout::pure_cell_sign`]): a degree-1 cell holds exactly
    /// one key, so its count is ±1 and its checksum matches. Both
    /// [`Hypergraph::peel`] and [`Hypergraph::error_propagation`] resolve
    /// peelability through this one helper (they used to duplicate the
    /// scan), and the `pure_cells_match_degree_one_vertices` regression
    /// test pins the correspondence to the concrete table.
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

    /// Classifies connected components as hypertrees, unicyclic, or complex
    /// (Lemma B.3). Isolated vertices are ignored.
    pub fn classify_components(&self) -> ComponentCensus {
        let inc = self.incidence();
        let mut seen_edge = vec![false; self.edges.len()];
        let mut seen_vertex = vec![false; self.num_vertices];
        let mut census = ComponentCensus::default();
        for start in 0..self.edges.len() {
            if seen_edge[start] {
                continue;
            }
            // BFS over edges via shared vertices.
            let mut stack = vec![start];
            seen_edge[start] = true;
            let mut edge_count = 0usize;
            let mut vertex_count = 0usize;
            let mut weight = 0usize; // Σ (|e| − 1)
            while let Some(e) = stack.pop() {
                edge_count += 1;
                weight += self.edges[e].len() - 1;
                for &v in &self.edges[e] {
                    if !seen_vertex[v] {
                        seen_vertex[v] = true;
                        vertex_count += 1;
                    }
                    for &e2 in &inc[v] {
                        if !seen_edge[e2] {
                            seen_edge[e2] = true;
                            stack.push(e2);
                        }
                    }
                }
            }
            let _ = edge_count;
            if vertex_count == weight + 1 {
                census.trees += 1;
            } else if vertex_count == weight {
                census.unicyclic += 1;
            } else {
                census.complex += 1;
            }
        }
        census
    }

    /// The Lemma 3.10 error-propagation process under breadth-first
    /// peeling: vertex `seed_vertex` starts with error count 1, every other
    /// vertex 0. We repeatedly take the earliest vertex that has degree 1,
    /// peel its unique remaining edge, and add the vertex's error count to
    /// every other vertex of that edge. Returns the final `Σ_v C_v`.
    pub fn error_propagation(&self, seed_vertex: usize) -> u64 {
        assert!(seed_vertex < self.num_vertices);
        let inc = self.incidence();
        let mut deg = self.degrees();
        let mut alive = vec![true; self.edges.len()];
        let mut error = vec![0u64; self.num_vertices];
        error[seed_vertex] = 1;
        let mut queue: std::collections::VecDeque<usize> =
            (0..self.num_vertices).filter(|&v| deg[v] == 1).collect();
        while let Some(v) = queue.pop_front() {
            let Some(e) = Self::peelable_edge(&deg, &inc, &alive, v) else {
                continue; // stale
            };
            alive[e] = false;
            let c_v = error[v];
            for &u in &self.edges[e] {
                deg[u] -= 1;
                if u != v {
                    error[u] += c_v;
                    if deg[u] == 1 {
                        queue.push_back(u);
                    }
                }
            }
        }
        error.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let mut rng = StdRng::seed_from_u64(50);
        // Density 0.05 ≪ any threshold.
        let g = Hypergraph::sample_uniform(200, 10, 3, &mut rng);
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
    fn census_classifies_tree_and_cycle() {
        // Tree: two triples sharing one vertex: V=5, E=2, weight=4 → tree.
        let g = Hypergraph::new(5, vec![vec![0, 1, 2], vec![2, 3, 4]]);
        let c = g.classify_components();
        assert_eq!(
            c,
            ComponentCensus {
                trees: 1,
                unicyclic: 0,
                complex: 0
            }
        );
        // 2-uniform cycle: V=3, E=3, weight=3 → unicyclic.
        let g = Hypergraph::new(3, vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
        let c = g.classify_components();
        assert_eq!(c.unicyclic, 1);
        assert_eq!(c.trees, 0);
    }

    #[test]
    fn sparse_random_graphs_have_no_complex_components() {
        // Lemma B.3: density < 1/(q(q−1)) ⇒ trees + unicyclic w.h.p.
        let mut rng = StdRng::seed_from_u64(51);
        let q = 3;
        let m = 600;
        let c = 1.0 / (q as f64 * (q - 1) as f64) * 0.8;
        let mut complex = 0;
        for _ in 0..10 {
            let g = Hypergraph::sample_uniform(m, (c * m as f64) as usize, q, &mut rng);
            complex += g.classify_components().complex;
        }
        // Lemma B.3 is a w.h.p. statement; allow a rare straggler.
        assert!(complex <= 2, "too many complex components: {complex}");
    }

    #[test]
    fn error_propagation_zero_if_seed_untouched() {
        // Seed vertex isolated from the single edge: error never moves.
        let g = Hypergraph::new(5, vec![vec![0, 1, 2]]);
        assert_eq!(g.error_propagation(4), 1);
    }

    #[test]
    fn error_propagation_spreads_along_path() {
        // Path of 2-uniform edges: 0-1, 1-2, 2-3. BFS peeling from both
        // ends; seeding at vertex 0 contaminates its neighbours.
        let g = Hypergraph::new(4, vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        let total = g.error_propagation(0);
        assert!(total >= 2, "error never propagated: {total}");
    }

    #[test]
    fn error_propagation_is_constant_on_sparse_graphs() {
        // Empirical Lemma 3.10: mean Σ C_v stays O(1) below the density
        // threshold 1/(q(q−1)).
        let mut rng = StdRng::seed_from_u64(52);
        let q = 3;
        let m = 400;
        let c = 0.8 / (q as f64 * (q - 1) as f64);
        let trials = 60;
        let mut total = 0u64;
        for _ in 0..trials {
            let g = Hypergraph::sample_uniform(m, (c * m as f64) as usize, q, &mut rng);
            total += g.error_propagation(rng.gen_range(0..m));
        }
        let mean = total as f64 / trials as f64;
        assert!(mean < 8.0, "mean error mass too large: {mean}");
    }

    #[test]
    fn from_layout_matches_table_structure() {
        let layout = CellLayout::new(30, 3, 5);
        let keys = vec![1u64, 2, 3];
        let g = Hypergraph::from_layout(&layout, &keys);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), layout.num_cells());
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
            let degree_one: Vec<usize> = (0..g.num_vertices()).filter(|&v| deg[v] == 1).collect();
            let mut t = crate::Iblt::new(30, 3, seed);
            for &k in &keys {
                t.insert(k);
            }
            assert_eq!(t.pure_cells(), degree_one, "trial {trial}");
        }
    }
}
