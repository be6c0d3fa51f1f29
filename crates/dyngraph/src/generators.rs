//! Topology generators used by the experiments.
//!
//! The evaluation sweeps over several topology families: paths/rings and
//! grids (worst cases for the diameter constraint), random geometric graphs
//! (the natural model of a wireless vicinity), Erdős–Rényi graphs (control),
//! complete graphs and stars (best cases), "clustered" graphs made of
//! dense pockets joined by thin bridges (the group-merge scenarios), and
//! explicit edge lists for hand-made shapes no family expresses.

use crate::graph::Graph;
use crate::id::NodeId;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Deterministic topology generators (seeded where randomness is involved).
#[derive(Clone, Debug, PartialEq)]
pub enum GraphGenerator {
    /// A path of `n` nodes: 0-1-2-...-(n-1).
    Path { n: usize },
    /// A cycle of `n` nodes.
    Ring { n: usize },
    /// A `rows` × `cols` grid, 4-connectivity.
    Grid { rows: usize, cols: usize },
    /// A complete graph over `n` nodes.
    Complete { n: usize },
    /// A star: node 0 linked to all others.
    Star { n: usize },
    /// Random geometric graph: `n` points uniform in a `side`×`side` square,
    /// linked when their Euclidean distance is ≤ `radius`.
    RandomGeometric { n: usize, side: f64, radius: f64 },
    /// Erdős–Rényi G(n, p).
    ErdosRenyi { n: usize, p: f64 },
    /// `clusters` cliques of `cluster_size` nodes, neighbouring cliques
    /// joined by a single bridge edge (a chain of dense pockets).
    Clustered {
        clusters: usize,
        cluster_size: usize,
    },
    /// An explicit undirected edge list over raw node ids. The nodes are
    /// the distinct endpoints, so an isolated node cannot be written.
    Edges(Vec<(u64, u64)>),
}

impl GraphGenerator {
    /// Generate the topology. `seed` only matters for randomized families.
    pub fn generate(&self, seed: u64) -> Graph {
        match *self {
            GraphGenerator::Edges(ref edges) => {
                let mut g = Graph::new();
                for &(a, b) in edges {
                    g.add_edge(NodeId(a), NodeId(b));
                }
                g
            }
            GraphGenerator::Path { n } => path(n),
            GraphGenerator::Ring { n } => ring(n),
            GraphGenerator::Grid { rows, cols } => grid(rows, cols),
            GraphGenerator::Complete { n } => complete(n),
            GraphGenerator::Star { n } => star(n),
            GraphGenerator::RandomGeometric { n, side, radius } => {
                random_geometric(n, side, radius, seed)
            }
            GraphGenerator::ErdosRenyi { n, p } => erdos_renyi(n, p, seed),
            GraphGenerator::Clustered {
                clusters,
                cluster_size,
            } => clustered(clusters, cluster_size),
        }
    }

    /// Short human-readable label for tables.
    pub fn label(&self) -> String {
        match *self {
            GraphGenerator::Edges(ref edges) => format!("edges({})", edges.len()),
            GraphGenerator::Path { n } => format!("path({n})"),
            GraphGenerator::Ring { n } => format!("ring({n})"),
            GraphGenerator::Grid { rows, cols } => format!("grid({rows}x{cols})"),
            GraphGenerator::Complete { n } => format!("complete({n})"),
            GraphGenerator::Star { n } => format!("star({n})"),
            GraphGenerator::RandomGeometric { n, side, radius } => {
                format!("rgg(n={n},side={side},r={radius})")
            }
            GraphGenerator::ErdosRenyi { n, p } => format!("gnp(n={n},p={p})"),
            GraphGenerator::Clustered {
                clusters,
                cluster_size,
            } => format!("clustered({clusters}x{cluster_size})"),
        }
    }

    /// Number of nodes the generated graph will contain.
    pub fn node_count(&self) -> usize {
        match *self {
            GraphGenerator::Edges(_) => self.generate(0).node_count(),
            GraphGenerator::Path { n }
            | GraphGenerator::Ring { n }
            | GraphGenerator::Complete { n }
            | GraphGenerator::Star { n }
            | GraphGenerator::RandomGeometric { n, .. }
            | GraphGenerator::ErdosRenyi { n, .. } => n,
            GraphGenerator::Grid { rows, cols } => rows * cols,
            GraphGenerator::Clustered {
                clusters,
                cluster_size,
            } => clusters * cluster_size,
        }
    }
}

/// A path of `n` nodes.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(NodeId(i as u64));
        if i > 0 {
            g.add_edge(NodeId((i - 1) as u64), NodeId(i as u64));
        }
    }
    g
}

/// A cycle of `n` nodes (a path for n < 3).
pub fn ring(n: usize) -> Graph {
    let mut g = path(n);
    if n >= 3 {
        g.add_edge(NodeId(0), NodeId((n - 1) as u64));
    }
    g
}

/// A `rows` × `cols` grid with 4-connectivity.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new();
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u64);
    for r in 0..rows {
        for c in 0..cols {
            g.add_node(id(r, c));
            if r > 0 {
                g.add_edge(id(r - 1, c), id(r, c));
            }
            if c > 0 {
                g.add_edge(id(r, c - 1), id(r, c));
            }
        }
    }
    g
}

/// A complete graph over `n` nodes.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(NodeId(i as u64));
        for j in 0..i {
            g.add_edge(NodeId(j as u64), NodeId(i as u64));
        }
    }
    g
}

/// A star with node 0 at the centre.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new();
    if n == 0 {
        return g;
    }
    g.add_node(NodeId(0));
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i as u64));
    }
    g
}

/// Random geometric graph (unit-disk connectivity in a square).
pub fn random_geometric(n: usize, side: f64, radius: f64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(NodeId(i as u64));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = points[i].0 - points[j].0;
            let dy = points[i].1 - points[j].1;
            if (dx * dx + dy * dy).sqrt() <= radius {
                g.add_edge(NodeId(i as u64), NodeId(j as u64));
            }
        }
    }
    g
}

/// Erdős–Rényi G(n, p).
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(NodeId(i as u64));
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(NodeId(i as u64), NodeId(j as u64));
            }
        }
    }
    g
}

/// Cliques of `cluster_size` nodes chained by single bridge edges.
pub fn clustered(clusters: usize, cluster_size: usize) -> Graph {
    let mut g = Graph::new();
    for c in 0..clusters {
        let base = c * cluster_size;
        for i in 0..cluster_size {
            g.add_node(NodeId((base + i) as u64));
            for j in 0..i {
                g.add_edge(NodeId((base + j) as u64), NodeId((base + i) as u64));
            }
        }
        if c > 0 && cluster_size > 0 {
            // bridge: last node of previous clique to first node of this one
            let prev_last = (c * cluster_size - 1) as u64;
            let this_first = base as u64;
            g.add_edge(NodeId(prev_last), NodeId(this_first));
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::components::is_connected;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.diameter(), Some(4));
    }

    #[test]
    fn ring_shape() {
        let g = ring(6);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.diameter(), Some(3));
        assert_eq!(ring(2).edge_count(), 1);
        assert_eq!(ring(1).node_count(), 1);
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
        assert_eq!(g.diameter(), Some(2 + 3));
    }

    #[test]
    fn complete_and_star_shapes() {
        let k = complete(5);
        assert_eq!(k.edge_count(), 10);
        assert_eq!(k.diameter(), Some(1));
        let s = star(5);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.diameter(), Some(2));
        assert_eq!(star(0).node_count(), 0);
    }

    #[test]
    fn rgg_is_deterministic_per_seed() {
        let a = random_geometric(30, 10.0, 3.0, 42);
        let b = random_geometric(30, 10.0, 3.0, 42);
        let c = random_geometric(30, 10.0, 3.0, 43);
        assert_eq!(a, b);
        assert_eq!(a.node_count(), 30);
        // different seed should (overwhelmingly likely) differ
        assert!(a != c || a.edge_count() == c.edge_count());
    }

    #[test]
    fn rgg_large_radius_is_complete() {
        let g = random_geometric(10, 5.0, 100.0, 1);
        assert_eq!(g.edge_count(), 45);
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(erdos_renyi(10, 0.0, 7).edge_count(), 0);
        assert_eq!(erdos_renyi(10, 1.0, 7).edge_count(), 45);
    }

    #[test]
    fn clustered_is_connected_chain_of_cliques() {
        let g = clustered(3, 4);
        assert_eq!(g.node_count(), 12);
        assert!(is_connected(&g));
        // 3 cliques of 6 edges + 2 bridges
        assert_eq!(g.edge_count(), 3 * 6 + 2);
    }

    #[test]
    fn generator_enum_matches_direct_functions() {
        assert_eq!(GraphGenerator::Path { n: 4 }.generate(0), path(4));
        assert_eq!(
            GraphGenerator::Grid { rows: 2, cols: 2 }.generate(0),
            grid(2, 2)
        );
        assert_eq!(GraphGenerator::Path { n: 4 }.node_count(), 4);
        assert_eq!(GraphGenerator::Grid { rows: 2, cols: 3 }.node_count(), 6);
        assert!(GraphGenerator::Ring { n: 8 }.label().contains("ring"));
    }

    #[test]
    fn edge_list_rebuilds_the_graph_it_lists() {
        let g = clustered(2, 3);
        let edges = g.edges().map(|(a, b)| (a.raw(), b.raw())).collect();
        let generator = GraphGenerator::Edges(edges);
        assert_eq!(generator.generate(9), g);
        assert_eq!(generator.node_count(), 6);
        assert_eq!(generator.label(), "edges(7)");
    }
}
