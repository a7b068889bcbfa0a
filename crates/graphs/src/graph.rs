//! Undirected simple graphs.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// An undirected simple graph with `n` nodes, stored as a sorted edge
/// set plus an adjacency list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    /// Canonical edges `(a, b)` with `a < b`, sorted.
    edges: Vec<(u32, u32)>,
    adj: Vec<Vec<u32>>,
}

impl Graph {
    /// Builds a graph from an edge iterator; self-loops are dropped and
    /// duplicates merged.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut set = BTreeSet::new();
        for (a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge endpoint out of range"
            );
            if a == b {
                continue;
            }
            set.insert((a.min(b), a.max(b)));
        }
        let edges: Vec<(u32, u32)> = set.into_iter().collect();
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        adj.iter_mut().for_each(|l| l.sort_unstable());
        Self { n, edges, adj }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The canonical sorted edge list.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// `true` if `{a, b}` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&(b as u32)).is_ok()
    }

    /// Average degree `2m / n`.
    pub fn avg_degree(&self) -> f64 {
        2.0 * self.m() as f64 / self.n as f64
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Dense row-major adjacency matrix (1.0 for edges).
    pub fn adjacency_dense(&self) -> Vec<f64> {
        let mut a = vec![0.0; self.n * self.n];
        for &(x, y) in &self.edges {
            a[x as usize * self.n + y as usize] = 1.0;
            a[y as usize * self.n + x as usize] = 1.0;
        }
        a
    }

    /// Relabels nodes by `perm` (node `v` becomes `perm[v]`) — used to
    /// hide the ground-truth correspondence in alignment benchmarks.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        Self::from_edges(
            self.n,
            self.edges
                .iter()
                .map(|&(a, b)| (perm[a as usize] as u32, perm[b as usize] as u32)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, [(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.degree(0), 2);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn duplicates_and_self_loops_removed() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 1), (0, 1)]);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn adjacency_dense_is_symmetric() {
        let g = triangle();
        let a = g.adjacency_dense();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a[i * 3 + j], a[j * 3 + i]);
                assert_eq!(a[i * 3 + j] == 1.0, g.has_edge(i, j));
            }
        }
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let p = g.permuted(&[3, 2, 1, 0]);
        assert_eq!(p.m(), g.m());
        assert!(p.has_edge(3, 2));
        assert!(p.has_edge(1, 0));
        // Degree multiset preserved.
        let mut d1: Vec<_> = (0..4).map(|v| g.degree(v)).collect();
        let mut d2: Vec<_> = (0..4).map(|v| p.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        Graph::from_edges(2, [(0, 5)]);
    }
}
