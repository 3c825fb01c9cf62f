//! Summary statistics for graphs: size, degree range, density.

use crate::{GraphView, VertexId};

/// A compact statistical summary of a graph view, used by the experiment
/// harness to describe workloads and outputs.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphSummary {
    /// Number of live vertices.
    pub vertices: usize,
    /// Number of live edges.
    pub edges: usize,
    /// Minimum degree over live vertices (0 for an empty graph).
    pub min_degree: usize,
    /// Maximum degree over live vertices (0 for an empty graph).
    pub max_degree: usize,
    /// Average degree `2m / n` (0 for an empty graph).
    pub average_degree: f64,
    /// Edge density `m / C(n, 2)` (0 when `n < 2`).
    pub density: f64,
}

/// Computes a [`GraphSummary`] for any view.
#[must_use]
pub fn summarize<V: GraphView>(view: &V) -> GraphSummary {
    let n = view.live_vertex_count();
    let mut degrees = Vec::with_capacity(n);
    let mut edges2 = 0usize;
    for i in 0..view.vertex_count() {
        let v = VertexId::new(i);
        if !view.contains_vertex(v) {
            continue;
        }
        let d = view.neighbors(v).count();
        edges2 += d;
        degrees.push(d);
    }
    let edges = edges2 / 2;
    let possible = if n >= 2 { n * (n - 1) / 2 } else { 0 };
    GraphSummary {
        vertices: n,
        edges,
        min_degree: degrees.iter().copied().min().unwrap_or(0),
        max_degree: degrees.iter().copied().max().unwrap_or(0),
        average_degree: if n == 0 {
            0.0
        } else {
            2.0 * edges as f64 / n as f64
        },
        density: if possible == 0 {
            0.0
        } else {
            edges as f64 / possible as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::{vid, FaultView};

    #[test]
    fn summary_of_complete_graph() {
        let g = generators::complete(5);
        let s = summarize(&g);
        assert_eq!(s.vertices, 5);
        assert_eq!(s.edges, 10);
        assert_eq!(s.min_degree, 4);
        assert_eq!(s.max_degree, 4);
        assert!((s.average_degree - 4.0).abs() < 1e-12);
        assert!((s.density - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_respects_faults() {
        let g = generators::complete(5);
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(0));
        let s = summarize(&view);
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 6);
        assert_eq!(s.max_degree, 3);
    }

    #[test]
    fn summary_of_empty_graph() {
        let g = crate::Graph::new(0);
        let s = summarize(&g);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.edges, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.average_degree, 0.0);
    }
}
