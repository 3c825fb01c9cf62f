//! Connectivity of graph views.

use crate::bfs::bfs_hop_distances;
use crate::{GraphView, VertexId};

/// Returns `true` if all live vertices of the view are in one component.
///
/// A view with zero or one live vertices counts as connected. Faulted
/// vertices are ignored; one BFS from the first live vertex decides.
#[must_use]
pub fn is_connected<V: GraphView>(view: &V) -> bool {
    let mut live = (0..view.vertex_count())
        .map(VertexId::new)
        .filter(|&v| view.contains_vertex(v));
    let Some(start) = live.next() else {
        return true;
    };
    let dist = bfs_hop_distances(view, start);
    live.all(|v| dist[v.index()].is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{vid, FaultView, Graph};

    fn two_triangles() -> Graph {
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            g.add_unit_edge(u, v);
        }
        g
    }

    #[test]
    fn reachability_respects_components() {
        let g = two_triangles();
        assert!(!is_connected(&g));
        // Faulting one whole triangle leaves the other, which is connected.
        let view = FaultView::with_blocked_vertices(&g, [vid(3), vid(4), vid(5)]);
        assert!(is_connected(&view));
        // A bridge between the triangles joins them.
        let mut bridged = two_triangles();
        bridged.add_unit_edge(2, 3);
        assert!(is_connected(&bridged));
    }

    #[test]
    fn faulted_first_vertex_does_not_break_connectivity() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(1, 2);
        let view = FaultView::with_blocked_vertices(&g, [vid(0)]);
        assert!(is_connected(&view));
    }

    #[test]
    fn faulted_vertices_have_no_component() {
        let g = two_triangles();
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(1));
        // Triangle 0-1-2 with 1 removed is still connected through edge {0,2}.
        assert!(!is_connected(&view));
        for v in [3, 4, 5] {
            view.block_vertex(vid(v));
        }
        assert!(is_connected(&view));
        // An edge fault can split what a vertex fault left whole.
        view.block_edge(g.edge_between(vid(0), vid(2)).unwrap());
        assert!(!is_connected(&view));
    }

    #[test]
    fn vertex_fault_can_disconnect() {
        let mut g = Graph::new(3);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(1, 2);
        assert!(is_connected(&g));
        let mut view = FaultView::new(&g);
        view.block_vertex(vid(1));
        assert!(!is_connected(&view));
    }

    #[test]
    fn empty_and_single_vertex_graphs_are_connected() {
        assert!(is_connected(&Graph::new(0)));
        assert!(is_connected(&Graph::new(1)));
        let g = Graph::new(2);
        assert!(!is_connected(&g));
        // Every vertex faulted: no live vertex, so connected.
        let view = FaultView::with_blocked_vertices(&g, [vid(0), vid(1)]);
        assert!(is_connected(&view));
    }
}
