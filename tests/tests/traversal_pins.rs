//! Pins the exact output of every pooled traversal lane.
//!
//! The pooled BFS/Dijkstra lanes promise more than correct distances: their
//! parent choices (which of several equally short paths a tree reports) and
//! therefore every LBC decision, spanner edge and oracle answer are fixed by
//! the neighbour order and the discovery/relaxation order. A kernel rewrite
//! that keeps both orders keeps every value below; one that changes the FIFO
//! discipline, the relaxation test or the neighbour order moves a pin.
//!
//! Each pin is an FNV-1a digest over values read through the public API
//! only (distances as `f64` bits, paths as vertex/edge id lists), so a
//! change of internal representation (parent encoding, queue type) cannot
//! move it. An intentional change to traversal order updates the pins in
//! the same diff.

use ftspan::{poly_greedy_spanner, SpannerParams};
use ftspan_graph::bfs::{BfsScratch, HopBfsScratch, HopPath};
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::{fnv1a64, generators, vid, FaultScratch, FaultView, Graph, VertexId};
use ftspan_integration_tests::rng;
use rand::Rng;

/// Byte sink whose [`Pin::digest`] is the FNV-1a hash of everything fed.
#[derive(Default)]
struct Pin(Vec<u8>);

impl Pin {
    fn u32(&mut self, x: u32) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.0.extend_from_slice(&x.to_le_bytes());
    }

    fn flag(&mut self, present: bool) {
        self.0.push(u8::from(present));
    }

    fn vertices(&mut self, path: &[VertexId]) {
        self.u32(path.len() as u32);
        for v in path {
            self.u32(v.as_u32());
        }
    }

    fn hop_path(&mut self, found: bool, path: &HopPath) {
        self.flag(found);
        self.vertices(&path.vertices);
        for e in &path.edges {
            self.u32(e.index() as u32);
        }
    }

    fn digest(&self) -> u64 {
        fnv1a64(&self.0)
    }
}

/// Asserts a pin, printing the measured value so an intentional change can
/// update it.
fn assert_pin(name: &str, pin: &Pin, expected: u64) {
    let got = pin.digest();
    assert_eq!(got, expected, "{name}: digest {got:#018x}");
}

/// `G(n, p)` with average degree `deg`, made connected.
fn connected(n: usize, deg: f64, seed: u64) -> Graph {
    generators::connected_gnp(n, deg / (n - 1) as f64, &mut rng(seed))
}

/// The three fault scenarios every tree pin runs under: none, two vertex
/// faults and two edge faults, drawn from `seed`.
fn fault_views(graph: &Graph, seed: u64) -> Vec<FaultView<'_>> {
    let mut r = rng(seed);
    let (n, m) = (graph.vertex_count(), graph.edge_count());
    let mut vertex_faults = FaultView::new(graph);
    while vertex_faults.blocked_vertex_count() < 2 {
        vertex_faults.block_vertex(vid(r.gen_range(1..n)));
    }
    let mut edge_faults = FaultView::new(graph);
    while edge_faults.blocked_edge_count() < 2 {
        edge_faults.block_edge(ftspan_graph::eid(r.gen_range(0..m)));
    }
    vec![FaultView::new(graph), vertex_faults, edge_faults]
}

/// Digest of `DijkstraScratch::shortest_path_tree` from three sources under
/// each fault scenario: every vertex's distance bits and tree path.
fn tree_pin(graph: &Graph, seed: u64) -> Pin {
    let n = graph.vertex_count();
    let mut scratch = DijkstraScratch::new();
    let mut pin = Pin::default();
    for view in fault_views(graph, seed) {
        for source in [0, n / 2, n - 1] {
            let tree = scratch.shortest_path_tree(&view, vid(source));
            for v in 0..n {
                let d = tree.distance_to(vid(v));
                pin.flag(d.is_some());
                pin.u64(d.map_or(0, f64::to_bits));
                let path = tree.path_to(vid(v));
                pin.flag(path.is_some());
                pin.vertices(path.as_deref().unwrap_or(&[]));
            }
        }
    }
    pin
}

#[test]
fn dial_lane_trees_are_pinned() {
    let grid = generators::grid(30, 30);
    assert!(grid.is_unit_weighted());
    assert_pin("dial grid(30, 30)", &tree_pin(&grid, 1), 0x697486c6a985e02b);

    let gnp = connected(300, 8.0, 2);
    assert!(gnp.is_unit_weighted());
    assert_pin("dial G(300, deg 8)", &tree_pin(&gnp, 3), 0x99e3586d07c0aecd);
}

#[test]
fn heap_lane_trees_are_pinned() {
    let geometric = generators::random_geometric(300, 0.12, &mut rng(4));
    assert!(!geometric.is_unit_weighted());
    assert_pin(
        "heap geometric n=300",
        &tree_pin(&geometric, 5),
        0xdd7410726b190f4c,
    );
}

#[test]
fn hop_bfs_paths_are_pinned() {
    const HOPS: u32 = 3;
    let graph = connected(300, 8.0, 6);
    let (n, m) = (graph.vertex_count(), graph.edge_count());
    let mut r = rng(7);
    let mut faults = FaultScratch::new();
    let mut search = HopBfsScratch::new();
    let mut tree = HopBfsScratch::new();
    let mut out = HopPath::default();
    let (mut early, mut batched) = (Pin::default(), Pin::default());
    let mut found_any = 0;
    for _ in 0..200 {
        let (u, v) = (vid(r.gen_range(0..n)), vid(r.gen_range(0..n)));
        let mut view = faults.view(&graph);
        for _ in 0..3 {
            let x = vid(r.gen_range(0..n));
            if x != u && x != v {
                view.block_vertex(x);
            }
        }
        view.block_edge(ftspan_graph::eid(r.gen_range(0..m)));

        let found = search.find_path_into(&view, u, v, HOPS, &mut out);
        found_any += usize::from(found);
        early.hop_path(found, &out);

        tree.build_tree(&view, u, HOPS);
        let found = tree.tree_path_into(v, &mut out);
        batched.hop_path(found, &out);
    }
    assert!(found_any > 50, "the pairs must exercise found paths");
    assert_pin("find_path_into", &early, 0xb09d468e00dd04ef);
    assert_pin("build_tree + tree_path_into", &batched, 0xb09d468e00dd04ef);
}

#[test]
fn multi_source_hop_distances_are_pinned() {
    let graph = generators::grid(30, 30);
    let mut view = FaultView::new(&graph);
    for v in [31, 100, 465, 466, 467] {
        view.block_vertex(vid(v));
    }
    let mut scratch = BfsScratch::new();
    let mut pin = Pin::default();
    for (sources, hops) in [
        (vec![vid(0)], u32::MAX),
        (vec![vid(0), vid(899), vid(450)], 7),
        (vec![vid(31), vid(32), vid(32), vid(5000)], 12),
    ] {
        for d in scratch.multi_source_hop_distances(&view, sources, hops) {
            pin.flag(d.is_some());
            pin.u32(d.unwrap_or(0));
        }
    }
    assert_pin("multi_source_hop_distances", &pin, 0x2ea06ad6b6cdb4d4);
}

/// Digest of a spanner's edge list as sorted `(u, v)` endpoint pairs.
fn spanner_pin(graph: &Graph, params: SpannerParams) -> Pin {
    let spanner = poly_greedy_spanner(graph, params).spanner;
    let mut edges: Vec<(u32, u32)> = spanner
        .edges()
        .map(|(_, e)| {
            let (a, b) = e.endpoints();
            (a.as_u32().min(b.as_u32()), a.as_u32().max(b.as_u32()))
        })
        .collect();
    edges.sort_unstable();
    let mut pin = Pin::default();
    pin.u32(edges.len() as u32);
    for (a, b) in edges {
        pin.u32(a);
        pin.u32(b);
    }
    pin
}

#[test]
fn poly_greedy_spanners_are_pinned() {
    let unit = generators::connected_gnp(120, 0.15, &mut rng(8));
    assert_pin(
        "VFT G(120, 0.15), k=2 f=2",
        &spanner_pin(&unit, SpannerParams::vertex(2, 2)),
        0x1e210addd48fe5eb,
    );

    let geometric = generators::random_geometric(150, 0.2, &mut rng(9));
    assert_pin(
        "VFT geometric n=150, k=2 f=1",
        &spanner_pin(&geometric, SpannerParams::vertex(2, 1)),
        0x6875f73aa68c1166,
    );

    let eft = generators::connected_gnp(100, 0.12, &mut rng(10));
    assert_pin(
        "EFT G(100, 0.12), k=2 f=2",
        &spanner_pin(&eft, SpannerParams::edge(2, 2)),
        0x5c13b1f01759fa21,
    );
}
