//! The sequential exponential-shift clustering must reproduce the CONGEST
//! flood's partition exactly: for every partition `padded_decomposition`
//! draws, `shifted_centers` on the same shifts assigns every vertex the same
//! center. Shard planning relies on this, since it clusters sequentially but
//! must keep the plan the flood used to produce.

use ftspan_distributed::{padded_decomposition, DecompositionOptions};
use ftspan_graph::cluster::{exponential_shifts, shifted_centers};
use ftspan_graph::{generators, Graph, VertexId};
use ftspan_integration_tests::rng;

/// Floods `partitions` clusterings from `seed`, then replays the same draws
/// through `exponential_shifts` + `shifted_centers` and compares every
/// vertex's center.
fn assert_identical(name: &str, graph: &Graph, beta: f64, partitions: usize, seed: u64) {
    let n = graph.vertex_count();
    let options = DecompositionOptions {
        beta,
        partitions: Some(partitions),
    };
    let flood = padded_decomposition(graph, &options, &mut rng(seed));
    assert_eq!(flood.partitions.len(), partitions);
    let mut r = rng(seed);
    for (i, partition) in flood.partitions.iter().enumerate() {
        let centers = shifted_centers(graph, &exponential_shifts(n, beta, &mut r));
        assert_eq!(centers.len(), n, "{name}: seed {seed}, partition {i}");
        for (v, &center) in centers.iter().enumerate() {
            assert_eq!(
                center,
                partition.center_of(VertexId::new(v)),
                "{name}: seed {seed}, partition {i}, vertex {v}"
            );
        }
    }
}

/// The `geometric(n)` recipe of the lifecycle benchmark: unit disks of
/// expected degree 8 with a random spanning tree laid over them.
fn geometric(n: usize, seed: u64) -> Graph {
    let mut r = rng(seed);
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let mut graph = generators::random_geometric(n, radius, &mut r);
    generators::overlay_random_spanning_tree(&mut graph, &mut r);
    graph
}

#[test]
fn identical_on_the_sharded_workload_grid() {
    // `shard_churn`'s 200 × 200 grid under the shard plan's defaults.
    let grid = generators::grid(200, 200);
    for seed in [0x0005_4A2D_2020, 1] {
        assert_identical("grid 200x200", &grid, 0.25, 4, seed);
    }
}

#[test]
fn identical_on_dense_gnp_and_geometric_workloads() {
    // The lifecycle benchmark's `dense_build` and `hot_wire` topologies.
    let gnp = generators::connected_gnp(1000, 40.0 / 999.0, &mut rng(0xD15E_0001));
    let geo = geometric(400, 0xD15E_0003);
    for seed in 0..2 {
        assert_identical("G(1000, deg 40)", &gnp, 0.25, 4, seed);
    }
    for seed in 0..8 {
        assert_identical("geometric(400)", &geo, 0.25, 4, seed);
    }
}

#[test]
fn identical_on_the_sharded_differential_families() {
    for seed in 0..8 {
        let mut r = rng(8100 + seed);
        let ba = generators::barabasi_albert(120, 3, &mut r);
        let ws_sparse = generators::watts_strogatz(100, 4, 0.2, &mut r);
        let ws_dense = generators::watts_strogatz(100, 8, 0.2, &mut r);
        let mut geo = generators::random_geometric(90, 0.18, &mut r);
        generators::overlay_random_spanning_tree(&mut geo, &mut r);
        let weighted = generators::with_random_weights(&geo, 1.0, 8.0, &mut r);
        let gnp = generators::connected_gnp(120, 0.06, &mut r);
        for (name, graph) in [
            ("BA(120, 3)", ba),
            ("WS(100, 4, 0.2)", ws_sparse),
            ("WS(100, 8, 0.2)", ws_dense),
            ("weighted geometric(90)", weighted),
            ("G(120, 0.06)", gnp),
            ("BA(500, 3)", generators::barabasi_albert(500, 3, &mut r)),
            (
                "WS(500, 6, 0.1)",
                generators::watts_strogatz(500, 6, 0.1, &mut r),
            ),
        ] {
            assert_identical(name, &graph, 0.25, 4, seed);
        }
    }
}

#[test]
fn identical_on_paths_and_degenerate_graphs() {
    let path = generators::path(300);
    for seed in 0..8 {
        assert_identical("path(300)", &path, 0.25, 4, seed);
        // Other rates change how far clusters reach.
        assert_identical("path(300), beta 0.05", &path, 0.05, 2, seed);
        assert_identical("path(300), beta 2", &path, 2.0, 2, seed);
        assert_identical("empty", &Graph::new(0), 0.25, 2, seed);
        assert_identical("one vertex", &Graph::new(1), 0.25, 2, seed);
    }
}
