//! Parallel greedy construction at scale: on few-thousand-node G(n, p) and
//! random geometric graphs, [`par_poly_greedy_spanner_with`] must return
//! exactly what the sequential [`poly_greedy_spanner_with`] returns — the
//! same spanner edges in the same order with bit-identical weights, and the
//! same certificates. The unit tests in `greedy_par.rs` pin this on graphs
//! of at most ~120 vertices; this suite pins it where speculation spans
//! many adaptive batches and dirty-ball conflicts actually occur.

use ftspan::{
    par_poly_greedy_spanner_with, poly_greedy_spanner_with, ParallelGreedyOptions,
    PolyGreedyOptions, SpannerParams, SpannerResult,
};
use ftspan_graph::{generators, Graph};
use ftspan_integration_tests::rng;

const N: usize = 2_000;

fn assert_bit_identical(family: &str, graph: &Graph, params: SpannerParams) {
    let base = PolyGreedyOptions {
        collect_certificates: true,
    };
    let sequential = poly_greedy_spanner_with(graph, params, &base);
    let parallel = par_poly_greedy_spanner_with(
        graph,
        params,
        &ParallelGreedyOptions {
            threads: 4,
            batch_size: 0,
            base,
        },
    );
    assert!(
        sequential.spanner.edge_count() < graph.edge_count(),
        "{family}: the greedy must reject some edges for the check to bite"
    );
    assert_same_result(family, &parallel, &sequential);
}

fn assert_same_result(family: &str, got: &SpannerResult, want: &SpannerResult) {
    assert_eq!(
        got.spanner.edge_count(),
        want.spanner.edge_count(),
        "{family}: spanner size"
    );
    for (e, want_edge) in want.spanner.edges() {
        let got_edge = got.spanner.edge(e);
        assert_eq!(
            got_edge.endpoints(),
            want_edge.endpoints(),
            "{family}: edge {e}"
        );
        assert_eq!(
            got_edge.weight().to_bits(),
            want_edge.weight().to_bits(),
            "{family}: weight of edge {e}"
        );
    }
    assert_eq!(
        got.certificates.len(),
        want.certificates.len(),
        "{family}: certificate count"
    );
    for (got_cert, want_cert) in got.certificates.iter().zip(&want.certificates) {
        assert_eq!(got_cert.input_edge, want_cert.input_edge, "{family}");
        assert_eq!(got_cert.spanner_edge, want_cert.spanner_edge, "{family}");
        assert_eq!(got_cert.cut, want_cert.cut, "{family}");
    }
}

#[test]
fn parallel_greedy_matches_sequential_on_gnp() {
    let graph = generators::connected_gnp(N, 12.0 / (N as f64 - 1.0), &mut rng(41));
    assert_bit_identical("erdos_renyi", &graph, SpannerParams::vertex(2, 2));
}

#[test]
fn parallel_greedy_matches_sequential_on_random_geometric() {
    let mut r = rng(43);
    let radius = (16.0 / (std::f64::consts::PI * N as f64)).sqrt();
    let mut graph = generators::random_geometric(N, radius, &mut r);
    generators::overlay_random_spanning_tree(&mut graph, &mut r);
    assert_bit_identical("geometric", &graph, SpannerParams::vertex(2, 2));
}
