//! Pins the modified greedy's exact output.
//!
//! The spanner edge list (ids, endpoints, weight bits), the LBC
//! certificates and the two work counters (`lbc_calls`, `bfs_runs`) are
//! hashed per instance. Three generator families, unit and random weights,
//! and both fault models are covered. A change to the sweep, the edge order
//! or the LBC search that moves any decision, cut or pass count moves a pin;
//! an intentional change updates the pins in the same diff.

use ftspan::wire::encode_certificate;
use ftspan::{poly_greedy_spanner_with, PolyGreedyOptions, SpannerParams};
use ftspan_graph::{fnv1a64, generators, Graph, WireWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn family(name: &str, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "gnp" => generators::connected_gnp(60, 0.3, &mut rng),
        "ba" => generators::barabasi_albert(60, 8, &mut rng),
        "geometric" => generators::random_geometric(60, 0.3, &mut rng),
        other => unreachable!("unknown family {other}"),
    }
}

fn digest(graph: &Graph, params: SpannerParams) -> u64 {
    let options = PolyGreedyOptions {
        collect_certificates: true,
    };
    let result = poly_greedy_spanner_with(graph, params, &options);
    assert_eq!(result.stats.algorithm, "poly-greedy");
    assert_eq!(result.stats.lbc_calls, graph.edge_count());
    let mut w = WireWriter::new();
    w.put_len(result.stats.lbc_calls);
    w.put_len(result.stats.bfs_runs);
    w.put_len(result.spanner.edge_count());
    for (id, edge) in result.spanner.edges() {
        w.put_u32(id.as_u32());
        w.put_u32(edge.source().as_u32());
        w.put_u32(edge.target().as_u32());
        w.put_f64(edge.weight());
    }
    w.put_len(result.certificates.len());
    for cert in &result.certificates {
        encode_certificate(cert, &mut w);
    }
    fnv1a64(w.as_slice())
}

#[test]
fn greedy_output_is_pinned() {
    let pins: [(&str, bool, &str, u64); 12] = [
        ("gnp", false, "vertex", 0x0180_146c_1a5a_34cd),
        ("gnp", false, "edge", 0x1ebc_6de1_cf7e_9118),
        ("gnp", true, "vertex", 0x7b5a_6db6_ebbd_e04e),
        ("gnp", true, "edge", 0xc87b_cd9b_8dba_fabb),
        ("ba", false, "vertex", 0x3196_8a61_aa1f_321d),
        ("ba", false, "edge", 0xe63f_e7ad_34ac_fd97),
        ("ba", true, "vertex", 0x5a60_554b_e823_a9b3),
        ("ba", true, "edge", 0x2402_313a_6096_bfb3),
        ("geometric", false, "vertex", 0x0667_d470_3bfe_c868),
        ("geometric", false, "edge", 0x70c7_ae9d_ef94_b010),
        ("geometric", true, "vertex", 0x2249_5171_16ec_9a7f),
        ("geometric", true, "edge", 0x1cdc_8e7b_5082_fdd0),
    ];
    let mut failures = Vec::new();
    for (seed, &(name, weighted, model, expected)) in pins.iter().enumerate() {
        let base = family(name, 40 + seed as u64);
        let graph = if weighted {
            let mut rng = StdRng::seed_from_u64(80 + seed as u64);
            generators::with_random_weights(&base, 1.0, 8.0, &mut rng)
        } else {
            base
        };
        let params = match model {
            "vertex" => SpannerParams::vertex(2, 2),
            _ => SpannerParams::edge(2, 2),
        };
        let got = digest(&graph, params);
        if got != expected {
            failures.push(format!(
                "({name:?}, {weighted}, {model:?}, {got:#018x}) m = {}",
                graph.edge_count()
            ));
        }
    }
    assert!(failures.is_empty(), "moved pins:\n{}", failures.join("\n"));
}
