//! Pins the exact output of the distributed constructions and the
//! Dinitz–Krauthgamer framework.
//!
//! Per instance the spanner edge list (endpoints and weight bits) is hashed
//! with FNV-1a together with the construction's accounting: the rounds and
//! messages of the simulated execution and its partition count, and for the
//! CONGEST construction its iteration count and phase-1 rounds. Inputs are
//! gnp, grid and geometric graphs with `f ∈ {1, 2}`, plus the edge fault
//! model for LOCAL; distributed Baswana–Sen has no `f` and runs at
//! `k ∈ {2, 3}`. The validity tests only bound sizes and round counts, so
//! a folded constant or a reordered random draw is caught here; an
//! intentional change updates the pins in the same diff.

use ftspan::dk::{dk_spanner, dk_spanner_baswana_sen};
use ftspan::SpannerParams;
use ftspan_distributed::{
    congest_baswana_sen, congest_ft_spanner, local_ft_spanner, DistributedSpannerResult,
};
use ftspan_graph::{fnv1a64, generators, Graph, WireWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn family(name: &str, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "gnp" => generators::connected_gnp(40, 0.2, &mut rng),
        "grid" => generators::grid(6, 7),
        "geometric" => generators::random_geometric(40, 0.3, &mut rng),
        other => unreachable!("unknown family {other}"),
    }
}

fn put_spanner(w: &mut WireWriter, spanner: &Graph) {
    w.put_len(spanner.edge_count());
    for (_, edge) in spanner.edges() {
        w.put_u32(edge.source().as_u32());
        w.put_u32(edge.target().as_u32());
        w.put_f64(edge.weight());
    }
}

fn put_distributed(w: &mut WireWriter, result: &DistributedSpannerResult) {
    put_spanner(w, &result.spanner);
    w.put_len(result.rounds.rounds);
    w.put_len(result.rounds.messages);
    w.put_len(result.partitions);
}

/// Compares every `(case, pin)` against `digest(case)` and reports all
/// moved pins at once, with the measured values to paste back.
fn check<C: std::fmt::Debug + Copy>(pins: &[(C, u64)], digest: impl Fn(usize, C) -> u64) {
    let mut failures = Vec::new();
    for (i, &(case, expected)) in pins.iter().enumerate() {
        let got = digest(i, case);
        if got != expected {
            failures.push(format!("({case:?}, {got:#018x})"));
        }
    }
    assert!(failures.is_empty(), "moved pins:\n{}", failures.join("\n"));
}

#[test]
fn local_ft_spanner_is_pinned() {
    let pins: [((&str, u32, &str), u64); 9] = [
        (("gnp", 1, "vertex"), 0xe827_b7d7_e169_ffdb),
        (("gnp", 2, "vertex"), 0xfb04_68c6_894f_6a68),
        (("gnp", 1, "edge"), 0x20e0_1c76_bbc0_4f20),
        (("grid", 1, "vertex"), 0xb837_c78e_f36c_1eae),
        (("grid", 2, "vertex"), 0x1881_7626_208c_ba46),
        (("grid", 1, "edge"), 0x19a2_5d85_886f_a5cf),
        (("geometric", 1, "vertex"), 0x8be0_0879_61d7_2946),
        (("geometric", 2, "vertex"), 0x2ea9_9e7d_6611_de14),
        (("geometric", 1, "edge"), 0x8106_3c47_f29e_f0c1),
    ];
    check(&pins, |i, (name, f, model)| {
        let graph = family(name, 100 + i as u64);
        let params = match model {
            "vertex" => SpannerParams::vertex(2, f),
            _ => SpannerParams::edge(2, f),
        };
        let mut rng = StdRng::seed_from_u64(200 + i as u64);
        let result = local_ft_spanner(&graph, params, &mut rng);
        let mut w = WireWriter::new();
        put_distributed(&mut w, &result);
        fnv1a64(w.as_slice())
    });
}

#[test]
fn congest_ft_spanner_is_pinned() {
    let pins: [((&str, u32), u64); 6] = [
        (("gnp", 1), 0x37ac_c1b6_1b02_381d),
        (("gnp", 2), 0x4e2b_5627_56ee_f02e),
        (("grid", 1), 0x4e88_53b6_9779_d373),
        (("grid", 2), 0xec0e_44f0_e3e8_4b0f),
        (("geometric", 1), 0x4888_2c6b_603e_0289),
        (("geometric", 2), 0x97be_30dc_93e7_0697),
    ];
    check(&pins, |i, (name, f)| {
        let graph = family(name, 300 + i as u64);
        let mut rng = StdRng::seed_from_u64(400 + i as u64);
        let out = congest_ft_spanner(&graph, SpannerParams::vertex(2, f), &mut rng);
        let mut w = WireWriter::new();
        put_distributed(&mut w, &out.result);
        w.put_len(out.iterations);
        w.put_len(out.phase1_rounds);
        fnv1a64(w.as_slice())
    });
}

#[test]
fn congest_baswana_sen_is_pinned() {
    let pins: [((&str, u32), u64); 6] = [
        (("gnp", 2), 0x307b_2896_2375_8331),
        (("gnp", 3), 0x0bc9_2e02_5363_0c6a),
        (("grid", 2), 0x0bf2_6b00_d8a3_db0a),
        (("grid", 3), 0xc533_4ef7_3ac3_8975),
        (("geometric", 2), 0x86cf_3294_14ae_d931),
        (("geometric", 3), 0xfaba_b656_67a3_5014),
    ];
    check(&pins, |i, (name, k)| {
        let graph = family(name, 500 + i as u64);
        let mut rng = StdRng::seed_from_u64(600 + i as u64);
        let result = congest_baswana_sen(&graph, k, &mut rng);
        let mut w = WireWriter::new();
        put_distributed(&mut w, &result);
        fnv1a64(w.as_slice())
    });
}

#[test]
fn dk_spanners_are_pinned() {
    let pins: [((&str, u32, &str), u64); 12] = [
        (("gnp", 1, "greedy"), 0x13a9_c74c_720e_ed56),
        (("gnp", 2, "greedy"), 0x2a6d_30d8_e20a_ff38),
        (("grid", 1, "greedy"), 0x1cb6_eab4_b4c3_b686),
        (("grid", 2, "greedy"), 0x1b5b_a347_9bb2_d32e),
        (("geometric", 1, "greedy"), 0xe34a_74ae_8704_72fa),
        (("geometric", 2, "greedy"), 0x78bd_3cf7_4280_39e7),
        (("gnp", 1, "baswana-sen"), 0x6986_d1ac_d5e4_a206),
        (("gnp", 2, "baswana-sen"), 0xf95a_4911_7cc5_1bab),
        (("grid", 1, "baswana-sen"), 0xc8d0_1ae3_2ff2_af1e),
        (("grid", 2, "baswana-sen"), 0x6da9_c465_d3fa_6162),
        (("geometric", 1, "baswana-sen"), 0xa0c5_7cb3_661d_fd82),
        (("geometric", 2, "baswana-sen"), 0x307b_3271_4936_2629),
    ];
    check(&pins, |i, (name, f, inner)| {
        let graph = family(name, 700 + i as u64);
        let mut rng = StdRng::seed_from_u64(800 + i as u64);
        let result = match inner {
            "greedy" => dk_spanner(&graph, 2, f, &mut rng),
            _ => dk_spanner_baswana_sen(&graph, 2, f, &mut rng),
        };
        let mut w = WireWriter::new();
        put_spanner(&mut w, &result.spanner);
        fnv1a64(w.as_slice())
    });
}
