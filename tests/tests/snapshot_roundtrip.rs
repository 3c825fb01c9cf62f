//! The warm-restart differential suite: an oracle captured with
//! [`Snapshot::capture`] and restored with [`Snapshot::restore`] must be
//! **indistinguishable** from the original under replay — bit-identical
//! answers for the same query stream, and identical repair reports for the
//! same subsequent fault waves — for both the single and the sharded
//! backend, captured cold and captured mid-churn.
//!
//! The caches deliberately restart empty (a snapshot persists structure,
//! not warmth), so the replay also checks that answers do not depend on
//! cache state: the original answers from warm trees, the restored oracle
//! rebuilds them, and the bits must still agree.

use ftspan::{sample_fault_set, FaultModel, SpannerParams};
use ftspan_graph::{generators, vid};
use ftspan_integration_tests::rng;
use ftspan_oracle::{
    ChurnConfig, FaultOracle, OracleOptions, Query, ShardPlanOptions, ShardedOptions,
    ShardedOracle, Snapshot, SnapshotKind, Snapshottable, SpannerOracle, WaveReport,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Replay rounds after the restore (each: one wave + one burst).
const ROUNDS: usize = 6;
const BURST: usize = 60;

fn burst(oracle: &impl SpannerOracle, f: usize, r: &mut StdRng) -> Vec<Query> {
    let n = oracle.graph().vertex_count();
    (0..BURST)
        .map(|i| {
            let u = vid(r.gen_range(0..n));
            let mut v = vid(r.gen_range(0..n));
            while v == u {
                v = vid(r.gen_range(0..n));
            }
            let faults = sample_fault_set(oracle.graph(), FaultModel::Vertex, f, &[], r);
            if i % 3 == 0 {
                Query::path(u, v, faults)
            } else {
                Query::distance(u, v, faults)
            }
        })
        .collect()
}

/// Bit-identical answer comparison: exact `f64` bits and exact witness
/// paths. The restored oracle rebuilds the same deterministic trees, so
/// even path tie-breaking must agree.
fn assert_answers_identical(
    label: &str,
    queries: &[Query],
    want: &[ftspan_oracle::Answer],
    got: &[ftspan_oracle::Answer],
) {
    assert_eq!(want.len(), got.len(), "{label}");
    for ((query, want), got) in queries.iter().zip(want).zip(got) {
        assert_eq!(
            want.distance().map(f64::to_bits),
            got.distance().map(f64::to_bits),
            "{label}: distance bits diverged for {query:?}"
        );
        assert_eq!(
            want.path(),
            got.path(),
            "{label}: witness path diverged for {query:?}"
        );
    }
}

/// Wave reports must match field-for-field; `elapsed` is wall-clock and
/// excluded (the pattern the service differential suite uses).
fn assert_reports_identical(label: &str, want: &WaveReport, got: &WaveReport) {
    assert_eq!(want.outcome.wave, got.outcome.wave, "{label}");
    assert_eq!(
        want.outcome.broken_pairs, got.outcome.broken_pairs,
        "{label}"
    );
    assert_eq!(want.outcome.candidates, got.outcome.candidates, "{label}");
    assert_eq!(want.outcome.edges_added, got.outcome.edges_added, "{label}");
    assert_eq!(want.outcome.escalated, got.outcome.escalated, "{label}");
    assert_eq!(
        want.outcome.surviving_spanner_edges, got.outcome.surviving_spanner_edges,
        "{label}"
    );
    assert_eq!(want.rebuilt_lanes, got.rebuilt_lanes, "{label}");
    assert_eq!(want.severed_pairs, got.severed_pairs, "{label}");
}

/// The generic runner: optionally pre-churn the original, capture, restore,
/// then drive both oracles through an identical wave-and-burst replay.
fn capture_restore_replay<O: SpannerOracle + Snapshottable>(
    label: &str,
    mut original: O,
    pre_waves: usize,
    f: usize,
    seed: u64,
) {
    let churn = ChurnConfig::default();
    let mut r = rng(seed);

    // Age the original before the capture so the snapshot carries repaired
    // spanner edges, accumulated damage, and a non-zero epoch.
    for _ in 0..pre_waves {
        let wave = sample_fault_set(original.graph(), FaultModel::Vertex, 2, &[], &mut r);
        original.apply_wave(&wave, &churn);
        original.answer_batch(&burst(&original, f, &mut r));
    }

    let bytes = Snapshot::capture(&original);
    let mut restored: O = Snapshot::restore(&bytes).expect("snapshot restores");
    assert_eq!(restored.epoch(), original.epoch(), "{label}: epoch");
    assert_eq!(
        restored.graph().edge_count(),
        original.graph().edge_count(),
        "{label}: effective graph"
    );
    assert_eq!(
        restored.spanner().edge_count(),
        original.spanner().edge_count(),
        "{label}: spanner"
    );
    // A restored oracle re-captures to the exact same bytes: the snapshot
    // is a fixed point, so chained warm restarts never drift.
    assert_eq!(
        Snapshot::capture(&restored),
        bytes,
        "{label}: re-capture must be byte-identical"
    );

    for round in 0..ROUNDS {
        let label = format!("{label} round {round}");
        let queries = burst(&original, f, &mut r);
        let want = original.answer_batch(&queries);
        let got = restored.answer_batch(&queries);
        assert_answers_identical(&label, &queries, &want, &got);

        // The same wave lands on both; repair must take the identical
        // decisions (same candidates, same added edges, same escalation).
        let wave = sample_fault_set(original.graph(), FaultModel::Vertex, 2, &[], &mut r);
        let want_report = original.apply_wave(&wave, &churn);
        let got_report = restored.apply_wave(&wave, &churn);
        assert_reports_identical(&label, &want_report, &got_report);
        assert_eq!(restored.epoch(), original.epoch(), "{label}");
    }

    // After an identical divergence-free history, the two snapshots still
    // agree byte-for-byte.
    assert_eq!(
        Snapshot::capture(&original),
        Snapshot::capture(&restored),
        "{label}: post-replay snapshots diverged"
    );
}

fn single_oracle(seed: u64) -> FaultOracle {
    let mut r = rng(seed);
    let graph = generators::connected_gnp(80, 0.09, &mut r);
    FaultOracle::build(graph, SpannerParams::vertex(2, 2), OracleOptions::default())
}

fn sharded_oracle(seed: u64) -> ShardedOracle {
    let mut r = rng(seed);
    let graph = generators::connected_gnp(80, 0.09, &mut r);
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 4,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    ShardedOracle::build(graph, SpannerParams::vertex(2, 2), options)
}

#[test]
fn single_oracle_snapshot_restores_cold() {
    capture_restore_replay("single-cold", single_oracle(4101), 0, 2, 11);
}

#[test]
fn single_oracle_snapshot_restores_mid_churn() {
    capture_restore_replay("single-churned", single_oracle(4102), 5, 2, 12);
}

#[test]
fn sharded_oracle_snapshot_restores_cold() {
    capture_restore_replay("sharded-cold", sharded_oracle(4103), 0, 2, 13);
}

#[test]
fn sharded_oracle_snapshot_restores_mid_churn() {
    capture_restore_replay("sharded-churned", sharded_oracle(4104), 5, 2, 14);
}

/// A weighted family: restored weights must be the exact bits the original
/// carried, so replayed distances stay bit-identical even off unit weights.
#[test]
fn weighted_snapshot_stays_bit_identical() {
    let mut r = rng(4105);
    let base = {
        let mut g = generators::random_geometric(60, 0.22, &mut r);
        generators::overlay_random_spanning_tree(&mut g, &mut r);
        generators::with_random_weights(&g, 1.0, 8.0, &mut r)
    };
    let oracle = FaultOracle::build(base, SpannerParams::vertex(2, 1), OracleOptions::default());
    capture_restore_replay("weighted", oracle, 3, 1, 15);
}

/// The kind tag routes a snapshot to the right backend and refuses the
/// wrong one with a typed error, so a deployment can sniff before
/// restoring.
#[test]
fn snapshot_kind_is_sniffable() {
    let single = Snapshot::capture(&single_oracle(4106));
    let sharded = Snapshot::capture(&sharded_oracle(4107));
    assert_eq!(Snapshot::peek_kind(&single).unwrap(), SnapshotKind::Single);
    assert_eq!(
        Snapshot::peek_kind(&sharded).unwrap(),
        SnapshotKind::Sharded
    );
    assert!(Snapshot::restore::<ShardedOracle>(&single).is_err());
    assert!(Snapshot::restore::<FaultOracle>(&sharded).is_err());
}

/// A built oracle holds exactly the memory of its snapshot-restored twin,
/// after the build and after a wave: the graphs serving holds carry no
/// growth slack from construction or repair, so `memory_bytes()` depends
/// only on what is served, not on how it was grown.
#[test]
fn restored_twin_holds_the_same_memory() {
    let churn = ChurnConfig::default();
    let mut single = single_oracle(4108);
    let mut sharded = sharded_oracle(4108);
    let mut r = rng(16);
    for stage in ["built", "after one wave"] {
        let twin: FaultOracle = Snapshot::restore(&Snapshot::capture(&single)).unwrap();
        assert_eq!(single.memory_bytes(), twin.memory_bytes(), "single {stage}");
        let twin: ShardedOracle = Snapshot::restore(&Snapshot::capture(&sharded)).unwrap();
        assert_eq!(
            sharded.memory_bytes(),
            twin.memory_bytes(),
            "sharded {stage}"
        );
        let wave = sample_fault_set(single.graph(), FaultModel::Vertex, 3, &[], &mut r);
        single.apply_wave(&wave, &churn);
        sharded.apply_wave(&wave, &churn);
    }
}
