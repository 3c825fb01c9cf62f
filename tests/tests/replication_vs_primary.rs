//! The replication differential suite: a replica bootstrapped from a
//! mid-churn snapshot and fed the primary's wave journal must be
//! **indistinguishable** from the primary — bit-identical `f64` distances,
//! identical witness paths (walk-validated against the replica's own
//! spanner), and a byte-identical re-captured snapshot — across ≥20
//! interleaved fault waves, on all three backends.
//!
//! The replica is deliberately allowed to *lag*: catch-up happens every
//! few waves, in batches, through [`WaveJournal::entries_since`] — the
//! same cursor protocol the wire subscription uses — so the suite also
//! pins the lag bookkeeping ([`Replica::lag`]) and the journal's
//! round-trip encoding.

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_graph::{generators, vid};
use ftspan_integration_tests::rng;
use ftspan_oracle::{
    ChurnConfig, FaultOracle, HierarchicalOptions, HierarchicalOracle, JournalEntry, OracleOptions,
    OracleService, Query, Replica, ServiceConfig, ShardPlanOptions, ShardedOptions, ShardedOracle,
    Snapshot, Snapshottable, SpannerOracle, TicketState, WaveJournal,
};
use rand::rngs::StdRng;
use rand::Rng;

/// Waves applied after the bootstrap snapshot (the issue floor is 20).
const WAVES: usize = 22;
const BURST: usize = 40;

fn burst(oracle: &impl SpannerOracle, r: &mut StdRng) -> Vec<Query> {
    let n = oracle.graph().vertex_count();
    (0..BURST)
        .map(|i| {
            let u = vid(r.gen_range(0..n));
            let mut v = vid(r.gen_range(0..n));
            while v == u {
                v = vid(r.gen_range(0..n));
            }
            let faults = sample_fault_set(oracle.graph(), FaultModel::Vertex, i % 3, &[], r);
            if i % 3 == 0 {
                Query::path(u, v, faults)
            } else {
                Query::distance(u, v, faults)
            }
        })
        .collect()
}

/// Bit-exact comparison plus walk validation: the replica's path answers
/// must be genuine walks of the *replica's* spanner whose summed weights
/// reproduce the distance exactly — so agreement is not just memoized
/// numbers but a consistent replicated structure.
fn assert_replica_matches(
    label: &str,
    primary: &impl SpannerOracle,
    replica: &impl SpannerOracle,
    queries: &[Query],
) {
    let want = primary.answer_batch(queries);
    let got = replica.answer_batch(queries);
    for ((query, want), got) in queries.iter().zip(&want).zip(&got) {
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
        if let Some(path) = got.path() {
            assert_eq!(path.first(), Some(&query.u), "{label}");
            assert_eq!(path.last(), Some(&query.v), "{label}");
            let mut walked = 0.0;
            for pair in path.windows(2) {
                let e = replica
                    .spanner()
                    .edge_between(pair[0], pair[1])
                    .unwrap_or_else(|| {
                        panic!("{label}: path edge {pair:?} missing from the replica spanner")
                    });
                walked += replica.spanner().weight(e);
            }
            let d = got.distance().expect("path answers carry a distance");
            assert!(
                (walked - d).abs() < 1e-9,
                "{label}: walk {walked} != distance {d}"
            );
        }
    }
}

/// The generic runner: age the primary, snapshot it mid-churn, bootstrap a
/// replica, then drive ≥20 waves through the primary while the replica
/// catches up in lagged batches via journal cursors.
fn replicate_against<O: SpannerOracle + Snapshottable>(label: &str, mut primary: O, seed: u64) {
    let churn = ChurnConfig::default();
    let mut r = rng(seed);

    // Mid-churn bootstrap: the snapshot already carries repaired edges,
    // accumulated damage, and a non-zero epoch.
    for _ in 0..3 {
        let wave = sample_fault_set(primary.graph(), FaultModel::Vertex, 2, &[], &mut r);
        primary.apply_wave(&wave, &churn);
    }
    let bootstrap = Snapshot::capture(&primary);
    let mut replica: Replica<O> =
        Replica::bootstrap(&bootstrap, churn.clone()).expect("replica bootstraps");
    assert_eq!(replica.epoch(), primary.epoch(), "{label}: bootstrap epoch");

    let mut journal = WaveJournal::new(primary.epoch());
    let mut outstanding = 0u64;
    for round in 0..WAVES {
        let label = format!("{label} wave {round}");
        let wave = sample_fault_set(primary.graph(), FaultModel::Vertex, 2, &[], &mut r);
        let report = primary.apply_wave(&wave, &churn);
        journal
            .append(JournalEntry {
                epoch: primary.epoch(),
                wave,
                report_digest: report.digest(),
            })
            .expect("journal accepts the primary's own history");
        outstanding += 1;
        assert_eq!(replica.lag(&journal), outstanding, "{label}: lag");

        // Catch up only every few rounds, so the replica replays batches
        // of 1–3 entries — the realistic lagged-subscriber shape.
        if round % 3 == 2 || round == WAVES - 1 {
            let entries = journal
                .entries_since(replica.epoch())
                .expect("replica epoch is always inside the journal window");
            let applied = replica.catch_up(entries).expect("replay stays convergent");
            assert_eq!(applied as u64, outstanding, "{label}: applied count");
            outstanding = 0;
            assert_eq!(replica.epoch(), primary.epoch(), "{label}: epoch");
            assert_replica_matches(&label, &primary, replica.oracle(), &burst(&primary, &mut r));
        }
    }

    // The journal itself round-trips: a second replica from the same
    // snapshot, replaying the *decoded* journal, lands on the same epoch.
    let decoded = WaveJournal::decode(&journal.encode()).expect("journal round-trips");
    let mut twin: Replica<O> =
        Replica::bootstrap(&bootstrap, churn).expect("twin replica bootstraps");
    twin.catch_up(decoded.entries())
        .expect("decoded journal replays clean");
    assert_eq!(twin.epoch(), primary.epoch(), "{label}: twin epoch");

    // The end state is the real assertion: byte-identical snapshots mean
    // the replicas converged to the primary's exact structure, not merely
    // to matching answers on the sampled battery.
    let primary_bytes = Snapshot::capture(&primary);
    assert_eq!(
        Snapshot::capture(replica.oracle()),
        primary_bytes,
        "{label}: replica re-capture must be byte-identical"
    );
    assert_eq!(
        Snapshot::capture(twin.oracle()),
        primary_bytes,
        "{label}: twin re-capture must be byte-identical"
    );
}

#[test]
fn single_backend_replica_matches_primary() {
    let mut r = rng(9201);
    let graph = generators::connected_gnp(80, 0.09, &mut r);
    let primary = FaultOracle::build(graph, SpannerParams::vertex(2, 2), OracleOptions::default());
    replicate_against("single", primary, 21);
}

#[test]
fn sharded_backend_replica_matches_primary() {
    let mut r = rng(9202);
    let graph = generators::connected_gnp(80, 0.09, &mut r);
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 4,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    let primary = ShardedOracle::build(graph, SpannerParams::vertex(2, 2), options);
    replicate_against("sharded", primary, 22);
}

#[test]
fn hierarchical_backend_replica_matches_primary() {
    let mut r = rng(9203);
    let graph = generators::connected_gnp(120, 0.06, &mut r);
    let options = HierarchicalOptions {
        plan: ShardPlanOptions {
            shards: 4,
            ..ShardPlanOptions::default()
        },
        ..HierarchicalOptions::default()
    };
    let primary = HierarchicalOracle::build(graph, SpannerParams::vertex(2, 2), options);
    replicate_against("hierarchical", primary, 23);
}

/// A weighted family: replicated distances must agree off unit weights
/// too, where any float-order divergence in repair would show up first.
#[test]
fn weighted_replica_stays_bit_identical() {
    let mut r = rng(9204);
    let base = {
        let mut g = generators::random_geometric(60, 0.22, &mut r);
        generators::overlay_random_spanning_tree(&mut g, &mut r);
        generators::with_random_weights(&g, 1.0, 8.0, &mut r)
    };
    let primary = FaultOracle::build(base, SpannerParams::vertex(2, 1), OracleOptions::default());
    replicate_against("weighted", primary, 24);
}

/// The service-level feed: a journaling [`OracleService`] primary records
/// every wave it publishes, and a library replica catching up from
/// [`ServiceJournal::entries_since`] cursors converges byte-identically —
/// the exact entries the wire subscription streams.
#[test]
fn service_journal_feeds_a_replica_to_convergence() {
    let mut r = rng(9205);
    let graph = generators::connected_gnp(60, 0.1, &mut r);
    let build = |g| FaultOracle::build(g, SpannerParams::vertex(2, 2), OracleOptions::default());

    let service = OracleService::new(build(graph), ServiceConfig::default());
    let journal = service.enable_journal();

    // Age the primary, then bootstrap the replica mid-stream.
    for _ in 0..3 {
        let wave = sample_fault_set(
            &service.oracle().graph().clone(),
            FaultModel::Vertex,
            2,
            &[],
            &mut r,
        );
        wave_through(&service, wave);
    }
    let bootstrap = Snapshot::capture(&*service.oracle());
    let mut replica: Replica<FaultOracle> =
        Replica::bootstrap(&bootstrap, ChurnConfig::default()).expect("replica bootstraps");

    for _ in 0..8 {
        let wave = sample_fault_set(
            &service.oracle().graph().clone(),
            FaultModel::Vertex,
            2,
            &[],
            &mut r,
        );
        wave_through(&service, wave);
        let entries = journal
            .entries_since(replica.epoch())
            .expect("replica cursor stays inside the journal");
        replica.catch_up(&entries).expect("replay stays convergent");
        assert_eq!(replica.epoch(), service.oracle().epoch());
    }
    assert_eq!(
        Snapshot::capture(replica.oracle()),
        Snapshot::capture(&*service.oracle()),
        "service-fed replica must re-capture byte-identically"
    );
}

fn wave_through(service: &OracleService<FaultOracle>, wave: FaultSet) {
    let ticket = service.submit_wave(wave);
    match service.wait(ticket) {
        TicketState::Waved(_) => {}
        other => panic!("wave did not land: {other:?}"),
    }
}
