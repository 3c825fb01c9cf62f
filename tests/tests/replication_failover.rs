//! Primary-kill failover drills, end to end over TCP and through the
//! `ChaosProxy`: a replica bootstraps from a live primary, follows its
//! wave journal, survives the primary's death (mid-stream and
//! mid-snapshot-download), gets promoted, and must then answer
//! **bit-identically** to a never-failed mirror oracle that applied the
//! exact same wave history directly — including waves accepted only
//! *after* the promotion.
//!
//! The recovery contract under test: `PROMOTE` returns the epoch the
//! replica verifiably reached, so the operator re-drives exactly the waves
//! past that epoch from the ops log and the promoted replica converges to
//! the dead primary's intended state — no wave lost, none applied twice.

use std::time::{Duration, Instant};

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_graph::{generators, vid};
use ftspan_integration_tests::rng;
use ftspan_oracle::{
    ChurnConfig, OracleService, Query, ServiceConfig, ShardPlanOptions, ShardedOptions,
    ShardedOracle, Snapshot,
};
use ftspan_server::{
    BatchEntry, ChaosProxy, Client, ProxyFault, ProxyPlan, ReplicaServer, Reply, Server,
    ServerConfig,
};
use rand::rngs::StdRng;
use rand::Rng;

fn build_backend(seed: u64) -> ShardedOracle {
    let mut r = rng(seed);
    let graph = generators::connected_gnp(60, 0.1, &mut r);
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 3,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    ShardedOracle::build(graph, SpannerParams::vertex(2, 2), options)
}

fn battery(oracle: &ShardedOracle, seed: u64) -> Vec<Query> {
    let mut r: StdRng = rng(seed);
    let n = oracle.graph().vertex_count();
    (0..30)
        .map(|i| {
            let u = vid(r.gen_range(0..n));
            let mut v = vid(r.gen_range(0..n));
            while v == u {
                v = vid(r.gen_range(0..n));
            }
            let faults = sample_fault_set(oracle.graph(), FaultModel::Vertex, i % 3, &[], &mut r);
            if i % 3 == 0 {
                Query::path(u, v, faults)
            } else {
                Query::distance(u, v, faults)
            }
        })
        .collect()
}

/// Bit-exact wire-vs-mirror comparison: `f64` bits and witness paths.
fn assert_matches_mirror(label: &str, client: &mut Client, mirror: &ShardedOracle, seed: u64) {
    let queries = battery(mirror, seed);
    let want = mirror.answer_batch(&queries);
    let entries = client.batch(queries.clone()).expect("battery served");
    for ((query, want), got) in queries.iter().zip(&want).zip(&entries) {
        let BatchEntry::Answered(got) = got else {
            panic!("{label}: unexpected shed for {query:?}");
        };
        assert_eq!(
            want.distance().map(f64::to_bits),
            got.distance.map(f64::to_bits),
            "{label}: distance bits diverged for {query:?}"
        );
        assert_eq!(
            want.path(),
            got.path.as_deref(),
            "{label}: witness path diverged for {query:?}"
        );
    }
}

/// Polls the replica's applied epoch until it reaches `target` — the
/// subscription is asynchronous, but bounded: well under a second on
/// loopback, and the deadline turns a stuck follower into a test failure
/// instead of a hang.
fn await_epoch(replica: &ReplicaServer<ShardedOracle>, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.epoch() < target {
        assert!(
            Instant::now() < deadline,
            "replica stuck at epoch {} short of {target}",
            replica.epoch()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Drill A — the primary dies **mid-stream**: the proxy carrying the
/// replica's bootstrap and subscription is yanked (an abrupt socket kill
/// that respects no frame boundary), then the primary itself shuts down.
/// The replica keeps serving reads at the epoch it verified, `PROMOTE`
/// reports that epoch, the lost tail of the wave history is re-driven,
/// and the promoted replica is bit-identical to the never-failed mirror —
/// through fresh post-promotion waves too.
#[test]
fn primary_killed_mid_stream_promotes_a_bit_identical_replica() {
    let mut mirror = build_backend(9301);
    let churn = ChurnConfig::default();
    let mut r = rng(9310);
    let waves: Vec<FaultSet> = (0..8)
        .map(|_| sample_fault_set(mirror.graph(), FaultModel::Vertex, 2, &[], &mut r))
        .collect();

    let service = OracleService::new(build_backend(9301), ServiceConfig::default());
    let primary =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("primary starts");
    let mut ops = Client::connect(primary.local_addr()).expect("ops client connects");

    // Age the primary before the replica exists, so the bootstrap snapshot
    // is mid-churn; the mirror applies the same history directly.
    for wave in &waves[..3] {
        ops.wave(wave.clone()).expect("wave accepted");
        mirror.apply_wave(wave, &churn);
    }

    // The replica reaches the primary only through the chaos proxy — the
    // cable we will pull.
    let proxy =
        ChaosProxy::start(primary.local_addr(), ProxyPlan::passthrough()).expect("proxy starts");
    let replica: ReplicaServer<ShardedOracle> = ReplicaServer::start(
        proxy.local_addr(),
        "127.0.0.1:0",
        ServiceConfig::default(),
        ServerConfig::default(),
    )
    .expect("replica bootstraps through the proxy");
    await_epoch(&replica, 3);

    // While following, the replica serves reads bit-identically and
    // rejects waves with a typed error; the primary rejects PROMOTE.
    let mut reader = Client::connect(replica.local_addr()).expect("reader connects");
    assert_matches_mirror("following", &mut reader, &mirror, 41);
    match reader.wave(waves[3].clone()).expect("a typed reply") {
        Reply::Error(message) => assert!(message.contains("read-only"), "{message}"),
        other => panic!("a follower must reject WAVE, got {other:?}"),
    }
    assert!(
        ops.promote().is_err(),
        "a primary must reject PROMOTE with a typed error"
    );

    // More history lands; the stream races the kill below, so the replica
    // may verify any prefix of it — the promotion epoch tells us which.
    for wave in &waves[3..6] {
        ops.wave(wave.clone()).expect("wave accepted");
        mirror.apply_wave(wave, &churn);
    }

    // Pull the cable mid-stream, then kill the primary outright.
    proxy.shutdown();
    let _ = primary.shutdown();

    // The orphaned replica still serves reads. Promote it and re-drive the
    // waves past its verified epoch from the ops log.
    assert!(!replica.is_promoted());
    let mut failover = Client::connect(replica.local_addr()).expect("failover client connects");
    let promoted_at = failover.promote().expect("promotion succeeds");
    assert!(replica.is_promoted());
    assert!(
        (3..=6).contains(&promoted_at),
        "promoted at epoch {promoted_at}, expected within the streamed window"
    );
    assert!(
        replica.divergence().is_none(),
        "a killed stream must not read as divergence"
    );
    for wave in &waves[usize::try_from(promoted_at).unwrap()..6] {
        failover
            .wave(wave.clone())
            .expect("re-driven wave accepted");
    }
    assert_eq!(replica.epoch(), 6, "re-drive must close the gap exactly");
    assert_matches_mirror("promoted", &mut failover, &mirror, 42);

    // The promoted replica is a real primary: fresh waves land and the
    // answers still track the mirror bit-for-bit.
    for wave in &waves[6..] {
        failover.wave(wave.clone()).expect("fresh wave accepted");
        mirror.apply_wave(wave, &churn);
    }
    assert_matches_mirror("post-promotion waves", &mut failover, &mirror, 43);

    // Convergence in full: the handed-back service re-captures to the
    // mirror's exact bytes.
    drop(reader);
    drop(failover);
    let service = replica.shutdown();
    assert_eq!(
        Snapshot::capture(&*service.oracle()),
        Snapshot::capture(&mirror),
        "promoted replica must be byte-identical to the never-failed mirror"
    );
}

/// Drill B — the primary dies **mid-snapshot**: the proxy cuts the
/// download partway through a chunk. The bootstrap must fail with a typed
/// I/O error (never hang, never restore a truncated snapshot), and a
/// retry against the healthy primary succeeds and follows to convergence.
#[test]
fn primary_killed_mid_snapshot_fails_typed_then_retries_clean() {
    let mut mirror = build_backend(9302);
    let churn = ChurnConfig::default();
    let mut r = rng(9320);
    let waves: Vec<FaultSet> = (0..4)
        .map(|_| sample_fault_set(mirror.graph(), FaultModel::Vertex, 2, &[], &mut r))
        .collect();

    // Small chunks so the download is a real multi-frame stream.
    let config = ServerConfig {
        snapshot_chunk_len: 512,
        ..ServerConfig::default()
    };
    let service = OracleService::new(build_backend(9302), ServiceConfig::default());
    let primary = Server::start(service, "127.0.0.1:0", config).expect("primary starts");
    let mut ops = Client::connect(primary.local_addr()).expect("ops client connects");
    for wave in &waves[..2] {
        ops.wave(wave.clone()).expect("wave accepted");
        mirror.apply_wave(wave, &churn);
    }

    // The mirror is bit-identical to the primary, so its capture tells us
    // the download size — cut the reply leg halfway through it.
    let snapshot_len = Snapshot::capture(&mirror).len();
    assert!(snapshot_len > 1024, "snapshot too small to cut mid-chunk");
    let proxy = ChaosProxy::start(
        primary.local_addr(),
        ProxyPlan {
            to_server: ProxyFault::None,
            to_client: ProxyFault::CloseAfter {
                bytes: snapshot_len / 2,
            },
        },
    )
    .expect("proxy starts");

    let died = ReplicaServer::<ShardedOracle>::start(
        proxy.local_addr(),
        "127.0.0.1:0",
        ServiceConfig::default(),
        ServerConfig::default(),
    )
    .expect_err("a truncated snapshot download must be a typed error");
    assert!(
        matches!(
            died.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::BrokenPipe
        ),
        "unexpected bootstrap failure kind: {died}"
    );
    proxy.shutdown();

    // Retry against the healthy primary: bootstrap, follow, survive the
    // primary's death, promote, re-drive, converge.
    let replica: ReplicaServer<ShardedOracle> = ReplicaServer::start(
        primary.local_addr(),
        "127.0.0.1:0",
        ServiceConfig::default(),
        ServerConfig::default(),
    )
    .expect("retry bootstraps clean");
    for wave in &waves[2..] {
        ops.wave(wave.clone()).expect("wave accepted");
        mirror.apply_wave(wave, &churn);
    }
    await_epoch(&replica, 4);
    let _ = primary.shutdown();

    let mut failover = Client::connect(replica.local_addr()).expect("failover client connects");
    let promoted_at = failover.promote().expect("promotion succeeds");
    assert_eq!(promoted_at, 4, "the replica had already verified epoch 4");
    assert_matches_mirror("promoted", &mut failover, &mirror, 44);

    drop(failover);
    let service = replica.shutdown();
    assert_eq!(
        Snapshot::capture(&*service.oracle()),
        Snapshot::capture(&mirror),
        "retried replica must be byte-identical to the never-failed mirror"
    );
}

/// An idle primary answers a subscription with its backlog at once, even
/// an empty one: a replica that is already current must not wait out a
/// journal heartbeat tick before it can start.
#[test]
fn idle_primary_sends_an_empty_backlog_at_once() {
    let service = OracleService::new(build_backend(9303), ServiceConfig::default());
    let epoch = service.oracle().epoch();
    let primary =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("primary starts");
    let mut subscriber = Client::connect(primary.local_addr()).expect("subscriber connects");
    let start = Instant::now();
    let backlog = subscriber
        .journal_subscribe(epoch)
        .expect("subscription accepted");
    let waited = start.elapsed();
    assert!(backlog.is_empty(), "an idle primary has no backlog");
    assert!(
        waited < Duration::from_millis(100),
        "the empty backlog took {waited:?}"
    );
    drop(subscriber);
    let _ = primary.shutdown();
}
