//! End-to-end exercise of `ftspan-server`: a real TCP server on an
//! ephemeral port, concurrent clients with duplicate-heavy traffic, a
//! fault wave landing mid-stream, an explicitly rate-limited client, the
//! metrics and snapshot endpoints, and a graceful shutdown that hands the
//! warm service back. Every answer served over the wire must be
//! bit-identical to a direct `answer_batch` on an identically-built
//! backend.

use std::thread;

use ftspan::{sample_fault_set, FaultModel, FaultSet, SpannerParams};
use ftspan_graph::{generators, vid};
use ftspan_integration_tests::rng;
use ftspan_oracle::{
    OracleService, Query, ServiceConfig, ShardPlanOptions, ShardedOptions, ShardedOracle, Snapshot,
    SpannerOracle,
};
use ftspan_server::{BatchEntry, Client, Reply, Server, ServerConfig, ShedReason, WireAnswer};
use rand::rngs::StdRng;
use rand::Rng;

const CLIENTS: usize = 4;
const QUERIES_PER_CLIENT: usize = 120;

fn build_backend(seed: u64) -> ShardedOracle {
    let mut r = rng(seed);
    let graph = generators::connected_gnp(90, 0.08, &mut r);
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 4,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    ShardedOracle::build(graph, SpannerParams::vertex(2, 2), options)
}

/// Duplicate-heavy workload: few distinct queries sampled with repetition,
/// so cross-connection coalescing in the shared service rounds has work.
fn workload(oracle: &ShardedOracle, seed: u64) -> Vec<Query> {
    let mut r: StdRng = rng(seed);
    let n = oracle.graph().vertex_count();
    let distinct: Vec<Query> = (0..24)
        .map(|i| {
            let u = vid(r.gen_range(0..n));
            let mut v = vid(r.gen_range(0..n));
            while v == u {
                v = vid(r.gen_range(0..n));
            }
            let faults = sample_fault_set(oracle.graph(), FaultModel::Vertex, 2, &[], &mut r);
            if i % 3 == 0 {
                Query::path(u, v, faults)
            } else {
                Query::distance(u, v, faults)
            }
        })
        .collect();
    (0..QUERIES_PER_CLIENT)
        .map(|_| distinct[r.gen_range(0..distinct.len())].clone())
        .collect()
}

fn assert_entries_match(
    label: &str,
    queries: &[Query],
    entries: &[BatchEntry],
    direct: &ShardedOracle,
) {
    let want = direct.answer_batch(queries);
    assert_eq!(entries.len(), want.len(), "{label}");
    for ((query, want), got) in queries.iter().zip(&want).zip(entries) {
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

/// The main end-to-end scenario: concurrent duplicate-heavy clients, a
/// wave barrier mid-test, post-wave verification, metrics, snapshot, and a
/// drained shutdown.
#[test]
fn server_answers_match_direct_backend_across_a_wave() {
    let mut direct = build_backend(7301);
    let backend = build_backend(7301);
    let service = OracleService::new(backend, ServiceConfig::default());
    let server =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();

    // Phase 1 — concurrent clients, duplicate-heavy batches, pre-wave.
    // Their jobs interleave in shared service rounds; answers must still be
    // the direct backend's bits.
    let phase1: Vec<(Vec<Query>, Vec<BatchEntry>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let queries = workload(&direct, 100 + c as u64);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let entries = client.batch(queries.clone()).expect("batch served");
                    (queries, entries)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (c, (queries, entries)) in phase1.iter().enumerate() {
        assert_entries_match(&format!("phase1 client {c}"), queries, entries, &direct);
    }

    // Single-query endpoints agree with the batch path.
    let mut probe = Client::connect(addr).expect("probe connects");
    let empty = FaultSet::empty(FaultModel::Vertex);
    let want = direct.path(vid(3), vid(40), &empty);
    match probe
        .path(vid(3), vid(40), empty.clone())
        .expect("PATH served")
    {
        Reply::Answer(WireAnswer { distance, path }) => {
            assert_eq!(
                distance.map(f64::to_bits),
                want.as_ref().map(|(d, _)| d.to_bits())
            );
            assert_eq!(path, want.map(|(_, p)| p));
        }
        other => panic!("unexpected PATH reply: {other:?}"),
    }

    // Phase 2 — a wave lands mid-stream through the same protocol. The
    // summary must mirror the direct backend's repair decision for the
    // identical wave.
    let wave = {
        let mut r = rng(7302);
        sample_fault_set(direct.graph(), FaultModel::Vertex, 2, &[], &mut r)
    };
    let direct_report = SpannerOracle::apply_wave(&mut direct, &wave, &Default::default());
    match probe.wave(wave).expect("WAVE served") {
        Reply::Wave(summary) => {
            assert_eq!(summary.epoch, direct.epoch(), "epoch after wave");
            assert_eq!(
                summary.edges_added,
                direct_report.outcome.edges_added as u64
            );
            assert_eq!(
                summary.broken_pairs,
                direct_report.outcome.broken_pairs.len() as u64
            );
            assert_eq!(summary.escalated, direct_report.outcome.escalated);
            assert_eq!(
                summary.rebuilt_lanes,
                direct_report
                    .rebuilt_lanes
                    .iter()
                    .map(|&l| l as u32)
                    .collect::<Vec<_>>()
            );
        }
        other => panic!("unexpected WAVE reply: {other:?}"),
    }

    // Phase 3 — concurrent post-wave traffic: answers now reflect the
    // repaired spanner, still bit-identical to the (post-wave) direct twin.
    let phase3: Vec<(Vec<Query>, Vec<BatchEntry>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let queries = workload(&direct, 300 + c as u64);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let entries = client.batch(queries.clone()).expect("batch served");
                    (queries, entries)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (c, (queries, entries)) in phase3.iter().enumerate() {
        assert_entries_match(&format!("phase3 client {c}"), queries, entries, &direct);
    }

    // Metrics endpoint: the pinned Prometheus families are present and the
    // query counter reflects the traffic above.
    let metrics = probe.metrics().expect("METRICS served");
    for family in [
        "ftspan_queries_total",
        "ftspan_cache_hit_ratio",
        "ftspan_shed_total",
        "ftspan_waves_total 1",
    ] {
        assert!(
            metrics.contains(family),
            "metrics missing {family}:\n{metrics}"
        );
    }

    // Snapshot endpoint: the downloaded bytes restore to an oracle that
    // answers bit-identically to the live one.
    let snapshot = probe.snapshot().expect("SNAPSHOT served");
    let restored: ShardedOracle = Snapshot::restore(&snapshot).expect("snapshot restores");
    assert_eq!(restored.epoch(), direct.epoch());
    let check = workload(&direct, 999);
    let want = direct.answer_batch(&check);
    let got = restored.answer_batch(&check);
    for ((query, want), got) in check.iter().zip(&want).zip(&got) {
        assert_eq!(
            want.distance().map(f64::to_bits),
            got.distance().map(f64::to_bits),
            "restored snapshot diverged for {query:?}"
        );
    }

    // Out-of-range vertex ids are rejected with an error, not a panic, and
    // the connection survives to serve the next request.
    match probe.distance(vid(10_000), vid(0), FaultSet::empty(FaultModel::Vertex)) {
        Ok(Reply::Error(message)) => assert!(message.contains("out of range"), "{message}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert!(
        probe.metrics().is_ok(),
        "connection stays usable after an error"
    );

    // Graceful shutdown returns the warm service: counters accumulated over
    // the wire survive, and duplicate-heavy cross-connection traffic
    // actually coalesced.
    let service = server.shutdown();
    let metrics = service.metrics();
    let submitted = (2 * CLIENTS * QUERIES_PER_CLIENT) as u64;
    assert!(
        metrics.submitted >= submitted,
        "expected at least {submitted} submissions, got {}",
        metrics.submitted
    );
    assert_eq!(metrics.waves, 1);
    assert!(
        metrics.coalesced > 0,
        "duplicates must coalesce: {metrics:?}"
    );
    assert_eq!(
        metrics.shed, 0,
        "the pending queue never reached its max_pending cap"
    );
}

/// A token bucket with zero refill is a hard per-connection budget: the
/// first `capacity` queries are answered, the rest come back as explicit
/// `Shed(RateLimited)` replies — deterministically, and without affecting
/// an unthrottled view of the backend.
#[test]
fn rate_limited_client_sees_explicit_sheds() {
    const CAPACITY: u32 = 200;
    const SENT: usize = 250;

    let direct = build_backend(7401);
    let backend = build_backend(7401);
    let service = OracleService::new(backend, ServiceConfig::default());
    let config = ServerConfig {
        rate_capacity: CAPACITY,
        rate_refill_per_sec: 0.0,
        ..ServerConfig::default()
    };
    let server = Server::start(service, "127.0.0.1:0", config).expect("server starts");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("client connects");
    let empty = FaultSet::empty(FaultModel::Vertex);
    let n = direct.graph().vertex_count();
    let mut answered = 0usize;
    let mut shed = 0usize;
    for i in 0..SENT {
        let (u, v) = (vid(i % n), vid((i * 7 + 1) % n));
        if u == v {
            continue;
        }
        match client.distance(u, v, empty.clone()).expect("reply arrives") {
            Reply::Answer(answer) => {
                answered += 1;
                assert_eq!(
                    answer.distance.map(f64::to_bits),
                    direct.distance(u, v, &empty).map(f64::to_bits),
                    "rate-limited client's served answers still match"
                );
            }
            Reply::Shed(ShedReason::RateLimited) => shed += 1,
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(answered, CAPACITY as usize, "exactly the budget is served");
    assert_eq!(
        shed + answered,
        SENT - (0..SENT)
            .filter(|i| vid(i % n) == vid((i * 7 + 1) % n))
            .count()
    );

    // A fresh connection gets a fresh bucket: the limit is per client, not
    // global.
    let mut fresh = Client::connect(addr).expect("fresh client connects");
    match fresh.distance(vid(1), vid(5), empty).expect("reply") {
        Reply::Answer(_) => {}
        other => panic!("fresh connection throttled: {other:?}"),
    }

    let service = server.shutdown();
    assert_eq!(
        u64::try_from(answered + 1).unwrap(),
        service.metrics().submitted,
        "shed requests never reach the service queue"
    );
}

/// A connection that opens a frame and never finishes it — the slow-loris
/// pattern, here a raw socket sending only a frame header — is shed by the
/// per-connection read timeout: one typed `Shed(Timeout)` reply, then the
/// server closes the connection and frees the handler thread. Healthy
/// clients on other connections are unaffected, and shutdown stays prompt.
#[test]
fn stalled_connection_is_shed_with_a_typed_timeout_reply() {
    use ftspan_server::protocol::{decode_reply, read_frame};
    use std::io::Write;
    use std::time::Duration;

    let direct = build_backend(7601);
    let service = OracleService::new(build_backend(7601), ServiceConfig::default());
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(120)),
        ..ServerConfig::default()
    };
    let server = Server::start(service, "127.0.0.1:0", config).expect("server starts");
    let addr = server.local_addr();

    // The loris: a frame header promising 64 bytes, then silence.
    let mut loris = std::net::TcpStream::connect(addr).expect("loris connects");
    loris
        .write_all(&64u32.to_le_bytes())
        .expect("header written");
    let body = read_frame(&mut loris)
        .expect("a reply frame arrives before the stall can pin the handler")
        .expect("a typed reply, not a silent close")
        .into_intact()
        .expect("the reply frame passes its checksum");
    match decode_reply(&body).expect("reply decodes") {
        Reply::Shed(ShedReason::Timeout) => {}
        other => panic!("expected Shed(Timeout), got {other:?}"),
    }
    // After the shed the server closes: the stream reaches a clean EOF.
    assert!(
        matches!(read_frame(&mut loris), Ok(None) | Err(_)),
        "the shed connection must be closed, not left open"
    );

    // A healthy client is untouched by the loris next door.
    let mut healthy = Client::connect(addr).expect("healthy client connects");
    let empty = FaultSet::empty(FaultModel::Vertex);
    match healthy
        .distance(vid(2), vid(30), empty.clone())
        .expect("served")
    {
        Reply::Answer(answer) => assert_eq!(
            answer.distance.map(f64::to_bits),
            direct.distance(vid(2), vid(30), &empty).map(f64::to_bits)
        ),
        other => panic!("unexpected reply: {other:?}"),
    }

    // Prompt shutdown: the loris handler was freed by the timeout, not
    // parked inside `read_frame` until process exit.
    let _ = server.shutdown();
}

/// Dropping the server (instead of calling `shutdown`) still tears
/// everything down without hanging the process.
#[test]
fn dropping_the_server_does_not_hang() {
    let backend = build_backend(7501);
    let service = OracleService::new(backend, ServiceConfig::default());
    let server =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("client connects");
    let empty = FaultSet::empty(FaultModel::Vertex);
    assert!(matches!(
        client.distance(vid(0), vid(3), empty).expect("served"),
        Reply::Answer(_)
    ));
    drop(server);
    // The connection is closed by shutdown; the next call fails cleanly.
    let mut failed = false;
    for _ in 0..3 {
        if client
            .distance(vid(0), vid(3), FaultSet::empty(FaultModel::Vertex))
            .is_err()
        {
            failed = true;
            break;
        }
    }
    assert!(failed, "connection must observe the shutdown");
}

/// The accept loop blocks in `accept`; shutdown wakes it with a connection
/// to the server's own address. An idle server — bound to loopback or to
/// the wildcard address, reached through loopback — must shut down at once,
/// not after a poll interval or a client's arrival.
#[test]
fn shutting_down_an_idle_server_returns_promptly() {
    use std::time::{Duration, Instant};

    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let service = OracleService::new(build_backend(7601), ServiceConfig::default());
        let server = Server::start(service, addr, ServerConfig::default()).expect("server starts");
        thread::sleep(Duration::from_millis(50));
        // Shut down on a helper thread so a regression fails the test
        // instead of hanging it.
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let start = Instant::now();
            let _ = server.shutdown();
            let _ = done.send(start.elapsed());
        });
        let elapsed = finished
            .recv_timeout(Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("idle shutdown on {addr} did not return"));
        assert!(
            elapsed < Duration::from_secs(2),
            "idle shutdown on {addr} took {elapsed:?}"
        );
    }
}

/// A connection opened the moment `Server::start` returns is accepted and
/// served; the server then keeps accepting further connections.
#[test]
fn a_connection_opened_right_after_start_is_served() {
    let service = OracleService::new(build_backend(7602), ServiceConfig::default());
    let server =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    for _ in 0..3 {
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let reply = client
            .distance(vid(0), vid(3), FaultSet::empty(FaultModel::Vertex))
            .expect("served");
        assert!(matches!(reply, Reply::Answer(_)), "unexpected {reply:?}");
    }
    let _ = server.shutdown();
}

/// Connection churn leaves nothing behind: after 2 000 sequential
/// connect → one query → close cycles, the process's open file descriptors
/// and its live threads (`/proc/self/task`) return to within a small
/// constant of their counts before the churn. Every client read has a
/// timeout, so a server that stops serving fails the test instead of
/// hanging it. The slack absorbs the other tests of this binary, which open
/// and close their own sockets and threads concurrently.
#[cfg(target_os = "linux")]
#[test]
fn connection_churn_does_not_leak_file_descriptors() {
    use ftspan_server::protocol::{decode_reply, encode_request, read_frame, write_frame, Request};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    const CYCLES: usize = 2_000;
    const SLACK: usize = 64;
    let open_fds = || {
        std::fs::read_dir("/proc/self/fd")
            .expect("procfs lists open fds")
            .count()
    };
    let live_threads = || {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs lists live threads")
            .count()
    };

    let service = OracleService::new(build_backend(7801), ServiceConfig::default());
    let server =
        Server::start(service, "127.0.0.1:0", ServerConfig::default()).expect("server starts");
    let addr = server.local_addr();
    let request = encode_request(&Request::Distance {
        u: vid(0),
        v: vid(3),
        faults: FaultSet::empty(FaultModel::Vertex),
    });
    let baseline = open_fds();
    let baseline_threads = live_threads();
    for cycle in 0..CYCLES {
        let mut stream =
            TcpStream::connect(addr).unwrap_or_else(|e| panic!("cycle {cycle}: connect: {e}"));
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout set");
        write_frame(&mut stream, &request).unwrap_or_else(|e| panic!("cycle {cycle}: write: {e}"));
        let body = read_frame(&mut stream)
            .unwrap_or_else(|e| panic!("cycle {cycle}: no reply: {e}"))
            .expect("a reply, not a close")
            .into_intact()
            .expect("the reply passes its checksum");
        assert!(
            matches!(decode_reply(&body), Ok(Reply::Answer(_))),
            "cycle {cycle}: not an answer"
        );
    }

    // Each handler exits once its client has closed (releasing its socket
    // and its thread); allow them a moment.
    let deadline = Instant::now() + Duration::from_secs(20);
    let (mut open, mut threads) = (open_fds(), live_threads());
    while (open > baseline + SLACK || threads > baseline_threads + SLACK)
        && Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(20));
        (open, threads) = (open_fds(), live_threads());
    }
    assert!(
        open <= baseline + SLACK,
        "{open} fds open after {CYCLES} connections, {baseline} before"
    );
    assert!(
        threads <= baseline_threads + SLACK,
        "{threads} threads alive after {CYCLES} connections, {baseline_threads} before"
    );
    let _ = server.shutdown();
}
