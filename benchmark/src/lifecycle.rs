//! One complete lifecycle: cold build → in-process reads → serve over
//! loopback → waves → snapshot → warm restore, with the checks that make
//! its numbers mean something.
//!
//! A run repeats the lifecycle; every end-to-end metric is the median of
//! the per-lifecycle samples taken here, so a burst of co-tenant noise
//! lands on a minority of every metric's samples instead of on all
//! samples of one metric.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use ftspan::{poly_greedy_spanner_with, PolyGreedyOptions};
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::Graph;
use ftspan_oracle::{
    Answer, FaultOracle, OracleOptions, OracleService, ServiceConfig, ShardPlan, ShardPlanOptions,
    ShardedOptions, ShardedOracle, Snapshot, Snapshottable, SpannerOracle,
};
use ftspan_server::{BatchEntry, Client, ReplicaServer, Reply, Request, Server, ServerConfig};

use crate::check::{answered, check_answer, digest_answer, references};
use crate::trace::Tracer;
use crate::workload::{Backend, Inputs, Spec, Stream};

/// What the lifecycle needs from a backend beyond [`SpannerOracle`].
pub trait Served: SpannerOracle + Snapshottable + Sized + 'static {
    /// The cold build an embedder would call. With tracing on, the same
    /// work is done through the constructors' public parts so that each
    /// gets its own span.
    fn cold_build(graph: Graph, spec: &Spec, tracer: &Tracer, layer: &mut Layer) -> Self;
    fn memory_bytes(&self) -> usize;
}

/// Layer numbers a traced lifecycle picks up on the way, by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// The greedy options the backends' own `build` uses.
pub fn greedy_options() -> PolyGreedyOptions {
    PolyGreedyOptions {
        collect_certificates: OracleOptions::default().collect_certificates,
        ..PolyGreedyOptions::default()
    }
}

fn greedy(graph: &Graph, spec: &Spec, tracer: &Tracer, layer: &mut Layer) -> ftspan::SpannerResult {
    let (result, secs) = tracer.timed("core.greedy_build", || {
        poly_greedy_spanner_with(graph, spec.params(), &greedy_options())
    });
    layer.insert("core.greedy_build_s", secs);
    layer.insert("core.lbc_calls", result.stats.lbc_calls as f64);
    layer.insert("core.bfs_runs", result.stats.bfs_runs as f64);
    result
}

impl Served for FaultOracle {
    fn cold_build(graph: Graph, spec: &Spec, tracer: &Tracer, layer: &mut Layer) -> Self {
        if !tracer.on() {
            return FaultOracle::build(graph, spec.params(), OracleOptions::default());
        }
        let result = greedy(&graph, spec, tracer, layer);
        let (oracle, secs) = tracer.timed("oracle.wrap", || {
            FaultOracle::from_result(graph, result, OracleOptions::default())
        });
        layer.insert("oracle.wrap_s", secs);
        oracle
    }

    fn memory_bytes(&self) -> usize {
        FaultOracle::memory_bytes(self)
    }
}

pub fn sharded_options(shards: usize) -> ShardedOptions {
    ShardedOptions {
        plan: ShardPlanOptions {
            shards,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    }
}

impl Served for ShardedOracle {
    fn cold_build(graph: Graph, spec: &Spec, tracer: &Tracer, layer: &mut Layer) -> Self {
        let Backend::Sharded { shards } = spec.backend else {
            unreachable!("sharded lifecycle on a single-oracle workload");
        };
        let options = sharded_options(shards);
        if !tracer.on() {
            return ShardedOracle::build(graph, spec.params(), options);
        }
        let (plan, secs) = tracer.timed("distributed.plan", || {
            ShardPlan::build(&graph, &options.plan)
        });
        layer.insert("distributed.plan_s", secs);
        let result = greedy(&graph, spec, tracer, layer);
        let (oracle, secs) = tracer.timed("oracle.wrap", || {
            ShardedOracle::from_result(graph, result, plan, options)
        });
        layer.insert("oracle.wrap_s", secs);
        oracle
    }

    fn memory_bytes(&self) -> usize {
        ShardedOracle::memory_bytes(self)
    }
}

/// Operations attempted and failed. A shed, an error reply, or an answer
/// that fails a check is a failed operation.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Ops {
    fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        self.failed += count;
        if self.notes.len() < 8 {
            self.notes.push(what());
        }
    }

    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// One lifecycle's measurements.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    pub setup_s: f64,
    pub direct_qps: f64,
    pub wire_qps: f64,
    pub wave_ms: f64,
    pub restore_s: f64,
    pub bytes_per_edge: f64,
    pub spanner_edges: f64,
    pub ops: Ops,
    /// FNV over the direct answers and the probe answers, the two sets
    /// that are computed one tree per query whatever the server's threads
    /// do: equal across runs with one seed.
    pub digest: u64,
    pub layer: Layer,
    /// Per-wave latency, and how late each wave of a scheduled script was
    /// sent.
    pub wave_latency_ms: Vec<f64>,
    pub wave_late_ms: Vec<f64>,
    /// Connect → first reply, once per set-up and per restore.
    pub first_reply_ms: Vec<f64>,
    /// Traced lifecycles: single-request round trips, empty-`BATCH` round
    /// trips.
    pub rtt_us: Vec<f64>,
    pub rtt_floor_us: Vec<f64>,
}

type Fatal = String;

fn io(context: &str) -> impl Fn(std::io::Error) -> Fatal + '_ {
    move |e| format!("{context}: {e}")
}

struct Running<O: Served> {
    server: Server<O>,
    client: Client,
}

/// Backend → service → listening server: the tail both `setup_s` and
/// `restore_s` end with.
fn listen<O: Served>(backend: O, spec: &Spec) -> Result<Server<O>, Fatal> {
    let config = ServiceConfig::default().with_churn(spec.churn());
    let service = OracleService::new(backend, config);
    Server::start(service, "127.0.0.1:0", ServerConfig::default()).map_err(io("start"))
}

/// Connects and waits for the first reply, proving the server serves.
/// Timed on its own and never gated: the accept loop polls, so a
/// connection that arrives after its first poll waits out
/// `ServerConfig::accept_poll` (20 ms) and one that wins the race does not
/// — the scheduler's coin, not the system's cost.
fn greet<O: Served>(
    server: Server<O>,
    first: &Request,
    tracer: &Tracer,
    sample: &mut Sample,
    ops: &mut Ops,
) -> Result<Running<O>, Fatal> {
    let (client, secs) = tracer.timed("server.first_reply", || -> Result<Client, Fatal> {
        let mut client = Client::connect(server.local_addr()).map_err(io("connect"))?;
        ops.attempted += 1;
        match client.call(first).map_err(io("first request"))? {
            Reply::Answer(_) => {}
            other => ops.fail(1, || format!("first reply was {other:?}")),
        }
        Ok(client)
    });
    sample.first_reply_ms.push(secs * 1e3);
    Ok(Running {
        server,
        client: client?,
    })
}

fn stop<O: Served>(running: Running<O>) -> OracleService<O> {
    drop(running.client);
    running.server.shutdown()
}

/// One `BATCH` round trip. Every entry is an attempted operation; a shed
/// entry, or a reply that is not a batch of the right length, fails.
fn batch(client: &mut Client, frame: &Request, ops: &mut Ops) -> Result<Vec<BatchEntry>, Fatal> {
    let Request::Batch(queries) = frame else {
        unreachable!("frames are BATCH requests");
    };
    ops.attempted += queries.len() as u64;
    match client.call(frame).map_err(io("batch"))? {
        Reply::Batch(entries) if entries.len() == queries.len() => {
            let shed = entries
                .iter()
                .filter(|e| matches!(e, BatchEntry::Shed))
                .count();
            if shed > 0 {
                ops.fail(shed as u64, || format!("{shed} batch entries shed"));
            }
            Ok(entries)
        }
        other => {
            ops.fail(queries.len() as u64, || {
                format!("batch answered with {other:?}")
            });
            Ok(Vec::new())
        }
    }
}

/// Bit for bit on unit weights; on weighted graphs the two sides may have
/// summed the same path from opposite ends.
fn same_distance(a: Option<f64>, b: Option<f64>, unit_weighted: bool) -> bool {
    match (a, b) {
        (Some(a), Some(b)) if !unit_weighted => (a - b).abs() <= 1e-12 * a.abs().max(b.abs()),
        (a, b) => a.map(f64::to_bits) == b.map(f64::to_bits),
    }
}

/// Sends `queries` as one frame and checks every answer against Dijkstra
/// on the given graphs.
fn checked_batch(
    client: &mut Client,
    queries: &[ftspan_oracle::Query],
    expected: &[crate::check::Reference],
    spanner: &Graph,
    stretch: f64,
    ops: &mut Ops,
) -> Result<(), Fatal> {
    let entries = batch(client, &Request::Batch(queries.to_vec()), ops)?;
    for ((query, answer), reference) in queries.iter().zip(answered(&entries)).zip(expected) {
        let Some(answer) = answer else { continue };
        if let Err(why) = check_answer(spanner, stretch, query, answer, reference) {
            ops.fail(1, || format!("{:?}→{:?}: {why}", query.u, query.v));
        }
    }
    Ok(())
}

struct Beside {
    wave_latency_ms: Vec<f64>,
    wave_late_ms: Vec<f64>,
    /// Summed over the waves: from a wave's send until the reader has
    /// completed one more full pass of the stream.
    recovery_s: f64,
}

/// Reads beside writes. `reader` sends the stream's frames back to back,
/// closed loop, for as long as the script runs. Read throughput is
/// work-based: for every wave, the time from its send until the reader
/// has completed the next full pass of the stream — the barrier, the
/// rebuilt regions and the cache refill, each paid once. (Throughput over
/// the whole window would be dominated by how much warm time the period
/// happens to leave, and at a period shorter than a recovery pass the
/// system is past saturation and settles in either of two states.)
///
/// Wave `i` is due at `i · period` and is sent then, or as soon as the
/// previous wave's recovery pass is complete, whichever is later; how
/// late each wave went out is reported. Wave latency is send → reply: the
/// gate makes the script closed-loop with a minimum spacing, and counting
/// from the due time would fold the previous pass's refill into it.
fn reads_beside_waves(
    mut reader: Client,
    inputs: &Inputs,
    period: Duration,
    tracer: &Tracer,
    ops: &mut Ops,
    send: &mut dyn FnMut(&ftspan::FaultSet, &mut Ops) -> Result<(), Fatal>,
) -> Result<Beside, Fatal> {
    let pass = inputs.frames.len();
    let origin = Instant::now();
    let completed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let parent = tracer.current();
    let mut beside = Beside {
        wave_latency_ms: Vec::new(),
        wave_late_ms: Vec::new(),
        recovery_s: 0.0,
    };
    let mut sent_at = Vec::new();
    let (reads, script) = std::thread::scope(|scope| {
        let reading = scope.spawn(|| -> Result<(Ops, Vec<(Duration, Duration)>), Fatal> {
            tracer.adopt(parent);
            let mut ops = Ops::default();
            let mut log = Vec::new();
            // Acquire pairs with the Release store that ends the script.
            while !done.load(Ordering::Acquire) {
                let frame = &inputs.frames[log.len() % pass];
                let sent = origin.elapsed();
                tracer
                    .timed("wire.batch", || batch(&mut reader, frame, &mut ops))
                    .0?;
                log.push((sent, origin.elapsed()));
                completed.store(log.len(), Ordering::Release);
            }
            Ok((ops, log))
        });
        let script = (|| -> Result<(), Fatal> {
            for (i, wave) in inputs.waves.iter().enumerate() {
                let due = period * i as u32;
                if let Some(wait) = due.checked_sub(origin.elapsed()) {
                    std::thread::sleep(wait);
                }
                let now = origin.elapsed();
                let completed_at_send = completed.load(Ordering::Acquire);
                sent_at.push(now);
                beside.wave_late_ms.push((now - due).as_secs_f64() * 1e3);
                send(wave, ops)?;
                beside
                    .wave_latency_ms
                    .push((origin.elapsed() - now).as_secs_f64() * 1e3);
                // The next wave waits for this one's recovery pass: the
                // frame in flight when it was sent, then `pass` more.
                while completed.load(Ordering::Acquire) < completed_at_send + 1 + pass
                    && !reading.is_finished()
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(())
        })();
        done.store(true, Ordering::Release);
        (reading.join().expect("reader thread panicked"), script)
    });
    script?;
    let (reader_ops, log) = reads?;
    ops.absorb(reader_ops);
    for at in sent_at {
        let first = log.partition_point(|&(sent, _)| sent < at);
        match log.get(first + pass - 1) {
            Some(&(_, landed)) => beside.recovery_s += (landed - at).as_secs_f64(),
            None => return Err("the reader stopped before a wave's recovery pass".into()),
        }
    }
    Ok(beside)
}

/// Runs one lifecycle of `spec` on `graph` with `inputs`.
pub fn lifecycle<O: Served>(
    spec: &Spec,
    graph: &Graph,
    inputs: &Inputs,
    tracer: &Tracer,
) -> Result<Sample, Fatal> {
    let c = &spec.counts;
    let mut sample = Sample::default();
    let mut ops = Ops::default();
    let mut digest = 0u64;
    let mut scratch = DijkstraScratch::new();
    let stretch = f64::from(spec.params().stretch());

    // --- Cold build, in-process reads, serve. ---------------------------
    let mut setup = 0.0;
    let mut running = None;
    let mut direct_answers: Vec<Answer> = Vec::with_capacity(inputs.direct.len());
    let mut check_refs = Vec::new();
    let mut spanner_at_setup = None;
    for rep in 0..c.setup_reps {
        let last = rep + 1 == c.setup_reps;
        let input = graph.clone();
        let (backend, build_s) = tracer.timed("setup.build", || {
            O::cold_build(input, spec, tracer, &mut sample.layer)
        });
        if last {
            sample.spanner_edges = backend.spanner().edge_count() as f64;
            sample.bytes_per_edge = backend.memory_bytes() as f64 / graph.edge_count() as f64;
            check_refs = references(
                backend.spanner(),
                backend.graph(),
                &inputs.checks,
                &mut scratch,
            );
            spanner_at_setup = Some(backend.spanner().clone());

            // The library embedder's view: `answer` on the calling thread.
            if !matches!(spec.stream, Stream::Cold) {
                for q in &inputs.direct {
                    std::hint::black_box(backend.answer(q));
                }
            }
            let ((), secs) = tracer.timed("direct.reads", || {
                for _ in 0..c.direct_passes {
                    direct_answers.clear();
                    for q in &inputs.direct {
                        direct_answers.push(backend.answer(std::hint::black_box(q)));
                    }
                }
            });
            let answered = (c.direct_passes * inputs.direct.len()) as u64;
            ops.attempted += answered;
            sample.direct_qps = answered as f64 / secs;
            for a in &direct_answers {
                digest_answer(&mut digest, a.distance, a.path.as_deref());
            }
        }
        let (server, listen_s) = tracer.timed("setup.listen", || listen(backend, spec));
        setup += build_s + listen_s;
        let served = greet(server?, &inputs.first, tracer, &mut sample, &mut ops)?;
        if last {
            running = Some(served);
        } else {
            stop(served);
        }
    }
    sample.setup_s = setup / c.setup_reps as f64;
    let Running { server, mut client } = running.expect("at least one set-up");
    let spanner_at_setup = spanner_at_setup.expect("kept from the last set-up");

    // --- The read stream over one connection. ---------------------------
    if c.wire_passes > 0 {
        let mut replies: Vec<Vec<BatchEntry>> = Vec::new();
        let (result, secs) = tracer.timed("wire.reads", || -> Result<(), Fatal> {
            for _ in 0..c.wire_passes {
                replies.clear();
                for frame in &inputs.frames {
                    replies.push(
                        tracer
                            .timed("wire.batch", || batch(&mut client, frame, &mut ops))
                            .0?,
                    );
                }
            }
            Ok(())
        });
        result?;
        sample.wire_qps = (c.wire_passes * inputs.wire.len()) as f64 / secs;
        // Same stream, same epoch: the wire must report the distance
        // `answer` reported. (Paths may differ between equally short
        // ones — the batch path reuses a group's last tree — so paths are
        // walked in the checked frame below, not compared here.)
        if !matches!(spec.stream, Stream::Cold) {
            let wire = replies.iter().flat_map(|r| answered(r));
            for (i, (direct, wire)) in direct_answers.iter().zip(wire).enumerate() {
                let Some(wire) = wire else { continue };
                if !same_distance(direct.distance, wire.distance, graph.is_unit_weighted()) {
                    ops.fail(1, || {
                        format!(
                            "wire answer {i}: {:?} but answer() said {:?}",
                            wire.distance, direct.distance
                        )
                    });
                }
            }
        }
    }
    checked_batch(
        &mut client,
        &inputs.checks,
        &check_refs,
        &spanner_at_setup,
        stretch,
        &mut ops,
    )?;
    drop(spanner_at_setup);

    if tracer.on() {
        for request in &inputs.rtt {
            let (reply, secs) = tracer.timed("server.rtt", || client.call(request));
            ops.attempted += 1;
            match reply.map_err(io("single request"))? {
                Reply::Answer(_) => sample.rtt_us.push(secs * 1e6),
                other => ops.fail(1, || format!("single request answered with {other:?}")),
            }
        }
        let empty = Request::Batch(Vec::new());
        for _ in 0..200 {
            let (reply, secs) = tracer.timed("server.rtt_floor", || client.call(&empty));
            reply.map_err(io("empty batch"))?;
            sample.rtt_floor_us.push(secs * 1e6);
        }
        let (bytes, secs) = tracer.timed("server.snapshot_pull", || client.snapshot());
        bytes.map_err(io("snapshot pull"))?;
        sample.layer.insert("server.snapshot_pull_s", secs);
    }

    // --- The wave script. ------------------------------------------------
    let send_wave =
        |client: &mut Client, wave: &ftspan::FaultSet, ops: &mut Ops, layer: &mut Layer| {
            ops.attempted += 1;
            match client.wave(wave.clone()).map_err(io("wave"))? {
                Reply::Wave(summary) => {
                    *layer.entry("oracle.rebuilt_lanes").or_default() +=
                        summary.rebuilt_lanes.len() as f64 / c.waves as f64;
                }
                other => ops.fail(1, || format!("wave answered with {other:?}")),
            }
            Ok::<(), Fatal>(())
        };
    match spec.wave_period_ms {
        None => {
            for wave in &inputs.waves {
                let (result, secs) = tracer.timed("wire.wave", || {
                    send_wave(&mut client, wave, &mut ops, &mut sample.layer)
                });
                result?;
                sample.wave_latency_ms.push(secs * 1e3);
            }
        }
        Some(period_ms) => {
            let reader = Client::connect(server.local_addr()).map_err(io("connect"))?;
            let period = Duration::from_millis(period_ms);
            let mut send = |wave: &ftspan::FaultSet, ops: &mut Ops| {
                tracer
                    .timed("wire.wave", || {
                        send_wave(&mut client, wave, ops, &mut sample.layer)
                    })
                    .0
            };
            let beside = reads_beside_waves(reader, inputs, period, tracer, &mut ops, &mut send)?;
            sample.wave_latency_ms = beside.wave_latency_ms;
            sample.wave_late_ms = beside.wave_late_ms;
            sample.wire_qps = (inputs.waves.len() * inputs.wire.len()) as f64 / beside.recovery_s;
        }
    }
    sample.wave_ms = crate::stats::mean(&sample.wave_latency_ms);

    // --- Probes, shutdown, snapshot, warm restore. ----------------------
    let before = batch(
        &mut client,
        &Request::Batch(inputs.probes.clone()),
        &mut ops,
    )?;
    if tracer.on() {
        let (replica, secs) = tracer.timed("server.replica_ready", || -> Result<_, Fatal> {
            let replica = ReplicaServer::<O>::start(
                server.local_addr(),
                "127.0.0.1:0",
                ServiceConfig::default().with_churn(spec.churn()),
                ServerConfig::default(),
            )
            .map_err(io("replica start"))?;
            while replica.epoch() < inputs.waves.len() as u64 {
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(replica)
        });
        drop(replica?.shutdown());
        sample.layer.insert("server.replica_ready_s", secs);
    }
    let service = stop(Running { server, client });
    if tracer.on() {
        let metrics = service.metrics();
        sample
            .layer
            .insert("oracle.cache_hit_rate", metrics.hit_rate());
        sample
            .layer
            .insert("oracle.trees_built", metrics.trees_built as f64);
    }
    let oracle = service.into_oracle();
    if oracle.epoch() != inputs.waves.len() as u64 {
        ops.fail(1, || {
            format!(
                "epoch {} after {} waves",
                oracle.epoch(),
                inputs.waves.len()
            )
        });
    }
    let probe_refs = references(
        oracle.spanner(),
        oracle.graph(),
        &inputs.probes,
        &mut scratch,
    );
    for ((query, answer), reference) in inputs.probes.iter().zip(answered(&before)).zip(&probe_refs)
    {
        let Some(answer) = answer else { continue };
        digest_answer(&mut digest, answer.distance, answer.path.as_deref());
        if let Err(why) = check_answer(oracle.spanner(), stretch, query, answer, reference) {
            ops.fail(1, || format!("probe {:?}→{:?}: {why}", query.u, query.v));
        }
    }
    let (bytes, secs) = tracer.timed("oracle.capture", || Snapshot::capture(&oracle));
    sample.layer.insert("oracle.capture_ms", secs * 1e3);
    sample
        .layer
        .insert("oracle.snapshot_bytes", bytes.len() as f64);
    drop(oracle);

    let mut restore = 0.0;
    for rep in 0..c.restore_reps {
        let (server, secs) = tracer.timed("restore", || -> Result<_, Fatal> {
            let (restored, secs) =
                tracer.timed("oracle.restore", || Snapshot::restore::<O>(&bytes));
            sample.layer.insert("oracle.restore_ms", secs * 1e3);
            listen(restored.map_err(|e| format!("restore: {e}"))?, spec)
        });
        restore += secs;
        let mut served = greet(server?, &inputs.first, tracer, &mut sample, &mut ops)?;
        if rep + 1 == c.restore_reps {
            let after = batch(
                &mut served.client,
                &Request::Batch(inputs.probes.clone()),
                &mut ops,
            )?;
            if after != before {
                let differing = after.iter().zip(&before).filter(|(a, b)| a != b).count();
                ops.fail(differing.max(1) as u64, || {
                    format!("{differing} probe answers changed across the restore")
                });
            }
        }
        stop(served);
    }
    sample.restore_s = restore / c.restore_reps as f64;

    sample.ops = ops;
    sample.digest = digest;
    Ok(sample)
}
