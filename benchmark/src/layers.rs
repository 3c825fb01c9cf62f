//! The traced run's layer probes: the same stream and the same waves timed
//! at each boundary below the socket, from outside the crates.
//!
//! Nothing here is gated. Probe loops are sized by doubling until one
//! batch of calls lasts [`PROBE_MS`], and report that batch's per-call
//! time; the exact counts (`lbc_calls`, `rebuilt_lanes`, bytes, rounds)
//! repeat exactly.

use std::io::Cursor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ftspan::greedy_par::ParallelGreedyOptions;
use ftspan::lbc::{decide_vertex_lbc_with, LbcScratch};
use ftspan::verify::{verify_spanner, VerificationMode};
use ftspan::{par_poly_greedy_spanner_with, poly_greedy_spanner_with, FaultSet};
use ftspan_distributed::{congest_ft_spanner, local_ft_spanner};
use ftspan_graph::bfs::BfsScratch;
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::wire::fnv1a64;
use ftspan_graph::{vid, Graph};
use ftspan_oracle::{
    ChurnConfig, HierarchicalOptions, HierarchicalOracle, JournalEntry, OracleService, Query,
    Replica, ServiceConfig, ShardPlan, ShardPlanOptions, ShardedOracle, Snapshot, SpannerOracle,
    TicketState, WaveJournal,
};
use ftspan_server::protocol::{
    decode_reply, decode_request, encode_reply, encode_request, read_frame, write_frame,
};
use ftspan_server::{BatchEntry, Reply, Request, WireAnswer};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::lifecycle::{greedy_options, sharded_options, Layer, Served};
use crate::trace::Tracer;
use crate::workload::{geometric_graph, Inputs, Spec, Stream};

const PROBE_MS: u64 = 60;

/// Seconds per call of `f`, from the first batch of `2^k` calls that
/// lasts [`PROBE_MS`].
fn per_call(tracer: &Tracer, name: &'static str, mut f: impl FnMut(usize)) -> f64 {
    let mut calls = 1usize;
    loop {
        let ((), secs) = tracer.timed(name, || {
            for i in 0..calls {
                f(i);
            }
        });
        if secs * 1e3 >= PROBE_MS as f64 || calls >= 1 << 24 {
            return secs / calls as f64;
        }
        calls *= 2;
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One boundary of a ladder: what was timed, and its cost per unit.
#[derive(Clone, Debug)]
pub struct Rung {
    pub boundary: &'static str,
    pub value: f64,
}

#[derive(Clone, Debug, Default)]
pub struct Ladders {
    /// ns per query of the workload's read stream at each boundary.
    pub query_ns: Vec<Rung>,
    /// ms per wave of the workload's script at each boundary.
    pub wave_ms: Vec<Rung>,
}

/// Runs every probe, filling `layer` (only where a traced lifecycle has
/// not already recorded the metric) and the two ladders.
pub fn probe<O: Served>(
    spec: &Spec,
    graph: &Graph,
    inputs: &Inputs,
    wire_qps: f64,
    wire_wave_ms: f64,
    tracer: &Tracer,
    layer: &mut Layer,
) -> Ladders {
    let params = spec.params();
    let options = greedy_options();
    // Merged into `layer` at the end, only where a traced lifecycle has not
    // already recorded the metric around the same call.
    let mut found = Layer::new();
    // The cold stream is as long as the lifecycle's two slices together,
    // so that it outruns the tree cache here as it does there, where every
    // query is asked once.
    let stream: Vec<Query> = match spec.stream {
        Stream::Cold => inputs.direct.iter().chain(&inputs.wire).cloned().collect(),
        _ => inputs.wire.clone(),
    };
    let stream = &stream[..];
    let threads = nproc();

    // --- core and graph. --------------------------------------------------
    let (result, _) = tracer.timed("probe.greedy", || {
        poly_greedy_spanner_with(graph, params, &options)
    });
    let spanner = {
        let mut h = result.spanner.clone();
        h.compact();
        h
    };
    found.insert("graph.g_bytes", graph.memory_bytes() as f64);
    found.insert("graph.h_bytes", spanner.memory_bytes() as f64);

    let mut dijkstra = DijkstraScratch::new();
    let tree_s = per_call(tracer, "graph.dijkstra_tree", |i| {
        let q = &stream[i % stream.len()];
        let view = q.faults.apply(&spanner);
        std::hint::black_box(dijkstra.shortest_path_tree(&view, q.u));
    });
    found.insert("graph.dijkstra_tree_us", tree_s * 1e6);

    let mut bfs = BfsScratch::new();
    let radius = params.stretch();
    let bfs_s = per_call(tracer, "graph.bfs_hop", |i| {
        let q = &stream[i % stream.len()];
        std::hint::black_box(bfs.hop_distances_within(&spanner, q.u, radius).len());
    });
    found.insert("graph.bfs_hop_us", bfs_s * 1e6);

    let buffer: Vec<u8> = (0..1usize << 20).map(|i| (i * 31) as u8).collect();
    let fnv_s = per_call(tracer, "graph.fnv", |_| {
        std::hint::black_box(fnv1a64(std::hint::black_box(&buffer)));
    });
    found.insert("graph.fnv_ns_per_byte", fnv_s * 1e9 / buffer.len() as f64);

    let (par, secs) = tracer.timed("core.greedy_par_build", || {
        par_poly_greedy_spanner_with(
            graph,
            params,
            &ParallelGreedyOptions {
                threads,
                batch_size: 0,
                base: options.clone(),
            },
        )
    });
    found.insert("core.greedy_par_build_s", secs);
    assert_eq!(
        par.spanner.edge_count(),
        result.spanner.edge_count(),
        "parallel greedy must build the sequential spanner"
    );
    drop(par);

    let mut lbc = LbcScratch::new();
    let edges: Vec<_> = graph.edge_ids().collect();
    let stride = (edges.len() / 1000).max(1);
    let sampled: Vec<_> = edges.iter().step_by(stride).take(1000).collect();
    let lbc_s = per_call(tracer, "core.lbc_decide", |i| {
        let (u, v) = graph.edge(*sampled[i % sampled.len()]).endpoints();
        std::hint::black_box(decide_vertex_lbc_with(
            &mut lbc,
            &spanner,
            u,
            v,
            params.stretch(),
            params.f(),
        ));
    });
    found.insert("core.lbc_decide_us", lbc_s * 1e6);

    // The spot check a wave of this workload runs. The two grids run none
    // (`verify_samples: 0`): one sample there is a shortest-path tree per
    // vertex, and even the empty sample set checks the fault-free case.
    let churn = spec.churn();
    let verify_ms = if churn.verify_samples == 0 {
        0.0
    } else {
        let mode = VerificationMode::Sampled {
            samples: churn.verify_samples,
            seed: churn.verify_seed,
        };
        let (report, secs) = tracer.timed("core.verify", || {
            verify_spanner(graph, &spanner, params, mode)
        });
        assert!(report.is_valid(), "the spanner must pass its spot check");
        secs * 1e3
    };
    found.insert("core.verify_ms", verify_ms);

    // --- distributed. -----------------------------------------------------
    let plan_options = ShardPlanOptions {
        shards: 16,
        ..ShardPlanOptions::default()
    };
    let (plan, secs) = tracer.timed("distributed.plan", || {
        ShardPlan::build(graph, &plan_options)
    });
    found.insert("distributed.plan_s", secs);
    // The LOCAL and CONGEST constructions are simulations whose cost does
    // not scale to the grids; both run on the `hot_wire` recipe.
    let side = geometric_graph(400, &mut StdRng::seed_from_u64(0xD15E_0003));
    let (_, secs) = tracer.timed("distributed.local_build", || {
        local_ft_spanner(&side, params, &mut StdRng::seed_from_u64(1))
    });
    found.insert("distributed.local_build_s", secs);
    let (congest, _) = tracer.timed("distributed.congest", || {
        congest_ft_spanner(&side, params, &mut StdRng::seed_from_u64(1))
    });
    found.insert(
        "distributed.congest_rounds",
        congest.result.rounds.rounds as f64,
    );

    // --- oracle: the read stream, boundary by boundary. -------------------
    // The workload's own backend, as a cold build leaves it; every probe
    // that needs one restores it from these bytes.
    let (fresh, _) = tracer.timed("probe.fresh_backend", || {
        let backend = O::cold_build(graph.clone(), spec, &Tracer::new(false), &mut Layer::new());
        Snapshot::capture(&backend)
    });
    let restore = || Snapshot::restore::<O>(&fresh).expect("fresh snapshot restores");

    let oracle = restore();
    let n = graph.vertex_count();
    let mut fresh_faults = 0usize;
    let miss_s = per_call(tracer, "oracle.miss", |i| {
        // A fault set no earlier call used: the tree is never cached.
        fresh_faults += 1;
        let (a, b) = (
            fresh_faults % n,
            (fresh_faults % n + fresh_faults / n + 1) % n,
        );
        let faults = FaultSet::vertices([vid(a), vid(b)]);
        let q = &stream[i % stream.len()];
        std::hint::black_box(oracle.distance(q.u, q.v, &faults));
    });
    found.insert("oracle.miss_us", miss_s * 1e6);
    // Few enough fault sets to stay cached on the cold stream too.
    let hot = &stream[..stream.len().min(64)];
    warm_slice(&oracle, hot);
    let hit_s = per_call(tracer, "oracle.hit", |i| {
        let q = &hot[i % hot.len()];
        std::hint::black_box(oracle.distance(q.u, q.v, &q.faults));
    });
    found.insert("oracle.hit_ns", hit_s * 1e9);

    // From here on the stream is as warm as the lifecycle's.
    tracer.timed("probe.warm", || warm_slice(&oracle, stream));
    let per_query = |secs_per_pass: f64| secs_per_pass * 1e9 / stream.len() as f64;
    let answer_ns = per_query(per_call(tracer, "oracle.answer", |_| {
        for q in stream {
            std::hint::black_box(oracle.answer(q));
        }
    }));
    let fanout_ns = per_query(per_call(tracer, "oracle.answer_batch", |_| {
        std::hint::black_box(oracle.answer_batch(stream));
    }));
    found.insert("oracle.batch_fanout_qps", 1e9 / fanout_ns);

    // One warm reply per frame, for the codec probes below.
    let replies: Vec<Reply> = inputs
        .frames
        .iter()
        .map(|frame| {
            let Request::Batch(queries) = frame else {
                unreachable!("frames are BATCH requests");
            };
            Reply::Batch(
                oracle
                    .answer_batch(queries)
                    .into_iter()
                    .map(|a| {
                        BatchEntry::Answered(WireAnswer {
                            distance: a.distance,
                            path: a.path,
                        })
                    })
                    .collect(),
            )
        })
        .collect();

    let serve = |service: &OracleService<O>| {
        let tickets = service.submit_batch_ref(stream.iter());
        std::hint::black_box(service.drain());
        std::hint::black_box(tickets.len());
        service.recycle();
    };
    let service = OracleService::new(oracle, ServiceConfig::default());
    let inline_ns = per_query(per_call(tracer, "oracle.service", |_| serve(&service)));
    found.insert("oracle.service_qps", 1e9 / inline_ns);
    let oracle = service.into_oracle();
    let service = OracleService::new(oracle, ServiceConfig::default().with_workers(threads));
    let workers_ns = per_query(per_call(tracer, "oracle.service_workers", |_| {
        serve(&service)
    }));
    found.insert("oracle.service_workers_qps", 1e9 / workers_ns);
    drop(service);

    // --- oracle: the routing backends on the same stream. -----------------
    let routed = &stream[..stream.len().min(256)];
    let (sharded, _) = tracer.timed("probe.sharded_build", || {
        ShardedOracle::from_result(
            graph.clone(),
            result.clone(),
            plan.clone(),
            sharded_options(16),
        )
    });
    tracer.timed("probe.sharded_reads", || warm_slice(&sharded, routed));
    let split = sharded.metrics().snapshot();
    found.insert("oracle.locality_rate", split.locality_rate());
    found.insert("oracle.fallbacks", split.global_fallbacks as f64);
    drop(sharded);
    let hier_options = HierarchicalOptions {
        plan: plan_options,
        ..HierarchicalOptions::default()
    };
    let (hier, _) = tracer.timed("probe.hier_build", || {
        HierarchicalOracle::from_result(graph.clone(), result.clone(), plan, hier_options)
    });
    found.insert(
        "oracle.hier_bytes_per_edge",
        hier.memory_bytes() as f64 / graph.edge_count() as f64,
    );
    tracer.timed("probe.hier_reads", || warm_slice(&hier, routed));
    let hier_s = per_call(tracer, "oracle.hier", |i| {
        std::hint::black_box(hier.answer(&routed[i % routed.len()]));
    });
    found.insert("oracle.hier_qps", 1.0 / hier_s);
    drop(hier);

    // --- server: the codec and the framing, in memory. --------------------
    let bodies: Vec<Vec<u8>> = inputs.frames.iter().map(encode_request).collect();
    let reply_bodies: Vec<Vec<u8>> = replies.iter().map(encode_reply).collect();
    let framed = |bodies: &[Vec<u8>]| bodies.iter().map(|b| b.len() + 12).sum::<usize>();
    found.insert(
        "server.wire_bytes_per_query",
        (framed(&bodies) + framed(&reply_bodies)) as f64 / stream.len() as f64,
    );
    let encode_req_ns = per_query(per_call(tracer, "server.encode_req", |_| {
        for frame in &inputs.frames {
            std::hint::black_box(encode_request(frame));
        }
    }));
    let decode_req_ns = per_query(per_call(tracer, "server.decode_req", |_| {
        for body in &bodies {
            std::hint::black_box(decode_request(body).expect("request decodes"));
        }
    }));
    let encode_reply_ns = per_query(per_call(tracer, "server.encode_reply", |_| {
        for reply in &replies {
            std::hint::black_box(encode_reply(reply));
        }
    }));
    let decode_reply_ns = per_query(per_call(tracer, "server.decode_reply", |_| {
        for body in &reply_bodies {
            std::hint::black_box(decode_reply(body).expect("reply decodes"));
        }
    }));
    let mut pipe: Vec<u8> = Vec::new();
    let frame_io_ns = per_query(per_call(tracer, "server.frame_io", |_| {
        for body in bodies.iter().chain(&reply_bodies) {
            pipe.clear();
            write_frame(&mut pipe, body).expect("in-memory write");
            let frame = read_frame(&mut Cursor::new(&pipe)).expect("in-memory read");
            std::hint::black_box(frame);
        }
    }));
    found.insert("server.encode_req_ns", encode_req_ns);
    found.insert("server.decode_req_ns", decode_req_ns);
    found.insert("server.encode_reply_ns", encode_reply_ns);
    found.insert("server.decode_reply_ns", decode_reply_ns);
    found.insert("server.frame_io_ns", frame_io_ns);
    found.insert("server.wire_tax", (1e9 / inline_ns) / wire_qps);

    // --- oracle: the wave script, boundary by boundary. -------------------
    let waves = &inputs.waves[..spec.counts.probe_waves.min(inputs.waves.len())];
    let mut backend = restore();
    let mut entries = Vec::new();
    let (mut direct_ms, mut candidates, mut lanes) = (0.0, 0.0, 0.0);
    for wave in waves {
        let (report, secs) =
            tracer.timed("oracle.wave_direct", || backend.apply_wave(wave, &churn));
        direct_ms += secs * 1e3 / waves.len() as f64;
        candidates += report.outcome.candidates as f64 / waves.len() as f64;
        lanes += report.rebuilt_lanes.len() as f64 / waves.len() as f64;
        entries.push(JournalEntry {
            epoch: backend.epoch(),
            wave: wave.clone(),
            report_digest: report.digest(),
        });
    }
    drop(backend);
    found.insert("oracle.wave_direct_ms", direct_ms);
    found.insert("core.respan_candidates", candidates);
    found.insert("oracle.rebuilt_lanes", lanes);

    let service = OracleService::new(
        restore(),
        ServiceConfig::default().with_churn(churn.clone()),
    );
    let mut service_ms = 0.0;
    for wave in waves {
        let (state, secs) = tracer.timed("oracle.service_wave", || {
            service.wait(service.submit_wave(wave.clone()))
        });
        assert!(matches!(state, TicketState::Waved(_)), "wave must apply");
        service_ms += secs * 1e3 / waves.len() as f64;
    }
    drop(service);
    found.insert("oracle.service_wave_ms", service_ms);

    found.insert(
        "oracle.read_stall_ms",
        read_stall_ms(restore(), &churn, &waves[0], routed, threads, tracer),
    );

    let mut replica =
        Replica::<O>::bootstrap(&fresh, churn.clone()).expect("fresh snapshot bootstraps");
    let mut replay_ms = 0.0;
    for entry in &entries {
        let (applied, secs) = tracer.timed("oracle.replay", || replica.apply_entry(entry));
        applied.expect("replay must reproduce the primary's digest");
        replay_ms += secs * 1e3 / entries.len() as f64;
    }
    drop(replica);
    found.insert("oracle.replay_ms", replay_ms);

    let template = entries[0].clone();
    let mut journal = WaveJournal::new(0);
    let append_s = per_call(tracer, "oracle.journal_append", |_| {
        let entry = JournalEntry {
            epoch: journal.head_epoch() + 1,
            ..template.clone()
        };
        journal.append(entry).expect("next epoch appends");
    });
    found.insert("oracle.journal_append_us", append_s * 1e6);

    for (name, value) in found {
        layer.entry(name).or_insert(value);
    }
    Ladders {
        query_ns: vec![
            rung("graph: tree build on H∖F", tree_s * 1e9),
            rung("oracle: distance, fresh fault set (miss)", miss_s * 1e9),
            rung("oracle: distance, warm (hit)", hit_s * 1e9),
            rung("oracle: answer, the stream as sent", answer_ns),
            rung("oracle: answer_batch, default fan-out", fanout_ns),
            rung("oracle: service, inline", inline_ns),
            rung("oracle: service, workers = nproc", workers_ns),
            rung(
                "server: codec + framing in memory",
                encode_req_ns + decode_req_ns + encode_reply_ns + decode_reply_ns + frame_io_ns,
            ),
            rung("wire: loopback BATCH (1 / wire_qps)", 1e9 / wire_qps),
        ],
        wave_ms: vec![
            rung("core: verify_spanner, the workload's samples", verify_ms),
            rung("oracle: apply_wave on the backend", direct_ms),
            rung("oracle: submit_wave + wait, inline service", service_ms),
            rung("wire: Client::wave, the same waves", wire_wave_ms),
        ],
    }
}

fn rung(boundary: &'static str, value: f64) -> Rung {
    Rung { boundary, value }
}

fn warm_slice(oracle: &dyn SpannerOracle, queries: &[Query]) {
    for q in queries {
        std::hint::black_box(oracle.answer(q));
    }
}

/// Longest gap between two completions of a closed-loop in-process reader
/// while one wave is applied beside it.
fn read_stall_ms<O: Served>(
    backend: O,
    churn: &ChurnConfig,
    wave: &FaultSet,
    queries: &[Query],
    workers: usize,
    tracer: &Tracer,
) -> f64 {
    let config = ServiceConfig::default()
        .with_churn(churn.clone())
        .with_workers(workers);
    let service = OracleService::new(backend, config);
    let done = AtomicBool::new(false);
    let parent = tracer.current();
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            tracer.adopt(parent);
            let start = Instant::now();
            let (mut last, mut longest) = (0.0f64, 0.0f64);
            let mut i = 0usize;
            // Acquire pairs with the Release store below.
            while !done.load(Ordering::Acquire) {
                let ticket = service.submit(queries[i % queries.len()].clone());
                std::hint::black_box(service.wait(ticket));
                let now = start.elapsed().as_secs_f64();
                longest = longest.max(now - last);
                last = now;
                i += 1;
            }
            longest * 1e3
        });
        std::thread::sleep(Duration::from_millis(20));
        tracer.timed("oracle.stall_wave", || {
            service.wait(service.submit_wave(wave.clone()))
        });
        std::thread::sleep(Duration::from_millis(20));
        done.store(true, Ordering::Release);
        reading.join().expect("stall reader panicked")
    })
}
