//! The four workloads: their shapes, their tabulated inner counts, and the
//! generation of every input from the seed.
//!
//! A workload fixes a **topology** (part of its definition, generated from
//! a constant) and draws its **traffic** — fault sets, read streams, wave
//! scripts, check and probe samples — from `--seed`. The split is
//! deliberate: `spanner_edges` and `bytes_per_edge` are functions of the
//! topology alone and are gated almost exactly, which only works if the
//! driver's per-run seeds do not move them (with the topology drawn from
//! the seed, six seeds moved `spanner_edges` 0.6 % on `dense_build` and
//! `bytes_per_edge` 3 % on `hot_wire` with no code change at all).
//! Lifecycle `i` of a run draws its traffic from `(seed, i)`, so a run's
//! median also averages over which vertices a wave happened to hit.

use ftspan::{FaultSet, SpannerParams};
use ftspan_graph::{generators, vid, Graph, VertexId};
use ftspan_oracle::{ChurnConfig, Query};
use ftspan_server::Request;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

pub const WORKLOADS: [&str; 4] = ["dense_build", "cold_grid", "hot_wire", "shard_churn"];

/// `--seconds` the tabulated lifecycle counts are sized for.
pub const NOMINAL_SECONDS: u64 = 20;

/// Queries compared against Dijkstra per lifecycle, and probes replayed
/// across the restore.
pub const CHECKS: usize = 64;
pub const PROBES: usize = 64;

/// Vertices a wave destroys: one more than the spanner tolerates.
pub const WAVE_SIZE: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// Connected `G(n, p)` with the given average degree.
    Gnp {
        n: usize,
        avg_degree: f64,
    },
    Grid {
        rows: usize,
        cols: usize,
    },
    /// Random geometric graph with Euclidean weights, radius
    /// `sqrt(8 / (π n))`, plus a random spanning-tree overlay.
    Geometric {
        n: usize,
    },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    Single,
    Sharded { shards: usize },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// Requests drawn with repetition from `distinct` queries over eight
    /// fault sets: after one pass every read is a cache hit.
    Hot { distinct: usize },
    /// Every query a fresh pair under its own fault set: every read
    /// builds a shortest-path tree.
    Cold,
    /// As `Hot`, with every pair at most `hops` grid steps apart.
    Local { hops: usize, distinct: usize },
}

/// The tabulated repetition counts of one lifecycle. Every timed section
/// shorter than 50 ms on the reference box is repeated here, a fixed
/// number of times, so that its sample is longer.
#[derive(Clone, Copy, Debug)]
pub struct Counts {
    /// Lifecycles per run at [`NOMINAL_SECONDS`].
    pub lifecycles: usize,
    /// Cold builds (each to a listening server and its first reply).
    pub setup_reps: usize,
    /// Requests in the direct stream, and passes over it.
    pub direct_len: usize,
    pub direct_passes: usize,
    /// Requests in the wire stream, frame length, and passes over it.
    pub wire_len: usize,
    pub frame_len: usize,
    pub wire_passes: usize,
    /// Waves in the script, each of [`WAVE_SIZE`] vertices.
    pub waves: usize,
    /// Warm restores (each to a listening server and its first reply).
    pub restore_reps: usize,
    /// Traced lifecycles only: single `DIST` round trips.
    pub rtt_requests: usize,
    /// Traced run only: waves of the script replayed at each in-process
    /// boundary of the wave ladder.
    pub probe_waves: usize,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub topology: Topology,
    /// Constant the topology is generated from.
    pub topology_seed: u64,
    pub backend: Backend,
    /// `None` keeps the default spot check after every wave.
    pub verify_samples: Option<usize>,
    pub stream: Stream,
    /// `Some(ms)`: wave `i` is due at `i · ms` and the wire stream runs
    /// beside the script on a second connection. `None`: waves go back to
    /// back on an idle server after the wire phase.
    pub wave_period_ms: Option<u64>,
    pub counts: Counts,
}

impl Spec {
    pub fn params(&self) -> SpannerParams {
        SpannerParams::vertex(2, 2)
    }

    pub fn churn(&self) -> ChurnConfig {
        match self.verify_samples {
            Some(verify_samples) => ChurnConfig {
                verify_samples,
                ..ChurnConfig::default()
            },
            None => ChurnConfig::default(),
        }
    }

    /// Lifecycles for a `--seconds` budget: the tabulated count scaled
    /// linearly, never below five. Work is fixed by the arguments, never
    /// by a clock.
    pub fn lifecycles_for(&self, seconds: u64) -> usize {
        let scaled =
            (self.counts.lifecycles as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        (scaled as usize).max(5)
    }
}

pub fn spec(name: &str) -> Option<Spec> {
    let spec = match name {
        "dense_build" => Spec {
            name: "dense_build",
            topology: Topology::Gnp {
                n: 1000,
                avg_degree: 40.0,
            },
            topology_seed: 0xD15E_0001,
            backend: Backend::Single,
            verify_samples: None,
            stream: Stream::Hot { distinct: 300 },
            wave_period_ms: None,
            counts: Counts {
                lifecycles: 8,
                setup_reps: 1,
                direct_len: 2000,
                direct_passes: 600,
                wire_len: 2000,
                frame_len: 1024,
                wire_passes: 60,
                waves: 1,
                restore_reps: 8,
                rtt_requests: 4000,
                probe_waves: 1,
            },
        },
        "cold_grid" => Spec {
            name: "cold_grid",
            topology: Topology::Grid {
                rows: 300,
                cols: 300,
            },
            topology_seed: 0,
            backend: Backend::Single,
            verify_samples: Some(0),
            stream: Stream::Cold,
            wave_period_ms: None,
            counts: Counts {
                lifecycles: 8,
                setup_reps: 2,
                direct_len: 128,
                direct_passes: 1,
                wire_len: 128,
                frame_len: 1,
                wire_passes: 1,
                waves: 2,
                restore_reps: 1,
                rtt_requests: 256,
                probe_waves: 2,
            },
        },
        "hot_wire" => Spec {
            name: "hot_wire",
            topology: Topology::Geometric { n: 400 },
            topology_seed: 0xD15E_0003,
            backend: Backend::Single,
            verify_samples: None,
            stream: Stream::Hot { distinct: 300 },
            wave_period_ms: None,
            counts: Counts {
                lifecycles: 8,
                setup_reps: 20,
                direct_len: 2000,
                direct_passes: 400,
                wire_len: 2000,
                frame_len: 1024,
                wire_passes: 60,
                waves: 1,
                restore_reps: 48,
                rtt_requests: 4000,
                probe_waves: 1,
            },
        },
        "shard_churn" => Spec {
            name: "shard_churn",
            topology: Topology::Grid {
                rows: 200,
                cols: 200,
            },
            topology_seed: 0,
            backend: Backend::Sharded { shards: 16 },
            verify_samples: Some(0),
            stream: Stream::Local {
                hops: 8,
                distinct: 600,
            },
            wave_period_ms: Some(1000),
            counts: Counts {
                lifecycles: 6,
                setup_reps: 1,
                direct_len: 2048,
                direct_passes: 16,
                wire_len: 2048,
                frame_len: 128,
                wire_passes: 0,
                waves: 2,
                restore_reps: 1,
                rtt_requests: 4000,
                probe_waves: 4,
            },
        },
        _ => return None,
    };
    Some(spec)
}

/// `--quick`: one pass of everything, a two-wave script.
pub fn quick(mut spec: Spec) -> Spec {
    let c = &mut spec.counts;
    c.lifecycles = 1;
    c.setup_reps = 1;
    c.direct_passes = 1;
    c.wire_passes = c.wire_passes.min(1);
    c.waves = c.waves.min(2);
    c.restore_reps = 1;
    c.rtt_requests = c.rtt_requests.min(64);
    c.probe_waves = 1;
    spec
}

pub fn geometric_graph(n: usize, rng: &mut StdRng) -> Graph {
    let radius = (8.0 / (std::f64::consts::PI * n as f64)).sqrt();
    let mut graph = generators::random_geometric(n, radius, rng);
    generators::overlay_random_spanning_tree(&mut graph, rng);
    graph
}

pub fn topology(spec: &Spec) -> Graph {
    let mut rng = StdRng::seed_from_u64(spec.topology_seed);
    match spec.topology {
        Topology::Gnp { n, avg_degree } => {
            generators::connected_gnp(n, avg_degree / (n as f64 - 1.0), &mut rng)
        }
        Topology::Grid { rows, cols } => generators::grid(rows, cols),
        Topology::Geometric { n } => geometric_graph(n, &mut rng),
    }
}

/// Everything one lifecycle sends to the system.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The request whose reply ends a set-up or a restore.
    pub first: Request,
    pub direct: Vec<Query>,
    /// The wire stream and the same stream cut into `BATCH` frames.
    pub wire: Vec<Query>,
    pub frames: Vec<Request>,
    /// `CHECKS` queries sampled from the wire stream, as one frame.
    pub checks: Vec<Query>,
    /// `PROBES` queries asked before shutdown and again after restore;
    /// each has its own fault set and avoids the script's vertices.
    pub probes: Vec<Query>,
    pub waves: Vec<FaultSet>,
    /// Traced lifecycles: single `DIST` requests.
    pub rtt: Vec<Request>,
}

fn fault_pair(n: usize, rng: &mut StdRng) -> FaultSet {
    FaultSet::vertices([vid(rng.gen_range(0..n)), vid(rng.gen_range(0..n))])
}

fn random_pair(n: usize, rng: &mut StdRng) -> (VertexId, VertexId) {
    let u = rng.gen_range(0..n);
    let mut v = rng.gen_range(0..n);
    while v == u {
        v = rng.gen_range(0..n);
    }
    (vid(u), vid(v))
}

/// A pair at most `hops` steps apart on a `rows × cols` grid.
fn local_pair(rows: usize, cols: usize, hops: usize, rng: &mut StdRng) -> (VertexId, VertexId) {
    let hops = hops as i64;
    loop {
        let (r, c) = (rng.gen_range(0..rows) as i64, rng.gen_range(0..cols) as i64);
        // Offsets are drawn from zero up and shifted: the repository's
        // `rand` stand-in overflows on ranges that start below zero.
        let dr = rng.gen_range(0..=2 * hops) - hops;
        let reach = hops - dr.abs();
        let dc = rng.gen_range(0..=2 * reach) - reach;
        let (r2, c2) = (r + dr, c + dc);
        let inside = (0..rows as i64).contains(&r2) && (0..cols as i64).contains(&c2);
        if inside && (dr, dc) != (0, 0) {
            let at = |r: i64, c: i64| vid(r as usize * cols + c as usize);
            return (at(r, c), at(r2, c2));
        }
    }
}

/// One in four requests asks for the path, as in the repository's
/// `service_request_stream`.
fn query(i: usize, (u, v): (VertexId, VertexId), faults: FaultSet) -> Query {
    if i.is_multiple_of(4) {
        Query::path(u, v, faults)
    } else {
        Query::distance(u, v, faults)
    }
}

fn as_single(q: &Query) -> Request {
    Request::Distance {
        u: q.u,
        v: q.v,
        faults: q.faults.clone(),
    }
}

/// Draws lifecycle `lifecycle`'s traffic from `seed`.
pub fn inputs(spec: &Spec, graph: &Graph, seed: u64, lifecycle: usize) -> Inputs {
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lifecycle as u64),
    );
    let n = graph.vertex_count();
    let c = &spec.counts;

    // The wave script first: probes must avoid its vertices.
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    let waves: Vec<FaultSet> = order[..c.waves * WAVE_SIZE]
        .chunks(WAVE_SIZE)
        .map(|chunk| FaultSet::vertices(chunk.iter().map(|&v| vid(v))))
        .collect();
    let survivors = &order[c.waves * WAVE_SIZE..];

    let (direct, wire, rtt) = match spec.stream {
        Stream::Hot { .. } | Stream::Local { .. } => {
            let hot: Vec<FaultSet> = (0..8).map(|_| fault_pair(n, &mut rng)).collect();
            let (Stream::Hot { distinct } | Stream::Local { distinct, .. }) = spec.stream else {
                unreachable!("cold streams are drawn below");
            };
            let pool: Vec<Query> = (0..distinct)
                .map(|i| {
                    let pair = match (spec.stream, spec.topology) {
                        (Stream::Local { hops, .. }, Topology::Grid { rows, cols }) => {
                            local_pair(rows, cols, hops, &mut rng)
                        }
                        _ => random_pair(n, &mut rng),
                    };
                    query(i, pair, hot[i % hot.len()].clone())
                })
                .collect();
            let stream: Vec<Query> = (0..c.direct_len)
                .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                .collect();
            assert_eq!(c.direct_len, c.wire_len, "hot streams are shared");
            let rtt = (0..c.rtt_requests)
                .map(|i| as_single(&stream[i % stream.len()]))
                .collect();
            (stream.clone(), stream, rtt)
        }
        Stream::Cold => {
            let mut fresh = |len: usize| -> Vec<Query> {
                (0..len)
                    .map(|i| query(i, random_pair(n, &mut rng), fault_pair(n, &mut rng)))
                    .collect()
            };
            let direct = fresh(c.direct_len);
            let wire = fresh(c.wire_len);
            let rtt = fresh(c.rtt_requests).iter().map(as_single).collect();
            (direct, wire, rtt)
        }
    };
    let frames = wire
        .chunks(c.frame_len)
        .map(|chunk| Request::Batch(chunk.to_vec()))
        .collect();
    let checks = (0..CHECKS)
        .map(|_| wire[rng.gen_range(0..wire.len())].clone())
        .collect();
    let probes = (0..PROBES)
        .map(|i| {
            let u = survivors[rng.gen_range(0..survivors.len())];
            let mut v = survivors[rng.gen_range(0..survivors.len())];
            while v == u {
                v = survivors[rng.gen_range(0..survivors.len())];
            }
            query(i, (vid(u), vid(v)), fault_pair(n, &mut rng))
        })
        .collect();
    Inputs {
        first: Request::Distance {
            u: vid(0),
            v: vid(n - 1),
            faults: FaultSet::vertices([]),
        },
        direct,
        wire,
        frames,
        checks,
        probes,
        waves,
        rtt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_lifecycles() {
        let spec = quick(spec("shard_churn").unwrap());
        let graph = topology(&spec);
        let a = inputs(&spec, &graph, 7, 0);
        let b = inputs(&spec, &graph, 7, 0);
        assert_eq!(a.waves, b.waves);
        assert_eq!(a.frames, b.frames);
        let c = inputs(&spec, &graph, 7, 1);
        assert_ne!(a.waves, c.waves);
    }

    #[test]
    fn local_pairs_stay_within_their_hop_budget() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let (u, v) = local_pair(200, 200, 8, &mut rng);
            let (ur, uc) = (u.index() / 200, u.index() % 200);
            let (vr, vc) = (v.index() / 200, v.index() % 200);
            assert!(ur.abs_diff(vr) + uc.abs_diff(vc) <= 8);
            assert_ne!(u, v);
        }
    }

    #[test]
    fn probes_avoid_the_wave_script() {
        let spec = spec("hot_wire").unwrap();
        let graph = topology(&spec);
        let inputs = inputs(&spec, &graph, 3, 0);
        let hit: Vec<VertexId> = inputs
            .waves
            .iter()
            .flat_map(|w| w.vertex_faults().to_vec())
            .collect();
        assert_eq!(hit.len(), WAVE_SIZE);
        for probe in &inputs.probes {
            assert!(!hit.contains(&probe.u) && !hit.contains(&probe.v));
        }
    }

    #[test]
    fn lifecycle_count_scales_with_seconds_but_not_below_five() {
        let spec = spec("hot_wire").unwrap();
        assert_eq!(spec.lifecycles_for(NOMINAL_SECONDS), 8);
        assert_eq!(spec.lifecycles_for(2 * NOMINAL_SECONDS), 16);
        assert_eq!(spec.lifecycles_for(1), 5);
    }
}
