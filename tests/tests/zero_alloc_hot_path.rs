//! Verifies the oracle's cached-tree hit path performs **zero heap
//! allocation** per query.
//!
//! A counting global allocator wraps the system allocator; the test warms
//! the shortest-path-tree cache, arms the counter, and replays cached
//! distance queries. Any allocation on that path (the pre-CSR implementation
//! cloned the fault set into a `Query`, built an owned `CacheKey` with two
//! vectors, and created a fresh `DijkstraScratch` per call) fails the test.
//!
//! The counter only *observes* — allocation behavior is unchanged. Because
//! the counter is process-global, every test in this binary serializes its
//! whole body through one mutex so a concurrently running test can never
//! leak allocations into an armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ftspan::repair::{respan_candidates_with, RepairOptions, RepairScratch};
use ftspan::{FaultSet, SpannerParams};
use ftspan_graph::{generators, vid, EdgeId};
use ftspan_oracle::{
    ChurnConfig, FaultOracle, OracleOptions, Query, ShardPlanOptions, ShardedOptions, ShardedOracle,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Serializes test bodies: the counter is process-global, so no other test
/// may allocate while one of them has the counter armed.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator; the
// wrapper only increments counters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` with the counter armed and returns how many allocations it made.
fn count_allocations(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn small_oracle() -> FaultOracle {
    let mut rng = StdRng::seed_from_u64(77);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    FaultOracle::build(graph, SpannerParams::vertex(2, 2), OracleOptions::default())
}

#[test]
fn cached_distance_queries_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = small_oracle();
    let faults = FaultSet::vertices([vid(3), vid(9)]);
    // Warm-up: computes and caches the tree (allocates, unarmed), and
    // exercises the scratch pool so its vector is populated.
    assert!(oracle.distance(vid(1), vid(20), &faults).is_some());
    let allocations = count_allocations(|| {
        for _ in 0..1_000 {
            let d = oracle.distance(vid(1), vid(20), &faults);
            assert!(d.is_some());
        }
    });
    assert_eq!(
        allocations, 0,
        "cached-tree distance hit path must not touch the heap"
    );
}

#[test]
fn cached_hits_on_either_endpoint_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let oracle = small_oracle();
    let faults = FaultSet::vertices([vid(5)]);
    assert!(oracle.distance(vid(2), vid(30), &faults).is_some());
    let allocations = count_allocations(|| {
        for _ in 0..500 {
            // Symmetric query: served from the same tree, rooted at the
            // other endpoint.
            let d = oracle.distance(vid(30), vid(2), &faults);
            assert!(d.is_some());
            // A different target under the same fault set: same tree again.
            let d = oracle.distance(vid(2), vid(31), &faults);
            assert!(d.is_some());
        }
    });
    assert_eq!(allocations, 0, "either-endpoint hits must not allocate");
}

#[test]
fn edge_fault_cached_hits_do_not_allocate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(78);
    let graph = generators::connected_gnp(40, 0.2, &mut rng);
    let oracle = FaultOracle::build(graph, SpannerParams::edge(2, 1), OracleOptions::default());
    let faults = FaultSet::edges([ftspan_graph::eid(0), ftspan_graph::eid(4)]);
    assert!(oracle.distance(vid(1), vid(12), &faults).is_some());
    let allocations = count_allocations(|| {
        for _ in 0..500 {
            let d = oracle.distance(vid(1), vid(12), &faults);
            assert!(d.is_some());
        }
    });
    assert_eq!(
        allocations, 0,
        "edge-fault hits must not re-translate fault ids"
    );
}

#[test]
fn steady_state_respan_allocates_for_outputs_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A warm `RepairScratch` must hold every buffer a respan sweep needs:
    // the second identical pass may allocate only for its outputs (the
    // rebuilt spanner and the `added` list) — not for sweep events, the
    // candidate dedup map, LBC fault views, or BFS state, all of which the
    // pre-engine implementation re-allocated per call, sized by the graph.
    let mut rng = StdRng::seed_from_u64(80);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    let params = SpannerParams::vertex(2, 2);
    let built = ftspan::poly_greedy_spanner(&graph, params);
    // Damage the spanner so the sweep has real LBC decisions to make.
    let keep: Vec<EdgeId> = built
        .spanner
        .edge_ids()
        .filter(|e| e.index() % 3 != 0)
        .collect();
    let damaged = built.spanner.edge_subgraph(keep);
    let candidates: Vec<EdgeId> = graph.edge_ids().collect();
    let options = RepairOptions::default();

    let mut scratch = RepairScratch::new();
    let cold = count_allocations(|| {
        let out = respan_candidates_with(
            &mut scratch,
            &graph,
            &damaged,
            params,
            &candidates,
            &options,
        );
        assert!(out.edges_added() > 0);
    });
    let warm = count_allocations(|| {
        let out = respan_candidates_with(
            &mut scratch,
            &graph,
            &damaged,
            params,
            &candidates,
            &options,
        );
        assert!(out.edges_added() > 0);
    });
    // The warm pass allocates only for outputs: the rebuilt CSR spanner
    // (geometric growth and self-compaction), the `added` list, and one cut
    // vector per YES certificate — ~235 on this workload. The pre-engine
    // implementation re-allocated the sweep events, a graph-sized `seen`
    // bitmap, and two fault-view bitmaps plus BFS state per candidate
    // decision, landing in the thousands.
    assert!(
        warm <= 300,
        "steady-state respan allocated {warm} times (cold pass: {cold}) \
         — per-wave setup is leaking out of the scratch"
    );
    assert!(warm < cold, "warm pass must reuse the cold pass's pools");
}

#[test]
fn steady_state_wave_allocation_is_damage_proportional() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // End-to-end churn audit: after a warm-up wave has populated the
    // oracle-owned `WaveScratch`, a steady-state wave's allocation count
    // must stay bounded — rematerialized graphs and verification sampling
    // allocate, but the per-candidate LBC setup (two fault-view bitmaps
    // plus BFS state per decision, which alone used to cost several
    // allocations times the candidate count) must not come back.
    let mut rng = StdRng::seed_from_u64(81);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    let mut oracle =
        FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default());
    let config = ChurnConfig::default();
    // Warm-up: grows every pooled buffer to the graph's size.
    let _ = oracle.apply_wave(&FaultSet::vertices([vid(7)]), &config);
    let allocations = count_allocations(|| {
        let outcome = oracle.apply_wave(&FaultSet::vertices([vid(23), vid(41)]), &config);
        assert!(outcome.candidates > 0);
    });
    // What remains in a steady-state wave is work-proportional, not
    // setup-proportional: graph rematerialization, the rebuilt spanner, and
    // the verification sampler's one distance-buffer copy per (source,
    // fault set) pair — ~1.8k on this workload, and bounded by the sampled
    // verification work rather than the candidate count. The pre-engine
    // implementation added several allocations per candidate LBC decision
    // on top (fault-view bitmaps, BFS arrays, path and cut vectors), which
    // is what this budget excludes.
    assert!(
        allocations <= 2_500,
        "steady-state wave allocated {allocations} times — repair setup is \
         no longer pooled"
    );
}

#[test]
fn sharded_local_cached_hits_stay_lean() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The sharded path localizes the fault set per query (one small vector),
    // so it is not allocation-free — but a cached local hit must stay within
    // that constant, far below a tree recomputation.
    let mut rng = StdRng::seed_from_u64(79);
    let graph = generators::connected_gnp(60, 0.15, &mut rng);
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 2,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    let oracle = ShardedOracle::build(graph, SpannerParams::vertex(2, 2), options);
    let (u, v) = {
        let core = oracle.plan().core(0);
        (core[0], core[core.len() - 1])
    };
    let faults = FaultSet::vertices([vid(3)]);
    let _ = oracle.distance(u, v, &faults);
    let queries = 200u64;
    let allocations = count_allocations(|| {
        for _ in 0..queries {
            let _ = oracle.distance(u, v, &faults);
        }
    });
    assert!(
        allocations <= 4 * queries,
        "sharded cached hits allocated {allocations} times for {queries} queries \
         — expected only the per-query fault localization"
    );
}

#[test]
fn warm_sharded_hits_allocate_at_most_the_fault_localization() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A warm sharded hit reads the escape distance cached with each region
    // tree: no frontier scan and no allocation of its own. What remains is
    // the localized fault list, built once per query when a fault is a
    // region member and empty (no allocation) otherwise.
    let options = ShardedOptions {
        plan: ShardPlanOptions {
            shards: 4,
            ..ShardPlanOptions::default()
        },
        ..ShardedOptions::default()
    };
    let oracle = ShardedOracle::build(
        generators::grid(40, 40),
        SpannerParams::vertex(2, 2),
        options,
    );
    // Short pairs from shard 0's core, which the escape certificate serves
    // locally (or stitched, when `v` crosses into a neighbouring shard).
    let core0 = oracle.plan().core(0);
    let pairs: Vec<_> = core0
        .iter()
        .step_by(5)
        .flat_map(|&u| [1, 2, 40, 81].map(|step| (u, vid((u.index() + step) % 1600))))
        .collect();
    let fault_free = FaultSet::vertices([]);
    let faulted = FaultSet::vertices([core0[core0.len() / 3], core0[2 * core0.len() / 3]]);
    for faults in [&fault_free, &faulted] {
        // Warm-up: builds every tree and pair region the pairs need.
        for &(u, v) in &pairs {
            let _ = oracle.distance(u, v, faults);
        }
        let hits = 5 * pairs.len() as u64;
        let allocations = count_allocations(|| {
            for _ in 0..5 {
                for &(u, v) in &pairs {
                    let _ = oracle.distance(u, v, faults);
                }
            }
        });
        let bound = if faults.is_empty() { 0 } else { hits };
        assert!(
            allocations <= bound,
            "{hits} warm sharded hits under {} faults allocated {allocations} times \
             (bound {bound})",
            faults.len()
        );
    }
    // The pairs really take the region path, not the global fallback.
    let split = oracle.metrics().snapshot();
    assert!(split.local + split.stitched > 10 * split.global_fallbacks);
}

#[test]
fn inline_batch_misses_reuse_the_thread_scratch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A one-query batch runs on the calling thread, which reuses that
    // thread's recycled Dijkstra buffers. Once one batch has sized them, a
    // cache miss allocates only what its answer and its cached tree need,
    // so the count must not grow with the graph (a fresh scratch per batch
    // regrows its distance, parent and queue buffers every time).
    let mut counts = Vec::new();
    for side in [10, 60] {
        let oracle = FaultOracle::build(
            generators::grid(side, side),
            SpannerParams::vertex(2, 1),
            OracleOptions::default(),
        );
        let n = side * side;
        let miss = |victim: usize| {
            let query = Query::distance(vid(0), vid(n - 1), FaultSet::vertices([vid(victim)]));
            let answers = oracle.answer_batch(&[query]);
            assert!(!answers[0].cache_hit, "a new fault set must miss");
        };
        miss(1);
        counts.push(count_allocations(|| miss(2)));
    }
    assert_eq!(
        counts[0], counts[1],
        "a one-query batch miss allocated {} times on a 10 x 10 grid but {} on 60 x 60",
        counts[0], counts[1]
    );
}
