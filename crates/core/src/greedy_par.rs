//! Parallel modified greedy construction: speculative batch decisions on
//! scoped threads, committed sequentially so the output is **bit-identical**
//! to [`poly_greedy_spanner_with`].
//!
//! The greedy sweep looks inherently sequential — every LBC decision runs
//! against the spanner built so far — but the decisions are *local*: a
//! decision for edge `{u, v}` with hop bound `t = 2k − 1` explores only the
//! spanner subgraph within `t` hops of `u`. Since the spanner is a subgraph
//! of the input, the input-graph ball `B_G(u, t)` contains every vertex any
//! such search can touch. That gives a sound speculation rule:
//!
//! 1. **Decide** a batch of consecutive edges (in the exact sequential
//!    order) in parallel against the spanner *frozen at batch start*. The
//!    threads pull small contiguous sub-chunks off a shared atomic cursor,
//!    so an expensive accept-like search on one edge does not stall the
//!    whole batch behind one straggler; each thread keeps a persistent
//!    [`LbcScratch`].
//! 2. **Commit** the batch in order on one thread. A speculative decision is
//!    kept iff no edge accepted earlier in the batch has an endpoint within
//!    hop distance `t − 1` of either endpoint *in the overlay graph*
//!    `P = (spanner at batch start) ∪ (this batch's speculative accepts)` —
//!    otherwise the decision is recomputed against the live spanner.
//!    Accepted edges mark the balls `B_P(u, t − 1) ∪ B_P(v, t − 1)` dirty
//!    (radius `t − 1` suffices: a hop-`t` search scans edges only from
//!    vertices it expands, which sit at depth ≤ `t − 1`).
//!
//! Marking over `P` rather than the input graph is what makes commit cheap
//! on dense inputs: spanner balls are a fraction of input-graph balls, and
//! `P` is still a sound horizon because every spanner any in-batch search
//! can see lies between the frozen spanner and `P` — provided speculation
//! holds. A recomputed decision that flips reject → accept inserts an edge
//! *outside* `P`, so that commit conservatively recomputes the rest of its
//! batch (`prediction_flushes`). A flip accept → reject only shrinks the
//! live spanner below `P`, which over-marks and stays sound.
//!
//! If the balls miss both endpoints, the subgraph explored by the
//! speculative search equals the one the sequential sweep would explore —
//! same BFS discovery order, same paths, same fault-set rounds — so the
//! decision *and* its certificate are bit-identical, for any thread count
//! and batch size. One wrinkle: [`Graph::add_edge`] may self-compact, which
//! reorders every adjacency list (not just the new edge's endpoints); a
//! commit that triggers compaction therefore conservatively recomputes the
//! rest of its batch. Compactions are geometrically spaced, so the cost is
//! negligible. Once a batch is flushed for either reason, marking stops —
//! the dirty set is irrelevant when everything left recomputes anyway.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use ftspan_graph::{EdgeId, Graph, VertexId};

use crate::greedy_poly::{poly_greedy_spanner_with, EdgeOrder, PolyGreedyOptions};
use crate::lbc::{decide_lbc_with, LbcDecision, LbcScratch};
use crate::stats::{EdgeCertificate, SpannerResult, SpannerStats};
use crate::SpannerParams;

/// Options for [`par_poly_greedy_spanner_with`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParallelGreedyOptions {
    /// Worker threads for the speculative decision phase. `0` means
    /// [`std::thread::available_parallelism`]; `1` falls back to the
    /// sequential sweep (same output either way).
    pub threads: usize,
    /// Edges decided speculatively per batch. `0` (the default) adapts the
    /// batch size to the observed speculation hit rate, growing it while
    /// speculation lands and shrinking it when dirty-ball conflicts
    /// dominate. Output is independent of this knob; it only trades
    /// conflict rate against synchronization.
    pub batch_size: usize,
    /// The underlying greedy options (edge order, certificate collection).
    pub base: PolyGreedyOptions,
}

impl ParallelGreedyOptions {
    /// Options for a given thread count with defaults elsewhere.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

/// Counters describing how a parallel sweep resolved its speculation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// Decisions taken from the parallel phase unchanged.
    pub speculative_hits: usize,
    /// Decisions recomputed at commit time because a batch-local accepted
    /// edge landed within the hop ball (or a compaction reordered layout).
    pub recomputed: usize,
    /// Batches whose tail was recomputed due to a self-compaction.
    pub compaction_flushes: usize,
    /// Batches whose tail was recomputed because a recomputed decision
    /// flipped reject → accept, landing an edge outside the speculative
    /// overlay graph the dirty marks were computed over.
    pub prediction_flushes: usize,
    /// Wall-clock time of the parallel decision phase (dispatch to last
    /// worker done), summed over batches.
    pub phase1_wall: std::time::Duration,
    /// Total busy time summed across workers inside the decision phase.
    /// `decide_busy / phase1_wall` is the effective parallelism the host
    /// actually delivered; on a single-core box the two are equal.
    pub decide_busy: std::time::Duration,
    /// Wall-clock time of the sequential commit phase, summed over batches.
    pub commit_wall: std::time::Duration,
}

/// Builds the modified greedy spanner on multiple threads; the resulting
/// spanner and certificates are bit-identical to
/// [`poly_greedy_spanner_with`] with the
/// same [`PolyGreedyOptions`], for every thread count and batch size.
///
/// # Panics
///
/// Panics if a custom edge order references an out-of-range edge.
#[must_use]
pub fn par_poly_greedy_spanner_with(
    graph: &Graph,
    params: SpannerParams,
    options: &ParallelGreedyOptions,
) -> SpannerResult {
    let (result, _) = par_poly_greedy_spanner_traced(graph, params, options);
    result
}

/// Like [`par_poly_greedy_spanner_with`], additionally returning the
/// speculation counters (hits, recomputations and flushes, from which the
/// conflict rate follows).
#[must_use]
pub fn par_poly_greedy_spanner_traced(
    graph: &Graph,
    params: SpannerParams,
    options: &ParallelGreedyOptions,
) -> (SpannerResult, SpeculationStats) {
    let threads = if options.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        options.threads
    };
    if threads <= 1 {
        let result = poly_greedy_spanner_with(graph, params, &options.base);
        let spec = SpeculationStats {
            recomputed: result.stats.lbc_calls,
            ..SpeculationStats::default()
        };
        return (result, spec);
    }
    let start = Instant::now();
    let order: Vec<EdgeId> = match &options.base.edge_order {
        EdgeOrder::NondecreasingWeight => graph.edge_ids_by_weight(),
        EdgeOrder::Insertion => graph.edge_ids().collect(),
        EdgeOrder::Custom(order) => order.clone(),
    };
    let t = params.stretch();
    let alpha = params.f();
    let model = params.fault_model();
    // With `batch_size == 0` the batch size adapts to the observed hit
    // rate: dirty coverage per batch scales with accepts × ball size, so no
    // static choice fits both a 10⁴-node grid and a 10⁶-node geometric
    // graph. Adaptation is driven purely by deterministic quantities, so
    // the output stays independent of it.
    let adaptive = options.batch_size == 0;
    let mut batch = if adaptive {
        256
    } else {
        options.batch_size.max(1)
    };
    let min_batch = (threads * 4).max(32);
    let max_batch = 8192;

    let mut spanner_arc = Arc::new(Graph::empty_like(graph));
    let mut certificates = Vec::new();
    let mut stats = SpannerStats {
        algorithm: "poly-greedy-par",
        input_vertices: graph.vertex_count(),
        input_edges: graph.edge_count(),
        ..SpannerStats::default()
    };
    let mut spec = SpeculationStats::default();

    let mut commit_scratch = LbcScratch::new();
    let mut decisions: Vec<Option<LbcDecision>> = Vec::new();
    let mut overlay: Vec<(VertexId, VertexId)> = Vec::new();
    let mut marks = DirtyMarks::new(graph.vertex_count());
    let bfs_runs = AtomicUsize::new(0);
    let busy_ns = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);
    let board = JobBoard::default();
    let order_ref: &[EdgeId] = &order;

    let total = order_ref.len();
    std::thread::scope(|scope| {
        // The persistent worker pool: spawning threads per batch costs more
        // than an entire batch of decisions, so the pool parks on the job
        // board and each batch is two condvar round-trips. Workers pull
        // contiguous sub-chunks off the shared cursor so one expensive
        // accept-like search cannot straggle the whole batch; within a
        // sub-chunk the persistent scratch keeps sharing same-source
        // first-round trees.
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = LbcScratch::new();
                let mut local: Vec<(usize, LbcDecision)> = Vec::new();
                let mut seen = 0u64;
                loop {
                    let Some((frozen, hi, stride)) = board.next_job(&mut seen) else {
                        return;
                    };
                    let t0 = Instant::now();
                    let mut runs = 0usize;
                    loop {
                        let lo = cursor.fetch_add(stride, Ordering::Relaxed);
                        if lo >= hi {
                            break;
                        }
                        let end = (lo + stride).min(hi);
                        for (i, &edge_id) in order_ref[lo..end].iter().enumerate() {
                            let (u, v) = graph.edge(edge_id).endpoints();
                            let (decision, lbc_stats) =
                                decide_lbc_with(&mut scratch, &frozen, model, u, v, t, alpha);
                            runs += lbc_stats.bfs_runs;
                            local.push((lo + i, decision));
                        }
                    }
                    // The commit phase takes exclusive ownership of the
                    // spanner, so the clone must be gone before this worker
                    // reports done.
                    drop(frozen);
                    bfs_runs.fetch_add(runs, Ordering::Relaxed);
                    busy_ns.fetch_add(t0.elapsed().as_nanos() as usize, Ordering::Relaxed);
                    board.finish_job(&mut local);
                }
            });
        }

        let mut pos = 0usize;
        while pos < total {
            let hi = (pos + batch).min(total);
            let chunk = &order_ref[pos..hi];
            // Phase 1: speculative decisions against the spanner frozen at
            // batch start, fanned out over the pool.
            decisions.clear();
            decisions.resize(chunk.len(), None);
            let stride = chunk.len().div_ceil(threads * 4).clamp(8, 512);
            cursor.store(pos, Ordering::Relaxed);
            let p1 = Instant::now();
            board.dispatch(Arc::clone(&spanner_arc), hi, stride, threads);
            board.wait_idle(|i, decision| decisions[i - pos] = Some(decision));
            spec.phase1_wall += p1.elapsed();

            // The speculative-accept overlay: together with the live
            // spanner it forms `P`, the superset of every spanner an
            // in-batch search can see while speculation holds. Sorted so
            // ball marking can binary search a vertex's overlay neighbors.
            overlay.clear();
            for (i, slot) in decisions.iter().enumerate() {
                if matches!(slot, Some(LbcDecision::Yes(_))) {
                    let (u, v) = graph.edge(chunk[i]).endpoints();
                    overlay.push((u, v));
                    overlay.push((v, u));
                }
            }
            overlay.sort_unstable();

            // Phase 2: sequential commit in batch order. All workers are
            // parked on the job board, so the spanner is exclusively ours.
            let spanner = Arc::get_mut(&mut spanner_arc).expect("workers are idle between batches");
            let c0 = Instant::now();
            marks.next_epoch();
            let mut flushed = false;
            let hits_before = spec.speculative_hits;
            for (i, &edge_id) in chunk.iter().enumerate() {
                let edge = graph.edge(edge_id);
                let (u, v) = edge.endpoints();
                stats.lbc_calls += 1;
                let clean = !flushed && !marks.is_dirty(u) && !marks.is_dirty(v);
                let decision = if clean {
                    spec.speculative_hits += 1;
                    decisions[i].take().expect("phase 1 fills every slot")
                } else {
                    spec.recomputed += 1;
                    let (decision, lbc_stats) =
                        decide_lbc_with(&mut commit_scratch, spanner, model, u, v, t, alpha);
                    stats.bfs_runs += lbc_stats.bfs_runs;
                    // A reject → accept flip inserts an edge outside `P`:
                    // the dirty marks no longer bound later searches, so
                    // the rest of the batch must recompute.
                    if !flushed
                        && matches!(decision, LbcDecision::Yes(_))
                        && !matches!(decisions[i], Some(LbcDecision::Yes(_)))
                    {
                        flushed = true;
                        spec.prediction_flushes += 1;
                    }
                    decision
                };
                if let LbcDecision::Yes(cut) = decision {
                    let spanner_edge = spanner.add_edge(u.index(), v.index(), edge.weight());
                    if options.base.collect_certificates {
                        certificates.push(EdgeCertificate {
                            input_edge: edge_id,
                            spanner_edge,
                            cut,
                        });
                    }
                    // `add_edge` leaves the graph compacted only when it
                    // just self-compacted — which reorders every adjacency
                    // list, so speculation against the old layout is no
                    // longer exact.
                    if spanner.is_compacted() && !flushed {
                        flushed = true;
                        spec.compaction_flushes += 1;
                    }
                    if !flushed {
                        // The search for a later edge scans an edge only
                        // from a vertex it *expands* — depth ≤ t − 1 — so
                        // radius t − 1 around the new endpoints already
                        // covers every search the accept can influence.
                        marks.mark_balls(spanner, &overlay, u, v, t.saturating_sub(1));
                    }
                }
            }
            spec.commit_wall += c0.elapsed();

            if adaptive {
                let hits = spec.speculative_hits - hits_before;
                if hits * 2 < chunk.len() {
                    batch = (batch / 2).max(min_batch);
                } else if hits * 10 >= chunk.len() * 9 {
                    batch = (batch * 2).min(max_batch);
                }
            }
            pos = hi;
        }
        board.shutdown();
    });
    spec.decide_busy = std::time::Duration::from_nanos(busy_ns.load(Ordering::Relaxed) as u64);

    stats.bfs_runs += bfs_runs.load(Ordering::Relaxed);
    let spanner = Arc::try_unwrap(spanner_arc).expect("the worker pool has shut down");
    stats.spanner_edges = spanner.edge_count();
    stats.elapsed = start.elapsed();
    (
        SpannerResult {
            spanner,
            params,
            stats,
            certificates,
        },
        spec,
    )
}

/// The synchronization point between the commit thread and the speculative
/// worker pool: one job (a frozen spanner and an edge range) per batch.
#[derive(Debug, Default)]
struct JobBoard {
    state: Mutex<JobState>,
    /// Signalled by [`JobBoard::dispatch`] when a new job is posted (and on
    /// shutdown).
    go: Condvar,
    /// Signalled by the last worker to finish the current job.
    idle: Condvar,
}

#[derive(Debug, Default)]
struct JobState {
    /// Monotone job counter; workers track the last value they served.
    seq: u64,
    /// The spanner frozen at batch start, cloned into each worker. `None`
    /// between batches so the commit phase holds the only strong reference.
    spanner: Option<Arc<Graph>>,
    /// One-past-the-end edge-order index of the current batch.
    hi: usize,
    /// Sub-chunk length workers pull off the shared cursor.
    stride: usize,
    /// Workers that finished the current job.
    done: usize,
    /// Workers the current job was dispatched to.
    workers: usize,
    /// Tells parked workers to exit.
    shutdown: bool,
    /// Per-batch decision slots flushed by finishing workers, keyed by
    /// edge-order index.
    results: Vec<(usize, LbcDecision)>,
}

impl JobBoard {
    /// Parks until a job newer than `seen` is posted; returns its frozen
    /// spanner, edge-range end, and stride, or `None` on shutdown.
    fn next_job(&self, seen: &mut u64) -> Option<(Arc<Graph>, usize, usize)> {
        let mut st = self.state.lock().expect("job board poisoned");
        loop {
            if st.shutdown {
                return None;
            }
            if st.seq > *seen {
                break;
            }
            st = self.go.wait(st).expect("job board poisoned");
        }
        *seen = st.seq;
        let frozen = Arc::clone(st.spanner.as_ref().expect("posted job carries a spanner"));
        Some((frozen, st.hi, st.stride))
    }

    /// Reports this worker's results for the current job; the last worker
    /// to finish wakes the commit thread.
    fn finish_job(&self, results: &mut Vec<(usize, LbcDecision)>) {
        let mut st = self.state.lock().expect("job board poisoned");
        st.results.append(results);
        st.done += 1;
        if st.done == st.workers {
            self.idle.notify_one();
        }
    }

    /// Posts a new job to all workers.
    fn dispatch(&self, frozen: Arc<Graph>, hi: usize, stride: usize, workers: usize) {
        let mut st = self.state.lock().expect("job board poisoned");
        st.seq += 1;
        st.spanner = Some(frozen);
        st.hi = hi;
        st.stride = stride;
        st.done = 0;
        st.workers = workers;
        self.go.notify_all();
    }

    /// Blocks until every worker finished the current job, dropping the
    /// board's spanner reference and draining the decisions into `sink`.
    fn wait_idle(&self, mut sink: impl FnMut(usize, LbcDecision)) {
        let mut st = self.state.lock().expect("job board poisoned");
        while st.done < st.workers {
            st = self.idle.wait(st).expect("job board poisoned");
        }
        st.spanner = None;
        for (i, decision) in st.results.drain(..) {
            sink(i, decision);
        }
    }

    /// Wakes every parked worker and tells it to exit.
    fn shutdown(&self) {
        let mut st = self.state.lock().expect("job board poisoned");
        st.shutdown = true;
        self.go.notify_all();
    }
}

/// Epoch-stamped dirty marks over the overlay graph `P` (live spanner plus
/// the batch's speculative accepts): vertices within hop distance `t − 1`
/// of an endpoint of an edge accepted in the current batch.
///
/// `P` is the sound marking horizon: any in-batch live search runs on a
/// spanner sandwiched between the frozen spanner and `P` (while speculation
/// holds), so a search whose `P`-ball misses every accepted endpoint cannot
/// traverse an edge the frozen spanner lacked. Radius `t − 1` suffices
/// because a hop-`t`-bounded search only scans edges from vertices it
/// expands, which sit at depth ≤ `t − 1`. `P`-balls are far smaller than
/// input-graph balls on dense inputs, which keeps the sequential commit
/// phase cheap.
///
/// Cleared in `O(1)` per batch by bumping the epoch. Marking re-relaxes a
/// vertex whenever a later ball reaches it at a *smaller* depth, so
/// frontier vertices of an earlier ball still expand when a new accepted
/// edge lands next to them — without that, overlapping balls would
/// under-mark and break the bit-identity argument.
#[derive(Debug)]
struct DirtyMarks {
    epoch: u64,
    stamp: Vec<u64>,
    depth: Vec<u32>,
    queue: VecDeque<VertexId>,
}

impl DirtyMarks {
    fn new(n: usize) -> Self {
        Self {
            epoch: 0,
            stamp: vec![0; n],
            depth: vec![0; n],
            queue: VecDeque::new(),
        }
    }

    fn next_epoch(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn is_dirty(&self, v: VertexId) -> bool {
        self.stamp[v.index()] == self.epoch
    }

    #[inline]
    fn relax(&mut self, y: VertexId, d: u32) {
        if self.stamp[y.index()] != self.epoch || self.depth[y.index()] > d {
            self.stamp[y.index()] = self.epoch;
            self.depth[y.index()] = d;
            self.queue.push_back(y);
        }
    }

    /// Marks `B_P(u, t) ∪ B_P(v, t)` where `P` is the live spanner plus the
    /// sorted bidirectional `overlay` of speculative-accept edges.
    fn mark_balls(
        &mut self,
        spanner: &Graph,
        overlay: &[(VertexId, VertexId)],
        u: VertexId,
        v: VertexId,
        max_hops: u32,
    ) {
        self.queue.clear();
        for s in [u, v] {
            if self.stamp[s.index()] != self.epoch || self.depth[s.index()] > 0 {
                self.stamp[s.index()] = self.epoch;
                self.depth[s.index()] = 0;
                self.queue.push_back(s);
            }
        }
        while let Some(x) = self.queue.pop_front() {
            let dx = self.depth[x.index()];
            if dx >= max_hops {
                continue;
            }
            for (y, _) in spanner.neighbors(x) {
                self.relax(y, dx + 1);
            }
            let lo = overlay.partition_point(|&(a, _)| a < x);
            for &(_, y) in overlay[lo..].iter().take_while(|&&(a, _)| a == x) {
                self.relax(y, dx + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly_greedy_spanner;
    use ftspan_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_bit_identical(graph: &Graph, params: SpannerParams, options: &ParallelGreedyOptions) {
        let reference = poly_greedy_spanner_with(graph, params, &options.base);
        let parallel = par_poly_greedy_spanner_with(graph, params, options);
        assert_eq!(
            parallel.spanner.edge_count(),
            reference.spanner.edge_count(),
            "edge counts diverged"
        );
        for (e, want) in reference.spanner.edges() {
            let got = parallel.spanner.edge(e);
            assert_eq!(got.endpoints(), want.endpoints(), "edge {e}");
            assert_eq!(
                got.weight().to_bits(),
                want.weight().to_bits(),
                "weight of edge {e}"
            );
        }
        assert_eq!(parallel.certificates.len(), reference.certificates.len());
        for (got, want) in parallel.certificates.iter().zip(&reference.certificates) {
            assert_eq!(got.input_edge, want.input_edge);
            assert_eq!(got.spanner_edge, want.spanner_edge);
            assert_eq!(got.cut, want.cut);
        }
    }

    #[test]
    fn parallel_output_is_bit_identical_across_thread_and_batch_counts() {
        for seed in [11u64, 12, 13] {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(90, 0.12, &mut rng);
            for threads in [2usize, 4, 8] {
                for batch in [1usize, 7, 64, 1024] {
                    let options = ParallelGreedyOptions {
                        threads,
                        batch_size: batch,
                        base: PolyGreedyOptions {
                            collect_certificates: true,
                            ..PolyGreedyOptions::default()
                        },
                    };
                    assert_bit_identical(&g, SpannerParams::vertex(2, 1), &options);
                }
            }
        }
    }

    #[test]
    fn parallel_output_matches_on_weighted_and_edge_fault_inputs() {
        let mut rng = StdRng::seed_from_u64(21);
        let base = generators::connected_gnp(70, 0.15, &mut rng);
        let weighted = generators::with_random_weights(&base, 1.0, 9.0, &mut rng);
        let options = ParallelGreedyOptions {
            threads: 4,
            batch_size: 32,
            base: PolyGreedyOptions {
                collect_certificates: true,
                ..PolyGreedyOptions::default()
            },
        };
        assert_bit_identical(&weighted, SpannerParams::vertex(2, 2), &options);
        assert_bit_identical(&base, SpannerParams::edge(2, 1), &options);
        assert_bit_identical(&weighted, SpannerParams::vertex(3, 1), &options);
    }

    #[test]
    fn parallel_output_matches_across_many_structured_families() {
        let families = [
            generators::grid(9, 9),
            generators::ring_of_cliques(5, 6),
            generators::hypercube(6),
            generators::barabasi_albert(80, 3, &mut StdRng::seed_from_u64(31)),
        ];
        let options = ParallelGreedyOptions::with_threads(3);
        for g in &families {
            assert_bit_identical(g, SpannerParams::vertex(2, 1), &options);
        }
    }

    #[test]
    fn single_thread_request_falls_back_to_the_sequential_sweep() {
        let g = generators::complete(30);
        let params = SpannerParams::vertex(2, 1);
        let (result, spec) =
            par_poly_greedy_spanner_traced(&g, params, &ParallelGreedyOptions::with_threads(1));
        let reference = poly_greedy_spanner(&g, params);
        assert_eq!(result.spanner.edge_count(), reference.spanner.edge_count());
        assert_eq!(spec.speculative_hits, 0);
        assert_eq!(spec.recomputed, g.edge_count());
    }

    #[test]
    fn speculation_counters_add_up() {
        let mut rng = StdRng::seed_from_u64(41);
        let g = generators::connected_gnp(120, 0.08, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        let (result, spec) =
            par_poly_greedy_spanner_traced(&g, params, &ParallelGreedyOptions::with_threads(4));
        assert_eq!(
            spec.speculative_hits + spec.recomputed,
            g.edge_count(),
            "every edge is decided exactly once at commit"
        );
        assert!(spec.speculative_hits > 0, "some speculation must land");
        assert_eq!(result.stats.lbc_calls, g.edge_count());
    }

    #[test]
    fn empty_and_tiny_graphs_are_handled() {
        let options = ParallelGreedyOptions::with_threads(4);
        let r = par_poly_greedy_spanner_with(&Graph::new(0), SpannerParams::vertex(2, 1), &options);
        assert_eq!(r.spanner.vertex_count(), 0);
        let mut g = Graph::new(2);
        g.add_unit_edge(0, 1);
        let r = par_poly_greedy_spanner_with(&g, SpannerParams::vertex(2, 1), &options);
        assert_eq!(r.spanner.edge_count(), 1);
    }
}
