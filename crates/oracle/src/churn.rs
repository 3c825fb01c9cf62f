//! The churn loop: permanent fault waves, violation detection, and
//! incremental repair.
//!
//! A *wave* is a set of vertices or edges that fail **permanently** (unlike
//! the transient fault sets attached to queries). Applying a wave:
//!
//! 1. collects repair *seeds*: the failed elements' surroundings plus the
//!    edges whose LBC certificates the wave invalidated
//!    ([`ftspan::repair::certificates_touching`]);
//! 2. filters the wave out of the current graph and spanner, giving the
//!    effective graph `G'` and surviving spanner `H'`;
//! 3. detects pairs near the damage whose stretch bound
//!    `d_{H'}(u, v) ≤ (2k − 1) · w(u, v)` broke;
//! 4. repairs by re-running the modified greedy **only on the damaged
//!    neighbourhood** ([`ftspan::repair::respan_candidates`]);
//! 5. verifies by sampling, and — when local repair was not enough —
//!    escalates to a full warm-start respan, which provably restores the
//!    `f`-fault-tolerant spanner property.
//!
//! Rozhoň–Ghaffari-style locality is the guiding idea: repair work should be
//! proportional to the damaged region, not the graph, with the global pass
//! kept only as a correctness backstop.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ftspan::repair::{
    candidate_endpoints, certificates_touching, full_respan_with, respan_candidates_with,
    RepairScratch,
};
use ftspan::verify::{verify_spanner_with, VerificationMode};
use ftspan::wire::encode_fault_set;
use ftspan::{EdgeCertificate, FaultSet, PolyGreedyOptions};
use ftspan_graph::bfs::BfsScratch;
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::wire::{fnv1a64, WireWriter};
use ftspan_graph::{EdgeId, Graph, VertexId};

/// Pooled buffers for one oracle's churn loop, owned by the
/// [`FaultOracle`] and reused across waves: BFS frontiers (seeding, halo
/// and candidate collection), Dijkstra/Dial state (violation detection),
/// per-source distance caches, and the incremental-LBC
/// [`RepairScratch`] the localized respan runs on.
///
/// Before this existed, every wave re-allocated all of the above
/// proportionally to the *graph* — the damage-proportional work Rozhoň–
/// Ghaffari-style locality promises was being drowned by setup. The scratch
/// makes wave cost scale with the damaged region (plus the sampled spot
/// check).
#[derive(Debug, Default)]
pub(crate) struct WaveScratch {
    bfs: BfsScratch,
    dijkstra: DijkstraScratch,
    repair: RepairScratch,
    /// Lazily filled per-source distance caches of broken-pair detection,
    /// indexed by source vertex. Epoch-stamped so each wave starts empty in
    /// `O(1)` while the per-source buffers keep their capacity.
    spanner_dist: DistCache,
    graph_dist: DistCache,
}

/// A pooled per-source distance cache: `get` computes distances at most
/// once per source per epoch, writing them into a reusable buffer.
///
/// Buffer capacity is retained across epochs (that is the pooling win),
/// but bounded: the cache lives on the oracle for its whole lifetime, and
/// without a cap a long churn history would pin one vertex-count-sized
/// buffer per source ever touched — `O(n²)` retained heap in the worst
/// case. Once the filled buffers would exceed
/// [`DistCache::MAX_RETAINED_DISTANCES`] entries in total, `begin` frees
/// them all and lets the next wave's working set repopulate.
#[derive(Debug, Default)]
struct DistCache {
    bufs: Vec<Vec<f64>>,
    filled: ftspan_graph::EpochMarks,
    /// Sources whose buffer currently holds capacity, across epochs (may
    /// contain duplicates; used only to bound and free retained memory).
    retained: Vec<u32>,
}

impl DistCache {
    /// Upper bound on `f64` distance entries kept alive across epochs
    /// (~8 MB) before `begin` releases the pooled buffers.
    const MAX_RETAINED_DISTANCES: usize = 1 << 20;

    /// Starts a new epoch over `n` sources; previously cached distances
    /// become stale, and the pooled capacity is released once it exceeds
    /// the retention bound.
    fn begin(&mut self, n: usize) {
        if self.retained.len().saturating_mul(n) > Self::MAX_RETAINED_DISTANCES {
            for &i in &self.retained {
                self.bufs[i as usize] = Vec::new();
            }
            self.retained.clear();
        }
        self.filled.begin(n);
        if self.bufs.len() < self.filled.len() {
            self.bufs.resize_with(self.filled.len(), Vec::new);
        }
    }

    /// Distances from `u` over `view`, computed via `scratch` on first use
    /// this epoch.
    fn get<V: ftspan_graph::GraphView>(
        &mut self,
        scratch: &mut DijkstraScratch,
        view: &V,
        u: VertexId,
    ) -> &[f64] {
        if self.filled.set(u.index()) {
            let buf = &mut self.bufs[u.index()];
            if buf.capacity() == 0 {
                self.retained.push(u.as_u32());
            }
            buf.clear();
            buf.extend_from_slice(scratch.distances(view, u));
        }
        &self.bufs[u.index()]
    }
}

use crate::boundary::BoundaryIndex;
use crate::oracle::FaultOracle;
use crate::repair::neighborhood_candidates_with;
use crate::shard::{region_signature, Region, ShardedOracle};

/// Configuration of the churn loop: the post-repair spot check.
///
/// Repair collects candidates within the stretch `2k − 1` hops of the
/// damage, the distance within which a broken witness path must have
/// passed it. A spot check that finds a violation always escalates to the
/// provably-sufficient full respan.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Samples for the post-repair spot check: half uniformly random, half
    /// adversarial, split exactly and deterministically (an odd count puts
    /// the extra sample in the random half — see
    /// [`ftspan::verify::sampled_split`]); `0` skips verification and never
    /// escalates.
    pub verify_samples: usize,
    /// Seed of the post-repair spot check, for reproducibility.
    pub verify_seed: u64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            verify_samples: 16,
            verify_seed: 0x000C_4151_77AE,
        }
    }
}

/// What one [`FaultOracle::apply_wave`] call did.
#[derive(Clone, Debug)]
pub struct WaveOutcome {
    /// The wave that was applied.
    pub wave: FaultSet,
    /// Pairs (edges of the effective graph) whose stretch bound was broken
    /// before repair.
    pub broken_pairs: Vec<(VertexId, VertexId)>,
    /// Number of candidate edges handed to the localized respan.
    pub candidates: usize,
    /// Spanner edges added by repair (local plus escalation).
    pub edges_added: usize,
    /// Whether the local repair had to escalate to a full respan.
    pub escalated: bool,
    /// Spanner edges that survived the wave (before repair).
    pub surviving_spanner_edges: usize,
    /// Wall-clock time of the whole wave application.
    pub elapsed: Duration,
}

impl FaultOracle {
    /// Applies a permanent fault wave, repairs the spanner around it, and
    /// invalidates cached serving state.
    ///
    /// Edge identifiers in the wave refer to the **current**
    /// [`FaultOracle::graph`]. Waves may exceed the design tolerance `f` —
    /// that is exactly when repair has real work to do.
    pub fn apply_wave(&mut self, wave: &FaultSet, config: &ChurnConfig) -> WaveOutcome {
        let start = Instant::now();
        let radius = self.params.stretch();
        // The oracle-owned scratch serves every stage of the wave —
        // violation detection, candidate collection, the incremental-LBC
        // respan — and survives to the next wave, so steady-state churn
        // stops re-paying graph-sized setup allocations. Taken out of
        // `self` for the duration to keep `&self` reads available.
        let mut scratch = std::mem::take(&mut self.wave_scratch);

        // 1. Seeds, in the pre-wave id space (vertex ids are stable).
        let mut seeds: Vec<VertexId> = Vec::new();
        match wave {
            FaultSet::Vertices(vs) => {
                for &v in vs {
                    if v.index() < self.graph.vertex_count() {
                        seeds.push(v);
                        seeds.extend(self.graph.neighbors(v).map(|(nbr, _)| nbr));
                    }
                }
            }
            FaultSet::Edges(es) => {
                for &e in es {
                    if let Some(edge) = self.graph.get_edge(e) {
                        let (u, v) = edge.endpoints();
                        seeds.push(u);
                        seeds.push(v);
                    }
                }
            }
        }
        seeds.extend(self.certificate_seeds(wave));
        seeds.sort_unstable();
        seeds.dedup();

        // 2. Record damage and filter the wave out of both graphs. Wave edge
        //    ids resolve against the pre-wave graph, once, for both filters.
        self.record_damage(wave);
        let filter = WaveFilter::new(&self.graph, wave);
        let new_spanner = filter.apply(&self.spanner);
        let new_graph = filter.apply(&self.graph);
        let surviving_spanner_edges = new_spanner.edge_count();

        // 3. Detect broken stretch pairs near the damage.
        let broken_pairs = detect_broken_pairs(
            &new_graph,
            &new_spanner,
            self.stretch_bound(),
            &seeds,
            radius,
            &mut scratch,
        );
        let mut all_seeds = seeds;
        for &(u, v) in &broken_pairs {
            all_seeds.push(u);
            all_seeds.push(v);
        }
        all_seeds.sort_unstable();
        all_seeds.dedup();

        // 4. Localized repair on the incremental LBC engine.
        let candidates =
            neighborhood_candidates_with(&mut scratch.bfs, &new_graph, &all_seeds, radius);
        let repair_options = PolyGreedyOptions {
            collect_certificates: self.options.collect_certificates,
        };
        let mut outcome = respan_candidates_with(
            &mut scratch.repair,
            &new_graph,
            &new_spanner,
            self.params,
            &candidates,
            &repair_options,
        );
        let mut edges_added = outcome.edges_added();

        // 5. Spot-check; escalate to the provably-sufficient full respan if
        //    the local neighbourhood was too small.
        let mut escalated = false;
        if config.verify_samples > 0 {
            let report = verify_spanner_with(
                &mut scratch.dijkstra,
                &new_graph,
                &outcome.spanner,
                self.params,
                VerificationMode::Sampled {
                    samples: config.verify_samples,
                    seed: config.verify_seed,
                },
            );
            if !report.is_valid() {
                escalated = true;
                let mut fixed = full_respan_with(
                    &mut scratch.repair,
                    &new_graph,
                    &outcome.spanner,
                    self.params,
                    &repair_options,
                );
                edges_added += fixed.edges_added();
                // The warm start keeps every locally-repaired edge; carry
                // their certificates over (re-resolving spanner ids against
                // the rebuilt graph) so the next wave's seeding still sees
                // the thin spots this wave exposed.
                let carried = outcome.certificates.iter().filter_map(|cert| {
                    let (u, v) = new_graph.edge(cert.input_edge).endpoints();
                    Some(EdgeCertificate {
                        input_edge: cert.input_edge,
                        spanner_edge: fixed.spanner.edge_between(u, v)?,
                        cut: cert.cut.clone(),
                    })
                });
                fixed.certificates.extend(carried);
                outcome = fixed;
            }
        }

        // 6. Install the new state.
        let old_graph = std::mem::replace(&mut self.graph, new_graph);
        let mut certificates = translate_certificates(
            &self.certificates,
            &old_graph,
            &self.graph,
            &outcome.spanner,
        );
        certificates.extend(outcome.certificates);
        self.certificates = certificates;
        self.spanner = outcome.spanner;
        self.wave_scratch = scratch;
        self.invalidate_serving_state();
        self.metrics().record_wave(edges_added as u64, escalated);

        WaveOutcome {
            wave: wave.clone(),
            broken_pairs,
            candidates: candidates.len(),
            edges_added,
            escalated,
            surviving_spanner_edges,
            elapsed: start.elapsed(),
        }
    }

    /// Cumulative permanently-failed vertices.
    #[must_use]
    pub fn damaged_vertices(&self) -> &[VertexId] {
        &self.damage_vertices
    }

    /// Cumulative permanently-failed edges, by endpoints (smaller id first).
    #[must_use]
    pub fn damaged_edges(&self) -> &[(VertexId, VertexId)] {
        &self.damage_edges
    }

    /// Seeds contributed by LBC certificates whose cut the wave intersects:
    /// the endpoints of edges whose redundancy the damage just consumed.
    fn certificate_seeds(&self, wave: &FaultSet) -> Vec<VertexId> {
        // Edge-model certificate cuts hold *spanner* edge ids; translate the
        // wave (graph ids) into that space before intersecting.
        let wave_for_certs = match wave {
            FaultSet::Vertices(_) => wave.clone(),
            FaultSet::Edges(_) => wave.translate_edges(&self.graph, &self.spanner),
        };
        let touched = certificates_touching(&self.certificates, &wave_for_certs);
        let edges: Vec<EdgeId> = touched.iter().map(|c| c.input_edge).collect();
        candidate_endpoints(&self.graph, &edges)
    }

    fn record_damage(&mut self, wave: &FaultSet) {
        match wave {
            FaultSet::Vertices(vs) => {
                for &v in vs {
                    if v.index() < self.graph.vertex_count() && !self.damage_vertices.contains(&v) {
                        self.damage_vertices.push(v);
                    }
                }
            }
            FaultSet::Edges(es) => {
                for &e in es {
                    if let Some(edge) = self.graph.get_edge(e) {
                        let (u, v) = edge.endpoints();
                        let key = if u <= v { (u, v) } else { (v, u) };
                        if !self.damage_edges.contains(&key) {
                            self.damage_edges.push(key);
                        }
                    }
                }
            }
        }
    }
}

/// A wave resolved once against the pre-wave graph: dead-vertex marks plus
/// the endpoint pairs of the wave's edges. Filtering through it keeps edge-id
/// order, so `G ∖ W` filtered from the current graph is edge-for-edge what
/// rebuilding the input graph minus all accumulated damage would give.
struct WaveFilter {
    dead: Vec<bool>,
    /// Normalized (smaller id first) and sorted, for binary search.
    cut: Vec<(VertexId, VertexId)>,
}

impl WaveFilter {
    fn new(graph: &Graph, wave: &FaultSet) -> Self {
        let mut dead = vec![false; graph.vertex_count()];
        let mut cut = Vec::new();
        match wave {
            FaultSet::Vertices(vs) => {
                for &v in vs {
                    if let Some(mark) = dead.get_mut(v.index()) {
                        *mark = true;
                    }
                }
            }
            FaultSet::Edges(es) => {
                cut.extend(es.iter().filter_map(|&e| graph.get_edge(e)).map(|edge| {
                    let (u, v) = edge.endpoints();
                    (u.min(v), u.max(v))
                }));
                cut.sort_unstable();
            }
        }
        Self { dead, cut }
    }

    /// `graph` minus the wave, on the same vertex set (failed vertices become
    /// isolated) with the surviving edges in their original order.
    fn apply(&self, graph: &Graph) -> Graph {
        let mut out = Graph::with_capacity(graph.vertex_count(), graph.edge_count());
        for (_, edge) in graph.edges() {
            let (u, v) = edge.endpoints();
            if !self.dead[u.index()]
                && !self.dead[v.index()]
                && self.cut.binary_search(&(u.min(v), u.max(v))).is_err()
            {
                out.add_edge(u.index(), v.index(), edge.weight());
            }
        }
        out.compact();
        out
    }
}

/// Backend-agnostic summary of one wave application — the shape
/// [`SpannerOracle::apply_wave`](crate::SpannerOracle::apply_wave) reports,
/// so generic callers (most importantly the
/// [`OracleService`](crate::service::OracleService) front-end) see one wave
/// vocabulary over both backends. Backend-specific detail stays on the
/// concrete outcomes ([`WaveOutcome`], [`ShardWaveOutcome`]).
#[derive(Clone, Debug)]
pub struct WaveReport {
    /// The repair outcome of the oracle whose churn loop carries the
    /// provable guarantees (the single oracle itself, or the sharded
    /// backend's global oracle).
    pub outcome: WaveOutcome,
    /// Serving regions whose state (and therefore caches) the wave
    /// rebuilt. The single oracle is one region, `0`, and every wave
    /// rebuilds it; a sharded backend lists exactly the wave-touched
    /// shards. The wire `WAVE` reply and the journal digest carry it. Note
    /// the list covers *shard* regions only: a sharded backend drops every
    /// lazily-stitched pair region on every wave, so the first cross-shard
    /// query afterwards pays a pair rebuild even when neither endpoint's
    /// shard appears here.
    pub rebuilt_lanes: Vec<usize>,
    /// Shard pairs whose portals the wave completely severed (always empty
    /// for the single oracle) — see [`ShardWaveOutcome::severed_pairs`].
    pub severed_pairs: Vec<(u32, u32)>,
    /// The epoch this wave published: the backend's epoch right after the
    /// repair. Not part of [`WaveReport::digest`], which covers what the
    /// wave decided, not where it landed.
    pub epoch: u64,
}

impl WaveReport {
    /// A deterministic FNV-1a-64 digest of everything the wave *decided*:
    /// the wave itself, the broken pairs, candidate/added/surviving edge
    /// counts, the escalation flag, the rebuilt lanes, and the severed
    /// pairs. Two oracles that started from identical state and applied the
    /// same wave produce the same digest — this is what the replication
    /// tier's [`WaveJournal`](crate::replication::WaveJournal) records per
    /// entry, so a diverging replica is caught *at the entry that
    /// diverged*, not at the next full snapshot comparison.
    ///
    /// [`WaveOutcome::elapsed`] is deliberately excluded: wall-clock time
    /// is machine-local and must never enter a cross-machine determinism
    /// contract.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut w = WireWriter::new();
        encode_fault_set(&self.outcome.wave, &mut w);
        w.put_len(self.outcome.broken_pairs.len());
        for &(u, v) in &self.outcome.broken_pairs {
            w.put_u32(u.as_u32());
            w.put_u32(v.as_u32());
        }
        w.put_len(self.outcome.candidates);
        w.put_len(self.outcome.edges_added);
        w.put_u8(u8::from(self.outcome.escalated));
        w.put_len(self.outcome.surviving_spanner_edges);
        w.put_len(self.rebuilt_lanes.len());
        for &lane in &self.rebuilt_lanes {
            w.put_len(lane);
        }
        w.put_len(self.severed_pairs.len());
        for &(a, b) in &self.severed_pairs {
            w.put_u32(a);
            w.put_u32(b);
        }
        fnv1a64(w.as_slice())
    }
}

/// What one [`ShardedOracle::apply_wave`] call did.
#[derive(Clone, Debug)]
pub struct ShardWaveOutcome {
    /// The global repair outcome (the wave is applied to the global oracle
    /// first; its localized repair carries the provable guarantees).
    pub global: WaveOutcome,
    /// Shards whose region changed (membership or induced edges) and were
    /// therefore rebuilt from the repaired spanner. Shards the wave did not
    /// touch keep their oracle — and its cached trees — untouched.
    pub rebuilt_shards: Vec<usize>,
    /// Shard pairs (super-shard pairs when the oracle is grouped) that were
    /// adjacent (had cut edges) before the wave and have none afterwards:
    /// the wave severed every portal between them, so cross-shard queries
    /// between those shards now certify through wider detours or fall back
    /// to the global oracle.
    pub severed_pairs: Vec<(u32, u32)>,
}

impl ShardedOracle {
    /// Applies a permanent fault wave and fans the repair out across the
    /// shards.
    ///
    /// The wave first goes through the global oracle's churn loop
    /// ([`FaultOracle::apply_wave`]): localized certificate-seeded repair
    /// with full-respan escalation, which restores the `f`-fault-tolerant
    /// spanner property. The fan-out then recomputes every shard's region
    /// membership and signature against the repaired spanner and rebuilds
    /// **only the regions the wave actually changed** — repair work stays
    /// proportional to the damaged area, and a wave confined to one shard
    /// leaves every other shard's cached trees valid (their epochs do not
    /// move). Pair regions are dropped and rebuilt lazily on demand.
    pub fn apply_wave(&mut self, wave: &FaultSet, config: &ChurnConfig) -> ShardWaveOutcome {
        let pairs_before = self.boundary.adjacent_pairs();
        let global = self.global.apply_wave(wave, config);

        let boundary_plan = self.grouping.as_ref().map_or(&self.plan, |g| &g.plan);
        self.boundary = BoundaryIndex::build(self.global.spanner(), boundary_plan);
        let severed_pairs = {
            let after: HashSet<(u32, u32)> = self.boundary.adjacent_pairs().into_iter().collect();
            pairs_before
                .into_iter()
                .filter(|p| !after.contains(p))
                .collect()
        };

        let mut rebuilt_shards = Vec::new();
        // A region interned behind several shards must fold its retired
        // counters exactly once, even though every sharing shard walks this
        // loop and replaces its handle.
        let mut folded: Vec<*const Region> = Vec::new();
        for shard in 0..self.plan.shard_count() {
            let members = self.global.spanner().halo_members_with(
                &mut self.wave_bfs,
                self.plan.core(shard),
                self.halo_radius,
            );
            let signature = region_signature(self.global.graph(), self.global.spanner(), &members);
            if signature == self.regions[shard].signature {
                continue;
            }
            // The rebuilt region starts with fresh metrics; fold the retired
            // region's counters into the lifetime cache statistics first.
            let retired_ptr = std::sync::Arc::as_ptr(&self.regions[shard]);
            if !folded.contains(&retired_ptr) {
                folded.push(retired_ptr);
                let retired = self.regions[shard].trees.metrics().snapshot();
                self.retired_cache_stats.0 += retired.cache_hits;
                self.retired_cache_stats.1 += retired.trees_built;
            }
            // Sibling dedup on the rebuild path: a live region that already
            // matches the new signature and member set (typically one this
            // same wave just rebuilt for a sibling shard) is shared instead
            // of re-extracted.
            let shared = self
                .regions
                .iter()
                .enumerate()
                .find(|&(other, r)| {
                    other != shard
                        && r.signature == signature
                        && r.remap.members() == members.as_slice()
                })
                .map(|(_, r)| std::sync::Arc::clone(r));
            self.regions[shard] = shared.unwrap_or_else(|| {
                std::sync::Arc::new(Region::build(
                    self.global.graph(),
                    self.global.spanner(),
                    &members,
                ))
            });
            self.shard_epochs[shard] += 1;
            rebuilt_shards.push(shard);
        }
        {
            let mut pairs = self.pair_regions.lock();
            for region in pairs.values() {
                // A pair interned to a leaf region stays live through the
                // leaf's handle (and a leaf already folded above must not be
                // folded twice): only genuinely retired allocations count.
                let ptr = std::sync::Arc::as_ptr(region);
                if folded.contains(&ptr)
                    || self
                        .regions
                        .iter()
                        .any(|r| std::sync::Arc::ptr_eq(r, region))
                {
                    continue;
                }
                folded.push(ptr);
                let retired = region.trees.metrics().snapshot();
                self.retired_cache_stats.0 += retired.cache_hits;
                self.retired_cache_stats.1 += retired.trees_built;
            }
            pairs.clear();
        }
        self.metrics.record_wave();

        ShardWaveOutcome {
            global,
            rebuilt_shards,
            severed_pairs,
        }
    }
}

/// Checks the Lemma-3 pairs (surviving graph edges) whose endpoints lie
/// within `radius` hops of a seed: a pair is broken when
/// `d_{H'}(u, v) > (2k − 1) · w(u, v)` (with the usual weighted restriction
/// to edges that are themselves shortest paths).
///
/// All shortest-path state runs on the pooled [`WaveScratch`]: the Dial
/// lane for unit-weight graphs, epoch-stamped per-source distance caches
/// instead of per-wave hash maps of cloned trees. The reported pairs are
/// identical to a from-scratch computation.
fn detect_broken_pairs(
    graph: &Graph,
    spanner: &Graph,
    stretch: f64,
    seeds: &[VertexId],
    radius: u32,
    scratch: &mut WaveScratch,
) -> Vec<(VertexId, VertexId)> {
    let near = scratch
        .bfs
        .multi_source_hop_distances(graph, seeds.iter().copied(), radius);

    scratch.spanner_dist.begin(graph.vertex_count());
    scratch.graph_dist.begin(graph.vertex_count());
    let mut broken = Vec::new();
    for (_, edge) in graph.edges() {
        let (u, v) = edge.endpoints();
        if near[u.index()].is_none() && near[v.index()].is_none() {
            continue;
        }
        // Weighted Lemma-3 restriction: only edges that are shortest paths
        // in G' constrain the spanner.
        if !graph.is_unit_weighted() {
            let dist = scratch.graph_dist.get(&mut scratch.dijkstra, graph, u);
            if dist[v.index()] + 1e-9 < edge.weight() {
                continue;
            }
        }
        let dist = scratch.spanner_dist.get(&mut scratch.dijkstra, spanner, u);
        if dist[v.index()] > stretch * edge.weight() + 1e-9 {
            broken.push((u, v));
        }
    }
    broken
}

/// Carries certificates across a rematerialization by re-resolving their
/// edges by endpoints. Certificates whose edge vanished, and edge-model cuts
/// (whose ids are only meaningful against the old spanner), are dropped.
fn translate_certificates(
    certificates: &[EdgeCertificate],
    old_graph: &Graph,
    new_graph: &Graph,
    new_spanner: &Graph,
) -> Vec<EdgeCertificate> {
    certificates
        .iter()
        .filter_map(|cert| {
            if matches!(cert.cut, FaultSet::Edges(_)) {
                return None;
            }
            let (u, v) = old_graph.get_edge(cert.input_edge)?.endpoints();
            let input_edge = new_graph.edge_between(u, v)?;
            let spanner_edge = new_spanner.edge_between(u, v)?;
            Some(EdgeCertificate {
                input_edge,
                spanner_edge,
                cut: cert.cut.clone(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::OracleOptions;
    use ftspan::verify::{verify_spanner, VerificationMode};
    use ftspan::SpannerParams;
    use ftspan_graph::{generators, vid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn churn_oracle(seed: u64) -> FaultOracle {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(40, 0.2, &mut rng);
        FaultOracle::build(graph, SpannerParams::vertex(2, 1), OracleOptions::default())
    }

    #[test]
    fn wave_removes_elements_from_the_effective_graph() {
        let mut oracle = churn_oracle(41);
        let before_edges = oracle.graph().edge_count();
        let victim = vid(5);
        let degree = oracle.graph().degree(victim);
        assert!(degree > 0);
        let outcome = oracle.apply_wave(&FaultSet::vertices([victim]), &ChurnConfig::default());
        assert_eq!(oracle.graph().edge_count(), before_edges - degree);
        assert_eq!(oracle.graph().degree(victim), 0);
        assert_eq!(oracle.damaged_vertices(), &[victim]);
        assert_eq!(outcome.wave, FaultSet::vertices([victim]));
        assert_eq!(oracle.epoch(), 1);
    }

    #[test]
    fn repaired_spanner_is_valid_for_the_damaged_graph() {
        let mut oracle = churn_oracle(42);
        // Hit it with a wave larger than the design tolerance f = 1.
        let wave = FaultSet::vertices([vid(2), vid(9), vid(17)]);
        let _ = oracle.apply_wave(&wave, &ChurnConfig::default());
        let report = verify_spanner(
            oracle.graph(),
            oracle.spanner(),
            oracle.params(),
            VerificationMode::Sampled {
                samples: 30,
                seed: 5,
            },
        );
        assert!(report.is_valid(), "violations: {:?}", report.violations);
        assert!(oracle.spanner().is_edge_subgraph_of(oracle.graph()));
    }

    #[test]
    fn edge_waves_translate_by_endpoints() {
        let mut oracle = churn_oracle(43);
        let (edge_id, edge) = oracle.graph().edges().next().map(|(i, e)| (i, *e)).unwrap();
        let (u, v) = edge.endpoints();
        let _ = oracle.apply_wave(&FaultSet::edges([edge_id]), &ChurnConfig::default());
        assert!(oracle.graph().edge_between(u, v).is_none());
        assert!(oracle.spanner().edge_between(u, v).is_none());
        assert_eq!(oracle.damaged_edges().len(), 1);
    }

    #[test]
    fn queries_after_waves_serve_the_surviving_graph() {
        let mut oracle = churn_oracle(44);
        let wave = FaultSet::vertices([vid(3), vid(11)]);
        let _ = oracle.apply_wave(&wave, &ChurnConfig::default());
        let empty = FaultSet::empty(ftspan::FaultModel::Vertex);
        // Failed vertices answer None against live ones.
        assert_eq!(oracle.distance(vid(3), vid(0), &empty), None);
        // Live pairs still answer, within the stretch bound of the damaged
        // graph.
        let view = ftspan_graph::FaultView::new(oracle.graph());
        let live: Vec<VertexId> = (0..oracle.graph().vertex_count())
            .map(vid)
            .filter(|&x| x != vid(3) && x != vid(11) && view.graph().degree(x) > 0)
            .collect();
        let (a, b) = (live[0], live[1]);
        if let Some(d_g) = ftspan_graph::dijkstra::weighted_distance(oracle.graph(), a, b) {
            let d_h = oracle
                .distance(a, b, &empty)
                .expect("spanner keeps connectivity");
            assert!(d_h <= oracle.stretch_bound() * d_g + 1e-9);
        }
    }

    #[test]
    fn waves_invalidate_the_cache() {
        let mut oracle = churn_oracle(45);
        let faults = FaultSet::vertices([vid(6)]);
        let _ = oracle.distance(vid(0), vid(1), &faults);
        let hit = oracle.answer(&crate::Query::distance(vid(0), vid(1), faults.clone()));
        assert!(hit.cache_hit);
        let _ = oracle.apply_wave(&FaultSet::vertices([vid(20)]), &ChurnConfig::default());
        let miss = oracle.answer(&crate::Query::distance(vid(0), vid(1), faults));
        assert!(!miss.cache_hit, "cache must be cleared by a wave");
    }

    #[test]
    fn many_rounds_of_churn_keep_the_oracle_healthy() {
        let mut oracle = churn_oracle(46);
        let mut rng = StdRng::seed_from_u64(99);
        let config = ChurnConfig {
            verify_samples: 12,
            ..ChurnConfig::default()
        };
        for round in 0..6 {
            let wave = ftspan::sample_fault_set(
                oracle.graph(),
                ftspan::FaultModel::Vertex,
                2,
                &[],
                &mut rng,
            );
            let outcome = oracle.apply_wave(&wave, &config);
            assert!(outcome.elapsed.as_secs() < 60, "round {round} too slow");
            let report = verify_spanner(
                oracle.graph(),
                oracle.spanner(),
                oracle.params(),
                VerificationMode::Sampled {
                    samples: 10,
                    seed: round,
                },
            );
            assert!(report.is_valid(), "round {round}: {:?}", report.violations);
        }
        assert_eq!(oracle.metrics().snapshot().waves_applied, 6);
    }

    #[test]
    fn sharded_wave_rebuilds_only_touched_regions() {
        // Two cliques joined by a long path: damage inside clique A is far
        // (more than the halo radius) from clique B's region.
        let g = {
            let cliques = 2usize;
            let size = 6usize;
            let path_len = 14usize;
            let n = cliques * size + path_len;
            let mut g = Graph::new(n);
            for c in 0..cliques {
                for i in 0..size {
                    for j in (i + 1)..size {
                        g.add_unit_edge(c * size + i, c * size + j);
                    }
                }
            }
            // Path: clique A's vertex 0 … chain … clique B's vertex 6.
            let chain_start = cliques * size;
            let mut prev = 0usize;
            for p in 0..path_len {
                g.add_unit_edge(prev, chain_start + p);
                prev = chain_start + p;
            }
            g.add_unit_edge(prev, size); // into clique B
            g
        };
        let n = g.vertex_count();
        // Shard 0: clique A + first half of the chain; shard 1: the rest.
        let shard_of: Vec<u32> = (0..n)
            .map(|i| u32::from(!(i < 6 || (12..19).contains(&i))))
            .collect();
        let plan = crate::ShardPlan::from_shard_of(shard_of);
        let mut oracle = crate::ShardedOracle::build_with_plan(
            g,
            SpannerParams::vertex(2, 1),
            plan,
            crate::ShardedOptions::default(),
        );

        // Warm shard 1's cache with a local query.
        let faults = FaultSet::vertices([vid(7)]);
        let _ = oracle.distance(vid(6), vid(8), &faults);
        let warm = oracle.answer(&crate::Query::distance(vid(6), vid(8), faults.clone()));
        assert!(warm.cache_hit);
        let epochs_before = oracle.shard_epochs().to_vec();

        // A wave deep inside clique A: far outside shard 1's halo.
        let outcome = oracle.apply_wave(&FaultSet::vertices([vid(2)]), &ChurnConfig::default());
        assert!(outcome.rebuilt_shards.contains(&0));
        assert!(
            !outcome.rebuilt_shards.contains(&1),
            "wave confined to shard 0 must not rebuild shard 1"
        );
        assert_eq!(oracle.shard_epochs()[1], epochs_before[1]);
        assert!(oracle.shard_epochs()[0] > epochs_before[0]);

        // Shard 1's cached trees are still live after the wave.
        let still_warm = oracle.answer(&crate::Query::distance(vid(6), vid(8), faults));
        assert!(
            still_warm.cache_hit,
            "untouched shard must keep its cached trees"
        );

        // And the sharded oracle still answers exactly like its global one.
        let empty = FaultSet::empty(ftspan::FaultModel::Vertex);
        for (u, v) in [(0usize, 8usize), (3, 25), (13, 20)] {
            assert_eq!(
                oracle.distance(vid(u), vid(v), &empty),
                oracle.global().distance(vid(u), vid(v), &empty)
            );
        }
    }

    #[test]
    fn detect_broken_pairs_flags_destroyed_detours() {
        // Cycle C6: spanner = the cycle minus one edge is NOT a valid
        // 3-spanner; detection around the removed edge's endpoints sees it.
        let g = generators::cycle(6);
        let spanner = g.edge_subgraph(g.edge_ids().take(5));
        let seeds = vec![vid(0), vid(5)];
        let mut scratch = WaveScratch::default();
        let broken = detect_broken_pairs(&g, &spanner, 3.0, &seeds, 2, &mut scratch);
        assert!(broken.contains(&(vid(5), vid(0))) || broken.contains(&(vid(0), vid(5))));
        // With the full cycle as spanner nothing is broken.
        assert!(detect_broken_pairs(&g, &g, 3.0, &seeds, 2, &mut scratch).is_empty());
    }
}
