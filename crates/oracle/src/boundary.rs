//! The cross-shard boundary index: cut edges and portal vertices.
//!
//! A [`ShardPlan`] partitions the vertex set, but the
//! spanner's edges do not respect the partition: some of them *cross* it.
//! The [`BoundaryIndex`] records exactly those crossings — each **cut edge**
//! (a spanner edge whose endpoints live in different shards) and each
//! **portal** (a vertex incident to a cut edge). Cross-shard queries are
//! stitched through portals: a path from shard `a` to shard `b` must use a
//! cut edge, so the pair region the sharded oracle serves such queries from
//! is the union of both shards' regions, glued along these edges. When a
//! fault set severs every portal between two shards, the stitched region
//! disconnects and the query falls back to the global oracle.

use std::collections::HashMap;

use ftspan::FaultSet;
use ftspan_graph::{EdgeId, Graph, VertexId};

use crate::shard::ShardPlan;

/// One spanner edge whose endpoints lie in different shards.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CutEdge {
    /// Identifier of the edge in the global spanner.
    pub edge: EdgeId,
    /// The endpoint living in `shards.0`.
    pub u: VertexId,
    /// The endpoint living in `shards.1`.
    pub v: VertexId,
    /// The shard pair the edge connects, normalized so `shards.0 < shards.1`.
    pub shards: (u32, u32),
}

/// Index of every spanner edge crossing the shard partition, grouped by
/// shard pair, plus the portal vertices those edges expose.
#[derive(Debug)]
pub struct BoundaryIndex {
    cut_edges: Vec<CutEdge>,
    by_pair: HashMap<(u32, u32), Vec<usize>>,
    portals_by_shard: Vec<Vec<VertexId>>,
    portal: Vec<bool>,
}

impl BoundaryIndex {
    /// Builds the index for a spanner under a shard plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan does not cover the spanner's vertex set.
    #[must_use]
    pub fn build(spanner: &Graph, plan: &ShardPlan) -> Self {
        assert_eq!(
            spanner.vertex_count(),
            plan.vertex_count(),
            "shard plan must cover the spanner's vertex set"
        );
        let mut cut_edges = Vec::new();
        let mut by_pair: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
        let mut portals_by_shard = vec![Vec::new(); plan.shard_count()];
        let mut portal = vec![false; spanner.vertex_count()];
        for (id, edge) in spanner.edges() {
            let (mut u, mut v) = edge.endpoints();
            let (mut su, mut sv) = (plan.shard_of(u), plan.shard_of(v));
            if su == sv {
                continue;
            }
            if su > sv {
                (u, v) = (v, u);
                (su, sv) = (sv, su);
            }
            by_pair.entry((su, sv)).or_default().push(cut_edges.len());
            cut_edges.push(CutEdge {
                edge: id,
                u,
                v,
                shards: (su, sv),
            });
            for (vertex, shard) in [(u, su), (v, sv)] {
                if !portal[vertex.index()] {
                    portal[vertex.index()] = true;
                }
                portals_by_shard[shard as usize].push(vertex);
            }
        }
        for portals in &mut portals_by_shard {
            portals.sort_unstable();
            portals.dedup();
        }
        Self {
            cut_edges,
            by_pair,
            portals_by_shard,
            portal,
        }
    }

    /// Every cut edge, in spanner edge order.
    #[must_use]
    pub fn cut_edges(&self) -> &[CutEdge] {
        &self.cut_edges
    }

    /// The cut edges between one shard pair (order of `a`, `b` irrelevant).
    pub fn cut_edges_between(&self, a: u32, b: u32) -> impl Iterator<Item = &CutEdge> + '_ {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.by_pair
            .get(&key)
            .into_iter()
            .flatten()
            .map(|&i| &self.cut_edges[i])
    }

    /// The portal vertices a shard exposes (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    #[must_use]
    pub fn portals(&self, shard: usize) -> &[VertexId] {
        &self.portals_by_shard[shard]
    }

    /// The portal vertices on either side of one shard pair's cut.
    #[must_use]
    pub fn portals_between(&self, a: u32, b: u32) -> Vec<VertexId> {
        let mut out: Vec<VertexId> = self
            .cut_edges_between(a, b)
            .flat_map(|c| [c.u, c.v])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Returns `true` if the vertex is incident to any cut edge.
    #[must_use]
    pub fn is_portal(&self, v: VertexId) -> bool {
        self.portal.get(v.index()).copied().unwrap_or(false)
    }

    /// The shard pairs connected by at least one cut edge, sorted.
    #[must_use]
    pub fn adjacent_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self.by_pair.keys().copied().collect();
        pairs.sort_unstable();
        pairs
    }

    /// Heap bytes held by the index: cut edges, per-pair buckets, portal
    /// lists and the portal bitmap. This is the number the scale tier keeps
    /// sub-linear by building the index over super-shards only.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        let mut bytes = self.cut_edges.capacity() * std::mem::size_of::<CutEdge>()
            + self.portal.capacity()
            + self.portals_by_shard.capacity() * std::mem::size_of::<Vec<VertexId>>();
        for portals in &self.portals_by_shard {
            bytes += portals.capacity() * std::mem::size_of::<VertexId>();
        }
        bytes += self.by_pair.capacity()
            * (std::mem::size_of::<(u32, u32)>() + std::mem::size_of::<Vec<usize>>());
        for bucket in self.by_pair.values() {
            bytes += bucket.capacity() * std::mem::size_of::<usize>();
        }
        bytes
    }

    /// Number of cut edges between `a` and `b` that survive the given fault
    /// set: neither endpoint faulted and, for edge faults, the edge itself
    /// not faulted (edge fault ids refer to `graph`, the oracle's input
    /// graph, and are matched against the cut edge by endpoints). `0` means
    /// the fault set severs every portal between the two shards.
    #[must_use]
    pub fn live_cut_edges_between(
        &self,
        a: u32,
        b: u32,
        faults: &FaultSet,
        graph: &Graph,
    ) -> usize {
        self.cut_edges_between(a, b)
            .filter(|cut| match faults {
                FaultSet::Vertices(vs) => !vs.contains(&cut.u) && !vs.contains(&cut.v),
                FaultSet::Edges(es) => !es.iter().any(|&e| {
                    graph
                        .get_edge(e)
                        .map(|ge| {
                            let (x, y) = ge.endpoints();
                            (x == cut.u && y == cut.v) || (x == cut.v && y == cut.u)
                        })
                        .unwrap_or(false)
                }),
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::{generators, vid};

    /// A 6-cycle split into two shards of 3 consecutive vertices each has
    /// exactly two cut edges: {2,3} and {5,0}.
    fn split_cycle() -> (Graph, ShardPlan) {
        let g = generators::cycle(6);
        let plan = ShardPlan::from_shard_of(vec![0, 0, 0, 1, 1, 1]);
        (g, plan)
    }

    #[test]
    fn records_every_crossing_edge_and_its_portals() {
        let (g, plan) = split_cycle();
        let index = BoundaryIndex::build(&g, &plan);
        assert_eq!(index.cut_edges().len(), 2);
        for cut in index.cut_edges() {
            assert_ne!(plan.shard_of(cut.u), plan.shard_of(cut.v));
            assert_eq!(cut.shards, (0, 1));
            assert!(index.is_portal(cut.u));
            assert!(index.is_portal(cut.v));
        }
        assert_eq!(index.portals(0), &[vid(0), vid(2)]);
        assert_eq!(index.portals(1), &[vid(3), vid(5)]);
        assert_eq!(
            index.portals_between(1, 0),
            vec![vid(0), vid(2), vid(3), vid(5)]
        );
        assert_eq!(index.adjacent_pairs(), vec![(0, 1)]);
        assert!(!index.is_portal(vid(1)));
    }

    #[test]
    fn live_cut_edges_detect_severed_portals() {
        let (g, plan) = split_cycle();
        let index = BoundaryIndex::build(&g, &plan);
        assert_eq!(
            index.live_cut_edges_between(0, 1, &FaultSet::vertices([]), &g),
            2
        );
        // Faulting vertex 2 kills the {2,3} crossing, leaving {5,0}.
        let one = FaultSet::vertices([vid(2)]);
        assert_eq!(index.live_cut_edges_between(0, 1, &one, &g), 1);
        // Faulting both 2 and 5 severs every portal between the shards.
        let both = FaultSet::vertices([vid(2), vid(5)]);
        assert_eq!(index.live_cut_edges_between(0, 1, &both, &g), 0);
        // Edge faults match cut edges by endpoints.
        let e = g.edge_between(vid(2), vid(3)).unwrap();
        assert_eq!(
            index.live_cut_edges_between(0, 1, &FaultSet::edges([e]), &g),
            1
        );
    }

    #[test]
    fn intra_shard_edges_are_not_cut_edges() {
        let g = generators::complete(4);
        let plan = ShardPlan::from_shard_of(vec![0, 0, 0, 0]);
        let index = BoundaryIndex::build(&g, &plan);
        assert!(index.cut_edges().is_empty());
        assert!(index.adjacent_pairs().is_empty());
        assert_eq!(index.portals(0), &[] as &[VertexId]);
    }
}
