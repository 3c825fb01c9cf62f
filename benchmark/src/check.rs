//! Correctness inside every run: wire answers against Dijkstra on `H ∖ F`
//! run outside the oracle (no cache, no shards, no service, no socket),
//! paths walked edge by edge, stretch against `G ∖ F`.

use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_graph::wire::fnv1a64;
use ftspan_graph::{Graph, VertexId};
use ftspan_oracle::{Query, QueryKind};
use ftspan_server::{BatchEntry, WireAnswer};

/// What Dijkstra says about one query.
#[derive(Clone, Debug)]
pub struct Reference {
    /// `d_{H∖F}` from `u`, and from `v` on weighted graphs, where the two
    /// sums round differently and the oracle may serve either tree.
    from_u: Option<f64>,
    from_v: Option<f64>,
    /// `d_{G∖F}`.
    in_graph: Option<f64>,
}

pub fn references(
    spanner: &Graph,
    graph: &Graph,
    queries: &[Query],
    scratch: &mut DijkstraScratch,
) -> Vec<Reference> {
    queries
        .iter()
        .map(|q| {
            let in_spanner = q.faults.translate_edges(graph, spanner).apply(spanner);
            let from_u = scratch
                .shortest_path_tree(&in_spanner, q.u)
                .distance_to(q.v);
            let from_v = if spanner.is_unit_weighted() {
                from_u
            } else {
                scratch
                    .shortest_path_tree(&in_spanner, q.v)
                    .distance_to(q.u)
            };
            let in_graph = scratch
                .shortest_path_tree(&q.faults.apply(graph), q.u)
                .distance_to(q.v);
            Reference {
                from_u,
                from_v,
                in_graph,
            }
        })
        .collect()
}

fn bits(d: Option<f64>) -> Option<u64> {
    d.map(f64::to_bits)
}

/// Checks one wire answer; `Err` names what failed.
pub fn check_answer(
    spanner: &Graph,
    stretch: f64,
    query: &Query,
    answer: &WireAnswer,
    reference: &Reference,
) -> Result<(), String> {
    let got = bits(answer.distance);
    if got != bits(reference.from_u) && got != bits(reference.from_v) {
        return Err(format!(
            "distance {:?} is not Dijkstra's {:?}",
            answer.distance, reference.from_u
        ));
    }
    if let (Some(d_h), Some(d_g)) = (answer.distance, reference.in_graph) {
        if d_h > stretch * d_g * (1.0 + 1e-12) {
            return Err(format!("stretch {d_h} / {d_g} exceeds {stretch}"));
        }
    }
    if reference.in_graph.is_some() && answer.distance.is_none() {
        return Err("pair connected in G∖F but not in H∖F".into());
    }
    match (query.kind, answer.distance, &answer.path) {
        (QueryKind::Path, Some(d), Some(path)) => walk(spanner, query, path, d),
        (QueryKind::Path, Some(_), None) => Err("path request answered without a path".into()),
        _ => Ok(()),
    }
}

/// The path runs `u → v` over spanner edges, avoids every faulted vertex
/// (the workloads use vertex faults only), and is as long as the distance
/// says.
fn walk(spanner: &Graph, query: &Query, path: &[VertexId], distance: f64) -> Result<(), String> {
    if path.first() != Some(&query.u) || path.last() != Some(&query.v) {
        return Err("path does not run from u to v".into());
    }
    let mut length = 0.0;
    for pair in path.windows(2) {
        let Some(e) = spanner.edge_between(pair[0], pair[1]) else {
            return Err(format!("path step {:?} is not a spanner edge", pair));
        };
        length += spanner.weight(e);
    }
    if path.iter().any(|&v| query.faults.contains_vertex(v)) {
        return Err("path visits a faulted vertex".into());
    }
    if (length - distance).abs() > 1e-9 * distance.max(1.0) {
        return Err(format!(
            "path length {length} is not the distance {distance}"
        ));
    }
    Ok(())
}

/// The answered entries of a `BATCH` reply; a shed entry is `None`.
pub fn answered(entries: &[BatchEntry]) -> Vec<Option<&WireAnswer>> {
    entries
        .iter()
        .map(|entry| match entry {
            BatchEntry::Answered(answer) => Some(answer),
            BatchEntry::Shed => None,
        })
        .collect()
}

/// Folds answers into a running FNV digest: distance bits, then the path.
pub fn digest_answer(digest: &mut u64, distance: Option<f64>, path: Option<&[VertexId]>) {
    let mut bytes = Vec::with_capacity(16 + 4 * path.map_or(0, <[VertexId]>::len));
    bytes.extend_from_slice(&digest.to_le_bytes());
    bytes.extend_from_slice(&distance.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    for v in path.unwrap_or_default() {
        bytes.extend_from_slice(&v.as_u32().to_le_bytes());
    }
    *digest = fnv1a64(&bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan::FaultSet;
    use ftspan_graph::{generators, vid};

    fn grid_case() -> (Graph, Query, Reference) {
        let g = generators::grid(3, 3);
        let q = Query::path(vid(0), vid(2), FaultSet::vertices([vid(1)]));
        let r = references(
            &g,
            &g,
            std::slice::from_ref(&q),
            &mut DijkstraScratch::new(),
        )
        .pop()
        .unwrap();
        (g, q, r)
    }

    #[test]
    fn accepts_the_detour_and_rejects_a_walk_through_the_fault() {
        let (g, q, r) = grid_case();
        assert_eq!(r.from_u, Some(4.0));
        let good = WireAnswer {
            distance: Some(4.0),
            path: Some(vec![vid(0), vid(3), vid(4), vid(5), vid(2)]),
        };
        assert!(check_answer(&g, 3.0, &q, &good, &r).is_ok());
        let through_fault = WireAnswer {
            distance: Some(2.0),
            path: Some(vec![vid(0), vid(1), vid(2)]),
        };
        assert!(check_answer(&g, 3.0, &q, &through_fault, &r).is_err());
        let wrong_length = WireAnswer {
            distance: Some(4.0),
            path: Some(vec![vid(0), vid(3), vid(6), vid(7), vid(4), vid(5), vid(2)]),
        };
        assert!(check_answer(&g, 3.0, &q, &wrong_length, &r).is_err());
    }

    #[test]
    fn rejects_a_distance_beyond_the_stretch_bound() {
        let (g, q, mut r) = grid_case();
        r.in_graph = Some(1.0);
        r.from_u = Some(4.0);
        let answer = WireAnswer {
            distance: Some(4.0),
            path: Some(vec![vid(0), vid(3), vid(4), vid(5), vid(2)]),
        };
        assert!(check_answer(&g, 3.0, &q, &answer, &r).is_err());
    }
}
