//! Instrumentation collected while building a spanner, plus the common
//! result type returned by every construction in this crate.

use std::time::Duration;

use ftspan_graph::{EdgeId, Graph};

use crate::{FaultSet, SpannerParams};

/// Counters describing one spanner construction run.
///
/// The polynomial-time greedy algorithm's cost is dominated by BFS runs
/// inside the Length-Bounded Cut subroutine (Theorem 9 bounds the total by
/// `O(m · k · f^{2−1/k} · n^{1+1/k})`), so the counters expose exactly those
/// quantities for the runtime experiments.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpannerStats {
    /// Name of the algorithm that produced the result.
    pub algorithm: &'static str,
    /// Number of vertices of the input graph.
    pub input_vertices: usize,
    /// Number of edges of the input graph.
    pub input_edges: usize,
    /// Number of edges in the produced spanner.
    pub spanner_edges: usize,
    /// Number of calls to the Length-Bounded Cut decision subroutine
    /// (one per input edge for the modified greedy; 0 for other algorithms).
    pub lbc_calls: usize,
    /// Number of BFS traversals executed across all LBC calls.
    pub bfs_runs: usize,
    /// Number of fault sets enumerated (exact greedy only).
    pub fault_sets_enumerated: usize,
    /// Wall-clock construction time.
    pub elapsed: Duration,
}

impl SpannerStats {
    /// Fraction of input edges kept in the spanner (`0` for an empty input).
    #[must_use]
    pub fn retention(&self) -> f64 {
        if self.input_edges == 0 {
            0.0
        } else {
            self.spanner_edges as f64 / self.input_edges as f64
        }
    }
}

/// The certificate recorded when the modified greedy algorithm decides to add
/// an edge: the fault set returned by the LBC approximation, which witnesses
/// that the edge was not yet `(2k − 1)`-spanned against `f` faults.
///
/// These are exactly the sets `F_e` of the paper's Lemma 6, from which the
/// `(2k)`-blocking set is built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeCertificate {
    /// Identifier of the edge in the *input* graph `G`.
    pub input_edge: EdgeId,
    /// Identifier of the same edge in the produced spanner `H`.
    pub spanner_edge: EdgeId,
    /// The cut `F_e` returned by the LBC subroutine at the moment the edge
    /// was added (size at most `f · (2k − 2)` for vertex faults).
    pub cut: FaultSet,
}

/// Result of a spanner construction: the spanner itself, the parameters it
/// was built for, run statistics, and (optionally) per-edge certificates.
#[derive(Clone, Debug)]
pub struct SpannerResult {
    /// The constructed spanner `H`, on the same vertex set as the input.
    pub spanner: Graph,
    /// The parameters the construction targeted.
    pub params: SpannerParams,
    /// Instrumentation counters.
    pub stats: SpannerStats,
    /// Certificates for each added edge, when requested (modified greedy
    /// only); empty otherwise.
    pub certificates: Vec<EdgeCertificate>,
}

impl SpannerResult {
    /// Number of edges in the spanner.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.spanner.edge_count()
    }

    /// Convenience accessor for the spanner graph.
    #[must_use]
    pub fn spanner(&self) -> &Graph {
        &self.spanner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_handles_empty_input() {
        let stats = SpannerStats::default();
        assert_eq!(stats.retention(), 0.0);
        let stats = SpannerStats {
            input_edges: 10,
            spanner_edges: 4,
            ..SpannerStats::default()
        };
        assert!((stats.retention() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn stats_default_is_zeroed() {
        let stats = SpannerStats::default();
        assert_eq!(stats.lbc_calls, 0);
        assert_eq!(stats.bfs_runs, 0);
        assert_eq!(stats.elapsed, Duration::ZERO);
    }
}
