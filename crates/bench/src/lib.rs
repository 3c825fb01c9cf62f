//! Shared workload generation and measurement helpers for the
//! `experiments` table harness.

use std::time::Instant;

use ftspan_graph::{generators, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Deterministic RNG for a named experiment.
#[must_use]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The standard unweighted workload used across experiments: a connected
/// Erdős–Rényi graph with expected average degree `avg_degree`.
#[must_use]
pub fn gnp_workload(n: usize, avg_degree: f64, seed: u64) -> Graph {
    let mut r = rng(seed);
    let p = (avg_degree / (n.max(2) as f64 - 1.0)).min(1.0);
    generators::connected_gnp(n, p, &mut r)
}

/// The standard weighted workload: a random geometric graph with Euclidean
/// edge weights and the given connection radius.
#[must_use]
pub fn geometric_workload(n: usize, radius: f64, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut g = generators::random_geometric(n, radius, &mut r);
    generators::overlay_random_spanning_tree(&mut g, &mut r);
    g
}

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Formats a markdown table from a header and rows, used by the experiment
/// harness so its output can be pasted into docs verbatim.
#[must_use]
pub fn markdown_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&header.join(" | "));
    out.push_str(" |\n|");
    for _ in header {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan_graph::traversal::is_connected;

    #[test]
    fn gnp_workload_is_connected_and_sized() {
        let g = gnp_workload(50, 6.0, 1);
        assert_eq!(g.vertex_count(), 50);
        assert!(is_connected(&g));
        assert!(g.edge_count() >= 49);
    }

    #[test]
    fn geometric_workload_is_connected_and_weighted() {
        let g = geometric_workload(60, 0.2, 2);
        assert!(is_connected(&g));
        assert!(g.edge_count() >= 59);
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert_eq!(t.lines().count(), 3);
    }

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }
}
