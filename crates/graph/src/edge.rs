//! Undirected edges with optional weights.

use core::fmt;

use crate::VertexId;

/// An undirected edge `{u, v}` with a non-negative weight.
///
/// Unweighted graphs are represented with every weight equal to `1.0`; the
/// spanner algorithms in the `ftspan` crate check
/// [`Graph::is_unit_weighted`](crate::Graph::is_unit_weighted) when they need
/// to distinguish the two cases.
///
/// # Examples
///
/// ```
/// use ftspan_graph::{vid, Edge};
///
/// let e = Edge::new(vid(0), vid(3), 2.5);
/// assert_eq!(e.endpoints(), (vid(0), vid(3)));
/// assert!(e.is_incident_to(vid(3)));
/// assert_eq!(e.weight(), 2.5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    u: VertexId,
    v: VertexId,
    weight: f64,
}

impl Edge {
    /// Creates a new edge between `u` and `v` with the given weight.
    ///
    /// Endpoints are stored in normalized order (smaller identifier first) so
    /// that `Edge::new(a, b, w) == Edge::new(b, a, w)`.
    #[must_use]
    pub fn new(u: VertexId, v: VertexId, weight: f64) -> Self {
        let (u, v) = if u <= v { (u, v) } else { (v, u) };
        Self { u, v, weight }
    }

    /// Creates a unit-weight edge between `u` and `v`.
    #[must_use]
    pub fn unit(u: VertexId, v: VertexId) -> Self {
        Self::new(u, v, 1.0)
    }

    /// Returns both endpoints, smaller identifier first.
    #[inline]
    #[must_use]
    pub fn endpoints(&self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Returns the endpoint with the smaller identifier.
    #[inline]
    #[must_use]
    pub fn source(&self) -> VertexId {
        self.u
    }

    /// Returns the endpoint with the larger identifier.
    #[inline]
    #[must_use]
    pub fn target(&self) -> VertexId {
        self.v
    }

    /// Returns the weight of the edge.
    #[inline]
    #[must_use]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Returns `true` if `x` is one of the two endpoints.
    #[inline]
    #[must_use]
    pub fn is_incident_to(&self, x: VertexId) -> bool {
        self.u == x || self.v == x
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}} (w={})", self.u, self.v, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vid;

    #[test]
    fn endpoints_are_normalized() {
        let a = Edge::new(vid(5), vid(2), 1.0);
        let b = Edge::new(vid(2), vid(5), 1.0);
        assert_eq!(a, b);
        assert_eq!(a.endpoints(), (vid(2), vid(5)));
        assert_eq!(a.source(), vid(2));
        assert_eq!(a.target(), vid(5));
    }

    #[test]
    fn unit_edge_has_weight_one() {
        assert_eq!(Edge::unit(vid(0), vid(1)).weight(), 1.0);
    }

    #[test]
    fn incidence_checks_both_endpoints() {
        let e = Edge::new(vid(3), vid(7), 2.0);
        assert!(e.is_incident_to(vid(3)));
        assert!(e.is_incident_to(vid(7)));
        assert!(!e.is_incident_to(vid(4)));
    }

    #[test]
    fn display_mentions_both_endpoints_and_weight() {
        let e = Edge::new(vid(1), vid(2), 3.5);
        let s = format!("{e}");
        assert!(s.contains("v1"));
        assert!(s.contains("v2"));
        assert!(s.contains("3.5"));
    }
}
