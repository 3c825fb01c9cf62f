//! # ftspan-graph
//!
//! Graph substrate for the `ftspan` fault-tolerant spanner workspace.
//!
//! The crate provides the pieces that the spanner algorithms of
//! Dinitz & Robelle (PODC 2020) are built on:
//!
//! * [`Graph`] — an undirected simple graph with optional weights, stored as
//!   an adjacency list with dense [`VertexId`]/[`EdgeId`] identifiers.
//! * [`FaultView`] — a view of `G \ F` for a growing set of vertex and/or
//!   edge faults, which copies no adjacency but allocates one flag per
//!   vertex and per edge; it sits behind the [`GraphView`] trait that all
//!   traversal algorithms are generic over.
//! * [`bfs`] / [`dijkstra`] — hop-bounded breadth-first search (the inner
//!   primitive of the paper's Length-Bounded Cut approximation) and weighted
//!   shortest paths (used by the spanner verifier).
//! * [`traversal`] / [`girth`] / [`metrics`] — connectivity, girth, and
//!   summary statistics used by the analyses and the experiment harness.
//! * [`cluster`] — exponential-shift (Miller–Peng–Xu) low-diameter
//!   clustering in one sequential pass, the basis of shard planning.
//! * [`generators`] — deterministic, seedable random-graph workloads.
//! * [`io`] — plain-text edge-list serialization.
//! * [`wire`] — compact binary encoding with bit-exact weights, the
//!   substrate of oracle snapshots and the `ftspan-server` protocol.
//!
//! ## Example
//!
//! ```
//! use ftspan_graph::{bfs, vid, FaultView, Graph, GraphView};
//!
//! // A 4-cycle with a chord.
//! let mut g = Graph::new(4);
//! g.add_unit_edge(0, 1);
//! g.add_unit_edge(1, 2);
//! g.add_unit_edge(2, 3);
//! g.add_unit_edge(3, 0);
//! g.add_unit_edge(0, 2);
//!
//! // Distances from v1 in G and in G \ {v0}.
//! assert_eq!(bfs::bfs_hop_distances(&g, vid(1))[3], Some(2));
//! let mut faulted = FaultView::new(&g);
//! faulted.block_vertex(vid(0));
//! assert!(!faulted.contains_vertex(vid(0)));
//! assert_eq!(bfs::bfs_hop_distances(&faulted, vid(1))[3], Some(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bfs;
pub mod cluster;
pub mod dijkstra;
mod edge;
mod epoch;
mod error;
pub mod generators;
pub mod girth;
mod graph;
mod ids;
pub mod io;
pub mod metrics;
pub mod traversal;
mod view;
pub mod wire;

pub use edge::Edge;
pub use epoch::EpochMarks;
pub use error::{GraphError, Result};
pub use graph::{Graph, GraphBuilder};
pub use ids::{eid, vid, EdgeId, IdRemap, VertexId};
pub use view::{fault_fingerprint, FaultScratch, FaultView, GraphView, ScratchFaultView};
pub use wire::{fnv1a64, WireError, WireReader, WireWriter};
