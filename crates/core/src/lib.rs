//! # ftspan
//!
//! Efficient and simple algorithms for **fault-tolerant graph spanners**,
//! implementing Dinitz & Robelle, *"Efficient and Simple Algorithms for
//! Fault-Tolerant Spanners"*, PODC 2020, together with the baselines the
//! paper builds on and compares against.
//!
//! An *`f`-fault-tolerant `(2k − 1)`-spanner* of a graph `G` is a subgraph `H`
//! such that for every set `F` of at most `f` failed vertices (or edges) and
//! every surviving pair `u, v`,
//! `d_{H∖F}(u, v) ≤ (2k − 1) · d_{G∖F}(u, v)`.
//!
//! ## What is implemented
//!
//! | Construction | Entry point | Size | Time |
//! |---|---|---|---|
//! | Modified greedy (the paper's contribution, Algorithms 3/4) | [`poly_greedy_spanner`] | `O(k·f^{1−1/k}·n^{1+1/k})` | polynomial |
//! | Exact greedy [BDPW18, BP19] (Algorithm 1) | [`exact_greedy_spanner`] | `O(f^{1−1/k}·n^{1+1/k})` | exponential in `f` |
//! | Dinitz–Krauthgamer \[DK11\] | [`dk::dk_spanner`] | `O(f^{2−1/k}·n^{1+1/k}·log n)` | polynomial |
//! | Classical greedy [ADD+93] | [`nonft::greedy_spanner`] | `O(n^{1+1/k})` | polynomial |
//! | Baswana–Sen \[BS07\] | [`baswana_sen::baswana_sen_spanner`] | `O(k·n^{1+1/k})` | near-linear |
//!
//! plus the [`lbc`] Length-Bounded Cut approximation that powers the modified
//! greedy, a fault-tolerance [`verify`] checker, [`blocking`]-set analysis
//! tools (Lemma 6), warm-start [`repair`] hooks for online serving layers,
//! and closed-form reference [`bounds`] for every theorem.
//! Distributed (LOCAL / CONGEST) constructions live in the companion crate
//! `ftspan-distributed`; the online query-serving engine lives in
//! `ftspan-oracle`.
//!
//! ## Quick start
//!
//! ```
//! use ftspan::{poly_greedy_spanner, SpannerParams};
//! use ftspan::verify::{verify_spanner, VerificationMode};
//! use ftspan_graph::generators;
//!
//! // A dense random graph.
//! let mut rng = rand::thread_rng();
//! let graph = generators::connected_gnp(60, 0.3, &mut rng);
//!
//! // Build a 1-vertex-fault-tolerant 3-spanner in polynomial time.
//! let params = SpannerParams::vertex(2, 1);
//! let result = poly_greedy_spanner(&graph, params);
//! assert!(result.spanner.edge_count() <= graph.edge_count());
//!
//! // Spot-check the fault-tolerance property on sampled fault sets.
//! let report = verify_spanner(
//!     &graph,
//!     &result.spanner,
//!     params,
//!     VerificationMode::Sampled { samples: 20, seed: 1 },
//! );
//! assert!(report.is_valid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baswana_sen;
pub mod blocking;
pub mod bounds;
mod builder;
pub mod dk;
mod error;
mod fault;
pub mod greedy_exact;
pub mod greedy_par;
pub mod greedy_poly;
pub mod lbc;
pub mod nonft;
mod params;
pub mod repair;
mod stats;
pub mod verify;
pub mod wire;

pub use builder::{Algorithm, SpannerBuilder};
pub use error::{Result, SpannerError};
pub use fault::{
    count_fault_sets, enumerate_edge_fault_sets, enumerate_fault_sets, enumerate_vertex_fault_sets,
    sample_fault_set, FaultSet,
};
pub use greedy_exact::{exact_greedy_spanner, exact_greedy_spanner_with, ExactGreedyOptions};
pub use greedy_par::{
    par_poly_greedy_spanner_traced, par_poly_greedy_spanner_with, ParallelGreedyOptions,
    SpeculationStats,
};
pub use greedy_poly::{poly_greedy_spanner, poly_greedy_spanner_with, PolyGreedyOptions};
pub use params::{FaultModel, SpannerParams};
pub use stats::{EdgeCertificate, SpannerResult, SpannerStats};
