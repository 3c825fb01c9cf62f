//! # ftspan-distributed
//!
//! Distributed constructions of fault-tolerant spanners from Dinitz &
//! Robelle (PODC 2020), Section 5, executed on a synchronous round-based
//! simulator of the LOCAL and CONGEST models.
//!
//! * [`runtime`] — the round engine: per-edge message delivery, round
//!   counting, and CONGEST word-budget accounting.
//! * [`decomposition`] — padded network decomposition (Theorem 11) via
//!   distributed exponential-shift clustering.
//! * [`local_ft_spanner`] — the LOCAL-model construction (Theorem 12):
//!   decompose, gather each cluster at its center, run a centralized greedy,
//!   take the union. `O(log n)` rounds, size `O(f^{1−1/k} n^{1+1/k} log n)`.
//! * [`congest_baswana_sen`] — distributed Baswana–Sen (Theorem 14),
//!   `O(k²)` rounds with `O(1)`-word messages.
//! * [`congest_ft_spanner`] — the CONGEST-model fault-tolerant construction
//!   (Theorem 15): Dinitz–Krauthgamer sampling with all Baswana–Sen
//!   iterations scheduled in parallel.
//!
//! ## Example
//!
//! ```
//! use ftspan::SpannerParams;
//! use ftspan_distributed::{congest_ft_spanner, local_ft_spanner};
//! use ftspan_graph::generators;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let g = generators::connected_gnp(50, 0.15, &mut rng);
//! let params = SpannerParams::vertex(2, 1);
//!
//! let local = local_ft_spanner(&g, params, &mut rng);
//! let congest = congest_ft_spanner(&g, params, &mut rng);
//! assert!(local.spanner.edge_count() <= g.edge_count());
//! assert!(congest.result.spanner.edge_count() <= g.edge_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod congest_bs;
pub mod congest_ft;
pub mod decomposition;
pub mod local_spanner;
pub mod metrics;
pub mod runtime;

pub use congest_bs::congest_baswana_sen;
pub use congest_ft::{congest_ft_spanner, CongestFtResult};
pub use decomposition::{padded_decomposition, Decomposition, DecompositionOptions, Partition};
pub use local_spanner::{local_ft_spanner, DistributedSpannerResult};
pub use metrics::RoundStats;
