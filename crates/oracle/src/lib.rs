//! # ftspan-oracle
//!
//! A fault-tolerant **query-serving engine** over the spanners built by the
//! [`ftspan`] crate: the layer that turns "construct and verify offline" into
//! an online system answering distance and path queries under failures.
//!
//! The constructions of Dinitz & Robelle (PODC 2020) guarantee that a
//! `(2k − 1)`-spanner `H` of `G` keeps
//! `d_{H∖F}(u, v) ≤ (2k − 1) · d_{G∖F}(u, v)` for every fault set `|F| ≤ f`.
//! The [`FaultOracle`] serves exactly those queries:
//!
//! * [`FaultOracle::distance`] / [`FaultOracle::path`] answer single queries
//!   on `H ∖ F` for an arbitrary fault set `F`, backed by an LRU
//!   [`cache`] of per-fault-set shortest-path trees keyed by
//!   the `O(|F|)` fingerprint from `ftspan-graph`;
//! * [`FaultOracle::answer_batch`] answers a mixed query batch in request
//!   order on the calling thread, exactly as [`FaultOracle::answer`] would
//!   answer each query in turn, reusing the thread's Dijkstra scratch
//!   buffers and the shared tree cache;
//! * [`FaultOracle::apply_wave`] drives **churn**: permanent damage arrives
//!   as fault waves, broken stretch pairs are detected around the damage,
//!   and the spanner is repaired by re-running the modified greedy on the
//!   affected neighbourhood only ([`ftspan::repair`]), escalating to a full
//!   warm-start respan when local repair is insufficient;
//! * [`ShardedOracle`] scales the whole stack past one working set: a
//!   deterministic [`ShardPlan`] (exponential-shift clusters packed into
//!   balanced shards) serves each shard from its own `FaultOracle` over the
//!   shard's core plus a `2k − 1` halo, stitches cross-shard queries through
//!   the [`BoundaryIndex`]'s portals, and falls back to a global oracle only
//!   when locality cannot be certified — so sharded answers are *identical*
//!   to single-oracle answers (see the [`shard`] module docs);
//! * both backends implement the [`SpannerOracle`] trait — one algorithmic
//!   interface (queries, batches, waves, unified [`ServiceMetrics`]) with an
//!   exactness contract (see the [`traits`] module docs) — and the
//!   [`OracleService`] front-end is written once against it: a non-blocking
//!   submit / pump / drain request loop in which one round answers every
//!   request queued ahead of the next wave, with per-fault-set **request
//!   coalescing**, a pending-queue cap as the one overload guard, and waves
//!   as FIFO barriers ([`OracleService::submit_wave`]).
//!
//! ## Example
//!
//! ```
//! use ftspan::{FaultSet, SpannerParams};
//! use ftspan_graph::{generators, vid};
//! use ftspan_oracle::{FaultOracle, OracleOptions, Query};
//!
//! let mut rng = rand::thread_rng();
//! let graph = generators::connected_gnp(40, 0.2, &mut rng);
//! let params = SpannerParams::vertex(2, 1);
//! let oracle = FaultOracle::build(graph, params, OracleOptions::default());
//!
//! // A single query under one vertex fault.
//! let faults = FaultSet::vertices([vid(3)]);
//! let d = oracle.distance(vid(0), vid(1), &faults);
//! assert!(d.is_some());
//!
//! // A small batch; answers come back in request order.
//! let batch = vec![
//!     Query::distance(vid(0), vid(5), faults.clone()),
//!     Query::path(vid(5), vid(9), faults.clone()),
//! ];
//! let answers = oracle.answer_batch(&batch);
//! assert_eq!(answers.len(), 2);
//!
//! // Or put the oracle behind the service front-end: submit / drain /
//! // wave / snapshot, with coalescing built in.
//! use ftspan_oracle::{OracleService, ServiceConfig};
//! let mut service = OracleService::new(oracle, ServiceConfig::default());
//! let ticket = service.submit(Query::distance(vid(0), vid(5), faults));
//! service.drain();
//! assert!(service.answer(ticket).is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod boundary;
pub mod cache;
pub mod chaos;
pub mod churn;
pub mod hierarchy;
pub mod metrics;
mod oracle;
pub mod query;
pub mod repair;
pub mod replication;
pub mod service;
pub mod shard;
pub mod snapshot;
pub mod traits;

pub use boundary::{BoundaryIndex, CutEdge};
pub use cache::{CacheKey, CachedTree, TreeCache};
pub use churn::{ChurnConfig, ShardWaveOutcome, WaveOutcome, WaveReport};
pub use hierarchy::{HierarchicalOptions, HierarchicalOracle};
pub use metrics::{LocalitySplit, MetricsSnapshot, OracleMetrics, ServiceMetrics};
pub use oracle::{FaultOracle, OracleOptions};
pub use query::{Answer, Query, QueryKind};
pub use replication::{JournalEntry, Replica, ReplicationError, WaveJournal};
pub use service::{
    EpochHandle, OracleService, PumpOutcome, ServiceConfig, ServiceJournal, TicketId, TicketState,
};
pub use shard::{
    ShardPlan, ShardPlanOptions, ShardedMetrics, ShardedMetricsSnapshot, ShardedOptions,
    ShardedOracle,
};
pub use snapshot::{Snapshot, SnapshotError, SnapshotKind, Snapshottable};
pub use traits::SpannerOracle;
