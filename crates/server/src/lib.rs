//! # ftspan-server — a wire-protocol surface for the fault-tolerant oracles
//!
//! This crate puts the [`OracleService`](ftspan_oracle::OracleService)
//! front-end behind a TCP socket, using nothing beyond `std`: a
//! checksummed, length-prefixed binary protocol (`u32` little-endian frame
//! length, `u64` FNV-1a body checksum, then the frame body — see
//! [`protocol`]), a blocking accept loop, and one handler thread per
//! connection that submits straight into the shared concurrent
//! `OracleService` core and waits on its tickets. Waiting handlers run the
//! service's rounds themselves, concurrently against the epoch-published
//! backend, so cross-connection duplicate queries coalesce in the shared
//! admission queue just like same-batch duplicates do — with no
//! single-threaded service loop and no worker pool in the middle.
//!
//! ## Request set
//!
//! | opcode | request | reply |
//! |---|---|---|
//! | `1` | `DIST u v faults` | distance (or shed) |
//! | `2` | `PATH u v faults` | distance + witness path (or shed) |
//! | `3` | `BATCH queries…` | per-entry answer-or-shed, request order |
//! | `4` | `WAVE faults` | repair summary after the wave lands |
//! | `5` | `METRICS` | Prometheus text exposition |
//! | `6` | `SNAPSHOT` | warm-restart snapshot, streamed in bounded chunks |
//! | `7` | `JOURNAL_SUBSCRIBE from_epoch` | journal-entry stream (replication feed) |
//! | `8` | `PROMOTE` | promoted epoch (replica → primary) |
//!
//! Load shedding is explicit: a rate-limited or admission-shed request gets
//! a [`Reply::Shed`] with a reason code, never a silent drop. Malformed
//! frames, corrupt (checksum-failing) frames, and out-of-range vertex ids
//! get a [`Reply::Error`] and the connection stays usable.
//!
//! ## Replication
//!
//! Determinism makes read replicas cheap: a [`ReplicaServer`] bootstraps
//! from a primary's `SNAPSHOT`, subscribes to its wave journal, and
//! replays each entry through the same `apply_wave` — converging to
//! byte-identical state with per-entry digest verification (see
//! [`ftspan_oracle::replication`]). A replica serves reads at its local
//! epoch and rejects `WAVE`s until a `PROMOTE` makes it the new primary —
//! the failover drill the `replication_failover` suite runs under the
//! chaos proxy.
//!
//! ## Modules
//!
//! - [`protocol`] — frame codec and the request/reply model.
//! - [`server`] — the threaded server; [`Server::shutdown`] drains and
//!   hands the warm service back (ready for
//!   [`Snapshot::capture`](ftspan_oracle::Snapshot)). Stalled
//!   connections are shed via [`ServerConfig::read_timeout`]; clients pull
//!   snapshots with the `SNAPSHOT` request.
//! - [`replica`] — the snapshot-bootstrapped, journal-following
//!   [`ReplicaServer`].
//! - [`client`] — a minimal blocking [`Client`] for tests, benches, and
//!   tooling.
//! - [`chaos`] — a fault-injecting [`ChaosProxy`] for wire-level
//!   degradation drills: mid-frame disconnects, slow-loris stalls,
//!   truncated replies, and in-flight byte corruption.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod client;
pub mod protocol;
pub mod replica;
pub mod server;

pub use chaos::{ChaosProxy, ProxyFault, ProxyPlan};
pub use client::Client;
pub use protocol::{
    BatchEntry, Frame, Reply, Request, ShedReason, WaveSummary, WireAnswer, MAX_FRAME_LEN,
};
pub use replica::ReplicaServer;
pub use server::{Server, ServerConfig};
