//! # Chaos engineering for the serving stack
//!
//! Everything else in this crate is built to answer correctly; this module
//! is built to make that hard. It has two halves:
//!
//! * [`waves`] — deterministic **adversarial generators**: targeted
//!   high-degree and betweenness-proxy fault waves, portal-severing waves
//!   aimed at the [`BoundaryIndex`](crate::BoundaryIndex) (forcing the
//!   global-fallback path), correlated single-region faults, and Zipf
//!   flash-crowd query streams.
//! * [`harness`] — the **chaos harness**: scripts those generators into
//!   [`ScenarioPlan`]s, interleaves them round-robin against one live
//!   [`OracleService`](crate::OracleService), and after every round checks
//!   each answer bit-for-bit against a mirror oracle while measuring the
//!   degradation envelope (recovery time per wave, shed rate, fallback
//!   rate).
//!
//! The harness is test infrastructure with production manners: it runs
//! against the real service (its one scheduler, at any worker count), the
//! real admission control, and the real churn loop — nothing is mocked, so
//! a passed chaos run is evidence about the system that ships.

pub mod harness;
pub mod waves;

pub use harness::{run_chaos, ChaosReport, ChaosRound, ScenarioPlan, ScenarioReport};
pub use waves::{
    betweenness_proxy_wave, correlated_regional_wave, high_degree_wave, portal_severing_wave,
    weakest_boundary_pair, zipf_queries,
};
