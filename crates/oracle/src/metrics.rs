//! Serving metrics: lock-free counters the oracle updates on every query.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters describing an oracle's lifetime, safe to update from
/// every worker thread concurrently.
#[derive(Debug, Default)]
pub struct OracleMetrics {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    trees_built: AtomicU64,
    batches: AtomicU64,
    waves_applied: AtomicU64,
    repairs_escalated: AtomicU64,
    edges_added_by_repair: AtomicU64,
}

impl OracleMetrics {
    pub(crate) fn record_query(&self, cache_hit: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    pub(crate) fn record_tree_built(&self) {
        self.trees_built.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_wave(&self, edges_added: u64, escalated: bool) {
        self.waves_applied.fetch_add(1, Ordering::Relaxed);
        self.edges_added_by_repair
            .fetch_add(edges_added, Ordering::Relaxed);
        if escalated {
            self.repairs_escalated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every counter.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries: self.queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            trees_built: self.trees_built.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            waves_applied: self.waves_applied.load(Ordering::Relaxed),
            repairs_escalated: self.repairs_escalated.load(Ordering::Relaxed),
            edges_added_by_repair: self.edges_added_by_repair.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of [`OracleMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total queries served (single and batched).
    pub queries: u64,
    /// Queries answered from a cached shortest-path tree.
    pub cache_hits: u64,
    /// Queries that had to compute a tree (or ran with caching disabled).
    pub cache_misses: u64,
    /// Shortest-path trees computed.
    pub trees_built: u64,
    /// Batch calls served.
    pub batches: u64,
    /// Fault waves applied through the churn loop.
    pub waves_applied: u64,
    /// Waves whose local repair had to escalate to a full respan.
    pub repairs_escalated: u64,
    /// Spanner edges added by repair across all waves.
    pub edges_added_by_repair: u64,
}

impl MetricsSnapshot {
    /// Fraction of queries served from cache (0 when nothing was served).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }
}

/// The sharded locality split of a [`ServiceMetrics`] view: how routed
/// traffic was served. Present only for backends that route (the single
/// oracle has nothing to route).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalitySplit {
    /// Queries answered from a single shard's region.
    pub local: u64,
    /// Cross-shard queries answered from a stitched pair region.
    pub stitched: u64,
    /// Queries that fell back to the global oracle.
    pub global_fallbacks: u64,
}

impl LocalitySplit {
    /// Fraction of routed queries served without touching the global
    /// oracle (0 when nothing was routed).
    #[must_use]
    pub fn locality_rate(&self) -> f64 {
        let total = self.local + self.stitched + self.global_fallbacks;
        if total == 0 {
            0.0
        } else {
            (self.local + self.stitched) as f64 / total as f64
        }
    }
}

/// The unified metrics view every serving surface reports — one shape for
/// dashboards regardless of backend or front-end.
///
/// [`MetricsSnapshot`] and
/// [`ShardedMetricsSnapshot`](crate::ShardedMetricsSnapshot) describe the
/// two backends in their own vocabulary; `ServiceMetrics` is the common
/// projection both map onto via
/// [`SpannerOracle::service_metrics`](crate::SpannerOracle::service_metrics).
/// Backend fields (`queries`, `cache_hits`, …) are filled by the oracle;
/// front-end fields (`submitted`, `coalesced`, `shed`, `rounds`) are zero
/// until an [`OracleService`](crate::service::OracleService) fills them in
/// from its own counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Queries the backend answered (single and batched).
    pub queries: u64,
    /// Queries served from a cached shortest-path tree. For a sharded
    /// backend this aggregates the global oracle, every shard region, and
    /// the live pair regions.
    pub cache_hits: u64,
    /// Shortest-path trees computed (same aggregation).
    pub trees_built: u64,
    /// Batch calls the backend served.
    pub batches: u64,
    /// Fault waves applied.
    pub waves: u64,
    /// How routed traffic was served; `None` for backends that do not
    /// route (the single oracle).
    pub locality: Option<LocalitySplit>,
    /// Requests submitted to the service front-end (including shed ones).
    pub submitted: u64,
    /// Requests the front-end completed with an answer.
    pub answered: u64,
    /// Duplicate requests coalesced away before reaching the backend.
    pub coalesced: u64,
    /// Requests shed on arrival because the pending queue was full
    /// ([`ServiceConfig::max_pending`](crate::ServiceConfig::max_pending)).
    pub shed: u64,
    /// Front-end pump rounds executed.
    pub rounds: u64,
    /// Total microseconds spent recovering from fault waves
    /// (submit-barrier drain, repair, and epoch publication included) —
    /// the cumulative degradation cost of churn.
    pub wave_recovery_micros: u64,
    /// Microseconds the most recent wave took to recover — what an
    /// operator watches during an incident.
    pub last_wave_recovery_micros: u64,
}

impl ServiceMetrics {
    /// Fraction of backend queries served from cache (0 when nothing was
    /// served).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Locality rate where applicable (`None` for non-routing backends).
    #[must_use]
    pub fn locality_rate(&self) -> Option<f64> {
        self.locality.as_ref().map(LocalitySplit::locality_rate)
    }

    /// Renders the metrics as Prometheus-style exposition text — the body
    /// the `ftspan-server` `METRICS` endpoint returns.
    ///
    /// The format is **stable** (pinned by a unit test): counters first, the
    /// derived gauges after, and the locality block only for routing
    /// backends. Ratios are printed with six decimals; every line
    /// ends in `\n`.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(1024);
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            &mut out,
            "ftspan_queries_total",
            "Queries the backend answered.",
            self.queries,
        );
        counter(
            &mut out,
            "ftspan_cache_hits_total",
            "Queries served from a cached shortest-path tree.",
            self.cache_hits,
        );
        counter(
            &mut out,
            "ftspan_trees_built_total",
            "Shortest-path trees computed.",
            self.trees_built,
        );
        counter(
            &mut out,
            "ftspan_batches_total",
            "Batch calls the backend served.",
            self.batches,
        );
        counter(
            &mut out,
            "ftspan_waves_total",
            "Fault waves applied.",
            self.waves,
        );
        counter(
            &mut out,
            "ftspan_submitted_total",
            "Requests submitted to the service front-end.",
            self.submitted,
        );
        counter(
            &mut out,
            "ftspan_answered_total",
            "Requests completed with an answer.",
            self.answered,
        );
        counter(
            &mut out,
            "ftspan_coalesced_total",
            "Duplicate requests coalesced before the backend.",
            self.coalesced,
        );
        counter(
            &mut out,
            "ftspan_shed_total",
            "Requests shed by admission control.",
            self.shed,
        );
        counter(
            &mut out,
            "ftspan_rounds_total",
            "Front-end pump rounds executed.",
            self.rounds,
        );
        counter(
            &mut out,
            "ftspan_wave_recovery_micros_total",
            "Microseconds spent recovering from fault waves.",
            self.wave_recovery_micros,
        );
        let _ = writeln!(
            out,
            "# HELP ftspan_last_wave_recovery_micros Recovery time of the most recent wave."
        );
        let _ = writeln!(out, "# TYPE ftspan_last_wave_recovery_micros gauge");
        let _ = writeln!(
            out,
            "ftspan_last_wave_recovery_micros {}",
            self.last_wave_recovery_micros
        );
        let _ = writeln!(
            out,
            "# HELP ftspan_cache_hit_ratio Fraction of queries served from cache."
        );
        let _ = writeln!(out, "# TYPE ftspan_cache_hit_ratio gauge");
        let _ = writeln!(out, "ftspan_cache_hit_ratio {:.6}", self.hit_rate());
        if let Some(split) = &self.locality {
            counter(
                &mut out,
                "ftspan_locality_local_total",
                "Queries answered from a single shard region.",
                split.local,
            );
            counter(
                &mut out,
                "ftspan_locality_stitched_total",
                "Cross-shard queries answered from a stitched pair region.",
                split.stitched,
            );
            counter(
                &mut out,
                "ftspan_locality_global_fallbacks_total",
                "Queries that fell back to the global oracle.",
                split.global_fallbacks,
            );
            let _ = writeln!(
                out,
                "# HELP ftspan_locality_rate Fraction of routed queries served without the global oracle."
            );
            let _ = writeln!(out, "# TYPE ftspan_locality_rate gauge");
            let _ = writeln!(out, "ftspan_locality_rate {:.6}", split.locality_rate());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = OracleMetrics::default();
        m.record_query(true);
        m.record_query(false);
        m.record_query(true);
        m.record_tree_built();
        m.record_batch();
        m.record_wave(4, true);
        m.record_wave(0, false);
        let s = m.snapshot();
        assert_eq!(s.queries, 3);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.trees_built, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.waves_applied, 2);
        assert_eq!(s.repairs_escalated, 1);
        assert_eq!(s.edges_added_by_repair, 4);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_hit_rate_is_zero() {
        assert_eq!(OracleMetrics::default().snapshot().hit_rate(), 0.0);
    }

    #[test]
    fn service_metrics_rates() {
        let mut m = ServiceMetrics {
            queries: 10,
            cache_hits: 4,
            ..ServiceMetrics::default()
        };
        assert!((m.hit_rate() - 0.4).abs() < 1e-12);
        assert_eq!(m.locality_rate(), None, "single oracle has no locality");
        m.locality = Some(LocalitySplit {
            local: 6,
            stitched: 2,
            global_fallbacks: 2,
        });
        assert!((m.locality_rate().unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(ServiceMetrics::default().hit_rate(), 0.0);
        assert_eq!(LocalitySplit::default().locality_rate(), 0.0);
    }

    /// Pins the Prometheus exposition format byte for byte. Dashboards and
    /// scrapers parse these lines — any change here is a breaking change to
    /// the `METRICS` endpoint and must be deliberate.
    #[test]
    fn prometheus_rendering_is_pinned() {
        let metrics = ServiceMetrics {
            queries: 123,
            cache_hits: 100,
            trees_built: 23,
            batches: 4,
            waves: 2,
            locality: None,
            submitted: 130,
            answered: 123,
            coalesced: 5,
            shed: 2,
            rounds: 7,
            wave_recovery_micros: 8150,
            last_wave_recovery_micros: 4075,
        };
        let text = metrics.render_prometheus();
        let expected = "\
# HELP ftspan_queries_total Queries the backend answered.
# TYPE ftspan_queries_total counter
ftspan_queries_total 123
# HELP ftspan_cache_hits_total Queries served from a cached shortest-path tree.
# TYPE ftspan_cache_hits_total counter
ftspan_cache_hits_total 100
# HELP ftspan_trees_built_total Shortest-path trees computed.
# TYPE ftspan_trees_built_total counter
ftspan_trees_built_total 23
# HELP ftspan_batches_total Batch calls the backend served.
# TYPE ftspan_batches_total counter
ftspan_batches_total 4
# HELP ftspan_waves_total Fault waves applied.
# TYPE ftspan_waves_total counter
ftspan_waves_total 2
# HELP ftspan_submitted_total Requests submitted to the service front-end.
# TYPE ftspan_submitted_total counter
ftspan_submitted_total 130
# HELP ftspan_answered_total Requests completed with an answer.
# TYPE ftspan_answered_total counter
ftspan_answered_total 123
# HELP ftspan_coalesced_total Duplicate requests coalesced before the backend.
# TYPE ftspan_coalesced_total counter
ftspan_coalesced_total 5
# HELP ftspan_shed_total Requests shed by admission control.
# TYPE ftspan_shed_total counter
ftspan_shed_total 2
# HELP ftspan_rounds_total Front-end pump rounds executed.
# TYPE ftspan_rounds_total counter
ftspan_rounds_total 7
# HELP ftspan_wave_recovery_micros_total Microseconds spent recovering from fault waves.
# TYPE ftspan_wave_recovery_micros_total counter
ftspan_wave_recovery_micros_total 8150
# HELP ftspan_last_wave_recovery_micros Recovery time of the most recent wave.
# TYPE ftspan_last_wave_recovery_micros gauge
ftspan_last_wave_recovery_micros 4075
# HELP ftspan_cache_hit_ratio Fraction of queries served from cache.
# TYPE ftspan_cache_hit_ratio gauge
ftspan_cache_hit_ratio 0.813008
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_rendering_includes_locality_for_routing_backends() {
        let metrics = ServiceMetrics {
            queries: 10,
            locality: Some(LocalitySplit {
                local: 6,
                stitched: 2,
                global_fallbacks: 2,
            }),
            ..ServiceMetrics::default()
        };
        let text = metrics.render_prometheus();
        assert!(text.contains("ftspan_locality_local_total 6\n"));
        assert!(text.contains("ftspan_locality_stitched_total 2\n"));
        assert!(text.contains("ftspan_locality_global_fallbacks_total 2\n"));
        assert!(text.contains("ftspan_locality_rate 0.800000\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split(' ').count(), 2, "bad exposition line: {line}");
        }
    }
}
