//! Shared driver for the service examples.
//!
//! `oracle_service` and `sharded_service` used to carry two hand-rolled
//! copies of the same loop (waves, batch submission, throughput and stretch
//! accounting). With the [`SpannerOracle`] trait and the [`OracleService`]
//! front-end there is exactly one driver, written once and parameterized by
//! backend and traffic shape; the bins only build an oracle, pick a
//! [`ServiceConfig`], and describe their traffic.

use std::time::Instant;

use ftspan::{sample_fault_set, FaultModel};
use ftspan_graph::dijkstra::DijkstraScratch;
use ftspan_oracle::{OracleService, Query, ServiceConfig, SpannerOracle, TicketId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shape of one service demo run.
#[derive(Clone, Copy, Debug)]
pub struct DemoConfig {
    /// Traffic bursts to serve (a fault wave lands before every burst but
    /// the first).
    pub waves: usize,
    /// Vertices failing permanently per wave.
    pub wave_size: usize,
    /// RNG seed for waves (traffic draws from the same stream).
    pub seed: u64,
}

/// Runs the full demo — rolling waves, bursty traffic through the
/// [`OracleService`], a sampled stretch audit against exact distances in
/// the surviving network — and prints the service summary. Returns the
/// final unified metrics so the caller can print backend-specific extras.
///
/// `traffic` produces one burst of queries given the backend (for sizing
/// and locality) and the shared RNG.
pub fn run_service_demo<O, F>(
    oracle: O,
    config: ServiceConfig,
    demo: DemoConfig,
    mut traffic: F,
) -> ftspan_oracle::ServiceMetrics
where
    O: SpannerOracle + 'static,
    F: FnMut(&O, &mut StdRng) -> Vec<Query>,
{
    let mut rng = StdRng::seed_from_u64(demo.seed);
    let stretch_bound = oracle.stretch_bound();
    let service = OracleService::new(oracle, config);
    let mut scratch = DijkstraScratch::new();
    let mut total_queries = 0usize;
    let mut total_secs = 0.0f64;
    let mut max_stretch = 0.0f64;
    let mut audits = 0usize;

    for wave_no in 0..demo.waves {
        if wave_no > 0 {
            // Permanent damage goes through the same front door as queries;
            // the wave is a FIFO barrier, so the burst below is served
            // entirely against the repaired spanner.
            let wave = sample_fault_set(
                service.oracle().graph(),
                FaultModel::Vertex,
                demo.wave_size,
                &[],
                &mut rng,
            );
            let ticket = service.submit_wave(wave);
            service.drain();
            let report = service.wave_report(ticket).expect("wave applied by drain");
            println!(
                "wave {wave_no}: {} failed, {} broken pairs, {} edges repaired{}; \
                 rebuilt lanes {:?}{} in {:.2}s",
                report.outcome.wave.len(),
                report.outcome.broken_pairs.len(),
                report.outcome.edges_added,
                if report.outcome.escalated {
                    " (escalated)"
                } else {
                    ""
                },
                report.rebuilt_lanes,
                if report.severed_pairs.is_empty() {
                    String::new()
                } else {
                    format!("; severed shard pairs {:?}", report.severed_pairs)
                },
                report.outcome.elapsed.as_secs_f64(),
            );
        }

        let queries = {
            // Epoch handles pin the published epoch; keep this one scoped
            // so the inline wave barrier above can take exclusive access.
            let epoch = service.oracle();
            traffic(&epoch, &mut rng)
        };
        let start = Instant::now();
        let tickets: Vec<TicketId> = service.submit_batch_ref(&queries);
        let outcome = service.drain();
        let secs = start.elapsed().as_secs_f64();
        total_queries += outcome.answered;
        total_secs += secs;

        // Audit a sample of answers against exact distances in G ∖ F.
        {
            let epoch = service.oracle();
            for (query, ticket) in queries.iter().zip(&tickets).step_by(97) {
                // Shed tickets never reached the backend; nothing to audit.
                let Some(answer) = service.answer(*ticket) else {
                    continue;
                };
                let Some(d_h) = answer.distance() else {
                    continue;
                };
                let view = query.faults.apply(epoch.graph());
                let tree = scratch.shortest_path_tree(&view, query.u);
                if let Some(d_g) = tree.distance_to(query.v) {
                    if d_g > 0.0 {
                        max_stretch = max_stretch.max(d_h / d_g);
                        audits += 1;
                    }
                }
            }
        }

        println!(
            "burst {wave_no}: {} answered in {:.2}s ({:.0} queries/s), \
             {} coalesced, {} shed",
            outcome.answered,
            secs,
            outcome.answered as f64 / secs,
            outcome.coalesced,
            outcome.shed,
        );
        service.recycle();
    }

    let metrics = service.metrics();
    println!();
    println!("== service summary ==");
    println!(
        "throughput:       {:.0} queries/s over {} answered ({} submitted)",
        total_queries as f64 / total_secs,
        total_queries,
        metrics.submitted,
    );
    println!(
        "front-end:        {} coalesced away, {} shed, {} pump rounds",
        metrics.coalesced, metrics.shed, metrics.rounds
    );
    println!(
        "cache:            {:.1}% hit rate ({} trees built for {} backend queries)",
        100.0 * metrics.hit_rate(),
        metrics.trees_built,
        metrics.queries,
    );
    if let Some(split) = &metrics.locality {
        println!(
            "locality:         {:.1}% ({} local, {} stitched, {} fallbacks)",
            100.0 * split.locality_rate(),
            split.local,
            split.stitched,
            split.global_fallbacks,
        );
    }
    println!(
        "churn:            {} waves applied through the service",
        metrics.waves
    );
    println!(
        "max stretch:      {max_stretch:.2} over {audits} audited answers (bound: {stretch_bound})"
    );
    assert!(
        max_stretch <= stretch_bound + 1e-9,
        "stretch bound violated"
    );
    metrics
}
