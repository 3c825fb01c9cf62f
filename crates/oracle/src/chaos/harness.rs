//! The chaos harness: interleaves adversarial scenarios against a live
//! [`OracleService`] while a mirror oracle checks every answer.
//!
//! A [`ScenarioPlan`] is a fully materialized script — per round, a query
//! burst and optionally a fault wave. [`run_chaos`] interleaves the rounds
//! of every plan round-robin against one shared service (so scenarios
//! stress each other the way mixed production traffic would), and after
//! every round enforces the exactness contract differentially: each
//! answered ticket must carry the **bit-identical** distance the mirror
//! oracle computes for the same query, and every witness path must be a
//! genuine walk of the published spanner with the answered length. Waves
//! are applied to the mirror through the same churn configuration the
//! service uses, so the two repaired spanners must stay in lockstep
//! (asserted by edge count after every wave).
//!
//! The harness records the degradation envelope as it runs: wall-clock
//! **recovery time** per wave (submit-to-publication, barrier included),
//! **shed rate** from the service's admission counters, and the
//! **global-fallback rate** for routing backends. Divergence panics with
//! the scenario name and round — a chaos run that returns is a passed run.

use std::time::{Duration, Instant};

use ftspan::FaultSet;

use crate::query::{Answer, Query};
use crate::service::{OracleService, TicketState};
use crate::traits::SpannerOracle;

/// One scripted round of a scenario: a query burst, then optionally a
/// permanent fault wave through the churn loop.
#[derive(Clone, Debug)]
pub struct ChaosRound {
    /// Queries submitted (as one batch) before the wave.
    pub queries: Vec<Query>,
    /// A fault wave to apply after the burst, if any.
    pub wave: Option<FaultSet>,
}

/// A named, fully materialized chaos scenario.
#[derive(Clone, Debug)]
pub struct ScenarioPlan {
    /// Scenario name, used in reports and divergence panics.
    pub name: String,
    /// The scripted rounds, executed in order (interleaved with the other
    /// plans' rounds by [`run_chaos`]).
    pub rounds: Vec<ChaosRound>,
}

impl ScenarioPlan {
    /// A plan where every round submits `queries` and applies no wave.
    #[must_use]
    pub fn queries_only(name: impl Into<String>, bursts: Vec<Vec<Query>>) -> Self {
        Self {
            name: name.into(),
            rounds: bursts
                .into_iter()
                .map(|queries| ChaosRound {
                    queries,
                    wave: None,
                })
                .collect(),
        }
    }
}

/// What one scenario did to the service, measured across its rounds.
#[derive(Clone, Debug, Default)]
pub struct ScenarioReport {
    /// Scenario name.
    pub name: String,
    /// Rounds executed.
    pub rounds: usize,
    /// Waves applied.
    pub waves: usize,
    /// Tickets submitted by this scenario's bursts.
    pub submitted: u64,
    /// Tickets answered.
    pub answered: u64,
    /// Tickets shed by admission control.
    pub shed: u64,
    /// Duplicate tickets coalesced before the backend.
    pub coalesced: u64,
    /// Global-fallback answers attributed to this scenario's rounds
    /// (routing backends only; `0` for the single oracle).
    pub global_fallbacks: u64,
    /// Total submit-to-publication wall clock across this scenario's waves.
    pub recovery: Duration,
    /// The slowest single wave.
    pub max_recovery: Duration,
    /// Spanner edges added by repair.
    pub edges_added: u64,
    /// Waves whose local repair escalated to a full respan.
    pub escalations: u64,
}

impl ScenarioReport {
    /// Fraction of submitted tickets shed (0 when nothing was submitted).
    #[must_use]
    fn shed_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.shed as f64 / self.submitted as f64
        }
    }

    /// Fraction of answered tickets that took the global-fallback path.
    #[must_use]
    pub fn fallback_rate(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.global_fallbacks as f64 / self.answered as f64
        }
    }

    /// Mean recovery time per wave (zero when no wave was applied).
    #[must_use]
    pub fn mean_recovery(&self) -> Duration {
        if self.waves == 0 {
            Duration::ZERO
        } else {
            self.recovery / u32::try_from(self.waves).unwrap_or(u32::MAX)
        }
    }
}

/// The full degradation envelope of one chaos run.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Per-scenario measurements, in plan order.
    pub scenarios: Vec<ScenarioReport>,
}

impl ChaosReport {
    /// Total tickets answered across all scenarios.
    #[must_use]
    pub fn total_answered(&self) -> u64 {
        self.scenarios.iter().map(|s| s.answered).sum()
    }

    /// Total waves applied across all scenarios.
    #[must_use]
    pub fn total_waves(&self) -> usize {
        self.scenarios.iter().map(|s| s.waves).sum()
    }

    /// The envelope as a GitHub-flavored markdown table (the shape the
    /// README's "Degradation envelope" section embeds).
    #[must_use]
    pub fn markdown_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "| scenario | rounds | waves | answered | shed rate | fallback rate | mean recovery | max recovery | edges added |"
        );
        let _ = writeln!(out, "|---|---:|---:|---:|---:|---:|---:|---:|---:|");
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.1}% | {:.1}% | {:.2} ms | {:.2} ms | {} |",
                s.name,
                s.rounds,
                s.waves,
                s.answered,
                s.shed_rate() * 100.0,
                s.fallback_rate() * 100.0,
                s.mean_recovery().as_secs_f64() * 1e3,
                s.max_recovery.as_secs_f64() * 1e3,
                s.edges_added,
            );
        }
        out
    }
}

/// Locality-aware fallback counter, `0` for non-routing backends.
fn fallbacks<O: SpannerOracle>(oracle: &O) -> u64 {
    oracle
        .service_metrics()
        .locality
        .map_or(0, |split| split.global_fallbacks)
}

/// Runs every plan against `service`, interleaving their rounds
/// round-robin, and checks each answer against `mirror` — a fresh oracle
/// built identically to the service's backend (either backend type works:
/// the exactness contract makes their distances bit-identical).
///
/// The mirror receives every wave through the service's own
/// [`ChurnConfig`](crate::ChurnConfig), so its spanner and the published
/// epoch's must agree after every repair.
///
/// # Panics
///
/// Panics — with the scenario name and round — the moment any answered
/// ticket diverges from the mirror, a witness path is not a genuine
/// spanner walk of the answered length, a wave leaves the two spanners
/// with different edge counts, or a wave ticket resolves to anything but
/// [`TicketState::Waved`].
pub fn run_chaos<O, M>(
    service: &OracleService<O>,
    mirror: &mut M,
    plans: Vec<ScenarioPlan>,
) -> ChaosReport
where
    O: SpannerOracle + 'static,
    M: SpannerOracle,
{
    let churn = service.config().churn.clone();
    let mut reports: Vec<ScenarioReport> = plans
        .iter()
        .map(|plan| ScenarioReport {
            name: plan.name.clone(),
            ..ScenarioReport::default()
        })
        .collect();
    let mut cursors = vec![0usize; plans.len()];
    let mut remaining: usize = plans.iter().map(|p| p.rounds.len()).sum();

    while remaining > 0 {
        for (idx, plan) in plans.iter().enumerate() {
            let Some(round) = plan.rounds.get(cursors[idx]) else {
                continue;
            };
            cursors[idx] += 1;
            remaining -= 1;
            run_round(service, mirror, &churn, plan, round, &mut reports[idx]);
        }
    }
    ChaosReport { scenarios: reports }
}

fn run_round<O, M>(
    service: &OracleService<O>,
    mirror: &mut M,
    churn: &crate::churn::ChurnConfig,
    plan: &ScenarioPlan,
    round: &ChaosRound,
    report: &mut ScenarioReport,
) where
    O: SpannerOracle + 'static,
    M: SpannerOracle,
{
    let name = &plan.name;
    let round_no = report.rounds;
    report.rounds += 1;
    let before = service.metrics();
    let fallbacks_before = fallbacks(&*service.oracle());

    // Query burst: submit as one batch, wait every ticket, check answered
    // tickets against the mirror.
    if !round.queries.is_empty() {
        let tickets = service.submit_batch_ref(round.queries.iter());
        let expected = mirror.answer_batch(&round.queries);
        let mut answered: Vec<(usize, Answer)> = Vec::with_capacity(tickets.len());
        for (i, ticket) in tickets.into_iter().enumerate() {
            match service.wait(ticket) {
                TicketState::Answered(answer) => answered.push((i, answer)),
                TicketState::Shed => {}
                state => panic!("{name} round {round_no}: query ticket resolved to {state:?}"),
            }
        }
        // One epoch pin for all the path checks; dropped before any wave.
        let epoch = service.oracle();
        let spanner = epoch.spanner();
        for (i, got) in &answered {
            let want = &expected[*i];
            let query = &round.queries[*i];
            assert_eq!(
                want.distance.map(f64::to_bits),
                got.distance.map(f64::to_bits),
                "{name} round {round_no}: distance bits diverged for {query:?}"
            );
            match (&want.path, &got.path) {
                (None, None) => {}
                (Some(_), Some(path)) => {
                    // Shortest paths need not be unique across backends:
                    // demand a genuine spanner walk of the answered length.
                    assert_eq!(path.first(), Some(&query.u), "{name} round {round_no}");
                    assert_eq!(path.last(), Some(&query.v), "{name} round {round_no}");
                    let mut walked = 0.0;
                    for hop in path.windows(2) {
                        let e = spanner.edge_between(hop[0], hop[1]).unwrap_or_else(|| {
                            panic!("{name} round {round_no}: non-spanner hop in {path:?}")
                        });
                        walked += spanner.weight(e);
                    }
                    let d = got.distance.expect("path answers carry a distance");
                    assert!(
                        (walked - d).abs() < 1e-9,
                        "{name} round {round_no}: walk length {walked} != distance {d}"
                    );
                }
                other => panic!("{name} round {round_no}: path presence diverged: {other:?}"),
            }
        }
    }

    // Wave: submit-to-publication is the recovery time an operator sees —
    // barrier drain, repair, and region rebuilds included.
    if let Some(wave) = &round.wave {
        let start = Instant::now();
        let ticket = service.submit_wave(wave.clone());
        let state = service.wait(ticket);
        let elapsed = start.elapsed();
        let TicketState::Waved(wave_report) = state else {
            panic!("{name} round {round_no}: wave ticket resolved to {state:?}");
        };
        let mirror_report = mirror.apply_wave(wave, churn);
        let epoch = service.oracle();
        assert_eq!(
            epoch.spanner().edge_count(),
            mirror.spanner().edge_count(),
            "{name} round {round_no}: repaired spanners diverged"
        );
        assert_eq!(
            wave_report.outcome.edges_added, mirror_report.outcome.edges_added,
            "{name} round {round_no}: repair decisions diverged"
        );
        drop(epoch);
        report.waves += 1;
        report.recovery += elapsed;
        report.max_recovery = report.max_recovery.max(elapsed);
        report.edges_added += wave_report.outcome.edges_added as u64;
        report.escalations += u64::from(wave_report.outcome.escalated);
    }

    let after = service.metrics();
    report.submitted += after.submitted - before.submitted;
    report.answered += after.answered - before.answered;
    report.shed += after.shed - before.shed;
    report.coalesced += after.coalesced - before.coalesced;
    report.global_fallbacks += fallbacks(&*service.oracle()) - fallbacks_before;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::waves::{high_degree_wave, zipf_queries};
    use crate::oracle::{FaultOracle, OracleOptions};
    use crate::service::ServiceConfig;
    use ftspan::{FaultModel, SpannerParams};
    use ftspan_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn backend(seed: u64) -> FaultOracle {
        let mut r = StdRng::seed_from_u64(seed);
        let graph = generators::connected_gnp(40, 0.15, &mut r);
        FaultOracle::build(graph, SpannerParams::vertex(2, 2), OracleOptions::default())
    }

    #[test]
    fn harness_interleaves_and_reports() {
        let mirror_src = backend(31);
        let mut mirror = backend(31);
        let service = OracleService::new(backend(31), ServiceConfig::default());
        let empty = FaultSet::empty(FaultModel::Vertex);
        let plans = vec![
            ScenarioPlan {
                name: "targeted-high-degree".into(),
                rounds: (0..3)
                    .map(|i| ChaosRound {
                        queries: zipf_queries(mirror_src.graph(), 20, 1.1, &empty, 50 + i),
                        wave: (i == 1).then(|| high_degree_wave(mirror_src.graph(), 2)),
                    })
                    .collect(),
            },
            ScenarioPlan::queries_only(
                "flash-crowd",
                (0..2)
                    .map(|i| zipf_queries(mirror_src.graph(), 30, 1.4, &empty, 90 + i))
                    .collect(),
            ),
        ];
        let report = run_chaos(&service, &mut mirror, plans);
        assert_eq!(report.scenarios.len(), 2);
        assert_eq!(report.total_waves(), 1);
        let targeted = &report.scenarios[0];
        assert_eq!(targeted.rounds, 3);
        assert_eq!(targeted.waves, 1);
        assert!(targeted.answered > 0);
        assert!(targeted.max_recovery >= targeted.mean_recovery());
        let table = report.markdown_table();
        assert!(table.contains("| targeted-high-degree |"));
        assert!(table.contains("| flash-crowd |"));
    }
}
