//! A fluent front-end over every spanner construction in the crate.

use ftspan_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baswana_sen::baswana_sen_spanner;
use crate::dk::{dk_spanner, dk_spanner_baswana_sen};
use crate::error::Result;
use crate::greedy_exact::exact_greedy_spanner;
use crate::greedy_poly::{poly_greedy_spanner_with, PolyGreedyOptions};
use crate::nonft::greedy_spanner;
use crate::stats::SpannerResult;
use crate::{FaultModel, SpannerParams};

/// Which construction the [`SpannerBuilder`] should run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// The paper's polynomial-time modified greedy (Algorithms 3/4).
    #[default]
    PolyGreedy,
    /// The exponential-time exact greedy of [BDPW18, BP19] (Algorithm 1).
    ExactGreedy,
    /// The classical non-fault-tolerant greedy of [ADD+93] (`f` is ignored).
    ClassicGreedy,
    /// The Baswana–Sen randomized spanner \[BS07\] (`f` is ignored).
    BaswanaSen,
    /// Dinitz–Krauthgamer \[DK11\] with the classical greedy inside.
    DinitzKrauthgamer,
    /// Dinitz–Krauthgamer \[DK11\] with Baswana–Sen inside (the CONGEST combo).
    DinitzKrauthgamerBaswanaSen,
}

/// Fluent builder configuring and running a spanner construction.
///
/// # Examples
///
/// ```
/// use ftspan::{Algorithm, SpannerBuilder};
/// use ftspan_graph::generators;
///
/// let g = generators::complete(25);
/// let result = SpannerBuilder::new(2, 1)
///     .algorithm(Algorithm::PolyGreedy)
///     .collect_certificates(true)
///     .build(&g)
///     .unwrap();
/// assert!(result.spanner.edge_count() < g.edge_count());
/// ```
#[derive(Clone, Debug)]
pub struct SpannerBuilder {
    params: SpannerParams,
    algorithm: Algorithm,
    seed: u64,
    collect_certificates: bool,
}

impl SpannerBuilder {
    /// Creates a builder targeting an `f`-VFT `(2k − 1)`-spanner built by the
    /// polynomial-time modified greedy algorithm.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: u32, f: u32) -> Self {
        Self {
            params: SpannerParams::vertex(k, f),
            algorithm: Algorithm::default(),
            seed: 0xF75A_2020,
            collect_certificates: false,
        }
    }

    /// Creates a builder from already-validated parameters.
    #[must_use]
    pub fn from_params(params: SpannerParams) -> Self {
        let mut builder = Self::new(params.k(), params.f());
        builder.params = params;
        builder
    }

    /// Selects the construction algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects vertex or edge fault tolerance.
    #[must_use]
    pub fn fault_model(mut self, model: FaultModel) -> Self {
        self.params = self.params.with_fault_model(model);
        self
    }

    /// Sets the RNG seed used by randomized constructions.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables recording of LBC certificates (modified greedy only).
    #[must_use]
    pub fn collect_certificates(mut self, collect: bool) -> Self {
        self.collect_certificates = collect;
        self
    }

    /// The parameters the builder currently targets.
    #[must_use]
    pub fn params(&self) -> SpannerParams {
        self.params
    }

    /// Runs the selected construction on `graph`.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::SpannerError::ExactSearchBudgetExceeded`] from the
    /// exact greedy algorithm; every other construction is infallible.
    pub fn build(&self, graph: &Graph) -> Result<SpannerResult> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.algorithm {
            Algorithm::PolyGreedy => {
                let options = PolyGreedyOptions {
                    collect_certificates: self.collect_certificates,
                };
                Ok(poly_greedy_spanner_with(graph, self.params, &options))
            }
            Algorithm::ExactGreedy => exact_greedy_spanner(graph, self.params),
            Algorithm::ClassicGreedy => Ok(greedy_spanner(graph, self.params.k())),
            Algorithm::BaswanaSen => Ok(baswana_sen_spanner(graph, self.params.k(), &mut rng)),
            Algorithm::DinitzKrauthgamer => Ok(dk_spanner(
                graph,
                self.params.k(),
                self.params.f(),
                &mut rng,
            )),
            Algorithm::DinitzKrauthgamerBaswanaSen => Ok(dk_spanner_baswana_sen(
                graph,
                self.params.k(),
                self.params.f(),
                &mut rng,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{verify_spanner, VerificationMode};
    use ftspan_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_algorithm_runs_and_produces_a_subgraph() {
        let mut rng = StdRng::seed_from_u64(60);
        let g = generators::connected_gnp(20, 0.4, &mut rng);
        for algorithm in [
            Algorithm::PolyGreedy,
            Algorithm::ExactGreedy,
            Algorithm::ClassicGreedy,
            Algorithm::BaswanaSen,
            Algorithm::DinitzKrauthgamer,
            Algorithm::DinitzKrauthgamerBaswanaSen,
        ] {
            let result = SpannerBuilder::new(2, 1)
                .algorithm(algorithm)
                .seed(7)
                .build(&g)
                .unwrap_or_else(|e| panic!("{algorithm:?} failed: {e}"));
            assert!(
                result.spanner.is_edge_subgraph_of(&g),
                "{algorithm:?} produced a non-subgraph"
            );
        }
    }

    #[test]
    fn fault_tolerant_algorithms_produce_valid_ft_spanners() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = generators::connected_gnp(14, 0.4, &mut rng);
        let params = SpannerParams::vertex(2, 1);
        for algorithm in [
            Algorithm::PolyGreedy,
            Algorithm::ExactGreedy,
            Algorithm::DinitzKrauthgamer,
        ] {
            let result = SpannerBuilder::from_params(params)
                .algorithm(algorithm)
                .seed(11)
                .build(&g)
                .unwrap();
            let report = verify_spanner(&g, &result.spanner, params, VerificationMode::Exhaustive);
            assert!(report.is_valid(), "{algorithm:?}: {:?}", report.violations);
        }
    }

    #[test]
    fn builder_configures_fault_model_and_certificates() {
        let mut rng = StdRng::seed_from_u64(62);
        let g = generators::connected_gnp(12, 0.4, &mut rng);
        let result = SpannerBuilder::new(2, 1)
            .fault_model(FaultModel::Edge)
            .collect_certificates(true)
            .build(&g)
            .unwrap();
        assert_eq!(result.params.fault_model(), FaultModel::Edge);
        assert_eq!(result.certificates.len(), result.spanner.edge_count());
    }

    #[test]
    fn same_seed_gives_identical_randomized_output() {
        let mut rng = StdRng::seed_from_u64(63);
        let g = generators::connected_gnp(30, 0.3, &mut rng);
        let a = SpannerBuilder::new(2, 1)
            .algorithm(Algorithm::BaswanaSen)
            .seed(5)
            .build(&g)
            .unwrap();
        let b = SpannerBuilder::new(2, 1)
            .algorithm(Algorithm::BaswanaSen)
            .seed(5)
            .build(&g)
            .unwrap();
        assert_eq!(a.spanner.edge_count(), b.spanner.edge_count());
        let ea: Vec<_> = a.spanner.edges().map(|(_, e)| e.endpoints()).collect();
        let eb: Vec<_> = b.spanner.edges().map(|(_, e)| e.endpoints()).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn params_accessor_reflects_configuration() {
        let b = SpannerBuilder::new(3, 2).fault_model(FaultModel::Edge);
        assert_eq!(b.params().k(), 3);
        assert_eq!(b.params().f(), 2);
        assert_eq!(b.params().fault_model(), FaultModel::Edge);
    }
}
