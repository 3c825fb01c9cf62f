//! Algorithm parameters shared by every spanner construction.

use core::fmt;

use crate::error::{Result, SpannerError};

/// Which kind of faults the spanner must tolerate.
///
/// The paper (like most of the literature) proves its bounds for vertex
/// faults and notes that the edge-fault proofs are "essentially identical";
/// both variants are implemented throughout this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum FaultModel {
    /// Up to `f` vertices may fail (`f`-VFT).
    #[default]
    Vertex,
    /// Up to `f` edges may fail (`f`-EFT).
    Edge,
}

impl fmt::Display for FaultModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultModel::Vertex => write!(f, "vertex"),
            FaultModel::Edge => write!(f, "edge"),
        }
    }
}

/// Parameters of an `f`-fault-tolerant `(2k − 1)`-spanner construction.
///
/// * `k ≥ 1` controls the stretch `t = 2k − 1`.
/// * `f ≥ 0` is the number of faults to tolerate (`f = 0` degenerates to the
///   classical non-fault-tolerant greedy spanner).
/// * [`FaultModel`] selects vertex or edge faults.
///
/// # Examples
///
/// ```
/// use ftspan::{FaultModel, SpannerParams};
///
/// let params = SpannerParams::new(2, 1).unwrap();
/// assert_eq!(params.stretch(), 3);
/// assert_eq!(params.fault_model(), FaultModel::Vertex);
/// let edge = params.with_fault_model(FaultModel::Edge);
/// assert_eq!(edge.fault_model(), FaultModel::Edge);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpannerParams {
    k: u32,
    f: u32,
    fault_model: FaultModel,
}

impl SpannerParams {
    /// Creates parameters for an `f`-VFT `(2k − 1)`-spanner.
    ///
    /// # Errors
    ///
    /// Returns [`SpannerError::InvalidStretchParameter`] if `k == 0`.
    pub fn new(k: u32, f: u32) -> Result<Self> {
        if k == 0 {
            return Err(SpannerError::InvalidStretchParameter { k });
        }
        Ok(Self {
            k,
            f,
            fault_model: FaultModel::Vertex,
        })
    }

    /// Creates parameters, panicking on invalid input. Convenient in tests
    /// and examples where `k` is a literal.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn vertex(k: u32, f: u32) -> Self {
        Self::new(k, f).expect("k must be at least 1")
    }

    /// Creates edge-fault-tolerant parameters, panicking on invalid input.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn edge(k: u32, f: u32) -> Self {
        Self::vertex(k, f).with_fault_model(FaultModel::Edge)
    }

    /// Returns a copy with the given fault model.
    #[must_use]
    pub fn with_fault_model(mut self, fault_model: FaultModel) -> Self {
        self.fault_model = fault_model;
        self
    }

    /// The stretch parameter `k`.
    #[inline]
    #[must_use]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The number of tolerated faults `f`.
    #[inline]
    #[must_use]
    pub fn f(&self) -> u32 {
        self.f
    }

    /// The stretch `t = 2k − 1` of the spanner.
    #[inline]
    #[must_use]
    pub fn stretch(&self) -> u32 {
        2 * self.k - 1
    }

    /// The fault model (vertex or edge).
    #[inline]
    #[must_use]
    pub fn fault_model(&self) -> FaultModel {
        self.fault_model
    }
}

impl fmt::Display for SpannerParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}-fault-tolerant {}-spanner (k={})",
            self.f,
            self.fault_model,
            self.stretch(),
            self.k
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_is_2k_minus_1() {
        for k in 1..10 {
            assert_eq!(SpannerParams::vertex(k, 1).stretch(), 2 * k - 1);
        }
    }

    #[test]
    fn zero_k_is_rejected() {
        assert!(matches!(
            SpannerParams::new(0, 3),
            Err(SpannerError::InvalidStretchParameter { k: 0 })
        ));
    }

    #[test]
    fn zero_f_is_fault_free() {
        // f = 0 is the plain (non-fault-tolerant) spanner, a valid input.
        let p = SpannerParams::new(2, 0).unwrap();
        assert_eq!(p.f(), 0);
        assert_eq!(p.stretch(), 3);
    }

    #[test]
    fn fault_model_round_trip() {
        let p = SpannerParams::vertex(3, 2);
        assert_eq!(p.fault_model(), FaultModel::Vertex);
        assert_eq!(
            p.with_fault_model(FaultModel::Edge).fault_model(),
            FaultModel::Edge
        );
        assert_eq!(SpannerParams::edge(3, 2).fault_model(), FaultModel::Edge);
    }

    #[test]
    fn display_is_informative() {
        let p = SpannerParams::vertex(2, 4);
        let s = p.to_string();
        assert!(s.contains("4"));
        assert!(s.contains("3-spanner"));
        assert!(s.contains("vertex"));
        assert_eq!(format!("{}", FaultModel::Edge), "edge");
    }
}
