//! Closed-form reference curves for every size, time, and round bound proved
//! in the paper.
//!
//! The theorems are asymptotic (`O(·)`), so each function here evaluates the
//! bound with its leading constant set to 1 plus an additive `n` slack for
//! the spanning-forest edges every connected spanner must keep. The benches
//! and EXPERIMENTS.md compare measured values against these reference curves:
//! the interesting content is the *shape* (exponents in `n`, `f`, `k`) and
//! relative ordering of algorithms, not the constant.

/// Moore-type girth bound: a graph on `n` vertices with girth greater than
/// `2k` has at most `n^{1+1/k} + n` edges ([ADD+93], the key fact behind all
/// greedy spanner analyses).
#[must_use]
pub fn girth_size_bound(n: usize, k: u32) -> f64 {
    let n = n as f64;
    n.powf(1.0 + 1.0 / f64::from(k.max(1))) + n
}

/// Optimal fault-tolerant spanner size `O(f^{1−1/k} · n^{1+1/k})` achieved by
/// the exponential-time greedy algorithm (\[BP19\], quoted as the target the
/// paper compares against).
#[must_use]
pub fn optimal_ft_size_bound(n: usize, k: u32, f: u32) -> f64 {
    let k = f64::from(k.max(1));
    let n_f = n as f64;
    let f_f = f64::from(f.max(1));
    f_f.powf(1.0 - 1.0 / k) * n_f.powf(1.0 + 1.0 / k) + n_f
}

/// Size bound of the polynomial-time modified greedy algorithm
/// (Theorem 8): `O(k · f^{1−1/k} · n^{1+1/k})`.
#[must_use]
pub fn poly_greedy_size_bound(n: usize, k: u32, f: u32) -> f64 {
    f64::from(k.max(1)) * optimal_ft_size_bound(n, k, f)
}

/// Size bound of the Dinitz–Krauthgamer construction (Theorem 13 with
/// `g(n) = n^{1+1/k}`): `O(f^{2−1/k} · n^{1+1/k} · log n)`.
#[must_use]
pub fn dk_size_bound(n: usize, k: u32, f: u32) -> f64 {
    let k_f = f64::from(k.max(1));
    let f_f = f64::from(f.max(1));
    let n_f = n as f64;
    f_f.powf(2.0 - 1.0 / k_f) * n_f.powf(1.0 + 1.0 / k_f) * n_f.max(2.0).ln() + n_f
}

/// Size bound of the LOCAL-model construction (Theorem 12):
/// `O(f^{1−1/k} · n^{1+1/k} · log n)`.
#[must_use]
pub fn local_size_bound(n: usize, k: u32, f: u32) -> f64 {
    optimal_ft_size_bound(n, k, f) * (n as f64).max(2.0).ln()
}

/// Round bound of the LOCAL-model construction (Theorem 12): `O(log n)`.
#[must_use]
pub fn local_round_bound(n: usize) -> f64 {
    (n as f64).max(2.0).log2()
}

/// Size bound of the CONGEST-model construction (Theorem 15):
/// `O(k · f^{2−1/k} · n^{1+1/k} · log n)`.
#[must_use]
pub fn congest_size_bound(n: usize, k: u32, f: u32) -> f64 {
    f64::from(k.max(1)) * dk_size_bound(n, k, f)
}

/// Round bound of the CONGEST-model construction (Theorem 15):
/// `O(f²(log f + log log n) + k² · f · log n)`.
#[must_use]
pub fn congest_round_bound(n: usize, k: u32, f: u32) -> f64 {
    let n_f = (n as f64).max(4.0);
    let f_f = f64::from(f.max(1));
    let k_f = f64::from(k.max(1));
    f_f * f_f * (f_f.max(2.0).log2() + n_f.log2().log2()) + k_f * k_f * f_f * n_f.log2()
}

/// Size bound of the Baswana–Sen `(2k − 1)`-spanner (Theorem 14):
/// `O(k · n^{1+1/k})` in expectation.
#[must_use]
pub fn baswana_sen_size_bound(n: usize, k: u32) -> f64 {
    let k_f = f64::from(k.max(1));
    k_f * (n as f64).powf(1.0 + 1.0 / k_f) + n as f64
}

/// Round bound of distributed Baswana–Sen in CONGEST (Theorem 14): `O(k²)`.
#[must_use]
pub fn baswana_sen_round_bound(k: u32) -> f64 {
    f64::from(k.max(1)).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn girth_bound_matches_known_exponents() {
        // k = 1: girth > 2 just means simple, bound ~ n^2.
        assert!((girth_size_bound(100, 1) - (100f64.powi(2) + 100.0)).abs() < 1e-6);
        // Larger k gives smaller bounds.
        assert!(girth_size_bound(1000, 3) < girth_size_bound(1000, 2));
    }

    #[test]
    fn poly_bound_is_k_times_optimal() {
        let n = 500;
        let opt = optimal_ft_size_bound(n, 3, 4);
        let poly = poly_greedy_size_bound(n, 3, 4);
        assert!((poly / opt - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_are_monotone_in_f() {
        for k in 1..5 {
            for f in 1..10u32 {
                assert!(optimal_ft_size_bound(200, k, f + 1) >= optimal_ft_size_bound(200, k, f));
                assert!(dk_size_bound(200, k, f + 1) >= dk_size_bound(200, k, f));
                assert!(congest_round_bound(200, k, f + 1) >= congest_round_bound(200, k, f));
            }
        }
    }

    #[test]
    fn bounds_are_monotone_in_n() {
        for &n in &[10usize, 100, 1000] {
            assert!(poly_greedy_size_bound(n * 2, 2, 2) > poly_greedy_size_bound(n, 2, 2));
            assert!(local_size_bound(n * 2, 2, 2) > local_size_bound(n, 2, 2));
            assert!(local_round_bound(n * 2) > local_round_bound(n));
        }
    }

    #[test]
    fn dk_grows_faster_in_f_than_greedy() {
        // The f-exponent gap (2 − 1/k vs 1 − 1/k) is the headline comparison
        // of experiment E3: doubling f should roughly double the ratio.
        let ratio_small = dk_size_bound(500, 2, 2) / optimal_ft_size_bound(500, 2, 2);
        let ratio_big = dk_size_bound(500, 2, 8) / optimal_ft_size_bound(500, 2, 8);
        assert!(ratio_big > ratio_small * 3.0);
    }

    #[test]
    fn degenerate_parameters_do_not_panic_or_return_nan() {
        for func in [
            girth_size_bound(0, 1),
            optimal_ft_size_bound(0, 1, 0),
            poly_greedy_size_bound(1, 1, 0),
            dk_size_bound(1, 1, 0),
            local_size_bound(0, 1, 0),
            local_round_bound(0),
            congest_size_bound(1, 1, 1),
            congest_round_bound(0, 1, 0),
            baswana_sen_size_bound(0, 1),
            baswana_sen_round_bound(0),
        ] {
            assert!(func.is_finite());
            assert!(func >= 0.0);
        }
    }
}
