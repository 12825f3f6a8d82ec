//! Normal-distribution utilities used by the Gaussian conditional entropy
//! model (paper Eq. 1–2) and by the rate estimates in `gld-vae`.
//!
//! There is one error function: [`erf`] is `gld_kernels::erf`, the
//! Abramowitz & Stegun 7.1.26 formula over a replica of glibc 2.36's
//! `__exp_fma`, so its bits do not depend on the host's libm.  The entropy
//! model's bin edges run the same arithmetic four lanes wide through
//! `KernelBackend::erf_f64`, with the same result on every backend.

pub use gld_kernels::erf;

/// Standard normal cumulative distribution function.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// CDF of a normal distribution with the given mean and standard deviation.
pub fn normal_cdf(x: f64, mean: f64, std: f64) -> f64 {
    let std = std.max(1e-9);
    std_normal_cdf((x - mean) / std)
}

/// Probability mass that a `N(mean, std²)` variable convolved with
/// `U(-0.5, 0.5)` rounds to the integer `k` — i.e. the probability of the
/// quantised latent value `k` under the paper's Eq. 1.
pub fn quantized_gaussian_pmf(k: i64, mean: f64, std: f64) -> f64 {
    let upper = normal_cdf(k as f64 + 0.5, mean, std);
    let lower = normal_cdf(k as f64 - 0.5, mean, std);
    (upper - lower).max(0.0)
}

/// Information content of the quantised value `k` in bits,
/// `-log2 p(k | mean, std)`, floored so that degenerate probabilities do not
/// produce infinities (matches the clamp used by learned codecs).
pub fn quantized_gaussian_bits(k: i64, mean: f64, std: f64) -> f64 {
    let p = quantized_gaussian_pmf(k, mean, std).max(1e-12);
    -p.log2()
}

/// Differential entropy (in bits) of a normal with the given standard
/// deviation: `0.5 log2(2πeσ²)`.  Used as a sanity reference in tests.
pub fn normal_entropy_bits(std: f64) -> f64 {
    0.5 * (2.0 * std::f64::consts::PI * std::f64::consts::E * std * std).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-9);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-5);
    }

    #[test]
    fn cdf_symmetry_and_monotonicity() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!(std_normal_cdf(-5.0) < 1e-5);
        let mut prev = 0.0;
        for i in -40..=40 {
            let c = std_normal_cdf(i as f64 / 10.0);
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn pmf_sums_to_one_over_support() {
        for &(mean, std) in &[(0.0, 1.0), (3.7, 0.5), (-2.2, 4.0)] {
            let sum: f64 = (-200..=200)
                .map(|k| quantized_gaussian_pmf(k, mean, std))
                .sum();
            assert!(
                (sum - 1.0).abs() < 1e-6,
                "pmf sum {sum} for mean {mean} std {std}"
            );
        }
    }

    #[test]
    fn pmf_peaks_at_rounded_mean() {
        let mean = 2.3;
        let std = 0.8;
        let peak = quantized_gaussian_pmf(2, mean, std);
        for k in -10..=10 {
            assert!(quantized_gaussian_pmf(k, mean, std) <= peak + 1e-12);
        }
    }

    #[test]
    fn bits_track_distribution_width() {
        // Wider distributions cost more bits for the same symbol.
        let narrow = quantized_gaussian_bits(0, 0.0, 0.3);
        let wide = quantized_gaussian_bits(0, 0.0, 10.0);
        assert!(wide > narrow);
        // A symbol far in the tail is very expensive.
        assert!(quantized_gaussian_bits(50, 0.0, 1.0) > 30.0);
    }

    #[test]
    fn average_code_length_close_to_entropy() {
        // For a moderately wide quantised Gaussian the expected code length
        // should be within ~0.1 bits of the differential entropy.
        let std = 4.0;
        let expected_bits: f64 = (-100..=100)
            .map(|k| {
                let p = quantized_gaussian_pmf(k, 0.0, std);
                if p > 0.0 {
                    p * quantized_gaussian_bits(k, 0.0, std)
                } else {
                    0.0
                }
            })
            .sum();
        let reference = normal_entropy_bits(std);
        assert!(
            (expected_bits - reference).abs() < 0.1,
            "expected {expected_bits} vs differential entropy {reference}"
        );
    }
}
