//! Error metrics shared by every compressor and benchmark: MSE, NRMSE (the
//! paper's primary reconstruction-quality metric, Eq. 12) and the ℓ2 norm.

use crate::tensor::Tensor;

impl Tensor {
    /// Euclidean (ℓ2) norm of the flattened tensor.
    pub fn l2_norm(&self) -> f32 {
        (self
            .data()
            .iter()
            .map(|&x| x as f64 * x as f64)
            .sum::<f64>())
        .sqrt() as f32
    }
}

/// Mean squared error between two equally-shaped tensors.
pub fn mse(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "mse shape mismatch");
    let n = a.numel().max(1) as f64;
    (a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / n) as f32
}

/// Root mean squared error.
pub fn rmse(a: &Tensor, b: &Tensor) -> f32 {
    mse(a, b).sqrt()
}

/// Normalised root mean squared error (paper Eq. 12):
/// `sqrt(||a - b||² / N) / (max(a) - min(a))`.
///
/// The normalisation uses the range of the *original* data `a`.  Returns 0
/// for a constant original signal that is reconstructed exactly, and treats a
/// degenerate range as 1 to avoid division by zero.
pub fn nrmse(original: &Tensor, reconstruction: &Tensor) -> f32 {
    let range = original.max() - original.min();
    let denom = if range > 0.0 { range } else { 1.0 };
    rmse(original, reconstruction) / denom
}

/// Maximum absolute point-wise error.
pub fn max_abs_error(a: &Tensor, b: &Tensor) -> f32 {
    assert_eq!(a.shape(), b.shape(), "max_abs_error shape mismatch");
    a.data()
        .iter()
        .zip(b.data().iter())
        .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_tensors_have_zero_error() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]);
        assert_eq!(mse(&a, &a), 0.0);
        assert_eq!(nrmse(&a, &a), 0.0);
        assert_eq!(max_abs_error(&a, &a), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Tensor::from_vec(vec![0.0, 0.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]);
        assert!((mse(&a, &b) - 12.5).abs() < 1e-6);
        assert!((rmse(&a, &b) - 12.5f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn nrmse_is_scale_invariant() {
        // Scaling both signal and error by the same factor leaves NRMSE fixed.
        let a = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], &[4]);
        let b = Tensor::from_vec(vec![0.1, 1.1, 1.9, 3.0], &[4]);
        let a_big = a.scale(1e9);
        let b_big = b.scale(1e9);
        assert!((nrmse(&a, &b) - nrmse(&a_big, &b_big)).abs() < 1e-6);
    }

    #[test]
    fn norms() {
        let a = Tensor::from_vec(vec![3.0, -4.0], &[2]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn max_abs_error_picks_worst_point() {
        let a = Tensor::from_vec(vec![0.0, 0.0, 0.0], &[3]);
        let b = Tensor::from_vec(vec![0.1, -0.5, 0.2], &[3]);
        assert!((max_abs_error(&a, &b) - 0.5).abs() < 1e-6);
    }
}
