//! Reductions: full-tensor sums, means, extrema and variance, and per-axis
//! sums and means.

use crate::tensor::Tensor;

impl Tensor {
    /// Sum of all elements (accumulated in `f64` for stability).
    pub fn sum(&self) -> f32 {
        self.data().iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        if self.numel() == 0 {
            return 0.0;
        }
        (self.data().iter().map(|&x| x as f64).sum::<f64>() / self.numel() as f64) as f32
    }

    /// Maximum element.
    pub fn max(&self) -> f32 {
        self.data()
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element.
    pub fn min(&self) -> f32 {
        self.data().iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        let n = self.numel();
        if n == 0 {
            return 0.0;
        }
        let mean = self.mean() as f64;
        (self
            .data()
            .iter()
            .map(|&x| {
                let d = x as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n as f64) as f32
    }

    /// Sum along `axis`.  When `keepdim` is true the reduced axis is kept
    /// with extent 1 (useful for broadcasting back).
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        assert!(axis < self.rank(), "sum_axis axis out of range");
        let dims = self.dims();
        let outer: usize = dims[..axis].iter().product();
        let a = dims[axis];
        let inner: usize = dims[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        let data = self.data();
        for o in 0..outer {
            for k in 0..a {
                let base = o * a * inner + k * inner;
                let dst = o * inner;
                for i in 0..inner {
                    out[dst + i] += data[base + i];
                }
            }
        }
        let mut out_dims = dims.to_vec();
        if keepdim {
            out_dims[axis] = 1;
        } else {
            out_dims.remove(axis);
        }
        Tensor::from_vec(out, &out_dims)
    }

    /// Mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let n = self.dim(axis) as f32;
        self.sum_axis(axis, keepdim).scale(1.0 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.variance() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn sum_axis_rows_and_cols() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let rows = t.sum_axis(1, false);
        assert_eq!(rows.dims(), &[2]);
        assert_eq!(rows.data(), &[6.0, 15.0]);
        let cols = t.sum_axis(0, false);
        assert_eq!(cols.dims(), &[3]);
        assert_eq!(cols.data(), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn sum_axis_keepdim_broadcasts_back() {
        let t = Tensor::ones(&[2, 3, 4]);
        let s = t.sum_axis(1, true);
        assert_eq!(s.dims(), &[2, 1, 4]);
        let diff = t.sub(&s.scale(1.0 / 3.0));
        assert!(diff.abs().max() < 1e-6);
    }

    #[test]
    fn mean_and_var_axis() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 2.0, 4.0], &[2, 2]);
        let m = t.mean_axis(0, false);
        assert_eq!(m.data(), &[1.5, 3.5]);
        // Population variance per column, from the kept-dim mean.
        let centered = t.sub(&t.mean_axis(0, true));
        assert_eq!(centered.square().mean_axis(0, false).data(), &[0.25, 0.25]);
    }

    #[test]
    fn middle_axis_reduction_matches_manual() {
        let t = Tensor::arange(24).reshape(&[2, 3, 4]);
        let s = t.sum_axis(1, false);
        assert_eq!(s.dims(), &[2, 4]);
        // Manual check of one entry: sum over axis-1 at [0, :, 2].
        let expected: f32 = t.at(&[0, 0, 2]) + t.at(&[0, 1, 2]) + t.at(&[0, 2, 2]);
        assert_eq!(s.at(&[0, 2]), expected);
    }
}
