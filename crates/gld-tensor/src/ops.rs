//! Unary math, activations, normalisation helpers and softmax.
//!
//! Everything here operates element-wise or along the trailing axis and
//! returns a new tensor; the autograd layer in `gld-nn` wraps these with
//! backward rules.

use crate::tensor::Tensor;

impl Tensor {
    /// Element-wise exponential.
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }

    /// Element-wise natural logarithm.
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }

    /// Element-wise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Element-wise absolute value.
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }

    /// Element-wise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Element-wise power with a float exponent.
    pub fn powf(&self, p: f32) -> Tensor {
        self.map(move |x| x.powf(p))
    }

    /// Element-wise clamp into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        assert!(lo <= hi, "clamp requires lo <= hi");
        self.map(move |x| x.clamp(lo, hi))
    }

    /// In-place variant of [`Tensor::clamp`] — no intermediate tensor.
    pub fn clamp_inplace(&mut self, lo: f32, hi: f32) {
        assert!(lo <= hi, "clamp requires lo <= hi");
        self.map_inplace(move |x| x.clamp(lo, hi));
    }

    /// Element-wise rounding to the nearest integer (the quantizer used by
    /// the learned compressors at inference time).
    pub fn round(&self) -> Tensor {
        self.map(f32::round)
    }

    /// In-place variant of [`Tensor::round`] — no intermediate tensor.
    pub fn round_inplace(&mut self) {
        self.map_inplace(f32::round);
    }

    /// Fused round-and-cast of every element into `i32` quantisation
    /// symbols — one pass, no intermediate rounded tensor.  Equivalent to
    /// `self.round()` followed by an element-wise `as i32` cast; this is
    /// the symbolisation step of the learned codecs' inference path.
    pub fn quantized_symbols(&self) -> Vec<i32> {
        self.data().iter().map(|&x| x.round() as i32).collect()
    }

    /// Element-wise logistic sigmoid, `1 / (1 + e⁻ˣ)`.
    pub fn sigmoid(&self) -> Tensor {
        self.map_with_exp_neg(|_, e| 1.0 / (1.0 + e))
    }

    /// Element-wise hyperbolic tangent.
    pub fn tanh(&self) -> Tensor {
        self.map(f32::tanh)
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }

    /// Element-wise SiLU (`x * sigmoid(x)`, computed as `x / (1 + e⁻ˣ)`),
    /// the activation used throughout the UNet and VAE.
    pub fn silu(&self) -> Tensor {
        self.map_with_exp_neg(|x, e| x / (1.0 + e))
    }

    /// `f(x, e⁻ˣ)` for every element, the exponentials from the kernels'
    /// [`exp_f32`](gld_kernels::KernelBackend::exp_f32).  Each chunk of the
    /// result holds `-x`, then `e⁻ˣ`, then `f`: no scratch besides the
    /// result itself.
    fn map_with_exp_neg(&self, f: impl Fn(f32, f32) -> f32) -> Tensor {
        const CHUNK: usize = 1024;
        let kernels = gld_kernels::kernels();
        let mut out = vec![0.0f32; self.numel()];
        for (out, x) in out.chunks_mut(CHUNK).zip(self.data().chunks(CHUNK)) {
            for (o, &x) in out.iter_mut().zip(x) {
                *o = -x;
            }
            kernels.exp_f32(out);
            for (o, &x) in out.iter_mut().zip(x) {
                *o = f(x, *o);
            }
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Element-wise GELU (tanh approximation).
    pub fn gelu(&self) -> Tensor {
        self.map(|x| {
            0.5 * x
                * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044715 * x * x * x)).tanh())
        })
    }

    /// Softmax along the last axis: the rows through [`softmax_rows_inplace`].
    pub fn softmax_last(&self) -> Tensor {
        let row = *self.dims().last().expect("softmax requires rank >= 1");
        let mut out = self.data().to_vec();
        for rows in out.chunks_mut(row * SOFTMAX_ROWS) {
            softmax_rows_inplace(rows, row, 1.0);
        }
        Tensor::from_vec(out, self.dims())
    }

    /// Min-max normalisation to `[-1, 1]`, returning the normalised tensor
    /// together with the `(min, max)` pair needed to invert it.
    ///
    /// When the tensor is constant the scale degenerates; in that case the
    /// output is all zeros and the recorded range is `(v, v)` so that
    /// [`Tensor::denormalize_minmax`] still reproduces the original value
    /// exactly (its scale becomes zero and only the offset survives).
    pub fn normalize_minmax(&self) -> (Tensor, f32, f32) {
        let min = self.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let max = self
            .data()
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        // `partial_cmp` keeps the NaN behaviour explicit: any NaN (or a
        // constant tensor) short-circuits to the degenerate branch.
        if max.partial_cmp(&min) != Some(std::cmp::Ordering::Greater) {
            return (Tensor::zeros(self.dims()), min, min);
        }
        let scale = 2.0 / (max - min);
        let normalized = self.map(move |x| (x - min) * scale - 1.0);
        (normalized, min, max)
    }

    /// Inverts [`Tensor::normalize_minmax`].
    pub fn denormalize_minmax(&self, min: f32, max: f32) -> Tensor {
        let scale = (max - min) / 2.0;
        self.map(move |x| (x + 1.0) * scale + min)
    }

    /// Zero-mean / unit-range normalisation used for raw scientific frames
    /// (the paper normalises each frame independently because values span
    /// ~10^10).  Returns `(normalised, mean, range)`.
    pub fn normalize_mean_range(&self) -> (Tensor, f32, f32) {
        let n = self.numel() as f64;
        let mean = (self.data().iter().map(|&x| x as f64).sum::<f64>() / n) as f32;
        let min = self.data().iter().cloned().fold(f32::INFINITY, f32::min);
        let max = self
            .data()
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        let range = if max > min { max - min } else { 1.0 };
        let inv = 1.0 / range;
        let out = self.map(move |x| (x - mean) * inv);
        (out, mean, range)
    }

    /// Inverts [`Tensor::normalize_mean_range`].
    pub fn denormalize_mean_range(&self, mean: f32, range: f32) -> Tensor {
        self.map(move |x| x * range + mean)
    }
}

/// Rows [`Tensor::softmax_last`] hands to one [`softmax_rows_inplace`] call.
const SOFTMAX_ROWS: usize = 16;

/// Softmax of every `len`-element row of `rows`, in place, over the logits
/// `scale · x` (attention's `1/√dh`; `1.0` for a plain softmax), with the
/// usual max-subtraction for stability.
///
/// The result is the one the textbook loop computes — per row, `s = x ·
/// scale`, `m = max s`, `e = exp(s - m)`, `sum` of the `e` in index order,
/// then `e · (1 / sum)` — to the bit, with the exponentials from the
/// kernels' [`exp_f32`](gld_kernels::KernelBackend::exp_f32), which is libm's
/// `expf` on an FMA host.  The work is arranged around it:
///
/// * all rows' exponentials are one `exp_f32` call, vectorised across
///   rows;
/// * each row keeps its own sequential sum, and several rows are summed in
///   step, so their dependency chains overlap;
/// * a peaked row (attention over a trained network) is mostly tail:
///   exponentials that underflow to zero or land among the subnormals.  An
///   `f32` multiply that takes or produces a subnormal runs far slower than
///   one on normal numbers (the exponential itself does not: the kernel
///   rounds subnormal results in integer units).  So a row with a subnormal
///   exponential is normalised by selecting, element by element, between
///   the plain product of a normal `e` and the integer-unit product of a
///   subnormal one (`scale_subnormal`); a row without one is a plain
///   multiply.
///
/// # Panics
/// Panics if `len` is zero or `rows.len()` is not a multiple of it.
pub fn softmax_rows_inplace(rows: &mut [f32], len: usize, scale: f32) {
    assert!(
        len > 0 && rows.len().is_multiple_of(len),
        "softmax: {} elements are not rows of {len}",
        rows.len()
    );
    for row in rows.chunks_exact_mut(len) {
        row.iter_mut().for_each(|x| *x *= scale);
        let m = row_max(row);
        row.iter_mut().for_each(|x| *x -= m);
    }
    gld_kernels::kernels().exp_f32(rows);
    const STEP: usize = 4;
    let mut groups = rows.chunks_exact_mut(STEP * len);
    for group in &mut groups {
        normalize_rows::<STEP>(group, len);
    }
    for row in groups.into_remainder().chunks_exact_mut(len) {
        normalize_rows::<1>(row, len);
    }
}

/// The largest element of `row` that is not NaN (`-∞` if there is none),
/// in eight running maxima: the order does not change the maximum, only,
/// between equal zeros, its sign, and `x - (±0)` is the same for every
/// non-zero `x` and `exp(±0)` the same for a zero.
fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let (chunks, tail) = row.as_chunks::<8>();
    for chunk in chunks {
        for (m, &x) in lanes.iter_mut().zip(chunk) {
            *m = m.max(x);
        }
    }
    lanes
        .into_iter()
        .chain(tail.iter().copied())
        .fold(f32::NEG_INFINITY, f32::max)
}

/// Divides each of the `R` rows of `rows` by its sum, the sums taken in
/// step (see [`softmax_rows_inplace`]).
fn normalize_rows<const R: usize>(rows: &mut [f32], len: usize) {
    let mut sums = [0.0f32; R];
    let mut subnormals = [false; R];
    let each: [&[f32]; R] = std::array::from_fn(|r| &rows[r * len..][..len]);
    for j in 0..len {
        let column = each.map(|row| row[j]);
        for ((sum, subnormal), e) in sums.iter_mut().zip(&mut subnormals).zip(column) {
            *sum += e;
            // Non-negative, so: zero wraps, and a subnormal is what stays
            // small.
            *subnormal |= e.to_bits().wrapping_sub(1) < f32::MIN_POSITIVE.to_bits() - 1;
        }
    }
    for ((row, sum), subnormals) in rows.chunks_exact_mut(len).zip(sums).zip(subnormals) {
        let inv = 1.0 / sum;
        // `sum ≥ e⁰ = 1`, so `inv ≤ 1`; anything else is a NaN row.
        if subnormals && inv <= 1.0 {
            for x in row.iter_mut() {
                let subnormal = x.to_bits() < f32::MIN_POSITIVE.to_bits();
                // Each operand is kept to its own kind: a zero is both.
                let product = if subnormal { 0.0 } else { *x } * inv;
                let units = scale_subnormal(if subnormal { *x } else { 0.0 }, inv);
                *x = if subnormal { units } else { product };
            }
        } else {
            for x in row.iter_mut() {
                *x *= inv;
            }
        }
    }
}

/// `e · inv` for a non-negative zero or subnormal `e` and `0 < inv ≤ 1`,
/// rounded as the `f32` multiply rounds it, without subnormal arithmetic:
/// the bit pattern of `e` is its value in units of 2⁻¹⁴⁹, the product of
/// that count and `inv` is exact in `f64`, and adding then subtracting
/// 1.5·2⁵² rounds it to a whole count, ties to even — the bit pattern of the
/// result.
fn scale_subnormal(e: f32, inv: f32) -> f32 {
    const TO_INTEGER: f64 = 1.5 * (1u64 << 52) as f64;
    let units = e.to_bits() as f64 * inv as f64;
    f32::from_bits(((units + TO_INTEGER) - TO_INTEGER) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_ops_match_std() {
        let t = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 0.5, 2.0], &[5]);
        assert!(t.exp().data()[4] - 2.0f32.exp() < 1e-6);
        assert_eq!(t.abs().data()[0], 2.0);
        assert_eq!(t.relu().data()[0], 0.0);
        assert_eq!(t.relu().data()[4], 2.0);
        assert_eq!(t.square().data()[0], 4.0);
        assert_eq!(t.clamp(-1.0, 1.0).data()[0], -1.0);
        assert_eq!(t.round().data()[1], -1.0); // -0.5 rounds away from zero
    }

    #[test]
    fn fused_quantize_matches_composed_ops() {
        let t = Tensor::from_vec(vec![-2.6, -0.5, 0.49, 1.5, 7.2, -9.9], &[6]);
        let composed: Vec<i32> = t.round().data().iter().map(|&v| v as i32).collect();
        assert_eq!(t.quantized_symbols(), composed);
    }

    #[test]
    fn inplace_variants_match_allocating_ops() {
        let t = Tensor::from_vec(vec![-2.6, -0.5, 0.49, 1.5], &[4]);
        let mut r = t.clone();
        r.round_inplace();
        assert_eq!(r, t.round());
        let mut c = t.clone();
        c.clamp_inplace(-1.0, 1.0);
        assert_eq!(c, t.clamp(-1.0, 1.0));
    }

    #[test]
    fn sigmoid_silu_relationship() {
        let t = Tensor::from_vec(vec![-3.0, 0.0, 3.0], &[3]);
        let sig = t.sigmoid();
        let silu = t.silu();
        for i in 0..3 {
            assert!((silu.data()[i] - t.data()[i] * sig.data()[i]).abs() < 1e-6);
        }
        assert!((sig.data()[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0, 10.0, 10.0], &[2, 3]);
        let s = t.softmax_last();
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Uniform logits give uniform probabilities.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-5);
        // Softmax is monotone in the logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]);
        let s = t.softmax_last();
        assert!(s.data().iter().all(|x| x.is_finite()));
        assert!((s.at(&[0, 0]) + s.at(&[0, 1]) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn minmax_normalization_roundtrip() {
        let t = Tensor::from_vec(vec![-5.0, 0.0, 10.0, 2.5], &[4]);
        let (n, min, max) = t.normalize_minmax();
        assert!(n.data().iter().cloned().fold(f32::INFINITY, f32::min) >= -1.0 - 1e-6);
        assert!(n.data().iter().cloned().fold(f32::NEG_INFINITY, f32::max) <= 1.0 + 1e-6);
        let back = n.denormalize_minmax(min, max);
        for i in 0..4 {
            assert!((back.data()[i] - t.data()[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn minmax_normalization_constant_input() {
        let t = Tensor::full(&[8], 7.0);
        let (n, min, max) = t.normalize_minmax();
        assert!(n.data().iter().all(|&x| x == 0.0));
        let back = n.denormalize_minmax(min, max);
        // Constant fields must survive the round trip exactly enough.
        for &v in back.data() {
            assert!((v - 7.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mean_range_normalization_roundtrip() {
        let t = Tensor::from_vec(vec![1e8, -2e8, 5e7, 0.0], &[4]);
        let (n, mean, range) = t.normalize_mean_range();
        assert!(n.data().iter().all(|x| x.abs() <= 1.0 + 1e-6));
        let back = n.denormalize_mean_range(mean, range);
        for i in 0..4 {
            assert!((back.data()[i] - t.data()[i]).abs() < 1e2); // relative to 1e8 scale
        }
    }
}
