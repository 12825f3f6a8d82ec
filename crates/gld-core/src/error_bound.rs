//! PCA-based error-bound guarantee (paper §3.5).
//!
//! After the learned pipeline produces a reconstruction `x_R`, the residual
//! `r = x − x_R` is chopped into fixed-size vectors, projected onto an
//! orthonormal basis `U`, and per vector the largest-magnitude coefficients
//! are quantised and stored until the remaining ℓ2 error drops below the
//! requested threshold τ.  The corrected reconstruction is
//! `x_G = x_R + U_s·c_q` (Eq. 9–10) and satisfies `‖x − x_G‖₂ ≤ τ` by
//! construction.
//!
//! The basis is either fitted with PCA on residual samples collected during
//! training ([`PcaErrorBound::fit`]) and shared between encoder and decoder,
//! or — when no residual samples are available — an orthonormal DCT basis is
//! used.  In both cases the basis is *not* stored per block, matching the
//! shared-basis setup of the papers this module follows; only the selected
//! coefficients, their indices and per-chunk counts are entropy-coded into
//! the auxiliary stream whose size enters the compression ratio (Eq. 11).

use gld_entropy::{
    write_u32_section, ByteReader, HistogramModel, RangeDecoder, RangeEncoder, ReadError,
};
use gld_tensor::eig::principal_components;
use gld_tensor::Tensor;

/// Configuration of the error-bound module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorBoundConfig {
    /// Dimensionality of the residual vectors (a flattened patch).
    pub chunk: usize,
}

impl Default for ErrorBoundConfig {
    fn default() -> Self {
        ErrorBoundConfig { chunk: 16 }
    }
}

/// Diagnostics of one error-bound application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorBoundOutcome {
    /// Requested ℓ2 bound τ.
    pub tau: f32,
    /// Achieved ℓ2 error after correction.
    pub achieved: f32,
    /// Number of coefficients stored across all chunks.
    pub coefficients: usize,
    /// Size of the auxiliary (correction) stream in bytes.
    pub aux_bytes: usize,
}

/// The PCA/DCT residual-correction module.
#[derive(Clone, Debug)]
pub struct PcaErrorBound {
    config: ErrorBoundConfig,
    /// Orthonormal basis, columns are basis vectors (`[chunk, chunk]`).
    basis: Tensor,
}

impl PcaErrorBound {
    /// Creates the module with the deterministic orthonormal DCT basis.
    pub fn new(config: ErrorBoundConfig) -> Self {
        PcaErrorBound {
            basis: dct_basis(config.chunk),
            config,
        }
    }

    /// Fits the basis with PCA on residual sample vectors (rows of length
    /// `config.chunk`), as done offline in the papers this follows.  Falls
    /// back to the DCT basis when too few samples are provided.
    pub fn fit(config: ErrorBoundConfig, residual_samples: &Tensor) -> Self {
        assert_eq!(residual_samples.rank(), 2, "samples must be [n, chunk]");
        assert_eq!(
            residual_samples.dim(1),
            config.chunk,
            "sample width mismatch"
        );
        if residual_samples.dim(0) < config.chunk {
            return Self::new(config);
        }
        let (components, _) = principal_components(residual_samples, config.chunk);
        PcaErrorBound {
            config,
            basis: orthonormalize(&components),
        }
    }

    /// The module configuration.
    pub fn config(&self) -> &ErrorBoundConfig {
        &self.config
    }

    /// Applies the correction so that `‖original − corrected‖₂ ≤ tau`.
    /// Returns the corrected tensor, the serialised auxiliary stream and
    /// diagnostics.
    pub fn apply(
        &self,
        original: &Tensor,
        reconstruction: &Tensor,
        tau: f32,
    ) -> (Tensor, Vec<u8>, ErrorBoundOutcome) {
        assert_eq!(original.shape(), reconstruction.shape(), "shape mismatch");
        assert!(tau > 0.0, "tau must be positive");
        let d = self.config.chunk;
        let n_values = original.numel();
        let n_chunks = n_values.div_ceil(d);
        // A non-finite reconstruction sample (a diverged sampler) carries no
        // information; both sides start the correction from 0.0 there, so
        // the bound is restored instead of the NaN spreading.
        let mut corrected = finite_or_zero(reconstruction);
        let residual = original.sub(&corrected);

        // Per-chunk ℓ2² budget and quantisation step chosen so that the
        // quantisation error alone can never exhaust the budget.
        let per_chunk_budget = tau * tau / n_chunks as f32;
        let step = (tau / ((n_chunks * d) as f32).sqrt()).max(1e-30);

        let res_data = residual.data();
        let basis = self.basis.data(); // [d, d], column-major access via index
        let mut counts: Vec<u16> = Vec::with_capacity(n_chunks);
        let mut indices: Vec<i32> = Vec::new();
        let mut codes: Vec<i32> = Vec::new();
        let corr_data = corrected.data_mut();
        let mut total_sq_err = 0.0f64;

        for chunk_idx in 0..n_chunks {
            let start = chunk_idx * d;
            let end = (start + d).min(n_values);
            let len = end - start;
            // Residual vector (zero-padded to d).
            let mut r = vec![0.0f32; d];
            r[..len].copy_from_slice(&res_data[start..end]);
            // Coefficients c = Uᵀ r.
            let mut coeffs = vec![0.0f32; d];
            for (j, c) in coeffs.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for i in 0..d {
                    acc += basis[i * d + j] * r[i];
                }
                *c = acc;
            }
            // Greedy selection by magnitude until the chunk error fits.
            let mut order: Vec<usize> = (0..d).collect();
            order.sort_by(|&a, &b| coeffs[b].abs().total_cmp(&coeffs[a].abs()));
            let mut correction = vec![0.0f32; d];
            let mut err: f32 = r.iter().map(|v| v * v).sum();
            let mut kept = 0u16;
            for &j in &order {
                if err <= per_chunk_budget {
                    break;
                }
                // Clamp so the stored i32 code and the applied correction
                // always agree, even for pathological residual magnitudes.
                let q = (coeffs[j] / step).round().clamp(-2.0e9, 2.0e9);
                if q == 0.0 {
                    // A zero code cannot reduce the error; with the chosen
                    // step the remaining error is already within budget.
                    continue;
                }
                let cq = q * step;
                for i in 0..d {
                    correction[i] += basis[i * d + j] * cq;
                }
                err = (0..d).map(|i| (r[i] - correction[i]).powi(2)).sum();
                indices.push(j as i32);
                codes.push(q as i32);
                kept += 1;
            }
            counts.push(kept);
            total_sq_err += err as f64;
            // `correction` only steered the selection: the block itself
            // takes the kept terms one by one, as the decoder will.
            let first = codes.len() - kept as usize;
            let terms = (&indices[first..], &codes[first..]);
            self.add_terms(&mut corr_data[start..end], step, terms);
        }

        // Serialise the auxiliary stream: header + entropy-coded counts,
        // indices and codes.
        let mut aux = Vec::new();
        aux.extend_from_slice(&tau.to_le_bytes());
        aux.extend_from_slice(&(n_chunks as u32).to_le_bytes());
        let count_syms: Vec<i32> = counts.iter().map(|&c| c as i32).collect();
        let count_model = HistogramModel::fit(&count_syms);
        let index_model = HistogramModel::fit(if indices.is_empty() { &[0] } else { &indices });
        let code_model = HistogramModel::fit(if codes.is_empty() { &[0] } else { &codes });
        for model in [&count_model, &index_model, &code_model] {
            write_u32_section(&mut aux, &model.to_bytes());
        }
        let mut enc = RangeEncoder::new();
        count_model.encode(&mut enc, &count_syms);
        if !indices.is_empty() {
            index_model.encode(&mut enc, &indices);
            code_model.encode(&mut enc, &codes);
        }
        let stream = enc.finish();
        write_u32_section(&mut aux, &stream);

        let outcome = ErrorBoundOutcome {
            tau,
            achieved: (total_sq_err as f32).sqrt(),
            coefficients: codes.len(),
            aux_bytes: aux.len(),
        };
        (corrected, aux, outcome)
    }

    /// Rebuilds the corrected reconstruction from the auxiliary stream (the
    /// decoder-side counterpart of [`PcaErrorBound::apply`]), panicking on a
    /// malformed stream.  Kept only because the `perf/` benchmark calls it
    /// by name; [`PcaErrorBound::try_apply_from_aux`] is the typed form.
    pub fn apply_from_aux(&self, reconstruction: &Tensor, aux: &[u8]) -> Tensor {
        self.try_apply_from_aux(reconstruction, aux)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PcaErrorBound::apply_from_aux`], or the typed reason `aux` is not a
    /// correction stream for `reconstruction`: its chunk count must tile
    /// the reconstruction, each chunk may keep at most `chunk` terms, and
    /// each term must name a basis vector.
    pub fn try_apply_from_aux(
        &self,
        reconstruction: &Tensor,
        aux: &[u8],
    ) -> Result<Tensor, ReadError> {
        let d = self.config.chunk;
        let mut reader = ByteReader::new(aux);
        let tau = reader.read_f32()?;
        let n_chunks = reader.read_u32()? as usize;
        let [count_model, index_model, code_model] = [
            reader.read_model()?,
            reader.read_model()?,
            reader.read_model()?,
        ];
        let stream = reader.read_u32_section()?;
        reader.expect_end()?;
        let n_values = reconstruction.numel();
        if n_chunks != n_values.div_ceil(d) {
            return Err(ReadError::Malformed(
                "correction chunk count does not tile the reconstruction",
            ));
        }
        let step = (tau / ((n_chunks * d) as f32).sqrt()).max(1e-30);
        let mut dec = RangeDecoder::new(stream);
        let counts = count_model.decode(&mut dec, n_chunks);
        if counts.iter().any(|&c| !(0..=d as i32).contains(&c)) {
            return Err(ReadError::Malformed(
                "correction chunk keeps more terms than it has",
            ));
        }
        // A stream without terms codes none (and decoding none reads none).
        let total_coeffs: usize = counts.iter().map(|&c| c as usize).sum();
        let indices = index_model.decode(&mut dec, total_coeffs);
        let codes = code_model.decode(&mut dec, total_coeffs);
        if indices.iter().any(|&j| !(0..d as i32).contains(&j)) {
            return Err(ReadError::Malformed(
                "correction term names no basis vector",
            ));
        }

        let mut corrected = finite_or_zero(reconstruction);
        let corr_data = corrected.data_mut();
        let mut cursor = 0usize;
        for (chunk_idx, &count) in counts.iter().enumerate() {
            let start = chunk_idx * d;
            let end = (start + d).min(n_values);
            let kept = cursor..cursor + count as usize;
            let terms = (&indices[kept.clone()], &codes[kept]);
            self.add_terms(&mut corr_data[start..end], step, terms);
            cursor += count as usize;
        }
        Ok(corrected)
    }

    /// Adds one chunk's kept terms `U_j · (code · step)` into the block, term
    /// by term in stream order.  [`PcaErrorBound::apply`] and
    /// [`PcaErrorBound::apply_from_aux`] both end here, so the tensor the
    /// bound is verified on is, bit for bit, the one every reader decodes.
    fn add_terms(&self, chunk: &mut [f32], step: f32, (indices, codes): (&[i32], &[i32])) {
        let (basis, d) = (self.basis.data(), self.config.chunk);
        for (&j, &code) in indices.iter().zip(codes) {
            let cq = code as f32 * step;
            for (i, item) in chunk.iter_mut().enumerate() {
                *item += basis[i * d + j as usize] * cq;
            }
        }
    }

    /// Converts an NRMSE target into the ℓ2 threshold τ used by
    /// [`PcaErrorBound::apply`] (inverts paper Eq. 12).
    pub fn tau_for_nrmse(original: &Tensor, nrmse_target: f32) -> f32 {
        let range = (original.max() - original.min()).max(1e-30);
        nrmse_target * range * (original.numel() as f32).sqrt()
    }
}

/// `t` with every NaN or infinite sample replaced by 0.0.
fn finite_or_zero(t: &Tensor) -> Tensor {
    t.map(|v| if v.is_finite() { v } else { 0.0 })
}

/// Orthonormal DCT-II basis of size `d × d` with basis vectors as columns.
fn dct_basis(d: usize) -> Tensor {
    let mut m = Tensor::zeros(&[d, d]);
    for k in 0..d {
        let scale = if k == 0 {
            (1.0 / d as f32).sqrt()
        } else {
            (2.0 / d as f32).sqrt()
        };
        for n in 0..d {
            let v = scale * ((std::f32::consts::PI / d as f32) * (n as f32 + 0.5) * k as f32).cos();
            m.set(&[n, k], v);
        }
    }
    m
}

/// Gram–Schmidt re-orthonormalisation (defensive: the Jacobi eigenvectors are
/// already orthonormal up to numerical noise).
fn orthonormalize(basis: &Tensor) -> Tensor {
    let d = basis.dim(0);
    let k = basis.dim(1);
    let mut cols: Vec<Vec<f32>> = (0..k)
        .map(|j| (0..d).map(|i| basis.at(&[i, j])).collect())
        .collect();
    for j in 0..k {
        let (done, rest) = cols.split_at_mut(j);
        let col = &mut rest[0];
        for prev in done.iter() {
            let dot: f32 = col.iter().zip(prev.iter()).map(|(a, b)| a * b).sum();
            for (v, p) in col.iter_mut().zip(prev.iter()) {
                *v -= dot * p;
            }
        }
        let norm: f32 = col.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-12);
        for v in col.iter_mut() {
            *v /= norm;
        }
    }
    let mut out = Tensor::zeros(&[d, k]);
    for (j, col) in cols.iter().enumerate() {
        for (i, &v) in col.iter().enumerate() {
            out.set(&[i, j], v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gld_tensor::TensorRng;
    use proptest::prelude::*;

    #[test]
    fn dct_basis_is_orthonormal() {
        let b = dct_basis(16);
        let gram = b.transpose2().matmul(&b);
        let err = gram.sub(&Tensor::eye(16)).abs().max();
        assert!(err < 1e-4, "orthonormality error {err}");
    }

    #[test]
    fn bound_is_met_and_correction_is_decodable() {
        let mut rng = TensorRng::new(1);
        let original = rng.randn(&[4, 16, 16]).scale(3.0);
        let reconstruction = original.add(&rng.randn(&[4, 16, 16]).scale(0.4));
        let eb = PcaErrorBound::new(ErrorBoundConfig::default());
        let before = original.sub(&reconstruction).l2_norm();
        let tau = before * 0.25;
        let (corrected, aux, outcome) = eb.apply(&original, &reconstruction, tau);
        let after = original.sub(&corrected).l2_norm();
        assert!(
            after <= tau * 1.001,
            "corrected error {after} exceeds tau {tau}"
        );
        assert!((outcome.achieved - after).abs() < tau * 0.05);
        assert!(outcome.coefficients > 0);
        // Decoder-side reconstruction from the aux stream matches.
        let decoded = eb.apply_from_aux(&reconstruction, &aux);
        let diff = decoded.sub(&corrected).abs().max();
        assert!(diff < 1e-4, "aux decode mismatch {diff}");
    }

    #[test]
    fn poisoned_reconstruction_is_corrected_not_propagated() {
        // A diverged sampler hands over NaN and infinite samples; `apply`
        // used to panic sorting the NaN coefficients they produce.
        let mut rng = TensorRng::new(3);
        let original = rng.randn(&[4, 16, 16]).scale(3.0);
        let mut reconstruction = original.add(&rng.randn(&[4, 16, 16]).scale(0.4));
        for (i, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
            .into_iter()
            .enumerate()
        {
            reconstruction.data_mut()[i * 257 + 5] = bad;
        }
        let eb = PcaErrorBound::new(ErrorBoundConfig::default());
        let tau = 2.0;
        let (corrected, aux, outcome) = eb.apply(&original, &reconstruction, tau);
        assert!(corrected.data().iter().all(|v| v.is_finite()));
        let after = original.sub(&corrected).l2_norm();
        assert!(
            after <= tau * 1.001,
            "corrected error {after} exceeds tau {tau}"
        );
        assert!(outcome.achieved.is_finite());
        // The decoder regenerates the same poisoned samples and must land on
        // the same corrected block.
        let decoded = eb.apply_from_aux(&reconstruction, &aux);
        assert!(decoded.data().iter().all(|v| v.is_finite()));
        let diff = decoded.sub(&corrected).abs().max();
        assert!(diff < 1e-4, "aux decode mismatch {diff}");
    }

    #[test]
    fn already_good_reconstruction_needs_no_coefficients() {
        let mut rng = TensorRng::new(2);
        let original = rng.randn(&[2, 8, 8]);
        let reconstruction = original.add(&rng.randn(&[2, 8, 8]).scale(1e-4));
        let eb = PcaErrorBound::new(ErrorBoundConfig::default());
        let tau = 1.0;
        let (_, aux, outcome) = eb.apply(&original, &reconstruction, tau);
        assert_eq!(outcome.coefficients, 0);
        // Aux stream still decodable and tiny.
        assert!(aux.len() < 200);
    }

    #[test]
    fn tighter_bound_costs_more_bytes() {
        let mut rng = TensorRng::new(3);
        let original = rng.randn(&[4, 16, 16]);
        let reconstruction = original.add(&rng.randn(&[4, 16, 16]).scale(0.3));
        let eb = PcaErrorBound::new(ErrorBoundConfig::default());
        let before = original.sub(&reconstruction).l2_norm();
        let (_, aux_loose, _) = eb.apply(&original, &reconstruction, before * 0.5);
        let (_, aux_tight, _) = eb.apply(&original, &reconstruction, before * 0.05);
        assert!(aux_tight.len() > aux_loose.len());
    }

    #[test]
    fn fitted_pca_basis_beats_dct_on_structured_residuals() {
        // Residuals that live in a low-dimensional subspace: a PCA basis
        // fitted on samples needs fewer coefficients than the generic DCT.
        let mut rng = TensorRng::new(4);
        let d = 16;
        let dir1 = rng.randn(&[d]);
        let dir2 = rng.randn(&[d]);
        let make_residual = |rng: &mut TensorRng, rows: usize| -> Tensor {
            let mut data = Vec::with_capacity(rows * d);
            for _ in 0..rows {
                let a = rng.sample_normal();
                let b = rng.sample_normal();
                for i in 0..d {
                    data.push(a * dir1.data()[i] + b * dir2.data()[i]);
                }
            }
            Tensor::from_vec(data, &[rows, d])
        };
        let train = make_residual(&mut rng, 64);
        let cfg = ErrorBoundConfig { chunk: d };
        let fitted = PcaErrorBound::fit(cfg, &train);
        let generic = PcaErrorBound::new(cfg);

        let test_res = make_residual(&mut rng, 16).reshape(&[16 * d]);
        let original = rng.randn(&[16 * d]);
        let reconstruction = original.sub(&test_res);
        let tau = test_res.l2_norm() * 0.1;
        let (_, _, out_fitted) = fitted.apply(&original, &reconstruction, tau);
        let (_, _, out_generic) = generic.apply(&original, &reconstruction, tau);
        assert!(
            out_fitted.coefficients <= out_generic.coefficients,
            "fitted {} vs generic {}",
            out_fitted.coefficients,
            out_generic.coefficients
        );
    }

    #[test]
    fn tau_for_nrmse_inverts_the_metric() {
        let mut rng = TensorRng::new(5);
        let original = rng.randn(&[4, 16, 16]).scale(7.0);
        let reconstruction = original.add(&rng.randn(&[4, 16, 16]).scale(1.0));
        let target = 1e-3;
        let tau = PcaErrorBound::tau_for_nrmse(&original, target);
        let eb = PcaErrorBound::new(ErrorBoundConfig::default());
        let (corrected, _, _) = eb.apply(&original, &reconstruction, tau);
        let achieved = gld_tensor::stats::nrmse(&original, &corrected);
        assert!(
            achieved <= target * 1.001,
            "NRMSE {achieved} exceeds target {target}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_bound_always_met(seed in 0u64..300, noise in 0.05f32..1.0, frac in 0.05f32..0.9) {
            let mut rng = TensorRng::new(seed);
            let original = rng.randn(&[2, 8, 8]).scale(2.0);
            let reconstruction = original.add(&rng.randn(&[2, 8, 8]).scale(noise));
            let eb = PcaErrorBound::new(ErrorBoundConfig { chunk: 16 });
            let before = original.sub(&reconstruction).l2_norm();
            let tau = (before * frac).max(1e-4);
            let (corrected, _, _) = eb.apply(&original, &reconstruction, tau);
            prop_assert!(original.sub(&corrected).l2_norm() <= tau * 1.001);
        }
    }
}
