//! Integration test for the paper's central reliability claim (§3.5): no
//! matter how well or badly the learned pipeline reconstructs, the PCA
//! post-processing step must always deliver the requested error bound, and
//! the auxiliary stream must be decodable on the decoder side.

use gld_core::{
    BlockJob, Codec, CodecScratch, ErrorBoundConfig, ErrorTarget, GldCompressor, GldConfig,
    GldTrainingBudget, PcaErrorBound,
};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_tensor::stats::nrmse;
use gld_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

#[test]
fn bound_holds_across_targets_and_datasets() {
    let spec = FieldSpec::tiny();
    let budget = GldTrainingBudget {
        vae_steps: 80,
        diffusion_steps: 80,
        fine_tune_steps: 0,
        fine_tune_schedule: 16,
    };
    for kind in [DatasetKind::E3sm, DatasetKind::Jhtdb] {
        let ds = generate(kind, &spec, 53);
        let config = GldConfig::tiny();
        let compressor = GldCompressor::train(config, &ds.variables, budget);
        let block = ds.variables[0].frames.slice_axis(0, 0, config.block_frames);
        for target in [2e-2f32, 5e-3, 1e-3] {
            let job = BlockJob::new(&block, Some(ErrorTarget::Nrmse(target)), 0);
            let encoded = compressor.encode(&job, &mut CodecScratch::new());
            let recon = compressor
                .decode(&encoded.expect("an [N, H, W] block").frame, None)
                .expect("frame decodes");
            let achieved = nrmse(&block, &recon);
            assert!(
                achieved <= target * 1.01,
                "{kind:?} target {target}: achieved {achieved}"
            );
        }
    }
}

#[test]
fn bound_holds_even_for_a_deliberately_bad_reconstruction() {
    // The module must rescue an arbitrarily poor reconstruction; the cost is
    // only a larger auxiliary stream.
    let mut rng = TensorRng::new(99);
    let original = rng.randn(&[8, 16, 16]).scale(100.0);
    let garbage = rng.randn(&[8, 16, 16]); // uncorrelated with the original
    let module = PcaErrorBound::new(ErrorBoundConfig::default());
    let tau = PcaErrorBound::tau_for_nrmse(&original, 1e-3);
    let (corrected, aux, outcome) = module.apply(&original, &garbage, tau);
    assert!(nrmse(&original, &corrected) <= 1e-3 * 1.01);
    assert!(outcome.coefficients > 0);
    // Decoder-side replay matches the encoder-side corrected result.
    let replay = module.apply_from_aux(&garbage, &aux);
    assert!(replay.sub(&corrected).abs().max() < 1e-4);
}

#[test]
fn aux_stream_size_scales_with_reconstruction_quality() {
    // A better starting reconstruction needs a smaller correction stream —
    // the property that makes "learned compressor + guarantee" worthwhile at
    // all compared to coding the residual from scratch.
    let mut rng = TensorRng::new(7);
    let original = rng.randn(&[8, 16, 16]).scale(10.0);
    let good = original.add(&rng.randn(&[8, 16, 16]).scale(0.1));
    let bad = original.add(&rng.randn(&[8, 16, 16]).scale(3.0));
    let module = PcaErrorBound::new(ErrorBoundConfig::default());
    let tau = PcaErrorBound::tau_for_nrmse(&original, 2e-3);
    let (_, aux_good, _) = module.apply(&original, &good, tau);
    let (_, aux_bad, _) = module.apply(&original, &bad, tau);
    assert!(
        aux_good.len() < aux_bad.len(),
        "good recon aux {} should be smaller than bad recon aux {}",
        aux_good.len(),
        aux_bad.len()
    );
}

/// ‖a − b‖₂ with the differences taken in `f32` (as stored) and the sum and
/// root in `f64`, so the norm's own rounding is below one part in 10¹⁵.
fn l2_distance(a: &Tensor, b: &Tensor) -> f64 {
    let squares = a.data().iter().zip(b.data()).map(|(x, y)| {
        let d = (*x - *y) as f64;
        d * d
    });
    squares.sum::<f64>().sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The guarantee is stated on what a reader decodes: `apply`'s tensor is
    /// `apply_from_aux`'s, bit for bit, and that tensor is within τ of the
    /// original — for healthy, NaN and ±∞ reconstructions, with and without
    /// a partial last chunk.
    ///
    /// Slack: the greedy selection stops on a chunk error it sums in `f32`
    /// over a correction accumulated apart from the block, while the decoder
    /// adds each kept term into the block; the two differ by at most one
    /// rounding per kept term and element.  With at most `chunk` = 16 terms,
    /// unit roundoff 2⁻²⁴ and values bounded by `M`, that is
    /// `17 · 2⁻²⁴ · M` per element, `√n` times that in ℓ2, plus the same
    /// relative error on the selection's own `f32` sum of 16 squares
    /// (`17 · 2⁻²⁴ · τ`).  Nothing wider: a case beyond it is a finding.
    #[test]
    fn the_decoded_tensor_is_applys_tensor_and_meets_the_bound(
        seed in 0u64..100_000,
        scale in 0.1f32..100.0,
        noise in 0.01f32..2.0,
        frac in 0.02f32..0.9,
        tail in 0usize..16,
        poisoned in 0usize..5,
    ) {
        let mut rng = TensorRng::new(seed);
        let n = 8 * 16 + tail;
        let original = rng.randn(&[n]).scale(scale);
        let mut reconstruction = original.add(&rng.randn(&[n]).scale(noise * scale));
        for (k, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]
            .into_iter()
            .take(poisoned)
            .enumerate()
        {
            reconstruction.data_mut()[(k * 37 + seed as usize) % n] = bad;
        }
        let module = PcaErrorBound::new(ErrorBoundConfig::default());
        // Both sides start from 0.0 where the reconstruction is not finite.
        let start = reconstruction.map(|v| if v.is_finite() { v } else { 0.0 });
        let tau = (l2_distance(&original, &start) as f32 * frac).max(1e-3 * scale);

        let (corrected, aux, outcome) = module.apply(&original, &reconstruction, tau);
        let decoded = module.apply_from_aux(&reconstruction, &aux);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert!(
            bits(&corrected) == bits(&decoded),
            "apply's tensor is not the one the decoder rebuilds"
        );
        prop_assert_eq!(outcome.aux_bytes, aux.len());

        let magnitude = original.abs().max().max(start.abs().max()) as f64;
        let roundoff = 17.0 * 2f64.powi(-24);
        let slack = roundoff * (tau as f64 + (n as f64).sqrt() * magnitude);
        let achieved = l2_distance(&original, &decoded);
        prop_assert!(
            achieved <= tau as f64 + slack,
            "‖o − decoded‖₂ = {achieved} exceeds τ = {tau} by more than {slack}"
        );
    }
}
