//! Property-based integration tests spanning several crates: whatever the
//! keyframe strategy, block geometry or error target, the pipeline's core
//! invariants must hold.

use gld_core::container::{stage_frame, stage_frame_profiled};
use gld_core::{
    CodecId, Container, DictMode, EntropyProfile, ErrorBoundConfig, KeyframeStrategy, PcaErrorBound,
};
use gld_datasets::blocks::{block_to_nchw, nchw_to_block};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_diffusion::FramePartition;
use gld_lz::{LzProfile, LzScratch};
use gld_tensor::stats::nrmse;
use gld_tensor::{Tensor, TensorRng};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn keyframe_partitions_are_always_valid(
        n in 4usize..32,
        interval in 2usize..8,
        pred_count in 1usize..8,
    ) {
        for strategy in [
            KeyframeStrategy::Interpolation { interval },
            KeyframeStrategy::Prediction { count: pred_count },
            KeyframeStrategy::Mixed { count: pred_count.max(2) },
        ] {
            let partition = strategy.partition(n);
            prop_assert_eq!(partition.total, n);
            prop_assert!(partition.num_generated() > 0);
            prop_assert!(partition.num_conditioning() > 0);
            let mut all: Vec<usize> = partition
                .conditioning
                .iter()
                .chain(partition.generated.iter())
                .copied()
                .collect();
            all.sort_unstable();
            prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn error_bound_module_always_meets_nrmse_targets(
        seed in 0u64..400,
        noise in 0.01f32..2.0,
        target_exp in -4i32..-1,
    ) {
        let mut rng = TensorRng::new(seed);
        let original = rng.randn(&[4, 8, 8]).scale(5.0);
        let recon = original.add(&rng.randn(&[4, 8, 8]).scale(noise));
        let target = 10f32.powi(target_exp);
        let module = PcaErrorBound::new(ErrorBoundConfig { chunk: 16 });
        let tau = PcaErrorBound::tau_for_nrmse(&original, target);
        let (corrected, aux, _) = module.apply(&original, &recon, tau);
        prop_assert!(nrmse(&original, &corrected) <= target * 1.01);
        let replay = module.apply_from_aux(&recon, &aux);
        prop_assert!(replay.sub(&corrected).abs().max() < 1e-3);
    }

    #[test]
    fn splice_then_partition_roundtrip(seed in 0u64..200, n in 3usize..10) {
        let mut rng = TensorRng::new(seed);
        let clean = rng.randn(&[n, 2, 4, 4]);
        let noisy = rng.randn(&[n, 2, 4, 4]);
        let strategy = KeyframeStrategy::Interpolation { interval: 3 };
        let partition: FramePartition = strategy.partition(n);
        let spliced = gld_diffusion::model::splice_frames(&noisy, &clean, &partition);
        // Conditioning frames come from `clean`, generated frames from `noisy`.
        for &c in &partition.conditioning {
            prop_assert_eq!(spliced.index_select(0, &[c]), clean.index_select(0, &[c]));
        }
        for &g in &partition.generated {
            prop_assert_eq!(spliced.index_select(0, &[g]), noisy.index_select(0, &[g]));
        }
    }

    #[test]
    fn block_layout_conversions_are_inverses(seed in 0u64..200, n in 1usize..6) {
        let mut rng = TensorRng::new(seed);
        let block = rng.randn(&[n, 8, 8]);
        prop_assert_eq!(nchw_to_block(&block_to_nchw(&block)), block);
    }
}

/// A valid container of `frames` in wire version `version` (1–4).  The v4
/// leg fits a first-block-dictionary profile on frame 0 and codes every
/// other frame under it, the shape the executor produces.
fn encode_frames(frames: &[Vec<u8>], version: u32) -> Vec<u8> {
    if version < 4 {
        let container = Container::from_blocks(CodecId::ZfpLike, frames.to_vec());
        return match version {
            1 => container.encode_v1(),
            2 => container.encode_v2(),
            _ => container.encode_v3(),
        };
    }
    let mut scratch = LzScratch::new();
    let first = frames.first().cloned().unwrap_or_default();
    let lz = LzProfile::fit(&first, &mut scratch);
    let profile = EntropyProfile {
        model: None,
        lz: Some(lz.clone()),
        dict_mode: DictMode::FirstBlock,
    };
    let mut container = Container::with_profiles(CodecId::ZfpLike, vec![profile]);
    for (index, frame) in frames.iter().enumerate() {
        if index == 0 {
            let staged = stage_frame(frame, &mut scratch);
            container.push_staged(frame.clone(), staged);
        } else {
            let staged = stage_frame_profiled(frame, &first, &lz, &mut scratch);
            container.push_profiled(frame.clone(), 1, staged);
        }
    }
    container.encode()
}

/// The one statement tying the two container walkers together: whatever
/// strict decode accepts, salvage returns complete and frame-identical —
/// and neither panics on anything.  True by construction (both are one
/// walk over one frame reader); this keeps it true.
fn strict_implies_complete_salvage(bytes: &[u8]) -> Result<(), TestCaseError> {
    let strict = Container::decode(bytes);
    let salvage = Container::decode_salvage(bytes);
    if let Ok(container) = strict {
        let salvage = salvage.map_err(|e| TestCaseError::fail(format!("salvage refused: {e}")))?;
        prop_assert!(salvage.is_complete(), "incomplete: {:?}", salvage.report);
        let frames: Vec<Vec<u8>> = salvage.frames.into_iter().flatten().collect();
        prop_assert_eq!(frames.as_slice(), container.blocks());
        prop_assert_eq!(salvage.report.version, container.wire_version());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn container_walkers_agree_on_arbitrary_bytes(
        version in 0u32..5,
        codec in 0u32..9,
        count in 0u32..6,
        tail in prop::collection::vec(0u32..256, 0..160),
    ) {
        // Pure noise dies at the magic; most cases get a plausible header
        // (sometimes with an unknown codec) so the walkers see the tail.
        let mut bytes = Vec::new();
        if version > 0 {
            bytes.extend_from_slice(b"GLDC");
            bytes.extend_from_slice(&(version as u16).to_le_bytes());
            bytes.extend_from_slice(&[codec as u8, u8::from(version >= 3)]);
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        bytes.extend(tail.iter().map(|&b| b as u8));
        strict_implies_complete_salvage(&bytes)?;
    }

    #[test]
    fn container_walkers_agree_on_mutated_encodings(
        version in 1u32..5,
        modulus in 2u32..257,
        frames in prop::collection::vec(prop::collection::vec(0u32..256, 0..48), 0..4),
        mutations in prop::collection::vec(0u64..u64::MAX, 0..=3),
    ) {
        // Small moduli give compressible frames, so the `Lz` stage and the
        // first-block dictionary are exercised as well as raw storage.
        let frames: Vec<Vec<u8>> = frames
            .iter()
            .map(|f| f.iter().map(|&b| (b % modulus) as u8).collect())
            .collect();
        let mut bytes = encode_frames(&frames, version);
        let intact = Container::decode(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(intact.blocks(), frames.as_slice());
        for mutation in mutations {
            // Overwrite, insert or delete one byte anywhere in the stream.
            let at = (mutation >> 16) as usize % bytes.len();
            let byte = (mutation >> 8) as u8;
            match mutation % 4 {
                0 => drop(bytes.remove(at)),
                1 => bytes.insert(at, byte),
                _ => bytes[at] = byte,
            }
        }
        strict_implies_complete_salvage(&bytes)?;
    }
}

#[test]
fn normalization_metadata_preserves_extreme_dynamic_range() {
    // Values spanning many orders of magnitude (the E3SM regime) survive the
    // per-frame normalisation round trip used throughout the pipeline.
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(4, 8, 16, 16), 5);
    for variable in &ds.variables {
        let frames = &variable.frames;
        let mut frames_norm = Vec::new();
        let mut params = Vec::new();
        for t in 0..frames.dim(0) {
            let f = frames.slice_axis(0, t, t + 1);
            let (n, mean, range) = f.normalize_mean_range();
            frames_norm.push(n);
            params.push((mean, range));
        }
        let refs: Vec<&Tensor> = frames_norm.iter().collect();
        let stacked = Tensor::concat(&refs, 0);
        let mut rebuilt = Vec::new();
        for (t, &(mean, range)) in params.iter().enumerate() {
            rebuilt.push(
                stacked
                    .slice_axis(0, t, t + 1)
                    .denormalize_mean_range(mean, range),
            );
        }
        let refs: Vec<&Tensor> = rebuilt.iter().collect();
        let back = Tensor::concat(&refs, 0);
        let err = nrmse(frames, &back);
        assert!(
            err < 1e-6,
            "variable {} round-trip NRMSE {err}",
            variable.name
        );
    }
}
