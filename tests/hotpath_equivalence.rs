//! Equivalence suite for the allocation-free hot path: every optimized
//! kernel must be **bit-identical** to its frozen pre-optimisation
//! reference.
//!
//! Three layers are pinned down:
//!
//! * **entropy** — the table-driven range coder round-trips arbitrary
//!   histogram streams, the LUT symbol search resolves exactly the same
//!   bins (and consumes exactly the same stream state) as the binary-search
//!   reference, and the reference arithmetic back end still decodes its own
//!   streams through the shared model code;
//! * **kernels** — the split boundary/interior Lorenzo walk with branchless
//!   quantisation (`SzCompressor`) and the tiled ZFP-like path produce
//!   byte-identical frames to `gld_baselines::reference` driven over the
//!   same range back end, and decompress to bit-identical tensors;
//! * **arena** — `Codec::encode` with an arbitrarily dirty `CodecScratch`
//!   equals the same encode with a fresh one, and the streaming executor
//!   (whose workers reuse thread-local arenas) emits containers
//!   byte-identical to the sequential reference across queue depths.  CI
//!   runs this file on both `RAYON_NUM_THREADS` legs;
//! * **backends** — every SIMD kernel backend the host supports produces
//!   byte-identical frames, containers and LZ stage streams to the forced
//!   scalar backend, through the full compressors, across dirty scratch
//!   reuse and under the parallel executor.  CI additionally runs the whole
//!   suite with `GLD_KERNEL_BACKEND=scalar`.

use gld_baselines::{reference, ErrorBoundedCompressor, SzCompressor, ZfpLikeCompressor};
use gld_core::{
    BlockJob, Codec, CodecError, CodecScratch, Container, ErrorTarget, GldCompressor, GldConfig,
    LearnedBaseline, LearnedBaselineKind, StreamConfig,
};
use gld_datasets::Variable;
use gld_diffusion::ConditionalDiffusion;
use gld_entropy::{
    ArithmeticBackend, EntropyBackend, EntropyEncoder, HistogramModel, RangeBackend, RangeDecoder,
    RangeEncoder,
};
use gld_tensor::{Tensor, TensorRng};
use gld_vae::{Vae, VaeConfig};
use proptest::prelude::*;

fn random_tensor(seed: u64, dims: &[usize]) -> Tensor {
    let mut rng = TensorRng::new(seed);
    rng.randn(dims).scale(3.0)
}

/// Shapes mixing ranks, interior-heavy volumes and degenerate edges.
fn shape_matrix() -> Vec<Vec<usize>> {
    vec![
        vec![48],
        vec![1, 1, 1],
        vec![7, 9],
        vec![4, 12, 12],
        vec![3, 5, 17],
        vec![1, 16, 16],
        vec![2, 2, 8, 8],
        vec![5, 1, 9],
    ]
}

// ----------------------------------------------------------------------
// Entropy layer
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The LUT-driven symbol search and the binary-search reference must
    /// resolve identical symbols from identical stream state, symbol by
    /// symbol.
    #[test]
    fn lut_decode_equals_binary_search_decode(
        symbols in prop::collection::vec(-600i32..600, 1..400),
    ) {
        let model = HistogramModel::fit(&symbols);
        let mut enc = RangeEncoder::new();
        model.encode(&mut enc, &symbols);
        let bytes = enc.finish();
        let mut lut_dec = RangeDecoder::new(&bytes);
        let mut ref_dec = RangeDecoder::new(&bytes);
        for &expected in &symbols {
            let via_lut = model.decode_symbol(&mut lut_dec);
            let via_search = model.decode_symbol_binary_search(&mut ref_dec);
            prop_assert_eq!(via_lut, expected);
            prop_assert_eq!(via_search, expected);
        }
    }

    /// Both entropy back ends must round-trip the same model-coded stream
    /// (each over its own bytes — the coders differ on the wire by design).
    #[test]
    fn both_backends_roundtrip_histogram_streams(
        symbols in prop::collection::vec(-50i32..50, 1..300),
    ) {
        fn run<B: EntropyBackend>(symbols: &[i32]) -> Vec<i32> {
            let model = HistogramModel::fit(symbols);
            let mut enc = B::encoder();
            model.encode(&mut enc, symbols);
            let bytes = enc.finish();
            let mut dec = B::decoder(&bytes);
            model.decode(&mut dec, symbols.len())
        }
        prop_assert_eq!(run::<RangeBackend>(&symbols), symbols.clone());
        prop_assert_eq!(run::<ArithmeticBackend>(&symbols), symbols);
    }
}

// ----------------------------------------------------------------------
// Kernel layer: optimized vs reference, byte-for-byte
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sz_optimized_kernel_is_bit_identical_to_reference(
        seed in 0u64..10_000,
        eb_exp in -4i32..0,
        d0 in 1usize..5,
        d1 in 1usize..14,
        d2 in 1usize..14,
    ) {
        let data = random_tensor(seed, &[d0, d1, d2]);
        let eb = 10f32.powi(eb_exp);
        let sz = SzCompressor::new();
        let optimized = sz.compress(&data, eb);
        let reference = reference::sz_compress::<RangeBackend>(&data, eb);
        prop_assert_eq!(&optimized, &reference);
        let fast = sz.decompress(&optimized);
        let slow = reference::sz_decompress::<RangeBackend>(&reference);
        prop_assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn zfp_optimized_kernel_is_bit_identical_to_reference(
        seed in 0u64..10_000,
        eb in 0.001f32..0.5,
        d0 in 1usize..6,
        d1 in 1usize..11,
        d2 in 1usize..11,
    ) {
        let data = random_tensor(seed, &[d0, d1, d2]);
        let zfp = ZfpLikeCompressor::new();
        let optimized = zfp.compress(&data, eb);
        let reference = reference::zfp_compress::<RangeBackend>(&data, eb);
        prop_assert_eq!(&optimized, &reference);
        let fast = zfp.decompress(&optimized);
        let slow = reference::zfp_decompress::<RangeBackend>(&reference);
        prop_assert_eq!(fast.data(), slow.data());
    }

    /// Outlier-heavy fields exercise the escape/verbatim path through both
    /// kernels.
    #[test]
    fn escape_paths_are_bit_identical_to_reference(
        seed in 0u64..10_000,
        spike in 1e8f32..1e30,
    ) {
        let mut data = random_tensor(seed, &[3, 8, 8]);
        let n = data.numel();
        let spike_at = (seed as usize * 31) % n;
        let mut v = data.data().to_vec();
        v[spike_at] = spike;
        v[(spike_at + n / 2) % n] = -spike;
        data = Tensor::from_vec(v, &[3, 8, 8]);
        let sz = SzCompressor::new();
        prop_assert_eq!(
            sz.compress(&data, 1e-3),
            reference::sz_compress::<RangeBackend>(&data, 1e-3)
        );
        let zfp = ZfpLikeCompressor::new();
        prop_assert_eq!(
            zfp.compress(&data, 1e-3),
            reference::zfp_compress::<RangeBackend>(&data, 1e-3)
        );
    }
}

#[test]
fn rank_matrix_is_bit_identical_to_reference() {
    for (i, dims) in shape_matrix().into_iter().enumerate() {
        let data = random_tensor(100 + i as u64, &dims);
        for eb in [1e-1f32, 1e-3] {
            assert_eq!(
                SzCompressor::new().compress(&data, eb),
                reference::sz_compress::<RangeBackend>(&data, eb),
                "sz dims {dims:?} eb {eb}"
            );
            assert_eq!(
                ZfpLikeCompressor::new().compress(&data, eb),
                reference::zfp_compress::<RangeBackend>(&data, eb),
                "zfp dims {dims:?} eb {eb}"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Arena layer: scratch reuse and the streaming executor
// ----------------------------------------------------------------------

#[test]
fn dirty_codec_scratch_never_changes_frames() {
    // One scratch carried across codecs *and* shapes — worst-case staleness.
    let mut scratch = CodecScratch::new();
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    for (i, dims) in shape_matrix().into_iter().enumerate() {
        let block = random_tensor(200 + i as u64, &dims);
        for codec in [&sz as &dyn Codec, &zfp] {
            for target in [
                None,
                Some(ErrorTarget::PointwiseAbs(0.01)),
                Some(ErrorTarget::Nrmse(1e-3)),
            ] {
                let fresh = encode(codec, &block, target, &mut CodecScratch::new());
                let reused = encode(codec, &block, target, &mut scratch);
                assert_eq!(fresh, reused, "codec {} dims {dims:?}", codec.name());
            }
        }
    }
}

#[test]
fn streaming_executor_with_arenas_matches_sequential_reference() {
    let frames = 18;
    let t = random_tensor(7, &[frames, 12, 12]);
    let variable = Variable::new("hotpath-var", t);
    let sz = SzCompressor::new();
    let (seq, seq_stats) = sz.compress_variable_sequential(&variable, 3, None);
    for depth in [1, 2, 7] {
        let (streamed, stats, _) =
            sz.compress_variable_streaming(&variable, 3, None, StreamConfig { queue_depth: depth });
        assert_eq!(streamed.encode(), seq.encode(), "depth {depth}");
        assert_eq!(stats, seq_stats, "depth {depth}");
    }
}

/// The frame of an unmeasured, cold encode.
fn encode(
    codec: &dyn Codec,
    block: &Tensor,
    target: Option<ErrorTarget>,
    scratch: &mut CodecScratch,
) -> Vec<u8> {
    let job = BlockJob::new(block, target, 0);
    codec
        .encode(&job, scratch)
        .expect("a supported block")
        .frame
}

#[test]
fn rank5_block_is_a_typed_codec_error_through_the_trait() {
    let vae = Vae::new(VaeConfig::tiny());
    let config = GldConfig::tiny();
    let gld = GldCompressor::from_parts(
        config,
        Vae::new(config.vae),
        ConditionalDiffusion::new(config.diffusion),
    );
    let families: [(&dyn Codec, &[usize]); 5] = [
        (&SzCompressor::new(), &[5]),
        (&ZfpLikeCompressor::new(), &[5]),
        (
            &LearnedBaseline::new(LearnedBaselineKind::VaeSr, &vae, None),
            &[2, 4, 5],
        ),
        (
            &LearnedBaseline::new(LearnedBaselineKind::CdcX, &vae, None),
            &[2, 4, 5],
        ),
        (&gld, &[2, 4, 5]),
    ];
    for (codec, ranks) in families {
        for &rank in ranks {
            let block = Tensor::zeros(&[2, 2, 2, 2, 2][..rank]);
            let job = BlockJob::new(&block, None, 0);
            let err = codec
                .encode(&job, &mut CodecScratch::new())
                .expect_err("the rank must be rejected");
            assert_eq!(
                err,
                CodecError::UnsupportedRank { rank },
                "codec {}",
                codec.name()
            );
            assert!(err.to_string().contains(&format!("rank {rank}")));
        }
    }
    // GLD codes blocks of exactly N frames.
    let block = Tensor::zeros(&[config.block_frames / 2, 16, 16]);
    let err = gld
        .encode(&BlockJob::new(&block, None, 0), &mut CodecScratch::new())
        .expect_err("a short block must be rejected");
    assert_eq!(
        err,
        CodecError::FrameCount {
            expected: config.block_frames,
            got: config.block_frames / 2
        }
    );
}

#[test]
fn rank4_block_still_compresses_through_the_try_path() {
    let block = random_tensor(9, &[2, 2, 6, 6]);
    let sz = SzCompressor::new();
    let frame = encode(&sz, &block, None, &mut CodecScratch::new());
    assert_eq!(frame, sz.compress_block_at(&block, None, 0));
}

// ----------------------------------------------------------------------
// Backend layer: every SIMD backend vs forced scalar, through full codecs
// ----------------------------------------------------------------------

use gld_kernels::Backend;
use std::sync::Mutex;

/// Serialises tests that force the process-global kernel backend.  (Tests
/// that *don't* force one are unaffected by a concurrent force: all
/// backends are bit-identical, which is exactly what this section proves.)
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

/// Runs `op` once per available backend and asserts every backend's output
/// equals the scalar backend's.
fn assert_backends_agree<T: PartialEq + std::fmt::Debug>(label: &str, mut op: impl FnMut() -> T) {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    gld_kernels::force(Backend::Scalar).expect("scalar always available");
    let expected = op();
    for backend in gld_kernels::available_backends() {
        if backend == Backend::Scalar {
            continue;
        }
        gld_kernels::force(backend).expect("listed backends are available");
        let got = op();
        assert_eq!(got, expected, "{label}: {backend} diverged from scalar");
    }
    gld_kernels::clear_force();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full SZ and ZFP frames — including decompressed tensors bit-for-bit
    /// (the decode side exercises the SIMD CDF scan) — must not depend on
    /// the backend, over random shapes and error bounds.
    #[test]
    fn all_backends_produce_identical_frames(
        seed in 0u64..10_000,
        eb_exp in -4i32..0,
        d0 in 1usize..5,
        d1 in 1usize..14,
        d2 in 1usize..14,
    ) {
        let data = random_tensor(seed, &[d0, d1, d2]);
        let eb = 10f32.powi(eb_exp);
        let sz = SzCompressor::new();
        let zfp = ZfpLikeCompressor::new();
        assert_backends_agree("sz frame+decode", || {
            let frame = sz.compress(&data, eb);
            let bits: Vec<u32> = sz.decompress(&frame).data().iter().map(|v| v.to_bits()).collect();
            (frame, bits)
        });
        assert_backends_agree("zfp frame+decode", || {
            let frame = zfp.compress(&data, eb);
            let bits: Vec<u32> = zfp.decompress(&frame).data().iter().map(|v| v.to_bits()).collect();
            (frame, bits)
        });
    }

    /// Escape-heavy fields (huge spikes, non-finite cells) hit the verbatim
    /// paths of every backend's quantiser.
    #[test]
    fn backend_escape_paths_are_identical(
        seed in 0u64..10_000,
        spike in 1e8f32..1e30,
    ) {
        let mut v = random_tensor(seed, &[3, 8, 8]).data().to_vec();
        let n = v.len();
        let spike_at = (seed as usize * 31) % n;
        v[spike_at] = spike;
        v[(spike_at + n / 2) % n] = -spike;
        v[(spike_at + n / 3) % n] = f32::INFINITY;
        let data = Tensor::from_vec(v, &[3, 8, 8]);
        let sz = SzCompressor::new();
        let zfp = ZfpLikeCompressor::new();
        assert_backends_agree("sz escapes", || sz.compress(&data, 1e-3));
        assert_backends_agree("zfp escapes", || zfp.compress(&data, 1e-3));
    }

    /// The LZ stage (batch hashing + SIMD match extension) must emit
    /// identical stage streams on every backend, for both compressed-frame
    /// payloads and pathological repetitive input.
    #[test]
    fn lz_stage_streams_are_identical_across_backends(
        seed in 0u64..10_000,
        period in 1usize..40,
    ) {
        let frame = SzCompressor::new().compress(&random_tensor(seed, &[4, 10, 10]), 1e-2);
        let repetitive: Vec<u8> = (0..2048).map(|i| (i % period) as u8).collect();
        assert_backends_agree("lz stage", || {
            let mut scratch = gld_lz::LzScratch::new();
            (
                gld_lz::compress(&frame, &mut scratch),
                gld_lz::compress(&repetitive, &mut scratch),
            )
        });
    }
}

/// A `CodecScratch` dirtied by one backend then reused by another must not
/// change any frame — arena reuse and backend dispatch are orthogonal.
#[test]
fn dirty_scratch_reused_across_backends_is_identical() {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    let backends = gld_kernels::available_backends();
    let mut scratch = CodecScratch::new();
    for (i, dims) in shape_matrix().into_iter().enumerate() {
        let block = random_tensor(300 + i as u64, &dims);
        for codec in [&sz as &dyn Codec, &zfp] {
            let fresh = encode(codec, &block, None, &mut CodecScratch::new());
            // Rotate through every backend with the same dirty scratch.
            for &backend in &backends {
                gld_kernels::force(backend).expect("available");
                let reused = encode(codec, &block, None, &mut scratch);
                assert_eq!(
                    reused,
                    fresh,
                    "codec {} dims {dims:?} backend {backend}",
                    codec.name()
                );
            }
        }
    }
    gld_kernels::clear_force();
}

/// Container v4 (shared profiles + warm semi-static stage) must encode to
/// the same bytes on every kernel backend: profile fitting, the frozen
/// coding tables, and the dictionary-primed match finder all sit on top of
/// backend-dispatched kernels, and a v4 container written on an AVX2 host
/// must decode warm on a scalar one.
#[test]
fn v4_profiled_containers_are_identical_across_backends() {
    let t = random_tensor(41, &[24, 12, 12]);
    let variable = Variable::new("profile-var", t);
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    assert_backends_agree("sz v4 profiled", || {
        let (container, _) = sz.compress_variable_profiled_sequential(&variable, 8, None);
        let v4 = container.encode();
        let blocks = sz
            .decompress_container(&Container::decode(&v4).expect("v4 decodes"))
            .expect("v4 decompresses");
        let bits: Vec<Vec<u32>> = blocks
            .iter()
            .map(|b| b.data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (v4, bits)
    });
    assert_backends_agree("zfp v4 profiled", || {
        let (container, _) = zfp.compress_variable_profiled_sequential(&variable, 8, None);
        container.encode()
    });
}

/// The parallel streaming executor with the best SIMD backend forced must
/// equal the sequential reference — SIMD dispatch is safe under the
/// thread-pooled arena path.
#[test]
fn streaming_executor_matches_sequential_with_simd_forced() {
    let _guard = BACKEND_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let t = random_tensor(8, &[18, 12, 12]);
    let variable = Variable::new("backend-var", t);
    let sz = SzCompressor::new();
    gld_kernels::force(Backend::Scalar).expect("scalar always available");
    let (seq, seq_stats) = sz.compress_variable_sequential(&variable, 3, None);
    gld_kernels::force(gld_kernels::best_available()).expect("best backend is available");
    let (streamed, stats, _) =
        sz.compress_variable_streaming(&variable, 3, None, StreamConfig { queue_depth: 2 });
    assert_eq!(streamed.encode(), seq.encode());
    assert_eq!(stats, seq_stats);
    gld_kernels::clear_force();
}
