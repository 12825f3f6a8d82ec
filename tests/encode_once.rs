//! A measured `Codec::encode` — the encoder reporting its own error —
//! against the decode-and-sum it replaced.
//!
//! * **Per block**: for every codec × shared model × input class × scratch
//!   state a measured encode returns the frame an unmeasured one returns,
//!   SZ and GLD report a squared error whose bits equal those of summing
//!   against `Codec::decode`'s output, and the other codecs report none.
//! * **Per variable**: every compress path reports `VariableStats` equal,
//!   field by field and bit by bit, to the stats computed by decoding the
//!   container it returned.
//! * **Counted**: SZ and GLD decode nothing while compressing, a codec that
//!   reports no error is decoded exactly once per block (to the same NRMSE
//!   bits), and a bounded GLD block runs the diffusion sampler once.
//!
//! CI runs the suite under `RAYON_NUM_THREADS=1` and `=8`; the executor
//! configurations below cover the worker-count axis inside one process too.

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_core::{
    compress_variable_to_writer_fmt, fit_variable_profile, BlockJob, Codec, CodecError, CodecId,
    CodecScratch, Container, ContainerFormat, EncodedBlock, ErrorTarget, GldCompressor, GldConfig,
    LearnedBaseline, LearnedBaselineKind, StreamConfig, VariableStats,
};
use gld_datasets::blocks::temporal_windows;
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_diffusion::ConditionalDiffusion;
use gld_entropy::HistogramModel;
use gld_tensor::{Tensor, TensorRng};
use gld_vae::{Vae, VaeConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

const BLOCK_FRAMES: usize = 8;
const BOUNDED: Option<ErrorTarget> = Some(ErrorTarget::Nrmse(1e-2));

/// An untrained (but fully functional and deterministic) GLD pipeline.
fn untrained_compressor() -> GldCompressor {
    let config = GldConfig::tiny();
    GldCompressor::from_parts(
        config,
        Vae::new(config.vae),
        ConditionalDiffusion::new(config.diffusion),
    )
}

/// `gld_diffusion_generate_total` is process-global: tests that run GLD
/// hold this while they do, so the counted test reads only its own calls.
fn gld_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn variable(kind: DatasetKind, windows: usize, seed: u64) -> Variable {
    let spec = FieldSpec::new(1, windows * BLOCK_FRAMES, 16, 16);
    generate(kind, &spec, seed).variables.remove(0)
}

/// The sum the executor used to take after decoding the frame it wrote:
/// `f32` subtract, widen, square, add in index order.
fn decode_and_sum(original: &Tensor, recon: &Tensor) -> f64 {
    let mut sum = 0.0f64;
    for (a, b) in original.data().iter().zip(recon.data()) {
        let d = (*a - *b) as f64;
        sum += d * d;
    }
    sum
}

/// One `[8, 16, 16]` block per input class every codec must take.
fn finite_blocks() -> Vec<(&'static str, Tensor)> {
    let mut blocks: Vec<(&'static str, Tensor)> = Vec::new();
    for (name, kind) in [
        ("e3sm", DatasetKind::E3sm),
        ("s3d", DatasetKind::S3d),
        ("jhtdb", DatasetKind::Jhtdb),
    ] {
        blocks.push((name, variable(kind, 1, 17).frames));
    }
    blocks.push(("constant", Tensor::full(&[BLOCK_FRAMES, 16, 16], 3.75)));
    blocks
}

/// SZ's verbatim cells: NaN, both infinities and an outlier far past the
/// code range, in a smooth field.
fn poisoned_block() -> Tensor {
    let mut block = variable(DatasetKind::E3sm, 1, 23).frames;
    let data = block.data_mut();
    data[5] = f32::NAN;
    data[300] = f32::INFINITY;
    data[301] = f32::NEG_INFINITY;
    data[1111] = 1e20;
    data[2047] = -1e20;
    block
}

/// `codec.encode(job)`, on a block every codec takes.
fn encode(codec: &dyn Codec, job: BlockJob<'_>, scratch: &mut CodecScratch) -> EncodedBlock {
    codec.encode(&job, scratch).expect("a rank-3 block")
}

/// Checks one `(codec, block, target, model)` cell: fresh and dirty scratch
/// both return the reference frame and — measured by the codec, or by the
/// executor's decode-and-sum where the codec reports none — the reference
/// sum, bit for bit.
fn assert_measured_equals_reference(
    what: &str,
    codec: &dyn Codec,
    block: &Tensor,
    target: Option<ErrorTarget>,
    model: Option<&HistogramModel>,
    dirty: &mut CodecScratch,
) {
    let measures_itself = matches!(codec.id(), CodecId::SzLike | CodecId::Gld);
    for index in [0u64, 3] {
        let job = BlockJob {
            model,
            ..BlockJob::new(block, target, index)
        };
        let reference = encode(codec, job, &mut CodecScratch::new());
        assert_eq!(reference.sq_err, None, "{what}: unmeasured, yet measured");
        let frame = reference.frame;
        let recon = codec.decode(&frame, model).expect("frame decodes");
        let sq_err = decode_and_sum(block, &recon);
        for (scratch, state) in [(&mut CodecScratch::new(), "fresh"), (&mut *dirty, "dirty")] {
            let measured = encode(
                codec,
                BlockJob {
                    measure: true,
                    ..job
                },
                scratch,
            );
            assert_eq!(
                measured.frame, frame,
                "{what}, block {index}, {state} scratch: frame differs"
            );
            assert_eq!(measured.sq_err.is_some(), measures_itself, "{what}");
            let measured = measured.sq_err.unwrap_or(sq_err);
            assert_eq!(
                measured.to_bits(),
                sq_err.to_bits(),
                "{what}, block {index}, {state} scratch: {measured} != {sq_err}"
            );
        }
    }
}

/// A shared model that covers the block's own codes, and one fitted on a
/// constant field, which sends every other block through the overflow
/// escape or the embedded-fit fallback.
fn shared_models(codec: &dyn Codec, block: &Tensor) -> Vec<(&'static str, HistogramModel)> {
    let fitted = |block: &Tensor| {
        let frame = encode(
            codec,
            BlockJob::new(block, None, 0),
            &mut CodecScratch::new(),
        )
        .frame;
        let model = codec.frame_model(&frame)?.with_escape();
        model.prepare_decode();
        Some(model)
    };
    let own = fitted(block).map(|m| ("own model", m));
    let narrow = fitted(&Tensor::full(block.dims(), 1.0)).map(|m| ("narrow model", m));
    own.into_iter().chain(narrow).collect()
}

#[test]
fn measured_encode_equals_decode_and_sum_for_every_codec_model_and_input() {
    let _gld = gld_lock();
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    let vae = Vae::new(VaeConfig::tiny());
    let vaesr = LearnedBaseline::new(LearnedBaselineKind::VaeSr, &vae, None);
    let gld = untrained_compressor();
    // A finite point-wise bound keeps the poisoned block's healthy cells
    // coded, so its verbatim cells sit among predicted ones (a relative
    // bound on that block is infinite and stores every cell verbatim).
    let healthy = variable(DatasetKind::E3sm, 1, 23).frames;
    let pointwise = ErrorTarget::PointwiseAbs(1e-3 * (healthy.max() - healthy.min()));
    let codecs: [(&str, &dyn Codec, Option<ErrorTarget>); 8] = [
        ("sz", &sz, None),
        ("sz bounded", &sz, BOUNDED),
        ("sz pointwise", &sz, Some(pointwise)),
        ("zfp", &zfp, None),
        ("zfp bounded", &zfp, BOUNDED),
        ("vae-sr", &vaesr, None),
        ("gld", &gld, None),
        ("gld bounded", &gld, BOUNDED),
    ];
    // One scratch for the whole matrix: by the end it has seen every codec,
    // every model and blocks of two shapes.
    let mut dirty = CodecScratch::new();
    let mut cells = 0;
    for (name, codec, target) in codecs {
        let mut blocks = finite_blocks();
        if codec.id() == CodecId::SzLike {
            blocks.push(("poisoned", poisoned_block()));
            blocks.push((
                "small",
                variable(DatasetKind::S3d, 1, 5).frames.slice_axis(1, 0, 7),
            ));
        }
        if codec.id() == CodecId::Gld && target.is_some() {
            // On a constant field τ collapses to its `1e-30` clamp and
            // `PcaErrorBound::apply` overflows fitting its code histogram —
            // at the parent commit too (ROADMAP, rate ledger, step (c)).
            blocks.retain(|(input, _)| *input != "constant");
        }
        for (input, block) in &blocks {
            let what = format!("{name} on {input}");
            assert_measured_equals_reference(&what, codec, block, target, None, &mut dirty);
            cells += 1;
            for (model_name, model) in shared_models(codec, block) {
                let what = format!("{what} under the {model_name}");
                assert_measured_equals_reference(
                    &what,
                    codec,
                    block,
                    target,
                    Some(&model),
                    &mut dirty,
                );
                cells += 1;
            }
        }
    }
    // Learned rows take no model: 4 + 4 + 3 inputs.  Rule-based cells run
    // under {no model, own, narrow}: ZFP 2 rows × 4 inputs, SZ 3 rows × 6.
    assert_eq!(cells, 11 + 2 * 4 * 3 + 3 * 6 * 3);
}

#[test]
fn the_narrow_model_reaches_both_the_overflow_escape_and_the_embedded_fallback() {
    // What the matrix above relies on: under a constant-fitted model a noisy
    // block stays on the shared model (its codes overflow-escaped) and a
    // two-level block falls back to an embedded per-frame fit.
    let sz = SzCompressor::new();
    let narrow = shared_models(&sz, &Tensor::full(&[4, 8, 8], 1.0))
        .remove(1)
        .1;
    let noise = TensorRng::new(12).randn(&[4, 8, 8]).scale(4.0);
    let tight = Some(ErrorTarget::PointwiseAbs(1e-3));
    let board = Tensor::from_vec(
        (0..4 * 8 * 8)
            .map(|i| (((i / 64) + (i / 8) % 8 + i % 8) % 2) as f32)
            .collect(),
        &[4, 8, 8],
    );
    let mut scratch = CodecScratch::new();
    let shared = |block| BlockJob {
        model: Some(&narrow),
        ..BlockJob::new(block, tight, 0)
    };
    let escaped = encode(&sz, shared(&noise), &mut scratch).frame;
    assert!(
        sz.frame_model(&escaped).is_none(),
        "stays on the shared model"
    );
    let fallen = encode(&sz, shared(&board), &mut scratch).frame;
    assert!(
        sz.frame_model(&fallen).is_some(),
        "falls back to its own fit"
    );
}

fn assert_stats_bit_equal(what: &str, got: &VariableStats, want: &VariableStats) {
    assert_eq!(got.blocks, want.blocks, "{what}: blocks");
    assert_eq!(
        got.original_bytes, want.original_bytes,
        "{what}: original_bytes"
    );
    assert_eq!(
        got.compressed_bytes, want.compressed_bytes,
        "{what}: compressed_bytes"
    );
    assert_eq!(
        got.compression_ratio.to_bits(),
        want.compression_ratio.to_bits(),
        "{what}: compression_ratio"
    );
    assert_eq!(
        got.nrmse.to_bits(),
        want.nrmse.to_bits(),
        "{what}: nrmse {} != {}",
        got.nrmse,
        want.nrmse
    );
    assert_eq!(
        (got.value_range.0.to_bits(), got.value_range.1.to_bits()),
        (want.value_range.0.to_bits(), want.value_range.1.to_bits()),
        "{what}: value_range"
    );
}

/// `VariableStats` as the accounting defines them, from nothing but the
/// original variable and the encoded container: decode every block, sum per
/// block, add the block sums in temporal order.
fn stats_by_decoding(codec: &dyn Codec, variable: &Variable, encoded: &[u8]) -> VariableStats {
    let container = Container::decode(encoded).expect("own container decodes");
    let blocks = codec.decompress_container(&container).expect("own codec");
    let windows = temporal_windows(variable, BLOCK_FRAMES);
    assert_eq!(blocks.len(), windows.len());
    let (mut sq_err, mut numel) = (0.0f64, 0usize);
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for (window, block) in windows.iter().zip(&blocks) {
        sq_err += decode_and_sum(&window.data, block);
        numel += window.data.numel();
        lo = lo.min(window.data.min());
        hi = hi.max(window.data.max());
    }
    let original_bytes = numel * std::mem::size_of::<f32>();
    VariableStats {
        blocks: blocks.len(),
        original_bytes,
        compressed_bytes: encoded.len(),
        compression_ratio: original_bytes as f64 / encoded.len().max(1) as f64,
        nrmse: ((sq_err / numel.max(1) as f64).sqrt() as f32) / (hi - lo).max(1e-30),
        value_range: (lo, hi),
    }
}

#[test]
fn every_compress_path_reports_the_stats_of_the_container_it_returned() {
    let _gld = gld_lock();
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    let vae = Vae::new(VaeConfig::tiny());
    let vaesr = LearnedBaseline::new(LearnedBaselineKind::VaeSr, &vae, None);
    let gld = untrained_compressor();
    let cases: [(&str, &dyn Codec, Option<ErrorTarget>, DatasetKind); 7] = [
        ("sz", &sz, None, DatasetKind::S3d),
        ("sz bounded", &sz, BOUNDED, DatasetKind::Jhtdb),
        ("zfp", &zfp, None, DatasetKind::E3sm),
        ("zfp bounded", &zfp, BOUNDED, DatasetKind::S3d),
        ("vae-sr bounded", &vaesr, BOUNDED, DatasetKind::E3sm),
        ("gld", &gld, None, DatasetKind::E3sm),
        ("gld bounded", &gld, BOUNDED, DatasetKind::E3sm),
    ];
    let narrow = StreamConfig { queue_depth: 1 };
    let wide = StreamConfig { queue_depth: 16 };
    for (name, codec, target, kind) in cases {
        let variable = variable(kind, 4, 41);
        let check = |path: &str, encoded: Vec<u8>, stats: VariableStats| {
            let want = stats_by_decoding(codec, &variable, &encoded);
            assert_stats_bit_equal(&format!("{name}, {path}"), &stats, &want);
        };
        let (container, stats) = codec.compress_variable(&variable, BLOCK_FRAMES, target);
        check("compress_variable", container.encode(), stats);
        let (container, stats) =
            codec.compress_variable_sequential(&variable, BLOCK_FRAMES, target);
        check("sequential", container.encode(), stats);
        let (container, stats) =
            codec.compress_variable_profiled_sequential(&variable, BLOCK_FRAMES, target);
        check("profiled sequential", container.encode(), stats);
        for (depth, config) in [("depth 1", narrow), ("depth 16", wide)] {
            let (container, stats, _) =
                codec.compress_variable_streaming(&variable, BLOCK_FRAMES, target, config);
            check(&format!("streaming, {depth}"), container.encode(), stats);
            let (container, stats, _) =
                codec.compress_variable_profiled(&variable, BLOCK_FRAMES, target, config);
            check(&format!("profiled, {depth}"), container.encode(), stats);
            for format in [
                ContainerFormat::V2,
                ContainerFormat::V3,
                ContainerFormat::V4,
            ] {
                let (encoded, stats, _) = compress_variable_to_writer_fmt(
                    codec,
                    &variable,
                    BLOCK_FRAMES,
                    target,
                    config,
                    format,
                    Vec::new(),
                )
                .expect("a Vec sink cannot fail");
                check(&format!("writer {format:?}, {depth}"), encoded, stats);
            }
        }
    }
}

/// Generates a counting wrapper: `encode` and `decode` forward to the inner
/// codec and count the call.  With `$measures` false the wrapper is a codec
/// that never measures itself: it encodes unmeasured and reports no error,
/// which leaves the measurement to the executor's decode.
macro_rules! counting_codec {
    ($name:ident, $measures:expr) => {
        struct $name<'a> {
            inner: &'a dyn Codec,
            measured: AtomicUsize,
            compressed: AtomicUsize,
            decoded: AtomicUsize,
        }

        impl<'a> $name<'a> {
            fn new(inner: &'a dyn Codec) -> Self {
                $name {
                    inner,
                    measured: AtomicUsize::new(0),
                    compressed: AtomicUsize::new(0),
                    decoded: AtomicUsize::new(0),
                }
            }

            /// `(measured, plain compress, decompress)` calls so far.
            fn counts(&self) -> (usize, usize, usize) {
                (
                    self.measured.load(Ordering::SeqCst),
                    self.compressed.load(Ordering::SeqCst),
                    self.decoded.load(Ordering::SeqCst),
                )
            }
        }

        impl Codec for $name<'_> {
            fn name(&self) -> &str {
                "counting"
            }
            fn id(&self) -> CodecId {
                self.inner.id()
            }
            fn encode(
                &self,
                job: &BlockJob<'_>,
                scratch: &mut CodecScratch,
            ) -> Result<EncodedBlock, CodecError> {
                let counter = match job.measure {
                    true => &self.measured,
                    false => &self.compressed,
                };
                counter.fetch_add(1, Ordering::SeqCst);
                let measure = job.measure && $measures;
                self.inner.encode(&BlockJob { measure, ..*job }, scratch)
            }
            fn frame_model(&self, frame: &[u8]) -> Option<HistogramModel> {
                self.inner.frame_model(frame)
            }
            fn decode(
                &self,
                frame: &[u8],
                model: Option<&HistogramModel>,
            ) -> Result<Tensor, CodecError> {
                self.decoded.fetch_add(1, Ordering::SeqCst);
                self.inner.decode(frame, model)
            }
        }
    };
}

counting_codec!(Forwarding, true);
counting_codec!(Unmeasured, false);

#[test]
fn sz_and_gld_decode_nothing_while_compressing_and_the_default_decodes_each_block_once() {
    let _gld = gld_lock();
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    let gld = untrained_compressor();
    let variable = variable(DatasetKind::E3sm, 4, 59);
    let generates = gld_obs::registry::counter("gld_diffusion_generate_total", &[]);

    // The codecs that measure themselves: four measured encodes, no decode,
    // nothing else.
    let overriders: [(&str, &dyn Codec, Option<ErrorTarget>); 4] = [
        ("sz", &sz, None),
        ("sz bounded", &sz, BOUNDED),
        ("gld", &gld, None),
        ("gld bounded", &gld, BOUNDED),
    ];
    for (name, codec, target) in overriders {
        let counting = Forwarding::new(codec);
        let before = generates.get();
        let (container, stats) = counting.compress_variable(&variable, BLOCK_FRAMES, target);
        assert_eq!(
            counting.counts(),
            (4, 0, 0),
            "{name}: (measured, plain, decoded)"
        );
        if codec.id() == CodecId::Gld {
            // One decoder replay per block, bounded or not — not two.
            assert_eq!(generates.get() - before, 4, "{name}: generate calls");
        }
        // The profiled path pays the fit's plain compressions, and still no
        // decode: SZ samples four windows and re-codes the first, GLD has no
        // frame model to pool and compresses window 0 once.
        let counting = Forwarding::new(codec);
        let (profiled, _, _) = counting.compress_variable_profiled(
            &variable,
            BLOCK_FRAMES,
            target,
            StreamConfig::default(),
        );
        let fit = if codec.id() == CodecId::SzLike { 5 } else { 1 };
        assert_eq!(counting.counts(), (4, fit, 0), "{name}, profiled");
        // Counting changed nothing.
        assert_eq!(
            container.encode(),
            codec
                .compress_variable(&variable, BLOCK_FRAMES, target)
                .0
                .encode()
        );
        assert_eq!(profiled.blocks().len(), 4);
        // The same codec reporting no error is decoded once per block, to
        // the NRMSE bits it reported itself.
        let unmeasured = Unmeasured::new(codec);
        let (same, same_stats) = unmeasured.compress_variable(&variable, BLOCK_FRAMES, target);
        assert_eq!(unmeasured.counts(), (4, 0, 4), "{name}, unmeasured");
        assert_eq!(same.encode(), container.encode());
        assert_stats_bit_equal(&format!("{name}, unmeasured"), &same_stats, &stats);
    }

    // ZFP reports no error, and neither does a wrapper that drops it: one
    // compress and exactly one decode per block.
    let inner = Forwarding::new(&zfp);
    inner.compress_variable(&variable, BLOCK_FRAMES, BOUNDED);
    assert_eq!(inner.counts(), (4, 0, 4), "zfp is decoded once per block");
    let defaulted = Unmeasured::new(&zfp);
    let (container, stats) = defaulted.compress_variable(&variable, BLOCK_FRAMES, BOUNDED);
    assert_eq!(
        defaulted.counts(),
        (4, 0, 4),
        "default: (measured, plain, decoded)"
    );
    let (direct, direct_stats) = zfp.compress_variable(&variable, BLOCK_FRAMES, BOUNDED);
    assert_eq!(container.encode(), direct.encode());
    assert_stats_bit_equal("defaulted zfp", &stats, &direct_stats);

    // A fit alone never decodes either.
    let counting = Forwarding::new(&sz);
    fit_variable_profile(&counting, &variable, BLOCK_FRAMES, BOUNDED);
    assert_eq!(counting.counts(), (0, 5, 0));
}
