//! Contract tests for the streaming block executor: bounded resident-block
//! count, one pool batch per `queue_depth` windows, ordered emission,
//! bit-identical output across queue depths and pool sizes, and the
//! incremental container writer — and for its decode
//! half, `Codec::decompress_container`'s one-batch fan-out: bit-identity
//! with the sequential map, real concurrency, nesting, panics and refusals.
//!
//! Cross-process determinism (the `RAYON_NUM_THREADS=1` vs default-pool leg)
//! follows transitively: every configuration below is asserted equal to the
//! single-threaded sequential reference, which is trivially independent of
//! the pool size — and CI runs this whole suite under `RAYON_NUM_THREADS`
//! 1, 3 and 8 to exercise the claim in real processes.

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_core::ContainerFormat::V3;
use gld_core::{
    compress_variable_to_writer_fmt, BlockJob, Codec, CodecError, CodecId, CodecScratch, Container,
    ContainerError, EncodedBlock, ErrorTarget, GldCompressor, GldConfig, LearnedBaseline,
    LearnedBaselineKind, StreamConfig,
};
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_diffusion::ConditionalDiffusion;
use gld_entropy::HistogramModel;
use gld_tensor::Tensor;
use gld_vae::{Vae, VaeConfig};
use proptest::prelude::*;
use rayon::pool::batches_submitted_by_this_thread;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::Duration;

/// An untrained (but fully functional and deterministic) GLD pipeline.
fn untrained_compressor() -> GldCompressor {
    let config = GldConfig::tiny();
    GldCompressor::from_parts(
        config,
        Vae::new(config.vae),
        ConditionalDiffusion::new(config.diffusion),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_path_roundtrips_and_matches_the_sequential_reference(
        windows in 1usize..7,
        block_frames in 1usize..9,
        slack in 0usize..8,
        depth in 1usize..6,
        seed in 0u64..1_000,
    ) {
        // `slack` adds a partial trailing window, which tiling must drop.
        let timesteps = windows * block_frames + slack % block_frames;
        let ds = generate(
            DatasetKind::E3sm,
            &FieldSpec::new(1, timesteps, 8, 8),
            seed,
        );
        let variable = &ds.variables[0];
        let sz = SzCompressor::new();
        let config = StreamConfig { queue_depth: depth };
        let (container, stats, metrics) =
            sz.compress_variable_streaming(variable, block_frames, None, config);
        let (reference, ref_stats) =
            sz.compress_variable_sequential(variable, block_frames, None);

        prop_assert_eq!(container.encode(), reference.encode());
        prop_assert_eq!(stats.blocks, windows);
        prop_assert_eq!(stats.compressed_bytes, ref_stats.compressed_bytes);
        prop_assert_eq!(stats.nrmse, ref_stats.nrmse);
        prop_assert!(metrics.peak_resident <= depth,
            "peak resident {} exceeds queue depth {}", metrics.peak_resident, depth);

        // The emitted container round-trips through the v2 (CRC) format.
        let decoded = Container::decode(&container.encode()).expect("v2 container decodes");
        prop_assert_eq!(&decoded, &container);
        let blocks = sz.decompress_container(&decoded).expect("codec id matches");
        prop_assert_eq!(blocks.len(), windows);
    }
}

#[test]
fn output_is_bit_identical_across_worker_counts_and_depths() {
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 32, 16, 16), 19);
    let variable = &ds.variables[0];
    let compressor = untrained_compressor();

    for target in [None, Some(ErrorTarget::Nrmse(1e-2))] {
        let (reference, ref_stats) = compressor.compress_variable_sequential(variable, 8, target);
        let reference_bytes = reference.encode();
        // The pool size is the other axis: CI runs this at several.
        for queue_depth in [1usize, 3, 16] {
            let (container, stats, metrics) = compressor.compress_variable_streaming(
                variable,
                8,
                target,
                StreamConfig { queue_depth },
            );
            assert_eq!(
                container.encode(),
                reference_bytes,
                "depth={queue_depth}: output differs from sequential"
            );
            assert_eq!(stats.nrmse, ref_stats.nrmse);
            assert_eq!(stats.compression_ratio, ref_stats.compression_ratio);
            assert!(metrics.peak_resident <= queue_depth);
        }
    }
}

#[test]
fn peak_resident_blocks_stay_within_the_queue_depth() {
    // 64 timesteps tiled into 16 four-frame windows: plenty of blocks to
    // overrun an unbounded pipeline, compressed with depth 2.
    let ds = generate(DatasetKind::S3d, &FieldSpec::new(1, 64, 16, 16), 23);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let (container, stats, metrics) =
        sz.compress_variable_streaming(variable, 4, None, StreamConfig { queue_depth: 2 });
    assert_eq!(metrics.blocks, 16);
    assert_eq!(stats.blocks, 16);
    assert_eq!(container.blocks().len(), 16);
    assert!(
        metrics.peak_resident <= 2,
        "peak resident {} blocks with queue depth 2",
        metrics.peak_resident
    );
    // Sanity: with a roomy queue the executor does use the headroom — the
    // gauge is live, not vacuously zero.
    assert!(metrics.peak_resident >= 1);
}

#[test]
fn a_variable_is_one_pool_batch_per_queue_depth_windows() {
    // 16 four-frame windows at depth 4: four batches of four.  Tensor ops
    // run on their caller, so the executor's batches are the only
    // submissions this thread makes.
    let ds = generate(DatasetKind::S3d, &FieldSpec::new(1, 64, 16, 16), 97);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let config = StreamConfig { queue_depth: 4 };
    let before = batches_submitted_by_this_thread();
    let (container, _, metrics) = sz.compress_variable_streaming(variable, 4, None, config);
    assert_eq!(batches_submitted_by_this_thread() - before, 4);
    assert_eq!(metrics.blocks, 16);
    assert_eq!(metrics.peak_resident, 4);
    assert_eq!(
        container.encode(),
        sz.compress_variable_sequential(variable, 4, None)
            .0
            .encode()
    );

    // A one-window variable runs inline and never touches the pool.
    let lone = generate(DatasetKind::S3d, &FieldSpec::new(1, 4, 16, 16), 97);
    let before = batches_submitted_by_this_thread();
    let (_, _, metrics) = sz.compress_variable_streaming(&lone.variables[0], 4, None, config);
    assert_eq!(batches_submitted_by_this_thread() - before, 0);
    assert_eq!((metrics.blocks, metrics.peak_resident), (1, 1));
}

#[test]
fn writer_sink_streams_the_exact_container_encoding() {
    let ds = generate(DatasetKind::Jhtdb, &FieldSpec::new(1, 24, 16, 16), 29);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let (buffered, buffered_stats) = Codec::compress_variable(&sz, variable, 8, None);
    let config = StreamConfig::default();
    let (streamed, streamed_stats, metrics) =
        compress_variable_to_writer_fmt(&sz, variable, 8, None, config, V3, Vec::new())
            .expect("in-memory writer cannot fail");
    assert_eq!(streamed, buffered.encode());
    assert_eq!(streamed_stats, buffered_stats);
    assert_eq!(metrics.blocks, 3);
    // And the streamed bytes parse back as a valid v2 container.
    let decoded = Container::decode(&streamed).expect("streamed container decodes");
    assert_eq!(&decoded, &buffered);
}

#[test]
fn sink_errors_abort_the_stream_instead_of_compressing_on() {
    #[derive(Debug)]
    struct FailAfterHeader {
        written: usize,
    }
    impl std::io::Write for FailAfterHeader {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.written >= gld_core::container::HEADER_LEN {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "disk full",
                ));
            }
            self.written += buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 64, 16, 16), 37);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let err = compress_variable_to_writer_fmt(
        &sz,
        variable,
        4,
        None,
        StreamConfig { queue_depth: 2 },
        V3,
        FailAfterHeader { written: 0 },
    )
    .expect_err("the failing sink must surface its error");
    assert_eq!(err.error.kind(), std::io::ErrorKind::WriteZero);
    assert_eq!(
        err.frames_emitted, 0,
        "the sink failed before any complete frame was written"
    );
}

#[test]
fn sink_error_reports_how_many_frames_were_completely_written() {
    // `ContainerWriter` issues one write for the header and one buffered
    // write per frame (stage byte + length prefix + payload + CRC).
    // Failing on the 4th call therefore rejects the third frame whole:
    // exactly two frames are complete, which is what the abort must report
    // (the service's partial-write diagnostics depend on this).
    #[derive(Debug)]
    struct FailOnNthWrite {
        calls: usize,
        fail_at: usize,
    }
    impl std::io::Write for FailOnNthWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls >= self.fail_at {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "peer went away",
                ));
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 64, 16, 16), 41);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let err = compress_variable_to_writer_fmt(
        &sz,
        variable,
        4,
        None,
        StreamConfig { queue_depth: 1 },
        V3,
        FailOnNthWrite {
            calls: 0,
            fail_at: 1 + 2 + 1,
        },
    )
    .expect_err("the failing sink must surface its error");
    assert_eq!(err.error.kind(), std::io::ErrorKind::BrokenPipe);
    assert_eq!(err.frames_emitted, 2, "two frames were fully written");
    // The error's display ties both together for diagnostics.
    assert!(err.to_string().contains("2 complete frame(s)"), "{err}");
}

#[test]
fn collector_side_panics_propagate_instead_of_hanging() {
    // The emit callback always runs on the calling thread; a panic there
    // must stop the stream and re-throw with the original payload — a
    // regression here deadlocks instead of failing.
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 64, 16, 16), 43);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        gld_core::executor::stream_compress_variable(
            &sz,
            variable,
            4,
            None,
            StreamConfig { queue_depth: 2 },
            gld_core::StageMode::PerFrame,
            |index, _outcome| {
                if index == 1 {
                    panic!("emit exploded");
                }
                true
            },
        )
    }));
    let payload = result.expect_err("emit panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("emit exploded"),
        "the original panic payload must survive"
    );
}

#[test]
fn codec_panics_propagate_with_their_original_payload() {
    // A codec panic may fire on a pool worker or on the calling thread
    // draining its batch; both must surface the codec's own message, not a
    // generic one.
    struct ExplodingCodec(SzCompressor);
    impl Codec for ExplodingCodec {
        fn name(&self) -> &str {
            "exploding"
        }
        fn id(&self) -> gld_core::CodecId {
            gld_core::CodecId::SzLike
        }
        fn encode(
            &self,
            job: &BlockJob<'_>,
            scratch: &mut CodecScratch,
        ) -> Result<EncodedBlock, CodecError> {
            if job.index == 2 {
                panic!("codec exploded at block 2");
            }
            self.0.encode(job, scratch)
        }
        fn decode(
            &self,
            frame: &[u8],
            model: Option<&HistogramModel>,
        ) -> Result<gld_tensor::Tensor, CodecError> {
            self.0.decode(frame, model)
        }
    }

    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 64, 16, 16), 47);
    let variable = &ds.variables[0];
    let codec = ExplodingCodec(SzCompressor::new());
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        codec.compress_variable_streaming(variable, 4, None, StreamConfig { queue_depth: 2 })
    }));
    let payload = result.expect_err("codec panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>().copied(),
        Some("codec exploded at block 2"),
        "the codec's own panic message must survive"
    );
}

#[test]
fn v1_containers_decode_and_v2_corruption_is_detected() {
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 16, 16, 16), 31);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let (container, _) = Codec::compress_variable(&sz, variable, 8, None);

    // Legacy v1 (checksum-less) streams still decode to the same frames.
    let v1 = container.encode_v1();
    let from_v1 = Container::decode(&v1).expect("v1 stream decodes");
    assert_eq!(from_v1, container);
    assert_eq!(
        sz.decompress_container(&from_v1).unwrap().len(),
        container.blocks().len()
    );

    // Flipping one payload bit in a v2 stream surfaces as a typed checksum
    // error naming the block, instead of a downstream codec panic.
    let mut corrupt = container.encode();
    let byte = gld_core::container::HEADER_LEN + 8 + container.blocks()[0].len() / 2;
    corrupt[byte] ^= 0x10;
    assert!(matches!(
        Container::decode(&corrupt),
        Err(ContainerError::ChecksumMismatch { block: 0, .. })
    ));
}

// ---------------------------------------------------------------------------
// The decode half: `decompress_container` fans the blocks over the pool.
// ---------------------------------------------------------------------------

/// The oracle: the container's frames decoded one after another on the
/// calling thread, which is what `decompress_container` was before it fanned
/// out and what it must still equal bit for bit.
fn decode_sequentially(codec: &dyn Codec, container: &Container) -> Vec<Tensor> {
    container
        .blocks()
        .iter()
        .enumerate()
        .map(|(index, frame)| {
            let model = container
                .profile_for_block(index)
                .and_then(|p| p.model.as_ref());
            codec.decode(frame, model).expect("frame decodes")
        })
        .collect()
}

/// Shapes and exact bit patterns: `f32`'s `==` would let `-0.0` pass for
/// `0.0` and fail NaN against itself.
fn bits(blocks: &[Tensor]) -> Vec<(Vec<usize>, Vec<u32>)> {
    blocks
        .iter()
        .map(|b| {
            (
                b.dims().to_vec(),
                b.data().iter().map(|v| v.to_bits()).collect(),
            )
        })
        .collect()
}

/// One smooth variable of exactly `blocks` eight-frame windows.
fn smooth_variable(blocks: usize, seed: u64) -> Variable {
    generate(
        DatasetKind::E3sm,
        &FieldSpec::new(1, blocks * 8, 16, 16),
        seed,
    )
    .variables
    .remove(0)
}

/// A decode-side test double around a real codec: counts the blocks it
/// decodes, answers to whatever codec id the test gives it, and panics on
/// one chosen frame.
struct Probe<'a> {
    inner: &'a dyn Codec,
    id: CodecId,
    decoded: AtomicUsize,
    exploding_frame: Option<Vec<u8>>,
}

impl<'a> Probe<'a> {
    fn new(inner: &'a dyn Codec) -> Self {
        Probe {
            inner,
            id: inner.id(),
            decoded: AtomicUsize::new(0),
            exploding_frame: None,
        }
    }
}

impl Codec for Probe<'_> {
    fn name(&self) -> &str {
        "probe"
    }
    fn id(&self) -> CodecId {
        self.id
    }
    fn encode(
        &self,
        job: &BlockJob<'_>,
        scratch: &mut CodecScratch,
    ) -> Result<EncodedBlock, CodecError> {
        self.inner.encode(job, scratch)
    }
    fn decode(&self, frame: &[u8], model: Option<&HistogramModel>) -> Result<Tensor, CodecError> {
        if self.exploding_frame.as_deref() == Some(frame) {
            panic!("codec exploded on its frame");
        }
        self.decoded.fetch_add(1, Ordering::SeqCst);
        self.inner.decode(frame, model)
    }
}

#[test]
fn decompress_container_equals_the_sequential_map_bit_for_bit() {
    let gld = untrained_compressor();
    let sz = SzCompressor::new();
    let zfp = ZfpLikeCompressor::new();
    let vae = Vae::new(VaeConfig::tiny());
    let vaesr = LearnedBaseline::new(LearnedBaselineKind::VaeSr, &vae, None);
    // GLD with a target writes frames that carry `aux_bytes`, without one
    // frames that do not.
    let bounded = Some(ErrorTarget::Nrmse(1e-2));
    let cases: [(&dyn Codec, Option<ErrorTarget>); 5] = [
        (&sz, None),
        (&zfp, None),
        (&vaesr, None),
        (&gld, None),
        (&gld, bounded),
    ];
    for blocks in [1usize, 2, 3, 4, 9] {
        let variable = smooth_variable(blocks, 50 + blocks as u64);
        for (codec, target) in cases {
            let (staged, _) = codec.compress_variable(&variable, 8, target);
            let (profiled, _, _) =
                codec.compress_variable_profiled(&variable, 8, target, StreamConfig::default());
            // Every wire version this build reads, as a reader meets it:
            // parsed back from bytes.  (A v1 stream of a learned codec is
            // refused by name — see the refusal test.)
            let mut wires = vec![
                (4, profiled.encode()),
                (3, staged.encode()),
                (2, staged.encode_v2()),
            ];
            if !codec.id().learned() {
                wires.push((1, staged.encode_v1()));
            }
            for (version, bytes) in wires {
                let container = Container::decode(&bytes).expect("container decodes");
                assert_eq!(container.wire_version(), version);
                assert_eq!(container.blocks().len(), blocks);
                let fanned = codec
                    .decompress_container(&container)
                    .expect("codec id matches");
                assert_eq!(
                    bits(&fanned),
                    bits(&decode_sequentially(codec, &container)),
                    "{} v{version}, {blocks} block(s), target {target:?}",
                    codec.name()
                );
            }
        }
    }
}

#[test]
fn two_blocks_are_in_flight_at_once_even_on_a_one_worker_pool() {
    // Each `decode` waits (bounded, so a serial decode is a test
    // failure and not a hung job) until a second one has started: the
    // caller and one pool worker must both be inside the codec.
    struct Rendezvous {
        inner: SzCompressor,
        arrived: Mutex<usize>,
        second_arrived: Condvar,
        decoded_alone: AtomicBool,
    }
    impl Codec for Rendezvous {
        fn name(&self) -> &str {
            "rendezvous"
        }
        fn id(&self) -> CodecId {
            CodecId::SzLike
        }
        fn encode(
            &self,
            job: &BlockJob<'_>,
            scratch: &mut CodecScratch,
        ) -> Result<EncodedBlock, CodecError> {
            self.inner.encode(job, scratch)
        }
        fn decode(
            &self,
            frame: &[u8],
            model: Option<&HistogramModel>,
        ) -> Result<Tensor, CodecError> {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.second_arrived.notify_all();
            let (arrived, wait) = self
                .second_arrived
                .wait_timeout_while(arrived, Duration::from_secs(30), |n| *n < 2)
                .unwrap();
            if wait.timed_out() {
                self.decoded_alone.store(true, Ordering::SeqCst);
            }
            drop(arrived);
            self.inner.decode(frame, model)
        }
    }

    let codec = Rendezvous {
        inner: SzCompressor::new(),
        arrived: Mutex::new(0),
        second_arrived: Condvar::new(),
        decoded_alone: AtomicBool::new(false),
    };
    let variable = smooth_variable(2, 61);
    // Written by the inner codec: a compress-side decode (the executor's
    // fallback for a codec that does not measure itself) would wait here
    // too.
    let (container, _) = codec.inner.compress_variable_sequential(&variable, 8, None);
    let blocks = codec
        .decompress_container(&container)
        .expect("codec id matches");
    assert!(
        !codec.decoded_alone.load(Ordering::SeqCst),
        "block 0 waited 30 s for block 1 to start: the container decoded serially"
    );
    assert_eq!(
        bits(&blocks),
        bits(&decode_sequentially(&codec.inner, &container))
    );
}

#[test]
fn decompress_container_nests_in_pool_jobs_and_races_a_streaming_compress() {
    let gld = untrained_compressor();
    let variable = smooth_variable(4, 67);
    let (container, _) = gld.compress_variable_sequential(&variable, 8, None);
    let expected = bits(&decode_sequentially(&gld, &container));

    // From inside pool jobs: the inner batch is drained by whoever runs the
    // outer job, so this finishes even when that is the pool's only worker.
    let mut nested: [Option<Vec<Tensor>>; 2] = [None, None];
    let (gld_ref, container_ref) = (&gld, &container);
    rayon::pool::join_all(
        nested
            .iter_mut()
            .map(|slot| {
                Box::new(move || *slot = Some(gld_ref.decompress_container(container_ref).unwrap()))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect(),
    );
    for blocks in nested {
        assert_eq!(bits(&blocks.expect("the pool job ran")), expected);
    }

    // Two decodes and one compress released together on their own threads,
    // all sharing the one process-global pool.
    let start = Barrier::new(3);
    std::thread::scope(|threads| {
        let decode = || {
            start.wait();
            gld.decompress_container(&container).unwrap()
        };
        let first = threads.spawn(decode);
        let second = threads.spawn(decode);
        let compress = threads.spawn(|| {
            start.wait();
            gld.compress_variable_streaming(&variable, 8, None, StreamConfig::default())
                .0
        });
        assert_eq!(bits(&first.join().unwrap()), expected);
        assert_eq!(bits(&second.join().unwrap()), expected);
        assert_eq!(compress.join().unwrap().encode(), container.encode());
    });
}

#[test]
fn a_container_is_one_pool_batch_and_a_refused_one_is_none() {
    let sz = SzCompressor::new();
    let gld = untrained_compressor();

    // Submissions are counted per submitting thread, so the tests running
    // beside this one on the same pool do not disturb the count.
    for blocks in [1usize, 2, 3, 4, 9] {
        let (container, _) = Codec::compress_variable(&sz, &smooth_variable(blocks, 71), 8, None);
        let probe = Probe::new(&sz);
        let before = batches_submitted_by_this_thread();
        probe.decompress_container(&container).unwrap();
        assert_eq!(
            batches_submitted_by_this_thread() - before,
            u64::from(blocks > 1),
            "{blocks} block(s): one batch per container, none for a lone block"
        );
        assert_eq!(probe.decoded.load(Ordering::SeqCst), blocks);
    }

    // Refusals are typed and come before any work: a codec-id mismatch,
    // and a v1 stream of a learned codec, which predates the range coder.
    let (container, _) = Codec::compress_variable(&sz, &smooth_variable(4, 73), 8, None);
    let (learned_container, _) = Codec::compress_variable(&gld, &smooth_variable(4, 79), 8, None);
    let v1 = Container::decode(&learned_container.encode_v1()).expect("v1 stream parses");
    let mut probe = Probe::new(&sz);
    probe.id = CodecId::ZfpLike;
    let learned = Probe::new(&gld);
    let before = batches_submitted_by_this_thread();
    assert!(matches!(
        probe.decompress_container(&container),
        Err(ContainerError::Corrupt(_))
    ));
    assert!(matches!(
        learned.decompress_container(&v1),
        Err(ContainerError::IncompatibleEntropyCoder {
            version: 1,
            codec: CodecId::Gld
        })
    ));
    assert_eq!(batches_submitted_by_this_thread(), before);
    assert_eq!(probe.decoded.load(Ordering::SeqCst), 0);
    assert_eq!(learned.decoded.load(Ordering::SeqCst), 0);
}

#[test]
fn decode_panics_keep_their_payload_and_the_pool_keeps_its_workers() {
    let sz = SzCompressor::new();
    let (container, _) = Codec::compress_variable(&sz, &smooth_variable(4, 83), 8, None);
    let expected = bits(&decode_sequentially(&sz, &container));
    for exploding in [0usize, 2, 3] {
        let mut probe = Probe::new(&sz);
        probe.exploding_frame = Some(container.blocks()[exploding].clone());
        let payload = catch_unwind(AssertUnwindSafe(|| probe.decompress_container(&container)))
            .expect_err("the codec's panic must leave decompress_container");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("codec exploded on its frame"),
            "block {exploding}: the codec's own payload, not the pool's"
        );
        assert_eq!(
            probe.decoded.load(Ordering::SeqCst),
            3,
            "block {exploding}: every sibling finished before the panic left"
        );
        // The same process-global pool, straight afterwards.
        assert_eq!(
            bits(&sz.decompress_container(&container).unwrap()),
            expected
        );
    }

    // The real thing: an undecodable frame among good ones leaves with the
    // typed error `decode` itself returns, under the frame's index.
    let gld = untrained_compressor();
    let (good, _) = gld.compress_variable_sequential(&smooth_variable(3, 89), 8, None);
    let mut frames = good.blocks().to_vec();
    let half = frames[1].len() / 2;
    frames[1].truncate(half);
    let alone = gld
        .decode(&frames[1], None)
        .expect_err("half a frame does not decode");
    let damaged = Container::from_blocks(CodecId::Gld, frames);
    let fanned = gld
        .decompress_container(&damaged)
        .expect_err("nor does a container holding it");
    assert_eq!(
        fanned,
        ContainerError::Block {
            block: 1,
            error: alone
        }
    );
    assert_eq!(
        bits(&gld.decompress_container(&good).unwrap()),
        bits(&decode_sequentially(&gld, &good))
    );
}
