//! Contract tests for the binary container format and the parallel block
//! pipeline: encode→decode equality, reported sizes matching measured
//! serialized lengths, header validation (v2 writes per-frame CRC-32
//! trailers; see `tests/streaming_executor.rs` for v1-compat and corruption
//! detection), per-block seed derivation and parallel-vs-sequential
//! bit-identical output through the streaming block executor.

use gld_baselines::SzCompressor;
use gld_core::{
    derive_block_seed, BlockJob, Codec, CodecId, CodecScratch, CompressedBlock, Container,
    ContainerError, ErrorTarget, GldCompressor, GldConfig, LearnedBaseline, LearnedBaselineKind,
    StreamConfig,
};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_diffusion::ConditionalDiffusion;
use gld_tensor::Tensor;
use gld_vae::{Vae, VaeConfig};

/// An untrained (but fully functional and deterministic) pipeline — the
/// container/framing contracts must hold regardless of model quality.
fn untrained_compressor() -> GldCompressor {
    let config = GldConfig::tiny();
    GldCompressor::from_parts(
        config,
        Vae::new(config.vae),
        ConditionalDiffusion::new(config.diffusion),
    )
}

/// The frame of `block` at window 0.
fn encode(codec: &dyn Codec, block: &Tensor, target: Option<ErrorTarget>) -> Vec<u8> {
    let job = BlockJob::new(block, target, 0);
    let encoded = codec.encode(&job, &mut CodecScratch::new());
    encoded.expect("an [N, H, W] block").frame
}

#[test]
fn block_frame_roundtrips_and_total_bytes_is_the_serialized_length() {
    let compressor = untrained_compressor();
    let ds = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 5);
    let block = ds.variables[0].frames.slice_axis(0, 0, 8);
    for target in [None, Some(1e-2)] {
        let written = encode(&compressor, &block, target.map(ErrorTarget::Nrmse));
        let compressed = CompressedBlock::decode(&written).expect("frame decodes");
        let frame = compressed.encode();
        assert_eq!(frame, written, "the structure re-encodes to its own bytes");
        assert_eq!(
            frame.len(),
            compressed.total_bytes(),
            "reported size must equal measured serialized size (target {target:?})"
        );
        let decoded = CompressedBlock::decode(&frame).expect("frame decodes");
        assert_eq!(decoded.frames, compressed.frames);
        assert_eq!(decoded.frame_norms, compressed.frame_norms);
        assert_eq!(decoded.latent_range, compressed.latent_range);
        assert_eq!(decoded.keyframe_bytes, compressed.keyframe_bytes);
        assert_eq!(decoded.aux_bytes, compressed.aux_bytes);
        assert_eq!(decoded.sampling_seed, compressed.sampling_seed);
        assert_eq!(decoded.denoising_steps, compressed.denoising_steps);
        // The round-tripped block decompresses to the identical tensor.
        assert_eq!(
            compressor.decode(&decoded.encode(), None),
            compressor.decode(&written, None)
        );
    }
}

#[test]
fn container_stats_report_the_measured_encoded_length() {
    let compressor = untrained_compressor();
    let ds = generate(DatasetKind::S3d, &FieldSpec::tiny(), 9);
    let (container, stats) = Codec::compress_variable(
        &compressor,
        &ds.variables[0],
        compressor.config().block_frames,
        None,
    );
    let encoded = container.encode();
    assert_eq!(stats.compressed_bytes, encoded.len());
    assert_eq!(stats.blocks, 2); // 16 frames / N = 8
    assert_eq!(stats.original_bytes, 16 * 16 * 16 * 4);
    assert!(stats.compression_ratio > 1.0);
    // Decoding the container yields per-block reconstructions of the right
    // shape through the same codec.
    let decoded = Container::decode(&encoded).expect("container decodes");
    assert_eq!(decoded, container);
    let blocks = Codec::decompress_container(&compressor, &decoded).expect("codec id matches");
    assert_eq!(blocks.len(), 2);
    assert!(blocks.iter().all(|b| b.dims() == [8, 16, 16]));
}

#[test]
fn containers_reject_magic_version_and_codec_mismatches() {
    let compressor = untrained_compressor();
    let ds = generate(DatasetKind::Jhtdb, &FieldSpec::tiny(), 13);
    let (container, _) = Codec::compress_variable(&compressor, &ds.variables[0], 8, None);
    let good = container.encode();

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xFF;
    assert!(matches!(
        Container::decode(&bad_magic),
        Err(ContainerError::BadMagic(_))
    ));

    let mut bad_version = good.clone();
    bad_version[4] = 0x7F;
    assert!(matches!(
        Container::decode(&bad_version),
        Err(ContainerError::UnsupportedVersion(_))
    ));

    let mut bad_codec = good.clone();
    bad_codec[6] = 0xEE;
    assert!(matches!(
        Container::decode(&bad_codec),
        Err(ContainerError::UnknownCodec(0xEE))
    ));

    assert!(matches!(
        Container::decode(&good[..good.len() - 3]),
        Err(ContainerError::Truncated { .. })
    ));

    // A container from a different codec is refused at decompression.
    let sz = SzCompressor::new();
    let (sz_container, _) = Codec::compress_variable(&sz, &ds.variables[0], 8, None);
    assert_eq!(sz_container.codec(), CodecId::SzLike);
    assert!(Codec::decompress_container(&compressor, &sz_container).is_err());

    // A block frame whose declared frame count exceeds the bytes present is
    // rejected as truncated without attempting a huge allocation.
    let block = ds.variables[0].frames.slice_axis(0, 0, 8);
    let mut frame = encode(&compressor, &block, None);
    frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        CompressedBlock::decode(&frame),
        Err(ContainerError::Truncated { .. })
    ));
}

#[test]
fn distinct_blocks_use_distinct_derived_seeds() {
    let compressor = untrained_compressor();
    let ds = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 17);
    let (container, _) = Codec::compress_variable(&compressor, &ds.variables[0], 8, None);
    let blocks: Vec<CompressedBlock> = container
        .blocks()
        .iter()
        .map(|frame| CompressedBlock::decode(frame).unwrap())
        .collect();
    assert_eq!(blocks.len(), 2);
    let base = compressor.config().seed;
    assert_eq!(blocks[0].sampling_seed, derive_block_seed(base, 0));
    assert_eq!(blocks[1].sampling_seed, derive_block_seed(base, 1));
    assert_ne!(
        blocks[0].sampling_seed, blocks[1].sampling_seed,
        "distinct blocks must not share a noise realisation"
    );
    // Seed derivation is stable across processes (documented contract).
    assert_eq!(derive_block_seed(1, 0), derive_block_seed(1, 0));
    assert_ne!(derive_block_seed(1, 0), derive_block_seed(2, 0));
}

#[test]
fn parallel_and_sequential_compression_are_bit_identical() {
    // Smooth fields keep the untrained VAE's hyper-latents inside the
    // entropy models' symbol range; 32 timesteps -> 4 windows of 8.
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 32, 16, 16), 19);
    let variable = &ds.variables[0];

    let compressor = untrained_compressor();
    let sz = SzCompressor::new();
    let vae = Vae::new(VaeConfig::tiny());
    let vaesr = LearnedBaseline::new(LearnedBaselineKind::VaeSr, &vae, None);
    let codecs: [&dyn Codec; 3] = [&compressor, &sz, &vaesr];

    for codec in codecs {
        for target in [None, Some(ErrorTarget::Nrmse(1e-2))] {
            let (par, par_stats) = codec.compress_variable(variable, 8, target);
            let (seq, seq_stats) = codec.compress_variable_sequential(variable, 8, target);
            assert_eq!(
                par.encode(),
                seq.encode(),
                "{}: parallel container differs from sequential",
                codec.name()
            );
            assert_eq!(par_stats.compressed_bytes, seq_stats.compressed_bytes);
            assert_eq!(par_stats.nrmse, seq_stats.nrmse, "{}", codec.name());
            assert_eq!(
                par_stats.compression_ratio,
                seq_stats.compression_ratio,
                "{}",
                codec.name()
            );
        }
    }
}

#[test]
fn v3_stage_roundtrips_through_real_codecs_and_beats_v2() {
    // The per-frame gld-lz stage must engage on real rule-based frames
    // (model tables + headers are compressible), shrink the container, and
    // decode back to bit-identical frames.
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 32, 16, 16), 23);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let (container, stats) = Codec::compress_variable(&sz, variable, 8, None);

    let v3 = container.encode();
    let v2 = container.encode_v2();
    assert!(
        v3.len() < v2.len(),
        "stage saved nothing on SZ frames: v3 {} vs v2 {}",
        v3.len(),
        v2.len()
    );
    assert_eq!(
        stats.compressed_bytes,
        v3.len(),
        "reported size must be the staged (v3) length"
    );

    // Both wire forms decode to the same frames and reconstruct the same
    // blocks.
    let from_v3 = Container::decode(&v3).expect("v3 decodes");
    let from_v2 = Container::decode(&v2).expect("v2 decodes");
    assert_eq!(from_v3, container);
    assert_eq!(from_v2, container);
    let a = sz.decompress_container(&from_v3).unwrap();
    let b = sz.decompress_container(&from_v2).unwrap();
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.data(), y.data(), "staged and unstaged decodes diverge");
    }
}

#[test]
fn pre_range_coder_streams_are_refused_by_name() {
    // A v1 learned-codec container can only have been written by the
    // pre-range-coder build (PR-3 era and before): decompressing it must be
    // a typed IncompatibleEntropyCoder error naming the stream, not garbage
    // latents or a panic deep inside the entropy decoder.
    let compressor = untrained_compressor();
    let ds = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 27);
    let (container, _) = Codec::compress_variable(&compressor, &ds.variables[0], 8, None);

    let v1 = container.encode_v1();
    let decoded = Container::decode(&v1).expect("v1 framing still decodes");
    match Codec::decompress_container(&compressor, &decoded) {
        Err(ContainerError::IncompatibleEntropyCoder { version, codec }) => {
            assert_eq!(version, 1);
            assert_eq!(codec, CodecId::Gld);
        }
        other => panic!("expected IncompatibleEntropyCoder, got {other:?}"),
    }
    // The error text names the incompatibility for service diagnostics.
    let message = ContainerError::IncompatibleEntropyCoder {
        version: 1,
        codec: CodecId::Gld,
    }
    .to_string();
    assert!(message.contains("pre-range-coder"), "{message}");

    // The same stream at the current version decompresses fine, and
    // rule-based v1 streams (layout pinned by the compat suite) still do.
    assert!(Codec::decompress_container(&compressor, &container).is_ok());
    let sz = SzCompressor::new();
    let (sz_container, _) = Codec::compress_variable(&sz, &ds.variables[0], 8, None);
    let sz_v1 = Container::decode(&sz_container.encode_v1()).unwrap();
    assert!(sz.decompress_container(&sz_v1).is_ok());
}

#[test]
fn learned_codec_frames_stage_and_roundtrip() {
    // GLD frames carry entropy-coded latent streams plus norms/headers; the
    // stage must stay transparent for them too (bit-identical frames back).
    let compressor = untrained_compressor();
    let ds = generate(DatasetKind::S3d, &FieldSpec::tiny(), 31);
    let (container, _) = Codec::compress_variable(&compressor, &ds.variables[0], 8, None);
    let decoded = Container::decode(&container.encode()).expect("v3 decodes");
    assert_eq!(decoded, container);
    assert_eq!(
        decoded.blocks(),
        container.blocks(),
        "frames must come back unstaged and bit-identical"
    );
}

#[test]
fn v4_profiled_parallel_matches_sequential_and_decodes_like_v3() {
    // Container v4 (shared profiles + warm stage) must be deterministic
    // across the parallel executor and the sequential reference, survive an
    // encode→decode→encode cycle bit-identically, and reconstruct the same
    // blocks as the cold per-frame v3 encoding of the same variable.
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 32, 16, 16), 31);
    let variable = &ds.variables[0];
    let sz = SzCompressor::new();
    let target = Some(ErrorTarget::Nrmse(1e-3));

    let (seq, seq_stats) = sz.compress_variable_profiled_sequential(variable, 8, target);
    let v4 = seq.encode();
    let (par, par_stats, _) =
        sz.compress_variable_profiled(variable, 8, target, StreamConfig { queue_depth: 2 });
    assert_eq!(
        par.encode(),
        v4,
        "parallel v4 container differs from sequential"
    );
    assert_eq!(par_stats.compressed_bytes, seq_stats.compressed_bytes);
    assert_eq!(par_stats.nrmse, seq_stats.nrmse);

    let decoded = Container::decode(&v4).expect("v4 decodes");
    assert_eq!(decoded, seq);
    assert_eq!(decoded.encode(), v4, "v4 re-encode must be bit-identical");

    // Warm (v4) and cold (v3 stage-on) containers of the same variable
    // reconstruct bit-identical blocks: the profile changes only the coding,
    // never the content.
    let (cold, _) = Codec::compress_variable(&sz, variable, 8, target);
    let warm_blocks = sz.decompress_container(&decoded).expect("v4 decompresses");
    let cold_blocks = sz.decompress_container(&cold).expect("v3 decompresses");
    assert_eq!(warm_blocks.len(), cold_blocks.len());
    for (w, c) in warm_blocks.iter().zip(&cold_blocks) {
        assert_eq!(w.data(), c.data(), "v4 and v3 reconstructions diverge");
    }
}

#[test]
fn v4_profile_table_corruption_fails_typed_not_panicking() {
    // Single-bit damage anywhere in the profile table must surface as a
    // typed decode error (the table is CRC-framed), never a panic or a
    // silently-wrong container.
    let ds = generate(DatasetKind::S3d, &FieldSpec::new(1, 16, 12, 12), 37);
    let sz = SzCompressor::new();
    let (container, _) = sz.compress_variable_profiled_sequential(&ds.variables[0], 8, None);
    let v4 = container.encode();

    // The profile table starts right after the fixed header; sweep a prefix
    // of it (every table starts with stage byte + section length + body).
    let table_start = gld_core::container::HEADER_LEN;
    for offset in table_start..(table_start + 48).min(v4.len()) {
        let mut corrupt = v4.clone();
        corrupt[offset] ^= 0x10;
        match Container::decode(&corrupt) {
            Err(_) => {}
            Ok(decoded) => panic!(
                "flipping byte {offset} in the profile table decoded silently \
                 ({} profiles)",
                decoded.profiles().len()
            ),
        }
    }
}
