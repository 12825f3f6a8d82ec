//! Hostile block payloads behind valid framing: every registered codec's
//! frames are mutated — cut at every length, bit-flipped by a seeded
//! generator, their plausible length fields set to `u32::MAX`, their shapes
//! blown past the cap — and wrapped back into CRC-correct v2 containers, the
//! bytes a client can hand the service.  Every case must come back `Ok` or a
//! typed `Err`: no panic, and no allocation sized by a shape the reader
//! refuses.  The same containers then go through a server, which must answer
//! `BadContainer` with its codec bug trap untouched.
//!
//! One test, one binary: the counting allocator is process-global, and a
//! second test thread would add its allocations to the count.

use gld_core::{
    Codec, CodecError, CodecId, Container, ContainerError, ErrorTarget, GldCompressor, GldConfig,
    KeyframeStrategy, LearnedBaseline, LearnedBaselineKind, StreamConfig,
};
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_diffusion::ConditionalDiffusion;
use gld_entropy::ReadError;
use gld_service::{ClientError, CodecRegistry, Server, ServiceClient, ServiceConfig, Status};
use gld_vae::{Vae, VaeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Counts every byte requested, never subtracting: a large reservation
/// that is freed again is still a large reservation.
struct Counting;

static REQUESTED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let result = f();
    (result, REQUESTED.load(Ordering::Relaxed) - before)
}

const LIMIT: usize = 64 << 10;

/// Seeded bit flips per frame.
const FLIPS: usize = 48;

/// SplitMix64: the seeded generator behind the bit flips.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// What a case must decode to, beyond "no panic".
#[derive(Clone, Copy, PartialEq)]
enum Must {
    /// `Ok`, or any typed error.
    Survive,
    /// A typed error.
    Refuse,
    /// The reader's `OversizedShape`, having requested next to nothing.
    RefuseShape,
}

/// A mutated frame, labelled for the failure message.
struct Case {
    label: String,
    frame: Vec<u8>,
    must: Must,
}

fn case(label: impl Into<String>, frame: Vec<u8>) -> Case {
    Case {
        label: label.into(),
        frame,
        must: Must::Survive,
    }
}

fn put_u32(frame: &[u8], at: usize, value: u32) -> Vec<u8> {
    let mut out = frame.to_vec();
    out[at..at + 4].copy_from_slice(&value.to_le_bytes());
    out
}

/// Every mutation the generic generator makes of `frame`, whose
/// rank-prefixed shapes occupy `shapes`.  A bit flipped inside a shape may
/// declare a larger block within the cap — a legitimate, if large, frame
/// that decodes at its full cost — so the flips stay outside them.  The
/// shapes get their own cases instead: every rank and extent nudged by one
/// and zeroed, every extent set to `u32::MAX` (below), and the explicit
/// over-cap shapes.
fn mutations(frame: &[u8], shapes: Range<usize>, seed: u64) -> Vec<Case> {
    let mut cases: Vec<Case> = (0..frame.len())
        .map(|cut| case(format!("cut at {cut}"), frame[..cut].to_vec()))
        .collect();
    let mut mix = Mix(seed);
    while cases.len() < frame.len() + FLIPS {
        let bit = mix.next() as usize % (frame.len() * 8);
        if shapes.contains(&(bit / 8)) {
            continue;
        }
        let mut flipped = frame.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        cases.push(case(format!("bit {bit} flipped"), flipped));
    }
    let mut at = shapes.start;
    while at < shapes.end {
        let rank = frame[at] as usize;
        for nudged in [0, rank + 1, rank.saturating_sub(1)] {
            let mut out = frame.to_vec();
            out[at] = nudged as u8;
            cases.push(case(format!("rank at {at} set to {nudged}"), out));
        }
        for extent_at in (at + 1..at + 1 + 4 * rank).step_by(4) {
            let extent = u32::from_le_bytes(frame[extent_at..extent_at + 4].try_into().unwrap());
            for nudged in [0, extent + 1, extent.saturating_sub(1)] {
                cases.push(case(
                    format!("extent at {extent_at} set to {nudged}"),
                    put_u32(frame, extent_at, nudged),
                ));
            }
        }
        at += 1 + 4 * rank;
    }
    // Every field that reads as a plausible length — below the frame's own
    // size — is a length, a count or an extent: each becomes `u32::MAX`.
    for at in 0..frame.len().saturating_sub(3) {
        let value = u32::from_le_bytes(frame[at..at + 4].try_into().unwrap());
        if (1..frame.len() as u32).contains(&value) {
            cases.push(case(
                format!("u32::MAX at {at}"),
                put_u32(frame, at, u32::MAX),
            ));
        }
    }
    cases
}

/// The probe rows: a CRC-valid SZ frame edited one field at a time.  Before
/// the typed readers, the last of them aborted the process on a 128 TiB
/// allocation.
fn rule_codec_rows(frame: &[u8]) -> Vec<Case> {
    let rank = frame[1] as usize;
    let model_len_at = 2 + 4 * rank + 4;
    let mut codec_99 = frame.to_vec();
    codec_99[0] = 99;
    let mut rank_7 = frame.to_vec();
    rank_7[1] = 7;
    let mut cube = vec![frame[0], 3];
    for _ in 0..3 {
        cube.extend_from_slice(&(1u32 << 15).to_le_bytes());
    }
    cube.extend_from_slice(&frame[2 + 4 * rank..]);
    let mut overflowing = vec![frame[0], 4];
    for _ in 0..4 {
        overflowing.extend_from_slice(&u32::MAX.to_le_bytes());
    }
    overflowing.extend_from_slice(&frame[2 + 4 * rank..]);
    let refused = |label, frame| Case {
        must: Must::Refuse,
        ..case(label, frame)
    };
    let oversized = |label, frame| Case {
        must: Must::RefuseShape,
        ..case(label, frame)
    };
    vec![
        refused("codec byte 99", codec_99),
        refused("cut in half", frame[..frame.len() / 2].to_vec()),
        refused("cut to 3 bytes", frame[..3].to_vec()),
        refused(
            "model length 0x7ffffff0",
            put_u32(frame, model_len_at, 0x7fff_fff0),
        ),
        refused("rank 7", rank_7),
        oversized("dims 2^15 cubed", cube),
        oversized("dims u32::MAX ^ 4", overflowing),
    ]
}

/// A GLD or learned-baseline frame whose latent bitstream, starting at
/// `latent_at` with the latent's rank-prefixed shape, declares a latent of
/// 2¹⁵ × 2¹⁵ × 2¹⁵ × 1.
fn oversized_latent(frame: &[u8], latent_at: usize) -> Case {
    let mut out = frame.to_vec();
    out[latent_at] = 4;
    for (i, extent) in [1u32 << 15, 1 << 15, 1 << 15, 1].into_iter().enumerate() {
        let at = latent_at + 1 + 4 * i;
        out[at..at + 4].copy_from_slice(&extent.to_le_bytes());
    }
    Case {
        must: Must::RefuseShape,
        ..case("latent dims 2^15 cubed", out)
    }
}

/// Where the parts of a `codec` frame that the generic mutations handle
/// with care sit.
struct FrameLayout {
    /// The rank-prefixed shapes: one rank byte and `rank` extents each.
    shapes: Range<usize>,
    /// The latent bitstream, which starts with the latent's shape (`None`
    /// for the rule codecs).
    latent: Option<usize>,
    /// The error-bound correction stream (`None` for the rule codecs).
    correction: Option<usize>,
}

fn layout(codec: CodecId, frame: &[u8]) -> FrameLayout {
    let dims = |at: usize| at + 1 + 4 * frame[at] as usize;
    let u64_at = |at: usize| u64::from_le_bytes(frame[at..at + 8].try_into().unwrap()) as usize;
    // The learned baselines: the latent section's u64 length and bytes,
    // then the correction section's.
    let correction = 8 + u64_at(0) + 8;
    match codec {
        CodecId::SzLike | CodecId::ZfpLike => FrameLayout {
            shapes: 1..dims(1),
            latent: None,
            correction: None,
        },
        // GLD: four u32, the seed, the latent range, eight frame norms and
        // the keyframe section's u64 length; the keyframe bitstream starts
        // with the latent and hyper-latent shapes, and the correction
        // section follows it.
        CodecId::Gld => {
            let latent = 16 + 8 + 8 + 8 * 8 + 8;
            FrameLayout {
                shapes: latent..dims(dims(latent)),
                latent: Some(latent),
                correction: Some(latent + u64_at(latent - 8) + 8),
            }
        }
        // VAE-SR: after the section length, n, h, w and eight frame norms;
        // then the latent and hyper-latent shapes.
        CodecId::VaeSr => {
            let latent = 8 + 12 + 8 * 8;
            FrameLayout {
                shapes: latent..dims(dims(latent)),
                latent: Some(latent),
                correction: Some(correction),
            }
        }
        // The histogram-coded baselines: after the section length, the
        // block's shape and the latent's.
        _ => FrameLayout {
            shapes: 8..dims(dims(8)),
            latent: Some(dims(8)),
            correction: Some(correction),
        },
    }
}

/// The correction stream at `at` (τ, the chunk count, then three
/// `u32`-length histogram models: counts, term indices, codes) with the
/// first two models' lowest symbol shifted far out of range: chunk counts
/// past the chunk, terms naming no basis vector.
fn shifted_correction_models(frame: &[u8], at: usize) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut model = at + 8;
    for _ in 0..2 {
        let len = u32::from_le_bytes(frame[model..model + 4].try_into().unwrap()) as usize;
        let min = i32::from_le_bytes(frame[model + 4..model + 8].try_into().unwrap());
        for shift in [1000, -1000] {
            let shifted = min.wrapping_add(shift) as u32;
            cases.push(Case {
                must: Must::Refuse,
                ..case(
                    format!("model min at {} shifted by {shift}", model + 4),
                    put_u32(frame, model + 4, shifted),
                )
            });
        }
        model += 4 + len;
    }
    cases
}

/// Decodes `frame` as block 0 of a CRC-correct v2 container of `codec`.
fn decode_framed(
    codec: &dyn Codec,
    frame: &[u8],
) -> Result<Vec<gld_tensor::Tensor>, ContainerError> {
    let bytes = Container::from_blocks(codec.id(), vec![frame.to_vec()]).encode_v2();
    let container = Container::decode(&bytes).expect("valid framing around any payload");
    codec.decompress_container(&container)
}

fn untrained_gld(config: GldConfig) -> GldCompressor {
    GldCompressor::from_parts(
        config,
        Vae::new(config.vae),
        ConditionalDiffusion::new(config.diffusion),
    )
}

/// Well-formed GLD frames from models configured otherwise — a shorter
/// block with as many keyframes, more keyframes in the same block — which
/// the tiny model must refuse before its sampler runs.
fn foreign_gld_frames(variable: &Variable) -> Vec<Case> {
    let tiny = GldConfig::tiny();
    let configs = [
        (
            "block of 6, four keyframes",
            GldConfig {
                block_frames: 6,
                strategy: KeyframeStrategy::Mixed { count: 4 },
                ..tiny
            },
        ),
        (
            "keyframe interval 2",
            GldConfig {
                strategy: KeyframeStrategy::Interpolation { interval: 2 },
                ..tiny
            },
        ),
    ];
    configs
        .into_iter()
        .map(|(label, config)| {
            let (container, _) = untrained_gld(config).compress_variable_sequential(
                variable,
                config.block_frames,
                None,
            );
            Case {
                must: Must::Refuse,
                ..case(label, container.blocks()[0].clone())
            }
        })
        .collect()
}

#[test]
fn hostile_payloads_behind_valid_framing_get_typed_errors() {
    let ds = generate(DatasetKind::E3sm, &FieldSpec::new(1, 8, 16, 16), 97);
    let variable = &ds.variables[0];
    let target = Some(ErrorTarget::Nrmse(0.05));
    let gld = untrained_gld(GldConfig::tiny());
    let vae = Vae::new(VaeConfig::tiny());
    let learned = LearnedBaselineKind::all().map(|kind| LearnedBaseline::new(kind, &vae, None));
    let sz = gld_baselines::SzCompressor::new();
    let zfp = gld_baselines::ZfpLikeCompressor::new();
    let mut codecs: Vec<&dyn Codec> = vec![&sz, &zfp, &gld];
    codecs.extend(learned.iter().map(|codec| codec as &dyn Codec));

    let mut served: Vec<(CodecId, Vec<Vec<u8>>)> = Vec::new();
    for (seed, &codec) in (1u64..).zip(&codecs) {
        let (container, _) = codec.compress_variable_sequential(variable, 8, target);
        let frame = container.blocks()[0].clone();
        assert!(
            decode_framed(codec, &frame).is_ok(),
            "{}: own frame",
            codec.name()
        );
        let layout = layout(codec.id(), &frame);
        let mut cases = mutations(&frame, layout.shapes, seed);
        cases.extend(layout.latent.map(|at| oversized_latent(&frame, at)));
        if let Some(at) = layout.correction {
            cases.extend(shifted_correction_models(&frame, at));
        }
        if codec.id() == CodecId::Gld {
            cases.extend(foreign_gld_frames(variable));
        }
        if layout.latent.is_none() {
            let rows = rule_codec_rows(&frame);
            served.push((codec.id(), rows.iter().map(|c| c.frame.clone()).collect()));
            cases.extend(rows);
            // A frame coded against a shared profile model, in a v2
            // container that carries no profile.
            let (profiled, _, _) =
                codec.compress_variable_profiled(variable, 8, target, StreamConfig::default());
            let sentinel = profiled.blocks()[0].clone();
            assert_eq!(
                decode_framed(codec, &sentinel),
                Err(ContainerError::Block {
                    block: 0,
                    error: CodecError::Frame(ReadError::Malformed(
                        "frame references a shared model, but none was provided"
                    ))
                }),
                "{}: sentinel without a profile",
                codec.name()
            );
        }
        for case in cases {
            let decode = || decode_framed(codec, &case.frame);
            let (result, requested) = catch_unwind(AssertUnwindSafe(|| requested_by(decode)))
                .unwrap_or_else(|_| {
                    panic!("{}: {}: the decoder panicked", codec.name(), case.label)
                });
            let shapes = result.as_ref().map(|blocks| blocks[0].dims().to_vec());
            let what = format!("{}: {}: {shapes:?}", codec.name(), case.label);
            assert!(case.must == Must::Survive || result.is_err(), "{what}");
            if case.must == Must::RefuseShape {
                assert!(
                    matches!(
                        result,
                        Err(ContainerError::Block {
                            error: CodecError::Frame(ReadError::OversizedShape),
                            ..
                        })
                    ),
                    "{what}"
                );
                assert!(requested < LIMIT, "{what}: requested {requested} bytes");
            }
        }
    }

    // The same probe rows through the service: a typed refusal each, the
    // connection still serving, and the codec bug trap never sprung.
    let server =
        Server::start(ServiceConfig::default(), CodecRegistry::rule_based()).expect("bind");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connect");
    for (id, frames) in served {
        for frame in frames {
            let bytes = Container::from_blocks(id, vec![frame]).encode_v2();
            match client.decompress("fuzz/var", &bytes) {
                Err(ClientError::Server { status, .. }) => {
                    assert_eq!(status, Status::BadContainer)
                }
                other => panic!("{id:?}: expected BadContainer, got {other:?}"),
            }
        }
    }
    client.ping().expect("the connection still serves");
    drop(client);
    assert_eq!(server.codec_panics(), 0);
    server.shutdown();
}
