//! Framed binary container for compressed variables.
//!
//! Every compressor in the stack emits per-block byte *frames*; a container
//! groups the frames of one variable behind a self-describing header so that
//! multi-block compressed output is a single `Vec<u8>` / `Write` stream whose
//! measured length **is** the reported compressed size (Eq. 11 denominator —
//! no hand-counted header arithmetic).
//!
//! ## Wire format (normative; all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"GLDC"
//! 4       2     format version (1–4)
//! 6       1     codec id (see [`CodecId`])
//! 7       1     flags (v1/v2: must be 0; v3/v4: see below, unknown bits ignored)
//! 8       4     block count K
//! 12      ...   v4 only: the shared entropy-profile table (see below)
//! ...     ...   K frames
//! ```
//!
//! Every frame of every version is
//! `[stage u8] [profile u8] u64 payload length, payload, [u32 CRC-32]`;
//! a version only decides which bracketed parts are present, and the CRC
//! covers the head bytes present followed by the payload:
//!
//! | version | stage byte | profile id | CRC-32 | written by |
//! |---|---|---|---|---|
//! | 1 | – | – | – | [`Container::encode_v1`] (compat tests, v1-only readers) |
//! | 2 | – | – | ✓ | [`Container::encode_v2`] (stage-incapable peers) |
//! | 3 | ✓ | – | ✓ | [`Container::encode_v3`]; [`Container::encode`] without profiles |
//! | 4 | ✓ | ✓ | ✓ | [`Container::encode`] with profiles |
//!
//! That table exists once in code — `FrameLayout::of` in `container/frame.rs`,
//! whose fields no other module can see — and every encoder, both decoders,
//! the profile table and [`ContainerWriter`] frame through the one reader and
//! one writer built on it.
//!
//! **CRC-32/IEEE (v2+)**: payload corruption surfaces as a typed
//! [`ContainerError::ChecksumMismatch`] naming the damaged block instead of
//! a downstream codec panic; from v3 a corrupted stage byte (and from v4
//! profile id) is caught the same way, before the stage decoder runs.
//!
//! **Stage byte (v3+)**: every frame runs through the general-purpose
//! `gld-lz` stage (hash-chain LZ77, sequences range-coded with adaptive
//! models) and keeps whichever is smaller — stage 0 (`None`): the payload
//! is the codec frame verbatim; stage 1 (`Lz`): a `gld-lz` stream,
//! decompress to get the frame.  The stage squeezes the per-frame fixed
//! costs the codecs cannot remove themselves — serialised model tables,
//! headers, escape literals — and the stored-block economics of `gld-lz`
//! guarantee a frame never grows by more than the one stage byte.
//!
//! **Flags (v3+)**: the flags byte declares the entropy-coder generation of
//! the frame payloads.  [`FLAG_RANGE_CODED`] is always set by this build's
//! writers, and a v3/v4 stream *without* it is refused as
//! [`ContainerError::IncompatibleEntropyCoder`] — the typed cross-build
//! error for payloads written by a pre-range-coder build.  (Pre-v3 streams
//! carry no such marker: v2 payloads may come from either side of the
//! range-coder switch and decode on benefit of the doubt, while v1
//! learned-codec streams — which can only predate it — are refused with the
//! same typed error by [`Container::check_entropy_compat`].)  Unknown flag
//! bits are ignored so future markers never hard-break this reader.
//!
//! **Profile table and profile id (v4)**: entropy models fitted once per
//! variable and referenced by the frames' one-byte profile id, so later
//! frames stop paying the per-frame model serialisation and the stage's cold
//! adaptive-model ramp.  The table is **one frame in the version 3 layout**
//! — its body takes the same `gld-lz` stage decision (histograms and
//! snapshots compress well, and the table is the fixed cost every
//! shared-coding saving has to amortise) and is validated against its CRC
//! before any entry is interpreted.  The body:
//!
//! ```text
//! u8            profile count P (frames reference 1..=P; 0 = no profile)
//! P entries:    u8  generation       (must be PROFILE_GENERATION)
//!               u8  codec id         (must equal the container codec)
//!               u8  dictionary mode  (0 = none, 1 = the container's first block)
//!               u64 length + bytes   shared HistogramModel (empty = none)
//!               u64 length + bytes   gld-lz warm-start snapshot (empty = none)
//! ```
//!
//! A staged (`Lz`) frame whose profile id is non-zero de-stages through the
//! profile's warm adaptive models, with the container's **first block** as
//! seed dictionary when the dictionary mode says so (the first block itself
//! always de-stages dictionary-free — it *is* the dictionary).  A frame's
//! codec payload may reference the profile's histogram model through the
//! codec's own sentinel (see `gld-baselines`); the container just guarantees
//! the profile is validated and available before any payload decodes.
//! Profile references fail **typed**: unknown ids, damaged tables,
//! generation or codec mismatches each surface as their own
//! [`ContainerError`] variant, never a panic.
//!
//! ## Decoding: two policies over one walk
//!
//! Both decoders parse the header and the table, then read frame after
//! frame through the same reader and the same de-stage.
//! [`Container::decode`] returns the first fault;
//! [`Container::decode_salvage`] records it against the frame, finds the
//! next frame boundary (the damaged frame's own length prefix when the
//! stream behind it validates, a checksum-guided scan otherwise) and keeps
//! going.  Whatever strict decode accepts, salvage returns complete and
//! identical; a frame either refuses, both refuse with the same typed error.

mod frame;

use crate::codec::CodecError;
use frame::{decode_header, destage, encode_header, FrameDamage, FrameLayout};
use gld_entropy::{write_section, ByteReader, HistogramModel, ReadError};
use gld_lz::{LzProfile, LzScratch};
use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::io::{Read, Write};

/// Container magic bytes.
pub const MAGIC: [u8; 4] = *b"GLDC";

/// The staged container version without a profile table (written by
/// [`Container::encode`] for profile-less containers; the v3 framing rules
/// apply to every version at or above this one).
pub const VERSION: u16 = 3;

/// The shared-entropy-profile container version (written by
/// [`Container::encode`] when the container carries profiles).
pub const VERSION_V4: u16 = 4;

/// Generation marker of a serialised entropy profile.  Bumped whenever the
/// coder state a profile snapshots changes shape, so a profile written by an
/// incompatible build fails typed instead of decoding garbage.
pub const PROFILE_GENERATION: u8 = 1;

/// Most profiles one container can carry (ids are one byte, 0 = none).
pub const MAX_PROFILES: usize = 255;

/// The checksummed but stage-less container version (still decodable;
/// written for stage-incapable peers by [`Container::encode_v2`]).
pub const VERSION_V2: u16 = 2;

/// The initial, checksum-less container version (still decodable).
pub const VERSION_V1: u16 = 1;

/// v3 flags bit: frame payloads are entropy-coded with the table-driven
/// range coder (always set by this build's writers).
pub const FLAG_RANGE_CODED: u8 = 0b1;

/// Frame stage byte: the payload is the codec frame verbatim.
pub const STAGE_NONE: u8 = 0;

/// Frame stage byte: the payload is a `gld-lz` stream.
pub const STAGE_LZ: u8 = 1;

/// Bytes of per-frame checksum trailer in a v2/v3 container.
pub const FRAME_CRC_LEN: usize = 4;

/// Bytes of per-frame stage marker in a v3 container.
pub const FRAME_STAGE_LEN: usize = 1;

/// Hard cap on a container's **total** de-staged frame bytes — matches the
/// wire protocol's body cap.  The budget is shared by every frame of one
/// decode, so a malicious container of many tiny `Lz` frames each
/// declaring gigabytes cannot amplify a few wire bytes into unbounded
/// allocation (each frame's cap is whatever budget the earlier frames left
/// over).
pub const MAX_DESTAGE_BUDGET: usize = 1 << 30;

/// Fixed header length in bytes (magic + version + codec + flags + count).
pub const HEADER_LEN: usize = 12;

thread_local! {
    /// Stage scratch for the buffered container paths (`push`,
    /// `from_blocks`, `ContainerWriter::write_frame`); the streaming
    /// executor carries its own in `CodecScratch`.
    static STAGE_SCRATCH: RefCell<LzScratch> = RefCell::new(LzScratch::new());
}

/// Runs the adaptive stage decision for one frame: the frame is staged
/// cold and `Some(stream)` is kept iff that stream is **strictly smaller**
/// than the frame (`None` stores the frame unstaged).  This is the single
/// definition of that rule, shared by the buffered paths here and the
/// executor's worker threads (`CodecScratch`), which is what keeps their
/// containers bit-identical.
pub fn stage_frame(frame: &[u8], scratch: &mut LzScratch) -> Option<Vec<u8>> {
    let t0_ns = gld_obs::now_ns();
    let staged = gld_lz::compress(frame, scratch);
    let staged = (staged.len() < frame.len()).then_some(staged);
    stage_lz_ns().record(gld_obs::now_ns().saturating_sub(t0_ns));
    staged
}

/// Pre-resolved stage-latency histogram (`gld_stage_lz_ns`): covers the
/// whole per-frame stage decision — compress plus the smaller-than-input
/// test — on every path, cold or warm.  One registry lookup per process.
fn stage_lz_ns() -> &'static gld_obs::Histogram {
    static H: std::sync::OnceLock<std::sync::Arc<gld_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| gld_obs::registry::histogram("gld_stage_lz_ns", &[]))
}

/// The v4 stage decision under a shared profile: the frame is staged warm,
/// under the profile's frozen tables plus its seed dictionary, and the
/// stream is kept only when **strictly smaller** than the frame, the same
/// rule as [`stage_frame`].  It is defined here once: the executor's
/// workers and the buffered paths both call this, so parallel and
/// sequential v4 containers stay bit-identical.
pub fn stage_frame_profiled(
    frame: &[u8],
    dict: &[u8],
    profile: &LzProfile,
    scratch: &mut LzScratch,
) -> Option<Vec<u8>> {
    let t0_ns = gld_obs::now_ns();
    let staged = gld_lz::compress_profiled(frame, dict, profile, scratch);
    let staged = (staged.len() < frame.len()).then_some(staged);
    stage_lz_ns().record(gld_obs::now_ns().saturating_sub(t0_ns));
    staged
}

/// How a profile seeds the stage's match window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub enum DictMode {
    /// No seed dictionary: every frame's window starts empty.
    #[default]
    None = 0,
    /// The container's **first block** (its unstaged codec bytes) seeds the
    /// window of every later frame.  The first block itself de-stages
    /// dictionary-free, so the dictionary costs nothing on the wire — the
    /// decoder reuses bytes it has already produced.
    FirstBlock = 1,
}

impl DictMode {
    fn from_u8(byte: u8) -> Result<Self, ContainerError> {
        match byte {
            0 => Ok(DictMode::None),
            1 => Ok(DictMode::FirstBlock),
            _ => Err(ContainerError::Corrupt("unknown profile dictionary mode")),
        }
    }
}

/// One shared entropy-model profile: everything a variable's frames reuse
/// instead of refitting per frame.  Serialised once in the v4 profile table
/// and referenced by the frames' one-byte profile id.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EntropyProfile {
    /// Histogram model shared by the frame payloads (codecs reference it
    /// through their model-external sentinel instead of embedding a
    /// per-frame copy).  `None` when only the stage is profiled.
    pub model: Option<HistogramModel>,
    /// Warm-start snapshot for the `gld-lz` stage's adaptive models.
    pub lz: Option<LzProfile>,
    /// How the stage's match window is seeded.
    pub dict_mode: DictMode,
}

impl EntropyProfile {
    /// The seed dictionary this profile selects for `block` out of the
    /// container's unstaged frames (the first block is its own dictionary
    /// and therefore seeds empty).
    pub fn dict_for_block<'a>(&self, block: usize, blocks: &'a [Vec<u8>]) -> &'a [u8] {
        match self.dict_mode {
            DictMode::None => &[],
            DictMode::FirstBlock => {
                if block == 0 {
                    &[]
                } else {
                    blocks.first().map(Vec::as_slice).unwrap_or(&[])
                }
            }
        }
    }
}

fn stage_frame_pooled(frame: &[u8]) -> Option<Vec<u8>> {
    STAGE_SCRATCH.with(|slot| match slot.try_borrow_mut() {
        Ok(mut scratch) => stage_frame(frame, &mut scratch),
        // Re-entrant call on this thread (a codec staging from inside a
        // staging callback): fall back to a fresh scratch — output is
        // identical either way.
        Err(_) => stage_frame(frame, &mut LzScratch::new()),
    })
}

/// Identifies which compressor produced the frames in a container.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CodecId {
    /// The generative latent diffusion compressor ("Ours").
    Gld = 1,
    /// SZ3-like prediction-based rule compressor.
    SzLike = 2,
    /// ZFP-like transform-based rule compressor.
    ZfpLike = 3,
    /// CDC analogue, signal-predicting variant.
    CdcX = 4,
    /// CDC analogue, noise-predicting variant.
    CdcEps = 5,
    /// GCD analogue (3-D block-based CDC).
    Gcd = 6,
    /// VAE with super-resolution refinement.
    VaeSr = 7,
}

impl CodecId {
    /// Parses a codec id byte.
    pub fn from_u8(byte: u8) -> Result<Self, ContainerError> {
        Ok(match byte {
            1 => CodecId::Gld,
            2 => CodecId::SzLike,
            3 => CodecId::ZfpLike,
            4 => CodecId::CdcX,
            5 => CodecId::CdcEps,
            6 => CodecId::Gcd,
            7 => CodecId::VaeSr,
            other => return Err(ContainerError::UnknownCodec(other)),
        })
    }

    /// Whether this codec's frames embed latent entropy bitstreams from the
    /// learned pipeline (GLD and the learned baselines).  Containers of
    /// these codecs at version 1 can only have been written before the
    /// range-coder switch, which is what
    /// [`Container::check_entropy_compat`] keys on.
    pub fn learned(self) -> bool {
        matches!(
            self,
            CodecId::Gld | CodecId::CdcX | CodecId::CdcEps | CodecId::Gcd | CodecId::VaeSr
        )
    }
}

/// Errors produced while decoding a container or a block frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ContainerError {
    /// The stream does not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The stream's format version is not supported by this build.
    UnsupportedVersion(u16),
    /// The codec id byte is not a known [`CodecId`].
    UnknownCodec(u8),
    /// The stream ended before the declared content.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Bytes remained after the declared content.
    TrailingBytes(usize),
    /// A v2/v3 frame's content does not match its stored CRC-32.
    ChecksumMismatch {
        /// Index of the damaged block.
        block: usize,
        /// Checksum stored in the stream.
        stored: u32,
        /// Checksum computed over the content actually present.
        computed: u32,
    },
    /// A v3 frame's stage byte is not a known stage.
    UnknownStage {
        /// Index of the offending block.
        block: usize,
        /// The unrecognised stage byte.
        stage: u8,
    },
    /// A v3 frame's `Lz` stage payload failed to de-stage.
    StageDecode {
        /// Index of the offending block.
        block: usize,
        /// The stage decoder's typed failure.
        error: gld_lz::LzError,
    },
    /// The stream's entropy payloads were written by a build whose coder
    /// this build cannot replay: a v3 stream without [`FLAG_RANGE_CODED`],
    /// or a v1 learned-codec stream (which can only predate the range
    /// coder).  v2 streams carry no coder marker and decode on benefit of
    /// the doubt — re-encode them with a current writer to get the explicit
    /// v3 marker.
    IncompatibleEntropyCoder {
        /// The stream's container version.
        version: u16,
        /// The codec whose payloads are unreadable.
        codec: CodecId,
    },
    /// A frame references a profile id the table does not define.
    UnknownProfile {
        /// Index of the offending block.
        block: usize,
        /// The undefined profile id.
        profile: u8,
    },
    /// The v4 profile table does not match its stored CRC-32.
    ProfileChecksumMismatch {
        /// Checksum stored in the stream.
        stored: u32,
        /// Checksum computed over the table actually present.
        computed: u32,
    },
    /// A profile entry was written by an incompatible coder generation.
    ProfileGenerationMismatch {
        /// Index of the offending profile entry (0-based).
        profile: usize,
        /// The generation byte found (this build writes
        /// [`PROFILE_GENERATION`]).
        generation: u8,
    },
    /// A profile entry's codec id does not match the container's codec.
    ProfileCodecMismatch {
        /// Index of the offending profile entry (0-based).
        profile: usize,
        /// The codec id byte the entry declares.
        codec: u8,
    },
    /// A profile entry's shared histogram model failed to deserialise.
    ProfileModel {
        /// Index of the offending profile entry (0-based).
        profile: usize,
        /// The model deserialiser's typed failure.
        error: ReadError,
    },
    /// A profile entry's stage warm-start snapshot failed to deserialise.
    ProfileStage {
        /// Index of the offending profile entry (0-based).
        profile: usize,
        /// The stage codec's typed failure.
        error: gld_lz::LzError,
    },
    /// The v4 profile table's staged body failed to de-stage.
    ProfileTableDecode {
        /// The stage decoder's typed failure.
        error: gld_lz::LzError,
    },
    /// A block frame violated its own invariants.
    Corrupt(&'static str),
    /// A frame that the container carried intact did not decode: the codec's
    /// own typed refusal of its payload.
    Block {
        /// Index of the offending block (the first in frame order).
        block: usize,
        /// The codec's typed failure.
        error: CodecError,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::BadMagic(found) => {
                write!(f, "bad container magic {found:?}, expected {MAGIC:?}")
            }
            ContainerError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported container version {v}, this build reads up to {VERSION_V4}"
                )
            }
            ContainerError::UnknownCodec(id) => write!(f, "unknown codec id {id}"),
            ContainerError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated stream: needed {needed} bytes, had {available}"
                )
            }
            ContainerError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after container content")
            }
            ContainerError::ChecksumMismatch {
                block,
                stored,
                computed,
            } => {
                write!(
                    f,
                    "block {block} content corrupt: stored CRC-32 {stored:#010x}, computed {computed:#010x}"
                )
            }
            ContainerError::UnknownStage { block, stage } => {
                write!(f, "block {block} carries unknown stage byte {stage}")
            }
            ContainerError::StageDecode { block, error } => {
                write!(f, "block {block} stage payload failed to decode: {error}")
            }
            ContainerError::IncompatibleEntropyCoder { version, codec } => {
                write!(
                    f,
                    "container (version {version}, {codec:?}) carries entropy payloads from a \
                     pre-range-coder build; this build decodes range-coded payloads only — \
                     re-encode the variable with a current writer"
                )
            }
            ContainerError::UnknownProfile { block, profile } => {
                write!(f, "block {block} references undefined profile id {profile}")
            }
            ContainerError::ProfileChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "profile table corrupt: stored CRC-32 {stored:#010x}, computed {computed:#010x}"
                )
            }
            ContainerError::ProfileGenerationMismatch {
                profile,
                generation,
            } => {
                write!(
                    f,
                    "profile {profile} written by coder generation {generation}, this build \
                     reads {PROFILE_GENERATION}"
                )
            }
            ContainerError::ProfileCodecMismatch { profile, codec } => {
                write!(
                    f,
                    "profile {profile} declares codec id {codec}, container codec differs"
                )
            }
            ContainerError::ProfileModel { profile, error } => {
                write!(f, "profile {profile} histogram model invalid: {error}")
            }
            ContainerError::ProfileStage { profile, error } => {
                write!(f, "profile {profile} stage snapshot invalid: {error}")
            }
            ContainerError::ProfileTableDecode { error } => {
                write!(f, "profile table stage payload failed to decode: {error}")
            }
            ContainerError::Corrupt(what) => write!(f, "corrupt block frame: {what}"),
            ContainerError::Block { block, error } => {
                write!(f, "block {block} did not decode: {error}")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<ReadError> for ContainerError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Truncated { needed, available } => {
                ContainerError::Truncated { needed, available }
            }
            ReadError::TrailingBytes(n) => ContainerError::TrailingBytes(n),
            ReadError::Malformed(what) => ContainerError::Corrupt(what),
            _ => ContainerError::Corrupt("malformed embedded field"),
        }
    }
}

/// De-stage allocation cap for a v4 profile table: far above any real table
/// ([`MAX_PROFILES`] entries of a few KiB each), far below harm.
const MAX_PROFILE_TABLE_BUDGET: usize = 1 << 22;

/// Appends the v4 profile table: its body (count byte + entries) as one
/// frame in the version 3 layout, itself `gld-lz`-staged when that is
/// strictly smaller — model histograms and stage snapshots compress well,
/// and the table is the per-variable fixed cost every shared-coding saving
/// has to amortise.
fn write_profile_table(out: &mut Vec<u8>, codec: CodecId, profiles: &[EntropyProfile]) {
    debug_assert!(!profiles.is_empty() && profiles.len() <= MAX_PROFILES);
    let mut body = vec![profiles.len() as u8];
    for profile in profiles {
        body.extend([PROFILE_GENERATION, codec as u8, profile.dict_mode as u8]);
        let model = profile.model.as_ref().map(HistogramModel::to_bytes);
        write_section(&mut body, &model.unwrap_or_default());
        let lz = profile.lz.as_ref().map(LzProfile::to_bytes);
        write_section(&mut body, &lz.unwrap_or_default());
    }
    let staged = stage_frame_pooled(&body);
    FrameLayout::written(VERSION).write(out, &body, 0, staged.as_deref());
}

/// Serialised length of the v4 profile table — measured off the real thing
/// (the stage decision is deterministic), 0 for a profile-less container.
fn profile_table_len(codec: CodecId, profiles: &[EntropyProfile]) -> usize {
    if profiles.is_empty() {
        return 0;
    }
    let mut table = Vec::new();
    write_profile_table(&mut table, codec, profiles);
    table.len()
}

/// Parses and validates the v4 profile table at `pos`, returning the
/// profiles and the offset of the first frame.  Framing and CRC first, then
/// de-staging, and only then the per-entry semantics — no entry is
/// interpreted before the bytes are vetted.  The damage keeps the table's
/// structural extent (`skip_to`) whenever its length prefix was readable, so
/// salvage can reach the frames behind a table it cannot use.
fn decode_profile_table(
    bytes: &[u8],
    pos: usize,
    codec: CodecId,
) -> Result<(Vec<EntropyProfile>, usize), FrameDamage> {
    let frame = FrameLayout::written(VERSION)
        .read(bytes, pos, 0)
        .map_err(|damage| FrameDamage {
            error: match damage.error {
                ContainerError::ChecksumMismatch {
                    stored, computed, ..
                } => ContainerError::ProfileChecksumMismatch { stored, computed },
                ContainerError::UnknownStage { .. } => {
                    ContainerError::Corrupt("profile table stage byte unknown")
                }
                other => other,
            },
            ..damage
        })?;
    let soft = |error| FrameDamage {
        error,
        skip_to: Some(frame.next),
    };
    let body = match frame.stage {
        Some(STAGE_LZ) => gld_lz::decompress(frame.payload, MAX_PROFILE_TABLE_BUDGET)
            .map_err(|error| soft(ContainerError::ProfileTableDecode { error }))?,
        _ => frame.payload.to_vec(),
    };
    let profiles = parse_profile_entries(&body, codec).map_err(soft)?;
    Ok((profiles, frame.next))
}

/// Interprets a vetted, de-staged profile table body.
fn parse_profile_entries(
    body: &[u8],
    codec: CodecId,
) -> Result<Vec<EntropyProfile>, ContainerError> {
    let mut body_reader = ByteReader::new(body);
    let count = body_reader.read_u8()? as usize;
    if count == 0 {
        // Writers only emit v4 for containers that carry profiles, so an
        // empty table can only be damage (and accepting it would break the
        // decode→re-encode bit-identity invariant).
        return Err(ContainerError::Corrupt("v4 container without profiles"));
    }
    let mut raw = Vec::with_capacity(count);
    for _ in 0..count {
        let head: [u8; 3] = body_reader.take_array()?;
        let model = body_reader.read_section()?;
        let lz = body_reader.read_section()?;
        raw.push((head, model, lz));
    }
    body_reader.expect_end()?;
    let mut profiles = Vec::with_capacity(count);
    for (index, ([generation, entry_codec, dict], model, lz)) in raw.into_iter().enumerate() {
        if generation != PROFILE_GENERATION {
            return Err(ContainerError::ProfileGenerationMismatch {
                profile: index,
                generation,
            });
        }
        if entry_codec != codec as u8 {
            return Err(ContainerError::ProfileCodecMismatch {
                profile: index,
                codec: entry_codec,
            });
        }
        let dict_mode = DictMode::from_u8(dict)?;
        let model = if model.is_empty() {
            None
        } else {
            let parsed = HistogramModel::from_section(model).map_err(|error| {
                ContainerError::ProfileModel {
                    profile: index,
                    error,
                }
            })?;
            // Build the decode LUT once, here: every frame that references
            // this profile decodes against the same warm clone.
            parsed.prepare_decode();
            Some(parsed)
        };
        let lz = if lz.is_empty() {
            None
        } else {
            Some(
                LzProfile::try_from_bytes(lz).map_err(|error| ContainerError::ProfileStage {
                    profile: index,
                    error,
                })?,
            )
        };
        profiles.push(EntropyProfile {
            model,
            lz,
            dict_mode,
        });
    }
    Ok(profiles)
}

/// Per-frame stage-decision cache: the decision under the frame's **own**
/// profile (see [`FrameRecord`]).  Staging is a pure function of the frame
/// bytes (and the profile), so `Unknown` entries can always be resolved on
/// demand — the point of the cache is that hot paths (the executor's
/// workers, v3/v4 decode) already hold the answer, while pure-read paths
/// (decoding a legacy stream that will never be re-encoded) never pay
/// compressor-grade CPU for it.
#[derive(Clone, Debug)]
enum StageCache {
    /// Not yet computed (the frame came off a stage-less v1/v2 stream, so
    /// it has no profile either); resolved lazily by the staged encoders to
    /// exactly what a current writer would produce.
    Unknown,
    /// The staged stream beat the raw frame.
    Lz(Vec<u8>),
    /// The raw frame is at least as small as its staged stream.
    Raw,
}

/// What a container remembers about a frame beside its bytes.
#[derive(Clone, Debug)]
struct FrameRecord {
    /// The frame's profile id (0 = none, N = `profiles[N - 1]`).
    profile: u8,
    /// The stage decision under that profile — the cold decision when the
    /// id is 0.  A profiled stream only decodes under its profile, so a
    /// profile-less encoding of a profiled frame never reuses it.
    staged: StageCache,
}

/// A decoded (or under-construction) container: codec identity plus the
/// per-block frames, in temporal order.
///
/// Frames are held **unstaged** — `blocks()` always returns the codec's own
/// bytes, whatever version the stream came from — with the adaptive `gld-lz`
/// stage decision cached alongside each frame so `encoded_len` stays exact
/// and `encode` never compresses a frame twice.  Logical identity is the
/// codec plus the raw frames; the cached stage payloads are derived state
/// and excluded from equality.
#[derive(Clone, Debug)]
pub struct Container {
    codec: CodecId,
    blocks: Vec<Vec<u8>>,
    /// Per-frame profile id and stage cache, parallel to `blocks`.
    records: Vec<FrameRecord>,
    /// Shared entropy profiles (v4).  Empty for profile-less containers.
    profiles: Vec<EntropyProfile>,
    /// The container version this instance was decoded from ([`VERSION`]
    /// for locally built containers) — what the cross-build
    /// [`Container::check_entropy_compat`] check keys on.  Derived state,
    /// excluded from equality; re-encoding always writes the current
    /// version.
    wire_version: u16,
}

impl PartialEq for Container {
    fn eq(&self, other: &Self) -> bool {
        self.codec == other.codec && self.blocks == other.blocks
    }
}

impl Eq for Container {}

impl Container {
    /// An empty container for `codec`.
    pub fn new(codec: CodecId) -> Self {
        Container::with_profiles(codec, Vec::new())
    }

    /// An empty container carrying shared entropy profiles; frames arrive
    /// through [`Container::push_profiled`] and [`Container::encode`] writes
    /// the v4 format.
    pub fn with_profiles(codec: CodecId, profiles: Vec<EntropyProfile>) -> Self {
        assert!(
            profiles.len() <= MAX_PROFILES,
            "a container carries at most {MAX_PROFILES} profiles"
        );
        Container {
            codec,
            blocks: Vec::new(),
            records: Vec::new(),
            profiles,
            wire_version: VERSION,
        }
    }

    /// Wraps existing frames (the stage decision is computed per frame).
    pub fn from_blocks(codec: CodecId, blocks: Vec<Vec<u8>>) -> Self {
        let mut c = Container::new(codec);
        for block in blocks {
            c.push(block);
        }
        c
    }

    /// The codec that produced these frames.
    pub fn codec(&self) -> CodecId {
        self.codec
    }

    /// The container version this instance was decoded from, or [`VERSION`]
    /// for locally built containers.
    pub fn wire_version(&self) -> u16 {
        self.wire_version
    }

    /// The frames, in temporal order (always unstaged codec bytes).
    pub fn blocks(&self) -> &[Vec<u8>] {
        &self.blocks
    }

    /// Appends one block frame, computing its stage decision.
    pub fn push(&mut self, frame: Vec<u8>) {
        let staged = stage_frame_pooled(&frame);
        self.push_staged(frame, staged);
    }

    /// Appends one block frame with a stage decision already computed (the
    /// streaming executor stages on its worker threads; `lz` must be
    /// exactly [`stage_frame`]'s output for `frame`).
    pub fn push_staged(&mut self, frame: Vec<u8>, lz: Option<Vec<u8>>) {
        self.push_profiled(frame, 0, lz);
    }

    /// Appends one block frame under a profile: `profile` is the frame's
    /// profile id (0 = none, N = the Nth profile) and `lz` the stage
    /// decision computed under that profile via [`stage_frame_profiled`]
    /// ([`stage_frame`] for id 0; `None` = store raw).
    pub fn push_profiled(&mut self, frame: Vec<u8>, profile: u8, lz: Option<Vec<u8>>) {
        assert!(
            (profile as usize) <= self.profiles.len(),
            "profile id {profile} undefined ({} profiles)",
            self.profiles.len()
        );
        debug_assert!(
            lz.as_ref().is_none_or(|s| s.len() < frame.len()),
            "staged payload must be strictly smaller than the frame"
        );
        self.blocks.push(frame);
        self.records.push(FrameRecord {
            profile,
            staged: lz.map_or(StageCache::Raw, StageCache::Lz),
        });
    }

    /// The shared entropy profiles this container carries (empty for
    /// profile-less containers).
    pub fn profiles(&self) -> &[EntropyProfile] {
        &self.profiles
    }

    /// The profile id of block `index` (0 = none).
    pub fn frame_profile(&self, index: usize) -> u8 {
        self.records.get(index).map_or(0, |r| r.profile)
    }

    /// The profile block `index` references, if any.
    pub fn profile_for_block(&self, index: usize) -> Option<&EntropyProfile> {
        match self.frame_profile(index) {
            0 => None,
            id => self.profiles.get(id as usize - 1),
        }
    }

    /// The layout [`Container::encode`] writes: v4 when the container
    /// carries profiles, v3 otherwise.
    fn native_version(&self) -> u16 {
        if self.profiles.is_empty() {
            VERSION
        } else {
            VERSION_V4
        }
    }

    /// The staged stream frame `index` is written with under `layout`
    /// (`None` = the raw frame wins, always so for a stage-less layout).
    fn staged_under(&self, layout: FrameLayout, index: usize) -> Option<Cow<'_, [u8]>> {
        if !layout.staged() {
            return None;
        }
        let record = &self.records[index];
        match &record.staged {
            // The cache holds the decision under the frame's own profile; a
            // layout with profile ids writes the frame under exactly that.
            StageCache::Lz(stream) if layout.profiled() || record.profile == 0 => {
                Some(Cow::Borrowed(&stream[..]))
            }
            StageCache::Raw if layout.profiled() || record.profile == 0 => None,
            // Anything else is a cold coding nobody has run yet — a legacy
            // frame's first staged encode, the profile-less downgrade of a
            // profiled frame — and deterministic, so it resolves the same
            // way every time.
            _ => stage_frame_pooled(&self.blocks[index]).map(Cow::Owned),
        }
    }

    /// Exact size of the `version` encoding, without encoding the frames.
    fn encoded_len_as(&self, version: u16) -> usize {
        let layout = FrameLayout::written(version);
        let table = layout.profiled().then(|| self.profile_table_bytes());
        let frames = self.blocks.iter().enumerate().map(|(index, block)| {
            let staged = self.staged_under(layout, index);
            layout.frame_len(staged.map_or(block.len(), |s| s.len()))
        });
        HEADER_LEN + table.unwrap_or(0) + frames.sum::<usize>()
    }

    /// Number of frames whose [`Container::encode`] output takes the `Lz`
    /// stage (the staged stream beat the raw frame) — under each frame's
    /// profile for a profiled container, cold otherwise — resolving lazily
    /// for frames whose decision is not yet cached.
    pub fn staged_frames(&self) -> usize {
        let layout = FrameLayout::written(self.native_version());
        (0..self.blocks.len())
            .filter(|&index| self.staged_under(layout, index).is_some())
            .count()
    }

    /// Exact size of [`Container::encode`]'s output, without encoding.
    pub fn encoded_len(&self) -> usize {
        self.encoded_len_as(self.native_version())
    }

    /// Serialised table bytes [`Container::encode`] spends on the shared
    /// profiles (0 for a profile-less container) — the per-variable fixed
    /// cost the per-frame savings have to amortise.
    pub fn profile_table_bytes(&self) -> usize {
        profile_table_len(self.codec, &self.profiles)
    }

    /// Serialises the container in wire version `version` — every encoder
    /// is this walk under a different [`FrameLayout`].
    fn encode_as(&self, version: u16) -> Vec<u8> {
        let layout = FrameLayout::written(version);
        let mut out = Vec::new();
        encode_header(&mut out, version, self.codec, self.blocks.len() as u32);
        if layout.profiled() {
            write_profile_table(&mut out, self.codec, &self.profiles);
        }
        // Capacity from the stage-less upper bound (staged payloads only
        // shrink frames): an exact `encoded_len` here would resolve every
        // `Unknown` frame a second time just to pre-size the buffer.
        out.reserve(
            self.blocks
                .iter()
                .map(|b| layout.frame_len(b.len()))
                .sum::<usize>(),
        );
        for (index, (block, record)) in self.blocks.iter().zip(&self.records).enumerate() {
            let staged = self.staged_under(layout, index);
            layout.write(&mut out, block, record.profile, staged.as_deref());
            layout.frame_failpoint(&mut out);
        }
        debug_assert_eq!(out.len(), self.encoded_len_as(version));
        out
    }

    /// Serialises the container to bytes: the v4 shared-profile format when
    /// the container carries profiles, the v3 per-frame format otherwise.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_as(self.native_version())
    }

    /// Serialises the container in the profile-less v3 (per-frame stage +
    /// CRC-32) format — the downgrade path for peers without profile
    /// support.  Profiled stage caches are never reused here (they only
    /// decode under their profile); cold decisions are resolved lazily.
    pub fn encode_v3(&self) -> Vec<u8> {
        self.encode_as(VERSION)
    }

    /// Serialises the container in the v2 (stage-less, per-frame CRC-32)
    /// format — what stage-incapable peers negotiate and what the
    /// version-compat tests pin.
    pub fn encode_v2(&self) -> Vec<u8> {
        self.encode_as(VERSION_V2)
    }

    /// Serialises the container in the legacy v1 (checksum-less) format, for
    /// interop with v1-only readers and the version-compat tests.
    pub fn encode_v1(&self) -> Vec<u8> {
        self.encode_as(VERSION_V1)
    }

    /// Streams the encoded container into `writer`.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(&self.encode())
    }

    /// Parses a container, validating magic, version, codec id, per-frame
    /// CRC-32 (v2+), stage markers (v3+), the coder-generation flag (v3+)
    /// and the profile table with every frame's profile reference (v4), and
    /// rejecting truncated or over-long input.  All of v1–v4 streams
    /// decode; frames come back unstaged.
    pub fn decode(bytes: &[u8]) -> Result<Self, ContainerError> {
        Self::decode_with_budget(bytes, MAX_DESTAGE_BUDGET)
    }

    /// [`Container::decode`] with an explicit de-stage budget (exposed so
    /// the budget exhaustion path is testable without gigabyte fixtures).
    fn decode_with_budget(bytes: &[u8], mut budget: usize) -> Result<Self, ContainerError> {
        let header = decode_header(bytes)?;
        let layout = header.layout;
        let (profiles, mut pos) = if layout.profiled() {
            decode_profile_table(bytes, HEADER_LEN, header.codec).map_err(|d| d.error)?
        } else {
            (Vec::new(), HEADER_LEN)
        };
        let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(header.reserve);
        let mut records = Vec::with_capacity(header.reserve);
        for index in 0..header.declared {
            let frame = layout.read(bytes, pos, index).map_err(|d| d.error)?;
            let first = blocks.first().map(Vec::as_slice);
            let block = destage(&frame, index, Some(&profiles), first, &mut budget)?;
            blocks.push(block);
            records.push(FrameRecord {
                profile: frame.profile,
                staged: match frame.stage {
                    // No stage byte on the wire: pure-read callers (the
                    // service's decompress path for legacy uploads) never
                    // pay compressor CPU for a decision nobody asked for.
                    None => StageCache::Unknown,
                    Some(STAGE_LZ) => StageCache::Lz(frame.payload.to_vec()),
                    Some(_) => StageCache::Raw,
                },
            });
            pos = frame.next;
        }
        if pos != bytes.len() {
            return Err(ContainerError::TrailingBytes(bytes.len() - pos));
        }
        Ok(Container {
            codec: header.codec,
            blocks,
            records,
            profiles,
            wire_version: header.version,
        })
    }

    /// The typed cross-build compatibility check: refuses streams whose
    /// entropy payloads this build's coder cannot replay — v1 learned-codec
    /// streams can only have been written by the pre-range-coder arithmetic
    /// build, so running today's decoder over them would yield garbage
    /// latents or a panic deep inside the codec.  `decompress_container`
    /// (and the service's decompress path under it) runs this before
    /// touching any payload.
    pub fn check_entropy_compat(&self) -> Result<(), ContainerError> {
        if self.wire_version == VERSION_V1 && self.codec.learned() {
            return Err(ContainerError::IncompatibleEntropyCoder {
                version: self.wire_version,
                codec: self.codec,
            });
        }
        Ok(())
    }

    /// Reads and parses a container from `reader` (e.g. a file or socket).
    pub fn read_from<R: Read>(reader: &mut R) -> std::io::Result<Result<Self, ContainerError>> {
        let mut bytes = Vec::new();
        reader.read_to_end(&mut bytes)?;
        Ok(Self::decode(&bytes))
    }

    /// Best-effort decode of a damaged container: where [`Container::decode`]
    /// fails the whole stream on the first bad byte, salvage keeps every
    /// frame whose checksum still holds and reports the rest as typed
    /// losses instead (the same walk, continuing past faults).
    ///
    /// What it survives, per damage site:
    ///
    /// * **Frame payload / CRC damage** — the frame is lost, every other
    ///   frame is recovered (the per-frame CRC is the oracle).
    /// * **Frame length-prefix damage** — framing is re-synchronised by
    ///   scanning for the next offset from which a checksum-valid frame
    ///   chain runs to the end of the input; the frames behind the damage
    ///   come back under their correct indices.
    /// * **A damaged v4 profile table** — profile-referencing staged frames
    ///   are lost (their coder state is gone), but cold frames (profile id
    ///   0) and raw-stored frames still decode.
    /// * **A lost dictionary frame** — v4 frames whose profile seeds the
    ///   stage window from block 0 ([`DictMode::FirstBlock`]) are reported
    ///   lost when block 0 itself did not survive, instead of de-staging
    ///   garbage.
    /// * **Truncation** — everything before the cut is recovered.
    ///
    /// Only an unusable fixed header (bad magic, unknown version or codec,
    /// an incompatible coder flag) makes salvage itself fail: without it
    /// there is no codec identity to hand the frames to.  v1 streams carry
    /// no checksums, so their salvage is structural only — undetected
    /// corruption decodes as-is, exactly like [`Container::decode`].
    ///
    /// Recovered frames are bit-identical to the originals (CRC-vetted,
    /// v2+); the report pairs every lost index with the typed reason, so
    /// `recovered + lost = declared` accounts for every frame.
    pub fn decode_salvage(bytes: &[u8]) -> Result<Salvage, ContainerError> {
        let header = decode_header(bytes)?;
        let (layout, count) = (header.layout, header.count);
        let mut pos = HEADER_LEN;
        // `None` once the table is lost: see `frame::destage`.
        let mut profiles = Some(Vec::new());
        let mut profile_table_error = None;
        // Set when `pos` is not known to sit on a frame boundary: the
        // offset to start hunting for the next one from.
        let mut resync_from = None;
        if layout.profiled() {
            match decode_profile_table(bytes, pos, header.codec) {
                Ok((table, end)) => (profiles, pos) = (Some(table), end),
                Err(damage) => {
                    (profiles, profile_table_error) = (None, Some(damage.error));
                    // Trust the table's structural extent only when a
                    // checksum-valid frame chain actually starts there; a
                    // damaged table *length prefix* fails that and resyncs
                    // from the table's start, not where its decode died.
                    let chain = |end| salvage_scan_chain(bytes, end, layout, count);
                    match damage.skip_to {
                        Some(end) if chain(end) == Some(count) => pos = end,
                        _ => resync_from = Some(pos + 1),
                    }
                }
            }
        }

        let mut frames: Vec<Option<Vec<u8>>> = Vec::with_capacity(header.reserve);
        let mut lost: Vec<LostFrame> = Vec::new();
        let mut lose = |frames: &mut Vec<Option<Vec<u8>>>, error| {
            let block = frames.len();
            frames.push(None);
            lost.push(LostFrame { block, error });
        };
        let mut budget = MAX_DESTAGE_BUDGET;
        loop {
            if let Some(from) = resync_from.take() {
                // Hunt for the next offset from which a checksum-valid
                // frame chain reaches the end of the input and map its
                // frames onto the trailing indices; the rest is unreachable.
                let resumed = salvage_resync(bytes, from, layout, count - frames.len());
                let reachable = resumed.map_or(0, |(offset, found)| {
                    pos = offset;
                    found
                });
                while frames.len() < count - reachable {
                    let error = ContainerError::Corrupt("frame unreachable behind damaged framing");
                    lose(&mut frames, error);
                }
            }
            let index = frames.len();
            if index >= count {
                break;
            }
            match layout.read(bytes, pos, index) {
                Ok(frame) => {
                    pos = frame.next;
                    let first = frames.first().and_then(|f| f.as_deref());
                    match destage(&frame, index, profiles.as_deref(), first, &mut budget) {
                        Ok(block) => frames.push(Some(block)),
                        Err(error) => lose(&mut frames, error),
                    }
                }
                Err(damage) => {
                    lose(&mut frames, damage.error);
                    // Payload or checksum damage leaves the boundaries
                    // intact and the stream behind them validates: trust
                    // the declared extent then, else the prefix is suspect.
                    match damage.skip_to {
                        Some(skip)
                            if skip == bytes.len()
                                || layout.read(bytes, skip, index + 1).is_ok() =>
                        {
                            pos = skip
                        }
                        _ => resync_from = Some(pos + 1),
                    }
                }
            }
        }

        Ok(Salvage {
            frames,
            report: SalvageReport {
                codec: header.codec,
                version: header.version,
                declared_frames: header.declared,
                lost,
                profile_table_error,
            },
        })
    }
}

/// One frame [`Container::decode_salvage`] could not recover.
#[derive(Clone, Debug, PartialEq)]
pub struct LostFrame {
    /// The frame's index in the container's declared order.
    pub block: usize,
    /// Why it is unrecoverable.
    pub error: ContainerError,
}

/// What [`Container::decode_salvage`] learned about a damaged container.
#[derive(Clone, Debug, PartialEq)]
pub struct SalvageReport {
    /// The codec the container's frames belong to.
    pub codec: CodecId,
    /// Container wire version.
    pub version: u16,
    /// The header's frame count — what an undamaged decode would return.
    pub declared_frames: usize,
    /// Every unrecovered frame in index order, with its typed reason.
    pub lost: Vec<LostFrame>,
    /// The error that invalidated the v4 profile table, when it was hit:
    /// profile-referencing staged frames are lost, cold frames survive.
    pub profile_table_error: Option<ContainerError>,
}

/// Best-effort decode result: one slot per declared frame — recovered
/// bytes or `None` — plus the account of what was lost and why.
#[derive(Clone, Debug, PartialEq)]
pub struct Salvage {
    /// `frames[i]` holds frame `i`'s bytes when it was recovered.
    pub frames: Vec<Option<Vec<u8>>>,
    /// Recovery/loss accounting for the whole container.
    pub report: SalvageReport,
}

impl Salvage {
    /// Number of recovered frames.
    pub fn recovered(&self) -> usize {
        self.frames.iter().filter(|f| f.is_some()).count()
    }

    /// Indices of the recovered frames, ascending.
    pub fn recovered_indices(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|_| i))
            .collect()
    }

    /// Whether every declared frame came back and the profile table (if
    /// any) was intact — i.e. the container needed no salvage at all.
    pub fn is_complete(&self) -> bool {
        self.report.lost.is_empty()
            && self.report.profile_table_error.is_none()
            && self.frames.len() == self.report.declared_frames
    }
}

/// Counts the checksum-valid frame chain running from `start` to *exactly*
/// the end of the input (zero frames when `start` is the end).  `None` when
/// any frame fails, the chain overruns `max_frames`, or (v1) there is no
/// checksum oracle to validate against.
/// Cheap at bogus offsets: a random 8-byte length prefix is almost always
/// out of bounds and rejects before any checksum work.
fn salvage_scan_chain(
    bytes: &[u8],
    start: usize,
    layout: FrameLayout,
    max_frames: usize,
) -> Option<usize> {
    if !layout.checksummed() {
        return None;
    }
    let mut pos = start;
    let mut frames = 0usize;
    while pos < bytes.len() {
        pos = layout.read(bytes, pos, 0).ok()?.next;
        frames += 1;
        if frames > max_frames {
            return None;
        }
    }
    Some(frames)
}

/// Scans forward from `from` for the first offset where a checksum-valid
/// frame chain of at most `max_frames` frames reaches exactly the end of
/// the input — the resynchronisation point after framing damage.
fn salvage_resync(
    bytes: &[u8],
    from: usize,
    layout: FrameLayout,
    max_frames: usize,
) -> Option<(usize, usize)> {
    if max_frames == 0 {
        return None;
    }
    (from..bytes.len()).find_map(|start| {
        salvage_scan_chain(bytes, start, layout, max_frames).map(|frames| (start, frames))
    })
}

/// Which wire format a [`ContainerWriter`] emits — v4 with the shared
/// profile table, v3 with the per-frame lossless stage, or the stage-less
/// v2 that pre-stage peers negotiate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ContainerFormat {
    /// Shared-profile format: profile table + per-frame profile ids
    /// (constructed through [`ContainerWriter::with_profile_table`], which
    /// supplies the profiles the header must carry).
    V4,
    /// Per-frame format: adaptive `gld-lz` stage + CRC-32.
    #[default]
    V3,
    /// Legacy checksummed format, frames stored unstaged.
    V2,
}

impl ContainerFormat {
    /// The container version this format writes.
    pub fn version(self) -> u16 {
        match self {
            ContainerFormat::V4 => VERSION_V4,
            ContainerFormat::V3 => VERSION,
            ContainerFormat::V2 => VERSION_V2,
        }
    }
}

/// Incremental container encoder: writes the header up front and each frame
/// as it arrives, so a multi-block variable can stream to a file or socket
/// while later blocks are still being compressed — frames never accumulate
/// in memory.  This is the sink the streaming block executor emits into
/// ([`crate::compress_variable_to_writer_fmt`]); the executor stages frames on its
/// worker threads and hands them to [`ContainerWriter::write_staged_frame`],
/// while [`ContainerWriter::write_frame`] stages inline for callers without
/// a scratch.
pub struct ContainerWriter<W: Write> {
    writer: W,
    format: ContainerFormat,
    layout: FrameLayout,
    declared: u32,
    written: u32,
    bytes: usize,
    frame_buf: Vec<u8>,
}

impl<W: Write> ContainerWriter<W> {
    /// Writes the v3 container header for `count` upcoming frames.
    pub fn new(writer: W, codec: CodecId, count: u32) -> std::io::Result<Self> {
        Self::with_format(writer, codec, count, ContainerFormat::V3)
    }

    /// Writes the header of the chosen `format` for `count` upcoming frames.
    /// The v4 format needs its profile table at header time — use
    /// [`ContainerWriter::with_profile_table`] for it.
    pub fn with_format(
        writer: W,
        codec: CodecId,
        count: u32,
        format: ContainerFormat,
    ) -> std::io::Result<Self> {
        assert!(
            format != ContainerFormat::V4,
            "the v4 format carries a profile table; construct it with with_profile_table"
        );
        Self::start(writer, codec, count, format, &[])
    }

    /// Writes a v4 container header plus the shared profile table for
    /// `count` upcoming frames; frames then arrive through
    /// [`ContainerWriter::write_profiled_frame`].
    pub fn with_profile_table(
        writer: W,
        codec: CodecId,
        count: u32,
        profiles: &[EntropyProfile],
    ) -> std::io::Result<Self> {
        assert!(
            !profiles.is_empty() && profiles.len() <= MAX_PROFILES,
            "a v4 container carries 1..={MAX_PROFILES} profiles"
        );
        Self::start(writer, codec, count, ContainerFormat::V4, profiles)
    }

    /// Writes `format`'s header and, when the format has one, the table of
    /// `profiles` — the one constructor, for callers (the streaming
    /// compressor) that hold format and profile set as data.
    pub(crate) fn start(
        mut writer: W,
        codec: CodecId,
        count: u32,
        format: ContainerFormat,
        profiles: &[EntropyProfile],
    ) -> std::io::Result<Self> {
        let layout = FrameLayout::written(format.version());
        debug_assert_eq!(layout.profiled(), !profiles.is_empty());
        let mut header = Vec::with_capacity(HEADER_LEN);
        encode_header(&mut header, format.version(), codec, count);
        if layout.profiled() {
            write_profile_table(&mut header, codec, profiles);
        }
        writer.write_all(&header)?;
        Ok(ContainerWriter {
            writer,
            format,
            layout,
            declared: count,
            written: 0,
            bytes: header.len(),
            frame_buf: Vec::new(),
        })
    }

    /// The wire format this writer emits.
    pub fn format(&self) -> ContainerFormat {
        self.format
    }

    /// Appends one frame, staging it inline when the format calls for it
    /// (a v4 writer stages cold and records no profile reference).  Frames
    /// must arrive in temporal order; the caller may not exceed the
    /// declared count.
    pub fn write_frame(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let staged = self.layout.staged().then(|| stage_frame_pooled(payload));
        let staged = staged.flatten();
        self.write_staged_frame(payload, staged.as_deref())
    }

    /// Appends one frame whose stage decision was already computed (`lz`
    /// must be exactly [`stage_frame`]'s output for `raw`; it is ignored by
    /// a v2 writer, and a v4 writer records it with no profile reference).
    pub fn write_staged_frame(&mut self, raw: &[u8], lz: Option<&[u8]>) -> std::io::Result<()> {
        self.write_profiled_frame(raw, 0, lz)
    }

    /// Appends one frame under a profile: `profile` is the frame's profile
    /// id (0 = none; any other id requires the v4 format) and `lz` the stage
    /// decision computed under that profile via [`stage_frame_profiled`]
    /// (`None` = store raw).
    pub fn write_profiled_frame(
        &mut self,
        raw: &[u8],
        profile: u8,
        lz: Option<&[u8]>,
    ) -> std::io::Result<()> {
        assert!(
            profile == 0 || self.layout.profiled(),
            "profiled frames require the v4 format"
        );
        assert!(
            self.written < self.declared,
            "container declared {} frames, attempted to write more",
            self.declared
        );
        let mut buf = std::mem::take(&mut self.frame_buf);
        buf.clear();
        self.layout.write(&mut buf, raw, profile, lz);
        self.layout.frame_failpoint(&mut buf);
        let result = self.writer.write_all(&buf);
        let len = buf.len();
        self.frame_buf = buf;
        result?;
        self.written += 1;
        self.bytes += len;
        Ok(())
    }

    /// Frames written so far.
    pub fn frames_written(&self) -> u32 {
        self.written
    }

    /// Total encoded bytes pushed into the underlying writer so far —
    /// `Container::encoded_len` for the frames written, measured rather
    /// than recomputed, so stats cannot drift from the stream.
    pub fn bytes_written(&self) -> usize {
        self.bytes
    }

    /// Finishes the stream, asserting every declared frame arrived, and
    /// returns the underlying writer.
    pub fn finish(self) -> std::io::Result<W> {
        assert_eq!(
            self.written, self.declared,
            "container declared {} frames but only {} were written",
            self.declared, self.written
        );
        Ok(self.writer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32::Crc32;

    fn sample() -> Container {
        Container::from_blocks(
            CodecId::Gld,
            vec![vec![1, 2, 3], Vec::new(), vec![0xFF; 300]],
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = sample();
        let bytes = c.encode();
        assert_eq!(bytes.len(), c.encoded_len());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION);
        let back = Container::decode(&bytes).unwrap();
        assert_eq!(back, c);
        // Re-encoding a decoded container reproduces the stream bit for bit
        // (the stage decisions ride along).
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn compressible_frames_take_the_lz_stage() {
        // A frame of 300 repeated bytes must stage (and shrink), and the
        // declared length must match the stream.
        let c = sample();
        let staged_len = c.encode().len();
        let unstaged_len = c.encode_v2().len();
        assert!(
            staged_len < unstaged_len,
            "stage saved nothing: v3 {staged_len} vs v2 {unstaged_len}"
        );
        assert_eq!(Container::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn incompressible_frames_cost_one_stage_byte() {
        // Pseudo-random frames cannot stage; v3 must cost exactly the v2
        // length plus one stage byte per frame.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let noise: Vec<u8> = (0..600)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let c = Container::from_blocks(CodecId::SzLike, vec![noise]);
        assert_eq!(c.encode().len(), c.encode_v2().len() + FRAME_STAGE_LEN);
        assert_eq!(Container::decode(&c.encode()).unwrap(), c);
    }

    #[test]
    fn rejects_bad_magic_version_codec() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::BadMagic(_))
        ));

        let mut bytes = sample().encode();
        bytes[4] = 0xEE;
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::UnsupportedVersion(_))
        ));

        let mut bytes = sample().encode();
        bytes[6] = 0;
        assert_eq!(
            Container::decode(&bytes),
            Err(ContainerError::UnknownCodec(0))
        );
    }

    #[test]
    fn v3_flags_declare_the_coder_generation() {
        // Clearing the range-coder bit turns the stream into a declared
        // pre-range-coder container: typed refusal, not garbage.
        let mut bytes = sample().encode();
        assert_eq!(bytes[7] & FLAG_RANGE_CODED, FLAG_RANGE_CODED);
        bytes[7] &= !FLAG_RANGE_CODED;
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::IncompatibleEntropyCoder {
                version: VERSION,
                codec: CodecId::Gld,
            })
        ));

        // Unknown high flag bits are ignored — future markers must not
        // hard-break this reader.
        let mut bytes = sample().encode();
        bytes[7] |= 0b1010_0000;
        assert_eq!(Container::decode(&bytes).unwrap(), sample());
    }

    #[test]
    fn v1_learned_streams_fail_the_entropy_compat_check() {
        // A v1 learned-codec stream can only have been written by the
        // pre-range-coder build: the compat check refuses it by name.
        let learned = sample();
        let decoded = Container::decode(&learned.encode_v1()).unwrap();
        assert_eq!(decoded.wire_version(), VERSION_V1);
        assert_eq!(
            decoded.check_entropy_compat(),
            Err(ContainerError::IncompatibleEntropyCoder {
                version: VERSION_V1,
                codec: CodecId::Gld,
            })
        );

        // Rule-based v1 streams (whose frame layout the compat suite pins)
        // pass, as do current-version streams of any codec.
        let rule = Container::from_blocks(CodecId::SzLike, vec![vec![9, 9, 9]]);
        let decoded = Container::decode(&rule.encode_v1()).unwrap();
        assert_eq!(decoded.check_entropy_compat(), Ok(()));
        let decoded = Container::decode(&learned.encode()).unwrap();
        assert_eq!(decoded.wire_version(), VERSION);
        assert_eq!(decoded.check_entropy_compat(), Ok(()));
    }

    #[test]
    fn destage_budget_is_shared_across_frames() {
        // Two highly compressible 4 KiB frames.  With a budget that covers
        // only the first, the second must fail typed — the aggregate bound
        // that stops a few wire bytes from amplifying into unbounded
        // allocation (the real budget is MAX_DESTAGE_BUDGET).
        let frame = vec![7u8; 4096];
        let c = Container::from_blocks(CodecId::SzLike, vec![frame.clone(), frame.clone()]);
        let bytes = c.encode();
        assert_eq!(c.staged_frames(), 2, "both frames must stage");
        assert_eq!(Container::decode_with_budget(&bytes, 8192).unwrap(), c);
        match Container::decode_with_budget(&bytes, 6000) {
            Err(ContainerError::StageDecode { block: 1, error }) => {
                assert!(
                    matches!(error, gld_lz::LzError::TooLarge { max: 1904, .. }),
                    "second frame's cap must be the leftover budget: {error:?}"
                );
            }
            other => panic!("expected StageDecode at block 1, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let bytes = sample().encode();
        for cut in [3, HEADER_LEN - 1, HEADER_LEN + 4, bytes.len() - 1] {
            assert!(
                matches!(
                    Container::decode(&bytes[..cut]),
                    Err(ContainerError::Truncated { .. })
                ),
                "cut at {cut} not detected"
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            Container::decode(&long),
            Err(ContainerError::TrailingBytes(1))
        );

        // A corrupt u64 section length near usize::MAX must surface as a
        // Truncated error, not an arithmetic-overflow panic (the `needed`
        // field saturates).  The length prefix sits after the stage byte.
        let mut huge_len = bytes.clone();
        huge_len[HEADER_LEN + FRAME_STAGE_LEN..HEADER_LEN + FRAME_STAGE_LEN + 8]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Container::decode(&huge_len),
            Err(ContainerError::Truncated { .. })
        ));
    }

    #[test]
    fn write_to_matches_encode() {
        let c = sample();
        let mut sink = Vec::new();
        c.write_to(&mut sink).unwrap();
        assert_eq!(sink, c.encode());
        let parsed = Container::read_from(&mut sink.as_slice()).unwrap().unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn v1_and_v2_streams_still_decode() {
        let c = sample();
        let v1 = c.encode_v1();
        assert_eq!(u16::from_le_bytes([v1[4], v1[5]]), VERSION_V1);
        let back = Container::decode(&v1).unwrap();
        assert_eq!(back, c, "v1 decode must reproduce the same frames");

        let v2 = c.encode_v2();
        assert_eq!(u16::from_le_bytes([v2[4], v2[5]]), VERSION_V2);
        assert_eq!(
            v2.len(),
            HEADER_LEN
                + c.blocks()
                    .iter()
                    .map(|b| 8 + b.len() + FRAME_CRC_LEN)
                    .sum::<usize>()
        );
        let back = Container::decode(&v2).unwrap();
        assert_eq!(back, c, "v2 decode must reproduce the same frames");
        // A legacy stream re-encodes to exactly what a current writer
        // produces for the same frames.
        assert_eq!(back.encode(), c.encode());
    }

    #[test]
    fn payload_corruption_is_caught_by_the_frame_crc() {
        let c = sample();
        let mut bytes = c.encode();
        // Flip one bit inside the first frame's payload (first payload byte
        // sits after the header, the stage byte and the u64 length prefix).
        bytes[HEADER_LEN + FRAME_STAGE_LEN + 8] ^= 0x40;
        match Container::decode(&bytes) {
            Err(ContainerError::ChecksumMismatch {
                block,
                stored,
                computed,
            }) => {
                assert_eq!(block, 0);
                assert_ne!(stored, computed);
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        // A corrupted *stage byte* is caught by the same CRC — a frame can
        // never be de-staged the wrong way undetected.
        let mut bytes = c.encode();
        bytes[HEADER_LEN] ^= 0x01;
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::ChecksumMismatch { block: 0, .. })
        ));
        // The same corruption in a v1 stream goes undetected — exactly the
        // gap the v2 version bump closed.
        let mut v1 = c.encode_v1();
        v1[HEADER_LEN + 8] ^= 0x40;
        assert!(Container::decode(&v1).is_ok());
    }

    #[test]
    fn incremental_writer_matches_buffered_encode() {
        let c = sample();
        let mut writer =
            ContainerWriter::new(Vec::new(), c.codec(), c.blocks().len() as u32).unwrap();
        for frame in c.blocks() {
            writer.write_frame(frame).unwrap();
        }
        assert_eq!(writer.frames_written(), 3);
        assert_eq!(writer.bytes_written(), c.encoded_len());
        let streamed = writer.finish().unwrap();
        assert_eq!(streamed, c.encode());
    }

    #[test]
    fn v2_writer_matches_buffered_v2_encode() {
        let c = sample();
        let mut writer = ContainerWriter::with_format(
            Vec::new(),
            c.codec(),
            c.blocks().len() as u32,
            ContainerFormat::V2,
        )
        .unwrap();
        for frame in c.blocks() {
            writer.write_frame(frame).unwrap();
        }
        let streamed = writer.finish().unwrap();
        assert_eq!(streamed, c.encode_v2());
        let back = Container::decode(&streamed).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    #[should_panic(expected = "declared 2 frames but only 1")]
    fn incremental_writer_rejects_missing_frames() {
        let mut writer = ContainerWriter::new(Vec::new(), CodecId::Gld, 2).unwrap();
        writer.write_frame(&[1, 2, 3]).unwrap();
        let _ = writer.finish();
    }

    /// Pseudo-random bytes: incompressible alone, so only the first-block
    /// dictionary can make near-copies of them stage.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// A v4 container: frame 0 is noise (the dictionary), frame 1 a
    /// near-copy of it, frame 2 a compressible profile-less frame.
    fn profiled_sample() -> Container {
        let f0 = noise(0x5EED, 600);
        let mut f1 = f0.clone();
        f1[17] ^= 0x20;
        f1[303] ^= 0x01;
        let mut scratch = LzScratch::new();
        let lz = LzProfile::fit(&f0, &mut scratch);
        let profile = EntropyProfile {
            model: None,
            lz: Some(lz.clone()),
            dict_mode: DictMode::FirstBlock,
        };
        let mut c = Container::with_profiles(CodecId::SzLike, vec![profile]);
        let s0 = stage_frame_profiled(&f0, &[], &lz, &mut scratch);
        c.push_profiled(f0.clone(), 1, s0);
        let s1 = stage_frame_profiled(&f1, &f0, &lz, &mut scratch);
        assert!(
            s1.is_some(),
            "the near-copy must stage under the dictionary"
        );
        c.push_profiled(f1, 1, s1);
        let trailer = vec![9u8; 40];
        let s2 = stage_frame(&trailer, &mut scratch);
        c.push_staged(trailer, s2);
        c
    }

    #[test]
    fn v4_roundtrip_preserves_profiles_and_reencodes_bit_identically() {
        let c = profiled_sample();
        let bytes = c.encode();
        assert_eq!(bytes.len(), c.encoded_len());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), VERSION_V4);
        let back = Container::decode(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.wire_version(), VERSION_V4);
        assert_eq!(back.profiles(), c.profiles());
        assert_eq!(back.frame_profile(0), 1);
        assert_eq!(back.frame_profile(1), 1);
        assert_eq!(back.frame_profile(2), 0);
        assert_eq!(
            back.encode(),
            bytes,
            "decode → re-encode must be bit-identical"
        );
        assert!(c.profile_table_bytes() > 0);
        assert_eq!(back.check_entropy_compat(), Ok(()));
    }

    #[test]
    fn first_block_dictionary_beats_the_cold_stage() {
        let c = profiled_sample();
        let f0 = &c.blocks()[0];
        let f1 = &c.blocks()[1];
        let mut scratch = LzScratch::new();
        // Cold, the near-copy is incompressible noise: the stage stores it.
        assert!(stage_frame(f1, &mut scratch).is_none());
        // Under the first-block dictionary it collapses to a few matches.
        let lz = c.profiles()[0].lz.clone().unwrap();
        let warm = stage_frame_profiled(f1, f0, &lz, &mut scratch).unwrap();
        assert!(
            warm.len() < f1.len() / 4,
            "dictionary matches should collapse the near-copy: {} vs {}",
            warm.len(),
            f1.len()
        );
    }

    #[test]
    fn v4_downgrades_to_v3_per_frame_coding() {
        // `encode_v3` of a profiled container must produce exactly what a
        // profile-less writer produces for the same frames — including after
        // a v4 decode (whose cold stage decisions start out Unknown).
        let c = profiled_sample();
        let v3 = c.encode_v3();
        assert_eq!(u16::from_le_bytes([v3[4], v3[5]]), VERSION);
        let back = Container::decode(&v3).unwrap();
        assert_eq!(back, c);
        assert!(back.profiles().is_empty());
        assert_eq!(
            Container::from_blocks(c.codec(), c.blocks().to_vec()).encode(),
            v3
        );
        let from_v4 = Container::decode(&c.encode()).unwrap();
        assert_eq!(from_v4.encode_v3(), v3);
    }

    #[test]
    fn v4_profile_table_corruption_is_caught_before_interpretation() {
        let c = profiled_sample();
        let mut bytes = c.encode();
        // Flip a byte inside the table's (possibly staged) payload, just
        // past the stage byte and length prefix; the CRC must fire before
        // any entry is interpreted — bytes are vetted first.
        bytes[HEADER_LEN + FRAME_STAGE_LEN + 8 + 1] ^= 0x04;
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::ProfileChecksumMismatch { .. })
        ));
        // Truncations inside the table and inside the frames stay typed.
        let whole = c.encode();
        for cut in [HEADER_LEN, HEADER_LEN + 2, HEADER_LEN + 40, whole.len() - 2] {
            assert!(matches!(
                Container::decode(&whole[..cut]),
                Err(ContainerError::Truncated { .. })
            ));
        }
    }

    /// A v4 stream with a hand-crafted profile table body (count byte +
    /// entries), wrapped unstaged with a valid CRC so decode reaches the
    /// per-entry semantic checks.
    fn v4_with_table_body(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_header(&mut out, VERSION_V4, CodecId::SzLike, 0);
        out.push(STAGE_NONE);
        write_section(&mut out, body);
        let mut crc = Crc32::new();
        crc.update(&[STAGE_NONE]);
        crc.update(body);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }

    /// A v4 stream with a single hand-crafted profile entry.
    fn v4_with_table_entry(entry: &[u8]) -> Vec<u8> {
        let mut body = vec![1u8];
        body.extend_from_slice(entry);
        v4_with_table_body(&body)
    }

    fn table_entry(generation: u8, codec: u8, dict: u8, model: &[u8], lz: &[u8]) -> Vec<u8> {
        let mut e = vec![generation, codec, dict];
        write_section(&mut e, model);
        write_section(&mut e, lz);
        e
    }

    #[test]
    fn v4_profile_semantics_fail_typed() {
        // Generation from an incompatible build.
        let bytes = v4_with_table_entry(&table_entry(9, CodecId::SzLike as u8, 0, &[], &[]));
        assert_eq!(
            Container::decode(&bytes),
            Err(ContainerError::ProfileGenerationMismatch {
                profile: 0,
                generation: 9,
            })
        );
        // Profile fitted for a different codec than the container's.
        let bytes = v4_with_table_entry(&table_entry(
            PROFILE_GENERATION,
            CodecId::Gld as u8,
            0,
            &[],
            &[],
        ));
        assert_eq!(
            Container::decode(&bytes),
            Err(ContainerError::ProfileCodecMismatch {
                profile: 0,
                codec: CodecId::Gld as u8,
            })
        );
        // Unknown dictionary mode.
        let bytes = v4_with_table_entry(&table_entry(
            PROFILE_GENERATION,
            CodecId::SzLike as u8,
            7,
            &[],
            &[],
        ));
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::Corrupt(_))
        ));
        // Malformed histogram model.
        let bytes = v4_with_table_entry(&table_entry(
            PROFILE_GENERATION,
            CodecId::SzLike as u8,
            0,
            &[1, 2, 3],
            &[],
        ));
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::ProfileModel { profile: 0, .. })
        ));
        // Wrong-sized stage snapshot.
        let bytes = v4_with_table_entry(&table_entry(
            PROFILE_GENERATION,
            CodecId::SzLike as u8,
            0,
            &[],
            &[0u8; 10],
        ));
        assert_eq!(
            Container::decode(&bytes),
            Err(ContainerError::ProfileStage {
                profile: 0,
                error: gld_lz::LzError::BadProfile {
                    len: 10,
                    expected: gld_lz::PROFILE_BYTES,
                },
            })
        );
        // A v4 stream with an empty table can only be damage.
        let empty = v4_with_table_body(&[0u8]);
        assert!(matches!(
            Container::decode(&empty),
            Err(ContainerError::Corrupt(_))
        ));
        // A staged table whose payload is not a valid stage stream.
        let mut bad_stage = Vec::new();
        encode_header(&mut bad_stage, VERSION_V4, CodecId::SzLike, 0);
        bad_stage.push(STAGE_LZ);
        write_section(&mut bad_stage, &[0xff, 0xee, 0xdd]);
        let mut crc = Crc32::new();
        crc.update(&[STAGE_LZ]);
        crc.update(&[0xff, 0xee, 0xdd]);
        bad_stage.extend_from_slice(&crc.finish().to_le_bytes());
        assert!(matches!(
            Container::decode(&bad_stage),
            Err(ContainerError::ProfileTableDecode { .. })
        ));
    }

    #[test]
    fn v4_frame_profile_references_are_validated() {
        // A frame naming an undefined profile id fails typed.  The writer
        // does not validate ids against the table, which is exactly what
        // lets this test produce the stream a buggy peer would.
        let profiles = [EntropyProfile::default()];
        let mut w =
            ContainerWriter::with_profile_table(Vec::new(), CodecId::SzLike, 1, &profiles).unwrap();
        w.write_profiled_frame(&[1, 2, 3], 5, None).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(
            Container::decode(&bytes),
            Err(ContainerError::UnknownProfile {
                block: 0,
                profile: 5,
            })
        );
        // A staged frame referencing a profile without a stage snapshot is
        // structurally impossible for our writers — typed refusal.
        let frame = vec![7u8; 256];
        let mut scratch = LzScratch::new();
        let staged = stage_frame(&frame, &mut scratch).expect("repetitive frame must stage");
        let mut w =
            ContainerWriter::with_profile_table(Vec::new(), CodecId::SzLike, 1, &profiles).unwrap();
        w.write_profiled_frame(&frame, 1, Some(&staged)).unwrap();
        let bytes = w.finish().unwrap();
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::Corrupt(_))
        ));
        // Flipping a payload bit in a valid v4 frame is the frame CRC's job.
        let c = profiled_sample();
        let mut bytes = c.encode();
        let last = bytes.len() - FRAME_CRC_LEN - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Container::decode(&bytes),
            Err(ContainerError::ChecksumMismatch { block: 2, .. })
        ));

        // Strict and salvage give one answer per frame.  (a) A CRC-valid
        // *raw* frame naming an id the intact table does not define is
        // refused by both, although its bytes need no profile...
        let mut w =
            ContainerWriter::with_profile_table(Vec::new(), CodecId::SzLike, 1, &profiles).unwrap();
        w.write_profiled_frame(&[1, 2, 3], 5, None).unwrap();
        let raw_unknown = w.finish().unwrap();
        let unknown_profile = ContainerError::UnknownProfile {
            block: 0,
            profile: 5,
        };
        assert_eq!(
            Container::decode(&raw_unknown),
            Err(unknown_profile.clone())
        );
        let salvage = Container::decode_salvage(&raw_unknown).unwrap();
        assert_eq!(salvage.report.profile_table_error, None);
        assert_eq!(salvage.frames, vec![None]);
        assert_eq!(salvage.report.lost[0].error, unknown_profile);
        // ...while behind a *lost* table, where no id can be checked, the
        // same frame survives.
        let mut table_lost = raw_unknown.clone();
        table_lost[HEADER_LEN + FRAME_STAGE_LEN + 8] ^= 0xFF;
        let salvage = Container::decode_salvage(&table_lost).unwrap();
        assert!(salvage.report.profile_table_error.is_some());
        assert_eq!(salvage.frames, vec![Some(vec![1, 2, 3])]);

        // (b) A CRC-valid frame with an unknown stage byte *and* an unknown
        // profile id: the frame reader vets the stage byte before anything
        // looks the profile up, for both walkers.
        let frame_at = raw_unknown.len() - (2 + 8 + 3 + FRAME_CRC_LEN);
        let mut both = raw_unknown.clone();
        both[frame_at] = 7;
        let mut crc = Crc32::new();
        crc.update(&[7, 5, 1, 2, 3]);
        let crc_at = both.len() - FRAME_CRC_LEN;
        both[crc_at..].copy_from_slice(&crc.finish().to_le_bytes());
        let unknown_stage = ContainerError::UnknownStage { block: 0, stage: 7 };
        assert_eq!(Container::decode(&both), Err(unknown_stage.clone()));
        let salvage = Container::decode_salvage(&both).unwrap();
        assert_eq!(salvage.report.lost[0].error, unknown_stage);

        // A cut between the stage byte and the profile id reports the first
        // missing byte.
        let truncated = ContainerError::Truncated {
            needed: frame_at + 2,
            available: frame_at + 1,
        };
        assert_eq!(
            Container::decode(&raw_unknown[..frame_at + 1]),
            Err(truncated.clone())
        );
        let salvage = Container::decode_salvage(&raw_unknown[..frame_at + 1]).unwrap();
        assert_eq!(salvage.report.lost[0].error, truncated);
    }

    #[test]
    fn v4_writer_matches_buffered_encode() {
        let c = profiled_sample();
        let lz = c.profiles()[0].lz.clone().unwrap();
        let mut scratch = LzScratch::new();
        let mut w = ContainerWriter::with_profile_table(
            Vec::new(),
            c.codec(),
            c.blocks().len() as u32,
            c.profiles(),
        )
        .unwrap();
        assert_eq!(w.format(), ContainerFormat::V4);
        for (index, frame) in c.blocks().iter().enumerate() {
            match c.frame_profile(index) {
                0 => {
                    let staged = stage_frame(frame, &mut scratch);
                    w.write_staged_frame(frame, staged.as_deref()).unwrap();
                }
                id => {
                    let dict = c.profiles()[id as usize - 1].dict_for_block(index, c.blocks());
                    let staged = stage_frame_profiled(frame, dict, &lz, &mut scratch);
                    w.write_profiled_frame(frame, id, staged.as_deref())
                        .unwrap();
                }
            }
        }
        assert_eq!(w.bytes_written(), c.encoded_len());
        assert_eq!(w.finish().unwrap(), c.encode());
    }
}
