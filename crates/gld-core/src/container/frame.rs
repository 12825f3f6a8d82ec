//! The container's wire primitives: the fixed header, the per-version frame
//! layout, and the one reader, one writer and one de-stage every decoder and
//! encoder in the parent module is built from.
//!
//! [`FrameLayout`]'s fields are private to this file, so nothing outside it
//! can branch on what a wire version wraps around a payload — the parent
//! module asks the layout to `read`, `write` or measure a frame and never
//! learns which bytes that involved.

use super::{
    CodecId, ContainerError, DictMode, EntropyProfile, FLAG_RANGE_CODED, FRAME_CRC_LEN, HEADER_LEN,
    MAGIC, STAGE_LZ, STAGE_NONE, VERSION, VERSION_V1, VERSION_V2, VERSION_V4,
};
use crate::crc32::Crc32;
use gld_entropy::{write_section, ByteReader, ReadError};

/// Whether `version`'s flags byte declares the entropy-coder generation
/// (v3 and later; before that the byte is reserved and must be zero).
fn flags_declare_coder(version: u16) -> bool {
    version >= VERSION
}

/// Appends the fixed container header — the one definition shared by the
/// buffered encoders and the incremental `ContainerWriter`.
pub(super) fn encode_header(out: &mut Vec<u8>, version: u16, codec: CodecId, count: u32) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.push(codec as u8);
    out.push(if flags_declare_coder(version) {
        FLAG_RANGE_CODED
    } else {
        0
    });
    out.extend_from_slice(&count.to_le_bytes());
}

/// A parsed fixed header; the frames (or the v4 profile table) start at
/// [`HEADER_LEN`].
pub(super) struct Header {
    pub(super) version: u16,
    pub(super) codec: CodecId,
    pub(super) layout: FrameLayout,
    /// The frame count the header declares.
    pub(super) declared: usize,
    /// `declared`, bounded by how many minimal frames the input could
    /// physically hold (plus one, so a cut mid-frame is still visited).
    /// Every allocation a decoder sizes by frame count uses this one: a
    /// corrupted or hostile count must not become an allocation bomb.
    pub(super) count: usize,
    /// Capacity for per-frame vectors: `count`, capped so a large hostile
    /// input cannot multiply its own size either.
    pub(super) reserve: usize,
}

/// Parses and validates the fixed header — the one definition shared by
/// strict and salvage decode.
pub(super) fn decode_header(bytes: &[u8]) -> Result<Header, ContainerError> {
    let mut reader = ByteReader::new(bytes);
    let magic = reader.take_array::<4>()?;
    if magic != MAGIC {
        return Err(ContainerError::BadMagic(magic));
    }
    let version = reader.read_u16()?;
    let layout = FrameLayout::of(version).ok_or(ContainerError::UnsupportedVersion(version))?;
    let codec = CodecId::from_u8(reader.read_u8()?)?;
    let flags = reader.read_u8()?;
    if !flags_declare_coder(version) {
        if flags != 0 {
            return Err(ContainerError::Corrupt("nonzero reserved flags"));
        }
    } else if flags & FLAG_RANGE_CODED == 0 {
        // A stream explicitly declaring pre-range-coder payloads (or a
        // corrupted flags byte): refuse with the cross-build error instead
        // of decoding garbage.  Unknown high bits are ignored.
        return Err(ContainerError::IncompatibleEntropyCoder { version, codec });
    }
    let declared = reader.read_u32()? as usize;
    debug_assert_eq!(reader.position(), HEADER_LEN);
    let count = declared.min(reader.remaining() / layout.frame_len(0) + 1);
    Ok(Header {
        version,
        codec,
        layout,
        declared,
        count,
        reserve: count.min(1 << 20),
    })
}

/// What one wire version wraps around a frame's payload: every frame is
/// `[stage u8] [profile u8] u64 payload length, payload, [u32 CRC-32]`, the
/// CRC taken over the head bytes present followed by the payload (never the
/// length prefix).
#[derive(Clone, Copy, Debug)]
pub(super) struct FrameLayout {
    /// A stage byte ([`STAGE_NONE`] / [`STAGE_LZ`]) leads the frame.
    stage: bool,
    /// A profile id follows it (and a profile table precedes the frames).
    profile: bool,
    /// A CRC-32 trails the frame.
    crc: bool,
}

impl FrameLayout {
    /// The layout table of the parent module's documentation, as data — the
    /// only place that knows what a wire version looks like (`None`: not a
    /// version this build reads).
    pub(super) fn of(version: u16) -> Option<FrameLayout> {
        let (stage, profile, crc) = match version {
            VERSION_V1 => (false, false, false),
            VERSION_V2 => (false, false, true),
            VERSION => (true, false, true),
            VERSION_V4 => (true, true, true),
            _ => return None,
        };
        Some(FrameLayout {
            stage,
            profile,
            crc,
        })
    }

    /// The layout of a version this build chose to write (never one read
    /// off a stream: an unknown version here is a bug, not input).
    pub(super) fn written(version: u16) -> FrameLayout {
        FrameLayout::of(version).expect("writers only name versions in the layout table")
    }

    /// Whether frames record a stage decision (otherwise every payload is
    /// the codec frame verbatim).
    pub(super) fn staged(self) -> bool {
        self.stage
    }

    /// Whether frames carry profile ids (and a profile table precedes them).
    pub(super) fn profiled(self) -> bool {
        self.profile
    }

    /// Whether a checksum tells a frame boundary from noise.
    pub(super) fn checksummed(self) -> bool {
        self.crc
    }

    fn head_len(self) -> usize {
        self.stage as usize + self.profile as usize
    }

    /// Encoded length of one frame around a `payload_len`-byte payload.
    pub(super) fn frame_len(self, payload_len: usize) -> usize {
        self.head_len() + 8 + payload_len + if self.crc { FRAME_CRC_LEN } else { 0 }
    }

    /// Appends one frame: `lz` is the staged stream when it won (ignored by
    /// a stage-less layout, which always stores `raw`), `profile` is
    /// written only where the layout has a profile byte.
    pub(super) fn write(self, out: &mut Vec<u8>, raw: &[u8], profile: u8, lz: Option<&[u8]>) {
        let start = out.len();
        let lz = lz.filter(|_| self.stage);
        if self.stage {
            out.push(if lz.is_some() { STAGE_LZ } else { STAGE_NONE });
        }
        if self.profile {
            out.push(profile);
        }
        let payload = lz.unwrap_or(raw);
        write_section(out, payload);
        if self.crc {
            let mut crc = Crc32::new();
            crc.update(&out[start..start + self.head_len()]);
            crc.update(payload);
            out.extend_from_slice(&crc.finish().to_le_bytes());
        }
    }

    /// The `container.frame` failpoint, behind every checksummed *block*
    /// frame just written to the end of `out` (never the profile table).
    /// With `corrupt` armed it flips the frame's last pre-CRC byte — after
    /// its checksum was computed, so the damage models exactly the
    /// stored-container bit-rot salvage decode exists to survive.
    pub(super) fn frame_failpoint(self, out: &mut [u8]) {
        if !self.crc || !fail::active() {
            return;
        }
        match fail::check("container.frame") {
            Some(fail::Action::Corrupt) => {
                let at = out.len() - FRAME_CRC_LEN - 1;
                out[at] ^= 0xFF;
            }
            Some(fail::Action::Delay(d)) => std::thread::sleep(d),
            _ => {}
        }
    }

    /// Parses the frame at `pos` without de-staging it: structurally sound,
    /// checksum-valid (where the layout has one) and with a known stage
    /// byte (where it has one), or the typed damage.
    pub(super) fn read(
        self,
        bytes: &[u8],
        pos: usize,
        block: usize,
    ) -> Result<WireFrame<'_>, FrameDamage> {
        let mut reader = ByteReader::at(bytes, pos);
        let hard = |error: ReadError| FrameDamage {
            error: error.into(),
            skip_to: None,
        };
        // One byte at a time: a cut between the two head bytes must report
        // the first missing byte.
        let stage = self.stage.then(|| reader.read_u8()).transpose();
        let stage = stage.map_err(hard)?;
        let profile = self.profile.then(|| reader.read_u8()).transpose();
        let profile = profile.map_err(hard)?.unwrap_or(0);
        let head = &bytes[pos..reader.position()];
        let payload = reader.read_section().map_err(hard)?;
        if self.crc {
            let stored = reader.read_u32().map_err(hard)?;
            let mut crc = Crc32::new();
            crc.update(head);
            crc.update(payload);
            let computed = crc.finish();
            if stored != computed {
                return Err(FrameDamage {
                    error: ContainerError::ChecksumMismatch {
                        block,
                        stored,
                        computed,
                    },
                    skip_to: Some(reader.position()),
                });
            }
        }
        match stage {
            Some(stage) if stage > STAGE_LZ => Err(FrameDamage {
                error: ContainerError::UnknownStage { block, stage },
                skip_to: Some(reader.position()),
            }),
            _ => Ok(WireFrame {
                stage,
                profile,
                payload,
                next: reader.position(),
            }),
        }
    }
}

/// One frame as it sits on the wire, vetted by [`FrameLayout::read`] but not
/// yet de-staged.
pub(super) struct WireFrame<'a> {
    /// The stage byte (`None`: the layout has none, the payload is raw).
    pub(super) stage: Option<u8>,
    /// The profile id (0 where the layout has none).
    pub(super) profile: u8,
    pub(super) payload: &'a [u8],
    /// Offset of the byte after this frame.
    pub(super) next: usize,
}

/// Why [`FrameLayout::read`] could not produce a frame.
pub(super) struct FrameDamage {
    pub(super) error: ContainerError,
    /// Where the frame's length prefix claims the next frame starts, when
    /// the prefix itself was readable and in bounds.  `None` when even the
    /// framing is unreadable (truncation, out-of-range section length).
    pub(super) skip_to: Option<usize>,
}

/// Recovers the codec's bytes from a vetted frame — the one definition of
/// the profile-reference, stage-snapshot, dictionary and budget rules.
///
/// `profiles` is `None` when the table itself was lost (salvage only): raw
/// frames then survive whatever id they carry and cold frames de-stage as
/// ever, while a staged frame that names a profile is lost with its coder
/// state.  `first_block` is block 0's recovered bytes, the
/// [`DictMode::FirstBlock`] seed dictionary (block 0 itself de-stages
/// dictionary-free — it *is* the dictionary).  `budget` is container-wide:
/// a frame may only spend what earlier frames left over, so total decode
/// memory is bounded however many tiny bomb frames a stream declares.
pub(super) fn destage(
    frame: &WireFrame<'_>,
    block: usize,
    profiles: Option<&[EntropyProfile]>,
    first_block: Option<&[u8]>,
    budget: &mut usize,
) -> Result<Vec<u8>, ContainerError> {
    let staged = frame.stage == Some(STAGE_LZ);
    let entry = match (frame.profile, profiles) {
        (0, _) => None,
        (_, None) if staged => {
            return Err(ContainerError::Corrupt(
                "staged frame references the damaged profile table",
            ))
        }
        (_, None) => None,
        (profile, Some(table)) => Some(
            table
                .get(profile as usize - 1)
                .ok_or(ContainerError::UnknownProfile { block, profile })?,
        ),
    };
    if !staged {
        return Ok(frame.payload.to_vec());
    }
    // The `container.destage` failpoint: forces a stage-decode failure (or
    // a stall) as if the staged payload were unreadable.
    if fail::active() {
        match fail::check("container.destage") {
            Some(fail::Action::Delay(d)) => std::thread::sleep(d),
            Some(_) => return Err(ContainerError::Corrupt("injected de-stage fault")),
            None => {}
        }
    }
    let raw = match entry {
        None => gld_lz::decompress(frame.payload, *budget),
        Some(entry) => {
            let lz = entry.lz.as_ref().ok_or(ContainerError::Corrupt(
                "staged frame references a profile without a stage snapshot",
            ))?;
            let dict = match entry.dict_mode {
                DictMode::FirstBlock if block > 0 => first_block.ok_or(ContainerError::Corrupt(
                    "dictionary frame (block 0) was not recovered",
                ))?,
                _ => &[],
            };
            gld_lz::decompress_profiled(frame.payload, dict, lz, *budget)
        }
    }
    .map_err(|error| ContainerError::StageDecode { block, error })?;
    *budget = budget.saturating_sub(raw.len());
    Ok(raw)
}
