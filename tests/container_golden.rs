//! Golden container corpus: one committed encoding per wire version, pinned
//! byte for byte across commits.
//!
//! The `*.gldc` files under `tests/fixtures/container/` were written by the
//! encoders of commit `5002af3` (the last one with per-version framing
//! functions) and are never regenerated; each `*.blocks` file holds the
//! frames that container must decode to (`u32` count, then `u32` length +
//! bytes per frame).  Every other container test round-trips through the
//! code under test on both sides; this one cannot drift with it.
//!
//! * `v1`, `v2`, `v3` — the same four frames (tiny, empty, one that takes
//!   the `Lz` stage, incompressible noise) through `encode_v1` /
//!   `encode_v2` / `encode_v3`.
//! * `v4_dict` — one `DictMode::FirstBlock` profile; frames: profiled and
//!   staged (the dictionary itself), profiled and staged against the
//!   dictionary, profiled and stored raw, cold staged, cold raw.
//! * `v4_model` — two profiles carrying a `HistogramModel`: one without a
//!   stage snapshot (its frame stores raw), one with; plus a cold frame.

use gld_core::container::{stage_frame, stage_frame_profiled};
use gld_core::{Container, ContainerFormat, ContainerWriter};
use gld_lz::LzScratch;

struct Golden {
    name: &'static str,
    bytes: &'static [u8],
    blocks: &'static [u8],
    wire_version: u16,
    /// `None` for v1: the incremental writer has no checksum-less format.
    format: Option<ContainerFormat>,
    frame_profiles: &'static [u8],
    /// Recorded at the parent commit on the *decoded* container, so for v1
    /// and v2 these describe the v3 stream a re-encode produces.
    encoded_len: usize,
    staged_frames: usize,
    profile_table_bytes: usize,
}

macro_rules! golden {
    ($name:literal, $version:expr, $format:expr, $profiles:expr, $len:expr, $staged:expr, $table:expr) => {
        Golden {
            name: $name,
            bytes: include_bytes!(concat!("fixtures/container/", $name, ".gldc")),
            blocks: include_bytes!(concat!("fixtures/container/", $name, ".blocks")),
            wire_version: $version,
            format: $format,
            frame_profiles: $profiles,
            encoded_len: $len,
            staged_frames: $staged,
            profile_table_bytes: $table,
        }
    };
}

fn corpus() -> [Golden; 5] {
    use ContainerFormat::{V2, V3, V4};
    [
        golden!("v1", 1, None, &[0, 0, 0, 0], 228, 1, 0),
        golden!("v2", 2, Some(V2), &[0, 0, 0, 0], 228, 1, 0),
        golden!("v3", 3, Some(V3), &[0, 0, 0, 0], 228, 1, 0),
        golden!("v4_dict", 4, Some(V4), &[1, 1, 1, 0, 0], 1252, 3, 417),
        golden!("v4_model", 4, Some(V4), &[1, 2, 0], 776, 2, 189),
    ]
}

fn parse_blocks(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut pos = 0;
    let mut take = |n: usize| {
        pos += n;
        &bytes[pos - n..pos]
    };
    let count = u32::from_le_bytes(take(4).try_into().unwrap());
    let blocks = (0..count)
        .map(|_| {
            let len = u32::from_le_bytes(take(4).try_into().unwrap()) as usize;
            take(len).to_vec()
        })
        .collect();
    assert_eq!(pos, bytes.len(), "blocks file has trailing bytes");
    blocks
}

/// The encoder that wrote the fixture.
fn reencode(golden: &Golden, container: &Container) -> Vec<u8> {
    match golden.wire_version {
        1 => container.encode_v1(),
        2 => container.encode_v2(),
        3 => container.encode_v3(),
        _ => container.encode(),
    }
}

#[test]
fn every_fixture_decodes_to_its_blocks() {
    for golden in corpus() {
        let name = golden.name;
        let container = Container::decode(golden.bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(container.blocks(), parse_blocks(golden.blocks), "{name}");
        assert_eq!(container.wire_version(), golden.wire_version, "{name}");
        let profiles: Vec<u8> = (0..container.blocks().len())
            .map(|i| container.frame_profile(i))
            .collect();
        assert_eq!(profiles, golden.frame_profiles, "{name}");
        assert_eq!(container.encoded_len(), golden.encoded_len, "{name}");
        assert_eq!(container.staged_frames(), golden.staged_frames, "{name}");
        assert_eq!(
            container.profile_table_bytes(),
            golden.profile_table_bytes,
            "{name}"
        );
        assert_eq!(container.encode().len(), golden.encoded_len, "{name}");
    }
}

#[test]
fn every_fixture_reencodes_to_the_identical_bytes() {
    for golden in corpus() {
        let container = Container::decode(golden.bytes).expect("fixture decodes");
        assert_eq!(
            reencode(&golden, &container),
            golden.bytes,
            "{}: decode → encode drifted from the committed bytes",
            golden.name
        );
        // A container rebuilt from nothing but the frames writes the same
        // profile-less streams (v4 needs its profiles: covered below).
        if golden.wire_version < 4 {
            let rebuilt = Container::from_blocks(container.codec(), parse_blocks(golden.blocks));
            assert_eq!(reencode(&golden, &rebuilt), golden.bytes, "{}", golden.name);
        }
    }
}

#[test]
fn the_incremental_writer_reproduces_every_fixture() {
    let mut scratch = LzScratch::new();
    for golden in corpus() {
        let Some(format) = golden.format else {
            continue;
        };
        let name = golden.name;
        let container = Container::decode(golden.bytes).expect("fixture decodes");
        let blocks = container.blocks();
        let count = blocks.len() as u32;
        let mut writer = match format {
            ContainerFormat::V4 => ContainerWriter::with_profile_table(
                Vec::new(),
                container.codec(),
                count,
                container.profiles(),
            ),
            other => ContainerWriter::with_format(Vec::new(), container.codec(), count, other),
        }
        .expect("Vec sink");
        for (index, frame) in blocks.iter().enumerate() {
            if format != ContainerFormat::V4 {
                writer.write_frame(frame).expect("Vec sink");
                continue;
            }
            // Every v4 stage decision recomputed from public parts: the
            // fixture's own profile, its first block as the dictionary.
            let id = container.frame_profile(index);
            let staged = match container.profile_for_block(index) {
                None => stage_frame(frame, &mut scratch),
                Some(profile) => profile.lz.as_ref().and_then(|lz| {
                    let dict = profile.dict_for_block(index, blocks);
                    stage_frame_profiled(frame, dict, lz, &mut scratch)
                }),
            };
            writer
                .write_profiled_frame(frame, id, staged.as_deref())
                .expect("Vec sink");
        }
        assert_eq!(writer.bytes_written(), golden.bytes.len(), "{name}");
        assert_eq!(writer.finish().expect("Vec sink"), golden.bytes, "{name}");
    }
}

#[test]
fn every_fixture_salvages_completely() {
    for golden in corpus() {
        let salvage = Container::decode_salvage(golden.bytes).expect("fixture header");
        assert!(salvage.is_complete(), "{}", golden.name);
        assert_eq!(salvage.report.version, golden.wire_version);
        let frames: Vec<Vec<u8>> = salvage.frames.into_iter().flatten().collect();
        assert_eq!(frames, parse_blocks(golden.blocks), "{}", golden.name);
    }
}
