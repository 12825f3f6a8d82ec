//! Salvage decode under exhaustive damage: every single-byte corruption of
//! a v4 container (header, profile table, frame framing, payloads, CRCs)
//! and every truncation point must leave `Container::decode_salvage` with
//! three guarantees — it never panics, every frame it reports recovered is
//! bit-identical to the original, and the loss report accounts for exactly
//! the frames that did not come back.  The same three loops then run over
//! the v3 and v2 encodings of the same frames: one walker reads all of
//! them, so every checksummed version gets the exhaustive proof (v1 has no
//! checksums — its salvage is structural only, as documented).
//!
//! The fixture mirrors the v4 shape the executor produces: frame 0 is
//! incompressible noise that doubles as the `DictMode::FirstBlock`
//! dictionary, frame 1 a near-copy that only stages under that dictionary
//! (so losing frame 0 must cascade into losing frame 1), and frame 2 a
//! compressible cold-staged trailer that must survive even a destroyed
//! profile table.

use gld_core::container::{stage_frame, stage_frame_profiled};
use gld_core::{CodecId, Container, DictMode, EntropyProfile, Salvage};
use gld_lz::{LzProfile, LzScratch};
use std::ops::Range;

/// Fixed container header length (magic + version + codec + flags + count).
const HEADER_LEN: usize = 12;

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

/// The three-frame v4 fixture: dictionary noise, profiled near-copy, cold
/// trailer.
fn sample() -> Container {
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
    // The dictionary frame is stored raw (noise does not stage cold), so it
    // must survive profile-table damage on its own.
    c.push_staged(f0.clone(), None);
    let s1 = stage_frame_profiled(&f1, &f0, &lz, &mut scratch);
    assert!(
        s1.is_some(),
        "the near-copy must stage under the dictionary"
    );
    c.push_profiled(f1, 1, s1);
    let trailer = vec![9u8; 40];
    let s2 = stage_frame(&trailer, &mut scratch);
    assert!(s2.is_some(), "the trailer must cold-stage");
    c.push_staged(trailer, s2);
    c
}

/// One checksummed wire version of the fixture: how [`layout`] walks it.
struct Wire {
    version: u16,
    /// Bytes ahead of each frame's length prefix (stage byte, profile id).
    head: usize,
    /// Whether a profile table sits between the header and the frames —
    /// and with it the first-block dictionary the fixture's frame 1 needs.
    table: bool,
    encode: fn(&Container) -> Vec<u8>,
}

const WIRES: [Wire; 3] = [
    Wire {
        version: 4,
        head: 2,
        table: true,
        encode: Container::encode,
    },
    Wire {
        version: 3,
        head: 1,
        table: false,
        encode: Container::encode_v3,
    },
    Wire {
        version: 2,
        head: 0,
        table: false,
        encode: Container::encode_v2,
    },
];

/// Byte extents of the fixture's wire regions, walked off the encoding
/// itself so the test keeps tracking the format.
struct Layout {
    /// The v4 profile table (stage byte + length-prefixed payload + CRC);
    /// empty for the versions without one.
    table: Range<usize>,
    /// Each frame's full extent.
    frames: Vec<Range<usize>>,
    /// Each frame's 8-byte little-endian length prefix.
    length_prefixes: Vec<Range<usize>>,
}

fn layout(bytes: &[u8], wire: &Wire) -> Layout {
    let read_len = |at: usize| {
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("length prefix")) as usize
    };
    // Table: stage u8, u64 payload length, payload, CRC-32.
    let mut pos = HEADER_LEN;
    let table_len = if wire.table {
        1 + 8 + read_len(pos + 1) + 4
    } else {
        0
    };
    let table = pos..pos + table_len;
    pos = table.end;
    // Frames: the version's head bytes, u64 payload length, payload, CRC-32.
    let head = wire.head;
    let mut frames = Vec::new();
    let mut length_prefixes = Vec::new();
    while pos < bytes.len() {
        let payload_len = read_len(pos + head);
        length_prefixes.push(pos + head..pos + head + 8);
        let end = pos + head + 8 + payload_len + 4;
        frames.push(pos..end);
        pos = end;
    }
    assert_eq!(pos, bytes.len(), "layout walk must consume the container");
    assert_eq!(frames.len(), 3, "fixture has three frames");
    Layout {
        table,
        frames,
        length_prefixes,
    }
}

fn lost_indices(salvage: &Salvage) -> Vec<usize> {
    salvage.report.lost.iter().map(|l| l.block).collect()
}

/// The guarantees that hold for *any* input: the `None` slots and the loss
/// report name exactly the same frames, and everything recovered is
/// bit-identical to the original frame at that index.
fn assert_invariants(salvage: &Salvage, originals: &[Vec<u8>], context: &str) {
    let none_slots: Vec<usize> = salvage
        .frames
        .iter()
        .enumerate()
        .filter_map(|(i, f)| f.is_none().then_some(i))
        .collect();
    assert_eq!(
        none_slots,
        lost_indices(salvage),
        "{context}: loss report must name exactly the unrecovered slots"
    );
    for (index, frame) in salvage.frames.iter().enumerate() {
        if let Some(frame) = frame {
            assert!(
                index < originals.len(),
                "{context}: recovered a frame index the original never had"
            );
            assert_eq!(
                frame, &originals[index],
                "{context}: recovered frame {index} differs from the original"
            );
        }
    }
}

#[test]
fn undamaged_container_salvages_completely() {
    let container = sample();
    let bytes = container.encode();
    let salvage = Container::decode_salvage(&bytes).expect("intact container");
    assert!(salvage.is_complete());
    assert_eq!(salvage.recovered(), 3);
    assert_eq!(salvage.report.declared_frames, 3);
    assert_eq!(salvage.report.version, 4);
    assert_eq!(salvage.report.codec, CodecId::SzLike);
    for (recovered, original) in salvage.frames.iter().zip(container.blocks()) {
        assert_eq!(recovered.as_ref().expect("complete"), original);
    }
}

/// Exhaustive single-byte corruption (`byte ^= 0xFF` at every offset), with
/// exact expected loss sets per damage region.
#[test]
fn every_single_byte_corruption_is_survived_and_accounted() {
    WIRES.iter().for_each(single_byte_corruption);
}

fn single_byte_corruption(wire: &Wire) {
    let container = sample();
    let bytes = (wire.encode)(&container);
    let originals = container.blocks();
    let layout = layout(&bytes, wire);

    for offset in 0..bytes.len() {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0xFF;
        let context = format!("v{} offset {offset} ^= 0xFF", wire.version);

        if offset < 8 {
            // Magic, version, codec, flags: without a usable identity there
            // is nothing to hand the frames to — salvage must refuse.
            assert!(
                Container::decode_salvage(&damaged).is_err(),
                "{context}: a destroyed header identity must fail"
            );
            continue;
        }

        let salvage = Container::decode_salvage(&damaged)
            .unwrap_or_else(|e| panic!("{context}: salvage failed outright: {e}"));
        assert_invariants(&salvage, originals, &context);
        let lost = lost_indices(&salvage);

        if offset < HEADER_LEN {
            // Count damage: the three real frames still come back; only
            // phantom trailing indices may be reported lost.
            assert_eq!(
                salvage.recovered_indices(),
                vec![0, 1, 2],
                "{context}: count damage must not cost any real frame"
            );
            assert!(
                lost.iter().all(|&i| i >= 3),
                "{context}: only phantom indices may be lost"
            );
        } else if layout.table.contains(&offset) {
            // Table damage: the profiled frame is lost, the raw dictionary
            // frame and the cold-staged trailer survive.
            assert!(
                salvage.report.profile_table_error.is_some(),
                "{context}: table damage must be reported"
            );
            assert_eq!(
                salvage.recovered_indices(),
                vec![0, 2],
                "{context}: cold frames must survive table damage"
            );
            assert_eq!(
                lost,
                vec![1],
                "{context}: exactly the profiled frame is lost"
            );
        } else {
            let frame = layout
                .frames
                .iter()
                .position(|span| span.contains(&offset))
                .expect("offset belongs to some frame");
            // Losing the dictionary frame cascades into every frame whose
            // profile seeds its window from block 0 (v4 only: without a
            // profile table there is no dictionary to lose).
            let expected = if frame == 0 && wire.table {
                vec![0, 1]
            } else {
                vec![frame]
            };
            let in_length_prefix = layout.length_prefixes[frame].contains(&offset);
            if in_length_prefix {
                // Framing damage: resynchronisation is best-effort, but the
                // damaged frame itself is always lost and the frames before
                // it are already safely decoded.
                assert!(
                    lost.contains(&frame),
                    "{context}: the frame with damaged framing must be lost"
                );
                for before in 0..frame {
                    assert!(
                        salvage.frames[before].is_some(),
                        "{context}: frame {before} precedes the damage and must survive"
                    );
                }
            } else {
                assert_eq!(
                    lost, expected,
                    "{context}: exactly the damaged frame (plus dictionary \
                     dependants) must be lost"
                );
                assert_eq!(salvage.frames.len(), 3, "{context}");
            }
        }
    }
}

/// Every single-*bit* flip at every offset: no panic and the universal
/// invariants, whatever the damage semantics.
#[test]
fn every_single_bit_flip_upholds_the_invariants() {
    WIRES.iter().for_each(single_bit_flips);
}

fn single_bit_flips(wire: &Wire) {
    let container = sample();
    let bytes = (wire.encode)(&container);
    let originals = container.blocks();

    for offset in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut damaged = bytes.clone();
            damaged[offset] ^= 1 << bit;
            let context = format!("v{} offset {offset} bit {bit}", wire.version);
            if let Ok(salvage) = Container::decode_salvage(&damaged) {
                assert_invariants(&salvage, originals, &context);
            }
        }
    }
}

/// Every truncation point: frames wholly before the cut are recovered
/// (minus the dictionary cascade), everything else is reported lost.
#[test]
fn every_truncation_point_recovers_the_prefix() {
    WIRES.iter().for_each(truncations);
}

fn truncations(wire: &Wire) {
    let container = sample();
    let bytes = (wire.encode)(&container);
    let originals = container.blocks();
    let layout = layout(&bytes, wire);

    for cut in 0..bytes.len() {
        let damaged = &bytes[..cut];
        let context = format!("v{} truncated to {cut} bytes", wire.version);
        if cut < HEADER_LEN {
            assert!(
                Container::decode_salvage(damaged).is_err(),
                "{context}: no header, no salvage"
            );
            continue;
        }
        let salvage = Container::decode_salvage(damaged)
            .unwrap_or_else(|e| panic!("{context}: salvage failed outright: {e}"));
        assert_invariants(&salvage, originals, &context);
        if cut >= layout.table.end {
            let expected: Vec<usize> = layout
                .frames
                .iter()
                .enumerate()
                .filter_map(|(i, span)| (span.end <= cut).then_some(i))
                .collect();
            assert_eq!(
                salvage.recovered_indices(),
                expected,
                "{context}: exactly the frames before the cut survive"
            );
        }
    }
}

/// Multi-site damage: one corrupted byte in *every* frame at once must
/// still not panic, and the raw dictionary frame's loss must be typed.
#[test]
fn simultaneous_damage_in_every_frame_loses_everything_gracefully() {
    let container = sample();
    let bytes = container.encode();
    let layout = layout(&bytes, &WIRES[0]);
    let mut damaged = bytes.clone();
    for span in &layout.frames {
        // Mid-payload, clear of the framing bytes.
        damaged[span.start + 12] ^= 0xFF;
    }
    let salvage = Container::decode_salvage(&damaged).expect("header is intact");
    assert_invariants(&salvage, container.blocks(), "every frame damaged");
    assert_eq!(salvage.recovered(), 0);
    assert_eq!(lost_indices(&salvage), vec![0, 1, 2]);
}

/// v3 (per-frame stage, no profile table): single-byte corruption in one
/// frame loses exactly that frame — no dictionary cascade exists.
#[test]
fn v3_salvage_loses_only_the_damaged_frame() {
    let mut c = Container::new(CodecId::ZfpLike);
    for seed in 0..4u64 {
        c.push(noise(seed * 7 + 1, 120));
    }
    let bytes = c.encode_v3();
    // Frame 1's payload: header (12) + frame 0 (1 stage + 8 len + 120 + 4
    // crc) + a few bytes into frame 1's payload.
    let offset = HEADER_LEN + (1 + 8 + 120 + 4) + 20;
    let mut damaged = bytes.clone();
    damaged[offset] ^= 0xFF;
    let salvage = Container::decode_salvage(&damaged).expect("header is intact");
    assert_invariants(&salvage, c.blocks(), "v3 frame damage");
    assert_eq!(lost_indices(&salvage), vec![1]);
    assert_eq!(salvage.recovered_indices(), vec![0, 2, 3]);
    assert_eq!(salvage.report.version, 3);
    assert!(salvage.report.profile_table_error.is_none());
}
