//! Failpoint-driven fault injection against the container codec paths.
//!
//! The failpoint registry is process-global, so this file is its own test
//! binary — `fail::configure` here cannot leak into the other integration
//! suites — and within the binary every test serialises through one gate.

use gld_core::{
    CodecId, Container, ContainerError, ContainerFormat, ContainerWriter, EntropyProfile,
};
use std::sync::{Mutex, MutexGuard};

/// Serialises this binary's tests.  Each holds the gate for its whole body,
/// not only while a point is armed: the disarmed encodes and decodes a test
/// compares against run the same instrumented paths, and would otherwise
/// take the hit another test armed for itself.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with `spec` armed and guarantees the registry is disarmed again
/// afterwards.  Call with [`gate`] held.
fn with_failpoints<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    fail::configure(spec).expect("failpoint spec parses");
    let result = f();
    fail::configure("").expect("disarm");
    result
}

/// Three compressible frames: all of them take the `gld-lz` stage, so both
/// the frame-encode and the de-stage failpoints have something to hit.
fn staged_sample() -> Container {
    let mut c = Container::new(CodecId::ZfpLike);
    for i in 0..3u8 {
        c.push(vec![i; 200]);
    }
    c
}

#[test]
fn injected_frame_bit_rot_fails_decode_and_salvages_cleanly() {
    let _gate = gate();
    let container = staged_sample();
    let clean = container.encode();

    // `container.frame=corrupt` flips one pre-CRC payload byte of the first
    // frame encoded after its checksum is computed — stored bit-rot.
    let hits_before = fail::total_hits();
    let damaged = with_failpoints("container.frame=corrupt:1", || container.encode());
    assert!(fail::total_hits() > hits_before, "the failpoint fired");
    assert_ne!(damaged, clean, "the encoding carries the injected damage");

    // The strict decode refuses the whole stream at the damaged frame...
    match Container::decode(&damaged) {
        Err(ContainerError::ChecksumMismatch { block: 0, .. }) => {}
        other => panic!("expected a frame-0 checksum mismatch, got {other:?}"),
    }

    // ...while salvage recovers everything else bit-identically.
    let salvage = Container::decode_salvage(&damaged).expect("header is intact");
    let lost: Vec<usize> = salvage.report.lost.iter().map(|l| l.block).collect();
    assert_eq!(lost, vec![0], "exactly the bit-rotted frame is lost");
    assert_eq!(salvage.recovered_indices(), vec![1, 2]);
    for index in [1usize, 2] {
        assert_eq!(
            salvage.frames[index].as_ref().expect("recovered"),
            &container.blocks()[index],
            "recovered frame {index} must be bit-identical"
        );
    }
}

#[test]
fn injected_destage_fault_surfaces_as_a_typed_container_error() {
    let _gate = gate();
    let bytes = staged_sample().encode();

    // Armed, the de-stage path reports the frame unreadable...
    let error = with_failpoints("container.destage=corrupt:1", || {
        Container::decode(&bytes).expect_err("injected de-stage fault")
    });
    match error {
        ContainerError::Corrupt(reason) => assert!(
            reason.contains("injected"),
            "the injected fault is labelled as such: {reason}"
        ),
        other => panic!("expected a Corrupt de-stage error, got {other:?}"),
    }

    // ...and disarmed, the very same bytes decode fine: the fault was in
    // the harness, not the data.
    let back = Container::decode(&bytes).expect("decodes once disarmed");
    assert_eq!(back.blocks(), staged_sample().blocks());
}

#[test]
fn frame_bit_rot_reaches_every_checksummed_block_frame_and_never_the_table() {
    let _gate = gate();
    let container = staged_sample();
    let frame0_mismatch = |bytes: &[u8]| {
        matches!(
            Container::decode(bytes),
            Err(ContainerError::ChecksumMismatch { block: 0, .. })
        )
    };

    // The stage-less v2 writers frame through the same writer as v3/v4...
    let v2 = with_failpoints("container.frame=corrupt:1", || container.encode_v2());
    assert_ne!(v2, container.encode_v2());
    assert!(frame0_mismatch(&v2), "buffered v2 frame 0 carries the rot");
    let streamed = with_failpoints("container.frame=corrupt:1", || {
        let mut w =
            ContainerWriter::with_format(Vec::new(), container.codec(), 3, ContainerFormat::V2)
                .expect("Vec sink");
        for frame in container.blocks() {
            w.write_frame(frame).expect("Vec sink");
        }
        w.finish().expect("Vec sink")
    });
    assert_eq!(streamed, v2, "the incremental v2 writer takes the same hit");

    // ...v1 frames carry no checksum to betray the damage, so they are left
    // alone (the hit stays armed for the next checksummed frame)...
    let v1 = with_failpoints("container.frame=corrupt:1", || container.encode_v1());
    assert_eq!(v1, container.encode_v1());

    // ...and the v4 profile table is framed by the same writer but is not a
    // block frame: the first hit lands on frame 0, behind an intact table.
    let mut profiled = Container::with_profiles(CodecId::ZfpLike, vec![EntropyProfile::default()]);
    for frame in container.blocks() {
        profiled.push(frame.clone());
    }
    let v4 = with_failpoints("container.frame=corrupt:1", || profiled.encode());
    assert!(frame0_mismatch(&v4), "the table decoded, frame 0 did not");
    let salvage = Container::decode_salvage(&v4).expect("header is intact");
    assert_eq!(salvage.report.profile_table_error, None);
    assert_eq!(salvage.recovered_indices(), vec![1, 2]);
}

#[test]
fn injected_destage_fault_costs_salvage_exactly_one_frame() {
    let _gate = gate();
    let container = staged_sample();
    let bytes = container.encode();

    // Salvage de-stages through the same function as the strict decode, so
    // the same failpoint reaches it: the hit frame is lost with the
    // injected reason, the walk carries on behind it.
    let salvage = with_failpoints("container.destage=corrupt:1", || {
        Container::decode_salvage(&bytes).expect("header is intact")
    });
    assert_eq!(salvage.recovered_indices(), vec![1, 2]);
    assert_eq!(salvage.report.lost.len(), 1);
    assert_eq!(salvage.report.lost[0].block, 0);
    match &salvage.report.lost[0].error {
        ContainerError::Corrupt(reason) => assert!(reason.contains("injected"), "{reason}"),
        other => panic!("expected the injected de-stage fault, got {other:?}"),
    }
    assert!(Container::decode_salvage(&bytes)
        .expect("header is intact")
        .is_complete());
}

#[test]
fn probability_zero_failpoints_never_fire() {
    let _gate = gate();
    let container = staged_sample();
    let clean = container.encode();
    let encoded = with_failpoints("container.frame=corrupt:0%", || container.encode());
    assert_eq!(encoded, clean, "a 0% failpoint must be a no-op");
    assert!(Container::decode(&encoded).is_ok());
}
