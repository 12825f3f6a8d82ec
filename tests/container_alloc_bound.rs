//! A hostile frame count must not size any allocation: a header-only stream
//! declaring `u32::MAX` frames is twelve bytes (plus, for v4, a profile
//! table), and both decoders must answer it having reserved next to
//! nothing — the server decodes network bytes with `Container::decode`.
//!
//! One test, one binary: the counting allocator is process-global, and a
//! second test thread would add its allocations to the count.

use gld_core::{CodecId, Container, ContainerError, EntropyProfile};
use std::alloc::{GlobalAlloc, Layout, System};
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

#[test]
fn a_declared_frame_count_reserves_nothing_the_input_cannot_hold() {
    let empty = Container::new(CodecId::SzLike);
    let profiled = Container::with_profiles(CodecId::SzLike, vec![EntropyProfile::default()]);
    let streams = [
        empty.encode_v1(),
        empty.encode_v2(),
        empty.encode_v3(),
        profiled.encode(),
    ];
    for (version, mut bytes) in (1u16..).zip(streams) {
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), version);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());

        let (strict, requested) = requested_by(|| Container::decode(&bytes));
        assert!(
            matches!(strict, Err(ContainerError::Truncated { .. })),
            "v{version}: {strict:?}"
        );
        assert!(
            requested < LIMIT,
            "v{version}: strict decode requested {requested} bytes for a {}-byte stream",
            bytes.len()
        );

        let (salvage, requested) = requested_by(|| Container::decode_salvage(&bytes));
        let salvage = salvage.expect("the header is intact");
        assert_eq!(salvage.report.declared_frames, u32::MAX as usize);
        assert_eq!(salvage.recovered(), 0, "v{version}");
        assert_eq!(salvage.report.lost.len(), salvage.frames.len());
        assert!(
            requested < LIMIT,
            "v{version}: salvage requested {requested} bytes for a {}-byte stream",
            bytes.len()
        );
    }
}
