//! A 32-bit element count read from a peer's frame must not size an
//! allocation before any element decodes. On a served Gap session the
//! server is Bob and decodes round 4 with `get_points`; the client decodes
//! round 3 with `get_round3`. Each payload below declares 2³² − 1
//! elements and carries none, so a decoder that preallocated from the
//! count would reserve megabytes for a frame of a few bytes.
//!
//! Its own test binary: the counting allocator is process-global.

use rsr_core::wire::get_points;
use rsr_iblt::bits::BitReader;
use rsr_metric::GridUniverse;
use rsr_setsofsets::wire::get_round3;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread asks for while counting is on.
struct Counting;

thread_local! {
    /// Bytes requested so far on this thread, or `None` when not counting.
    static REQUESTED: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call goes to `System` with the caller's own arguments, so
// `System`'s guarantees are this allocator's. The counter is a `const`
// thread-local `Cell` with no destructor: touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = REQUESTED.try_with(|n| n.set(n.get().map(|n| n + layout.size())));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its result and the bytes it requested.
fn requested_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    REQUESTED.with(|n| n.set(Some(0)));
    let out = f();
    let bytes = REQUESTED
        .with(|n| n.replace(None))
        .expect("counting was on");
    (out, bytes)
}

/// Far more than either decoder needs to reject the payload, far less
/// than the 24–32 MiB a count-sized reservation takes.
const BUDGET: usize = 64 << 10;

#[test]
fn declared_counts_allocate_nothing_before_elements_decode() {
    let universe = GridUniverse::binary(64);
    // Round 4: a count of 2³² − 1 points and no point.
    let round4 = [0xFF; 4];
    let (points, bytes) = requested_by(|| get_points(&mut BitReader::new(&round4), &universe));
    assert_eq!(points, None);
    assert!(bytes < BUDGET, "get_points requested {bytes} B");

    // Round 3: a count of 2³² − 1 children, an 8-bit entry width, and no
    // child.
    let round3 = [0xFF, 0xFF, 0xFF, 0xFF, 8];
    let (children, bytes) = requested_by(|| get_round3(&mut BitReader::new(&round3)));
    assert!(children.is_none());
    assert!(bytes < BUDGET, "get_round3 requested {bytes} B");
}
