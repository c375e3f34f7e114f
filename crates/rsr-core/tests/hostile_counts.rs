//! A 32-bit element count read from a peer's frame must not size an
//! allocation before any element decodes. On a served Gap session the
//! server is Bob and decodes rounds 2 and 4 with `get_round2` and
//! `get_points`; the client decodes round 3 with `get_round3`. Each
//! payload below declares 2³² − 1 elements and carries none, so a decoder
//! that preallocated from the count would reserve megabytes for a frame
//! of a few bytes. The sets-of-sets decoders read their words as runs,
//! and a run is sized only after the frame is known to hold it.
//!
//! Admitting an Algorithm 1 frame is bounded the same way: it checks
//! every level and keeps the bits, but expands no level into a table.
//!
//! Its own test binary: the counting allocator is process-global.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rsr_core::emd_protocol::{EmdMessage, EmdProtocol, EmdProtocolConfig};
use rsr_core::wire::get_points;
use rsr_iblt::bits::BitReader;
use rsr_metric::{GridUniverse, MetricSpace, Point};
use rsr_setsofsets::wire::{get_round2, get_round3};
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

    // Round 3: one child, an 8-bit entry width, the child's fingerprint,
    // a length of 2³² − 1 entries, and no entry.
    let mut round3 = vec![0, 0, 0, 1, 8];
    round3.extend_from_slice(&[0x5A; 8]);
    round3.extend_from_slice(&[0xFF; 4]);
    let (children, bytes) = requested_by(|| get_round3(&mut BitReader::new(&round3)));
    assert!(children.is_none());
    assert!(
        bytes < BUDGET,
        "get_round3 on a long child requested {bytes} B"
    );

    // Round 2: a count of 2³² − 1 fingerprints and no fingerprint.
    let round2 = [0xFF; 4];
    let (requested, bytes) = requested_by(|| get_round2(&mut BitReader::new(&round2)));
    assert!(requested.is_none());
    assert!(bytes < BUDGET, "get_round2 requested {bytes} B");
}

#[test]
fn admitting_an_emd_frame_allocates_less_than_twice_its_payload() {
    // The `local_emd` shape: Hamming d = 32, n = 32, k = 4, 11 levels.
    let space = MetricSpace::hamming(32);
    let mut rng = StdRng::seed_from_u64(32);
    let points: Vec<Point> = (0..32)
        .map(|_| Point::from_bits(&(0..32).map(|_| rng.gen()).collect::<Vec<bool>>()))
        .collect();
    let cfg = EmdProtocolConfig::for_space(&space, 32, 4);
    let proto = EmdProtocol::new(space, cfg, 4);
    let frame = proto.alice_encode(&points).to_frame();
    assert_eq!(cfg.num_levels(), 11);
    assert_eq!(frame.payload.len(), 79_798);

    let (msg, bytes) = requested_by(|| frame.decode_exact(|r| EmdMessage::read_wire(r, &proto)));
    assert!(msg.is_some(), "a valid frame is admitted");
    assert!(
        bytes < 2 * frame.payload.len(),
        "admitting {} B requested {bytes} B",
        frame.payload.len()
    );
}
