//! Proof of the "allocation-free serving hot path" claim: a counting
//! global allocator wraps the system allocator, and after one warm-up
//! pump the steady-state QUERY3 answer loop — feed bytes, decode the
//! borrowed view, resolve the trace, answer into the scratch arena,
//! frame the ANSWER3 reply — performs **zero** heap allocations per
//! query.
//!
//! The test drives [`pump_frames`] directly rather than through a socket
//! so the count covers exactly the serving path (kernel socket buffers
//! are not heap allocations, but reading through a stream would blur
//! what is being asserted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use synctime_core::{MessageTimestamps, VectorTime};
use synctime_net::query::{QUERY_CHAIN_OF, QUERY_CONCURRENT, QUERY_PRECEDES};
use synctime_net::{
    encode_query_batch_into, pump_frames, BatchQuery, FrameReader, FrameScratch, QueryFabric,
};

/// Counts every allocation (alloc, alloc_zeroed, realloc) made on the
/// recording thread while its flag is set — thread-local so the test
/// harness's own threads (progress printing, panic plumbing) cannot
/// pollute the count. Deallocations are free: returning warm capacity
/// is the whole point of the scratch design.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init: reading the flag from inside the allocator must not
    // itself allocate (lazy TLS init would recurse).
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

fn recording() -> bool {
    // try_with: TLS may already be torn down when late deallocations on
    // exiting threads reach the allocator.
    RECORDING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if recording() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if recording() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if recording() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A 16-message two-process trace with mixed precedence.
fn stamps() -> MessageTimestamps {
    MessageTimestamps::new(
        (0..16u64)
            .map(|i| VectorTime::from(vec![i / 2 + 1, i - i / 2]))
            .collect(),
    )
}

/// Publishes `stamps`, pumps one warm-up QUERY3 batch of `queries`, then
/// 64 more of the same batch while counting allocations: the count must
/// be zero and every answer byte-identical to the warm-up's.
fn assert_steady_state_pump_allocates_nothing(stamps: MessageTimestamps, queries: &[BatchQuery]) {
    let fabric = QueryFabric::new(2);
    fabric.publish("t", stamps);
    let mut wire = Vec::new();
    encode_query_batch_into(&mut wire, Some(42), "t", queries).expect("in-bounds batch");

    let mut reader = FrameReader::new();
    let mut scratch = FrameScratch::new();

    // Warm-up: one pump grows every buffer to its steady-state capacity.
    reader.feed(&wire);
    scratch.out.clear();
    assert!(pump_frames(&mut reader, &fabric, &mut scratch).expect("warm-up pump"));
    assert!(!scratch.out.is_empty(), "warm-up produced no answer");
    let expected = scratch.out.clone();

    // Steady state: many more pumps of the same batch, counted.
    ALLOCS.store(0, Ordering::SeqCst);
    RECORDING.with(|flag| flag.set(true));
    for _ in 0..64 {
        reader.feed(&wire);
        scratch.out.clear();
        assert!(pump_frames(&mut reader, &fabric, &mut scratch).expect("steady-state pump"));
    }
    RECORDING.with(|flag| flag.set(false));
    let allocs = ALLOCS.load(Ordering::SeqCst);

    assert_eq!(
        allocs,
        0,
        "steady-state serving path allocated {allocs} times over 64 pumps \
         ({} queries) — the hot path must be allocation-free",
        64 * queries.len()
    );
    // And the warm path still answers correctly: byte-identical to the
    // warm-up answer.
    assert_eq!(scratch.out, expected);
}

#[test]
fn steady_state_pump_allocates_nothing() {
    // A full QUERY3 batch mixing all three query kinds (chain-of answers
    // are the largest bodies, so the arena warms to its worst case).
    let queries: Vec<BatchQuery> = (0..256u32)
        .map(|i| BatchQuery {
            kind: match i % 3 {
                0 => QUERY_PRECEDES,
                1 => QUERY_CONCURRENT,
                _ => QUERY_CHAIN_OF,
            },
            m1: i % 16,
            m2: (i / 3) % 16,
        })
        .collect();
    assert_steady_state_pump_allocates_nothing(stamps(), &queries);
}

/// At the fetch floor (16 MiB of stamp lanes; here 65536 messages at
/// d = 32) the pump first loads every in-range row a batch names, and
/// that pass allocates nothing either.
#[test]
fn steady_state_pump_past_the_fetch_floor_allocates_nothing() {
    const MESSAGES: u32 = 65_536;
    const DIM: usize = 32;
    let rows = (0..MESSAGES as u64)
        .flat_map(|m| (0..DIM as u64).map(move |lane| (m * 7 + lane * 13) % 64 + m / 8))
        .collect();
    let table = MessageTimestamps::from_rows(DIM, MESSAGES as usize, rows);
    // Precedes/concurrent pairs spread over the table, and one chain-of.
    let queries: Vec<BatchQuery> = (0..256u32)
        .map(|i| BatchQuery {
            kind: match i {
                255 => QUERY_CHAIN_OF,
                k if k % 2 == 0 => QUERY_PRECEDES,
                _ => QUERY_CONCURRENT,
            },
            m1: i.wrapping_mul(2_654_435_761) % MESSAGES,
            m2: i.wrapping_mul(40_503) % MESSAGES,
        })
        .collect();
    assert_steady_state_pump_allocates_nothing(table, &queries);
}
