//! Proof of the allocation-free rendezvous path: a counting global
//! allocator wraps the system allocator, and over 1000 steady-state rounds
//! of a client–server RPC replay (`d = 2`, no sink, no observer) the
//! rendezvous loop allocates only the stamps it logs — one per endpoint,
//! two per message.
//!
//! Everything else on the path runs in buffers that warm up once: the
//! delta codecs encode, decode and merge in place, frames move through
//! buffers the channel slot owns, and `send`/`receive_from` return the
//! logged stamp by reference.
//!
//! Fresh allocations and reallocations are counted apart. The only
//! reallocation left is the growth of each process's log, which doubles
//! its capacity and so happens a handful of times per process, however
//! long the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime::prelude::*;
use synctime::runtime::RuntimeError;
use synctime_graph::decompose;

/// Counts allocations made on threads whose recording flag is set —
/// thread-local, so the harness and the runtime's own bookkeeping threads
/// cannot pollute the count. Deallocations are free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

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
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SERVERS: usize = 2;
const CLIENTS: usize = 6;
/// Rounds before counting starts: every channel has carried its opening
/// full frame and every buffer has grown to its steady-state size.
const WARMUP: usize = 100;
/// Rounds counted.
const MEASURED: usize = 1000;
/// Rounds after counting stops, so no process runs out of peers while
/// the counted ones finish.
const COOLDOWN: usize = 20;

/// One process's script, each operation tagged with its RPC round.
type Script = Vec<(Op, usize)>;

/// The per-process scripts of a seeded `client_server_rpc` replay. Round
/// `r` is messages `2r` (client → server) and `2r + 1` (the reply), with
/// the server's internal step between them.
fn scripts(comp: &SyncComputation) -> Vec<Script> {
    let mut scripts = vec![Vec::new(); comp.process_count()];
    for (p, script) in scripts.iter_mut().enumerate() {
        let mut round = 0;
        for ev in comp.history(p) {
            let op = match *ev {
                EventKind::Send(m) => {
                    round = m.0 / 2;
                    Op::SendTo(comp.message(m).receiver)
                }
                EventKind::Receive(m) => {
                    round = m.0 / 2;
                    Op::ReceiveFrom(comp.message(m).sender)
                }
                EventKind::Internal => Op::Internal,
            };
            script.push((op, round));
        }
    }
    scripts
}

fn behavior(script: Script) -> Behavior {
    Box::new(move |ctx| {
        let counted = WARMUP..WARMUP + MEASURED;
        for (op, round) in script {
            RECORDING.with(|r| r.set(counted.contains(&round)));
            let done: Result<(), RuntimeError> = match op {
                Op::SendTo(q) => ctx.send(q, round as u64).map(|_| ()),
                Op::ReceiveFrom(q) => ctx.receive_from(q).map(|_| ()),
                Op::Internal => {
                    ctx.internal();
                    Ok(())
                }
                Op::ReceiveAny => unreachable!("replayed scripts name their peer"),
            };
            RECORDING.with(|r| r.set(false));
            done?;
        }
        Ok(())
    })
}

#[test]
fn steady_state_rendezvous_allocates_only_the_logged_stamps() {
    let mut rng = StdRng::seed_from_u64(16);
    let rounds = WARMUP + MEASURED + COOLDOWN;
    let scenario = scenarios::client_server_rpc(SERVERS, CLIENTS, rounds, &mut rng);
    let comp = &scenario.computation;
    // Message ids follow the script's rounds: request, then reply.
    for m in comp.messages() {
        let request = m.id.0 % 2 == 0;
        assert_eq!(
            m.sender >= SERVERS,
            request,
            "message {} out of order",
            m.id
        );
    }
    let dec = decompose::best_known(&scenario.topology);
    assert_eq!(dec.len(), 2, "one star per server");

    let rt = Runtime::new(&scenario.topology, &dec);
    let behaviors = scripts(comp).into_iter().map(behavior).collect();
    let run = rt.run(behaviors).expect("clean replay");
    let (replayed, stamps) = run.reconstruct().expect("replay reconstructs");
    assert!(stamps.encodes(&Oracle::new(&replayed)));

    let messages = 2 * MEASURED as u64;
    let allocs = ALLOCS.load(Ordering::SeqCst);
    let reallocs = REALLOCS.load(Ordering::SeqCst);
    println!(
        "{messages} messages: {allocs} allocations ({:.3}/msg), {reallocs} reallocations",
        allocs as f64 / messages as f64
    );
    // One stamp per endpoint per message, and nothing else.
    assert!(
        allocs <= 2 * messages,
        "{allocs} allocations over {messages} messages: more than the two logged stamps each"
    );
    // Log growth only: every process's log at most doubles a handful of
    // times across the counted rounds.
    let processes = (SERVERS + CLIENTS) as u64;
    assert!(
        reallocs <= 8 * processes,
        "{reallocs} reallocations: something grows per message"
    );
}
