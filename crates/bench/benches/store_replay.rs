//! Experiment R11: durable ingestion and replay throughput.
//!
//! The `synctime-store` crate claims two things worth numbers: streaming
//! every stamp to an append-only log costs almost nothing on top of the
//! run itself (the writer thread drains a channel off the critical path),
//! and recovery replays the persisted records fast enough that restarting
//! a serving node is bounded by I/O, not by parsing. This bench measures
//! both over the same workload:
//!
//! * `ingest` — a rendezvous-heavy ring run, once bare and once with a
//!   store writer attached via the runtime's log sink. The timed window
//!   for the `persist` variant is the *run itself* (every rendezvous,
//!   with the writer draining concurrently): the derived
//!   `ingest_overhead` ratio must stay <= 1.10 on full reports from any
//!   machine with a second hardware thread, because durability may not
//!   tax the protocol. On a single hardware thread the writer's own
//!   encode/write CPU cannot overlap the run — total CPU is conserved —
//!   so the wall ratio necessarily absorbs it; such reports (the
//!   `parallelism` field records the host's thread count) are gated at
//!   the looser serial ceiling instead, still a real regression bound.
//!   The `channel` variant (a sink that receives and discards) isolates
//!   what the run itself pays to emit events — the part of the tax that
//!   survives on any machine. The drain-and-seal that follows the last
//!   rendezvous (remaining queue + fsync) is the price of *finishing* a
//!   durable trace, not of running one — it is reported separately as
//!   the `seal` variant.
//! * `replay` — recover the persisted trace directory back into
//!   per-process logs (`read_trace_dir`: scan, CRC-check, dedup, trim)
//!   and reconstruct the stamps (`materialize`). The derived
//!   `replay_records_per_sec` (recovery only, the restart-critical path)
//!   must sustain >= 20,000 records/s on full reports.
//!
//! The recovered logs are asserted equal to the run's own logs before the
//! report is emitted (`derived.round_trip_identical`).
//!
//! Usage (a `harness = false` bench; the report schema and its floors are
//! `synctime_bench::report::STORE_REPLAY`):
//!
//! ```text
//! cargo bench -p synctime-bench --bench store_replay                # full run, JSON to stdout
//!   -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workload to CI scale (the floors bind full
//! reports only — tiny runs are dominated by fixed fsync costs); `--out`
//! writes the JSON report to a file. The run fails if its report does not
//! conform.

use std::path::Path;
use std::time::Instant;

use serde_json::Value;
use synctime_bench::report::{self, obj, ratio, Record, STORE_REPLAY};
use synctime_graph::{decompose, topology};
use synctime_runtime::{Behavior, LogEntry, Runtime};

/// Ring width for the ingest workload (must be even for the send/receive
/// phasing below).
const RING: usize = 8;

/// Timed repetitions per ingest variant; the best (minimum) elapsed time
/// is reported, the standard way to strip scheduler noise from a ratio.
const INGEST_REPS: usize = 3;

// -------------------------------------------------------------- workload

/// One behavior of the ring workload: even processes send right then
/// receive from the left, odd processes the reverse, `rounds` times —
/// every process logs two entries per round and no pairing can deadlock.
fn ring_behavior(p: usize, n: usize, rounds: u64) -> Behavior {
    let right = (p + 1) % n;
    let left = (p + n - 1) % n;
    Box::new(move |ctx| {
        if p.is_multiple_of(2) {
            for r in 0..rounds {
                ctx.send(right, r)?;
                ctx.receive_from(left)?;
            }
        } else {
            for _ in 0..rounds {
                let (x, _) = ctx.receive_from(left)?;
                ctx.send(right, x)?;
            }
        }
        Ok(())
    })
}

/// Runs the ring workload once. Returns `(run_ns, seal_ns, logs)`:
/// `run_ns` times the run itself — every rendezvous, with the store
/// writer (if any) draining concurrently — which is the window the
/// overhead claim is about; `seal_ns` times the drain-and-seal after the
/// last rendezvous (remaining queue, fsync), the one-off cost of
/// finishing a durable trace (zero when not persisting).
/// What drains the runtime's log sink during an ingest measurement.
enum Sink<'a> {
    /// No sink at all: the baseline run.
    Bare,
    /// A thread that receives and drops every event: isolates the
    /// channel tax (clone + send + wakeups) from the store writer.
    Channel,
    /// The real `synctime-store` writer persisting to `(root, trace)`.
    Store(&'a Path, &'a str),
}

fn run_ring(rounds: u64, sink: Sink) -> (u128, u128, Vec<Vec<LogEntry>>) {
    let topo = topology::cycle(RING);
    let dec = decompose::best_known(&topo);
    let mut rt = Runtime::new(&topo, &dec);
    let mut writer = None;
    let mut drainer = None;
    match sink {
        Sink::Bare => {}
        Sink::Channel => {
            let (tx, rx) = std::sync::mpsc::channel::<Vec<synctime_store::PersistEvent>>();
            drainer = Some(std::thread::spawn(move || while rx.recv().is_ok() {}));
            rt = rt.with_log_sink(tx);
        }
        Sink::Store(root, trace) => {
            let (tx, w) =
                synctime_store::spawn_writer(root, trace, RING).expect("open bench store");
            rt = rt.with_log_sink(tx);
            writer = Some(w);
        }
    }
    let behaviors: Vec<Behavior> = (0..RING).map(|p| ring_behavior(p, RING, rounds)).collect();
    let started = Instant::now();
    let run = rt.run(behaviors).expect("ring run");
    let run_ns = started.elapsed().as_nanos();
    let started = Instant::now();
    drop(rt); // release the sink so the writer drains and exits
    if let Some(w) = writer {
        w.finish().expect("seal bench store");
    }
    if let Some(d) = drainer {
        d.join().expect("drainer joins");
    }
    let seal_ns = started.elapsed().as_nanos();
    (run_ns, seal_ns, run.logs().to_vec())
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> (Vec<Record>, Value) {
    let (rounds, replay_iters) = if smoke { (64u64, 3usize) } else { (12_000, 10) };
    let entries = RING * 2 * rounds as usize;
    let root = std::env::temp_dir().join(format!("synctime-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create bench store root");

    // Ingest: bare vs persisted, best of INGEST_REPS, alternating so both
    // variants see the same machine conditions.
    eprintln!("store_replay: ingest, ring of {RING}, {rounds} rounds x{INGEST_REPS}");
    let mut bare_ns = u128::MAX;
    let mut channel_ns = u128::MAX;
    let mut persist_ns = u128::MAX;
    let mut seal_ns = u128::MAX;
    let mut truth: Vec<Vec<LogEntry>> = Vec::new();
    for rep in 0..INGEST_REPS {
        let (ns, _, _) = run_ring(rounds, Sink::Bare);
        bare_ns = bare_ns.min(ns);
        let (ns, _, _) = run_ring(rounds, Sink::Channel);
        channel_ns = channel_ns.min(ns);
        let trace = format!("ring-{rep}");
        let (ns, seal, logs) = run_ring(rounds, Sink::Store(&root, &trace));
        persist_ns = persist_ns.min(ns);
        seal_ns = seal_ns.min(seal);
        truth = logs;
    }
    let last_trace = root.join(format!("ring-{}", INGEST_REPS - 1));

    // Replay: recover the last persisted trace repeatedly — the restart
    // path a serving node pays — then reconstruct stamps from it.
    eprintln!("store_replay: replay, {entries} records x{replay_iters}");
    let mut recovered = synctime_store::read_trace_dir(&last_trace).expect("recover bench trace");
    let started = Instant::now();
    for _ in 0..replay_iters {
        recovered = synctime_store::read_trace_dir(&last_trace).expect("recover bench trace");
    }
    let recover_ns = started.elapsed().as_nanos();
    let started = Instant::now();
    for _ in 0..replay_iters {
        synctime_store::materialize(&recovered.logs).expect("reconstruct bench trace");
    }
    let materialize_ns = started.elapsed().as_nanos();

    let round_trip_identical = recovered.logs == truth && recovered.dropped_records == 0;
    if !round_trip_identical {
        eprintln!(
            "store_replay: DIVERGENCE: recovered logs differ from the run \
             ({} records, {} dropped)",
            recovered.records, recovered.dropped_records
        );
    }
    let _ = std::fs::remove_dir_all(&root);

    let ingest = |variant, elapsed_ns| Record {
        workload: "ingest",
        variant,
        size: RING,
        ops: entries as u64,
        elapsed_ns,
        detail: obj(vec![
            ("rounds", Value::UInt(rounds)),
            ("reps", Value::UInt(INGEST_REPS as u64)),
        ]),
    };
    let replay = |variant, elapsed_ns| Record {
        workload: "replay",
        variant,
        size: RING,
        ops: (entries * replay_iters) as u64,
        elapsed_ns,
        detail: obj(vec![("iters", Value::UInt(replay_iters as u64))]),
    };
    let records = vec![
        ingest("bare", bare_ns),
        ingest("persist", persist_ns),
        ingest("channel", channel_ns),
        ingest("seal", seal_ns),
        replay("recover", recover_ns),
        replay("materialize", materialize_ns),
    ];
    let derived = obj(vec![
        (
            "ingest_overhead",
            Value::Float(ratio(persist_ns as f64, bare_ns as f64)),
        ),
        (
            "replay_records_per_sec",
            Value::Float(ratio(
                (entries * replay_iters) as f64,
                recover_ns as f64 / 1e9,
            )),
        ),
        ("round_trip_identical", Value::Bool(round_trip_identical)),
    ]);
    (records, derived)
}

fn main() {
    report::main(&STORE_REPLAY, run_suite);
}
