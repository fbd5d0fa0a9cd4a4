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
//! Usage (a `harness = false` bench):
//!
//! ```text
//! cargo bench -p synctime-bench --bench store_replay                # full run, JSON to stdout
//!   -- [--smoke] [--out PATH] [--validate PATH]
//! ```
//!
//! `--smoke` shrinks the workload to CI scale (and lifts the floors —
//! tiny runs are dominated by fixed fsync costs); `--out` writes the
//! JSON report to a file; `--validate` checks an existing report (e.g.
//! the checked-in `results/BENCH_store.json`) against the
//! `synctime/bench_store/v1` record schema, including both floors on
//! full reports, and fails the process if it does not conform.

use std::path::Path;
use std::time::Instant;

use serde_json::Value;
use synctime_graph::{decompose, topology};
use synctime_runtime::{Behavior, LogEntry, Runtime};

const SCHEMA: &str = "synctime/bench_store/v1";

/// Ring width for the ingest workload (must be even for the send/receive
/// phasing below).
const RING: usize = 8;

/// The ingest-overhead ceiling enforced on full reports from machines
/// with at least two hardware threads, where the store writer's CPU
/// overlaps the run and the wall ratio measures what durability costs
/// the protocol.
const INGEST_CEILING: f64 = 1.10;

/// The ceiling for full reports from a single hardware thread, where
/// every cycle the writer spends encoding and writing is a cycle taken
/// from the run: the wall ratio then bounds run + writer CPU combined,
/// and 10% is physically unreachable however cheap the seam is.
const SERIAL_INGEST_CEILING: f64 = 1.5;

/// The replay-throughput floor (records/s) enforced on full reports.
const REPLAY_FLOOR: f64 = 20_000.0;

/// Timed repetitions per ingest variant; the best (minimum) elapsed time
/// is reported, the standard way to strip scheduler noise from a ratio.
const INGEST_REPS: usize = 3;

// ---------------------------------------------------- tiny Value builders

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn string(x: &str) -> Value {
    Value::Str(x.to_string())
}

fn uint(x: u64) -> Value {
    Value::UInt(x)
}

fn float(x: f64) -> Value {
    Value::Float(x)
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(x) => Some(*x),
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        _ => None,
    }
}

// -------------------------------------------------------------- workload

/// One behavior of the ring workload: even processes send right then
/// receive from the left, odd processes the reverse, `rounds` times —
/// every process logs two entries per round and no pairing can deadlock.
fn ring_behavior(p: usize, n: usize, rounds: u64) -> Behavior {
    let right = (p + 1) % n;
    let left = (p + n - 1) % n;
    Box::new(move |ctx| {
        if p % 2 == 0 {
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

// --------------------------------------------------------------- records

struct Record {
    workload: &'static str,
    variant: &'static str,
    dim: usize,
    ops: usize,
    elapsed_ns: u128,
    detail: Vec<(&'static str, Value)>,
}

impl Record {
    fn ops_per_sec(&self) -> f64 {
        let secs = self.elapsed_ns as f64 / 1e9;
        if secs > 0.0 {
            self.ops as f64 / secs
        } else {
            0.0
        }
    }

    fn to_json(self) -> Value {
        let rate = self.ops_per_sec();
        obj(vec![
            ("workload", string(self.workload)),
            ("variant", string(self.variant)),
            ("dim", uint(self.dim as u64)),
            ("ops", uint(self.ops as u64)),
            ("elapsed_ns", uint(self.elapsed_ns as u64)),
            ("ops_per_sec", float(rate)),
            ("detail", obj(self.detail)),
        ])
    }
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> Value {
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

    let records = vec![
        Record {
            workload: "ingest",
            variant: "bare",
            dim: RING,
            ops: entries,
            elapsed_ns: bare_ns,
            detail: vec![("rounds", uint(rounds)), ("reps", uint(INGEST_REPS as u64))],
        },
        Record {
            workload: "ingest",
            variant: "persist",
            dim: RING,
            ops: entries,
            elapsed_ns: persist_ns,
            detail: vec![("rounds", uint(rounds)), ("reps", uint(INGEST_REPS as u64))],
        },
        Record {
            workload: "ingest",
            variant: "channel",
            dim: RING,
            ops: entries,
            elapsed_ns: channel_ns,
            detail: vec![("rounds", uint(rounds)), ("reps", uint(INGEST_REPS as u64))],
        },
        Record {
            workload: "ingest",
            variant: "seal",
            dim: RING,
            ops: entries,
            elapsed_ns: seal_ns,
            detail: vec![("rounds", uint(rounds)), ("reps", uint(INGEST_REPS as u64))],
        },
        Record {
            workload: "replay",
            variant: "recover",
            dim: RING,
            ops: entries * replay_iters,
            elapsed_ns: recover_ns,
            detail: vec![("iters", uint(replay_iters as u64))],
        },
        Record {
            workload: "replay",
            variant: "materialize",
            dim: RING,
            ops: entries * replay_iters,
            elapsed_ns: materialize_ns,
            detail: vec![("iters", uint(replay_iters as u64))],
        },
    ];

    let ingest_overhead = if bare_ns > 0 {
        persist_ns as f64 / bare_ns as f64
    } else {
        0.0
    };
    let replay_rate = if recover_ns > 0 {
        (entries * replay_iters) as f64 / (recover_ns as f64 / 1e9)
    } else {
        0.0
    };

    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    obj(vec![
        ("schema", string(SCHEMA)),
        ("mode", string(if smoke { "smoke" } else { "full" })),
        ("parallelism", uint(parallelism as u64)),
        (
            "records",
            Value::Array(records.into_iter().map(Record::to_json).collect()),
        ),
        (
            "derived",
            obj(vec![
                ("ingest_overhead", float(ingest_overhead)),
                ("replay_records_per_sec", float(replay_rate)),
                ("round_trip_identical", Value::Bool(round_trip_identical)),
            ]),
        ),
    ])
}

// ------------------------------------------------------------ validation

/// Checks a report against the v1 record schema, including both floors
/// on full reports. Returns every violation found (empty = conforming).
fn validate_report(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get_field("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("top-level \"schema\" must be \"{SCHEMA}\""));
    }
    let mode = doc.get_field("mode").and_then(Value::as_str);
    match mode {
        Some("full") | Some("smoke") => {}
        other => errs.push(format!(
            "\"mode\" must be \"full\" or \"smoke\", got {other:?}"
        )),
    }
    let Some(records) = doc.get_field("records").and_then(Value::as_array) else {
        errs.push("\"records\" must be an array".to_string());
        return errs;
    };
    if records.is_empty() {
        errs.push("\"records\" must not be empty".to_string());
    }
    for (i, r) in records.iter().enumerate() {
        for key in ["workload", "variant"] {
            if r.get_field(key).and_then(Value::as_str).is_none() {
                errs.push(format!("records[{i}].{key} must be a string"));
            }
        }
        for key in ["dim", "ops", "elapsed_ns"] {
            if r.get_field(key).and_then(as_u64).is_none() {
                errs.push(format!("records[{i}].{key} must be an unsigned integer"));
            }
        }
        match r.get_field("ops_per_sec").and_then(as_f64) {
            Some(value) if value > 0.0 => {}
            _ => errs.push(format!(
                "records[{i}].ops_per_sec must be a positive number"
            )),
        }
        match r.get_field("detail") {
            Some(Value::Object(_)) => {}
            _ => errs.push(format!("records[{i}].detail must be an object")),
        }
    }
    for workload in ["ingest", "replay"] {
        if !records
            .iter()
            .any(|r| r.get_field("workload").and_then(Value::as_str) == Some(workload))
        {
            errs.push(format!("records must cover the \"{workload}\" workload"));
        }
    }
    let Some(derived) = doc.get_field("derived") else {
        errs.push("\"derived\" must be an object".to_string());
        return errs;
    };
    match derived.get_field("round_trip_identical") {
        Some(Value::Bool(true)) => {}
        _ => errs.push("derived.round_trip_identical must be true".to_string()),
    }
    let full = mode == Some("full");
    let parallelism = match doc.get_field("parallelism").and_then(as_u64) {
        Some(p) if p > 0 => p,
        _ => {
            errs.push("\"parallelism\" must be a positive integer".to_string());
            1
        }
    };
    // The 10% claim is enforced wherever the writer's CPU can overlap
    // the run; a single hardware thread serialises the writer with the
    // run, so the wall ratio is gated at the serial ceiling there.
    let ceiling = if parallelism >= 2 {
        INGEST_CEILING
    } else {
        SERIAL_INGEST_CEILING
    };
    match derived.get_field("ingest_overhead").and_then(as_f64) {
        Some(x) if x > 0.0 => {
            // Full reports carry the durability-is-cheap claim; smoke
            // runs are dominated by fixed fsync costs over tiny work.
            if full && x > ceiling {
                errs.push(format!(
                    "derived.ingest_overhead must be <= {ceiling} in a full report \
                     at parallelism {parallelism}, got {x:.3}"
                ));
            }
        }
        _ => errs.push("derived.ingest_overhead must be positive".to_string()),
    }
    match derived.get_field("replay_records_per_sec").and_then(as_f64) {
        Some(x) if x > 0.0 => {
            if full && x < REPLAY_FLOOR {
                errs.push(format!(
                    "derived.replay_records_per_sec must be >= {REPLAY_FLOOR} in a full report, got {x:.0}"
                ));
            }
        }
        _ => errs.push("derived.replay_records_per_sec must be positive".to_string()),
    }
    errs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut validate: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().expect("--out expects a path").clone()),
            "--validate" => {
                validate = Some(it.next().expect("--validate expects a path").clone());
            }
            // Tolerate cargo-bench plumbing (--bench, filter strings, ...).
            _ => {}
        }
    }

    let report = run_suite(smoke);
    let failures_own = validate_report(&report);
    let mut failures: Vec<String> = Vec::new();
    failures.extend(failures_own);

    let rendered = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("report serialises")
    );
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("store_replay: report written to {path}");
        }
        None => print!("{rendered}"),
    }

    if let Some(path) = &validate {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let doc: Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
        let errs = validate_report(&doc);
        if errs.is_empty() {
            eprintln!("store_replay: {path} conforms to {SCHEMA}");
        } else {
            failures.extend(errs.into_iter().map(|e| format!("{path}: {e}")));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("store_replay: SCHEMA VIOLATION: {f}");
        }
        std::process::exit(1);
    }
}
