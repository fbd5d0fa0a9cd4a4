//! Experiment R5: scaling the offline timestamping pipeline.
//!
//! The dense offline engine (Figure 9 as PR 1 shipped it) materialises the
//! full `M x M` reachability closure and a minimum chain cover before it
//! can stamp anything — `O(M^2)` memory and far worse time, which caps it
//! at a few thousand messages. The sparse engine replaces the closure with
//! per-sender chains plus a chain-merge reachability table (`O(M·k)` for
//! `k` sending processes) and a heap-based deferring realizer, and its
//! realizer/stamping stages fan out over the `synctime-par` work-stealing
//! pool with a deterministic merge (parallel output is bit-identical to
//! sequential).
//!
//! This bench stamps one deterministic workload family at growing message
//! counts under three variants:
//!
//! * `dense`      — `offline::stamp_computation`, small sizes only (its
//!   memory/time wall is the point; the report records the wall).
//! * `sparse_seq` — `offline::stamp_computation_sparse`.
//! * `sparse_par` — `offline::stamp_computation_sparse_parallel` on the
//!   default pool, asserted bit-identical to `sparse_seq`.
//!
//! Memory is reported as an analytical proxy per variant: the dense
//! closure keeps two `M x M` bitsets (`2 · M · ⌈M/64⌉ · 8` bytes), the
//! sparse engine reports `SparsePoset::approx_bytes()`. Both are exact
//! formulas over the structures actually allocated, so the numbers are
//! deterministic across runs (a sampled RSS would not be).
//!
//! Usage (a `harness = false` bench):
//!
//! ```text
//! cargo bench -p synctime-bench --bench offline_pipeline            # full run, JSON to stdout
//!   -- [--smoke] [--out PATH] [--validate PATH]
//! ```
//!
//! `--smoke` shrinks the sizes to CI scale; `--out` writes the JSON report
//! to a file; `--validate` checks an existing report (e.g. the checked-in
//! `results/BENCH_offline_pipeline.json`) against the
//! `synctime/bench_offline_pipeline/v1` record schema and fails the
//! process if it does not conform.

use std::time::Instant;

use serde_json::Value;
use synctime_core::offline;
use synctime_core::MessageTimestamps;
use synctime_par::ThreadPool;
use synctime_trace::{Builder, MessageId, SyncComputation};

const SCHEMA: &str = "synctime/bench_offline_pipeline/v1";

/// Processes in every workload instance (8 sender/receiver pairs).
const PROCESSES: usize = 16;

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

/// A deterministic synchronous computation over [`PROCESSES`] processes:
/// traffic mostly stays inside disjoint pairs `(2k, 2k+1)` — producing many
/// long parallel chains, the regime the paper's offline algorithm targets —
/// with every 17th message crossing to the next pair so the poset has
/// genuine inter-chain order, not just disjoint lines. No RNG: size is the
/// only parameter, so every run stamps the identical poset.
fn build_workload(messages: usize) -> SyncComputation {
    let pairs = PROCESSES / 2;
    let mut b = Builder::new(PROCESSES);
    for i in 0..messages {
        let p = i % pairs;
        if i % 17 == 16 {
            // Cross-link: this pair's even process to the next pair's odd.
            b.message(2 * p, 2 * ((p + 1) % pairs) + 1)
                .expect("cross message is valid");
        } else {
            // In-pair message, direction alternating every sweep.
            let (s, r) = if (i / pairs) % 2 == 0 {
                (2 * p, 2 * p + 1)
            } else {
                (2 * p + 1, 2 * p)
            };
            b.message(s, r).expect("pair message is valid");
        }
    }
    b.build()
}

/// The dense engine's closure footprint: forward and backward `M x M`
/// bitsets, `⌈M/64⌉` words per row.
fn dense_closure_bytes(messages: usize) -> u64 {
    2 * messages as u64 * messages.div_ceil(64) as u64 * 8
}

// --------------------------------------------------------------- records

struct Record {
    variant: &'static str,
    messages: usize,
    elapsed_ns: u128,
    dim: usize,
    mem_proxy_bytes: u64,
}

impl Record {
    fn msgs_per_sec(&self) -> f64 {
        let secs = self.elapsed_ns as f64 / 1e9;
        if secs > 0.0 {
            self.messages as f64 / secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Value {
        obj(vec![
            ("workload", string("offline_stamp")),
            ("variant", string(self.variant)),
            ("processes", uint(PROCESSES as u64)),
            ("ops", uint(self.messages as u64)),
            ("elapsed_ns", uint(self.elapsed_ns as u64)),
            ("ops_per_sec", float(self.msgs_per_sec())),
            (
                "detail",
                obj(vec![
                    ("dim", uint(self.dim as u64)),
                    ("mem_proxy_bytes", uint(self.mem_proxy_bytes)),
                ]),
            ),
        ])
    }
}

fn bench_engine(
    variant: &'static str,
    messages: usize,
    stamp: impl Fn(&SyncComputation) -> MessageTimestamps,
) -> (Record, MessageTimestamps) {
    let comp = build_workload(messages);
    let started = Instant::now();
    let stamps = stamp(&comp);
    let elapsed_ns = started.elapsed().as_nanos();
    let mem_proxy_bytes = match variant {
        "dense" => dense_closure_bytes(messages),
        _ => synctime_trace::stream::sparse_message_poset(&comp).approx_bytes() as u64,
    };
    (
        Record {
            variant,
            messages,
            elapsed_ns,
            dim: stamps.dim(),
            mem_proxy_bytes,
        },
        stamps,
    )
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> Value {
    let (dense_sizes, sparse_sizes): (Vec<usize>, Vec<usize>) = if smoke {
        (vec![200], vec![500, 2000])
    } else {
        (vec![1_000, 10_000], vec![10_000, 100_000, 1_000_000])
    };
    let pool = ThreadPool::with_default_parallelism();
    let mut records = Vec::new();

    for &m in &dense_sizes {
        eprintln!("offline_pipeline: dense stamp, M = {m}");
        let (rec, _) = bench_engine("dense", m, offline::stamp_computation);
        records.push(rec);
    }
    let mut bit_identical = true;
    for &m in &sparse_sizes {
        eprintln!("offline_pipeline: sparse stamp (seq + par), M = {m}");
        let (seq_rec, seq) = bench_engine("sparse_seq", m, offline::stamp_computation_sparse);
        let (par_rec, par) = bench_engine("sparse_par", m, |c| {
            offline::stamp_computation_sparse_parallel(c, &pool)
        });
        // Determinism gate: the parallel engine must reproduce the
        // sequential stamps byte for byte at every size.
        assert_eq!(seq.len(), par.len());
        for i in 0..seq.len() {
            if seq.row(MessageId(i)) != par.row(MessageId(i)) {
                bit_identical = false;
                eprintln!("offline_pipeline: DIVERGENCE at M = {m}, message {i}");
            }
        }
        records.push(seq_rec);
        records.push(par_rec);
    }
    assert!(bit_identical, "parallel stamps diverged from sequential");

    // Cross-engine sanity at a size the dense engine can handle: both
    // engines encode the same order on the same workload.
    {
        let m = if smoke { 200 } else { 1_000 };
        let comp = build_workload(m);
        let dense = offline::stamp_computation(&comp);
        let sparse = offline::stamp_computation_sparse(&comp);
        for a in (0..m).step_by(7) {
            for b in (0..m).step_by(13) {
                if a != b {
                    assert_eq!(
                        dense.precedes(MessageId(a), MessageId(b)),
                        sparse.precedes(MessageId(a), MessageId(b)),
                        "engines disagree on ({a}, {b})"
                    );
                }
            }
        }
    }

    let rate_at = |variant: &str, messages: usize| -> f64 {
        records
            .iter()
            .find(|r| r.variant == variant && r.messages == messages)
            .map(Record::msgs_per_sec)
            .unwrap_or(0.0)
    };
    // The dense engine cannot reach the sparse sizes at all (its closure at
    // M = 100k would be ~2.5 GB and the chain-cover matching far worse), so
    // the headline compares the sparse rate at the target size against the
    // *best* rate dense achieves anywhere — the comparison most favourable
    // to dense, making the reported speedup a conservative lower bound.
    let best_dense = records
        .iter()
        .filter(|r| r.variant == "dense")
        .map(Record::msgs_per_sec)
        .fold(0.0f64, f64::max);
    let target = *sparse_sizes.get(1).unwrap_or(&sparse_sizes[0]);
    let headline = if best_dense > 0.0 {
        rate_at("sparse_seq", target) / best_dense
    } else {
        0.0
    };
    let headline_par = if best_dense > 0.0 {
        rate_at("sparse_par", target) / best_dense
    } else {
        0.0
    };

    obj(vec![
        ("schema", string(SCHEMA)),
        ("mode", string(if smoke { "smoke" } else { "full" })),
        (
            "records",
            Value::Array(records.iter().map(Record::to_json).collect()),
        ),
        (
            "derived",
            obj(vec![
                ("target_messages", uint(target as u64)),
                ("best_dense_msgs_per_sec", float(best_dense)),
                ("sparse_seq_speedup_vs_best_dense", float(headline)),
                ("sparse_par_speedup_vs_best_dense", float(headline_par)),
                ("parallel_bit_identical", Value::Bool(bit_identical)),
            ]),
        ),
    ])
}

// ------------------------------------------------------------ validation

/// Checks a report against the v1 record schema. Returns every violation
/// found (empty = conforming).
fn validate_report(doc: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get_field("schema").and_then(Value::as_str) != Some(SCHEMA) {
        errs.push(format!("top-level \"schema\" must be \"{SCHEMA}\""));
    }
    match doc.get_field("mode").and_then(Value::as_str) {
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
        for key in ["processes", "ops", "elapsed_ns"] {
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
        if r.get_field("detail")
            .and_then(|d| d.get_field("mem_proxy_bytes"))
            .and_then(as_u64)
            .is_none()
        {
            errs.push(format!(
                "records[{i}].detail.mem_proxy_bytes must be an unsigned integer"
            ));
        }
    }
    let Some(derived) = doc.get_field("derived") else {
        errs.push("\"derived\" must be an object".to_string());
        return errs;
    };
    match derived.get_field("parallel_bit_identical") {
        Some(Value::Bool(true)) => {}
        _ => errs.push("derived.parallel_bit_identical must be true".to_string()),
    }
    match derived
        .get_field("sparse_seq_speedup_vs_best_dense")
        .and_then(as_f64)
    {
        Some(s) if s > 0.0 => {
            // Full reports carry the headline claim; smoke runs are sized
            // for CI latency, not for the ratio.
            if doc.get_field("mode").and_then(Value::as_str) == Some("full") && s < 10.0 {
                errs.push(format!(
                    "derived.sparse_seq_speedup_vs_best_dense must be >= 10 in a full report, got {s:.2}"
                ));
            }
        }
        _ => errs.push("derived.sparse_seq_speedup_vs_best_dense must be positive".to_string()),
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
    let mut failures = validate_report(&report);
    if smoke {
        // Smoke runs exist to prove the pipeline works, not to re-measure;
        // drop the ratio violations a tiny instance cannot honour.
        failures.retain(|f| !f.contains("speedup"));
    }
    let rendered = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("report serialises")
    );
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("offline_pipeline: report written to {path}");
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
            eprintln!("offline_pipeline: {path} conforms to {SCHEMA}");
        } else {
            failures.extend(errs.into_iter().map(|e| format!("{path}: {e}")));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("offline_pipeline: SCHEMA VIOLATION: {f}");
        }
        std::process::exit(1);
    }
}
