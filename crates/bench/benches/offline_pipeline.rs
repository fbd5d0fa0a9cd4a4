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
//! Usage (a `harness = false` bench; the report schema and its floors are
//! `synctime_bench::report::OFFLINE_PIPELINE`):
//!
//! ```text
//! cargo bench -p synctime-bench --bench offline_pipeline            # full run, JSON to stdout
//!   -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the sizes to CI scale; `--out` writes the JSON report
//! to a file. The run fails if its report does not conform.

use std::time::Instant;

use serde_json::Value;
use synctime_bench::report::{self, obj, ratio, Record, OFFLINE_PIPELINE};
use synctime_core::offline;
use synctime_core::MessageTimestamps;
use synctime_par::ThreadPool;
use synctime_trace::{Builder, MessageId, SyncComputation};

/// Processes in every workload instance (8 sender/receiver pairs).
const PROCESSES: usize = 16;

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
            let (s, r) = if (i / pairs).is_multiple_of(2) {
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

/// Stamps the workload at `messages` under one engine, timing the stamp.
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
    let record = Record {
        workload: "offline_stamp",
        variant,
        size: PROCESSES,
        ops: messages as u64,
        elapsed_ns,
        detail: obj(vec![
            ("dim", Value::UInt(stamps.dim() as u64)),
            ("mem_proxy_bytes", Value::UInt(mem_proxy_bytes)),
        ]),
    };
    (record, stamps)
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> (Vec<Record>, Value) {
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
            .find(|r| r.variant == variant && r.ops == messages as u64)
            .map_or(0.0, Record::ops_per_sec)
    };
    // The dense engine cannot reach the sparse sizes at all (its closure at
    // M = 100k would be ~2.5 GB and the chain-cover matching far worse), so
    // the headline compares the sparse rate at the target size against the
    // *best* rate dense achieves anywhere — the comparison most favourable
    // to dense, making the reported speedup a conservative lower bound.
    let best_dense = records
        .iter()
        .filter(|r| r.variant == "dense")
        .map(Record::ops_per_sec)
        .fold(0.0f64, f64::max);
    let target = *sparse_sizes.get(1).unwrap_or(&sparse_sizes[0]);
    let headline = ratio(rate_at("sparse_seq", target), best_dense);
    let headline_par = ratio(rate_at("sparse_par", target), best_dense);

    let derived = obj(vec![
        ("target_messages", Value::UInt(target as u64)),
        ("best_dense_msgs_per_sec", Value::Float(best_dense)),
        ("sparse_seq_speedup_vs_best_dense", Value::Float(headline)),
        (
            "sparse_par_speedup_vs_best_dense",
            Value::Float(headline_par),
        ),
        ("parallel_bit_identical", Value::Bool(bit_identical)),
    ]);
    (records, derived)
}

fn main() {
    report::main(&OFFLINE_PIPELINE, run_suite);
}
