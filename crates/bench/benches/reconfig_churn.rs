//! Experiment R12: live reconfiguration under churn.
//!
//! The reconfiguration control plane claims three things worth numbers:
//!
//! * **Reconfiguration is fast.** A boundary — quiesce, apply the edge
//!   edits to the incremental decomposition, rebase the baseline clock
//!   into the new dimension, swap the runtime's epoch — is a blip, not an
//!   outage. The `reconfigure` records measure every boundary of a long
//!   seeded churn script; the derived p99 must stay <= 50 ms on full
//!   reports.
//! * **The dimension bound survives churn.** Every epoch's stamp
//!   dimension must respect the paper's `d <= 2*alpha` bound (Theorem 6)
//!   over that epoch's topology, no matter how the active set evolved to
//!   produce it. `derived.within_bound` must be true — in smoke and full
//!   reports alike, it is a correctness property, not a speed one.
//! * **Serving survives republication.** A query node republishes a
//!   trace's stamps after every reconfiguration (copy-on-write inside
//!   [`synctime_net::QueryFabric`]); readers on the old snapshot must not
//!   stall. The `query` records measure precedence throughput over the
//!   final epoch's stamps, once steady and once while a writer thread
//!   republishes continuously; the derived `dip_ratio` (during / steady)
//!   is reported for the experiment table.
//!
//! Usage (a `harness = false` bench; the report schema and its floors are
//! `synctime_bench::report::RECONFIG_CHURN`):
//!
//! ```text
//! cargo bench -p synctime-bench --bench reconfig_churn              # full run, JSON to stdout
//!   -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the churn script to CI scale; `--out` writes the
//! JSON report to a file. The run fails if its report does not conform.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use synctime_bench::report::{self, obj, ratio, Record, RECONFIG_CHURN};
use synctime_graph::decompose;
use synctime_runtime::reconstruct_from_logs;
use synctime_sim::churn::epoch_topology;
use synctime_sim::{run_churn, ChurnConfig, ChurnPlan};
use synctime_trace::MessageId;

/// The nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)] as f64
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> (Vec<Record>, Value) {
    let (universe, boundaries, query_iters) = if smoke {
        (6usize, 8usize, 20_000usize)
    } else {
        (12, 120, 400_000)
    };
    let mut rng = StdRng::seed_from_u64(42);
    let plan = ChurnPlan::random(universe, boundaries, 1, &mut rng);
    eprintln!("reconfig_churn: churn script, universe {universe}, {boundaries} boundaries");
    let started = Instant::now();
    let run = run_churn(&plan, &ChurnConfig::default()).expect("churn run");
    let run_ns = started.elapsed().as_nanos();

    // Reconfiguration latency: every epoch after the first records the
    // microseconds its entering boundary took.
    let mut lat: Vec<u64> = run
        .epochs
        .iter()
        .skip(1)
        .map(|e| e.reconfigure_micros)
        .collect();
    lat.sort_unstable();
    let p50 = percentile(&lat, 50.0);
    let p90 = percentile(&lat, 90.0);
    let p99 = percentile(&lat, 99.0);

    // Dimension bound: every epoch's dimension against 2*alpha of that
    // epoch's topology.
    let mut max_dim = 0usize;
    let mut max_bound = 0usize;
    let mut within_bound = true;
    for e in &run.epochs {
        let topo = epoch_topology(universe, &e.active).expect("epoch topology");
        let bound = 2 * decompose::alpha(&topo);
        max_dim = max_dim.max(e.dim);
        max_bound = max_bound.max(bound);
        within_bound &= e.dim <= bound;
    }

    // Query serving: precedence throughput over the final epoch's stamps,
    // steady vs. while a writer republishes the trace continuously.
    let final_logs = run.final_epoch_logs();
    let (comp, stamps) = reconstruct_from_logs(&final_logs).expect("final epoch reconstructs");
    let m = comp.message_count();
    assert!(m >= 2, "final epoch must carry messages");
    let fabric = std::sync::Arc::new(synctime_net::QueryFabric::single("churn", stamps.clone()));
    let queries = |iters: usize| -> u128 {
        // A fixed LCG walk over message pairs: same sequence both runs.
        let mut x = 0x2545f4914f6cdd1du64;
        let started = Instant::now();
        let mut hits = 0usize;
        for _ in 0..iters {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let m1 = MessageId((x >> 33) as usize % m);
            let m2 = MessageId((x >> 13) as usize % m);
            let snapshot = fabric.resolve("churn").expect("trace is published");
            if snapshot.precedes(m1, m2) {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
        started.elapsed().as_nanos()
    };
    eprintln!("reconfig_churn: query serving, {query_iters} lookups x2");
    let steady_ns = queries(query_iters);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let publisher = {
        let fabric = std::sync::Arc::clone(&fabric);
        let stop = std::sync::Arc::clone(&stop);
        let stamps = stamps.clone();
        std::thread::spawn(move || {
            let mut publishes = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                fabric.publish("churn", stamps.clone());
                publishes += 1;
            }
            publishes
        })
    };
    let during_ns = queries(query_iters);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let publishes = publisher.join().expect("publisher joins");

    let query = |variant, elapsed_ns, detail| Record {
        workload: "query",
        variant,
        size: max_dim,
        ops: query_iters as u64,
        elapsed_ns,
        detail,
    };
    let steady = query(
        "steady",
        steady_ns,
        obj(vec![("messages", Value::UInt(m as u64))]),
    );
    let during = query(
        "during_rebase",
        during_ns,
        obj(vec![
            ("messages", Value::UInt(m as u64)),
            ("publishes", Value::UInt(publishes)),
        ]),
    );
    let (qps_steady, qps_during) = (steady.ops_per_sec(), during.ops_per_sec());
    let records = vec![
        Record {
            workload: "reconfigure",
            variant: "boundary",
            size: max_dim,
            ops: lat.len() as u64,
            elapsed_ns: run_ns,
            detail: obj(vec![
                ("universe", Value::UInt(universe as u64)),
                ("p50_us", Value::Float(p50)),
                ("p90_us", Value::Float(p90)),
                ("p99_us", Value::Float(p99)),
            ]),
        },
        steady,
        during,
    ];
    let derived = obj(vec![
        ("reconfigure_p50_us", Value::Float(p50)),
        ("reconfigure_p90_us", Value::Float(p90)),
        ("reconfigure_p99_us", Value::Float(p99)),
        ("max_dim", Value::UInt(max_dim as u64)),
        ("bound_2alpha", Value::UInt(max_bound as u64)),
        ("within_bound", Value::Bool(within_bound)),
        ("qps_steady", Value::Float(qps_steady)),
        ("qps_during_rebase", Value::Float(qps_during)),
        ("dip_ratio", Value::Float(ratio(qps_during, qps_steady))),
    ]);
    (records, derived)
}

fn main() {
    report::main(&RECONFIG_CHURN, run_suite);
}
