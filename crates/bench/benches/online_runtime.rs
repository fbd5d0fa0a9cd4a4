//! Experiment R4: the online runtime's rendezvous fast path and the
//! incremental decomposition cache.
//!
//! Three workloads, each self-timed (wall clock around the full run) so the
//! numbers can be exported as machine-readable JSON:
//!
//! * `ring` — a token circulating a cycle of processes; strict alternation
//!   means one endpoint of every rendezvous parks, making the parking
//!   matcher's wakeup path the whole game.
//! * `client_server` — servers round-robining request/reply pairs over
//!   their clients (the paper's client–server discussion).
//! * `dynamic` — a random edge-edit sequence over a connected topology,
//!   maintained by `IncrementalDecomposition` + `OnlineSession::reconfigure`
//!   versus re-running the Figure 7 greedy algorithm from scratch per edit.
//!
//! Usage (a `harness = false` bench):
//!
//! ```text
//! cargo bench -p synctime-bench --bench online_runtime            # full run, JSON to stdout
//!   -- [--smoke] [--out PATH] [--validate PATH]
//! ```
//!
//! `--smoke` shrinks every workload to a few iterations (CI's bit-rot
//! gate); `--out` writes the JSON report to a file; `--validate` checks an
//! existing report (e.g. the checked-in `results/BENCH_online_runtime.json`)
//! against the `synctime/bench_online_runtime/v1` record schema and fails
//! the process if it does not conform.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use synctime_core::online::OnlineSession;
use synctime_graph::{decompose, topology, Edge, Graph, IncrementalDecomposition};
use synctime_runtime::{Behavior, Runtime};

const SCHEMA: &str = "synctime/bench_online_runtime/v1";

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

/// One benchmark record. Every workload/variant emits exactly this shape so
/// downstream tooling can treat the report uniformly.
struct Record {
    workload: &'static str,
    variant: &'static str,
    processes: usize,
    /// Operations performed: messages for runtime workloads, edits for the
    /// dynamic workload.
    ops: u64,
    elapsed_ns: u128,
    /// Workload-specific extras (wakeup latency, cache counters, ...).
    detail: Value,
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

    fn to_json(&self) -> Value {
        obj(vec![
            ("workload", string(self.workload)),
            ("variant", string(self.variant)),
            ("processes", uint(self.processes as u64)),
            ("ops", uint(self.ops)),
            ("elapsed_ns", uint(self.elapsed_ns as u64)),
            ("ops_per_sec", float(self.ops_per_sec())),
            ("detail", self.detail.clone()),
        ])
    }
}

// ------------------------------------------------------------------- ring

fn ring_behaviors(n: usize, rounds: u64) -> Vec<Behavior> {
    (0..n)
        .map(|id| -> Behavior {
            let next = (id + 1) % n;
            let prev = (id + n - 1) % n;
            Box::new(move |ctx| {
                for r in 0..rounds {
                    if ctx.id() == 0 {
                        ctx.send(next, r)?;
                        ctx.receive_from(prev)?;
                    } else {
                        ctx.receive_from(prev)?;
                        ctx.send(next, r)?;
                    }
                }
                Ok(())
            })
        })
        .collect()
}

fn bench_ring(n: usize, rounds: u64) -> Record {
    let topo = topology::cycle(n);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec);
    let started = Instant::now();
    let run = rt.run(ring_behaviors(n, rounds)).expect("ring run failed");
    let elapsed_ns = started.elapsed().as_nanos();
    let stats = run.stats();
    assert_eq!(stats.messages, n as u64 * rounds);
    Record {
        workload: "ring",
        variant: "parking",
        processes: n,
        ops: stats.messages,
        elapsed_ns,
        detail: obj(vec![
            ("rounds", uint(rounds)),
            ("wakeups", uint(stats.wakeups)),
            ("wakeup_p50_ns", uint(stats.wakeup_p50_ns)),
            ("wakeup_p99_ns", uint(stats.wakeup_p99_ns)),
            ("ack_latency_p50_ns", uint(stats.ack_latency_p50_ns)),
            ("total_blocked_ns", uint(stats.total_blocked_ns)),
        ]),
    }
}

// ---------------------------------------------------------- client-server

fn client_server_behaviors(servers: usize, clients: usize, rounds: u64) -> Vec<Behavior> {
    // topology::client_server(s, c): servers are 0..s, clients s..s+c, with
    // every client wired to every server. Client k talks to server k mod s;
    // each server round-robins its own clients in id order.
    let mut behaviors: Vec<Behavior> = Vec::with_capacity(servers + clients);
    for s in 0..servers {
        let mine: Vec<usize> = (0..clients)
            .filter(|c| c % servers == s)
            .map(|c| servers + c)
            .collect();
        behaviors.push(Box::new(move |ctx| {
            for _ in 0..rounds {
                for &c in &mine {
                    let (x, _) = ctx.receive_from(c)?;
                    ctx.send(c, x + 1)?;
                }
            }
            Ok(())
        }));
    }
    for c in 0..clients {
        let server = c % servers;
        behaviors.push(Box::new(move |ctx| {
            for r in 0..rounds {
                ctx.send(server, r)?;
                ctx.receive_from(server)?;
            }
            Ok(())
        }));
    }
    behaviors
}

fn bench_client_server(servers: usize, clients: usize, rounds: u64) -> Record {
    let topo = topology::client_server(servers, clients);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec);
    let started = Instant::now();
    let run = rt
        .run(client_server_behaviors(servers, clients, rounds))
        .expect("client-server run failed");
    let elapsed_ns = started.elapsed().as_nanos();
    let stats = run.stats();
    assert_eq!(stats.messages, 2 * clients as u64 * rounds);
    Record {
        workload: "client_server",
        variant: "parking",
        processes: servers + clients,
        ops: stats.messages,
        elapsed_ns,
        detail: obj(vec![
            ("servers", uint(servers as u64)),
            ("clients", uint(clients as u64)),
            ("rounds", uint(rounds)),
            ("wakeups", uint(stats.wakeups)),
            ("wakeup_p50_ns", uint(stats.wakeup_p50_ns)),
            ("ack_latency_p50_ns", uint(stats.ack_latency_p50_ns)),
            ("total_blocked_ns", uint(stats.total_blocked_ns)),
        ]),
    }
}

// --------------------------------------------------------------- dynamic

/// A deterministic random edit sequence: remove an existing edge, insert a
/// currently absent one, alternating, always keeping at least one edge.
fn edit_sequence(base: &Graph, edits: usize, rng: &mut StdRng) -> Vec<(bool, Edge)> {
    let mut g = base.clone();
    let n = g.node_count();
    let mut plan = Vec::with_capacity(edits);
    while plan.len() < edits {
        let remove = plan.len() % 2 == 0 && g.edge_count() > 1;
        if remove {
            let all: Vec<Edge> = g.edges().collect();
            let e = all[rng.gen_range(0..all.len())];
            g.remove_edge(e.lo(), e.hi());
            plan.push((false, e));
        } else {
            let (u, v) = loop {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && !g.has_edge(u, v) {
                    break (u, v);
                }
            };
            g.add_edge(u, v);
            plan.push((true, Edge::new(u, v)));
        }
    }
    plan
}

fn bench_dynamic(edits: usize) -> (Record, Record) {
    let mut rng = StdRng::seed_from_u64(42);
    let base = topology::random_connected(96, 160, &mut rng);
    let plan = edit_sequence(&base, edits, &mut rng);

    // Incremental: patch the cached decomposition and rebase a running
    // session's clocks via the reported remap — the full maintenance cost a
    // live system would pay per reconfiguration.
    let started = Instant::now();
    let mut cache = IncrementalDecomposition::new(&base);
    let mut session = OnlineSession::new(cache.decomposition(), base.node_count());
    for (insert, e) in &plan {
        let remap = if *insert {
            cache.insert_edge(e.lo(), e.hi()).expect("planned insert")
        } else {
            cache.remove_edge(e.lo(), e.hi()).expect("planned removal")
        };
        session
            .reconfigure(cache.decomposition(), &remap)
            .expect("remap matches decomposition");
    }
    let incremental_ns = started.elapsed().as_nanos();
    cache
        .decomposition()
        .validate(cache.graph())
        .expect("cache stays valid");
    let incremental = Record {
        workload: "dynamic",
        variant: "incremental",
        processes: base.node_count(),
        ops: plan.len() as u64,
        elapsed_ns: incremental_ns,
        detail: obj(vec![
            ("base_edges", uint(base.edge_count() as u64)),
            ("fast_path_hits", uint(cache.fast_path_hits())),
            ("rebuilds", uint(cache.rebuilds())),
            ("final_dimension", uint(cache.decomposition().len() as u64)),
        ]),
    };

    // Baseline: apply the same edits to a plain graph and re-run greedy
    // from scratch each time (PR 1's only option; clocks restart too, so
    // the session cost is a fresh construction per edit).
    let started = Instant::now();
    let mut g = base.clone();
    let mut dim = 0usize;
    for (insert, e) in &plan {
        if *insert {
            g.add_edge(e.lo(), e.hi());
        } else {
            g.remove_edge(e.lo(), e.hi());
        }
        let dec = decompose::greedy(&g);
        let session = OnlineSession::new(&dec, g.node_count());
        let _ = session.stamped();
        dim = dec.len();
    }
    let recompute_ns = started.elapsed().as_nanos();
    let recompute = Record {
        workload: "dynamic",
        variant: "recompute",
        processes: base.node_count(),
        ops: plan.len() as u64,
        elapsed_ns: recompute_ns,
        detail: obj(vec![
            ("base_edges", uint(base.edge_count() as u64)),
            ("final_dimension", uint(dim as u64)),
        ]),
    };
    (incremental, recompute)
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> Value {
    let (ring_rounds, cs_rounds, edits) = if smoke {
        (10, 2, 24)
    } else {
        (2000, 200, 1200)
    };
    let mut records = Vec::new();
    eprintln!("online_runtime: ring ({ring_rounds} rounds x 6 processes)");
    records.push(bench_ring(6, ring_rounds));
    eprintln!("online_runtime: client_server ({cs_rounds} rounds, 3x12)");
    records.push(bench_client_server(3, 12, cs_rounds));
    eprintln!("online_runtime: dynamic ({edits} edits, incremental vs recompute)");
    let (inc, rec) = bench_dynamic(edits);
    records.push(inc);
    records.push(rec);

    let rate = |workload: &str, variant: &str| -> f64 {
        records
            .iter()
            .find(|r| r.workload == workload && r.variant == variant)
            .map(Record::ops_per_sec)
            .unwrap_or(0.0)
    };
    let speedup = |workload: &str, fast: &str, slow: &str| -> f64 {
        let denominator = rate(workload, slow);
        if denominator > 0.0 {
            rate(workload, fast) / denominator
        } else {
            0.0
        }
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
            obj(vec![(
                "dynamic_speedup_incremental_vs_recompute",
                float(speedup("dynamic", "incremental", "recompute")),
            )]),
        ),
    ])
}

// ---------------------------------------------------------- validation

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
    }
    match doc.get_field("derived") {
        Some(Value::Object(_)) => {}
        _ => errs.push("\"derived\" must be an object".to_string()),
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
    let rendered = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("report serialises")
    );
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("online_runtime: report written to {path}");
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
            eprintln!("online_runtime: {path} conforms to {SCHEMA}");
        } else {
            failures.extend(errs.into_iter().map(|e| format!("{path}: {e}")));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("online_runtime: SCHEMA VIOLATION: {f}");
        }
        std::process::exit(1);
    }
}
