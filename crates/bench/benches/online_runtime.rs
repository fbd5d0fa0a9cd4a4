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
//! Usage (a `harness = false` bench; the report schema and its floors are
//! `synctime_bench::report::ONLINE_RUNTIME`):
//!
//! ```text
//! cargo bench -p synctime-bench --bench online_runtime            # full run, JSON to stdout
//!   -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks every workload to a few iterations (CI's bit-rot
//! gate); `--out` writes the JSON report to a file. The run fails if its
//! report does not conform.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use synctime_bench::report::{self, obj, rate, ratio, Record, ONLINE_RUNTIME};
use synctime_core::online::OnlineSession;
use synctime_graph::{decompose, topology, Edge, Graph, IncrementalDecomposition};
use synctime_runtime::{Behavior, Runtime};
use synctime_sim::ring_behavior;

// ------------------------------------------------------------------- ring

fn bench_ring(n: usize, rounds: u64) -> Record {
    let topo = topology::cycle(n);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec);
    let active: Vec<usize> = (0..n).collect();
    let behaviors = active
        .iter()
        .map(|&p| ring_behavior(&active, p, rounds))
        .collect();
    let started = Instant::now();
    let run = rt.run(behaviors).expect("ring run failed");
    let elapsed_ns = started.elapsed().as_nanos();
    let stats = run.stats();
    assert_eq!(stats.messages, n as u64 * rounds);
    Record {
        workload: "ring",
        variant: "parking",
        size: n,
        ops: stats.messages,
        elapsed_ns,
        detail: obj(vec![
            ("rounds", Value::UInt(rounds)),
            ("wakeups", Value::UInt(stats.wakeups)),
            ("wakeup_p50_ns", Value::UInt(stats.wakeup_p50_ns)),
            ("wakeup_p99_ns", Value::UInt(stats.wakeup_p99_ns)),
            ("ack_latency_p50_ns", Value::UInt(stats.ack_latency_p50_ns)),
            ("total_blocked_ns", Value::UInt(stats.total_blocked_ns)),
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
        size: servers + clients,
        ops: stats.messages,
        elapsed_ns,
        detail: obj(vec![
            ("servers", Value::UInt(servers as u64)),
            ("clients", Value::UInt(clients as u64)),
            ("rounds", Value::UInt(rounds)),
            ("wakeups", Value::UInt(stats.wakeups)),
            ("wakeup_p50_ns", Value::UInt(stats.wakeup_p50_ns)),
            ("ack_latency_p50_ns", Value::UInt(stats.ack_latency_p50_ns)),
            ("total_blocked_ns", Value::UInt(stats.total_blocked_ns)),
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
        size: base.node_count(),
        ops: plan.len() as u64,
        elapsed_ns: incremental_ns,
        detail: obj(vec![
            ("base_edges", Value::UInt(base.edge_count() as u64)),
            ("fast_path_hits", Value::UInt(cache.fast_path_hits())),
            ("rebuilds", Value::UInt(cache.rebuilds())),
            (
                "final_dimension",
                Value::UInt(cache.decomposition().len() as u64),
            ),
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
        size: base.node_count(),
        ops: plan.len() as u64,
        elapsed_ns: recompute_ns,
        detail: obj(vec![
            ("base_edges", Value::UInt(base.edge_count() as u64)),
            ("final_dimension", Value::UInt(dim as u64)),
        ]),
    };
    (incremental, recompute)
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> (Vec<Record>, Value) {
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

    let speedup = ratio(
        rate(&records, "dynamic", "incremental"),
        rate(&records, "dynamic", "recompute"),
    );
    let derived = obj(vec![(
        "dynamic_speedup_incremental_vs_recompute",
        Value::Float(speedup),
    )]);
    (records, derived)
}

fn main() {
    report::main(&ONLINE_RUNTIME, run_suite);
}
