//! `mesh` — what `synctime launch --transport tcp --persist` does.
//!
//! The `ingest` script runs with each process as a thread of the
//! benchmark calling `Runtime::run_process` over a loopback `TcpMesh`.
//! Each node's result crosses the `NodeReport` JSON boundary, the merged
//! logs are stored by `persist_logs`, and `msgs_per_s` is timed from the
//! first rendezvous to the sealed store.
//!
//! It is the same program as `ingest`, so the difference is the
//! `net::tcp` transport (frame encode, reader threads, mailboxes,
//! syscalls) plus batch persistence. It bypasses the runtime watchdog
//! (`run_process` has none) and the live store writer — a change to
//! either should not move `msgs_per_s` here.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use synctime_core::online::OnlineStamper;
use synctime_graph::Graph;
use synctime_net::{topology_hash_of, NodeReport, TcpMesh, TcpMeshBuilder};
use synctime_obs::RunStats;
use synctime_runtime::{reconstruct_from_logs, LogEntry, ProcessRun, Runtime};

use crate::harness::{Harness, Iteration};
use crate::ingest::{self, Bounds};
use crate::trace::{self, span};
use crate::{serve, TRACE_NAME};

/// RPCs per run: two messages and one internal event each.
const ROUNDS: usize = 15_000;
const ESTABLISH_TIMEOUT: Duration = Duration::from_secs(10);

/// Binds one loopback listener per process and establishes every node's
/// connections concurrently, one thread per node.
fn establish(topology: &Graph, hash: u64) -> Result<Vec<TcpMesh>, String> {
    let builders = (0..topology.node_count())
        .map(|_| TcpMeshBuilder::bind("127.0.0.1:0"))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("bind: {e}"))?;
    let addrs: Vec<SocketAddr> = builders.iter().map(TcpMeshBuilder::local_addr).collect();
    std::thread::scope(|s| {
        let nodes: Vec<_> = builders
            .into_iter()
            .enumerate()
            .map(|(p, builder)| {
                let neighbors: Vec<usize> = topology.neighbors(p).collect();
                let addrs = &addrs;
                s.spawn(move || {
                    let mesh = {
                        let _s = span("net.establish");
                        builder.establish(p, addrs, &neighbors, hash, ESTABLISH_TIMEOUT)
                    };
                    trace::flush();
                    mesh
                })
            })
            .collect();
        nodes
            .into_iter()
            .map(|node| match node.join() {
                Ok(mesh) => mesh.map_err(|e| format!("establish: {e}")),
                Err(_) => Err("a node panicked while establishing".to_string()),
            })
            .collect()
    })
}

pub fn run(h: &mut Harness, server: &serve::Server) {
    h.iterate(2, |h, it| iteration(h, it, server));
}

fn iteration(h: &mut Harness, it: Iteration, server: &serve::Server) -> Result<(), String> {
    let t = Instant::now();
    let s = ingest::script(h.seed, ROUNDS);
    let topology = &s.scenario.topology;
    let n = topology.node_count();
    let meshes = establish(topology, topology_hash_of(n, &s.decomposition))?;
    h.setup_done(t.elapsed());
    let messages = s.scenario.computation.message_count();
    h.inputs(n, s.decomposition.len(), messages);

    let root = h.fresh_dir()?;
    crate::measure::reset_peak();
    let bounds = Bounds::new();
    let pipeline = span("bench.pipeline");
    let runs: Vec<ProcessRun> = {
        let nodes = span("runtime.run_nodes");
        std::thread::scope(|sc| {
            let handles: Vec<_> = meshes
                .into_iter()
                .zip(&s.programs)
                .enumerate()
                .map(|(p, (mesh, ops))| {
                    let behavior = ingest::behavior(ops.clone(), nodes.id(), Arc::clone(&bounds));
                    let (topology, decomposition) = (&s.scenario.topology, &s.decomposition);
                    sc.spawn(move || {
                        let (tx, rx) = mesh.channels();
                        let run =
                            Runtime::new(topology, decomposition).run_process(p, behavior, tx, rx);
                        drop(mesh); // peers see this node finish
                        run
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|node| {
                    node.join()
                        .map_err(|_| "a node thread panicked".to_string())
                })
                .collect::<Result<_, _>>()
        })?
    };
    let reports = {
        let _s = span("net.report_json");
        runs.into_iter()
            .map(|run| {
                let (process, log, outcome, stats) = run.into_parts();
                let report = NodeReport {
                    process,
                    outcome: outcome.map(|e| e.to_string()),
                    log,
                    cuts: Vec::new(),
                    stats,
                };
                NodeReport::from_json(&report.to_json())
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("node report: {e}"))?
    };
    let mut logs: Vec<Vec<LogEntry>> = Vec::with_capacity(n);
    let mut stats = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    for r in reports {
        logs.push(r.log);
        stats.push(r.stats);
        outcomes.push(r.outcome);
    }
    let persisted = {
        let _s = span("store.persist");
        synctime_store::persist_logs(&root, TRACE_NAME, &logs)
    };
    let end = trace::now_ns();
    drop(pipeline);
    let window_s = end.saturating_sub(bounds.first()) as f64 / 1e9;
    let store = persisted.map_err(|e| format!("persist: {e}"))?;

    let errors = outcomes.iter().flatten().count();
    h.tally(n as u64, errors as u64, || {
        format!("{errors} nodes failed: {outcomes:?}")
    });
    h.layer("runtime.failed", errors as f64);
    ingest::runtime_ratios(h, &RunStats::merged(&stats), end - bounds.first());
    h.e2e("msgs_per_s", messages as f64 / window_s);
    let bytes = crate::measure::dir_bytes(store.dir());
    h.layer("store.bytes_per_msg", bytes as f64 / messages as f64);
    h.prop("store_bytes", bytes);

    let served = serve::restart_and_query(h, server, &root, TRACE_NAME, messages)?;
    h.e2e("peak_rss_mb", served.peak_mib);
    h.wall("timed", it.kind, window_s + served.timed_s);

    // local ≡ tcp: the merged run stamps exactly as the online stamper
    // stamps the same computation.
    let merged = {
        let _s = span("runtime.reconstruct");
        reconstruct_from_logs(&logs)
    };
    let agrees = merged.is_ok_and(|(computation, stamps)| {
        synctime_sim::programs::roundtrips(&s.scenario.computation, &computation) && {
            let _s = span("core.stamp");
            OnlineStamper::new(&s.decomposition).stamp_computation(&computation)
        }
        .is_ok_and(|online| online == stamps)
    });
    h.check(agrees, || {
        "the merged tcp stamps differ from OnlineStamper's".to_string()
    });
    Ok(())
}
