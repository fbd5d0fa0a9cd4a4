//! `ingest` — what `synctime run --persist` does.
//!
//! A seeded client–server RPC script (2 servers × 6 clients, so `d` = 2:
//! the paper's §3.3 example) is compiled to per-process programs and
//! replayed on the in-process `Runtime` with `store::spawn_writer` on its
//! log sink. `msgs_per_s` is timed from the first rendezvous to
//! `StoreWriter::finish`.
//!
//! Most of the work: `runtime` rendezvous (parking matcher,
//! Singhal–Kshemkalyani delta streams, sink bursts) and the `store`
//! writer (append, geometric compaction, seal + fsync). Bypassed until
//! the serving leg: sockets, recovery and queries — so a change to the
//! `net` transport or to recovery should not move `msgs_per_s` here.
//! Two servers bound the rendezvous in flight at two, so the runnable
//! threads stay near a 2-core host's cores although the runtime holds
//! one thread per process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime_graph::{decompose, EdgeDecomposition};
use synctime_runtime::{Behavior, ProcessCtx, Runtime, RuntimeError};
use synctime_sim::{programs, scenarios, Op, Scenario};

use crate::harness::{Harness, Iteration};
use crate::trace::{self, span};
use crate::{serve, TRACE_NAME};

const SERVERS: usize = 2;
const CLIENTS: usize = 6;
/// RPCs per replay: two messages and one internal event each.
const ROUNDS: usize = 50_000;

/// The scenario, its per-process programs and its decomposition.
pub struct Script {
    pub scenario: Scenario,
    pub programs: Vec<Vec<Op>>,
    pub decomposition: EdgeDecomposition,
}

pub fn script(seed: u64, rounds: usize) -> Script {
    let (scenario, programs) = {
        let _s = span("sim.generate");
        let mut rng = StdRng::seed_from_u64(seed);
        let scenario = scenarios::client_server_rpc(SERVERS, CLIENTS, rounds, &mut rng);
        let programs = programs::from_computation(&scenario.computation)
            .into_iter()
            .map(|p| p.ops().to_vec())
            .collect();
        (scenario, programs)
    };
    let decomposition = {
        let _s = span("graph.decompose");
        decompose::best_known(&scenario.topology)
    };
    Script {
        scenario,
        programs,
        decomposition,
    }
}

/// The earliest behaviour start (the first rendezvous) and the latest
/// behaviour end of one run, in trace nanoseconds.
#[derive(Debug)]
pub struct Bounds {
    first: AtomicU64,
    last: AtomicU64,
}

impl Bounds {
    pub fn new() -> Arc<Bounds> {
        Arc::new(Bounds {
            first: AtomicU64::new(u64::MAX),
            last: AtomicU64::new(0),
        })
    }

    pub fn first(&self) -> u64 {
        self.first.load(Ordering::SeqCst)
    }

    pub fn last(&self) -> u64 {
        self.last.load(Ordering::SeqCst)
    }
}

/// One process's program as a behaviour that times its own rendezvous.
/// `parent` is the span the behaviour's spans nest under.
pub fn behavior(ops: Vec<Op>, parent: u64, bounds: Arc<Bounds>) -> Behavior {
    // Allocated before the run, so timing a rendezvous is two clock reads
    // and a store.
    let mut timed = Vec::with_capacity(if trace::enabled() { ops.len() } else { 0 });
    Box::new(move |ctx: &mut ProcessCtx| {
        trace::adopt(parent);
        bounds.first.fetch_min(trace::now_ns(), Ordering::SeqCst);
        let out = {
            let behavior = span("runtime.behavior");
            let out = replay(ctx, &ops, &mut timed);
            trace::record(behavior.id(), &timed);
            out
        };
        bounds.last.fetch_max(trace::now_ns(), Ordering::SeqCst);
        trace::flush();
        out
    })
}

/// Runs `ops`, appending each rendezvous's (name, start, end) to `timed`
/// when it has room reserved for them.
fn replay(
    ctx: &mut ProcessCtx,
    ops: &[Op],
    timed: &mut Vec<(&'static str, u64, u64)>,
) -> Result<(), RuntimeError> {
    let timing = timed.capacity() > 0;
    for (i, op) in ops.iter().enumerate() {
        let start = if timing { trace::now_ns() } else { 0 };
        let name = match *op {
            Op::SendTo(q) => {
                ctx.send(q, i as u64)?;
                "runtime.send"
            }
            Op::ReceiveFrom(q) => {
                ctx.receive_from(q)?;
                "runtime.receive_from"
            }
            Op::Internal => {
                ctx.internal();
                continue;
            }
            Op::ReceiveAny => unreachable!("scripts from a computation name their peer"),
        };
        if timing {
            timed.push((name, start, trace::now_ns()));
        }
    }
    Ok(())
}

/// Runtime-layer ratios every rendezvous workload reports.
pub fn runtime_ratios(h: &mut Harness, stats: &synctime_obs::RunStats, wall_ns: u64) {
    let messages = stats.messages.max(1) as f64;
    h.layer(
        "runtime.blocked_share",
        stats.total_blocked_ns as f64 / (stats.process_count.max(1) as f64 * wall_ns.max(1) as f64),
    );
    h.layer("runtime.wakeups_per_msg", stats.wakeups as f64 / messages);
    h.layer(
        "runtime.wire_bytes_per_msg",
        stats.total_wire_bytes as f64 / messages,
    );
}

pub fn run(h: &mut Harness, server: &serve::Server) {
    // Traced runs add kind 2: the same replay with no sink, the
    // baseline of `store.writer_tax`.
    h.iterate(3, |h, it| iteration(h, it, server));
}

fn iteration(h: &mut Harness, it: Iteration, server: &serve::Server) -> Result<(), String> {
    let t = Instant::now();
    let s = script(h.seed, ROUNDS);
    h.setup_done(t.elapsed());
    let n = s.scenario.topology.node_count();
    let messages = s.scenario.computation.message_count();
    h.inputs(n, s.decomposition.len(), messages);

    let root = h.fresh_dir()?;
    let with_sink = it.kind != 2;
    crate::measure::reset_peak();
    let mut rt = Runtime::new(&s.scenario.topology, &s.decomposition);
    let writer = if with_sink {
        let (tx, writer) = synctime_store::spawn_writer(&root, TRACE_NAME, n)
            .map_err(|e| format!("open the store: {e}"))?;
        rt = rt.with_log_sink(tx);
        Some(writer)
    } else {
        None
    };
    let bounds = Bounds::new();
    let pipeline = span("bench.pipeline");
    let run_span = span("runtime.run");
    let behaviors = s
        .programs
        .iter()
        .map(|ops| behavior(ops.clone(), run_span.id(), Arc::clone(&bounds)))
        .collect();
    let called = trace::now_ns();
    let run = rt.run_tolerant(behaviors);
    let returned = trace::now_ns();
    drop(run_span);
    drop(rt); // the runtime holds the sink's last sender
    let store = writer.map(|w| {
        let _s = span("store.finish");
        w.finish()
    });
    let end = trace::now_ns();
    drop(pipeline);
    let window_s = end.saturating_sub(bounds.first()) as f64 / 1e9;
    h.wall("pipeline", it.kind, window_s);

    let errors = run.outcomes().iter().flatten().count();
    h.tally(n as u64, errors as u64, || {
        format!("{errors} processes failed: {:?}", run.outcomes())
    });
    h.layer("runtime.failed", errors as f64);
    runtime_ratios(h, run.stats(), returned - called);
    h.layer(
        "runtime.run_start_ms",
        bounds.first().saturating_sub(called) as f64 / 1e6,
    );
    h.layer(
        "runtime.run_tail_ms",
        returned.saturating_sub(bounds.last()) as f64 / 1e6,
    );
    if let Some(store) = store {
        let store = store.map_err(|e| format!("seal the store: {e}"))?;
        h.e2e("msgs_per_s", messages as f64 / window_s);
        h.layer("store.compactions", store.generation() as f64);
        let bytes = crate::measure::dir_bytes(store.dir());
        h.layer("store.bytes_per_msg", bytes as f64 / messages as f64);
        h.prop("store_bytes", bytes);

        let served = serve::restart_and_query(h, server, &root, TRACE_NAME, messages)?;
        h.e2e("peak_rss_mb", served.peak_mib);
        h.wall("timed", it.kind, window_s + served.timed_s);
        h.check(served.recovered.logs == run.logs(), || {
            "the recovered store logs differ from the run's".to_string()
        });
    }
    let replayed = run.reconstruct();
    h.check(
        replayed
            .as_ref()
            .is_ok_and(|(c, _)| programs::roundtrips(&s.scenario.computation, c)),
        || "the replay does not round-trip the scenario".to_string(),
    );
    Ok(())
}
