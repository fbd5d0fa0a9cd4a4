//! `churn` — what `synctime launch --churn-plan --transport local
//! --persist` does.
//!
//! A seeded `ChurnPlan` over a 12-process universe with 40 short
//! token-ring epochs (about 400 messages each) and a final epoch of about
//! 20 000 messages runs through `sim::run_churn`, is stored with RECONFIG
//! records by `persist_logs_with_reconfigs`, and the serving leg, run
//! `LEGS` times, reads the final epoch back through
//! `materialize_latest_epoch`.
//!
//! Per-epoch fixed costs dominate: thread spawn and join, the watchdog
//! poll tail of every `Runtime::run`, `IncrementalDecomposition` edits
//! and `apply_reconfigure` — costs `ingest` pays once per multi-second
//! run. A token ring has one rendezvous in flight. The final epoch is
//! long so that the serving leg has a trace worth timing (a few hundred
//! messages serve in microseconds, where thread wakeups swamp the
//! measurement). Bypassed: sockets during the run, the live store writer,
//! and traces past the caches, so a change to serving large traces should
//! not move `msgs_per_s` here.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime_graph::decompose;
use synctime_runtime::{reconstruct_from_logs, Behavior, LogEntry, Runtime};
use synctime_sim::churn::epoch_topology;
use synctime_sim::{run_churn, ChurnConfig, ChurnPlan};
use synctime_store::ReconfigRecord;

use crate::harness::{Harness, Iteration};
use crate::ingest::runtime_ratios;
use crate::trace::{self, span};
use crate::{serve, TRACE_NAME};

const UNIVERSE: usize = 12;
const BOUNDARIES: usize = 40;
/// Messages per epoch. The seed picks which processes join, leave or
/// swap; every epoch then runs as many token laps as it takes to carry
/// about this many messages, so seeds differ in churn, not in work. At
/// ~15 ms of rendezvous an epoch stays well inside one 50 ms watchdog
/// poll, which `Runtime::run` waits out before returning: an epoch near a
/// poll boundary would flip between one and two polls from run to run.
const EPOCH_MESSAGES: u64 = 400;
/// Messages of the final epoch, the trace the serving leg serves.
const FINAL_MESSAGES: u64 = 20_000;
/// Serving legs per iteration, each restarting from the same store. One
/// leg takes about a tenth of the ~2 s churn run; repeated, the serving
/// metrics sample more of the run and more of the host's fast and slow
/// stretches.
const LEGS: usize = 3;

/// `ChurnPlan::random` with every epoch's laps set so its ring carries
/// about `EPOCH_MESSAGES` messages, and the final epoch `FINAL_MESSAGES`.
fn plan(seed: u64) -> Result<ChurnPlan, String> {
    let mut plan = ChurnPlan::random(UNIVERSE, BOUNDARIES, 1, &mut StdRng::seed_from_u64(seed));
    let actives = plan.active_sets().map_err(|e| e.to_string())?;
    let laps = |messages: u64, active: &Vec<usize>| (messages / active.len() as u64).max(1);
    for (event, active) in plan.events.iter_mut().zip(&actives) {
        event.after_rounds = laps(EPOCH_MESSAGES, active);
    }
    plan.tail_rounds = actives.last().map_or(1, |a| laps(FINAL_MESSAGES, a));
    Ok(plan)
}

pub fn run(h: &mut Harness, server: &serve::Server) {
    h.iterate(2, |h, it| iteration(h, it, server));
}

fn iteration(h: &mut Harness, it: Iteration, server: &serve::Server) -> Result<(), String> {
    let t = Instant::now();
    let plan = {
        let _s = span("sim.generate");
        plan(h.seed)?
    };
    let topology = epoch_topology(UNIVERSE, &plan.initial).map_err(|e| e.to_string())?;
    let decomposition = {
        let _s = span("graph.decompose");
        decompose::best_known(&topology)
    };
    h.setup_done(t.elapsed());
    h.prop("epochs", plan.epochs());

    let root = h.fresh_dir()?;
    crate::measure::reset_peak();
    let pipeline = span("bench.pipeline");
    let started = trace::now_ns();
    let ran = {
        let _s = span("sim.run_churn");
        run_churn(&plan, &ChurnConfig::default())
    };
    let churned = trace::now_ns();
    let run = ran.map_err(|e| format!("run_churn: {e}"))?;
    let records: Vec<ReconfigRecord> = run
        .boundaries
        .iter()
        .map(|b| ReconfigRecord {
            epoch: b.epoch,
            cuts: b.cuts.clone(),
            ops: b.ops.clone(),
        })
        .collect();
    let persisted = {
        let _s = span("store.persist");
        synctime_store::persist_logs_with_reconfigs(&root, TRACE_NAME, &run.logs, &records)
    };
    let end = trace::now_ns();
    drop(pipeline);
    let store = persisted.map_err(|e| format!("persist: {e}"))?;
    let window_s = (end - started) as f64 / 1e9;
    let messages = run.stats.messages as usize;
    let d = run.epochs.iter().map(|e| e.dim).max().unwrap_or(0);
    h.inputs(UNIVERSE, d, messages);
    h.e2e("msgs_per_s", messages as f64 / window_s);

    let errors = run.outcomes.iter().flatten().count();
    h.tally(UNIVERSE as u64, errors as u64, || {
        format!("{errors} processes failed: {:?}", run.outcomes)
    });
    h.layer("runtime.failed", errors as f64);
    runtime_ratios(h, &run.stats, churned - started);
    h.layer(
        "sim.epoch_ms",
        (churned - started) as f64 / 1e6 / run.epochs.len().max(1) as f64,
    );
    for e in run.epochs.iter().skip(1) {
        h.layer("sim.reconfigure_us", e.reconfigure_micros as f64);
    }
    let bytes = crate::measure::dir_bytes(store.dir());
    h.layer("store.bytes_per_msg", bytes as f64 / messages.max(1) as f64);
    h.prop("store_bytes", bytes);

    let final_logs = run.final_epoch_logs();
    let final_messages = final_logs
        .iter()
        .flatten()
        .filter(|e| matches!(e, LogEntry::Sent { .. }))
        .count();
    let mut timed_s = window_s;
    for _ in 1..LEGS {
        timed_s += serve::restart_and_query(h, server, &root, TRACE_NAME, final_messages)?.timed_s;
    }
    let served = serve::restart_and_query(h, server, &root, TRACE_NAME, final_messages)?;
    timed_s += served.timed_s;
    h.e2e("peak_rss_mb", served.peak_mib);
    h.wall("timed", it.kind, timed_s);

    let reference = reconstruct_from_logs(&final_logs);
    h.check(
        served.epoch == run.final_epoch()
            && reference.is_ok_and(|(_, stamps)| stamps == *served.stamps),
        || "the stored latest epoch differs from the run's final epoch".to_string(),
    );
    for e in &run.epochs {
        let bound = epoch_topology(UNIVERSE, &e.active).map(|g| 2 * decompose::alpha(&g));
        h.check(bound.as_ref().is_ok_and(|&b| e.dim <= b), || {
            format!("epoch {} has d = {} above 2α = {bound:?}", e.epoch, e.dim)
        });
    }
    if trace::enabled() {
        null_run(&topology, &decomposition);
    }
    Ok(())
}

/// `Runtime::run` of behaviours that return at once: the fixed cost
/// every epoch pays before and after its rendezvous.
fn null_run(topology: &synctime_graph::Graph, decomposition: &synctime_graph::EdgeDecomposition) {
    let behaviors: Vec<Behavior> = (0..topology.node_count())
        .map(|_| Box::new(|_: &mut synctime_runtime::ProcessCtx| Ok(())) as Behavior)
        .collect();
    let rt = Runtime::new(topology, decomposition);
    let _s = span("runtime.null_run");
    let _ = rt.run(behaviors);
}
