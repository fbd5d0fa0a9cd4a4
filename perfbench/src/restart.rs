//! `restart` — what `synctime serve-query --store-dir` does after a
//! crash, then `query --window 16`.
//!
//! Setup stamps a seeded random computation over `hypercube(6)` (`N` =
//! 64, `d` = 32) with `OnlineStamper` and appends the logs that run would
//! produce through `TraceStore` with the default compaction trigger. The
//! store is left as a crash leaves it: a compacted snapshot plus an
//! unsealed log tail ending in a torn record (the receive half of the
//! last message, so recovery also trims its send: exactly one dropped
//! record). The stamps (~256 k messages × 32 components) sit far past a
//! 4 MiB L2.
//!
//! Most of the work: `store` recovery and materialize, the `net` catalog
//! and serving hot path, and the `core` compare. No rendezvous: a change
//! to the runtime should not move anything here. This is the only
//! workload whose stamps outgrow the caches.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use synctime_core::online::OnlineStamper;
use synctime_graph::{decompose, topology, EdgeDecomposition};
use synctime_runtime::LogEntry;
use synctime_sim::workload::RandomWorkload;
use synctime_store::{record_from_log_entry, TraceStore, LOG_FILE};
use synctime_trace::{EventKind, MessageId};

use crate::harness::{Harness, Iteration};
use crate::trace::span;
use crate::{serve, TRACE_NAME};

/// `hypercube(6)`: 64 processes, decomposed into 32 stars.
const CUBE: usize = 6;
const MESSAGES: usize = 256_000;

/// A crashed store: what it should serve and how it was torn.
struct Planted {
    servable: usize,
    torn_bytes: usize,
    decomposition: EdgeDecomposition,
}

/// Writes the run's logs into `root` in rendezvous order, each message's
/// send record then its receive record, and tears the final record.
fn plant(root: &Path, seed: u64) -> Result<Planted, String> {
    let topology = topology::hypercube(CUBE);
    let computation = {
        let _s = span("sim.generate");
        RandomWorkload::messages(MESSAGES).generate(&topology, &mut StdRng::seed_from_u64(seed))
    };
    let decomposition = {
        let _s = span("graph.decompose");
        decompose::best_known(&topology)
    };
    let stamps = {
        let _s = span("core.stamp");
        OnlineStamper::new(&decomposition).stamp_computation(&computation)
    }
    .map_err(|e| format!("stamp: {e}"))?;

    let io = |e: synctime_store::StoreError| format!("write the store: {e}");
    let mut store = TraceStore::create(root, TRACE_NAME, topology.node_count()).map_err(io)?;
    let mut pseq = vec![0usize; topology.node_count()];
    let mut torn = Vec::new();
    let m = computation.message_count();
    for id in (0..m).map(MessageId) {
        let msg = computation.message(id);
        let stamp = stamps.vector(id);
        let entries = [
            (
                msg.sender,
                EventKind::Send(id),
                LogEntry::Sent {
                    to: msg.receiver,
                    key: id.0 as u64,
                    stamp: stamp.clone(),
                },
            ),
            (
                msg.receiver,
                EventKind::Receive(id),
                LogEntry::Received {
                    from: msg.sender,
                    key: id.0 as u64,
                    stamp: stamp.clone(),
                },
            ),
        ];
        for (p, event, entry) in entries {
            if computation.history(p).get(pseq[p]) != Some(&event) {
                return Err(format!("process {p} does not log {id} next"));
            }
            let rec = record_from_log_entry(p as u64, pseq[p] as u64, &entry);
            pseq[p] += 1;
            if id.0 + 1 == m && matches!(event, EventKind::Receive(_)) {
                synctime_store::record::encode_record(&mut torn, &rec);
            } else {
                store.append(rec).map_err(io)?;
            }
        }
    }
    store.flush().map_err(io)?;
    drop(store);
    let half = torn.len() / 2;
    std::fs::OpenOptions::new()
        .append(true)
        .open(root.join(TRACE_NAME).join(LOG_FILE))
        .and_then(|mut log| log.write_all(&torn[..half]))
        .map_err(|e| format!("tear the log: {e}"))?;
    Ok(Planted {
        servable: m - 1,
        torn_bytes: half,
        decomposition,
    })
}

pub fn run(h: &mut Harness, server: &serve::Server) {
    h.iterate(2, |h, it| iteration(h, it, server));
}

fn iteration(h: &mut Harness, it: Iteration, server: &serve::Server) -> Result<(), String> {
    let t = Instant::now();
    let root = h.fresh_dir()?;
    let planted = plant(&root, h.seed)?;
    h.setup_done(t.elapsed());
    h.inputs(1 << CUBE, planted.decomposition.len(), MESSAGES);
    let bytes = crate::measure::dir_bytes(&root);
    h.prop("store_bytes", bytes);
    h.layer("store.bytes_per_msg", bytes as f64 / MESSAGES as f64);

    crate::measure::reset_peak();
    let served = serve::restart_and_query(h, server, &root, TRACE_NAME, planted.servable)?;
    h.e2e("msgs_per_s", served.stamps.len() as f64 / served.restart_s);
    h.e2e("peak_rss_mb", served.peak_mib);
    h.wall("timed", it.kind, served.timed_s);
    let rec = &served.recovered;
    h.layer("store.recover_dropped", rec.dropped_records as f64);
    h.check(rec.torn_bytes == planted.torn_bytes, || {
        format!(
            "recovery refused {} torn bytes, {} were planted",
            rec.torn_bytes, planted.torn_bytes
        )
    });
    h.check(
        rec.dropped_records == 1 && served.stamps.len() == planted.servable,
        || {
            format!(
                "recovery dropped {} records and serves {} messages, expected 1 and {}",
                rec.dropped_records,
                served.stamps.len(),
                planted.servable
            )
        },
    );
    let online = {
        let _s = span("core.stamp");
        OnlineStamper::new(&planted.decomposition).stamp_computation(&served.computation)
    };
    h.check(online.is_ok_and(|o| o == *served.stamps), || {
        "the materialized stamps differ from OnlineStamper's".to_string()
    });
    Ok(())
}
