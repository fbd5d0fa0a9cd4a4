//! The serving leg every workload ends with: what `serve-query
//! --store-dir` does after a restart, then `query --window 16`.
//!
//! Timed: `read_trace_dir` → `materialize_latest_epoch` →
//! `QueryFabric::publish` into the run's `serve_fabric` server → one new
//! `QueryClient` → first answer (`restart_ms`); then, on the same
//! connection, pipelined passes of QUERY3 batches at window 16 (`qps`),
//! each followed by a lock-step phase at window 1 (`batch_p50_us`).
//! Afterwards, untimed:
//! every served answer is compared with in-process `answer_query`, and
//! three in-process probes time the compare kernel, the answer encoder and
//! the frame pump without sockets.

use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synctime_core::MessageTimestamps;
use synctime_net::query::{QUERY_CONCURRENT, QUERY_PRECEDES};
use synctime_net::{
    answer_query_into, default_pool_size, encode_query_batch_into, pump_frames, serve_fabric,
    BatchEntry, BatchQuery, FrameReader, FrameScratch, NetError, QueryClient, QueryFabric,
    DEFAULT_SHARDS,
};
use synctime_store::RecoveredTrace;
use synctime_trace::{MessageId, SyncComputation};

use crate::harness::Harness;
use crate::measure;
use crate::trace::{self, span};

/// Queries per QUERY3 batch.
const BATCH: usize = 256;
/// Batches in flight on the pipelining connection.
const WINDOW: usize = 16;
/// Batches of the query set, sent as pipeline sessions of `ROUND`.
const PIPELINED: usize = 768;
const ROUND: usize = 64;
/// Pipelined passes over the query set per leg, one `qps` sample each.
/// Each pass is followed by a lock-step phase over the next `LOCKSTEP`
/// batches of the set, whose median round trip is one `batch_p50_us`
/// sample. Many short phases spread over the run sample the host's fast
/// and slow stretches far more often than a few long ones would.
const PASSES: usize = 16;
const LOCKSTEP: usize = 48;
/// Query pairs are drawn within this many ids of each other, so that
/// answers are a mix of ordered and concurrent rather than all ordered.
const NEAR: i64 = 256;

/// What the serving leg recovered and measured.
pub struct Served {
    pub recovered: RecoveredTrace,
    pub epoch: u64,
    pub computation: SyncComputation,
    pub stamps: Arc<MessageTimestamps>,
    /// Seconds from `read_trace_dir` to the first answer.
    pub restart_s: f64,
    /// Seconds spent in this leg's timed windows.
    pub timed_s: f64,
    /// Resident-memory high-water mark at the end of the timed windows.
    pub peak_mib: f64,
}

/// The run's query server: one fabric served on a loopback port by
/// `serve_fabric` with `default_pool_size()` workers, stopped when
/// dropped. It starts once per run because `serve_fabric` cannot stop its
/// pool: a server per iteration would leave a pool of idle threads behind
/// each time, and their memory would creep into `peak_rss_mb`. Starting
/// it takes microseconds, against restarts of 100 ms and more.
///
/// Where the process may use two CPUs or more, the server and the pool
/// workers it spawns run on the second, and the client runs on the first
/// during a serving leg, as a load generator on its own machine would. Left
/// to the scheduler, the busy pair was stacked on one vCPU of a 2-vCPU
/// guest for a second or more at a time and spread over both at other
/// times, and pipelined `qps` on the same trace flipped between about 6 M
/// and 10 M with it.
pub struct Server {
    addr: String,
    fabric: Arc<QueryFabric>,
    listener: TcpListener,
    thread: Option<JoinHandle<Result<(), NetError>>>,
    /// The CPUs the process started with.
    cpus: Vec<usize>,
}

impl Server {
    pub fn start() -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("bound address: {e}"))?
            .to_string();
        let served = listener
            .try_clone()
            .map_err(|e| format!("listener clone: {e}"))?;
        let fabric = Arc::new(QueryFabric::new(DEFAULT_SHARDS));
        let shared = Arc::clone(&fabric);
        let cpus = measure::allowed_cpus();
        let server_cpu = cpus.get(1).copied();
        let thread = std::thread::spawn(move || {
            if let Some(cpu) = server_cpu {
                measure::run_on(&[cpu]);
            }
            serve_fabric(served, shared, default_pool_size())
        });
        Ok(Server {
            addr,
            fabric,
            listener,
            thread: Some(thread),
            cpus,
        })
    }

    /// Keeps the calling thread on the client's CPU until the guard drops.
    fn client_cpu(&self) -> ClientCpu<'_> {
        if self.cpus.len() >= 2 {
            measure::run_on(&self.cpus[..1]);
        }
        ClientCpu(&self.cpus)
    }
}

/// Gives the thread back every CPU the process started with, so that the
/// threads a workload spawns next are placed by the scheduler as usual.
struct ClientCpu<'a>(&'a [usize]);

impl Drop for ClientCpu<'_> {
    fn drop(&mut self) {
        if self.0.len() >= 2 {
            measure::run_on(self.0);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `serve_fabric` returns only when accepting fails: make the shared
        // listener non-blocking, wake the blocked accept with one
        // connection, and the next accept fails with WouldBlock. Its pool
        // workers idle on their queue until the process exits.
        let _ = self.listener.set_nonblocking(true);
        let _ = TcpStream::connect(&self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The seeded query set over `messages` ids: `PIPELINED` batches of
/// `BATCH` precedes/concurrent queries between ids at most `NEAR` apart.
fn query_set(seed: u64, messages: usize) -> Vec<Vec<BatchQuery>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7175_6572_7973_6574);
    let top = messages.max(1) as i64 - 1;
    (0..PIPELINED)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let m1 = rng.gen_range(0..=top);
                    let m2 = (m1 + rng.gen_range(-NEAR..=NEAR)).clamp(0, top);
                    let kind = if rng.gen_bool(0.5) {
                        QUERY_PRECEDES
                    } else {
                        QUERY_CONCURRENT
                    };
                    BatchQuery {
                        kind,
                        m1: m1 as u32,
                        m2: m2 as u32,
                    }
                })
                .collect()
        })
        .collect()
}

/// Brings the trace stored under `root/name` back into service and
/// queries it. `messages` is how many messages the store should serve;
/// the query set ranges over them, so a store that recovers fewer shows
/// up as rejected answers.
pub fn restart_and_query(
    h: &mut Harness,
    server: &Server,
    root: &Path,
    name: &str,
    messages: usize,
) -> Result<Served, String> {
    let batches = query_set(h.seed, messages);
    let _placed = server.client_cpu();
    let leg = span("bench.serve");
    let started = Instant::now();
    let recovered = {
        let _s = span("store.read_trace_dir");
        synctime_store::read_trace_dir(&root.join(name))
    }
    .map_err(|e| format!("recover: {e}"))?;
    let recover_s = started.elapsed().as_secs_f64();
    h.prop("torn_tail_bytes", recovered.torn_bytes);
    h.layer(
        "store.recover_records_per_s",
        recovered.records as f64 / recover_s,
    );
    if trace::enabled() {
        // Recovery's freed memory would otherwise absorb materialize's;
        // untraced iterations keep their peak for `peak_rss_mb`.
        measure::reset_peak();
    }
    let rss = measure::rss_mib();
    let (epoch, computation, stamps) = {
        let _s = span("store.materialize");
        synctime_store::materialize_latest_epoch(&recovered)
    }
    .map_err(|e| format!("materialize: {e}"))?;
    h.layer(
        "store.materialize_rss_mb",
        (measure::peak_mib() - rss).max(0.0),
    );
    let fabric = &server.fabric;
    let stamps = {
        let _s = span("net.publish");
        fabric.publish(name, stamps)
    };
    let connected = {
        let _s = span("net.connect");
        QueryClient::connect(&server.addr)
    };
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            h.check(false, || format!("connect to the query server: {e}"));
            return Err(format!("connect: {e}"));
        }
    };
    h.check(true, String::new);
    let first = {
        let _s = span("net.first_answer");
        let mut p = client.pipeline(1);
        p.submit(name, &batches[0])
            .and_then(|_| p.finish())
            .map_err(|e| format!("first answer: {e}"))?
    };
    let restart_s = started.elapsed().as_secs_f64();
    drop(leg);
    h.e2e("restart_ms", restart_s * 1e3);

    let expected = expected_answers(&stamps, &batches);
    check_answers(h, &expected[..1], &first);
    let mut timed_s = restart_s;
    for (set, want) in batches
        .chunks(LOCKSTEP)
        .zip(expected.chunks(LOCKSTEP))
        .take(PASSES)
    {
        let pass = span("bench.query");
        let t = Instant::now();
        let mut answers: Vec<Vec<BatchEntry>> = Vec::with_capacity(batches.len());
        for round in batches.chunks(ROUND) {
            let mut p = client.pipeline(WINDOW);
            for b in round {
                let _s = span("net.submit");
                p.submit(name, b).map_err(|e| format!("submit: {e}"))?;
            }
            let _s = span("net.finish");
            answers.extend(p.finish().map_err(|e| format!("pipeline: {e}"))?);
        }
        let pass_s = t.elapsed().as_secs_f64();
        drop(pass);
        timed_s += pass_s;
        h.e2e("qps", (batches.len() * BATCH) as f64 / pass_s);
        check_answers(h, &expected, &answers);

        let pass = span("bench.query");
        let t = Instant::now();
        let mut lockstep: Vec<Vec<BatchEntry>> = Vec::with_capacity(set.len());
        let mut trips = Vec::with_capacity(set.len());
        for b in set {
            let t = Instant::now();
            let _s = span("net.batch");
            let mut p = client.pipeline(1);
            p.submit(name, b)
                .map_err(|e| format!("lock-step submit: {e}"))?;
            lockstep.extend(p.finish().map_err(|e| format!("lock-step: {e}"))?);
            trips.push(t.elapsed().as_secs_f64() * 1e6);
        }
        timed_s += t.elapsed().as_secs_f64();
        drop(pass);
        h.e2e("batch_p50_us", measure::median(&trips));
        check_answers(h, want, &lockstep);
    }
    let peak_mib = measure::peak_mib();
    drop(client);
    // Empty the catalog entry so the trace's memory goes when this leg's
    // snapshot does.
    fabric.publish(name, MessageTimestamps::new(Vec::new()));
    probe(h, fabric, name, &stamps, &batches);
    Ok(Served {
        recovered,
        epoch,
        computation,
        stamps,
        restart_s,
        timed_s,
        peak_mib,
    })
}

/// The in-process answer to every query: its one-byte body, or `None`
/// where `answer_query` rejects it.
fn expected_answers(
    stamps: &MessageTimestamps,
    batches: &[Vec<BatchQuery>],
) -> Vec<Vec<Option<u8>>> {
    let _s = span("net.answer_query");
    let mut body = Vec::with_capacity(8);
    batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|q| {
                    body.clear();
                    match answer_query_into(stamps, q.kind, q.m1, q.m2, &mut body) {
                        Ok(()) if body.len() == 1 => Some(body[0]),
                        _ => None,
                    }
                })
                .collect()
        })
        .collect()
}

/// Compares served batches with the in-process answers; each entry is
/// one attempted operation.
fn check_answers(h: &mut Harness, expected: &[Vec<Option<u8>>], served: &[Vec<BatchEntry>]) {
    let (mut attempted, mut wrong) = (0u64, 0u64);
    for (want, got) in expected.iter().zip(served) {
        attempted += want.len() as u64;
        if got.len() != want.len() {
            wrong += want.len() as u64;
            continue;
        }
        for (want, entry) in want.iter().zip(got) {
            let ok = matches!((entry, want), (BatchEntry::Answer(a), Some(b)) if a[..] == [*b]);
            wrong += u64::from(!ok);
        }
    }
    let missing = expected.len().saturating_sub(served.len()) * BATCH;
    h.tally(attempted + missing as u64, wrong + missing as u64, || {
        format!("{wrong} served answers differ from answer_query, {missing} missing")
    });
}

/// In-process probes over the same query set: the compare kernel, the
/// answer encoder, and the server's frame pump without a socket.
fn probe(
    h: &mut Harness,
    fabric: &QueryFabric,
    name: &str,
    stamps: &Arc<MessageTimestamps>,
    batches: &[Vec<BatchQuery>],
) {
    let queries = batches.iter().flatten();
    let count = batches.len() * BATCH;
    h.layer("bench.queries", count as f64);
    let in_range =
        |q: &BatchQuery| (q.m1 as usize) < stamps.len() && (q.m2 as usize) < stamps.len();
    {
        let _s = span("core.precedes");
        let mut ordered = 0usize;
        for q in queries.clone().filter(|q| in_range(q)) {
            ordered +=
                usize::from(stamps.precedes(MessageId(q.m1 as usize), MessageId(q.m2 as usize)));
        }
        std::hint::black_box(ordered);
    }
    let concurrent = queries
        .clone()
        .filter(|q| in_range(q))
        .filter(|q| stamps.concurrent(MessageId(q.m1 as usize), MessageId(q.m2 as usize)))
        .count();
    h.prop("concurrent_share", concurrent as f64 / count as f64);

    // The pump answers the very frames the client sent; their encoded
    // size plus the answers' is the wire cost per query.
    let mut frames = Vec::new();
    for (corr, b) in batches.iter().enumerate() {
        if encode_query_batch_into(&mut frames, Some(corr as u32), name, b).is_err() {
            h.check(false, || "encode a QUERY3 frame".to_string());
            return;
        }
    }
    let mut reader = FrameReader::new();
    reader.feed(&frames);
    fabric.publish_shared(name, Arc::clone(stamps));
    let mut scratch = FrameScratch::new();
    let pumped = {
        let _s = span("net.pump_frames");
        pump_frames(&mut reader, fabric, &mut scratch)
    };
    fabric.publish(name, MessageTimestamps::new(Vec::new()));
    h.check(matches!(pumped, Ok(true)), || {
        format!("pump_frames: {pumped:?}")
    });
    h.layer(
        "net.bytes_per_query",
        (frames.len() + scratch.out.len()) as f64 / count as f64,
    );
}
