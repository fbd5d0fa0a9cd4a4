//! Experiment N1: the network layer — precedence-query server throughput
//! (single queries, lock-step batches, pipelined windows, and the sharded
//! multi-trace fabric), the allocation-free serving hot path, the
//! vectorized clock kernels, and the TCP transport's overhead against the
//! in-process baseline. Every query travels as QUERY3/ANSWER3 frames.
//!
//! Workload families, self-timed and exported as machine-readable JSON:
//!
//! * `query` — a stamped trace served over loopback TCP; closed-loop
//!   client connections hammer it with single `precedes` queries (a batch
//!   of one per frame, lock-step, plus a `chain-of` variant), reporting
//!   queries/sec and nearest-rank p50/p99 latency. The paper's selling
//!   point is O(d) comparisons per query; the server should sustain well
//!   over 10k queries/sec even with framing and socket hops in the path.
//! * `query_batch` — the same trace asked in lock-step batches, one frame
//!   in flight, on a **single** connection, at batch sizes 16 and 256.
//!   This isolates the syscall-amortisation win: one `write`/`read` pair
//!   per N queries instead of per query. Latency is reported **amortised**
//!   (batch round trip / batch size) — the per-query cost a caller with
//!   N outstanding questions actually pays.
//! * `query_pipeline` — the same single connection with a window of W
//!   batches in flight (W ∈ {1, 4, 16}): requests stream without waiting
//!   for answers, the server answers every buffered frame in one write,
//!   and the client decodes answers as borrowed views straight into
//!   booleans — no allocation on either side in steady state. The
//!   `batch_256` and `window_16` rows, whose ratio is floored, are each
//!   the median of five runs alternating between the two.
//! * `serve` — the steady-state serving loop driven in-process under a
//!   counting global allocator: the record's `allocs` detail is the
//!   number of heap allocations across thousands of pumped batches, and
//!   the full-mode floor demands exactly zero.
//! * `kernel` — the chunked 8-lane merge kernel behind every clock
//!   backend, vectorized vs the black-box-per-element scalar loop at
//!   d=256, reported as the ratio of the two sides' medians over five
//!   alternating passes.
//! * `fabric` — a 4-shard catalog of 8 stamped traces served by the
//!   fixed worker pool; closed-loop connections spread batched load
//!   across every trace, reporting aggregate queries/sec across shards.
//! * `ring_transport` — the same token-ring behaviors run in-process
//!   (parking matcher) and as a loopback TCP mesh, so the transport's
//!   cost per rendezvous and its wire accounting sit side by side; each
//!   row is the median of five alternating runs.
//!
//! Usage (a `harness = false` bench; the report schema and its floors are
//! `synctime_bench::report::NET_QUERY`):
//!
//! ```text
//! cargo bench -p synctime-bench --bench net_query
//!   -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the workloads for CI; `--out` writes the JSON report
//! to a file. The run fails if its report does not conform: a full report
//! must clear the acceptance floors (single-query, batch, pipeline,
//! fabric and kernel), and every report must show zero steady-state
//! serving allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use synctime_bench::report::{self, obj, rate, ratio, Record, NET_QUERY};
use synctime_bench::token_ring;
use synctime_core::online::OnlineStamper;
use synctime_core::{kernel, wire, MessageTimestamps};
use synctime_graph::{decompose, topology, EdgeDecomposition, Graph};
use synctime_net::{
    default_pool_size, encode_query_batch_into, pump_frames, serve_fabric, topology_hash_of,
    BatchQuery, FrameReader, FrameScratch, QueryClient, QueryFabric, TcpMeshBuilder,
    DEFAULT_TRACE_NAME,
};
use synctime_obs::{nearest_rank_percentile, RunStats};
use synctime_runtime::Runtime;

// ------------------------------------------------- counting allocator
//
// The whole bench binary runs under a counting wrapper of the system
// allocator so the `serve/steady_state` record can *prove* the zero-
// allocation claim rather than assert it. Only the thread that sets its
// thread-local recording flag is counted, so the server/client threads
// of the socket benchmarks never pollute the count (and pay only an
// unconditional TLS read).

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init: the allocator must be able to read the flag without
    // allocating (lazy TLS init would recurse).
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}

fn recording() -> bool {
    RECORDING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if recording() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if recording() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if recording() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ----------------------------------------------------------- query server

/// One stamped random trace over `complete(processes)`.
fn stamped_trace(processes: usize, messages: usize, seed: u64) -> (MessageTimestamps, usize) {
    let topo = topology::complete(processes);
    let mut rng = StdRng::seed_from_u64(seed);
    let comp = synctime_sim::workload::RandomWorkload::messages(messages).generate(&topo, &mut rng);
    let dec = decompose::best_known(&topo);
    let stamps = OnlineStamper::new(&dec)
        .stamp_computation(&comp)
        .expect("stamping a generated trace");
    (stamps, dec.len())
}

/// Wire bytes per query of one QUERY3 frame of `batch_size` precedes
/// queries against `trace` and its all-boolean ANSWER3, priced by the
/// core model.
fn bytes_per_query(trace: &str, batch_size: usize) -> f64 {
    (wire::batch_query3_frame_bytes(trace.len(), batch_size)
        + wire::batch_answer3_frame_bytes(batch_size, batch_size)) as f64
        / batch_size as f64
}

/// Spawns a query server over a freshly stamped random trace and runs
/// `connections` closed-loop clients, each issuing `per_client` single
/// queries of the given kind against the server's default trace (the
/// empty trace id). Latency percentiles are nearest-rank over every
/// query.
fn bench_query(
    processes: usize,
    messages: usize,
    connections: usize,
    per_client: usize,
    chain: bool,
    variant: &'static str,
) -> Record {
    let (stamps, dimension) = stamped_trace(processes, messages, 7);
    let m = stamps.len() as u32;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let fabric = Arc::new(QueryFabric::single(DEFAULT_TRACE_NAME, stamps));
    std::thread::spawn(move || {
        let _ = serve_fabric(listener, fabric, default_pool_size());
    });

    let started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(&addr).expect("connect to query server");
                let mut rng = StdRng::seed_from_u64(1000 + c as u64);
                let mut latencies = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let m1 = rng.gen_range(0..m);
                    let m2 = rng.gen_range(0..m);
                    let at = Instant::now();
                    if chain {
                        client.chain_of("", m1).expect("chain query");
                    } else {
                        client
                            .precedes_many_pipelined("", &[(m1, m2)], 1, 1)
                            .expect("precedes query");
                    }
                    latencies.push(at.elapsed().as_nanos() as u64);
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(connections * per_client);
    for w in workers {
        latencies.extend(w.join().expect("client thread"));
    }
    let elapsed_ns = started.elapsed().as_nanos();
    latencies.sort_unstable();
    let ops = latencies.len() as u64;
    Record {
        workload: "query",
        variant,
        size: processes,
        ops,
        elapsed_ns,
        detail: obj(vec![
            ("messages", Value::UInt(m as u64)),
            ("connections", Value::UInt(connections as u64)),
            ("dimension", Value::UInt(dimension as u64)),
            (
                "p50_ns",
                Value::UInt(nearest_rank_percentile(&latencies, 50, 100)),
            ),
            (
                "p99_ns",
                Value::UInt(nearest_rank_percentile(&latencies, 99, 100)),
            ),
        ]),
    }
}

// ------------------------------------------------- batched queries / fabric

/// Serves a catalog of `traces` stamped traces from a `shards`-way fabric
/// behind a worker pool sized to the connection count (closed-loop clients
/// starve on anything smaller), then drives `connections` clients, each
/// sending `batches_per_client` random-precedes batches of `batch_size`,
/// spread round-robin across every trace.
///
/// Latency is **amortised**: each batch contributes one sample of
/// `round_trip / batch_size`, the per-query cost a caller actually pays
/// when it has `batch_size` outstanding questions. `ops` counts queries,
/// so `ops_per_sec` is aggregate queries/sec across all shards.
fn bench_batch(
    shards: usize,
    traces: usize,
    connections: usize,
    batches_per_client: usize,
    batch_size: usize,
    messages: usize,
    (workload, variant): (&'static str, &'static str),
) -> Record {
    let processes = 8;
    let fabric = QueryFabric::new(shards);
    let mut m = u32::MAX;
    for t in 0..traces {
        let (stamps, _) = stamped_trace(processes, messages, 7 + t as u64);
        m = m.min(stamps.len() as u32);
        fabric.publish(&format!("trace-{t}"), stamps);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let serving = Arc::new(fabric);
    let pool = Arc::clone(&serving);
    std::thread::spawn(move || {
        let _ = serve_fabric(listener, pool, connections);
    });

    let started = Instant::now();
    let workers: Vec<_> = (0..connections)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = QueryClient::connect(&addr).expect("connect to fabric");
                let mut rng = StdRng::seed_from_u64(2000 + c as u64);
                let mut amortised = Vec::with_capacity(batches_per_client);
                for b in 0..batches_per_client {
                    let trace = format!("trace-{}", (c + b) % traces);
                    let pairs: Vec<(u32, u32)> = (0..batch_size)
                        .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m)))
                        .collect();
                    let at = Instant::now();
                    let verdicts = client
                        .precedes_many_pipelined(&trace, &pairs, batch_size, 1)
                        .expect("batch query");
                    let rtt = at.elapsed().as_nanos() as u64;
                    assert_eq!(verdicts.len(), batch_size);
                    amortised.push(rtt / batch_size as u64);
                }
                amortised
            })
        })
        .collect();
    let mut amortised: Vec<u64> = Vec::with_capacity(connections * batches_per_client);
    for w in workers {
        amortised.extend(w.join().expect("client thread"));
    }
    let elapsed_ns = started.elapsed().as_nanos();
    amortised.sort_unstable();
    let ops = (connections * batches_per_client * batch_size) as u64;
    Record {
        workload,
        variant,
        size: processes,
        ops,
        elapsed_ns,
        detail: obj(vec![
            ("messages", Value::UInt(m as u64)),
            ("connections", Value::UInt(connections as u64)),
            ("shards", Value::UInt(shards as u64)),
            ("traces", Value::UInt(traces as u64)),
            ("batch_size", Value::UInt(batch_size as u64)),
            (
                "bytes_per_query",
                Value::Float(bytes_per_query("trace-0", batch_size)),
            ),
            (
                "p50_ns",
                Value::UInt(nearest_rank_percentile(&amortised, 50, 100)),
            ),
            (
                "p99_ns",
                Value::UInt(nearest_rank_percentile(&amortised, 99, 100)),
            ),
        ]),
    }
}

// ------------------------------------------------- pipelined windows

/// A single connection to a one-trace fabric, asked over pipelined
/// frames: each call streams `chunks_per_call` QUERY3 batches of
/// `batch_size` precedes queries with `window` in flight. Latency is
/// amortised per query across the whole call; `ops_per_sec` is the
/// sustained single-connection rate the window buys.
fn bench_pipeline(
    window: usize,
    batch_size: usize,
    chunks_per_call: usize,
    calls: usize,
    messages: usize,
    variant: &'static str,
) -> Record {
    let processes = 8;
    let fabric = QueryFabric::new(1);
    let (stamps, _) = stamped_trace(processes, messages, 7);
    let m = stamps.len() as u32;
    fabric.publish("trace-0", stamps);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let _ = serve_fabric(listener, Arc::new(fabric), 1);
    });

    let mut client = QueryClient::connect(&addr).expect("connect to fabric");
    let mut rng = StdRng::seed_from_u64(3000 + window as u64);
    let pairs: Vec<(u32, u32)> = (0..batch_size * chunks_per_call)
        .map(|_| (rng.gen_range(0..m), rng.gen_range(0..m)))
        .collect();
    let mut amortised = Vec::with_capacity(calls);
    let started = Instant::now();
    for _ in 0..calls {
        let at = Instant::now();
        let verdicts = client
            .precedes_many_pipelined("trace-0", &pairs, batch_size, window)
            .expect("pipelined call");
        let ns = at.elapsed().as_nanos() as u64;
        assert_eq!(verdicts.len(), pairs.len());
        amortised.push(ns / pairs.len() as u64);
    }
    let elapsed_ns = started.elapsed().as_nanos();
    amortised.sort_unstable();
    let ops = (calls * pairs.len()) as u64;
    Record {
        workload: "query_pipeline",
        variant,
        size: processes,
        ops,
        elapsed_ns,
        detail: obj(vec![
            ("messages", Value::UInt(m as u64)),
            ("window", Value::UInt(window as u64)),
            ("batch_size", Value::UInt(batch_size as u64)),
            ("chunks_per_call", Value::UInt(chunks_per_call as u64)),
            (
                "bytes_per_query",
                Value::Float(bytes_per_query("trace-0", batch_size)),
            ),
            (
                "p50_ns",
                Value::UInt(nearest_rank_percentile(&amortised, 50, 100)),
            ),
            (
                "p99_ns",
                Value::UInt(nearest_rank_percentile(&amortised, 99, 100)),
            ),
        ]),
    }
}

// --------------------------------------------- steady-state allocations

/// Drives the serving hot path in-process under the counting allocator:
/// one warm-up pump, then `pumps` counted pumps of a 256-query QUERY3
/// batch. The detail's `allocs` is the total heap allocations the
/// serving thread made across all of them — the full-mode floor is 0.
fn bench_alloc_steady_state(pumps: usize) -> Record {
    let processes = 8;
    let fabric = QueryFabric::new(1);
    let (stamps, _) = stamped_trace(processes, 400, 7);
    let m = stamps.len() as u32;
    fabric.publish("trace-0", stamps);

    let batch_size = 256usize;
    let mut rng = StdRng::seed_from_u64(4000);
    let queries: Vec<BatchQuery> = (0..batch_size)
        .map(|_| BatchQuery {
            kind: synctime_net::query::QUERY_PRECEDES,
            m1: rng.gen_range(0..m),
            m2: rng.gen_range(0..m),
        })
        .collect();
    let mut wire_bytes = Vec::new();
    encode_query_batch_into(&mut wire_bytes, Some(1), "trace-0", &queries)
        .expect("bench batch encodes");

    let mut reader = FrameReader::new();
    let mut scratch = FrameScratch::new();
    // Warm-up: grow every buffer to steady-state capacity.
    reader.feed(&wire_bytes);
    scratch.out.clear();
    assert!(pump_frames(&mut reader, &fabric, &mut scratch).expect("warm-up pump"));

    ALLOCS.store(0, Ordering::SeqCst);
    RECORDING.with(|flag| flag.set(true));
    let started = Instant::now();
    for _ in 0..pumps {
        reader.feed(&wire_bytes);
        scratch.out.clear();
        assert!(pump_frames(&mut reader, &fabric, &mut scratch).expect("steady-state pump"));
    }
    let elapsed_ns = started.elapsed().as_nanos();
    RECORDING.with(|flag| flag.set(false));
    let allocs = ALLOCS.load(Ordering::SeqCst);

    Record {
        workload: "serve",
        variant: "steady_state",
        size: processes,
        ops: (pumps * batch_size) as u64,
        elapsed_ns,
        detail: obj(vec![
            ("messages", Value::UInt(m as u64)),
            ("batch_size", Value::UInt(batch_size as u64)),
            ("pumps", Value::UInt(pumps as u64)),
            ("allocs", Value::UInt(allocs)),
        ]),
    }
}

// ------------------------------------------------------ kernel speedup

/// The 8-lane chunked merge kernel against the black-box-per-element
/// scalar loop, at clock dimension `dimension`. Each of `SAMPLES`
/// alternating passes times both sides doing the same `iters` merges over
/// the same pseudo-random lanes; the detail carries each side's median
/// and their ratio, the speedup the full-mode floor checks.
fn bench_kernel_merge(dimension: usize, iters: usize) -> Record {
    use std::hint::black_box;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let src: Vec<u64> = (0..dimension).map(|_| next()).collect();
    let mut dst_scalar: Vec<u64> = (0..dimension).map(|_| next()).collect();
    let mut dst_vector = dst_scalar.clone();

    let (mut scalar, mut vector) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        // Scalar baseline: black_box on every element defeats
        // autovectorization, modelling the per-component loop the clocks
        // used before the kernel.
        let scalar_started = Instant::now();
        for _ in 0..iters {
            for (d, s) in dst_scalar.iter_mut().zip(&src) {
                *d = black_box((*d).max(*s));
            }
        }
        scalar.push(scalar_started.elapsed().as_nanos() as u64);

        let vector_started = Instant::now();
        for _ in 0..iters {
            kernel::merge_max_lanes(black_box(&mut dst_vector), black_box(&src));
        }
        vector.push(vector_started.elapsed().as_nanos() as u64);
        assert_eq!(dst_scalar, dst_vector, "kernels disagree on the merge");
    }
    let median = |mut ns: Vec<u64>| {
        ns.sort_unstable();
        ns[SAMPLES / 2]
    };
    let (scalar_ns, vector_ns) = (median(scalar), median(vector));

    let speedup = if vector_ns > 0 {
        scalar_ns as f64 / vector_ns as f64
    } else {
        0.0
    };
    Record {
        workload: "kernel",
        variant: "merge_d256",
        size: 1,
        ops: (iters * dimension) as u64,
        elapsed_ns: vector_ns as u128,
        detail: obj(vec![
            ("dimension", Value::UInt(dimension as u64)),
            ("iters", Value::UInt(iters as u64)),
            ("scalar_ns", Value::UInt(scalar_ns)),
            ("vector_ns", Value::UInt(vector_ns)),
            ("speedup_vs_scalar", Value::Float(speedup)),
            ("samples", Value::UInt(SAMPLES as u64)),
        ]),
    }
}

// ------------------------------------------------- alternating samples

/// Runs per row of a ratio whose two sides are timed apart: the
/// `ring_transport` rows, the kernel's scalar and vector passes, and the
/// `batch_256` and `window_16` rows. Each side alternates with the other
/// and reports its median run, so one host stall cannot move the ratio:
/// one-run `tcp` rows spread from 7.1 k to 21.6 k ops/s across five suite
/// runs, and one-pass ratios fell below their floors in 2 of 5 and 3 of
/// 30 full suite runs.
const SAMPLES: usize = 5;

/// The median of one row's runs by elapsed time (each run does the same
/// work), its detail noting how many runs it was taken from.
fn median_run(mut runs: Vec<Record>) -> Record {
    runs.sort_by_key(|r| r.elapsed_ns);
    let count = runs.len();
    let mut median = runs.swap_remove(count / 2);
    if let Value::Object(fields) = &mut median.detail {
        fields.push(("samples".to_string(), Value::UInt(count as u64)));
    }
    median
}

// -------------------------------------------------------- ring transport

/// The token ring in process (parking matcher) and over a loopback TCP
/// mesh, alternating `SAMPLES` runs of each. Each row is its median run
/// by elapsed time, with that run's wire accounting.
fn bench_ring(n: usize, rounds: u64) -> [Record; 2] {
    let mut local = Vec::with_capacity(SAMPLES);
    let mut tcp = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        local.push(ring_local(n, rounds));
        tcp.push(ring_tcp(n, rounds));
    }
    [("local", local), ("tcp", tcp)].map(|(variant, mut samples)| {
        samples.sort_by_key(|&(elapsed_ns, _)| elapsed_ns);
        let (elapsed_ns, stats) = samples.swap_remove(SAMPLES / 2);
        assert_eq!(stats.messages, n as u64 * rounds);
        Record {
            workload: "ring_transport",
            variant,
            size: n,
            ops: stats.messages,
            elapsed_ns,
            detail: obj(vec![
                ("samples", Value::UInt(SAMPLES as u64)),
                ("total_wire_bytes", Value::UInt(stats.total_wire_bytes)),
                ("wire_savings_ratio", Value::Float(stats.wire_savings_ratio)),
                ("ack_latency_p50_ns", Value::UInt(stats.ack_latency_p50_ns)),
                ("ack_latency_p99_ns", Value::UInt(stats.ack_latency_p99_ns)),
            ]),
        }
    })
}

/// One in-process ring run: its elapsed time and stats.
fn ring_local(n: usize, rounds: u64) -> (u128, RunStats) {
    let topo = topology::cycle(n);
    let dec = decompose::best_known(&topo);
    let rt = Runtime::new(&topo, &dec);
    let started = Instant::now();
    let run = rt.run(token_ring(n, rounds)).expect("local ring run");
    (started.elapsed().as_nanos(), run.stats().clone())
}

/// One ring run over a loopback TCP mesh, a thread per node: its elapsed
/// time (mesh establishment included) and merged stats.
fn ring_tcp(n: usize, rounds: u64) -> (u128, RunStats) {
    let topo = topology::cycle(n);
    let dec = decompose::best_known(&topo);
    let hash = topology_hash_of(n, &dec);
    let builders: Vec<TcpMeshBuilder> = (0..n)
        .map(|_| TcpMeshBuilder::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    let addrs: Vec<_> = builders.iter().map(TcpMeshBuilder::local_addr).collect();
    let started = Instant::now();
    let handles: Vec<_> = builders
        .into_iter()
        .zip(token_ring(n, rounds))
        .enumerate()
        .map(|(id, (builder, behavior))| {
            let topo: Graph = topo.clone();
            let dec: EdgeDecomposition = dec.clone();
            let addrs = addrs.clone();
            std::thread::spawn(move || {
                let neighbors: Vec<usize> = topo.neighbors(id).collect();
                let mesh = builder
                    .establish(
                        id,
                        &addrs,
                        &neighbors,
                        hash,
                        std::time::Duration::from_secs(20),
                    )
                    .expect("mesh establishment");
                let (tx, rx) = mesh.channels();
                Runtime::new(&topo, &dec).run_process(id, behavior, tx, rx)
            })
        })
        .collect();
    let mut parts = Vec::with_capacity(n);
    for h in handles {
        let run = h.join().expect("node thread");
        assert_eq!(run.outcome(), None, "tcp ring node failed");
        let (_, _, _, stats) = run.into_parts();
        parts.push(stats);
    }
    (started.elapsed().as_nanos(), RunStats::merged(&parts))
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> (Vec<Record>, Value) {
    let (messages, connections, per_client, batches, ring_rounds) = if smoke {
        (60, 2, 50, 4, 5)
    } else {
        (2_000, 4, 20_000, 1_000, 400)
    };
    let mut records = Vec::new();
    eprintln!(
        "net_query: single queries ({connections} connections x {per_client} queries, \
         {messages}-message trace)"
    );
    records.push(bench_query(
        8,
        messages,
        connections,
        per_client,
        false,
        "precedes",
    ));
    records.push(bench_query(
        8,
        messages,
        1,
        per_client,
        false,
        "precedes_1conn",
    ));
    records.push(bench_query(
        8,
        messages,
        connections,
        per_client / 4,
        true,
        "chain_of",
    ));
    eprintln!("net_query: lock-step batches (single connection, batch 16)");
    records.push(bench_batch(
        1,
        1,
        1,
        batches * 4,
        16,
        messages,
        ("query_batch", "batch_16"),
    ));
    // Full mode: 1024 calls of 8192 queries keep even the fastest row,
    // W=16 (~57 M queries/s on a 2-vCPU KVM guest), above 90 ms of work,
    // so one host stall cannot sink its floor.
    let (pipe_chunks, pipe_calls, pumps, kernel_iters) = if smoke {
        (8, 2, 64, 2_000)
    } else {
        (32, 1024, 4_096, 400_000)
    };
    eprintln!(
        "net_query: pipelined windows (single connection, batch 256 x \
         {pipe_chunks} chunks, W in {{1, 4}})"
    );
    records.push(bench_pipeline(
        1,
        256,
        pipe_chunks,
        pipe_calls,
        messages,
        "window_1",
    ));
    records.push(bench_pipeline(
        4,
        256,
        pipe_chunks,
        pipe_calls,
        messages,
        "window_4",
    ));
    eprintln!(
        "net_query: lock-step batch 256 vs pipelined window 16, median of {SAMPLES} \
         alternating runs each"
    );
    let (mut batch256, mut window16) = (Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        batch256.push(bench_batch(
            1,
            1,
            1,
            batches,
            256,
            messages,
            ("query_batch", "batch_256"),
        ));
        window16.push(bench_pipeline(
            16,
            256,
            pipe_chunks,
            pipe_calls,
            messages,
            "window_16",
        ));
    }
    records.push(median_run(batch256));
    records.push(median_run(window16));
    eprintln!("net_query: steady-state serving allocations ({pumps} pumps x 256 queries)");
    records.push(bench_alloc_steady_state(pumps));
    eprintln!("net_query: merge kernel vs scalar (d=256, {kernel_iters} iters)");
    records.push(bench_kernel_merge(256, kernel_iters));
    eprintln!("net_query: sharded fabric (4 shards x 8 traces, {connections} connections)");
    records.push(bench_batch(
        4,
        8,
        connections,
        batches / 2,
        256,
        messages,
        ("fabric", "shards_4"),
    ));
    eprintln!(
        "net_query: ring transport ({ring_rounds} rounds x 6 processes, local vs tcp, \
         median of {SAMPLES} runs each)"
    );
    records.extend(bench_ring(6, ring_rounds));

    let qps = |workload: &str, variant: &str| rate(&records, workload, variant);
    // A record's detail figure as written (a missing one fails validation).
    let detail = |workload: &str, variant: &str, key: &str| -> Value {
        records
            .iter()
            .find(|r| r.workload == workload && r.variant == variant)
            .and_then(|r| r.detail.get_field(key))
            .cloned()
            .unwrap_or(Value::Null)
    };
    let batch256 = qps("query_batch", "batch_256");
    // A lone precedes query is a batch of one against the default trace.
    let bytes_per_query_single = bytes_per_query("", 1);
    let bytes_per_query_batch256 = bytes_per_query("trace-0", 256);
    let derived = obj(vec![
        ("query_precedes_qps", Value::Float(qps("query", "precedes"))),
        ("query_chain_qps", Value::Float(qps("query", "chain_of"))),
        ("batch16_qps", Value::Float(qps("query_batch", "batch_16"))),
        ("batch256_qps", Value::Float(batch256)),
        (
            "batch256_speedup_vs_single",
            Value::Float(ratio(batch256, qps("query", "precedes_1conn"))),
        ),
        (
            "pipeline_window1_qps",
            Value::Float(qps("query_pipeline", "window_1")),
        ),
        (
            "pipeline_window4_qps",
            Value::Float(qps("query_pipeline", "window_4")),
        ),
        (
            "pipeline_window16_qps",
            Value::Float(qps("query_pipeline", "window_16")),
        ),
        (
            "pipeline16_speedup_vs_batch256",
            Value::Float(ratio(qps("query_pipeline", "window_16"), batch256)),
        ),
        (
            "serve_steady_state_allocs",
            detail("serve", "steady_state", "allocs"),
        ),
        (
            "kernel_merge_speedup_d256",
            detail("kernel", "merge_d256", "speedup_vs_scalar"),
        ),
        (
            "fabric_aggregate_qps",
            Value::Float(qps("fabric", "shards_4")),
        ),
        ("fabric_p99_ns", detail("fabric", "shards_4", "p99_ns")),
        (
            "bytes_per_query_single",
            Value::Float(bytes_per_query_single),
        ),
        (
            "bytes_per_query_batch256",
            Value::Float(bytes_per_query_batch256),
        ),
        // A pipelined frame is the same 256-query batch frame.
        (
            "bytes_per_query_pipeline256",
            Value::Float(bytes_per_query_batch256),
        ),
        (
            "transport_slowdown_tcp_vs_local",
            Value::Float(ratio(
                qps("ring_transport", "local"),
                qps("ring_transport", "tcp"),
            )),
        ),
    ]);
    (records, derived)
}

fn main() {
    report::main(&NET_QUERY, run_suite);
}
