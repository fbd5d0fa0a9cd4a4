//! End-to-end benchmark of the synctime pipeline: rendezvous → stamp →
//! store append → recover → serve → pipelined query, with a traced
//! per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest|mesh|churn|restart --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload is a closed loop in this
//! one process over loopback, with every layer's default configuration:
//! `Runtime::new` (watchdog on at 10 s, `ClockBackend::Auto`, parking
//! matcher), `spawn_writer`'s flush policy (every 1024 records or 25 ms
//! idle, fsync at seal), the default compaction trigger, and
//! `default_pool_size()` query workers on `DEFAULT_SHARDS`. The query
//! load is one client connection; while it queries, the client runs on
//! one CPU and the server on another (see `serve::Server`). Nothing is
//! tuned to dodge a known cost, so the watchdog poll and the fixed-lane
//! clock stay visible.
//!
//! An iteration is one user session: setup (input generation,
//! decomposition, mesh establishment, writing the `restart` store), the
//! timed pipeline, then the serving leg of `serve.rs` over the store the
//! pipeline wrote, then the output checks. Iterations repeat until
//! `--seconds` is spent; every metric pools the samples of all
//! iterations (see `harness::END_TO_END`), so a slow moment of the host
//! moves one sample, not the figure. The first iteration is a warm-up:
//! its outputs are checked, its samples dropped.
//!
//! Workloads — which layer does most of the work, and which layers each
//! bypasses (the "should not move" side of a later claim):
//!
//! * `ingest` (`ingest.rs`): `runtime` rendezvous and the live `store`
//!   writer; no sockets or recovery until the serving leg.
//! * `mesh` (`mesh.rs`): the same script over the `net` TCP mesh plus
//!   batch persistence; bypasses the watchdog and the live writer.
//! * `churn` (`churn.rs`): per-epoch fixed costs of `sim::run_churn`
//!   (thread spawn/join, the watchdog poll tail, decomposition edits,
//!   `apply_reconfigure`); bypasses sockets and large traces.
//! * `restart` (`restart.rs`): `store` recovery and materialize, `net`
//!   serving and the `core` compare over stamps far past the L2; no
//!   rendezvous at all.
//!
//! End-to-end metrics (tracing off), each measured on every workload:
//!
//! * `setup_s` — everything before the timed phase.
//! * `peak_rss_mb` — resident high-water mark of the timed windows,
//!   restarted after setup so the generator's memory does not count.
//! * `msgs_per_s` — messages stamped and durably stored per second, from
//!   the first rendezvous to the sealed, fsynced store; on `restart`,
//!   which stamps nothing, messages brought back into service per second
//!   of restart.
//! * `restart_ms` — `read_trace_dir` start to the first answer on a fresh
//!   connection, over the store the workload wrote.
//! * `qps` — queries answered per second by the one pipelining connection
//!   (window 16, 256 queries per QUERY3 batch), one sample per pass.
//! * `batch_p50_us` — median round trip of one 256-query batch sent
//!   lock-step, one sample per lock-step phase of 48 batches.
//!
//! `setup_s` reports the median of its samples; every other metric the
//! mean of its samples without their highest and lowest tenth.
//!
//! Failed, refused or wrong operations are the result line's `failed`
//! out of `attempted`: process outcomes, every served answer entry,
//! connections, and the output checks. The report line carries their
//! ratio as `fail_ratio`.
//!
//! Per-layer metrics come from a traced run (`--trace 1`): spans around
//! every public call the workloads make into `sim`, `graph`, `runtime`,
//! `core`, `net` and `store` (see `trace.rs`), counts taken at the same
//! boundaries, and in-process probes. A traced run alternates untraced
//! and traced iterations, so it also reports the tracing overhead. A
//! layer a workload bypasses reads 0. Spans are written to
//! `.bench_work/spans/<workload>-<seed>.tsv` when the run ends.
//!
//! Out of scope, each a later benchmark change of its own: the offline
//! engines (`poset`, `par`, `core::offline`), `detect`, `asynchrony`, the
//! `cli` binary's own plumbing, serving from traces that fit in cache,
//! chain-of scans, and live-tail republishing.

mod churn;
mod harness;
mod ingest;
mod measure;
mod mesh;
mod restart;
mod serve;
mod trace;

use std::process::ExitCode;

use harness::{Args, Harness};

/// The trace id every workload stores and serves its run under.
const TRACE_NAME: &str = "run";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload: fn(&mut Harness, &serve::Server) = match args.workload.as_str() {
        "ingest" => ingest::run,
        "mesh" => mesh::run,
        "churn" => churn::run,
        "restart" => restart::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}` (ingest, mesh, churn, restart)");
            return ExitCode::from(2);
        }
    };
    let work = harness::work_dir(&args.workload);
    let mut h = Harness::new(&args, work.clone());
    match serve::Server::start() {
        Ok(server) => workload(&mut h, &server),
        Err(e) => h.check(false, || format!("start the query server: {e}")),
    }
    let _ = std::fs::remove_dir_all(&work);
    let analysis = args.trace.then(|| {
        let spans = trace::take();
        let path = std::path::Path::new(".bench_work")
            .join("spans")
            .join(format!("{}-{}.tsv", args.workload, args.seed));
        if let Err(e) = trace::write_tsv(&path, &spans) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        trace::Analysis::new(spans)
    });
    h.finish(&args.workload, analysis);
    ExitCode::SUCCESS
}
