//! The run loop every workload shares: iterations until the time budget
//! is spent, check counting, samples, and the two output lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use synctime_core::clock::ClockBackend;

use crate::measure::{median, percentile, trimmed_mean};
use crate::trace::{self, Analysis};

/// End-to-end metrics (`--trace 0`), in `BENCHMARK.json` order.
///
/// `setup_s` reports the median of its samples, every other metric their
/// trimmed mean (see [`trimmed_mean`]). On a 2-vCPU KVM guest of a
/// shared Xeon host, the same single-thread loop pinned to one vCPU ran
/// either at full speed or about 1.4× slower, in stretches from a tenth
/// of a second to many seconds, and the fast share of a 20 s stretch
/// varied from run to run. A median lands wholly in whichever state held
/// more than half of a run, so it jumps between the two; a mean moves in
/// proportion to the share.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("msgs_per_s", "msg/s"),
    ("restart_ms", "ms"),
    ("qps", "query/s"),
    ("batch_p50_us", "us"),
];

/// Per-layer metrics (`--trace 1`), in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.send_p50_us", "us"),
    ("runtime.send_p99_us", "us"),
    ("runtime.receive_p50_us", "us"),
    ("runtime.blocked_share", "ratio"),
    ("runtime.wakeups_per_msg", "wakeup/msg"),
    ("runtime.run_start_ms", "ms"),
    ("runtime.run_tail_ms", "ms"),
    ("runtime.null_run_ms", "ms"),
    ("runtime.wire_bytes_per_msg", "B/msg"),
    ("runtime.failed", "count"),
    ("core.stamp_ms", "ms"),
    ("core.precedes_ns", "ns"),
    ("graph.decompose_ms", "ms"),
    ("sim.generate_ms", "ms"),
    ("sim.epoch_ms", "ms"),
    ("sim.reconfigure_p50_us", "us"),
    ("sim.reconfigure_p99_us", "us"),
    ("store.seal_ms", "ms"),
    ("store.writer_tax", "ratio"),
    ("store.compactions", "count"),
    ("store.persist_ms", "ms"),
    ("store.bytes_per_msg", "B/msg"),
    ("store.recover_ms", "ms"),
    ("store.recover_records_per_s", "record/s"),
    ("store.recover_dropped", "count"),
    ("store.materialize_ms", "ms"),
    ("store.materialize_rss_mb", "MiB"),
    ("net.mesh_establish_ms", "ms"),
    ("net.report_json_ms", "ms"),
    ("net.publish_ms", "ms"),
    ("net.connect_ms", "ms"),
    ("net.submit_p50_us", "us"),
    ("net.submit_p99_us", "us"),
    ("net.batch_p99_us", "us"),
    ("net.pump_ns_per_query", "ns"),
    ("net.answer_ns_per_query", "ns"),
    ("net.bytes_per_query", "B/query"),
    ("path.sim_ms", "ms"),
    ("path.graph_ms", "ms"),
    ("path.runtime_ms", "ms"),
    ("path.core_ms", "ms"),
    ("path.store_ms", "ms"),
    ("path.net_ms", "ms"),
    ("path.bench_ms", "ms"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let number = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{what} expects a whole number, got `{value}`"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number("--seed")?),
                "--seconds" => seconds = Some(number("--seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                    })
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// One iteration's place in the run. In a traced run iterations cycle
/// through `kind`s: kind 1 is traced, the others untraced, so the same
/// run measures the tracing overhead (and any untraced baseline a
/// workload adds as kind 2).
#[derive(Debug, Clone, Copy)]
pub struct Iteration {
    pub kind: u32,
}

pub struct Harness {
    pub seed: u64,
    pub trace_run: bool,
    budget: Duration,
    work: PathBuf,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// The running iteration's end-to-end samples (`setup_s` included).
    pending: BTreeMap<&'static str, Vec<f64>>,
    /// Per measured iteration: the share of CPU time stolen while it ran,
    /// and its end-to-end samples.
    measured: Vec<(f64, BTreeMap<&'static str, Vec<f64>>)>,
    layer: BTreeMap<&'static str, Vec<f64>>,
    /// Wall seconds per (window, iteration kind).
    walls: BTreeMap<(&'static str, u32), Vec<f64>>,
    props: BTreeMap<&'static str, String>,
    iterations: u32,
    /// Whether the running iteration is the run's first, whose samples
    /// are dropped.
    warmup: bool,
}

impl Harness {
    pub fn new(args: &Args, work: PathBuf) -> Harness {
        Harness {
            seed: args.seed,
            trace_run: args.trace,
            budget: Duration::from_secs(args.seconds),
            work,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            pending: BTreeMap::new(),
            measured: Vec::new(),
            layer: BTreeMap::new(),
            walls: BTreeMap::new(),
            props: BTreeMap::new(),
            iterations: 0,
            warmup: false,
        }
    }

    /// Runs `body` once per iteration until the time budget is spent:
    /// a warm-up iteration, whose samples are dropped so that first-use
    /// costs (fresh heap, lazy initialisation) do not pull the figures,
    /// then at least three measured iterations (two of every kind in a
    /// traced run), and no iteration started that would end past the
    /// budget. Every iteration's outputs are checked. A failing iteration
    /// counts as one failed operation and the run goes on.
    pub fn iterate(
        &mut self,
        kinds: u32,
        mut body: impl FnMut(&mut Harness, Iteration) -> Result<(), String>,
    ) {
        let kinds = if self.trace_run { kinds.max(2) } else { 1 };
        let min = 1 + if self.trace_run { 2 * kinds } else { 3 };
        let started = Instant::now();
        let mut index = 0u32;
        loop {
            let it = Iteration {
                kind: index % kinds,
            };
            self.warmup = index == 0;
            trace::set_iteration(index);
            trace::set_enabled(it.kind == 1 && !self.warmup);
            let t = Instant::now();
            let (all, stolen) = crate::measure::cpu_ticks();
            let outcome = body(self, it);
            let (all_after, stolen_after) = crate::measure::cpu_ticks();
            trace::set_enabled(false);
            trace::flush();
            let samples = std::mem::take(&mut self.pending);
            if !self.warmup {
                let share = (stolen_after - stolen) as f64 / (all_after - all).max(1) as f64;
                self.measured.push((share, samples));
            }
            if let Err(e) = outcome {
                self.check(false, || format!("iteration {index}: {e}"));
            }
            index += 1;
            let last = t.elapsed();
            if index >= min && started.elapsed() + last > self.budget {
                break;
            }
        }
        self.iterations = index;
    }

    /// Counts one checked operation; a failure is logged to stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    /// Counts `attempted` operations of which `failed` went wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            let msg = what();
            eprintln!("check failed: {msg}");
            if self.failures.len() < 8 {
                self.failures.push(msg);
            }
        }
    }

    /// A fresh, empty directory for this iteration's store.
    pub fn fresh_dir(&self) -> Result<PathBuf, String> {
        let dir = self.work.join("store");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    pub fn setup_done(&mut self, took: Duration) {
        self.pending
            .entry("setup_s")
            .or_default()
            .push(took.as_secs_f64());
    }

    /// An end-to-end sample; only untraced iterations count.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        if !trace::enabled() {
            self.pending.entry(name).or_default().push(value);
        }
    }

    /// The pooled samples of `name` over the measured iterations.
    fn e2e_samples(&self, name: &str) -> Vec<f64> {
        self.measured
            .iter()
            .filter_map(|(_, m)| m.get(name))
            .flatten()
            .copied()
            .collect()
    }

    /// A count or ratio measured at a layer boundary; only traced
    /// iterations count.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        if trace::enabled() {
            self.layer.entry(name).or_default().push(value);
        }
    }

    /// Seconds an iteration of `kind` spent in `window`; `"timed"` is
    /// the sum of an iteration's timed windows.
    pub fn wall(&mut self, window: &'static str, kind: u32, seconds: f64) {
        if !self.warmup {
            self.walls.entry((window, kind)).or_default().push(seconds);
        }
    }

    fn walls(&self, window: &'static str, kind: u32) -> &[f64] {
        self.walls
            .get(&(window, kind))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// A measured input property, as a JSON value.
    pub fn prop(&mut self, name: &'static str, json: impl ToString) {
        self.props.insert(name, json.to_string());
    }

    /// The input's shape: processes, stamp dimension `d`, messages, and
    /// the clock backend `ClockBackend::Auto` resolves for `d`.
    pub fn inputs(&mut self, processes: usize, d: usize, messages: usize) {
        self.prop("processes", processes);
        self.prop("d", d);
        self.prop("messages", messages);
        let backend = ClockBackend::default()
            .resolve(d)
            .map_or_else(|e| e.to_string(), |b| b.to_string());
        self.prop("clock_backend", format!("\"{backend}\""));
    }

    fn samples(&self, name: &str) -> &[f64] {
        self.layer.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = self.e2e_samples(name);
                let value = if name == "setup_s" {
                    median(&v)
                } else {
                    trimmed_mean(&v)
                };
                (name, unit, value)
            })
            .collect()
    }

    /// Every per-layer metric, from the traced iterations' spans and the
    /// counts recorded at layer boundaries. A layer a workload bypasses
    /// reads 0.
    fn per_layer(&self, a: &Analysis) -> Vec<(&'static str, &'static str, f64)> {
        let us = |name: &str, q: f64| percentile(&crate::measure::ns_to_us(&a.self_times(name)), q);
        // Median self time of one call; `churn` serves several legs per
        // iteration, so per call rather than per iteration.
        let ms_per_call = |name: &str| median(&crate::measure::ns_to_ms(&a.self_times(name)));
        let per_query = |name: &str, counter: &str| {
            let queries = median(self.samples(counter));
            if queries > 0.0 {
                ms_per_call(name) * 1e6 / queries
            } else {
                0.0
            }
        };
        // The slowest node of each iteration's mesh establishment.
        let mut slowest: BTreeMap<u32, u64> = BTreeMap::new();
        for i in a.named("net.establish") {
            let e = slowest.entry(a.spans()[i].iter).or_insert(0);
            *e = (*e).max(a.self_ns(i));
        }
        let establish = median(&crate::measure::ns_to_ms(
            &slowest.into_values().collect::<Vec<_>>(),
        ));

        // Blocking path of every timed window, per iteration and layer.
        let mut path: BTreeMap<&str, BTreeMap<u32, u64>> = BTreeMap::new();
        let (mut covered, mut total) = (0u64, 0u64);
        for root in ["bench.pipeline", "bench.serve", "bench.query"] {
            for i in a.named(root) {
                let iter = a.spans()[i].iter;
                for (layer, ns) in a.blocking_path(i) {
                    *path.entry(layer).or_default().entry(iter).or_insert(0) += ns;
                    if layer != "bench" {
                        covered += ns;
                    }
                    total += ns;
                }
            }
        }
        let path_ms = |layer: &str| {
            let v: Vec<u64> = path
                .get(layer)
                .map(|m| m.values().copied().collect())
                .unwrap_or_default();
            median(&crate::measure::ns_to_ms(&v))
        };
        let overhead = {
            let (plain, traced) = (
                median(self.walls("timed", 0)),
                median(self.walls("timed", 1)),
            );
            if plain > 0.0 && traced > 0.0 {
                traced / plain - 1.0
            } else {
                0.0
            }
        };
        let writer_tax = {
            let (with, without) = (
                median(self.walls("pipeline", 0)),
                median(self.walls("pipeline", 2)),
            );
            if with > 0.0 && without > 0.0 {
                with / without
            } else {
                0.0
            }
        };
        let m = |name: &str| median(self.samples(name));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "runtime.send_p50_us" => us("runtime.send", 50.0),
                    "runtime.send_p99_us" => us("runtime.send", 99.0),
                    "runtime.receive_p50_us" => us("runtime.receive_from", 50.0),
                    "runtime.run_start_ms" | "runtime.run_tail_ms" => m(name),
                    "runtime.null_run_ms" => ms_per_call("runtime.null_run"),
                    "core.stamp_ms" => ms_per_call("core.stamp"),
                    "core.precedes_ns" => per_query("core.precedes", "bench.queries"),
                    "graph.decompose_ms" => ms_per_call("graph.decompose"),
                    "sim.generate_ms" => ms_per_call("sim.generate"),
                    "sim.reconfigure_p50_us" => {
                        percentile(self.samples("sim.reconfigure_us"), 50.0)
                    }
                    "sim.reconfigure_p99_us" => {
                        percentile(self.samples("sim.reconfigure_us"), 99.0)
                    }
                    "store.seal_ms" => ms_per_call("store.finish"),
                    "store.writer_tax" => writer_tax,
                    "store.persist_ms" => ms_per_call("store.persist"),
                    "store.recover_ms" => ms_per_call("store.read_trace_dir"),
                    "store.materialize_ms" => ms_per_call("store.materialize"),
                    "net.mesh_establish_ms" => establish,
                    "net.report_json_ms" => ms_per_call("net.report_json"),
                    "net.publish_ms" => ms_per_call("net.publish"),
                    "net.connect_ms" => ms_per_call("net.connect"),
                    "net.submit_p50_us" => us("net.submit", 50.0),
                    "net.submit_p99_us" => us("net.submit", 99.0),
                    "net.batch_p99_us" => us("net.batch", 99.0),
                    "net.pump_ns_per_query" => per_query("net.pump_frames", "bench.queries"),
                    "net.answer_ns_per_query" => per_query("net.answer_query", "bench.queries"),
                    "path.sim_ms" => path_ms("sim"),
                    "path.graph_ms" => path_ms("graph"),
                    "path.runtime_ms" => path_ms("runtime"),
                    "path.core_ms" => path_ms("core"),
                    "path.store_ms" => path_ms("store"),
                    "path.net_ms" => path_ms("net"),
                    "path.bench_ms" => path_ms("bench"),
                    "bench.span_coverage" => {
                        if total > 0 {
                            covered as f64 / total as f64
                        } else {
                            0.0
                        }
                    }
                    "bench.trace_overhead" => overhead,
                    // Counts and ratios recorded at the layer boundary.
                    _ => m(name),
                };
                (name, unit, value)
            })
            .collect()
    }

    /// Prints the report line (provenance, every metric, the failures)
    /// and, last, the result line the contract asks for.
    pub fn finish(self, workload: &str, spans: Option<Analysis>) {
        let e2e = self.end_to_end();
        let layers = spans.as_ref().map(|a| self.per_layer(a));
        let metrics_json = |rows: &[(&str, &str, f64)]| {
            let mut out = String::from("{");
            for (i, (name, unit, value)) in rows.iter().enumerate() {
                let value = if value.is_finite() { *value } else { 0.0 };
                let _ = write!(
                    out,
                    "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                    if i > 0 { ", " } else { "" }
                );
            }
            out.push('}');
            out
        };
        let fail_ratio = if self.attempted > 0 {
            self.failed as f64 / self.attempted as f64
        } else {
            0.0
        };
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        let rev = crate::measure::git_rev().map_or("null".to_string(), |r| format!("\"{r}\""));
        let props: Vec<String> = self
            .props
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('\\', "\\\\").replace('"', "'")))
            .collect();
        let samples: Vec<String> = END_TO_END
            .iter()
            .map(|&(name, _)| {
                let v = &self.e2e_samples(name);
                let q = |p: f64| percentile(v, p);
                let raw = if v.len() <= 40 {
                    let all: Vec<String> = v.iter().map(f64::to_string).collect();
                    format!(", \"all\": [{}]", all.join(", "))
                } else {
                    String::new()
                };
                format!(
                    "\"{name}\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}{raw}}}",
                    v.len(),
                    q(25.0),
                    median(v),
                    q(75.0)
                )
            })
            .collect();
        println!(
            "{{\"report\": {{\"workload\": \"{workload}\", \"seed\": {}, \"traced\": {}, \
             \"available_parallelism\": {parallelism}, \"git_rev\": {rev}, \
             \"source_digest\": \"{}\", \"iterations\": {}, \"steal_shares\": [{}], \
             \"inputs\": {{{}}}, \"fail_ratio\": {fail_ratio}, \"failures\": [{}], \
             \"end_to_end\": {}, \"samples\": {{{}}}, \"per_layer\": {}}}}}",
            self.seed,
            self.trace_run,
            crate::measure::source_digest(),
            self.iterations,
            self.measured
                .iter()
                .map(|(share, _)| share.to_string())
                .collect::<Vec<_>>()
                .join(", "),
            props.join(", "),
            failures.join(", "),
            metrics_json(&e2e),
            samples.join(", "),
            layers.as_deref().map_or("null".to_string(), metrics_json),
        );
        let shown = match &layers {
            Some(rows) if self.trace_run => metrics_json(rows),
            _ => metrics_json(&e2e),
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {shown}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        );
    }
}

/// The run's scratch directory, relative to the checkout it runs in.
pub fn work_dir(workload: &str) -> PathBuf {
    Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()))
}
