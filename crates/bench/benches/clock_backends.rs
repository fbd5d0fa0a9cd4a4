//! Experiment R9: clock backend merge throughput.
//!
//! The runtime's hot loop is line 05/09 of Figure 5 — merge the incoming
//! vector into the local clock — so the clock representation decides the
//! per-message cost. This bench drives the two [`Clock`] backends over
//! merge-heavy update streams:
//!
//! * `sparse_delta` — Singhal–Kshemkalyani regime: each incoming message
//!   changes only a few components of the sender's clock. The dense
//!   backend must still merge all `N` components of the full vector (that
//!   is what it receives off the wire); the tree backend consumes the
//!   change-set directly, `O(k log N)` per merge. This is where the
//!   sublinear claim lives: at `N = 256` the tree must sustain at least
//!   twice the dense merge rate (enforced by the schema validator on full
//!   reports).
//! * `gossip_full` — near-clique regime: almost every component moves
//!   between messages, so both backends do full-vector merges and the
//!   tree's summaries are pure overhead. Recorded to keep the trade-off
//!   honest, no floor.
//!
//! Every variant merges the *same* deterministic update stream, and the
//! final clocks are asserted bit-identical across backends before the
//! report is emitted (`derived.backends_bit_identical`).
//!
//! Usage (a `harness = false` bench):
//!
//! ```text
//! cargo bench -p synctime-bench --bench clock_backends              # full run, JSON to stdout
//!   -- [--smoke] [--out PATH] [--validate PATH]
//! ```
//!
//! `--smoke` shrinks the step counts to CI scale; `--out` writes the JSON
//! report to a file; `--validate` checks an existing report (e.g. the
//! checked-in `results/BENCH_clocks.json`) against the
//! `synctime/bench_clocks/v2` record schema — including the >= 2x tree
//! floor at `N = 256` — and fails the process if it does not conform.

use std::time::Instant;

use serde_json::Value;
use synctime_core::clock::{Clock, TreeClock};
use synctime_core::VectorTime;

const SCHEMA: &str = "synctime/bench_clocks/v2";

/// Components changed per message in the sparse-delta regime.
const DELTA_WIDTH: usize = 4;

/// Updates are pre-built in chunks of this many steps so the timed loop
/// measures merges, not workload construction, without one `Instant` read
/// per step.
const CHUNK: usize = 1024;

/// The tree floor the validator enforces on full reports.
const TREE_FLOOR: f64 = 2.0;

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

// -------------------------------------------------------------- workload

/// One chunk of incoming messages' clock updates, kept in two parallel
/// streams: the senders' full vectors (what the dense path merges off the
/// wire) and their change-sets since the previous message (what the tree
/// path merges). FIFO streams make the two equivalent — the soundness
/// argument behind `Clock::merge_delta`. Keeping them in separate vectors
/// matters for fairness: the runtime's delta path never materialises the
/// full vector, so the tree's timed loop must not stream `N`-component
/// vectors through the cache either.
struct UpdateChunk {
    /// One full vector per step (dense path only; empty on the delta path
    /// so the tree's timed loop never streams them through the cache).
    fulls: Vec<VectorTime>,
    /// All change-sets, flattened: step `i` owns
    /// `deltas[i * width..(i + 1) * width]`. Contiguous, like the pairs a
    /// wire frame carries — no per-step allocation to chase.
    deltas: Vec<(usize, u64)>,
}

/// Deterministically bumps `width` components of `shadow` per step for
/// steps `from..to` and returns the resulting updates. No RNG: same step,
/// same update.
fn build_chunk(
    shadow: &mut [u64],
    from: usize,
    to: usize,
    width: usize,
    path: Path,
) -> UpdateChunk {
    let n = shadow.len();
    let mut chunk = UpdateChunk {
        fulls: Vec::new(),
        deltas: Vec::with_capacity((to - from) * width),
    };
    for step in from..to {
        for j in 0..width {
            // Weyl-style index mixing spreads the touched components over
            // the whole vector without repeating a (step, j) pattern.
            let idx = step
                .wrapping_mul(2_654_435_761)
                .wrapping_add(j.wrapping_mul(40_503))
                % n;
            shadow[idx] += 1 + ((step + j) % 3) as u64;
            chunk.deltas.push((idx, shadow[idx]));
        }
        if path == Path::Full {
            chunk.fulls.push(VectorTime::from(shadow.to_vec()));
        }
    }
    chunk
}

/// Which merge entry point the timed loop exercises.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    /// `merge_from_slice` — the full-vector interchange merge every
    /// backend supports (what dense receives off the wire).
    Full,
    /// `merge_delta` — the Singhal–Kshemkalyani change-set merge (what the
    /// runtime feeds the tree backend).
    Delta,
}

/// Merges `steps` deterministic updates of `width` changed components into
/// a fresh `C` clock of dimension `n`, timing only the merge calls.
/// Returns the elapsed merge time and the final clock as a dense vector
/// (for the cross-backend identity gate).
fn bench_merges<C: Clock>(n: usize, steps: usize, width: usize, path: Path) -> (u128, VectorTime) {
    let mut shadow = vec![0u64; n];
    let mut clock = C::zero(n);
    let mut elapsed = 0u128;
    let mut step = 0;
    while step < steps {
        let to = (step + CHUNK).min(steps);
        let chunk = build_chunk(&mut shadow, step, to, width, path);
        step = to;
        let started = Instant::now();
        match path {
            Path::Full => {
                for full in &chunk.fulls {
                    clock
                        .merge_from_slice(full.as_slice())
                        .expect("bench updates share the clock dimension");
                }
            }
            Path::Delta => {
                for delta in chunk.deltas.chunks_exact(width) {
                    clock
                        .merge_delta(delta)
                        .expect("bench updates share the clock dimension");
                }
            }
        }
        elapsed += started.elapsed().as_nanos();
    }
    (elapsed, clock.to_vector())
}

// --------------------------------------------------------------- records

struct Record {
    workload: &'static str,
    variant: &'static str,
    dim: usize,
    steps: usize,
    delta_width: usize,
    path: &'static str,
    elapsed_ns: u128,
}

impl Record {
    fn merges_per_sec(&self) -> f64 {
        let secs = self.elapsed_ns as f64 / 1e9;
        if secs > 0.0 {
            self.steps as f64 / secs
        } else {
            0.0
        }
    }

    fn to_json(&self) -> Value {
        obj(vec![
            ("workload", string(self.workload)),
            ("variant", string(self.variant)),
            ("dim", uint(self.dim as u64)),
            ("ops", uint(self.steps as u64)),
            ("elapsed_ns", uint(self.elapsed_ns as u64)),
            ("ops_per_sec", float(self.merges_per_sec())),
            (
                "detail",
                obj(vec![
                    ("delta_width", uint(self.delta_width as u64)),
                    ("path", string(self.path)),
                ]),
            ),
        ])
    }
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> Value {
    let (sparse_steps, gossip_steps) = if smoke {
        (4_000, 2_000)
    } else {
        (400_000, 100_000)
    };
    let mut records = Vec::new();
    let mut bit_identical = true;
    let check = |label: &str, a: &VectorTime, b: &VectorTime, ok: &mut bool| {
        if a != b {
            eprintln!("clock_backends: DIVERGENCE in {label}: {a} vs {b}");
            *ok = false;
        }
    };

    // Sparse-delta regime: dense merges the full wire vector, tree merges
    // the change-set — same stream, same final clock.
    for &n in &[16usize, 64, 256] {
        eprintln!("clock_backends: sparse_delta, N = {n}");
        let (dense_ns, dense_final) =
            bench_merges::<VectorTime>(n, sparse_steps, DELTA_WIDTH, Path::Full);
        let (tree_ns, tree_final) =
            bench_merges::<TreeClock>(n, sparse_steps, DELTA_WIDTH, Path::Delta);
        check(
            "sparse_delta",
            &dense_final,
            &tree_final,
            &mut bit_identical,
        );
        records.push(Record {
            workload: "sparse_delta",
            variant: "dense",
            dim: n,
            steps: sparse_steps,
            delta_width: DELTA_WIDTH,
            path: "full",
            elapsed_ns: dense_ns,
        });
        records.push(Record {
            workload: "sparse_delta",
            variant: "tree",
            dim: n,
            steps: sparse_steps,
            delta_width: DELTA_WIDTH,
            path: "delta",
            elapsed_ns: tree_ns,
        });
    }

    // Gossip regime: every component moves, both backends merge full
    // vectors; the tree's summaries are pure overhead here and the report
    // says by how much.
    {
        let n = 64;
        eprintln!("clock_backends: gossip_full, N = {n}");
        let (dense_ns, dense_final) = bench_merges::<VectorTime>(n, gossip_steps, n, Path::Full);
        let (tree_ns, tree_final) = bench_merges::<TreeClock>(n, gossip_steps, n, Path::Full);
        check("gossip_full", &dense_final, &tree_final, &mut bit_identical);
        records.push(Record {
            workload: "gossip_full",
            variant: "dense",
            dim: n,
            steps: gossip_steps,
            delta_width: n,
            path: "full",
            elapsed_ns: dense_ns,
        });
        records.push(Record {
            workload: "gossip_full",
            variant: "tree",
            dim: n,
            steps: gossip_steps,
            delta_width: n,
            path: "full",
            elapsed_ns: tree_ns,
        });
    }

    let rate_of = |workload: &str, variant: &str, dim: usize| -> f64 {
        records
            .iter()
            .find(|r| r.workload == workload && r.variant == variant && r.dim == dim)
            .map(Record::merges_per_sec)
            .unwrap_or(0.0)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let tree_speedup_256 = ratio(
        rate_of("sparse_delta", "tree", 256),
        rate_of("sparse_delta", "dense", 256),
    );
    let tree_speedup_64 = ratio(
        rate_of("sparse_delta", "tree", 64),
        rate_of("sparse_delta", "dense", 64),
    );
    let gossip_tree_ratio = ratio(
        rate_of("gossip_full", "tree", 64),
        rate_of("gossip_full", "dense", 64),
    );

    obj(vec![
        ("schema", string(SCHEMA)),
        ("mode", string(if smoke { "smoke" } else { "full" })),
        (
            "records",
            Value::Array(records.iter().map(Record::to_json).collect()),
        ),
        (
            "derived",
            obj(vec![
                ("tree_speedup_sparse_n256", float(tree_speedup_256)),
                ("tree_speedup_sparse_n64", float(tree_speedup_64)),
                ("gossip_tree_over_dense", float(gossip_tree_ratio)),
                ("backends_bit_identical", Value::Bool(bit_identical)),
            ]),
        ),
    ])
}

// ------------------------------------------------------------ validation

/// Checks a report against the v2 record schema, including the tree floor
/// on full reports. Returns every violation found (empty = conforming).
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
        for key in ["dim", "ops", "elapsed_ns"] {
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
        if r.get_field("detail")
            .and_then(|d| d.get_field("path"))
            .and_then(Value::as_str)
            .is_none()
        {
            errs.push(format!("records[{i}].detail.path must be a string"));
        }
    }
    let Some(derived) = doc.get_field("derived") else {
        errs.push("\"derived\" must be an object".to_string());
        return errs;
    };
    match derived.get_field("backends_bit_identical") {
        Some(Value::Bool(true)) => {}
        _ => errs.push("derived.backends_bit_identical must be true".to_string()),
    }
    match derived
        .get_field("tree_speedup_sparse_n256")
        .and_then(as_f64)
    {
        Some(s) if s > 0.0 => {
            // Full reports carry the sublinear-merge claim; smoke runs are
            // sized for CI latency, not for the ratio.
            if doc.get_field("mode").and_then(Value::as_str) == Some("full") && s < TREE_FLOOR {
                errs.push(format!(
                    "derived.tree_speedup_sparse_n256 must be >= {TREE_FLOOR} in a full report, got {s:.2}"
                ));
            }
        }
        _ => errs.push("derived.tree_speedup_sparse_n256 must be positive".to_string()),
    }
    match derived.get_field("gossip_tree_over_dense").and_then(as_f64) {
        Some(s) if s > 0.0 => {}
        _ => errs.push("derived.gossip_tree_over_dense must be positive".to_string()),
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
    if smoke {
        // Smoke runs exist to prove the pipeline works, not to re-measure;
        // drop the ratio violations a tiny instance cannot honour.
        failures.retain(|f| !f.contains("speedup"));
    }
    let rendered = format!(
        "{}\n",
        serde_json::to_string_pretty(&report).expect("report serialises")
    );
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("clock_backends: report written to {path}");
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
            eprintln!("clock_backends: {path} conforms to {SCHEMA}");
        } else {
            failures.extend(errs.into_iter().map(|e| format!("{path}: {e}")));
        }
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("clock_backends: SCHEMA VIOLATION: {f}");
        }
        std::process::exit(1);
    }
}
