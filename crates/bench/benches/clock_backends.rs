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
//!   twice the dense merge rate (a floor on full reports).
//! * `gossip_full` — near-clique regime: almost every component moves
//!   between messages, so both backends do full-vector merges and the
//!   tree's summaries are pure overhead. Recorded to keep the trade-off
//!   honest, no floor.
//!
//! Every variant merges the *same* deterministic update stream, and the
//! final clocks are asserted bit-identical across backends before the
//! report is emitted (`derived.backends_bit_identical`).
//!
//! Usage (a `harness = false` bench; the report schema and its floors are
//! `synctime_bench::report::CLOCK_BACKENDS`):
//!
//! ```text
//! cargo bench -p synctime-bench --bench clock_backends              # full run, JSON to stdout
//!   -- [--smoke] [--out PATH]
//! ```
//!
//! `--smoke` shrinks the step counts to CI scale; `--out` writes the JSON
//! report to a file. The run fails if its report does not conform.

use std::time::Instant;

use serde_json::Value;
use synctime_bench::report::{self, obj, ratio, Record, CLOCK_BACKENDS};
use synctime_core::clock::{Clock, TreeClock};
use synctime_core::VectorTime;

/// Components changed per message in the sparse-delta regime.
const DELTA_WIDTH: usize = 4;

/// Updates are pre-built in chunks of this many steps so the timed loop
/// measures merges, not workload construction, without one `Instant` read
/// per step.
const CHUNK: usize = 1024;

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

/// One backend's record: `steps` merges of `delta_width` changed
/// components into a clock of dimension `dim`.
fn record(
    workload: &'static str,
    variant: &'static str,
    dim: usize,
    steps: usize,
    delta_width: usize,
    path: &str,
    elapsed_ns: u128,
) -> Record {
    Record {
        workload,
        variant,
        size: dim,
        ops: steps as u64,
        elapsed_ns,
        detail: obj(vec![
            ("delta_width", Value::UInt(delta_width as u64)),
            ("path", Value::Str(path.to_string())),
        ]),
    }
}

// ------------------------------------------------------------ the report

fn run_suite(smoke: bool) -> (Vec<Record>, Value) {
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
        records.push(record(
            "sparse_delta",
            "dense",
            n,
            sparse_steps,
            DELTA_WIDTH,
            "full",
            dense_ns,
        ));
        records.push(record(
            "sparse_delta",
            "tree",
            n,
            sparse_steps,
            DELTA_WIDTH,
            "delta",
            tree_ns,
        ));
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
        records.push(record(
            "gossip_full",
            "dense",
            n,
            gossip_steps,
            n,
            "full",
            dense_ns,
        ));
        records.push(record(
            "gossip_full",
            "tree",
            n,
            gossip_steps,
            n,
            "full",
            tree_ns,
        ));
    }

    let rate_of = |workload: &str, variant: &str, dim: usize| -> f64 {
        records
            .iter()
            .find(|r| r.workload == workload && r.variant == variant && r.size == dim)
            .map_or(0.0, Record::ops_per_sec)
    };
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

    let derived = obj(vec![
        ("tree_speedup_sparse_n256", Value::Float(tree_speedup_256)),
        ("tree_speedup_sparse_n64", Value::Float(tree_speedup_64)),
        ("gossip_tree_over_dense", Value::Float(gossip_tree_ratio)),
        ("backends_bit_identical", Value::Bool(bit_identical)),
    ]);
    (records, derived)
}

fn main() {
    report::main(&CLOCK_BACKENDS, run_suite);
}
