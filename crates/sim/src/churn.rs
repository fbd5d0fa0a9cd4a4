//! Churn workloads: seeded scripts of join/leave/swap reconfigurations
//! driven through the runtime's epoch seam.
//!
//! A [`ChurnPlan`] is the control-plane analogue of a
//! [`FaultPlan`](crate::fault::FaultPlan): a deterministic, serialisable
//! script of topology changes over a **fixed process universe**. Processes
//! never appear or disappear as graph nodes (the decomposition's node count
//! is immutable); instead, joins and leaves edit the *edge set* — an
//! inactive process simply has degree zero and an idle behavior. Each
//! epoch's topology is a ring over the active processes, the workload is
//! deterministic token passing, and the boundary between epochs is one
//! [`cross_boundary`]: quiesce → [`IncrementalDecomposition::apply_ops`]
//! → rebase the component-wise max of the final clocks through the remap
//! ([`GroupRemap::apply`](synctime_graph::GroupRemap::apply)) →
//! [`Runtime::apply_reconfigure`] → resume. [`run_epochs`] is that loop
//! on any configured runtime; a static run is its one-epoch case. A TCP
//! node takes the same step, with the merge it gets from the wire.
//!
//! Inter-event gaps (`after_rounds`) are drawn from an exponential
//! distribution by [`ChurnPlan::random`], so churn events arrive as a
//! Poisson process in round-time. Plans round-trip through JSON
//! (`synctime launch --churn-plan plan.json`):
//!
//! ```json
//! {
//!   "universe": 6,
//!   "initial": [0, 1, 2, 3],
//!   "events": [
//!     {"after_rounds": 3, "kind": {"join": {"process": 4}}},
//!     {"after_rounds": 2, "kind": {"leave": {"process": 1}}},
//!     {"after_rounds": 4, "kind": {"swap": {"leaving": 2, "joining": 5}}}
//!   ],
//!   "tail_rounds": 3
//! }
//! ```
//!
//! Composing a `FaultPlan` with churn: fault `at_op` indices are
//! interpreted *within each epoch* (every epoch is its own run, so the
//! per-process op counter restarts). A crash permanently removes the
//! process from the workload — it idles in every later epoch, and its ring
//! neighbours observe `PeerTerminated`, truncating that epoch to the
//! survivor prefix.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use synctime_core::clock::ClockBackend;
use synctime_core::VectorTime;
use synctime_graph::{EdgeOp, Graph, GraphError, IncrementalDecomposition};
use synctime_runtime::{
    AppliedReconfigure, Behavior, LogEntry, ProcessCtx, RunStats, Runtime, RuntimeError,
};
use synctime_store::ReconfigRecord;

use crate::fault::FaultPlan;

/// One topology edit applied at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// An inactive process joins the active ring.
    #[serde(rename = "join")]
    Join {
        /// The process that becomes active.
        process: usize,
    },
    /// An active process (never the coordinator, process 0) leaves.
    #[serde(rename = "leave")]
    Leave {
        /// The process that becomes inactive.
        process: usize,
    },
    /// One process leaves and another joins in the same reconfiguration.
    #[serde(rename = "swap")]
    Swap {
        /// The active process that leaves.
        leaving: usize,
        /// The inactive process that takes its place in the ring.
        joining: usize,
    },
}

/// One scheduled reconfiguration: run `after_rounds` token laps in the
/// current epoch, then apply `kind` at the epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Token laps the preceding epoch runs before this event fires
    /// (at least 1).
    pub after_rounds: u64,
    /// The topology edit.
    pub kind: ChurnKind,
}

/// A deterministic script of reconfigurations over a fixed process
/// universe. `events[e]` ends epoch `e`; the final epoch runs
/// `tail_rounds` laps. Process 0 (the control-plane coordinator) must be
/// active in every epoch, and every epoch needs at least two active
/// processes to form a ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// Fixed number of processes; graph nodes never grow or shrink.
    pub universe: usize,
    /// Initially active processes (sorted, distinct, containing 0).
    pub initial: Vec<usize>,
    /// The scheduled reconfigurations, in order.
    pub events: Vec<ChurnEvent>,
    /// Token laps the final epoch runs (at least 1).
    pub tail_rounds: u64,
}

/// Why a churn plan cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ChurnError {
    /// The plan violates a structural rule (carries a diagnostic).
    InvalidPlan(String),
    /// A topology edit was rejected by the graph layer.
    Graph(GraphError),
    /// The runtime refused a configuration or reconfiguration.
    Runtime(RuntimeError),
    /// A run with boundaries did not start from
    /// [`IncrementalDecomposition::new`]'s decomposition of its topology,
    /// whose groups the boundaries' remaps index.
    ForeignDecomposition,
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::InvalidPlan(detail) => write!(f, "invalid churn plan: {detail}"),
            ChurnError::Graph(e) => write!(f, "churn topology edit failed: {e}"),
            ChurnError::Runtime(e) => write!(f, "churn runtime failed: {e}"),
            ChurnError::ForeignDecomposition => write!(
                f,
                "a run with boundaries must start from the incremental decomposition of its topology"
            ),
        }
    }
}

impl std::error::Error for ChurnError {}

impl From<GraphError> for ChurnError {
    fn from(e: GraphError) -> Self {
        ChurnError::Graph(e)
    }
}

impl From<RuntimeError> for ChurnError {
    fn from(e: RuntimeError) -> Self {
        ChurnError::Runtime(e)
    }
}

impl ChurnPlan {
    /// Number of epochs the plan executes (`events.len() + 1`).
    pub fn epochs(&self) -> usize {
        self.events.len() + 1
    }

    /// Token laps epoch `epoch` runs: the `after_rounds` of the event that
    /// ends it, or `tail_rounds` for the final epoch.
    pub fn rounds(&self, epoch: usize) -> u64 {
        self.events
            .get(epoch)
            .map_or(self.tail_rounds, |event| event.after_rounds)
    }

    /// The active process set of every epoch, validating the plan along
    /// the way: members in range and distinct, process 0 always active,
    /// joins target inactive processes, leaves target active non-zero
    /// processes, and every epoch keeps at least two active processes.
    pub fn active_sets(&self) -> Result<Vec<Vec<usize>>, ChurnError> {
        if self.universe < 2 {
            return Err(ChurnError::InvalidPlan(format!(
                "universe must be at least 2, got {}",
                self.universe
            )));
        }
        if self.tail_rounds == 0 {
            return Err(ChurnError::InvalidPlan("tail_rounds must be >= 1".into()));
        }
        let mut active: BTreeSet<usize> = BTreeSet::new();
        for &p in &self.initial {
            if p >= self.universe {
                return Err(ChurnError::InvalidPlan(format!(
                    "initial process {p} outside universe {}",
                    self.universe
                )));
            }
            if !active.insert(p) {
                return Err(ChurnError::InvalidPlan(format!(
                    "initial process {p} listed twice"
                )));
            }
        }
        let check = |active: &BTreeSet<usize>, when: &str| -> Result<(), ChurnError> {
            if !active.contains(&0) {
                return Err(ChurnError::InvalidPlan(format!(
                    "coordinator (process 0) inactive {when}"
                )));
            }
            if active.len() < 2 {
                return Err(ChurnError::InvalidPlan(format!(
                    "fewer than 2 active processes {when}"
                )));
            }
            Ok(())
        };
        check(&active, "initially")?;
        let mut sets = vec![active.iter().copied().collect::<Vec<_>>()];
        for (i, ev) in self.events.iter().enumerate() {
            if ev.after_rounds == 0 {
                return Err(ChurnError::InvalidPlan(format!(
                    "event {i}: after_rounds must be >= 1"
                )));
            }
            apply_kind(&mut active, ev.kind, i, self.universe)?;
            check(&active, &format!("after event {i}"))?;
            sets.push(active.iter().copied().collect());
        }
        Ok(sets)
    }

    /// Validates the plan without materialising the active sets.
    pub fn validate(&self) -> Result<(), ChurnError> {
        self.active_sets().map(|_| ())
    }

    /// The union of every epoch's ring edges over the fixed universe —
    /// the topology a distributed launcher must pre-establish connections
    /// for, so epoch transitions never need new sockets.
    pub fn union_topology(&self) -> Result<Graph, ChurnError> {
        let sets = self.active_sets()?;
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for set in &sets {
            edges.extend(ring_edges(set));
        }
        Graph::from_edges(self.universe, edges.iter().copied()).map_err(ChurnError::from)
    }

    /// Generates a random plan with `boundaries` reconfigurations over a
    /// `universe`-process pool. Gaps between events are exponential with
    /// mean `mean_rounds` laps (a Poisson arrival process in round-time);
    /// each event kind is drawn uniformly from the kinds feasible in the
    /// current active set. Deterministic in the seeded `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 3` (joins and leaves both need headroom) or
    /// `mean_rounds == 0`.
    pub fn random<R: Rng + ?Sized>(
        universe: usize,
        boundaries: usize,
        mean_rounds: u64,
        rng: &mut R,
    ) -> Self {
        assert!(universe >= 3, "need a universe of at least 3");
        assert!(mean_rounds > 0, "need a positive mean gap");
        // Initial active set: process 0 plus a random subset of the rest.
        let mut others: Vec<usize> = (1..universe).collect();
        others.shuffle(rng);
        let extra = rng.gen_range(1..universe);
        let mut active: BTreeSet<usize> = others.iter().take(extra).copied().collect();
        active.insert(0);
        let initial: Vec<usize> = active.iter().copied().collect();

        let mut events = Vec::with_capacity(boundaries);
        for _ in 0..boundaries {
            let inactive: Vec<usize> = (0..universe).filter(|p| !active.contains(p)).collect();
            let leavable: Vec<usize> = active.iter().copied().filter(|&p| p != 0).collect();
            // 0 = join, 1 = leave, 2 = swap — kept only when feasible.
            let mut feasible = Vec::new();
            if !inactive.is_empty() {
                feasible.push(0);
            }
            if active.len() > 2 {
                feasible.push(1);
            }
            if !inactive.is_empty() && !leavable.is_empty() {
                feasible.push(2);
            }
            let Some(&choice) = feasible.get(rng.gen_range(0..feasible.len().max(1))) else {
                break; // fully active two-process universe: nothing to do
            };
            let kind = match choice {
                0 => ChurnKind::Join {
                    process: inactive[rng.gen_range(0..inactive.len())],
                },
                1 => ChurnKind::Leave {
                    process: leavable[rng.gen_range(0..leavable.len())],
                },
                _ => ChurnKind::Swap {
                    leaving: leavable[rng.gen_range(0..leavable.len())],
                    joining: inactive[rng.gen_range(0..inactive.len())],
                },
            };
            apply_kind(&mut active, kind, events.len(), universe)
                .expect("feasible kinds keep the plan valid");
            events.push(ChurnEvent {
                after_rounds: exponential_rounds(mean_rounds, rng),
                kind,
            });
        }
        ChurnPlan {
            universe,
            initial,
            events,
            tail_rounds: exponential_rounds(mean_rounds, rng),
        }
    }

    /// Pretty-printed JSON rendering of the plan.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ChurnPlan serialises infallibly")
    }

    /// Parses a plan previously produced by [`ChurnPlan::to_json`] (or
    /// written by hand in the same shape).
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Applies one churn kind to an active set, validating feasibility.
fn apply_kind(
    active: &mut BTreeSet<usize>,
    kind: ChurnKind,
    index: usize,
    universe: usize,
) -> Result<(), ChurnError> {
    let join = |active: &mut BTreeSet<usize>, p: usize| -> Result<(), ChurnError> {
        if p >= universe {
            return Err(ChurnError::InvalidPlan(format!(
                "event {index}: join of process {p} outside universe {universe}"
            )));
        }
        if !active.insert(p) {
            return Err(ChurnError::InvalidPlan(format!(
                "event {index}: join of already-active process {p}"
            )));
        }
        Ok(())
    };
    let leave = |active: &mut BTreeSet<usize>, p: usize| -> Result<(), ChurnError> {
        if p == 0 {
            return Err(ChurnError::InvalidPlan(format!(
                "event {index}: the coordinator (process 0) cannot leave"
            )));
        }
        if !active.remove(&p) {
            return Err(ChurnError::InvalidPlan(format!(
                "event {index}: leave of inactive process {p}"
            )));
        }
        Ok(())
    };
    match kind {
        ChurnKind::Join { process } => join(active, process),
        ChurnKind::Leave { process } => leave(active, process),
        ChurnKind::Swap { leaving, joining } => {
            leave(active, leaving)?;
            join(active, joining)
        }
    }
}

/// An exponential draw with the given mean, in whole laps (at least 1,
/// capped at 8x the mean so plans stay bounded). Uses only integer
/// entropy, so any `Rng` the workspace shim provides suffices.
fn exponential_rounds<R: Rng + ?Sized>(mean: u64, rng: &mut R) -> u64 {
    let u = (rng.gen_range(0..1_000_000u64) + 1) as f64 / 1_000_000.0;
    let draw = (-u.ln() * mean as f64).ceil() as u64;
    draw.clamp(1, mean.saturating_mul(8))
}

/// The ring edges of an active set, normalised as `(lo, hi)` pairs. Two
/// active processes yield a single edge; three or more, a cycle.
pub fn ring_edges(active: &[usize]) -> Vec<(usize, usize)> {
    let k = active.len();
    if k < 2 {
        return Vec::new();
    }
    if k == 2 {
        return vec![(active[0], active[1])];
    }
    (0..k)
        .map(|i| {
            let (a, b) = (active[i], active[(i + 1) % k]);
            (a.min(b), a.max(b))
        })
        .collect()
}

/// The topology of one epoch: the active ring embedded in the fixed
/// universe (inactive processes are degree-0 nodes).
pub fn epoch_topology(universe: usize, active: &[usize]) -> Result<Graph, ChurnError> {
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    edges.extend(ring_edges(active));
    Graph::from_edges(universe, edges.iter().copied()).map_err(ChurnError::from)
}

/// The edge edits transforming `old`'s ring into `new`'s: removals first
/// (so no node's degree transiently grows), then insertions.
pub fn edge_ops(old: &[usize], new: &[usize]) -> Vec<EdgeOp> {
    let before: BTreeSet<(usize, usize)> = ring_edges(old).into_iter().collect();
    let after: BTreeSet<(usize, usize)> = ring_edges(new).into_iter().collect();
    let mut ops: Vec<EdgeOp> = before
        .difference(&after)
        .map(|&(u, v)| EdgeOp::Remove(u, v))
        .collect();
    ops.extend(
        after
            .difference(&before)
            .map(|&(u, v)| EdgeOp::Insert(u, v)),
    );
    ops
}

/// The runtime [`run_churn`] configures: its clock backend and the
/// faults it injects.
#[derive(Debug, Clone, Default)]
pub struct ChurnConfig {
    /// Clock backend every epoch's runtime uses.
    pub backend: ClockBackend,
    /// Faults composed with the churn script (`at_op` indices restart
    /// each epoch; crashes remove the process permanently).
    pub fault: FaultPlan,
}

/// The store's record of the boundary that establishes `epoch`: the
/// per-process log lengths at the cut, and the edge edits as `(kind, u,
/// v)` triples (0 = insert, 1 = remove).
pub fn boundary_record(epoch: u64, cuts: Vec<u64>, ops: &[EdgeOp]) -> ReconfigRecord {
    let ops = ops
        .iter()
        .map(|op| match *op {
            EdgeOp::Insert(u, v) => (0, u as u64, v as u64),
            EdgeOp::Remove(u, v) => (1, u as u64, v as u64),
        })
        .collect();
    ReconfigRecord { epoch, cuts, ops }
}

/// What one epoch looked like when it ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochReport {
    /// Epoch number (0-based).
    pub epoch: u64,
    /// Every process with a channel in the epoch's topology (a plan's
    /// active set).
    pub active: Vec<usize>,
    /// Stamp dimension (decomposition groups) of this epoch.
    pub dim: usize,
    /// Microseconds the reconfiguration *into* this epoch took
    /// (edge ops + remap + baseline rebase + runtime swap); 0 for epoch 0.
    pub reconfigure_micros: u64,
    /// Processes whose behavior completed without error.
    pub survivors: usize,
}

/// The result of a multi-epoch run: per-process logs concatenated across
/// epochs, the boundaries that cut them, and per-epoch reports.
#[derive(Debug, Clone)]
pub struct ChurnRun {
    /// The fixed process universe.
    pub universe: usize,
    /// Per-process logs, all epochs concatenated in order.
    pub logs: Vec<Vec<LogEntry>>,
    /// The epoch boundaries as the store persists them (one per
    /// reconfiguration, in epoch order).
    pub boundaries: Vec<ReconfigRecord>,
    /// One report per epoch, in order.
    pub epochs: Vec<EpochReport>,
    /// Run statistics merged across every epoch.
    pub stats: RunStats,
    /// First terminal outcome per process, `None` for processes that
    /// completed every epoch cleanly: the error's text in a one-epoch run,
    /// `"epoch N: <error>"` in a run with boundaries.
    pub outcomes: Vec<Option<String>>,
}

impl ChurnRun {
    /// The last epoch executed.
    pub fn final_epoch(&self) -> u64 {
        self.boundaries.len() as u64
    }

    /// The per-process logs of the final epoch alone (each process's
    /// suffix past the last boundary's cut) — complete and key-unique, so
    /// they reconstruct directly. Borrowed when the run has no boundary.
    pub fn final_epoch_logs(&self) -> Cow<'_, [Vec<LogEntry>]> {
        let Some(last) = self.boundaries.last() else {
            return Cow::Borrowed(&self.logs);
        };
        self.logs
            .iter()
            .zip(&last.cuts)
            .map(|(log, &cut)| log.get(cut as usize..).unwrap_or(&[]).to_vec())
            .collect::<Vec<_>>()
            .into()
    }
}

/// Crosses one epoch boundary, the step both transports share: applies
/// `ops` to `inc` (the replica of the runtime's current topology and
/// decomposition), asks `merge` for the component-wise max of every
/// process's final clock in the ending epoch's dimension, rebases it
/// through the edits' remap, and applies the new topology, decomposition
/// and that baseline to `runtime` as its next epoch. `merge` sees the
/// post-edit replica, so a TCP node can hash it before it trades clocks:
/// [`run_epochs`] merges its own processes' clocks, and `serve-node` gets
/// the merge from the wire (`synctime-net`'s `reconfig`).
///
/// With every process restarting from the one baseline `B`, each later
/// stamp is `B + s` for the stamp `s` of an uninterrupted run over the new
/// topology started from zero (`max(B+x, B+y) = B + max(x, y)`), so every
/// Theorem 4 verdict of the new epoch is that run's.
///
/// # Errors
///
/// [`ChurnError::Graph`] when an edit is rejected, [`ChurnError::Runtime`]
/// when the merge is not in the ending epoch's dimension or the runtime
/// refuses the epoch, and whatever `merge` returns. The runtime is
/// unchanged on every error.
pub fn cross_boundary<E: From<ChurnError>>(
    runtime: &mut Runtime,
    inc: &mut IncrementalDecomposition,
    ops: &[EdgeOp],
    merge: impl FnOnce(&IncrementalDecomposition) -> Result<VectorTime, E>,
) -> Result<(), E> {
    let remap = inc.apply_ops(ops).map_err(ChurnError::from)?;
    let merged = merge(inc)?;
    let (expected, got) = (remap.old_to_new.len(), merged.dim());
    if got != expected {
        return Err(ChurnError::Runtime(RuntimeError::DimensionMismatch { expected, got }).into());
    }
    runtime
        .apply_reconfigure(&AppliedReconfigure {
            epoch: runtime.epoch() + 1,
            topology: inc.graph().clone(),
            decomposition: inc.decomposition().clone(),
            baseline: VectorTime::from(remap.apply(merged.as_slice())),
        })
        .map_err(ChurnError::from)?;
    Ok(())
}

/// Runs `epochs` epochs on a configured `runtime`: the in-process engine
/// of every run, a static one being one epoch. Each epoch is one
/// [`Runtime::run_tolerant`] of `behavior(epoch, process)` for every
/// process; a process whose injected crash ended an epoch idles in every
/// later one. Each boundary is one [`cross_boundary`] over the max of the
/// epoch's final clocks, with `edge_ops(e)` the edits of the boundary
/// that ends epoch `e`.
///
/// # Errors
///
/// [`ChurnError::ForeignDecomposition`] when a run with boundaries does
/// not start from [`IncrementalDecomposition::new`]'s decomposition of
/// the runtime's topology (the boundaries' remaps index its groups),
/// and the errors of [`cross_boundary`].
pub fn run_epochs(
    mut runtime: Runtime,
    epochs: usize,
    mut behavior: impl FnMut(usize, usize) -> Behavior,
    mut edge_ops: impl FnMut(usize) -> Vec<EdgeOp>,
) -> Result<ChurnRun, ChurnError> {
    let universe = runtime.topology().node_count();
    let mut inc = IncrementalDecomposition::new(runtime.topology());
    if epochs > 1 && inc.decomposition() != runtime.decomposition() {
        return Err(ChurnError::ForeignDecomposition);
    }

    let mut logs: Vec<Vec<LogEntry>> = vec![Vec::new(); universe];
    let mut alive = vec![true; universe];
    let mut boundaries = Vec::new();
    let mut reports = Vec::new();
    let mut epoch_stats = Vec::new();
    let mut outcomes: Vec<Option<String>> = vec![None; universe];
    let mut enter_micros = 0u64;

    for e in 0..epochs {
        let behaviors = (0..universe)
            .map(|p| {
                if alive[p] {
                    behavior(e, p)
                } else {
                    Box::new(|_: &mut ProcessCtx| Ok(())) as Behavior
                }
            })
            .collect();
        let run = runtime.run_tolerant(behaviors);
        for (p, outcome) in run.outcomes().iter().enumerate() {
            if matches!(outcome, Some(RuntimeError::FaultInjected { .. })) {
                alive[p] = false;
            }
            if let (Some(err), None) = (outcome, &outcomes[p]) {
                outcomes[p] = Some(match epochs {
                    1 => err.to_string(),
                    _ => format!("epoch {e}: {err}"),
                });
            }
        }
        epoch_stats.push(run.stats().clone());
        for (p, log) in run.logs().iter().enumerate() {
            logs[p].extend_from_slice(log);
        }
        let topology = runtime.topology();
        reports.push(EpochReport {
            epoch: e as u64,
            active: (0..universe).filter(|&p| topology.degree(p) > 0).collect(),
            dim: runtime.decomposition().len(),
            reconfigure_micros: enter_micros,
            survivors: run.survivors(),
        });

        if e + 1 < epochs {
            let started = Instant::now();
            let ops = edge_ops(e);
            let dim = runtime.decomposition().len();
            cross_boundary(&mut runtime, &mut inc, &ops, |_| {
                let mut merged = VectorTime::zero(dim);
                for clock in run.final_clocks() {
                    merged
                        .merge_max(clock)
                        .map_err(|_| RuntimeError::DimensionMismatch {
                            expected: dim,
                            got: clock.dim(),
                        })?;
                }
                Ok::<_, ChurnError>(merged)
            })?;
            enter_micros = started.elapsed().as_micros() as u64;
            let cuts = logs.iter().map(|l| l.len() as u64).collect();
            boundaries.push(boundary_record((e + 1) as u64, cuts, &ops));
        }
    }

    Ok(ChurnRun {
        universe,
        logs,
        boundaries,
        epochs: reports,
        stats: RunStats::merged(&epoch_stats),
        outcomes,
    })
}

/// Runs a churn plan end to end in one OS process: [`run_epochs`] on a
/// runtime over the plan's first ring, configured by `cfg`, where every
/// epoch is a token ring over its active set ([`ring_behavior`]).
///
/// # Errors
///
/// [`ChurnError::InvalidPlan`] for a malformed plan, and the errors of
/// [`run_epochs`].
pub fn run_churn(plan: &ChurnPlan, cfg: &ChurnConfig) -> Result<ChurnRun, ChurnError> {
    let actives = plan.active_sets()?;
    let topology = epoch_topology(plan.universe, &actives[0])?;
    let start = IncrementalDecomposition::new(&topology);
    let mut runtime = Runtime::new(&topology, start.decomposition()).with_clock(cfg.backend);
    if !cfg.fault.is_empty() {
        runtime = runtime.with_fault_injector(Arc::new(cfg.fault.clone()));
    }
    run_epochs(
        runtime,
        actives.len(),
        |e, p| ring_behavior(&actives[e], p, plan.rounds(e)),
        |e| edge_ops(&actives[e], &actives[e + 1]),
    )
}

/// The token-ring behavior of one process for one epoch: the lowest
/// active process starts each lap (send then receive), everyone else
/// relays (receive then send). Processes outside the active set idle —
/// the same behavior a distributed `serve-node` runs for its slice of a
/// churn epoch, so local and distributed churn runs are comparable
/// rendezvous-for-rendezvous.
pub fn ring_behavior(active: &[usize], process: usize, rounds: u64) -> Behavior {
    let k = active.len();
    match active.iter().position(|&a| a == process) {
        Some(i) if k >= 2 => {
            let prev = active[(i + k - 1) % k];
            let next = active[(i + 1) % k];
            let head = i == 0;
            Box::new(move |ctx| {
                for lap in 0..rounds {
                    if head {
                        ctx.send(next, lap)?;
                        ctx.receive_from(prev)?;
                    } else {
                        let (token, _) = ctx.receive_from(prev)?;
                        ctx.send(next, token)?;
                    }
                }
                Ok(())
            })
        }
        _ => Box::new(|_| Ok(())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultEvent, FaultKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use synctime_runtime::reconstruct_from_logs;
    use synctime_trace::Oracle;

    fn sample_plan() -> ChurnPlan {
        ChurnPlan {
            universe: 6,
            initial: vec![0, 1, 2, 3],
            events: vec![
                ChurnEvent {
                    after_rounds: 2,
                    kind: ChurnKind::Join { process: 4 },
                },
                ChurnEvent {
                    after_rounds: 2,
                    kind: ChurnKind::Leave { process: 1 },
                },
                ChurnEvent {
                    after_rounds: 2,
                    kind: ChurnKind::Swap {
                        leaving: 2,
                        joining: 5,
                    },
                },
            ],
            tail_rounds: 2,
        }
    }

    #[test]
    fn json_roundtrip_including_swap() {
        let plan = sample_plan();
        let json = plan.to_json();
        assert!(json.contains("\"join\""), "got: {json}");
        assert!(json.contains("\"swap\""), "got: {json}");
        let back = ChurnPlan::from_json(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn active_sets_follow_the_script() {
        let sets = sample_plan().active_sets().unwrap();
        assert_eq!(
            sets,
            vec![
                vec![0, 1, 2, 3],
                vec![0, 1, 2, 3, 4],
                vec![0, 2, 3, 4],
                vec![0, 3, 4, 5],
            ]
        );
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut bad = sample_plan();
        bad.events.push(ChurnEvent {
            after_rounds: 1,
            kind: ChurnKind::Leave { process: 0 },
        });
        assert!(matches!(bad.validate(), Err(ChurnError::InvalidPlan(_))));

        let mut bad = sample_plan();
        bad.events[0] = ChurnEvent {
            after_rounds: 1,
            kind: ChurnKind::Join { process: 1 },
        };
        assert!(matches!(bad.validate(), Err(ChurnError::InvalidPlan(_))));

        let mut bad = sample_plan();
        bad.initial = vec![1, 2];
        assert!(matches!(bad.validate(), Err(ChurnError::InvalidPlan(_))));
    }

    #[test]
    fn union_topology_covers_every_epoch_ring() {
        let plan = sample_plan();
        let union = plan.union_topology().unwrap();
        for set in plan.active_sets().unwrap() {
            for (u, v) in ring_edges(&set) {
                assert!(
                    union.edges().any(|e| e.lo() == u && e.hi() == v),
                    "union topology missing ring edge ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn random_plans_are_seeded_and_valid() {
        let a = ChurnPlan::random(7, 5, 3, &mut StdRng::seed_from_u64(11));
        let b = ChurnPlan::random(7, 5, 3, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b, "same seed must yield the same plan");
        let c = ChurnPlan::random(7, 5, 3, &mut StdRng::seed_from_u64(12));
        assert_ne!(a, c, "different seeds should differ");
        a.validate().unwrap();
        assert_eq!(a.events.len(), 5);
        assert!(a.events.iter().all(|e| e.after_rounds >= 1));
    }

    #[test]
    fn run_churn_executes_every_epoch_and_cuts_consistently() {
        let plan = sample_plan();
        let run = run_churn(&plan, &ChurnConfig::default()).unwrap();
        assert_eq!(run.epochs.len(), 4);
        assert_eq!(run.boundaries.len(), 3);
        assert_eq!(run.logs.len(), 6);
        // Cuts are non-decreasing per process and bounded by log lengths.
        for p in 0..run.universe {
            let mut prev = 0u64;
            for b in &run.boundaries {
                assert!(b.cuts[p] >= prev);
                assert!(b.cuts[p] as usize <= run.logs[p].len());
                prev = b.cuts[p];
            }
        }
        // Every reconfiguration carried at least one edge op.
        assert!(run.boundaries.iter().all(|b| !b.ops.is_empty()));
        // Reconfigurations into epochs 1.. were timed.
        assert!(run.epochs[0].reconfigure_micros == 0);
        // The final epoch's logs reconstruct on their own and their stamps
        // encode the synchronous order of the reconstructed computation.
        let segment = run.final_epoch_logs();
        let (comp, stamps) = reconstruct_from_logs(&segment).unwrap();
        assert_eq!(comp.message_count(), 2 * 4, "2 laps around a 4-ring");
        assert!(stamps.encodes(&Oracle::new(&comp)));
    }

    #[test]
    fn a_run_with_boundaries_refuses_a_foreign_start() {
        let plan = sample_plan();
        let actives = plan.active_sets().unwrap();
        let topology = epoch_topology(plan.universe, &actives[0]).unwrap();
        let foreign = synctime_graph::decompose::trivial(&topology);
        assert_ne!(
            &foreign,
            IncrementalDecomposition::new(&topology).decomposition()
        );
        let run = |epochs| {
            run_epochs(
                Runtime::new(&topology, &foreign),
                epochs,
                |e, p| ring_behavior(&actives[e], p, 1),
                |e| edge_ops(&actives[e], &actives[e + 1]),
            )
        };
        assert!(matches!(run(2), Err(ChurnError::ForeignDecomposition)));
        // One epoch has no boundary to remap, so any decomposition runs.
        let one = run(1).unwrap();
        assert!(one.boundaries.is_empty());
        assert_eq!(one.epochs[0].active, actives[0]);
        assert!(one.outcomes.iter().all(Option::is_none));
    }

    #[test]
    fn crash_faults_compose_and_remove_the_victim_for_good() {
        let plan = sample_plan();
        let cfg = ChurnConfig {
            backend: ClockBackend::default(),
            fault: FaultPlan {
                faults: vec![FaultEvent {
                    process: 3,
                    at_op: 1,
                    kind: FaultKind::Crash,
                }],
            },
        };
        let run = run_churn(&plan, &cfg).unwrap();
        assert_eq!(run.epochs.len(), 4);
        // Epoch 0 lost at least the victim.
        assert!(run.epochs[0].survivors < 4);
        // Process 3 logged nothing after the first boundary: it is dead.
        let first_cut = run.boundaries[0].cuts[3];
        assert_eq!(run.logs[3].len() as u64, first_cut);
        // The coordinator kept making progress in later epochs.
        let last_cut = run.boundaries[2].cuts[0];
        assert!(run.logs[0].len() as u64 > last_cut || run.logs[0].len() as u64 >= first_cut);
    }
}
