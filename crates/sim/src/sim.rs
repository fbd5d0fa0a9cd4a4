//! A deterministic discrete-event scheduler for CSP-style synchronous
//! programs.
//!
//! Each process runs a *script* of operations ([`Op`]): blocking sends,
//! blocking receives (from a specific peer or from anyone), and internal
//! steps. The [`Simulator`] repeatedly matches a ready sender with a ready
//! receiver — a rendezvous — until every script finishes, producing the
//! resulting [`SyncComputation`]; if unfinished scripts can no longer
//! rendezvous it reports the deadlock, naming the blocked processes.
//!
//! Scheduling is seeded: among the enabled rendezvous the simulator picks
//! one with a deterministic RNG, so a `(programs, seed)` pair always yields
//! the same computation, while different seeds explore different
//! interleavings of the same program — handy for property-testing that
//! timestamp algorithms are correct on *every* schedule.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use synctime_graph::Graph;
use synctime_trace::{Builder, ProcessId, SyncComputation, TraceError};

/// One operation of a process script. It reads from a programs file as
/// `{"send_to": q}`, `{"receive_from": q}`, `"receive_any"` or
/// `"internal"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum Op {
    /// Blocking send to a specific peer.
    #[serde(rename = "send_to")]
    SendTo(ProcessId),
    /// Blocking receive from a specific peer.
    #[serde(rename = "receive_from")]
    ReceiveFrom(ProcessId),
    /// Blocking receive from whichever peer sends first.
    #[serde(rename = "receive_any")]
    ReceiveAny,
    /// A local step (never blocks).
    #[serde(rename = "internal")]
    Internal,
}

/// A process's script, built fluently:
///
/// ```
/// use synctime_sim::Program;
///
/// let p = Program::new().send_to(1).internal().receive_from(2);
/// assert_eq!(p.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// An empty script.
    pub fn new() -> Self {
        Program::default()
    }

    /// Appends a blocking send to `peer`.
    #[must_use]
    pub fn send_to(mut self, peer: ProcessId) -> Self {
        self.ops.push(Op::SendTo(peer));
        self
    }

    /// Appends a blocking receive from `peer`.
    #[must_use]
    pub fn receive_from(mut self, peer: ProcessId) -> Self {
        self.ops.push(Op::ReceiveFrom(peer));
        self
    }

    /// Appends a blocking receive from any peer.
    #[must_use]
    pub fn receive_any(mut self) -> Self {
        self.ops.push(Op::ReceiveAny);
        self
    }

    /// Appends an internal step.
    #[must_use]
    pub fn internal(mut self) -> Self {
        self.ops.push(Op::Internal);
        self
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }
}

/// Errors from simulating a set of scripts.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// No rendezvous is enabled but some scripts have not finished. The
    /// classic example: two processes that both send before receiving —
    /// legal with asynchronous buffering, a deadlock under rendezvous.
    Deadlock {
        /// Processes stuck mid-script.
        blocked: Vec<ProcessId>,
    },
    /// A script refers to a peer outside `0..N` or to itself, or uses a
    /// channel missing from the topology.
    InvalidOp {
        /// The process whose script is invalid.
        process: ProcessId,
        /// The index of the offending operation.
        op_index: usize,
        /// The underlying trace error.
        source: TraceError,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { blocked } => {
                write!(f, "rendezvous deadlock; blocked processes: {blocked:?}")
            }
            SimError::InvalidOp {
                process,
                op_index,
                source,
            } => {
                write!(f, "invalid op {op_index} of process {process}: {source}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::InvalidOp { source, .. } => Some(source),
            SimError::Deadlock { .. } => None,
        }
    }
}

/// The rendezvous scheduler. See the module docs.
#[derive(Debug, Clone)]
pub struct Simulator {
    topology: Option<Graph>,
    seed: u64,
}

impl Simulator {
    /// A simulator with no topology restriction and seed 0.
    pub fn new() -> Self {
        Simulator {
            topology: None,
            seed: 0,
        }
    }

    /// Restricts messages to the channels of `topology`.
    #[must_use]
    pub fn with_topology(mut self, topology: &Graph) -> Self {
        self.topology = Some(topology.clone());
        self
    }

    /// Sets the scheduling seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the scripts to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::Deadlock`] if unfinished scripts cannot rendezvous;
    /// [`SimError::InvalidOp`] for out-of-range peers, self-messages, or
    /// (when a topology is set) absent channels.
    pub fn run(&self, programs: &[Program]) -> Result<SyncComputation, SimError> {
        let n = programs.len();
        let mut builder = match &self.topology {
            Some(t) => {
                // The topology may declare more processes than scripts; pad.
                assert!(
                    t.node_count() >= n,
                    "topology has fewer nodes than programs"
                );
                Builder::with_topology(t)
            }
            None => Builder::new(n),
        };
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut pc = vec![0usize; n];
        let done = |pc: &[usize], p: usize| pc[p] >= programs[p].ops.len();

        loop {
            // Internal steps never block: flush them in process order.
            let mut progressed = true;
            while progressed {
                progressed = false;
                for p in 0..n {
                    while !done(&pc, p) && programs[p].ops[pc[p]] == Op::Internal {
                        builder.internal(p).map_err(|source| SimError::InvalidOp {
                            process: p,
                            op_index: pc[p],
                            source,
                        })?;
                        pc[p] += 1;
                        progressed = true;
                    }
                }
            }
            // Collect enabled rendezvous pairs (sender, receiver).
            let mut enabled: Vec<(ProcessId, ProcessId)> = Vec::new();
            for s in 0..n {
                if done(&pc, s) {
                    continue;
                }
                if let Op::SendTo(r) = programs[s].ops[pc[s]] {
                    if r < n && !done(&pc, r) {
                        let ready = match programs[r].ops[pc[r]] {
                            Op::ReceiveFrom(from) => from == s,
                            Op::ReceiveAny => true,
                            _ => false,
                        };
                        if ready {
                            enabled.push((s, r));
                        }
                    } else if r >= n {
                        // Out-of-range peer: surface as an invalid op now.
                        return Err(SimError::InvalidOp {
                            process: s,
                            op_index: pc[s],
                            source: TraceError::ProcessOutOfRange {
                                process: r,
                                process_count: n,
                            },
                        });
                    }
                }
            }
            if enabled.is_empty() {
                let blocked: Vec<ProcessId> = (0..n).filter(|&p| !done(&pc, p)).collect();
                if blocked.is_empty() {
                    return Ok(builder.build());
                }
                return Err(SimError::Deadlock { blocked });
            }
            let (s, r) = enabled[rng.gen_range(0..enabled.len())];
            builder
                .message(s, r)
                .map_err(|source| SimError::InvalidOp {
                    process: s,
                    op_index: pc[s],
                    source,
                })?;
            pc[s] += 1;
            pc[r] += 1;
        }
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Simulator::new()
    }
}

/// Exhaustively enumerates the computations reachable under **every**
/// rendezvous schedule of the given scripts — model checking in miniature.
/// Internal events are flushed eagerly (they commute with everything), so
/// branching happens only on which enabled rendezvous commits next.
///
/// Returns the distinct computations found, or an error if the number of
/// complete schedules would exceed `limit` (the schedule space is
/// factorial in the worst case) or if some schedule deadlocks/fails.
///
/// Directed scripts (no [`Op::ReceiveAny`]) are confluent, so they yield
/// exactly one computation per run — a property
/// [`crate::programs::roundtrips`] tests; scripts with `ReceiveAny` can
/// genuinely branch.
///
/// # Errors
///
/// [`SimError::Deadlock`] if any schedule gets stuck; [`SimError`] as in
/// [`Simulator::run`] for invalid operations.
///
/// # Panics
///
/// Panics if more than `limit` complete schedules are generated.
pub fn enumerate_schedules(
    topology: Option<&Graph>,
    programs: &[Program],
    limit: usize,
) -> Result<Vec<SyncComputation>, SimError> {
    let n = programs.len();

    fn explore(
        programs: &[Program],
        pc: &mut Vec<usize>,
        trace: &mut Vec<(ProcessId, ProcessId)>,
        out: &mut Vec<Vec<(ProcessId, ProcessId)>>,
        limit: usize,
    ) -> Result<(), SimError> {
        let n = programs.len();
        // Collect enabled rendezvous (internal ops commute; treat them as
        // implicit and skip over them when computing "current" ops).
        let current = |pc: &[usize], p: usize| -> Option<Op> {
            let mut i = pc[p];
            // Internal ops are recorded positionally later; skip for
            // enabling purposes.
            while i < programs[p].ops.len() && programs[p].ops[i] == Op::Internal {
                i += 1;
            }
            (i < programs[p].ops.len()).then(|| programs[p].ops[i])
        };
        let mut enabled: Vec<(ProcessId, ProcessId)> = Vec::new();
        for s in 0..n {
            if let Some(Op::SendTo(r)) = current(pc, s) {
                if r < n {
                    let ready = match current(pc, r) {
                        Some(Op::ReceiveFrom(from)) => from == s,
                        Some(Op::ReceiveAny) => true,
                        _ => false,
                    };
                    if ready {
                        enabled.push((s, r));
                    }
                } else {
                    return Err(SimError::InvalidOp {
                        process: s,
                        op_index: pc[s],
                        source: TraceError::ProcessOutOfRange {
                            process: r,
                            process_count: n,
                        },
                    });
                }
            }
        }
        if enabled.is_empty() {
            let blocked: Vec<ProcessId> = (0..n).filter(|&p| current(pc, p).is_some()).collect();
            if !blocked.is_empty() {
                return Err(SimError::Deadlock { blocked });
            }
            assert!(out.len() < limit, "schedule space exceeds limit {limit}");
            out.push(trace.clone());
            return Ok(());
        }
        for &(s, r) in &enabled {
            // Advance both processes past their (possibly implicit
            // internal-prefixed) rendezvous ops.
            let saved = pc.clone();
            for &p in &[s, r] {
                while programs[p].ops[pc[p]] == Op::Internal {
                    pc[p] += 1;
                }
                pc[p] += 1;
            }
            trace.push((s, r));
            explore(programs, pc, trace, out, limit)?;
            trace.pop();
            *pc = saved;
        }
        Ok(())
    }

    let mut pc = vec![0usize; n];
    let mut trace = Vec::new();
    let mut rendezvous_traces = Vec::new();
    explore(programs, &mut pc, &mut trace, &mut rendezvous_traces, limit)?;

    // Rebuild full computations (with internal events re-inserted in
    // script order) for each distinct rendezvous trace.
    rendezvous_traces.sort();
    rendezvous_traces.dedup();
    let mut computations = Vec::with_capacity(rendezvous_traces.len());
    for rt in rendezvous_traces {
        let mut builder = match topology {
            Some(t) => Builder::with_topology(t),
            None => Builder::new(n),
        };
        let mut pc = vec![0usize; n];
        let flush = |p: usize, pc: &mut Vec<usize>, b: &mut Builder| {
            while pc[p] < programs[p].ops.len() && programs[p].ops[pc[p]] == Op::Internal {
                b.internal(p).expect("valid process");
                pc[p] += 1;
            }
        };
        for (s, r) in rt {
            flush(s, &mut pc, &mut builder);
            flush(r, &mut pc, &mut builder);
            builder
                .message(s, r)
                .map_err(|source| SimError::InvalidOp {
                    process: s,
                    op_index: pc[s],
                    source,
                })?;
            pc[s] += 1;
            pc[r] += 1;
        }
        for p in 0..n {
            flush(p, &mut pc, &mut builder);
        }
        computations.push(builder.build());
    }
    computations.dedup();
    Ok(computations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use synctime_graph::topology;

    #[test]
    fn simple_rendezvous() {
        let programs = vec![
            Program::new().send_to(1).receive_from(1),
            Program::new().receive_from(0).send_to(0),
        ];
        let c = Simulator::new().run(&programs).unwrap();
        assert_eq!(c.message_count(), 2);
        assert_eq!(c.messages()[0].sender, 0);
        assert_eq!(c.messages()[1].sender, 1);
    }

    #[test]
    fn receive_any_matches() {
        let programs = vec![
            Program::new().receive_any().receive_any(),
            Program::new().send_to(0),
            Program::new().send_to(0),
        ];
        let c = Simulator::new().run(&programs).unwrap();
        assert_eq!(c.message_count(), 2);
        assert!(c.messages().iter().all(|m| m.receiver == 0));
    }

    #[test]
    fn crossing_sends_deadlock() {
        // Both send first: classic rendezvous deadlock.
        let programs = vec![
            Program::new().send_to(1).receive_from(1),
            Program::new().send_to(0).receive_from(0),
        ];
        let err = Simulator::new().run(&programs).unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                blocked: vec![0, 1]
            }
        );
    }

    #[test]
    fn internal_ops_never_block() {
        let programs = vec![
            Program::new().internal().internal().send_to(1),
            Program::new().internal().receive_from(0).internal(),
        ];
        let c = Simulator::new().run(&programs).unwrap();
        assert_eq!(c.message_count(), 1);
        assert_eq!(c.events().count(), 2 + 4);
    }

    #[test]
    fn seeds_change_interleavings_deterministically() {
        // Two producers race to a consumer accepting any order.
        let programs = vec![
            Program::new()
                .receive_any()
                .receive_any()
                .receive_any()
                .receive_any(),
            Program::new().send_to(0).send_to(0),
            Program::new().send_to(0).send_to(0),
        ];
        let runs: Vec<_> = (0..8)
            .map(|seed| Simulator::new().with_seed(seed).run(&programs).unwrap())
            .collect();
        // Same seed twice is identical.
        let again = Simulator::new().with_seed(3).run(&programs).unwrap();
        assert_eq!(runs[3], again);
        // Some pair of seeds differs (the schedule space has 6 orders).
        assert!(runs.iter().any(|r| r != &runs[0]));
    }

    #[test]
    fn topology_violation_reported() {
        let topo = topology::path(3); // no 0-2 channel
        let programs = vec![
            Program::new().send_to(2),
            Program::new(),
            Program::new().receive_from(0),
        ];
        let err = Simulator::new()
            .with_topology(&topo)
            .run(&programs)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidOp {
                process: 0,
                source: TraceError::NotAChannel { .. },
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_peer_reported() {
        let programs = vec![Program::new().send_to(9)];
        let err = Simulator::new().run(&programs).unwrap_err();
        assert!(matches!(err, SimError::InvalidOp { process: 0, .. }));
    }

    #[test]
    fn self_send_never_enabled() {
        // A script sending to itself can never rendezvous: deadlock.
        let programs = vec![Program::new().send_to(0)];
        let err = Simulator::new().run(&programs).unwrap_err();
        assert_eq!(err, SimError::Deadlock { blocked: vec![0] });
    }

    #[test]
    fn empty_programs_finish_immediately() {
        let c = Simulator::new()
            .run(&[Program::new(), Program::new()])
            .unwrap();
        assert_eq!(c.message_count(), 0);
    }

    #[test]
    fn enumerate_directed_scripts_yield_one_computation_shape() {
        // Directed scripts are confluent: every schedule produces the same
        // per-process histories. Two independent producer-consumer pairs
        // have 6 interleavings of 4 rendezvous but one computation shape.
        let programs = vec![
            Program::new().send_to(1).send_to(1),
            Program::new().receive_from(0).receive_from(0),
            Program::new().send_to(3).send_to(3),
            Program::new().receive_from(2).receive_from(2),
        ];
        let all = enumerate_schedules(None, &programs, 100).unwrap();
        // Distinct rendezvous orders exist...
        assert!(all.len() > 1);
        // ...but all replays have identical per-process shapes.
        for c in &all {
            assert!(crate::programs::roundtrips(&all[0], c));
        }
    }

    #[test]
    fn enumerate_receive_any_branches() {
        // A ReceiveAny sink genuinely branches: two senders, 2 orders.
        let programs = vec![
            Program::new().receive_any().receive_any(),
            Program::new().send_to(0),
            Program::new().send_to(0),
        ];
        let all = enumerate_schedules(None, &programs, 100).unwrap();
        assert_eq!(all.len(), 2);
        assert!(!crate::programs::roundtrips(&all[0], &all[1]));
    }

    #[test]
    fn enumerate_detects_deadlocks_on_some_branch() {
        // One branch completes, the other deadlocks: the explorer reports
        // the deadlock (it verifies ALL schedules).
        let programs = vec![
            Program::new().receive_any().receive_from(1),
            Program::new().send_to(0).send_to(0),
            Program::new().send_to(0).receive_from(1),
        ];
        // Branch A: P0 takes P1 first, then must receive P1 again but P1's
        // second send goes to P0 — ok... Branch B: P0 takes P2 first, then
        // needs P1, P1 sends, then P1's second send and P2's receive
        // deadlock.
        let result = enumerate_schedules(None, &programs, 100);
        assert!(matches!(result, Err(SimError::Deadlock { .. })));
    }

    #[test]
    fn enumerate_flushes_internal_events() {
        let programs = vec![
            Program::new().internal().send_to(1).internal(),
            Program::new().receive_from(0),
        ];
        let all = enumerate_schedules(None, &programs, 10).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].events().count(), 4);
        assert_eq!(all[0].message_count(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds limit")]
    fn enumerate_limit_enforced() {
        // 3 independent pairs: 6 rendezvous, 90 interleavings > limit 10.
        let programs = vec![
            Program::new().send_to(1).send_to(1),
            Program::new().receive_from(0).receive_from(0),
            Program::new().send_to(3).send_to(3),
            Program::new().receive_from(2).receive_from(2),
            Program::new().send_to(5).send_to(5),
            Program::new().receive_from(4).receive_from(4),
        ];
        let _ = enumerate_schedules(None, &programs, 10);
    }
}
