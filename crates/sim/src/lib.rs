//! Deterministic workload generators and a rendezvous simulator for
//! synchronous computations.
//!
//! The paper's evaluation domain is "distributed programs that communicate
//! by synchronous messages" (CSP, Ada rendezvous, synchronous RPC). This
//! crate supplies that substrate in two flavours:
//!
//! * [`workload`] — seeded random computations over an arbitrary topology,
//!   used by property tests and benchmark sweeps;
//! * [`scenarios`] — the structured application classes the paper's
//!   introduction motivates: client–server RPC, tree
//!   broadcast/convergecast, ring token passing, and barrier phases;
//! * [`programs`] — extraction of per-process scripts from computations
//!   (directed rendezvous programs are confluent, enabling replay
//!   round-trips) and generation of guaranteed-deadlock-free program sets;
//! * [`sim`] — a deterministic discrete-event scheduler for CSP-style
//!   *programs* (per-process scripts of send/receive/internal operations)
//!   that resolves rendezvous pairs and emits the resulting
//!   [`SyncComputation`](synctime_trace::SyncComputation), detecting
//!   deadlock when the scripts cannot rendezvous;
//! * [`fault`] — seeded, JSON-serialisable fault schedules (crashes,
//!   delays, forced delta-stream desyncs) that plug into the runtime's
//!   fault-injection hook for crash-robustness experiments;
//! * [`churn`] — seeded, JSON-serialisable reconfiguration scripts
//!   (join/leave/swap at Poisson arrival times over a fixed process
//!   universe) plus the multi-epoch engine every in-process run uses
//!   (a static run is one epoch), which drives the runtime's epoch seam
//!   and produces boundary-cut logs for persistence and per-epoch
//!   dimension/latency reports.
//!
//! Everything is seeded and deterministic: the same seed yields the same
//! computation, so experiments are reproducible run-to-run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod fault;
pub mod programs;
pub mod scenarios;
pub mod sim;
pub mod workload;

pub use churn::{
    boundary_record, ring_behavior, run_churn, run_epochs, ChurnConfig, ChurnError, ChurnEvent,
    ChurnKind, ChurnPlan, ChurnRun, EpochReport,
};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use scenarios::Scenario;
pub use sim::{enumerate_schedules, Op, Program, SimError, Simulator};
