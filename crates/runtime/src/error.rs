use std::fmt;

use synctime_obs::DeadlockDiagnosis;
use synctime_trace::ProcessId;

/// Errors surfaced by the threaded runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// A behavior addressed a process with no channel to it (not adjacent
    /// in the topology, or out of range).
    NoChannel {
        /// The process attempting the operation.
        from: ProcessId,
        /// The addressed peer.
        to: ProcessId,
    },
    /// The peer's thread terminated (finished or panicked) while this
    /// process was blocked on a rendezvous with it.
    PeerTerminated {
        /// The peer that went away.
        peer: ProcessId,
    },
    /// A behavior panicked; the runtime aborts the run.
    BehaviorPanicked {
        /// The panicking process.
        process: ProcessId,
    },
    /// The channel's edge is missing from the decomposition, so no vector
    /// component exists for it.
    ChannelNotInDecomposition {
        /// The sending process.
        from: ProcessId,
        /// The receiving process.
        to: ProcessId,
    },
    /// The watchdog found every live process blocked in a rendezvous beyond
    /// the configured timeout and aborted the run. The diagnosis names the
    /// wait-for cycle (who is blocked on whom, and for how long).
    Deadlock {
        /// The wait-for graph snapshot taken when the watchdog fired.
        diagnosis: DeadlockDiagnosis,
    },
    /// A per-channel delta stream desynchronised beyond what the resync
    /// protocol can repair (a malformed frame, a desynchronised
    /// acknowledgement stream, or more consecutive gaps than the resync
    /// budget allows). Contained to the channel: other channels' streams
    /// are unaffected.
    DeltaDesync {
        /// The stream's sending endpoint.
        from: ProcessId,
        /// The stream's receiving endpoint.
        to: ProcessId,
    },
    /// A rendezvous wait exceeded the configured timeout, including every
    /// backoff retry (see `Runtime::with_rendezvous_timeout`).
    RendezvousTimeout {
        /// The peer the operation was waiting on.
        peer: ProcessId,
        /// Total time spent waiting across all retries, in milliseconds.
        waited_ms: u64,
    },
    /// A configured fault injector terminated this process (a scheduled
    /// crash from a fault plan — see the `FaultInjector` trait).
    FaultInjected {
        /// The crashed process.
        process: ProcessId,
        /// The operation index at which the crash fired.
        at_op: u64,
    },
    /// The transport under a channel failed in a way that is not a clean
    /// peer shutdown: an OS-level I/O error or a malformed frame on a
    /// socket-backed channel (see `synctime_runtime::TransportError`).
    /// Never produced by the in-process transport.
    ChannelIo {
        /// The peer on the failed channel.
        peer: ProcessId,
        /// The transport's description of the failure.
        detail: String,
    },
    /// A clock baseline does not have one component per edge group of the
    /// decomposition it was given with (`Runtime::apply_reconfigure`). Every component would
    /// land in the wrong group, so it is refused.
    DimensionMismatch {
        /// The decomposition's edge-group count.
        expected: usize,
        /// The baseline's width.
        got: usize,
    },
    /// `Runtime::with_watchdog` was given a zero timeout. Every wait is
    /// parked for at least 0 ms the moment it begins, so a zero timeout
    /// would make every registered wait a deadlock candidate; use
    /// `Runtime::without_watchdog` to turn the watchdog off instead.
    ZeroWatchdogTimeout,
    /// A reconfiguration was applied out of order: `Runtime::apply_reconfigure`
    /// requires each applied epoch to be the successor of the runtime's
    /// current epoch, so no topology change can be skipped or replayed.
    EpochMismatch {
        /// The epoch the runtime could have accepted (current + 1).
        expected: u64,
        /// The epoch the reconfiguration carried.
        got: u64,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NoChannel { from, to } => {
                write!(f, "process {from} has no channel to process {to}")
            }
            RuntimeError::PeerTerminated { peer } => {
                write!(f, "peer process {peer} terminated during a rendezvous")
            }
            RuntimeError::BehaviorPanicked { process } => {
                write!(f, "behavior of process {process} panicked")
            }
            RuntimeError::ChannelNotInDecomposition { from, to } => {
                write!(f, "channel ({from}, {to}) belongs to no edge group")
            }
            RuntimeError::Deadlock { diagnosis } => {
                write!(f, "rendezvous deadlock: {diagnosis}")
            }
            RuntimeError::DeltaDesync { from, to } => {
                write!(
                    f,
                    "delta stream on channel ({from} -> {to}) desynchronised beyond recovery"
                )
            }
            RuntimeError::RendezvousTimeout { peer, waited_ms } => {
                write!(
                    f,
                    "rendezvous with process {peer} timed out after {waited_ms}ms (all retries exhausted)"
                )
            }
            RuntimeError::FaultInjected { process, at_op } => {
                write!(
                    f,
                    "injected fault crashed process {process} at operation {at_op}"
                )
            }
            RuntimeError::ChannelIo { peer, detail } => {
                write!(
                    f,
                    "transport failure on channel to process {peer}: {detail}"
                )
            }
            RuntimeError::DimensionMismatch { expected, got } => {
                write!(
                    f,
                    "clock baseline has {got} components, but the decomposition has {expected} edge groups"
                )
            }
            RuntimeError::ZeroWatchdogTimeout => {
                write!(
                    f,
                    "watchdog timeout must be above zero (every wait is parked for at least 0 ms)"
                )
            }
            RuntimeError::EpochMismatch { expected, got } => {
                write!(
                    f,
                    "reconfiguration epoch mismatch: applied epoch {got}, runtime expects {expected}"
                )
            }
        }
    }
}

impl std::error::Error for RuntimeError {}
