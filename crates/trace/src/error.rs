use std::fmt;

use crate::computation::ProcessId;

/// Errors produced while building or validating computation traces.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// A process id was at least the process count.
    ProcessOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// Number of processes in the computation.
        process_count: usize,
    },
    /// A message's sender equals its receiver.
    SelfMessage(ProcessId),
    /// A message uses a channel absent from the declared topology.
    NotAChannel {
        /// The sending process.
        sender: ProcessId,
        /// The receiving process.
        receiver: ProcessId,
    },
    /// The per-process sequences cannot be realized by any synchronous
    /// (rendezvous) execution: the process orders induce a cyclic
    /// constraint on the messages, so no vertical-arrow drawing exists.
    NotSynchronous {
        /// The index of a message on the cyclic constraint.
        message: usize,
    },
    /// Per-process sequences mention a message an inconsistent number of
    /// times (each message must appear exactly once at its sender and once
    /// at its receiver).
    MalformedSequences {
        /// The offending message index.
        message: usize,
    },
    /// A message's logged stamp has a different number of components
    /// from the stamps before it, so the stamps fit no one table.
    StampDimensionMismatch {
        /// The offending message index.
        message: usize,
        /// The dimension of the stamps before it.
        expected: usize,
        /// The dimension of its stamp.
        got: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::ProcessOutOfRange {
                process,
                process_count,
            } => {
                write!(
                    f,
                    "process {process} out of range ({process_count} processes)"
                )
            }
            TraceError::SelfMessage(p) => {
                write!(f, "process {p} cannot send a message to itself")
            }
            TraceError::NotAChannel { sender, receiver } => {
                write!(
                    f,
                    "no channel between processes {sender} and {receiver} in the topology"
                )
            }
            TraceError::NotSynchronous { message } => {
                write!(f, "no synchronous execution realizes these sequences (cycle through message {message})")
            }
            TraceError::MalformedSequences { message } => {
                write!(
                    f,
                    "message {message} does not appear exactly once at its sender and receiver"
                )
            }
            TraceError::StampDimensionMismatch {
                message,
                expected,
                got,
            } => {
                write!(
                    f,
                    "message {message} is stamped with {got} components, but the messages before it with {expected}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}
