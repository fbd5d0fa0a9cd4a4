use std::fmt;

use synctime_graph::Edge;
use synctime_trace::ProcessId;

/// Errors produced by the timestamping algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A message was sent over a channel that belongs to no edge group of
    /// the decomposition — the decomposition does not cover the topology
    /// actually used by the computation.
    ChannelNotInDecomposition {
        /// The channel's edge.
        edge: Edge,
    },
    /// A process id exceeded the clock table created for the computation.
    ProcessOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// The number of processes the stamper was prepared for.
        process_count: usize,
    },
    /// Two clocks of different dimensions met where one dimension was
    /// required: a merge, a delta application, or a reconfiguration remap
    /// whose domain/codomain disagreed with the session. Proceeding would
    /// silently truncate causal history, so the operation is refused.
    DimensionMismatch {
        /// The dimension the operation had to match.
        expected: usize,
        /// The dimension it actually saw.
        got: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ChannelNotInDecomposition { edge } => {
                write!(
                    f,
                    "channel {edge} belongs to no edge group of the decomposition"
                )
            }
            CoreError::ProcessOutOfRange {
                process,
                process_count,
            } => {
                write!(f, "process {process} out of range ({process_count} clocks)")
            }
            CoreError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for CoreError {}
