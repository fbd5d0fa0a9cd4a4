//! Typed failures for sockets, handshakes, and the query protocol.

use std::fmt;

/// Why a `synctime-net` operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// An OS-level socket failure (connect, bind, read, write).
    Io(String),
    /// The HELLO exchange failed: version or topology-hash mismatch, or an
    /// unexpected first frame. The connection is refused before any
    /// protocol traffic.
    Handshake(String),
    /// The byte stream violated the frame protocol (unknown type,
    /// malformed body, oversized length). Framing is lost; the connection
    /// is dead.
    Protocol(String),
    /// The peer closed the connection.
    Closed,
    /// The query server rejected a query (out-of-range message id,
    /// unknown query kind); carries the server's diagnostic.
    Query(String),
    /// A pipelined ANSWER3 frame carried a correlation id that matches no
    /// in-flight batch (never issued, or already answered). The frame has
    /// been consumed and framing is intact, so the connection stays
    /// usable — the stray answer is dropped, not desynchronising.
    Correlation(u32),
    /// A RECONFIG_ACK or RECONFIGURE frame named another epoch than the
    /// boundary this node is crossing.
    EpochMismatch {
        /// The epoch of the boundary being crossed.
        expected: u64,
        /// The epoch the frame carried.
        got: u64,
    },
    /// A follower's RECONFIG_ACK hashed its post-edit topology and
    /// decomposition differently from process 0: the replicas applied
    /// different edits, and the boundary is refused before any commit.
    ReplicaDiverged {
        /// The epoch of the boundary being crossed.
        epoch: u64,
        /// The diverged follower.
        process: u32,
        /// Process 0's post-edit hash.
        expected: u64,
        /// The follower's post-edit hash.
        got: u64,
    },
    /// A RECONFIG_ACK or RECONFIGURE clock's dimension is not the ending
    /// epoch's.
    ClockDimension {
        /// The epoch of the boundary being crossed.
        epoch: u64,
        /// The ending epoch's dimension.
        expected: usize,
        /// The frame clock's dimension.
        got: usize,
    },
    /// A pipelined session finished with a submitted batch still
    /// unanswered: the server never sent an ANSWER3 for the batch at this
    /// slot. Surfaced instead of fabricating empty results for the hole.
    Incomplete {
        /// The submission slot (as returned by `Pipeline::submit`) whose
        /// answer never arrived.
        slot: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(detail) => write!(f, "socket failure: {detail}"),
            NetError::Handshake(detail) => write!(f, "handshake refused: {detail}"),
            NetError::Protocol(detail) => write!(f, "frame protocol violation: {detail}"),
            NetError::Closed => write!(f, "connection closed by peer"),
            NetError::Query(detail) => write!(f, "query rejected: {detail}"),
            NetError::Correlation(corr) => {
                write!(f, "unknown correlation id {corr} on a pipelined answer")
            }
            NetError::EpochMismatch { expected, got } => {
                write!(
                    f,
                    "reconfiguration epoch mismatch: frame names epoch {got}, node expects {expected}"
                )
            }
            NetError::ReplicaDiverged {
                epoch,
                process,
                expected,
                got,
            } => write!(
                f,
                "replica diverged at epoch {epoch}: process {process} hashes its topology to \
                 {got:#x}, process 0 to {expected:#x}"
            ),
            NetError::ClockDimension {
                epoch,
                expected,
                got,
            } => write!(
                f,
                "reconfiguration into epoch {epoch}: clock of dimension {got}, expected {expected}"
            ),
            NetError::Incomplete { slot } => {
                write!(f, "pipelined batch at slot {slot} was never answered")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}
