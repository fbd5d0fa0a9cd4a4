//! `synctime-net`: sockets for synchronous timestamping.
//!
//! Everything below the `Transport` seam in `synctime-runtime` is
//! location-transparent: a [`Behavior`] rendezvouses through `TxChannel` /
//! `RxChannel` objects and never learns whether its peer is a thread or
//! another machine. This crate supplies the *other* implementation of that
//! seam — per-peer TCP connections speaking a length-prefixed frame
//! protocol — plus a network query service over stamped traces:
//!
//! * [`frame`] — the wire protocol: `[u32 len][u8 type][body]` frames
//!   (HELLO, OFFER, ACK, RESYNC, ERROR, the correlation-tagged
//!   QUERY3/ANSWER3 query pair, and the RECONFIG_ACK/RECONFIGURE epoch
//!   boundary pair), an incremental [`FrameReader`] with
//!   zero-copy [`peek_frame`](frame::FrameReader::peek_frame) access,
//!   borrowed batch views, reusable [`FrameScratch`] buffers, and
//!   [`topology_hash`] for handshake validation. OFFER/ACK/RESYNC and
//!   QUERY3/ANSWER3 byte layouts match `synctime-core`'s wire-cost model
//!   *exactly*, so [`RunStats`] wire accounting is identical whether a
//!   run is local or distributed.
//! * [`tcp`] — [`TcpMeshBuilder`] / [`TcpMesh`]: bind-then-establish
//!   peer meshes with deterministic dial direction (higher id dials),
//!   and `TxChannel`/`RxChannel` adapters the runtime drives unmodified.
//!   A connection has no thread of its own: the thread that waits on it
//!   reads its socket, filing each frame in a per-purpose queue.
//! * [`reconfig`] — the epoch boundary over TCP: every node applies the
//!   boundary's edits from its own copy of the plan to its own
//!   [`IncrementalDecomposition`] replica; each follower sends process 0
//!   one RECONFIG_ACK (its post-edit topology hash and final clock), and
//!   process 0 checks the hashes, max-merges the clocks and commits the
//!   merge in one RECONFIGURE to each. Every node rebases that one merge
//!   into the uniform baseline of the next epoch, as the in-process
//!   engine does, keeping post-change stamps order-isomorphic with an
//!   uninterrupted reference run.
//! * [`catalog`] — the multi-trace query fabric: [`QueryFabric`] holds
//!   shared immutable [`Arc`](std::sync::Arc) snapshots of stamped
//!   traces, keyed by trace id and spread across in-process shards by
//!   the id's hash modulo the shard count; re-stamping publishes
//!   copy-on-write so in-flight readers are never blocked.
//! * [`pool`] — [`serve_fabric`], the fixed-size worker pool that
//!   replaced PR 5's thread-per-connection accept loop.
//! * [`query`] — the precedence-query protocol: Theorem 4 of the paper
//!   as a service over QUERY3/ANSWER3 ([`pump_frames`] on the server,
//!   and [`QueryClient`] on the client, whose one engine, [`Pipeline`],
//!   keeps a window of batches in flight on one connection and completes
//!   them out of order by correlation id; lock-step is a window of one).
//! * [`report`] — [`NodeReport`], the report each OS process prints so a
//!   launcher can merge a distributed run back into one trace and one
//!   [`RunStats`]: a small JSON envelope whose `log` field carries the
//!   node's log as the store's framed records.
//!
//! The crate is std-only: no async runtime, no serialization framework —
//! blocking sockets read by the threads that wait on them, and
//! hand-framed bytes, in keeping with the workspace's
//! no-external-dependency rule.
//!
//! [`Behavior`]: synctime_runtime::Behavior
//! [`RunStats`]: synctime_obs::RunStats
//! [`QueryClient`]: query::QueryClient
//! [`pump_frames`]: query::pump_frames
//! [`QueryFabric`]: catalog::QueryFabric
//! [`serve_fabric`]: pool::serve_fabric
//! [`NodeReport`]: report::NodeReport
//! [`FrameReader`]: frame::FrameReader
//! [`FrameScratch`]: frame::FrameScratch
//! [`Pipeline`]: query::Pipeline
//! [`topology_hash`]: frame::topology_hash
//! [`TcpMeshBuilder`]: tcp::TcpMeshBuilder
//! [`TcpMesh`]: tcp::TcpMesh
//! [`IncrementalDecomposition`]: synctime_graph::IncrementalDecomposition

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod error;
pub mod frame;
pub mod pool;
pub mod query;
pub mod reconfig;
pub mod report;
pub mod tcp;

pub use catalog::{QueryFabric, DEFAULT_SHARDS};
pub use error::NetError;
pub use frame::{
    encode_ack_into, encode_offer_into, encode_query_batch_into, encode_resync_into, topology_hash,
    topology_hash_of, AnswerBatchView, BatchEntry, BatchQuery, Frame, FrameReader, FrameScratch,
    QueryBatchView, MAX_BATCH, MAX_FRAME_LEN, MAX_TRACE_NAME, PROTOCOL_VERSION,
};
pub use pool::{default_pool_size, serve_fabric};
pub use query::{
    answer_query, answer_query_into, pump_frames, Pipeline, QueryClient, DEFAULT_TRACE_NAME,
};
pub use reconfig::{coordinate_reconfigure, follow_reconfigure};
pub use report::{NodeReport, NODE_REPORT_SCHEMA};
pub use tcp::{TcpMesh, TcpMeshBuilder};
