//! A threaded rendezvous message-passing runtime with online timestamp
//! piggybacking — the Figure 5 protocol running on real OS threads.
//!
//! The paper assumes the synchronous-ordering implementation of Murty &
//! Garg: every program message is acknowledged, and the vector clocks ride
//! on the message and its acknowledgement. This crate realizes exactly
//! that:
//!
//! * each process runs on its own thread and talks to its neighbors over
//!   **per-channel rendezvous slots** (a send blocks until the receiver
//!   takes the message — true rendezvous semantics; blocked endpoints park
//!   on the slot's condvar and consume no CPU);
//! * a [`ProcessCtx::send`] deposits `(payload, key, vector)` into the
//!   channel slot and takes the receiver's acknowledgement — its
//!   pre-update vector, which a receiver about to park posts on the slot
//!   in advance, or otherwise deposits right after taking the offer while
//!   the sender parks; both sides merge and increment exactly as in
//!   Figure 5 and deterministically agree on the message's timestamp;
//! * every process logs its sends, receives and internal events; after the
//!   run, [`RuntimeRun::reconstruct`] rebuilds the
//!   [`SyncComputation`](synctime_trace::SyncComputation) from
//!   the per-process logs (proving they are realizable — the runtime *is*
//!   synchronous) together with the piggybacked timestamps, which
//!   integration tests compare against the simulator's.
//!
//! # Example
//!
//! ```
//! use synctime_graph::{decompose, topology};
//! use synctime_runtime::Runtime;
//!
//! let topo = topology::star(2); // P0 is the hub; P1, P2 are leaves
//! let dec = decompose::best_known(&topo);
//! let run = Runtime::new(&topo, &dec).run(vec![
//!     Box::new(|ctx| {
//!         let (x, _) = ctx.receive_from(1)?;
//!         let (y, _) = ctx.receive_from(2)?;
//!         ctx.send(1, x + y)?;
//!         ctx.send(2, x + y)?;
//!         Ok(())
//!     }),
//!     Box::new(|ctx| {
//!         ctx.send(0, 20)?;
//!         let (sum, _) = ctx.receive_from(0)?;
//!         assert_eq!(sum, 62);
//!         Ok(())
//!     }),
//!     Box::new(|ctx| {
//!         ctx.send(0, 42)?;
//!         let (sum, _) = ctx.receive_from(0)?;
//!         assert_eq!(sum, 62);
//!         Ok(())
//!     }),
//! ])?;
//! let (computation, stamps) = run.reconstruct()?;
//! assert_eq!(computation.message_count(), 4);
//! assert_eq!(stamps.dim(), 1); // a star needs a single integer
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fault;
mod matcher;
mod runtime;
mod transport;

pub use error::RuntimeError;
pub use fault::{FaultAction, FaultInjector};
pub use runtime::{
    reconstruct_from_logs, AppliedReconfigure, Behavior, LogEntry, PersistEvent, ProcessCtx,
    ProcessRun, Runtime, RuntimeRun, DEFAULT_EVENT_RING, DEFAULT_RENDEZVOUS_RETRIES,
    DEFAULT_WATCHDOG_TIMEOUT,
};
pub use transport::{
    OfferAnswer, Polled, RawOffer, ReadySlot, RxChannel, SendAnswer, TransportError, TxChannel,
};
// Re-exported so downstream users can consume diagnoses and stats without
// depending on `synctime-obs` directly.
pub use synctime_obs::{DeadlockDiagnosis, RunStats, WaitEdge, WaitOp};
