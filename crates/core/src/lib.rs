//! Message and event timestamping for synchronous computations — the
//! algorithms of *Garg & Skawratananond, "Timestamping Messages in
//! Synchronous Computations" (ICDCS 2002)*.
//!
//! In a system of `N` processes whose messages are all **synchronous**
//! (blocking rendezvous), the messages form a poset `(M, ↦)` under
//! "synchronously precedes". This crate assigns each message a vector
//! timestamp `v(m)` with
//!
//! ```text
//! m1 ↦ m2  ⟺  v(m1) < v(m2)        (vector order)
//! ```
//!
//! using far fewer than `N` components:
//!
//! * [`online`] — the paper's **online algorithm** (Figure 5): one
//!   component per edge group of a star/triangle decomposition of the
//!   communication topology; sender and receiver exchange vectors on each
//!   message (piggybacked on the message and its acknowledgement), take the
//!   component-wise max, and increment the component of the channel's
//!   group. Vector size ≤ `min(β(G), N − 2)` (Theorem 5).
//! * [`offline`] — the **offline algorithm** (Figure 9): the message poset
//!   has width ≤ `⌊N/2⌋` (Theorem 8), so a chain realizer of that many
//!   linear extensions exists; `V_m[i]` is the number of messages before
//!   `m` in extension `L_i`.
//! * [`events`] — the Section 5 extension to **internal events**: the
//!   triple `(prev(e), succ(e), c(e))` captures Lamport's happened-before
//!   (Theorem 9).
//! * [`fm`] — the Fidge–Mattern baseline (one component per process), for
//!   both messages and events.
//! * [`lamport`] — scalar Lamport clocks, which also witness synchrony.
//!
//! The related-work mechanisms of the paper's Section 6 are implemented for
//! quantitative comparison: [`plausible`] (Torres-Rojas & Ahamad's
//! fixed-size, approximate clocks), [`fz`] (Fowler–Zwaenepoel direct
//! dependencies with offline tracing), and [`wire`] (varint wire encodings
//! including the Singhal–Kshemkalyani differential technique).
//!
//! The clock *representation* is pluggable: the [`clock`] module defines
//! the [`Clock`] trait with two backends — [`DenseVec`] (a plain vector,
//! the default) and [`TreeClock`] (sublinear delta merges) — both
//! producing identical stamps.
//!
//! # Quickstart
//!
//! ```
//! use synctime_core::online::OnlineStamper;
//! use synctime_graph::{decompose, topology};
//! use synctime_trace::Builder;
//!
//! // A 3-server, 5-client RPC system: clocks have 3 components, not 8.
//! let topo = topology::client_server(3, 5);
//! let dec = decompose::best_known(&topo);
//! assert_eq!(dec.len(), 3);
//!
//! let mut b = Builder::with_topology(&topo);
//! let m1 = b.message(3, 0)?; // client 0 calls server 0
//! let m2 = b.message(4, 1)?; // client 1 calls server 1 (concurrent)
//! let m3 = b.message(3, 1)?; // client 0 then calls server 1
//! let comp = b.build();
//!
//! let stamps = OnlineStamper::new(&dec).stamp_computation(&comp)?;
//! assert!(stamps.precedes(m1, m3));
//! assert!(stamps.concurrent(m1, m2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod vector;

pub mod clock;
pub mod events;
pub mod fm;
pub mod fz;
pub mod kernel;
pub mod lamport;
pub mod offline;
pub mod online;
pub mod plausible;
pub mod wire;

pub use clock::{Clock, ClockBackend, DenseVec, TreeClock};
pub use error::CoreError;
pub use vector::{MessageTimestamps, VectorOrder, VectorTime};
