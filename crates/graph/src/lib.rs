//! Communication topologies and their star/triangle edge decompositions.
//!
//! This crate is the combinatorial substrate of the `synctime` project, a
//! reproduction of *Garg & Skawratananond, "Timestamping Messages in
//! Synchronous Computations" (ICDCS 2002)*. The paper's online timestamping
//! algorithm assigns one vector-clock component per **edge group** of an
//! *edge decomposition* of the communication topology: a partition of the
//! edge set in which every part is a [star](EdgeGroup::Star) or a
//! [triangle](EdgeGroup::Triangle) (Definition 2 of the paper).
//!
//! The crate provides:
//!
//! * [`Graph`] — a simple undirected graph over dense node ids,
//! * [`topology`] — generators for the topology families used throughout the
//!   paper and its evaluation (stars, trees, complete graphs, client–server
//!   bipartite graphs, random graphs, ...),
//! * [`cover`] — exact and approximate **vertex cover** algorithms, which
//!   bound the decomposition size (Theorem 5: `min(β(G), N − 2)` components
//!   suffice),
//! * [`decompose`] — the paper's greedy decomposition algorithm (Figure 7,
//!   ratio bound 2 by Theorem 6, optimal on forests by Theorem 7), a
//!   vertex-cover-based decomposition, the trivial complete-graph
//!   decomposition, and an exact branch-and-bound optimum for small graphs,
//! * [`incremental`] — a decomposition cache for **dynamic topologies**:
//!   edge insertions and removals patch the existing groups (re-running the
//!   greedy algorithm only on a component whose Theorem 6 ratio can no
//!   longer be certified), reporting how group ids shifted so running
//!   clocks can be rebased.
//!
//! # Example
//!
//! Decompose the 20-process tree of Figure 4 into three stars:
//!
//! ```
//! use synctime_graph::{topology, decompose};
//!
//! let tree = topology::balanced_tree(2, 4); // a binary tree
//! let dec = decompose::greedy(&tree);
//! dec.validate(&tree).unwrap();
//! assert!(dec.len() < tree.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod graph;

pub mod cover;
pub mod decompose;
pub mod incremental;
pub mod topology;

pub use decompose::{EdgeDecomposition, EdgeGroup};
pub use error::GraphError;
pub use graph::{Edge, Graph, NodeId};
pub use incremental::{EdgeOp, GroupRemap, IncrementalDecomposition};
