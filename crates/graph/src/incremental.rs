//! An incrementally maintained edge decomposition for dynamic topologies.
//!
//! PR 1 re-ran the Figure 7 greedy algorithm (`O(|V|·|E|)`) from scratch on
//! every topology change. This module keeps a [`Graph`] and its
//! [`EdgeDecomposition`] in lockstep under edge insertions and removals,
//! patching the existing groups whenever a local edit suffices:
//!
//! * **insert** — if a star already sits at either endpoint, the edge joins
//!   it ([`EdgeDecomposition::extend_star`]); otherwise a fresh singleton
//!   star is appended,
//! * **remove** — a multi-edge star sheds the edge in place
//!   ([`EdgeDecomposition::retract_star_edge`]), a singleton star is
//!   dropped (compacting later indices), and a broken triangle collapses to
//!   the 2-star at its remaining shared vertex.
//!
//! Fast paths alone can drift arbitrarily far from optimal (singleton stars
//! pile up), so after every edit the affected component is checked against
//! the matching lower bound on its optimum: if the component holds more
//! than `2 ×` that bound's groups — i.e. Theorem 6's ratio can no longer be
//! certified — the component (and only that component) is re-decomposed
//! with the greedy algorithm. The invariant maintained after every edit is
//! therefore exactly the paper's bound: **every component's group count is
//! at most twice its optimum**, hence `d ≤ 2·α(G)` globally.
//!
//! Every edit returns a [`GroupRemap`] describing how group indices moved,
//! which `synctime_core::online::OnlineSession::reconfigure` consumes to
//! rebase running vector clocks: surviving groups carry their counts to
//! their new positions (their per-group message chains are untouched, so
//! Theorem 4 keeps holding for messages stamped after the edit), fresh
//! groups start at zero everywhere.
//!
//! ```
//! use synctime_graph::{Graph, IncrementalDecomposition};
//!
//! let mut hub = Graph::new(4); // node 3 not wired up yet
//! hub.add_edge(0, 1);
//! hub.add_edge(0, 2);
//! let mut cache = IncrementalDecomposition::new(&hub);
//! assert_eq!(cache.decomposition().len(), 1); // one star at the hub
//! let remap = cache.insert_edge(0, 3).unwrap(); // a client joins
//! assert!(remap.is_identity()); // absorbed by the hub's star: no reclocking
//! cache.decomposition().validate(cache.graph()).unwrap();
//! # Ok::<(), synctime_graph::GraphError>(())
//! ```

use std::collections::BTreeSet;

use crate::{decompose, Edge, EdgeDecomposition, EdgeGroup, Graph, GraphError, NodeId};

/// How group indices moved across one edit (or a composed sequence).
///
/// Index `g` of the pre-edit decomposition maps to `old_to_new[g]` in the
/// post-edit one; `None` means the group was dissolved (its edges were
/// regrouped). New indices without a preimage are freshly created groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupRemap {
    /// Per old group: its new index, or `None` if it was dissolved.
    pub old_to_new: Vec<Option<usize>>,
    /// Number of groups after the edit — the new vector dimension.
    pub new_len: usize,
}

impl GroupRemap {
    /// The do-nothing remap on `len` groups.
    pub fn identity(len: usize) -> Self {
        GroupRemap {
            old_to_new: (0..len).map(Some).collect(),
            new_len: len,
        }
    }

    /// Whether this remap moves nothing: clocks need no rebasing.
    pub fn is_identity(&self) -> bool {
        self.old_to_new.len() == self.new_len
            && self
                .old_to_new
                .iter()
                .enumerate()
                .all(|(i, m)| *m == Some(i))
    }

    /// Rebases per-group counts (a clock vector) through this remap: a
    /// surviving group's count moves to its new index, dissolved groups'
    /// counts are dropped, and fresh groups start at zero.
    pub fn apply(&self, counts: &[u64]) -> Vec<u64> {
        let mut out = vec![0; self.new_len];
        for (slot, &count) in self.old_to_new.iter().zip(counts) {
            if let Some(new) = slot {
                out[*new] = count;
            }
        }
        out
    }

    /// Composes two sequential edits: `self` first, `next` second.
    pub fn then(&self, next: &GroupRemap) -> GroupRemap {
        GroupRemap {
            old_to_new: self
                .old_to_new
                .iter()
                .map(|m| m.and_then(|mid| next.old_to_new.get(mid).copied().flatten()))
                .collect(),
            new_len: next.new_len,
        }
    }
}

/// One topology edit in a reconfiguration: a channel appearing or
/// disappearing. Deterministic to apply, so every replica that starts
/// from the same decomposition and applies the same ops lands on the same
/// groups: a distributed run's nodes each apply them from their own copy
/// of the plan, and nothing but a hash of the result crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Add channel `(u, v)` to the topology.
    Insert(NodeId, NodeId),
    /// Remove channel `(u, v)` from the topology.
    Remove(NodeId, NodeId),
}

/// A graph and its edge decomposition, kept consistent under edge edits
/// (see the [module docs](self) for the patching strategy and the
/// maintained `d ≤ 2·α` invariant).
#[derive(Debug, Clone)]
pub struct IncrementalDecomposition {
    graph: Graph,
    decomposition: EdgeDecomposition,
    fast_path_hits: u64,
    rebuilds: u64,
}

impl IncrementalDecomposition {
    /// Seeds the cache with the greedy decomposition of `graph` — which
    /// satisfies the per-component `≤ 2·α` invariant (Theorem 6 applies to
    /// each component separately) that every later edit maintains.
    pub fn new(graph: &Graph) -> Self {
        IncrementalDecomposition {
            graph: graph.clone(),
            decomposition: decompose::greedy(graph),
            fast_path_hits: 0,
            rebuilds: 0,
        }
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current decomposition (always valid for [`graph`](Self::graph)).
    pub fn decomposition(&self) -> &EdgeDecomposition {
        &self.decomposition
    }

    /// Edits resolved purely by patching groups, with no greedy re-run.
    pub fn fast_path_hits(&self) -> u64 {
        self.fast_path_hits
    }

    /// Edits that triggered a greedy re-decomposition of one component.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Adds channel `(u, v)` to the topology and patches the decomposition.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`], [`GraphError::SelfLoop`] or
    /// [`GraphError::DuplicateEdge`] if the edge cannot be added.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<GroupRemap, GraphError> {
        let edge = Edge::try_new(u, v)?;
        self.graph.try_add_edge(u, v)?;
        // Fast path: a star at either endpoint absorbs the edge without
        // changing the dimension. `d` is unchanged and α never decreases
        // under edge insertion (delete the edge from any decomposition of
        // the larger graph), so the `≤ 2·α` invariant survives unchecked.
        for (idx, g) in self.decomposition.groups().iter().enumerate() {
            if let EdgeGroup::Star { center, .. } = g {
                if *center == u || *center == v {
                    self.decomposition
                        .extend_star(idx, edge)
                        .expect("star center verified and edge is fresh");
                    self.fast_path_hits += 1;
                    return Ok(GroupRemap::identity(self.decomposition.len()));
                }
            }
        }
        // No absorbing star: append a singleton and certify the component.
        let before = self.decomposition.len();
        self.decomposition
            .push_star(u, edge)
            .expect("edge is fresh and incident to u");
        let grew = GroupRemap {
            old_to_new: (0..before).map(Some).collect(),
            new_len: before + 1,
        };
        let rebuilds_before = self.rebuilds;
        let guarded = grew.then(&self.certify_component(u));
        if self.rebuilds == rebuilds_before {
            self.fast_path_hits += 1;
        }
        Ok(guarded)
    }

    /// Removes channel `(u, v)` from the topology and patches the
    /// decomposition.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] for a degenerate pair, or
    /// [`GraphError::UnknownEdge`] if the channel is not in the topology.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<GroupRemap, GraphError> {
        let edge = Edge::try_new(u, v)?;
        if !self.graph.contains(edge) {
            return Err(GraphError::UnknownEdge(edge));
        }
        let group = self
            .decomposition
            .group_of(edge)
            .expect("cache covers its own graph");
        self.graph.remove_edge(u, v);
        let before = self.decomposition.len();
        let patched = match self.decomposition.groups()[group].clone() {
            // Star-split: a multi-edge star sheds the edge in place.
            EdgeGroup::Star { edges, .. } if edges.len() > 1 => {
                self.decomposition
                    .retract_star_edge(group, edge)
                    .expect("non-singleton star containing the edge");
                GroupRemap::identity(before)
            }
            // A singleton star dissolves; later groups shift down by one.
            EdgeGroup::Star { .. } => GroupRemap {
                old_to_new: self.decomposition.remove_groups(&[group]),
                new_len: before - 1,
            },
            // Triangle-break: the two surviving edges share the vertex
            // opposite the removed edge — a 2-star, same group index.
            EdgeGroup::Triangle { nodes } => {
                let apex = nodes
                    .into_iter()
                    .find(|&n| n != u && n != v)
                    .expect("a triangle has a vertex off the removed edge");
                self.decomposition.replace_group(
                    group,
                    EdgeGroup::star(apex, vec![Edge::new(apex, u), Edge::new(apex, v)]),
                );
                GroupRemap::identity(before)
            }
        };
        // Removal can lower α (by at most one), and can split the
        // component; certify each side separately.
        let rebuilds_before = self.rebuilds;
        let mut remap = patched.then(&self.certify_component(u));
        if !self.same_component(u, v) {
            remap = remap.then(&self.certify_component(v));
        }
        if self.rebuilds == rebuilds_before {
            self.fast_path_hits += 1;
        }
        Ok(remap)
    }

    /// Applies a batch of edge edits in order, composing the per-edit
    /// remaps into one [`GroupRemap`] taking the pre-batch dimension to the
    /// post-batch one. Application is atomic: on error nothing is left
    /// half-applied (the cache is restored to its pre-batch state).
    ///
    /// # Errors
    ///
    /// The first [`GraphError`] any individual edit produces.
    pub fn apply_ops(&mut self, ops: &[EdgeOp]) -> Result<GroupRemap, GraphError> {
        let checkpoint = self.clone();
        let mut remap = GroupRemap::identity(self.decomposition.len());
        for op in ops {
            let step = match *op {
                EdgeOp::Insert(u, v) => self.insert_edge(u, v),
                EdgeOp::Remove(u, v) => self.remove_edge(u, v),
            };
            match step {
                Ok(next) => remap = remap.then(&next),
                Err(e) => {
                    *self = checkpoint;
                    return Err(e);
                }
            }
        }
        Ok(remap)
    }

    /// Re-certifies Theorem 6's ratio for `node`'s connected component: if
    /// the component's group count exceeds twice the matching lower bound
    /// on its optimum, the component is re-decomposed with the greedy
    /// algorithm (which restores `≤ 2·α` there, by Theorem 6); every other
    /// component is untouched.
    fn certify_component(&mut self, node: NodeId) -> GroupRemap {
        let d = self.decomposition.len();
        let comp_edges = self.component_edges(node);
        if comp_edges.is_empty() {
            return GroupRemap::identity(d);
        }
        let comp_groups: BTreeSet<usize> = comp_edges
            .iter()
            .map(|e| {
                self.decomposition
                    .group_of(*e)
                    .expect("cache covers its own graph")
            })
            .collect();
        let sub = self.graph.edge_subgraph(&comp_edges);
        if comp_groups.len() <= 2 * decompose::matching_lower_bound(&sub) {
            return GroupRemap::identity(d);
        }
        self.rebuilds += 1;
        let fresh = decompose::greedy(&sub);
        let doomed: Vec<usize> = comp_groups.into_iter().collect();
        let old_to_new = self.decomposition.remove_groups(&doomed);
        for g in fresh.groups() {
            self.decomposition.push_group(g.clone());
        }
        GroupRemap {
            old_to_new,
            new_len: self.decomposition.len(),
        }
    }

    fn component_mask(&self, start: NodeId) -> Vec<bool> {
        let mut seen = vec![false; self.graph.node_count()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(x) = stack.pop() {
            for y in self.graph.neighbors(x) {
                if !seen[y] {
                    seen[y] = true;
                    stack.push(y);
                }
            }
        }
        seen
    }

    fn component_edges(&self, start: NodeId) -> Vec<Edge> {
        let seen = self.component_mask(start);
        self.graph.edges().filter(|e| seen[e.lo()]).collect()
    }

    fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.component_mask(u)[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn remap_composition_and_identity() {
        let id = GroupRemap::identity(3);
        assert!(id.is_identity());
        let drop1 = GroupRemap {
            old_to_new: vec![Some(0), None, Some(1)],
            new_len: 2,
        };
        assert!(!drop1.is_identity());
        let grow = GroupRemap {
            old_to_new: vec![Some(1), Some(0)],
            new_len: 3,
        };
        let both = drop1.then(&grow);
        assert_eq!(both.old_to_new, vec![Some(1), None, Some(0)]);
        assert_eq!(both.new_len, 3);
        assert_eq!(id.then(&drop1), drop1);
    }

    #[test]
    fn apply_moves_survivors_and_zeroes_fresh_groups() {
        let remap = GroupRemap {
            old_to_new: vec![Some(2), None, Some(0)],
            new_len: 4,
        };
        assert_eq!(remap.apply(&[5, 7, 9]), vec![9, 0, 5, 0]);
        assert_eq!(GroupRemap::identity(2).apply(&[3, 4]), vec![3, 4]);
    }

    #[test]
    fn insert_joins_existing_star_without_remap() {
        let mut base = Graph::new(5);
        base.add_edge(0, 1);
        base.add_edge(0, 2);
        let mut cache = IncrementalDecomposition::new(&base);
        assert_eq!(cache.decomposition().len(), 1);
        let remap = cache.insert_edge(0, 3).unwrap();
        assert!(remap.is_identity());
        assert_eq!(cache.decomposition().len(), 1);
        cache.decomposition().validate(cache.graph()).unwrap();
        assert_eq!(cache.fast_path_hits(), 1);
        assert_eq!(cache.rebuilds(), 0);
    }

    #[test]
    fn insert_isolated_edge_grows_dimension() {
        let mut base = Graph::new(4);
        base.add_edge(0, 1);
        let mut cache = IncrementalDecomposition::new(&base);
        let d0 = cache.decomposition().len();
        let remap = cache.insert_edge(2, 3).unwrap();
        assert_eq!(cache.decomposition().len(), d0 + 1);
        assert_eq!(remap.new_len, d0 + 1);
        assert_eq!(remap.old_to_new, (0..d0).map(Some).collect::<Vec<_>>());
        cache.decomposition().validate(cache.graph()).unwrap();
    }

    #[test]
    fn insert_rejects_duplicates_and_self_loops() {
        let mut cache = IncrementalDecomposition::new(&topology::path(3));
        assert!(matches!(
            cache.insert_edge(0, 1),
            Err(GraphError::DuplicateEdge(_))
        ));
        assert!(matches!(
            cache.insert_edge(1, 1),
            Err(GraphError::SelfLoop(1))
        ));
        assert!(matches!(
            cache.insert_edge(0, 9),
            Err(GraphError::NodeOutOfRange { node: 9, .. })
        ));
    }

    #[test]
    fn star_split_removal_keeps_group_in_place() {
        // One star at the hub; removing a leaf edge shrinks it in place.
        let g = topology::star(4);
        let mut cache = IncrementalDecomposition::new(&g);
        assert_eq!(cache.decomposition().len(), 1);
        let remap = cache.remove_edge(0, 2).unwrap();
        assert!(remap.is_identity());
        assert_eq!(cache.decomposition().len(), 1);
        assert_eq!(cache.decomposition().group_of(Edge::new(0, 2)), None);
        cache.decomposition().validate(cache.graph()).unwrap();
        assert_eq!(cache.rebuilds(), 0);
    }

    #[test]
    fn singleton_star_removal_compacts_indices() {
        let mut base = Graph::new(4);
        base.add_edge(0, 1);
        let mut cache = IncrementalDecomposition::new(&base);
        cache.insert_edge(2, 3).unwrap(); // disconnected singleton, index 1
        assert_eq!(cache.decomposition().len(), 2);
        let remap = cache.remove_edge(0, 1).unwrap();
        assert_eq!(remap.old_to_new, vec![None, Some(0)]);
        assert_eq!(remap.new_len, 1);
        assert_eq!(
            cache.decomposition().group_of(Edge::new(2, 3)),
            Some(0),
            "surviving group shifted down"
        );
        cache.decomposition().validate(cache.graph()).unwrap();
    }

    #[test]
    fn triangle_break_collapses_to_star_at_apex() {
        let g = topology::triangle();
        let mut cache = IncrementalDecomposition::new(&g);
        assert_eq!(cache.decomposition().len(), 1);
        assert!(!cache.decomposition().groups()[0].is_star());
        // Remove (0, 1): the survivors (0,2) and (1,2) share apex 2.
        let remap = cache.remove_edge(0, 1).unwrap();
        assert!(remap.is_identity(), "triangle-break keeps the group index");
        let g0 = &cache.decomposition().groups()[0];
        assert!(g0.is_star());
        match g0 {
            EdgeGroup::Star { center, edges } => {
                assert_eq!(*center, 2);
                assert_eq!(edges, &vec![Edge::new(0, 2), Edge::new(1, 2)]);
            }
            other => panic!("expected a star, got {other}"),
        }
        cache.decomposition().validate(cache.graph()).unwrap();
        assert_eq!(cache.rebuilds(), 0);
    }

    #[test]
    fn singleton_pileup_triggers_component_rebuild() {
        // Build a path edge-by-edge in an order whose fast paths stack up
        // singleton stars; the certification guard must eventually re-run
        // greedy on the component and restore the ratio bound.
        let n = 12;
        let mut cache = IncrementalDecomposition::new(&Graph::new(n));
        for v in (0..n - 1).rev() {
            cache.insert_edge(v, v + 1).unwrap();
        }
        cache.decomposition().validate(cache.graph()).unwrap();
        let opt = decompose::alpha(cache.graph());
        assert!(
            cache.decomposition().len() <= 2 * opt,
            "d = {} exceeds 2·α = {}",
            cache.decomposition().len(),
            2 * opt
        );
    }

    #[test]
    fn remove_unknown_edge_is_reported() {
        let mut cache = IncrementalDecomposition::new(&topology::path(3));
        assert!(matches!(
            cache.remove_edge(0, 2),
            Err(GraphError::UnknownEdge(_))
        ));
    }

    #[test]
    fn apply_ops_composes_remaps_and_matches_stepwise_application() {
        let g = topology::cycle(6);
        let ops = vec![
            EdgeOp::Remove(0, 1),
            EdgeOp::Insert(0, 3),
            EdgeOp::Remove(4, 5),
            EdgeOp::Insert(1, 4),
        ];
        let mut batched = IncrementalDecomposition::new(&g);
        let mut stepwise = IncrementalDecomposition::new(&g);
        let composed = batched.apply_ops(&ops).unwrap();
        let mut manual = GroupRemap::identity(stepwise.decomposition().len());
        for op in &ops {
            let step = match *op {
                EdgeOp::Insert(u, v) => stepwise.insert_edge(u, v).unwrap(),
                EdgeOp::Remove(u, v) => stepwise.remove_edge(u, v).unwrap(),
            };
            manual = manual.then(&step);
        }
        assert_eq!(composed, manual);
        assert_eq!(batched.decomposition(), stepwise.decomposition());
        batched.decomposition().validate(batched.graph()).unwrap();
        assert!(batched.decomposition().len() <= 2 * decompose::alpha(batched.graph()));
    }

    #[test]
    fn apply_ops_failure_rolls_back_atomically() {
        let g = topology::path(4);
        let mut cache = IncrementalDecomposition::new(&g);
        let before_graph = cache.graph().clone();
        let before_dec = cache.decomposition().clone();
        let err = cache.apply_ops(&[EdgeOp::Insert(0, 3), EdgeOp::Remove(1, 3)]);
        assert!(matches!(err, Err(GraphError::UnknownEdge(_))));
        assert_eq!(cache.graph(), &before_graph);
        assert_eq!(cache.decomposition(), &before_dec);
    }

    #[test]
    fn component_split_certifies_both_sides() {
        // A dumbbell: two stars joined by a bridge. Cutting the bridge
        // splits the component; both halves must stay valid and bounded.
        let mut g = Graph::new(8);
        for leaf in 1..4 {
            g.add_edge(0, leaf);
        }
        for leaf in 5..8 {
            g.add_edge(4, leaf);
        }
        g.add_edge(0, 4);
        let mut cache = IncrementalDecomposition::new(&g);
        cache.remove_edge(0, 4).unwrap();
        cache.decomposition().validate(cache.graph()).unwrap();
        assert!(cache.decomposition().len() <= 2 * decompose::alpha(cache.graph()));
    }
}
