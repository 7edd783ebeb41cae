//! Mutable overlay over an immutable snapshot — the write path of a live,
//! epoch-versioned graph.
//!
//! A served graph cannot stop the world to rebuild its [`CsrGraph`] on every
//! edge insertion.  [`DeltaGraph`] layers a small mutable overlay — inserted
//! nodes, inserted edges, and tombstones for deleted edges — over a shared
//! `Arc<CsrGraph>` base, and implements [`GraphBackend`] so the staged state
//! is queryable before it is published.  [`DeltaGraph::compact`] splices the
//! overlay into a fresh snapshot: only the adjacency chunks holding a node
//! the overlay changed are rebuilt, every other chunk is shared with the
//! base, and the node-name table is extended rather than copied.  The
//! result reads exactly as the snapshot a from-scratch [`Graph`] →
//! [`CsrGraph`] build of the surviving edges would, stamped with the next
//! [`epoch`](CsrGraph::epoch).
//!
//! The overlay is the unit writers stage: a service accumulates
//! [`UpdateOp`]s into a `DeltaGraph` and publishes the compacted snapshot,
//! while readers pinned to the old epoch keep traversing the unchanged base.
//!
//! ## Identifier semantics
//!
//! Node identifiers are stable across compaction (nodes are never deleted;
//! inserted nodes extend the dense id space).  Edge identifiers are *not*:
//! inside the overlay, base edges keep their base ids and inserted edges are
//! numbered from `base.edge_count()`, but after `compact` the surviving
//! edges read densely numbered in (base order, then insertion order) —
//! exactly the ids a from-scratch rebuild assigns.  `compact` gets there
//! without renumbering the edge set: the snapshot keys its entries by
//! stable edge keys (see [`crate::csr`]).

use crate::backend::GraphBackend;
use crate::csr::{renumbering, CsrAdjacency, CsrEntry, CsrGraph, REKEY_DIVISOR};
use crate::graph::Edge;
use crate::ids::{EdgeId, LabelId, NodeId};
use crate::labels::LabelInterner;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// One staged mutation, with endpoints addressed by display name (the
/// vocabulary of the service update API and the streamed workloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Insert a node with the given display name.
    AddNode(String),
    /// Insert a `source --label--> target` edge.  Both endpoints must already
    /// exist (insert nodes first); the label is interned on demand.
    AddEdge {
        /// Source node name.
        source: String,
        /// Edge label.
        label: String,
        /// Target node name.
        target: String,
    },
    /// Delete one `source --label--> target` edge (the earliest surviving
    /// occurrence when parallel duplicates exist).
    RemoveEdge {
        /// Source node name.
        source: String,
        /// Edge label.
        label: String,
        /// Target node name.
        target: String,
    },
}

/// Why a staged [`UpdateOp`] could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// An edge endpoint name resolved to no node.
    UnknownNode(String),
    /// A [`UpdateOp::RemoveEdge`] matched no surviving edge.
    MissingEdge {
        /// Source node name of the removal.
        source: String,
        /// Label name of the removal.
        label: String,
        /// Target node name of the removal.
        target: String,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownNode(name) => write!(f, "unknown node `{name}`"),
            UpdateError::MissingEdge {
                source,
                label,
                target,
            } => write!(f, "no edge `{source} -{label}-> {target}` to remove"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// The net effect of an overlay, in the id space of the *merged* graph —
/// what the incremental index and cache maintenance paths consume.
///
/// An edge inserted and then deleted inside the same overlay appears in
/// neither list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Epoch of the base snapshot the overlay was staged against.
    pub base_epoch: u64,
    /// Number of inserted nodes.
    pub added_nodes: usize,
    /// Surviving inserted edges, in insertion order.
    pub added_edges: Vec<Edge>,
    /// Deleted base edges, in base edge-id order.
    pub removed_edges: Vec<Edge>,
}

impl GraphDelta {
    /// Returns `true` when the overlay changed nothing.
    pub fn is_empty(&self) -> bool {
        self.added_nodes == 0 && self.added_edges.is_empty() && self.removed_edges.is_empty()
    }

    /// The labels whose adjacency partitions the delta touches.
    pub fn touched_labels(&self) -> BTreeSet<LabelId> {
        self.added_edges
            .iter()
            .chain(&self.removed_edges)
            .map(|e| e.label)
            .collect()
    }

    /// The distinct source nodes of the changed edges, ascending — the seed
    /// set for bounded-reachability cache maintenance (only nodes reaching a
    /// changed edge's source within the bound can change their word sets).
    pub fn changed_sources(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self
            .added_edges
            .iter()
            .chain(&self.removed_edges)
            .map(|e| e.source)
            .collect();
        set.into_iter().collect()
    }
}

/// A mutable overlay (node/edge insertions, edge tombstones) over a shared
/// immutable [`CsrGraph`] base.  See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    base: Arc<CsrGraph>,
    labels: LabelInterner,
    added_names: Vec<String>,
    /// First bearer of each added name; the base's own names resolve
    /// through the base (which takes precedence), never through a copy.
    added_index: BTreeMap<String, NodeId>,
    added_edges: Vec<Edge>,
    /// `false` for overlay edges deleted before publication.
    added_alive: Vec<bool>,
    /// Overlay out-adjacency: indices into `added_edges`, per source node.
    added_out: BTreeMap<NodeId, Vec<usize>>,
    /// Overlay in-adjacency: indices into `added_edges`, per target node.
    added_in: BTreeMap<NodeId, Vec<usize>>,
    /// Deleted base edges, by their base edge key.
    tombstones: BTreeMap<u32, Edge>,
}

impl DeltaGraph {
    /// Starts an empty overlay over `base`.
    pub fn new(base: Arc<CsrGraph>) -> Self {
        Self {
            labels: base.labels().clone(),
            base,
            added_names: Vec::new(),
            added_index: BTreeMap::new(),
            added_edges: Vec::new(),
            added_alive: Vec::new(),
            added_out: BTreeMap::new(),
            added_in: BTreeMap::new(),
            tombstones: BTreeMap::new(),
        }
    }

    /// The shared base snapshot.
    pub fn base(&self) -> &Arc<CsrGraph> {
        &self.base
    }

    /// Returns `true` when nothing has been staged yet.
    pub fn is_clean(&self) -> bool {
        self.added_names.is_empty() && self.added_edges.is_empty() && self.tombstones.is_empty()
    }

    /// Number of staged node insertions.
    pub fn added_node_count(&self) -> usize {
        self.added_names.len()
    }

    /// Number of surviving staged edge insertions.
    pub fn added_edge_count(&self) -> usize {
        self.added_alive.iter().filter(|&&alive| alive).count()
    }

    /// Number of staged base-edge deletions.
    pub fn removed_edge_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Interns (or looks up) a label string in the overlay's alphabet.
    pub fn label(&mut self, name: &str) -> LabelId {
        self.labels.intern(name)
    }

    /// Inserts a node and returns its identifier (dense, continuing the
    /// base's id space).  Mirrors [`Graph::add_node`]: duplicate names are
    /// permitted, name lookup resolves to the first bearer.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId::from(self.base.node_count() + self.added_names.len());
        let name = name.into();
        self.added_index.entry(name.clone()).or_insert(id);
        self.added_names.push(name);
        id
    }

    /// Inserts a `source --label--> target` edge and returns its overlay
    /// edge id (renumbered by [`compact`](Self::compact)).
    ///
    /// # Panics
    /// Panics when either endpoint does not belong to this overlay, mirroring
    /// [`Graph::add_edge`].
    pub fn add_edge(&mut self, source: NodeId, label: LabelId, target: NodeId) -> EdgeId {
        assert!(self.contains_node(source), "unknown source node {source}");
        assert!(self.contains_node(target), "unknown target node {target}");
        let index = self.added_edges.len();
        self.added_edges.push(Edge::new(source, label, target));
        self.added_alive.push(true);
        self.added_out.entry(source).or_default().push(index);
        self.added_in.entry(target).or_default().push(index);
        EdgeId::from(self.base.edge_count() + index)
    }

    /// Deletes one `source --label--> target` edge: the earliest surviving
    /// base occurrence, else the earliest surviving overlay occurrence.
    /// Returns `false` when no such edge survives.
    pub fn remove_edge(&mut self, source: NodeId, label: LabelId, target: NodeId) -> bool {
        let (entries, keys) = self.base.forward().run(source.index());
        for (entry, &key) in entries.iter().zip(keys) {
            if entry.label == label && entry.node == target && !self.tombstones.contains_key(&key) {
                self.tombstones
                    .insert(key, Edge::new(source, label, target));
                return true;
            }
        }
        if let Some(indices) = self.added_out.get(&source) {
            for &i in indices {
                let edge = self.added_edges[i];
                if self.added_alive[i] && edge.label == label && edge.target == target {
                    self.added_alive[i] = false;
                    return true;
                }
            }
        }
        false
    }

    /// Applies one name-addressed [`UpdateOp`].
    pub fn apply(&mut self, op: &UpdateOp) -> Result<(), UpdateError> {
        match op {
            UpdateOp::AddNode(name) => {
                self.add_node(name.as_str());
                Ok(())
            }
            UpdateOp::AddEdge {
                source,
                label,
                target,
            } => {
                let source = self.resolve(source)?;
                let target = self.resolve(target)?;
                let label = self.labels.intern(label);
                self.add_edge(source, label, target);
                Ok(())
            }
            UpdateOp::RemoveEdge {
                source,
                label,
                target,
            } => {
                let source_id = self.resolve(source)?;
                let target_id = self.resolve(target)?;
                let removed = self
                    .labels
                    .get(label)
                    .is_some_and(|l| self.remove_edge(source_id, l, target_id));
                if removed {
                    Ok(())
                } else {
                    Err(UpdateError::MissingEdge {
                        source: source.clone(),
                        label: label.clone(),
                        target: target.clone(),
                    })
                }
            }
        }
    }

    /// Applies a batch of ops, stopping at the first failure.
    pub fn apply_all(&mut self, ops: &[UpdateOp]) -> Result<(), UpdateError> {
        ops.iter().try_for_each(|op| self.apply(op))
    }

    fn resolve(&self, name: &str) -> Result<NodeId, UpdateError> {
        self.node_by_name(name)
            .ok_or_else(|| UpdateError::UnknownNode(name.to_string()))
    }

    /// The net effect of the overlay (see [`GraphDelta`]).
    pub fn delta(&self) -> GraphDelta {
        GraphDelta {
            base_epoch: self.base.epoch(),
            added_nodes: self.added_names.len(),
            added_edges: self
                .added_edges
                .iter()
                .zip(&self.added_alive)
                .filter(|&(_, &alive)| alive)
                .map(|(&edge, _)| edge)
                .collect(),
            removed_edges: self.tombstones.values().copied().collect(),
        }
    }

    /// Merges the overlay into a fresh snapshot stamped `base.epoch() + 1`.
    ///
    /// The result reads exactly as a from-scratch [`Graph`] holding the
    /// surviving edges (base edges in base order, then overlay insertions)
    /// — adjacency order and edge ids, both directions;
    /// `tests/mvcc_conformance.rs` proves this over random update
    /// sequences.  The work is a copy-on-write splice: per direction, the
    /// chunks holding a changed node are rebuilt and every other chunk is
    /// shared with the base.  Surviving inserts are keyed from the base's
    /// next key on and the deleted keys join the dead list, unless the list
    /// would outgrow `1 / REKEY_DIVISOR` of the live edges: then the same
    /// splice re-keys every entry by its edge id and the list empties.
    pub fn compact(&self) -> CsrGraph {
        let base = self.base.as_ref();
        let (dead, base_next_key) = base.keyspace();
        let dead = if self.tombstones.is_empty() {
            Arc::clone(dead)
        } else {
            merge_sorted(dead, self.tombstones.keys().copied())
        };
        let edge_count = self.edge_count();
        let rekey = dead.len() * REKEY_DIVISOR > edge_count;
        // After a re-key every key is its edge id, and the inserts' ids
        // follow the surviving base edges'.
        let first_insert = if rekey {
            base_next_key - dead.len() as u32
        } else {
            base_next_key
        };
        let mut live_inserts = 0;
        let insert_keys: Vec<u32> = self
            .added_alive
            .iter()
            .map(|&alive| {
                let key = first_insert + live_inserts;
                live_inserts += alive as u32;
                key
            })
            .collect();
        let next_key = first_insert + live_inserts;
        let adjacency = if rekey {
            let renumber = renumbering(&dead, base_next_key);
            let rekey = |key: u32| renumber[key as usize];
            (
                self.splice(false, &insert_keys, Some(&rekey)),
                self.splice(true, &insert_keys, Some(&rekey)),
            )
        } else {
            (
                self.splice(false, &insert_keys, None),
                self.splice(true, &insert_keys, None),
            )
        };
        let dead = if rekey { Arc::default() } else { dead };
        CsrGraph::from_parts(
            base.names().extended(&self.added_names),
            self.labels.clone(),
            adjacency,
            (dead, next_key),
            base.epoch() + 1,
        )
    }

    /// One direction of [`compact`](Self::compact): the base adjacency
    /// spliced with each changed node's run rebuilt from its surviving
    /// base entries plus its live overlay edges.
    fn splice(
        &self,
        reverse: bool,
        insert_keys: &[u32],
        rekey: Option<&dyn Fn(u32) -> u32>,
    ) -> CsrAdjacency {
        let (old, overlay) = if reverse {
            (self.base.reverse(), &self.added_in)
        } else {
            (self.base.forward(), &self.added_out)
        };
        // An edge's endpoints as (the node whose run holds it, the other
        // endpoint).
        let ends = |e: &Edge| {
            if reverse {
                (e.target, e.source)
            } else {
                (e.source, e.target)
            }
        };
        // Deleted keys by the node whose run holds them, ascending.
        let mut removed: Vec<(usize, u32)> = self
            .tombstones
            .iter()
            .map(|(&key, edge)| (ends(edge).0.index(), key))
            .collect();
        removed.sort_unstable();
        let mut changed: Vec<usize> = overlay.keys().map(|node| node.index()).collect();
        changed.extend(removed.iter().map(|&(node, _)| node));
        changed.sort_unstable();
        changed.dedup();

        let mut removed = removed.as_slice();
        old.splice(&changed, rekey, |node, entries, keys, run| {
            let (own, rest) = removed.split_at(removed.partition_point(|&(n, _)| n == node));
            removed = rest;
            if own.is_empty() && rekey.is_none() {
                run.extend(entries, keys);
            } else {
                let mut pending: Vec<u32> = own.iter().map(|&(_, key)| key).collect();
                for (entry, &key) in entries.iter().zip(keys) {
                    if let Some(at) = pending.iter().position(|&dead| dead == key) {
                        pending.swap_remove(at);
                    } else {
                        run.push(*entry, rekey.map_or(key, |rekey| rekey(key)));
                    }
                }
            }
            for &i in Self::overlay_indices(overlay, NodeId::from(node)) {
                if self.added_alive[i] {
                    let edge = &self.added_edges[i];
                    let entry = CsrEntry {
                        label: edge.label,
                        node: ends(edge).1,
                    };
                    run.push(entry, insert_keys[i]);
                }
            }
        })
    }

    fn overlay_indices(
        map: &BTreeMap<NodeId, Vec<usize>>,
        node: NodeId,
    ) -> std::slice::Iter<'_, usize> {
        map.get(&node).map(|v| v.iter()).unwrap_or([].iter())
    }
}

/// `sorted` with `keys` (ascending, none of them in `sorted`) merged in.
fn merge_sorted(sorted: &[u32], keys: impl Iterator<Item = u32>) -> Arc<[u32]> {
    let mut merged = Vec::with_capacity(sorted.len() + keys.size_hint().0);
    let mut rest = sorted;
    for key in keys {
        let (below, above) = rest.split_at(rest.partition_point(|&k| k < key));
        merged.extend_from_slice(below);
        merged.push(key);
        rest = above;
    }
    merged.extend_from_slice(rest);
    merged.into()
}

/// Iterator over the surviving `(label, neighbor)` pairs of one node of a
/// [`DeltaGraph`]: base entries with tombstones skipped, then overlay
/// insertions.
pub struct DeltaNeighbors<'a> {
    edges: DeltaIncidentEdges<'a>,
}

impl<'a> Iterator for DeltaNeighbors<'a> {
    type Item = (LabelId, NodeId);

    fn next(&mut self) -> Option<(LabelId, NodeId)> {
        let reverse = self.edges.reverse;
        self.edges.next().map(|(_, edge)| {
            let neighbor = if reverse { edge.source } else { edge.target };
            (edge.label, neighbor)
        })
    }
}

/// Iterator over the surviving `(edge id, edge)` pairs incident to one node
/// of a [`DeltaGraph`] (overlay edges numbered from `base.edge_count()`).
pub struct DeltaIncidentEdges<'a> {
    base: &'a CsrGraph,
    base_entries: std::slice::Iter<'a, CsrEntry>,
    base_keys: std::slice::Iter<'a, u32>,
    tombstones: &'a BTreeMap<u32, Edge>,
    overlay: std::slice::Iter<'a, usize>,
    edges: &'a [Edge],
    alive: &'a [bool],
    pivot: NodeId,
    reverse: bool,
}

impl<'a> Iterator for DeltaIncidentEdges<'a> {
    type Item = (EdgeId, Edge);

    fn next(&mut self) -> Option<(EdgeId, Edge)> {
        for entry in self.base_entries.by_ref() {
            let key = *self.base_keys.next().expect("keys aligned with entries");
            if !self.tombstones.contains_key(&key) {
                let edge = if self.reverse {
                    Edge::new(entry.node, entry.label, self.pivot)
                } else {
                    Edge::new(self.pivot, entry.label, entry.node)
                };
                return Some((self.base.edge_id(key), edge));
            }
        }
        for &i in self.overlay.by_ref() {
            if self.alive[i] {
                let id = EdgeId::from(self.base.edge_count() + i);
                return Some((id, self.edges[i]));
            }
        }
        None
    }
}

impl DeltaGraph {
    fn incident(&self, node: NodeId, reverse: bool) -> DeltaIncidentEdges<'_> {
        let (run, overlay) = if reverse {
            (self.base.reverse().run(node.index()), &self.added_in)
        } else {
            (self.base.forward().run(node.index()), &self.added_out)
        };
        DeltaIncidentEdges {
            base: &self.base,
            base_entries: run.0.iter(),
            base_keys: run.1.iter(),
            tombstones: &self.tombstones,
            overlay: Self::overlay_indices(overlay, node),
            edges: &self.added_edges,
            alive: &self.added_alive,
            pivot: node,
            reverse,
        }
    }
}

impl GraphBackend for DeltaGraph {
    type Neighbors<'a> = DeltaNeighbors<'a>;
    type IncidentEdges<'a> = DeltaIncidentEdges<'a>;

    fn node_count(&self) -> usize {
        self.base.node_count() + self.added_names.len()
    }

    fn edge_count(&self) -> usize {
        self.base.edge_count() - self.tombstones.len() + self.added_edge_count()
    }

    fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    fn node_name(&self, node: NodeId) -> &str {
        let base_n = self.base.node_count();
        if node.index() < base_n {
            self.base.node_name(node)
        } else {
            &self.added_names[node.index() - base_n]
        }
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.base
            .node_by_name(name)
            .or_else(|| self.added_index.get(name).copied())
    }

    fn successors(&self, node: NodeId) -> DeltaNeighbors<'_> {
        DeltaNeighbors {
            edges: self.incident(node, false),
        }
    }

    fn predecessors(&self, node: NodeId) -> DeltaNeighbors<'_> {
        DeltaNeighbors {
            edges: self.incident(node, true),
        }
    }

    fn out_edges(&self, node: NodeId) -> DeltaIncidentEdges<'_> {
        self.incident(node, false)
    }

    fn in_edges(&self, node: NodeId) -> DeltaIncidentEdges<'_> {
        self.incident(node, true)
    }

    fn out_degree(&self, node: NodeId) -> usize {
        self.successors(node).count()
    }

    fn in_degree(&self, node: NodeId) -> usize {
        self.predecessors(node).count()
    }

    /// The epoch of the *base* snapshot: the overlay is unpublished state, so
    /// it identifies with the version it was staged against.
    fn epoch(&self) -> u64 {
        self.base.epoch()
    }
}

// `Graph` is referenced by the docs above.
#[allow(unused_imports)]
use crate::graph::Graph;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// a -x-> b -y-> c ; a -x-> c
    fn base() -> Arc<CsrGraph> {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "y", c);
        g.add_edge_by_name(a, "x", c);
        Arc::new(CsrGraph::from_graph(&g))
    }

    fn names(delta: &DeltaGraph, node: &str) -> NodeId {
        delta.node_by_name(node).unwrap()
    }

    #[test]
    fn overlay_reads_combine_base_and_staged_state() {
        let mut delta = DeltaGraph::new(base());
        assert!(delta.is_clean());
        let a = names(&delta, "a");
        let c = names(&delta, "c");
        let d = delta.add_node("d");
        let z = delta.label("z");
        delta.add_edge(c, z, d);
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(a, x, c));
        assert!(!delta.remove_edge(a, x, c), "already tombstoned");

        assert_eq!(delta.node_count(), 4);
        assert_eq!(delta.edge_count(), 3);
        assert_eq!(delta.node_name(d), "d");
        let out_a: Vec<_> = delta.successors(a).collect();
        assert_eq!(out_a, vec![(x, names(&delta, "b"))], "a-x->c tombstoned");
        let out_c: Vec<_> = delta.successors(c).collect();
        assert_eq!(out_c, vec![(z, d)]);
        let in_d: Vec<_> = delta.predecessors(d).collect();
        assert_eq!(in_d, vec![(z, c)]);
        assert_eq!(delta.out_degree(a), 1);
        assert_eq!(delta.in_degree(c), 1, "b-y->c survives, a-x->c removed");
        assert!(delta.has_edge(c, z, d));
        assert!(!delta.has_edge(a, x, c));
    }

    #[test]
    fn overlay_edge_ids_continue_the_base_space() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let x = delta.label("x");
        let id = delta.add_edge(b, x, a);
        assert_eq!(id, EdgeId::from(3usize));
        let incident: Vec<EdgeId> = delta.out_edges(b).map(|(id, _)| id).collect();
        assert_eq!(incident, vec![EdgeId::from(1usize), EdgeId::from(3usize)]);
    }

    #[test]
    fn compact_matches_a_from_scratch_rebuild() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let c = names(&delta, "c");
        let d = delta.add_node("d");
        let z = delta.label("z");
        let x = delta.labels().get("x").unwrap();
        delta.add_edge(c, z, d);
        delta.add_edge(d, x, a);
        assert!(delta.remove_edge(a, x, b));
        let compacted = delta.compact();

        // From-scratch: surviving base edges in base order, then overlay.
        let mut g = Graph::new();
        for name in ["x", "y", "z"] {
            g.label(name);
        }
        let ga = g.add_node("a");
        let gb = g.add_node("b");
        let gc = g.add_node("c");
        let gd = g.add_node("d");
        g.add_edge_by_name(gb, "y", gc);
        g.add_edge_by_name(ga, "x", gc);
        g.add_edge_by_name(gc, "z", gd);
        g.add_edge_by_name(gd, "x", ga);
        let expected = CsrGraph::from_graph(&g);

        assert_eq!(compacted.node_count(), expected.node_count());
        assert_eq!(compacted.edge_count(), expected.edge_count());
        assert_eq!(compacted.labels(), expected.labels());
        for node in expected.nodes() {
            assert_eq!(compacted.out(node), expected.out(node), "{node}");
            assert_eq!(compacted.inc(node), expected.inc(node), "{node}");
            let got: Vec<_> = GraphBackend::out_edges(&compacted, node).collect();
            let want: Vec<_> = GraphBackend::out_edges(&expected, node).collect();
            assert_eq!(got, want, "{node}");
        }
        assert_eq!(compacted.node_name(d), "d");
        assert_eq!(compacted.epoch(), 1, "base was epoch 0");
    }

    #[test]
    fn compact_shares_every_chunk_holding_no_changed_node() {
        use crate::adjacency::CHUNK_NODES;

        // A ring over three chunks: node i -x-> i + 1.
        let n = 3 * CHUNK_NODES;
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n).map(|i| g.add_node(format!("v{i}"))).collect();
        for i in 0..n {
            g.add_edge_by_name(nodes[i], "x", nodes[(i + 1) % n]);
        }
        let base = Arc::new(CsrGraph::from_graph(&g));
        let x = g.label_id("x").unwrap();

        // Remove 5 -x-> 6 (chunk 0 both ways); add an edge from a node of
        // chunk 2 to a new node, which opens chunk 3.
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        assert!(delta.remove_edge(nodes[5], x, nodes[6]));
        let far = nodes[2 * CHUNK_NODES + CHUNK_NODES / 2];
        let fresh = delta.add_node("fresh");
        delta.add_edge(far, x, fresh);
        let compacted = delta.compact();
        for (new, old, changed) in [
            (compacted.forward(), base.forward(), [5, far.index()]),
            (compacted.reverse(), base.reverse(), [6, fresh.index()]),
        ] {
            let opened = changed.iter().map(|v| v / CHUNK_NODES + 1).max().unwrap();
            assert_eq!(new.chunk_count(), opened.max(old.chunk_count()));
            for chunk in 0..new.chunk_count() {
                let touched = changed.iter().any(|v| v / CHUNK_NODES == chunk);
                assert_eq!(new.shares_chunk(old, chunk), !touched, "chunk {chunk}");
            }
        }

        // An empty overlay shares every chunk of both directions.
        let unchanged = DeltaGraph::new(Arc::clone(&base)).compact();
        for chunk in 0..base.forward().chunk_count() {
            assert!(unchanged.forward().shares_chunk(base.forward(), chunk));
            assert!(unchanged.reverse().shares_chunk(base.reverse(), chunk));
        }
    }

    #[test]
    fn epochs_advance_across_chained_compactions() {
        let delta = DeltaGraph::new(base());
        let once = Arc::new(delta.compact());
        assert_eq!(once.epoch(), 1);
        let twice = DeltaGraph::new(once).compact();
        assert_eq!(twice.epoch(), 2);
    }

    #[test]
    fn add_then_remove_inside_one_overlay_nets_out() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let w = delta.label("w");
        delta.add_edge(a, w, b);
        assert!(delta.remove_edge(a, w, b));
        let summary = delta.delta();
        assert!(summary.added_edges.is_empty());
        assert!(summary.removed_edges.is_empty());
        assert_eq!(delta.edge_count(), 3);
        let compacted = delta.compact();
        assert_eq!(compacted.edge_count(), 3);
    }

    #[test]
    fn apply_resolves_names_and_surfaces_errors() {
        let mut delta = DeltaGraph::new(base());
        delta
            .apply_all(&[
                UpdateOp::AddNode("d".into()),
                UpdateOp::AddEdge {
                    source: "c".into(),
                    label: "z".into(),
                    target: "d".into(),
                },
                UpdateOp::RemoveEdge {
                    source: "a".into(),
                    label: "x".into(),
                    target: "b".into(),
                },
            ])
            .unwrap();
        assert_eq!(delta.added_node_count(), 1);
        assert_eq!(delta.added_edge_count(), 1);
        assert_eq!(delta.removed_edge_count(), 1);

        let unknown = delta.apply(&UpdateOp::AddEdge {
            source: "ghost".into(),
            label: "x".into(),
            target: "a".into(),
        });
        assert_eq!(unknown, Err(UpdateError::UnknownNode("ghost".into())));
        let missing = delta.apply(&UpdateOp::RemoveEdge {
            source: "a".into(),
            label: "nope".into(),
            target: "b".into(),
        });
        assert!(matches!(missing, Err(UpdateError::MissingEdge { .. })));
        assert!(missing.unwrap_err().to_string().contains("nope"));
    }

    #[test]
    fn delta_summary_reports_the_net_effect() {
        let mut delta = DeltaGraph::new(base());
        let a = names(&delta, "a");
        let b = names(&delta, "b");
        let x = delta.label("x");
        let y = delta.label("y");
        delta.add_edge(b, y, a);
        delta.remove_edge(a, x, b);
        let summary = delta.delta();
        assert_eq!(summary.base_epoch, 0);
        assert_eq!(summary.added_edges, vec![Edge::new(b, y, a)]);
        assert_eq!(summary.removed_edges, vec![Edge::new(a, x, b)]);
        assert_eq!(
            summary.touched_labels().into_iter().collect::<Vec<_>>(),
            vec![x, y]
        );
        assert_eq!(summary.changed_sources(), vec![a, b]);
        assert!(!summary.is_empty());
        assert!(DeltaGraph::new(base()).delta().is_empty());
    }

    #[test]
    fn parallel_duplicate_removal_takes_one_occurrence() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", b);
        let mut delta = DeltaGraph::new(Arc::new(CsrGraph::from_graph(&g)));
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(a, x, b));
        assert_eq!(delta.edge_count(), 1);
        assert!(delta.remove_edge(a, x, b));
        assert_eq!(delta.edge_count(), 0);
        assert!(!delta.remove_edge(a, x, b));
    }
}
