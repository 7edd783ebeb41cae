//! Mutable overlay over an immutable snapshot — the write path of a live,
//! epoch-versioned graph.
//!
//! A served graph cannot stop the world to rebuild its [`CsrGraph`] on every
//! edge insertion.  [`DeltaGraph`] layers a small mutable overlay — inserted
//! nodes, inserted edges, and tombstones for deleted edges — over a shared
//! `Arc<CsrGraph>` base, and implements [`GraphBackend`] so the staged state
//! is queryable before it is published.  [`DeltaGraph::compact`] splices the
//! overlay into a fresh snapshot: runs of untouched nodes are copied from the
//! base's packed arrays wholesale, only the nodes the overlay changed are
//! rebuilt, and the node-name table is extended rather than copied.  The
//! result is byte-for-byte the snapshot a from-scratch [`Graph`] →
//! [`CsrGraph`] build of the surviving edges would have produced, stamped
//! with the next [`epoch`](CsrGraph::epoch).
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
//! numbered from `base.edge_count()`, but `compact` renumbers the surviving
//! edges densely in (base order, then insertion order) — exactly the ids a
//! from-scratch rebuild assigns.

use crate::backend::GraphBackend;
use crate::csr::{CsrEntry, CsrGraph};
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
    /// Deleted base edges, keyed by their base edge id.
    tombstones: BTreeMap<EdgeId, Edge>,
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
        if source.index() < self.base.node_count() {
            let entries = self.base.out(source);
            let ids = self.base.out_ids(source);
            for (entry, &id) in entries.iter().zip(ids) {
                if entry.label == label
                    && entry.node == target
                    && !self.tombstones.contains_key(&id)
                {
                    self.tombstones.insert(id, Edge::new(source, label, target));
                    return true;
                }
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
    /// The result is byte-identical to snapshotting a from-scratch [`Graph`]
    /// holding the surviving edges (base edges in base order, then overlay
    /// insertions) — `tests/mvcc_conformance.rs` proves this over random
    /// update sequences.  The work is a memcpy-style splice: per direction,
    /// the runs of nodes between the sorted changed nodes are copied with one
    /// `extend_from_slice` each, and only the changed nodes are rebuilt.
    pub fn compact(&self) -> CsrGraph {
        let base = self.base.as_ref();

        // Dense renumbering: surviving base edges in base-id order, filled
        // range by range between the sorted tombstone ids (u32::MAX marks a
        // deleted edge), then surviving overlay edges in insertion order.
        let mut renumber: Vec<u32> = Vec::with_capacity(base.edge_count() + 1);
        let mut next = 0u32;
        let deleted = self.tombstones.keys().map(|id| id.index());
        for dead in deleted.chain([base.edge_count()]) {
            let survivors = (dead - renumber.len()) as u32;
            renumber.extend(next..next + survivors);
            renumber.push(u32::MAX);
            next += survivors;
        }
        renumber.pop();
        let overlay_ids: Vec<u32> = self
            .added_alive
            .iter()
            .map(|&alive| {
                let id = next;
                next += alive as u32;
                id
            })
            .collect();
        let fwd = self.splice(false, &renumber, &overlay_ids);
        let rev = self.splice(true, &renumber, &overlay_ids);
        CsrGraph::from_parts(
            base.names().extended(&self.added_names),
            self.labels.clone(),
            fwd.offsets,
            fwd.entries,
            fwd.ids,
            rev.offsets,
            rev.entries,
            rev.ids,
            base.epoch() + 1,
        )
    }

    /// One direction of [`compact`](Self::compact): sorts the nodes the
    /// overlay changed, copies the base's runs of nodes between them
    /// wholesale (offsets shifted, edge ids renumbered) and rebuilds each
    /// changed node from its surviving base entries plus its live overlay
    /// edges.
    fn splice(&self, reverse: bool, renumber: &[u32], overlay_ids: &[u32]) -> Packed {
        let base = self.base.as_ref();
        let (base_offsets, base_entries, base_ids, overlay) = if reverse {
            let ids = base.rev_edge_ids();
            (base.rev_offsets(), base.rev_entries(), ids, &self.added_in)
        } else {
            let ids = base.fwd_edge_ids();
            (base.fwd_offsets(), base.fwd_entries(), ids, &self.added_out)
        };
        // An edge's endpoints as (the node whose adjacency holds it, the
        // other endpoint).
        let ends = |e: &Edge| {
            if reverse {
                (e.target, e.source)
            } else {
                (e.source, e.target)
            }
        };
        let mut changed: Vec<NodeId> = overlay.keys().copied().collect();
        changed.extend(self.tombstones.values().map(|e| ends(e).0));
        changed.sort_unstable();
        changed.dedup();

        let base_n = base_offsets.len() - 1;
        let n = self.node_count();
        let mut out = Packed {
            offsets: Vec::with_capacity(n + 1),
            entries: Vec::with_capacity(self.edge_count()),
            ids: Vec::with_capacity(self.edge_count()),
        };
        out.offsets.push(0);
        // Appends nodes `from..to`, none of which the overlay changed.
        let copy_run = |out: &mut Packed, from: usize, to: usize| {
            let stop = to.min(base_n);
            if from < stop {
                let (lo, hi) = (base_offsets[from], base_offsets[stop]);
                let at = out.entries.len() as u32;
                let shifted = base_offsets[from + 1..=stop].iter().map(|&o| o - lo + at);
                out.offsets.extend(shifted);
                let span = lo as usize..hi as usize;
                out.entries.extend_from_slice(&base_entries[span.clone()]);
                let ids = base_ids[span]
                    .iter()
                    .map(|id| EdgeId::new(renumber[id.index()]));
                out.ids.extend(ids);
            }
            // Nodes past the base: added, with no overlay edges here.
            out.offsets.resize(to + 1, out.entries.len() as u32);
        };
        let mut next = 0;
        for node in changed {
            let index = node.index();
            copy_run(&mut out, next, index);
            if index < base_n {
                let span = base_offsets[index] as usize..base_offsets[index + 1] as usize;
                for (entry, id) in base_entries[span.clone()].iter().zip(&base_ids[span]) {
                    let new = renumber[id.index()];
                    if new != u32::MAX {
                        out.entries.push(*entry);
                        out.ids.push(EdgeId::new(new));
                    }
                }
            }
            for &i in Self::overlay_indices(overlay, node) {
                if self.added_alive[i] {
                    let edge = &self.added_edges[i];
                    out.entries.push(CsrEntry {
                        label: edge.label,
                        node: ends(edge).1,
                    });
                    out.ids.push(EdgeId::new(overlay_ids[i]));
                }
            }
            out.offsets.push(out.entries.len() as u32);
            next = index + 1;
        }
        copy_run(&mut out, next, n);
        out
    }

    fn base_out_parts(&self, node: NodeId) -> (&[CsrEntry], &[EdgeId]) {
        if node.index() < self.base.node_count() {
            (self.base.out(node), self.base.out_ids(node))
        } else {
            (&[], &[])
        }
    }

    fn base_in_parts(&self, node: NodeId) -> (&[CsrEntry], &[EdgeId]) {
        if node.index() < self.base.node_count() {
            (self.base.inc(node), self.base.inc_ids(node))
        } else {
            (&[], &[])
        }
    }

    fn overlay_indices(
        map: &BTreeMap<NodeId, Vec<usize>>,
        node: NodeId,
    ) -> std::slice::Iter<'_, usize> {
        map.get(&node).map(|v| v.iter()).unwrap_or([].iter())
    }
}

/// One direction's packed CSR arrays, as [`DeltaGraph::compact`] builds them.
struct Packed {
    offsets: Vec<u32>,
    entries: Vec<CsrEntry>,
    ids: Vec<EdgeId>,
}

/// Iterator over the surviving `(label, neighbor)` pairs of one node of a
/// [`DeltaGraph`]: base entries with tombstones skipped, then overlay
/// insertions.
pub struct DeltaNeighbors<'a> {
    base_entries: std::slice::Iter<'a, CsrEntry>,
    base_ids: std::slice::Iter<'a, EdgeId>,
    tombstones: &'a BTreeMap<EdgeId, Edge>,
    overlay: std::slice::Iter<'a, usize>,
    edges: &'a [Edge],
    alive: &'a [bool],
    reverse: bool,
}

impl<'a> Iterator for DeltaNeighbors<'a> {
    type Item = (LabelId, NodeId);

    fn next(&mut self) -> Option<(LabelId, NodeId)> {
        for entry in self.base_entries.by_ref() {
            let id = self.base_ids.next().expect("ids aligned with entries");
            if !self.tombstones.contains_key(id) {
                return Some((entry.label, entry.node));
            }
        }
        for &i in self.overlay.by_ref() {
            if self.alive[i] {
                let edge = self.edges[i];
                let neighbor = if self.reverse {
                    edge.source
                } else {
                    edge.target
                };
                return Some((edge.label, neighbor));
            }
        }
        None
    }
}

/// Iterator over the surviving `(edge id, edge)` pairs incident to one node
/// of a [`DeltaGraph`] (overlay edges numbered from `base.edge_count()`).
pub struct DeltaIncidentEdges<'a> {
    base_entries: std::slice::Iter<'a, CsrEntry>,
    base_ids: std::slice::Iter<'a, EdgeId>,
    tombstones: &'a BTreeMap<EdgeId, Edge>,
    overlay: std::slice::Iter<'a, usize>,
    edges: &'a [Edge],
    alive: &'a [bool],
    base_edge_count: usize,
    pivot: NodeId,
    reverse: bool,
}

impl<'a> Iterator for DeltaIncidentEdges<'a> {
    type Item = (EdgeId, Edge);

    fn next(&mut self) -> Option<(EdgeId, Edge)> {
        for entry in self.base_entries.by_ref() {
            let id = self.base_ids.next().expect("ids aligned with entries");
            if !self.tombstones.contains_key(id) {
                let edge = if self.reverse {
                    Edge::new(entry.node, entry.label, self.pivot)
                } else {
                    Edge::new(self.pivot, entry.label, entry.node)
                };
                return Some((*id, edge));
            }
        }
        for &i in self.overlay.by_ref() {
            if self.alive[i] {
                return Some((EdgeId::from(self.base_edge_count + i), self.edges[i]));
            }
        }
        None
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
        let (entries, ids) = self.base_out_parts(node);
        DeltaNeighbors {
            base_entries: entries.iter(),
            base_ids: ids.iter(),
            tombstones: &self.tombstones,
            overlay: Self::overlay_indices(&self.added_out, node),
            edges: &self.added_edges,
            alive: &self.added_alive,
            reverse: false,
        }
    }

    fn predecessors(&self, node: NodeId) -> DeltaNeighbors<'_> {
        let (entries, ids) = self.base_in_parts(node);
        DeltaNeighbors {
            base_entries: entries.iter(),
            base_ids: ids.iter(),
            tombstones: &self.tombstones,
            overlay: Self::overlay_indices(&self.added_in, node),
            edges: &self.added_edges,
            alive: &self.added_alive,
            reverse: true,
        }
    }

    fn out_edges(&self, node: NodeId) -> DeltaIncidentEdges<'_> {
        let (entries, ids) = self.base_out_parts(node);
        DeltaIncidentEdges {
            base_entries: entries.iter(),
            base_ids: ids.iter(),
            tombstones: &self.tombstones,
            overlay: Self::overlay_indices(&self.added_out, node),
            edges: &self.added_edges,
            alive: &self.added_alive,
            base_edge_count: self.base.edge_count(),
            pivot: node,
            reverse: false,
        }
    }

    fn in_edges(&self, node: NodeId) -> DeltaIncidentEdges<'_> {
        let (entries, ids) = self.base_in_parts(node);
        DeltaIncidentEdges {
            base_entries: entries.iter(),
            base_ids: ids.iter(),
            tombstones: &self.tombstones,
            overlay: Self::overlay_indices(&self.added_in, node),
            edges: &self.added_edges,
            alive: &self.added_alive,
            base_edge_count: self.base.edge_count(),
            pivot: node,
            reverse: true,
        }
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
