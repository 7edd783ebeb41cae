//! Immutable compressed-sparse-row (CSR) snapshot of a graph.
//!
//! The interactive loop and the RPQ evaluator traverse the graph heavily and
//! never mutate it.  [`CsrGraph`] packs each node's adjacency into one
//! contiguous run of `(label, node)` entries — forward and reverse, in the
//! copy-on-write chunks of [`crate::adjacency`], so a publish shares every
//! chunk it does not change with the previous epoch — and, since it
//! implements [`GraphBackend`], serves as a first-class drop-in store for
//! every query layer: RPQ evaluation, neighborhoods, path enumeration,
//! learning and interactive sessions all run directly on the snapshot.
//!
//! The snapshot carries the node names and the label interner of its source
//! so rendering and query parsing work against it (the name table is
//! `Arc`-shared with the snapshot's successor epochs, see
//! [`crate::names`]).
//!
//! ## Edge keys
//!
//! Every entry stores a stable edge *key*, not its edge id.  A fresh build
//! keys each edge by its id; a publish keeps the surviving keys, gives the
//! surviving inserts fresh keys above every key given out before, in
//! insertion order, and records the deleted keys in a sorted, `Arc`-shared
//! dead list.  The public
//! [`EdgeId`] of a key is `key − |dead keys below key|`: exactly the dense id
//! a from-scratch build assigns (surviving edges in base order, then
//! inserts), because that renumbering preserves relative order.  Once the
//! dead list outgrows `1 / REKEY_DIVISOR` of the live edges, a publish
//! re-keys every entry by its id and empties the list, so re-keys cost
//! amortized O(1) per deletion and keys never overflow.

use crate::adjacency::{Adjacency, Scatter};
use crate::backend::GraphBackend;
use crate::graph::{Edge, Graph};
use crate::ids::{EdgeId, LabelId, NodeId};
use crate::labels::LabelInterner;
use crate::names::NodeNames;
use std::sync::Arc;

/// A publish re-keys once the dead list would hold more than
/// `1 / REKEY_DIVISOR` of the live edges (the name-table fold rule).
pub(crate) const REKEY_DIVISOR: usize = 64;

/// One packed adjacency entry: the label of an edge and its other endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrEntry {
    /// The label carried by the edge.
    pub label: LabelId,
    /// The other endpoint (target for forward CSR, source for reverse CSR).
    pub node: NodeId,
}

/// The placeholder a [`Scatter`] fills before placing the real entries.
impl Default for CsrEntry {
    fn default() -> Self {
        Self {
            label: LabelId::new(0),
            node: NodeId::new(0),
        }
    }
}

/// One direction's entries, each keyed by its edge key.
pub type CsrAdjacency = Adjacency<CsrEntry, u32>;

/// An immutable CSR snapshot with both forward and reverse adjacency.
#[derive(Debug, Clone, Default)]
pub struct CsrGraph {
    names: NodeNames,
    labels: LabelInterner,
    /// Outgoing `(label, target)` entries per source node.
    fwd: CsrAdjacency,
    /// Incoming `(label, source)` entries per target node.
    rev: CsrAdjacency,
    /// Keys deleted since the last re-key, ascending (see the module docs).
    dead: Arc<[u32]>,
    /// One past the largest key ever given out since the last re-key.
    next_key: u32,
    /// Version stamp of the snapshot.  Snapshots built directly from a
    /// backend inherit the backend's epoch (0 for fresh builds);
    /// [`crate::delta::DeltaGraph::compact`] stamps its output with the base
    /// epoch plus one, so every published version of a live graph is
    /// distinguishable even when node and edge counts happen to coincide.
    epoch: u64,
}

impl CsrGraph {
    /// Builds a CSR snapshot from a mutable [`Graph`].
    pub fn from_graph(graph: &Graph) -> Self {
        Self::from_backend(graph)
    }

    /// Builds a CSR snapshot from any backend, keying each entry by its
    /// edge id.
    pub fn from_backend<B: GraphBackend>(backend: &B) -> Self {
        let names = NodeNames::new(
            backend
                .nodes()
                .map(|node| backend.node_name(node).to_string())
                .collect(),
        );
        // One direction at a time, so only one degree array is alive.
        let fwd = keyed_runs(
            backend,
            |v| backend.out_degree(v),
            |v| backend.out_edges(v),
            false,
        );
        let rev = keyed_runs(
            backend,
            |v| backend.in_degree(v),
            |v| backend.in_edges(v),
            true,
        );
        let next_key = backend
            .nodes()
            .flat_map(|node| fwd.run(node.index()).1)
            .map(|&key| key + 1)
            .max()
            .unwrap_or(0);
        Self {
            names,
            labels: backend.labels().clone(),
            fwd,
            rev,
            dead: Arc::default(),
            next_key,
            epoch: backend.epoch(),
        }
    }

    /// Assembles a snapshot from both directions' adjacency — the seam of
    /// builders that stream their edges (the streamed corpus generator and
    /// the checkpoint decoder).  Each entry's key is its edge id.  The name
    /// index is rebuilt first-bearer from the node names; the caller
    /// guarantees the directions are mutually consistent (the reverse one
    /// the forward one's transpose, ids a permutation of
    /// `0..edge_count`), exactly what a live snapshot's accessors expose.
    pub fn from_raw_parts(
        node_names: Vec<String>,
        labels: LabelInterner,
        fwd: CsrAdjacency,
        rev: CsrAdjacency,
        epoch: u64,
    ) -> Self {
        debug_assert_eq!(fwd.len(), rev.len(), "both directions hold every edge");
        Self {
            names: NodeNames::new(node_names),
            labels,
            next_key: fwd.len() as u32,
            fwd,
            rev,
            dead: Arc::default(),
            epoch,
        }
    }

    /// Assembles a compacted snapshot (the delta-graph publish path).
    pub(crate) fn from_parts(
        names: NodeNames,
        labels: LabelInterner,
        (fwd, rev): (CsrAdjacency, CsrAdjacency),
        (dead, next_key): (Arc<[u32]>, u32),
        epoch: u64,
    ) -> Self {
        Self {
            names,
            labels,
            fwd,
            rev,
            dead,
            next_key,
            epoch,
        }
    }

    /// The version stamp of this snapshot (see the field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns the snapshot restamped with `epoch` (used by stores that
    /// assign their own version numbers).
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.fwd.len()
    }

    /// Alphabet size of the underlying graph at snapshot time.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The label interner captured at snapshot time.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// The display name of a node.
    ///
    /// # Panics
    /// Panics if `node` does not belong to this snapshot.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.names.name(node)
    }

    /// Looks up the first node bearing `name`.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.get(name)
    }

    /// Iterates over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from)
    }

    /// Outgoing `(label, target)` entries of `node` as a contiguous slice.
    #[inline]
    pub fn out(&self, node: NodeId) -> &[CsrEntry] {
        self.fwd.items(node.index())
    }

    /// Incoming `(label, source)` entries of `node` as a contiguous slice.
    #[inline]
    pub fn inc(&self, node: NodeId) -> &[CsrEntry] {
        self.rev.items(node.index())
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out(node).len()
    }

    /// In-degree of `node`.
    #[inline]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.inc(node).len()
    }

    /// The forward adjacency: per source node, its `(label, target)`
    /// entries keyed by edge key.
    pub fn forward(&self) -> &CsrAdjacency {
        &self.fwd
    }

    /// The reverse adjacency: per target node, its `(label, source)`
    /// entries keyed by edge key.
    pub fn reverse(&self) -> &CsrAdjacency {
        &self.rev
    }

    /// The public id of the edge keyed `key` (see the module docs).
    #[inline]
    pub(crate) fn edge_id(&self, key: u32) -> EdgeId {
        EdgeId::new(key - self.dead.partition_point(|&dead| dead < key) as u32)
    }

    /// Every key's edge id, indexed by key (dead keys map to `u32::MAX`):
    /// one pass over the key space instead of a search per key, for walks
    /// over the whole graph.
    pub fn edge_ids_by_key(&self) -> Vec<u32> {
        renumbering(&self.dead, self.next_key)
    }

    /// The node-name table, shared with the delta overlay and extended (not
    /// copied) by [`crate::delta::DeltaGraph::compact`].
    #[inline]
    pub(crate) fn names(&self) -> &NodeNames {
        &self.names
    }

    /// The dead keys, ascending, and the next key to give out.
    pub(crate) fn keyspace(&self) -> (&Arc<[u32]>, u32) {
        (&self.dead, self.next_key)
    }

    fn incident(&self, node: NodeId, reverse: bool) -> CsrIncidentEdges<'_> {
        let (entries, keys) = if reverse {
            self.rev.run(node.index())
        } else {
            self.fwd.run(node.index())
        };
        CsrIncidentEdges {
            entries: entries.iter(),
            keys: keys.iter(),
            graph: self,
            pivot: node,
            reverse,
        }
    }
}

/// One direction of [`CsrGraph::from_backend`]: each node's incident edges
/// (`(label, other end)` entries), keyed by edge id.
fn keyed_runs<B, I>(
    backend: &B,
    degree: impl Fn(NodeId) -> usize,
    incident: impl Fn(NodeId) -> I,
    reverse: bool,
) -> CsrAdjacency
where
    B: GraphBackend,
    I: Iterator<Item = (EdgeId, Edge)>,
{
    let mut scatter = Scatter::new(backend.nodes().map(|v| degree(v) as u32).collect());
    for node in backend.nodes() {
        for (id, edge) in incident(node) {
            let other = if reverse { edge.source } else { edge.target };
            let entry = CsrEntry {
                label: edge.label,
                node: other,
            };
            scatter.put(node.index(), entry, id.raw());
        }
    }
    scatter.finish()
}

/// Each key below `next_key` mapped to its edge id, `key − |dead keys below
/// it|` (the dead keys themselves to `u32::MAX`).
pub(crate) fn renumbering(dead: &[u32], next_key: u32) -> Vec<u32> {
    let mut dead = dead.iter().copied().peekable();
    let mut below = 0;
    (0..next_key)
        .map(|key| {
            if dead.next_if_eq(&key).is_some() {
                below += 1;
                u32::MAX
            } else {
                key - below
            }
        })
        .collect()
}

impl From<&Graph> for CsrGraph {
    fn from(graph: &Graph) -> Self {
        Self::from_graph(graph)
    }
}

/// Iterator over `(label, neighbor)` pairs of a CSR slice.
pub struct CsrNeighbors<'a> {
    entries: std::slice::Iter<'a, CsrEntry>,
}

impl<'a> Iterator for CsrNeighbors<'a> {
    type Item = (LabelId, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(LabelId, NodeId)> {
        self.entries.next().map(|entry| (entry.label, entry.node))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl<'a> ExactSizeIterator for CsrNeighbors<'a> {}

/// Iterator over `(EdgeId, Edge)` pairs of a CSR slice, reconstructing the
/// full edge records from the pivot node.
pub struct CsrIncidentEdges<'a> {
    entries: std::slice::Iter<'a, CsrEntry>,
    keys: std::slice::Iter<'a, u32>,
    graph: &'a CsrGraph,
    pivot: NodeId,
    reverse: bool,
}

impl<'a> Iterator for CsrIncidentEdges<'a> {
    type Item = (EdgeId, Edge);

    #[inline]
    fn next(&mut self) -> Option<(EdgeId, Edge)> {
        let entry = self.entries.next()?;
        let key = *self.keys.next().expect("edge keys aligned with entries");
        let edge = if self.reverse {
            Edge::new(entry.node, entry.label, self.pivot)
        } else {
            Edge::new(self.pivot, entry.label, entry.node)
        };
        Some((self.graph.edge_id(key), edge))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl<'a> ExactSizeIterator for CsrIncidentEdges<'a> {}

impl GraphBackend for CsrGraph {
    type Neighbors<'a> = CsrNeighbors<'a>;
    type IncidentEdges<'a> = CsrIncidentEdges<'a>;

    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    fn labels(&self) -> &LabelInterner {
        CsrGraph::labels(self)
    }

    fn node_name(&self, node: NodeId) -> &str {
        CsrGraph::node_name(self, node)
    }

    fn node_by_name(&self, name: &str) -> Option<NodeId> {
        CsrGraph::node_by_name(self, name)
    }

    fn successors(&self, node: NodeId) -> CsrNeighbors<'_> {
        CsrNeighbors {
            entries: self.out(node).iter(),
        }
    }

    fn predecessors(&self, node: NodeId) -> CsrNeighbors<'_> {
        CsrNeighbors {
            entries: self.inc(node).iter(),
        }
    }

    fn out_edges(&self, node: NodeId) -> CsrIncidentEdges<'_> {
        self.incident(node, false)
    }

    fn in_edges(&self, node: NodeId) -> CsrIncidentEdges<'_> {
        self.incident(node, true)
    }

    fn out_degree(&self, node: NodeId) -> usize {
        CsrGraph::out_degree(self, node)
    }

    fn in_degree(&self, node: NodeId) -> usize {
        CsrGraph::in_degree(self, node)
    }

    fn epoch(&self) -> u64 {
        CsrGraph::epoch(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, Vec<NodeId>) {
        // a -x-> b -z-> d ;  a -y-> c -z-> d
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "y", c);
        g.add_edge_by_name(b, "z", d);
        g.add_edge_by_name(c, "z", d);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn csr_preserves_counts() {
        let (g, _) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 4);
        assert_eq!(csr.label_count(), 3);
    }

    #[test]
    fn forward_adjacency_matches_graph() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let out_a: Vec<NodeId> = csr.out(n[0]).iter().map(|e| e.node).collect();
        assert_eq!(out_a, vec![n[1], n[2]]);
        assert_eq!(csr.out_degree(n[3]), 0);
        assert_eq!(csr.out_degree(n[0]), 2);
    }

    #[test]
    fn reverse_adjacency_matches_graph() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let in_d: Vec<NodeId> = csr.inc(n[3]).iter().map(|e| e.node).collect();
        assert_eq!(in_d, vec![n[1], n[2]]);
        assert_eq!(csr.in_degree(n[0]), 0);
    }

    #[test]
    fn labels_are_preserved_per_entry() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let z = g.label_id("z").unwrap();
        assert!(csr.out(n[1]).iter().all(|e| e.label == z));
        assert!(csr.inc(n[3]).iter().all(|e| e.label == z));
    }

    #[test]
    fn empty_graph_snapshot() {
        let g = Graph::new();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.nodes().count(), 0);
    }

    #[test]
    fn from_reference_conversion() {
        let (g, _) = diamond();
        let csr: CsrGraph = (&g).into();
        assert_eq!(csr.edge_count(), g.edge_count());
    }

    #[test]
    fn snapshot_carries_names_and_labels() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_name(n[0]), "a");
        assert_eq!(csr.node_by_name("d"), Some(n[3]));
        assert_eq!(csr.node_by_name("missing"), None);
        assert_eq!(csr.labels().get("x"), g.label_id("x"));
    }

    #[test]
    fn incident_edges_preserve_original_ids() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        let graph_out: Vec<(EdgeId, Edge)> = g.out_edges(n[0]).collect();
        let csr_out: Vec<(EdgeId, Edge)> = GraphBackend::out_edges(&csr, n[0]).collect();
        assert_eq!(graph_out, csr_out);
        let graph_in: Vec<(EdgeId, Edge)> = g.in_edges(n[3]).collect();
        let csr_in: Vec<(EdgeId, Edge)> = GraphBackend::in_edges(&csr, n[3]).collect();
        assert_eq!(graph_in, csr_in);
    }

    #[test]
    fn adjacency_accessors_expose_the_keyed_runs() {
        let (g, n) = diamond();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.forward().len(), csr.edge_count());
        assert_eq!(csr.reverse().len(), csr.edge_count());
        // The runs agree with the per-node views; a fresh build keys every
        // entry by its edge id.
        let (entries, keys) = csr.forward().run(n[0].index());
        assert_eq!(entries, csr.out(n[0]));
        let ids: Vec<EdgeId> = g.out_edges(n[0]).map(|(id, _)| id).collect();
        let keyed: Vec<EdgeId> = keys.iter().map(|&key| csr.edge_id(key)).collect();
        assert_eq!(keyed, ids);
    }

    #[test]
    fn snapshot_of_a_snapshot_is_identical() {
        let (g, _) = diamond();
        let once = CsrGraph::from_graph(&g);
        let twice = CsrGraph::from_backend(&once);
        assert_eq!(once.node_count(), twice.node_count());
        assert_eq!(once.edge_count(), twice.edge_count());
        for node in once.nodes() {
            assert_eq!(once.out(node), twice.out(node));
            assert_eq!(once.inc(node), twice.inc(node));
        }
    }
}
