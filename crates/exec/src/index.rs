//! Label-partitioned CSR adjacency — the storage the frontier evaluator
//! sweeps.
//!
//! The product fixed point expands one `(DFA transition, frontier)` pair at a
//! time: *for every node `u` in the frontier of state `q`, follow exactly the
//! edges labeled `a`*.  The general-purpose CSR interleaves all labels in one
//! adjacency stream, so that expansion would scan (and branch on) every
//! incident edge.  [`LabelIndex`] re-partitions both directions by label:
//! `neighbors(direction, label, node)` is a contiguous `&[u32]` slice holding
//! only the matching endpoints, which turns delta expansion into tight
//! slice-and-bitset sweeps.

use crate::bitset::FixedBitSet;
use gps_graph::{
    Adjacency, CsrGraph, Edge, GraphBackend, GraphDelta, LabelId, LabelStat, LabelStats, NodeId,
    Scatter,
};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Expansion direction through the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges source → target.
    Forward,
    /// Follow edges target → source.
    Reverse,
}

/// One label's adjacency in one direction: the neighbors of each node, in
/// the copy-on-write chunks of [`Adjacency`].  Nodes past the last chunk
/// (inserted after the partition was built) have no neighbors under this
/// label, which is what lets [`LabelIndex::apply_delta`] share untouched
/// partitions across epochs whole, and touched ones chunk by chunk.
///
/// Every constructor also maintains the partition's largest neighbor count
/// and its number of nodes with any neighbor — the per-label degree
/// statistics [`LabelIndex::patched_stats`] reads without a scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Partition {
    adjacency: Adjacency<u32>,
    max_degree: usize,
    occupied_nodes: usize,
}

impl Partition {
    /// Counting-sorts `(from, to)` pairs over `node_count` nodes; each node
    /// keeps its pairs in order.
    fn build(node_count: usize, pairs: &[(u32, u32)]) -> Self {
        let mut degrees = vec![0u32; node_count];
        for &(from, _) in pairs {
            degrees[from as usize] += 1;
        }
        let max_degree = degrees.iter().copied().max().unwrap_or(0) as usize;
        let occupied_nodes = degrees.iter().filter(|&&degree| degree > 0).count();
        let mut scatter = Scatter::new(degrees);
        for &(from, to) in pairs {
            scatter.put(from as usize, to, ());
        }
        Self {
            adjacency: scatter.finish(),
            max_degree,
            occupied_nodes,
        }
    }

    #[inline]
    fn neighbors_of(&self, node: usize) -> &[u32] {
        self.adjacency.items(node)
    }

    /// This partition with `removals` and `additions` applied — `(from, to)`
    /// pairs, each list sorted by `from`: each removal takes the first
    /// surviving occurrence.  Additions append in order, or — when
    /// `ascending`, for partitions whose neighbor lists ascend (reverse ones)
    /// and `additions` sorted by `(from, to)` — merge in after equal
    /// entries, so the result equals a fresh build either way.  The
    /// adjacency is spliced (see [`Adjacency::splice`]): only the chunks
    /// holding a changed "from" node are copied.  The degree statistics are
    /// updated from the changed nodes' old and new degrees (a scan only
    /// when a node holding the old maximum shrank below it and none reached
    /// it).
    fn patched(
        old: &Partition,
        mut removals: &[(u32, u32)],
        mut additions: &[(u32, u32)],
        ascending: bool,
    ) -> Self {
        // Splits `node`'s pairs off the front of `pairs`.
        fn take<'a>(pairs: &mut &'a [(u32, u32)], node: u32) -> &'a [(u32, u32)] {
            let (own, rest) = pairs.split_at(pairs.partition_point(|&(from, _)| from == node));
            *pairs = rest;
            own
        }
        let mut changed: Vec<usize> = removals
            .iter()
            .chain(additions)
            .map(|&(from, _)| from as usize)
            .collect();
        changed.sort_unstable();
        changed.dedup();
        let mut occupied_nodes = old.occupied_nodes;
        let mut changed_max = 0;
        let mut max_shrank = false;
        let adjacency = old.adjacency.splice(&changed, None, |node, base, _, run| {
            let (removed, added) = (
                take(&mut removals, node as u32),
                take(&mut additions, node as u32),
            );
            let mut pending: Vec<u32> = removed.iter().map(|&(_, to)| to).collect();
            let mut added = added.iter().map(|&(_, to)| to).peekable();
            for &to in base {
                if let Some(pos) = pending.iter().position(|&r| r == to) {
                    pending.swap_remove(pos);
                    continue;
                }
                while let Some(smaller) = added.next_if(|&a| ascending && a < to) {
                    run.push(smaller, ());
                }
                run.push(to, ());
            }
            added.for_each(|to| run.push(to, ()));
            let degree = run.run_len();
            occupied_nodes = occupied_nodes + (degree > 0) as usize - (!base.is_empty()) as usize;
            changed_max = changed_max.max(degree);
            max_shrank |= base.len() == old.max_degree && degree < base.len();
        });
        let max_degree = if max_shrank && changed_max < old.max_degree {
            adjacency.max_degree()
        } else {
            changed_max.max(old.max_degree)
        };
        Self {
            adjacency,
            max_degree,
            occupied_nodes,
        }
    }

    fn memory_bytes(&self) -> usize {
        self.adjacency.memory_bytes()
    }
}

/// One direction's partitions, one per label, individually [`Arc`]-shared so
/// an epoch publish clones only the touched labels.
#[derive(Debug, Clone, Default)]
struct DirIndex {
    parts: Vec<Arc<Partition>>,
}

impl DirIndex {
    #[inline]
    fn neighbors(&self, label: usize, node: usize) -> &[u32] {
        self.parts[label].neighbors_of(node)
    }
}

/// Label-partitioned forward and reverse adjacency of one graph snapshot.
///
/// Built once per graph and shared across every query of a batch (and across
/// worker threads — the index is immutable after construction).  A live
/// store does not rebuild it per epoch: [`LabelIndex::apply_delta`] patches
/// only the label partitions an update touches and `Arc`-shares the rest
/// with the previous epoch's index.
///
/// The per-(direction, label) partitions are independent, so the fresh
/// build can fan out across **shards**: with
/// [`from_csr_sharded`](Self::from_csr_sharded) set to `n > 1`, up to `n`
/// scoped threads build partitions off a shared queue.  The result is
/// byte-identical to the sequential build regardless of shard count —
/// every partition's content depends only on its own label's edges, never
/// on scheduling (the differential suites assert exact equality across
/// shard counts).  `shards <= 1` spawns no thread.  The delta patch is
/// sequential: it copies only the touched partitions' changed chunks, which
/// leaves a second thread nothing to win.
#[derive(Debug, Clone, Default)]
pub struct LabelIndex {
    node_count: usize,
    label_count: usize,
    fwd: DirIndex,
    rev: DirIndex,
    label_edge_counts: Vec<usize>,
    /// Build parallelism: number of worker threads partition jobs fan out
    /// over (0 and 1 both mean sequential).  Inherited by indexes derived
    /// via [`apply_delta`](Self::apply_delta), so it keeps describing the
    /// configuration the index came from.
    shards: usize,
}

impl LabelIndex {
    /// Builds the index from any backend by one pass over the edge set.
    pub fn from_backend<B: GraphBackend>(graph: &B) -> Self {
        let mut fwd = vec![Vec::new(); graph.label_count()];
        let mut rev = vec![Vec::new(); graph.label_count()];
        for node in graph.nodes() {
            let from = node.index() as u32;
            for (label, target) in graph.successors(node) {
                fwd[label.index()].push((from, target.raw()));
                rev[label.index()].push((target.raw(), from));
            }
        }
        Self::from_buckets(graph.node_count(), fwd, rev, 1)
    }

    /// Builds the index from a CSR snapshot.
    pub fn from_csr(csr: &CsrGraph) -> Self {
        Self::from_csr_sharded(csr, 1)
    }

    /// Like [`from_csr`](Self::from_csr), but builds the per-(direction,
    /// label) partitions on up to `shards` scoped threads and remembers the
    /// shard count.  Byte-identical to the sequential build for every
    /// `shards` value.
    pub fn from_csr_sharded(csr: &CsrGraph, shards: usize) -> Self {
        let label_count = csr.label_count();
        let mut fwd = vec![Vec::new(); label_count];
        let mut rev = vec![Vec::new(); label_count];
        for node in csr.nodes() {
            for entry in csr.out(node) {
                fwd[entry.label.index()].push((node.raw(), entry.node.raw()));
                rev[entry.label.index()].push((entry.node.raw(), node.raw()));
            }
        }
        Self::from_buckets(csr.node_count(), fwd, rev, shards)
    }

    /// Builds every (direction, label) partition from its bucket of
    /// `(from, to)` pairs (in forward-adjacency scan order), on up to
    /// `shards` threads pulling partitions off a shared queue.  A
    /// partition's content depends only on its own bucket, so the index is
    /// byte-identical at every shard count.
    fn from_buckets(
        node_count: usize,
        fwd: Vec<Vec<(u32, u32)>>,
        rev: Vec<Vec<(u32, u32)>>,
        shards: usize,
    ) -> Self {
        let label_count = fwd.len();
        let buckets: Vec<&[(u32, u32)]> = fwd.iter().chain(&rev).map(Vec::as_slice).collect();
        let mut parts: Vec<Option<Partition>> = buckets.iter().map(|_| None).collect();
        let jobs = Mutex::new(parts.iter_mut().zip(&buckets));
        let work = || loop {
            let next = jobs
                .lock()
                .expect("no builder panics holding the queue")
                .next();
            match next {
                Some((part, bucket)) => *part = Some(Partition::build(node_count, bucket)),
                None => break,
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..shards.min(buckets.len()) {
                scope.spawn(work);
            }
            work();
        });
        let mut parts: Vec<Arc<Partition>> = parts
            .into_iter()
            .map(|part| Arc::new(part.expect("every job ran")))
            .collect();
        let rev_parts = parts.split_off(label_count);
        Self {
            node_count,
            label_count,
            fwd: DirIndex { parts },
            rev: DirIndex { parts: rev_parts },
            label_edge_counts: fwd.iter().map(Vec::len).collect(),
            shards,
        }
    }

    /// The configured shard (worker) count; `0`/`1` mean sequential.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of nodes in the indexed graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of labels in the indexed graph's alphabet.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// Approximate heap footprint of the index in bytes (the chunked
    /// neighbor lists of both directions).  Multi-session deployments
    /// report this to show N sessions share **one** index allocation rather
    /// than N copies.  Partitions `Arc`-shared with another epoch's index
    /// are counted in full here (the figure is per-index, not per-fleet).
    pub fn memory_bytes(&self) -> usize {
        let dir = |d: &DirIndex| -> usize { d.parts.iter().map(|p| p.memory_bytes()).sum() };
        dir(&self.fwd)
            + dir(&self.rev)
            + self.label_edge_counts.len() * std::mem::size_of::<usize>()
    }

    /// Number of edges carrying `label`.
    pub fn label_edge_count(&self, label: LabelId) -> usize {
        self.label_edge_counts
            .get(label.index())
            .copied()
            .unwrap_or(0)
    }

    /// The `label`-neighbors of `node` in `direction` as a packed slice.
    ///
    /// Labels outside the indexed alphabet (a query compiled against a
    /// different interner) and out-of-range nodes simply have no neighbors,
    /// mirroring the naive evaluator's "undefined transition rejects"
    /// semantics instead of panicking.
    #[inline]
    pub fn neighbors(&self, direction: Direction, label: LabelId, node: usize) -> &[u32] {
        if label.index() >= self.label_count || node >= self.node_count {
            return &[];
        }
        match direction {
            Direction::Forward => self.fwd.neighbors(label.index(), node),
            Direction::Reverse => self.rev.neighbors(label.index(), node),
        }
    }

    /// Builds the next epoch's index from this one by patching **only** the
    /// label partitions `delta` touches; untouched labels share their
    /// partitions with this index (`Arc` clone, no copy), and touched ones
    /// share every chunk holding no changed node.
    ///
    /// `node_count` / `label_count` are the merged graph's counts (take them
    /// from the compacted snapshot).  In a forward partition each node's
    /// neighbors come out in surviving base order, then insertion order; in
    /// a reverse partition they ascend by source node, the insertions merged
    /// in.  Both match [`from_csr`](Self::from_csr) over that snapshot byte
    /// for byte.  Each touched partition is spliced (see
    /// `Partition::patched`): only the chunks of the nodes the delta changes
    /// are copied.  The returned index inherits the shard setting.
    pub fn apply_delta(
        &self,
        delta: &GraphDelta,
        node_count: usize,
        label_count: usize,
    ) -> LabelIndex {
        let touched = delta.touched_labels();
        // One touched label's changes in one direction as `(from, to)` pairs
        // keyed by the partition's "from" endpoint (source forward, target
        // reverse).  Forward pairs are stably sorted by `from`, so each node
        // keeps its insertion order; reverse pairs are sorted whole, the
        // order the ascending merge needs.
        let changes = |edges: &[Edge], label: usize, reverse: bool| -> Vec<(u32, u32)> {
            let mut pairs: Vec<(u32, u32)> = edges
                .iter()
                .filter(|e| e.label.index() == label)
                .map(|e| {
                    let (from, to) = if reverse {
                        (e.target, e.source)
                    } else {
                        (e.source, e.target)
                    };
                    (from.raw(), to.raw())
                })
                .collect();
            if reverse {
                pairs.sort_unstable();
            } else {
                pairs.sort_by_key(|&(from, _)| from);
            }
            pairs
        };

        let mut fwd_parts = Vec::with_capacity(label_count);
        let mut rev_parts = Vec::with_capacity(label_count);
        let mut label_edge_counts = vec![0usize; label_count];
        for (label, slot) in label_edge_counts.iter_mut().enumerate() {
            let known = label < self.label_count;
            if touched.contains(&LabelId::from(label)) {
                let empty = Partition::default();
                let patch = |old: &DirIndex, reverse: bool| {
                    Arc::new(Partition::patched(
                        if known { &old.parts[label] } else { &empty },
                        &changes(&delta.removed_edges, label, reverse),
                        &changes(&delta.added_edges, label, reverse),
                        reverse,
                    ))
                };
                let fwd = patch(&self.fwd, false);
                *slot = fwd.adjacency.len();
                fwd_parts.push(fwd);
                rev_parts.push(patch(&self.rev, true));
            } else if known {
                fwd_parts.push(Arc::clone(&self.fwd.parts[label]));
                rev_parts.push(Arc::clone(&self.rev.parts[label]));
                *slot = self.label_edge_counts[label];
            } else {
                // A label interned without edges: nothing to patch.
                fwd_parts.push(Arc::default());
                rev_parts.push(Arc::default());
            }
        }
        LabelIndex {
            node_count,
            label_count,
            fwd: DirIndex { parts: fwd_parts },
            rev: DirIndex { parts: rev_parts },
            label_edge_counts,
            shards: self.shards,
        }
    }

    /// Derives the merged graph's [`LabelStats`] from this (already patched)
    /// index: untouched labels keep their [`LabelStat`] from `old` (only the
    /// frequency denominator is refreshed), touched labels are recomputed
    /// from their partitions — no sweep over the graph's adjacency.
    pub fn patched_stats(&self, old: &LabelStats, touched: &BTreeSet<LabelId>) -> LabelStats {
        let edge_count: usize = self.label_edge_counts.iter().sum();
        let per_label = (0..self.label_count)
            .map(|index| {
                let label = LabelId::from(index);
                let known = old.get(label).filter(|_| !touched.contains(&label));
                let mut stat = match known {
                    Some(stat) => stat.clone(),
                    None => {
                        let fwd = self.fwd.parts[index].as_ref();
                        let rev = self.rev.parts[index].as_ref();
                        LabelStat {
                            label,
                            edge_count: fwd.adjacency.len(),
                            frequency: 0.0,
                            max_out_degree: fwd.max_degree,
                            max_in_degree: rev.max_degree,
                            source_count: fwd.occupied_nodes,
                            target_count: rev.occupied_nodes,
                        }
                    }
                };
                stat.frequency = if edge_count == 0 {
                    0.0
                } else {
                    stat.edge_count as f64 / edge_count as f64
                };
                stat
            })
            .collect();
        LabelStats {
            per_label,
            node_count: self.node_count,
            edge_count,
        }
    }

    /// Marks in `out` every `label`-neighbor (in `direction`) of every node
    /// of `frontier`, returning how many bits were newly set in `out`.
    pub fn expand_into(
        &self,
        direction: Direction,
        label: LabelId,
        frontier: &FixedBitSet,
        out: &mut FixedBitSet,
    ) -> usize {
        let mut fresh = 0;
        for node in frontier.ones() {
            for &neighbor in self.neighbors(direction, label, node) {
                fresh += out.insert(neighbor as usize) as usize;
            }
        }
        fresh
    }
}

/// Convenience: the `label`-successors of `node` as typed ids (test helper).
pub fn successor_ids(index: &LabelIndex, label: LabelId, node: NodeId) -> Vec<NodeId> {
    index
        .neighbors(Direction::Forward, label, node.index())
        .iter()
        .map(|&n| NodeId::new(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::Graph;

    fn sample() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "y", c);
        g.add_edge_by_name(b, "x", c);
        g.add_edge_by_name(c, "x", a);
        g
    }

    #[test]
    fn forward_partitions_by_label() {
        let g = sample();
        let index = LabelIndex::from_backend(&g);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let a = g.node_by_name("a").unwrap();
        assert_eq!(
            successor_ids(&index, x, a),
            vec![g.node_by_name("b").unwrap()]
        );
        assert_eq!(
            successor_ids(&index, y, a),
            vec![g.node_by_name("c").unwrap()]
        );
        assert_eq!(index.label_edge_count(x), 3);
        assert_eq!(index.label_edge_count(y), 1);
    }

    #[test]
    fn reverse_partitions_by_label() {
        let g = sample();
        let index = LabelIndex::from_backend(&g);
        let x = g.label_id("x").unwrap();
        let c = g.node_by_name("c").unwrap();
        let mut preds: Vec<u32> = index.neighbors(Direction::Reverse, x, c.index()).to_vec();
        preds.sort_unstable();
        assert_eq!(preds, vec![g.node_by_name("b").unwrap().raw()]);
        let a = g.node_by_name("a").unwrap();
        assert_eq!(
            index.neighbors(Direction::Reverse, x, a.index()),
            &[c.raw()]
        );
    }

    #[test]
    fn csr_and_backend_builds_agree() {
        let g = sample();
        let csr = CsrGraph::from_graph(&g);
        let from_backend = LabelIndex::from_backend(&g);
        let from_csr = LabelIndex::from_csr(&csr);
        for label in g.labels().ids() {
            for node in 0..g.node_count() {
                for direction in [Direction::Forward, Direction::Reverse] {
                    let mut a: Vec<u32> = from_backend.neighbors(direction, label, node).to_vec();
                    let mut b: Vec<u32> = from_csr.neighbors(direction, label, node).to_vec();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{direction:?} {label:?} node {node}");
                }
            }
        }
    }

    #[test]
    fn expand_into_marks_neighbors_once() {
        let g = sample();
        let index = LabelIndex::from_backend(&g);
        let x = g.label_id("x").unwrap();
        let mut frontier = FixedBitSet::new(g.node_count());
        frontier.insert_all();
        let mut out = FixedBitSet::new(g.node_count());
        // Every node has exactly one x-successor here: a→b, b→c, c→a.
        let fresh = index.expand_into(Direction::Forward, x, &frontier, &mut out);
        assert_eq!(fresh, 3);
        let again = index.expand_into(Direction::Forward, x, &frontier, &mut out);
        assert_eq!(again, 0, "already marked");
    }

    #[test]
    fn foreign_labels_and_nodes_have_no_neighbors() {
        let g = sample();
        let index = LabelIndex::from_backend(&g);
        assert!(index
            .neighbors(Direction::Forward, LabelId::new(99), 0)
            .is_empty());
        assert!(index
            .neighbors(Direction::Reverse, LabelId::new(99), 0)
            .is_empty());
        let x = g.label_id("x").unwrap();
        assert!(index.neighbors(Direction::Forward, x, 99).is_empty());
        assert_eq!(index.label_edge_count(LabelId::new(99)), 0);
    }

    #[test]
    fn empty_graph_index() {
        let g = Graph::new();
        let index = LabelIndex::from_backend(&g);
        assert_eq!(index.node_count(), 0);
        assert_eq!(index.label_count(), 0);
    }

    #[test]
    fn apply_delta_matches_a_fresh_build_and_shares_untouched_partitions() {
        use gps_graph::{CsrGraph, DeltaGraph, CHUNK_NODES};

        // The sample's a, b, c, then enough x- and y-edges to span three
        // chunks in both directions.
        let mut g = sample();
        let n = 3 * CHUNK_NODES;
        for i in 3..n {
            g.add_node(format!("v{i}"));
        }
        for i in 3..n {
            let next = NodeId::from((i * 7 + 1) % n);
            g.add_edge_by_name(NodeId::from(i), ["x", "y"][i % 2], next);
        }
        let base = std::sync::Arc::new(CsrGraph::from_graph(&g));
        let old = LabelIndex::from_csr(&base);

        // Touch only label `x`: remove a-x->b, add c-x->d and a new node d;
        // also intern a brand-new label `z` with one edge.
        let mut delta = DeltaGraph::new(std::sync::Arc::clone(&base));
        let a = delta.node_by_name("a").unwrap();
        let b = delta.node_by_name("b").unwrap();
        let c = delta.node_by_name("c").unwrap();
        let d = delta.add_node("d");
        let x = delta.labels().get("x").unwrap();
        let z = delta.label("z");
        assert!(delta.remove_edge(a, x, b));
        delta.add_edge(c, x, d);
        delta.add_edge(d, z, a);
        let summary = delta.delta();
        let compacted = delta.compact();

        let patched = old.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        let fresh = LabelIndex::from_csr(&compacted);
        assert_eq!(patched.node_count(), fresh.node_count());
        assert_eq!(patched.label_count(), fresh.label_count());
        for label in 0..fresh.label_count() {
            let label = LabelId::from(label);
            assert_eq!(
                patched.label_edge_count(label),
                fresh.label_edge_count(label),
                "{label:?}"
            );
            for node in 0..fresh.node_count() {
                for direction in [Direction::Forward, Direction::Reverse] {
                    assert_eq!(
                        patched.neighbors(direction, label, node),
                        fresh.neighbors(direction, label, node),
                        "{direction:?} {label:?} node {node}"
                    );
                }
            }
        }
        // The untouched label `y` shares its partitions with the old index
        // whole.
        let y = g.label_id("y").unwrap();
        for (new, old) in [(&patched.fwd, &old.fwd), (&patched.rev, &old.rev)] {
            assert!(std::sync::Arc::ptr_eq(
                &new.parts[y.index()],
                &old.parts[y.index()]
            ));
        }
        // The touched label `x` shares exactly the chunks holding no
        // changed node: forward the sources a and c, reverse the targets b
        // and d.  (Node d opens a reverse chunk 3, which the old index
        // lacks.)
        for (new, old, changed) in [
            (&patched.fwd, &old.fwd, [a, c]),
            (&patched.rev, &old.rev, [b, d]),
        ] {
            let (new, old) = (
                &new.parts[x.index()].adjacency,
                &old.parts[x.index()].adjacency,
            );
            let opened = changed.iter().map(|v| v.index() / CHUNK_NODES + 1).max();
            assert_eq!(new.chunk_count(), opened.unwrap().max(old.chunk_count()));
            for chunk in 0..new.chunk_count() {
                let touched = changed.iter().any(|v| v.index() / CHUNK_NODES == chunk);
                assert_eq!(new.shares_chunk(old, chunk), !touched, "chunk {chunk}");
            }
        }

        // Patched statistics agree with a full recompute on the merged graph.
        let old_stats = gps_graph::LabelStats::compute(&g);
        let patched_stats = patched.patched_stats(&old_stats, &summary.touched_labels());
        let fresh_stats = gps_graph::LabelStats::compute(&compacted);
        assert_eq!(patched_stats, fresh_stats);
    }

    #[test]
    fn patched_partitions_handle_parallel_duplicates() {
        use gps_graph::{CsrGraph, DeltaGraph};

        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", b);
        let base = std::sync::Arc::new(CsrGraph::from_graph(&g));
        let old = LabelIndex::from_csr(&base);
        let mut delta = DeltaGraph::new(std::sync::Arc::clone(&base));
        let x = delta.labels().get("x").unwrap();
        assert!(delta.remove_edge(a, x, b));
        assert!(delta.remove_edge(a, x, b));
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = old.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        assert_eq!(
            patched.neighbors(Direction::Forward, x, a.index()),
            &[b.raw()]
        );
        assert_eq!(patched.label_edge_count(x), 1);
    }

    fn assert_byte_identical(a: &LabelIndex, b: &LabelIndex) {
        assert_eq!(a.node_count, b.node_count);
        assert_eq!(a.label_count, b.label_count);
        assert_eq!(a.label_edge_counts, b.label_edge_counts);
        for label in 0..a.label_count {
            assert_eq!(*a.fwd.parts[label], *b.fwd.parts[label], "fwd {label}");
            assert_eq!(*a.rev.parts[label], *b.rev.parts[label], "rev {label}");
        }
    }

    #[test]
    fn sharded_build_and_patch_are_byte_identical_to_sequential() {
        use gps_graph::{CsrGraph, DeltaGraph};

        let g = sample();
        let base = std::sync::Arc::new(CsrGraph::from_graph(&g));
        let sequential = LabelIndex::from_csr(&base);
        let mut delta = DeltaGraph::new(std::sync::Arc::clone(&base));
        let a = delta.node_by_name("a").unwrap();
        let b = delta.node_by_name("b").unwrap();
        let d = delta.add_node("d");
        let x = delta.labels().get("x").unwrap();
        let z = delta.label("z");
        assert!(delta.remove_edge(a, x, b));
        delta.add_edge(b, x, d);
        delta.add_edge(d, z, a);
        let summary = delta.delta();
        let compacted = delta.compact();
        let seq_patched =
            sequential.apply_delta(&summary, compacted.node_count(), compacted.label_count());

        for shards in [2usize, 3, 7, 64] {
            let sharded = LabelIndex::from_csr_sharded(&base, shards);
            assert_eq!(sharded.shards(), shards);
            assert_byte_identical(&sequential, &sharded);
            let patched =
                sharded.apply_delta(&summary, compacted.node_count(), compacted.label_count());
            assert_eq!(patched.shards(), shards, "patched index inherits shards");
            assert_byte_identical(&seq_patched, &patched);
        }
    }

    #[test]
    fn chained_patches_are_byte_identical_with_exact_degree_stats() {
        use gps_graph::{CsrGraph, DeltaGraph};

        fn below(state: &mut u64, bound: usize) -> usize {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            (*state % bound as u64) as usize
        }
        // Node 0 is the `x` hub (out-degree 9, in-degree 7); node 1 is the
        // runner-up (out-degree 8), so shrinking the hub moves the maximum
        // to a node the patch never visits.
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..40).map(|i| g.add_node(format!("n{i}"))).collect();
        for i in 1..10 {
            g.add_edge_by_name(nodes[0], "x", nodes[i]);
        }
        for i in 2..10 {
            g.add_edge_by_name(nodes[1], "x", nodes[i + 10]);
        }
        for i in 3..10 {
            g.add_edge_by_name(nodes[i + 20], "x", nodes[0]);
        }
        let mut rng = 0x5EED_u64;
        for _ in 0..30 {
            let (s, t) = (below(&mut rng, 40), below(&mut rng, 40));
            g.add_edge_by_name(nodes[s], ["x", "y"][below(&mut rng, 2)], nodes[t]);
        }
        let mut snapshot = std::sync::Arc::new(CsrGraph::from_graph(&g));
        let mut index = LabelIndex::from_csr(&snapshot);
        let mut stats = gps_graph::LabelStats::compute(&*snapshot);
        let x = g.label_id("x").unwrap();
        for epoch in 0..12 {
            let mut delta = DeltaGraph::new(std::sync::Arc::clone(&snapshot));
            if epoch == 0 {
                assert!(delta.remove_edge(nodes[0], x, nodes[1]));
                assert!(delta.remove_edge(nodes[0], x, nodes[2]));
                assert!(delta.remove_edge(nodes[23], x, nodes[0]));
            }
            let edges: Vec<Edge> = snapshot.edges_by_source().map(|(_, e)| e).collect();
            for _ in 0..3 {
                let e = edges[below(&mut rng, edges.len())];
                delta.remove_edge(e.source, e.label, e.target);
            }
            if epoch % 4 == 1 {
                delta.add_node(format!("fresh{epoch}"));
            }
            for _ in 0..4 {
                let n = delta.node_count();
                let (s, t) = (below(&mut rng, n), below(&mut rng, n));
                let label = delta.label(["x", "y"][below(&mut rng, 2)]);
                delta.add_edge(NodeId::from(s), label, NodeId::from(t));
            }
            let summary = delta.delta();
            let compacted = delta.compact();
            let patched =
                index.apply_delta(&summary, compacted.node_count(), compacted.label_count());
            assert_byte_identical(&patched, &LabelIndex::from_csr(&compacted));
            let patched_stats = patched.patched_stats(&stats, &summary.touched_labels());
            assert_eq!(
                patched_stats,
                gps_graph::LabelStats::compute(&compacted),
                "epoch {epoch}"
            );
            snapshot = std::sync::Arc::new(compacted);
            index = patched;
            stats = patched_stats;
        }
    }

    #[test]
    fn memory_bytes_grows_with_the_graph() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        g.add_edge_by_name(a, "x", b);
        let small = LabelIndex::from_backend(&g).memory_bytes();
        assert!(small > 0);
        let c = g.add_node("C");
        g.add_edge_by_name(b, "y", c);
        g.add_edge_by_name(a, "y", c);
        let larger = LabelIndex::from_backend(&g).memory_bytes();
        assert!(larger > small);
    }
}
