//! Copy-on-write adjacency in fixed node-range chunks — the one layout
//! behind both directions of a [`CsrGraph`](crate::CsrGraph) and every
//! label partition of the `gps-exec` label index.
//!
//! Node `v`'s run of entries lives in chunk `v / CHUNK_NODES`.  A chunk is
//! one immutable, `Arc`-shared block holding its local offsets inline,
//! ahead of the pointers to its entries, so a lookup costs one dependent
//! load more than a flat CSR: the chunk pointer.  [`Adjacency::splice`] builds the next epoch's adjacency
//! from the previous one: it rebuilds only the chunks that hold a changed
//! node and clones the pointer of every other chunk, so a publish copies
//! the chunks it changes plus one pointer per chunk, not the edge set.
//!
//! Each entry pairs a payload item with a key.  The CSR keys its entries by
//! a stable edge key; the label index uses `()`, which stores nothing.  A
//! node past the last chunk has an empty run, so an adjacency covers a
//! grown node set without a copy.

use std::ops::Range;
use std::sync::Arc;

/// Nodes per chunk.  A publish copies the chunks of the nodes it changes
/// and one pointer per chunk; on the scale-free corpora, whose hubs
/// concentrate in the low node ids, 256 copies the least of the two
/// together.
pub const CHUNK_NODES: usize = 256;

/// One node range's runs: local offsets, then the entries of every run.
#[derive(Debug, PartialEq, Eq)]
struct Chunk<T, K> {
    /// `offsets[s]..offsets[s + 1]` spans local node `s`'s entries.
    offsets: [u32; CHUNK_NODES + 1],
    items: Box<[T]>,
    keys: Box<[K]>,
}

impl<T, K> Chunk<T, K> {
    #[inline]
    fn span(&self, slot: usize) -> Range<usize> {
        self.offsets[slot] as usize..self.offsets[slot + 1] as usize
    }
}

/// A chunk under construction: [`Adjacency::splice`] hands it to the
/// closure that rebuilds a changed node's run.
#[derive(Debug)]
pub struct ChunkWriter<T, K = ()> {
    offsets: [u32; CHUNK_NODES + 1],
    items: Vec<T>,
    keys: Vec<K>,
    /// Where the run being written starts.
    start: usize,
}

impl<T: Copy, K: Copy> ChunkWriter<T, K> {
    /// Appends one entry to the run being written.
    #[inline]
    pub fn push(&mut self, item: T, key: K) {
        self.items.push(item);
        self.keys.push(key);
    }

    /// Appends aligned entries to the run being written.
    pub fn extend(&mut self, items: &[T], keys: &[K]) {
        debug_assert_eq!(items.len(), keys.len(), "keys aligned with items");
        self.items.extend_from_slice(items);
        self.keys.extend_from_slice(keys);
    }

    /// Number of entries written to the current run so far.
    pub fn run_len(&self) -> usize {
        self.items.len() - self.start
    }

    fn seal(self) -> Arc<Chunk<T, K>> {
        Arc::new(Chunk {
            offsets: self.offsets,
            items: self.items.into_boxed_slice(),
            keys: self.keys.into_boxed_slice(),
        })
    }
}

/// Per-node runs of `(item, key)` entries in `Arc`-shared chunks of
/// [`CHUNK_NODES`] nodes (see the [module docs](self)).
///
/// Equality is by content: two adjacencies are equal when every node has
/// the same run, however many trailing empty chunks either one holds.
#[derive(Debug, Clone, Default)]
pub struct Adjacency<T, K = ()> {
    chunks: Vec<Arc<Chunk<T, K>>>,
    len: usize,
}

impl<T: PartialEq, K: PartialEq> PartialEq for Adjacency<T, K> {
    fn eq(&self, other: &Self) -> bool {
        let count = self.chunks.len().max(other.chunks.len());
        self.len == other.len
            && (0..count).all(|c| match (self.chunks.get(c), other.chunks.get(c)) {
                (Some(a), Some(b)) => a == b,
                (Some(only), None) | (None, Some(only)) => only.items.is_empty(),
                (None, None) => unreachable!("c is below one of the chunk counts"),
            })
    }
}

impl<T: Eq, K: Eq> Eq for Adjacency<T, K> {}

impl<T: Copy, K: Copy> Adjacency<T, K> {
    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no node has an entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn locate(&self, node: usize) -> Option<(&Chunk<T, K>, Range<usize>)> {
        let chunk = self.chunks.get(node / CHUNK_NODES)?;
        Some((chunk, chunk.span(node % CHUNK_NODES)))
    }

    /// The items of `node`'s run (empty past the last chunk).
    #[inline]
    pub fn items(&self, node: usize) -> &[T] {
        self.locate(node)
            .map_or(&[], |(chunk, span)| &chunk.items[span])
    }

    /// The items and keys of `node`'s run, aligned.
    #[inline]
    pub fn run(&self, node: usize) -> (&[T], &[K]) {
        self.locate(node).map_or((&[], &[]), |(chunk, span)| {
            (&chunk.items[span.clone()], &chunk.keys[span])
        })
    }

    /// The longest run.
    pub fn max_degree(&self) -> usize {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.offsets.windows(2).map(|w| (w[1] - w[0]) as usize))
            .max()
            .unwrap_or(0)
    }

    /// Number of chunks (node `v` lives in chunk `v / CHUNK_NODES`).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// `true` when chunk `chunk` of `self` and of `other` is one shared
    /// allocation.
    pub fn shares_chunk(&self, other: &Self, chunk: usize) -> bool {
        match (self.chunks.get(chunk), other.chunks.get(chunk)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Heap footprint in bytes, counting shared chunks in full.
    pub fn memory_bytes(&self) -> usize {
        let per_chunk = std::mem::size_of::<Chunk<T, K>>() + std::mem::size_of::<Arc<()>>();
        let per_entry = std::mem::size_of::<T>() + std::mem::size_of::<K>();
        self.chunks.len() * per_chunk + self.len * per_entry
    }

    /// The next epoch's adjacency.  `changed` lists the nodes whose runs
    /// change, ascending and without repeats; `rebuild(node, items, keys,
    /// writer)` writes each one's new run, given its old one.  Every other
    /// run is kept.  A chunk holding no changed node is shared with `self`
    /// (one pointer copied); a chunk holding one is copied with its changed
    /// runs rebuilt, and chunks are added up to the last changed node.
    ///
    /// With `rekey`, every chunk is copied and every kept key mapped
    /// through it — the re-key of a [`CsrGraph`](crate::CsrGraph)'s edge
    /// keys; `rebuild` then writes its runs' keys mapped itself.
    pub fn splice<F>(
        &self,
        changed: &[usize],
        rekey: Option<&dyn Fn(K) -> K>,
        mut rebuild: F,
    ) -> Self
    where
        F: FnMut(usize, &[T], &[K], &mut ChunkWriter<T, K>),
    {
        debug_assert!(changed.windows(2).all(|w| w[0] < w[1]), "changed ascends");
        let needed = changed.last().map_or(0, |&node| node / CHUNK_NODES + 1);
        let count = self.chunks.len().max(needed);
        let mut changed = changed.iter().copied().peekable();
        let mut chunks = Vec::with_capacity(count);
        let mut len = 0;
        for c in 0..count {
            let first = c * CHUNK_NODES;
            let dirty = changed
                .peek()
                .is_some_and(|&node| node < first + CHUNK_NODES);
            let old = self.chunks.get(c);
            let chunk = match old {
                Some(old) if !dirty && rekey.is_none() => Arc::clone(old),
                _ => {
                    let size = old.map_or(0, |old| old.items.len());
                    let mut writer = ChunkWriter {
                        offsets: [0; CHUNK_NODES + 1],
                        items: Vec::with_capacity(size),
                        keys: Vec::with_capacity(size),
                        start: 0,
                    };
                    for slot in 0..CHUNK_NODES {
                        let (items, keys) = old.map_or((&[][..], &[][..]), |old| {
                            let span = old.span(slot);
                            (&old.items[span.clone()], &old.keys[span])
                        });
                        writer.start = writer.items.len();
                        if changed.next_if_eq(&(first + slot)).is_some() {
                            rebuild(first + slot, items, keys, &mut writer);
                        } else if let Some(rekey) = rekey {
                            writer.items.extend_from_slice(items);
                            writer.keys.extend(keys.iter().map(|&key| rekey(key)));
                        } else {
                            writer.extend(items, keys);
                        }
                        writer.offsets[slot + 1] = writer.items.len() as u32;
                    }
                    writer.seal()
                }
            };
            len += chunk.items.len();
            chunks.push(chunk);
        }
        Self { chunks, len }
    }
}

/// Builds an [`Adjacency`] from entries in any node order: a counting sort
/// whose counts are the nodes' degrees, known up front.
#[derive(Debug)]
pub struct Scatter<T, K = ()> {
    chunks: Vec<ChunkWriter<T, K>>,
    /// Per node, the chunk-local slot its next entry goes to.
    cursors: Vec<u32>,
}

impl<T: Copy + Default, K: Copy + Default> Scatter<T, K> {
    /// Room for `degrees[v]` entries at each node `v < degrees.len()`.
    pub fn new(mut degrees: Vec<u32>) -> Self {
        let mut chunks = Vec::with_capacity(degrees.len().div_ceil(CHUNK_NODES));
        for nodes in degrees.chunks_mut(CHUNK_NODES) {
            let mut offsets = [0u32; CHUNK_NODES + 1];
            let mut end = 0u32;
            for (slot, offset) in offsets.iter_mut().skip(1).enumerate() {
                if let Some(degree) = nodes.get_mut(slot) {
                    // The degree slot becomes the node's cursor.
                    let start = end;
                    end += *degree;
                    *degree = start;
                }
                *offset = end;
            }
            chunks.push(ChunkWriter {
                offsets,
                items: vec![T::default(); end as usize],
                keys: vec![K::default(); end as usize],
                start: 0,
            });
        }
        Self {
            chunks,
            cursors: degrees,
        }
    }

    /// Places the next entry of `node`'s run.
    ///
    /// # Panics
    /// Panics when `node` already holds its declared degree of entries.
    #[inline]
    pub fn put(&mut self, node: usize, item: T, key: K) {
        let chunk = &mut self.chunks[node / CHUNK_NODES];
        let cursor = &mut self.cursors[node];
        let at = *cursor as usize;
        assert!(
            at < chunk.offsets[node % CHUNK_NODES + 1] as usize,
            "node {node} exceeds its declared degree"
        );
        chunk.items[at] = item;
        chunk.keys[at] = key;
        *cursor += 1;
    }

    /// The built adjacency.
    ///
    /// # Panics
    /// Panics when a node received fewer entries than its declared degree.
    pub fn finish(self) -> Adjacency<T, K> {
        let mut len = 0;
        let mut chunks = Vec::with_capacity(self.chunks.len());
        for (chunk, cursors) in self
            .chunks
            .into_iter()
            .zip(self.cursors.chunks(CHUNK_NODES))
        {
            let filled = cursors
                .iter()
                .zip(&chunk.offsets[1..])
                .all(|(cursor, end)| cursor == end);
            assert!(filled, "every node receives its declared degree");
            len += chunk.items.len();
            chunks.push(chunk.seal());
        }
        Adjacency { chunks, len }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Node `v` (of `n`) holds `v % 3` entries `(v, 0..)`, keyed by their
    /// position; built by scattering in reverse node order.
    fn sample(n: usize) -> Adjacency<(u32, u32), u32> {
        let degrees: Vec<u32> = (0..n as u32).map(|v| v % 3).collect();
        let mut scatter = Scatter::new(degrees);
        for v in (0..n).rev() {
            for i in 0..(v % 3) as u32 {
                scatter.put(v, (v as u32, i), i);
            }
        }
        scatter.finish()
    }

    #[test]
    fn scatter_places_every_run_and_past_the_end_is_empty() {
        let n = 3 * CHUNK_NODES + 17;
        let adj = sample(n);
        assert_eq!(adj.chunk_count(), 4);
        assert_eq!(adj.len(), (0..n).map(|v| v % 3).sum::<usize>());
        for v in 0..n {
            let want: Vec<(u32, u32)> = (0..(v % 3) as u32).map(|i| (v as u32, i)).collect();
            assert_eq!(adj.items(v), &want[..], "node {v}");
            assert_eq!(adj.run(v).1, &(0..(v % 3) as u32).collect::<Vec<_>>()[..]);
        }
        assert!(adj.items(n).is_empty());
        assert!(adj.items(10 * CHUNK_NODES).is_empty());
        assert_eq!(adj.max_degree(), 2);
    }

    #[test]
    fn splice_shares_clean_chunks_and_rebuilds_dirty_ones() {
        let n = 3 * CHUNK_NODES;
        let old = sample(n);
        // Empty the second node of chunk 1 (two entries) and give a node
        // past the end one entry.
        let far = 5 * CHUNK_NODES + 3;
        let changed = [CHUNK_NODES + 1, far];
        let new = old.splice(&changed, None, |node, items, keys, writer| {
            if node == far {
                assert!(items.is_empty() && keys.is_empty());
                writer.push((9, 9), 99);
                assert_eq!(writer.run_len(), 1);
            }
        });
        assert_eq!(new.chunk_count(), 6);
        assert!(new.shares_chunk(&old, 0));
        assert!(!new.shares_chunk(&old, 1));
        assert!(new.shares_chunk(&old, 2));
        assert!(new.items(CHUNK_NODES + 1).is_empty());
        assert_eq!(new.items(CHUNK_NODES + 2), old.items(CHUNK_NODES + 2));
        assert_eq!(new.run(far), (&[(9, 9)][..], &[99][..]));
        assert_eq!(new.len(), old.len() - 2 + 1);

        // Undoing both changes gives back an equal adjacency, even though
        // it now holds three trailing empty chunks.
        let undone = new.splice(&changed, None, |node, _, _, writer| {
            if node == CHUNK_NODES + 1 {
                writer.push((node as u32, 0), 0);
                writer.push((node as u32, 1), 1);
            }
        });
        assert_eq!(undone, old);
        assert_ne!(new, old);
    }

    #[test]
    fn rekey_maps_every_kept_key_and_copies_every_chunk() {
        let old = sample(2 * CHUNK_NODES);
        let double = |key: u32| key * 2;
        let new = old.splice(&[], Some(&double), |_, _, _, _| unreachable!());
        for v in 0..2 * CHUNK_NODES {
            assert_eq!(new.items(v), old.items(v));
            let want: Vec<u32> = old.run(v).1.iter().map(|&k| k * 2).collect();
            assert_eq!(new.run(v).1, &want[..]);
        }
        assert!(!new.shares_chunk(&old, 0) && !new.shares_chunk(&old, 1));
    }

    #[test]
    #[should_panic(expected = "declared degree")]
    fn scatter_rejects_an_overfull_run() {
        let mut scatter: Scatter<u32> = Scatter::new(vec![1, 0]);
        scatter.put(0, 1, ());
        scatter.put(0, 2, ());
    }

    #[test]
    #[should_panic(expected = "declared degree")]
    fn scatter_rejects_an_underfull_run() {
        let scatter: Scatter<u32> = Scatter::new(vec![0, 2]);
        scatter.finish();
    }
}
