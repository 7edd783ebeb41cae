//! Checkpoint serialization of a compacted [`CsrGraph`] epoch.
//!
//! A checkpoint is one self-contained file:
//!
//! ```text
//! magic "GPSSNAP1" (8)
//! version: u32
//! epoch: u64
//! node_count: u64
//! edge_count: u64
//! label_count: u64
//! arrays_offset: u64            // absolute offset of the packed region
//! node names  (len-prefixed strings, node-id order)
//! label names (len-prefixed strings, label-id order)
//! zero padding to 8-byte alignment
//! fwd_offsets  : (n + 1) × u32  // packed arrays, flat CSR layout
//! fwd_entries  : m × (label u32, node u32)
//! fwd_edge_ids : m × u32
//! rev_offsets  : (n + 1) × u32
//! rev_entries  : m × (label u32, node u32)
//! rev_edge_ids : m × u32
//! crc32: u32                    // over everything before it
//! ```
//!
//! The packed region starts 8-byte aligned at a header-recorded offset and
//! holds the flat CSR arrays (little-endian `u32`s) of the snapshot's
//! chunked adjacency: offsets accumulated over the nodes' runs, entries in
//! node order, and each entry's public edge id.  The decoder checks that
//! each direction's ids are a permutation of `0..m` naming the same
//! `(source, label, target)` on both sides, then scatters the arrays back
//! into chunks keyed by those ids.  The name→id map and the label
//! interner's reverse index are rebuilt on load (first-bearer semantics,
//! identical to a from-scratch CSR build).
//!
//! Encoding is deterministic — byte-identical snapshots for byte-identical
//! graphs — which is what the crash-injection suite leans on to assert
//! recovered state equals a pre- or post-publish epoch exactly.

use crate::codec::{crc32, put_str, put_u32, put_u64, Cursor};
use crate::error::StoreError;
use gps_graph::csr::CsrEntry;
use gps_graph::{CsrAdjacency, CsrGraph, LabelId, LabelInterner, NodeId, Scatter};

/// First bytes of every checkpoint file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"GPSSNAP1";

const SNAPSHOT_VERSION: u32 = 1;

/// Serializes a snapshot into the checkpoint format.
pub fn encode_snapshot(csr: &CsrGraph) -> Vec<u8> {
    let n = csr.node_count();
    let m = csr.edge_count();
    let mut out = Vec::with_capacity(64 + n * 16 + m * 24);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_u32(&mut out, SNAPSHOT_VERSION);
    put_u64(&mut out, csr.epoch());
    put_u64(&mut out, n as u64);
    put_u64(&mut out, m as u64);
    put_u64(&mut out, csr.label_count() as u64);
    let arrays_offset_pos = out.len();
    put_u64(&mut out, 0); // patched below once the names are written
    for node in csr.nodes() {
        put_str(&mut out, csr.node_name(node));
    }
    for (_, name) in csr.labels().iter() {
        put_str(&mut out, name);
    }
    while out.len() % 8 != 0 {
        out.push(0);
    }
    let arrays_offset = out.len() as u64;
    out[arrays_offset_pos..arrays_offset_pos + 8].copy_from_slice(&arrays_offset.to_le_bytes());
    let ids = csr.edge_ids_by_key();
    put_direction(&mut out, n, csr.forward(), &ids);
    put_direction(&mut out, n, csr.reverse(), &ids);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    out
}

/// One direction's flat arrays over `n` nodes: offsets, entries, edge ids
/// (`ids` maps keys to ids).
fn put_direction(out: &mut Vec<u8>, n: usize, adjacency: &CsrAdjacency, ids: &[u32]) {
    let mut offset = 0u32;
    put_u32(out, offset);
    for node in 0..n {
        offset += adjacency.items(node).len() as u32;
        put_u32(out, offset);
    }
    for node in 0..n {
        for entry in adjacency.items(node) {
            put_u32(out, entry.label.raw());
            put_u32(out, entry.node.raw());
        }
    }
    for node in 0..n {
        for &key in adjacency.run(node).1 {
            put_u32(out, ids[key as usize]);
        }
    }
}

fn corrupt(cursor: &Cursor<'_>, reason: &str) -> StoreError {
    StoreError::corrupt(cursor.pos() as u64, reason)
}

fn read_offsets(
    cursor: &mut Cursor<'_>,
    n: usize,
    m: usize,
    side: &str,
) -> Result<Vec<u32>, StoreError> {
    let mut offsets = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        offsets.push(
            cursor
                .u32()
                .ok_or_else(|| corrupt(cursor, &format!("truncated {side} offsets")))?,
        );
    }
    if offsets.first() != Some(&0)
        || offsets.last() != Some(&(m as u32))
        || offsets.windows(2).any(|w| w[0] > w[1])
    {
        return Err(corrupt(cursor, &format!("inconsistent {side} offsets")));
    }
    Ok(offsets)
}

/// A slot of the edge table [`read_direction`] fills: no edge yet.
const VACANT: [u32; 3] = [u32::MAX; 3];

/// Reads one direction's flat arrays into a keyed adjacency, validating
/// them against `edges`, the `(source, label, target)` of every edge id.
/// The forward direction fills the table, so its ids must be distinct and
/// below `m`: a permutation of `0..m`.  The reverse direction must name,
/// under each id, that same edge — and each one once, as it empties the
/// slots it matches.
fn read_direction(
    cursor: &mut Cursor<'_>,
    (n, m, labels): (usize, usize, usize),
    edges: &mut [[u32; 3]],
    reverse: bool,
) -> Result<CsrAdjacency, StoreError> {
    let side = if reverse { "reverse" } else { "forward" };
    let offsets = read_offsets(cursor, n, m, side)?;
    let mut ids = cursor.clone();
    ids.seek_to(cursor.pos() + m * 8)
        .ok_or_else(|| corrupt(cursor, &format!("truncated {side} edge ids")))?;
    let truncated = |at: &Cursor<'_>, what: &str| corrupt(at, &format!("truncated {side} {what}"));
    let mut scatter = Scatter::new(offsets.windows(2).map(|w| w[1] - w[0]).collect());
    for (node, span) in offsets.windows(2).enumerate() {
        for _ in span[0]..span[1] {
            let label = cursor.u32().ok_or_else(|| truncated(cursor, "entries"))?;
            let other = cursor.u32().ok_or_else(|| truncated(cursor, "entries"))?;
            if label as usize >= labels || other as usize >= n {
                return Err(corrupt(cursor, &format!("{side} entry out of range")));
            }
            let id = ids.u32().ok_or_else(|| truncated(&ids, "edge ids"))?;
            let slot = edges
                .get_mut(id as usize)
                .ok_or_else(|| corrupt(&ids, &format!("{side} edge id out of range")))?;
            let (source, target) = if reverse {
                (other, node as u32)
            } else {
                (node as u32, other)
            };
            let edge = [source, label, target];
            if reverse && *slot != edge {
                return Err(corrupt(
                    &ids,
                    "reverse adjacency is not the forward transpose",
                ));
            } else if !reverse && *slot != VACANT {
                return Err(corrupt(&ids, "duplicate forward edge id"));
            }
            *slot = if reverse { VACANT } else { edge };
            let entry = CsrEntry {
                label: LabelId::new(label),
                node: NodeId::new(other),
            };
            scatter.put(node, entry, id);
        }
    }
    cursor
        .seek_to(ids.pos())
        .expect("the ids follow the entries");
    Ok(scatter.finish())
}

/// Deserializes a checkpoint, validating the checksum and the structural
/// invariants of the packed arrays before rebuilding the snapshot.
pub fn decode_snapshot(bytes: &[u8]) -> Result<CsrGraph, StoreError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StoreError::corrupt(0, "bad checkpoint magic"));
    }
    let body_len = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes(bytes[body_len..].try_into().expect("four bytes"));
    if crc32(&bytes[..body_len]) != stored_crc {
        return Err(StoreError::corrupt(
            body_len as u64,
            "checkpoint checksum mismatch",
        ));
    }
    let mut cursor = Cursor::new(&bytes[..body_len]);
    cursor.take(SNAPSHOT_MAGIC.len()).expect("checked above");
    let version = cursor
        .u32()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))?;
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(&cursor, &format!("unsupported version {version}")));
    }
    let epoch = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))?;
    let n = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    let m = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    let label_count = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    let arrays_offset = cursor
        .u64()
        .ok_or_else(|| corrupt(&cursor, "truncated header"))? as usize;
    if n > u32::MAX as usize || m > u32::MAX as usize || label_count > u32::MAX as usize {
        return Err(corrupt(&cursor, "count exceeds the 32-bit id space"));
    }

    let mut node_names = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        node_names.push(
            cursor
                .string()
                .ok_or_else(|| corrupt(&cursor, "truncated node names"))?,
        );
    }
    let mut labels = LabelInterner::new();
    for _ in 0..label_count {
        let name = cursor
            .string()
            .ok_or_else(|| corrupt(&cursor, "truncated label names"))?;
        labels.intern(&name);
    }
    if labels.len() != label_count {
        return Err(corrupt(&cursor, "duplicate label names"));
    }
    cursor
        .seek_to(arrays_offset)
        .ok_or_else(|| corrupt(&cursor, "packed-array offset out of bounds"))?;

    // Validate the packed-region length before any preallocation: `n` and
    // `m` are header-supplied, so a crafted (or CRC-colliding) file could
    // otherwise request multi-gigabyte `with_capacity` calls — an abort,
    // not a typed error — before the element reads ever fail.
    let packed_len = 2 * ((n as u64 + 1) * 4 + m as u64 * 12);
    if cursor.remaining() as u64 != packed_len {
        return Err(corrupt(&cursor, "packed-array region length mismatch"));
    }

    let counts = (n, m, label_count);
    let (fwd, rev) = {
        let mut edges = vec![VACANT; m];
        let fwd = read_direction(&mut cursor, counts, &mut edges, false)?;
        (fwd, read_direction(&mut cursor, counts, &mut edges, true)?)
    };
    if !cursor.is_empty() {
        return Err(corrupt(&cursor, "trailing bytes after the packed arrays"));
    }

    Ok(CsrGraph::from_raw_parts(
        node_names, labels, fwd, rev, epoch,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_graph::{Graph, GraphBackend};

    fn sample() -> CsrGraph {
        let mut g = Graph::new();
        let a = g.add_node("N1");
        let b = g.add_node("N4");
        let c = g.add_node("C1");
        g.add_edge_by_name(a, "tram", b);
        g.add_edge_by_name(b, "cinema", c);
        g.add_edge_by_name(a, "bus", c);
        CsrGraph::from_graph(&g)
    }

    fn assert_same(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.epoch(), b.epoch());
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.label_count(), b.label_count());
        for node in a.nodes() {
            assert_eq!(a.node_name(node), b.node_name(node));
            assert_eq!(a.out(node), b.out(node));
            assert_eq!(a.inc(node), b.inc(node));
            let name = a.node_name(node);
            assert_eq!(a.node_by_name(name), b.node_by_name(name));
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let csr = sample();
        let bytes = encode_snapshot(&csr);
        let decoded = decode_snapshot(&bytes).unwrap();
        assert_same(&csr, &decoded);
        // Deterministic: re-encoding the decoded snapshot is byte-identical.
        assert_eq!(encode_snapshot(&decoded), bytes);
    }

    #[test]
    fn empty_graph_round_trips() {
        let csr = CsrGraph::from_graph(&Graph::new());
        let decoded = decode_snapshot(&encode_snapshot(&csr)).unwrap();
        assert_eq!(decoded.node_count(), 0);
        assert_eq!(decoded.edge_count(), 0);
    }

    #[test]
    fn epoch_is_preserved() {
        let csr = sample().with_epoch(17);
        let decoded = decode_snapshot(&encode_snapshot(&csr)).unwrap();
        assert_eq!(decoded.epoch(), 17);
    }

    #[test]
    fn corruption_is_rejected_not_panicked() {
        let bytes = encode_snapshot(&sample());
        assert!(matches!(
            decode_snapshot(&bytes[..bytes.len() - 1]),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(decode_snapshot(b"short").is_err());
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(matches!(
            decode_snapshot(&flipped),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn a_huge_declared_edge_count_is_rejected_before_allocating() {
        // Patch the header's edge count to u32::MAX and re-stamp the CRC:
        // the decoder must return Corrupt without attempting the ~48 GB of
        // preallocation the count implies.
        let mut bytes = encode_snapshot(&sample());
        let edge_count_at = SNAPSHOT_MAGIC.len() + 4 + 8 + 8;
        bytes[edge_count_at..edge_count_at + 8].copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
    }

    /// Re-stamps the CRC of hand-edited checkpoint bytes.
    fn restamp(bytes: &mut [u8]) {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Overwrites the `u32` at `at` and re-stamps the CRC.
    fn patch_u32(bytes: &[u8], at: usize, value: u32) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        restamp(&mut bytes);
        bytes
    }

    #[test]
    fn edge_ids_must_be_a_transposed_permutation() {
        // Two edges, a -x-> b (id 0) and b -y-> a (id 1).  The packed
        // region ends with the reverse ids before the CRC: a's incoming
        // edge (1), then b's (0).
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "y", a);
        let bytes = encode_snapshot(&CsrGraph::from_graph(&g));
        let last_rev_id = bytes.len() - 8;
        let first_rev_id = last_rev_id - 4;
        // The forward ids sit between the forward entries and the reverse
        // offsets: n + 1 = 3 offsets and 2 entries (4 words) from the start.
        let arrays_at = u64::from_le_bytes(bytes[36..44].try_into().unwrap()) as usize;
        let first_fwd_id = arrays_at + (3 + 2 * 2) * 4;
        assert!(decode_snapshot(&bytes).is_ok());
        let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        assert_eq!(
            (word(first_fwd_id), word(first_rev_id), word(last_rev_id)),
            (0, 1, 0)
        );
        for (what, crafted) in [
            ("reverse id out of range", patch_u32(&bytes, last_rev_id, 7)),
            (
                "forward id out of range",
                patch_u32(&bytes, first_fwd_id, 2),
            ),
            ("duplicate forward id", patch_u32(&bytes, first_fwd_id, 1)),
            ("duplicate reverse id", patch_u32(&bytes, last_rev_id, 1)),
            (
                "reverse ids naming the other edge",
                patch_u32(&patch_u32(&bytes, first_rev_id, 0), last_rev_id, 1),
            ),
        ] {
            assert!(
                matches!(decode_snapshot(&crafted), Err(StoreError::Corrupt { .. })),
                "{what}"
            );
        }
    }

    #[test]
    fn decoded_snapshot_serves_as_a_backend() {
        let csr = sample();
        let decoded = decode_snapshot(&encode_snapshot(&csr)).unwrap();
        let n1 = decoded.node_by_name("N1").unwrap();
        assert_eq!(GraphBackend::out_degree(&decoded, n1), 2);
        let edges: Vec<_> = GraphBackend::out_edges(&decoded, n1).collect();
        let expected: Vec<_> = GraphBackend::out_edges(&csr, n1).collect();
        assert_eq!(edges, expected, "edge ids survive the round trip");
    }
}
