//! The node-name table of a snapshot, shared across epochs.
//!
//! Nodes are never deleted, so the names of epoch `e + 1` are the names of
//! epoch `e` followed by the names of the nodes its publish added.
//! [`NodeNames`] stores them as two immutable, `Arc`-shared runs — a large
//! base and a small tail — each with the first-bearer lookup for the names
//! it introduces.  A successor table shares the base and copies only the
//! tail plus the added names; once the tail outgrows a fixed fraction of the
//! base, both fold into a new base.  Nothing shared is ever mutated, so a
//! table that is built and then dropped (an aborted publish) leaves every
//! other epoch's table untouched.

use crate::ids::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// The tail folds into the base once it would hold more than
/// `1 / FOLD_DIVISOR` of the base's names.  An extension then copies at
/// most that fraction of the table, and a fold — a full copy — happens at
/// most once per `base / FOLD_DIVISOR` added nodes, which bounds its
/// amortized cost at `FOLD_DIVISOR` name copies per added node.
const FOLD_DIVISOR: usize = 64;

/// One immutable run of consecutive node names.
#[derive(Debug, Default)]
struct Run {
    names: Vec<String>,
    /// First bearer of every name of this run that no earlier run binds.
    index: HashMap<String, NodeId>,
}

/// Node names and their first-bearer lookup (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeNames {
    base: Arc<Run>,
    tail: Arc<Run>,
    /// Total number of names, kept inline: the snapshot's node count is
    /// read on hot paths and should cost one load.
    len: usize,
}

impl NodeNames {
    /// A table holding `names` in node-id order.
    pub(crate) fn new(names: Vec<String>) -> Self {
        let mut index = HashMap::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            index.entry(name.clone()).or_insert(NodeId::from(i));
        }
        Self {
            len: names.len(),
            base: Arc::new(Run { names, index }),
            tail: Arc::default(),
        }
    }

    /// Number of names (= nodes).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The name of `node`.
    ///
    /// # Panics
    /// Panics if `node` is not below [`len`](Self::len).
    #[inline]
    pub(crate) fn name(&self, node: NodeId) -> &str {
        let i = node.index();
        let base = &self.base.names;
        if i < base.len() {
            &base[i]
        } else {
            &self.tail.names[i - base.len()]
        }
    }

    /// The first node bearing `name`.
    pub(crate) fn get(&self, name: &str) -> Option<NodeId> {
        self.base
            .index
            .get(name)
            .or_else(|| self.tail.index.get(name))
            .copied()
    }

    /// The table of a successor epoch whose nodes `len()..` are named
    /// `added`, sharing this table's storage.
    pub(crate) fn extended(&self, added: &[String]) -> Self {
        if added.is_empty() {
            return self.clone();
        }
        let first = self.len();
        if (self.tail.names.len() + added.len()) * FOLD_DIVISOR > self.base.names.len() {
            let mut names = Vec::with_capacity(first + added.len());
            names.extend(self.base.names.iter().cloned());
            names.extend(self.tail.names.iter().cloned());
            names.extend(added.iter().cloned());
            let mut index = self.base.index.clone();
            index.extend(self.tail.index.iter().map(|(k, &v)| (k.clone(), v)));
            for (i, name) in added.iter().enumerate() {
                index.entry(name.clone()).or_insert(NodeId::from(first + i));
            }
            return Self {
                len: names.len(),
                base: Arc::new(Run { names, index }),
                tail: Arc::default(),
            };
        }
        let mut tail = Run {
            names: Vec::with_capacity(self.tail.names.len() + added.len()),
            index: self.tail.index.clone(),
        };
        tail.names.extend(self.tail.names.iter().cloned());
        for (i, name) in added.iter().enumerate() {
            tail.names.push(name.clone());
            if !self.base.index.contains_key(name) {
                tail.index
                    .entry(name.clone())
                    .or_insert(NodeId::from(first + i));
            }
        }
        Self {
            base: Arc::clone(&self.base),
            len: first + added.len(),
            tail: Arc::new(tail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn assert_table(table: &NodeNames, expected: &[&str]) {
        assert_eq!(table.len(), expected.len());
        for (i, name) in expected.iter().enumerate() {
            assert_eq!(table.name(NodeId::from(i)), *name);
            let first = expected.iter().position(|n| n == name).unwrap();
            assert_eq!(table.get(name), Some(NodeId::from(first)), "{name}");
        }
    }

    #[test]
    fn extensions_share_the_base_and_keep_first_bearers() {
        let base: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let table = NodeNames::new(base.clone());
        let next = table.extended(&names(&["v3", "new", "new"]));
        assert!(
            Arc::ptr_eq(&table.base, &next.base),
            "a small tail shares the base"
        );
        let mut expected: Vec<&str> = base.iter().map(String::as_str).collect();
        expected.extend(["v3", "new", "new"]);
        assert_table(&next, &expected);
        assert_eq!(next.get("new"), Some(NodeId::from(201usize)));
        // The predecessor sees none of the successor's names.
        assert_eq!(table.get("new"), None);
        assert_eq!(table.len(), 200);
        // An empty extension is the same table.
        let same = next.extended(&[]);
        assert!(Arc::ptr_eq(&same.tail, &next.tail));
    }

    #[test]
    fn a_long_tail_folds_into_a_new_base() {
        let table = NodeNames::new(names(&["a", "b"]));
        let next = table.extended(&names(&["c", "a"]));
        assert!(
            next.tail.names.is_empty(),
            "tail beyond 1/64 of the base folds"
        );
        assert!(!Arc::ptr_eq(&table.base, &next.base));
        assert_table(&next, &["a", "b", "c", "a"]);
        let mut chained = NodeNames::default();
        let mut expected = Vec::new();
        for i in 0..300 {
            let name = format!("n{}", i % 250);
            chained = chained.extended(std::slice::from_ref(&name));
            expected.push(name);
        }
        let expected: Vec<&str> = expected.iter().map(String::as_str).collect();
        assert_table(&chained, &expected);
    }
}
