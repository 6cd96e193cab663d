//! Shards: contiguous groups of source tables with their own catalog slice.
//!
//! A shard is the unit of parallelism and of incremental invalidation in
//! the massive-corpus setup path: the engine partitions per-(source,
//! schema) artifact work along shard boundaries, and `add_source` /
//! `remove_source` touch only the tail shard (respectively the shard the
//! victim lives in). Each shard maintains its own attribute → source-count
//! slice so per-shard statistics never require a pass over the whole
//! catalog.
//!
//! Shards are an in-memory layout detail: the catalog still serializes as
//! a flat source list, and source ids remain positional across shards.
//!
//! Tables are held behind `Arc`, so cloning a shard copies pointers, not
//! cells: a catalog snapshot and its clone share every table until one of
//! them drops it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::Table;

/// A contiguous run of source tables plus its local attribute statistics.
#[derive(Debug, Clone, Default)]
pub struct Shard {
    tables: Vec<Arc<Table>>,
    /// attribute name → number of tables *in this shard* containing it.
    attr_counts: BTreeMap<String, usize>,
}

impl Shard {
    /// An empty shard.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Number of sources in this shard.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Whether the shard holds no sources.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// The tables of this shard, in insertion order.
    pub fn tables(&self) -> impl ExactSizeIterator<Item = &Table> {
        self.tables.iter().map(|t| &**t)
    }

    /// Fetch a table by shard-local index.
    pub fn table(&self, local: usize) -> Option<&Table> {
        self.tables.get(local).map(|t| &**t)
    }

    /// Total rows across the shard's tables.
    pub fn row_count(&self) -> usize {
        self.tables().map(Table::row_count).sum()
    }

    /// Number of shard-local sources whose schema contains `attribute`.
    pub fn attribute_count(&self, attribute: &str) -> usize {
        self.attr_counts.get(attribute).copied().unwrap_or(0)
    }

    /// The shard-local attribute → source-count map (sorted by name).
    pub fn attr_counts(&self) -> &BTreeMap<String, usize> {
        &self.attr_counts
    }

    /// Append a table, updating the local statistics.
    pub(crate) fn push(&mut self, table: Table) {
        for a in table.attributes() {
            *self.attr_counts.entry(a.clone()).or_insert(0) += 1;
        }
        self.tables.push(Arc::new(table));
    }

    /// Remove the table at `local`, updating the local statistics. Later
    /// shard-local indices shift down by one. The table comes back as the
    /// shared handle: a snapshot cloned before the removal still holds it.
    pub(crate) fn remove(&mut self, local: usize) -> Arc<Table> {
        let table = self.tables.remove(local);
        for a in table.attributes() {
            if let Some(c) = self.attr_counts.get_mut(a) {
                *c -= 1;
                if *c == 0 {
                    self.attr_counts.remove(a);
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_remove_maintain_counts() {
        let mut s = Shard::new();
        assert!(s.is_empty());
        s.push(Table::new("a", ["name", "phone"]));
        s.push(Table::new("b", ["name"]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.attribute_count("name"), 2);
        assert_eq!(s.attribute_count("phone"), 1);
        assert_eq!(s.attribute_count("zzz"), 0);

        let t = s.remove(0);
        assert_eq!(t.name(), "a");
        assert_eq!(s.attribute_count("name"), 1);
        assert_eq!(s.attribute_count("phone"), 0);
        assert!(!s.attr_counts().contains_key("phone"), "zero counts drop");
        assert_eq!(s.table(0).unwrap().name(), "b");
    }

    #[test]
    fn row_count_sums_tables() {
        let mut s = Shard::new();
        let mut t = Table::new("a", ["x"]);
        t.push_raw_row(["1"]).unwrap();
        t.push_raw_row(["2"]).unwrap();
        s.push(t);
        s.push(Table::new("b", ["x"]));
        assert_eq!(s.row_count(), 2);
    }
}
