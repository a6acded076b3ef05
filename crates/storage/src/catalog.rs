//! A named collection of tables.

use crate::error::StorageError;
use crate::table::Table;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The source of catalog stamps: every stamp handed out in this process is
/// distinct. `Relaxed` suffices: a stamp publishes no other data, and
/// `fetch_add` alone keeps stamps distinct.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// The catalog maps table names to tables.
///
/// Iteration order is deterministic (sorted by name) so experiments and
/// examples print stable output.
///
/// Every catalog carries a [stamp](Catalog::stamp): two catalogs with the
/// same stamp hold the same tables, so anything derived from one (a
/// compiled SQL statement, its admission footprint) is valid for the other.
#[derive(Clone, Debug)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    stamp: u64,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog {
            tables: BTreeMap::new(),
            stamp: fresh_stamp(),
        }
    }
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers (or replaces) a table under its own name. The catalog's
    /// only mutator: it takes a fresh stamp.
    pub fn register(&mut self, table: Table) {
        self.tables.insert(table.name().to_string(), table);
        self.stamp = fresh_stamp();
    }

    /// The catalog's stamp, unique to its contents within the process: a
    /// new catalog and every [`register`](Catalog::register) take a fresh
    /// one, and a clone keeps its original's.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Looks up a table by name.
    pub fn table(&self, name: &str) -> Result<&Table, StorageError> {
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Schema introspection for every table, sorted by table name — the
    /// catalog view a SQL binder (or a `DESCRIBE`-style shell command)
    /// consumes.
    pub fn describe(&self) -> Vec<crate::table::TableInfo> {
        self.tables.values().map(|t| t.describe()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        assert!(cat.table_names().is_empty());
        cat.register(Table::new("b", vec![Column::from_i32("x", vec![1])]).unwrap());
        cat.register(Table::new("a", vec![Column::from_i32("y", vec![1, 2])]).unwrap());
        assert_eq!(cat.table_names(), vec!["a", "b"]);
        assert_eq!(cat.table("a").unwrap().row_count(), 2);
        assert!(cat.table("c").is_err());
    }

    #[test]
    fn describe_lists_tables_sorted() {
        let mut cat = Catalog::new();
        cat.register(Table::new("b", vec![Column::from_i32("x", vec![1])]).unwrap());
        cat.register(Table::new("a", vec![Column::from_i64("y", vec![1, 2])]).unwrap());
        let infos = cat.describe();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "a");
        assert_eq!(infos[0].rows, 2);
        assert_eq!(infos[0].columns[0].name, "y");
        assert_eq!(infos[1].name, "b");
        assert_eq!(infos[1].bytes, 4);
    }

    #[test]
    fn register_replaces() {
        let mut cat = Catalog::new();
        cat.register(Table::new("t", vec![Column::from_i32("x", vec![1])]).unwrap());
        cat.register(Table::new("t", vec![Column::from_i32("x", vec![1, 2, 3])]).unwrap());
        assert_eq!(cat.table("t").unwrap().row_count(), 3);
    }

    #[test]
    fn stamps_follow_the_contents() {
        let a = Catalog::new();
        let b = Catalog::default();
        assert_ne!(a.stamp(), b.stamp(), "fresh catalogs");
        let mut c = a.clone();
        assert_eq!(c.stamp(), a.stamp(), "a clone keeps its stamp");
        c.register(Table::new("t", vec![Column::from_i32("x", vec![1])]).unwrap());
        assert_ne!(c.stamp(), a.stamp(), "register takes a fresh stamp");
        let before = c.stamp();
        c.register(Table::new("t", vec![Column::from_i32("x", vec![1])]).unwrap());
        assert_ne!(c.stamp(), before, "even when it replaces a table");
    }
}
