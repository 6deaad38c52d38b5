//! The database catalog: tables, indexes, tablespaces and their mapping to SAN volumes.
//!
//! Section 3.1.2 explains how the APG bridges the two layers: the database
//! configuration maps each tablespace to SAN storage either through a file system on a
//! volume (System Managed Storage) or a raw volume (Database Managed Storage); each
//! operator touches tables, tables belong to tablespaces, and tablespaces resolve to
//! volumes — so every operator can be mapped to the SAN components it depends on.
//!
//! The catalog also carries the *data properties* (row counts, average row widths,
//! basic selectivity statistics) that both the optimizer's statistics snapshot and the
//! executor's "actual" record counts derive from. Bulk DML faults mutate these
//! properties, which is how scenarios 3 and 4 change record counts (and possibly plans).

use std::collections::BTreeMap;

use crate::{DbError, Result};

/// How a tablespace is bound to SAN storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// System Managed Storage: a file system created on a SAN volume.
    SystemManaged,
    /// Database Managed Storage: a raw SAN volume managed by the database.
    DatabaseManaged,
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageKind::SystemManaged => f.write_str("SMS"),
            StorageKind::DatabaseManaged => f.write_str("DMS"),
        }
    }
}

/// A tablespace and the SAN volume backing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tablespace {
    /// Tablespace name.
    pub name: String,
    /// Name of the SAN volume backing the tablespace.
    pub volume: String,
    /// SMS or DMS binding.
    pub storage: StorageKind,
}

/// A table and its data properties.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Owning tablespace.
    pub tablespace: String,
    /// Current number of rows.
    pub row_count: u64,
    /// Average row width in bytes.
    pub avg_row_bytes: u32,
    /// Fraction of the table that matches a "typical" predicate of the workload; bulk
    /// DML faults change it to alter intermediate result sizes without re-deriving real
    /// value distributions.
    pub predicate_selectivity: f64,
    /// Physical clustering factor in `[0, 1]`: 1 means index order matches physical
    /// order (cheap index scans), 0 means fully scattered.
    pub clustering: f64,
}

impl Table {
    /// Number of 8 KB heap pages the table occupies.
    pub fn pages(&self) -> u64 {
        let bytes = self.row_count * self.avg_row_bytes as u64;
        (bytes / 8192).max(1)
    }
}

/// A secondary index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Index {
    /// Index name.
    pub name: String,
    /// Indexed table.
    pub table: String,
    /// Indexed column (informational).
    pub column: String,
    /// Whether the index enforces uniqueness.
    pub unique: bool,
}

/// A snapshot of the statistics the optimizer planned with (per table: row count and
/// selectivity). Plans remember the snapshot so estimated record counts stay frozen at
/// planning time even as the live catalog changes — exactly the drift module CR detects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    rows: BTreeMap<String, u64>,
    selectivity: BTreeMap<String, f64>,
}

impl StatsSnapshot {
    /// Estimated row count of a table (0 if the table was unknown at snapshot time).
    pub fn row_count(&self, table: &str) -> u64 {
        self.rows.get(table).copied().unwrap_or(0)
    }

    /// Estimated predicate selectivity of a table (1.0 if unknown).
    pub fn selectivity(&self, table: &str) -> f64 {
        self.selectivity.get(table).copied().unwrap_or(1.0)
    }
}

/// The catalog: tables, indexes and tablespaces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
    indexes: BTreeMap<String, Index>,
    tablespaces: BTreeMap<String, Tablespace>,
    /// Definitions of dropped indexes, keyed by name — the remediation planner
    /// reads these to propose recreating an index a fault (or an operator)
    /// dropped. Re-adding an index with [`Catalog::add_index`] clears its
    /// tombstone.
    dropped_indexes: BTreeMap<String, Index>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a tablespace.
    ///
    /// # Errors
    /// Fails if a tablespace with the same name exists.
    pub fn add_tablespace(&mut self, ts: Tablespace) -> Result<()> {
        if self.tablespaces.contains_key(&ts.name) {
            return Err(DbError::DuplicateObject(ts.name));
        }
        self.tablespaces.insert(ts.name.clone(), ts);
        Ok(())
    }

    /// Adds a table.
    ///
    /// # Errors
    /// Fails if the table exists already or its tablespace is unknown.
    pub fn add_table(&mut self, table: Table) -> Result<()> {
        if self.tables.contains_key(&table.name) {
            return Err(DbError::DuplicateObject(table.name));
        }
        if !self.tablespaces.contains_key(&table.tablespace) {
            return Err(DbError::UnknownObject(table.tablespace));
        }
        self.tables.insert(table.name.clone(), table);
        Ok(())
    }

    /// Adds an index.
    ///
    /// # Errors
    /// Fails if the index exists already or its table is unknown.
    pub fn add_index(&mut self, index: Index) -> Result<()> {
        if self.indexes.contains_key(&index.name) {
            return Err(DbError::DuplicateObject(index.name));
        }
        if !self.tables.contains_key(&index.table) {
            return Err(DbError::UnknownObject(index.table));
        }
        self.dropped_indexes.remove(&index.name);
        self.indexes.insert(index.name.clone(), index);
        Ok(())
    }

    /// Drops an index (used by the index-drop fault and module PD's analysis). The
    /// dropped definition is retained as a tombstone (see
    /// [`Catalog::dropped_index`]) so a recreate-index remediation can restore it.
    ///
    /// # Errors
    /// Fails if the index does not exist.
    pub fn drop_index(&mut self, name: &str) -> Result<Index> {
        let index = self.indexes.remove(name).ok_or_else(|| DbError::UnknownObject(name.to_string()))?;
        self.dropped_indexes.insert(name.to_string(), index.clone());
        Ok(index)
    }

    /// The retained definition of a dropped index, if one was dropped under this
    /// name (and not since re-added).
    pub fn dropped_index(&self, name: &str) -> Option<&Index> {
        self.dropped_indexes.get(name)
    }

    /// Names of every dropped index whose definition is still retained.
    pub fn dropped_index_names(&self) -> Vec<String> {
        self.dropped_indexes.keys().cloned().collect()
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// An index by name.
    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.get(name)
    }

    /// Whether any index exists on the given table.
    pub fn has_index_on(&self, table: &str) -> bool {
        self.indexes.values().any(|i| i.table == table)
    }

    /// A tablespace by name.
    pub fn tablespace(&self, name: &str) -> Option<&Tablespace> {
        self.tablespaces.get(name)
    }

    /// All table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// All index names.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.keys().cloned().collect()
    }

    /// All tablespace names.
    pub fn tablespace_names(&self) -> Vec<String> {
        self.tablespaces.keys().cloned().collect()
    }

    /// Re-points a tablespace at a different volume (the what-if "move tablespace"
    /// change). Tables, indexes and dropped-index tombstones are untouched.
    ///
    /// # Errors
    /// Fails if the tablespace does not exist.
    pub fn move_tablespace(&mut self, name: &str, to_volume: &str) -> Result<()> {
        let ts = self.tablespaces.get_mut(name).ok_or_else(|| DbError::UnknownObject(name.to_string()))?;
        ts.volume = to_volume.to_string();
        Ok(())
    }

    /// The SAN volume a table's data lives on (via its tablespace).
    pub fn volume_of_table(&self, table: &str) -> Option<String> {
        let t = self.tables.get(table)?;
        self.tablespaces.get(&t.tablespace).map(|ts| ts.volume.clone())
    }

    /// Every table stored (via its tablespace) on the given volume.
    pub fn tables_on_volume(&self, volume: &str) -> Vec<String> {
        self.tables
            .values()
            .filter(|t| self.tablespaces.get(&t.tablespace).map(|ts| ts.volume == volume).unwrap_or(false))
            .map(|t| t.name.clone())
            .collect()
    }

    /// Takes a statistics snapshot of the current data properties (what ANALYZE would
    /// capture and the optimizer would plan with).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            rows: self.tables.values().map(|t| (t.name.clone(), t.row_count)).collect(),
            selectivity: self.tables.values().map(|t| (t.name.clone(), t.predicate_selectivity)).collect(),
        }
    }

    /// Applies a bulk data-property change to a table: scales its row count and replaces
    /// its predicate selectivity. Returns the table's new row count.
    ///
    /// # Errors
    /// Fails if the table does not exist or parameters are out of range.
    pub fn apply_bulk_dml(&mut self, table: &str, row_factor: f64, new_selectivity: f64) -> Result<u64> {
        if row_factor < 0.0 || !(0.0..=1.0).contains(&new_selectivity) {
            return Err(DbError::InvalidParameter("row factor must be >= 0 and selectivity in [0, 1]"));
        }
        let t = self.tables.get_mut(table).ok_or_else(|| DbError::UnknownObject(table.to_string()))?;
        t.row_count = ((t.row_count as f64) * row_factor).round() as u64;
        t.predicate_selectivity = new_selectivity;
        Ok(t.row_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_tablespace(Tablespace {
            name: "ts_a".into(),
            volume: "V1".into(),
            storage: StorageKind::SystemManaged,
        })
        .unwrap();
        c.add_tablespace(Tablespace {
            name: "ts_b".into(),
            volume: "V2".into(),
            storage: StorageKind::DatabaseManaged,
        })
        .unwrap();
        c.add_table(Table {
            name: "orders".into(),
            tablespace: "ts_a".into(),
            row_count: 1_000_000,
            avg_row_bytes: 120,
            predicate_selectivity: 0.1,
            clustering: 0.8,
        })
        .unwrap();
        c.add_table(Table {
            name: "customer".into(),
            tablespace: "ts_b".into(),
            row_count: 150_000,
            avg_row_bytes: 180,
            predicate_selectivity: 0.2,
            clustering: 0.9,
        })
        .unwrap();
        c.add_index(Index {
            name: "orders_pk".into(),
            table: "orders".into(),
            column: "o_orderkey".into(),
            unique: true,
        })
        .unwrap();
        c
    }

    #[test]
    fn referential_integrity() {
        let mut c = small_catalog();
        assert!(matches!(
            c.add_table(Table {
                name: "lineitem".into(),
                tablespace: "missing".into(),
                row_count: 1,
                avg_row_bytes: 1,
                predicate_selectivity: 1.0,
                clustering: 1.0,
            }),
            Err(DbError::UnknownObject(_))
        ));
        assert!(matches!(
            c.add_index(Index {
                name: "x".into(),
                table: "missing".into(),
                column: "c".into(),
                unique: false
            }),
            Err(DbError::UnknownObject(_))
        ));
        assert!(matches!(
            c.add_tablespace(Tablespace {
                name: "ts_a".into(),
                volume: "V9".into(),
                storage: StorageKind::SystemManaged
            }),
            Err(DbError::DuplicateObject(_))
        ));
        assert!(matches!(
            c.add_table(Table {
                name: "orders".into(),
                tablespace: "ts_a".into(),
                row_count: 1,
                avg_row_bytes: 1,
                predicate_selectivity: 1.0,
                clustering: 1.0,
            }),
            Err(DbError::DuplicateObject(_))
        ));
    }

    #[test]
    fn operator_to_volume_mapping() {
        let c = small_catalog();
        assert_eq!(c.volume_of_table("orders").unwrap(), "V1");
        assert_eq!(c.volume_of_table("customer").unwrap(), "V2");
        assert_eq!(c.volume_of_table("missing"), None);
        assert_eq!(c.tables_on_volume("V1"), vec!["orders"]);
        assert_eq!(c.tables_on_volume("V2"), vec!["customer"]);
        assert!(c.tables_on_volume("V9").is_empty());
    }

    #[test]
    fn pages_are_derived_from_rows_and_width() {
        let c = small_catalog();
        let orders = c.table("orders").unwrap();
        assert_eq!(orders.pages(), 1_000_000 * 120 / 8192);
        // Tiny tables occupy at least one page.
        let tiny = Table {
            name: "region".into(),
            tablespace: "ts_a".into(),
            row_count: 5,
            avg_row_bytes: 100,
            predicate_selectivity: 1.0,
            clustering: 1.0,
        };
        assert_eq!(tiny.pages(), 1);
    }

    #[test]
    fn snapshot_freezes_stats() {
        let mut c = small_catalog();
        let snap = c.snapshot();
        c.apply_bulk_dml("orders", 3.0, 0.6).unwrap();
        assert_eq!(snap.row_count("orders"), 1_000_000);
        assert_eq!(c.table("orders").unwrap().row_count, 3_000_000);
        assert_eq!(snap.selectivity("orders"), 0.1);
        assert_eq!(c.table("orders").unwrap().predicate_selectivity, 0.6);
        // Unknown tables degrade gracefully.
        assert_eq!(snap.row_count("nope"), 0);
        assert_eq!(snap.selectivity("nope"), 1.0);
    }

    #[test]
    fn bulk_dml_validation() {
        let mut c = small_catalog();
        assert!(c.apply_bulk_dml("missing", 2.0, 0.5).is_err());
        assert!(c.apply_bulk_dml("orders", -1.0, 0.5).is_err());
        assert!(c.apply_bulk_dml("orders", 1.0, 1.5).is_err());
        assert_eq!(c.apply_bulk_dml("orders", 0.5, 0.05).unwrap(), 500_000);
    }

    #[test]
    fn index_lifecycle() {
        let mut c = small_catalog();
        assert!(c.has_index_on("orders"));
        assert!(!c.has_index_on("customer"));
        let dropped = c.drop_index("orders_pk").unwrap();
        assert_eq!(dropped.table, "orders");
        assert!(!c.has_index_on("orders"));
        assert!(c.drop_index("orders_pk").is_err());
        assert!(c.index("orders_pk").is_none());
        // The dropped definition is retained as a tombstone until re-added.
        assert_eq!(c.dropped_index("orders_pk").unwrap().column, "o_orderkey");
        assert_eq!(c.dropped_index_names(), vec!["orders_pk"]);
        let restored = c.dropped_index("orders_pk").unwrap().clone();
        c.add_index(restored).unwrap();
        assert!(c.has_index_on("orders"));
        assert!(c.dropped_index("orders_pk").is_none());
    }

    #[test]
    fn storage_kind_display() {
        assert_eq!(StorageKind::SystemManaged.to_string(), "SMS");
        assert_eq!(StorageKind::DatabaseManaged.to_string(), "DMS");
    }
}
