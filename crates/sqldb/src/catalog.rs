//! Table catalog: name → [`Table`] with case-insensitive lookup.
//!
//! Tables store their rows in chunked columnar form (see [`crate::table`]);
//! dropping a table releases its budget charge immediately even when
//! outstanding snapshots keep the chunk data itself alive.

use std::collections::HashMap;

use crate::ast::DataType;
use crate::error::{Error, Result};
use crate::storage::budget::MemoryBudget;
use crate::table::Table;

/// Owns all base tables of a database.
#[derive(Debug, Default)]
pub struct Catalog {
    /// Keyed by lowercase name; `Table::name` keeps the original casing.
    tables: HashMap<String, Table>,
}

impl Catalog {
    pub fn new() -> Self {
        Catalog { tables: HashMap::new() }
    }

    /// Create a table. Returns `true` if a table was actually created,
    /// `false` for an `IF NOT EXISTS` no-op — the WAL only logs statements
    /// that changed something.
    pub fn create_table(
        &mut self,
        name: &str,
        columns: Vec<(String, DataType)>,
        if_not_exists: bool,
        budget: MemoryBudget,
    ) -> Result<bool> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(Error::Catalog(format!("table `{name}` already exists")));
        }
        // Reject duplicate column names up front.
        for (i, (c, _)) in columns.iter().enumerate() {
            if columns[..i].iter().any(|(c2, _)| c2.eq_ignore_ascii_case(c)) {
                return Err(Error::Catalog(format!("duplicate column `{c}` in table `{name}`")));
            }
        }
        if columns.is_empty() {
            return Err(Error::Catalog(format!("table `{name}` must have at least one column")));
        }
        self.tables.insert(key, Table::new(name, columns, budget));
        Ok(true)
    }

    /// Drop a table, returning it (`None` for an `IF EXISTS` no-op).
    /// Letting the returned [`Table`] drop frees its budget charge (RAII
    /// reservation) even while snapshots keep the chunk data alive; the
    /// durable path instead keeps it alive until the WAL record commits so
    /// a failed commit can restore it via [`Catalog::put_table`].
    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<Option<Table>> {
        let key = name.to_ascii_lowercase();
        match self.tables.remove(&key) {
            Some(t) => Ok(Some(t)),
            None if if_exists => Ok(None),
            None => Err(Error::Catalog(format!("no such table `{name}`"))),
        }
    }

    /// Re-insert a table previously removed with [`Catalog::drop_table`]
    /// (WAL rollback) or recovered from a checkpoint.
    pub fn put_table(&mut self, table: Table) {
        self.tables.insert(table.name().to_ascii_lowercase(), table);
    }

    pub fn get(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::Catalog(format!("no such table `{name}`")))
    }

    pub fn get_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::Catalog(format!("no such table `{name}`")))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&name.to_ascii_lowercase())
    }

    /// Table names in arbitrary order (original casing).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name().to_string()).collect()
    }

    /// All tables sorted by name — checkpoints iterate this so the bytes
    /// they write are deterministic despite the hash map underneath.
    pub fn tables_sorted(&self) -> Vec<&Table> {
        let mut ts: Vec<&Table> = self.tables.values().collect();
        ts.sort_by(|a, b| a.name().cmp(b.name()));
        ts
    }

    /// Total bytes of base-table storage held against the budget.
    pub fn total_bytes(&self) -> usize {
        self.tables.values().map(Table::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cols() -> Vec<(String, DataType)> {
        vec![("s".into(), DataType::Integer)]
    }

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::new();
        let b = MemoryBudget::unlimited();
        c.create_table("T0", cols(), false, b.clone()).unwrap();
        assert!(c.contains("t0"), "case-insensitive");
        assert_eq!(c.get("T0").unwrap().name(), "T0");
        assert!(c.create_table("t0", cols(), false, b.clone()).is_err());
        c.create_table("t0", cols(), true, b.clone()).unwrap(); // IF NOT EXISTS
        c.drop_table("T0", false).unwrap();
        assert!(c.get("T0").is_err());
        assert!(c.drop_table("T0", false).is_err());
        c.drop_table("T0", true).unwrap();
    }

    #[test]
    fn duplicate_and_empty_columns_rejected() {
        let mut c = Catalog::new();
        let b = MemoryBudget::unlimited();
        let dup = vec![("x".into(), DataType::Integer), ("X".into(), DataType::Double)];
        assert!(c.create_table("t", dup, false, b.clone()).is_err());
        assert!(c.create_table("t", vec![], false, b).is_err());
    }

    #[test]
    fn drop_releases_budget() {
        let mut c = Catalog::new();
        let b = MemoryBudget::unlimited();
        c.create_table("t", cols(), false, b.clone()).unwrap();
        c.get_mut("t")
            .unwrap()
            .load_rows(vec![vec![crate::value::Value::Int(1)]])
            .unwrap();
        assert!(b.used() > 0);
        c.drop_table("t", false).unwrap();
        assert_eq!(b.used(), 0);
    }
}
