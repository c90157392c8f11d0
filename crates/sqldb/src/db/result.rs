//! What a statement returns ([`ResultSet`]) and the database's cumulative
//! counters ([`DbStats`]).

use crate::storage::spill::Row;
use crate::value::Value;

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    columns: Vec<String>,
    rows: Vec<Row>,
    /// Rows inserted/deleted for DML; 0 for queries and DDL.
    affected: usize,
}

impl ResultSet {
    pub(crate) fn dml(affected: usize) -> Self {
        ResultSet { columns: Vec::new(), rows: Vec::new(), affected }
    }

    /// The rows a query (or `EXPLAIN`) produced.
    pub(super) fn query(columns: Vec<String>, rows: Vec<Row>) -> Self {
        ResultSet { columns, rows, affected: 0 }
    }

    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    pub fn affected(&self) -> usize {
        self.affected
    }

    /// Single scalar convenience accessor (first column of first row).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as an aligned text table (for examples and the CLI).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() && cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", cell, w = widths.get(i).copied().unwrap_or(0)));
            }
            out.push('\n');
        }
        out
    }
}

/// What opening a durable database did (all zero for an in-memory one, and
/// for a fresh directory but the time).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Committed WAL frames beyond the checkpoint image.
    pub frames: u64,
    /// Logged ops replayed into memory.
    pub ops_applied: u64,
    /// Wall time of the open: image, log scan and replay.
    pub ms: f64,
}

/// Execution statistics, cumulative over the database lifetime.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DbStats {
    pub statements_executed: u64,
    pub rows_returned: u64,
    pub spill_files: u64,
    pub spill_bytes: u64,
    /// High-water mark of the memory ledger in bytes.
    pub peak_memory_bytes: usize,
    /// Bytes this handle appended to the write-ahead log (0 in memory).
    pub wal_bytes: u64,
    /// Fsyncs of the write-ahead log this handle did (0 in memory).
    pub wal_fsyncs: u64,
    /// The recovery that opened this handle.
    pub recovery: RecoveryStats,
}
