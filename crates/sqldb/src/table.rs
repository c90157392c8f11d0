//! In-memory base tables in chunked columnar layout.
//!
//! A [`Table`] stores its rows decomposed into per-column chunks of up to
//! [`CHUNK_ROWS`] rows. Each chunk column is a shared [`ColumnRef`] — the
//! same `Arc<Column>` type the vectorized executor's
//! [`RowBatch`] carries — so a batch scan
//! hands table chunks straight to the operator pipeline with **zero copy**
//! and no row→column transpose. Qymera's state tables (`T(s, r, i)`) and
//! gate tables (`G(in_s, out_s, r, i)`) both live here; the gate-application
//! hot path re-scans the state table once per gate, which is exactly the
//! access pattern this layout optimizes.
//!
//! # Snapshots and copy-on-write
//!
//! [`Table::snapshot`] returns a [`TableSnapshot`]: an `Arc` of the chunk
//! list, taken in O(1). Inserts append through [`Arc::make_mut`] at both
//! levels — the chunk list and the open tail chunk's columns — so a snapshot
//! (or any in-flight batch holding chunk columns) keeps observing the exact
//! rows that existed when it was taken while the table moves on. Sealed
//! chunks are never mutated again; only the partially filled tail chunk is
//! ever cloned, bounding the copy-on-write cost to < [`CHUNK_ROWS`] rows per
//! insert regardless of table size.
//!
//! # One append path
//!
//! Rows enter a table through [`Table::append_batch`] alone: SQL `INSERT`,
//! the bulk loader, `CREATE TABLE … AS`, WAL replay and the checkpoint image
//! all hand it a [`RowBatch`]. A column's lane is its type, so a column on
//! its declared type's lane (`Int` for `INTEGER`, `Float` for `DOUBLE`,
//! `Big` for `HUGEINT`, `Text` for `TEXT`) is stored as it is — by `Arc`
//! when it can become a chunk of its own, else copied into the open tail
//! chunk; a column on another lane is rebuilt through [`coerce`]. Every
//! chunk of a table therefore holds the same lanes.
//!
//! # Memory accounting
//!
//! Column storage charges the shared [`MemoryBudget`] through a
//! [`Reservation`]: `INTEGER`/`DOUBLE` cells cost 8 bytes/row, `HUGEINT`
//! and `TEXT` cells their [`Value::heap_bytes`]. An append reserves the whole
//! batch **once, before the table is touched**: a refusal leaves table and
//! ledger exactly as they were. Rows leave a table only with the whole
//! table, or when a rollback restores it to what it held before an append.

use std::sync::Arc;

use crate::ast::DataType;
use crate::error::{Error, Result};
use crate::exec::batch::{Column, ColumnRef, RowBatch, BATCH_SIZE};
use crate::schema::{Field, RelSchema};
use crate::storage::budget::{MemoryBudget, Reservation};
use crate::storage::spill::Row;
use crate::value::Value;

/// Rows per storage chunk. Matched to the executor's [`BATCH_SIZE`] so a
/// scan yields exactly one ready-made batch per chunk.
pub const CHUNK_ROWS: usize = BATCH_SIZE;

/// One horizontal slice of a table (≤ [`CHUNK_ROWS`] rows) in columnar
/// layout. Chunks are immutable once sealed; the tail chunk grows by
/// copy-on-write.
#[derive(Debug, Clone)]
pub struct TableChunk {
    columns: Vec<ColumnRef>,
    rows: usize,
}

impl TableChunk {
    /// The chunk's columns, in schema order. Shared with scans.
    pub fn columns(&self) -> &[ColumnRef] {
        &self.columns
    }

    /// Number of rows in this chunk.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Materialize row `i` of the chunk.
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }

    /// Bytes this chunk charges against the memory budget.
    pub fn heap_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.heap_bytes()).sum()
    }
}

/// An immutable, consistent view of a table's rows at a point in time.
/// Cloning is cheap (`Arc` of the chunk list); later inserts into the table
/// never show through an existing snapshot.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    chunks: Arc<Vec<TableChunk>>,
    rows: usize,
}

impl TableSnapshot {
    /// The snapshot's chunks, in row order.
    pub fn chunks(&self) -> &[TableChunk] {
        &self.chunks
    }

    /// Total rows across all chunks.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Materialize every row (the reference interpreter's scan, tests).
    pub fn to_rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.rows);
        for chunk in self.chunks.iter() {
            for i in 0..chunk.rows() {
                out.push(chunk.row(i));
            }
        }
        out
    }
}

/// A table's pre-statement state, captured in O(1) via the copy-on-write
/// chunk list. The durable path takes one before applying a statement so a
/// failed WAL commit can roll the in-memory table back to exactly what the
/// log (and therefore recovery) knows.
#[derive(Debug)]
pub(crate) struct TableUndo {
    chunks: Arc<Vec<TableChunk>>,
    rows: usize,
    bytes: usize,
}

impl TableUndo {
    /// The captured (pre-mutation) state as a snapshot. While a transaction
    /// holds uncommitted changes, a checkpoint serializes this committed
    /// view instead of the live table.
    pub(crate) fn snapshot(&self) -> TableSnapshot {
        TableSnapshot { chunks: Arc::clone(&self.chunks), rows: self.rows }
    }

    /// Row count of the captured state.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }
}

/// A base table: declared columns plus chunked columnar row storage.
#[derive(Debug)]
pub struct Table {
    name: String,
    columns: Vec<(String, DataType)>,
    /// Shared with snapshots; mutation goes through [`Arc::make_mut`].
    chunks: Arc<Vec<TableChunk>>,
    rows: usize,
    /// Budget charge for all chunk storage (RAII: freed on drop).
    reservation: Reservation,
}

impl Table {
    /// An empty table named `name` with the given columns, charging `budget`.
    pub fn new(name: &str, columns: Vec<(String, DataType)>, budget: MemoryBudget) -> Self {
        Table {
            name: name.to_string(),
            columns,
            chunks: Arc::new(Vec::new()),
            rows: 0,
            reservation: Reservation::empty(&budget),
        }
    }

    /// The table's name as declared (original casing).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared columns: `(name, type)` in schema order.
    pub fn columns(&self) -> &[(String, DataType)] {
        &self.columns
    }

    /// Schema qualified by the table's own name.
    pub fn schema(&self) -> RelSchema {
        RelSchema::new(
            self.columns
                .iter()
                .map(|(n, t)| Field::typed(Some(&self.name), n, *t))
                .collect(),
        )
    }

    /// Total number of rows currently stored.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Bytes this table holds against the budget.
    pub fn bytes(&self) -> usize {
        self.reservation.bytes()
    }

    /// O(1) consistent snapshot for scans (copy-on-write with inserts).
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot { chunks: Arc::clone(&self.chunks), rows: self.rows }
    }

    fn arity_error(&self, got: usize) -> Error {
        Error::Plan(format!(
            "table `{}` expects {} values, got {got}",
            self.name,
            self.columns.len()
        ))
    }

    /// `column` on the lane of declared type `ty`: itself (shared) when it
    /// already is, else rebuilt value by value through [`coerce`].
    fn conform(column: &ColumnRef, ty: DataType) -> Result<ColumnRef> {
        if column.data_type() == ty {
            return Ok(Arc::clone(column));
        }
        let values = (0..column.len()).map(|i| coerce(column.value_at(i), ty));
        Column::from_values(values).map(Arc::new)
    }

    /// Append `batch` in one atomic step, returning the rows inserted: the
    /// one way rows enter a table. Columns are brought to their declared
    /// lanes (`conform`), the whole batch is reserved with one
    /// `try_grow`, and only then is the table touched — a coercion error or
    /// a budget refusal leaves table and ledger as they were. A batch of at
    /// most [`CHUNK_ROWS`] rows that finds no open tail becomes a chunk by
    /// `Arc`, no copy; otherwise the tail is filled in place (copy-on-write
    /// only if a snapshot still holds it) and the rest is cut into chunks.
    pub fn append_batch(&mut self, batch: &RowBatch) -> Result<usize> {
        let n = batch.num_rows();
        if n == 0 {
            return Ok(0);
        }
        if batch.num_columns() != self.columns.len() {
            return Err(self.arity_error(batch.num_columns()));
        }
        let mut columns = Vec::with_capacity(self.columns.len());
        for (column, (cname, ty)) in batch.columns().iter().zip(&self.columns) {
            columns.push(Self::conform(column, *ty).map_err(in_column(cname))?);
        }
        // Rows of the batch that fill the open tail.
        let take = match self.chunks.last() {
            Some(tail) if tail.rows < CHUNK_ROWS => n.min(CHUNK_ROWS - tail.rows),
            _ => 0,
        };
        // Cut the batch: what fills the tail, then chunk-sized pieces. The
        // pieces are what the table will hold, so their bytes are its charge.
        let top_up: Vec<Column> = columns.iter().map(|c| c.slice(0..take)).collect();
        let rest: Vec<TableChunk> = if take == 0 && n <= CHUNK_ROWS {
            vec![TableChunk { columns, rows: n }]
        } else {
            (take..n)
                .step_by(CHUNK_ROWS)
                .map(|at| {
                    let end = (at + CHUNK_ROWS).min(n);
                    let cut = |c: &ColumnRef| Arc::new(c.slice(at..end));
                    TableChunk { columns: columns.iter().map(cut).collect(), rows: end - at }
                })
                .collect()
        };
        let bytes = top_up.iter().map(Column::heap_bytes).sum::<usize>()
            + rest.iter().map(TableChunk::heap_bytes).sum::<usize>();
        if !self.reservation.try_grow(bytes) {
            return Err(Error::OutOfMemory {
                requested: bytes,
                budget: self.reservation.budget().limit(),
            });
        }
        let chunks = Arc::make_mut(&mut self.chunks);
        if take > 0 {
            let tail = chunks.last_mut().expect("rows were taken for a tail");
            for (dst, src) in tail.columns.iter_mut().zip(top_up) {
                match (Arc::make_mut(dst), src) {
                    (Column::Int(d), Column::Int(s)) => d.extend_from_slice(&s),
                    (Column::Float(d), Column::Float(s)) => d.extend_from_slice(&s),
                    (Column::Big(d), Column::Big(mut s)) => d.append(&mut s),
                    (Column::Text(d), Column::Text(mut s)) => d.append(&mut s),
                    _ => unreachable!("every chunk holds the declared lanes"),
                }
            }
            tail.rows += take;
        }
        chunks.extend(rest);
        self.rows += n;
        Ok(n)
    }

    /// Owned rows of this table's width as a batch on the declared lanes
    /// (each value through [`coerce`]): what the row-shaped entry points —
    /// `INSERT` literals, the bulk loader — log and then append.
    pub fn batch_from_rows(&self, rows: Vec<Row>) -> Result<RowBatch> {
        if let Some(r) = rows.iter().find(|r| r.len() != self.columns.len()) {
            return Err(self.arity_error(r.len()));
        }
        let mut columns = vec![Column::default(); self.columns.len()];
        for row in rows {
            for ((col, v), (cname, ty)) in columns.iter_mut().zip(row).zip(&self.columns) {
                coerce(v, *ty).and_then(|v| col.push(v)).map_err(in_column(cname))?;
            }
        }
        Ok(RowBatch::from_columns(columns))
    }

    /// [`Self::append_batch`] of owned rows.
    pub fn load_rows(&mut self, rows: Vec<Row>) -> Result<usize> {
        let batch = self.batch_from_rows(rows)?;
        self.append_batch(&batch)
    }

    /// Capture this table's pre-statement state in O(1) (shared chunk
    /// list). See [`TableUndo`].
    pub(crate) fn undo_state(&self) -> TableUndo {
        TableUndo {
            chunks: Arc::clone(&self.chunks),
            rows: self.rows,
            bytes: self.reservation.bytes(),
        }
    }

    /// Roll the table back to a previously captured [`TableUndo`]. Only
    /// appends happen after a capture, so the charge shrinks back to the
    /// captured value.
    pub(crate) fn restore(&mut self, undo: TableUndo) {
        self.chunks = undo.chunks;
        self.rows = undo.rows;
        self.reservation.shrink(self.reservation.bytes().saturating_sub(undo.bytes));
    }

    /// Release all budget held by this table and drop its chunk list early.
    /// Dropping the table frees the charge anyway (the reservation is
    /// RAII); this exists for callers that keep the `Table` value around —
    /// snapshots may still outlive both and keep the chunk data itself
    /// alive.
    pub fn release_budget(&mut self) {
        self.reservation.free();
        self.chunks = Arc::new(Vec::new());
        self.rows = 0;
    }
}

/// A type error of column `cname`, named in its message.
fn in_column(cname: &str) -> impl Fn(Error) -> Error + '_ {
    move |e| match e {
        Error::Type(m) => Error::Type(format!("column `{cname}`: {m}")),
        other => other,
    }
}

/// Coerce a value to a column type (lossless widenings only).
pub fn coerce(v: Value, ty: DataType) -> Result<Value> {
    match (ty, v) {
        (DataType::Integer, Value::Int(i)) => Ok(Value::Int(i)),
        (DataType::Integer, Value::Float(f)) if f.fract() == 0.0 && f.abs() < 9.2e18 => {
            Ok(Value::Int(f as i64))
        }
        (DataType::Integer, Value::Big(b)) => b
            .to_i64()
            .map(Value::Int)
            .ok_or_else(|| Error::Type("HUGEINT value does not fit INTEGER".into())),
        (DataType::HugeInt, Value::Int(i)) if i >= 0 => {
            Ok(Value::Big(crate::bigbits::BigBits::from_u64(i as u64, 64)))
        }
        (DataType::HugeInt, Value::Big(b)) => Ok(Value::Big(b)),
        (DataType::Double, Value::Float(f)) => Ok(Value::Float(f)),
        (DataType::Double, Value::Int(i)) => Ok(Value::Float(i as f64)),
        (DataType::Text, Value::Str(s)) => Ok(Value::Str(s)),
        (ty, v) => Err(Error::Type(format!("cannot store {} in {} column", v.data_type(), ty))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_table(budget: MemoryBudget) -> Table {
        Table::new(
            "T0",
            vec![
                ("s".into(), DataType::Integer),
                ("r".into(), DataType::Double),
                ("i".into(), DataType::Double),
            ],
            budget,
        )
    }

    fn state_rows(range: std::ops::Range<i64>) -> Vec<Row> {
        range.map(|s| vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)]).collect()
    }

    fn state_batch(range: std::ops::Range<i64>) -> RowBatch {
        RowBatch::from_owned_rows(state_rows(range)).unwrap()
    }

    #[test]
    fn insert_and_snapshot() {
        let mut t = state_table(MemoryBudget::unlimited());
        // int 1 coerced to float for the DOUBLE column
        t.load_rows(vec![vec![Value::Int(0), Value::Int(1), Value::Float(0.0)]]).unwrap();
        assert_eq!(t.row_count(), 1);
        let snap = t.snapshot();
        assert_eq!(snap.num_rows(), 1);
        assert_eq!(snap.to_rows()[0], vec![Value::Int(0), Value::Float(1.0), Value::Float(0.0)]);
    }

    #[test]
    fn storage_is_columnar_with_typed_lanes() {
        let mut t = state_table(MemoryBudget::unlimited());
        t.load_rows(state_rows(0..10)).unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.chunks().len(), 1);
        let chunk = &snap.chunks()[0];
        assert!(matches!(&*chunk.columns()[0], Column::Int(_)), "INTEGER fast lane");
        assert!(matches!(&*chunk.columns()[1], Column::Float(_)), "DOUBLE fast lane");
        assert_eq!(chunk.rows(), 10);
    }

    #[test]
    fn chunks_seal_at_chunk_rows() {
        let mut t = state_table(MemoryBudget::unlimited());
        t.load_rows(state_rows(0..CHUNK_ROWS as i64 * 2 + 5)).unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.chunks().len(), 3);
        assert_eq!(snap.chunks()[0].rows(), CHUNK_ROWS);
        assert_eq!(snap.chunks()[1].rows(), CHUNK_ROWS);
        assert_eq!(snap.chunks()[2].rows(), 5);
        assert_eq!(t.row_count(), CHUNK_ROWS * 2 + 5);
        // Row order is preserved across chunk boundaries.
        assert_eq!(snap.chunks()[1].row(0)[0], Value::Int(CHUNK_ROWS as i64));
    }

    /// A batch on the declared lanes that finds no open tail *is* the new
    /// chunk: same allocations, nothing copied.
    #[test]
    fn a_conforming_batch_is_adopted_by_arc() {
        let budget = MemoryBudget::unlimited();
        let mut t = state_table(budget.clone());
        let full = state_batch(0..CHUNK_ROWS as i64);
        let ragged = state_batch(0..700);
        t.append_batch(&full).unwrap();
        t.append_batch(&ragged).unwrap(); // the tail is full: adopted too
        let snap = t.snapshot();
        for (chunk, batch) in snap.chunks().iter().zip([&full, &ragged]) {
            for (stored, given) in chunk.columns().iter().zip(batch.columns()) {
                assert!(Arc::ptr_eq(stored, given));
            }
        }
        assert_eq!(budget.used(), 24 * (CHUNK_ROWS + 700), "8 bytes per fast-lane cell");
        // An open tail takes the next batch by copy, up to CHUNK_ROWS, and
        // the rest becomes a chunk of its own.
        t.append_batch(&full).unwrap();
        let sizes: Vec<usize> = t.snapshot().chunks().iter().map(TableChunk::rows).collect();
        assert_eq!(sizes, [CHUNK_ROWS, CHUNK_ROWS, 700]);
        assert_eq!(t.snapshot().chunks()[2].row(0)[0], Value::Int(CHUNK_ROWS as i64 - 700));
        assert_eq!(budget.used(), 24 * (2 * CHUNK_ROWS + 700));
        // An INTEGER lane offered to a DOUBLE column is rebuilt, not adopted.
        let ints = RowBatch::from_columns(vec![
            Column::Int(vec![7]),
            Column::Int(vec![2]),
            Column::Float(vec![0.5]),
        ]);
        t.append_batch(&ints).unwrap();
        let last = t.snapshot().to_rows().pop().unwrap();
        assert_eq!(last, vec![Value::Int(7), Value::Float(2.0), Value::Float(0.5)]);
    }

    /// The tail grows in place while nobody else holds it, and by
    /// copy-on-write while a snapshot does.
    #[test]
    fn tail_extension_respects_a_live_snapshot() {
        let mut t = state_table(MemoryBudget::unlimited());
        t.append_batch(&state_batch(0..10)).unwrap();
        let tail_ptr = |t: &Table| Arc::as_ptr(&t.snapshot().chunks()[0].columns()[0]);
        let before = tail_ptr(&t);
        t.append_batch(&state_batch(10..20)).unwrap();
        assert_eq!(tail_ptr(&t), before, "no snapshot alive: extended in place");
        let snap = t.snapshot();
        t.append_batch(&state_batch(20..30)).unwrap();
        assert_ne!(tail_ptr(&t), before, "snapshot alive: the tail was copied");
        assert_eq!(snap.num_rows(), 20, "old snapshot unchanged");
        assert_eq!(snap.chunks()[0].rows(), 20);
        assert_eq!(snap.to_rows()[19][0], Value::Int(19));
        assert_eq!(t.row_count(), 30);
        assert_eq!(t.snapshot().to_rows()[29][0], Value::Int(29));
    }

    #[test]
    fn a_refused_append_leaves_table_and_ledger_untouched() {
        // 3 columns × 8 bytes × 2 rows = 48 bytes of fast-lane storage.
        let budget = MemoryBudget::with_limit(40);
        let mut t = state_table(budget.clone());
        t.append_batch(&state_batch(0..1)).unwrap();
        let (chunks, used) = (t.snapshot(), budget.used());
        // One row more fits, two do not: the batch is charged whole, before
        // the open tail is touched.
        let e = t.append_batch(&state_batch(1..3)).unwrap_err();
        assert!(matches!(e, Error::OutOfMemory { requested: 48, .. }), "{e:?}");
        assert_eq!((t.row_count(), budget.used()), (1, used));
        assert!(Arc::ptr_eq(&chunks.chunks()[0].columns()[0], &t.snapshot().chunks()[0].columns()[0]));
        assert_eq!(t.snapshot().chunks()[0].rows(), 1);
        // So does a batch that fails coercion in its last column.
        let bad = RowBatch::from_columns(vec![
            Column::Int(vec![1]),
            Column::Float(vec![1.0]),
            Column::Text(vec!["x".into()]),
        ]);
        let e = t.append_batch(&bad).unwrap_err();
        assert!(matches!(e, Error::Type(ref m) if m.contains("column `i`")), "{e:?}");
        assert_eq!((t.row_count(), budget.used()), (1, used));
    }

    #[test]
    fn snapshot_survives_drop() {
        let mut t = state_table(MemoryBudget::unlimited());
        t.load_rows(state_rows(0..4)).unwrap();
        let snap = t.snapshot();
        t.release_budget();
        assert_eq!(snap.num_rows(), 4, "snapshot pins the old chunks");
        assert_eq!(snap.to_rows()[3][0], Value::Int(3));
    }

    /// A column's lane is its declared type: a `HUGEINT` table stores
    /// `Big` lanes however its rows arrive, and an `INTEGER` batch tops up
    /// its open tail.
    #[test]
    fn every_chunk_holds_the_declared_lanes() {
        let budget = MemoryBudget::unlimited();
        let cols = vec![("s".into(), DataType::HugeInt), ("name".into(), DataType::Text)];
        let mut t = Table::new("W", cols, budget.clone());
        let big = crate::bigbits::BigBits::from_u64(5, 80).shl(70);
        t.load_rows(vec![vec![Value::Int(3), Value::Str("a".into())]]).unwrap();
        t.append_batch(&RowBatch::from_columns(vec![
            Column::Big(vec![big.clone()]),
            Column::Text(vec!["b".into()]),
        ]))
        .unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.chunks().len(), 1, "the second batch topped up the tail");
        let chunk = &snap.chunks()[0];
        assert!(matches!(&*chunk.columns()[0], Column::Big(v) if v.len() == 2));
        assert!(matches!(&*chunk.columns()[1], Column::Text(v) if v.len() == 2));
        assert_eq!(chunk.row(1), vec![Value::Big(big), Value::Str("b".into())]);
        assert_eq!(budget.used(), chunk.heap_bytes());
        let e = t.load_rows(vec![vec![Value::Int(-1), Value::Str("c".into())]]).unwrap_err();
        assert!(matches!(e, Error::Type(ref m) if m.contains("column `s`")), "{e:?}");
    }

    #[test]
    fn coercion_rules() {
        assert!(coerce(Value::Str("x".into()), DataType::Integer).is_err());
        assert_eq!(coerce(Value::Int(3), DataType::Double).unwrap(), Value::Float(3.0));
        assert!(coerce(Value::Float(1.5), DataType::Integer).is_err());
        assert!(matches!(coerce(Value::Int(3), DataType::HugeInt).unwrap(), Value::Big(_)));
        assert!(coerce(Value::Int(-3), DataType::HugeInt).is_err());
        assert!(coerce(Value::Int(3), DataType::Text).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = state_table(MemoryBudget::unlimited());
        assert!(t.load_rows(vec![vec![Value::Int(0)]]).is_err());
        let too_wide = vec![Value::Int(0), Value::Float(0.0), Value::Float(0.0), Value::Int(9)];
        assert!(t.load_rows(vec![too_wide]).is_err());
        assert!(t.append_batch(&RowBatch::from_columns(vec![Column::Int(vec![1])])).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn load_rows_coerces_atomically() {
        let budget = MemoryBudget::unlimited();
        let mut t = state_table(budget.clone());
        // Second row fails coercion: nothing may be inserted or charged.
        let bad = vec![
            vec![Value::Int(0), Value::Float(1.0), Value::Float(0.0)],
            vec![Value::Int(1), Value::Str("x".into()), Value::Float(0.0)],
        ];
        assert!(t.load_rows(bad).is_err());
        assert_eq!(t.row_count(), 0);
        assert_eq!(budget.used(), 0);
        let n = t
            .load_rows(vec![vec![Value::Int(0), Value::Int(2), Value::Float(0.0)]])
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(t.snapshot().to_rows()[0][1], Value::Float(2.0), "coerced to DOUBLE");
    }
}
