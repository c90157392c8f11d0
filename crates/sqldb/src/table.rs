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
//! all hand it a [`RowBatch`]. A column that already rides its declared
//! type's lane (`Int` for `INTEGER`, `Float` for `DOUBLE`, a checked
//! `Generic` for `TEXT`/`HUGEINT`) is stored as it is — by `Arc` when it can
//! become a chunk of its own, else copied into the open tail chunk; any
//! other lane is rebuilt column-wise through [`coerce`]. A cell keeps the
//! lane it arrived on: the tail chunk is only extended by columns of its
//! own lanes, so what a table charges does not depend on where its chunk
//! boundaries fall (a checkpoint image replayed into a fresh table charges
//! what the original did).
//!
//! # Memory accounting
//!
//! Column storage charges the shared [`MemoryBudget`] through a
//! [`Reservation`]: fast-lane (`INTEGER`/`DOUBLE`) cells cost 8 bytes/row,
//! generic cells their [`Value::heap_bytes`]. An append reserves the whole
//! batch **once, before the table is touched**: a refusal leaves table and
//! ledger exactly as they were. Deletes rebuild only the chunks that lose
//! rows, charging the survivor copies in **overdraft** mode — the net
//! effect of a delete only ever shrinks the charge and must not fail
//! against a full budget, while the transient copies still land on the
//! ledger so concurrent reservations see honest usage.

use std::sync::Arc;

use crate::ast::DataType;
use crate::error::{Error, Result};
use crate::exec::batch::{Column, ColumnRef, RowBatch, BATCH_SIZE};
use crate::schema::{ColFact, Facts, Field, RelSchema};
use crate::storage::budget::{MemoryBudget, Reservation};
use crate::storage::spill::Row;
use crate::value::Value;

/// Rows per storage chunk. Matched to the executor's [`BATCH_SIZE`] so a
/// scan yields exactly one ready-made batch per chunk.
pub const CHUNK_ROWS: usize = BATCH_SIZE;

/// Largest table [`Table::column_facts`] checks value by value: every gate
/// table and initial state is far below it, and the check stays in the
/// tens of microseconds per planned statement.
const FACT_CHECK_ROWS: usize = 4096;

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
/// Cloning is cheap (`Arc` of the chunk list); concurrent inserts and
/// deletes on the table never show through an existing snapshot.
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
    /// Column facts the plan that filled this table proved (`CREATE TABLE …
    /// AS`). They describe exactly the rows present when they were recorded:
    /// whatever adds rows or brings old ones back forgets them.
    recorded_facts: Option<Facts>,
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
            recorded_facts: None,
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

    /// What the optimizer may assume of each column's current values: the
    /// facts recorded with the rows if they still stand; else, for every
    /// `INTEGER` column stored on the null-free lane throughout, what a scan
    /// of its values finds — or, past 4,096 rows (`FACT_CHECK_ROWS`), only that
    /// they are non-NULL integers.
    pub fn column_facts(&self) -> Facts {
        if let Some(facts) = &self.recorded_facts {
            return facts.clone();
        }
        (0..self.columns.len())
            .map(|c| {
                if self.columns[c].1 != DataType::Integer {
                    return None;
                }
                let lanes = self
                    .chunks
                    .iter()
                    .map(|chunk| match &*chunk.columns[c] {
                        Column::Int(lane) => Some(lane.as_slice()),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()?;
                if self.rows > FACT_CHECK_ROWS {
                    return Some(ColFact { ones: u64::MAX, unique: false });
                }
                let mut values = lanes.concat();
                let ones = values.iter().fold(0, |m, &v| m | v as u64);
                values.sort_unstable();
                Some(ColFact { ones, unique: values.windows(2).all(|w| w[0] != w[1]) })
            })
            .collect()
    }

    /// Record what the plan whose result this table holds proved of its
    /// columns (see [`Table::column_facts`]).
    pub(crate) fn record_facts(&mut self, facts: Facts) {
        debug_assert_eq!(facts.len(), self.columns.len());
        self.recorded_facts = Some(facts);
    }

    fn arity_error(&self, got: usize) -> Error {
        Error::Plan(format!(
            "table `{}` expects {} values, got {got}",
            self.name,
            self.columns.len()
        ))
    }

    /// `column` on the lane of declared type `ty`: itself (shared) when it
    /// already is — a typed fast lane, or generic values that are all of
    /// the type or NULL — else rebuilt value by value through [`coerce`]
    /// ([`Column::push`] keeps the fast lane until a NULL demotes it).
    fn conform(column: &ColumnRef, ty: DataType) -> Result<ColumnRef> {
        let fits = match (ty, &**column) {
            (DataType::Integer, Column::Int(_)) | (DataType::Double, Column::Float(_)) => true,
            (_, Column::Generic(values)) => values.iter().all(|v| {
                matches!(
                    (ty, v),
                    (_, Value::Null)
                        | (DataType::Integer, Value::Int(_))
                        | (DataType::Double, Value::Float(_))
                        | (DataType::Text, Value::Str(_))
                        | (DataType::HugeInt, Value::Big(_))
                )
            }),
            _ => false,
        };
        if fits {
            return Ok(Arc::clone(column));
        }
        let mut out = match ty {
            DataType::Integer => Column::Int(Vec::with_capacity(column.len())),
            DataType::Double => Column::Float(Vec::with_capacity(column.len())),
            DataType::Text | DataType::HugeInt => Column::Generic(Vec::with_capacity(column.len())),
        };
        for i in 0..column.len() {
            out.push(coerce(column.value_at(i), ty)?);
        }
        Ok(Arc::new(out))
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
            columns.push(Self::conform(column, *ty).map_err(|e| match e {
                Error::Type(m) => Error::Type(format!("column `{cname}`: {m}")),
                other => other,
            })?);
        }
        // The tail is topped up only by columns of its own lanes, so no
        // stored cell ever changes what it costs.
        let same_lanes = |tail: &TableChunk| {
            let mut lanes = tail.columns.iter().zip(&columns);
            lanes.all(|(a, b)| std::mem::discriminant(&**a) == std::mem::discriminant(&**b))
        };
        // Rows of the batch that fill the open tail.
        let take = match self.chunks.last() {
            Some(tail) if tail.rows < CHUNK_ROWS && same_lanes(tail) => n.min(CHUNK_ROWS - tail.rows),
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
        self.recorded_facts = None;
        let chunks = Arc::make_mut(&mut self.chunks);
        if take > 0 {
            let tail = chunks.last_mut().expect("rows were taken for a tail");
            for (dst, src) in tail.columns.iter_mut().zip(top_up) {
                match (Arc::make_mut(dst), src) {
                    (Column::Int(d), Column::Int(s)) => d.extend_from_slice(&s),
                    (Column::Float(d), Column::Float(s)) => d.extend_from_slice(&s),
                    (Column::Generic(d), Column::Generic(mut s)) => d.append(&mut s),
                    _ => unreachable!("the tail is only topped up by its own lanes"),
                }
            }
            tail.rows += take;
        }
        chunks.extend(rest);
        self.rows += n;
        Ok(n)
    }

    /// Transpose owned rows of this table's width into a batch (lanes
    /// detected, nothing coerced yet): what the row-shaped entry points —
    /// `INSERT` literals, the bulk loader — log and then append.
    pub fn batch_from_rows(&self, rows: Vec<Row>) -> Result<RowBatch> {
        if let Some(r) = rows.iter().find(|r| r.len() != self.columns.len()) {
            return Err(self.arity_error(r.len()));
        }
        Ok(RowBatch::from_owned_rows(rows))
    }

    /// [`Self::append_batch`] of owned rows.
    pub fn load_rows(&mut self, rows: Vec<Row>) -> Result<usize> {
        let batch = self.batch_from_rows(rows)?;
        self.append_batch(&batch)
    }

    /// Delete rows matching `pred`; returns the number removed. Atomic: a
    /// predicate error leaves the table unchanged. Only chunks that lose
    /// rows are re-packed — by gathering the survivors of each column —
    /// and untouched chunks carry over as `Arc` clones, so a selective
    /// delete costs O(matching chunks), not O(table). (Chunks may be left
    /// partially full; only the tail chunk is ever reopened by inserts.)
    pub fn delete_where(&mut self, mut pred: impl FnMut(&Row) -> Result<bool>) -> Result<usize> {
        // Phase 1: evaluate the predicate everywhere before mutating
        // anything. `None` = chunk untouched; `Some(ids)` = its survivors.
        let mut survivors_by_chunk: Vec<Option<Vec<u32>>> = Vec::with_capacity(self.chunks.len());
        let mut removed = 0usize;
        let mut scratch: Row = Vec::with_capacity(self.columns.len());
        for chunk in self.chunks.iter() {
            let mut survivors: Option<Vec<u32>> = None;
            for i in 0..chunk.rows() {
                scratch.clear();
                scratch.extend(chunk.columns().iter().map(|c| c.value_at(i)));
                if pred(&scratch)? {
                    removed += 1;
                    // First hit in this chunk: every row before it stays.
                    survivors.get_or_insert_with(|| (0..i as u32).collect());
                } else if let Some(s) = survivors.as_mut() {
                    s.push(i as u32);
                }
            }
            survivors_by_chunk.push(survivors);
        }
        if removed == 0 {
            return Ok(0);
        }

        // Phase 2: rebuild only the chunks that lost rows. The survivor
        // copies are charged in overdraft (they exist beside the chunks
        // they replace until the swap below), then the replaced chunks'
        // bytes are released: the net change never grows the charge.
        let mut replaced_bytes = 0usize;
        let mut rebuilt: Vec<TableChunk> = Vec::with_capacity(self.chunks.len());
        for (chunk, survivors) in self.chunks.iter().zip(survivors_by_chunk) {
            let Some(ids) = survivors else {
                rebuilt.push(chunk.clone());
                continue;
            };
            replaced_bytes += chunk.heap_bytes();
            if !ids.is_empty() {
                let columns = chunk.columns.iter().map(|c| Arc::new(c.gather(&ids))).collect();
                let kept = TableChunk { columns, rows: ids.len() };
                self.reservation.grow_overdraft(kept.heap_bytes());
                rebuilt.push(kept);
            }
        }
        self.rows -= removed;
        self.chunks = Arc::new(rebuilt);
        self.reservation.shrink(replaced_bytes);
        Ok(removed)
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

    /// Roll the table back to a previously captured [`TableUndo`]. The
    /// budget charge is re-aligned to the captured value — shrinking after
    /// an undone insert, growing (overdraft, infallible) after an undone
    /// delete.
    pub(crate) fn restore(&mut self, undo: TableUndo) {
        self.recorded_facts = None;
        self.chunks = undo.chunks;
        self.rows = undo.rows;
        let cur = self.reservation.bytes();
        if cur > undo.bytes {
            self.reservation.shrink(cur - undo.bytes);
        } else {
            self.reservation.grow_overdraft(undo.bytes - cur);
        }
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

/// Coerce a value to a column type (lossless widenings only).
pub fn coerce(v: Value, ty: DataType) -> Result<Value> {
    match (ty, v) {
        (_, Value::Null) => Ok(Value::Null),
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
        (ty, v) => Err(Error::Type(format!("cannot store {} in {} column", v.type_name(), ty))),
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
        RowBatch::from_owned_rows(state_rows(range))
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
            Column::Generic(vec![Value::Str("x".into())]),
        ]);
        let e = t.append_batch(&bad).unwrap_err();
        assert!(matches!(e, Error::Type(ref m) if m.contains("column `i`")), "{e:?}");
        assert_eq!((t.row_count(), budget.used()), (1, used));
    }

    #[test]
    fn delete_releases_budget() {
        let budget = MemoryBudget::unlimited();
        let mut t = state_table(budget.clone());
        for s in 0..10 {
            t.load_rows(state_rows(s..s + 1)).unwrap();
        }
        assert_eq!(t.snapshot().chunks().len(), 1, "single rows fill one tail");
        let used_before = budget.used();
        let n = t.delete_where(|r| Ok(matches!(r[0], Value::Int(v) if v < 5))).unwrap();
        assert_eq!(n, 5);
        assert_eq!(budget.used(), used_before / 2);
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.snapshot().to_rows()[0][0], Value::Int(5));
        assert!(matches!(&*t.snapshot().chunks()[0].columns()[0], Column::Int(_)), "lanes survive");
    }

    #[test]
    fn snapshot_survives_delete_and_drop() {
        let mut t = state_table(MemoryBudget::unlimited());
        t.load_rows(state_rows(0..4)).unwrap();
        let snap = t.snapshot();
        t.delete_where(|_| Ok(true)).unwrap();
        t.release_budget();
        assert_eq!(snap.num_rows(), 4, "snapshot pins the old chunks");
        assert_eq!(snap.to_rows()[3][0], Value::Int(3));
    }

    /// A cell keeps the lane it arrived on: a NULL demotes the batch that
    /// carries it, never a chunk stored before, and a demoted batch is not
    /// poured into a typed tail (the charge must not depend on chunking).
    #[test]
    fn nulls_demote_only_the_batch_that_holds_them() {
        let budget = MemoryBudget::unlimited();
        let mut t = state_table(budget.clone());
        t.load_rows(state_rows(0..10)).unwrap();
        t.load_rows(vec![vec![Value::Null, Value::Float(1.0), Value::Float(0.0)]]).unwrap();
        t.load_rows(state_rows(11..12)).unwrap();
        let snap = t.snapshot();
        let lanes: Vec<bool> = snap
            .chunks()
            .iter()
            .map(|c| matches!(&*c.columns()[0], Column::Int(_)))
            .collect();
        assert_eq!(lanes, [true, false, true], "typed, demoted, typed again");
        assert!(snap.chunks()[1].row(0)[0].is_null());
        // 11 typed rows at 24 bytes, one with a 16-byte generic `s`.
        assert_eq!(budget.used(), 11 * 24 + 16 + 16);
    }

    #[test]
    fn coercion_rules() {
        assert!(coerce(Value::Str("x".into()), DataType::Integer).is_err());
        assert_eq!(coerce(Value::Int(3), DataType::Double).unwrap(), Value::Float(3.0));
        assert!(coerce(Value::Float(1.5), DataType::Integer).is_err());
        assert!(matches!(coerce(Value::Int(3), DataType::HugeInt).unwrap(), Value::Big(_)));
        assert!(coerce(Value::Int(-3), DataType::HugeInt).is_err());
        assert!(coerce(Value::Null, DataType::Text).unwrap().is_null());
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
    fn selective_delete_keeps_untouched_chunks_shared() {
        let mut t = state_table(MemoryBudget::unlimited());
        t.load_rows(state_rows(0..CHUNK_ROWS as i64 * 2)).unwrap();
        let before = t.snapshot();
        // Delete only from the second chunk; the first must carry over
        // without a re-pack (same column allocations).
        let n = t
            .delete_where(|r| Ok(matches!(r[0], Value::Int(v) if v >= CHUNK_ROWS as i64 + 10)))
            .unwrap();
        assert_eq!(n, CHUNK_ROWS - 10);
        let after = t.snapshot();
        assert!(Arc::ptr_eq(
            &before.chunks()[0].columns()[0],
            &after.chunks()[0].columns()[0]
        ));
        assert_eq!(after.chunks()[1].rows(), 10);
        assert_eq!(t.row_count(), CHUNK_ROWS + 10);
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

    #[test]
    fn column_facts_are_checked_or_recorded_and_forgotten_on_writes() {
        let fact = |ones, unique| Some(ColFact { ones, unique });
        let mut t = state_table(MemoryBudget::unlimited());
        assert_eq!(t.column_facts(), [fact(0, true), None, None], "no rows: trivially");
        t.load_rows(state_rows(1..6)).unwrap();
        assert_eq!(t.column_facts(), [fact(7, true), None, None]);
        t.load_rows(state_rows(-2..-1)).unwrap();
        assert_eq!(t.column_facts()[0], fact(u64::MAX, true), "a negative value sets the high bits");
        t.load_rows(state_rows(3..4)).unwrap();
        assert_eq!(t.column_facts()[0], fact(u64::MAX, false), "3 twice");

        // Recorded facts answer for the rows they were recorded with …
        let recorded = vec![fact(1 << 40, true), None, None];
        t.record_facts(recorded.clone());
        assert_eq!(t.column_facts(), recorded);
        // … of which a delete leaves a subset, an append does not, and a
        // restore brings back rows nobody vouches for.
        t.delete_where(|r| Ok(r[0] == Value::Int(3))).unwrap();
        assert_eq!(t.column_facts(), recorded);
        let undo = t.undo_state();
        t.load_rows(state_rows(8..9)).unwrap();
        assert_eq!(t.column_facts()[0], fact(u64::MAX, true), "checked again");
        t.record_facts(recorded);
        t.restore(undo);
        assert_eq!(t.column_facts()[0], fact(u64::MAX, true));

        // A NULL demotes the lane: nothing is known. Past the check limit,
        // only that the values are non-NULL integers.
        let mut with_null = state_table(MemoryBudget::unlimited());
        with_null.load_rows(vec![vec![Value::Null, Value::Float(1.0), Value::Float(0.0)]]).unwrap();
        assert_eq!(with_null.column_facts(), [None, None, None]);
        let mut large = state_table(MemoryBudget::unlimited());
        large.load_rows(state_rows(0..FACT_CHECK_ROWS as i64)).unwrap();
        assert_eq!(large.column_facts()[0], fact(FACT_CHECK_ROWS as u64 - 1, true));
        large.load_rows(state_rows(0..1)).unwrap();
        assert_eq!(large.column_facts()[0], fact(u64::MAX, false), "not looked at");
    }
}
