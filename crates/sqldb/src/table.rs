//! In-memory base tables in chunked columnar layout.
//!
//! A [`Table`] stores its rows decomposed into per-column chunks of up to
//! [`CHUNK_ROWS`] rows. Each chunk column is a shared [`ColumnRef`] — the
//! same `Arc<Column>` type the vectorized executor's
//! [`RowBatch`](crate::exec::batch::RowBatch) carries — so a batch scan
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
//! # Memory accounting
//!
//! Column storage charges the shared [`MemoryBudget`] through a
//! [`Reservation`], per column chunk: fast-lane (`INTEGER`/`DOUBLE`) cells
//! cost 8 bytes/row, generic cells their [`Value::heap_bytes`]. Inserts
//! reserve **as they pack**: every chunk charges a staged reservation the
//! moment it seals, so a huge `INSERT` never holds more than one chunk
//! (≤ [`CHUNK_ROWS`] rows) of unaccounted storage — packing aborts at the
//! first chunk the budget refuses. The mutation stays all-or-nothing: the
//! table is only touched after every chunk is packed *and* charged, and on
//! failure the staged reservation drops, leaving table and ledger exactly
//! as they were. Deletes rebuild only surviving chunks, charging each
//! rebuilt chunk through the same streaming scheme — in **overdraft** mode,
//! since the net effect of a delete only ever shrinks the charge and must
//! not fail against a full budget; the transient survivor copies still land
//! on the ledger while they exist, so concurrent reservations see honest
//! usage.

use std::sync::Arc;

use crate::ast::DataType;
use crate::error::{Error, Result};
use crate::exec::batch::{Column, ColumnRef, BATCH_SIZE};
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
    fn from_builders(columns: Vec<Column>, rows: usize) -> TableChunk {
        debug_assert!(columns.iter().all(|c| c.len() == rows), "ragged chunk");
        TableChunk { columns: columns.into_iter().map(Arc::new).collect(), rows }
    }

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

/// How [`Table::pack_chunks_charged`] bills each sealed chunk.
enum ChunkCharge<'a> {
    /// Reserve against the budget limit; refusals abort the mutation
    /// (insert path). `credit` offsets storage the mutation replaces.
    Strict { staged: &'a mut Reservation, credit: usize },
    /// Charge unconditionally past the limit (delete re-pack: the net
    /// effect only shrinks, so the rebuild must not fail).
    Overdraft { staged: &'a mut Reservation },
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

    /// An empty typed column builder for declared type `ty` (fast lanes for
    /// `INTEGER`/`DOUBLE`; [`Column::push`] demotes on NULLs automatically).
    fn lane_for(ty: DataType) -> Column {
        match ty {
            DataType::Integer => Column::Int(Vec::new()),
            DataType::Double => Column::Float(Vec::new()),
            DataType::Text | DataType::HugeInt => Column::Generic(Vec::new()),
        }
    }

    /// Validate and coerce a row to the declared column types.
    pub fn coerce_row(&self, row: Vec<Value>) -> Result<Row> {
        if row.len() != self.columns.len() {
            return Err(Error::Plan(format!(
                "table `{}` expects {} values, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        row.into_iter()
            .zip(self.columns.iter())
            .map(|(v, (cname, ty))| coerce(v, *ty).map_err(|e| match e {
                Error::Type(m) => Error::Type(format!("column `{cname}`: {m}")),
                other => other,
            }))
            .collect()
    }

    /// Coerce and append `rows` in one atomic step, returning the number
    /// inserted. This is the loader entry point ([`crate::db::Database`]'s
    /// `INSERT` and CTAS paths): values stream straight into the typed
    /// column builders of the tail chunk, and any coercion error or budget
    /// overrun leaves the table untouched.
    pub fn load_rows(&mut self, rows: Vec<Row>) -> Result<usize> {
        let coerced: Vec<Row> =
            rows.into_iter().map(|r| self.coerce_row(r)).collect::<Result<_>>()?;
        let n = coerced.len();
        self.insert_rows(coerced)?;
        Ok(n)
    }

    /// Append rows (already coerced), charging the memory budget. Atomic:
    /// on budget overrun nothing is inserted and nothing is charged.
    pub fn insert_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        if let Some(r) = rows.iter().find(|r| r.len() != self.columns.len()) {
            return Err(Error::Plan(format!(
                "table `{}` expects {} values, got {}",
                self.name,
                self.columns.len(),
                r.len()
            )));
        }

        // Rebuild the tail + fresh chunks without touching the table,
        // reserving budget per chunk as the builders fill (streaming
        // reserve-as-you-pack): packing stops at the first chunk the budget
        // refuses, so the unaccounted transient is bounded by one open
        // chunk, not the mutation size. The replaced tail's existing charge
        // is credited against the first sealed chunk, making the staged
        // total exactly the byte delta.
        let reopen_tail = self.chunks.last().is_some_and(|tail| tail.rows < CHUNK_ROWS);
        let (open, open_rows, replaced_bytes, replaced_rows) = if reopen_tail {
            let tail = self.chunks.last().expect("tail checked above");
            // Copy-on-write: the open chunk's data is cloned once (< CHUNK_ROWS
            // rows); snapshots holding the old Arc keep the old contents.
            let cols: Vec<Column> = tail.columns.iter().map(|c| (**c).clone()).collect();
            (cols, tail.rows, tail.heap_bytes(), tail.rows)
        } else {
            (self.empty_builders(), 0, 0, 0)
        };
        let mut staged = Reservation::empty(self.reservation.budget());
        let sealed = self.pack_chunks_charged(
            open,
            open_rows,
            rows,
            ChunkCharge::Strict { staged: &mut staged, credit: replaced_bytes },
        )?;

        // All chunks packed and charged: commit. Dropping `staged` on the
        // error path above released everything, keeping inserts atomic.
        let new_rows: usize = sealed.iter().map(TableChunk::rows).sum();
        let chunks = Arc::make_mut(&mut self.chunks);
        if reopen_tail {
            chunks.pop();
        }
        chunks.extend(sealed);
        self.rows += new_rows - replaced_rows;
        self.reservation.adopt(staged);
        Ok(())
    }

    /// Pack `rows` into sealed chunks, continuing from an open builder set
    /// holding `open_rows` rows already. Each chunk charges its bytes the
    /// moment it seals, per the [`ChunkCharge`] mode: `Strict` (inserts)
    /// reserves against the limit — minus any remaining `credit` for
    /// storage it replaces — and aborts packing with
    /// [`Error::OutOfMemory`] when refused; `Overdraft` (delete re-pack)
    /// always succeeds but still lands the transient bytes on the ledger.
    fn pack_chunks_charged(
        &self,
        mut open: Vec<Column>,
        mut open_rows: usize,
        rows: Vec<Row>,
        mut charge: ChunkCharge<'_>,
    ) -> Result<Vec<TableChunk>> {
        let mut sealed: Vec<TableChunk> = Vec::new();
        let mut seal = |chunk: TableChunk, charge: &mut ChunkCharge<'_>| -> Result<()> {
            let bytes = chunk.heap_bytes();
            match charge {
                ChunkCharge::Strict { staged, credit } => {
                    let billed = bytes.saturating_sub(*credit);
                    *credit -= bytes.min(*credit);
                    if !staged.try_grow(billed) {
                        return Err(Error::OutOfMemory {
                            requested: billed,
                            budget: staged.budget().limit(),
                        });
                    }
                }
                ChunkCharge::Overdraft { staged } => staged.grow_overdraft(bytes),
            }
            sealed.push(chunk);
            Ok(())
        };
        for mut row in rows {
            for col in open.iter_mut().rev() {
                col.push(row.pop().expect("arity checked"));
            }
            open_rows += 1;
            if open_rows == CHUNK_ROWS {
                let full = std::mem::replace(&mut open, self.empty_builders());
                seal(TableChunk::from_builders(full, CHUNK_ROWS), &mut charge)?;
                open_rows = 0;
            }
        }
        if open_rows > 0 {
            seal(TableChunk::from_builders(open, open_rows), &mut charge)?;
        }
        Ok(sealed)
    }

    /// Fresh typed builders for one chunk, in schema order.
    fn empty_builders(&self) -> Vec<Column> {
        self.columns.iter().map(|(_, ty)| Self::lane_for(*ty)).collect()
    }

    /// Delete rows matching `pred`; returns the number removed. Atomic: a
    /// predicate error leaves the table unchanged. Only chunks that lose
    /// rows are re-packed — untouched sealed chunks carry over as `Arc`
    /// clones, so a selective delete costs O(matching chunks), not
    /// O(table). (Chunks may be left partially full; only the tail chunk is
    /// ever reopened by inserts.)
    pub fn delete_where(&mut self, mut pred: impl FnMut(&Row) -> Result<bool>) -> Result<usize> {
        // Phase 1: evaluate the predicate everywhere before mutating
        // anything. `None` = chunk untouched; `Some(rows)` = its survivors.
        // A reusable scratch row keeps untouched chunks allocation-free:
        // owned rows are only built for chunks that actually lose rows.
        let mut survivors_by_chunk: Vec<Option<Vec<Row>>> =
            Vec::with_capacity(self.chunks.len());
        let mut removed = 0usize;
        let mut scratch: Row = Vec::with_capacity(self.columns.len());
        for chunk in self.chunks.iter() {
            let mut survivors: Option<Vec<Row>> = None;
            for i in 0..chunk.rows() {
                scratch.clear();
                scratch.extend(chunk.columns().iter().map(|c| c.value_at(i)));
                if pred(&scratch)? {
                    removed += 1;
                    if survivors.is_none() {
                        // First hit in this chunk: back-fill the rows kept
                        // so far.
                        survivors = Some((0..i).map(|j| chunk.row(j)).collect());
                    }
                } else if let Some(s) = survivors.as_mut() {
                    s.push(std::mem::take(&mut scratch));
                }
            }
            survivors_by_chunk.push(survivors);
        }
        if removed == 0 {
            return Ok(0);
        }

        // Phase 2: rebuild only the chunks that lost rows. Rebuilt chunks
        // charge a staged overdraft reservation as they seal (streaming
        // reserve-as-you-pack, like inserts) so the transient survivor
        // copies are visible on the ledger; overdraft mode keeps the delete
        // infallible against a full budget.
        let mut staged = Reservation::empty(self.reservation.budget());
        let mut replaced_bytes = 0usize;
        let mut rebuilt: Vec<TableChunk> = Vec::with_capacity(self.chunks.len());
        for (chunk, survivors) in self.chunks.iter().zip(survivors_by_chunk) {
            match survivors {
                None => rebuilt.push(chunk.clone()),
                Some(rows) if rows.is_empty() => replaced_bytes += chunk.heap_bytes(),
                Some(rows) => {
                    replaced_bytes += chunk.heap_bytes();
                    rebuilt.extend(self.pack_chunks_charged(
                        self.empty_builders(),
                        0,
                        rows,
                        ChunkCharge::Overdraft { staged: &mut staged },
                    )?);
                }
            }
        }
        self.rows -= removed;
        self.chunks = Arc::new(rebuilt);
        // Commit the staged charge, then release the replaced chunks'
        // bytes: the net change is `new survivor bytes − replaced bytes`,
        // which never grows the charge past what phase 1 started with.
        self.reservation.adopt(staged);
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

    #[test]
    fn insert_and_snapshot() {
        let mut t = state_table(MemoryBudget::unlimited());
        let row = t.coerce_row(vec![Value::Int(0), Value::Int(1), Value::Float(0.0)]).unwrap();
        // int 1 coerced to float for the DOUBLE column
        assert_eq!(row[1], Value::Float(1.0));
        t.insert_rows(vec![row]).unwrap();
        assert_eq!(t.row_count(), 1);
        let snap = t.snapshot();
        assert_eq!(snap.num_rows(), 1);
        assert_eq!(snap.to_rows()[0][0], Value::Int(0));
    }

    #[test]
    fn storage_is_columnar_with_typed_lanes() {
        let mut t = state_table(MemoryBudget::unlimited());
        let rows: Vec<Row> = (0..10)
            .map(|s| vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)])
            .collect();
        t.insert_rows(rows).unwrap();
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
        let rows: Vec<Row> = (0..(CHUNK_ROWS as i64 * 2 + 5))
            .map(|s| vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)])
            .collect();
        t.insert_rows(rows).unwrap();
        let snap = t.snapshot();
        assert_eq!(snap.chunks().len(), 3);
        assert_eq!(snap.chunks()[0].rows(), CHUNK_ROWS);
        assert_eq!(snap.chunks()[1].rows(), CHUNK_ROWS);
        assert_eq!(snap.chunks()[2].rows(), 5);
        assert_eq!(t.row_count(), CHUNK_ROWS * 2 + 5);
        // Row order is preserved across chunk boundaries.
        assert_eq!(snap.chunks()[1].row(0)[0], Value::Int(CHUNK_ROWS as i64));
    }

    #[test]
    fn budget_enforced_on_insert() {
        // 3 columns × 8 bytes × 2 rows = 48 bytes of fast-lane storage.
        let budget = MemoryBudget::with_limit(40);
        let mut t = state_table(budget.clone());
        let row = vec![Value::Int(0), Value::Float(1.0), Value::Float(0.0)];
        let e = t.insert_rows(vec![row.clone(), row]).unwrap_err();
        assert!(matches!(e, Error::OutOfMemory { .. }));
        // Atomic: the failed insert charged nothing and stored nothing.
        assert_eq!(t.row_count(), 0);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn delete_releases_budget() {
        let budget = MemoryBudget::unlimited();
        let mut t = state_table(budget.clone());
        for s in 0..10 {
            let row = t.coerce_row(vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)])
                .unwrap();
            t.insert_rows(vec![row]).unwrap();
        }
        let used_before = budget.used();
        let n = t.delete_where(|r| Ok(matches!(r[0], Value::Int(v) if v < 5))).unwrap();
        assert_eq!(n, 5);
        assert!(budget.used() < used_before);
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.snapshot().to_rows()[0][0], Value::Int(5));
    }

    #[test]
    fn snapshot_is_copy_on_write() {
        let mut t = state_table(MemoryBudget::unlimited());
        let row = t.coerce_row(vec![Value::Int(0), Value::Float(1.0), Value::Float(0.0)]).unwrap();
        t.insert_rows(vec![row.clone()]).unwrap();
        let snap = t.snapshot();
        // The second insert extends the same (open) tail chunk: the table
        // must copy it rather than mutate what `snap` sees.
        t.insert_rows(vec![row]).unwrap();
        assert_eq!(snap.num_rows(), 1, "old snapshot unchanged");
        assert_eq!(snap.chunks()[0].rows(), 1);
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.snapshot().num_rows(), 2);
    }

    #[test]
    fn snapshot_survives_delete_and_drop() {
        let mut t = state_table(MemoryBudget::unlimited());
        let rows: Vec<Row> = (0..4)
            .map(|s| vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)])
            .collect();
        t.insert_rows(rows).unwrap();
        let snap = t.snapshot();
        t.delete_where(|_| Ok(true)).unwrap();
        t.release_budget();
        assert_eq!(snap.num_rows(), 4, "snapshot pins the old chunks");
        assert_eq!(snap.to_rows()[3][0], Value::Int(3));
    }

    #[test]
    fn nulls_demote_fast_lane_per_chunk_only(){
        let mut t = state_table(MemoryBudget::unlimited());
        let mut rows: Vec<Row> = (0..CHUNK_ROWS as i64)
            .map(|s| vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)])
            .collect();
        rows.push(vec![Value::Null, Value::Float(1.0), Value::Float(0.0)]);
        t.insert_rows(rows).unwrap();
        let snap = t.snapshot();
        assert!(matches!(&*snap.chunks()[0].columns()[0], Column::Int(_)),
            "sealed chunk keeps its fast lane");
        assert!(matches!(&*snap.chunks()[1].columns()[0], Column::Generic(_)),
            "NULL demotes only the chunk that holds it");
        assert!(snap.chunks()[1].row(0)[0].is_null());
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
        let t = state_table(MemoryBudget::unlimited());
        assert!(t.coerce_row(vec![Value::Int(0)]).is_err());
        // insert_rows itself also hard-errors (not just in debug builds).
        let mut t = state_table(MemoryBudget::unlimited());
        let too_wide = vec![Value::Int(0), Value::Float(0.0), Value::Float(0.0), Value::Int(9)];
        assert!(t.insert_rows(vec![too_wide]).is_err());
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn selective_delete_keeps_untouched_chunks_shared() {
        let mut t = state_table(MemoryBudget::unlimited());
        let rows: Vec<Row> = (0..(CHUNK_ROWS as i64 * 2))
            .map(|s| vec![Value::Int(s), Value::Float(1.0), Value::Float(0.0)])
            .collect();
        t.insert_rows(rows).unwrap();
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
}
