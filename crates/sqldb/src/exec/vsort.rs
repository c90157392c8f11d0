//! Vectorized sorting for the batch pipeline.
//!
//! `ORDER BY s` closes every Qymera query (states render in basis-state
//! order), so the sort is the last operator every result crosses. It sorts
//! ascending by one key, which is all any caller asks for. [`BatchSort`] is
//! built around:
//!
//! * **A columnar sort key.** The key expression evaluates per input batch
//!   with the [`BoundExpr::eval_batch`] kernels, and the comparator reads
//!   the keys' typed lane — no per-comparison [`Value`] materialization. A
//!   key's type follows from its operands' types, so every batch holds it
//!   in one lane; spilled runs merge through [`Value::cmp_total`], the
//!   order the lanes reproduce.
//! * **Radix for an integer key.** `ORDER BY s` over the `Int` lane skips
//!   the comparator: a stable LSD radix sort on the key's order-preserving
//!   `u64` image, skipping digits every key shares. The node is labelled
//!   `[1 keys, radix]` when it takes this path.
//! * **Stable order.** The in-memory sort is a stable index sort, and every
//!   spilled record carries its global input ordinal, so ties always
//!   resolve to input order — in memory and spilled, the output is the same
//!   byte for byte.
//! * **Spill-to-run merge.** Buffered batches charge the shared
//!   [`MemoryBudget`](crate::storage::budget::MemoryBudget) through an RAII
//!   [`Reservation`]; when the reservation cannot grow, the buffer is sorted
//!   and written out as a run (`[key, ordinal, row…]` records in the
//!   standard spill format), and runs merge through a k-way heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::storage::budget::Reservation;
use crate::storage::spill::{Row, SpillReader, SpillWriter};
use crate::value::Value;

use super::batch::{Column, ColumnRef, RowBatch, BATCH_SIZE};
use super::vector::BatchStream;
use super::{set_node_label, ExecContext};

/// Rows the sort buffers at minimum before budget pressure forces a spill
/// run (the sort's bounded uncharged working-set floor). The sort's other
/// uncharged working sets are per sorted row: the `(batch, row)` index
/// vector (8 bytes, held until the last output batch) and the radix path's
/// second index buffer (8 bytes, freed before the first:
/// [`SortBuffer::radix_sorted`]).
const MIN_RUN_ROWS: usize = BATCH_SIZE;

// ---------------------------------------------------------------------------
// Keyed rows, spilled runs, and comparators
// ---------------------------------------------------------------------------

/// One row in sort-merge form: its evaluated key, its global input ordinal
/// (the stable tie-break), and the payload row.
type KeyedRow = (Value, u64, Row);

/// The next row of a spilled run, whose records are `[key, ordinal] ++
/// row`; a shorter record means the spill file was corrupted on disk.
fn next_keyed(run: &mut SpillReader) -> Result<Option<KeyedRow>> {
    let Some(mut record) = run.next_row()? else {
        return Ok(None);
    };
    if record.len() < 2 {
        return Err(Error::Internal("spilled sort record missing its key or ordinal".into()));
    }
    let row = record.split_off(2);
    let ord = record[1].as_i64()? as u64;
    let key = record.swap_remove(0);
    Ok(Some((key, ord, row)))
}

/// The buffered consume-phase state: input batches plus their evaluated key
/// columns, kept columnar so the comparator can read primitive slices.
struct SortBuffer {
    batches: Vec<RowBatch>,
    /// The evaluated key column of each batch, aligned with `batches`.
    keys: Vec<ColumnRef>,
    rows: usize,
}

impl SortBuffer {
    fn new() -> Self {
        SortBuffer { batches: Vec::new(), keys: Vec::new(), rows: 0 }
    }

    fn push(&mut self, batch: RowBatch, key_col: ColumnRef) {
        self.rows += batch.num_rows();
        self.batches.push(batch);
        self.keys.push(key_col);
    }

    fn clear(&mut self) {
        self.batches.clear();
        self.keys.clear();
        self.rows = 0;
    }

    /// Global ordinal of each batch's first row (prefix sums of batch sizes).
    fn prefix_rows(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.batches
            .iter()
            .map(|b| {
                let start = acc;
                acc += b.num_rows() as u64;
                start
            })
            .collect()
    }

    /// Compare the keys of rows `a` and `b` (as `(batch, row)` pairs) on
    /// their lane, which every batch shares.
    fn cmp_at(&self, a: (u32, u32), b: (u32, u32)) -> Ordering {
        let (ka, kb) = (&*self.keys[a.0 as usize], &*self.keys[b.0 as usize]);
        let (ia, ib) = (a.1 as usize, b.1 as usize);
        match (ka, kb) {
            (Column::Int(va), Column::Int(vb)) => va[ia].cmp(&vb[ib]),
            (Column::Float(va), Column::Float(vb)) => {
                va[ia].partial_cmp(&vb[ib]).unwrap_or(Ordering::Equal)
            }
            (Column::Big(va), Column::Big(vb)) => va[ia].cmp_value(&vb[ib]),
            (Column::Text(va), Column::Text(vb)) => va[ia].cmp(&vb[ib]),
            _ => unreachable!("a sort key holds one lane"),
        }
    }

    /// Stable sort of all buffered rows: `(batch, row)` indices in sort
    /// order, ties resolved to input order. A key on the `Int` lane of every
    /// batch takes the radix path ([`Self::radix_sorted`]); any other the
    /// comparator. The flag says whether radix sorted.
    fn sorted_indices(&self) -> (Vec<(u32, u32)>, bool) {
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(self.rows);
        for (b, batch) in self.batches.iter().enumerate() {
            for r in 0..batch.num_rows() {
                order.push((b as u32, r as u32));
            }
        }
        if self.keys.iter().all(|k| matches!(**k, Column::Int(_))) {
            return (self.radix_sorted(order), true);
        }
        order.sort_by(|&a, &b| self.cmp_at(a, b));
        (order, false)
    }

    /// Stable LSD radix sort of `order` (input order) by the `Int` key. A
    /// key's radix image is its order-preserving `u64` (`k ^ 1 << 63`);
    /// digits are 8 bits, least significant
    /// first, and a digit every key shares is skipped (a 14-qubit state
    /// sorts in 2 passes, not 8). Each pass is a counting scatter that
    /// keeps the order of equal digits, so ties keep input order: the
    /// comparator's order exactly. Digit counts come from a sequential
    /// sweep of the key columns (they do not depend on the order); the
    /// scatter reads each image through the index, so the scratch is one
    /// second index buffer, 8 bytes a row, freed on return.
    fn radix_sorted(&self, mut order: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        let keys: Vec<&[i64]> = self
            .keys
            .iter()
            .map(|col| match &**col {
                Column::Int(v) => v.as_slice(),
                _ => unreachable!("lane detection checked Int"),
            })
            .collect();
        let flip = 1u64 << 63;
        let image = |(b, r): (u32, u32)| keys[b as usize][r as usize] as u64 ^ flip;
        let images = || keys.iter().flat_map(|v| v.iter()).map(|&k| k as u64 ^ flip);
        let (all, any) = images().fold((u64::MAX, 0), |(all, any), k| (all & k, any | k));
        let varying = all ^ any;
        let mut out = vec![(0u32, 0u32); order.len()];
        for shift in (0..64).step_by(8).filter(|s| (varying >> s) & 0xFF != 0) {
            let mut offsets = [0usize; 256];
            for k in images() {
                offsets[(k >> shift) as usize & 0xFF] += 1;
            }
            let mut start = 0;
            for slot in offsets.iter_mut() {
                (*slot, start) = (start, start + *slot);
            }
            for &at in &order {
                let d = (image(at) >> shift) as usize & 0xFF;
                out[offsets[d]] = at;
                offsets[d] += 1;
            }
            std::mem::swap(&mut order, &mut out);
        }
        order
    }
}

/// Gather column `c` of the buffered batches at the (batch, row) positions
/// in `idx` — the cross-batch dual of [`Column::gather`]. Every batch holds
/// column `c` in one lane.
fn gather_column(batches: &[RowBatch], c: usize, idx: &[(u32, u32)]) -> Column {
    let col = |b: u32| batches[b as usize].column(c);
    macro_rules! gather {
        ($lane:ident) => {
            Column::$lane(
                (idx.iter())
                    .map(|&(b, r)| match col(b) {
                        Column::$lane(v) => v[r as usize].clone(),
                        _ => unreachable!("a column holds one lane"),
                    })
                    .collect(),
            )
        };
    }
    match col(idx[0].0) {
        Column::Int(_) => gather!(Int),
        Column::Float(_) => gather!(Float),
        Column::Big(_) => gather!(Big),
        Column::Text(_) => gather!(Text),
    }
}

/// Entry of the k-way run merge (min-heap via reversed `Ord`).
struct MergeEntry {
    key: Value,
    ord: u64,
    row: Row,
    src: usize,
}

impl PartialEq for MergeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for MergeEntry {}

impl PartialOrd for MergeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MergeEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse for ascending merge output. The
        // ordinal tie-break reproduces the stable in-memory order exactly.
        self.key.cmp_total(&other.key).then(self.ord.cmp(&other.ord)).reverse()
    }
}

// ---------------------------------------------------------------------------
// The operator
// ---------------------------------------------------------------------------

/// The vectorized sort operator (see the module docs for the design).
pub struct BatchSort {
    /// The input, until consume takes it.
    input: Option<Box<dyn BatchStream>>,
    key: BoundExpr,
    ctx: ExecContext,
    /// Instrumentation slot, relabelled when the radix path sorts.
    slot: Option<usize>,
    reservation: Reservation,
    state: SortState,
}

enum SortState {
    Pending,
    /// Everything fit in memory: buffered batches plus the sorted order.
    Mem { buffer: SortBuffer, order: Vec<(u32, u32)>, pos: usize },
    /// Merging the spilled runs.
    Merge { sources: Vec<SpillReader>, heap: BinaryHeap<MergeEntry> },
    Done,
}

impl BatchSort {
    /// Sort `input` by `key`; `slot` is the node's `EXPLAIN ANALYZE` slot.
    pub fn new(
        input: Box<dyn BatchStream>,
        key: BoundExpr,
        ctx: ExecContext,
        slot: Option<usize>,
    ) -> Self {
        let reservation = Reservation::empty(&ctx.budget);
        let state = SortState::Pending;
        BatchSort { input: Some(input), key, ctx, slot, reservation, state }
    }

    /// Sort the buffered rows (see [`SortBuffer::sorted_indices`]); the
    /// node's label names the radix path when it ran.
    fn sort_buffer(&self, buffer: &SortBuffer) -> Vec<(u32, u32)> {
        let (order, radix) = buffer.sorted_indices();
        if radix {
            set_node_label(&self.ctx, self.slot, "BatchSort [1 keys, radix]".to_string());
        }
        order
    }

    /// Buffer the input columnar, spilling sorted runs when the reservation
    /// cannot grow. The batch whose charge fails is still buffered before
    /// the spill (a bounded one-batch overdraft), so a budget below one
    /// batch cannot wedge the pipeline.
    fn consume(&mut self) -> Result<()> {
        let Some(mut input) = self.input.take() else {
            unreachable!("sort executed twice")
        };
        let mut buffer = SortBuffer::new();
        let mut runs: Vec<SpillReader> = Vec::new();
        let mut base_ord = 0u64;

        while let Some(batch) = input.next_batch()? {
            let key_col = self.key.eval_batch(&batch)?;
            let bytes = batch.columns().iter().map(|c| c.heap_bytes()).sum::<usize>()
                + key_col.heap_bytes();
            let fits = self.reservation.try_grow(bytes);
            buffer.push(batch, key_col);
            if !fits && buffer.rows >= MIN_RUN_ROWS {
                let spilled = buffer.rows as u64;
                runs.push(self.spill_run(&mut buffer, base_ord)?);
                base_ord += spilled;
            }
        }

        if runs.is_empty() {
            let order = self.sort_buffer(&buffer);
            self.state = SortState::Mem { buffer, order, pos: 0 };
            return Ok(());
        }
        // Spill the residue so the merge phase is uniform.
        if buffer.rows > 0 {
            runs.push(self.spill_run(&mut buffer, base_ord)?);
        }
        self.start_merge(runs)
    }

    /// Sort and spill the buffered rows as one run of
    /// `[key, ordinal, row…]` records; ordinals start at `base_ord`.
    fn spill_run(&mut self, buffer: &mut SortBuffer, base_ord: u64) -> Result<SpillReader> {
        // One spill run is one cancellation unit: observe cancel before
        // sorting/writing so no doomed run is ever created.
        self.ctx.query.check()?;
        let order = self.sort_buffer(buffer);
        let prefix = buffer.prefix_rows();
        let mut w = SpillWriter::create(&self.ctx.spill, 1)?;
        for &(b, r) in &order {
            let batch = &buffer.batches[b as usize];
            let mut record: Row = Vec::with_capacity(2 + batch.num_columns());
            record.push(buffer.keys[b as usize].value_at(r as usize));
            record.push(Value::Int((base_ord + prefix[b as usize] + r as u64) as i64));
            for c in 0..batch.num_columns() {
                record.push(batch.column(c).value_at(r as usize));
            }
            w.write_row(0, &record)?;
        }
        buffer.clear();
        self.reservation.free();
        w.into_reader()
    }

    /// Seed the k-way merge heap with each source's first row.
    fn start_merge(&mut self, mut sources: Vec<SpillReader>) -> Result<()> {
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some((key, ord, row)) = next_keyed(src)? {
                heap.push(MergeEntry { key, ord, row, src: i });
            }
        }
        self.state = SortState::Merge { sources, heap };
        Ok(())
    }

    /// Emit the next output batch from whatever state the sort is in.
    fn drain_batch(&mut self) -> Result<Option<RowBatch>> {
        match &mut self.state {
            SortState::Mem { buffer, order, pos } => {
                if *pos >= order.len() {
                    return Ok(None);
                }
                let ncols = buffer.batches[0].num_columns();
                let end = (*pos + BATCH_SIZE).min(order.len());
                let slice = &order[*pos..end];
                let cols: Vec<Column> =
                    (0..ncols).map(|c| gather_column(&buffer.batches, c, slice)).collect();
                *pos = end;
                Ok(Some(RowBatch::from_columns(cols)))
            }
            SortState::Merge { sources, heap } => {
                let mut rows: Vec<Row> = Vec::with_capacity(BATCH_SIZE);
                while rows.len() < BATCH_SIZE {
                    let Some(entry) = heap.pop() else { break };
                    // Refill from the source the popped row came from.
                    if let Some((key, ord, row)) = next_keyed(&mut sources[entry.src])? {
                        heap.push(MergeEntry { key, ord, row, src: entry.src });
                    }
                    rows.push(entry.row);
                }
                if rows.is_empty() {
                    Ok(None)
                } else {
                    RowBatch::from_owned_rows(rows).map(Some)
                }
            }
            SortState::Pending | SortState::Done => Ok(None),
        }
    }
}

impl BatchStream for BatchSort {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        loop {
            match &self.state {
                SortState::Pending => self.consume()?,
                SortState::Done => return Ok(None),
                _ => match self.drain_batch()? {
                    Some(batch) => return Ok(Some(batch)),
                    None => {
                        self.reservation.free();
                        self.state = SortState::Done;
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{batches_of, ctx, ctx_with_budget, drain_batches, int_rows};
    use super::*;

    fn run_sort(rows: Vec<Row>, ctx: ExecContext) -> Vec<Row> {
        let sort = BatchSort::new(batches_of(rows), BoundExpr::Column(0), ctx, None);
        drain_batches(Box::new(sort))
    }

    #[test]
    fn in_memory_ascending() {
        let rows = int_rows(&[3, 1, 2]);
        assert_eq!(run_sort(rows, ctx()), int_rows(&[1, 2, 3]));
    }

    #[test]
    fn float_text_and_hugeint_keys_sort_by_value() {
        let floats: Vec<Row> = [2.5, -1.0, 0.5].iter().map(|&f| vec![Value::Float(f)]).collect();
        let out = run_sort(floats, ctx());
        assert_eq!(out, [-1.0, 0.5, 2.5].map(|f| vec![Value::Float(f)]));
        let text: Vec<Row> = ["b", "", "ab"].iter().map(|&t| vec![Value::Str(t.into())]).collect();
        let out = run_sort(text, ctx());
        assert_eq!(out, ["", "ab", "b"].map(|t| vec![Value::Str(t.into())]));
        let big = |k: u64| crate::bigbits::BigBits::from_u64(k, 70);
        let hugeints = vec![vec![Value::Big(big(2).shl(66))], vec![Value::Big(big(3))], vec![Value::Big(big(2))]];
        let out = run_sort(hugeints, ctx());
        let want = [big(2), big(3), big(2).shl(66)].map(|b| vec![Value::Big(b)]);
        assert_eq!(format!("{out:?}"), format!("{want:?}"));
    }

    #[test]
    fn ties_keep_input_order() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(0), Value::Int(20)],
            vec![Value::Int(1), Value::Int(30)],
        ];
        let out = run_sort(rows, ctx());
        assert_eq!(out[0][1], Value::Int(20));
        // Stable: the two key-1 rows keep their input order.
        assert_eq!(out[1][1], Value::Int(10));
        assert_eq!(out[2][1], Value::Int(30));
    }

    #[test]
    fn external_sort_matches_in_memory() {
        let vals: Vec<i64> = (0..20_000).map(|i| (i * 48_271) % 65_537).collect();
        let rows = int_rows(&vals);
        let tight = ctx_with_budget(64 * 1024);
        let spill = tight.spill.clone();
        let external = run_sort(rows.clone(), tight);
        assert!(spill.files_created() > 1, "expected multiple runs");
        let in_mem = run_sort(rows, ctx());
        assert_eq!(external, in_mem);
        let mut expected = vals.clone();
        expected.sort_unstable();
        assert_eq!(external, int_rows(&expected));
    }

    #[test]
    fn tiny_budget_still_sorts_via_overdraft() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 7919) % 1000).collect();
        let out = run_sort(int_rows(&vals), ctx_with_budget(10));
        let mut expected = vals.clone();
        expected.sort_unstable();
        assert_eq!(out, int_rows(&expected));
    }

    #[test]
    fn empty_input() {
        assert!(run_sort(vec![], ctx()).is_empty());
    }
}
