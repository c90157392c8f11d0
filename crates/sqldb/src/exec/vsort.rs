//! Vectorized sorting for the batch pipeline.
//!
//! `ORDER BY s` closes every Qymera query (states render in basis-state
//! order), so the sort is the last operator every result crosses.
//! [`BatchSort`] is built around:
//!
//! * **Columnar sort keys.** Key expressions evaluate per input batch with
//!   the [`BoundExpr::eval_batch`] kernels, and the comparator reads typed
//!   `i64`/`f64` fast lanes whenever every buffered batch carries a key in
//!   the same null-free lane — no per-comparison [`Value`] materialization
//!   on the hot path. Mixed/NULL/text keys fall back to
//!   [`Value::cmp_total`], the ordering the typed lanes reproduce.
//! * **Radix for one integer key.** `ORDER BY s` over the `Int` lane skips
//!   the comparator: a stable LSD radix sort on the key's order-preserving
//!   `u64` image, skipping digits every key shares.
//! * **Stable multi-key order.** The in-memory sort is a stable index sort,
//!   and every spilled record carries its global input ordinal, so ties
//!   always resolve to input order — sequential and parallel runs produce
//!   the same byte-for-byte output.
//! * **Spill-to-run merge.** Buffered batches charge the shared
//!   [`MemoryBudget`](crate::storage::budget::MemoryBudget) through an RAII
//!   [`Reservation`]; when the reservation cannot grow, the buffer is sorted
//!   and written out as a run (`[keys…, ordinal, row…]` records in the
//!   standard spill format), and runs merge through a k-way heap.
//! * **Top-k.** `ORDER BY … LIMIT k` (small k, pushed down by the planner)
//!   keeps a bounded k-row heap instead of buffering the input — the
//!   measurement queries' "most probable states first, LIMIT k" shape never
//!   materializes the full state.
//! * **Morsel parallelism.** When the input is a parallelizable segment
//!   (see [`super::parallel`]), workers sort their statically-strided
//!   morsels into per-worker runs (spilling privately under pressure) and
//!   the coordinator merges the runs at the breaker; the ordinal tie-break
//!   makes the merged output identical to the sequential sort's.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::logical::{Plan, SortKey};
use crate::storage::budget::Reservation;
use crate::storage::spill::{row_bytes, Row, SpillReader, SpillWriter};
use crate::value::Value;

use super::batch::{Column, ColumnRef, RowBatch, BATCH_SIZE};
use super::parallel::{self, Segment};
use super::vector::{build_batch_stream_at, BatchStream};
use super::{set_node_label, ExecContext};

/// Largest `LIMIT + OFFSET` the planner turns into a top-k heap. Beyond
/// this the full sort (with spilling) is the better strategy anyway, and
/// the bound keeps the heap's working set small enough that the best-effort
/// budget charge cannot meaningfully overshoot.
pub(crate) const TOPK_MAX_ROWS: usize = 8192;

/// Rows a worker buffers at minimum before budget pressure forces a spill
/// run (the sort's bounded uncharged working-set floor). The sort's other
/// uncharged working sets are per sorted row: the `(batch, row)` index
/// vector (8 bytes, held until the last output batch) and the radix path's
/// second index buffer (8 bytes, freed before the first:
/// [`SortBuffer::radix_sorted`]).
const MIN_RUN_ROWS: usize = BATCH_SIZE;

/// Compare two evaluated key tuples under per-key ASC/DESC flags (spilled
/// records carry their keys as values; the run merge orders them with this).
fn cmp_keys(a: &[Value], b: &[Value], desc: &[bool]) -> Ordering {
    for ((x, y), d) in a.iter().zip(b.iter()).zip(desc.iter()) {
        let ord = x.cmp_total(y);
        let ord = if *d { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Build the vectorized sort stream for a `Plan::Sort` node whose
/// instrumentation slot the caller already registered. `topk` is
/// `Some(limit + offset)` when the planner pushed a small `LIMIT` down into
/// the sort. Parallel-eligible inputs run morsel-parallel with per-worker
/// sort runs merged at the breaker.
pub(crate) fn build_sort_stream(
    input: &Plan,
    keys: &[SortKey],
    topk: Option<usize>,
    catalog: &Catalog,
    ctx: &ExecContext,
    depth: usize,
    slot: Option<usize>,
) -> Result<Box<dyn BatchStream>> {
    let label = match topk {
        Some(k) => format!("TopKSort [{} keys, k={k}]", keys.len()),
        None => format!("BatchSort [{} keys]", keys.len()),
    };
    set_node_label(ctx, slot, label);
    if parallel::parallel_eligible(input, catalog, ctx) {
        let segment = parallel::descend_segment(input, catalog, ctx, depth)?;
        let workers = ctx.parallelism.min(segment.num_morsels());
        parallel::note_parallel(ctx, slot, workers, segment.num_morsels());
        let mut sort = BatchSort::new_parallel(segment, keys.to_vec(), topk, ctx.clone());
        sort.slot = slot;
        return Ok(Box::new(sort));
    }
    let child = build_batch_stream_at(input, catalog, ctx, depth + 1)?;
    let mut sort = BatchSort::new(child, keys.to_vec(), topk, ctx.clone());
    sort.slot = slot;
    Ok(Box::new(sort))
}

// ---------------------------------------------------------------------------
// Keyed rows, run sources, and comparators
// ---------------------------------------------------------------------------

/// One row in sort-merge form: its evaluated key tuple, its global input
/// ordinal (the stable tie-break), and the payload row.
pub(crate) type KeyedRow = (Vec<Value>, u64, Row);

/// One worker's partial sort result: its sorted in-memory residue, any
/// spill runs it wrote under budget pressure, and the reservation charging
/// the residue (adopted by the coordinator at the merge).
pub(crate) struct WorkerSort {
    pub(crate) mem: Vec<KeyedRow>,
    pub(crate) runs: Vec<SpillReader>,
    pub(crate) reservation: Reservation,
}

/// A sorted stream of [`KeyedRow`]s feeding the k-way merge: either an
/// in-memory run (a worker's residue or a top-k result) or a spilled run.
enum RunSource {
    Mem(std::vec::IntoIter<KeyedRow>),
    Spill(SpillReader),
}

impl RunSource {
    fn next(&mut self, key_len: usize) -> Result<Option<KeyedRow>> {
        match self {
            RunSource::Mem(iter) => Ok(iter.next()),
            RunSource::Spill(reader) => match reader.next_row()? {
                Some(mut record) => {
                    // A spilled record is `key ++ [ordinal] ++ row`; a shorter
                    // record means the spill file was corrupted on disk.
                    if record.len() <= key_len {
                        return Err(Error::Internal(
                            "spilled sort record shorter than its key".into(),
                        ));
                    }
                    let row = record.split_off(key_len + 1);
                    let ord = match record.pop() {
                        Some(v) => v.as_i64()? as u64,
                        None => {
                            return Err(Error::Internal(
                                "spilled sort record missing its ordinal".into(),
                            ))
                        }
                    };
                    Ok(Some((record, ord, row)))
                }
                None => Ok(None),
            },
        }
    }
}

/// Per-key comparator lane across all buffered batches: typed when every
/// batch carries the key in the same null-free fast lane.
#[derive(Clone, Copy, PartialEq)]
enum KeyLane {
    Int,
    Float,
    Generic,
}

/// The buffered consume-phase state: input batches plus their evaluated key
/// columns, kept columnar so the comparator can read primitive slices.
struct SortBuffer {
    batches: Vec<RowBatch>,
    /// `keys[batch][key]` — evaluated key columns, aligned with `batches`.
    keys: Vec<Vec<ColumnRef>>,
    rows: usize,
}

impl SortBuffer {
    fn new() -> Self {
        SortBuffer { batches: Vec::new(), keys: Vec::new(), rows: 0 }
    }

    fn push(&mut self, batch: RowBatch, key_cols: Vec<ColumnRef>) {
        self.rows += batch.num_rows();
        self.batches.push(batch);
        self.keys.push(key_cols);
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

    /// Detect the comparator lane of key `j` across every buffered batch.
    fn lane_of(&self, j: usize) -> KeyLane {
        let mut lane: Option<KeyLane> = None;
        for cols in &self.keys {
            let this = match &*cols[j] {
                Column::Int(_) => KeyLane::Int,
                Column::Float(_) => KeyLane::Float,
                Column::Generic(_) => KeyLane::Generic,
            };
            match lane {
                None => lane = Some(this),
                Some(l) if l == this => {}
                Some(_) => return KeyLane::Generic,
            }
        }
        lane.unwrap_or(KeyLane::Generic)
    }

    /// Compare rows `a` and `b` (as `(batch, row)` pairs) under the per-key
    /// lanes and ASC/DESC flags. Typed lanes compare primitives directly;
    /// the generic lane is [`Value::cmp_total`] over borrowed values (a
    /// `HUGEINT` key is never cloned to be compared), so the order does not
    /// depend on which lane a key landed in.
    fn cmp_at(&self, lanes: &[KeyLane], desc: &[bool], a: (u32, u32), b: (u32, u32)) -> Ordering {
        for (j, (&lane, &d)) in lanes.iter().zip(desc).enumerate() {
            let (ka, kb) = (&self.keys[a.0 as usize][j], &self.keys[b.0 as usize][j]);
            let ord = match lane {
                KeyLane::Int => {
                    let (Column::Int(va), Column::Int(vb)) = (&**ka, &**kb) else {
                        unreachable!("lane detection checked Int")
                    };
                    va[a.1 as usize].cmp(&vb[b.1 as usize])
                }
                KeyLane::Float => {
                    let (Column::Float(va), Column::Float(vb)) = (&**ka, &**kb) else {
                        unreachable!("lane detection checked Float")
                    };
                    va[a.1 as usize]
                        .partial_cmp(&vb[b.1 as usize])
                        .unwrap_or(Ordering::Equal)
                }
                KeyLane::Generic => {
                    key_ref(ka, a.1 as usize).cmp_total(&key_ref(kb, b.1 as usize))
                }
            };
            let ord = if d { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Stable sort of all buffered rows: `(batch, row)` indices in sort
    /// order, ties resolved to input order. A single key on the `Int` lane
    /// of every batch takes the radix path ([`Self::radix_sorted`]); any
    /// other key list the comparator. The flag says whether radix sorted.
    fn sorted_indices(&self, desc: &[bool]) -> (Vec<(u32, u32)>, bool) {
        let lanes: Vec<KeyLane> = (0..desc.len()).map(|j| self.lane_of(j)).collect();
        let mut order: Vec<(u32, u32)> = Vec::with_capacity(self.rows);
        for (b, batch) in self.batches.iter().enumerate() {
            for r in 0..batch.num_rows() {
                order.push((b as u32, r as u32));
            }
        }
        if lanes == [KeyLane::Int] {
            return (self.radix_sorted(order, desc[0]), true);
        }
        order.sort_by(|&a, &b| self.cmp_at(&lanes, desc, a, b));
        (order, false)
    }

    /// Stable LSD radix sort of `order` (input order) by the one `Int` key.
    /// A key's radix image is its order-preserving `u64` (`k ^ 1 << 63`,
    /// every bit flipped for DESC); digits are 8 bits, least significant
    /// first, and a digit every key shares is skipped (a 14-qubit state
    /// sorts in 2 passes, not 8). Each pass is a counting scatter that
    /// keeps the order of equal digits, so ties keep input order: the
    /// comparator's order exactly. Digit counts come from a sequential
    /// sweep of the key columns (they do not depend on the order); the
    /// scatter reads each image through the index, so the scratch is one
    /// second index buffer, 8 bytes a row, freed on return.
    fn radix_sorted(&self, mut order: Vec<(u32, u32)>, desc: bool) -> Vec<(u32, u32)> {
        let keys: Vec<&[i64]> = self
            .keys
            .iter()
            .map(|cols| match &*cols[0] {
                Column::Int(v) => v.as_slice(),
                _ => unreachable!("lane detection checked Int"),
            })
            .collect();
        let flip = if desc { !(1u64 << 63) } else { 1 << 63 };
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

/// Key `i` of `col` for the generic comparator lane: borrowed when the
/// column holds values, built only for a typed lane (no heap allocation).
fn key_ref(col: &Column, i: usize) -> Cow<'_, Value> {
    match col {
        Column::Generic(v) => Cow::Borrowed(&v[i]),
        typed => Cow::Owned(typed.value_at(i)),
    }
}

/// Gather column `c` of the buffered batches at the (batch, row) positions
/// in `idx` — the cross-batch dual of [`Column::gather`], keeping the typed
/// lane when every source batch carries it (the sorted-output hot path
/// never boxes a [`Value`] then).
fn gather_column(batches: &[RowBatch], c: usize, idx: &[(u32, u32)]) -> Column {
    let (mut all_int, mut all_float) = (true, true);
    for b in batches {
        match b.column(c) {
            Column::Int(_) => all_float = false,
            Column::Float(_) => all_int = false,
            Column::Generic(_) => {
                all_int = false;
                all_float = false;
            }
        }
    }
    if all_int {
        return Column::Int(
            idx.iter()
                .map(|&(b, r)| {
                    let Column::Int(v) = batches[b as usize].column(c) else {
                        unreachable!("checked Int lane")
                    };
                    v[r as usize]
                })
                .collect(),
        );
    }
    if all_float {
        return Column::Float(
            idx.iter()
                .map(|&(b, r)| {
                    let Column::Float(v) = batches[b as usize].column(c) else {
                        unreachable!("checked Float lane")
                    };
                    v[r as usize]
                })
                .collect(),
        );
    }
    Column::Generic(
        idx.iter().map(|&(b, r)| batches[b as usize].column(c).value_at(r as usize)).collect(),
    )
}

/// Entry of the k-way run merge (min-heap via reversed `Ord`).
struct MergeEntry {
    key: Vec<Value>,
    ord: u64,
    row: Row,
    src: usize,
    desc: Arc<Vec<bool>>,
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
        cmp_keys(&self.key, &other.key, &self.desc)
            .then(self.ord.cmp(&other.ord))
            .reverse()
    }
}

/// Entry of the bounded top-k heap (max-heap: the worst retained row on top).
struct TopEntry {
    key: Vec<Value>,
    ord: u64,
    row: Row,
    bytes: usize,
    desc: Arc<Vec<bool>>,
}

impl PartialEq for TopEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for TopEntry {}

impl PartialOrd for TopEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TopEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_keys(&self.key, &other.key, &self.desc).then(self.ord.cmp(&other.ord))
    }
}

/// Offer one row to a bounded top-k heap, evicting the worst retained entry
/// when full. The reservation charge is best-effort (bounded by `k` rows).
fn offer_topk(
    heap: &mut BinaryHeap<TopEntry>,
    k: usize,
    key: Vec<Value>,
    ord: u64,
    row: impl FnOnce() -> Row,
    desc: &Arc<Vec<bool>>,
    reservation: &mut Reservation,
) {
    if heap.len() == k {
        // Reject without materializing the row when it cannot beat the
        // current worst (the common case on mostly-sorted input).
        // SAFETY of expect: `heap.len() == k` and `k >= 1` (LIMIT 0 returns
        // before building a heap), so peek/pop cannot observe an empty heap.
        let worst = heap.peek().expect("heap is full");
        if cmp_keys(&key, &worst.key, desc).then(ord.cmp(&worst.ord)) != Ordering::Less {
            return;
        }
        let evicted = heap.pop().expect("heap is full");
        reservation.shrink(evicted.bytes);
    }
    let row = row();
    let bytes = row_bytes(&row) + row_bytes(&key) + 48;
    let _ = reservation.try_grow(bytes); // best-effort, bounded by k
    heap.push(TopEntry { key, ord, row, bytes, desc: Arc::clone(desc) });
}

// ---------------------------------------------------------------------------
// Morsel-parallel sort workers
// ---------------------------------------------------------------------------

/// Per-worker consume state for the morsel-parallel sort (driven by
/// [`parallel::run_sort_workers`]). Each worker evaluates sort keys with
/// the batch kernels over its strided morsels, tags every row with a global
/// ordinal (`morsel << 32 | position`, so merged ties still resolve to
/// sequential input order), and either accumulates a buffer that spills
/// sorted runs under budget pressure, or keeps a bounded top-k heap.
pub(crate) struct SortWorker {
    key_exprs: Vec<BoundExpr>,
    desc: Arc<Vec<bool>>,
    topk: Option<usize>,
    spill: Arc<crate::storage::spill::SpillDir>,
    mem: Vec<KeyedRow>,
    heap: BinaryHeap<TopEntry>,
    runs: Vec<SpillReader>,
    reservation: Reservation,
    /// Per-spill-run cancellation checks (the governance token is `Sync`,
    /// unlike the full context).
    query: super::govern::QueryContext,
    /// Next ordinal to assign (advanced per row, rebased per morsel).
    ord: u64,
}

impl SortWorker {
    /// A fresh worker charging `budget` and spilling into `spill` (passed
    /// individually because workers run on threads and the full
    /// [`ExecContext`] is not `Sync`).
    pub(crate) fn new(
        keys: &[SortKey],
        desc: &Arc<Vec<bool>>,
        topk: Option<usize>,
        budget: &crate::storage::budget::MemoryBudget,
        spill: &Arc<crate::storage::spill::SpillDir>,
        query: &super::govern::QueryContext,
    ) -> Self {
        SortWorker {
            key_exprs: keys.iter().map(|k| k.expr.clone()).collect(),
            desc: Arc::clone(desc),
            topk,
            spill: Arc::clone(spill),
            mem: Vec::new(),
            heap: BinaryHeap::new(),
            runs: Vec::new(),
            reservation: Reservation::empty(budget),
            query: query.clone(),
            ord: 0,
        }
    }

    /// Rebase ordinals for morsel `i` (call before its first batch). The
    /// 32-bit intra-morsel field is far beyond any reachable per-morsel
    /// output: segment admission caps the cumulative join fan-out at 64×
    /// a 1024-row chunk (see `MAX_PARALLEL_FANOUT`), i.e. 2^16 rows.
    pub(crate) fn begin_morsel(&mut self, morsel: usize) {
        self.ord = (morsel as u64) << 32;
    }

    /// Consume one batch a morsel produced: evaluate keys vectorized, then
    /// fold every row into the buffer or the top-k heap.
    pub(crate) fn consume_batch(&mut self, batch: &RowBatch) -> Result<()> {
        let key_cols: Vec<ColumnRef> = self
            .key_exprs
            .iter()
            .map(|e| e.eval_batch(batch))
            .collect::<Result<Vec<_>>>()?;
        for r in 0..batch.num_rows() {
            let key: Vec<Value> = key_cols.iter().map(|c| c.value_at(r)).collect();
            let ord = self.ord;
            self.ord += 1;
            match self.topk {
                Some(k) => {
                    offer_topk(
                        &mut self.heap,
                        k,
                        key,
                        ord,
                        || batch.row(r),
                        &self.desc,
                        &mut self.reservation,
                    );
                }
                None => {
                    let row = batch.row(r);
                    let bytes = row_bytes(&row) + row_bytes(&key) + 32;
                    if !self.reservation.try_grow(bytes) && self.mem.len() >= MIN_RUN_ROWS {
                        self.spill_worker_run()?;
                    }
                    self.mem.push((key, ord, row));
                }
            }
        }
        Ok(())
    }

    /// Sort the buffer by `(key, ordinal)` and write it out as one run.
    fn spill_worker_run(&mut self) -> Result<()> {
        // Cancel is observed before the run is sorted and written — a
        // cancelled worker never pays for (or leaks) a doomed spill file.
        self.query.check()?;
        let desc = Arc::clone(&self.desc);
        self.mem
            .sort_unstable_by(|a, b| cmp_keys(&a.0, &b.0, &desc).then(a.1.cmp(&b.1)));
        let mut w = SpillWriter::create(&self.spill, 1)?;
        for (key, ord, row) in self.mem.drain(..) {
            let mut record = key;
            record.push(Value::Int(ord as i64));
            record.extend(row);
            w.write_row(0, &record)?;
        }
        self.reservation.free();
        self.runs.push(w.into_reader()?);
        Ok(())
    }

    /// Seal the worker: the residue (or the top-k result) sorted by
    /// `(key, ordinal)`, ready for the coordinator's k-way merge.
    pub(crate) fn finish(mut self) -> WorkerSort {
        let desc = Arc::clone(&self.desc);
        if self.topk.is_some() {
            self.mem = self
                .heap
                .into_sorted_vec()
                .into_iter()
                .map(|e| (e.key, e.ord, e.row))
                .collect();
        } else {
            self.mem
                .sort_unstable_by(|a, b| cmp_keys(&a.0, &b.0, &desc).then(a.1.cmp(&b.1)));
        }
        WorkerSort { mem: self.mem, runs: self.runs, reservation: self.reservation }
    }
}

// ---------------------------------------------------------------------------
// The operator
// ---------------------------------------------------------------------------

/// The vectorized sort operator (see the module docs for the design).
pub struct BatchSort {
    input: SortInput,
    keys: Vec<SortKey>,
    desc: Arc<Vec<bool>>,
    /// `Some(k)`: retain only the first `k` rows of the sorted order.
    topk: Option<usize>,
    ctx: ExecContext,
    /// Instrumentation slot, relabelled when the radix path sorts.
    slot: Option<usize>,
    reservation: Reservation,
    state: SortState,
}

enum SortInput {
    Stream(Box<dyn BatchStream>),
    Parallel(Segment),
    Consumed,
}

enum SortState {
    Pending,
    /// Everything fit in memory: buffered batches plus the sorted order.
    Mem { buffer: SortBuffer, order: Vec<(u32, u32)>, pos: usize },
    /// Merging sorted runs (worker residues and spilled runs alike).
    Merge { sources: Vec<RunSource>, heap: BinaryHeap<MergeEntry> },
    /// A fully materialized sorted prefix (the top-k result).
    Rows { rows: std::vec::IntoIter<Row> },
    Done,
}

impl BatchSort {
    /// Sort `input` by `keys`; `topk` caps the retained rows (planner-pushed
    /// `LIMIT + OFFSET`).
    pub fn new(
        input: Box<dyn BatchStream>,
        keys: Vec<SortKey>,
        topk: Option<usize>,
        ctx: ExecContext,
    ) -> Self {
        Self::with_input(SortInput::Stream(input), keys, topk, ctx)
    }

    /// Sort a morsel-parallel segment (per-worker runs merged here).
    pub(crate) fn new_parallel(
        segment: Segment,
        keys: Vec<SortKey>,
        topk: Option<usize>,
        ctx: ExecContext,
    ) -> Self {
        Self::with_input(SortInput::Parallel(segment), keys, topk, ctx)
    }

    fn with_input(
        input: SortInput,
        keys: Vec<SortKey>,
        topk: Option<usize>,
        ctx: ExecContext,
    ) -> Self {
        let desc = Arc::new(keys.iter().map(|k| k.desc).collect::<Vec<_>>());
        let reservation = Reservation::empty(&ctx.budget);
        let state = SortState::Pending;
        BatchSort { input, keys, desc, topk, ctx, slot: None, reservation, state }
    }

    /// Sort the buffered rows (see [`SortBuffer::sorted_indices`]); the
    /// node's label names the radix path when it ran.
    fn sort_buffer(&self, buffer: &SortBuffer) -> Vec<(u32, u32)> {
        let (order, radix) = buffer.sorted_indices(&self.desc);
        if radix {
            set_node_label(&self.ctx, self.slot, "BatchSort [1 keys, radix]".to_string());
        }
        order
    }

    fn consume(&mut self) -> Result<()> {
        match std::mem::replace(&mut self.input, SortInput::Consumed) {
            SortInput::Stream(s) => match self.topk {
                Some(k) => self.consume_topk_stream(s, k),
                None => self.consume_stream(s),
            },
            SortInput::Parallel(segment) => self.consume_parallel(segment),
            SortInput::Consumed => unreachable!("sort executed twice"),
        }
    }

    /// Full-sort consume: buffer batches columnar, spilling sorted runs when
    /// the reservation cannot grow. The batch whose charge fails is still
    /// buffered before the spill (a bounded one-batch overdraft), so a
    /// budget below one batch cannot wedge the pipeline.
    fn consume_stream(&mut self, mut input: Box<dyn BatchStream>) -> Result<()> {
        let key_exprs: Vec<BoundExpr> = self.keys.iter().map(|k| k.expr.clone()).collect();
        let mut buffer = SortBuffer::new();
        let mut runs: Vec<RunSource> = Vec::new();
        let mut base_ord = 0u64;

        while let Some(batch) = input.next_batch()? {
            let key_cols: Vec<ColumnRef> = key_exprs
                .iter()
                .map(|e| e.eval_batch(&batch))
                .collect::<Result<Vec<_>>>()?;
            let bytes = batch.columns().iter().map(|c| c.heap_bytes()).sum::<usize>()
                + key_cols.iter().map(|c| c.heap_bytes()).sum::<usize>();
            let fits = self.reservation.try_grow(bytes);
            buffer.push(batch, key_cols);
            if !fits && buffer.rows >= MIN_RUN_ROWS {
                let spilled = buffer.rows as u64;
                runs.push(RunSource::Spill(self.spill_run(&mut buffer, base_ord)?));
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
            runs.push(RunSource::Spill(self.spill_run(&mut buffer, base_ord)?));
        }
        self.start_merge(runs)
    }

    /// Top-k consume: a bounded max-heap of the best `k` rows. Memory is
    /// bounded by `k` rows ([`TOPK_MAX_ROWS`] at most); the reservation
    /// charge is best-effort — when the shared budget is exhausted the heap
    /// keeps its bounded working set uncharged rather than failing.
    fn consume_topk_stream(&mut self, mut input: Box<dyn BatchStream>, k: usize) -> Result<()> {
        let key_exprs: Vec<BoundExpr> = self.keys.iter().map(|k| k.expr.clone()).collect();
        let mut heap: BinaryHeap<TopEntry> = BinaryHeap::with_capacity(k + 1);
        let mut ord = 0u64;
        while let Some(batch) = input.next_batch()? {
            let key_cols: Vec<ColumnRef> = key_exprs
                .iter()
                .map(|e| e.eval_batch(&batch))
                .collect::<Result<Vec<_>>>()?;
            for i in 0..batch.num_rows() {
                let key: Vec<Value> = key_cols.iter().map(|c| c.value_at(i)).collect();
                offer_topk(&mut heap, k, key, ord, || batch.row(i), &self.desc, &mut self.reservation);
                ord += 1;
            }
        }
        self.finish_topk(heap);
        Ok(())
    }

    fn finish_topk(&mut self, heap: BinaryHeap<TopEntry>) {
        let rows: Vec<Row> = heap.into_sorted_vec().into_iter().map(|e| e.row).collect();
        self.state = SortState::Rows { rows: rows.into_iter() };
    }

    /// Parallel consume: workers sort their morsels into per-worker runs
    /// (see [`parallel::run_sort_workers`]); the coordinator merges every
    /// in-memory residue and spilled run by `(key, ordinal)`, which equals
    /// the sequential stable order because ordinals encode global input
    /// position.
    fn consume_parallel(&mut self, segment: Segment) -> Result<()> {
        let workers =
            parallel::run_sort_workers(segment, &self.keys, &self.desc, self.topk, &self.ctx)?;
        let mut sources: Vec<RunSource> = Vec::new();
        for w in workers {
            self.ctx.query.check()?;
            self.reservation.adopt(w.reservation);
            if !w.mem.is_empty() {
                sources.push(RunSource::Mem(w.mem.into_iter()));
            }
            for run in w.runs {
                sources.push(RunSource::Spill(run));
            }
        }
        if let Some(k) = self.topk {
            // Each worker kept its own top-k; the global top-k is the best k
            // of the merged candidates.
            let mut heap: BinaryHeap<TopEntry> = BinaryHeap::with_capacity(k + 1);
            for mut src in sources {
                self.ctx.query.check()?;
                while let Some((key, ord, row)) = src.next(self.keys.len())? {
                    offer_topk(&mut heap, k, key, ord, || row, &self.desc, &mut self.reservation);
                }
            }
            self.finish_topk(heap);
            return Ok(());
        }
        self.start_merge(sources)
    }

    /// Sort and spill the buffered rows as one run of
    /// `[keys…, ordinal, row…]` records; ordinals start at `base_ord`.
    fn spill_run(&mut self, buffer: &mut SortBuffer, base_ord: u64) -> Result<SpillReader> {
        // One spill run is one cancellation unit: observe cancel before
        // sorting/writing so no doomed run is ever created.
        self.ctx.query.check()?;
        let order = self.sort_buffer(buffer);
        let prefix = buffer.prefix_rows();
        let mut w = SpillWriter::create(&self.ctx.spill, 1)?;
        for &(b, r) in &order {
            let mut record: Row = buffer.keys[b as usize]
                .iter()
                .map(|c| c.value_at(r as usize))
                .collect();
            record.push(Value::Int((base_ord + prefix[b as usize] + r as u64) as i64));
            let batch = &buffer.batches[b as usize];
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
    fn start_merge(&mut self, mut sources: Vec<RunSource>) -> Result<()> {
        let key_len = self.keys.len();
        let mut heap = BinaryHeap::with_capacity(sources.len());
        for (i, src) in sources.iter_mut().enumerate() {
            if let Some((key, ord, row)) = src.next(key_len)? {
                heap.push(MergeEntry { key, ord, row, src: i, desc: Arc::clone(&self.desc) });
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
                let key_len = self.keys.len();
                let mut rows: Vec<Row> = Vec::with_capacity(BATCH_SIZE);
                while rows.len() < BATCH_SIZE {
                    let Some(entry) = heap.pop() else { break };
                    // Refill from the source the popped row came from.
                    if let Some((key, ord, row)) = sources[entry.src].next(key_len)? {
                        heap.push(MergeEntry {
                            key,
                            ord,
                            row,
                            src: entry.src,
                            desc: Arc::clone(&self.desc),
                        });
                    }
                    rows.push(entry.row);
                }
                if rows.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(RowBatch::from_owned_rows(rows)))
                }
            }
            SortState::Rows { rows } => {
                let chunk: Vec<Row> = rows.by_ref().take(BATCH_SIZE).collect();
                if chunk.is_empty() {
                    Ok(None)
                } else {
                    Ok(Some(RowBatch::from_owned_rows(chunk)))
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

    fn sort_keys(desc: bool) -> Vec<SortKey> {
        vec![SortKey { expr: BoundExpr::Column(0), desc }]
    }

    fn run_sort(
        rows: Vec<Row>,
        keys: Vec<SortKey>,
        topk: Option<usize>,
        ctx: ExecContext,
    ) -> Vec<Row> {
        drain_batches(Box::new(BatchSort::new(batches_of(rows), keys, topk, ctx)))
    }

    #[test]
    fn in_memory_ascending_and_descending() {
        let rows = int_rows(&[3, 1, 2]);
        assert_eq!(run_sort(rows.clone(), sort_keys(false), None, ctx()), int_rows(&[1, 2, 3]));
        assert_eq!(run_sort(rows, sort_keys(true), None, ctx()), int_rows(&[3, 2, 1]));
    }

    #[test]
    fn multi_key_mixed_lane_sort() {
        let rows = vec![
            vec![Value::Int(1), Value::Float(9.0)],
            vec![Value::Int(0), Value::Float(5.0)],
            vec![Value::Int(1), Value::Float(2.0)],
        ];
        let keys = vec![
            SortKey { expr: BoundExpr::Column(0), desc: false },
            SortKey { expr: BoundExpr::Column(1), desc: true },
        ];
        let out = run_sort(rows, keys, None, ctx());
        assert_eq!(out[0], vec![Value::Int(0), Value::Float(5.0)]);
        assert_eq!(out[1], vec![Value::Int(1), Value::Float(9.0)]);
        assert_eq!(out[2], vec![Value::Int(1), Value::Float(2.0)]);
    }

    #[test]
    fn nulls_sort_first_and_ties_keep_input_order() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Null, Value::Int(20)],
            vec![Value::Int(1), Value::Int(30)],
        ];
        let out = run_sort(rows, sort_keys(false), None, ctx());
        assert!(out[0][0].is_null());
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
        let external = run_sort(rows.clone(), sort_keys(false), None, tight);
        assert!(spill.files_created() > 1, "expected multiple runs");
        let in_mem = run_sort(rows, sort_keys(false), None, ctx());
        assert_eq!(external, in_mem);
        let mut expected = vals.clone();
        expected.sort_unstable();
        assert_eq!(external, int_rows(&expected));
    }

    #[test]
    fn tiny_budget_still_sorts_via_overdraft() {
        let vals: Vec<i64> = (0..5000).map(|i| (i * 7919) % 1000).collect();
        let out = run_sort(int_rows(&vals), sort_keys(false), None, ctx_with_budget(10));
        let mut expected = vals.clone();
        expected.sort_unstable();
        assert_eq!(out, int_rows(&expected));
    }

    #[test]
    fn topk_matches_full_sort_prefix() {
        let vals: Vec<i64> = (0..10_000).map(|i| (i * 48_271) % 65_537).collect();
        let rows = int_rows(&vals);
        let full = run_sort(rows.clone(), sort_keys(true), None, ctx());
        let top = run_sort(rows, sort_keys(true), Some(25), ctx());
        assert_eq!(top.len(), 25);
        assert_eq!(top, full[..25].to_vec());
    }

    #[test]
    fn topk_larger_than_input_keeps_everything() {
        let rows = int_rows(&[5, 3, 9]);
        let out = run_sort(rows, sort_keys(false), Some(100), ctx());
        assert_eq!(out, int_rows(&[3, 5, 9]));
    }

    #[test]
    fn empty_input() {
        assert!(run_sort(vec![], sort_keys(false), None, ctx()).is_empty());
        assert!(run_sort(vec![], sort_keys(false), Some(5), ctx()).is_empty());
    }
}
