//! Vectorized (batch-at-a-time) physical execution: the engine's executor.
//!
//! Operators exchange columnar [`RowBatch`]es of ~[`BATCH_SIZE`] rows,
//! amortizing dispatch and running the expression kernels of [`crate::vexpr`]
//! over primitive slices. A hash join hands its parent index pairs over its
//! unchanged inputs instead ([`Rows`], through [`BatchStream::next_rows`]);
//! project and aggregate read a gate's key and complex multiply through
//! them with compiled kernels (`exec/kernel.rs`), and whatever else pulls
//! from a join gets the gathered batch. The operator set covers **every plan shape the
//! planner emits**: scan, filter (`HAVING`), project, inner hash join, hash
//! aggregate, sort (see [`super::vsort`]) and alias.
//! Results leave the pipeline batch by batch through `drain`; what the
//! executor is tested against is the reference interpreter in
//! [`crate::reference`], which shares none of the code below.
//!
//! Memory discipline: join builds and aggregation tables charge the shared
//! [`MemoryBudget`](crate::storage::budget), and the aggregate spills typed
//! blocks or partial rows (see [`super::aggregate`]) into hash partitions
//! with a recursive re-partition merge. Budget checks happen per batch, so
//! a table may transiently overshoot its reservation by at most one batch of
//! new groups before it flushes.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::logical::{AggExpr, AggFunc, Plan};
use crate::plan::optimizer::join_key;
use crate::storage::budget::Reservation;
use crate::storage::spill::{row_bytes, Row, SpillDir, SpillReader, SpillRecord, SpillWriter};
use crate::table::TableSnapshot;
use crate::value::{GroupKey, Value};

use super::aggregate::{
    entry_bytes, partition_of, partition_of_int, Acc, GroupState, IntGroupTable, MAX_DEPTH,
    PARTITIONS,
};
use super::batch::{Column, ColumnRef, JoinPairs, RowBatch, Rows, BATCH_SIZE};
use super::kernel::{CompiledExpr, ComplexPair};
use super::vsort::BatchSort;
use super::{instrument_slot, BuildTimer, ExecContext, NodeStats};

/// Uncharged rows a join build side may hold when the shared budget is
/// exhausted (the per-operator working-set floor).
pub(crate) const BUILD_OVERDRAFT_ROWS: usize = 256;

/// A pull-based batch iterator. `next_batch` returns `Ok(None)` at end of
/// stream; emitted batches are never empty.
pub trait BatchStream {
    /// Pull the next batch, or `None` at end of stream.
    fn next_batch(&mut self) -> Result<Option<RowBatch>>;

    /// Pull the next rows as [`Rows`]: a hash join hands out its index
    /// pairs ungathered, every other operator its batch. Operators that
    /// compile their expressions (project, aggregate, the join's probe)
    /// pull this way; the rest take [`Self::next_batch`].
    fn next_rows(&mut self) -> Result<Option<Rows>> {
        Ok(self.next_batch()?.map(Rows::Batch))
    }
}

/// Build an executable batch stream for `plan`. Base-table snapshots are
/// taken here, so the stream sees a consistent state even if tables change.
pub fn build_batch_stream(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &ExecContext,
) -> Result<Box<dyn BatchStream>> {
    build_batch_stream_at(plan, catalog, ctx, 0)
}

/// Run `stream` to its end, handing every batch to `sink`, then drop it
/// (releasing its reservations and spill files). The one way results leave
/// the pipeline: the query collector, `EXPLAIN ANALYZE` and CTAS all drain
/// through here.
pub(crate) fn drain(
    mut stream: Box<dyn BatchStream>,
    mut sink: impl FnMut(RowBatch) -> Result<()>,
) -> Result<()> {
    while let Some(batch) = stream.next_batch()? {
        sink(batch)?;
    }
    Ok(())
}

pub(crate) fn build_batch_stream_at(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &ExecContext,
    depth: usize,
) -> Result<Box<dyn BatchStream>> {
    // Reserve this node's stats slot before recursing (pre-order render).
    let slot = instrument_slot(ctx, plan, depth);
    let _timer = BuildTimer::start(ctx, slot);
    let stream = build_batch_stream_inner(plan, catalog, ctx, depth, slot)?;
    // The `EXPLAIN ANALYZE` counter shim, when a stats slot was reserved.
    let inner: Box<dyn BatchStream> = match (slot, &ctx.instrument) {
        (Some(id), Some(stats)) => {
            Box::new(InstrumentedBatch { inner: stream, id, stats: Rc::clone(stats) })
        }
        _ => stream,
    };
    Ok(Box::new(BatchCancelGuard { inner, query: ctx.query.clone(), pulled: false }))
}

/// Per-node cancellation guard: polls [`ExecContext::query`] before every
/// batch this node produces, so a cancel/timeout is observed within one
/// batch at every level of the plan even when a blocking child (sort,
/// aggregate, join build) drains its whole input inside one `next_batch`.
struct BatchCancelGuard {
    inner: Box<dyn BatchStream>,
    query: super::govern::QueryContext,
    pulled: bool,
}

impl BatchCancelGuard {
    fn poll(&mut self) -> Result<()> {
        if self.pulled {
            self.query.note_unit();
        }
        self.query.check()?;
        self.pulled = true;
        Ok(())
    }
}

impl BatchStream for BatchCancelGuard {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        self.poll()?;
        self.inner.next_batch()
    }

    fn next_rows(&mut self) -> Result<Option<Rows>> {
        self.poll()?;
        self.inner.next_rows()
    }
}

fn build_batch_stream_inner(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &ExecContext,
    depth: usize,
    slot: Option<usize>,
) -> Result<Box<dyn BatchStream>> {
    Ok(match plan {
        Plan::Scan { table, .. } => {
            let snapshot = catalog.get(table)?.snapshot();
            Box::new(BatchScan { snapshot, next_chunk: 0 })
        }
        Plan::Filter { input, predicate } => Box::new(BatchFilter {
            input: build_batch_stream_at(input, catalog, ctx, depth + 1)?,
            predicate: predicate.clone(),
        }),
        Plan::Project { input, exprs, .. } => {
            let pair = (1..exprs.len())
                .find_map(|j| Some((j - 1, ComplexPair::compile(&exprs[j - 1], &exprs[j])?)));
            let exprs = exprs.iter().cloned().map(CompiledExpr::new).collect();
            Box::new(BatchProject {
                input: build_batch_stream_at(input, catalog, ctx, depth + 1)?,
                exprs,
                pair,
            })
        }
        Plan::Join { left, right, on, .. } => {
            let (lk, rk) = join_key(on, left.schema().len()).ok_or_else(|| {
                Error::Internal("a join condition that is not one key reached the executor".into())
            })?;
            let l = build_batch_stream_at(left, catalog, ctx, depth + 1)?;
            let r = build_batch_stream_at(right, catalog, ctx, depth + 1)?;
            let (table, reservation) = JoinTable::build_from_stream(r, lk, rk, ctx)?;
            Box::new(BatchHashJoin { probe: l, table, pending: None, _reservation: reservation })
        }
        Plan::Aggregate { input, group_by, aggs, .. } => {
            let child = build_batch_stream_at(input, catalog, ctx, depth + 1)?;
            Box::new(BatchHashAggregate::new(
                child,
                group_by.clone(),
                aggs.clone(),
                ctx.clone(),
            ))
        }
        Plan::Sort { input, key } => {
            let child = build_batch_stream_at(input, catalog, ctx, depth + 1)?;
            Box::new(BatchSort::new(child, key.clone(), ctx.clone(), slot))
        }
        Plan::Alias { input, .. } => build_batch_stream_at(input, catalog, ctx, depth + 1)?,
    })
}

/// Batch/row/time instrumentation wrapper (`EXPLAIN ANALYZE`).
struct InstrumentedBatch {
    inner: Box<dyn BatchStream>,
    id: usize,
    stats: Rc<std::cell::RefCell<Vec<NodeStats>>>,
}

impl InstrumentedBatch {
    /// Time one pull and count what it produced.
    fn count<T>(
        &mut self,
        pull: impl FnOnce(&mut dyn BatchStream) -> Result<Option<T>>,
        rows: impl Fn(&T) -> usize,
    ) -> Result<Option<T>> {
        let start = Instant::now();
        let out = pull(&mut *self.inner);
        let elapsed = start.elapsed().as_nanos();
        let mut stats = self.stats.borrow_mut();
        let node = &mut stats[self.id];
        node.nanos += elapsed;
        if let Ok(Some(batch)) = &out {
            node.rows_out += rows(batch) as u64;
            node.batches_out += 1;
        }
        out
    }
}

impl BatchStream for InstrumentedBatch {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        self.count(|s| s.next_batch(), RowBatch::num_rows)
    }

    fn next_rows(&mut self) -> Result<Option<Rows>> {
        self.count(|s| s.next_rows(), Rows::num_rows)
    }
}

// ---------------------------------------------------------------------------
// Leaf and stateless operators
// ---------------------------------------------------------------------------

/// Zero-copy base-table scan: each stored chunk becomes one [`RowBatch`]
/// whose columns **are** the table's chunk columns (`Arc` clones — no
/// row→column transpose, no per-value copy). The snapshot pins the chunks,
/// so a scan reads the rows that existed when it started.
struct BatchScan {
    snapshot: TableSnapshot,
    next_chunk: usize,
}

impl BatchStream for BatchScan {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let chunks = self.snapshot.chunks();
        if self.next_chunk >= chunks.len() {
            return Ok(None);
        }
        let chunk = &chunks[self.next_chunk];
        self.next_chunk += 1;
        Ok(Some(RowBatch::from_shared(chunk.columns().to_vec())))
    }
}

/// Row indices of `col` whose value is true (not zero).
fn truthy_selection(col: &Column) -> Result<Vec<u32>> {
    Ok(match col {
        Column::Int(v) => v
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0)
            .map(|(i, _)| i as u32)
            .collect(),
        Column::Float(v) => v
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0.0)
            .map(|(i, _)| i as u32)
            .collect(),
        other => {
            let mut sel = Vec::new();
            for i in 0..other.len() {
                if other.value_at(i).as_bool()? {
                    sel.push(i as u32);
                }
            }
            sel
        }
    })
}

struct BatchFilter {
    input: Box<dyn BatchStream>,
    predicate: BoundExpr,
}

impl BatchStream for BatchFilter {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        while let Some(batch) = self.input.next_batch()? {
            let mask = self.predicate.eval_batch(&batch)?;
            let sel = truthy_selection(&mask)?;
            if sel.is_empty() {
                continue;
            }
            if sel.len() == batch.num_rows() {
                return Ok(Some(batch));
            }
            return Ok(Some(batch.gather(&sel)));
        }
        Ok(None)
    }
}

struct BatchProject {
    input: Box<dyn BatchStream>,
    exprs: Vec<CompiledExpr>,
    /// Expressions `j` and `j + 1` are a complex multiply pair.
    pair: Option<(usize, ComplexPair)>,
}

impl BatchStream for BatchProject {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let Some(rows) = self.input.next_rows()? else { return Ok(None) };
        let pair = self.pair.as_ref().and_then(|(j, p)| Some((*j, p.columns(&rows)?)));
        let mut gathered = None;
        let cols = (self.exprs.iter().enumerate())
            .map(|(j, e)| match &pair {
                Some((at, cols)) if (*at..*at + 2).contains(&j) => Ok(cols[j - at].clone()),
                _ => e.eval(&rows, &mut gathered),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Some(RowBatch::from_shared(cols)))
    }
}

// ---------------------------------------------------------------------------
// Vectorized hash join (inner, one equi-key)
// ---------------------------------------------------------------------------

/// Join-key lookup table: a join has one key (the gate join
/// `H.in_s = (T0.s & mask)`). `Direct` is what a `Hashed` table becomes at
/// the end of [`JoinTable::build_from_stream`] when every build key is an
/// integer in `0..DIRECT_KEYS` — a gate table's `in_s` always is — so
/// probes index instead of hashing.
enum KeyMap {
    /// Build rows of key `k` are `ids[offsets[k]..offsets[k + 1]]`, in
    /// insertion order.
    Direct { offsets: Vec<u32>, ids: Vec<u32> },
    Hashed(HashMap<GroupKey, Vec<u32>>),
}

/// Key values the direct join index covers (a 6-qubit fused gate has 64
/// input states; gate tables of 1–3 qubits have 2–8).
const DIRECT_KEYS: usize = 64;

impl KeyMap {
    /// The direct index equivalent to `map`, when every key qualifies.
    fn direct(map: &HashMap<GroupKey, Vec<u32>>) -> Option<KeyMap> {
        let mut lists: [&[u32]; DIRECT_KEYS] = [&[]; DIRECT_KEYS];
        for (key, rows) in map {
            match key {
                GroupKey::Int(k) if (0..DIRECT_KEYS as i64).contains(k) => {
                    lists[*k as usize] = rows;
                }
                _ => return None,
            }
        }
        let mut offsets = vec![0u32];
        let mut ids = Vec::new();
        for rows in lists {
            ids.extend_from_slice(rows);
            offsets.push(ids.len() as u32);
        }
        Some(KeyMap::Direct { offsets, ids })
    }
}

/// The immutable result of a hash-join build: the kept build rows plus the
/// key → row-index table, with the probe-side key expression attached.
struct JoinTable {
    build: RowBatch,
    table: KeyMap,
    left_key: CompiledExpr,
}

impl JoinTable {
    /// Drain `build_input` into the table: every row is kept, in input
    /// order (the match order probes observe), and charged to the returned
    /// reservation, which holds the table's memory. A bounded overdraft
    /// ([`BUILD_OVERDRAFT_ROWS`]) is tolerated.
    fn build_from_stream(
        mut build_input: Box<dyn BatchStream>,
        left_key: BoundExpr,
        right_key: BoundExpr,
        ctx: &ExecContext,
    ) -> Result<(JoinTable, Reservation)> {
        let mut kept: Vec<Row> = Vec::new();
        let mut map: HashMap<GroupKey, Vec<u32>> = HashMap::new();
        let mut reservation = Reservation::empty(&ctx.budget);
        let mut overdraft_rows = 0;
        while let Some(batch) = build_input.next_batch()? {
            let key_col = right_key.eval_batch(&batch)?;
            for i in 0..batch.num_rows() {
                let key = key_col.group_key_at(i);
                let row = batch.row(i);
                let bytes = row_bytes(&row) + key.heap_bytes();
                if !reservation.try_grow(bytes) {
                    overdraft_rows += 1;
                    if overdraft_rows > BUILD_OVERDRAFT_ROWS {
                        return Err(Error::OutOfMemory {
                            requested: bytes,
                            budget: ctx.budget.limit(),
                        });
                    }
                }
                map.entry(key).or_default().push(kept.len() as u32);
                kept.push(row);
            }
        }
        let table = KeyMap::direct(&map).unwrap_or(KeyMap::Hashed(map));
        let build = RowBatch::from_owned_rows(kept)?;
        let left_key = CompiledExpr::new(left_key);
        Ok((JoinTable { build, table, left_key }, reservation))
    }

    fn matches_of(&self, key_col: &Column, i: usize) -> Option<&[u32]> {
        match &self.table {
            KeyMap::Direct { offsets, ids } => {
                let k = match key_col {
                    Column::Int(v) => v[i],
                    other => match other.group_key_at(i) {
                        GroupKey::Int(k) => k,
                        _ => return None,
                    },
                };
                let k = usize::try_from(k).ok().filter(|&k| k < DIRECT_KEYS)?;
                let rows = &ids[offsets[k] as usize..offsets[k + 1] as usize];
                (!rows.is_empty()).then_some(rows)
            }
            KeyMap::Hashed(m) => m.get(&key_col.group_key_at(i)).map(Vec::as_slice),
        }
    }

    /// One probe step: pair the rows of `batch` from `*next` on with their
    /// build matches, stopping near [`BATCH_SIZE`] pairs so a skewed
    /// many-to-many key cannot make one output batch arbitrarily large, and
    /// return the index pairs (`None` when there are none). `*next` advances
    /// past the rows scanned.
    fn probe_step(&self, batch: &RowBatch, key_col: &Column, next: &mut usize) -> Option<Rows> {
        let rows = batch.num_rows();
        let start = *next;
        let mut probe_sel: Vec<u32> = Vec::with_capacity(rows - start);
        let mut build_sel: Vec<u32> = Vec::with_capacity(rows - start);
        let mut one_each = true;
        let mut i = start;
        while i < rows && probe_sel.len() < BATCH_SIZE {
            let matches = self.matches_of(key_col, i).unwrap_or(&[]);
            one_each &= matches.len() == 1;
            for &b in matches {
                probe_sel.push(i as u32);
                build_sel.push(b);
            }
            i += 1;
        }
        *next = i;
        if probe_sel.is_empty() {
            return None;
        }
        // Every probe row matched exactly once, in order (diagonal and
        // permutation gates): its columns pass through untouched.
        let identity = start == 0 && i == rows && one_each;
        Some(Rows::Pairs(JoinPairs {
            probe: batch.clone(),
            probe_sel: (!identity).then_some(probe_sel),
            build: self.build.clone(),
            build_sel,
        }))
    }
}

/// Inner hash join over one equi-key, the engine's one join operator:
/// builds on the right input, probes batch-at-a-time with the left.
struct BatchHashJoin {
    probe: Box<dyn BatchStream>,
    table: JoinTable,
    pending: Option<PendingProbe>,
    /// Memory charge for the build table (freed when the join drops).
    _reservation: Reservation,
}

/// A probe batch still being drained (skewed keys can fan one probe batch
/// out into many output batches): the batch, its evaluated key column and
/// the next probe row to resume from.
struct PendingProbe {
    batch: RowBatch,
    key_col: ColumnRef,
    next: usize,
}

impl BatchStream for BatchHashJoin {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        Ok(self.next_rows()?.map(Rows::into_batch))
    }

    fn next_rows(&mut self) -> Result<Option<Rows>> {
        loop {
            // Get a probe batch: resume a partially drained one, else pull.
            let mut p = match self.pending.take() {
                Some(p) => p,
                None => match self.probe.next_batch()? {
                    Some(batch) => {
                        let key_col = self.table.left_key.eval_batch(&batch)?;
                        PendingProbe { batch, key_col, next: 0 }
                    }
                    None => return Ok(None),
                },
            };
            // The probe position is saved and resumed on the next call.
            let out = self.table.probe_step(&p.batch, &p.key_col, &mut p.next);
            // Keep the batch pending while rows remain to scan.
            if p.next < p.batch.num_rows() {
                self.pending = Some(p);
            }
            if let Some(b) = out {
                return Ok(Some(b));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized hash aggregate
// ---------------------------------------------------------------------------

/// In-memory aggregation table. `Fast` is the gate-application specialization
/// — single `INTEGER` group key, all aggregates `SUM` over `DOUBLE` lanes —
/// which keeps accumulators in flat `f64` arrays; anything else (a `HUGEINT`
/// or `TEXT` key, several keys, `COUNT(*)`, an `INTEGER` sum) lives in the
/// generic [`Acc`] table. An aggregation picks one at its first batch.
enum AggTable {
    Fast {
        groups: IntGroupTable,
        /// `sums[agg][group]` running totals.
        sums: Vec<Vec<f64>>,
    },
    Generic(HashMap<Vec<GroupKey>, GroupState>),
}

/// The description of one aggregation: group-by keys, aggregate expressions,
/// and the consume-phase update/flush machinery, which works on a table,
/// writer and reservation the caller owns.
struct AggCore {
    group_by: Vec<CompiledExpr>,
    aggs: Vec<AggExpr>,
    /// The compiled argument of each aggregate.
    args: Vec<Option<CompiledExpr>>,
    /// The arguments of the two sums are a complex multiply pair.
    complex: Option<ComplexPair>,
    /// Static eligibility for the fast table (the first batch's lanes decide).
    fast_eligible: bool,
    /// Bytes one fast-table group charges (mirrors `entry_bytes` for a
    /// one-`INTEGER`-key entry with plain accumulators).
    fast_bytes: usize,
}

impl AggCore {
    fn new(group_by: Vec<BoundExpr>, aggs: Vec<AggExpr>) -> Self {
        let fast_eligible = group_by.len() == 1
            && !aggs.is_empty()
            && aggs
                .iter()
                .all(|a| a.func == AggFunc::Sum && a.arg.is_some());
        let fast_bytes = entry_bytes(&[Value::Int(0)], aggs.len());
        let complex = match aggs.as_slice() {
            [AggExpr { arg: Some(re), .. }, AggExpr { arg: Some(im), .. }] => {
                ComplexPair::compile(re, im)
            }
            _ => None,
        };
        let group_by = group_by.into_iter().map(CompiledExpr::new).collect();
        let args = aggs.iter().map(|a| a.arg.clone().map(CompiledExpr::new)).collect();
        AggCore { group_by, aggs, args, complex, fast_eligible, fast_bytes }
    }

    /// The table an aggregation keeps from its first batch or record to its
    /// end: the fast table for the lanes it folds ([`Self::fast_lanes`]),
    /// else the generic one. A column's lane is its type and a type follows
    /// from the operands' types, so every later batch has the same lanes.
    fn new_table(&self, fast: bool) -> AggTable {
        if fast {
            AggTable::Fast {
                groups: IntGroupTable::default(),
                sums: vec![Vec::new(); self.aggs.len()],
            }
        } else {
            AggTable::Generic(HashMap::new())
        }
    }

    /// The lanes the fast table folds, when the aggregation may use it: an
    /// `INTEGER` key and a `DOUBLE` argument for every `SUM`.
    fn fast_lanes<'a>(
        &self,
        key: Option<&'a Column>,
        args: impl Iterator<Item = Option<&'a Column>>,
    ) -> Option<(&'a [i64], Vec<&'a [f64]>)> {
        let (true, Some(Column::Int(keys))) = (self.fast_eligible, key) else { return None };
        let lane = |c: Option<&'a Column>| match c {
            Some(Column::Float(v)) => Some(v.as_slice()),
            _ => None,
        };
        Some((keys, args.map(lane).collect::<Option<Vec<_>>>()?))
    }

    /// Aggregate one input batch into `table` (created at the first batch),
    /// charging `reservation` per new group. Returns `true` when the
    /// reservation could not cover every new group (the caller should
    /// flush).
    fn update_batch(
        &self,
        rows: &Rows,
        table: &mut Option<AggTable>,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let mut gathered = None;
        let key_cols = self
            .group_by
            .iter()
            .map(|e| e.eval(rows, &mut gathered))
            .collect::<Result<Vec<_>>>()?;
        let arg_cols: Vec<Option<ColumnRef>> =
            match self.complex.as_ref().and_then(|p| p.columns(rows)) {
                Some(pair) => pair.map(Some).into(),
                None => (self.args.iter())
                    .map(|a| a.as_ref().map(|e| e.eval(rows, &mut gathered)).transpose())
                    .collect::<Result<_>>()?,
            };

        let args = arg_cols.iter().map(|c| c.as_deref());
        let fast = self.fast_lanes(key_cols.first().map(|c| &**c), args);
        let n = rows.num_rows();
        match (table.get_or_insert_with(|| self.new_table(fast.is_some())), fast) {
            (AggTable::Fast { groups, sums }, Some((keys, lanes))) => {
                Ok(self.charge_fast_groups(fold_fast(groups, sums, keys, &lanes), reservation))
            }
            (AggTable::Fast { .. }, None) => {
                Err(Error::Internal("an aggregate's input changed lanes".into()))
            }
            (AggTable::Generic(map), _) if self.group_by.is_empty() => {
                self.update_global(n, &arg_cols, map, reservation)
            }
            (AggTable::Generic(map), _) => {
                self.update_generic(n, &key_cols, &arg_cols, map, reservation)
            }
        }
    }

    /// The global lane: with no `GROUP BY` the one group's accumulators fold
    /// a batch of `rows` rows column-wise. `COUNT(*)` adds the row count, a
    /// `SUM` over an `INTEGER` or a `DOUBLE` lane adds in input order, bit
    /// for bit what [`Acc::update`] makes of the rows one at a time, which
    /// every other argument still goes through. Returns `true` when the
    /// reservation could not cover the group.
    fn update_global(
        &self,
        rows: usize,
        arg_cols: &[Option<ColumnRef>],
        map: &mut HashMap<Vec<GroupKey>, GroupState>,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let mut over = false;
        let (_, accs) = map.entry(Vec::new()).or_insert_with(|| {
            let accs: Vec<Acc> = self.aggs.iter().map(Acc::new).collect();
            over = !reservation.try_grow(entry_bytes(&[], accs.len()));
            (Vec::new(), accs)
        });
        for (acc, col) in accs.iter_mut().zip(arg_cols) {
            match (acc, col.as_deref()) {
                (Acc::Count(n), _) => *n += rows as i64,
                (Acc::Sum(sum @ (None | Some(Value::Float(_)))), Some(Column::Float(lane))) => {
                    let from = if let Some(Value::Float(f)) = sum { *f } else { 0.0 };
                    *sum = Some(Value::Float(lane.iter().fold(from, |a, &x| a + x)));
                }
                (Acc::Sum(sum @ (None | Some(Value::Int(_)))), Some(Column::Int(lane))) => {
                    let from = if let Some(Value::Int(i)) = sum { *i } else { 0 };
                    let total = lane.iter().try_fold(from, |a, &x| a.checked_add(x));
                    let total = total.ok_or_else(|| Error::Eval("integer overflow in +".into()))?;
                    *sum = Some(Value::Int(total));
                }
                (acc, col) => {
                    for i in 0..rows {
                        acc.update(col.map(|c| c.value_at(i)))?;
                    }
                }
            }
        }
        Ok(over)
    }

    /// Merge one spilled record into `table` (created at the first record)
    /// — consume, one level down. A partition holds what one table kind
    /// flushed: blocks of a fast table, which fold through the same lanes as
    /// an input batch (SUM of partial SUMs being SUM), or partial rows of a
    /// generic table. Returns `true` when the reservation could not cover
    /// every new group.
    fn merge_record(
        &self,
        record: SpillRecord,
        table: &mut Option<AggTable>,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let block = matches!(record, SpillRecord::Block(_));
        match (record, table.get_or_insert_with(|| self.new_table(block))) {
            (SpillRecord::Row(row), AggTable::Generic(map)) => {
                self.merge_partial(&row, map, reservation)
            }
            (SpillRecord::Block(block), AggTable::Fast { groups, sums }) => {
                let wrong = || Error::Io("spilled block not of the fast table's lanes".into());
                let (key, args) = (block.columns().split_first())
                    .filter(|(_, args)| args.len() == self.aggs.len())
                    .ok_or_else(wrong)?;
                let args = args.iter().map(|c| Some(&**c));
                let (keys, lanes) = self.fast_lanes(Some(key), args).ok_or_else(wrong)?;
                Ok(self.charge_fast_groups(fold_fast(groups, sums, keys, &lanes), reservation))
            }
            _ => Err(Error::Io("a spilled partition holds blocks and rows".into())),
        }
    }

    /// Merge one partial row (group key values, then each accumulator's
    /// [`Acc::partial`] value) into the generic table.
    fn merge_partial(
        &self,
        row: &[Value],
        map: &mut HashMap<Vec<GroupKey>, GroupState>,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let k = self.group_by.len();
        if row.len() != k + self.aggs.len() {
            return Err(Error::Io("spilled partial row of the wrong width".into()));
        }
        let (reps, partials) = row.split_at(k);
        let consume = |accs: &mut [Acc]| {
            accs.iter_mut().zip(partials).try_for_each(|(acc, v)| acc.merge_partial(v))
        };
        match map.entry(reps.iter().map(Value::group_key).collect()) {
            Entry::Occupied(mut e) => consume(&mut e.get_mut().1).map(|()| false),
            Entry::Vacant(e) => {
                let mut accs: Vec<Acc> = self.aggs.iter().map(Acc::new).collect();
                consume(&mut accs)?;
                let fits = reservation.try_grow(entry_bytes(reps, accs.len()));
                e.insert((reps.to_vec(), accs));
                Ok(!fits)
            }
        }
    }

    /// Charge `new_groups` fast-table groups in one ledger operation. When
    /// that does not fit, charge group by group as far as the budget goes
    /// (what a group-at-a-time table would have reserved, so the spill
    /// trigger and the ledger's peak do not depend on the batching) and
    /// return `true`: the caller should flush.
    fn charge_fast_groups(&self, new_groups: usize, reservation: &mut Reservation) -> bool {
        if reservation.try_grow(new_groups * self.fast_bytes) {
            return false;
        }
        let mut over = false;
        for _ in 0..new_groups {
            over |= !reservation.try_grow(self.fast_bytes);
        }
        over
    }

    /// Generic per-row update through the shared [`Acc`] machinery. Returns
    /// `true` when the reservation could not cover every new group.
    fn update_generic(
        &self,
        rows: usize,
        key_cols: &[ColumnRef],
        arg_cols: &[Option<ColumnRef>],
        map: &mut HashMap<Vec<GroupKey>, GroupState>,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let mut over = false;
        for i in 0..rows {
            let keys: Vec<GroupKey> = key_cols.iter().map(|c| c.group_key_at(i)).collect();
            let args: Vec<Option<Value>> =
                arg_cols.iter().map(|c| c.as_ref().map(|col| col.value_at(i))).collect();
            match map.entry(keys) {
                Entry::Occupied(mut e) => {
                    let (_, accs) = e.get_mut();
                    for (acc, arg) in accs.iter_mut().zip(args) {
                        acc.update(arg)?;
                    }
                }
                Entry::Vacant(e) => {
                    let reps: Vec<Value> = key_cols.iter().map(|c| c.value_at(i)).collect();
                    let mut accs: Vec<Acc> = self.aggs.iter().map(Acc::new).collect();
                    for (acc, arg) in accs.iter_mut().zip(args) {
                        acc.update(arg)?;
                    }
                    let bytes = entry_bytes(&reps, accs.len());
                    e.insert((reps, accs));
                    over |= !reservation.try_grow(bytes);
                }
            }
        }
        Ok(over)
    }

    /// Flush the in-memory table into the partition spill files, releasing
    /// `reservation`: a fast table as typed blocks of at most [`BATCH_SIZE`]
    /// groups, gathered partition by partition in first-seen order; a
    /// generic table as partial rows (via [`Acc::partial`]).
    fn flush(
        &self,
        table: &mut Option<AggTable>,
        writer: &mut Option<SpillWriter>,
        depth: u32,
        spill: &Arc<SpillDir>,
        reservation: &mut Reservation,
    ) -> Result<()> {
        let w = match writer {
            Some(w) => w,
            None => writer.insert(SpillWriter::create(spill, PARTITIONS)?),
        };
        match table {
            Some(AggTable::Fast { groups, sums }) => {
                let keys = groups.keys();
                let mut by_part: Vec<Vec<u32>> = vec![Vec::new(); PARTITIONS];
                for (g, &k) in keys.iter().enumerate() {
                    by_part[partition_of_int(k, depth)].push(g as u32);
                }
                for (p, ids) in by_part.iter().enumerate() {
                    for ids in ids.chunks(BATCH_SIZE) {
                        let lane = |s: &Vec<f64>| {
                            Column::Float(ids.iter().map(|&g| s[g as usize]).collect())
                        };
                        let mut cols =
                            vec![Column::Int(ids.iter().map(|&g| keys[g as usize]).collect())];
                        cols.extend(sums.iter().map(lane));
                        w.write_batch(p, &RowBatch::from_columns(cols))?;
                    }
                }
                groups.clear();
                for per_agg in sums.iter_mut() {
                    per_agg.clear();
                }
            }
            Some(AggTable::Generic(map)) => {
                for (keys, (reps, accs)) in map.drain() {
                    let mut row = reps;
                    row.extend(accs.iter().map(Acc::partial));
                    w.write_row(partition_of(&keys, depth), &row)?;
                }
            }
            None => {}
        }
        reservation.free();
        Ok(())
    }

    /// Turn the writer of one level into the partitions to merge at
    /// `depth`, skipping those nothing was written to.
    fn into_pending(writer: SpillWriter, depth: u32) -> Result<Vec<(SpillReader, u32)>> {
        let readers = writer.into_readers()?.into_iter();
        Ok(readers.filter(|r| !r.is_empty()).map(|r| (r, depth)).collect())
    }

    fn table_into_groups(table: Option<AggTable>) -> Groups {
        match table {
            Some(AggTable::Fast { groups, sums }) => {
                Groups::Fast { keys: groups.into_keys(), sums, next: 0 }
            }
            Some(AggTable::Generic(map)) => Groups::Generic(map.into_values().collect()),
            None => Groups::Generic(Vec::new()),
        }
    }
}

/// Fold `lanes[agg][row]` into `sums[agg][group of keys[row]]`, column-wise:
/// the group ids of the batch first, then one pass per lane. New groups
/// start from `0.0`. Returns how many groups the batch added.
fn fold_fast(
    groups: &mut IntGroupTable,
    sums: &mut [Vec<f64>],
    keys: &[i64],
    lanes: &[&[f64]],
) -> usize {
    let before = groups.keys().len();
    let ids: Vec<u32> = keys.iter().map(|&k| groups.find_or_insert(k).0).collect();
    let after = groups.keys().len();
    for (per_agg, vals) in sums.iter_mut().zip(lanes) {
        per_agg.resize(after, 0.0);
        for (&g, &v) in ids.iter().zip(*vals) {
            per_agg[g as usize] += v;
        }
    }
    after - before
}

/// The vectorized aggregation operator: a two-phase hybrid hash/grace
/// scheme — consume (spilling the table into `PARTITIONS` hash partitions
/// under memory pressure), then merge each partition recursively, which is
/// consume again with spilled records for input — with batched input and
/// expression evaluation.
pub struct BatchHashAggregate {
    /// The input, until consume takes it.
    input: Option<Box<dyn BatchStream>>,
    core: AggCore,
    ctx: ExecContext,
    reservation: Reservation,
    state: AggState,
    /// Spilled partitions still to merge, each with its depth.
    pending: Vec<(SpillReader, u32)>,
}

/// Finished groups waiting to leave the operator.
enum Groups {
    /// A fast table, of consume or of a partition merge: the key and sum
    /// lanes leave as typed column slices, in first-seen order from `next` on.
    Fast { keys: Vec<i64>, sums: Vec<Vec<f64>>, next: usize },
    Generic(Vec<GroupState>),
}

enum AggState {
    Pending,
    Draining(Groups),
    Done,
}

impl BatchHashAggregate {
    /// Create the operator over an input stream.
    pub fn new(
        input: Box<dyn BatchStream>,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        ctx: ExecContext,
    ) -> Self {
        let reservation = Reservation::empty(&ctx.budget);
        BatchHashAggregate {
            input: Some(input),
            core: AggCore::new(group_by, aggs),
            ctx,
            reservation,
            state: AggState::Pending,
            pending: Vec::new(),
        }
    }

    /// Phase 1: consume the input batch-at-a-time. Budget checks run per
    /// batch: if the reservation could not cover the batch's new groups, the
    /// whole table flushes to partitions afterwards.
    fn consume(&mut self) -> Result<()> {
        let Some(mut input) = self.input.take() else {
            unreachable!("consume called twice")
        };
        let mut table = None;
        let mut writer: Option<SpillWriter> = None;

        while let Some(rows) = input.next_rows()? {
            if rows.num_rows() == 0 {
                continue;
            }
            let over_budget = self.core.update_batch(&rows, &mut table, &mut self.reservation)?;
            if over_budget {
                // Budget exhausted: spill the whole table (including the
                // entries just inserted — partials merge in phase 2). A
                // cancel arriving here is observed before the spill run
                // starts, so no run is written just to be deleted.
                self.ctx.query.check()?;
                self.flush(&mut table, &mut writer, 0)?;
            }
        }

        // Global aggregate over empty input produces one all-default row.
        if table.is_none() && self.core.group_by.is_empty() {
            let accs: Vec<Acc> = self.core.aggs.iter().map(Acc::new).collect();
            self.state = AggState::Draining(Groups::Generic(vec![(Vec::new(), accs)]));
            return Ok(());
        }

        self.finish_level(table, writer, 0)
    }

    /// End one level (consume at depth 0, a partition merge below it). If
    /// the level spilled, the residue goes through the partitions as well,
    /// so the next level sees every group exactly once per partition, and
    /// the writer's partitions become runs to merge one level down; what is
    /// left of `table` (all of it when nothing spilled) is what drains next.
    fn finish_level(
        &mut self,
        mut table: Option<AggTable>,
        mut writer: Option<SpillWriter>,
        depth: u32,
    ) -> Result<()> {
        if writer.is_some() {
            self.flush(&mut table, &mut writer, depth)?;
        }
        if let Some(w) = writer {
            self.pending.extend(AggCore::into_pending(w, depth + 1)?);
        }
        self.state = AggState::Draining(AggCore::table_into_groups(table));
        Ok(())
    }

    /// [`AggCore::flush`] into the operator's own spill directory, releasing
    /// the operator's reservation.
    fn flush(
        &mut self,
        table: &mut Option<AggTable>,
        writer: &mut Option<SpillWriter>,
        depth: u32,
    ) -> Result<()> {
        self.core.flush(table, writer, depth, &self.ctx.spill, &mut self.reservation)
    }

    /// Merge one spilled partition: consume at `depth`, with spilled records
    /// for input. A partition that still exceeds the budget re-partitions
    /// one level deeper (depth-salted hash).
    fn merge_partition(&mut self, mut reader: SpillReader, depth: u32) -> Result<()> {
        let mut table = None;
        let mut writer: Option<SpillWriter> = None;
        // One spilled run is one cancellation unit: check before it, and
        // count the drained run against the latency meter.
        self.ctx.query.check()?;
        while let Some(record) = reader.next_record()? {
            let over = self.core.merge_record(record, &mut table, &mut self.reservation)?;
            // A partition at maximum depth is 16^MAX_DEPTH-fold smaller
            // than the input; finish it with a bounded uncharged working
            // set rather than fail.
            if over && depth < MAX_DEPTH {
                self.flush(&mut table, &mut writer, depth)?;
            }
        }
        self.ctx.query.note_unit();
        self.finish_level(table, writer, depth)
    }

    /// Finalize up to [`BATCH_SIZE`] groups into one output batch, releasing
    /// their memory as they leave the operator, so downstream operators
    /// (e.g. the final sort) can reserve it.
    fn drain_batch(&mut self) -> Result<Option<RowBatch>> {
        let AggState::Draining(groups) = &mut self.state else {
            unreachable!("drain outside draining state");
        };
        match groups {
            Groups::Fast { keys, sums, next } => {
                let range = *next..keys.len().min(*next + BATCH_SIZE);
                if range.is_empty() {
                    return Ok(None);
                }
                *next = range.end;
                // `keys` and `sums` stay allocated until the drain ends: the
                // ledger under-counts by their 8 × (1 + aggs) bytes a group
                // meanwhile (ARCHITECTURE.md, the per-batch ledger rule).
                self.reservation.shrink(range.len() * self.core.fast_bytes);
                let mut cols = vec![Column::Int(keys[range.clone()].to_vec())];
                cols.extend(sums.iter().map(|s| Column::Float(s[range.clone()].to_vec())));
                Ok(Some(RowBatch::from_columns(cols)))
            }
            Groups::Generic(groups) => {
                if groups.is_empty() {
                    return Ok(None);
                }
                let n = groups.len().min(BATCH_SIZE);
                let mut rows: Vec<Row> = Vec::with_capacity(n);
                for (reps, accs) in groups.drain(..n) {
                    self.reservation.shrink(entry_bytes(&reps, accs.len()));
                    let mut row = reps;
                    row.extend(accs.into_iter().map(Acc::finalize));
                    rows.push(row);
                }
                RowBatch::from_owned_rows(rows).map(Some)
            }
        }
    }
}

impl BatchStream for BatchHashAggregate {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        loop {
            match &self.state {
                AggState::Pending => self.consume()?,
                AggState::Draining(_) => {
                    if let Some(batch) = self.drain_batch()? {
                        return Ok(Some(batch));
                    }
                    self.reservation.free();
                    match self.pending.pop() {
                        Some((reader, depth)) => self.merge_partition(reader, depth)?,
                        None => self.state = AggState::Done,
                    }
                }
                AggState::Done => return Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_util::{
        batches_of, ctx, ctx_with_budget, drain_batch_list, drain_batches, int_rows, stream_of,
    };
    use super::*;
    use crate::ast::BinaryOp;
    use crate::storage::budget::MemoryBudget;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn bin(a: BoundExpr, op: BinaryOp, b: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(a), op, right: Box::new(b) }
    }

    fn hash_join(
        probe: Box<dyn BatchStream>,
        build: Box<dyn BatchStream>,
        lk: BoundExpr,
        rk: BoundExpr,
        ctx: &ExecContext,
    ) -> BatchHashJoin {
        let (table, reservation) = JoinTable::build_from_stream(build, lk, rk, ctx).unwrap();
        BatchHashJoin { probe, table, pending: None, _reservation: reservation }
    }

    #[test]
    fn filter_selects_and_preserves_order() {
        let f = BatchFilter {
            input: batches_of(int_rows(&[1, -2, 3, -4, 5])),
            predicate: bin(col(0), BinaryOp::Gt, BoundExpr::Literal(Value::Int(0))),
        };
        let out = drain_batches(Box::new(f));
        assert_eq!(out, int_rows(&[1, 3, 5]));
    }

    /// A build side of several batches keeps every row in input order.
    #[test]
    fn hash_join_keeps_build_order_across_build_batches() {
        let left: Vec<Row> = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Int(9), Value::Int(30)],
        ];
        let right = |k: i64, v: &str| RowBatch::from_columns(vec![Column::Int(vec![k]), Column::Text(vec![v.into()])]);
        let build = stream_of(vec![right(2, "a"), right(3, "b"), right(2, "c")]);
        let j = hash_join(batches_of(left), build, col(0), col(0), &ctx());
        let out = drain_batches(Box::new(j));
        let text = |v: &str| Value::Str(v.into());
        assert_eq!(out, vec![
            vec![Value::Int(2), Value::Int(20), Value::Int(2), text("a")],
            vec![Value::Int(2), Value::Int(20), Value::Int(2), text("c")],
        ]);
    }

    fn join_table(build: Vec<Row>) -> JoinTable {
        JoinTable::build_from_stream(batches_of(build), col(0), col(0), &ctx())
            .unwrap()
            .0
    }

    #[test]
    fn direct_join_index_is_chosen_from_the_build_keys() {
        let keyed = |keys: &[Value]| -> Vec<Row> {
            keys.iter().map(|k| vec![k.clone(), Value::Int(7)]).collect()
        };
        let ints = |keys: &[i64]| keyed(&keys.iter().map(|&k| Value::Int(k)).collect::<Vec<_>>());
        for (build, direct) in [
            (ints(&[0, 1, 1, 63]), true),
            (ints(&[]), true),
            (keyed(&[Value::Float(2.0)]), true), // groups with INTEGER 2
            (ints(&[64]), false),
            (ints(&[3, -1]), false),
            (keyed(&[Value::Float(2.5)]), false),
            (keyed(&[Value::Str("1".into())]), false),
        ] {
            let table = join_table(build.clone());
            assert_eq!(matches!(table.table, KeyMap::Direct { .. }), direct, "{build:?}");
        }
    }

    #[test]
    fn probe_rows_matching_once_in_order_are_forwarded_not_copied() {
        // A permutation gate's table: one build row per key.
        let build: Vec<Row> = (0..4).map(|k| vec![Value::Int(k), Value::Int(10 + k)]).collect();
        let join = |probe: &RowBatch| {
            let probe = stream_of(vec![probe.clone()]);
            drain_batch_list(Box::new(hash_join(
                probe,
                batches_of(build.clone()),
                col(0),
                col(0),
                &ctx(),
            )))
        };
        let probe = RowBatch::from_rows(
            &(0..100).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect::<Vec<_>>(),
        )
        .unwrap();
        let out = join(&probe);
        assert_eq!(out.len(), 1);
        for c in 0..2 {
            assert!(Arc::ptr_eq(&out[0].columns()[c], &probe.columns()[c]), "column {c} copied");
        }
        assert_eq!(out[0].row(5), vec![Value::Int(1), Value::Int(5), Value::Int(1), Value::Int(11)]);

        // One row without a match: the survivors are gathered.
        let mut rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect();
        rows[50][0] = Value::Int(9);
        let probe = RowBatch::from_rows(&rows).unwrap();
        let out = join(&probe);
        assert_eq!(out[0].num_rows(), 99);
        assert!(!Arc::ptr_eq(&out[0].columns()[1], &probe.columns()[1]));
        assert_eq!(out[0].row(50)[1], Value::Int(51));
    }

    #[test]
    fn join_build_floor_holds_then_the_budget_is_enforced() {
        // With the shared budget exhausted, a build side within the
        // per-operator floor (BUILD_OVERDRAFT_ROWS) still joins …
        let small: Vec<Row> = (0..100).map(|k| vec![Value::Int(k), Value::Int(k)]).collect();
        let j = hash_join(
            batches_of(vec![vec![Value::Int(1), Value::Int(0)]]),
            batches_of(small),
            col(0),
            col(0),
            &ctx_with_budget(128),
        );
        assert_eq!(drain_batches(Box::new(j)).len(), 1);
        // … and one past the floor is a typed error, not an unbounded overdraft.
        let big: Vec<Row> = (0..1000).map(|k| vec![Value::Int(k), Value::Int(k)]).collect();
        let built =
            JoinTable::build_from_stream(batches_of(big), col(0), col(0), &ctx_with_budget(128));
        assert!(matches!(built, Err(Error::OutOfMemory { .. })));
    }

    #[test]
    fn skewed_join_emits_bounded_batches() {
        // 2000 probe rows all hitting a 5-row match list fan out into
        // 10 000 output pairs; each emitted batch must stay near BATCH_SIZE
        // instead of materializing the whole cross product at once.
        let probe: Vec<Row> = (0..2000).map(|i| vec![Value::Int(1), Value::Int(i)]).collect();
        let build: Vec<Row> = (0..5).map(|j| vec![Value::Int(1), Value::Int(j)]).collect();
        let mut j =
            hash_join(batches_of(probe), batches_of(build), col(0), col(0), &ctx());
        let mut total = 0;
        while let Some(b) = j.next_batch().unwrap() {
            assert!(b.num_rows() <= BATCH_SIZE + 5, "oversized batch: {}", b.num_rows());
            total += b.num_rows();
        }
        assert_eq!(total, 10_000);
    }

    #[test]
    fn fast_aggregate_sums_per_group() {
        let rows: Vec<Row> =
            (0..4000).map(|i| vec![Value::Int(i % 7), Value::Float(0.5)]).collect();
        let agg = BatchHashAggregate::new(
            batches_of(rows),
            vec![col(0)],
            vec![AggExpr { func: AggFunc::Sum, arg: Some(col(1)) }],
            ctx(),
        );
        let mut out = drain_batches(Box::new(agg));
        out.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(out.len(), 7);
        // 4000 rows over 7 groups: groups 0..=3 get 572 rows, 4..=6 get 571.
        assert_eq!(out[0][1], Value::Float(572.0 * 0.5));
        assert_eq!(out[6][1], Value::Float(571.0 * 0.5));
    }

    fn sum_of(c: usize) -> AggExpr {
        AggExpr { func: AggFunc::Sum, arg: Some(col(c)) }
    }

    #[test]
    fn fast_aggregate_drains_typed_columns_in_first_seen_order() {
        // 2 500 groups, first seen in descending key order, each hit twice.
        let rows: Vec<Row> = (0..5000)
            .map(|i| vec![Value::Int(2499 - i % 2500), Value::Float(0.25), Value::Float(1.0)])
            .collect();
        let ctx = ctx();
        let budget = ctx.budget.clone();
        let mut agg = BatchHashAggregate::new(
            batches_of(rows),
            vec![col(0)],
            vec![sum_of(1), sum_of(2)],
            ctx,
        );
        let mut sizes = Vec::new();
        let mut keys: Vec<i64> = Vec::new();
        while let Some(b) = agg.next_batch().unwrap() {
            // Exactly the groups still inside stay charged: `shrink`
            // saturates, so only the running balance shows a double release.
            let left = 2500 - keys.len() - b.num_rows();
            assert_eq!(budget.used(), left * agg.core.fast_bytes);
            let (Column::Int(k), Column::Float(r), Column::Float(i)) =
                (b.column(0), b.column(1), b.column(2))
            else {
                panic!("untyped lanes: {b:?}");
            };
            assert!(r.iter().all(|&x| x == 0.5) && i.iter().all(|&x| x == 2.0));
            sizes.push(k.len());
            keys.extend_from_slice(k);
        }
        assert_eq!(sizes, [BATCH_SIZE, BATCH_SIZE, 2500 - 2 * BATCH_SIZE]);
        assert_eq!(keys, (0..2500).rev().collect::<Vec<i64>>());
    }

    #[test]
    fn new_groups_are_charged_per_batch_up_to_what_a_per_group_loop_reserves() {
        let core = AggCore::new(vec![col(0)], vec![sum_of(1)]);
        let batch = |keys: std::ops::Range<i64>| {
            Rows::Batch(
                RowBatch::from_rows(
                    &keys.map(|k| vec![Value::Int(k), Value::Float(1.0)]).collect::<Vec<_>>(),
                )
                .unwrap(),
            )
        };
        // Room for ten and a half groups.
        let budget = MemoryBudget::with_limit(10 * core.fast_bytes + core.fast_bytes / 2);
        let mut reservation = Reservation::empty(&budget);
        let mut table = None;
        assert!(!core.update_batch(&batch(0..4), &mut table, &mut reservation).unwrap());
        assert_eq!(reservation.bytes(), 4 * core.fast_bytes);
        // 25 more do not fit at once: the fallback reserves the six that do.
        assert!(core.update_batch(&batch(4..29), &mut table, &mut reservation).unwrap());
        assert_eq!(reservation.bytes(), 10 * core.fast_bytes);
        assert_eq!(budget.peak(), 10 * core.fast_bytes);
        // No new group, nothing to charge, nothing to flush.
        assert!(!core.update_batch(&batch(0..29), &mut table, &mut reservation).unwrap());
    }

    #[test]
    fn aggregate_spills_under_budget_and_stays_correct() {
        let rows: Vec<Row> = (0..40_000)
            .map(|i| vec![Value::Int(i % 10_000), Value::Float(1.0)])
            .collect();
        let tight = ctx_with_budget(200 * 1024);
        let spill_dir = tight.spill.clone();
        let agg = BatchHashAggregate::new(
            batches_of(rows),
            vec![col(0)],
            vec![AggExpr { func: AggFunc::Sum, arg: Some(col(1)) }],
            tight,
        );
        let mut out = drain_batches(Box::new(agg));
        assert!(spill_dir.files_created() > 0, "expected spilling to occur");
        out.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(out.len(), 10_000);
        for row in &out {
            assert_eq!(row[1], Value::Float(4.0));
        }
    }

    /// The pin that fails if spilled groups detour through rows again: a
    /// fast table that flushed (many times) and re-partitioned still drains
    /// typed lanes, and every sum has the bits of the unspilled run.
    #[test]
    fn spilled_fast_aggregate_drains_typed_columns() {
        // 10 000 groups met four times round robin, the addends not dyadic:
        // a sum's bits depend on the order its terms are added in. No table
        // below lives long enough to meet a key twice, so every partial is
        // one term and the merge adds them in input order, as memory does.
        let rows: Vec<Row> = (0..40_000i64)
            .map(|i| {
                let v = (i % 97) as f64 / 7.0 - 3.0;
                vec![Value::Int((i % 10_000) * 7919), Value::Float(v), Value::Float(-v / 3.0)]
            })
            .collect();
        let run = |ctx: ExecContext| {
            let mut agg = BatchHashAggregate::new(
                batches_of(rows.clone()),
                vec![col(0)],
                vec![sum_of(1), sum_of(2)],
                ctx,
            );
            let mut groups: Vec<(i64, u64, u64)> = Vec::new();
            while let Some(b) = agg.next_batch().unwrap() {
                let (Column::Int(k), Column::Float(r), Column::Float(i)) =
                    (b.column(0), b.column(1), b.column(2))
                else {
                    panic!("untyped lanes: {b:?}");
                };
                assert!(b.num_rows() <= BATCH_SIZE);
                groups.extend((0..k.len()).map(|g| (k[g], r[g].to_bits(), i[g].to_bits())));
            }
            groups.sort_unstable();
            groups
        };
        let want = run(ctx());
        assert_eq!(want.len(), 10_000);
        // Room for some 300 groups: every batch of input flushes, and a
        // partition (a sixteenth: 625 groups) does not fit either, so each
        // merge re-partitions into a file of its own.
        let tight = ctx_with_budget(60 * 1024);
        let (spill, budget) = (tight.spill.clone(), tight.budget.clone());
        let got = run(tight);
        assert!(spill.files_created() > 1, "no partition was re-partitioned");
        assert!(
            spill.bytes_written() > 2 * 10_000 * 24,
            "expected every group to be flushed more than twice: {} bytes",
            spill.bytes_written()
        );
        assert_eq!(got, want);
        assert_eq!((budget.used(), spill.live_files()), (0, 0));
    }

    /// `COUNT(*)` and a `SUM` of an `INTEGER` lane take the generic table.
    #[test]
    fn generic_aggregate_counts_and_sums_integers() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Int(3)],
            vec![Value::Int(1), Value::Int(-1)],
            vec![Value::Int(1), Value::Int(3)],
            vec![Value::Int(2), Value::Int(7)],
        ];
        let aggs = vec![AggExpr { func: AggFunc::CountStar, arg: None }, sum_of(1)];
        let agg = BatchHashAggregate::new(batches_of(rows), vec![col(0)], aggs, ctx());
        let mut out = drain_batches(Box::new(agg));
        out.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(out[0], vec![Value::Int(1), Value::Int(3), Value::Int(5)]);
        assert_eq!(out[1], vec![Value::Int(2), Value::Int(1), Value::Int(7)]);
    }

    /// `COUNT(*)` and `SUM` over one `DOUBLE` and one `INTEGER` lane,
    /// with no `GROUP BY`, over `rows` in batches.
    fn global_sums(rows: Vec<Row>) -> Result<Vec<Row>> {
        let aggs = vec![
            AggExpr { func: AggFunc::CountStar, arg: None },
            AggExpr { func: AggFunc::Sum, arg: Some(col(0)) },
            AggExpr { func: AggFunc::Sum, arg: Some(col(1)) },
        ];
        let mut agg = BatchHashAggregate::new(batches_of(rows), vec![], aggs, ctx());
        let mut out = Vec::new();
        while let Some(batch) = agg.next_batch()? {
            out.extend((0..batch.num_rows()).map(|i| batch.row(i)));
        }
        Ok(out)
    }

    #[test]
    fn global_aggregate_folds_lanes_bit_for_bit_as_acc() {
        let rows: Vec<Row> = (0..3000)
            .map(|k| vec![Value::Float(((k * 7919) % 1013) as f64 * 1e-3 - 0.4), Value::Int(k - 1500)])
            .collect();
        let mut accs = [Acc::Count(0), Acc::Sum(None), Acc::Sum(None)];
        for row in &rows {
            accs[0].update(None).unwrap();
            accs[1].update(Some(row[0].clone())).unwrap();
            accs[2].update(Some(row[1].clone())).unwrap();
        }
        let want: Row = accs.into_iter().map(Acc::finalize).collect();
        let got = global_sums(rows).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0][0], want[0]);
        let (Value::Float(g), Value::Float(w)) = (&got[0][1], &want[1]) else { panic!("{got:?}") };
        assert_eq!(g.to_bits(), w.to_bits());
        assert_eq!(got[0][2], want[2]);
        // A `-0.0` term sums to `+0.0`, and an overflowing `INTEGER` sum is
        // an error.
        let got = global_sums(vec![vec![Value::Float(-0.0), Value::Int(1)]]).unwrap();
        assert_eq!(got[0][1].as_f64().unwrap().to_bits(), 0.0f64.to_bits());
        let rows = vec![vec![Value::Float(0.0), Value::Int(i64::MAX)], vec![Value::Float(0.0), Value::Int(1)]];
        assert!(matches!(global_sums(rows), Err(Error::Eval(_))));
    }

    #[test]
    fn global_aggregate_on_empty_input_emits_defaults() {
        let agg = BatchHashAggregate::new(
            batches_of(vec![]),
            vec![],
            vec![
                AggExpr { func: AggFunc::Sum, arg: Some(col(0)) },
                AggExpr { func: AggFunc::CountStar, arg: None },
            ],
            ctx(),
        );
        let out = drain_batches(Box::new(agg));
        let zeros = |row: &Row| matches!(row[..], [Value::Int(0), Value::Int(0)]);
        assert!(matches!(out.as_slice(), [row] if zeros(row)), "{out:?}");
    }
}
