//! Vectorized (batch-at-a-time) physical execution: the engine's executor.
//!
//! Operators exchange columnar [`RowBatch`]es of ~[`BATCH_SIZE`] rows,
//! amortizing dispatch and running the expression kernels of [`crate::vexpr`]
//! over primitive slices. The operator set covers **every plan shape the
//! planner emits**: scan, filter, project, hash join (inner and LEFT OUTER),
//! nested-loop join (cross and non-equi), hash aggregate (including
//! DISTINCT), sort/top-k (see [`super::vsort`]), limit, union, and alias.
//! Results leave the pipeline batch by batch through `drain`; what the
//! executor is tested against is the reference interpreter in
//! [`crate::reference`], which shares none of the code below.
//! One caveat, standard for vectorized engines: **error detection is
//! batch-granular**. Expressions evaluate over a whole batch before
//! downstream operators see any of it, so a failing row (say `10 / x` with
//! `x = 0`) raises its error even when a downstream `LIMIT` needs only rows
//! ahead of it in the same batch; a failing row in a batch the `LIMIT` never
//! pulls raises nothing. The reference evaluates every row of every node, so
//! it reports both.
//!
//! Memory discipline: join builds and aggregation tables charge the shared
//! [`MemoryBudget`](crate::storage::budget), and the aggregate spills typed
//! blocks or partial rows (see [`super::aggregate`]) into hash partitions
//! with a recursive re-partition merge. Budget checks happen per batch, so
//! a table may transiently overshoot its reservation by at most one batch of
//! new groups before it flushes.
//!
//! When [`ExecContext::parallelism`] is greater than one, eligible pipeline
//! segments (scan → filter/project/equi-join-probe chains over a base table,
//! outer probes included) execute morsel-parallel on a worker pool — see
//! [`super::parallel`] — and every pipeline breaker parallelizes its heavy
//! phase: the hash-join build merges per-morsel key evaluations in morsel
//! order, the hash aggregate merges per-worker partial tables (including
//! per-worker spill partitions) at finalize, and the sort merges per-worker
//! sorted runs at the breaker ([`super::vsort`]). `parallelism = 1` takes
//! exactly the sequential code paths below.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use crate::ast::JoinKind;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::logical::{AggExpr, AggFunc, Plan};
use crate::plan::optimizer::extract_equi_keys;
use crate::storage::budget::{MemoryBudget, Reservation};
use crate::storage::spill::{row_bytes, Row, SpillDir, SpillReader, SpillRecord, SpillWriter};
use crate::table::TableSnapshot;
use crate::value::{GroupKey, Value};

use super::aggregate::{
    entry_bytes, partition_of, partition_of_int, Acc, GroupState, IntGroupTable, MAX_DEPTH,
    PARTITIONS,
};
use super::batch::{BatchBuilder, Column, ColumnRef, RowBatch, BATCH_SIZE};
use super::parallel::{self, Segment};
use super::{instrument_slot, set_node_label, vsort, BuildTimer, ExecContext, NodeStats};

/// Uncharged rows a join build side may hold when the shared budget is
/// exhausted (the per-operator working-set floor).
pub(crate) const BUILD_OVERDRAFT_ROWS: usize = 256;

/// A pull-based batch iterator. `next_batch` returns `Ok(None)` at end of
/// stream; emitted batches are never empty.
pub trait BatchStream {
    /// Pull the next batch, or `None` at end of stream.
    fn next_batch(&mut self) -> Result<Option<RowBatch>>;
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
    Ok(Box::new(BatchCancelGuard {
        inner: instrument_wrap(stream, slot, ctx),
        query: ctx.query.clone(),
        pulled: false,
    }))
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

impl BatchStream for BatchCancelGuard {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.pulled {
            self.query.note_unit();
        }
        self.query.check()?;
        self.pulled = true;
        self.inner.next_batch()
    }
}

/// Wrap `stream` with the `EXPLAIN ANALYZE` counter shim when a stats slot
/// was reserved for it.
pub(crate) fn instrument_wrap(
    stream: Box<dyn BatchStream>,
    slot: Option<usize>,
    ctx: &ExecContext,
) -> Box<dyn BatchStream> {
    match (slot, &ctx.instrument) {
        (Some(id), Some(stats)) => Box::new(InstrumentedBatch {
            inner: stream,
            id,
            stats: Rc::clone(stats),
        }),
        _ => stream,
    }
}

fn build_batch_stream_inner(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &ExecContext,
    depth: usize,
    slot: Option<usize>,
) -> Result<Box<dyn BatchStream>> {
    // Morsel-parallel pipelines: a filter/project/equi-join chain rooted in
    // a base-table scan runs on a worker pool, with output batches gathered
    // back in morsel order (so downstream consumers see the sequential
    // order). Single chunks and `parallelism = 1` use the operators below.
    if matches!(
        plan,
        Plan::Filter { .. }
            | Plan::Project { .. }
            | Plan::Join { .. }
            | Plan::Aggregate { one_row_per_group: true, .. }
    ) && parallel::parallel_eligible(plan, catalog, ctx)
    {
        let segment = parallel::build_segment(plan, catalog, ctx, depth, slot)?;
        return parallel::spawn_pipeline(segment, ctx, slot);
    }
    Ok(match plan {
        Plan::Scan { table, .. } => {
            let snapshot = catalog.get(table)?.snapshot();
            Box::new(BatchScan { snapshot, next_chunk: 0 })
        }
        Plan::One => Box::new(OneBatch { emitted: false }),
        Plan::Filter { input, predicate } => Box::new(BatchFilter {
            input: build_batch_stream_at(input, catalog, ctx, depth + 1)?,
            predicate: predicate.clone(),
        }),
        // An aggregate with one row per group has no table to build: the
        // projection operator computes its group key and its sums.
        Plan::Project { .. } | Plan::Aggregate { one_row_per_group: true, .. } => {
            let (input, exprs) = plan.as_projection().expect("matched a projection");
            Box::new(BatchProject {
                input: build_batch_stream_at(input, catalog, ctx, depth + 1)?,
                exprs: exprs.into_owned(),
            })
        }
        Plan::Join { left, right, kind, on, .. } => {
            if *kind == JoinKind::Right {
                return Err(Error::Plan(
                    "internal: RIGHT JOIN must be rewritten at plan time".into(),
                ));
            }
            let left_cols = left.schema().len();
            let right_cols = right.schema().len();
            let outer = *kind == JoinKind::Left;
            // Decide the strategy before building children (each child
            // registers exactly one instrumentation slot).
            let equi = match (kind, on) {
                (JoinKind::Inner | JoinKind::Left, Some(cond)) => {
                    let (lk, rk, residual) = extract_equi_keys(cond.clone(), left_cols);
                    if lk.is_empty() {
                        None
                    } else {
                        Some((lk, rk, residual))
                    }
                }
                _ => None,
            };
            match equi {
                // Equi-keys (inner or left outer) take the vectorized probe.
                Some((lk, rk, residual)) => {
                    set_node_label(ctx, slot, format!("HashJoin {kind:?}"));
                    let l = build_batch_stream_at(left, catalog, ctx, depth + 1)?;
                    let (table, reservations) = parallel::build_join_table(
                        right,
                        catalog,
                        ctx,
                        depth + 1,
                        lk,
                        rk,
                        residual,
                        right_cols,
                    )?;
                    Box::new(BatchHashJoin::new(l, table, reservations, outer))
                }
                // Cross and non-equi conditions run the vectorized nested
                // loop with batched predicate evaluation.
                None => {
                    if outer && on.is_none() {
                        return Err(Error::Unsupported(
                            "LEFT JOIN requires an ON condition".into(),
                        ));
                    }
                    set_node_label(ctx, slot, format!("NestedLoopJoin {kind:?}"));
                    let l = build_batch_stream_at(left, catalog, ctx, depth + 1)?;
                    let r = build_batch_stream_at(right, catalog, ctx, depth + 1)?;
                    Box::new(BatchNestedLoopJoin::new(
                        l,
                        r,
                        left_cols,
                        right_cols,
                        on.clone(),
                        outer,
                        ctx,
                    )?)
                }
            }
        }
        Plan::Aggregate { input, group_by, aggs, .. } => {
            if parallel::agg_input_eligible(input, catalog, ctx) {
                // Morsel-parallel consume: workers run the input segment and
                // build per-worker partial tables, merged at finalize.
                // DISTINCT aggregates participate: per-worker distinct sets
                // merge by union, and their spill partials carry the sets.
                let segment = parallel::descend_segment(input, catalog, ctx, depth)?;
                let workers = ctx.parallelism.min(segment.num_morsels());
                parallel::note_parallel(ctx, slot, workers, segment.num_morsels());
                return Ok(Box::new(BatchHashAggregate::new_parallel(
                    segment,
                    group_by.clone(),
                    aggs.clone(),
                    ctx.clone(),
                )));
            }
            let child = build_batch_stream_at(input, catalog, ctx, depth + 1)?;
            Box::new(BatchHashAggregate::new(
                child,
                group_by.clone(),
                aggs.clone(),
                ctx.clone(),
            ))
        }
        Plan::Sort { input, keys } => {
            return vsort::build_sort_stream(input, keys, None, catalog, ctx, depth, slot);
        }
        Plan::Limit { input, limit, offset } => {
            // `ORDER BY … LIMIT k`: a small k turns the sort into a top-k
            // heap — the limit node stays (it applies the offset), but the
            // sort below only ever retains k rows.
            if let (Some(l), Plan::Sort { input: sort_input, keys }) =
                (*limit, input.as_ref())
            {
                let k = l.saturating_add(*offset);
                if k > 0 && k <= vsort::TOPK_MAX_ROWS as u64 {
                    let sort_slot = instrument_slot(ctx, input, depth + 1);
                    let _timer = BuildTimer::start(ctx, sort_slot);
                    let sorted = vsort::build_sort_stream(
                        sort_input,
                        keys,
                        Some(k as usize),
                        catalog,
                        ctx,
                        depth + 1,
                        sort_slot,
                    )?;
                    return Ok(Box::new(BatchLimit {
                        input: instrument_wrap(sorted, sort_slot, ctx),
                        remaining: l,
                        to_skip: *offset,
                    }));
                }
            }
            Box::new(BatchLimit {
                input: build_batch_stream_at(input, catalog, ctx, depth + 1)?,
                remaining: limit.unwrap_or(u64::MAX),
                to_skip: *offset,
            })
        }
        Plan::UnionAll { inputs } => {
            let streams = inputs
                .iter()
                .map(|p| build_batch_stream_at(p, catalog, ctx, depth + 1))
                .collect::<Result<Vec<_>>>()?;
            Box::new(BatchUnion { streams, current: 0 })
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

impl BatchStream for InstrumentedBatch {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        let start = Instant::now();
        let out = self.inner.next_batch();
        let elapsed = start.elapsed().as_nanos();
        let mut stats = self.stats.borrow_mut();
        let node = &mut stats[self.id];
        node.nanos += elapsed;
        if let Ok(Some(batch)) = &out {
            node.rows_out += batch.num_rows() as u64;
            node.batches_out += 1;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Leaf and stateless operators
// ---------------------------------------------------------------------------

/// Zero-copy base-table scan: each stored chunk becomes one [`RowBatch`]
/// whose columns **are** the table's chunk columns (`Arc` clones — no
/// row→column transpose, no per-value copy). The snapshot pins the chunks,
/// so scans stay consistent under concurrent inserts/deletes.
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

struct OneBatch {
    emitted: bool,
}

impl BatchStream for OneBatch {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.emitted {
            Ok(None)
        } else {
            self.emitted = true;
            Ok(Some(RowBatch::zero_columns(1)))
        }
    }
}

/// Row indices of `col` whose truthiness is exactly `TRUE` (NULL filters out).
pub(crate) fn truthy_selection(col: &Column) -> Result<Vec<u32>> {
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
        Column::Generic(vals) => {
            let mut sel = Vec::new();
            for (i, v) in vals.iter().enumerate() {
                if v.as_bool()? == Some(true) {
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
    exprs: Vec<BoundExpr>,
}

impl BatchStream for BatchProject {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        match self.input.next_batch()? {
            Some(batch) => {
                let cols = self
                    .exprs
                    .iter()
                    .map(|e| e.eval_batch(&batch))
                    .collect::<Result<Vec<_>>>()?;
                Ok(Some(RowBatch::from_shared(cols)))
            }
            None => Ok(None),
        }
    }
}

struct BatchLimit {
    input: Box<dyn BatchStream>,
    remaining: u64,
    to_skip: u64,
}

impl BatchStream for BatchLimit {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        while let Some(mut batch) = self.input.next_batch()? {
            if self.to_skip > 0 {
                let skip = (self.to_skip).min(batch.num_rows() as u64) as usize;
                batch.skip(skip);
                self.to_skip -= skip as u64;
            }
            if batch.is_empty() {
                continue;
            }
            if (batch.num_rows() as u64) > self.remaining {
                batch.truncate(self.remaining as usize);
            }
            self.remaining -= batch.num_rows() as u64;
            return Ok(Some(batch));
        }
        Ok(None)
    }
}

struct BatchUnion {
    streams: Vec<Box<dyn BatchStream>>,
    current: usize,
}

impl BatchStream for BatchUnion {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        while self.current < self.streams.len() {
            if let Some(batch) = self.streams[self.current].next_batch()? {
                return Ok(Some(batch));
            }
            self.current += 1;
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// Vectorized hash join (inner, equi-keys)
// ---------------------------------------------------------------------------

/// Join-key lookup table. `Single` specializes the one-key case (the gate
/// join `H.in_s = (T0.s & mask)` has exactly one key) to skip a `Vec`
/// allocation per probed row; `Direct` is what a `Single` table becomes at
/// [`JoinTableBuilder::finish`] when every build key is an integer in
/// `0..DIRECT_KEYS` — a gate table's `in_s` always is — so probes index
/// instead of hashing.
enum KeyMap {
    /// Build rows of key `k` are `ids[offsets[k]..offsets[k + 1]]`, in
    /// insertion order.
    Direct { offsets: Vec<u32>, ids: Vec<u32> },
    Single(HashMap<GroupKey, Vec<u32>>),
    Multi(HashMap<Vec<GroupKey>, Vec<u32>>),
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
/// key → row-index table, with the probe-side key expressions and residual
/// predicate attached. Once built it is read-only, so morsel workers probe
/// it concurrently through a plain `Arc` (see [`super::parallel`]).
pub(crate) struct JoinTable {
    build: RowBatch,
    /// Width of the build side's schema. Carried explicitly because an empty
    /// build produces a zero-column `RowBatch`, and outer-join null padding
    /// must still widen unmatched probe rows by the full build arity.
    build_cols: usize,
    table: KeyMap,
    left_keys: Vec<BoundExpr>,
    residual: Option<BoundExpr>,
}

/// Accumulates build rows into a [`JoinTable`]. Insertion order defines the
/// match order probes observe, so the parallel build feeds per-morsel
/// results through this in morsel order — reproducing the sequential
/// structure exactly.
pub(crate) struct JoinTableBuilder {
    kept: Vec<Row>,
    table: KeyMap,
    overdraft_rows: usize,
}

impl JoinTableBuilder {
    /// An empty builder for `num_keys` join keys.
    pub(crate) fn new(num_keys: usize) -> Self {
        JoinTableBuilder {
            kept: Vec::new(),
            table: if num_keys == 1 {
                KeyMap::Single(HashMap::new())
            } else {
                KeyMap::Multi(HashMap::new())
            },
            overdraft_rows: 0,
        }
    }

    /// Insert every non-NULL-key row of `batch` (whose join keys are already
    /// evaluated in `key_cols`), charging `reservation` per kept row. A
    /// bounded overdraft ([`BUILD_OVERDRAFT_ROWS`]) is tolerated.
    pub(crate) fn insert_batch(
        &mut self,
        batch: &RowBatch,
        key_cols: &[ColumnRef],
        reservation: &mut Reservation,
        budget: &MemoryBudget,
    ) -> Result<()> {
        for i in 0..batch.num_rows() {
            let keys: Vec<GroupKey> = key_cols.iter().map(|c| c.group_key_at(i)).collect();
            // SQL semantics: NULL keys never match.
            if keys.iter().any(|k| matches!(k, GroupKey::Null)) {
                continue;
            }
            let row = batch.row(i);
            let bytes =
                row_bytes(&row) + keys.iter().map(GroupKey::heap_bytes).sum::<usize>();
            if !reservation.try_grow(bytes) {
                self.overdraft_rows += 1;
                if self.overdraft_rows > BUILD_OVERDRAFT_ROWS {
                    return Err(Error::OutOfMemory {
                        requested: bytes,
                        budget: budget.limit(),
                    });
                }
            }
            let idx = self.kept.len() as u32;
            self.kept.push(row);
            match &mut self.table {
                // SAFETY of expect: `KeyMap::Single` is only constructed for
                // one-column join keys, and every caller builds `keys` with
                // exactly one entry per key column.
                KeyMap::Single(m) => m
                    .entry(keys.into_iter().next().expect("single key"))
                    .or_default()
                    .push(idx),
                KeyMap::Multi(m) => m.entry(keys).or_default().push(idx),
                KeyMap::Direct { .. } => unreachable!("chosen at finish"),
            }
        }
        Ok(())
    }

    /// Seal the builder into an immutable, probe-ready [`JoinTable`].
    pub(crate) fn finish(
        self,
        left_keys: Vec<BoundExpr>,
        residual: Option<BoundExpr>,
        build_cols: usize,
    ) -> JoinTable {
        let table = match self.table {
            KeyMap::Single(map) => KeyMap::direct(&map).unwrap_or(KeyMap::Single(map)),
            other => other,
        };
        JoinTable {
            build: RowBatch::from_owned_rows(self.kept),
            build_cols,
            table,
            left_keys,
            residual,
        }
    }
}

impl JoinTable {
    /// Sequential build: drain `build_input` into the table. Returns the
    /// table plus the reservation holding its memory charge.
    pub(crate) fn build_from_stream(
        mut build_input: Box<dyn BatchStream>,
        left_keys: Vec<BoundExpr>,
        right_keys: Vec<BoundExpr>,
        residual: Option<BoundExpr>,
        build_cols: usize,
        ctx: &ExecContext,
    ) -> Result<(JoinTable, Reservation)> {
        let mut builder = JoinTableBuilder::new(right_keys.len());
        let mut reservation = Reservation::empty(&ctx.budget);
        while let Some(batch) = build_input.next_batch()? {
            let key_cols = right_keys
                .iter()
                .map(|e| e.eval_batch(&batch))
                .collect::<Result<Vec<_>>>()?;
            builder.insert_batch(&batch, &key_cols, &mut reservation, &ctx.budget)?;
        }
        Ok((builder.finish(left_keys, residual, build_cols), reservation))
    }

    /// Evaluate the probe-side key expressions over a probe batch.
    pub(crate) fn eval_probe_keys(&self, batch: &RowBatch) -> Result<Vec<ColumnRef>> {
        self.left_keys.iter().map(|e| e.eval_batch(batch)).collect()
    }

    fn matches_of(&self, key_cols: &[ColumnRef], i: usize) -> Option<&[u32]> {
        match &self.table {
            KeyMap::Direct { offsets, ids } => {
                let k = match &*key_cols[0] {
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
            KeyMap::Single(m) => {
                let k = key_cols[0].group_key_at(i);
                if matches!(k, GroupKey::Null) {
                    return None;
                }
                m.get(&k).map(Vec::as_slice)
            }
            KeyMap::Multi(m) => {
                let keys: Vec<GroupKey> =
                    key_cols.iter().map(|c| c.group_key_at(i)).collect();
                if keys.iter().any(|k| matches!(k, GroupKey::Null)) {
                    return None;
                }
                m.get(&keys).map(Vec::as_slice)
            }
        }
    }

    /// One probe step: pair the rows of `batch` from `*next` on with their
    /// build matches, stopping near [`BATCH_SIZE`] pairs so a skewed
    /// many-to-many key cannot make one output batch arbitrarily large, and
    /// return the joined rows that pass the residual (`None` when there are
    /// none). `*next` advances past the rows scanned; under outer semantics
    /// `matched` (one flag per probe row, else empty) records which probe
    /// rows produced a passing pair.
    fn probe_step(
        &self,
        batch: &RowBatch,
        key_cols: &[ColumnRef],
        next: &mut usize,
        matched: &mut [bool],
    ) -> Result<Option<RowBatch>> {
        let rows = batch.num_rows();
        let start = *next;
        let mut probe_sel: Vec<u32> = Vec::with_capacity(rows - start);
        let mut build_sel: Vec<u32> = Vec::with_capacity(rows - start);
        let mut i = start;
        while i < rows && probe_sel.len() < BATCH_SIZE {
            if let Some(matches) = self.matches_of(key_cols, i) {
                for &b in matches {
                    probe_sel.push(i as u32);
                    build_sel.push(b);
                }
            }
            i += 1;
        }
        *next = i;
        if probe_sel.is_empty() {
            return Ok(None);
        }
        // Every probe row matched exactly once, in order (diagonal and
        // permutation gates): its columns pass through untouched.
        let probe_side = if probe_sel.iter().copied().eq(0..rows as u32) {
            batch.clone()
        } else {
            batch.gather(&probe_sel)
        };
        let joined = RowBatch::hstack(probe_side, self.build.gather(&build_sel));
        Ok(match self.residual_selection(&joined)? {
            None => {
                if !matched.is_empty() {
                    for &p in &probe_sel {
                        matched[p as usize] = true;
                    }
                }
                Some(joined)
            }
            Some(sel) => {
                if !matched.is_empty() {
                    for &j in &sel {
                        matched[probe_sel[j as usize] as usize] = true;
                    }
                }
                if sel.len() == joined.num_rows() {
                    Some(joined)
                } else if sel.is_empty() {
                    None
                } else {
                    Some(joined.gather(&sel))
                }
            }
        })
    }

    /// The null-padded rows of `batch` that `matched` leaves unmarked (the
    /// left-outer non-matches), if any.
    fn unmatched_pad(&self, batch: &RowBatch, matched: &[bool]) -> Option<RowBatch> {
        let unmatched: Vec<u32> =
            (0..matched.len() as u32).filter(|&p| !matched[p as usize]).collect();
        (!unmatched.is_empty()).then(|| self.null_pad(batch, &unmatched))
    }

    /// Probe one whole batch, emitting joined batches bounded near
    /// [`BATCH_SIZE`] pairs each (the morsel workers' probe entry point —
    /// same pair order and batch boundaries as the streaming operator).
    /// With `outer` set, probe rows that never produce a residual-passing
    /// pair are appended as one null-padded batch — the left-outer match
    /// bitmap lives entirely within the probe batch, which is what makes
    /// outer probes safe to run morsel-parallel.
    pub(crate) fn probe_batch(&self, batch: &RowBatch, outer: bool) -> Result<Vec<RowBatch>> {
        let key_cols = self.eval_probe_keys(batch)?;
        let mut matched = vec![false; if outer { batch.num_rows() } else { 0 }];
        let mut out = Vec::new();
        let mut next = 0;
        while next < batch.num_rows() {
            out.extend(self.probe_step(batch, &key_cols, &mut next, &mut matched)?);
        }
        out.extend(self.unmatched_pad(batch, &matched));
        Ok(out)
    }

    /// Row indices of `joined` passing the residual predicate, or `None`
    /// when there is no residual (every row passes).
    fn residual_selection(&self, joined: &RowBatch) -> Result<Option<Vec<u32>>> {
        match &self.residual {
            Some(pred) => {
                let mask = pred.eval_batch(joined)?;
                Ok(Some(truthy_selection(&mask)?))
            }
            None => Ok(None),
        }
    }

    /// The probe rows at `unmatched`, each widened with NULL for every build
    /// column (left-outer non-match output).
    fn null_pad(&self, probe: &RowBatch, unmatched: &[u32]) -> RowBatch {
        let pad = RowBatch::from_columns(
            (0..self.build_cols)
                .map(|_| Column::splat(&Value::Null, unmatched.len()))
                .collect(),
        );
        RowBatch::hstack(probe.gather(unmatched), pad)
    }
}

/// Hash join over equi-keys: builds on the right input, probes
/// batch-at-a-time with the left. Covers inner and LEFT OUTER semantics
/// (RIGHT OUTER arrives as a planner-rewritten left join); under an outer
/// probe the operator keeps a per-probe-batch match bitmap and emits one
/// null-padded batch of never-matched probe rows after each batch drains.
struct BatchHashJoin {
    probe: Box<dyn BatchStream>,
    table: Arc<JoinTable>,
    /// LEFT OUTER: unmatched probe rows survive, null-padded.
    outer: bool,
    pending: Option<PendingProbe>,
    /// Memory charges for the build table (freed when the join drops).
    _reservations: Vec<Reservation>,
}

/// A probe batch still being drained (skewed keys can fan one probe batch
/// out into many output batches): the batch, its evaluated key columns, the
/// next probe row to resume from, and — for outer joins — which probe rows
/// have produced at least one residual-passing pair so far.
struct PendingProbe {
    batch: RowBatch,
    key_cols: Vec<ColumnRef>,
    next: usize,
    matched: Vec<bool>,
}

impl BatchHashJoin {
    fn new(
        probe: Box<dyn BatchStream>,
        table: Arc<JoinTable>,
        reservations: Vec<Reservation>,
        outer: bool,
    ) -> Self {
        BatchHashJoin { probe, table, outer, pending: None, _reservations: reservations }
    }
}

impl BatchStream for BatchHashJoin {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        loop {
            // Get a probe batch: resume a partially drained one, else pull.
            let mut p = match self.pending.take() {
                Some(p) => p,
                None => match self.probe.next_batch()? {
                    Some(batch) => {
                        let key_cols = self.table.eval_probe_keys(&batch)?;
                        let matched =
                            vec![false; if self.outer { batch.num_rows() } else { 0 }];
                        PendingProbe { batch, key_cols, next: 0, matched }
                    }
                    None => return Ok(None),
                },
            };
            // Fully scanned: under outer semantics the batch still owes its
            // null-padded non-matches, emitted as one final batch.
            if p.next >= p.batch.num_rows() {
                if let Some(pad) = self.table.unmatched_pad(&p.batch, &p.matched) {
                    return Ok(Some(pad));
                }
                continue;
            }
            // The probe position is saved and resumed on the next call.
            let out =
                self.table.probe_step(&p.batch, &p.key_cols, &mut p.next, &mut p.matched)?;
            // Keep the batch pending while rows remain to scan, or while an
            // outer batch still owes its pad pass.
            if p.next < p.batch.num_rows() || self.outer {
                self.pending = Some(p);
            }
            if let Some(b) = out {
                return Ok(Some(b));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized nested-loop join (cross, non-equi, outer non-equi)
// ---------------------------------------------------------------------------

/// Nested-loop join for the shapes the hash join cannot take: cross joins
/// and non-equi `ON` conditions, inner or LEFT OUTER. The right side is
/// materialized once as columnar blocks; for each probe row the condition is
/// evaluated with the [`BoundExpr::eval_batch`] kernels over one whole block
/// at a time (the probe row's values splatted across the block), so the
/// predicate runs vectorized along the build dimension. Output accumulates
/// columnar in a [`BatchBuilder`] and emits near-[`BATCH_SIZE`] batches.
struct BatchNestedLoopJoin {
    probe: Box<dyn BatchStream>,
    /// The materialized right side, kept in its original batch blocks.
    blocks: Vec<RowBatch>,
    /// `None` for cross joins (every pair passes).
    condition: Option<BoundExpr>,
    /// LEFT OUTER: probe rows with no passing pair survive, null-padded.
    outer: bool,
    left_cols: usize,
    right_cols: usize,
    /// Probe batch being drained, resumable at *block* granularity so a
    /// single probe row joining a large build side still emits bounded
    /// batches: (batch, probe row, next build block, row matched so far).
    pending: Option<(RowBatch, usize, usize, bool)>,
    out: BatchBuilder,
    done: bool,
    /// Per-block cancellation checks: one probe row crossing a huge build
    /// side must observe cancel without finishing the whole sweep.
    query: super::govern::QueryContext,
    /// Memory charge for the materialized right side.
    _reservation: Reservation,
}

impl BatchNestedLoopJoin {
    fn new(
        probe: Box<dyn BatchStream>,
        mut build: Box<dyn BatchStream>,
        left_cols: usize,
        right_cols: usize,
        condition: Option<BoundExpr>,
        outer: bool,
        ctx: &ExecContext,
    ) -> Result<Self> {
        // Materialize the build side under the shared budget, with the same
        // bounded working-set floor as every other build phase (batch
        // granularity: the batch that overflows the floor fails the build).
        let mut blocks = Vec::new();
        let mut reservation = Reservation::empty(&ctx.budget);
        let mut overdraft_rows = 0usize;
        while let Some(batch) = build.next_batch()? {
            let bytes: usize = batch.columns().iter().map(|c| c.heap_bytes()).sum();
            if !reservation.try_grow(bytes) {
                overdraft_rows += batch.num_rows();
                if overdraft_rows > BUILD_OVERDRAFT_ROWS {
                    return Err(Error::OutOfMemory {
                        requested: bytes,
                        budget: ctx.budget.limit(),
                    });
                }
            }
            blocks.push(batch);
        }
        Ok(BatchNestedLoopJoin {
            probe,
            blocks,
            condition,
            outer,
            left_cols,
            right_cols,
            pending: None,
            out: BatchBuilder::new(left_cols + right_cols),
            done: false,
            query: ctx.query.clone(),
            _reservation: reservation,
        })
    }

    /// Join probe row `i` of `batch` against build blocks starting at
    /// `*block`, appending passing pairs (and the outer pad once all blocks
    /// are done and none passed) to the output. Stops early — returning
    /// `false` with `*block`/`*matched` positioned for resumption — once
    /// the output builder reaches [`BATCH_SIZE`], so one probe row joining
    /// a large build side cannot balloon a single output batch.
    fn join_row(
        &mut self,
        batch: &RowBatch,
        i: usize,
        block: &mut usize,
        matched: &mut bool,
    ) -> Result<bool> {
        let probe_vals: Vec<Value> =
            (0..self.left_cols).map(|c| batch.column(c).value_at(i)).collect();
        while *block < self.blocks.len() {
            if self.out.num_rows() >= BATCH_SIZE {
                return Ok(false);
            }
            self.query.check()?;
            let bi = *block;
            *block += 1;
            let n = self.blocks[bi].num_rows();
            match &self.condition {
                Some(cond) => {
                    // Splat the probe row across the block and run the
                    // batched kernels over the combined schema.
                    let mut cols: Vec<ColumnRef> =
                        Vec::with_capacity(self.left_cols + self.right_cols);
                    for v in &probe_vals {
                        cols.push(Arc::new(Column::splat(v, n)));
                    }
                    cols.extend(self.blocks[bi].columns().iter().cloned());
                    let combined = RowBatch::from_shared(cols);
                    let mask = cond.eval_batch(&combined)?;
                    let sel = truthy_selection(&mask)?;
                    if sel.is_empty() {
                        continue;
                    }
                    *matched = true;
                    for (c, v) in probe_vals.iter().enumerate() {
                        self.out.column_mut(c).push_n(v, sel.len());
                    }
                    for c in 0..self.right_cols {
                        let gathered = self.blocks[bi].column(c).gather(&sel);
                        self.out.column_mut(self.left_cols + c).extend_from(&gathered);
                    }
                    self.out.add_rows(sel.len());
                }
                None => {
                    // Cross join: every pair passes, no gather needed.
                    *matched = true;
                    for (c, v) in probe_vals.iter().enumerate() {
                        self.out.column_mut(c).push_n(v, n);
                    }
                    for c in 0..self.right_cols {
                        let dst = self.out.column_mut(self.left_cols + c);
                        dst.extend_from(self.blocks[bi].column(c));
                    }
                    self.out.add_rows(n);
                }
            }
        }
        if self.outer && !*matched {
            for (c, v) in probe_vals.iter().enumerate() {
                self.out.column_mut(c).push_n(v, 1);
            }
            for c in 0..self.right_cols {
                self.out.column_mut(self.left_cols + c).push_n(&Value::Null, 1);
            }
            self.out.add_rows(1);
        }
        Ok(true)
    }
}

impl BatchStream for BatchNestedLoopJoin {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        loop {
            if self.out.num_rows() >= BATCH_SIZE || (self.done && !self.out.is_empty()) {
                return Ok(Some(self.out.take()));
            }
            if self.done {
                return Ok(None);
            }
            let (batch, mut row, mut block, mut matched) = match self.pending.take() {
                Some(p) => p,
                None => match self.probe.next_batch()? {
                    Some(b) => (b, 0, 0, false),
                    None => {
                        self.done = true;
                        continue;
                    }
                },
            };
            while row < batch.num_rows() && self.out.num_rows() < BATCH_SIZE {
                if self.join_row(&batch, row, &mut block, &mut matched)? {
                    row += 1;
                    block = 0;
                    matched = false;
                }
            }
            if row < batch.num_rows() {
                self.pending = Some((batch, row, block, matched));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Vectorized hash aggregate
// ---------------------------------------------------------------------------

/// In-memory aggregation table. `Fast` is the gate-application specialization
/// — single `INTEGER` group key, all aggregates `SUM` over `DOUBLE` lanes —
/// which keeps accumulators in flat `f64` arrays; anything else (or any batch
/// whose lanes don't qualify) lives in the generic [`Acc`] table.
pub(crate) enum AggTable {
    Fast {
        groups: IntGroupTable,
        /// `sums[agg][group]` running totals.
        sums: Vec<Vec<f64>>,
    },
    Generic(HashMap<Vec<GroupKey>, GroupState>),
}

/// The shareable (`Send + Sync`) description of one aggregation: group-by
/// keys, aggregate expressions, and the consume-phase update/flush machinery.
/// The sequential operator uses it directly; morsel workers run the same
/// methods against per-worker tables, writers, and reservations.
pub(crate) struct AggCore {
    group_by: Vec<BoundExpr>,
    aggs: Vec<AggExpr>,
    /// Static eligibility for the fast table (per-batch lanes still checked).
    fast_eligible: bool,
    /// Bytes one fast-table group charges (mirrors `entry_bytes` for a
    /// one-`INTEGER`-key entry with plain accumulators).
    fast_bytes: usize,
}

/// One worker's partial aggregation result: its in-memory table, any spill
/// partitions it wrote, the reservation charging its memory, and how many
/// input rows it saw (for the empty-input global-aggregate rule).
pub(crate) struct WorkerAgg {
    pub(crate) table: AggTable,
    pub(crate) writer: Option<SpillWriter>,
    pub(crate) reservation: Reservation,
    pub(crate) rows_seen: u64,
}

impl AggCore {
    pub(crate) fn new(group_by: Vec<BoundExpr>, aggs: Vec<AggExpr>) -> Self {
        let fast_eligible = group_by.len() == 1
            && !aggs.is_empty()
            && aggs
                .iter()
                .all(|a| a.func == AggFunc::Sum && !a.distinct && a.arg.is_some());
        let fast_bytes = entry_bytes(
            &[Value::Int(0)],
            &aggs.iter().map(Acc::new).collect::<Vec<_>>(),
        );
        AggCore { group_by, aggs, fast_eligible, fast_bytes }
    }

    pub(crate) fn new_table(&self) -> AggTable {
        if self.fast_eligible {
            AggTable::Fast {
                groups: IntGroupTable::default(),
                sums: vec![Vec::new(); self.aggs.len()],
            }
        } else {
            AggTable::Generic(HashMap::new())
        }
    }

    /// Demote the fast table into generic [`Acc`] form (a batch arrived whose
    /// lanes don't qualify — e.g. `HUGEINT` indices past 63 qubits) and hand
    /// out the generic map.
    fn demote(table: &mut AggTable) -> &mut HashMap<Vec<GroupKey>, GroupState> {
        if let AggTable::Fast { groups, sums } = table {
            let mut map: HashMap<Vec<GroupKey>, GroupState> = HashMap::new();
            for (g, &k) in groups.keys().iter().enumerate() {
                let accs: Vec<Acc> = sums
                    .iter()
                    .map(|per_agg| Acc::Sum(Some(Value::Float(per_agg[g]))))
                    .collect();
                map.insert(vec![GroupKey::Int(k)], (vec![Value::Int(k)], accs));
            }
            *table = AggTable::Generic(map);
        }
        let AggTable::Generic(map) = table else { unreachable!("just demoted") };
        map
    }

    /// Aggregate one input batch into `table`, charging `reservation` per new
    /// group. Returns `true` when the reservation could not cover every new
    /// group (the caller should flush).
    pub(crate) fn update_batch(
        &self,
        batch: &RowBatch,
        table: &mut AggTable,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let key_cols = self
            .group_by
            .iter()
            .map(|e| e.eval_batch(batch))
            .collect::<Result<Vec<_>>>()?;
        let arg_cols: Vec<Option<ColumnRef>> = self
            .aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| e.eval_batch(batch)).transpose())
            .collect::<Result<Vec<_>>>()?;

        let args = arg_cols.iter().map(|c| c.as_deref());
        if let Some(over) = self.update_fast(table, key_cols.first(), args, reservation) {
            return Ok(over);
        }
        self.update_generic(batch, &key_cols, &arg_cols, Self::demote(table), reservation)
    }

    /// The fast lane: when `table` is still `Fast`, the key an `INTEGER`
    /// lane and every argument a `DOUBLE` lane, fold them in column-wise and
    /// charge the new groups (`true`: the caller should flush); else `None`.
    fn update_fast<'a>(
        &self,
        table: &mut AggTable,
        key: Option<&'a ColumnRef>,
        args: impl Iterator<Item = Option<&'a Column>>,
        reservation: &mut Reservation,
    ) -> Option<bool> {
        let (AggTable::Fast { groups, sums }, Column::Int(keys)) = (table, &**key?) else {
            return None;
        };
        let lane = |c: Option<&'a Column>| match c {
            Some(Column::Float(v)) => Some(v.as_slice()),
            _ => None,
        };
        let lanes = args.map(lane).collect::<Option<Vec<_>>>()?;
        let new_groups = fold_fast(groups, sums, keys, &lanes);
        Some(self.charge_fast_groups(new_groups, reservation))
    }

    /// Merge one spilled record into `table` — consume, one level down. A
    /// block (what a fast table flushed) folds through the same lanes as an
    /// input batch, SUM of partial SUMs being SUM; a row record (a generic
    /// table's partial row) demotes the table, after which a block's rows
    /// are partial rows too. Returns `true` when the reservation could not
    /// cover every new group.
    fn merge_record(
        &self,
        record: SpillRecord,
        table: &mut AggTable,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let block = match record {
            SpillRecord::Row(row) => {
                return self.merge_partial(&row, Self::demote(table), reservation);
            }
            SpillRecord::Block(block) => block,
        };
        let cols = block.columns();
        if cols.len() != self.group_by.len() + self.aggs.len() {
            return Err(Error::Io("spilled block of the wrong width".into()));
        }
        let args = cols.iter().skip(1).map(|c| Some(&**c));
        if let Some(over) = self.update_fast(table, cols.first(), args, reservation) {
            return Ok(over);
        }
        let map = Self::demote(table);
        let mut over = false;
        for i in 0..block.num_rows() {
            over |= self.merge_partial(&block.row(i), map, reservation)?;
        }
        Ok(over)
    }

    /// Merge one partial row (group key values, then each accumulator's
    /// [`Acc::write_partial`] slice) into the generic table.
    fn merge_partial(
        &self,
        row: &[Value],
        map: &mut HashMap<Vec<GroupKey>, GroupState>,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let k = self.group_by.len();
        let reps = row.get(..k).ok_or_else(|| Error::Io("short partial row".into()))?;
        let consume = |accs: &mut [Acc]| {
            let mut pos = k;
            accs.iter_mut().try_for_each(|acc| acc.consume_partial(row, &mut pos))
        };
        match map.entry(reps.iter().map(Value::group_key).collect()) {
            Entry::Occupied(mut e) => consume(&mut e.get_mut().1).map(|()| false),
            Entry::Vacant(e) => {
                let mut accs: Vec<Acc> = self.aggs.iter().map(Acc::new).collect();
                consume(&mut accs)?;
                let fits = reservation.try_grow(entry_bytes(reps, &accs));
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
        batch: &RowBatch,
        key_cols: &[ColumnRef],
        arg_cols: &[Option<ColumnRef>],
        map: &mut HashMap<Vec<GroupKey>, GroupState>,
        reservation: &mut Reservation,
    ) -> Result<bool> {
        let mut over = false;
        for i in 0..batch.num_rows() {
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
                    let bytes = entry_bytes(&reps, &accs);
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
    /// generic table as partial rows (via [`Acc::write_partial`]).
    pub(crate) fn flush(
        &self,
        table: &mut AggTable,
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
            AggTable::Fast { groups, sums } => {
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
            AggTable::Generic(map) => {
                for (keys, (reps, accs)) in map.drain() {
                    let mut row = reps;
                    for a in &accs {
                        a.write_partial(&mut row)?;
                    }
                    w.write_row(partition_of(&keys, depth), &row)?;
                }
            }
        }
        reservation.free();
        Ok(())
    }

    /// Turn the writers of one level (the coordinator's and, under parallel
    /// consume, one per worker that spilled) into the runs to merge at
    /// `depth`: per partition index, the readers covering its key space.
    fn into_pending(
        writers: impl IntoIterator<Item = SpillWriter>,
        depth: u32,
    ) -> Result<Vec<(Vec<SpillReader>, u32)>> {
        let mut per_part: Vec<Vec<SpillReader>> = (0..PARTITIONS).map(|_| Vec::new()).collect();
        for w in writers {
            for (readers, reader) in per_part.iter_mut().zip(w.into_readers()?) {
                if !reader.is_empty() {
                    readers.push(reader);
                }
            }
        }
        Ok(per_part.into_iter().filter(|r| !r.is_empty()).map(|r| (r, depth)).collect())
    }

    fn table_into_groups(table: AggTable) -> Groups {
        match table {
            AggTable::Fast { groups, sums } => {
                Groups::Fast { keys: groups.into_keys(), sums, next: 0 }
            }
            AggTable::Generic(map) => Groups::Generic(map.into_values().collect()),
        }
    }

    /// Turn a table into a generic group map (for cross-worker merging).
    fn into_generic(mut table: AggTable) -> HashMap<Vec<GroupKey>, GroupState> {
        std::mem::take(Self::demote(&mut table))
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
///
/// With a `Segment` input the consume phase runs morsel-parallel: every
/// worker aggregates its morsels into a private table (spilling privately
/// under pressure), and the coordinator merges the partial tables — and any
/// per-worker spill partitions, matched up by partition index, which is
/// sound because `partition_of` is a deterministic salted hash — exactly
/// as if they were one run.
pub struct BatchHashAggregate {
    input: AggInput,
    core: Arc<AggCore>,
    ctx: ExecContext,
    reservation: Reservation,
    state: AggState,
    /// Spilled partitions still to merge: the readers covering one
    /// partition's key space (several under parallel consume — one per
    /// worker that spilled — plus the coordinator's), and the depth.
    pending: Vec<(Vec<SpillReader>, u32)>,
}

enum AggInput {
    /// Sequential: pull batches from an input stream.
    Stream(Box<dyn BatchStream>),
    /// Morsel-parallel: run the segment on a worker pool.
    Parallel(Segment),
    Consumed,
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
    /// Create the operator over a sequential input stream.
    pub fn new(
        input: Box<dyn BatchStream>,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        ctx: ExecContext,
    ) -> Self {
        Self::with_input(AggInput::Stream(input), group_by, aggs, ctx)
    }

    /// Create the operator over a morsel-parallel input segment.
    pub(crate) fn new_parallel(
        segment: Segment,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        ctx: ExecContext,
    ) -> Self {
        Self::with_input(AggInput::Parallel(segment), group_by, aggs, ctx)
    }

    fn with_input(
        input: AggInput,
        group_by: Vec<BoundExpr>,
        aggs: Vec<AggExpr>,
        ctx: ExecContext,
    ) -> Self {
        let reservation = Reservation::empty(&ctx.budget);
        BatchHashAggregate {
            input,
            core: Arc::new(AggCore::new(group_by, aggs)),
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
        match std::mem::replace(&mut self.input, AggInput::Consumed) {
            AggInput::Stream(input) => self.consume_stream(input),
            AggInput::Parallel(segment) => {
                let results = parallel::run_agg_workers(&self.core, segment, &self.ctx)?;
                self.merge_workers(results)
            }
            AggInput::Consumed => unreachable!("consume called twice"),
        }
    }

    fn consume_stream(&mut self, mut input: Box<dyn BatchStream>) -> Result<()> {
        let core = Arc::clone(&self.core);
        let mut table = core.new_table();
        let mut writer: Option<SpillWriter> = None;
        let mut saw_rows = false;

        while let Some(batch) = input.next_batch()? {
            if batch.is_empty() {
                continue;
            }
            saw_rows = true;
            let over_budget = core.update_batch(&batch, &mut table, &mut self.reservation)?;
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
        if !saw_rows && core.group_by.is_empty() {
            self.set_default_row();
            return Ok(());
        }

        self.finish_level(table, writer, Vec::new(), 0)
    }

    /// End one level (consume at depth 0, a partition merge below it). If
    /// anyone spilled, the residue goes through the partitions as well, so
    /// the next level sees every group exactly once per partition, and the
    /// writers become runs to merge one level down; what is left of `table`
    /// (all of it when nobody spilled) is what drains next.
    fn finish_level(
        &mut self,
        mut table: AggTable,
        mut writer: Option<SpillWriter>,
        mut spilled: Vec<SpillWriter>,
        depth: u32,
    ) -> Result<()> {
        if writer.is_some() || !spilled.is_empty() {
            self.flush(&mut table, &mut writer, depth)?;
            spilled.extend(writer);
        }
        self.pending.extend(AggCore::into_pending(spilled, depth + 1)?);
        self.state = AggState::Draining(AggCore::table_into_groups(table));
        Ok(())
    }

    /// [`AggCore::flush`] into the operator's own spill directory, releasing
    /// the operator's reservation.
    fn flush(
        &mut self,
        table: &mut AggTable,
        writer: &mut Option<SpillWriter>,
        depth: u32,
    ) -> Result<()> {
        self.core.flush(table, writer, depth, &self.ctx.spill, &mut self.reservation)
    }

    fn set_default_row(&mut self) {
        let accs: Vec<Acc> = self.core.aggs.iter().map(Acc::new).collect();
        self.state = AggState::Draining(Groups::Generic(vec![(Vec::new(), accs)]));
    }

    /// Merge per-worker partial aggregation results into the operator's
    /// final state. Worker tables merge in worker order into one table
    /// (flushing to partitions if the budget runs out mid-merge); per-worker
    /// spill partitions are matched up by partition index and merged
    /// together in phase 2, so every group still surfaces exactly once.
    fn merge_workers(&mut self, results: Vec<WorkerAgg>) -> Result<()> {
        let core = Arc::clone(&self.core);
        let mut total_rows = 0u64;
        let mut table = core.new_table();
        let mut writer: Option<SpillWriter> = None;
        let mut worker_writers: Vec<SpillWriter> = Vec::new();

        for (w, worker) in results.into_iter().enumerate() {
            // One check per worker merge: breaker merges are the only
            // aggregate phase not already covered by the per-batch guards.
            self.ctx.query.check()?;
            total_rows += worker.rows_seen;
            if w == 0 {
                // The first worker's table seeds the merge wholesale — its
                // groups keep their existing charge (adopted below) instead
                // of being re-inserted one by one.
                table = worker.table;
                self.reservation.adopt(worker.reservation);
            } else {
                let over = self.merge_table(&mut table, worker.table)?;
                // The worker's charge is released now that its entries
                // moved into the coordinator table (re-charged above).
                drop(worker.reservation);
                if over {
                    self.flush(&mut table, &mut writer, 0)?;
                }
            }
            worker_writers.extend(worker.writer);
        }

        if total_rows == 0 && core.group_by.is_empty() {
            self.set_default_row();
            return Ok(());
        }

        self.finish_level(table, writer, worker_writers, 0)
    }

    /// Merge one worker's table into the coordinator table, charging the
    /// operator reservation per new group. Returns `true` on budget
    /// exhaustion (caller flushes).
    fn merge_table(&mut self, dst: &mut AggTable, src: AggTable) -> Result<bool> {
        let mut over = false;
        match (&mut *dst, src) {
            (
                AggTable::Fast { groups, sums },
                AggTable::Fast { groups: src_groups, sums: src_sums },
            ) => {
                let lanes: Vec<&[f64]> = src_sums.iter().map(Vec::as_slice).collect();
                let new_groups = fold_fast(groups, sums, src_groups.keys(), &lanes);
                over = self.core.charge_fast_groups(new_groups, &mut self.reservation);
            }
            (_, src) => {
                // Mixed or generic: merge through the shared Acc machinery.
                let dst_map = AggCore::demote(dst);
                for (keys, (reps, accs)) in AggCore::into_generic(src) {
                    match dst_map.entry(keys) {
                        Entry::Occupied(mut e) => {
                            let (_, dst_accs) = e.get_mut();
                            for (d, s) in dst_accs.iter_mut().zip(&accs) {
                                d.merge_from(s)?;
                            }
                        }
                        Entry::Vacant(e) => {
                            let bytes = entry_bytes(&reps, &accs);
                            e.insert((reps, accs));
                            over |= !self.reservation.try_grow(bytes);
                        }
                    }
                }
            }
        }
        Ok(over)
    }

    /// Merge one spilled partition (possibly split over several readers
    /// under parallel consume): consume at `depth`, with spilled records for
    /// input. A partition that still exceeds the budget re-partitions one
    /// level deeper (depth-salted hash).
    fn merge_partition(&mut self, readers: Vec<SpillReader>, depth: u32) -> Result<()> {
        let core = Arc::clone(&self.core);
        let mut table = core.new_table();
        let mut writer: Option<SpillWriter> = None;

        for mut reader in readers {
            // One spilled run is one cancellation unit: check before each
            // reader, and count the drained run against the latency meter.
            self.ctx.query.check()?;
            while let Some(record) = reader.next_record()? {
                let over = core.merge_record(record, &mut table, &mut self.reservation)?;
                // A partition at maximum depth is 16^MAX_DEPTH-fold smaller
                // than the input; finish it with a bounded uncharged working
                // set rather than fail.
                if over && depth < MAX_DEPTH {
                    self.flush(&mut table, &mut writer, depth)?;
                }
            }
            self.ctx.query.note_unit();
        }
        self.finish_level(table, writer, Vec::new(), depth)
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
                    self.reservation.shrink(entry_bytes(&reps, &accs));
                    let mut row = reps;
                    row.reserve(accs.len());
                    for a in accs {
                        row.push(a.finalize()?);
                    }
                    rows.push(row);
                }
                Ok(Some(RowBatch::from_owned_rows(rows)))
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
                        Some((readers, depth)) => self.merge_partition(readers, depth)?,
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
    use super::super::test_util::{batches_of, ctx, ctx_with_budget, drain_batches, int_rows};
    use super::*;
    use crate::ast::BinaryOp;

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn bin(a: BoundExpr, op: BinaryOp, b: BoundExpr) -> BoundExpr {
        BoundExpr::Binary { left: Box::new(a), op, right: Box::new(b) }
    }

    fn hash_join(
        probe: Box<dyn BatchStream>,
        build: Box<dyn BatchStream>,
        lk: Vec<BoundExpr>,
        rk: Vec<BoundExpr>,
        ctx: &ExecContext,
    ) -> BatchHashJoin {
        let (table, reservation) =
            JoinTable::build_from_stream(build, lk, rk, None, 2, ctx).unwrap();
        BatchHashJoin::new(probe, Arc::new(table), vec![reservation], false)
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

    #[test]
    fn limit_spans_batches() {
        let rows = int_rows(&(0..3000).collect::<Vec<_>>());
        let l = BatchLimit { input: batches_of(rows), remaining: 1500, to_skip: 1000 };
        let out = drain_batches(Box::new(l));
        assert_eq!(out.len(), 1500);
        assert_eq!(out[0], vec![Value::Int(1000)]);
        assert_eq!(out[1499], vec![Value::Int(2499)]);
    }

    #[test]
    fn hash_join_skips_null_keys_and_keeps_build_order() {
        let left: Vec<Row> = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
            vec![Value::Null, Value::Int(30)],
        ];
        let right: Vec<Row> = vec![
            vec![Value::Int(2), Value::Int(200)],
            vec![Value::Int(2), Value::Int(201)],
            vec![Value::Null, Value::Int(202)],
        ];
        let j = hash_join(batches_of(left), batches_of(right), vec![col(0)], vec![col(0)], &ctx());
        let out = drain_batches(Box::new(j));
        assert_eq!(out.len(), 2, "NULL keys never match");
        assert_eq!(out[0][3], Value::Int(200));
        assert_eq!(out[1][3], Value::Int(201));
    }

    fn join_table(build: Vec<Row>) -> JoinTable {
        JoinTable::build_from_stream(batches_of(build), vec![col(0)], vec![col(0)], None, 2, &ctx())
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
            (keyed(&[Value::Null, Value::Int(2)]), true), // NULL keys are never inserted
            (keyed(&[Value::Float(2.0)]), true),          // groups with INTEGER 2
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
        let table = join_table((0..4).map(|k| vec![Value::Int(k), Value::Int(10 + k)]).collect());
        let probe = RowBatch::from_rows(
            &(0..100).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect::<Vec<_>>(),
        );
        let out = table.probe_batch(&probe, false).unwrap();
        assert_eq!(out.len(), 1);
        for c in 0..2 {
            assert!(Arc::ptr_eq(&out[0].columns()[c], &probe.columns()[c]), "column {c} copied");
        }
        assert_eq!(out[0].row(5), vec![Value::Int(1), Value::Int(5), Value::Int(1), Value::Int(11)]);

        // One row without a match: the survivors are gathered.
        let mut rows: Vec<Row> = (0..100).map(|i| vec![Value::Int(i % 4), Value::Int(i)]).collect();
        rows[50][0] = Value::Int(9);
        let probe = RowBatch::from_rows(&rows);
        let out = table.probe_batch(&probe, false).unwrap();
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
            vec![col(0)],
            vec![col(0)],
            &ctx_with_budget(128),
        );
        assert_eq!(drain_batches(Box::new(j)).len(), 1);
        // … and one past the floor is a typed error, not an unbounded overdraft.
        let big: Vec<Row> = (0..1000).map(|k| vec![Value::Int(k), Value::Int(k)]).collect();
        let built = JoinTable::build_from_stream(
            batches_of(big),
            vec![col(0)],
            vec![col(0)],
            None,
            2,
            &ctx_with_budget(128),
        );
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
            hash_join(batches_of(probe), batches_of(build), vec![col(0)], vec![col(0)], &ctx());
        let mut total = 0;
        while let Some(b) = j.next_batch().unwrap() {
            assert!(b.num_rows() <= BATCH_SIZE + 5, "oversized batch: {}", b.num_rows());
            total += b.num_rows();
        }
        assert_eq!(total, 10_000);
    }

    #[test]
    fn nested_loop_cross_join_emits_bounded_batches() {
        // A single probe row crossing a build side much larger than
        // BATCH_SIZE must still emit bounded batches: join_row resumes at
        // block granularity, so no batch exceeds BATCH_SIZE + one block.
        let probe: Vec<Row> = (0..3).map(|i| vec![Value::Int(i)]).collect();
        let build: Vec<Row> = (0..3000).map(|j| vec![Value::Int(j)]).collect();
        let mut j = BatchNestedLoopJoin::new(
            batches_of(probe),
            batches_of(build),
            1,
            1,
            None,
            false,
            &ctx(),
        )
        .unwrap();
        let mut total = 0;
        while let Some(b) = j.next_batch().unwrap() {
            assert!(
                b.num_rows() <= 2 * BATCH_SIZE,
                "oversized nested-loop batch: {}",
                b.num_rows()
            );
            total += b.num_rows();
        }
        assert_eq!(total, 9000);
    }

    #[test]
    fn nested_loop_left_outer_pads_across_resume() {
        // Outer pad decisions must survive block-granular resumption: the
        // matching probe row fans out over >BATCH_SIZE pairs (forcing
        // mid-row suspension), the other row matches nothing and pads.
        let probe: Vec<Row> = vec![vec![Value::Int(1)], vec![Value::Int(-1)]];
        let build: Vec<Row> = (0..2000).map(|j| vec![Value::Int(j)]).collect();
        let cond = bin(col(0), BinaryOp::Gt, BoundExpr::Literal(Value::Int(-1)));
        let j = BatchNestedLoopJoin::new(
            batches_of(probe),
            batches_of(build),
            1,
            1,
            Some(cond),
            true,
            &ctx(),
        )
        .unwrap();
        let out = drain_batches(Box::new(j));
        assert_eq!(out.len(), 2001, "2000 pairs for row 1, one pad for row -1");
        let pads: Vec<_> = out.iter().filter(|r| r[1].is_null()).collect();
        assert_eq!(pads.len(), 1);
        assert_eq!(pads[0][0], Value::Int(-1));
    }

    #[test]
    fn fast_aggregate_sums_per_group() {
        let rows: Vec<Row> =
            (0..4000).map(|i| vec![Value::Int(i % 7), Value::Float(0.5)]).collect();
        let agg = BatchHashAggregate::new(
            batches_of(rows),
            vec![col(0)],
            vec![AggExpr { func: AggFunc::Sum, arg: Some(col(1)), distinct: false }],
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
        AggExpr { func: AggFunc::Sum, arg: Some(col(c)), distinct: false }
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
            RowBatch::from_rows(
                &keys.map(|k| vec![Value::Int(k), Value::Float(1.0)]).collect::<Vec<_>>(),
            )
        };
        // Room for ten and a half groups.
        let budget = MemoryBudget::with_limit(10 * core.fast_bytes + core.fast_bytes / 2);
        let mut reservation = Reservation::empty(&budget);
        let mut table = core.new_table();
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
            vec![AggExpr { func: AggFunc::Sum, arg: Some(col(1)), distinct: false }],
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

    #[test]
    fn generic_aggregate_handles_count_min_max() {
        let rows: Vec<Row> = vec![
            vec![Value::Int(1), Value::Float(3.0)],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Float(-1.0)],
        ];
        let aggs = vec![
            AggExpr { func: AggFunc::CountStar, arg: None, distinct: false },
            AggExpr { func: AggFunc::Min, arg: Some(col(1)), distinct: false },
            AggExpr { func: AggFunc::Max, arg: Some(col(1)), distinct: false },
        ];
        let agg = BatchHashAggregate::new(batches_of(rows), vec![col(0)], aggs, ctx());
        let mut out = drain_batches(Box::new(agg));
        out.sort_by(|a, b| a[0].cmp_total(&b[0]));
        assert_eq!(
            out[0],
            vec![Value::Int(1), Value::Int(2), Value::Float(3.0), Value::Float(3.0)]
        );
        assert_eq!(
            out[1],
            vec![Value::Int(2), Value::Int(1), Value::Float(-1.0), Value::Float(-1.0)]
        );
    }

    #[test]
    fn global_aggregate_on_empty_input_emits_defaults() {
        let agg = BatchHashAggregate::new(
            batches_of(vec![]),
            vec![],
            vec![
                AggExpr { func: AggFunc::Sum, arg: Some(col(0)), distinct: false },
                AggExpr { func: AggFunc::CountStar, arg: None, distinct: false },
            ],
            ctx(),
        );
        let out = drain_batches(Box::new(agg));
        assert_eq!(out, vec![vec![Value::Null, Value::Int(0)]]);
    }
}
