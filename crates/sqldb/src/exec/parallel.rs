//! Morsel-driven parallel execution over shared columnar chunks.
//!
//! The engine's base tables already store immutable, reference-counted
//! column chunks (`Arc<Column>`, see [`crate::table`]), so parallel scans
//! need **zero copying**: morsels are chunk indices (~
//! [`super::batch::BATCH_SIZE`] rows each), assigned by *static striding*
//! — worker `w` of `N` takes morsels `w, w+N, w+2N, …` — and each worker
//! runs the pipeline stages rooted at that scan — filter, project, and
//! inner equi-join probes against a shared read-only `JoinTable` —
//! entirely on its own thread. Static assignment (chunks are uniform, so
//! it balances fine) is what makes runs reproducible: which worker
//! accumulates which rows is a pure function of the worker count.
//!
//! Three consumers drive morsel workers:
//!
//! * **Pipelines** (`spawn_pipeline`): each worker sends its results over
//!   its own *bounded* channel and the consumer reads the owning worker's
//!   channel in morsel order, so downstream operators (limits, sorts, the
//!   result collector) observe exactly the batch sequence sequential
//!   execution produces, and workers can run ahead only by their channel
//!   capacity — in-flight pipeline output is bounded by
//!   `workers × (capacity + 1)` morsels.
//! * **Hash-join build** (`build_join_table`): workers evaluate the build
//!   side's key expressions per morsel; the coordinator inserts the results
//!   in morsel order, reproducing the sequential table (and match order)
//!   bit for bit.
//! * **Hash-aggregate consume** (`run_agg_workers`): each worker owns a
//!   private partial table, reservation, and — under memory pressure — its
//!   own spill partitions, merged by
//!   [`BatchHashAggregate`](super::vector::BatchHashAggregate) at finalize.
//!
//! Error discipline is deterministic: a failure at morsel `f` lowers a
//! shared high-water mark, and workers only skip morsels *beyond* it, so
//! every earlier morsel still runs — the error that surfaces is always the
//! one at the **lowest failing morsel**, exactly the failure sequential
//! execution hits first. Budget discipline: every worker charges the
//! shared [`MemoryBudget`](crate::storage::budget::MemoryBudget) through
//! its own RAII [`Reservation`], so the ledger (and spill decisions) see
//! the true total; transiently, merging per-worker state can double-charge
//! shared groups for at most one merge step before the donor reservation
//! frees.
//!
//! `parallelism = 1`, single-chunk tables, and non-segment plans never reach
//! this module — the sequential operators in [`super::vector`] run
//! unchanged, which is what makes the single-threaded configuration exactly
//! reproduce historical behavior.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

use crate::ast::JoinKind;
use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::logical::{Plan, SortKey};
use crate::plan::optimizer::extract_equi_keys;
use crate::storage::budget::Reservation;
use crate::table::TableSnapshot;

use super::batch::{ColumnRef, RowBatch};
use super::vector::{
    build_batch_stream_at, truthy_selection, AggCore, BatchStream, JoinTable,
    JoinTableBuilder, WorkerAgg,
};
use super::govern::QueryContext;
use super::vsort::{SortWorker, WorkerSort};
use super::{instrument_slot, BuildTimer, ExecContext};

// ---------------------------------------------------------------------------
// Segments: the parallelizable pipeline fragment
// ---------------------------------------------------------------------------

/// One stage of a morsel pipeline, applied to every batch a morsel yields.
enum MorselStage {
    /// Alias nodes: no-op (kept so instrumentation sees the plan shape).
    Pass,
    /// `WHERE` predicate → selection vector → gather.
    Filter(BoundExpr),
    /// Projection expressions → fresh (or forwarded) columns.
    Project(Vec<BoundExpr>),
    /// Equi-join probe against a shared, read-only build table. The flag
    /// marks LEFT OUTER probes: their null-pads are computed per probe
    /// batch (the match bitmap never crosses a morsel), which is what makes
    /// outer pipelines morsel-parallel without any cross-worker state.
    Probe(Arc<JoinTable>, bool),
}

/// The `Send + Sync` heart of a segment: the pinned snapshot whose chunks
/// are the morsels, the stage chain, and per-node row/batch counters.
pub(crate) struct SegmentCore {
    snapshot: TableSnapshot,
    stages: Vec<MorselStage>,
    /// `[rows, batches]` emitted per node, aligned `[scan, stage 0, ...]`.
    /// Workers bump these; the coordinator folds them into `EXPLAIN
    /// ANALYZE` slots when the segment completes.
    stats: Vec<[AtomicU64; 2]>,
}

impl SegmentCore {
    /// Run the whole stage chain over chunk `idx`, returning its output
    /// batches (empty batches are dropped, matching the stream operators).
    pub(crate) fn run_morsel(&self, idx: usize) -> Result<Vec<RowBatch>> {
        let chunk = &self.snapshot.chunks()[idx];
        let mut batches = vec![RowBatch::from_shared(chunk.columns().to_vec())];
        self.stats[0][0].fetch_add(chunk.rows() as u64, Ordering::Relaxed);
        self.stats[0][1].fetch_add(1, Ordering::Relaxed);
        for (si, stage) in self.stages.iter().enumerate() {
            let mut next = Vec::with_capacity(batches.len());
            for batch in batches {
                match stage {
                    MorselStage::Pass => next.push(batch),
                    MorselStage::Filter(pred) => {
                        let mask = pred.eval_batch(&batch)?;
                        let sel = truthy_selection(&mask)?;
                        if sel.is_empty() {
                            continue;
                        }
                        if sel.len() == batch.num_rows() {
                            next.push(batch);
                        } else {
                            next.push(batch.gather(&sel));
                        }
                    }
                    MorselStage::Project(exprs) => {
                        let cols = exprs
                            .iter()
                            .map(|e| e.eval_batch(&batch))
                            .collect::<Result<Vec<_>>>()?;
                        next.push(RowBatch::from_shared(cols));
                    }
                    MorselStage::Probe(table, outer) => {
                        next.extend(table.probe_batch(&batch, *outer)?)
                    }
                }
            }
            let rows: usize = next.iter().map(RowBatch::num_rows).sum();
            self.stats[si + 1][0].fetch_add(rows as u64, Ordering::Relaxed);
            self.stats[si + 1][1].fetch_add(next.len() as u64, Ordering::Relaxed);
            batches = next;
        }
        Ok(batches)
    }
}

/// A fully built, ready-to-run segment. Owns the coordinator-side pieces the
/// workers must not touch: instrumentation slot ids and the reservations
/// pinning any probe build tables.
pub(crate) struct Segment {
    pub(crate) core: Arc<SegmentCore>,
    /// Instrumentation slots aligned with `core.stats`; `None` entries are
    /// not reported (e.g. a pipeline root counted by its stream wrapper).
    slots: Vec<Option<usize>>,
    /// Budget charges for probe-stage build tables (freed on drop).
    reservations: Vec<Reservation>,
}

impl Segment {
    /// Number of morsels (scan chunks) the segment covers.
    pub(crate) fn num_morsels(&self) -> usize {
        self.core.snapshot.chunks().len()
    }

    /// Forget the root node's stats slot (used by pipelines, whose root
    /// counts flow through the stream instrumentation wrapper instead).
    fn clear_root_slot(&mut self) {
        if let Some(last) = self.slots.last_mut() {
            *last = None;
        }
    }

    /// Fold the workers' per-node counters into the `EXPLAIN ANALYZE` slots.
    /// Call after the workers are done; folding twice would double count.
    /// The counters report work the workers *performed*: when a consumer
    /// abandons the pipeline early (a satisfied `LIMIT`), run-ahead morsels
    /// are included even though nothing downstream consumed them — so
    /// interior-node `rows=` can legitimately exceed the sequential plan's.
    fn flush_stats(&self, ctx: &ExecContext) {
        if let Some(stats) = &ctx.instrument {
            let mut v = stats.borrow_mut();
            for (slot, stat) in self.slots.iter().zip(&self.core.stats) {
                if let Some(id) = slot {
                    v[*id].rows_out += stat[0].load(Ordering::Relaxed);
                    v[*id].batches_out += stat[1].load(Ordering::Relaxed);
                }
            }
        }
    }
}

/// Record worker/morsel counts on an operator's `EXPLAIN ANALYZE` slot.
pub(crate) fn note_parallel(
    ctx: &ExecContext,
    slot: Option<usize>,
    workers: usize,
    morsels: usize,
) {
    if let (Some(id), Some(stats)) = (slot, &ctx.instrument) {
        let mut v = stats.borrow_mut();
        v[id].workers = workers as u64;
        v[id].morsels = morsels as u64;
    }
}

// ---------------------------------------------------------------------------
// Plan-shape checks
// ---------------------------------------------------------------------------

/// Upper bound on a segment's *cumulative* join fan-out: the product of
/// every probe stage's build-side row count. A morsel worker materializes
/// its whole per-morsel output before handing it over, so the worst-case
/// blow-up must stay bounded: with the product ≤ this, one morsel yields
/// at most `BATCH_SIZE × MAX_PARALLEL_FANOUT` joined rows (~64 batches)
/// even under total key skew across chained joins. Gate tables (4–64 rows
/// for 1–3-qubit gates, fused included) are far below it; larger or
/// unbounded build sides keep the streaming sequential probe, which emits
/// one bounded batch at a time.
const MAX_PARALLEL_FANOUT: usize = 64;

/// Conservative upper bound on the rows `plan` can produce, when one can be
/// read straight off the catalog (scan-rooted chains and limits only).
fn plan_rows_bound(plan: &Plan, catalog: &Catalog) -> Option<usize> {
    match plan {
        Plan::Scan { table, .. } => catalog.get(table).ok().map(|t| t.row_count()),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, one_row_per_group: true, .. }
        | Plan::Alias { input, .. } => plan_rows_bound(input, catalog),
        Plan::Limit { input, limit, .. } => {
            let inner = plan_rows_bound(input, catalog);
            match (limit, inner) {
                (Some(l), Some(i)) => Some((*l as usize).min(i)),
                (Some(l), None) => Some(*l as usize),
                (None, i) => i,
            }
        }
        _ => None,
    }
}

/// Is `plan` a morsel-parallelizable segment: a chain of filter / project /
/// alias nodes (with inner equi-joins probing on the left) rooted in a
/// base-table scan, whose cumulative join fan-out is provably bounded? An
/// aggregate with one row per group is a projection here as everywhere in
/// the executor: it breaks no pipeline.
fn is_segment(plan: &Plan, catalog: &Catalog) -> bool {
    segment_fanout(plan, catalog).is_some()
}

/// Worst-case per-input-row fan-out multiplier of the segment (the product
/// of the probe stages' build-side row bounds — chained joins multiply), or
/// `None` when `plan` is not an admissible segment: wrong shape, an
/// unboundable build side, or a product beyond [`MAX_PARALLEL_FANOUT`].
fn segment_fanout(plan: &Plan, catalog: &Catalog) -> Option<usize> {
    match plan {
        Plan::Scan { .. } => Some(1),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, one_row_per_group: true, .. }
        | Plan::Alias { input, .. } => segment_fanout(input, catalog),
        // Inner and LEFT OUTER equi-probes both qualify: an outer probe's
        // null-pads are computed within each probe batch, so the stage stays
        // morsel-local (per-row output is bounded by max(build, 1) either
        // way — every probe row yields its matches or one pad).
        Plan::Join {
            left,
            right,
            kind: JoinKind::Inner | JoinKind::Left,
            on: Some(cond),
            ..
        } => {
            let left_cols = left.schema().len();
            let (lk, _, _) = extract_equi_keys(cond.clone(), left_cols);
            if lk.is_empty() {
                return None;
            }
            let inner = segment_fanout(left, catalog)?;
            let build = plan_rows_bound(right, catalog)?;
            let total = inner.saturating_mul(build.max(1));
            (total <= MAX_PARALLEL_FANOUT).then_some(total)
        }
        _ => None,
    }
}

/// Chunk count of the segment's base scan (0 when the shape doesn't match).
fn scan_chunks(plan: &Plan, catalog: &Catalog) -> usize {
    match plan {
        Plan::Scan { table, .. } => catalog
            .get(table)
            .map(|t| t.snapshot().chunks().len())
            .unwrap_or(0),
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Aggregate { input, one_row_per_group: true, .. }
        | Plan::Alias { input, .. } => scan_chunks(input, catalog),
        Plan::Join { left, .. } => scan_chunks(left, catalog),
        _ => 0,
    }
}

/// Should `plan` run as a parallel pipeline / aggregate input? Requires a
/// worker budget, a segment shape, and at least two chunks to share out.
pub(crate) fn parallel_eligible(plan: &Plan, catalog: &Catalog, ctx: &ExecContext) -> bool {
    ctx.parallelism > 1 && is_segment(plan, catalog) && scan_chunks(plan, catalog) >= 2
}

/// Aggregate-input variant of [`parallel_eligible`] (same rule; a bare scan
/// qualifies because the per-worker aggregation itself is the payoff).
pub(crate) fn agg_input_eligible(input: &Plan, catalog: &Catalog, ctx: &ExecContext) -> bool {
    parallel_eligible(input, catalog, ctx)
}

// ---------------------------------------------------------------------------
// Segment construction
// ---------------------------------------------------------------------------

/// Build the segment for `plan`, whose instrumentation slot (`slot`) the
/// caller already registered. Descendants register their slots here in the
/// same pre-order the sequential builder uses, so the `EXPLAIN ANALYZE`
/// tree keeps its shape; join build sides are built (and drained) eagerly
/// as ordinary batch streams.
pub(crate) fn build_segment(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &ExecContext,
    depth: usize,
    slot: Option<usize>,
) -> Result<Segment> {
    let descend = |input: &Plan| descend_segment(input, catalog, ctx, depth);
    Ok(match plan {
        Plan::Scan { table, .. } => {
            let snapshot = catalog.get(table)?.snapshot();
            Segment {
                core: Arc::new(SegmentCore {
                    snapshot,
                    stages: Vec::new(),
                    stats: vec![[AtomicU64::new(0), AtomicU64::new(0)]],
                }),
                slots: vec![slot],
                reservations: Vec::new(),
            }
        }
        Plan::Alias { input, .. } => {
            let seg = descend(input)?;
            push_stage(seg, MorselStage::Pass, slot)?
        }
        Plan::Filter { input, predicate } => {
            let seg = descend(input)?;
            push_stage(seg, MorselStage::Filter(predicate.clone()), slot)?
        }
        Plan::Project { .. } | Plan::Aggregate { one_row_per_group: true, .. } => {
            let (input, exprs) = plan.as_projection().expect("matched a projection");
            let seg = descend(input)?;
            push_stage(seg, MorselStage::Project(exprs.into_owned()), slot)?
        }
        Plan::Join {
            left,
            right,
            kind: kind @ (JoinKind::Inner | JoinKind::Left),
            on: Some(cond),
            ..
        } => {
            let left_cols = left.schema().len();
            let right_cols = right.schema().len();
            let (lk, rk, residual) = extract_equi_keys(cond.clone(), left_cols);
            debug_assert!(!lk.is_empty(), "caller checked is_segment");
            super::set_node_label(ctx, slot, format!("HashJoin {kind:?}"));
            let mut seg = descend(left)?;
            let (table, reservations) =
                build_join_table(right, catalog, ctx, depth + 1, lk, rk, residual, right_cols)?;
            seg.reservations.extend(reservations);
            push_stage(seg, MorselStage::Probe(table, *kind == JoinKind::Left), slot)?
        }
        other => {
            return Err(Error::Plan(format!(
                "internal: plan node {other:?} is not a parallel segment"
            )))
        }
    })
}

/// Append a stage (and its stats slot) to a segment under construction.
/// The core `Arc` is shared with worker threads only once execution
/// starts, so during build it is uniquely owned; a violation is an engine
/// bug surfaced as a typed error rather than a panic.
fn push_stage(mut seg: Segment, stage: MorselStage, slot: Option<usize>) -> Result<Segment> {
    let core = Arc::get_mut(&mut seg.core).ok_or_else(|| {
        Error::Internal("segment core aliased during plan build".into())
    })?;
    core.stages.push(stage);
    core.stats.push([AtomicU64::new(0), AtomicU64::new(0)]);
    seg.slots.push(slot);
    Ok(seg)
}

/// Build the segment for an aggregate's input plan, registering the input's
/// own instrumentation slot first (the aggregate node's slot is the
/// caller's).
pub(crate) fn descend_segment(
    input: &Plan,
    catalog: &Catalog,
    ctx: &ExecContext,
    depth: usize,
) -> Result<Segment> {
    let slot = instrument_slot(ctx, input, depth + 1);
    let _timer = BuildTimer::start(ctx, slot);
    build_segment(input, catalog, ctx, depth + 1, slot)
}

// ---------------------------------------------------------------------------
// The worker pool: statically strided morsels with ordered collection
// ---------------------------------------------------------------------------

type Job<T> = Arc<dyn Fn(usize) -> Result<T> + Send + Sync>;

/// Per-worker channel capacity: how many finished morsels a worker may
/// queue before it blocks (backpressure). Total in-flight results are
/// bounded by `workers × (QUEUE_DEPTH + 1)` morsels.
const QUEUE_DEPTH: usize = 2;

/// Results of a morsel fan-out, yielded strictly in morsel order no matter
/// which worker finished first. Worker `w` owns morsels `w, w+N, …` and
/// sends each result over its own bounded channel; the consumer reads the
/// owning worker's channel at each position, so no reorder buffering is
/// needed and run-ahead is capped by the channel depth. Early drop (e.g. a
/// satisfied `LIMIT`) disconnects the channels, which stops the workers
/// after their in-flight morsel.
struct OrderedResults<T> {
    rxs: Vec<mpsc::Receiver<(usize, Result<T>)>>,
    handles: Vec<thread::JoinHandle<()>>,
    next: usize,
    total: usize,
}

/// Fan `total` morsels over `workers` threads running `job` with static
/// striding. On failure at morsel `f`, workers only skip morsels *beyond*
/// `f` (shared high-water mark), so the lowest failing morsel always
/// computes and its error is the one the consumer surfaces —
/// deterministically, and identical to sequential execution's first error.
/// Every worker polls `query` before each morsel, so a cancel/timeout rides
/// the same high-water-mark abort protocol as any other morsel error and
/// surfaces as the typed governance error at the lowest affected morsel.
fn run_ordered<T: Send + 'static>(
    total: usize,
    workers: usize,
    query: &QueryContext,
    job: Job<T>,
) -> OrderedResults<T> {
    let abort_at = Arc::new(AtomicUsize::new(usize::MAX));
    let mut rxs = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    for w in 0..workers {
        let job = Arc::clone(&job);
        let abort_at = Arc::clone(&abort_at);
        let query = query.clone();
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        handles.push(thread::spawn(move || {
            let mut i = w;
            while i < total && i <= abort_at.load(Ordering::Relaxed) {
                let result = query.check().and_then(|()| job(i));
                let failed = result.is_err();
                if failed {
                    abort_at.fetch_min(i, Ordering::Relaxed);
                } else {
                    // Morsel finished: feed the cancellation-latency meter.
                    query.note_unit();
                }
                if tx.send((i, result)).is_err() || failed {
                    break;
                }
                i += workers;
            }
        }));
        rxs.push(rx);
    }
    OrderedResults { rxs, handles, next: 0, total }
}

impl<T> OrderedResults<T> {
    /// The next morsel's result in order, `None` when all are delivered.
    fn next(&mut self) -> Result<Option<T>> {
        if self.next >= self.total {
            self.finish();
            return Ok(None);
        }
        match self.rxs[self.next % self.rxs.len()].recv() {
            Ok((i, Ok(v))) => {
                debug_assert_eq!(i, self.next, "worker delivered out of order");
                self.next += 1;
                Ok(Some(v))
            }
            Ok((_, Err(e))) => {
                // First error in morsel order (everything before it was
                // consumed successfully above).
                self.next = self.total;
                self.finish();
                Err(e)
            }
            Err(_) => {
                // This worker's channel closed before delivering the morsel
                // the consumer needs. Workers only stop early past a failed
                // morsel — which the consumer would have reached first — so
                // this means the worker panicked; joining resurfaces it.
                self.next = self.total;
                self.finish();
                Err(Error::Eval("parallel worker terminated unexpectedly".into()))
            }
        }
    }

    /// Disconnect the channels and join the workers (propagating panics).
    fn finish(&mut self) {
        self.rxs.clear();
        for h in self.handles.drain(..) {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl<T> Drop for OrderedResults<T> {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// Consumer 1: order-preserving parallel pipelines
// ---------------------------------------------------------------------------

/// A [`BatchStream`] over a morsel-parallel segment. Emits exactly the batch
/// sequence the sequential operators would, because morsel results are
/// released in morsel order.
struct ParallelPipelineStream {
    ordered: OrderedResults<(Vec<RowBatch>, Reservation)>,
    current: VecDeque<RowBatch>,
    /// Ledger charge for the morsel currently draining through `current`
    /// (queued morsels carry their own inside the channel messages); freed
    /// when the next morsel replaces it or the stream drops.
    current_charge: Option<Reservation>,
    segment: Segment,
    ctx: ExecContext,
    stats_flushed: bool,
    done: bool,
}

impl ParallelPipelineStream {
    fn flush_stats_once(&mut self) {
        if !self.stats_flushed {
            self.stats_flushed = true;
            self.segment.flush_stats(&self.ctx);
        }
    }
}

impl BatchStream for ParallelPipelineStream {
    fn next_batch(&mut self) -> Result<Option<RowBatch>> {
        loop {
            if let Some(batch) = self.current.pop_front() {
                return Ok(Some(batch));
            }
            if self.done {
                return Ok(None);
            }
            match self.ordered.next() {
                Ok(Some((batches, charge))) => {
                    self.current.extend(batches);
                    self.current_charge = Some(charge);
                }
                Ok(None) => {
                    self.done = true;
                    self.current_charge = None;
                    self.flush_stats_once();
                    return Ok(None);
                }
                Err(e) => {
                    self.done = true;
                    self.current_charge = None;
                    self.flush_stats_once();
                    return Err(e);
                }
            }
        }
    }
}

impl Drop for ParallelPipelineStream {
    fn drop(&mut self) {
        // Stop and join the workers *before* folding their counters, so an
        // abandoned stream (satisfied LIMIT) still reports consistent stats.
        self.ordered.finish();
        self.flush_stats_once();
    }
}

/// Launch `segment` as an order-preserving parallel pipeline. `slot` is the
/// root node's instrumentation slot (its row counts come from the stream
/// wrapper; here it only receives the `workers=`/`morsels=` annotation).
pub(crate) fn spawn_pipeline(
    mut segment: Segment,
    ctx: &ExecContext,
    slot: Option<usize>,
) -> Result<Box<dyn BatchStream>> {
    segment.clear_root_slot();
    let total = segment.num_morsels();
    let workers = ctx.parallelism.min(total);
    note_parallel(ctx, slot, workers, total);
    let core = Arc::clone(&segment.core);
    let budget = ctx.budget.clone();
    // Each morsel's output is charged to the ledger (as a bounded
    // overdraft — the memory already exists) while it sits in flight, so
    // run-ahead is visible to budget/spill decisions instead of being
    // unaccounted; the charge travels with the message and frees as the
    // consumer finishes the morsel.
    let job: Job<(Vec<RowBatch>, Reservation)> = Arc::new(move |i| {
        let batches = core.run_morsel(i)?;
        let bytes: usize = batches
            .iter()
            .flat_map(|b| b.columns().iter())
            .map(|c| c.heap_bytes())
            .sum();
        Ok((batches, Reservation::overdraft(&budget, bytes)))
    });
    let ordered = run_ordered(total, workers, &ctx.query, job);
    Ok(Box::new(ParallelPipelineStream {
        ordered,
        current: VecDeque::new(),
        current_charge: None,
        segment,
        ctx: ctx.clone(),
        stats_flushed: false,
        done: false,
    }))
}

// ---------------------------------------------------------------------------
// Consumer 2: parallel hash-join build
// ---------------------------------------------------------------------------

/// Build the hash table for an inner equi-join's build side. When the build
/// plan is a multi-chunk segment and workers are available, key expressions
/// evaluate morsel-parallel and the coordinator inserts the results in
/// morsel order (identical table and match order to the sequential build);
/// otherwise the plan runs as an ordinary batch stream.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_join_table(
    plan: &Plan,
    catalog: &Catalog,
    ctx: &ExecContext,
    depth: usize,
    left_keys: Vec<BoundExpr>,
    right_keys: Vec<BoundExpr>,
    residual: Option<BoundExpr>,
    build_cols: usize,
) -> Result<(Arc<JoinTable>, Vec<Reservation>)> {
    if !parallel_eligible(plan, catalog, ctx) {
        let stream = build_batch_stream_at(plan, catalog, ctx, depth)?;
        let (table, reservation) = JoinTable::build_from_stream(
            stream, left_keys, right_keys, residual, build_cols, ctx,
        )?;
        return Ok((Arc::new(table), vec![reservation]));
    }

    let slot = instrument_slot(ctx, plan, depth);
    // The build below runs the segment to its end: all of it is this node's.
    let _timer = BuildTimer::start(ctx, slot);
    let segment = build_segment(plan, catalog, ctx, depth, slot)?;
    let total = segment.num_morsels();
    let workers = ctx.parallelism.min(total);
    note_parallel(ctx, slot, workers, total);

    let core = Arc::clone(&segment.core);
    let keys = Arc::new(right_keys);
    let job_keys = Arc::clone(&keys);
    let job: Job<Vec<(RowBatch, Vec<ColumnRef>)>> = Arc::new(move |i| {
        core.run_morsel(i)?
            .into_iter()
            .map(|batch| {
                let key_cols = job_keys
                    .iter()
                    .map(|e| e.eval_batch(&batch))
                    .collect::<Result<Vec<_>>>()?;
                Ok((batch, key_cols))
            })
            .collect()
    });
    let mut ordered = run_ordered(total, workers, &ctx.query, job);

    let mut builder = JoinTableBuilder::new(keys.len());
    let mut reservation = Reservation::empty(&ctx.budget);
    while let Some(items) = ordered.next()? {
        for (batch, key_cols) in items {
            builder.insert_batch(&batch, &key_cols, &mut reservation, &ctx.budget)?;
        }
    }
    segment.flush_stats(ctx);
    let mut reservations = segment.reservations;
    reservations.push(reservation);
    Ok((Arc::new(builder.finish(left_keys, residual, build_cols)), reservations))
}

// ---------------------------------------------------------------------------
// Consumers 3 & 4: fold-style breakers (aggregate consume, sort consume)
// ---------------------------------------------------------------------------

/// Fan a segment's morsels over statically strided workers that *fold*
/// per-worker state (unlike [`run_ordered`], which streams every morsel's
/// result back over a channel). Worker `w` consumes morsels `w, w+N, …`
/// into a private state built by `init`; the sealed states are returned in
/// worker order. The shared protocol of both fold-style breakers:
///
/// * **Static striding** — which worker sees which rows (and therefore any
///   floating-point accumulation order) is a pure function of the worker
///   count, so repeated runs at a fixed count are bit-for-bit reproducible
///   (chunks are uniform, so striding balances fine).
/// * **Deterministic errors** — a failure at morsel `f` lowers a shared
///   high-water mark and workers only skip morsels *beyond* it, so the
///   lowest failing morsel always computes and its error is the one
///   surfaced: exactly the failure sequential execution hits first.
/// * **Panic propagation** — a panicking worker resurfaces on the caller.
///
/// NOTE: [`run_ordered`] implements the same striding / high-water-mark /
/// panic-join protocol around its streaming channels — change the two
/// together.
fn run_fold_workers<S: Send, T: Send>(
    segment: &Segment,
    ctx: &ExecContext,
    init: impl Fn() -> S + Sync,
    consume: impl Fn(&mut S, usize) -> Result<()> + Sync,
    finish: impl Fn(S) -> T + Sync,
) -> Result<Vec<T>> {
    let total = segment.num_morsels();
    let workers = ctx.parallelism.min(total).max(1);
    let abort_at = AtomicUsize::new(usize::MAX);
    // Shared governance token (the full context is not `Sync`): polled
    // before every morsel, exactly like `run_ordered`'s workers.
    let query = ctx.query.clone();
    let results: Vec<(usize, Result<T>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (abort_at, init, consume, finish) = (&abort_at, &init, &consume, &finish);
                let query = &query;
                scope.spawn(move || -> (usize, Result<T>) {
                    let mut state = init();
                    let mut i = w;
                    while i < total {
                        if i > abort_at.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Err(e) = query.check().and_then(|()| consume(&mut state, i)) {
                            abort_at.fetch_min(i, Ordering::Relaxed);
                            return (i, Err(e));
                        }
                        query.note_unit();
                        i += workers;
                    }
                    (usize::MAX, Ok(finish(state)))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    segment.flush_stats(ctx);
    // Deterministic error discipline: report the failure at the lowest
    // morsel index, regardless of which worker hit it first.
    let mut out = Vec::with_capacity(results.len());
    let mut first_err: Option<(usize, Error)> = None;
    for (i, r) in results {
        match r {
            Ok(t) => out.push(t),
            Err(e) if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) => {
                first_err = Some((i, e));
            }
            Err(_) => {}
        }
    }
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(out),
    }
}

/// Run the aggregate consume phase morsel-parallel: each worker aggregates
/// its morsels into a private table under its own reservation, spilling
/// into its own partition files when the shared budget runs dry; the
/// partial tables merge at finalize in
/// [`BatchHashAggregate`](super::vector::BatchHashAggregate). Striding,
/// error, and reproducibility semantics per [`run_fold_workers`].
pub(crate) fn run_agg_workers(
    core: &Arc<AggCore>,
    segment: Segment,
    ctx: &ExecContext,
) -> Result<Vec<WorkerAgg>> {
    let budget = ctx.budget.clone();
    let spill = Arc::clone(&ctx.spill);
    let query = ctx.query.clone();
    run_fold_workers(
        &segment,
        ctx,
        || WorkerAgg {
            table: core.new_table(),
            writer: None,
            reservation: Reservation::empty(&budget),
            rows_seen: 0,
        },
        |worker, i| {
            for batch in segment.core.run_morsel(i)? {
                worker.rows_seen += batch.num_rows() as u64;
                let over =
                    core.update_batch(&batch, &mut worker.table, &mut worker.reservation)?;
                if over {
                    // Observe cancel before paying for a doomed spill run.
                    query.check()?;
                    core.flush(
                        &mut worker.table,
                        &mut worker.writer,
                        0,
                        &spill,
                        &mut worker.reservation,
                    )?;
                }
            }
            Ok(())
        },
        |worker| worker,
    )
}

/// Run a sort's consume phase morsel-parallel: each worker evaluates sort
/// keys over its strided morsels and accumulates a private buffer —
/// spilling sorted runs under budget pressure, or keeping a bounded top-k
/// heap — via [`SortWorker`]. The per-worker results merge at the breaker
/// in [`super::vsort::BatchSort`]; because every row carries a global
/// ordinal, the merged output is byte-identical to the sequential sort at
/// every worker count. Striding, error, and reproducibility semantics per
/// [`run_fold_workers`].
pub(crate) fn run_sort_workers(
    segment: Segment,
    keys: &[SortKey],
    desc: &Arc<Vec<bool>>,
    topk: Option<usize>,
    ctx: &ExecContext,
) -> Result<Vec<WorkerSort>> {
    let budget = ctx.budget.clone();
    let spill = Arc::clone(&ctx.spill);
    let query = ctx.query.clone();
    run_fold_workers(
        &segment,
        ctx,
        || SortWorker::new(keys, desc, topk, &budget, &spill, &query),
        |worker, i| {
            worker.begin_morsel(i);
            for batch in segment.core.run_morsel(i)? {
                worker.consume_batch(&batch)?;
            }
            Ok(())
        },
        SortWorker::finish,
    )
}
