//! Physical execution: the vectorized batch executor over the bound
//! [`Plan`]. It is the engine's only executor, and a statement runs on one
//! thread: the caller's, or the big-stack thread of a deep plan.
//!
//! [`vector`] holds the pipeline builder and the scan, filter, project,
//! hash join and aggregate operators over the columnar [`batch`]
//! chunks; `kernel` the compiled gate kernels that project and aggregate
//! run over a join's index pairs; [`vsort`] the sort;
//! [`aggregate`] the accumulators and partition constants the aggregate
//! spills with; [`govern`] cancellation and deadlines.
//! This module keeps what every operator shares: the [`ExecContext`] and
//! the `EXPLAIN ANALYZE` slot protocol. The test oracle the executor is
//! compared against is not here: see [`crate::reference`].

pub mod aggregate;
pub mod batch;
pub mod govern;
pub(crate) mod kernel;
pub mod vector;
pub mod vsort;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use crate::plan::logical::Plan;
use crate::storage::budget::MemoryBudget;
use crate::storage::spill::SpillDir;

/// Per-operator metrics collected under `EXPLAIN ANALYZE`.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Operator label as rendered in the plan tree.
    pub label: String,
    /// Nesting depth in the plan tree (for indentation).
    pub depth: usize,
    /// Total rows this operator emitted.
    pub rows_out: u64,
    /// Batches this operator emitted.
    pub batches_out: u64,
    /// Inclusive wall time spent constructing this operator and inside its
    /// `next_batch` calls (children included both times: they are built
    /// inside their parent, and execution is pull-based).
    pub nanos: u128,
}

impl NodeStats {
    /// Exclusive time of every node of a pre-order `nodes` list: its
    /// inclusive [`nanos`](NodeStats::nanos) minus those of its direct
    /// children (the nodes one level deeper that follow it before the next
    /// node at its own depth or above). The values sum to the root's
    /// inclusive time.
    pub fn self_nanos(nodes: &[NodeStats]) -> Vec<u128> {
        let mut own: Vec<u128> = nodes.iter().map(|n| n.nanos).collect();
        // The ancestors of the node at hand, root first.
        let mut path: Vec<usize> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            while path.last().is_some_and(|&p| nodes[p].depth >= node.depth) {
                path.pop();
            }
            if let Some(&parent) = path.last() {
                own[parent] = own[parent].saturating_sub(node.nanos);
            }
            path.push(i);
        }
        own
    }
}

/// Shared execution environment.
#[derive(Clone)]
pub struct ExecContext {
    /// The memory ledger every operator and base table charges.
    pub budget: MemoryBudget,
    /// Directory receiving the spill files of out-of-core operators.
    pub spill: Arc<SpillDir>,
    /// When set, every operator is wrapped with row/time instrumentation.
    pub instrument: Option<Rc<RefCell<Vec<NodeStats>>>>,
    /// Governance token for the statement this context executes: cancel
    /// flag, deadline, and memory grant. Operators call
    /// [`govern::QueryContext::check`] at every batch/spill-run
    /// boundary (the builders wrap each node with a cancel guard, so plain
    /// streaming operators need no explicit checks).
    pub query: govern::QueryContext,
}

fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::Scan { table, .. } => format!("Scan {table}"),
        Plan::Filter { .. } => "Filter".into(),
        Plan::Project { exprs, .. } => format!("Project [{}]", exprs.len()),
        Plan::Join { .. } => "HashJoin Inner".into(),
        Plan::Aggregate { group_by, aggs, .. } => {
            format!("HashAggregate [{} keys, {} aggs]", group_by.len(), aggs.len())
        }
        Plan::Sort { .. } => "BatchSort [1 keys]".into(),
        Plan::Alias { .. } => "Alias".into(),
    }
}

/// Replace an operator's `EXPLAIN ANALYZE` label with what its physical
/// operator chose (`BatchSort [1 keys, radix]` when the radix path sorted),
/// so plans show exactly which vectorized path ran.
pub(crate) fn set_node_label(ctx: &ExecContext, slot: Option<usize>, label: String) {
    if let (Some(id), Some(stats)) = (slot, &ctx.instrument) {
        stats.borrow_mut()[id].label = label;
    }
}

/// Reserve a `NodeStats` slot for `plan` when instrumentation is on.
pub(crate) fn instrument_slot(ctx: &ExecContext, plan: &Plan, depth: usize) -> Option<usize> {
    ctx.instrument.as_ref().map(|stats| {
        let mut v = stats.borrow_mut();
        v.push(NodeStats {
            label: node_label(plan),
            depth,
            rows_out: 0,
            batches_out: 0,
            nanos: 0,
        });
        v.len() - 1
    })
}

/// Counts the time from [`BuildTimer::start`] until it is dropped toward a
/// node's inclusive time. Every site that reserves a slot holds one while it
/// constructs the node's operator: a hash join drains its whole build side
/// there, and children are constructed inside their parent, so each node's
/// time covers its children's and [`NodeStats::self_nanos`] never has to
/// clip.
pub(crate) struct BuildTimer<'a>(Option<(&'a RefCell<Vec<NodeStats>>, usize, Instant)>);

impl<'a> BuildTimer<'a> {
    pub(crate) fn start(ctx: &'a ExecContext, slot: Option<usize>) -> Self {
        BuildTimer(ctx.instrument.as_deref().zip(slot).map(|(s, id)| (s, id, Instant::now())))
    }
}

impl Drop for BuildTimer<'_> {
    fn drop(&mut self) {
        if let Some((stats, id, start)) = self.0 {
            stats.borrow_mut()[id].nanos += start.elapsed().as_nanos();
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::batch::{RowBatch, BATCH_SIZE};
    use super::vector::BatchStream;
    use super::*;
    use crate::error::Result;
    use crate::storage::spill::Row;
    use crate::value::Value;

    pub fn ctx() -> ExecContext {
        ctx_on(MemoryBudget::unlimited())
    }

    pub fn ctx_with_budget(bytes: usize) -> ExecContext {
        ctx_on(MemoryBudget::with_limit(bytes))
    }

    fn ctx_on(budget: MemoryBudget) -> ExecContext {
        ExecContext {
            budget,
            spill: SpillDir::new(),
            instrument: None,
            query: govern::QueryContext::unbounded(),
        }
    }

    pub fn int_rows(vals: &[i64]) -> Vec<Row> {
        vals.iter().map(|&v| vec![Value::Int(v)]).collect()
    }

    struct Batches(std::vec::IntoIter<RowBatch>);

    impl BatchStream for Batches {
        fn next_batch(&mut self) -> Result<Option<RowBatch>> {
            Ok(self.0.next())
        }
    }

    /// `batches` as the input of an operator under test, as they are.
    pub fn stream_of(batches: Vec<RowBatch>) -> Box<dyn BatchStream> {
        Box::new(Batches(batches.into_iter()))
    }

    /// Literal rows as the input of an operator under test: batches of
    /// `BATCH_SIZE` rows with the typed lanes a scan would produce.
    pub fn batches_of(rows: Vec<Row>) -> Box<dyn BatchStream> {
        stream_of(rows.chunks(BATCH_SIZE).map(|c| RowBatch::from_rows(c).unwrap()).collect())
    }

    pub fn drain_batch_list(mut s: Box<dyn BatchStream>) -> Vec<RowBatch> {
        let mut out = Vec::new();
        while let Some(b) = s.next_batch().unwrap() {
            out.push(b);
        }
        out
    }

    pub fn drain_batches(s: Box<dyn BatchStream>) -> Vec<Row> {
        drain_batch_list(s).into_iter().flat_map(RowBatch::into_rows).collect()
    }
}
