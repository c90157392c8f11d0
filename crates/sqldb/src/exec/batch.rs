//! Columnar row batches — the unit of data flow in the vectorized executor.
//!
//! A [`RowBatch`] holds up to ~[`BATCH_SIZE`] rows decomposed into columns.
//! Columns containing only non-null `INTEGER` or only non-null `DOUBLE`
//! values ride a null-free fast lane ([`Column::Int`] / [`Column::Float`])
//! so the expression kernels in [`crate::vexpr`] can run tight loops over
//! primitive slices; any mixed/null/text/`HUGEINT` column falls back to
//! [`Column::Generic`].
//!
//! Ownership rules: a batch's columns are immutable, reference-counted
//! [`ColumnRef`]s. Scans hand out batches whose columns **are** the base
//! table's chunks (zero-copy; see [`crate::table`]), projections of bare
//! column references forward the same `Arc`s, and gathering (join probe,
//! filter selection) produces fresh columns, so nothing an operator does to
//! a batch can be observed through another reference — batches can always
//! be buffered, spilled, or reordered freely.

use std::sync::Arc;

use crate::storage::spill::Row;
use crate::value::{GroupKey, Value};

/// A shared, immutable reference to a column. Cloning is one atomic
/// refcount bump; mutation goes through [`Arc::make_mut`] (copy-on-write).
pub type ColumnRef = Arc<Column>;

/// Target number of rows per batch. Chosen so a three-column state batch
/// (`s`, `r`, `i`) stays comfortably inside L2 while amortizing per-batch
/// dispatch overhead to noise.
pub const BATCH_SIZE: usize = 1024;

/// One column of a [`RowBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Null-free `INTEGER` fast lane.
    Int(Vec<i64>),
    /// Null-free `DOUBLE` fast lane.
    Float(Vec<f64>),
    /// Everything else: nulls, text, `HUGEINT`, or mixed types.
    Generic(Vec<Value>),
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Generic(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column ready to receive values of any type.
    pub fn new() -> Column {
        Column::Generic(Vec::new())
    }

    /// A column holding `n` copies of `v` (constant/literal splat).
    pub fn splat(v: &Value, n: usize) -> Column {
        match v {
            Value::Int(i) => Column::Int(vec![*i; n]),
            Value::Float(f) => Column::Float(vec![*f; n]),
            other => Column::Generic(vec![other.clone(); n]),
        }
    }

    /// Owned [`Value`] at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Generic(v) => v[i].clone(),
        }
    }

    /// Canonical grouping/join key of row `i` (see [`Value::group_key`]).
    pub fn group_key_at(&self, i: usize) -> GroupKey {
        match self {
            Column::Int(v) => GroupKey::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]).group_key(),
            Column::Generic(v) => v[i].group_key(),
        }
    }

    /// Demote a typed lane to [`Column::Generic`] in place.
    fn make_generic(&mut self) -> &mut Vec<Value> {
        match self {
            Column::Int(v) => {
                *self = Column::Generic(v.iter().map(|&i| Value::Int(i)).collect());
            }
            Column::Float(v) => {
                *self = Column::Generic(v.iter().map(|&f| Value::Float(f)).collect());
            }
            Column::Generic(_) => {}
        }
        match self {
            Column::Generic(v) => v,
            _ => unreachable!("just demoted"),
        }
    }

    /// Append one value, demoting the lane if the type no longer fits.
    pub fn push(&mut self, v: Value) {
        match (&mut *self, v) {
            (Column::Int(col), Value::Int(i)) => col.push(i),
            (Column::Float(col), Value::Float(f)) => col.push(f),
            (Column::Generic(col), v) => col.push(v),
            (col @ Column::Int(_), v) | (col @ Column::Float(_), v) => {
                col.make_generic().push(v)
            }
        }
    }

    /// Build from owned values, detecting a uniform fast lane.
    pub fn from_values(values: Vec<Value>) -> Column {
        if !values.is_empty() && values.iter().all(|v| matches!(v, Value::Int(_))) {
            return Column::Int(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Int(i) => i,
                        _ => unreachable!("checked above"),
                    })
                    .collect(),
            );
        }
        if !values.is_empty() && values.iter().all(|v| matches!(v, Value::Float(_))) {
            return Column::Float(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Float(f) => f,
                        _ => unreachable!("checked above"),
                    })
                    .collect(),
            );
        }
        Column::Generic(values)
    }

    /// Approximate in-memory footprint of the column's row data in bytes
    /// (fast lanes are 8 bytes/row; generic lanes charge per [`Value`]).
    /// Base-table chunks charge this against the shared memory budget.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int(v) => 8 * v.len(),
            Column::Float(v) => 8 * v.len(),
            Column::Generic(v) => v.iter().map(Value::heap_bytes).sum(),
        }
    }

    /// Copy out a contiguous row range (types preserved).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Column {
        match self {
            Column::Int(v) => Column::Int(v[range].to_vec()),
            Column::Float(v) => Column::Float(v[range].to_vec()),
            Column::Generic(v) => Column::Generic(v[range].to_vec()),
        }
    }

    /// Copy out the rows at `indices` (types preserved).
    pub fn gather(&self, indices: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i as usize]).collect()),
            Column::Float(v) => {
                Column::Float(indices.iter().map(|&i| v[i as usize]).collect())
            }
            Column::Generic(v) => {
                Column::Generic(indices.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

/// A batch of rows in columnar layout. All columns have equal length and are
/// shared [`ColumnRef`]s — cloning a batch never copies row data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBatch {
    columns: Vec<ColumnRef>,
    rows: usize,
}

impl RowBatch {
    /// Assemble from freshly built owned columns (must share a length).
    pub fn from_columns(columns: Vec<Column>) -> RowBatch {
        Self::from_shared(columns.into_iter().map(Arc::new).collect())
    }

    /// Assemble from already-shared columns (must share a length). This is
    /// the zero-copy path: scans pass base-table chunk columns through
    /// unchanged, and projections forward the `Arc`s of bare column
    /// references.
    pub fn from_shared(columns: Vec<ColumnRef>) -> RowBatch {
        let rows = columns.first().map_or(0, |c| c.len());
        debug_assert!(columns.iter().all(|c| c.len() == rows), "ragged batch");
        RowBatch { columns, rows }
    }

    /// Transpose a row slice into a columnar batch.
    pub fn from_rows(rows: &[Row]) -> RowBatch {
        let ncols = rows.first().map_or(0, Row::len);
        let mut columns: Vec<ColumnRef> = Vec::with_capacity(ncols);
        for c in 0..ncols {
            columns.push(Arc::new(Column::from_values(
                rows.iter().map(|r| r[c].clone()).collect(),
            )));
        }
        RowBatch { columns, rows: rows.len() }
    }

    /// Transpose owned rows into a columnar batch without cloning values
    /// (lanes still detected, one [`Column::push`] per value).
    pub fn from_owned_rows(rows: Vec<Row>) -> RowBatch {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Row::len);
        let mut columns: Vec<ColumnRef> = Vec::with_capacity(ncols);
        let mut rows = rows;
        for c in 0..ncols {
            let mut col = match rows.first() {
                Some(r) => match &r[c] {
                    Value::Int(_) => Column::Int(Vec::with_capacity(nrows)),
                    Value::Float(_) => Column::Float(Vec::with_capacity(nrows)),
                    _ => Column::Generic(Vec::with_capacity(nrows)),
                },
                None => Column::new(),
            };
            for r in &mut rows {
                col.push(std::mem::replace(&mut r[c], Value::Null));
            }
            columns.push(Arc::new(col));
        }
        RowBatch { columns, rows: nrows }
    }

    /// A batch of `n` zero-column rows (a spilled block of no columns).
    pub fn zero_columns(n: usize) -> RowBatch {
        RowBatch { columns: Vec::new(), rows: n }
    }

    /// Number of rows in the batch.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the batch.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[ColumnRef] {
        &self.columns
    }

    /// Column `i` of the batch.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Shared handle to column `i` (refcount bump, no copy). This is how
    /// [`crate::vexpr`] resolves bare column references without cloning the
    /// underlying data.
    pub fn column_shared(&self, i: usize) -> ColumnRef {
        Arc::clone(&self.columns[i])
    }

    /// Materialize row `i` as an owned [`Row`].
    pub fn row(&self, i: usize) -> Row {
        self.columns.iter().map(|c| c.value_at(i)).collect()
    }

    /// Materialize every row (the batch → row compatibility shim).
    pub fn into_rows(self) -> Vec<Row> {
        (0..self.rows).map(|i| self.row(i)).collect()
    }

    /// Copy out the rows at `indices` (join/filter selection).
    pub fn gather(&self, indices: &[u32]) -> RowBatch {
        RowBatch {
            columns: self.columns.iter().map(|c| Arc::new(c.gather(indices))).collect(),
            rows: indices.len(),
        }
    }

    /// Glue two batches side by side (join output: left ++ right columns).
    pub fn hstack(left: RowBatch, right: RowBatch) -> RowBatch {
        debug_assert_eq!(left.rows, right.rows, "hstack row mismatch");
        let rows = left.rows;
        let mut columns = left.columns;
        columns.extend(right.columns);
        RowBatch { columns, rows }
    }
}

/// What an operator hands its parent: a batch, or a hash join's output
/// before it is gathered — the selection vectors of a vectorized engine.
/// Row `k` of [`Rows::Pairs`] is probe row `probe_sel[k]` next to build row
/// `build_sel[k]`; the compiled gate kernels (`exec/kernel.rs`) read the
/// inputs through those indices, and everything else calls
/// [`Rows::into_batch`], which gathers as the join used to.
#[derive(Debug)]
pub enum Rows {
    /// Materialized columns.
    Batch(RowBatch),
    /// A join's index pairs over its unchanged inputs.
    Pairs(JoinPairs),
}

/// Index pairs over a probe batch and a join's build rows (see [`Rows`]).
#[derive(Debug)]
pub struct JoinPairs {
    pub(crate) probe: RowBatch,
    /// `None`: every probe row once, in order (diagonal and permutation
    /// gates), so probe columns pass through untouched.
    pub(crate) probe_sel: Option<Vec<u32>>,
    pub(crate) build: RowBatch,
    pub(crate) build_sel: Vec<u32>,
}

impl Rows {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        match self {
            Rows::Batch(b) => b.num_rows(),
            Rows::Pairs(p) => p.build_sel.len(),
        }
    }

    /// Column `c` of the (joined) schema and the indices it is read
    /// through, `None` meaning row `k` is row `k`.
    pub(crate) fn lane(&self, c: usize) -> (&ColumnRef, Option<&[u32]>) {
        match self {
            Rows::Batch(b) => (&b.columns[c], None),
            Rows::Pairs(p) => match c.checked_sub(p.probe.num_columns()) {
                None => (&p.probe.columns[c], p.probe_sel.as_deref()),
                Some(b) => (&p.build.columns[b], Some(&p.build_sel)),
            },
        }
    }

    /// The rows as a batch: probe columns gathered (or passed through),
    /// then build columns gathered.
    pub fn to_batch(&self) -> RowBatch {
        match self {
            Rows::Batch(b) => b.clone(),
            Rows::Pairs(p) => {
                let probe = match &p.probe_sel {
                    None => p.probe.clone(),
                    Some(sel) => p.probe.gather(sel),
                };
                RowBatch::hstack(probe, p.build.gather(&p.build_sel))
            }
        }
    }

    /// [`Rows::to_batch`], by value.
    pub fn into_batch(self) -> RowBatch {
        match self {
            Rows::Batch(b) => b,
            pairs => pairs.to_batch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::Float(0.5), Value::Str("a".into())],
            vec![Value::Int(2), Value::Float(1.5), Value::Null],
        ]
    }

    #[test]
    fn from_rows_detects_fast_lanes() {
        let b = RowBatch::from_rows(&mixed_rows());
        assert!(matches!(b.column(0), Column::Int(_)));
        assert!(matches!(b.column(1), Column::Float(_)));
        assert!(matches!(b.column(2), Column::Generic(_)));
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(1), vec![Value::Int(2), Value::Float(1.5), Value::Null]);
    }

    #[test]
    fn round_trip_rows() {
        let rows = mixed_rows();
        assert_eq!(RowBatch::from_rows(&rows).into_rows(), rows);
    }

    #[test]
    fn push_demotes_lane_on_type_change() {
        let mut c = Column::Int(vec![1, 2]);
        c.push(Value::Null);
        assert!(matches!(c, Column::Generic(_)));
        assert_eq!(c.value_at(0), Value::Int(1));
        assert!(c.value_at(2).is_null());
    }

    #[test]
    fn gather_preserves_types_and_order() {
        let b = RowBatch::from_rows(&mixed_rows());
        let g = b.gather(&[1, 0, 1]);
        assert_eq!(g.num_rows(), 3);
        assert!(matches!(g.column(0), Column::Int(_)));
        assert_eq!(g.row(0)[0], Value::Int(2));
        assert_eq!(g.row(1)[0], Value::Int(1));
    }

    #[test]
    fn hstack_joins_columns() {
        let l = RowBatch::from_rows(&[vec![Value::Int(1)], vec![Value::Int(2)]]);
        let r = RowBatch::from_rows(&[vec![Value::Float(0.1)], vec![Value::Float(0.2)]]);
        let j = RowBatch::hstack(l, r);
        assert_eq!(j.num_columns(), 2);
        assert_eq!(j.row(1), vec![Value::Int(2), Value::Float(0.2)]);
    }

    #[test]
    fn group_keys_unify_int_and_integral_float() {
        let int_col = Column::Int(vec![3]);
        let float_col = Column::Float(vec![3.0]);
        assert_eq!(int_col.group_key_at(0), float_col.group_key_at(0));
    }
}
