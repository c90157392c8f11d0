//! Columnar row batches — the unit of data flow in the vectorized executor.
//!
//! A [`RowBatch`] holds up to ~[`BATCH_SIZE`] rows decomposed into columns.
//! A column is one typed array, and its lane is its type: [`Column::Int`]
//! for `INTEGER`, [`Column::Float`] for `DOUBLE`, [`Column::Big`] for
//! `HUGEINT` and [`Column::Text`] for `TEXT`. There is no NULL, so the
//! expression kernels in [`crate::vexpr`] run tight loops over primitive
//! slices. A column never changes lane: a value's type follows from its
//! operands' types, never from their values, so one expression's values
//! over a statement share one type.
//!
//! Ownership rules: a batch's columns are immutable, reference-counted
//! [`ColumnRef`]s. Scans hand out batches whose columns **are** the base
//! table's chunks (zero-copy; see [`crate::table`]), projections of bare
//! column references forward the same `Arc`s, and gathering (join probe,
//! filter selection) produces fresh columns, so nothing an operator does to
//! a batch can be observed through another reference — batches can always
//! be buffered, spilled, or reordered freely.

use std::sync::Arc;

use crate::ast::DataType;
use crate::bigbits::BigBits;
use crate::error::{Error, Result};
use crate::storage::spill::Row;
use crate::value::{big_bytes, str_bytes, GroupKey, Value};

/// A shared, immutable reference to a column. Cloning is one atomic
/// refcount bump; mutation goes through [`Arc::make_mut`] (copy-on-write).
pub type ColumnRef = Arc<Column>;

/// Target number of rows per batch. Chosen so a three-column state batch
/// (`s`, `r`, `i`) stays comfortably inside L2 while amortizing per-batch
/// dispatch overhead to noise.
pub const BATCH_SIZE: usize = 1024;

/// One column of a [`RowBatch`]: one typed array per SQL type.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// `INTEGER`.
    Int(Vec<i64>),
    /// `DOUBLE`.
    Float(Vec<f64>),
    /// `HUGEINT`.
    Big(Vec<BigBits>),
    /// `TEXT`.
    Text(Vec<String>),
}

/// `$body` over the lane vector `$v` of `$col`, rewrapped in the same lane.
macro_rules! each_lane {
    ($col:expr, $v:ident => $body:expr) => {
        match $col {
            Column::Int($v) => Column::Int($body),
            Column::Float($v) => Column::Float($body),
            Column::Big($v) => Column::Big($body),
            Column::Text($v) => Column::Text($body),
        }
    };
}

impl Column {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Big(v) => v.len(),
            Column::Text(v) => v.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The SQL type the lane holds.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Integer,
            Column::Float(_) => DataType::Double,
            Column::Big(_) => DataType::HugeInt,
            Column::Text(_) => DataType::Text,
        }
    }

    /// A column holding `n` copies of `v` (constant/literal splat).
    pub fn splat(v: &Value, n: usize) -> Column {
        match v {
            Value::Int(i) => Column::Int(vec![*i; n]),
            Value::Float(f) => Column::Float(vec![*f; n]),
            Value::Big(b) => Column::Big(vec![b.clone(); n]),
            Value::Str(s) => Column::Text(vec![s.clone(); n]),
        }
    }

    /// Owned [`Value`] at row `i`.
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Big(v) => Value::Big(v[i].clone()),
            Column::Text(v) => Value::Str(v[i].clone()),
        }
    }

    /// Canonical grouping/join key of row `i` (see [`Value::group_key`]).
    pub fn group_key_at(&self, i: usize) -> GroupKey {
        match self {
            Column::Int(v) => GroupKey::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]).group_key(),
            Column::Big(v) => v[i].to_i64().map_or_else(|| GroupKey::Big(v[i].clone()), GroupKey::Int),
            Column::Text(v) => GroupKey::Str(v[i].clone()),
        }
    }

    /// Append one value. An empty column takes the value's lane; a value
    /// of another type than the column's is a type error.
    pub fn push(&mut self, v: Value) -> Result<()> {
        if self.is_empty() {
            *self = Column::splat(&v, 0);
        }
        match (&mut *self, v) {
            (Column::Int(col), Value::Int(i)) => col.push(i),
            (Column::Float(col), Value::Float(f)) => col.push(f),
            (Column::Big(col), Value::Big(b)) => col.push(b),
            (Column::Text(col), Value::Str(s)) => col.push(s),
            (col, v) => {
                return Err(Error::Type(format!(
                    "a {} value in a {} column",
                    v.data_type(),
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Build from values, one [`Column::push`] each.
    pub fn from_values(values: impl IntoIterator<Item = Result<Value>>) -> Result<Column> {
        let mut col = Column::default();
        for v in values {
            col.push(v?)?;
        }
        Ok(col)
    }

    /// Approximate in-memory footprint of the column's row data in bytes:
    /// 8 bytes a row on the `INTEGER`/`DOUBLE` lanes, a value's
    /// [`Value::heap_bytes`] on the others. Base-table chunks charge this
    /// against the shared memory budget.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Int(v) => 8 * v.len(),
            Column::Float(v) => 8 * v.len(),
            Column::Big(v) => v.iter().map(big_bytes).sum(),
            Column::Text(v) => v.iter().map(str_bytes).sum(),
        }
    }

    /// Copy out a contiguous row range (lane preserved).
    pub fn slice(&self, range: std::ops::Range<usize>) -> Column {
        each_lane!(self, v => v[range].to_vec())
    }

    /// Copy out the rows at `indices` (lane preserved).
    pub fn gather(&self, indices: &[u32]) -> Column {
        each_lane!(self, v => indices.iter().map(|&i| &v[i as usize]).cloned().collect())
    }
}

impl Default for Column {
    /// An empty column; its first value picks the lane.
    fn default() -> Self {
        Column::Int(Vec::new())
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
    pub fn from_rows(rows: &[Row]) -> Result<RowBatch> {
        Self::from_owned_rows(rows.to_vec())
    }

    /// Transpose owned rows into a columnar batch, one [`Column::push`] a
    /// value: each column's lane is its values' type.
    pub fn from_owned_rows(rows: Vec<Row>) -> Result<RowBatch> {
        let nrows = rows.len();
        let mut columns = vec![Column::default(); rows.first().map_or(0, Row::len)];
        for row in rows {
            for (col, v) in columns.iter_mut().zip(row) {
                col.push(v)?;
            }
        }
        Ok(RowBatch { columns: columns.into_iter().map(Arc::new).collect(), rows: nrows })
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
            vec![Value::Int(2), Value::Float(1.5), Value::Str("b".into())],
        ]
    }

    #[test]
    fn a_columns_lane_is_its_type() {
        let b = RowBatch::from_rows(&mixed_rows()).unwrap();
        assert!(matches!(b.column(0), Column::Int(_)));
        assert!(matches!(b.column(1), Column::Float(_)));
        assert!(matches!(b.column(2), Column::Text(_)));
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.row(1), vec![Value::Int(2), Value::Float(1.5), Value::Str("b".into())]);
        let mixed = [vec![Value::Int(1)], vec![Value::Str("x".into())]];
        assert!(matches!(RowBatch::from_rows(&mixed), Err(Error::Type(_))));
    }

    #[test]
    fn round_trip_rows() {
        let rows = mixed_rows();
        assert_eq!(RowBatch::from_rows(&rows).unwrap().into_rows(), rows);
    }

    /// A column holds one type: `INTEGER` and `HUGEINT` do not mix either.
    #[test]
    fn a_value_of_another_type_is_refused() {
        let big = Value::Big(BigBits::ones(0, 70, 70));
        assert!(matches!(Column::Int(vec![1, 2]).push(big.clone()), Err(Error::Type(_))));
        assert!(Column::Big(Vec::new()).push(Value::Int(3)).is_ok());
        assert!(Column::Int(vec![1]).push(Value::Float(1.0)).is_err());
        let mut empty = Column::default();
        empty.push(Value::Float(0.5)).unwrap();
        assert_eq!(empty, Column::Float(vec![0.5]));
    }

    #[test]
    fn gather_preserves_types_and_order() {
        let b = RowBatch::from_rows(&mixed_rows()).unwrap();
        let g = b.gather(&[1, 0, 1]);
        assert_eq!(g.num_rows(), 3);
        assert!(matches!(g.column(0), Column::Int(_)));
        assert_eq!(g.row(0)[0], Value::Int(2));
        assert_eq!(g.row(1)[2], Value::Str("a".into()));
    }

    #[test]
    fn hstack_joins_columns() {
        let l = RowBatch::from_columns(vec![Column::Int(vec![1, 2])]);
        let r = RowBatch::from_columns(vec![Column::Float(vec![0.1, 0.2])]);
        let j = RowBatch::hstack(l, r);
        assert_eq!(j.num_columns(), 2);
        assert_eq!(j.row(1), vec![Value::Int(2), Value::Float(0.2)]);
    }

    #[test]
    fn group_keys_unify_int_integral_float_and_small_hugeint() {
        let int_col = Column::Int(vec![3]);
        let float_col = Column::Float(vec![3.0]);
        let big_col = Column::Big(vec![BigBits::from_u64(3, 100)]);
        assert_eq!(int_col.group_key_at(0), float_col.group_key_at(0));
        assert_eq!(int_col.group_key_at(0), big_col.group_key_at(0));
    }
}
