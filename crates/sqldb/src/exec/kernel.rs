//! Compiled gate kernels: the expressions every gate query evaluates once
//! per state row, each run as one loop over typed lanes.
//!
//! A gate's `JOIN … GROUP BY` (§2, Fig. 2c) computes two things per joined
//! row. One is a bit-field key: the group key `(s & ~m) | (out_s << k)`, the
//! per-bit scatter `((out_s & 1) << a) | (((out_s >> 1) & 1) << b)` of a
//! fused block on non-adjacent qubits, or the probe key `(s >> k) & m`. The
//! other is the complex multiply `(r * gr) - (i * gi)`, `(r * gi) + (i * gr)`
//! of an amplitude by a gate entry. Through [`BoundExpr::eval_batch`] every
//! operator node of those is one kernel and one temporary column, over
//! columns the join gathered first.
//!
//! [`CompiledExpr`] and [`ComplexPair`] recognize the shapes when an
//! operator is built and run each as one loop that reads its inputs through
//! the join's index pairs ([`Rows::Pairs`]). Anything else — another shape,
//! a lane other than `Int` (the `HUGEINT` indices past 63 qubits), a `<<`
//! that overflows `i64` — takes `eval_batch` over the gathered rows, which
//! reports the overflow as an error. The kernels run only where no operator
//! fails, in the order `eval_batch` applies them, so they produce its
//! values bit for bit.

use crate::ast::BinaryOp;
use crate::error::Result;
use crate::expr::BoundExpr;
use crate::value::Value;

use super::batch::{Column, ColumnRef, RowBatch, Rows};

/// An expression with its compiled kernel, when it has one: the bitwise
/// OR of bit fields of `INTEGER` lanes.
#[derive(Debug, Clone)]
pub(crate) struct CompiledExpr {
    expr: BoundExpr,
    fields: Option<Vec<BitField>>,
}

/// `((col >> shr) & mask) << shl`, `>>` logical as the engine's is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BitField {
    col: usize,
    shr: u32,
    mask: i64,
    shl: u32,
}

/// Column `c` of the input and the indices it is read through.
type LaneOf<'a> = (&'a ColumnRef, Option<&'a [u32]>);

impl CompiledExpr {
    /// Compile `expr`; shapes without a kernel keep `eval_batch`.
    pub(crate) fn new(expr: BoundExpr) -> Self {
        let fields = bit_fields(&expr);
        CompiledExpr { expr, fields }
    }

    /// Evaluate over `rows`. `gathered` caches the batch the fallback
    /// gathers, so the expressions of one operator gather at most once.
    pub(crate) fn eval(&self, rows: &Rows, gathered: &mut Option<RowBatch>) -> Result<ColumnRef> {
        if let Some(col) = self.run(rows.num_rows(), |c| rows.lane(c)) {
            return Ok(col);
        }
        match rows {
            Rows::Batch(batch) => self.expr.eval_batch(batch),
            pairs => self.expr.eval_batch(gathered.get_or_insert_with(|| pairs.to_batch())),
        }
    }

    /// Evaluate over the rows of `batch`.
    pub(crate) fn eval_batch(&self, batch: &RowBatch) -> Result<ColumnRef> {
        match self.run(batch.num_rows(), |c| (&batch.columns()[c], None)) {
            Some(col) => Ok(col),
            None => self.expr.eval_batch(batch),
        }
    }

    /// The kernel's column of `n` rows whose lanes `lane` finds, or `None`
    /// when there is no kernel, a lane is not `INTEGER` or a `<<` overflows.
    fn run<'a>(&self, n: usize, lane: impl Fn(usize) -> LaneOf<'a>) -> Option<ColumnRef> {
        let fields = self.fields.as_ref()?;
        let mut out = vec![0i64; n];
        let mut fits = true;
        for f in fields {
            let (col, idx) = lane(f.col);
            let Column::Int(vals) = &**col else { return None };
            let mut or_field = |o: &mut i64, x: i64| {
                let v = ((x as u64) >> f.shr) as i64 & f.mask;
                let w = v << f.shl;
                fits &= w >> f.shl == v;
                *o |= w;
            };
            match idx {
                None => out.iter_mut().zip(vals).for_each(|(o, &x)| or_field(o, x)),
                Some(idx) => {
                    out.iter_mut().zip(idx).for_each(|(o, &j)| or_field(o, vals[j as usize]))
                }
            }
        }
        // `<<` past `i64` is an error: `eval_batch` reports it.
        fits.then(|| ColumnRef::new(Column::Int(out)))
    }
}

/// The fields of an OR of bit fields, or `None` for any other shape (a bare
/// column included: `eval_batch` forwards it).
fn bit_fields(expr: &BoundExpr) -> Option<Vec<BitField>> {
    match expr {
        BoundExpr::Binary { left, op: BinaryOp::BitOr, right } => {
            let mut fields = bit_fields(left).or_else(|| Some(vec![bit_field(left)?]))?;
            fields.extend(bit_fields(right).or_else(|| Some(vec![bit_field(right)?]))?);
            Some(fields)
        }
        BoundExpr::Column(_) => None,
        other => Some(vec![bit_field(other)?]),
    }
}

/// One field: `col`, `col >> a`, either `& m`, any of those `<< b`.
fn bit_field(expr: &BoundExpr) -> Option<BitField> {
    let (inner, shl) = match expr {
        BoundExpr::Binary { left, op: BinaryOp::Shl, right } => (&**left, shift(right)?),
        other => (other, 0),
    };
    let (inner, mask) = match inner {
        BoundExpr::Binary { left, op: BinaryOp::BitAnd, right } => match &**right {
            BoundExpr::Literal(Value::Int(m)) => (&**left, *m),
            _ => return None,
        },
        other => (other, -1),
    };
    let (col, shr) = match inner {
        BoundExpr::Column(c) => (*c, 0),
        BoundExpr::Binary { left, op: BinaryOp::Shr, right } => match &**left {
            BoundExpr::Column(c) => (*c, shift(right)?),
            _ => return None,
        },
        _ => return None,
    };
    Some(BitField { col, shr, mask, shl })
}

/// A literal shift amount the `INTEGER` lane takes: `0..64`.
fn shift(expr: &BoundExpr) -> Option<u32> {
    match expr {
        BoundExpr::Literal(Value::Int(k)) if (0..64).contains(k) => Some(*k as u32),
        _ => None,
    }
}

/// The complex multiply of an amplitude `(r, i)` by a gate entry
/// `(gr, gi)`: the pair `(r * gr) - (i * gi)`, `(r * gi) + (i * gr)` every
/// gate query computes, run as one loop that reads each of the four lanes
/// once per row.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ComplexPair {
    /// `r`, `gr`, `i`, `gi`.
    cols: [usize; 4],
}

impl ComplexPair {
    /// The pair `re`, `im`, when they are one.
    pub(crate) fn compile(re: &BoundExpr, im: &BoundExpr) -> Option<ComplexPair> {
        let ([r, gr, i, gi], BinaryOp::Sub) = products(re)? else { return None };
        let ([r2, gi2, i2, gr2], BinaryOp::Add) = products(im)? else { return None };
        ([r2, gi2, i2, gr2] == [r, gi, i, gr]).then_some(ComplexPair { cols: [r, gr, i, gi] })
    }

    /// The two columns over `rows`, or `None` when a lane is not `DOUBLE`
    /// or the amplitude lanes (the gate lanes) are not read through one
    /// index, as a join hands them out.
    pub(crate) fn columns(&self, rows: &Rows) -> Option<[ColumnRef; 2]> {
        let lane = |c: usize| {
            let (col, idx) = rows.lane(c);
            match &**col {
                Column::Float(vals) => Some((vals.as_slice(), idx)),
                _ => None,
            }
        };
        let [r, gr, i, gi] = self.cols.map(lane);
        let ((r, p), (i, p2), (gr, g), (gi, g2)) = (r?, i?, gr?, gi?);
        if !same_index(p, p2) || !same_index(g, g2) {
            return None;
        }
        let (n, amp, gate) = (rows.num_rows(), [r, i], [gr, gi]);
        let out = match (p, g) {
            (None, None) => complex_rows(n, (), (), amp, gate),
            (None, Some(g)) => complex_rows(n, (), g, amp, gate),
            (Some(p), None) => complex_rows(n, p, (), amp, gate),
            (Some(p), Some(g)) => complex_rows(n, p, g, amp, gate),
        };
        Some(out.map(|lane| ColumnRef::new(Column::Float(lane))))
    }
}

/// `(a * b) op (c * d)` over four columns, `op` being `+` or `-`.
fn products(expr: &BoundExpr) -> Option<([usize; 4], BinaryOp)> {
    let product = |e: &BoundExpr| match e {
        BoundExpr::Binary { left, op: BinaryOp::Mul, right } => match (&**left, &**right) {
            (BoundExpr::Column(a), BoundExpr::Column(b)) => Some((*a, *b)),
            _ => None,
        },
        _ => None,
    };
    match expr {
        BoundExpr::Binary { left, op: op @ (BinaryOp::Add | BinaryOp::Sub), right } => {
            let ((a, b), (c, d)) = (product(left)?, product(right)?);
            Some(([a, b, c, d], *op))
        }
        _ => None,
    }
}

/// The loop of [`ComplexPair::columns`], one copy per kind of index.
fn complex_rows(
    n: usize,
    p: impl At,
    g: impl At,
    [r, i]: [&[f64]; 2],
    [gr, gi]: [&[f64]; 2],
) -> [Vec<f64>; 2] {
    let (mut re, mut im) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for j in 0..n {
        let (pj, gj) = (p.at(j), g.at(j));
        let (x, u, y, v) = (r[pj], i[pj], gr[gj], gi[gj]);
        re.push((x * y) - (u * v));
        im.push((x * v) + (u * y));
    }
    [re, im]
}

/// Where row `j` of a lane is: row `j` itself (`()`), or `idx[j]`.
trait At: Copy {
    fn at(self, j: usize) -> usize;
}

impl At for () {
    #[inline(always)]
    fn at(self, j: usize) -> usize {
        j
    }
}

impl At for &[u32] {
    #[inline(always)]
    fn at(self, j: usize) -> usize {
        self[j] as usize
    }
}

fn same_index(a: Option<&[u32]>, b: Option<&[u32]>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => std::ptr::eq(a, b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigbits::BigBits;
    use crate::exec::batch::JoinPairs;
    use crate::parser::parse_expr;
    use crate::plan::optimizer::fold_expr;
    use crate::schema::{Field, RelSchema};
    use crate::storage::spill::Row;

    /// The joined schema of a gate query: state `(s, r, i)`, then the gate
    /// table `(in_s, out_s, gr, gi)`.
    fn schema() -> RelSchema {
        let names = [("t", "s"), ("t", "r"), ("t", "i")];
        let gate = [("g", "in_s"), ("g", "out_s"), ("g", "gr"), ("g", "gi")];
        RelSchema::new(names.iter().chain(&gate).map(|&(t, c)| Field::new(Some(t), c)).collect())
    }

    fn bound(sql: &str) -> BoundExpr {
        let mut e = crate::expr::bind(&parse_expr(sql).unwrap(), &schema()).unwrap();
        fold_expr(&mut e);
        e
    }

    /// 40 amplitudes, the first `-0.0 + 0.0i`: a kernel must keep the sign
    /// of every zero `eval_batch` keeps.
    fn state_rows(s: impl Fn(i64) -> Value) -> Vec<Row> {
        (0..40)
            .map(|k| {
                let (re, im) = match k {
                    0 => (-0.0, 0.0),
                    _ => (k as f64 / 7.0 - 2.0, 1.0 / (k as f64 + 0.5)),
                };
                vec![s(k * 37 % 64), Value::Float(re), Value::Float(im)]
            })
            .collect()
    }

    fn gate_rows() -> Vec<Row> {
        let f = Value::Float;
        let entry = |k: i64| [f(0.25 * k as f64 - 0.4), f(-0.3 / (k + 1) as f64)];
        (0..4).map(|k| [Value::Int(k), Value::Int(3 - k)].into_iter().chain(entry(k)).collect())
            .collect()
    }

    /// Pairs over `state` and the gate: each state row twice, or each once
    /// in order (`probe_sel: None`).
    fn pairs(state: &[Row], twice: bool) -> Rows {
        let n = state.len() as u32;
        let (probe_sel, build_sel): (Vec<u32>, Vec<u32>) = match twice {
            true => (0..n).flat_map(|p| [(p, p % 4), (p, (p + 1) % 4)]).unzip(),
            false => (0..n).map(|p| (p, 3 - p % 4)).unzip(),
        };
        Rows::Pairs(JoinPairs {
            probe: RowBatch::from_rows(state).unwrap(),
            probe_sel: twice.then_some(probe_sel),
            build: RowBatch::from_rows(&gate_rows()).unwrap(),
            build_sel,
        })
    }

    /// Column equality by bits: `-0.0` and `0.0` differ, `Int` is not `Float`.
    fn same(a: &Column, b: &Column) -> bool {
        a.len() == b.len()
            && (0..a.len()).all(|k| match (a.value_at(k), b.value_at(k)) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (x, y) => format!("{x:?}") == format!("{y:?}"),
            })
    }

    fn kernel_eval(e: &CompiledExpr, rows: &Rows) -> Option<ColumnRef> {
        e.run(rows.num_rows(), |c| rows.lane(c))
    }

    const KEY_SHAPES: [&str; 6] = [
        "(s & ~1) | out_s",
        "(s & ~48) | (out_s << 4)",
        "(s & ~40) | (((out_s & 1) << 3) | (((out_s >> 1) & 1) << 5))",
        "(s >> 4) & 3",
        "((s >> 3) & 1) | (((s >> 5) & 1) << 1)",
        "s & 63",
    ];

    const PAIR: (&str, &str) = ("(r * gr) - (i * gi)", "(r * gi) + (i * gr)");

    #[test]
    fn gate_shapes_compile_and_others_do_not() {
        for sql in KEY_SHAPES {
            assert!(CompiledExpr::new(bound(sql)).fields.is_some(), "{sql}");
        }
        for sql in ["s", "s + 1", "(s & ~1) | 1", "(s << 1) & 3", "s >> 64", "s & out_s"] {
            assert!(CompiledExpr::new(bound(sql)).fields.is_none(), "{sql}");
        }
        let (re, im) = PAIR;
        assert!(ComplexPair::compile(&bound(re), &bound(im)).is_some(), "{re}, {im}");
        for (re, im) in [
            ("(r * gr) - (i * gi)", "(r * gr) + (i * gi)"),
            ("(r * gr) + (i * gi)", "(r * gi) + (i * gr)"),
            ("0.0 + ((r * gr) - (i * gi))", "0.0 + ((r * gi) + (i * gr))"),
            ("(r * 2.0) - (i * gi)", "(r * gi) + (i * 2.0)"),
        ] {
            assert!(ComplexPair::compile(&bound(re), &bound(im)).is_none(), "{re}, {im}");
        }
    }

    /// The oracle: a kernel over index pairs gives the bits `eval_batch`
    /// gives over the gathered batch, with and without a probe index.
    #[test]
    fn kernels_match_eval_batch_over_the_gathered_rows() {
        for twice in [true, false] {
            let rows = pairs(&state_rows(Value::Int), twice);
            let gathered = rows.to_batch();
            for sql in KEY_SHAPES.iter().chain(&["out_s << 61", "s >> 63"]) {
                let e = CompiledExpr::new(bound(sql));
                let want = e.expr.eval_batch(&gathered).unwrap();
                let got = kernel_eval(&e, &rows).expect(sql);
                assert!(same(&got, &want), "{sql}: {got:?} vs {want:?}");
                assert!(same(&e.eval_batch(&gathered).unwrap(), &want), "{sql} over the batch");
            }
            let (re, im) = PAIR;
            let pair = ComplexPair::compile(&bound(re), &bound(im)).unwrap();
            let [got_re, got_im] = pair.columns(&rows).unwrap();
            assert!(same(&got_re, &bound(re).eval_batch(&gathered).unwrap()), "{re}");
            assert!(same(&got_im, &bound(im).eval_batch(&gathered).unwrap()), "{im}");
        }
    }

    #[test]
    fn untyped_lanes_and_overflowing_shifts_fall_back() {
        // `s` past 63 bits is the HUGEINT lane: no kernel runs, and `eval`
        // answers through the gathered batch.
        let big = |k: i64| Value::Big(BigBits::from_u64(k as u64 + 1, 64).shl(70));
        let rows = pairs(&state_rows(big), true);
        let e = CompiledExpr::new(bound("((s >> 3) & 7) | (out_s << 1)"));
        assert!(kernel_eval(&e, &rows).is_none());
        let mut gathered = None;
        let got = e.eval(&rows, &mut gathered).unwrap();
        assert!(same(&got, &e.expr.eval_batch(gathered.as_ref().unwrap()).unwrap()));
        // 3 << 62 leaves `i64`: no kernel column, and `eval` is the
        // overflow error `eval_batch` and the row path report.
        let rows = pairs(&state_rows(Value::Int), true);
        let e = CompiledExpr::new(bound("s << 62"));
        assert!(kernel_eval(&e, &rows).is_none());
        let overflow = crate::Error::Eval("integer overflow in <<".into());
        assert_eq!(e.eval(&rows, &mut None).unwrap_err(), overflow);
        assert_eq!(e.eval_batch(&rows.to_batch()).unwrap_err(), overflow);
        // An `INTEGER` amplitude lane is no pair for the `DOUBLE` loop.
        let (re, im) = PAIR;
        let pair = ComplexPair::compile(&bound(re), &bound(im)).unwrap();
        let ints: Vec<Row> = state_rows(Value::Int).into_iter().map(|mut r| {
            r[1] = Value::Int(1);
            r
        })
        .collect();
        assert!(pair.columns(&pairs(&ints, true)).is_none());
    }
}
