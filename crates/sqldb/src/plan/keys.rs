//! What the optimizer knows about a gate.
//!
//! A gate query is `GROUP BY` over a join of the state `T(s, r, i)` with a
//! gate table `G(in_s, out_s, r, i)` (Fig. 2c). For every gate that sends
//! a basis state to exactly one output — X, Z, T, RZ, CX, CZ, CP, SWAP, CCX,
//! fused blocks of them — no two joined rows share a group key, so the
//! aggregate has nothing to add up. This module proves that from the plan
//! and marks the node ([`Plan::Aggregate`]'s `one_row_per_group`); the
//! translator and its SQL text know nothing of it.
//!
//! Three pieces:
//!
//! * **Column facts** ([`ColFact`]: every value a non-NULL `INTEGER`, which
//!   bits can be set, whether the column is a key) start at the scans, which
//!   take them from their tables ([`crate::table::Table::column_facts`]),
//!   and are derived upwards by `annotate`: filters, sorts, limits and
//!   aliases pass them through, a join keeps the bits and forgets the keys,
//!   a projection or group key made of mask arithmetic gets the bits the
//!   analysis below finds, and the single group-by column of an aggregate
//!   is a key.
//! * **Bit provenance** (`bits_of`): over `&`, `|`, `<<`, `>>`, `INTEGER`
//!   columns with facts and folded constants, each of the 64 bits of an
//!   expression is 0, 1, or a copy of one bit of one column. Anything else
//!   — another operator, two column bits meeting in one position, a `<<`
//!   that could widen into `HUGEINT` — has no answer.
//! * **The proof** (`key_is_injective`) for `Aggregate(Join(T, G))`.

use std::sync::Arc;

use crate::ast::{BinaryOp, DataType, JoinKind};
use crate::expr::BoundExpr;
use crate::plan::logical::{AggExpr, AggFunc, Plan};
use crate::plan::optimizer::conjuncts;
use crate::schema::{ColFact, Facts, RelSchema};
use crate::value::Value;

/// Bits `mask` of an expression's value are copies of the bits of input
/// column `col` that sit `shift` positions lower (higher when negative).
#[derive(Debug, Clone, Copy)]
struct Run {
    col: usize,
    shift: i32,
    mask: u64,
}

/// Where the 64 bits of an integer expression come from: the bits in `ones`
/// are 1, those under a run are copies of column bits, the rest are 0. No
/// two of these overlap.
#[derive(Debug, Clone)]
struct Bits {
    ones: u64,
    runs: Vec<Run>,
}

impl Bits {
    /// The positions that hold a copy of a column bit.
    fn copies(&self) -> u64 {
        self.runs.iter().fold(0, |m, r| m | r.mask)
    }

    /// The bits of column `col` that this value holds a copy of.
    fn copied(&self, col: usize) -> u64 {
        let source = |r: &Run| if r.shift >= 0 { r.mask >> r.shift } else { r.mask << -r.shift };
        self.runs.iter().filter(|r| r.col == col).fold(0, |m, r| m | source(r))
    }

    /// What this says of the expression's values; whether they are a key
    /// is not for the bits to say.
    fn fact(&self) -> ColFact {
        ColFact { ones: self.ones | self.copies(), unique: false }
    }

    /// This value with `ones` for its constant bits and every run put
    /// through `change`; runs left without a bit are dropped.
    fn with(mut self, ones: u64, change: impl Fn(&mut Run)) -> Bits {
        self.runs.iter_mut().for_each(change);
        self.runs.retain(|r| r.mask != 0);
        Bits { ones, runs: self.runs }
    }
}

/// Bit provenance of `expr` over input columns with `facts`, or `None` when
/// the expression is not mask arithmetic the analysis follows. `Some` also
/// says that every value is a non-NULL `INTEGER`: the leaves are, `&`, `|`
/// and `>>` keep them so, and a `<<` is only followed where no set bit can
/// reach the sign (the engine would widen into `HUGEINT` there).
fn bits_of(expr: &BoundExpr, facts: &[Option<ColFact>]) -> Option<Bits> {
    use BinaryOp::{BitAnd, BitOr, Shl, Shr};
    match expr {
        BoundExpr::Literal(Value::Int(v)) => Some(Bits { ones: *v as u64, runs: Vec::new() }),
        BoundExpr::Column(col) => {
            let mask = facts.get(*col)?.as_ref()?.ones;
            Some(Bits { ones: 0, runs: vec![Run { col: *col, shift: 0, mask }] })
        }
        BoundExpr::Binary { left, op: op @ (BitAnd | BitOr), right } => {
            let (l, r) = (bits_of(left, facts)?, bits_of(right, facts)?);
            // Two column bits in one position.
            if l.copies() & r.copies() != 0 {
                return None;
            }
            // Beside a copy the other side is constant: `&` keeps the copy
            // under a 1, `|` under a 0.
            let (ones, keep_l, keep_r) = match op {
                BitAnd => (l.ones & r.ones, r.ones, l.ones),
                _ => (l.ones | r.ones, !r.ones, !l.ones),
            };
            let mut out = l.with(ones, |run| run.mask &= keep_l);
            out.runs.extend(r.with(0, |run| run.mask &= keep_r).runs);
            Some(out)
        }
        BoundExpr::Binary { left, op: op @ (Shl | Shr), right } => {
            let BoundExpr::Literal(Value::Int(k)) = **right else { return None };
            let k = u32::try_from(k).ok().filter(|&k| k < 64)?;
            let l = bits_of(left, facts)?;
            let ones = l.ones;
            if *op == Shr {
                // Logical on `INTEGER`: zeros come in from the top.
                return Some(l.with(ones >> k, |run| {
                    run.shift -= k as i32;
                    run.mask >>= k;
                }));
            }
            if k > 0 && (ones | l.copies()) >> (63 - k) != 0 {
                return None;
            }
            Some(l.with(ones << k, |run| {
                run.shift += k as i32;
                run.mask <<= k;
            }))
        }
        _ => None,
    }
}

/// The fact of a projected expression: a bare column keeps its own, key
/// included; mask arithmetic gets what [`bits_of`] finds.
fn expr_fact(expr: &BoundExpr, facts: &[Option<ColFact>]) -> Option<ColFact> {
    match expr {
        BoundExpr::Column(c) => facts[*c],
        _ => bits_of(expr, facts).map(|bits| bits.fact()),
    }
}

/// Do no two rows of an inner join `ON on` share the value of `key`?
///
/// `facts` are the joined columns' (left side, then right, keys forgotten),
/// `side_key[c]` says whether column `c` is a key *of its own side*. The
/// rule looks for a state column `s` that is a key of one side, a column
/// `out_s` that is a key of the other, and a conjunct `in_s = f` of the join
/// condition, such that
///
/// * every bit `out_s` can have set is copied into `key`, and
/// * every bit `s` can have set is copied into `key` or into `f`.
///
/// Then two joined rows with equal keys have equal `out_s`, so they hold the
/// same row of that side, so the same `in_s`, so equal `f`; with the bits of
/// `s` in `f` and in `key` equal, `s` is equal and they hold the same row of
/// the other side too: they are one row. `in_s` itself need not be a key.
/// Both Fig. 2c forms fit — `(T.s & ~M) | (G.out_s << k)` on
/// `G.in_s = (T.s >> k) & m`, and the per-bit form non-adjacent qubits get —
/// and these do not: `out_s` not a key (H), an `out_s` bit that meets a kept
/// bit of `s` (a value outside the field: `bits_of` has no answer), a `key`
/// that clears bits of `s` the join does not read, `s` not a key.
fn key_is_injective(
    key: &Bits,
    on: &BoundExpr,
    facts: &[Option<ColFact>],
    side_key: &[bool],
    left_cols: usize,
) -> bool {
    let ones = |c: usize| facts[c].map_or(u64::MAX, |f| f.ones);
    let keys_of_side =
        |left: bool| (0..facts.len()).filter(move |&c| side_key[c] && (c < left_cols) == left);
    let mut eqs = Vec::new();
    conjuncts(on, &mut eqs);
    for eq in eqs {
        let BoundExpr::Binary { left, op: BinaryOp::Eq, right } = eq else { continue };
        for (in_s, f) in [(left, right), (right, left)] {
            let BoundExpr::Column(in_s) = &**in_s else { continue };
            let Some(f) = bits_of(f, facts) else { continue };
            let gate_is_left = *in_s < left_cols;
            let routed =
                keys_of_side(gate_is_left).any(|out_s| ones(out_s) & !key.copied(out_s) == 0);
            let covered = keys_of_side(!gate_is_left)
                .any(|s| ones(s) & !(key.copied(s) | f.copied(s)) == 0);
            if routed && covered {
                return true;
            }
        }
    }
    false
}

/// Is every value of `expr` a `DOUBLE` or NULL (where it evaluates at all)?
/// Arithmetic with one such operand is: the engine promotes the other.
fn is_double(expr: &BoundExpr, schema: &RelSchema) -> bool {
    use BinaryOp::{Add, Div, Mod, Mul, Sub};
    match expr {
        BoundExpr::Literal(Value::Float(_)) => true,
        BoundExpr::Column(c) => schema.fields[*c].ty == Some(DataType::Double),
        BoundExpr::Binary { left, op: Add | Sub | Mul | Div | Mod, right } => {
            is_double(left, schema) || is_double(right, schema)
        }
        _ => false,
    }
}

/// Every aggregate is a `SUM` whose single term per group the projection
/// operator can stand in for (`Plan::as_projection`).
fn sums_of_doubles(aggs: &[AggExpr], schema: &RelSchema) -> bool {
    aggs.iter().all(|a| {
        a.func == AggFunc::Sum && a.arg.as_ref().is_some_and(|e| is_double(e, schema))
    })
}

/// Facts of a join's output and, per column, whether it is a key of the
/// side it came from. A row of either side can repeat in the output, so no
/// column stays a key; the right side of a `LEFT JOIN` can be NULL-padded.
fn join_facts(kind: JoinKind, left: Facts, right: Facts) -> (Facts, Vec<bool>) {
    let side_key = left.iter().chain(&right).map(|f| f.is_some_and(|f| f.unique)).collect();
    let keep = |facts: Facts, known: bool| {
        facts.into_iter().map(move |f| f.filter(|_| known).map(|f| ColFact { unique: false, ..f }))
    };
    let inner = kind == JoinKind::Inner;
    let facts = keep(left, true).chain(keep(right, inner)).collect();
    (facts, side_key)
}

/// One bottom-up pass over an optimized plan: marks every aggregate that
/// provably sees one row per group and returns the facts of the plan's
/// output columns. A shared node (a CTE referenced twice) is copied before
/// it is written to, once per reference, as the rewrite passes do.
pub(super) fn annotate(plan: &mut Plan) -> Facts {
    match plan {
        Plan::Scan { facts, .. } => facts.clone(),
        Plan::One => Facts::new(),
        Plan::Filter { input, .. }
        | Plan::Sort { input, .. }
        | Plan::Limit { input, .. }
        | Plan::Alias { input, .. } => annotate(Arc::make_mut(input)),
        Plan::Project { input, exprs, .. } => {
            let facts = annotate(Arc::make_mut(input));
            exprs.iter().map(|e| expr_fact(e, &facts)).collect()
        }
        Plan::Join { left, right, kind, .. } => {
            join_facts(*kind, annotate(Arc::make_mut(left)), annotate(Arc::make_mut(right))).0
        }
        Plan::Aggregate { input, group_by, aggs, schema, one_row_per_group } => {
            // The proof wants the keys of the join's sides, which the join's
            // own facts no longer have: take the join apart here.
            let (facts, join) = match Arc::make_mut(input) {
                Plan::Join { left, right, kind, on, schema } => {
                    let (lf, rf) = (annotate(Arc::make_mut(left)), annotate(Arc::make_mut(right)));
                    let left_cols = lf.len();
                    let (facts, side_key) = join_facts(*kind, lf, rf);
                    let proven = *kind == JoinKind::Inner
                        && group_by.len() == 1
                        && sums_of_doubles(aggs, schema);
                    (facts, proven.then_some((&*on, side_key, left_cols)))
                }
                other => (annotate(other), None),
            };
            let keys: Vec<Option<Bits>> = group_by.iter().map(|g| bits_of(g, &facts)).collect();
            *one_row_per_group = match (&join, keys.as_slice()) {
                (Some((on, side_key, left_cols)), [Some(key)]) => {
                    key_is_injective(key, on, &facts, side_key, *left_cols)
                }
                _ => false,
            };
            // Group keys first — a single one is a key of the output — then
            // the aggregates, of which nothing is known.
            let unique = group_by.len() == 1;
            let key_fact = |bits: &Option<Bits>| Some(ColFact { unique, ..bits.as_ref()?.fact() });
            let mut out: Facts = keys.iter().map(key_fact).collect();
            out.resize(schema.len(), None);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::bind;
    use crate::parser::parse_expr;
    use crate::plan::optimizer::fold_expr;
    use crate::schema::Field;

    /// `t(s, r, i)` joined with `g(in_s, out_s, r, i)`: seven columns.
    fn schema() -> RelSchema {
        let t = |n| Field::typed(Some("t"), n, DataType::Integer);
        let g = |n| Field::typed(Some("g"), n, DataType::Integer);
        let d = |rel, n| Field::typed(Some(rel), n, DataType::Double);
        RelSchema::new(vec![t("s"), d("t", "r"), d("t", "i"), g("in_s"), g("out_s"), d("g", "r"), d("g", "i")])
    }

    fn expr(sql: &str) -> BoundExpr {
        let mut e = bind(&parse_expr(sql).unwrap(), &schema()).unwrap();
        fold_expr(&mut e);
        e
    }

    /// Facts of the join: `t.s` with `s_ones`, both gate columns with
    /// `gate_ones`, the amplitudes unknown.
    fn facts(s_ones: u64, gate_ones: u64) -> Facts {
        let int = |ones| Some(ColFact { ones, unique: false });
        vec![int(s_ones), None, None, int(gate_ones), int(gate_ones), None, None]
    }

    const S: usize = 0;
    const OUT_S: usize = 4;
    /// `t.s`, `g.in_s` and `g.out_s` are keys of their sides.
    const KEYS: [bool; 7] = [true, false, false, true, true, false, false];

    fn proves(key: &str, on: &str, facts: &Facts, side_key: &[bool]) -> bool {
        let Some(key) = bits_of(&expr(key), facts) else { return false };
        key_is_injective(&key, &expr(on), facts, side_key, 3)
    }

    #[test]
    fn contiguous_form_routes_every_bit() {
        let f = facts(u64::MAX, 3);
        let key = bits_of(&expr("(t.s & ~6) | (g.out_s << 1)"), &f).unwrap();
        assert_eq!(key.ones, 0);
        assert_eq!(key.copied(S), !6);
        assert_eq!(key.copied(OUT_S), 3);
        let read = bits_of(&expr("(t.s >> 1) & 3"), &f).unwrap();
        assert_eq!(read.copied(S), 6);
        assert!(proves("(t.s & ~6) | (g.out_s << 1)", "g.in_s = ((t.s >> 1) & 3)", &f, &KEYS));
        // Either way round, and next to another conjunct.
        assert!(proves("(g.out_s << 1) | (t.s & ~6)", "((t.s >> 1) & 3) = g.in_s AND t.r > 0.0", &f, &KEYS));
    }

    #[test]
    fn per_bit_form_routes_every_bit() {
        // Qubits [2, 0]: local bit 0 is qubit 2, local bit 1 is qubit 0.
        let f = facts(u64::MAX, 3);
        let key = "(t.s & ~5) | (((g.out_s & 1) << 2) | ((g.out_s >> 1) & 1))";
        let on = "g.in_s = (((t.s >> 2) & 1) | ((t.s & 1) << 1))";
        let bits = bits_of(&expr(key), &f).unwrap();
        assert_eq!((bits.copied(S), bits.copied(OUT_S)), (!5, 3));
        assert_eq!(bits_of(&expr("((t.s >> 2) & 1) | ((t.s & 1) << 1)"), &f).unwrap().copied(S), 5);
        assert!(proves(key, on, &f, &KEYS));
    }

    #[test]
    fn constants_and_shifts_move_bits_as_the_engine_does() {
        let f = facts(0xff, 0);
        let bits = |sql: &str| bits_of(&expr(sql), &f);
        let b = bits("(t.s | 256) >> 4").unwrap();
        assert_eq!((b.ones, b.copies(), b.copied(S)), (16, 0x0f, 0xf0));
        // `|` under a constant 1 and `&` under a constant 0 lose the copy.
        assert_eq!(bits("t.s | 15").unwrap().copied(S), 0xf0);
        assert_eq!(bits("t.s & 15").unwrap().copied(S), 0x0f);
        // The sign bit is in reach of `<<` only for a column that can set it.
        assert!(bits("t.s << 55").is_some());
        assert!(bits("t.s << 56").is_none(), "would widen into HUGEINT");
        assert!(bits_of(&expr("t.s >> 1"), &facts(u64::MAX, 0)).is_some());
        for refused in ["t.s + 1", "t.s ^ 1", "~t.s", "t.s << g.in_s", "t.s >> 64", "t.s << -1", "t.r", "t.s & 1.0", "t.s | (t.s >> 1)"] {
            assert!(bits(refused).is_none(), "{refused}");
        }
    }

    #[test]
    fn refusals() {
        let one_qubit = ("(t.s & ~1) | g.out_s", "g.in_s = (t.s & 1)");
        let f = facts(u64::MAX, 1);
        assert!(proves(one_qubit.0, one_qubit.1, &f, &KEYS));
        // `in_s` need not be a key: a unique `out_s` names the gate row.
        assert!(proves(one_qubit.0, one_qubit.1, &f, &[true, false, false, false, true, false, false]));
        // H, or two `in_s` to one `out_s`: `out_s` is no key.
        assert!(!proves(one_qubit.0, one_qubit.1, &f, &[true, false, false, true, false, false, false]));
        // A duplicate `s`.
        assert!(!proves(one_qubit.0, one_qubit.1, &f, &[false, false, false, true, true, false, false]));
        // An `out_s` bit outside the field lands on a kept bit of `s`.
        assert!(!proves(one_qubit.0, one_qubit.1, &facts(u64::MAX, 3), &KEYS));
        // The key clears bits 1 and 2, the join reads bit 0 only …
        assert!(!proves("(t.s & ~7) | g.out_s", one_qubit.1, &f, &KEYS));
        // … which is fine for a state that never sets them.
        assert!(proves("(t.s & ~7) | g.out_s", one_qubit.1, &facts(!6, 1), &KEYS));
        // The issue's form of it keeps bit 0 under `out_s`.
        assert!(!proves("(t.s & ~6) | g.out_s", one_qubit.1, &f, &KEYS));
        // An `out_s` bit that is dropped on the way.
        assert!(!proves("(t.s & ~3) | (g.out_s & 1)", "g.in_s = (t.s & 3)", &facts(u64::MAX, 3), &KEYS));
        // Nothing is known of a column: HUGEINT, NULLs, a table too large to check.
        let mut unknown = f.clone();
        unknown[S] = None;
        assert!(!proves(one_qubit.0, one_qubit.1, &unknown, &KEYS));
        // A join that does not tie `in_s` to the state.
        assert!(!proves(one_qubit.0, "g.in_s < (t.s & 1)", &f, &KEYS));
    }

    #[test]
    fn only_sums_of_doubles_stream() {
        let sum = |sql: &str, func| AggExpr { func, arg: Some(expr(sql)) };
        let ok = sum("(t.r * g.r) - (t.i * g.i)", AggFunc::Sum);
        assert!(sums_of_doubles(&[ok.clone(), sum("t.s * 0.5", AggFunc::Sum)], &schema()));
        // An INTEGER sum stays INTEGER; `0.0 + x` would not.
        assert!(!sums_of_doubles(&[ok.clone(), sum("t.s", AggFunc::Sum)], &schema()));
        assert!(!sums_of_doubles(&[sum("t.r", AggFunc::Min)], &schema()));
        assert!(!sums_of_doubles(&[sum("t.r", AggFunc::CountDistinct)], &schema()));
        let count = AggExpr { func: AggFunc::CountStar, arg: None };
        assert!(!sums_of_doubles(&[ok, count], &schema()));
    }
}
