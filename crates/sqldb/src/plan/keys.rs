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

/// What an integer expression over one column can set and what it reads:
/// `writes` are the bits that can be 1, `from[p]` the bits of the column
/// that bit `p` depends on (0 wherever `writes` is).
struct Deps {
    writes: u64,
    from: [u64; 64],
}

impl Deps {
    fn reads(&self) -> u64 {
        self.from.iter().fold(0, |m, f| m | f)
    }

    /// Every bit `p` of `writes` reads `from(p)`; the others are 0.
    fn with(writes: u64, from: impl Fn(usize) -> u64) -> Deps {
        Deps { writes, from: std::array::from_fn(|p| if writes >> p & 1 == 1 { from(p) } else { 0 }) }
    }
}

/// The dependencies of `expr` on column `col`, or `None` when it reads
/// another column or is not arithmetic the walk follows: `&`, `|`, `^`,
/// `<<` and `>>` by a literal, `*` by a literal, over `col` (a non-NULL
/// `INTEGER` with facts) and integer literals. Like [`bits_of`], a `<<`
/// that could reach the sign bit (and widen into `HUGEINT`) is refused, and
/// so is a `*` that could overflow.
fn deps_of(expr: &BoundExpr, col: usize, facts: &[Option<ColFact>]) -> Option<Deps> {
    use BinaryOp::{BitAnd, BitOr, BitXor, Mul, Shl, Shr};
    let lit = |e: &BoundExpr| match e {
        BoundExpr::Literal(Value::Int(v)) => Some(*v),
        _ => None,
    };
    match expr {
        BoundExpr::Literal(Value::Int(v)) => Some(Deps { writes: *v as u64, from: [0; 64] }),
        BoundExpr::Column(c) if *c == col => {
            Some(Deps::with(facts.get(col)?.as_ref()?.ones, |p| 1 << p))
        }
        BoundExpr::Binary { left, op: op @ (BitAnd | BitOr | BitXor), right } => {
            let (l, r) = (deps_of(left, col, facts)?, deps_of(right, col, facts)?);
            let writes = if *op == BitAnd { l.writes & r.writes } else { l.writes | r.writes };
            Some(Deps::with(writes, |p| l.from[p] | r.from[p]))
        }
        BoundExpr::Binary { left, op: op @ (Shl | Shr), right } => {
            let k = u32::try_from(lit(right)?).ok().filter(|&k| k < 64)? as usize;
            let l = deps_of(left, col, facts)?;
            if *op == Shr {
                return Some(Deps::with(l.writes >> k, |p| l.from[p + k]));
            }
            if k > 0 && l.writes >> (63 - k) != 0 {
                return None;
            }
            Some(Deps::with(l.writes << k, |p| l.from[p - k]))
        }
        BoundExpr::Binary { left, op: Mul, right } => {
            let (factor, other) = match (lit(left), lit(right)) {
                (_, Some(v)) => (v, left),
                (Some(v), None) => (v, right),
                (None, None) => return None,
            };
            let (l, factor) = (deps_of(other, col, facts)?, u64::try_from(factor).ok()?);
            if l.writes == 0 || factor == 0 {
                return Some(Deps { writes: 0, from: [0; 64] });
            }
            // The product is below 2^(len + len) and a multiple of both
            // lowest set bits; carries make bit `p` read every bit below it.
            let high = 128 - l.writes.leading_zeros() - factor.leading_zeros();
            let low = l.writes.trailing_zeros() + factor.trailing_zeros();
            if high > 63 {
                return None;
            }
            let writes = (1u64 << high) - (1u64 << low);
            Some(Deps::with(writes, |p| l.from[..=p].iter().fold(0, |m, f| m | f)))
        }
        _ => None,
    }
}

/// The terms of an `^` chain, in order.
fn xor_terms<'a>(expr: &'a BoundExpr, out: &mut Vec<&'a BoundExpr>) {
    match expr {
        BoundExpr::Binary { left, op: BinaryOp::BitXor, right } => {
            xor_terms(left, out);
            xor_terms(right, out);
        }
        other => out.push(other),
    }
}

/// The fact of `c ^ g1 ^ … ^ gn` for a column `c` with facts and terms `gk`
/// over `c` ([`deps_of`]): the bits of `c` and every bit a term can write
/// can be set, and it is a key if `c` is and no term reads a bit that any
/// term writes. Then the read bits pass unchanged, so the output determines
/// the terms, which XOR it back to `c`. The terms must be taken together: in
/// `s ^ ((s & 1) << 1) ^ ((s >> 1) & 1)` neither term reads what it writes,
/// but 01 and 10 both go to 11.
fn xor_fact(expr: &BoundExpr, facts: &[Option<ColFact>]) -> Option<ColFact> {
    let mut terms = Vec::new();
    xor_terms(expr, &mut terms);
    let at = terms.iter().position(|t| matches!(t, BoundExpr::Column(c) if facts[*c].is_some()))?;
    let BoundExpr::Column(c) = terms.remove(at) else { unreachable!() };
    let fact = facts[*c]?;
    let (mut reads, mut writes) = (0, 0);
    for term in terms {
        let deps = deps_of(term, *c, facts)?;
        reads |= deps.reads();
        writes |= deps.writes;
    }
    Some(ColFact { ones: fact.ones | writes, unique: fact.unique && reads & writes == 0 })
}

/// The fact of a projected expression: a bare column keeps its own, key
/// included; an `^` chain over a column gets [`xor_fact`]'s; mask
/// arithmetic gets what [`bits_of`] finds, and is a key if it copies every
/// bit a key column can set (SWAP's copy form).
fn expr_fact(expr: &BoundExpr, facts: &[Option<ColFact>]) -> Option<ColFact> {
    match expr {
        BoundExpr::Column(c) => facts[*c],
        BoundExpr::Binary { op: BinaryOp::BitXor, .. } => xor_fact(expr, facts),
        _ => {
            let bits = bits_of(expr, facts)?;
            let keeps_key = |c: usize, f: &ColFact| f.unique && f.ones & !bits.copied(c) == 0;
            let unique = facts.iter().enumerate().any(|(c, f)| f.is_some_and(|f| keeps_key(c, &f)));
            Some(ColFact { unique, ..bits.fact() })
        }
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
    use BinaryOp::{Add, Mul, Sub};
    match expr {
        BoundExpr::Literal(Value::Float(_)) => true,
        BoundExpr::Column(c) => schema.fields[*c].ty == Some(DataType::Double),
        BoundExpr::Binary { left, op: Add | Sub | Mul, right } => {
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

    /// The index expression the translator's projection of a lone gate
    /// writes, for the permutation `perm` of `k` local bits on `qubits`
    /// (local bit `j` is `qubits[j]`): the XOR normal form `s ^ g1 ^ …`
    /// term by term, or, when `copy`, its terms read what they write and
    /// it permutes the bits (SWAP), the copy form `(s & ~M) | (((s >> a) &
    /// 1) << b) | …`.
    fn gate_form(perm: impl Fn(u64) -> u64, k: usize, qubits: &[usize], copy: bool) -> String {
        let n = 1u64 << k;
        let bit = |q: usize| if q == 0 { "(s & 1)".to_string() } else { format!("((s >> {q}) & 1)") };
        let place = |v: String, q: usize| if q == 0 { v } else { format!("({v} << {q})") };
        let mut terms = Vec::new();
        for j in 0..k {
            let mut anf: Vec<u64> = (0..n).map(|x| ((perm(x) ^ x) >> j) & 1).collect();
            for b in 0..k {
                for x in (0..n).filter(|x| x >> b & 1 == 1) {
                    anf[x as usize] ^= anf[(x ^ 1 << b) as usize];
                }
            }
            terms.extend((0..n).filter(|&m| anf[m as usize] == 1).map(|m| (m, j)));
        }
        let (reads, writes) = terms.iter().fold((0, 0), |(r, w), &(m, j)| (r | m, w | 1 << j));
        let from: Option<Vec<usize>> =
            (0..k).map(|j| (0..k).find(|&b| (0..n).all(|x| perm(x) >> j & 1 == x >> b & 1))).collect();
        if let Some(from) = from.filter(|_| copy && reads & writes != 0) {
            let moved: Vec<usize> = (0..k).filter(|&j| from[j] != j).collect();
            let mask = moved.iter().fold(0, |m, &j| m | 1u64 << qubits[j]);
            return moved.iter().fold(format!("(s & ~{mask})"), |acc, &j| {
                format!("({acc} | {})", place(bit(qubits[from[j]]), qubits[j]))
            });
        }
        let mut out = "s".to_string();
        let mut flips = 0u64;
        for (m, j) in terms {
            let read: Vec<usize> = (0..k).filter(|b| m >> b & 1 == 1).map(|b| qubits[b]).collect();
            let term = match read.as_slice() {
                [] => {
                    flips |= 1 << qubits[j];
                    continue;
                }
                [q] => bit(*q),
                _ => {
                    let and: Vec<String> =
                        read.iter().map(|&q| if q == 0 { "s".into() } else { format!("(s >> {q})") }).collect();
                    format!("({} & 1)", and.join(" & "))
                }
            };
            out = format!("({out} ^ {})", place(term, qubits[j]));
        }
        if flips != 0 {
            out = format!("({out} ^ {flips})");
        }
        out
    }

    /// Push `keys` (as `t.s`, with the facts they really have) through the
    /// projection `sql`: what `expr_fact` claims must hold of the output —
    /// every output bit is under `ones`, and `unique` only if no output
    /// repeats. Returns the claim.
    fn check_claim(sql: &str, keys: &[i64]) -> Option<ColFact> {
        let ones = keys.iter().fold(0, |m, &v| m | v as u64);
        let mut sorted = keys.to_vec();
        sorted.sort_unstable();
        let unique = sorted.windows(2).all(|w| w[0] != w[1]);
        let mut facts = facts(ones, 0);
        facts[S] = Some(ColFact { ones, unique });
        let e = expr(sql);
        let claim = expr_fact(&e, &facts)?;
        let row = |v: i64| vec![Value::Int(v), Value::Null, Value::Null, Value::Null, Value::Null, Value::Null, Value::Null];
        let mut out: Vec<i64> = keys
            .iter()
            .map(|&v| match e.eval(&row(v)).unwrap() {
                Value::Int(o) => o,
                other => panic!("{sql}: {other:?}"),
            })
            .collect();
        for o in &out {
            assert_eq!(*o as u64 & !claim.ones, 0, "{sql}: output {o:#b} outside ones {:#b}", claim.ones);
        }
        out.sort_unstable();
        if claim.unique {
            assert!(out.windows(2).all(|w| w[0] != w[1]), "{sql}: claimed a key, got repeats from {keys:?}");
        }
        Some(claim)
    }

    #[test]
    fn projection_facts_are_sound_for_every_emitted_form() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Index maps of the gates the translator projects (the phase gates
        // Z, S, T, RZ, P, CZ and CP leave `s` bare: the column's own fact),
        // and of CSWAP, whose normal form reads what it writes.
        let x = |v: u64| v ^ 1;
        let cx = |v: u64| v ^ ((v & 1) << 1);
        let ccx = |v: u64| v ^ ((v & (v >> 1) & 1) << 2);
        let swap = |v: u64| (v & !3) | ((v & 1) << 1) | ((v >> 1) & 1);
        let cswap = |v: u64| if v & 1 == 1 { (v & 1) | ((v & 2) << 1) | ((v & 4) >> 1) } else { v };
        let placements: [&[usize]; 9] =
            [&[0], &[5], &[2, 3], &[3, 2], &[0, 6], &[6, 1], &[1, 2, 3], &[4, 3, 2], &[0, 6, 3]];
        let mut forms = vec!["s".to_string()];
        for qubits in placements {
            let k = qubits.len();
            let gates: Vec<(&dyn Fn(u64) -> u64, usize)> = vec![(&x, 1), (&cx, 2), (&swap, 2), (&ccx, 3), (&cswap, 3)];
            for (perm, arity) in gates.into_iter().filter(|g| g.1 == k) {
                forms.push(gate_form(perm, arity, qubits, true));
                forms.push(gate_form(perm, arity, qubits, false));
            }
        }
        forms.extend(
            [
                "((s ^ ((s & 3) * 4)) ^ 64)",
                "(s ^ ((s & 3) * 3))",
                "(s ^ ((s >> 2) * 0))",
                "((s ^ (((s >> 3) & 1) << 5)) ^ (((s >> 5) & 1) << 3))",
            ]
            .map(String::from),
        );
        let mut rng = StdRng::seed_from_u64(31);
        let (mut claimed, mut refused) = (0, 0);
        for form in &forms {
            for round in 0..60 {
                // Keys over a random field of the low 8 bits, plus a high bit;
                // every third set repeats a key.
                let field = rng.gen_range(1u64..256) | if round % 2 == 0 { 1 << 40 } else { 0 };
                let mut keys: Vec<i64> =
                    (0..rng.gen_range(1..24)).map(|_| (rng.gen_range(0..u64::MAX) & field) as i64).collect();
                keys.sort_unstable();
                keys.dedup();
                if round % 3 == 0 {
                    keys.push(keys[0]);
                }
                let claim = check_claim(form, &keys).unwrap_or_else(|| panic!("{form}: no fact"));
                if claim.unique { claimed += 1 } else { refused += 1 }
            }
        }
        assert!(claimed > 1000 && refused > 300, "{claimed} claimed, {refused} refused");
        // Single terms that each read no bit they write, taken together do:
        // 01 and 10 both go to 11. Term by term would claim a key.
        let chain = "s ^ ((s & 1) << 1) ^ ((s >> 1) & 1)";
        assert_eq!(check_claim(chain, &[0, 1, 2, 3]), Some(ColFact { ones: 3, unique: false }));
        // CX, CCX and X keep the key; CSWAP's and SWAP's normal forms do not
        // say so, SWAP's copy form does.
        let key = |form: &str| check_claim(form, &[0, 1, 2, 5, 6, 7]).unwrap().unique;
        assert!(key(&gate_form(cx, 2, &[1, 0], false)) && key(&gate_form(ccx, 3, &[2, 0, 1], false)));
        assert!(key(&gate_form(x, 1, &[2], false)));
        assert!(!key(&gate_form(cswap, 3, &[0, 1, 2], false)) && !key(&gate_form(swap, 2, &[0, 2], false)));
        assert!(key(&gate_form(swap, 2, &[0, 2], true)));
        // Another column, a HUGEINT-widening shift, a non-literal factor:
        // no fact.
        for refused in ["s ^ in_s", "s ^ (s << 30)", "s ^ ((s & 1) * s)"] {
            assert_eq!(check_claim(refused, &[1 << 40, 3]), None, "{refused}");
        }
    }
}
