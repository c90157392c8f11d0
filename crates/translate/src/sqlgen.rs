//! SQL generation (§2.2, Fig. 2c): one `JOIN … GROUP BY` block per gate,
//! chained through CTEs, with the complex product expanded into the
//! real/imaginary sum-of-products columns.
//!
//! A gate that cannot interfere needs no `GROUP BY`. Its table
//! [permutes](crate::tables::permutes): every `in_s` and every `out_s`
//! occurs once, so each state row lands on its own new `s`. A lone gate (a
//! block of one, [`crate::fusion`]) of that kind — X, Y, Z, S, T, RZ, P, CX,
//! CY, CZ, CP, CCX, SWAP — is `SELECT <f(s)> AS s, <r'> AS r, <i'> AS i FROM
//! prev`, with `f` and the phase read off its table ([`closed_form`]): no
//! gate table and no join. One without a closed form (a fused block, CSWAP,
//! any gate past 63 qubits) joins its table and multiplies, row by row.
//! Neither has a `HAVING`: a phase of modulus 1 cannot create a zero.
//! [`SqlGenConfig::FIG_2C`] joins and groups every gate, as the paper does.

use std::fmt::{self, Display, Write};
use std::sync::Arc;

use qymera_circuit::Complex64;

use crate::masks::{GateMasks, StateEncoding};
use crate::tables::GateOp;

/// Generation options.
#[derive(Debug, Clone, Default)]
pub struct SqlGenConfig {
    /// If set, add a `HAVING` clause that drops result amplitudes whose
    /// squared magnitude falls below the threshold (the paper stores "only
    /// nonzero basis states"; interference can otherwise leave exact-zero
    /// rows in the table). `None` reproduces Fig. 2c verbatim.
    pub prune_threshold: Option<f64>,
    /// Join and group every gate, as Fig. 2c does, instead of writing lone
    /// permutation gates as projections and the other permutations as joins
    /// without a `GROUP BY`. Tables are created for the joins the config
    /// asks for ([`crate::GateTableRegistry::for_sql`]).
    pub join_every_gate: bool,
}

impl SqlGenConfig {
    /// The paper's translation, verbatim: one `JOIN … GROUP BY` per op.
    pub const FIG_2C: SqlGenConfig = SqlGenConfig { prune_threshold: None, join_every_gate: true };
}

/// Where a permutation table sends the bits of its local input.
#[derive(Debug, PartialEq)]
enum Index {
    /// Output = input XOR the listed `(monomial, bit)` terms: the AND of the
    /// input bits in the monomial (1 if empty), placed at local bit `bit`.
    /// No term reads a bit any term writes.
    Xor(Vec<(u64, usize)>),
    /// Output bit `j` is a copy of input bit `from[j]` (SWAP).
    Copy(Vec<usize>),
}

/// A gate table in closed form, computed once per table and shared by
/// every op that projects it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedForm(Arc<Form>);

/// The index map, and the real and imaginary parts of the phase each local
/// input's one output picks up.
#[derive(Debug, PartialEq)]
struct Form {
    index: Index,
    re: Coef,
    im: Coef,
}

/// The closed form of a `k`-qubit gate table, if it is a permutation with
/// phases whose index map is an XOR of terms that read no bit they write
/// (the algebraic normal form of `out ^ in`, bit by bit) or a permutation
/// of the bits. CSWAP, whose normal form reads the bits it swaps, has none.
pub fn closed_form(entries: &[(u64, u64, Complex64)], k: usize) -> Option<ClosedForm> {
    let n = 1usize << k;
    // One entry per input, in input order, and no output twice.
    if entries.len() != n || entries.iter().enumerate().any(|(x, e)| e.0 != x as u64) {
        return None;
    }
    let mut seen = vec![false; n];
    for &(_, out, _) in entries {
        if std::mem::replace(seen.get_mut(out as usize)?, true) {
            return None;
        }
    }
    let out = |x: usize| entries[x].1 as usize;
    let re = Coef::of(&entries.iter().map(|e| e.2.re).collect::<Vec<_>>());
    let im = Coef::of(&entries.iter().map(|e| e.2.im).collect::<Vec<_>>());
    let mut terms = Vec::new();
    for j in 0..k {
        // Möbius transform of `x ↦ bit j of out(x) ^ x`: its ones are the
        // monomials of the normal form.
        let mut anf: Vec<u8> = (0..n).map(|x| (((out(x) ^ x) >> j) & 1) as u8).collect();
        for b in 0..k {
            for x in (0..n).filter(|x| x & (1 << b) != 0) {
                anf[x] ^= anf[x ^ (1 << b)];
            }
        }
        terms.extend((0..n).filter(|&m| anf[m] == 1).map(|m| (m as u64, j)));
    }
    let reads = terms.iter().fold(0, |m, t| m | t.0);
    let writes = terms.iter().fold(0, |m, t| m | 1 << t.1);
    let index = if reads & writes == 0 {
        Index::Xor(terms)
    } else {
        let from: Option<Vec<usize>> = (0..k)
            .map(|j| (0..k).find(|&b| (0..n).all(|x| (out(x) >> j) & 1 == (x >> b) & 1)))
            .collect();
        Index::Copy(from?)
    };
    Some(ClosedForm(Arc::new(Form { index, re, im })))
}

/// `((s >> q) & 1)`: bit `q` of the state index.
fn bit(q: usize) -> impl Display {
    fmt::from_fn(move |f| match q {
        0 => f.write_str("(s & 1)"),
        _ => write!(f, "((s >> {q}) & 1)"),
    })
}

/// `v` placed at bit `q`.
fn placed(v: impl Display, q: usize) -> impl Display {
    fmt::from_fn(move |f| match q {
        0 => write!(f, "{v}"),
        _ => write!(f, "({v} << {q})"),
    })
}

/// One coefficient (real or imaginary part of the phase) as a function of
/// the local input bits: a constant, or `lo` unless every bit of the
/// monomial `bits` is set, then `hi`.
#[derive(Debug, PartialEq)]
enum Coef {
    Const(f64),
    Pick { bits: u64, lo: Box<Coef>, hi: Box<Coef> },
}

impl Coef {
    /// `coef[x]` for local input `x`, picked bit by bit from the top, with
    /// equal branches merged and a pick whose `lo` equals its parent's
    /// folded into the parent's monomial (CP: 1 unless both bits are set).
    fn of(coef: &[f64]) -> Coef {
        let half = coef.len() / 2;
        if half == 0 {
            return Coef::Const(coef[0]);
        }
        let top = half.trailing_zeros();
        let (lo, hi) = (Coef::of(&coef[..half]), Coef::of(&coef[half..]));
        match hi {
            _ if hi == lo => lo,
            Coef::Pick { bits, lo: inner, hi } if *inner == lo => {
                Coef::Pick { bits: bits | 1 << top, lo: inner, hi }
            }
            hi => Coef::Pick { bits: 1 << top, lo: Box::new(lo), hi: Box::new(hi) },
        }
    }

    /// `c0*(1-m) + c1*m` for the monomial's value `m`, which returns each
    /// coefficient exactly: `r*C - i*D` is then the arithmetic of the join.
    /// A constant is a literal the engine reads back to the same `f64`.
    fn sql<'a>(&'a self, qubits: &'a [usize]) -> impl Display + 'a {
        fmt::from_fn(move |f| match self {
            Coef::Const(v) => write!(f, "{v:?}"),
            Coef::Pick { bits, lo, hi } => {
                let m = monomial(*bits, qubits);
                write!(f, "(({} * (1 - {m})) + ({} * {m}))", lo.sql(qubits), hi.sql(qubits))
            }
        })
    }

    /// `x` times this coefficient: `x` itself for the constant 1.
    fn times<'a>(&'a self, x: &'a str, qubits: &'a [usize]) -> impl Display + 'a {
        fmt::from_fn(move |f| match self {
            Coef::Const(v) if *v == 1.0 => f.write_str(x),
            _ => write!(f, "({x} * {})", self.sql(qubits)),
        })
    }
}

/// `1` if every bit of the state index that the local bits `local` stand
/// for (through `qubits`) is set, else `0`.
fn monomial(local: u64, qubits: &[usize]) -> impl Display + '_ {
    fmt::from_fn(move |f| {
        let mut read = (0..qubits.len()).filter(move |j| local >> j & 1 == 1).map(|j| qubits[j]);
        if local.count_ones() == 1 {
            return write!(f, "{}", bit(read.next().expect("one bit")));
        }
        f.write_str("(")?;
        for (n, q) in read.enumerate() {
            if n > 0 {
                f.write_str(" & ")?;
            }
            match q {
                0 => f.write_str("s")?,
                q => write!(f, "(s >> {q})")?,
            }
        }
        f.write_str(" & 1)")
    })
}

/// `n` opening parentheses: the wrappers a left-nested expression built
/// term by term needs before its innermost operand.
fn open_parens(out: &mut String, n: usize) {
    out.extend(std::iter::repeat_n('(', n));
}

/// Write the projection applying a lone permutation gate on `qubits`, in
/// closed form `form`, to state table `prev`.
fn projection_select(
    out: &mut String,
    prev: &str,
    qubits: &[usize],
    form: &ClosedForm,
) -> fmt::Result {
    let Form { index, re: c, im: d } = &*form.0;
    out.push_str("SELECT ");
    match index {
        Index::Xor(terms) => {
            let flips = terms.iter().filter(|t| t.0 == 0).fold(0u64, |m, t| m | 1 << qubits[t.1]);
            let wraps = terms.iter().filter(|t| t.0 != 0).count() + usize::from(flips != 0);
            open_parens(out, wraps);
            out.push('s');
            for &(m, j) in terms.iter().filter(|t| t.0 != 0) {
                write!(out, " ^ {})", placed(monomial(m, qubits), qubits[j]))?;
            }
            if flips != 0 {
                write!(out, " ^ {flips})")?;
            }
            if wraps != 0 {
                out.push_str(" AS s");
            }
        }
        Index::Copy(from) => {
            let moved = || (0..from.len()).filter(|&j| from[j] != j);
            if moved().next().is_none() {
                out.push('s');
            } else {
                open_parens(out, moved().count());
                let mask = moved().fold(0u64, |m, j| m | 1 << qubits[j]);
                write!(out, "(s & ~{mask})")?;
                for j in moved() {
                    write!(out, " | {})", placed(bit(qubits[from[j]]), qubits[j]))?;
                }
                out.push_str(" AS s");
            }
        }
    }
    let (rc, ic) = (c.times("r", qubits), c.times("i", qubits));
    if *d != Coef::Const(0.0) {
        let (rd, id) = (d.times("r", qubits), d.times("i", qubits));
        write!(out, ", ({rc} - {id}) AS r, ({rd} + {ic}) AS i")?;
    } else if *c != Coef::Const(1.0) {
        write!(out, ", {rc} AS r, {ic} AS i")?;
    } else {
        out.push_str(", r, i");
    }
    write!(out, " FROM {prev}")
}

/// The `SELECT` block applying `op` to state table `prev` (no `WITH`
/// wrapper): unless `cfg` joins every gate, a projection for a lone
/// permutation gate on an `INTEGER` index and a join without `GROUP BY` for
/// any other op that [permutes](GateOp::permutes); else query `q_k` of
/// Fig. 2c.
pub fn gate_select(prev: &str, op: &GateOp, num_qubits: usize, cfg: &SqlGenConfig) -> String {
    let mut sql = String::new();
    write_gate_select(&mut sql, prev, op, num_qubits, cfg).expect("a String takes any text");
    sql
}

/// [`gate_select`], appended to `out`.
fn write_gate_select(
    out: &mut String,
    prev: &str,
    op: &GateOp,
    num_qubits: usize,
    cfg: &SqlGenConfig,
) -> fmt::Result {
    let masks = GateMasks::new(&op.qubits, num_qubits);
    if let Some(form) = &op.closed_form {
        if !cfg.join_every_gate && masks.encoding() == StateEncoding::Int {
            return projection_select(out, prev, &op.qubits, form);
        }
    }
    let g = &op.table;
    let new_s = masks.new_state_expr(prev, g);
    let in_s = masks.in_expr(prev);
    let r = fmt::from_fn(|f| write!(f, "({prev}.r * {g}.r) - ({prev}.i * {g}.i)"));
    let i = fmt::from_fn(|f| write!(f, "({prev}.r * {g}.i) + ({prev}.i * {g}.r)"));
    if op.permutes && !cfg.join_every_gate {
        return write!(
            out,
            "SELECT {new_s} AS s, {r} AS r, {i} AS i FROM {prev} JOIN {g} ON {g}.in_s = {in_s}"
        );
    }
    let r_sum = fmt::from_fn(|f| write!(f, "SUM({r})"));
    let i_sum = fmt::from_fn(|f| write!(f, "SUM({i})"));
    write!(
        out,
        "SELECT {new_s} AS s, {r_sum} AS r, {i_sum} AS i \
         FROM {prev} JOIN {g} ON {g}.in_s = {in_s} \
         GROUP BY {new_s}"
    )?;
    if let Some(tol) = cfg.prune_threshold {
        write!(out, " HAVING ({r_sum} * {r_sum}) + ({i_sum} * {i_sum}) > {tol:e}")?;
    }
    Ok(())
}

/// State-table name for step `k` (`T0` is the initial state).
pub fn state_table_name(step: usize) -> String {
    format!("T{step}")
}

/// The full single-statement translation of a circuit: a `WITH` chain with
/// one CTE per lowered gate operation, reading the initial state from
/// `initial` and emitting the final state ordered by basis index. The text
/// is written into one buffer.
pub fn circuit_query(
    ops: &[GateOp],
    num_qubits: usize,
    initial: &str,
    cfg: &SqlGenConfig,
) -> String {
    if ops.is_empty() {
        return format!("SELECT s, r, i FROM {initial} ORDER BY s");
    }
    let mut sql = String::new();
    write_circuit_query(&mut sql, ops, num_qubits, initial, cfg).expect("a String takes any text");
    sql
}

/// [`circuit_query`] for at least one op, appended to `out`.
fn write_circuit_query(
    out: &mut String,
    ops: &[GateOp],
    num_qubits: usize,
    initial: &str,
    cfg: &SqlGenConfig,
) -> fmt::Result {
    out.push_str("WITH ");
    // `prev` is `initial`, then the name of the CTE just written.
    let mut prev = String::from(initial);
    for (k, op) in ops.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        write!(out, "T{} AS (", k + 1)?;
        write_gate_select(out, &prev, op, num_qubits, cfg)?;
        out.push(')');
        prev.clear();
        write!(prev, "T{}", k + 1)?;
    }
    write!(out, " SELECT s, r, i FROM {prev} ORDER BY s")
}

/// A `CREATE TABLE … AS` step statement pair for the materialized
/// (out-of-core-friendly, inspectable) execution mode: returns
/// `(new_table_name, select_sql)`.
pub fn step_statement(
    step: usize,
    op: &GateOp,
    num_qubits: usize,
    cfg: &SqlGenConfig,
) -> (String, String) {
    let prev = state_table_name(step);
    let next = state_table_name(step + 1);
    (next, gate_select(&prev, op, num_qubits, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::GateTableRegistry;
    use qymera_circuit::{library, Gate, GateKind};

    fn ghz_ops() -> Vec<GateOp> {
        let mut reg = GateTableRegistry::new();
        library::ghz(3).gates().iter().map(|g| reg.lower_gate(g)).collect()
    }

    #[test]
    fn q1_matches_fig2c_text() {
        let ops = ghz_ops();
        let sql = gate_select("T0", &ops[0], 3, &SqlGenConfig::FIG_2C);
        assert_eq!(
            sql,
            "SELECT ((T0.s & ~1) | H.out_s) AS s, \
             SUM((T0.r * H.r) - (T0.i * H.i)) AS r, \
             SUM((T0.r * H.i) + (T0.i * H.r)) AS i \
             FROM T0 JOIN H ON H.in_s = (T0.s & 1) \
             GROUP BY ((T0.s & ~1) | H.out_s)"
        );
    }

    #[test]
    fn q3_matches_fig2c_text() {
        let ops = ghz_ops();
        let sql = gate_select("T2", &ops[2], 3, &SqlGenConfig::FIG_2C);
        assert_eq!(
            sql,
            "SELECT ((T2.s & ~6) | (CX.out_s << 1)) AS s, \
             SUM((T2.r * CX.r) - (T2.i * CX.i)) AS r, \
             SUM((T2.r * CX.i) + (T2.i * CX.r)) AS i \
             FROM T2 JOIN CX ON CX.in_s = ((T2.s >> 1) & 3) \
             GROUP BY ((T2.s & ~6) | (CX.out_s << 1))"
        );
    }

    #[test]
    fn full_chain_structure() {
        let ops = ghz_ops();
        let sql = circuit_query(&ops, 3, "T0", &SqlGenConfig::FIG_2C);
        assert!(sql.starts_with("WITH T1 AS (SELECT"));
        assert!(sql.contains(", T2 AS ("));
        assert!(sql.contains(", T3 AS ("));
        assert!(sql.ends_with("SELECT s, r, i FROM T3 ORDER BY s"));
        // It must parse in the engine's dialect.
        assert!(qymera_sqldb::parser::parse_statement(&sql).is_ok());
    }

    #[test]
    fn empty_circuit_reads_initial_state() {
        let sql = circuit_query(&[], 4, "T0", &SqlGenConfig::default());
        assert_eq!(sql, "SELECT s, r, i FROM T0 ORDER BY s");
    }

    #[test]
    fn prune_threshold_adds_having() {
        let ops = ghz_ops();
        let cfg = SqlGenConfig { prune_threshold: Some(1e-30), ..Default::default() };
        let sql = gate_select("T0", &ops[0], 3, &cfg);
        assert!(sql.contains("HAVING"), "{sql}");
        assert!(qymera_sqldb::parser::parse_statement(&sql).is_ok());
    }

    #[test]
    fn step_statements_advance_names() {
        let ops = ghz_ops();
        let (name, sql) = step_statement(0, &ops[0], 3, &SqlGenConfig::default());
        assert_eq!(name, "T1");
        assert!(sql.contains("FROM T0"));
        let (name, _) = step_statement(1, &ops[1], 3, &SqlGenConfig::default());
        assert_eq!(name, "T2");
    }

    #[test]
    fn parameterized_gate_table_names_appear() {
        let mut reg = GateTableRegistry::new();
        let op = reg.lower_gate(&Gate::new(GateKind::Rz, vec![1], vec![0.5]));
        let sql = gate_select("T0", &op, 2, &SqlGenConfig::FIG_2C);
        assert!(sql.contains("RZ_1"), "{sql}");
        assert!(qymera_sqldb::parser::parse_statement(&sql).is_ok());
    }

    #[test]
    fn every_generated_query_parses_for_random_circuits() {
        for seed in 0..5 {
            let c = library::random_circuit(6, 25, seed);
            let mut reg = GateTableRegistry::new();
            let ops: Vec<GateOp> = c.gates().iter().map(|g| reg.lower_gate(g)).collect();
            let sql = circuit_query(&ops, 6, "T0", &SqlGenConfig::default());
            qymera_sqldb::parser::parse_statement(&sql)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{sql}"));
        }
    }

    /// The projection `op` lowers to under the default config.
    fn projection(kind: GateKind, qubits: Vec<usize>, params: Vec<f64>) -> String {
        let op = GateTableRegistry::new().lower_gate(&Gate::new(kind, qubits, params));
        assert!(op.closed_form.is_some(), "{kind:?}");
        let sql = gate_select("T4", &op, 8, &SqlGenConfig::default());
        qymera_sqldb::parser::parse_statement(&sql).unwrap_or_else(|e| panic!("{e}\n{sql}"));
        sql
    }

    #[test]
    fn lone_permutations_are_projections_in_normal_form() {
        use GateKind::*;
        assert_eq!(projection(X, vec![2], vec![]), "SELECT (s ^ 4) AS s, r, i FROM T4");
        assert_eq!(
            projection(Cx, vec![1, 3], vec![]),
            "SELECT (s ^ (((s >> 1) & 1) << 3)) AS s, r, i FROM T4"
        );
        assert_eq!(
            projection(Cx, vec![3, 0], vec![]),
            "SELECT (s ^ ((s >> 3) & 1)) AS s, r, i FROM T4"
        );
        assert_eq!(
            projection(Ccx, vec![0, 5, 2], vec![]),
            "SELECT (s ^ ((s & (s >> 5) & 1) << 2)) AS s, r, i FROM T4"
        );
        // SWAP reads the bits it writes: the copy form, not the XOR form.
        assert_eq!(
            projection(Swap, vec![1, 4], vec![]),
            "SELECT (((s & ~18) | (((s >> 4) & 1) << 1)) | (((s >> 1) & 1) << 4)) AS s, r, i FROM T4"
        );
        // Phases: each coefficient chosen by `c0*(1-b) + c1*b`.
        assert_eq!(
            projection(Z, vec![6], vec![]),
            "SELECT s, (r * ((1.0 * (1 - ((s >> 6) & 1))) + (-1.0 * ((s >> 6) & 1)))) AS r, \
             (i * ((1.0 * (1 - ((s >> 6) & 1))) + (-1.0 * ((s >> 6) & 1)))) AS i FROM T4"
        );
        let y = projection(Y, vec![0], vec![]);
        assert!(y.starts_with("SELECT (s ^ 1) AS s, ((r * 0.0) - (i * ((1.0 * (1 - (s & 1))) + (-1.0 * (s & 1)))))"), "{y}");
        // CP's phase is 1 unless both bits are set: one pick on their AND.
        let cp = projection(CPhase, vec![2, 0], vec![0.5]);
        assert!(cp.contains("(r * ((1.0 * (1 - ((s >> 2) & s & 1))) + (0.8775825618903728 * ((s >> 2) & s & 1))))"), "{cp}");
        for (kind, qubits, params) in [(S, vec![1], vec![]), (T, vec![7], vec![]), (Rz, vec![3], vec![0.3]), (Phase, vec![5], vec![1.1]), (Cy, vec![4, 6], vec![]), (Cz, vec![0, 7], vec![]), (CRz, vec![2, 1], vec![0.9]), (I, vec![3], vec![])] {
            assert!(!projection(kind, qubits, params).contains("JOIN"));
        }
    }

    /// Each `in_s` and each `out_s` of `op`'s table once: the rule, counted
    /// apart from [`crate::tables::permutes`].
    fn each_once(op: &GateOp) -> bool {
        let once = |col: fn(&(u64, u64, Complex64)) -> u64| {
            let mut seen = std::collections::HashSet::new();
            op.entries.iter().all(|e| seen.insert(col(e)))
        };
        once(|e| e.0) && once(|e| e.1)
    }

    /// Gate `SELECT`s under the default and Fig. 2c for a register of
    /// `n` qubits: a `GROUP BY` exactly when the table does not permute, and
    /// a pruning `HAVING` only with it; always a `GROUP BY` under Fig. 2c.
    fn assert_grouped_unless_permuting(op: &GateOp, n: usize) {
        let what = format!("{} on {:?} of {n}", op.table, op.qubits);
        let default = gate_select("T0", op, n, &SqlGenConfig::default());
        assert_eq!(default.contains(" GROUP BY "), !op.permutes, "{what}: {default}");
        let pruned = SqlGenConfig { prune_threshold: Some(1e-30), ..Default::default() };
        let pruned = gate_select("T0", op, n, &pruned);
        assert_eq!(pruned.contains(" HAVING "), !op.permutes, "{what}: {pruned}");
        let fig2c = gate_select("T0", op, n, &SqlGenConfig::FIG_2C);
        assert!(fig2c.contains(" GROUP BY "), "{what}: {fig2c}");
        for sql in [default, pruned, fig2c] {
            qymera_sqldb::parser::parse_statement(&sql).unwrap_or_else(|e| panic!("{what}: {e}\n{sql}"));
        }
    }

    /// The translator's permutation rule, read off the entries: for every
    /// gate kind on contiguous, descending and non-adjacent qubits, and for
    /// fused blocks, the flag is set exactly when each `in_s` and each
    /// `out_s` occurs once — for a single gate, exactly the kinds that send
    /// a basis state to one output — and it alone decides the `GROUP BY`.
    #[test]
    fn a_table_permutes_when_each_in_s_and_out_s_occurs_once() {
        use GateKind::*;
        let kinds = [
            I, X, Y, Z, H, S, Sdg, T, Tdg, SqrtX, Rx, Ry, Rz, Phase, U3, Cx, Cy, Cz, Ch, CPhase,
            CRx, CRy, CRz, Swap, Ccx, CSwap,
        ];
        let placements = [[0, 1, 2], [5, 4, 3], [0, 3, 7]];
        for kind in kinds {
            for at in placements {
                let params = (0..kind.param_count()).map(|k| 0.3 + 0.2 * k as f64).collect();
                let gate = Gate::new(kind, at[..kind.arity()].to_vec(), params);
                let op = GateTableRegistry::new().lower_gate(&gate);
                assert_eq!(op.permutes, each_once(&op), "{kind:?} on {at:?}");
                assert_eq!(op.permutes, kind.is_permutation_like(), "{kind:?} on {at:?}");
                for n in [8, 70] {
                    assert_grouped_unless_permuting(&op, n);
                }
            }
        }
        // Fused blocks (from the one-row `T0` a block grows only inside its
        // first gate's qubits): a CX ladder permutes, CX·RY does not, and a
        // CSWAP (no closed form) joins without a `GROUP BY` on its own.
        let fused = |c: &qymera_circuit::QuantumCircuit| {
            crate::fusion::lower_circuit(c, &mut GateTableRegistry::new(), Some(6))
        };
        let ladder = qymera_circuit::CircuitBuilder::new(8).ccx(4, 1, 6).cx(1, 4).cx(4, 6).build();
        let mixing = qymera_circuit::CircuitBuilder::new(8).cx(0, 1).ry(0.4, 0).build();
        let cswap = qymera_circuit::CircuitBuilder::new(8).x(0).x(1).cswap(0, 1, 6).build();
        let (ladder, mixing, cswap) = (fused(&ladder), fused(&mixing), fused(&cswap));
        assert_eq!((ladder.len(), mixing.len()), (1, 1), "each fuses into one block");
        assert!(ladder[0].permutes && ladder[0].closed_form.is_none());
        assert!(!mixing[0].permutes);
        assert!(cswap[2].permutes && cswap[2].closed_form.is_none());
        for op in ladder.iter().chain(&mixing).chain(&cswap) {
            assert_eq!(op.permutes, each_once(op), "{}", op.table);
            assert_grouped_unless_permuting(op, 8);
        }
    }

    #[test]
    fn what_has_no_closed_form_joins() {
        let mut reg = GateTableRegistry::new();
        // CSWAP's normal form reads the bits it swaps; H interferes.
        for g in [Gate::new(GateKind::CSwap, vec![0, 1, 2], vec![]), Gate::new(GateKind::H, vec![1], vec![])] {
            let op = reg.lower_gate(&g);
            assert!(op.closed_form.is_none());
            assert!(gate_select("T0", &op, 3, &SqlGenConfig::default()).contains(" JOIN "));
        }
        // A fused block joins its fresh table whatever it holds.
        let x = reg.lower_gate(&Gate::new(GateKind::X, vec![0], vec![]));
        let block = reg.register_custom("F", x.qubits.clone(), x.entries.clone());
        assert!(block.closed_form.is_none() && gate_select("T0", &block, 3, &SqlGenConfig::default()).contains(" JOIN "));
        // A HUGEINT index joins.
        assert!(gate_select("T0", &x, 70, &SqlGenConfig::default()).contains(" JOIN "));
        // No pruning: a projection cannot create a zero.
        let cfg = SqlGenConfig { prune_threshold: Some(1e-30), ..Default::default() };
        assert!(!gate_select("T0", &x, 3, &cfg).contains("HAVING"));
    }
}
