//! Bit-mask arithmetic for locating qubits inside the integer state index
//! (§2.2 of the paper, Table 1).
//!
//! For a gate on qubits `[q₀, …, q_{k−1}]` the generated SQL must:
//!
//! * extract the *local* input index `in_s = Σ bit(s, qⱼ) << j`
//!   (`(T0.s & 1)` and `((T2.s >> 1) & 3)` in Fig. 2c);
//! * clear those qubit bits (`T0.s & ~1`, `T2.s & ~6`);
//! * re-insert the gate's output bits (`| H.out_s`, `| (CX.out_s << 1)`).
//!
//! When the gate's qubits are contiguous ascending, the expressions reduce to
//! the exact shift-and-mask forms of the paper; arbitrary qubit tuples fall
//! back to per-bit extraction. Registers wider than 63 qubits switch to
//! `HUGEINT` hex literals, and `~mask` is emitted as a precomputed complement
//! (bitwise NOT needs an explicit width on arbitrary-precision integers).

use std::fmt::{self, Display};

use qymera_sqldb::BigBits;

/// How basis-state integers are represented in SQL.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum StateEncoding {
    /// `INTEGER` (i64) — up to 63 qubits; the paper's setting.
    #[default]
    Int,
    /// `HUGEINT` with hex literals — arbitrary widths (sparse experiment).
    Huge,
}

impl StateEncoding {
    /// Pick the narrowest encoding for an `n`-qubit register.
    pub fn for_qubits(n: usize) -> StateEncoding {
        if n <= 63 {
            StateEncoding::Int
        } else {
            StateEncoding::Huge
        }
    }

    /// SQL column type name for the `s` column (and a gate table's `in_s`
    /// and `out_s`).
    pub fn sql_type(&self) -> &'static str {
        match self {
            StateEncoding::Int => "INTEGER",
            StateEncoding::Huge => "HUGEINT",
        }
    }
}

/// Mask expressions for one gate application. Each is a [`Display`] value
/// written straight into the caller's SQL text: no intermediate `String`.
#[derive(Debug, Clone, PartialEq)]
pub struct GateMasks<'q> {
    qubits: &'q [usize],
    num_qubits: usize,
    encoding: StateEncoding,
}

impl<'q> GateMasks<'q> {
    /// Masks for a gate acting on `qubits` of an `num_qubits`-wide register.
    pub fn new(qubits: &'q [usize], num_qubits: usize) -> Self {
        assert!(!qubits.is_empty());
        assert!(qubits.iter().all(|&q| q < num_qubits));
        GateMasks { qubits, num_qubits, encoding: StateEncoding::for_qubits(num_qubits) }
    }

    /// The index encoding (native `INTEGER` vs `HUGEINT`) this register needs.
    pub fn encoding(&self) -> StateEncoding {
        self.encoding
    }

    /// True if qubits are `q₀, q₀+1, …` in ascending order.
    fn contiguous_ascending(&self) -> bool {
        self.qubits.windows(2).all(|w| w[1] == w[0] + 1)
    }

    /// Σ 1 << qⱼ — the bits this gate touches.
    fn touched_mask_u64(&self) -> u64 {
        self.qubits.iter().fold(0u64, |m, &q| m | (1u64 << q.min(63)))
    }

    /// The *input-extraction* expression: the local index of the gate's
    /// qubits inside `{t}.s` (e.g. `(T0.s & 1)`, `((T2.s >> 1) & 3)`).
    pub fn in_expr<'a>(&'a self, t: &'a str) -> impl Display + 'a {
        fmt::from_fn(move |f| {
            if self.contiguous_ascending() {
                match self.qubits[0] {
                    0 => write!(f, "({t}.s & ")?,
                    q0 => write!(f, "(({t}.s >> {q0}) & ")?,
                }
                let mask = (1u64 << self.qubits.len()) - 1;
                return match self.encoding {
                    StateEncoding::Int => write!(f, "{mask})"),
                    StateEncoding::Huge => write!(f, "0x{mask:x})"),
                };
            }
            // Per-bit extraction: (((s >> qj) & 1) << j) OR-ed together.
            f.write_str("(")?;
            for (j, &q) in self.qubits.iter().enumerate() {
                if j > 0 {
                    f.write_str(" | (")?;
                }
                match q {
                    0 => write!(f, "({t}.s & 1)")?,
                    _ => write!(f, "(({t}.s >> {q}) & 1)")?,
                }
                if j > 0 {
                    write!(f, " << {j})")?;
                }
            }
            f.write_str(")")
        })
    }

    /// The *bit-clearing* expression `({t}.s & ~mask)` — for `HUGEINT`, the
    /// complement is precomputed into a hex literal of the register's width.
    pub fn clear_expr<'a>(&'a self, t: &'a str) -> impl Display + 'a {
        fmt::from_fn(move |f| match self.encoding {
            StateEncoding::Int => write!(f, "({t}.s & ~{})", self.touched_mask_u64()),
            StateEncoding::Huge => {
                let mut mask = BigBits::zero(self.num_qubits);
                for &q in self.qubits {
                    mask.set_bit(q, true);
                }
                write!(f, "({t}.s & 0x{})", mask.not().to_hex())
            }
        })
    }

    /// The *output-placement* expression for the gate table's `out_s`
    /// (e.g. `H.out_s`, `(CX.out_s << 1)`).
    pub fn out_expr<'a>(&'a self, g: &'a str) -> impl Display + 'a {
        self.place_expr(fmt::from_fn(move |f| write!(f, "{g}.out_s")))
    }

    /// Like [`Self::out_expr`] but placing any local index `v` (a gate-table
    /// column, or an expression over them) at this gate's qubit positions.
    fn place_expr<'a>(&'a self, v: impl Display + 'a) -> impl Display + 'a {
        fmt::from_fn(move |f| {
            if self.contiguous_ascending() {
                return match self.qubits[0] {
                    0 => write!(f, "{v}"),
                    q0 => write!(f, "({v} << {q0})"),
                };
            }
            f.write_str("(")?;
            for (j, &q) in self.qubits.iter().enumerate() {
                if j > 0 {
                    f.write_str(" | ")?;
                }
                if q != 0 {
                    f.write_str("(")?;
                }
                match j {
                    0 => write!(f, "({v} & 1)")?,
                    _ => write!(f, "(({v} >> {j}) & 1)")?,
                }
                if q != 0 {
                    write!(f, " << {q})")?;
                }
            }
            f.write_str(")")
        })
    }

    /// The full new-state expression.
    ///
    /// * `INTEGER` encoding: `((T.s & ~mask) | out)` — Fig. 2c verbatim.
    /// * `HUGEINT` encoding: `(T.s ^ placed(in_s ^ out_s))` — the join
    ///   guarantees `placed(in_s)` equals the touched bits of `s`, so XOR
    ///   clears then re-inserts them *without* an n-bit complement-mask
    ///   literal, and placement is linear over XOR, so it runs once. This
    ///   keeps generated SQL O(1) in the register width, which is what makes
    ///   the paper's thousands-of-qubits sparse experiment practical to drive
    ///   through SQL text. `in_s` and `out_s` are `HUGEINT` columns there
    ///   ([`crate::tables::GateTableRegistry::materialize`]), so every
    ///   operand has the state's type.
    pub fn new_state_expr<'a>(&'a self, t: &'a str, g: &'a str) -> impl Display + 'a {
        fmt::from_fn(move |f| match self.encoding {
            StateEncoding::Int => write!(f, "({} | {})", self.clear_expr(t), self.out_expr(g)),
            StateEncoding::Huge => {
                let local = fmt::from_fn(move |f| write!(f, "({g}.in_s ^ {g}.out_s)"));
                write!(f, "({t}.s ^ {})", self.place_expr(local))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_q1_h_on_qubit0() {
        let m = GateMasks::new(&[0], 3);
        assert_eq!(m.in_expr("T0").to_string(), "(T0.s & 1)");
        assert_eq!(m.new_state_expr("T0", "H").to_string(), "((T0.s & ~1) | H.out_s)");
    }

    #[test]
    fn fig2_q2_cx_on_01() {
        let m = GateMasks::new(&[0, 1], 3);
        assert_eq!(m.in_expr("T1").to_string(), "(T1.s & 3)");
        assert_eq!(m.new_state_expr("T1", "CX").to_string(), "((T1.s & ~3) | CX.out_s)");
    }

    #[test]
    fn fig2_q3_cx_on_12() {
        let m = GateMasks::new(&[1, 2], 3);
        assert_eq!(m.in_expr("T2").to_string(), "((T2.s >> 1) & 3)");
        assert_eq!(
            m.new_state_expr("T2", "CX").to_string(),
            "((T2.s & ~6) | (CX.out_s << 1))"
        );
    }

    #[test]
    fn non_contiguous_qubits() {
        // CX with control 2, target 0 (listed [2, 0]): not contiguous.
        let m = GateMasks::new(&[2, 0], 4);
        let e = m.in_expr("T").to_string();
        assert!(e.contains("(T.s >> 2) & 1"), "{e}");
        assert!(e.contains("(T.s & 1) << 1"), "{e}");
        let o = m.out_expr("G").to_string();
        assert!(o.contains("(G.out_s & 1) << 2"), "{o}");
        assert_eq!(m.clear_expr("T").to_string(), "(T.s & ~5)");
    }

    #[test]
    fn descending_pair_is_non_contiguous() {
        let m = GateMasks::new(&[1, 0], 3);
        // [1, 0] must NOT be treated as contiguous-ascending.
        assert!(m.in_expr("T").to_string().contains("|"));
    }

    #[test]
    fn huge_encoding_uses_hex_complements() {
        let m = GateMasks::new(&[0], 100);
        assert_eq!(m.encoding(), StateEncoding::Huge);
        let c = m.clear_expr("T").to_string();
        assert!(c.starts_with("(T.s & 0x"), "{c}");
        // complement of bit 0 over 100 bits: ...fffe (25 hex digits)
        assert!(c.contains("fffe"), "{c}");
        assert_eq!(m.in_expr("T").to_string(), "(T.s & 0x1)");
    }

    #[test]
    fn huge_new_state_uses_xor_form() {
        // Wide registers avoid O(n)-sized complement literals entirely, and
        // the placement runs once, over `in_s ^ out_s`.
        let m = GateMasks::new(&[70, 71], 100_000);
        let e = m.new_state_expr("T", "G").to_string();
        assert_eq!(e, "(T.s ^ ((G.in_s ^ G.out_s) << 70))");
        assert!(e.len() < 64, "expression must be O(1) in register width");
        let m0 = GateMasks::new(&[0], 100_000);
        assert_eq!(m0.new_state_expr("T", "H").to_string(), "(T.s ^ (H.in_s ^ H.out_s))");
        let split = GateMasks::new(&[69, 1], 70);
        assert_eq!(
            split.new_state_expr("T", "CX").to_string(),
            "(T.s ^ ((((CX.in_s ^ CX.out_s) & 1) << 69) | ((((CX.in_s ^ CX.out_s) >> 1) & 1) << 1)))"
        );
    }

    #[test]
    fn huge_high_qubit_shift() {
        let m = GateMasks::new(&[70, 71], 100);
        assert_eq!(m.in_expr("T").to_string(), "((T.s >> 70) & 0x3)");
        assert_eq!(m.out_expr("G").to_string(), "(G.out_s << 70)");
    }

    #[test]
    fn encoding_selection_boundary() {
        assert_eq!(StateEncoding::for_qubits(63), StateEncoding::Int);
        assert_eq!(StateEncoding::for_qubits(64), StateEncoding::Huge);
        assert_eq!(StateEncoding::Int.sql_type(), "INTEGER");
        assert_eq!(StateEncoding::Huge.sql_type(), "HUGEINT");
    }

    #[test]
    fn three_qubit_contiguous() {
        let m = GateMasks::new(&[2, 3, 4], 8);
        assert_eq!(m.in_expr("T").to_string(), "((T.s >> 2) & 7)");
        assert_eq!(m.clear_expr("T").to_string(), "(T.s & ~28)");
        assert_eq!(m.out_expr("G").to_string(), "(G.out_s << 2)");
    }
}
