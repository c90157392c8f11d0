//! Gate fusion — §3.2 "Query Optimization: consecutive gates are fused into
//! single SQL query where possible, minimizing intermediate results".
//!
//! Every op is one pass: a block of partial permutations (one nonzero per
//! column, [`crate::tables::permutes`]) joins its table without a `GROUP
//! BY`, a block holding a gate that can interfere groups the join in a hash
//! table. Scanning the circuit once, a gate joins the open block if the
//! union has at most `max_fused_qubits` qubits and
//! - **(a)** its qubits are in the block, and the block holds no
//!   interfering gate yet or the gate is a partial permutation; or
//! - **(b)** block and gate are both partial permutations and `2^|union|` is
//!   at most the support bound of the state there: the product of the
//!   gates' column fan-outs since the one-row `T0`, capped at `2^n`; or
//! - **(c)** block and gate both interfere, and the fused op costs no more
//!   than the two it replaces. An op's cost is the rows its join yields —
//!   the support bound where it starts times its largest reachable column —
//!   plus its table's entries.
//!
//! A qubit is **known** where it holds one value in every row of the state
//! ([`KnownQubits`], tracked from `T0` = |0…0⟩). A block composes only the
//! `in_s` columns that agree with the qubits known where it starts: the
//! state has no row to join the others. So a block that widens a state
//! from one row composes one column, not `2^k`, and (c) fuses an ansatz
//! layer's rotations into a few blocks while two Hadamards on a dense
//! state stay apart. Fusion never adds a group table. Blocks compose
//! sparsely; a block of one gate (which may be wider than the cap) keeps
//! its canonical table, a wider one lists its qubits in ascending order.
//! ARCHITECTURE.md ("Fusion: fewer passes, never more group tables") gives
//! the reasons and measurements.

use std::collections::BTreeMap;

use qymera_circuit::{gate_table_entries, Complex64, Gate, QuantumCircuit};

use crate::masks::StateEncoding;
use crate::tables::{GateOp, GateTableRegistry, GATE_AMPLITUDE_TOL};

/// The default and widest block: a k-qubit block table has 2^k `in_s` keys,
/// and the engine joins through its direct index only while every key is
/// below 64.
pub const MAX_FUSED_QUBITS: usize = 6;

/// Σ bit(x, pos[j]) << j — the local index of `x` over the bit positions `pos`.
fn gather(x: u64, pos: &[usize]) -> u64 {
    pos.iter().enumerate().fold(0, |acc, (j, &p)| acc | (((x >> p) & 1) << j))
}

/// Σ bit(x, j) << pos[j] — the inverse of [`gather`].
fn scatter(x: u64, pos: &[usize]) -> u64 {
    pos.iter().enumerate().fold(0, |acc, (j, &p)| acc | (((x >> j) & 1) << p))
}

/// Whether a gate's table is a partial permutation: no `in_s` and no
/// `out_s` occurs twice, the rule [`crate::tables::permutes`] applies to
/// the table the SQL joins, so fusion and the SQL agree at special angles
/// (`RY(π)` permutes). A gate's keys are below 64, so two bit masks do
/// without an allocation.
fn permutes(table: &[(u64, u64, Complex64)]) -> bool {
    let (mut ins, mut outs) = (0u64, 0u64);
    table.iter().all(|&(i, o, _)| {
        let fresh = (ins >> i) & 1 == 0 && (outs >> o) & 1 == 0;
        (ins, outs) = (ins | 1 << i, outs | 1 << o);
        fresh
    })
}

/// The qubits that hold one value in every row of a state: bit q of `mask`
/// is set where qubit q is known, and bit q of `ones` is then its value.
/// Zero-amplitude rows count, so it holds whether or not the SQL prunes.
/// Past 63 qubits nothing is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownQubits {
    /// The known qubits.
    pub mask: u64,
    /// The values of the known qubits (a subset of `mask`).
    pub ones: u64,
}

impl KnownQubits {
    /// `T0` = |0…0⟩ on `num_qubits` qubits: every qubit known, at 0.
    pub fn start(num_qubits: usize) -> Self {
        let mask = if num_qubits < 64 { (1u64 << num_qubits) - 1 } else { 0 };
        KnownQubits { mask, ones: 0 }
    }

    /// `(mask, ones)` over the bit positions `qubits`, local bit j for
    /// `qubits[j]`. With nothing known, positions past 63 are never read.
    fn local(&self, qubits: &[usize]) -> (u64, u64) {
        if self.mask == 0 {
            return (0, 0);
        }
        (gather(self.mask, qubits), gather(self.ones, qubits))
    }

    /// Update across a gate on `qubits` whose tolerance-filtered table (the
    /// one the SQL joins) is `table`: a qubit of the gate is known after it
    /// where every entry of a column that agrees with what is known before
    /// sets it alike. No allocation.
    pub fn apply(&mut self, qubits: &[usize], table: &[(u64, u64, Complex64)]) {
        // A unitary's table holds every `out_s`, so with every column
        // reachable no qubit becomes known.
        if self.mask == 0 {
            return;
        }
        let (mask, ones) = self.local(qubits);
        let (mut all, mut any) = (u64::MAX, 0u64);
        for &(_, out_s, _) in table.iter().filter(|e| (e.0 ^ ones) & mask == 0) {
            (all, any) = (all & out_s, any | out_s);
        }
        let same = !(all ^ any) & ((1 << qubits.len()) - 1);
        let touched = scatter(u64::MAX, qubits);
        self.mask = (self.mask & !touched) | scatter(same, qubits);
        self.ones = (self.ones & !touched) | scatter(all & same, qubits);
    }
}

/// The known qubits after each gate of `circuit`, run on `T0` = |0…0⟩, as
/// [`lower_circuit`] tracks them.
pub fn known_after_each_gate(circuit: &QuantumCircuit) -> Vec<KnownQubits> {
    let mut known = KnownQubits::start(circuit.num_qubits);
    let after = |g: &Gate| {
        known.apply(&g.qubits, &gate_table_entries(g, GATE_AMPLITUDE_TOL));
        known
    };
    circuit.gates().iter().map(after).collect()
}

/// An op's cost in the rule's terms: the rows its join yields from a state
/// of `support` rows, where a row meets at most `fan_out` entries, plus the
/// `entries` of its table.
fn cost(support: u64, fan_out: u64, entries: u64) -> u64 {
    support.saturating_mul(fan_out).saturating_add(entries)
}

/// Where a gate or an op meets the state: its support bound and known
/// qubits.
#[derive(Clone, Copy)]
struct At {
    support: u64,
    known: KnownQubits,
}

/// The [`cost`] of joining a gate's table (sorted by `in_s`) where the
/// state is `at`.
fn gate_cost(qubits: &[usize], table: &[(u64, u64, Complex64)], at: At) -> u64 {
    let (mask, ones) = at.known.local(qubits);
    let columns = table.chunk_by(|a, b| a.0 == b.0).filter(|c| (c[0].0 ^ ones) & mask == 0);
    let fan_out = columns.map(|c| c.len() as u64).max().unwrap_or(0);
    cost(at.support, fan_out, table.len() as u64)
}

/// A block of two gates or more: ascending qubits, where it starts, per
/// input column a map `out_s → amp` (empty where the column disagrees with
/// the qubits known there), and whether it holds an interfering gate.
struct Block {
    qubits: Vec<usize>,
    start: At,
    columns: Vec<BTreeMap<u64, Complex64>>,
    interferes: bool,
}

impl Block {
    /// `g`, whose relational table is `table`, as a block starting at `start`.
    fn new(g: &Gate, table: &[(u64, u64, Complex64)], start: At) -> Self {
        let identity = vec![BTreeMap::from([(0, Complex64::ONE)])];
        Block { qubits: vec![], start, columns: identity, interferes: false }.absorb(g, table)
    }

    /// The block times `g`, whose relational table is `table`.
    fn absorb(&self, g: &Gate, table: &[(u64, u64, Complex64)]) -> Block {
        let mut union = self.qubits.clone();
        union.extend(g.qubits.iter().filter(|q| !self.qubits.contains(q)));
        union.sort_unstable();
        let at = |q: &usize| union.binary_search(q).expect("the union holds every qubit");
        // Widen to the union: identity on the new qubits, whose bits pass
        // through, over the columns the state can reach.
        let old: Vec<usize> = self.qubits.iter().map(at).collect();
        let new_bits = !scatter(u64::MAX, &old);
        let (mask, ones) = self.start.known.local(&union);
        let mut columns: Vec<BTreeMap<u64, Complex64>> = (0..1u64 << union.len())
            .map(|c| match (c ^ ones) & mask {
                0 => self.columns[gather(c, &old) as usize]
                    .iter()
                    .map(|(&o, &a)| (scatter(o, &old) | (c & new_bits), a))
                    .collect(),
                _ => BTreeMap::new(),
            })
            .collect();
        let pos: Vec<usize> = g.qubits.iter().map(at).collect();
        let touched = scatter(u64::MAX, &pos);
        for column in &mut columns {
            let mut next = BTreeMap::new();
            for (&o, &a) in column.iter() {
                let local = gather(o, &pos);
                for &(_, out, amp) in table.iter().filter(|e| e.0 == local) {
                    let s = (o & !touched) | scatter(out, &pos);
                    *next.entry(s).or_insert(Complex64::ZERO) += a * amp;
                }
            }
            *column = next;
        }
        let interferes = self.interferes || !permutes(table);
        Block { qubits: union, start: self.start, columns, interferes }
    }

    /// Per column the entries the table keeps.
    fn kept(column: &BTreeMap<u64, Complex64>) -> impl Iterator<Item = (&u64, &Complex64)> {
        let tol2 = GATE_AMPLITUDE_TOL * GATE_AMPLITUDE_TOL;
        column.iter().filter(move |(_, a)| a.norm_sqr() > tol2)
    }

    /// The [`cost`] of joining the block's table where it starts.
    fn cost(&self) -> u64 {
        let lens = self.columns.iter().map(|c| Self::kept(c).count() as u64);
        let (fan_out, entries) = lens.fold((0, 0), |(f, e), n| (f.max(n), e + n));
        cost(self.start.support, fan_out, entries)
    }

    fn lower(self, reg: &mut GateTableRegistry) -> GateOp {
        let entries = (0..).zip(&self.columns).flat_map(|(in_s, column)| {
            Self::kept(column).map(move |(&out_s, &a)| (in_s, out_s, a))
        });
        let entries = entries.collect();
        reg.register_custom("F", self.qubits, entries)
    }
}

/// The op being built: a lone gate with its table and where it starts,
/// which lowers to the gate's own (shared, canonical) table, until a second
/// gate joins it and makes it a [`Block`]. Most gates stay alone, so only a
/// fusion pays for composing tables.
enum Open<'c> {
    Lone(&'c Gate, Vec<(u64, u64, Complex64)>, At),
    Block(Block),
}

impl<'c> Open<'c> {
    /// The op with `g` fused on, if the rule admits it, or the op as it
    /// was; `g` meets the state at `here`.
    fn fuse(
        self,
        g: &Gate,
        table: &[(u64, u64, Complex64)],
        here: At,
        max_qubits: usize,
    ) -> Result<Open<'c>, Open<'c>> {
        let (qubits, interferes) = match &self {
            Open::Lone(first, table, _) => (&first.qubits, !permutes(table)),
            Open::Block(b) => (&b.qubits, b.interferes),
        };
        let permutes = permutes(table);
        let width = qubits.len() + g.qubits.iter().filter(|q| !qubits.contains(q)).count();
        let by_rule = match width - qubits.len() {
            _ if width > max_qubits => return Err(self),
            0 => !interferes || permutes,                                        // (a)
            _ => !interferes && permutes && width < 64 && 1 << width <= here.support, // (b)
        };
        let by_cost = interferes && !permutes;                                   // (c)
        if !by_rule && !by_cost {
            return Err(self);
        }
        let fused = match &self {
            Open::Lone(first, first_table, start) => {
                Block::new(first, first_table, *start).absorb(g, table)
            }
            Open::Block(block) => block.absorb(g, table),
        };
        if by_rule {
            return Ok(Open::Block(fused));
        }
        let open = match &self {
            Open::Lone(first, first_table, start) => gate_cost(&first.qubits, first_table, *start),
            Open::Block(block) => block.cost(),
        };
        if fused.cost() <= open.saturating_add(gate_cost(&g.qubits, table, here)) {
            Ok(Open::Block(fused))
        } else {
            Err(self)
        }
    }

    fn lower(self, reg: &mut GateTableRegistry) -> GateOp {
        match self {
            Open::Lone(g, table, _) => reg.lower_gate_with(g, || table),
            Open::Block(block) => block.lower(reg),
        }
    }
}

/// Lower a circuit run on `T0` = |0…0⟩ — the start state of every caller:
/// fusion reads the qubits it leaves known — to gate operations, fused
/// under the rule above (`max_fused_qubits: None`: one op per gate). A
/// register past 63 qubits (a `HUGEINT` index) joins every gate, whose
/// table holds `HUGEINT` indices: the closed forms of [`crate::sqlgen`] are
/// `INTEGER` arithmetic.
pub fn lower_circuit(
    circuit: &QuantumCircuit,
    reg: &mut GateTableRegistry,
    max_fused_qubits: Option<usize>,
) -> Vec<GateOp> {
    reg.encoding = StateEncoding::for_qubits(circuit.num_qubits);
    if reg.encoding == StateEncoding::Huge {
        reg.join_every_gate = true;
    }
    let Some(max_qubits) = max_fused_qubits else {
        return circuit.gates().iter().map(|g| reg.lower_gate(g)).collect();
    };
    let cap = if circuit.num_qubits < 64 { 1u64 << circuit.num_qubits } else { u64::MAX };
    let mut here = At { support: 1, known: KnownQubits::start(circuit.num_qubits) };
    let (mut ops, mut open) = (Vec::new(), None::<Open>);
    for g in circuit.gates() {
        let table = gate_table_entries(g, GATE_AMPLITUDE_TOL);
        let at = here;
        // The gate's column fan-out: how far it can widen the state's support.
        let fan_out = table.chunk_by(|a, b| a.0 == b.0).map(|c| c.len() as u64).max();
        here.support = here.support.saturating_mul(fan_out.unwrap_or(1)).min(cap);
        here.known.apply(&g.qubits, &table);
        open = Some(match open.take().map(|op| op.fuse(g, &table, at, max_qubits)) {
            Some(Ok(fused)) => fused,
            closed => {
                ops.extend(closed.and_then(Result::err).map(|op| op.lower(reg)));
                Open::Lone(g, table, at)
            }
        });
    }
    ops.extend(open.map(|op| op.lower(reg)));
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::GateTable;
    use qymera_circuit::{library, CMatrix, CircuitBuilder, GateKind};

    /// Embed `m` (acting on `from`, local bit j = `from[j]`) into the qubit
    /// list `to` (⊇ `from`): a 2^|to| matrix, identity on `to ∖ from`. The
    /// dense reference the sparse composition is checked against.
    fn embed(m: &CMatrix, from: &[usize], to: &[usize]) -> CMatrix {
        let pos: Vec<usize> = from.iter().map(|q| to.iter().position(|t| t == q).unwrap()).collect();
        let dim = 1usize << to.len();
        let touched = scatter(u64::MAX, &pos) as usize;
        let mut out = CMatrix::zeros(dim, dim);
        for a in 0..dim {
            for b in (0..dim).filter(|b| b & !touched == a & !touched) {
                let (la, lb) = (gather(a as u64, &pos), gather(b as u64, &pos));
                out[(a, b)] = m[(la as usize, lb as usize)];
            }
        }
        out
    }

    /// A start where every column is reachable.
    const NOTHING: At = At { support: 1, known: KnownQubits { mask: 0, ones: 0 } };

    fn lowered(c: &QuantumCircuit, fusion: Option<usize>) -> (Vec<GateOp>, Vec<GateTable>) {
        let mut reg = GateTableRegistry::new();
        let ops = lower_circuit(c, &mut reg, fusion);
        (ops, reg.tables().to_vec())
    }

    #[test]
    fn sparse_composition_equals_the_dense_product() {
        for seed in 0..40 {
            let k = 3 + (seed as usize % 4);
            let mut c = library::random_circuit(k, 12, seed);
            c.push(Gate::new(GateKind::Ccx, vec![2, 0, 1], vec![])).unwrap();
            c.push(Gate::new(GateKind::CSwap, vec![k - 1, 1, 0], vec![])).unwrap();
            let mut gates = c.gates().iter();
            let first = gates.next().unwrap();
            let mut block = Block::new(first, &gate_table_entries(first, GATE_AMPLITUDE_TOL), NOTHING);
            for g in gates {
                block = block.absorb(g, &gate_table_entries(g, GATE_AMPLITUDE_TOL));
            }
            assert!(block.qubits.windows(2).all(|w| w[0] < w[1]), "ascending");
            let mut dense = CMatrix::identity(1 << block.qubits.len());
            for g in c.gates() {
                dense = embed(&g.matrix(), &g.qubits, &block.qubits).matmul(&dense);
            }
            let op = block.lower(&mut GateTableRegistry::new());
            let mut sparse = CMatrix::zeros(dense.rows(), dense.cols());
            for &(i, o, a) in &op.entries {
                sparse[(o as usize, i as usize)] = a;
            }
            assert!(sparse.approx_eq(&dense, 1e-12), "seed {seed}");
        }
    }

    #[test]
    fn a_block_composes_only_the_columns_the_state_can_reach() {
        // Over the reachable columns the block is the dense product; the
        // others are empty.
        for seed in 0..40u64 {
            let c = library::random_circuit(4, 10, seed);
            let known = KnownQubits { mask: seed % 16, ones: ((seed / 3) % 16) & (seed % 16) };
            let mut gates = c.gates().iter();
            let first = gates.next().unwrap();
            let start = At { support: 1, known };
            let mut block = Block::new(first, &gate_table_entries(first, GATE_AMPLITUDE_TOL), start);
            let mut full = Block::new(first, &gate_table_entries(first, GATE_AMPLITUDE_TOL), NOTHING);
            for g in gates {
                block = block.absorb(g, &gate_table_entries(g, GATE_AMPLITUDE_TOL));
                full = full.absorb(g, &gate_table_entries(g, GATE_AMPLITUDE_TOL));
            }
            assert_eq!(block.qubits, full.qubits);
            let (mask, ones) = known.local(&block.qubits);
            for (in_s, (got, want)) in (0u64..).zip(block.columns.iter().zip(&full.columns)) {
                let reachable = (in_s ^ ones) & mask == 0;
                assert_eq!(got.len(), if reachable { want.len() } else { 0 }, "seed {seed} column {in_s}");
                for ((o, a), (p, b)) in got.iter().zip(want) {
                    assert!(o == p && (*a - *b).abs() < 1e-12, "seed {seed} column {in_s}");
                }
            }
        }
    }

    #[test]
    fn nothing_fuses_on_ghz3_or_the_parity_check() {
        // The support stays below every union's 2^k: Fig. 2c verbatim.
        let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q % 7 == 3).collect();
        for c in [library::ghz(3), library::parity_check(&input)] {
            assert_eq!(lowered(&c, Some(MAX_FUSED_QUBITS)), lowered(&c, None), "{}", c.name);
        }
    }

    #[test]
    fn one_ansatz_layer_lowers_to_6_ops() {
        let ansatz = library::hardware_efficient_ansatz(14, 1);
        let angles: Vec<f64> = (0..ansatz.symbols().len()).map(|k| 0.3 + 0.07 * k as f64).collect();
        let c = ansatz.bind_values(&angles).unwrap();
        let (ops, tables) = lowered(&c, Some(MAX_FUSED_QUBITS));
        // The RY·RZ pairs fuse into blocks as wide as the cap. Each starts on
        // qubits still at 0, so its table is one column.
        let qubits: Vec<Vec<usize>> = ops.iter().map(|op| op.qubits.clone()).collect();
        let rotations = [(0..=5).collect::<Vec<_>>(), (6..=11).collect(), vec![12, 13]];
        assert_eq!(qubits[..3], rotations);
        for op in &ops[..3] {
            assert!(op.entries.iter().all(|e| e.0 == 0), "{}: one column", op.table);
            assert_eq!(op.entries.len(), 1 << op.qubits.len(), "{}: fan-out 2 per RY", op.table);
            assert!(!op.permutes);
        }
        assert_eq!(qubits[3..], [(0..=5).collect::<Vec<_>>(), (5..=10).collect(), (10..=13).collect()]);
        assert!(ops[3..].iter().all(|op| op.permutes), "the CX ladder");
        assert_eq!(tables.len(), 6, "one fresh table per block");
    }

    #[test]
    fn an_interfering_gate_joins_a_block_when_that_joins_fewer_rows() {
        // H·Z·H = X: one op, which permutes.
        let c = CircuitBuilder::new(1).h(0).z(0).h(0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!(ops.len(), 1, "{ops:?}");
        assert!(ops[0].permutes);
        // On qubits still at 0 Hadamards fuse: one column of 2^k rows.
        let c = CircuitBuilder::new(3).h_all().build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!((ops.len(), ops[0].entries.len()), (1, 8));
        // On a dense state two Hadamards on two qubits stay apart: one
        // block would join 4 rows per state row, two ops join 2 + 2. (The
        // 2-qubit cap closes the blocks that make the 16-row state.)
        let c = CircuitBuilder::new(4).h_all().h(0).h(1).build();
        let (ops, _) = lowered(&c, Some(2));
        let tables: Vec<&str> = ops.iter().map(|op| op.table.as_str()).collect();
        assert_eq!(tables[2..], ["H", "H"]);
        // A permutation on the block's qubits joins an interfering block;
        // one on a new qubit does not, however large the support.
        let c = CircuitBuilder::new(4).h_all().h(0).x(0).cx(1, 0).build();
        let (ops, _) = lowered(&c, Some(2));
        let qubits: Vec<Vec<usize>> = ops.iter().map(|op| op.qubits.clone()).collect();
        assert_eq!(qubits[2..], [vec![0], vec![1, 0]]);
        assert!(ops[2].table.starts_with("F_") && ops[3].table == "CX");
    }

    #[test]
    fn a_gate_permutes_by_its_table_not_its_kind() {
        // RY(π) is a permutation with phases, as the SQL reads its table:
        // the H after it joins its block.
        let c = CircuitBuilder::new(1).ry(std::f64::consts::PI, 0).h(0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!(ops.len(), 1, "{ops:?}");
        assert!(!ops[0].permutes);
        // On a 4-row state an RY(π) on a new qubit joins a lone X, under
        // (b), and a generic RY, which interferes, does not.
        for (theta, want) in [(std::f64::consts::PI, 2), (0.3, 3)] {
            let c = CircuitBuilder::new(4).h(2).h(3).x(1).ry(theta, 0).build();
            assert_eq!(lowered(&c, Some(MAX_FUSED_QUBITS)).0.len(), want, "RY({theta})");
        }
    }

    #[test]
    fn permutation_runs_fuse_up_to_the_width_and_the_support() {
        // Eight Hadamards make a 256-row state (fused as wide as the cap);
        // then a CX ladder over 8 qubits.
        let mut b = CircuitBuilder::new(8).h_all();
        for q in 0..7 {
            b = b.cx(q, q + 1);
        }
        let c = b.build();
        let widths = |fusion| lowered(&c, fusion).0.iter().map(|op| op.qubits.len()).collect::<Vec<_>>();
        assert_eq!(widths(Some(6)), [6, 2, 6, 3]);
        assert_eq!(widths(Some(3)), [3, 3, 2, 3, 3, 3, 2]);
        assert_eq!(widths(Some(1))[8..], [2; 7], "a CX wider than the cap stays alone");
        assert_eq!(widths(None).len(), 15);
        // After two Hadamards the state has 4 rows: the CX on the block's
        // qubits joins it, and the ladder stops at 2 qubits.
        let c = CircuitBuilder::new(4).h(0).h(1).cx(0, 1).cx(1, 2).cx(2, 3).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        let widths: Vec<usize> = ops.iter().map(|op| op.qubits.len()).collect();
        assert_eq!(widths, [2, 2, 2], "{ops:?}");
    }

    #[test]
    fn single_gate_blocks_keep_canonical_tables_and_order() {
        let c = CircuitBuilder::new(4).h(3).cx(3, 0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!((ops[1].table.as_str(), ops[1].qubits.as_slice()), ("CX", &[3, 0][..]));
        // Two gates: ascending qubits, the table's bits remapped to match.
        // The X closes the Hadamards' block, so the CX starts on a state
        // where qubits 0 and 3 are unknown: every column is reachable.
        let c = CircuitBuilder::new(4).h(3).h(0).x(1).cx(3, 0).z(0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!(ops[2].qubits, vec![0, 3]);
        let moves: Vec<(u64, u64)> = ops[2].entries.iter().map(|&(i, o, _)| (i, o)).collect();
        assert_eq!(moves, vec![(0, 0), (1, 1), (2, 3), (3, 2)], "control is bit 1 now");
    }

    #[test]
    fn known_qubits_follow_the_tables() {
        let known = |c: &QuantumCircuit| known_after_each_gate(c).last().map(|k| (k.mask, k.ones));
        // X sets a known 0 to 1; a CX whose control is known 1 flips its
        // target; RY(π) is X with a phase.
        let c = CircuitBuilder::new(3).x(0).cx(0, 2).build();
        assert_eq!(known(&c), Some((0b111, 0b101)));
        let c = CircuitBuilder::new(2).ry(std::f64::consts::PI, 1).build();
        assert_eq!(known(&c), Some((0b11, 0b10)));
        // H makes its qubit unknown, a CX then its target; a SWAP moves
        // what is known, and H·H leaves the qubit unknown (the table does
        // not say the amplitudes cancel).
        let c = CircuitBuilder::new(3).h(0).cx(0, 1).build();
        assert_eq!(known(&c), Some((0b100, 0)));
        let c = CircuitBuilder::new(3).h(0).x(2).swap(0, 2).build();
        assert_eq!(known(&c), Some((0b011, 0b001)));
        let c = CircuitBuilder::new(1).h(0).h(0).build();
        assert_eq!(known(&c), Some((0, 0)));
        // Past 63 qubits nothing is known.
        assert_eq!(known(&CircuitBuilder::new(70).x(0).build()), Some((0, 0)));
    }

    #[test]
    fn oversized_gate_passes_through() {
        let c = CircuitBuilder::new(3).ccx(0, 1, 2).h(0).build();
        let (ops, _) = lowered(&c, Some(2));
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].qubits.len(), 3, "CCX alone in its block");
        assert_eq!(lowered(&c, Some(3)).0.len(), 1, "H joins a 3-qubit block at N = 3");
    }

    #[test]
    fn qft13_fuses_its_ladders_into_fresh_tables() {
        // The last Hadamard ladder, on qubits still at 0, is one block.
        let c = library::qft(13);
        let (ops, tables) = lowered(&c, Some(MAX_FUSED_QUBITS));
        let fused = ops.iter().filter(|op| op.table.starts_with("F_")).count();
        let named = tables.iter().filter(|(name, _)| name.starts_with("F_")).count();
        assert_eq!((c.gate_count(), ops.len(), fused), (97, 48, 16));
        assert_eq!(named, fused, "every block registers a table of its own");
    }
}
