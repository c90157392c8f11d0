//! Gate fusion — §3.2 "Query Optimization: consecutive gates are fused into
//! single SQL query where possible, minimizing intermediate results".
//!
//! Every op is one join + aggregate pass, and the optimizer streams the
//! aggregate of a partial permutation (one nonzero per column) but builds a
//! group table for a gate that can interfere. So a gate joins the open block
//! if the union has at most `max_fused_qubits` qubits and **(a)** its qubits
//! are in the block, and the block holds no interfering gate yet or the gate
//! is a partial permutation; or **(b)** block and gate are both partial
//! permutations and `2^|union|` is at most the support bound of the state
//! there: the product of the gates' column fan-outs since the one-row `T0`,
//! capped at `2^n`. A block holds at most one interfering gate, so fusion
//! never adds a table-building aggregate. Blocks compose sparsely; a block of
//! one gate (which may be wider than the cap) keeps its canonical table, a
//! wider one lists its qubits in ascending order. ARCHITECTURE.md ("Fusion:
//! fewer passes, never more group tables") gives the reasons and measurements.

use std::collections::BTreeMap;

use qymera_circuit::{gate_table_entries, Complex64, Gate, QuantumCircuit};

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

/// The open block: ascending qubits, per input column a map `out_s → amp`,
/// its gate while it has only one, and whether it holds an interfering gate.
struct Block {
    qubits: Vec<usize>,
    columns: Vec<BTreeMap<u64, Complex64>>,
    single: Option<Gate>,
    interferes: bool,
}

impl Block {
    fn new(g: &Gate, table: &[(u64, u64, Complex64)]) -> Self {
        let identity = vec![BTreeMap::from([(0, Complex64::ONE)])];
        let mut b = Block { qubits: vec![], columns: identity, single: None, interferes: false };
        b.absorb(g, table);
        b.single = Some(g.clone());
        b
    }

    fn admits(&self, g: &Gate, max_qubits: usize, support: u64) -> bool {
        let permutes = g.kind.is_permutation_like();
        let added = g.qubits.iter().filter(|q| !self.qubits.contains(q)).count();
        let width = self.qubits.len() + added;
        match added {
            _ if width > max_qubits => false,
            0 => !self.interferes || permutes,                                        // (a)
            _ => !self.interferes && permutes && width < 64 && 1 << width <= support, // (b)
        }
    }

    /// Multiply `g`, whose relational table is `table`, onto the block.
    fn absorb(&mut self, g: &Gate, table: &[(u64, u64, Complex64)]) {
        let mut union = self.qubits.clone();
        union.extend(g.qubits.iter().filter(|q| !self.qubits.contains(q)));
        union.sort_unstable();
        let at = |q: &usize| union.binary_search(q).expect("the union holds every qubit");
        // Widen to the union: identity on the new qubits, whose bits pass through.
        let old: Vec<usize> = self.qubits.iter().map(at).collect();
        let new_bits = !scatter(u64::MAX, &old);
        self.columns = (0..1u64 << union.len())
            .map(|c| {
                let column = &self.columns[gather(c, &old) as usize];
                column.iter().map(|(&o, &a)| (scatter(o, &old) | (c & new_bits), a)).collect()
            })
            .collect();
        let pos: Vec<usize> = g.qubits.iter().map(at).collect();
        let touched = scatter(u64::MAX, &pos);
        for column in &mut self.columns {
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
        self.qubits = union;
        self.single = None;
        self.interferes |= !g.kind.is_permutation_like();
    }

    fn lower(self, reg: &mut GateTableRegistry) -> GateOp {
        if let Some(g) = self.single {
            return reg.lower_gate(&g);
        }
        let tol2 = GATE_AMPLITUDE_TOL * GATE_AMPLITUDE_TOL;
        let entries = (0..).zip(self.columns).flat_map(|(in_s, column)| {
            let kept = column.into_iter().filter(move |(_, a)| a.norm_sqr() > tol2);
            kept.map(move |(out_s, a)| (in_s, out_s, a))
        });
        reg.register_custom("F", self.qubits, entries.collect())
    }
}

/// Lower a circuit run on a basis state to gate operations, fused under the
/// rule above (`max_fused_qubits: None`: one op per gate).
pub fn lower_circuit(
    circuit: &QuantumCircuit,
    reg: &mut GateTableRegistry,
    max_fused_qubits: Option<usize>,
) -> Vec<GateOp> {
    let Some(max_qubits) = max_fused_qubits else {
        return circuit.gates().iter().map(|g| reg.lower_gate(g)).collect();
    };
    let cap = if circuit.num_qubits < 64 { 1u64 << circuit.num_qubits } else { u64::MAX };
    let (mut support, mut ops, mut open) = (1u64, Vec::new(), None::<Block>);
    for g in circuit.gates() {
        let table = gate_table_entries(g, GATE_AMPLITUDE_TOL);
        match open.as_mut() {
            Some(block) if block.admits(g, max_qubits, support) => block.absorb(g, &table),
            _ => ops.extend(open.replace(Block::new(g, &table)).map(|b| b.lower(reg))),
        }
        // The gate's column fan-out: how far it can widen the state's support.
        let fan_out = table.chunk_by(|a, b| a.0 == b.0).map(|c| c.len() as u64).max();
        support = support.saturating_mul(fan_out.unwrap_or(1)).min(cap);
    }
    ops.extend(open.map(|b| b.lower(reg)));
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
            let mut block = Block::new(first, &gate_table_entries(first, GATE_AMPLITUDE_TOL));
            for g in gates {
                block.absorb(g, &gate_table_entries(g, GATE_AMPLITUDE_TOL));
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
    fn nothing_fuses_on_ghz3_or_the_parity_check() {
        // The support stays below every union's 2^k: Fig. 2c verbatim.
        let input: Vec<bool> = (0..46).map(|q| q % 2 == 0 || q % 7 == 3).collect();
        for c in [library::ghz(3), library::parity_check(&input)] {
            assert_eq!(lowered(&c, Some(MAX_FUSED_QUBITS)), lowered(&c, None), "{}", c.name);
        }
    }

    #[test]
    fn one_ansatz_layer_lowers_to_17_ops() {
        let ansatz = library::hardware_efficient_ansatz(14, 1);
        let angles: Vec<f64> = (0..ansatz.symbols().len()).map(|k| 0.3 + 0.07 * k as f64).collect();
        let c = ansatz.bind_values(&angles).unwrap();
        let (ops, tables) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!(ops.len(), 17);
        for (q, op) in ops[..14].iter().enumerate() {
            assert_eq!(op.qubits, vec![q], "RY·RZ on qubit {q}");
            assert_eq!(op.entries.len(), 4, "one RY's fan-out");
        }
        let cx: Vec<Vec<usize>> = ops[14..].iter().map(|op| op.qubits.clone()).collect();
        assert_eq!(cx, vec![(0..=5).collect::<Vec<_>>(), (5..=10).collect(), (10..=13).collect()]);
        assert_eq!(tables.len(), 17, "one fresh table per block");
    }

    #[test]
    fn a_block_holds_at_most_one_interfering_gate() {
        // H·Z·H on one qubit: the second H starts a block of its own.
        let c = CircuitBuilder::new(1).h(0).z(0).h(0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].table, "H");
        // A permutation on the block's qubits joins an interfering block;
        // one on a new qubit does not, however large the support.
        let c = CircuitBuilder::new(3).h_all().h(0).x(0).cx(1, 0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        let qubits: Vec<Vec<usize>> = ops.iter().map(|op| op.qubits.clone()).collect();
        assert_eq!(qubits, vec![vec![0], vec![1], vec![2], vec![0], vec![1, 0]]);
        assert!(ops[3].table.starts_with("F_") && ops[4].table == "CX");
    }

    #[test]
    fn permutation_runs_fuse_up_to_the_width_and_the_support() {
        // Eight Hadamards make a 256-row state; then a CX ladder over 8 qubits.
        let mut b = CircuitBuilder::new(8).h_all();
        for q in 0..7 {
            b = b.cx(q, q + 1);
        }
        let c = b.build();
        let widths = |fusion| lowered(&c, fusion).0.iter().map(|op| op.qubits.len()).collect::<Vec<_>>();
        assert_eq!(widths(Some(6))[8..], [6, 3]);
        assert_eq!(widths(Some(3))[8..], [3, 3, 3, 2]);
        assert_eq!(widths(Some(1))[8..], [2; 7], "a CX wider than the cap stays alone");
        assert_eq!(widths(None).len(), 15);
        // After two Hadamards the state has 4 rows: blocks stop at 2 qubits.
        let c = CircuitBuilder::new(4).h(0).h(1).cx(0, 1).cx(1, 2).cx(2, 3).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!(ops.len(), 5, "{ops:?}");
    }

    #[test]
    fn single_gate_blocks_keep_canonical_tables_and_order() {
        let c = CircuitBuilder::new(4).h(3).cx(3, 0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!((ops[1].table.as_str(), ops[1].qubits.as_slice()), ("CX", &[3, 0][..]));
        // Two gates: ascending qubits, the table's bits remapped to match.
        let c = CircuitBuilder::new(4).h(3).h(0).cx(3, 0).z(0).build();
        let (ops, _) = lowered(&c, Some(MAX_FUSED_QUBITS));
        assert_eq!(ops[2].qubits, vec![0, 3]);
        let moves: Vec<(u64, u64)> = ops[2].entries.iter().map(|&(i, o, _)| (i, o)).collect();
        assert_eq!(moves, vec![(0, 0), (1, 1), (2, 3), (3, 2)], "control is bit 1 now");
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
        let c = library::qft(13);
        let (ops, tables) = lowered(&c, Some(MAX_FUSED_QUBITS));
        let fused = ops.iter().filter(|op| op.table.starts_with("F_")).count();
        let named = tables.iter().filter(|(name, _)| name.starts_with("F_")).count();
        assert_eq!((c.gate_count(), ops.len(), fused), (97, 52, 18));
        assert_eq!(named, fused, "every block registers a table of its own");
    }
}
