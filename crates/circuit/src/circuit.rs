//! The circuit intermediate representation: an ordered gate list over a
//! fixed qubit register, mirroring the paper's `QuantumCircuit` object
//! (Fig. 1: "Circuit Conversion — QuantumCircuit: gates, num_qubits").

use crate::gate::{Gate, GateKind};

/// An immutable-once-built quantum circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumCircuit {
    pub name: String,
    pub num_qubits: usize,
    gates: Vec<Gate>,
}

impl QuantumCircuit {
    /// An empty circuit on `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        QuantumCircuit { name: String::new(), num_qubits, gates: Vec::new() }
    }

    pub fn with_name(num_qubits: usize, name: &str) -> Self {
        QuantumCircuit { name: name.to_string(), num_qubits, gates: Vec::new() }
    }

    /// Append a gate after validating it against this register.
    pub fn push(&mut self, gate: Gate) -> Result<(), String> {
        gate.validate()?;
        if let Some(&q) = gate.qubits.iter().find(|&&q| q >= self.num_qubits) {
            return Err(format!(
                "gate `{}` uses qubit {q} but the circuit has {} qubits",
                gate.kind.name(),
                self.num_qubits
            ));
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Append, panicking on invalid gates (builder-internal use).
    pub(crate) fn push_unchecked(&mut self, gate: Gate) {
        self.push(gate).expect("invalid gate");
    }

    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Circuit depth: the number of layers under greedy ASAP scheduling.
    pub fn depth(&self) -> usize {
        let mut layer_of_qubit = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for g in &self.gates {
            let layer = g.qubits.iter().map(|&q| layer_of_qubit[q]).max().unwrap_or(0) + 1;
            for &q in &g.qubits {
                layer_of_qubit[q] = layer;
            }
            depth = depth.max(layer);
        }
        depth
    }

    /// Gate-count histogram by kind name.
    pub fn gate_histogram(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(GateKind, usize)> = Vec::new();
        for g in &self.gates {
            match counts.iter_mut().find(|(k, _)| *k == g.kind) {
                Some((_, n)) => *n += 1,
                None => counts.push((g.kind, 1)),
            }
        }
        counts.sort_by_key(|(k, _)| k.name());
        counts.into_iter().map(|(k, n)| (k.name(), n)).collect()
    }

    /// Count of two-or-more-qubit gates (a common hardware cost metric).
    pub fn multi_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.qubits.len() > 1).count()
    }

    /// Number of "branching" gates — gates whose matrix has ≥ 2 nonzero
    /// entries in some column, i.e. gates that can *increase* the number of
    /// nonzero amplitudes. A circuit with `b` branching gates produces at
    /// most `min(2^b · k₀, 2^n)` nonzero amplitudes from a `k₀`-sparse input;
    /// this is the estimator behind the paper's sparse-vs-dense distinction.
    pub fn branching_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.kind.is_permutation_like()).count()
    }

    /// Upper bound on nonzero amplitudes when run on `|0…0⟩`.
    pub fn sparsity_bound(&self) -> f64 {
        let b = self.branching_gate_count() as u32;
        let n = self.num_qubits as u32;
        // Each branching gate at most doubles the support (single-qubit
        // branching gates exactly double it in the worst case).
        2f64.powi(b.min(n) as i32)
    }

    /// Append all gates of `other` (registers must agree).
    pub fn append(&mut self, other: &QuantumCircuit) -> Result<(), String> {
        if other.num_qubits > self.num_qubits {
            return Err(format!(
                "cannot append a {}-qubit circuit to a {}-qubit circuit",
                other.num_qubits, self.num_qubits
            ));
        }
        for g in &other.gates {
            self.push(g.clone())?;
        }
        Ok(())
    }

    /// The adjoint circuit (gates reversed and daggered).
    pub fn inverse(&self) -> QuantumCircuit {
        let mut inv = QuantumCircuit::with_name(self.num_qubits, &format!("{}_dg", self.name));
        for g in self.gates.iter().rev() {
            inv.push_unchecked(g.dagger());
        }
        inv
    }

    /// `self` repeated `k` times.
    pub fn repeated(&self, k: usize) -> QuantumCircuit {
        let mut out = QuantumCircuit::with_name(self.num_qubits, &self.name);
        for _ in 0..k {
            out.gates.extend(self.gates.iter().cloned());
        }
        out
    }

    /// One-line summary for logs and reports.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} qubits, {} gates, depth {}, {} branching",
            if self.name.is_empty() { "circuit" } else { &self.name },
            self.num_qubits,
            self.gate_count(),
            self.depth(),
            self.branching_gate_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;

    fn ghz3() -> QuantumCircuit {
        let mut c = QuantumCircuit::with_name(3, "ghz");
        c.push(Gate::new(GateKind::H, vec![0], vec![])).unwrap();
        c.push(Gate::new(GateKind::Cx, vec![0, 1], vec![])).unwrap();
        c.push(Gate::new(GateKind::Cx, vec![1, 2], vec![])).unwrap();
        c
    }

    #[test]
    fn push_validates_range_and_shape() {
        let mut c = QuantumCircuit::new(2);
        assert!(c.push(Gate::new(GateKind::H, vec![5], vec![])).is_err());
        assert!(c.push(Gate::new(GateKind::Cx, vec![0, 0], vec![])).is_err());
        assert!(c.push(Gate::new(GateKind::Cx, vec![0, 1], vec![])).is_ok());
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn depth_layers_parallel_gates() {
        let mut c = QuantumCircuit::new(4);
        // H on all four qubits: depth 1 despite 4 gates.
        for q in 0..4 {
            c.push(Gate::new(GateKind::H, vec![q], vec![])).unwrap();
        }
        assert_eq!(c.depth(), 1);
        c.push(Gate::new(GateKind::Cx, vec![0, 1], vec![])).unwrap();
        assert_eq!(c.depth(), 2);
        assert_eq!(ghz3().depth(), 3, "GHZ chain is sequential");
    }

    #[test]
    fn histogram_and_counts() {
        let c = ghz3();
        let h = c.gate_histogram();
        assert_eq!(h, vec![("cx", 2), ("h", 1)]);
        assert_eq!(c.multi_qubit_gate_count(), 2);
    }

    #[test]
    fn branching_count_and_sparsity_bound() {
        let c = ghz3();
        assert_eq!(c.branching_gate_count(), 1, "only H branches");
        assert_eq!(c.sparsity_bound(), 2.0, "GHZ has 2 nonzero amplitudes");
        let mut dense = QuantumCircuit::new(3);
        for q in 0..3 {
            dense.push(Gate::new(GateKind::H, vec![q], vec![])).unwrap();
        }
        assert_eq!(dense.sparsity_bound(), 8.0);
    }

    #[test]
    fn inverse_reverses_and_daggers() {
        let mut c = QuantumCircuit::new(1);
        c.push(Gate::new(GateKind::S, vec![0], vec![])).unwrap();
        c.push(Gate::new(GateKind::T, vec![0], vec![])).unwrap();
        let inv = c.inverse();
        assert_eq!(inv.gates()[0].kind, GateKind::Tdg);
        assert_eq!(inv.gates()[1].kind, GateKind::Sdg);
    }

    #[test]
    fn append_and_repeat() {
        let mut c = ghz3();
        let more = ghz3();
        c.append(&more).unwrap();
        assert_eq!(c.gate_count(), 6);
        assert_eq!(ghz3().repeated(3).gate_count(), 9);
        let mut tiny = QuantumCircuit::new(1);
        assert!(tiny.append(&ghz3()).is_err());
    }

    #[test]
    fn summary_mentions_shape() {
        let s = ghz3().summary();
        assert!(s.contains("3 qubits"));
        assert!(s.contains("3 gates"));
    }
}
