//! Sparse hash-map simulator.
//!
//! Stores only nonzero amplitudes — the in-memory analogue of the paper's
//! relational state encoding ("Only nonzero basis states are stored", §2.1).
//! Per gate, cost is O(nonzeros · 2^k); memory is O(nonzeros). On sparse
//! circuit families this is the fair non-SQL baseline; on dense circuits it
//! degenerates to a (slower) state vector.

use std::collections::HashMap;

use qymera_circuit::{Complex64, Gate, QuantumCircuit};

use crate::traits::{Amplitudes, SimError, SimOptions, SimOutput, Simulator};

/// Sparse map backend.
#[derive(Debug, Clone, Default)]
pub struct SparseSim;

/// Approximate bytes per stored amplitude (key + value + hash overhead).
pub const BYTES_PER_ENTRY: usize = 8 + 16 + 24;

impl SparseSim {
    fn apply_gate(
        state: HashMap<u64, Complex64>,
        gate: &Gate,
        tol2: f64,
        limit: Option<usize>,
    ) -> Result<HashMap<u64, Complex64>, SimError> {
        let m = gate.matrix();
        let k = gate.qubits.len();
        let dim = 1usize << k;
        let mut next: HashMap<u64, Complex64> = HashMap::with_capacity(state.len());
        for (s, amp) in state {
            // Local input index from the gate qubits' bits.
            let mut li = 0usize;
            for (j, &q) in gate.qubits.iter().enumerate() {
                if (s >> q) & 1 == 1 {
                    li |= 1 << j;
                }
            }
            // Base index with gate-qubit bits cleared.
            let mut base = s;
            for &q in &gate.qubits {
                base &= !(1u64 << q);
            }
            for lo in 0..dim {
                let w = m[(lo, li)];
                if w.norm_sqr() == 0.0 {
                    continue;
                }
                let mut ns = base;
                for (j, &q) in gate.qubits.iter().enumerate() {
                    if (lo >> j) & 1 == 1 {
                        ns |= 1u64 << q;
                    }
                }
                let entry = next.entry(ns).or_insert(Complex64::ZERO);
                *entry += w * amp;
            }
            if let Some(limit) = limit {
                let bytes = next.len() * BYTES_PER_ENTRY;
                if bytes > limit {
                    return Err(SimError::OutOfMemory { requested: bytes, limit });
                }
            }
        }
        // Prune numerically-zero entries so sparse circuits stay sparse.
        next.retain(|_, a| a.norm_sqr() > tol2);
        Ok(next)
    }
}

impl Simulator for SparseSim {
    fn name(&self) -> &'static str {
        "sparse"
    }

    fn simulate(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<SimOutput, SimError> {
        let n = circuit.num_qubits;
        if n > 63 {
            return Err(SimError::TooManyQubits { qubits: n, max: 63 });
        }
        let tol2 = opts.truncation_tol * opts.truncation_tol;
        let mut state = HashMap::new();
        state.insert(0u64, Complex64::ONE);
        let mut peak = BYTES_PER_ENTRY;
        for gate in circuit.gates() {
            state = Self::apply_gate(state, gate, tol2, opts.memory_limit)?;
            peak = peak.max(state.len() * BYTES_PER_ENTRY);
        }
        Ok(SimOutput {
            num_qubits: n,
            amplitudes: Amplitudes::from_unsorted(state.into_iter().collect())?,
            memory_bytes: peak,
            detail: format!("peak {} nonzero amplitudes", peak / BYTES_PER_ENTRY),
        })
    }

    fn max_qubits(&self, _opts: &SimOptions) -> usize {
        // The basis-index width is the cap; memory depends on the circuit,
        // not the register size.
        63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVectorSim;
    use qymera_circuit::library;

    const TOL: f64 = 1e-10;

    fn run(c: &QuantumCircuit) -> SimOutput {
        SparseSim.simulate(c, &SimOptions::default()).unwrap()
    }

    #[test]
    fn ghz_stays_two_entries_at_large_n() {
        let out = run(&library::ghz(40));
        assert_eq!(out.nonzero_count(), 2);
        assert!((out.probability(0) - 0.5).abs() < TOL);
        assert!((out.probability((1u64 << 40) - 1) - 0.5).abs() < TOL);
        assert_eq!(out.memory_bytes, 2 * BYTES_PER_ENTRY);
    }

    #[test]
    fn sparse_circuit_family_stays_sparse() {
        let c = library::sparse_circuit(32, 6, 3);
        let out = run(&c);
        assert!(out.nonzero_count() <= 2, "sparse family must stay ≤2 nonzeros");
        assert!((out.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn matches_statevector_on_random_circuits() {
        for seed in 0..6 {
            let c = library::random_circuit(5, 30, seed);
            let sparse = run(&c);
            let dense = StateVectorSim.simulate(&c, &SimOptions::default()).unwrap();
            assert!(
                sparse.max_amplitude_diff(&dense) < 1e-9,
                "seed {seed}: sparse and dense disagree"
            );
        }
    }

    #[test]
    fn interference_cancels_amplitudes() {
        // H then H returns to |0⟩; the |1⟩ entry must be pruned exactly.
        let c = qymera_circuit::CircuitBuilder::new(1).h(0).h(0).build();
        let out = run(&c);
        assert_eq!(out.nonzero_count(), 1);
        assert!((out.probability(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn memory_limit_enforced_on_dense_growth() {
        let opts = SimOptions {
            memory_limit: Some(100 * BYTES_PER_ENTRY),
            ..Default::default()
        };
        let c = library::equal_superposition(10); // 1024 entries
        assert!(matches!(
            SparseSim.simulate(&c, &opts),
            Err(SimError::OutOfMemory { .. })
        ));
        // but a sparse circuit on far more qubits is fine under the same limit
        assert!(SparseSim.simulate(&library::ghz(50), &opts).is_ok());
    }

    #[test]
    fn too_many_qubits_rejected() {
        let c = QuantumCircuit::new(64);
        assert!(matches!(
            SparseSim.simulate(&c, &SimOptions::default()),
            Err(SimError::TooManyQubits { .. })
        ));
    }
}
