//! Dense state-vector simulator — the paper's "conventional simulation
//! method" baseline (cuQuantum/Aer stand-in).
//!
//! Θ(2ⁿ) memory, Θ(2ⁿ) work per gate. Memory is 16 bytes per amplitude;
//! under the 2.0 GB budget of the paper's intro experiment this caps out at
//! n = 27, which is the denominator of the "3,118× more qubits" claim.

use qymera_circuit::{Complex64, Gate, QuantumCircuit};

use crate::traits::{Amplitudes, SimError, SimOptions, SimOutput, Simulator};

/// Dense state-vector backend.
#[derive(Debug, Clone, Default)]
pub struct StateVectorSim;

/// Bytes needed for the dense state of `n` qubits.
pub fn dense_state_bytes(n: usize) -> usize {
    16usize.saturating_mul(1usize.checked_shl(n as u32).unwrap_or(usize::MAX))
}

/// Largest `n` whose dense state fits in `bytes`.
pub fn max_dense_qubits(bytes: usize) -> usize {
    let mut n = 0;
    while n < 60 && dense_state_bytes(n + 1) <= bytes {
        n += 1;
    }
    n
}

impl StateVectorSim {
    /// Apply one gate in place.
    fn apply_gate(state: &mut [Complex64], n: usize, gate: &Gate) {
        let qs = &gate.qubits;
        let k = qs.len();
        let m = gate.matrix();
        let dim = 1usize << k;

        if k == 1 {
            // Fast path: single-qubit gate.
            let q = qs[0];
            let bit = 1usize << q;
            let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
            for s in 0..state.len() {
                if s & bit == 0 {
                    let a0 = state[s];
                    let a1 = state[s | bit];
                    state[s] = m00 * a0 + m01 * a1;
                    state[s | bit] = m10 * a0 + m11 * a1;
                }
            }
            return;
        }

        // General path: enumerate base indices with the gate-qubit bits zero,
        // gather the 2^k amplitudes, multiply, scatter.
        let mut sorted = qs.clone();
        sorted.sort_unstable();
        let mut scratch_in = vec![Complex64::ZERO; dim];
        let total = 1usize << (n - k);
        for mgroup in 0..total {
            // Expand mgroup into a base index with zeros at gate qubits.
            let mut base = mgroup;
            for &q in &sorted {
                let low = base & ((1usize << q) - 1);
                base = ((base >> q) << (q + 1)) | low;
            }
            // Gather: local index l has bit j = value of gate qubit qs[j].
            for (l, slot) in scratch_in.iter_mut().enumerate() {
                let mut s = base;
                for (j, &q) in qs.iter().enumerate() {
                    if (l >> j) & 1 == 1 {
                        s |= 1usize << q;
                    }
                }
                *slot = state[s];
            }
            // Multiply and scatter.
            for lo in 0..dim {
                let mut acc = Complex64::ZERO;
                for (li, &amp) in scratch_in.iter().enumerate() {
                    acc += m[(lo, li)] * amp;
                }
                let mut s = base;
                for (j, &q) in qs.iter().enumerate() {
                    if (lo >> j) & 1 == 1 {
                        s |= 1usize << q;
                    }
                }
                state[s] = acc;
            }
        }
    }

    /// Run and return the raw dense state (used by cross-validation tests).
    pub fn run_dense(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<Vec<Complex64>, SimError> {
        let n = circuit.num_qubits;
        if n > 30 {
            // 2^30 amplitudes = 16 GiB; treat as the representational cap.
            return Err(SimError::TooManyQubits { qubits: n, max: 30 });
        }
        let bytes = dense_state_bytes(n);
        if let Some(limit) = opts.memory_limit {
            if bytes > limit {
                return Err(SimError::OutOfMemory { requested: bytes, limit });
            }
        }
        let mut state = vec![Complex64::ZERO; 1usize << n];
        state[0] = Complex64::ONE;
        for gate in circuit.gates() {
            Self::apply_gate(&mut state, n, gate);
        }
        Ok(state)
    }
}

impl Simulator for StateVectorSim {
    fn name(&self) -> &'static str {
        "statevector"
    }

    fn simulate(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<SimOutput, SimError> {
        let state = self.run_dense(circuit, opts)?;
        let tol2 = opts.truncation_tol * opts.truncation_tol;
        let mut amplitudes = Amplitudes::default();
        for (s, &a) in state.iter().enumerate() {
            if a.norm_sqr() > tol2 {
                amplitudes.push(s as u64, a)?;
            }
        }
        Ok(SimOutput {
            num_qubits: circuit.num_qubits,
            amplitudes,
            memory_bytes: dense_state_bytes(circuit.num_qubits),
            detail: format!("dense 2^{} amplitudes", circuit.num_qubits),
        })
    }

    fn max_qubits(&self, opts: &SimOptions) -> usize {
        match opts.memory_limit {
            Some(limit) => max_dense_qubits(limit).min(30),
            None => 30,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_circuit::{c64, library, CircuitBuilder};

    const TOL: f64 = 1e-10;

    fn run(c: &QuantumCircuit) -> SimOutput {
        StateVectorSim.simulate(c, &SimOptions::default()).unwrap()
    }

    #[test]
    fn ghz_state() {
        let out = run(&library::ghz(3));
        assert_eq!(out.nonzero_count(), 2);
        assert!((out.probability(0) - 0.5).abs() < TOL);
        assert!((out.probability(7) - 0.5).abs() < TOL);
    }

    #[test]
    fn equal_superposition() {
        let out = run(&library::equal_superposition(4));
        assert_eq!(out.nonzero_count(), 16);
        for s in 0..16 {
            assert!((out.probability(s) - 1.0 / 16.0).abs() < TOL);
        }
    }

    #[test]
    fn x_chain_reaches_all_ones() {
        let c = CircuitBuilder::new(5).x(0).x(1).x(2).x(3).x(4).build();
        let out = run(&c);
        assert!((out.probability(31) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_then_inverse_is_identity() {
        let bell = library::bell();
        let mut c = bell.clone();
        c.append(&bell.inverse()).unwrap();
        let out = run(&c);
        assert!((out.probability(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn w_state_probabilities() {
        let out = run(&library::w_state(4));
        for s in [1u64, 2, 4, 8] {
            assert!((out.probability(s) - 0.25).abs() < TOL, "p({s})");
        }
        assert!(out.probability(0) < TOL);
        assert!((out.norm_sqr() - 1.0).abs() < TOL);
    }

    #[test]
    fn qft_of_zero_is_uniform() {
        let out = run(&library::qft(4));
        for s in 0..16 {
            assert!((out.probability(s) - 1.0 / 16.0).abs() < TOL);
        }
    }

    #[test]
    fn parity_check_computes_parity() {
        for bits in [[true, false, true], [true, true, true], [false, false, false]] {
            let ones = bits.iter().filter(|&&b| b).count();
            let c = library::parity_check(&bits);
            let out = run(&c);
            let ancilla = bits.len();
            let p1 = out.qubit_one_probability(ancilla);
            if ones % 2 == 1 {
                assert!((p1 - 1.0).abs() < TOL, "{bits:?}");
            } else {
                assert!(p1 < TOL, "{bits:?}");
            }
        }
    }

    #[test]
    fn grover_amplifies_marked_state() {
        // 3 data qubits, marked = 5, optimal iterations.
        let iters = library::grover_optimal_iterations(3);
        let c = library::grover(3, 5, iters);
        let out = run(&c);
        // Probability of the marked data pattern (ancilla back to 0).
        let p = out.probability(5);
        assert!(p > 0.8, "Grover should amplify |101⟩, got {p}");
    }

    #[test]
    fn norm_preserved_on_random_circuits() {
        for seed in 0..5 {
            let c = library::random_circuit(5, 40, seed);
            let out = run(&c);
            assert!((out.norm_sqr() - 1.0).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn memory_limit_enforced() {
        let opts = SimOptions::with_memory_limit(1 << 20); // 1 MiB → n ≤ 16
        let sim = StateVectorSim;
        assert_eq!(sim.max_qubits(&opts), 16);
        let c = library::ghz(17);
        assert!(matches!(
            sim.simulate(&c, &opts),
            Err(SimError::OutOfMemory { .. })
        ));
        assert!(sim.simulate(&library::ghz(16), &opts).is_ok());
    }

    #[test]
    fn the_paper_2gb_cap_is_27_qubits() {
        // 16·2^27 = 2 GiB exactly fits; 2^28 does not.
        let two_gb = 2 * 1024 * 1024 * 1024usize;
        assert_eq!(max_dense_qubits(two_gb), 27);
    }

    #[test]
    fn swap_and_toffoli_semantics() {
        // |q1 q0⟩ = |01⟩ → swap → |10⟩
        let c = CircuitBuilder::new(2).x(0).swap(0, 1).build();
        assert!((run(&c).probability(2) - 1.0).abs() < TOL);
        // CCX flips target only when both controls set.
        let c = CircuitBuilder::new(3).x(0).x(1).ccx(0, 1, 2).build();
        assert!((run(&c).probability(7) - 1.0).abs() < TOL);
        let c = CircuitBuilder::new(3).x(0).ccx(0, 1, 2).build();
        assert!((run(&c).probability(1) - 1.0).abs() < TOL);
    }

    #[test]
    fn amplitude_values_match_theory() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let out = run(&CircuitBuilder::new(1).h(0).z(0).build());
        assert!(out.amplitude(0).approx_eq(c64(s, 0.0), TOL));
        assert!(out.amplitude(1).approx_eq(c64(-s, 0.0), TOL));
    }
}
