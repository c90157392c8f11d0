//! Matrix-product-state (tensor network) simulator — the paper's "MPS"
//! backend (§3.3, "tensor networks, e.g., MPS").
//!
//! The state is a chain of rank-3 tensors `T_q[l, p, r]` (left bond,
//! physical, right bond). Single-qubit gates are local contractions;
//! two-qubit gates on adjacent sites contract the pair into a Θ tensor,
//! apply the 4×4 unitary, and split it back with the SVD from
//! [`linalg`], truncating the bond to `max_bond_dim`. Non-adjacent gates are
//! routed with SWAP networks; 3-qubit gates are pre-decomposed via
//! [`crate::decompose`].
//!
//! GHZ and other low-entanglement states keep bond dimension 2 at any `n`;
//! volume-law random circuits blow up exponentially — reproducing the
//! backend trade-off narrative of Scenario 2.

pub mod linalg;

use qymera_circuit::{CMatrix, Complex64, Gate, QuantumCircuit};

use crate::decompose::decompose_to_two_qubit;
use crate::traits::{Amplitudes, SimError, SimOptions, SimOutput, Simulator};

use linalg::svd;

/// One site tensor: index `(l, p, r) → data[(l*2 + p)*right + r]`.
#[derive(Debug, Clone)]
struct SiteTensor {
    left: usize,
    right: usize,
    data: Vec<Complex64>,
}

impl SiteTensor {
    fn zero_state() -> Self {
        SiteTensor { left: 1, right: 1, data: vec![Complex64::ONE, Complex64::ZERO] }
    }

    #[inline]
    fn at(&self, l: usize, p: usize, r: usize) -> Complex64 {
        self.data[(l * 2 + p) * self.right + r]
    }

    #[inline]
    fn set(&mut self, l: usize, p: usize, r: usize, v: Complex64) {
        self.data[(l * 2 + p) * self.right + r] = v;
    }

    fn bytes(&self) -> usize {
        self.data.len() * 16
    }
}

/// The evolving MPS.
pub struct MpsState {
    tensors: Vec<SiteTensor>,
    /// Largest bond dimension reached so far.
    pub max_bond_seen: usize,
    /// Total squared norm discarded by truncation so far.
    pub truncation_error: f64,
    peak_bytes: usize,
}

impl MpsState {
    /// |0…0⟩ on `n` qubits.
    pub fn zero(n: usize) -> Self {
        MpsState {
            tensors: (0..n).map(|_| SiteTensor::zero_state()).collect(),
            max_bond_seen: 1,
            truncation_error: 0.0,
            peak_bytes: n * 32,
        }
    }

    pub fn num_qubits(&self) -> usize {
        self.tensors.len()
    }

    fn current_bytes(&self) -> usize {
        self.tensors.iter().map(SiteTensor::bytes).sum()
    }

    fn note_memory(&mut self, limit: Option<usize>) -> Result<(), SimError> {
        let b = self.current_bytes();
        self.peak_bytes = self.peak_bytes.max(b);
        if let Some(limit) = limit {
            if b > limit {
                return Err(SimError::OutOfMemory { requested: b, limit });
            }
        }
        Ok(())
    }

    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Apply a single-qubit unitary at site `q`.
    fn apply_1q(&mut self, q: usize, m: &CMatrix) {
        let t = &mut self.tensors[q];
        for l in 0..t.left {
            for r in 0..t.right {
                let a0 = t.at(l, 0, r);
                let a1 = t.at(l, 1, r);
                t.set(l, 0, r, m[(0, 0)] * a0 + m[(0, 1)] * a1);
                t.set(l, 1, r, m[(1, 0)] * a0 + m[(1, 1)] * a1);
            }
        }
    }

    /// Apply a 4×4 unitary to adjacent sites `(q, q+1)` where the matrix's
    /// local bit 0 is site `q` and bit 1 is site `q+1`.
    fn apply_2q_adjacent(
        &mut self,
        q: usize,
        m: &CMatrix,
        opts: &SimOptions,
    ) -> Result<(), SimError> {
        let a = &self.tensors[q];
        let b = &self.tensors[q + 1];
        let (dl, dm, dr) = (a.left, a.right, b.right);
        debug_assert_eq!(b.left, dm);

        // Θ[l, p0, p1, r] = Σ_m A[l,p0,m] B[m,p1,r]
        let mut theta = vec![Complex64::ZERO; dl * 2 * 2 * dr];
        let idx = |l: usize, p0: usize, p1: usize, r: usize| ((l * 2 + p0) * 2 + p1) * dr + r;
        for l in 0..dl {
            for p0 in 0..2 {
                for mm in 0..dm {
                    let av = a.at(l, p0, mm);
                    if av == Complex64::ZERO {
                        continue;
                    }
                    for p1 in 0..2 {
                        for r in 0..dr {
                            theta[idx(l, p0, p1, r)] += av * b.at(mm, p1, r);
                        }
                    }
                }
            }
        }

        // Apply the gate: Θ'[l,o0,o1,r] = Σ M[(o1<<1|o0),(p1<<1|p0)] Θ[l,p0,p1,r]
        let mut theta2 = vec![Complex64::ZERO; dl * 2 * 2 * dr];
        for l in 0..dl {
            for r in 0..dr {
                for o0 in 0..2 {
                    for o1 in 0..2 {
                        let mut acc = Complex64::ZERO;
                        for p0 in 0..2 {
                            for p1 in 0..2 {
                                let w = m[((o1 << 1) | o0, (p1 << 1) | p0)];
                                if w == Complex64::ZERO {
                                    continue;
                                }
                                acc += w * theta[idx(l, p0, p1, r)];
                            }
                        }
                        theta2[idx(l, o0, o1, r)] = acc;
                    }
                }
            }
        }

        // Reshape to (l·p0) × (p1·r) and SVD-split.
        let rows = dl * 2;
        let cols = 2 * dr;
        let mut mat = CMatrix::zeros(rows, cols);
        for l in 0..dl {
            for o0 in 0..2 {
                for o1 in 0..2 {
                    for r in 0..dr {
                        mat[(l * 2 + o0, o1 * dr + r)] = theta2[idx(l, o0, o1, r)];
                    }
                }
            }
        }
        let dec = svd(&mat)?;

        // Truncate.
        let smax = dec.s.first().copied().unwrap_or(0.0);
        let mut chi = dec
            .s
            .iter()
            .take_while(|&&x| x > opts.truncation_tol * smax.max(1e-300))
            .count()
            .max(1);
        if let Some(cap) = opts.max_bond_dim {
            chi = chi.min(cap.max(1));
        }
        let discarded: f64 = dec.s[chi..].iter().map(|x| x * x).sum();
        self.truncation_error += discarded;
        // Rescale the kept spectrum to preserve the Θ block's own norm.
        // (The chain is not kept in canonical form, so the block norm is not
        // 1 in general — forcing it to 1 would corrupt the global state.)
        let kept: f64 = dec.s[..chi].iter().map(|x| x * x).sum();
        let total = kept + discarded;
        let renorm = if kept > 0.0 { (total / kept).sqrt() } else { 1.0 };
        debug_assert!(
            {
                let theta_norm2: f64 = theta2.iter().map(|z| z.norm_sqr()).sum();
                (theta_norm2 - total).abs() <= 1e-6 * theta_norm2.max(1.0)
            },
            "SVD lost mass: |theta|^2 = {}, sum s^2 = {total}",
            theta2.iter().map(|z| z.norm_sqr()).sum::<f64>()
        );

        let mut new_a = SiteTensor {
            left: dl,
            right: chi,
            data: vec![Complex64::ZERO; dl * 2 * chi],
        };
        for l in 0..dl {
            for o0 in 0..2 {
                for j in 0..chi {
                    new_a.set(l, o0, j, dec.u[(l * 2 + o0, j)]);
                }
            }
        }
        let mut new_b = SiteTensor {
            left: chi,
            right: dr,
            data: vec![Complex64::ZERO; chi * 2 * dr],
        };
        for j in 0..chi {
            let sj = dec.s[j] * renorm;
            for o1 in 0..2 {
                for r in 0..dr {
                    new_b.set(j, o1, r, dec.vt[(j, o1 * dr + r)].scale(sj));
                }
            }
        }
        self.tensors[q] = new_a;
        self.tensors[q + 1] = new_b;
        self.max_bond_seen = self.max_bond_seen.max(chi);
        self.note_memory(opts.memory_limit)
    }

    /// Apply an arbitrary 2-qubit gate via SWAP routing.
    fn apply_2q(&mut self, gate: &Gate, opts: &SimOptions) -> Result<(), SimError> {
        let (a, b) = (gate.qubits[0], gate.qubits[1]);
        let m = gate.matrix();
        let swap = Gate::new(qymera_circuit::GateKind::Swap, vec![0, 1], vec![]).matrix();
        let (lo, hi) = (a.min(b), a.max(b));
        // Route `hi` down to `lo + 1`.
        for site in (lo + 1..hi).rev() {
            self.apply_2q_adjacent(site, &swap, opts)?;
        }
        // After routing, sites are (lo, lo+1) holding qubits (a..) — if the
        // first listed qubit is the higher one, permute the matrix bits.
        let m_local = if a < b { m } else { permute_2q_bits(&m) };
        self.apply_2q_adjacent(lo, &m_local, opts)?;
        // Route back.
        for site in lo + 1..hi {
            self.apply_2q_adjacent(site, &swap, opts)?;
        }
        Ok(())
    }

    /// Amplitude of basis state `s`: contract left-to-right, O(n·χ²).
    pub fn amplitude(&self, s: u64) -> Complex64 {
        let mut vec: Vec<Complex64> = vec![Complex64::ONE];
        for (q, t) in self.tensors.iter().enumerate() {
            let p = ((s >> q) & 1) as usize;
            let mut next = vec![Complex64::ZERO; t.right];
            for (l, &vl) in vec.iter().enumerate() {
                if vl == Complex64::ZERO {
                    continue;
                }
                for (r, slot) in next.iter_mut().enumerate() {
                    *slot += vl * t.at(l, p, r);
                }
            }
            vec = next;
        }
        vec[0]
    }

    /// Reconstruct all amplitudes (exponential; guarded by the caller).
    fn reconstruct(&self, tol: f64) -> Vec<(u64, Complex64)> {
        let n = self.num_qubits();
        // Running contraction: for each partial basis prefix, a bond vector.
        let mut partial: Vec<(u64, Vec<Complex64>)> = vec![(0, vec![Complex64::ONE])];
        for (q, t) in self.tensors.iter().enumerate() {
            let mut next = Vec::with_capacity(partial.len() * 2);
            for (bits, v) in &partial {
                for p in 0..2u64 {
                    let mut nv = vec![Complex64::ZERO; t.right];
                    let mut nonzero = false;
                    for (l, &vl) in v.iter().enumerate() {
                        if vl == Complex64::ZERO {
                            continue;
                        }
                        for (r, slot) in nv.iter_mut().enumerate() {
                            *slot += vl * t.at(l, p as usize, r);
                            nonzero = true;
                        }
                    }
                    // Prune branches that are exactly dead to keep sparse
                    // states cheap.
                    if nonzero && nv.iter().any(|z| z.norm_sqr() > 1e-30) {
                        next.push((bits | (p << q), nv));
                    }
                }
            }
            partial = next;
            let _ = n;
        }
        let tol2 = tol * tol;
        partial
            .into_iter()
            .filter_map(|(bits, v)| {
                let a = v[0];
                if a.norm_sqr() > tol2 {
                    Some((bits, a))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// Permute a 4×4 gate matrix so local bits 0 and 1 swap roles.
fn permute_2q_bits(m: &CMatrix) -> CMatrix {
    let perm = |i: usize| ((i & 1) << 1) | ((i >> 1) & 1);
    let mut out = CMatrix::zeros(4, 4);
    for i in 0..4 {
        for j in 0..4 {
            out[(perm(i), perm(j))] = m[(i, j)];
        }
    }
    out
}

/// The MPS backend.
#[derive(Debug, Clone, Default)]
pub struct MpsSim;

/// Largest register for which [`MpsState::reconstruct`] is allowed.
const MAX_RECONSTRUCT_QUBITS: usize = 26;

impl MpsSim {
    /// Run and return the MPS itself (for bond-dimension inspection and
    /// amplitude queries at scales where reconstruction is impossible).
    pub fn run_mps(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<MpsState, SimError> {
        let circuit = decompose_to_two_qubit(circuit);
        let mut state = MpsState::zero(circuit.num_qubits);
        for gate in circuit.gates() {
            match gate.qubits.len() {
                1 => state.apply_1q(gate.qubits[0], &gate.matrix()),
                2 => state.apply_2q(gate, opts)?,
                k => {
                    return Err(SimError::Unsupported(format!(
                        "{k}-qubit gate survived decomposition"
                    )))
                }
            }
        }
        Ok(state)
    }
}

impl Simulator for MpsSim {
    fn name(&self) -> &'static str {
        "mps"
    }

    fn simulate(
        &self,
        circuit: &QuantumCircuit,
        opts: &SimOptions,
    ) -> Result<SimOutput, SimError> {
        if circuit.num_qubits > MAX_RECONSTRUCT_QUBITS {
            return Err(SimError::TooManyQubits {
                qubits: circuit.num_qubits,
                max: MAX_RECONSTRUCT_QUBITS,
            });
        }
        let state = self.run_mps(circuit, opts)?;
        Ok(SimOutput {
            num_qubits: circuit.num_qubits,
            amplitudes: Amplitudes::from_unsorted(state.reconstruct(opts.truncation_tol))?,
            memory_bytes: state.peak_bytes(),
            detail: format!(
                "max bond {} / truncation error {:.3e}",
                state.max_bond_seen, state.truncation_error
            ),
        })
    }

    fn max_qubits(&self, _opts: &SimOptions) -> usize {
        MAX_RECONSTRUCT_QUBITS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::StateVectorSim;
    use qymera_circuit::{library, CircuitBuilder};

    const TOL: f64 = 1e-8;

    fn run(c: &QuantumCircuit) -> SimOutput {
        MpsSim.simulate(c, &SimOptions::default()).unwrap()
    }

    #[test]
    fn ghz_has_bond_dimension_two() {
        let sim = MpsSim;
        let state = sim.run_mps(&library::ghz(12), &SimOptions::default()).unwrap();
        assert_eq!(state.max_bond_seen, 2, "GHZ entanglement is bond-2");
        let out = run(&library::ghz(12));
        assert_eq!(out.nonzero_count(), 2);
        assert!((out.probability(0) - 0.5).abs() < TOL);
        assert!((out.probability((1 << 12) - 1) - 0.5).abs() < TOL);
    }

    #[test]
    fn matches_statevector_on_random_circuits() {
        for seed in 0..5 {
            let c = library::random_circuit(5, 25, seed);
            let mps = run(&c);
            let sv = StateVectorSim.simulate(&c, &SimOptions::default()).unwrap();
            let diff = mps.max_amplitude_diff(&sv);
            assert!(diff < 1e-7, "seed {seed}: MPS differs from dense by {diff}");
        }
    }

    #[test]
    fn non_adjacent_gates_route_correctly() {
        // CX(0, 3) requires swap routing.
        let c = CircuitBuilder::new(4).x(0).cx(0, 3).build();
        let out = run(&c);
        assert!((out.probability(0b1001) - 1.0).abs() < TOL);
        // And with reversed listed order: CX(3, 0) control on the high qubit.
        let c = CircuitBuilder::new(4).x(3).cx(3, 0).build();
        let out = run(&c);
        assert!((out.probability(0b1001) - 1.0).abs() < TOL);
    }

    #[test]
    fn toffoli_via_decomposition() {
        let c = CircuitBuilder::new(3).x(0).x(1).ccx(0, 1, 2).build();
        let out = run(&c);
        assert!((out.probability(7) - 1.0).abs() < TOL);
    }

    #[test]
    fn bond_cap_truncates_and_reports() {
        let c = library::dense_circuit(8, 4, 5);
        let opts = SimOptions { max_bond_dim: Some(2), ..Default::default() };
        let state = MpsSim.run_mps(&c, &opts).unwrap();
        assert!(state.max_bond_seen <= 2);
        assert!(state.truncation_error > 0.0, "dense circuit must truncate at χ=2");
        // exact run discards only numerical noise
        let exact = MpsSim.run_mps(&c, &SimOptions::default()).unwrap();
        assert!(exact.truncation_error < 1e-20);
    }

    #[test]
    fn amplitude_query_matches_reconstruction() {
        let c = library::w_state(6);
        let state = MpsSim.run_mps(&c, &SimOptions::default()).unwrap();
        let out = run(&c);
        for s in [1u64, 2, 4, 8, 16, 32] {
            let a1 = state.amplitude(s);
            let a2 = out.amplitude(s);
            assert!((a1 - a2).abs() < TOL);
            assert!((a1.norm_sqr() - 1.0 / 6.0).abs() < TOL);
        }
    }

    #[test]
    fn memory_limit_enforced() {
        let c = library::dense_circuit(12, 6, 1);
        let opts = SimOptions { memory_limit: Some(4096), ..Default::default() };
        assert!(matches!(
            MpsSim.run_mps(&c, &opts),
            Err(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn norm_preserved_exact_mode() {
        for seed in [11, 22] {
            let c = library::random_circuit(6, 30, seed);
            let out = run(&c);
            assert!((out.norm_sqr() - 1.0).abs() < 1e-7, "seed {seed}");
        }
    }
}
