//! Quantum gates: the standard gate set, parameterized rotations, and their
//! unitary matrices.
//!
//! **Qubit-ordering convention** (used across the whole workspace, matching
//! the paper's Fig. 2): qubit 0 is the **least-significant bit** of the
//! basis-state integer `s`. For a gate on qubits `[q0, q1, …]`, the *local*
//! index of the gate matrix takes `q0` as its least-significant bit. Under
//! this convention a `CX` on `[control, target]` has exactly the relational
//! table of Fig. 2b: `(0,0), (1,3), (2,2), (3,1)`.

use std::f64::consts::FRAC_1_SQRT_2;

use crate::complex::{c64, Complex64};
use crate::matrix::{m2, m2r, CMatrix};

/// Gate kinds. Parameter counts are fixed per kind (see [`GateKind::arity`]
/// and [`GateKind::param_count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    I,
    X,
    Y,
    Z,
    H,
    S,
    Sdg,
    T,
    Tdg,
    SqrtX,
    Rx,
    Ry,
    Rz,
    /// Diagonal phase gate `P(λ) = diag(1, e^{iλ})`.
    Phase,
    /// General single-qubit unitary `U(θ, φ, λ)` (Qiskit convention).
    U3,
    Cx,
    Cy,
    Cz,
    Ch,
    /// Controlled phase `CP(λ)`.
    CPhase,
    CRx,
    CRy,
    CRz,
    Swap,
    /// Toffoli.
    Ccx,
    CSwap,
}

impl GateKind {
    /// Number of qubits the gate acts on.
    pub fn arity(&self) -> usize {
        use GateKind::*;
        match self {
            I | X | Y | Z | H | S | Sdg | T | Tdg | SqrtX | Rx | Ry | Rz | Phase | U3 => 1,
            Cx | Cy | Cz | Ch | CPhase | CRx | CRy | CRz | Swap => 2,
            Ccx | CSwap => 3,
        }
    }

    /// Number of real parameters.
    pub fn param_count(&self) -> usize {
        use GateKind::*;
        match self {
            Rx | Ry | Rz | Phase | CPhase | CRx | CRy | CRz => 1,
            U3 => 3,
            _ => 0,
        }
    }

    /// Canonical lowercase name (QASM-style).
    pub fn name(&self) -> &'static str {
        use GateKind::*;
        match self {
            I => "id",
            X => "x",
            Y => "y",
            Z => "z",
            H => "h",
            S => "s",
            Sdg => "sdg",
            T => "t",
            Tdg => "tdg",
            SqrtX => "sx",
            Rx => "rx",
            Ry => "ry",
            Rz => "rz",
            Phase => "p",
            U3 => "u3",
            Cx => "cx",
            Cy => "cy",
            Cz => "cz",
            Ch => "ch",
            CPhase => "cp",
            CRx => "crx",
            CRy => "cry",
            CRz => "crz",
            Swap => "swap",
            Ccx => "ccx",
            CSwap => "cswap",
        }
    }

    /// Parse a canonical name (case-insensitive, with common aliases).
    pub fn from_name(name: &str) -> Option<GateKind> {
        use GateKind::*;
        Some(match name.to_ascii_lowercase().as_str() {
            "i" | "id" => I,
            "x" | "not" => X,
            "y" => Y,
            "z" => Z,
            "h" => H,
            "s" => S,
            "sdg" => Sdg,
            "t" => T,
            "tdg" => Tdg,
            "sx" | "sqrtx" => SqrtX,
            "rx" => Rx,
            "ry" => Ry,
            "rz" => Rz,
            "p" | "phase" | "u1" => Phase,
            "u3" | "u" => U3,
            "cx" | "cnot" => Cx,
            "cy" => Cy,
            "cz" => Cz,
            "ch" => Ch,
            "cp" | "cphase" | "cu1" => CPhase,
            "crx" => CRx,
            "cry" => CRy,
            "crz" => CRz,
            "swap" => Swap,
            "ccx" | "toffoli" => Ccx,
            "cswap" | "fredkin" => CSwap,
            _ => return None,
        })
    }

    /// True if the gate matrix is diagonal (never changes basis states).
    pub fn is_diagonal(&self) -> bool {
        use GateKind::*;
        matches!(self, I | Z | S | Sdg | T | Tdg | Rz | Phase | Cz | CPhase | CRz)
    }

    /// True if the gate maps each basis state to exactly one basis state
    /// (possibly with a phase): a generalized permutation matrix. Circuits
    /// built only from these gates keep sparse states sparse — this is the
    /// structural property behind the paper's sparse-circuit experiment.
    pub fn is_permutation_like(&self) -> bool {
        use GateKind::*;
        self.is_diagonal() || matches!(self, X | Y | Cx | Cy | Swap | Ccx | CSwap)
    }
}

/// One gate application in a circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub kind: GateKind,
    /// Qubits in the gate's own order; for controlled gates the controls
    /// come first (e.g. `Cx` = `[control, target]`).
    pub qubits: Vec<usize>,
    pub params: Vec<f64>,
}

impl Gate {
    pub fn new(kind: GateKind, qubits: Vec<usize>, params: Vec<f64>) -> Self {
        Gate { kind, qubits, params }
    }

    /// Validate arity, parameter count, and qubit distinctness.
    pub fn validate(&self) -> Result<(), String> {
        if self.qubits.len() != self.kind.arity() {
            return Err(format!(
                "gate `{}` expects {} qubits, got {}",
                self.kind.name(),
                self.kind.arity(),
                self.qubits.len()
            ));
        }
        if self.params.len() != self.kind.param_count() {
            return Err(format!(
                "gate `{}` expects {} parameters, got {}",
                self.kind.name(),
                self.kind.param_count(),
                self.params.len()
            ));
        }
        for (i, q) in self.qubits.iter().enumerate() {
            if self.qubits[..i].contains(q) {
                return Err(format!("gate `{}` has duplicate qubit {q}", self.kind.name()));
            }
        }
        if !self.params.iter().all(|p| p.is_finite()) {
            return Err(format!("gate `{}` has a non-finite parameter", self.kind.name()));
        }
        Ok(())
    }

    /// The gate's unitary, dimension 2^arity, under the local-index
    /// convention documented at the module level.
    pub fn matrix(&self) -> CMatrix {
        use GateKind::*;
        let p = |i: usize| self.params[i];
        match self.kind {
            I => CMatrix::identity(2),
            X => m2r(0.0, 1.0, 1.0, 0.0),
            Y => m2(
                Complex64::ZERO,
                c64(0.0, -1.0),
                c64(0.0, 1.0),
                Complex64::ZERO,
            ),
            Z => m2r(1.0, 0.0, 0.0, -1.0),
            H => m2r(FRAC_1_SQRT_2, FRAC_1_SQRT_2, FRAC_1_SQRT_2, -FRAC_1_SQRT_2),
            S => m2(Complex64::ONE, Complex64::ZERO, Complex64::ZERO, Complex64::I),
            Sdg => m2(Complex64::ONE, Complex64::ZERO, Complex64::ZERO, c64(0.0, -1.0)),
            T => m2(
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_phase(std::f64::consts::FRAC_PI_4),
            ),
            Tdg => m2(
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_phase(-std::f64::consts::FRAC_PI_4),
            ),
            SqrtX => m2(
                c64(0.5, 0.5),
                c64(0.5, -0.5),
                c64(0.5, -0.5),
                c64(0.5, 0.5),
            ),
            Rx => {
                let (c, s) = ((p(0) / 2.0).cos(), (p(0) / 2.0).sin());
                m2(c64(c, 0.0), c64(0.0, -s), c64(0.0, -s), c64(c, 0.0))
            }
            Ry => {
                let (c, s) = ((p(0) / 2.0).cos(), (p(0) / 2.0).sin());
                m2r(c, -s, s, c)
            }
            Rz => m2(
                Complex64::from_phase(-p(0) / 2.0),
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_phase(p(0) / 2.0),
            ),
            Phase => m2(
                Complex64::ONE,
                Complex64::ZERO,
                Complex64::ZERO,
                Complex64::from_phase(p(0)),
            ),
            U3 => {
                let (theta, phi, lambda) = (p(0), p(1), p(2));
                let (ct, st) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                m2(
                    c64(ct, 0.0),
                    -Complex64::from_phase(lambda) * st,
                    Complex64::from_phase(phi) * st,
                    Complex64::from_phase(phi + lambda) * ct,
                )
            }
            Cx => Gate::new(X, vec![0], vec![]).matrix().controlled(),
            Cy => Gate::new(Y, vec![0], vec![]).matrix().controlled(),
            Cz => Gate::new(Z, vec![0], vec![]).matrix().controlled(),
            Ch => Gate::new(H, vec![0], vec![]).matrix().controlled(),
            CPhase => Gate::new(Phase, vec![0], self.params.clone()).matrix().controlled(),
            CRx => Gate::new(Rx, vec![0], self.params.clone()).matrix().controlled(),
            CRy => Gate::new(Ry, vec![0], self.params.clone()).matrix().controlled(),
            CRz => Gate::new(Rz, vec![0], self.params.clone()).matrix().controlled(),
            Swap => {
                let mut m = CMatrix::zeros(4, 4);
                // |q1 q0⟩: 00→00, 01→10, 10→01, 11→11
                m[(0, 0)] = Complex64::ONE;
                m[(2, 1)] = Complex64::ONE;
                m[(1, 2)] = Complex64::ONE;
                m[(3, 3)] = Complex64::ONE;
                m
            }
            Ccx => Gate::new(Cx, vec![0, 1], vec![]).matrix().controlled(),
            CSwap => Gate::new(Swap, vec![0, 1], vec![]).matrix().controlled(),
        }
    }

    /// The inverse gate, when expressible in the same gate set.
    pub fn dagger(&self) -> Gate {
        use GateKind::*;
        let mut g = self.clone();
        match self.kind {
            S => g.kind = Sdg,
            Sdg => g.kind = S,
            T => g.kind = Tdg,
            Tdg => g.kind = T,
            Rx | Ry | Rz | Phase | CPhase | CRx | CRy | CRz => {
                g.params = self.params.iter().map(|p| -p).collect();
            }
            U3 => {
                let (theta, phi, lambda) = (self.params[0], self.params[1], self.params[2]);
                g.params = vec![-theta, -lambda, -phi];
            }
            SqrtX => {
                // sx† = sx·sx·sx; expose as U3 instead: sx† = rx(-π/2) up to
                // global phase, which is observationally equivalent.
                g.kind = Rx;
                g.params = vec![-std::f64::consts::FRAC_PI_2];
            }
            // Self-inverse gates.
            I | X | Y | Z | H | Cx | Cy | Cz | Ch | Swap | Ccx | CSwap => {}
        }
        g
    }

    /// Highest qubit index used.
    pub fn max_qubit(&self) -> usize {
        self.qubits.iter().copied().max().unwrap_or(0)
    }
}

/// Relational view of a gate: the `(in_s, out_s, amplitude)` triples that the
/// translation layer stores in the gate table `G(in_s, out_s, r, i)` (§2.1).
pub fn gate_table_entries(gate: &Gate, tol: f64) -> Vec<(u64, u64, Complex64)> {
    let m = gate.matrix();
    let dim = m.rows();
    let mut entries = Vec::new();
    for in_s in 0..dim {
        for out_s in 0..dim {
            let amp = m[(out_s, in_s)];
            if amp.norm_sqr() > tol * tol {
                entries.push((in_s as u64, out_s as u64, amp));
            }
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-12;

    fn all_kinds() -> Vec<GateKind> {
        use GateKind::*;
        vec![
            I, X, Y, Z, H, S, Sdg, T, Tdg, SqrtX, Rx, Ry, Rz, Phase, U3, Cx, Cy, Cz, Ch,
            CPhase, CRx, CRy, CRz, Swap, Ccx, CSwap,
        ]
    }

    fn sample_gate(kind: GateKind) -> Gate {
        let qubits = (0..kind.arity()).collect();
        let params = (0..kind.param_count()).map(|i| 0.3 + 0.2 * i as f64).collect();
        Gate::new(kind, qubits, params)
    }

    #[test]
    fn every_gate_matrix_is_unitary() {
        for kind in all_kinds() {
            let g = sample_gate(kind);
            g.validate().unwrap();
            let m = g.matrix();
            assert_eq!(m.rows(), 1 << kind.arity());
            assert!(m.is_unitary(TOL), "{} is not unitary", kind.name());
        }
    }

    #[test]
    fn every_gate_dagger_inverts() {
        for kind in all_kinds() {
            let g = sample_gate(kind);
            let prod = g.dagger().matrix().matmul(&g.matrix());
            let id = CMatrix::identity(prod.rows());
            // sx† is realized up to global phase; compare |entries|.
            if kind == GateKind::SqrtX {
                for i in 0..prod.rows() {
                    for j in 0..prod.cols() {
                        let expect = if i == j { 1.0 } else { 0.0 };
                        assert!((prod[(i, j)].abs() - expect).abs() < TOL);
                    }
                }
            } else {
                assert!(prod.approx_eq(&id, 1e-10), "{}† did not invert", kind.name());
            }
        }
    }

    #[test]
    fn cx_table_matches_paper_fig2() {
        let g = Gate::new(GateKind::Cx, vec![0, 1], vec![]);
        let entries = gate_table_entries(&g, 1e-12);
        let perm: Vec<(u64, u64)> = entries.iter().map(|&(i, o, _)| (i, o)).collect();
        assert_eq!(perm, vec![(0, 0), (1, 3), (2, 2), (3, 1)]);
        for (_, _, amp) in entries {
            assert!(amp.approx_eq(Complex64::ONE, TOL));
        }
    }

    #[test]
    fn h_table_matches_paper_fig2() {
        let g = Gate::new(GateKind::H, vec![0], vec![]);
        let entries = gate_table_entries(&g, 1e-12);
        assert_eq!(entries.len(), 4);
        let s = FRAC_1_SQRT_2;
        assert!(entries[0].2.approx_eq(c64(s, 0.0), TOL)); // (0,0)
        assert!(entries[3].2.approx_eq(c64(-s, 0.0), TOL)); // (1,1)
    }

    #[test]
    fn validation_catches_errors() {
        assert!(Gate::new(GateKind::Cx, vec![0], vec![]).validate().is_err());
        assert!(Gate::new(GateKind::Cx, vec![1, 1], vec![]).validate().is_err());
        assert!(Gate::new(GateKind::Rx, vec![0], vec![]).validate().is_err());
        assert!(Gate::new(GateKind::Rx, vec![0], vec![f64::NAN]).validate().is_err());
        assert!(Gate::new(GateKind::H, vec![0], vec![]).validate().is_ok());
    }

    #[test]
    fn name_round_trip() {
        for kind in all_kinds() {
            assert_eq!(GateKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(GateKind::from_name("CNOT"), Some(GateKind::Cx));
        assert_eq!(GateKind::from_name("toffoli"), Some(GateKind::Ccx));
        assert_eq!(GateKind::from_name("bogus"), None);
    }

    #[test]
    fn diagonal_and_permutation_classification() {
        assert!(GateKind::Rz.is_diagonal());
        assert!(!GateKind::H.is_diagonal());
        assert!(GateKind::Cx.is_permutation_like());
        assert!(GateKind::X.is_permutation_like());
        assert!(!GateKind::H.is_permutation_like());
        assert!(!GateKind::Ry.is_permutation_like());
    }

    #[test]
    fn diagonal_gates_have_diagonal_tables() {
        for kind in all_kinds() {
            if !kind.is_diagonal() {
                continue;
            }
            let g = sample_gate(kind);
            for (i, o, _) in gate_table_entries(&g, 1e-12) {
                assert_eq!(i, o, "{} table must be diagonal", kind.name());
            }
        }
    }

    #[test]
    fn permutation_like_gates_have_one_output_per_input() {
        for kind in all_kinds() {
            if !kind.is_permutation_like() {
                continue;
            }
            let g = sample_gate(kind);
            let entries = gate_table_entries(&g, 1e-12);
            let dim = 1 << kind.arity();
            assert_eq!(entries.len(), dim, "{} should be a permutation", kind.name());
        }
    }

    #[test]
    fn rz_phase_relation() {
        // P(λ) = e^{iλ/2} Rz(λ): probabilities must agree.
        let lam = 0.77;
        let p = Gate::new(GateKind::Phase, vec![0], vec![lam]).matrix();
        let rz = Gate::new(GateKind::Rz, vec![0], vec![lam]).matrix();
        let phase = Complex64::from_phase(lam / 2.0);
        assert!(p.approx_eq(&rz.scale(phase), TOL));
    }
}
