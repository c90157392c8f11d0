//! The common simulator interface and result type.
//!
//! Every backend (§3.3 of the paper: state-vector, sparse, tensor-network
//! MPS, decision diagram — plus the SQL engine in `qymera-translate`)
//! produces a [`SimOutput`]: the final state's nonzero amplitudes plus the
//! representation's peak memory footprint, which is the metric the paper's
//! benchmarking suite reports alongside wall time.

use std::collections::BTreeMap;

use qymera_circuit::{Complex64, QuantumCircuit};

/// Errors a simulation backend can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The backend cannot represent this many qubits at all (e.g. a dense
    /// state vector beyond the address space, or > 63 qubits for u64 basis
    /// indices).
    TooManyQubits { qubits: usize, max: usize },
    /// The memory budget cannot hold the state representation.
    OutOfMemory { requested: usize, limit: usize },
    /// Gate or feature outside the backend's capability.
    Unsupported(String),
    /// Internal numerical failure (e.g. SVD non-convergence).
    Numerical(String),
    /// The simulation was cancelled cooperatively (Ctrl-C or an explicit
    /// cancel handle); partial work was rolled back by the backend.
    Cancelled,
    /// The simulation exceeded its configured deadline.
    Timeout {
        /// The configured deadline in milliseconds.
        ms: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::TooManyQubits { qubits, max } => {
                write!(f, "{qubits} qubits exceeds backend maximum of {max}")
            }
            SimError::OutOfMemory { requested, limit } => {
                write!(f, "needs {requested} bytes, limit is {limit} bytes")
            }
            SimError::Unsupported(m) => write!(f, "unsupported: {m}"),
            SimError::Numerical(m) => write!(f, "numerical failure: {m}"),
            SimError::Cancelled => write!(f, "simulation cancelled"),
            SimError::Timeout { ms } => {
                write!(f, "simulation timed out after {ms} ms")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Backend-independent options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Memory limit in bytes for the state representation (the paper's
    /// 2.0 GB experiment sets this); `None` = unlimited.
    pub memory_limit: Option<usize>,
    /// MPS bond-dimension cap (`None` = exact, grows as needed).
    pub max_bond_dim: Option<usize>,
    /// Magnitude below which amplitudes/singular values are treated as zero.
    pub truncation_tol: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions { memory_limit: None, max_bond_dim: None, truncation_tol: 1e-12 }
    }
}

impl SimOptions {
    pub fn with_memory_limit(bytes: usize) -> Self {
        SimOptions { memory_limit: Some(bytes), ..Default::default() }
    }
}

/// Final state: nonzero amplitudes keyed by basis-state index, plus metrics.
#[derive(Debug, Clone)]
pub struct SimOutput {
    pub num_qubits: usize,
    /// Sorted nonzero amplitudes (basis index → amplitude).
    pub amplitudes: BTreeMap<u64, Complex64>,
    /// Peak bytes the backend's state representation occupied.
    pub memory_bytes: usize,
    /// Backend-specific note (e.g. max bond dimension, DD node count).
    pub detail: String,
}

impl SimOutput {
    pub fn from_map(
        num_qubits: usize,
        amplitudes: BTreeMap<u64, Complex64>,
        memory_bytes: usize,
    ) -> Self {
        SimOutput { num_qubits, amplitudes, memory_bytes, detail: String::new() }
    }

    /// Number of stored (nonzero) amplitudes.
    pub fn nonzero_count(&self) -> usize {
        self.amplitudes.len()
    }

    /// Amplitude of basis state `s` (zero if absent).
    pub fn amplitude(&self, s: u64) -> Complex64 {
        self.amplitudes.get(&s).copied().unwrap_or(Complex64::ZERO)
    }

    /// Measurement probability of basis state `s`.
    pub fn probability(&self, s: u64) -> f64 {
        self.amplitude(s).norm_sqr()
    }

    /// Σ|a|² — should be 1 for a valid run.
    pub fn norm_sqr(&self) -> f64 {
        self.amplitudes.values().map(|a| a.norm_sqr()).sum()
    }

    /// Probability of measuring qubit `q` as 1.
    pub fn qubit_one_probability(&self, q: usize) -> f64 {
        self.amplitudes
            .iter()
            .filter(|(s, _)| (*s >> q) & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// |⟨self|other⟩|² — state fidelity between two pure outputs.
    pub fn fidelity(&self, other: &SimOutput) -> f64 {
        let mut dot = Complex64::ZERO;
        for (s, a) in &self.amplitudes {
            dot += a.conj() * other.amplitude(*s);
        }
        dot.norm_sqr()
    }

    /// Max |a_self(s) − a_other(s)| over the union of supports, modulo a
    /// global phase (aligned on the largest amplitude of `self`).
    pub fn max_amplitude_diff(&self, other: &SimOutput) -> f64 {
        // Align global phase using the largest-|a| entry of self.
        let phase = self
            .amplitudes
            .iter()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
            .map(|(s, a)| {
                let o = other.amplitude(*s);
                if o.norm_sqr() > 0.0 && a.norm_sqr() > 0.0 {
                    let ratio = o * a.conj();
                    let mag = ratio.abs();
                    if mag > 0.0 {
                        return ratio.scale(1.0 / mag);
                    }
                    Complex64::ONE
                } else {
                    Complex64::ONE
                }
            })
            .unwrap_or(Complex64::ONE);
        let mut keys: Vec<u64> = self.amplitudes.keys().copied().collect();
        keys.extend(other.amplitudes.keys().copied());
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|s| (self.amplitude(s) * phase - other.amplitude(s)).abs())
            .fold(0.0, f64::max)
    }

    /// Sample `shots` measurement outcomes in the computational basis using
    /// the given RNG (inverse-CDF over the stored nonzero amplitudes) —
    /// the Output Layer's "measurement outcomes".
    pub fn sample_counts(
        &self,
        shots: usize,
        rng: &mut impl rand::Rng,
    ) -> std::collections::BTreeMap<u64, usize> {
        // Cumulative distribution over the support.
        let mut cdf: Vec<(f64, u64)> = Vec::with_capacity(self.amplitudes.len());
        let mut acc = 0.0;
        for (s, a) in &self.amplitudes {
            acc += a.norm_sqr();
            cdf.push((acc, *s));
        }
        let total = acc.max(f64::MIN_POSITIVE);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..shots {
            let x: f64 = rng.gen_range(0.0..total);
            let idx = cdf.partition_point(|(c, _)| *c <= x).min(cdf.len() - 1);
            *counts.entry(cdf[idx].1).or_insert(0) += 1;
        }
        counts
    }

    /// The `k` most probable basis states, descending.
    pub fn top_k(&self, k: usize) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self
            .amplitudes
            .iter()
            .map(|(s, a)| (*s, a.norm_sqr()))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Render `|bits⟩: prob` lines for the `k` most probable states
    /// (educational output, Scenario 3).
    pub fn render_probabilities(&self, k: usize) -> String {
        let mut out = String::new();
        for (s, p) in self.top_k(k) {
            let bits: String = (0..self.num_qubits)
                .rev()
                .map(|q| if (s >> q) & 1 == 1 { '1' } else { '0' })
                .collect();
            out.push_str(&format!("|{bits}⟩  p = {p:.6}\n"));
        }
        out
    }
}

/// A simulation backend.
pub trait Simulator {
    /// Short stable identifier ("statevector", "sparse", "mps", "dd", "sql").
    fn name(&self) -> &'static str;

    /// Run `circuit` from `|0…0⟩` and return the final state.
    fn simulate(&self, circuit: &QuantumCircuit, opts: &SimOptions)
        -> Result<SimOutput, SimError>;

    /// Largest register this backend can represent under `opts` (used by the
    /// max-qubits experiment to avoid probing sizes that cannot allocate).
    fn max_qubits(&self, opts: &SimOptions) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_circuit::c64;

    fn ghz_output() -> SimOutput {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut m = BTreeMap::new();
        m.insert(0u64, c64(s, 0.0));
        m.insert(7u64, c64(s, 0.0));
        SimOutput::from_map(3, m, 32)
    }

    #[test]
    fn probabilities_and_norm() {
        let o = ghz_output();
        assert!((o.norm_sqr() - 1.0).abs() < 1e-12);
        assert!((o.probability(0) - 0.5).abs() < 1e-12);
        assert_eq!(o.probability(3), 0.0);
        assert!((o.qubit_one_probability(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fidelity_self_is_one() {
        let o = ghz_output();
        assert!((o.fidelity(&o) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_diff_ignores_global_phase() {
        let o = ghz_output();
        let mut rotated = o.clone();
        let phase = Complex64::from_phase(1.2);
        for a in rotated.amplitudes.values_mut() {
            *a *= phase;
        }
        assert!(o.max_amplitude_diff(&rotated) < 1e-12);
        // but a genuinely different state has a large diff
        let mut different = o.clone();
        different.amplitudes.insert(3, c64(0.5, 0.0));
        assert!(o.max_amplitude_diff(&different) > 0.4);
    }

    #[test]
    fn top_k_and_render() {
        let o = ghz_output();
        let top = o.top_k(5);
        assert_eq!(top.len(), 2);
        let text = o.render_probabilities(2);
        assert!(text.contains("|000⟩"));
        assert!(text.contains("|111⟩"));
        assert!(text.contains("0.5000"));
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;
    use qymera_circuit::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampling_matches_distribution() {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let mut m = BTreeMap::new();
        m.insert(0u64, c64(s, 0.0));
        m.insert(7u64, c64(s, 0.0));
        let out = SimOutput::from_map(3, m, 32);
        let mut rng = StdRng::seed_from_u64(42);
        let counts = out.sample_counts(10_000, &mut rng);
        assert_eq!(counts.keys().copied().collect::<Vec<_>>(), vec![0, 7]);
        let p0 = counts[&0] as f64 / 10_000.0;
        assert!((p0 - 0.5).abs() < 0.03, "p0 = {p0}");
    }

    #[test]
    fn sampling_deterministic_state() {
        let mut m = BTreeMap::new();
        m.insert(5u64, Complex64::ONE);
        let out = SimOutput::from_map(3, m, 16);
        let mut rng = StdRng::seed_from_u64(1);
        let counts = out.sample_counts(100, &mut rng);
        assert_eq!(counts.get(&5), Some(&100));
    }
}
