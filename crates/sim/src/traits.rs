//! The common simulator interface and result type.
//!
//! Every backend (§3.3 of the paper: state-vector, sparse, tensor-network
//! MPS, decision diagram — plus the SQL engine in `qymera-translate`)
//! produces a [`SimOutput`]: the final state's nonzero amplitudes, as
//! [`Amplitudes`] in basis-state order, plus the representation's peak
//! memory footprint, which is the metric the paper's benchmarking suite
//! reports alongside wall time.

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
    /// A backend handed over its final state out of basis-state order or
    /// with a basis state twice: `index` came right after `previous`.
    Unordered { index: u64, previous: u64 },
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
            SimError::Unordered { index, previous } => {
                write!(f, "basis state {index} follows {previous}: amplitudes out of order")
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

/// The nonzero amplitudes of a final state: `(basis index, amplitude)`
/// pairs with strictly ascending indices, so a lookup is a binary search
/// and two states compare in one merge. Every constructor refuses an index
/// that does not exceed the one before it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Amplitudes(Vec<(u64, Complex64)>);

impl Amplitudes {
    /// An empty state with room for `n` amplitudes.
    pub fn with_capacity(n: usize) -> Self {
        Amplitudes(Vec::with_capacity(n))
    }

    /// Append basis state `s`, which must exceed every index held so far.
    pub fn push(&mut self, s: u64, a: Complex64) -> Result<(), SimError> {
        match self.0.last() {
            Some(&(previous, _)) if s <= previous => {
                Err(SimError::Unordered { index: s, previous })
            }
            _ => {
                self.0.push((s, a));
                Ok(())
            }
        }
    }

    /// Sort `pairs` by basis index; refused if an index occurs twice.
    pub fn from_unsorted(mut pairs: Vec<(u64, Complex64)>) -> Result<Self, SimError> {
        pairs.sort_unstable_by_key(|&(s, _)| s);
        match pairs.windows(2).find(|w| w[1].0 == w[0].0) {
            Some(w) => Err(SimError::Unordered { index: w[1].0, previous: w[0].0 }),
            None => Ok(Amplitudes(pairs)),
        }
    }

    /// The amplitude of basis state `s`, if stored.
    pub fn get(&self, s: &u64) -> Option<&Complex64> {
        let k = self.0.binary_search_by_key(s, |&(t, _)| t).ok()?;
        Some(&self.0[k].1)
    }

    /// Number of stored amplitudes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if no amplitude is stored.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `(basis index, amplitude)` in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.0.iter())
    }

    /// The basis indices, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &u64> {
        self.0.iter().map(|(s, _)| s)
    }

    /// The amplitudes, in basis-index order.
    pub fn values(&self) -> impl Iterator<Item = &Complex64> {
        self.0.iter().map(|(_, a)| a)
    }
}

/// Iterator over [`Amplitudes`], yielding `(&index, &amplitude)` like a
/// map's.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, (u64, Complex64)>);

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a u64, &'a Complex64);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(s, a)| (s, a))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<'a> IntoIterator for &'a Amplitudes {
    type Item = (&'a u64, &'a Complex64);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Call `f` on every basis index in the union of two supports, ascending,
/// with each side's amplitude there (zero where it stores none).
fn merge_union(
    a: &[(u64, Complex64)],
    b: &[(u64, Complex64)],
    mut f: impl FnMut(Complex64, Complex64),
) {
    let (mut i, mut j) = (0, 0);
    loop {
        let (x, y) = match (a.get(i), b.get(j)) {
            (None, None) => break,
            (Some(&(s, x)), Some(&(t, y))) if s == t => {
                i += 1;
                j += 1;
                (x, y)
            }
            (Some(&(s, x)), Some(&(t, _))) if s < t => {
                i += 1;
                (x, Complex64::ZERO)
            }
            (Some(&(_, x)), None) => {
                i += 1;
                (x, Complex64::ZERO)
            }
            (_, Some(&(_, y))) => {
                j += 1;
                (Complex64::ZERO, y)
            }
        };
        f(x, y);
    }
}

/// Final state: nonzero amplitudes in basis-state order, plus metrics.
#[derive(Debug, Clone)]
pub struct SimOutput {
    pub num_qubits: usize,
    /// Nonzero amplitudes, ascending by basis index.
    pub amplitudes: Amplitudes,
    /// Peak bytes the backend's state representation occupied.
    pub memory_bytes: usize,
    /// Backend-specific note (e.g. max bond dimension, DD node count).
    pub detail: String,
}

impl SimOutput {
    /// An output built from a map, for callers that collect the state into
    /// one.
    pub fn from_map(
        num_qubits: usize,
        amplitudes: BTreeMap<u64, Complex64>,
        memory_bytes: usize,
    ) -> Self {
        let amplitudes = Amplitudes(amplitudes.into_iter().collect());
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
        merge_union(&self.amplitudes.0, &other.amplitudes.0, |a, b| dot += a.conj() * b);
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
        let mut diff = 0.0;
        merge_union(&self.amplitudes.0, &other.amplitudes.0, |a, b| {
            diff = f64::max(diff, (a * phase - b).abs());
        });
        diff
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
        let phase = Complex64::from_phase(1.2);
        let map: BTreeMap<u64, Complex64> = o.amplitudes.iter().map(|(&s, &a)| (s, a)).collect();
        let rotated = map.iter().map(|(&s, &a)| (s, a * phase)).collect();
        assert!(o.max_amplitude_diff(&SimOutput::from_map(3, rotated, 32)) < 1e-12);
        // but a genuinely different state has a large diff
        let mut different = map;
        different.insert(3, c64(0.5, 0.0));
        assert!(o.max_amplitude_diff(&SimOutput::from_map(3, different, 32)) > 0.4);
    }

    #[test]
    fn amplitudes_refuse_unsorted_and_duplicate_input() {
        let a = |s: u64| (s, c64(s as f64, 0.0));
        let unordered = |index, previous| SimError::Unordered { index, previous };
        assert_eq!(Amplitudes::from_unsorted(vec![a(5), a(1), a(5)]), Err(unordered(5, 5)));
        let sorted = Amplitudes::from_unsorted(vec![a(9), a(0), a(4)]).unwrap();
        assert_eq!(sorted.iter().map(|(&s, &x)| (s, x)).collect::<Vec<_>>(), [a(0), a(4), a(9)]);

        let mut pushed = Amplitudes::with_capacity(2);
        assert_eq!(pushed.push(4, c64(4.0, 0.0)), Ok(()));
        assert_eq!(pushed.push(4, c64(4.0, 0.0)), Err(unordered(4, 4)));
        assert_eq!(pushed.push(2, c64(2.0, 0.0)), Err(unordered(2, 4)));
        assert_eq!(pushed.push(7, c64(7.0, 0.0)), Ok(()));
        assert_eq!(pushed.keys().copied().collect::<Vec<_>>(), [4, 7]);
    }

    #[test]
    fn get_finds_present_and_absent_keys() {
        let pairs = (0..50).rev().map(|k| (3 * k + 1, c64(k as f64, 1.0)));
        let amps = Amplitudes::from_unsorted(pairs.collect()).unwrap();
        for k in 0..50u64 {
            assert_eq!(amps.get(&(3 * k + 1)), Some(&c64(k as f64, 1.0)));
            assert_eq!(amps.get(&(3 * k)), None);
            assert_eq!(amps.get(&(3 * k + 2)), None);
        }
        assert_eq!(amps.get(&u64::MAX), None);
        assert_eq!(Amplitudes::default().get(&0), None);
    }

    #[test]
    fn from_map_round_trips() {
        let map: BTreeMap<u64, Complex64> =
            [(7, c64(0.5, -0.5)), (0, c64(-0.0, 0.25)), (u64::MAX, c64(1e-300, 0.0))].into();
        let out = SimOutput::from_map(64, map.clone(), 0);
        assert_eq!(out.amplitudes.len(), 3);
        let back: BTreeMap<u64, Complex64> = out.amplitudes.iter().map(|(&s, &a)| (s, a)).collect();
        assert_eq!(back, map);
        assert!((&out.amplitudes).into_iter().map(|(s, _)| *s).eq(map.keys().copied()));
        assert!(out.amplitudes.values().eq(map.values()));
    }

    /// `fidelity` and `max_amplitude_diff` as they were written over maps:
    /// a lookup per key of `self`, then the sorted union of both key sets.
    fn map_fidelity(a: &BTreeMap<u64, Complex64>, b: &BTreeMap<u64, Complex64>) -> f64 {
        let at = |m: &BTreeMap<u64, Complex64>, s: u64| m.get(&s).copied().unwrap_or_default();
        let mut dot = Complex64::ZERO;
        for (s, x) in a {
            dot += x.conj() * at(b, *s);
        }
        dot.norm_sqr()
    }

    fn map_max_diff(a: &BTreeMap<u64, Complex64>, b: &BTreeMap<u64, Complex64>) -> f64 {
        let at = |m: &BTreeMap<u64, Complex64>, s: u64| m.get(&s).copied().unwrap_or_default();
        let phase = a
            .iter()
            .max_by(|x, y| x.1.norm_sqr().total_cmp(&y.1.norm_sqr()))
            .map(|(s, x)| {
                let o = at(b, *s);
                if o.norm_sqr() > 0.0 && x.norm_sqr() > 0.0 {
                    let ratio = o * x.conj();
                    let mag = ratio.abs();
                    if mag > 0.0 {
                        return ratio.scale(1.0 / mag);
                    }
                }
                Complex64::ONE
            })
            .unwrap_or(Complex64::ONE);
        let mut keys: Vec<u64> = a.keys().chain(b.keys()).copied().collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter().map(|s| (at(a, s) * phase - at(b, s)).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn merged_comparisons_equal_the_map_formulas_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        let state = |rng: &mut StdRng, len: usize, keys: &dyn Fn(u64) -> u64| {
            let mut m = BTreeMap::new();
            for _ in 0..len {
                let s = keys(rng.gen_range(0..40u64));
                m.insert(s, c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)));
            }
            m
        };
        let any = |k: u64| k;
        let even = |k: u64| 2 * k;
        let odd = |k: u64| 2 * k + 1;
        for case in 0..400 {
            let (la, lb) = (rng.gen_range(0..30usize), rng.gen_range(0..30usize));
            let (a, b) = match case % 4 {
                0 => (state(&mut rng, la, &any), state(&mut rng, lb, &any)),
                1 => (state(&mut rng, la, &even), state(&mut rng, lb, &odd)),
                2 => (BTreeMap::new(), state(&mut rng, lb, &any)),
                _ => {
                    // The same support, rotated: the phase alignment matters.
                    let a = state(&mut rng, la, &any);
                    let phase = Complex64::from_phase(rng.gen_range(-3.0..3.0));
                    let b = a.iter().map(|(&s, &x)| (s, x * phase)).collect();
                    (a, b)
                }
            };
            for (x, y) in [(&a, &b), (&b, &a)] {
                let (ox, oy) =
                    (SimOutput::from_map(6, x.clone(), 0), SimOutput::from_map(6, y.clone(), 0));
                let ctx = format!("case {case}: {x:?} vs {y:?}");
                assert_eq!(ox.fidelity(&oy).to_bits(), map_fidelity(x, y).to_bits(), "{ctx}");
                assert_eq!(
                    ox.max_amplitude_diff(&oy).to_bits(),
                    map_max_diff(x, y).to_bits(),
                    "{ctx}"
                );
            }
        }
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
