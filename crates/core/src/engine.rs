//! The end-to-end engine (Fig. 1): circuit in, backend chosen or specified,
//! simulation out, metrics logged.

use std::time::{Duration, Instant};

use qymera_circuit::QuantumCircuit;
use qymera_sim::{
    DdSim, MpsSim, SimError, SimOptions, SimOutput, Simulator, SparseSim, StateVectorSim,
};
use qymera_translate::{SqlSimConfig, SqlSimulator};

/// Every simulation backend the system supports (§3.3's method list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's contribution: circuits translated to SQL (`qymera-translate`).
    Sql,
    /// Dense state vector (conventional baseline).
    StateVector,
    /// Sparse hash-map state.
    Sparse,
    /// Matrix product state (tensor network).
    Mps,
    /// Decision diagram (QMDD).
    Dd,
}

impl BackendKind {
    /// Every backend, in the paper's presentation order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Sql,
        BackendKind::StateVector,
        BackendKind::Sparse,
        BackendKind::Mps,
        BackendKind::Dd,
    ];

    /// Stable lowercase name used in CLI arguments and reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Sql => "sql",
            BackendKind::StateVector => "statevector",
            BackendKind::Sparse => "sparse",
            BackendKind::Mps => "mps",
            BackendKind::Dd => "dd",
        }
    }

    /// Parse a backend from its [`Self::name`] (case-insensitive).
    pub fn from_name(name: &str) -> Option<BackendKind> {
        Self::ALL.iter().copied().find(|b| b.name() == name.to_ascii_lowercase())
    }

    /// Instantiate the backend with default configuration.
    pub fn make(&self) -> Box<dyn Simulator> {
        match self {
            BackendKind::Sql => Box::new(SqlSimulator::default()),
            BackendKind::StateVector => Box::new(StateVectorSim),
            BackendKind::Sparse => Box::new(SparseSim),
            BackendKind::Mps => Box::new(MpsSim),
            BackendKind::Dd => Box::new(DdSim),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One backend's measured run on one circuit — the Output Layer's
/// "performance metrics … logged and displayed for each simulation method".
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Backend name (see [`BackendKind::name`]).
    pub backend: String,
    /// Name of the simulated circuit.
    pub circuit: String,
    /// Register width of the circuit.
    pub num_qubits: usize,
    /// Number of gates executed (before any backend-side fusion).
    pub gate_count: usize,
    /// Wall-clock time of the run in microseconds.
    pub wall_micros: u128,
    /// Peak bytes of the backend's state representation (0 on error).
    pub memory_bytes: usize,
    /// Nonzero amplitudes in the final state (0 on error).
    pub support: usize,
    /// Σ|a|² of the final state (should be ≈ 1).
    pub norm_sqr: f64,
    /// Backend-specific annotations (fusion counts, spill statistics, …).
    pub detail: String,
    /// The failure, if the run errored (out of memory, too many qubits, …).
    pub error: Option<String>,
    /// The final state, if the run succeeded.
    pub output: Option<SimOutput>,
}

impl RunReport {
    /// True when the run completed without error.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// Wall-clock time as a [`Duration`].
    pub fn wall(&self) -> Duration {
        Duration::from_micros(self.wall_micros as u64)
    }
}

/// The simulation engine: runs circuits on chosen backends with shared
/// options, timing every run.
///
/// # Examples
///
/// ```
/// use qymera_core::{BackendKind, Engine};
/// use qymera_circuit::library;
///
/// let engine = Engine::with_defaults();
/// let report = engine.run(BackendKind::Sql, &library::ghz(3));
/// assert!(report.ok());
/// assert_eq!(report.support, 2); // GHZ has two nonzero amplitudes
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    /// Options shared by every backend run (memory limit, truncation, …).
    pub opts: SimOptions,
}

impl Engine {
    /// Engine with explicit simulation options.
    pub fn new(opts: SimOptions) -> Self {
        Engine { opts }
    }

    /// Engine with default options (no memory limit).
    pub fn with_defaults() -> Self {
        Engine { opts: SimOptions::default() }
    }

    /// Run `circuit` on `backend`, producing a report (errors included).
    pub fn run(&self, backend: BackendKind, circuit: &QuantumCircuit) -> RunReport {
        let sim = backend.make();
        self.run_with(sim.as_ref(), circuit)
    }

    /// Run with an explicitly-configured simulator instance (e.g. a
    /// [`SqlSimulator`] with fusion off).
    pub fn run_with(&self, sim: &dyn Simulator, circuit: &QuantumCircuit) -> RunReport {
        let start = Instant::now();
        let result = sim.simulate(circuit, &self.opts);
        let wall = start.elapsed();
        self.report_from(sim.name(), circuit, wall, result)
    }

    fn report_from(
        &self,
        backend: &str,
        circuit: &QuantumCircuit,
        wall: Duration,
        result: Result<SimOutput, SimError>,
    ) -> RunReport {
        match result {
            Ok(out) => RunReport {
                backend: backend.to_string(),
                circuit: circuit.name.clone(),
                num_qubits: circuit.num_qubits,
                gate_count: circuit.gate_count(),
                wall_micros: wall.as_micros(),
                memory_bytes: out.memory_bytes,
                support: out.nonzero_count(),
                norm_sqr: out.norm_sqr(),
                detail: out.detail.clone(),
                error: None,
                output: Some(out),
            },
            Err(e) => RunReport {
                backend: backend.to_string(),
                circuit: circuit.name.clone(),
                num_qubits: circuit.num_qubits,
                gate_count: circuit.gate_count(),
                wall_micros: wall.as_micros(),
                memory_bytes: 0,
                support: 0,
                norm_sqr: 0.0,
                detail: String::new(),
                error: Some(e.to_string()),
                output: None,
            },
        }
    }

    /// Run the same circuit on several backends (Scenario 2's comparison).
    pub fn compare(&self, circuit: &QuantumCircuit, backends: &[BackendKind]) -> Vec<RunReport> {
        backends.iter().map(|b| self.run(*b, circuit)).collect()
    }

    /// Configure a SQL backend variant (fusion, mode) and run it.
    pub fn run_sql_configured(
        &self,
        config: SqlSimConfig,
        circuit: &QuantumCircuit,
    ) -> RunReport {
        let sim = SqlSimulator::new(config);
        self.run_with(&sim, circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qymera_circuit::library;

    #[test]
    fn backend_name_round_trip() {
        for b in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(b.name()), Some(b));
            assert_eq!(b.make().name(), b.name());
        }
        assert_eq!(BackendKind::from_name("SQL"), Some(BackendKind::Sql));
        assert_eq!(BackendKind::from_name("nope"), None);
    }

    #[test]
    fn all_backends_agree_on_ghz() {
        let engine = Engine::with_defaults();
        let reports = engine.compare(&library::ghz(4), &BackendKind::ALL);
        for r in &reports {
            assert!(r.ok(), "{} failed: {:?}", r.backend, r.error);
            assert_eq!(r.support, 2, "{}", r.backend);
            assert!((r.norm_sqr - 1.0).abs() < 1e-9, "{}", r.backend);
        }
        // Every backend found the same two components.
        let base = reports[0].output.as_ref().unwrap();
        for r in &reports[1..] {
            let diff = base.max_amplitude_diff(r.output.as_ref().unwrap());
            assert!(diff < 1e-8, "{} diverges by {diff}", r.backend);
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let engine = Engine::new(SimOptions::with_memory_limit(1024));
        let r = engine.run(BackendKind::StateVector, &library::ghz(20));
        assert!(!r.ok());
        assert!(r.error.as_ref().unwrap().contains("bytes"));
    }

    #[test]
    fn run_sql_configured_applies_fusion() {
        let engine = Engine::with_defaults();
        let r = engine.run_sql_configured(
            SqlSimConfig { fusion: Some(2), ..Default::default() },
            &library::ghz(4),
        );
        assert!(r.ok());
        assert_eq!(r.support, 2);
    }
}
