//! # qymera-sim
//!
//! Baseline quantum-circuit simulators for the Qymera reproduction — the
//! "state-of-the-art simulation methods" the paper benchmarks its RDBMS
//! approach against (§3.3): dense state-vector, sparse hash-map, matrix
//! product state (tensor network), and decision diagram backends, all
//! implementing the common [`Simulator`] trait with byte-accounted memory
//! limits so the paper's 2.0 GB experiment applies uniformly.

pub mod dd;
pub mod decompose;
pub mod mps;
pub mod sparse;
pub mod statevector;
pub mod traits;

pub use dd::DdSim;
pub use decompose::decompose_to_two_qubit;
pub use mps::MpsSim;
pub use sparse::SparseSim;
pub use statevector::StateVectorSim;
pub use traits::{Amplitudes, SimError, SimOptions, SimOutput, Simulator};
