//! # qymera-translate
//!
//! The Translation Layer of the Qymera reproduction (§2 and §3.2 of the
//! paper): quantum states become tables `T(s, r, i)`, gates become tables
//! `G(in_s, out_s, r, i)`, and each gate application becomes a
//! `JOIN … GROUP BY` with bitwise index arithmetic, chained through CTEs —
//! or, for a lone gate that cannot interfere, a projection of the previous
//! state in closed form.
//! [`SqlSimulator`] executes the generated SQL on the embedded engine in
//! `qymera-sqldb` and implements the common `Simulator` trait.

#![warn(missing_docs)]

pub mod fusion;
pub mod masks;
pub mod measure;
pub mod runner;
pub mod sqlgen;
pub mod tables;

pub use masks::{GateMasks, StateEncoding};
pub use qymera_sqldb::CancelHandle;
pub use runner::{ExecMode, SqlAmplitude, SqlRunResult, SqlSimConfig, SqlSimulator, SqlTrace};
pub use sqlgen::{circuit_query, gate_select, SqlGenConfig};
pub use tables::{GateOp, GateTableRegistry};
