//! # qymera-core
//!
//! The Qymera system façade, mirroring the paper's four layers (Fig. 1):
//!
//! * **Circuit Layer** — lives in `qymera-circuit` (builder, file formats,
//!   parameterized families);
//! * **Translation Layer** — `qymera-translate` (circuits → SQL);
//! * **Simulation Layer** — [`engine::Engine`] runs any [`engine::BackendKind`]
//!   (SQL, state vector, sparse, MPS, decision diagram) under shared options,
//!   with [`select`] implementing the Method Selector;
//! * **Output Layer** — [`benchsuite`] collects metrics, renders tables, and
//!   exports CSV; `benchsuite::experiments` regenerates every
//!   quantitative artifact of the paper (see DESIGN.md's experiment index).

#![warn(missing_docs)]

pub mod benchsuite;
pub mod engine;
pub mod select;

pub use engine::{BackendKind, Engine, RunReport};
pub use select::{estimate_costs, select_method, Selection};
