//! Query planning and optimization.

pub mod logical;
pub mod optimizer;
