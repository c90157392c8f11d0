//! Query planning and optimization.

pub mod keys;
pub mod logical;
pub mod optimizer;
