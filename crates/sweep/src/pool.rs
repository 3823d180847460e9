//! Re-export shim: the worker pool lives in the standalone `pool` crate and
//! now serves only the sweep engine. Every historical `sweep::pool::*` path
//! keeps working through this module.

pub use ::pool::{run_ordered, PoolError};
