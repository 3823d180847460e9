//! Host-time benchmark of the ReDHiP simulator.
//!
//! Untraced iterations give the end-to-end metrics; a separate traced pass
//! per workload gives the per-layer breakdown. Every timing is taken here,
//! around calls into the simulator crates' public functions; nothing
//! inside the program is instrumented. `run.py` builds this package, runs
//! its binary and reports the result.

pub mod checks;
pub mod clock;
pub mod measure;
pub mod tracer;
pub mod workload;
