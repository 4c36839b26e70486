//! The serving benchmark of uncertain-db.
//!
//! One command runs a named workload against the real line protocol
//! (`udb_serve` over its TCP front, in a child process), checks every
//! reply, and prints one JSON line of metrics. With `--trace 1` it also
//! replays the same ops in process with spans around every layer call
//! and prints the per-layer metrics instead. See `README.md` beside
//! this crate for the workloads and the metric definitions.

pub mod calib;
pub mod check;
pub mod client;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
