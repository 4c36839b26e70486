//! Experiment harness regenerating every figure of the paper's evaluation
//! (§VII) plus three ablations of design choices: UGF vs two regular
//! generating functions, the kd-split strategy and UGF truncation.
//!
//! Each `fig*` function returns a [`Table`] with the same series the paper
//! plots; the `experiments` binary prints them as CSV/JSON. All experiments accept
//! a [`Scale`] so CI runs shrink the datasets while `--paper` reproduces
//! the full parameters.

pub mod experiments;
pub mod harness;

pub use harness::{Scale, Table};
