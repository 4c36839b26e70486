//! Geometry kernel for the uncertain-db workspace.
//!
//! Provides the primitives every pruning criterion in the paper is built on:
//! points, one-dimensional [`Interval`]s, axis-aligned [`Rect`]angles
//! (uncertainty regions / MBRs), [`LpNorm`] distance functions and the
//! interval-to-point `MinDist`/`MaxDist` decompositions used by both the
//! classical MinMax criterion and the optimal domination criterion
//! (Corollary 1 of the paper).
//!
//! All coordinates are `f64`. Rectangles are closed boxes `[lo, hi]^d` with
//! `lo <= hi` per dimension (degenerate, zero-extent boxes represent certain
//! points).

pub mod codec;
pub mod interval;
pub mod norm;
pub mod point;
pub mod rect;

pub use interval::Interval;
pub use norm::LpNorm;
pub use point::Point;
pub use rect::Rect;

/// Crate-wide absolute tolerance used by approximate comparisons in tests
/// and by degenerate-geometry guards.
pub const EPSILON: f64 = 1e-12;
