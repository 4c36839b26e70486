//! R-tree spatial index over MBRs.
//!
//! The substrate the query layer uses for candidate generation: the
//! paper's evaluation picks query targets by MinDist rank ("we chose B to
//! be the object with the 10th smallest MinDist to the reference object")
//! and its future-work section integrates the pruning into index-supported
//! kNN/RkNN processing. This crate provides
//!
//! * STR (Sort-Tile-Recursive) bulk loading,
//! * R*-flavoured insertion (minimum-overlap subtree choice, margin-driven
//!   axis split),
//! * best-first incremental nearest-neighbour search by box-to-box
//!   MinDist,
//! * distance-bounded and pruned traversals, and subtree
//!   classification by a containment-monotone predicate.

pub mod classify;
pub mod knn;
pub mod node;
pub mod rtree;

pub use classify::{ClassifyScratch, NodeDecision};
pub use knn::{KnnIter, Neighbor};
pub use rtree::RTree;
