//! Uncertain objects, uncertain databases and the kd-tree decomposition of
//! object PDFs.
//!
//! An [`UncertainObject`] pairs a bounded PDF (the model of §I-A) with its
//! minimal bounding rectangle; a [`Database`] is the collection
//! `D = {o_1..o_N}` the queries run against. The [`decomposition`] module
//! implements the progressive median-split partitioning of §V: every
//! iteration of the IDCA algorithm deepens each object's kd-tree by one
//! level, yielding disjoint subregions with known probability masses — the
//! ingredients of the probabilistic domination bounds (Lemmas 1–2).

pub mod database;
pub mod decomposition;
pub mod object;

pub use database::Database;
pub use decomposition::{DecompLevel, Decomposition, Partition, SplitStrategy};
pub use object::{ObjectId, UncertainObject};
// Re-exported so downstream crates that work with object decompositions
// (e.g. the shared decomposition cache in udb-core) can name the density
// type without a direct udb-pdf dependency.
pub use udb_pdf::Pdf;
