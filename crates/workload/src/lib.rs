//! Workload generators reproducing the paper's evaluation datasets (§VII).
//!
//! * [`synthetic`] — "a synthetic dataset with 10,000 objects modeled as 2D
//!   rectangles. The degree of uncertainty of the objects in each dimension
//!   is modeled by their relative extent. The extents were generated
//!   uniformly and at random with 0.004 as maximum value."
//! * [`iceberg`] — a simulation of the International Ice Patrol (IIP)
//!   Iceberg Sightings dataset (6,216 objects, Gaussian positional noise
//!   scaled by the time since the latest sighting, maximum extent 0.0004).
//!   The real dataset is not redistributable here; the generator
//!   reproduces its statistical shape (see the [`iceberg`] module docs).
//! * [`query`] — helpers for the paper's query protocol ("we chose B to be
//!   the object with the 10th smallest MinDist to the reference object").
//! * [`stream`] — query-stream workloads for serving benchmarks: mixed
//!   kNN/RkNN/top-`m` traffic and mutations arriving in batches, with
//!   optional hot-spot skew.
//!
//! The crate only generates data; it does not depend on the engine.

pub mod iceberg;
pub mod query;
pub mod stream;
pub mod synthetic;

pub use iceberg::IcebergConfig;
pub use query::{target_by_min_dist_rank, QuerySet};
pub use stream::{MixCounts, QueryStream, QueryStreamConfig, StreamOp, StreamQuery};
pub use synthetic::{PdfKind, SyntheticConfig};
