//! # uncertain-db
//!
//! A probabilistic-pruning library for similarity queries on uncertain
//! databases — a from-scratch Rust reproduction of Bernecker, Emrich,
//! Kriegel, Mamoulis, Renz & Züfle, *"A Novel Probabilistic Pruning
//! Approach to Speed Up Similarity Queries in Uncertain Databases"*
//! (ICDE 2011).
//!
//! The facade re-exports the workspace crates:
//!
//! * [`geometry`] — points, intervals, rectangles, `Lp` norms;
//! * [`pdf`] — bounded densities (uniform, truncated Gaussian, correlated
//!   histograms, discrete alternatives, mixtures);
//! * [`object`] — uncertain objects, databases, kd-tree decomposition;
//! * [`domination`] — the optimal & MinMax spatial domination criteria
//!   and probabilistic domination bounds;
//! * [`genfunc`] — Poisson-binomial, classic generating functions and the
//!   paper's Uncertain Generating Functions;
//! * [`index`] — an R-tree over object MBRs;
//! * [`core`] — the IDCA refinement engine and the query layer
//!   (threshold kNN/RkNN, inverse ranking, expected ranks);
//! * [`mc`] — the Monte-Carlo comparison baseline;
//! * [`workload`] — the paper's evaluation workload generators (data
//!   only: the `udb-serve` crate's `Server` is what executes a
//!   generated query stream).
//!
//! ## Quickstart
//!
//! ```
//! use uncertain_db::prelude::*;
//!
//! // three uncertain objects on a line, a certain query at the origin
//! let db = Database::from_objects(vec![
//!     UncertainObject::new(Pdf::uniform(Rect::centered(
//!         &Point::from([1.0, 0.0]),
//!         &[0.2, 0.0],
//!     ))),
//!     UncertainObject::new(Pdf::uniform(Rect::centered(
//!         &Point::from([2.0, 0.0]),
//!         &[0.2, 0.0],
//!     ))),
//!     UncertainObject::certain(Point::from([3.0, 0.0])),
//! ]);
//! let q = UncertainObject::certain(Point::from([0.0, 0.0]));
//!
//! // probabilistic threshold 1NN: which objects are the nearest
//! // neighbour of q with probability > 0.5? The owned engine keeps the
//! // R-tree and a persistent decomposition cache, and mutates in place.
//! let mut engine = Engine::new(db);
//! let results = engine.knn_threshold(&q, 1, 0.5);
//! assert!(results.iter().any(|r| r.id == ObjectId(0) && r.is_hit(0.5)));
//!
//! // an arrival: no rebuild, the index follows along
//! let id = engine.insert(UncertainObject::certain(Point::from([0.4, 0.0])));
//! assert!(engine.knn_threshold(&q, 1, 0.5)[0].id == id);
//! ```

pub use udb_core as core;
pub use udb_domination as domination;
pub use udb_genfunc as genfunc;
pub use udb_geometry as geometry;
pub use udb_index as index;
pub use udb_mc as mc;
pub use udb_object as object;
pub use udb_pdf as pdf;
pub use udb_workload as workload;

/// The commonly used types in one import.
pub mod prelude {
    pub use udb_core::{
        env_shards, refine_each, refine_top_m, DomCountSnapshot, DurableError, Engine,
        ExpectedRankEntry, IdcaConfig, ObjRef, PoolHandle, Predicate, QueryBatch, QuerySpec,
        RankDistribution, RecoveryReport, RefineGoal, RefineStats, Refiner, ResultDelta,
        ShardedEngine, StandingQuery, StandingSpec, StandingStats, ThresholdResult, WalRecord,
        WorkerPool,
    };
    pub use udb_domination::{DominationCriterion, PDomBounds};
    pub use udb_genfunc::{CountDistributionBounds, Ugf};
    pub use udb_geometry::{Interval, LpNorm, Point, Rect};
    pub use udb_index::RTree;
    pub use udb_mc::MonteCarlo;
    pub use udb_object::{Database, Decomposition, ObjectId, SplitStrategy, UncertainObject};
    pub use udb_pdf::{DiscretePdf, GaussianPdf, HistogramPdf, MixturePdf, Pdf, UniformPdf};
    pub use udb_workload::{
        IcebergConfig, MixCounts, QuerySet, QueryStream, QueryStreamConfig, StreamOp, StreamQuery,
        SyntheticConfig,
    };
}
