//! IDCA — Iterative Domination Count Approximation — and the probabilistic
//! similarity query layer built on it (§V and §VI of the paper).
//!
//! The central object is the [`Refiner`], a faithful implementation of the
//! paper's Algorithm 1:
//!
//! 1. **Complete-domination filter** — every database object is classified
//!    against the target `B` and reference `R` with the optimal spatial
//!    criterion: certain dominators increment a counter, certainly
//!    dominated objects are dropped, and the rest form the
//!    *influence-object* set.
//! 2. **Iterative refinement** — each iteration deepens the kd-tree
//!    decomposition of `B`, `R` and all influence objects by one level;
//!    for every partition pair `(B', R')` the per-object domination bounds
//!    (independent by Lemma 5) feed an uncertain generating function, and
//!    the per-pair count bounds aggregate weighted by `P(B')·P(R')`
//!    (§IV-E).
//! 3. **Stop criterion** — iteration/uncertainty limits or, for threshold
//!    predicates, the moment the probability bounds decide the predicate.
//!
//! [`Engine`] is the one query surface. It maps the domination-count
//! machinery onto the query types of §VI: probabilistic inverse ranking
//! (Corollary 3), probabilistic threshold kNN (Corollary 4), threshold
//! RkNN (Corollary 5) and expected-rank ranking (Corollary 6).
//! [`ShardedEngine`] serves the threshold queries across shards. The
//! [`scan`] module holds linear-scan reference versions of the threshold
//! queries, used only as the oracle of tests and benches.

pub mod batch;
pub mod config;
pub mod decomp;
pub mod durable;
pub mod engine;
pub mod parallel;
pub mod queries;
pub mod refiner;
pub(crate) mod router;
pub mod scan;
pub mod shard;
pub mod standing;
pub mod wal;

pub use batch::{QueryBatch, QuerySpec};
pub use config::{IdcaConfig, ObjRef, Predicate, RefineGoal};
pub use decomp::{DecompCache, DECOMP_CACHE_ENTRIES};
pub use durable::{DurableError, RecoveryReport};
pub use engine::Engine;
pub use parallel::{PoolHandle, WorkerPool};
pub use queries::{ExpectedRankEntry, RankDistribution, ThresholdResult};
pub use refiner::{refine_each, refine_top_m, DbView, DomCountSnapshot, RefineStats, Refiner};
pub use shard::{env_shards, ShardedEngine};
pub use standing::{ResultDelta, StandingQuery, StandingSpec, StandingStats};
pub use wal::{
    read_wal_bytes, CrashPoint, DurableIo, FaultIo, FaultMode, FileIo, WalDefect, WalRecord,
};
