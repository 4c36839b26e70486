//! Shared harness for the equivalence suites: an engine-under-test
//! that honors the `UDB_SHARDS` CI matrix axis.
//!
//! With `UDB_SHARDS` unset (or `1`) the suites exercise a one-shard
//! [`ShardedEngine`], which delegates every query and batch to the
//! plain [`Engine`] code path — asserted by
//! [`TestEngine::assert_routing`] via the router-level refinement
//! counters staying at zero. With `UDB_SHARDS=2` or `4` the identical
//! suites route through the cross-shard query plane, so every
//! bit-identity oracle in the repo doubles as a sharding oracle.
//!
//! The harness keeps a [`Database`] mirror of the engine state: the
//! sharded engine assigns global ids in arrival order — exactly the
//! ids a single database would assign — so replaying the same
//! mutations against the mirror keeps it id-aligned, giving the suites
//! a `db()` view (live ids, oracle rebuilds) without the engine
//! needing a cross-shard database materialization.

// each test binary compiles its own copy and uses a different subset
#![allow(dead_code)]

use uncertain_db::prelude::*;

/// The `UDB_SHARDS` axis value (default 1).
pub fn shards() -> usize {
    env_shards().unwrap_or(1)
}

/// The protocol lines of `udb_serve::generate_script`: every object of
/// the synthetic database as an `INSERT`, then the stream's operations,
/// then `STATS`, `FLUSH` and `QUIT`.
pub fn script_lines(objects: &SyntheticConfig, stream: &QueryStreamConfig) -> Vec<String> {
    udb_serve::generate_script(objects, stream)
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Asserts the routing contract for the engine's shard count: at one
/// shard every query must have delegated to the plain engine
/// (router-level refinement counters untouched); above one shard
/// refinement belongs to the router's cross-shard plane, so no shard's
/// own counters may ever move.
pub fn assert_routing(engine: &ShardedEngine) {
    if engine.num_shards() == 1 {
        assert_eq!(
            engine.refine_stats().rounds(),
            0,
            "one-shard engine must delegate to the plain-engine path"
        );
    } else {
        for shard in engine.shards() {
            assert_eq!(
                shard.refine_stats().rounds(),
                0,
                "shards must not refine on their own above one shard"
            );
        }
    }
}

/// The engine under test: a [`ShardedEngine`] at the `UDB_SHARDS`
/// shard count, plus an id-aligned database mirror.
pub struct TestEngine {
    engine: ShardedEngine,
    mirror: Database,
}

impl TestEngine {
    /// Builds the engine under test over `db` at the `UDB_SHARDS`
    /// shard count.
    pub fn with_config(db: Database, cfg: IdcaConfig) -> Self {
        TestEngine {
            engine: ShardedEngine::with_config(db.clone(), cfg, shards()),
            mirror: db,
        }
    }

    /// Builds with the default configuration.
    pub fn new(db: Database) -> Self {
        TestEngine::with_config(db, IdcaConfig::default())
    }

    /// The underlying sharded engine.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// The id-aligned database mirror (live global ids, cloneable for
    /// fresh-oracle rebuilds).
    pub fn db(&self) -> &Database {
        &self.mirror
    }

    /// [`assert_routing`] on the engine under test.
    pub fn assert_routing(&self) {
        assert_routing(&self.engine);
    }

    pub fn insert(&mut self, object: UncertainObject) -> ObjectId {
        let id = self.engine.insert(object.clone());
        let mirrored = self.mirror.insert(object);
        assert_eq!(id, mirrored, "mirror lost id alignment");
        id
    }

    pub fn remove(&mut self, id: ObjectId) -> UncertainObject {
        let removed = self.engine.remove(id);
        self.mirror.remove(id);
        removed
    }

    pub fn update(&mut self, id: ObjectId, object: UncertainObject) -> UncertainObject {
        let old = self.engine.update(id, object.clone());
        self.mirror.replace(id, object);
        old
    }

    pub fn knn_threshold(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        self.engine.knn_threshold(q, k, tau)
    }

    pub fn rknn_threshold(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        self.engine.rknn_threshold(q, k, tau)
    }

    pub fn top_probable_nn(&self, q: &UncertainObject, m: usize) -> Vec<ThresholdResult> {
        self.engine.top_probable_nn(q, m)
    }

    pub fn run_batch(&self, batch: &QueryBatch) -> Vec<Vec<ThresholdResult>> {
        self.engine.run_batch(batch)
    }

    pub fn knn_candidates(&self, q: &Rect, k: usize) -> Vec<ObjectId> {
        self.engine.knn_candidates(q, k)
    }

    /// Entries in the decomposition cache actually serving this shard
    /// count (the shard's own cache at one shard, the router's above).
    pub fn decomp_cache_len(&self) -> usize {
        if self.engine.num_shards() == 1 {
            self.engine.shards()[0].decomp_cache_len()
        } else {
            self.engine.decomp_cache_len()
        }
    }

    /// Structural R-tree invariants on every shard.
    pub fn check_invariants(&self) {
        for shard in self.engine.shards() {
            shard.tree().check_invariants();
        }
    }
}
