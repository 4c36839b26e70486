//! The owned, lifetime-free serving engine — and the one internal query
//! pipeline every entry point (owned or borrowed, per-query or batched)
//! runs through.
//!
//! [`Engine`] owns its [`Database`], R-tree, worker pool and — unlike
//! the borrowed snapshot engine it replaced — a
//! **persistent, bounded, invalidation-aware** decomposition cache
//! ([`crate::DecompCache`]) that lives *across* `run_batch` calls. A
//! serving system re-hitting the same hot objects over a stream of
//! arrival batches replays their kd-decomposition expansions from the
//! cache instead of recomputing them every batch; LRU eviction after
//! every call bounds it to [`crate::DECOMP_CACHE_ENTRIES`] objects.
//! Refiners own their other buffers, which die with them.
//!
//! The engine is **mutable in place**: [`Engine::insert`] /
//! [`Engine::remove`] / [`Engine::update`] maintain the R-tree
//! incrementally (R*-flavoured insert, condensing delete) and
//! invalidate exactly the touched object's cache entry — no rebuild,
//! no full cache flush. Queries take `&self`, mutations `&mut self`;
//! the borrow checker serializes them, so no query can observe a
//! half-applied mutation.
//!
//! All sharing is work-only: query results are bit-identical to the
//! [`crate::scan`] reference oracle at every thread count and every
//! cache size (property-tested in
//! `tests/owned_engine.rs`, `tests/batch_equivalence.rs` and
//! `tests/early_exit_equivalence.rs`).
//!
//! An engine can also be **durable**: [`Engine::open`] binds it to a
//! directory holding a checkpoint + write-ahead log
//! ([`crate::durable`]), every mutation is logged before it is applied,
//! and reopening the directory after a crash recovers a state that
//! answers queries bit-identically to the never-crashed engine
//! (adversarially tested in `tests/crash_recovery.rs`).

use udb_domination::{DecisionClass, PairClassifier};
use udb_geometry::Rect;
use udb_index::{NodeDecision, RTree};
use udb_object::{Database, ObjectId, UncertainObject};

use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::batch::{QueryBatch, QueryView};
use crate::config::{IdcaConfig, ObjRef, Predicate};
use crate::decomp::{DecompCache, Entries, SharedDecomp, DECOMP_CACHE_ENTRIES};
use crate::durable::{rebuild_tree, recover, Durability, DurableError, RecoveryReport, WalMark};
use crate::parallel::PoolHandle;
use crate::queries::ThresholdResult;
use crate::refiner::{DbView, RefineStats, Refiner};
use crate::router::QueryPlane;
use crate::standing::{
    self, validate_spec, ResultDelta, StandingRegistry, StandingSpec, StandingStats,
};
use crate::wal::{DurableIo, FileIo, WalRecord};

/// The engines' pool of subtree-filter traversal scratch
/// ([`udb_index::ClassifyScratch`]): each concurrent filter pass checks
/// one out and returns it, so batch lanes building refiners in parallel
/// never serialize on a single shared scratch — the lock is held only
/// for the pop/push, never across a traversal. Refiners own their other
/// buffers, which die with them.
#[derive(Default)]
pub(crate) struct ScratchPool {
    classify: Mutex<Vec<udb_index::ClassifyScratch<ObjectId>>>,
}

/// Retained traversal scratches are capped so a burst of concurrent
/// filter passes cannot pin its peak forever; excess buffers just drop.
const SCRATCH_POOL_CAP: usize = 64;

impl ScratchPool {
    /// Runs `f` with a pooled subtree-filter traversal scratch, checked
    /// out for the duration of the call (concurrent callers each get
    /// their own; buffers are recycled afterwards).
    pub(crate) fn with_classify<R>(
        &self,
        f: impl FnOnce(&mut udb_index::ClassifyScratch<ObjectId>) -> R,
    ) -> R {
        let mut scratch = self
            .classify
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default();
        let out = f(&mut scratch);
        let mut pool = self.classify.lock().unwrap_or_else(|p| p.into_inner());
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        out
    }
}

/// Entry-count cutoff of the per-candidate subtree filter: a `Descend`
/// verdict on a subtree holding at most this many entries switches to
/// the scan filter (per-entry tests, no interior MBR tests below).
/// Results are cutoff-invariant for the monotone domination criterion —
/// this is purely a cost knob: near the decision boundary small subtrees
/// overwhelmingly answer `Descend` at every level, so their interior
/// node tests are wasted work. One leaf level (fan-out 16) plus slack.
pub(crate) const SUBTREE_SCAN_CUTOFF: usize = 24;

/// Maintains the `k` smallest MaxDists seen over *certainly existing*
/// objects (`k_smallest`, kept sorted ascending): inserts `max_d` if it
/// belongs, and returns the updated pruning radius `d_k` once `k` values
/// are held. Shared by the per-query candidate stream and the sharded
/// merged stream so the pruning rule cannot diverge between them.
pub(crate) fn tighten_dk(k_smallest: &mut Vec<f64>, k: usize, max_d: f64) -> Option<f64> {
    let pos = k_smallest
        .binary_search_by(|d| d.partial_cmp(&max_d).expect("NaN"))
        .unwrap_or_else(|p| p);
    if pos < k {
        k_smallest.insert(pos, max_d);
        k_smallest.truncate(k);
        if k_smallest.len() == k {
            return Some(k_smallest[k - 1]);
        }
    }
    None
}

/// The borrowed parts every query pipeline runs against. Every entry
/// point — per-query or batched — assembles one of these per call and
/// executes the *same* methods, so the public surfaces cannot drift:
/// their equality is structural, not a convention kept in sync by hand.
#[derive(Clone, Copy)]
pub(crate) struct EngineRef<'a> {
    pub(crate) db: &'a Database,
    pub(crate) cfg: &'a IdcaConfig,
    pub(crate) pool: &'a PoolHandle,
    pub(crate) tree: &'a RTree<ObjectId>,
    pub(crate) scratch: &'a ScratchPool,
    pub(crate) stats: &'a Arc<RefineStats>,
    pub(crate) decomps: &'a Arc<DecompCache>,
}

impl<'a> QueryPlane<'a> for EngineRef<'a> {
    fn cfg(&self) -> &'a IdcaConfig {
        self.cfg
    }

    fn pool(&self) -> &'a PoolHandle {
        self.pool
    }

    /// Index-accelerated domination-count refiner: the complete-domination
    /// filter of Algorithm 1 applied to whole R-tree subtrees instead of a
    /// linear scan. Sound because both criteria are monotone under MBR
    /// containment: shrinking an object's rectangle only decreases its
    /// MaxDist and increases its MinDist terms, so a subtree-level
    /// `dominates` / `never_dominates` verdict holds for every object
    /// below. Existentially uncertain objects accepted at subtree level
    /// are demoted to influence objects (they are never *certain*
    /// dominators).
    ///
    /// The traversal checks a reusable traversal scratch out of the
    /// engine's [`ScratchPool`] (no allocation per candidate, no
    /// serialization across concurrent batch lanes), precomputes the
    /// `(B, R)` criterion halves once per candidate ([`PairClassifier`]
    /// — every node and entry test then evaluates only the subtree-side
    /// terms) and scans small undecided subtrees flat instead of testing
    /// their interior nodes (`SUBTREE_SCAN_CUTOFF`).
    fn refiner(
        &self,
        target: ObjRef<'a>,
        reference: ObjRef<'a>,
        predicate: Predicate,
        query: Option<&SharedDecomp>,
    ) -> Refiner<'a> {
        let db = self.db;
        let cfg = self.cfg;
        let target_obj = target.resolve(db);
        let reference_obj = reference.resolve(db);
        let (b_mbr, r_mbr) = (target_obj.mbr(), reference_obj.mbr());
        let excluded = [target.id(), reference.id()];

        let pc = PairClassifier::new(b_mbr, r_mbr, cfg.criterion, cfg.norm);
        let (complete, influence) = self.scratch.with_classify(|scratch| {
            self.tree
                .classify_entries_with(scratch, SUBTREE_SCAN_CUTOFF, |mbr| {
                    // same decisions as the scan filter's classify (the
                    // criterion tests are mutually exclusive)
                    match pc.classify(mbr) {
                        DecisionClass::RobustNever | DecisionClass::OpenNever => {
                            NodeDecision::DropAll
                        }
                        DecisionClass::RobustDominate | DecisionClass::OpenDominate => {
                            NodeDecision::TakeAll
                        }
                        DecisionClass::Undecided => NodeDecision::Descend,
                    }
                });
            let mut complete = 0usize;
            let mut influence = Vec::with_capacity(scratch.undecided.len());
            for &id in &scratch.taken {
                if excluded.contains(&Some(id)) {
                    continue;
                }
                if db.get(id).existence() >= 1.0 {
                    complete += 1;
                } else {
                    influence.push(id);
                }
            }
            influence.extend(
                scratch
                    .undecided
                    .iter()
                    .copied()
                    .filter(|id| !excluded.contains(&Some(*id))),
            );
            (complete, influence)
        });
        let mut influence = influence;
        influence.sort_unstable();
        Refiner::from_filter(
            DbView::Single(db),
            target,
            reference,
            cfg.clone(),
            predicate,
            (complete, influence),
            query.map_or(Entries::Private, |q| Entries::Engine(self.decomps, q)),
        )
        .with_pool(self.pool.clone())
        .with_stats(Arc::clone(self.stats))
    }

    /// Database slot lookup.
    fn object(&self, id: ObjectId) -> &'a UncertainObject {
        self.db.get(id)
    }

    /// Index-driven spatial kNN candidate set: all objects that are *not*
    /// certainly dominated by at least `k` others w.r.t. `q` under the
    /// MinDist/MaxDist filter. Sound superset of every object with
    /// non-zero kNN probability. Only certainly existing objects tighten
    /// the pruning bound `d_k` (an object that may be absent guarantees
    /// no domination), matching [`crate::scan::knn_candidates`].
    fn knn_candidates(&self, q: &Rect, k: usize) -> Vec<ObjectId> {
        assert!(k >= 1);
        let norm = self.cfg.norm;
        let mut seen: Vec<(ObjectId, f64)> = Vec::new(); // (id, max_dist)
        let mut kth_max = f64::INFINITY;
        let mut k_smallest: Vec<f64> = Vec::new();
        let db = self.db;
        for n in self.tree.knn_iter(q, norm) {
            if n.dist > kth_max {
                break; // every further object has MinDist > d_k
            }
            let obj = db.get(n.payload);
            seen.push((n.payload, n.dist));
            if obj.existence() < 1.0 {
                continue; // cannot contribute to d_k
            }
            let max_d = obj.mbr().max_dist_rect(q, norm);
            if let Some(d_k) = tighten_dk(&mut k_smallest, k, max_d) {
                kth_max = d_k;
            }
        }
        seen.into_iter()
            .filter(|(_, min_d)| *min_d <= kth_max)
            .map(|(id, _)| id)
            .collect()
    }

    /// Ascending id order: the database's slot order.
    fn for_each_object(&self, mut f: impl FnMut(ObjectId, &'a UncertainObject)) {
        for (id, obj) in self.db.iter() {
            f(id, obj);
        }
    }

    /// One walk of the R-tree ([`RTree::for_each_unpruned`]).
    fn for_each_unvetoed(
        &self,
        mut veto: impl FnMut(&Rect) -> bool,
        mut f: impl FnMut(ObjectId, &'a UncertainObject),
    ) {
        let db = self.db;
        self.tree
            .for_each_unpruned(&mut veto, &mut |&id| f(id, db.get(id)));
    }

    /// A bounded tree probe, recursive and allocation-free via
    /// [`RTree::for_each_within_distance`], that stops at `cap`.
    fn dominators_reach(
        &self,
        region: &Rect,
        radius: f64,
        exclude: Option<ObjectId>,
        cap: usize,
        dominates: impl Fn(&Rect) -> bool,
    ) -> bool {
        let db = self.db;
        let mut count = 0usize;
        self.tree
            .for_each_within_distance(region, radius, self.cfg.norm, &mut |&id| {
                let a = db.get(id);
                if Some(id) != exclude && a.existence() >= 1.0 && dominates(a.mbr()) {
                    count += 1;
                }
                count < cap
            });
        count >= cap
    }
}

/// The owned, lifetime-free serving engine: owns its [`Database`],
/// R-tree, worker pool and the persistent cross-batch decomposition
/// cache (see the module docs). Mutate in place with
/// [`Engine::insert`] / [`Engine::remove`] / [`Engine::update`]; query
/// with the per-query entry points or [`Engine::run_batch`] — the
/// per-query methods are batch-of-one wrappers over the same internal
/// pipeline, so everything benefits from the warm cache.
///
/// ```
/// use udb_core::{Engine, QueryBatch};
/// use udb_geometry::Point;
/// use udb_object::{Database, UncertainObject};
///
/// let db = Database::from_objects(vec![
///     UncertainObject::certain(Point::from([1.0, 0.0])),
///     UncertainObject::certain(Point::from([2.0, 0.0])),
/// ]);
/// let mut engine = Engine::new(db);
/// let q = UncertainObject::certain(Point::from([0.0, 0.0]));
/// let hits = engine.knn_threshold(&q, 1, 0.5);
/// assert_eq!(hits.len(), 1);
///
/// // in-place mutation: no rebuild, the index and caches follow along
/// let id = engine.insert(UncertainObject::certain(Point::from([0.5, 0.0])));
/// let hits = engine.knn_threshold(&q, 1, 0.5);
/// assert!(hits.iter().any(|r| r.id == id && r.is_hit(0.5)));
/// engine.remove(id);
/// ```
pub struct Engine {
    db: Database,
    cfg: IdcaConfig,
    pool: PoolHandle,
    tree: RTree<ObjectId>,
    /// The persistent cross-batch decomposition cache.
    decomps: Arc<DecompCache>,
    /// The subtree-filter traversal scratch pool.
    scratch: ScratchPool,
    /// Refinement round counter, shared by every refiner the engine
    /// builds across all calls.
    stats: Arc<RefineStats>,
    /// The WAL + checkpoint sidecar of a durable engine; `None` keeps
    /// the engine purely in-memory.
    durable: Option<Durability>,
    /// Mutations applied over the engine's lifetime (checkpointed +
    /// live) — in-memory engines count from construction, recovered
    /// engines continue the persisted count.
    mutations: u64,
    /// Cadence checkpoints that failed (see [`Engine::checkpoint_failures`]).
    checkpoint_failures: u64,
    /// What recovery found, when this engine came from [`Engine::open`].
    recovery: Option<RecoveryReport>,
    /// Registered standing queries and their queued result deltas.
    /// In-memory only — subscriptions do not survive a durable reopen.
    standing: StandingRegistry,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("objects", &self.db.len())
            .field("tree_entries", &self.tree.len())
            .field("decomp_cache_len", &self.decomps.len())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

/// Asserts that every object of an insert run has the database's
/// dimensionality — or, into an empty database (`dims` is `None`), the
/// run's first object's.
pub(crate) fn assert_run_dims(dims: Option<usize>, objects: &[UncertainObject]) {
    let dims = dims.or_else(|| objects.first().map(UncertainObject::dims));
    for object in objects {
        assert_eq!(
            dims,
            Some(object.dims()),
            "object dimensionality must match the database"
        );
    }
}

impl Engine {
    /// Takes ownership of `db` and builds the index (STR bulk load) over
    /// its MBRs, with the default configuration.
    pub fn new(db: Database) -> Self {
        Engine::with_config(db, IdcaConfig::default())
    }

    /// Takes ownership of `db` with an explicit configuration. The
    /// engine is in-memory; [`Engine::open`] makes a durable one.
    pub fn with_config(db: Database, cfg: IdcaConfig) -> Self {
        let tree = rebuild_tree(&db);
        Engine {
            db,
            tree,
            decomps: Arc::new(DecompCache::new(cfg.split_strategy)),
            scratch: ScratchPool::default(),
            pool: PoolHandle::default(),
            stats: Arc::new(RefineStats::default()),
            cfg,
            durable: None,
            mutations: 0,
            checkpoint_failures: 0,
            recovery: None,
            standing: StandingRegistry::default(),
        }
    }

    /// Opens (creating or recovering) a durable engine over `dir` with
    /// the default configuration: loads the newest valid checkpoint,
    /// replays the WAL tail, then takes a fresh checkpoint
    /// (*checkpoint-on-open* — recovery never appends to a possibly
    /// torn tail, and crashing during open is idempotent). The
    /// recovered state answers queries bit-identically to an engine
    /// that never crashed; [`Engine::recovery_report`] documents every
    /// degradation (torn tail dropped, corrupt checkpoint skipped).
    ///
    /// # Errors
    /// Fails on IO errors, or when checkpoints exist but none can be
    /// loaded ([`DurableError::NoValidCheckpoint`] — recovering an
    /// empty database over existing data would be a silent wrong
    /// answer).
    pub fn open(dir: impl AsRef<Path>) -> Result<Engine, DurableError> {
        Engine::open_with_config(dir, IdcaConfig::default())
    }

    /// [`Engine::open`] with an explicit configuration
    /// ([`IdcaConfig::wal_sync_every`] / [`IdcaConfig::checkpoint_every`]
    /// govern the durability cadence).
    pub fn open_with_config(
        dir: impl AsRef<Path>,
        cfg: IdcaConfig,
    ) -> Result<Engine, DurableError> {
        Engine::open_with_io(dir, cfg, Box::new(FileIo::new()))
    }

    /// [`Engine::open`] with an injected IO layer — the fault-injection
    /// hook: [`crate::wal::FaultIo`] simulates crashes at any
    /// [`crate::wal::CrashPoint`] deterministically in-process.
    pub fn open_with_io(
        dir: impl AsRef<Path>,
        cfg: IdcaConfig,
        io: Box<dyn DurableIo>,
    ) -> Result<Engine, DurableError> {
        let dir = dir.as_ref().to_path_buf();
        let state = recover(&dir)?;
        let mut engine = Engine::with_config(state.db, cfg);
        engine.mutations = state.mutations;
        engine.recovery = Some(state.report);
        let sync_every = engine.cfg.wal_sync_every;
        engine.durable = Some(Durability::new(dir, io, state.max_seq, sync_every));
        engine.checkpoint()?;
        Ok(engine)
    }

    /// The engine's refinement round counter: how many exact UGF
    /// snapshots its refiners computed, across all calls.
    pub fn refine_stats(&self) -> &Arc<RefineStats> {
        &self.stats
    }

    /// The owned database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The engine configuration.
    pub fn config(&self) -> &IdcaConfig {
        &self.cfg
    }

    /// The underlying R-tree.
    pub fn tree(&self) -> &RTree<ObjectId> {
        &self.tree
    }

    /// The engine's shared worker-pool handle.
    pub fn pool_handle(&self) -> &PoolHandle {
        &self.pool
    }

    /// Whether this engine logs mutations to a WAL directory.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Mutations applied over the engine's lifetime: in-memory engines
    /// count from construction, recovered engines continue the
    /// persisted count — so a recovered engine and the live engine it
    /// crashed from can be diffed op-for-op.
    pub fn mutations(&self) -> u64 {
        self.mutations
    }

    /// Cadence checkpoints ([`IdcaConfig::checkpoint_every`]) that
    /// failed over the engine's lifetime. A failed cadence checkpoint
    /// does not fail the mutation it follows — that mutation is applied
    /// and durable — and stays due, so the next mutation retries it.
    pub fn checkpoint_failures(&self) -> u64 {
        self.checkpoint_failures
    }

    /// What recovery found and did, when this engine came from
    /// [`Engine::open`]: basis checkpoint, fallback count, replayed
    /// records and every degradation warning. `None` for engines that
    /// were constructed, not opened.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Number of objects currently held by the persistent decomposition
    /// cache (at most [`DECOMP_CACHE_ENTRIES`] between calls).
    pub fn decomp_cache_len(&self) -> usize {
        self.decomps.len()
    }

    /// The borrowed parts the internal pipeline runs against.
    pub(crate) fn parts(&self) -> EngineRef<'_> {
        EngineRef {
            db: &self.db,
            cfg: &self.cfg,
            pool: &self.pool,
            tree: &self.tree,
            scratch: &self.scratch,
            stats: &self.stats,
            decomps: &self.decomps,
        }
    }

    /// Post-call cache maintenance: LRU-trim the persistent cache back
    /// to its capacity.
    fn trim_cache(&self) {
        self.decomps.trim(DECOMP_CACHE_ENTRIES);
    }

    // ------------------------------------------------------------------
    // In-place mutation
    // ------------------------------------------------------------------
    //
    // Durable engines are write-ahead: each mutation is pre-validated
    // (so a logged record is guaranteed to replay cleanly), logged,
    // *then* applied. The `try_*` variants surface WAL IO errors; the
    // plain variants keep the infallible in-memory signatures and
    // panic if the log rejects a write (a durable engine that cannot
    // log must not silently keep serving acknowledged-but-volatile
    // state).

    /// Inserts an object, returning its fresh id: the database appends,
    /// the R-tree takes the new MBR incrementally (R*-flavoured
    /// insertion) — no rebuild. The decomposition cache needs no
    /// invalidation: ids are never reused, so the fresh id cannot alias
    /// stale cached state.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch with the database, or when a
    /// durable engine fails to log ([`Engine::try_insert`] to handle).
    pub fn insert(&mut self, object: UncertainObject) -> ObjectId {
        self.try_insert(object).expect("WAL append failed")
    }

    /// [`Engine::insert`], surfacing WAL errors instead of panicking.
    ///
    /// # Errors
    /// Fails when the durable engine cannot log the record; the
    /// mutation is then **not** applied.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch with the database.
    pub fn try_insert(&mut self, object: UncertainObject) -> Result<ObjectId, DurableError> {
        let mut id = None;
        self.insert_run_with(vec![object], |_, applied| id = Some(applied))?;
        Ok(id.expect("a run of one applies one insert"))
    }

    /// Inserts a run of objects with **one** WAL fsync (group commit),
    /// returning each insert's fresh id with the standing-query deltas
    /// its maintenance produced, in run order. Two phases:
    ///
    /// 1. every object is validated and its record appended to the WAL
    ///    (no fsync yet);
    /// 2. the segment is fsynced once per [`IdcaConfig::wal_sync_every`]
    ///    — the run counts as that many appended records — and only then
    ///    are the inserts applied in order: database, R-tree, standing
    ///    maintenance.
    ///
    /// The [`IdcaConfig::checkpoint_every`] cadence is checked once,
    /// after the whole run is applied, so a checkpoint never rotates the
    /// WAL between a logged record and its application. Results and ids
    /// are exactly those of calling [`Engine::try_insert`] per object; a
    /// run of one issues the same IO. In-memory engines skip the log.
    ///
    /// # Errors
    /// Fails when an append or the fsync fails: then **no** insert of
    /// the run is applied, and its records are cut from the WAL again,
    /// so recovery does not replay them either.
    ///
    /// # Panics
    /// Panics when an object's dimensionality differs from the
    /// database's — or, into an empty database, from the run's first
    /// object's — before anything is logged.
    pub fn try_insert_run(
        &mut self,
        objects: Vec<UncertainObject>,
    ) -> Result<Vec<(ObjectId, Vec<ResultDelta>)>, DurableError> {
        let mut ids = Vec::with_capacity(objects.len());
        let mut ends = Vec::with_capacity(objects.len());
        self.insert_run_with(objects, |engine, id| {
            ids.push(id);
            ends.push(engine.standing.queued_deltas());
        })?;
        let deltas = self.standing.take_deltas_split(&ends);
        Ok(ids.into_iter().zip(deltas).collect())
    }

    /// The insert-run body behind [`Engine::try_insert`] and
    /// [`Engine::try_insert_run`]: log every record, fsync once, apply
    /// in order (calling `applied` after each insert's maintenance),
    /// then check the checkpoint cadence.
    fn insert_run_with(
        &mut self,
        objects: Vec<UncertainObject>,
        mut applied: impl FnMut(&Self, ObjectId),
    ) -> Result<(), DurableError> {
        assert_run_dims(self.db.dims(), &objects);
        let mark = self.wal_mark();
        let logged = objects
            .iter()
            .try_for_each(|object| self.append_insert(object))
            .and_then(|()| self.sync_due());
        if let Err(e) = logged {
            self.wal_roll_back(mark);
            return Err(e);
        }
        for object in objects {
            let id = self.apply_insert(object);
            applied(self, id);
        }
        self.checkpoint_due();
        Ok(())
    }

    /// Appends an insert's WAL record without fsyncing it (a no-op on
    /// in-memory engines). Phase 1 of an insert run.
    pub(crate) fn append_insert(&mut self, object: &UncertainObject) -> Result<(), DurableError> {
        if let Some(d) = &mut self.durable {
            d.append(&WalRecord::Insert {
                object: Box::new(object.clone()),
            })?;
        }
        Ok(())
    }

    /// The WAL position before a mutation call (`None` on in-memory
    /// engines), for [`Engine::wal_roll_back`].
    pub(crate) fn wal_mark(&self) -> Option<WalMark> {
        self.durable.as_ref().map(Durability::mark)
    }

    /// Cuts the records a refused mutation call appended since `mark`
    /// out of the WAL again, so recovery does not replay them.
    pub(crate) fn wal_roll_back(&mut self, mark: Option<WalMark>) {
        if let (Some(d), Some(mark)) = (&mut self.durable, mark) {
            d.roll_back(mark);
        }
    }

    /// Fsyncs the WAL segment when its cadence is due (a no-op on
    /// in-memory engines). Phase 2 of an insert run.
    pub(crate) fn sync_due(&mut self) -> Result<(), DurableError> {
        match &mut self.durable {
            Some(d) => d.sync_due(),
            None => Ok(()),
        }
    }

    /// Applies an already logged insert: database, R-tree, mutation
    /// count, standing maintenance. Phase 3 of an insert run.
    pub(crate) fn apply_insert(&mut self, object: UncertainObject) -> ObjectId {
        let id = self.db.insert(object);
        self.tree.insert(self.db.get(id).mbr().clone(), id);
        self.mutations += 1;
        if !self.standing.is_empty() {
            let m = standing::Mutation {
                id,
                old: None,
                new: Some(self.db.get(id).mbr().clone()),
            };
            self.maintain_standing(&m);
        }
        id
    }

    /// Removes an object in place, returning it: the database slot
    /// becomes a tombstone (the id is dead forever), the R-tree entry is
    /// deleted with condensing, and the object's decomposition cache
    /// entry is invalidated — its cached expansions describe a PDF that
    /// no longer exists.
    ///
    /// # Panics
    /// Panics if `id` is not a live object, or when a durable engine
    /// fails to log ([`Engine::try_remove`] to handle).
    pub fn remove(&mut self, id: ObjectId) -> UncertainObject {
        self.try_remove(id).expect("WAL append failed")
    }

    /// [`Engine::remove`], surfacing WAL errors instead of panicking.
    ///
    /// # Errors
    /// Fails when the durable engine cannot log the record; the
    /// mutation is then **not** applied.
    ///
    /// # Panics
    /// Panics if `id` is not a live object.
    pub fn try_remove(&mut self, id: ObjectId) -> Result<UncertainObject, DurableError> {
        assert!(self.db.contains(id), "{id:?} is not a live object");
        if let Some(d) = &mut self.durable {
            d.log(&WalRecord::Remove { id: id.0 })?;
        }
        let object = self.db.remove(id);
        let removed = self.tree.remove(object.mbr(), &id);
        assert!(removed, "index entry missing for {id:?}");
        self.decomps.invalidate(id);
        self.mutations += 1;
        if !self.standing.is_empty() {
            let m = standing::Mutation {
                id,
                old: Some(object.mbr().clone()),
                new: None,
            };
            self.maintain_standing(&m);
        }
        self.checkpoint_due();
        Ok(object)
    }

    /// Replaces the object behind a live id in place, returning the
    /// previous object: the R-tree entry moves to the new MBR
    /// (delete + insert) and the id's decomposition cache entry is
    /// invalidated so no stale expansion of the old PDF can ever replay.
    ///
    /// # Panics
    /// Panics if `id` is dead or the dimensionality differs, or when a
    /// durable engine fails to log ([`Engine::try_update`] to handle).
    pub fn update(&mut self, id: ObjectId, object: UncertainObject) -> UncertainObject {
        self.try_update(id, object).expect("WAL append failed")
    }

    /// [`Engine::update`], surfacing WAL errors instead of panicking.
    ///
    /// # Errors
    /// Fails when the durable engine cannot log the record; the
    /// mutation is then **not** applied.
    ///
    /// # Panics
    /// Panics if `id` is dead or the dimensionality differs.
    pub fn try_update(
        &mut self,
        id: ObjectId,
        object: UncertainObject,
    ) -> Result<UncertainObject, DurableError> {
        let old_dims = self
            .db
            .try_get(id)
            .unwrap_or_else(|| panic!("{id:?} is not a live object"))
            .dims();
        assert_eq!(
            old_dims,
            object.dims(),
            "object dimensionality must match the database"
        );
        if let Some(d) = &mut self.durable {
            let rec = WalRecord::Update {
                id: id.0,
                object: Box::new(object.clone()),
            };
            d.log(&rec)?;
        }
        let old = self.db.replace(id, object);
        let removed = self.tree.remove(old.mbr(), &id);
        assert!(removed, "index entry missing for {id:?}");
        self.tree.insert(self.db.get(id).mbr().clone(), id);
        self.decomps.invalidate(id);
        self.mutations += 1;
        if !self.standing.is_empty() {
            let m = standing::Mutation {
                id,
                old: Some(old.mbr().clone()),
                new: Some(self.db.get(id).mbr().clone()),
            };
            self.maintain_standing(&m);
        }
        self.checkpoint_due();
        Ok(old)
    }

    /// The automatic checkpoint cadence of durable engines
    /// ([`IdcaConfig::checkpoint_every`]): checkpoints when that many
    /// records were logged since the last one. A failure is counted in
    /// [`Engine::checkpoint_failures`], not returned: the mutation
    /// before it is applied and durable, and the checkpoint stays due.
    pub(crate) fn checkpoint_due(&mut self) {
        let due = self.cfg.checkpoint_every > 0
            && self
                .durable
                .as_ref()
                .is_some_and(|d| d.since_checkpoint() >= self.cfg.checkpoint_every as u64);
        if due && self.checkpoint().is_err() {
            self.checkpoint_failures += 1;
        }
    }

    /// Takes a checkpoint **now**: compacts leading tombstones
    /// ([`Database::compact`] — ids stay stable), on a durable engine
    /// snapshots the database, rotates the WAL and prunes superseded
    /// files, and then rebuilds the R-tree from scratch (undoing any
    /// degradation accumulated through incremental maintenance under
    /// churn). Queries before and after are bit-identical: candidate
    /// *sets* are tree-structure-independent (the same MinDist/MaxDist
    /// pruning rule decides membership), and refinement never depends
    /// on the tree shape.
    ///
    /// In-memory engines get the compaction + rebuild half — the churn
    /// maintenance hook — with no durability side effects.
    ///
    /// # Errors
    /// Fails when the durable snapshot cannot be written; the engine's
    /// in-memory state is still valid (and the previous checkpoint +
    /// WAL still recover it). The tree is then not rebuilt, so a
    /// cadence checkpoint that keeps failing does not rebuild it on
    /// every retry.
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        self.db.compact();
        if let Some(d) = &mut self.durable {
            d.checkpoint(&self.db, self.mutations)?;
        }
        self.tree = rebuild_tree(&self.db);
        Ok(())
    }

    /// Forces every logged record to stable storage now — the explicit
    /// flush for `wal_sync_every > 1` / `= 0` cadences (clean shutdown,
    /// end-of-stream). A no-op on in-memory engines.
    ///
    /// # Errors
    /// Fails when the fsync fails.
    pub fn wal_sync(&mut self) -> Result<(), DurableError> {
        match &mut self.durable {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Standing queries
    // ------------------------------------------------------------------

    /// Registers a standing query: answers it once (bit-identical to the
    /// matching one-shot entry point) and keeps the result set
    /// incrementally maintained across every subsequent mutation (see
    /// [`crate::standing`]). Returns the subscription id and the
    /// initial results; changes arrive as [`ResultDelta`]s through
    /// [`Engine::take_standing_deltas`]. Subscriptions are in-memory
    /// only — they do not survive a durable reopen.
    ///
    /// # Panics
    /// Panics on invalid parameters (`k`/`m` must be positive, `tau`
    /// in `[0, 1)`), like the one-shot entry points.
    pub fn subscribe(
        &mut self,
        q: UncertainObject,
        spec: StandingSpec,
    ) -> (u64, Vec<ThresholdResult>) {
        validate_spec(&spec);
        let mut reg = std::mem::take(&mut self.standing);
        let out = standing::subscribe_registry(&mut reg, self.parts(), q, spec);
        self.trim_cache();
        self.standing = reg;
        out
    }

    /// Drops a subscription; `false` when the id is unknown.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        self.standing.unsubscribe(id)
    }

    /// The standing-query maintenance counters.
    pub fn standing_stats(&self) -> StandingStats {
        self.standing.stats()
    }

    /// Drains the result deltas queued by maintenance since the last
    /// call (in mutation, then registration order).
    pub fn take_standing_deltas(&mut self) -> Vec<ResultDelta> {
        self.standing.take_deltas()
    }

    /// The registered standing queries.
    pub fn standing_queries(&self) -> &[standing::StandingQuery] {
        self.standing.subscriptions()
    }

    /// The post-apply maintenance pass (see [`crate::standing`]): the
    /// registry is taken out of the engine while the plane borrows it,
    /// exactly like a query run, then put back with its queued deltas.
    fn maintain_standing(&mut self, m: &standing::Mutation) {
        let mut reg = std::mem::take(&mut self.standing);
        standing::maintain_registry(&mut reg, self.parts(), m);
        self.trim_cache();
        self.standing = reg;
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Index-accelerated domination-count refiner over this engine's
    /// database and index. Its regions expand through private
    /// decomposition entries (see [`crate::decomp`]).
    pub fn refiner<'b>(
        &'b self,
        target: ObjRef<'b>,
        reference: ObjRef<'b>,
        predicate: Predicate,
    ) -> Refiner<'b> {
        self.parts().refiner(target, reference, predicate, None)
    }

    /// Index-driven spatial kNN candidate set (sound superset of every
    /// object with non-zero kNN probability).
    pub fn knn_candidates(&self, q: &Rect, k: usize) -> Vec<ObjectId> {
        self.parts().knn_candidates(q, k)
    }

    /// The id of the live object whose MBR is nearest to `probe` by
    /// MinDist (`None` on an empty database). Deterministic for a fixed
    /// engine state — workload drivers use it to pick mutation targets
    /// reproducibly (e.g. "delete the object nearest this hot spot").
    pub fn nearest(&self, probe: &Rect) -> Option<ObjectId> {
        self.tree
            .knn_iter(probe, self.cfg.norm)
            .next()
            .map(|n| n.payload)
    }

    /// Probabilistic threshold kNN (Corollary 4), fully index-integrated
    /// and warm-cache-served: a batch-of-one through the same internal
    /// pipeline as [`Engine::run_batch`]. Results are identical to
    /// [`crate::scan::knn_threshold`].
    pub fn knn_threshold(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        assert!(k >= 1, "k must be positive");
        assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
        self.run_single(QueryView::Knn { q, k, tau })
    }

    /// Probabilistic threshold reverse kNN (Corollary 5), semantics of
    /// [`crate::scan::rknn_threshold`] (sorted by id).
    ///
    /// `B` is an answer only if fewer than `k` objects certainly
    /// dominate `q` w.r.t. `B`. The scan probes that count for every
    /// live object; the engine walks the R-tree instead and skips a
    /// whole subtree when `k + 1` certainly existing objects *robustly*
    /// dominate `q` w.r.t. its box. Domination only gets easier as the
    /// reference shrinks from the box to any `B` inside it, and a
    /// robust decision survives that shrinking in floating point, so
    /// all `k + 1` dominate `q` w.r.t. `B` too; at most one of them is
    /// `B` itself, so the per-object probe would have vetoed `B` as
    /// well. Objects in unskipped leaves get the per-object probe. The
    /// survivors are therefore exactly the scan's, refined in the same
    /// id order, with bit-identical answers (the full argument is on
    /// the RkNN candidate enumeration in `crate::router`).
    pub fn rknn_threshold(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        assert!(k >= 1, "k must be positive");
        assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
        self.run_single(QueryView::Rknn { q, k, tau })
    }

    /// Top-`m` probable nearest neighbours (the query style of Beskales
    /// et al. ref.\[6\]): the `m` objects with the highest probability
    /// of being the 1NN of `q`, semantics of
    /// [`crate::scan::top_probable_nn`].
    pub fn top_probable_nn(&self, q: &UncertainObject, m: usize) -> Vec<ThresholdResult> {
        assert!(m >= 1, "m must be positive");
        self.run_single(QueryView::TopM { q, m })
    }

    /// Executes a mixed [`QueryBatch`] through one shared pass (the
    /// engine's persistent decomposition cache, query-level fan-out over
    /// [`IdcaConfig::batch_threads`] lanes). Returns one result vector
    /// per query, aligned with the batch's insertion order; each vector
    /// is exactly what the corresponding per-query entry point returns.
    pub fn run_batch(&self, batch: &QueryBatch) -> Vec<Vec<ThresholdResult>> {
        let views: Vec<QueryView<'_>> = batch.queries().iter().map(|spec| spec.view()).collect();
        let out = self.parts().run_views(&views);
        self.trim_cache();
        out
    }

    /// One query through the internal batch pipeline.
    fn run_single(&self, view: QueryView<'_>) -> Vec<ThresholdResult> {
        let mut out = self.parts().run_views(&[view]);
        self.trim_cache();
        out.pop().expect("one result set per query")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan, DomCountSnapshot, ShardedEngine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use udb_geometry::{LpNorm, Point};
    use udb_pdf::Pdf;
    use udb_workload::{PdfKind, QuerySet, SyntheticConfig};

    /// The whole point of the lifetime-free redesign: an engine (and an
    /// owned batch) can move across threads — into a spawned serving
    /// task, a shard worker, a queue consumer.
    #[test]
    fn engine_and_batch_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
        assert_send::<QueryBatch>();
    }

    fn synthetic(n: usize) -> (Database, SyntheticConfig) {
        let cfg = SyntheticConfig {
            n,
            max_extent: 0.01,
            ..Default::default()
        };
        (cfg.generate(), cfg)
    }

    #[test]
    fn indexed_filter_matches_scan_filter() {
        let (db, cfg) = synthetic(600);
        let qs = QuerySet::generate(&db, &cfg, 5, 10, LpNorm::L2, 79);
        let engine = Engine::new(db.clone());
        let cfg = IdcaConfig::default();
        for (r, b) in qs.iter() {
            let (target, reference) = (ObjRef::Db(b), ObjRef::External(r));
            let via_index = engine.refiner(target, reference, Predicate::FullPdf);
            let via_scan = Refiner::new(&db, target, reference, cfg.clone(), Predicate::FullPdf);
            assert_eq!(via_index.complete_count(), via_scan.complete_count());
            let mut a: Vec<_> = via_index.influence_ids().collect();
            let mut s: Vec<_> = via_scan.influence_ids().collect();
            a.sort_unstable();
            s.sort_unstable();
            assert_eq!(a, s);
        }
    }

    /// A snapshot's every bit: the bounds, the predicate CDF, the counts
    /// and the iteration.
    type SnapshotBits = (Vec<(u64, u64)>, Option<(u64, u64)>, [usize; 3]);

    fn snapshot_bits(s: &DomCountSnapshot) -> SnapshotBits {
        let bounds = (0..s.bounds.len())
            .map(|k| (s.bounds.lower(k).to_bits(), s.bounds.upper(k).to_bits()))
            .collect();
        let cdf = s.predicate_cdf.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
        (
            bounds,
            cdf,
            [s.complete_count, s.influence_count, s.iteration],
        )
    }

    /// The engine's refiner (index filter, private decomposition
    /// entries), the standalone scan refiner and a refiner the plane
    /// builds on the engine's cache and a query entry agree bit for bit
    /// at every level, on uniform, Gaussian and correlated-histogram
    /// objects. The query set runs twice, so the second pass replays
    /// warm cache entries.
    #[test]
    fn indexed_refiner_produces_identical_bounds() {
        for pdf in [
            PdfKind::Uniform,
            PdfKind::Gaussian,
            PdfKind::CorrelatedHistogram,
        ] {
            let cfg = SyntheticConfig {
                n: 300,
                max_extent: 0.01,
                pdf,
                ..Default::default()
            };
            let db = cfg.generate();
            let qs = QuerySet::generate(&db, &cfg, 3, 10, LpNorm::L2, 80);
            let idca = IdcaConfig {
                max_iterations: 4,
                uncertainty_target: 0.0,
                ..Default::default()
            };
            let engine = Engine::with_config(db.clone(), idca.clone());
            for pass in 0..2 {
                for (r, b) in qs.iter() {
                    let (target, reference) = (ObjRef::Db(b), ObjRef::External(r));
                    let q_dec = SharedDecomp::new(r.pdf(), idca.split_strategy);
                    let predicate = Predicate::FullPdf;
                    let mut refiners = [
                        engine.refiner(target, reference, predicate),
                        Refiner::new(&db, target, reference, idca.clone(), predicate),
                        engine
                            .parts()
                            .refiner(target, reference, predicate, Some(&q_dec)),
                    ];
                    loop {
                        let snaps = refiners.each_mut().map(|r| snapshot_bits(&r.snapshot()));
                        let level = snaps[0].2[2];
                        let what = format!("{pdf:?}, pass {pass}, target {b}, level {level}");
                        assert_eq!(snaps[0], snaps[1], "engine vs scan: {what}");
                        assert_eq!(snaps[0], snaps[2], "engine vs cached: {what}");
                        if level >= idca.max_iterations {
                            break;
                        }
                        let steps = refiners.each_mut().map(|r| r.step());
                        assert!(steps.iter().all(|&s| s == steps[0]), "{what}: {steps:?}");
                        if !steps[0] {
                            break;
                        }
                    }
                }
                assert!(!engine.decomps.is_empty(), "{pdf:?}: the cache is warm");
            }
        }
    }

    #[test]
    fn indexed_filter_demotes_existential_dominators() {
        // a certain dominator with existence 0.5 must land in the
        // influence set, not the complete count
        let dominator = UncertainObject::with_existence(
            Pdf::uniform(Rect::from_point(&Point::from([1.0, 0.0]))),
            0.5,
        );
        let target = UncertainObject::certain(Point::from([3.0, 0.0]));
        let db = Database::from_objects(vec![dominator, target]);
        let engine = Engine::new(db);
        let q = UncertainObject::certain(Point::from([0.0, 0.0]));
        let refiner = engine.refiner(
            ObjRef::Db(ObjectId(1)),
            ObjRef::External(&q),
            Predicate::FullPdf,
        );
        assert_eq!(refiner.complete_count(), 0);
        assert_eq!(
            refiner.influence_ids().collect::<Vec<_>>(),
            vec![ObjectId(0)]
        );
    }

    #[test]
    fn indexed_candidates_match_scan_filter() {
        let (db, cfg) = synthetic(500);
        let qs = QuerySet::generate(&db, &cfg, 4, 10, LpNorm::L2, 77);
        let engine = Engine::new(db.clone());
        let cfg = IdcaConfig::default();
        for (r, _) in qs.iter() {
            for k in [1usize, 5, 10] {
                let mut a = engine.knn_candidates(r.mbr(), k);
                // scan-based candidates via the threshold query at tau = 0
                let mut b: Vec<ObjectId> = scan::knn_threshold(&db, &cfg, r, k, 0.0)
                    .into_iter()
                    .map(|res| res.id)
                    .collect();
                a.sort_unstable();
                b.sort_unstable();
                // indexed candidate set must cover the scan-based one (it
                // is computed from the identical MinDist/MaxDist rule, so
                // it must actually be a superset of the surviving objects)
                for id in &b {
                    assert!(
                        a.contains(id),
                        "k={k}: {id} missing from indexed candidates"
                    );
                }
            }
        }
    }

    #[test]
    fn owned_knn_threshold_matches_scan_exactly() {
        let (db, cfg) = synthetic(400);
        let qs = QuerySet::generate(&db, &cfg, 3, 10, LpNorm::L2, 78);
        let engine = Engine::new(db.clone());
        let cfg = IdcaConfig::default();
        for (r, _) in qs.iter() {
            let a = engine.knn_threshold(r, 3, 0.5);
            let b = scan::knn_threshold(&db, &cfg, r, 3, 0.5);
            // the early-exit path replicates run()'s per-candidate
            // operation sequence: same result set, bit-identical bounds
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.prob_lower, y.prob_lower);
                assert_eq!(x.prob_upper, y.prob_upper);
                assert_eq!(x.iterations, y.iterations);
            }
        }
    }

    #[test]
    fn owned_rknn_threshold_matches_scan_exactly() {
        let (db, cfg) = synthetic(250);
        let qs = QuerySet::generate(&db, &cfg, 3, 10, LpNorm::L2, 81);
        let engine = Engine::new(db.clone());
        let cfg = IdcaConfig::default();
        for (r, _) in qs.iter() {
            let a = engine.rknn_threshold(r, 2, 0.5);
            let b = scan::rknn_threshold(&db, &cfg, r, 2, 0.5);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.prob_lower, y.prob_lower);
                assert_eq!(x.prob_upper, y.prob_upper);
            }
        }
    }

    #[test]
    fn owned_top_probable_nn_matches_scan_set() {
        let (db, cfg) = synthetic(300);
        let qs = QuerySet::generate(&db, &cfg, 4, 10, LpNorm::L2, 82);
        let idca = IdcaConfig {
            max_iterations: 5,
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let engine = Engine::with_config(db.clone(), idca.clone());
        for (r, _) in qs.iter() {
            for m in [1usize, 3] {
                let a = engine.top_probable_nn(r, m);
                let b = scan::top_probable_nn(&db, &idca, r, m);
                let mut a_ids: Vec<ObjectId> = a.iter().map(|x| x.id).collect();
                let mut b_ids: Vec<ObjectId> = b.iter().map(|x| x.id).collect();
                a_ids.sort_unstable();
                b_ids.sort_unstable();
                // cross-candidate retirement may freeze an also-ran's
                // bounds early, but the returned top-m *set* must match
                // the run-to-convergence path
                assert_eq!(a_ids, b_ids, "m={m}");
                // and the winners' own bounds are fully refined in both
                for x in &a {
                    let y = b.iter().find(|y| y.id == x.id).unwrap();
                    assert_eq!(x.prob_lower, y.prob_lower);
                    assert_eq!(x.prob_upper, y.prob_upper);
                }
            }
        }
    }

    /// RkNN edge cases in one database: uniform boxes, certain points,
    /// objects that may be absent, exact copies of earlier objects
    /// (coincident MBRs) and boxes nested inside earlier ones.
    fn rknn_fixture(seed: u64, n: usize) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut objects: Vec<UncertainObject> = Vec::with_capacity(n);
        while objects.len() < n {
            let c = Point::from([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]);
            let pdf = match rng.gen_range(0..6) {
                0 => Pdf::uniform(Rect::from_point(&c)),
                1 if !objects.is_empty() => objects[rng.gen_range(0..objects.len())].pdf().clone(),
                2 if !objects.is_empty() => {
                    let outer = objects[rng.gen_range(0..objects.len())].mbr();
                    let shrink = rng.gen_range(0.0..1.0);
                    let half: Vec<f64> = outer
                        .intervals()
                        .iter()
                        .map(|iv| 0.5 * shrink * (iv.hi() - iv.lo()))
                        .collect();
                    Pdf::uniform(Rect::centered(&outer.center(), &half))
                }
                _ => {
                    let half = [rng.gen_range(0.0..0.02), rng.gen_range(0.0..0.02)];
                    Pdf::uniform(Rect::centered(&c, &half))
                }
            };
            let existence = if rng.gen_bool(0.2) {
                rng.gen_range(0.3..1.0)
            } else {
                1.0
            };
            objects.push(UncertainObject::with_existence(pdf, existence));
        }
        Database::from_objects(objects)
    }

    /// Bit-exact comparison of two RkNN answers.
    fn assert_same_bits(a: &[ThresholdResult], b: &[ThresholdResult], what: &str) {
        let bits = |r: &[ThresholdResult]| -> Vec<(ObjectId, u64, u64)> {
            r.iter()
                .map(|x| (x.id, x.prob_lower.to_bits(), x.prob_upper.to_bits()))
                .collect()
        };
        assert_eq!(bits(a), bits(b), "{what}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        /// The index-driven enumeration with its node veto keeps exactly
        /// the scan oracle's survivors: at `tau = 0` every object that
        /// is not vetoed is refined and answered, so equal answers mean
        /// equal survivor sets, at 1, 2 and 4 shards.
        #[test]
        fn rknn_prefilter_probe_matches_scan_prefilter(seed in 0u64..1_000_000, n in 300usize..700) {
            let db = rknn_fixture(seed, n);
            let cfg = IdcaConfig {
                max_iterations: 2,
                ..Default::default()
            };
            let single = Engine::with_config(db.clone(), cfg.clone());
            assert!(single.tree().height() >= 3, "tree too shallow");
            let sharded: Vec<ShardedEngine> = [2, 4]
                .iter()
                .map(|&s| ShardedEngine::with_config(db.clone(), cfg.clone(), s))
                .collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
            let some = |rng: &mut StdRng| db.get(ObjectId(rng.gen_range(0..n as u32))).clone();
            let queries = [
                // a point query, a box query and a query coincident with
                // a database object
                UncertainObject::certain(Point::from([rng.gen_range(0.0..1.0), 0.5])),
                UncertainObject::new(Pdf::uniform(Rect::centered(
                    &Point::from([rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]),
                    &[0.01, 0.03],
                ))),
                some(&mut rng),
            ];
            for q in &queries {
                for k in [1usize, 2, 5] {
                    let want = scan::rknn_threshold(&db, &cfg, q, k, 0.0);
                    assert_same_bits(&single.rknn_threshold(q, k, 0.0), &want, "1 shard");
                    for engine in &sharded {
                        let got = engine.rknn_threshold(q, k, 0.0);
                        assert_same_bits(&got, &want, "sharded");
                    }
                }
            }
        }
    }

    #[test]
    fn node_veto_needs_k_dominators_besides_a_member() {
        // leaf A: 16 far objects; leaf B: a cluster near (10, 0) whose
        // only certainly existing member `b` robustly dominates q w.r.t.
        // the whole leaf box — the leaf's only robust dominator
        let q = UncertainObject::certain(Point::from([0.0, 0.0]));
        let mut objects: Vec<UncertainObject> = (0..16)
            .map(|i| UncertainObject::certain(Point::from([-100.0 + i as f64, 50.0])))
            .collect();
        objects.push(UncertainObject::certain(Point::from([10.0, 0.0])));
        let b = ObjectId(16);
        for i in 0..15 {
            let p = Point::from([10.0 + 0.01 * i as f64, 0.05]);
            objects.push(UncertainObject::with_existence(
                Pdf::uniform(Rect::from_point(&p)),
                0.5,
            ));
        }
        let db = Database::from_objects(objects);
        let cfg = IdcaConfig::default();
        let engine = Engine::with_config(db.clone(), cfg.clone());
        assert_eq!(engine.tree().height(), 2);
        let mut leaf_b = None;
        engine.tree().for_each_unpruned(
            &mut |r| {
                if r.contains_rect(db.get(b).mbr()) {
                    leaf_b = Some(r.clone());
                }
                true
            },
            &mut |_| {},
        );
        let leaf_b = leaf_b.expect("b's leaf box");
        let plane = engine.parts();
        // one robust dominator: it vetoes at k = 0 (cap 1), not at k = 1
        assert!(plane.node_vetoed(&q, &leaf_b, 0));
        assert!(!plane.node_vetoed(&q, &leaf_b, 1));
        // so b survives — no object besides itself dominates q w.r.t. b
        // — while its cluster mates are vetoed by b
        for shards in [1, 2, 4] {
            let sharded = ShardedEngine::with_config(db.clone(), cfg.clone(), shards);
            let got = sharded.rknn_threshold(&q, 1, 0.0);
            assert_same_bits(&got, &scan::rknn_threshold(&db, &cfg, &q, 1, 0.0), "oracle");
            assert!(got.iter().any(|r| r.id == b), "b vetoed at {shards} shards");
            assert!(got.iter().all(|r| r.id.0 < 17), "a cluster mate survived");
        }
    }

    #[test]
    fn candidate_stream_terminates_early() {
        // a dense cluster near the query and a huge far-away bulk: the
        // index must not touch the far objects
        let mut objects = Vec::new();
        for i in 0..5 {
            objects.push(UncertainObject::certain(Point::from([
                i as f64 * 0.01,
                0.0,
            ])));
        }
        for i in 0..200 {
            objects.push(UncertainObject::certain(Point::from([
                100.0 + i as f64,
                100.0,
            ])));
        }
        let engine = Engine::new(Database::from_objects(objects));
        let q = Rect::from_point(&Point::from([0.0, 0.0]));
        let cands = engine.knn_candidates(&q, 2);
        assert!(cands.len() <= 5, "far bulk leaked in: {}", cands.len());
    }

    #[test]
    fn works_with_uncertain_query_region() {
        let engine = Engine::new(Database::from_objects(vec![
            UncertainObject::new(Pdf::uniform(Rect::centered(
                &Point::from([1.0, 0.0]),
                &[0.3, 0.3],
            ))),
            UncertainObject::certain(Point::from([5.0, 0.0])),
        ]));
        let q = UncertainObject::new(Pdf::uniform(Rect::centered(
            &Point::from([0.0, 0.0]),
            &[0.5, 0.5],
        )));
        let res = engine.knn_threshold(&q, 1, 0.5);
        assert!(res.iter().any(|r| r.id == ObjectId(0) && r.is_hit(0.5)));
    }

    #[test]
    fn batch_results_align_with_insertion_order() {
        let (db, cfg) = synthetic(250);
        let qs = QuerySet::generate(&db, &cfg, 3, 10, LpNorm::L2, 91);
        let engine = Engine::new(db);
        let mut batch = QueryBatch::new();
        batch
            .knn_threshold(qs.references[0].clone(), 3, 0.5)
            .top_probable_nn(qs.references[1].clone(), 2)
            .rknn_threshold(qs.references[2].clone(), 2, 0.5);
        assert_eq!(batch.len(), 3);
        let results = engine.run_batch(&batch);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], engine.knn_threshold(&qs.references[0], 3, 0.5));
        assert_eq!(results[1], engine.top_probable_nn(&qs.references[1], 2));
        assert_eq!(results[2], engine.rknn_threshold(&qs.references[2], 2, 0.5));
    }

    #[test]
    fn empty_batch_is_fine() {
        let (db, _) = synthetic(50);
        let engine = Engine::new(db);
        assert!(engine.run_batch(&QueryBatch::new()).is_empty());
    }

    #[test]
    fn mutations_maintain_index_and_results() {
        let (db, cfg) = synthetic(120);
        let qs = QuerySet::generate(&db, &cfg, 2, 10, LpNorm::L2, 92);
        let mut engine = Engine::new(db.clone());
        let q = &qs.references[0];
        // remove a handful, update one, insert one
        engine.remove(ObjectId(3));
        engine.remove(ObjectId(77));
        let moved = db.get(ObjectId(10)).clone();
        engine.update(ObjectId(11), moved);
        let new_id = engine.insert(db.get(ObjectId(5)).clone());
        assert_eq!(new_id, ObjectId(120));
        engine.tree().check_invariants();
        assert_eq!(engine.db().len(), 119);
        assert_eq!(engine.tree().len(), 119);
        // a freshly built engine over the mutated database is the oracle
        let fresh = Engine::new(engine.db().clone());
        assert_eq!(
            engine.knn_threshold(q, 3, 0.4),
            fresh.knn_threshold(q, 3, 0.4)
        );
        assert_eq!(
            engine.rknn_threshold(q, 2, 0.4),
            fresh.rknn_threshold(q, 2, 0.4)
        );
        assert_eq!(engine.top_probable_nn(q, 2), fresh.top_probable_nn(q, 2));
    }

    #[test]
    fn persistent_cache_fills_and_trims() {
        let cfg = SyntheticConfig {
            n: 150,
            max_extent: 0.1,
            ..Default::default()
        };
        let db = cfg.generate();
        let qs = QuerySet::generate(&db, &cfg, 2, 10, LpNorm::L2, 93);
        let idca = IdcaConfig {
            max_iterations: 3,
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let engine = Engine::with_config(db, idca);
        let q = &qs.references[0];
        let warm = engine.top_probable_nn(q, 2);
        let filled = engine.decomp_cache_len();
        assert!(filled > 0, "cache never filled");
        assert!(filled <= DECOMP_CACHE_ENTRIES, "trim respects capacity");
        // repeat against the warm cache: bit-identical results
        assert_eq!(engine.top_probable_nn(q, 2), warm);
        // an LRU trim keeps at most its capacity and changes nothing
        engine.decomps.trim(4);
        assert_eq!(engine.decomp_cache_len(), filled.min(4));
        assert_eq!(engine.top_probable_nn(q, 2), warm);
    }

    /// Cache eviction at tiny capacities never changes results: an
    /// engine whose cache is trimmed to 1, 2 or 3 entries after every
    /// call (constant churn, most entries evicted every time) answers
    /// bit-for-bit like a freshly built engine.
    fn check_tiny_capacities(seed: u64) {
        let pdf = [
            PdfKind::Uniform,
            PdfKind::Gaussian,
            PdfKind::CorrelatedHistogram,
        ][(seed % 3) as usize];
        let object_cfg = SyntheticConfig {
            n: 40,
            max_extent: 0.1,
            pdf,
            seed,
            ..Default::default()
        };
        let db = object_cfg.generate();
        let idca = IdcaConfig {
            max_iterations: 4,
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x71C4);
        let hot = object_cfg.generate_object(&mut rng);
        let batches: Vec<QueryBatch> = (0..2)
            .map(|_| {
                let mut batch = QueryBatch::new();
                for i in 0..4 {
                    let q = if i % 2 == 0 {
                        hot.clone()
                    } else {
                        object_cfg.generate_object(&mut rng)
                    };
                    match i % 3 {
                        0 => batch.knn_threshold(q, 2, 0.3),
                        1 => batch.rknn_threshold(q, 2, 0.3),
                        _ => batch.top_probable_nn(q, 2),
                    };
                }
                batch
            })
            .collect();
        let oracles: Vec<Vec<Vec<ThresholdResult>>> = batches
            .iter()
            .map(|b| Engine::with_config(db.clone(), idca.clone()).run_batch(b))
            .collect();
        for cap in [1usize, 2, 3] {
            let tiny = Engine::with_config(db.clone(), idca.clone());
            let mut evicted = false;
            for round in 0..2 {
                for (bi, (batch, oracle)) in batches.iter().zip(&oracles).enumerate() {
                    let got = tiny.run_batch(batch);
                    evicted |= tiny.decomp_cache_len() > cap;
                    tiny.decomps.trim(cap);
                    assert!(tiny.decomp_cache_len() <= cap);
                    for (qi, (g, o)) in got.iter().zip(oracle).enumerate() {
                        assert_same_bits(
                            g,
                            o,
                            &format!("cap={cap} round={round} batch={bi} q={qi}"),
                        );
                        let iterations = |r: &[ThresholdResult]| -> Vec<usize> {
                            r.iter().map(|x| x.iterations).collect()
                        };
                        assert_eq!(iterations(g), iterations(o));
                    }
                }
            }
            assert!(evicted, "cap={cap}: the trim never evicted anything");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        #[test]
        fn tiny_cache_capacities_never_change_results(seed in 0u64..10_000) {
            check_tiny_capacities(seed);
        }
    }
}
