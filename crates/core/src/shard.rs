//! The sharded serving engine: N independent [`Engine`] shards behind
//! one router, bit-identical to a single engine holding the union.
//!
//! # The global-id scheme
//!
//! Shard count `n` interleaves the id space: global id `g` lives in
//! shard `g mod n` at local slot `g div n` (for power-of-two `n` this
//! is exactly a shard tag bit-or'd into the low bits of the local id:
//! `g = local << log2(n) | shard`). The tag sits in the **low** bits —
//! not the high bits — deliberately: refinement multiplies UGF factors
//! in ascending-id order, so result bits depend on id *order*. With
//! low-bit tags and round-robin insert routing, global ids are assigned
//! in ascending arrival order — the i-th object ever inserted gets
//! global id `i`, exactly the id a single engine would assign — so
//! sorted-global-id order equals the single engine's sorted-id order
//! and every refinement product multiplies in the same order. A
//! high-bit tag would sort all of shard 0 before all of shard 1 and
//! reorder the products (float multiplication does not reassociate).
//!
//! Ids are stable under tombstones: removals kill a global id forever
//! (the shard's local slot tombstones, local ids are never reused, so
//! global ids are never reused).
//!
//! # Routing
//!
//! Mutations route by id: `remove`/`update` go to shard `g mod n`;
//! `insert` goes to the shard whose next fresh *global* id
//! (`next_local · n + shard`) is smallest — plain round-robin in the
//! steady state, and self-healing after a lossy crash recovery (a
//! shard that lost an unsynced tail re-fills its id holes first, so
//! global ids keep being assigned in ascending order). Queries fan out
//! across all shards through the `crate::router` plane, which merges
//! per-shard candidate streams under one global pruning bound and sums
//! per-shard RkNN veto counts; refinement itself runs at the router
//! over a cross-shard [`crate::DbView`], so influence sets spanning
//! shards multiply in exactly the single-engine order.
//!
//! A one-shard engine **is** the plain engine: every query and batch
//! delegates to the shard's own entry points (asserted in the
//! equivalence suite via the router's untouched [`RefineStats`]), so
//! the `UDB_SHARDS=1` CI axis exercises the identical code path the
//! non-sharded suite runs.
//!
//! # Durability
//!
//! [`ShardedEngine::open`] gives every shard its own directory
//! (`<dir>/shard-<i>`) with its own WAL + checkpoints; a crash in one
//! shard recovers without touching the others
//! (`tests/sharded_durability.rs`). A `shards` marker file pins the
//! shard count a directory was created with — reopening with a
//! different count would silently re-map every global id.

use udb_geometry::Rect;
use udb_index::RTree;
use udb_object::{Database, ObjectId, UncertainObject};

use std::path::Path;
use std::sync::Arc;

use crate::batch::{QueryBatch, QueryView};
use crate::config::IdcaConfig;
use crate::decomp::{DecompCache, DECOMP_CACHE_ENTRIES};
use crate::durable::{DurableError, RecoveryReport};
use crate::engine::{assert_run_dims, Engine, ScratchPool};
use crate::parallel::PoolHandle;
use crate::queries::ThresholdResult;
use crate::refiner::RefineStats;
use crate::router::{QueryPlane, ShardRef};
use crate::standing::{
    self, validate_spec, ResultDelta, StandingRegistry, StandingSpec, StandingStats,
};
use crate::wal::{DurableIo, FileIo};

/// The `UDB_SHARDS` environment knob: how many shards test suites,
/// examples and the serve binary should run with. `None` when unset or
/// unparsable (callers fall back to 1, the plain engine).
pub fn env_shards() -> Option<usize> {
    std::env::var("UDB_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// N engine shards with disjoint interleaved id spaces behind one
/// mutation router and one cross-shard query plane (see the module
/// docs). The public surface mirrors [`Engine`] — insert/remove/update
/// in place, per-query entry points, [`ShardedEngine::run_batch`] —
/// with ids being *global* ids everywhere.
///
/// ```
/// use udb_core::ShardedEngine;
/// use udb_geometry::Point;
/// use udb_object::{Database, ObjectId, UncertainObject};
///
/// let db = Database::from_objects(vec![
///     UncertainObject::certain(Point::from([1.0, 0.0])),
///     UncertainObject::certain(Point::from([2.0, 0.0])),
/// ]);
/// let mut engine = ShardedEngine::new(db, 2);
/// // round-robin: the next insert lands on shard 0 at global id 2
/// let id = engine.insert(UncertainObject::certain(Point::from([3.0, 0.0])));
/// assert_eq!(id, ObjectId(2));
/// let q = UncertainObject::certain(Point::from([0.0, 0.0]));
/// assert_eq!(engine.knn_threshold(&q, 1, 0.5).len(), 1);
/// ```
pub struct ShardedEngine {
    shards: Vec<Engine>,
    cfg: IdcaConfig,
    /// Router-level worker pool: cross-shard batches fan their query
    /// tasks over this pool (shard pools only serve the 1-shard path).
    pool: PoolHandle,
    /// Router-level persistent decomposition cache, keyed by *global*
    /// id (the shard engines' own caches are idle above 1 shard).
    decomps: Arc<DecompCache>,
    /// Router-level subtree-filter scratch pool.
    scratch: ScratchPool,
    /// Router-level refinement round counter. Stays at zero while
    /// queries delegate to a single shard — the 1-shard plain-path
    /// assertion the equivalence suite checks.
    stats: Arc<RefineStats>,
    /// Router-level standing-query registry: subscriptions span all
    /// shards, so they register here and maintain against the
    /// cross-shard plane. A one-shard engine delegates to the shard's
    /// own registry instead (the plain path), leaving this one empty.
    standing: StandingRegistry,
}

impl std::fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards.len())
            .field("objects", &self.len())
            .field("decomp_cache_len", &self.decomps.len())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl ShardedEngine {
    /// Shards `db` across `shards` engines with the default
    /// configuration. See [`ShardedEngine::with_config`].
    pub fn new(db: Database, shards: usize) -> Self {
        ShardedEngine::with_config(db, IdcaConfig::default(), shards)
    }

    /// Shards `db` round-robin across `shards` engines: object `i`
    /// (ascending id order) goes to shard `i mod shards`, keeping its
    /// id as the global id — the sharded engine answers exactly like
    /// `Engine::with_config(db, cfg)` over the same database.
    ///
    /// # Panics
    /// Panics if `shards == 0`, or if `db` is not contiguous (ids
    /// `0..len` — a database with tombstones has no arrival order to
    /// reconstruct; shard it before removing, not after).
    pub fn with_config(db: Database, cfg: IdcaConfig, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(
            db.base_id() == 0 && db.next_id() as usize == db.len(),
            "sharding requires a contiguous database (ids 0..len, no tombstones)"
        );
        let mut parts: Vec<Vec<UncertainObject>> = (0..shards).map(|_| Vec::new()).collect();
        for (id, obj) in db.iter() {
            parts[id.index() % shards].push(obj.clone());
        }
        let engines: Vec<Engine> = parts
            .into_iter()
            .map(|objs| Engine::with_config(Database::from_objects(objs), cfg.clone()))
            .collect();
        ShardedEngine::assemble(engines, cfg)
    }

    /// Opens (creating or recovering) a durable sharded engine: shard
    /// `i` owns `<dir>/shard-<i>` with its own WAL + checkpoints and
    /// recovers independently — a crash in one shard never touches the
    /// others' directories. See [`Engine::open`] for the per-shard
    /// recovery semantics.
    ///
    /// # Errors
    /// Fails when any shard fails to open, or on IO errors around the
    /// `shards` marker file.
    ///
    /// # Panics
    /// Panics if `shards == 0`, or if the directory was created with a
    /// different shard count (the marker file disagrees) — reopening
    /// with a different count would silently re-map every global id.
    pub fn open(
        dir: impl AsRef<Path>,
        cfg: IdcaConfig,
        shards: usize,
    ) -> Result<Self, DurableError> {
        ShardedEngine::open_with_io(dir, cfg, shards, |_| Box::new(FileIo::new()))
    }

    /// [`ShardedEngine::open`] with one injected IO layer per shard —
    /// the fault-injection hook: arm a [`crate::FaultIo`] for a single
    /// shard to crash it while its siblings keep running clean.
    pub fn open_with_io(
        dir: impl AsRef<Path>,
        cfg: IdcaConfig,
        shards: usize,
        mut io: impl FnMut(usize) -> Box<dyn DurableIo>,
    ) -> Result<Self, DurableError> {
        assert!(shards >= 1, "need at least one shard");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let marker = dir.join("shards");
        match std::fs::read_to_string(&marker) {
            Ok(text) => {
                let recorded: usize = text.trim().parse().unwrap_or(0);
                assert_eq!(
                    recorded, shards,
                    "directory {dir:?} was created with {recorded} shard(s); reopening with \
                     {shards} would re-map every global id"
                );
            }
            Err(_) => std::fs::write(&marker, format!("{shards}\n"))?,
        }
        let mut engines = Vec::with_capacity(shards);
        for s in 0..shards {
            engines.push(Engine::open_with_io(
                dir.join(format!("shard-{s}")),
                cfg.clone(),
                io(s),
            )?);
        }
        Ok(ShardedEngine::assemble(engines, cfg))
    }

    /// The shared construction tail: router-owned pool, cache, scratch
    /// and stats around an assembled shard vector.
    fn assemble(shards: Vec<Engine>, cfg: IdcaConfig) -> Self {
        ShardedEngine {
            shards,
            pool: PoolHandle::default(),
            decomps: Arc::new(DecompCache::new(cfg.split_strategy)),
            scratch: ScratchPool::default(),
            stats: Arc::new(RefineStats::default()),
            cfg,
            standing: StandingRegistry::default(),
        }
    }

    // ------------------------------------------------------------------
    // Id space
    // ------------------------------------------------------------------

    /// Shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding global id `id` (`id mod n`).
    pub fn shard_of(&self, id: ObjectId) -> usize {
        id.index() % self.shards.len()
    }

    /// The local id of global id `id` within its shard (`id div n`).
    pub fn local_id(&self, id: ObjectId) -> ObjectId {
        ObjectId(id.0 / self.shards.len() as u32)
    }

    /// The global id of shard `shard`'s local id (`local · n + shard`).
    pub fn global_id(&self, shard: usize, local: ObjectId) -> ObjectId {
        ObjectId(local.0 * self.shards.len() as u32 + shard as u32)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The shard engines, in tag order. Global id `g` lives in
    /// `shards()[g % n]` under local id `g / n`.
    pub fn shards(&self) -> &[Engine] {
        &self.shards
    }

    /// The engine configuration.
    pub fn config(&self) -> &IdcaConfig {
        &self.cfg
    }

    /// Live objects across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.db().len()).sum()
    }

    /// Whether no shard holds a live object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutations applied across all shards over their lifetimes.
    pub fn mutations(&self) -> u64 {
        self.shards.iter().map(Engine::mutations).sum()
    }

    /// Failed cadence checkpoints across all shards (see
    /// [`Engine::checkpoint_failures`]).
    pub fn checkpoint_failures(&self) -> u64 {
        self.shards.iter().map(Engine::checkpoint_failures).sum()
    }

    /// Whether every shard logs to its own WAL directory.
    pub fn is_durable(&self) -> bool {
        self.shards.iter().all(Engine::is_durable)
    }

    /// Per-shard recovery reports (aligned with [`ShardedEngine::shards`]);
    /// `None` entries are shards that were constructed, not opened.
    pub fn recovery_reports(&self) -> Vec<Option<&RecoveryReport>> {
        self.shards.iter().map(Engine::recovery_report).collect()
    }

    /// The *router-level* refinement round counter: advanced only
    /// by cross-shard query plans. A one-shard engine delegates to the
    /// shard's own pipeline, so these stay at zero — the plain-path
    /// assertion.
    pub fn refine_stats(&self) -> &Arc<RefineStats> {
        &self.stats
    }

    /// Objects held by the router-level decomposition cache.
    pub fn decomp_cache_len(&self) -> usize {
        self.decomps.len()
    }

    /// Whether a global id is live.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.shards[self.shard_of(id)]
            .db()
            .contains(self.local_id(id))
    }

    /// The live object behind a global id.
    ///
    /// # Panics
    /// Panics if `id` is dead or out of range.
    pub fn get(&self, id: ObjectId) -> &UncertainObject {
        self.shards[self.shard_of(id)].db().get(self.local_id(id))
    }

    /// The live object behind a global id, `None` when dead.
    pub fn try_get(&self, id: ObjectId) -> Option<&UncertainObject> {
        let shard = self.shards.get(self.shard_of(id))?;
        shard.db().try_get(self.local_id(id))
    }

    // ------------------------------------------------------------------
    // Mutation routing
    // ------------------------------------------------------------------

    /// Inserts an object, returning its fresh *global* id — for the
    /// same arrival sequence, the same id a single engine would assign.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch, or when the shard's WAL
    /// rejects the record ([`ShardedEngine::try_insert`] to handle).
    pub fn insert(&mut self, object: UncertainObject) -> ObjectId {
        self.try_insert(object).expect("WAL append failed")
    }

    /// [`ShardedEngine::insert`], surfacing WAL errors instead of
    /// panicking. The mutation is not applied on error.
    ///
    /// # Errors
    /// Fails when the target shard cannot log the record.
    pub fn try_insert(&mut self, object: UncertainObject) -> Result<ObjectId, DurableError> {
        if self.shards.len() == 1 {
            return self.shards[0].try_insert(object);
        }
        let mut id = None;
        self.insert_run_with(vec![object], |_, applied| id = Some(applied))?;
        Ok(id.expect("a run of one applies one insert"))
    }

    /// [`Engine::try_insert_run`] across shards: the run's global ids
    /// are assigned up front (the ids the inserts would get one by one),
    /// every record is appended to its shard's WAL in run order, each
    /// touched shard fsyncs its segment once, and only then are the
    /// inserts applied in order, each followed by its standing
    /// maintenance. Each touched shard checks its checkpoint cadence
    /// once, after the whole run. One shard delegates to
    /// [`Engine::try_insert_run`].
    ///
    /// # Errors
    /// Fails when an append or an fsync fails: then no insert of the
    /// run is applied, and every touched shard's records are cut from
    /// its WAL again.
    ///
    /// # Panics
    /// Panics on a dimensionality mismatch (see
    /// [`Engine::try_insert_run`]), before anything is logged.
    pub fn try_insert_run(
        &mut self,
        objects: Vec<UncertainObject>,
    ) -> Result<Vec<(ObjectId, Vec<ResultDelta>)>, DurableError> {
        if self.shards.len() == 1 {
            return self.shards[0].try_insert_run(objects);
        }
        let mut ids = Vec::with_capacity(objects.len());
        let mut ends = Vec::with_capacity(objects.len());
        self.insert_run_with(objects, |engine, id| {
            ids.push(id);
            ends.push(engine.standing.queued_deltas());
        })?;
        let deltas = self.standing.take_deltas_split(&ends);
        Ok(ids.into_iter().zip(deltas).collect())
    }

    /// The cross-shard insert-run body behind
    /// [`ShardedEngine::try_insert`] and [`ShardedEngine::try_insert_run`]
    /// (more than one shard): log, fsync each touched shard once, apply
    /// in order (calling `applied` after each insert's maintenance), then
    /// check each touched shard's checkpoint cadence.
    fn insert_run_with(
        &mut self,
        objects: Vec<UncertainObject>,
        mut applied: impl FnMut(&Self, ObjectId),
    ) -> Result<(), DurableError> {
        debug_assert!(self.shards.len() > 1, "one shard runs in the shard");
        assert_run_dims(self.shards.iter().find_map(|e| e.db().dims()), &objects);
        let mut next: Vec<u32> = self.shards.iter().map(|e| e.db().next_id()).collect();
        let slots: Vec<(usize, u32)> = objects.iter().map(|_| next_slot(&mut next)).collect();
        let marks: Vec<_> = self.shards.iter().map(Engine::wal_mark).collect();
        let mut touched: Vec<usize> = Vec::new();
        let mut log = || {
            for (object, &(s, _)) in objects.iter().zip(&slots) {
                if !touched.contains(&s) {
                    touched.push(s);
                }
                self.shards[s].append_insert(object)?;
            }
            touched.iter().try_for_each(|&s| self.shards[s].sync_due())
        };
        if let Err(e) = log() {
            // a refused run leaves no record behind, also on the
            // shards whose own fsync succeeded
            for &s in &touched {
                self.shards[s].wal_roll_back(marks[s]);
            }
            return Err(e);
        }
        for (object, (s, gid)) in objects.into_iter().zip(slots) {
            let local = self.shards[s].apply_insert(object);
            debug_assert_eq!(self.global_id(s, local), ObjectId(gid));
            // fresh global ids are never reused, so no cache invalidation
            let id = ObjectId(gid);
            if !self.standing.is_empty() {
                let m = standing::Mutation {
                    id,
                    old: None,
                    new: Some(self.get(id).mbr().clone()),
                };
                self.maintain_standing(&m);
            }
            applied(self, id);
        }
        for &s in &touched {
            self.shards[s].checkpoint_due();
        }
        Ok(())
    }

    /// Removes the object behind a global id, returning it. The id is
    /// dead forever on its shard.
    ///
    /// # Panics
    /// Panics if `id` is not live, or when the shard's WAL rejects the
    /// record ([`ShardedEngine::try_remove`] to handle).
    pub fn remove(&mut self, id: ObjectId) -> UncertainObject {
        self.try_remove(id).expect("WAL append failed")
    }

    /// [`ShardedEngine::remove`], surfacing WAL errors.
    ///
    /// # Errors
    /// Fails when the owning shard cannot log the record; the mutation
    /// is then **not** applied.
    ///
    /// # Panics
    /// Panics if `id` is not a live object.
    pub fn try_remove(&mut self, id: ObjectId) -> Result<UncertainObject, DurableError> {
        let shard = self.shard_of(id);
        let local = self.local_id(id);
        let object = self.shards[shard].try_remove(local)?;
        // the router cache is keyed by global id; the shard engine only
        // invalidated its own (local-id-keyed, idle above 1 shard) cache
        self.decomps.invalidate(id);
        if !self.standing.is_empty() {
            let m = standing::Mutation {
                id,
                old: Some(object.mbr().clone()),
                new: None,
            };
            self.maintain_standing(&m);
        }
        Ok(object)
    }

    /// Replaces the object behind a live global id, returning the
    /// previous object.
    ///
    /// # Panics
    /// Panics if `id` is dead or the dimensionality differs, or when
    /// the shard's WAL rejects ([`ShardedEngine::try_update`] to handle).
    pub fn update(&mut self, id: ObjectId, object: UncertainObject) -> UncertainObject {
        self.try_update(id, object).expect("WAL append failed")
    }

    /// [`ShardedEngine::update`], surfacing WAL errors.
    ///
    /// # Errors
    /// Fails when the owning shard cannot log the record; the mutation
    /// is then **not** applied.
    ///
    /// # Panics
    /// Panics if `id` is dead or the dimensionality differs.
    pub fn try_update(
        &mut self,
        id: ObjectId,
        object: UncertainObject,
    ) -> Result<UncertainObject, DurableError> {
        let shard = self.shard_of(id);
        let local = self.local_id(id);
        let old = self.shards[shard].try_update(local, object)?;
        self.decomps.invalidate(id);
        if !self.standing.is_empty() {
            let m = standing::Mutation {
                id,
                old: Some(old.mbr().clone()),
                new: Some(self.get(id).mbr().clone()),
            };
            self.maintain_standing(&m);
        }
        Ok(old)
    }

    /// Checkpoints every shard (compaction + index rebuild; durable
    /// shards snapshot and rotate their WALs).
    ///
    /// # Errors
    /// Fails on the first shard whose snapshot cannot be written;
    /// earlier shards have already checkpointed (each directory is
    /// independent, so partial progress is safe).
    pub fn checkpoint(&mut self) -> Result<(), DurableError> {
        for shard in &mut self.shards {
            shard.checkpoint()?;
        }
        Ok(())
    }

    /// Forces every shard's logged records to stable storage.
    ///
    /// # Errors
    /// Fails on the first shard whose fsync fails.
    pub fn wal_sync(&mut self) -> Result<(), DurableError> {
        for shard in &mut self.shards {
            shard.wal_sync()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Standing queries
    // ------------------------------------------------------------------

    /// Registers a standing query over the union of all shards (see
    /// [`Engine::subscribe`]): the initial answer and every maintained
    /// state are bit-identical to the single-engine subscription at any
    /// shard count. One shard delegates to the shard's own registry —
    /// the plain path — so subscription ids line up across shard counts
    /// (both counters assign 1, 2, … in registration order).
    ///
    /// # Panics
    /// Panics on invalid parameters, like the one-shot entry points.
    pub fn subscribe(
        &mut self,
        q: UncertainObject,
        spec: StandingSpec,
    ) -> (u64, Vec<ThresholdResult>) {
        validate_spec(&spec);
        if self.shards.len() == 1 {
            return self.shards[0].subscribe(q, spec);
        }
        let mut reg = std::mem::take(&mut self.standing);
        let out = {
            let dbs: Vec<&Database> = self.shards.iter().map(Engine::db).collect();
            let trees: Vec<&RTree<ObjectId>> = self.shards.iter().map(Engine::tree).collect();
            standing::subscribe_registry(&mut reg, self.plane(&dbs, &trees), q, spec)
        };
        self.trim_cache();
        self.standing = reg;
        out
    }

    /// Drops a subscription; `false` when the id is unknown.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        if self.shards.len() == 1 {
            return self.shards[0].unsubscribe(id);
        }
        self.standing.unsubscribe(id)
    }

    /// The standing-query maintenance counters. Every counter is
    /// shard-count-invariant: the tier decisions are purely geometric.
    pub fn standing_stats(&self) -> StandingStats {
        if self.shards.len() == 1 {
            return self.shards[0].standing_stats();
        }
        self.standing.stats()
    }

    /// Drains the result deltas queued by maintenance since the last
    /// call (in mutation, then registration order).
    pub fn take_standing_deltas(&mut self) -> Vec<ResultDelta> {
        if self.shards.len() == 1 {
            return self.shards[0].take_standing_deltas();
        }
        self.standing.take_deltas()
    }

    /// The live subscriptions, in registration order.
    pub fn standing_queries(&self) -> &[standing::StandingQuery] {
        if self.shards.len() == 1 {
            return self.shards[0].standing_queries();
        }
        self.standing.subscriptions()
    }

    /// The router-level post-apply maintenance pass: the mutation was
    /// routed to exactly one shard, but registered bounds span shards,
    /// so the guards test against the cross-shard plane and any
    /// re-refinement runs the same merged pipeline queries run.
    fn maintain_standing(&mut self, m: &standing::Mutation) {
        debug_assert!(self.shards.len() > 1, "one shard maintains in the shard");
        let mut reg = std::mem::take(&mut self.standing);
        {
            let dbs: Vec<&Database> = self.shards.iter().map(Engine::db).collect();
            let trees: Vec<&RTree<ObjectId>> = self.shards.iter().map(Engine::tree).collect();
            standing::maintain_registry(&mut reg, self.plane(&dbs, &trees), m);
        }
        self.trim_cache();
        self.standing = reg;
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The global id of the live object whose MBR is nearest to `probe`
    /// by MinDist (`None` when empty): the minimum of the per-shard
    /// nearest hits, ties broken toward the smaller global id. (A
    /// single engine breaks exact MinDist ties in index order instead —
    /// measure-zero for continuous coordinates; workload drivers use
    /// this only to pick mutation targets.)
    pub fn nearest(&self, probe: &Rect) -> Option<ObjectId> {
        if self.shards.len() == 1 {
            return self.shards[0].nearest(probe);
        }
        let mut best: Option<(f64, ObjectId)> = None;
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(hit) = shard.tree().knn_iter(probe, self.cfg.norm).next() {
                let cand = (hit.dist, self.global_id(s, hit.payload));
                if best.is_none_or(|b| cand < b) {
                    best = Some(cand);
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Index-driven spatial kNN candidate set over all shards (global
    /// ids, discovery order) — the merged-stream equivalent of
    /// [`Engine::knn_candidates`].
    pub fn knn_candidates(&self, q: &Rect, k: usize) -> Vec<ObjectId> {
        if self.shards.len() == 1 {
            return self.shards[0].knn_candidates(q, k);
        }
        let dbs: Vec<&Database> = self.shards.iter().map(Engine::db).collect();
        let trees: Vec<&RTree<ObjectId>> = self.shards.iter().map(Engine::tree).collect();
        self.plane(&dbs, &trees).knn_candidates(q, k)
    }

    /// Probabilistic threshold kNN over the union of all shards,
    /// bit-identical to [`Engine::knn_threshold`] on a single engine
    /// holding the same objects (sorted by global id).
    pub fn knn_threshold(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        assert!(k >= 1, "k must be positive");
        assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
        if self.shards.len() == 1 {
            return self.shards[0].knn_threshold(q, k, tau);
        }
        self.run_single(QueryView::Knn { q, k, tau })
    }

    /// Probabilistic threshold reverse kNN over the union, with the
    /// cross-shard veto prefilter exchange (see `crate::router`).
    pub fn rknn_threshold(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        assert!(k >= 1, "k must be positive");
        assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
        if self.shards.len() == 1 {
            return self.shards[0].rknn_threshold(q, k, tau);
        }
        self.run_single(QueryView::Rknn { q, k, tau })
    }

    /// Top-`m` probable nearest neighbours over the union.
    pub fn top_probable_nn(&self, q: &UncertainObject, m: usize) -> Vec<ThresholdResult> {
        assert!(m >= 1, "m must be positive");
        if self.shards.len() == 1 {
            return self.shards[0].top_probable_nn(q, m);
        }
        self.run_single(QueryView::TopM { q, m })
    }

    /// Executes a mixed [`QueryBatch`] through one shared cross-shard
    /// pass: per-query merged candidate streams, the router's
    /// persistent decomposition cache, and query-level fan-out over the
    /// router pool's [`IdcaConfig::batch_threads`] lanes. One result
    /// vector per query, aligned with insertion order, each exactly
    /// what the per-query entry point returns.
    pub fn run_batch(&self, batch: &QueryBatch) -> Vec<Vec<ThresholdResult>> {
        if self.shards.len() == 1 {
            return self.shards[0].run_batch(batch);
        }
        let views: Vec<QueryView<'_>> = batch.queries().iter().map(|spec| spec.view()).collect();
        let dbs: Vec<&Database> = self.shards.iter().map(Engine::db).collect();
        let trees: Vec<&RTree<ObjectId>> = self.shards.iter().map(Engine::tree).collect();
        let out = self.plane(&dbs, &trees).run_views(&views);
        self.trim_cache();
        out
    }

    /// One query through the cross-shard batch pipeline.
    fn run_single(&self, view: QueryView<'_>) -> Vec<ThresholdResult> {
        let dbs: Vec<&Database> = self.shards.iter().map(Engine::db).collect();
        let trees: Vec<&RTree<ObjectId>> = self.shards.iter().map(Engine::tree).collect();
        let mut out = self.plane(&dbs, &trees).run_views(&[view]);
        self.trim_cache();
        out.pop().expect("one result set per query")
    }

    /// The borrowed cross-shard plane for one call.
    fn plane<'a>(
        &'a self,
        dbs: &'a [&'a Database],
        trees: &'a [&'a RTree<ObjectId>],
    ) -> ShardRef<'a> {
        ShardRef {
            dbs,
            trees,
            cfg: &self.cfg,
            pool: &self.pool,
            scratch: &self.scratch,
            stats: &self.stats,
            decomps: &self.decomps,
        }
    }

    /// Post-call LRU trim of the router cache.
    fn trim_cache(&self) {
        self.decomps.trim(DECOMP_CACHE_ENTRIES);
    }
}

/// The shard the next insert routes to, with the global id it gets:
/// the smallest next fresh global id across shards (plain round-robin in
/// the steady state, see the module docs), given each shard's next local
/// id. Advances that shard's next id, so repeated calls assign a run.
fn next_slot(next: &mut [u32]) -> (usize, u32) {
    let n = next.len() as u64;
    let (s, gid) = next
        .iter()
        .enumerate()
        .map(|(s, &local)| (s, u64::from(local) * n + s as u64))
        .min_by_key(|&(_, gid)| gid)
        .expect("at least one shard");
    next[s] += 1;
    (s, u32::try_from(gid).expect("global id space exhausted"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use udb_geometry::Point;
    use udb_workload::SyntheticConfig;

    fn db(n: usize) -> Database {
        SyntheticConfig {
            n,
            max_extent: 0.02,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn sharded_engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ShardedEngine>();
    }

    #[test]
    fn global_ids_track_arrival_order() {
        let mut engine = ShardedEngine::new(db(7), 4);
        // seeding distributed ids 0..7 round-robin; the next arrivals
        // continue the sequence
        for expect in 7u32..23 {
            let id = engine.insert(UncertainObject::certain(Point::from([expect as f64, 0.0])));
            assert_eq!(id, ObjectId(expect));
        }
        assert_eq!(engine.len(), 23);
        // removals tombstone the global id without disturbing the rest
        engine.remove(ObjectId(5));
        assert!(!engine.contains(ObjectId(5)));
        assert_eq!(
            engine.insert(UncertainObject::certain(Point::from([23.0, 0.0]))),
            ObjectId(23)
        );
    }

    #[test]
    fn one_shard_delegates_to_plain_engine() {
        let engine = ShardedEngine::new(db(40), 1);
        let q = UncertainObject::certain(Point::from([0.5, 0.5]));
        let hits = engine.knn_threshold(&q, 2, 0.3);
        assert!(!hits.is_empty());
        // the router plane was never assembled: its stats never move
        assert_eq!(engine.refine_stats().rounds(), 0);
        assert!(engine.shards()[0].refine_stats().rounds() > 0);
    }

    #[test]
    fn sharded_matches_single_engine_smoke() {
        let base = db(60);
        let single = Engine::new(base.clone());
        let sharded = ShardedEngine::new(base, 4);
        let q = UncertainObject::certain(Point::from([0.4, 0.6]));
        assert_eq!(
            single.knn_threshold(&q, 3, 0.25),
            sharded.knn_threshold(&q, 3, 0.25)
        );
        assert_eq!(
            single.rknn_threshold(&q, 2, 0.25),
            sharded.rknn_threshold(&q, 2, 0.25)
        );
        assert_eq!(
            single.top_probable_nn(&q, 2),
            sharded.top_probable_nn(&q, 2)
        );
        let mut a = single.knn_candidates(q.mbr(), 3);
        let mut b = sharded.knn_candidates(q.mbr(), 3);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn sharding_a_tombstoned_database_panics() {
        let mut base = db(10);
        base.remove(ObjectId(3));
        let _ = ShardedEngine::new(base, 2);
    }
}
