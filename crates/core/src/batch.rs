//! Batched query execution: owned query specs, the cross-query
//! decomposition cache and the shared refinement context.
//!
//! Without sharing, every refiner recomputes the kd-tree decomposition
//! of every object it touches, even when the previous query just refined
//! the same objects. A [`QueryBatch`] amortizes that repeated work across
//! the queries of one arrival batch (each query still finds its own
//! candidates with one best-first R-tree descent):
//!
//! * **Cross-query decomposition cache** — a [`DecompCache`] keyed by
//!   object id memoizes every expansion level of every object's
//!   decomposition. Splitting a partition evaluates PDF medians and
//!   masses ([`udb_object::Decomposition::expand_with_map`]); once any
//!   refiner of the batch has expanded object `X` to level `l`, every
//!   other refiner touching `X` — same query or not — replays the cached
//!   level instead of recomputing it. Expansion is deterministic, so the
//!   replay is bit-identical.
//! * **Scratch recycling** — retired refiners return their UGF arena,
//!   open-list arenas and factor-cache vector to a shared
//!   [`ScratchPool`]; later refiners of the batch adopt the allocations.
//! * **Batch-level parallelism** — with
//!   [`crate::IdcaConfig::batch_threads`] > 1 (or the `UDB_THREADS`
//!   shim) the queries fan out over the
//!   engine's persistent [`crate::parallel::WorkerPool`], composing with
//!   the candidate-level and pair-level fan-outs on the same pool.
//!
//! The owned [`crate::Engine`] goes one step further: its cache and
//! scratch pool are **engine-owned and persistent** — bounded by
//! [`crate::IdcaConfig::decomp_cache_entries`], invalidated per object
//! by the mutation API — so the sharing amortizes *across* arrival
//! batches, not just within one.
//!
//! Results are **bit-identical** to running the same queries through the
//! sequential per-query entry points, at every `batch_threads` count and
//! every cache capacity — the shared state is work, never numbers
//! (property-tested in `tests/batch_equivalence.rs` and
//! `tests/owned_engine.rs`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use udb_object::{Decomposition, ObjectId, Partition, Pdf, SplitStrategy, UncertainObject};

use crate::refiner::ScratchPool;

/// One cached expansion level of an object's decomposition: the full
/// partition list after the expansion plus the lineage map
/// (`map[new_idx] = old_idx`) — exactly what
/// [`Decomposition::expand_with_map`] hands an owned refiner.
struct LevelDelta {
    parts: Vec<Partition>,
    map: Vec<u32>,
}

/// The shared decomposition state of one object (one [`DecompCache`]
/// entry): a master decomposition expanded as deep as any refiner has
/// asked so far, plus the replayable per-level deltas.
pub struct ObjDecomp {
    master: Decomposition,
    levels: Vec<LevelDelta>,
    /// Set once `master` reports no further progress; expansion requests
    /// beyond `levels.len()` then answer `None` forever (matching an
    /// owned decomposition, whose leaves stay unsplittable).
    exhausted: bool,
}

impl ObjDecomp {
    fn new(pdf: &Pdf, strategy: SplitStrategy) -> Self {
        ObjDecomp {
            master: Decomposition::with_strategy(pdf, strategy),
            levels: Vec::new(),
            exhausted: false,
        }
    }

    /// The expansion taking a consumer from level `applied` to
    /// `applied + 1`: replayed from the cache when already computed,
    /// computed (and recorded) on the master decomposition otherwise.
    pub(crate) fn expand_from(
        &mut self,
        applied: usize,
        pdf: &Pdf,
    ) -> Option<(Vec<Partition>, Vec<u32>)> {
        if let Some(level) = self.levels.get(applied) {
            return Some((level.parts.clone(), level.map.clone()));
        }
        debug_assert_eq!(applied, self.levels.len(), "levels consumed in order");
        if self.exhausted {
            return None;
        }
        match self.master.expand_with_map(pdf) {
            Some(map) => {
                let parts = self.master.partitions();
                self.levels.push(LevelDelta {
                    parts: parts.clone(),
                    map: map.clone(),
                });
                Some((parts, map))
            }
            None => {
                self.exhausted = true;
                None
            }
        }
    }
}

/// One [`DecompCache`] slot: the shared decomposition plus its
/// recency stamp (for LRU trimming of a persistent cache).
struct CacheSlot {
    last_used: u64,
    decomp: Arc<Mutex<ObjDecomp>>,
}

/// The keyed state of a [`DecompCache`], behind one mutex: the id map
/// and the monotone recency tick.
struct CacheState {
    map: HashMap<ObjectId, CacheSlot>,
    tick: u64,
}

/// The cross-query decomposition cache: one [`ObjDecomp`] per object id
/// touched by any refiner running against it. Two-level locking — the
/// map lock is held only for the id lookup; expansion work runs under
/// the per-object lock, so refiners expanding *different* objects never
/// contend.
///
/// A batch-local cache (an engine with
/// [`crate::IdcaConfig::decomp_cache_entries`] `== 0`) is
/// simply dropped after its batch. The owned [`crate::Engine`] keeps
/// one cache alive **across** calls and maintains it:
///
/// * [`DecompCache::invalidate`] drops one object's entry (mutations:
///   the cached expansions describe the *old* PDF and must never
///   replay).
/// * [`DecompCache::trim`] evicts least-recently-used entries beyond a
///   capacity after each call. Refiners still holding the evicted
///   `Arc` keep it alive until they drop; eviction only stops *future*
///   sharing, so it can never change results.
pub struct DecompCache {
    strategy: SplitStrategy,
    state: Mutex<CacheState>,
}

impl DecompCache {
    /// An empty cache for decompositions split with `strategy` (all
    /// refiners sharing a cache share the engine's strategy).
    pub fn new(strategy: SplitStrategy) -> Self {
        DecompCache {
            strategy,
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                tick: 0,
            }),
        }
    }

    /// The shared entry for `id`, created at depth 0 on first use, and
    /// stamped most-recently-used.
    pub(crate) fn entry(&self, id: ObjectId, pdf: &Pdf) -> Arc<Mutex<ObjDecomp>> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.tick += 1;
        let tick = state.tick;
        let slot = state.map.entry(id).or_insert_with(|| CacheSlot {
            last_used: tick,
            decomp: Arc::new(Mutex::new(ObjDecomp::new(pdf, self.strategy))),
        });
        slot.last_used = tick;
        Arc::clone(&slot.decomp)
    }

    /// Drops the cached decomposition of one object. Mutation hook: a
    /// removed or updated object's cached expansions describe a PDF that
    /// no longer backs the id, so they must never be replayed again.
    pub fn invalidate(&self, id: ObjectId) {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .map
            .remove(&id);
    }

    /// Evicts least-recently-used entries until at most `cap` remain
    /// (the owned engine calls this after every batch). Work-only: an
    /// evicted entry still alive in a refiner stays correct, it just
    /// stops being shared with future refiners.
    pub fn trim(&self, cap: usize) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let excess = state.map.len().saturating_sub(cap);
        if excess == 0 {
            return;
        }
        let mut stamps: Vec<(u64, ObjectId)> = state
            .map
            .iter()
            .map(|(&id, slot)| (slot.last_used, id))
            .collect();
        // only the eviction set needs isolating, not a full recency
        // order: O(n) selection instead of an O(n log n) sort (trim runs
        // after every call on a warm engine)
        stamps.select_nth_unstable(excess - 1);
        for &(_, id) in stamps.iter().take(excess) {
            state.map.remove(&id);
        }
    }

    /// Drops every cached entry.
    pub fn clear(&self) {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .map
            .clear();
    }

    /// The split strategy every cached decomposition uses (refiners must
    /// match it — [`crate::Refiner::with_shared_ctx`] asserts this).
    pub fn strategy(&self) -> SplitStrategy {
        self.strategy
    }

    /// Number of objects with cached decomposition state.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .map
            .len()
    }

    /// Whether any object has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The shared state one batch execution runs under: the decomposition
/// cache and the scratch pool every refiner of the batch draws from.
/// Attach with [`crate::Refiner::with_shared_ctx`].
///
/// Both halves are reference-counted so an owned [`crate::Engine`] can
/// hand its *persistent* cache and pool to successive batches
/// ([`SharedRefineCtx::from_parts`]); [`SharedRefineCtx::new`] builds
/// the batch-local flavour whose state dies with the batch.
pub struct SharedRefineCtx {
    decomps: Arc<DecompCache>,
    scratch: Arc<ScratchPool>,
}

impl SharedRefineCtx {
    /// A fresh, batch-local context for refiners splitting with
    /// `strategy`.
    pub fn new(strategy: SplitStrategy) -> Self {
        SharedRefineCtx {
            decomps: Arc::new(DecompCache::new(strategy)),
            scratch: Arc::new(ScratchPool::new()),
        }
    }

    /// A context over an engine's persistent cache and scratch pool.
    pub fn from_parts(decomps: Arc<DecompCache>, scratch: Arc<ScratchPool>) -> Self {
        SharedRefineCtx { decomps, scratch }
    }

    /// The decomposition cache.
    pub fn decomps(&self) -> &DecompCache {
        &self.decomps
    }

    /// The decomposition cache, shared (deferred refiner handles hold a
    /// reference so lookups can wait until a region actually expands).
    pub(crate) fn decomps_arc(&self) -> Arc<DecompCache> {
        Arc::clone(&self.decomps)
    }

    /// The scratch pool (cloned into refiners, which return buffers on
    /// drop).
    pub(crate) fn scratch(&self) -> Arc<ScratchPool> {
        Arc::clone(&self.scratch)
    }

    /// A shared decomposition for an object *without* a database id —
    /// the batch's external query objects, which the id-keyed
    /// [`DecompCache`] cannot hold. One handle per query, attached to
    /// every refiner of that query via
    /// [`crate::Refiner::with_external_decomp`], expands the query
    /// object once per query instead of once per candidate.
    pub fn external_decomp(&self, pdf: &Pdf) -> SharedDecomp {
        SharedDecomp {
            entry: Arc::new(Mutex::new(ObjDecomp::new(pdf, self.decomps.strategy))),
            strategy: self.decomps.strategy,
        }
    }
}

/// A shared decomposition handle for one external object (see
/// [`SharedRefineCtx::external_decomp`]). The handle must only be
/// attached to refiners whose external side *is* the object the handle
/// was built from — the entry replays that object's expansion levels.
pub struct SharedDecomp {
    pub(crate) entry: Arc<Mutex<ObjDecomp>>,
    pub(crate) strategy: SplitStrategy,
}

/// One query of a [`QueryBatch`], **owning** its query object — a batch
/// is a plain value with no borrow of caller state, so it can be built
/// once, queued, shipped across threads and replayed. Parameters mirror
/// the per-query entry points exactly.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// [`crate::Engine::knn_threshold`] semantics.
    KnnThreshold {
        /// The query object.
        q: UncertainObject,
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// [`crate::Engine::rknn_threshold`] semantics.
    RknnThreshold {
        /// The query object.
        q: UncertainObject,
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// [`crate::Engine::top_probable_nn`] semantics.
    TopProbableNn {
        /// The query object.
        q: UncertainObject,
        /// Result-set size.
        m: usize,
    },
}

/// A borrowed view of one query (the execution-side shape: the engine
/// pipelines borrow the query object for the duration of the call, so
/// per-query entry points can run the same code without cloning).
#[derive(Clone, Copy)]
pub(crate) enum QueryView<'b> {
    Knn {
        q: &'b UncertainObject,
        k: usize,
        tau: f64,
    },
    Rknn {
        q: &'b UncertainObject,
        k: usize,
        tau: f64,
    },
    TopM {
        q: &'b UncertainObject,
        m: usize,
    },
}

impl QuerySpec {
    pub(crate) fn view(&self) -> QueryView<'_> {
        match self {
            QuerySpec::KnnThreshold { q, k, tau } => QueryView::Knn {
                q,
                k: *k,
                tau: *tau,
            },
            QuerySpec::RknnThreshold { q, k, tau } => QueryView::Rknn {
                q,
                k: *k,
                tau: *tau,
            },
            QuerySpec::TopProbableNn { q, m } => QueryView::TopM { q, m: *m },
        }
    }

    /// Validates the spec's parameters (the push methods' contract).
    fn validate(&self) {
        match self {
            QuerySpec::KnnThreshold { k, tau, .. } | QuerySpec::RknnThreshold { k, tau, .. } => {
                assert!(*k >= 1, "k must be positive");
                assert!((0.0..1.0).contains(tau), "tau must be in [0, 1)");
            }
            QuerySpec::TopProbableNn { m, .. } => assert!(*m >= 1, "m must be positive"),
        }
    }
}

/// A mixed set of queries executed through one shared pass
/// ([`crate::Engine::run_batch`]). Owned and lifetime-free: build with
/// the push methods; results come back aligned with insertion order.
#[derive(Debug, Default, Clone)]
pub struct QueryBatch {
    queries: Vec<QuerySpec>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Queues a probabilistic threshold kNN query.
    ///
    /// # Panics
    /// Panics if `k == 0` or `tau ∉ [0, 1)` (same contract as
    /// [`crate::Engine::knn_threshold`]).
    pub fn knn_threshold(&mut self, q: UncertainObject, k: usize, tau: f64) -> &mut Self {
        self.push(QuerySpec::KnnThreshold { q, k, tau })
    }

    /// Queues a probabilistic threshold reverse kNN query.
    ///
    /// # Panics
    /// Panics if `k == 0` or `tau ∉ [0, 1)`.
    pub fn rknn_threshold(&mut self, q: UncertainObject, k: usize, tau: f64) -> &mut Self {
        self.push(QuerySpec::RknnThreshold { q, k, tau })
    }

    /// Queues a top-`m` probable nearest-neighbour query.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn top_probable_nn(&mut self, q: UncertainObject, m: usize) -> &mut Self {
        self.push(QuerySpec::TopProbableNn { q, m })
    }

    /// Queues an already-built spec.
    ///
    /// # Panics
    /// Panics on invalid parameters (`k == 0`, `m == 0`,
    /// `tau ∉ [0, 1)`).
    pub fn push(&mut self, spec: QuerySpec) -> &mut Self {
        spec.validate();
        self.queries.push(spec);
        self
    }

    /// The queued queries, in insertion (= result) order.
    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    /// Number of queued queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udb_object::Database;
    use udb_workload::SyntheticConfig;

    fn synthetic(n: usize) -> Database {
        SyntheticConfig {
            n,
            max_extent: 0.01,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn decomp_cache_replays_identical_levels() {
        let db = synthetic(8);
        let cache = DecompCache::new(SplitStrategy::default());
        let id = ObjectId(3);
        let pdf = db.get(id).pdf();
        // an owned decomposition, stepped level by level, is the oracle
        let mut own = Decomposition::with_strategy(pdf, SplitStrategy::default());
        let entry = cache.entry(id, pdf);
        let late = cache.entry(id, pdf); // a second consumer, lagging behind
        for level in 0..6 {
            let expect = own.expand_with_map(pdf).map(|m| (own.partitions(), m));
            let got = entry.lock().unwrap().expand_from(level, pdf);
            match (&expect, &got) {
                (None, None) => break,
                (Some((ep, em)), Some((gp, gm))) => {
                    assert_eq!(em, gm, "level {level} lineage");
                    assert_eq!(ep.len(), gp.len());
                    for (a, b) in ep.iter().zip(gp.iter()) {
                        assert_eq!(a.mbr, b.mbr, "level {level}");
                        assert_eq!(a.mass, b.mass, "level {level}");
                    }
                }
                _ => panic!("progress disagreement at level {level}"),
            }
            // the lagging consumer replays the same delta from the cache
            let replay = late.lock().unwrap().expand_from(level, pdf);
            let (rp, rm) = replay.expect("cached level replays");
            let (gp, gm) = got.unwrap();
            assert_eq!(rm, gm);
            assert_eq!(rp.len(), gp.len());
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn trim_evicts_least_recently_used_first() {
        let db = synthetic(6);
        let cache = DecompCache::new(SplitStrategy::default());
        for id in 0..4u32 {
            cache.entry(ObjectId(id), db.get(ObjectId(id)).pdf());
        }
        // re-touch 0 and 1 so 2 and 3 are the LRU pair
        cache.entry(ObjectId(0), db.get(ObjectId(0)).pdf());
        cache.entry(ObjectId(1), db.get(ObjectId(1)).pdf());
        cache.trim(2);
        assert_eq!(cache.len(), 2);
        // the survivors must be the recently touched ids: re-requesting
        // them must not recreate state (observable through len holding
        // at 2 after touching only survivors)
        cache.entry(ObjectId(0), db.get(ObjectId(0)).pdf());
        cache.entry(ObjectId(1), db.get(ObjectId(1)).pdf());
        assert_eq!(cache.len(), 2);
        // a trimmed id was really dropped: touching it grows the map
        cache.entry(ObjectId(2), db.get(ObjectId(2)).pdf());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn invalidate_drops_one_entry() {
        let db = synthetic(3);
        let cache = DecompCache::new(SplitStrategy::default());
        cache.entry(ObjectId(0), db.get(ObjectId(0)).pdf());
        cache.entry(ObjectId(1), db.get(ObjectId(1)).pdf());
        cache.invalidate(ObjectId(0));
        assert_eq!(cache.len(), 1);
        cache.invalidate(ObjectId(7)); // unknown ids are a no-op
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "tau must be")]
    fn batch_rejects_bad_tau_at_push_time() {
        let q = UncertainObject::certain(udb_geometry::Point::from([0.0, 0.0]));
        QueryBatch::new().knn_threshold(q, 1, 1.5);
    }
}
