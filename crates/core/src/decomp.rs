//! Where a refiner's kd-decompositions come from. Every refined region
//! (the target, the reference and each influence object) expands
//! through one path: a cursor (`DecCursor`) into an [`ObjDecomp`]
//! entry, which computes each expansion level once and replays it to
//! every cursor that reaches it.
//!
//! Splitting a partition evaluates PDF medians and masses
//! ([`udb_object::Decomposition::expand_with_map`]). Expansion is
//! deterministic given the PDF and split strategy, so a level computed
//! once replays bit-identically. The entries come from one of two places
//! (`Entries`):
//!
//! * **Engine entries.** Refiners built by a query plane read database
//!   objects from the engine's [`DecompCache`]. It is keyed by object id,
//!   persists across calls, is LRU-trimmed to [`DECOMP_CACHE_ENTRIES`]
//!   after every call and is invalidated per object by the mutation API.
//!   The query object has no database id; one `SharedDecomp` per query
//!   expands it once per query instead of once per candidate.
//! * **Private entries.** Refiners built anywhere else
//!   ([`crate::Refiner::new`], [`crate::Engine::refiner`]) make one entry
//!   per region at its first expansion, and it dies with the refiner.
//!
//! A region starts at level 0, its root partition
//! ([`udb_object::Partition::root`]), without touching any entry, so a
//! refiner that decides at iteration 0 costs no entry at all. Every
//! decomposition split and every replayed level happens in
//! `ObjDecomp::expand_from`. Sharing is work-only: results are
//! bit-identical at every cache size (property-tested in
//! `tests/batch_equivalence.rs` and `tests/owned_engine.rs`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use udb_object::{Decomposition, ObjectId, Partition, Pdf, SplitStrategy};

/// Capacity, in objects, of an engine's persistent [`DecompCache`]:
/// how many objects' expansion levels survive between calls. Entries
/// beyond it are evicted least-recently-used first after every call.
/// 1024 holds the hot working set of a skewed serving stream (the
/// serving benchmark's hot spots fit with room to spare); eviction only
/// stops future sharing, so the value governs work, never results.
pub const DECOMP_CACHE_ENTRIES: usize = 1024;

/// Where a new refiner's regions find their [`ObjDecomp`] entries (see
/// the module docs).
#[derive(Clone, Copy)]
pub(crate) enum Entries<'q> {
    /// One private entry per region, made at its first expansion.
    Private,
    /// The engine's: database objects from its cache, the refiner's one
    /// external side (the query object) from the query's entry.
    Engine(&'q Arc<DecompCache>, &'q SharedDecomp),
}

impl Entries<'_> {
    /// The construction check of a refiner splitting with `strategy`
    /// whose target and reference have the database ids `sides`.
    ///
    /// # Panics
    /// Panics if engine entries split with another strategy (a replayed
    /// level would compose lineage maps across two different split
    /// trees and corrupt the bounds silently), or if not exactly one
    /// side is external (the query entry replays one object only).
    pub(crate) fn check(&self, strategy: SplitStrategy, sides: [Option<ObjectId>; 2]) {
        if let Entries::Engine(cache, query) = self {
            assert!(
                cache.strategy == strategy && query.strategy == strategy,
                "decomposition entries split with another strategy than the refiner"
            );
            assert!(
                sides.iter().filter(|id| id.is_none()).count() == 1,
                "engine decomposition entries need exactly one external side"
            );
        }
    }

    /// A level-0 cursor for the region with database id `id` (`None`:
    /// the external side), splitting with `strategy`.
    pub(crate) fn cursor(&self, id: Option<ObjectId>, strategy: SplitStrategy) -> DecCursor {
        let handle = match (*self, id) {
            (Entries::Private, _) => Handle::Private(strategy),
            (Entries::Engine(cache, _), Some(id)) => Handle::Deferred(Arc::clone(cache), id),
            (Entries::Engine(_, query), None) => Handle::Resolved(Arc::clone(&query.entry)),
        };
        DecCursor { handle, applied: 0 }
    }
}

/// A refined region's decomposition: a cursor into an [`ObjDecomp`]
/// entry, where `applied` counts the expansion levels the region has
/// consumed.
pub(crate) struct DecCursor {
    handle: Handle,
    applied: usize,
}

/// How a [`DecCursor`] finds its entry. Most early-exit refiners decide
/// at iteration 0 and never expand anything; a deferred handle costs
/// them *nothing* (no map lock, no [`ObjDecomp`] allocation), where
/// eagerly registering every region of every refiner in the
/// [`DecompCache`] measurably taxed the many-refiner queries (RkNN
/// builds one refiner per database object). The entry is looked up, or
/// made, only when an expansion is actually requested.
enum Handle {
    /// Looked up: the query's entry, or any entry after its first
    /// expansion.
    Resolved(Arc<Mutex<ObjDecomp>>),
    /// An engine-cache entry not looked up yet: the cache and the id to
    /// ask it for.
    Deferred(Arc<DecompCache>, ObjectId),
    /// A private entry not made yet, and the strategy to make it with.
    Private(SplitStrategy),
}

impl DecCursor {
    /// One expansion level: the new partition list and the lineage map
    /// (`map[new_idx] = old_idx`), or `None` when nothing can split
    /// further.
    pub(crate) fn expand(&mut self, pdf: &Pdf) -> Option<(Vec<Partition>, Vec<u32>)> {
        match &self.handle {
            Handle::Resolved(_) => {}
            Handle::Deferred(cache, id) => self.handle = Handle::Resolved(cache.entry(*id, pdf)),
            &Handle::Private(strategy) => {
                let entry = ObjDecomp::new(pdf, strategy);
                self.handle = Handle::Resolved(Arc::new(Mutex::new(entry)));
            }
        }
        let Handle::Resolved(entry) = &self.handle else {
            unreachable!("resolved above")
        };
        let out = entry
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .expand_from(self.applied, pdf);
        if out.is_some() {
            self.applied += 1;
        }
        out
    }
}

/// One cached expansion level of an object's decomposition: the full
/// partition list after the expansion plus the lineage map
/// (`map[new_idx] = old_idx`) — exactly what
/// [`Decomposition::expand_with_map`] reports.
struct LevelDelta {
    parts: Vec<Partition>,
    map: Vec<u32>,
}

/// The decomposition state of one object (one entry): a master
/// decomposition expanded as deep as any cursor has asked so far, plus
/// the replayable per-level deltas.
pub struct ObjDecomp {
    master: Decomposition,
    levels: Vec<LevelDelta>,
    /// Set once `master` reports no further progress; expansion requests
    /// beyond `levels.len()` then answer `None` forever (its leaves stay
    /// unsplittable).
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
    /// `applied + 1`: replayed from the entry when already computed,
    /// computed (and recorded) on the master decomposition otherwise.
    /// The one place where decomposition splits and replays happen.
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
/// The engines keep one cache alive **across** calls and maintain it:
///
/// * [`DecompCache::invalidate`] drops one object's entry (mutations:
///   the cached expansions describe the *old* PDF and must never
///   replay).
/// * `DecompCache::trim` evicts least-recently-used entries beyond a
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
    /// (the engines call this after every call). Work-only: an
    /// evicted entry still alive in a refiner stays correct, it just
    /// stops being shared with future refiners.
    pub(crate) fn trim(&self, cap: usize) {
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

/// The entry of one query object, which the id-keyed [`DecompCache`]
/// cannot hold. The query's refiners share it ([`Entries::Engine`]), so
/// the query object expands once per query instead of once per
/// candidate; only refiners whose external side *is* that object may
/// share it.
pub(crate) struct SharedDecomp {
    entry: Arc<Mutex<ObjDecomp>>,
    strategy: SplitStrategy,
}

impl SharedDecomp {
    /// A fresh entry for the object with density `pdf`, split with
    /// `strategy`.
    pub(crate) fn new(pdf: &Pdf, strategy: SplitStrategy) -> Self {
        SharedDecomp {
            entry: Arc::new(Mutex::new(ObjDecomp::new(pdf, strategy))),
            strategy,
        }
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
        let mut own = Decomposition::new(pdf);
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
    #[should_panic(expected = "another strategy")]
    fn engine_entries_refuse_another_split_strategy() {
        let db = synthetic(2);
        let cache = Arc::new(DecompCache::new(SplitStrategy::RoundRobin));
        let query = SharedDecomp::new(db.get(ObjectId(0)).pdf(), SplitStrategy::RoundRobin);
        let sides = [Some(ObjectId(1)), None];
        Entries::Engine(&cache, &query).check(SplitStrategy::LongestExtent, sides);
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
}
