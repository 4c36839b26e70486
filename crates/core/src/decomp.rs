//! Where a refiner's kd-decompositions come from. Every refined region
//! (the target, the reference and each influence object) holds the
//! [`DecompLevel`] it is on and moves one level deeper through a cursor
//! (`DecCursor`) into a [`Decomposition`] entry, which splits each level
//! once and shares it, by [`Arc`], with every cursor that reaches it.
//!
//! Splitting a partition evaluates PDF medians and masses. Expansion is
//! deterministic given the PDF and split strategy, so a level split once
//! serves every consumer bit-identically. The entries come from one of
//! two places (`Entries`):
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
//! A region starts at level 0 ([`DecompLevel::root`]) without touching
//! any entry, so a refiner that decides at iteration 0 costs no entry at
//! all; the entry a region makes is seeded with that level 0, so each
//! support is tightened once. Every decomposition split and every
//! replayed level happens in [`Decomposition::expand_to`]. An entry holds
//! each of its levels once, which is its whole memory: about
//! `2^ℓ` partitions at level `ℓ`, each a heap box of `16·dims` bytes plus
//! its flat copy, its mass and its lineage index. Sharing is work-only:
//! results are bit-identical at every cache size (property-tested in
//! `tests/batch_equivalence.rs` and `tests/owned_engine.rs`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use udb_object::{DecompLevel, Decomposition, ObjectId, Pdf, SplitStrategy};

/// Capacity, in objects, of an engine's persistent [`DecompCache`]:
/// how many objects' expansion levels survive between calls. Entries
/// beyond it are evicted least-recently-used first after every call.
/// 1024 holds the hot working set of a skewed serving stream (the
/// serving benchmark's hot spots fit with room to spare); eviction only
/// stops future sharing, so the value governs work, never results.
pub const DECOMP_CACHE_ENTRIES: usize = 1024;

/// Where a new refiner's regions find their [`Decomposition`] entries
/// (see the module docs).
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
    /// the external side) and density `pdf`, splitting with `strategy`.
    pub(crate) fn cursor(
        &self,
        id: Option<ObjectId>,
        pdf: &Pdf,
        strategy: SplitStrategy,
    ) -> DecCursor {
        let (handle, level) = match (*self, id) {
            (Entries::Private, _) => (Handle::Private(strategy), Arc::new(DecompLevel::root(pdf))),
            (Entries::Engine(cache, _), Some(id)) => (
                Handle::Deferred(Arc::clone(cache), id),
                Arc::new(DecompLevel::root(pdf)),
            ),
            (Entries::Engine(_, query), None) => (
                Handle::Resolved(Arc::clone(&query.entry)),
                Arc::clone(&query.root),
            ),
        };
        DecCursor {
            handle,
            level,
            depth: 0,
        }
    }
}

/// A refined region's decomposition: the level it is on, its depth, and
/// how it finds the entry that holds the next one.
pub(crate) struct DecCursor {
    handle: Handle,
    level: Arc<DecompLevel>,
    depth: usize,
}

/// How a [`DecCursor`] finds its entry. Most early-exit refiners decide
/// at iteration 0 and never expand anything; a deferred handle costs
/// them *nothing* (no map lock, no entry), where eagerly registering
/// every region of every refiner in the [`DecompCache`] measurably taxed
/// the many-refiner queries (RkNN builds one refiner per database
/// object). The entry is looked up, or made, only when an expansion is
/// actually requested.
enum Handle {
    /// Looked up: the query's entry, or any entry after its first
    /// expansion.
    Resolved(Arc<Mutex<Decomposition>>),
    /// An engine-cache entry not looked up yet: the cache and the id to
    /// ask it for.
    Deferred(Arc<DecompCache>, ObjectId),
    /// A private entry not made yet, and the strategy to make it with.
    Private(SplitStrategy),
}

impl DecCursor {
    /// The level the region is on.
    pub(crate) fn level(&self) -> &DecompLevel {
        &self.level
    }

    /// Moves one level deeper, sharing the entry's level. Returns the
    /// level it left, or `None` when nothing can split further.
    pub(crate) fn expand(&mut self, pdf: &Pdf) -> Option<Arc<DecompLevel>> {
        match &self.handle {
            Handle::Resolved(_) => {}
            Handle::Deferred(cache, id) => {
                self.handle = Handle::Resolved(cache.entry(*id, &self.level))
            }
            &Handle::Private(strategy) => {
                let entry = Decomposition::from_root(Arc::clone(&self.level), strategy);
                self.handle = Handle::Resolved(Arc::new(Mutex::new(entry)));
            }
        }
        let Handle::Resolved(entry) = &self.handle else {
            unreachable!("resolved above")
        };
        let next = Arc::clone(
            entry
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .expand_to(pdf, self.depth + 1)?,
        );
        self.depth += 1;
        Some(std::mem::replace(&mut self.level, next))
    }
}

/// One [`DecompCache`] slot: the shared decomposition plus its
/// recency stamp (for LRU trimming of a persistent cache).
struct CacheSlot {
    last_used: u64,
    decomp: Arc<Mutex<Decomposition>>,
}

/// The keyed state of a [`DecompCache`], behind one mutex: the id map
/// and the monotone recency tick.
struct CacheState {
    map: HashMap<ObjectId, CacheSlot>,
    tick: u64,
}

/// The cross-query decomposition cache: one [`Decomposition`] per object id
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

    /// The shared entry for `id`, stamped most-recently-used; made on
    /// first use, seeded with `root`, the object's level 0.
    pub(crate) fn entry(&self, id: ObjectId, root: &Arc<DecompLevel>) -> Arc<Mutex<Decomposition>> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.tick += 1;
        let tick = state.tick;
        let slot = state.map.entry(id).or_insert_with(|| CacheSlot {
            last_used: tick,
            decomp: Arc::new(Mutex::new(Decomposition::from_root(
                Arc::clone(root),
                self.strategy,
            ))),
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
    entry: Arc<Mutex<Decomposition>>,
    /// The entry's level 0, which every query-side cursor starts on.
    root: Arc<DecompLevel>,
    strategy: SplitStrategy,
}

impl SharedDecomp {
    /// A fresh entry for the object with density `pdf`, split with
    /// `strategy`.
    pub(crate) fn new(pdf: &Pdf, strategy: SplitStrategy) -> Self {
        let root = Arc::new(DecompLevel::root(pdf));
        SharedDecomp {
            entry: Arc::new(Mutex::new(Decomposition::from_root(
                Arc::clone(&root),
                strategy,
            ))),
            root,
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

    /// Looks `id` up in `cache`, as a region's first expansion does.
    fn touch(cache: &DecompCache, db: &Database, id: u32) {
        let root = Arc::new(DecompLevel::root(db.get(ObjectId(id)).pdf()));
        cache.entry(ObjectId(id), &root);
    }

    fn assert_same_bits(want: &DecompLevel, got: &DecompLevel, depth: usize) {
        assert_eq!(want.lineage(), got.lineage(), "depth {depth} lineage");
        let (want, got) = (want.partitions(), got.partitions());
        assert_eq!(want.len(), got.len(), "depth {depth}");
        for (a, b) in want.iter().zip(got) {
            let bits = |p: &udb_object::Partition| {
                let ivs = p.mbr.intervals().iter();
                let bounds: Vec<_> = ivs
                    .map(|iv| (iv.lo().to_bits(), iv.hi().to_bits()))
                    .collect();
                (bounds, p.mass.to_bits())
            };
            assert_eq!(bits(a), bits(b), "depth {depth}");
        }
    }

    #[test]
    fn decomp_cache_replays_identical_levels() {
        let db = synthetic(8);
        let strategy = SplitStrategy::default();
        let cache = Arc::new(DecompCache::new(strategy));
        let query = SharedDecomp::new(db.get(ObjectId(0)).pdf(), strategy);
        let entries = Entries::Engine(&cache, &query);
        let id = ObjectId(3);
        let pdf = db.get(id).pdf();
        // an owned decomposition, split level by level, is the oracle
        let mut own = Decomposition::new(pdf);
        let mut lead = entries.cursor(Some(id), pdf, strategy);
        let mut late = entries.cursor(Some(id), pdf, strategy); // lags behind
        let root = own.expand_to(pdf, 0).expect("level 0");
        assert_same_bits(root, lead.level(), 0);
        for depth in 1..=6 {
            let expect = own.expand_to(pdf, depth).cloned();
            match (expect, lead.expand(pdf)) {
                (None, None) => break,
                (Some(want), Some(_)) => assert_same_bits(&want, lead.level(), depth),
                _ => panic!("progress disagreement at depth {depth}"),
            }
            // the lagging consumer replays the level the leader split:
            // the same allocation, not a copy
            late.expand(pdf).expect("a split level replays");
            assert!(Arc::ptr_eq(&lead.level, &late.level), "depth {depth}");
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
            touch(&cache, &db, id);
        }
        // re-touch 0 and 1 so 2 and 3 are the LRU pair
        touch(&cache, &db, 0);
        touch(&cache, &db, 1);
        cache.trim(2);
        assert_eq!(cache.len(), 2);
        // the survivors must be the recently touched ids: re-requesting
        // them must not recreate state (observable through len holding
        // at 2 after touching only survivors)
        touch(&cache, &db, 0);
        touch(&cache, &db, 1);
        assert_eq!(cache.len(), 2);
        // a trimmed id was really dropped: touching it grows the map
        touch(&cache, &db, 2);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn invalidate_drops_one_entry() {
        let db = synthetic(3);
        let cache = DecompCache::new(SplitStrategy::default());
        touch(&cache, &db, 0);
        touch(&cache, &db, 1);
        cache.invalidate(ObjectId(0));
        assert_eq!(cache.len(), 1);
        cache.invalidate(ObjectId(7)); // unknown ids are a no-op
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }
}
