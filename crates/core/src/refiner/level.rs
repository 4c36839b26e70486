//! The factor cache and open-list arena of one refinement level.
//!
//! * **Per-partition factor cache** — each `(pair, influence)` slot (a
//!   [`FactorCache`], row-major by pair, `pair_idx = bp_idx · |R'| +
//!   rp_idx`) splits the influence object's partitions into *settled*
//!   mass — partitions whose spatial decision was **float-robust**
//!   ([`udb_domination::DecisionClass`]) — and a small `open`
//!   list of partitions straddling the decision boundary. The decision
//!   sums are monotone under shrinking any of the three regions, so a
//!   robust decision is final: settled mass is *never* reclassified, no
//!   matter how `A`, `B` or `R` refine. Only the open list (the geometric
//!   boundary, asymptotically a vanishing fraction of the partitions) is
//!   ever tested again.
//! * **Influence lineage** — each decomposition level records its
//!   partition lineage ([`udb_object::DecompLevel::lineage`]); the next
//!   snapshot replaces each open partition by its children and classifies
//!   exactly those — children of settled partitions are never touched.
//! * **Pair remapping** — expanding `B` or `R` changes the pair geometry,
//!   so the next snapshot maps every new pair to its ancestor pair
//!   (lineage again, composed across multiple steps), carries the
//!   ancestor's slots in as the walk reaches the pair — settled mass
//!   stays settled by monotonicity — and re-evaluates only the open
//!   partitions against the shrunken pair regions.
//!
//! # The open-list arena
//!
//! The open lists themselves live in one contiguous, generational arena
//! (mirroring the flat UGF arena) instead of one `Vec` per slot: each
//! [`FactorCache`] stores only a `(start, len)` range into the level's
//! current arena generation. Invariants:
//!
//! * **One generation per walk** — every walk streams *every* surviving
//!   open list into a fresh generation (double-buffered scratch, swapped
//!   at the end, capacity reused), in pair order, so slot ranges are
//!   disjoint, ordered and the buffer is perfectly compact. Untouched
//!   slots copy their list verbatim (a contiguous `u32` memcpy).
//! * **Ranges never dangle** — a slot with `open_len > 0` always belongs
//!   to a positive-weight pair and is rewritten by every walk; zero-weight
//!   pairs (and their descendants, whose mass stays zero under splitting)
//!   only ever hold empty ranges.
//! * **Retirement is free** — settling a slot (or retiring a whole
//!   candidate in the drivers) just zeroes its range / drops the
//!   refiner; the next generation simply never copies the dead entries,
//!   so the arena self-compacts without a free list.
//! * **None at the final level** — a walk of the last level writes no
//!   generation, and [`Level::finish`] drops the cache and both buffers.
//!
//! Arena indices are `u32` (a generation holds < 2³² open references —
//! enforced by a hard assertion); slots shrink from ~72 to 56 bytes,
//! which is most of the depth-4 locality win.

use udb_domination::{DecisionClass, PDomBounds};

use super::Influence;

/// One `(pair, influence)` slot of the snapshot cache: the factor's
/// probability bounds together with the partition bookkeeping that makes
/// refreshing it incremental. The open list itself lives in the level's
/// flat arena; the slot stores only its range (see the module docs for
/// the arena invariants).
#[derive(Debug, Clone, Copy)]
pub(super) struct FactorCache {
    /// Mass of partitions robustly classified as dominating — final.
    settled_lb: f64,
    /// Mass of partitions robustly classified as never-dominating — final.
    settled_never: f64,
    /// Total probability mass of the open partitions (so an object-level
    /// decision can settle all of it without streaming the partitions).
    open_mass: f64,
    /// Start of this slot's open-partition indices in the current arena
    /// generation.
    open_start: u32,
    /// Number of open-partition indices (0 = finally classified).
    pub(super) open_len: u32,
    /// The factor bounds as of the last refresh, scaled by the influence
    /// object's existence probability.
    pub(super) bounds: PDomBounds,
}

impl FactorCache {
    /// An empty slot: nothing settled, nothing open, vacuous bounds. The
    /// first refresh seeds it from the full partition list.
    pub(super) const EMPTY: FactorCache = FactorCache {
        settled_lb: 0.0,
        settled_never: 0.0,
        open_mass: 0.0,
        open_start: 0,
        open_len: 0,
        bounds: PDomBounds::UNKNOWN,
    };

    /// Copies the final (settled/bounds) state of an ancestor slot — the
    /// open range is intentionally *not* carried; the refresh pass
    /// streams the ancestor's list from the old arena generation.
    #[inline]
    pub(super) fn carried_from(ancestor: &FactorCache) -> Self {
        FactorCache {
            open_start: 0,
            open_len: 0,
            ..*ancestor
        }
    }

    /// This slot's open partitions in its arena generation `arena`.
    #[inline]
    pub(super) fn open_in<'g>(&self, arena: &'g [u32]) -> &'g [u32] {
        &arena[self.open_start as usize..(self.open_start + self.open_len) as usize]
    }

    /// Copies this slot's open list from `old_arena` into the new
    /// generation `arena` verbatim (its partitions did not change).
    #[inline]
    pub(super) fn carry_open(&mut self, old_arena: &[u32], arena: &mut Vec<u32>) {
        let start = arena.len();
        arena.extend_from_slice(self.open_in(old_arena));
        assert!(arena.len() <= u32::MAX as usize, "open-list arena overflow");
        self.open_start = start as u32;
    }

    /// Classifies the candidate partitions streamed by `candidates` in
    /// one pass, deciding partition `p` by `test(p)`: robust decisions
    /// settle permanently, everything else is appended to `arena` (the
    /// new generation under construction, which becomes this slot's
    /// open range), and the factor bounds are recomputed. Returns the
    /// number of partitions tested.
    pub(super) fn classify_into(
        &mut self,
        candidates: impl Iterator<Item = u32>,
        inf: &Influence,
        arena: &mut Vec<u32>,
        mut test: impl FnMut(usize) -> DecisionClass,
    ) -> u64 {
        let start = arena.len();
        let masses = inf.level().masses();
        let mut tested = 0;
        let mut open_lb = 0.0;
        let mut open_never = 0.0;
        let mut open_mass = 0.0;
        for p in candidates {
            tested += 1;
            let mass = masses[p as usize];
            match test(p as usize) {
                DecisionClass::RobustDominate => self.settled_lb += mass,
                DecisionClass::RobustNever => self.settled_never += mass,
                DecisionClass::OpenDominate => {
                    open_lb += mass;
                    open_mass += mass;
                    arena.push(p);
                }
                DecisionClass::OpenNever => {
                    open_never += mass;
                    open_mass += mass;
                    arena.push(p);
                }
                DecisionClass::Undecided => {
                    open_mass += mass;
                    arena.push(p);
                }
            }
        }
        // hard assert (once per slot, not per element): a silently
        // wrapped u32 range would alias another slot's open list
        assert!(arena.len() <= u32::MAX as usize, "open-list arena overflow");
        self.open_start = start as u32;
        self.open_len = (arena.len() - start) as u32;
        self.open_mass = open_mass;
        let lower = (self.settled_lb + open_lb).min(1.0);
        let upper = (1.0 - self.settled_never - open_never).max(0.0);
        self.bounds = PDomBounds { lower, upper }.scale_by_existence(inf.existence);
        tested
    }

    /// Settles all remaining open mass in one direction (after a robust
    /// object-level decision: every open partition decides identically).
    /// The slot's range is zeroed; the dead entries simply never reach
    /// the next arena generation.
    #[inline]
    pub(super) fn settle_open(&mut self, dominates: bool, existence: f64) {
        if dominates {
            self.settled_lb += self.open_mass;
        } else {
            self.settled_never += self.open_mass;
        }
        self.open_mass = 0.0;
        self.open_len = 0;
        let lower = self.settled_lb.min(1.0);
        let upper = (1.0 - self.settled_never).max(0.0);
        self.bounds = PDomBounds { lower, upper }.scale_by_existence(existence);
    }
}

/// How the next walk must treat each cache slot.
#[derive(Clone, Copy, PartialEq)]
pub(super) enum RefreshMode {
    /// Rebuild every slot from nothing (no cached level).
    Full,
    /// `B`/`R` expanded: every slot is carried in from its ancestor pair
    /// and must re-evaluate its open partitions against the new pair
    /// regions.
    Remapped,
    /// Pairs unchanged: slots of expanded influence objects reclassify
    /// their open children, the rest carry their open list verbatim into
    /// the new arena generation.
    InPlace,
}

/// The last walked level: its factor cache, `n_pairs × n_inf` row-major
/// by pair (bounds already scaled by each influence object's existence
/// probability), the arena generation its open ranges point into, the
/// next generation's buffer, and its slot counts.
#[derive(Default)]
pub(super) struct Level {
    cache: Vec<FactorCache>,
    /// `(|B'|, |R'|)` the cache was filled against.
    dims: (usize, usize),
    /// Whether `cache` holds a level (not after a final-level walk).
    cached: bool,
    /// Current generation of the open-list arena: every slot's open
    /// partitions, contiguous in pair order.
    arena: Vec<u32>,
    /// The next generation under construction (double buffer, swapped
    /// after each walk; capacity is reused).
    scratch: Vec<u32>,
    /// The last walk's slot counts: `(open partition references, slots
    /// with any, slots)`. Kept apart from the cache, which the final
    /// level does not build.
    counts: (usize, usize, usize),
}

impl Level {
    /// The refresh mode of the next walk, given whether `B'`/`R'`
    /// expanded since the last one.
    pub(super) fn mode(&self, pairs_moved: bool) -> RefreshMode {
        if !self.cached {
            RefreshMode::Full
        } else if pairs_moved {
            RefreshMode::Remapped
        } else {
            RefreshMode::InPlace
        }
    }

    /// Per influence object, its open partition references over every
    /// slot of the cached level; `None` without one.
    pub(super) fn open_per_influence(&self, n_inf: usize) -> Option<Vec<u32>> {
        self.cached.then(|| {
            let mut open = vec![0u32; n_inf];
            for row in self.cache.chunks_exact(n_inf.max(1)) {
                for (open, slot) in open.iter_mut().zip(row) {
                    *open += slot.open_len;
                }
            }
            open
        })
    }

    /// The last walk's `(open partition references, slots with any,
    /// slots)`.
    pub(super) fn counts(&self) -> (usize, usize, usize) {
        self.counts
    }

    /// Starts a walk of `dims = (|B'|, |R'|)` pairs in `mode`, with
    /// `rows` rows of `n_inf` slots (one per pair, or at the final level
    /// one per lane): hands back what the walk reads of the previous
    /// level — its cache when the walk carries slots in from it
    /// (`Remapped`, and `InPlace` at the final level), and its `|R'|` —
    /// and sizes the cache. A cached `InPlace` walk keeps its slots.
    pub(super) fn begin(
        &mut self,
        mode: RefreshMode,
        final_level: bool,
        dims: (usize, usize),
        rows: usize,
        n_inf: usize,
    ) -> (Vec<FactorCache>, usize) {
        let carry = mode == RefreshMode::Remapped || (final_level && mode == RefreshMode::InPlace);
        let prev = carry.then(|| std::mem::take(&mut self.cache));
        if final_level || mode != RefreshMode::InPlace {
            self.cache.clear();
            self.cache.resize(rows * n_inf, FactorCache::EMPTY);
        }
        self.scratch.clear();
        let old_r_len = std::mem::replace(&mut self.dims, dims).1;
        (prev.unwrap_or_default(), old_r_len)
    }

    /// The walk's buffers: the slots to write, the next generation and
    /// the current one (which incoming open ranges point into).
    pub(super) fn buffers(&mut self) -> (&mut [FactorCache], &mut Vec<u32>, &[u32]) {
        (&mut self.cache, &mut self.scratch, &self.arena)
    }

    /// Appends a pair lane's arena segment to the next generation and
    /// rebases the open ranges of its slots `slots` onto it.
    pub(super) fn append_lane(&mut self, slots: std::ops::Range<usize>, segment: &[u32]) {
        let base = self.scratch.len();
        assert!(
            base + segment.len() <= u32::MAX as usize,
            "open-list arena overflow"
        );
        for slot in &mut self.cache[slots] {
            if slot.open_len > 0 {
                slot.open_start += base as u32;
            }
        }
        self.scratch.extend_from_slice(segment);
    }

    /// Ends a walk with its slot counts. The final level keeps no cache
    /// and no arena: a later step finds the level uncached and the next
    /// walk rebuilds in `Full` mode. Otherwise the new generation
    /// becomes current and the old buffer is the next walk's scratch.
    pub(super) fn finish(&mut self, final_level: bool, counts: (usize, usize, usize)) {
        self.counts = counts;
        if final_level {
            self.cache = Vec::new();
            self.arena = Vec::new();
            self.scratch = Vec::new();
        } else {
            std::mem::swap(&mut self.arena, &mut self.scratch);
        }
        self.cached = !final_level;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{IdcaConfig, ObjRef, Predicate};
    use crate::refiner::tests::{certain, uniform_seg};
    use crate::refiner::Refiner;
    use udb_domination::pdom_bounds_vs_fixed;
    use udb_geometry::{Interval, Rect};
    use udb_object::{Database, ObjectId, UncertainObject};
    use udb_pdf::Pdf;

    /// Every cache slot — freshly computed, skipped, or carried across a
    /// B/R expansion — must agree with a fresh classification against the
    /// current partitions (robust decisions are stable under refinement).
    #[test]
    fn cache_entries_match_fresh_classification() {
        let db = Database::from_objects(vec![
            uniform_seg(0.5, 2.5),
            uniform_seg(1.0, 3.0),
            uniform_seg(2.0, 4.0),
            uniform_seg(1.8, 2.6),
            certain(2.0),
            UncertainObject::with_existence(
                Pdf::uniform(Rect::new(vec![
                    Interval::new(0.2, 1.4),
                    Interval::point(0.0),
                ])),
                0.7,
            ),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(4)),
            ObjRef::External(&r),
            IdcaConfig {
                max_iterations: 6,
                uncertainty_target: 0.0,
                ..Default::default()
            },
            Predicate::FullPdf,
        );
        for iteration in 0..6 {
            let _ = refiner.snapshot();
            // after snapshot: verify every cache slot against a fresh classification
            let n_inf = refiner.influence.len();
            let (b_parts, r_parts) = (
                refiner.b.level().partitions(),
                refiner.r.level().partitions(),
            );
            let r_len = r_parts.len();
            for (pair_idx, chunk) in refiner.level.cache.chunks(n_inf).enumerate() {
                let bp = &b_parts[pair_idx / r_len];
                let rp = &r_parts[pair_idx % r_len];
                if bp.mass * rp.mass <= 0.0 {
                    continue;
                }
                for (inf, slot) in refiner.influence.iter().zip(chunk.iter()) {
                    let fresh = pdom_bounds_vs_fixed(
                        inf.level().partitions(),
                        &bp.mbr,
                        &rp.mbr,
                        refiner.cfg.norm,
                        refiner.cfg.criterion,
                    )
                    .scale_by_existence(inf.existence);
                    let dl = (slot.bounds.lower - fresh.lower).abs();
                    let du = (slot.bounds.upper - fresh.upper).abs();
                    assert!(
                        dl <= 1e-9 && du <= 1e-9,
                        "it={iteration} pair={pair_idx} inf={:?}: cached {:?} vs fresh {:?}",
                        inf.id,
                        slot,
                        fresh
                    );
                }
            }
            if !refiner.step() {
                break;
            }
        }
    }

    /// Structural invariants of the open-list arena: every slot range is
    /// in-bounds, ranges of a generation are disjoint and ordered in
    /// slot-processing order, and indexed partitions exist.
    #[test]
    fn open_list_arena_invariants_hold_every_iteration() {
        let db = Database::from_objects(vec![
            uniform_seg(0.5, 2.5),
            uniform_seg(1.0, 3.0),
            uniform_seg(2.0, 4.0),
            uniform_seg(1.8, 2.6),
            certain(2.0),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(4)),
            ObjRef::External(&r),
            IdcaConfig {
                max_iterations: 6,
                uncertainty_target: 0.0,
                ..Default::default()
            },
            Predicate::FullPdf,
        );
        for _ in 0..6 {
            let _ = refiner.snapshot();
            let mut cursor = 0usize;
            for (slot_idx, slot) in refiner.level.cache.iter().enumerate() {
                if slot.open_len == 0 {
                    continue;
                }
                let range = slot.open_start as usize..(slot.open_start + slot.open_len) as usize;
                assert!(
                    range.end <= refiner.level.arena.len(),
                    "slot {slot_idx} dangles"
                );
                assert!(
                    range.start >= cursor,
                    "slot {slot_idx} overlaps its predecessor"
                );
                cursor = range.end;
                let inf = &refiner.influence[slot_idx % refiner.influence.len()];
                for &p in &refiner.level.arena[range] {
                    let n_parts = inf.level().partitions().len();
                    assert!((p as usize) < n_parts, "stale partition index");
                }
            }
            // the generation is compact: nothing beyond the last range
            assert!(cursor <= refiner.level.arena.len());
            if !refiner.step() {
                break;
            }
        }
    }
}
