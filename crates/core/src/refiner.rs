//! The iterative domination-count refiner (Algorithm 1 of the paper).
//!
//! # Incremental snapshots
//!
//! [`Refiner::snapshot`] evaluates one UGF per partition pair `(B', R')`,
//! each multiplying one probability-bound factor per influence object.
//! Recomputing every factor from scratch each iteration costs
//! `O(|B'|·|R'| · Σᵢ |Aᵢ'|)` spatial tests per snapshot; most of that work
//! repeats verbatim, so the refiner caches and dirty-tracks it:
//!
//! * **Per-partition factor cache** — each `(pair, influence)` slot (a
//!   `FactorCache`, row-major by pair, `pair_idx = bp_idx · |R'| +
//!   rp_idx`) splits the influence object's partitions into *settled*
//!   mass — partitions whose spatial decision was **float-robust**
//!   ([`udb_domination::SpatialDecision::robust`]) — and a small `open`
//!   list of partitions straddling the decision boundary. The decision
//!   sums are monotone under shrinking any of the three regions, so a
//!   robust decision is final: settled mass is *never* reclassified, no
//!   matter how `A`, `B` or `R` refine. Only the open list (the geometric
//!   boundary, asymptotically a vanishing fraction of the partitions) is
//!   ever tested again.
//! * **Influence lineage** — expanding an influence object's
//!   decomposition records its partition lineage
//!   ([`Decomposition::expand_with_map`]); the next snapshot replaces each
//!   open partition by its children and classifies exactly those —
//!   children of settled partitions are never touched.
//! * **Pair remapping** — expanding `B` or `R` changes the pair geometry,
//!   so the next snapshot maps every new pair to its ancestor pair
//!   (lineage again, composed across multiple [`Refiner::step`]s), carries
//!   the ancestor's slots in as the walk reaches the pair — settled mass
//!   stays settled by monotonicity — and re-evaluates only the open
//!   partitions against the shrunken pair regions.
//! * **Clean slots are free** — when neither the pair nor the influence
//!   object changed, the slot's cached bounds are reused without a single
//!   spatial test.
//!
//! Aggregation reuses a single flat-arena [`Ugf`] (plus scratch) across
//! all pairs via [`Ugf::reset`], so the steady-state snapshot performs no
//! heap allocation in the pair loop.
//!
//! # The pair walk
//!
//! Every partition test of a snapshot decides the optimal criterion of
//! Corollary 1 for one open partition `A'` against one pair `(B', R')`.
//! The walk builds one [`PairClassifier`] per pair range and
//! [`retargets`](PairClassifier::retarget) it to each pair (no
//! allocation per pair). The criterion is a sum over dimensions of
//! shares that each depend only on the intervals `(A'_i, B'_i, R'_i)`,
//! and the §V median-split kd-decomposition makes partitions share
//! those intervals: at depth 6 a uniform object's 64 partitions have
//! 9.5 distinct intervals per dimension on average, a Gaussian's 14.4.
//! So the walk memoizes the shares in **criterion tables**:
//!
//! * **Interval ids** — each partition's interval in each dimension
//!   gets an id, equal for bit-equal intervals (a linear scan per
//!   interval). `B'`'s and `R'`'s are assigned in the first rebuilding
//!   snapshot after either expands (`TableKeys::assign`); an influence
//!   object's once per partition list, in the first snapshot whose pair
//!   side passes the fallback rule below (`Influence::assess_tables`),
//!   so refiners that stay shallow, and every 1-D refiner, never pay
//!   for them.
//! * **Tables** — a rebuilding snapshot keeps one table per (influence,
//!   dimension), keyed by the pair's `(B'_d id, R'_d id)`. A row holds
//!   [`PairClassifier::dim_terms`] for each distinct `A'_d` interval of
//!   the influence object and is filled the first time a slot of a pair
//!   with that key needs it. A partition test is then `D` row lookups,
//!   the shares added in dimension order from zero, and
//!   [`PairClassifier::decide_sums`]: the kernel's own operation
//!   sequence, so every decision is bit-identical (a NaN sum re-runs the
//!   kernel). The lookup is one const-generic body, like the kernel's:
//!   at `D = 2` it reads a partition's two ids and the slot's two row
//!   starts as fixed-length slices (no loop, no per-dimension bounds
//!   check), other counts run over slices. Debug builds cross-check
//!   every table decision against [`PairClassifier::classify_dims`]. Each pair lane builds its own
//!   tables, and they are dropped with the snapshot: the rows hold for
//!   one snapshot only, and with elongated objects (many distinct
//!   intervals along the long axis) they reached about 0.7x the factor
//!   cache's bytes, which refiners kept alive between snapshots (top-`m`
//!   rounds) would otherwise all hold.
//! * **Fallback rule** (fixed, no knob) — an influence object uses the
//!   tables only when each dimension has at most `1 / TABLE_MIN_SHARE`
//!   (one half) as many distinct intervals as the object has partitions:
//!   at depth 6 the uniform object's 64 partitions share each interval
//!   6.7 times, the Gaussian's 4.4 times, and the correlated histogram's
//!   (44.9 distinct intervals) only 1.4 times, so it keeps calling the
//!   kernel. A snapshot builds tables only when in each dimension the
//!   distinct `(B'_d, R'_d)` keys number at most `1 / TABLE_MIN_SHARE`
//!   of the pairs, so a row serves two pairs on average and the key
//!   index never outgrows the factor cache. 1-D decompositions (disjoint
//!   intervals, nothing shared) fail both halves, and the MinMax
//!   criterion, which has no per-dimension sums, never builds tables.
//!   Everything that falls back streams the partition's intervals from
//!   the flat partition arena into [`PairClassifier::classify_dims`],
//!   the kernel copy unrolled for two dimensions (the slice body for
//!   others).
//!
//! Either way a test yields one [`DecisionClass`] (robust or open
//! domination, robust or open never-domination, undecided), which
//! `FactorCache::classify_into` matches once per partition: robust
//! classes settle mass, the others join the slot's open list.
//!
//! [`Refiner::partition_tests`] counts the tests each way.
//!
//! # The open-list arena
//!
//! The open lists themselves live in one contiguous, generational arena
//! (mirroring the flat UGF arena) instead of one `Vec` per slot: each
//! `FactorCache` stores only a `(start, len)` range into the refiner's
//! current arena generation. Invariants:
//!
//! * **One generation per rebuilding snapshot** — a snapshot that touches
//!   any slot (`Full`/`Remapped`/`InPlace` refresh) streams *every*
//!   surviving open list into a fresh generation (double-buffered scratch,
//!   swapped at the end, capacity reused), in pair order, so slot ranges
//!   are disjoint, ordered and the buffer is perfectly compact. Untouched
//!   slots of a dirty snapshot copy their list verbatim (a contiguous
//!   `u32` memcpy); a fully *clean* snapshot (nothing expanded since the
//!   last one) skips the rebuild entirely and aggregates straight from
//!   the cached bounds.
//! * **Ranges never dangle** — a slot with `open_len > 0` always belongs
//!   to a positive-weight pair and is rewritten by every rebuilding
//!   snapshot; zero-weight pairs (and their descendants, whose mass stays
//!   zero under splitting) only ever hold empty ranges.
//! * **Retirement is free** — settling a slot (or retiring a whole
//!   candidate in the drivers below) just zeroes its range /
//!   drops the refiner; the next generation simply never copies the dead
//!   entries, so the arena self-compacts without a free list.
//!
//! * **None at the final level** — a snapshot at the last level (below)
//!   writes no generation and drops the current one.
//!
//! Arena indices are `u32` (a generation holds < 2³² open references —
//! enforced by a hard assertion); slots shrink from ~72 to 56 bytes,
//! which is most of the depth-4 locality win.
//!
//! # The final level
//!
//! A snapshot taken at `iteration >= max_iterations` is the refiner's
//! last: [`Refiner::converged`] stops [`Refiner::run`], [`refine_each`]
//! and [`refine_top_m`] there. It is also the biggest level — a level
//! holds up to 4x the pairs of the one before, so for a refiner that
//! reaches it the final level is most of the pairs it walks. Building
//! its factor cache (`|B'|·|R'|` pairs x influence objects x 48 B) and
//! open-list generation would only be dropped unread, so the final level
//! streams every pair through one reused row of `n_inf` slots per pair
//! lane: the walk carries each pair's slots in from the previous level's
//! cache (the same carry the cached walk does), classifies them the same
//! way and aggregates them in the same order, so the snapshot is
//! bit-identical to a cached one at every lane count. Only where slots
//! are written differs; the lane's arena is per-pair scratch. Then:
//!
//! * the cache and both arena generations are dropped, and the snapshot
//!   is kept: a repeated [`Refiner::snapshot`] with no progressing step
//!   in between returns it unchanged;
//! * [`Refiner::open_stats`], [`Refiner::cache_stats`] and
//!   [`Refiner::partition_tests`] report the walk's counts, as for a
//!   cached snapshot (the walk counts open slots in every mode);
//! * a later [`Refiner::step`] finds the refiner uncached — it retires
//!   no influence object — and the next snapshot rebuilds in `Full` mode
//!   (itself a final level, since the budget is still spent).
//!
//! # Parallel snapshots
//!
//! With [`IdcaConfig::snapshot_threads`] > 1 the pair loop fans out over
//! the engine's persistent [`crate::parallel::WorkerPool`] (engines
//! inject their pool via [`Refiner::with_pool`]; a stand-alone refiner
//! lazily creates its own): pairs are split into contiguous chunks, each
//! job owns its chunk's cache slots (`split_at_mut`), records every
//! pair's weighted bound and CDF increments in a chunk-local buffer and
//! writes its chunk's open lists into a private arena segment. The
//! calling thread then adds the buffers in chunk order and pair order —
//! exactly the sequential loop's sums — and concatenates the segments
//! (slot ranges rebased), so results are bit-identical at every lane
//! count. At the final level each job owns one reused row of slots
//! instead, and nothing is concatenated. Recording costs `O(pairs · k)` extra work and memory, next to
//! the `O(pairs · influence · k)` UGF multiplies.
//!
//! [`Refiner::snapshot_from_scratch`] keeps the cache-free evaluation
//! path: tests assert it agrees with the incremental snapshot at every
//! iteration, and the `idca` criterion bench measures the speedup.
//!
//! # Early-exit candidate refinement
//!
//! Query-level drivers ([`refine_each`], [`refine_top_m`]) run one
//! refiner per candidate and retire each candidate the moment its query
//! outcome is decided (via [`DomCountSnapshot::decided`]), freeing its
//! factor cache and arena immediately. [`crate::Engine`] drives its
//! threshold and top-`m` queries through these paths.
//!
//! Candidates refine independently, so with
//! [`IdcaConfig::candidate_threads`] > 1 their refinement fans out over
//! the shared [`crate::parallel::WorkerPool`]
//! ([`crate::parallel::PoolHandle::fan_each`]): whole candidates for
//! threshold queries, one round of `step()`/`snapshot()` calls at a time
//! for top-`m`, whose cross-candidate decisions merge on the calling
//! thread between rounds. Either way the results are bit-identical to
//! the sequential drivers at every lane count. Candidate jobs may nest
//! pair-loop scopes of the same pool ([`IdcaConfig::snapshot_threads`]);
//! caller participation makes the candidates × pairs nesting
//! deadlock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use udb_domination::{
    pdom_bounds_vs_fixed, DecisionClass, DominationCriterion, OptimalSums, PDomBounds,
    PairClassifier,
};
use udb_genfunc::{CountDistributionBounds, Ugf};
use udb_geometry::Interval;
use udb_object::{Database, Decomposition, ObjectId, Partition, UncertainObject};

use crate::config::{IdcaConfig, ObjRef, Predicate};
use crate::decomp::{DecSource, DecompCache, SharedDecomp, SharedHandle};
use crate::parallel::PoolHandle;
use crate::queries::ThresholdResult;

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

/// One influence object: its id, existence probability and current
/// decomposition state.
struct Influence {
    id: ObjectId,
    existence: f64,
    /// The whole object's uncertainty-region MBR (for the object-level
    /// pre-test of remapped slots).
    mbr: udb_geometry::Rect,
    dec: DecSource,
    parts: Vec<Partition>,
    /// The partition MBRs flattened into one contiguous interval buffer
    /// (partition `p` occupies `p·dims .. (p+1)·dims`) with the matching
    /// masses — the hot-loop view of `parts`, refreshed on every
    /// expansion, so classification streams without a heap indirection
    /// per partition.
    flat_mbrs: Vec<Interval>,
    masses: Vec<f64>,
    /// The partitions' interval ids, valid when `tabled`.
    ids: IntervalIds,
    /// Whether the partitions share enough intervals for criterion
    /// tables (the fallback rule of "The pair walk"); `None` until a
    /// snapshot that keeps tables assesses the current partition list.
    tabled: Option<bool>,
    /// Partition lineage since the last snapshot (`map[new_idx] =
    /// old_idx`, composed across steps); `None` when unchanged.
    lineage: Option<Vec<u32>>,
}

impl Influence {
    fn new(id: ObjectId, a: &UncertainObject, cfg: &IdcaConfig) -> Self {
        let dec = Decomposition::with_strategy(a.pdf(), cfg.split_strategy);
        let parts = dec.partitions();
        let mut inf = Influence {
            id,
            existence: a.existence(),
            mbr: a.mbr().clone(),
            dec: DecSource::Own(dec),
            parts,
            flat_mbrs: Vec::new(),
            masses: Vec::new(),
            ids: IntervalIds::default(),
            tabled: None,
            lineage: None,
        };
        inf.refresh_flat();
        inf
    }

    /// Rebuilds the flat MBR/mass buffers from `parts`; the interval
    /// ids wait for [`Influence::assess_tables`].
    fn refresh_flat(&mut self) {
        self.flat_mbrs.clear();
        self.masses.clear();
        for p in &self.parts {
            self.flat_mbrs.extend_from_slice(p.mbr.intervals());
            self.masses.push(p.mass);
        }
        self.tabled = None;
    }

    /// Whether this object uses criterion tables, assigning its
    /// interval ids once per partition list.
    fn assess_tables(&mut self) -> bool {
        *self.tabled.get_or_insert_with(|| {
            let dims = self.mbr.dims();
            let limit = self.parts.len() / TABLE_MIN_SHARE;
            limit > 0
                && self
                    .ids
                    .assign(dims, self.flat_mbrs.chunks_exact(dims), limit)
        })
    }
}

/// The fallback rule's sharing factor (see "The pair walk"): criterion
/// tables are kept where each distinct interval serves at least this
/// many partitions, and each table key this many pairs, on average.
const TABLE_MIN_SHARE: usize = 2;

/// Interval ids of a list of boxes: box `p`'s interval in dimension `d`
/// has id `ids[p·dims + d]`, equal ids for bit-equal intervals.
#[derive(Debug, Default)]
struct IntervalIds {
    ids: Vec<u32>,
    /// The distinct intervals of each dimension, indexed by id.
    distinct: Vec<Vec<Interval>>,
}

impl IntervalIds {
    /// Assigns ids to `boxes` (linear scan per interval). Gives up,
    /// returning `false` and leaving the ids unusable, once a dimension
    /// has more than `limit` distinct intervals.
    fn assign<'b>(
        &mut self,
        dims: usize,
        boxes: impl Iterator<Item = &'b [Interval]>,
        limit: usize,
    ) -> bool {
        self.ids.clear();
        self.distinct.resize_with(dims, Vec::new);
        for known in &mut self.distinct {
            known.clear();
        }
        let same = |x: &Interval, y: &Interval| {
            x.lo().to_bits() == y.lo().to_bits() && x.hi().to_bits() == y.hi().to_bits()
        };
        for intervals in boxes {
            for (known, iv) in self.distinct.iter_mut().zip(intervals) {
                let id = match known.iter().position(|k| same(k, iv)) {
                    Some(id) => id,
                    None if known.len() == limit => return false,
                    None => {
                        known.push(*iv);
                        known.len() - 1
                    }
                };
                self.ids.push(id as u32);
            }
        }
        true
    }

    /// The distinct-interval count of dimension `d`.
    fn count(&self, d: usize) -> usize {
        self.distinct[d].len()
    }
}

/// The key layout of a snapshot's criterion tables: the interval ids of
/// `B'` and `R'`, and where each dimension's `(B'_d id, R'_d id)` keys
/// start within an influence object's block of keys.
#[derive(Debug, Default)]
struct TableKeys {
    b: IntervalIds,
    r: IntervalIds,
    base: Vec<usize>,
    /// Keys per influence object: `Σ_d |B'_d ids| · |R'_d ids|`.
    stride: usize,
}

impl TableKeys {
    /// Re-keys for new `B'`/`R'` partition lists. Returns whether tables
    /// pay: whether in every dimension the keys number at most
    /// `1 / TABLE_MIN_SHARE` of the pairs (the pair half of the fallback
    /// rule).
    fn assign(&mut self, b_parts: &[Partition], r_parts: &[Partition]) -> bool {
        let dims = b_parts[0].mbr.dims();
        let b_boxes = b_parts.iter().map(|p| p.mbr.intervals());
        let r_boxes = r_parts.iter().map(|p| p.mbr.intervals());
        self.b.assign(dims, b_boxes, usize::MAX);
        self.r.assign(dims, r_boxes, usize::MAX);
        let n_pairs = b_parts.len() * r_parts.len();
        self.base.clear();
        self.stride = 0;
        let mut pays = true;
        for d in 0..dims {
            let keys = self.b.count(d) * self.r.count(d);
            pays &= keys * TABLE_MIN_SHARE <= n_pairs;
            self.base.push(self.stride);
            self.stride += keys;
        }
        pays
    }

    /// The key of influence object `inf_idx`'s dimension-`d` table for
    /// the pair `(bp, rp)` (partition indices).
    fn key(&self, inf_idx: usize, d: usize, bp: usize, rp: usize) -> usize {
        let dims = self.base.len();
        let b_id = self.b.ids[bp * dims + d] as usize;
        let r_id = self.r.ids[rp * dims + d] as usize;
        inf_idx * self.stride + self.base[d] + b_id * self.r.count(d) + r_id
    }
}

/// One lane's criterion tables for one snapshot (see "The pair walk"):
/// `row_at[key]` is where the key's row starts in `rows`, or
/// [`UNFILLED`]; a row holds one [`PairClassifier::dim_terms`] per
/// distinct interval of the influence object's dimension.
#[derive(Debug, Default)]
struct CriterionTables {
    row_at: Vec<u32>,
    rows: Vec<OptimalSums>,
    /// The row starts of the slot being classified, one per dimension.
    slot_rows: Vec<u32>,
    /// The lane's partition tests, `(from the tables, by the kernel)`.
    tests: (u64, u64),
}

/// A table key whose row is not filled in this snapshot.
const UNFILLED: u32 = u32::MAX;

impl CriterionTables {
    /// Empty tables over `n_keys` keys.
    fn new(n_keys: usize) -> Self {
        CriterionTables {
            row_at: vec![UNFILLED; n_keys],
            ..CriterionTables::default()
        }
    }

    /// Points `slot_rows` at influence object `inf_idx`'s rows for the
    /// pair `(bp, rp)`, filling the rows no slot has needed yet from
    /// `pc` (retargeted to that pair).
    fn open_rows(
        &mut self,
        keys: &TableKeys,
        inf_idx: usize,
        inf: &Influence,
        (bp, rp): (usize, usize),
        pc: &PairClassifier,
    ) {
        self.slot_rows.clear();
        for (d, distinct) in inf.ids.distinct.iter().enumerate() {
            let key = keys.key(inf_idx, d, bp, rp);
            if self.row_at[key] == UNFILLED {
                self.row_at[key] = u32::try_from(self.rows.len())
                    .ok()
                    .filter(|&start| start != UNFILLED)
                    .expect("criterion table overflow");
                self.rows
                    .extend(distinct.iter().map(|&a_d| pc.dim_terms(d, a_d)));
            }
            self.slot_rows.push(self.row_at[key]);
        }
    }
}

/// Refinement round counter (shared, lock-free): the number of exact
/// UGF snapshots computed by the refiners it is attached to. Engines
/// attach one sink ([`Refiner::with_stats`]) to every refiner they
/// build, so the refinement work of a whole query (or workload) is
/// observable.
#[derive(Debug, Default)]
pub struct RefineStats {
    rounds: AtomicU64,
}

impl RefineStats {
    /// Refinement rounds observed: one per exact UGF snapshot.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Resets the counter (between profile phases).
    pub fn reset(&self) {
        self.rounds.store(0, Ordering::Relaxed);
    }
}

/// The bounds state after an IDCA iteration.
#[derive(Debug, Clone)]
pub struct DomCountSnapshot {
    /// Bounds on `P(DomCount = k)` over the *total* count (already shifted
    /// by the complete-domination count). Under a truncating predicate the
    /// vector covers only the counts the predicate needs.
    pub bounds: CountDistributionBounds,
    /// Bounds on `P(DomCount < k)` when the predicate fixes a `k`.
    pub predicate_cdf: Option<(f64, f64)>,
    /// Number of objects that certainly dominate the target.
    pub complete_count: usize,
    /// Number of influence objects.
    pub influence_count: usize,
    /// Iterations of refinement performed (0 = filter only).
    pub iteration: usize,
}

impl DomCountSnapshot {
    /// The paper's accumulated uncertainty
    /// `Σ_k (DomCountUB_k − DomCountLB_k)`.
    pub fn uncertainty(&self) -> f64 {
        self.bounds.uncertainty()
    }

    /// For a threshold predicate: `Some(true)` once
    /// `P(DomCount < k) > τ` is certain, `Some(false)` once it is certainly
    /// `≤ τ`, `None` while undecided.
    pub fn decided(&self, tau: f64) -> Option<bool> {
        let (lo, hi) = self.predicate_cdf?;
        if lo > tau {
            Some(true)
        } else if hi <= tau {
            Some(false)
        } else {
            None
        }
    }
}

/// The object storage a [`Refiner`] resolves ids against: one database,
/// or the databases of N engine shards under the order-preserving
/// interleaved global-id scheme of [`crate::ShardedEngine`]
/// (`global = local · n + shard`, so `shard = global mod n` and
/// `local = global div n`). Every id-to-object read of refinement goes
/// through [`DbView::get`], which makes the refiner storage-layout
/// agnostic: the same (global) influence ids resolve to the same
/// objects — and UGF factors multiply in the same sorted-id order — no
/// matter how the objects are physically partitioned, so sharded
/// refinement is bit-identical to single-engine refinement by
/// construction.
#[derive(Clone, Copy)]
pub enum DbView<'a> {
    /// One database; ids are its own (the non-sharded entry points).
    Single(&'a Database),
    /// Sharded storage: global id `g` lives in `dbs[g mod n]` at local
    /// slot `g div n`, where `n = dbs.len()`.
    Sharded(&'a [&'a Database]),
}

impl<'a> DbView<'a> {
    /// The live object behind a (global) id.
    ///
    /// # Panics
    /// Panics if the id is dead or out of range.
    pub fn get(&self, id: ObjectId) -> &'a UncertainObject {
        match *self {
            DbView::Single(db) => db.get(id),
            DbView::Sharded(dbs) => {
                let n = dbs.len() as u32;
                dbs[(id.0 % n) as usize].get(ObjectId(id.0 / n))
            }
        }
    }

    /// Resolves an [`ObjRef`] against this view.
    pub fn resolve(&self, r: ObjRef<'a>) -> &'a UncertainObject {
        match r {
            ObjRef::Db(id) => self.get(id),
            ObjRef::External(obj) => obj,
        }
    }
}

/// Iteratively refines the domination count of a target object w.r.t. a
/// reference object over a database (Algorithm 1).
///
/// ```
/// use udb_core::{IdcaConfig, ObjRef, Predicate, Refiner};
/// use udb_geometry::Point;
/// use udb_object::{Database, ObjectId, UncertainObject};
///
/// // reference at 0, a certain dominator at 1, the target at 2
/// let db = Database::from_objects(vec![
///     UncertainObject::certain(Point::from([1.0, 0.0])),
///     UncertainObject::certain(Point::from([2.0, 0.0])),
/// ]);
/// let q = UncertainObject::certain(Point::from([0.0, 0.0]));
/// let mut refiner = Refiner::new(
///     &db,
///     ObjRef::Db(ObjectId(1)),
///     ObjRef::External(&q),
///     IdcaConfig::default(),
///     Predicate::FullPdf,
/// );
/// let snapshot = refiner.run();
/// // exactly one object dominates the target in every world
/// assert_eq!(snapshot.bounds.lower(1), 1.0);
/// ```
pub struct Refiner<'a> {
    db: DbView<'a>,
    cfg: IdcaConfig,
    predicate: Predicate,
    target: &'a UncertainObject,
    reference: &'a UncertainObject,
    /// Database ids of the target/reference (when they live in the
    /// database): the keys under which their decompositions can join a
    /// shared [`DecompCache`].
    target_id: Option<ObjectId>,
    reference_id: Option<ObjectId>,
    complete_count: usize,
    influence: Vec<Influence>,
    b_dec: DecSource,
    b_parts: Vec<Partition>,
    r_dec: DecSource,
    r_parts: Vec<Partition>,
    iteration: usize,
    /// Partition lineage of `B` / `R` expansions since the cache was last
    /// refreshed (`None` = unchanged): `map[new_idx] = cached_idx`,
    /// composed across multiple [`Refiner::step`]s.
    b_map: Option<Vec<u32>>,
    r_map: Option<Vec<u32>>,
    /// Per-partition factor cache, `n_pairs × n_inf` row-major by pair
    /// (`pair_idx = bp_idx · |R'| + rp_idx`). Bounds are stored already
    /// scaled by the influence object's existence probability.
    cache: Vec<FactorCache>,
    /// `(|B'|, |R'|)` the cache was filled against.
    cache_dims: (usize, usize),
    cache_valid: bool,
    /// Current generation of the open-list arena: every slot's open
    /// partitions, contiguous in pair order (see the module docs for the
    /// invariants).
    open_arena: Vec<u32>,
    /// The next generation under construction (double buffer, swapped
    /// after each rebuilding snapshot; capacity is reused).
    open_scratch: Vec<u32>,
    /// The criterion-table key layout for the current `B'`/`R'`, and
    /// whether tables pay for it (see "The pair walk").
    table_keys: TableKeys,
    tables_pay: bool,
    /// Partition tests so far, `(from the tables, by the kernel)`.
    partition_tests: (u64, u64),
    /// The last cached snapshot's slot counts: `(open partition
    /// references, slots with any, slots)`. Kept apart from the cache,
    /// which the final level does not build.
    level_counts: (usize, usize, usize),
    /// The last snapshot when it walked the final level and nothing has
    /// expanded since: a repeated [`Refiner::snapshot`] returns it.
    final_snapshot: Option<DomCountSnapshot>,
    /// The reusable UGF arena for sequential aggregation.
    ugf: Ugf,
    /// Shared worker pool for parallel snapshots (engine-injected via
    /// [`Refiner::with_pool`]; otherwise created lazily and private).
    pool: PoolHandle,
    /// Round counter (engine-attached; `None` = not measured).
    stats: Option<Arc<RefineStats>>,
}

/// One `(pair, influence)` slot of the snapshot cache: the factor's
/// probability bounds together with the partition bookkeeping that makes
/// refreshing it incremental. The open list itself lives in the
/// refiner's flat arena; the slot stores only its range (see the module
/// docs for the arena invariants).
#[derive(Debug, Clone, Copy)]
struct FactorCache {
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
    open_len: u32,
    /// The factor bounds as of the last refresh, scaled by the influence
    /// object's existence probability.
    bounds: PDomBounds,
}

impl FactorCache {
    /// An empty slot: nothing settled, nothing open, vacuous bounds. The
    /// first refresh seeds it from the full partition list.
    fn empty() -> Self {
        FactorCache {
            settled_lb: 0.0,
            settled_never: 0.0,
            open_mass: 0.0,
            open_start: 0,
            open_len: 0,
            bounds: PDomBounds::UNKNOWN,
        }
    }

    /// Copies the final (settled/bounds) state of an ancestor slot — the
    /// open range is intentionally *not* carried; the refresh pass
    /// streams the ancestor's list from the old arena generation.
    fn carried_from(ancestor: &FactorCache) -> Self {
        FactorCache {
            settled_lb: ancestor.settled_lb,
            settled_never: ancestor.settled_never,
            open_mass: ancestor.open_mass,
            open_start: 0,
            open_len: 0,
            bounds: ancestor.bounds,
        }
    }

    /// This slot's open range in its arena generation.
    fn open_range(&self) -> std::ops::Range<usize> {
        self.open_start as usize..(self.open_start + self.open_len) as usize
    }

    /// Classifies the candidate partitions streamed by `candidates` in
    /// one pass, deciding partition `p` by `test(p)`: robust decisions
    /// settle permanently, everything else is appended to `arena` (the
    /// new generation under construction, which becomes this slot's
    /// open range), and the factor bounds are recomputed. Returns the
    /// number of partitions tested.
    fn classify_into(
        &mut self,
        candidates: impl Iterator<Item = u32>,
        inf: &Influence,
        arena: &mut Vec<u32>,
        mut test: impl FnMut(usize) -> DecisionClass,
    ) -> u64 {
        let start = arena.len();
        let mut tested = 0;
        let mut open_lb = 0.0;
        let mut open_never = 0.0;
        let mut open_mass = 0.0;
        for p in candidates {
            tested += 1;
            let mass = inf.masses[p as usize];
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
    fn settle_open(&mut self, dominates: bool, existence: f64) {
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

/// How the next snapshot must treat each cache slot.
#[derive(Clone, Copy, PartialEq)]
enum RefreshMode {
    /// Rebuild every slot from nothing (first snapshot).
    Full,
    /// `B`/`R` expanded: every slot was cloned from its ancestor pair and
    /// must re-evaluate its open partitions against the new pair regions.
    Remapped,
    /// Pairs unchanged: slots of expanded influence objects reclassify
    /// their open children, the rest carry their open list verbatim into
    /// the new arena generation.
    InPlace,
    /// Nothing expanded since the last snapshot: aggregate straight from
    /// the cached bounds; the arena generation is left untouched.
    Clean,
}

impl<'a> Refiner<'a> {
    /// Runs the complete-domination filter (lines 3–10 of Algorithm 1) and
    /// prepares the refinement state.
    pub fn new(
        db: &'a Database,
        target: ObjRef<'a>,
        reference: ObjRef<'a>,
        cfg: IdcaConfig,
        predicate: Predicate,
    ) -> Self {
        let target_obj = target.resolve(db);
        let reference_obj = reference.resolve(db);
        let excluded = [target.id(), reference.id()];

        // the (B, R) halves of the criterion are fixed for the whole
        // filter scan: precompute them once and stream only the A-side
        // terms per object. `classify` makes the same decisions as the
        // separate `never_dominates` / `dominates` tests (they are
        // mutually exclusive; ties are weak non-domination because Dom
        // is strict), at roughly half the per-object work.
        let pc = PairClassifier::new(
            target_obj.mbr(),
            reference_obj.mbr(),
            cfg.criterion,
            cfg.norm,
        );
        let mut complete_count = 0usize;
        let mut influence_ids = Vec::new();
        for (id, a) in db.iter() {
            if excluded.contains(&Some(id)) {
                continue;
            }
            match pc.classify(a.mbr()).decision {
                // certainly never dominates the target: no influence on
                // the count
                Some(false) => continue,
                // certain dominator (only if it certainly exists)
                Some(true) if a.existence() >= 1.0 => {
                    complete_count += 1;
                    continue;
                }
                // ascending ids: the scan walks the database slots
                _ => influence_ids.push(id),
            }
        }
        Refiner::with_filter_result_view(
            DbView::Single(db),
            target,
            reference,
            cfg,
            predicate,
            complete_count,
            influence_ids,
        )
    }

    /// Builds a refiner from a *precomputed* filter result over an
    /// arbitrary [`DbView`]: `complete_count` certain dominators and the
    /// undecided `influence_ids`, ascending. The caller is responsible
    /// for the classification's soundness (the index-accelerated filters
    /// apply the same criterion as [`Refiner::new`]). Influence ids are
    /// resolved through the view, so the sharded router's refiner
    /// refines against influence objects scattered across shard
    /// databases exactly as if they lived in one.
    pub fn with_filter_result_view(
        db: DbView<'a>,
        target: ObjRef<'a>,
        reference: ObjRef<'a>,
        cfg: IdcaConfig,
        predicate: Predicate,
        complete_count: usize,
        influence_ids: Vec<ObjectId>,
    ) -> Self {
        let target_obj = db.resolve(target);
        let reference_obj = db.resolve(reference);
        let influence = influence_ids
            .into_iter()
            .map(|id| Influence::new(id, db.get(id), &cfg))
            .collect();
        let b_dec = Decomposition::with_strategy(target_obj.pdf(), cfg.split_strategy);
        let b_parts = b_dec.partitions();
        let r_dec = Decomposition::with_strategy(reference_obj.pdf(), cfg.split_strategy);
        let r_parts = r_dec.partitions();
        Refiner {
            db,
            cfg,
            predicate,
            target: target_obj,
            reference: reference_obj,
            target_id: target.id(),
            reference_id: reference.id(),
            complete_count,
            influence,
            b_dec: DecSource::Own(b_dec),
            b_parts,
            r_dec: DecSource::Own(r_dec),
            r_parts,
            iteration: 0,
            b_map: None,
            r_map: None,
            cache: Vec::new(),
            cache_dims: (0, 0),
            cache_valid: false,
            open_arena: Vec::new(),
            open_scratch: Vec::new(),
            table_keys: TableKeys::default(),
            tables_pay: false,
            partition_tests: (0, 0),
            level_counts: (0, 0, 0),
            final_snapshot: None,
            ugf: Ugf::new(None),
            pool: PoolHandle::default(),
            stats: None,
        }
    }

    /// Joins a shared decomposition cache ([`DecompCache`]): every
    /// decomposition with a database identity — the target and
    /// reference when they live in the database, and every influence
    /// object — switches to the cache, so expansion levels computed by
    /// *any* refiner attached to it are replayed by all others instead
    /// of recomputed. Cached expansions are bit-identical to owned ones
    /// (decomposition is deterministic), so results are unchanged.
    ///
    /// Must be called before refinement starts (construction-time
    /// builder, like [`Refiner::with_pool`]).
    pub fn with_decomp_cache(mut self, cache: &Arc<DecompCache>) -> Self {
        assert!(
            self.iteration == 0 && !self.cache_valid,
            "decomposition cache must be attached before refinement starts"
        );
        // a cached level replays only for the split strategy it was
        // computed with; a mismatch would compose lineage maps across
        // two different split trees and corrupt the bounds silently
        assert!(
            cache.strategy() == self.cfg.split_strategy,
            "decomposition cache split strategy differs from the refiner's"
        );
        // deferred handles: no cache lookup (or entry creation) happens
        // until a region actually expands — refiners deciding at
        // iteration 0 never touch the cache at all
        let attach = |source: &mut DecSource, id: Option<ObjectId>| {
            if let Some(id) = id {
                *source = DecSource::Shared {
                    handle: SharedHandle::Deferred(Arc::clone(cache), id),
                    applied: 0,
                };
            }
        };
        attach(&mut self.b_dec, self.target_id);
        attach(&mut self.r_dec, self.reference_id);
        for inf in &mut self.influence {
            inf.dec = DecSource::Shared {
                handle: SharedHandle::Deferred(Arc::clone(cache), inf.id),
                applied: 0,
            };
        }
        self
    }

    /// Attaches a shared decomposition for the refiner's single
    /// *external* region — the side of target/reference without a
    /// database id, which [`Refiner::with_decomp_cache`] cannot key into
    /// the id-based cache. The query object is that side for every one
    /// of a query's candidate refiners; sharing one [`SharedDecomp`]
    /// across them expands the query object once per query instead of
    /// once per candidate. The handle must have been built from this
    /// refiner's external object's PDF ([`SharedDecomp::new`]).
    ///
    /// # Panics
    /// Panics if refinement has started, the handle's split strategy
    /// differs, or target/reference are not exactly one external and one
    /// database object.
    pub fn with_external_decomp(mut self, shared: &SharedDecomp) -> Self {
        assert!(
            self.iteration == 0 && !self.cache_valid,
            "shared decomposition must be attached before refinement starts"
        );
        assert!(
            shared.strategy == self.cfg.split_strategy,
            "shared decomposition split strategy differs from the refiner's"
        );
        let slot = match (self.target_id, self.reference_id) {
            (None, Some(_)) => &mut self.b_dec,
            (Some(_), None) => &mut self.r_dec,
            _ => panic!("with_external_decomp needs exactly one external side"),
        };
        *slot = DecSource::Shared {
            handle: SharedHandle::Resolved(Arc::clone(&shared.entry)),
            applied: 0,
        };
        self
    }

    /// Attaches a shared worker pool for parallel snapshots (engines
    /// inject their own so all refiners they build reuse one set of
    /// persistent threads). Without this, a refiner running with
    /// [`IdcaConfig::snapshot_threads`] > 1 lazily creates a private
    /// pool that lives as long as the refiner.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.pool = pool;
        self
    }

    /// Attaches a shared [`RefineStats`] sink: every subsequent snapshot
    /// increments its round counter, so callers can measure refinement
    /// work across many refiners. Purely observational — counting never
    /// changes results.
    pub fn with_stats(mut self, stats: Arc<RefineStats>) -> Self {
        self.stats = Some(stats);
        self
    }

    /// The object storage this refiner resolves influence ids against.
    pub fn db(&self) -> DbView<'a> {
        self.db
    }

    /// Number of certain dominators found by the filter step.
    pub fn complete_count(&self) -> usize {
        self.complete_count
    }

    /// Ids of the influence objects (the `influenceObjects` set of
    /// Algorithm 1), without materializing a vector.
    pub fn influence_ids(&self) -> impl ExactSizeIterator<Item = ObjectId> + '_ {
        self.influence.iter().map(|i| i.id)
    }

    /// Iterations performed so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Cache diagnostics: `(finally_classified_slots, total_slots)` of the
    /// factor cache after the last snapshot (at the final level, of the
    /// slots its walk streamed). Useful for tuning and for understanding
    /// where snapshot time goes.
    pub fn cache_stats(&self) -> (usize, usize) {
        let (_, open_slots, slots) = self.level_counts;
        (slots - open_slots, slots)
    }

    /// Total open (still-classified-per-snapshot) partition references
    /// across all cache slots after the last snapshot, and the total the
    /// from-scratch path would test per snapshot.
    pub fn open_stats(&self) -> (usize, usize) {
        let open = self.level_counts.0;
        let scratch: usize = self.b_parts.len()
            * self.r_parts.len()
            * self.influence.iter().map(|i| i.parts.len()).sum::<usize>();
        (open, scratch)
    }

    /// Partition tests of the cached pair walk so far, `(answered from
    /// the criterion tables, by the kernel)` (see "The pair walk"). The
    /// first snapshot's cache-free pass is not counted.
    pub fn partition_tests(&self) -> (u64, u64) {
        self.partition_tests
    }

    /// Effective truncation for the UGFs: the predicate's `k` minus the
    /// certain dominators. `Some(0)` means the predicate is already
    /// decided negatively by the filter alone.
    fn effective_k(&self) -> Option<usize> {
        self.predicate
            .k()
            .map(|k| k.saturating_sub(self.complete_count))
    }

    /// One refinement iteration (lines 15 of Algorithm 1): deepens every
    /// decomposition by one level and records which decompositions
    /// actually changed (the dirty flags steering the next snapshot's
    /// cache refresh). Returns `false` when nothing could be split further
    /// (exact bounds reached for discrete models) or when further
    /// splitting provably cannot change the bounds.
    ///
    /// The second case is the mid-loop retirement of *influence objects*:
    /// after a cached snapshot, an object with no open partition left in
    /// any slot is finally classified — robust decisions are stable under
    /// refinement of any of the three regions, so its factors can never
    /// change again — and it is skipped by every subsequent step. Once
    /// *no* slot anywhere is open, expanding `B`/`R` is equally pointless
    /// (child pairs inherit their ancestor's settled factors verbatim, so
    /// the aggregate is a fixed point) and the step reports exhaustion.
    ///
    /// After a final-level snapshot no cache is left, so the refiner is
    /// treated as uncached: nothing retires and the next snapshot
    /// rebuilds in `Full` mode.
    pub fn step(&mut self) -> bool {
        // per-influence open-reference counts of the last snapshot;
        // settledness is monotone, so counts from the most recent
        // snapshot remain valid across multiple back-to-back steps
        let inf_open = self.cache_valid.then(|| {
            let n_inf = self.influence.len();
            let mut open = vec![0u32; n_inf];
            if n_inf > 0 {
                for row in self.cache.chunks_exact(n_inf) {
                    for (open, slot) in open.iter_mut().zip(row) {
                        *open += slot.open_len;
                    }
                }
            }
            open
        });
        if let Some(open) = &inf_open {
            if open.iter().all(|&o| o == 0) {
                return false; // every factor is final: bounds are exact
            }
        }
        let mut progress = false;
        if let Some((parts, map)) = self.b_dec.expand(self.target.pdf()) {
            self.b_parts = parts;
            self.b_map = Some(compose_lineage(self.b_map.take(), map));
            progress = true;
        }
        if let Some((parts, map)) = self.r_dec.expand(self.reference.pdf()) {
            self.r_parts = parts;
            self.r_map = Some(compose_lineage(self.r_map.take(), map));
            progress = true;
        }
        for (inf_idx, inf) in self.influence.iter_mut().enumerate() {
            if let Some(open) = &inf_open {
                if open[inf_idx] == 0 {
                    continue; // finally classified: retired from refinement
                }
            }
            if let Some((parts, map)) = inf.dec.expand(self.db.get(inf.id).pdf()) {
                inf.parts = parts;
                inf.refresh_flat();
                inf.lineage = Some(compose_lineage(inf.lineage.take(), map));
                progress = true;
            }
        }
        if progress {
            self.iteration += 1;
            self.final_snapshot = None;
        }
        progress
    }

    /// Shared snapshot prologue: early-exits when the filter already
    /// decided the predicate negatively, otherwise yields the aggregation
    /// vector length and UGF truncation. Keeping this in one place
    /// guarantees [`Refiner::snapshot`] and
    /// [`Refiner::snapshot_from_scratch`] stay aligned.
    #[allow(clippy::result_large_err)]
    fn snapshot_prologue(&self) -> Result<(usize, Option<usize>), DomCountSnapshot> {
        let k_eff = self.effective_k();
        if k_eff == Some(0) {
            let mut bounds = CountDistributionBounds::zero(0);
            bounds.shift_right(self.complete_count);
            return Err(DomCountSnapshot {
                bounds,
                predicate_cdf: Some((0.0, 0.0)),
                complete_count: self.complete_count,
                influence_count: self.influence.len(),
                iteration: self.iteration,
            });
        }
        let n_inf = self.influence.len();
        let len = match k_eff {
            Some(k) => (n_inf + 1).min(k),
            None => n_inf + 1,
        };
        Ok((len, k_eff))
    }

    /// Evaluates the current bounds (lines 16–36 of Algorithm 1): one UGF
    /// per partition pair `(B', R')`, aggregated by pair probability and
    /// shifted by the complete-domination count.
    ///
    /// Incremental: only factors invalidated since the previous snapshot
    /// are recomputed (see the module docs), and the pair loop runs on
    /// [`IdcaConfig::snapshot_threads`] scoped threads. The very first
    /// snapshot (iteration 0, before any [`Refiner::step`]) takes the
    /// cache-free path — threshold queries frequently decide right there,
    /// and building the factor cache for a refiner that never iterates
    /// would be pure overhead. A snapshot at the final level (see the
    /// module docs) keeps no cache; repeating it without a
    /// [`Refiner::step`] returns the same snapshot.
    pub fn snapshot(&mut self) -> DomCountSnapshot {
        self.note_round();
        if let Some(last) = &self.final_snapshot {
            return last.clone();
        }
        if self.iteration == 0 && !self.cache_valid {
            return self.snapshot_from_scratch();
        }
        let n_inf = self.influence.len();
        let (len, k_eff) = match self.snapshot_prologue() {
            Ok(header) => header,
            Err(snapshot) => return snapshot,
        };

        // the sink owns the refiner's persistent UGF arena for the
        // duration of the pair loop (returned below, so the steady-state
        // snapshot keeps reusing one allocation)
        let mut sink = ExactSink::new(std::mem::replace(&mut self.ugf, Ugf::new(None)), len, k_eff);
        let final_level = self.snapshot_pairs(&mut sink);
        let ExactSink {
            ugf,
            mut agg,
            cdf_acc,
            ..
        } = sink;
        self.ugf = ugf;

        agg.normalize();
        agg.shift_right(self.complete_count);

        let snap = DomCountSnapshot {
            bounds: agg,
            predicate_cdf: cdf_acc.map(|(lo, hi)| (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0))),
            complete_count: self.complete_count,
            influence_count: n_inf,
            iteration: self.iteration,
        };
        if final_level {
            self.final_snapshot = Some(snap.clone());
        }
        snap
    }

    /// The pair loop of [`Refiner::snapshot`]: refreshes the factor cache
    /// for the current refinement state and streams each positive-weight
    /// pair's factor bounds into `sink`. The parallel path records each
    /// chunk's per-pair increments ([`ExactSink::recording`]) and adds
    /// them to `sink` in chunk order, so the sums are the sequential
    /// ones, bit for bit, at every lane count. Returns whether it walked
    /// the final level, which leaves no cache behind.
    fn snapshot_pairs(&mut self, sink: &mut ExactSink) -> bool {
        let n_inf = self.influence.len();
        let n_pairs = self.b_parts.len() * self.r_parts.len();
        let any_inf_dirty = self.influence.iter().any(|inf| inf.lineage.is_some());
        let mode = if !self.cache_valid
            || self.cache.len() != self.cache_dims.0 * self.cache_dims.1 * n_inf
        {
            RefreshMode::Full
        } else if self.b_map.is_some() || self.r_map.is_some() {
            RefreshMode::Remapped
        } else if any_inf_dirty {
            RefreshMode::InPlace
        } else {
            RefreshMode::Clean
        };
        let rebuild = mode != RefreshMode::Clean;
        // every driver stops at this level (`Refiner::converged`), so its
        // slots are streamed through one reused row per lane instead of
        // building the next cache
        let final_level = rebuild && self.iteration >= self.cfg.max_iterations;
        let threads = self.cfg.snapshot_threads.max(1).min(n_pairs.max(1));
        let chunk = n_pairs.div_ceil(threads).max(1);
        let n_chunks = n_pairs.div_ceil(chunk).max(1);
        // `old` (the previous level's cache) and `ancestors` (each new
        // pair's pair index in it) stay alive through the walk, which
        // carries each pair's slots in from them and streams open lists
        // from the ancestor slots without cloning
        let old = if mode == RefreshMode::Remapped || (final_level && mode == RefreshMode::InPlace)
        {
            std::mem::take(&mut self.cache)
        } else {
            Vec::new()
        };
        let ancestors: Vec<u32> = if mode == RefreshMode::Remapped {
            let (_, old_r_len) = self.cache_dims;
            let r_len = self.r_parts.len();
            let lineage = |map: &Option<Vec<u32>>, idx: usize| {
                map.as_ref().map_or(idx, |map| map[idx] as usize)
            };
            (0..n_pairs)
                .map(|new_pair| {
                    let ob = lineage(&self.b_map, new_pair / r_len);
                    let or = lineage(&self.r_map, new_pair % r_len);
                    (ob * old_r_len + or) as u32
                })
                .collect()
        } else {
            Vec::new()
        };
        if final_level || matches!(mode, RefreshMode::Full | RefreshMode::Remapped) {
            let slots = if final_level { n_chunks } else { n_pairs } * n_inf;
            self.cache.clear();
            self.cache.resize(slots, FactorCache::empty());
        }
        if matches!(mode, RefreshMode::Full | RefreshMode::Remapped) {
            // B' or R' changed: re-key the criterion tables
            self.tables_pay = self.cfg.criterion == DominationCriterion::Optimal
                && self.table_keys.assign(&self.b_parts, &self.r_parts);
        }
        // interval ids only where tables pay; no table without an
        // influence object that uses it
        let tables = rebuild && self.tables_pay && {
            let mut any = false;
            for inf in &mut self.influence {
                any |= inf.assess_tables();
            }
            any
        };
        self.open_scratch.clear();
        self.b_map = None;
        self.r_map = None;
        self.cache_dims = (self.b_parts.len(), self.r_parts.len());

        // lineage prefix offsets per influence object (children of old
        // partition `p` occupy new indices `offsets[p]..offsets[p+1]`);
        // irrelevant after a full rebuild
        let inf_offsets: Vec<Option<Vec<u32>>> = if mode == RefreshMode::Full {
            self.influence.iter().map(|_| None).collect()
        } else {
            self.influence
                .iter()
                .map(|inf| {
                    inf.lineage.as_ref().map(|map| {
                        let mut offsets = vec![0u32; 1];
                        for (new_idx, &old_idx) in map.iter().enumerate() {
                            while offsets.len() <= old_idx as usize {
                                offsets.push(new_idx as u32);
                            }
                            debug_assert!(offsets.len() == old_idx as usize + 1);
                        }
                        offsets.push(map.len() as u32);
                        offsets
                    })
                })
                .collect()
        };
        let walk = PairWalk {
            b_parts: &self.b_parts,
            r_parts: &self.r_parts,
            influence: &self.influence,
            inf_offsets: &inf_offsets,
            old: &old,
            ancestors: &ancestors,
            old_arena: &self.open_arena,
            mode,
            final_level,
            cfg: &self.cfg,
            keys: tables.then_some(&self.table_keys),
        };

        // one set of tables per lane, dropped with the snapshot: rows are
        // valid for one snapshot only, and a refiner kept alive between
        // snapshots (top-m rounds) should not hold them
        let n_keys = walk.keys.map_or(0, |keys| n_inf * keys.stride);
        let mut lane_tables: Vec<CriterionTables> = (0..n_chunks)
            .map(|_| CriterionTables::new(n_keys))
            .collect();
        // (open partition references, slots with any) over every lane
        let mut open = (0, 0);
        if threads <= 1 {
            open = process_pair_range(
                &walk,
                0,
                n_pairs,
                &mut self.cache,
                &mut self.open_scratch,
                &mut lane_tables[0],
                sink,
            );
        } else {
            let pool = self
                .pool
                .get(threads)
                .expect("threads > 1 always yields a pool");
            // one result slot per chunk, filled by the pool jobs and
            // added in chunk order below
            type LaneResult = Option<(Vec<f64>, Vec<u32>, (usize, usize))>;
            let mut results: Vec<LaneResult> = (0..n_chunks).map(|_| None).collect();
            {
                let walk = &walk;
                let mut cache_rest: &mut [FactorCache] = &mut self.cache;
                let mut results_rest: &mut [LaneResult] = &mut results;
                let mut lane_tables = lane_tables.iter_mut();
                let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n_chunks);
                for t in 0..n_chunks {
                    let start = t * chunk;
                    let end = (start + chunk).min(n_pairs);
                    // a chunk's slots, or at the final level its lane's row
                    let lane_slots = if final_level { 1 } else { end - start } * n_inf;
                    let (mine, rest) = cache_rest.split_at_mut(lane_slots);
                    cache_rest = rest;
                    let (out, rest) = results_rest.split_at_mut(1);
                    results_rest = rest;
                    let out = &mut out[0];
                    let tables = lane_tables.next().expect("one table set per lane");
                    let mut local_sink = ExactSink::recording(sink.agg.len(), sink.k_eff);
                    jobs.push(Box::new(move || {
                        // chunk-private arena segment, rebased into the
                        // shared generation after the scope
                        let mut local_arena = Vec::new();
                        let open = process_pair_range(
                            walk,
                            start,
                            end,
                            mine,
                            &mut local_arena,
                            tables,
                            &mut local_sink,
                        );
                        let terms = local_sink.terms.expect("lane sinks record");
                        *out = Some((terms, local_arena, open));
                    }));
                }
                pool.scope(jobs);
            }
            for (t, result) in results.into_iter().enumerate() {
                let (terms, local_arena, lane_open) = result.expect("snapshot chunk completed");
                sink.add_terms(&terms);
                open.0 += lane_open.0;
                open.1 += lane_open.1;
                if rebuild && !final_level {
                    // concatenate the chunk's arena segment and rebase its
                    // slots' ranges onto the shared generation
                    let base = self.open_scratch.len();
                    assert!(
                        base + local_arena.len() <= u32::MAX as usize,
                        "open-list arena overflow"
                    );
                    let start = t * chunk;
                    let end = (start + chunk).min(n_pairs);
                    for slot in &mut self.cache[start * n_inf..end * n_inf] {
                        if slot.open_len > 0 {
                            slot.open_start += base as u32;
                        }
                    }
                    self.open_scratch.extend_from_slice(&local_arena);
                }
            }
        }
        for tables in &lane_tables {
            self.partition_tests.0 += tables.tests.0;
            self.partition_tests.1 += tables.tests.1;
        }
        self.level_counts = (open.0, open.1, n_pairs * n_inf);
        if final_level {
            // the last level keeps no cache and no arena: a later step()
            // finds the refiner uncached and the next snapshot rebuilds
            // in `Full` mode
            self.cache = Vec::new();
            self.open_arena = Vec::new();
            self.open_scratch = Vec::new();
            self.cache_valid = false;
        } else {
            if rebuild {
                // the new generation becomes current; the old buffer is
                // the next snapshot's scratch (capacity reused)
                std::mem::swap(&mut self.open_arena, &mut self.open_scratch);
            }
            self.cache_valid = true;
        }
        for inf in &mut self.influence {
            inf.lineage = None;
        }
        final_level
    }

    /// Cache-free snapshot: recomputes every factor of every partition
    /// pair, sequentially. Kept as the reference path — the incremental
    /// [`Refiner::snapshot`] must agree with it at every iteration (up to
    /// float reassociation, ≲ 1e-13) — and as the baseline the `idca`
    /// bench measures the incremental speedup against.
    pub fn snapshot_from_scratch(&self) -> DomCountSnapshot {
        let n_inf = self.influence.len();
        let (len, k_eff) = match self.snapshot_prologue() {
            Ok(header) => header,
            Err(snapshot) => return snapshot,
        };
        let truncate = k_eff;

        let mut agg = CountDistributionBounds::zero(len);
        let mut cdf_acc = k_eff.map(|_| (0.0f64, 0.0f64));
        let mut ugf = Ugf::new(truncate);

        for bp in &self.b_parts {
            for rp in &self.r_parts {
                let w = bp.mass * rp.mass;
                if w <= 0.0 {
                    continue;
                }
                ugf.reset(truncate);
                for inf in &self.influence {
                    let bounds = pdom_bounds_vs_fixed(
                        &inf.parts,
                        &bp.mbr,
                        &rp.mbr,
                        self.cfg.norm,
                        self.cfg.criterion,
                    );
                    let PDomBounds { lower, upper } = bounds.scale_by_existence(inf.existence);
                    ugf.multiply(lower, upper);
                }
                ugf.add_bounds_weighted(&mut agg, w);
                if let (Some(k), Some(acc)) = (k_eff, cdf_acc.as_mut()) {
                    let (lo, hi) = ugf.cdf_bounds(k.min(n_inf + 1));
                    // counts can never reach k when k > n_inf: cdf = 1
                    let (lo, hi) = if k > n_inf { (1.0, 1.0) } else { (lo, hi) };
                    acc.0 += w * lo;
                    acc.1 += w * hi;
                }
            }
        }
        agg.normalize();
        agg.shift_right(self.complete_count);

        DomCountSnapshot {
            bounds: agg,
            predicate_cdf: cdf_acc.map(|(lo, hi)| (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0))),
            complete_count: self.complete_count,
            influence_count: n_inf,
            iteration: self.iteration,
        }
    }

    /// Whether the stop criterion of Algorithm 1 is met for `snap`
    /// (iteration budget, a decided threshold predicate, or the
    /// uncertainty target). Public so the top-`m` driver
    /// ([`refine_top_m`]) replicates [`Refiner::run`]'s stopping
    /// behaviour exactly.
    pub fn converged(&self, snap: &DomCountSnapshot) -> bool {
        if self.iteration >= self.cfg.max_iterations {
            return true;
        }
        if let Predicate::Threshold { tau, .. } = self.predicate {
            if snap.decided(tau).is_some() {
                return true;
            }
        }
        snap.uncertainty() <= self.cfg.uncertainty_target
    }

    /// Counts one snapshot round into the attached stats sink.
    fn note_round(&self) {
        if let Some(stats) = &self.stats {
            stats.rounds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Runs filter + iterations until the stop criterion fires; returns
    /// the final snapshot.
    pub fn run(&mut self) -> DomCountSnapshot {
        loop {
            let snap = self.snapshot();
            if self.converged(&snap) || !self.step() {
                return snap;
            }
        }
    }
}

/// Converts a final snapshot into a query result; `None` when the
/// candidate's predicate probability is certainly zero.
pub(crate) fn threshold_result(id: ObjectId, snap: &DomCountSnapshot) -> Option<ThresholdResult> {
    let (lo, hi) = snap.predicate_cdf.expect("count predicate produces CDF");
    (hi > 0.0).then_some(ThresholdResult {
        id,
        prob_lower: lo,
        prob_upper: hi,
        iterations: snap.iteration,
    })
}

/// Early-exit refinement of a candidate set: each candidate's refiner
/// runs to its own stop ([`Refiner::run`]: a decided threshold
/// predicate, the iteration budget or uncertainty target, or
/// exhaustion) and is dropped at once, freeing its factor cache and
/// open-list arena. Retirement depends on the candidate alone, so the
/// candidates fan out over [`IdcaConfig::candidate_threads`] lanes of
/// the engines' shared [`crate::parallel::WorkerPool`]
/// ([`crate::parallel::PoolHandle::fan_each`]); at one lane they run
/// inline, in order. Each candidate's operation sequence is
/// [`Refiner::run`]'s at every lane count, so results are bit-identical.
///
/// Candidates whose predicate probability is certainly zero are dropped,
/// and the output is sorted by id.
pub fn refine_each(candidates: Vec<(ObjectId, Refiner<'_>)>) -> Vec<ThresholdResult> {
    let lanes = candidates
        .iter()
        .map(|(_, r)| r.cfg.candidate_threads)
        .max()
        .unwrap_or(1);
    let pool = candidates
        .first()
        .map(|(_, r)| r.pool.clone())
        .unwrap_or_default();
    let mut jobs: Vec<(ObjectId, Option<Refiner<'_>>, Option<ThresholdResult>)> = candidates
        .into_iter()
        .map(|(id, refiner)| (id, Some(refiner), None))
        .collect();
    pool.fan_each(lanes, &mut jobs, |(id, refiner, out)| {
        let mut refiner = refiner.take().expect("each candidate runs once");
        *out = threshold_result(*id, &refiner.run());
    });
    let mut done: Vec<ThresholdResult> = jobs.into_iter().filter_map(|(_, _, out)| out).collect();
    done.sort_by_key(|r| r.id);
    done
}

/// Lock-step refinement for a top-`m` query (highest `P(DomCount < k)`):
/// besides each refiner's own stop criterion, a candidate retires early
/// once at least `m` rivals' lower bounds exceed its upper bound — it is
/// then certainly outside the top `m`, and since bounds only tighten it
/// stays outside, so the returned top-`m` set equals the
/// run-to-convergence path's while the also-rans stop burning
/// iterations. Returns the top `m` by bound midpoint (ties and overlaps
/// are visible in the returned bounds).
///
/// Each round's per-candidate `step()`/`snapshot()` calls fan over
/// [`IdcaConfig::candidate_threads`] lanes of the worker pool, like
/// [`refine_each`]; the cross-candidate bound comparison between
/// rounds always runs on the calling thread, so results are
/// bit-identical at any lane count.
pub fn refine_top_m(candidates: Vec<(ObjectId, Refiner<'_>)>, m: usize) -> Vec<ThresholdResult> {
    assert!(m >= 1, "m must be positive");
    struct Cand<'a> {
        id: ObjectId,
        /// `None` once retired (state freed; `snap` keeps the bounds).
        refiner: Option<Refiner<'a>>,
        /// `None` only before the initial snapshot round.
        snap: Option<DomCountSnapshot>,
        stalled: bool,
    }
    let lanes = candidates
        .iter()
        .map(|(_, r)| r.cfg.candidate_threads)
        .max()
        .unwrap_or(1);
    let pool = candidates
        .first()
        .map(|(_, r)| r.pool.clone())
        .unwrap_or_default();
    let mut cands: Vec<Cand<'_>> = candidates
        .into_iter()
        .map(|(id, refiner)| Cand {
            id,
            refiner: Some(refiner),
            snap: None,
            stalled: false,
        })
        .collect();
    pool.fan_each(lanes, &mut cands, |c| {
        if let Some(refiner) = &mut c.refiner {
            c.snap = Some(refiner.snapshot());
        }
    });
    loop {
        for c in &mut cands {
            if let Some(refiner) = &c.refiner {
                if c.stalled || refiner.converged(c.snap.as_ref().expect("snapshot completed")) {
                    c.refiner = None;
                }
            }
        }
        // cross-candidate early exit: certainly outside the top m
        let lowers: Vec<f64> = cands.iter().map(|c| cand_cdf(c.snap.as_ref()).0).collect();
        for (i, c) in cands.iter_mut().enumerate() {
            if c.refiner.is_none() {
                continue;
            }
            let hi = cand_cdf(c.snap.as_ref()).1;
            let beaten_by = lowers
                .iter()
                .enumerate()
                .filter(|&(j, &lo)| j != i && lo > hi)
                .count();
            if beaten_by >= m {
                c.refiner = None;
            }
        }
        if cands.iter().all(|c| c.refiner.is_none()) {
            break;
        }
        // one lock-step round over the still-active candidates (retired
        // entries keep their final snapshot; their job is a no-op)
        pool.fan_each(lanes, &mut cands, |c| {
            if let Some(refiner) = &mut c.refiner {
                if refiner.step() {
                    c.snap = Some(refiner.snapshot());
                } else {
                    c.stalled = true;
                }
            }
        });
    }
    let mut results: Vec<ThresholdResult> = cands
        .into_iter()
        .filter_map(|c| threshold_result(c.id, c.snap.as_ref().expect("snapshot completed")))
        .collect();
    results.sort_by(|a, b| {
        (b.prob_lower + b.prob_upper)
            .partial_cmp(&(a.prob_lower + a.prob_upper))
            .expect("NaN probability")
            // deterministic tie-break: candidate order must not decide
            // the truncation boundary (the scan path ties the same way)
            .then_with(|| a.id.cmp(&b.id))
    });
    results.truncate(m);
    results
}

/// The predicate CDF of a candidate snapshot (top-`m` driver helper).
fn cand_cdf(snap: Option<&DomCountSnapshot>) -> (f64, f64) {
    snap.expect("snapshot round completed")
        .predicate_cdf
        .expect("count predicate")
}

/// Composes partition-lineage maps across consecutive expansions:
/// `prev` maps the intermediate order to the cached order (or `None` when
/// this is the first expansion since the cache refresh), `next` maps the
/// newest order to the intermediate one.
fn compose_lineage(prev: Option<Vec<u32>>, next: Vec<u32>) -> Vec<u32> {
    match prev {
        None => next,
        Some(prev) => next.into_iter().map(|i| prev[i as usize]).collect(),
    }
}

/// The aggregation half of a snapshot pass (the paper's §IV-E): one UGF
/// per pair, folded into weighted count bounds plus the predicate CDF.
/// [`process_pair_range`] streams every positive-weight pair's factor
/// bounds into one of these. A pair lane's sink records each pair's
/// weighted increments instead of summing them ([`ExactSink::recording`]);
/// the calling thread then adds the records in pair order
/// ([`ExactSink::add_terms`]), so every lane count performs the
/// sequential sum's exact operation sequence.
struct ExactSink {
    ugf: Ugf,
    agg: CountDistributionBounds,
    /// The predicate's `k` net of certain dominators, which is also the
    /// UGF truncation point (`None`: full PDF, no truncation).
    k_eff: Option<usize>,
    cdf_acc: Option<(f64, f64)>,
    /// A pair lane's record, one entry per positive-weight pair: its
    /// `len` lower and `len` upper increments, then (with a predicate)
    /// its two CDF increments. `None` sums straight into `agg`.
    terms: Option<Vec<f64>>,
}

impl ExactSink {
    /// A sink summing straight into zeroed bounds of length `len`.
    fn new(ugf: Ugf, len: usize, k_eff: Option<usize>) -> Self {
        ExactSink {
            ugf,
            agg: CountDistributionBounds::zero(len),
            k_eff,
            cdf_acc: k_eff.map(|_| (0.0, 0.0)),
            terms: None,
        }
    }

    /// A pair lane's sink: `agg` becomes per-pair scratch and each
    /// pair's increments are recorded for [`ExactSink::add_terms`].
    fn recording(len: usize, k_eff: Option<usize>) -> Self {
        ExactSink {
            terms: Some(Vec::new()),
            ..ExactSink::new(Ugf::new(k_eff), len, k_eff)
        }
    }

    /// Starts a new pair (resets the UGF arena).
    fn begin_pair(&mut self) {
        self.ugf.reset(self.k_eff);
    }

    /// One influence factor with probability bounds `[p_lb, p_ub]`.
    fn factor(&mut self, p_lb: f64, p_ub: f64) {
        self.ugf.multiply(p_lb, p_ub);
    }

    /// Ends the pair, folding its aggregate in with weight `w` (or
    /// recording the increments that fold would add).
    fn finish_pair(&mut self, w: f64, n_inf: usize) {
        if self.terms.is_some() {
            // zeroed scratch: `0 + w·x` is exactly the increment `w·x`,
            // and a slot the UGF leaves alone records `0`, whose later
            // addition is exact too
            let (lower, upper) = self.agg.bounds_mut();
            lower.fill(0.0);
            upper.fill(0.0);
        }
        self.ugf.add_bounds_weighted(&mut self.agg, w);
        let cdf = self.k_eff.map(|k| {
            let (lo, hi) = self.ugf.cdf_bounds(k.min(n_inf + 1));
            // counts can never reach k when k > n_inf: cdf = 1
            let (lo, hi) = if k > n_inf { (1.0, 1.0) } else { (lo, hi) };
            (w * lo, w * hi)
        });
        match &mut self.terms {
            Some(terms) => {
                terms.extend_from_slice(self.agg.lower_slice());
                terms.extend_from_slice(self.agg.upper_slice());
                if let Some((lo, hi)) = cdf {
                    terms.extend_from_slice(&[lo, hi]);
                }
            }
            None => {
                if let (Some(acc), Some((lo, hi))) = (self.cdf_acc.as_mut(), cdf) {
                    acc.0 += lo;
                    acc.1 += hi;
                }
            }
        }
    }

    /// Adds a pair lane's recorded increments, pair by pair, in the
    /// order the lane recorded them.
    fn add_terms(&mut self, terms: &[f64]) {
        let len = self.agg.len();
        let stride = 2 * len + if self.cdf_acc.is_some() { 2 } else { 0 };
        for pair in terms.chunks_exact(stride) {
            let (lower, upper) = self.agg.bounds_mut();
            for (acc, &x) in lower.iter_mut().zip(&pair[..len]) {
                *acc += x;
            }
            for (acc, &x) in upper.iter_mut().zip(&pair[len..2 * len]) {
                *acc += x;
            }
            if let Some(acc) = self.cdf_acc.as_mut() {
                acc.0 += pair[2 * len];
                acc.1 += pair[2 * len + 1];
            }
        }
    }
}

/// The read-only context of one snapshot's pair walk, shared by every
/// pair lane.
struct PairWalk<'w> {
    b_parts: &'w [Partition],
    r_parts: &'w [Partition],
    influence: &'w [Influence],
    /// Per influence object: its lineage prefix offsets, when it
    /// expanded since the last snapshot.
    inf_offsets: &'w [Option<Vec<u32>>],
    /// The previous level's cache (`Remapped`, and `InPlace` at the
    /// final level), and each new pair's ancestor pair index in it
    /// (`Remapped`).
    old: &'w [FactorCache],
    ancestors: &'w [u32],
    /// The previous arena generation all incoming open ranges point into.
    old_arena: &'w [u32],
    mode: RefreshMode,
    /// Whether this is the final level: each lane's slots are one reused
    /// row, and its arena is scratch.
    final_level: bool,
    cfg: &'w IdcaConfig,
    /// The criterion-table keys, when this snapshot keeps tables.
    keys: Option<&'w TableKeys>,
}

impl PairWalk<'_> {
    /// Writes pair `pair_idx`'s incoming slot states into `slots`: empty
    /// for a `Full` rebuild, each ancestor slot's settled state for a
    /// remap (settled mass is final by monotonicity; the walk
    /// re-evaluates the ancestor's open list), and at the final level
    /// the previous level's slots verbatim. A cached `InPlace` or
    /// `Clean` walk's slots are current already.
    fn carry_in(&self, pair_idx: usize, slots: &mut [FactorCache]) {
        let n_inf = slots.len();
        match self.mode {
            RefreshMode::Full => slots.fill(FactorCache::empty()),
            RefreshMode::Remapped => {
                let anc = self.ancestors[pair_idx] as usize * n_inf;
                for (slot, anc) in slots.iter_mut().zip(&self.old[anc..anc + n_inf]) {
                    *slot = FactorCache::carried_from(anc);
                }
            }
            RefreshMode::InPlace | RefreshMode::Clean => {
                if self.final_level {
                    slots.copy_from_slice(&self.old[pair_idx * n_inf..(pair_idx + 1) * n_inf]);
                }
            }
        }
    }
}

/// Processes the pairs `start..end` (global pair indices): refreshes their
/// cache slots where needed, writes their new-generation open lists into
/// `arena` and streams the §IV-E aggregation into `sink`.
/// `cache` holds exactly the slots of this range, row-major by pair, or
/// at the final level one row that every pair reuses (the arena is then
/// scratch, cleared per pair); `tables` are the lane's criterion tables
/// (sized for `walk.keys`). Shared by the sequential and pool-parallel
/// snapshot paths so both produce the same per-pair operation sequence.
/// Returns the open partition references and the slots with any.
fn process_pair_range(
    walk: &PairWalk<'_>,
    start: usize,
    end: usize,
    cache: &mut [FactorCache],
    arena: &mut Vec<u32>,
    tables: &mut CriterionTables,
    sink: &mut ExactSink,
) -> (usize, usize) {
    let PairWalk {
        b_parts,
        r_parts,
        influence,
        inf_offsets,
        old,
        ancestors,
        old_arena,
        mode,
        final_level,
        cfg,
        keys,
    } = *walk;
    let n_inf = influence.len();
    let r_len = r_parts.len();
    // one classifier for the whole range, retargeted to each pair: the
    // pair walk allocates nothing
    let mut pc = (start < end && mode != RefreshMode::Clean).then(|| {
        let (bp, rp) = (&b_parts[start / r_len], &r_parts[start % r_len]);
        PairClassifier::new(&bp.mbr, &rp.mbr, cfg.criterion, cfg.norm)
    });
    let mut open = (0, 0);
    for pair_idx in start..end {
        let pair = (pair_idx / r_len, pair_idx % r_len);
        let (bp, rp) = (&b_parts[pair.0], &r_parts[pair.1]);
        let row = if final_level { 0 } else { pair_idx - start };
        let slots = &mut cache[row * n_inf..(row + 1) * n_inf];
        walk.carry_in(pair_idx, slots);
        let w = bp.mass * rp.mass;
        if w <= 0.0 {
            continue;
        }
        if final_level {
            arena.clear();
        }
        // the pair's precomputed criterion half: every classification of
        // this pair — object pre-tests and partition streams alike —
        // shares it, so only partition-side terms run in the hot loop
        if let Some(pc) = pc.as_mut() {
            pc.retarget(&bp.mbr, &rp.mbr);
        }
        let tests = pc.as_ref().map(|pc| PairTests { pc, keys, pair });
        let tests = || tests.as_ref().expect("classifier built for rebuild modes");
        sink.begin_pair();
        for ((inf_idx, (inf, offsets)), slot) in influence
            .iter()
            .zip(inf_offsets)
            .enumerate()
            .zip(slots.iter_mut())
        {
            match mode {
                // seed from the full partition list
                RefreshMode::Full => {
                    let all = 0..inf.parts.len() as u32;
                    tests().classify(slot, all, inf_idx, inf, tables, arena);
                }
                // stream the ancestor slot's open list (already expanded
                // through the influence lineage when that also changed);
                // a slot with nothing open can never change — its bounds
                // are settled mass only, stable under any refinement
                RefreshMode::Remapped => {
                    let anc = &old[ancestors[pair_idx] as usize * n_inf + inf_idx];
                    if anc.open_len > 0 {
                        let tests = tests();
                        // object-level pre-test: if the whole object
                        // robustly decides against the shrunken pair,
                        // every open partition decides identically
                        let obj = tests.pc.classify(&inf.mbr);
                        if let (Some(dominates), true) = (obj.decision, obj.robust) {
                            slot.settle_open(dominates, inf.existence);
                        } else {
                            let anc_open = &old_arena[anc.open_range()];
                            match offsets {
                                Some(offsets) => tests.classify(
                                    slot,
                                    anc_open.iter().flat_map(|&p| {
                                        offsets[p as usize]..offsets[p as usize + 1]
                                    }),
                                    inf_idx,
                                    inf,
                                    tables,
                                    arena,
                                ),
                                None => tests.classify(
                                    slot,
                                    anc_open.iter().copied(),
                                    inf_idx,
                                    inf,
                                    tables,
                                    arena,
                                ),
                            }
                        }
                    }
                }
                // pairs unchanged: slots of expanded influence objects
                // reclassify their open children; the rest carry their
                // open list into the new generation verbatim
                RefreshMode::InPlace => {
                    if slot.open_len > 0 {
                        let cur_open = &old_arena[slot.open_range()];
                        match offsets {
                            Some(offsets) => tests().classify(
                                slot,
                                cur_open
                                    .iter()
                                    .flat_map(|&p| offsets[p as usize]..offsets[p as usize + 1]),
                                inf_idx,
                                inf,
                                tables,
                                arena,
                            ),
                            None => {
                                let new_start = arena.len();
                                arena.extend_from_slice(cur_open);
                                assert!(
                                    arena.len() <= u32::MAX as usize,
                                    "open-list arena overflow"
                                );
                                slot.open_start = new_start as u32;
                            }
                        }
                    }
                }
                // nothing changed: cached bounds are current, the arena
                // generation stays as-is
                RefreshMode::Clean => {}
            }
            sink.factor(slot.bounds.lower, slot.bounds.upper);
            open.0 += slot.open_len as usize;
            open.1 += usize::from(slot.open_len > 0);
        }
        sink.finish_pair(w, n_inf);
    }
    open
}

/// The partition tests of one pair `(B', R')`: the kernel retargeted to
/// it, and the criterion-table keys when the walk keeps tables.
struct PairTests<'p> {
    pc: &'p PairClassifier,
    keys: Option<&'p TableKeys>,
    /// `(B', R')` partition indices.
    pair: (usize, usize),
}

impl PairTests<'_> {
    /// Classifies influence object `inf_idx`'s `candidates` into `slot`
    /// ([`FactorCache::classify_into`]): from the lane's criterion tables
    /// when the walk keeps them and the object qualifies, else by the
    /// kernel.
    fn classify(
        &self,
        slot: &mut FactorCache,
        candidates: impl Iterator<Item = u32>,
        inf_idx: usize,
        inf: &Influence,
        tables: &mut CriterionTables,
        arena: &mut Vec<u32>,
    ) {
        match self.keys.filter(|_| inf.tabled == Some(true)) {
            Some(keys) => {
                tables.open_rows(keys, inf_idx, inf, self.pair, self.pc);
                let tested = if inf.mbr.dims() == 2 {
                    self.classify_tabled::<2>(slot, candidates, inf, tables, arena)
                } else {
                    self.classify_tabled::<0>(slot, candidates, inf, tables, arena)
                };
                tables.tests.0 += tested;
            }
            None => {
                let dims = inf.mbr.dims();
                let tested = slot.classify_into(candidates, inf, arena, |p| {
                    self.pc
                        .classify_dims(&inf.flat_mbrs[p * dims..(p + 1) * dims])
                        .into()
                });
                tables.tests.1 += tested;
            }
        }
    }

    /// The tabled partition test over the slot's rows
    /// ([`CriterionTables::open_rows`]): `D` dimensions, or with `D = 0`
    /// the influence object's count over slices, like the kernel's own
    /// `D = 2` / slice copies. The rows and each partition's ids are
    /// sliced once, to constant length `D` when it is not 0, so the
    /// 2-D lookup is two loads without a loop.
    #[inline(always)]
    fn classify_tabled<const D: usize>(
        &self,
        slot: &mut FactorCache,
        candidates: impl Iterator<Item = u32>,
        inf: &Influence,
        tables: &CriterionTables,
        arena: &mut Vec<u32>,
    ) -> u64 {
        let dims = if D == 0 { inf.mbr.dims() } else { D };
        let (rows, starts) = (&tables.rows[..], &tables.slot_rows[..dims]);
        slot.classify_into(candidates, inf, arena, |p| {
            let ids = &inf.ids.ids[p * dims..][..dims];
            let mbr = &inf.flat_mbrs[p * dims..][..dims];
            // the kernel's sums: the same shares, added in dimension
            // order from zero
            let mut sums = OptimalSums::ZERO;
            for (&start, &id) in starts.iter().zip(ids) {
                sums.add(rows[(start + id) as usize]);
            }
            let class = self.pc.decide_sums(sums, mbr);
            debug_assert_eq!(
                class,
                self.pc.classify_dims(mbr).into(),
                "criterion table disagrees with the kernel"
            );
            class
        })
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use udb_geometry::{Interval, Point, Rect};
    use udb_pdf::Pdf;

    fn certain(x: f64) -> UncertainObject {
        UncertainObject::certain(Point::from([x, 0.0]))
    }

    fn uniform_seg(lo: f64, hi: f64) -> UncertainObject {
        UncertainObject::new(Pdf::uniform(Rect::new(vec![
            Interval::new(lo, hi),
            Interval::point(0.0),
        ])))
    }

    #[test]
    fn certain_world_is_exact_at_iteration_zero() {
        // R at 0; dominators at 1 and 2; target at 3; dominated at 4
        let db =
            Database::from_objects(vec![certain(1.0), certain(2.0), certain(3.0), certain(4.0)]);
        let r = certain(0.0);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(2)),
            ObjRef::External(&r),
            IdcaConfig::default(),
            Predicate::FullPdf,
        );
        assert_eq!(refiner.complete_count(), 2);
        assert_eq!(refiner.influence_ids().len(), 0);
        let snap = refiner.run();
        assert_eq!(snap.iteration, 0);
        assert!((snap.bounds.lower(2) - 1.0).abs() < 1e-12);
        assert!((snap.bounds.upper(2) - 1.0).abs() < 1e-12);
        assert_eq!(snap.uncertainty(), 0.0);
    }

    #[test]
    fn figure3_dependency_resolved_correctly() {
        // Example 1 / Figure 3: two coincident certain dominator
        // candidates, PDom = 1/2 each, fully correlated through R. The
        // correct count PDF is {0: 1/2, 1: 0, 2: 1/2}; a naive product
        // would claim P(count = 2) = 1/4.
        let db = Database::from_objects(vec![certain(2.0), certain(2.0), certain(0.0)]);
        let r = uniform_seg(0.0, 2.0);
        let cfg = IdcaConfig {
            max_iterations: 10,
            uncertainty_target: 0.02,
            ..Default::default()
        };
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(2)),
            ObjRef::External(&r),
            cfg,
            Predicate::FullPdf,
        );
        assert_eq!(refiner.influence_ids().len(), 2);
        let snap = refiner.run();
        // bounds must bracket the truth {0.5, 0, 0.5}
        assert!(snap.bounds.lower(0) <= 0.5 + 1e-9 && snap.bounds.upper(0) >= 0.5 - 1e-9);
        assert!(snap.bounds.lower(2) <= 0.5 + 1e-9 && snap.bounds.upper(2) >= 0.5 - 1e-9);
        assert!(snap.bounds.lower(1) <= 1e-9);
        // and converge near them: P(count = 2) must stay well above the
        // naive 1/4 and P(count = 1) well below the naive 1/2
        assert!(
            snap.bounds.lower(2) > 0.4,
            "lower(2) = {} — dependency was lost",
            snap.bounds.lower(2)
        );
        assert!(
            snap.bounds.upper(1) < 0.1,
            "upper(1) = {} — dependency was lost",
            snap.bounds.upper(1)
        );
    }

    #[test]
    fn uncertainty_is_monotone_in_iterations() {
        let db = Database::from_objects(vec![
            uniform_seg(0.5, 2.5),
            uniform_seg(1.0, 3.0),
            uniform_seg(2.0, 4.0),
            certain(2.0),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(3)),
            ObjRef::External(&r),
            IdcaConfig {
                max_iterations: 7,
                uncertainty_target: 0.0,
                ..Default::default()
            },
            Predicate::FullPdf,
        );
        let mut prev = refiner.snapshot().uncertainty();
        while refiner.step() {
            let cur = refiner.snapshot().uncertainty();
            assert!(
                cur <= prev + 1e-9,
                "uncertainty increased: {prev} -> {cur} at iteration {}",
                refiner.iteration()
            );
            prev = cur;
            if refiner.iteration() >= 7 {
                break;
            }
        }
        assert!(prev < 1.0, "refinement should reduce uncertainty: {prev}");
    }

    /// The cache-consistency property of the tentpole: at every iteration
    /// the incremental snapshot must equal the from-scratch recompute.
    #[test]
    fn incremental_snapshot_matches_from_scratch_every_iteration() {
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
        for predicate in [
            Predicate::FullPdf,
            Predicate::CountBelow { k: 2 },
            Predicate::Threshold { k: 3, tau: 0.5 },
        ] {
            let mut refiner = Refiner::new(
                &db,
                ObjRef::Db(ObjectId(4)),
                ObjRef::External(&r),
                IdcaConfig {
                    max_iterations: 6,
                    uncertainty_target: 0.0,
                    ..Default::default()
                },
                predicate,
            );
            for iteration in 0..6 {
                let inc = refiner.snapshot();
                let scratch = refiner.snapshot_from_scratch();
                assert_eq!(inc.bounds.len(), scratch.bounds.len());
                for k in 0..inc.bounds.len() {
                    assert!(
                        (inc.bounds.lower(k) - scratch.bounds.lower(k)).abs() < 1e-12,
                        "{predicate:?} it={iteration} lower k={k}: {} vs {}",
                        inc.bounds.lower(k),
                        scratch.bounds.lower(k)
                    );
                    assert!(
                        (inc.bounds.upper(k) - scratch.bounds.upper(k)).abs() < 1e-12,
                        "{predicate:?} it={iteration} upper k={k}: {} vs {}",
                        inc.bounds.upper(k),
                        scratch.bounds.upper(k)
                    );
                }
                match (inc.predicate_cdf, scratch.predicate_cdf) {
                    (Some((il, ih)), Some((sl, sh))) => {
                        assert!(
                            (il - sl).abs() < 1e-12,
                            "{predicate:?} it={iteration} cdf lo"
                        );
                        assert!(
                            (ih - sh).abs() < 1e-12,
                            "{predicate:?} it={iteration} cdf hi"
                        );
                    }
                    (None, None) => {}
                    other => panic!("cdf presence mismatch: {other:?}"),
                }
                if !refiner.step() {
                    break;
                }
            }
        }
    }

    /// Parallel snapshots are bit-identical to sequential ones: pair
    /// lanes record their increments and the calling thread sums them in
    /// pair order.
    #[test]
    fn parallel_snapshot_matches_sequential() {
        let db = Database::from_objects(vec![
            uniform_seg(0.5, 2.5),
            uniform_seg(1.0, 3.0),
            uniform_seg(2.0, 4.0),
            uniform_seg(1.8, 2.6),
            certain(2.0),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        for predicate in [Predicate::FullPdf, Predicate::Threshold { k: 2, tau: 0.5 }] {
            let mk = |threads| {
                Refiner::new(
                    &db,
                    ObjRef::Db(ObjectId(4)),
                    ObjRef::External(&r),
                    IdcaConfig {
                        max_iterations: 5,
                        uncertainty_target: 0.0,
                        snapshot_threads: threads,
                        ..Default::default()
                    },
                    predicate,
                )
            };
            for threads in [2usize, 4, 16] {
                let (mut seq, mut par) = (mk(1), mk(threads));
                loop {
                    let (a, b) = (seq.snapshot(), par.snapshot());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let it = a.iteration;
                    assert_eq!(
                        bits(a.bounds.lower_slice()),
                        bits(b.bounds.lower_slice()),
                        "{predicate:?} threads={threads} iteration {it}: lower"
                    );
                    assert_eq!(
                        bits(a.bounds.upper_slice()),
                        bits(b.bounds.upper_slice()),
                        "{predicate:?} threads={threads} iteration {it}: upper"
                    );
                    let cdf_bits =
                        |c: Option<(f64, f64)>| c.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
                    assert_eq!(
                        cdf_bits(a.predicate_cdf),
                        cdf_bits(b.predicate_cdf),
                        "{predicate:?} threads={threads} iteration {it}: cdf"
                    );
                    let (sp, pp) = (seq.step(), par.step());
                    assert_eq!(sp, pp);
                    if !sp || seq.iteration() > 5 {
                        break;
                    }
                }
            }
        }
    }

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
            let r_len = refiner.r_parts.len();
            for (pair_idx, chunk) in refiner.cache.chunks(n_inf).enumerate() {
                let bp = &refiner.b_parts[pair_idx / r_len];
                let rp = &refiner.r_parts[pair_idx % r_len];
                if bp.mass * rp.mass <= 0.0 {
                    continue;
                }
                for (inf, slot) in refiner.influence.iter().zip(chunk.iter()) {
                    let fresh = pdom_bounds_vs_fixed(
                        &inf.parts,
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
            for (slot_idx, slot) in refiner.cache.iter().enumerate() {
                if slot.open_len == 0 {
                    continue;
                }
                let range = slot.open_range();
                assert!(
                    range.end <= refiner.open_arena.len(),
                    "slot {slot_idx} dangles"
                );
                assert!(
                    range.start >= cursor,
                    "slot {slot_idx} overlaps its predecessor"
                );
                cursor = range.end;
                let inf = &refiner.influence[slot_idx % refiner.influence.len()];
                for &p in &refiner.open_arena[range] {
                    assert!((p as usize) < inf.parts.len(), "stale partition index");
                }
            }
            // the generation is compact: nothing beyond the last range
            assert!(cursor <= refiner.open_arena.len());
            if !refiner.step() {
                break;
            }
        }
    }

    /// The candidate driver must reproduce per-candidate `run()` results
    /// exactly while actually retiring candidates at different depths.
    #[test]
    fn lockstep_driver_matches_individual_runs() {
        let db = Database::from_objects(vec![
            uniform_seg(0.5, 2.0),
            uniform_seg(1.0, 3.0),
            uniform_seg(2.0, 4.0),
            uniform_seg(1.8, 2.6),
            certain(2.5),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        let cfg = IdcaConfig {
            max_iterations: 6,
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let predicate = Predicate::Threshold { k: 2, tau: 0.5 };
        let ids: Vec<ObjectId> = db.ids().collect();
        let mk = |id: ObjectId| {
            Refiner::new(
                &db,
                ObjRef::Db(id),
                ObjRef::External(&r),
                cfg.clone(),
                predicate,
            )
        };
        let each = refine_each(ids.iter().map(|&id| (id, mk(id))).collect());
        let mut individual: Vec<ThresholdResult> = ids
            .iter()
            .filter_map(|&id| {
                let mut refiner = mk(id);
                let snap = refiner.run();
                threshold_result(id, &snap)
            })
            .collect();
        individual.sort_by_key(|x| x.id);
        assert_eq!(each.len(), individual.len());
        for (a, b) in each.iter().zip(individual.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.prob_lower, b.prob_lower);
            assert_eq!(a.prob_upper, b.prob_upper);
            assert_eq!(a.iterations, b.iterations);
        }
        // the early exit is real: decided candidates stop at different
        // iteration depths instead of all burning max_iterations
        assert!(
            each.iter().any(|x| x.iterations < 6),
            "no candidate retired early: {each:?}"
        );
    }

    #[test]
    fn predicate_filter_decides_immediately() {
        // two certain dominators and k = 1: P(DomCount < 1) = 0 after the
        // filter step alone
        let db = Database::from_objects(vec![certain(1.0), certain(2.0), certain(5.0)]);
        let r = certain(0.0);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(2)),
            ObjRef::External(&r),
            IdcaConfig::default(),
            Predicate::Threshold { k: 1, tau: 0.5 },
        );
        let snap = refiner.run();
        assert_eq!(snap.iteration, 0);
        assert_eq!(snap.predicate_cdf, Some((0.0, 0.0)));
        assert_eq!(snap.decided(0.5), Some(false));
    }

    #[test]
    fn predicate_k_beyond_influence_is_certain_hit() {
        // no dominators at all and k = 2: P(DomCount < 2) = 1
        let db = Database::from_objects(vec![certain(5.0), certain(1.0)]);
        let r = certain(0.0);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(1)),
            ObjRef::External(&r),
            IdcaConfig::default(),
            Predicate::Threshold { k: 2, tau: 0.9 },
        );
        let snap = refiner.run();
        let (lo, hi) = snap.predicate_cdf.unwrap();
        assert!((lo - 1.0).abs() < 1e-12);
        assert!((hi - 1.0).abs() < 1e-12);
        assert_eq!(snap.decided(0.9), Some(true));
    }

    #[test]
    fn threshold_early_termination() {
        // one influence object with a clear decision: refiner should stop
        // before max_iterations
        let db = Database::from_objects(vec![uniform_seg(0.8, 1.2), certain(3.0)]);
        let r = certain(0.0);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(1)),
            ObjRef::External(&r),
            IdcaConfig {
                max_iterations: 20,
                uncertainty_target: 0.0,
                ..Default::default()
            },
            Predicate::Threshold { k: 2, tau: 0.5 },
        );
        let snap = refiner.run();
        // A surely dominates (its region [0.8, 1.2] is closer to 0 than 3
        // in every world): DomCount = 1 surely, P(< 2) = 1 > 0.5
        assert_eq!(snap.decided(0.5), Some(true));
        assert!(snap.iteration <= 2, "iteration {}", snap.iteration);
    }

    #[test]
    fn reference_object_from_database_is_excluded() {
        // reference is a DB object: it must not count toward domination
        let db = Database::from_objects(vec![certain(0.0), certain(1.0), certain(3.0)]);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(2)),
            ObjRef::Db(ObjectId(0)),
            IdcaConfig::default(),
            Predicate::FullPdf,
        );
        let snap = refiner.run();
        // only object 1 dominates object 2 w.r.t. object 0
        assert!((snap.bounds.lower(1) - 1.0).abs() < 1e-12);
        assert_eq!(snap.complete_count, 1);
    }

    #[test]
    fn bounds_bracket_world_sampler() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let db = Database::from_objects(vec![
            uniform_seg(0.5, 2.0),
            uniform_seg(1.5, 3.5),
            uniform_seg(2.5, 4.5),
            uniform_seg(1.8, 2.6),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(3)),
            ObjRef::External(&r),
            IdcaConfig {
                max_iterations: 6,
                uncertainty_target: 0.0,
                ..Default::default()
            },
            Predicate::FullPdf,
        );
        let snap = refiner.run();
        let mut rng = StdRng::seed_from_u64(99);
        let truth = udb_mc::estimate_domination_count_pdf(
            &db,
            ObjectId(3),
            &r,
            udb_geometry::LpNorm::L2,
            20_000,
            &mut rng,
        );
        for k in 0..snap.bounds.len() {
            assert!(
                truth[k] >= snap.bounds.lower(k) - 0.02,
                "k={k}: truth {} < lower {}",
                truth[k],
                snap.bounds.lower(k)
            );
            assert!(
                truth[k] <= snap.bounds.upper(k) + 0.02,
                "k={k}: truth {} > upper {}",
                truth[k],
                snap.bounds.upper(k)
            );
        }
    }

    #[test]
    fn existential_uncertainty_scales_bounds() {
        // a certain dominator that exists with probability 0.5: the count
        // must be 0 or 1 with probability 1/2 each, and the refiner's
        // bounds must converge to exactly that (the UGF factor becomes
        // [0.5, 0.5] after the spatial relation is decided)
        let dominator = UncertainObject::with_existence(
            Pdf::uniform(Rect::from_point(&Point::from([1.0, 0.0]))),
            0.5,
        );
        let db = Database::from_objects(vec![dominator, certain(3.0)]);
        let r = certain(0.0);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(1)),
            ObjRef::External(&r),
            IdcaConfig::default(),
            Predicate::FullPdf,
        );
        // existential objects are never "complete" dominators
        assert_eq!(refiner.complete_count(), 0);
        assert_eq!(
            refiner.influence_ids().collect::<Vec<_>>(),
            vec![ObjectId(0)]
        );
        let snap = refiner.run();
        assert!(
            (snap.bounds.lower(0) - 0.5).abs() < 1e-9,
            "{:?}",
            snap.bounds
        );
        assert!((snap.bounds.upper(0) - 0.5).abs() < 1e-9);
        assert!((snap.bounds.lower(1) - 0.5).abs() < 1e-9);
        assert!((snap.bounds.upper(1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn existential_uncertainty_brackets_world_sampler() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let db = Database::from_objects(vec![
            UncertainObject::with_existence(
                Pdf::uniform(Rect::new(vec![
                    Interval::new(0.5, 1.5),
                    Interval::point(0.0),
                ])),
                0.7,
            ),
            uniform_seg(1.0, 3.0),
            certain(2.5),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(ObjectId(2)),
            ObjRef::External(&r),
            IdcaConfig {
                max_iterations: 6,
                uncertainty_target: 0.0,
                ..Default::default()
            },
            Predicate::FullPdf,
        );
        let snap = refiner.run();
        let mut rng = StdRng::seed_from_u64(2024);
        let truth = udb_mc::estimate_domination_count_pdf(
            &db,
            ObjectId(2),
            &r,
            udb_geometry::LpNorm::L2,
            30_000,
            &mut rng,
        );
        for k in 0..snap.bounds.len() {
            assert!(truth[k] >= snap.bounds.lower(k) - 0.02, "k={k}");
            assert!(truth[k] <= snap.bounds.upper(k) + 0.02, "k={k}");
        }
    }

    #[test]
    fn truncated_predicate_matches_full_pdf_cdf() {
        let db = Database::from_objects(vec![
            uniform_seg(0.5, 2.0),
            uniform_seg(1.0, 3.0),
            uniform_seg(2.0, 4.0),
            certain(2.5),
        ]);
        let r = uniform_seg(-0.5, 0.5);
        let k = 2;
        let mk = |pred| {
            Refiner::new(
                &db,
                ObjRef::Db(ObjectId(3)),
                ObjRef::External(&r),
                IdcaConfig {
                    max_iterations: 4,
                    uncertainty_target: 0.0,
                    ..Default::default()
                },
                pred,
            )
        };
        let mut full = mk(Predicate::FullPdf);
        let mut trunc = mk(Predicate::CountBelow { k });
        for _ in 0..4 {
            full.step();
            trunc.step();
        }
        let fs = full.snapshot();
        let ts = trunc.snapshot();
        let (tlo, thi) = ts.predicate_cdf.unwrap();
        let (flo, fhi) = fs.bounds.cdf_bounds(k);
        // the truncated direct CDF bounds must be at least as tight as the
        // ones recovered from the full per-k bounds, and consistent
        assert!(tlo >= flo - 1e-9, "tlo {tlo} flo {flo}");
        assert!(thi <= fhi + 1e-9, "thi {thi} fhi {fhi}");
        assert!(tlo <= thi);
    }
}
