//! The iterative domination-count refiner (Algorithm 1 of the paper).
//!
//! [`Refiner::new`] runs the complete-domination filter, each
//! [`Refiner::step`] deepens every decomposition by one level, and
//! [`Refiner::snapshot`] evaluates one UGF per partition pair `(B', R')`,
//! each multiplying one probability-bound factor per influence object.
//! Recomputing every factor from scratch each iteration costs
//! `O(|B'|·|R'| · Σᵢ |Aᵢ'|)` spatial tests per snapshot; most of that work
//! repeats verbatim, so the refiner caches and dirty-tracks it. Each
//! layer lives in its own module:
//!
//! * `level.rs` — the factor cache and open-list arena of the current
//!   level, and how the next snapshot refreshes them;
//! * `tables.rs` — the criterion tables that memoize partition tests;
//! * `walk.rs` — the snapshot pair walk, its pair lanes and the §IV-E
//!   aggregation;
//! * `drivers.rs` — the early-exit candidate drivers [`refine_each`] and
//!   [`refine_top_m`].
//!
//! # Decompositions
//!
//! Every region (`B`, `R` and each influence object) holds the shared
//! decomposition level it is on ([`udb_object::DecompLevel`]), starting
//! at level 0, and deepens through one cursor into a decomposition entry
//! ([`crate::decomp`]). A refiner that a query plane builds uses the
//! engine's entries: database objects from the engine's cache, the query
//! object from the query's own entry. A refiner built by
//! [`Refiner::new`] or [`crate::Engine::refiner`] uses private entries,
//! made at a region's first expansion and dropped with the refiner.
//! Expansion is deterministic, so the bits of a snapshot do not depend on
//! where the entries live.
//!
//! # The kept snapshot
//!
//! A refiner keeps its last snapshot until a [`Refiner::step`] makes
//! progress, and [`Refiner::snapshot`] returns that snapshot while it
//! holds one: nothing has expanded since, so a new walk would multiply
//! the same cached factors in the same order. A repeated snapshot
//! therefore has the same bits and leaves [`Refiner::partition_tests`],
//! [`Refiner::open_stats`] and [`Refiner::cache_stats`] as they were;
//! only [`RefineStats::rounds`] counts it.
//!
//! # The final level
//!
//! A snapshot taken at `iteration >= max_iterations` is the refiner's
//! last: [`Refiner::converged`] stops [`Refiner::run`], [`refine_each`]
//! and [`refine_top_m`] there. It is also the biggest level (up to 4x
//! the pairs of the one before), so its walk streams every pair through
//! one reused row of slots per pair lane and keeps no factor cache or
//! open-list arena; it classifies and aggregates exactly as a cached
//! walk, so the snapshot and the counters are the same. A later
//! progressing [`Refiner::step`] finds the refiner uncached — it retires
//! no influence object — and the next snapshot rebuilds from nothing.
//!
//! [`Refiner::snapshot_from_scratch`] keeps the cache-free evaluation
//! path: tests assert it agrees with the incremental snapshot at every
//! iteration, and the `idca` criterion bench measures the speedup.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use udb_domination::{pdom_bounds_vs_fixed, DecisionClass, PDomBounds, PairClassifier};
use udb_genfunc::{CountDistributionBounds, Ugf};
use udb_object::{Database, DecompLevel, ObjectId, UncertainObject};

use crate::config::{IdcaConfig, ObjRef, Predicate};
use crate::decomp::{DecCursor, Entries};
use crate::parallel::PoolHandle;

mod drivers;
mod level;
mod tables;
mod walk;

pub(crate) use drivers::threshold_result;
pub use drivers::{refine_each, refine_top_m};

use level::Level;
use tables::{IntervalIds, TableKeys};
use walk::ExactSink;

/// One influence object: its id, existence probability and current
/// decomposition state.
struct Influence {
    id: ObjectId,
    existence: f64,
    /// The whole object's uncertainty-region MBR (for the object-level
    /// pre-test of remapped slots).
    mbr: udb_geometry::Rect,
    /// The level the object is on; the pair walk streams its flat
    /// boxes and masses.
    dec: DecCursor,
    /// The partitions' interval ids, valid when `tabled`.
    ids: IntervalIds,
    /// Whether the partitions share enough intervals for criterion
    /// tables (the fallback rule in `tables.rs`); `None` until a
    /// snapshot that keeps tables assesses the current partition list.
    tabled: Option<bool>,
    /// Partition lineage since the last snapshot.
    lineage: Lineage,
}

impl Influence {
    fn level(&self) -> &DecompLevel {
        self.dec.level()
    }
}

/// Refinement round counter (shared, lock-free): the number of
/// [`Refiner::snapshot`] calls of the refiners it is attached to.
/// Engines attach one sink ([`Refiner::with_stats`]) to every refiner
/// they build, so the refinement work of a whole query (or workload) is
/// observable.
#[derive(Debug, Default)]
pub struct RefineStats {
    rounds: AtomicU64,
}

impl RefineStats {
    /// Refinement rounds observed: one per [`Refiner::snapshot`] call.
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
    complete_count: usize,
    influence: Vec<Influence>,
    /// The levels `B` and `R` are on.
    b: DecCursor,
    r: DecCursor,
    iteration: usize,
    /// Partition lineage of `B` / `R` expansions since the cache was last
    /// refreshed.
    b_map: Lineage,
    r_map: Lineage,
    /// The factor cache and open-list arena of the last walked level.
    level: Level,
    /// The criterion-table key layout for the current `B'`/`R'`, and
    /// whether tables pay for it (see `tables.rs`).
    table_keys: TableKeys,
    tables_pay: bool,
    /// Partition tests so far, `(from the tables, by the kernel)`.
    partition_tests: (u64, u64),
    /// The last snapshot, kept until a step makes progress (see "The
    /// kept snapshot").
    last: Option<DomCountSnapshot>,
    /// The reusable UGF arena for sequential aggregation.
    ugf: Ugf,
    /// Shared worker pool for parallel snapshots (engine-injected via
    /// [`Refiner::with_pool`]; otherwise created lazily and private).
    pool: PoolHandle,
    /// Round counter (engine-attached; `None` = not measured).
    stats: Option<Arc<RefineStats>>,
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
            match pc.classify(a.mbr()) {
                // certainly never dominates the target: no influence on
                // the count
                DecisionClass::RobustNever | DecisionClass::OpenNever => continue,
                // certain dominator (only if it certainly exists)
                DecisionClass::RobustDominate | DecisionClass::OpenDominate
                    if a.existence() >= 1.0 =>
                {
                    complete_count += 1;
                    continue;
                }
                // ascending ids: the scan walks the database slots
                _ => influence_ids.push(id),
            }
        }
        Refiner::from_filter(
            DbView::Single(db),
            target,
            reference,
            cfg,
            predicate,
            (complete_count, influence_ids),
            Entries::Private,
        )
    }

    /// Builds a refiner from a *precomputed* filter result over a
    /// [`DbView`]: `complete_count` certain dominators and the undecided
    /// `influence_ids`, ascending. The caller is responsible for the
    /// classification's soundness (the index-accelerated filters apply
    /// the same criterion as [`Refiner::new`]). Influence ids are
    /// resolved through the view, so the sharded router's refiner
    /// refines against influence objects scattered across shard
    /// databases exactly as if they lived in one. Every region expands
    /// through a cursor into an entry of `entries` (see
    /// [`crate::decomp`]).
    ///
    /// # Panics
    /// Panics where [`Entries::check`] does.
    pub(crate) fn from_filter(
        db: DbView<'a>,
        target: ObjRef<'a>,
        reference: ObjRef<'a>,
        cfg: IdcaConfig,
        predicate: Predicate,
        (complete_count, influence_ids): (usize, Vec<ObjectId>),
        entries: Entries<'_>,
    ) -> Self {
        let strategy = cfg.split_strategy;
        entries.check(strategy, [target.id(), reference.id()]);
        let target_obj = db.resolve(target);
        let reference_obj = db.resolve(reference);
        let influence = influence_ids
            .into_iter()
            .map(|id| {
                let a = db.get(id);
                Influence {
                    id,
                    existence: a.existence(),
                    mbr: a.mbr().clone(),
                    dec: entries.cursor(Some(id), a.pdf(), strategy),
                    ids: IntervalIds::default(),
                    tabled: None,
                    lineage: Lineage::Unchanged,
                }
            })
            .collect();
        Refiner {
            db,
            cfg,
            predicate,
            target: target_obj,
            reference: reference_obj,
            complete_count,
            influence,
            b: entries.cursor(target.id(), target_obj.pdf(), strategy),
            r: entries.cursor(reference.id(), reference_obj.pdf(), strategy),
            iteration: 0,
            b_map: Lineage::Unchanged,
            r_map: Lineage::Unchanged,
            level: Level::default(),
            table_keys: TableKeys::default(),
            tables_pay: false,
            partition_tests: (0, 0),
            last: None,
            ugf: Ugf::new(None),
            pool: PoolHandle::default(),
            stats: None,
        }
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
    /// factor cache after the last walk (at the final level, of the
    /// slots it streamed). Useful for tuning and for understanding
    /// where snapshot time goes.
    pub fn cache_stats(&self) -> (usize, usize) {
        let (_, open_slots, slots) = self.level.counts();
        (slots - open_slots, slots)
    }

    /// Total open (still-classified-per-snapshot) partition references
    /// across all cache slots after the last walk, and the total the
    /// from-scratch path would test per snapshot.
    pub fn open_stats(&self) -> (usize, usize) {
        let open = self.level.counts().0;
        let scratch: usize = self.b.level().partitions().len()
            * self.r.level().partitions().len()
            * self
                .influence
                .iter()
                .map(|i| i.level().partitions().len())
                .sum::<usize>();
        (open, scratch)
    }

    /// Partition tests of the cached pair walk so far, `(answered from
    /// the criterion tables, by the kernel)` (see `tables.rs`). The
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
    /// splitting provably cannot change the bounds; the kept snapshot
    /// then stays current.
    ///
    /// The second case is the mid-loop retirement of *influence objects*:
    /// after a cached snapshot, an object with no open partition left in
    /// any slot is finally classified — robust decisions are stable under
    /// refinement of any of the three regions, so its factors can never
    /// change again — and it is skipped by every subsequent step. Once
    /// *no* slot anywhere is open, expanding `B`/`R` is equally pointless
    /// (child pairs inherit their ancestor's settled factors verbatim, so
    /// the aggregate is a fixed point) and the step reports exhaustion.
    pub fn step(&mut self) -> bool {
        // per-influence open-reference counts of the last walk;
        // settledness is monotone, so counts from the most recent
        // snapshot remain valid across multiple back-to-back steps
        let inf_open = self.level.open_per_influence(self.influence.len());
        if let Some(open) = &inf_open {
            if open.iter().all(|&o| o == 0) {
                return false; // every factor is final: bounds are exact
            }
        }
        let mut progress = false;
        if let Some(left) = self.b.expand(self.target.pdf()) {
            self.b_map.advance(&left, self.b.level());
            progress = true;
        }
        if let Some(left) = self.r.expand(self.reference.pdf()) {
            self.r_map.advance(&left, self.r.level());
            progress = true;
        }
        for (inf_idx, inf) in self.influence.iter_mut().enumerate() {
            if inf_open.as_ref().is_some_and(|open| open[inf_idx] == 0) {
                continue; // finally classified: retired from refinement
            }
            if let Some(left) = inf.dec.expand(self.db.get(inf.id).pdf()) {
                inf.lineage.advance(&left, inf.dec.level());
                // the interval ids wait for the next assessment of the
                // fallback rule
                inf.tabled = None;
                progress = true;
            }
        }
        if progress {
            self.iteration += 1;
            self.last = None;
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
            let nothing = CountDistributionBounds::zero(0);
            return Err(self.finish(nothing, Some((0.0, 0.0))));
        }
        let n_inf = self.influence.len();
        let len = match k_eff {
            Some(k) => (n_inf + 1).min(k),
            None => n_inf + 1,
        };
        Ok((len, k_eff))
    }

    /// Shared snapshot epilogue: normalizes the aggregate, shifts it by
    /// the complete-domination count and clamps the predicate CDF.
    fn finish(
        &self,
        mut agg: CountDistributionBounds,
        cdf: Option<(f64, f64)>,
    ) -> DomCountSnapshot {
        agg.normalize();
        agg.shift_right(self.complete_count);
        DomCountSnapshot {
            bounds: agg,
            predicate_cdf: cdf.map(|(lo, hi)| (lo.clamp(0.0, 1.0), hi.clamp(0.0, 1.0))),
            complete_count: self.complete_count,
            influence_count: self.influence.len(),
            iteration: self.iteration,
        }
    }

    /// Evaluates the current bounds (lines 16–36 of Algorithm 1): one UGF
    /// per partition pair `(B', R')`, aggregated by pair probability and
    /// shifted by the complete-domination count.
    ///
    /// Returns the kept snapshot while the refiner holds one (see "The
    /// kept snapshot"). Otherwise the snapshot is incremental: only
    /// factors invalidated since the previous walk are recomputed (see
    /// `level.rs`), and the pair loop runs on
    /// [`IdcaConfig::snapshot_threads`] lanes. The very first snapshot
    /// (iteration 0, before any progressing [`Refiner::step`]) takes the
    /// cache-free path — threshold queries frequently decide right there,
    /// and building the factor cache for a refiner that never iterates
    /// would be pure overhead.
    pub fn snapshot(&mut self) -> DomCountSnapshot {
        if let Some(stats) = &self.stats {
            stats.rounds.fetch_add(1, Ordering::Relaxed);
        }
        if self.last.is_none() {
            let snap = if self.iteration == 0 {
                self.snapshot_from_scratch()
            } else {
                self.walk_snapshot()
            };
            self.last = Some(snap);
        }
        self.last.clone().expect("a snapshot is kept")
    }

    /// The incremental evaluation behind [`Refiner::snapshot`].
    fn walk_snapshot(&mut self) -> DomCountSnapshot {
        let (len, k_eff) = match self.snapshot_prologue() {
            Ok(header) => header,
            Err(snapshot) => return snapshot,
        };
        // the sink owns the refiner's persistent UGF arena for the
        // duration of the pair loop (returned below, so the steady-state
        // snapshot keeps reusing one allocation)
        let ugf = std::mem::replace(&mut self.ugf, Ugf::new(None));
        let mut sink = ExactSink::new(ugf, len, k_eff);
        self.snapshot_pairs(&mut sink);
        let ExactSink {
            ugf, agg, cdf_acc, ..
        } = sink;
        self.ugf = ugf;
        self.finish(agg, cdf_acc)
    }

    /// Cache-free snapshot: recomputes every factor of every partition
    /// pair, sequentially. Kept as the reference path — the incremental
    /// [`Refiner::snapshot`] must agree with it at every iteration (up to
    /// float reassociation, ≲ 1e-13) — and as the baseline the `idca`
    /// bench measures the incremental speedup against.
    pub fn snapshot_from_scratch(&self) -> DomCountSnapshot {
        let (len, k_eff) = match self.snapshot_prologue() {
            Ok(header) => header,
            Err(snapshot) => return snapshot,
        };
        let mut sink = ExactSink::new(Ugf::new(k_eff), len, k_eff);
        for bp in self.b.level().partitions() {
            for rp in self.r.level().partitions() {
                let w = bp.mass * rp.mass;
                if w <= 0.0 {
                    continue;
                }
                sink.ugf.reset(k_eff);
                for inf in &self.influence {
                    let (norm, criterion) = (self.cfg.norm, self.cfg.criterion);
                    let bounds = pdom_bounds_vs_fixed(
                        inf.level().partitions(),
                        &bp.mbr,
                        &rp.mbr,
                        norm,
                        criterion,
                    );
                    let PDomBounds { lower, upper } = bounds.scale_by_existence(inf.existence);
                    sink.ugf.multiply(lower, upper);
                }
                sink.finish_pair(w, self.influence.len());
            }
        }
        self.finish(sink.agg, sink.cdf_acc)
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

/// A region's partition lineage since the last snapshot: for each
/// partition of its current level, the index of the partition it
/// descends from in the level the last snapshot walked.
enum Lineage {
    /// No expansion since.
    Unchanged,
    /// One expansion: the current level's own lineage.
    Level,
    /// Several expansions: their lineages composed.
    Composed(Vec<u32>),
}

impl Lineage {
    /// Records one expansion, from the level `left` to `level`.
    fn advance(&mut self, left: &DecompLevel, level: &DecompLevel) {
        let prev = match self {
            Lineage::Unchanged => None,
            Lineage::Level => Some(left.lineage()),
            Lineage::Composed(prev) => Some(&prev[..]),
        };
        *self = match prev {
            None => Lineage::Level,
            Some(prev) => {
                Lineage::Composed(level.lineage().iter().map(|&i| prev[i as usize]).collect())
            }
        };
    }

    /// The lineage map of a region on `level`, or `None` when unchanged.
    fn map<'l>(&'l self, level: &'l DecompLevel) -> Option<&'l [u32]> {
        match self {
            Lineage::Unchanged => None,
            Lineage::Level => Some(level.lineage()),
            Lineage::Composed(map) => Some(map),
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::queries::ThresholdResult;
    use udb_geometry::{Interval, Point, Rect};
    use udb_pdf::Pdf;

    pub(super) fn certain(x: f64) -> UncertainObject {
        UncertainObject::certain(Point::from([x, 0.0]))
    }

    pub(super) fn uniform_seg(lo: f64, hi: f64) -> UncertainObject {
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
