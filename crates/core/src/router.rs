//! The plane-generic query drivers and the sharded query plane.
//!
//! [`QueryPlane`] is the seam between *what a query does* and *where the
//! objects live*. The provided methods are the complete query pipeline —
//! candidate generation dispatch, the kNN/RkNN/top-`m` refinement
//! drivers, batch fan-out over worker-pool lanes — moved verbatim from
//! the single-engine `EngineRef`, which now implements only the storage
//! primitives (classify, candidate streams, veto probes) the
//! drivers are written against. [`ShardRef`] implements the same
//! primitives over N shard databases/indexes, so the sharded router and
//! the plain engine execute literally the same driver code: their
//! equality is structural, not a convention kept in sync by hand.
//!
//! # Why sharded results are bit-identical
//!
//! Refinement (`crate::refiner`) multiplies UGF factors in sorted-id
//! order, so result bits depend on *which ids* reach refinement and on
//! the objects behind them — never on index shape or candidate
//! discovery order. The sharded primitives preserve exactly those two
//! inputs:
//!
//! * **Ids are order-isomorphic.** [`crate::ShardedEngine`] interleaves
//!   global ids (`global = local · n + shard`, round-robin inserts), so
//!   sorted-global-id order equals the single engine's sorted-id order
//!   for the same arrival sequence.
//! * **Classify outcomes are tree-shape-independent.** The subtree
//!   filter answers per-object questions (`dominates` /
//!   `never_dominates` on the object MBR); running it per shard and
//!   summing the certain-dominator counts / merging the influence ids
//!   yields the single tree's outcome exactly.
//! * **Candidate sets are visit-order-independent.** The kNN pruning
//!   radius converges to the k-th smallest MaxDist over certainly
//!   existing objects — a property of the object set, not of the
//!   best-first stream that discovers it — so merging per-shard
//!   streams under one global `tighten_dk` bound reproduces the exact
//!   candidate set (`tests/sharded_equivalence.rs` proves all of this
//!   bit-for-bit at 1/2/4 shards).
//! * **The RkNN veto exchange only vetoes.** Each shard reports its
//!   capped dominator count inside the probe radius; the router sums
//!   them and vetoes once the sum reaches the cap (`k` for an object,
//!   `k + 1` for an index box). A shard can veto a candidate, never
//!   add one, and `Σ_s min(count_s, c) ≥ c ⇔ Σ_s count_s ≥ c`, so both
//!   vetoes decide exactly as on the single engine. A box veto is exact
//!   on any tree (see [`QueryPlane::rknn_candidates`]), so the
//!   per-shard walks keep exactly the single engine's survivors.

use udb_domination::{DecisionClass, PairClassifier};
use udb_geometry::Rect;
use udb_index::{NodeDecision, RTree};
use udb_object::{Database, ObjectId, UncertainObject};

use std::sync::Arc;

use crate::batch::QueryView;
use crate::config::{IdcaConfig, ObjRef, Predicate};
use crate::decomp::{DecompCache, Entries, SharedDecomp};
use crate::engine::{tighten_dk, ScratchPool, SUBTREE_SCAN_CUTOFF};
use crate::parallel::PoolHandle;
use crate::queries::ThresholdResult;
use crate::refiner::{refine_each, refine_top_m, DbView, RefineStats, Refiner};

/// The storage primitives a query pipeline runs against, plus the
/// pipeline itself as provided methods (see the module docs). `Copy`
/// because tasks fan out over worker-pool lanes by value; `Sync`
/// because those lanes borrow the plane concurrently.
pub(crate) trait QueryPlane<'a>: Copy + Sync {
    /// The engine configuration.
    fn cfg(&self) -> &'a IdcaConfig;

    /// The shared worker-pool handle for query-level fan-out.
    fn pool(&self) -> &'a PoolHandle;

    /// Index-accelerated domination-count refiner: the
    /// complete-domination filter of Algorithm 1 applied through the
    /// plane's index(es), yielding a refiner over the plane's storage.
    /// With the query object's entry `query` (its external side), it
    /// expands database objects through the plane's persistent
    /// decomposition cache: the refiner every pipeline runs. Without,
    /// every region gets a private entry (see [`crate::decomp`]).
    fn refiner(
        &self,
        target: ObjRef<'a>,
        reference: ObjRef<'a>,
        predicate: Predicate,
        query: Option<&SharedDecomp>,
    ) -> Refiner<'a>;

    /// The live object behind an id (global id on a sharded plane).
    ///
    /// # Panics
    /// Panics if `id` is dead or out of range.
    fn object(&self, id: ObjectId) -> &'a UncertainObject;

    /// Index-driven spatial kNN candidate set: all objects not certainly
    /// dominated by at least `k` others w.r.t. `q` under the
    /// MinDist/MaxDist filter. Unsorted (discovery order).
    fn knn_candidates(&self, q: &Rect, k: usize) -> Vec<ObjectId>;

    /// Visits every live object in ascending id order (the standing
    /// RkNN guard's enumeration).
    fn for_each_object(&self, f: impl FnMut(ObjectId, &'a UncertainObject));

    /// Visits every live object outside the index subtrees `veto`
    /// rejects (it is asked about every inner R-tree box), in no
    /// particular order — the RkNN candidate enumeration.
    fn for_each_unvetoed(
        &self,
        veto: impl FnMut(&Rect) -> bool,
        f: impl FnMut(ObjectId, &'a UncertainObject),
    );

    /// Index probe shared by both RkNN vetoes: `true` once at least
    /// `cap` certainly existing objects other than `exclude`, with MBRs
    /// within MinDist `radius` of `region`, pass `dominates`. Only
    /// certainly existing objects count: an object that may be absent
    /// dominates in no world where it is missing.
    fn dominators_reach(
        &self,
        region: &Rect,
        radius: f64,
        exclude: Option<ObjectId>,
        cap: usize,
        dominates: impl Fn(&Rect) -> bool,
    ) -> bool;

    // ------------------------------------------------------------------
    // Provided drivers — the one query pipeline every entry point runs.
    // ------------------------------------------------------------------

    /// The kNN-threshold refinement pipeline: index-driven candidates,
    /// subtree-filtered refiners, and early-exit refinement that
    /// retires each candidate as soon as its `P(DomCount < k) ≷ τ`
    /// outcome is decided. Shared verbatim by
    /// every entry point so the surfaces cannot drift.
    fn knn_threshold_pipeline(
        &self,
        q: &'a UncertainObject,
        k: usize,
        tau: f64,
        candidates: Vec<ObjectId>,
    ) -> Vec<ThresholdResult> {
        let predicate = Predicate::Threshold { k, tau };
        let q_dec = SharedDecomp::new(q.pdf(), self.cfg().split_strategy);
        let refiners = candidates
            .into_iter()
            .map(|id| {
                let refiner =
                    self.refiner(ObjRef::Db(id), ObjRef::External(q), predicate, Some(&q_dec));
                (id, refiner)
            })
            .collect();
        refine_each(refiners)
    }

    /// The per-object RkNN veto: `true` once `k` objects other than `B`
    /// certainly dominate `q` w.r.t. reference `B`, so that
    /// `P(DomCount(q, B) < k)` is certainly 0. Any dominating `A`
    /// satisfies `MinDist(A, B) < MinDist(q, B)` (for every placement
    /// `a`, `b`: `d(a, b) < d(q, b)`), so a probe within that radius
    /// covers every possible dominator; the criterion test is the scan
    /// path's ([`crate::scan::certain_dominators_of`]), so both skip
    /// exactly the same objects.
    fn certain_dominators_reach(
        &self,
        q: &UncertainObject,
        b_obj: &UncertainObject,
        b_id: ObjectId,
        k: usize,
    ) -> bool {
        let cfg = self.cfg();
        let radius = q.mbr().min_dist_rect(b_obj.mbr(), cfg.norm);
        if radius <= 0.0 {
            // overlapping MBRs: in some world q is at distance 0 from B,
            // which no object can strictly beat
            return false;
        }
        let pc = PairClassifier::new(q.mbr(), b_obj.mbr(), cfg.criterion, cfg.norm);
        self.dominators_reach(b_obj.mbr(), radius, Some(b_id), k, |a| {
            matches!(
                pc.classify(a),
                DecisionClass::RobustDominate | DecisionClass::OpenDominate
            )
        })
    }

    /// The node veto: `true` when at least `k + 1` certainly existing
    /// objects *robustly* dominate `q` w.r.t. the whole index box
    /// `node`, so that every object below it fails
    /// [`QueryPlane::certain_dominators_reach`] (see
    /// [`QueryPlane::rknn_candidates`] for why). The probe radius is
    /// `MinDist(q, node)`, by the per-object argument with `node` as the
    /// reference; a box overlapping `q` is never vetoed.
    fn node_vetoed(&self, q: &UncertainObject, node: &Rect, k: usize) -> bool {
        let cfg = self.cfg();
        let radius = q.mbr().min_dist_rect(node, cfg.norm);
        if radius <= 0.0 {
            return false;
        }
        let pc = PairClassifier::new(q.mbr(), node, cfg.criterion, cfg.norm);
        self.dominators_reach(node, radius, None, k.saturating_add(1), |a| {
            pc.classify(a) == DecisionClass::RobustDominate
        })
    }

    /// The RkNN candidate enumeration: the ids, ascending, of every live
    /// object `B` that [`QueryPlane::certain_dominators_reach`] does not
    /// veto — found by walking the index and vetoing whole subtrees
    /// ([`QueryPlane::node_vetoed`]) instead of probing every object.
    ///
    /// # Why the node veto is exact
    ///
    /// The surviving set is exactly the per-object one. Objects in
    /// unvetoed leaves get the per-object test itself. For an object `B`
    /// below a vetoed box `N` (so `B ⊆ N`), take the `k + 1` objects
    /// that robustly dominate `q` w.r.t. `N`:
    ///
    /// * Both decision sums of the criterion are monotone under
    ///   shrinking the reference region, and a *robust* decision clears
    ///   float noise by a margin, so it is stable under that shrinking
    ///   ([`udb_domination::DominationCriterion::classify`]): each of
    ///   them also certainly dominates `q` w.r.t. `B`.
    /// * Each of them is a certain dominator w.r.t. `B`, so it lies
    ///   within the per-object probe radius `MinDist(q, B)`.
    /// * The per-object probe excludes `B` itself, which may be one of
    ///   the `k + 1`; at least `k` others remain.
    ///
    /// So the per-object probe would reach `k` and veto `B` as well.
    /// Survivors are sorted by id, so refiners are built in the same
    /// order as the per-object scan and the answers are bit-identical.
    fn rknn_candidates(&self, q: &UncertainObject, k: usize) -> Vec<ObjectId> {
        let mut survivors = Vec::new();
        self.for_each_unvetoed(
            |node| self.node_vetoed(q, node, k),
            |b_id, b_obj| {
                if !self.certain_dominators_reach(q, b_obj, b_id, k) {
                    survivors.push(b_id);
                }
            },
        );
        survivors.sort_unstable();
        survivors
    }

    /// The RkNN-threshold pipeline (Corollary 5): the index-driven
    /// candidate enumeration ([`QueryPlane::rknn_candidates`]) drops
    /// every object `B` that `k` others certainly dominate `q` w.r.t.,
    /// without building a refiner, and the survivors refine with
    /// early-exit retirement.
    fn rknn_threshold_pipeline(
        &self,
        q: &'a UncertainObject,
        k: usize,
        tau: f64,
    ) -> Vec<ThresholdResult> {
        let predicate = Predicate::Threshold { k, tau };
        let q_dec = SharedDecomp::new(q.pdf(), self.cfg().split_strategy);
        let refiners = self
            .rknn_candidates(q, k)
            .into_iter()
            .map(|b_id| {
                let refiner = self.refiner(
                    ObjRef::External(q),
                    ObjRef::Db(b_id),
                    predicate,
                    Some(&q_dec),
                );
                (b_id, refiner)
            })
            .collect();
        refine_each(refiners)
    }

    /// The top-`m` pipeline: candidates certainly outside the top `m`
    /// retire mid-loop instead of refining to convergence.
    fn top_probable_nn_pipeline(
        &self,
        q: &'a UncertainObject,
        m: usize,
        candidates: Vec<ObjectId>,
    ) -> Vec<ThresholdResult> {
        let predicate = Predicate::CountBelow { k: 1 };
        let q_dec = SharedDecomp::new(q.pdf(), self.cfg().split_strategy);
        let refiners = candidates
            .into_iter()
            .map(|id| {
                let refiner =
                    self.refiner(ObjRef::Db(id), ObjRef::External(q), predicate, Some(&q_dec));
                (id, refiner)
            })
            .collect();
        refine_top_m(refiners, m)
    }

    /// Executes a set of query views through one shared pass: the
    /// plane's decomposition cache and query-level fan-out over
    /// [`crate::IdcaConfig::batch_threads`] worker-pool lanes. Each lane
    /// finds its query's candidates itself (sorted by id; RkNN
    /// enumerates its own). Returns one result vector per query, aligned
    /// with input order; each vector is exactly what the corresponding
    /// per-query entry point returns — bit-identical bounds, iteration
    /// counts and ordering, at every lane count.
    fn run_views(&self, views: &[QueryView<'a>]) -> Vec<Vec<ThresholdResult>> {
        let mut tasks: Vec<(QueryView<'a>, Vec<ThresholdResult>)> =
            views.iter().map(|&query| (query, Vec::new())).collect();
        let lanes = self.cfg().batch_threads;
        self.pool()
            .clone()
            .fan_each(lanes, &mut tasks, |(query, out)| {
                let mut candidates = match *query {
                    QueryView::Knn { q, k, .. } => self.knn_candidates(q.mbr(), k),
                    QueryView::TopM { q, .. } => self.knn_candidates(q.mbr(), 1),
                    QueryView::Rknn { .. } => Vec::new(),
                };
                candidates.sort_unstable();
                *out = self.run_one(*query, candidates);
            });
        tasks.into_iter().map(|(_, out)| out).collect()
    }

    /// Executes one query: the *same* pipeline function the per-query
    /// entry points run.
    fn run_one(&self, query: QueryView<'a>, candidates: Vec<ObjectId>) -> Vec<ThresholdResult> {
        match query {
            QueryView::Knn { q, k, tau } => self.knn_threshold_pipeline(q, k, tau, candidates),
            QueryView::Rknn { q, k, tau } => self.rknn_threshold_pipeline(q, k, tau),
            QueryView::TopM { q, m } => self.top_probable_nn_pipeline(q, m, candidates),
        }
    }
}

/// The borrowed parts the sharded query pipeline runs against: the
/// shard databases and indexes (position = shard tag) plus the
/// *router-owned* config, pool, scratch, stats and decomposition
/// cache — one refinement plane spanning all shards, assembled per call
/// by [`crate::ShardedEngine`].
#[derive(Clone, Copy)]
pub(crate) struct ShardRef<'a> {
    pub(crate) dbs: &'a [&'a Database],
    pub(crate) trees: &'a [&'a RTree<ObjectId>],
    pub(crate) cfg: &'a IdcaConfig,
    pub(crate) pool: &'a PoolHandle,
    pub(crate) scratch: &'a ScratchPool,
    pub(crate) stats: &'a Arc<RefineStats>,
    pub(crate) decomps: &'a Arc<DecompCache>,
}

impl<'a> ShardRef<'a> {
    /// Shard count (≥ 2 — a one-shard engine takes the plain path).
    fn n(&self) -> u32 {
        self.dbs.len() as u32
    }

    /// Global id of shard `s`'s local id (`global = local · n + s`).
    fn global(&self, s: usize, local: ObjectId) -> ObjectId {
        ObjectId(local.0 * self.n() + s as u32)
    }

    /// One shard's complete-domination classify: walks shard `s`'s tree
    /// with the pair filter, returns its certain-dominator count and
    /// appends its influence ids (mapped to global ids, unsorted) to
    /// `influence`. Per-object verdicts are index-shape independent, so
    /// per-shard outcomes merge by summing counts and concatenating ids
    /// — the per-shard unit of [`ShardRef::refiner`].
    fn classify_shard(
        &self,
        s: usize,
        pc: &PairClassifier,
        excluded: &[Option<ObjectId>; 2],
        influence: &mut Vec<ObjectId>,
    ) -> usize {
        let tree = self.trees[s];
        let db = self.dbs[s];
        let mut complete = 0usize;
        self.scratch.with_classify(|scratch| {
            tree.classify_entries_with(scratch, SUBTREE_SCAN_CUTOFF, |mbr| {
                match pc.classify(mbr) {
                    DecisionClass::RobustNever | DecisionClass::OpenNever => NodeDecision::DropAll,
                    DecisionClass::RobustDominate | DecisionClass::OpenDominate => {
                        NodeDecision::TakeAll
                    }
                    DecisionClass::Undecided => NodeDecision::Descend,
                }
            });
            for &local in &scratch.taken {
                let gid = self.global(s, local);
                if excluded.contains(&Some(gid)) {
                    continue;
                }
                if db.get(local).existence() >= 1.0 {
                    complete += 1;
                } else {
                    influence.push(gid);
                }
            }
            influence.extend(
                scratch
                    .undecided
                    .iter()
                    .map(|&local| self.global(s, local))
                    .filter(|gid| !excluded.contains(&Some(*gid))),
            );
        });
        complete
    }
}

impl<'a> QueryPlane<'a> for ShardRef<'a> {
    fn cfg(&self) -> &'a IdcaConfig {
        self.cfg
    }

    fn pool(&self) -> &'a PoolHandle {
        self.pool
    }

    /// The merged complete-domination filter: each shard's index is
    /// classified independently (per-object verdicts are index-shape
    /// independent), certain-dominator counts sum, and influence ids
    /// map to global ids and merge sorted — exactly the single index's
    /// filter outcome over the union.
    fn refiner(
        &self,
        target: ObjRef<'a>,
        reference: ObjRef<'a>,
        predicate: Predicate,
        query: Option<&SharedDecomp>,
    ) -> Refiner<'a> {
        let cfg = self.cfg;
        let view = DbView::Sharded(self.dbs);
        let target_obj = view.resolve(target);
        let reference_obj = view.resolve(reference);
        let excluded = [target.id(), reference.id()];

        let pc = PairClassifier::new(
            target_obj.mbr(),
            reference_obj.mbr(),
            cfg.criterion,
            cfg.norm,
        );
        let mut influence: Vec<ObjectId> = Vec::new();
        let complete: usize = (0..self.trees.len())
            .map(|s| self.classify_shard(s, &pc, &excluded, &mut influence))
            .sum();
        influence.sort_unstable();
        Refiner::from_filter(
            view,
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

    /// Global-id lookup: shard `id mod n`, local slot `id div n`.
    fn object(&self, id: ObjectId) -> &'a UncertainObject {
        let n = self.n();
        self.dbs[(id.0 % n) as usize].get(ObjectId(id.0 / n))
    }

    /// The k-way candidate merge under **one** global pruning bound:
    /// the head with the smallest MinDist is consumed next (ties break
    /// to the lowest shard), every certainly existing object tightens
    /// the same `d_k` the single-engine stream maintains, and the merge
    /// stops when the smallest head exceeds `d_k`, so far shards stop
    /// contributing as soon as a near shard has pinned the radius.
    fn knn_candidates(&self, q: &Rect, k: usize) -> Vec<ObjectId> {
        assert!(k >= 1);
        let norm = self.cfg.norm;
        let mut streams: Vec<_> = self
            .trees
            .iter()
            .map(|tree| tree.knn_iter(q, norm).peekable())
            .collect();
        let mut seen: Vec<(ObjectId, f64)> = Vec::new(); // (gid, min_dist)
        let mut kth_max = f64::INFINITY;
        let mut k_smallest: Vec<f64> = Vec::new();
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (s, stream) in streams.iter_mut().enumerate() {
                if let Some(n) = stream.peek() {
                    if best.is_none_or(|(_, d)| n.dist < d) {
                        best = Some((s, n.dist));
                    }
                }
            }
            let Some((s, dist)) = best else {
                break; // every shard stream is exhausted
            };
            if dist > kth_max {
                break; // every further object has MinDist > d_k
            }
            let n = streams[s].next().expect("peeked head");
            let gid = self.global(s, n.payload);
            let obj = self.dbs[s].get(n.payload);
            seen.push((gid, n.dist));
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

    /// Ascending *global* id order — which is ascending arrival order,
    /// matching the single engine's ascending-id scan of the union.
    fn for_each_object(&self, mut f: impl FnMut(ObjectId, &'a UncertainObject)) {
        let mut ids: Vec<ObjectId> = Vec::new();
        for (s, db) in self.dbs.iter().enumerate() {
            ids.extend(db.ids().map(|local| self.global(s, local)));
        }
        ids.sort_unstable();
        let n = self.n();
        for gid in ids {
            let obj = self.dbs[(gid.0 % n) as usize].get(ObjectId(gid.0 / n));
            f(gid, obj);
        }
    }

    /// Each shard's tree in turn, under the same veto; ids are global.
    /// A veto on one shard's box counts dominators on every shard (see
    /// [`ShardRef::dominators_reach`]); like any box veto it drops only
    /// objects the per-object veto drops, so the survivors equal the
    /// single engine's.
    fn for_each_unvetoed(
        &self,
        mut veto: impl FnMut(&Rect) -> bool,
        mut f: impl FnMut(ObjectId, &'a UncertainObject),
    ) {
        for (s, (tree, &db)) in self.trees.iter().zip(self.dbs).enumerate() {
            tree.for_each_unpruned(&mut veto, &mut |&local| {
                f(self.global(s, local), db.get(local));
            });
        }
    }

    /// The cross-shard veto exchange: the shards probe in order, adding
    /// their dominators inside the probe radius to one running count,
    /// and the veto holds once it reaches `cap`; a probe stops there,
    /// like the single-engine one. Stopping early is lossless for the
    /// decision: `Σ min(count_s, cap) ≥ cap ⇔ Σ count_s ≥ cap`.
    fn dominators_reach(
        &self,
        region: &Rect,
        radius: f64,
        exclude: Option<ObjectId>,
        cap: usize,
        dominates: impl Fn(&Rect) -> bool,
    ) -> bool {
        let mut count = 0usize;
        for (s, (tree, &db)) in self.trees.iter().zip(self.dbs).enumerate() {
            if count >= cap {
                break; // the summed reports already veto
            }
            tree.for_each_within_distance(region, radius, self.cfg.norm, &mut |&local| {
                let a = db.get(local);
                if Some(self.global(s, local)) != exclude
                    && a.existence() >= 1.0
                    && dominates(a.mbr())
                {
                    count += 1;
                }
                count < cap
            });
        }
        count >= cap
    }
}
