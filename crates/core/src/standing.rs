//! Standing queries: a subscription registry plus an incremental
//! maintainer that turns the request/response engine into a monitoring
//! system (the paper's continuous sensor/facility scenarios).
//!
//! A [`StandingQuery`] holds a registered kNN / RkNN / top-`m` query,
//! its current result set, and the *decided geometric bounds* the
//! refinement left behind — the kNN pruning radius `d_k`, the
//! per-candidate MaxDist margins, the per-object RkNN reach. On every
//! mutation the registry intersects the mutation's MBR(s) against those
//! bounds and proves, per subscription, one of three tiers:
//!
//! 1. **Skip** — the mutation lies beyond every registered bound; the
//!    stored results are provably unchanged and nothing runs.
//! 2. **Partial** — the candidate set is provably stable but some
//!    candidates' domination counts may have shifted; exactly those
//!    candidates re-refine through the *same* pipeline functions the
//!    full query runs, and the fresh bounds merge into the stored set.
//! 3. **Re-answer** — no bound proves stability (the conservative
//!    fallback): the query re-runs from scratch and the guards rebuild.
//!
//! Every tier decision is *purely geometric* (MinDist/MaxDist against
//! stored bounds), so the decisions — and therefore the maintained
//! result bits — are identical at every shard count, thread count and
//! cache state. Maintained results are bit-identical to re-answering
//! after every mutation (`tests/standing_equivalence.rs` proves it
//! property-style at 1/2/4 shards).
//!
//! # Why the guards are sound
//!
//! Refinement of a candidate pair `(B, R)` classifies every third
//! object `M` with the pair criterion: `M` is dropped outright when
//! `MinDist(M, R) > MaxDist(B, R)` (it can never dominate `B` w.r.t.
//! `R`, in any world). A mutation strictly beyond that reach therefore
//! leaves the pair's complete-domination count *and* influence set —
//! the refiner's entire input — unchanged, so its result bits cannot
//! move. For kNN/top-`m` the candidate *set* is
//! `{X : MinDist(X, q) ≤ d_k}` with `d_k` the k-th smallest MaxDist
//! over certainly existing objects: a mutation with `MinDist > d_k`
//! is outside the set before and after, and — since its MaxDist is at
//! least its MinDist — can neither pin nor unpin `d_k`. RkNN evaluates
//! one pair `(q, b)` per live object `b`, and its index veto probe only
//! inspects objects within `MinDist(q, b) ≤ MaxDist(q, b)` of `b`, so
//! the single per-object test `MinDist(M, b) ≤ MaxDist(q, b)` covers
//! both the probe and the refinement. (The one-shot query skips whole
//! index subtrees with a node veto, but that veto is exact: it keeps
//! exactly the objects the per-object probe keeps, so the argument is
//! about the per-object probe alone.) Updates test old *and* new MBRs.

use udb_geometry::Rect;
use udb_object::{ObjectId, UncertainObject};

use crate::batch::QueryView;
use crate::config::{ObjRef, Predicate};
use crate::decomp::SharedDecomp;
use crate::engine::tighten_dk;
use crate::queries::ThresholdResult;
use crate::refiner::{refine_each, threshold_result};
use crate::router::QueryPlane;

/// What a standing query watches: the same parameter shapes as the
/// one-shot entry points ([`crate::Engine::knn_threshold`] /
/// `rknn_threshold` / `top_probable_nn`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StandingSpec {
    /// Probabilistic threshold kNN: `P(DomCount < k) > τ`.
    Knn { k: usize, tau: f64 },
    /// Probabilistic threshold reverse kNN.
    Rknn { k: usize, tau: f64 },
    /// Top-`m` probable nearest neighbours.
    TopM { m: usize },
}

/// Parameter validation shared by every subscribe entry point —
/// identical rules to the one-shot query entry points.
///
/// # Panics
/// Panics when `k`/`m` is zero or `tau` is outside `[0, 1)`.
pub(crate) fn validate_spec(spec: &StandingSpec) {
    match *spec {
        StandingSpec::Knn { k, tau } | StandingSpec::Rknn { k, tau } => {
            assert!(k >= 1, "k must be positive");
            assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
        }
        StandingSpec::TopM { m } => assert!(m >= 1, "m must be positive"),
    }
}

/// One result-set change pushed by the maintainer after a mutation
/// flipped a subscription: entries that appeared, ids that vanished,
/// and entries whose bounds moved. Empty diffs are never emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultDelta {
    /// The subscription this delta belongs to.
    pub sub: u64,
    /// Results present now that were absent before (sorted by id).
    pub added: Vec<ThresholdResult>,
    /// Ids present before that are absent now (sorted).
    pub removed: Vec<ObjectId>,
    /// Results present in both whose bounds/iterations changed.
    pub changed: Vec<ThresholdResult>,
}

impl ResultDelta {
    fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.changed.is_empty()
    }
}

/// Maintenance-effectiveness counters (the `STATS` reply's standing
/// section): how often a mutation was absorbed cheaply (skip or partial
/// re-refinement) vs. falling back to a full re-answer, and how many
/// deltas were pushed. Counted per `(mutation, subscription)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandingStats {
    /// Currently registered subscriptions.
    pub registered: usize,
    /// Mutations absorbed by a skip or partial re-refinement.
    pub maintained: u64,
    /// Mutations that fell back to a full re-answer.
    pub reanswered: u64,
    /// Non-empty result deltas queued for push.
    pub deltas: u64,
}

/// One applied mutation, described for the guard tests: the mutated
/// global id plus the MBR(s) involved — old for removals, new for
/// inserts, both for updates.
#[derive(Debug, Clone)]
pub(crate) struct Mutation {
    pub(crate) id: ObjectId,
    pub(crate) old: Option<Rect>,
    pub(crate) new: Option<Rect>,
}

impl Mutation {
    /// Smallest MinDist from any involved MBR to `r` — the distance the
    /// guard tiers compare against the stored bounds.
    fn min_dist_to(&self, r: &Rect, norm: udb_geometry::LpNorm) -> f64 {
        let mut d = f64::INFINITY;
        if let Some(old) = &self.old {
            d = d.min(old.min_dist_rect(r, norm));
        }
        if let Some(new) = &self.new {
            d = d.min(new.min_dist_rect(r, norm));
        }
        d
    }
}

/// Per-candidate guard of a kNN subscription: the candidate id and its
/// MaxDist to the query MBR (the pair's classification reach).
#[derive(Debug, Clone)]
struct CandGuard {
    id: ObjectId,
    max_d: f64,
}

/// The stored guard state of a kNN subscription.
#[derive(Debug, Clone, Default)]
struct KnnGuard {
    /// The exact candidate set of the last (re-)answer, sorted by id.
    cands: Vec<CandGuard>,
    /// The pruning radius: k-th smallest MaxDist over certainly
    /// existing candidates (`∞` with fewer than `k` certain objects —
    /// every mutation then re-answers).
    d_k: f64,
    /// The largest per-candidate MaxDist: mutations strictly beyond it
    /// touch no candidate pair and skip outright.
    rho: f64,
}

/// The stored guard state of a top-`m` subscription: the `k = 1`
/// candidate walk's bounds. Top-`m` refinement retires candidates
/// *cross-candidate* (a rival's lower bound can freeze an also-ran
/// early), so there is no sound per-candidate tier — maintenance is
/// skip or full re-answer.
#[derive(Debug, Clone, Default)]
struct TopMGuard {
    d_1: f64,
    rho: f64,
}

/// Per-live-object guard of an RkNN subscription: the object's MaxDist
/// reach from the query and its current (possibly vetoed/zero) result.
#[derive(Debug, Clone)]
struct RknnEntry {
    id: ObjectId,
    /// `MaxDist(q, b)` — both the veto probe radius bound and the pair
    /// `(q, b)`'s classification reach.
    max_qb: f64,
    /// The object's refined result; `None` when the index probe vetoed
    /// it or refinement proved `P = 0`.
    result: Option<ThresholdResult>,
}

#[derive(Debug, Clone)]
enum Guard {
    Knn(KnnGuard),
    TopM(TopMGuard),
    Rknn(Vec<RknnEntry>),
}

/// A registered standing query: id, spec, owned query object, current
/// result set (always sorted by id, always bit-identical to what the
/// one-shot entry point would return right now) and the decided bounds
/// the maintainer tests mutations against.
#[derive(Debug)]
pub struct StandingQuery {
    id: u64,
    q: UncertainObject,
    spec: StandingSpec,
    results: Vec<ThresholdResult>,
    guard: Guard,
}

impl StandingQuery {
    /// The subscription id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// What this subscription watches.
    pub fn spec(&self) -> StandingSpec {
        self.spec
    }

    /// The query object.
    pub fn query(&self) -> &UncertainObject {
        &self.q
    }

    /// The maintained result set (sorted by id).
    pub fn results(&self) -> &[ThresholdResult] {
        &self.results
    }
}

/// The subscription registry an engine carries: registered standing
/// queries, queued result deltas, and the maintenance counters.
/// Registrations are in-memory only — they do not survive a durable
/// engine's restart (re-subscribe after reopening).
#[derive(Debug, Default)]
pub struct StandingRegistry {
    subs: Vec<StandingQuery>,
    next_id: u64,
    deltas: Vec<ResultDelta>,
    maintained: u64,
    reanswered: u64,
    pushed: u64,
}

impl StandingRegistry {
    /// Whether no subscription is registered (the mutation fast path).
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Registered subscription count.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// The registered subscriptions, in registration order.
    pub fn subscriptions(&self) -> &[StandingQuery] {
        &self.subs
    }

    /// Drops a subscription; `false` when the id is unknown.
    pub fn unsubscribe(&mut self, id: u64) -> bool {
        let before = self.subs.len();
        self.subs.retain(|s| s.id != id);
        self.subs.len() != before
    }

    /// Drains the queued result deltas (in mutation, then registration
    /// order).
    pub fn take_deltas(&mut self) -> Vec<ResultDelta> {
        std::mem::take(&mut self.deltas)
    }

    /// How many result deltas are queued: an insert run marks each
    /// insert's end in the queue with it.
    pub(crate) fn queued_deltas(&self) -> usize {
        self.deltas.len()
    }

    /// Drains the queued result deltas split at the queue marks `ends`
    /// (ascending, the last one the queue length): part `i` holds the
    /// deltas queued after mark `i - 1` up to mark `i`.
    pub(crate) fn take_deltas_split(&mut self, ends: &[usize]) -> Vec<Vec<ResultDelta>> {
        debug_assert_eq!(ends.last().copied().unwrap_or(0), self.deltas.len());
        let mut all = std::mem::take(&mut self.deltas).into_iter();
        let mut start = 0;
        ends.iter()
            .map(|&end| {
                let part = all.by_ref().take(end - start).collect();
                start = end;
                part
            })
            .collect()
    }

    /// The maintenance counters.
    pub fn stats(&self) -> StandingStats {
        StandingStats {
            registered: self.subs.len(),
            maintained: self.maintained,
            reanswered: self.reanswered,
            deltas: self.pushed,
        }
    }
}

/// Registers a standing query against `plane`, answering it once to
/// seed the result set and capture the guards. Returns the fresh
/// subscription id and (a copy of) the initial results.
pub(crate) fn subscribe_registry<'a, P: QueryPlane<'a>>(
    reg: &'a mut StandingRegistry,
    plane: P,
    q: UncertainObject,
    spec: StandingSpec,
) -> (u64, Vec<ThresholdResult>) {
    reg.next_id += 1;
    let id = reg.next_id;
    reg.subs.push(StandingQuery {
        id,
        q,
        spec,
        results: Vec::new(),
        guard: Guard::TopM(TopMGuard::default()),
    });
    let sub = reg.subs.last_mut().expect("just pushed");
    let StandingQuery {
        q, results, guard, ..
    } = sub;
    rebuild(plane, q, spec, results, guard);
    (id, results.clone())
}

/// The maintenance pass: tests the applied mutation against every
/// subscription's guards, re-refines or re-answers what cannot be
/// proven stable, and queues one [`ResultDelta`] per subscription whose
/// result set actually changed.
pub(crate) fn maintain_registry<'a, P: QueryPlane<'a>>(
    reg: &'a mut StandingRegistry,
    plane: P,
    mutation: &Mutation,
) {
    let StandingRegistry {
        subs,
        deltas,
        maintained,
        reanswered,
        pushed,
        ..
    } = reg;
    for sub in subs {
        let StandingQuery {
            id,
            q,
            spec,
            results,
            guard,
        } = sub;
        let spec = *spec;
        let before = results.clone();
        let cheap = match guard {
            Guard::Knn(g) => maintain_knn(plane, q, spec, mutation, results, g),
            Guard::TopM(g) => {
                let stable =
                    g.d_1.is_finite() && mutation.min_dist_to(q.mbr(), plane.cfg().norm) > g.rho;
                if !stable {
                    rebuild(plane, q, spec, results, guard);
                }
                stable
            }
            Guard::Rknn(entries) => match maintain_rknn(plane, q, spec, mutation, entries) {
                Some(fresh) => {
                    *results = fresh;
                    true
                }
                None => {
                    rebuild(plane, q, spec, results, guard);
                    false
                }
            },
        };
        if cheap {
            *maintained += 1;
        } else {
            *reanswered += 1;
        }
        if let Some(delta) = diff_results(*id, &before, results) {
            *pushed += 1;
            deltas.push(delta);
        }
    }
}

/// Answers `spec` from scratch through the exact one-shot pipeline
/// (candidate walk + `run_one`) and rebuilds the guards — the
/// subscription seed and the conservative fallback.
fn rebuild<'a, P: QueryPlane<'a>>(
    plane: P,
    q: &'a UncertainObject,
    spec: StandingSpec,
    results: &mut Vec<ThresholdResult>,
    guard: &mut Guard,
) {
    let norm = plane.cfg().norm;
    match spec {
        StandingSpec::Knn { k, tau } => {
            let mut cand_ids = plane.knn_candidates(q.mbr(), k);
            cand_ids.sort_unstable();
            *results = plane.run_one(QueryView::Knn { q, k, tau }, cand_ids.clone());
            *guard = Guard::Knn(knn_guard(plane, q, k, &cand_ids, norm));
        }
        StandingSpec::TopM { m } => {
            let mut cand_ids = plane.knn_candidates(q.mbr(), 1);
            cand_ids.sort_unstable();
            *results = plane.run_one(QueryView::TopM { q, m }, cand_ids.clone());
            let g = knn_guard(plane, q, 1, &cand_ids, norm);
            *guard = Guard::TopM(TopMGuard {
                d_1: g.d_k,
                rho: g.rho,
            });
        }
        StandingSpec::Rknn { k, tau } => {
            *results = plane.run_one(QueryView::Rknn { q, k, tau }, Vec::new());
            let mut entries: Vec<RknnEntry> = Vec::new();
            let mut hits = results.iter().peekable();
            plane.for_each_object(|b_id, b_obj| {
                let result = match hits.peek() {
                    Some(r) if r.id == b_id => hits.next().cloned(),
                    _ => None,
                };
                entries.push(RknnEntry {
                    id: b_id,
                    max_qb: q.mbr().max_dist_rect(b_obj.mbr(), norm),
                    result,
                });
            });
            *guard = Guard::Rknn(entries);
        }
    }
}

/// Computes the kNN guard bounds from a sorted candidate set: per-pair
/// MaxDist margins, the pruning radius `d_k` (k-th smallest MaxDist
/// over certainly existing candidates — equal to the walk's global
/// bound, because the `k` objects pinning it are themselves
/// candidates), and the outer reach `rho`.
fn knn_guard<'a, P: QueryPlane<'a>>(
    plane: P,
    q: &UncertainObject,
    k: usize,
    cand_ids: &[ObjectId],
    norm: udb_geometry::LpNorm,
) -> KnnGuard {
    let mut cands = Vec::with_capacity(cand_ids.len());
    let mut k_smallest: Vec<f64> = Vec::new();
    let mut d_k = f64::INFINITY;
    let mut rho = f64::NEG_INFINITY;
    for &id in cand_ids {
        let obj = plane.object(id);
        let max_d = obj.mbr().max_dist_rect(q.mbr(), norm);
        rho = rho.max(max_d);
        if obj.existence() >= 1.0 {
            if let Some(kth) = tighten_dk(&mut k_smallest, k, max_d) {
                d_k = kth;
            }
        }
        cands.push(CandGuard { id, max_d });
    }
    KnnGuard { cands, d_k, rho }
}

/// The kNN three-tier maintenance. Returns `true` when the mutation was
/// absorbed without a full re-answer (skip or partial); on `false` the
/// caller must fall back to [`rebuild`]. `results` and the guard stay
/// exact either way.
fn maintain_knn<'a, P: QueryPlane<'a>>(
    plane: P,
    q: &'a UncertainObject,
    spec: StandingSpec,
    mutation: &Mutation,
    results: &mut Vec<ThresholdResult>,
    g: &mut KnnGuard,
) -> bool {
    let StandingSpec::Knn { k, tau } = spec else {
        unreachable!("kNN guard carries a kNN spec");
    };
    let norm = plane.cfg().norm;
    let min_d = mutation.min_dist_to(q.mbr(), norm);
    if !g.d_k.is_finite() || min_d <= g.d_k {
        // the candidate set itself may change (or was never pinned):
        // no bound proves stability — conservative fallback
        let mut cand_ids = plane.knn_candidates(q.mbr(), k);
        cand_ids.sort_unstable();
        *results = plane.run_one(QueryView::Knn { q, k, tau }, cand_ids.clone());
        *g = knn_guard(plane, q, k, &cand_ids, norm);
        return false;
    }
    if min_d > g.rho {
        return true; // beyond every pair's reach: provably unchanged
    }
    // candidate set stable; exactly the pairs whose reach the mutation
    // entered re-refine. Past half the candidates a full pipeline run
    // is cheaper — the cutoff is geometric, so the tier choice is
    // deterministic everywhere, and both tiers produce bit-identical
    // results.
    let affected: Vec<ObjectId> = g
        .cands
        .iter()
        .filter(|c| min_d <= c.max_d)
        .map(|c| c.id)
        .collect();
    if affected.len() * 2 > g.cands.len() {
        let cand_ids: Vec<ObjectId> = g.cands.iter().map(|c| c.id).collect();
        *results = plane.run_one(QueryView::Knn { q, k, tau }, cand_ids);
        return false;
    }
    let predicate = Predicate::Threshold { k, tau };
    let q_dec = SharedDecomp::new(q.pdf(), plane.cfg().split_strategy);
    let refiners = affected
        .iter()
        .map(|&id| {
            let refiner =
                plane.refiner(ObjRef::Db(id), ObjRef::External(q), predicate, Some(&q_dec));
            (id, refiner)
        })
        .collect();
    let fresh = refine_each(refiners);
    merge_results(results, &affected, fresh);
    true
}

/// The RkNN per-entry maintenance. Returns the reassembled result set
/// on success, `None` when the fallback should rebuild instead.
fn maintain_rknn<'a, P: QueryPlane<'a>>(
    plane: P,
    q: &'a UncertainObject,
    spec: StandingSpec,
    mutation: &Mutation,
    entries: &mut Vec<RknnEntry>,
) -> Option<Vec<ThresholdResult>> {
    let StandingSpec::Rknn { k, tau } = spec else {
        unreachable!("RkNN guard carries an RkNN spec");
    };
    let norm = plane.cfg().norm;
    // the mutated object's own entry: removals drop it, inserts add a
    // fresh one, updates re-evaluate it unconditionally (its own reach
    // `MaxDist(q, b)` changed, which no stored bound can vouch for)
    if mutation.new.is_none() {
        entries.retain(|e| e.id != mutation.id);
    }
    let mut affected: Vec<ObjectId> = Vec::new();
    if mutation.new.is_some() {
        affected.push(mutation.id); // insert or update: (re-)evaluate
    }
    for e in entries.iter() {
        if e.id == mutation.id {
            continue;
        }
        let b_mbr = plane.object(e.id).mbr();
        if mutation.min_dist_to(b_mbr, norm) <= e.max_qb {
            affected.push(e.id);
        }
    }
    if affected.len() * 2 > entries.len().max(1) {
        return None; // rebuild runs the whole pipeline once instead
    }
    let predicate = Predicate::Threshold { k, tau };
    let q_dec = SharedDecomp::new(q.pdf(), plane.cfg().split_strategy);
    for &b_id in &affected {
        let b_obj = plane.object(b_id);
        let max_qb = q.mbr().max_dist_rect(b_obj.mbr(), norm);
        let result = if plane.certain_dominators_reach(q, b_obj, b_id, k) {
            None // vetoed: P(DomCount < k) is certainly 0
        } else {
            let mut refiner = plane.refiner(
                ObjRef::External(q),
                ObjRef::Db(b_id),
                predicate,
                Some(&q_dec),
            );
            threshold_result(b_id, &refiner.run())
        };
        let entry = RknnEntry {
            id: b_id,
            max_qb,
            result,
        };
        match entries.binary_search_by_key(&b_id, |e| e.id) {
            Ok(i) => entries[i] = entry,
            Err(i) => entries.insert(i, entry),
        }
    }
    Some(entries.iter().filter_map(|e| e.result.clone()).collect())
}

/// Replaces the `refreshed` ids' results with `fresh` (candidates whose
/// probability collapsed to certainly-zero simply vanish), keeping the
/// set sorted by id.
fn merge_results(
    results: &mut Vec<ThresholdResult>,
    refreshed: &[ObjectId],
    fresh: Vec<ThresholdResult>,
) {
    results.retain(|r| !refreshed.contains(&r.id));
    results.extend(fresh);
    results.sort_by_key(|r| r.id);
}

/// Bit-exact diff of two result sets, matched by id; `None` when
/// nothing moved. The delta is **set-based**: it carries membership and
/// bounds, not positions — top-`m` result sets are rank-ordered, and a
/// changed bound can reorder survivors without changing the set. The
/// sections themselves list ids ascending (the inputs are id-sorted
/// here before the merge walk), so a delta formats deterministically.
fn diff_results(sub: u64, old: &[ThresholdResult], new: &[ThresholdResult]) -> Option<ResultDelta> {
    let same = |a: &ThresholdResult, b: &ThresholdResult| {
        a.prob_lower.to_bits() == b.prob_lower.to_bits()
            && a.prob_upper.to_bits() == b.prob_upper.to_bits()
            && a.iterations == b.iterations
    };
    let by_id = |set: &[ThresholdResult]| {
        let mut sorted = set.to_vec();
        sorted.sort_by_key(|r| r.id);
        sorted
    };
    let (old, new) = (by_id(old), by_id(new));
    let mut delta = ResultDelta {
        sub,
        added: Vec::new(),
        removed: Vec::new(),
        changed: Vec::new(),
    };
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(o), Some(n)) if o.id == n.id => {
                if !same(o, n) {
                    delta.changed.push(n.clone());
                }
                i += 1;
                j += 1;
            }
            (Some(o), Some(n)) if o.id < n.id => {
                delta.removed.push(o.id);
                i += 1;
            }
            (Some(_), Some(n)) => {
                delta.added.push(n.clone());
                j += 1;
            }
            (Some(o), None) => {
                delta.removed.push(o.id);
                i += 1;
            }
            (None, Some(n)) => {
                delta.added.push(n.clone());
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    (!delta.is_empty()).then_some(delta)
}
