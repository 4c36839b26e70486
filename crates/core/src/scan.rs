//! The scan oracle: reference implementations of the §VI threshold
//! queries by linear scans over a [`Database`]: each candidate gets its
//! own [`Refiner::new`] (scan filter) and [`Refiner::run`] — no index, no
//! shared caches, no cross-candidate early exit.
//!
//! This module is a test and bench oracle, not a serving API — serve
//! queries through [`crate::Engine`]. The equivalence suites check the
//! engine's index-driven, early-exit paths against these functions
//! bit for bit, and the `idca` bench times them as the `*_scan` and
//! `*_full_refinement` baselines.

use udb_geometry::Rect;
use udb_object::{Database, ObjectId, UncertainObject};

use crate::config::{IdcaConfig, ObjRef, Predicate};
use crate::queries::ThresholdResult;
use crate::refiner::{threshold_result, Refiner};

/// Runs a scan-filter refiner of `target` w.r.t. `reference` under
/// `predicate`: the result tagged `id`, or `None` when its probability
/// is certainly zero.
fn refine(
    db: &Database,
    cfg: &IdcaConfig,
    target: ObjRef<'_>,
    reference: ObjRef<'_>,
    id: ObjectId,
    predicate: Predicate,
) -> Option<ThresholdResult> {
    let snap = Refiner::new(db, target, reference, cfg.clone(), predicate).run();
    threshold_result(id, &snap)
}

/// Spatial kNN candidate filter: let `d_k` be the `k`-th smallest
/// MaxDist of any *certainly existing* object to `q`; every object
/// whose MinDist exceeds `d_k` is dominated by at least `k` objects in
/// every world and can be pruned (probability exactly 0). Existentially
/// uncertain objects must not contribute to `d_k` — they are absent in
/// some worlds and therefore guarantee nothing. Ids in ascending order.
pub fn knn_candidates(db: &Database, cfg: &IdcaConfig, q: &Rect, k: usize) -> Vec<ObjectId> {
    let mut max_dists: Vec<f64> = db
        .iter()
        .filter(|(_, o)| o.existence() >= 1.0)
        .map(|(_, o)| o.mbr().max_dist_rect(q, cfg.norm))
        .collect();
    max_dists.sort_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
    // fewer than k certain objects: nothing can be pruned
    let dk = max_dists.get(k - 1).copied().unwrap_or(f64::INFINITY);
    db.iter()
        .filter(|(_, o)| o.mbr().min_dist_rect(q, cfg.norm) <= dk)
        .map(|(id, _)| id)
        .collect()
}

/// Probabilistic threshold kNN (Corollary 4): every candidate of
/// [`knn_candidates`] refined under `P(DomCount < k) > tau`, objects
/// with probability certainly 0 omitted. Ids ascending.
///
/// # Panics
/// Panics if `k == 0` or `tau ∉ [0, 1)`.
pub fn knn_threshold(
    db: &Database,
    cfg: &IdcaConfig,
    q: &UncertainObject,
    k: usize,
    tau: f64,
) -> Vec<ThresholdResult> {
    assert!(k >= 1, "k must be positive");
    assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
    let predicate = Predicate::Threshold { k, tau };
    knn_candidates(db, cfg, q.mbr(), k)
        .into_iter()
        .filter_map(|id| refine(db, cfg, ObjRef::Db(id), ObjRef::External(q), id, predicate))
        .collect()
}

/// Probabilistic threshold reverse kNN (Corollary 5): objects `B` for
/// which `q` is among `B`'s `k` nearest neighbours, i.e.
/// `P(DomCount(q, B) < k)` with `B` as the reference. Objects with `k`
/// certain dominators ([`certain_dominators_of`]) are skipped unrefined.
/// Ids ascending.
///
/// # Panics
/// Panics if `k == 0` or `tau ∉ [0, 1)`.
pub fn rknn_threshold(
    db: &Database,
    cfg: &IdcaConfig,
    q: &UncertainObject,
    k: usize,
    tau: f64,
) -> Vec<ThresholdResult> {
    assert!(k >= 1, "k must be positive");
    assert!((0.0..1.0).contains(&tau), "tau must be in [0, 1)");
    let predicate = Predicate::Threshold { k, tau };
    db.iter()
        .filter(|&(b_id, b_obj)| certain_dominators_of(db, cfg, q, b_obj, b_id, k) < k)
        .filter_map(|(b_id, _)| {
            refine(
                db,
                cfg,
                ObjRef::External(q),
                ObjRef::Db(b_id),
                b_id,
                predicate,
            )
        })
        .collect()
}

/// Top-`m` probable nearest neighbours: every 1NN candidate refined
/// under `P(DomCount = 0)`, then the `m` best by bound midpoint (ties by
/// id, matching [`crate::refine_top_m`]).
///
/// # Panics
/// Panics if `m == 0`.
pub fn top_probable_nn(
    db: &Database,
    cfg: &IdcaConfig,
    q: &UncertainObject,
    m: usize,
) -> Vec<ThresholdResult> {
    assert!(m >= 1, "m must be positive");
    let predicate = Predicate::CountBelow { k: 1 };
    let mut results: Vec<ThresholdResult> = knn_candidates(db, cfg, q.mbr(), 1)
        .into_iter()
        .filter_map(|id| refine(db, cfg, ObjRef::Db(id), ObjRef::External(q), id, predicate))
        .collect();
    results.sort_by(|a, b| {
        (b.prob_lower + b.prob_upper)
            .partial_cmp(&(a.prob_lower + a.prob_upper))
            .expect("NaN probability")
            .then_with(|| a.id.cmp(&b.id))
    });
    results.truncate(m);
    results
}

/// Counts objects (other than `b_id`) that certainly dominate `q` w.r.t.
/// reference `b_obj`, stopping at `cap`. Only certainly existing objects
/// qualify: an object that may be absent dominates in no world where it
/// is missing.
pub fn certain_dominators_of(
    db: &Database,
    cfg: &IdcaConfig,
    q: &UncertainObject,
    b_obj: &UncertainObject,
    b_id: ObjectId,
    cap: usize,
) -> usize {
    db.iter()
        .filter(|&(id, a)| {
            id != b_id
                && a.existence() >= 1.0
                && cfg
                    .criterion
                    .dominates(a.mbr(), q.mbr(), b_obj.mbr(), cfg.norm)
        })
        .take(cap)
        .count()
}
