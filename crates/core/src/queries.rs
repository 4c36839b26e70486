//! Probabilistic similarity queries on top of the domination count
//! (§VI): the query result types and the ranking queries of
//! [`Engine`]. The threshold queries live with the batch pipeline in
//! [`crate::engine`].

use udb_genfunc::CountDistributionBounds;
use udb_object::{ObjectId, UncertainObject};

use crate::config::{ObjRef, Predicate};
use crate::engine::Engine;
use crate::refiner::DomCountSnapshot;

/// Per-object outcome of a threshold query.
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdResult {
    /// The candidate object.
    pub id: ObjectId,
    /// Final lower bound on the predicate probability
    /// `P(DomCount < k)`.
    pub prob_lower: f64,
    /// Final upper bound.
    pub prob_upper: f64,
    /// Refinement iterations spent on this candidate.
    pub iterations: usize,
}

impl ThresholdResult {
    /// Certainly satisfies `P > τ`.
    pub fn is_hit(&self, tau: f64) -> bool {
        self.prob_lower > tau
    }

    /// Certainly fails `P > τ`.
    pub fn is_drop(&self, tau: f64) -> bool {
        self.prob_upper <= tau
    }

    /// Bounds did not separate from `τ` within the iteration budget; the
    /// bounds themselves are the user's confidence statement (§V).
    pub fn is_undecided(&self, tau: f64) -> bool {
        !self.is_hit(tau) && !self.is_drop(tau)
    }
}

/// The probabilistic rank distribution of an object (Corollary 3):
/// `P(Rank = i) = P(DomCount = i − 1)`.
#[derive(Debug, Clone)]
pub struct RankDistribution {
    /// Bounds on the underlying domination count.
    pub counts: CountDistributionBounds,
    /// The refinement snapshot the distribution came from.
    pub snapshot: DomCountSnapshot,
}

impl RankDistribution {
    /// Bounds on `P(Rank = rank)` (1-based).
    pub fn rank_bounds(&self, rank: usize) -> (f64, f64) {
        assert!(rank >= 1, "ranks are 1-based");
        (self.counts.lower(rank - 1), self.counts.upper(rank - 1))
    }

    /// Bounds on `P(Rank <= rank)`.
    pub fn rank_cdf_bounds(&self, rank: usize) -> (f64, f64) {
        self.counts.cdf_bounds(rank)
    }

    /// Bounds on the expected rank (Corollary 6).
    pub fn expected_rank_bounds(&self) -> (f64, f64) {
        self.counts.expected_rank_bounds()
    }
}

/// One entry of an expected-rank ranking (Corollary 6).
#[derive(Debug, Clone)]
pub struct ExpectedRankEntry {
    /// The ranked object.
    pub id: ObjectId,
    /// Lower bound on `E[Rank]`.
    pub lower: f64,
    /// Upper bound on `E[Rank]`.
    pub upper: f64,
}

/// The ranking queries of §VI, each built on the domination count of
/// [`Engine::refiner`] (index-backed filter, full-PDF refinement).
impl Engine {
    /// Fully refines the domination count of `target` w.r.t. `reference`.
    pub fn domination_count(&self, target: ObjRef<'_>, reference: ObjRef<'_>) -> DomCountSnapshot {
        self.refiner(target, reference, Predicate::FullPdf).run()
    }

    /// Probabilistic inverse ranking (Corollary 3, ref.\[21\]): the rank
    /// distribution of `target` among the database objects w.r.t.
    /// similarity to `reference`.
    pub fn inverse_ranking(&self, target: ObjRef<'_>, reference: ObjRef<'_>) -> RankDistribution {
        let snapshot = self.domination_count(target, reference);
        RankDistribution {
            counts: snapshot.bounds.clone(),
            snapshot,
        }
    }

    /// Ranks all database objects by their expected rank w.r.t. `q`
    /// (Corollary 6), ascending by the bound midpoint.
    pub fn expected_rank_ranking(&self, q: &UncertainObject) -> Vec<ExpectedRankEntry> {
        let mut out: Vec<ExpectedRankEntry> = self
            .db()
            .ids()
            .map(|id| {
                let snap = self.domination_count(ObjRef::Db(id), ObjRef::External(q));
                let (lower, upper) = snap.bounds.expected_rank_bounds();
                ExpectedRankEntry { id, lower, upper }
            })
            .collect();
        out.sort_by(|a, b| {
            (a.lower + a.upper)
                .partial_cmp(&(b.lower + b.upper))
                .expect("NaN rank")
        });
        out
    }

    /// The *expected-distance* ranking baseline (Ljosa & Singh, ref.\[22\]):
    /// objects ordered by `E[dist(o, q)]` between expected positions. The
    /// paper cites refs.\[19\]/\[25\] to argue this "does not adhere to the
    /// possible world semantics and may produce very inaccurate results";
    /// it is provided so the inaccuracy can be demonstrated against
    /// [`Engine::expected_rank_ranking`].
    pub fn expected_distance_ranking(&self, q: &UncertainObject) -> Vec<(ObjectId, f64)> {
        let q_mean = q.mean();
        let norm = self.config().norm;
        let mut out: Vec<(ObjectId, f64)> = self
            .db()
            .iter()
            .map(|(id, o)| (id, norm.dist(&o.mean(), &q_mean)))
            .collect();
        out.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN distance"));
        out
    }

    /// Probabilistic similarity ranking (§VI, following refs.\[4\], \[14\], \[19\],
    /// \[25\]): the rank distribution of *every* database object w.r.t.
    /// `q`, in id order. The full answer to a probabilistic ranking query;
    /// `O(N)` refinements, so prefer the threshold queries when a
    /// predicate is available.
    pub fn ranking_distributions(&self, q: &UncertainObject) -> Vec<RankDistribution> {
        self.db()
            .ids()
            .map(|id| self.inverse_ranking(ObjRef::Db(id), ObjRef::External(q)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IdcaConfig;
    use udb_geometry::{Interval, LpNorm, Point, Rect};
    use udb_object::Database;
    use udb_pdf::{MixturePdf, Pdf};

    fn certain(x: f64, y: f64) -> UncertainObject {
        UncertainObject::certain(Point::from([x, y]))
    }

    fn uniform_box(cx: f64, cy: f64, half: f64) -> UncertainObject {
        UncertainObject::new(Pdf::uniform(Rect::new(vec![
            Interval::new(cx - half, cx + half),
            Interval::new(cy - half, cy + half),
        ])))
    }

    /// A 1-D uniform segment embedded in 2-D (degenerate y), so distances
    /// reduce to |x| and hand-computed ground truths apply.
    fn uniform_seg(cx: f64, half: f64) -> UncertainObject {
        UncertainObject::new(Pdf::uniform(Rect::new(vec![
            Interval::new(cx - half, cx + half),
            Interval::point(0.0),
        ])))
    }

    /// Certain points on a line at x = 1..=5.
    fn line_db() -> Database {
        Database::from_objects((1..=5).map(|i| certain(i as f64, 0.0)).collect())
    }

    #[test]
    fn knn_threshold_on_certain_data_is_exact_knn() {
        let engine = Engine::new(line_db());
        let q = certain(0.0, 0.0);
        let res = engine.knn_threshold(&q, 2, 0.5);
        let hits: Vec<ObjectId> = res.iter().filter(|r| r.is_hit(0.5)).map(|r| r.id).collect();
        assert_eq!(hits, vec![ObjectId(0), ObjectId(1)]);
        // everything else was pruned or dropped
        for r in &res {
            if !hits.contains(&r.id) {
                assert!(r.is_drop(0.5), "{r:?}");
            }
        }
    }

    #[test]
    fn knn_threshold_uncertain_boundary_object() {
        // objects at x = 1 (certain) and an uncertain object spanning
        // [1.5, 3.5]; query at 0; the certain x=2.5 object competes with
        // the uncertain one for the 2nd spot
        let db = Database::from_objects(vec![
            certain(1.0, 0.0),
            uniform_box(2.5, 0.0, 1.0),
            certain(2.5, 0.0),
        ]);
        let engine = Engine::new(db);
        let q = certain(0.0, 0.0);
        let res = engine.knn_threshold(&q, 1, 0.5);
        // only the x=1 object is certainly the 1NN
        let hit_ids: Vec<ObjectId> = res.iter().filter(|r| r.is_hit(0.5)).map(|r| r.id).collect();
        assert_eq!(hit_ids, vec![ObjectId(0)]);
    }

    #[test]
    fn knn_probabilities_sum_sensibly() {
        // over all objects, expected number of kNN members equals k when
        // probabilities are exact; bounds must bracket that
        let db = Database::from_objects(vec![
            uniform_box(1.0, 0.0, 0.4),
            uniform_box(1.5, 0.0, 0.4),
            uniform_box(2.0, 0.0, 0.4),
            uniform_box(3.0, 0.0, 0.4),
        ]);
        let engine = Engine::with_config(
            db,
            IdcaConfig {
                max_iterations: 6,
                uncertainty_target: 0.0,
                ..Default::default()
            },
        );
        let q = certain(0.0, 0.0);
        let k = 2;
        let res = engine.knn_threshold(&q, k, 0.0);
        let sum_lower: f64 = res.iter().map(|r| r.prob_lower).sum();
        let sum_upper: f64 = res.iter().map(|r| r.prob_upper).sum();
        assert!(sum_lower <= k as f64 + 1e-9, "sum lower {sum_lower}");
        assert!(sum_upper >= k as f64 - 1e-9, "sum upper {sum_upper}");
    }

    #[test]
    fn rknn_threshold_on_certain_data() {
        // db: points at 1..=5; q at 0. B has q among its 1NN iff no other
        // object is closer to B than q: true only for B at x=1 (dist 1;
        // the nearest other object is at dist 1 — tie, not strictly
        // closer... with x=2: q at dist 2 vs object at dist 1 -> no).
        let engine = Engine::new(line_db());
        let q = certain(0.0, 0.0);
        let res = engine.rknn_threshold(&q, 1, 0.5);
        let hits: Vec<ObjectId> = res.iter().filter(|r| r.is_hit(0.5)).map(|r| r.id).collect();
        // B = x1: others at dist >= 1 are not strictly closer than q
        // (dist 1), so DomCount(q, B) = 0 < 1: hit
        assert_eq!(hits, vec![ObjectId(0)]);
    }

    #[test]
    fn inverse_ranking_certain_case() {
        let engine = Engine::new(line_db());
        let q = certain(0.0, 0.0);
        // target x=3 is dominated by exactly 2 objects: rank 3
        let rd = engine.inverse_ranking(ObjRef::Db(ObjectId(2)), ObjRef::External(&q));
        let (lo, hi) = rd.rank_bounds(3);
        assert!((lo - 1.0).abs() < 1e-12);
        assert!((hi - 1.0).abs() < 1e-12);
        assert_eq!(rd.rank_bounds(1), (0.0, 0.0));
        let (elo, ehi) = rd.expected_rank_bounds();
        assert!((elo - 3.0).abs() < 1e-9);
        assert!((ehi - 3.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_ranking_uncertain_target() {
        // target uniform on [1.5, 3.5] among certain points at 1, 2, 3:
        // rank depends on where the target materializes
        let db = Database::from_objects(vec![
            certain(1.0, 0.0),
            certain(2.0, 0.0),
            certain(3.0, 0.0),
            uniform_seg(2.5, 1.0),
        ]);
        let engine = Engine::with_config(
            db,
            IdcaConfig {
                max_iterations: 8,
                uncertainty_target: 0.01,
                ..Default::default()
            },
        );
        let q = certain(0.0, 0.0);
        let rd = engine.inverse_ranking(ObjRef::Db(ObjectId(3)), ObjRef::External(&q));
        // target in (1.5, 2): rank 2 with prob 1/4; in (2, 3): rank 3 with
        // prob 1/2; in (3, 3.5): rank 4 with prob 1/4
        let (lo2, hi2) = rd.rank_bounds(2);
        let (lo3, hi3) = rd.rank_bounds(3);
        let (lo4, hi4) = rd.rank_bounds(4);
        assert!(lo2 <= 0.25 + 1e-9 && hi2 >= 0.25 - 1e-9, "[{lo2},{hi2}]");
        assert!(lo3 <= 0.50 + 1e-9 && hi3 >= 0.50 - 1e-9, "[{lo3},{hi3}]");
        assert!(lo4 <= 0.25 + 1e-9 && hi4 >= 0.25 - 1e-9, "[{lo4},{hi4}]");
        // converged reasonably tight
        assert!(hi3 - lo3 < 0.2, "width {}", hi3 - lo3);
    }

    #[test]
    fn expected_rank_ranking_orders_certain_points() {
        let engine = Engine::new(line_db());
        let q = certain(0.0, 0.0);
        let ranking = engine.expected_rank_ranking(&q);
        let ids: Vec<ObjectId> = ranking.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            vec![
                ObjectId(0),
                ObjectId(1),
                ObjectId(2),
                ObjectId(3),
                ObjectId(4)
            ]
        );
        for (i, e) in ranking.iter().enumerate() {
            assert!((e.lower - (i + 1) as f64).abs() < 1e-9);
            assert!((e.upper - (i + 1) as f64).abs() < 1e-9);
        }
    }

    /// An existentially uncertain object must not tighten the kNN
    /// pruning bound: in the worlds where it is absent, a farther
    /// certain object can still be the nearest neighbour.
    #[test]
    fn existential_objects_do_not_prune_knn_candidates() {
        let maybe = UncertainObject::with_existence(
            Pdf::uniform(Rect::from_point(&Point::from([0.1, 0.0]))),
            0.5,
        );
        let db = Database::from_objects(vec![maybe, certain(10.0, 0.0)]);
        let engine = Engine::new(db);
        let q = certain(0.0, 0.0);
        let res = engine.knn_threshold(&q, 1, 0.0);
        let far = res
            .iter()
            .find(|r| r.id == ObjectId(1))
            .expect("far certain object has 1NN probability 0.5 and must not be pruned");
        assert!((far.prob_lower - 0.5).abs() < 1e-9, "{far:?}");
        assert!((far.prob_upper - 0.5).abs() < 1e-9, "{far:?}");
    }

    /// The RkNN certain-dominator prefilter must ignore objects that may
    /// not exist: they dominate in no world where they are absent.
    #[test]
    fn existential_objects_do_not_prune_rknn_results() {
        let maybe = UncertainObject::with_existence(
            Pdf::uniform(Rect::from_point(&Point::from([0.1, 0.0]))),
            0.5,
        );
        let db = Database::from_objects(vec![maybe, certain(0.0, 0.0)]);
        let engine = Engine::new(db);
        let q = certain(5.0, 0.0);
        // in the worlds where the existential object is absent (p = 0.5),
        // q is B's nearest neighbour
        let res = engine.rknn_threshold(&q, 1, 0.0);
        let b = res
            .iter()
            .find(|r| r.id == ObjectId(1))
            .expect("B must survive the prefilter");
        assert!((b.prob_lower - 0.5).abs() < 1e-9, "{b:?}");
        assert!((b.prob_upper - 0.5).abs() < 1e-9, "{b:?}");
    }

    #[test]
    fn knn_candidates_prune_far_objects() {
        let engine = Engine::new(line_db());
        let q = certain(0.0, 0.0);
        // k = 1: d1 = MaxDist to nearest object = 1; only x=1 qualifies
        let res = engine.knn_threshold(&q, 1, 0.1);
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, ObjectId(0));
    }

    #[test]
    fn top_probable_nn_orders_by_probability() {
        // o0 is the 1NN in most worlds; o1 competes weakly
        let db = Database::from_objects(vec![
            uniform_seg(1.0, 0.4),
            uniform_seg(1.6, 0.4),
            certain(5.0, 0.0),
        ]);
        let engine = Engine::with_config(
            db,
            IdcaConfig {
                max_iterations: 7,
                uncertainty_target: 0.0,
                ..Default::default()
            },
        );
        let q = certain(0.0, 0.0);
        let top = engine.top_probable_nn(&q, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id, ObjectId(0));
        assert_eq!(top[1].id, ObjectId(1));
        assert!(top[0].prob_lower > top[1].prob_upper, "{top:?}");
        // probabilities of being the 1NN sum to <= 1
        let total_upper: f64 = top.iter().map(|r| r.prob_upper).sum();
        let total_lower: f64 = top.iter().map(|r| r.prob_lower).sum();
        assert!(total_lower <= 1.0 + 1e-9);
        assert!(total_upper >= 1.0 - 1e-9, "o2 can never be 1NN");
    }

    #[test]
    fn expected_distance_baseline_can_disagree_with_expected_rank() {
        // the paper's criticism of expected distances: a bimodal object
        // whose *mean* is close to q but which is almost never the closest
        // in any actual world
        let bimodal = UncertainObject::new(
            MixturePdf::new(vec![
                (
                    1.0,
                    Pdf::uniform(Rect::new(vec![
                        Interval::new(-10.2, -9.8),
                        Interval::point(0.0),
                    ])),
                ),
                (
                    1.0,
                    Pdf::uniform(Rect::new(vec![
                        Interval::new(9.8, 10.2),
                        Interval::point(0.0),
                    ])),
                ),
            ])
            .into(),
        );
        // a certain object at distance 3
        let steady = certain(3.0, 0.0);
        let db = Database::from_objects(vec![bimodal, steady]);
        let q = certain(0.0, 0.0);
        let engine = Engine::with_config(
            db,
            IdcaConfig {
                max_iterations: 8,
                uncertainty_target: 0.0,
                ..Default::default()
            },
        );
        // expected-distance baseline ranks the bimodal object first (its
        // mean sits at x = 0, distance 0)
        let by_expected_dist = engine.expected_distance_ranking(&q);
        assert_eq!(by_expected_dist[0].0, ObjectId(0));
        // possible-world semantics rank the steady object first: in every
        // world the bimodal object sits at distance ~10 > 3
        let by_expected_rank = engine.expected_rank_ranking(&q);
        assert_eq!(by_expected_rank[0].id, ObjectId(1));
    }

    #[test]
    fn ranking_distributions_covers_all_objects() {
        let engine = Engine::new(line_db());
        let q = certain(0.0, 0.0);
        let all = engine.ranking_distributions(&q);
        assert_eq!(all.len(), engine.db().len());
        // certain points: object i has rank i+1 with certainty
        for (i, rd) in all.iter().enumerate() {
            let (lo, hi) = rd.rank_bounds(i + 1);
            assert!((lo - 1.0).abs() < 1e-9, "object {i}");
            assert!((hi - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn threshold_result_classification() {
        let r = ThresholdResult {
            id: ObjectId(0),
            prob_lower: 0.6,
            prob_upper: 0.9,
            iterations: 3,
        };
        assert!(r.is_hit(0.5));
        assert!(!r.is_drop(0.5));
        assert!(!r.is_undecided(0.5));
        assert!(r.is_undecided(0.7));
        assert!(r.is_drop(0.95));
    }

    #[test]
    fn engine_accessors() {
        let engine = Engine::new(line_db());
        assert_eq!(engine.db().len(), 5);
        assert_eq!(engine.config().norm, LpNorm::L2);
    }
}
