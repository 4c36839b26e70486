//! Ground-truth oracle: on tiny databases of discrete objects the exact
//! domination-count distribution is computable by enumerating possible
//! worlds, so the refiner's bounds and the threshold queries' answers
//! are checked against the true probabilities instead of against
//! another code path.
//!
//! Every object is a [`DiscretePdf`] with one to three weighted
//! samples, some existentially uncertain. Fixing one sample `b` of the
//! target and one sample `r` of the reference, each other object `A`
//! dominates independently with probability
//! `existence(A) · Σ { w_a : dist(a, r) < dist(b, r) }`, so the count is
//! Poisson-binomial; mixing over all `(b, r)` sample pairs by weight
//! gives the exact distribution of `DomCount(B, R)`.

mod common;

use common::TestEngine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::genfunc::poisson_binomial;
use uncertain_db::prelude::*;

/// Slack for float summation order between the oracle and the refiner.
const EPS: f64 = 1e-9;

/// A random discrete object: 1–3 weighted samples in a small box of the
/// unit square, existence 0.6 for about a third of the objects.
fn random_object(rng: &mut StdRng) -> UncertainObject {
    let cx: f64 = rng.gen_range(0.0..1.0);
    let cy: f64 = rng.gen_range(0.0..1.0);
    let n = rng.gen_range(1..=3);
    let points: Vec<Point> = (0..n)
        .map(|_| Point::from([cx + rng.gen_range(-0.2..0.2), cy + rng.gen_range(-0.2..0.2)]))
        .collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let pdf: Pdf = DiscretePdf::new(points, weights).into();
    if rng.gen_range(0..3) == 0 {
        UncertainObject::with_existence(pdf, 0.6)
    } else {
        UncertainObject::new(pdf)
    }
}

/// The (normalized) weighted samples of a discrete object.
fn samples(o: &UncertainObject) -> Vec<(&Point, f64)> {
    match o.pdf() {
        Pdf::Discrete(d) => d.iter().collect(),
        other => panic!("oracle objects are discrete, got {other:?}"),
    }
}

/// The exact distribution of `DomCount(target, reference)` over the
/// `others` (every object that may dominate): entry `c` is
/// `P(DomCount = c)`, for `c = 0..=others.len()`.
fn exact_dom_count(
    target: &UncertainObject,
    reference: &UncertainObject,
    others: &[&UncertainObject],
) -> Vec<f64> {
    let mut exact = vec![0.0; others.len() + 1];
    for (b, wb) in samples(target) {
        for (r, wr) in samples(reference) {
            let d_b = b.dist_sq(r);
            let probs: Vec<f64> = others
                .iter()
                .map(|a| {
                    let closer: f64 = samples(a)
                        .into_iter()
                        .filter(|(p, _)| p.dist_sq(r) < d_b)
                        .map(|(_, w)| w)
                        .sum();
                    a.existence() * closer
                })
                .collect();
            for (c, p) in poisson_binomial(&probs, None).into_iter().enumerate() {
                exact[c] += wb * wr * p;
            }
        }
    }
    exact
}

/// Every database object except `skip`.
fn others(db: &Database, skip: ObjectId) -> Vec<&UncertainObject> {
    db.iter()
        .filter(|&(id, _)| id != skip)
        .map(|(_, o)| o)
        .collect()
}

/// `P(DomCount < k)` from an exact distribution.
fn below(exact: &[f64], k: usize) -> f64 {
    exact.iter().take(k).sum()
}

fn random_db(rng: &mut StdRng) -> Database {
    let n = rng.gen_range(2..=6);
    Database::from_objects((0..n).map(|_| random_object(rng)).collect())
}

/// Full-PDF refinement of `DomCount(B, R)` for two database objects:
/// every iteration's bounds contain the exact distribution, and no
/// per-count bound ever loosens from one iteration to the next. Each
/// database refines under the default budget and under a budget of two
/// iterations, where the snapshot at iteration 2 walks the final level
/// (no factor cache kept) from the cached level before it, and each
/// step past it rebuilds from nothing.
#[test]
fn refiner_bounds_contain_the_exact_distribution_at_every_iteration() {
    let mut snapshots = 0;
    for (seed, max_iterations) in (0..300u64).flat_map(|seed| [(seed, 8), (seed, 2)]) {
        let mut rng = StdRng::seed_from_u64(0xE0 + seed);
        let db = random_db(&mut rng);
        let n = db.len();
        let b = ObjectId(rng.gen_range(0..n as u32));
        let r = loop {
            let r = ObjectId(rng.gen_range(0..n as u32));
            if r != b {
                break r;
            }
        };
        let influencers: Vec<&UncertainObject> = db
            .iter()
            .filter(|&(id, _)| id != b && id != r)
            .map(|(_, o)| o)
            .collect();
        let exact = exact_dom_count(db.get(b), db.get(r), &influencers);
        let cfg = IdcaConfig {
            uncertainty_target: 0.0,
            max_iterations,
            ..Default::default()
        };
        let mut refiner = Refiner::new(&db, ObjRef::Db(b), ObjRef::Db(r), cfg, Predicate::FullPdf);
        let mut prev: Option<DomCountSnapshot> = None;
        loop {
            let snap = refiner.snapshot();
            snapshots += 1;
            let it = snap.iteration;
            for (c, &p) in exact.iter().enumerate() {
                let (lo, hi) = (snap.bounds.lower(c), snap.bounds.upper(c));
                assert!(
                    lo <= p + EPS && p <= hi + EPS,
                    "seed {seed} budget {max_iterations} iteration {it}: P(DomCount = {c}) = {p} outside [{lo}, {hi}]"
                );
                if let Some(prev) = &prev {
                    assert!(
                        lo >= prev.bounds.lower(c) - EPS && hi <= prev.bounds.upper(c) + EPS,
                        "seed {seed} budget {max_iterations} iteration {it}: count {c} bounds loosened from [{}, {}] to [{lo}, {hi}]",
                        prev.bounds.lower(c),
                        prev.bounds.upper(c)
                    );
                }
            }
            prev = Some(snap);
            if !refiner.step() {
                break;
            }
        }
    }
    assert!(snapshots > 600, "every seed refines at least once");
}

/// A decided threshold outcome agrees with the exact probability `p`:
/// a hit has `p > τ`, a drop has `p ≤ τ` (up to `EPS`).
fn assert_decision_is_right(h: &ThresholdResult, p: f64, tau: f64, what: &str) {
    if h.is_hit(tau) {
        assert!(
            p > tau - EPS,
            "{what}: {:?} decided hit at τ = {tau}, exact P = {p}",
            h.id
        );
    }
    if h.is_drop(tau) {
        assert!(
            p <= tau + EPS,
            "{what}: {:?} decided drop at τ = {tau}, exact P = {p}",
            h.id
        );
    }
}

/// Threshold kNN: each returned interval contains the exact
/// `P(DomCount(B, q) < k)`, every decided outcome is the exact one, and
/// every omitted object has probability 0.
#[test]
fn knn_threshold_intervals_contain_the_exact_probability() {
    let mut results = 0;
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0x4E0 + seed);
        let db = random_db(&mut rng);
        let q = random_object(&mut rng);
        let k = rng.gen_range(1..=3);
        let tau = rng.gen_range(0.0..1.0);
        let engine = TestEngine::new(db.clone());
        let hits = engine.knn_threshold(&q, k, tau);
        for (id, b) in db.iter() {
            let p = below(&exact_dom_count(b, &q, &others(&db, id)), k);
            match hits.iter().find(|h| h.id == id) {
                Some(h) => {
                    assert!(
                        h.prob_lower <= p + EPS && p <= h.prob_upper + EPS,
                        "seed {seed}: kNN P({id:?}) = {p} outside [{}, {}]",
                        h.prob_lower,
                        h.prob_upper
                    );
                    assert_decision_is_right(h, p, tau, &format!("seed {seed}: kNN"));
                }
                None => assert!(p <= 1e-12, "seed {seed}: kNN omitted {id:?} with P = {p}"),
            }
        }
        results += hits.len();
    }
    assert!(results > 150, "the queries return candidates");
}

/// Threshold RkNN: each returned interval contains the exact
/// `P(DomCount(q, B) < k)`, every decided outcome is the exact one, and
/// every omitted object has probability 0.
#[test]
fn rknn_threshold_intervals_contain_the_exact_probability() {
    let mut results = 0;
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0x8E0 + seed);
        let db = random_db(&mut rng);
        let q = random_object(&mut rng);
        let k = rng.gen_range(1..=3);
        let tau = rng.gen_range(0.0..1.0);
        let engine = TestEngine::new(db.clone());
        let hits = engine.rknn_threshold(&q, k, tau);
        for (id, b) in db.iter() {
            let p = below(&exact_dom_count(&q, b, &others(&db, id)), k);
            match hits.iter().find(|h| h.id == id) {
                Some(h) => {
                    assert!(
                        h.prob_lower <= p + EPS && p <= h.prob_upper + EPS,
                        "seed {seed}: RkNN P({id:?}) = {p} outside [{}, {}]",
                        h.prob_lower,
                        h.prob_upper
                    );
                    assert_decision_is_right(h, p, tau, &format!("seed {seed}: RkNN"));
                }
                None => assert!(p <= 1e-12, "seed {seed}: RkNN omitted {id:?} with P = {p}"),
            }
        }
        results += hits.len();
    }
    assert!(results > 150, "the queries return candidates");
}

/// Top-`m` probable nearest neighbours, refined to exhaustion: each
/// returned interval contains the exact `P(DomCount(B, q) < 1)`, no
/// omitted object is more probable than a returned one's upper bound,
/// and a short answer omits only objects of probability 0.
#[test]
fn top_m_intervals_contain_the_exact_probability_and_rank_it() {
    let mut results = 0;
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0xC40 + seed);
        let db = random_db(&mut rng);
        let q = random_object(&mut rng);
        let m = rng.gen_range(1..=3);
        let cfg = IdcaConfig {
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let engine = TestEngine::with_config(db.clone(), cfg);
        let top = engine.top_probable_nn(&q, m);
        assert!(
            top.len() <= m,
            "seed {seed}: {} results for m = {m}",
            top.len()
        );
        for (id, b) in db.iter() {
            let p = below(&exact_dom_count(b, &q, &others(&db, id)), 1);
            match top.iter().find(|h| h.id == id) {
                Some(h) => assert!(
                    h.prob_lower <= p + EPS && p <= h.prob_upper + EPS,
                    "seed {seed}: top-m P({id:?}) = {p} outside [{}, {}]",
                    h.prob_lower,
                    h.prob_upper
                ),
                None => {
                    for h in &top {
                        assert!(
                            p <= h.prob_upper + EPS,
                            "seed {seed}: omitted {id:?} (P = {p}) beats returned {:?} (upper {})",
                            h.id,
                            h.prob_upper
                        );
                    }
                    if top.len() < m {
                        assert!(
                            p <= 1e-12,
                            "seed {seed}: short answer omitted {id:?} with P = {p}"
                        );
                    }
                }
            }
        }
        results += top.len();
    }
    assert!(results > 150, "the queries return candidates");
}
