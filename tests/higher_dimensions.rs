//! The entire pipeline is dimension-generic; these tests exercise it in
//! 3-D and 4-D (the paper evaluates in 2-D but states the model for
//! arbitrary `R^d`).

#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::prelude::*;

fn random_box_3d(rng: &mut StdRng) -> UncertainObject {
    let center: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..2.0)).collect();
    let half: Vec<f64> = (0..3).map(|_| rng.gen_range(0.02..0.3)).collect();
    UncertainObject::new(Pdf::uniform(Rect::centered(&Point::new(center), &half)))
}

#[test]
fn domination_criteria_work_in_3d() {
    let a = Rect::centered(&Point::from([1.0, 1.0, 1.0]), &[0.1, 0.1, 0.1]);
    let b = Rect::centered(&Point::from([4.0, 4.0, 4.0]), &[0.1, 0.1, 0.1]);
    let r = Rect::centered(&Point::from([0.0, 0.0, 0.0]), &[0.2, 0.2, 0.2]);
    let crit = DominationCriterion::Optimal;
    assert!(crit.dominates(&a, &b, &r, LpNorm::L2));
    assert!(crit.never_dominates(&b, &a, &r, LpNorm::L2));
    assert!(DominationCriterion::MinMax.dominates(&a, &b, &r, LpNorm::L2));
}

#[test]
fn decomposition_cycles_three_axes() {
    let pdf = Pdf::uniform(Rect::centered(
        &Point::from([0.0, 0.0, 0.0]),
        &[1.0, 1.0, 1.0],
    ));
    let mut dec = Decomposition::with_strategy(&pdf, SplitStrategy::RoundRobin);
    dec.expand_to(&pdf, 3);
    let parts = dec.partitions();
    assert_eq!(parts.len(), 8);
    let mass: f64 = parts.iter().map(|p| p.mass).sum();
    assert!((mass - 1.0).abs() < 1e-9);
    // after three round-robin levels every axis was split exactly once
    for p in parts {
        for d in 0..3 {
            assert!((p.mbr.extent(d) - 1.0).abs() < 1e-9);
        }
    }
}

#[test]
fn idca_brackets_world_sampler_in_3d() {
    let mut rng = StdRng::seed_from_u64(333);
    let db = Database::from_objects((0..6).map(|_| random_box_3d(&mut rng)).collect());
    let r = random_box_3d(&mut rng);
    let target = ObjectId(0);
    let mut refiner = Refiner::new(
        &db,
        ObjRef::Db(target),
        ObjRef::External(&r),
        IdcaConfig {
            max_iterations: 4,
            uncertainty_target: 0.0,
            ..Default::default()
        },
        Predicate::FullPdf,
    );
    let snap = refiner.run();
    let mut world_rng = StdRng::seed_from_u64(334);
    let truth = uncertain_db::mc::estimate_domination_count_pdf(
        &db,
        target,
        &r,
        LpNorm::L2,
        15_000,
        &mut world_rng,
    );
    for k in 0..snap.bounds.len() {
        assert!(truth[k] >= snap.bounds.lower(k) - 0.03, "k={k}");
        assert!(truth[k] <= snap.bounds.upper(k) + 0.03, "k={k}");
    }
}

#[test]
fn knn_threshold_in_3d() {
    let db = Database::from_objects(vec![
        UncertainObject::certain(Point::from([1.0, 0.0, 0.0])),
        UncertainObject::certain(Point::from([0.0, 2.0, 0.0])),
        UncertainObject::certain(Point::from([0.0, 0.0, 3.0])),
    ]);
    let q = UncertainObject::certain(Point::from([0.0, 0.0, 0.0]));
    let engine = Engine::new(db);
    let res = engine.knn_threshold(&q, 1, 0.5);
    let hits: Vec<ObjectId> = res.iter().filter(|r| r.is_hit(0.5)).map(|r| r.id).collect();
    assert_eq!(hits, vec![ObjectId(0)]);
}

#[test]
fn rtree_knn_in_4d() {
    let mut rng = StdRng::seed_from_u64(4);
    let items: Vec<(Rect, usize)> = (0..200)
        .map(|i| {
            let c: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..10.0)).collect();
            (Rect::from_point(&Point::new(c)), i)
        })
        .collect();
    let tree = RTree::bulk_load(items.clone(), 8);
    let q = Rect::from_point(&Point::from([5.0, 5.0, 5.0, 5.0]));
    let got = tree.knn(&q, 5, LpNorm::L2);
    let mut dists: Vec<f64> = items
        .iter()
        .map(|(r, _)| r.min_dist_rect(&q, LpNorm::L2))
        .collect();
    dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (n, d) in got.iter().zip(dists.iter()) {
        assert!((n.dist - d).abs() < 1e-9);
    }
}

#[test]
fn gaussian_mass_in_3d_factorizes() {
    let g =
        GaussianPdf::truncated_at_sigmas(Point::from([0.0, 0.0, 0.0]), vec![1.0, 1.0, 1.0], 3.0);
    let octant = Rect::from_corners(&Point::from([0.0, 0.0, 0.0]), &Point::from([3.0, 3.0, 3.0]));
    assert!((g.mass_in(&octant) - 0.125).abs() < 1e-6);
}
