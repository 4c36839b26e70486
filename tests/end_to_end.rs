//! End-to-end integration tests over the public facade: full query
//! pipelines on both evaluation workloads.

#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use uncertain_db::prelude::*;

fn small_synthetic() -> (Database, SyntheticConfig) {
    let cfg = SyntheticConfig {
        n: 400,
        max_extent: 0.01,
        ..Default::default()
    };
    (cfg.generate(), cfg)
}

#[test]
fn idca_bounds_bracket_world_sampler_on_synthetic_workload() {
    let (db, cfg) = small_synthetic();
    let qs = QuerySet::generate(&db, &cfg, 3, 10, LpNorm::L2, 7);
    let engine = Engine::with_config(
        db.clone(),
        IdcaConfig {
            max_iterations: 5,
            uncertainty_target: 0.0,
            ..Default::default()
        },
    );
    for (r, b) in qs.iter() {
        let snap = engine.domination_count(ObjRef::Db(b), ObjRef::External(r));
        let mut rng = StdRng::seed_from_u64(1234);
        let truth =
            uncertain_db::mc::estimate_domination_count_pdf(&db, b, r, LpNorm::L2, 8_000, &mut rng);
        for k in 0..snap.bounds.len() {
            assert!(
                truth[k] >= snap.bounds.lower(k) - 0.03,
                "k={k}: truth {} < lower {}",
                truth[k],
                snap.bounds.lower(k)
            );
            assert!(
                truth[k] <= snap.bounds.upper(k) + 0.03,
                "k={k}: truth {} > upper {}",
                truth[k],
                snap.bounds.upper(k)
            );
        }
    }
}

#[test]
fn idca_and_mc_engine_agree_on_synthetic_workload() {
    let (db, cfg) = small_synthetic();
    let qs = QuerySet::generate(&db, &cfg, 2, 10, LpNorm::L2, 11);
    let engine = Engine::with_config(
        db.clone(),
        IdcaConfig {
            max_iterations: 6,
            uncertainty_target: 0.0,
            ..Default::default()
        },
    );
    let mc = MonteCarlo {
        samples: 250,
        ..Default::default()
    };
    for (i, (r, b)) in qs.iter().enumerate() {
        let snap = engine.domination_count(ObjRef::Db(b), ObjRef::External(r));
        let mut rng = StdRng::seed_from_u64(42 + i as u64);
        let mc_res = mc.domination_count(&db, b, r, &mut rng);
        // identical spatial filters
        let refiner = engine.refiner(ObjRef::Db(b), ObjRef::External(r), Predicate::FullPdf);
        assert_eq!(mc_res.complete_count, refiner.complete_count());
        assert_eq!(
            mc_res.influence,
            refiner.influence_ids().collect::<Vec<_>>()
        );
        // MC pdf within IDCA bounds (up to sampling error)
        for k in 0..snap.bounds.len() {
            let p = mc_res.pdf.get(k).copied().unwrap_or(0.0);
            assert!(p >= snap.bounds.lower(k) - 0.08, "k={k}");
            assert!(p <= snap.bounds.upper(k) + 0.08, "k={k}");
        }
    }
}

#[test]
fn knn_threshold_pipeline_on_iceberg_workload() {
    let db = IcebergConfig {
        n: 600,
        ..Default::default()
    }
    .generate();
    let engine = Engine::with_config(
        db,
        IdcaConfig {
            max_iterations: 6,
            ..Default::default()
        },
    );
    // query near the corridor center
    let ship = UncertainObject::certain(Point::from([0.45, 0.5]));
    let res = engine.knn_threshold(&ship, 3, 0.5);
    assert!(!res.is_empty(), "spatial filter should keep candidates");
    let hits = res.iter().filter(|r| r.is_hit(0.5)).count();
    assert!(hits <= 3 + res.iter().filter(|r| r.is_undecided(0.5)).count());
    // each result's bounds are a valid probability interval
    for r in &res {
        assert!(r.prob_lower >= -1e-9 && r.prob_upper <= 1.0 + 1e-9);
        assert!(r.prob_lower <= r.prob_upper + 1e-9);
    }
    // total expected kNN membership is k: bounds must bracket it
    let sum_lower: f64 = res.iter().map(|r| r.prob_lower).sum();
    let sum_upper: f64 = res.iter().map(|r| r.prob_upper).sum();
    assert!(sum_lower <= 3.0 + 1e-6, "sum of lower bounds {sum_lower}");
    assert!(sum_upper >= 3.0 - 1e-6, "sum of upper bounds {sum_upper}");
}

#[test]
fn rknn_matches_definition_on_tiny_db() {
    // three customers; facility q; brute-force the definition
    let db = Database::from_objects(vec![
        UncertainObject::certain(Point::from([0.0, 0.0])),
        UncertainObject::certain(Point::from([1.0, 0.0])),
        UncertainObject::certain(Point::from([5.0, 0.0])),
    ]);
    let q = UncertainObject::certain(Point::from([0.4, 0.0]));
    let engine = Engine::new(db);
    let res = engine.rknn_threshold(&q, 1, 0.5);
    // for o0: nearest other point is o1 at dist 1; q at 0.4 -> q closer:
    // hit. o1: o0 at dist 1 vs q at 0.6 -> q closer: hit. o2: o1 at 4 vs
    // q at 4.6 -> o1 closer: not a hit.
    let hits: Vec<ObjectId> = res.iter().filter(|r| r.is_hit(0.5)).map(|r| r.id).collect();
    assert_eq!(hits, vec![ObjectId(0), ObjectId(1)]);
}

#[test]
fn expected_rank_ranking_is_consistent_with_mindist_on_separated_data() {
    // objects far apart: expected ranks must follow distances exactly
    let db = Database::from_objects(
        (0..6)
            .map(|i| {
                UncertainObject::new(Pdf::uniform(Rect::centered(
                    &Point::from([i as f64 * 10.0 + 5.0, 0.0]),
                    &[0.5, 0.5],
                )))
            })
            .collect(),
    );
    let q = UncertainObject::certain(Point::from([0.0, 0.0]));
    let engine = Engine::new(db);
    let ranking = engine.expected_rank_ranking(&q);
    let ids: Vec<u32> = ranking.iter().map(|e| e.id.0).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
    for (i, e) in ranking.iter().enumerate() {
        assert!((e.lower - (i + 1) as f64).abs() < 1e-6);
        assert!((e.upper - (i + 1) as f64).abs() < 1e-6);
    }
}

#[test]
fn rtree_candidates_agree_with_query_engine() {
    let (db, _) = small_synthetic();
    let tree = RTree::bulk_load(db.mbrs().map(|(id, r)| (r.clone(), id)).collect(), 16);
    assert_eq!(tree.len(), db.len());
    let q = UncertainObject::certain(Point::from([0.5, 0.5]));
    // the 10 nearest by MinDist must all survive the engine's spatial
    // filter for k = 10
    let knn = tree.knn(q.mbr(), 10, LpNorm::L2);
    let engine = Engine::new(db);
    let res = engine.knn_threshold(&q, 10, 0.0);
    let candidate_ids: Vec<ObjectId> = res.iter().map(|r| r.id).collect();
    for n in knn {
        assert!(
            candidate_ids.contains(&n.payload),
            "nearest object {} missing from candidates",
            n.payload
        );
    }
}
