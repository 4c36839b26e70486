//! Equivalence oracle for index-integrated early-exit refinement: on
//! randomized workloads, the owned [`Engine`] paths (index-driven
//! candidates, subtree filters, early-exit candidate retirement) must
//! classify every object exactly like the full-refinement scan oracle
//! (`udb_core::scan`) — identical hit/drop/undecided sets *and*
//! identical probability bounds — for both `knn_threshold` and
//! `rknn_threshold`. The indexed engine under test honors the
//! `UDB_SHARDS` matrix axis (see `tests/common`). The ranking queries
//! (domination count, inverse ranking) of the index-backed [`Engine`]
//! must likewise match a scan-filter [`Refiner`] bit for bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::core::scan;
use uncertain_db::prelude::*;

mod common;
use common::TestEngine;

/// A random uncertain object: mixed density families, occasional
/// existential uncertainty (the filter treats those differently).
fn random_object(rng: &mut StdRng) -> UncertainObject {
    let cx: f64 = rng.gen_range(0.0..4.0);
    let cy: f64 = rng.gen_range(0.0..4.0);
    let hx: f64 = rng.gen_range(0.02..0.5);
    let hy: f64 = rng.gen_range(0.02..0.5);
    let center = Point::from([cx, cy]);
    let support = Rect::centered(&center, &[hx, hy]);
    let pdf: Pdf = match rng.gen_range(0..3) {
        0 => Pdf::uniform(support),
        1 => GaussianPdf::new(center, vec![hx / 2.0, hy / 2.0], support).into(),
        _ => {
            let n = rng.gen_range(2..5);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    Point::from([
                        rng.gen_range(cx - hx..cx + hx),
                        rng.gen_range(cy - hy..cy + hy),
                    ])
                })
                .collect();
            DiscretePdf::equally_weighted(pts).into()
        }
    };
    if rng.gen_range(0..4) == 0 {
        UncertainObject::with_existence(pdf, rng.gen_range(0.3..1.0))
    } else {
        UncertainObject::new(pdf)
    }
}

fn random_db(rng: &mut StdRng, n: usize) -> Database {
    Database::from_objects((0..n).map(|_| random_object(rng)).collect())
}

/// Splits threshold results into (hit, drop, undecided) id sets.
fn classify(
    results: &[ThresholdResult],
    tau: f64,
) -> (Vec<ObjectId>, Vec<ObjectId>, Vec<ObjectId>) {
    let mut hit = Vec::new();
    let mut drop = Vec::new();
    let mut undecided = Vec::new();
    for r in results {
        if r.is_hit(tau) {
            hit.push(r.id);
        } else if r.is_drop(tau) {
            drop.push(r.id);
        } else {
            undecided.push(r.id);
        }
    }
    hit.sort_unstable();
    drop.sort_unstable();
    undecided.sort_unstable();
    (hit, drop, undecided)
}

fn assert_equivalent(mut scan: Vec<ThresholdResult>, indexed: Vec<ThresholdResult>, tau: f64) {
    scan.sort_by_key(|r| r.id);
    // identical result sets with identical bounds...
    assert_eq!(indexed.len(), scan.len(), "result-set size diverged");
    for (a, b) in indexed.iter().zip(scan.iter()) {
        assert_eq!(a.id, b.id, "result-set membership diverged");
        assert_eq!(
            a.prob_lower, b.prob_lower,
            "lower bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.prob_upper, b.prob_upper,
            "upper bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.iterations, b.iterations,
            "iteration count diverged for {:?}",
            a.id
        );
    }
    // ...and therefore identical hit/drop/undecided classification
    assert_eq!(classify(&indexed, tau), classify(&scan, tau));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn indexed_knn_threshold_equals_full_refinement(
        seed in 0u64..10_000,
        k in 1usize..5,
        tau_pct in 0usize..10,
    ) {
        let tau = tau_pct as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(0xE0 + seed);
        let n = rng.gen_range(8..20);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let cfg = IdcaConfig {
            max_iterations: 4,
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let indexed = TestEngine::with_config(db.clone(), cfg.clone());
        assert_equivalent(
            scan::knn_threshold(&db, &cfg, &q, k, tau),
            indexed.knn_threshold(&q, k, tau),
            tau,
        );
        indexed.assert_routing();
    }

    #[test]
    fn indexed_rknn_threshold_equals_full_refinement(
        seed in 0u64..10_000,
        k in 1usize..4,
        tau_pct in 0usize..10,
    ) {
        let tau = tau_pct as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(0xF0 + seed);
        let n = rng.gen_range(6..14);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let cfg = IdcaConfig {
            max_iterations: 4,
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let indexed = TestEngine::with_config(db.clone(), cfg.clone());
        assert_equivalent(
            scan::rknn_threshold(&db, &cfg, &q, k, tau),
            indexed.rknn_threshold(&q, k, tau),
            tau,
        );
        indexed.assert_routing();
    }

    #[test]
    fn indexed_ranking_equals_scan_refiner(
        seed in 0u64..10_000,
        target_pick in 0usize..64,
    ) {
        let mut rng = StdRng::seed_from_u64(0xD0 + seed);
        let n = rng.gen_range(6..16);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let cfg = IdcaConfig {
            max_iterations: 4,
            uncertainty_target: 0.0,
            ..Default::default()
        };
        let engine = Engine::with_config(db.clone(), cfg.clone());
        let target = ObjRef::Db(ObjectId((target_pick % n) as u32));
        let reference = ObjRef::External(&q);
        let scan = Refiner::new(&db, target, reference, cfg, Predicate::FullPdf).run();
        let bits = |b: &CountDistributionBounds| -> Vec<(u64, u64)> {
            (0..b.len())
                .map(|i| (b.lower(i).to_bits(), b.upper(i).to_bits()))
                .collect()
        };
        let snap = engine.domination_count(target, reference);
        assert_eq!(snap.iteration, scan.iteration);
        assert_eq!(bits(&snap.bounds), bits(&scan.bounds), "domination count diverged");
        let rd = engine.inverse_ranking(target, reference);
        assert_eq!(bits(&rd.counts), bits(&scan.bounds), "inverse ranking diverged");
        let (lo, hi) = rd.expected_rank_bounds();
        let (scan_lo, scan_hi) = scan.bounds.expected_rank_bounds();
        assert_eq!((lo.to_bits(), hi.to_bits()), (scan_lo.to_bits(), scan_hi.to_bits()));
    }
}
