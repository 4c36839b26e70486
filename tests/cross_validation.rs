//! Randomized cross-validation: IDCA bounds vs ground-truth possible-world
//! sampling over many random configurations, including the non-uniform
//! and correlated density models.

#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::prelude::*;

/// A random object with a random density family.
fn random_object(rng: &mut StdRng) -> UncertainObject {
    let cx: f64 = rng.gen_range(0.0..4.0);
    let cy: f64 = rng.gen_range(0.0..4.0);
    let hx: f64 = rng.gen_range(0.05..0.8);
    let hy: f64 = rng.gen_range(0.05..0.8);
    let center = Point::from([cx, cy]);
    let support = Rect::centered(&center, &[hx, hy]);
    match rng.gen_range(0..4) {
        0 => UncertainObject::new(Pdf::uniform(support)),
        1 => {
            UncertainObject::new(GaussianPdf::new(center, vec![hx / 2.0, hy / 2.0], support).into())
        }
        2 => {
            let rho: f64 = rng.gen_range(-0.8..0.8);
            UncertainObject::new(
                HistogramPdf::from_correlated_gaussian(
                    center,
                    [hx / 2.0, hy / 2.0],
                    rho,
                    support,
                    8,
                )
                .into(),
            )
        }
        _ => {
            let n = rng.gen_range(2..6);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    Point::from([
                        rng.gen_range(cx - hx..cx + hx),
                        rng.gen_range(cy - hy..cy + hy),
                    ])
                })
                .collect();
            UncertainObject::new(DiscretePdf::equally_weighted(pts).into())
        }
    }
}

#[test]
fn idca_brackets_ground_truth_across_density_families() {
    for trial in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(1000 + trial);
        let n = rng.gen_range(4..9);
        let db = Database::from_objects((0..n).map(|_| random_object(&mut rng)).collect());
        let r = random_object(&mut rng);
        let target = ObjectId(rng.gen_range(0..n as u32));

        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(target),
            ObjRef::External(&r),
            IdcaConfig {
                max_iterations: 5,
                uncertainty_target: 0.0,
                ..Default::default()
            },
            Predicate::FullPdf,
        );
        let snap = refiner.run();
        let mut world_rng = StdRng::seed_from_u64(2000 + trial);
        let truth = uncertain_db::mc::estimate_domination_count_pdf(
            &db,
            target,
            &r,
            LpNorm::L2,
            12_000,
            &mut world_rng,
        );
        for k in 0..snap.bounds.len() {
            assert!(
                truth[k] >= snap.bounds.lower(k) - 0.03,
                "trial {trial} k={k}: truth {} < lower {}",
                truth[k],
                snap.bounds.lower(k)
            );
            assert!(
                truth[k] <= snap.bounds.upper(k) + 0.03,
                "trial {trial} k={k}: truth {} > upper {}",
                truth[k],
                snap.bounds.upper(k)
            );
        }
    }
}

#[test]
fn threshold_decisions_never_contradict_ground_truth() {
    for trial in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(3000 + trial);
        let n = rng.gen_range(5..10);
        let db = Database::from_objects((0..n).map(|_| random_object(&mut rng)).collect());
        let q = random_object(&mut rng);
        let k = rng.gen_range(1..4);
        let tau = *[0.25, 0.5, 0.75].get(rng.gen_range(0..3)).unwrap();

        let engine = Engine::with_config(
            db.clone(),
            IdcaConfig {
                max_iterations: 6,
                uncertainty_target: 0.0,
                ..Default::default()
            },
        );
        let results = engine.knn_threshold(&q, k, tau);
        for res in results {
            // ground truth P(DomCount < k) by world sampling
            let mut world_rng = StdRng::seed_from_u64(4000 + trial);
            let truth_pdf = uncertain_db::mc::estimate_domination_count_pdf(
                &db,
                res.id,
                &q,
                LpNorm::L2,
                12_000,
                &mut world_rng,
            );
            let truth: f64 = truth_pdf[..k.min(truth_pdf.len())].iter().sum();
            assert!(
                truth >= res.prob_lower - 0.03,
                "trial {trial} obj {}: truth {truth} < lower {}",
                res.id,
                res.prob_lower
            );
            assert!(
                truth <= res.prob_upper + 0.03,
                "trial {trial} obj {}: truth {truth} > upper {}",
                res.id,
                res.prob_upper
            );
            // decided answers must match ground truth (with slack around
            // the threshold for sampling error)
            if res.is_hit(tau) {
                assert!(truth > tau - 0.04, "false hit: truth {truth} tau {tau}");
            }
            if res.is_drop(tau) {
                assert!(truth <= tau + 0.04, "false drop: truth {truth} tau {tau}");
            }
        }
    }
}

#[test]
fn mc_engine_and_world_sampler_agree() {
    // the two independent estimators (conditional exact GF vs whole-world
    // sampling) must converge to the same distribution
    for trial in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(5000 + trial);
        let n = rng.gen_range(3..6);
        let db = Database::from_objects((0..n).map(|_| random_object(&mut rng)).collect());
        let r = random_object(&mut rng);
        let target = ObjectId(0);

        let mc = MonteCarlo {
            samples: 300,
            ..Default::default()
        };
        let mut rng1 = StdRng::seed_from_u64(6000 + trial);
        let engine_pdf = mc.domination_count(&db, target, &r, &mut rng1).pdf;
        let mut rng2 = StdRng::seed_from_u64(7000 + trial);
        let world_pdf = uncertain_db::mc::estimate_domination_count_pdf(
            &db,
            target,
            &r,
            LpNorm::L2,
            30_000,
            &mut rng2,
        );
        for k in 0..engine_pdf.len().max(world_pdf.len()) {
            let a = engine_pdf.get(k).copied().unwrap_or(0.0);
            let b = world_pdf.get(k).copied().unwrap_or(0.0);
            assert!(
                (a - b).abs() < 0.05,
                "trial {trial} k={k}: engine {a} vs worlds {b}"
            );
        }
    }
}
