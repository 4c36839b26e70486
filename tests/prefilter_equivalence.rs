//! Bit-identity oracle for the tier-1 min/max prefilter
//! ([`IdcaConfig::prefilter`]): on randomized workloads, every query path
//! — scan-based, index-driven, and the top-`m` driver — must return
//! *exactly* the same results (ids, bounds, iteration counts) with the
//! prefilter on and off. The cheap tier is only allowed to skip exact
//! snapshots it proves pointless, never to change an outcome, so any
//! observable difference is a bug by construction.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::core::scan;
use uncertain_db::prelude::*;

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

/// The two configurations under test: identical except for the prefilter.
fn cfg_pair(max_iterations: usize) -> (IdcaConfig, IdcaConfig) {
    let off = IdcaConfig {
        max_iterations,
        uncertainty_target: 0.0,
        prefilter: false,
        ..Default::default()
    };
    let on = IdcaConfig {
        prefilter: true,
        ..off.clone()
    };
    (off, on)
}

fn assert_bit_identical(off: &[ThresholdResult], on: &[ThresholdResult], path: &str) {
    assert_eq!(on.len(), off.len(), "{path}: result-set size diverged");
    for (a, b) in on.iter().zip(off.iter()) {
        assert_eq!(a.id, b.id, "{path}: result-set membership diverged");
        assert_eq!(
            a.prob_lower.to_bits(),
            b.prob_lower.to_bits(),
            "{path}: lower bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.prob_upper.to_bits(),
            b.prob_upper.to_bits(),
            "{path}: upper bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.iterations, b.iterations,
            "{path}: iteration count diverged for {:?}",
            a.id
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn knn_threshold_prefilter_is_invisible(
        seed in 0u64..10_000,
        k in 1usize..5,
        tau_pct in 0usize..10,
    ) {
        let tau = tau_pct as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(0x9A + seed);
        let n = rng.gen_range(8..20);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let (cfg_off, cfg_on) = cfg_pair(4);
        assert_bit_identical(
            &scan::knn_threshold(&db, &cfg_off, &q, k, tau),
            &scan::knn_threshold(&db, &cfg_on, &q, k, tau),
            "scan knn",
        );
        let idx_off = Engine::with_config(db.clone(), cfg_off);
        let idx_on = Engine::with_config(db, cfg_on);
        assert_bit_identical(
            &idx_off.knn_threshold(&q, k, tau),
            &idx_on.knn_threshold(&q, k, tau),
            "indexed knn",
        );
    }

    #[test]
    fn rknn_threshold_prefilter_is_invisible(
        seed in 0u64..10_000,
        k in 1usize..4,
        tau_pct in 0usize..10,
    ) {
        let tau = tau_pct as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(0xA9 + seed);
        let n = rng.gen_range(6..14);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let (cfg_off, cfg_on) = cfg_pair(4);
        assert_bit_identical(
            &scan::rknn_threshold(&db, &cfg_off, &q, k, tau),
            &scan::rknn_threshold(&db, &cfg_on, &q, k, tau),
            "scan rknn",
        );
        let idx_off = Engine::with_config(db.clone(), cfg_off);
        let idx_on = Engine::with_config(db, cfg_on);
        assert_bit_identical(
            &idx_off.rknn_threshold(&q, k, tau),
            &idx_on.rknn_threshold(&q, k, tau),
            "indexed rknn",
        );
    }

    #[test]
    fn top_probable_nn_prefilter_is_invisible(
        seed in 0u64..10_000,
        m in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(0xB8 + seed);
        let n = rng.gen_range(6..14);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let (cfg_off, cfg_on) = cfg_pair(4);
        assert_bit_identical(
            &scan::top_probable_nn(&db, &cfg_off, &q, m),
            &scan::top_probable_nn(&db, &cfg_on, &q, m),
            "scan top-m",
        );
        let idx_off = Engine::with_config(db.clone(), cfg_off);
        let idx_on = Engine::with_config(db, cfg_on);
        assert_bit_identical(
            &idx_off.top_probable_nn(&q, m),
            &idx_on.top_probable_nn(&q, m),
            "indexed top-m",
        );
    }
}
