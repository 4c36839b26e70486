//! Determinism oracle for parallel candidate refinement: the early-exit
//! candidate drivers (`refine_each`, and `refine_top_m` with its
//! cross-candidate rounds) must produce **bit-identical** results —
//! membership, bounds, iteration counts, retirement order after the
//! final sort — at every [`IdcaConfig::candidate_threads`] lane count,
//! nested snapshot lanes included. Each candidate's own operation
//! sequence is untouched by the fan-out (only wall-clock interleaving
//! changes), so 1, 2 and 4 lanes must agree to the last bit with the
//! sequential driver, for all three index-integrated query paths.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::prelude::*;

/// A random uncertain object: mixed density families, occasional
/// existential uncertainty (mirrors the early-exit equivalence oracle).
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

/// Bit-exact comparison of two result sets (no tolerances anywhere).
fn assert_bit_identical(seq: &[ThresholdResult], par: &[ThresholdResult], lanes: usize) {
    assert_eq!(par.len(), seq.len(), "lanes={lanes}: result count diverged");
    for (a, b) in par.iter().zip(seq.iter()) {
        assert_eq!(a.id, b.id, "lanes={lanes}: membership/order diverged");
        assert_eq!(
            a.prob_lower.to_bits(),
            b.prob_lower.to_bits(),
            "lanes={lanes}: lower bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.prob_upper.to_bits(),
            b.prob_upper.to_bits(),
            "lanes={lanes}: upper bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.iterations, b.iterations,
            "lanes={lanes}: iteration count diverged for {:?}",
            a.id
        );
    }
}

fn config_with_lanes(lanes: usize) -> IdcaConfig {
    IdcaConfig {
        max_iterations: 4,
        uncertainty_target: 0.0,
        candidate_threads: lanes,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// knn_threshold: candidates fanned over 2 and 4 lanes == one
    /// candidate after another, bit for bit.
    #[test]
    fn knn_threshold_rounds_are_lane_count_invariant(
        seed in 0u64..10_000,
        k in 1usize..5,
        tau_pct in 0usize..10,
    ) {
        let tau = tau_pct as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(0xA10 + seed);
        let n = rng.gen_range(10..24);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let sequential =
            Engine::with_config(db.clone(), config_with_lanes(1)).knn_threshold(&q, k, tau);
        for lanes in [2usize, 4] {
            let parallel =
                Engine::with_config(db.clone(), config_with_lanes(lanes)).knn_threshold(&q, k, tau);
            assert_bit_identical(&sequential, &parallel, lanes);
        }
    }

    /// rknn_threshold: same invariance (index-driven candidates, each
    /// refined to its own stop).
    #[test]
    fn rknn_threshold_rounds_are_lane_count_invariant(
        seed in 0u64..10_000,
        k in 1usize..4,
        tau_pct in 0usize..10,
    ) {
        let tau = tau_pct as f64 / 10.0;
        let mut rng = StdRng::seed_from_u64(0xB10 + seed);
        let n = rng.gen_range(8..16);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let sequential =
            Engine::with_config(db.clone(), config_with_lanes(1)).rknn_threshold(&q, k, tau);
        for lanes in [2usize, 4] {
            let parallel = Engine::with_config(db.clone(), config_with_lanes(lanes))
                .rknn_threshold(&q, k, tau);
            assert_bit_identical(&sequential, &parallel, lanes);
        }
    }

    /// top_probable_nn: the cross-candidate retirement between rounds
    /// merges on the calling thread — the returned set, order and bounds
    /// must not depend on the lane count.
    #[test]
    fn top_probable_nn_rounds_are_lane_count_invariant(
        seed in 0u64..10_000,
        m in 1usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(0xC10 + seed);
        let n = rng.gen_range(10..20);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let sequential =
            Engine::with_config(db.clone(), config_with_lanes(1)).top_probable_nn(&q, m);
        for lanes in [2usize, 4] {
            let parallel =
                Engine::with_config(db.clone(), config_with_lanes(lanes)).top_probable_nn(&q, m);
            assert_bit_identical(&sequential, &parallel, lanes);
        }
    }

    /// Candidate lanes compose with snapshot lanes (nested candidate ×
    /// pair scopes on one pool): bit-identical to the fully sequential
    /// result, since pair lanes add their records in pair order.
    #[test]
    fn nested_candidate_and_snapshot_lanes_compose(
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(0xD10 + seed);
        let n = rng.gen_range(10..18);
        let db = random_db(&mut rng, n);
        let q = random_object(&mut rng);
        let sequential =
            Engine::with_config(db.clone(), config_with_lanes(1)).knn_threshold(&q, 2, 0.3);
        let nested_cfg = IdcaConfig {
            snapshot_threads: 2,
            ..config_with_lanes(2)
        };
        let nested = Engine::with_config(db.clone(), nested_cfg).knn_threshold(&q, 2, 0.3);
        assert_bit_identical(&sequential, &nested, 2);
    }
}
