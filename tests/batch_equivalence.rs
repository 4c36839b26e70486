//! Equivalence oracle for the batched query engine: a mixed
//! [`QueryBatch`] must produce **bit-identical** results — membership,
//! probability bounds, iteration counts, result order — to running the
//! same queries one by one through the per-query [`Engine`] entry
//! points, at every [`IdcaConfig::batch_threads`] lane count. The
//! batched pass shares *work* across queries (the engine's persistent
//! decomposition cache) but never numeric state, so 1, 2 and 4 lanes
//! must agree with the sequential entry points to the last bit, for all
//! three query types at once — on the first run of a batch and on a
//! warm repeat.
//!
//! The engine under test honors the `UDB_SHARDS` matrix axis (see
//! `tests/common`): the same oracle must hold when queries route
//! through a 1-, 2- or 4-shard [`ShardedEngine`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udb_serve::empty_server;
use uncertain_db::prelude::*;

mod common;
use common::TestEngine;

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
fn assert_bit_identical(seq: &[ThresholdResult], bat: &[ThresholdResult], ctx: &str) {
    assert_eq!(bat.len(), seq.len(), "{ctx}: result count diverged");
    for (a, b) in bat.iter().zip(seq.iter()) {
        assert_eq!(a.id, b.id, "{ctx}: membership/order diverged");
        assert_eq!(
            a.prob_lower.to_bits(),
            b.prob_lower.to_bits(),
            "{ctx}: lower bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.prob_upper.to_bits(),
            b.prob_upper.to_bits(),
            "{ctx}: upper bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.iterations, b.iterations,
            "{ctx}: iteration count diverged for {:?}",
            a.id
        );
    }
}

fn config_with_lanes(lanes: usize) -> IdcaConfig {
    IdcaConfig {
        max_iterations: 4,
        uncertainty_target: 0.0,
        batch_threads: lanes,
        ..Default::default()
    }
}

/// The full oracle for one randomized workload: build a mixed batch of
/// kNN / RkNN / top-`m` queries over shared and distinct query objects,
/// run it at 1/2/4 batch lanes — with the cross-batch cache on and off
/// — and demand bit-identity with the per-query entry points.
fn check_mixed_batch(seed: u64, n: usize, queries: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_db(&mut rng, n);
    // several queries deliberately share (or nearly share) a region so
    // candidate sets overlap and the decomposition cache is actually hit
    let hot = random_object(&mut rng);
    let query_objects: Vec<UncertainObject> = (0..queries)
        .map(|i| {
            if i % 2 == 0 {
                hot.clone()
            } else {
                random_object(&mut rng)
            }
        })
        .collect();
    let (k, tau, m) = (rng.gen_range(1..4), rng.gen_range(0.05..0.8), 2);

    // the sequential oracle, through the per-query entry points
    let oracle_engine = Engine::with_config(db.clone(), config_with_lanes(1));
    let mut oracle: Vec<Vec<ThresholdResult>> = Vec::new();
    for (i, q) in query_objects.iter().enumerate() {
        oracle.push(match i % 3 {
            0 => oracle_engine.knn_threshold(q, k, tau),
            1 => oracle_engine.rknn_threshold(q, k, tau),
            _ => oracle_engine.top_probable_nn(q, m),
        });
    }

    let mut batch = QueryBatch::new();
    for (i, q) in query_objects.iter().enumerate() {
        match i % 3 {
            0 => batch.knn_threshold(q.clone(), k, tau),
            1 => batch.rknn_threshold(q.clone(), k, tau),
            _ => batch.top_probable_nn(q.clone(), m),
        };
    }
    for lanes in [1usize, 2, 4] {
        // the engine under test rides the UDB_SHARDS matrix axis
        let engine = TestEngine::with_config(db.clone(), config_with_lanes(lanes));
        let results = engine.run_batch(&batch);
        assert_eq!(results.len(), oracle.len());
        for (qi, (seq, bat)) in oracle.iter().zip(results.iter()).enumerate() {
            assert_bit_identical(seq, bat, &format!("lanes={lanes} query={qi}"));
        }
        // a warm repeat of the same batch must replay identically
        let again = engine.run_batch(&batch);
        for (qi, (seq, bat)) in oracle.iter().zip(again.iter()).enumerate() {
            assert_bit_identical(seq, bat, &format!("warm repeat lanes={lanes} query={qi}"));
        }
        engine.assert_routing();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn batched_queries_bit_identical_at_1_2_4_lanes(seed in 0u64..10_000) {
        check_mixed_batch(seed, 60, 6);
    }
}

/// A deterministic larger case on the paper-shaped synthetic workload
/// (denser candidate sets than the randomized mixed-family databases),
/// served through the protocol [`udb_serve::Server`]: one query per
/// batch (cap 1) and fused query runs (cap 16) must reply byte for
/// byte alike at every lane count.
#[test]
fn batched_synthetic_workload_matches_sequential() {
    let objects = SyntheticConfig {
        n: 300,
        max_extent: 0.02,
        ..Default::default()
    };
    let stream = QueryStreamConfig {
        batches: 2,
        batch_size: 5,
        k: 3,
        hotspots: 1,
        hotspot_fraction: 0.8,
        ..Default::default()
    };
    let lines = common::script_lines(&objects, &stream);
    for lanes in [1usize, 2, 4] {
        let mut seq = empty_server(config_with_lanes(lanes), common::shards(), 1);
        let mut bat = empty_server(config_with_lanes(lanes), common::shards(), 16);
        let (seq_replies, _) = seq.execute_batch(&lines);
        let (bat_replies, _) = bat.execute_batch(&lines);
        assert!(seq_replies.iter().any(|r| r.starts_with("RES ")));
        assert_eq!(seq_replies, bat_replies, "lanes={lanes}");
        common::assert_routing(seq.engine());
    }
}
