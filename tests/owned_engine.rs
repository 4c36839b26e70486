//! Property suite for the owned serving engine: the persistent
//! cross-batch decomposition cache and the in-place mutation API must
//! never change *what* is computed, only how much of it is recomputed.
//!
//! * **Warm ≡ cold** — an engine warmed by repeated batches and
//!   mutations (cache filling up and replaying across batches) answers
//!   bit-identically to a freshly built engine over the same database.
//! * **Mutate-then-query ≡ rebuild** — after any interleaving of
//!   inserts, removes and updates, every query answers exactly like a
//!   freshly built engine over the mutated database (index maintained
//!   incrementally, caches invalidated per object).
//!
//! Eviction at tiny cache sizes is tested next to the cache's trim, in
//! the engine's unit tests.
//!
//! The engine under test honors the `UDB_SHARDS` matrix axis (see
//! `tests/common`), so every property above is also a sharded-routing
//! property: mutations route by global id, queries fan across shards,
//! and the answers must not move by a bit.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::prelude::*;

mod common;
use common::TestEngine;

/// A random uncertain object: mixed density families, occasional
/// existential uncertainty (mirrors the other equivalence oracles).
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

fn config() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 4,
        uncertainty_target: 0.0,
        ..Default::default()
    }
}

/// Bit-exact comparison of two per-batch result sets.
fn assert_runs_identical(a: &[Vec<ThresholdResult>], b: &[Vec<ThresholdResult>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: result count diverged");
    for (qi, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.len(), y.len(), "{ctx} query={qi}: set size diverged");
        for (ra, rb) in x.iter().zip(y.iter()) {
            assert_eq!(ra.id, rb.id, "{ctx} query={qi}");
            assert_eq!(
                ra.prob_lower.to_bits(),
                rb.prob_lower.to_bits(),
                "{ctx} query={qi} id={:?}",
                ra.id
            );
            assert_eq!(
                ra.prob_upper.to_bits(),
                rb.prob_upper.to_bits(),
                "{ctx} query={qi} id={:?}",
                ra.id
            );
            assert_eq!(ra.iterations, rb.iterations, "{ctx} query={qi}");
        }
    }
}

/// A mixed batch over part-shared, part-fresh query objects (shared
/// regions are what make the cache actually replay across batches).
fn mixed_batch(rng: &mut StdRng, hot: &UncertainObject, queries: usize) -> QueryBatch {
    let (k, tau, m) = (rng.gen_range(1..4), rng.gen_range(0.05..0.8), 2);
    let mut batch = QueryBatch::new();
    for i in 0..queries {
        let q = if i % 2 == 0 {
            hot.clone()
        } else {
            random_object(rng)
        };
        match i % 3 {
            0 => batch.knn_threshold(q, k, tau),
            1 => batch.rknn_threshold(q, k, tau),
            _ => batch.top_probable_nn(q, m),
        };
    }
    batch
}

/// (a) An engine warmed by repeated batches and mutations answers
/// bit-identically to a freshly built engine — including re-running the
/// *same* batch against an already-hot cache.
fn check_warm_equals_cold(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_db(&mut rng, 50);
    let hot = random_object(&mut rng);
    let batches: Vec<QueryBatch> = (0..3).map(|_| mixed_batch(&mut rng, &hot, 5)).collect();
    // the warm engine under test rides the UDB_SHARDS matrix axis; the
    // cold oracle is a plain single engine built fresh for every batch
    let mut warm = TestEngine::with_config(db, config());
    for (bi, batch) in batches.iter().enumerate() {
        let cold = Engine::with_config(warm.db().clone(), config());
        let c = cold.run_batch(batch);
        let w = warm.run_batch(batch);
        assert_runs_identical(&w, &c, &format!("batch {bi}"));
        // replay against the now-hot cache: still identical
        let w2 = warm.run_batch(batch);
        assert_runs_identical(&w2, &c, &format!("warm replay of batch {bi}"));
        // a mutation between batches: the warm cache must follow it
        let live: Vec<ObjectId> = warm.db().ids().collect();
        let id = live[rng.gen_range(0..live.len())];
        warm.update(id, random_object(&mut rng));
    }
    assert!(warm.decomp_cache_len() > 0, "cache never filled");
    warm.assert_routing();
}

/// (b) Any interleaving of mutations and queries equals a freshly built
/// engine over the mutated database — warm caches and incremental index
/// maintenance included.
fn check_mutate_then_query(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = random_db(&mut rng, 30);
    let mut engine = TestEngine::with_config(db, config());
    let q = random_object(&mut rng);
    // warm the cache so stale decompositions would be observable
    engine.knn_threshold(&q, 2, 0.3);
    for round in 0..3 {
        // a few random mutations (ids drawn from the live set)
        for _ in 0..rng.gen_range(1..4) {
            let live: Vec<ObjectId> = engine.db().ids().collect();
            match rng.gen_range(0..3) {
                0 => {
                    let obj = random_object(&mut rng);
                    engine.insert(obj);
                }
                1 if live.len() > 5 => {
                    let id = live[rng.gen_range(0..live.len())];
                    engine.remove(id);
                }
                _ => {
                    let id = live[rng.gen_range(0..live.len())];
                    let obj = random_object(&mut rng);
                    engine.update(id, obj);
                }
            }
        }
        engine.check_invariants();
        // fresh single-engine oracle over the id-aligned mirror
        let fresh = Engine::with_config(engine.db().clone(), config());
        let qq = if rng.gen_range(0..2) == 0 {
            q.clone()
        } else {
            random_object(&mut rng)
        };
        let (k, tau) = (rng.gen_range(1..4), rng.gen_range(0.05..0.8));
        assert_runs_identical(
            &[engine.knn_threshold(&qq, k, tau)],
            &[fresh.knn_threshold(&qq, k, tau)],
            &format!("round {round} knn"),
        );
        assert_runs_identical(
            &[engine.rknn_threshold(&qq, k, tau)],
            &[fresh.rknn_threshold(&qq, k, tau)],
            &format!("round {round} rknn"),
        );
        assert_runs_identical(
            &[engine.top_probable_nn(&qq, 2)],
            &[fresh.top_probable_nn(&qq, 2)],
            &format!("round {round} top_m"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn warm_cache_results_equal_cold_cache(seed in 0u64..10_000) {
        check_warm_equals_cold(seed);
    }

    #[test]
    fn mutate_then_query_equals_fresh_engine(seed in 0u64..10_000) {
        check_mutate_then_query(seed);
    }
}

/// Deterministic end-to-end case: a mutating hot-spot stream served
/// warm, per query and as one [`QueryBatch`] per arrival batch, equals
/// the same stream answered by an engine freshly built over the current
/// database for every query, so no cache survives from one query to the
/// next. Each arrival batch applies its mutations first, then answers
/// its queries.
#[test]
fn mutating_stream_warm_equals_cold_all_modes() {
    let object_cfg = SyntheticConfig {
        n: 150,
        max_extent: 0.02,
        ..Default::default()
    };
    let db = object_cfg.generate();
    let stream = QueryStreamConfig {
        batches: 3,
        batch_size: 5,
        k: 3,
        insert_weight: 0.15,
        delete_weight: 0.1,
        hotspots: 1,
        hotspot_fraction: 0.8,
        ..Default::default()
    }
    .generate(&object_cfg);
    let cfg = IdcaConfig {
        max_iterations: 4,
        ..Default::default()
    };
    let mut cold = Engine::with_config(db.clone(), cfg.clone());
    let mut seq = TestEngine::with_config(db.clone(), cfg.clone());
    let mut bat = TestEngine::with_config(db, cfg.clone());
    for (b, batch) in stream.batches.iter().enumerate() {
        for entry in batch.iter().filter(|e| e.op.is_mutation()) {
            if entry.op == StreamOp::Insert {
                cold.insert(entry.object.clone());
                seq.insert(entry.object.clone());
                bat.insert(entry.object.clone());
            } else if let Some(id) = cold.nearest(entry.object.mbr()) {
                cold.remove(id);
                seq.remove(id);
                bat.remove(id);
            }
        }
        let mut queries = QueryBatch::new();
        let (mut oracle, mut warm) = (Vec::new(), Vec::new());
        for q in batch.iter().filter(|e| !e.op.is_mutation()) {
            let fresh = Engine::with_config(cold.db().clone(), cfg.clone());
            let (want, got) = match q.op {
                StreamOp::KnnThreshold { k, tau } => {
                    queries.knn_threshold(q.object.clone(), k, tau);
                    let got = seq.knn_threshold(&q.object, k, tau);
                    (fresh.knn_threshold(&q.object, k, tau), got)
                }
                StreamOp::RknnThreshold { k, tau } => {
                    queries.rknn_threshold(q.object.clone(), k, tau);
                    let got = seq.rknn_threshold(&q.object, k, tau);
                    (fresh.rknn_threshold(&q.object, k, tau), got)
                }
                StreamOp::TopProbableNn { m } => {
                    queries.top_probable_nn(q.object.clone(), m);
                    (
                        fresh.top_probable_nn(&q.object, m),
                        seq.top_probable_nn(&q.object, m),
                    )
                }
                op => unreachable!("the stream registers no subscription: {op:?}"),
            };
            oracle.push(want);
            warm.push(got);
        }
        assert_runs_identical(&warm, &oracle, &format!("batch {b} per query"));
        assert_runs_identical(
            &bat.run_batch(&queries),
            &oracle,
            &format!("batch {b} batched"),
        );
    }
    seq.check_invariants();
    bat.check_invariants();
}
