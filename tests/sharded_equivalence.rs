//! The sharding bit-identity oracle: a [`ShardedEngine`] at 1, 2 and 4
//! shards must answer every query **bit-identically** — membership,
//! order, `f64::to_bits` of both probability bounds, iteration counts —
//! to a single [`Engine`] holding the union of all shards, with and
//! without interleaved mutations.
//!
//! Why this can be exact (and not merely approximate): global ids are
//! assigned in arrival order regardless of shard count, so the sorted
//! id order every refinement product multiplies in is the single
//! engine's order; candidate sets are visit-order-independent; classify
//! outcomes are tree-shape-independent; and the RkNN prefilter exchange
//! is veto-only (a shard can remove work, never add it). See
//! `crates/core/src/router.rs` and `docs/SERVING.md`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udb_serve::empty_server;
use uncertain_db::prelude::*;

mod common;

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

/// `f64::to_bits`-exact comparison of two result sets.
fn assert_bit_identical(single: &[ThresholdResult], sharded: &[ThresholdResult], ctx: &str) {
    assert_eq!(sharded.len(), single.len(), "{ctx}: result count diverged");
    for (a, b) in sharded.iter().zip(single.iter()) {
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

/// All three query types against both engines, bit-compared, plus the
/// candidate-set equality check.
fn compare_engines(single: &Engine, sharded: &ShardedEngine, q: &UncertainObject, ctx: &str) {
    let (k, tau, m) = (3, 0.25, 2);
    assert_bit_identical(
        &single.knn_threshold(q, k, tau),
        &sharded.knn_threshold(q, k, tau),
        &format!("{ctx} knn"),
    );
    assert_bit_identical(
        &single.rknn_threshold(q, k, tau),
        &sharded.rknn_threshold(q, k, tau),
        &format!("{ctx} rknn"),
    );
    assert_bit_identical(
        &single.top_probable_nn(q, m),
        &sharded.top_probable_nn(q, m),
        &format!("{ctx} top_m"),
    );
    // the merged candidate stream finds exactly the single-tree set
    let mut a = single.knn_candidates(q.mbr(), k);
    let mut b = sharded.knn_candidates(q.mbr(), k);
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "{ctx}: candidate sets diverged");
}

/// Read-only workload: build both engines over the same database,
/// compare every query type at 1/2/4 shards.
fn check_read_only(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(20..60);
    let db = random_db(&mut rng, n);
    let single = Engine::with_config(db.clone(), config());
    let queries: Vec<UncertainObject> = (0..3).map(|_| random_object(&mut rng)).collect();
    for shards in [1usize, 2, 4] {
        let sharded = ShardedEngine::with_config(db.clone(), config(), shards);
        for (qi, q) in queries.iter().enumerate() {
            compare_engines(&single, &sharded, q, &format!("shards={shards} q={qi}"));
        }
        if shards == 1 {
            // one shard must be the plain-engine code path: the
            // router's own refinement counters never move
            assert_eq!(
                sharded.refine_stats().rounds(),
                0,
                "one-shard engine refined at the router"
            );
            assert!(sharded.shards()[0].refine_stats().rounds() > 0);
        } else {
            // above one shard the plane refines at the router only
            for shard in sharded.shards() {
                assert_eq!(shard.refine_stats().rounds(), 0);
            }
        }
    }
}

/// Interleaved mutations: apply an identical mutation script to the
/// single engine and to sharded engines at 1/2/4 shards, comparing all
/// query types after every round. Removals target ids that exist in
/// both (globals == single-engine ids by construction).
fn check_with_mutations(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(15..40);
    let db = random_db(&mut rng, n);
    let mut single = Engine::with_config(db.clone(), config());
    let mut engines: Vec<ShardedEngine> = [1usize, 2, 4]
        .iter()
        .map(|&s| ShardedEngine::with_config(db.clone(), config(), s))
        .collect();
    let mut live: Vec<ObjectId> = db.ids().collect();
    for round in 0..3 {
        for _ in 0..rng.gen_range(2..5) {
            match rng.gen_range(0..3) {
                0 => {
                    let obj = random_object(&mut rng);
                    let id = single.insert(obj.clone());
                    for sharded in &mut engines {
                        assert_eq!(
                            sharded.insert(obj.clone()),
                            id,
                            "global id diverged from single-engine id"
                        );
                    }
                    live.push(id);
                }
                1 if live.len() > 8 => {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    let removed = single.remove(id);
                    for sharded in &mut engines {
                        assert_eq!(sharded.remove(id).mbr(), removed.mbr());
                    }
                }
                _ => {
                    let id = live[rng.gen_range(0..live.len())];
                    let obj = random_object(&mut rng);
                    single.update(id, obj.clone());
                    for sharded in &mut engines {
                        sharded.update(id, obj.clone());
                    }
                }
            }
        }
        let q = random_object(&mut rng);
        for sharded in &engines {
            assert_eq!(single.db().len(), sharded.len(), "live set diverged");
            compare_engines(
                &single,
                sharded,
                &q,
                &format!("round={round} shards={}", sharded.num_shards()),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn sharded_queries_bit_identical_to_single_engine(seed in 0u64..10_000) {
        check_read_only(seed);
    }

    #[test]
    fn sharded_queries_bit_identical_under_mutations(seed in 0u64..10_000) {
        check_with_mutations(seed);
    }
}

/// Deterministic dense case on the paper-shaped synthetic workload: a
/// mutating hot-spot stream served through the protocol
/// [`udb_serve::Server`] at 1, 2 and 4 shards replies byte for byte
/// like the one-shard, one-query-per-batch server, unbatched and
/// batched.
#[test]
fn sharded_stream_serves_bit_identically() {
    let objects = SyntheticConfig {
        n: 200,
        max_extent: 0.02,
        ..Default::default()
    };
    let stream = QueryStreamConfig {
        batches: 3,
        batch_size: 6,
        k: 3,
        insert_weight: 0.15,
        delete_weight: 0.1,
        hotspots: 1,
        hotspot_fraction: 0.8,
        ..Default::default()
    };
    let lines = common::script_lines(&objects, &stream);
    let cfg = IdcaConfig {
        max_iterations: 4,
        ..Default::default()
    };
    let (oracle, _) = empty_server(cfg.clone(), 1, 1).execute_batch(&lines);
    assert!(oracle.iter().any(|r| r.starts_with("RES ")));
    for cap in [1usize, 16] {
        for shards in [1usize, 2, 4] {
            let (got, _) = empty_server(cfg.clone(), shards, cap).execute_batch(&lines);
            assert_eq!(oracle, got, "cap={cap} shards={shards}");
        }
    }
}
