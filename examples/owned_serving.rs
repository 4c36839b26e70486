//! The owned serving engine end to end: a hot-spot-skewed stream of
//! queries *and* mutations served batch by batch, with the engine's
//! persistent decomposition cache amortizing hot objects' kd-tree
//! expansions across arrival batches.
//!
//! ```sh
//! cargo run --release --example owned_serving
//! ```

use std::time::Instant;
use uncertain_db::prelude::*;

fn main() {
    // A synthetic uncertain database (the paper's workload shape).
    let object_cfg = SyntheticConfig {
        n: 400,
        max_extent: 0.02,
        ..Default::default()
    };
    let db = object_cfg.generate();

    // A stream of arrival batches: mixed kNN / RkNN / top-m traffic plus
    // a trickle of inserts and hot-spot-skewed deletes, 80% of it
    // hammering two hot regions — many users, one working set.
    let stream = QueryStreamConfig {
        batches: 6,
        batch_size: 8,
        knn_weight: 0.45,
        rknn_weight: 0.2,
        top_m_weight: 0.15,
        insert_weight: 0.1,
        delete_weight: 0.1,
        subscribe_weight: 0.0,
        k: 4,
        tau: 0.3,
        m: 3,
        hotspots: 2,
        hotspot_fraction: 0.8,
        hotspot_spread: 0.02,
        seed: 7,
    }
    .generate(&object_cfg);
    let counts = stream.mix_counts();
    println!(
        "stream: {} ops in {} batches ({} knn, {} rknn, {} top-m, {} inserts, {} deletes)",
        counts.total(),
        stream.len(),
        counts.knn,
        counts.rknn,
        counts.top_m,
        counts.insert,
        counts.delete
    );

    let cfg = IdcaConfig {
        max_iterations: 5,
        ..Default::default()
    };

    // Warm serving (the default): the engine owns the database and keeps
    // its decomposition cache across batches; mutations maintain the
    // R-tree in place and invalidate exactly the touched objects.
    let mut warm = Engine::with_config(db.clone(), cfg.clone());
    let t = Instant::now();
    let warm_results = serve_stream(&mut warm, &stream, ServeMode::Batched);
    let warm_time = t.elapsed();
    println!(
        "\nwarm serve: {:.1} ms, {} objects cached, {} live objects after churn",
        warm_time.as_secs_f64() * 1e3,
        warm.decomp_cache_len(),
        warm.db().len(),
    );

    // Warm against cold: the stream's queries replayed as one batch on
    // the warm engine (its cache holds the hot objects' expansions) and
    // on an engine freshly built over the same post-churn database
    // (every decomposition computed from scratch).
    let mut replay = QueryBatch::new();
    for entry in stream.batches.iter().flatten() {
        let q = entry.object.clone();
        match entry.op {
            StreamOp::KnnThreshold { k, tau } => replay.knn_threshold(q, k, tau),
            StreamOp::RknnThreshold { k, tau } => replay.rknn_threshold(q, k, tau),
            StreamOp::TopProbableNn { m } => replay.top_probable_nn(q, m),
            _ => continue,
        };
    }
    let t = Instant::now();
    let warm_replay = warm.run_batch(&replay);
    let warm_replay_time = t.elapsed();
    let fresh = Engine::with_config(warm.db().clone(), cfg.clone());
    let t = Instant::now();
    let fresh_replay = fresh.run_batch(&replay);
    let fresh_time = t.elapsed();
    assert_eq!(
        warm_replay, fresh_replay,
        "sharing is work-only: results must be bit-identical"
    );
    println!(
        "replay of {} queries: warm {:.1} ms, freshly built {:.1} ms; results bit-identical, warm/fresh = {:.2}",
        replay.len(),
        warm_replay_time.as_secs_f64() * 1e3,
        fresh_time.as_secs_f64() * 1e3,
        warm_replay_time.as_secs_f64() / fresh_time.as_secs_f64()
    );

    // Sharded serving: the same stream through a 4-shard engine —
    // mutations hash-route by global id, queries fan across per-shard
    // trees and merge under one global pruning bound. Global ids track
    // arrival order regardless of shard count, so the replies are
    // bit-identical to the single engine (asserted here, property-
    // tested in tests/sharded_equivalence.rs).
    let mut sharded = ShardedEngine::with_config(db, cfg, 4);
    let t = Instant::now();
    let sharded_results = serve_stream(&mut sharded, &stream, ServeMode::Batched);
    let sharded_time = t.elapsed();
    assert_eq!(
        warm_results, sharded_results,
        "shard routing must not move a bit"
    );
    println!(
        "sharded serve (4 shards): {:.1} ms, bit-identical; per-shard live objects {:?}",
        sharded_time.as_secs_f64() * 1e3,
        sharded
            .shards()
            .iter()
            .map(|s| s.db().len())
            .collect::<Vec<_>>(),
    );

    // The mutation API, directly: insert / update / remove, no rebuild.
    let probe = UncertainObject::certain(Point::from([0.5, 0.5]));
    let before = warm.knn_threshold(&probe, 1, 0.5);
    let id = warm.insert(UncertainObject::certain(Point::from([0.5, 0.5])));
    let after = warm.knn_threshold(&probe, 1, 0.5);
    println!(
        "\ninserted {id:?} at the probe point: 1NN hit set {} -> {}",
        before.iter().filter(|r| r.is_hit(0.5)).count(),
        after.iter().filter(|r| r.is_hit(0.5)).count(),
    );
    warm.update(
        id,
        UncertainObject::new(Pdf::uniform(Rect::centered(
            &Point::from([0.9, 0.9]),
            &[0.01, 0.01],
        ))),
    );
    warm.remove(id);
    println!(
        "updated and removed it again; {} live objects, index height {}",
        warm.db().len(),
        warm.tree().height()
    );
}
