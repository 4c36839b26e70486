//! The owned serving engine end to end: a hot-spot-skewed stream of
//! queries *and* mutations served through the protocol `Server`, with
//! the engine's persistent decomposition cache amortizing hot objects'
//! kd-tree expansions across query runs.
//!
//! ```sh
//! cargo run --release --example owned_serving
//! ```

use std::time::Instant;
use udb_serve::{empty_server, generate_script};
use uncertain_db::prelude::*;

fn main() {
    // A synthetic uncertain database (the paper's workload shape).
    let object_cfg = SyntheticConfig {
        n: 400,
        max_extent: 0.02,
        ..Default::default()
    };

    // A stream of arrival batches: mixed kNN / RkNN / top-m traffic plus
    // a trickle of inserts and hot-spot-skewed deletes, 80% of it
    // hammering two hot regions — many users, one working set.
    let stream_cfg = QueryStreamConfig {
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
    };
    let stream = stream_cfg.generate(&object_cfg);
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
    // The protocol script: the database as INSERT lines, then the
    // stream's operations in arrival order, then STATS, FLUSH and QUIT.
    let script: Vec<String> = generate_script(&object_cfg, &stream_cfg)
        .lines()
        .map(str::to_owned)
        .collect();

    let cfg = IdcaConfig {
        max_iterations: 5,
        ..Default::default()
    };

    // Warm serving: the server's engine owns the database and keeps its
    // decomposition cache across query runs; mutations maintain the
    // R-tree in place and invalidate exactly the touched objects.
    let mut server = empty_server(cfg.clone(), 1, 16);
    let t = Instant::now();
    let (replies, _) = server.execute_batch(&script);
    let serve_time = t.elapsed();
    let warm = &server.engine().shards()[0];
    println!(
        "\nwarm serve: {:.1} ms, {} objects cached, {} live objects after churn",
        serve_time.as_secs_f64() * 1e3,
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
    let mut fresh = Engine::with_config(warm.db().clone(), cfg.clone());
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

    // Sharded serving: the same script through a 4-shard server —
    // mutations hash-route by global id, queries fan across per-shard
    // trees and merge under one global pruning bound. Global ids track
    // arrival order regardless of shard count, so the replies are
    // byte-identical to the single engine's (asserted here, property-
    // tested in tests/sharded_equivalence.rs).
    let mut sharded = empty_server(cfg, 4, 16);
    let t = Instant::now();
    let (sharded_replies, _) = sharded.execute_batch(&script);
    let sharded_time = t.elapsed();
    assert_eq!(
        replies, sharded_replies,
        "shard routing must not move a bit"
    );
    println!(
        "sharded serve (4 shards): {:.1} ms, byte-identical replies; per-shard live objects {:?}",
        sharded_time.as_secs_f64() * 1e3,
        sharded
            .engine()
            .shards()
            .iter()
            .map(|s| s.db().len())
            .collect::<Vec<_>>(),
    );

    // The mutation API, directly on an owned engine: insert / update /
    // remove, no rebuild.
    let probe = UncertainObject::certain(Point::from([0.5, 0.5]));
    let before = fresh.knn_threshold(&probe, 1, 0.5);
    let id = fresh.insert(UncertainObject::certain(Point::from([0.5, 0.5])));
    let after = fresh.knn_threshold(&probe, 1, 0.5);
    println!(
        "\ninserted {id:?} at the probe point: 1NN hit set {} -> {}",
        before.iter().filter(|r| r.is_hit(0.5)).count(),
        after.iter().filter(|r| r.is_hit(0.5)).count(),
    );
    fresh.update(
        id,
        UncertainObject::new(Pdf::uniform(Rect::centered(
            &Point::from([0.9, 0.9]),
            &[0.01, 0.01],
        ))),
    );
    fresh.remove(id);
    println!(
        "updated and removed it again; {} live objects, index height {}",
        fresh.db().len(),
        fresh.tree().height()
    );
}
