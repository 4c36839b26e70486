//! Query-stream serving throughput on the owned engine (a
//! [`udb_core::ShardedEngine`], driven directly by this bench's
//! [`serve`] loop; at one shard every call goes straight to
//! [`udb_core::Engine`]'s entry point), on a hot-spot-skewed mixed
//! stream — the workload shape the shared-work
//! machinery (the cross-query decomposition cache) is built for. The
//! comparisons:
//!
//! * **batched vs sequential** — one `run_batch` per arrival batch
//!   against the per-query entry points, both on the engine's
//!   persistent decomposition cache, which stays warm across batches
//!   and bench iterations (the steady serving state): the pair isolates
//!   what one shared pass over a batch adds on top of it.
//! * **durable vs memory** — the same stream with a mutation trickle,
//!   served by a WAL-backed engine (log + fsync before every applied
//!   mutation) against an in-memory one: the end-to-end durability tax
//!   (recorded, never gated — fsync latency is hardware-dependent).
//! * **sharded vs single** — the same mutating batched stream served by
//!   a 4-shard [`udb_core::ShardedEngine`] (hash-routed mutations,
//!   queries fanned across per-shard trees and merged under one global
//!   pruning bound) against the single engine: the routing overhead of
//!   the sharded serving tier, whose per-shard loops run inline.
//! * **standing maintain vs reanswer** — a churn loop (insert then
//!   remove the same objects) against an engine holding registered
//!   standing kNN subscriptions (incremental maintenance after every
//!   mutation) vs re-running every standing query from scratch after
//!   every mutation. The maintained results are bit-identical to
//!   re-answering (property-tested in `tests/standing_equivalence.rs`);
//!   the ratio is the subsystem's reason to exist and must stay below
//!   parity.
//!
//! All modes return bit-identical results (property-tested in
//! `tests/batch_equivalence.rs` / `tests/owned_engine.rs` /
//! `tests/durability.rs` / `tests/sharded_equivalence.rs`); the ratios
//! of per-run sample minima are the `serve_*` pairs
//! `bench_gate --relative` tracks.
//!
//! `UDB_BENCH_SCALE=ci` switches from the smoke workload to the larger
//! CI scale (2,000 objects), `paper` to the full 10,000.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use udb_bench::Scale;
use udb_core::{Engine, IdcaConfig, QueryBatch, ShardedEngine, StandingSpec, ThresholdResult};
use udb_workload::{PdfKind, QueryStream, QueryStreamConfig, StreamOp, SyntheticConfig};

/// The hot-spot stream every serve bench replays: two arrival batches
/// of mixed traffic around two hot spots — the candidate overlap across
/// queries is what the decomposition cache amortizes. RkNN/top-m
/// weights are the lighter share, mirroring a read-heavy serving mix.
fn stream_config() -> QueryStreamConfig {
    QueryStreamConfig {
        batches: 2,
        batch_size: 6,
        knn_weight: 0.5,
        rknn_weight: 0.25,
        top_m_weight: 0.25,
        insert_weight: 0.0,
        delete_weight: 0.0,
        subscribe_weight: 0.0,
        k: 5,
        tau: 0.3,
        m: 3,
        hotspots: 2,
        hotspot_fraction: 0.75,
        hotspot_spread: 0.02,
        seed: 0x57EA_u64,
    }
}

/// Serves a stream arrival batch by arrival batch: the batch's
/// mutations apply first, in stream order (an insert adds the entry's
/// object, a delete removes the live object nearest the entry's probe),
/// then its queries run against the settled state — as one
/// [`ShardedEngine::run_batch`] when `batched`, else one per-query call
/// each. Returns each batch's query results.
fn serve(
    engine: &mut ShardedEngine,
    stream: &QueryStream,
    batched: bool,
) -> Vec<Vec<Vec<ThresholdResult>>> {
    let mut served = Vec::with_capacity(stream.len());
    for batch in &stream.batches {
        for entry in batch {
            if entry.op == StreamOp::Insert {
                engine.insert(entry.object.clone());
            } else if entry.op == StreamOp::Delete {
                if let Some(id) = engine.nearest(entry.object.mbr()) {
                    engine.remove(id);
                }
            }
        }
        let queries = batch.iter().filter(|e| !e.op.is_mutation());
        served.push(if batched {
            let mut run = QueryBatch::new();
            for q in queries {
                let o = q.object.clone();
                match q.op {
                    StreamOp::KnnThreshold { k, tau } => run.knn_threshold(o, k, tau),
                    StreamOp::RknnThreshold { k, tau } => run.rknn_threshold(o, k, tau),
                    StreamOp::TopProbableNn { m } => run.top_probable_nn(o, m),
                    op => unreachable!("the serve streams register no subscription: {op:?}"),
                };
            }
            engine.run_batch(&run)
        } else {
            queries
                .map(|q| match q.op {
                    StreamOp::KnnThreshold { k, tau } => engine.knn_threshold(&q.object, k, tau),
                    StreamOp::RknnThreshold { k, tau } => engine.rknn_threshold(&q.object, k, tau),
                    StreamOp::TopProbableNn { m } => engine.top_probable_nn(&q.object, m),
                    op => unreachable!("the serve streams register no subscription: {op:?}"),
                })
                .collect()
        });
    }
    served
}

/// Benches one workload's sequential-vs-batched serving pair, both
/// sides on the engine's persistent decomposition cache.
fn serve_pair(c: &mut Criterion, group: &str, object_cfg: &SyntheticConfig, max_iterations: usize) {
    let db = object_cfg.generate();
    let cfg = IdcaConfig {
        max_iterations,
        ..Default::default()
    };
    let stream = stream_config().generate(object_cfg);
    let mut seq_engine = ShardedEngine::with_config(db.clone(), cfg.clone(), 1);
    let mut bat_engine = ShardedEngine::with_config(db, cfg, 1);

    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("sequential", |bench| {
        bench.iter(|| black_box(serve(&mut seq_engine, &stream, false)))
    });
    g.bench_function("batched", |bench| {
        bench.iter(|| black_box(serve(&mut bat_engine, &stream, true)))
    });
    g.finish();
}

/// Benches the WAL tax: the same *mutating* batched stream served by a
/// durable engine (every mutation logged and fsynced before it applies)
/// against an in-memory one. Mutation entries are a minority of the mix
/// (as in serving), so the pair reports the end-to-end overhead of
/// durability, not raw fsync throughput. The ratio is recorded in
/// `BENCH_idca.json` under `ratio_pairs_untracked` — documented, never
/// gated: fsync latency is hardware-dependent in a way compute is not.
fn serve_durable_pair(
    c: &mut Criterion,
    group: &str,
    object_cfg: &SyntheticConfig,
    max_iterations: usize,
) {
    let db = object_cfg.generate();
    let stream = QueryStreamConfig {
        insert_weight: 0.15,
        delete_weight: 0.15,
        ..stream_config()
    }
    .generate(object_cfg);
    let cfg = IdcaConfig {
        max_iterations,
        wal_sync_every: 1,
        checkpoint_every: 0, // steady-state logging, no checkpoint spikes
        ..Default::default()
    };
    let mut memory = ShardedEngine::with_config(db.clone(), cfg.clone(), 1);
    let dir = std::env::temp_dir().join(format!("udb-bench-serve-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durable = ShardedEngine::open(&dir, cfg, 1).expect("open durable engine");
    for (_, obj) in db.iter() {
        durable.insert(obj.clone());
    }

    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("memory", |bench| {
        bench.iter(|| black_box(serve(&mut memory, &stream, true)))
    });
    g.bench_function("durable", |bench| {
        bench.iter(|| black_box(serve(&mut durable, &stream, true)))
    });
    g.finish();
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Benches the per-host routing overhead of the sharded serving tier:
/// the same *mutating* batched stream served by a 4-shard
/// [`ShardedEngine`] against the single [`Engine`]. Both sides keep
/// their persistent decomposition cache; the sharded side pays id routing, per-shard candidate streams merged
/// under one global bound, and the RkNN veto exchange. The ratio is
/// gated relative (`sharded_vs_single`): both sides share the run's
/// clock, so the tight band holds even on noisy CI hosts.
fn serve_sharded_pair(
    c: &mut Criterion,
    group: &str,
    object_cfg: &SyntheticConfig,
    max_iterations: usize,
) {
    let db = object_cfg.generate();
    let stream = QueryStreamConfig {
        insert_weight: 0.15,
        delete_weight: 0.15,
        ..stream_config()
    }
    .generate(object_cfg);
    let cfg = IdcaConfig {
        max_iterations,
        ..Default::default()
    };
    let mut single = ShardedEngine::with_config(db.clone(), cfg.clone(), 1);
    let mut sharded = ShardedEngine::with_config(db, cfg, 4);

    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("single", |bench| {
        bench.iter(|| black_box(serve(&mut single, &stream, true)))
    });
    g.bench_function("sharded", |bench| {
        bench.iter(|| black_box(serve(&mut sharded, &stream, true)))
    });
    g.finish();
}

/// Benches the standing-query subsystem's reason to exist: the same
/// net-zero churn loop (insert six objects, re-remove them, queries
/// after every mutation) served two ways. `maintain` holds four
/// registered standing kNN subscriptions and lets the incremental
/// maintainer bring their result sets up to date after every mutation
/// (skipping or partially re-refining whenever the stored decided
/// bounds prove stability, falling back to a full re-answer only when
/// they cannot); `reanswer` runs the same four queries from scratch
/// through `knn_threshold` after every mutation — the oracle the
/// maintained sets are property-tested bit-identical against
/// (`tests/standing_equivalence.rs`). Churn is net zero per iteration
/// (every inserted id is removed again), so neither engine's database
/// drifts across bench iterations. Gated relative
/// (`maintain_vs_reanswer`): the pair shares the run's clock, and the
/// ratio must stay below parity — maintenance that costs as much as
/// re-answering would defend nothing.
fn serve_standing_pair(
    c: &mut Criterion,
    group: &str,
    object_cfg: &SyntheticConfig,
    max_iterations: usize,
) {
    let db = object_cfg.generate();
    let cfg = IdcaConfig {
        max_iterations,
        ..Default::default()
    };
    // standing-query points and churn objects from the same hot-spot
    // generator the other serve pairs replay (fixed seed)
    let feed = stream_config().generate(object_cfg);
    let objects: Vec<_> = feed
        .batches
        .iter()
        .flatten()
        .map(|entry| entry.object.clone())
        .collect();
    let queries = &objects[..4];
    let churn = &objects[4..10];
    let (k, tau) = (5, 0.3);

    let mut maintain = Engine::with_config(db.clone(), cfg.clone());
    for q in queries {
        maintain.subscribe(q.clone(), StandingSpec::Knn { k, tau });
    }
    let mut fresh = Engine::with_config(db, cfg);

    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function("reanswer", |bench| {
        bench.iter(|| {
            let mut inserted = Vec::new();
            for obj in churn {
                inserted.push(fresh.insert(obj.clone()));
                for q in queries {
                    black_box(fresh.knn_threshold(q, k, tau));
                }
            }
            for id in inserted {
                fresh.remove(id);
                for q in queries {
                    black_box(fresh.knn_threshold(q, k, tau));
                }
            }
        })
    });
    g.bench_function("maintain", |bench| {
        bench.iter(|| {
            let mut inserted = Vec::new();
            for obj in churn {
                inserted.push(maintain.insert(obj.clone()));
                black_box(maintain.take_standing_deltas());
            }
            for id in inserted {
                maintain.remove(id);
                black_box(maintain.take_standing_deltas());
            }
        })
    });
    g.finish();
}

fn bench_serve(c: &mut Criterion) {
    let scale = match std::env::var("UDB_BENCH_SCALE").as_deref() {
        Ok("ci") => Scale::ci(),
        Ok("paper") => Scale::paper(),
        _ => Scale::smoke(),
    };
    // the denser extent the idca bench uses, so queries carry a
    // realistic influence-object set into refinement
    let uniform_cfg = scale.synthetic_config(0.05);
    serve_pair(c, "serve_stream", &uniform_cfg, scale.max_iterations);
    serve_durable_pair(
        c,
        "serve_stream_durable",
        &uniform_cfg,
        scale.max_iterations,
    );
    serve_sharded_pair(
        c,
        "serve_stream_sharded",
        &uniform_cfg,
        scale.max_iterations,
    );
    serve_standing_pair(
        c,
        "serve_stream_standing",
        &uniform_cfg,
        scale.max_iterations,
    );
    // the Gaussian variant makes decomposition genuinely expensive
    // (inverse-CDF splits), so the decomposition cache carries a larger
    // share of the work
    let gaussian_cfg = SyntheticConfig {
        pdf: PdfKind::Gaussian,
        ..uniform_cfg
    };
    serve_pair(
        c,
        "serve_stream_gaussian",
        &gaussian_cfg,
        scale.max_iterations,
    );
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
