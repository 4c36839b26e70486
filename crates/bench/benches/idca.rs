//! Figures 6(b)/7 analog: IDCA refinement cost per iteration depth, plus
//! the incremental-vs-from-scratch snapshot comparison and the
//! indexed-early-exit-vs-scan query comparison backing this repo's
//! BENCH_idca.json baselines.
//!
//! `UDB_BENCH_SCALE=ci` switches from the smoke workload to the larger
//! CI scale (2,000 objects) for the recorded `--ci` baselines.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use udb_bench::Scale;
use udb_core::{
    scan, DomCountSnapshot, Engine, IdcaConfig, ObjRef, PoolHandle, Predicate, Refiner,
};

fn bench_idca(c: &mut Criterion) {
    let scale = match std::env::var("UDB_BENCH_SCALE").as_deref() {
        Ok("ci") => Scale::ci(),
        Ok("paper") => Scale::paper(),
        _ => Scale::smoke(),
    };
    // a denser extent than the paper's default so queries carry a
    // realistic influence-object set (~a dozen) into refinement
    let cfg = scale.synthetic_config(0.05);
    let db = cfg.generate();
    let qs = scale.query_set(&db, &cfg);
    let (r, b) = (qs.references[0].clone(), qs.targets[0]);

    let mk_cfg = |depth: usize| IdcaConfig {
        max_iterations: depth,
        uncertainty_target: 0.0,
        ..Default::default()
    };
    // the bigger CI workload caps the depth sweep: the from-scratch
    // baseline grows ~4x per level and would dominate the suite's budget
    let depths: &[usize] = if scale.synthetic_n > 1000 {
        &[1, 2, 3, 4]
    } else {
        &[1, 2, 3, 4, 5, 6]
    };

    // full run (filter + iterate + snapshot per iteration) — the
    // incremental cache is what run() exercises
    let mut g = c.benchmark_group("idca_refine_to_depth");
    g.sample_size(20);
    for &depth in depths {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |bench, &d| {
            bench.iter(|| {
                let mut refiner = Refiner::new(
                    &db,
                    ObjRef::Db(b),
                    ObjRef::External(&r),
                    mk_cfg(d),
                    Predicate::FullPdf,
                );
                black_box(refiner.run())
            })
        });
    }
    g.finish();

    // the same work with every snapshot recomputed from scratch — the
    // pre-optimization behavior; the ratio to the group above is the
    // incremental-cache speedup recorded in BENCH_idca.json
    let mut g = c.benchmark_group("idca_refine_to_depth_from_scratch");
    g.sample_size(20);
    for &depth in depths {
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |bench, &d| {
            bench.iter(|| {
                let mut refiner = Refiner::new(
                    &db,
                    ObjRef::Db(b),
                    ObjRef::External(&r),
                    mk_cfg(d),
                    Predicate::FullPdf,
                );
                let mut snap = refiner.snapshot_from_scratch();
                for _ in 0..d {
                    if !refiner.step() {
                        break;
                    }
                    snap = refiner.snapshot_from_scratch();
                }
                black_box(snap)
            })
        });
    }
    g.finish();

    // a rebuilding snapshot at depth 4: setup (untimed) refines a fresh
    // refiner to depth 3, the timed routine expands to depth 4 and
    // snapshots, so every iteration walks the pairs whose partitions
    // changed. The from-scratch side recomputes the depth-4 snapshot
    // without the cache (its cost does not depend on what changed).
    let refined_to = |depth: usize, cfg: IdcaConfig, pool: &PoolHandle| {
        let mut refiner = Refiner::new(
            &db,
            ObjRef::Db(b),
            ObjRef::External(&r),
            cfg,
            Predicate::FullPdf,
        )
        .with_pool(pool.clone());
        let _ = refiner.snapshot();
        for _ in 0..depth {
            refiner.step();
            let _ = refiner.snapshot();
        }
        refiner
    };
    fn step_and_snapshot(mut refiner: Refiner<'_>) -> (Refiner<'_>, DomCountSnapshot) {
        refiner.step();
        let snap = refiner.snapshot();
        (refiner, snap)
    }
    let sequential = PoolHandle::default();
    let refined = refined_to(4, mk_cfg(4), &sequential);
    let mut g = c.benchmark_group("idca_snapshot_depth4");
    g.sample_size(20);
    g.bench_function("incremental", |bench| {
        bench.iter_batched(
            || refined_to(3, mk_cfg(4), &sequential),
            step_and_snapshot,
            BatchSize::LargeInput,
        )
    });
    g.bench_function("from_scratch", |bench| {
        bench.iter(|| black_box(refined.snapshot_from_scratch()))
    });
    g.finish();

    // parallel snapshot scaling on a deep rebuilding snapshot (the pair
    // loop is what IdcaConfig::snapshot_threads fans out; shallow
    // snapshots are too small to amortize pool dispatch): setup refines
    // to depth 5 on one shared pool per lane count, the routine expands
    // to depth 6 and snapshots
    let mut g = c.benchmark_group("idca_snapshot_depth6_threads");
    g.sample_size(20);
    for threads in [1usize, 2, 4] {
        let cfg = IdcaConfig {
            snapshot_threads: threads,
            ..mk_cfg(6)
        };
        let pool = PoolHandle::default();
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, _| {
                bench.iter_batched(
                    || refined_to(5, cfg.clone(), &pool),
                    step_and_snapshot,
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();

    // index-integrated early-exit query processing vs the
    // full-refinement scan oracle (`udb_core::scan`): same query, same
    // results (the equivalence is property-tested), different work. The
    // scan oracle filters candidates with an O(n) pass and builds every refiner with
    // a second O(n) scan; the indexed engine streams candidates from the
    // R-tree, filters each refiner through subtree classification and
    // retires candidates mid-loop.
    let mut g = c.benchmark_group("idca_indexed_early_exit");
    g.sample_size(20);
    let knn_cfg = IdcaConfig {
        max_iterations: scale.max_iterations,
        ..Default::default()
    };
    // a freshly built engine per iteration (built untimed): the indexed
    // side decomposes cold, like the scan oracle, instead of replaying
    // the previous iteration's expansions from the engine's cache
    let fresh_engine = || Engine::with_config(db.clone(), knn_cfg.clone());
    let (k, tau) = (5usize, 0.3f64);
    // the "bitter end" baseline: every candidate refined to convergence
    // (no threshold to decide against mid-loop), classified vs tau only
    // afterwards — the per-candidate behaviour the decided-outcome
    // retirement removes
    g.bench_function("knn_threshold_full_refinement", |bench| {
        bench.iter(|| {
            let mut out = Vec::new();
            for id in scan::knn_candidates(&db, &knn_cfg, r.mbr(), k) {
                let mut refiner = Refiner::new(
                    &db,
                    ObjRef::Db(id),
                    ObjRef::External(&r),
                    knn_cfg.clone(),
                    Predicate::CountBelow { k },
                );
                let snap = refiner.run();
                let (lo, hi) = snap.predicate_cdf.expect("CDF");
                if hi > 0.0 {
                    out.push((id, lo > tau, hi <= tau));
                }
            }
            black_box(out)
        })
    });
    g.bench_function("knn_threshold_scan", |bench| {
        bench.iter(|| black_box(scan::knn_threshold(&db, &knn_cfg, &r, k, tau)))
    });
    g.bench_function("knn_threshold_indexed", |bench| {
        bench.iter_batched(
            fresh_engine,
            |engine| {
                let out = engine.knn_threshold(&r, k, tau);
                (engine, out)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("rknn_threshold_scan", |bench| {
        bench.iter(|| black_box(scan::rknn_threshold(&db, &knn_cfg, &r, 2, tau)))
    });
    g.bench_function("rknn_threshold_indexed", |bench| {
        bench.iter_batched(
            fresh_engine,
            |engine| {
                let out = engine.rknn_threshold(&r, 2, tau);
                (engine, out)
            },
            BatchSize::LargeInput,
        )
    });
    g.bench_function("top_probable_nn_scan", |bench| {
        bench.iter(|| black_box(scan::top_probable_nn(&db, &knn_cfg, &r, 3)))
    });
    g.bench_function("top_probable_nn_indexed", |bench| {
        bench.iter_batched(
            fresh_engine,
            |engine| {
                let out = engine.top_probable_nn(&r, 3);
                (engine, out)
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();

    // candidate-parallel refinement: the same indexed threshold query
    // with its candidates fanned over 1/2/4 lanes, each refined to its
    // own stop (1 = inline, in order). Results are bit-identical across
    // lane counts (property-tested); on a multi-core host the ratio to
    // lane count 1 is the candidate-parallel speedup, on a single-CPU
    // container it records pool dispatch overhead.
    let mut g = c.benchmark_group("idca_early_exit_candidate_threads");
    g.sample_size(20);
    for threads in [1usize, 2, 4] {
        let cfg = IdcaConfig {
            candidate_threads: threads,
            max_iterations: scale.max_iterations,
            ..Default::default()
        };
        // a fresh engine per iteration, its pool started during setup
        let setup = || {
            let engine = Engine::with_config(db.clone(), cfg.clone());
            engine.pool_handle().get(threads);
            engine
        };
        g.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |bench, _| {
                bench.iter_batched(
                    setup,
                    |engine| {
                        let out = engine.knn_threshold(&r, k, tau);
                        (engine, out)
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("idca_filter_only");
    g.bench_function("snapshot_iteration0", |bench| {
        bench.iter(|| {
            let mut refiner = Refiner::new(
                &db,
                ObjRef::Db(b),
                ObjRef::External(&r),
                IdcaConfig::default(),
                Predicate::FullPdf,
            );
            black_box(refiner.snapshot())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_idca);
criterion_main!(benches);
