//! Figure 8 analog: threshold-predicate queries (IDCA early termination)
//! vs the Monte-Carlo full-PDF baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use udb_bench::Scale;
use udb_core::{Engine, IdcaConfig, ObjRef, Predicate, Refiner};
use udb_mc::MonteCarlo;

fn bench_predicates(c: &mut Criterion) {
    let scale = Scale::smoke();
    let (db, cfg) = scale.synthetic_db();
    let qs = scale.query_set(&db, &cfg);
    let (r, b) = (qs.references[0].clone(), qs.targets[0]);

    let mut g = c.benchmark_group("threshold_refine");
    g.sample_size(20);
    for (k, tau) in [(1usize, 0.5f64), (5, 0.25), (5, 0.75), (15, 0.5)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_tau{tau}")),
            &(k, tau),
            |bench, &(k, tau)| {
                bench.iter(|| {
                    black_box(
                        Refiner::new(
                            &db,
                            ObjRef::Db(b),
                            ObjRef::External(&r),
                            IdcaConfig {
                                max_iterations: scale.max_iterations,
                                uncertainty_target: 0.0,
                                ..Default::default()
                            },
                            Predicate::Threshold { k, tau },
                        )
                        .run(),
                    )
                })
            },
        );
    }
    g.finish();

    let mut g = c.benchmark_group("mc_reference");
    g.sample_size(10);
    let mc = MonteCarlo {
        samples: scale.mc_samples,
        ..Default::default()
    };
    g.bench_function("full_pdf", |bench| {
        bench.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            black_box(mc.domination_count(&db, b, &r, &mut rng))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("whole_query");
    g.sample_size(10);
    g.bench_function("knn_threshold_k3", |bench| {
        let engine = Engine::new(db.clone());
        bench.iter(|| black_box(engine.knn_threshold(&r, 3, 0.5)))
    });
    g.finish();
}

criterion_group!(benches, bench_predicates);
criterion_main!(benches);
