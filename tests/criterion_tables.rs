//! The refiner's criterion tables across density families: uniform,
//! Gaussian, correlated-histogram and discrete objects in 1–3
//! dimensions refine to depth 6. Every incremental snapshot must match
//! the cache-free recompute, and (this suite runs as a debug build)
//! every table decision is cross-checked against the kernel inside the
//! pair walk. `Refiner::partition_tests` shows which path the tests
//! took: the uniform objects share intervals and use the tables, the
//! correlated histograms share too few and call the kernel.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::prelude::*;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Uniform,
    Gaussian,
    CorrelatedHistogram,
    Discrete,
}

/// One object of `kind` around a random center in the unit cube, wide
/// enough that the objects of a database overlap.
fn object(kind: Kind, dims: usize, rng: &mut StdRng) -> UncertainObject {
    let center: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.0..1.0)).collect();
    let half: Vec<f64> = (0..dims).map(|_| rng.gen_range(0.2..0.4)).collect();
    let support = Rect::centered(&Point::new(center.clone()), &half);
    let pdf: Pdf = match kind {
        Kind::Uniform => Pdf::uniform(support),
        Kind::Gaussian => {
            let std = half.iter().map(|h| h / 2.0).collect();
            GaussianPdf::new(Point::new(center), std, support).into()
        }
        Kind::CorrelatedHistogram => {
            // neighbouring axes correlated with coefficient rho
            let rho = rng.gen_range(-0.9..0.9);
            HistogramPdf::from_fn(support, vec![8; dims], |p| {
                let z: Vec<f64> = (0..dims).map(|i| (p[i] - center[i]) / half[i]).collect();
                let quad: f64 = z.iter().map(|x| x * x).sum::<f64>()
                    - 2.0 * rho * z.windows(2).map(|w| w[0] * w[1]).sum::<f64>();
                (-quad).exp()
            })
            .into()
        }
        Kind::Discrete => {
            let points = (0..24)
                .map(|_| {
                    Point::new(
                        (0..dims)
                            .map(|i| center[i] + half[i] * rng.gen_range(-1.0..1.0))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect();
            DiscretePdf::equally_weighted(points).into()
        }
    };
    UncertainObject::new(pdf)
}

/// Refines the domination count of object 0 w.r.t. an external
/// reference to depth 6 (or until nothing splits), comparing every
/// snapshot with the cache-free recompute; returns the partition-test counts `(tabled, kernel)`.
fn refine_and_check(kind: Kind, dims: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0x7AB1E + dims as u64);
    let db = Database::from_objects((0..8).map(|_| object(kind, dims, &mut rng)).collect());
    let reference = object(kind, dims, &mut rng);
    let mut refiner = Refiner::new(
        &db,
        ObjRef::Db(ObjectId(0)),
        ObjRef::External(&reference),
        IdcaConfig {
            max_iterations: 6,
            uncertainty_target: 0.0,
            snapshot_threads: 1,
            ..Default::default()
        },
        Predicate::FullPdf,
    );
    assert!(
        refiner.influence_ids().len() > 0,
        "{kind:?} {dims}-D: no influence object, nothing refines"
    );
    loop {
        let inc = refiner.snapshot();
        let scratch = refiner.snapshot_from_scratch();
        let it = inc.iteration;
        assert_eq!(inc.bounds.len(), scratch.bounds.len());
        for k in 0..inc.bounds.len() {
            for (x, y, side) in [
                (inc.bounds.lower(k), scratch.bounds.lower(k), "lower"),
                (inc.bounds.upper(k), scratch.bounds.upper(k), "upper"),
            ] {
                assert!(
                    (x - y).abs() < 1e-12,
                    "{kind:?} {dims}-D iteration {it} {side}({k}): {x} vs {y}"
                );
            }
        }
        if refiner.iteration() >= 6 || !refiner.step() {
            break;
        }
    }
    // a discrete object stops splitting once each partition holds one
    // point; the continuous families reach depth 6
    if kind != Kind::Discrete {
        assert_eq!(refiner.iteration(), 6, "{kind:?} {dims}-D stopped early");
    }
    refiner.partition_tests()
}

#[test]
fn every_density_family_refines_through_the_tables_exactly() {
    for kind in [
        Kind::Uniform,
        Kind::Gaussian,
        Kind::CorrelatedHistogram,
        Kind::Discrete,
    ] {
        for dims in 1..=3 {
            let (tabled, kernel) = refine_and_check(kind, dims);
            let counts = format!("{kind:?} {dims}-D: {tabled} tabled vs {kernel} kernel tests");
            assert!(tabled + kernel > 0, "{counts}");
            match (kind, dims) {
                // 1-D partitions are disjoint intervals: nothing to share
                (_, 1) => assert_eq!(tabled, 0, "{counts}"),
                (Kind::Uniform, _) => assert!(tabled > 4 * kernel, "{counts}"),
                (Kind::CorrelatedHistogram, 2) => assert!(kernel > 4 * tabled, "{counts}"),
                _ => {}
            }
        }
    }
}
