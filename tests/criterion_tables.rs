//! The refiner's criterion tables across density families: uniform,
//! Gaussian, correlated-histogram and discrete objects in 1–3
//! dimensions refine to depth 6. Every incremental snapshot must match
//! the cache-free recompute, and (this suite runs as a debug build)
//! every table decision is cross-checked against the kernel inside the
//! pair walk. `Refiner::partition_tests` shows which path the tests
//! took: the uniform objects share intervals and use the tables, the
//! correlated histograms share too few and call the kernel.
//!
//! Depth 6 is also the refiners' iteration budget, so their last
//! snapshot walks the final level, which keeps no factor cache: it must
//! equal, bit for bit and count for count, the cached walk of the same
//! level by a refiner with a larger budget, at 1 and 2 pair lanes.
//!
//! A refiner keeps its last snapshot until a step makes progress: a
//! repeated snapshot, at the final level and at a cached one below it,
//! returns the same bits and leaves every counter but the round count
//! alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
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

/// The full-PDF refiner of object 0 w.r.t. `reference`, with iteration budget `max_iterations` and `threads` pair lanes.
fn build_refiner<'a>(
    db: &'a Database,
    reference: &'a UncertainObject,
    max_iterations: usize,
    threads: usize,
) -> Refiner<'a> {
    Refiner::new(
        db,
        ObjRef::Db(ObjectId(0)),
        ObjRef::External(reference),
        IdcaConfig {
            max_iterations,
            uncertainty_target: 0.0,
            snapshot_threads: threads,
            ..Default::default()
        },
        Predicate::FullPdf,
    )
}

/// Asserts the incremental snapshot `inc` matches the cache-free
/// recompute `scratch` within 1e-12.
fn assert_matches_scratch(inc: &DomCountSnapshot, scratch: &DomCountSnapshot, what: &str) {
    let it = inc.iteration;
    assert_eq!(inc.bounds.len(), scratch.bounds.len());
    for k in 0..inc.bounds.len() {
        for (x, y, side) in [
            (inc.bounds.lower(k), scratch.bounds.lower(k), "lower"),
            (inc.bounds.upper(k), scratch.bounds.upper(k), "upper"),
        ] {
            assert!(
                (x - y).abs() < 1e-12,
                "{what} iteration {it} {side}({k}): {x} vs {y}"
            );
        }
    }
}

/// Every bound of a snapshot, as bits.
fn bits(snap: &DomCountSnapshot) -> Vec<u64> {
    (0..snap.bounds.len())
        .flat_map(|k| [snap.bounds.lower(k), snap.bounds.upper(k)])
        .map(f64::to_bits)
        .collect()
}

/// Snapshots every level, as `Refiner::run` does, until `depth` or until
/// nothing splits; returns the last snapshot.
fn walk_to(refiner: &mut Refiner<'_>, depth: usize) -> DomCountSnapshot {
    loop {
        let snap = refiner.snapshot();
        if refiner.iteration() >= depth || !refiner.step() {
            return snap;
        }
    }
}

/// Refines the domination count of object 0 w.r.t. an external
/// reference to depth 6 (or until nothing splits), comparing every
/// snapshot with the cache-free recompute, then checks the final level
/// (see the module docs) and one step past it; returns the
/// partition-test counts `(tabled, kernel)`.
fn refine_and_check(kind: Kind, dims: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0x7AB1E + dims as u64);
    let db = Database::from_objects((0..8).map(|_| object(kind, dims, &mut rng)).collect());
    let reference = object(kind, dims, &mut rng);
    let what = format!("{kind:?} {dims}-D");
    let mut refiner = build_refiner(&db, &reference, 6, 1);
    assert!(
        refiner.influence_ids().len() > 0,
        "{what}: no influence object, nothing refines"
    );
    let last = loop {
        let inc = refiner.snapshot();
        assert_matches_scratch(&inc, &refiner.snapshot_from_scratch(), &what);
        if refiner.iteration() >= 6 || !refiner.step() {
            break inc;
        }
    };
    // a discrete object stops splitting once each partition holds one
    // point; the continuous families reach depth 6
    if kind != Kind::Discrete {
        assert_eq!(refiner.iteration(), 6, "{what} stopped early");
    }
    let tests = refiner.partition_tests();
    let counts = (refiner.open_stats(), refiner.cache_stats(), tests);

    // a repeated snapshot without a step is the same snapshot
    assert_eq!(bits(&refiner.snapshot()), bits(&last), "{what}: repeated");
    assert_eq!(
        (
            refiner.open_stats(),
            refiner.cache_stats(),
            refiner.partition_tests()
        ),
        counts,
        "{what}: repeated"
    );
    // a larger budget walks the same level through its factor cache:
    // the same snapshot and counts, and at 2 lanes the same bits
    let mut cached = build_refiner(&db, &reference, 7, 1);
    assert_eq!(
        bits(&walk_to(&mut cached, 6)),
        bits(&last),
        "{what}: cached"
    );
    assert_eq!(
        (
            cached.open_stats(),
            cached.cache_stats(),
            cached.partition_tests()
        ),
        counts,
        "{what}: cached"
    );
    let mut lanes = build_refiner(&db, &reference, 6, 2);
    assert_eq!(
        bits(&walk_to(&mut lanes, 6)),
        bits(&last),
        "{what}: 2 lanes"
    );
    assert_eq!(
        (
            lanes.open_stats(),
            lanes.cache_stats(),
            lanes.partition_tests()
        ),
        counts,
        "{what}: 2 lanes"
    );
    // below the budget the level is cached: a repeated snapshot is the
    // kept one, and the walk after the next step still matches
    let stats = Arc::new(RefineStats::default());
    let mut mid = build_refiner(&db, &reference, 6, 1).with_stats(Arc::clone(&stats));
    walk_to(&mut mid, 2);
    let stepped = mid.step();
    let first = mid.snapshot();
    let counts = (mid.open_stats(), mid.cache_stats(), mid.partition_tests());
    let rounds = stats.rounds();
    assert_eq!(
        bits(&mid.snapshot()),
        bits(&first),
        "{what}: repeated at depth 3"
    );
    assert_eq!(
        (mid.open_stats(), mid.cache_stats(), mid.partition_tests()),
        counts,
        "{what}: repeated at depth 3"
    );
    assert_eq!(stats.rounds(), rounds + 1, "{what}: one round per call");
    if stepped && mid.step() {
        let next = mid.snapshot();
        assert_matches_scratch(&next, &mid.snapshot_from_scratch(), &what);
    }
    // past the budget (a shallower one, to keep the cache-free oracle
    // cheap) the uncached refiner rebuilds from nothing
    let mut short = build_refiner(&db, &reference, 3, 1);
    walk_to(&mut short, 3);
    if short.step() {
        let past = short.snapshot();
        assert_matches_scratch(&past, &short.snapshot_from_scratch(), &what);
        assert_eq!(
            bits(&short.snapshot()),
            bits(&past),
            "{what}: repeated past"
        );
    }
    tests
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
