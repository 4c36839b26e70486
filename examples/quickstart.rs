//! Quickstart: build a small uncertain database, run a probabilistic
//! threshold kNN query and inspect a full domination-count refinement.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use uncertain_db::prelude::*;

fn main() {
    // An uncertain database: four sensors reporting imprecise positions.
    // Each object is a bounded density over its uncertainty rectangle.
    let db = Database::from_objects(vec![
        // sensor 0: uniform uncertainty around (1.0, 0.5)
        UncertainObject::new(Pdf::uniform(Rect::centered(
            &Point::from([1.0, 0.5]),
            &[0.3, 0.2],
        ))),
        // sensor 1: truncated Gaussian around (2.0, 0.4)
        UncertainObject::new(
            GaussianPdf::truncated_at_sigmas(Point::from([2.0, 0.4]), vec![0.15, 0.15], 3.0).into(),
        ),
        // sensor 2: correlated uncertainty (positively correlated x/y)
        UncertainObject::new(
            HistogramPdf::from_correlated_gaussian(
                Point::from([2.2, 1.2]),
                [0.2, 0.2],
                0.8,
                Rect::centered(&Point::from([2.2, 1.2]), &[0.5, 0.5]),
                16,
            )
            .into(),
        ),
        // sensor 3: an exact (certain) position
        UncertainObject::certain(Point::from([3.5, 0.0])),
    ]);

    // A certain query point.
    let q = UncertainObject::certain(Point::from([0.0, 0.0]));

    // The owned serving engine: takes the database, builds the R-tree,
    // and keeps a persistent decomposition cache across queries.
    println!("== probabilistic threshold 2NN query (tau = 0.5) ==");
    let mut engine = Engine::new(db);
    for r in engine.knn_threshold(&q, 2, 0.5) {
        let verdict = if r.is_hit(0.5) {
            "HIT"
        } else if r.is_drop(0.5) {
            "drop"
        } else {
            "undecided"
        };
        println!(
            "  {}: P(among 2NN) in [{:.3}, {:.3}]  ({} after {} iterations)",
            r.id, r.prob_lower, r.prob_upper, verdict, r.iterations
        );
    }

    // In-place mutation: a fifth sensor comes online near the query; no
    // index rebuild, the R-tree and caches are maintained incrementally.
    println!("\n== sensor 4 comes online at (0.6, 0.2) ==");
    let new_id = engine.insert(UncertainObject::new(Pdf::uniform(Rect::centered(
        &Point::from([0.6, 0.2]),
        &[0.1, 0.1],
    ))));
    for r in engine.knn_threshold(&q, 2, 0.5) {
        if r.id == new_id && r.is_hit(0.5) {
            println!("  {}: immediately a certain 2NN member", r.id);
        }
    }
    engine.remove(new_id); // ...and goes away again, in place

    println!("\n== full domination-count refinement for sensor 1 ==");
    let mut refiner = engine.refiner(
        ObjRef::Db(ObjectId(1)),
        ObjRef::External(&q),
        Predicate::FullPdf,
    );
    println!(
        "  filter: {} certain dominators, influence set {:?}",
        refiner.complete_count(),
        refiner.influence_ids().collect::<Vec<_>>()
    );
    let mut snap = refiner.snapshot();
    println!(
        "  iteration 0: accumulated uncertainty {:.4}",
        snap.uncertainty()
    );
    while snap.uncertainty() > 1e-3 && refiner.step() {
        snap = refiner.snapshot();
        println!(
            "  iteration {}: accumulated uncertainty {:.4}",
            snap.iteration,
            snap.uncertainty()
        );
        if snap.iteration >= 8 {
            break;
        }
    }
    println!("\n  P(DomCount = k) bounds:");
    for k in 0..snap.bounds.len() {
        println!(
            "    k = {k}: [{:.4}, {:.4}]",
            snap.bounds.lower(k),
            snap.bounds.upper(k)
        );
    }
    let (lo, hi) = snap.bounds.expected_rank_bounds();
    println!("  expected rank of sensor 1 in [{lo:.3}, {hi:.3}]");
}
