//! Sensor monitoring: probabilistic inverse ranking with correlated
//! attribute uncertainty.
//!
//! A new measurement arrives from a noisy sensor and we ask: *what rank
//! does this reading take among the existing readings, by similarity to a
//! reference profile?* The reading's two attributes (e.g. temperature and
//! humidity drift) are correlated, exercising the paper's general
//! dependent-attribute uncertainty model; the answer is the probabilistic
//! inverse ranking distribution of Corollary 3, bounded by IDCA instead
//! of integrated numerically.
//!
//! ```sh
//! cargo run --release --example sensor_inverse_ranking
//! ```

use uncertain_db::prelude::*;

fn main() {
    // existing readings: mostly tight uniform uncertainty
    let mut objects = Vec::new();
    for (x, y, spread) in [
        (0.20, 0.30, 0.02),
        (0.35, 0.40, 0.05),
        (0.50, 0.45, 0.03),
        (0.55, 0.60, 0.08),
        (0.70, 0.65, 0.04),
        (0.85, 0.80, 0.06),
    ] {
        objects.push(UncertainObject::new(Pdf::uniform(Rect::centered(
            &Point::from([x, y]),
            &[spread, spread],
        ))));
    }
    // the new reading: strongly correlated noise (drift affects both
    // attributes together) — a density no marginal product can express
    let new_reading = UncertainObject::new(
        HistogramPdf::from_correlated_gaussian(
            Point::from([0.52, 0.52]),
            [0.06, 0.06],
            0.9,
            Rect::centered(&Point::from([0.52, 0.52]), &[0.15, 0.15]),
            24,
        )
        .into(),
    );
    let target_id = {
        let mut engine = Engine::with_config(
            Database::from_objects(objects),
            IdcaConfig {
                max_iterations: 10,
                uncertainty_target: 1e-3,
                ..Default::default()
            },
        );
        let id = engine.insert(new_reading);
        // reference profile the ranking is measured against
        let reference = UncertainObject::certain(Point::from([0.45, 0.5]));
        let rd = engine.inverse_ranking(ObjRef::Db(id), ObjRef::External(&reference));

        println!("== probabilistic inverse ranking of the new reading ==");
        println!("(rank r means: r−1 existing readings are closer to the profile)\n");
        for rank in 1..=engine.db().len() {
            let (lo, hi) = rd.rank_bounds(rank);
            if hi > 1e-4 {
                let bar = "#".repeat((hi * 40.0) as usize);
                println!("  P(rank = {rank}) in [{lo:.3}, {hi:.3}]  {bar}");
            }
        }
        let (lo, hi) = rd.expected_rank_bounds();
        println!("\nexpected rank in [{lo:.3}, {hi:.3}]");
        let (clo, chi) = rd.rank_cdf_bounds(3);
        println!("P(rank <= 3) in [{clo:.3}, {chi:.3}]");
        println!(
            "refined for {} iterations over {} influence objects",
            rd.snapshot.iteration, rd.snapshot.influence_count
        );
        id
    };
    println!("\n(new reading stored as {target_id})");
}
