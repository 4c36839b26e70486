//! Facility placement: probabilistic reverse kNN over uncertain customer
//! locations.
//!
//! A service point is proposed at a fixed location; customers' positions
//! are uncertain (e.g. location data released at grid precision). The
//! probabilistic threshold RkNN query of Corollary 5 asks which customers
//! would have the new facility among their k nearest service points with
//! probability above τ — the facility's probable catchment.
//!
//! ```sh
//! cargo run --release --example reverse_knn_facility
//! ```

use uncertain_db::prelude::*;

fn main() {
    // customers with uncertain positions, clustered in two neighbourhoods
    let mut objects = Vec::new();
    let clusters = [(0.3, 0.3), (0.75, 0.7)];
    for (ci, (cx, cy)) in clusters.iter().enumerate() {
        for i in 0..6 {
            let angle = i as f64 * std::f64::consts::TAU / 6.0;
            let x = cx + 0.12 * angle.cos();
            let y = cy + 0.12 * angle.sin();
            let spread = 0.02 + 0.01 * ((ci + i) % 3) as f64;
            objects.push(UncertainObject::new(Pdf::uniform(Rect::centered(
                &Point::from([x, y]),
                &[spread, spread],
            ))));
        }
    }
    let db = Database::from_objects(objects);

    // proposed facility between the clusters, slightly closer to one
    let facility = UncertainObject::certain(Point::from([0.45, 0.42]));

    let engine = Engine::with_config(
        db,
        IdcaConfig {
            max_iterations: 8,
            ..Default::default()
        },
    );

    for (k, tau) in [(1usize, 0.5f64), (2, 0.5)] {
        println!("== customers with P(facility among their {k} nearest) > {tau} ==");
        let mut res = engine.rknn_threshold(&facility, k, tau);
        res.sort_by(|a, b| b.prob_lower.partial_cmp(&a.prob_lower).unwrap());
        let mut hits = 0;
        for r in &res {
            let verdict = if r.is_hit(tau) {
                hits += 1;
                "HIT      "
            } else if r.is_drop(tau) {
                "drop     "
            } else {
                "undecided"
            };
            println!(
                "  {verdict} customer {}: P in [{:.3}, {:.3}]",
                r.id, r.prob_lower, r.prob_upper
            );
        }
        println!("  -> probable catchment: {hits} customers\n");
    }

    // sanity view: expected ranks of the facility from each customer's
    // perspective would require per-customer reference queries; show the
    // plain distance ranking instead
    println!("closest customers by MinDist (spatial view):");
    for n in engine.tree().knn(facility.mbr(), 5, LpNorm::L2) {
        println!("  {}: {:.4}", n.payload, n.dist);
    }
}
