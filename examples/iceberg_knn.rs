//! Iceberg tracking: probabilistic kNN over the simulated IIP
//! iceberg-sightings workload (the paper's real-world scenario).
//!
//! A ship reports its position; we ask which sighted icebergs are among
//! its k nearest hazards with confidence above a threshold — exactly the
//! probabilistic threshold kNN query of §VI. Older sightings carry larger
//! positional uncertainty, so the answer is genuinely probabilistic.
//!
//! ```sh
//! cargo run --release --example iceberg_knn
//! ```

use uncertain_db::prelude::*;

fn main() {
    // the simulated 2009 sightings (6,216 in the paper; 1,200 here so the
    // example runs in seconds)
    let db = IcebergConfig {
        n: 1_200,
        ..Default::default()
    }
    .generate();
    println!("generated {} simulated iceberg sightings", db.len());

    // index the MBRs to find a busy region for the demo ship position
    let tree = RTree::bulk_load(db.mbrs().map(|(id, r)| (r.clone(), id)).collect(), 16);
    let ship = UncertainObject::certain(Point::from([0.45, 0.5]));
    let nearest = tree.knn(ship.mbr(), 5, LpNorm::L2);
    println!("\nclosest sighted icebergs by MinDist:");
    for n in &nearest {
        println!("  {}: MinDist {:.6}", n.payload, n.dist);
    }

    // probabilistic threshold 3NN with tau = 0.5
    let engine = Engine::with_config(
        db,
        IdcaConfig {
            max_iterations: 8,
            ..Default::default()
        },
    );
    let k = 3;
    let tau = 0.5;
    println!("\n== P(iceberg among {k}NN of ship) > {tau} ==");
    let mut results = engine.knn_threshold(&ship, k, tau);
    results.sort_by(|a, b| b.prob_lower.partial_cmp(&a.prob_lower).unwrap());
    for r in &results {
        let verdict = if r.is_hit(tau) {
            "HIT      "
        } else if r.is_drop(tau) {
            "drop     "
        } else {
            "undecided"
        };
        println!(
            "  {verdict} {}: P in [{:.3}, {:.3}] ({} iterations)",
            r.id, r.prob_lower, r.prob_upper, r.iterations
        );
    }
    let hits = results.iter().filter(|r| r.is_hit(tau)).count();
    println!(
        "\n{hits} certain hits out of {} candidates that survived spatial pruning",
        results.len()
    );

    // inverse ranking of the nearest sighting: where does it rank among
    // all hazards for this ship?
    let target = nearest[0].payload;
    let rd = engine.inverse_ranking(ObjRef::Db(target), ObjRef::External(&ship));
    println!("\n== inverse ranking of {target} ==");
    for rank in 1..=4 {
        let (lo, hi) = rd.rank_bounds(rank);
        if hi > 1e-4 {
            println!("  P(rank = {rank}) in [{lo:.3}, {hi:.3}]");
        }
    }
}
