//! Probabilistic ranking: expected ranks, rank distributions and the
//! expected-distance pitfall.
//!
//! The paper (§II, citing [19], [25]) argues that ranking uncertain
//! objects by *expected distance* "does not adhere to the possible world
//! semantics and may thus produce very inaccurate results". This example
//! constructs exactly such a case — a bimodal object whose mean is near
//! the query while its actual positions never are — and contrasts three
//! rankings the library offers:
//!
//! 1. the expected-distance baseline (Ljosa & Singh [22] style),
//! 2. the possible-world **expected-rank** ranking (Corollary 6),
//! 3. the full **rank distributions** (probabilistic ranking, §VI).
//!
//! ```sh
//! cargo run --release --example probabilistic_ranking
//! ```

use uncertain_db::prelude::*;

fn main() {
    // a bimodal "ghost" object: mean at the origin-side, mass far away
    let ghost = UncertainObject::new(
        MixturePdf::new(vec![
            (
                1.0,
                Pdf::uniform(Rect::centered(&Point::from([-10.0, 0.0]), &[0.2, 0.2])),
            ),
            (
                1.0,
                Pdf::uniform(Rect::centered(&Point::from([10.0, 0.0]), &[0.2, 0.2])),
            ),
        ])
        .into(),
    );
    // steady objects at moderate distances
    let db = Database::from_objects(vec![
        ghost,
        UncertainObject::new(Pdf::uniform(Rect::centered(
            &Point::from([3.0, 0.0]),
            &[0.5, 0.5],
        ))),
        UncertainObject::new(Pdf::uniform(Rect::centered(
            &Point::from([4.5, 0.0]),
            &[0.5, 0.5],
        ))),
        UncertainObject::certain(Point::from([6.0, 0.0])),
    ]);
    let q = UncertainObject::certain(Point::from([0.0, 0.0]));
    let engine = Engine::with_config(
        db,
        IdcaConfig {
            max_iterations: 8,
            uncertainty_target: 1e-3,
            ..Default::default()
        },
    );

    println!("== 1. expected-distance baseline (misleading) ==");
    for (id, d) in engine.expected_distance_ranking(&q) {
        println!("  {id}: E[position] at distance {d:.2}");
    }
    println!("  -> ranks the bimodal o0 first, although it is never nearby!");

    println!("\n== 2. expected-rank ranking (possible-world semantics) ==");
    for e in engine.expected_rank_ranking(&q) {
        println!("  {}: E[rank] in [{:.2}, {:.2}]", e.id, e.lower, e.upper);
    }

    println!("\n== 3. full rank distributions ==");
    for (i, rd) in engine.ranking_distributions(&q).iter().enumerate() {
        print!("  o{i}:");
        for rank in 1..=engine.db().len() {
            let (lo, hi) = rd.rank_bounds(rank);
            if hi > 1e-3 {
                print!("  P(r={rank})∈[{lo:.2},{hi:.2}]");
            }
        }
        println!();
    }

    println!("\n== top probable nearest neighbour ==");
    for r in engine.top_probable_nn(&q, 2) {
        println!(
            "  {}: P(1NN) in [{:.3}, {:.3}]",
            r.id, r.prob_lower, r.prob_upper
        );
    }
}
