//! The standing-query bit-identity oracle: a registered subscription's
//! incrementally maintained result set must be **bit-identical** —
//! membership, order, `f64::to_bits` of both probability bounds,
//! iteration counts — to re-answering the query from scratch after
//! every mutation, for all three query types, at 1, 2 and 4 shards.
//!
//! Why this can be exact: the maintainer's tier decisions (skip /
//! partial re-refine / full re-answer) are purely geometric — MBR
//! distances against stored decided bounds — so they never depend on
//! shard count or index shape; and whenever it cannot *prove* a bound
//! stable it falls back to the same refinement pipeline a fresh query
//! runs, over the same candidate id set, multiplying UGF factors in the
//! same ascending-id order. See `crates/core/src/standing.rs` for the
//! per-tier soundness arguments.
//!
//! The suite also checks the pushed [`ResultDelta`]s: replaying a
//! subscription's deltas over its initial answer must reproduce the
//! maintained result set exactly, and the maintenance counters must be
//! shard-count-invariant.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uncertain_db::prelude::*;

/// A random uncertain object: mixed density families, occasional
/// existential uncertainty (mirrors the other equivalence oracles).
fn random_object(rng: &mut StdRng) -> UncertainObject {
    let cx: f64 = rng.gen_range(0.0..4.0);
    let cy: f64 = rng.gen_range(0.0..4.0);
    let hx: f64 = rng.gen_range(0.02..0.5);
    let hy: f64 = rng.gen_range(0.02..0.5);
    let center = Point::from([cx, cy]);
    let support = Rect::centered(&center, &[hx, hy]);
    let pdf: Pdf = match rng.gen_range(0..3) {
        0 => Pdf::uniform(support),
        1 => GaussianPdf::new(center, vec![hx / 2.0, hy / 2.0], support).into(),
        _ => {
            let n = rng.gen_range(2..5);
            let pts: Vec<Point> = (0..n)
                .map(|_| {
                    Point::from([
                        rng.gen_range(cx - hx..cx + hx),
                        rng.gen_range(cy - hy..cy + hy),
                    ])
                })
                .collect();
            DiscretePdf::equally_weighted(pts).into()
        }
    };
    if rng.gen_range(0..4) == 0 {
        UncertainObject::with_existence(pdf, rng.gen_range(0.3..1.0))
    } else {
        UncertainObject::new(pdf)
    }
}

fn random_db(rng: &mut StdRng, n: usize) -> Database {
    Database::from_objects((0..n).map(|_| random_object(rng)).collect())
}

fn config() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 4,
        uncertainty_target: 0.0,
        ..Default::default()
    }
}

/// `f64::to_bits`-exact comparison of two result sets.
fn assert_bit_identical(oracle: &[ThresholdResult], maintained: &[ThresholdResult], ctx: &str) {
    assert_eq!(
        maintained.len(),
        oracle.len(),
        "{ctx}: result count diverged"
    );
    for (a, b) in maintained.iter().zip(oracle.iter()) {
        assert_eq!(a.id, b.id, "{ctx}: membership/order diverged");
        assert_eq!(
            a.prob_lower.to_bits(),
            b.prob_lower.to_bits(),
            "{ctx}: lower bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.prob_upper.to_bits(),
            b.prob_upper.to_bits(),
            "{ctx}: upper bound diverged for {:?}",
            a.id
        );
        assert_eq!(
            a.iterations, b.iterations,
            "{ctx}: iteration count diverged for {:?}",
            a.id
        );
    }
}

/// Answers `spec` from scratch through the engine's one-shot entry
/// points — the oracle every maintained result set is held to.
fn reanswer(e: &ShardedEngine, q: &UncertainObject, spec: StandingSpec) -> Vec<ThresholdResult> {
    match spec {
        StandingSpec::Knn { k, tau } => e.knn_threshold(q, k, tau),
        StandingSpec::Rknn { k, tau } => e.rknn_threshold(q, k, tau),
        StandingSpec::TopM { m } => e.top_probable_nn(q, m),
    }
}

/// Replays one pushed delta over a client-side result mirror. Deltas
/// are set-based (membership + bounds; top-`m` sets are rank-ordered
/// and reorders alone never push a delta), so the mirror lives in
/// id-sorted form.
fn apply_delta(cur: &mut Vec<ThresholdResult>, d: &ResultDelta) {
    cur.retain(|r| !d.removed.contains(&r.id));
    for c in &d.changed {
        let slot = cur
            .iter_mut()
            .find(|r| r.id == c.id)
            .expect("CHG members survive in the result set");
        *slot = c.clone();
    }
    cur.extend(d.added.iter().cloned());
    cur.sort_by_key(|r| r.id);
}

/// Id-sorted view of a result set, for set-wise delta comparisons.
fn by_id(set: &[ThresholdResult]) -> Vec<ThresholdResult> {
    let mut sorted = set.to_vec();
    sorted.sort_by_key(|r| r.id);
    sorted
}

/// One scripted mutation; ids are global ids, identical at every shard
/// count (arrival-order assignment), so one script drives all engines.
#[derive(Clone)]
enum Mutation {
    Insert(UncertainObject),
    Remove(ObjectId),
    Update(ObjectId, UncertainObject),
}

/// Generates a mutation script against a simulated live-id set (global
/// ids are dense arrival indices, so no engine is needed to predict
/// them).
fn random_script(rng: &mut StdRng, n: usize, len: usize) -> Vec<Mutation> {
    let mut live: Vec<u32> = (0..n as u32).collect();
    let mut next_id = n as u32;
    (0..len)
        .map(|_| match rng.gen_range(0..3) {
            0 => {
                live.push(next_id);
                next_id += 1;
                Mutation::Insert(random_object(rng))
            }
            1 if live.len() > 6 => {
                let id = live.swap_remove(rng.gen_range(0..live.len()));
                Mutation::Remove(ObjectId(id))
            }
            _ => {
                let id = live[rng.gen_range(0..live.len())];
                Mutation::Update(ObjectId(id), random_object(rng))
            }
        })
        .collect()
}

/// The tentpole property: for every query type, at every shard count,
/// after every scripted mutation, the maintained result set is
/// bit-identical to re-answering — and replaying the pushed deltas over
/// the initial answer reproduces the maintained set.
fn check_standing_maintenance(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(12..30);
    let db = random_db(&mut rng, n);
    let queries: Vec<UncertainObject> = (0..3).map(|_| random_object(&mut rng)).collect();
    let specs = [
        StandingSpec::Knn { k: 3, tau: 0.25 },
        StandingSpec::Rknn { k: 3, tau: 0.25 },
        StandingSpec::TopM { m: 2 },
    ];
    let script = random_script(&mut rng, n, 6);
    let mut stats_oracle: Option<StandingStats> = None;
    for shards in [1usize, 2, 4] {
        let mut engine = ShardedEngine::with_config(db.clone(), config(), shards);
        let mut subs: Vec<(u64, UncertainObject, StandingSpec)> = Vec::new();
        let mut mirrors: Vec<Vec<ThresholdResult>> = Vec::new();
        for (q, &spec) in queries.iter().zip(specs.iter()) {
            let (sid, initial) = engine.subscribe(q.clone(), spec);
            assert_bit_identical(
                &reanswer(&engine, q, spec),
                &initial,
                &format!("shards={shards} {spec:?} initial"),
            );
            subs.push((sid, q.clone(), spec));
            mirrors.push(by_id(&initial));
        }
        for (step, m) in script.iter().enumerate() {
            match m {
                Mutation::Insert(obj) => {
                    engine.insert(obj.clone());
                }
                Mutation::Remove(id) => {
                    engine.remove(*id);
                }
                Mutation::Update(id, obj) => {
                    engine.update(*id, obj.clone());
                }
            }
            for delta in engine.take_standing_deltas() {
                let i = subs
                    .iter()
                    .position(|(sid, _, _)| *sid == delta.sub)
                    .expect("delta for a registered subscription");
                apply_delta(&mut mirrors[i], &delta);
            }
            for (i, (sid, q, spec)) in subs.iter().enumerate() {
                let maintained = engine
                    .standing_queries()
                    .iter()
                    .find(|s| s.id() == *sid)
                    .expect("subscription is live")
                    .results()
                    .to_vec();
                let ctx = format!("shards={shards} step={step} {spec:?}");
                assert_bit_identical(&reanswer(&engine, q, *spec), &maintained, &ctx);
                assert_bit_identical(
                    &mirrors[i],
                    &by_id(&maintained),
                    &format!("{ctx} delta-replay"),
                );
            }
        }
        // the tier decisions are geometric, so the cheap/fallback/push
        // counters must not depend on the shard count
        let stats = engine.standing_stats();
        assert_eq!(stats.registered, specs.len());
        match &stats_oracle {
            None => stats_oracle = Some(stats),
            Some(oracle) => assert_eq!(
                *oracle, stats,
                "maintenance counters diverged at shards={shards}"
            ),
        }
        for (sid, _, _) in &subs {
            assert!(engine.unsubscribe(*sid));
            assert!(!engine.unsubscribe(*sid), "double unsubscribe succeeded");
        }
        assert_eq!(engine.standing_stats().registered, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn maintained_results_bit_identical_to_reanswer(seed in 0u64..10_000) {
        check_standing_maintenance(seed);
    }
}

/// A maintained subscription on the plain [`Engine`] (the non-sharded
/// surface the serve tier's one-shard fast path delegates to): same
/// oracle, deterministic seed, exercising insert/remove/update hooks
/// directly.
#[test]
fn plain_engine_maintains_bit_identically() {
    let mut rng = StdRng::seed_from_u64(0x57A4D146);
    let db = random_db(&mut rng, 24);
    let q = random_object(&mut rng);
    let mut engine = Engine::with_config(db.clone(), config());
    let (sid, initial) = engine.subscribe(q.clone(), StandingSpec::Knn { k: 3, tau: 0.25 });
    assert_bit_identical(&engine.knn_threshold(&q, 3, 0.25), &initial, "initial");
    let mut applied = 0u64;
    for step in 0..8 {
        match step % 3 {
            0 => {
                engine.insert(random_object(&mut rng));
                applied += 1;
            }
            1 => {
                let id = ObjectId(step as u32);
                if engine.db().try_get(id).is_some() {
                    engine.remove(id);
                    applied += 1;
                }
            }
            _ => {
                let id = ObjectId((step * 2) as u32);
                if engine.db().try_get(id).is_some() {
                    engine.update(id, random_object(&mut rng));
                    applied += 1;
                }
            }
        }
        let maintained = engine
            .standing_queries()
            .iter()
            .find(|s| s.id() == sid)
            .expect("subscription is live")
            .results()
            .to_vec();
        assert_bit_identical(
            &engine.knn_threshold(&q, 3, 0.25),
            &maintained,
            &format!("step={step}"),
        );
    }
    let stats = engine.standing_stats();
    assert_eq!(
        stats.maintained + stats.reanswered,
        applied,
        "every applied mutation ran maintenance"
    );
    assert!(engine.unsubscribe(sid));
}
