//! Property suite for the durable engine's happy path: durability is
//! free of observable side effects. A WAL-backed engine answers every
//! query bit-identically to an in-memory one, and an engine recovered
//! by replay-on-open answers bit-identically to the live engine it was
//! dropped from — warm or cold caches, every query family.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use udb_serve::{empty_server, Server};
use uncertain_db::prelude::*;

mod common;

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

fn cfg() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 4,
        uncertainty_target: 0.0,
        wal_sync_every: 1,
        checkpoint_every: 0,
        ..Default::default()
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("udb-durab-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_results_identical(a: &[ThresholdResult], b: &[ThresholdResult], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: set size diverged");
    for (ra, rb) in a.iter().zip(b.iter()) {
        assert_eq!(ra.id, rb.id, "{ctx}");
        assert_eq!(ra.prob_lower.to_bits(), rb.prob_lower.to_bits(), "{ctx}");
        assert_eq!(ra.prob_upper.to_bits(), rb.prob_upper.to_bits(), "{ctx}");
        assert_eq!(ra.iterations, rb.iterations, "{ctx}");
    }
}

/// Applies one random mutation to both engines: the ids line up
/// because fresh-id assignment is deterministic.
fn churn_step(rng: &mut StdRng, a: &mut Engine, b: &mut Engine) {
    let live: Vec<ObjectId> = a.db().ids().collect();
    match rng.gen_range(0..3) {
        0 => {
            let o = random_object(rng);
            let ia = a.insert(o.clone());
            let ib = b.insert(o);
            assert_eq!(ia, ib, "id assignment diverged");
        }
        1 if live.len() > 4 => {
            let id = live[rng.gen_range(0..live.len())];
            a.remove(id);
            b.remove(id);
        }
        _ => {
            let id = live[rng.gen_range(0..live.len())];
            let o = random_object(rng);
            a.update(id, o.clone());
            b.update(id, o);
        }
    }
}

/// Both engines' standing results, and the deltas queued since the
/// last call, are bit-identical.
fn assert_standing_identical(a: &mut Engine, b: &mut Engine, ctx: &str) {
    for (sa, sb) in a.standing_queries().iter().zip(b.standing_queries()) {
        assert_results_identical(sa.results(), sb.results(), &format!("{ctx}: standing"));
    }
    let (da, db) = (a.take_standing_deltas(), b.take_standing_deltas());
    assert_eq!(da.len(), db.len(), "{ctx}: delta count");
    for (x, y) in da.iter().zip(&db) {
        assert_eq!(x.sub, y.sub, "{ctx}: delta subscription");
        assert_eq!(x.removed, y.removed, "{ctx}: removed ids");
        assert_results_identical(&x.added, &y.added, &format!("{ctx}: added"));
        assert_results_identical(&x.changed, &y.changed, &format!("{ctx}: changed"));
    }
}

/// Cross-checks every query family bit-for-bit on `queries` random
/// probes.
fn assert_same_answers(rng: &mut StdRng, a: &Engine, b: &Engine, queries: usize, ctx: &str) {
    for qi in 0..queries {
        let q = random_object(rng);
        let (k, tau) = (rng.gen_range(1..4), rng.gen_range(0.05..0.8));
        assert_results_identical(
            &a.knn_threshold(&q, k, tau),
            &b.knn_threshold(&q, k, tau),
            &format!("{ctx} q{qi} knn"),
        );
        assert_results_identical(
            &a.rknn_threshold(&q, k, tau),
            &b.rknn_threshold(&q, k, tau),
            &format!("{ctx} q{qi} rknn"),
        );
        assert_results_identical(
            &a.top_probable_nn(&q, 2),
            &b.top_probable_nn(&q, 2),
            &format!("{ctx} q{qi} top_m"),
        );
    }
}

/// (a) WAL-backed == in-memory under interleaved churn and queries: the
/// log, and at a non-zero `checkpoint_every` the cadence checkpoints
/// (tombstone compaction and an R-tree rebuild on the durable engine
/// only), are invisible to the query layer and to a standing kNN
/// subscription's results and deltas.
fn check_durable_equals_in_memory(seed: u64, checkpoint_every: usize) {
    let dir = test_dir(&format!("mirror-{seed}-{checkpoint_every}"));
    let mut rng = StdRng::seed_from_u64(seed);
    let objects: Vec<UncertainObject> = (0..25).map(|_| random_object(&mut rng)).collect();
    let cfg = IdcaConfig {
        checkpoint_every,
        ..cfg()
    };

    let mut durable = Engine::open_with_config(&dir, cfg.clone()).expect("open durable");
    let mut memory = Engine::with_config(Database::new(), cfg.clone());
    for o in &objects {
        durable.insert(o.clone());
        memory.insert(o.clone());
    }
    let q = random_object(&mut rng);
    let spec = StandingSpec::Knn { k: 2, tau: 0.3 };
    let (sa, ra) = durable.subscribe(q.clone(), spec);
    let (sb, rb) = memory.subscribe(q, spec);
    assert_eq!(sa, sb, "subscription ids");
    assert_results_identical(&ra, &rb, &format!("seed={seed}: initial answer"));
    for round in 0..3 {
        for step in 0..4 {
            churn_step(&mut rng, &mut durable, &mut memory);
            let ctx = format!("seed={seed} every={checkpoint_every} round={round} step={step}");
            assert_standing_identical(&mut durable, &mut memory, &ctx);
        }
        assert_same_answers(
            &mut rng,
            &durable,
            &memory,
            2,
            &format!("seed={seed} every={checkpoint_every} round={round}"),
        );
    }
    assert!(durable.is_durable());
    assert!(!memory.is_durable());
    assert_eq!(durable.checkpoint_failures(), 0);
    // 25 inserts and 12 churn steps cross a cadence of 3 many times; a
    // reopen loads the newest checkpoint (opening wrote checkpoint 1)
    drop(durable);
    let reopened = Engine::open_with_config(&dir, cfg).expect("reopen");
    let basis = reopened.recovery_report().and_then(|r| r.checkpoint_seq);
    assert_eq!(
        basis > Some(1),
        checkpoint_every > 0,
        "cadence checkpoints at checkpoint_every = {checkpoint_every}: basis {basis:?}"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) Drop (== crash with a synced log) and reopen at any point:
/// the recovered engine, its cache cold, answers bit-identically to a
/// shadow engine whose cache stays warm across every round.
fn check_replay_equals_live(seed: u64) {
    let dir = test_dir(&format!("replay-{seed}"));
    let mut rng = StdRng::seed_from_u64(seed);
    let objects: Vec<UncertainObject> = (0..25).map(|_| random_object(&mut rng)).collect();

    let mut live = Engine::open_with_config(&dir, cfg()).expect("open");
    let mut shadow = Engine::with_config(Database::new(), cfg()); // warm forever
    for o in &objects {
        live.insert(o.clone());
        shadow.insert(o.clone());
    }
    for round in 0..3 {
        for _ in 0..3 {
            churn_step(&mut rng, &mut live, &mut shadow);
        }
        // warm both caches; the reopened engine starts cold, so replay
        // must prove the cache holds no answer-shaping state
        let warmup = random_object(&mut rng);
        live.knn_threshold(&warmup, 2, 0.3);
        shadow.knn_threshold(&warmup, 2, 0.3);

        // every record is synced (wal_sync_every = 1): dropping here is
        // a crash that loses nothing
        drop(live);
        live = Engine::open_with_config(&dir, cfg()).expect("reopen");
        let report = live.recovery_report().expect("reopened").clone();
        assert!(
            report.warnings.is_empty(),
            "seed={seed} round={round}: clean log recovered with warnings: {report:?}"
        );
        assert_eq!(live.mutations(), shadow.mutations(), "mutation counts");
        assert_same_answers(
            &mut rng,
            &live,
            &shadow,
            2,
            &format!("seed={seed} round={round} recovered"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) Serving a mutating script durably through the protocol
/// [`Server`] replies exactly like serving it in memory, and the
/// script's closing `FLUSH` leaves a directory that recovers to the
/// exact post-script state without replaying a single record.
fn check_durable_serving(seed: u64) {
    let dir = test_dir(&format!("serve-{seed}"));
    let objects = SyntheticConfig {
        n: 120,
        max_extent: 0.02,
        seed,
        ..Default::default()
    };
    let stream = QueryStreamConfig {
        batches: 3,
        batch_size: 5,
        k: 3,
        insert_weight: 0.2,
        delete_weight: 0.1,
        seed: seed ^ 0xD15C,
        ..Default::default()
    };
    // the script seeds both servers with the same INSERT lines, so the
    // durable one logs every object through its WAL
    let lines = common::script_lines(&objects, &stream);
    let durable = ShardedEngine::open(&dir, cfg(), 1).expect("open");
    let mut durable = Server::new(durable, 16);
    let mut memory = empty_server(cfg(), 1, 16);
    let (res_durable, _) = durable.execute_batch(&lines);
    let (res_memory, _) = memory.execute_batch(&lines);
    assert_eq!(res_durable, res_memory, "seed={seed}: serving diverged");
    assert!(
        res_durable.iter().any(|r| r == "OK flushed"),
        "seed={seed}: {res_durable:?}"
    );

    drop(durable);
    let recovered = ShardedEngine::open(&dir, cfg(), 1).expect("reopen");
    for report in recovered.recovery_reports() {
        let report = report.expect("reopened");
        assert_eq!(
            report.replayed, 0,
            "FLUSH must leave nothing to replay: {report:?}"
        );
        assert!(report.warnings.is_empty(), "{report:?}");
    }
    let mut recovered = Server::new(recovered, 16);
    let stats = ["STATS".to_owned()];
    assert_eq!(
        recovered.execute_batch(&stats).0,
        memory.execute_batch(&stats).0,
        "seed={seed}: STATS after a reopen"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    assert_same_answers(
        &mut rng,
        &recovered.engine().shards()[0],
        &memory.engine().shards()[0],
        2,
        &format!("seed={seed} post-serve"),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn durable_engine_answers_like_in_memory(seed in 0u64..10_000) {
        check_durable_equals_in_memory(seed, 0);
        check_durable_equals_in_memory(seed, 3);
    }

    #[test]
    fn replay_on_open_answers_like_live_engine(seed in 0u64..10_000) {
        check_replay_equals_live(seed);
    }

    #[test]
    fn durable_serving_equals_in_memory_serving(seed in 0u64..10_000) {
        check_durable_serving(seed);
    }
}

/// The `STATS` line of a served script counts what it applied: every
/// seed and stream `INSERT`, and every `DELNEAR` (none hits an empty
/// database).
#[test]
fn serve_report_counts_mutations() {
    let objects = SyntheticConfig {
        n: 80,
        max_extent: 0.02,
        ..Default::default()
    };
    let stream = QueryStreamConfig {
        batches: 2,
        batch_size: 6,
        insert_weight: 0.3,
        delete_weight: 0.2,
        ..Default::default()
    };
    let counts = stream.generate(&objects).mix_counts();
    assert!(counts.insert > 0 && counts.delete > 0, "{counts:?}");
    let mut server = empty_server(cfg(), 1, 16);
    let (replies, quit) = server.execute_batch(&common::script_lines(&objects, &stream));
    assert!(quit);
    let inserts = objects.n + counts.insert;
    let stats = format!(
        "OK objects={} mutations={} ",
        inserts - counts.delete,
        inserts + counts.delete
    );
    assert!(
        replies.iter().any(|r| r.starts_with(&stats)),
        "want {stats}: {replies:?}"
    );
    let answered = replies.iter().filter(|r| r.starts_with("RES ")).count();
    assert_eq!(answered, counts.queries());
}
