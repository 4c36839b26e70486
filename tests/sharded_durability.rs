//! Per-shard durability isolation: every shard of a durable
//! [`ShardedEngine`] owns its own directory (`<dir>/shard-<i>`) with
//! its own WAL and checkpoints, so a crash in one shard loses (at
//! most) that shard's unsynced tail and recovers without touching its
//! siblings — their acknowledged mutations survive to the last byte,
//! and the router's self-healing insert routing refills the crashed
//! shard's id holes afterwards.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use uncertain_db::core::{CrashPoint, FaultIo, FaultMode, FileIo};
use uncertain_db::prelude::*;

fn random_object(rng: &mut StdRng) -> UncertainObject {
    let cx: f64 = rng.gen_range(0.0..4.0);
    let cy: f64 = rng.gen_range(0.0..4.0);
    let hx: f64 = rng.gen_range(0.02..0.5);
    let hy: f64 = rng.gen_range(0.02..0.5);
    let center = Point::from([cx, cy]);
    let support = Rect::centered(&center, &[hx, hy]);
    UncertainObject::new(Pdf::uniform(support))
}

fn cfg() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 3,
        uncertainty_target: 0.0,
        wal_sync_every: 1,
        checkpoint_every: 0,
        ..Default::default()
    }
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("udb-shard-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The crash-point spot-check: arm a WAL fault on one shard of three,
/// crash it mid-stream, and prove (a) the sibling shards recover every
/// acknowledged mutation, (b) the crashed shard recovers its
/// acknowledged prefix (the in-flight record at most rides along), (c)
/// queries after recovery are bit-identical to a fresh single engine
/// over the surviving union, and (d) the next insert refills the
/// crashed shard's id hole.
#[test]
fn crash_in_one_shard_leaves_siblings_intact() {
    const SHARDS: usize = 3;
    const FAULTY: usize = 1;
    let dir = test_dir("one-of-three");
    let mut rng = StdRng::seed_from_u64(0x5AD);

    // committed baseline: 9 arrivals round-robin over 3 shards, synced
    // and checkpointed
    let baseline: Vec<UncertainObject> = (0..9).map(|_| random_object(&mut rng)).collect();
    {
        let mut engine = ShardedEngine::open(&dir, cfg(), SHARDS).expect("seed open");
        for o in &baseline {
            engine.insert(o.clone());
        }
        engine.wal_sync().expect("seed sync");
        engine.checkpoint().expect("seed checkpoint");
    }

    // reopen with a fault armed on shard 1 only; siblings run clean
    let mut engine = ShardedEngine::open_with_io(&dir, cfg(), SHARDS, |s| {
        if s == FAULTY {
            Box::new(FaultIo::armed(
                FaultMode::WriteBack,
                CrashPoint::WalBeforeSync,
                5,
            ))
        } else {
            Box::new(FileIo::new())
        }
    })
    .expect("armed open");

    // stream arrivals until the armed shard crashes
    let mut acked: Vec<(ObjectId, UncertainObject)> = Vec::new();
    let mut in_flight: Option<ObjectId> = None;
    for arrival in 9u32..40 {
        let obj = random_object(&mut rng);
        match engine.try_insert(obj.clone()) {
            Ok(id) => {
                assert_eq!(id, ObjectId(arrival), "arrival-order ids");
                acked.push((id, obj));
            }
            Err(_) => {
                in_flight = Some(ObjectId(arrival));
                break;
            }
        }
    }
    let crashed_at = in_flight.expect("the armed crash point never fired");
    assert_eq!(
        crashed_at.index() % SHARDS,
        FAULTY,
        "the crash must come from the faulty shard"
    );
    drop(engine); // no flush on drop: exactly the crashed process's files

    // clean reopen: every shard recovers from its own directory
    let recovered = ShardedEngine::open(&dir, cfg(), SHARDS).expect("recovery failed");

    // (a) + (b): siblings kept every acknowledged mutation; the faulty
    // shard kept its acknowledged prefix (the in-flight record may
    // survive only if it reached the log — with this fault it cannot)
    for (id, obj) in &acked {
        assert!(
            recovered.contains(*id),
            "acknowledged arrival {id:?} lost in recovery"
        );
        assert_eq!(recovered.get(*id).mbr(), obj.mbr());
    }
    assert!(
        !recovered.contains(crashed_at),
        "the torn in-flight record must not half-apply"
    );
    assert_eq!(recovered.len(), baseline.len() + acked.len());
    for (s, shard) in recovered.shards().iter().enumerate() {
        let expect = 3 + acked
            .iter()
            .filter(|(id, _)| id.index() % SHARDS == s)
            .count();
        assert_eq!(shard.db().len(), expect, "shard {s} object count");
    }

    // (c): queries over the recovered engine are bit-identical to a
    // fresh single engine over an id-aligned union of the survivors
    let mut mirror = Database::new();
    for o in &baseline {
        mirror.insert(o.clone());
    }
    for (id, obj) in &acked {
        assert_eq!(mirror.insert(obj.clone()), *id);
    }
    let oracle = Engine::with_config(mirror, cfg());
    for _ in 0..2 {
        let q = random_object(&mut rng);
        let a = oracle.knn_threshold(&q, 3, 0.25);
        let b = recovered.knn_threshold(&q, 3, 0.25);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.prob_lower.to_bits(), y.prob_lower.to_bits());
            assert_eq!(x.prob_upper.to_bits(), y.prob_upper.to_bits());
            assert_eq!(x.iterations, y.iterations);
        }
    }

    // (d): the router self-heals — the next insert lands exactly on the
    // crashed shard's lost id (the lowest free global id)
    let mut recovered = recovered;
    assert_eq!(
        recovered.insert(random_object(&mut rng)),
        crashed_at,
        "insert routing must refill the crashed shard's id hole"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Removes a test directory when dropped, also while a panic unwinds.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The `shards` marker file pins the shard count: reopening a durable
/// directory with a different count must refuse loudly instead of
/// silently re-mapping every global id.
#[test]
#[should_panic(expected = "shard")]
fn reopening_with_a_different_shard_count_panics() {
    let dir = test_dir("marker");
    // the expected panic unwinds past any cleanup at the end
    let _cleanup = RemoveOnDrop(dir.clone());
    {
        let mut engine = ShardedEngine::open(&dir, cfg(), 2).expect("seed open");
        let mut rng = StdRng::seed_from_u64(1);
        engine.insert(random_object(&mut rng));
    }
    let _ = ShardedEngine::open(&dir, cfg(), 4);
}
