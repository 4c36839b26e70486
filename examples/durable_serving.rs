//! Crash-and-recover walkthrough: a durable engine serves a mutating
//! query stream, gets killed by `process::abort()` at **every**
//! registered crash point (the example re-spawns itself as the victim
//! via `UDB_CRASH_POINT`), and the parent verifies each time that
//! recovery lands on a consistent, loudly-reported state — finishing
//! with a protocol `FLUSH` + replay-free reopen.
//!
//! ```sh
//! cargo run --release --example durable_serving
//! ```
//!
//! Exits non-zero if any recovery step fails, so the CI examples job
//! doubles as a real-subprocess crash sweep on every push.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use udb_serve::{generate_script, Server};
use uncertain_db::core::CrashPoint;
use uncertain_db::prelude::*;

fn cfg() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 4,
        wal_sync_every: 1,
        checkpoint_every: 0, // the victim checkpoints on a script cue
        ..Default::default()
    }
}

/// The deterministic mutation script both the victim (until it dies)
/// and the verification oracle run. Returns the objects inserted.
fn script() -> Vec<UncertainObject> {
    let object_cfg = SyntheticConfig {
        n: 40,
        max_extent: 0.02,
        seed: 11,
        ..Default::default()
    };
    let db = object_cfg.generate();
    db.iter().map(|(_, o)| o.clone()).collect()
}

/// Victim mode: open the durable dir and churn through the script.
/// With `UDB_CRASH_POINT` set, `FileIo` aborts the process at the
/// armed gate — mid-write, between write and sync, mid-checkpoint…
fn victim(dir: &Path) -> ExitCode {
    let mut engine = Engine::open_with_config(dir, cfg()).expect("victim open");
    for (i, obj) in script().into_iter().enumerate() {
        engine.insert(obj);
        if i % 10 == 9 {
            engine.checkpoint().expect("victim checkpoint");
        }
    }
    // only reached when no crash point is armed for the crossed gates
    ExitCode::SUCCESS
}

/// Parent mode: for every crash point, spawn a victim armed to abort
/// there, then recover the directory and check the state is a
/// consistent prefix of the script with every degradation reported.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--victim") {
        return victim(Path::new(&args[2]));
    }

    let exe = std::env::current_exe().expect("own path");
    let objects = script();
    let mut failures = 0u32;

    for point in CrashPoint::ALL {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "udb-durable-serving-{}-{}",
            std::process::id(),
            point.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // arm a later crossing so the victim dies mid-script, not on the
        // very first gate: checkpoint gates cross once in open (the
        // checkpoint-on-open) and again at the script's cue; WAL gates
        // cross once per insert
        let spec = match point {
            CrashPoint::WalMidRecord | CrashPoint::WalBeforeSync | CrashPoint::WalAfterSync => {
                format!("{}:7", point.name())
            }
            _ => format!("{}:2", point.name()),
        };
        let status = Command::new(&exe)
            .arg("--victim")
            .arg(&dir)
            .env("UDB_CRASH_POINT", spec)
            .status()
            .expect("spawn victim");
        if status.success() {
            println!("{:<26} victim never crossed the gate — FAIL", point.name());
            failures += 1;
            continue;
        }

        match Engine::open_with_config(&dir, cfg()) {
            Ok(engine) => {
                let report = engine.recovery_report().expect("opened").clone();
                let survived = engine.mutations() as usize;
                // the crash must not fabricate state: the recovered
                // engine holds a prefix of the script, bit-identical
                // object for object
                let prefix_ok = survived <= objects.len()
                    && engine
                        .db()
                        .iter()
                        .all(|(id, got)| object_matches(&objects[id.0 as usize], got));
                if prefix_ok {
                    println!(
                        "{:<26} abort -> recovered {survived}/{} mutations \
                         (basis ckpt {:?}, {} replayed, {} warning(s))",
                        point.name(),
                        objects.len(),
                        report.checkpoint_seq,
                        report.replayed,
                        report.warnings.len()
                    );
                    for w in &report.warnings {
                        println!("{:<26}   warning: {w}", "");
                    }
                } else {
                    println!("{:<26} recovered a non-prefix state — FAIL", point.name());
                    failures += 1;
                }
            }
            Err(e) => {
                println!("{:<26} recovery failed: {e} — FAIL", point.name());
                failures += 1;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // and the happy path: serve a script durably through the protocol
    // server at one and at three shards (each shard owns its own WAL +
    // checkpoint directory under one root: `shard-0/`, `shard-1/`, …),
    // shut down gracefully with the script's closing FLUSH, reopen with
    // nothing to replay. (Crash isolation — a fault in one shard
    // leaving its siblings untouched — is proven per crash point in
    // tests/sharded_durability.rs.)
    let object_cfg = SyntheticConfig {
        n: 120,
        max_extent: 0.02,
        ..Default::default()
    };
    let stream_cfg = QueryStreamConfig {
        batches: 4,
        batch_size: 6,
        insert_weight: 0.2,
        delete_weight: 0.1,
        ..Default::default()
    };
    let script: Vec<String> = generate_script(&object_cfg, &stream_cfg)
        .lines()
        .map(str::to_owned)
        .collect();
    let mut served = Vec::new();
    for shards in [1usize, 3] {
        let dir = std::env::temp_dir().join(format!(
            "udb-durable-serving-{}-clean-{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = ShardedEngine::open(&dir, cfg(), shards).expect("serving open");
        let mut server = Server::new(engine, 16);
        let (replies, _) = server.execute_batch(&script);
        assert!(replies.iter().any(|r| r == "OK flushed"), "{replies:?}");
        let queries = replies.iter().filter(|r| r.starts_with("RES ")).count();
        let mutations = server.engine().mutations();
        drop(server); // drop == crash; FLUSH already checkpointed
        let reopened = ShardedEngine::open(&dir, cfg(), shards).expect("reopen after FLUSH");
        for (s, recovery) in reopened.recovery_reports().into_iter().enumerate() {
            let recovery = recovery.expect("durable shard");
            assert_eq!(recovery.replayed, 0, "shard {s} left WAL records");
            assert!(recovery.warnings.is_empty(), "shard {s}: {recovery:?}");
        }
        assert_eq!(reopened.mutations(), mutations);
        println!(
            "served {queries} queries durably at {shards} shard(s), flushed; \
             reopened replay-free at {mutations} lifetime mutations"
        );
        served.push(replies);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        served[0], served[1],
        "sharded durable replies must be byte-identical to one shard's"
    );

    if failures == 0 {
        println!("\nall {} crash points recovered", CrashPoint::ALL.len());
        ExitCode::SUCCESS
    } else {
        println!("\n{failures} crash point(s) FAILED");
        ExitCode::FAILURE
    }
}

/// Bit-exact object comparison through the serde wire format (the same
/// encoding the WAL and checkpoints use).
fn object_matches(expected: &UncertainObject, got: &UncertainObject) -> bool {
    serde_json::to_string(expected).expect("encode") == serde_json::to_string(got).expect("encode")
}
