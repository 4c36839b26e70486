//! Consecutive `INSERT` lines of a drained slice are group-committed:
//! one WAL fsync for the run, then the inserts apply and reply. The
//! batch cap bounds the run, so a pipelined script must reply byte for
//! byte the same at cap 1 (every run one insert) and cap 16, in memory
//! and durable, `NOTIFY` pushes and their positions included — and a
//! durable directory reopened after the script holds every
//! acknowledged insert.

use udb_core::{IdcaConfig, ShardedEngine};
use udb_object::UncertainObject;
use udb_serve::{empty_server, Server};
use udb_workload::SyntheticConfig;

fn cfg() -> IdcaConfig {
    IdcaConfig {
        max_iterations: 3,
        // cadence checkpoints fire inside the script's insert runs
        checkpoint_every: 8,
        ..Default::default()
    }
}

fn json(o: &UncertainObject) -> String {
    serde_json::to_string(o).expect("objects serialize")
}

/// Ten seed inserts, three `SUB KNN` lines at seed positions, then the
/// other 70 objects as pipelined inserts with two queries between. The
/// last 24 lines are inserts, so the script ends with runs that cross
/// the checkpoint cadence: a checkpoint inside a run would lose that
/// run's later records at the reopen.
fn script() -> Vec<String> {
    let db = SyntheticConfig {
        n: 80,
        max_extent: 0.02,
        ..Default::default()
    }
    .generate();
    let objects: Vec<&UncertainObject> = db.iter().map(|(_, o)| o).collect();
    let mut lines: Vec<String> = objects[..10]
        .iter()
        .map(|o| format!("INSERT {}", json(o)))
        .collect();
    for o in &objects[..3] {
        lines.push(format!("SUB KNN 3 0.3 {}", json(o)));
    }
    for (i, o) in objects[10..].iter().enumerate() {
        lines.push(format!("INSERT {}", json(o)));
        if i % 23 == 22 && i < 46 {
            lines.push(format!("KNN 2 0.3 {}", json(objects[i % 10])));
        }
    }
    lines.push("STATS".to_owned());
    lines
}

/// Feeds the script in slices of `cap` lines, as the pump drains them.
fn run(mut server: Server, lines: &[String]) -> Vec<String> {
    let cap = server.batch_cap();
    lines
        .chunks(cap)
        .flat_map(|slice| server.execute_batch(slice).0)
        .collect()
}

fn durable_server(dir: &std::path::Path, shards: usize, cap: usize) -> Server {
    let engine = ShardedEngine::open(dir, cfg(), shards).expect("open durable engine");
    Server::new(engine, cap)
}

fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("udb-group-commit-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The `objects=… mutations=…` fields of a `STATS` reply.
fn counts(stats: &str) -> String {
    stats.split(' ').take(3).collect::<Vec<_>>().join(" ")
}

#[test]
fn insert_runs_reply_identically_at_every_batch_cap() {
    let lines = script();
    let oracle = run(empty_server(cfg(), 1, 1), &lines);
    assert!(
        oracle.iter().any(|r| r.starts_with("NOTIFY ")),
        "no NOTIFY pushed"
    );
    assert!(oracle.iter().all(|r| !r.starts_with("ERR")), "{oracle:?}");
    for shards in [1, 2] {
        for cap in [1, 16] {
            let replies = run(empty_server(cfg(), shards, cap), &lines);
            assert_eq!(oracle, replies, "in memory, {shards} shards, cap {cap}");

            let dir = test_dir(&format!("{shards}-{cap}"));
            let replies = run(durable_server(&dir, shards, cap), &lines);
            assert_eq!(oracle, replies, "durable, {shards} shards, cap {cap}");
            // dropped without FLUSH, like a crash: the reopened engine
            // holds every acknowledged insert
            let (reopened, _) =
                durable_server(&dir, shards, cap).execute_batch(&["STATS".to_owned()]);
            assert_eq!(
                counts(&reopened[0]),
                counts(oracle.last().expect("STATS reply")),
                "reopen, {shards} shards, cap {cap}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
