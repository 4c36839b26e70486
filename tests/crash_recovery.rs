//! Adversarial recovery suite: the durable engine is crashed — by
//! in-process fault injection at every registered [`CrashPoint`], and
//! by hand-mangled on-disk corpora (truncated tails, flipped bytes,
//! corrupt checkpoints) — and every recovery must land on a state that
//! is **bit-identical** to an oracle engine that applied exactly the
//! surviving mutation prefix.
//!
//! Durable-WAL semantics under crash:
//!
//! * Every mutation acknowledged (`Ok`) before the crash survives.
//! * The in-flight mutation may survive (logged, crash before the ack
//!   reached the caller) or vanish (torn / unsynced) — never half-apply.
//! * Degradation is loud: torn tails and corrupt records surface in
//!   [`Engine::recovery_report`], and an unrecoverable directory is an
//!   error, not an empty database.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use udb_serve::Server;
use uncertain_db::core::{CrashPoint, DurableIo, FaultIo, FaultMode, FileIo, ShardedEngine};
use uncertain_db::prelude::*;

// ---------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------

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
        max_iterations: 3,
        uncertainty_target: 0.0,
        wal_sync_every: 1,
        checkpoint_every: 0, // checkpoints only where the script says so
        ..Default::default()
    }
}

/// A fresh per-test directory under the system temp dir.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("udb-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One scripted step against the engine: the three mutations, plus an
/// explicit checkpoint (the only way the checkpoint crash gates fire
/// with `checkpoint_every = 0`).
#[derive(Clone)]
enum Op {
    Insert(UncertainObject),
    Remove(ObjectId),
    Update(ObjectId, UncertainObject),
    Checkpoint,
}

impl Op {
    fn is_mutation(&self) -> bool {
        !matches!(self, Op::Checkpoint)
    }
}

/// A deterministic mutation script whose ids are precomputed: fresh ids
/// are sequential (`base + len` is invariant under compaction), so an
/// oracle replaying any prefix assigns identical ids.
fn script(rng: &mut StdRng, baseline: usize, steps: usize) -> Vec<Op> {
    let mut next_id = baseline as u32;
    let mut live: Vec<u32> = (0..baseline as u32).collect();
    let mut ops = Vec::with_capacity(steps);
    for step in 0..steps {
        if step % 5 == 4 {
            ops.push(Op::Checkpoint);
            continue;
        }
        match rng.gen_range(0..3) {
            0 => {
                ops.push(Op::Insert(random_object(rng)));
                live.push(next_id);
                next_id += 1;
            }
            1 if live.len() > 3 => {
                let id = live.remove(rng.gen_range(0..live.len()));
                ops.push(Op::Remove(ObjectId(id)));
            }
            _ => {
                let id = live[rng.gen_range(0..live.len())];
                ops.push(Op::Update(ObjectId(id), random_object(rng)));
            }
        }
    }
    ops
}

fn apply_fallible(engine: &mut Engine, op: &Op) -> Result<(), DurableError> {
    match op {
        Op::Insert(o) => engine.try_insert(o.clone()).map(|_| ()),
        Op::Remove(id) => engine.try_remove(*id).map(|_| ()),
        Op::Update(id, o) => engine.try_update(*id, o.clone()).map(|_| ()),
        Op::Checkpoint => engine.checkpoint(),
    }
}

/// The never-crashed oracle: a fresh engine that applies the baseline
/// and then exactly `muts` mutations of the script.
fn oracle_after(baseline: &[UncertainObject], ops: &[Op], muts: usize) -> Engine {
    let mut engine = Engine::with_config(Database::new(), cfg());
    for o in baseline {
        engine.insert(o.clone());
    }
    let mut applied = 0;
    for op in ops {
        if applied == muts {
            break;
        }
        match op {
            Op::Insert(o) => {
                engine.insert(o.clone());
            }
            Op::Remove(id) => {
                engine.remove(*id);
            }
            Op::Update(id, o) => {
                engine.update(*id, o.clone());
            }
            Op::Checkpoint => continue, // not a mutation
        }
        applied += 1;
    }
    assert_eq!(applied, muts, "script exhausted before the target prefix");
    engine
}

/// Bit-exact state + query equivalence between a recovered engine and
/// the oracle.
fn assert_engines_identical(recovered: &Engine, oracle: &mut Engine, ctx: &str) {
    // compact the oracle too (recovery checkpoints on open), then the
    // databases must serialize identically — same base, same slots,
    // same floats to the last bit
    oracle.checkpoint().expect("oracle checkpoint");
    let a = serde_json::to_string(recovered.db()).expect("serialize recovered");
    let b = serde_json::to_string(oracle.db()).expect("serialize oracle");
    assert_eq!(a, b, "{ctx}: databases diverged");

    // and the query layer must agree bit-for-bit on every query family
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for qi in 0..2 {
        let q = random_object(&mut rng);
        let (k, tau) = (rng.gen_range(1..3), rng.gen_range(0.1..0.7));
        let knn_a = recovered.knn_threshold(&q, k, tau);
        let knn_b = oracle.knn_threshold(&q, k, tau);
        assert_results_identical(&knn_a, &knn_b, &format!("{ctx} knn q{qi}"));
        let rk_a = recovered.rknn_threshold(&q, k, tau);
        let rk_b = oracle.rknn_threshold(&q, k, tau);
        assert_results_identical(&rk_a, &rk_b, &format!("{ctx} rknn q{qi}"));
        let top_a = recovered.top_probable_nn(&q, 2);
        let top_b = oracle.top_probable_nn(&q, 2);
        assert_results_identical(&top_a, &top_b, &format!("{ctx} top_m q{qi}"));
    }
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

/// Seeds a durable directory: `baseline` objects inserted, synced and
/// checkpointed — the committed state every crash scenario starts from.
fn seed_dir(dir: &Path, baseline: &[UncertainObject]) {
    let mut engine = Engine::open_with_config(dir, cfg()).expect("seed open");
    for o in baseline {
        engine.insert(o.clone());
    }
    engine.wal_sync().expect("seed sync");
    engine.checkpoint().expect("seed checkpoint");
    // dropped without further flushing: drop == crash, but everything
    // above is already on stable storage
}

// ---------------------------------------------------------------------
// Fault-injection sweep: every crash point x both fault modes
// ---------------------------------------------------------------------

/// Crashes a scripted run at `point` (in `mode`) and proves recovery
/// lands on the acknowledged prefix — or the acknowledged prefix plus
/// the single in-flight record, when the log survived the crash.
fn crash_and_recover_case(point: CrashPoint, mode: FaultMode, seed: u64) {
    let name = format!("{}-{:?}-{seed}", point.name(), mode);
    let dir = test_dir(&name);
    let mut rng = StdRng::seed_from_u64(seed);
    let baseline: Vec<UncertainObject> = (0..8).map(|_| random_object(&mut rng)).collect();
    seed_dir(&dir, &baseline);

    // opening checkpoints once, so the checkpoint gates' first crossing
    // happens during open; arm the second crossing to crash the
    // mid-script checkpoint instead
    let nth = match point {
        CrashPoint::WalMidRecord | CrashPoint::WalBeforeSync | CrashPoint::WalAfterSync => 3,
        _ => 2,
    };
    let io = FaultIo::armed(mode, point, nth);
    let mut engine = Engine::open_with_io(&dir, cfg(), Box::new(io)).expect("armed open");

    let ops = script(&mut rng, baseline.len(), 20);
    let mut acked = 0usize; // acknowledged *mutations*
    let mut in_flight: Option<&Op> = None;
    let mut crashed = false;
    for op in &ops {
        match apply_fallible(&mut engine, op) {
            Ok(()) => {
                if op.is_mutation() {
                    acked += 1;
                }
            }
            Err(_) => {
                crashed = true;
                if op.is_mutation() {
                    in_flight = Some(op);
                }
                break;
            }
        }
    }
    assert!(crashed, "{name}: the armed crash point never fired");
    drop(engine); // no flush on drop: exactly the crashed process's files

    let recovered = Engine::open_with_config(&dir, cfg())
        .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
    let survived = (recovered.mutations() as usize)
        .checked_sub(baseline.len())
        .expect("recovered fewer mutations than the committed baseline");

    // the acknowledged prefix always survives; at most the one
    // in-flight record may ride along (logged, never acknowledged)
    assert!(
        survived == acked || (survived == acked + 1 && in_flight.is_some()),
        "{name}: {acked} acked, {survived} survived"
    );
    let mut oracle = oracle_after(&baseline, &ops, survived);
    assert_engines_identical(&recovered, &mut oracle, &name);

    // and the recovered engine keeps serving: a fresh durable mutation
    let mut recovered = recovered;
    let extra = random_object(&mut rng);
    recovered.insert(extra.clone());
    oracle.insert(extra);
    assert_engines_identical(&recovered, &mut oracle, &format!("{name} post-recovery"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_sweep_every_point_both_modes() {
    for &point in CrashPoint::ALL.iter() {
        for mode in [FaultMode::WriteThrough, FaultMode::WriteBack] {
            crash_and_recover_case(point, mode, 7 + point as u64);
        }
    }
}

/// Crashing during `open` itself (the checkpoint-on-open) must leave a
/// directory that the next open recovers — recovery is idempotent.
#[test]
fn crash_during_open_is_idempotent() {
    for &point in &[
        CrashPoint::CheckpointMidWrite,
        CrashPoint::CheckpointBeforeRename,
        CrashPoint::CheckpointAfterRename,
        CrashPoint::CheckpointBeforePrune,
    ] {
        for mode in [FaultMode::WriteThrough, FaultMode::WriteBack] {
            let name = format!("open-{}-{:?}", point.name(), mode);
            let dir = test_dir(&name);
            let mut rng = StdRng::seed_from_u64(99);
            let baseline: Vec<UncertainObject> = (0..6).map(|_| random_object(&mut rng)).collect();
            seed_dir(&dir, &baseline);

            let io = FaultIo::armed(mode, point, 1);
            let err = Engine::open_with_io(&dir, cfg(), Box::new(io));
            assert!(err.is_err(), "{name}: open should report the crash");

            let recovered = Engine::open_with_config(&dir, cfg())
                .unwrap_or_else(|e| panic!("{name}: second open failed: {e}"));
            assert_eq!(recovered.mutations() as usize, baseline.len(), "{name}");
            let mut oracle = oracle_after(&baseline, &[], 0);
            assert_engines_identical(&recovered, &mut oracle, &name);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ---------------------------------------------------------------------
// Hand-mangled corpora: truncation, bit flips, corrupt checkpoints
// ---------------------------------------------------------------------

/// The newest WAL segment in a durable directory.
fn newest_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    segs.pop().expect("no WAL segment")
}

fn newest_checkpoint(dir: &Path) -> PathBuf {
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckpt"))
        .collect();
    ckpts.sort();
    ckpts.pop().expect("no checkpoint")
}

/// Seeds a dir, then appends `tail` extra synced inserts to the WAL
/// without checkpointing them. Returns (baseline ++ tail) as the op
/// stream an oracle can replay.
fn seed_with_tail(dir: &Path, rng: &mut StdRng, tail: usize) -> (Vec<UncertainObject>, Vec<Op>) {
    let baseline: Vec<UncertainObject> = (0..6).map(|_| random_object(rng)).collect();
    seed_dir(dir, &baseline);
    let mut engine = Engine::open_with_config(dir, cfg()).expect("tail open");
    let ops: Vec<Op> = (0..tail).map(|_| Op::Insert(random_object(rng))).collect();
    for op in &ops {
        apply_fallible(&mut engine, op).expect("tail insert");
    }
    engine.wal_sync().expect("tail sync");
    drop(engine); // no checkpoint: the tail lives only in the WAL
    (baseline, ops)
}

/// Truncating the final record at every byte offset: recovery drops it
/// (with a torn-tail warning), keeps everything before it, and never
/// panics.
#[test]
fn truncated_tail_recovers_prefix_at_every_cut() {
    let dir = test_dir("truncate");
    let mut rng = StdRng::seed_from_u64(3);
    let (baseline, ops) = seed_with_tail(&dir, &mut rng, 3);
    let seg = newest_segment(&dir);
    let intact = std::fs::read(&seg).expect("read segment");

    // sample cuts across the whole tail record (and a few earlier ones)
    let cuts: Vec<usize> = (1..intact.len())
        .step_by(37)
        .chain([intact.len() - 1])
        .collect();
    for cut in cuts {
        std::fs::write(&seg, &intact[..cut]).expect("truncate");
        let recovered = Engine::open_with_config(&dir, cfg())
            .unwrap_or_else(|e| panic!("cut={cut}: recovery failed: {e}"));
        let survived = recovered.mutations() as usize - baseline.len();
        assert!(survived <= ops.len(), "cut={cut}: invented mutations");
        let report = recovered.recovery_report().expect("opened engine");
        // a cut strictly inside a frame must be reported; a cut exactly
        // on a frame boundary is a legitimately shorter, clean log
        if uncertain_db::core::read_wal_bytes(&intact[..cut])
            .defect
            .is_some()
        {
            assert!(
                report.warnings.iter().any(|w| w.contains("torn")),
                "cut={cut}: silent truncation: {report:?}"
            );
        }
        let mut oracle = oracle_after(&baseline, &ops, survived);
        assert_engines_identical(&recovered, &mut oracle, &format!("cut={cut}"));
        // recovery checkpointed on open, changing the directory; restore
        // the corpus for the next cut
        let _ = std::fs::remove_dir_all(&dir);
        let (b2, o2) = seed_with_tail(&dir, &mut StdRng::seed_from_u64(3), 3);
        assert_eq!(b2.len(), baseline.len());
        assert_eq!(o2.len(), ops.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte mid-log: replay applies the records before the
/// corruption, stops there loudly, and never applies anything after it
/// (later records were logged against a state containing the bad one).
#[test]
fn corrupt_record_stops_replay_loudly() {
    let dir = test_dir("flip");
    let mut rng = StdRng::seed_from_u64(4);
    let (baseline, ops) = seed_with_tail(&dir, &mut rng, 4);
    let seg = newest_segment(&dir);
    let intact = std::fs::read(&seg).expect("read segment");

    for offset in (9..intact.len()).step_by(101) {
        let mut mangled = intact.clone();
        mangled[offset] ^= 0x20;
        std::fs::write(&seg, &mangled).expect("flip byte");
        let recovered = Engine::open_with_config(&dir, cfg())
            .unwrap_or_else(|e| panic!("offset={offset}: recovery failed: {e}"));
        let survived = recovered.mutations() as usize - baseline.len();
        assert!(
            survived < ops.len(),
            "offset={offset}: corruption unnoticed"
        );
        let report = recovered.recovery_report().expect("opened engine");
        assert!(
            !report.warnings.is_empty(),
            "offset={offset}: silent corruption"
        );
        let mut oracle = oracle_after(&baseline, &ops, survived);
        assert_engines_identical(&recovered, &mut oracle, &format!("offset={offset}"));
        let _ = std::fs::remove_dir_all(&dir);
        seed_with_tail(&dir, &mut StdRng::seed_from_u64(4), 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt newest checkpoint: recovery falls back to the previous
/// checkpoint and replays the full WAL from there — same final state,
/// with the fallback on record.
#[test]
fn corrupt_checkpoint_falls_back_to_previous() {
    let dir = test_dir("ckpt-fallback");
    let mut rng = StdRng::seed_from_u64(5);
    let baseline: Vec<UncertainObject> = (0..6).map(|_| random_object(&mut rng)).collect();
    seed_dir(&dir, &baseline);
    // a second generation: more inserts + another checkpoint, so the
    // directory holds two checkpoints (prune keeps the previous one)
    let mut engine = Engine::open_with_config(&dir, cfg()).expect("gen2 open");
    let gen2: Vec<Op> = (0..3)
        .map(|_| Op::Insert(random_object(&mut rng)))
        .collect();
    for op in &gen2 {
        apply_fallible(&mut engine, op).expect("gen2 insert");
    }
    engine.checkpoint().expect("gen2 checkpoint");
    drop(engine);

    let newest = newest_checkpoint(&dir);
    let mut bytes = std::fs::read(&newest).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).expect("corrupt checkpoint");

    let recovered = Engine::open_with_config(&dir, cfg()).expect("fallback recovery");
    let report = recovered.recovery_report().expect("opened engine").clone();
    assert!(report.fallback >= 1, "fallback not recorded: {report:?}");
    assert!(!report.warnings.is_empty(), "silent fallback");
    assert_eq!(
        recovered.mutations() as usize,
        baseline.len() + gen2.len(),
        "fallback + full replay must reach the same state"
    );
    let mut oracle = oracle_after(&baseline, &gen2, gen2.len());
    assert_engines_identical(&recovered, &mut oracle, "checkpoint fallback");
    let _ = std::fs::remove_dir_all(&dir);
}

/// When checkpoints exist but none loads, recovery must refuse: an
/// empty database over existing data would be a silent wrong answer.
#[test]
fn unrecoverable_directory_is_an_error_not_empty() {
    let dir = test_dir("unrecoverable");
    let mut rng = StdRng::seed_from_u64(6);
    let baseline: Vec<UncertainObject> = (0..4).map(|_| random_object(&mut rng)).collect();
    seed_dir(&dir, &baseline);

    // corrupt every checkpoint in the directory
    for entry in std::fs::read_dir(&dir).expect("read dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "ckpt") {
            let mut bytes = std::fs::read(&path).expect("read");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("write");
        }
    }
    match Engine::open_with_config(&dir, cfg()) {
        Err(DurableError::NoValidCheckpoint { warnings }) => {
            assert!(!warnings.is_empty(), "refusal must explain itself");
        }
        Err(other) => panic!("wrong error: {other}"),
        Ok(engine) => panic!(
            "recovered {} objects from an unrecoverable directory",
            engine.db().len()
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Group commit: a run of inserts shares one WAL fsync
// ---------------------------------------------------------------------

/// The shared handles of one [`ProbeIo`]: its WAL-segment fsync count,
/// a switch that makes those fsyncs fail, its checkpoint write count,
/// a switch that makes checkpoint writes fail, and a switch that makes
/// the next directory fsync fail.
#[derive(Clone, Default)]
struct Probe {
    wal_syncs: Arc<AtomicUsize>,
    fail_syncs: Arc<AtomicBool>,
    checkpoints: Arc<AtomicUsize>,
    fail_checkpoints: Arc<AtomicBool>,
    fail_sync_dir_once: Arc<AtomicBool>,
}

/// A [`FileIo`] that counts WAL-segment fsyncs and fails them while
/// `fail_syncs` is set, fails the checkpoint file's write while
/// `fail_checkpoints` is set, and fails one directory fsync after
/// `fail_sync_dir_once` is set: the IO-level probe of the group-commit
/// and checkpoint-failure tests.
struct ProbeIo {
    inner: FileIo,
    probe: Probe,
}

impl Probe {
    fn io(&self) -> Box<dyn DurableIo> {
        Box::new(ProbeIo {
            inner: FileIo::new(),
            probe: self.clone(),
        })
    }

    fn syncs(&self) -> usize {
        self.wal_syncs.load(Ordering::SeqCst)
    }
}

impl DurableIo for ProbeIo {
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(path, bytes)
    }

    fn sync(&mut self, path: &Path) -> io::Result<()> {
        if path.extension().is_some_and(|e| e == "log") {
            if self.probe.fail_syncs.load(Ordering::SeqCst) {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.probe.wal_syncs.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.sync(path)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn write_new(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.probe.fail_checkpoints.load(Ordering::SeqCst) {
            return Err(io::Error::other("injected checkpoint write failure"));
        }
        self.probe.checkpoints.fetch_add(1, Ordering::SeqCst);
        self.inner.write_new(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove_file(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&mut self, dir: &Path) -> io::Result<()> {
        if self.probe.fail_sync_dir_once.swap(false, Ordering::SeqCst) {
            return Err(io::Error::other("injected directory fsync failure"));
        }
        self.inner.sync_dir(dir)
    }

    fn gate(&mut self, point: CrashPoint) -> io::Result<()> {
        self.inner.gate(point)
    }
}

/// With `wal_sync_every = 1`, a run of 16 inserts fsyncs each touched
/// shard's segment exactly once; the same 16 inserts one by one fsync
/// 16 times.
#[test]
fn insert_run_fsyncs_each_touched_shard_once() {
    for shards in [1usize, 3] {
        let dir = test_dir(&format!("group-commit-{shards}"));
        let probes: Vec<Probe> = (0..shards).map(|_| Probe::default()).collect();
        let mut engine =
            ShardedEngine::open_with_io(&dir, cfg(), shards, |s| probes[s].io()).expect("open");
        let mut rng = StdRng::seed_from_u64(21);
        let run: Vec<UncertainObject> = (0..16).map(|_| random_object(&mut rng)).collect();

        let acks = engine.try_insert_run(run.clone()).expect("run");
        let ids: Vec<u32> = acks.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids, (0..16).collect::<Vec<u32>>(), "{shards} shards");
        for (s, probe) in probes.iter().enumerate() {
            assert_eq!(probe.syncs(), 1, "{shards} shards: shard {s}");
        }

        for o in run {
            engine.try_insert(o).expect("single insert");
        }
        let total: usize = probes.iter().map(Probe::syncs).sum();
        assert_eq!(
            total,
            shards + 16,
            "{shards} shards: one fsync per single insert"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The run configuration: cadence checkpoints every 20 records, so the
/// second run of [`crash_in_run_case`] ends with one.
fn run_cfg() -> IdcaConfig {
    IdcaConfig {
        checkpoint_every: 20,
        ..cfg()
    }
}

/// Acknowledges a run of 8 inserts, then crashes a run of 16 at the
/// `pos`-th crossing of `point` inside it (the WAL gates are crossed
/// once per record, the after-sync gate once per run, the checkpoint
/// gates by the cadence checkpoint after the run). Nothing of the
/// crashed run is applied in memory; recovery keeps the whole first run
/// and exactly the prefix of the second that reached the file.
fn crash_in_run_case(point: CrashPoint, mode: FaultMode, pos: u32) {
    let name = format!("run-{}-{:?}-{pos}", point.name(), mode);
    let dir = test_dir(&name);
    let mut rng = StdRng::seed_from_u64(40 + u64::from(pos));
    let baseline: Vec<UncertainObject> = (0..6).map(|_| random_object(&mut rng)).collect();
    seed_dir(&dir, &baseline);
    let first: Vec<UncertainObject> = (0..8).map(|_| random_object(&mut rng)).collect();
    let second: Vec<UncertainObject> = (0..16).map(|_| random_object(&mut rng)).collect();

    let wal_record_gate = matches!(point, CrashPoint::WalMidRecord | CrashPoint::WalBeforeSync);
    // the first run crosses each record gate 8 times and the after-sync
    // gate once; opening crosses each checkpoint gate once
    let nth = if wal_record_gate { 8 + pos } else { 2 };
    let io = FaultIo::armed(mode, point, nth);
    let mut engine = Engine::open_with_io(&dir, run_cfg(), Box::new(io)).expect("armed open");
    engine
        .try_insert_run(first.clone())
        .unwrap_or_else(|e| panic!("{name}: first run failed: {e}"));
    let result = engine.try_insert_run(second.clone());
    let checkpoint_gate = !wal_record_gate && point != CrashPoint::WalAfterSync;
    // only the cadence checkpoint runs after the inserts are applied:
    // its failure is counted, and the run is acknowledged
    let fired = if checkpoint_gate {
        result.is_ok() && engine.checkpoint_failures() == 1
    } else {
        result.is_err()
    };
    assert!(fired, "{name}: the armed crash point never fired");
    let applied = engine.db().len() - baseline.len() - first.len();
    let expect_applied = if checkpoint_gate { second.len() } else { 0 };
    assert_eq!(applied, expect_applied, "{name}: applied in memory");
    drop(engine);

    let recovered = Engine::open_with_config(&dir, run_cfg())
        .unwrap_or_else(|e| panic!("{name}: recovery failed: {e}"));
    let survived = (recovered.mutations() as usize)
        .checked_sub(baseline.len() + first.len())
        .unwrap_or_else(|| panic!("{name}: an acknowledged insert was lost"));
    let pos = pos as usize;
    let expected = match (point, mode) {
        (CrashPoint::WalMidRecord, FaultMode::WriteThrough) => pos - 1,
        (CrashPoint::WalBeforeSync, FaultMode::WriteThrough) => pos,
        // nothing of the run was fsynced
        (_, FaultMode::WriteBack) if wal_record_gate => 0,
        // the run's fsync came before the crash
        _ => second.len(),
    };
    assert_eq!(survived, expected, "{name}: surviving prefix");

    let mut oracle = Engine::with_config(Database::new(), run_cfg());
    for o in baseline.iter().chain(&first).chain(&second[..survived]) {
        oracle.insert(o.clone());
    }
    oracle.checkpoint().expect("oracle checkpoint");
    let a = serde_json::to_string(recovered.db()).expect("serialize recovered");
    let b = serde_json::to_string(oracle.db()).expect("serialize oracle");
    assert_eq!(a, b, "{name}: databases diverged");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_every_point_and_record_of_a_run_recovers_a_prefix() {
    for &point in CrashPoint::ALL.iter() {
        let positions = match point {
            CrashPoint::WalMidRecord | CrashPoint::WalBeforeSync => 1..=16,
            _ => 1..=1,
        };
        for pos in positions {
            for mode in [FaultMode::WriteThrough, FaultMode::WriteBack] {
                crash_in_run_case(point, mode, pos);
            }
        }
    }
}

/// An fsync that fails inside a pipelined run of `INSERT` lines — on
/// the last shard, after the others synced — applies nothing: every
/// line of the run replies `ERR insert failed`, no `NOTIFY` is pushed,
/// and the served answers are unchanged.
#[test]
fn failed_run_fsync_applies_nothing_and_every_line_errs() {
    let json = |o: &UncertainObject| serde_json::to_string(o).expect("objects serialize");
    for shards in [1usize, 2] {
        let dir = test_dir(&format!("failed-fsync-{shards}"));
        let probes: Vec<Probe> = (0..shards).map(|_| Probe::default()).collect();
        let engine =
            ShardedEngine::open_with_io(&dir, cfg(), shards, |s| probes[s].io()).expect("open");
        let mut server = Server::new(engine, 16);
        let mut rng = StdRng::seed_from_u64(8);
        let seed: Vec<String> = (0..10)
            .map(|_| format!("INSERT {}", json(&random_object(&mut rng))))
            .collect();
        let (replies, _) = server.execute_batch(&seed);
        assert!(replies.iter().all(|r| r.starts_with("OK ")), "{replies:?}");
        let q = json(&random_object(&mut rng));
        let (sub, _) = server.execute_batch(&[format!("SUB KNN 2 0.2 {q}")]);
        assert!(sub[0].starts_with("SUB "), "{sub:?}");

        let probe = vec![
            format!("KNN 2 0.3 {q}"),
            format!("RKNN 1 0.3 {q}"),
            format!("TOPM 3 {q}"),
            "STATS".to_owned(),
        ];
        let (before, _) = server.execute_batch(&probe);
        let (len, mutations) = (server.engine().len(), server.engine().mutations());

        probes[shards - 1].fail_syncs.store(true, Ordering::SeqCst);
        let run: Vec<String> = (0..16)
            .map(|_| format!("INSERT {}", json(&random_object(&mut rng))))
            .collect();
        let (replies, _) = server.execute_batch(&run);
        assert_eq!(replies.len(), run.len(), "{shards} shards: {replies:?}");
        assert!(
            replies.iter().all(|r| r.starts_with("ERR insert failed: ")),
            "{shards} shards: {replies:?}"
        );
        probes[shards - 1].fail_syncs.store(false, Ordering::SeqCst);

        assert_eq!(server.engine().len(), len, "{shards} shards");
        assert_eq!(server.engine().mutations(), mutations, "{shards} shards");
        let (after, _) = server.execute_batch(&probe);
        assert_eq!(before, after, "{shards} shards: served state changed");
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Copies a durable directory tree (a restart's view of it: every file
/// as written so far).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy file");
        }
    }
}

/// Mutations refused on a failed fsync leave no trace: their records are
/// cut from the WAL again, so a restarted server serves exactly the
/// acknowledged state, and hands out the same next id as the live one.
/// The refused insert run fails on the last shard only, so the other
/// shards' synced records must be cut as well.
#[test]
fn refused_mutations_leave_no_trace_after_a_reopen() {
    let json = |o: &UncertainObject| serde_json::to_string(o).expect("objects serialize");
    for shards in [1usize, 2] {
        let dir = test_dir(&format!("refused-{shards}"));
        let restarted = test_dir(&format!("refused-{shards}-restarted"));
        let probes: Vec<Probe> = (0..shards).map(|_| Probe::default()).collect();
        let engine =
            ShardedEngine::open_with_io(&dir, cfg(), shards, |s| probes[s].io()).expect("open");
        let mut server = Server::new(engine, 16);
        let mut rng = StdRng::seed_from_u64(12);
        let seed: Vec<String> = (0..10)
            .map(|_| format!("INSERT {}", json(&random_object(&mut rng))))
            .collect();
        let (replies, _) = server.execute_batch(&seed);
        assert!(replies.iter().all(|r| r.starts_with("OK ")), "{replies:?}");

        probes[shards - 1].fail_syncs.store(true, Ordering::SeqCst);
        let run: Vec<String> = (0..16)
            .map(|_| format!("INSERT {}", json(&random_object(&mut rng))))
            .collect();
        let (replies, _) = server.execute_batch(&run);
        assert_eq!(replies.len(), 16, "{shards} shards: {replies:?}");
        assert!(
            replies.iter().all(|r| r.starts_with("ERR insert failed: ")),
            "{shards} shards: {replies:?}"
        );
        // global id `shards - 1` lives on the failing shard
        let id = shards - 1;
        let update = format!("UPDATE {id} {}", json(&random_object(&mut rng)));
        let (replies, _) = server.execute_batch(&[update, format!("DELETE {id}")]);
        assert!(replies[0].starts_with("ERR update failed: "), "{replies:?}");
        assert!(replies[1].starts_with("ERR delete failed: "), "{replies:?}");
        probes[shards - 1].fail_syncs.store(false, Ordering::SeqCst);

        let stats = || "STATS".to_owned();
        let acknowledged = "OK objects=10 mutations=10 ";
        let (live, _) = server.execute_batch(&[stats()]);
        assert!(
            live[0].starts_with(acknowledged),
            "{shards} shards: {live:?}"
        );
        let probe = vec![format!("KNN 2 0.3 {}", json(&random_object(&mut rng)))];
        let (live_answer, _) = server.execute_batch(&probe);

        copy_dir(&dir, &restarted);
        let reopened = ShardedEngine::open(&restarted, cfg(), shards).expect("reopen");
        let mut reopened = Server::new(reopened, 16);
        let (after, _) = reopened.execute_batch(&[stats()]);
        assert!(
            after[0].starts_with(acknowledged),
            "{shards} shards: {after:?}"
        );
        let (answer, _) = reopened.execute_batch(&probe);
        assert_eq!(
            answer, live_answer,
            "{shards} shards: answers after a reopen"
        );
        let next = vec![format!("INSERT {}", json(&random_object(&mut rng)))];
        let (live_id, _) = server.execute_batch(&next);
        let (reopened_id, _) = reopened.execute_batch(&next);
        assert_eq!(live_id, reopened_id, "{shards} shards: next insert id");
        assert_eq!(live_id[0], "OK 10", "{shards} shards");
        drop((server, reopened));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&restarted);
    }
}

/// A cadence checkpoint that fails after a remove or an update is
/// counted, not returned: the mutation is acknowledged, applied and
/// durable, and everything the engine derives from it has seen it: the
/// standing kNN
/// subscription equals a re-answer, and at two shards the router cache
/// replays no partition of the old PDF, so queries answer like a fresh
/// engine over the same objects.
fn failed_cadence_checkpoint_case(shards: usize) {
    let dir = test_dir(&format!("failed-checkpoint-{shards}"));
    let cfg = IdcaConfig {
        checkpoint_every: 1,
        ..cfg()
    };
    let objects = SyntheticConfig {
        n: 200,
        max_extent: 0.05,
        ..Default::default()
    };
    let mut mirror = objects.generate();
    let probes: Vec<Probe> = (0..shards).map(|_| Probe::default()).collect();
    let mut engine =
        ShardedEngine::open_with_io(&dir, cfg.clone(), shards, |s| probes[s].io()).expect("open");
    let seed: Vec<UncertainObject> = mirror.iter().map(|(_, o)| o.clone()).collect();
    engine.try_insert_run(seed).expect("seed run");
    let q = mirror.get(ObjectId(1)).clone();
    let (k, tau) = (3, 0.3);
    engine.subscribe(q.clone(), StandingSpec::Knn { k, tau });
    // warm the decomposition cache with the objects around `q`
    engine.knn_threshold(&q, k, tau);

    let mut rng = StdRng::seed_from_u64(51);
    let center = |o: &UncertainObject, dx: f64| {
        let c = o.mbr().center();
        vec![c[0] + dx, c[1]]
    };
    let near = objects.generate_object_at(center(&q, 0.01), &mut rng);
    let far = objects.generate_object_at(center(&q, 0.5), &mut rng);
    let steps = [
        (ObjectId(1), Some(near)),
        (ObjectId(1), Some(far)),
        (engine.nearest(q.mbr()).expect("live objects"), None),
    ];
    for (step, (id, object)) in steps.into_iter().enumerate() {
        let ctx = format!("{shards} shards, step {step}");
        probes[engine.shard_of(id)]
            .fail_checkpoints
            .store(true, Ordering::SeqCst);
        let result = match object {
            Some(o) => {
                mirror.replace(id, o.clone());
                engine.try_update(id, o).map(drop)
            }
            None => {
                mirror.remove(id);
                engine.try_remove(id).map(drop)
            }
        };
        result
            .unwrap_or_else(|e| panic!("{ctx}: a failed cadence checkpoint failed the call: {e}"));
        assert_eq!(
            engine.checkpoint_failures(),
            step as u64 + 1,
            "{ctx}: the failed checkpoint was not counted"
        );
        probes[engine.shard_of(id)]
            .fail_checkpoints
            .store(false, Ordering::SeqCst);

        let answer = engine.knn_threshold(&q, k, tau);
        let standing = engine.standing_queries()[0].results();
        assert_results_identical(standing, &answer, &format!("{ctx}: standing"));
        let fresh = Engine::with_config(mirror.clone(), cfg.clone());
        let probe = objects.generate_object_at(center(&q, 0.005), &mut rng);
        for (query, kind) in [(&q, "query"), (&probe, "probe")] {
            assert_results_identical(
                &engine.knn_threshold(query, k, tau),
                &fresh.knn_threshold(query, k, tau),
                &format!("{ctx}: {kind} vs a fresh engine"),
            );
        }
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_cadence_checkpoint_keeps_standing_results_current() {
    failed_cadence_checkpoint_case(1);
}

#[test]
fn failed_cadence_checkpoint_keeps_the_router_cache_current() {
    failed_cadence_checkpoint_case(2);
}

/// Cadence checkpoints every 2 records.
fn cadence_cfg() -> IdcaConfig {
    IdcaConfig {
        checkpoint_every: 2,
        ..cfg()
    }
}

/// A checkpoint's rename is its commit point: when the directory fsync
/// after the rename fails, and the next cadence checkpoint then fails
/// before its rename, the mutations acknowledged in between still go to
/// a segment the renamed checkpoint's recovery replays, so a reopen
/// serves every one of them.
#[test]
fn failed_directory_fsync_after_a_rename_loses_no_acknowledged_mutation() {
    let dir = test_dir("failed-sync-dir");
    let probe = Probe::default();
    let mut engine = Engine::open_with_io(&dir, cadence_cfg(), probe.io()).expect("open");
    let mut oracle = Engine::with_config(Database::new(), cfg());
    let mut rng = StdRng::seed_from_u64(71);
    let mut ops: Vec<Op> = (0..6)
        .map(|_| Op::Insert(random_object(&mut rng)))
        .collect();
    ops.push(Op::Insert(random_object(&mut rng)));
    ops.push(Op::Remove(ObjectId(1)));
    ops.push(Op::Update(ObjectId(3), random_object(&mut rng)));
    ops.push(Op::Insert(random_object(&mut rng)));
    for (i, op) in ops.iter().enumerate() {
        match i {
            // the cadence checkpoint after the sixth record renames,
            // then fails its directory fsync
            4 => probe.fail_sync_dir_once.store(true, Ordering::SeqCst),
            // every later cadence checkpoint fails before its rename
            6 => probe.fail_checkpoints.store(true, Ordering::SeqCst),
            _ => {}
        }
        apply_fallible(&mut engine, op).unwrap_or_else(|e| panic!("mutation {i}: {e}"));
        apply_fallible(&mut oracle, op).expect("in-memory mutation");
    }
    assert!(
        !probe.fail_sync_dir_once.load(Ordering::SeqCst),
        "no directory fsync failed"
    );
    assert!(
        engine.checkpoint_failures() >= 2,
        "failures counted: {}",
        engine.checkpoint_failures()
    );
    drop(engine); // a crash: every record is already fsynced
    let recovered = Engine::open_with_config(&dir, cfg()).expect("reopen");
    assert_engines_identical(&recovered, &mut oracle, "after a failed directory fsync");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The R-tree's shape: its height and its leaf entries in visit order.
fn tree_shape(engine: &Engine) -> (usize, Vec<ObjectId>) {
    let mut order = Vec::new();
    engine
        .tree()
        .for_each_unpruned(&mut |_| false, &mut |&id| order.push(id));
    (engine.tree().height(), order)
}

/// A cadence checkpoint whose write fails leaves the R-tree as the
/// mutations left it: the rebuild waits for a write that succeeds, so
/// the retry after every later mutation does not rebuild the tree each
/// time. With failing writes the durable tree keeps the shape of an
/// in-memory twin's, which no cadence touches; once writes succeed, an
/// explicit checkpoint rebuilds both alike.
#[test]
fn failed_cadence_checkpoints_leave_the_tree_unrebuilt() {
    let dir = test_dir("failed-checkpoint-tree");
    let probe = Probe::default();
    let mut engine = Engine::open_with_io(&dir, cadence_cfg(), probe.io()).expect("open");
    let mut twin = Engine::with_config(Database::new(), cadence_cfg());
    probe.fail_checkpoints.store(true, Ordering::SeqCst);
    let mut rng = StdRng::seed_from_u64(83);
    for i in 0..40 {
        let o = random_object(&mut rng);
        engine
            .try_insert(o.clone())
            .unwrap_or_else(|e| panic!("insert {i}: {e}"));
        twin.insert(o);
    }
    // due from the second record on, and retried after every mutation
    assert_eq!(engine.checkpoint_failures(), 39);
    assert_eq!(tree_shape(&engine), tree_shape(&twin), "failing writes");
    probe.fail_checkpoints.store(false, Ordering::SeqCst);
    engine.checkpoint().expect("checkpoint");
    twin.checkpoint().expect("in-memory checkpoint");
    assert_eq!(tree_shape(&engine), tree_shape(&twin), "after a checkpoint");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Serves `lines` on a fresh durable server in `dir` with
/// [`cadence_cfg`]: the first 11 lines (seed inserts and a
/// subscription) with working checkpoint writes, the rest with failing
/// ones when `fail` is set. Returns the server, its probes and the
/// replies to the rest.
fn serve_with_failing_checkpoints(
    dir: &Path,
    shards: usize,
    lines: &[String],
    fail: bool,
) -> (Server, Vec<Probe>, Vec<String>) {
    let probes: Vec<Probe> = (0..shards).map(|_| Probe::default()).collect();
    let engine =
        ShardedEngine::open_with_io(dir, cadence_cfg(), shards, |s| probes[s].io()).expect("open");
    let mut server = Server::new(engine, 16);
    let (seeded, _) = server.execute_batch(&lines[..11]);
    assert!(seeded[10].starts_with("SUB "), "{seeded:?}");
    for probe in &probes {
        probe.fail_checkpoints.store(fail, Ordering::SeqCst);
    }
    let (replies, _) = server.execute_batch(&lines[11..]);
    (server, probes, replies)
}

/// Cadence checkpoints that fail while a durable server handles
/// mutations never turn an applied mutation into an `ERR`: a pipelined
/// `INSERT` run, a `DELNEAR` and an `UPDATE` each reply `OK <gid>` with
/// their `NOTIFY` lines right behind them, exactly as on a server whose
/// checkpoints succeed, so a client that resends every `ERR` line
/// applies nothing twice. The failures are counted; once writes succeed
/// again, the next mutation checkpoints, and a reopen serves exactly
/// the acknowledged mutations.
#[test]
fn failed_cadence_checkpoints_reply_ok_and_notify_in_place() {
    let json = |o: &UncertainObject| serde_json::to_string(o).expect("objects serialize");
    let mut rng = StdRng::seed_from_u64(61);
    let seed: Vec<UncertainObject> = (0..10).map(|_| random_object(&mut rng)).collect();
    let q = json(&seed[3]);
    let mut lines: Vec<String> = seed.iter().map(|o| format!("INSERT {}", json(o))).collect();
    lines.push(format!("SUB KNN 2 0.3 {q}"));
    let run_start = lines.len();
    for _ in 0..6 {
        lines.push(format!("INSERT {}", json(&random_object(&mut rng))));
    }
    lines.push(format!("DELNEAR {q}"));
    lines.push(format!("UPDATE 2 {}", json(&random_object(&mut rng))));
    let mutations = lines.len() - run_start;
    lines.push("STATS".to_owned());
    let probe_queries = vec![
        format!("KNN 2 0.3 {q}"),
        format!("RKNN 1 0.3 {q}"),
        format!("TOPM 3 {q}"),
    ];

    for shards in [1usize, 2] {
        let dir = test_dir(&format!("failing-cadence-{shards}"));
        let oracle_dir = test_dir(&format!("failing-cadence-{shards}-oracle"));
        let (mut server, probes, replies) =
            serve_with_failing_checkpoints(&dir, shards, &lines, true);
        let (_, _, oracle) = serve_with_failing_checkpoints(&oracle_dir, shards, &lines, false);
        assert_eq!(replies, oracle, "{shards} shards: replies");
        assert!(
            server.engine().checkpoint_failures() > 0,
            "{shards} shards: no cadence checkpoint failed"
        );

        // one reply per request, its NOTIFY lines right behind it; a
        // NOTIFY follows only a mutation's reply or another NOTIFY
        let requests = &lines[run_start..];
        let mut answered: Vec<&String> = Vec::new();
        let mut notifies = 0;
        for reply in &replies {
            if reply.starts_with("NOTIFY ") {
                let behind = answered.len().checked_sub(1).map(|i| &requests[i]);
                assert!(
                    behind.is_some_and(|r| !r.starts_with("STATS")),
                    "{shards} shards: NOTIFY out of place: {replies:?}"
                );
                notifies += 1;
            } else {
                answered.push(reply);
            }
        }
        assert!(notifies > 0, "{shards} shards: nothing was notified");
        assert_eq!(
            answered.len(),
            requests.len(),
            "{shards} shards: {replies:?}"
        );
        for (request, reply) in requests[..mutations].iter().zip(&answered) {
            let id = reply
                .strip_prefix("OK ")
                .and_then(|id| id.parse::<u32>().ok());
            assert!(id.is_some(), "{shards} shards: {request:.12} -> {reply}");
        }

        // a client resending every ERR line ends where a failure-free
        // run ends
        let resend: Vec<String> = requests
            .iter()
            .zip(&answered)
            .filter(|(_, reply)| reply.starts_with("ERR"))
            .map(|(request, _)| request.clone())
            .chain(["STATS".to_owned()])
            .collect();
        let (after, _) = server.execute_batch(&resend);
        assert_eq!(
            after.last(),
            oracle.last(),
            "{shards} shards: STATS after resending"
        );

        // writes succeed again: the next mutation checkpoints
        let failures = server.engine().checkpoint_failures();
        let written: usize = probes
            .iter()
            .map(|p| p.checkpoints.load(Ordering::SeqCst))
            .sum();
        for probe in &probes {
            probe.fail_checkpoints.store(false, Ordering::SeqCst);
        }
        let next = vec![format!("INSERT {}", json(&random_object(&mut rng)))];
        let (acked, _) = server.execute_batch(&next);
        assert!(acked[0].starts_with("OK "), "{shards} shards: {acked:?}");
        let now: usize = probes
            .iter()
            .map(|p| p.checkpoints.load(Ordering::SeqCst))
            .sum();
        assert_eq!(now, written + 1, "{shards} shards: checkpoints written");
        assert_eq!(server.engine().checkpoint_failures(), failures);

        let stats = vec!["STATS".to_owned()];
        let (live_stats, _) = server.execute_batch(&stats);
        let (live_answers, _) = server.execute_batch(&probe_queries);
        drop(server);
        let reopened = ShardedEngine::open(&dir, cadence_cfg(), shards).expect("reopen");
        let mut reopened = Server::new(reopened, 16);
        let (reopened_stats, _) = reopened.execute_batch(&stats);
        let counts = |s: &str| s.split(' ').take(3).collect::<Vec<_>>().join(" ");
        assert_eq!(
            counts(&reopened_stats[0]),
            counts(&live_stats[0]),
            "{shards} shards: acknowledged mutations after a reopen"
        );
        let (reopened_answers, _) = reopened.execute_batch(&probe_queries);
        assert_eq!(
            reopened_answers, live_answers,
            "{shards} shards: answers after a reopen"
        );
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&oracle_dir);
    }
}
