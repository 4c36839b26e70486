//! The traced run: replays a served run's ops in process, timing the
//! calls into each layer's public functions as spans.
//!
//! Four engines replay the same ops side by side:
//!
//! * **A**, a `udb_serve::Server`: the untraced entry point
//!   (`Server::execute_tagged`), whose time is `serve.execute_ms` and the
//!   base of the tracing overhead;
//! * **B**, a `ShardedEngine` driven layer by layer from outside —
//!   `parse_line`, `run_batch` on the fused slices, the mutation calls,
//!   `take_standing_deltas`, `format_*` — with a span around each call;
//! * **R**, an in-memory single `Engine`: per-query entry points (the
//!   fusion-gain base) and, for kNN, the refiners `Engine::refiner`
//!   builds, stepped under the single-lane rule;
//! * for durable workloads, twins of B without subscriptions (the
//!   standing-maintenance base) and without per-record fsync (the sync
//!   base), replaying only the mutations.
//!
//! Every reply of A, B and R must equal the served reply byte for byte.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use udb_core::{Engine, IdcaConfig, ObjRef, RefineGoal, ShardedEngine, ThresholdResult};
use udb_object::{Database, ObjectId, UncertainObject};
use udb_serve::{format_notify, format_results, parse_line, Op, Server, TaggedLine};

use crate::check::Request;
use crate::run::{Entry, Options, Phase, Served};
use crate::stats::{mean, median};
use crate::workload::{Workload, BATCH_CAP};

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `refiner.step`.
    pub name: &'static str,
    /// The span this call ran inside.
    pub parent: Option<usize>,
    /// Index of the op (in the served transcript) the call served.
    pub op: usize,
    /// Start, ns since the tracer began.
    pub start_ns: u64,
    /// End, ns since the tracer began.
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder; spans are written out once, at the end.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn begin(&mut self, name: &'static str, op: usize) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ms.
    fn end(&mut self) -> f64 {
        let i = self.open.pop().expect("a span is open");
        self.spans[i].end_ns = self.now();
        self.spans[i].ms()
    }

    /// A span around one call.
    fn call<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Bytes the durability layer wrote, observed from outside: the largest
/// size seen of every WAL segment and checkpoint file in the directory.
struct DirBytes {
    dir: PathBuf,
    seen: BTreeMap<PathBuf, u64>,
}

impl DirBytes {
    /// Rescans; returns whether a checkpoint file appeared.
    fn scan(&mut self) -> bool {
        let mut new_checkpoint = false;
        let mut stack = vec![self.dir.clone()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for e in entries.flatten() {
                let path = e.path();
                let Ok(meta) = e.metadata() else { continue };
                if meta.is_dir() {
                    stack.push(path);
                    continue;
                }
                let name = e.file_name().to_string_lossy().into_owned();
                let ckpt = name.starts_with("checkpoint-") && name.ends_with(".ckpt");
                if !(ckpt || name.starts_with("wal-") && name.ends_with(".log")) {
                    continue;
                }
                let size = self.seen.entry(path).or_insert_with(|| {
                    new_checkpoint |= ckpt;
                    0
                });
                *size = (*size).max(meta.len());
            }
        }
        new_checkpoint
    }

    fn bytes(&self, prefix: &str) -> u64 {
        self.seen
            .iter()
            .filter(|(p, _)| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with(prefix))
            })
            .map(|(_, &n)| n)
            .sum()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn engine(w: &Workload, cfg: IdcaConfig, dir: Option<&Path>) -> Result<ShardedEngine, String> {
    match dir {
        Some(dir) => {
            if dir.exists() {
                std::fs::remove_dir_all(dir)
                    .map_err(|e| format!("clear {}: {e}", dir.display()))?;
            }
            ShardedEngine::open(dir, cfg, w.shards)
                .map_err(|e| format!("open {}: {e}", dir.display()))
        }
        None => Ok(ShardedEngine::with_config(
            Database::from_objects(Vec::new()),
            cfg,
            w.shards,
        )),
    }
}

/// The parsed op of a served line.
fn op_of(line: &str) -> Op {
    parse_line(line)
        .expect("served lines parse")
        .expect("served lines are operations")
}

/// One replayed mutation, as applied to B, R and the twins.
enum Mutation {
    Insert(UncertainObject),
    Remove(ObjectId),
    Update(ObjectId, UncertainObject),
}

fn apply(e: &mut ShardedEngine, m: &Mutation) -> Result<(), String> {
    let r = match m {
        Mutation::Insert(o) => e.try_insert(o.clone()).map(|_| ()),
        Mutation::Remove(id) => e.try_remove(*id).map(|_| ()),
        Mutation::Update(id, o) => e.try_update(*id, o.clone()).map(|_| ()),
    };
    r.map_err(|err| format!("twin mutation: {err}"))
}

/// Accumulators of the replayed (measured + probe) ops.
#[derive(Default)]
struct Acc {
    ops: usize,
    slices: usize,
    a_ms: f64,
    root_ms: f64,
    front_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    run_batch_ms: f64,
    entry_ms: f64,
    b_mutation_ms: Vec<f64>,
    twin_ms: Vec<f64>,
    nosync_ms: Vec<f64>,
    router_cands: Vec<f64>,
    index_cands: Vec<f64>,
    influence: Vec<f64>,
    complete: Vec<f64>,
    refiners: usize,
    decided: usize,
    open: u64,
    scratch: u64,
    member_iterations: Vec<f64>,
    unattributed_ms: Vec<f64>,
}

/// Replays the served run with spans and returns the per-layer metrics.
/// Any reply that differs from the served one is added to `problems`.
pub fn replay(
    o: &Options,
    served: &Served,
    problems: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let w = &o.workload;
    let cfg = w.config();
    let dir = |name: &str| w.durable.then(|| o.work.join(format!("trace-{name}")));
    let (dir_a, dir_b, dir_t1, dir_t2) = (dir("a"), dir("b"), dir("nosubs"), dir("nosync"));
    let mut a = Server::new(engine(w, cfg.clone(), dir_a.as_deref())?, BATCH_CAP);
    let mut b = engine(w, cfg.clone(), dir_b.as_deref())?;
    let mut r = Engine::with_config(Database::from_objects(Vec::new()), cfg.clone());
    let mut twins = match (&dir_t1, &dir_t2) {
        (Some(t1), Some(t2)) => {
            let nosync = IdcaConfig {
                wal_sync_every: 0,
                ..cfg.clone()
            };
            Some((
                engine(w, cfg.clone(), Some(t1))?,
                engine(w, nosync, Some(t2))?,
            ))
        }
        _ => None,
    };
    let mut bytes = dir_b.clone().map(|dir| DirBytes {
        dir,
        seen: BTreeMap::new(),
    });
    if let Some(bytes) = &mut bytes {
        bytes.scan();
    }
    let mut tr = Tracer::new();
    let mut mismatches = 0usize;
    let mut mismatch = |what: String| {
        if mismatches < 8 {
            problems.push(what);
        }
        mismatches += 1;
    };
    // (duration, crossed a checkpoint) of every B mutation call
    let mut mutation_calls: Vec<(f64, bool)> = Vec::new();
    let mut json_bytes = 0u64;

    // set-up and subscriptions: replayed, not measured
    let setup: Vec<(usize, &Entry)> = served
        .entries
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e.phase, Phase::Setup | Phase::Sub))
        .collect();
    for &(i, e) in &setup {
        let (replies, _) = a.execute_tagged(&[(0, Ok(e.line.clone()))]);
        if replies.len() != 1 || replies[0].1 != e.reply {
            mismatch(format!(
                "server replay of op {i}: {replies:?} vs {:?}",
                e.reply
            ));
        }
        match op_of(&e.line) {
            Op::Insert(obj) => {
                json_bytes += (e.line.len() - "INSERT ".len()) as u64;
                tr.begin("wal.mutation", i);
                let id = b
                    .try_insert(obj.clone())
                    .map_err(|e| format!("insert: {e}"))?;
                let dur = tr.end();
                let crossed = bytes.as_mut().is_some_and(DirBytes::scan);
                mutation_calls.push((dur, crossed));
                if format!("OK {}", id.0) != e.reply {
                    mismatch(format!(
                        "traced replay of op {i}: OK {} vs {:?}",
                        id.0, e.reply
                    ));
                }
                r.insert(obj.clone());
                if let Some((t1, t2)) = &mut twins {
                    apply(t1, &Mutation::Insert(obj.clone()))?;
                    apply(t2, &Mutation::Insert(obj))?;
                }
            }
            Op::Sub { q, spec } => {
                let (sid, hits) = tr.call("standing.subscribe", i, || b.subscribe(q, spec));
                let reply = format!("SUB {sid} {}", format_results(&hits));
                if reply != e.reply {
                    mismatch(format!(
                        "traced replay of op {i}: {reply:?} vs {:?}",
                        e.reply
                    ));
                }
            }
            other => return Err(format!("unexpected set-up op {other:?}")),
        }
    }

    // the replayed ops: the warm-up pass, then the first `fixed_ops` ops
    // of the first measured pass and the probe. The warm-up pass runs on
    // every engine, so the timed ops meet engines as warm as the served
    // measured ops did, but no metric counts it.
    let phase = |p: Phase| {
        served
            .entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.phase == p)
    };
    let warm: Vec<(usize, &Entry)> = phase(Phase::Measured).filter(|(_, e)| e.warm).collect();
    let timed_from = warm.len();
    let ops: Vec<(usize, &Entry)> = warm
        .into_iter()
        .chain(
            phase(Phase::Measured)
                .filter(|(_, e)| !e.warm)
                .take(w.fixed_ops),
        )
        .chain(phase(Phase::Probe))
        .collect();
    let stats_of = |b: &ShardedEngine| {
        if b.num_shards() == 1 {
            b.shards()[0].refine_stats().rounds()
        } else {
            b.refine_stats().rounds()
        }
    };
    let mut first_span = 0;
    let mut rounds0 = 0;
    let mut standing0 = b.standing_stats();
    let mut acc = Acc::default();
    // Closed loops offer one op at a time. The open loop is simulated on
    // a virtual clock: each pump cycle takes every op whose scheduled
    // time has passed (up to the batch cap) and lasts as long as server A
    // takes for it, so slice sizes vary from run to run.
    let mut next = 0;
    let mut clock = 0.0f64;
    while next < ops.len() {
        if next == timed_from {
            first_span = tr.spans.len();
            rounds0 = stats_of(&b);
            standing0 = b.standing_stats();
            acc = Acc::default();
        }
        let timed = next >= timed_from;
        // a slice never straddles the end of the warm-up pass
        let part_end = if timed { ops.len() } else { timed_from };
        let slice: Vec<(usize, &Entry)> = match ops[next].1.sched_s {
            Some(due) => {
                clock = clock.max(due);
                let end = (next..part_end)
                    .take(BATCH_CAP)
                    .take_while(|&j| ops[j].1.sched_s.is_some_and(|s| s <= clock))
                    .last()
                    .map_or(next + 1, |j| j + 1);
                for (_, e) in &ops[next..end] {
                    acc.queue_wait_ms
                        .push((clock - e.sched_s.unwrap_or(clock)) * 1e3);
                }
                ops[next..end].to_vec()
            }
            None => vec![ops[next]],
        };
        next += slice.len();
        acc.slices += 1;
        acc.ops += slice.len();
        // A: the untraced entry point
        let tagged: Vec<TaggedLine> = slice.iter().map(|(_, e)| (0, Ok(e.line.clone()))).collect();
        let t = Instant::now();
        let (replies, _) = a.execute_tagged(&tagged);
        let a_ms = ms(t.elapsed());
        acc.a_ms += a_ms;
        clock += a_ms / 1e3;
        let want: Vec<&str> = slice
            .iter()
            .flat_map(|(_, e)| {
                std::iter::once(e.reply.as_str()).chain(e.notifies.iter().map(String::as_str))
            })
            .collect();
        let got: Vec<&str> = replies.iter().map(|(_, r)| r.as_str()).collect();
        if got != want {
            mismatch(format!("server replay of op {} differs", slice[0].0));
        }
        for (_, e) in &slice {
            if e.sched_s.is_none() {
                acc.front_ms.push(e.latency_ms - a_ms / slice.len() as f64);
            }
        }

        // B: the same slice, layer by layer
        let first = slice[0].0;
        tr.begin("serve.slice", first);
        let mut out: Vec<String> = Vec::new();
        let mut pending: Vec<(usize, Op)> = Vec::new();
        for &(i, e) in &slice {
            let op = tr.call("serve.parse", i, || op_of(&e.line));
            if op.is_query() {
                pending.push((i, op));
                continue;
            }
            flush(&mut tr, &b, &mut pending, &mut out, &mut acc);
            let m = match op {
                Op::Insert(obj) => {
                    json_bytes += (e.line.len() - "INSERT ".len()) as u64;
                    Mutation::Insert(obj)
                }
                Op::DeleteNearest(probe) => {
                    match tr.call("index.nearest", i, || b.nearest(probe.mbr())) {
                        Some(id) => Mutation::Remove(id),
                        None => return Err("DELNEAR on an empty engine".to_owned()),
                    }
                }
                Op::Update(id, obj) => {
                    json_bytes += serde_json::to_string(&obj).map_or(0, |j| j.len() as u64);
                    Mutation::Update(id, obj)
                }
                other => return Err(format!("unexpected replayed op {other:?}")),
            };
            tr.begin("wal.mutation", i);
            let id = match &m {
                Mutation::Insert(obj) => b.try_insert(obj.clone()),
                Mutation::Remove(id) => b.try_remove(*id).map(|_| *id),
                Mutation::Update(id, obj) => b.try_update(*id, obj.clone()).map(|_| *id),
            }
            .map_err(|err| format!("mutation: {err}"))?;
            let dur = tr.end();
            let crossed = bytes.as_mut().is_some_and(DirBytes::scan);
            mutation_calls.push((dur, crossed));
            acc.b_mutation_ms.push(dur);
            out.push(format!("OK {}", id.0));
            for delta in b.take_standing_deltas() {
                out.push(tr.call("serve.format", i, || format_notify(&delta)));
            }
            // R and the twins follow the same mutation
            match &m {
                Mutation::Insert(obj) => {
                    let rid = r.insert(obj.clone());
                    if rid != id {
                        mismatch(format!(
                            "single-engine replay assigned {rid:?}, served {id:?}"
                        ));
                    }
                }
                Mutation::Remove(id) => {
                    r.remove(*id);
                }
                Mutation::Update(id, obj) => {
                    r.update(*id, obj.clone());
                }
            }
            if let Some((t1, t2)) = &mut twins {
                let t = Instant::now();
                apply(t1, &m)?;
                acc.twin_ms.push(ms(t.elapsed()));
                let t = Instant::now();
                apply(t2, &m)?;
                acc.nosync_ms.push(ms(t.elapsed()));
            }
        }
        flush(&mut tr, &b, &mut pending, &mut out, &mut acc);
        acc.root_ms += tr.end();
        if out.iter().map(String::as_str).ne(want.iter().copied()) {
            mismatch(format!("traced replay of op {first} differs"));
        }

        // R: per-query entry points, and the kNN refiners stepped by hand
        for &(i, e) in &slice {
            let Request::Query(_) = e.req else { continue };
            if let Some(body) = e.reply.strip_prefix("RES ") {
                if let Ok(members) = crate::check::parse_body(body) {
                    acc.member_iterations
                        .extend(members.iter().map(|m| m.iterations as f64));
                }
            }
            let op = op_of(&e.line);
            let (hits, entry_ms) = {
                let t = Instant::now();
                let hits = tr.call("engine.query", i, || match &op {
                    Op::Knn { q, k, tau } => r.knn_threshold(q, *k, *tau),
                    Op::Rknn { q, k, tau } => r.rknn_threshold(q, *k, *tau),
                    Op::TopM { q, m } => r.top_probable_nn(q, *m),
                    _ => unreachable!("queries only"),
                });
                (hits, ms(t.elapsed()))
            };
            acc.entry_ms += entry_ms;
            if format_results(&hits) != e.reply {
                mismatch(format!("single-engine replay of op {i} differs"));
            }
            // the hand-stepped refiners share no cache, so they need no
            // warm-up
            if let (Op::Knn { q, k, tau }, true) = (&op, timed) {
                let (hits, spans_ms) = refine_knn(&mut tr, &b, &r, i, q, *k, *tau, &mut acc);
                acc.unattributed_ms.push(entry_ms - spans_ms);
                if format_results(&hits) != e.reply {
                    mismatch(format!(
                        "refiner replay of kNN op {i} differs from the reply"
                    ));
                }
            }
        }
    }
    if mismatches > 8 {
        problems.push(format!("{} more replay mismatches", mismatches - 8));
    }
    let rounds = stats_of(&b) - rounds0;
    let standing = b.standing_stats();
    let cache_len = if b.num_shards() == 1 {
        b.shards()[0].decomp_cache_len()
    } else {
        b.decomp_cache_len()
    };

    let spans_path = o
        .work
        .parent()
        .unwrap_or(&o.work)
        .join(format!("spans-{}-{}.jsonl", w.name, o.seed));
    tr.write(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    for d in [&dir_a, &dir_b, &dir_t1, &dir_t2].into_iter().flatten() {
        let _ = std::fs::remove_dir_all(d);
    }
    drop((a, b, twins));

    // per-call means of the replayed spans, and per-layer self time
    let spans = &tr.spans[first_span..];
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if p >= first_span {
                child_ms[p - first_span] += s.ms();
            }
        }
    }
    let per_call = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        mean(&v)
    };
    let n = acc.ops.max(1) as f64;
    let self_ms = |layer: &str| {
        let total: f64 = spans
            .iter()
            .zip(&child_ms)
            .filter(|(s, _)| s.name.split('.').next() == Some(layer))
            .map(|(s, c)| s.ms() - c)
            .sum();
        total / n
    };
    let plain: Vec<f64> = mutation_calls
        .iter()
        .filter(|c| !c.1)
        .map(|c| c.0)
        .collect();
    let base = median(&plain);
    let checkpoint: Vec<f64> = mutation_calls
        .iter()
        .filter(|c| c.1)
        .map(|c| c.0 - base)
        .collect();
    let b_mutations = mutation_calls.len().max(1) as f64;
    let (wal_bytes, ckpt_bytes) = bytes
        .as_ref()
        .map_or((0, 0), |d| (d.bytes("wal-"), d.bytes("checkpoint-")));
    let overhead_ms = (acc.root_ms - acc.a_ms) / n;
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let durable_diff = |with: &[f64], without: &[f64]| {
        if without.is_empty() {
            0.0
        } else {
            mean(with) - mean(without)
        }
    };
    let failed = served.checker.errors as f64;

    Ok(vec![
        ("serve.parse_us", per_call("serve.parse") * 1e3, "us"),
        ("serve.format_us", per_call("serve.format") * 1e3, "us"),
        ("serve.execute_ms", acc.a_ms / n, "ms"),
        ("serve.front_ms", mean(&acc.front_ms), "ms"),
        ("serve.queue_wait_ms", mean(&acc.queue_wait_ms), "ms"),
        ("serve.slice_len", n / acc.slices.max(1) as f64, "ops"),
        ("batch.run_batch_ms", per_call("batch.run_batch"), "ms"),
        (
            "batch.fusion_gain",
            frac(acc.entry_ms, acc.run_batch_ms),
            "ratio",
        ),
        ("batch.decomp_cache_len", cache_len as f64, "count"),
        (
            "router.knn_candidates_ms",
            per_call("router.knn_candidates"),
            "ms",
        ),
        ("router.candidates", mean(&acc.router_cands), "count"),
        (
            "index.knn_candidates_ms",
            per_call("index.knn_candidates"),
            "ms",
        ),
        ("index.candidates", mean(&acc.index_cands), "count"),
        ("index.nearest_us", per_call("index.nearest") * 1e3, "us"),
        ("refiner.build_ms", per_call("refiner.build"), "ms"),
        ("refiner.influence", mean(&acc.influence), "count"),
        ("refiner.complete", mean(&acc.complete), "count"),
        ("refiner.step_ms", per_call("refiner.step"), "ms"),
        ("refiner.snapshot_ms", per_call("refiner.snapshot"), "ms"),
        ("refiner.rounds", rounds as f64, "count"),
        ("refiner.iterations", mean(&acc.member_iterations), "count"),
        (
            "refiner.open_frac",
            frac(acc.open as f64, acc.scratch as f64),
            "ratio",
        ),
        (
            "refiner.decided_frac",
            frac(acc.decided as f64, acc.refiners as f64),
            "ratio",
        ),
        (
            "standing.maintained",
            (standing.maintained - standing0.maintained) as f64,
            "count",
        ),
        (
            "standing.reanswered",
            (standing.reanswered - standing0.reanswered) as f64,
            "count",
        ),
        (
            "standing.deltas",
            (standing.deltas - standing0.deltas) as f64,
            "count",
        ),
        (
            "standing.reanswer_frac",
            frac(
                (standing.reanswered - standing0.reanswered) as f64,
                (standing.maintained + standing.reanswered
                    - standing0.maintained
                    - standing0.reanswered) as f64,
            ),
            "ratio",
        ),
        (
            "standing.maintain_ms",
            durable_diff(&acc.b_mutation_ms, &acc.twin_ms),
            "ms",
        ),
        ("wal.mutation_ms", mean(&acc.b_mutation_ms), "ms"),
        (
            "wal.sync_ms",
            durable_diff(&acc.twin_ms, &acc.nosync_ms),
            "ms",
        ),
        ("durable.checkpoint_ms", mean(&checkpoint), "ms"),
        (
            "wal.bytes_per_mutation",
            wal_bytes as f64 / b_mutations,
            "B",
        ),
        (
            "durable.write_amp",
            frac((wal_bytes + ckpt_bytes) as f64, json_bytes as f64),
            "ratio",
        ),
        ("engine.unattributed_ms", mean(&acc.unattributed_ms), "ms"),
        ("self.serve_ms", self_ms("serve"), "ms"),
        ("self.batch_ms", self_ms("batch"), "ms"),
        ("self.router_ms", self_ms("router"), "ms"),
        ("self.index_ms", self_ms("index"), "ms"),
        ("self.refiner_ms", self_ms("refiner"), "ms"),
        ("self.wal_ms", self_ms("wal"), "ms"),
        ("trace.overhead_ms", overhead_ms, "ms"),
        (
            "trace.overhead_frac",
            frac(overhead_ms, acc.a_ms / n),
            "ratio",
        ),
        ("trace.spans", spans.len() as f64, "count"),
        ("client.send_late_ms", median(&served.send_late_ms), "ms"),
        (
            "client.failed_frac",
            frac(failed, served.attempted as f64),
            "ratio",
        ),
    ])
}

/// Runs the pending query run as one `run_batch` and formats its replies.
fn flush(
    tr: &mut Tracer,
    b: &ShardedEngine,
    pending: &mut Vec<(usize, Op)>,
    out: &mut Vec<String>,
    acc: &mut Acc,
) {
    if pending.is_empty() {
        return;
    }
    let mut batch = udb_core::QueryBatch::new();
    for (_, op) in pending.iter() {
        match op {
            Op::Knn { q, k, tau } => batch.knn_threshold(q.clone(), *k, *tau),
            Op::Rknn { q, k, tau } => batch.rknn_threshold(q.clone(), *k, *tau),
            Op::TopM { q, m } => batch.top_probable_nn(q.clone(), *m),
            _ => unreachable!("only queries are pending"),
        };
    }
    tr.begin("batch.run_batch", pending[0].0);
    let results = b.run_batch(&batch);
    acc.run_batch_ms += tr.end();
    for ((i, _), hits) in pending.drain(..).zip(results) {
        out.push(tr.call("serve.format", i, || format_results(&hits)));
    }
}

/// The kNN pipeline from outside: candidates through the router (B) and
/// the index (R), then one refiner per candidate from `Engine::refiner`,
/// stepped under the single-lane rule — stop on a decided goal, on
/// convergence, or when `step` reports exhaustion. Returns the results
/// and the summed time of the R-side spans.
#[allow(clippy::too_many_arguments)]
fn refine_knn(
    tr: &mut Tracer,
    b: &ShardedEngine,
    r: &Engine,
    op: usize,
    q: &UncertainObject,
    k: usize,
    tau: f64,
    acc: &mut Acc,
) -> (Vec<ThresholdResult>, f64) {
    tr.begin("replay.knn", op);
    let routed = tr.call("router.knn_candidates", op, || b.knn_candidates(q.mbr(), k));
    acc.router_cands.push(routed.len() as f64);
    tr.begin("index.knn_candidates", op);
    let mut cands = r.knn_candidates(q.mbr(), k);
    let mut spans_ms = tr.end();
    acc.index_cands.push(cands.len() as f64);
    cands.sort_unstable();
    let goal = RefineGoal::threshold(k, tau);
    let mut hits = Vec::new();
    for id in cands {
        tr.begin("refiner.build", op);
        let mut refiner = r.refiner(ObjRef::Db(id), ObjRef::External(q), goal.predicate());
        spans_ms += tr.end();
        acc.refiners += 1;
        acc.influence.push(refiner.influence_ids().len() as f64);
        acc.complete.push(refiner.complete_count() as f64);
        let snap = loop {
            tr.begin("refiner.snapshot", op);
            let snap = refiner.snapshot();
            spans_ms += tr.end();
            let (open, scratch) = refiner.open_stats();
            acc.open += open as u64;
            acc.scratch += scratch as u64;
            if goal.decided(&snap) {
                acc.decided += 1;
                break snap;
            }
            if refiner.converged(&snap) {
                break snap;
            }
            tr.begin("refiner.step", op);
            let progressed = refiner.step();
            spans_ms += tr.end();
            if !progressed {
                break snap;
            }
        };
        let (lo, hi) = snap.predicate_cdf.expect("a threshold predicate has a CDF");
        if hi > 0.0 {
            hits.push(ThresholdResult {
                id,
                prob_lower: lo,
                prob_upper: hi,
                iterations: snap.iteration,
            });
        }
    }
    tr.end();
    (hits, spans_ms)
}
