//! One served run: set-up, the measured phase over TCP, the checks and
//! the end-to-end metrics; with `--trace 1` also the traced replay.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::calib::Speed;
use crate::check::{Checker, Request};
use crate::client::{read_reply, send_line, Conn, Reply, ServerProc};
use crate::stats::{beyond, mean, median, percentile, Report};
use crate::trace;
use crate::workload::{insert_line, sub_line, Arrival, Kind, OpSpec, Scale, Workload, PASS_S};

/// Digests of the fixed reply prefix, one `workload scale seed digest`
/// line per recorded run.
const DIGESTS: &str = include_str!("../digests.txt");

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Its size.
    pub scale: Scale,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether to replay the served ops in process with spans.
    pub trace: bool,
    /// Test hook: flip one byte of this measured reply before checking.
    pub tamper: Option<usize>,
    /// The benchmark binary, started again as the server.
    pub exe: PathBuf,
    /// Scratch directory for durable engines and span files.
    pub work: PathBuf,
}

/// Where in a run an op was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Seed load.
    Setup,
    /// Standing-query registration.
    Sub,
    /// The measured stream (warm-up included).
    Measured,
    /// The closed-loop mutation probe.
    Probe,
    /// Arrivals before the crash-style drop.
    TopUp,
    /// `STATS` / `QUIT`.
    Final,
}

/// One sent line and what came back.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Run phase.
    pub phase: Phase,
    /// What was asked.
    pub req: Request,
    /// The line sent.
    pub line: String,
    /// Its reply.
    pub reply: String,
    /// `NOTIFY` lines pushed right behind the reply.
    pub notifies: Vec<String>,
    /// Latency in ms (`NaN` for untimed ops).
    pub latency_ms: f64,
    /// Open-loop scheduled send time in seconds from the schedule start.
    pub sched_s: Option<f64>,
    /// A warm-up op (excluded from timing).
    pub warm: bool,
}

/// The served transcript plus the checker state.
pub struct Served {
    /// Every op in send order.
    pub entries: Vec<Entry>,
    /// Reply checks.
    pub checker: Checker,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Measured-phase wall time (warm-up excluded).
    pub window_s: f64,
    /// Peak RSS of the measured server, MiB.
    pub peak_rss_mib: f64,
    /// Client send lateness, ms (open loop: against the schedule;
    /// closed loop: from the previous reply to the next send).
    pub send_late_ms: Vec<f64>,
    /// Measured and probe ops sent.
    pub attempted: u64,
    /// Host speed through the run.
    pub speed: Speed,
}

impl Served {
    /// Checks and stores one reply. The `NOTIFY` lines that arrived with
    /// it belong to the previous op and feed the digest when that op did;
    /// `in_prefix` says whether this reply does.
    fn record(
        &mut self,
        phase: Phase,
        req: Request,
        line: String,
        reply: Reply,
        latency_ms: f64,
        in_prefix: bool,
    ) {
        let (notifies, reply) = reply;
        if let Some(prev) = self.entries.last_mut() {
            prev.notifies.extend(notifies.iter().cloned());
        }
        self.checker.notifies(&notifies);
        self.checker.digesting = in_prefix;
        self.entries.push(Entry {
            phase,
            req,
            line,
            reply: String::new(),
            notifies: Vec::new(),
            latency_ms,
            sched_s: None,
            warm: false,
        });
        self.checker.reply(req, &reply);
        self.entries.last_mut().expect("just pushed").reply = reply;
    }
}

fn io_err(what: &str) -> impl Fn(io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The request and line of a generated op against the live ids.
fn render(spec: &OpSpec, checker: &Checker) -> (Request, String) {
    let mut target = 0;
    let line = spec.line(|draw| {
        target = checker.live.pick(draw);
        target
    });
    let req = match spec.kind {
        Kind::Knn | Kind::Rknn | Kind::TopM => Request::Query(spec.kind),
        Kind::Insert => Request::Insert,
        Kind::DelNear => Request::DelNear,
        Kind::Update => Request::Update(target),
    };
    (req, line)
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        std::fs::remove_dir_all(path).map_err(io_err("clear work dir"))?;
    }
    Ok(path.to_path_buf())
}

/// Runs the workload end to end and returns the printed report.
pub fn run(o: &Options) -> Result<Report, String> {
    let w = &o.workload;
    // the warm-up pass and the measured ones
    let (passes, n_ops) = match w.arrival {
        Arrival::Closed => {
            let passes = 1 + ((o.seconds / PASS_S).round() as usize).max(1);
            (passes, passes * w.pool)
        }
        Arrival::Open(rate) => {
            let n_ops = w.pool + (o.seconds * rate).ceil() as usize;
            (n_ops.div_ceil(w.pool), n_ops)
        }
    };
    let inputs = w.inputs(o.seed, passes);
    let mut s = Served {
        entries: Vec::new(),
        checker: Checker::new(),
        setup_s: Vec::new(),
        window_s: 0.0,
        peak_rss_mib: 0.0,
        send_late_ms: Vec::new(),
        attempted: 0,
        speed: Speed::default(),
    };

    // set-up: seed load through INSERT, several times; the last stays up
    let setup_lines: Vec<String> = inputs.seed_objects.iter().map(insert_line).collect();
    let setups = if o.trace { 1 } else { w.setups };
    let dir = o.work.join("served");
    let mut first_replies: Option<Vec<Reply>> = None;
    let mut kept: Option<(ServerProc, Conn, Vec<Reply>)> = None;
    for i in 0..setups {
        let dir = w.durable.then(|| fresh_dir(&dir)).transpose()?;
        let server = ServerProc::spawn(&o.exe, w, o.scale, dir.as_deref())?;
        // the host's speed around this set-up
        for _ in 0..5 {
            s.speed.sample();
        }
        let t = Instant::now();
        let mut conn = Conn::connect(&server.addr)?;
        let replies = conn.pipeline(&setup_lines).map_err(io_err("seed load"))?;
        let load_s = t.elapsed().as_secs_f64();
        s.setup_s
            .push(load_s + if w.durable { server.open_s } else { 0.0 });
        match &first_replies {
            Some(first) if *first != replies => {
                return Err("set-up replies differ between set-ups".to_owned())
            }
            Some(_) => {}
            None => first_replies = Some(replies.clone()),
        }
        eprintln!("perfbench: set-up {i} took {load_s:.2} s");
        if i + 1 < setups {
            let t = Instant::now();
            conn.send("QUIT").map_err(io_err("quit"))?;
            conn.reply().map_err(io_err("quit"))?;
            server.wait()?;
            eprintln!(
                "perfbench: shutdown took {:.2} s",
                t.elapsed().as_secs_f64()
            );
        } else {
            kept = Some((server, conn, replies));
        }
    }
    let (server, mut conn, replies) = kept.expect("at least one set-up");
    let phase = Instant::now();
    for (line, reply) in setup_lines.into_iter().zip(replies) {
        s.record(Phase::Setup, Request::Insert, line, reply, f64::NAN, true);
    }
    for q in &inputs.subs {
        let line = sub_line(q);
        conn.send(&line).map_err(io_err("sub"))?;
        let reply = conn.reply().map_err(io_err("sub"))?;
        s.record(Phase::Sub, Request::Sub, line, reply, f64::NAN, true);
    }

    eprintln!(
        "perfbench: subscriptions took {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    let phase = Instant::now();
    // the measured phase; result widths count the warm-up too
    s.checker.measuring = true;
    match w.arrival {
        Arrival::Closed => closed_loop(o, &inputs.ops[..n_ops], &mut conn, &mut s)?,
        Arrival::Open(rate) => open_loop(o, rate, &inputs.ops[..n_ops], &mut conn, &mut s)?,
    }
    s.checker.measuring = false;
    eprintln!(
        "perfbench: measured phase took {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    let phase = Instant::now();
    for spec in &inputs.probe {
        let (req, line) = render(spec, &s.checker);
        let t = Instant::now();
        conn.send(&line).map_err(io_err("probe"))?;
        let reply = conn.reply().map_err(io_err("probe"))?;
        s.attempted += 1;
        let latency = ms(t.elapsed());
        s.speed.sample_every(100.0);
        s.record(Phase::Probe, req, line, reply, latency, false);
    }
    // the crash-style drop and reopen run with the traced run: recovery
    // of the full data set takes tens of seconds (see README.md)
    let crash = w.durable && o.trace;
    if crash {
        // a fixed WAL tail for the reopen: arrivals until the mutation
        // count sits half-way between two automatic checkpoints
        let every = w.config().checkpoint_every as u64;
        let n = ((every / 2 + 2 * every - s.checker.mutations % every) % every) as usize;
        let lines: Vec<String> = inputs.topup[..n].iter().map(insert_line).collect();
        let replies = conn.pipeline(&lines).map_err(io_err("top-up"))?;
        for (line, reply) in lines.into_iter().zip(replies) {
            s.record(Phase::TopUp, Request::Insert, line, reply, f64::NAN, false);
        }
    }
    eprintln!(
        "perfbench: probe and top-up took {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    conn.send("STATS").map_err(io_err("stats"))?;
    let reply = conn.reply().map_err(io_err("stats"))?;
    s.record(
        Phase::Final,
        Request::Stats,
        "STATS".to_owned(),
        reply,
        f64::NAN,
        false,
    );
    let stats = s.entries.last().expect("just recorded").reply.clone();
    s.checker.stats_match(&stats, w.subs);
    s.peak_rss_mib = server.peak_rss_mib()?;

    // the crash-style drop; the reopen waits until the replay has ended,
    // so neither is timed while the other loads the host
    if crash {
        drop(conn);
        server.crash();
    } else {
        conn.send("QUIT").map_err(io_err("quit"))?;
        let reply = conn.reply().map_err(io_err("quit"))?;
        s.record(
            Phase::Final,
            Request::Quit,
            "QUIT".to_owned(),
            reply,
            f64::NAN,
            false,
        );
        server.wait()?;
    }

    let digest = s.checker.digest.hex();
    eprintln!("perfbench: {} seed {} digest {digest}", w.name, o.seed);
    let recorded = DIGESTS.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        (f.len() == 4 && f[0] == w.name && f[1] == o.scale.name() && f[2] == o.seed.to_string())
            .then(|| f[3].to_owned())
    });
    let mut problems: Vec<String> = s.checker.violations.clone();
    if s.checker.more_violations > 0 {
        problems.push(format!("{} more violations", s.checker.more_violations));
    }
    if let Some(want) = recorded {
        if want != digest {
            problems.push(format!("reply digest {digest}, recorded {want}"));
        }
    }

    let mut report = Report {
        correct: false,
        attempted: s.attempted,
        failed: s.checker.errors as u64,
        metrics: Vec::new(),
    };
    if o.trace {
        let layer = trace::replay(o, &s, &mut problems)?;
        for (name, value, unit) in layer {
            report.push(name, value, unit);
        }
        served_tails(w, &s, &mut report);
    } else {
        end_to_end(&s, &mut report);
    }
    if crash {
        let reopened = ServerProc::spawn(&o.exe, w, o.scale, Some(&dir))?;
        eprintln!("perfbench: reopen took {:.2} s", reopened.open_s);
        let mut conn = Conn::connect(&reopened.addr)?;
        conn.send("STATS").map_err(io_err("stats"))?;
        let (_, stats) = conn.reply().map_err(io_err("stats"))?;
        let known = s.checker.violations.len();
        s.checker.stats_match(&stats, 0);
        problems.extend(s.checker.violations[known..].iter().cloned());
        conn.send("QUIT").map_err(io_err("quit"))?;
        conn.reply().map_err(io_err("quit"))?;
        report.push("durable.replayed", reopened.replayed as f64, "count");
        report.push("durable.recovery_s", reopened.open_s, "s");
        reopened.wait()?;
    } else if o.trace {
        report.push("durable.replayed", 0.0, "count");
        report.push("durable.recovery_s", 0.0, "s");
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    report.correct = problems.is_empty();
    if w.durable {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(report)
}

/// Closed loop over one connection: send, wait for the reply, repeat —
/// the warm-up pass, then the measured passes.
fn closed_loop(o: &Options, ops: &[OpSpec], conn: &mut Conn, s: &mut Served) -> Result<(), String> {
    let w = &o.workload;
    let mut measured_start = Instant::now();
    let mut last_reply = Instant::now();
    for (i, spec) in ops.iter().enumerate() {
        if i == w.pool {
            measured_start = Instant::now();
        }
        let (req, line) = render(spec, &s.checker);
        let t = Instant::now();
        s.send_late_ms.push(ms(t - last_reply));
        conn.send(&line).map_err(io_err("send"))?;
        let (notifies, mut reply) = conn.reply().map_err(io_err("reply"))?;
        last_reply = Instant::now();
        let latency = ms(last_reply - t);
        s.speed.sample_every(100.0);
        if o.tamper == Some(i) {
            tamper(&mut reply);
        }
        s.attempted += 1;
        let in_prefix = i < w.fixed_ops;
        s.record(
            Phase::Measured,
            req,
            line,
            (notifies, reply),
            latency,
            in_prefix,
        );
        s.entries.last_mut().expect("just recorded").warm = i < w.pool;
    }
    s.window_s = measured_start.elapsed().as_secs_f64();
    Ok(())
}

/// Open loop: one sender thread on a fixed schedule, one reader thread;
/// latency counts from each op's scheduled send time.
fn open_loop(
    o: &Options,
    rate: f64,
    ops: &[OpSpec],
    conn: &mut Conn,
    s: &mut Served,
) -> Result<(), String> {
    let w = &o.workload;
    assert!(
        ops.iter().all(|op| !op.kind.is_mutation()),
        "the open loop sends read-only traffic"
    );
    let lines: Vec<(Request, String)> = ops.iter().map(|op| render(op, &s.checker)).collect();
    let sched = |i: usize| i as f64 / rate;
    let start = Instant::now() + Duration::from_millis(20);
    let (stream, reader) = conn.split();
    let (sent, got) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> io::Result<Vec<f64>> {
            let mut late = Vec::with_capacity(lines.len());
            for (i, (_, line)) in lines.iter().enumerate() {
                let due = start + Duration::from_secs_f64(sched(i));
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(ms(Instant::now() - due));
                send_line(stream, line)?;
            }
            Ok(late)
        });
        let got: io::Result<Vec<(Instant, Reply)>> = lines
            .iter()
            .map(|_| read_reply(reader).map(|r| (Instant::now(), r)))
            .collect();
        (sender.join().expect("sender thread panicked"), got)
    });
    let late = sent.map_err(io_err("send"))?;
    let got = got.map_err(io_err("reply"))?;
    let mut last = start;
    for (i, ((req, line), (at, (notifies, mut reply)))) in lines.into_iter().zip(got).enumerate() {
        if o.tamper == Some(i) {
            tamper(&mut reply);
        }
        let due = start + Duration::from_secs_f64(sched(i));
        s.attempted += 1;
        let in_prefix = i < w.fixed_ops;
        s.record(
            Phase::Measured,
            req,
            line,
            (notifies, reply),
            ms(at - due),
            in_prefix,
        );
        let e = s.entries.last_mut().expect("just recorded");
        e.sched_s = Some(sched(i));
        e.warm = i < w.pool;
        last = at;
    }
    s.send_late_ms = late[w.pool..].to_vec();
    let measured_start = start + Duration::from_secs_f64(sched(w.pool));
    s.window_s = (last - measured_start).as_secs_f64();
    Ok(())
}

/// Flips one bit of the reply's last byte (a digit stays a digit).
fn tamper(reply: &mut String) {
    let mut bytes = std::mem::take(reply).into_bytes();
    if let Some(b) = bytes.last_mut() {
        *b ^= 1;
    }
    *reply = String::from_utf8_lossy(&bytes).into_owned();
}

/// The latency samples of the measured (non-warm-up) ops of one verb,
/// and of the measured and probe mutations.
fn verb_samples(s: &Served, kind: Option<Kind>) -> Vec<f64> {
    s.entries
        .iter()
        .filter(|e| {
            let measured = e.phase == Phase::Measured && !e.warm;
            match kind {
                Some(kind) => measured && e.req == Request::Query(kind),
                None => {
                    matches!(
                        e.req,
                        Request::Insert | Request::DelNear | Request::Update(_)
                    ) && (measured || e.phase == Phase::Probe)
                }
            }
        })
        .map(|e| e.latency_ms)
        .collect()
}

const VERBS: [(Option<Kind>, &str); 4] = [
    (Some(Kind::Knn), "knn"),
    (Some(Kind::Rknn), "rknn"),
    (Some(Kind::TopM), "topm"),
    (None, "mutation"),
];

/// Measured (non-warm-up) ops completed per second of the measured window.
fn throughput(s: &Served) -> f64 {
    let done = s
        .entries
        .iter()
        .filter(|e| e.phase == Phase::Measured && !e.warm)
        .count();
    done as f64 / s.window_s
}

/// The gated metrics. Times are scaled to the nominal host speed
/// ([`crate::calib`]), throughput too; result widths do not depend on
/// the clock. Standard error gets the slowdown and every figure as
/// measured.
fn end_to_end(s: &Served, report: &mut Report) {
    let slow = s.speed.slowdown();
    eprintln!(
        "perfbench: host.slowdown {slow} over {} reference samples",
        s.speed.samples().len()
    );
    let verb = |kind| mean(&verb_samples(s, Some(kind)));
    let figures = [
        ("setup_s", median(&s.setup_s), "s"),
        ("throughput_ops_s", throughput(s), "ops/s"),
        ("knn_mean_ms", verb(Kind::Knn), "ms"),
        ("rknn_mean_ms", verb(Kind::Rknn), "ms"),
        ("topm_mean_ms", verb(Kind::TopM), "ms"),
    ];
    for (name, raw, unit) in figures {
        eprintln!("perfbench: raw {name} {raw} {unit}");
        let value = if unit == "ops/s" {
            raw * slow
        } else {
            raw / slow
        };
        report.push(name, value, unit);
    }
    let width = s.checker.width_sum / s.checker.width_count.max(1) as f64;
    report.push("mean_bound_width", width, "prob");
}

/// The served-phase metrics the traced run reports beside the layers,
/// as measured (not scaled to the nominal host speed): throughput, the
/// per-verb medians, the tails (each the workload's stated percentile,
/// which leaves at least ten samples beyond it), the server's peak RSS
/// and the host slowdown the gated metrics are scaled by. The medians,
/// tails and peak RSS were too unsteady between seeds to gate (see
/// README.md).
fn served_tails(w: &Workload, s: &Served, report: &mut Report) {
    report.push("served.throughput_ops_s", throughput(s), "ops/s");
    let medians = [
        "served.knn_p50_ms",
        "served.rknn_p50_ms",
        "served.topm_p50_ms",
        "served.mutation_p50_ms",
    ];
    for ((kind, _), name) in VERBS.into_iter().zip(medians) {
        report.push(name, median(&verb_samples(s, kind)), "ms");
    }
    let names = [
        "served.knn_tail_ms",
        "served.rknn_tail_ms",
        "served.topm_tail_ms",
        "served.mutation_tail_ms",
    ];
    let pcts = [
        w.tail_pct.knn,
        w.tail_pct.rknn,
        w.tail_pct.topm,
        w.tail_pct.mutation,
    ];
    for (((kind, verb), name), pct) in VERBS.into_iter().zip(names).zip(pcts) {
        let v = verb_samples(s, kind);
        let t = percentile(&v, pct);
        let past = beyond(&v, t);
        eprintln!(
            "perfbench: {verb}: {} samples, p{pct} leaves {past} beyond",
            v.len()
        );
        if past < 10 {
            eprintln!("perfbench: warning: {verb} tail p{pct} has fewer than 10 samples beyond it");
        }
        report.push(name, t, "ms");
    }
    report.push("served.peak_rss_mb", s.peak_rss_mib, "MiB");
    report.push("host.slowdown", s.speed.slowdown(), "ratio");
}
