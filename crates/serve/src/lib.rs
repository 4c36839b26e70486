//! The serving front: a line protocol over stdin or TCP, executed
//! against a [`ShardedEngine`] (see `docs/SERVING.md`).
//!
//! # Line protocol
//!
//! One operation per line, one reply line per operation, in order.
//! Blank lines and `#` comments are ignored (no reply). Objects travel
//! as the JSON encoding of [`UncertainObject`]; ids are *global* ids
//! (see [`udb_core::shard`]).
//!
//! | request | reply |
//! |---|---|
//! | `INSERT <json>` | `OK <gid>` |
//! | `DELETE <gid>` | `OK <gid>` (`ERR` when dead) |
//! | `DELNEAR <json>` | `OK <gid>` of the removed nearest object, `OK none` when empty |
//! | `UPDATE <gid> <json>` | `OK <gid>` (`ERR` when dead) |
//! | `KNN <k> <tau> <json>` | `RES id:lo:hi:iters;...` (`RES -` when empty) |
//! | `RKNN <k> <tau> <json>` | likewise |
//! | `TOPM <m> <json>` | likewise |
//! | `SUB KNN <k> <tau> <json>` | `SUB <sid> RES ...` (the id + initial result) |
//! | `SUB RKNN <k> <tau> <json>` | likewise |
//! | `SUB TOPM <m> <json>` | likewise |
//! | `UNSUB <sid>` | `OK unsub <sid>` (`ERR` when unknown) |
//! | `FLUSH` | `OK flushed` (WAL fsync + checkpoint) |
//! | `STATS` | `OK objects=<n> mutations=<m> subs=<s> maintained=<c> reanswered=<r> notified=<d>` |
//! | `QUIT` | `OK bye`, then the stream closes |
//!
//! A `SUB` registers a **standing query** (see [`udb_core::standing`]):
//! after every mutation whose maintenance changes a subscription's
//! result set, the server pushes an unsolicited
//! `NOTIFY <sid> ADD <body> DEL <ids> CHG <body>` line to the
//! subscribing connection (result bodies in `RES` member format, `-`
//! when a section is empty), immediately after the mutation's own reply
//! — so notification positions in the stream are deterministic.
//! Subscriptions die with their connection: `QUIT` or a dropped socket
//! unregisters every subscription the connection owned.
//!
//! Anything unparsable replies `ERR <reason>` without touching the
//! engine, and so does an object whose dimensionality differs from the
//! database's (or, while the database is empty, the standing
//! queries'). Floats print with Rust's shortest-round-trip `Display`, so
//! two engines returning bit-identical results produce byte-identical
//! reply streams — the serve-smoke CI job diffs a sharded server's
//! output against the one-shard oracle's, byte for byte (standing
//! maintenance is bit-identical to re-answering, so `NOTIFY` lines
//! diff clean too).
//!
//! # Batching
//!
//! [`Server::execute_batch`] preserves line order exactly: mutations
//! (and `FLUSH`/`STATS`/`QUIT`) apply immediately, and each maximal run
//! of consecutive query lines between them executes as one
//! [`QueryBatch`] (capped at the server's `batch_cap`), sharing
//! candidate descent, decompositions and worker-pool fan-out across the
//! run. Batched execution is bit-identical to one-at-a-time execution
//! (the batch-equivalence suite), so batching never changes replies —
//! only throughput.
//!
//! Each maximal run of consecutive `INSERT` lines (also capped at
//! `batch_cap`) is one group commit,
//! [`ShardedEngine::try_insert_run`]: one WAL fsync per touched shard
//! for the run, after which the inserts apply and reply in order, each
//! followed by its `NOTIFY` lines — the replies of one-at-a-time
//! execution, with the acks written after the fsync.

use std::collections::HashMap;

use udb_core::{IdcaConfig, QueryBatch, ResultDelta, ShardedEngine, StandingSpec, ThresholdResult};
use udb_object::{ObjectId, UncertainObject};
use udb_workload::{QueryStreamConfig, StreamOp, SyntheticConfig};

pub mod front;

/// One queued input line of the multi-connection front: the connection
/// id plus the decoded text — or the reader-side reason the bytes could
/// not be decoded (invalid UTF-8, a mid-stream read error), which the
/// executor answers as `ERR <reason>` without touching the engine or
/// closing the connection.
pub type TaggedLine = (u64, Result<String, String>);

/// One parsed protocol operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// `INSERT <json>`: insert an arrival, reply its fresh global id.
    Insert(UncertainObject),
    /// `DELETE <gid>`: remove a live object by global id.
    Delete(ObjectId),
    /// `DELNEAR <json>`: remove the live object nearest the probe.
    DeleteNearest(UncertainObject),
    /// `UPDATE <gid> <json>`: replace a live object in place.
    Update(ObjectId, UncertainObject),
    /// `KNN <k> <tau> <json>`: probabilistic threshold kNN.
    Knn {
        /// The query object.
        q: UncertainObject,
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// `RKNN <k> <tau> <json>`: probabilistic threshold reverse kNN.
    Rknn {
        /// The query object.
        q: UncertainObject,
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// `TOPM <m> <json>`: top-`m` probable nearest neighbours.
    TopM {
        /// The query object.
        q: UncertainObject,
        /// Result-set size.
        m: usize,
    },
    /// `SUB KNN|RKNN|TOPM ...`: register a standing query; reply its
    /// subscription id + initial result, then push `NOTIFY` lines as
    /// mutations change the result.
    Sub {
        /// The query object.
        q: UncertainObject,
        /// What to keep answered.
        spec: StandingSpec,
    },
    /// `UNSUB <sid>`: drop a standing query.
    Unsub(u64),
    /// `FLUSH`: WAL fsync + checkpoint on every shard.
    Flush,
    /// `STATS`: object/mutation counters (shard-count-free, so a
    /// sharded reply diffs clean against the single-engine oracle's).
    Stats,
    /// `QUIT`: acknowledge and close the stream.
    Quit,
}

impl Op {
    /// Whether this operation is a query (batchable in a run) rather
    /// than a mutation/control operation (applies immediately).
    pub fn is_query(&self) -> bool {
        matches!(self, Op::Knn { .. } | Op::Rknn { .. } | Op::TopM { .. })
    }

    /// The object the operation carries (inserted, probed or queried).
    fn object(&self) -> Option<&UncertainObject> {
        match self {
            Op::Insert(q)
            | Op::DeleteNearest(q)
            | Op::Update(_, q)
            | Op::Knn { q, .. }
            | Op::Rknn { q, .. }
            | Op::TopM { q, .. }
            | Op::Sub { q, .. } => Some(q),
            Op::Delete(_) | Op::Unsub(_) | Op::Flush | Op::Stats | Op::Quit => None,
        }
    }
}

fn parse_object(s: &str) -> Result<UncertainObject, String> {
    serde_json::from_str(s.trim()).map_err(|e| format!("bad object JSON: {e:?}"))
}

fn parse_id(s: &str) -> Result<ObjectId, String> {
    s.trim()
        .parse::<u32>()
        .map(ObjectId)
        .map_err(|_| format!("bad object id {:?}", s.trim()))
}

/// Parses the arguments of a query verb (`KNN`, `RKNN` or `TOPM`);
/// argument errors start with `label` (the verb, or `SUB <verb>`).
fn parse_query(verb: &str, label: &str, rest: &str) -> Result<Op, String> {
    if verb == "TOPM" {
        let (m, json) = rest
            .trim_start()
            .split_once(' ')
            .ok_or_else(|| format!("{label} needs <m> <json>"))?;
        let m: usize = m
            .parse()
            .ok()
            .filter(|&m| m >= 1)
            .ok_or_else(|| format!("{label} needs a positive <m>"))?;
        return Ok(Op::TopM {
            q: parse_object(json)?,
            m,
        });
    }
    let mut parts = rest.trim_start().splitn(3, ' ');
    let k: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|&k| k >= 1)
        .ok_or_else(|| format!("{label} needs a positive <k>"))?;
    let tau: f64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .filter(|t| (0.0..1.0).contains(t))
        .ok_or_else(|| format!("{label} needs <tau> in [0, 1)"))?;
    let q = parse_object(
        parts
            .next()
            .ok_or_else(|| format!("{label} needs <json>"))?,
    )?;
    Ok(if verb == "KNN" {
        Op::Knn { q, k, tau }
    } else {
        Op::Rknn { q, k, tau }
    })
}

/// Parses one protocol line: `Ok(None)` for blanks and `#` comments,
/// `Ok(Some(op))` for a well-formed operation.
///
/// # Errors
/// Returns the `ERR` reason for malformed lines (unknown verb, missing
/// fields, bad numbers, bad object JSON).
pub fn parse_line(line: &str) -> Result<Option<Op>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
    let op = match verb {
        "INSERT" => Op::Insert(parse_object(rest)?),
        "DELETE" => Op::Delete(parse_id(rest)?),
        "DELNEAR" => Op::DeleteNearest(parse_object(rest)?),
        "UPDATE" => {
            let (id, json) = rest
                .trim_start()
                .split_once(' ')
                .ok_or("UPDATE needs <gid> <json>")?;
            Op::Update(parse_id(id)?, parse_object(json)?)
        }
        "KNN" | "RKNN" | "TOPM" => parse_query(verb, verb, rest)?,
        "SUB" => {
            let (what, rest) = rest
                .trim_start()
                .split_once(' ')
                .ok_or("SUB needs KNN|RKNN|TOPM ...")?;
            if !matches!(what, "KNN" | "RKNN" | "TOPM") {
                return Err(format!("SUB needs KNN|RKNN|TOPM, got {what:?}"));
            }
            let (q, spec) = match parse_query(what, &format!("SUB {what}"), rest)? {
                Op::Knn { q, k, tau } => (q, StandingSpec::Knn { k, tau }),
                Op::Rknn { q, k, tau } => (q, StandingSpec::Rknn { k, tau }),
                Op::TopM { q, m } => (q, StandingSpec::TopM { m }),
                _ => unreachable!("parse_query returns a query"),
            };
            Op::Sub { q, spec }
        }
        "UNSUB" => Op::Unsub(
            rest.trim()
                .parse::<u64>()
                .map_err(|_| format!("bad subscription id {:?}", rest.trim()))?,
        ),
        "FLUSH" => Op::Flush,
        "STATS" => Op::Stats,
        "QUIT" => Op::Quit,
        other => return Err(format!("unknown verb {other:?}")),
    };
    Ok(Some(op))
}

/// The member body of a result set: `id:lo:hi:iters` joined by `;`,
/// floats in shortest-round-trip form (so bit-identical results format
/// byte-identically); `-` when empty. Shared by `RES` replies and
/// `NOTIFY` sections so the two streams use identical float digits.
pub fn results_body(hits: &[ThresholdResult]) -> String {
    if hits.is_empty() {
        return "-".to_owned();
    }
    let body: Vec<String> = hits
        .iter()
        .map(|h| {
            format!(
                "{}:{}:{}:{}",
                h.id.0, h.prob_lower, h.prob_upper, h.iterations
            )
        })
        .collect();
    body.join(";")
}

/// The `RES` reply line for a query result set (see [`results_body`]).
pub fn format_results(hits: &[ThresholdResult]) -> String {
    format!("RES {}", results_body(hits))
}

/// The pushed notification line for one standing-query delta:
/// `NOTIFY <sid> ADD <body> DEL <ids> CHG <body>` — freshly qualified
/// members, ids (joined by `;`) that dropped out, and surviving members
/// whose probability bounds changed bits.
pub fn format_notify(delta: &ResultDelta) -> String {
    let del = if delta.removed.is_empty() {
        "-".to_owned()
    } else {
        let ids: Vec<String> = delta.removed.iter().map(|id| id.0.to_string()).collect();
        ids.join(";")
    };
    format!(
        "NOTIFY {} ADD {} DEL {} CHG {}",
        delta.sub,
        results_body(&delta.added),
        del,
        results_body(&delta.changed)
    )
}

/// The protocol executor: an owned [`ShardedEngine`] plus the cap on
/// how many consecutive query lines fuse into one [`QueryBatch`].
pub struct Server {
    engine: ShardedEngine,
    batch_cap: usize,
    /// Subscription ownership: standing-query id → connection id, so
    /// `NOTIFY` lines route to the subscribing connection and a closed
    /// connection's subscriptions can be swept.
    subs: HashMap<u64, u64>,
}

impl Server {
    /// Wraps an engine. `batch_cap` bounds the query-run fusion width
    /// (1 disables batching entirely; replies are identical either way).
    ///
    /// # Panics
    /// Panics if `batch_cap == 0`.
    pub fn new(engine: ShardedEngine, batch_cap: usize) -> Self {
        assert!(batch_cap >= 1, "batch cap must be positive");
        Server {
            engine,
            batch_cap,
            subs: HashMap::new(),
        }
    }

    /// The served engine.
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// The query-run fusion cap this server was built with.
    pub fn batch_cap(&self) -> usize {
        self.batch_cap
    }

    /// Executes a slice of protocol lines in order and returns one
    /// reply line per operation line (comments and blanks produce no
    /// reply) plus whether a `QUIT` was executed — lines after a `QUIT`
    /// are dropped unexecuted, like input after a closed stream.
    pub fn execute_batch(&mut self, lines: &[String]) -> (Vec<String>, bool) {
        let tagged: Vec<TaggedLine> = lines.iter().map(|l| (0, Ok(l.clone()))).collect();
        let (replies, quits) = self.execute_tagged(&tagged);
        let replies = replies.into_iter().map(|(_, reply)| reply).collect();
        (replies, !quits.is_empty())
    }

    /// The multi-connection executor step: processes connection-tagged
    /// lines as **one** protocol sequence (the slice order is the
    /// arrival order the pump drained, so batch fusion spans
    /// connections) and returns one tagged reply per operation line, in
    /// slice order — each connection's replies appear in its own op
    /// order — plus the connections that executed `QUIT`. A `QUIT`
    /// closes only its own connection: that connection's later lines in
    /// the slice are dropped unexecuted, every other connection's lines
    /// proceed. `Err` lines (reader-side decode failures) reply
    /// `ERR <reason>` without touching the engine.
    pub fn execute_tagged(&mut self, lines: &[TaggedLine]) -> (Vec<(u64, String)>, Vec<u64>) {
        let mut replies: Vec<(u64, String)> = Vec::new();
        let mut quits: Vec<u64> = Vec::new();
        // reply slots of the current run of consecutive query lines
        let mut pending: Vec<(usize, Op)> = Vec::new();
        // the current run of consecutive INSERT lines: one group commit,
        // flushed before any other line replies
        let mut inserts: Vec<(u64, UncertainObject)> = Vec::new();
        for (conn, line) in lines {
            if quits.contains(conn) {
                continue; // this connection closed earlier in the slice
            }
            let line = match line {
                Ok(line) => line,
                Err(reason) => {
                    self.flush_inserts(&mut replies, &mut inserts);
                    replies.push((*conn, format!("ERR {reason}")));
                    continue;
                }
            };
            match parse_line(line).and_then(|op| self.check_dims(op, &inserts)) {
                Ok(None) => {}
                Err(e) => {
                    self.flush_inserts(&mut replies, &mut inserts);
                    replies.push((*conn, format!("ERR {e}")));
                }
                Ok(Some(Op::Insert(obj))) => {
                    // queued queries settle against the pre-insert state
                    self.flush_queries(&mut replies, &mut pending);
                    inserts.push((*conn, obj));
                    if inserts.len() >= self.batch_cap {
                        self.flush_inserts(&mut replies, &mut inserts);
                    }
                }
                Ok(Some(op)) if op.is_query() => {
                    self.flush_inserts(&mut replies, &mut inserts);
                    let slot = replies.len();
                    replies.push((*conn, String::new()));
                    pending.push((slot, op));
                    if pending.len() >= self.batch_cap {
                        self.flush_queries(&mut replies, &mut pending);
                    }
                }
                Ok(Some(op)) => {
                    // a mutation/control op: settle queued queries
                    // against the pre-mutation state first
                    self.flush_queries(&mut replies, &mut pending);
                    self.flush_inserts(&mut replies, &mut inserts);
                    let quit = matches!(op, Op::Quit);
                    replies.push((*conn, self.apply(*conn, op)));
                    let deltas = self.engine.take_standing_deltas();
                    self.push_notifies(&mut replies, deltas);
                    if quit {
                        quits.push(*conn);
                        // the stream is closing: its subscriptions die
                        // with it, before any later line in the slice
                        self.drop_connection(*conn);
                    }
                }
            }
        }
        self.flush_queries(&mut replies, &mut pending);
        self.flush_inserts(&mut replies, &mut inserts);
        (replies, quits)
    }

    /// Pushes a mutation's standing-query deltas right behind its own
    /// reply, as `NOTIFY` lines to the subscribing connections —
    /// deterministic positions.
    fn push_notifies(&self, replies: &mut Vec<(u64, String)>, deltas: Vec<ResultDelta>) {
        for delta in deltas {
            if let Some(&owner) = self.subs.get(&delta.sub) {
                replies.push((owner, format_notify(&delta)));
            }
        }
    }

    /// The dimensionality every object must have: the live database's,
    /// or — while it is empty — that of the standing queries, or of the
    /// first insert of the queued run.
    fn dims(&self, inserts: &[(u64, UncertainObject)]) -> Option<usize> {
        let live = self.engine.shards().iter().find_map(|e| e.db().dims());
        live.or_else(|| {
            let subs = self.engine.standing_queries();
            subs.first().map(|s| s.query().dims())
        })
        .or_else(|| inserts.first().map(|(_, o)| o.dims()))
    }

    /// Passes a parsed line through unless its object's dimensionality
    /// differs from the served data's (queued inserts included) — such
    /// an object would panic deep in the geometry, taking the whole
    /// server down.
    fn check_dims(
        &self,
        op: Option<Op>,
        inserts: &[(u64, UncertainObject)],
    ) -> Result<Option<Op>, String> {
        if let (Some(obj), Some(d)) = (op.as_ref().and_then(Op::object), self.dims(inserts)) {
            if obj.dims() != d {
                return Err(format!(
                    "object has {} dimensions, the database has {d}",
                    obj.dims()
                ));
            }
        }
        Ok(op)
    }

    /// Sweeps every subscription a closed connection owned (the fronts
    /// call this for dropped sockets; `QUIT` sweeps inline). Sub ids
    /// unregister in ascending order so engine state stays
    /// deterministic.
    pub fn drop_connection(&mut self, conn: u64) {
        let mut owned: Vec<u64> = self
            .subs
            .iter()
            .filter(|&(_, &c)| c == conn)
            .map(|(&sid, _)| sid)
            .collect();
        owned.sort_unstable();
        for sid in owned {
            self.engine.unsubscribe(sid);
            self.subs.remove(&sid);
        }
    }

    /// Runs a queued query run as one [`QueryBatch`] and fills the
    /// reserved reply slots.
    fn flush_queries(&mut self, replies: &mut [(u64, String)], pending: &mut Vec<(usize, Op)>) {
        if pending.is_empty() {
            return;
        }
        let mut batch = QueryBatch::new();
        for (_, op) in pending.iter() {
            match op {
                Op::Knn { q, k, tau } => batch.knn_threshold(q.clone(), *k, *tau),
                Op::Rknn { q, k, tau } => batch.rknn_threshold(q.clone(), *k, *tau),
                Op::TopM { q, m } => batch.top_probable_nn(q.clone(), *m),
                _ => unreachable!("only queries are queued"),
            };
        }
        let results = self.engine.run_batch(&batch);
        for ((slot, _), hits) in pending.drain(..).zip(results) {
            replies[slot].1 = format_results(&hits);
        }
    }

    /// Runs a queued run of inserts as one group commit
    /// ([`ShardedEngine::try_insert_run`]: one WAL fsync per touched
    /// shard, then the inserts apply) and replies `OK <gid>` to each
    /// line, its `NOTIFY` lines right behind it. When the log fails,
    /// nothing was applied and every line replies `ERR`.
    fn flush_inserts(
        &mut self,
        replies: &mut Vec<(u64, String)>,
        inserts: &mut Vec<(u64, UncertainObject)>,
    ) {
        if inserts.is_empty() {
            return;
        }
        let (conns, objects): (Vec<u64>, Vec<UncertainObject>) = inserts.drain(..).unzip();
        match self.engine.try_insert_run(objects) {
            Ok(acks) => {
                for (conn, (id, deltas)) in conns.into_iter().zip(acks) {
                    replies.push((conn, format!("OK {}", id.0)));
                    self.push_notifies(replies, deltas);
                }
            }
            Err(e) => {
                for conn in conns {
                    replies.push((conn, format!("ERR insert failed: {e}")));
                }
            }
        }
    }

    /// Applies one non-query operation and formats its reply. `conn`
    /// tags subscription ownership.
    fn apply(&mut self, conn: u64, op: Op) -> String {
        match op {
            Op::Delete(id) => {
                if self.engine.try_get(id).is_none() {
                    return format!("ERR no live object {}", id.0);
                }
                match self.engine.try_remove(id) {
                    Ok(_) => format!("OK {}", id.0),
                    Err(e) => format!("ERR delete failed: {e}"),
                }
            }
            Op::DeleteNearest(probe) => match self.engine.nearest(probe.mbr()) {
                Some(id) => match self.engine.try_remove(id) {
                    Ok(_) => format!("OK {}", id.0),
                    Err(e) => format!("ERR delete failed: {e}"),
                },
                None => "OK none".to_owned(),
            },
            Op::Update(id, obj) => {
                if self.engine.try_get(id).is_none() {
                    return format!("ERR no live object {}", id.0);
                }
                match self.engine.try_update(id, obj) {
                    Ok(_) => format!("OK {}", id.0),
                    Err(e) => format!("ERR update failed: {e}"),
                }
            }
            Op::Sub { q, spec } => {
                let (sid, hits) = self.engine.subscribe(q, spec);
                self.subs.insert(sid, conn);
                format!("SUB {sid} {}", format_results(&hits))
            }
            Op::Unsub(sid) => {
                if self.engine.unsubscribe(sid) {
                    self.subs.remove(&sid);
                    format!("OK unsub {sid}")
                } else {
                    format!("ERR no subscription {sid}")
                }
            }
            Op::Flush => match self
                .engine
                .wal_sync()
                .and_then(|()| self.engine.checkpoint())
            {
                Ok(()) => "OK flushed".to_owned(),
                Err(e) => format!("ERR flush failed: {e}"),
            },
            Op::Stats => {
                let s = self.engine.standing_stats();
                format!(
                    "OK objects={} mutations={} subs={} maintained={} reanswered={} notified={}",
                    self.engine.len(),
                    self.engine.mutations(),
                    s.registered,
                    s.maintained,
                    s.reanswered,
                    s.deltas,
                )
            }
            Op::Quit => "OK bye".to_owned(),
            Op::Knn { .. } | Op::Rknn { .. } | Op::TopM { .. } => {
                unreachable!("queries go through flush_queries")
            }
            Op::Insert(_) => unreachable!("inserts go through flush_inserts"),
        }
    }
}

/// Emits a deterministic protocol script: every object of the synthetic
/// database as an `INSERT`, then the stream's operations in arrival
/// order, then `STATS` + `FLUSH` + `QUIT`. The serve-smoke CI job pipes
/// one script through servers at different shard counts and diffs the
/// reply streams byte for byte.
pub fn generate_script(objects: &SyntheticConfig, stream: &QueryStreamConfig) -> String {
    let db = objects.generate();
    let ops = stream.generate(objects);
    let mut out = String::new();
    out.push_str(&format!(
        "# uncertain-db serve script: {} seed objects, {} streamed ops\n",
        db.len(),
        ops.total_ops()
    ));
    for (_, obj) in db.iter() {
        let json = serde_json::to_string(obj).expect("objects serialize");
        out.push_str(&format!("INSERT {json}\n"));
    }
    for batch in &ops.batches {
        out.push_str("# arrival batch\n");
        for entry in batch {
            let json = serde_json::to_string(&entry.object).expect("objects serialize");
            let line = match entry.op {
                StreamOp::KnnThreshold { k, tau } => format!("KNN {k} {tau} {json}"),
                StreamOp::RknnThreshold { k, tau } => format!("RKNN {k} {tau} {json}"),
                StreamOp::TopProbableNn { m } => format!("TOPM {m} {json}"),
                StreamOp::Insert => format!("INSERT {json}"),
                StreamOp::Delete => format!("DELNEAR {json}"),
                StreamOp::Subscribe { k, tau } => format!("SUB KNN {k} {tau} {json}"),
            };
            out.push_str(&line);
            out.push('\n');
        }
    }
    out.push_str("STATS\nFLUSH\nQUIT\n");
    out
}

/// A fresh in-memory server over an empty database at the given shard
/// count — the state both the stdin front and the in-process tests
/// start from.
pub fn empty_server(cfg: IdcaConfig, shards: usize, batch_cap: usize) -> Server {
    let engine =
        ShardedEngine::with_config(udb_object::Database::from_objects(Vec::new()), cfg, shards);
    Server::new(engine, batch_cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script_lines() -> Vec<String> {
        let objects = SyntheticConfig {
            n: 40,
            max_extent: 0.02,
            ..Default::default()
        };
        let stream = QueryStreamConfig {
            batches: 2,
            batch_size: 6,
            k: 3,
            insert_weight: 0.2,
            delete_weight: 0.15,
            subscribe_weight: 0.15,
            ..Default::default()
        };
        generate_script(&objects, &stream)
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn comments_and_blanks_are_silent() {
        assert!(matches!(parse_line(""), Ok(None)));
        assert!(matches!(parse_line("   "), Ok(None)));
        assert!(matches!(parse_line("# hello"), Ok(None)));
    }

    #[test]
    fn malformed_lines_report_err_without_state_change() {
        let mut server = empty_server(IdcaConfig::default(), 2, 8);
        let (replies, quit) = server.execute_batch(&[
            "NOPE".to_owned(),
            "KNN 0 0.5 {}".to_owned(),
            "KNN 3 1.5 {}".to_owned(),
            "DELETE x".to_owned(),
            "STATS".to_owned(),
        ]);
        assert!(!quit);
        assert_eq!(replies.len(), 5);
        assert!(replies[..4].iter().all(|r| r.starts_with("ERR ")));
        assert_eq!(
            replies[4],
            "OK objects=0 mutations=0 subs=0 maintained=0 reanswered=0 notified=0"
        );
    }

    #[test]
    fn sub_argument_errors_name_the_sub_verb() {
        let cases = [
            ("SUB", "SUB needs KNN|RKNN|TOPM ..."),
            ("SUB KNN", "SUB needs KNN|RKNN|TOPM ..."),
            ("SUB FOO 1", "SUB needs KNN|RKNN|TOPM, got \"FOO\""),
            ("SUB DELETE 1", "SUB needs KNN|RKNN|TOPM, got \"DELETE\""),
            ("SUB KNN 0 0.5 {}", "SUB KNN needs a positive <k>"),
            ("SUB RKNN x 0.5 {}", "SUB RKNN needs a positive <k>"),
            ("SUB KNN 2 1.5 {}", "SUB KNN needs <tau> in [0, 1)"),
            ("SUB RKNN 2", "SUB RKNN needs <tau> in [0, 1)"),
            ("SUB KNN 2 0.5", "SUB KNN needs <json>"),
            ("SUB TOPM 3", "SUB TOPM needs <m> <json>"),
            ("SUB TOPM 0 {}", "SUB TOPM needs a positive <m>"),
        ];
        for (line, expected) in cases {
            match parse_line(line) {
                Err(e) => assert_eq!(e, expected, "{line}"),
                Ok(op) => panic!("{line} parsed as {op:?}"),
            }
        }
        // object errors read the same as the one-shot verbs'
        for (sub, one_shot) in [
            ("SUB KNN 2 0.5 nope", "KNN 2 0.5 nope"),
            ("SUB TOPM 2 nope", "TOPM 2 nope"),
        ] {
            let e = parse_line(sub).expect_err(sub);
            assert!(e.starts_with("bad object JSON"), "{e}");
            assert_eq!(Err(e), parse_line(one_shot).map(|_| ()));
        }
    }

    #[test]
    fn quit_drops_trailing_lines() {
        let mut server = empty_server(IdcaConfig::default(), 1, 8);
        let (replies, quit) =
            server.execute_batch(&["STATS".to_owned(), "QUIT".to_owned(), "STATS".to_owned()]);
        assert!(quit);
        assert_eq!(
            replies,
            vec![
                "OK objects=0 mutations=0 subs=0 maintained=0 reanswered=0 notified=0",
                "OK bye"
            ]
        );
    }

    #[test]
    fn sharded_replies_match_single_engine_oracle() {
        // the serve-smoke equivalence, in process: the same script
        // through 1, 2 and 4 shards must produce byte-identical reply
        // streams (global ids, result sets, float digits, counters)
        let lines = script_lines();
        let cfg = IdcaConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let (oracle, quit) = empty_server(cfg.clone(), 1, 8).execute_batch(&lines);
        assert!(quit);
        assert!(oracle.iter().any(|r| r.starts_with("RES ")));
        for shards in [2, 4] {
            let (replies, _) = empty_server(cfg.clone(), shards, 8).execute_batch(&lines);
            assert_eq!(oracle, replies, "{shards} shards diverged from oracle");
        }
    }

    #[test]
    fn batch_cap_does_not_change_replies() {
        let lines = script_lines();
        let cfg = IdcaConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let (fused, _) = empty_server(cfg.clone(), 2, 64).execute_batch(&lines);
        let (unbatched, _) = empty_server(cfg, 2, 1).execute_batch(&lines);
        assert_eq!(fused, unbatched);
    }

    #[test]
    fn delete_and_update_round_trip() {
        let mut server = empty_server(IdcaConfig::default(), 2, 8);
        let objects = SyntheticConfig {
            n: 3,
            max_extent: 0.02,
            ..Default::default()
        };
        let db = objects.generate();
        let lines: Vec<String> = db
            .iter()
            .map(|(_, o)| format!("INSERT {}", serde_json::to_string(o).unwrap()))
            .collect();
        let (replies, _) = server.execute_batch(&lines);
        assert_eq!(replies, vec!["OK 0", "OK 1", "OK 2"]);
        let json = serde_json::to_string(db.get(udb_object::ObjectId(0))).unwrap();
        let (replies, _) = server.execute_batch(&[
            format!("UPDATE 1 {json}"),
            "DELETE 1".to_owned(),
            "DELETE 1".to_owned(),
            format!("INSERT {json}"),
        ]);
        assert_eq!(replies[0], "OK 1");
        assert_eq!(replies[1], "OK 1");
        assert!(replies[2].starts_with("ERR no live object"));
        // dead ids are never reused
        assert_eq!(replies[3], "OK 3");
    }
}
