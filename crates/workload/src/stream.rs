//! Query-stream workloads: sustained multi-user traffic — queries *and*
//! mutations — instead of single queries.
//!
//! The paper's evaluation protocol measures one query at a time; a
//! serving system sees *streams* — operations arriving in batches, with
//! a mix of query types, data mutations (inserts and deletes trickling
//! in between queries) and (realistically) spatial skew: many users ask
//! about the same hot regions. [`QueryStreamConfig`] generates such a
//! stream deterministically (same seed ⇒ same stream), and
//! [`serve_stream`] drives it through any owned [`StreamEngine`] — a
//! plain [`Engine`] or a sharded [`ShardedEngine`] — either
//! query-by-query ([`ServeMode::Sequential`], the per-query entry
//! points) or batch-by-batch ([`ServeMode::Batched`], the shared-work
//! [`QueryBatch`] pass). Mutations are applied identically in both
//! modes, so the two return bit-identical results; and the sharded
//! engine's routing is id-order-preserving, so a sharded serve returns
//! bit-identical results to a single-engine serve of the same stream
//! (the `sharded_vs_single` pair in the `serve` bench group records the
//! throughput ratio).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use udb_core::{DurableError, Engine, QueryBatch, ShardedEngine, StandingSpec, ThresholdResult};
use udb_geometry::{Point, Rect};
use udb_object::UncertainObject;

use crate::synthetic::SyntheticConfig;

/// The operation one stream entry performs, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamOp {
    /// Probabilistic threshold kNN.
    KnnThreshold {
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// Probabilistic threshold reverse kNN.
    RknnThreshold {
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// Top-`m` probable nearest neighbours.
    TopProbableNn {
        /// Result-set size.
        m: usize,
    },
    /// Insert the entry's object into the database (an arrival).
    Insert,
    /// Delete the live object nearest the entry's object (a departure).
    /// The probe object follows the same spatial distribution as query
    /// objects — including hot-spot skew — so deletions target the hot
    /// working set exactly like the queries hammering it.
    Delete,
    /// Register a standing kNN query ([`udb_core::standing`]): the
    /// entry's object becomes a subscription whose result set the
    /// engine maintains incrementally as later mutations land. The
    /// entry's own result is the subscription's initial answer.
    Subscribe {
        /// The `k` of the standing query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
}

impl StreamOp {
    /// Whether this entry mutates the database instead of querying it.
    pub fn is_mutation(&self) -> bool {
        matches!(self, StreamOp::Insert | StreamOp::Delete)
    }
}

/// One entry of the stream: an uncertain object plus the operation to
/// run against it (for queries the object is the query region; for
/// [`StreamOp::Insert`] it is the new database object; for
/// [`StreamOp::Delete`] it is the probe whose nearest live object is
/// removed).
#[derive(Debug, Clone)]
pub struct StreamQuery {
    /// The operation's object (drawn from the data distribution, or
    /// around a hot-spot center).
    pub object: UncertainObject,
    /// The operation and its parameters.
    pub op: StreamOp,
}

/// Configuration of a synthetic query/mutation stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryStreamConfig {
    /// Number of arrival batches.
    pub batches: usize,
    /// Operations per arrival batch.
    pub batch_size: usize,
    /// Relative weight of kNN-threshold queries in the mix.
    pub knn_weight: f64,
    /// Relative weight of RkNN-threshold queries.
    pub rknn_weight: f64,
    /// Relative weight of top-`m` queries.
    pub top_m_weight: f64,
    /// Relative weight of object insertions (mutation arrivals); `0`
    /// (the default) keeps the stream read-only.
    pub insert_weight: f64,
    /// Relative weight of object deletions (hot-spot-skewed targets);
    /// `0` (the default) keeps the stream read-only.
    pub delete_weight: f64,
    /// Relative weight of standing-query registrations
    /// ([`StreamOp::Subscribe`], always kNN with the stream's `k`/`tau`);
    /// `0` (the default) keeps the stream subscription-free.
    pub subscribe_weight: f64,
    /// The `k` of generated kNN/RkNN queries.
    pub k: usize,
    /// The `τ` of generated threshold queries.
    pub tau: f64,
    /// The `m` of generated top-`m` queries.
    pub m: usize,
    /// Number of hot-spot centers; `0` disables hot spots (every
    /// generated object follows the data distribution).
    pub hotspots: usize,
    /// Fraction of operations drawn near a hot-spot center (the rest
    /// follow the data distribution).
    pub hotspot_fraction: f64,
    /// Half-extent of the uniform offset around a hot-spot center.
    pub hotspot_spread: f64,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

impl Default for QueryStreamConfig {
    fn default() -> Self {
        QueryStreamConfig {
            batches: 4,
            batch_size: 8,
            knn_weight: 0.5,
            rknn_weight: 0.25,
            top_m_weight: 0.25,
            insert_weight: 0.0,
            delete_weight: 0.0,
            subscribe_weight: 0.0,
            k: 5,
            tau: 0.3,
            m: 3,
            hotspots: 2,
            hotspot_fraction: 0.75,
            hotspot_spread: 0.02,
            seed: 0x57EAu64,
        }
    }
}

/// Operation counts of a stream, by kind (see
/// [`QueryStream::mix_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MixCounts {
    /// kNN-threshold queries.
    pub knn: usize,
    /// RkNN-threshold queries.
    pub rknn: usize,
    /// Top-`m` queries.
    pub top_m: usize,
    /// Insert mutations.
    pub insert: usize,
    /// Delete mutations.
    pub delete: usize,
    /// Standing-query registrations.
    pub subscribe: usize,
}

impl MixCounts {
    /// Total operations counted.
    pub fn total(&self) -> usize {
        self.knn + self.rknn + self.top_m + self.insert + self.delete + self.subscribe
    }

    /// Query operations only (everything but mutations).
    pub fn queries(&self) -> usize {
        self.knn + self.rknn + self.top_m
    }

    /// Mutation operations only.
    pub fn mutations(&self) -> usize {
        self.insert + self.delete
    }
}

/// A generated stream: operations grouped into arrival batches.
#[derive(Debug)]
pub struct QueryStream {
    /// The arrival batches, each a mixed set of operations.
    pub batches: Vec<Vec<StreamQuery>>,
}

impl QueryStream {
    /// Number of arrival batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the stream holds no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total operations across all batches (queries *and* mutations;
    /// [`QueryStream::mix_counts`] separates the two).
    pub fn total_ops(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Operation counts across the stream, by kind.
    pub fn mix_counts(&self) -> MixCounts {
        let mut counts = MixCounts::default();
        for q in self.batches.iter().flatten() {
            match q.op {
                StreamOp::KnnThreshold { .. } => counts.knn += 1,
                StreamOp::RknnThreshold { .. } => counts.rknn += 1,
                StreamOp::TopProbableNn { .. } => counts.top_m += 1,
                StreamOp::Insert => counts.insert += 1,
                StreamOp::Delete => counts.delete += 1,
                StreamOp::Subscribe { .. } => counts.subscribe += 1,
            }
        }
        counts
    }
}

impl QueryStreamConfig {
    /// Generates the stream. Operation objects follow `object_config`'s
    /// data distribution (the paper's protocol for reference objects),
    /// except that a `hotspot_fraction` of them — when `hotspots > 0` —
    /// center near one of `hotspots` randomly placed hot-spot points,
    /// modelling many users querying (and churning) the same region,
    /// which maximizes both the shared work a batched executor can
    /// exploit and the cache invalidation pressure mutations put on an
    /// engine-owned decomposition cache.
    ///
    /// # Panics
    /// Panics if every mix weight is zero or any weight is negative.
    pub fn generate(&self, object_config: &SyntheticConfig) -> QueryStream {
        assert!(
            self.knn_weight >= 0.0
                && self.rknn_weight >= 0.0
                && self.top_m_weight >= 0.0
                && self.insert_weight >= 0.0
                && self.delete_weight >= 0.0
                && self.subscribe_weight >= 0.0,
            "mix weights must be non-negative"
        );
        let total = self.knn_weight
            + self.rknn_weight
            + self.top_m_weight
            + self.insert_weight
            + self.delete_weight
            + self.subscribe_weight;
        assert!(total > 0.0, "at least one mix weight must be positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let dims = object_config.dims;
        let centers: Vec<Point> = (0..self.hotspots)
            .map(|_| {
                Point::new(
                    (0..dims)
                        .map(|_| rng.gen_range(0.0..1.0))
                        .collect::<Vec<f64>>(),
                )
            })
            .collect();
        let batches = (0..self.batches)
            .map(|_| {
                (0..self.batch_size)
                    .map(|_| {
                        let object = if !centers.is_empty()
                            && rng.gen_range(0.0..1.0) < self.hotspot_fraction
                        {
                            let center = &centers[rng.gen_range(0..centers.len())];
                            self.hotspot_object(center, object_config, &mut rng)
                        } else {
                            object_config.generate_object(&mut rng)
                        };
                        let pick = rng.gen_range(0.0..total);
                        let op = if pick < self.knn_weight {
                            StreamOp::KnnThreshold {
                                k: self.k,
                                tau: self.tau,
                            }
                        } else if pick < self.knn_weight + self.rknn_weight {
                            StreamOp::RknnThreshold {
                                k: self.k,
                                tau: self.tau,
                            }
                        } else if pick < self.knn_weight + self.rknn_weight + self.top_m_weight {
                            StreamOp::TopProbableNn { m: self.m }
                        } else if pick
                            < self.knn_weight
                                + self.rknn_weight
                                + self.top_m_weight
                                + self.insert_weight
                        {
                            StreamOp::Insert
                        } else if pick
                            < self.knn_weight
                                + self.rknn_weight
                                + self.top_m_weight
                                + self.insert_weight
                                + self.delete_weight
                        {
                            StreamOp::Delete
                        } else {
                            StreamOp::Subscribe {
                                k: self.k,
                                tau: self.tau,
                            }
                        };
                        StreamQuery { object, op }
                    })
                    .collect()
            })
            .collect();
        QueryStream { batches }
    }

    /// An object centered within `hotspot_spread` of a hot-spot center;
    /// extents and density family follow the data distribution's,
    /// exactly like uniform-drawn objects.
    fn hotspot_object(
        &self,
        center: &Point,
        object_config: &SyntheticConfig,
        rng: &mut StdRng,
    ) -> UncertainObject {
        let c: Vec<f64> = (0..object_config.dims)
            .map(|d| center[d] + rng.gen_range(-self.hotspot_spread..self.hotspot_spread))
            .collect();
        object_config.generate_object_at(c, rng)
    }
}

/// How [`serve_stream`] executes the queries of each arrival batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// One call per query through the per-query entry points (the
    /// baseline a serving system without batching would run).
    Sequential,
    /// One [`Engine::run_batch`] per arrival batch (cross-query
    /// decomposition cache, scratch reuse, `batch_threads` fan-out).
    Batched,
}

/// An owned engine [`serve_stream`] can drive: the mutation, query and
/// shutdown surface the stream driver needs, implemented by the plain
/// [`Engine`] and the sharded [`ShardedEngine`]. Both implementations
/// delegate straight to the engine's own entry points, so serving the
/// same stream through either returns bit-identical results.
pub trait StreamEngine {
    /// Applies an arrival ([`StreamOp::Insert`]).
    fn stream_insert(&mut self, object: UncertainObject);
    /// Applies a departure ([`StreamOp::Delete`]): removes the live
    /// object nearest `probe`, returning whether one existed.
    fn stream_remove_nearest(&mut self, probe: &Rect) -> bool;
    /// Probabilistic threshold kNN (the engine's own entry point).
    fn stream_knn(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult>;
    /// Probabilistic threshold RkNN.
    fn stream_rknn(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult>;
    /// Top-`m` probable nearest neighbours.
    fn stream_top_m(&self, q: &UncertainObject, m: usize) -> Vec<ThresholdResult>;
    /// Registers a standing kNN query ([`StreamOp::Subscribe`]),
    /// returning its initial result set. Maintenance deltas queue in
    /// the engine (drain with its `take_standing_deltas`).
    fn stream_subscribe(&mut self, q: &UncertainObject, k: usize, tau: f64)
        -> Vec<ThresholdResult>;
    /// One shared-work pass over a query batch.
    fn stream_run_batch(&self, batch: &QueryBatch) -> Vec<Vec<ThresholdResult>>;
    /// The graceful-shutdown handshake: WAL fsync + final checkpoint.
    ///
    /// # Errors
    /// Fails when a durable engine cannot flush or checkpoint.
    fn stream_flush(&mut self) -> Result<(), DurableError>;
}

impl StreamEngine for Engine {
    fn stream_insert(&mut self, object: UncertainObject) {
        self.insert(object);
    }
    fn stream_remove_nearest(&mut self, probe: &Rect) -> bool {
        match self.nearest(probe) {
            Some(id) => {
                self.remove(id);
                true
            }
            None => false,
        }
    }
    fn stream_knn(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        self.knn_threshold(q, k, tau)
    }
    fn stream_rknn(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        self.rknn_threshold(q, k, tau)
    }
    fn stream_top_m(&self, q: &UncertainObject, m: usize) -> Vec<ThresholdResult> {
        self.top_probable_nn(q, m)
    }
    fn stream_subscribe(
        &mut self,
        q: &UncertainObject,
        k: usize,
        tau: f64,
    ) -> Vec<ThresholdResult> {
        self.subscribe(q.clone(), StandingSpec::Knn { k, tau }).1
    }
    fn stream_run_batch(&self, batch: &QueryBatch) -> Vec<Vec<ThresholdResult>> {
        self.run_batch(batch)
    }
    fn stream_flush(&mut self) -> Result<(), DurableError> {
        self.wal_sync()?;
        self.checkpoint()
    }
}

impl StreamEngine for ShardedEngine {
    fn stream_insert(&mut self, object: UncertainObject) {
        self.insert(object);
    }
    fn stream_remove_nearest(&mut self, probe: &Rect) -> bool {
        match self.nearest(probe) {
            Some(id) => {
                self.remove(id);
                true
            }
            None => false,
        }
    }
    fn stream_knn(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        self.knn_threshold(q, k, tau)
    }
    fn stream_rknn(&self, q: &UncertainObject, k: usize, tau: f64) -> Vec<ThresholdResult> {
        self.rknn_threshold(q, k, tau)
    }
    fn stream_top_m(&self, q: &UncertainObject, m: usize) -> Vec<ThresholdResult> {
        self.top_probable_nn(q, m)
    }
    fn stream_subscribe(
        &mut self,
        q: &UncertainObject,
        k: usize,
        tau: f64,
    ) -> Vec<ThresholdResult> {
        self.subscribe(q.clone(), StandingSpec::Knn { k, tau }).1
    }
    fn stream_run_batch(&self, batch: &QueryBatch) -> Vec<Vec<ThresholdResult>> {
        self.run_batch(batch)
    }
    fn stream_flush(&mut self) -> Result<(), DurableError> {
        self.wal_sync()?;
        self.checkpoint()
    }
}

/// Drives a stream through the owned engine, batch by batch, and
/// returns the per-batch, per-entry results (aligned with the stream;
/// mutation entries yield an empty result vector).
///
/// Each arrival batch applies its **mutations first, in stream order**
/// — [`StreamOp::Insert`] adds the entry's object,
/// [`StreamOp::Delete`] removes the live object nearest the entry's
/// probe ([`Engine::nearest`]; a no-op on an empty database) — then
/// executes the batch's queries against the settled state. Both modes
/// apply mutations identically, so they return bit-identical results;
/// they differ only in how query work is shared, which is exactly what
/// the `serve` benchmark measures as sustained operations/sec. The
/// engine's decomposition cache stays warm *across* batches — the
/// serving state this driver is built to measure.
pub fn serve_stream<E: StreamEngine>(
    engine: &mut E,
    stream: &QueryStream,
    mode: ServeMode,
) -> ServeResults {
    serve_batches(engine, stream, mode, &mut ServeReport::default())
}

/// Per-batch, per-entry query results from a served stream, aligned
/// with the stream's entries (mutation entries yield an empty vector).
pub type ServeResults = Vec<Vec<Vec<ThresholdResult>>>;

/// What [`serve_stream_with_report`] did to the engine, alongside the
/// query results: the applied-mutation counts a serving operator
/// reconciles against the upstream feed, and whether the end-of-stream
/// durability handshake ran.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Objects inserted from [`StreamOp::Insert`] entries.
    pub inserts: u64,
    /// Objects removed by [`StreamOp::Delete`] entries. Can trail the
    /// stream's delete count: a delete against an empty database is a
    /// no-op.
    pub removes: u64,
    /// Query entries executed (threshold kNN/RkNN + top-`m`).
    pub queries: u64,
    /// Whether the graceful-shutdown handshake ran at stream end: WAL
    /// fsync + final checkpoint on a durable engine, so a crash *after*
    /// the stream loses nothing. Always `true` after
    /// [`serve_stream_with_report`] returns `Ok`; in-memory engines
    /// still get the checkpoint's compaction + index rebuild.
    pub flushed: bool,
}

/// [`serve_stream`] with a graceful shutdown: after the last batch the
/// engine's WAL is fsynced and a final checkpoint is taken
/// ([`Engine::wal_sync`] + [`Engine::checkpoint`]), so every
/// acknowledged mutation is on stable storage and recovery replays
/// nothing. Returns the per-batch results plus a [`ServeReport`] of
/// applied mutation counts.
///
/// # Errors
/// Fails when the durable engine cannot flush or checkpoint; results
/// and counts up to that point are lost to the caller, but the WAL
/// still holds every mutation that was acknowledged mid-stream.
pub fn serve_stream_with_report<E: StreamEngine>(
    engine: &mut E,
    stream: &QueryStream,
    mode: ServeMode,
) -> Result<(ServeResults, ServeReport), udb_core::DurableError> {
    let mut report = ServeReport::default();
    let results = serve_batches(engine, stream, mode, &mut report);
    engine.stream_flush()?;
    report.flushed = true;
    Ok((results, report))
}

fn serve_batches<E: StreamEngine>(
    engine: &mut E,
    stream: &QueryStream,
    mode: ServeMode,
    report: &mut ServeReport,
) -> ServeResults {
    stream
        .batches
        .iter()
        .map(|batch| {
            // mutations settle first (identically in both modes);
            // subscriptions register here too — their initial answer is
            // computed against the settled state, in both modes, and
            // slots into the entry's result position below
            let mut sub_results: std::collections::HashMap<usize, Vec<ThresholdResult>> =
                std::collections::HashMap::new();
            for (i, entry) in batch.iter().enumerate() {
                match entry.op {
                    StreamOp::Insert => {
                        engine.stream_insert(entry.object.clone());
                        report.inserts += 1;
                    }
                    StreamOp::Delete if engine.stream_remove_nearest(entry.object.mbr()) => {
                        report.removes += 1;
                    }
                    StreamOp::Subscribe { k, tau } => {
                        sub_results.insert(i, engine.stream_subscribe(&entry.object, k, tau));
                    }
                    _ => {}
                }
            }
            report.queries += batch.iter().filter(|q| !q.op.is_mutation()).count() as u64;
            match mode {
                ServeMode::Sequential => batch
                    .iter()
                    .enumerate()
                    .map(|(i, q)| match q.op {
                        StreamOp::KnnThreshold { k, tau } => engine.stream_knn(&q.object, k, tau),
                        StreamOp::RknnThreshold { k, tau } => engine.stream_rknn(&q.object, k, tau),
                        StreamOp::TopProbableNn { m } => engine.stream_top_m(&q.object, m),
                        StreamOp::Subscribe { .. } => sub_results.remove(&i).unwrap_or_default(),
                        StreamOp::Insert | StreamOp::Delete => Vec::new(),
                    })
                    .collect(),
                ServeMode::Batched => {
                    let mut qb = QueryBatch::new();
                    for q in batch {
                        match q.op {
                            StreamOp::KnnThreshold { k, tau } => {
                                qb.knn_threshold(q.object.clone(), k, tau);
                            }
                            StreamOp::RknnThreshold { k, tau } => {
                                qb.rknn_threshold(q.object.clone(), k, tau);
                            }
                            StreamOp::TopProbableNn { m } => {
                                qb.top_probable_nn(q.object.clone(), m);
                            }
                            StreamOp::Insert | StreamOp::Delete | StreamOp::Subscribe { .. } => {}
                        }
                    }
                    let mut results = engine.stream_run_batch(&qb).into_iter();
                    batch
                        .iter()
                        .enumerate()
                        .map(|(i, q)| match q.op {
                            StreamOp::Insert | StreamOp::Delete => Vec::new(),
                            StreamOp::Subscribe { .. } => {
                                sub_results.remove(&i).unwrap_or_default()
                            }
                            _ => results.next().expect("one result set per query"),
                        })
                        .collect()
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use udb_core::IdcaConfig;

    fn small_cfg() -> QueryStreamConfig {
        QueryStreamConfig {
            batches: 3,
            batch_size: 5,
            ..Default::default()
        }
    }

    fn object_cfg() -> SyntheticConfig {
        SyntheticConfig {
            n: 100,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_seed_stable() {
        let cfg = small_cfg();
        let a = cfg.generate(&object_cfg());
        let b = cfg.generate(&object_cfg());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_ops(), 15);
        for (ba, bb) in a.batches.iter().zip(b.batches.iter()) {
            assert_eq!(ba.len(), bb.len());
            for (x, y) in ba.iter().zip(bb.iter()) {
                assert_eq!(x.op, y.op);
                assert_eq!(x.object.mbr(), y.object.mbr());
            }
        }
    }

    #[test]
    fn mutating_stream_is_seed_stable() {
        let cfg = QueryStreamConfig {
            insert_weight: 0.2,
            delete_weight: 0.1,
            ..small_cfg()
        };
        let a = cfg.generate(&object_cfg());
        let b = cfg.generate(&object_cfg());
        for (ba, bb) in a.batches.iter().zip(b.batches.iter()) {
            for (x, y) in ba.iter().zip(bb.iter()) {
                assert_eq!(x.op, y.op);
                assert_eq!(x.object.mbr(), y.object.mbr());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = small_cfg().generate(&object_cfg());
        let b = QueryStreamConfig {
            seed: 999,
            ..small_cfg()
        }
        .generate(&object_cfg());
        let same = a
            .batches
            .iter()
            .flatten()
            .zip(b.batches.iter().flatten())
            .all(|(x, y)| x.object.mbr() == y.object.mbr());
        assert!(!same);
    }

    #[test]
    fn mix_ratios_are_respected() {
        // a large stream: empirical mix within a loose tolerance of the
        // configured weights, mutations included
        let cfg = QueryStreamConfig {
            batches: 40,
            batch_size: 25,
            knn_weight: 0.4,
            rknn_weight: 0.2,
            top_m_weight: 0.2,
            insert_weight: 0.12,
            delete_weight: 0.08,
            ..Default::default()
        };
        let stream = cfg.generate(&object_cfg());
        let counts = stream.mix_counts();
        let total = stream.total_ops() as f64;
        assert_eq!(counts.total(), stream.total_ops());
        assert!((counts.knn as f64 / total - 0.4).abs() < 0.08, "{counts:?}");
        assert!(
            (counts.rknn as f64 / total - 0.2).abs() < 0.08,
            "{counts:?}"
        );
        assert!(
            (counts.top_m as f64 / total - 0.2).abs() < 0.08,
            "{counts:?}"
        );
        assert!(
            (counts.insert as f64 / total - 0.12).abs() < 0.06,
            "{counts:?}"
        );
        assert!(
            (counts.delete as f64 / total - 0.08).abs() < 0.06,
            "{counts:?}"
        );
        assert_eq!(counts.mutations(), counts.insert + counts.delete);
        assert_eq!(counts.queries() + counts.mutations(), counts.total());
    }

    #[test]
    fn zero_weight_ops_never_generated() {
        let cfg = QueryStreamConfig {
            batches: 10,
            batch_size: 10,
            knn_weight: 1.0,
            rknn_weight: 0.0,
            top_m_weight: 0.0,
            ..Default::default()
        };
        let counts = cfg.generate(&object_cfg()).mix_counts();
        assert_eq!(counts.knn, 100);
        assert_eq!(counts.rknn, 0);
        assert_eq!(counts.top_m, 0);
        assert_eq!(counts.mutations(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one mix weight")]
    fn all_zero_weights_rejected() {
        let cfg = QueryStreamConfig {
            knn_weight: 0.0,
            rknn_weight: 0.0,
            top_m_weight: 0.0,
            ..Default::default()
        };
        cfg.generate(&object_cfg());
    }

    #[test]
    fn hotspot_queries_cluster_around_centers() {
        // all-hot-spot stream with a tiny spread: operation centers must
        // cluster on at most `hotspots` distinct locations
        let cfg = QueryStreamConfig {
            batches: 4,
            batch_size: 10,
            hotspots: 2,
            hotspot_fraction: 1.0,
            hotspot_spread: 1e-4,
            ..Default::default()
        };
        let stream = cfg.generate(&object_cfg());
        let centers: Vec<Vec<f64>> = stream
            .batches
            .iter()
            .flatten()
            .map(|q| {
                let c = q.object.mbr().center();
                vec![c[0], c[1]]
            })
            .collect();
        // greedily cluster with a radius well above the spread but far
        // below the unit-space scale
        let mut reps: Vec<&Vec<f64>> = Vec::new();
        for c in &centers {
            if !reps
                .iter()
                .any(|r| ((r[0] - c[0]).powi(2) + (r[1] - c[1]).powi(2)).sqrt() < 0.01)
            {
                reps.push(c);
            }
        }
        assert!(reps.len() <= 2, "found {} clusters", reps.len());
    }

    #[test]
    fn uniform_stream_has_no_clusters_constraint() {
        let cfg = QueryStreamConfig {
            hotspots: 0,
            ..small_cfg()
        };
        let stream = cfg.generate(&object_cfg());
        assert_eq!(stream.total_ops(), 15);
    }

    #[test]
    fn serve_modes_agree_end_to_end() {
        let object_cfg = SyntheticConfig {
            n: 150,
            max_extent: 0.02,
            ..Default::default()
        };
        let db = object_cfg.generate();
        let idca = IdcaConfig {
            max_iterations: 4,
            ..Default::default()
        };
        let stream = QueryStreamConfig {
            batches: 2,
            batch_size: 4,
            k: 3,
            ..Default::default()
        }
        .generate(&object_cfg);
        let mut seq_engine = Engine::with_config(db.clone(), idca.clone());
        let mut bat_engine = Engine::with_config(db, idca);
        let seq = serve_stream(&mut seq_engine, &stream, ServeMode::Sequential);
        let bat = serve_stream(&mut bat_engine, &stream, ServeMode::Batched);
        assert_eq!(seq, bat);
    }

    #[test]
    fn serve_modes_agree_with_mutations() {
        let object_cfg = SyntheticConfig {
            n: 120,
            max_extent: 0.02,
            ..Default::default()
        };
        let db = object_cfg.generate();
        let idca = IdcaConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let stream = QueryStreamConfig {
            batches: 3,
            batch_size: 6,
            k: 3,
            insert_weight: 0.25,
            delete_weight: 0.2,
            ..Default::default()
        }
        .generate(&object_cfg);
        assert!(
            stream.mix_counts().mutations() > 0,
            "stream must exercise the mutation path"
        );
        let mut seq_engine = Engine::with_config(db.clone(), idca.clone());
        let mut bat_engine = Engine::with_config(db.clone(), idca.clone());
        let seq = serve_stream(&mut seq_engine, &stream, ServeMode::Sequential);
        let bat = serve_stream(&mut bat_engine, &stream, ServeMode::Batched);
        assert_eq!(seq, bat);
        // both engines converged to the same mutated database; the db
        // never empties mid-stream, so every delete found a victim
        let counts = stream.mix_counts();
        let expected = db.len() + counts.insert - counts.delete;
        assert_eq!(seq_engine.db().len(), expected);
        assert_eq!(bat_engine.db().len(), expected);
        seq_engine.tree().check_invariants();
    }

    #[test]
    fn sharded_serve_matches_single_engine() {
        // the ShardedEngine driver: same stream, same mode, sharded 3
        // ways — results are bit-identical to the single engine because
        // routing preserves arrival order in the global id space
        let object_cfg = SyntheticConfig {
            n: 120,
            max_extent: 0.02,
            ..Default::default()
        };
        let db = object_cfg.generate();
        let idca = IdcaConfig {
            max_iterations: 3,
            ..Default::default()
        };
        let stream = QueryStreamConfig {
            batches: 3,
            batch_size: 6,
            k: 3,
            insert_weight: 0.25,
            delete_weight: 0.2,
            ..Default::default()
        }
        .generate(&object_cfg);
        let mut single = Engine::with_config(db.clone(), idca.clone());
        let mut sharded = ShardedEngine::with_config(db, idca, 3);
        for mode in [ServeMode::Sequential, ServeMode::Batched] {
            let a = serve_stream(&mut single, &stream, mode);
            let b = serve_stream(&mut sharded, &stream, mode);
            assert_eq!(a, b);
        }
        assert_eq!(single.db().len(), sharded.len());
    }
}
