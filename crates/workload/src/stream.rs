//! Query-stream workloads: sustained multi-user traffic — queries *and*
//! mutations — instead of single queries.
//!
//! The paper's evaluation protocol measures one query at a time; a
//! serving system sees *streams* — operations arriving in batches, with
//! a mix of query types, data mutations (inserts and deletes trickling
//! in between queries) and (realistically) spatial skew: many users ask
//! about the same hot regions. [`QueryStreamConfig`] generates such a
//! stream deterministically (same seed ⇒ same stream). This crate only
//! generates the stream; the `serve` crate's `generate_script` renders
//! it as protocol lines, and its `Server` executes them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use udb_geometry::Point;
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
    /// Register a standing kNN query (the engine's `standing` module): the
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
