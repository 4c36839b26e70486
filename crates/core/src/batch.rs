//! Batched query execution: owned query specs.
//!
//! A [`QueryBatch`] is a mixed set of queries executed through one pass
//! of the engine's pipeline (each query still finds its own candidates
//! with one best-first R-tree descent). What the queries share is the
//! engine's decomposition cache ([`crate::decomp`]): once any refiner
//! has expanded object `X` to level `l`, every other refiner touching
//! `X` — same query or not, this batch or a later one — replays the
//! cached level instead of recomputing it. With
//! [`crate::IdcaConfig::batch_threads`] > 1 (or the `UDB_THREADS` shim)
//! the queries fan out over the engine's persistent
//! [`crate::parallel::WorkerPool`], composing with the candidate-level
//! and pair-level fan-outs on the same pool.
//!
//! Results are **bit-identical** to running the same queries through the
//! sequential per-query entry points, at every `batch_threads` count —
//! the shared state is work, never numbers (property-tested in
//! `tests/batch_equivalence.rs` and `tests/owned_engine.rs`).

use udb_object::UncertainObject;

/// One query of a [`QueryBatch`], **owning** its query object — a batch
/// is a plain value with no borrow of caller state, so it can be built
/// once, queued, shipped across threads and replayed. Parameters mirror
/// the per-query entry points exactly.
#[derive(Debug, Clone)]
pub enum QuerySpec {
    /// [`crate::Engine::knn_threshold`] semantics.
    KnnThreshold {
        /// The query object.
        q: UncertainObject,
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// [`crate::Engine::rknn_threshold`] semantics.
    RknnThreshold {
        /// The query object.
        q: UncertainObject,
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
    /// [`crate::Engine::top_probable_nn`] semantics.
    TopProbableNn {
        /// The query object.
        q: UncertainObject,
        /// Result-set size.
        m: usize,
    },
}

/// A borrowed view of one query (the execution-side shape: the engine
/// pipelines borrow the query object for the duration of the call, so
/// per-query entry points can run the same code without cloning).
#[derive(Clone, Copy)]
pub(crate) enum QueryView<'b> {
    Knn {
        q: &'b UncertainObject,
        k: usize,
        tau: f64,
    },
    Rknn {
        q: &'b UncertainObject,
        k: usize,
        tau: f64,
    },
    TopM {
        q: &'b UncertainObject,
        m: usize,
    },
}

impl QuerySpec {
    pub(crate) fn view(&self) -> QueryView<'_> {
        match self {
            QuerySpec::KnnThreshold { q, k, tau } => QueryView::Knn {
                q,
                k: *k,
                tau: *tau,
            },
            QuerySpec::RknnThreshold { q, k, tau } => QueryView::Rknn {
                q,
                k: *k,
                tau: *tau,
            },
            QuerySpec::TopProbableNn { q, m } => QueryView::TopM { q, m: *m },
        }
    }

    /// Validates the spec's parameters (the push methods' contract).
    fn validate(&self) {
        match self {
            QuerySpec::KnnThreshold { k, tau, .. } | QuerySpec::RknnThreshold { k, tau, .. } => {
                assert!(*k >= 1, "k must be positive");
                assert!((0.0..1.0).contains(tau), "tau must be in [0, 1)");
            }
            QuerySpec::TopProbableNn { m, .. } => assert!(*m >= 1, "m must be positive"),
        }
    }
}

/// A mixed set of queries executed through one shared pass
/// ([`crate::Engine::run_batch`]). Owned and lifetime-free: build with
/// the push methods; results come back aligned with insertion order.
#[derive(Debug, Default, Clone)]
pub struct QueryBatch {
    queries: Vec<QuerySpec>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Queues a probabilistic threshold kNN query.
    ///
    /// # Panics
    /// Panics if `k == 0` or `tau ∉ [0, 1)` (same contract as
    /// [`crate::Engine::knn_threshold`]).
    pub fn knn_threshold(&mut self, q: UncertainObject, k: usize, tau: f64) -> &mut Self {
        self.push(QuerySpec::KnnThreshold { q, k, tau })
    }

    /// Queues a probabilistic threshold reverse kNN query.
    ///
    /// # Panics
    /// Panics if `k == 0` or `tau ∉ [0, 1)`.
    pub fn rknn_threshold(&mut self, q: UncertainObject, k: usize, tau: f64) -> &mut Self {
        self.push(QuerySpec::RknnThreshold { q, k, tau })
    }

    /// Queues a top-`m` probable nearest-neighbour query.
    ///
    /// # Panics
    /// Panics if `m == 0`.
    pub fn top_probable_nn(&mut self, q: UncertainObject, m: usize) -> &mut Self {
        self.push(QuerySpec::TopProbableNn { q, m })
    }

    /// Queues an already-built spec.
    ///
    /// # Panics
    /// Panics on invalid parameters (`k == 0`, `m == 0`,
    /// `tau ∉ [0, 1)`).
    pub fn push(&mut self, spec: QuerySpec) -> &mut Self {
        spec.validate();
        self.queries.push(spec);
        self
    }

    /// The queued queries, in insertion (= result) order.
    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    /// Number of queued queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "tau must be")]
    fn batch_rejects_bad_tau_at_push_time() {
        let q = UncertainObject::certain(udb_geometry::Point::from([0.0, 0.0]));
        QueryBatch::new().knn_threshold(q, 1, 1.5);
    }
}
