//! Configuration types for the IDCA engine.

use udb_domination::DominationCriterion;
use udb_geometry::LpNorm;
use udb_object::{Database, ObjectId, SplitStrategy, UncertainObject};

/// Tuning knobs of the iterative refinement (Algorithm 1).
#[derive(Debug, Clone)]
pub struct IdcaConfig {
    /// Distance norm (paper: Euclidean).
    pub norm: LpNorm,
    /// Spatial decision criterion (paper default: the optimal criterion;
    /// MinMax is the Figure 6 baseline).
    pub criterion: DominationCriterion,
    /// kd-tree split-axis strategy for object decomposition.
    pub split_strategy: SplitStrategy,
    /// Hard cap on refinement iterations (the kd-tree height `h` of §V;
    /// state grows exponentially with it).
    pub max_iterations: usize,
    /// Stop once the accumulated uncertainty
    /// `Σ_k (DomCountUB_k − DomCountLB_k)` falls below this value.
    pub uncertainty_target: f64,
    /// Parallel lanes for the partition-pair loop of
    /// [`crate::Refiner::snapshot`], served by the engine's persistent
    /// [`crate::parallel::WorkerPool`] (the calling thread is one lane).
    /// Results are bit-identical at every lane count; more lanes only
    /// shorten deep refinements. Defaults to `UDB_THREADS` (see
    /// [`IdcaConfig::batch_threads`]).
    pub snapshot_threads: usize,
    /// Parallel lanes for *candidate-level* fan-out in the early-exit
    /// drivers ([`crate::refine_each`] / [`crate::refine_top_m`]):
    /// candidates (for top-`m`, each round's per-candidate
    /// `step()`/`snapshot()` calls) run as lane-bounded pool jobs.
    /// Composes with [`IdcaConfig::snapshot_threads`]: a candidate job
    /// may fan its own pair loop out on the same pool (nested scopes are
    /// deadlock-safe because the scoping thread participates). Results
    /// are bit-identical at every lane count. Defaults to `UDB_THREADS`.
    pub candidate_threads: usize,
    /// Parallel lanes for *query-level* fan-out in the batched execution
    /// path ([`crate::Engine::run_batch`]): the queries of a
    /// [`crate::QueryBatch`] run as lane-bounded chunks on the engine's
    /// persistent worker pool, and may nest the two scopes above on the
    /// same pool. Queries share only the decomposition cache, never
    /// numeric state, so results are bit-identical at every lane count.
    ///
    /// All three lane counts default to the `UDB_THREADS` environment
    /// variable, read once per process (values `< 1` and junk fall back
    /// to `1`, the sequential default). It is a CI shim: setting it to
    /// `2` routes every default-config test through the worker-pool
    /// paths, whatever the runner's CPU count.
    pub batch_threads: usize,
    /// Ignored: the sharded router runs its per-shard loops inline, in
    /// shard order. The field is kept only because an existing
    /// struct-literal caller still sets it; it is removed with the next
    /// benchmark change.
    pub shard_threads: usize,
    /// Ignored: the sharded router always merges its per-shard candidate
    /// streams lazily. The field is kept only because an existing
    /// struct-literal caller still sets it; it is removed with the next
    /// benchmark change.
    pub shard_materialize_min: usize,
    /// Ignored: the engines' decomposition cache always holds up to
    /// [`crate::DECOMP_CACHE_ENTRIES`] objects. The field is kept only
    /// because an existing struct-literal caller still sets it; it is
    /// removed with the next benchmark change.
    pub decomp_cache_entries: usize,
    /// Ignored: the refiner computes the exact UGF snapshot every
    /// round. The field is kept only because an existing struct-literal
    /// caller still sets it; it is removed with the next benchmark
    /// change.
    pub prefilter: bool,
    /// Fsync cadence of a durable engine's WAL: after each mutation
    /// call the segment is forced to stable storage once at least this
    /// many appended records are unsynced. An insert run
    /// ([`crate::Engine::try_insert_run`]) is one call: all of its
    /// records are appended first, then one fsync covers them, before
    /// any of them is applied or acknowledged. `1` (the default: every
    /// record is durable the moment the mutation call returns) is the
    /// paper-trail-honest setting; larger values batch fsyncs — a crash
    /// may lose up to `wal_sync_every - 1` of the most recent
    /// acknowledged mutations (never a prefix gap, never a reorder).
    /// `0` syncs only at checkpoints and explicit
    /// [`crate::Engine::wal_sync`] calls. Ignored by in-memory engines.
    pub wal_sync_every: usize,
    /// Automatic checkpoint cadence of a durable engine: after this
    /// many logged mutations the engine takes a checkpoint (database
    /// snapshot + WAL rotation + tombstone compaction + R-tree
    /// rebuild). The cadence is checked after each mutation, and once
    /// after a whole insert run ([`crate::Engine::try_insert_run`]),
    /// never between a run's logged records and their application. `0`
    /// disables automatic checkpoints — only
    /// [`crate::Engine::checkpoint`] and the open-time checkpoint run.
    /// Defaults to 1024. Ignored by in-memory engines.
    pub checkpoint_every: usize,
}

/// The default of every lane count: `UDB_THREADS`, read once (values
/// `< 1` and junk fall back to the sequential default of 1).
fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("UDB_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1)
    })
}

impl Default for IdcaConfig {
    fn default() -> Self {
        IdcaConfig {
            norm: LpNorm::L2,
            criterion: DominationCriterion::Optimal,
            split_strategy: SplitStrategy::LongestExtent,
            max_iterations: 8,
            uncertainty_target: 1e-3,
            snapshot_threads: default_threads(),
            candidate_threads: default_threads(),
            batch_threads: default_threads(),
            shard_threads: 1,
            shard_materialize_min: 0,
            decomp_cache_entries: crate::DECOMP_CACHE_ENTRIES,
            prefilter: false,
            wal_sync_every: 1,
            checkpoint_every: 1024,
        }
    }
}

/// A query predicate that lets the refiner terminate early (§VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// Refine the full domination-count PDF (inverse ranking, expected
    /// rank).
    FullPdf,
    /// Only `P(DomCount < k)` matters (kNN / RkNN without a threshold):
    /// enables the `O(k²·|Cand|)` UGF truncation.
    CountBelow {
        /// The `k` of the query.
        k: usize,
    },
    /// Decide `P(DomCount < k) > τ` (threshold kNN / RkNN): truncation
    /// *and* early termination as soon as the bounds separate from `τ`.
    Threshold {
        /// The `k` of the query.
        k: usize,
        /// The probability threshold `τ`.
        tau: f64,
    },
}

impl Predicate {
    /// The truncation point, if the predicate allows one.
    pub fn k(&self) -> Option<usize> {
        match self {
            Predicate::FullPdf => None,
            Predicate::CountBelow { k } | Predicate::Threshold { k, .. } => Some(*k),
        }
    }
}

/// The query-outcome context threaded through early-exit candidate
/// refinement (the mid-loop pruning of [`crate::Engine`]): the `k`
/// every candidate's predicate shares, plus the decision threshold when
/// the query has one.
///
/// A threshold goal's [`RefineGoal::predicate`] lets each candidate's
/// refiner stop the moment its outcome is decided instead of refining
/// to convergence; rank-style queries ([`crate::refine_top_m`]) leave
/// `tau` unset and decide cross-candidate instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineGoal {
    /// The `k` of the query: every candidate refines `P(DomCount < k)`.
    pub k: usize,
    /// Decision threshold `τ` of a threshold query; `None` for queries
    /// that need converged bounds rather than a per-candidate decision.
    pub tau: Option<f64>,
}

impl RefineGoal {
    /// Goal of a threshold query: decide `P(DomCount < k) > τ`.
    pub fn threshold(k: usize, tau: f64) -> Self {
        RefineGoal { k, tau: Some(tau) }
    }

    /// Goal of a rank-style query: converge `P(DomCount < k)` bounds.
    pub fn count_below(k: usize) -> Self {
        RefineGoal { k, tau: None }
    }

    /// The per-candidate predicate this goal refines under.
    pub fn predicate(&self) -> Predicate {
        match self.tau {
            Some(tau) => Predicate::Threshold { k: self.k, tau },
            None => Predicate::CountBelow { k: self.k },
        }
    }

    /// Whether `snap` decides this goal for a single candidate (always
    /// `false` without a `tau`: convergence is then the only
    /// per-candidate stop, and cross-candidate logic does the retiring).
    pub fn decided(&self, snap: &crate::refiner::DomCountSnapshot) -> bool {
        self.tau.is_some_and(|tau| snap.decided(tau).is_some())
    }
}

/// A reference to either a database object or an external (ad-hoc) query
/// object. The paper's queries need both: kNN targets are database
/// objects while the query `Q` is ad-hoc, and RkNN reverses the roles.
#[derive(Debug, Clone, Copy)]
pub enum ObjRef<'a> {
    /// An object stored in the database (excluded from its own
    /// domination count).
    Db(ObjectId),
    /// An external object.
    External(&'a UncertainObject),
}

impl<'a> ObjRef<'a> {
    /// Resolves to the underlying object.
    pub fn resolve(&self, db: &'a Database) -> &'a UncertainObject {
        match self {
            ObjRef::Db(id) => db.get(*id),
            ObjRef::External(o) => o,
        }
    }

    /// The database id, when the reference points into the database.
    pub fn id(&self) -> Option<ObjectId> {
        match self {
            ObjRef::Db(id) => Some(*id),
            ObjRef::External(_) => None,
        }
    }
}

impl From<ObjectId> for ObjRef<'_> {
    fn from(id: ObjectId) -> Self {
        ObjRef::Db(id)
    }
}

impl<'a> From<&'a UncertainObject> for ObjRef<'a> {
    fn from(o: &'a UncertainObject) -> Self {
        ObjRef::External(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udb_geometry::Point;

    #[test]
    fn defaults_are_paper_settings() {
        let c = IdcaConfig::default();
        assert_eq!(c.norm, LpNorm::L2);
        assert_eq!(c.criterion, DominationCriterion::Optimal);
        assert_eq!(c.max_iterations, 8);
    }

    #[test]
    fn predicate_k() {
        assert_eq!(Predicate::FullPdf.k(), None);
        assert_eq!(Predicate::CountBelow { k: 5 }.k(), Some(5));
        assert_eq!(Predicate::Threshold { k: 3, tau: 0.5 }.k(), Some(3));
    }

    #[test]
    fn refine_goal_builds_matching_predicate() {
        assert_eq!(
            RefineGoal::threshold(3, 0.5).predicate(),
            Predicate::Threshold { k: 3, tau: 0.5 }
        );
        assert_eq!(
            RefineGoal::count_below(1).predicate(),
            Predicate::CountBelow { k: 1 }
        );
        assert_eq!(RefineGoal::threshold(3, 0.5).k, 3);
        assert_eq!(RefineGoal::count_below(2).tau, None);
    }

    #[test]
    fn objref_resolution() {
        let db = Database::from_objects(vec![UncertainObject::certain(Point::from([1.0, 2.0]))]);
        let r: ObjRef = ObjectId(0).into();
        assert_eq!(r.id(), Some(ObjectId(0)));
        assert_eq!(r.resolve(&db).mean(), Point::from([1.0, 2.0]));
        let ext = UncertainObject::certain(Point::from([5.0, 5.0]));
        let e: ObjRef = (&ext).into();
        assert_eq!(e.id(), None);
        assert_eq!(e.resolve(&db).mean(), Point::from([5.0, 5.0]));
    }
}
