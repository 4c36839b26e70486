//! Early-exit candidate refinement.
//!
//! Query-level drivers ([`refine_each`], [`refine_top_m`]) run one
//! refiner per candidate and retire each candidate the moment its query
//! outcome is decided (via [`DomCountSnapshot::decided`]), freeing its
//! factor cache and arena immediately. [`crate::Engine`] drives its
//! threshold and top-`m` queries through these paths.
//!
//! Candidates refine independently, so with more than one
//! [`IdcaConfig::candidate_threads`](crate::IdcaConfig::candidate_threads)
//! lane their refinement fans out over the shared
//! [`crate::parallel::WorkerPool`]
//! ([`crate::parallel::PoolHandle::fan_each`]): whole candidates for
//! threshold queries, one round of `step()`/`snapshot()` calls at a time
//! for top-`m`, whose cross-candidate decisions merge on the calling
//! thread between rounds. Either way the results are bit-identical to
//! the sequential drivers at every lane count. Candidate jobs may nest
//! pair-loop scopes of the same pool
//! ([`IdcaConfig::snapshot_threads`](crate::IdcaConfig::snapshot_threads));
//! caller participation makes the candidates × pairs nesting
//! deadlock-free.

use udb_object::ObjectId;

use super::{DomCountSnapshot, Refiner};
use crate::parallel::PoolHandle;
use crate::queries::ThresholdResult;

/// Converts a final snapshot into a query result; `None` when the
/// candidate's predicate probability is certainly zero.
pub(crate) fn threshold_result(id: ObjectId, snap: &DomCountSnapshot) -> Option<ThresholdResult> {
    let (lo, hi) = snap.predicate_cdf.expect("count predicate produces CDF");
    (hi > 0.0).then_some(ThresholdResult {
        id,
        prob_lower: lo,
        prob_upper: hi,
        iterations: snap.iteration,
    })
}

/// The candidate lanes of a driver (the largest
/// [`IdcaConfig::candidate_threads`](crate::IdcaConfig::candidate_threads)
/// among the candidates) and the pool they fan over (the first
/// candidate's).
fn lanes(candidates: &[(ObjectId, Refiner<'_>)]) -> (usize, PoolHandle) {
    let lanes = candidates
        .iter()
        .map(|(_, r)| r.cfg.candidate_threads)
        .max()
        .unwrap_or(1);
    let pool = candidates
        .first()
        .map(|(_, r)| r.pool.clone())
        .unwrap_or_default();
    (lanes, pool)
}

/// Early-exit refinement of a candidate set: each candidate's refiner
/// runs to its own stop ([`Refiner::run`]: a decided threshold
/// predicate, the iteration budget or uncertainty target, or
/// exhaustion) and is dropped at once, freeing its factor cache and
/// open-list arena. Retirement depends on the candidate alone, so the
/// candidates fan out over
/// [`IdcaConfig::candidate_threads`](crate::IdcaConfig::candidate_threads)
/// lanes of the engines' shared [`crate::parallel::WorkerPool`]
/// ([`crate::parallel::PoolHandle::fan_each`]); at one lane they run
/// inline, in order. Each candidate's operation sequence is
/// [`Refiner::run`]'s at every lane count, so results are bit-identical.
///
/// Candidates whose predicate probability is certainly zero are dropped,
/// and the output is sorted by id.
pub fn refine_each(candidates: Vec<(ObjectId, Refiner<'_>)>) -> Vec<ThresholdResult> {
    let (lanes, pool) = lanes(&candidates);
    let mut jobs: Vec<(ObjectId, Option<Refiner<'_>>, Option<ThresholdResult>)> = candidates
        .into_iter()
        .map(|(id, refiner)| (id, Some(refiner), None))
        .collect();
    pool.fan_each(lanes, &mut jobs, |(id, refiner, out)| {
        let mut refiner = refiner.take().expect("each candidate runs once");
        *out = threshold_result(*id, &refiner.run());
    });
    let mut done: Vec<ThresholdResult> = jobs.into_iter().filter_map(|(_, _, out)| out).collect();
    done.sort_by_key(|r| r.id);
    done
}

/// Lock-step refinement for a top-`m` query (highest `P(DomCount < k)`):
/// besides each refiner's own stop criterion, a candidate retires early
/// once at least `m` rivals' lower bounds exceed its upper bound — it is
/// then certainly outside the top `m`, and since bounds only tighten it
/// stays outside, so the returned top-`m` set equals the
/// run-to-convergence path's while the also-rans stop burning
/// iterations. Returns the top `m` by bound midpoint (ties and overlaps
/// are visible in the returned bounds).
///
/// Each round's per-candidate `step()`/`snapshot()` calls fan over
/// [`IdcaConfig::candidate_threads`](crate::IdcaConfig::candidate_threads)
/// lanes of the worker pool, like [`refine_each`]; the cross-candidate
/// bound comparison between rounds always runs on the calling thread, so
/// results are bit-identical at any lane count.
pub fn refine_top_m(candidates: Vec<(ObjectId, Refiner<'_>)>, m: usize) -> Vec<ThresholdResult> {
    assert!(m >= 1, "m must be positive");
    struct Cand<'a> {
        id: ObjectId,
        /// `None` once retired (state freed; `snap` keeps the bounds).
        refiner: Option<Refiner<'a>>,
        /// `None` only before the initial snapshot round.
        snap: Option<DomCountSnapshot>,
        stalled: bool,
    }
    let (lanes, pool) = lanes(&candidates);
    let mut cands: Vec<Cand<'_>> = candidates
        .into_iter()
        .map(|(id, refiner)| Cand {
            id,
            refiner: Some(refiner),
            snap: None,
            stalled: false,
        })
        .collect();
    pool.fan_each(lanes, &mut cands, |c| {
        if let Some(refiner) = &mut c.refiner {
            c.snap = Some(refiner.snapshot());
        }
    });
    loop {
        for c in &mut cands {
            if let Some(refiner) = &c.refiner {
                if c.stalled || refiner.converged(c.snap.as_ref().expect("snapshot completed")) {
                    c.refiner = None;
                }
            }
        }
        // cross-candidate early exit: certainly outside the top m
        let lowers: Vec<f64> = cands.iter().map(|c| cand_cdf(c.snap.as_ref()).0).collect();
        for (i, c) in cands.iter_mut().enumerate() {
            if c.refiner.is_none() {
                continue;
            }
            let hi = cand_cdf(c.snap.as_ref()).1;
            let beaten_by = lowers
                .iter()
                .enumerate()
                .filter(|&(j, &lo)| j != i && lo > hi)
                .count();
            if beaten_by >= m {
                c.refiner = None;
            }
        }
        if cands.iter().all(|c| c.refiner.is_none()) {
            break;
        }
        // one lock-step round over the still-active candidates (retired
        // entries keep their final snapshot; their job is a no-op)
        pool.fan_each(lanes, &mut cands, |c| {
            if let Some(refiner) = &mut c.refiner {
                if refiner.step() {
                    c.snap = Some(refiner.snapshot());
                } else {
                    c.stalled = true;
                }
            }
        });
    }
    let mut results: Vec<ThresholdResult> = cands
        .into_iter()
        .filter_map(|c| threshold_result(c.id, c.snap.as_ref().expect("snapshot completed")))
        .collect();
    results.sort_by(|a, b| {
        (b.prob_lower + b.prob_upper)
            .partial_cmp(&(a.prob_lower + a.prob_upper))
            .expect("NaN probability")
            // deterministic tie-break: candidate order must not decide
            // the truncation boundary (the scan path ties the same way)
            .then_with(|| a.id.cmp(&b.id))
    });
    results.truncate(m);
    results
}

/// The predicate CDF of a candidate snapshot (top-`m` driver helper).
fn cand_cdf(snap: Option<&DomCountSnapshot>) -> (f64, f64) {
    snap.expect("snapshot round completed")
        .predicate_cdf
        .expect("count predicate")
}
