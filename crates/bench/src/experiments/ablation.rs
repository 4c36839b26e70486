//! Ablations of three design choices: UGF vs two regular generating
//! functions (§IV-D), the kd-split strategy, and UGF truncation (§VI).

use udb_core::{IdcaConfig, ObjRef, Predicate, Refiner};
use udb_domination::{pdom_bounds_vs_fixed, DominationCriterion};
use udb_genfunc::{two_gf_bounds, Ugf};
use udb_geometry::LpNorm;
use udb_object::{Decomposition, SplitStrategy};

use crate::harness::{time, Scale, Table};

/// UGF vs the two-regular-GF bounding scheme (the technical-report claim
/// summarized in §IV-D): per decomposition depth, the average accumulated
/// uncertainty of the domination-count bounds produced from the *same*
/// per-object probability bounds.
pub fn ugf_vs_two_gf(scale: &Scale) -> Table {
    let (db, cfg) = scale.synthetic_db();
    let qs = scale.query_set(&db, &cfg);
    let depths = scale.max_iterations.min(5);
    let mut table = Table::new(
        "ablation_ugf_vs_two_gf",
        "Uncertainty of UGF vs two-regular-GF bounds per decomposition depth",
        "depth",
        vec!["ugf_uncertainty".into(), "two_gf_uncertainty".into()],
    );
    for depth in 0..=depths {
        let mut ugf_unc = 0.0;
        let mut two_unc = 0.0;
        let mut measurements = 0usize;
        for (r, b_id) in qs.iter() {
            let refiner = Refiner::new(
                &db,
                ObjRef::Db(b_id),
                ObjRef::External(r),
                IdcaConfig::default(),
                Predicate::FullPdf,
            );
            let influence: Vec<_> = refiner.influence_ids().collect();
            if influence.is_empty() {
                continue;
            }
            // per-object bounds with B, R undecomposed and each A at the
            // given depth — exactly the Lemma 3 configuration
            let b_obj = db.get(b_id);
            let mut lbs = Vec::with_capacity(influence.len());
            let mut ubs = Vec::with_capacity(influence.len());
            for id in &influence {
                let a = db.get(*id);
                let mut dec = Decomposition::new(a.pdf());
                dec.expand_to(a.pdf(), depth);
                let bounds = pdom_bounds_vs_fixed(
                    dec.partitions(),
                    b_obj.mbr(),
                    r.mbr(),
                    LpNorm::L2,
                    DominationCriterion::Optimal,
                );
                lbs.push(bounds.lower);
                ubs.push(bounds.upper);
            }
            let mut ugf = Ugf::new(None);
            for (l, u) in lbs.iter().zip(ubs.iter()) {
                ugf.multiply(*l, *u);
            }
            ugf_unc += ugf.count_bounds(influence.len() + 1).uncertainty();
            two_unc += two_gf_bounds(&lbs, &ubs).uncertainty();
            measurements += 1;
        }
        if measurements == 0 {
            continue;
        }
        table.push(
            depth as f64,
            vec![ugf_unc / measurements as f64, two_unc / measurements as f64],
        );
    }
    table
}

/// kd-tree split-strategy ablation: accumulated uncertainty per iteration
/// for round-robin vs longest-extent axis selection.
pub fn split_strategy(scale: &Scale) -> Table {
    let (db, cfg) = scale.synthetic_db();
    let qs = scale.query_set(&db, &cfg);
    let iters = scale.max_iterations;
    let mut sums = vec![[0.0f64; 2]; iters + 1];
    for (r, b) in qs.iter() {
        for (slot, strat) in [SplitStrategy::LongestExtent, SplitStrategy::RoundRobin]
            .iter()
            .enumerate()
        {
            let mut refiner = Refiner::new(
                &db,
                ObjRef::Db(b),
                ObjRef::External(r),
                IdcaConfig {
                    split_strategy: *strat,
                    max_iterations: iters,
                    uncertainty_target: 0.0,
                    ..Default::default()
                },
                Predicate::FullPdf,
            );
            sums[0][slot] += refiner.snapshot().uncertainty();
            for it in 1..=iters {
                refiner.step();
                sums[it][slot] += refiner.snapshot().uncertainty();
            }
        }
    }
    let n = qs.len() as f64;
    let mut table = Table::new(
        "ablation_split_strategy",
        "Uncertainty per iteration: longest-extent vs round-robin splits",
        "iteration",
        vec!["longest_extent".into(), "round_robin".into()],
    );
    for (it, s) in sums.iter().enumerate() {
        table.push(it as f64, vec![s[0] / n, s[1] / n]);
    }
    table
}

/// UGF truncation ablation (§VI): full-PDF refinement vs the
/// `O(k²·|Cand|)` truncated variant, per `k`.
pub fn truncation(scale: &Scale) -> Table {
    let (db, cfg) = scale.synthetic_db();
    let qs = scale.query_set(&db, &cfg);
    let nq = qs.len() as f64;
    let mut table = Table::new(
        "ablation_truncation",
        "Runtime: full PDF vs k-truncated UGF refinement",
        "k",
        vec!["full_pdf_sec".into(), "truncated_sec".into()],
    );
    for k in [1usize, 5, 10] {
        let mut full_t = 0.0;
        let mut trunc_t = 0.0;
        for (r, b) in qs.iter() {
            let mk = |pred| {
                Refiner::new(
                    &db,
                    ObjRef::Db(b),
                    ObjRef::External(r),
                    IdcaConfig {
                        max_iterations: scale.max_iterations,
                        uncertainty_target: 0.0,
                        ..Default::default()
                    },
                    pred,
                )
            };
            let (tf, _) = time(|| mk(Predicate::FullPdf).run());
            let (tt, _) = time(|| mk(Predicate::CountBelow { k }).run());
            full_t += tf;
            trunc_t += tt;
        }
        table.push(k as f64, vec![full_t / nq, trunc_t / nq]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ugf_never_looser_than_two_gf() {
        let t = ugf_vs_two_gf(&Scale::smoke());
        for (depth, vals) in &t.rows {
            assert!(
                vals[0] <= vals[1] + 1e-9,
                "UGF {} > two-GF {} at depth {depth}",
                vals[0],
                vals[1]
            );
        }
    }

    #[test]
    fn split_strategy_produces_rows() {
        let t = split_strategy(&Scale::smoke());
        assert_eq!(t.rows.len(), Scale::smoke().max_iterations + 1);
    }

    #[test]
    fn truncation_runs() {
        let t = truncation(&Scale::smoke());
        assert_eq!(t.rows.len(), 3);
    }
}
