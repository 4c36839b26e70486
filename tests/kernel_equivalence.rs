//! The shared optimal-criterion kernel against the `f64::max` formulas
//! it replaced: every entry point — `DominationCriterion::classify`,
//! `dominates`, `never_dominates`, a fresh or retargeted
//! `PairClassifier`, and the criterion-table entry point (the
//! per-dimension `dim_terms` added in dimension order, then
//! `decide_sums`) — must agree with the reference's decision class.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use udb_domination::{DecisionClass, DominationCriterion, OptimalSums, PairClassifier};
use udb_geometry::{Interval, LpNorm, Rect};

/// The criterion formulas as written before the shared kernel, with
/// `f64::max` throughout: the oracle the kernel must match bit for
/// bit.
mod reference {
    use udb_domination::DecisionClass;
    use udb_geometry::{LpNorm, Rect};

    /// The robustness margin of `udb_domination::spatial`.
    const ROBUST_MARGIN: f64 = 1e-9;

    /// The class of a decision and its robustness.
    fn class(dominates: bool, never: bool, robust: bool) -> DecisionClass {
        match (dominates, never, robust) {
            (true, _, true) => DecisionClass::RobustDominate,
            (true, _, false) => DecisionClass::OpenDominate,
            (false, true, true) => DecisionClass::RobustNever,
            (false, true, false) => DecisionClass::OpenNever,
            (false, false, _) => DecisionClass::Undecided,
        }
    }

    fn decide(dom_sum: f64, nd_sum: f64, scale: f64) -> DecisionClass {
        let margin = ROBUST_MARGIN * scale.max(f64::MIN_POSITIVE);
        if dom_sum < 0.0 {
            class(true, false, dom_sum < -margin)
        } else if nd_sum <= 0.0 {
            class(false, true, nd_sum < -margin)
        } else {
            DecisionClass::Undecided
        }
    }

    pub fn classify_optimal(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> DecisionClass {
        let mut dom_sum = 0.0;
        let mut nd_sum = 0.0;
        let mut scale = 0.0;
        for i in 0..a.dims() {
            let (ai, bi, ri) = (a.dim(i), b.dim(i), r.dim(i));
            let dom_term = |rp: f64| norm.pow(ai.max_dist(rp)) - norm.pow(bi.min_dist(rp));
            let nd_term = |rp: f64| norm.pow(bi.max_dist(rp)) - norm.pow(ai.min_dist(rp));
            let (d_lo, d_hi) = (dom_term(ri.lo()), dom_term(ri.hi()));
            let (n_lo, n_hi) = (nd_term(ri.lo()), nd_term(ri.hi()));
            dom_sum += d_lo.max(d_hi);
            nd_sum += n_lo.max(n_hi);
            scale += d_lo.abs().max(d_hi.abs()).max(n_lo.abs()).max(n_hi.abs());
        }
        decide(dom_sum, nd_sum, scale)
    }

    pub fn dominates_optimal(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
        let mut sum = 0.0;
        for i in 0..a.dims() {
            let (ai, bi, ri) = (a.dim(i), b.dim(i), r.dim(i));
            let term = |rp: f64| norm.pow(ai.max_dist(rp)) - norm.pow(bi.min_dist(rp));
            sum += term(ri.lo()).max(term(ri.hi()));
        }
        sum < 0.0
    }

    pub fn never_dominates_optimal(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
        let mut sum = 0.0;
        for i in 0..a.dims() {
            let (ai, bi, ri) = (a.dim(i), b.dim(i), r.dim(i));
            let term = |rp: f64| norm.pow(bi.max_dist(rp)) - norm.pow(ai.min_dist(rp));
            sum += term(ri.lo()).max(term(ri.hi()));
        }
        sum <= 0.0
    }

    /// `(MinDist(X, R)^p, MaxDist(X, R)^p)` through the rectangle API.
    fn min_max_pow(x: &Rect, r: &Rect, norm: LpNorm) -> (f64, f64) {
        match norm {
            LpNorm::LInf => (
                norm.pow(x.min_dist_rect(r, norm)),
                norm.pow(x.max_dist_rect(r, norm)),
            ),
            _ => {
                let min = norm.aggregate((0..x.dims()).map(|i| {
                    let (xi, ri) = (x.dim(i), r.dim(i));
                    let gap = if xi.hi() < ri.lo() {
                        ri.lo() - xi.hi()
                    } else if ri.hi() < xi.lo() {
                        xi.lo() - ri.hi()
                    } else {
                        0.0
                    };
                    norm.pow(gap)
                }));
                let max = norm.aggregate((0..x.dims()).map(|i| {
                    let (xi, ri) = (x.dim(i), r.dim(i));
                    norm.pow((xi.hi() - ri.lo()).abs().max((ri.hi() - xi.lo()).abs()))
                }));
                (min, max)
            }
        }
    }

    pub fn classify_minmax(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> DecisionClass {
        let (min_ar, max_ar) = min_max_pow(a, r, norm);
        let (min_br, max_br) = min_max_pow(b, r, norm);
        let dominates = max_ar < min_br;
        let never = !dominates && max_br <= min_ar;
        if dominates {
            let margin = ROBUST_MARGIN * max_ar.abs().max(min_br.abs()).max(f64::MIN_POSITIVE);
            class(true, false, min_br - max_ar > margin)
        } else if never {
            let margin = ROBUST_MARGIN * max_br.abs().max(min_ar.abs()).max(f64::MIN_POSITIVE);
            class(false, true, min_ar - max_br > margin)
        } else {
            DecisionClass::Undecided
        }
    }

    pub fn dominates_minmax(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
        min_max_pow(a, r, norm).1 < min_max_pow(b, r, norm).0
    }

    pub fn never_dominates_minmax(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
        min_max_pow(b, r, norm).1 <= min_max_pow(a, r, norm).0
    }
}

/// The per-dimension shares of `a` against `pc`'s pair, added in
/// dimension order as the refiner's criterion tables add them.
fn table_sums(pc: &PairClassifier, a: &Rect) -> OptimalSums {
    let mut sums = OptimalSums::ZERO;
    for (d, &a_d) in a.intervals().iter().enumerate() {
        sums.add(pc.dim_terms(d, a_d));
    }
    sums
}

/// The criterion-table entry point: summed shares, then the decision
/// (with its NaN fallback to the kernel).
fn table_decision(pc: &PairClassifier, a: &Rect) -> DecisionClass {
    pc.decide_sums(table_sums(pc, a), a.intervals())
}

/// Asserts that every entry point — the criterion methods, a fresh
/// pair classifier, a retargeted one and (optimal criterion) the
/// criterion-table entry point — equals the reference.
fn assert_matches_reference(a: &Rect, b: &Rect, r: &Rect) {
    let cases = [
        (DominationCriterion::Optimal, LpNorm::L1),
        (DominationCriterion::Optimal, LpNorm::L2),
        (DominationCriterion::Optimal, LpNorm::P(3)),
        (DominationCriterion::MinMax, LpNorm::L1),
        (DominationCriterion::MinMax, LpNorm::L2),
        (DominationCriterion::MinMax, LpNorm::P(3)),
        (DominationCriterion::MinMax, LpNorm::LInf),
    ];
    for (criterion, norm) in cases {
        let (expected, dom, never) = match criterion {
            DominationCriterion::Optimal => (
                reference::classify_optimal(a, b, r, norm),
                reference::dominates_optimal(a, b, r, norm),
                reference::never_dominates_optimal(a, b, r, norm),
            ),
            DominationCriterion::MinMax => (
                reference::classify_minmax(a, b, r, norm),
                reference::dominates_minmax(a, b, r, norm),
                reference::never_dominates_minmax(a, b, r, norm),
            ),
        };
        let ctx = || format!("{criterion:?}/{norm:?} a={a:?} b={b:?} r={r:?}");
        assert_eq!(criterion.classify(a, b, r, norm), expected, "{}", ctx());
        assert_eq!(criterion.dominates(a, b, r, norm), dom, "{}", ctx());
        assert_eq!(criterion.never_dominates(a, b, r, norm), never, "{}", ctx());
        assert_eq!(
            PairClassifier::new(b, r, criterion, norm).classify(a),
            expected,
            "{}",
            ctx()
        );
        // a classifier built for another pair, then pointed at (b, r)
        let mut pc = PairClassifier::new(a, a, criterion, norm);
        pc.retarget(b, r);
        assert_eq!(pc.classify(a), expected, "{}", ctx());
        if criterion == DominationCriterion::Optimal {
            assert_eq!(table_decision(&pc, a), expected, "table: {}", ctx());
            assert_eq!(
                table_decision(&pc, a),
                pc.classify_dims(a.intervals()),
                "table vs kernel: {}",
                ctx()
            );
        }
    }
}

/// One interval of a mixed-shape generator: degenerate, on a coarse
/// grid (so endpoints of different boxes coincide: touching and
/// nested intervals), continuous, or nested inside `outer`, at a
/// magnitude between 1 and 1e300.
fn arb_interval(rng: &mut StdRng, outer: Option<Interval>) -> Interval {
    const SCALES: [f64; 7] = [1.0, 1e3, 1e150, 1e154, 1e155, 1e200, 1e300];
    let s = SCALES[rng.gen_range(0..SCALES.len())];
    let grid = |rng: &mut StdRng| s * f64::from(rng.gen_range(-8i32..=8)) / 4.0;
    match rng.gen_range(0..4) {
        0 => Interval::point(grid(rng)),
        1 => {
            let (x, y) = (grid(rng), grid(rng));
            Interval::new(x.min(y), x.max(y))
        }
        2 => {
            let lo = s * rng.gen_range(-1.0..1.0);
            Interval::new(lo, lo + s * rng.gen_range(0.0..1.0))
        }
        _ => match outer {
            Some(o) => {
                let at = |u: f64| o.lo() + (o.hi() - o.lo()) * u;
                let (u, v): (f64, f64) = (rng.gen_range(0.0..=1.0), rng.gen_range(0.0..=1.0));
                Interval::new(at(u.min(v)).max(o.lo()), at(u.max(v)).min(o.hi()))
            }
            None => Interval::point(grid(rng)),
        },
    }
}

/// `x` shifted by a relative `1e-12..1e-6` in every dimension: a near
/// tie with `x`, whose decision sums straddle the robustness margin.
fn nudged(rng: &mut StdRng, x: &Rect) -> Rect {
    Rect::new(
        x.intervals()
            .iter()
            .map(|iv| {
                let rel = 10f64.powf(rng.gen_range(-12.0..-6.0)) * rng.gen_range(-1.0..1.0);
                let d = iv.lo().abs().max(iv.hi().abs()) * rel;
                Interval::new(iv.lo() + d, iv.hi() + d)
            })
            .collect::<Vec<_>>(),
    )
}

#[test]
fn overflowing_terms_match_reference() {
    // both powered distances overflow at one endpoint of R (`∞ − ∞`):
    // the NaN sits in the first, then in the second operand of the
    // per-dimension maximum, in every term family
    let big = |lo: f64, hi: f64| Rect::new(vec![Interval::new(lo, hi)]);
    let r = big(-1e300, 1e300);
    for x in [1e300, -1e300] {
        let p = big(x, x);
        assert_matches_reference(&p, &p, &r);
        assert_matches_reference(&p, &big(0.0, 1.0), &r);
        assert_matches_reference(&big(0.0, 1.0), &p, &r);
        let wide = Rect::new(vec![Interval::new(x, x), Interval::new(-1.0, 1.0)]);
        let r2 = Rect::new(vec![Interval::new(-1e300, 1e300), Interval::new(0.0, 2.0)]);
        assert_matches_reference(&wide, &wide, &r2);
    }
    // the table entry point's NaN fallback is really taken here: the
    // summed shares are NaN, yet the decision equals the reference
    let p = big(1e300, 1e300);
    let pc = PairClassifier::new(&big(0.0, 1.0), &r, DominationCriterion::Optimal, LpNorm::L2);
    let sums = table_sums(&pc, &p);
    assert!((sums.dom + sums.nd + sums.scale).is_nan(), "{sums:?}");
    assert_eq!(
        table_decision(&pc, &p),
        reference::classify_optimal(&p, &big(0.0, 1.0), &r, LpNorm::L2)
    );
}

proptest! {
    /// The shared kernel's class equals the `f64::max` reference
    /// formulas', for both criteria, L1/L2/P(3) (and L∞ under
    /// MinMax), 1–6 dimensions (the slice fallback included),
    /// degenerate, touching, nested and near-tied boxes and magnitudes
    /// up to 1e300.
    #[test]
    fn prop_kernel_matches_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dims in 1..=6 {
            for _ in 0..16 {
                let r: Vec<Interval> = (0..dims).map(|_| arb_interval(&mut rng, None)).collect();
                let a: Vec<Interval> = r.iter().map(|&ri| arb_interval(&mut rng, Some(ri))).collect();
                let b: Vec<Interval> = r.iter().map(|&ri| arb_interval(&mut rng, Some(ri))).collect();
                let (a, b, r) = (Rect::new(a), Rect::new(b), Rect::new(r));
                let near = nudged(&mut rng, &a);
                assert_matches_reference(&a, &near, &r);
                assert_matches_reference(&a, &b, &r);
                assert_matches_reference(&b, &a, &r);
                assert_matches_reference(&r, &a, &b);
            }
        }
    }

    /// The criterion-table entry point on table-shaped inputs: boxes
    /// built from a few shared intervals per dimension (as kd-splits
    /// leave them), so one pair classifier's shares serve many boxes.
    /// Every box's table decision equals the kernel's and the
    /// reference's, for L1/L2/P(3), 1–6 dimensions,
    /// degenerate and touching intervals and magnitudes up to 1e300.
    #[test]
    fn prop_table_entry_point_matches_kernel(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        for dims in 1..=6 {
            let r: Vec<Interval> = (0..dims).map(|_| arb_interval(&mut rng, None)).collect();
            let b: Vec<Interval> = r.iter().map(|&ri| arb_interval(&mut rng, Some(ri))).collect();
            // three candidate intervals per dimension, shared by the boxes
            let pool: Vec<Vec<Interval>> = r
                .iter()
                .map(|&ri| (0..3).map(|_| arb_interval(&mut rng, Some(ri))).collect())
                .collect();
            let (b, r) = (Rect::new(b), Rect::new(r));
            for norm in [LpNorm::L1, LpNorm::L2, LpNorm::P(3)] {
                let pc = PairClassifier::new(&b, &r, DominationCriterion::Optimal, norm);
                for _ in 0..8 {
                    let a = Rect::new(
                        pool.iter().map(|ivs| ivs[rng.gen_range(0..3)]).collect::<Vec<_>>(),
                    );
                    let expected = reference::classify_optimal(&a, &b, &r, norm);
                    prop_assert_eq!(table_decision(&pc, &a), expected);
                    prop_assert_eq!(pc.classify_dims(a.intervals()), expected);
                }
            }
        }
    }
}
