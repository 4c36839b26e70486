//! Probabilistic domination bounds (Lemmas 1–2 of the paper).
//!
//! Given disjoint decompositions `A`, `B`, `R` of three uncertain objects,
//! the probability `PDom(A,B,R)` that `A` is closer to `R` than `B` is
//! bounded from below by accumulating the masses of all partition triples
//! `(A', B', R')` for which *complete* spatial domination holds
//! (Lemma 1), and from above by `1 − PDomLB(B,A,R)` (Lemma 2). Both sides
//! of the triple loop are evaluated in one pass.

use udb_geometry::LpNorm;
use udb_object::Partition;

use crate::spatial::{DecisionClass, DominationCriterion, PairClassifier};

/// Conservative (`lower`) and progressive (`upper`) bounds for
/// `PDom(A, B, R)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PDomBounds {
    /// `PDomLB(A,B,R)`: in at least this fraction of possible worlds `A`
    /// dominates `B`.
    pub lower: f64,
    /// `PDomUB(A,B,R) = 1 − PDomLB(B,A,R)`.
    pub upper: f64,
}

impl PDomBounds {
    /// The vacuous bounds `[0, 1]`.
    pub const UNKNOWN: PDomBounds = PDomBounds {
        lower: 0.0,
        upper: 1.0,
    };

    /// Certain domination.
    pub const ONE: PDomBounds = PDomBounds {
        lower: 1.0,
        upper: 1.0,
    };

    /// Certain non-domination.
    pub const ZERO: PDomBounds = PDomBounds {
        lower: 0.0,
        upper: 0.0,
    };

    /// Width of the bound interval (the per-relation uncertainty).
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether the bounds have collapsed to (numerically) a point.
    pub fn is_decided(&self, eps: f64) -> bool {
        self.width() <= eps
    }

    /// Scales the bounds by an existence probability `e`: if `A` exists
    /// with probability `e` and dominates with conditional probability in
    /// `[lower, upper]`, the unconditional probability lies in
    /// `[e·lower, e·upper]` (a non-existing `A` never dominates).
    pub fn scale_by_existence(self, e: f64) -> PDomBounds {
        debug_assert!((0.0..=1.0).contains(&e));
        PDomBounds {
            lower: self.lower * e,
            upper: self.upper * e,
        }
    }
}

/// Computes [`PDomBounds`] from explicit partition lists (Lemmas 1–2).
///
/// Partition masses of each object must sum to (approximately) one and the
/// partitions of one object must be pairwise disjoint; both hold for
/// partitions produced by [`udb_object::Decomposition`].
///
/// Complexity: `O(|A| · |B| · |R|)` spatial tests.
pub fn pdom_bounds(
    a_parts: &[Partition],
    b_parts: &[Partition],
    r_parts: &[Partition],
    norm: LpNorm,
    criterion: DominationCriterion,
) -> PDomBounds {
    let mut lb = 0.0; // PDomLB(A, B, R)
    let mut never = 0.0; // mass of combinations where A certainly does not dominate
    for r in r_parts {
        for b in b_parts {
            let wrb = r.mass * b.mass;
            for a in a_parts {
                let w = wrb * a.mass;
                match criterion.classify(&a.mbr, &b.mbr, &r.mbr, norm) {
                    DecisionClass::RobustDominate | DecisionClass::OpenDominate => lb += w,
                    // tie-correct weak complement: strictly tighter than
                    // Lemma 2's `1 − PDomLB(B,A,R)` and still conservative,
                    // because `Dom` is strict (Definition 2)
                    DecisionClass::RobustNever | DecisionClass::OpenNever => never += w,
                    DecisionClass::Undecided => {}
                }
            }
        }
    }
    PDomBounds {
        lower: lb.min(1.0),
        upper: (1.0 - never).max(0.0),
    }
}

/// [`PDomBounds`] for a decomposed `A` against *fixed* (undecomposed)
/// regions `B'` and `R'` — the Lemma 3/5 configuration used inside the
/// IDCA inner loop, where `B` and `R` are pinned to one partition pair so
/// that the per-object bounds stay mutually independent.
///
/// Classifies every partition against one [`PairClassifier`] for the
/// fixed pair (the same decisions as `dominates`, then
/// `never_dominates`).
pub fn pdom_bounds_vs_fixed(
    a_parts: &[Partition],
    b_region: &udb_geometry::Rect,
    r_region: &udb_geometry::Rect,
    norm: LpNorm,
    criterion: DominationCriterion,
) -> PDomBounds {
    let pc = PairClassifier::new(b_region, r_region, criterion, norm);
    let mut lb = 0.0;
    let mut never = 0.0;
    for a in a_parts {
        match pc.classify(&a.mbr) {
            DecisionClass::RobustDominate | DecisionClass::OpenDominate => lb += a.mass,
            DecisionClass::RobustNever | DecisionClass::OpenNever => never += a.mass,
            DecisionClass::Undecided => {}
        }
    }
    PDomBounds {
        lower: lb.min(1.0),
        upper: (1.0 - never).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udb_geometry::{Interval, Point, Rect};
    use udb_pdf::Pdf;

    fn part(rect: Rect, mass: f64) -> Partition {
        Partition { mbr: rect, mass }
    }

    fn point_part(x: f64, y: f64) -> Vec<Partition> {
        vec![part(Rect::from_point(&Point::from([x, y])), 1.0)]
    }

    fn seg(lo: f64, hi: f64) -> Rect {
        Rect::new(vec![Interval::new(lo, hi), Interval::point(0.0)])
    }

    /// Monte-Carlo estimate of PDom for uniform densities over the rects.
    fn mc_pdom(a: &Rect, b: &Rect, r: &Rect, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (pa, pb, pr) = (
            Pdf::uniform(a.clone()),
            Pdf::uniform(b.clone()),
            Pdf::uniform(r.clone()),
        );
        let mut hits = 0usize;
        for _ in 0..n {
            let (sa, sb, sr) = (
                pa.sample(&mut rng),
                pb.sample(&mut rng),
                pr.sample(&mut rng),
            );
            if LpNorm::L2.dist(&sa, &sr) < LpNorm::L2.dist(&sb, &sr) {
                hits += 1;
            }
        }
        hits as f64 / n as f64
    }

    #[test]
    fn complete_domination_gives_tight_one() {
        // A clearly between R and B
        let a = point_part(1.0, 0.0);
        let b = point_part(10.0, 0.0);
        let r = point_part(0.0, 0.0);
        let bounds = pdom_bounds(&a, &b, &r, LpNorm::L2, DominationCriterion::Optimal);
        assert_eq!(bounds, PDomBounds::ONE);
        // Corollary 2: the reverse relation is certainly zero
        let rev = pdom_bounds(&b, &a, &r, LpNorm::L2, DominationCriterion::Optimal);
        assert_eq!(rev, PDomBounds::ZERO);
    }

    #[test]
    fn undecomposed_overlap_is_unknown() {
        // identical regions: nothing decided at depth 0
        let a = vec![part(seg(0.0, 1.0), 1.0)];
        let b = vec![part(seg(0.0, 1.0), 1.0)];
        let r = vec![part(seg(2.0, 3.0), 1.0)];
        let bounds = pdom_bounds(&a, &b, &r, LpNorm::L2, DominationCriterion::Optimal);
        assert_eq!(bounds, PDomBounds::UNKNOWN);
    }

    /// The 1-D construction where the true PDom is exactly 1/2:
    /// B = {0}, A = {2}, R uniform on [0, 2] — A wins iff r > 1.
    #[test]
    fn bounds_bracket_true_half_and_tighten() {
        let a_rect = Rect::from_point(&Point::from([2.0, 0.0]));
        let b_rect = Rect::from_point(&Point::from([0.0, 0.0]));
        let r_rect = seg(0.0, 2.0);
        let r_pdf = Pdf::uniform(r_rect.clone());
        let a = vec![part(a_rect.clone(), 1.0)];
        let b = vec![part(b_rect.clone(), 1.0)];

        let mut r_dec = udb_object::Decomposition::new(&r_pdf);
        let mut prev = PDomBounds::UNKNOWN;
        for depth in 0..8 {
            let bounds = pdom_bounds(
                &a,
                &b,
                r_dec.partitions(),
                LpNorm::L2,
                DominationCriterion::Optimal,
            );
            // brackets the truth
            assert!(bounds.lower <= 0.5 + 1e-9, "depth {depth}: {bounds:?}");
            assert!(bounds.upper >= 0.5 - 1e-9, "depth {depth}: {bounds:?}");
            // monotone tightening
            assert!(bounds.lower >= prev.lower - 1e-12);
            assert!(bounds.upper <= prev.upper + 1e-12);
            prev = bounds;
            r_dec.expand_to(&r_pdf, depth + 1);
        }
        // after 8 levels the bounds are close to the truth
        assert!(prev.width() < 0.05, "final width {}", prev.width());
    }

    #[test]
    fn figure3_shared_halfspace_probabilities() {
        // Figure 3 of the paper: A1 = A2 certain and coincident, B certain,
        // R uncertain such that PDom(Ai, B, R) = 1/2 for both. The pairwise
        // bounds must both converge to 1/2 (the dependency between the two
        // relations matters only at the domination-count level).
        let a_rect = Rect::from_point(&Point::from([2.0, 0.0]));
        let b_rect = Rect::from_point(&Point::from([0.0, 0.0]));
        let r_pdf = Pdf::uniform(seg(0.0, 2.0));
        let mut r_dec = udb_object::Decomposition::new(&r_pdf);
        r_dec.expand_to(&r_pdf, 10);
        let bounds = pdom_bounds(
            &[part(a_rect, 1.0)],
            &[part(b_rect, 1.0)],
            r_dec.partitions(),
            LpNorm::L2,
            DominationCriterion::Optimal,
        );
        assert!((bounds.lower - 0.5).abs() < 0.01, "{bounds:?}");
        assert!((bounds.upper - 0.5).abs() < 0.01, "{bounds:?}");
    }

    #[test]
    fn existence_scaling() {
        let b = PDomBounds {
            lower: 0.4,
            upper: 0.8,
        };
        let s = b.scale_by_existence(0.5);
        assert!((s.lower - 0.2).abs() < 1e-12);
        assert!((s.upper - 0.4).abs() < 1e-12);
    }

    #[test]
    fn width_and_decided() {
        assert_eq!(PDomBounds::UNKNOWN.width(), 1.0);
        assert!(PDomBounds::ONE.is_decided(0.0));
        assert!(!PDomBounds::UNKNOWN.is_decided(0.5));
    }

    #[test]
    fn separated_decompositions_dominate_certainly() {
        let pdf_a = Pdf::uniform(seg(0.0, 1.0));
        let pdf_b = Pdf::uniform(seg(3.0, 4.0));
        let pdf_r = Pdf::uniform(seg(-2.0, -1.0));
        let mut da = udb_object::Decomposition::new(&pdf_a);
        let mut db = udb_object::Decomposition::new(&pdf_b);
        let mut dr = udb_object::Decomposition::new(&pdf_r);
        da.expand_to(&pdf_a, 2);
        db.expand_to(&pdf_b, 2);
        dr.expand_to(&pdf_r, 2);
        let bounds = pdom_bounds(
            da.partitions(),
            db.partitions(),
            dr.partitions(),
            LpNorm::L2,
            DominationCriterion::Optimal,
        );
        assert_eq!(bounds, PDomBounds::ONE);
    }

    fn arb_seg() -> impl Strategy<Value = Rect> {
        (-5.0..5.0f64, 0.0..3.0f64, -5.0..5.0f64, 0.0..3.0f64).prop_map(|(x, w, y, h)| {
            Rect::new(vec![Interval::new(x, x + w), Interval::new(y, y + h)])
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Fundamental soundness of the bounds: the Monte-Carlo estimate of
        /// PDom must fall inside [lower − slack, upper + slack].
        #[test]
        fn prop_bounds_bracket_monte_carlo(
            ar in arb_seg(), br in arb_seg(), rr in arb_seg(), seed in 0u64..100
        ) {
            let (pa, pb, pr) = (
                Pdf::uniform(ar.clone()),
                Pdf::uniform(br.clone()),
                Pdf::uniform(rr.clone()),
            );
            let mut da = udb_object::Decomposition::new(&pa);
            let mut db = udb_object::Decomposition::new(&pb);
            let mut dr = udb_object::Decomposition::new(&pr);
            da.expand_to(&pa, 3);
            db.expand_to(&pb, 3);
            dr.expand_to(&pr, 3);
            let bounds = pdom_bounds(da.partitions(), db.partitions(), dr.partitions(), LpNorm::L2, DominationCriterion::Optimal);
            let est = mc_pdom(&ar, &br, &rr, 4_000, seed);
            // 4000 samples: 4-sigma slack ~ 0.032
            prop_assert!(est >= bounds.lower - 0.04, "est {est} bounds {bounds:?}");
            prop_assert!(est <= bounds.upper + 0.04, "est {est} bounds {bounds:?}");
        }

        /// Lemma 2 duality (with the tie-correct weak complement): the
        /// upper bound is at least as tight as `1 − lower(B,A)` and never
        /// cuts below the forward lower bound.
        #[test]
        fn prop_upper_dominates_reverse_lower_dual(
            ar in arb_seg(), br in arb_seg(), rr in arb_seg()
        ) {
            let a = vec![part(ar, 1.0)];
            let b = vec![part(br, 1.0)];
            let r = vec![part(rr, 1.0)];
            let fwd = pdom_bounds(&a, &b, &r, LpNorm::L2, DominationCriterion::Optimal);
            let rev = pdom_bounds(&b, &a, &r, LpNorm::L2, DominationCriterion::Optimal);
            // weak complement detects at least everything the strict
            // reverse relation detects
            prop_assert!(fwd.upper <= 1.0 - rev.lower + 1e-12);
            prop_assert!(rev.upper <= 1.0 - fwd.lower + 1e-12);
            // and the bounds stay consistent
            prop_assert!(fwd.lower <= fwd.upper + 1e-12);
            prop_assert!(rev.lower <= rev.upper + 1e-12);
        }

        /// The optimal criterion never yields looser bounds than MinMax.
        #[test]
        fn prop_optimal_bounds_at_least_as_tight(
            ar in arb_seg(), br in arb_seg(), rr in arb_seg()
        ) {
            let (pa, pb, pr) = (
                Pdf::uniform(ar),
                Pdf::uniform(br),
                Pdf::uniform(rr),
            );
            let mut da = udb_object::Decomposition::new(&pa);
            let mut db = udb_object::Decomposition::new(&pb);
            let mut dr = udb_object::Decomposition::new(&pr);
            da.expand_to(&pa, 2);
            db.expand_to(&pb, 2);
            dr.expand_to(&pr, 2);
            let opt = pdom_bounds(da.partitions(), db.partitions(), dr.partitions(), LpNorm::L2, DominationCriterion::Optimal);
            let mm = pdom_bounds(da.partitions(), db.partitions(), dr.partitions(), LpNorm::L2, DominationCriterion::MinMax);
            prop_assert!(opt.lower >= mm.lower - 1e-12);
            prop_assert!(opt.upper <= mm.upper + 1e-12);
        }
    }
}
