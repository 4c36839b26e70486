//! Complete (spatial) domination on rectangular uncertainty regions.
//!
//! # One kernel
//!
//! [`dominates_optimal`], [`never_dominates_optimal`],
//! [`DominationCriterion::classify`] and [`PairClassifier`] all run one
//! function body, `optimal_sums`, monomorphized over the norm's power and
//! a const dimension count (the classifier unrolls `D = 2`, where it beat
//! the slice body by 8% end to end on 2-D serving traffic; other counts
//! run over a slice). It reads the `(B, R)` half of Corollary 1 as
//! six contiguous pair terms per dimension — stored once per pair by a
//! classifier, computed on the fly by the free functions — and adds every
//! sum in the textbook order, so all entry points agree bit for bit:
//!
//! ```text
//! [r_lo, r_hi, MinDist(B_i, r_lo)^p, MinDist(B_i, r_hi)^p,
//!              MaxDist(B_i, r_lo)^p, MaxDist(B_i, r_hi)^p]
//! ```
//!
//! The body is split at the dimension: `dim_terms` turns one interval
//! `A_i` and one dimension's pair terms into that dimension's share
//! `(dom_i, nd_i, scale_i)` of the three sums, and the kernel adds the
//! shares in dimension order from zero. Callers that see the same
//! `(A_i, B_i, R_i)` many times — the refiner's criterion tables — keep
//! the shares ([`PairClassifier::dim_terms`]), add them in the same order
//! ([`OptimalSums::add`]) and decide with
//! [`PairClassifier::decide_sums`]: the kernel's decision, bit for bit,
//! as one five-way [`DecisionClass`].
//!
//! # Maxima and NaN
//!
//! The kernel takes maxima by comparison, `if y > x { y } else { x }` (one
//! `maxsd`), not with [`f64::max`] and its NaN fix-up. For non-NaN
//! operands both give the same value up to the sign of a zero, which no
//! decision reads (`dom < 0`, `nd ≤ 0`; `scale ≥ 0` only sizes a margin).
//! Coordinates are finite (asserted by [`Interval::new`], checked by the
//! serving front), so a term is NaN only when two powered distances both
//! overflow (`∞ − ∞`, magnitudes near `1e154` under L2). A NaN second
//! operand yields the first, as `f64::max` does; a NaN first operand
//! yields NaN, which sticks through the `scale` chain and every sum. So
//! the sums equal the `f64::max` ones bit for bit, or one is NaN — and
//! only then the body re-runs with `f64::max`.

use udb_geometry::{Interval, LpNorm, Rect};

/// Which decision criterion detects complete domination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DominationCriterion {
    /// The tight criterion of Corollary 1 (Emrich et al., SIGMOD'10). The
    /// paper's experiments label this *Optimal*.
    #[default]
    Optimal,
    /// `MaxDist(A, R) < MinDist(B, R)` — correct but not tight, because it
    /// ignores that both distances depend on the same instantiation of `R`.
    MinMax,
}

impl DominationCriterion {
    /// Whether `a` dominates `b` w.r.t. `r` under this criterion.
    pub fn dominates(&self, a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
        match self {
            DominationCriterion::Optimal => dominates_optimal(a, b, r, norm),
            DominationCriterion::MinMax => dominates_minmax(a, b, r, norm),
        }
    }

    /// Whether `a` can *never* dominate `b` w.r.t. `r`: in every possible
    /// world `dist(a, r) ≥ dist(b, r)`. This is the weak (non-strict)
    /// complement used for progressive bounds; it is tie-correct where
    /// `!dominates(b, a, r)` is not — coincident certain points tie and
    /// therefore never *strictly* dominate each other.
    pub fn never_dominates(&self, a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
        match self {
            DominationCriterion::Optimal => never_dominates_optimal(a, b, r, norm),
            // `MaxDist(B, R) ≤ MinDist(A, R)`
            DominationCriterion::MinMax => {
                max_dist_pow(b.intervals(), rect_bounds(r), norm)
                    <= min_dist_pow(a.intervals(), rect_bounds(r), norm)
            }
        }
    }

    /// Classifies the relation in one pass and reports whether the
    /// decision is **float-robust**.
    ///
    /// The decision is exactly `dominates` / `never_dominates` (same
    /// decision sums, same strict/weak comparisons). It is robust when
    /// the decisive sum clears zero by a margin that dominates
    /// floating-point evaluation noise. Both decision sums are monotone
    /// under shrinking any of the three regions in exact arithmetic, so a
    /// *robust* decision is stable under any further decomposition of
    /// `a`, `b` or `r` — knife-edge configurations (ties, `sum ≈ 0`) are
    /// reported open because refinement may flip their float
    /// evaluation. Incremental caches use robustness to decide what may
    /// be carried without recomputation.
    pub fn classify(&self, a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> DecisionClass {
        match self {
            DominationCriterion::Optimal => optimal_sums_of(a, b, r, norm).class(),
            DominationCriterion::MinMax => minmax_decision(
                max_dist_pow(a.intervals(), rect_bounds(r), norm),
                min_dist_pow(b.intervals(), rect_bounds(r), norm),
                max_dist_pow(b.intervals(), rect_bounds(r), norm),
                min_dist_pow(a.intervals(), rect_bounds(r), norm),
            ),
        }
    }
}

/// Outcome of [`DominationCriterion::classify`]: complete domination,
/// never dominates or undecided at this resolution, and for the two
/// decisions whether the margin dominates float noise (robust) or not
/// (open), in one class, so a consumer branches on it once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionClass {
    /// Complete domination, float-robust (final under refinement).
    RobustDominate,
    /// Never dominates, float-robust (final under refinement).
    RobustNever,
    /// Complete domination at a knife edge.
    OpenDominate,
    /// Never dominates at a knife edge.
    OpenNever,
    /// Undecided at this resolution.
    Undecided,
}

impl DecisionClass {
    /// The class from the `(test, robust)` outcomes of the domination
    /// and the never-dominates test; domination is tested first.
    #[inline(always)]
    fn of(dominates: (bool, bool), never: (bool, bool)) -> Self {
        match (dominates, never) {
            ((true, true), _) => DecisionClass::RobustDominate,
            ((true, false), _) => DecisionClass::OpenDominate,
            (_, (true, true)) => DecisionClass::RobustNever,
            (_, (true, false)) => DecisionClass::OpenNever,
            _ => DecisionClass::Undecided,
        }
    }
}

/// Relative decision margin below which a classification counts as a
/// knife-edge (non-robust) case. Float noise of the decision sums is a
/// few ulps (~1e-16 relative); 1e-9 leaves three orders of magnitude of
/// slack in both directions.
const ROBUST_MARGIN: f64 = 1e-9;

/// The `(B, R)` half of a criterion, precomputed for one pair so that
/// streaming many `A` rectangles against it evaluates only the
/// `A`-dependent terms; **bit-identical** to `criterion.classify(a, b, r,
/// norm)`. The IDCA refiner keeps one per range of partition pairs and
/// [`retargets`](PairClassifier::retarget) it to each pair, so its pair
/// walk allocates nothing.
#[derive(Debug, Clone)]
pub struct PairClassifier {
    criterion: DominationCriterion,
    norm: LpNorm,
    /// Per-dimension pair terms of the current pair. MinMax reads only
    /// the `R` bounds (`[0]`, `[1]`).
    terms: Vec<PairTerms>,
    /// MinMax criterion: `MinDist(B, R)^p` and `MaxDist(B, R)^p`.
    minmax_b: (f64, f64),
}

/// One dimension's pair terms (layout in the module docs).
type PairTerms = [f64; 6];

impl PairClassifier {
    /// Precomputes the `B`/`R` halves for the given pair.
    ///
    /// # Panics
    /// Panics for the optimal criterion under [`LpNorm::LInf`].
    pub fn new(b: &Rect, r: &Rect, criterion: DominationCriterion, norm: LpNorm) -> Self {
        assert!(
            criterion == DominationCriterion::MinMax || norm != LpNorm::LInf,
            "{FINITE_P}"
        );
        let mut pc = PairClassifier {
            criterion,
            norm,
            terms: Vec::with_capacity(r.dims()),
            minmax_b: (0.0, 0.0),
        };
        pc.retarget(b, r);
        pc
    }

    /// Points the classifier at another `(B, R)` pair, reusing its
    /// buffer: no allocation once it has seen the dimensionality.
    pub fn retarget(&mut self, b: &Rect, r: &Rect) {
        debug_assert_eq!(b.dims(), r.dims());
        let norm = self.norm;
        self.terms.clear();
        self.terms.extend(
            b.intervals()
                .iter()
                .zip(r.intervals())
                .map(|(&bi, &ri)| pair_terms(bi, ri, norm)),
        );
        if self.criterion == DominationCriterion::MinMax {
            self.minmax_b = (
                min_dist_pow(b.intervals(), rect_bounds(r), norm),
                max_dist_pow(b.intervals(), rect_bounds(r), norm),
            );
        }
    }

    /// Classifies `a` against the precomputed pair; equal to
    /// `criterion.classify(a, b, r, norm)`.
    #[inline]
    pub fn classify(&self, a: &Rect) -> DecisionClass {
        self.classify_dims(a.intervals())
    }

    /// Like [`PairClassifier::classify`] for a rectangle given as its
    /// interval slice — hot loops that keep many boxes in one flat
    /// buffer (the refiner's partition arena) classify without
    /// materializing a `Rect` per box.
    #[inline(always)]
    pub fn classify_dims(&self, a: &[Interval]) -> DecisionClass {
        debug_assert_eq!(a.len(), self.terms.len());
        match self.criterion {
            DominationCriterion::Optimal => self.classify_optimal(a),
            DominationCriterion::MinMax => {
                let (min_br, max_br) = self.minmax_b;
                let r = |i: usize| (self.terms[i][0], self.terms[i][1]);
                minmax_decision(
                    max_dist_pow(a, r, self.norm),
                    min_br,
                    max_br,
                    min_dist_pow(a, r, self.norm),
                )
            }
        }
    }

    /// The optimal criterion against the stored pair terms, dispatched to
    /// a kernel copy specialized for the norm and the dimension count.
    #[inline(always)]
    fn classify_optimal(&self, a: &[Interval]) -> DecisionClass {
        let terms = &self.terms[..a.len()];
        let sums = match self.norm {
            LpNorm::L1 => by_dims(|d| LpNorm::L1.pow(d), a, terms),
            LpNorm::L2 => by_dims(|d| LpNorm::L2.pow(d), a, terms),
            LpNorm::P(p) => by_dims(move |d| LpNorm::P(p).pow(d), a, terms),
            LpNorm::LInf => unreachable!("{FINITE_P}"),
        };
        sums.class()
    }

    /// Dimension `d`'s share of the optimal criterion's sums for the
    /// interval `a_d` against the current pair: the kernel's loop body.
    /// Adding the shares of a box's dimensions in dimension order from
    /// [`OptimalSums::ZERO`] gives the kernel's sums bit for bit.
    ///
    /// # Panics
    /// Panics (debug builds) for the MinMax criterion.
    #[inline]
    pub fn dim_terms(&self, d: usize, a_d: Interval) -> OptimalSums {
        debug_assert_eq!(self.criterion, DominationCriterion::Optimal);
        let t = self.terms[d];
        match self.norm {
            LpNorm::L1 => dim_terms::<false>(|x| LpNorm::L1.pow(x), a_d, t),
            LpNorm::L2 => dim_terms::<false>(|x| LpNorm::L2.pow(x), a_d, t),
            LpNorm::P(p) => dim_terms::<false>(|x| LpNorm::P(p).pow(x), a_d, t),
            LpNorm::LInf => unreachable!("{FINITE_P}"),
        }
    }

    /// The decision for `a` from `sums`, its [`dim_terms`] added in
    /// dimension order: equal to [`PairClassifier::classify_dims`]. A
    /// NaN sum re-runs the kernel on `a`, which takes its `f64::max`
    /// pass (see the module docs).
    ///
    /// [`dim_terms`]: PairClassifier::dim_terms
    #[inline(always)]
    pub fn decide_sums(&self, sums: OptimalSums, a: &[Interval]) -> DecisionClass {
        if sums.is_nan() {
            self.classify_dims(a)
        } else {
            sums.class()
        }
    }
}

/// Dispatches `D = 2` to an unrolled kernel copy, others to the slice.
#[inline(always)]
fn by_dims(pow: impl Fn(f64) -> f64 + Copy, a: &[Interval], terms: &[PairTerms]) -> OptimalSums {
    let t = |i: usize| terms[i];
    if a.len() == 2 {
        optimal_sums::<2>(pow, a, t)
    } else {
        optimal_sums::<0>(pow, a, t)
    }
}

/// The *optimal* complete-domination test (Corollary 1):
///
/// ```text
/// PDom(A,B,R) = 1  ⇔  Σ_i  max_{r_i ∈ {Rmin_i, Rmax_i}}
///                     ( MaxDist(A_i, r_i)^p − MinDist(B_i, r_i)^p ) < 0
/// ```
///
/// The per-dimension maximum over the two interval endpoints of `R_i` is
/// where the criterion gains its tightness: the adversarial placement of
/// the reference object is resolved dimension-by-dimension instead of
/// independently for the two distances.
///
/// # Panics
/// Panics for [`LpNorm::LInf`]: the sum decomposition requires a finite
/// `p`. (The paper states its results for `Lp` norms.)
pub fn dominates_optimal(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
    optimal_sums_of(a, b, r, norm).dom < 0.0
}

/// The weak complement of [`dominates_optimal`]: `a` is at least as far
/// from `r` as `b` in every possible world, i.e.
///
/// ```text
/// ∀ worlds: dist(a,r) ≥ dist(b,r)  ⇔  Σ_i max_{r_i ∈ {Rmin_i, Rmax_i}}
///                     ( MaxDist(B_i, r_i)^p − MinDist(A_i, r_i)^p ) ≤ 0
/// ```
///
/// (the same sum as `dominates_optimal(b, a, r, ·)` but with a non-strict
/// comparison, so exactly tied configurations are classified as
/// never-dominating — `Dom` is strict by Definition 2).
///
/// # Panics
/// Panics for [`LpNorm::LInf`].
pub fn never_dominates_optimal(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
    optimal_sums_of(a, b, r, norm).nd <= 0.0
}

/// The classical MinDist/MaxDist pruning test:
/// `MaxDist(A, R) < MinDist(B, R)` on whole rectangles.
pub fn dominates_minmax(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> bool {
    max_dist_pow(a.intervals(), rect_bounds(r), norm)
        < min_dist_pow(b.intervals(), rect_bounds(r), norm)
}

const FINITE_P: &str = "the optimal domination criterion requires a finite Lp norm";

/// The optimal criterion's sums: `dom < 0` ⇔ complete domination,
/// `nd ≤ 0` ⇔ never dominates; `scale` sizes the robustness margin. One
/// dimension's share of them ([`PairClassifier::dim_terms`]) has the
/// same three fields.
#[derive(Debug, Clone, Copy)]
pub struct OptimalSums {
    /// `Σ_i max_r (MaxDist(A_i, r)^p − MinDist(B_i, r)^p)`.
    pub dom: f64,
    /// `Σ_i max_r (MaxDist(B_i, r)^p − MinDist(A_i, r)^p)`.
    pub nd: f64,
    /// The sum of each dimension's largest term magnitude.
    pub scale: f64,
}

impl OptimalSums {
    /// The empty sums every addition starts from.
    pub const ZERO: OptimalSums = OptimalSums {
        dom: 0.0,
        nd: 0.0,
        scale: 0.0,
    };

    /// Adds one dimension's share, field by field.
    #[inline(always)]
    pub fn add(&mut self, share: OptimalSums) {
        self.dom += share.dom;
        self.nd += share.nd;
        self.scale += share.scale;
    }

    /// Whether any sum is NaN (the kernel's `f64::max` re-run trigger).
    #[inline(always)]
    fn is_nan(self) -> bool {
        (self.dom + self.nd + self.scale).is_nan()
    }

    /// The decision these sums stand for, as one class.
    #[inline(always)]
    fn class(self) -> DecisionClass {
        let margin = ROBUST_MARGIN * self.scale.max(f64::MIN_POSITIVE);
        DecisionClass::of(
            (self.dom < 0.0, self.dom < -margin),
            (self.nd <= 0.0, self.nd < -margin),
        )
    }
}

/// The optimal criterion's sums for whole rectangles, pair terms computed
/// on the fly (the slice-length copy of the kernel).
fn optimal_sums_of(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm) -> OptimalSums {
    assert!(norm != LpNorm::LInf, "{FINITE_P}");
    debug_assert_eq!(a.dims(), b.dims());
    debug_assert_eq!(a.dims(), r.dims());
    let t = |i: usize| pair_terms(b.dim(i), r.dim(i), norm);
    optimal_sums::<0>(|d| norm.pow(d), a.intervals(), t)
}

/// The pair terms of one dimension.
fn pair_terms(b: Interval, r: Interval, norm: LpNorm) -> PairTerms {
    [
        r.lo(),
        r.hi(),
        norm.pow(b.min_dist(r.lo())),
        norm.pow(b.min_dist(r.hi())),
        norm.pow(b.max_dist(r.lo())),
        norm.pow(b.max_dist(r.hi())),
    ]
}

/// The one optimal-criterion kernel: the fast comparison-max pass, and
/// the `f64::max` pass only when a NaN surfaced (see the module docs).
#[inline(always)]
fn optimal_sums<const D: usize>(
    pow: impl Fn(f64) -> f64 + Copy,
    a: &[Interval],
    terms: impl Fn(usize) -> PairTerms,
) -> OptimalSums {
    let sums = optimal_sums_with::<D, false>(pow, a, &terms);
    if sums.is_nan() {
        optimal_sums_ieee(pow, a, &terms)
    } else {
        sums
    }
}

#[cold]
#[inline(never)]
fn optimal_sums_ieee(
    pow: impl Fn(f64) -> f64,
    a: &[Interval],
    terms: &impl Fn(usize) -> PairTerms,
) -> OptimalSums {
    optimal_sums_with::<0, true>(pow, a, terms)
}

/// The body: `D` dimensions (`0` = `a.len()`), maxima by comparison or,
/// with `IEEE`, by `f64::max`. Every sum adds its terms in dimension
/// order, as the textbook formula does.
#[inline(always)]
fn optimal_sums_with<const D: usize, const IEEE: bool>(
    pow: impl Fn(f64) -> f64,
    a: &[Interval],
    terms: &impl Fn(usize) -> PairTerms,
) -> OptimalSums {
    let a = if D == 0 { a } else { &a[..D] };
    let mut sums = OptimalSums::ZERO;
    for (i, &ai) in a.iter().enumerate() {
        sums.add(dim_terms::<IEEE>(&pow, ai, terms(i)));
    }
    sums
}

/// One dimension's share of the sums, from `A_i` and the dimension's
/// pair terms.
#[inline(always)]
fn dim_terms<const IEEE: bool>(
    pow: impl Fn(f64) -> f64,
    ai: Interval,
    terms: PairTerms,
) -> OptimalSums {
    let max = max2::<IEEE>;
    let [r_lo, r_hi, min_b_lo, min_b_hi, max_b_lo, max_b_hi] = terms;
    // MaxDist(A_i, r) = max(|r - lo|, |r - hi|), as `Interval::max_dist`
    let d_lo = pow(max((r_lo - ai.lo()).abs(), (r_lo - ai.hi()).abs())) - min_b_lo;
    let d_hi = pow(max((r_hi - ai.lo()).abs(), (r_hi - ai.hi()).abs())) - min_b_hi;
    // MinDist(A_i, r) = max(lo - r, r - hi, 0), branch-free
    let min_dist = |r: f64| {
        if IEEE {
            ai.min_dist(r)
        } else {
            max(max(ai.lo() - r, r - ai.hi()), 0.0)
        }
    };
    let n_lo = max_b_lo - pow(min_dist(r_lo));
    let n_hi = max_b_hi - pow(min_dist(r_hi));
    OptimalSums {
        dom: max(d_lo, d_hi),
        nd: max(n_lo, n_hi),
        scale: max(max(max(d_lo.abs(), d_hi.abs()), n_lo.abs()), n_hi.abs()),
    }
}

/// `max(x, y)`: `f64::max` with `IEEE`, else the comparison max that
/// returns `x` when unordered (see the module docs).
#[inline(always)]
fn max2<const IEEE: bool>(x: f64, y: f64) -> f64 {
    if IEEE {
        x.max(y)
    } else if y > x {
        y
    } else {
        x
    }
}

/// The MinMax decision from the four powered whole-box distances.
fn minmax_decision(max_ar: f64, min_br: f64, max_br: f64, min_ar: f64) -> DecisionClass {
    let dom_margin = ROBUST_MARGIN * max_ar.abs().max(min_br.abs()).max(f64::MIN_POSITIVE);
    let never_margin = ROBUST_MARGIN * max_br.abs().max(min_ar.abs()).max(f64::MIN_POSITIVE);
    DecisionClass::of(
        (max_ar < min_br, min_br - max_ar > dom_margin),
        (max_br <= min_ar, min_ar - max_br > never_margin),
    )
}

/// The `(lo, hi)` bounds of `r` per dimension.
fn rect_bounds(r: &Rect) -> impl Fn(usize) -> (f64, f64) + '_ {
    |i| (r.dim(i).lo(), r.dim(i).hi())
}

/// `MinDist(X, R)^p` between two boxes, `R` given by its per-dimension
/// bounds (power form, avoids roots; under L∞ the maximum, which equals
/// `norm.pow(x.min_dist_rect(r, norm))`).
fn min_dist_pow(x: &[Interval], r: impl Fn(usize) -> (f64, f64), norm: LpNorm) -> f64 {
    norm.aggregate(x.iter().enumerate().map(|(i, xi)| {
        let (r_lo, r_hi) = r(i);
        let gap = if xi.hi() < r_lo {
            r_lo - xi.hi()
        } else if r_hi < xi.lo() {
            xi.lo() - r_hi
        } else {
            0.0
        };
        norm.pow(gap)
    }))
}

/// `MaxDist(X, R)^p` between two boxes (power form, as [`min_dist_pow`]).
fn max_dist_pow(x: &[Interval], r: impl Fn(usize) -> (f64, f64), norm: LpNorm) -> f64 {
    norm.aggregate(x.iter().enumerate().map(|(i, xi)| {
        let (r_lo, r_hi) = r(i);
        norm.pow((xi.hi() - r_lo).abs().max((r_hi - xi.lo()).abs()))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use udb_geometry::{Interval, Point};

    fn rect(xlo: f64, xhi: f64, ylo: f64, yhi: f64) -> Rect {
        Rect::new(vec![Interval::new(xlo, xhi), Interval::new(ylo, yhi)])
    }

    fn point_rect(x: f64, y: f64) -> Rect {
        Rect::from_point(&Point::from([x, y]))
    }

    /// Monte-Carlo soundness oracle: estimates whether every sampled triple
    /// satisfies `dist(a,r) < dist(b,r)`.
    fn mc_all_dominate(a: &Rect, b: &Rect, r: &Rect, norm: LpNorm, rng: &mut StdRng) -> bool {
        let sample = |rect: &Rect, rng: &mut StdRng| {
            Point::new(
                rect.intervals()
                    .iter()
                    .map(|iv| {
                        if iv.is_degenerate() {
                            iv.lo()
                        } else {
                            rng.gen_range(iv.lo()..=iv.hi())
                        }
                    })
                    .collect::<Vec<_>>(),
            )
        };
        for _ in 0..300 {
            let (pa, pb, pr) = (sample(a, rng), sample(b, rng), sample(r, rng));
            if norm.dist(&pa, &pr) >= norm.dist(&pb, &pr) {
                return false;
            }
        }
        true
    }

    #[test]
    fn certain_points_reduce_to_distance_comparison() {
        let r = point_rect(0.0, 0.0);
        let a = point_rect(1.0, 0.0);
        let b = point_rect(3.0, 0.0);
        assert!(dominates_optimal(&a, &b, &r, LpNorm::L2));
        assert!(!dominates_optimal(&b, &a, &r, LpNorm::L2));
        assert!(dominates_minmax(&a, &b, &r, LpNorm::L2));
    }

    #[test]
    fn equal_distance_is_not_domination() {
        let r = point_rect(0.0, 0.0);
        let a = point_rect(1.0, 0.0);
        let b = point_rect(-1.0, 0.0);
        assert!(!dominates_optimal(&a, &b, &r, LpNorm::L2));
        assert!(!dominates_optimal(&b, &a, &r, LpNorm::L2));
    }

    #[test]
    fn no_self_domination() {
        let r = rect(0.0, 1.0, 0.0, 1.0);
        let a = rect(3.0, 4.0, 3.0, 4.0);
        assert!(!dominates_optimal(&a, &a, &r, LpNorm::L2));
        assert!(!dominates_minmax(&a, &a, &r, LpNorm::L2));
    }

    #[test]
    fn clear_separation_detected_by_both() {
        let r = rect(0.0, 1.0, 0.0, 1.0);
        let a = rect(1.5, 2.0, 0.0, 1.0);
        let b = rect(10.0, 11.0, 0.0, 1.0);
        assert!(dominates_minmax(&a, &b, &r, LpNorm::L2));
        assert!(dominates_optimal(&a, &b, &r, LpNorm::L2));
    }

    /// The configuration where the optimal criterion is strictly tighter:
    /// A and B on opposite sides of R, close enough that MaxDist(A,R)
    /// overlaps MinDist(B,R), yet for every fixed r ∈ R, A stays closer.
    #[test]
    fn optimal_strictly_tighter_than_minmax() {
        // 1-D essence embedded in 2-D: R = [0,2] x {0}, A = {2.5} x {0},
        // B = {6} x {0}. MaxDist(A,R) = 2.5, MinDist(B,R) = 4 -> minmax
        // detects it. Move B closer: B = {4.5}. MaxDist(A,R) = 2.5 >
        // MinDist(B,R) = 2.5 -> minmax fails, but for each r in [0,2]:
        // dist(a,r) = 2.5 - r < 4.5 - r = dist(b,r) -> optimal succeeds.
        let r = rect(0.0, 2.0, 0.0, 0.0);
        let a = point_rect(2.5, 0.0);
        let b = point_rect(4.5, 0.0);
        assert!(!dominates_minmax(&a, &b, &r, LpNorm::L2));
        assert!(dominates_optimal(&a, &b, &r, LpNorm::L2));
        // soundness of the optimal answer
        let mut rng = StdRng::seed_from_u64(0xB0);
        assert!(mc_all_dominate(&a, &b, &r, LpNorm::L2, &mut rng));
    }

    #[test]
    fn optimal_works_under_l1() {
        let r = rect(0.0, 2.0, 0.0, 0.0);
        let a = point_rect(2.5, 0.0);
        let b = point_rect(4.5, 0.0);
        assert!(dominates_optimal(&a, &b, &r, LpNorm::L1));
    }

    #[test]
    #[should_panic(expected = "finite Lp norm")]
    fn optimal_rejects_linf() {
        let r = rect(0.0, 1.0, 0.0, 1.0);
        dominates_optimal(&r, &r, &r, LpNorm::LInf);
    }

    #[test]
    fn minmax_supports_linf() {
        let r = rect(0.0, 1.0, 0.0, 1.0);
        let a = rect(1.5, 2.0, 0.0, 1.0);
        let b = rect(10.0, 11.0, 0.0, 1.0);
        assert!(dominates_minmax(&a, &b, &r, LpNorm::LInf));
    }

    #[test]
    fn criterion_enum_dispatch() {
        let r = rect(0.0, 2.0, 0.0, 0.0);
        let a = point_rect(2.5, 0.0);
        let b = point_rect(4.5, 0.0);
        assert!(DominationCriterion::Optimal.dominates(&a, &b, &r, LpNorm::L2));
        assert!(!DominationCriterion::MinMax.dominates(&a, &b, &r, LpNorm::L2));
        assert_eq!(DominationCriterion::default(), DominationCriterion::Optimal);
    }

    fn arb_rect(range: std::ops::Range<f64>) -> impl Strategy<Value = Rect> {
        (range.clone(), 0.0..2.0f64, range, 0.0..2.0f64)
            .prop_map(|(x, w, y, h)| rect(x, x + w, y, y + h))
    }

    /// The decision of the optimal criterion's sums as documented
    /// (`dom < 0` dominates, else `nd ≤ 0` never dominates; robust
    /// beyond the relative margin), written out independently of the
    /// classes.
    fn documented_decision(sums: OptimalSums) -> DecisionClass {
        let margin = ROBUST_MARGIN * sums.scale.max(f64::MIN_POSITIVE);
        if sums.dom < 0.0 {
            if sums.dom < -margin {
                DecisionClass::RobustDominate
            } else {
                DecisionClass::OpenDominate
            }
        } else if sums.nd <= 0.0 {
            if sums.nd < -margin {
                DecisionClass::RobustNever
            } else {
                DecisionClass::OpenNever
            }
        } else {
            DecisionClass::Undecided
        }
    }

    /// Asserts that the class the criterion tables read (`decide_sums`
    /// on `a`'s shares added in dimension order) is the kernel's class
    /// for `a`.
    fn assert_class_matches_kernel(pc: &PairClassifier, a: &Rect) {
        let mut sums = OptimalSums::ZERO;
        for (d, &a_d) in a.intervals().iter().enumerate() {
            sums.add(pc.dim_terms(d, a_d));
        }
        let class = pc.decide_sums(sums, a.intervals());
        assert_eq!(class, pc.classify_dims(a.intervals()), "{a:?}: {sums:?}");
    }

    #[test]
    fn decision_class_at_knife_edges() {
        let sums = |dom: f64, nd: f64| OptimalSums {
            dom,
            nd,
            scale: 1.0,
        };
        let margin = ROBUST_MARGIN;
        for (s, class) in [
            (sums(0.0, 1.0), DecisionClass::Undecided),
            (sums(-0.0, 1.0), DecisionClass::Undecided),
            (sums(-margin, 1.0), DecisionClass::OpenDominate),
            (sums(-2.0 * margin, 1.0), DecisionClass::RobustDominate),
            (sums(1.0, 0.0), DecisionClass::OpenNever),
            (sums(0.0, 0.0), DecisionClass::OpenNever),
            (sums(1.0, -margin), DecisionClass::OpenNever),
            (sums(1.0, -2.0 * margin), DecisionClass::RobustNever),
            (sums(-margin, -1.0), DecisionClass::OpenDominate),
            (
                sums(f64::MIN_POSITIVE, f64::MIN_POSITIVE),
                DecisionClass::Undecided,
            ),
        ] {
            assert_eq!(s.class(), class, "{s:?}");
            assert_eq!(s.class(), documented_decision(s), "{s:?}");
        }
        // geometric knife edges: ties between certain points (`dom = 0`,
        // `nd = 0`) and touching boxes
        let r = point_rect(0.0, 0.0);
        for norm in [LpNorm::L1, LpNorm::L2, LpNorm::P(3)] {
            let pc = PairClassifier::new(
                &point_rect(-1.0, 0.0),
                &r,
                DominationCriterion::Optimal,
                norm,
            );
            assert_class_matches_kernel(&pc, &point_rect(1.0, 0.0));
            assert_class_matches_kernel(&pc, &point_rect(0.0, 1.0));
            assert_class_matches_kernel(&pc, &rect(-1.0, 1.0, 0.0, 0.0));
            assert_eq!(
                pc.decide_sums(OptimalSums::ZERO, point_rect(1.0, 0.0).intervals()),
                DecisionClass::OpenNever
            );
        }
    }

    #[test]
    fn nan_sums_take_the_kernel() {
        // interval ends whose powered distances overflow to infinity:
        // the shares hold `inf - inf`, so the summed shares are NaN and
        // only the kernel's `f64::max` pass decides
        let r = rect(-1e300, 1e300, 0.0, 0.0);
        let b = rect(0.0, 1.0, 0.0, 0.0);
        let pc = PairClassifier::new(&b, &r, DominationCriterion::Optimal, LpNorm::L2);
        for a in [
            point_rect(1e300, 0.0),
            point_rect(-1e300, 0.0),
            rect(-1e300, 1e300, 0.0, 1.0),
        ] {
            let mut sums = OptimalSums::ZERO;
            for (d, &a_d) in a.intervals().iter().enumerate() {
                sums.add(pc.dim_terms(d, a_d));
            }
            assert!(sums.is_nan(), "{a:?}: {sums:?}");
            assert_class_matches_kernel(&pc, &a);
        }
        // any NaN field re-runs the kernel on the box, whatever the
        // other fields say
        let a = point_rect(0.5, 0.0);
        let pc = PairClassifier::new(
            &point_rect(5.0, 0.0),
            &point_rect(0.0, 0.0),
            DominationCriterion::Optimal,
            LpNorm::L2,
        );
        let kernel = pc.classify_dims(a.intervals());
        assert_eq!(kernel, DecisionClass::RobustDominate);
        for nan in [
            OptimalSums {
                dom: f64::NAN,
                nd: -1.0,
                scale: 1.0,
            },
            OptimalSums {
                dom: 1.0,
                nd: f64::NAN,
                scale: 1.0,
            },
            OptimalSums {
                dom: 1.0,
                nd: 1.0,
                scale: f64::NAN,
            },
        ] {
            assert_eq!(pc.decide_sums(nan, a.intervals()), kernel, "{nan:?}");
        }
    }

    proptest! {
        /// Soundness: whenever the optimal criterion claims domination,
        /// sampled instantiations must agree.
        #[test]
        fn prop_optimal_sound(
            a in arb_rect(-5.0..5.0),
            b in arb_rect(-5.0..5.0),
            r in arb_rect(-5.0..5.0),
            seed in 0u64..1000,
        ) {
            if dominates_optimal(&a, &b, &r, LpNorm::L2) {
                let mut rng = StdRng::seed_from_u64(seed);
                prop_assert!(mc_all_dominate(&a, &b, &r, LpNorm::L2, &mut rng));
            }
        }

        /// Dominance detected by MinMax is always detected by Optimal
        /// (Optimal is at least as tight).
        #[test]
        fn prop_minmax_implies_optimal(
            a in arb_rect(-5.0..5.0),
            b in arb_rect(-5.0..5.0),
            r in arb_rect(-5.0..5.0),
        ) {
            for norm in [LpNorm::L1, LpNorm::L2, LpNorm::P(3)] {
                if dominates_minmax(&a, &b, &r, norm) {
                    prop_assert!(dominates_optimal(&a, &b, &r, norm));
                }
            }
        }

        /// Antisymmetry: A and B cannot dominate each other simultaneously.
        #[test]
        fn prop_domination_antisymmetric(
            a in arb_rect(-5.0..5.0),
            b in arb_rect(-5.0..5.0),
            r in arb_rect(-5.0..5.0),
        ) {
            let ab = dominates_optimal(&a, &b, &r, LpNorm::L2);
            let ba = dominates_optimal(&b, &a, &r, LpNorm::L2);
            prop_assert!(!(ab && ba));
        }

        /// The five-way class of summed shares is the kernel's class,
        /// under L1, L2 and P(3), for boxes, certain
        /// points (ties included: `b` mirrors `a` through `r`'s center)
        /// and boxes sharing an edge with `r`.
        #[test]
        fn prop_decision_class_matches_kernel(
            a in arb_rect(-5.0..5.0),
            b in arb_rect(-5.0..5.0),
            r in arb_rect(-5.0..5.0),
            px in -5.0..5.0f64, py in -5.0..5.0f64,
        ) {
            let mirrored = point_rect(-px, -py);
            let touching = rect(r.dim(0).hi(), r.dim(0).hi() + 1.0, r.dim(1).lo(), r.dim(1).hi());
            for norm in [LpNorm::L1, LpNorm::L2, LpNorm::P(3)] {
                for (b, r) in [(&b, &r), (&mirrored, &point_rect(0.0, 0.0))] {
                    let pc = PairClassifier::new(b, r, DominationCriterion::Optimal, norm);
                    for a in [&a, &point_rect(px, py), &touching] {
                        assert_class_matches_kernel(&pc, a);
                    }
                }
            }
        }

        /// For certain points the criterion is exactly the distance
        /// comparison.
        #[test]
        fn prop_certain_points_exact(
            ax in -5.0..5.0f64, ay in -5.0..5.0f64,
            bx in -5.0..5.0f64, by in -5.0..5.0f64,
            rx in -5.0..5.0f64, ry in -5.0..5.0f64,
        ) {
            let a = point_rect(ax, ay);
            let b = point_rect(bx, by);
            let r = point_rect(rx, ry);
            let pa = Point::from([ax, ay]);
            let pb = Point::from([bx, by]);
            let pr = Point::from([rx, ry]);
            let expected = LpNorm::L2.dist(&pa, &pr) < LpNorm::L2.dist(&pb, &pr);
            prop_assert_eq!(dominates_optimal(&a, &b, &r, LpNorm::L2), expected);
            prop_assert_eq!(dominates_minmax(&a, &b, &r, LpNorm::L2), expected);
        }
    }
}
