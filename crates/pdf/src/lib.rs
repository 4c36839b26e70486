//! Probability density models for uncertain objects.
//!
//! The paper's uncertainty model (Definition 1) attaches to every object a
//! multi-dimensional PDF `f_i` that is zero outside a bounded rectangular
//! uncertainty region and integrates to one inside it. Attributes may be
//! *mutually dependent*, so the object PDF cannot in general be factored
//! into marginals; the discrete model (finite alternatives with
//! probabilities) is a special case.
//!
//! This crate provides the [`Pdf`] enum with the model family used across
//! the workspace:
//!
//! * [`UniformPdf`] — uniform density over the uncertainty region (the
//!   synthetic workload of §VII),
//! * [`GaussianPdf`] — axis-independent truncated Gaussian (the iceberg
//!   workload of §VII),
//! * [`HistogramPdf`] — piecewise-constant density on a regular grid;
//!   represents *arbitrarily correlated* attributes,
//! * [`DiscretePdf`] — finite weighted alternatives (the discrete special
//!   case; also the output of Monte-Carlo discretization),
//! * [`MixturePdf`] — convex combinations of the above.
//!
//! Every model supports the three primitives the pruning machinery needs:
//! probability mass inside an axis-aligned region ([`Pdf::mass_in`]),
//! conditional median split coordinates ([`Pdf::split_coordinate`], used by
//! the kd-tree decomposition of §V) and random sampling ([`Pdf::sample`],
//! used by the Monte-Carlo baseline).

pub mod discrete;
pub mod gaussian;
pub mod histogram;
pub mod math;
pub mod mixture;
pub mod uniform;

pub use discrete::DiscretePdf;
pub use gaussian::GaussianPdf;
pub use histogram::HistogramPdf;
pub use mixture::MixturePdf;
pub use uniform::UniformPdf;

use rand::Rng;
use serde::{Deserialize, Serialize};
use udb_geometry::codec::Reader;
use udb_geometry::{Point, Rect};

/// Probability mass below which a region is treated as mass-free by the
/// decomposition machinery.
pub const MASS_EPSILON: f64 = 1e-12;

/// How deeply [`Pdf::decode`] follows mixtures of mixtures, so that a
/// hostile buffer cannot exhaust the stack. A JSON object line reaches
/// its parser's depth cap at about 30 nested mixtures, so every object
/// that can arrive as JSON stays well inside this.
pub const MAX_MIXTURE_NESTING: usize = 64;

const TAG_UNIFORM: u8 = 0;
const TAG_GAUSSIAN: u8 = 1;
const TAG_HISTOGRAM: u8 = 2;
const TAG_DISCRETE: u8 = 3;
const TAG_MIXTURE: u8 = 4;

/// A bounded multi-dimensional probability density (Definition 1 of the
/// paper).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Pdf {
    /// Uniform over the uncertainty region.
    Uniform(UniformPdf),
    /// Truncated axis-independent Gaussian.
    Gaussian(GaussianPdf),
    /// Piecewise-constant grid density (supports correlated attributes).
    Histogram(HistogramPdf),
    /// Finite set of weighted alternatives.
    Discrete(DiscretePdf),
    /// Convex combination of component PDFs.
    Mixture(MixturePdf),
}

impl Pdf {
    /// Uniform density over `region`.
    pub fn uniform(region: Rect) -> Self {
        Pdf::Uniform(UniformPdf::new(region))
    }

    /// The minimal bounding rectangle outside which the density is zero
    /// (the `R_i` of Definition 1).
    pub fn support(&self) -> &Rect {
        match self {
            Pdf::Uniform(p) => p.support(),
            Pdf::Gaussian(p) => p.support(),
            Pdf::Histogram(p) => p.support(),
            Pdf::Discrete(p) => p.support(),
            Pdf::Mixture(p) => p.support(),
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.support().dims()
    }

    /// `P(X ∈ region)` for the closed box `region` (clipped against the
    /// support). Always in `[0, 1]`.
    pub fn mass_in(&self, region: &Rect) -> f64 {
        match self {
            Pdf::Uniform(p) => p.mass_in(region),
            Pdf::Gaussian(p) => p.mass_in(region),
            Pdf::Histogram(p) => p.mass_in(region),
            Pdf::Discrete(p) => p.mass_in(region),
            Pdf::Mixture(p) => p.mass_in(region),
        }
        .clamp(0.0, 1.0)
    }

    /// `P(X ∈ region ∧ X_axis < x)` — strict in the split coordinate so
    /// that sibling partitions of a decomposition never double-count mass
    /// (relevant only for discrete models; continuous boundaries are
    /// mass-free).
    pub fn mass_below(&self, region: &Rect, axis: usize, x: f64) -> f64 {
        match self {
            Pdf::Uniform(p) => p.mass_below(region, axis, x),
            Pdf::Gaussian(p) => p.mass_below(region, axis, x),
            Pdf::Histogram(p) => p.mass_below(region, axis, x),
            Pdf::Discrete(p) => p.mass_below(region, axis, x),
            Pdf::Mixture(p) => p.mass_below(region, axis, x),
        }
        .clamp(0.0, 1.0)
    }

    /// Draws one sample from the density.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        match self {
            Pdf::Uniform(p) => p.sample(rng),
            Pdf::Gaussian(p) => p.sample(rng),
            Pdf::Histogram(p) => p.sample(rng),
            Pdf::Discrete(p) => p.sample(rng),
            Pdf::Mixture(p) => p.sample(rng),
        }
    }

    /// Expected value of the density.
    pub fn mean(&self) -> Point {
        match self {
            Pdf::Uniform(p) => p.mean(),
            Pdf::Gaussian(p) => p.mean(),
            Pdf::Histogram(p) => p.mean(),
            Pdf::Discrete(p) => p.mean(),
            Pdf::Mixture(p) => p.mean(),
        }
    }

    /// Conditional median of `X_axis` given `X ∈ region`: the coordinate
    /// `x` such that the mass of `region` splits as evenly as possible
    /// between `X_axis < x` and `X_axis ≥ x`.
    ///
    /// This is the "precomputed split point" of §V: the kd-tree
    /// decomposition bisects each object at per-axis medians so that every
    /// node at level `l` carries (close to) `0.5^l` probability mass.
    ///
    /// Every non-mixture model answers exactly in closed form — uniform
    /// (clip midpoint), Gaussian (inverse CDF), histogram (bin scan) and
    /// discrete (weighted median) — so only mixtures (and the models'
    /// massless/degenerate edge cases) run the 60-step `mass_below`
    /// bisection of [`Pdf::split_coordinate_bisect`].
    ///
    /// Falls back to the geometric center when the region carries no mass.
    pub fn split_coordinate(&self, region: &Rect, axis: usize) -> f64 {
        match self {
            Pdf::Discrete(p) => {
                // the generic bisection assumes a continuous CDF; the
                // discrete model has an exact weighted-median answer
                return p.split_coordinate(region, axis);
            }
            // exact O(1) / one-pass medians (massless/degenerate regions
            // fall through to the generic handling below)
            Pdf::Uniform(p) => {
                if let Some(x) = p.split_coordinate(region, axis) {
                    return x;
                }
            }
            Pdf::Gaussian(p) => {
                if let Some(x) = p.split_coordinate(region, axis) {
                    return x;
                }
            }
            Pdf::Histogram(p) => {
                if let Some(x) = p.split_coordinate(region, axis) {
                    return x;
                }
            }
            Pdf::Mixture(_) => {}
        }
        self.split_coordinate_bisect(region, axis)
    }

    /// Generic split-coordinate search: 60 bisection steps on
    /// [`Pdf::mass_below`]. This is the reference path the exact
    /// per-model medians of [`Pdf::split_coordinate`] must agree with
    /// (equivalence-tested per model); mixtures and degenerate regions
    /// always take it.
    pub fn split_coordinate_bisect(&self, region: &Rect, axis: usize) -> f64 {
        let iv = region.dim(axis);
        let total = self.mass_in(region);
        if total <= MASS_EPSILON || iv.is_degenerate() {
            return iv.center();
        }
        let target = 0.5 * total;
        let (mut lo, mut hi) = (iv.lo(), iv.hi());
        // 60 bisection steps push the bracket below f64 resolution for any
        // realistic coordinate range
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.mass_below(region, axis, mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Tight bounding box of the mass inside `region`: the intersection of
    /// `region` with the support, further tightened for discrete models to
    /// the bounding box of the contained alternatives. Returns `None` when
    /// the region carries no mass.
    pub fn tighten(&self, region: &Rect) -> Option<Rect> {
        match self {
            Pdf::Discrete(p) => p.tighten(region),
            _ => {
                let clipped = self.support().intersection(region)?;
                (self.mass_in(&clipped) > MASS_EPSILON).then_some(clipped)
            }
        }
    }

    /// Appends the binary encoding ([`udb_geometry::codec`]): a one-byte
    /// family tag, then the family's defining fields. Derived fields
    /// (normalizations, running sums, supports of discrete densities and
    /// mixtures) are not written; [`Pdf::decode`] recomputes them, so a
    /// density reads back with the same bits.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Pdf::Uniform(p) => {
                out.push(TAG_UNIFORM);
                p.encode(out);
            }
            Pdf::Gaussian(p) => {
                out.push(TAG_GAUSSIAN);
                p.encode(out);
            }
            Pdf::Histogram(p) => {
                out.push(TAG_HISTOGRAM);
                p.encode(out);
            }
            Pdf::Discrete(p) => {
                out.push(TAG_DISCRETE);
                p.encode(out);
            }
            Pdf::Mixture(p) => {
                out.push(TAG_MIXTURE);
                p.encode(out);
            }
        }
    }

    /// Reads a density written by [`Pdf::encode`], through the family's
    /// checked constructor.
    ///
    /// # Errors
    /// On truncation, an unknown tag, a violated invariant (non-finite
    /// values, negative or all-zero weights, a resolution that does not
    /// match the weights, ...) or mixtures nested deeper than
    /// [`MAX_MIXTURE_NESTING`].
    pub fn decode(r: &mut Reader<'_>) -> Result<Pdf, String> {
        Pdf::decode_nested(r, 0)
    }

    fn decode_nested(r: &mut Reader<'_>, depth: usize) -> Result<Pdf, String> {
        Ok(match r.u8()? {
            TAG_UNIFORM => Pdf::Uniform(UniformPdf::decode(r)?),
            TAG_GAUSSIAN => Pdf::Gaussian(GaussianPdf::decode(r)?),
            TAG_HISTOGRAM => Pdf::Histogram(HistogramPdf::decode(r)?),
            TAG_DISCRETE => Pdf::Discrete(DiscretePdf::decode(r)?),
            TAG_MIXTURE if depth < MAX_MIXTURE_NESTING => {
                Pdf::Mixture(MixturePdf::decode(r, depth)?)
            }
            TAG_MIXTURE => {
                return Err(format!(
                    "mixtures nested deeper than {MAX_MIXTURE_NESTING} levels"
                ))
            }
            tag => return Err(format!("unknown density tag {tag}")),
        })
    }

    /// Approximates this density by `n` Monte-Carlo samples of equal weight
    /// (the discretization step of the paper's §VII comparison baseline).
    pub fn discretize<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> DiscretePdf {
        assert!(n > 0, "discretization needs at least one sample");
        let pts: Vec<Point> = (0..n).map(|_| self.sample(rng)).collect();
        DiscretePdf::equally_weighted(pts)
    }
}

impl From<UniformPdf> for Pdf {
    fn from(p: UniformPdf) -> Self {
        Pdf::Uniform(p)
    }
}
impl From<GaussianPdf> for Pdf {
    fn from(p: GaussianPdf) -> Self {
        Pdf::Gaussian(p)
    }
}
impl From<HistogramPdf> for Pdf {
    fn from(p: HistogramPdf) -> Self {
        Pdf::Histogram(p)
    }
}
impl From<DiscretePdf> for Pdf {
    fn from(p: DiscretePdf) -> Self {
        Pdf::Discrete(p)
    }
}
impl From<MixturePdf> for Pdf {
    fn from(p: MixturePdf) -> Self {
        Pdf::Mixture(p)
    }
}

/// Checks raw weights — finite, non-negative, a positive finite total —
/// and returns them normalized to sum to one, with their running sums
/// (for sampling). Weights that already sum to one up to the rounding of
/// a normalization (`2nε`) are kept bit for bit, so a serialized density
/// reads back unchanged.
fn normalize_weights(weights: Vec<f64>) -> Result<(Vec<f64>, Vec<f64>), String> {
    if !weights.iter().all(|w| w.is_finite() && *w >= 0.0) {
        return Err("weights must be non-negative and finite".to_owned());
    }
    let total: f64 = weights.iter().sum();
    if !(total > 0.0 && total.is_finite()) {
        return Err(format!(
            "at least one weight must be positive, with a finite total (got {total})"
        ));
    }
    let rounding = 2.0 * weights.len() as f64 * f64::EPSILON;
    let weights: Vec<f64> = if (total - 1.0).abs() <= rounding {
        weights
    } else {
        weights.into_iter().map(|w| w / total).collect()
    };
    let cumulative = weights
        .iter()
        .scan(0.0, |acc, &w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    Ok((weights, cumulative))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udb_geometry::Interval;

    fn unit_square() -> Rect {
        Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)])
    }

    #[test]
    fn uniform_split_coordinate_is_center() {
        let pdf = Pdf::uniform(unit_square());
        let x = pdf.split_coordinate(&unit_square(), 0);
        assert!((x - 0.5).abs() < 1e-9);
    }

    #[test]
    fn uniform_split_in_subregion() {
        let pdf = Pdf::uniform(unit_square());
        let region = Rect::new(vec![Interval::new(0.5, 1.0), Interval::new(0.0, 1.0)]);
        let x = pdf.split_coordinate(&region, 0);
        assert!((x - 0.75).abs() < 1e-9);
    }

    #[test]
    fn split_of_empty_region_falls_back_to_center() {
        let pdf = Pdf::uniform(unit_square());
        let region = Rect::new(vec![Interval::new(5.0, 6.0), Interval::new(5.0, 6.0)]);
        assert!((pdf.split_coordinate(&region, 0) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn split_halves_mass_for_gaussian() {
        let pdf: Pdf = GaussianPdf::isotropic(Point::from([0.5, 0.5]), 0.2, unit_square()).into();
        let region = unit_square();
        let x = pdf.split_coordinate(&region, 0);
        let below = pdf.mass_below(&region, 0, x);
        let total = pdf.mass_in(&region);
        assert!(
            (below - 0.5 * total).abs() < 1e-6,
            "below={below} total={total}"
        );
    }

    #[test]
    fn discretize_produces_points_in_support() {
        let mut rng = StdRng::seed_from_u64(7);
        let pdf = Pdf::uniform(unit_square());
        let d = pdf.discretize(64, &mut rng);
        assert_eq!(d.len(), 64);
        for (p, w) in d.iter() {
            assert!(unit_square().contains(p));
            assert!((w - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tighten_clips_to_support() {
        let pdf = Pdf::uniform(unit_square());
        let region = Rect::new(vec![Interval::new(0.5, 2.0), Interval::new(-1.0, 0.5)]);
        let t = pdf.tighten(&region).unwrap();
        assert_eq!(t.lo(), Point::from([0.5, 0.0]));
        assert_eq!(t.hi(), Point::from([1.0, 0.5]));
        let outside = Rect::new(vec![Interval::new(2.0, 3.0), Interval::new(2.0, 3.0)]);
        assert!(pdf.tighten(&outside).is_none());
    }

    #[test]
    fn split_halves_mass_for_skewed_histogram() {
        // 3/4 of the mass in the left half: the median along x sits inside
        // the left half, at the point where cumulative mass reaches 1/2
        let h = HistogramPdf::new(unit_square(), vec![2, 1], vec![3.0, 1.0]);
        let pdf: Pdf = h.into();
        let x = pdf.split_coordinate(&unit_square(), 0);
        // left cell density 1.5/unit: cumulative reaches 0.5 at x = 1/3
        assert!((x - 1.0 / 3.0).abs() < 1e-6, "median {x}");
        let below = pdf.mass_below(&unit_square(), 0, x);
        assert!((below - 0.5).abs() < 1e-6);
    }

    #[test]
    fn split_coordinate_of_mixture_respects_gap() {
        let left = Pdf::uniform(Rect::new(vec![
            Interval::new(0.0, 1.0),
            Interval::new(0.0, 1.0),
        ]));
        let right = Pdf::uniform(Rect::new(vec![
            Interval::new(9.0, 10.0),
            Interval::new(0.0, 1.0),
        ]));
        let m: Pdf = MixturePdf::new(vec![(1.0, left), (1.0, right)]).into();
        let support = m.support().clone();
        let x = m.split_coordinate(&support, 0);
        // equal halves: any cut inside the empty gap splits mass 50/50
        let below = m.mass_below(&support, 0, x);
        assert!((below - 0.5).abs() < 1e-6, "below {below} at cut {x}");
        assert!(x > 1.0 - 1e-6 && x < 9.0 + 1e-6, "cut {x} outside gap");
    }

    #[test]
    fn mass_in_is_clamped() {
        let pdf = Pdf::uniform(unit_square());
        assert_eq!(pdf.mass_in(&unit_square()), 1.0);
        let big = Rect::new(vec![Interval::new(-9.0, 9.0), Interval::new(-9.0, 9.0)]);
        assert_eq!(pdf.mass_in(&big), 1.0);
    }

    mod split_equivalence {
        //! The exact per-model split medians must agree with the 60-step
        //! `mass_below` bisection they replace, across random regions.

        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// Exact and bisected medians must agree to float precision
        /// relative to the searched interval, and the exact answer must
        /// actually halve the region's mass.
        fn assert_split_matches(pdf: &Pdf, region: &Rect, axis: usize) {
            let exact = pdf.split_coordinate(region, axis);
            let bisect = pdf.split_coordinate_bisect(region, axis);
            let width = region.dim(axis).len();
            assert!(
                (exact - bisect).abs() <= 1e-9 * (1.0 + width),
                "axis {axis}: exact {exact} vs bisect {bisect} (region {region:?})"
            );
            let total = pdf.mass_in(region);
            if total > 1e-9 {
                let below = pdf.mass_below(region, axis, exact);
                assert!(
                    (below - 0.5 * total).abs() <= 1e-6 * total,
                    "axis {axis}: below {below} vs half of {total}"
                );
            }
        }

        fn arb_region() -> impl Strategy<Value = Rect> {
            // regions overlapping (and sticking out of) a ~unit support
            (-0.5..0.8f64, 0.05..1.6f64, -0.5..0.8f64, 0.05..1.6f64).prop_map(|(x, w, y, h)| {
                Rect::new(vec![Interval::new(x, x + w), Interval::new(y, y + h)])
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_gaussian_split_matches_bisection(
                region in arb_region(),
                mx in 0.2..0.8f64,
                my in 0.2..0.8f64,
                sx in 0.05..0.5f64,
                sy in 0.05..0.5f64,
                axis in 0usize..2,
            ) {
                let pdf: Pdf = GaussianPdf::new(
                    Point::from([mx, my]),
                    vec![sx, sy],
                    Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]),
                ).into();
                assert_split_matches(&pdf, &region, axis);
            }

            #[test]
            fn prop_histogram_split_matches_bisection(
                region in arb_region(),
                seed in 0u64..1000,
                rx in 1usize..7,
                ry in 1usize..7,
                axis in 0usize..2,
            ) {
                use rand::rngs::StdRng;
                use rand::SeedableRng;
                let mut rng = StdRng::seed_from_u64(seed);
                // random weights with zero runs (empty-slice edge cases)
                let weights: Vec<f64> = (0..rx * ry)
                    .map(|_| if rng.gen_range(0..3) == 0 { 0.0 } else { rng.gen_range(0.1..4.0) })
                    .collect();
                if weights.iter().sum::<f64>() <= 0.0 {
                    return Ok(());
                }
                let pdf: Pdf = HistogramPdf::new(
                    Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]),
                    vec![rx, ry],
                    weights,
                ).into();
                assert_split_matches(&pdf, &region, axis);
            }
        }

        #[test]
        fn gaussian_split_off_center_support() {
            // asymmetric truncation: the median must sit left of the mean
            let pdf: Pdf = GaussianPdf::new(
                Point::from([0.9]),
                vec![0.3],
                Rect::new(vec![Interval::new(0.0, 1.0)]),
            )
            .into();
            let region = Rect::new(vec![Interval::new(0.0, 1.0)]);
            assert_split_matches(&pdf, &region, 0);
            assert!(pdf.split_coordinate(&region, 0) < 0.9);
        }

        #[test]
        fn histogram_split_with_degenerate_support_matches_step_semantics() {
            // zero-volume cells (support degenerate along y): mass_below
            // is a step function under mass_in's all-or-nothing
            // convention — the bin scan must return the bisection's
            // crossing (the start of the slice reaching half the mass),
            // not a linear interpolation across it
            let pdf: Pdf = HistogramPdf::new(
                Rect::new(vec![Interval::new(0.0, 1.0), Interval::point(0.5)]),
                vec![4, 1],
                vec![1.0; 4],
            )
            .into();
            let region = Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]);
            let exact = pdf.split_coordinate(&region, 0);
            let bisect = pdf.split_coordinate_bisect(&region, 0);
            assert!(
                (exact - bisect).abs() <= 1e-9,
                "exact {exact} vs bisect {bisect}"
            );
            assert!(
                (exact - 0.25).abs() <= 1e-9,
                "step crossing is 0.25: {exact}"
            );
        }

        #[test]
        fn histogram_split_with_empty_leading_slices() {
            // slices 0 and 1 empty along x: the median is inside slice 2+
            let pdf: Pdf = HistogramPdf::new(
                Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]),
                vec![4, 1],
                vec![0.0, 0.0, 1.0, 3.0],
            )
            .into();
            let region = Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]);
            assert_split_matches(&pdf, &region, 0);
            assert!(pdf.split_coordinate(&region, 0) > 0.5);
        }

        #[test]
        fn degenerate_axis_still_falls_back_to_center() {
            let pdf: Pdf = GaussianPdf::new(
                Point::from([0.5, 0.5]),
                vec![0.2, 0.2],
                Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)]),
            )
            .into();
            let region = Rect::new(vec![Interval::point(0.5), Interval::new(0.0, 1.0)]);
            assert_eq!(pdf.split_coordinate(&region, 0), 0.5);
        }
    }
}
