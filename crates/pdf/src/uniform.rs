//! Uniform density over a rectangular uncertainty region.
//!
//! This is the model of the paper's synthetic workload: "10,000 objects
//! modeled as 2D rectangles" with extents drawn uniformly — the density
//! inside each rectangle is uniform.

use rand::Rng;
use serde::{Deserialize, Serialize};
use udb_geometry::codec::Reader;
use udb_geometry::{Point, Rect};

/// Uniform density over a support rectangle.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "UniformRaw")]
pub struct UniformPdf {
    support: Rect,
    /// Cached `1 / volume`; `None` for degenerate (zero-volume) supports,
    /// in which case the mass concentrates uniformly on the degenerate box.
    inv_volume: Option<f64>,
}

/// The serialized form of a [`UniformPdf`]: the inverse volume is
/// recomputed by [`UniformPdf::new`].
#[derive(Deserialize)]
struct UniformRaw {
    support: Rect,
}

impl From<UniformRaw> for UniformPdf {
    fn from(raw: UniformRaw) -> Self {
        UniformPdf::new(raw.support)
    }
}

impl UniformPdf {
    /// Uniform density over `support`. Degenerate boxes (zero extent in
    /// some dimension) are allowed and treated as lower-dimensional uniform
    /// distributions (a point box is a certain object).
    pub fn new(support: Rect) -> Self {
        let vol = support.volume();
        UniformPdf {
            support,
            inv_volume: (vol > 0.0).then(|| 1.0 / vol),
        }
    }

    /// The support rectangle.
    pub fn support(&self) -> &Rect {
        &self.support
    }

    /// Appends the binary encoding: the support (the inverse volume is
    /// recomputed on decoding).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        self.support.encode(out);
    }

    /// Reads a density written by [`UniformPdf::encode`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        Ok(UniformPdf::new(Rect::decode(r)?))
    }

    /// Fraction of the support contained in `region`, handling degenerate
    /// dimensions (where containment of the single coordinate decides).
    fn fraction(&self, region: &Rect) -> f64 {
        let Some(clip) = self.support.intersection(region) else {
            return 0.0;
        };
        let mut frac = 1.0;
        for i in 0..self.support.dims() {
            let s = self.support.dim(i);
            let c = clip.dim(i);
            if s.is_degenerate() {
                // the full mass of this dimension sits at s.lo(); the clip
                // already guarantees it is contained
                continue;
            }
            frac *= c.len() / s.len();
        }
        frac
    }

    /// `P(X ∈ region)`.
    pub fn mass_in(&self, region: &Rect) -> f64 {
        self.fraction(region)
    }

    /// `P(X ∈ region ∧ X_axis < x)`; the open boundary is mass-free for a
    /// continuous density, so the closed computation applies.
    pub fn mass_below(&self, region: &Rect, axis: usize, x: f64) -> f64 {
        let iv = region.dim(axis);
        if x <= iv.lo() {
            return 0.0;
        }
        let clipped_hi = x.min(iv.hi());
        let mut dims = region.intervals().to_vec();
        dims[axis] = udb_geometry::Interval::new(iv.lo(), clipped_hi);
        self.mass_in(&Rect::new(dims))
    }

    /// Uniform sample from the support.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        Point::new(
            self.support
                .intervals()
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
    }

    /// Conditional median of `X_axis` given `X ∈ region` — exact for the
    /// uniform model: the marginal along `axis` is uniform over the
    /// region clipped to the support, so the median is the clip's
    /// midpoint. This is the O(1) answer the generic bisection of
    /// `Pdf::split_coordinate` converges to in 60 `mass_below`
    /// evaluations. Returns `None` when the region carries no mass or is
    /// degenerate along `axis`, letting the caller fall back to its
    /// generic handling.
    pub fn split_coordinate(&self, region: &Rect, axis: usize) -> Option<f64> {
        let clip = self.support.intersection(region)?;
        let iv = clip.dim(axis);
        (!iv.is_degenerate()).then(|| iv.center())
    }

    /// The center of the support.
    pub fn mean(&self) -> Point {
        self.support.center()
    }

    /// Whether the support has zero volume.
    pub fn is_degenerate(&self) -> bool {
        self.inv_volume.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udb_geometry::Interval;

    fn unit_square() -> Rect {
        Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 1.0)])
    }

    #[test]
    fn full_mass_on_support() {
        let p = UniformPdf::new(unit_square());
        assert!((p.mass_in(&unit_square()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quarter_mass_on_quadrant() {
        let p = UniformPdf::new(unit_square());
        let q = Rect::new(vec![Interval::new(0.0, 0.5), Interval::new(0.0, 0.5)]);
        assert!((p.mass_in(&q) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_mass_outside() {
        let p = UniformPdf::new(unit_square());
        let out = Rect::new(vec![Interval::new(2.0, 3.0), Interval::new(2.0, 3.0)]);
        assert_eq!(p.mass_in(&out), 0.0);
    }

    #[test]
    fn mass_below_is_cdf_along_axis() {
        let p = UniformPdf::new(unit_square());
        assert!((p.mass_below(&unit_square(), 0, 0.25) - 0.25).abs() < 1e-12);
        assert_eq!(p.mass_below(&unit_square(), 0, 0.0), 0.0);
        assert!((p.mass_below(&unit_square(), 0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_support_is_certain_point() {
        let pt = Rect::from_point(&Point::from([0.3, 0.7]));
        let p = UniformPdf::new(pt);
        assert!(p.is_degenerate());
        assert!((p.mass_in(&unit_square()) - 1.0).abs() < 1e-12);
        let missing = Rect::new(vec![Interval::new(0.4, 1.0), Interval::new(0.0, 1.0)]);
        assert_eq!(p.mass_in(&missing), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.sample(&mut rng), Point::from([0.3, 0.7]));
    }

    #[test]
    fn partially_degenerate_support() {
        // a vertical segment: certain x, uncertain y
        let seg = Rect::new(vec![Interval::point(0.5), Interval::new(0.0, 1.0)]);
        let p = UniformPdf::new(seg);
        let lower_half = Rect::new(vec![Interval::new(0.0, 1.0), Interval::new(0.0, 0.5)]);
        assert!((p.mass_in(&lower_half) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn samples_inside_support() {
        let p = UniformPdf::new(unit_square());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            assert!(unit_square().contains(&p.sample(&mut rng)));
        }
    }

    #[test]
    fn mean_is_center() {
        let p = UniformPdf::new(unit_square());
        assert_eq!(p.mean(), Point::from([0.5, 0.5]));
    }

    proptest! {
        #[test]
        fn prop_mass_additive_under_split(split in 0.001..0.999f64) {
            let p = UniformPdf::new(unit_square());
            let below = p.mass_below(&unit_square(), 0, split);
            let upper = Rect::new(vec![Interval::new(split, 1.0), Interval::new(0.0, 1.0)]);
            prop_assert!((below + p.mass_in(&upper) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn prop_mass_monotone_in_region(a in 0.0..0.5f64, b in 0.5..1.0f64) {
            let p = UniformPdf::new(unit_square());
            let small = Rect::new(vec![Interval::new(a, b), Interval::new(a, b)]);
            let big = Rect::new(vec![Interval::new(a / 2.0, (b + 1.0) / 2.0), Interval::new(a / 2.0, (b + 1.0) / 2.0)]);
            prop_assert!(p.mass_in(&small) <= p.mass_in(&big) + 1e-12);
        }
    }
}
