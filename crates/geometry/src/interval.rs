//! Closed one-dimensional intervals `[lo, hi]`.
//!
//! Intervals are the per-dimension projections of uncertainty regions. The
//! domination criteria of the paper (Corollary 1) work dimension-by-dimension
//! on these projections via [`Interval::min_dist`] / [`Interval::max_dist`].

use serde::{Deserialize, Serialize};

/// A closed interval `[lo, hi]` with `lo <= hi`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "IntervalRaw")]
pub struct Interval {
    lo: f64,
    hi: f64,
}

impl Interval {
    /// Creates the interval `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        Interval::try_new(lo, hi).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates the interval `[lo, hi]`, or names the violated invariant.
    /// Deserialization goes through here too.
    ///
    /// # Errors
    /// If `lo > hi` or either bound is non-finite.
    #[inline]
    pub fn try_new(lo: f64, hi: f64) -> Result<Self, String> {
        if lo.is_finite() && hi.is_finite() && lo <= hi {
            Ok(Interval { lo, hi })
        } else {
            Err(invalid_bounds(lo, hi))
        }
    }

    /// A degenerate interval `[x, x]` (a certain value).
    #[inline]
    pub fn point(x: f64) -> Self {
        Interval::new(x, x)
    }

    /// Lower bound.
    #[inline]
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    #[inline]
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Length `hi - lo`.
    #[inline]
    pub fn len(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval is a single point.
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.lo == self.hi
    }

    /// Midpoint.
    #[inline]
    pub fn center(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Whether `x` lies inside the closed interval.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Whether `other` is fully contained in `self`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// Whether the two closed intervals share at least one point.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Intersection of two intervals, if non-empty.
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then(|| Interval::new(lo, hi))
    }

    /// Smallest interval covering both inputs.
    pub fn union(&self, other: &Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    /// Minimal distance from any point of the interval to the point `x`
    /// (`0` if `x` is inside).
    ///
    /// This is the 1-D `MinDist(A_i, r_i)` of Corollary 1.
    #[inline]
    pub fn min_dist(&self, x: f64) -> f64 {
        if x < self.lo {
            self.lo - x
        } else if x > self.hi {
            x - self.hi
        } else {
            0.0
        }
    }

    /// Maximal distance from any point of the interval to the point `x`.
    ///
    /// This is the 1-D `MaxDist(A_i, r_i)` of Corollary 1.
    #[inline]
    pub fn max_dist(&self, x: f64) -> f64 {
        (x - self.lo).abs().max((x - self.hi).abs())
    }

    /// Splits the interval at `x` into `([lo, x], [x, hi])`.
    ///
    /// # Panics
    /// Panics if `x` is outside the interval.
    pub fn split_at(&self, x: f64) -> (Interval, Interval) {
        assert!(self.contains(x), "split point {x} outside {self:?}");
        (Interval::new(self.lo, x), Interval::new(x, self.hi))
    }
}

#[cold]
fn invalid_bounds(lo: f64, hi: f64) -> String {
    if lo.is_finite() && hi.is_finite() {
        format!("interval requires lo <= hi (got [{lo}, {hi}])")
    } else {
        format!("interval bounds must be finite (got [{lo}, {hi}])")
    }
}

/// The serialized form of an [`Interval`], read back through
/// [`Interval::try_new`].
#[derive(Deserialize)]
struct IntervalRaw {
    lo: f64,
    hi: f64,
}

impl TryFrom<IntervalRaw> for Interval {
    type Error = String;

    fn try_from(raw: IntervalRaw) -> Result<Self, String> {
        Interval::try_new(raw.lo, raw.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let iv = Interval::new(-1.0, 3.0);
        assert_eq!(iv.lo(), -1.0);
        assert_eq!(iv.hi(), 3.0);
        assert_eq!(iv.len(), 4.0);
        assert_eq!(iv.center(), 1.0);
        assert!(!iv.is_degenerate());
        assert!(Interval::point(2.0).is_degenerate());
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn inverted_bounds_rejected() {
        let _ = Interval::new(2.0, 1.0);
    }

    #[test]
    fn containment_and_intersection() {
        let a = Interval::new(0.0, 2.0);
        let b = Interval::new(1.0, 3.0);
        let c = Interval::new(2.5, 4.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&b), Some(Interval::new(1.0, 2.0)));
        assert_eq!(a.intersection(&c), None);
        assert!(a.contains_interval(&Interval::new(0.5, 1.5)));
        assert!(!a.contains_interval(&b));
    }

    #[test]
    fn touching_intervals_intersect() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, 2.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(Interval::point(1.0)));
    }

    #[test]
    fn min_max_dist_point_outside_below() {
        let iv = Interval::new(1.0, 3.0);
        assert_eq!(iv.min_dist(0.0), 1.0);
        assert_eq!(iv.max_dist(0.0), 3.0);
    }

    #[test]
    fn min_max_dist_point_inside() {
        let iv = Interval::new(1.0, 3.0);
        assert_eq!(iv.min_dist(2.0), 0.0);
        assert_eq!(iv.max_dist(2.0), 1.0);
        // closer to the lower end -> max dist is to the upper end
        assert_eq!(iv.max_dist(1.5), 1.5);
    }

    #[test]
    fn min_max_dist_point_above() {
        let iv = Interval::new(1.0, 3.0);
        assert_eq!(iv.min_dist(5.0), 2.0);
        assert_eq!(iv.max_dist(5.0), 4.0);
    }

    #[test]
    fn split_at_center() {
        let iv = Interval::new(0.0, 4.0);
        let (l, r) = iv.split_at(1.0);
        assert_eq!(l, Interval::new(0.0, 1.0));
        assert_eq!(r, Interval::new(1.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn split_outside_rejected() {
        Interval::new(0.0, 1.0).split_at(2.0);
    }

    #[test]
    fn union_covers_both() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(3.0, 4.0);
        assert_eq!(a.union(&b), Interval::new(0.0, 4.0));
    }

    proptest! {
        #[test]
        fn prop_min_le_max(lo in -1e3..1e3f64, len in 0.0..1e3f64, x in -2e3..2e3f64) {
            let iv = Interval::new(lo, lo + len);
            prop_assert!(iv.min_dist(x) <= iv.max_dist(x) + 1e-12);
        }

        #[test]
        fn prop_min_dist_zero_iff_contained(lo in -1e3..1e3f64, len in 0.0..1e3f64, x in -2e3..2e3f64) {
            let iv = Interval::new(lo, lo + len);
            prop_assert_eq!(iv.min_dist(x) == 0.0, iv.contains(x));
        }

        #[test]
        fn prop_endpoint_realizes_max(lo in -1e3..1e3f64, len in 0.0..1e3f64, x in -2e3..2e3f64) {
            let iv = Interval::new(lo, lo + len);
            let at_ends = (x - iv.lo()).abs().max((x - iv.hi()).abs());
            prop_assert_eq!(iv.max_dist(x), at_ends);
        }

        #[test]
        fn prop_split_preserves_cover(lo in -1e3..1e3f64, len in 1e-6..1e3f64, t in 0.0..1.0f64) {
            let iv = Interval::new(lo, lo + len);
            let x = lo + t * len;
            let (l, r) = iv.split_at(x);
            prop_assert_eq!(l.lo(), iv.lo());
            prop_assert_eq!(r.hi(), iv.hi());
            prop_assert_eq!(l.hi(), r.lo());
        }
    }
}
