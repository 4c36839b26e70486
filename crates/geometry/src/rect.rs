//! Axis-aligned rectangles (uncertainty regions / MBRs).

use serde::{Deserialize, Serialize};

use crate::codec::{self, Reader};
use crate::interval::Interval;
use crate::norm::LpNorm;
use crate::point::Point;

/// An axis-aligned closed box in `R^d`, the uncertainty-region shape assumed
/// throughout the paper ("each uncertain object can be considered as a
/// d-dimensional rectangle with an associated multi-dimensional object PDF").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "RectRaw")]
pub struct Rect {
    dims: Box<[Interval]>,
}

/// The serialized form of a [`Rect`]; its intervals are checked as they
/// are read.
#[derive(Deserialize)]
struct RectRaw {
    dims: Box<[Interval]>,
}

/// The checked constructor behind [`Rect::new`] and deserialization.
impl TryFrom<RectRaw> for Rect {
    type Error = String;

    fn try_from(RectRaw { dims }: RectRaw) -> Result<Self, String> {
        if dims.is_empty() {
            Err("rectangles need at least one dimension".to_owned())
        } else {
            Ok(Rect { dims })
        }
    }
}

impl Rect {
    /// Builds a rectangle from per-dimension intervals.
    ///
    /// # Panics
    /// Panics if `dims` is empty.
    pub fn new(dims: impl Into<Box<[Interval]>>) -> Self {
        Rect::try_from(RectRaw { dims: dims.into() }).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds from corner points `lo` / `hi`.
    ///
    /// # Panics
    /// Panics on dimension mismatch or if `lo[i] > hi[i]` for some `i`.
    pub fn from_corners(lo: &Point, hi: &Point) -> Self {
        assert_eq!(lo.dims(), hi.dims(), "corner dimensionality mismatch");
        Rect::new(
            lo.coords()
                .iter()
                .zip(hi.coords().iter())
                .map(|(&l, &h)| Interval::new(l, h))
                .collect::<Vec<_>>(),
        )
    }

    /// A degenerate rectangle containing exactly `p` (a certain point).
    pub fn from_point(p: &Point) -> Self {
        Rect::new(
            p.coords()
                .iter()
                .map(|&c| Interval::point(c))
                .collect::<Vec<_>>(),
        )
    }

    /// A rectangle centered at `center` with half-extent `ext[i]` per
    /// dimension.
    pub fn centered(center: &Point, half_extents: &[f64]) -> Self {
        assert_eq!(center.dims(), half_extents.len());
        Rect::new(
            center
                .coords()
                .iter()
                .zip(half_extents.iter())
                .map(|(&c, &e)| {
                    assert!(e >= 0.0, "half extents must be non-negative");
                    Interval::new(c - e, c + e)
                })
                .collect::<Vec<_>>(),
        )
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// Projection interval in dimension `i` (the `A_i` of Corollary 1).
    #[inline]
    pub fn dim(&self, i: usize) -> Interval {
        self.dims[i]
    }

    /// All projection intervals.
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        &self.dims
    }

    /// Appends the binary encoding: the dimension count, then each
    /// interval's `lo` and `hi` ([`crate::codec`]).
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_len(out, self.dims.len());
        for iv in self.dims.iter() {
            codec::put_f64(out, iv.lo());
            codec::put_f64(out, iv.hi());
        }
    }

    /// Reads a rectangle written by [`Rect::encode`], every interval
    /// through [`Interval::try_new`].
    ///
    /// # Errors
    /// On truncation, no dimensions or an invalid interval.
    pub fn decode(r: &mut Reader<'_>) -> Result<Rect, String> {
        let n = r.len(16)?;
        let dims = (0..n)
            .map(|_| Interval::try_new(r.f64()?, r.f64()?))
            .collect::<Result<Box<[Interval]>, String>>()?;
        Rect::try_from(RectRaw { dims })
    }

    /// Lower corner.
    pub fn lo(&self) -> Point {
        Point::new(self.dims.iter().map(|iv| iv.lo()).collect::<Vec<_>>())
    }

    /// Upper corner.
    pub fn hi(&self) -> Point {
        Point::new(self.dims.iter().map(|iv| iv.hi()).collect::<Vec<_>>())
    }

    /// Center point.
    pub fn center(&self) -> Point {
        Point::new(self.dims.iter().map(|iv| iv.center()).collect::<Vec<_>>())
    }

    /// Side length in dimension `i`.
    #[inline]
    pub fn extent(&self, i: usize) -> f64 {
        self.dims[i].len()
    }

    /// Largest side length and its dimension index.
    pub fn longest_extent(&self) -> (usize, f64) {
        self.dims
            .iter()
            .enumerate()
            .map(|(i, iv)| (i, iv.len()))
            .fold((0, f64::NEG_INFINITY), |best, cur| {
                if cur.1 > best.1 {
                    cur
                } else {
                    best
                }
            })
    }

    /// d-dimensional volume (product of side lengths).
    pub fn volume(&self) -> f64 {
        self.dims.iter().map(|iv| iv.len()).product()
    }

    /// Sum of side lengths (the R*-tree "margin" surrogate).
    pub fn margin(&self) -> f64 {
        self.dims.iter().map(|iv| iv.len()).sum()
    }

    /// Whether the rectangle is a single point in every dimension.
    pub fn is_point(&self) -> bool {
        self.dims.iter().all(Interval::is_degenerate)
    }

    /// Whether `p` lies inside the closed box.
    pub fn contains(&self, p: &Point) -> bool {
        debug_assert_eq!(self.dims(), p.dims());
        self.dims
            .iter()
            .zip(p.coords().iter())
            .all(|(iv, &c)| iv.contains(c))
    }

    /// Whether `other` is fully contained in `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.dims
            .iter()
            .zip(other.dims.iter())
            .all(|(a, b)| a.contains_interval(b))
    }

    /// Whether the two closed boxes share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        self.dims
            .iter()
            .zip(other.dims.iter())
            .all(|(a, b)| a.intersects(b))
    }

    /// Intersection box, if non-empty.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        debug_assert_eq!(self.dims(), other.dims());
        let mut dims = Vec::with_capacity(self.dims());
        for (a, b) in self.dims.iter().zip(other.dims.iter()) {
            dims.push(a.intersection(b)?);
        }
        Some(Rect::new(dims))
    }

    /// Smallest box covering both inputs.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dims(), other.dims());
        Rect::new(
            self.dims
                .iter()
                .zip(other.dims.iter())
                .map(|(a, b)| a.union(b))
                .collect::<Vec<_>>(),
        )
    }

    /// Smallest box covering all `rects`.
    ///
    /// # Panics
    /// Panics if `rects` is empty.
    pub fn union_all<'a>(mut rects: impl Iterator<Item = &'a Rect>) -> Rect {
        let first = rects
            .next()
            .expect("union_all needs at least one rect")
            .clone();
        rects.fold(first, |acc, r| acc.union(r))
    }

    /// Minimal distance between the box and point `q` under `norm`
    /// (`0` if `q` is inside).
    pub fn min_dist(&self, q: &Point, norm: LpNorm) -> f64 {
        norm.root(self.min_dist_pow(q, norm))
    }

    /// `MinDist^p` — comparison-safe power form.
    pub fn min_dist_pow(&self, q: &Point, norm: LpNorm) -> f64 {
        debug_assert_eq!(self.dims(), q.dims());
        norm.aggregate(
            self.dims
                .iter()
                .zip(q.coords().iter())
                .map(|(iv, &c)| norm.pow(iv.min_dist(c))),
        )
    }

    /// Maximal distance between the box and point `q` under `norm`.
    pub fn max_dist(&self, q: &Point, norm: LpNorm) -> f64 {
        norm.root(self.max_dist_pow(q, norm))
    }

    /// `MaxDist^p` — comparison-safe power form.
    pub fn max_dist_pow(&self, q: &Point, norm: LpNorm) -> f64 {
        debug_assert_eq!(self.dims(), q.dims());
        norm.aggregate(
            self.dims
                .iter()
                .zip(q.coords().iter())
                .map(|(iv, &c)| norm.pow(iv.max_dist(c))),
        )
    }

    /// Minimal distance between two boxes under `norm` (`0` if they
    /// intersect).
    pub fn min_dist_rect(&self, other: &Rect, norm: LpNorm) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        let agg = norm.aggregate(self.dims.iter().zip(other.dims.iter()).map(|(a, b)| {
            let gap = if a.hi() < b.lo() {
                b.lo() - a.hi()
            } else if b.hi() < a.lo() {
                a.lo() - b.hi()
            } else {
                0.0
            };
            norm.pow(gap)
        }));
        norm.root(agg)
    }

    /// Maximal distance between two boxes under `norm`.
    pub fn max_dist_rect(&self, other: &Rect, norm: LpNorm) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        let agg = norm.aggregate(self.dims.iter().zip(other.dims.iter()).map(|(a, b)| {
            let d = (a.hi() - b.lo()).abs().max((b.hi() - a.lo()).abs());
            norm.pow(d)
        }));
        norm.root(agg)
    }

    /// Splits the box in dimension `axis` at coordinate `x`, producing the
    /// lower and upper halves.
    ///
    /// # Panics
    /// Panics if `x` is outside the box's projection on `axis`.
    pub fn split(&self, axis: usize, x: f64) -> (Rect, Rect) {
        let (lo_iv, hi_iv) = self.dims[axis].split_at(x);
        let mut lo = self.dims.to_vec();
        let mut hi = self.dims.to_vec();
        lo[axis] = lo_iv;
        hi[axis] = hi_iv;
        (Rect::new(lo), Rect::new(hi))
    }

    /// All `2^d` corner points (used by exhaustive domination oracles in
    /// tests; exponential, only call for small `d`).
    pub fn corners(&self) -> Vec<Point> {
        let d = self.dims();
        assert!(d <= 20, "corners() is exponential in dimensionality");
        let mut out = Vec::with_capacity(1 << d);
        for mask in 0u32..(1 << d) {
            let coords: Vec<f64> = (0..d)
                .map(|i| {
                    if mask & (1 << i) == 0 {
                        self.dims[i].lo()
                    } else {
                        self.dims[i].hi()
                    }
                })
                .collect();
            out.push(Point::new(coords));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_square() -> Rect {
        Rect::from_corners(&Point::from([0.0, 0.0]), &Point::from([1.0, 1.0]))
    }

    #[test]
    fn corners_and_center() {
        let r = unit_square();
        assert_eq!(r.lo(), Point::from([0.0, 0.0]));
        assert_eq!(r.hi(), Point::from([1.0, 1.0]));
        assert_eq!(r.center(), Point::from([0.5, 0.5]));
        assert_eq!(r.volume(), 1.0);
        assert_eq!(r.margin(), 2.0);
        assert_eq!(r.corners().len(), 4);
    }

    #[test]
    fn point_rect_is_degenerate() {
        let r = Rect::from_point(&Point::from([2.0, 3.0]));
        assert!(r.is_point());
        assert_eq!(r.volume(), 0.0);
        assert!(r.contains(&Point::from([2.0, 3.0])));
        assert!(!r.contains(&Point::from([2.0, 3.1])));
    }

    #[test]
    fn centered_construction() {
        let r = Rect::centered(&Point::from([1.0, 1.0]), &[0.5, 0.25]);
        assert_eq!(r.lo(), Point::from([0.5, 0.75]));
        assert_eq!(r.hi(), Point::from([1.5, 1.25]));
    }

    #[test]
    fn containment_checks() {
        let r = unit_square();
        assert!(r.contains(&Point::from([0.0, 1.0]))); // boundary inclusive
        assert!(r.contains_rect(&Rect::centered(&Point::from([0.5, 0.5]), &[0.1, 0.1])));
        assert!(!r.contains_rect(&Rect::centered(&Point::from([0.95, 0.5]), &[0.1, 0.1])));
    }

    #[test]
    fn intersection_union() {
        let a = unit_square();
        let b = Rect::from_corners(&Point::from([0.5, 0.5]), &Point::from([2.0, 2.0]));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i.lo(), Point::from([0.5, 0.5]));
        assert_eq!(i.hi(), Point::from([1.0, 1.0]));
        let u = a.union(&b);
        assert_eq!(u.lo(), Point::from([0.0, 0.0]));
        assert_eq!(u.hi(), Point::from([2.0, 2.0]));

        let far = Rect::from_corners(&Point::from([5.0, 5.0]), &Point::from([6.0, 6.0]));
        assert!(a.intersection(&far).is_none());
        assert!(!a.intersects(&far));
    }

    #[test]
    fn union_all_covers_everything() {
        let rects = [
            Rect::from_point(&Point::from([0.0, 0.0])),
            Rect::from_point(&Point::from([1.0, 5.0])),
            Rect::from_point(&Point::from([-2.0, 3.0])),
        ];
        let u = Rect::union_all(rects.iter());
        assert_eq!(u.lo(), Point::from([-2.0, 0.0]));
        assert_eq!(u.hi(), Point::from([1.0, 5.0]));
    }

    #[test]
    fn min_max_dist_to_point() {
        let r = unit_square();
        let q = Point::from([2.0, 0.5]);
        assert_eq!(r.min_dist(&q, LpNorm::L2), 1.0);
        // farthest corner is (0,0) or (0,1): sqrt(4 + 0.25)
        assert!((r.max_dist(&q, LpNorm::L2) - (4.25f64).sqrt()).abs() < 1e-12);
        // inside point
        let inside = Point::from([0.5, 0.5]);
        assert_eq!(r.min_dist(&inside, LpNorm::L2), 0.0);
        assert!((r.max_dist(&inside, LpNorm::L2) - (0.5f64.powi(2) * 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn rect_to_rect_distances() {
        let a = unit_square();
        let b = Rect::from_corners(&Point::from([2.0, 0.0]), &Point::from([3.0, 1.0]));
        assert_eq!(a.min_dist_rect(&b, LpNorm::L2), 1.0);
        assert!((a.max_dist_rect(&b, LpNorm::L2) - (9.0f64 + 1.0).sqrt()).abs() < 1e-12);
        // overlapping boxes -> min dist 0
        let c = Rect::from_corners(&Point::from([0.5, 0.5]), &Point::from([1.5, 1.5]));
        assert_eq!(a.min_dist_rect(&c, LpNorm::L2), 0.0);
    }

    #[test]
    fn split_partitions_box() {
        let r = unit_square();
        let (lo, hi) = r.split(0, 0.3);
        assert_eq!(lo.hi(), Point::from([0.3, 1.0]));
        assert_eq!(hi.lo(), Point::from([0.3, 0.0]));
        assert!((lo.volume() + hi.volume() - r.volume()).abs() < 1e-12);
    }

    #[test]
    fn longest_extent_picks_widest_axis() {
        let r = Rect::from_corners(&Point::from([0.0, 0.0]), &Point::from([1.0, 3.0]));
        assert_eq!(r.longest_extent(), (1, 3.0));
    }

    fn arb_rect() -> impl Strategy<Value = Rect> {
        (-10.0..10.0f64, 0.0..5.0f64, -10.0..10.0f64, 0.0..5.0f64).prop_map(|(x, w, y, h)| {
            Rect::from_corners(&Point::from([x, y]), &Point::from([x + w, y + h]))
        })
    }

    proptest! {
        #[test]
        fn prop_min_le_max_point(r in arb_rect(), qx in -20.0..20.0f64, qy in -20.0..20.0f64) {
            let q = Point::from([qx, qy]);
            for n in [LpNorm::L1, LpNorm::L2, LpNorm::LInf] {
                prop_assert!(r.min_dist(&q, n) <= r.max_dist(&q, n) + 1e-9);
            }
        }

        #[test]
        fn prop_corner_realizes_max_dist(r in arb_rect(), qx in -20.0..20.0f64, qy in -20.0..20.0f64) {
            let q = Point::from([qx, qy]);
            let best = r
                .corners()
                .iter()
                .map(|c| LpNorm::L2.dist(c, &q))
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((r.max_dist(&q, LpNorm::L2) - best).abs() < 1e-9);
        }

        #[test]
        fn prop_min_dist_zero_iff_inside(r in arb_rect(), qx in -20.0..20.0f64, qy in -20.0..20.0f64) {
            let q = Point::from([qx, qy]);
            prop_assert_eq!(r.min_dist(&q, LpNorm::L2) == 0.0, r.contains(&q));
        }

        #[test]
        fn prop_rect_min_dist_consistent_with_sampling(a in arb_rect(), b in arb_rect()) {
            // the box-to-box MinDist must lower-bound the distance between any
            // pair of corner points
            let md = a.min_dist_rect(&b, LpNorm::L2);
            for ca in a.corners() {
                for cb in b.corners() {
                    prop_assert!(md <= LpNorm::L2.dist(&ca, &cb) + 1e-9);
                }
            }
        }

        #[test]
        fn prop_rect_max_dist_attained_at_corners(a in arb_rect(), b in arb_rect()) {
            let xd = a.max_dist_rect(&b, LpNorm::L2);
            let best = a
                .corners()
                .iter()
                .flat_map(|ca| b.corners().into_iter().map(move |cb| LpNorm::L2.dist(ca, &cb)))
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((xd - best).abs() < 1e-9);
        }

        #[test]
        fn prop_union_contains_both(a in arb_rect(), b in arb_rect()) {
            let u = a.union(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }
    }
}
