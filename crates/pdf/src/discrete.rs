//! Discrete densities: finite weighted alternatives.
//!
//! "In many applications, a discrete uncertainty model is appropriate,
//! meaning that the probability distribution of an uncertain object is
//! given by a finite number of alternatives assigned with probabilities.
//! This can be seen as a special case of our model." (§I-A). The
//! Monte-Carlo comparison baseline of §VII also runs entirely on this
//! model.

use rand::Rng;
use serde::{Deserialize, Serialize};
use udb_geometry::codec::{self, Reader};
use udb_geometry::{Point, Rect};

use crate::math::search_cumulative;

/// A finite set of weighted point alternatives (weights normalized to one).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "DiscreteRaw")]
pub struct DiscretePdf {
    points: Vec<Point>,
    weights: Vec<f64>,
    cumulative: Vec<f64>,
    support: Rect,
}

impl DiscretePdf {
    /// Builds a discrete density; weights are normalized.
    ///
    /// # Panics
    /// Panics if `points` is empty, lengths mismatch, weights are negative
    /// or all zero, or dimensionalities differ.
    pub fn new(points: Vec<Point>, weights: Vec<f64>) -> Self {
        DiscretePdf::try_new(points, weights).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DiscretePdf::new`], naming the violated invariant instead of
    /// panicking. Deserialization goes through here, so the support and
    /// the running sums are always derived, never read.
    ///
    /// # Errors
    /// On the conditions under which [`DiscretePdf::new`] panics.
    pub fn try_new(points: Vec<Point>, weights: Vec<f64>) -> Result<Self, String> {
        let Some(first) = points.first() else {
            return Err("discrete pdf needs at least one alternative".to_owned());
        };
        if points.len() != weights.len() {
            return Err("points/weights length mismatch".to_owned());
        }
        if points.iter().any(|p| p.dims() != first.dims()) {
            return Err("all alternatives must share dimensionality".to_owned());
        }
        let (weights, cumulative) = crate::normalize_weights(weights)?;
        let support = bbox(&points);
        Ok(DiscretePdf {
            points,
            weights,
            cumulative,
            support,
        })
    }

    /// Discrete density with uniform weights (the shape produced by
    /// Monte-Carlo discretization).
    pub fn equally_weighted(points: Vec<Point>) -> Self {
        let n = points.len();
        DiscretePdf::new(points, vec![1.0; n])
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether there are no alternatives (never true for a constructed
    /// value; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over `(point, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Point, f64)> {
        self.points.iter().zip(self.weights.iter().copied())
    }

    /// The alternatives.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Minimal bounding box of the alternatives.
    pub fn support(&self) -> &Rect {
        &self.support
    }

    /// Appends the binary encoding: the alternatives, then their
    /// normalized weights (the support and running sums are recomputed
    /// on decoding).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        codec::put_len(out, self.points.len());
        for p in &self.points {
            p.encode(out);
        }
        codec::put_f64s(out, &self.weights);
    }

    /// Reads a density written by [`DiscretePdf::encode`], through
    /// [`DiscretePdf::try_new`].
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, String> {
        // a point is at least its count and one coordinate
        let n = r.len(16)?;
        let points = (0..n)
            .map(|_| Point::decode(r))
            .collect::<Result<Vec<Point>, String>>()?;
        DiscretePdf::try_new(points, r.f64s()?)
    }

    /// `P(X ∈ region)` — sum of weights of contained alternatives.
    pub fn mass_in(&self, region: &Rect) -> f64 {
        self.iter()
            .filter(|(p, _)| region.contains(p))
            .map(|(_, w)| w)
            .sum()
    }

    /// `P(X ∈ region ∧ X_axis < x)` — strict, so a split coordinate that
    /// coincides with an alternative assigns that alternative entirely to
    /// the upper side.
    pub fn mass_below(&self, region: &Rect, axis: usize, x: f64) -> f64 {
        self.iter()
            .filter(|(p, _)| region.contains(p) && p[axis] < x)
            .map(|(_, w)| w)
            .sum()
    }

    /// Categorical sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Point {
        let u: f64 = rng.gen();
        self.points[search_cumulative(&self.cumulative, u)].clone()
    }

    /// Weighted mean.
    pub fn mean(&self) -> Point {
        let d = self.points[0].dims();
        let mut acc = vec![0.0f64; d];
        for (p, w) in self.iter() {
            for (a, &c) in acc.iter_mut().zip(p.coords()) {
                *a += w * c;
            }
        }
        Point::new(acc)
    }

    /// Weighted-median split coordinate inside `region` along `axis`:
    /// picks the smallest alternative coordinate `x` such that the strict
    /// below-mass reaches half of the region's mass, which balances the
    /// two halves as well as a single cut can.
    pub fn split_coordinate(&self, region: &Rect, axis: usize) -> f64 {
        let mut inside: Vec<(f64, f64)> = self
            .iter()
            .filter(|(p, _)| region.contains(p))
            .map(|(p, w)| (p[axis], w))
            .collect();
        if inside.is_empty() {
            return region.dim(axis).center();
        }
        inside.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN coordinate"));
        let total: f64 = inside.iter().map(|(_, w)| w).sum();
        let half = 0.5 * total;
        // candidate cuts are the distinct coordinates; a cut at `c` puts
        // every alternative with coordinate < c strictly below — pick the
        // cut whose below-mass is closest to half the total
        let mut best = (inside[0].0, half); // (cut, |below − half|); below = 0 initially
        let mut acc = 0.0;
        let mut i = 0;
        while i < inside.len() {
            let coord = inside[i].0;
            let err = (acc - half).abs();
            if err < best.1 {
                best = (coord, err);
            }
            // accumulate all alternatives sharing this coordinate
            while i < inside.len() && inside[i].0 == coord {
                acc += inside[i].1;
                i += 1;
            }
        }
        best.0
    }

    /// Tight bounding box of alternatives inside `region`, or `None` if the
    /// region contains none.
    pub fn tighten(&self, region: &Rect) -> Option<Rect> {
        let contained: Vec<&Point> = self.points.iter().filter(|p| region.contains(p)).collect();
        if contained.is_empty() {
            return None;
        }
        Some(bbox_refs(&contained))
    }
}

/// The serialized form of a [`DiscretePdf`]: the derived fields are
/// recomputed by [`DiscretePdf::try_new`].
#[derive(Deserialize)]
struct DiscreteRaw {
    points: Vec<Point>,
    weights: Vec<f64>,
}

impl TryFrom<DiscreteRaw> for DiscretePdf {
    type Error = String;

    fn try_from(raw: DiscreteRaw) -> Result<Self, String> {
        DiscretePdf::try_new(raw.points, raw.weights)
    }
}

fn bbox(points: &[Point]) -> Rect {
    let refs: Vec<&Point> = points.iter().collect();
    bbox_refs(&refs)
}

fn bbox_refs(points: &[&Point]) -> Rect {
    let d = points[0].dims();
    let mut lo = vec![f64::INFINITY; d];
    let mut hi = vec![f64::NEG_INFINITY; d];
    for p in points {
        for i in 0..d {
            lo[i] = lo[i].min(p[i]);
            hi[i] = hi[i].max(p[i]);
        }
    }
    Rect::from_corners(&Point::new(lo), &Point::new(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udb_geometry::Interval;

    fn three_points() -> DiscretePdf {
        DiscretePdf::new(
            vec![
                Point::from([0.0, 0.0]),
                Point::from([1.0, 0.0]),
                Point::from([0.0, 2.0]),
            ],
            vec![1.0, 2.0, 1.0],
        )
    }

    #[test]
    fn weights_are_normalized() {
        let d = three_points();
        let w = d.weights();
        assert!((w[0] - 0.25).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert!((w[2] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn support_is_bbox() {
        let d = three_points();
        assert_eq!(d.support().lo(), Point::from([0.0, 0.0]));
        assert_eq!(d.support().hi(), Point::from([1.0, 2.0]));
    }

    #[test]
    fn mass_in_counts_contained() {
        let d = three_points();
        let left = Rect::new(vec![Interval::new(-0.5, 0.5), Interval::new(-0.5, 2.5)]);
        assert!((d.mass_in(&left) - 0.5).abs() < 1e-12);
        assert!((d.mass_in(d.support()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mass_below_is_strict() {
        let d = three_points();
        let all = d.support().clone();
        // two alternatives have x == 0.0; strict comparison excludes them
        assert_eq!(d.mass_below(&all, 0, 0.0), 0.0);
        assert!((d.mass_below(&all, 0, 0.5) - 0.5).abs() < 1e-12);
        assert!((d.mass_below(&all, 0, 1.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn split_coordinate_balances_mass() {
        let d = three_points();
        let all = d.support().clone();
        let x = d.split_coordinate(&all, 0);
        // cutting at x = 1.0 puts mass 0.5 strictly below and 0.5 at/above
        assert_eq!(x, 1.0);
        assert!((d.mass_below(&all, 0, x) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn split_coordinate_empty_region_falls_back() {
        let d = three_points();
        let empty = Rect::new(vec![Interval::new(5.0, 6.0), Interval::new(5.0, 6.0)]);
        assert!((d.split_coordinate(&empty, 0) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn tighten_shrinks_to_contained_points() {
        let d = three_points();
        let left = Rect::new(vec![Interval::new(-0.5, 0.5), Interval::new(-0.5, 2.5)]);
        let t = d.tighten(&left).unwrap();
        assert_eq!(t.lo(), Point::from([0.0, 0.0]));
        assert_eq!(t.hi(), Point::from([0.0, 2.0]));
        let nothing = Rect::new(vec![Interval::new(5.0, 6.0), Interval::new(5.0, 6.0)]);
        assert!(d.tighten(&nothing).is_none());
    }

    #[test]
    fn sampling_matches_weights() {
        let d = three_points();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let mut hit1 = 0usize;
        for _ in 0..n {
            if d.sample(&mut rng) == Point::from([1.0, 0.0]) {
                hit1 += 1;
            }
        }
        let f = hit1 as f64 / n as f64;
        assert!((f - 0.5).abs() < 0.02, "fraction {f}");
    }

    #[test]
    fn mean_is_weighted() {
        let d = three_points();
        let m = d.mean();
        assert!((m[0] - 0.5).abs() < 1e-12);
        assert!((m[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn single_point_is_certain() {
        let d = DiscretePdf::equally_weighted(vec![Point::from([3.0, 4.0])]);
        assert_eq!(d.len(), 1);
        assert!(d.support().is_point());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), Point::from([3.0, 4.0]));
    }

    #[test]
    fn normalized_weights_are_kept_bit_for_bit() {
        // ten weights of 0.1 sum to 0.9999999999999999; dividing by that
        // again would change every weight, and a deserialized density
        // would not equal the one that was written
        let points = (0..10).map(|i| Point::from([f64::from(i)])).collect();
        let pdf = DiscretePdf::equally_weighted(points);
        assert_ne!(pdf.weights().iter().sum::<f64>(), 1.0);
        let again = DiscretePdf::try_new(pdf.points().to_vec(), pdf.weights().to_vec()).unwrap();
        let bits = |p: &DiscretePdf| p.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&again), bits(&pdf));
    }

    #[test]
    #[should_panic(expected = "at least one alternative")]
    fn empty_rejected() {
        let _ = DiscretePdf::new(vec![], vec![]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_weights_rejected() {
        let _ = DiscretePdf::new(vec![Point::from([0.0])], vec![1.0, 2.0]);
    }
}
