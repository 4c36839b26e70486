//! Points in `R^d`.

use serde::{Deserialize, Serialize};

use crate::codec::{self, Reader};
use std::ops::{Index, IndexMut};

/// A point in `R^d`, stored as a boxed slice to keep the type two words wide.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "Box<[f64]>")]
pub struct Point(Box<[f64]>);

impl Point {
    /// Creates a point from coordinates.
    ///
    /// # Panics
    /// Panics if `coords` is empty or contains a non-finite value.
    pub fn new(coords: impl Into<Box<[f64]>>) -> Self {
        Point::try_from(coords.into()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The origin of `R^d`.
    pub fn origin(dims: usize) -> Self {
        Point::new(vec![0.0; dims])
    }

    /// Number of dimensions.
    #[inline]
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Coordinates as a slice.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.0
    }

    /// Appends the binary encoding: the coordinates as a count-prefixed
    /// run of `f64`s ([`crate::codec`]).
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_f64s(out, &self.0);
    }

    /// Reads a point written by [`Point::encode`], through the checked
    /// constructor.
    ///
    /// # Errors
    /// On truncation, no coordinates or a non-finite coordinate.
    pub fn decode(r: &mut Reader<'_>) -> Result<Point, String> {
        Point::try_from(r.f64s()?.into_boxed_slice())
    }

    /// Squared Euclidean distance to `other` (avoids the `sqrt` when callers
    /// only compare distances).
    #[inline]
    pub fn dist_sq(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        self.0
            .iter()
            .zip(other.0.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean (L2) distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Component-wise midpoint between `self` and `other`.
    pub fn midpoint(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dims(), other.dims());
        Point::new(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| 0.5 * (a + b))
                .collect::<Vec<_>>(),
        )
    }
}

impl Index<usize> for Point {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl IndexMut<usize> for Point {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

/// The checked constructor behind [`Point::new`] and deserialization.
impl TryFrom<Box<[f64]>> for Point {
    type Error = String;

    fn try_from(coords: Box<[f64]>) -> Result<Self, String> {
        if coords.is_empty() {
            Err("points must have at least one dimension".to_owned())
        } else if !coords.iter().all(|c| c.is_finite()) {
            Err("point coordinates must be finite".to_owned())
        } else {
            Ok(Point(coords))
        }
    }
}

impl From<Vec<f64>> for Point {
    fn from(v: Vec<f64>) -> Self {
        Point::new(v)
    }
}

impl<const N: usize> From<[f64; N]> for Point {
    fn from(v: [f64; N]) -> Self {
        Point::new(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_and_accessors() {
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(p.dims(), 3);
        assert_eq!(p[1], 2.0);
        assert_eq!(p.coords(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn origin_is_zero() {
        let p = Point::origin(4);
        assert_eq!(p.coords(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn empty_point_rejected() {
        let _ = Point::new(Vec::<f64>::new());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Point::new(vec![f64::NAN]);
    }

    #[test]
    fn euclidean_distance() {
        let a = Point::from([0.0, 0.0]);
        let b = Point::from([3.0, 4.0]);
        assert_eq!(a.dist(&b), 5.0);
        assert_eq!(a.dist_sq(&b), 25.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::from([1.5, -2.0, 0.25]);
        let b = Point::from([-0.5, 7.0, 1.0]);
        assert_eq!(a.dist(&b), b.dist(&a));
        assert_eq!(a.dist(&a), 0.0);
    }

    #[test]
    fn midpoint_is_halfway() {
        let a = Point::from([0.0, 2.0]);
        let b = Point::from([2.0, 4.0]);
        assert_eq!(a.midpoint(&b), Point::from([1.0, 3.0]));
    }

    #[test]
    fn index_mut_updates_coordinate() {
        let mut p = Point::from([1.0, 1.0]);
        p[0] = 9.0;
        assert_eq!(p.coords(), &[9.0, 1.0]);
    }
}
