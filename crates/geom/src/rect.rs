use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{Nm, NmArea, Point};

/// An axis-aligned rectangle on the nanometre grid.
///
/// Stored as the lower-left (`lo`) and upper-right (`hi`) corners with the
/// invariant `lo.x <= hi.x && lo.y <= hi.y`; [`Rect::new`] normalizes its
/// arguments so the invariant always holds. A rectangle may be degenerate
/// (zero width and/or height), which is useful for representing points and
/// wire centrelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    lo: Point,
    hi: Point,
}

impl Rect {
    /// Creates the rectangle spanning the two corner points (in any order).
    ///
    /// ```
    /// use m3d_geom::{Point, Rect};
    /// let r = Rect::new(Point::new(10, 20), Point::new(0, 5));
    /// assert_eq!(r.lo(), Point::new(0, 5));
    /// assert_eq!(r.hi(), Point::new(10, 20));
    /// ```
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            lo: Point::new(a.x.min(b.x), a.y.min(b.y)),
            hi: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from its lower-left corner plus a size.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `h` is negative.
    #[inline]
    pub fn from_size(lo: Point, w: Nm, h: Nm) -> Self {
        assert!(w >= 0 && h >= 0, "rectangle size must be non-negative");
        Rect {
            lo,
            hi: Point::new(lo.x + w, lo.y + h),
        }
    }

    /// The lower-left corner.
    #[inline]
    pub fn lo(&self) -> Point {
        self.lo
    }

    /// The upper-right corner.
    #[inline]
    pub fn hi(&self) -> Point {
        self.hi
    }

    /// Width in nanometres (always non-negative).
    #[inline]
    pub fn width(&self) -> Nm {
        self.hi.x - self.lo.x
    }

    /// Height in nanometres (always non-negative).
    #[inline]
    pub fn height(&self) -> Nm {
        self.hi.y - self.lo.y
    }

    /// Exact area in nm².
    #[inline]
    pub fn area(&self) -> NmArea {
        self.width() as NmArea * self.height() as NmArea
    }

    /// Half-perimeter, the HPWL contribution of this bounding box.
    #[inline]
    pub fn half_perimeter(&self) -> Nm {
        self.width() + self.height()
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.lo.x && p.x <= self.hi.x && p.y >= self.lo.y && p.y <= self.hi.y
    }

    /// Returns `true` when the closed rectangles share at least one point.
    #[inline]
    pub fn touches(&self, other: &Rect) -> bool {
        self.lo.x <= other.hi.x
            && other.lo.x <= self.hi.x
            && self.lo.y <= other.hi.y
            && other.lo.y <= self.hi.y
    }

    /// The overlapping region, if the rectangles overlap with positive area
    /// or share an edge/corner (degenerate overlap is returned too).
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.touches(other) {
            return None;
        }
        Some(Rect {
            lo: Point::new(self.lo.x.max(other.lo.x), self.lo.y.max(other.lo.y)),
            hi: Point::new(self.hi.x.min(other.hi.x), self.hi.y.min(other.hi.y)),
        })
    }

    /// The smallest rectangle containing both operands.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: Point::new(self.lo.x.min(other.lo.x), self.lo.y.min(other.lo.y)),
            hi: Point::new(self.hi.x.max(other.hi.x), self.hi.y.max(other.hi.y)),
        }
    }

    /// Grows the rectangle by `margin` on every side (shrinks when negative).
    ///
    /// # Panics
    ///
    /// Panics if a negative margin would invert the rectangle.
    #[inline]
    pub fn inflate(&self, margin: Nm) -> Rect {
        let r = Rect {
            lo: Point::new(self.lo.x - margin, self.lo.y - margin),
            hi: Point::new(self.hi.x + margin, self.hi.y + margin),
        };
        assert!(
            r.lo.x <= r.hi.x && r.lo.y <= r.hi.y,
            "inflate margin {margin} inverts rectangle"
        );
        r
    }

    /// The smallest rectangle containing every point of `points`.
    ///
    /// Returns `None` for an empty iterator.
    pub fn bounding<I: IntoIterator<Item = Point>>(points: I) -> Option<Rect> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect {
            lo: first,
            hi: first,
        };
        for p in it {
            r.lo.x = r.lo.x.min(p.x);
            r.lo.y = r.lo.y.min(p.y);
            r.hi.x = r.hi.x.max(p.x);
            r.hi.y = r.hi.y.max(p.y);
        }
        Some(r)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(Point::new(5, -2), Point::new(-1, 9));
        assert_eq!(r.lo(), Point::new(-1, -2));
        assert_eq!(r.hi(), Point::new(5, 9));
        assert_eq!(r.width(), 6);
        assert_eq!(r.height(), 11);
    }

    #[test]
    fn intersection_of_disjoint_is_none() {
        let a = Rect::from_size(Point::new(0, 0), 10, 10);
        let b = Rect::from_size(Point::new(20, 20), 5, 5);
        assert!(a.intersection(&b).is_none());
    }

    #[test]
    fn shared_edge_gives_degenerate_intersection() {
        let a = Rect::from_size(Point::new(0, 0), 10, 10);
        let b = Rect::from_size(Point::new(10, 0), 10, 10);
        let i = a.intersection(&b).expect("edges touch");
        assert_eq!(i.width(), 0);
        assert_eq!(i.area(), 0);
    }

    #[test]
    fn bounding_covers_all_points() {
        let pts = [Point::new(3, 1), Point::new(-5, 7), Point::new(0, 0)];
        let r = Rect::bounding(pts).expect("non-empty");
        for p in pts {
            assert!(r.contains(p));
        }
        assert!(Rect::bounding(std::iter::empty()).is_none());
    }

    proptest! {
        #[test]
        fn intersection_is_contained_in_both(
            ax in -1000i64..1000, ay in -1000i64..1000, aw in 0i64..500, ah in 0i64..500,
            bx in -1000i64..1000, by in -1000i64..1000, bw in 0i64..500, bh in 0i64..500,
        ) {
            let a = Rect::from_size(Point::new(ax, ay), aw, ah);
            let b = Rect::from_size(Point::new(bx, by), bw, bh);
            if let Some(i) = a.intersection(&b) {
                prop_assert!(i.area() <= a.area());
                prop_assert!(i.area() <= b.area());
                prop_assert!(a.contains(i.lo()) && a.contains(i.hi()));
                prop_assert!(b.contains(i.lo()) && b.contains(i.hi()));
            }
        }

        #[test]
        fn union_contains_both(
            ax in -1000i64..1000, ay in -1000i64..1000, aw in 0i64..500, ah in 0i64..500,
            bx in -1000i64..1000, by in -1000i64..1000, bw in 0i64..500, bh in 0i64..500,
        ) {
            let a = Rect::from_size(Point::new(ax, ay), aw, ah);
            let b = Rect::from_size(Point::new(bx, by), bw, bh);
            let u = a.union(&b);
            prop_assert!(u.contains(a.lo()) && u.contains(a.hi()));
            prop_assert!(u.contains(b.lo()) && u.contains(b.hi()));
            prop_assert!(u.area() >= a.area().max(b.area()));
        }

        #[test]
        fn intersection_commutes(
            ax in -100i64..100, ay in -100i64..100, aw in 0i64..80, ah in 0i64..80,
            bx in -100i64..100, by in -100i64..100, bw in 0i64..80, bh in 0i64..80,
        ) {
            let a = Rect::from_size(Point::new(ax, ay), aw, ah);
            let b = Rect::from_size(Point::new(bx, by), bw, bh);
            prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        }
    }
}
