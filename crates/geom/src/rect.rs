//! Axis-aligned rectangles: rooms, hallways and range-query windows.

use crate::Point2;
use std::fmt;

/// An axis-aligned rectangle described by its min/max corners, in meters.
///
/// Rectangles are *closed*: boundary points are contained. RIPQ uses them
/// for room footprints, hallway footprints and range-query windows
/// (Algorithm 3 of the paper needs rectangle/rectangle intersection areas
/// for its area-ratio compensation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    min: Point2,
    max: Point2,
}

impl Rect {
    /// Creates a rectangle from two opposite corners (in any order).
    pub fn from_corners(a: Point2, b: Point2) -> Self {
        Rect {
            min: Point2::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point2::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Creates a rectangle from its min corner plus a (non-negative) size.
    pub fn new(min_x: f64, min_y: f64, width: f64, height: f64) -> Self {
        debug_assert!(width >= 0.0 && height >= 0.0, "negative rect size");
        Rect {
            min: Point2::new(min_x, min_y),
            max: Point2::new(min_x + width.max(0.0), min_y + height.max(0.0)),
        }
    }

    /// Creates a rectangle centered at `c` with the given full width/height.
    pub fn centered(c: Point2, width: f64, height: f64) -> Self {
        Rect::new(c.x - width * 0.5, c.y - height * 0.5, width, height)
    }

    /// Min (bottom-left) corner.
    #[inline]
    pub fn min(&self) -> Point2 {
        self.min
    }

    /// Max (top-right) corner.
    #[inline]
    pub fn max(&self) -> Point2 {
        self.max
    }

    /// Width along x (meters).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y (meters).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area in square meters.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.min.midpoint(self.max)
    }

    /// Returns `true` when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Returns `true` when `other` is entirely inside `self` (closed).
    pub fn contains_rect(&self, other: &Rect) -> bool {
        self.contains(other.min) && self.contains(other.max)
    }

    /// Returns `true` when the two closed rectangles share at least a point.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
    }

    /// The intersection rectangle, or `None` when disjoint.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            min: Point2::new(self.min.x.max(other.min.x), self.min.y.max(other.min.y)),
            max: Point2::new(self.max.x.min(other.max.x), self.max.y.min(other.max.y)),
        })
    }

    /// Area of overlap with `other` (0 when disjoint).
    pub fn intersection_area(&self, other: &Rect) -> f64 {
        self.intersection(other).map_or(0.0, |r| r.area())
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point2::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point2::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// Rectangle expanded by `margin` on every side (shrinks when negative;
    /// clamped so the result never inverts).
    pub fn inflate(&self, margin: f64) -> Rect {
        let mut min = Point2::new(self.min.x - margin, self.min.y - margin);
        let mut max = Point2::new(self.max.x + margin, self.max.y + margin);
        if min.x > max.x {
            let m = (min.x + max.x) * 0.5;
            min.x = m;
            max.x = m;
        }
        if min.y > max.y {
            let m = (min.y + max.y) * 0.5;
            min.y = m;
            max.y = m;
        }
        Rect { min, max }
    }

    /// Closest point of the rectangle to `p` (is `p` itself when inside).
    pub fn clamp_point(&self, p: Point2) -> Point2 {
        Point2::new(
            crate::clamp(p.x, self.min.x, self.max.x),
            crate::clamp(p.y, self.min.y, self.max.y),
        )
    }

    /// Euclidean distance from `p` to the rectangle (0 when inside).
    pub fn distance_to_point(&self, p: Point2) -> f64 {
        self.clamp_point(p).distance(p)
    }

    /// Returns `true` when a circle at `c` with radius `r` overlaps the
    /// rectangle. Used by the query-aware optimizer (§4.3): an object's
    /// uncertain region is a circle around its last detecting reader.
    pub fn intersects_circle(&self, c: Point2, r: f64) -> bool {
        self.distance_to_point(c) <= r
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(a: f64, b: f64, w: f64, h: f64) -> Rect {
        Rect::new(a, b, w, h)
    }

    #[test]
    fn from_corners_normalizes() {
        let rect = Rect::from_corners(Point2::new(5.0, 1.0), Point2::new(1.0, 5.0));
        assert_eq!(rect.min(), Point2::new(1.0, 1.0));
        assert_eq!(rect.max(), Point2::new(5.0, 5.0));
    }

    #[test]
    fn area_and_center() {
        let rect = r(1.0, 2.0, 4.0, 6.0);
        assert_eq!(rect.area(), 24.0);
        assert_eq!(rect.center(), Point2::new(3.0, 5.0));
        assert_eq!(rect.width(), 4.0);
        assert_eq!(rect.height(), 6.0);
    }

    #[test]
    fn containment_is_closed() {
        let rect = r(0.0, 0.0, 2.0, 2.0);
        assert!(rect.contains(Point2::new(0.0, 0.0)));
        assert!(rect.contains(Point2::new(2.0, 2.0)));
        assert!(rect.contains(Point2::new(1.0, 1.0)));
        assert!(!rect.contains(Point2::new(2.0 + 1e-6, 1.0)));
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = r(0.0, 0.0, 4.0, 4.0);
        let b = r(2.0, 2.0, 4.0, 4.0);
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r(2.0, 2.0, 2.0, 2.0));
        assert_eq!(a.intersection_area(&b), 4.0);
    }

    #[test]
    fn disjoint_rects_do_not_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 1.0, 1.0);
        assert!(!a.intersects(&b));
        assert!(a.intersection(&b).is_none());
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn touching_edges_count_as_intersecting() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 1.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection_area(&b), 0.0);
    }

    #[test]
    fn circle_overlap() {
        let rect = r(0.0, 0.0, 2.0, 2.0);
        assert!(rect.intersects_circle(Point2::new(3.0, 1.0), 1.0));
        assert!(!rect.intersects_circle(Point2::new(3.1, 1.0), 1.0));
        assert!(rect.intersects_circle(Point2::new(1.0, 1.0), 0.1)); // center inside
                                                                     // Corner case: circle near the corner.
        assert!(rect.intersects_circle(Point2::new(3.0, 3.0), 1.5));
        assert!(!rect.intersects_circle(Point2::new(3.0, 3.0), 1.0));
    }

    #[test]
    fn inflate_and_deflate() {
        let rect = r(1.0, 1.0, 2.0, 2.0);
        assert_eq!(rect.inflate(1.0), r(0.0, 0.0, 4.0, 4.0));
        // Over-deflating collapses to the center without inverting.
        let collapsed = rect.inflate(-5.0);
        assert!(collapsed.area() <= 1e-12);
        assert!(collapsed.center().approx_eq(rect.center()));
    }

    #[test]
    fn distance_to_point_zero_inside() {
        let rect = r(0.0, 0.0, 2.0, 2.0);
        assert_eq!(rect.distance_to_point(Point2::new(1.0, 1.0)), 0.0);
        assert!((rect.distance_to_point(Point2::new(5.0, 1.0)) - 3.0).abs() < 1e-12);
    }

    fn coord() -> impl Strategy<Value = f64> {
        -100.0..100.0
    }
    fn size() -> impl Strategy<Value = f64> {
        0.0..50.0
    }

    proptest! {
        #[test]
        fn intersection_area_le_min_area(
            ax in coord(), ay in coord(), aw in size(), ah in size(),
            bx in coord(), by in coord(), bw in size(), bh in size(),
        ) {
            let a = Rect::new(ax, ay, aw, ah);
            let b = Rect::new(bx, by, bw, bh);
            let ia = a.intersection_area(&b);
            prop_assert!(ia <= a.area() + 1e-9);
            prop_assert!(ia <= b.area() + 1e-9);
            prop_assert!(ia >= 0.0);
        }

        #[test]
        fn intersection_symmetric(
            ax in coord(), ay in coord(), aw in size(), ah in size(),
            bx in coord(), by in coord(), bw in size(), bh in size(),
        ) {
            let a = Rect::new(ax, ay, aw, ah);
            let b = Rect::new(bx, by, bw, bh);
            prop_assert_eq!(a.intersects(&b), b.intersects(&a));
            prop_assert!((a.intersection_area(&b) - b.intersection_area(&a)).abs() < 1e-9);
        }

        #[test]
        fn union_contains_both(
            ax in coord(), ay in coord(), aw in size(), ah in size(),
            bx in coord(), by in coord(), bw in size(), bh in size(),
        ) {
            let a = Rect::new(ax, ay, aw, ah);
            let b = Rect::new(bx, by, bw, bh);
            let u = a.union(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }

        #[test]
        fn inflate_then_deflate_roundtrip(
            ax in coord(), ay in coord(), aw in 1.0f64..50.0, ah in 1.0f64..50.0,
            m in 0.0f64..10.0,
        ) {
            let a = Rect::new(ax, ay, aw, ah);
            let back = a.inflate(m).inflate(-m);
            prop_assert!((back.width() - a.width()).abs() < 1e-9);
            prop_assert!((back.height() - a.height()).abs() < 1e-9);
            prop_assert!(back.center().approx_eq(a.center()));
        }

        #[test]
        fn contains_rect_iff_intersection_is_inner(
            ax in coord(), ay in coord(), aw in size(), ah in size(),
            bx in coord(), by in coord(), bw in size(), bh in size(),
        ) {
            let a = Rect::new(ax, ay, aw, ah);
            let b = Rect::new(bx, by, bw, bh);
            if a.contains_rect(&b) {
                let i = a.intersection(&b).expect("contained implies overlap");
                prop_assert!((i.area() - b.area()).abs() < 1e-9);
            }
        }

        #[test]
        fn clamp_point_is_contained(
            ax in coord(), ay in coord(), aw in size(), ah in size(),
            px in coord(), py in coord(),
        ) {
            let a = Rect::new(ax, ay, aw, ah);
            prop_assert!(a.contains(a.clamp_point(Point2::new(px, py))));
        }
    }
}
