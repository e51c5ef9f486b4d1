//! Line segments: hallway centerlines and walking-graph edges.

use crate::{clamp, Point2, Rect};
use std::fmt;

/// A directed line segment from `a` to `b`, in meters.
///
/// Walking-graph edges are segments; anchor points and particle positions
/// are parameterized as an *offset* (arc length from `a`) along a segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point2,
    /// End point.
    pub b: Point2,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point2, b: Point2) -> Self {
        Segment { a, b }
    }

    /// Arc length of the segment.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// Point at arc-length `offset` from `a`, clamped to the segment.
    pub fn point_at(&self, offset: f64) -> Point2 {
        let len = self.length();
        if len <= crate::EPSILON {
            return self.a;
        }
        let t = clamp(offset / len, 0.0, 1.0);
        self.a.lerp(self.b, t)
    }

    /// Point at normalized parameter `t ∈ [0,1]` (clamped).
    pub fn point_at_t(&self, t: f64) -> Point2 {
        self.a.lerp(self.b, clamp(t, 0.0, 1.0))
    }

    /// The reversed segment (`b → a`).
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Point2 {
        self.a.midpoint(self.b)
    }

    /// Normalized parameter `t ∈ [0,1]` of the point on the segment closest
    /// to `p`.
    pub fn project_t(&self, p: Point2) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.dot(d);
        if len_sq <= crate::EPSILON * crate::EPSILON {
            return 0.0;
        }
        clamp((p - self.a).dot(d) / len_sq, 0.0, 1.0)
    }

    /// Arc-length offset (from `a`) of the closest point to `p`.
    pub fn project_offset(&self, p: Point2) -> f64 {
        self.project_t(p) * self.length()
    }

    /// Closest point of the segment to `p`.
    pub fn closest_point(&self, p: Point2) -> Point2 {
        self.point_at_t(self.project_t(p))
    }

    /// Euclidean distance from `p` to the segment.
    pub fn distance_to_point(&self, p: Point2) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Axis-aligned bounding box.
    pub fn bounding_box(&self) -> Rect {
        Rect::from_corners(self.a, self.b)
    }

    /// Returns `true` when any part of the segment lies within `r` meters of
    /// point `c` — i.e. the segment crosses a reader's activation disk.
    pub fn intersects_circle(&self, c: Point2, r: f64) -> bool {
        self.distance_to_point(c) <= r
    }

    /// The sub-interval of arc-length offsets `[lo, hi]` whose points are
    /// within `r` of `c`, or `None` if the segment misses the disk.
    ///
    /// Used to place particles uniformly inside a reader's activation range
    /// along graph edges, and to enumerate anchors covered by a reader.
    pub fn circle_overlap_interval(&self, c: Point2, r: f64) -> Option<(f64, f64)> {
        let len = self.length();
        if len <= crate::EPSILON {
            return if self.a.distance(c) <= r {
                Some((0.0, 0.0))
            } else {
                None
            };
        }
        let d = (self.b - self.a) / len; // unit direction
        let f = self.a - c;
        // Solve |f + t·d| = r for arc length t.
        let b_half = f.dot(d);
        let c_term = f.dot(f) - r * r;
        let disc = b_half * b_half - c_term;
        if disc < 0.0 {
            return None;
        }
        let sq = disc.sqrt();
        let t0 = -b_half - sq;
        let t1 = -b_half + sq;
        let lo = clamp(t0, 0.0, len);
        let hi = clamp(t1, 0.0, len);
        if t1 < 0.0 || t0 > len {
            return None;
        }
        Some((lo, hi))
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point2::new(ax, ay), Point2::new(bx, by))
    }

    #[test]
    fn length_and_midpoint() {
        let s = seg(0.0, 0.0, 6.0, 8.0);
        assert!((s.length() - 10.0).abs() < 1e-12);
        assert_eq!(s.midpoint(), Point2::new(3.0, 4.0));
    }

    #[test]
    fn point_at_clamps() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.point_at(-5.0), Point2::new(0.0, 0.0));
        assert_eq!(s.point_at(4.0), Point2::new(4.0, 0.0));
        assert_eq!(s.point_at(25.0), Point2::new(10.0, 0.0));
    }

    #[test]
    fn degenerate_segment_is_total() {
        let s = seg(2.0, 3.0, 2.0, 3.0);
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.point_at(1.0), Point2::new(2.0, 3.0));
        assert_eq!(s.project_t(Point2::new(9.0, 9.0)), 0.0);
    }

    #[test]
    fn projection_of_interior_point() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        let p = Point2::new(4.0, 3.0);
        assert!((s.project_offset(p) - 4.0).abs() < 1e-12);
        assert!((s.distance_to_point(p) - 3.0).abs() < 1e-12);
        assert!(s.closest_point(p).approx_eq(Point2::new(4.0, 0.0)));
    }

    #[test]
    fn projection_clamps_to_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.project_t(Point2::new(-5.0, 1.0)), 0.0);
        assert_eq!(s.project_t(Point2::new(15.0, 1.0)), 1.0);
    }

    #[test]
    fn circle_overlap_full_containment() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        let (lo, hi) = s
            .circle_overlap_interval(Point2::new(1.0, 0.0), 5.0)
            .unwrap();
        assert_eq!((lo, hi), (0.0, 2.0));
    }

    #[test]
    fn circle_overlap_partial() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        let (lo, hi) = s
            .circle_overlap_interval(Point2::new(5.0, 0.0), 2.0)
            .unwrap();
        assert!((lo - 3.0).abs() < 1e-9);
        assert!((hi - 7.0).abs() < 1e-9);
    }

    #[test]
    fn circle_overlap_offset_center() {
        // Reader 1 m off the hallway centerline with 2 m range: chord of
        // half-length sqrt(4-1)=sqrt(3) around the projection.
        let s = seg(0.0, 0.0, 10.0, 0.0);
        let (lo, hi) = s
            .circle_overlap_interval(Point2::new(5.0, 1.0), 2.0)
            .unwrap();
        let half = 3.0f64.sqrt();
        assert!((lo - (5.0 - half)).abs() < 1e-9);
        assert!((hi - (5.0 + half)).abs() < 1e-9);
    }

    #[test]
    fn circle_overlap_miss() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert!(s
            .circle_overlap_interval(Point2::new(5.0, 3.0), 2.0)
            .is_none());
        assert!(s
            .circle_overlap_interval(Point2::new(-5.0, 0.0), 2.0)
            .is_none());
        assert!(s
            .circle_overlap_interval(Point2::new(15.0, 0.0), 2.0)
            .is_none());
    }

    #[test]
    fn intersects_circle_consistent_with_interval() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        let c = Point2::new(5.0, 1.9);
        assert!(s.intersects_circle(c, 2.0));
        assert!(s.circle_overlap_interval(c, 2.0).is_some());
    }

    fn coord() -> impl Strategy<Value = f64> {
        -50.0..50.0
    }

    proptest! {
        #[test]
        fn closest_point_is_on_segment(
            ax in coord(), ay in coord(), bx in coord(), by in coord(),
            px in coord(), py in coord(),
        ) {
            let s = seg(ax, ay, bx, by);
            let p = Point2::new(px, py);
            let cp = s.closest_point(p);
            // cp lies on the segment: distances to endpoints sum to length.
            prop_assert!((s.a.distance(cp) + cp.distance(s.b) - s.length()).abs() < 1e-6);
            // cp is no farther than either endpoint.
            prop_assert!(p.distance(cp) <= p.distance(s.a) + 1e-9);
            prop_assert!(p.distance(cp) <= p.distance(s.b) + 1e-9);
        }

        #[test]
        fn overlap_interval_points_inside_disk(
            ax in coord(), ay in coord(), bx in coord(), by in coord(),
            cx in coord(), cy in coord(), r in 0.1..20.0f64,
        ) {
            let s = seg(ax, ay, bx, by);
            let c = Point2::new(cx, cy);
            if let Some((lo, hi)) = s.circle_overlap_interval(c, r) {
                prop_assert!(lo <= hi + 1e-9);
                prop_assert!(s.point_at(lo).distance(c) <= r + 1e-6);
                prop_assert!(s.point_at(hi).distance(c) <= r + 1e-6);
                prop_assert!(s.point_at((lo + hi) * 0.5).distance(c) <= r + 1e-6);
            }
        }
    }
}
