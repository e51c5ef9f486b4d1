//! Hallways: reader-instrumented corridors with a centerline abstraction.

use crate::HallwayId;
use ripq_geom::{Point2, Rect, Segment};

/// Orientation of a hallway's long axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The hallway runs along the x axis.
    Horizontal,
    /// The hallway runs along the y axis.
    Vertical,
}

/// A rectangular corridor.
///
/// The paper assumes "the width of hallways can be fully covered by the
/// detection range of sensing devices … In this case the hallways can simply
/// be modelled as lines" (§4.2). [`Hallway::centerline`] is that line: the
/// axis-aligned segment through the middle of the footprint along its long
/// axis. RFID readers sit on it and the walking graph runs along it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hallway {
    id: HallwayId,
    footprint: Rect,
    name: String,
}

impl Hallway {
    /// Creates a hallway with a given footprint.
    pub fn new(id: HallwayId, footprint: Rect, name: impl Into<String>) -> Self {
        Hallway {
            id,
            footprint,
            name: name.into(),
        }
    }

    /// This hallway's identifier.
    #[inline]
    pub fn id(&self) -> HallwayId {
        self.id
    }

    /// Human-readable name (e.g. `"H-north"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rectangular footprint.
    #[inline]
    pub fn footprint(&self) -> &Rect {
        &self.footprint
    }

    /// Orientation of the long axis (ties resolve to horizontal).
    pub fn axis(&self) -> Axis {
        if self.footprint.width() >= self.footprint.height() {
            Axis::Horizontal
        } else {
            Axis::Vertical
        }
    }

    /// Width of the corridor *across* its long axis — the `w_h` of the
    /// paper's range-query width-ratio compensation (Algorithm 3, Fig. 6).
    pub fn cross_width(&self) -> f64 {
        match self.axis() {
            Axis::Horizontal => self.footprint.height(),
            Axis::Vertical => self.footprint.width(),
        }
    }

    /// Length of the corridor along its long axis.
    pub fn long_length(&self) -> f64 {
        match self.axis() {
            Axis::Horizontal => self.footprint.width(),
            Axis::Vertical => self.footprint.height(),
        }
    }

    /// The centerline segment through the middle of the footprint.
    pub fn centerline(&self) -> Segment {
        let c = self.footprint.center();
        match self.axis() {
            Axis::Horizontal => Segment::new(
                Point2::new(self.footprint.min().x, c.y),
                Point2::new(self.footprint.max().x, c.y),
            ),
            Axis::Vertical => Segment::new(
                Point2::new(c.x, self.footprint.min().y),
                Point2::new(c.x, self.footprint.max().y),
            ),
        }
    }

    /// Projects an arbitrary point onto the centerline.
    pub fn project_to_centerline(&self, p: Point2) -> Point2 {
        self.centerline().closest_point(p)
    }

    /// Returns `true` when `p` lies within the footprint.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        self.footprint.contains(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizontal() -> Hallway {
        // 50 m x 2 m corridor at y ∈ [9, 11].
        Hallway::new(HallwayId::new(0), Rect::new(0.0, 9.0, 50.0, 2.0), "H0")
    }

    fn vertical() -> Hallway {
        Hallway::new(HallwayId::new(1), Rect::new(30.0, 9.0, 2.0, 42.0), "H1")
    }

    #[test]
    fn axis_detection() {
        assert_eq!(horizontal().axis(), Axis::Horizontal);
        assert_eq!(vertical().axis(), Axis::Vertical);
        // Square footprint defaults to horizontal.
        let sq = Hallway::new(HallwayId::new(2), Rect::new(0.0, 0.0, 2.0, 2.0), "sq");
        assert_eq!(sq.axis(), Axis::Horizontal);
    }

    #[test]
    fn cross_width_and_length() {
        assert_eq!(horizontal().cross_width(), 2.0);
        assert_eq!(horizontal().long_length(), 50.0);
        assert_eq!(vertical().cross_width(), 2.0);
        assert_eq!(vertical().long_length(), 42.0);
    }

    #[test]
    fn centerline_runs_through_middle() {
        let h = horizontal();
        let cl = h.centerline();
        assert_eq!(cl.a, Point2::new(0.0, 10.0));
        assert_eq!(cl.b, Point2::new(50.0, 10.0));

        let v = vertical();
        let cl = v.centerline();
        assert_eq!(cl.a, Point2::new(31.0, 9.0));
        assert_eq!(cl.b, Point2::new(31.0, 51.0));
    }

    #[test]
    fn projection_lands_on_centerline() {
        let h = horizontal();
        let p = h.project_to_centerline(Point2::new(12.3, 9.2));
        assert!(p.approx_eq(Point2::new(12.3, 10.0)));
        // Beyond the end: clamped.
        let p = h.project_to_centerline(Point2::new(60.0, 10.5));
        assert!(p.approx_eq(Point2::new(50.0, 10.0)));
    }

    #[test]
    fn containment_uses_footprint() {
        let h = horizontal();
        assert!(h.contains(Point2::new(25.0, 10.9)));
        assert!(!h.contains(Point2::new(25.0, 11.1)));
    }
}
