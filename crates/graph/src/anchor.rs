//! Anchor points: the paper's discretization of the walking graph.
//!
//! "We define anchor points as a set AP of predefined points on E with a
//! uniform distance (such as 1 meter) to each other. … After particle
//! filtering is finished for an object oᵢ, every particle of oᵢ is assigned
//! to its nearest anchor point, so that the inferred object location can
//! only be on discrete locations instead of anywhere on E." (§4.2)

use crate::{AnchorId, EdgeId, GraphPos, WalkingGraph};
use ripq_floorplan::{Axis, FloorPlan, Hallway, HallwayId, Location, RoomId};
use ripq_geom::{Point2, Rect};

/// A single anchor point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorPoint {
    /// This anchor's identifier (dense index).
    pub id: AnchorId,
    /// Graph position of the anchor.
    pub pos: GraphPos,
    /// 2-D point of the anchor.
    pub point: Point2,
    /// Which floor-plan entity the anchor's point lies in.
    pub location: Location,
}

/// The full set of anchor points for a walking graph, with the lookup
/// structures query evaluation needs.
#[derive(Debug, Clone)]
pub struct AnchorSet {
    anchors: Vec<AnchorPoint>,
    /// Anchor ids per edge, ordered by increasing offset.
    per_edge: Vec<Vec<AnchorId>>,
    /// Anchor ids whose point lies inside each room (dense by room index).
    per_room: Vec<Vec<AnchorId>>,
    /// Anchor ids whose point lies inside each hallway (dense by hallway
    /// index).
    per_hallway: Vec<Vec<AnchorId>>,
    spacing: f64,
}

impl AnchorSet {
    /// Generates anchors along every edge of `graph` at (approximately)
    /// `spacing` meters apart.
    ///
    /// Each edge receives `max(1, round(len / spacing))` anchors placed at
    /// the midpoints of equal subdivisions, so every edge — including short
    /// door links — is represented by at least one anchor and anchors never
    /// coincide with nodes (which would make them ambiguous between edges).
    pub fn generate(graph: &WalkingGraph, plan: &FloorPlan, spacing: f64) -> Self {
        assert!(spacing > 0.0, "anchor spacing must be positive");
        let mut anchors = Vec::new();
        let mut per_edge = vec![Vec::new(); graph.edges().len()];
        let mut per_room = vec![Vec::new(); plan.rooms().len()];
        let mut per_hallway = vec![Vec::new(); plan.hallways().len()];

        for e in graph.edges() {
            let len = e.length();
            let n = ((len / spacing).round() as usize).max(1);
            let step = len / n as f64;
            for i in 0..n {
                let offset = (i as f64 + 0.5) * step;
                let point = e.point_at(offset);
                let location = plan.locate(point);
                let id = AnchorId::new(anchors.len() as u32);
                anchors.push(AnchorPoint {
                    id,
                    pos: GraphPos::new(e.id, offset),
                    point,
                    location,
                });
                per_edge[e.id.index()].push(id);
                match location {
                    Location::Room(r) => per_room[r.index()].push(id),
                    Location::Hallway(h) => per_hallway[h.index()].push(id),
                    Location::Outside => {}
                }
            }
        }

        AnchorSet {
            anchors,
            per_edge,
            per_room,
            per_hallway,
            spacing,
        }
    }

    /// All anchors, indexable by [`AnchorId::index`].
    #[inline]
    pub fn anchors(&self) -> &[AnchorPoint] {
        &self.anchors
    }

    /// Looks up an anchor.
    #[inline]
    pub fn anchor(&self, id: AnchorId) -> &AnchorPoint {
        &self.anchors[id.index()]
    }

    /// The requested generation spacing.
    #[inline]
    pub fn spacing(&self) -> f64 {
        self.spacing
    }

    /// Anchors on an edge, ordered by increasing offset.
    #[inline]
    pub fn on_edge(&self, e: EdgeId) -> &[AnchorId] {
        &self.per_edge[e.index()]
    }

    /// Anchors inside a room.
    #[inline]
    pub fn in_room(&self, r: RoomId) -> &[AnchorId] {
        &self.per_room[r.index()]
    }

    /// Anchors inside a hallway.
    #[inline]
    pub fn in_hallway(&self, h: HallwayId) -> &[AnchorId] {
        &self.per_hallway[h.index()]
    }

    /// The anchor nearest (by arc length along the same edge) to a graph
    /// position — the snap target of Algorithm 2 line 32.
    pub fn nearest(&self, pos: GraphPos) -> AnchorId {
        let list = &self.per_edge[pos.edge.index()];
        debug_assert!(!list.is_empty(), "every edge has at least one anchor");
        // Binary search over the ordered offsets.
        let mut lo = 0usize;
        let mut hi = list.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.anchors[list[mid].index()].pos.offset < pos.offset {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        // The nearest is either list[lo-1] or list[lo].
        let mut best = list[lo.min(list.len() - 1)];
        let mut best_d = (self.anchors[best.index()].pos.offset - pos.offset).abs();
        if lo > 0 {
            let cand = list[lo - 1];
            let d = (self.anchors[cand.index()].pos.offset - pos.offset).abs();
            if d < best_d {
                best = cand;
                best_d = d;
            }
        }
        let _ = best_d;
        best
    }

    /// Hallway anchors covered by a query window's span along the hallway
    /// axis (Algorithm 3 / Fig. 6: "the anchor points which fall within q's
    /// vertical range" — anchors count when the window overlaps the hallway
    /// cross-section at their along-axis coordinate, even though the
    /// centerline itself may lie outside the window).
    pub fn hallway_anchors_in_window(&self, hallway: &Hallway, window: &Rect) -> Vec<AnchorId> {
        let Some(overlap) = hallway.footprint().intersection(window) else {
            return Vec::new();
        };
        let (lo, hi) = match hallway.axis() {
            Axis::Horizontal => (overlap.min().x, overlap.max().x),
            Axis::Vertical => (overlap.min().y, overlap.max().y),
        };
        self.per_hallway[hallway.id().index()]
            .iter()
            .copied()
            .filter(|&a| {
                let p = self.anchors[a.index()].point;
                let c = match hallway.axis() {
                    Axis::Horizontal => p.x,
                    Axis::Vertical => p.y,
                };
                c >= lo && c <= hi
            })
            .collect()
    }

    /// Snaps a full particle/probability cloud to anchors: sums the weight
    /// of all positions mapping to the same anchor. Output pairs are sorted
    /// by anchor id; weights preserve their total.
    pub fn snap_distribution(
        &self,
        positions: impl IntoIterator<Item = (GraphPos, f64)>,
    ) -> Vec<(AnchorId, f64)> {
        let mut acc = DenseAccumulator::new(self.anchors.len());
        for (pos, w) in positions {
            acc.add(self.nearest(pos), w);
        }
        acc.into_sorted()
    }

    /// Kernel-density variant of [`AnchorSet::snap_distribution`]: each
    /// position spreads its weight over the anchors of its edge within
    /// `bandwidth` arc-length meters, using a triangular kernel.
    ///
    /// A raw particle histogram is overconfident — with `Ns = 64`
    /// particles an anchor either gets a multiple of 1/64 or exactly 0.
    /// KDE smoothing is the standard particle→density conversion and
    /// keeps the total mass unchanged. `bandwidth <= 0` falls back to
    /// nearest-anchor snapping.
    pub fn kde_distribution(
        &self,
        positions: impl IntoIterator<Item = (GraphPos, f64)>,
        bandwidth: f64,
    ) -> Vec<(AnchorId, f64)> {
        if bandwidth <= 0.0 {
            return self.snap_distribution(positions);
        }
        let mut acc = DenseAccumulator::new(self.anchors.len());
        // Kernel scratch reused across positions to avoid re-allocating.
        let mut kernel: Vec<(AnchorId, f64)> = Vec::new();
        for (pos, w) in positions {
            let list = &self.per_edge[pos.edge.index()];
            // Collect kernel weights over in-bandwidth anchors.
            kernel.clear();
            let mut total = 0.0;
            for &a in list {
                let d = (self.anchors[a.index()].pos.offset - pos.offset).abs();
                if d < bandwidth {
                    let k = 1.0 - d / bandwidth;
                    kernel.push((a, k));
                    total += k;
                }
            }
            if total <= 0.0 {
                // No anchor in reach (very coarse anchor grids): snap.
                acc.add(self.nearest(pos), w);
            } else {
                for &(a, k) in &kernel {
                    acc.add(a, w * k / total);
                }
            }
        }
        acc.into_sorted()
    }
}

/// Dense weight accumulator used by the snap/KDE conversions.
///
/// Replaces the former per-call `HashMap<AnchorId, f64>`: a flat `f64`
/// slot per anchor plus a first-touch list. Per-anchor sums are built in
/// the exact position-iteration order (f64 addition is not associative,
/// so the order is part of the bit-for-bit determinism contract), and the
/// output is sorted by anchor id like before — only the hashing cost is
/// gone. `AnchorSet` itself stays read-only (`&self`) during conversion,
/// so parallel preprocessing workers share it without synchronization.
struct DenseAccumulator {
    weight: Vec<f64>,
    seen: Vec<bool>,
    /// Touched anchors in first-touch order.
    touched: Vec<AnchorId>,
}

impl DenseAccumulator {
    fn new(anchor_count: usize) -> Self {
        DenseAccumulator {
            weight: vec![0.0; anchor_count],
            seen: vec![false; anchor_count],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn add(&mut self, a: AnchorId, w: f64) {
        let i = a.index();
        if !self.seen[i] {
            self.seen[i] = true;
            self.touched.push(a);
        }
        self.weight[i] += w;
    }

    fn into_sorted(mut self) -> Vec<(AnchorId, f64)> {
        self.touched.sort_unstable();
        self.touched
            .into_iter()
            .map(|a| (a, self.weight[a.index()]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_walking_graph;
    use ripq_floorplan::{office_building, OfficeParams};

    fn setup() -> (FloorPlan, WalkingGraph, AnchorSet) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&g, &plan, 1.0);
        (plan, g, anchors)
    }

    #[test]
    fn every_edge_has_anchors() {
        let (_, g, anchors) = setup();
        for e in g.edges() {
            assert!(
                !anchors.on_edge(e.id).is_empty(),
                "edge {} without anchors",
                e.id
            );
        }
    }

    #[test]
    fn anchor_spacing_close_to_requested() {
        let (_, g, anchors) = setup();
        for e in g.edges() {
            let list = anchors.on_edge(e.id);
            if list.len() < 2 {
                continue;
            }
            for w in list.windows(2) {
                let d = anchors.anchor(w[1]).pos.offset - anchors.anchor(w[0]).pos.offset;
                assert!(d > 0.5 && d < 1.5, "spacing {d} out of range");
            }
        }
    }

    #[test]
    fn anchor_count_tracks_total_length() {
        let (_, g, anchors) = setup();
        let total = g.total_edge_length();
        let n = anchors.anchors().len() as f64;
        assert!(
            (n - total).abs() / total < 0.25,
            "count {n} vs length {total}"
        );
    }

    #[test]
    fn every_room_has_anchors() {
        let (plan, _, anchors) = setup();
        for room in plan.rooms() {
            assert!(
                !anchors.in_room(room.id()).is_empty(),
                "room {} without anchors",
                room.id()
            );
        }
    }

    #[test]
    fn nearest_returns_same_edge_closest() {
        let (_, g, anchors) = setup();
        for e in g.edges().iter().take(10) {
            let len = e.length();
            for f in [0.0, 0.25, 0.5, 0.9, 1.0] {
                let pos = GraphPos::new(e.id, len * f);
                let a = anchors.nearest(pos);
                let got = anchors.anchor(a);
                assert_eq!(got.pos.edge, e.id);
                // No other anchor on the edge is closer.
                for &other in anchors.on_edge(e.id) {
                    let od = (anchors.anchor(other).pos.offset - pos.offset).abs();
                    let gd = (got.pos.offset - pos.offset).abs();
                    assert!(gd <= od + 1e-9);
                }
            }
        }
    }

    #[test]
    fn snap_distribution_preserves_mass() {
        let (_, g, anchors) = setup();
        let e = g.edges()[0].id;
        let len = g.edge(e).length();
        let cloud: Vec<(GraphPos, f64)> = (0..100)
            .map(|i| (GraphPos::new(e, len * i as f64 / 100.0), 0.01))
            .collect();
        let snapped = anchors.snap_distribution(cloud);
        let total: f64 = snapped.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Sorted by id, no duplicates.
        for w in snapped.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn window_covering_hallway_center_collects_anchors() {
        let (plan, _, anchors) = setup();
        let h = &plan.hallways()[0];
        let c = h.footprint().center();
        let window = Rect::centered(c, 10.0, 1.0);
        let got = anchors.hallway_anchors_in_window(h, &window);
        assert!(!got.is_empty());
        for a in &got {
            let p = anchors.anchor(*a).point;
            assert!((p.x - c.x).abs() <= 5.0 + 1e-9);
        }
    }

    #[test]
    fn window_touching_only_hallway_edge_still_collects() {
        // The paper's Fig. 6: a window overlapping only part of the hallway
        // width still collects the centerline anchors in its span.
        let (plan, _, anchors) = setup();
        let h = &plan.hallways()[0];
        let fp = h.footprint();
        // Thin window along the top edge of the hallway, off-centerline.
        let window = Rect::new(fp.min().x + 5.0, fp.max().y - 0.2, 8.0, 0.2);
        let got = anchors.hallway_anchors_in_window(h, &window);
        assert!(!got.is_empty(), "off-centerline window must still match");
    }

    #[test]
    fn disjoint_window_collects_nothing() {
        let (plan, _, anchors) = setup();
        let h = &plan.hallways()[0];
        let window = Rect::new(-50.0, -50.0, 10.0, 10.0);
        assert!(anchors.hallway_anchors_in_window(h, &window).is_empty());
    }
}
