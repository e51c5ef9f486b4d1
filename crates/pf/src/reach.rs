//! Static sensor geometry, derived once per world.
//!
//! The walking graph and the reader deployment never change while the
//! filter runs, yet every particle-second asks questions about them: "is
//! this particle inside any activation range?" (negative evidence), "is it
//! inside the detecting reader's range?" (reweighting), and "where inside
//! this reader's range can a fresh particle go?" (seeding). A
//! [`SensorGeometry`] answers all three from tables built once:
//!
//! * a per-edge **reader-reach** list — the readers whose activation disk
//!   comes within `activation_range + REACH_MARGIN` of any segment of the
//!   edge, each with the band of offsets where that enlarged disk meets
//!   the edge, widened by `REACH_MARGIN`. Every reader that could cover a
//!   point of the edge is listed, and every offset it could cover lies in
//!   its band, so testing only listed readers whose band holds the offset
//!   gives the same answer as testing all of them — and a particle outside
//!   every band needs no point at all;
//! * per-reader **seeding spans** — [`crate::seed_intervals`] of every reader,
//!   with their total length.

use crate::seed::SeedSpans;
use crate::{IndoorState, MotionModel};
use rand::Rng;
use ripq_geom::{Point2, Segment};
use ripq_graph::{Edge, EdgeId, GraphPos, WalkingGraph};
use ripq_rfid::Reader;

/// Slack, in meters, added to every activation range when deciding which
/// readers reach an edge, and to both ends of each reach band. A
/// particle's point comes from interpolating the edge polyline, which can
/// land a rounding error (~1e-14 m at building scale) off the exact
/// segment the reach test measured; the margin keeps every reader and
/// offset that could still cover such a point in the table.
const REACH_MARGIN: f64 = 1e-6;

/// A reader that reaches an edge, with the offsets of the edge it could
/// cover: the particle at offset `x` is out of its range unless
/// `lo <= x <= hi`. A band touching an edge end extends to infinity there,
/// since the polyline clamps offsets past its ends onto the end points.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reach {
    reader: Reader,
    lo: f64,
    hi: f64,
}

impl Reach {
    /// `reader`'s reach on `edge`, or `None` when its activation disk,
    /// enlarged by [`REACH_MARGIN`], misses every segment of the edge.
    fn of(edge: &Edge, reader: &Reader) -> Option<Reach> {
        let (c, r) = (reader.position(), reader.activation_range() + REACH_MARGIN);
        let mut band: Option<(f64, f64)> = None;
        let mut cum = 0.0;
        for w in edge.geometry.points().windows(2) {
            let seg = Segment::new(w[0], w[1]);
            if let Some((lo, hi)) = seg.circle_overlap_interval(c, r) {
                let (blo, bhi) = band.unwrap_or((f64::INFINITY, f64::NEG_INFINITY));
                band = Some((blo.min(cum + lo), bhi.max(cum + hi)));
            }
            cum += seg.length();
        }
        let (lo, hi) = band?;
        let (lo, hi) = (lo - REACH_MARGIN, hi + REACH_MARGIN);
        let open_lo = lo <= 0.0;
        let open_hi = hi >= edge.length();
        Some(Reach {
            reader: *reader,
            lo: if open_lo { f64::NEG_INFINITY } else { lo },
            hi: if open_hi { f64::INFINITY } else { hi },
        })
    }

    /// Whether this reader covers the point at `pos`, computing (and
    /// keeping in `pt`) the point only when the offset lies in the band.
    fn covers(&self, graph: &WalkingGraph, pos: GraphPos, pt: &mut Option<Point2>) -> bool {
        (self.lo..=self.hi).contains(&pos.offset)
            && self
                .reader
                .covers(*pt.get_or_insert_with(|| graph.point_of(pos)))
    }
}

/// Reader-reach and seeding tables of one graph and reader deployment.
///
/// Build it with [`SensorGeometry::new`] once per world and share it: it
/// owns its data and is `Sync`, so filter workers read it concurrently.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorGeometry {
    /// `near[e]`: the reaches of the readers that reach edge `e`, in
    /// deployment order.
    near: Vec<Vec<Reach>>,
    /// `seeding[r]`: the seeding spans of the reader with index `r`.
    seeding: Vec<SeedSpans>,
}

impl SensorGeometry {
    /// Builds the tables for `readers` deployed on `graph`. `readers` must
    /// be dense: `readers[id.index()].id() == id`.
    pub fn new(graph: &WalkingGraph, readers: &[Reader]) -> Self {
        debug_assert!(readers.iter().enumerate().all(|(i, r)| r.id().index() == i));
        let near = graph
            .edges()
            .iter()
            .map(|e| readers.iter().filter_map(|r| Reach::of(e, r)).collect())
            .collect();
        let seeding = readers.iter().map(|r| SeedSpans::new(graph, r)).collect();
        SensorGeometry { near, seeding }
    }

    /// The reaches of the readers that reach `edge` (empty for an edge no
    /// activation range comes near, or an edge this table does not know).
    fn near(&self, edge: EdgeId) -> &[Reach] {
        self.near.get(edge.index()).map_or(&[], Vec::as_slice)
    }

    /// Whether any reader's activation range covers the point at `pos`:
    /// the same answer as testing every reader against
    /// `graph.point_of(pos)`, but the point is only computed when the
    /// offset lies in some reader's band.
    pub fn any_covers(&self, graph: &WalkingGraph, pos: GraphPos) -> bool {
        let mut pt = None;
        self.near(pos.edge)
            .iter()
            .any(|r| r.covers(graph, pos, &mut pt))
    }

    /// Whether `reader` covers the point at `pos`: the same answer as
    /// `reader.covers(graph.point_of(pos))` for a reader of the deployment
    /// this table was built from, with no point computed unless the offset
    /// lies in the reader's band.
    pub fn covers(&self, graph: &WalkingGraph, reader: &Reader, pos: GraphPos) -> bool {
        self.near(pos.edge)
            .iter()
            .find(|r| r.reader.id() == reader.id())
            .is_some_and(|r| r.covers(graph, pos, &mut None))
    }

    /// Draws `n` particles uniformly (by arc length) over the edge
    /// intervals covered by `reader`, each with a random heading and a
    /// speed from the motion model's Gaussian (Algorithm 2, line 5).
    ///
    /// Falls back to the reader's own graph projection when the activation
    /// disk covers no edge at all (pathological deployments), so callers
    /// always receive `n` particles.
    pub fn seed_particles<R: Rng>(
        &self,
        rng: &mut R,
        graph: &WalkingGraph,
        reader: &Reader,
        motion: &MotionModel,
        n: usize,
    ) -> Vec<IndoorState> {
        let empty = SeedSpans::default();
        let spans = self.seeding.get(reader.id().index()).unwrap_or(&empty);
        spans.draw(rng, graph, reader.graph_pos(), motion, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed_intervals;
    use proptest::prelude::*;
    use ripq_floorplan::{
        multi_floor_office, office_building, shopping_mall, subway_station, FloorPlan, MallParams,
        MultiFloorParams, OfficeParams, SubwayParams,
    };
    use ripq_graph::build_walking_graph;
    use ripq_rfid::{deploy_random, ReaderId};

    fn plans() -> Vec<FloorPlan> {
        vec![
            office_building(&OfficeParams::default()).unwrap(),
            shopping_mall(&MallParams::default()).unwrap(),
            subway_station(&SubwayParams::default()).unwrap(),
            multi_floor_office(&MultiFloorParams::default()).unwrap(),
        ]
    }

    #[test]
    fn paper_floor_edges_see_few_readers() {
        // The point of the table: on the paper's floor some edges lie
        // within range of no reader at all, and the rest of a handful.
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let readers = ripq_rfid::deploy_uniform(&plan, &g, 19, 2.0);
        let geometry = SensorGeometry::new(&g, &readers);
        let lens: Vec<usize> = g
            .edges()
            .iter()
            .map(|e| geometry.near(e.id).len())
            .collect();
        assert!(lens.contains(&0), "{lens:?}");
        assert!(lens.iter().all(|&n| n <= 4), "{lens:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The reach table is answer-preserving on every floor-plan
        /// generator: the filtered tests agree with the full reader scans
        /// at random positions on every edge, and every (edge, reader)
        /// pair left out of the table is out of range on every segment.
        #[test]
        fn reach_table_matches_full_scan(
            plan_index in 0usize..4,
            count in 1u32..40,
            range in 0.25f64..4.0,
            deploy_seed in 0u64..=u64::MAX,
            loose in proptest::collection::vec((0.0f64..=1.0, 0.0f64..=1.0), 0..4),
            fractions in proptest::collection::vec(0.0f64..=1.0, 8..9),
        ) {
            let plan = &plans()[plan_index];
            let g = build_walking_graph(plan);
            // Readers on hallway centerlines, plus a few anywhere in the
            // plan's bounding box.
            let mut readers = deploy_random(plan, &g, count, range, deploy_seed);
            let (min, max) = (plan.bounds().min(), plan.bounds().max());
            for (fx, fy) in loose {
                let p = Point2::new(min.x + fx * (max.x - min.x), min.y + fy * (max.y - min.y));
                let id = ReaderId::new(readers.len() as u32);
                readers.push(Reader::new(id, p, g.project(p), range));
            }
            let geometry = SensorGeometry::new(&g, &readers);
            // Seeding-span ends sit exactly on activation-disk boundaries,
            // the positions where rounding could flip an answer; band ends
            // are where the table stops computing points.
            let span_ends = readers
                .iter()
                .flat_map(|r| seed_intervals(&g, r))
                .flat_map(|(e, lo, hi)| [(e, lo), (e, hi)]);
            let band_ends = g.edges().iter().flat_map(|e| {
                geometry
                    .near(e.id)
                    .iter()
                    .flat_map(move |r| [(e.id, r.lo), (e.id, r.hi)])
                    .filter(|(_, x)| x.is_finite())
            });
            let boundaries: Vec<GraphPos> = span_ends
                .chain(band_ends)
                .map(|(e, x)| GraphPos::new(e, x))
                .collect();
            for &pos in &boundaries {
                let pt = g.point_of(pos);
                prop_assert_eq!(
                    geometry.any_covers(&g, pos),
                    readers.iter().any(|r| r.covers(pt))
                );
                for r in &readers {
                    prop_assert_eq!(geometry.covers(&g, r, pos), r.covers(pt));
                }
            }
            for e in g.edges() {
                let near = geometry.near(e.id);
                for r in readers.iter().filter(|r| !near.iter().any(|n| n.reader.id() == r.id())) {
                    for w in e.geometry.points().windows(2) {
                        let d = Segment::new(w[0], w[1]).distance_to_point(r.position());
                        prop_assert!(d > r.activation_range(), "left-out reader {} at {d}", r.id());
                    }
                }
                let offsets = fractions
                    .iter()
                    .map(|f| f * e.length())
                    .chain([0.0, e.length()]);
                for offset in offsets {
                    let pos = GraphPos::new(e.id, offset);
                    let pt = g.point_of(pos);
                    prop_assert_eq!(
                        geometry.any_covers(&g, pos),
                        readers.iter().any(|r| r.covers(pt))
                    );
                    for r in &readers {
                        prop_assert_eq!(geometry.covers(&g, r, pos), r.covers(pt));
                    }
                }
            }
        }
    }
}
