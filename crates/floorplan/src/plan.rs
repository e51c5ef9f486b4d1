//! The validated floor plan and point-location queries on it.

use crate::{Door, DoorId, Hallway, HallwayId, Room, RoomId};
use ripq_geom::{Point2, Rect};

/// Which indoor entity a point lies in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Location {
    /// Inside a room.
    Room(RoomId),
    /// Inside a hallway. Points in the overlap of two crossing hallways
    /// resolve to the lowest hallway id.
    Hallway(HallwayId),
    /// Outside every room and hallway (walls, or outside the building).
    Outside,
}

impl Location {
    /// `true` when the location is a room.
    pub fn is_room(&self) -> bool {
        matches!(self, Location::Room(_))
    }

    /// `true` when the location is a hallway.
    pub fn is_hallway(&self) -> bool {
        matches!(self, Location::Hallway(_))
    }
}

/// A validated indoor floor plan.
///
/// Construct through [`crate::FloorPlanBuilder`]; a value of this type is
/// guaranteed to satisfy the invariants listed on the builder (doors on
/// boundaries, no room overlaps, connected hallway network, …).
#[derive(Debug, Clone)]
pub struct FloorPlan {
    pub(crate) rooms: Vec<Room>,
    pub(crate) hallways: Vec<Hallway>,
    pub(crate) doors: Vec<Door>,
    pub(crate) bounds: Rect,
}

impl FloorPlan {
    /// All rooms, indexable by [`RoomId::index`].
    #[inline]
    pub fn rooms(&self) -> &[Room] {
        &self.rooms
    }

    /// All hallways, indexable by [`HallwayId::index`].
    #[inline]
    pub fn hallways(&self) -> &[Hallway] {
        &self.hallways
    }

    /// All doors, indexable by [`DoorId::index`].
    #[inline]
    pub fn doors(&self) -> &[Door] {
        &self.doors
    }

    /// Looks up a room by id.
    #[inline]
    pub fn room(&self, id: RoomId) -> &Room {
        &self.rooms[id.index()]
    }

    /// Looks up a hallway by id.
    #[inline]
    pub fn hallway(&self, id: HallwayId) -> &Hallway {
        &self.hallways[id.index()]
    }

    /// Looks up a door by id.
    #[inline]
    pub fn door(&self, id: DoorId) -> &Door {
        &self.doors[id.index()]
    }

    /// Bounding box of the whole plan (used to size query windows as a
    /// percentage of total area, as in §5.2).
    #[inline]
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Total indoor area: sum of room areas plus hallway footprint area
    /// (hallway-crossing overlaps counted once).
    pub fn indoor_area(&self) -> f64 {
        let rooms: f64 = self.rooms.iter().map(Room::area).sum();
        let halls: f64 = self.hallways.iter().map(|h| h.footprint().area()).sum();
        // Subtract pairwise hallway overlaps (crossings); hallways in office
        // plans overlap at most pairwise.
        let mut overlap = 0.0;
        for (i, a) in self.hallways.iter().enumerate() {
            for b in &self.hallways[i + 1..] {
                overlap += a.footprint().intersection_area(b.footprint());
            }
        }
        rooms + halls - overlap
    }

    /// Point location: which entity contains `p`?
    ///
    /// Hallways take precedence over rooms (their footprints never overlap
    /// in a validated plan, so this only disambiguates shared boundaries —
    /// a point exactly on a door line counts as hallway).
    pub fn locate(&self, p: Point2) -> Location {
        for h in &self.hallways {
            if h.contains(p) {
                return Location::Hallway(h.id());
            }
        }
        for r in &self.rooms {
            if r.contains(p) {
                return Location::Room(r.id());
            }
        }
        Location::Outside
    }

    /// Doors of a given hallway.
    pub fn doors_of_hallway(&self, h: HallwayId) -> impl Iterator<Item = &Door> + '_ {
        self.doors.iter().filter(move |d| d.hallway() == h)
    }

    /// Pairs of hallways whose footprints overlap (crossings / junctions).
    pub fn hallway_crossings(&self) -> Vec<(HallwayId, HallwayId, Point2)> {
        let mut out = Vec::new();
        for (i, a) in self.hallways.iter().enumerate() {
            for b in &self.hallways[i + 1..] {
                if let Some(ix) = a.footprint().intersection(b.footprint()) {
                    out.push((a.id(), b.id(), ix.center()));
                }
            }
        }
        out
    }

    /// Total hallway centerline length (meters) — used to space reader
    /// deployments uniformly, as in the paper's setup (§5).
    pub fn total_centerline_length(&self) -> f64 {
        self.hallways.iter().map(|h| h.centerline().length()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::office_building;

    #[test]
    fn office_plan_statistics_match_paper() {
        let plan = office_building(&Default::default()).expect("valid plan");
        assert_eq!(plan.rooms().len(), 30, "paper: 30 rooms");
        assert_eq!(plan.hallways().len(), 4, "paper: 4 hallways");
        assert_eq!(plan.doors().len(), 30, "one door per room");
        for room in plan.rooms() {
            assert!(!room.doors().is_empty(), "every room connected by a door");
        }
    }

    #[test]
    fn locate_room_hallway_outside() {
        let plan = office_building(&Default::default()).unwrap();
        let h0 = plan.hallway(HallwayId::new(0));
        let c = h0.footprint().center();
        assert_eq!(plan.locate(c), Location::Hallway(HallwayId::new(0)));

        let r0 = &plan.rooms()[0];
        assert_eq!(plan.locate(r0.center()), Location::Room(r0.id()));

        let outside = Point2::new(plan.bounds().max().x + 10.0, 0.0);
        assert_eq!(plan.locate(outside), Location::Outside);
    }

    #[test]
    fn crossings_exist_between_connector_and_mains() {
        let plan = office_building(&Default::default()).unwrap();
        let crossings = plan.hallway_crossings();
        // The vertical connector crosses each of the three horizontal halls.
        assert_eq!(crossings.len(), 3);
    }

    #[test]
    fn indoor_area_counts_overlaps_once() {
        let plan = office_building(&Default::default()).unwrap();
        let rooms: f64 = plan.rooms().iter().map(Room::area).sum();
        let area = plan.indoor_area();
        assert!(area > rooms, "hallways add area");
        // And the total is less than the raw sum (overlaps removed).
        let raw: f64 = rooms
            + plan
                .hallways()
                .iter()
                .map(|h| h.footprint().area())
                .sum::<f64>();
        assert!(area < raw);
    }

    #[test]
    fn total_centerline_length_positive() {
        let plan = office_building(&Default::default()).unwrap();
        let len = plan.total_centerline_length();
        assert!(len > 100.0, "office building has long hallways, got {len}");
    }
}
