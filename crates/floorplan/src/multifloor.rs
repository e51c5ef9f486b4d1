//! Multi-floor office buildings in "unrolled" coordinates.
//!
//! The paper's symbolic-model example (Fig. 2) features a staircase as a
//! first-class cell; this generator brings staircases to RIPQ. Floors are
//! laid out side by side along the y axis ("unrolled" — floor `k` occupies
//! the band `[k·pitch, k·pitch + floor_height]`), and each stairwell is a
//! vertical hallway bridging the top hallway of one floor to the bottom
//! hallway of the next. Because the result is an ordinary (large, valid)
//! [`FloorPlan`], every downstream component — walking graph, anchors,
//! readers, particle filter, simulator — works on it unchanged, and the
//! walking distance through a stairwell naturally models the extra meters
//! stairs cost.

use crate::office::add_office_floor;
use crate::{FloorPlan, FloorPlanBuilder, FloorPlanError, OfficeParams, RoomId};
use ripq_geom::Rect;

/// Dimensions of the generated multi-floor building.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFloorParams {
    /// Per-floor layout.
    pub floor: OfficeParams,
    /// Number of floors (≥ 1).
    pub floors: u32,
    /// Walking length of a stairwell beyond the vertical gap (stairs are
    /// longer than the straight-line distance; extra meters are added by
    /// widening the inter-floor gap in unrolled space).
    pub stair_gap: f64,
}

impl Default for MultiFloorParams {
    fn default() -> Self {
        MultiFloorParams {
            floor: OfficeParams::default(),
            floors: 3,
            stair_gap: 6.0,
        }
    }
}

impl MultiFloorParams {
    /// Height of one floor band in unrolled coordinates.
    pub fn floor_height(&self) -> f64 {
        let p = &self.floor;
        // Mirror of the office generator's vertical layout: margin + first
        // room row + per-hallway pitch + final room row + margin.
        2.0 * p.margin
            + p.room_depth
            + p.horizontal_hallways as f64 * (2.0 * p.room_depth + p.hallway_width + p.wall_gap)
            - p.wall_gap
            - p.room_depth
            + p.room_depth
    }

    /// Vertical pitch between consecutive floor bands.
    pub fn pitch(&self) -> f64 {
        self.floor_height() + self.stair_gap
    }

    /// Total rooms across all floors.
    pub fn room_count(&self) -> u32 {
        self.floor.room_count() * self.floors
    }

    /// The floor index a room id belongs to (rooms are numbered floor by
    /// floor).
    pub fn floor_of_room(&self, room: RoomId) -> u32 {
        room.raw() / self.floor.room_count()
    }
}

/// Generates the multi-floor building.
pub fn multi_floor_office(params: &MultiFloorParams) -> Result<FloorPlan, FloorPlanError> {
    assert!(params.floors >= 1, "at least one floor");
    let mut b = FloorPlanBuilder::new();
    let pitch = params.pitch();

    let mut bands = Vec::with_capacity(params.floors as usize);
    for f in 0..params.floors {
        let prefix = format!("F{f}-");
        let y0 = f as f64 * pitch;
        bands.push(add_office_floor(&mut b, &params.floor, y0, &prefix));
    }

    // Stairwells: vertical hallways over the connector's x span, bridging
    // floor f's top hallway to floor f+1's bottom hallway.
    let sx = params.floor.connector_x;
    let sw = params.floor.hallway_width;
    for f in 0..params.floors.saturating_sub(1) {
        let (_, top_of_lower) = bands[f as usize];
        let (bottom_of_upper, _) = bands[f as usize + 1];
        b.add_hallway(
            Rect::new(
                sx,
                top_of_lower - sw,
                sw,
                bottom_of_upper + sw - (top_of_lower - sw),
            ),
            format!("stairs-{f}-{}", f + 1),
        );
    }

    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::office_building;

    #[test]
    fn three_floor_building_is_valid() {
        let p = MultiFloorParams::default();
        let plan = multi_floor_office(&p).expect("valid building");
        assert_eq!(plan.rooms().len() as u32, p.room_count());
        assert_eq!(plan.rooms().len(), 90);
        // 4 hallways per floor + 2 stairwells.
        assert_eq!(plan.hallways().len(), 3 * 4 + 2);
    }

    #[test]
    fn single_floor_matches_office_building() {
        let p = MultiFloorParams {
            floors: 1,
            ..Default::default()
        };
        let multi = multi_floor_office(&p).unwrap();
        let single = office_building(&OfficeParams::default()).unwrap();
        assert_eq!(multi.rooms().len(), single.rooms().len());
        assert_eq!(multi.hallways().len(), single.hallways().len());
        for (a, b) in multi.rooms().iter().zip(single.rooms()) {
            assert_eq!(a.footprint(), b.footprint());
        }
    }

    #[test]
    fn floors_are_connected_through_stairs() {
        use ripq_geom::Point2;
        let p = MultiFloorParams {
            floors: 2,
            ..Default::default()
        };
        let plan = multi_floor_office(&p).unwrap();
        // Hallway-network connectivity is part of plan validation, but
        // verify the stairwell really overlaps hallways of both floors.
        let stairs = plan
            .hallways()
            .iter()
            .find(|h| h.name().starts_with("stairs"))
            .expect("stairwell exists");
        let overlapping = plan
            .hallways()
            .iter()
            .filter(|h| h.id() != stairs.id() && h.footprint().intersects(stairs.footprint()))
            .count();
        assert!(overlapping >= 2, "stairs bridge two floors: {overlapping}");
        // A point in floor 1's band locates to a floor-1 entity.
        let pitch = p.pitch();
        let up = Point2::new(5.0, pitch + 5.0);
        match plan.locate(up) {
            crate::Location::Room(r) => assert_eq!(p.floor_of_room(r), 1),
            other => panic!("expected a floor-1 room, got {other:?}"),
        }
    }

    #[test]
    fn room_floor_mapping() {
        let p = MultiFloorParams::default();
        assert_eq!(p.floor_of_room(RoomId::new(0)), 0);
        assert_eq!(p.floor_of_room(RoomId::new(29)), 0);
        assert_eq!(p.floor_of_room(RoomId::new(30)), 1);
        assert_eq!(p.floor_of_room(RoomId::new(89)), 2);
    }

    #[test]
    fn names_carry_floor_prefixes() {
        let plan = multi_floor_office(&MultiFloorParams::default()).unwrap();
        assert!(plan.rooms().iter().any(|r| r.name().starts_with("F0-")));
        assert!(plan.rooms().iter().any(|r| r.name().starts_with("F2-")));
        assert!(plan.hallways().iter().any(|h| h.name() == "stairs-1-2"));
    }
}
