//! Generator for the paper's experimental office building.
//!
//! §5 of the paper: "The settings of our experiment validation include 30
//! rooms and 4 hallways on a single floor, in which all rooms are connected
//! to one or more hallways by doors." The concrete geometry is not given, so
//! we generate a deterministic plan with those cardinalities: three parallel
//! horizontal hallways joined by one vertical connector, each horizontal
//! hallway lined with rooms on both sides.

use crate::{FloorPlan, FloorPlanBuilder, FloorPlanError};
use ripq_geom::{Point2, Rect};

/// Dimensions of the generated office building (all meters).
///
/// The default values reproduce the paper's setting: 3 horizontal hallways
/// × (3 + 2) room columns × 2 sides = **30 rooms**, plus the vertical
/// connector = **4 hallways**.
#[derive(Debug, Clone, PartialEq)]
pub struct OfficeParams {
    /// Length of each horizontal hallway (x extent of the building).
    pub hallway_length: f64,
    /// Corridor width. The paper assumes reader activation ranges cover it.
    pub hallway_width: f64,
    /// Depth of every room (distance from hallway wall to back wall).
    pub room_depth: f64,
    /// Structural gap between back-to-back room rows.
    pub wall_gap: f64,
    /// Bottom/left margin before the first room row.
    pub margin: f64,
    /// x position where the vertical connector's left wall sits.
    pub connector_x: f64,
    /// Number of room columns left of the connector.
    pub left_cols: u32,
    /// Number of room columns right of the connector.
    pub right_cols: u32,
    /// Number of horizontal hallways.
    pub horizontal_hallways: u32,
}

impl Default for OfficeParams {
    fn default() -> Self {
        OfficeParams {
            hallway_length: 62.0,
            hallway_width: 2.0,
            room_depth: 8.0,
            wall_gap: 2.0,
            margin: 1.0,
            connector_x: 30.0,
            left_cols: 3,
            right_cols: 2,
            horizontal_hallways: 3,
        }
    }
}

impl OfficeParams {
    /// Total number of rooms the plan will contain.
    pub fn room_count(&self) -> u32 {
        (self.left_cols + self.right_cols) * 2 * self.horizontal_hallways
    }

    /// Total number of hallways (horizontal + one vertical connector).
    pub fn hallway_count(&self) -> u32 {
        self.horizontal_hallways + 1
    }
}

/// Generates the office-building floor plan described by `params`.
///
/// With default parameters this is the paper's 30-room / 4-hallway single
/// floor. The plan is deterministic: identical parameters always produce an
/// identical plan, which keeps every experiment reproducible.
pub fn office_building(params: &OfficeParams) -> Result<FloorPlan, FloorPlanError> {
    let mut b = FloorPlanBuilder::new();
    add_office_floor(&mut b, params, 0.0, "");
    b.build()
}

/// Adds one office floor's hallways, rooms and doors to `builder` at
/// vertical offset `y0`, prefixing entity names with `prefix`. Returns the
/// y extents of the bottom and top horizontal hallways (used by the
/// multi-floor generator to route stairwells).
///
/// The connector hallway's x span is `[connector_x, connector_x +
/// hallway_width]` regardless of the offset, so stacked floors share
/// stairwell alignment.
pub(crate) fn add_office_floor(
    b: &mut FloorPlanBuilder,
    p: &OfficeParams,
    y0: f64,
    prefix: &str,
) -> (f64, f64) {
    let w = p.hallway_width;
    let d = p.room_depth;
    let g = p.wall_gap;
    let m = p.margin;

    // Horizontal hallways: hallway k's footprint starts at
    // y = y0 + m + d + k (2d + w + g).
    let hall_y = |k: u32| y0 + m + d + k as f64 * (2.0 * d + w + g);
    let mut horizontal = Vec::new();
    for k in 0..p.horizontal_hallways {
        let id = b.add_hallway(
            Rect::new(0.0, hall_y(k), p.hallway_length, w),
            format!("{prefix}H{k}"),
        );
        horizontal.push(id);
    }
    // Vertical connector spanning from the bottom hallway to the top one.
    let connector_span = hall_y(p.horizontal_hallways - 1) + w - hall_y(0);
    b.add_hallway(
        Rect::new(p.connector_x, hall_y(0), w, connector_span),
        format!("{prefix}H-connector"),
    );

    // Room columns: `left_cols` equal columns in [0, connector_x] and
    // `right_cols` equal columns in [connector_x + w, hallway_length].
    let mut columns = Vec::new();
    let left_w = p.connector_x / p.left_cols as f64;
    for c in 0..p.left_cols {
        columns.push((c as f64 * left_w, left_w));
    }
    let right_start = p.connector_x + w;
    let right_w = (p.hallway_length - right_start) / p.right_cols as f64;
    for c in 0..p.right_cols {
        columns.push((right_start + c as f64 * right_w, right_w));
    }

    // Two room rows per horizontal hallway: below (door on the room's top
    // edge) and above (door on the room's bottom edge).
    let mut room_no = 0u32;
    for k in 0..p.horizontal_hallways {
        let hy = hall_y(k);
        for (row_y, door_y, side) in [(hy - d, hy, "s"), (hy + w, hy + w, "n")] {
            for &(cx, cw) in &columns {
                let room = b.add_room(
                    Rect::new(cx, row_y, cw, d),
                    format!("{prefix}R{room_no}{side}"),
                );
                b.add_door(
                    Point2::new(cx + cw * 0.5, door_y),
                    room,
                    horizontal[k as usize],
                );
                room_no += 1;
            }
        }
    }

    (hall_y(0), hall_y(p.horizontal_hallways - 1) + w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Location;

    #[test]
    fn default_params_give_paper_cardinalities() {
        let p = OfficeParams::default();
        assert_eq!(p.room_count(), 30);
        assert_eq!(p.hallway_count(), 4);
        let plan = office_building(&p).expect("valid default plan");
        assert_eq!(plan.rooms().len(), 30);
        assert_eq!(plan.hallways().len(), 4);
    }

    #[test]
    fn every_door_on_its_hallway() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        for door in plan.doors() {
            let hall = plan.hallway(door.hallway());
            assert!(
                hall.footprint().distance_to_point(door.position()) < 1e-9,
                "door {} not on hallway {}",
                door.id(),
                hall.id()
            );
        }
    }

    #[test]
    fn scaled_plan_also_valid() {
        let p = OfficeParams {
            hallway_length: 100.0,
            left_cols: 4,
            right_cols: 4,
            horizontal_hallways: 4,
            connector_x: 49.0,
            ..Default::default()
        };
        assert_eq!(p.room_count(), 64);
        let plan = office_building(&p).expect("scaled plan valid");
        assert_eq!(plan.rooms().len(), 64);
        assert_eq!(plan.hallways().len(), 5);
    }

    #[test]
    fn connector_crosses_every_horizontal_hallway() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        assert_eq!(plan.hallway_crossings().len(), 3);
    }

    #[test]
    fn room_centers_locate_inside_their_room() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        for room in plan.rooms() {
            assert_eq!(plan.locate(room.center()), Location::Room(room.id()));
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = office_building(&OfficeParams::default()).unwrap();
        let b = office_building(&OfficeParams::default()).unwrap();
        assert_eq!(a.bounds(), b.bounds());
        for (ra, rb) in a.rooms().iter().zip(b.rooms()) {
            assert_eq!(ra.footprint(), rb.footprint());
        }
    }
}
