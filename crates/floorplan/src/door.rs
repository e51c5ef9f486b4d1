//! Doors: point connections between a room and a hallway.

use crate::{DoorId, HallwayId, RoomId};
use ripq_geom::Point2;

/// A door connecting a room to a hallway.
///
/// Doors are modelled as points on the shared boundary of the room and
/// hallway footprints. The walking graph inserts a node at the door's
/// projection onto the hallway centerline and an edge from there to the
/// room's center node, so all room entries/exits pass through doors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Door {
    id: DoorId,
    position: Point2,
    room: RoomId,
    hallway: HallwayId,
}

impl Door {
    /// Creates a door at `position` between `room` and `hallway`.
    pub fn new(id: DoorId, position: Point2, room: RoomId, hallway: HallwayId) -> Self {
        Door {
            id,
            position,
            room,
            hallway,
        }
    }

    /// This door's identifier.
    #[inline]
    pub fn id(&self) -> DoorId {
        self.id
    }

    /// Position on the room/hallway shared boundary.
    #[inline]
    pub fn position(&self) -> Point2 {
        self.position
    }

    /// The room this door opens into.
    #[inline]
    pub fn room(&self) -> RoomId {
        self.room
    }

    /// The hallway this door opens onto.
    #[inline]
    pub fn hallway(&self) -> HallwayId {
        self.hallway
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let d = Door::new(
            DoorId::new(4),
            Point2::new(5.0, 9.0),
            RoomId::new(1),
            HallwayId::new(0),
        );
        assert_eq!(d.id(), DoorId::new(4));
        assert_eq!(d.position(), Point2::new(5.0, 9.0));
        assert_eq!(d.room(), RoomId::new(1));
        assert_eq!(d.hallway(), HallwayId::new(0));
    }
}
