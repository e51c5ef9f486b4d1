//! Rooms: reader-free rectangular spaces reachable through doors.

use crate::{DoorId, RoomId};
use ripq_geom::{Point2, Rect};

/// A rectangular room.
///
/// No RFID readers are deployed inside rooms (privacy, §1/§2.2), so "the
/// resolution of location inferences cannot be higher than a single room"
/// (§4.2). Objects inside a room are treated as uniformly distributed over
/// its area by the range-query evaluation (Algorithm 3's area-ratio
/// compensation).
#[derive(Debug, Clone, PartialEq)]
pub struct Room {
    id: RoomId,
    footprint: Rect,
    name: String,
    doors: Vec<DoorId>,
}

impl Room {
    /// Creates a room. Door ids are attached later by the builder.
    pub fn new(id: RoomId, footprint: Rect, name: impl Into<String>) -> Self {
        Room {
            id,
            footprint,
            name: name.into(),
            doors: Vec::new(),
        }
    }

    /// This room's identifier.
    #[inline]
    pub fn id(&self) -> RoomId {
        self.id
    }

    /// Human-readable name (e.g. `"R203"`).
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The rectangular footprint.
    #[inline]
    pub fn footprint(&self) -> &Rect {
        &self.footprint
    }

    /// Floor area in square meters — the `Area_{R}` of Algorithm 3.
    #[inline]
    pub fn area(&self) -> f64 {
        self.footprint.area()
    }

    /// Geometric center; the walking graph places the room's node here.
    #[inline]
    pub fn center(&self) -> Point2 {
        self.footprint.center()
    }

    /// Doors of this room (at least one in a validated plan).
    #[inline]
    pub fn doors(&self) -> &[DoorId] {
        &self.doors
    }

    /// Returns `true` when `p` lies within the footprint.
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        self.footprint.contains(p)
    }

    pub(crate) fn push_door(&mut self, d: DoorId) {
        self.doors.push(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let mut room = Room::new(RoomId::new(3), Rect::new(0.0, 0.0, 10.0, 8.0), "R3");
        assert_eq!(room.id(), RoomId::new(3));
        assert_eq!(room.name(), "R3");
        assert_eq!(room.area(), 80.0);
        assert_eq!(room.center(), Point2::new(5.0, 4.0));
        assert!(room.doors().is_empty());
        room.push_door(DoorId::new(0));
        room.push_door(DoorId::new(5));
        assert_eq!(room.doors(), &[DoorId::new(0), DoorId::new(5)]);
    }

    #[test]
    fn containment() {
        let room = Room::new(RoomId::new(0), Rect::new(2.0, 2.0, 4.0, 4.0), "r");
        assert!(room.contains(Point2::new(3.0, 3.0)));
        assert!(room.contains(Point2::new(2.0, 2.0))); // boundary
        assert!(!room.contains(Point2::new(6.5, 3.0)));
    }
}
