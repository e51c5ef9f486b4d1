//! Walking-graph nodes.

use crate::NodeId;
use ripq_floorplan::{DoorId, HallwayId, RoomId};
use ripq_geom::Point2;

/// What a walking-graph node represents in the floor plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A dead end of a hallway centerline.
    HallwayEnd(HallwayId),
    /// A crossing of two (or more) hallway centerlines.
    Junction,
    /// The projection of a door onto its hallway centerline; the hallway
    /// side of the door link edge.
    DoorPortal(DoorId),
    /// The center of a room; the room side of the door link edge. The
    /// paper's motion model treats particles at room nodes specially
    /// (stay probability 0.9 per second, Algorithm 2 lines 13–15).
    Room(RoomId),
}

impl NodeKind {
    /// `true` for room nodes.
    #[inline]
    pub fn is_room(&self) -> bool {
        matches!(self, NodeKind::Room(_))
    }
}

/// A node of the indoor walking graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Node {
    /// This node's identifier (dense index).
    pub id: NodeId,
    /// Position in the plane.
    pub position: Point2,
    /// What the node represents.
    pub kind: NodeKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Room(RoomId::new(0)).is_room());
        assert!(!NodeKind::Junction.is_room());
        assert!(!NodeKind::DoorPortal(DoorId::new(1)).is_room());
        assert!(!NodeKind::HallwayEnd(HallwayId::new(0)).is_room());
    }
}
