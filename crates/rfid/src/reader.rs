//! RFID readers.

use ripq_geom::Point2;
use ripq_graph::GraphPos;
use std::fmt;

/// Identifier of an RFID reader (`dᵢ` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReaderId(u32);

impl ReaderId {
    /// Wraps a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        ReaderId(raw)
    }

    /// The raw dense index.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The raw index as `usize`, for direct `Vec` indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ReaderId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// An RFID reader deployed on a hallway centerline.
///
/// A reader detects tags within `activation_range` meters of its position
/// (Euclidean). The paper assumes the range covers the hallway width, so a
/// reader partitions its hallway into "before" and "after" sections (§3.2,
/// Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reader {
    id: ReaderId,
    position: Point2,
    graph_pos: GraphPos,
    activation_range: f64,
}

impl Reader {
    /// Creates a reader at `position` (with its projection onto the walking
    /// graph precomputed as `graph_pos`).
    pub fn new(id: ReaderId, position: Point2, graph_pos: GraphPos, activation_range: f64) -> Self {
        Reader {
            id,
            position,
            graph_pos,
            activation_range,
        }
    }

    /// This reader's identifier.
    #[inline]
    pub fn id(&self) -> ReaderId {
        self.id
    }

    /// 2-D position of the reader.
    #[inline]
    pub fn position(&self) -> Point2 {
        self.position
    }

    /// The reader's position projected onto the walking graph (used for
    /// network-distance pruning and particle seeding).
    #[inline]
    pub fn graph_pos(&self) -> GraphPos {
        self.graph_pos
    }

    /// Detection radius in meters (`d.range` in §4.3).
    #[inline]
    pub fn activation_range(&self) -> f64 {
        self.activation_range
    }

    /// Returns `true` when `p` is within the activation range.
    #[inline]
    pub fn covers(&self, p: Point2) -> bool {
        self.position.distance_sq(p) <= self.activation_range * self.activation_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_graph::EdgeId;

    fn reader(range: f64) -> Reader {
        Reader::new(
            ReaderId::new(0),
            Point2::new(10.0, 10.0),
            GraphPos::new(EdgeId::new(0), 10.0),
            range,
        )
    }

    #[test]
    fn covers_is_closed_disk() {
        let r = reader(2.0);
        assert!(r.covers(Point2::new(10.0, 10.0)));
        assert!(r.covers(Point2::new(12.0, 10.0)));
        assert!(!r.covers(Point2::new(12.1, 10.0)));
        assert!(r.covers(Point2::new(11.0, 11.0)));
    }

    #[test]
    fn display() {
        assert_eq!(ReaderId::new(4).to_string(), "d4");
    }
}
