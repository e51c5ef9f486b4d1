//! Particle state on the walking graph.

use ripq_graph::{GraphPos, WalkingGraph};

/// Travel direction along an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heading {
    /// Moving toward the edge's `a` node (decreasing offset).
    TowardA,
    /// Moving toward the edge's `b` node (increasing offset).
    TowardB,
}

impl Heading {
    /// The opposite heading.
    #[inline]
    pub fn flipped(self) -> Heading {
        match self {
            Heading::TowardA => Heading::TowardB,
            Heading::TowardB => Heading::TowardA,
        }
    }
}

/// One particle hypothesis: "each particle represents a hypothesis of the
/// person's state with its own location, moving direction, and speed"
/// (§3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndoorState {
    /// Position on the walking graph.
    pub pos: GraphPos,
    /// Travel direction along the current edge.
    pub heading: Heading,
    /// Walking speed in m/s, constant for the particle's lifetime ("the
    /// object motion model assumes objects move forward with constant
    /// speeds", §3.1).
    pub speed: f64,
}

impl IndoorState {
    /// The node this particle is moving toward.
    pub fn target_node(&self, graph: &WalkingGraph) -> ripq_graph::NodeId {
        let e = graph.edge(self.pos.edge);
        match self.heading {
            Heading::TowardA => e.a,
            Heading::TowardB => e.b,
        }
    }

    /// Remaining distance to the node this particle is moving toward.
    pub fn distance_to_target(&self, graph: &WalkingGraph) -> f64 {
        let e = graph.edge(self.pos.edge);
        match self.heading {
            Heading::TowardA => self.pos.offset,
            Heading::TowardB => (e.length() - self.pos.offset).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;

    #[test]
    fn heading_flip() {
        assert_eq!(Heading::TowardA.flipped(), Heading::TowardB);
        assert_eq!(Heading::TowardB.flipped(), Heading::TowardA);
    }

    #[test]
    fn target_and_distance() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let e = &g.edges()[0];
        let len = e.length();
        let s = IndoorState {
            pos: GraphPos::new(e.id, len * 0.25),
            heading: Heading::TowardB,
            speed: 1.0,
        };
        assert_eq!(s.target_node(&g), e.b);
        assert!((s.distance_to_target(&g) - len * 0.75).abs() < 1e-9);
        let s2 = IndoorState {
            heading: Heading::TowardA,
            ..s
        };
        assert_eq!(s2.target_node(&g), e.a);
        assert!((s2.distance_to_target(&g) - len * 0.25).abs() < 1e-9);
    }
}
