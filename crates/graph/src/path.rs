//! Explicit paths on the walking graph, parameterized by arc length.
//!
//! The simulator's true-trace generator makes objects "walk along the
//! shortest path on the indoor walking graph from its current location to
//! the destination node" (§5.1). [`Path`] is that route: an ordered list of
//! edge traversals supporting constant-time-ish `pos_at(distance)` lookups
//! as the object advances second by second.

use crate::{EdgeId, GraphPos, WalkingGraph};

/// One traversal of (part of) an edge, from arc offset `from` to `to`
/// (either direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLeg {
    /// The edge traversed.
    pub edge: EdgeId,
    /// Start offset on the edge.
    pub from: f64,
    /// End offset on the edge.
    pub to: f64,
}

impl PathLeg {
    /// Arc length of this leg.
    #[inline]
    pub fn length(&self) -> f64 {
        (self.to - self.from).abs()
    }
}

/// A route between two graph positions.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    legs: Vec<PathLeg>,
    /// Cumulative length *before* each leg; `cum[i]` = distance travelled
    /// when leg `i` starts.
    cum: Vec<f64>,
    length: f64,
    start: GraphPos,
    end: GraphPos,
}

impl Path {
    /// A path that stays within a single edge.
    pub(crate) fn single_leg(_graph: &WalkingGraph, edge: EdgeId, from: f64, to: f64) -> Path {
        let leg = PathLeg { edge, from, to };
        Path {
            cum: vec![0.0],
            length: leg.length(),
            legs: vec![leg],
            start: GraphPos::new(edge, from),
            end: GraphPos::new(edge, to),
        }
    }

    /// Assembles a path from raw `(edge, from, to)` legs.
    pub(crate) fn from_legs(
        _graph: &WalkingGraph,
        start: GraphPos,
        end: GraphPos,
        raw: Vec<(EdgeId, f64, f64)>,
    ) -> Path {
        let legs: Vec<PathLeg> = raw
            .into_iter()
            .map(|(edge, from, to)| PathLeg { edge, from, to })
            .collect();
        let mut cum = Vec::with_capacity(legs.len());
        let mut acc = 0.0;
        for leg in &legs {
            cum.push(acc);
            acc += leg.length();
        }
        if legs.is_empty() {
            cum.push(0.0);
        }
        Path {
            legs,
            cum,
            length: acc,
            start,
            end,
        }
    }

    /// Total arc length of the route.
    #[inline]
    pub fn length(&self) -> f64 {
        self.length
    }

    /// The legs of the route, in travel order.
    #[inline]
    pub fn legs(&self) -> &[PathLeg] {
        &self.legs
    }

    /// Position where the route starts.
    #[inline]
    pub fn start(&self) -> GraphPos {
        self.start
    }

    /// Position where the route ends.
    #[inline]
    pub fn end(&self) -> GraphPos {
        self.end
    }

    /// The graph position after travelling `dist` along the route
    /// (clamped to `[0, length]`).
    pub fn pos_at(&self, dist: f64) -> GraphPos {
        if self.legs.is_empty() {
            return self.start;
        }
        if dist <= 0.0 {
            return self.start;
        }
        if dist >= self.length {
            return self.end;
        }
        // Find the leg containing `dist`.
        let i = match self
            .cum
            .binary_search_by(|c| c.partial_cmp(&dist).expect("finite"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let leg = &self.legs[i];
        let into = dist - self.cum[i];
        let offset = if leg.to >= leg.from {
            leg.from + into
        } else {
            leg.from - into
        };
        GraphPos::new(leg.edge, offset)
    }

    /// `true` when the route has zero length.
    pub fn is_empty(&self) -> bool {
        self.length <= 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_walking_graph;
    use ripq_floorplan::{office_building, OfficeParams};

    #[test]
    fn pos_at_endpoints() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let from = g.project(plan.rooms()[1].center());
        let to = g.project(plan.rooms()[20].center());
        let path = g.shortest_paths_from(from).path_to(&g, to).unwrap();
        assert_eq!(path.pos_at(-1.0), path.start());
        assert_eq!(path.pos_at(path.length() + 5.0), path.end());
    }

    #[test]
    fn cumulative_leg_lengths_sum_to_total() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let from = g.project(plan.rooms()[0].center());
        let to = g.project(plan.rooms()[29].center());
        let path = g.shortest_paths_from(from).path_to(&g, to).unwrap();
        let total: f64 = path.legs().iter().map(PathLeg::length).sum();
        assert!((total - path.length()).abs() < 1e-9);
        assert!(!path.is_empty());
    }

    #[test]
    fn zero_length_path_is_empty() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        let from = g.project(plan.rooms()[0].center());
        let path = g.shortest_paths_from(from).path_to(&g, from).unwrap();
        assert!(path.is_empty());
        assert_eq!(path.pos_at(0.0), from);
    }
}
