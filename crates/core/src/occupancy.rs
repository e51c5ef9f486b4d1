//! Room-occupancy analytics over the probabilistic index.
//!
//! Facility dashboards ask aggregate questions — "how many people are in
//! each meeting room right now?" — rather than per-object queries. Under
//! probabilistic locations the natural answer is the *expected* occupant
//! count per room: the sum over objects of their probability of being in
//! that room. This module computes the full occupancy report in one pass
//! over the `APtoObjHT` index.

use ripq_floorplan::{FloorPlan, Location, RoomId};
use ripq_graph::{AnchorObjectIndex, AnchorSet};
use ripq_rfid::ObjectId;
use std::collections::BTreeMap;

/// Expected occupancy of one room.
#[derive(Debug, Clone, PartialEq)]
pub struct RoomOccupancy {
    /// The room.
    pub room: RoomId,
    /// Expected number of occupants (sum of per-object probabilities).
    pub expected: f64,
    /// Objects with probability ≥ 0.5 of being in this room.
    pub likely_occupants: Vec<ObjectId>,
}

/// Full occupancy report at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OccupancyReport {
    /// Per-room occupancy, indexable by [`RoomId::index`].
    pub rooms: Vec<RoomOccupancy>,
    /// Expected number of objects in hallways (not in any room).
    pub hallway_expected: f64,
}

impl OccupancyReport {
    /// The `n` rooms with the highest expected occupancy.
    pub fn busiest(&self, n: usize) -> Vec<&RoomOccupancy> {
        let mut v: Vec<&RoomOccupancy> = self.rooms.iter().collect();
        v.sort_by(|a, b| {
            b.expected
                .partial_cmp(&a.expected)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.room.cmp(&b.room))
        });
        v.truncate(n);
        v
    }

    /// Total expected population (rooms + hallways).
    pub fn total_expected(&self) -> f64 {
        self.rooms.iter().map(|r| r.expected).sum::<f64>() + self.hallway_expected
    }
}

/// Computes the expected occupancy of every room from the filtered index.
pub fn room_occupancy(
    plan: &FloorPlan,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
) -> OccupancyReport {
    // Per (room, object) probability accumulation. Ordered maps so the
    // per-room float sums below accumulate in object-id order and round
    // identically on every run.
    let mut per_room: Vec<BTreeMap<ObjectId, f64>> = vec![BTreeMap::new(); plan.rooms().len()];
    let mut hallway_expected = 0.0;
    let objects: Vec<ObjectId> = index.objects().copied().collect();
    for o in &objects {
        let Some(dist) = index.distribution(o) else {
            continue;
        };
        for &(a, p) in dist {
            match anchors.anchor(a).location {
                Location::Room(r) => {
                    *per_room[r.index()].entry(*o).or_insert(0.0) += p;
                }
                Location::Hallway(_) | Location::Outside => hallway_expected += p,
            }
        }
    }
    let rooms = per_room
        .into_iter()
        .enumerate()
        .map(|(i, probs)| {
            let expected = probs.values().sum();
            let mut likely: Vec<ObjectId> = probs
                .iter()
                .filter(|(_, &p)| p >= 0.5)
                .map(|(&o, _)| o)
                .collect();
            likely.sort_unstable();
            RoomOccupancy {
                room: RoomId::new(i as u32),
                expected,
                likely_occupants: likely,
            }
        })
        .collect();
    OccupancyReport {
        rooms,
        hallway_expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    #[test]
    fn occupancy_sums_probabilities_per_room() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let mut index = AnchorObjectIndex::new();
        let room = &plan.rooms()[4];
        let ra = anchors.in_room(room.id());
        // o0 fully in the room; o1 half in the room, half in a hallway.
        index.set_object(o(0), vec![(ra[0], 0.6), (ra[ra.len() - 1], 0.4)]);
        let hall_anchor = anchors.in_hallway(plan.hallways()[0].id())[0];
        index.set_object(o(1), vec![(ra[0], 0.5), (hall_anchor, 0.5)]);

        let report = room_occupancy(&plan, &anchors, &index);
        let occ = &report.rooms[room.id().index()];
        assert!((occ.expected - 1.5).abs() < 1e-9);
        assert_eq!(occ.likely_occupants, vec![o(0), o(1)]);
        assert!((report.hallway_expected - 0.5).abs() < 1e-9);
        assert!((report.total_expected() - 2.0).abs() < 1e-9);
        // Other rooms are empty.
        let other = &report.rooms[(room.id().index() + 1) % 30];
        assert_eq!(other.expected, 0.0);
        assert!(other.likely_occupants.is_empty());
    }

    #[test]
    fn busiest_ranks_by_expected_count() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let mut index = AnchorObjectIndex::new();
        for (i, room_idx) in [2usize, 2, 2, 9, 9, 17].iter().enumerate() {
            let ra = anchors.in_room(plan.rooms()[*room_idx].id());
            index.set_object(o(i as u32), vec![(ra[0], 1.0)]);
        }
        let report = room_occupancy(&plan, &anchors, &index);
        let busiest = report.busiest(2);
        assert_eq!(busiest[0].room, plan.rooms()[2].id());
        assert!((busiest[0].expected - 3.0).abs() < 1e-9);
        assert_eq!(busiest[1].room, plan.rooms()[9].id());
        assert_eq!(busiest[1].likely_occupants.len(), 2);
    }

    #[test]
    fn empty_index_gives_empty_report() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let index = AnchorObjectIndex::new();
        let report = room_occupancy(&plan, &anchors, &index);
        assert_eq!(report.rooms.len(), 30);
        assert_eq!(report.total_expected(), 0.0);
    }
}
