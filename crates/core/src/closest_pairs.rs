//! Probabilistic closest-pairs queries — part of the paper's stated future
//! work ("more spatial query types such as continuous range, continuous
//! kNN, closest-pairs", §6).
//!
//! A closest-pairs query asks for the `m` pairs of tracked objects with
//! the smallest indoor walking distance between them. Under probabilistic
//! locations we rank pairs by **expected network distance** between their
//! anchor distributions and additionally report, for each returned pair,
//! the probability that the pair is within a caller-supplied contact
//! radius — the "are these two people together?" primitive that contact
//! tracing and social applications need.

use ripq_graph::{AnchorId, AnchorObjectIndex, AnchorSet, DistanceOracle, GraphPos, WalkingGraph};
use ripq_rfid::ObjectId;
use std::collections::{BTreeSet, HashMap};

/// One result pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectPair {
    /// The pair, ordered by object id (`a < b`).
    pub a: ObjectId,
    /// Second object of the pair.
    pub b: ObjectId,
    /// Expected network distance between the two objects' distributions.
    pub expected_distance: f64,
    /// Probability the two objects are within the query's contact radius.
    pub within_radius: f64,
}

/// A closest-pairs query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosestPairsQuery {
    /// Number of pairs to return.
    pub m: usize,
    /// Contact radius (meters of walking distance) for the
    /// `within_radius` probability.
    pub contact_radius: f64,
}

/// Evaluates a closest-pairs query over the filtered index.
///
/// Complexity: one Dijkstra per distinct *anchor* that carries probability
/// (not per object), then O(pairs × support²) accumulation. With the
/// default 64-particle distributions supports are small (≤ a few dozen
/// anchors per object).
///
/// This is the full-Dijkstra reference for
/// [`evaluate_closest_pairs_with_oracle`], which the system runs.
pub fn evaluate_closest_pairs(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &ClosestPairsQuery,
) -> Vec<ObjectPair> {
    let Some((objects, support, pos_of)) = resolve_support(index, anchors, query) else {
        return Vec::new();
    };
    // Network distances between support anchors: Dijkstra from each.
    let mut dist: HashMap<(AnchorId, AnchorId), f64> = HashMap::new();
    for &a in &support {
        let sp = graph.shortest_paths_from(pos_of[&a]);
        for &b in &support {
            dist.insert((a, b), sp.distance_to(graph, pos_of[&b]));
        }
    }
    rank_pairs(&objects, index, &dist, query)
}

/// [`evaluate_closest_pairs`] through the landmark distance oracle: the
/// support-anchor distance matrix comes from one truncated ascending scan
/// per source anchor ([`DistanceOracle::distances_to_anchors`]) instead of
/// a full Dijkstra tree per source. Distances are bit-identical, so the
/// ranked pairs are too.
pub fn evaluate_closest_pairs_with_oracle(
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    index: &AnchorObjectIndex<ObjectId>,
    query: &ClosestPairsQuery,
    oracle: &DistanceOracle,
) -> Vec<ObjectPair> {
    let Some((objects, support, pos_of)) = resolve_support(index, anchors, query) else {
        return Vec::new();
    };
    let needed: BTreeSet<AnchorId> = support.iter().copied().collect();
    let mut dist: HashMap<(AnchorId, AnchorId), f64> = HashMap::new();
    for &a in &support {
        let row = oracle.distances_to_anchors(graph, anchors, pos_of[&a], &needed);
        for &b in &support {
            dist.insert((a, b), row[&b]);
        }
    }
    rank_pairs(&objects, index, &dist, query)
}

/// The sorted object list, the distinct anchors that carry probability,
/// and their graph positions. `None` when the query is degenerate.
#[allow(clippy::type_complexity)]
fn resolve_support(
    index: &AnchorObjectIndex<ObjectId>,
    anchors: &AnchorSet,
    query: &ClosestPairsQuery,
) -> Option<(Vec<ObjectId>, Vec<AnchorId>, HashMap<AnchorId, GraphPos>)> {
    let mut objects: Vec<ObjectId> = index.objects().copied().collect();
    objects.sort_unstable();
    if objects.len() < 2 || query.m == 0 {
        return None;
    }
    // Distinct anchors used by any distribution (objects without one
    // simply contribute no anchors).
    let mut support: Vec<AnchorId> = objects
        .iter()
        .flat_map(|o| index.distribution(o).into_iter().flatten().map(|&(a, _)| a))
        .collect();
    support.sort_unstable();
    support.dedup();
    let pos_of: HashMap<AnchorId, GraphPos> = support
        .iter()
        .map(|&a| (a, anchors.anchor(a).pos))
        .collect();
    Some((objects, support, pos_of))
}

/// Accumulates expected distance / contact probability per pair over the
/// precomputed support-anchor distance matrix, ranks, and truncates.
fn rank_pairs(
    objects: &[ObjectId],
    index: &AnchorObjectIndex<ObjectId>,
    dist: &HashMap<(AnchorId, AnchorId), f64>,
    query: &ClosestPairsQuery,
) -> Vec<ObjectPair> {
    let mut pairs = Vec::with_capacity(objects.len() * (objects.len() - 1) / 2);
    for (i, &a) in objects.iter().enumerate() {
        let Some(da) = index.distribution(&a) else {
            continue;
        };
        for &b in &objects[i + 1..] {
            let Some(db) = index.distribution(&b) else {
                continue;
            };
            let mut expected = 0.0;
            let mut close = 0.0;
            let mut mass = 0.0;
            for &(aa, pa) in da {
                for &(ab, pb) in db {
                    let d = dist.get(&(aa, ab)).copied().unwrap_or(f64::INFINITY);
                    let w = pa * pb;
                    expected += w * d;
                    mass += w;
                    if d <= query.contact_radius {
                        close += w;
                    }
                }
            }
            if mass > 0.0 {
                expected /= mass;
                close /= mass;
            }
            pairs.push(ObjectPair {
                a,
                b,
                expected_distance: expected,
                within_radius: close,
            });
        }
    }
    pairs.sort_by(|x, y| {
        x.expected_distance
            .partial_cmp(&y.expected_distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (x.a, x.b).cmp(&(y.a, y.b)))
    });
    pairs.truncate(query.m);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, FloorPlan, OfficeParams};
    use ripq_geom::Point2;
    use ripq_graph::build_walking_graph;

    fn setup() -> (FloorPlan, WalkingGraph, AnchorSet) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        (plan, graph, anchors)
    }

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn place(
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        index: &mut AnchorObjectIndex<ObjectId>,
        obj: ObjectId,
        p: Point2,
    ) {
        let a = anchors.nearest(graph.project(p));
        index.set_object(obj, vec![(a, 1.0)]);
    }

    #[test]
    fn nearest_pair_comes_first() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let base = plan.hallways()[0].footprint().center();
        place(&graph, &anchors, &mut index, o(0), base);
        place(
            &graph,
            &anchors,
            &mut index,
            o(1),
            base + Point2::new(2.0, 0.0),
        );
        place(
            &graph,
            &anchors,
            &mut index,
            o(2),
            base + Point2::new(15.0, 0.0),
        );
        let q = ClosestPairsQuery {
            m: 3,
            contact_radius: 3.0,
        };
        let pairs = evaluate_closest_pairs(&graph, &anchors, &index, &q);
        assert_eq!(pairs.len(), 3);
        assert_eq!((pairs[0].a, pairs[0].b), (o(0), o(1)));
        assert!(pairs[0].expected_distance < pairs[1].expected_distance);
        assert!(pairs[0].within_radius > 0.99, "certain contact");
        // The far pairs are not within the contact radius.
        assert!(pairs[2].within_radius < 0.01);
    }

    #[test]
    fn m_truncates() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        for i in 0..4 {
            place(
                &graph,
                &anchors,
                &mut index,
                o(i),
                plan.rooms()[i as usize].center(),
            );
        }
        let q = ClosestPairsQuery {
            m: 2,
            contact_radius: 5.0,
        };
        let pairs = evaluate_closest_pairs(&graph, &anchors, &index, &q);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn uncertain_locations_give_expected_distance() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let base = plan.hallways()[0].footprint().center();
        let a_near = anchors.nearest(graph.project(base + Point2::new(2.0, 0.0)));
        let a_far = anchors.nearest(graph.project(base + Point2::new(10.0, 0.0)));
        place(&graph, &anchors, &mut index, o(0), base);
        index.set_object(o(1), vec![(a_near, 0.5), (a_far, 0.5)]);
        let q = ClosestPairsQuery {
            m: 1,
            contact_radius: 4.0,
        };
        let pairs = evaluate_closest_pairs(&graph, &anchors, &index, &q);
        // Expected distance ≈ 0.5·2 + 0.5·10 = 6 (± anchor discretization).
        assert!(
            (pairs[0].expected_distance - 6.0).abs() < 1.5,
            "got {}",
            pairs[0].expected_distance
        );
        // Contact (within 4 m) happens in the near branch only: ≈ 0.5.
        assert!((pairs[0].within_radius - 0.5).abs() < 0.05);
    }

    #[test]
    fn oracle_backend_ranks_pairs_bit_for_bit() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let base = plan.hallways()[0].footprint().center();
        let a_near = anchors.nearest(graph.project(base + Point2::new(2.0, 0.0)));
        let a_far = anchors.nearest(graph.project(plan.hallways()[2].footprint().center()));
        index.set_object(o(0), vec![(a_near, 0.4), (a_far, 0.6)]);
        for i in 1..5 {
            place(
                &graph,
                &anchors,
                &mut index,
                o(i),
                plan.rooms()[i as usize * 5].center(),
            );
        }
        let oracle = ripq_graph::DistanceOracle::build(&graph, ripq_graph::DEFAULT_LANDMARKS);
        let q = ClosestPairsQuery {
            m: 10,
            contact_radius: 8.0,
        };
        let eager = evaluate_closest_pairs(&graph, &anchors, &index, &q);
        let lazy = evaluate_closest_pairs_with_oracle(&graph, &anchors, &index, &q, &oracle);
        assert_eq!(eager.len(), lazy.len());
        for (x, y) in eager.iter().zip(&lazy) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert_eq!(
                x.expected_distance.to_bits(),
                y.expected_distance.to_bits(),
                "pair ({}, {})",
                x.a,
                x.b
            );
            assert_eq!(x.within_radius.to_bits(), y.within_radius.to_bits());
        }
    }

    #[test]
    fn degenerate_inputs() {
        let (plan, graph, anchors) = setup();
        let mut index = AnchorObjectIndex::new();
        let q = ClosestPairsQuery {
            m: 5,
            contact_radius: 2.0,
        };
        assert!(evaluate_closest_pairs(&graph, &anchors, &index, &q).is_empty());
        place(&graph, &anchors, &mut index, o(0), plan.rooms()[0].center());
        assert!(
            evaluate_closest_pairs(&graph, &anchors, &index, &q).is_empty(),
            "one object has no pairs"
        );
        place(&graph, &anchors, &mut index, o(1), plan.rooms()[1].center());
        let zero = ClosestPairsQuery {
            m: 0,
            contact_radius: 2.0,
        };
        assert!(evaluate_closest_pairs(&graph, &anchors, &index, &zero).is_empty());
    }
}
