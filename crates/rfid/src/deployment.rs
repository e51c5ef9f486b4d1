//! Reader deployment along hallway centerlines.

use crate::{Reader, ReaderId};
use rand::{RngExt, SeedableRng};
use ripq_floorplan::FloorPlan;
use ripq_graph::WalkingGraph;

/// How to place readers on the hallway network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeploymentStrategy {
    /// Uniform spacing along the concatenated centerlines (the paper's
    /// setup, §5).
    Uniform,
    /// At door positions (projected onto the centerline), preferring doors
    /// far from already-placed readers — maximizes room-entry visibility.
    AtDoors,
    /// Random centerline positions (seeded), rejecting candidates closer
    /// than one activation diameter to an existing reader when possible.
    Random {
        /// RNG seed for reproducible layouts.
        seed: u64,
    },
}

/// Deploys `count` readers per `strategy`.
pub fn deploy(
    plan: &FloorPlan,
    graph: &WalkingGraph,
    strategy: DeploymentStrategy,
    count: u32,
    activation_range: f64,
) -> Vec<Reader> {
    match strategy {
        DeploymentStrategy::Uniform => deploy_uniform(plan, graph, count, activation_range),
        DeploymentStrategy::AtDoors => deploy_at_doors(plan, graph, count, activation_range),
        DeploymentStrategy::Random { seed } => {
            deploy_random(plan, graph, count, activation_range, seed)
        }
    }
}

/// Places readers at door positions (projected onto the hallway
/// centerline), greedily picking the door farthest from every reader
/// placed so far (farthest-point heuristic). Falls back to uniform
/// placement when the plan has fewer doors than `count`.
pub fn deploy_at_doors(
    plan: &FloorPlan,
    graph: &WalkingGraph,
    count: u32,
    activation_range: f64,
) -> Vec<Reader> {
    assert!(count > 0, "at least one reader");
    let mut candidates: Vec<ripq_geom::Point2> = plan
        .doors()
        .iter()
        .map(|d| {
            plan.hallway(d.hallway())
                .project_to_centerline(d.position())
        })
        .collect();
    // Facing rooms share a portal: deduplicate positions.
    candidates.sort_by(|a, b| {
        (a.x, a.y)
            .partial_cmp(&(b.x, b.y))
            .expect("finite coordinates")
    });
    candidates.dedup_by(|a, b| a.approx_eq(*b));
    if (candidates.len() as u32) < count {
        return deploy_uniform(plan, graph, count, activation_range);
    }
    let mut chosen: Vec<ripq_geom::Point2> = vec![candidates[0]];
    while (chosen.len() as u32) < count {
        let next = candidates
            .iter()
            .max_by(|a, b| {
                let da = chosen
                    .iter()
                    .map(|c| c.distance(**a))
                    .fold(f64::INFINITY, f64::min);
                let db = chosen
                    .iter()
                    .map(|c| c.distance(**b))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db).expect("finite distances")
            })
            .expect("non-empty candidates");
        chosen.push(*next);
    }
    chosen
        .into_iter()
        .enumerate()
        .map(|(i, position)| {
            Reader::new(
                ReaderId::new(i as u32),
                position,
                graph.project(position),
                activation_range,
            )
        })
        .collect()
}

/// Places readers at seeded-random centerline positions, rejecting (up to
/// a retry budget) candidates within one activation diameter of an
/// existing reader.
pub fn deploy_random(
    plan: &FloorPlan,
    graph: &WalkingGraph,
    count: u32,
    activation_range: f64,
    seed: u64,
) -> Vec<Reader> {
    assert!(count > 0, "at least one reader");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let total = plan.total_centerline_length();
    let point_at = |target: f64| {
        let mut walked = 0.0;
        for hall in plan.hallways() {
            let line = hall.centerline();
            if target <= walked + line.length() {
                return line.point_at(target - walked);
            }
            walked += line.length();
        }
        plan.hallways()
            .last()
            .expect("validated plan")
            .centerline()
            .b
    };
    let mut positions: Vec<ripq_geom::Point2> = Vec::with_capacity(count as usize);
    while (positions.len() as u32) < count {
        let mut placed = false;
        for _ in 0..64 {
            let cand = point_at(rng.random::<f64>() * total);
            let ok = positions
                .iter()
                .all(|p| p.distance(cand) >= 2.0 * activation_range);
            if ok {
                positions.push(cand);
                placed = true;
                break;
            }
        }
        if !placed {
            // Give up on separation for the stragglers.
            positions.push(point_at(rng.random::<f64>() * total));
        }
    }
    positions
        .into_iter()
        .enumerate()
        .map(|(i, position)| {
            Reader::new(
                ReaderId::new(i as u32),
                position,
                graph.project(position),
                activation_range,
            )
        })
        .collect()
}

/// Deploys `count` readers with uniform spacing along the concatenated
/// hallway centerlines of `plan` — the paper's setup: "a total of 19 RFID
/// readers are deployed on hallways with uniform distance to each other"
/// (§5).
///
/// Readers are placed at the midpoints of `count` equal slices of the total
/// centerline length, so the spacing between neighbors on the same hallway
/// equals `total_length / count` and no reader sits exactly on a hallway
/// end.
pub fn deploy_uniform(
    plan: &FloorPlan,
    graph: &WalkingGraph,
    count: u32,
    activation_range: f64,
) -> Vec<Reader> {
    assert!(count > 0, "at least one reader");
    assert!(activation_range > 0.0, "positive activation range");
    let total: f64 = plan.total_centerline_length();
    let step = total / count as f64;

    let mut readers = Vec::with_capacity(count as usize);
    let mut walked = 0.0; // length of fully consumed hallways
    let mut next_target = step * 0.5;
    let mut placed = 0u32;

    for hall in plan.hallways() {
        let line = hall.centerline();
        let len = line.length();
        while placed < count && next_target <= walked + len {
            let local = next_target - walked;
            let position = line.point_at(local);
            let graph_pos = graph.project(position);
            readers.push(Reader::new(
                ReaderId::new(placed),
                position,
                graph_pos,
                activation_range,
            ));
            placed += 1;
            next_target += step;
        }
        walked += len;
    }
    // Numerical tail: place any stragglers at the very end.
    while placed < count {
        let hall = plan.hallways().last().expect("validated plan");
        let line = hall.centerline();
        let position = line.point_at(line.length());
        readers.push(Reader::new(
            ReaderId::new(placed),
            position,
            graph.project(position),
            activation_range,
        ));
        placed += 1;
    }
    readers
}

/// Returns `true` when all reader activation disks are pairwise disjoint —
/// the common deployment assumption for indoor RFID tracking (§2.2: "RFID
/// readers are mostly deployed such that they have disjoint activation
/// ranges").
pub fn ranges_disjoint(readers: &[Reader]) -> bool {
    for (i, a) in readers.iter().enumerate() {
        for b in &readers[i + 1..] {
            let min_dist = a.activation_range() + b.activation_range();
            if a.position().distance(b.position()) < min_dist {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;

    fn setup() -> (FloorPlan, WalkingGraph) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        (plan, graph)
    }

    #[test]
    fn deploys_requested_count() {
        let (plan, graph) = setup();
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        assert_eq!(readers.len(), 19);
        // Dense, ordered ids.
        for (i, r) in readers.iter().enumerate() {
            assert_eq!(r.id(), ReaderId::new(i as u32));
            assert_eq!(r.activation_range(), 2.0);
        }
    }

    #[test]
    fn paper_deployment_has_disjoint_ranges() {
        let (plan, graph) = setup();
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        assert!(
            ranges_disjoint(&readers),
            "19 readers at 2 m range must be disjoint on ~230 m of hallway"
        );
    }

    #[test]
    fn very_large_ranges_overlap() {
        let (plan, graph) = setup();
        let readers = deploy_uniform(&plan, &graph, 19, 10.0);
        assert!(!ranges_disjoint(&readers));
    }

    #[test]
    fn readers_positioned_on_hallway_centerlines() {
        let (plan, graph) = setup();
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        for r in readers {
            let on_some_centerline = plan
                .hallways()
                .iter()
                .any(|h| h.centerline().distance_to_point(r.position()) < 1e-6);
            assert!(on_some_centerline, "reader {} off centerline", r.id());
            // And the graph projection is essentially at the same point.
            let gp = graph.point_of(r.graph_pos());
            assert!(gp.distance(r.position()) < 0.5);
        }
    }

    #[test]
    fn spacing_is_uniform_within_hallways() {
        let (plan, graph) = setup();
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let total = plan.total_centerline_length();
        let step = total / 19.0;
        // Consecutive readers on the same hallway (same y for horizontal
        // halls) are `step` apart.
        let mut same_hall_gaps = Vec::new();
        for w in readers.windows(2) {
            let (a, b) = (w[0].position(), w[1].position());
            if (a.y - b.y).abs() < 1e-9 || (a.x - b.x).abs() < 1e-9 {
                same_hall_gaps.push(a.distance(b));
            }
        }
        assert!(!same_hall_gaps.is_empty());
        for gap in same_hall_gaps {
            assert!((gap - step).abs() < 1e-6, "gap {gap} != step {step}");
        }
    }

    #[test]
    fn at_doors_places_on_portals() {
        let (plan, graph) = setup();
        // The office has 15 distinct door portals (facing rooms share
        // one); 12 readers fit on genuinely distinct portals.
        let readers = deploy_at_doors(&plan, &graph, 12, 2.0);
        assert_eq!(readers.len(), 12);
        // Every reader sits at some door's centerline projection.
        for r in &readers {
            let near_door = plan.doors().iter().any(|d| {
                plan.hallway(d.hallway())
                    .project_to_centerline(d.position())
                    .distance(r.position())
                    < 1e-9
            });
            assert!(near_door, "reader {} not at a door portal", r.id());
        }
        // Distinct positions (farthest-point never repeats while doors
        // remain).
        for (i, a) in readers.iter().enumerate() {
            for b in &readers[i + 1..] {
                assert!(a.position().distance(b.position()) > 1e-9);
            }
        }
    }

    #[test]
    fn at_doors_falls_back_when_few_doors() {
        let (plan, graph) = setup();
        // 19 readers > 15 distinct portals: falls back to uniform.
        let readers = deploy_at_doors(&plan, &graph, 19, 2.0);
        assert_eq!(readers.len(), 19);
    }

    #[test]
    fn random_deployment_is_seeded_and_separated() {
        let (plan, graph) = setup();
        let a = deploy_random(&plan, &graph, 15, 2.0, 99);
        let b = deploy_random(&plan, &graph, 15, 2.0, 99);
        let c = deploy_random(&plan, &graph, 15, 2.0, 100);
        assert_eq!(a.len(), 15);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.position(), y.position(), "same seed, same layout");
        }
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.position() != y.position()),
            "different seeds differ"
        );
        // Positions on centerlines.
        for r in &a {
            let on_line = plan
                .hallways()
                .iter()
                .any(|h| h.centerline().distance_to_point(r.position()) < 1e-6);
            assert!(on_line);
        }
    }

    #[test]
    fn strategy_dispatch() {
        let (plan, graph) = setup();
        let u = deploy(&plan, &graph, DeploymentStrategy::Uniform, 5, 2.0);
        let d = deploy(&plan, &graph, DeploymentStrategy::AtDoors, 5, 2.0);
        let r = deploy(
            &plan,
            &graph,
            DeploymentStrategy::Random { seed: 1 },
            5,
            2.0,
        );
        assert_eq!(u.len(), 5);
        assert_eq!(d.len(), 5);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn single_reader_placed_mid_building() {
        let (plan, graph) = setup();
        let readers = deploy_uniform(&plan, &graph, 1, 2.0);
        assert_eq!(readers.len(), 1);
        let b = plan.bounds();
        assert!(b.contains(readers[0].position()));
    }
}
