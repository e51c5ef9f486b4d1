//! Reference suite pinning the landmark/ALT distance oracle — the only
//! distance engine the system runs — against plain Dijkstra.
//!
//! The oracle's contract is *bit-identity*: it may settle less of the
//! graph than a full Dijkstra tree, but never change a single bit of any
//! distance, probability, or answer. Three layers enforce it:
//!
//! 1. raw point-to-point distances, 0 ULP against
//!    `ShortestPaths::distance_to` over randomized floor plans;
//! 2. the landmark triangle-inequality lower bounds, admissible for
//!    every sampled node pair (the A* exactness precondition);
//! 3. full [`IndoorQuerySystem`] evaluation passes — kNN candidate sets,
//!    kNN and closest-pairs answers recomputed from each report's index
//!    by the Dijkstra evaluators, at worker counts 1/2/4 — plus a replay
//!    of the committed golden fixture.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ripq::core::{
    evaluate_closest_pairs, evaluate_knn, prune_knn_candidates, ClosestPairsQuery,
    EvaluationReport, IndoorQuerySystem, KnnQuery, QueryId, ResultSet, SystemConfig,
};
use ripq::floorplan::{office_building, FloorPlan, FloorPlanBuilder, OfficeParams};
use ripq::geom::{Point2, Rect};
use ripq::graph::{DistanceOracle, GraphPos, NodeId, ShortestPaths, WalkingGraph};
use ripq::rfid::{ObjectId, ReaderId};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const SEED: u64 = 0x60_1D;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A graph position pinned to a node (room nodes sit at an edge
/// endpoint, so `edges_at(n)[0]` always carries the node).
fn node_pos(graph: &WalkingGraph, n: NodeId) -> GraphPos {
    let e = graph.edges_at(n)[0];
    let off = graph
        .edge(e)
        .offset_of(n)
        .expect("adjacency lists only hold incident edges");
    GraphPos::new(e, off)
}

/// A uniformly random on-graph position.
fn random_pos(rng: &mut StdRng, graph: &WalkingGraph) -> GraphPos {
    let e = ripq::graph::EdgeId::new(rng.random_range(0..graph.edges().len()) as u32);
    let offset = rng.random_range(0.0..=graph.edge(e).length());
    GraphPos::new(e, offset)
}

/// The floor-plan family the randomized tests sweep: the paper's office
/// generator at several shapes, so landmark geometry, junction degrees
/// and hallway counts all vary.
fn plan_variants() -> Vec<FloorPlan> {
    [
        OfficeParams::default(),
        OfficeParams {
            horizontal_hallways: 2,
            ..OfficeParams::default()
        },
        OfficeParams {
            left_cols: 2,
            right_cols: 5,
            hallway_length: 70.0,
            ..OfficeParams::default()
        },
        OfficeParams {
            horizontal_hallways: 5,
            room_depth: 6.0,
            ..OfficeParams::default()
        },
    ]
    .iter()
    .map(|p| office_building(p).expect("office variant is valid"))
    .collect()
}

#[test]
fn alt_distances_match_dijkstra_to_the_bit_on_randomized_floorplans() {
    let mut rng = StdRng::seed_from_u64(0xA17);
    for (pi, plan) in plan_variants().into_iter().enumerate() {
        let graph = ripq::graph::build_walking_graph(&plan);
        for landmarks in [1, 4, 8] {
            let oracle = DistanceOracle::build(&graph, landmarks);
            for qi in 0..40 {
                let from = random_pos(&mut rng, &graph);
                let to = random_pos(&mut rng, &graph);
                let exact = graph.shortest_paths_from(from).distance_to(&graph, to);
                let alt = oracle.distance(&graph, from, to);
                assert_eq!(
                    exact.to_bits(),
                    alt.to_bits(),
                    "plan {pi}, {landmarks} landmarks, query {qi}: \
                     dijkstra {exact} != alt {alt}"
                );
            }
        }
    }
}

#[test]
fn landmark_lower_bounds_are_admissible() {
    let mut rng = StdRng::seed_from_u64(0x1B);
    for plan in plan_variants() {
        let graph = ripq::graph::build_walking_graph(&plan);
        let oracle = DistanceOracle::build(&graph, 8);
        let landmark_tables: Vec<ShortestPaths> = oracle
            .landmarks()
            .iter()
            .map(|&l| graph.shortest_paths_from(node_pos(&graph, l)))
            .collect();
        for _ in 0..60 {
            let v = NodeId::new(rng.random_range(0..graph.nodes().len()) as u32);
            let t = NodeId::new(rng.random_range(0..graph.nodes().len()) as u32);
            let d = graph
                .shortest_paths_from(node_pos(&graph, v))
                .node_distance(t);
            for (li, sp) in landmark_tables.iter().enumerate() {
                let lb = (sp.node_distance(v) - sp.node_distance(t)).abs();
                // The raw triangle-inequality bound may exceed the true
                // distance by floating-point rounding only; the oracle's
                // deflated heuristic absorbs exactly this margin.
                assert!(
                    lb <= d * (1.0 + 1e-9) + 1e-9,
                    "landmark {li}: lower bound {lb} exceeds true distance {d}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Full-system passes against the Dijkstra reference evaluators.
// ---------------------------------------------------------------------

/// Deterministic per-second detections: six objects hop across the
/// readers on fixed schedules; object 5 is only seen on even seconds.
fn hopping_detections(second: u64, readers: &[ReaderId]) -> Vec<(ObjectId, ReaderId)> {
    let n = readers.len() as u64;
    (0..6u64)
        .filter(|&i| i != 5 || second.is_multiple_of(2))
        .map(|i| {
            let slot = (second / (i + 2) + 3 * i) % n;
            (ObjectId::new(i as u32), readers[slot as usize])
        })
        .collect()
}

/// The kNN answer of `report` as exact bits, for byte comparison.
fn knn_bits(rs: &ResultSet) -> Vec<(u32, u64)> {
    rs.sorted()
        .iter()
        .map(|r| (r.object.raw(), r.probability.to_bits()))
        .collect()
}

/// Checks one evaluation pass against the Dijkstra reference: every kNN
/// answer recomputed from the report's index with [`evaluate_knn`], the
/// closest-pairs answer with [`evaluate_closest_pairs`], and — while no
/// global query keeps every object — the preprocessed candidate set as
/// the union of [`prune_knn_candidates`] over the kNN and PTkNN points.
/// Returns how many known objects that candidate set pruned.
fn assert_pass_matches_reference(
    sys: &IndoorQuerySystem,
    report: &EvaluationReport,
    now: u64,
    knn: &[KnnQuery],
    ptknn_points: &[(Point2, usize)],
    pairs: Option<(QueryId, ClosestPairsQuery)>,
    ctx: &str,
) -> usize {
    let (graph, anchors) = (sys.graph(), sys.anchors());
    for q in knn {
        let reference = evaluate_knn(graph, anchors, &report.index, q);
        assert!(!reference.is_empty(), "{ctx}: kNN {:?} answered nothing", q.id);
        assert_eq!(
            knn_bits(&report.knn_results[&q.id]),
            knn_bits(&reference),
            "{ctx}: kNN {:?} diverged from the Dijkstra reference",
            q.id
        );
    }
    match pairs {
        Some((id, q)) => {
            let reference = evaluate_closest_pairs(graph, anchors, &report.index, &q);
            let got = &report.closest_pairs_results[&id];
            assert!(!reference.is_empty(), "{ctx}: no closest pairs");
            assert_eq!(got.len(), reference.len(), "{ctx}: pair count");
            for (g, r) in got.iter().zip(&reference) {
                assert_eq!((g.a, g.b), (r.a, r.b), "{ctx}: pair order");
                assert_eq!(
                    g.expected_distance.to_bits(),
                    r.expected_distance.to_bits(),
                    "{ctx}: expected distance of {:?}",
                    (g.a, g.b)
                );
                assert_eq!(
                    g.within_radius.to_bits(),
                    r.within_radius.to_bits(),
                    "{ctx}: contact probability of {:?}",
                    (g.a, g.b)
                );
            }
            0
        }
        None => {
            let max_speed = sys.config().max_speed;
            let ptknn = ptknn_points
                .iter()
                .map(|&(point, k)| KnnQuery::new(QueryId::new(u32::MAX), point, k).unwrap());
            let mut expected = BTreeSet::new();
            for q in knn.iter().cloned().chain(ptknn) {
                expected.extend(prune_knn_candidates(
                    graph,
                    sys.collector(),
                    sys.readers(),
                    &q,
                    now,
                    max_speed,
                ));
            }
            let preprocessed: BTreeSet<ObjectId> = report.index.objects().copied().collect();
            assert_eq!(preprocessed, expected, "{ctx}: kNN candidate set");
            assert_eq!(report.candidates_processed, expected.len(), "{ctx}");
            report.objects_known - expected.len()
        }
    }
}

#[test]
fn system_answers_match_the_dijkstra_reference_across_plans_and_workers() {
    for (pi, plan) in plan_variants().into_iter().enumerate() {
        for workers in [None, Some(2), Some(4)] {
            let config = SystemConfig {
                prune_candidates: true,
                parallelism: workers,
                ..SystemConfig::default()
            };
            let mut sys = IndoorQuerySystem::new(plan.clone(), config, SEED);
            let readers: Vec<ReaderId> = sys.readers().iter().map(|r| r.id()).collect();
            let points = [
                (sys.readers()[0].position(), 2),
                (sys.readers()[readers.len() / 2].position(), 1),
                (sys.plan().bounds().center(), 3),
            ];
            let knn: Vec<KnnQuery> = points
                .iter()
                .map(|&(point, k)| {
                    let id = sys.register_knn(point, k).expect("kNN query");
                    KnnQuery::new(id, point, k).expect("valid kNN query")
                })
                .collect();
            let ptknn_points = [(sys.readers()[readers.len() - 1].position(), 1)];
            for &(point, k) in &ptknn_points {
                sys.register_ptknn(point, k, 0.3).expect("PTkNN query");
            }

            let mut pairs = None;
            let mut passes = 0;
            let mut pruned = 0;
            for s in 0..=60u64 {
                sys.ingest_detections(s, &hopping_detections(s, &readers));
                if s < 12 || !s.is_multiple_of(8) {
                    continue;
                }
                // The last passes add a global closest-pairs query, which
                // keeps every object as a candidate.
                if s == 48 {
                    let q = ClosestPairsQuery {
                        m: 3,
                        contact_radius: 4.0,
                    };
                    let id = sys
                        .register_closest_pairs(q.m, q.contact_radius)
                        .expect("closest-pairs query");
                    pairs = Some((id, q));
                }
                let report = sys.evaluate(s);
                let ctx = format!("plan {pi}, workers {workers:?}, t={s}");
                pruned += assert_pass_matches_reference(
                    &sys,
                    &report,
                    s,
                    &knn,
                    &ptknn_points,
                    pairs,
                    &ctx,
                );
                passes += 1;
            }
            assert_eq!(passes, 6, "plan {pi}: every scheduled pass ran");
            assert!(pruned > 0, "plan {pi}: pruning never dropped an object");
        }
    }
}

/// Parses the `hallway` / `room` / `door` line format of
/// `tests/fixtures/mini_plan.txt`.
fn load_plan() -> FloorPlan {
    let text = std::fs::read_to_string(fixture_path("mini_plan.txt")).expect("plan fixture");
    let mut b = FloorPlanBuilder::new();
    let mut halls = Vec::new();
    let mut rooms = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| f[i].parse::<f64>().expect("numeric field");
        match f[0] {
            "hallway" => {
                halls.push(b.add_hallway(Rect::new(num(1), num(2), num(3), num(4)), f[5]));
            }
            "room" => {
                rooms.push(b.add_room(Rect::new(num(1), num(2), num(3), num(4)), f[5]));
            }
            "door" => {
                let room = rooms[f[3].parse::<usize>().expect("room index")];
                let hall = halls[f[4].parse::<usize>().expect("hallway index")];
                b.add_door(Point2::new(num(1), num(2)), room, hall);
            }
            other => panic!("unknown plan directive {other:?}"),
        }
    }
    b.build().expect("fixture plan is valid")
}

struct FixtureRun {
    report: EvaluationReport,
    range_q: QueryId,
    knn_q: QueryId,
    now: u64,
}

/// Feeds `mini_trace.txt` into a system under `config` and evaluates one
/// range and one kNN query.
fn run_fixture(config: SystemConfig) -> FixtureRun {
    let mut sys = IndoorQuerySystem::new(load_plan(), config, SEED);
    let readers: Vec<_> = sys.readers().iter().map(|r| r.id()).collect();

    let text = std::fs::read_to_string(fixture_path("mini_trace.txt")).expect("trace fixture");
    let mut by_second: std::collections::BTreeMap<u64, Vec<(ripq::rfid::ObjectId, _)>> =
        std::collections::BTreeMap::new();
    let mut last = 0u64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let second: u64 = f[0].parse().expect("second");
        let object: u32 = f[1].parse().expect("object");
        let reader: usize = f[2].parse().expect("reader index");
        by_second
            .entry(second)
            .or_default()
            .push((ripq::rfid::ObjectId::new(object), readers[reader]));
        last = last.max(second);
    }
    let now = last + 3;
    for s in 0..=now {
        let det = by_second.remove(&s).unwrap_or_default();
        sys.ingest_detections(s, &det);
    }

    let range_q = sys
        .register_range(Rect::new(2.0, 6.0, 12.0, 5.0))
        .expect("range query");
    let knn_q = sys
        .register_knn(Point2::new(12.0, 9.0), 2)
        .expect("kNN query");
    FixtureRun {
        report: sys.evaluate(now),
        range_q,
        knn_q,
        now,
    }
}

/// Renders a result set as stable `kind object bits decimal` lines
/// (same format as tests/golden.rs).
fn render(out: &mut String, kind: &str, rs: &ResultSet) {
    for r in rs.sorted() {
        writeln!(
            out,
            "{kind} {} {:016x} {:.17e}",
            r.object.raw(),
            r.probability.to_bits(),
            r.probability
        )
        .expect("string write");
    }
}

/// The committed golden fixture, first pinned from the full-Dijkstra
/// pipeline: the oracle must reproduce its Algorithm 3/4 outputs byte for
/// byte, not merely agree with a same-process Dijkstra run.
#[test]
fn alt_backend_reproduces_the_committed_golden_fixture() {
    let run = run_fixture(SystemConfig {
        reader_count: 6,
        prune_candidates: false,
        ..SystemConfig::default()
    });
    let now = run.now;
    let mut actual = String::new();
    writeln!(
        actual,
        "# Golden Algorithm 3/4 outputs at t={now}, seed {SEED:#x}.\n\
         # Regenerate: RIPQ_REGEN_GOLDEN=1 cargo test --test golden\n\
         # format: <kind> <object> <f64-bits-hex> <decimal>"
    )
    .expect("string write");
    writeln!(
        actual,
        "candidates_processed {}",
        run.report.candidates_processed
    )
    .unwrap();
    render(
        &mut actual,
        "range",
        &run.report.range_results[&run.range_q],
    );
    render(&mut actual, "knn", &run.report.knn_results[&run.knn_q]);

    let expected = std::fs::read_to_string(fixture_path("expected_queries.txt"))
        .expect("golden fixture exists");
    assert_eq!(
        expected, actual,
        "ALT failed to reproduce the committed golden transcript"
    );
}
