//! Friend finder: "who are the k people nearest to me right now?" — the
//! paper's motivating kNN application (§1), with accuracy scored against
//! ground truth.
//!
//! ```text
//! cargo run --release --example friend_finder
//! ```
//!
//! Runs the simulator, streams its readings into an `IndoorQuerySystem`
//! with a registered kNN query (Algorithm 4), evaluates it and the
//! symbolic-model baseline at a sequence of timestamps, and prints both
//! answers next to the true k nearest neighbors by indoor walking
//! distance.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::{evaluate_knn, IndoorQuerySystem, KnnQuery, QueryId, SystemConfig};
use ripq::sim::metrics;
use ripq::sim::{ExperimentParams, GroundTruth, ReadingGenerator, SimWorld, TraceGenerator};

fn main() {
    let params = ExperimentParams {
        num_objects: 60,
        duration: 200,
        k: 3,
        ..Default::default()
    };
    let world = SimWorld::build(&params);

    let mut system = IndoorQuerySystem::from_parts(
        world.plan.clone(),
        world.graph.clone(),
        world.anchors.clone(),
        world.readers.clone(),
        SystemConfig::default(),
        13,
    );

    // "Me": standing at the central junction of the building.
    let me = world.plan.hallways()[1].footprint().center();
    let knn = system.register_knn(me, params.k).expect("k >= 1");
    println!("finding my {} nearest friends from {me}", params.k);

    let mut rng_trace = StdRng::seed_from_u64(11);
    let mut rng_sense = StdRng::seed_from_u64(12);
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &world.graph,
        world.plan.rooms().len(),
        params.num_objects,
        params.duration,
    );
    let readings = ReadingGenerator::new(&world.graph, &world.readers, params.sensing);
    let ground_truth = GroundTruth::new(&world.graph, &traces);
    let objects: Vec<_> = traces.iter().map(|t| t.object).collect();
    // The baseline's query, evaluated over the symbolic model's index.
    let query = KnnQuery::new(QueryId::new(0), me, params.k).expect("k >= 1");

    let mut pf_hits = metrics::Mean::default();
    let mut sm_hits = metrics::Mean::default();
    for second in 0..=params.duration {
        let detections = readings.detections_at(&mut rng_sense, &traces, second);
        system.ingest_detections(second, &detections);
        if second % 25 != 0 || second < 50 {
            continue;
        }

        let report = system.evaluate(second);
        let sm_index = world
            .symbolic
            .build_index(system.collector(), &objects, second);

        let truth = ground_truth.knn(me, params.k, second);
        let pf = &report.knn_results[&knn];
        let sm = evaluate_knn(&world.graph, &world.anchors, &sm_index, &query);
        let sm_top = metrics::top_k_objects(&sm, params.k);

        let pf_hit = metrics::knn_hit_rate(pf.objects(), &truth, params.k);
        let sm_hit = metrics::knn_hit_rate(sm_top.iter().copied(), &truth, params.k);
        pf_hits.push(pf_hit);
        sm_hits.push(sm_hit);

        let mut truth_sorted: Vec<String> = truth.iter().map(|o| o.to_string()).collect();
        truth_sorted.sort();
        println!("\nt={second}s  true {}NN: {:?}", params.k, truth_sorted);
        println!(
            "  particle filter ({} objects, hit {:.2}): {:?}",
            pf.len(),
            pf_hit,
            pf.top(params.k)
                .iter()
                .map(|r| format!("{} p={:.2}", r.object, r.probability))
                .collect::<Vec<_>>()
        );
        println!(
            "  symbolic model  (hit {:.2}): {:?}",
            sm_hit,
            sm_top.iter().map(|o| o.to_string()).collect::<Vec<_>>()
        );
    }
    println!(
        "\naverage hit rate over {} checks: particle filter {:.2}, symbolic {:.2}",
        pf_hits.count(),
        pf_hits.value(),
        sm_hits.value()
    );
    assert!(
        pf_hits.value() >= sm_hits.value(),
        "the particle filter should not lose to the baseline on average"
    );
}
