//! Friend finder: "who are the k people nearest to me right now?" — the
//! paper's motivating kNN application (§1), with accuracy scored against
//! ground truth.
//!
//! ```text
//! cargo run --release --example friend_finder
//! ```
//!
//! Runs the simulator, evaluates the particle-filter kNN (Algorithm 4)
//! and the symbolic-model baseline at a sequence of timestamps, and
//! prints both answers next to the true k nearest neighbors by indoor
//! walking distance.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ripq::core::{evaluate_knn, KnnQuery, QueryId};
use ripq::graph::AnchorObjectIndex;
use ripq::pf::{ParticleCache, ParticlePreprocessor, PreprocessorConfig, SupervisionOptions};
use ripq::rfid::DataCollector;
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

    // "Me": standing at the central junction of the building.
    let me = world.plan.hallways()[1].footprint().center();
    let query = KnnQuery::new(QueryId::new(0), me, params.k).expect("k >= 1");
    println!("finding my {} nearest friends from {me}", params.k);

    let mut rng_trace = StdRng::seed_from_u64(11);
    let mut rng_sense = StdRng::seed_from_u64(12);
    let mut rng_pf = StdRng::seed_from_u64(13);
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
    let preprocessor = ParticlePreprocessor::new(
        &world.graph,
        &world.anchors,
        &world.readers,
        PreprocessorConfig::default(),
    );
    let mut collector = DataCollector::new();
    let cache = ParticleCache::new();

    let mut pf_hits = metrics::Mean::default();
    let mut sm_hits = metrics::Mean::default();
    for second in 0..=params.duration {
        let detections = readings.detections_at(&mut rng_sense, &traces, second);
        collector.ingest_second(second, &detections);
        if second % 25 != 0 || second < 50 {
            continue;
        }

        let mut pf_index = AnchorObjectIndex::new();
        preprocessor.process(
            rng_pf.random::<u64>(),
            &collector,
            &objects,
            second,
            Some(&cache),
            None,
            &SupervisionOptions::default(),
            &mut pf_index,
        );
        let sm_index = world.symbolic.build_index(&collector, &objects, second);

        let truth = ground_truth.knn(me, params.k, second);
        let pf = evaluate_knn(&world.graph, &world.anchors, &pf_index, &query);
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
