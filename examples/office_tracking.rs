//! Continuous monitoring of a meeting room — the paper's motivating
//! office scenario, driven end-to-end through the simulator.
//!
//! ```text
//! cargo run --release --example office_tracking
//! ```
//!
//! Forty tagged employees walk the building (destination-driven traces);
//! noisy RFID readings stream into the system; a *continuous range query*
//! watches one meeting room and reports arrivals/departures as deltas —
//! the §6 "continuous range" extension in action.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use ripq::core::continuous::ContinuousRangeQuery;
use ripq::core::{QueryId, RangeQuery};
use ripq::graph::AnchorObjectIndex;
use ripq::pf::{ParticleCache, ParticlePreprocessor, PreprocessorConfig, SupervisionOptions};
use ripq::rfid::DataCollector;
use ripq::sim::{ExperimentParams, ReadingGenerator, SimWorld, TraceGenerator};

fn main() {
    let params = ExperimentParams {
        num_objects: 40,
        duration: 240,
        ..Default::default()
    };
    let world = SimWorld::build(&params);

    // Watch room R12 (a meeting room in the middle band of the building).
    let room = &world.plan.rooms()[12];
    println!(
        "monitoring room {} ({}) with footprint {}",
        room.id(),
        room.name(),
        room.footprint()
    );
    let query = RangeQuery::new(QueryId::new(0), *room.footprint()).expect("non-empty room");
    let mut monitor = ContinuousRangeQuery::new(query);

    // Simulation state.
    let mut rng_trace = StdRng::seed_from_u64(7);
    let mut rng_sense = StdRng::seed_from_u64(8);
    let mut rng_pf = StdRng::seed_from_u64(9);
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &world.graph,
        world.plan.rooms().len(),
        params.num_objects,
        params.duration,
    );
    let readings = ReadingGenerator::new(&world.graph, &world.readers, params.sensing);
    let objects: Vec<_> = traces.iter().map(|t| t.object).collect();
    let preprocessor = ParticlePreprocessor::new(
        &world.graph,
        &world.anchors,
        &world.readers,
        PreprocessorConfig::default(),
    );
    let mut collector = DataCollector::new();
    let cache = ParticleCache::new();

    // Stream the day; refresh the monitor every 20 simulated seconds.
    let mut events = 0u32;
    for second in 0..=params.duration {
        let detections = readings.detections_at(&mut rng_sense, &traces, second);
        collector.ingest_second(second, &detections);
        if second % 20 != 0 || second < 40 {
            continue;
        }
        let mut index = AnchorObjectIndex::new();
        preprocessor.process(
            rng_pf.random::<u64>(),
            &collector,
            &objects,
            second,
            Some(&cache),
            None,
            &SupervisionOptions::default(),
            &mut index,
        );
        let delta = monitor.update(&world.plan, &world.anchors, &index);
        for (o, p) in &delta.appeared {
            println!("t={second:>3}s  {o} likely entered the room (p = {p:.2})");
            events += 1;
        }
        for o in &delta.disappeared {
            println!("t={second:>3}s  {o} left the room");
            events += 1;
        }
        // Probability drift above 0.25 is worth reporting too.
        for (o, old, new) in &delta.changed {
            if (new - old).abs() > 0.25 {
                println!("t={second:>3}s  {o} presence changed: {old:.2} -> {new:.2}");
                events += 1;
            }
        }
    }
    println!(
        "\nfinal occupants (p >= 0.3): {:?}",
        monitor
            .current()
            .sorted()
            .iter()
            .filter(|r| r.probability >= 0.3)
            .map(|r| r.object.to_string())
            .collect::<Vec<_>>()
    );
    println!("cache stats: {:?}", cache.stats());
    assert!(events > 0, "240 s of 40 walkers produces room traffic");
}
