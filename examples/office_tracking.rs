//! Continuous monitoring of a meeting room — the paper's motivating
//! office scenario, driven end-to-end through the simulator.
//!
//! ```text
//! cargo run --release --example office_tracking
//! ```
//!
//! Forty tagged employees walk the building (destination-driven traces);
//! noisy RFID readings stream into an [`IndoorQuerySystem`]; a *continuous
//! range query* — a range query watched by a [`SubscriptionRegistry`] —
//! reports arrivals/departures in one meeting room as deltas: the §6
//! "continuous range" extension in action.

use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::continuous::{SubscriptionKind, SubscriptionRegistry};
use ripq::core::{IndoorQuerySystem, SystemConfig};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::sim::{ExperimentParams, ReadingGenerator, TraceGenerator};

fn main() {
    let params = ExperimentParams {
        num_objects: 40,
        duration: 240,
        ..Default::default()
    };
    let plan = office_building(&OfficeParams::default()).expect("default office is valid");
    let mut system = IndoorQuerySystem::new(plan, SystemConfig::default(), 9);

    // Watch room R12 (a meeting room in the middle band of the building).
    let room = system.plan().rooms()[12].clone();
    println!(
        "monitoring room {} ({}) with footprint {}",
        room.id(),
        room.name(),
        room.footprint()
    );
    let query = system
        .register_range(*room.footprint())
        .expect("non-empty room");
    let mut monitor = SubscriptionRegistry::new();
    monitor
        .insert(1, SubscriptionKind::Range(*room.footprint()), query)
        .expect("fresh registry");

    // The simulated building walks on the system's own graph and readers.
    let graph = system.graph().clone();
    let readers = system.readers().to_vec();
    let mut rng_trace = StdRng::seed_from_u64(7);
    let mut rng_sense = StdRng::seed_from_u64(8);
    let traces = TraceGenerator::new(params.room_dwell_mean).generate(
        &mut rng_trace,
        &graph,
        system.plan().rooms().len(),
        params.num_objects,
        params.duration,
    );
    let readings = ReadingGenerator::new(&graph, &readers, params.sensing);

    // Stream the day; refresh the monitor every 20 simulated seconds.
    let mut events = 0u32;
    let mut cache_stats = None;
    for second in 0..=params.duration {
        let detections = readings.detections_at(&mut rng_sense, &traces, second);
        system.ingest_detections(second, &detections);
        if second % 20 != 0 || second < 40 {
            continue;
        }
        let report = system.evaluate(second);
        cache_stats = Some(report.cache_stats);
        for (_, delta) in monitor.deltas(&report) {
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
    }
    let current = monitor.get(1).expect("subscription registered").current();
    println!(
        "\nfinal occupants (p >= 0.3): {:?}",
        current
            .sorted()
            .iter()
            .filter(|r| r.probability >= 0.3)
            .map(|r| r.object.to_string())
            .collect::<Vec<_>>()
    );
    if let Some(stats) = cache_stats {
        println!("cache stats: {stats:?}");
    }
    assert!(events > 0, "240 s of 40 walkers produces room traffic");
}
