//! Continuous queries (the §6 extension) against the full pipeline:
//! deltas must be exactly consistent with re-evaluating from scratch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ripq::core::continuous::{SubscriptionKind, SubscriptionRegistry};
use ripq::core::{
    evaluate_knn, evaluate_range, IndoorQuerySystem, KnnQuery, ResultSet, SystemConfig,
};
use ripq::floorplan::{office_building, OfficeParams};
use ripq::geom::Rect;
use ripq::graph::build_walking_graph;
use ripq::sim::{ReadingGenerator, TraceGenerator};
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Subscription deltas are a faithful change log: folding every
    /// per-epoch [`ResultDelta`] over an initially empty result set
    /// reconstructs the from-scratch evaluation of the epoch's index at
    /// every epoch, for range and kNN subscriptions across random
    /// scenarios and seeds; moving objects do produce deltas.
    #[test]
    fn folded_subscription_deltas_equal_from_scratch_evaluation(
        seed in 0u64..10_000,
        objects in 4usize..12,
        fx in 0.15f64..0.85,
        fy in 0.15f64..0.85,
        k in 1usize..4,
    ) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let readers = ripq::rfid::deploy_uniform(&plan, &graph, 19, 2.0);
        let mut rng_trace = StdRng::seed_from_u64(seed);
        let mut rng_sense = StdRng::seed_from_u64(seed.wrapping_add(1));
        let traces = TraceGenerator::new(6.0).generate(
            &mut rng_trace, &graph, plan.rooms().len(), objects, 90,
        );
        let sensor = ReadingGenerator::new(
            &graph, &readers, ripq::rfid::SensingModel::default(),
        );

        let bounds = plan.bounds();
        let window = Rect::centered(
            ripq::geom::Point2::new(
                bounds.min().x + fx * bounds.width(),
                bounds.min().y + fy * bounds.height(),
            ),
            14.0,
            10.0,
        );
        let knn_point = readers[(seed as usize) % readers.len()].position();

        let mut system = IndoorQuerySystem::new(
            office_building(&OfficeParams::default()).unwrap(),
            SystemConfig::default(),
            seed,
        );
        let mut registry = SubscriptionRegistry::new();
        let q_range = system.register_range(window).unwrap();
        let q_knn = system.register_knn(knn_point, k).unwrap();
        registry.insert(1, SubscriptionKind::Range(window), q_range).unwrap();
        registry.insert(2, SubscriptionKind::Knn(knn_point, k), q_knn).unwrap();

        // Fold every emitted delta over initially empty result sets.
        let mut folded: BTreeMap<u64, ResultSet> = BTreeMap::new();
        folded.insert(1, ResultSet::new());
        folded.insert(2, ResultSet::new());
        let mut epochs = 0u32;
        let mut deltas_seen = 0usize;
        for second in 0..=90u64 {
            let det = sensor.detections_at(&mut rng_sense, &traces, second);
            system.ingest_detections(second, &det);
            if second < 30 || second % 15 != 0 {
                continue;
            }
            epochs += 1;
            let report = system.evaluate(second);
            let deltas = registry.deltas(&report);
            deltas_seen += deltas.len();
            for (sub, delta) in deltas {
                if let Some(rs) = folded.get_mut(&sub) {
                    delta.apply(rs);
                }
            }
            // Deltas below the change epsilon are deliberately not
            // re-emitted, so the fold may lag by at most epsilon per
            // epoch per object.
            let tol = 1e-9 * f64::from(epochs);
            // From scratch: the reference evaluators over this epoch's
            // index, which the report's answers must equal exactly.
            let fresh_range = evaluate_range(
                system.plan(), system.anchors(), &report.index, &window,
            );
            let knn_query = KnnQuery::new(q_knn, knn_point, k).unwrap();
            let fresh_knn = evaluate_knn(
                system.graph(), system.anchors(), &report.index, &knn_query,
            );
            prop_assert_eq!(&report.range_results[&q_range], &fresh_range);
            prop_assert_eq!(&report.knn_results[&q_knn], &fresh_knn);
            for (sub, fresh) in [(1u64, &fresh_range), (2u64, &fresh_knn)] {
                let fold = &folded[&sub];
                prop_assert_eq!(
                    fold.len(), fresh.len(),
                    "sub {} membership at {}", sub, second
                );
                for (o, p) in fresh.iter() {
                    prop_assert!(
                        (fold.probability(o) - p).abs() <= tol,
                        "sub {} drifted on {:?}: {} vs {}", sub, o, fold.probability(o), p
                    );
                }
                // The registry's maintained view is the same fold.
                let current = registry.get(sub).unwrap().current();
                prop_assert_eq!(current.len(), fold.len());
                for (o, p) in current.iter() {
                    prop_assert!((fold.probability(o) - p).abs() <= tol);
                }
            }
        }
        prop_assert!(epochs >= 4);
        prop_assert!(deltas_seen > 0, "moving objects must produce deltas");
    }
}
