//! Offline trajectory reconstruction — the "track and trace" application
//! the paper's introduction motivates RFID deployments with (§1: "In
//! indoor environments, RFID is mainly employed to support track and trace
//! applications").
//!
//! Given the *full* reading history of an object (a
//! [`ripq_rfid::HistoryCollector`]), [`reconstruct_trajectory`] runs the
//! particle filter forward over the whole recording and emits, for every
//! second, the filtered location estimate: the probability-weighted mean
//! point and the most probable anchor. Unlike the online preprocessor it
//! never discards old episodes — it replays the complete timeline.

use crate::{MeasurementModel, MotionModel, ParticleFilter, SensorGeometry};
use rand::Rng;
use ripq_geom::Point2;
use ripq_graph::{AnchorId, AnchorSet, WalkingGraph};
use ripq_rfid::{HistoryCollector, ObjectId, Reader, ReadingStore};

/// One reconstructed trajectory sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// The second this sample describes.
    pub second: u64,
    /// Probability-weighted mean of the particle cloud (a smooth estimate;
    /// may cut corners geometrically).
    pub mean: Point2,
    /// The anchor carrying the most probability (always on the graph).
    pub mode: AnchorId,
    /// Probability mass at the mode anchor.
    pub mode_probability: f64,
    /// Whether any reader detected the object this second.
    pub observed: bool,
}

/// Configuration for trajectory reconstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryConfig {
    /// Particles used for the reconstruction (more than online tracking,
    /// since this is offline: default 256).
    pub num_particles: usize,
    /// Motion model.
    pub motion: MotionModel,
    /// Measurement model.
    pub measurement: MeasurementModel,
    /// Use negative evidence during silent seconds (recommended).
    pub negative_evidence: bool,
}

impl Default for TrajectoryConfig {
    fn default() -> Self {
        TrajectoryConfig {
            num_particles: 256,
            motion: MotionModel::default(),
            measurement: MeasurementModel::default(),
            negative_evidence: true,
        }
    }
}

/// Replays an object's full recorded history through the particle filter
/// and returns one [`TrajectoryPoint`] per second from its first to its
/// last recorded second. Returns `None` when the history never saw the
/// object.
pub fn reconstruct_trajectory<R: Rng>(
    rng: &mut R,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    readers: &[Reader],
    history: &HistoryCollector,
    object: ObjectId,
    config: &TrajectoryConfig,
) -> Option<Vec<TrajectoryPoint>> {
    let end = history.current_second()?;
    let view = history.view_at(end);
    let agg = view.aggregated(object)?;
    // The full history view's aggregated window still applies the
    // two-episode retention; for reconstruction we need everything, so we
    // walk the entries from the object's very first second via view_at at
    // each instant instead. Simpler: rebuild the full entry list by
    // querying the first-instant view for the start.
    let first_second = {
        // Find the earliest instant the object exists.
        let mut lo = 0u64;
        let mut hi = end;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if history.view_at(mid).aggregated(object).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    let _ = agg;

    // Seed at the first detecting reader.
    let (first_reader, _) = history.view_at(first_second).last_detection(object)?;
    let geometry = SensorGeometry::new(graph, readers);
    let mut filter = ParticleFilter::from_states(geometry.seed_particles(
        rng,
        graph,
        &readers[first_reader.index()],
        &config.motion,
        config.num_particles,
    ));

    let mut out = Vec::with_capacity((end - first_second + 1) as usize);
    push_sample(&mut out, graph, anchors, &filter, first_second, true);

    for second in first_second + 1..=end {
        filter.predict(|s| config.motion.step(rng, graph, s, 1.0));
        // The reading of this second, from the instant view (sees exactly
        // the entries up to `second`).
        let reading = history
            .view_at(second)
            .aggregated(object)
            .and_then(|a| a.entry_at(second))
            .flatten();
        if let Some(device) = reading {
            let reader = &readers[device.index()];
            let mut any_consistent = false;
            filter.reweight(|s| {
                let inside = geometry.covers(graph, reader, s.pos);
                any_consistent |= inside;
                config.measurement.likelihood(inside)
            });
            if any_consistent {
                filter.normalize();
                if filter.effective_sample_size() < filter.len() as f64 * 0.5 {
                    filter.resample(rng);
                }
            } else {
                filter = ParticleFilter::from_states(geometry.seed_particles(
                    rng,
                    graph,
                    reader,
                    &config.motion,
                    config.num_particles,
                ));
            }
        } else if config.negative_evidence {
            let mm = config.measurement;
            let mut any_inside = false;
            filter.reweight(|s| {
                if geometry.any_covers(graph, s.pos) {
                    any_inside = true;
                    mm.low_weight
                } else {
                    mm.high_weight
                }
            });
            if any_inside {
                filter.normalize();
                if filter.effective_sample_size() < filter.len() as f64 * 0.5 {
                    filter.resample(rng);
                }
            }
        }
        push_sample(&mut out, graph, anchors, &filter, second, reading.is_some());
    }
    Some(out)
}

fn push_sample(
    out: &mut Vec<TrajectoryPoint>,
    graph: &WalkingGraph,
    anchors: &AnchorSet,
    filter: &ParticleFilter<crate::IndoorState>,
    second: u64,
    observed: bool,
) {
    let total: f64 = filter.weights().iter().sum();
    let mut mean = Point2::ORIGIN;
    for (s, w) in filter.states().iter().zip(filter.weights()) {
        mean = mean + graph.point_of(s.pos) * (w / total);
    }
    let snapped = anchors.snap_distribution(
        filter
            .states()
            .iter()
            .zip(filter.weights())
            .map(|(s, w)| (s.pos, w / total)),
    );
    let (mode, mode_probability) = snapped
        .iter()
        .copied()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        // ripq-lint: allow(no-panic-paths) -- the filter always carries config.particles ≥ 1 particles, so the snapped set is never empty
        .expect("non-empty particle set");
    out.push(TrajectoryPoint {
        second,
        mean,
        mode,
        mode_probability,
        observed,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_rfid::deploy_uniform;

    struct World {
        graph: WalkingGraph,
        anchors: AnchorSet,
        readers: Vec<Reader>,
    }

    fn world() -> World {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        World {
            graph,
            anchors,
            readers,
        }
    }

    const O: ObjectId = ObjectId::new(0);

    /// Records a straight walk along hallway 0 into the history.
    fn straight_walk(w: &World) -> (HistoryCollector, Vec<Point2>) {
        let y = w.readers[0].position().y;
        let x0 = w.readers[0].position().x - 3.0;
        let mut history = HistoryCollector::new();
        let mut truth = Vec::new();
        for s in 0..=40u64 {
            let p = Point2::new(x0 + s as f64, y);
            truth.push(p);
            let det: Vec<_> = w
                .readers
                .iter()
                .filter(|r| r.covers(p))
                .map(|r| (O, r.id()))
                .take(1)
                .collect();
            history.ingest_second(s, &det);
        }
        (history, truth)
    }

    #[test]
    fn reconstruction_covers_every_second() {
        let w = world();
        let (history, _) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(70);
        let traj = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .expect("object recorded");
        // One sample per second from the first detection to the end.
        assert!(traj.len() >= 38, "samples: {}", traj.len());
        for win in traj.windows(2) {
            assert_eq!(win[1].second, win[0].second + 1);
        }
    }

    #[test]
    fn reconstruction_tracks_a_straight_walk() {
        let w = world();
        let (history, truth) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(71);
        let traj = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .unwrap();
        // Average error of the mean estimate against the true walk.
        let mut err = 0.0;
        let mut n = 0;
        for tp in &traj {
            let t = tp.second as usize;
            if t < truth.len() {
                err += tp.mean.distance(truth[t]);
                n += 1;
            }
        }
        let avg = err / n as f64;
        assert!(avg < 6.0, "average reconstruction error {avg} m");
        // Mode probabilities are meaningful.
        assert!(traj.iter().all(|tp| tp.mode_probability > 0.0));
        // Observed flags mark the in-range stretches.
        assert!(traj.iter().any(|tp| tp.observed));
        assert!(traj.iter().any(|tp| !tp.observed));
    }

    #[test]
    fn reconstruction_is_pinned_bit_for_bit() {
        // A digest of every sample's bits: any reordered draw or changed
        // float operation in the replay moves it.
        let w = world();
        let (history, _) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(74);
        let traj = reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .unwrap();
        let words: Vec<u64> = traj
            .iter()
            .flat_map(|tp| {
                [
                    tp.second,
                    tp.mean.x.to_bits(),
                    tp.mean.y.to_bits(),
                    u64::from(tp.mode.raw()),
                    tp.mode_probability.to_bits(),
                    u64::from(tp.observed),
                ]
            })
            .collect();
        assert_eq!(traj.len(), 40);
        assert_eq!(rand::mix_seed(0, &words), 0x71ec_d0e5_1984_c06e);
    }

    #[test]
    fn unknown_object_returns_none() {
        let w = world();
        let (history, _) = straight_walk(&w);
        let mut rng = StdRng::seed_from_u64(72);
        assert!(reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            ObjectId::new(99),
            &TrajectoryConfig::default(),
        )
        .is_none());
    }

    #[test]
    fn empty_history_returns_none() {
        let w = world();
        let history = HistoryCollector::new();
        let mut rng = StdRng::seed_from_u64(73);
        assert!(reconstruct_trajectory(
            &mut rng,
            &w.graph,
            &w.anchors,
            &w.readers,
            &history,
            O,
            &TrajectoryConfig::default(),
        )
        .is_none());
    }
}
