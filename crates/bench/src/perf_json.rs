//! Machine-readable performance trajectory — `BENCH_N.json`.
//!
//! Every PR appends one `BENCH_N.json` snapshot to the repo root so the
//! performance story is diffable across the PR sequence. This module
//! measures the two distance backends ([`DistanceBackend::Dijkstra`]
//! vs [`DistanceBackend::Alt`]) on the same scripted workload and
//! renders a small hand-built JSON document (the build has no serializer
//! dependency, and needs none).
//!
//! ## Logical cost units
//!
//! Wall-clock on a shared 1-CPU runner is noise; the headline metric is
//! therefore *logical* distance-computation cost, counted identically
//! under both backends:
//!
//! * one unit per **node settled** by a Dijkstra/ALT search, and
//! * one unit per **anchor candidate** examined by the kNN frontier.
//!
//! Under Dijkstra a standing kNN query costs one full Dijkstra pass at
//! registration (`spcache.misses` × |V| settled nodes) plus a heap seed
//! over *every* anchor on *every* evaluation pass. Under ALT the lazy
//! ascending scan ([`ripq_graph::DistanceOracle::scan`]) settles only
//! the region the Σp ≥ k stop actually required and examines only the
//! anchors it emitted (`oracle.scan_settled` +
//! `oracle.scan_anchor_candidates`). Both backends return bit-identical
//! result sets (pinned by `tests/oracle.rs`), so the ratio is a pure
//! efficiency statement.

use crate::Scale;
use ripq_core::{DistanceBackend, IndoorQuerySystem, SystemConfig};
use ripq_floorplan::{office_building, OfficeParams};
use ripq_geom::Rect;
use ripq_rfid::ObjectId;
use ripq_server::{replay_with_retry, RetryPolicy, ServerConfig, ServerCore};
use std::fmt::Write as _;

/// Which standing query the probe system carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Knn,
    Range,
}

/// Everything measured for one backend.
#[derive(Debug, Clone)]
pub struct BackendProbe {
    /// Backend under measurement.
    pub backend: DistanceBackend,
    /// Mean wall time of the query-evaluation phase, kNN-only system.
    pub wall_ns_knn: u128,
    /// Mean wall time of the query-evaluation phase, range-only system.
    pub wall_ns_range: u128,
    /// Mean wall time of particle-filter preprocessing.
    pub wall_ns_preprocess: u128,
    /// Logical distance-computation cost of the kNN passes (see module
    /// docs for the unit definition).
    pub knn_cost_units: u64,
    /// Full Dijkstra passes charged to the kNN workload
    /// (`spcache.misses`).
    pub dijkstra_runs: u64,
    /// Nodes settled by distance searches during the kNN workload.
    pub settled_nodes: u64,
    /// Anchor candidates examined by the kNN frontier.
    pub anchor_candidates: u64,
    /// Landmarks in the oracle (0 under Dijkstra).
    pub landmarks: u64,
}

/// Evaluation passes measured per probe (after one warm-up pass).
const PASSES: u64 = 5;

fn tracked_objects(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 200,
        Scale::Quick => 50,
    }
}

/// Builds the probe system: office floorplan, `n` objects pinging
/// readers for 20 s, pruning off so the kNN scan is the only network-
/// distance consumer, one standing query.
fn build_probe(
    backend: DistanceBackend,
    observability: bool,
    n: usize,
    probe: Probe,
) -> IndoorQuerySystem {
    let plan = office_building(&OfficeParams::default()).expect("valid office");
    let config = SystemConfig {
        observability,
        prune_candidates: false,
        distance_backend: backend,
        ..SystemConfig::default()
    };
    let mut sys = IndoorQuerySystem::new(plan, config, 17);
    let reader_ids: Vec<_> = sys.readers().iter().map(|r| r.id()).collect();
    for s in 0..20u64 {
        let det: Vec<_> = (0..n as u32)
            .map(|i| {
                let r = (i as usize + s as usize) % reader_ids.len();
                (ObjectId::new(i), reader_ids[r])
            })
            .collect();
        sys.ingest_detections(s, &det);
    }
    let center = sys.plan().bounds().center();
    match probe {
        Probe::Knn => {
            sys.register_knn(center, 3).expect("valid k");
        }
        Probe::Range => {
            sys.register_range(Rect::centered(center, 12.0, 10.0))
                .expect("valid window");
        }
    }
    sys
}

/// Warm-up pass, then `PASSES` timed passes; returns mean
/// (evaluation, preprocessing) wall nanoseconds.
fn timed_passes(sys: &mut IndoorQuerySystem) -> (u128, u128) {
    let _ = sys.evaluate(20);
    let mut eval = std::time::Duration::ZERO;
    let mut pre = std::time::Duration::ZERO;
    for i in 1..=PASSES {
        sys.ingest_detections(20 + i, &[]);
        let report = sys.evaluate(20 + i);
        eval += report.timings.evaluation;
        pre += report.timings.preprocessing;
    }
    (
        eval.as_nanos() / u128::from(PASSES),
        pre.as_nanos() / u128::from(PASSES),
    )
}

/// Measures one backend: wall times from recorder-off systems, logical
/// counters from a recorder-on shadow running the identical workload.
pub fn measure_backend(scale: Scale, backend: DistanceBackend) -> BackendProbe {
    let n = tracked_objects(scale);
    let (wall_ns_knn, wall_ns_preprocess) =
        timed_passes(&mut build_probe(backend, false, n, Probe::Knn));
    let (wall_ns_range, _) = timed_passes(&mut build_probe(backend, false, n, Probe::Range));

    // Shadow system with the recorder on: same kNN workload, warm-up
    // plus PASSES passes, then read the cumulative counters once.
    let mut shadow = build_probe(backend, true, n, Probe::Knn);
    let node_count = shadow.graph().nodes().len() as u64;
    let anchor_count = shadow.anchors().anchors().len() as u64;
    let _ = shadow.evaluate(20);
    let mut last = None;
    for i in 1..=PASSES {
        shadow.ingest_detections(20 + i, &[]);
        last = shadow.evaluate(20 + i).metrics;
    }
    let snap = last.expect("observability on yields a snapshot");
    let gauge = |k: &str| snap.gauges.get(k).copied().unwrap_or(0);

    let dijkstra_runs = gauge("spcache.misses");
    let (settled_nodes, anchor_candidates) = match backend {
        // One full Dijkstra per cache miss settles every node; each
        // pass's heap seed examines every anchor (warm-up included).
        DistanceBackend::Dijkstra => (dijkstra_runs * node_count, (PASSES + 1) * anchor_count),
        // The oracle counts exactly what its searches touched.
        DistanceBackend::Alt => (
            gauge("oracle.scan_settled") + gauge("oracle.p2p_settled"),
            gauge("oracle.scan_anchor_candidates"),
        ),
    };
    BackendProbe {
        backend,
        wall_ns_knn,
        wall_ns_range,
        wall_ns_preprocess,
        knn_cost_units: settled_nodes + anchor_candidates,
        dijkstra_runs,
        settled_nodes,
        anchor_candidates,
        landmarks: gauge("oracle.landmarks"),
    }
}

/// Dijkstra-over-ALT ratio of kNN logical cost (the headline number).
pub fn knn_cost_reduction(dijkstra: &BackendProbe, alt: &BackendProbe) -> f64 {
    dijkstra.knn_cost_units as f64 / alt.knn_cost_units.max(1) as f64
}

/// The shed-path logical costs of one flooded streaming session. The
/// all-zero default (`converged: false`) is the unreachable-error
/// value — a probe that never ran.
#[derive(Debug, Clone, Default)]
pub struct OverloadProbe {
    /// Data frames the client offered.
    pub frames_offered: u64,
    /// `busy` responses the server returned (shed frames + deferred
    /// ticks).
    pub busy_lines: u64,
    /// Retry rounds the backoff client ran.
    pub retry_rounds: u64,
    /// Shed frames the client resent.
    pub frames_resent: u64,
    /// Logical ticks of client backoff accumulated.
    pub backoff_ticks: u64,
    /// Delta lines ultimately delivered.
    pub delta_lines: u64,
    /// Whether the retried session's lines byte-matched the unthrottled
    /// run.
    pub converged: bool,
}

/// Floods a server whose admission budget is below the per-interval
/// frame count and lets the deterministic retry client recover; the
/// unthrottled twin provides the byte-identity reference. Everything is
/// logical (seeded readings, logical ticks), so the row is exactly
/// reproducible.
pub fn measure_overload(scale: Scale) -> OverloadProbe {
    let seconds: u64 = match scale {
        Scale::Paper => 60,
        Scale::Quick => 30,
    };
    let tick_every = 10u64;
    let budget = 6u64; // 10 data frames per interval vs budget 6 → sheds
    let build = |max_frames_per_tick: u64| -> Option<ServerCore> {
        let plan = office_building(&OfficeParams::default()).ok()?;
        Some(ServerCore::new(
            plan,
            ServerConfig {
                max_frames_per_tick,
                ..ServerConfig::default()
            },
        ))
    };
    let Some(mut unthrottled) = build(0) else {
        return OverloadProbe::default();
    };
    let readers = unthrottled.system().readers().len().max(1) as u32;
    let mut frames =
        vec!["{\"op\":\"subscribe\",\"sub\":1,\"range\":[-500,-500,1000,1000]}".to_string()];
    let mut offered = 0u64;
    for second in 0..seconds {
        // Four objects hop across readers on a seeded-free rotation:
        // deterministic by construction.
        let readings: Vec<String> = (0..4u32)
            .map(|o| format!("[{o},{}]", (o + second as u32) % readers))
            .collect();
        frames.push(format!(
            "{{\"op\":\"reading\",\"second\":{second},\"readings\":[{}]}}",
            readings.join(",")
        ));
        offered += 1;
        if (second + 1) % tick_every == 0 {
            frames.push(format!("{{\"op\":\"tick\",\"second\":{second}}}"));
        }
    }
    let mut expected = Vec::new();
    for frame in &frames {
        expected.extend(unthrottled.handle_frame(frame.as_bytes()));
    }
    let Some(mut flooded) = build(budget) else {
        return OverloadProbe::default();
    };
    let outcome = replay_with_retry(&mut flooded, &frames, &RetryPolicy::default());
    OverloadProbe {
        frames_offered: offered,
        busy_lines: outcome.busy_lines,
        retry_rounds: outcome.retry_rounds,
        frames_resent: outcome.frames_resent,
        backoff_ticks: outcome.backoff_ticks,
        delta_lines: outcome
            .lines
            .iter()
            .filter(|l| l.starts_with("{\"delta\":"))
            .count() as u64,
        converged: outcome.lines == expected && !outcome.gave_up,
    }
}

fn render_probe(out: &mut String, p: &BackendProbe) {
    let _ = write!(
        out,
        "    \"{}\": {{\n      \"wall_ns\": {{ \"knn\": {}, \"range\": {}, \"preprocess\": {} }},\n      \
         \"logical\": {{ \"knn_cost_units\": {}, \"dijkstra_runs\": {}, \"settled_nodes\": {}, \
         \"anchor_candidates\": {}, \"landmarks\": {} }}\n    }}",
        p.backend,
        p.wall_ns_knn,
        p.wall_ns_range,
        p.wall_ns_preprocess,
        p.knn_cost_units,
        p.dijkstra_runs,
        p.settled_nodes,
        p.anchor_candidates,
        p.landmarks,
    );
}

/// Runs both backends plus the overload probe and renders the
/// `BENCH_10.json` document.
pub fn render_bench_json(scale: Scale) -> String {
    let dijkstra = measure_backend(scale, DistanceBackend::Dijkstra);
    let alt = measure_backend(scale, DistanceBackend::Alt);
    let reduction = knn_cost_reduction(&dijkstra, &alt);

    let probe = build_probe(DistanceBackend::Dijkstra, false, 1, Probe::Range);
    let scale_name = match scale {
        Scale::Paper => "paper",
        Scale::Quick => "quick",
    };
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"ripq-bench/v1\",\n  \"pr\": 10,\n");
    let _ = writeln!(out, "  \"scale\": \"{scale_name}\",");
    let _ = writeln!(
        out,
        "  \"workload\": {{ \"objects\": {}, \"passes\": {}, \"k\": 3 }},",
        tracked_objects(scale),
        PASSES
    );
    let _ = writeln!(
        out,
        "  \"graph\": {{ \"nodes\": {}, \"anchors\": {} }},",
        probe.graph().nodes().len(),
        probe.anchors().anchors().len()
    );
    out.push_str("  \"backends\": {\n");
    render_probe(&mut out, &dijkstra);
    out.push_str(",\n");
    render_probe(&mut out, &alt);
    out.push_str("\n  },\n");
    let overload = measure_overload(scale);
    let _ = writeln!(
        out,
        "  \"overload\": {{ \"frames_offered\": {}, \"busy_lines\": {}, \"retry_rounds\": {}, \
         \"frames_resent\": {}, \"backoff_ticks\": {}, \"delta_lines\": {}, \"converged\": {} }},",
        overload.frames_offered,
        overload.busy_lines,
        overload.retry_rounds,
        overload.frames_resent,
        overload.backoff_ticks,
        overload.delta_lines,
        overload.converged,
    );
    let _ = writeln!(
        out,
        "  \"derived\": {{ \"knn_cost_reduction\": {reduction:.2} }}"
    );
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_cost_drops_at_least_2x_under_alt() {
        let dijkstra = measure_backend(Scale::Quick, DistanceBackend::Dijkstra);
        let alt = measure_backend(Scale::Quick, DistanceBackend::Alt);
        assert_eq!(alt.landmarks, ripq_graph::DEFAULT_LANDMARKS as u64);
        assert_eq!(
            alt.dijkstra_runs, 0,
            "ALT kNN must not fall back to full Dijkstra passes"
        );
        assert!(dijkstra.settled_nodes > 0 && dijkstra.anchor_candidates > 0);
        assert!(alt.settled_nodes > 0 && alt.anchor_candidates > 0);
        let r = knn_cost_reduction(&dijkstra, &alt);
        assert!(
            r >= 2.0,
            "acceptance floor: >= 2x logical-cost reduction, got {r:.2} \
             ({} vs {} units)",
            dijkstra.knn_cost_units,
            alt.knn_cost_units
        );
    }

    #[test]
    fn overload_probe_sheds_and_converges() {
        let probe = measure_overload(Scale::Quick);
        assert!(probe.busy_lines > 0, "budget 6 vs 10 frames must shed");
        assert!(probe.retry_rounds > 0 && probe.frames_resent > 0);
        assert!(probe.converged, "retried lines must byte-match unthrottled");
        let again = measure_overload(Scale::Quick);
        assert_eq!(probe.busy_lines, again.busy_lines);
        assert_eq!(probe.backoff_ticks, again.backoff_ticks);
        assert_eq!(probe.delta_lines, again.delta_lines);
    }

    #[test]
    fn bench_json_has_the_contract_fields() {
        let doc = render_bench_json(Scale::Quick);
        for key in [
            "\"schema\": \"ripq-bench/v1\"",
            "\"pr\": 10",
            "\"dijkstra\":",
            "\"alt\":",
            "\"wall_ns\"",
            "\"knn_cost_units\"",
            "\"knn_cost_reduction\"",
            "\"overload\":",
            "\"converged\": true",
        ] {
            assert!(doc.contains(key), "missing {key} in:\n{doc}");
        }
        // Logical counters are deterministic; only wall times may vary.
        let strip_wall = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("\"wall_ns\""))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let again = render_bench_json(Scale::Quick);
        assert_eq!(strip_wall(&doc), strip_wall(&again));
    }
}
