//! Small-size runs of every workload through the same code paths as the
//! real benchmark, with the daemon served from a thread of the test
//! process. `PERFBENCH_SEED` picks the workload seed (default 1), so a
//! held-out seed can be tried without editing the tests.

use perfbench::client::Launcher;
use perfbench::stream::{self, StreamSpec};
use perfbench::{paper, pipeline, stats, END_TO_END, PER_LAYER, WORKLOADS};
use ripq::sim::ExperimentParams;
use std::path::PathBuf;

fn seed() -> u64 {
    std::env::var("PERFBENCH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn small_paper(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::smoke()
    }
}

const SMALL_FANOUT: StreamSpec = StreamSpec {
    objects: 8,
    range_subs: 4,
    knn_subs: 4,
    durable: false,
    recorded_seconds: 200,
    ticks_per_s: 150.0,
    traced_ticks: 30,
    window: 10,
    tail_percentile: 50.0,
};

const SMALL_DURABLE: StreamSpec = StreamSpec {
    objects: 20,
    range_subs: 2,
    knn_subs: 2,
    durable: true,
    ..SMALL_FANOUT
};

/// A fresh scratch directory with a short path (Unix socket paths are
/// limited to about 100 bytes).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pb-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn paper_sim_smoke_passes_its_checks() {
    let o = paper::measure(small_paper, seed(), 0.01, false);
    assert_eq!(o.error, None);
    // The minimum number of timed rounds over every world.
    assert_eq!(o.attempted, (paper::MIN_ROUNDS * paper::WORLDS) as u64);
    for (name, _) in END_TO_END {
        let v = o.metrics[name];
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
}

#[test]
fn paper_sim_rejects_a_corrupted_reference() {
    let dir = scratch("paperbad");
    let o = paper::measure(small_paper, seed(), 0.01, true);
    assert!(o.error.is_some());
    let traced = paper::measure_traced(small_paper, seed(), true, &dir.join("s.jsonl")).unwrap();
    assert!(traced.error.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paper_sim_traced_splits_the_run() {
    let dir = scratch("papertr");
    let spans = dir.join("spans.jsonl");
    let o = paper::measure_traced(small_paper, seed(), false, &spans).unwrap();
    assert_eq!(o.error, None);
    assert!(o.metrics["sim.pf_index_ms"] > 0.0);
    assert!(o.metrics["pf.sir_iterations"] > 0.0);
    assert!(o.table.contains("sim.pf_index"), "{}", o.table);
    let written = std::fs::read_to_string(&spans).unwrap();
    assert_eq!(
        written.lines().count(),
        paper::TRACED_RUNS * 5,
        "setup + run + three stages per traced run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pipeline_smoke_matches_the_server_and_recovers() {
    for (name, spec) in [("pf", SMALL_FANOUT), ("pd", SMALL_DURABLE)] {
        let dir = scratch(name);
        // 0.2 s at 150 ticks/s: 30 ticks, three windows of 10.
        let o = pipeline::measure(&spec, seed(), 0.2, &dir, false).unwrap();
        assert_eq!(o.error, None, "{name}");
        assert_eq!(o.samples["tick"].n, 30, "{name}");
        for (metric, _) in END_TO_END {
            let v = o.metrics[metric];
            assert!(v.is_finite() && v > 0.0, "{name}: {metric} = {v}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pipeline_rejects_a_corrupted_reference() {
    for (name, spec) in [("pfbad", SMALL_FANOUT), ("pdbad", SMALL_DURABLE)] {
        let dir = scratch(name);
        let o = pipeline::measure(&spec, seed(), 0.2, &dir, true).unwrap();
        assert!(o.error.is_some(), "{name}");
        let spans = dir.join("spans.jsonl");
        let traced = pipeline::measure_traced(&spec, seed(), &dir, true, &spans).unwrap();
        assert!(traced.error.is_some(), "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pipeline_traced_drill_splits_every_layer() {
    for (name, spec) in [("ptf", SMALL_FANOUT), ("ptd", SMALL_DURABLE)] {
        let dir = scratch(name);
        let spans = dir.join("spans.jsonl");
        let o = pipeline::measure_traced(&spec, seed(), &dir, false, &spans).unwrap();
        assert_eq!(o.error, None, "{name}");
        assert!(o.metrics["core.evaluate_ms"] > 0.0);
        assert!(o.metrics["server.frame.decode_ms"] > 0.0);
        assert_eq!(o.metrics["persist.checkpoint_ms"] > 0.0, spec.durable);
        assert_eq!(o.metrics["persist.checkpoint_bytes"] > 0.0, spec.durable);
        assert!(o.table.contains("(unaccounted)"));
        let written = std::fs::read_to_string(&spans).unwrap();
        assert!(written.lines().count() > spec.traced_ticks);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stream_fanout_smoke_matches_the_reference() {
    let dir = scratch("fan");
    let o = stream::measure(
        &Launcher::InProcess,
        &SMALL_FANOUT,
        seed(),
        0.2,
        &dir,
        false,
    )
    .unwrap();
    assert_eq!(o.error, None);
    assert_eq!(o.failed, 0);
    for (name, _) in END_TO_END {
        let v = o.metrics[name];
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_fanout_rejects_a_corrupted_reference() {
    let dir = scratch("fanbad");
    let o = stream::measure(&Launcher::InProcess, &SMALL_FANOUT, seed(), 0.1, &dir, true).unwrap();
    assert!(o.error.is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_durable_smoke_recovers_its_last_checkpoint() {
    let dir = scratch("dur");
    let o = stream::measure(
        &Launcher::InProcess,
        &SMALL_DURABLE,
        seed(),
        0.2,
        &dir,
        false,
    )
    .unwrap();
    assert_eq!(o.error, None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stream_traced_drills_match_the_daemon() {
    for (name, spec) in [("trf", SMALL_FANOUT), ("trd", SMALL_DURABLE)] {
        let dir = scratch(name);
        let spans = dir.join("spans.jsonl");
        let o = stream::measure_traced(&Launcher::InProcess, &spec, seed(), &dir, false, &spans)
            .unwrap();
        assert_eq!(o.error, None, "{name}");
        assert!(o.metrics["core.evaluate_ms"] > 0.0);
        assert_eq!(o.metrics["persist.checkpoint_ms"] > 0.0, spec.durable);
        assert!(o.table.contains("(unaccounted)"));
        let written = std::fs::read_to_string(&spans).unwrap();
        assert!(written.lines().count() > spec.traced_ticks);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn stream_windows_leave_ten_ticks_beyond_the_tail() {
    for spec in [stream::FANOUT, stream::DURABLE] {
        assert!(stats::beyond(spec.window, spec.tail_percentile) >= stats::MIN_BEYOND);
        // A pipeline run of `run_seconds` holds at least three windows.
        assert!(run_seconds() * spec.ticks_per_s >= 3.0 * spec.window as f64);
    }
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).unwrap()
}

/// `run_seconds` of `BENCHMARK.json`.
fn run_seconds() -> f64 {
    let json = benchmark_json();
    let at = json.find("\"run_seconds\":").unwrap() + "\"run_seconds\":".len();
    let digits: String = json[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_prints() {
    let json = benchmark_json();
    for w in WORKLOADS {
        assert!(json.contains(&format!("{{\"name\": \"{w}\"")), "{w}");
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name}"
        );
    }
    assert_eq!(
        json.matches("\"better\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}

#[test]
fn mismatches_name_reordered_responses() {
    let lines = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let daemon = lines(&[
        "{\"ok\":\"reading\"}",
        "{\"event\":\"object_unseen\",\"object\":125}",
        "{\"event\":\"object_unseen\",\"object\":157}",
        "{\"ok\":\"tick\"}",
    ]);
    let reordered = lines(&[
        "{\"ok\":\"reading\"}",
        "{\"event\":\"object_unseen\",\"object\":157}",
        "{\"event\":\"object_unseen\",\"object\":125}",
        "{\"ok\":\"tick\"}",
    ]);
    let msg = stream::describe_mismatch(&daemon, &reordered, 1);
    assert!(msg.contains("another order"), "{msg}");
    let mut changed = reordered.clone();
    changed[2] = "{\"event\":\"object_unseen\",\"object\":9}".to_string();
    let msg = stream::describe_mismatch(&daemon, &changed, 1);
    assert!(!msg.contains("another order"), "{msg}");
}
