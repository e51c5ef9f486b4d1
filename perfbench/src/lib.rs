//! RIPQ's benchmark: workloads measured from outside the program.
//!
//! * `paper_sim` calls `ripq_sim::Experiment::run` at Table 2 scale.
//! * `pipeline_fanout` and `pipeline_durable` feed a recorded client
//!   session through the public call of each layer the daemon runs, in
//!   process.
//! * `stream_fanout` and `stream_durable` start the release
//!   `ripq-server serve --uds` daemon and drive a recorded session into
//!   it closed loop: one client, one connection, one frame in flight.
//!   They are not in `BENCHMARK.json` yet (see `perfbench/README.md`).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! separate traced measurement and prints the per-layer metrics, a
//! per-layer table, and writes a span file. Every run checks its
//! outputs; a run whose check fails reports `"correct": false` and no
//! metrics. The last line of standard output is the result object.

pub mod client;
pub mod paper;
pub mod pipeline;
pub mod stats;
pub mod stream;
pub mod trace;

use client::Launcher;
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The workloads of `BENCHMARK.json`, in its order.
pub const WORKLOADS: [&str; 3] = ["paper_sim", "pipeline_fanout", "pipeline_durable"];

/// Workloads the command runs that `BENCHMARK.json` does not list yet:
/// the program fails their output check at random (see
/// `perfbench/README.md`).
pub const DAEMON_WORKLOADS: [&str; 2] = ["stream_fanout", "stream_durable"];

/// End-to-end metrics and their units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("ticks_per_s", "1/s"),
    ("tick_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and their units. A workload that does not exercise
/// a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("server.frame.decode_ms", "ms"),
    ("server.frame.bytes_in", "B"),
    ("server.protocol.parse_ms", "ms"),
    ("server.protocol.encode_ms", "ms"),
    ("server.protocol.bytes_out", "B"),
    ("rfid.collector.ingest_ms", "ms"),
    ("collector.detections", "count"),
    ("core.evaluate_ms", "ms"),
    ("core.optimizer.prune_ms", "ms"),
    ("pf.preprocess_ms", "ms"),
    ("core.queries_ms", "ms"),
    ("core.optimizer.candidate_ratio", "ratio"),
    ("pf.sir_iterations", "count"),
    ("pf.resamples", "count"),
    ("pf.objects_processed", "count"),
    ("pf.cache_resume_ratio", "ratio"),
    ("index.delta_applied", "count"),
    ("index.delta_retracted", "count"),
    ("index.delta_unchanged", "count"),
    ("core.queries.evaluated", "count"),
    ("spcache.misses", "count"),
    ("core.continuous.deltas_ms", "ms"),
    ("server.deltas_emitted", "count"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_bytes", "B"),
    ("server.net.overhead_ms", "ms"),
    ("server.net.reading_p50_ms", "ms"),
    ("sim.pf_index_ms", "ms"),
    ("sim.sm_index_ms", "ms"),
    ("sim.queries_ms", "ms"),
    ("sim.range_kl_pf", "nat"),
    ("sim.knn_hit_pf", "ratio"),
    ("sim.top1_success", "ratio"),
    ("drill.tick_tail_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_ms", "ms"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement length of a `--trace 0` run.
    pub seconds: f64,
    /// Run the traced measurement instead of the end-to-end one.
    pub trace: bool,
    /// The daemon binary.
    pub server_bin: Option<PathBuf>,
    /// Flip one byte of the reference the outputs are checked against.
    pub corrupt_reference: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1
    /// [--server-bin PATH] [--corrupt-reference]`.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let value = |name: &str| -> Option<&String> {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
        };
        let need = |name: &str| value(name).ok_or(format!("missing {name}"));
        let workload = need("--workload")?.clone();
        if !WORKLOADS.contains(&workload.as_str()) && !DAEMON_WORKLOADS.contains(&workload.as_str())
        {
            return Err(format!(
                "unknown workload {workload:?}; one of {WORKLOADS:?} or {DAEMON_WORKLOADS:?}"
            ));
        }
        let number = |name: &str| -> Result<f64, String> {
            need(name)?
                .parse::<f64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        let seconds = number("--seconds")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(Args {
            workload,
            seed: need("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: match need("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
            server_bin: value("--server-bin").map(PathBuf::from),
            corrupt_reference: args.iter().any(|a| a == "--corrupt-reference"),
        })
    }
}

/// One run's result.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All output checks passed.
    pub correct: bool,
    /// Operations attempted (frames sent, or experiment runs).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric name → value: end-to-end, or per-layer in a traced run.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Latency samples behind each percentile.
    pub samples: BTreeMap<&'static str, Summary>,
    /// The first failed output check, if any.
    pub error: Option<String>,
    /// The per-layer table (traced runs).
    pub table: String,
    /// Extra facts for the environment block.
    pub notes: BTreeMap<&'static str, String>,
}

/// Constructions timed per set-up batch.
pub const SETUP_BATCH: usize = 21;

/// Set-up time, sampled in batches spread over a run. The host's speed
/// for sub-millisecond work changes within seconds (by up to 1.7x on
/// the machine measured), so one batch at the start would report
/// whichever state the host was in then. `setup_s` is the mean over
/// batches of each batch's median.
#[derive(Debug, Default)]
pub struct SetupTimer {
    medians: Vec<f64>,
    samples: Vec<f64>,
}

impl SetupTimer {
    /// Times [`SETUP_BATCH`] calls of `build`, dropping each result.
    pub fn batch<T, E>(&mut self, mut build: impl FnMut() -> Result<T, E>) -> Result<(), E> {
        let mut batch = Vec::with_capacity(SETUP_BATCH);
        for _ in 0..SETUP_BATCH {
            let t = std::time::Instant::now();
            let built = build()?;
            batch.push(t.elapsed().as_secs_f64());
            drop(built);
        }
        self.medians.push(stats::median(&batch));
        self.samples.extend(batch);
        Ok(())
    }

    /// Mean over batches of each batch's median, s; NaN before a batch.
    pub fn value(&self) -> f64 {
        self.medians.iter().sum::<f64>() / self.medians.len() as f64
    }

    /// All samples, for the environment block.
    pub fn summary(&self) -> Summary {
        Summary {
            windows: self.medians.len(),
            ..stats::summarize(&self.samples)
        }
    }
}

/// Stolen and total jiffies of all CPUs, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Runs one workload. `work` is a scratch directory for sockets and
/// checkpoints; `out` receives the span file of a traced run.
pub fn run(args: &Args, launcher: &Launcher, work: &Path, out: &Path) -> Result<Report, String> {
    let spans = out.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
    let corrupt = args.corrupt_reference;
    let before = cpu_jiffies();
    let spec = if args.workload.ends_with("fanout") {
        stream::FANOUT
    } else {
        stream::DURABLE
    };
    let (seed, seconds) = (args.seed, args.seconds);
    let mut report = match (args.workload.as_str(), args.trace) {
        ("paper_sim", true) => paper::measure_traced(paper::table2, seed, corrupt, &spans)?,
        ("paper_sim", false) => paper::measure(paper::table2, seed, seconds, corrupt),
        (name, true) if name.starts_with("pipeline") => {
            pipeline::measure_traced(&spec, seed, work, corrupt, &spans)?
        }
        (_, true) => stream::measure_traced(launcher, &spec, seed, work, corrupt, &spans)?,
        (name, false) if name.starts_with("pipeline") => {
            pipeline::measure(&spec, seed, seconds, work, corrupt)?
        }
        (_, false) => stream::measure(launcher, &spec, seed, seconds, work, corrupt)?,
    };
    // Time the hypervisor gave other guests: explains a slow run. It is
    // a note only; every window and run counts.
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_jiffies()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report
            .notes
            .insert("host_steal_frac", format!("{steal:.4}"));
    }
    if args.trace {
        report.notes.insert("spans", spans.display().to_string());
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in names {
        report.metrics.entry(name).or_insert(0.0);
    }
    let non_finite: Vec<&str> = report
        .metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| *k)
        .collect();
    if report.error.is_none() && !non_finite.is_empty() {
        report.error = Some(format!("non-finite metrics: {non_finite:?}"));
    }
    report.correct = report.error.is_none() && report.attempted > 0;
    if !report.correct {
        report.failed = report.failed.max(1);
    }
    Ok(report)
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result object: metrics only when every check passed.
pub fn result_json(report: &Report, trace: bool) -> String {
    let units: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    if report.correct {
        for (i, (name, unit)) in units.iter().enumerate() {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .env(
            "GIT_CEILING_DIRECTORIES",
            std::env::current_dir()
                .ok()
                .and_then(|d| d.parent().map(Path::to_path_buf))
                .unwrap_or_default(),
        )
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The environment block: machine, build, seed, and the sample count
/// behind each percentile.
pub fn environment_json(args: &Args, report: &Report) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let git = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"env\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"profile\": \"{profile}\", \"rustc\": {}, \
         \"git_revision\": {}, \"load_model\": \"closed loop, 1 client, 1 frame in flight\", \
         \"samples\": {{",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        json_str(&cpu),
        json_str(&rustc),
        json_str(&git),
    );
    for (i, (name, s)) in report.samples.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"n\": {}, \"p50\": {:?}, \"tail\": {:?}, \"tail_percentile\": {}, \
             \"tail_windows\": {}}}",
            s.n, s.p50, s.tail, s.tail_p, s.windows
        );
    }
    out.push('}');
    for (k, v) in &report.notes {
        let _ = write!(out, ", \"{k}\": {}", json_str(v));
    }
    if let Some(e) = &report.error {
        let _ = write!(out, ", \"error\": {}", json_str(e));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "pipeline_fanout",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("pipeline_fanout", 7, 12.0, true)
        );
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "paper_sim", "--seconds", "1", "--trace", "0"]).is_err());
        assert!(args(&[
            "--workload",
            "paper_sim",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[test]
    fn failed_runs_report_no_numbers() {
        let mut r = Report {
            correct: false,
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.metrics.insert("setup_s", 0.5);
        assert_eq!(
            result_json(&r, false),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}"
        );
        r.correct = true;
        let json = result_json(&r, false);
        assert!(
            json.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            "{json}"
        );
        assert!(json.contains("\"ticks_per_s\""), "{json}");
    }

    #[test]
    fn setup_is_the_mean_of_batch_medians() {
        let mut timer = SetupTimer::default();
        assert!(timer.value().is_nan());
        let mut calls = 0;
        timer
            .batch(|| -> Result<(), ()> {
                calls += 1;
                Ok(())
            })
            .unwrap();
        assert!(timer.batch(|| Err::<(), _>("no")).is_err());
        assert_eq!(calls, SETUP_BATCH);
        timer.medians = vec![1.0, 2.0, 6.0];
        assert_eq!(timer.value(), 3.0);
        assert_eq!(timer.summary().n, SETUP_BATCH);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
