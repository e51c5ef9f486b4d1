//! The `paper_sim` workload: Table 2's accuracy experiment through
//! `ripq_sim::Experiment::run`.
//!
//! Each run of the benchmark simulates a fixed set of [`WORLDS`] worlds,
//! one per experiment, with experiment seeds derived from the workload
//! seed, so that every run of a seed measures the same worlds. After an
//! untimed warm-up round, it makes several timed rounds over the worlds,
//! a fresh experiment each time, and reports the time per evaluation
//! timestamp over all of them. Every timed run of a world must give a
//! report bit-identical to the world's warm-up run. Over all worlds, the particle filter must
//! beat the symbolic baseline on both KL divergence and kNN hit rate.

use crate::client::vm_hwm_kib;
use crate::stats;
use crate::trace::{self, Tracer};
use crate::{Report, SetupTimer};
use ripq::sim::{AccuracyAccumulator, AccuracyReport, Experiment, ExperimentParams};
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::path::Path;
use std::time::Instant;

/// Worlds a benchmark run simulates.
pub const WORLDS: usize = 2;

/// Timed rounds over the worlds a run makes at least, however short its
/// time.
pub const MIN_ROUNDS: usize = 1;

/// Experiment runs per second of `--seconds`: about this machine's rate
/// at Table 2 scale, so that a run takes about `--seconds`.
pub const RUNS_PER_SECOND: f64 = 1.0;

/// The number of timed rounds over the [`WORLDS`] a run of `seconds` makes.
pub fn rounds(seconds: f64) -> usize {
    ((seconds * RUNS_PER_SECOND / WORLDS as f64).round() as usize).max(MIN_ROUNDS)
}

/// Traced (and untraced) runs in a traced benchmark run.
pub const TRACED_RUNS: usize = 3;

/// The `i`-th experiment seed of workload seed `seed` (SplitMix64).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Table 2 with the given seed.
pub fn table2(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        ..ExperimentParams::default()
    }
}

/// Every field of two reports, compared bit for bit.
pub fn bit_identical(a: &AccuracyReport, b: &AccuracyReport) -> bool {
    let bits = |r: &AccuracyReport| {
        [
            r.range_kl_pf,
            r.range_kl_sm,
            r.knn_hit_pf,
            r.knn_hit_sm,
            r.top1_success,
            r.top2_success,
            r.mean_error_pf,
            r.mean_error_sm,
        ]
        .map(f64::to_bits)
    };
    bits(a) == bits(b)
        && a.range_queries_evaluated == b.range_queries_evaluated
        && a.knn_queries_evaluated == b.knn_queries_evaluated
}

/// Runs one experiment on each of the [`WORLDS`] worlds untimed, then
/// makes [`rounds`]`(seconds)` timed rounds of the same. `corrupt`
/// perturbs the first world's warm-up report, to prove the repeat check
/// bites.
pub fn measure(
    params: impl Fn(u64) -> ExperimentParams,
    seed: u64,
    seconds: f64,
    corrupt: bool,
) -> Report {
    let mut setup = SetupTimer::default();
    let mut tick_ms = Vec::new();
    let mut timestamps = 0;
    let mut total_ms = 0.0;
    let mut reports: Vec<AccuracyReport> = (0..WORLDS)
        .map(|world| Experiment::new(params(sub_seed(seed, world))).run())
        .collect();
    if corrupt {
        reports[0].range_kl_pf = f64::from_bits(reports[0].range_kl_pf.to_bits() ^ 1);
    }
    let mut error = None;
    for _ in 0..rounds(seconds) {
        for (world, reference) in reports.iter().enumerate() {
            let p = params(sub_seed(seed, world));
            // One set-up batch per run spreads them over the run.
            let Ok(()) = setup.batch(|| Ok::<_, Infallible>(Experiment::new(p)));
            let experiment = Experiment::new(p);
            let t = Instant::now();
            let report = experiment.run();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tick_ms.push(ms / p.eval_timestamps.max(1) as f64);
            timestamps += p.eval_timestamps;
            total_ms += ms;
            if error.is_none() && !bit_identical(&report, reference) {
                error = Some(format!(
                    "experiment seed {} gave different reports on two runs",
                    p.seed
                ));
            }
        }
    }
    let mut acc = AccuracyAccumulator::default();
    for r in &reports {
        acc.push(r);
    }
    let a = acc.report();
    if error.is_none() && !(a.range_kl_pf < a.range_kl_sm && a.knn_hit_pf > a.knn_hit_sm) {
        error = Some(format!(
            "PF does not beat SM: KL {} vs {}, kNN hit {} vs {}",
            a.range_kl_pf, a.range_kl_sm, a.knn_hit_pf, a.knn_hit_sm
        ));
    }
    let peak_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kib(&s))
        .unwrap_or(0);
    let mut report = Report {
        attempted: tick_ms.len() as u64,
        error,
        ..Report::default()
    };
    // Timestamps are not timed one by one: both figures are over the
    // whole run.
    let tick = total_ms / timestamps.max(1) as f64;
    report.metrics.insert("ticks_per_s", 1e3 / tick);
    report.metrics.insert("tick_p50_ms", tick);
    report.metrics.insert("setup_s", setup.value());
    report
        .metrics
        .insert("peak_rss_mb", peak_kib as f64 / 1024.0);
    report.samples.insert("tick", stats::summarize(&tick_ms));
    report.samples.insert("setup", setup.summary());
    report.notes.insert("worlds", WORLDS.to_string());
    report.notes.insert("rounds", rounds(seconds).to_string());
    report.notes.insert(
        "accuracy",
        format!(
            "range_kl_pf={} range_kl_sm={} knn_hit_pf={} knn_hit_sm={} top1_success={}",
            a.range_kl_pf, a.range_kl_sm, a.knn_hit_pf, a.knn_hit_sm, a.top1_success
        ),
    );
    report
}

/// The program's `run/*` stage spans, the child span each becomes, and
/// the per-layer metric it feeds.
const STAGES: [(&str, &str, &str); 3] = [
    ("run/pf_index", "sim.pf_index", "sim.pf_index_ms"),
    ("run/sm_index", "sim.sm_index", "sim.sm_index_ms"),
    ("run/queries", "sim.queries", "sim.queries_ms"),
];

/// The traced run: [`TRACED_RUNS`] pairs of an untraced `run` and a
/// `run_with_metrics` with the program's observability on, on the first
/// world. Spans wrap `Experiment::new` and the run; the run's children
/// are the program's own `run/*` stage totals. The spans go to `spans`.
pub fn measure_traced(
    params: impl Fn(u64) -> ExperimentParams,
    seed: u64,
    corrupt: bool,
    spans: &Path,
) -> Result<Report, String> {
    let p = params(sub_seed(seed, 0));
    let mut tracer = Tracer::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut stage_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<(AccuracyReport, BTreeMap<String, u64>)> = None;
    let mut error = None;
    for pair in 0..TRACED_RUNS {
        let t = Instant::now();
        let mut plain = Experiment::new(p).run();
        untraced_s.push(t.elapsed().as_secs_f64());
        if corrupt && pair == 0 {
            plain.knn_hit_pf = f64::from_bits(plain.knn_hit_pf.to_bits() ^ 1);
        }

        tracer.set_frame(pair as u64);
        let t = Instant::now();
        let experiment = tracer.span("sim.setup", || {
            Experiment::new(ExperimentParams {
                observability: true,
                ..p
            })
        });
        tracer.begin("sim.run");
        let mut offset = tracer.open_start();
        let (report, snapshot) = experiment.run_with_metrics();
        for (span, child, metric) in STAGES {
            let micros = snapshot
                .as_ref()
                .and_then(|s| s.spans.get(span))
                .map_or(0, |s| s.total_micros);
            tracer.child(child, offset, micros * 1000);
            offset += micros * 1000;
            stage_ms
                .entry(metric)
                .or_default()
                .push(micros as f64 / 1e3);
        }
        tracer.end();
        traced_s.push(t.elapsed().as_secs_f64());
        if error.is_none() && !bit_identical(&report, &plain) {
            error = Some("observability changed the accuracy report".to_string());
        }
        if first.is_none() {
            let mut counters = BTreeMap::new();
            if let Some(s) = snapshot {
                counters = s.counters;
                counters.extend(s.gauges);
            }
            first = Some((report, counters));
        }
    }
    tracer
        .write_jsonl(spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    // Only the traced halves are inside spans.
    let wall_ns = (traced_s.iter().sum::<f64>() * 1e9) as u64;
    let (accuracy, counters) = first.unwrap_or_default();
    let layers = trace::by_layer(tracer.spans());
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let mut report = Report {
        attempted: 2 * TRACED_RUNS as u64,
        error,
        table: trace::render_table(&layers, wall_ns),
        ..Report::default()
    };
    let m = &mut report.metrics;
    for (metric, values) in &stage_ms {
        m.insert(metric, stats::median(values));
    }
    for name in [
        "pf.sir_iterations",
        "pf.resamples",
        "pf.objects_processed",
        "collector.detections",
        "index.delta_applied",
        "index.delta_retracted",
        "index.delta_unchanged",
        "spcache.misses",
    ] {
        m.insert(name, counter(name));
    }
    m.insert(
        "pf.cache_resume_ratio",
        counter("pf.cache_resumes") / counter("pf.objects_processed").max(1.0),
    );
    m.insert(
        "core.queries.evaluated",
        (accuracy.range_queries_evaluated + accuracy.knn_queries_evaluated) as f64,
    );
    m.insert("sim.range_kl_pf", accuracy.range_kl_pf);
    m.insert("sim.knn_hit_pf", accuracy.knn_hit_pf);
    m.insert("sim.top1_success", accuracy.top1_success);
    m.insert(
        "trace.overhead_frac",
        stats::median(&traced_s) / stats::median(&untraced_s) - 1.0,
    );
    let accounted: u64 = layers.values().map(|l| l.self_time).sum();
    m.insert(
        "trace.unaccounted_ms",
        wall_ns.saturating_sub(accounted) as f64 / 1e6 / TRACED_RUNS as f64,
    );
    report.samples.insert("run", stats::summarize(&traced_s));
    Ok(report)
}
