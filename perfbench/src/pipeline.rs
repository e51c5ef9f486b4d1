//! The in-process pipeline workloads, `pipeline_fanout` and
//! `pipeline_durable`: a recorded client session fed, frame by frame,
//! through the public call of each layer the daemon runs, in the
//! daemon's order: `FrameDecoder` → `parse_request` →
//! `IndoorQuerySystem::ingest_detections` or `evaluate_budgeted` →
//! `SubscriptionRegistry::deltas` → `render_delta` → `checkpoint_now`
//! (durable only). There is no transport and no `ServerCore`.
//!
//! Every run checks its delta lines against those of an in-process
//! `ServerCore::handle_frame` replay of the same frames. The pipeline
//! keeps a 64-bit digest of each line rather than the line, so that
//! `peak_rss_mb` is the engine's and not the check's.
//! `pipeline_durable` also recovers the checkpoint written at its last
//! tick and checks that the next simulated seconds match the
//! uninterrupted run. The traced run is the same pass with a span around
//! each call (the drill); the daemon workloads' traced run uses it too.

use crate::client::{server_config, vm_hwm_kib};
use crate::stats::{self, Summary};
use crate::stream::{is_tick, plan, Session, StreamSpec};
use crate::trace::{self, Tracer};
use crate::{Report, SetupTimer};
use ripq::core::checkpoint::RecoveryOutcome;
use ripq::core::clock::TimingMode;
use ripq::core::continuous::{SubscriptionKind, SubscriptionRegistry};
use ripq::core::{IndoorQuerySystem, SystemConfig};
use ripq::server::protocol::render_delta;
use ripq::server::{encode_frame, parse_request, FrameDecoder, Request, ServerConfig, ServerCore};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::time::Instant;

/// Simulated seconds `pipeline_durable` replays past its recovered
/// checkpoint.
pub const RECOVERY_EXTENSION_SECONDS: usize = 10;

/// The server's engine and subscription registry, fed without a server.
pub struct Pipeline {
    system: IndoorQuerySystem,
    registry: SubscriptionRegistry,
    decoder: FrameDecoder,
    checkpointing: bool,
}

/// What one pass of frames through the pipeline produced and took.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, ns.
    pub wall_ns: u64,
    /// Time each tick frame took, decode to checkpoint, ms.
    pub tick_ms: Vec<f64>,
    /// When each tick frame finished, s from the start of the pass.
    pub tick_end_s: Vec<f64>,
    /// [`digest`] of each encoded delta line, in order.
    pub delta_digests: Vec<u64>,
    /// Bytes decoded.
    pub bytes_in: u64,
    /// Bytes of encoded delta lines.
    pub bytes_out: u64,
    /// Σ candidates processed and Σ objects known over all ticks.
    pub candidates: (u64, u64),
    /// Range + kNN query answers computed.
    pub queries: u64,
}

impl Pipeline {
    /// The daemon's engine (`ServerConfig::default()`, its seed) with
    /// `timing`, checkpointing after every tick into `checkpoint_dir`
    /// when given.
    pub fn new(timing: TimingMode, checkpoint_dir: Option<&Path>) -> Result<Pipeline, String> {
        let config = ServerConfig::default();
        let system_config = SystemConfig {
            timing,
            ..config.system_config()
        };
        let mut system = IndoorQuerySystem::new(plan()?, system_config, config.seed);
        if let Some(dir) = checkpoint_dir {
            system.set_checkpoint_dir(dir);
        }
        Ok(Pipeline {
            system,
            registry: SubscriptionRegistry::new(),
            decoder: FrameDecoder::new(),
            checkpointing: checkpoint_dir.is_some(),
        })
    }

    /// Feeds `frames` through every layer, with a root `drill.frame`
    /// span per frame and a span around each layer's call in `t`.
    pub fn run(&mut self, frames: &[&String], t: &mut Tracer) -> Result<Pass, String> {
        let wire: Vec<Vec<u8>> = frames.iter().map(|f| encode_frame(f.as_bytes())).collect();
        let mut pass = Pass::default();
        let start = t.now();
        for (i, bytes) in wire.iter().enumerate() {
            let frame_start = t.now();
            t.set_frame(i as u64);
            t.begin("drill.frame");
            let tick = self.feed(i, bytes, t, &mut pass)?;
            t.end();
            if tick {
                let now = t.now();
                pass.tick_ms.push((now - frame_start) as f64 / 1e6);
                pass.tick_end_s.push((now - start) as f64 / 1e9);
            }
        }
        pass.wall_ns = t.now() - start;
        Ok(pass)
    }

    /// One frame through every layer; `true` for a tick.
    fn feed(
        &mut self,
        i: usize,
        bytes: &[u8],
        t: &mut Tracer,
        pass: &mut Pass,
    ) -> Result<bool, String> {
        let decoder = &mut self.decoder;
        let payload = t.span("server.frame", || {
            decoder.push(bytes);
            decoder.next_frame()
        });
        let payload = match payload {
            Some(Ok(p)) => p,
            other => return Err(format!("frame {i} did not decode: {other:?}")),
        };
        pass.bytes_in += bytes.len() as u64;
        let request = t
            .span("server.protocol.parse", || parse_request(&payload))
            .map_err(|e| format!("frame {i}: {e}"))?;
        let system = &mut self.system;
        match request {
            Request::Readings { second, detections } => {
                t.span("rfid.collector", || {
                    system.ingest_detections(second, &detections)
                });
            }
            Request::Subscribe { sub, kind } => {
                let registry = &mut self.registry;
                t.span("core.subscribe", || -> Result<(), String> {
                    let query = match kind {
                        SubscriptionKind::Range(window) => system.register_range(window),
                        SubscriptionKind::Knn(point, k) => system.register_knn(point, k),
                    }
                    .map_err(|e| e.to_string())?;
                    registry.insert(sub, kind, query).map_err(|e| e.to_string())
                })?;
            }
            Request::Tick { second, budget } => {
                t.begin("core.evaluate");
                let at = t.open_start();
                let report = system.evaluate_budgeted(second, budget);
                // The program times its own stages (under wall timing);
                // place them in order inside the evaluate span.
                let timings = report.timings;
                let prune = timings.pruning.as_nanos() as u64;
                let pre = timings.preprocessing.as_nanos() as u64;
                let eval = timings.evaluation.as_nanos() as u64;
                t.child("core.optimizer", at, prune);
                t.child("pf", at + prune, pre);
                t.child("core.queries", at + prune + pre, eval);
                t.end();
                pass.candidates.0 += report.candidates_processed as u64;
                pass.candidates.1 += report.objects_known as u64;
                pass.queries += (report.range_results.len() + report.knn_results.len()) as u64;
                let registry = &mut self.registry;
                let deltas = t.span("core.continuous", || registry.deltas(&report));
                let lines: Vec<String> = t.span("server.protocol.encode", || {
                    deltas
                        .iter()
                        .map(|(sub, delta)| render_delta(*sub, second, delta))
                        .collect()
                });
                pass.bytes_out += lines.iter().map(|l| l.len() as u64).sum::<u64>();
                pass.delta_digests.extend(lines.iter().map(|l| digest(l)));
                if self.checkpointing {
                    t.span("persist", || system.checkpoint_now())
                        .map_err(|e| e.to_string())?;
                }
                return Ok(true);
            }
            _ => {}
        }
        Ok(false)
    }

    /// Counters and gauges of the engine's recorder.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        let snapshot = self.system.recorder().snapshot();
        let mut counters = snapshot.counters;
        counters.extend(snapshot.gauges);
        counters
    }
}

/// A digest of `line` that is the same for the same bytes throughout
/// the process.
pub fn digest(line: &str) -> u64 {
    let mut h = DefaultHasher::new();
    line.hash(&mut h);
    h.finish()
}

/// The delta lines of an in-process `ServerCore::handle_frame` replay of
/// `frames`, and the replay's wall time in s. With `checkpoint_dir` the
/// replay checkpoints every tick, so that its time compares with a
/// checkpointing drill's.
pub fn reference_deltas(
    frames: &[&String],
    checkpoint_dir: Option<&Path>,
) -> Result<(Vec<String>, f64), String> {
    let mut core = ServerCore::new(plan()?, server_config(checkpoint_dir.is_some()));
    if let Some(dir) = checkpoint_dir {
        core.set_checkpoint_dir(dir);
    }
    let mut lines = Vec::new();
    let t = Instant::now();
    for frame in frames {
        lines.extend(core.handle_frame(frame.as_bytes()));
    }
    let replay_s = t.elapsed().as_secs_f64();
    lines.retain(|l| l.starts_with("{\"delta\""));
    Ok((lines, replay_s))
}

/// Checks the digests of the delta lines `got` against the reference
/// delta lines. `corrupt` changes one reference line first, to prove
/// the check bites.
pub fn check_deltas(got: &[u64], mut reference: Vec<String>, corrupt: bool) -> Result<(), String> {
    if corrupt {
        match reference.last_mut() {
            Some(line) => *line = line.replacen("\"sub\":", "\"sub\":9", 1),
            None => reference.push("{\"delta\":{}}".to_string()),
        }
    }
    if got.len() != reference.len() {
        return Err(format!(
            "{} delta lines, the ServerCore replay has {}",
            got.len(),
            reference.len()
        ));
    }
    match (0..got.len()).find(|&i| got[i] != digest(&reference[i])) {
        None => Ok(()),
        Some(i) => Err(format!(
            "delta line {i} differs from the ServerCore replay's {:?}",
            reference[i]
        )),
    }
}

/// The frames of `session` up to and including its `ticks`-th tick, and
/// the body frames after them.
pub fn split_at_tick(session: &Session, ticks: usize) -> (Vec<&String>, Vec<&String>) {
    let cut = session
        .body
        .iter()
        .enumerate()
        .filter(|(_, f)| is_tick(f))
        .nth(ticks.saturating_sub(1))
        .map_or(session.body.len(), |(i, _)| i + 1);
    let sent = session.head.iter().chain(&session.body[..cut]).collect();
    (sent, session.body[cut..].iter().collect())
}

/// Recovers `copy`, the checkpoint `p` wrote at its last tick, into a
/// fresh pipeline, and checks that it resumes right after that tick and
/// that both pipelines then answer `extension` with the same deltas.
fn check_recovery(
    p: &mut Pipeline,
    head: &[&String],
    last_second: u64,
    copy: &Path,
    extension: &[&String],
) -> Result<(), String> {
    let mut resumed = Pipeline::new(TimingMode::Logical, None)?;
    // Queries are not in the snapshot: re-register them, in order, and
    // give each subscription the result it had at the checkpoint.
    resumed.run(head, &mut Tracer::off())?;
    match resumed.system.recover(copy).map_err(|e| e.to_string())? {
        RecoveryOutcome::Resumed { replay_from } if replay_from == last_second + 1 => {}
        other => {
            return Err(format!(
                "checkpoint of second {last_second} recovered as {other:?}"
            ))
        }
    }
    for (sub, s) in p.registry.iter() {
        resumed.registry.restore_current(sub, s.current().clone());
    }
    let after = p.run(extension, &mut Tracer::off())?;
    let replayed = resumed.run(extension, &mut Tracer::off())?;
    if replayed.delta_digests != after.delta_digests {
        return Err(
            "deltas past the recovered checkpoint differ from the uninterrupted run".into(),
        );
    }
    Ok(())
}

/// The last tick's second among `frames`.
fn last_tick_second(frames: &[&String]) -> Result<u64, String> {
    let frame = frames
        .iter()
        .rev()
        .find(|f| is_tick(f))
        .ok_or("no tick frame")?;
    match parse_request(frame.as_bytes()) {
        Ok(Request::Tick { second, .. }) => Ok(second),
        other => Err(format!("not a tick: {other:?}")),
    }
}

/// Runs a pipeline workload's end-to-end measurement: a fixed number of
/// ticks, `seconds` × `spec.ticks_per_s`, so that every run of a seed
/// measures the same frames.
pub fn measure(
    spec: &StreamSpec,
    seed: u64,
    seconds: f64,
    work: &Path,
    corrupt: bool,
) -> Result<Report, String> {
    let ticks = ((seconds * spec.ticks_per_s).ceil() as usize).max(1);
    let extension = if spec.durable {
        RECOVERY_EXTENSION_SECONDS
    } else {
        0
    };
    let mut setup = SetupTimer::default();
    let build = || Pipeline::new(TimingMode::Logical, None);
    setup.batch(build)?;
    let session = Session::record(spec, seed, (ticks + extension) as u64);
    let (sent, rest) = split_at_tick(&session, ticks);
    setup.batch(build)?;
    let dir = work.join("ckpt");
    let mut p = Pipeline::new(TimingMode::Logical, spec.durable.then_some(dir.as_path()))?;
    let pass = p.run(&sent, &mut Tracer::off())?;
    let peak_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| vm_hwm_kib(&s))
        .unwrap_or(0);

    let windows = stats::windowed(
        &pass.tick_ms,
        &pass.tick_end_s,
        spec.window,
        spec.tail_percentile,
    );
    let tick = Summary {
        n: pass.tick_ms.len(),
        p50: windows.p50,
        tail: windows.tail,
        tail_p: spec.tail_percentile,
        windows: windows.windows,
    };
    setup.batch(build)?;
    let mut report = Report {
        attempted: sent.len() as u64,
        ..Report::default()
    };
    let (reference, _) = reference_deltas(&sent, None)?;
    setup.batch(build)?;
    let mut checked = check_deltas(&pass.delta_digests, reference, corrupt);
    if checked.is_ok() && spec.durable {
        let copy = work.join("recovery");
        std::fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
        std::fs::copy(dir.join("system.ckpt"), copy.join("system.ckpt"))
            .map_err(|e| format!("copy system.ckpt: {e}"))?;
        let head: Vec<&String> = session.head.iter().collect();
        let extension: Vec<&String> = rest.iter().copied().take(2 * extension).collect();
        checked = check_recovery(&mut p, &head, last_tick_second(&sent)?, &copy, &extension);
    }
    setup.batch(build)?;
    report.error = checked.err();
    let e2e = &mut report.metrics;
    e2e.insert("ticks_per_s", windows.rate);
    e2e.insert("tick_p50_ms", tick.p50);
    e2e.insert("setup_s", setup.value());
    e2e.insert("peak_rss_mb", peak_kib as f64 / 1024.0);
    report.samples.insert("tick", tick);
    report.samples.insert("setup", setup.summary());
    Ok(report)
}

/// The drill: `frames` through a pipeline under wall timing with every
/// layer traced, checkpointing into `checkpoint_dir` when given. Checks
/// its delta lines against `reference` and derives the per-layer metrics
/// (per tick); `replay_s` is the untraced reference replay's wall time.
/// The spans go to `spans`.
pub fn drill(
    frames: &[&String],
    checkpoint_dir: Option<&Path>,
    reference: Vec<String>,
    replay_s: f64,
    corrupt: bool,
    spans: &Path,
) -> Result<Report, String> {
    let mut p = Pipeline::new(TimingMode::Wall, checkpoint_dir)?;
    let mut t = Tracer::new();
    let d = p.run(frames, &mut t)?;
    let mut report = Report {
        attempted: frames.len() as u64,
        error: check_deltas(&d.delta_digests, reference, corrupt).err(),
        ..Report::default()
    };
    t.write_jsonl(spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let layers = trace::by_layer(t.spans());
    report.table = trace::render_table(&layers, d.wall_ns);
    let counters = p.counters();
    let ticks = d.tick_ms.len().max(1) as f64;
    let per_tick_ms = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.total as f64 / 1e6 / ticks)
    };
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let layer = &mut report.metrics;
    for (metric, span) in [
        ("server.frame.decode_ms", "server.frame"),
        ("server.protocol.parse_ms", "server.protocol.parse"),
        ("server.protocol.encode_ms", "server.protocol.encode"),
        ("rfid.collector.ingest_ms", "rfid.collector"),
        ("core.evaluate_ms", "core.evaluate"),
        ("core.optimizer.prune_ms", "core.optimizer"),
        ("pf.preprocess_ms", "pf"),
        ("core.queries_ms", "core.queries"),
        ("core.continuous.deltas_ms", "core.continuous"),
        ("persist.checkpoint_ms", "persist"),
    ] {
        layer.insert(metric, per_tick_ms(span));
    }
    for name in [
        "collector.detections",
        "pf.sir_iterations",
        "pf.resamples",
        "pf.objects_processed",
        "index.delta_applied",
        "index.delta_retracted",
        "index.delta_unchanged",
        "spcache.misses",
    ] {
        layer.insert(name, counter(name) / ticks);
    }
    layer.insert("server.frame.bytes_in", d.bytes_in as f64 / ticks);
    layer.insert("server.protocol.bytes_out", d.bytes_out as f64 / ticks);
    layer.insert(
        "core.optimizer.candidate_ratio",
        d.candidates.0 as f64 / d.candidates.1.max(1) as f64,
    );
    layer.insert(
        "pf.cache_resume_ratio",
        counter("pf.cache_resumes") / counter("pf.objects_processed").max(1.0),
    );
    layer.insert("core.queries.evaluated", d.queries as f64 / ticks);
    layer.insert(
        "server.deltas_emitted",
        d.delta_digests.len() as f64 / ticks,
    );
    let checkpoint = checkpoint_dir.and_then(|dir| std::fs::metadata(dir.join("system.ckpt")).ok());
    layer.insert(
        "persist.checkpoint_bytes",
        checkpoint.map_or(0, |m| m.len()) as f64,
    );
    layer.insert(
        "trace.overhead_frac",
        d.wall_ns as f64 / 1e9 / replay_s - 1.0,
    );
    let accounted: u64 = layers.values().map(|l| l.self_time).sum();
    layer.insert(
        "trace.unaccounted_ms",
        d.wall_ns.saturating_sub(accounted) as f64 / 1e6 / ticks,
    );
    let drill_tick = stats::summarize(&d.tick_ms);
    layer.insert("drill.tick_tail_ms", drill_tick.tail);
    report.samples.insert("drill_tick", drill_tick);
    Ok(report)
}

/// Runs a pipeline workload's traced measurement over a fixed
/// `spec.traced_ticks` ticks.
pub fn measure_traced(
    spec: &StreamSpec,
    seed: u64,
    work: &Path,
    corrupt: bool,
    spans: &Path,
) -> Result<Report, String> {
    let session = Session::record(spec, seed, spec.traced_ticks as u64);
    let (sent, _) = split_at_tick(&session, spec.traced_ticks);
    let ref_ckpt = spec.durable.then(|| work.join("reference-ckpt"));
    let (reference, replay_s) = reference_deltas(&sent, ref_ckpt.as_deref())?;
    let ckpt = spec.durable.then(|| work.join("drill-ckpt"));
    drill(&sent, ckpt.as_deref(), reference, replay_s, corrupt, spans)
}
