//! The daemon workloads, `stream_fanout` and `stream_durable`: a
//! recorded client session sent to the `ripq-server` daemon over a
//! Unix-domain socket, closed loop. They are not in `BENCHMARK.json`
//! yet: see "Known program defect" in `perfbench/README.md`.
//!
//! Every run checks the daemon's response lines byte for byte against an
//! in-process `ServerCore::handle_frame` replay of the frames it sent.
//! `stream_durable` also recovers its last per-tick checkpoint and
//! replays past it. The traced run adds the pipeline's drill over the
//! same frames.

use crate::client::{server_config, terminal_reply, Client, Daemon, Launcher, Reply};
use crate::pipeline;
use crate::stats::{self, Summary, Windowed};
use crate::Report;
use ripq::floorplan::{office_building, FloorPlan, OfficeParams};
use ripq::server::{ServerCore, ServerRecovery};
use ripq::sim::transcript::{record_transcript, TranscriptSpec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A streaming workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Moving objects in the simulated world.
    pub objects: usize,
    /// Standing range subscriptions.
    pub range_subs: usize,
    /// Standing kNN subscriptions (k = 3).
    pub knn_subs: usize,
    /// Daemon checkpoints after every tick.
    pub durable: bool,
    /// Simulated seconds recorded for a daemon session; one reading and
    /// one tick frame each. The timed session stops at its deadline or
    /// at the end of these.
    pub recorded_seconds: u64,
    /// Ticks per second of `--seconds` in a pipeline run, which measures
    /// a fixed number of ticks: about this machine's rate, so that a run
    /// takes about `--seconds`.
    pub ticks_per_s: f64,
    /// Ticks in the traced run, which is fixed-size so its counts repeat.
    pub traced_ticks: usize,
    /// Ticks per window: the tail and the tick rate are medians over
    /// consecutive windows of this many ticks.
    pub window: usize,
    /// The tail percentile taken in each window; at least
    /// [`stats::MIN_BEYOND`] ticks of a window lie beyond it.
    pub tail_percentile: f64,
}

/// `*_fanout`: many standing queries over few objects.
pub const FANOUT: StreamSpec = StreamSpec {
    objects: 24,
    range_subs: 32,
    knn_subs: 32,
    durable: false,
    recorded_seconds: 40_000,
    ticks_per_s: 700.0,
    traced_ticks: 2_000,
    window: 1_000,
    tail_percentile: 99.0,
};

/// `*_durable`: paper-scale object count, checkpoint every tick.
pub const DURABLE: StreamSpec = StreamSpec {
    objects: 200,
    range_subs: 8,
    knn_subs: 4,
    durable: true,
    recorded_seconds: 6_000,
    ticks_per_s: 130.0,
    traced_ticks: 400,
    window: 200,
    tail_percentile: 95.0,
};

/// Simulated seconds replayed past the recovered checkpoint.
const RECOVERY_EXTENSION_SECONDS: usize = 10;

/// Daemon starts per run; the median start-up time is `setup_s`.
pub const DAEMON_STARTS: usize = 9;

/// The session's frames, split where the timed loop may cut them.
pub struct Session {
    /// Subscription frames, sent first.
    pub head: Vec<String>,
    /// Alternating `reading` / `tick` frames.
    pub body: Vec<String>,
    /// Closing frames (an optional `metrics`, then `shutdown`).
    pub tail: Vec<String>,
}

impl Session {
    /// Records `seconds` simulated seconds of the session for `seed`.
    pub fn record(spec: &StreamSpec, seed: u64, seconds: u64) -> Session {
        let transcript = record_transcript(&TranscriptSpec {
            seed,
            objects: spec.objects,
            seconds,
            tick_every: 1,
            range_subs: spec.range_subs,
            knn_subs: spec.knn_subs,
            checkpoint_after: None,
            // A resumed life's metrics legitimately differ, so the
            // durable session, which is recovered, asks for none.
            metrics_frame: !spec.durable,
            tick_budget: None,
        });
        let mut frames = transcript.frames;
        let first_data = frames
            .iter()
            .position(|f| !f.starts_with("{\"op\":\"subscribe\""))
            .unwrap_or(frames.len());
        let last_tick = frames.iter().rposition(|f| is_tick(f)).map_or(0, |i| i + 1);
        let tail = frames.split_off(last_tick.max(first_data));
        let body = frames.split_off(first_data);
        Session {
            head: frames,
            body,
            tail,
        }
    }
}

/// `true` for a `tick` frame.
pub fn is_tick(frame: &str) -> bool {
    frame.starts_with("{\"op\":\"tick\"")
}

/// What a daemon session measured.
pub struct Measured {
    /// Response lines, in order.
    pub lines: Vec<String>,
    /// Lines answering the head and the body frames sent.
    pub lines_before_tail: usize,
    /// Body frames sent.
    pub cut: usize,
    /// Round-trip times of tick frames, ms.
    pub tick_ms: Vec<f64>,
    /// When each tick was acked, s from the first body frame.
    pub tick_end_s: Vec<f64>,
    /// Round-trip times of reading frames, ms.
    pub reading_ms: Vec<f64>,
    /// Spawn-to-accepted-connection times, s.
    pub setup_s: Vec<f64>,
    /// Frames sent.
    pub attempted: u64,
    /// Frames answered `busy` or `error`, or never answered.
    pub failed: u64,
    /// Daemon `VmHWM` before shutdown, KiB.
    pub peak_rss_kib: u64,
    /// Bytes of `system.ckpt` + `server.ckpt` after the last tick.
    pub checkpoint_bytes: u64,
    /// A copy of the checkpoint directory as of the last tick's ack.
    pub recovery_dir: Option<PathBuf>,
}

/// Where the body loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first tick ack past this instant.
    Deadline(Instant),
    /// After this many ticks.
    Ticks(usize),
}

/// Starts the daemon [`DAEMON_STARTS`] times (all but the last only to
/// time start-up), then runs the session closed loop on the last one.
pub fn run_daemon(
    launcher: &Launcher,
    spec: &StreamSpec,
    session: &Session,
    stop: Stop,
    work: &Path,
) -> Result<Measured, String> {
    let ckpt = |i: usize| spec.durable.then(|| work.join(format!("ckpt{i}")));
    let socket = |i: usize| work.join(format!("d{i}.sock"));
    let mut setup_s = Vec::new();
    for i in 0..DAEMON_STARTS - 1 {
        let (daemon, mut client, took) = Daemon::start(launcher, &socket(i), ckpt(i).as_deref())?;
        setup_s.push(took.as_secs_f64());
        let mut lines = Vec::new();
        let reply = client
            .request(b"{\"op\":\"shutdown\"}", &mut lines)
            .map_err(|e| e.to_string())?;
        if reply != Reply::Ok {
            return Err(format!("shutdown refused: {lines:?}"));
        }
        drop(client);
        daemon.wait(Duration::from_secs(30))?;
    }
    let last = DAEMON_STARTS - 1;
    let dir = ckpt(last);
    let (daemon, mut client, took) = Daemon::start(launcher, &socket(last), dir.as_deref())?;
    setup_s.push(took.as_secs_f64());

    let mut m = Measured {
        lines: Vec::new(),
        lines_before_tail: 0,
        cut: 0,
        tick_ms: Vec::new(),
        tick_end_s: Vec::new(),
        reading_ms: Vec::new(),
        setup_s,
        attempted: 0,
        failed: 0,
        peak_rss_kib: 0,
        checkpoint_bytes: 0,
        recovery_dir: None,
    };
    let send = |client: &mut Client, frame: &str, m: &mut Measured| -> Result<f64, String> {
        let t = Instant::now();
        let reply = client
            .request(frame.as_bytes(), &mut m.lines)
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        m.attempted += 1;
        if reply != Reply::Ok {
            m.failed += 1;
        }
        Ok(ms)
    };
    for frame in &session.head {
        send(&mut client, frame, &mut m)?;
    }
    let t_body = Instant::now();
    let mut ticks = 0;
    for frame in &session.body {
        let ms = send(&mut client, frame, &mut m)?;
        m.cut += 1;
        if is_tick(frame) {
            m.tick_ms.push(ms);
            m.tick_end_s.push(t_body.elapsed().as_secs_f64());
            ticks += 1;
            let done = match stop {
                Stop::Deadline(at) => Instant::now() >= at,
                Stop::Ticks(n) => ticks >= n,
            };
            if done {
                break;
            }
        } else {
            m.reading_ms.push(ms);
        }
    }
    m.lines_before_tail = m.lines.len();
    m.peak_rss_kib = daemon.peak_rss_kib().unwrap_or(0);
    if let Some(dir) = &dir {
        // The tick's checkpoint is durable before its ack is written.
        let copy = work.join("recovery");
        std::fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
        for name in ["system.ckpt", "server.ckpt"] {
            let bytes = std::fs::copy(dir.join(name), copy.join(name))
                .map_err(|e| format!("copy {name}: {e}"))?;
            m.checkpoint_bytes += bytes;
        }
        m.recovery_dir = Some(copy);
    }
    for frame in &session.tail {
        send(&mut client, frame, &mut m)?;
    }
    drop(client);
    daemon.wait(Duration::from_secs(30))?;
    Ok(m)
}

/// The floor plan the daemon serves.
pub fn plan() -> Result<FloorPlan, String> {
    office_building(&OfficeParams::default()).map_err(|e| e.to_string())
}

/// The result of replaying the sent frames in process.
pub struct Reference {
    /// Wall time of the untraced replay of the sent frames, s.
    pub replay_s: f64,
    /// The reference delta lines, in order.
    pub delta_lines: Vec<String>,
}

/// Replays the frames the daemon received through an in-process
/// [`ServerCore`] and checks the daemon's lines against it byte for
/// byte. For `stream_durable` also recovers the checkpoint copied at the
/// last tick and checks that replaying past it matches the reference.
/// `corrupt` flips one reference byte, to prove the check bites. With
/// `checkpoint_dir` the reference checkpoints like the daemon, so that
/// its replay time is comparable with the traced drill's.
pub fn check_reference(
    spec: &StreamSpec,
    session: &Session,
    m: &Measured,
    corrupt: bool,
    checkpoint_dir: Option<&Path>,
) -> Result<Reference, String> {
    let sent: Vec<&String> = session.head.iter().chain(&session.body[..m.cut]).collect();
    let mut core = ServerCore::new(plan()?, server_config(spec.durable));
    if let Some(dir) = checkpoint_dir {
        core.set_checkpoint_dir(dir);
    }
    let mut reference = Vec::with_capacity(m.lines.len());
    let t = Instant::now();
    for frame in &sent {
        reference.extend(core.handle_frame(frame.as_bytes()));
    }
    let replay_s = t.elapsed().as_secs_f64();
    let prefix_lines = reference.len();
    // Past the daemon's cut the reference first runs the recovery
    // extension, then the tail. The durable tail is `shutdown` alone,
    // whose ack does not depend on state.
    let extension: Vec<&String> = if spec.durable {
        let end = (m.cut + 2 * RECOVERY_EXTENSION_SECONDS).min(session.body.len());
        session.body[m.cut..end].iter().collect()
    } else {
        Vec::new()
    };
    let mut after_cut = Vec::new();
    for frame in &extension {
        after_cut.extend(core.handle_frame(frame.as_bytes()));
    }
    let extension_lines = after_cut.len();
    for frame in &session.tail {
        after_cut.extend(core.handle_frame(frame.as_bytes()));
    }
    reference.extend_from_slice(&after_cut[extension_lines..]);
    if corrupt {
        corrupt_one_byte(&mut reference);
    }
    if m.lines_before_tail != prefix_lines {
        return Err(format!(
            "daemon answered the sent frames with {} lines, reference {prefix_lines}",
            m.lines_before_tail
        ));
    }
    if let Some(i) =
        (0..reference.len().max(m.lines.len())).find(|&i| reference.get(i) != m.lines.get(i))
    {
        return Err(describe_mismatch(&m.lines, &reference, i));
    }
    if let Some(dir) = &m.recovery_dir {
        let mut resumed = ServerCore::new(plan()?, server_config(true));
        match resumed.recover(dir).map_err(|e| e.to_string())? {
            ServerRecovery::Resumed {
                skip_frames,
                lines_emitted,
            } => {
                if skip_frames != sent.len() as u64 || lines_emitted != prefix_lines as u64 {
                    return Err(format!(
                        "checkpoint resumes at frame {skip_frames} / line {lines_emitted}, \
                         last tick was frame {} / line {prefix_lines}",
                        sent.len()
                    ));
                }
            }
            other => return Err(format!("checkpoint did not resume: {other:?}")),
        }
        let mut replayed = Vec::new();
        for frame in extension.iter().copied().chain(&session.tail) {
            replayed.extend(resumed.handle_frame(frame.as_bytes()));
        }
        if replayed != after_cut {
            return Err("replay past the recovered checkpoint differs from the reference".into());
        }
    }
    let delta_lines = reference
        .into_iter()
        .take(prefix_lines)
        .filter(|l| l.starts_with("{\"delta\""))
        .collect();
    Ok(Reference {
        replay_s,
        delta_lines,
    })
}

/// Explains the first differing line `i`, saying whether the response it
/// belongs to holds the same lines in another order.
pub fn describe_mismatch(daemon: &[String], reference: &[String], i: usize) -> String {
    let is_terminal = |l: &String| terminal_reply(l).is_some();
    let start = daemon[..i]
        .iter()
        .rposition(is_terminal)
        .map_or(0, |t| t + 1);
    let response = |lines: &[String]| -> Vec<String> {
        let rest = lines.get(start..).unwrap_or(&[]);
        let end = rest
            .iter()
            .position(is_terminal)
            .map_or(rest.len(), |t| t + 1);
        let mut group = rest[..end].to_vec();
        group.sort();
        group
    };
    let same_lines = response(daemon) == response(reference);
    format!(
        "daemon line {i} differs from the in-process replay{}:\n  daemon:    {:?}\n  reference: {:?}",
        if same_lines {
            " (same lines in another order within one response)"
        } else {
            ""
        },
        daemon.get(i),
        reference.get(i)
    )
}

fn corrupt_one_byte(lines: &mut [String]) {
    if let Some(line) = lines.iter_mut().rev().find(|l| l.starts_with("{\"delta\"")) {
        *line = line.replacen("\"sub\":", "\"sub\":9", 1);
    } else if let Some(line) = lines.last_mut() {
        line.push(' ');
    }
}

/// The counts and latency samples of a daemon session; tick figures are
/// medians over windows of `spec.window` ticks.
fn session_report(spec: &StreamSpec, m: &Measured) -> (Report, Windowed) {
    let windows = stats::windowed(&m.tick_ms, &m.tick_end_s, spec.window, spec.tail_percentile);
    let tick = Summary {
        n: m.tick_ms.len(),
        p50: windows.p50,
        tail: windows.tail,
        tail_p: spec.tail_percentile,
        windows: windows.windows,
    };
    let mut report = Report {
        attempted: m.attempted,
        failed: m.failed,
        ..Report::default()
    };
    report.samples.insert("tick", tick);
    report
        .samples
        .insert("reading", stats::summarize(&m.reading_ms));
    report.samples.insert("setup", stats::summarize(&m.setup_s));
    (report, windows)
}

/// Runs a streaming workload's end-to-end measurement for `seconds`.
pub fn measure(
    launcher: &Launcher,
    spec: &StreamSpec,
    seed: u64,
    seconds: f64,
    work: &Path,
    corrupt: bool,
) -> Result<Report, String> {
    let session = Session::record(spec, seed, spec.recorded_seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let m = run_daemon(launcher, spec, &session, Stop::Deadline(deadline), work)?;
    let (mut report, windows) = session_report(spec, &m);
    report.error = check_reference(spec, &session, &m, corrupt, None).err();
    let tick = report.samples["tick"];
    let setup = report.samples["setup"];
    let e2e = &mut report.metrics;
    e2e.insert("ticks_per_s", windows.rate);
    e2e.insert("tick_p50_ms", tick.p50);
    e2e.insert("setup_s", setup.p50);
    e2e.insert("peak_rss_mb", m.peak_rss_kib as f64 / 1024.0);
    Ok(report)
}

/// Runs a daemon workload's traced measurement: a fixed-size daemon
/// session and the pipeline's drill over the frames it was sent.
pub fn measure_traced(
    launcher: &Launcher,
    spec: &StreamSpec,
    seed: u64,
    work: &Path,
    corrupt: bool,
    spans: &Path,
) -> Result<Report, String> {
    let session = Session::record(spec, seed, spec.recorded_seconds);
    let stop = Stop::Ticks(spec.traced_ticks);
    let m = run_daemon(launcher, spec, &session, stop, work)?;
    let (daemon, _) = session_report(spec, &m);
    let ref_ckpt = spec.durable.then(|| work.join("reference-ckpt"));
    let reference = match check_reference(spec, &session, &m, corrupt, ref_ckpt.as_deref()) {
        Ok(r) => r,
        Err(e) => {
            return Ok(Report {
                error: Some(e),
                ..daemon
            })
        }
    };
    let frames: Vec<&String> = session.head.iter().chain(&session.body[..m.cut]).collect();
    let ckpt = spec.durable.then(|| work.join("drill-ckpt"));
    let mut report = pipeline::drill(
        &frames,
        ckpt.as_deref(),
        reference.delta_lines,
        reference.replay_s,
        false,
        spans,
    )?;
    report.attempted = daemon.attempted;
    report.failed = daemon.failed;
    let layer = &mut report.metrics;
    layer.insert("persist.checkpoint_bytes", m.checkpoint_bytes as f64);
    layer.insert(
        "server.net.overhead_ms",
        daemon.samples["tick"].p50 - report.samples["drill_tick"].p50,
    );
    layer.insert("server.net.reading_p50_ms", daemon.samples["reading"].p50);
    report.samples.extend(daemon.samples);
    Ok(report)
}
