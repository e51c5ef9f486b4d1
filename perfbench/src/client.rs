//! The daemon under test and the closed-loop client that drives it.
//!
//! One client, one Unix-domain connection, one frame in flight: the
//! client writes a frame, then reads until that frame's terminal line
//! (`ok`, `busy`, `error`, or a metrics / dead-letter listing) before it
//! writes the next.

use ripq::floorplan::{office_building, OfficeParams};
use ripq::server::{encode_frame, Endpoint, FrameDecoder, Server, ServerConfig, ServerCore};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How a request's terminal line answered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// `{"ok":...}`, a metrics snapshot or a dead-letter listing.
    Ok,
    /// `{"busy":...}`: shed by admission control.
    Busy,
    /// `{"error":...}`.
    Error,
    /// The server closed the connection before a terminal line.
    Unanswered,
}

/// The reply a line concludes a request with, or `None` for lines that
/// precede the terminal one (deltas, events).
pub fn terminal_reply(line: &str) -> Option<Reply> {
    // A metrics snapshot is pretty-printed: `{` then a newline.
    let first_key = line.strip_prefix('{').map(str::trim_start).unwrap_or("");
    if line.starts_with("{\"ok\":")
        || first_key.starts_with("\"counters\"")
        || first_key.starts_with("\"dead_letters\"")
    {
        Some(Reply::Ok)
    } else if line.starts_with("{\"busy\":") {
        Some(Reply::Busy)
    } else if line.starts_with("{\"error\":") {
        Some(Reply::Error)
    } else {
        None
    }
}

/// Where the daemon comes from.
#[derive(Debug, Clone)]
pub enum Launcher {
    /// Spawn the release `ripq-server serve --uds` binary.
    Binary(PathBuf),
    /// Serve from a thread of this process (same engine and transport
    /// code as the binary); used by the benchmark's own smoke tests.
    InProcess,
}

enum Kind {
    Process(Child),
    Thread(std::thread::JoinHandle<Result<(), String>>),
}

/// A running daemon. Dropping it kills and reaps a daemon process that
/// is still running.
pub struct Daemon {
    kind: Option<Kind>,
}

/// The daemon configuration the benchmark's flags select.
pub fn server_config(checkpointing: bool) -> ServerConfig {
    ServerConfig {
        checkpoint_every_ticks: u64::from(checkpointing),
        ..ServerConfig::default()
    }
}

impl Daemon {
    /// Starts a daemon on `socket` (with per-tick checkpoints into
    /// `checkpoint_dir` when given) and connects to it. Returns the
    /// daemon, the connected client, and the time from spawn to the
    /// accepted connection.
    pub fn start(
        launcher: &Launcher,
        socket: &Path,
        checkpoint_dir: Option<&Path>,
    ) -> Result<(Daemon, Client, Duration), String> {
        let t0 = Instant::now();
        let daemon = match launcher {
            Launcher::Binary(bin) => {
                let mut cmd = Command::new(bin);
                cmd.arg("serve").arg("--uds").arg(socket);
                if let Some(dir) = checkpoint_dir {
                    cmd.arg("--checkpoint-dir")
                        .arg(dir)
                        .arg("--checkpoint-every-ticks")
                        .arg("1");
                }
                let mut child = cmd
                    .stdin(Stdio::null())
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
                let stdout = child.stdout.take();
                let daemon = Daemon {
                    kind: Some(Kind::Process(child)),
                };
                // The daemon prints one `listening` line once bound.
                let mut line = String::new();
                if let Some(out) = stdout {
                    let _ = BufReader::new(out).read_line(&mut line);
                }
                if !line.starts_with("listening") {
                    return Err(format!("daemon did not start: {line:?}"));
                }
                daemon
            }
            Launcher::InProcess => {
                let (tx, rx) = std::sync::mpsc::channel();
                let socket = socket.to_path_buf();
                let dir = checkpoint_dir.map(Path::to_path_buf);
                let handle = std::thread::spawn(move || -> Result<(), String> {
                    let plan =
                        office_building(&OfficeParams::default()).map_err(|e| e.to_string())?;
                    let mut core = ServerCore::new(plan, server_config(dir.is_some()));
                    if let Some(dir) = dir {
                        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                        core.set_checkpoint_dir(dir);
                    }
                    let bound = Server::bind(&Endpoint::Uds(socket));
                    let _ = tx.send(bound.is_ok());
                    bound
                        .and_then(|server| server.serve(&mut core))
                        .map_err(|e| e.to_string())
                });
                let daemon = Daemon {
                    kind: Some(Kind::Thread(handle)),
                };
                if rx.recv() != Ok(true) {
                    return Err("in-process server did not bind".to_string());
                }
                daemon
            }
        };
        let client = Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
        Ok((daemon, client, t0.elapsed()))
    }

    /// Peak resident set size (`VmHWM`) of the daemon, in KiB.
    pub fn peak_rss_kib(&self) -> Option<u64> {
        let status = match &self.kind {
            Some(Kind::Process(child)) => format!("/proc/{}/status", child.id()),
            _ => "/proc/self/status".to_string(),
        };
        vm_hwm_kib(&std::fs::read_to_string(status).ok()?)
    }

    /// Waits for the daemon to exit after its `shutdown` ack; kills it if
    /// it has not exited within `timeout`.
    pub fn wait(mut self, timeout: Duration) -> Result<(), String> {
        match self.kind.take() {
            Some(Kind::Process(mut child)) => {
                let until = Instant::now() + timeout;
                loop {
                    match child.try_wait().map_err(|e| e.to_string())? {
                        Some(status) if status.success() => return Ok(()),
                        Some(status) => return Err(format!("daemon exited with {status}")),
                        None if Instant::now() >= until => {
                            let _ = child.kill();
                            let _ = child.wait();
                            return Err("daemon did not exit after shutdown".to_string());
                        }
                        None => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            }
            Some(Kind::Thread(handle)) => handle
                .join()
                .map_err(|_| "in-process server panicked".to_string())?,
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(Kind::Process(child)) = &mut self.kind {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` text, in KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// A request/reply client over one Unix-domain connection.
pub struct Client {
    stream: UnixStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to the daemon at `socket`.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        Ok(Client {
            stream: UnixStream::connect(socket)?,
            decoder: FrameDecoder::new(),
            buf: vec![0; 1 << 16],
        })
    }

    /// Sends one frame and reads its response, appending every line to
    /// `lines`. Returns how the terminal line answered it.
    pub fn request(&mut self, payload: &[u8], lines: &mut Vec<String>) -> std::io::Result<Reply> {
        self.stream.write_all(&encode_frame(payload))?;
        loop {
            while let Some(frame) = self.decoder.next_frame() {
                let bytes = frame.map_err(|e| std::io::Error::other(e.to_string()))?;
                let line = String::from_utf8_lossy(&bytes).into_owned();
                let reply = terminal_reply(&line);
                lines.push(line);
                if let Some(reply) = reply {
                    return Ok(reply);
                }
            }
            let n = self.stream.read(&mut self.buf)?;
            if n == 0 {
                return Ok(Reply::Unanswered);
            }
            self.decoder.push(&self.buf[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_lines_end_a_request() {
        assert_eq!(
            terminal_reply("{\"ok\":\"tick\",\"second\":3,\"deltas\":1,\"events\":0}"),
            Some(Reply::Ok)
        );
        assert_eq!(
            terminal_reply("{\"busy\":\"reading\",\"second\":4,\"retry_after_ticks\":1}"),
            Some(Reply::Busy)
        );
        assert_eq!(
            terminal_reply("{\"error\":\"unknown subscription 9\"}"),
            Some(Reply::Error)
        );
        assert_eq!(terminal_reply("{\"counters\":{}}"), Some(Reply::Ok));
        assert_eq!(
            terminal_reply("{\n  \"counters\": {\"a\": 1},\n  \"gauges\": {}\n}"),
            Some(Reply::Ok)
        );
        assert_eq!(
            terminal_reply("{\"dead_letters\":0,\"letters\":[]}"),
            Some(Reply::Ok)
        );
        // Deltas and events precede their tick's ack.
        assert_eq!(
            terminal_reply("{\"delta\":{\"sub\":1,\"second\":3,\"appeared\":[]}}"),
            None
        );
        assert_eq!(terminal_reply("{\"event\":\"geofence_entered\"}"), None);
    }

    #[test]
    fn vm_hwm_parses_kib() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(12345));
        assert_eq!(vm_hwm_kib("Name:\tx\n"), None);
    }
}
