//! The daemons under test, run as child processes on loopback, plus
//! what `/proc` says about them and about the host.

use mroam_serve::protocol::Request;
use mroam_serve::Client;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Pids of every live child, so the watchdog can stop them all.
static CHILDREN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// How long a daemon may take to print its address.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// Linux reports process CPU times in clock ticks of 1/100 s.
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// A running daemon.
pub struct Daemon {
    child: Child,
    /// The command address (first stdout line).
    pub addr: SocketAddr,
    /// Further stdout lines the daemon printed at start (the leader's
    /// `replica <addr>` line).
    pub lines: Vec<String>,
}

impl Daemon {
    /// Starts `bin` with `args` and waits until it has printed
    /// `n_lines` lines on stdout, the first being its bound address.
    pub fn spawn(bin: &Path, args: &[String], n_lines: usize) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        CHILDREN.lock().expect("child registry").push(child.id());
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // The reader stops after `n_lines` lines or at end of stream,
        // which killing the child forces.
        let reader = thread::spawn(move || {
            for line in BufReader::new(stdout).lines().take(n_lines) {
                let Ok(line) = line else { return };
                if tx.send(line).is_err() {
                    return;
                }
            }
        });
        let deadline = Instant::now() + READY_TIMEOUT;
        let lines: Vec<String> = (0..n_lines)
            .map_while(|_| {
                rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    .ok()
            })
            .collect();
        // From here on, dropping the daemon stops the child.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            lines,
        };
        if daemon.lines.len() < n_lines {
            drop(daemon);
            let _ = reader.join();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{} did not come up", bin.display()),
            ));
        }
        reader
            .join()
            .map_err(|_| io::Error::other("stdout reader panicked"))?;
        daemon.addr =
            daemon.lines.remove(0).trim().parse().map_err(|_| {
                io::Error::new(io::ErrorKind::InvalidData, "daemon printed no address")
            })?;
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn rss_peak_mb(&self) -> f64 {
        status_kb(self.pid(), "VmHWM:") / 1024.0
    }

    /// User plus system CPU time consumed so far, in seconds.
    pub fn cpu_seconds(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let after = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
        let fields: Vec<&str> = after.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (ticks(11) + ticks(12)) / CLOCK_TICKS_PER_S
    }

    /// Asks the daemon to shut down and waits for it to exit; kills it
    /// if it does not within ten seconds.
    pub fn stop(mut self) {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.send(&Request::Shutdown { id: u64::MAX >> 12 });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                forget(self.child.id());
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Drop kills and reaps.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        forget(self.child.id());
    }
}

fn forget(pid: u32) {
    CHILDREN
        .lock()
        .expect("child registry")
        .retain(|&p| p != pid);
}

/// Kills every child still running (the watchdog's last act).
pub fn kill_all() {
    for pid in CHILDREN.lock().expect("child registry").drain(..) {
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
    }
}

fn status_kb(pid: u32, key: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// CPU time the hypervisor took from this host's processors so far
/// (`steal` in `/proc/stat`), in seconds. A run during which it grew
/// shared its cores with something outside the container.
pub fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|t| t.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / CLOCK_TICKS_PER_S)
}

/// Where the daemons were built: next to this harness binary, since
/// both builds share one cargo target directory.
pub fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_default()
}

/// Host and build facts recorded with every run.
pub fn provenance(seed: u64) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"git_rev\":{},\"seed\":{seed}}}",
        quote(&cpu),
        quote(&git_rev())
    )
}

/// The commit checked out, read from `.git` (the benchmark also runs
/// from plain source trees, which have none).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    serde_json::to_string(s).expect("stub never fails")
}
