//! What every workload shares: the run context, one pass's results,
//! and the helpers that talk to a leader.

use crate::daemon::Daemon;
use crate::trace::Tracer;
use mroam_core::solver::SolverSpec;
use mroam_experiments::setup::Scale;
use mroam_market::host::HostConfig;
use mroam_market::Proposal;
use mroam_serve::protocol::Request;
use mroam_serve::Client;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Instant;

/// Closed-loop `stats` calls made on each leader after its load.
const STATS_PROBES: usize = 12;

/// One run's fixed settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Where `mroam-served` and `mroam-follower` were built.
    pub bins: PathBuf,
    /// Scratch space inside the checkout, removed when the run ends.
    pub tmp: PathBuf,
    /// Times the daemon set-up is repeated (the median is reported).
    pub setups: usize,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }
}

/// A reading: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The results of one pass of a workload.
#[derive(Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds from each daemon spawn to serving.
    pub setup_s: Vec<f64>,
    pub rss_peak_mb: f64,
    /// Latency samples of the workload's end-to-end operation.
    pub op_ms: Vec<f64>,
    /// Completed operations per second.
    pub ops_per_s: f64,
    /// Failed output checks.
    pub problems: Vec<String>,
    /// Layer readings taken from the daemons during the pass.
    pub layer: Vec<Metric>,
    /// Readings only this workload has (kept in the run's record file).
    pub extras: Vec<Metric>,
    pub inputs: LayerInputs,
}

/// The run's own inputs, handed to the traced layer replays.
#[derive(Default)]
pub struct LayerInputs {
    pub scale: Option<Scale>,
    /// Trajectories in the served base model; the rest stream in.
    pub head: usize,
    /// Trajectory ids ingested, in order.
    pub ingest_ids: Vec<usize>,
    /// Trajectories per ingest batch.
    pub ingest_batch: usize,
    /// Each served day's proposals.
    pub days: Vec<Vec<Proposal>>,
    /// `Host::run_day` regret of those days, when the pass already
    /// replayed them (day-closed's output check).
    pub replayed_regret: Option<f64>,
    pub requests: Vec<String>,
    pub responses: Vec<String>,
    pub read_sets: Vec<Vec<u32>>,
    /// The leader's log directory, when it kept one.
    pub wal_dir: Option<PathBuf>,
}

/// The solver configuration `mroam-served` runs by default.
pub fn host_config() -> HostConfig {
    HostConfig {
        gamma: 0.5,
        solver: SolverSpec::by_name("g-global")
            .expect("registered")
            .with_seed(42)
            .with_restarts(5)
            .with_improvement_ratio(0.0),
        shards: None,
    }
}

/// Spawns a daemon `times` times, stopping each before the next, and
/// keeps the last; returns it and each spawn-to-serving time.
pub fn spawn_repeatedly(
    times: usize,
    mut spawn: impl FnMut() -> io::Result<Daemon>,
) -> io::Result<(Daemon, Vec<f64>)> {
    let mut setup = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        if let Some(d) = last.take() {
            Daemon::stop(d);
        }
        let start = Instant::now();
        let d = spawn()?;
        setup.push(start.elapsed().as_secs_f64());
        last = Some(d);
    }
    Ok((last.expect("spawned at least once"), setup))
}

/// Set-up times of `times` more spawns, each stopped again. Workloads
/// take half their set-ups before the load and half after it, so a run's
/// median samples the host at both ends of the run.
pub fn more_setups(
    times: usize,
    spawn: impl FnMut() -> io::Result<Daemon>,
) -> io::Result<Vec<f64>> {
    if times == 0 {
        return Ok(Vec::new());
    }
    let (last, setup) = spawn_repeatedly(times, spawn)?;
    last.stop();
    Ok(setup)
}

/// One closed-loop call returning the raw reply.
pub fn call(c: &mut Client, req: &Request) -> io::Result<String> {
    c.send(req)?;
    c.recv_raw()?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon hung up"))
}

/// The daemon's `stats` reply, raw and parsed.
pub fn stats(addr: SocketAddr) -> io::Result<(String, serde_json::Value)> {
    let mut c = Client::connect(addr)?;
    let text = call(&mut c, &Request::Stats { id: 1 })?;
    let v = serde_json::from_str(&text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((text, v))
}

/// Round trips (ms) of closed-loop `stats` calls: the serving path with
/// almost no work behind it. Traced as `name` spans.
pub fn stats_rtt(addr: SocketAddr, tracer: &Tracer, name: &'static str) -> io::Result<Vec<f64>> {
    let mut c = Client::connect(addr)?;
    let mut rtt = Vec::with_capacity(STATS_PROBES);
    for i in 0..STATS_PROBES {
        let start = Instant::now();
        call(&mut c, &Request::Stats { id: i as u64 })?;
        let end = Instant::now();
        tracer.record(name, start, end, 0, i as u64);
        rtt.push((end - start).as_secs_f64() * 1e3);
    }
    Ok(rtt)
}

/// A numeric field of a parsed reply (0 when absent).
pub fn field(v: &serde_json::Value, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = &cur[*key];
    }
    cur.as_f64().unwrap_or(0.0)
}
