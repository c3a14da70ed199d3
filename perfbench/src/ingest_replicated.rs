//! `ingest-replicated`: a streaming leader with a WAL and one follower.
//! One thread ingests the rest of the city in seeded batches, closed
//! loop on the leader, each timed from send to `ingested`; the other
//! polls the follower on a jittered pace, timing when each epoch becomes
//! visible there, with seeded coverage reads between the polls. No
//! solve runs.

use crate::checks;
use crate::daemon::Daemon;
use crate::inputs;
use crate::pass::{call, field, stats, stats_rtt, Ctx, Pass};
use crate::stats::percentile;
use mroam_experiments::params::DEFAULT_LAMBDA;
use mroam_experiments::setup::{build_city, CityKind, Scale};
use mroam_serve::protocol::Request;
use mroam_serve::Client;
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

/// Trajectories in the leader's initial build; the rest are ingested.
pub const HEAD: usize = 10_000;
/// Trajectories per ingest request.
pub const BATCH: usize = 50;
/// Ingest requests per round: the rest of the bench-scale city.
pub const BATCHES: usize = 5_000 / BATCH;
/// Rounds run at least, so the tail has enough samples.
pub const MIN_ROUNDS: usize = 2;
/// The follower is touched once per tick, at a seeded random point in
/// it, so the polls never phase-lock to the ingest loop: polls and
/// reads alternate.
const TICK: Duration = Duration::from_micros(500);
/// Sets compared between leader, follower and the offline build.
const PROBES: usize = 12;
/// How long the follower may take to converge after the last ingest.
const CONVERGE: Duration = Duration::from_secs(30);

/// One leader + follower pair, up and serving.
struct Pair {
    leader: Daemon,
    follower: Daemon,
}

impl Pair {
    fn stop(self) {
        self.follower.stop();
        self.leader.stop();
    }
}

fn start_pair(ctx: &Ctx, wal: &Path) -> io::Result<Pair> {
    let _ = std::fs::remove_dir_all(wal);
    let leader_args: Vec<String> = vec![
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--scale".into(),
        "bench".into(),
        "--head-trajectories".into(),
        HEAD.to_string(),
        "--wal-dir".into(),
        wal.display().to_string(),
        "--replica-addr".into(),
        "127.0.0.1:0".into(),
    ];
    let leader = Daemon::spawn(&ctx.bin("mroam-served"), &leader_args, 2)?;
    let feed = leader
        .lines
        .first()
        .and_then(|l| l.strip_prefix("replica "))
        .ok_or_else(|| io::Error::other("leader printed no replica address"))?
        .to_string();
    let follower_args: Vec<String> = vec![
        "--leader".into(),
        feed,
        "--leader-cmd".into(),
        leader.addr.to_string(),
        "--addr".into(),
        "127.0.0.1:0".into(),
    ];
    let follower = Daemon::spawn(&ctx.bin("mroam-follower"), &follower_args, 1)?;
    // Serving means the follower answers `epoch_stats` from a world.
    let mut c = Client::connect(follower.addr)?;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let text = call(&mut c, &Request::EpochStats { id: 0 })?;
        if text.starts_with("{\"type\":\"epoch_stats\"") {
            break;
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("follower never served epoch_stats"));
        }
        thread::sleep(Duration::from_millis(1));
    }
    Ok(Pair { leader, follower })
}

/// One ingest: sent, reply received, epoch (None when refused).
type Ingest = (Instant, Instant, Option<u64>);

/// What one round (a fresh pair ingesting every batch) observed.
struct Round {
    ingests: Vec<Ingest>,
    /// Follower polls: reply received, epoch seen.
    polls: Vec<(Instant, u64)>,
    read_ms: Vec<f64>,
    reads_failed: u64,
    responses: Vec<String>,
    elapsed: f64,
}

pub fn run(ctx: &Ctx) -> io::Result<Pass> {
    let tracer = &ctx.tracer;
    let city = build_city(CityKind::Nyc, Scale::Bench);
    let full = city.coverage(DEFAULT_LAMBDA);
    let n_billboards = full.n_billboards() as u32;
    let order = inputs::ingest_order(ctx.seed, HEAD, city.trajectories.len());
    let requests: Vec<String> = order
        .chunks(BATCH)
        .enumerate()
        .map(|(k, ids)| {
            Request::Ingest {
                id: k as u64,
                batch: inputs::ingest_batch(&city.trajectories, ids),
            }
            .encode()
        })
        .collect();
    let reads = inputs::read_sets(ctx.seed, n_billboards, 4096);
    let probes = &reads[..PROBES];

    let mut pass = Pass::default();
    let (mut visible_ms, mut read_ms) = (Vec::new(), Vec::new());
    let wal_of = |round: usize| ctx.tmp.join(format!("wal-{round}"));
    let mut round = 0;
    let start = Instant::now();
    // Each round is a fresh pair; rounds repeat until the run's time is
    // spent, and set-ups are topped up to the configured count.
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < ctx.seconds {
        let wal = wal_of(round);
        let t0 = Instant::now();
        let pair = start_pair(ctx, &wal)?;
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        let cpu_before = (pair.leader.cpu_seconds(), pair.follower.cpu_seconds());
        let r = drive(&pair, &requests, &reads, ctx, round)?;
        let cpu = (
            pair.leader.cpu_seconds() - cpu_before.0,
            pair.follower.cpu_seconds() - cpu_before.1,
        );
        converge(&pair)?;
        let probe = |addr: SocketAddr| -> io::Result<Vec<String>> {
            let mut c = Client::connect(addr)?;
            probes
                .iter()
                .map(|set| {
                    call(
                        &mut c,
                        &Request::QueryCoverage {
                            id: 7,
                            billboards: set.clone(),
                        },
                    )
                })
                .collect()
        };
        let (l, f) = (probe(pair.leader.addr)?, probe(pair.follower.addr)?);
        let offline: Vec<u64> = probes.iter().map(|s| set_influence(&full, s)).collect();
        if let Err(e) = checks::replicas_agree(&l, &f, &offline) {
            pass.problems
                .push(format!("ingest-replicated round {round}: {e}"));
        }
        let (_, ls) = stats(pair.leader.addr)?;
        let (_, fs) = stats(pair.follower.addr)?;
        let leader_rtt = stats_rtt(pair.leader.addr, tracer, "serve.stats")?;
        let follower_rtt = stats_rtt(pair.follower.addr, tracer, "replica.stats")?;
        pass.rss_peak_mb = pass.rss_peak_mb.max(pair.leader.rss_peak_mb());
        let follower_rss = pair.follower.rss_peak_mb();
        pair.stop();

        // Visibility: the first follower poll at or after the send
        // that shows the ingest's epoch.
        for &(sent, replied, epoch) in &r.ingests {
            pass.attempted += 1;
            let Some(epoch) = epoch else {
                pass.failed += 1;
                continue;
            };
            pass.op_ms.push((replied - sent).as_secs_f64() * 1e3);
            match r.polls.iter().find(|&&(at, e)| at >= sent && e >= epoch) {
                Some(&(at, _)) => visible_ms.push((at - sent).as_secs_f64() * 1e3),
                None => {
                    pass.failed += 1;
                    pass.problems
                        .push(format!("epoch {epoch} never visible on the follower"));
                }
            }
        }
        pass.attempted += r.read_ms.len() as u64 + r.reads_failed;
        pass.failed += r.reads_failed;
        read_ms.extend(&r.read_ms);
        let records = field(&ls, &["stats", "wal_records"]).max(1.0);
        let n = r.ingests.len().max(1) as f64;
        pass.ops_per_s += r.ingests.len() as f64 / r.elapsed;
        pass.layer = vec![
            ("serve.stats_rtt_ms", percentile(&leader_rtt, 0.5), "ms"),
            ("serve.cpu_ms_per_op", cpu.0 * 1e3 / n, "ms"),
        ];
        pass.extras = vec![
            (
                "wal.fsyncs_per_record",
                field(&ls, &["stats", "wal_fsyncs"]) / records,
                "count",
            ),
            ("replica.stats_rtt_ms", percentile(&follower_rtt, 0.5), "ms"),
            (
                "replica.shipped_bytes_per_record",
                field(&ls, &["stats", "repl_shipped_bytes"]) / records,
                "bytes",
            ),
            ("replica.cpu_ms_per_op", cpu.1 * 1e3 / n, "ms"),
            ("replica.rss_peak_mb", follower_rss, "MB"),
            (
                "replica.applied_seq",
                field(&fs, &["stats", "repl_applied_seq"]),
                "count",
            ),
        ];
        pass.inputs.responses = r.responses;
        round += 1;
    }
    let full_rounds = round;
    pass.ops_per_s /= full_rounds as f64;
    pass.extras.extend([
        (
            "follower_visible_p50_ms",
            percentile(&visible_ms, 0.5),
            "ms",
        ),
        (
            "follower_visible_p90_ms",
            percentile(&visible_ms, 0.9),
            "ms",
        ),
        ("read_p50_ms", percentile(&read_ms, 0.5), "ms"),
        ("read_p99_ms", percentile(&read_ms, 0.99), "ms"),
    ]);
    while pass.setup_s.len() < ctx.setups {
        let t0 = Instant::now();
        let pair = start_pair(ctx, &wal_of(round))?;
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        pair.stop();
        let _ = std::fs::remove_dir_all(wal_of(round));
        round += 1;
    }
    // The last full round's log feeds the traced WAL and replica replays.
    pass.inputs.wal_dir = Some(wal_of(full_rounds - 1));
    pass.inputs.scale = Some(Scale::Bench);
    pass.inputs.head = HEAD;
    pass.inputs.ingest_ids = order;
    pass.inputs.ingest_batch = BATCH;
    pass.inputs.requests = requests;
    pass.inputs.read_sets = reads;
    Ok(pass)
}

fn set_influence(model: &mroam_influence::CoverageModel, set: &[u32]) -> u64 {
    model.set_influence(set.iter().map(|&b| mroam_data::BillboardId(b)))
}

/// Paced `epoch_stats` polls on the follower: one tick per call.
struct Poller<'a> {
    tracer: &'a crate::trace::Tracer,
    root: usize,
    start: Instant,
    tick: u64,
    jitter: rand_chacha::ChaCha8Rng,
    /// Reply received, epoch seen.
    polls: Vec<(Instant, u64)>,
}

impl Poller<'_> {
    /// Sleeps until the current tick is due, then claims it.
    fn wait_tick(&mut self) -> u64 {
        let offset: f64 = rand::Rng::gen_range(&mut self.jitter, 0.0..1.0);
        let due = self.start + TICK.mul_f64(self.tick as f64 + offset);
        if let Some(gap) = due.checked_duration_since(Instant::now()) {
            thread::sleep(gap);
        }
        self.tick += 1;
        self.tick - 1
    }

    fn poll(&mut self, c: &mut Client) -> io::Result<()> {
        let id = self.wait_tick();
        let sent = Instant::now();
        let text = call(c, &Request::EpochStats { id })?;
        let at = Instant::now();
        self.tracer
            .record("replica.epoch_stats", sent, at, self.root, id);
        if let Some(e) = checks::raw_field(&text, "epoch").and_then(|e| e.parse().ok()) {
            self.polls.push((at, e));
        }
        Ok(())
    }
}

/// Runs one round's load: the ingest thread and the follower poller.
fn drive(
    pair: &Pair,
    requests: &[String],
    reads: &[Vec<u32>],
    ctx: &Ctx,
    round: usize,
) -> io::Result<Round> {
    let tracer = ctx.tracer.clone();
    let root = tracer.open("loadgen.ingest-replicated");
    let start = Instant::now();
    let writer = {
        let (requests, tracer) = (requests.to_vec(), tracer.clone());
        let mut c = Client::connect(pair.leader.addr)?;
        thread::spawn(move || -> io::Result<(Vec<Ingest>, Vec<String>)> {
            let mut ingests = Vec::with_capacity(requests.len());
            let mut responses = Vec::with_capacity(requests.len());
            for (k, req) in requests.iter().enumerate() {
                let sent = Instant::now();
                c.send_raw(req.as_bytes())?;
                let text = c
                    .recv_raw()?
                    .ok_or_else(|| io::Error::other("leader hung up mid-ingest"))?;
                let replied = Instant::now();
                tracer.record("loadgen.ingest", sent, replied, root, k as u64);
                let epoch = text
                    .starts_with("{\"type\":\"ingested\"")
                    .then(|| checks::raw_field(&text, "epoch").and_then(|e| e.parse().ok()))
                    .flatten();
                ingests.push((sent, replied, epoch));
                responses.push(text);
            }
            Ok((ingests, responses))
        })
    };
    let mut c = Client::connect(pair.follower.addr)?;
    let mut follower = Poller {
        tracer: &tracer,
        root,
        start,
        tick: 0,
        jitter: inputs::jitter(ctx.seed ^ round as u64),
        polls: Vec::new(),
    };
    let mut read_ms = Vec::new();
    let mut reads_failed = 0;
    while !writer.is_finished() {
        if follower.tick.is_multiple_of(2) {
            follower.poll(&mut c)?;
            continue;
        }
        let set = &reads[(follower.tick as usize / 2 + round * 7) % reads.len()];
        let id = follower.wait_tick();
        let sent = Instant::now();
        let text = call(
            &mut c,
            &Request::QueryCoverage {
                id,
                billboards: set.clone(),
            },
        )?;
        let at = Instant::now();
        tracer.record("replica.query_coverage", sent, at, root, id);
        if text.starts_with("{\"type\":\"coverage\"") {
            read_ms.push((at - sent).as_secs_f64() * 1e3);
        } else {
            reads_failed += 1;
        }
    }
    let (ingests, responses) = writer
        .join()
        .map_err(|_| io::Error::other("ingest thread panicked"))??;
    let elapsed = start.elapsed().as_secs_f64();
    // Keep polling until the follower shows the last ingested epoch.
    let final_epoch = ingests.iter().filter_map(|i| i.2).max().unwrap_or(0);
    let deadline = Instant::now() + CONVERGE;
    while follower.polls.last().is_none_or(|p| p.1 < final_epoch) && Instant::now() < deadline {
        follower.tick += follower.tick % 2;
        follower.poll(&mut c)?;
    }
    let polls = follower.polls;
    tracer.close(root);
    Ok(Round {
        ingests,
        polls,
        read_ms,
        reads_failed,
        responses,
        elapsed,
    })
}

/// Waits until the follower has applied the leader's whole log.
fn converge(pair: &Pair) -> io::Result<()> {
    let deadline = Instant::now() + CONVERGE;
    loop {
        let (_, l) = stats(pair.leader.addr)?;
        let head = field(&l, &["stats", "wal_next_seq"]) - 1.0;
        let (_, f) = stats(pair.follower.addr)?;
        if field(&f, &["stats", "repl_applied_seq"]) >= head {
            let (_, again) = stats(pair.leader.addr)?;
            if field(&again, &["stats", "wal_next_seq"]) - 1.0 == head {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("follower never reached the leader's head"));
        }
        thread::sleep(Duration::from_millis(2));
    }
}
