//! `submit-open`: Poisson submits at a fixed rate on one connection
//! against a test-scale static leader, each timed from its due time.

use crate::checks;
use crate::daemon::Daemon;
use crate::inputs;
use crate::pass::{field, more_setups, spawn_repeatedly, stats, stats_rtt, Ctx, Pass};
use crate::stats::percentile;
use mroam_experiments::params::DEFAULT_LAMBDA;
use mroam_experiments::setup::{build_city, CityKind, Scale};
use mroam_serve::protocol::Request;
use mroam_serve::Client;
use std::io;
use std::thread;
use std::time::{Duration, Instant};

/// Offered load, submits per second.
pub const RATE: f64 = 1000.0;

/// How long the receiver waits for stragglers after the last due time.
const DRAIN: Duration = Duration::from_secs(30);

pub fn run(ctx: &Ctx) -> io::Result<Pass> {
    let tracer = &ctx.tracer;
    let model = build_city(CityKind::Nyc, Scale::Test).coverage(DEFAULT_LAMBDA);
    let served = ctx.bin("mroam-served");
    let args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--scale",
        "test",
        "--static",
        "true",
        "--algo",
        "g-global",
    ]
    .map(String::from)
    .to_vec();
    let (leader, mut setup_s) =
        spawn_repeatedly(ctx.setups.div_ceil(2), || Daemon::spawn(&served, &args, 1))?;

    let due = inputs::open_schedule(ctx.seed, RATE, ctx.seconds);
    let proposals = inputs::proposals(ctx.seed, due.len(), model.supply());
    let requests: Vec<String> = proposals
        .iter()
        .enumerate()
        .map(|(i, &proposal)| {
            Request::Submit {
                id: i as u64,
                proposal,
            }
            .encode()
        })
        .collect();
    let n = requests.len();

    let mut conn = Client::connect(leader.addr)?;
    let mut sender_conn = Client::connect_clone(&conn)?;
    let cpu_before = leader.cpu_seconds();
    let root = tracer.open("loadgen.submit-open");
    let start = Instant::now();
    let sender = {
        let (requests, due) = (requests.clone(), due.clone());
        thread::spawn(move || -> io::Result<Vec<f64>> {
            let mut late_ms = Vec::with_capacity(due.len());
            for (req, at) in requests.iter().zip(&due) {
                let due_at = start + *at;
                if let Some(gap) = due_at.checked_duration_since(Instant::now()) {
                    thread::sleep(gap);
                }
                late_ms.push(Instant::now().duration_since(due_at).as_secs_f64() * 1e3);
                sender_conn.send_raw(req.as_bytes())?;
            }
            Ok(late_ms)
        })
    };
    let mut replies: Vec<(String, Instant)> = Vec::with_capacity(n);
    let give_up = start + due.last().copied().unwrap_or_default() + DRAIN;
    while replies.len() < n && Instant::now() < give_up {
        let Some(text) = conn.recv_raw()? else { break };
        let now = Instant::now();
        if tracer.enabled() {
            if let Some(id) = checks::raw_field(&text, "id").and_then(|s| s.parse::<usize>().ok()) {
                if let Some(at) = due.get(id) {
                    tracer.record("loadgen.submit", start + *at, now, root, id as u64);
                }
            }
        }
        replies.push((text, now));
    }
    tracer.close(root);
    let late_ms = sender
        .join()
        .map_err(|_| io::Error::other("sender thread panicked"))??;
    let end = replies.last().map_or(start, |r| r.1);
    let cpu = leader.cpu_seconds() - cpu_before;

    let (_, s) = stats(leader.addr)?;
    let rtt = stats_rtt(leader.addr, tracer, "serve.stats")?;
    let rss_peak_mb = leader.rss_peak_mb();
    leader.stop();
    setup_s.extend(more_setups(ctx.setups / 2, || {
        Daemon::spawn(&served, &args, 1)
    })?);

    let mut pass = Pass {
        attempted: n as u64,
        setup_s,
        rss_peak_mb,
        ..Pass::default()
    };
    let texts: Vec<String> = replies.iter().map(|r| r.0.clone()).collect();
    let mut wait_ms = Vec::with_capacity(n);
    for (text, at) in &replies {
        let Ok(v) = serde_json::from_str(text) else {
            pass.failed += 1;
            continue;
        };
        if v["type"].as_str() != Some("allocated") {
            pass.failed += 1;
            continue;
        }
        let id = field(&v, &["id"]) as usize;
        if let Some(d) = due.get(id) {
            pass.op_ms
                .push(at.duration_since(start + *d).as_secs_f64() * 1e3);
        }
        wait_ms.push(field(&v, &["wait_micros"]) / 1e3);
    }
    pass.failed += (n - replies.len()) as u64;
    match checks::submits_answered_once(n, &texts, field(&s, &["stats", "submits"])) {
        Ok(day_of) => {
            // Batches are solved in arrival order, so the days the
            // replies name rebuild each served batch.
            let days = day_of.iter().max().map_or(0, |&d| d as usize + 1);
            let mut batches = vec![Vec::new(); days];
            for (id, &d) in day_of.iter().enumerate() {
                batches[d as usize].push(proposals[id]);
            }
            pass.inputs.days = batches;
        }
        Err(e) => pass.problems.push(format!("submit-open: {e}")),
    }
    let elapsed = (end - start).as_secs_f64();
    pass.ops_per_s = pass.op_ms.len() as f64 / elapsed.max(1e-9);
    let ops = pass.op_ms.len().max(1) as f64;
    pass.layer = vec![
        ("serve.stats_rtt_ms", percentile(&rtt, 0.5), "ms"),
        ("serve.cpu_ms_per_op", cpu * 1e3 / ops, "ms"),
    ];
    pass.extras = vec![
        ("loadgen.late_p99_ms", percentile(&late_ms, 0.99), "ms"),
        (
            "core.solve_p50_ms",
            field(&s, &["stats", "solve", "p50"]) / 1e3,
            "ms",
        ),
        (
            "serve.server_latency_p50_ms",
            field(&s, &["stats", "latency", "p50"]) / 1e3,
            "ms",
        ),
        (
            "serve.server_latency_p99_ms",
            field(&s, &["stats", "latency", "p99"]) / 1e3,
            "ms",
        ),
        ("serve.queue_wait_p50_ms", percentile(&wait_ms, 0.5), "ms"),
        (
            "serve.mean_batch",
            field(&s, &["stats", "mean_batch"]),
            "count",
        ),
        ("serve.batches", field(&s, &["stats", "batches"]), "count"),
    ];
    pass.inputs.scale = Some(Scale::Test);
    pass.inputs.head = model.n_trajectories() * 2 / 3;
    pass.inputs.ingest_ids =
        inputs::ingest_order(ctx.seed, pass.inputs.head, model.n_trajectories());
    pass.inputs.ingest_batch = 50;
    pass.inputs.requests = requests;
    pass.inputs.responses = texts;
    pass.inputs.read_sets = inputs::read_sets(ctx.seed, model.n_billboards() as u32, 1000);
    Ok(pass)
}
