//! `day-closed`: one closed-loop client pipelines a seeded day of B
//! proposals plus `run_day`, then waits for all B+1 replies. Only
//! `run_day` closes a batch, so batch composition is the day plan and
//! the served ledger must equal an in-process replay bit for bit.

use crate::checks;
use crate::daemon::Daemon;
use crate::inputs;
use crate::pass::{field, host_config, more_setups, spawn_repeatedly, stats, stats_rtt, Ctx, Pass};
use crate::stats::percentile;
use crate::trace::Tracer;
use mroam_experiments::params::DEFAULT_LAMBDA;
use mroam_experiments::setup::{build_city, CityKind, Scale};
use mroam_influence::CoverageModel;
use mroam_market::host::Host;
use mroam_market::Proposal;
use mroam_serve::protocol::Request;
use mroam_serve::Client;
use std::io;
use std::time::Instant;

/// Proposals per day.
pub const B: usize = 16;

/// Days run at least, so the p90 day has ten samples beyond it.
pub const MIN_DAYS: usize = 100;

pub fn run(ctx: &Ctx) -> io::Result<Pass> {
    let tracer = &ctx.tracer;
    let model = build_city(CityKind::Nyc, Scale::Bench).coverage(DEFAULT_LAMBDA);
    let served = ctx.bin("mroam-served");
    // The window outlasts any run and the size cap exceeds B: only
    // `run_day` closes a batch.
    let args: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--scale",
        "bench",
        "--static",
        "true",
        "--algo",
        "g-global",
        "--fixed-window",
        "true",
        "--max-wait-ms",
        "3600000",
        "--max-batch",
        "64",
    ]
    .map(String::from)
    .to_vec();
    let (leader, setup_s) =
        spawn_repeatedly(ctx.setups.div_ceil(2), || Daemon::spawn(&served, &args, 1))?;
    let plan = inputs::day_plan(ctx.seed, model.supply(), B);

    let mut conn = Client::connect(leader.addr)?;
    let cpu_before = leader.cpu_seconds();
    let mut pass = Pass {
        setup_s,
        ..Pass::default()
    };
    let mut served_days = Vec::new();
    let root = tracer.open("loadgen.day-closed");
    let start = Instant::now();
    while served_days.len() < MIN_DAYS || start.elapsed().as_secs_f64() < ctx.seconds {
        let day = served_days.len() as u64;
        let batch = plan.day_batch(day as u32);
        let base = day * (B as u64 + 1);
        let mut requests: Vec<String> = batch
            .iter()
            .enumerate()
            .map(|(k, &proposal)| {
                Request::Submit {
                    id: base + k as u64,
                    proposal,
                }
                .encode()
            })
            .collect();
        requests.push(
            Request::RunDay {
                id: base + B as u64,
            }
            .encode(),
        );
        let t0 = Instant::now();
        for r in &requests {
            conn.send_raw(r.as_bytes())?;
        }
        let mut closed = None;
        for _ in 0..requests.len() {
            let Some(text) = conn.recv_raw()? else {
                return Err(io::Error::other("leader hung up mid-day"));
            };
            if text.starts_with("{\"type\":\"day_closed\"") {
                closed = Some(text.clone());
            } else if !text.starts_with("{\"type\":\"allocated\"") {
                pass.failed += 1;
            }
            pass.inputs.responses.push(text);
        }
        let t1 = Instant::now();
        tracer.record("loadgen.day", t0, t1, root, day);
        pass.attempted += requests.len() as u64;
        pass.op_ms.push((t1 - t0).as_secs_f64() * 1e3);
        pass.inputs.requests.extend(requests);
        pass.inputs.days.push(batch);
        match closed {
            Some(text) => served_days.push(text),
            None => {
                pass.failed += 1;
                pass.problems
                    .push(format!("day {day}: no day_closed reply"));
                break;
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    tracer.close(root);
    let cpu = leader.cpu_seconds() - cpu_before;
    let (stats_text, s) = stats(leader.addr)?;
    let rtt = stats_rtt(leader.addr, tracer, "serve.stats")?;
    pass.rss_peak_mb = leader.rss_peak_mb();
    drop(conn);
    leader.stop();
    pass.setup_s.extend(more_setups(ctx.setups / 2, || {
        Daemon::spawn(&served, &args, 1)
    })?);

    let (records, regret) = replay_days(&model, &pass.inputs.days, tracer);
    let served_regret = checks::raw_field(&stats_text, "regret").unwrap_or("");
    if let Err(e) = checks::days_match_replay(&served_days, &records, served_regret, regret) {
        pass.problems.push(format!("day-closed: {e}"));
    }
    let days = served_days.len();
    pass.ops_per_s = (B * days) as f64 / elapsed;
    pass.layer = vec![
        ("serve.stats_rtt_ms", percentile(&rtt, 0.5), "ms"),
        (
            "serve.cpu_ms_per_op",
            cpu * 1e3 / (B * days).max(1) as f64,
            "ms",
        ),
    ];
    pass.extras = vec![
        ("regret_total", regret, "count"),
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
        (
            "serve.mean_batch",
            field(&s, &["stats", "mean_batch"]),
            "count",
        ),
    ];
    pass.inputs.replayed_regret = Some(regret);
    pass.inputs.scale = Some(Scale::Bench);
    pass.inputs.head = model.n_trajectories() * 2 / 3;
    pass.inputs.ingest_ids =
        inputs::ingest_order(ctx.seed, pass.inputs.head, model.n_trajectories());
    pass.inputs.ingest_batch = 50;
    pass.inputs.read_sets = inputs::read_sets(ctx.seed, model.n_billboards() as u32, 1000);
    Ok(pass)
}

/// Runs `days` through a fresh in-process `Host` with the daemon's
/// configuration, each `run_day` traced as `market.run_day`. Returns
/// each day's record serialized as the daemon serializes it, and the
/// ledger's total regret.
pub fn replay_days(
    model: &CoverageModel,
    days: &[Vec<Proposal>],
    tracer: &Tracer,
) -> (Vec<String>, f64) {
    let root = tracer.open("market.replay");
    let mut host = Host::new(model, host_config());
    let records = days
        .iter()
        .enumerate()
        .map(|(d, batch)| {
            let start = Instant::now();
            let outcome = host.run_day(batch);
            tracer.record("market.run_day", start, Instant::now(), root, d as u64);
            serde_json::to_string(&outcome.record).expect("stub never fails")
        })
        .collect();
    tracer.close(root);
    (records, host.ledger().total_regret())
}
