//! `perfbench` — the served-operation benchmark.
//!
//! ```text
//! perfbench --workload submit-open|day-closed|ingest-replicated
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the shipped `mroam-served` (and, for `ingest-replicated`,
//! `mroam-follower`) as child processes on loopback, drives them from
//! this process, checks every output, and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run makes an
//! untraced and a traced pass, replays each layer's public calls on the
//! traced pass's own inputs, and reports the per-layer metrics plus the
//! tracing overhead. Each run also writes a record (provenance, counts,
//! every reading and, when traced, every span) under `perfbench/out/`.
//! See `perfbench/NOTES.md`.

mod checks;
mod daemon;
mod day_closed;
mod ingest_replicated;
mod inputs;
mod layers;
mod pass;
mod stats;
mod submit_open;
mod trace;

use pass::{Ctx, Metric, Pass};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::process::exit;
use std::thread;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Set-ups in each pass of a traced run (kept small: the traced run
/// makes two passes and the layer replays within the same time limit).
const TRACED_SETUPS: usize = 3;
/// The whole run is abandoned (daemons killed) past this.
const WATCHDOG: Duration = Duration::from_secs(170);

const WORKLOADS: [&str; 3] = ["submit-open", "day-closed", "ingest-replicated"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or(format!("expected --key, got {k:?}"))?;
        let value = it.next().ok_or(format!("missing value for --{key}"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("--{k} is required"));
    let workload = get("workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}: expected {}",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: get("seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("bad --trace {t:?}: expected 0|1")),
        },
    })
}

fn run_pass(workload: &str, ctx: &Ctx) -> io::Result<Pass> {
    match workload {
        "submit-open" => submit_open::run(ctx),
        "day-closed" => day_closed::run(ctx),
        _ => ingest_replicated::run(ctx),
    }
}

/// Operation latencies a pass of `workload` always yields (a run that
/// yields fewer is rejected); they fix the tail percentile it reports.
fn min_samples(workload: &str) -> usize {
    match workload {
        "submit-open" => submit_open::RATE as usize,
        "day-closed" => day_closed::MIN_DAYS,
        _ => ingest_replicated::BATCHES * ingest_replicated::MIN_ROUNDS,
    }
}

/// The end-to-end metrics of one pass.
fn end_to_end(p: &Pass, workload: &str) -> Vec<Metric> {
    let window = min_samples(workload);
    let tail = stats::supported_tail(window).expect("enough samples for a tail");
    vec![
        ("setup_s", stats::median(&p.setup_s), "s"),
        ("rss_peak_mb", p.rss_peak_mb, "MB"),
        ("p50_ms", stats::median(&p.op_ms), "ms"),
        (
            "tail_ms",
            stats::windowed_tail(&p.op_ms, window, tail),
            "ms",
        ),
        ("ops_per_s", p.ops_per_s, "1/s"),
    ]
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    thread::spawn(|| {
        thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; stopping the daemons");
        daemon::kill_all();
        exit(3);
    });
    let out = PathBuf::from("perfbench/out");
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    let result = std::fs::create_dir_all(&tmp).and_then(|_| bench(&args, &out, &tmp));
    let _ = std::fs::remove_dir_all(&tmp);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

/// Runs the benchmark and returns its result line.
fn bench(args: &Args, out: &std::path::Path, tmp: &std::path::Path) -> io::Result<String> {
    let bins = daemon::bin_dir();
    for bin in ["mroam-served", "mroam-follower"] {
        if !bins.join(bin).is_file() {
            return Err(io::Error::other(format!(
                "{bin} is not built next to the harness"
            )));
        }
    }
    let started = Instant::now();
    let steal_before = daemon::host_steal_s();
    let ctx = |tracer: Tracer, setups: usize| Ctx {
        seed: args.seed,
        seconds: args.seconds,
        bins: bins.clone(),
        tmp: tmp.to_path_buf(),
        setups,
        tracer,
    };
    let setups = if args.trace { TRACED_SETUPS } else { SETUPS };
    let untraced = run_pass(&args.workload, &ctx(Tracer::new(false, started), setups))?;
    let e2e = end_to_end(&untraced, &args.workload);
    let traced_ctx = ctx(Tracer::new(true, started), TRACED_SETUPS);
    let traced = if args.trace {
        Some(run_pass(&args.workload, &traced_ctx)?)
    } else {
        None
    };
    let owned = |ms: &[Metric]| -> Vec<(String, f64, &'static str)> {
        ms.iter().map(|&(n, v, u)| (n.to_string(), v, u)).collect()
    };
    let metrics = match &traced {
        None => owned(&e2e),
        Some(traced) => {
            let mut layer = layers::replay(&traced.inputs, args.seed, &traced_ctx.tracer, tmp)?;
            layer.extend(traced.layer.iter().copied());
            let mut metrics = owned(&layer);
            // Positive overhead is always the traced pass doing worse.
            // Peak memory is not a timing, so it has none.
            let timings = |m: &&Metric| m.0 != "rss_peak_mb";
            let with_trace = end_to_end(traced, &args.workload);
            for (&(name, base, _), &(_, with, _)) in e2e
                .iter()
                .filter(timings)
                .zip(with_trace.iter().filter(timings))
            {
                let worse = if name == "ops_per_s" {
                    base - with
                } else {
                    with - base
                };
                let pct = worse / base * 100.0;
                metrics.push((format!("loadgen.tracing_overhead_pct.{name}"), pct, "%"));
            }
            metrics
        }
    };
    let passes: Vec<&Pass> = std::iter::once(&untraced).chain(&traced).collect();
    let mut problems: Vec<String> = passes.iter().flat_map(|p| p.problems.clone()).collect();
    for p in &passes {
        if p.op_ms.len() < min_samples(&args.workload) {
            problems.push(format!(
                "{} operation samples, fewer than the {} the tail needs",
                p.op_ms.len(),
                min_samples(&args.workload)
            ));
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0 && metrics.iter().all(|m| m.1.is_finite());

    let metric_json = |ms: &[(String, f64, &str)]| {
        let rows: Vec<String> = ms
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", finite(*v)))
            .collect();
        format!("{{{}}}", rows.join(","))
    };
    let line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metric_json(&metrics)
    );

    // The run's record: everything above plus provenance, the
    // workload-only readings, and the spans.
    // Readings only this workload has, plus what `/proc` said about the
    // leader (peak RSS, CPU per operation) on the last pass.
    let last = passes.last().expect("one pass at least");
    let mut extras = owned(&last.extras);
    extras.extend(owned(&last.layer));
    extras.push(("leader.rss_peak_mb".into(), last.rss_peak_mb, "MB"));
    let spans = traced_ctx.tracer.spans();
    let record = format!(
        "{{\"workload\":{},\"provenance\":{},\"host_steal_s\":{},\"result\":{line},\
         \"succeeded\":{},\"extras\":{},\"problems\":{},\"spans\":{}}}\n",
        daemon::quote(&args.workload),
        daemon::provenance(args.seed),
        daemon::host_steal_s() - steal_before,
        attempted.saturating_sub(failed),
        metric_json(&extras),
        serde_json::to_string(&problems.iter().map(|p| p.as_str()).collect::<Vec<_>>())
            .expect("stub never fails"),
        trace::to_json(&spans),
    );
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(out.join(name), record)?;
    for (n, v, u) in &extras {
        eprintln!("perfbench: {n} = {v} {u}");
    }
    if !correct {
        println!("{line}");
        return Err(io::Error::other("output checks failed"));
    }
    Ok(line)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
