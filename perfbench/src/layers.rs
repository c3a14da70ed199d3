//! The traced run's direct calls into each crate's public functions,
//! replayed on the run's own inputs, and the per-layer metrics derived
//! from their spans.
//!
//! Every workload replays every layer, so each per-layer metric is a
//! measurement on every workload: where a layer is off a workload's
//! served path (the static workloads keep no log and stream nothing),
//! the replay feeds it that workload's city and served days, i.e. what
//! the layer would do for this traffic.

use crate::day_closed::replay_days;
use crate::inputs;
use crate::pass::{host_config, LayerInputs, Metric};
use crate::stats::{mean, median, percentile};
use crate::trace::{durations_ms, Tracer};
use mroam_data::TrajectoryStore;
use mroam_experiments::params::DEFAULT_LAMBDA;
use mroam_experiments::setup::{build_city, CityKind};
use mroam_influence::CoverageModel;
use mroam_market::host::Host;
use mroam_serve::protocol::Request;
use mroam_serve::snapshot;
use mroam_stream::StreamEngine;
use mroam_wal::{ReplayWorld, Restored, WalOptions, WalReader, WalRecord, WalWriter};
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repeats of the city and model builds (the median is reported).
const BUILDS: usize = 3;
/// Days replayed through `Host::run_day` on a workload that serves none.
const REPLAY_DAYS: u32 = 32;

/// Replays every layer on `inputs`, recording spans on `tracer`, and
/// returns the per-layer metrics the spans give.
pub fn replay(
    inputs: &LayerInputs,
    seed: u64,
    tracer: &Tracer,
    tmp: &Path,
) -> io::Result<Vec<Metric>> {
    let scale = inputs.scale.expect("workload sets its scale");
    let root = tracer.open("layers");

    // datagen + influence: the city, the full model, its precompute.
    let mut built = None;
    for _ in 0..BUILDS {
        let city = tracer.time("datagen.build_city", root, || {
            build_city(CityKind::Nyc, scale)
        });
        let model = tracer.time("influence.coverage", root, || city.coverage(DEFAULT_LAMBDA));
        tracer.time("influence.precompute", root, || model.precompute());
        built = Some((city, model));
    }
    let (city, full) = built.expect("built at least once");

    // market + core: the served days, or a seeded plan on the full model.
    let regret_per_day = match inputs.replayed_regret {
        Some(regret) => regret / inputs.days.len().max(1) as f64,
        None => {
            let days: Vec<_> = if inputs.days.is_empty() {
                let plan = inputs::day_plan(seed, full.supply(), crate::day_closed::B);
                (0..REPLAY_DAYS).map(|d| plan.day_batch(d)).collect()
            } else {
                inputs.days.clone()
            };
            replay_days(&full, &days, tracer).1 / days.len().max(1) as f64
        }
    };

    // serve: the wire codec on the run's own request bytes.
    for (k, text) in inputs.requests.iter().enumerate() {
        let t0 = Instant::now();
        let v = serde_json::from_str(text).map_err(|e| io::Error::other(e.to_string()))?;
        let req = Request::decode(&v).map_err(|e| io::Error::other(e.to_string()))?;
        let t1 = Instant::now();
        std::hint::black_box(req.encode());
        let t2 = Instant::now();
        tracer.record("serve.decode", t0, t1, root, k as u64);
        tracer.record("serve.encode", t1, t2, root, k as u64);
    }

    // stream + influence reads: the head model, then the ingests.
    let mut head = TrajectoryStore::new();
    for t in city.trajectories.iter().take(inputs.head) {
        head.push_with_timestamps(t.points, t.timestamps)
            .expect("head prefix fits the column budget");
    }
    let head_model = Arc::new(CoverageModel::build(
        &city.billboards,
        &head,
        DEFAULT_LAMBDA,
    ));
    let mut engine =
        StreamEngine::from_model(head_model, city.billboards.clone(), head, DEFAULT_LAMBDA);
    let stream_root = tracer.open("stream.replay");
    for (k, ids) in inputs
        .ingest_ids
        .chunks(inputs.ingest_batch.max(1))
        .enumerate()
    {
        let batch = inputs::ingest_batch(&city.trajectories, ids);
        let t0 = Instant::now();
        engine
            .ingest(&batch)
            .map_err(|e| io::Error::other(e.to_string()))?;
        tracer.record("stream.ingest", t0, Instant::now(), stream_root, k as u64);
        if engine.needs_compaction() {
            tracer.time("stream.compact", stream_root, || engine.compact());
        }
    }
    // Fold what is left, so every workload times a compaction.
    tracer.time("stream.compact", stream_root, || engine.compact());
    for (k, set) in inputs.read_sets.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(engine.set_influence(set));
        tracer.record(
            "influence.set_influence",
            t0,
            Instant::now(),
            stream_root,
            k as u64,
        );
    }
    tracer.close(stream_root);

    // wal + replica: the leader's own log, or the served days as the
    // records a logging leader would have written.
    let (base, records) = match &inputs.wal_dir {
        Some(dir) => {
            let snaps =
                snapshot::list_snapshots(dir).map_err(|e| io::Error::other(e.to_string()))?;
            let (seq, path) = snaps
                .first()
                .ok_or_else(|| io::Error::other("no snapshot"))?;
            let text =
                snapshot::read_snapshot_file(path).map_err(|e| io::Error::other(e.to_string()))?;
            let restored = snapshot::decode(&text).map_err(|e| io::Error::other(e.to_string()))?;
            let reader = WalReader::open(dir).map_err(|e| io::Error::other(e.to_string()))?;
            let records = reader
                .records_after(*seq)
                .map_err(|e| io::Error::other(e.to_string()))?;
            (restored, records)
        }
        None => {
            let config = host_config();
            let seed = Host::new(&full, config.clone()).seed();
            let records = inputs
                .days
                .iter()
                .enumerate()
                .map(|(d, proposals)| {
                    let record = WalRecord::RunDay {
                        day: d as u32,
                        proposals: proposals.clone(),
                    };
                    (d as u64 + 1, record)
                })
                .collect();
            let restored = Restored {
                model: full.clone(),
                config,
                seed,
                stream: None,
            };
            (restored, records)
        }
    };
    let wal_dir = tmp.join("wal-replay");
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut writer = WalWriter::open(&wal_dir, WalOptions::default())
        .map_err(|e| io::Error::other(e.to_string()))?;
    let wal_root = tracer.open("wal.replay");
    for (seq, record) in &records {
        let t0 = Instant::now();
        writer
            .append(record)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let t1 = Instant::now();
        writer.sync().map_err(|e| io::Error::other(e.to_string()))?;
        tracer.record("wal.append", t0, t1, wal_root, *seq);
        tracer.record("wal.sync", t1, Instant::now(), wal_root, *seq);
    }
    tracer.close(wal_root);
    let wal_stats = writer.stats();
    drop(writer);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut world = ReplayWorld::from_restored(base);
    let replica_root = tracer.open("replica.replay");
    for (seq, record) in &records {
        let t0 = Instant::now();
        world
            .apply(*seq, record)
            .map_err(|e| io::Error::other(e.to_string()))?;
        tracer.record("replica.apply", t0, Instant::now(), replica_root, *seq);
    }
    tracer.close(replica_root);
    tracer.close(root);

    let spans = tracer.spans();
    let p50 = |name| median(&durations_ms(&spans, name));
    let bytes = |texts: &[String]| mean(&texts.iter().map(|t| t.len() as f64).collect::<Vec<_>>());
    let run_day = durations_ms(&spans, "market.run_day");
    Ok(vec![
        ("datagen.city_build_s", p50("datagen.build_city") / 1e3, "s"),
        (
            "influence.model_build_s",
            p50("influence.coverage") / 1e3,
            "s",
        ),
        (
            "influence.precompute_s",
            p50("influence.precompute") / 1e3,
            "s",
        ),
        (
            "influence.set_influence_us",
            p50("influence.set_influence") * 1e3,
            "us",
        ),
        ("market.run_day_p50_ms", percentile(&run_day, 0.5), "ms"),
        ("market.run_day_p90_ms", percentile(&run_day, 0.9), "ms"),
        ("core.regret_per_day", regret_per_day, "count"),
        ("serve.decode_us", p50("serve.decode") * 1e3, "us"),
        ("serve.encode_us", p50("serve.encode") * 1e3, "us"),
        ("serve.req_bytes", bytes(&inputs.requests), "bytes"),
        ("serve.resp_bytes", bytes(&inputs.responses), "bytes"),
        ("stream.ingest_ms", p50("stream.ingest"), "ms"),
        ("stream.compact_ms", p50("stream.compact"), "ms"),
        (
            "stream.compactions",
            durations_ms(&spans, "stream.compact").len() as f64,
            "count",
        ),
        ("wal.append_us", p50("wal.append") * 1e3, "us"),
        ("wal.sync_ms", p50("wal.sync"), "ms"),
        (
            "wal.bytes_per_record",
            wal_stats.bytes_appended as f64 / wal_stats.records_appended.max(1) as f64,
            "bytes",
        ),
        ("replica.apply_ms", p50("replica.apply"), "ms"),
    ])
}
