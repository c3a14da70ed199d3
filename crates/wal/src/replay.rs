//! The serving world's one state machine.
//!
//! [`ReplayWorld`] is the only code that mutates serving state. The
//! leader's command loop, crash recovery and every follower step it
//! through the same [`ReplayWorld::apply`]: the leader builds a
//! [`WalRecord`], logs it, applies it and replies from the returned
//! [`Applied`] effects; recovery and followers apply the logged records
//! in seq order. Bit-identity between them therefore holds by
//! construction, not by keeping two copies equal.
//!
//! The world is a static coverage model or a live [`StreamEngine`] plus
//! the carried [`HostSeed`] (day clock, locks, ledger). A market [`Host`]
//! borrows its model and a compaction swaps the model, so each day
//! record builds a `Host` from the seed and moves the seed back out
//! afterwards — nothing is copied between records:
//!
//! * **Days** resume the host from the carried seed per record;
//!   `Host::resume` at day *k* is proven equal to an uninterrupted host
//!   (market host tests), so per-record reconstruction cannot diverge.
//! * **Ingests** run verbatim; a batch the engine rejects leaves it
//!   untouched and comes back as the engine's error, on the leader and on
//!   every replay alike.
//! * **Compactions** are logged explicitly, so applying one never
//!   evaluates a [`CompactionPolicy`] — the operator can retune the
//!   policy without forking history. After folding, the carried locks
//!   grow to the new base's inventory.
//!
//! Every stream record carries the engine epoch it was applied at and
//! every day record its day; a mismatch means the log and the snapshot
//! disagree about history and surfaces as a typed [`ReplayError`]
//! instead of silently diverging.
//!
//! [`CompactionPolicy`]: mroam_stream::CompactionPolicy

use crate::record::WalRecord;
use crate::state::{self, Restored};
use mroam_core::shard::ShardReport;
use mroam_data::BillboardId;
use mroam_influence::CoverageModel;
use mroam_market::host::{Host, HostConfig, HostSeed};
use mroam_market::{DayOutcome, Ledger, LockState};
use mroam_stream::{CompactionReport, IngestError, IngestReport, StreamEngine};
use std::fmt;
use std::sync::Arc;

/// Why a record could not be applied to the world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// A stream record (ingest/compact) hit a static-model world.
    NotStreaming {
        /// WAL seq of the offending record.
        seq: u64,
    },
    /// The record's logged engine epoch disagrees with the world's
    /// engine — snapshot and log tell different histories.
    EpochMismatch {
        /// WAL seq of the offending record.
        seq: u64,
        /// Epoch the record was logged at.
        logged: u64,
        /// Epoch the world's engine is actually at.
        actual: u64,
    },
    /// The record's logged day disagrees with the world's day clock.
    DayMismatch {
        /// WAL seq of the offending record.
        seq: u64,
        /// Day the record was logged at.
        logged: u32,
        /// Day the world is actually at.
        actual: u32,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::NotStreaming { seq } => {
                write!(
                    f,
                    "record {seq} needs a streaming engine but the world is static"
                )
            }
            ReplayError::EpochMismatch {
                seq,
                logged,
                actual,
            } => write!(
                f,
                "record {seq} logged at engine epoch {logged} but replay is at {actual}"
            ),
            ReplayError::DayMismatch {
                seq,
                logged,
                actual,
            } => write!(
                f,
                "record {seq} logged at day {logged} but replay is at {actual}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What applying one record did — what the leader replies from.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// A served day: the ledger record plus one outcome per proposal.
    Day(DayOutcome),
    /// An ingest: the engine's report, or its reason for rejecting the
    /// batch (a rejected batch leaves the engine untouched).
    Ingest(Result<IngestReport, IngestError>),
    /// A compaction's report.
    Compact(CompactionReport),
    /// A snapshot mark: no state change.
    Mark,
}

/// What the world serves from: a fixed model, or a live streaming
/// engine whose compacted base each day's host borrows.
enum World {
    Static(Arc<CoverageModel>),
    Streaming(Box<StreamEngine>),
}

impl World {
    fn model(&self) -> Arc<CoverageModel> {
        match self {
            World::Static(m) => Arc::clone(m),
            World::Streaming(e) => Arc::clone(e.model()),
        }
    }
}

/// The serving world: model or engine, host configuration, and the
/// carried host seed. Build it fresh ([`ReplayWorld::new_static`],
/// [`ReplayWorld::new_streaming`]) or from a snapshot
/// ([`ReplayWorld::from_restored`]), then [`ReplayWorld::apply`] records.
pub struct ReplayWorld {
    world: World,
    config: HostConfig,
    seed: HostSeed,
    /// The most recent sharded day solve's report (kept across days and
    /// compactions for `stats`).
    shard_report: Option<ShardReport>,
    replayed: usize,
}

impl ReplayWorld {
    /// A world serving a fixed model, from `seed` or (when `None`) day 0
    /// with all inventory free.
    pub fn new_static(model: CoverageModel, config: HostConfig, seed: Option<HostSeed>) -> Self {
        Self::new(World::Static(Arc::new(model)), config, seed)
    }

    /// A world serving a live streaming engine, from `seed` or (when
    /// `None`) day 0 with all inventory free.
    pub fn new_streaming(engine: StreamEngine, config: HostConfig, seed: Option<HostSeed>) -> Self {
        Self::new(World::Streaming(Box::new(engine)), config, seed)
    }

    /// The world a restored snapshot describes (streaming iff the
    /// snapshot carried a stream section).
    pub fn from_restored(restored: Restored) -> ReplayWorld {
        let model = Arc::new(restored.model);
        let world = match restored.stream {
            Some(sr) => World::Streaming(Box::new(sr.into_engine(Arc::clone(&model)))),
            None => World::Static(model),
        };
        Self::new(world, restored.config, Some(restored.seed))
    }

    fn new(world: World, config: HostConfig, seed: Option<HostSeed>) -> Self {
        let seed = seed.unwrap_or_else(|| Host::new(&world.model(), config.clone()).into_seed());
        ReplayWorld {
            world,
            config,
            seed,
            shard_report: None,
            replayed: 0,
        }
    }

    /// Applies one record (at WAL seq `seq`, for error reporting) and
    /// returns its effects.
    pub fn apply(&mut self, seq: u64, record: &WalRecord) -> Result<Applied, ReplayError> {
        let applied = match record {
            WalRecord::Ingest { epoch, batch } => {
                Applied::Ingest(self.engine_at(seq, *epoch)?.ingest(batch))
            }
            WalRecord::RunDay { day, proposals } => {
                if self.seed.day != *day {
                    return Err(ReplayError::DayMismatch {
                        seq,
                        logged: *day,
                        actual: self.seed.day,
                    });
                }
                let model = self.serving_model();
                let carried = HostSeed {
                    day: self.seed.day,
                    lock: std::mem::take(&mut self.seed.lock),
                    ledger: std::mem::take(&mut self.seed.ledger),
                };
                let mut host = Host::resume(&model, self.config.clone(), carried);
                let outcome = host.run_day(proposals);
                if let Some(report) = host.shard_report() {
                    self.shard_report = Some(report.clone());
                }
                self.seed = host.into_seed();
                Applied::Day(outcome)
            }
            WalRecord::Compact { epoch } => {
                let report = self.engine_at(seq, *epoch)?.compact();
                let n = self.serving_model().n_billboards();
                self.seed.lock = std::mem::take(&mut self.seed.lock).resized(n);
                Applied::Compact(report)
            }
            WalRecord::SnapshotMark { .. } => Applied::Mark,
        };
        self.replayed += 1;
        Ok(applied)
    }

    /// The engine, checked to be at the record's logged `epoch`.
    fn engine_at(&mut self, seq: u64, epoch: u64) -> Result<&mut StreamEngine, ReplayError> {
        let World::Streaming(engine) = &mut self.world else {
            return Err(ReplayError::NotStreaming { seq });
        };
        if engine.epoch() != epoch {
            return Err(ReplayError::EpochMismatch {
                seq,
                logged: epoch,
                actual: engine.epoch(),
            });
        }
        Ok(engine)
    }

    /// The world's day clock (next day index).
    pub fn day(&self) -> u32 {
        self.seed.day
    }

    /// The ledger of served days.
    pub fn ledger(&self) -> &Ledger {
        &self.seed.ledger
    }

    /// The engine epoch (0 for a static world).
    pub fn epoch(&self) -> u64 {
        self.engine().map_or(0, StreamEngine::epoch)
    }

    /// The streaming engine, if this world has one.
    pub fn engine(&self) -> Option<&StreamEngine> {
        match &self.world {
            World::Static(_) => None,
            World::Streaming(e) => Some(e),
        }
    }

    /// Records applied so far.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// The model days are solved against (for a streaming world, the
    /// engine's compacted base).
    pub fn serving_model(&self) -> Arc<CoverageModel> {
        self.world.model()
    }

    /// The carried lock state, sized to the serving base.
    pub fn lock(&self) -> &LockState {
        &self.seed.lock
    }

    /// Billboards of the serving base not locked by a live contract.
    pub fn free_count(&self) -> usize {
        self.serving_model().n_billboards() - self.seed.lock.locked_count()
    }

    /// Host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// The report of the most recent sharded day solve (`None` when
    /// sharding is off or no sharded day has been solved yet).
    pub fn shard_report(&self) -> Option<&ShardReport> {
        self.shard_report.as_ref()
    }

    /// Answers `query_coverage`: the influence `I(S)` of a billboard set
    /// and the free inventory, or `None` when an id is out of range. A
    /// streaming world answers from the engine's merged base+overlay
    /// view — the freshest epoch — while the free count stays the
    /// allocation inventory of the serving base.
    pub fn query_coverage(&self, billboards: &[u32]) -> Option<(u64, usize)> {
        let influence = match self.engine() {
            Some(engine) => {
                if billboards
                    .iter()
                    .any(|&b| b as usize >= engine.n_billboards())
                {
                    return None;
                }
                engine.set_influence(billboards)
            }
            None => {
                let model = self.serving_model();
                if billboards
                    .iter()
                    .any(|&b| b as usize >= model.n_billboards())
                {
                    return None;
                }
                model.set_influence(billboards.iter().map(|&b| BillboardId(b)))
            }
        };
        Some((influence, self.free_count()))
    }

    /// The world's full state as a snapshot document (see [`state`]).
    pub fn snapshot(&self) -> String {
        state::encode_state(
            &self.serving_model(),
            &self.config,
            self.seed.clone(),
            self.engine(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mroam_core::solver::SolverSpec;
    use mroam_core::testutil::disjoint_model;
    use mroam_data::{BillboardStore, TrajectoryStore};
    use mroam_geo::Point;
    use mroam_market::ProposalGenerator;
    use mroam_stream::{BillboardEvent, IngestBatch, TrajectoryDelta};

    fn config() -> HostConfig {
        HostConfig {
            gamma: 0.5,
            solver: SolverSpec::by_name("bls")
                .unwrap()
                .with_seed(11)
                .with_restarts(2),
            shards: None,
        }
    }

    /// Three billboards on a line 200 m apart; two seed trajectories.
    fn line_engine() -> StreamEngine {
        let billboards = BillboardStore::from_locations(vec![
            Point::new(0.0, 0.0),
            Point::new(200.0, 0.0),
            Point::new(400.0, 0.0),
        ]);
        let mut trajectories = TrajectoryStore::new();
        trajectories
            .push_at_speed(&[Point::new(-10.0, 0.0), Point::new(10.0, 0.0)], 10.0)
            .unwrap();
        trajectories
            .push_at_speed(&[Point::new(190.0, 0.0), Point::new(410.0, 0.0)], 10.0)
            .unwrap();
        StreamEngine::new(billboards, trajectories, 50.0)
    }

    fn retire(id: u32) -> IngestBatch {
        IngestBatch {
            billboard_events: vec![BillboardEvent::Retire { id }],
            trajectories: Vec::new(),
        }
    }

    #[test]
    fn day_effects_equal_host_run_day_from_the_same_seed() {
        let model = disjoint_model(&[9, 8, 7, 6, 5, 4]);
        let g = ProposalGenerator {
            supply: model.supply(),
            p_avg: 0.15,
            arrivals_per_day: (1, 3),
            duration_days: (1, 3),
            seed: 3,
        };
        let mut host = Host::new(&model, config());
        let mut world = ReplayWorld::new_static(model.clone(), config(), None);
        for day in 0..8 {
            let proposals = g.day_batch(day);
            let expected = host.run_day(&proposals);
            let record = WalRecord::RunDay { day, proposals };
            assert_eq!(
                world.apply(u64::from(day) + 1, &record),
                Ok(Applied::Day(expected)),
                "day {day}"
            );
        }
        assert_eq!(world.day(), host.day());
        assert_eq!(world.ledger(), host.ledger());
        assert_eq!(world.free_count(), host.free_count());
        assert_eq!(world.replayed(), 8);
    }

    #[test]
    fn rejected_ingest_returns_the_engine_error_and_stays_applied() {
        let mut world = ReplayWorld::new_streaming(line_engine(), config(), None);
        let expected = line_engine().ingest(&retire(99)).unwrap_err();
        let record = WalRecord::Ingest {
            epoch: 0,
            batch: retire(99),
        };
        assert_eq!(world.apply(1, &record), Ok(Applied::Ingest(Err(expected))));
        assert_eq!(world.replayed(), 1, "a rejected batch is still applied");
        assert_eq!(world.epoch(), 0, "the engine is untouched");
        // History continues at the same epoch: the next batch lands.
        let next = WalRecord::Ingest {
            epoch: 0,
            batch: IngestBatch {
                billboard_events: Vec::new(),
                trajectories: vec![TrajectoryDelta::at_speed(
                    vec![Point::new(400.0, 1.0), Point::new(405.0, 1.0)],
                    5.0,
                )],
            },
        };
        assert!(matches!(world.apply(2, &next), Ok(Applied::Ingest(Ok(_)))));
        assert_eq!(world.epoch(), 1);
    }

    #[test]
    fn compact_resizes_the_carried_locks_to_the_new_base() {
        let mut world = ReplayWorld::new_streaming(line_engine(), config(), None);
        assert_eq!(world.lock().locked_until.len(), 3);
        let add = IngestBatch {
            billboard_events: vec![BillboardEvent::Add {
                location: Point::new(600.0, 0.0),
            }],
            trajectories: Vec::new(),
        };
        let added = world.apply(
            1,
            &WalRecord::Ingest {
                epoch: 0,
                batch: add,
            },
        );
        assert!(matches!(added, Ok(Applied::Ingest(Ok(_)))));
        assert_eq!(world.lock().locked_until.len(), 3, "base not folded yet");
        let Ok(Applied::Compact(report)) = world.apply(2, &WalRecord::Compact { epoch: 1 }) else {
            panic!("compaction must apply");
        };
        assert_eq!(report.epoch, 1);
        assert_eq!(report.folded_billboards, 1);
        assert_eq!(world.serving_model().n_billboards(), 4);
        assert_eq!(world.lock().locked_until.len(), 4);
        assert_eq!(world.free_count(), 4);
        // The next day's host accepts the resized locks.
        let day = WalRecord::RunDay {
            day: 0,
            proposals: Vec::new(),
        };
        assert!(matches!(world.apply(3, &day), Ok(Applied::Day(_))));
    }

    #[test]
    fn stream_records_on_a_static_world_are_not_streaming() {
        let mut world = ReplayWorld::new_static(disjoint_model(&[4, 3]), config(), None);
        let ingest = WalRecord::Ingest {
            epoch: 0,
            batch: retire(0),
        };
        assert_eq!(
            world.apply(5, &ingest),
            Err(ReplayError::NotStreaming { seq: 5 })
        );
        assert_eq!(
            world.apply(6, &WalRecord::Compact { epoch: 0 }),
            Err(ReplayError::NotStreaming { seq: 6 })
        );
        assert_eq!(world.replayed(), 0);
    }

    #[test]
    fn a_day_logged_at_the_wrong_day_is_a_day_mismatch() {
        let mut world = ReplayWorld::new_static(disjoint_model(&[4, 3]), config(), None);
        let record = WalRecord::RunDay {
            day: 2,
            proposals: Vec::new(),
        };
        assert_eq!(
            world.apply(7, &record),
            Err(ReplayError::DayMismatch {
                seq: 7,
                logged: 2,
                actual: 0
            })
        );
        assert_eq!(world.day(), 0);
    }

    #[test]
    fn query_coverage_validates_ids() {
        let world = ReplayWorld::new_static(disjoint_model(&[4, 3]), config(), None);
        assert_eq!(world.query_coverage(&[0]), Some((4, 2)));
        assert_eq!(world.query_coverage(&[0, 1]), Some((7, 2)));
        assert_eq!(world.query_coverage(&[]), Some((0, 2)));
        assert_eq!(world.query_coverage(&[9]), None);
        let streaming = ReplayWorld::new_streaming(line_engine(), config(), None);
        assert_eq!(streaming.query_coverage(&[3]), None);
        assert_eq!(
            streaming.query_coverage(&[0, 1, 2]).map(|(_, f)| f),
            Some(3)
        );
    }
}
