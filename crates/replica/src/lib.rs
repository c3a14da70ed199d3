//! `mroam-replica` — read-only followers fed from the leader's WAL.
//!
//! The leader (`mroam-served` with `--replica-addr`) ships its
//! write-ahead log over the binary [`mroam_wal::ship`] protocol; this
//! crate is the receiving side:
//!
//! * [`tailer`] — the replication client. A [`tailer::Session`] opens
//!   one feed connection (`hello{watermark}`), restores a shipped
//!   snapshot when it has no world or fell behind the leader's pruning
//!   horizon, CRC-verifies every shipped frame, and applies records in
//!   seq order through [`mroam_wal::ReplayWorld::apply`] — the one
//!   state machine the leader itself and recovery mutate through — so
//!   a follower at `applied_seq` is bit-identical to the leader when
//!   its log head was that seq. The
//!   [`tailer::Tailer`] loop adds reconnect-with-watermark and backoff.
//! * [`follower`] — the read-only serving half: a TCP listener speaking
//!   the leader's JSON protocol, answering `query_coverage`, `stats`,
//!   and `epoch_stats` from the replicated world at its advertised
//!   `applied_seq`, and refusing every mutation with a typed
//!   `redirect` response naming the leader.
//!
//! Consistency model: a follower serves a *prefix* of the leader's
//! history — always a state the leader actually passed through, never
//! a torn or speculative one (frames ship only past the leader's
//! group-commit durable horizon). Reads are monotonic per follower;
//! cross-follower reads may observe different prefixes.
//!
//! Binaries: `mroam-follower` (the daemon) and `exp_replication` (the
//! replication benchmark: group-commit amortization, follower lag,
//! catch-up time).

pub mod follower;
pub mod tailer;

pub use follower::{spawn_follower, FollowerConfig, FollowerHandle};
pub use tailer::{FollowerState, Session, SessionEvent, SharedState, Tailer};
