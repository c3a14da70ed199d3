//! The market host the serving world steps through.
//!
//! The day transition lives in [`mroam_market::host`] and the world that
//! carries it between records in `mroam_wal::ReplayWorld`, which the
//! command loop, recovery and followers all apply records through; this
//! module re-exports the host types under the historical serving-layer
//! path.

pub use mroam_market::host::{Host, HostConfig, HostSeed};
