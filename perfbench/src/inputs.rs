//! Seeded workload inputs. The benchmark's `--seed` fixes everything
//! the daemons are sent: proposals, the open-loop send schedule, the
//! order trajectories are ingested in, and the billboard sets read.
//! Each input draws from its own stream, so changing how many of one
//! are drawn never shifts another.

use mroam_data::{TrajectoryId, TrajectoryStore};
use mroam_market::{Proposal, ProposalGenerator};
use mroam_stream::{IngestBatch, TrajectoryDelta};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Average demand of one proposal as a share of the city's supply.
pub const P_AVG: f64 = 0.05;

fn stream(seed: u64, purpose: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Poisson arrivals at `rate` per second over `seconds`: the due time
/// of each send, measured from the start of the run.
pub fn open_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<Duration> {
    let mut rng = stream(seed, 1);
    let mut t = 0.0f64;
    let mut due = Vec::new();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// `n` independent proposals sized against `supply` (the loadgen
/// workload: demand `⌊ω·p·supply⌋`, payment `⌊ε·demand⌋`, 1–3 days).
pub fn proposals(seed: u64, n: usize, supply: u64) -> Vec<Proposal> {
    let mut rng = stream(seed, 2);
    (0..n)
        .map(|_| {
            let omega: f64 = rng.gen_range(0.8..1.2);
            let demand = ((omega * P_AVG * supply as f64) as u64).max(1);
            let eps: f64 = rng.gen_range(0.9..1.1);
            Proposal {
                demand,
                payment: (eps * demand as f64).floor(),
                duration_days: rng.gen_range(1..=3u32),
                zone: None,
            }
        })
        .collect()
}

/// The closed-loop day plan: exactly `per_day` proposals every day.
pub fn day_plan(seed: u64, supply: u64, per_day: usize) -> ProposalGenerator {
    ProposalGenerator {
        supply,
        p_avg: P_AVG,
        arrivals_per_day: (per_day, per_day),
        duration_days: (1, 3),
        seed: stream(seed, 3).gen(),
    }
}

/// The ids `first..total` in seeded order.
pub fn ingest_order(seed: u64, first: usize, total: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (first..total).collect();
    ids.shuffle(&mut stream(seed, 4));
    ids
}

/// One ingest epoch carrying trajectories `ids` of `store`, verbatim.
pub fn ingest_batch(store: &TrajectoryStore, ids: &[usize]) -> IngestBatch {
    IngestBatch {
        billboard_events: Vec::new(),
        trajectories: ids
            .iter()
            .map(|&i| {
                let t = store.get(TrajectoryId::from_index(i));
                TrajectoryDelta {
                    points: t.points.to_vec(),
                    timestamps: t.timestamps.to_vec(),
                }
            })
            .collect(),
    }
}

/// The stream placing each follower poll within its tick.
pub fn jitter(seed: u64) -> ChaCha8Rng {
    stream(seed, 6)
}

/// `n` billboard sets of 1–8 distinct ids below `n_billboards`.
pub fn read_sets(seed: u64, n_billboards: u32, n: usize) -> Vec<Vec<u32>> {
    let mut rng = stream(seed, 5);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(1..=8usize).min(n_billboards as usize);
            let mut set: Vec<u32> = Vec::with_capacity(k);
            while set.len() < k {
                let b = rng.gen_range(0..n_billboards);
                if !set.contains(&b) {
                    set.push(b);
                }
            }
            set
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(open_schedule(7, 1000.0, 1.0), open_schedule(7, 1000.0, 1.0));
        assert_eq!(proposals(7, 50, 10_000), proposals(7, 50, 10_000));
        let (a, b) = (day_plan(7, 10_000, 16), day_plan(7, 10_000, 16));
        for day in 0..5 {
            assert_eq!(a.day_batch(day), b.day_batch(day));
            assert_eq!(a.day_batch(day).len(), 16);
        }
        assert_eq!(ingest_order(7, 10, 500), ingest_order(7, 10, 500));
        assert_eq!(read_sets(7, 300, 40), read_sets(7, 300, 40));
    }

    #[test]
    fn another_seed_other_inputs() {
        assert_ne!(open_schedule(7, 1000.0, 1.0), open_schedule(8, 1000.0, 1.0));
        assert_ne!(proposals(7, 50, 10_000), proposals(8, 50, 10_000));
        assert_ne!(
            day_plan(7, 10_000, 16).day_batch(0),
            day_plan(8, 10_000, 16).day_batch(0)
        );
        assert_ne!(ingest_order(7, 10, 500), ingest_order(8, 10, 500));
        assert_ne!(read_sets(7, 300, 40), read_sets(8, 300, 40));
    }

    #[test]
    fn inputs_are_well_formed() {
        let due = open_schedule(3, 1000.0, 2.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!((1700..2300).contains(&due.len()), "{} arrivals", due.len());
        let mut order = ingest_order(3, 100, 250);
        order.sort_unstable();
        assert_eq!(order, (100..250).collect::<Vec<_>>());
        for set in read_sets(3, 300, 100) {
            assert!(!set.is_empty() && set.len() <= 8);
            assert!(set.iter().all(|&b| b < 300));
        }
    }
}
