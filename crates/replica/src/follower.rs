//! The follower's read-only serving loop.
//!
//! Speaks the leader's length-framed JSON protocol on its own listener,
//! answering from the replicated [`ReplayWorld`] at whatever
//! `applied_seq` the tailer has reached:
//!
//! * `query_coverage` is [`ReplayWorld::query_coverage`], the very
//!   method the leader answers with, so a follower at the leader's seq
//!   returns bit-identical bytes;
//! * `stats` reports the follower-side `repl_*` fields (`applied_seq`,
//!   reconnects, snapshots received, catch-up time, the leader's
//!   durable horizon) alongside the replicated market state;
//! * `epoch_stats` comes straight from the replicated engine;
//! * every mutation (`submit`, `run_day`, `ingest`, `compact`,
//!   `snapshot`) gets the typed `redirect` response naming the leader —
//!   a follower never invents history.
//!
//! Unlike the leader there is no single-writer command thread: requests
//! are answered on their connection's thread under the shared state
//! lock (reads only; the tailer is the sole writer).

use crate::tailer::{FollowerState, SharedState, Tailer};
use mroam_serve::frame::{read_frame, write_frame};
use mroam_serve::protocol::{Request, Response, StatsReport};
use mroam_wal::ReplayWorld;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Follower configuration.
#[derive(Debug, Clone)]
pub struct FollowerConfig {
    /// The leader's replication feed address (what `mroam-served`
    /// prints as its `replica <addr>` line).
    pub leader_feed: SocketAddr,
    /// The leader's *command* address, echoed in `redirect` responses
    /// (may be empty when unknown).
    pub leader_hint: String,
    /// Listen address for read-only clients, e.g. `127.0.0.1:0`.
    pub addr: String,
}

/// A running follower: tailer thread + read-only acceptor.
pub struct FollowerHandle {
    addr: SocketAddr,
    state: SharedState,
    stopping: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    tailer: JoinHandle<()>,
    disconnect: crate::tailer::Disconnector,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl FollowerHandle {
    /// The bound read-only address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared replicated state (tests read it directly).
    pub fn state(&self) -> SharedState {
        Arc::clone(&self.state)
    }

    /// Force-stops the follower: severs the feed session, closes client
    /// sockets, joins both threads.
    pub fn stop(self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.finish();
    }

    /// Waits for a `shutdown` request to stop the follower, then cleans
    /// up (the daemon's main loop).
    pub fn join(self) {
        self.finish();
    }

    fn finish(self) {
        // The acceptor polls the stopping flag (set here by `stop`, or
        // by a shutdown request) every few milliseconds.
        let _ = self.acceptor.join();
        self.disconnect.disconnect();
        let _ = self.tailer.join();
        for conn in self.conns.lock().expect("follower conn registry").drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

/// Binds the read-only listener, starts the tailer, and serves.
pub fn spawn_follower(config: FollowerConfig) -> io::Result<FollowerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let state = FollowerState::new();
    let stopping = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::default();

    let tailer_obj = Tailer::new(
        config.leader_feed,
        Arc::clone(&state),
        Arc::clone(&stopping),
    );
    let disconnect = tailer_obj.disconnector();
    let tailer = thread::spawn(move || tailer_obj.run());

    let acceptor = {
        let state = Arc::clone(&state);
        let stopping = Arc::clone(&stopping);
        let conns = Arc::clone(&conns);
        let leader = config.leader_hint.clone();
        let started = Instant::now();
        thread::spawn(move || loop {
            if stopping.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(registered) = stream.try_clone() {
                        conns
                            .lock()
                            .expect("follower conn registry")
                            .push(registered);
                    }
                    let state = Arc::clone(&state);
                    let stopping = Arc::clone(&stopping);
                    let leader = leader.clone();
                    thread::spawn(move || {
                        serve_connection(stream, state, leader, stopping, started)
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        })
    };

    Ok(FollowerHandle {
        addr,
        state,
        stopping,
        acceptor,
        tailer,
        disconnect,
        conns,
    })
}

/// One client connection: frame in, answer under the state lock, frame
/// out. Exits on disconnect or after acknowledging a shutdown.
fn serve_connection(
    mut stream: TcpStream,
    state: SharedState,
    leader: String,
    stopping: Arc<AtomicBool>,
    started: Instant,
) {
    let _ = stream.set_nodelay(true);
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            _ => return,
        };
        let parsed = std::str::from_utf8(&payload)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok());
        let response = match parsed {
            None => Response::Error {
                id: 0,
                message: "frame is not valid JSON".into(),
            },
            Some(value) => match Request::decode(&value) {
                Ok(req) => {
                    let stop = matches!(req, Request::Shutdown { .. });
                    let response = answer(req, &state, &leader, started);
                    if stop {
                        let _ = write_frame(&mut stream, response.encode().as_bytes());
                        stopping.store(true, Ordering::SeqCst);
                        return;
                    }
                    response
                }
                Err(e) => Response::Error {
                    id: value["id"].as_f64().unwrap_or(0.0) as u64,
                    message: e.to_string(),
                },
            },
        };
        if write_frame(&mut stream, response.encode().as_bytes()).is_err() {
            return;
        }
    }
}

/// Answers one decoded request from the replicated state.
fn answer(req: Request, state: &SharedState, leader: &str, started: Instant) -> Response {
    match req {
        Request::QueryCoverage { id, billboards } => {
            let st = state.lock().expect("follower state");
            match st.world() {
                None => not_caught_up(id),
                Some(world) => Response::coverage(id, world.query_coverage(&billboards)),
            }
        }
        Request::Stats { id } => {
            let st = state.lock().expect("follower state");
            Response::Stats {
                id,
                stats: Box::new(stats_report(&st, started)),
            }
        }
        Request::EpochStats { id } => {
            let st = state.lock().expect("follower state");
            match st.world().and_then(ReplayWorld::engine) {
                Some(engine) => Response::EpochStats {
                    id,
                    stats: engine.epoch_stats(),
                },
                None if st.world().is_none() => not_caught_up(id),
                None => Response::Error {
                    id,
                    message: "streaming disabled: the replicated world is static".into(),
                },
            }
        }
        // A follower never mutates: every write is redirected, typed.
        Request::Submit { id, .. }
        | Request::RunDay { id }
        | Request::Ingest { id, .. }
        | Request::Compact { id }
        | Request::Snapshot { id } => Response::Redirect {
            id,
            leader: leader.to_string(),
        },
        Request::Shutdown { id } => Response::Bye { id },
    }
}

fn not_caught_up(id: u64) -> Response {
    Response::Error {
        id,
        message: "follower has no world yet: waiting for the first snapshot".into(),
    }
}

/// The follower's `stats` view: replicated market state plus the
/// follower-side `repl_*` fields; leader-side fields read zero.
fn stats_report(st: &FollowerState, started: Instant) -> StatsReport {
    let mut report = StatsReport {
        uptime_micros: started.elapsed().as_micros() as u64,
        repl_applied_seq: st.applied_seq(),
        repl_reconnects: st.reconnects(),
        repl_snapshots_received: st.snapshots_received(),
        repl_catch_up_micros: st.last_catch_up_micros(),
        repl_leader_durable: st.leader_durable(),
        ..StatsReport::default()
    };
    if let Some(world) = st.world() {
        report.day = u64::from(world.day());
        report.locked = world.lock().locked_count();
        report.free = world.free_count();
        report.collected = world.ledger().total_collected();
        report.regret = world.ledger().total_regret();
        report.snapshot_epoch = world.epoch();
    }
    report
}
