//! A hostile frame must not take a daemon down.
//!
//! An unbounded recursive-descent parser recurses once per byte of
//! 200,000 unclosed `[` and aborts the whole process with a stack
//! overflow on the reader thread. Parsing is depth-bounded, so the
//! leader and the follower both answer the frame with a typed `error`
//! and keep serving.

use mroam_core::testutil::disjoint_model;
use mroam_replica::{spawn_follower, FollowerConfig};
use mroam_serve::client::Client;
use mroam_serve::protocol::Request;
use mroam_serve::server::{spawn, ServeConfig, WalConfig};
use mroam_serve::ReplicationConfig;
use mroam_wal::testutil::TempDir;

/// Sends the deep-nesting frame, expects an `error` reply, then checks
/// that `stats` still answers on a fresh connection.
fn survives_deep_nesting(addr: std::net::SocketAddr, who: &str) {
    let mut client = Client::connect(addr).expect("connect");
    client
        .send_raw("[".repeat(200_000).as_bytes())
        .expect("send hostile frame");
    let reply = client
        .recv()
        .expect("recv")
        .unwrap_or_else(|| panic!("{who} closed the connection instead of answering"));
    assert_eq!(reply["type"].as_str(), Some("error"), "{who}: {reply:?}");
    let stats = Client::connect(addr)
        .expect("reconnect")
        .call(&Request::Stats { id: 2 })
        .expect("stats after the hostile frame");
    assert_eq!(stats["type"].as_str(), Some("stats"), "{who}: {stats:?}");
}

#[test]
fn deep_nesting_gets_an_error_reply_from_leader_and_follower() {
    let dir = TempDir::new("hostile-frames");
    let leader = spawn(
        disjoint_model(&[4, 3, 2]),
        None,
        ServeConfig {
            wal: Some(WalConfig::new(dir.path().to_path_buf())),
            replication: Some(ReplicationConfig::new("127.0.0.1:0".into())),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("spawn leader");
    let follower = spawn_follower(FollowerConfig {
        leader_feed: leader.replica_addr().expect("feed address"),
        leader_hint: leader.addr().to_string(),
        addr: "127.0.0.1:0".into(),
    })
    .expect("spawn follower");

    survives_deep_nesting(leader.addr(), "leader");
    survives_deep_nesting(follower.addr(), "follower");

    follower.stop();
    Client::connect(leader.addr())
        .expect("connect")
        .call(&Request::Shutdown { id: 3 })
        .expect("shutdown");
    leader.join();
}
