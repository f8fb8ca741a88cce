//! A long-running server must hold nothing for clients that have left: one
//! test, alone in its process, so the process's descriptor count is its own.

#![cfg(unix)]

use cache_automaton::{CacheAutomaton, CacheServer, Client, Daemon, DaemonOptions};
use std::time::{Duration, Instant};

const CYCLES: usize = 300;

/// Open descriptors of this process (Linux; elsewhere the descriptor half
/// of the check is skipped).
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd").ok().map(Iterator::count)
}

/// Connection threads finish shortly after their client hangs up; give
/// them a deadline rather than a sleep.
fn settles(mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

#[test]
fn departed_clients_leave_no_descriptor_or_table_entry_behind() {
    let scratch = std::env::temp_dir().join(format!("ca-conn-leak-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();
    let socket = |name: &str| format!("unix:{}", scratch.join(name).display());

    let daemon = Daemon::bind(
        &CacheAutomaton::new(),
        "needle\n",
        &socket("d.sock"),
        DaemonOptions::default(),
    )
    .unwrap();
    let peer = CacheServer::bind(&socket("p.sock"), scratch.join("store")).unwrap();
    let cycle = |n: usize| {
        for _ in 0..n {
            Client::connect(&daemon.local_addr()).unwrap().stats().unwrap();
            Client::connect(&peer.local_addr()).unwrap().cache_stats().unwrap();
        }
    };

    cycle(1); // whatever a first connection allocates for good is in the baseline
    assert!(settles(|| daemon.stats().connections == 0));
    let baseline = open_fds();

    cycle(CYCLES);
    assert!(
        settles(|| daemon.stats().connections == 0),
        "daemon still tracks {} connections",
        daemon.stats().connections
    );
    if let Some(baseline) = baseline {
        assert!(
            settles(|| open_fds().unwrap() <= baseline + 4),
            "{} descriptors open after {CYCLES} connect/disconnect cycles per server, \
             {baseline} before",
            open_fds().unwrap()
        );
    }

    daemon.shutdown().unwrap();
    peer.shutdown().unwrap();
    std::fs::remove_dir_all(&scratch).ok();
}
