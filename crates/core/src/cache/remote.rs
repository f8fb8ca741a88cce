//! The remote artifact tier: a [`CacheTier`] over CACHE_GET / CACHE_PUT
//! frames of the serving wire protocol.
//!
//! This is the client half of the protocol in
//! [`proto`](crate::serve::proto); the server half is
//! [`CacheServer`](crate::serve::cache_server::CacheServer) (`cactl
//! cache-serve`). A *scan* daemon refuses cache frames with a typed
//! error (code 9, unsupported), which this tier treats as a permanent
//! miss.
//!
//! Failure policy is the bluntest of all tiers, because a network peer
//! is the least trustworthy dependency in the stack:
//!
//! * The connection is dialed lazily on first use, so merely configuring
//!   a remote tier costs nothing until a compile actually happens.
//! * Every socket operation — dial, write, read — carries a deadline
//!   ([`RemoteCache::DEFAULT_TIMEOUT`], 5 s).
//!   A peer that accepted the connection and went silent is
//!   indistinguishable from a dead one past the deadline; the stall is
//!   bounded and counts as a transport failure.
//! * *Any* failure — dial, transport (a timeout included), a
//!   peer-reported error — marks the tier **broken**: every counter bump
//!   goes to `cache.remote.errors` once, and all subsequent loads and
//!   stores short-circuit to misses without touching the network. A
//!   flaky cache peer can slow one compile, never every compile.
//! * Returned artifacts are fully validated ([`Program::from_bytes`]
//!   checks magic, version, and checksum) before use; a corrupt blob
//!   counts under `cache.remote.corrupt` and degrades to a miss, exactly
//!   like a damaged disk file.

use super::{CacheKey, CacheTier, TierStats};
use crate::serve::daemon::{Client, ClientOptions};
use crate::Program;
use ca_telemetry::Telemetry;
use std::time::Duration;

/// The remote tier. See the [module docs](self) for the failure policy.
pub struct RemoteCache {
    addr: String,
    /// One deadline for connect, read, and write alike.
    timeout: Duration,
    client: Option<Client>,
    /// Latched on the first failure; a broken tier never retries.
    broken: bool,
    stats: TierStats,
    telemetry: Telemetry,
}

impl std::fmt::Debug for RemoteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteCache")
            .field("addr", &self.addr)
            .field("connected", &self.client.is_some())
            .field("broken", &self.broken)
            .field("stats", &self.stats)
            .finish()
    }
}

impl RemoteCache {
    /// The default deadline for connect, read, and write, each: a cache
    /// peer that cannot answer in 5 s is slower than recompiling.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

    /// A remote tier speaking to the cache peer at `addr` (`host:port` or
    /// `unix:<path>`). Nothing is dialed until the first load or store.
    pub fn new<S: Into<String>>(addr: S) -> RemoteCache {
        RemoteCache {
            addr: addr.into(),
            timeout: RemoteCache::DEFAULT_TIMEOUT,
            client: None,
            broken: false,
            stats: TierStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// The peer address this tier was configured with.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Overrides [`DEFAULT_TIMEOUT`](RemoteCache::DEFAULT_TIMEOUT) for
    /// connect, read, and write alike. Takes effect on the next dial, so
    /// call it before the first load or store.
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.timeout = timeout;
    }

    /// Whether the tier has latched its broken state.
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    fn bump(&mut self, field: fn(&mut TierStats) -> &mut u64, counter: &'static str) {
        *field(&mut self.stats) += 1;
        self.telemetry.counter(counter, 1);
    }

    /// Latches the broken state (dropping the connection) and counts the
    /// failure.
    fn mark_broken(&mut self) {
        self.broken = true;
        self.client = None;
        self.bump(|s| &mut s.errors, "cache.remote.errors");
    }

    /// The live connection, dialing on first use. `None` once broken.
    fn client(&mut self) -> Option<&mut Client> {
        if self.broken {
            return None;
        }
        if self.client.is_none() {
            match Client::connect_with(&self.addr, ClientOptions::uniform(self.timeout)) {
                Ok(client) => self.client = Some(client),
                Err(_) => {
                    self.mark_broken();
                    return None;
                }
            }
        }
        self.client.as_mut()
    }
}

impl CacheTier for RemoteCache {
    fn name(&self) -> &'static str {
        "remote"
    }

    fn load(&mut self, key: &CacheKey) -> Option<Program> {
        let client = self.client()?;
        match client.cache_get(key) {
            Ok(Some(artifact)) => match Program::from_bytes(&artifact) {
                Ok(program) => {
                    self.bump(|s| &mut s.hits, "cache.remote.hits");
                    Some(program)
                }
                Err(_) => {
                    // the peer handed back garbage: count it, keep the
                    // connection (the transport itself is fine)
                    self.bump(|s| &mut s.corrupt, "cache.remote.corrupt");
                    None
                }
            },
            Ok(None) => {
                self.bump(|s| &mut s.misses, "cache.remote.misses");
                None
            }
            Err(_) => {
                self.mark_broken();
                None
            }
        }
    }

    fn store(&mut self, key: &CacheKey, artifact: &[u8]) {
        let Some(client) = self.client() else { return };
        match client.cache_put(key, artifact) {
            Ok(()) => self.bump(|s| &mut s.writes, "cache.remote.writes"),
            Err(_) => self.mark_broken(),
        }
    }

    fn stats(&self) -> TierStats {
        self.stats
    }

    fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::proto::{read_frame, write_frame, Frame};
    use crate::{CacheAutomaton, Design};
    use ca_automata::Fingerprint;
    use std::collections::HashMap;
    use std::io::{BufReader, BufWriter, Write};
    use std::net::TcpListener;

    fn key(fp: u128) -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(fp),
            design: Design::Performance,
            slices: 8,
            seed: 0xca,
            optimized: false,
        }
    }

    /// A minimal in-memory cache peer: one connection at a time, a
    /// HashMap store, speaking only the CACHE_* frames.
    fn spawn_peer() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let mut store: HashMap<CacheKey, Vec<u8>> = HashMap::new();
            // serve connections until the test closes the last one
            while let Ok((conn, _)) = listener.accept() {
                let mut reader = BufReader::new(conn.try_clone().unwrap());
                let mut writer = BufWriter::new(conn);
                while let Ok(Some(frame)) = read_frame(&mut reader) {
                    let reply = match frame {
                        Frame::CacheGet { key } => match store.get(&key) {
                            Some(artifact) => Frame::CacheFound { artifact: artifact.clone() },
                            None => Frame::CacheMiss,
                        },
                        Frame::CachePut { key, artifact } => {
                            store.insert(key, artifact);
                            Frame::CachePutOk
                        }
                        _ => Frame::Error { code: 8, message: "not a cache frame".into() },
                    };
                    if write_frame(&mut writer, &reply).is_err() || writer.flush().is_err() {
                        break;
                    }
                }
                if store.contains_key(&key(0xdead)) {
                    // the shutdown sentinel was stored; stop accepting
                    break;
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn round_trip_miss_corruption_and_shutdown() {
        let (addr, peer) = spawn_peer();
        let mut tier = RemoteCache::new(addr.clone());
        let program = CacheAutomaton::new().compile_patterns(&["remote"]).unwrap();
        let bytes = program.to_bytes();

        // miss, then store, then hit with full validation
        assert!(tier.load(&key(1)).is_none());
        tier.store(&key(1), &bytes);
        let loaded = tier.load(&key(1)).expect("stored artifact comes back");
        assert_eq!(loaded.to_bytes(), bytes, "artifact survives the wire bit-identically");

        // a corrupt blob from the peer is a counted miss, not an error
        let mut torn = bytes.clone();
        torn[30] ^= 0x10;
        tier.store(&key(2), &torn);
        assert!(tier.load(&key(2)).is_none(), "corrupt artifact is rejected");

        let s = tier.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.corrupt, s.errors), (1, 1, 2, 1, 0));
        assert!(!tier.is_broken());

        // tell the peer to stop accepting, then drop the connection
        tier.store(&key(0xdead), b"bye");
        drop(tier);
        peer.join().unwrap();

        // a tier pointed at a dead peer breaks once and goes silent
        let mut dead = RemoteCache::new(addr);
        assert!(dead.load(&key(1)).is_none());
        assert!(dead.is_broken());
        dead.store(&key(1), &bytes);
        assert!(dead.load(&key(1)).is_none());
        assert_eq!(dead.stats().errors, 1, "exactly one error despite repeated use");
    }

    #[test]
    fn scan_daemon_refusal_breaks_the_tier_quietly() {
        let ca = CacheAutomaton::new();
        let daemon =
            crate::Daemon::bind(&ca, "needle\n", "127.0.0.1:0", crate::DaemonOptions::default())
                .unwrap();

        // the refusal itself is the *typed* unsupported error (stable
        // code 9), not a generic config complaint — assert on the code a
        // remote tier keys its permanent-miss decision on
        let mut probe = Client::connect(&daemon.local_addr()).unwrap();
        let err = probe.cache_get(&key(1)).expect_err("scan daemon refuses cache frames");
        assert_eq!(err.code(), 9, "refusal carries the stable unsupported code");
        drop(probe);

        let mut tier = RemoteCache::new(daemon.local_addr());
        assert!(tier.load(&key(1)).is_none(), "refusal is a miss");
        assert!(tier.is_broken());
        assert_eq!(tier.stats().errors, 1);
        daemon.shutdown().unwrap();
    }

    /// A peer that accepts the connection and then never replies must not
    /// hang the compile: the read deadline trips, the tier latches broken
    /// with exactly one counted error, and the load degrades to a miss in
    /// bounded time.
    #[test]
    fn hung_peer_times_out_into_a_bounded_miss() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hung = std::thread::spawn(move || {
            // accept, hold the socket open, never read or write
            let conn = listener.accept().map(|(conn, _)| conn);
            std::thread::sleep(std::time::Duration::from_secs(2));
            drop(conn);
        });

        let mut tier = RemoteCache::new(addr);
        tier.set_timeout(Duration::from_millis(300));
        let started = std::time::Instant::now();
        assert!(tier.load(&key(1)).is_none(), "hung peer degrades to a miss");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "timeout bounds the stall, got {:?}",
            started.elapsed()
        );
        assert!(tier.is_broken());
        assert_eq!(tier.stats().errors, 1, "one latched error, not one per operation");

        // subsequent traffic short-circuits without touching the socket
        tier.store(&key(1), b"never sent");
        assert!(tier.load(&key(1)).is_none());
        assert_eq!(tier.stats().errors, 1);
        hung.join().unwrap();
    }
}
