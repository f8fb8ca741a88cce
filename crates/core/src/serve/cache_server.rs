//! The remote cache tier's server half: `cactl cache-serve` as a library.
//!
//! A [`CacheServer`] answers CACHE_GET / CACHE_PUT / CACHE_STATS frames
//! of the [wire protocol](super::proto). It is the same frame server as
//! the scan [`Daemon`](super::daemon::Daemon) around a different service
//! (`serve/net.rs`), backed by a [`DiskCache`] — so the fleet tier
//! inherits the disk tier's semantics wholesale:
//!
//! * **Lookups** go through the disk tier's validated read path: a
//!   stored artifact that fails checksum or decode is quarantined
//!   server-side and answered as a MISS, never shipped.
//! * **Stores** are validated before anything touches disk:
//!   [`Program::from_bytes`] must fully decode the inbound artifact, or
//!   the CACHE_PUT is refused with a typed artifact error (code 6) and
//!   counted under `cache.serve.rejected` — one buggy client cannot
//!   poison the fleet. Accepted artifacts are written atomically under
//!   the tier's advisory locking.
//! * **Scan frames are refused** with the typed Unsupported error
//!   (code 9), mirroring the scan daemon refusing cache frames: the frame
//!   server refuses whatever its service does not serve against a stable
//!   code.
//!
//! Request counters surface as `cache.serve.*` telemetry and through
//! CACHE_STATS (`cactl cache stats --remote <addr>`).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cache_automaton::{CacheAutomaton, CacheServer};
//!
//! let dir = std::env::temp_dir().join(format!("ca-peer-doc-{}", std::process::id()));
//! let server = CacheServer::bind("127.0.0.1:0", &dir)?;
//!
//! // a fleet member pointed at the peer: compile once here...
//! let a = CacheAutomaton::builder().remote_cache(server.local_addr()).build();
//! a.compile_patterns(&["spain"])?;
//!
//! // ...and a different process (fresh instance, no shared memory or
//! // disk) warm-starts through the peer.
//! let b = CacheAutomaton::builder().remote_cache(server.local_addr()).build();
//! b.compile_patterns(&["spain"])?;
//! assert_eq!(server.stats().hits, 1);
//!
//! server.shutdown()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

use super::net::{FrameServer, FrameService, ServerState};
use super::proto::{CacheServerStats, Frame};
use crate::cache::disk::DiskCache;
use crate::cache::{CacheKey, CacheTier};
use crate::{CaError, Program};
use ca_telemetry::Telemetry;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

struct CacheServerShared {
    /// The disk tier all connections share and the request counters; the
    /// mutex serializes request handling (artifact I/O is milliseconds —
    /// contention is not a concern at cache-peer request rates).
    store: Mutex<Store>,
    server: ServerState,
}

struct Store {
    disk: DiskCache,
    /// The request counters; the disk-inventory fields stay zero here and
    /// are filled in per STATS request.
    served: CacheServerStats,
}

impl CacheServerShared {
    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().expect("cache store lock")
    }

    fn bump(&self, counter: &mut u64, name: &'static str, by: u64) {
        *counter += by;
        self.server.telemetry.counter(name, by);
    }

    fn stats(&self) -> CacheServerStats {
        let store = self.store();
        let (entries, disk_bytes) = store.disk.scan().unwrap_or((0, 0));
        CacheServerStats { entries, disk_bytes, ..store.served }
    }

    fn cache_get(&self, key: &CacheKey) -> Frame {
        let store = &mut *self.store();
        match store.disk.load_bytes(key) {
            Some(artifact) => {
                self.bump(&mut store.served.hits, "cache.serve.hits", 1);
                let bytes = artifact.len() as u64;
                self.bump(&mut store.served.bytes_served, "cache.serve.bytes_served", bytes);
                Frame::CacheFound { artifact }
            }
            None => {
                self.bump(&mut store.served.misses, "cache.serve.misses", 1);
                Frame::CacheMiss
            }
        }
    }

    fn cache_put(&self, key: &CacheKey, artifact: &[u8]) -> Result<Frame, CaError> {
        // Full validation before anything is persisted: magic, version,
        // checksum, and a structural decode. A peer cannot be poisoned by
        // one buggy (or hostile) client.
        let valid = Program::from_bytes(artifact);
        let store = &mut *self.store();
        if let Err(e) = valid {
            self.bump(&mut store.served.rejected, "cache.serve.rejected", 1);
            return Err(e);
        }
        store.disk.store(key, artifact);
        self.bump(&mut store.served.puts, "cache.serve.puts", 1);
        let bytes = artifact.len() as u64;
        self.bump(&mut store.served.bytes_stored, "cache.serve.bytes_stored", bytes);
        Ok(Frame::CachePutOk)
    }
}

impl FrameService for CacheServerShared {
    /// The mirror image of the scan daemon refusing cache frames: a cache
    /// peer does not scan.
    const REFUSAL: &'static str = "this cache peer does not serve scan frames";

    type Conn = ();

    fn open(&self, _conn_id: u64) {}

    fn server(&self) -> &ServerState {
        &self.server
    }

    fn handle(&self, _conn: &mut (), frame: Frame) -> Result<Option<Frame>, CaError> {
        Ok(Some(match frame {
            Frame::CacheGet { key } => self.cache_get(&key),
            Frame::CachePut { key, artifact } => self.cache_put(&key, &artifact)?,
            Frame::CacheStats => Frame::CacheStatsReply(self.stats()),
            _ => return Ok(None),
        }))
    }
}

/// A cache peer bound to a socket, accepting connections on a background
/// thread. See the [module docs](self) for semantics.
pub struct CacheServer {
    server: FrameServer<CacheServerShared>,
}

impl std::fmt::Debug for CacheServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheServer")
            .field("addr", self.server.local_addr())
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheServer {
    /// Binds a cache peer on `addr` (see
    /// [`ListenAddr::parse`](super::net::ListenAddr::parse)) serving the
    /// [`DiskCache`] rooted at `cache_dir` (created lazily on the first
    /// store, exactly like a local disk tier).
    ///
    /// # Errors
    ///
    /// Invalid addresses or socket bind errors.
    pub fn bind<P: Into<PathBuf>>(addr: &str, cache_dir: P) -> Result<CacheServer, CaError> {
        CacheServer::bind_with_telemetry(addr, cache_dir, Telemetry::disabled())
    }

    /// Like [`bind`](CacheServer::bind), routing `cache.serve.*` and the
    /// underlying tier's `cache.disk.*` events to `telemetry`.
    ///
    /// # Errors
    ///
    /// As [`bind`](CacheServer::bind).
    pub fn bind_with_telemetry<P: Into<PathBuf>>(
        addr: &str,
        cache_dir: P,
        telemetry: Telemetry,
    ) -> Result<CacheServer, CaError> {
        let mut disk = DiskCache::new(cache_dir);
        disk.set_telemetry(telemetry.clone());
        let service = Arc::new(CacheServerShared {
            store: Mutex::new(Store { disk, served: CacheServerStats::default() }),
            server: ServerState::new(telemetry),
        });
        Ok(CacheServer { server: FrameServer::bind(addr, service)? })
    }

    /// The address the peer actually listens on — with an ephemeral TCP
    /// port resolved, in a form clients and
    /// [`Builder::remote_cache`](crate::Builder::remote_cache) accept.
    pub fn local_addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Current request counters plus disk inventory (the same numbers a
    /// CACHE_STATS frame returns).
    pub fn stats(&self) -> CacheServerStats {
        self.server.service().stats()
    }

    /// Stops accepting and joins connection threads (which exit when
    /// their clients disconnect — close clients first).
    ///
    /// # Errors
    ///
    /// [`CaError::Internal`] if a server thread panicked.
    pub fn shutdown(mut self) -> Result<(), CaError> {
        self.server.shutdown()
    }

    /// Blocks until the server shuts down (for a foreground `cactl
    /// cache-serve`, that is "forever" — until the process is killed).
    pub fn wait(mut self) {
        self.server.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::daemon::Client;
    use crate::{CacheAutomaton, Design};
    use ca_automata::Fingerprint;

    fn key(fp: u128) -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(fp),
            design: Design::Performance,
            slices: 8,
            seed: 0xca,
            optimized: false,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ca-cacheserver-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn get_put_stats_round_trip_over_the_wire() {
        let dir = scratch("roundtrip");
        let server = CacheServer::bind("127.0.0.1:0", &dir).unwrap();
        let mut client = Client::connect(&server.local_addr()).unwrap();

        let program = CacheAutomaton::new().compile_patterns(&["peer"]).unwrap();
        let bytes = program.to_bytes();

        assert_eq!(client.cache_get(&key(1)).unwrap(), None, "cold peer misses");
        client.cache_put(&key(1), &bytes).unwrap();
        let served = client.cache_get(&key(1)).unwrap().expect("stored artifact comes back");
        assert_eq!(served, bytes, "artifact survives the peer bit-identically");

        // a second connection sees the same store (it is on disk)
        let mut other = Client::connect(&server.local_addr()).unwrap();
        assert!(other.cache_get(&key(1)).unwrap().is_some());

        let stats = client.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.puts, stats.rejected), (2, 1, 1, 0));
        assert_eq!(stats.bytes_served, 2 * bytes.len() as u64);
        assert_eq!(stats.bytes_stored, bytes.len() as u64);
        assert_eq!(stats.entries, 1);
        assert!(stats.disk_bytes >= bytes.len() as u64);
        assert_eq!(stats, server.stats(), "wire stats equal in-process stats");

        drop(client);
        drop(other);
        server.shutdown().unwrap();
    }

    #[test]
    fn invalid_puts_are_rejected_and_never_persisted() {
        let dir = scratch("poison");
        let server = CacheServer::bind("127.0.0.1:0", &dir).unwrap();
        let mut client = Client::connect(&server.local_addr()).unwrap();

        let program = CacheAutomaton::new().compile_patterns(&["x"]).unwrap();
        let mut torn = program.to_bytes();
        let mid = torn.len() / 2;
        torn[mid] ^= 0xff;

        for garbage in [&b"not an artifact"[..], &torn] {
            let err = client.cache_put(&key(7), garbage).unwrap_err();
            assert_eq!(err.code(), 6, "refused with the artifact code: {err}");
        }
        assert_eq!(client.cache_get(&key(7)).unwrap(), None, "nothing was persisted");
        let stats = client.cache_stats().unwrap();
        assert_eq!(stats.rejected, 2);
        assert_eq!((stats.puts, stats.entries), (0, 0));
        // the connection survived every refusal
        client.cache_put(&key(7), &program.to_bytes()).unwrap();
        assert!(client.cache_get(&key(7)).unwrap().is_some());

        drop(client);
        server.shutdown().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn serves_on_a_unix_socket() {
        let dir = scratch("unix");
        let sock = std::env::temp_dir().join(format!(
            "ca-peer-{}-{:?}.sock",
            std::process::id(),
            std::thread::current().id()
        ));
        let server = CacheServer::bind(&format!("unix:{}", sock.display()), &dir).unwrap();
        let mut client = Client::connect(&server.local_addr()).unwrap();
        assert_eq!(client.cache_get(&key(1)).unwrap(), None);
        drop(client);
        server.shutdown().unwrap();
        assert!(!sock.exists(), "socket file unlinked at shutdown");
    }

    /// A quarantined (corrupted-on-disk) artifact is answered as a miss
    /// and never shipped — the server half of the disk tier's corruption
    /// policy.
    #[test]
    fn corrupt_stored_artifact_is_quarantined_and_missed() {
        let dir = scratch("quarantine");
        let server = CacheServer::bind("127.0.0.1:0", &dir).unwrap();
        let mut client = Client::connect(&server.local_addr()).unwrap();
        let program = CacheAutomaton::new().compile_patterns(&["q"]).unwrap();
        client.cache_put(&key(2), &program.to_bytes()).unwrap();

        // flip a byte on disk behind the server's back
        let path = DiskCache::new(&dir).artifact_path(&key(2));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(client.cache_get(&key(2)).unwrap(), None, "corrupt entry is a miss");
        assert!(!path.exists(), "entry left the lookup path");
        let quarantined = path.with_extension("capr.corrupt");
        assert!(quarantined.exists(), "entry preserved for post-mortems");
        let stats = client.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 1, 0));

        drop(client);
        server.shutdown().unwrap();
    }
}
