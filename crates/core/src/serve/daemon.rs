//! The network serving daemon: `cactl serve` as a library.
//!
//! A [`Daemon`] is a long-running TCP or Unix-socket front-end over the
//! in-process [`ScanPool`]: each accepted connection is serviced by its
//! own thread speaking the length-prefixed wire protocol of
//! [`proto`](super::proto), and each OPEN_STREAM maps onto one pool
//! stream, so thousands of concurrent network streams multiplex over a
//! handful of worker threads, each scanning on its own fabric over the
//! program's one shared table set.
//!
//! # Backpressure
//!
//! The pool's bounded per-stream queues map directly onto per-connection
//! transport backpressure: a FEED_CHUNK whose stream is over its
//! [`PoolOptions::queue_bytes`] bound blocks the connection thread in
//! [`StreamHandle::feed`], the daemon stops reading that connection's
//! socket, the kernel's receive window fills, and the client's next write
//! stalls — no unbounded buffering at any layer. (The protocol is
//! request/reply, so a well-behaved [`Client`] is naturally clocked by
//! FEED_ACKs anyway.)
//!
//! # Hot program reload
//!
//! A RELOAD frame compiles a replacement rule set and atomically swaps
//! the daemon's *generation* — an [`Arc`] holding a [`Program`] (itself a
//! reference to one shared compiled image) and the [`ScanPool`] bound to
//! it. Streams opened after the swap bind the new generation; streams in
//! flight keep their `Arc` to the old one and drain on the program they
//! started with, so no traffic is dropped and no stream ever sees two rule
//! sets. The old generation's pool (workers and their fabrics) is torn
//! down when its last stream finishes. Reload traffic is observable as
//! `serve.reload.*` telemetry and the generation counter in STATS replies.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cache_automaton::{CacheAutomaton, Client, Daemon, DaemonOptions};
//!
//! let ca = CacheAutomaton::new();
//! let daemon = Daemon::bind(&ca, "spain\n", "127.0.0.1:0", DaemonOptions::default())?;
//! let mut client = Client::connect(&daemon.local_addr())?;
//! let (stream, generation) = client.open_stream()?;
//! assert_eq!(generation, 0);
//! client.feed(stream, b"the rain in sp")?;
//! client.feed(stream, b"ain")?;
//! let report = client.finish(stream)?;
//! assert_eq!(report.events.len(), 1);
//! drop(client);
//! daemon.shutdown()?;
//! # Ok(())
//! # }
//! ```

pub use super::net::ListenAddr;
use super::net::{dial, Conn, FrameServer, FrameService, ServerState};
use super::proto::{
    error_from_wire, read_frame, write_frame, CacheServerStats, Frame, ServerStats, WireReport,
    MAX_EVENTS_PER_MATCHES_FRAME,
};
use super::{PoolOptions, ScanPool, StreamHandle};
use crate::cache::CacheKey;
use crate::{CaError, CacheAutomaton, MatchEvent, Program};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Configuration of a [`Daemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DaemonOptions {
    /// Options of the [`ScanPool`] backing each generation (worker count,
    /// queue bound, quantum).
    pub pool: PoolOptions,
}

/// One compiled rule set and the pool serving it (the pool holds the
/// program's bitstream). Streams hold an `Arc` to their generation, so a
/// retired generation's pool survives exactly until its last in-flight
/// stream finishes.
struct Generation {
    id: u64,
    pool: ScanPool,
    /// The rule text this generation serves; an empty RELOAD recompiles it.
    rules: String,
}

struct DaemonShared {
    /// Compiles RELOAD payloads; shares the program cache with the
    /// instance the daemon was built from, so a same-rules reload is a
    /// cache hit, not a recompilation.
    compiler: CacheAutomaton,
    current: Mutex<Arc<Generation>>,
    pool_options: PoolOptions,
    server: ServerState,
    reloads: AtomicU64,
    next_generation: AtomicU64,
    streams_served: AtomicU64,
}

impl DaemonShared {
    fn stats(&self) -> ServerStats {
        let current = self.current.lock().expect("generation lock").clone();
        ServerStats {
            generation: current.id,
            reloads: self.reloads.load(Ordering::Relaxed),
            live_streams: current.pool.live_streams() as u64,
            connections: self.server.connections(),
            streams_served: self.streams_served.load(Ordering::Relaxed),
        }
    }

    /// Compiles `rules` (or the current rules when empty) and swaps in a
    /// fresh generation. In-flight streams keep draining on their own
    /// generation's pool.
    fn reload(&self, rules: String) -> Result<u64, CaError> {
        let rules = if rules.is_empty() {
            self.current.lock().expect("generation lock").rules.clone()
        } else {
            rules
        };
        let program = compile_rules(&self.compiler, &rules)?;
        let pool = ScanPool::new(&program, self.pool_options)?;
        let id = self.next_generation.fetch_add(1, Ordering::Relaxed);
        // The pool holds everything the program contributes; the program
        // value itself need not outlive compilation.
        drop(program);
        let fresh = Arc::new(Generation { id, pool, rules });
        let old = {
            let mut current = self.current.lock().expect("generation lock");
            std::mem::replace(&mut *current, fresh)
        };
        self.reloads.fetch_add(1, Ordering::Relaxed);
        self.server.telemetry.counter("serve.reload.count", 1);
        self.server.telemetry.gauge("serve.reload.generation", 0, id as f64);
        // Dropping the old Arc outside the generation lock: if no stream
        // still references it, the pool drains and joins here, without
        // stalling concurrent OPEN_STREAMs.
        drop(old);
        self.server.telemetry.flush();
        Ok(id)
    }
}

/// Builds a homogeneous NFA from rule text: an ANML document when the
/// text starts with `<`, otherwise newline-separated regex patterns
/// (blank lines and `#` comments ignored; pattern `i` reports code `i`).
/// One leading byte-order mark is dropped first, so a file saved with one
/// is sniffed by its content.
///
/// This is the one rules parser shared by `cactl` (which reads the text
/// from a file) and the daemon's RELOAD path (which receives it over the
/// wire).
///
/// # Errors
///
/// [`CaError::Config`] for an empty pattern set; otherwise ANML or regex
/// front-end errors.
pub fn nfa_from_rules_text(text: &str) -> Result<crate::HomNfa, CaError> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    if text.trim_start().starts_with('<') {
        Ok(ca_automata::anml::parse_anml(text)?)
    } else {
        let patterns: Vec<&str> =
            text.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
        if patterns.is_empty() {
            return Err(CaError::Config("no patterns found in rules text".into()));
        }
        Ok(ca_automata::regex::compile_patterns(&patterns)?)
    }
}

/// Compiles rule text with `ca` (see [`nfa_from_rules_text`]).
///
/// # Errors
///
/// Front-end or mapping-compiler failures.
pub fn compile_rules(ca: &CacheAutomaton, text: &str) -> Result<Program, CaError> {
    ca.compile_nfa(&nfa_from_rules_text(text)?)
}

/// A serving daemon bound to a socket, accepting connections on a
/// background thread (the crate's one frame server around the scan service). See the
/// [module docs](self) for the protocol, backpressure, and reload
/// semantics.
pub struct Daemon {
    server: FrameServer<DaemonShared>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("addr", self.server.local_addr())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Daemon {
    /// Compiles `rules` with `ca` (generation 0) and starts accepting
    /// connections on `addr` (see [`ListenAddr::parse`]).
    ///
    /// # Errors
    ///
    /// Compilation failures, invalid addresses, or socket bind errors.
    pub fn bind(
        ca: &CacheAutomaton,
        rules: &str,
        addr: &str,
        options: DaemonOptions,
    ) -> Result<Daemon, CaError> {
        let program = compile_rules(ca, rules)?;
        let pool = ScanPool::new(&program, options.pool)?;
        let service = Arc::new(DaemonShared {
            compiler: ca.clone(),
            current: Mutex::new(Arc::new(Generation { id: 0, pool, rules: rules.to_string() })),
            pool_options: options.pool,
            server: ServerState::new(program.telemetry()),
            reloads: AtomicU64::new(0),
            next_generation: AtomicU64::new(1),
            streams_served: AtomicU64::new(0),
        });
        Ok(Daemon { server: FrameServer::bind(addr, service)? })
    }

    /// The address the daemon actually listens on — with an ephemeral TCP
    /// port resolved, in a form [`Client::connect`] accepts.
    pub fn local_addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Current daemon counters (the same numbers a STATS frame returns).
    pub fn stats(&self) -> ServerStats {
        self.server.service().stats()
    }

    /// Stops accepting connections, joins the connection threads (which
    /// exit when their clients disconnect — close clients first), and
    /// tears down the current generation's pool.
    ///
    /// # Errors
    ///
    /// [`CaError::Internal`] if the accept or a connection thread
    /// panicked.
    pub fn shutdown(mut self) -> Result<(), CaError> {
        self.server.shutdown()
    }

    /// Blocks until the daemon shuts down (for a foreground `cactl
    /// serve`, that is "forever" — until the process is killed).
    pub fn wait(mut self) {
        self.server.wait();
    }
}

/// Per-connection stream bookkeeping: the pool stream plus the generation
/// `Arc` that keeps its pool alive across reloads.
struct ConnStream {
    handle: StreamHandle,
    /// Matches drained from the pool but not yet shipped: a single poll
    /// may surface more events than one MATCHES frame can carry, so the
    /// surplus waits here for the client's next POLL_MATCHES.
    pending: VecDeque<MatchEvent>,
    /// Never read — held purely so a retired generation's pool is not
    /// torn down while this stream still drains on it.
    _generation: Arc<Generation>,
}

/// Takes up to `cap` events off the front of `pending` (the next
/// MATCHES-frame chunk). Factored out so the chunking is testable with a
/// small cap — the real one is [`MAX_EVENTS_PER_MATCHES_FRAME`], ~1.4M
/// events, impractical to exercise end-to-end.
fn drain_capped(pending: &mut VecDeque<MatchEvent>, cap: usize) -> Vec<MatchEvent> {
    let n = pending.len().min(cap);
    pending.drain(..n).collect()
}

/// The streams one connection has open. Dropping it (the client left)
/// abandons the unfinished ones: queued work discarded, pool slots freed.
struct DaemonConn {
    streams: HashMap<u64, ConnStream>,
    /// Stream ids are daemon-assigned, scoped to the connection.
    next_stream: u64,
}

impl DaemonConn {
    fn stream(&mut self, id: u64) -> Result<&mut ConnStream, CaError> {
        self.streams.get_mut(&id).ok_or_else(|| unknown_stream(id))
    }
}

fn unknown_stream(id: u64) -> CaError {
    CaError::Config(format!("unknown stream id {id} on this connection"))
}

impl FrameService for DaemonShared {
    /// The scan daemon is not a cache peer (`cactl cache-serve` is).
    const REFUSAL: &'static str = "this daemon does not serve cache frames";

    type Conn = DaemonConn;

    fn open(&self, conn_id: u64) -> DaemonConn {
        DaemonConn { streams: HashMap::new(), next_stream: (conn_id << 32) | 1 }
    }

    fn server(&self) -> &ServerState {
        &self.server
    }

    fn handle(&self, conn: &mut DaemonConn, frame: Frame) -> Result<Option<Frame>, CaError> {
        let telemetry = &self.server.telemetry;
        Ok(Some(match frame {
            Frame::OpenStream => {
                let generation = self.current.lock().expect("generation lock").clone();
                let handle = generation.pool.open_stream()?;
                let stream = conn.next_stream;
                conn.next_stream += 1;
                let gen_id = generation.id;
                conn.streams.insert(
                    stream,
                    ConnStream { handle, pending: VecDeque::new(), _generation: generation },
                );
                self.streams_served.fetch_add(1, Ordering::Relaxed);
                telemetry.counter("serve.conn.streams", 1);
                Frame::StreamOpened { stream, generation: gen_id }
            }
            Frame::FeedChunk { stream, data } => {
                // Blocks under backpressure — which stalls this connection's
                // socket, not the daemon (see module docs).
                if let Err(e) = conn.stream(stream)?.handle.feed(&data) {
                    conn.streams.remove(&stream);
                    return Err(e);
                }
                telemetry.counter("serve.conn.rx_bytes", data.len() as u64);
                Frame::FeedAck { stream, bytes: data.len() as u64 }
            }
            Frame::PollMatches { stream } => {
                let entry = conn.stream(stream)?;
                entry.pending.extend(entry.handle.poll_matches().iter().copied());
                // Chunk under the frame cap; the surplus stays queued for the
                // client's next poll, so no MATCHES reply can be oversized.
                let events = drain_capped(&mut entry.pending, MAX_EVENTS_PER_MATCHES_FRAME);
                Frame::Matches { stream, events }
            }
            Frame::Finish { stream } => {
                let entry = conn.streams.remove(&stream).ok_or_else(|| unknown_stream(stream))?;
                let report = entry.handle.finish()?;
                // `entry._generation` drops here; if this was the last stream
                // of a retired generation, its pool drains and joins now.
                Frame::Finished {
                    stream,
                    report: WireReport { events: report.matches, exec: report.exec },
                }
            }
            Frame::Stats => Frame::StatsReply(self.stats()),
            Frame::Reload { rules } => match self.reload(rules) {
                Ok(generation) => Frame::ReloadOk { generation },
                Err(e) => {
                    telemetry.counter("serve.reload.failed", 1);
                    return Err(e);
                }
            },
            _ => return Ok(None),
        }))
    }
}

/// Socket deadlines for a [`Client`].
///
/// Every limit is a kernel-level timeout: a dial, read, or write blocked
/// past its deadline fails with a transport [`CaError::Io`] instead of
/// hanging the caller forever on a peer that accepted the connection and
/// then went silent. `None` disables that deadline.
///
/// The defaults — 5 s to connect, 30 s per read/write — are tuned for
/// scan traffic: a FEED_ACK legitimately stalls while the daemon's
/// bounded stream queue drains under backpressure, so the I/O deadlines
/// are generous. The [`RemoteCache`](crate::cache::remote::RemoteCache) tier
/// overrides them with its own much tighter budget (a cache peer answers
/// in milliseconds or is treated as broken).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    /// Deadline for the TCP connect (Unix-socket connects are immediate).
    pub connect_timeout: Option<Duration>,
    /// Deadline for each blocking read of a reply.
    pub read_timeout: Option<Duration>,
    /// Deadline for each blocking write of a request.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions {
            connect_timeout: Some(Duration::from_secs(5)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ClientOptions {
    /// One deadline for connect, read, and write alike — the shape cache
    /// tiers want: any stall past `timeout` is a transport error.
    pub fn uniform(timeout: Duration) -> ClientOptions {
        ClientOptions {
            connect_timeout: Some(timeout),
            read_timeout: Some(timeout),
            write_timeout: Some(timeout),
        }
    }
}

/// A synchronous client of a serving daemon: one connection, blocking
/// request/reply per call. Used by `cactl connect`, the soak tests and
/// `cabench`'s serve pass — and small enough to crib for real
/// integrations.
pub struct Client {
    reader: BufReader<Conn>,
    writer: BufWriter<Conn>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects to a daemon at `addr` (`host:port` or `unix:<path>`)
    /// with the default [`ClientOptions`] deadlines.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] for an unparsable address, [`CaError::Io`] for
    /// connection failures (including a connect past its deadline).
    pub fn connect(addr: &str) -> Result<Client, CaError> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit socket deadlines.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(addr: &str, options: ClientOptions) -> Result<Client, CaError> {
        let addr = ListenAddr::parse(addr)?;
        let conn = dial(&addr, options.connect_timeout)?;
        conn.set_timeouts(options.read_timeout, options.write_timeout)
            .map_err(|e| CaError::Io(format!("set socket timeouts: {e}")))?;
        let (reader, writer) = conn.split()?;
        Ok(Client { reader, writer })
    }

    fn request(&mut self, frame: &Frame) -> Result<Frame, CaError> {
        write_frame(&mut self.writer, frame)?;
        self.writer.flush().map_err(|e| CaError::Io(format!("flushing request: {e}")))?;
        match read_frame(&mut self.reader)? {
            Some(Frame::Error { code, message }) => Err(error_from_wire(code, message)),
            Some(reply) => Ok(reply),
            None => Err(CaError::Io("daemon closed the connection".into())),
        }
    }

    /// Opens a stream; returns `(stream_id, generation)`.
    ///
    /// # Errors
    ///
    /// Daemon-reported errors (typed via the shared code table) or
    /// transport failures.
    pub fn open_stream(&mut self) -> Result<(u64, u64), CaError> {
        match self.request(&Frame::OpenStream)? {
            Frame::StreamOpened { stream, generation } => Ok((stream, generation)),
            other => Err(unexpected_reply("STREAM_OPENED", &other)),
        }
    }

    /// Feeds one chunk and waits for its acknowledgement.
    ///
    /// # Errors
    ///
    /// Daemon-reported errors or transport failures.
    pub fn feed(&mut self, stream: u64, chunk: &[u8]) -> Result<(), CaError> {
        let reply = self.request(&Frame::FeedChunk { stream, data: chunk.to_vec() })?;
        match reply {
            Frame::FeedAck { stream: s, bytes } if s == stream && bytes == chunk.len() as u64 => {
                Ok(())
            }
            other => Err(unexpected_reply("FEED_ACK", &other)),
        }
    }

    /// Drains matches reported since the previous poll of `stream`.
    ///
    /// # Errors
    ///
    /// Daemon-reported errors or transport failures.
    pub fn poll_matches(&mut self, stream: u64) -> Result<Vec<MatchEvent>, CaError> {
        match self.request(&Frame::PollMatches { stream })? {
            Frame::Matches { stream: s, events } if s == stream => Ok(events),
            other => Err(unexpected_reply("MATCHES", &other)),
        }
    }

    /// Closes `stream` and waits for its final report.
    ///
    /// # Errors
    ///
    /// Daemon-reported errors or transport failures.
    pub fn finish(&mut self, stream: u64) -> Result<WireReport, CaError> {
        match self.request(&Frame::Finish { stream })? {
            Frame::Finished { stream: s, report } if s == stream => Ok(report),
            other => Err(unexpected_reply("FINISHED", &other)),
        }
    }

    /// Fetches daemon counters.
    ///
    /// # Errors
    ///
    /// Daemon-reported errors or transport failures.
    pub fn stats(&mut self) -> Result<ServerStats, CaError> {
        match self.request(&Frame::Stats)? {
            Frame::StatsReply(stats) => Ok(stats),
            other => Err(unexpected_reply("STATS_REPLY", &other)),
        }
    }

    /// Requests a hot reload; `rules` is the replacement rule text, or
    /// `None` to recompile the daemon's current rules (a generation bump
    /// to an identical program). Returns the new generation counter.
    ///
    /// # Errors
    ///
    /// Compilation failures reported by the daemon, or transport
    /// failures. A failed reload leaves the old generation serving.
    pub fn reload(&mut self, rules: Option<&str>) -> Result<u64, CaError> {
        match self.request(&Frame::Reload { rules: rules.unwrap_or("").to_string() })? {
            Frame::ReloadOk { generation } => Ok(generation),
            other => Err(unexpected_reply("RELOAD_OK", &other)),
        }
    }

    /// Asks a cache peer for the artifact stored under `key`. `Ok(None)`
    /// is a clean miss; the returned bytes are *unvalidated* — callers
    /// decode (checksum included) before trusting them.
    ///
    /// # Errors
    ///
    /// Peer-reported errors (including a peer that does not serve cache
    /// frames) or transport failures.
    pub fn cache_get(&mut self, key: &CacheKey) -> Result<Option<Vec<u8>>, CaError> {
        match self.request(&Frame::CacheGet { key: *key })? {
            Frame::CacheFound { artifact } => Ok(Some(artifact)),
            Frame::CacheMiss => Ok(None),
            other => Err(unexpected_reply("CACHE_FOUND or CACHE_MISS", &other)),
        }
    }

    /// Offers a cache peer the `CAPR` `artifact` compiled under `key`.
    ///
    /// # Errors
    ///
    /// Peer-reported errors or transport failures (an artifact over the
    /// frame cap is refused client-side, before anything is written).
    pub fn cache_put(&mut self, key: &CacheKey, artifact: &[u8]) -> Result<(), CaError> {
        match self.request(&Frame::CachePut { key: *key, artifact: artifact.to_vec() })? {
            Frame::CachePutOk => Ok(()),
            other => Err(unexpected_reply("CACHE_PUT_OK", &other)),
        }
    }

    /// Fetches a cache peer's counters (the `cache.serve.*` numbers plus
    /// its disk inventory).
    ///
    /// # Errors
    ///
    /// Peer-reported errors (a scan daemon refuses with the Unsupported
    /// code) or transport failures.
    pub fn cache_stats(&mut self) -> Result<CacheServerStats, CaError> {
        match self.request(&Frame::CacheStats)? {
            Frame::CacheStatsReply(stats) => Ok(stats),
            other => Err(unexpected_reply("CACHE_STATS_REPLY", &other)),
        }
    }
}

fn unexpected_reply(wanted: &str, got: &Frame) -> CaError {
    CaError::Protocol(format!("expected a {wanted} reply, got {:?}", std::mem::discriminant(got)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_text_front_end() {
        let nfa = nfa_from_rules_text("# comment\n\nrain\nsp[ai]n\n").unwrap();
        assert!(!nfa.is_empty());
        assert!(matches!(
            nfa_from_rules_text("# only comments\n").unwrap_err(),
            CaError::Config(_)
        ));
    }

    #[test]
    fn byte_order_mark_does_not_change_the_front_end() {
        let document = "<anml-network id=\"bom\">\n\
                        <state-transition-element id=\"only\" symbol-set=\"a\" start=\"all-input\">\n\
                        <report-on-match reportcode=\"3\"/>\n\
                        </state-transition-element>\n</anml-network>\n";
        let nfa = nfa_from_rules_text(document).unwrap();
        assert_eq!(nfa.len(), 1);
        assert_eq!(nfa_from_rules_text(&format!("\u{feff}{document}")).unwrap(), nfa);
        // A pattern list stays a pattern list, and its first pattern does
        // not acquire the mark.
        let patterns = "rain\nsp[ai]n\n";
        assert_eq!(
            nfa_from_rules_text(&format!("\u{feff}{patterns}")).unwrap(),
            nfa_from_rules_text(patterns).unwrap()
        );
    }

    #[test]
    fn daemon_round_trip_and_reload_on_tcp() {
        let ca = CacheAutomaton::new();
        let daemon =
            Daemon::bind(&ca, "needle\n", "127.0.0.1:0", DaemonOptions::default()).unwrap();
        let mut client = Client::connect(&daemon.local_addr()).unwrap();

        let (stream, generation) = client.open_stream().unwrap();
        assert_eq!(generation, 0);
        client.feed(stream, b"hay nee").unwrap();
        client.feed(stream, b"dle hay").unwrap();
        let polled = client.poll_matches(stream).unwrap();
        let report = client.finish(stream).unwrap();
        assert_eq!(report.events.len(), 1);
        assert!(polled.len() <= 1, "poll may race the worker, never over-delivers");

        // Reload to a different rule set; new streams see the new rules.
        let generation = client.reload(Some("hay\n")).unwrap();
        assert_eq!(generation, 1);
        let (stream, bound) = client.open_stream().unwrap();
        assert_eq!(bound, 1);
        client.feed(stream, b"hay nee").unwrap();
        let report = client.finish(stream).unwrap();
        assert_eq!(report.events.len(), 1, "matches 'hay' under the reloaded rules");

        let stats = client.stats().unwrap();
        assert_eq!(stats.generation, 1);
        assert_eq!(stats.reloads, 1);
        assert_eq!(stats.streams_served, 2);
        assert_eq!(stats.connections, 1);

        // A failing reload leaves the serving generation untouched.
        let err = client.reload(Some("(\n")).unwrap_err();
        assert_eq!(err.code(), 4, "regex parse error crosses the wire with its code");
        assert_eq!(client.stats().unwrap().generation, 1);

        drop(client);
        daemon.shutdown().unwrap();
    }

    #[test]
    fn poll_chunking_preserves_order_and_surplus() {
        let mut pending: VecDeque<MatchEvent> =
            (0..10u64).map(|i| MatchEvent::new(i, ca_automata::ReportCode(7))).collect();
        let first = drain_capped(&mut pending, 4);
        assert_eq!(first.iter().map(|e| e.pos).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(pending.len(), 6, "surplus stays queued");
        let second = drain_capped(&mut pending, 4);
        assert_eq!(second.iter().map(|e| e.pos).collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        let rest = drain_capped(&mut pending, 4);
        assert_eq!(rest.iter().map(|e| e.pos).collect::<Vec<_>>(), vec![8, 9]);
        assert!(drain_capped(&mut pending, 4).is_empty());
    }

    #[test]
    fn unknown_stream_is_a_typed_config_error() {
        let ca = CacheAutomaton::new();
        let daemon =
            Daemon::bind(&ca, "needle\n", "127.0.0.1:0", DaemonOptions::default()).unwrap();
        let mut client = Client::connect(&daemon.local_addr()).unwrap();
        let err = client.feed(99, b"x").unwrap_err();
        assert!(matches!(err, CaError::Config(_)), "{err}");
        // the connection survives the error
        let (stream, _) = client.open_stream().unwrap();
        client.feed(stream, b"x").unwrap();
        drop(client);
        daemon.shutdown().unwrap();
    }
}
