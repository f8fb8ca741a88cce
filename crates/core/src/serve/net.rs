//! Shared network plumbing for every wire-protocol server and client:
//! address grammar, the TCP/Unix connection abstraction, dialing with a
//! connect timeout, and the one frame server both the scan daemon
//! ([`Daemon`](super::daemon::Daemon)) and the cache peer
//! ([`CacheServer`](super::cache_server::CacheServer)) are.
//!
//! A [`FrameServer`] owns everything that is not the meaning of a request:
//! bind, accept, one thread per connection, the read → handle → reply →
//! flush loop, the typed goodbye on an undecodable frame, the downgrade of
//! an oversized reply to a typed ERROR, the refusal of request kinds the
//! service does not serve (code 9) and of reply kinds sent by a client
//! (code 8), connection accounting (`serve.conn.*`), wake-and-join
//! shutdown, Unix-socket unlinking and panic accounting. A
//! [`FrameService`] supplies per-connection state and `handle`.

use super::proto::{error_to_wire, read_frame, write_frame, Frame};
use crate::CaError;
use ca_telemetry::Telemetry;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a server listens (or a client connects).
///
/// Parsed from the `--listen` string: `unix:<path>` (or any string
/// containing `/`) selects a Unix-domain socket, `host:port` selects TCP.
/// Port `0` binds an ephemeral port — read it back with
/// `local_addr` of the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// A TCP endpoint, `host:port`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses an address string (see the type docs for the grammar).
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] when the string is neither form, or names a
    /// Unix socket on a platform without them.
    pub fn parse(s: &str) -> Result<ListenAddr, CaError> {
        let unix = |path: &str| {
            if cfg!(unix) {
                Ok(ListenAddr::Unix(PathBuf::from(path)))
            } else {
                Err(CaError::Config("unix sockets are not available on this platform".into()))
            }
        };
        if let Some(path) = s.strip_prefix("unix:") {
            unix(path)
        } else if s.contains('/') {
            unix(s)
        } else if s.contains(':') {
            Ok(ListenAddr::Tcp(s.to_string()))
        } else {
            Err(CaError::Config(format!(
                "listen address '{s}' is neither host:port nor unix:<path>"
            )))
        }
    }
}

impl std::fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "{addr}"),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let stream = l.accept()?.0;
                stream.set_nodelay(true).ok();
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }
}

/// One accepted or dialed connection, either transport.
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Evaluates `$body` with `$s` bound to the stream inside `$conn`: the two
/// socket types share every method used here but no trait.
macro_rules! on_stream {
    ($conn:expr, $s:ident => $body:expr) => {
        match $conn {
            Conn::Tcp($s) => $body,
            #[cfg(unix)]
            Conn::Unix($s) => $body,
        }
    };
}

impl Conn {
    pub(crate) fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// The buffered read and write halves every frame loop works on.
    pub(crate) fn split(self) -> Result<(BufReader<Conn>, BufWriter<Conn>), CaError> {
        let reader = self.try_clone().map_err(|e| CaError::Io(format!("clone socket: {e}")))?;
        Ok((BufReader::new(reader), BufWriter::new(self)))
    }

    /// Severs the socket in both directions: a peer (or handler thread)
    /// blocked in a read sees EOF immediately. Used by
    /// [`FrameServer::shutdown`] to unblock connection threads whose
    /// clients are still attached.
    pub(crate) fn shutdown_both(&self) {
        let _ = on_stream!(self, s => s.shutdown(std::net::Shutdown::Both));
    }

    /// Installs kernel-level read/write deadlines on the socket. `None`
    /// means "block forever" (the pre-timeout behaviour). A blocked read
    /// or write past its deadline fails with `WouldBlock`/`TimedOut`,
    /// which the framing layer surfaces as a transport [`CaError::Io`].
    pub(crate) fn set_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> std::io::Result<()> {
        on_stream!(self, s => s.set_read_timeout(read).and_then(|()| s.set_write_timeout(write)))
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        on_stream!(self, s => s.read(buf))
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        on_stream!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        on_stream!(self, s => s.flush())
    }
}

/// Dials `addr`, bounding the TCP connect by `connect_timeout` when one
/// is given. (Unix-socket connects complete or fail immediately in the
/// kernel, so no deadline is needed there.)
pub(crate) fn dial(addr: &ListenAddr, connect_timeout: Option<Duration>) -> Result<Conn, CaError> {
    match addr {
        ListenAddr::Tcp(a) => {
            let stream = match connect_timeout {
                None => TcpStream::connect(a),
                // connect_timeout needs resolved addresses; try each in
                // turn so a multi-homed name behaves like connect().
                Some(timeout) => {
                    let mut last = std::io::Error::other("no addresses resolved");
                    let addrs = a.to_socket_addrs();
                    let addrs = addrs.map_err(|e| CaError::Io(format!("resolve {a}: {e}")))?;
                    addrs
                        .into_iter()
                        .find_map(|sa| {
                            TcpStream::connect_timeout(&sa, timeout).map_err(|e| last = e).ok()
                        })
                        .ok_or(last)
                }
            }
            .map_err(|e| CaError::Io(format!("connect {a}: {e}")))?;
            stream.set_nodelay(true).ok();
            Ok(Conn::Tcp(stream))
        }
        #[cfg(unix)]
        ListenAddr::Unix(path) => Ok(Conn::Unix(
            UnixStream::connect(path)
                .map_err(|e| CaError::Io(format!("connect unix:{}: {e}", path.display())))?,
        )),
        #[cfg(not(unix))]
        ListenAddr::Unix(_) => {
            Err(CaError::Config("unix sockets are not available on this platform".into()))
        }
    }
}

/// What a wire-protocol server does with its requests; everything around
/// that — transport, framing, refusals, accounting, lifecycle — is
/// [`FrameServer`]'s.
pub(crate) trait FrameService: Send + Sync + 'static {
    /// Message of the typed [`CaError::Unsupported`] refusal sent for the
    /// request kinds [`handle`](FrameService::handle) does not answer.
    const REFUSAL: &'static str;

    /// State one connection carries between its requests.
    type Conn;

    /// State for a freshly accepted connection.
    fn open(&self, conn_id: u64) -> Self::Conn;

    /// Answers one client request, or returns `Ok(None)` for a request
    /// kind this service does not serve.
    ///
    /// # Errors
    ///
    /// Whatever the request ran into; the server sends it as a typed ERROR
    /// reply and keeps the connection.
    fn handle(&self, conn: &mut Self::Conn, frame: Frame) -> Result<Option<Frame>, CaError>;

    /// The server-side state every service embeds.
    fn server(&self) -> &ServerState;
}

/// State a [`FrameServer`] keeps inside its service, so request handlers
/// can see it too: the telemetry handle and the table of open connections.
pub(crate) struct ServerState {
    pub(crate) telemetry: Telemetry,
    table: Mutex<ConnTable>,
}

#[derive(Default)]
struct ConnTable {
    /// A severing handle and the thread of every open connection, by
    /// connection id. A connection's thread removes its own entry on exit,
    /// so a long-running server holds nothing for clients that have left.
    live: HashMap<u64, (Conn, JoinHandle<()>)>,
    /// The latest thread past its exit ticket, not yet joined: each
    /// exiting thread joins its predecessor and leaves itself here.
    exited: Option<JoinHandle<()>>,
    /// Connection threads that ended in a panic.
    panicked: usize,
}

impl ServerState {
    pub(crate) fn new(telemetry: Telemetry) -> ServerState {
        ServerState { telemetry, table: Mutex::default() }
    }

    /// Connections currently accepted and not yet closed.
    pub(crate) fn connections(&self) -> u64 {
        self.table().live.len() as u64
    }

    fn table(&self) -> MutexGuard<'_, ConnTable> {
        // Every update is a single insert, remove or swap, so the table is
        // valid even if a holder panicked; exit tickets run in `Drop` and
        // must not panic on poison.
        self.table.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn connection_count_changed(&self, event: &'static str, live: usize) {
        self.telemetry.counter(event, 1);
        self.telemetry.gauge("serve.conn.live", 0, live as f64);
    }
}

/// Held by a connection thread for its whole life; dropping it (on return
/// or unwind) takes the connection out of the table.
struct ExitTicket<S: FrameService> {
    service: Arc<S>,
    conn_id: u64,
}

impl<S: FrameService> Drop for ExitTicket<S> {
    fn drop(&mut self) {
        let state = self.service.server();
        let mut table = state.table();
        table.panicked += usize::from(std::thread::panicking());
        // Dropping the entry closes the severing handle. The entry is gone
        // already when shutdown claimed it to join this thread itself.
        let own = table.live.remove(&self.conn_id);
        let earlier = own.and_then(|(_severing, own)| table.exited.replace(own));
        let live = table.live.len();
        drop(table);
        if let Some(thread) = earlier {
            let _ = thread.join(); // its panic, if any, is already counted
        }
        state.connection_count_changed("serve.conn.closed", live);
        state.telemetry.flush();
    }
}

/// Pause after a failed accept or thread spawn: a persistent failure (file
/// descriptors exhausted) must not turn the accept loop into a busy spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// A wire-protocol server: binds a socket, accepts on a background
/// thread, and runs the request loop of one [`FrameService`] on a thread
/// per connection. The scan daemon and the cache peer are both this type
/// around their service.
pub(crate) struct FrameServer<S: FrameService> {
    service: Arc<S>,
    local_addr: ListenAddr,
    down: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    /// Unix-socket path to unlink on shutdown.
    unlink_on_drop: Option<PathBuf>,
}

impl<S: FrameService> FrameServer<S> {
    /// Binds `addr` (see [`ListenAddr::parse`]) and starts serving
    /// `service`. Connection ids are unique per server.
    ///
    /// # Errors
    ///
    /// Invalid addresses or socket bind errors.
    pub(crate) fn bind(addr: &str, service: Arc<S>) -> Result<FrameServer<S>, CaError> {
        let addr = ListenAddr::parse(addr)?;
        let (listener, local_addr, unlink_on_drop) = match &addr {
            ListenAddr::Tcp(a) => {
                let listener =
                    TcpListener::bind(a).map_err(|e| CaError::Io(format!("bind {a}: {e}")))?;
                let local = listener
                    .local_addr()
                    .map_err(|e| CaError::Io(format!("local_addr: {e}")))?
                    .to_string();
                (Listener::Tcp(listener), ListenAddr::Tcp(local), None)
            }
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                // A stale socket file from a previous server refuses the
                // bind; replace it.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)
                    .map_err(|e| CaError::Io(format!("bind unix:{}: {e}", path.display())))?;
                (Listener::Unix(listener), addr.clone(), Some(path.clone()))
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => unreachable!("rejected by ListenAddr::parse"),
        };
        let down = Arc::new(AtomicBool::new(false));
        let (accept_down, accept_service) = (Arc::clone(&down), Arc::clone(&service));
        let accept_thread = std::thread::spawn(move || {
            for conn_id in 0u64.. {
                let accepted = listener.accept();
                if accept_down.load(Ordering::SeqCst) {
                    return;
                }
                // Without a severing handle shutdown could not unblock the
                // connection's reads, so a connection that cannot be cloned
                // (or accepted, or given a thread) is dropped.
                let served = accepted.and_then(|conn| Ok((conn.try_clone()?, conn))).and_then(
                    |(severing, conn)| spawn_connection(&accept_service, severing, conn, conn_id),
                );
                if served.is_err() {
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        });
        Ok(FrameServer {
            service,
            local_addr,
            down,
            accept_thread: Some(accept_thread),
            unlink_on_drop,
        })
    }

    /// The address the server actually listens on — with an ephemeral TCP
    /// port resolved, in a form `ListenAddr::parse` round-trips.
    pub(crate) fn local_addr(&self) -> &ListenAddr {
        &self.local_addr
    }

    /// The service being served.
    pub(crate) fn service(&self) -> &S {
        &self.service
    }

    /// Stops accepting, severs any connections whose clients are still
    /// attached (their handlers see EOF), joins the accept and connection
    /// threads and flushes telemetry. A second call does nothing.
    ///
    /// # Errors
    ///
    /// [`CaError::Internal`] if the accept or a connection thread
    /// panicked.
    pub(crate) fn shutdown(&mut self) -> Result<(), CaError> {
        let Some(accept_thread) = self.accept_thread.take() else {
            return Ok(());
        };
        self.down.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = dial(&self.local_addr, Some(Duration::from_secs(1)));
        let mut failed = usize::from(accept_thread.join().is_err());
        // With accept stopped the table is final. Claim every thread, and
        // force EOF on the open connections so blocked reads return.
        let state = self.service.server();
        let (live, exited) = {
            let mut table = state.table();
            (std::mem::take(&mut table.live), table.exited.take())
        };
        let mut threads = Vec::from_iter(exited);
        for (_, (conn, thread)) in live {
            conn.shutdown_both();
            threads.push(thread);
        }
        for thread in threads {
            let _ = thread.join(); // panics are counted by the exit tickets
        }
        failed += state.table().panicked;
        if let Some(path) = self.unlink_on_drop.take() {
            let _ = std::fs::remove_file(path);
        }
        state.telemetry.flush();
        if failed > 0 {
            return Err(CaError::Internal(format!("{failed} server thread(s) panicked")));
        }
        Ok(())
    }

    /// Blocks until the server shuts down (for a foreground `cactl serve`
    /// or `cache-serve`, that is "forever" — until the process is killed).
    pub(crate) fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl<S: FrameService> Drop for FrameServer<S> {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// Starts the thread of one accepted connection and enters it in the table.
fn spawn_connection<S: FrameService>(
    service: &Arc<S>,
    severing: Conn,
    conn: Conn,
    conn_id: u64,
) -> std::io::Result<()> {
    let state = service.server();
    // The table is locked across the spawn so that the thread's exit
    // ticket, which takes the same lock, always finds its entry.
    let mut table = state.table();
    let thread_service = Arc::clone(service);
    let thread = std::thread::Builder::new().spawn(move || {
        let ticket = ExitTicket { service: thread_service, conn_id };
        // A connection failing is that connection's problem; the server
        // keeps serving. The error was already reported to the peer where
        // possible.
        let _ = serve_connection(&*ticket.service, conn, conn_id);
    })?;
    table.live.insert(conn_id, (severing, thread));
    let live = table.live.len();
    drop(table);
    state.connection_count_changed("serve.conn.accepted", live);
    Ok(())
}

/// The per-connection request loop: read → handle → reply → flush.
fn serve_connection<S: FrameService>(service: &S, conn: Conn, conn_id: u64) -> Result<(), CaError> {
    let telemetry = &service.server().telemetry;
    let (mut reader, mut writer) = conn.split()?;
    let mut state = service.open(conn_id);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean disconnect; dropping `state` abandons whatever the
            // connection left unfinished.
            Ok(None) => return Ok(()),
            Err(e) => {
                // Best-effort typed goodbye; the connection is already
                // suspect, so ignore secondary failures.
                let _ = write_frame(&mut writer, &error_to_wire(&e));
                let _ = writer.flush();
                return Err(e);
            }
        };
        telemetry.counter("serve.conn.frames", 1);
        let outcome = if frame.is_request() {
            // A valid request this service does not serve gets the typed
            // Unsupported code, so a misdirected client (a RemoteCache
            // probing a scan daemon, say) degrades against a stable code
            // and keeps a healthy connection.
            service
                .handle(&mut state, frame)
                .and_then(|reply| reply.ok_or_else(|| CaError::Unsupported(S::REFUSAL.into())))
        } else {
            Err(CaError::Protocol(format!(
                "unexpected frame kind {:?} from a client",
                std::mem::discriminant(&frame)
            )))
        };
        let reply = outcome.unwrap_or_else(|e| error_to_wire(&e));
        match write_frame(&mut writer, &reply) {
            Ok(()) => {}
            // An encode-side refusal (the reply would exceed the frame
            // cap) writes nothing — downgrade to a typed ERROR so the
            // client gets a reply and the connection stays usable.
            Err(e @ CaError::Protocol(_)) => write_frame(&mut writer, &error_to_wire(&e))?,
            Err(e) => return Err(e),
        }
        writer.flush().map_err(|e| CaError::Io(format!("flushing reply: {e}")))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_addr_grammar() {
        assert_eq!(
            ListenAddr::parse("127.0.0.1:7070").unwrap(),
            ListenAddr::Tcp("127.0.0.1:7070".into())
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/ca.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/ca.sock"))
        );
        assert_eq!(
            ListenAddr::parse("/tmp/ca.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/ca.sock"))
        );
        assert!(matches!(ListenAddr::parse("nonsense").unwrap_err(), CaError::Config(_)));
        assert_eq!(ListenAddr::parse("unix:/a/b.sock").unwrap().to_string(), "unix:/a/b.sock");
    }

    /// The smallest service: answers STATS, serves nothing else.
    struct StatsOnly(ServerState);

    impl FrameService for StatsOnly {
        const REFUSAL: &'static str = "stats only";
        type Conn = ();
        fn open(&self, _conn_id: u64) {}
        fn server(&self) -> &ServerState {
            &self.0
        }
        fn handle(&self, _conn: &mut (), frame: Frame) -> Result<Option<Frame>, CaError> {
            Ok(matches!(frame, Frame::Stats).then(|| Frame::StatsReply(Default::default())))
        }
    }

    fn request(conn: &mut Conn, frame: &Frame) -> Frame {
        write_frame(conn, frame).unwrap();
        read_frame(conn).unwrap().expect("a reply")
    }

    fn wait_for_connections(state: &ServerState, want: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while state.connections() != want {
            assert!(std::time::Instant::now() < deadline, "still {}", state.connections());
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn connections_are_tracked_while_open_and_severed_at_shutdown() {
        let service = Arc::new(StatsOnly(ServerState::new(Telemetry::disabled())));
        let mut server = FrameServer::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let timeout = Some(Duration::from_secs(5));
        let mut staying = dial(server.local_addr(), timeout).unwrap();
        let mut leaving = dial(server.local_addr(), timeout).unwrap();
        for conn in [&mut staying, &mut leaving] {
            assert!(matches!(request(conn, &Frame::Stats), Frame::StatsReply(_)));
        }
        assert_eq!(service.0.connections(), 2);
        // a client that leaves is released when its thread exits, not at
        // shutdown
        drop(leaving);
        wait_for_connections(&service.0, 1);
        // shutdown does not wait for the attached client: it severs it
        server.shutdown().unwrap();
        assert_eq!(service.0.connections(), 0);
        assert_eq!(read_frame(&mut staying).unwrap(), None, "severed connection reads EOF");
        server.shutdown().unwrap(); // idempotent
    }

    /// One frame of every kind; the flags say which services serve it.
    fn one_of_each_kind() -> [(Frame, (bool, bool)); 20] {
        let key = crate::cache::CacheKey {
            fingerprint: ca_automata::Fingerprint(1),
            design: crate::Design::Performance,
            slices: 8,
            seed: 0,
            optimized: false,
        };
        let (scan, cache, reply) = ((true, false), (false, true), (false, false));
        [
            (Frame::OpenStream, scan),
            (Frame::FeedChunk { stream: 1, data: b"x".to_vec() }, scan),
            (Frame::PollMatches { stream: 1 }, scan),
            (Frame::Finish { stream: 1 }, scan),
            (Frame::Stats, scan),
            (Frame::Reload { rules: String::new() }, scan),
            (Frame::CacheGet { key }, cache),
            (Frame::CachePut { key, artifact: b"CAPRjunk".to_vec() }, cache),
            (Frame::CacheStats, cache),
            (Frame::StreamOpened { stream: 1, generation: 0 }, reply),
            (Frame::FeedAck { stream: 1, bytes: 1 }, reply),
            (Frame::Matches { stream: 1, events: Vec::new() }, reply),
            (Frame::Finished { stream: 1, report: Default::default() }, reply),
            (Frame::StatsReply(Default::default()), reply),
            (Frame::ReloadOk { generation: 1 }, reply),
            (Frame::CacheFound { artifact: Vec::new() }, reply),
            (Frame::CacheMiss, reply),
            (Frame::CachePutOk, reply),
            (Frame::CacheStatsReply(Default::default()), reply),
            (Frame::Error { code: 2, message: "no".into() }, reply),
        ]
    }

    /// Each server refuses the other's vocabulary with the Unsupported
    /// code (9) and reply kinds sent by a client with the Protocol code
    /// (8), and the connection survives every refusal.
    #[test]
    fn both_services_refuse_what_they_do_not_serve_and_keep_the_connection() {
        let dir = std::env::temp_dir().join(format!("ca-refusals-{}", std::process::id()));
        let daemon = crate::Daemon::bind(
            &crate::CacheAutomaton::new(),
            "needle\n",
            "127.0.0.1:0",
            Default::default(),
        )
        .unwrap();
        let peer = crate::CacheServer::bind("127.0.0.1:0", &dir).unwrap();
        for (is_daemon, addr) in [(true, daemon.local_addr()), (false, peer.local_addr())] {
            let addr = ListenAddr::parse(&addr).unwrap();
            let mut conn = dial(&addr, Some(Duration::from_secs(5))).unwrap();
            for (frame, (by_daemon, by_cache)) in one_of_each_kind() {
                if if is_daemon { by_daemon } else { by_cache } {
                    continue;
                }
                let want = if frame.is_request() { 9 } else { 8 };
                match request(&mut conn, &frame) {
                    Frame::Error { code, .. } => assert_eq!(code, want, "{addr}: {frame:?}"),
                    other => panic!("{addr}: {frame:?} was answered with {other:?}"),
                }
            }
            // still good for the service's own traffic
            let own = if is_daemon { Frame::Stats } else { Frame::CacheStats };
            let reply = request(&mut conn, &own);
            assert!(matches!(reply, Frame::StatsReply(_) | Frame::CacheStatsReply(_)), "{reply:?}");
        }
        daemon.shutdown().unwrap();
        peer.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
