//! The serving daemon's length-prefixed binary wire protocol.
//!
//! Every frame is an 8-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length, u32 little-endian (bytes after the header)
//! 4       1     protocol version (PROTO_VERSION)
//! 5       1     frame kind
//! 6       2     reserved, must be zero
//! ```
//!
//! All multi-byte payload integers are little-endian. The frame grammar
//! (kind byte in parentheses; client frames in the 0x0_ range, server
//! replies in 0x8_, errors at 0xEE):
//!
//! ```text
//! client → server
//!   OPEN_STREAM  (0x01)  —
//!   FEED_CHUNK   (0x02)  stream:u64, data:bytes
//!   POLL_MATCHES (0x03)  stream:u64
//!   FINISH       (0x04)  stream:u64
//!   STATS        (0x05)  —
//!   RELOAD       (0x06)  rules:utf8 (empty = recompile the current rules)
//!   CACHE_GET    (0x07)  key (see below)
//!   CACHE_PUT    (0x08)  key, artifact:bytes (a whole CAPR blob)
//!   CACHE_STATS  (0x09)  —
//!
//! server → client
//!   STREAM_OPENED (0x81) stream:u64, generation:u64
//!   FEED_ACK      (0x82) stream:u64, bytes:u64
//!   MATCHES       (0x83) stream:u64, count:u32, (pos:u64, code:u32)*count
//!   FINISHED      (0x84) stream:u64, report (see [`WireReport`])
//!   STATS_REPLY   (0x85) generation:u64, reloads:u64, live_streams:u64,
//!                        connections:u64, streams_served:u64
//!   RELOAD_OK     (0x86) generation:u64
//!   CACHE_FOUND   (0x87) artifact:bytes
//!   CACHE_MISS    (0x88) —
//!   CACHE_PUT_OK  (0x89) —
//!   CACHE_STATS_REPLY (0x8A) hits:u64, misses:u64, puts:u64, rejected:u64,
//!                        bytes_served:u64, bytes_stored:u64,
//!                        entries:u64, disk_bytes:u64
//!   ERROR         (0xEE) code:u16, message:utf8
//! ```
//!
//! A cache `key` on the wire is the 34-byte canonical encoding of a
//! [`CacheKey`]: fingerprint (16 bytes, little-endian u128), design tag
//! (u8: 0 performance, 1 space), slices (u64), seed (u64), optimized
//! (u8: 0 or 1). The CACHE_* frames let a fleet share compiled artifacts
//! through a cache peer — the client side ships in
//! [`RemoteCache`](crate::cache::remote::RemoteCache), and the server
//! side in [`CacheServer`](crate::serve::cache_server::CacheServer)
//! (`cactl cache-serve`). A scan daemon still refuses them with a typed
//! ERROR (code 9, unsupported), which the remote tier treats as a
//! permanent miss. New kinds are additive: an old peer rejects them with
//! UnknownKind/ERROR rather than misparsing, so PROTO_VERSION stays at 1.
//!
//! The protocol is strict request/reply per frame: every client frame
//! elicits exactly one reply (the matching success frame or an ERROR).
//! ERROR `code` values are [`CaError::code`] — the same table `cactl`
//! uses for process exit codes — so a scripted client branches on failure
//! kind identically whether a scan failed locally or across the socket.
//!
//! Decoding is defensive: version mismatches, unknown kinds, oversized
//! lengths (> [`MAX_FRAME_PAYLOAD`]), non-zero reserved bytes, truncated
//! or trailing payload bytes, and invalid UTF-8 all surface as typed
//! [`ProtoError`]s, never panics — the proptests in
//! `crates/core/tests/proptests.rs` hold this over arbitrary byte soup.
//! Encoding enforces the same cap: a frame whose payload would exceed
//! [`MAX_FRAME_PAYLOAD`] (or whose counts overflow their wire width)
//! fails with [`ProtoError::Oversized`] instead of silently truncating,
//! so a malformed frame can never be *emitted* either. Producers of
//! unbounded event lists chunk under
//! [`MAX_EVENTS_PER_MATCHES_FRAME`].

use crate::cache::CacheKey;
use crate::{CaError, Design, MatchEvent};
use ca_automata::{Fingerprint, ReportCode};
use ca_sim::artifact::{put_u32, put_u64, Reader, Truncated};
use ca_sim::ExecStats;
use std::io::{Read, Write};

/// Version byte every frame header carries. Bumped on any grammar change;
/// a daemon refuses frames from a different version with a typed error.
pub const PROTO_VERSION: u8 = 1;

/// Header bytes preceding every payload.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a frame's payload. A peer announcing more is declared
/// corrupt immediately (before any allocation), so a garbage length
/// prefix cannot balloon memory.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Most events a single MATCHES frame can carry without its payload
/// (stream id + count + 12 bytes per event) crossing
/// [`MAX_FRAME_PAYLOAD`]. Producers draining unbounded match queues chunk
/// their replies at this size.
pub const MAX_EVENTS_PER_MATCHES_FRAME: usize = (MAX_FRAME_PAYLOAD - 8 - 4) / 12;

/// Bytes of a [`CacheKey`]'s canonical wire encoding.
const CACHE_KEY_LEN: usize = 16 + 1 + 8 + 8 + 1;

/// Frame-kind bytes (see the module docs for the grammar).
mod kind {
    pub const OPEN_STREAM: u8 = 0x01;
    pub const FEED_CHUNK: u8 = 0x02;
    pub const POLL_MATCHES: u8 = 0x03;
    pub const FINISH: u8 = 0x04;
    pub const STATS: u8 = 0x05;
    pub const RELOAD: u8 = 0x06;
    pub const CACHE_GET: u8 = 0x07;
    pub const CACHE_PUT: u8 = 0x08;
    pub const CACHE_STATS: u8 = 0x09;
    pub const STREAM_OPENED: u8 = 0x81;
    pub const FEED_ACK: u8 = 0x82;
    pub const MATCHES: u8 = 0x83;
    pub const FINISHED: u8 = 0x84;
    pub const STATS_REPLY: u8 = 0x85;
    pub const RELOAD_OK: u8 = 0x86;
    pub const CACHE_FOUND: u8 = 0x87;
    pub const CACHE_MISS: u8 = 0x88;
    pub const CACHE_PUT_OK: u8 = 0x89;
    pub const CACHE_STATS_REPLY: u8 = 0x8A;
    pub const ERROR: u8 = 0xEE;
}

/// A wire-protocol violation. Converted to [`CaError::Protocol`] (code 8)
/// at API boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The byte stream ended inside a frame (header or payload).
    Truncated,
    /// A payload larger than [`MAX_FRAME_PAYLOAD`] — announced by a peer's
    /// header on decode, or produced by a frame's own contents on encode
    /// (encoding refuses to emit what decoding would refuse to accept).
    Oversized {
        /// The announced (or would-be) payload length.
        len: u64,
    },
    /// The header's version byte does not match [`PROTO_VERSION`].
    Version {
        /// The version byte received.
        got: u8,
    },
    /// The header's kind byte names no known frame.
    UnknownKind(u8),
    /// A structurally invalid payload (wrong size for its kind, counts
    /// that disagree with the byte count, trailing bytes, bad UTF-8,
    /// non-zero reserved header bytes).
    Malformed(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "byte stream ended mid-frame"),
            ProtoError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD} limit")
            }
            ProtoError::Version { got } => {
                write!(f, "peer speaks protocol version {got}, this build speaks {PROTO_VERSION}")
            }
            ProtoError::UnknownKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<Truncated> for ProtoError {
    fn from(t: Truncated) -> ProtoError {
        ProtoError::Malformed(t.0)
    }
}

impl From<ProtoError> for CaError {
    fn from(e: ProtoError) -> CaError {
        CaError::Protocol(e.to_string())
    }
}

/// The per-stream result a FINISHED frame carries: every match of the
/// stream (sorted, deduplicated) plus the full [`ExecStats`] — enough for
/// a client to verify byte-identity against a local serial scan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireReport {
    /// All matches of the stream, in position order.
    pub events: Vec<MatchEvent>,
    /// The stream's finalized activity counters.
    pub exec: ExecStats,
}

/// Daemon-level counters a STATS_REPLY carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Generation counter of the currently-bound program (bumped by every
    /// successful reload; generation 0 is the program the daemon started
    /// with).
    pub generation: u64,
    /// Successful RELOADs since the daemon started.
    pub reloads: u64,
    /// Streams currently open on the *current* generation's pool.
    pub live_streams: u64,
    /// Connections currently accepted and not yet closed.
    pub connections: u64,
    /// Streams opened over the daemon's lifetime (all generations).
    pub streams_served: u64,
}

/// Cache-peer counters a CACHE_STATS_REPLY carries: the request-serving
/// half (`cache.serve.*` telemetry) plus the peer's disk inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheServerStats {
    /// CACHE_GETs answered with an artifact.
    pub hits: u64,
    /// CACHE_GETs answered with a miss (including quarantined artifacts).
    pub misses: u64,
    /// CACHE_PUTs validated and persisted.
    pub puts: u64,
    /// CACHE_PUTs refused (artifact failed validation).
    pub rejected: u64,
    /// Artifact bytes shipped in CACHE_FOUND replies.
    pub bytes_served: u64,
    /// Artifact bytes accepted from CACHE_PUTs.
    pub bytes_stored: u64,
    /// Artifacts currently on the peer's disk.
    pub entries: u64,
    /// Bytes those artifacts occupy.
    pub disk_bytes: u64,
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Frame {
    /// Open a new logical stream on the daemon's current generation.
    OpenStream,
    /// Feed the next chunk of stream `stream`.
    FeedChunk {
        /// Daemon-assigned stream id (from [`Frame::StreamOpened`]).
        stream: u64,
        /// The chunk bytes.
        data: Vec<u8>,
    },
    /// Drain matches reported since the last poll of `stream`.
    PollMatches {
        /// Stream id.
        stream: u64,
    },
    /// Close `stream` and request its final report.
    Finish {
        /// Stream id.
        stream: u64,
    },
    /// Request daemon counters.
    Stats,
    /// Atomically swap in a newly compiled program. `rules` is the new
    /// rule text (regex lines or ANML); empty means "recompile the rules
    /// the daemon currently serves" — a generation bump to an identical
    /// program, useful for drills and drain tests.
    Reload {
        /// Replacement rule text, or empty for same-rules reload.
        rules: String,
    },
    /// Ask a cache peer for the artifact compiled under `key`.
    CacheGet {
        /// The compilation's canonical cache key.
        key: CacheKey,
    },
    /// Offer a cache peer the artifact compiled under `key`.
    CachePut {
        /// The compilation's canonical cache key.
        key: CacheKey,
        /// The complete `CAPR` artifact bytes (self-validating: magic,
        /// version, and checksum travel inside).
        artifact: Vec<u8>,
    },
    /// Request a cache peer's counters.
    CacheStats,
    /// Reply to [`Frame::OpenStream`].
    StreamOpened {
        /// Daemon-assigned stream id, unique per connection.
        stream: u64,
        /// Generation of the program the stream is bound to.
        generation: u64,
    },
    /// Reply to [`Frame::FeedChunk`]: the chunk is queued (possibly after
    /// a backpressure stall).
    FeedAck {
        /// Stream id.
        stream: u64,
        /// Bytes accepted (always the full chunk).
        bytes: u64,
    },
    /// Reply to [`Frame::PollMatches`].
    Matches {
        /// Stream id.
        stream: u64,
        /// Events drained by this poll, in feed order.
        events: Vec<MatchEvent>,
    },
    /// Reply to [`Frame::Finish`].
    Finished {
        /// Stream id.
        stream: u64,
        /// The stream's final report.
        report: WireReport,
    },
    /// Reply to [`Frame::Stats`].
    StatsReply(ServerStats),
    /// Reply to a successful [`Frame::Reload`].
    ReloadOk {
        /// The new generation counter.
        generation: u64,
    },
    /// Reply to [`Frame::CacheGet`]: the peer has the artifact.
    CacheFound {
        /// The stored `CAPR` artifact bytes. Receivers validate fully
        /// (checksum and decode) before trusting them.
        artifact: Vec<u8>,
    },
    /// Reply to [`Frame::CacheGet`]: the peer has nothing stored.
    CacheMiss,
    /// Reply to [`Frame::CachePut`]: the artifact was accepted.
    CachePutOk,
    /// Reply to [`Frame::CacheStats`].
    CacheStatsReply(CacheServerStats),
    /// Typed failure reply; `code` is the daemon-side [`CaError::code`].
    Error {
        /// [`CaError::code`] value of the failure.
        code: u16,
        /// Human-readable message.
        message: String,
    },
}

/// Maps a daemon-side error to its wire representation. Variants whose
/// payload is a plain string send it bare (so [`error_from_wire`] is an
/// exact inverse for them); structured payloads send their rendered form.
pub fn error_to_wire(e: &CaError) -> Frame {
    let message = match e {
        CaError::Config(m)
        | CaError::Io(m)
        | CaError::Internal(m)
        | CaError::Protocol(m)
        | CaError::Unsupported(m) => m.clone(),
        CaError::Remote { message, .. } => message.clone(),
        other => other.to_string(),
    };
    Frame::Error { code: u16::from(e.code()), message }
}

/// Reconstructs a client-side [`CaError`] from an ERROR frame. Variants
/// whose payload is a plain string come back as themselves; the rest
/// (automata / compiler / artifact errors carry structured payloads that
/// do not cross the wire) come back as [`CaError::Remote`] with the
/// original code preserved.
pub fn error_from_wire(code: u16, message: String) -> CaError {
    match code {
        2 => CaError::Config(message),
        3 => CaError::Io(message),
        7 => CaError::Internal(message),
        8 => CaError::Protocol(message),
        9 => CaError::Unsupported(message),
        other => CaError::Remote { code: other.min(255) as u8, message },
    }
}

/// The rest of the payload as UTF-8 text.
fn take_utf8(t: &mut Reader<'_>, what: &'static str) -> Result<String, ProtoError> {
    String::from_utf8(t.rest().to_vec()).map_err(|_| ProtoError::Malformed(what))
}

fn take_cache_key(t: &mut Reader<'_>) -> Result<CacheKey, ProtoError> {
    let fp = u128::from_le_bytes(t.array("cache key fingerprint")?);
    let design = match t.u8("cache key design")? {
        0 => Design::Performance,
        1 => Design::Space,
        _ => return Err(ProtoError::Malformed("cache key design tag")),
    };
    let slices = usize::try_from(t.u64("cache key slices")?)
        .map_err(|_| ProtoError::Malformed("cache key slices exceeds usize"))?;
    let seed = t.u64("cache key seed")?;
    let optimized = match t.u8("cache key optimized")? {
        0 => false,
        1 => true,
        _ => return Err(ProtoError::Malformed("cache key optimized flag")),
    };
    Ok(CacheKey { fingerprint: Fingerprint(fp), design, slices, seed, optimized })
}

/// A `u32` element count, refused before any allocation when the payload
/// cannot hold that many `item_bytes`-sized elements.
fn take_count(
    t: &mut Reader<'_>,
    item_bytes: usize,
    what: &'static str,
) -> Result<usize, ProtoError> {
    let count = t.u32(what)? as usize;
    if t.remaining() / item_bytes < count {
        return Err(ProtoError::Malformed(what));
    }
    Ok(count)
}

fn take_events(t: &mut Reader<'_>) -> Result<Vec<MatchEvent>, ProtoError> {
    let count = take_count(t, 12, "event count exceeds payload")?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let pos = t.u64("event position")?;
        let code = t.u32("event code")?;
        events.push(MatchEvent::new(pos, ReportCode(code)));
    }
    Ok(events)
}

fn put_cache_key(buf: &mut Vec<u8>, key: &CacheKey) {
    let start = buf.len();
    buf.extend_from_slice(&key.fingerprint.0.to_le_bytes());
    buf.push(match key.design {
        Design::Performance => 0,
        Design::Space => 1,
    });
    put_u64(buf, key.slices as u64);
    put_u64(buf, key.seed);
    buf.push(key.optimized as u8);
    debug_assert_eq!(buf.len() - start, CACHE_KEY_LEN);
}

/// Checked count prefix: a length that cannot be represented as u32 means
/// the frame could never fit under [`MAX_FRAME_PAYLOAD`] anyway, so it is
/// reported as [`ProtoError::Oversized`] instead of silently truncating.
fn put_count(buf: &mut Vec<u8>, len: usize, item_bytes: u64) -> Result<(), ProtoError> {
    let count = u32::try_from(len)
        .map_err(|_| ProtoError::Oversized { len: (len as u64).saturating_mul(item_bytes) })?;
    put_u32(buf, count);
    Ok(())
}

fn put_events(buf: &mut Vec<u8>, events: &[MatchEvent]) -> Result<(), ProtoError> {
    put_count(buf, events.len(), 12)?;
    for ev in events {
        put_u64(buf, ev.pos);
        put_u32(buf, ev.code.0);
    }
    Ok(())
}

fn put_report(buf: &mut Vec<u8>, report: &WireReport) -> Result<(), ProtoError> {
    put_events(buf, &report.events)?;
    let e = &report.exec;
    for v in [
        e.symbols,
        e.cycles,
        e.active_partition_cycles,
        e.matched_total,
        e.g1_signals,
        e.g4_signals,
        e.reports,
        e.output_interrupts,
        e.fifo_refills,
    ] {
        put_u64(buf, v);
    }
    put_count(buf, e.per_partition_active.len(), 8)?;
    for v in &e.per_partition_active {
        put_u64(buf, *v);
    }
    Ok(())
}

fn take_report(t: &mut Reader<'_>) -> Result<WireReport, ProtoError> {
    let events = take_events(t)?;
    let mut exec = ExecStats {
        symbols: t.u64("exec symbols")?,
        cycles: t.u64("exec cycles")?,
        active_partition_cycles: t.u64("exec active partition cycles")?,
        matched_total: t.u64("exec matched total")?,
        g1_signals: t.u64("exec g1 signals")?,
        g4_signals: t.u64("exec g4 signals")?,
        reports: t.u64("exec reports")?,
        output_interrupts: t.u64("exec output interrupts")?,
        fifo_refills: t.u64("exec fifo refills")?,
        per_partition_active: Vec::new(),
    };
    let partitions = take_count(t, 8, "partition count exceeds payload")?;
    exec.per_partition_active.reserve(partitions);
    for _ in 0..partitions {
        exec.per_partition_active.push(t.u64("partition activity")?);
    }
    Ok(WireReport { events, exec })
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::OpenStream => kind::OPEN_STREAM,
            Frame::FeedChunk { .. } => kind::FEED_CHUNK,
            Frame::PollMatches { .. } => kind::POLL_MATCHES,
            Frame::Finish { .. } => kind::FINISH,
            Frame::Stats => kind::STATS,
            Frame::Reload { .. } => kind::RELOAD,
            Frame::CacheGet { .. } => kind::CACHE_GET,
            Frame::CachePut { .. } => kind::CACHE_PUT,
            Frame::CacheStats => kind::CACHE_STATS,
            Frame::StreamOpened { .. } => kind::STREAM_OPENED,
            Frame::FeedAck { .. } => kind::FEED_ACK,
            Frame::Matches { .. } => kind::MATCHES,
            Frame::Finished { .. } => kind::FINISHED,
            Frame::StatsReply(_) => kind::STATS_REPLY,
            Frame::ReloadOk { .. } => kind::RELOAD_OK,
            Frame::CacheFound { .. } => kind::CACHE_FOUND,
            Frame::CacheMiss => kind::CACHE_MISS,
            Frame::CachePutOk => kind::CACHE_PUT_OK,
            Frame::CacheStatsReply(_) => kind::CACHE_STATS_REPLY,
            Frame::Error { .. } => kind::ERROR,
        }
    }

    /// Whether this is a client → server frame (kind byte in the 0x0_
    /// range); replies and ERROR travel the other way.
    pub(crate) fn is_request(&self) -> bool {
        self.kind() < 0x80
    }

    /// Appends the complete encoded frame (header + payload) to `buf`.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversized`] when the payload would exceed
    /// [`MAX_FRAME_PAYLOAD`] or a count would overflow its wire width —
    /// the cap a decoder enforces is enforced here too, so a malformed
    /// frame is never emitted. On error `buf` is restored to its original
    /// length.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<(), ProtoError> {
        let header_at = buf.len();
        put_u32(buf, 0); // payload length, patched below
        buf.push(PROTO_VERSION);
        buf.push(self.kind());
        buf.extend_from_slice(&[0u8, 0u8]); // reserved
        let payload_at = buf.len();
        let result = (|| {
            match self {
                Frame::OpenStream
                | Frame::Stats
                | Frame::CacheMiss
                | Frame::CachePutOk
                | Frame::CacheStats => {}
                Frame::FeedChunk { stream, data } => {
                    put_u64(buf, *stream);
                    buf.extend_from_slice(data);
                }
                Frame::PollMatches { stream } | Frame::Finish { stream } => put_u64(buf, *stream),
                Frame::Reload { rules } => buf.extend_from_slice(rules.as_bytes()),
                Frame::CacheGet { key } => put_cache_key(buf, key),
                Frame::CachePut { key, artifact } => {
                    put_cache_key(buf, key);
                    buf.extend_from_slice(artifact);
                }
                Frame::StreamOpened { stream, generation } => {
                    put_u64(buf, *stream);
                    put_u64(buf, *generation);
                }
                Frame::FeedAck { stream, bytes } => {
                    put_u64(buf, *stream);
                    put_u64(buf, *bytes);
                }
                Frame::Matches { stream, events } => {
                    put_u64(buf, *stream);
                    put_events(buf, events)?;
                }
                Frame::Finished { stream, report } => {
                    put_u64(buf, *stream);
                    put_report(buf, report)?;
                }
                Frame::StatsReply(s) => {
                    for v in
                        [s.generation, s.reloads, s.live_streams, s.connections, s.streams_served]
                    {
                        put_u64(buf, v);
                    }
                }
                Frame::ReloadOk { generation } => put_u64(buf, *generation),
                Frame::CacheFound { artifact } => buf.extend_from_slice(artifact),
                Frame::CacheStatsReply(s) => {
                    for v in [
                        s.hits,
                        s.misses,
                        s.puts,
                        s.rejected,
                        s.bytes_served,
                        s.bytes_stored,
                        s.entries,
                        s.disk_bytes,
                    ] {
                        put_u64(buf, v);
                    }
                }
                Frame::Error { code, message } => {
                    buf.extend_from_slice(&code.to_le_bytes());
                    buf.extend_from_slice(message.as_bytes());
                }
            }
            let payload_len = buf.len() - payload_at;
            if payload_len > MAX_FRAME_PAYLOAD {
                return Err(ProtoError::Oversized { len: payload_len as u64 });
            }
            buf[header_at..header_at + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
            Ok(())
        })();
        if result.is_err() {
            buf.truncate(header_at);
        }
        result
    }

    /// Encodes the frame into a fresh buffer.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Oversized`] — see [`Frame::encode_into`].
    pub fn encode(&self) -> Result<Vec<u8>, ProtoError> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf)?;
        Ok(buf)
    }

    /// Decodes one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a prefix of a frame (read
    /// more bytes and retry), or `Ok(Some((frame, consumed)))` on success.
    ///
    /// # Errors
    ///
    /// Typed [`ProtoError`]s for version mismatches, oversized lengths,
    /// unknown kinds, and structurally invalid payloads. Errors are
    /// authoritative the moment the header is complete — a garbage header
    /// is rejected without waiting for its announced payload.
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtoError> {
        let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let (kind_byte, payload_len) = check_header(header)?;
        if buf.len() < HEADER_LEN + payload_len {
            return Ok(None);
        }
        let payload = &buf[HEADER_LEN..HEADER_LEN + payload_len];
        let frame = Frame::decode_payload(kind_byte, payload)?;
        Ok(Some((frame, HEADER_LEN + payload_len)))
    }

    fn decode_payload(kind_byte: u8, payload: &[u8]) -> Result<Frame, ProtoError> {
        let mut t = Reader::new(payload);
        let frame = match kind_byte {
            kind::OPEN_STREAM => Frame::OpenStream,
            kind::FEED_CHUNK => {
                Frame::FeedChunk { stream: t.u64("feed stream id")?, data: t.rest().to_vec() }
            }
            kind::POLL_MATCHES => Frame::PollMatches { stream: t.u64("poll stream id")? },
            kind::FINISH => Frame::Finish { stream: t.u64("finish stream id")? },
            kind::STATS => Frame::Stats,
            kind::RELOAD => {
                Frame::Reload { rules: take_utf8(&mut t, "reload rules are not valid UTF-8")? }
            }
            kind::CACHE_GET => Frame::CacheGet { key: take_cache_key(&mut t)? },
            kind::CACHE_PUT => {
                Frame::CachePut { key: take_cache_key(&mut t)?, artifact: t.rest().to_vec() }
            }
            kind::CACHE_STATS => Frame::CacheStats,
            kind::STREAM_OPENED => Frame::StreamOpened {
                stream: t.u64("opened stream id")?,
                generation: t.u64("opened generation")?,
            },
            kind::FEED_ACK => {
                Frame::FeedAck { stream: t.u64("ack stream id")?, bytes: t.u64("ack bytes")? }
            }
            kind::MATCHES => {
                Frame::Matches { stream: t.u64("matches stream id")?, events: take_events(&mut t)? }
            }
            kind::FINISHED => {
                let stream = t.u64("finished stream id")?;
                let report = take_report(&mut t)?;
                Frame::Finished { stream, report }
            }
            kind::STATS_REPLY => Frame::StatsReply(ServerStats {
                generation: t.u64("stats generation")?,
                reloads: t.u64("stats reloads")?,
                live_streams: t.u64("stats live streams")?,
                connections: t.u64("stats connections")?,
                streams_served: t.u64("stats streams served")?,
            }),
            kind::RELOAD_OK => Frame::ReloadOk { generation: t.u64("reload generation")? },
            kind::CACHE_FOUND => Frame::CacheFound { artifact: t.rest().to_vec() },
            kind::CACHE_MISS => Frame::CacheMiss,
            kind::CACHE_PUT_OK => Frame::CachePutOk,
            kind::CACHE_STATS_REPLY => Frame::CacheStatsReply(CacheServerStats {
                hits: t.u64("cache stats hits")?,
                misses: t.u64("cache stats misses")?,
                puts: t.u64("cache stats puts")?,
                rejected: t.u64("cache stats rejected")?,
                bytes_served: t.u64("cache stats bytes served")?,
                bytes_stored: t.u64("cache stats bytes stored")?,
                entries: t.u64("cache stats entries")?,
                disk_bytes: t.u64("cache stats disk bytes")?,
            }),
            kind::ERROR => {
                let code = t.u16("error code")?;
                let message = take_utf8(&mut t, "error message is not valid UTF-8")?;
                Frame::Error { code, message }
            }
            other => return Err(ProtoError::UnknownKind(other)),
        };
        if !t.is_empty() {
            return Err(ProtoError::Malformed("trailing bytes in frame payload"));
        }
        Ok(frame)
    }
}

/// Validates a frame header, returning its kind byte and payload length.
/// The one header check behind [`Frame::decode`] and [`read_frame`].
fn check_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), ProtoError> {
    let payload_len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if header[4] != PROTO_VERSION {
        return Err(ProtoError::Version { got: header[4] });
    }
    if payload_len > MAX_FRAME_PAYLOAD {
        return Err(ProtoError::Oversized { len: payload_len as u64 });
    }
    if header[6] != 0 || header[7] != 0 {
        return Err(ProtoError::Malformed("reserved header bytes must be zero"));
    }
    Ok((header[5], payload_len))
}

/// Writes one frame to `w` (unbuffered; wrap `w` in a `BufWriter` and
/// flush at request boundaries).
///
/// # Errors
///
/// [`CaError::Protocol`] when the frame exceeds the payload cap (nothing
/// is written); [`CaError::Io`] on transport failure.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), CaError> {
    let bytes = frame.encode()?;
    w.write_all(&bytes).map_err(|e| CaError::Io(format!("writing frame: {e}")))
}

/// Reads one frame from `r`, blocking until it is complete.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary.
///
/// # Errors
///
/// [`CaError::Protocol`] when the stream ends mid-frame
/// ([`ProtoError::Truncated`]) or the frame is invalid;
/// [`CaError::Io`] on transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, CaError> {
    let mut header = [0u8; HEADER_LEN];
    if !read_full(r, &mut header, true)? {
        return Ok(None);
    }
    // Validate the header before allocating or reading the payload, so an
    // oversized or alien frame is refused without consuming its bytes.
    let (kind_byte, payload_len) = check_header(&header)?;
    let mut payload = vec![0u8; payload_len];
    if !read_full(r, &mut payload, false)? {
        return Err(ProtoError::Truncated.into());
    }
    Ok(Some(Frame::decode_payload(kind_byte, &payload)?))
}

/// Fills `buf` from `r`. Returns `Ok(false)` on EOF before the first byte
/// when `eof_ok` (clean close), errors [`ProtoError::Truncated`] on EOF
/// anywhere else.
fn read_full(r: &mut impl Read, buf: &mut [u8], eof_ok: bool) -> Result<bool, CaError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && eof_ok {
                    return Ok(false);
                }
                return Err(ProtoError::Truncated.into());
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(CaError::Io(format!("reading frame: {e}"))),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode().expect("in-bounds frame encodes");
        let (decoded, consumed) = Frame::decode(&bytes).expect("valid frame").expect("complete");
        assert_eq!(consumed, bytes.len());
        assert_eq!(decoded, frame);
        // and through the blocking reader
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(frame));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF after the frame");
    }

    fn sample_key() -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff),
            design: Design::Space,
            slices: 16,
            seed: 0xdead_beef,
            optimized: true,
        }
    }

    #[test]
    fn all_frames_round_trip() {
        round_trip(Frame::OpenStream);
        round_trip(Frame::FeedChunk { stream: 7, data: b"abc\x00\xff".to_vec() });
        round_trip(Frame::FeedChunk { stream: u64::MAX, data: Vec::new() });
        round_trip(Frame::PollMatches { stream: 3 });
        round_trip(Frame::Finish { stream: 0 });
        round_trip(Frame::Stats);
        round_trip(Frame::Reload { rules: String::new() });
        round_trip(Frame::Reload { rules: "abc\nd[ef]g\n".into() });
        round_trip(Frame::StreamOpened { stream: 1, generation: 2 });
        round_trip(Frame::FeedAck { stream: 1, bytes: 4096 });
        round_trip(Frame::Matches {
            stream: 9,
            events: vec![
                MatchEvent::new(0, ReportCode(0)),
                MatchEvent::new(u64::MAX, ReportCode(u32::MAX)),
            ],
        });
        round_trip(Frame::Finished {
            stream: 2,
            report: WireReport {
                events: vec![MatchEvent::new(5, ReportCode(1))],
                exec: ExecStats {
                    symbols: 10,
                    cycles: 12,
                    per_partition_active: vec![3, 0, 7],
                    ..ExecStats::default()
                },
            },
        });
        round_trip(Frame::StatsReply(ServerStats {
            generation: 3,
            reloads: 3,
            live_streams: 64,
            connections: 8,
            streams_served: 4096,
        }));
        round_trip(Frame::ReloadOk { generation: 17 });
        round_trip(Frame::CacheGet { key: sample_key() });
        round_trip(Frame::CachePut { key: sample_key(), artifact: b"CAPR\x01\x00junk".to_vec() });
        round_trip(Frame::CacheFound { artifact: vec![0u8; 1024] });
        round_trip(Frame::CacheFound { artifact: Vec::new() });
        round_trip(Frame::CacheMiss);
        round_trip(Frame::CachePutOk);
        round_trip(Frame::CacheStats);
        round_trip(Frame::CacheStatsReply(CacheServerStats {
            hits: 1,
            misses: 2,
            puts: 3,
            rejected: 4,
            bytes_served: u64::MAX,
            bytes_stored: 6,
            entries: 7,
            disk_bytes: 8,
        }));
        round_trip(Frame::Error { code: 7, message: "worker panicked".into() });
    }

    #[test]
    fn cache_key_wire_encoding_is_exact() {
        let bytes = Frame::CacheGet { key: sample_key() }.encode().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + CACHE_KEY_LEN);
        // a mangled design tag is a typed malformed error, not a panic
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 16] = 9;
        assert!(matches!(Frame::decode(&bad).unwrap_err(), ProtoError::Malformed(_)));
    }

    #[test]
    fn oversized_frames_refuse_to_encode() {
        // a CACHE_FOUND artifact one byte over the cap must not be emitted
        let frame = Frame::CacheFound { artifact: vec![0u8; MAX_FRAME_PAYLOAD + 1] };
        assert_eq!(
            frame.encode().unwrap_err(),
            ProtoError::Oversized { len: MAX_FRAME_PAYLOAD as u64 + 1 }
        );
        // encode_into leaves the buffer untouched on failure
        let mut buf = b"prefix".to_vec();
        assert!(frame.encode_into(&mut buf).is_err());
        assert_eq!(buf, b"prefix");
        // and write_frame surfaces it as a protocol error, writing nothing
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &frame).unwrap_err();
        assert!(matches!(err, CaError::Protocol(_)), "{err}");
        assert!(sink.is_empty());
        // exactly at the cap is fine
        let frame = Frame::CacheFound { artifact: vec![0u8; MAX_FRAME_PAYLOAD] };
        let bytes = frame.encode().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + MAX_FRAME_PAYLOAD);
        assert!(Frame::decode(&bytes).unwrap().is_some(), "cap-sized frame decodes");
    }

    #[test]
    fn max_events_per_matches_frame_is_tight() {
        // a MATCHES frame at the event cap encodes and stays under the
        // payload cap; one more event would push it over
        let payload = 8 + 4 + MAX_EVENTS_PER_MATCHES_FRAME * 12;
        assert!(payload <= MAX_FRAME_PAYLOAD);
        assert!(payload + 12 > MAX_FRAME_PAYLOAD);
    }

    #[test]
    fn incomplete_prefixes_ask_for_more() {
        let bytes = Frame::FeedChunk { stream: 1, data: b"hello".to_vec() }.encode().unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(Frame::decode(&bytes[..cut]).unwrap(), None, "prefix of {cut} bytes");
        }
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let bytes = Frame::FeedChunk { stream: 1, data: b"hello".to_vec() }.encode().unwrap();
        for cut in 1..bytes.len() {
            let mut cursor = std::io::Cursor::new(&bytes[..cut]);
            let err = read_frame(&mut cursor).unwrap_err();
            assert!(matches!(err, CaError::Protocol(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut bytes = Frame::Stats.encode().unwrap();
        bytes[4] = PROTO_VERSION + 1;
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            ProtoError::Version { got: PROTO_VERSION + 1 }
        );
    }

    #[test]
    fn oversized_length_is_rejected_from_header_alone() {
        let mut bytes = Frame::Stats.encode().unwrap();
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        // only the 8 header bytes exist; the error must not wait for the
        // announced 4 GiB payload
        assert_eq!(
            Frame::decode(&bytes[..HEADER_LEN]).unwrap_err(),
            ProtoError::Oversized { len: u64::from(u32::MAX) }
        );
    }

    #[test]
    fn unknown_kind_and_reserved_bytes_are_rejected() {
        let mut bytes = Frame::Stats.encode().unwrap();
        bytes[5] = 0x42;
        assert_eq!(Frame::decode(&bytes).unwrap_err(), ProtoError::UnknownKind(0x42));
        let mut bytes = Frame::Stats.encode().unwrap();
        bytes[6] = 1;
        assert!(matches!(Frame::decode(&bytes).unwrap_err(), ProtoError::Malformed(_)));
    }

    #[test]
    fn event_count_lying_about_payload_is_rejected() {
        // MATCHES frame claiming 1000 events but carrying none.
        let mut buf = Vec::new();
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 1000);
        put_u32(&mut buf, payload.len() as u32);
        buf.push(PROTO_VERSION);
        buf.push(kind::MATCHES);
        buf.extend_from_slice(&[0, 0]);
        buf.extend_from_slice(&payload);
        assert!(matches!(Frame::decode(&buf).unwrap_err(), ProtoError::Malformed(_)));
    }

    #[test]
    fn error_codes_round_trip_the_shared_table() {
        for err in [
            CaError::Config("bad".into()),
            CaError::Io("gone".into()),
            CaError::Internal("panic".into()),
            CaError::Protocol("junk".into()),
            CaError::Unsupported("not a cache peer".into()),
        ] {
            let Frame::Error { code, message } = error_to_wire(&err) else {
                panic!("error_to_wire must produce an Error frame");
            };
            let back = error_from_wire(code, message);
            assert_eq!(back, err);
            assert_eq!(back.code(), err.code());
        }
        // structured payloads come back as Remote with the code preserved
        let err = CacheCompileProbe::err();
        let Frame::Error { code, message } = error_to_wire(&err) else { unreachable!() };
        let back = error_from_wire(code, message);
        assert!(matches!(back, CaError::Remote { code: 5, .. }));
        assert_eq!(back.code(), err.code());
    }

    /// Helper producing a compiler error without running the compiler.
    struct CacheCompileProbe;
    impl CacheCompileProbe {
        fn err() -> CaError {
            CaError::Compile(crate::CompileError::CapacityExceeded { needed: 2, available: 1 })
        }
    }
}
