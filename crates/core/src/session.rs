//! The unified streaming-session lifecycle.
//!
//! Three front-ends consume the same logical stream lifecycle — feed
//! chunks, drain matches incrementally, finish for the final report:
//!
//! * [`Scanner`](crate::Scanner) — one dedicated fabric, in-process;
//! * [`StreamHandle`](crate::StreamHandle) — a [`ScanPool`](crate::ScanPool)
//!   stream multiplexed over shared workers;
//! * the serving daemon ([`serve::daemon`](crate::serve::daemon)) — a
//!   network stream mapped onto a pool stream.
//!
//! Historically `Scanner::feed` was infallible and returned the chunk's
//! matches while `StreamHandle::feed` was fallible and queueing, so code
//! generic over "a session" could not exist. [`Session`] ends that drift:
//! `feed` is fallible (in-process scanners simply never fail),
//! `poll_matches` is the one incremental delivery path (borrowing from a
//! reusable buffer — no per-call allocation), and `finish` is fallible and
//! returns the final [`RunReport`].
//!
//! Behind the trait, the stream state itself — suspend image, origin
//! offset, events, delivery cursor, accumulated activity — and its
//! `advance` / `finish` steps exist once, in this module's `SessionCore`,
//! which both the scanner and the pool's per-stream record embed.
//!
//! # Examples
//!
//! Code written against the trait runs unchanged over a dedicated scanner
//! or a pooled stream:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cache_automaton::{CacheAutomaton, PoolOptions, ScanPool, Session};
//!
//! fn drive(mut session: impl Session) -> Result<usize, cache_automaton::CaError> {
//!     let mut seen = 0;
//!     for chunk in [b"the rain in sp".as_slice(), b"ain"] {
//!         session.feed(chunk)?;
//!         seen += session.poll_matches().len();
//!     }
//!     let report = session.finish()?;
//!     assert!(report.matches.len() >= seen);
//!     Ok(report.matches.len())
//! }
//!
//! let program = CacheAutomaton::new().compile_patterns(&["spain"])?;
//! assert_eq!(drive(program.scanner())?, 1);
//! let pool = ScanPool::new(&program, PoolOptions::default())?;
//! assert_eq!(drive(pool.open_stream()?)?, 1);
//! pool.shutdown()?;
//! # Ok(())
//! # }
//! ```

use crate::{CaError, MatchEvent, Program, RunReport};
use ca_sim::fabric::{
    ExecReport, ExecStats, RunError, RunOptions, FIFO_REFILL_BYTES, PIPELINE_FILL_CYCLES,
};
use ca_sim::{Fabric, Snapshot};

/// The state of one logical stream between chunks — the paper's §2.9
/// suspend/resume lifecycle, written once. A [`Scanner`](crate::Scanner)
/// owns one next to its dedicated fabric; a [`ScanPool`](crate::ScanPool)
/// keeps one per stream and lends it whichever fabric is free, which works
/// because everything a stream carries from chunk to chunk lives here, in
/// the suspend image, and not in the fabric.
#[derive(Debug, Default)]
pub(crate) struct SessionCore {
    /// Suspend image after the last chunk (`None` before the first chunk
    /// of a fresh stream).
    resume: Option<Snapshot>,
    /// Absolute stream offset the session started at (non-zero when it
    /// continues a [`Snapshot`] of an earlier session).
    origin: u64,
    /// All match events so far, in feed order (absolute positions).
    events: Vec<MatchEvent>,
    /// How many of `events` have been handed out incrementally.
    delivered: usize,
    /// Accumulated activity counters (cycles are decided at finish).
    stats: ExecStats,
}

impl SessionCore {
    /// A session at the start of a fresh stream.
    pub(crate) fn fresh() -> SessionCore {
        SessionCore::default()
    }

    /// A session continuing the stream `snapshot` was taken from.
    pub(crate) fn resumed(snapshot: Snapshot) -> SessionCore {
        SessionCore {
            origin: snapshot.symbol_counter,
            resume: Some(snapshot),
            ..Default::default()
        }
    }

    /// Scans the next chunk on `fabric`, which may be any instance of the
    /// stream's program: its state is overwritten from the suspend image.
    ///
    /// # Errors
    ///
    /// [`RunError`] when the suspend image does not fit `fabric` — only
    /// reachable with an image from another program.
    pub(crate) fn advance(&mut self, fabric: &mut Fabric, chunk: &[u8]) -> Result<(), RunError> {
        let options = RunOptions { resume: self.resume.take(), ..Default::default() };
        self.record(fabric.run_with(chunk, &options)?);
        Ok(())
    }

    /// Folds the fabric's report on the stream's next chunk into the
    /// session.
    pub(crate) fn record(&mut self, report: ExecReport) {
        self.resume = report.snapshot;
        self.events.extend(report.events);
        self.stats.absorb_activity(&report.stats);
    }

    /// Splits off a session that continues from this one's suspend image,
    /// so a batch can be scanned without holding whatever lock guards
    /// `self`; [`absorb`](SessionCore::absorb) merges it back.
    pub(crate) fn fork(&mut self) -> SessionCore {
        SessionCore { resume: self.resume.take(), ..Default::default() }
    }

    /// Merges a [`fork`](SessionCore::fork) back after its batch ran.
    pub(crate) fn absorb(&mut self, batch: SessionCore) {
        self.resume = batch.resume;
        self.events.extend(batch.events);
        self.stats.absorb_activity(&batch.stats);
    }

    /// The current suspend image (`None` until the first chunk).
    pub(crate) fn snapshot(&self) -> Option<&Snapshot> {
        self.resume.as_ref()
    }

    /// All events so far, delivered or not.
    pub(crate) fn events(&self) -> &[MatchEvent] {
        &self.events
    }

    /// Events not yet handed out; marks them delivered.
    pub(crate) fn undelivered(&mut self) -> &[MatchEvent] {
        let fresh = &self.events[self.delivered..];
        self.delivered = self.events.len();
        fresh
    }

    /// Ends the session: renders the accumulated activity into whole-stream
    /// stats and the final report with every match, sorted, deduplicated.
    ///
    /// Per-chunk runs each charged a pipeline fill and rounded their own
    /// FIFO refills up; a logical stream pays the fill exactly once — at
    /// its origin — and refills on absolute 64-byte boundaries. A session
    /// resumed from a snapshot therefore charges *no* fill (its predecessor
    /// already did) and counts only the refills between its entry offset
    /// and its exit offset, so the stats of a split-and-resumed stream sum
    /// to the monolithic scan's field by field.
    pub(crate) fn finish(self, program: &Program) -> RunReport {
        let mut stats = self.stats;
        stats.cycles = match (stats.symbols, self.origin) {
            (0, _) => 0,
            (symbols, 0) => symbols + PIPELINE_FILL_CYCLES,
            (symbols, _) => symbols,
        };
        let refill = FIFO_REFILL_BYTES as u64;
        stats.fifo_refills =
            (self.origin + stats.symbols).div_ceil(refill) - self.origin.div_ceil(refill);
        let mut events = self.events;
        events.sort_unstable();
        events.dedup();
        stats.emit_counters(&program.telemetry());
        program.report_from(events, stats)
    }
}

/// One logical scan stream: feed chunks, poll matches, finish.
///
/// The contract every implementation upholds:
///
/// * **Chunking is invisible.** Feeding a stream in any segmentation
///   yields the same matches (absolute stream offsets) and the same final
///   [`RunReport`] as one monolithic scan.
/// * **`poll_matches` delivers each event exactly once**, in feed order,
///   borrowing from a buffer the session reuses across calls. Events not
///   polled are still present — sorted and deduplicated — in the final
///   report's `matches`.
/// * **`finish` is the only way to observe the stream's report**; it
///   waits for any queued work to drain first.
///
/// `feed` and `finish` are fallible because multiplexed implementations
/// ([`StreamHandle`](crate::StreamHandle), network sessions) can fail
/// mid-stream; the in-process [`Scanner`](crate::Scanner) never returns an
/// error from either.
pub trait Session {
    /// Scans (or queues) the next chunk of the stream. Positions reported
    /// for it are absolute within the logical stream. An empty chunk is a
    /// no-op.
    ///
    /// # Errors
    ///
    /// Implementation-specific; [`Scanner`](crate::Scanner) never fails,
    /// pooled/network streams surface [`CaError`] once their backend is
    /// lost or shut down.
    fn feed(&mut self, chunk: &[u8]) -> Result<(), CaError>;

    /// Matches reported since the previous call (or since the stream
    /// opened), in feed order with absolute stream positions. Borrows from
    /// a reusable internal buffer — polling an idle stream allocates
    /// nothing.
    fn poll_matches(&mut self) -> &[MatchEvent];

    /// Ends the session: waits for queued work, renders the accumulated
    /// activity, and returns the final report with *all* matches (sorted,
    /// deduplicated) regardless of what was already polled.
    ///
    /// # Errors
    ///
    /// Implementation-specific; see [`feed`](Session::feed).
    fn finish(self) -> Result<RunReport, CaError>
    where
        Self: Sized;
}
