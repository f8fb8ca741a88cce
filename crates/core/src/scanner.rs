//! Streaming scan sessions.
//!
//! A [`Scanner`] holds one instance of a compiled program's execution state
//! — active-state vectors, symbol counter, CBOX output-buffer occupancy —
//! across an arbitrary sequence of [`feed`](Scanner::feed) calls, exactly
//! the suspend/resume capability of paper §2.9. Chunk boundaries are
//! invisible to the automaton: feeding a stream in any segmentation yields
//! the same matches, cycle count and energy as one monolithic scan.

use crate::session::SessionCore;
use crate::{CaError, MatchEvent, Program, RunReport, Session};
use ca_sim::{Fabric, Snapshot};

/// An in-progress streaming scan over one logical input stream.
///
/// Created by [`Program::scanner`] (fresh stream) or
/// [`Program::resume_scanner`] (continue from a saved [`Snapshot`]).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use cache_automaton::CacheAutomaton;
///
/// let program = CacheAutomaton::new().compile_patterns(&["spain"])?;
/// let mut scanner = program.scanner();
/// scanner.feed(b"the rain in sp");   // match straddles the boundary
/// scanner.feed(b"ain");
/// let report = scanner.finish();
/// assert_eq!(report.matches.len(), 1);
/// # Ok(())
/// # }
/// ```
#[must_use = "a scanner accumulates matches; call finish() to obtain the report"]
#[derive(Debug)]
pub struct Scanner<'p> {
    program: &'p Program,
    fabric: Fabric,
    core: SessionCore,
}

impl<'p> Scanner<'p> {
    pub(crate) fn new(program: &'p Program, resume: Option<Snapshot>) -> Scanner<'p> {
        let core = resume.map_or_else(SessionCore::fresh, SessionCore::resumed);
        Scanner { fabric: program.fabric(), program, core }
    }

    /// Scans the next chunk of the stream, returning the matches it
    /// produced (positions are absolute within the logical stream).
    ///
    /// State carries over between calls, so a pattern may begin in one
    /// chunk and report in a later one.
    ///
    /// **Compatibility note:** this return shape (infallible, yielding the
    /// chunk's matches directly) predates the unified [`Session`] trait
    /// and is kept as a thin wrapper for existing callers. New code —
    /// especially code that should also run over pooled or network
    /// streams — should use the trait's fallible `feed` /
    /// [`poll_matches`](Session::poll_matches) pair. The two styles
    /// compose: every event is handed out exactly once, whether by this
    /// method's return value or by a later `poll_matches`.
    pub fn feed(&mut self, chunk: &[u8]) -> &[MatchEvent] {
        let first_new = self.core.events().len();
        self.advance(chunk);
        // Events returned here count as delivered, so a later
        // `poll_matches` does not hand them out a second time.
        self.core.undelivered();
        &self.core.events()[first_new..]
    }

    fn advance(&mut self, chunk: &[u8]) {
        // A scanner only ever resumes snapshots its own fabric produced
        // (foreign snapshots are rejected by `Program::resume_scanner`), so
        // the vector count always matches.
        self.core.advance(&mut self.fabric, chunk).expect("scanner snapshots match their fabric");
    }

    /// Symbols consumed so far across all chunks.
    pub fn position(&self) -> u64 {
        self.core.snapshot().map_or(0, |s| s.symbol_counter)
    }

    /// All matches reported so far, in position order.
    pub fn matches(&self) -> &[MatchEvent] {
        self.core.events()
    }

    /// The current suspend image (`None` until the first `feed`).
    ///
    /// Persist it and continue the same logical stream later — in another
    /// scanner, process, or machine — via [`Program::resume_scanner`].
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.core.snapshot()
    }

    /// Ends the session and renders the accumulated activity into a
    /// [`RunReport`] (energy, simulated time, throughput).
    ///
    /// The pipeline fill is charged once for the whole stream, so the
    /// report is identical whatever chunk sizes fed it — and a session
    /// resumed from a snapshot charges neither the fill (its predecessor
    /// already did) nor refills before its entry offset, so split streams
    /// sum to the monolithic scan.
    pub fn finish(self) -> RunReport {
        self.core.finish(self.program)
    }
}

impl Session for Scanner<'_> {
    /// Scans the chunk immediately on the dedicated fabric. Never fails.
    fn feed(&mut self, chunk: &[u8]) -> Result<(), CaError> {
        self.advance(chunk);
        Ok(())
    }

    /// Events scanned but not yet handed out — by this method *or* by the
    /// compat [`Scanner::feed`] return value.
    fn poll_matches(&mut self) -> &[MatchEvent] {
        self.core.undelivered()
    }

    fn finish(self) -> Result<RunReport, CaError> {
        Ok(Scanner::finish(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheAutomaton;

    fn program() -> Program {
        CacheAutomaton::new().compile_patterns(&["needle", "ab"]).unwrap()
    }

    #[test]
    fn chunking_is_invisible() {
        let program = program();
        let input = b"xxabxneedlexabneedleab";
        let whole = program.run(input);
        for chunk in [1usize, 2, 3, 5, 7, 64] {
            let mut scanner = program.scanner();
            for piece in input.chunks(chunk) {
                scanner.feed(piece);
            }
            let report = scanner.finish();
            assert_eq!(report.matches, whole.matches, "chunk size {chunk}");
            assert_eq!(report.exec, whole.exec, "chunk size {chunk}");
            assert_eq!(report.simulated_seconds, whole.simulated_seconds);
        }
    }

    #[test]
    fn feed_returns_incremental_matches() {
        let program = program();
        let mut scanner = program.scanner();
        assert_eq!(scanner.feed(b"a").len(), 0);
        assert_eq!(scanner.feed(b"b").len(), 1, "match completes on second chunk");
        assert_eq!(scanner.position(), 2);
        assert_eq!(scanner.matches().len(), 1);
        assert_eq!(scanner.matches()[0].pos, 1);
    }

    #[test]
    fn snapshot_roundtrips_through_resume_scanner() {
        let program = program();
        let input = b"xneedlexxabx";
        let whole = program.run(input);

        let mut first = program.scanner();
        first.feed(&input[..4]);
        let image = first.snapshot().expect("fed scanner has an image").clone();
        let early_matches = first.matches().to_vec();

        let mut second = program.resume_scanner(image).expect("snapshot from same program");
        second.feed(&input[4..]);
        let first_report = first.finish();
        let second_report = second.finish();

        let mut all = early_matches;
        all.extend(second_report.matches.clone());
        assert_eq!(all, whole.matches);

        // Exec parity: the two sessions' stats must sum field-by-field to
        // the monolithic scan's — one pipeline fill for the whole stream,
        // refills on absolute 64-byte boundaries.
        let mut combined = first_report.exec.clone();
        combined.absorb_activity(&second_report.exec);
        combined.cycles = first_report.exec.cycles + second_report.exec.cycles;
        assert_eq!(combined, whole.exec, "split-and-resumed stream must match monolithic exec");
    }

    #[test]
    fn resumed_session_charges_no_pipeline_fill() {
        let program = program();
        // Split exactly on a FIFO-refill boundary so misaligned refill
        // accounting (each half rounding up independently) would differ.
        let input = vec![b'x'; 200];
        let whole = program.run(&input);
        assert_eq!(whole.exec.fifo_refills, 200u64.div_ceil(64));

        let mut first = program.scanner();
        first.feed(&input[..64]);
        let image = first.snapshot().unwrap().clone();
        let first_exec = first.finish().exec;
        let mut second = program.resume_scanner(image).unwrap();
        second.feed(&input[64..]);
        let second_exec = second.finish().exec;

        assert_eq!(first_exec.cycles, 64 + ca_sim::fabric::PIPELINE_FILL_CYCLES);
        assert_eq!(second_exec.cycles, 136, "resumed session must not re-charge pipeline fill");
        assert_eq!(first_exec.fifo_refills + second_exec.fifo_refills, whole.exec.fifo_refills);
        assert_eq!(first_exec.cycles + second_exec.cycles, whole.exec.cycles);
    }

    #[test]
    fn foreign_snapshot_is_rejected_at_resume() {
        let program = program();
        let partitions = program.compiled().bitstream.partitions.len();
        let foreign = ca_sim::Snapshot {
            symbol_counter: 9,
            active_vectors: vec![ca_sim::Mask256::ZERO; partitions + 1],
            output_buffer_fill: 0,
        };
        let err = program.resume_scanner(foreign).map(|_| ()).unwrap_err();
        assert!(matches!(err, crate::CaError::Config(_)), "{err}");
        assert!(err.to_string().contains("another program"), "{err}");
    }

    #[test]
    fn sessions_scan_on_the_programs_shared_tables() {
        let program = program();
        let (first, second) = (program.scanner(), program.scanner());
        assert!(first.fabric.shares_tables(&second.fabric));
        assert!(first.fabric.shares_tables(&program.clone().fabric()));
    }

    #[test]
    fn empty_session_reports_zero_work() {
        let program = program();
        let report = program.scanner().finish();
        assert!(report.matches.is_empty());
        assert_eq!(report.exec.cycles, 0);
        assert_eq!(report.simulated_seconds, 0.0);
    }
}
