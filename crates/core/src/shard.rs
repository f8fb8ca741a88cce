//! Sharded parallel scanning.
//!
//! [`Program::run_parallel`] splits one input stream into contiguous
//! stripes, scans them concurrently on OS threads (one fabric instance
//! each — the multi-instance replication of paper §5.2 turned loose on a
//! *single* stream), and merges the per-stripe match streams into one
//! deterministic, position-sorted [`RunReport`] that is byte-identical to
//! a serial [`Program::run`].
//!
//! # Boundary-state handoff
//!
//! A stripe that starts mid-stream does not know which carry-over states
//! its predecessor would have left armed. The driver exploits the fabric's
//! union-homomorphism — the transition is linear in the active set, and
//! the per-cycle `start_all` injection is a base term that unions
//! idempotently — to fix that up *after* the parallel phase:
//!
//! 1. **Guess phase (parallel).** Stripe 0 runs fresh; every later stripe
//!    runs from [`Fabric::midstream_snapshot`], i.e. with only the
//!    always-armed start states — a guaranteed *subset* of the true entry
//!    state, so nothing spurious is reported.
//! 2. **Stitch phase (sequential).** Walking left to right, the true exit
//!    of stripe *i−1* becomes stripe *i*'s true entry;
//!    [`Fabric::run_correction`](ca_sim::Fabric::run_correction) then
//!    evolves the true and guessed active sets side by side and emits
//!    exactly the per-cycle *differences* — the matches, matched-STE
//!    counts, partition activations and G-switch signals the guess missed
//!    — so the merged `ExecStats` reconcile field by field with a serial
//!    scan instead of double-counting activity shared by both evolutions.
//!    The correction exits as soon as the evolutions converge, so when
//!    carry-over state decays in a few symbols (literal rulesets such as
//!    SPM or Bro217) the stitch touches only a short prefix of each stripe
//!    and throughput scales almost linearly with the shard count.
//!
//! Matches are identical to a serial scan for *every* ruleset, but the
//! speedup is workload-dependent: patterns with persistent mid-pattern
//! state — e.g. a dotstar infix `a.*b`, whose loop STE stays armed forever
//! once seen — force each correction to rerun its entire stripe, and the
//! critical path degrades toward serial (Snort in the `scaling`
//! experiment's measured table).

use crate::{join_panic_to_internal, CaError, Program, RunReport};
use ca_sim::fabric::{ExecStats, RunOptions, OUTPUT_BUFFER_ENTRIES};
use ca_sim::{Mask256, Snapshot};
use ca_telemetry::SpanGuard;

/// Smallest stripe [`Parallelism::Auto`] will create: below this the
/// per-stripe thread and boundary stitch cost more than they save.
const MIN_AUTO_STRIPE_BYTES: usize = 64 * 1024;

/// How many fabric instances a parallel scan spreads the stream across.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Parallelism {
    /// One stripe per available CPU, capped so every stripe is at least
    /// 64 KiB long (short inputs degrade gracefully to a serial scan).
    #[default]
    Auto,
    /// Exactly this many stripes (clamped to one per input byte).
    /// `Threads(1)` is the serial scan.
    Threads(usize),
}

impl Parallelism {
    fn resolve_shards(self, input_len: usize) -> Result<usize, CaError> {
        let requested = match self {
            Parallelism::Threads(0) => {
                return Err(CaError::Config(
                    "Parallelism::Threads(0): a scan needs at least one thread".into(),
                ));
            }
            Parallelism::Threads(n) => n,
            Parallelism::Auto => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                cores.min(input_len / MIN_AUTO_STRIPE_BYTES).max(1)
            }
        };
        Ok(requested.min(input_len).max(1))
    }
}

/// Near-equal contiguous stripes: every stripe non-empty, first stripes one
/// byte longer when the length does not divide evenly.
fn stripe_bounds(len: usize, shards: usize) -> Vec<(usize, usize)> {
    let base = len / shards;
    let extra = len % shards;
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let end = start + base + usize::from(i < extra);
        bounds.push((start, end));
        start = end;
    }
    bounds
}

impl Program {
    /// Scans `input` with a parallel sharded pipeline, returning a report
    /// whose `matches` are exactly those of a serial [`run`](Program::run)
    /// — same events, same position order.
    ///
    /// Cycle accounting treats the stripes as concurrently executing
    /// fabric instances: `exec.cycles` is the makespan (slowest stripe
    /// plus the sequential boundary-stitch work) and never exceeds the
    /// serial cycle count. Every other counter — symbols, reports,
    /// matched STEs, partition activity, G-switch signals, interrupts —
    /// equals the serial scan's exactly: corrections contribute only the
    /// activity the guesses missed.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] on a zero thread count; [`CaError::Internal`]
    /// if a stripe thread panics.
    pub fn run_parallel(
        &self,
        input: &[u8],
        parallelism: Parallelism,
    ) -> Result<RunReport, CaError> {
        let shards = parallelism.resolve_shards(input.len())?;
        if shards <= 1 {
            return Ok(self.run(input));
        }
        let bounds = stripe_bounds(input.len(), shards);
        let template = self.fabric();
        let telemetry = self.telemetry();
        telemetry.counter("scan.stripes", shards as u64);

        // Guess phase: every stripe on its own thread and fabric instance.
        // A panicking stripe must degrade to a typed error, not abort the
        // process: join failures collect into `CaError::Internal`.
        let stripe_reports = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .enumerate()
                .map(|(i, &(start, end))| {
                    let template = &template;
                    let telemetry = telemetry.clone();
                    scope.spawn(move || {
                        let span = SpanGuard::start(&telemetry, "scan.stripe.guess", i as u64);
                        let mut fabric = template.clone();
                        let resume = (start > 0).then(|| fabric.midstream_snapshot(start as u64));
                        let report = fabric.run_with(
                            &input[start..end],
                            &RunOptions { resume, ..Default::default() },
                        );
                        span.finish();
                        report
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().map_err(|e| join_panic_to_internal("stripe scan", e)).and_then(|res| {
                        res.map_err(|e| {
                            CaError::Internal(format!("stripe scan rejected its resume image: {e}"))
                        })
                    })
                })
                .collect::<Result<Vec<_>, CaError>>()
        })?;

        // Stitch phase: sequential left-to-right boundary handoff.
        let start_all = template.start_all_vectors();
        let makespan_guess = stripe_reports.iter().map(|r| r.stats.cycles).max().unwrap_or(0);
        let mut events = Vec::new();
        let mut stats = ExecStats::default();
        let mut stitch_cycles = 0u64;
        let mut true_exit: Vec<Mask256> = Vec::new();
        for (i, (report, &(start, end))) in stripe_reports.iter().zip(&bounds).enumerate() {
            events.extend(report.events.iter().copied());
            stats.absorb_activity(&report.stats);
            let guess_exit =
                &report.snapshot.as_ref().expect("stripe run returns a snapshot").active_vectors;
            if start == 0 {
                true_exit = guess_exit.clone();
                continue;
            }
            // Skip the correction when the true boundary hands over
            // nothing beyond the armed starts the guess already had.
            let carry: Vec<Mask256> =
                true_exit.iter().zip(start_all).map(|(t, g)| t.and_not(g)).collect();
            if carry.iter().all(Mask256::is_zero) {
                true_exit = guess_exit.clone();
                continue;
            }
            let span = SpanGuard::start(&telemetry, "scan.stripe.correction", i as u64);
            let correction = template
                .run_correction(
                    &input[start..end],
                    &Snapshot {
                        symbol_counter: start as u64,
                        active_vectors: true_exit.clone(),
                        output_buffer_fill: 0,
                    },
                )
                .map_err(|e| {
                    CaError::Internal(format!("boundary correction rejected its entry image: {e}"))
                })?;
            span.finish();
            telemetry.counter("scan.corrections", 1);
            telemetry.counter("scan.correction_symbols", correction.stats.symbols);
            events.extend(correction.events.iter().copied());
            stats.absorb_activity(&correction.stats);
            stitch_cycles += correction.stats.cycles;
            // The correction's exit image is the true exit; on early
            // convergence the guess exit is already correct.
            true_exit = match correction.snapshot {
                Some(snapshot) => snapshot.active_vectors,
                None => guess_exit.clone(),
            };
        }

        events.sort_unstable();
        // One logical stream: symbols/refills cover the input once, the
        // correction runs contributed only the activity the guesses
        // missed, and the output buffer of the merged stream fills as the
        // serial scan's would. Cycles are the explicit schedule: the guess
        // phase ran concurrently (slowest stripe), then the stitch
        // serializes — `absorb_activity` deliberately leaves the field to
        // this decision.
        stats.symbols = input.len() as u64;
        stats.cycles = makespan_guess + stitch_cycles;
        stats.fifo_refills = input.len().div_ceil(ca_sim::fabric::FIFO_REFILL_BYTES) as u64;
        stats.reports = events.len() as u64;
        stats.output_interrupts = stats.reports / OUTPUT_BUFFER_ENTRIES as u64;
        stats.emit_counters(&telemetry);
        Ok(self.report_from(events, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheAutomaton;

    fn program() -> Program {
        CacheAutomaton::new().compile_patterns(&["needle", "na+il", "screw"]).unwrap()
    }

    fn haystack() -> Vec<u8> {
        let mut input = Vec::new();
        for i in 0..40 {
            input.extend_from_slice(match i % 5 {
                0 => b"xxneedlexx".as_slice(),
                1 => b"naaailxxxx",
                2 => b"screwxxxxx",
                3 => b"nneedlescr",
                _ => b"ewnailxxxx",
            });
        }
        input
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let program = program();
        let input = haystack();
        let serial = program.run(&input);
        for shards in [1usize, 2, 3, 4, 7, 8] {
            let parallel = program.run_parallel(&input, Parallelism::Threads(shards)).unwrap();
            assert_eq!(parallel.matches, serial.matches, "{shards} shards");
            assert_eq!(parallel.exec.symbols, serial.exec.symbols);
        }
    }

    #[test]
    fn more_shards_than_bytes_is_fine() {
        let program = program();
        let report = program.run_parallel(b"needle", Parallelism::Threads(64)).unwrap();
        assert_eq!(report.matches.len(), 1);
        let empty = program.run_parallel(b"", Parallelism::Threads(4)).unwrap();
        assert!(empty.matches.is_empty());
        assert_eq!(empty.exec.cycles, 0);
    }

    #[test]
    fn zero_threads_is_a_config_error() {
        let program = program();
        let err = program.run_parallel(b"abc", Parallelism::Threads(0)).unwrap_err();
        assert!(matches!(err, CaError::Config(_)));
        assert!(err.to_string().contains("at least one thread"));
    }

    #[test]
    fn auto_on_short_input_stays_serial() {
        let program = program();
        let serial = program.run(b"xxneedle");
        let auto = program.run_parallel(b"xxneedle", Parallelism::Auto).unwrap();
        assert_eq!(auto.matches, serial.matches);
        assert_eq!(auto.exec, serial.exec, "short input takes the serial path");
    }

    #[test]
    fn makespan_beats_serial_cycles() {
        let program = program();
        let input = haystack();
        let serial = program.run(&input);
        let parallel = program.run_parallel(&input, Parallelism::Threads(4)).unwrap();
        assert!(
            parallel.exec.cycles < serial.exec.cycles,
            "4 stripes must shorten the critical path: {} !< {}",
            parallel.exec.cycles,
            serial.exec.cycles
        );
        assert!(parallel.achieved_gbps() > serial.achieved_gbps());
    }

    #[test]
    fn stripe_bounds_cover_input() {
        for len in [1usize, 2, 7, 100, 101] {
            for shards in 1..=7.min(len) {
                let bounds = stripe_bounds(len, shards);
                assert_eq!(bounds.len(), shards);
                assert_eq!(bounds[0].0, 0);
                assert_eq!(bounds.last().unwrap().1, len);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                    assert!(w[0].1 > w[0].0, "non-empty");
                }
            }
        }
    }
}
