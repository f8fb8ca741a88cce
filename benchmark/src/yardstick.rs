//! The host-speed yardstick.
//!
//! This host runs in two states that last from seconds to minutes: in the
//! slow one every compute-bound loop — the fabric kernel, the parser, the
//! compiler and a bare ALU loop alike — takes 1.2x as long (a busy sibling
//! hyperthread or a lower clock; memory latency does not move). Whole runs
//! fall into one state or the other, so no estimator over one run's samples
//! can repeat within a tenth (NOISE.md: the fast decile of 27 s windows of
//! ClamAV scan passes moves 17 % raw).
//!
//! So every timed sample is bracketed by two runs of a fixed loop owned by
//! the benchmark, and expressed *at reference host speed*: divided by the
//! smaller of the two yardstick times over [`REFERENCE_S`]. The loop shares no
//! code with the program under test, so a change to the program cannot move
//! it; raw wall-clock samples stay in the run document beside the
//! normalized ones.

use std::hint::black_box;
use std::time::Instant;

/// A reading is [`LAPS`] timed laps of [`LAP_ITERATIONS`] steps, about 5 ms
/// in all: long enough to sample the host's state, short enough that six
/// per round cost under 5 % of the round.
const LAPS: u32 = 3;
const LAP_ITERATIONS: u64 = 1_000_000;

/// The loop's time on this host in its fast state. A constant, not a
/// per-run minimum: a run that never sees the fast state must still be
/// corrected. On another host every timed metric shifts by one common
/// factor, which no comparison between two commits on that host sees.
pub const REFERENCE_S: f64 = 0.0048;

/// A serial xorshift chain: each step needs the one before, so the loop is
/// bound by ALU latency and nothing the compiler or the memory system does
/// can change its length.
#[inline(never)]
fn chain(iterations: u64, seed: u64) -> u64 {
    let mut x = seed;
    let mut acc = 0u64;
    for _ in 0..iterations {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.rotate_left(11) ^ (acc >> 3));
    }
    acc
}

/// Seconds the yardstick loop takes right now: the fastest lap, times the
/// lap count. An interrupt or a descheduling can only lengthen a lap, and
/// a reading that is too long would make the sample beside it look fast —
/// the one error a fast-decile estimator cannot shrug off.
pub fn run() -> f64 {
    let fastest = (0..LAPS)
        .map(|lap| {
            let started = Instant::now();
            black_box(chain(
                black_box(LAP_ITERATIONS),
                black_box(0x9e37_79b9_7f4a_7c15 ^ u64::from(lap)),
            ));
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    fastest * f64::from(LAPS)
}

/// The host's slowdown over an interval, from the readings on either side
/// of it: the smaller of the two over the reference, for the same reason.
pub fn slowdown(before: f64, after: f64) -> f64 {
    before.min(after) / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_is_deterministic_and_scales_with_iterations() {
        assert_eq!(chain(1000, 7), chain(1000, 7));
        assert_ne!(chain(1000, 7), chain(1001, 7));
        assert_ne!(chain(1000, 7), chain(1000, 8));
        assert!(run() > 0.0);
        assert_eq!(slowdown(REFERENCE_S * 1.5, REFERENCE_S * 1.2), 1.2);
    }
}
