//! Builds what a run feeds the program under test: the rules text and the
//! byte traces. The program receives only these — never the generator's
//! automaton, which stays behind for the oracle.
//!
//! The rule set and the byte corpus are fixed ([`CORPUS_SEED`]); `--seed`
//! decides how the corpus segments are arranged into the scan trace, dealt
//! to the serve streams and ordered into latency requests. Every seed
//! therefore gives different inputs (and a different oracle) that cost
//! the same work, so a metric does not move with the seed.

use crate::spec::{Workload, CORPUS_SEED, SEGMENTS};
use ca_workloads::Scale;
use cache_automaton::automata::anml;
use cache_automaton::HomNfa;

pub struct Inputs {
    /// ANML text of the rule set.
    pub rules: String,
    /// The generator's automaton — oracle only.
    pub nfa: HomNfa,
    pub scan: Vec<u8>,
    pub streams: Vec<Vec<u8>>,
    pub requests: Vec<Vec<u8>>,
}

/// SplitMix64: small, seedable, and independent of the repository's rand
/// shim, so a change to that shim cannot silently move the inputs.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates; the modulo bias is irrelevant at these lengths.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

#[derive(Clone, Copy)]
enum Phase {
    Scan = 1,
    Serve = 2,
    Latency = 3,
}

/// `count` corpus segments of `len` bytes for `phase`, shuffled by `seed`.
fn arranged(
    source: &ca_workloads::Workload,
    phase: Phase,
    count: usize,
    len: usize,
    seed: u64,
) -> Vec<Vec<u8>> {
    let mut segments: Vec<Vec<u8>> = (0..count)
        .map(|j| source.input(len, CORPUS_SEED ^ ((phase as u64) << 32) ^ j as u64))
        .collect();
    SplitMix64(seed ^ ((phase as u64) << 56)).shuffle(&mut segments);
    segments
}

impl Inputs {
    pub fn build(spec: &Workload, scale: f64, seed: u64) -> Inputs {
        let source = spec.rules.build(Scale(scale), CORPUS_SEED);
        let rules = anml::to_anml(&source.nfa, spec.name);

        let scan =
            arranged(&source, Phase::Scan, SEGMENTS, spec.scan_bytes / SEGMENTS, seed).concat();

        let serve_bytes = spec.serve_streams * spec.stream_bytes;
        let serve_segments = SEGMENTS.max(spec.serve_streams);
        let served =
            arranged(&source, Phase::Serve, serve_segments, serve_bytes / serve_segments, seed)
                .concat();
        let streams = served.chunks(spec.stream_bytes).map(<[u8]>::to_vec).collect();

        let requests = arranged(&source, Phase::Latency, spec.requests, spec.request_bytes, seed);
        Inputs { rules, nfa: source.nfa, scan, streams, requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{QUICK_SCALE, WORKLOADS};

    #[test]
    fn same_seed_same_inputs_other_seed_same_bytes_rearranged() {
        let spec = &WORKLOADS[3];
        let a = Inputs::build(spec, QUICK_SCALE, 7);
        let b = Inputs::build(spec, QUICK_SCALE, 7);
        let c = Inputs::build(spec, QUICK_SCALE, 8);
        assert_eq!(a.scan, b.scan);
        assert_eq!(a.streams, b.streams);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.rules, c.rules, "the rule set does not move with the seed");
        assert_ne!(a.scan, c.scan);
        let histogram = |bytes: &[u8]| {
            let mut h = [0usize; 256];
            bytes.iter().for_each(|&b| h[b as usize] += 1);
            h
        };
        assert_eq!(histogram(&a.scan), histogram(&c.scan));
        assert_eq!(a.scan.len(), spec.scan_bytes);
        assert_eq!(a.streams.len(), spec.serve_streams);
        assert!(a.streams.iter().all(|s| s.len() == spec.stream_bytes));
        assert_eq!(a.requests.len(), spec.requests);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        SplitMix64(1).shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }
}
