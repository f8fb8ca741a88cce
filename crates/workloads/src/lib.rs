//! Synthesizers for the 20 ANMLZoo / Regex benchmarks of the Cache
//! Automaton evaluation, plus matching input-stream generators.
//!
//! The original benchmark files are distributed outside this repository
//! (ANMLZoo rule files, proprietary traces); per the reproduction's
//! substitution policy (DESIGN.md §1) each benchmark is regenerated with
//! the *published structural characteristics* of the paper's Table 1 —
//! exact component counts, state counts within a few percent, comparable
//! largest components — using either exact constructions (Levenshtein,
//! Hamming automata) or faithful pattern synthesis (Snort-style rules,
//! ClamAV signatures, PROSITE motifs, ...).
//!
//! # Examples
//!
//! ```
//! use ca_workloads::{Benchmark, Scale};
//!
//! // A CI-sized Levenshtein workload and a 4 KB input trace.
//! let w = Benchmark::Levenshtein.build(Scale::tiny(), 42);
//! let input = w.input(4096, 7);
//! assert_eq!(input.len(), 4096);
//! assert!(w.nfa.len() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod editdist;
pub mod entity;
pub mod patterns;
pub mod table1;

pub use table1::{table1_row, Table1Row, TABLE1};

use ca_automata::regex::compile_patterns;
use ca_automata::{HomNfa, ReportCode};
use editdist::{hamming_nfa, levenshtein_nfa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload size relative to the paper (1.0 = Table 1 scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// Paper scale: component counts match Table 1.
    pub fn full() -> Scale {
        Scale(1.0)
    }

    /// CI scale: ~4% of the paper's components (fast tests).
    pub fn tiny() -> Scale {
        Scale(0.04)
    }

    fn count(&self, base: usize) -> usize {
        ((base as f64 * self.0).round() as usize).max(1)
    }
}

impl Default for Scale {
    fn default() -> Scale {
        Scale::full()
    }
}

/// The 20 benchmarks of the paper's evaluation (Table 1 order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    Dotstar03,
    Dotstar06,
    Dotstar09,
    Ranges05,
    Ranges1,
    ExactMatch,
    Bro217,
    Tcp,
    Snort,
    Brill,
    ClamAv,
    Dotstar,
    EntityResolution,
    Levenshtein,
    Hamming,
    Fermi,
    Spm,
    RandomForest,
    PowerEn,
    Protomata,
}

impl Benchmark {
    /// All benchmarks in Table 1 order.
    pub fn all() -> [Benchmark; 20] {
        use Benchmark::*;
        [
            Dotstar03,
            Dotstar06,
            Dotstar09,
            Ranges05,
            Ranges1,
            ExactMatch,
            Bro217,
            Tcp,
            Snort,
            Brill,
            ClamAv,
            Dotstar,
            EntityResolution,
            Levenshtein,
            Hamming,
            Fermi,
            Spm,
            RandomForest,
            PowerEn,
            Protomata,
        ]
    }

    /// Name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Dotstar03 => "Dotstar03",
            Benchmark::Dotstar06 => "Dotstar06",
            Benchmark::Dotstar09 => "Dotstar09",
            Benchmark::Ranges05 => "Ranges05",
            Benchmark::Ranges1 => "Ranges1",
            Benchmark::ExactMatch => "ExactMatch",
            Benchmark::Bro217 => "Bro217",
            Benchmark::Tcp => "TCP",
            Benchmark::Snort => "Snort",
            Benchmark::Brill => "Brill",
            Benchmark::ClamAv => "ClamAV",
            Benchmark::Dotstar => "Dotstar",
            Benchmark::EntityResolution => "EntityResolution",
            Benchmark::Levenshtein => "Levenshtein",
            Benchmark::Hamming => "Hamming",
            Benchmark::Fermi => "Fermi",
            Benchmark::Spm => "SPM",
            Benchmark::RandomForest => "RandomForest",
            Benchmark::PowerEn => "PowerEN",
            Benchmark::Protomata => "Protomata",
        }
    }

    /// The published Table 1 row for this benchmark.
    pub fn table1(self) -> &'static Table1Row {
        table1_row(self.name()).expect("every benchmark has a Table 1 row")
    }

    /// Synthesizes the workload at the given scale.
    ///
    /// Identical `(scale, seed)` pairs produce identical workloads.
    pub fn build(self, scale: Scale, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed ^ (self as u64) << 32);
        let row = self.table1();
        let count = scale.count(row.connected_components);
        let (nfa, alphabet, splice_rate): (HomNfa, &[u8], f64) = match self {
            Benchmark::Dotstar03 => (
                from_patterns(&patterns::dotstar_patterns(&mut rng, count, 0.03)),
                patterns::ALNUM,
                0.0003,
            ),
            Benchmark::Dotstar06 => (
                from_patterns(&patterns::dotstar_patterns(&mut rng, count, 0.06)),
                patterns::ALNUM,
                0.004,
            ),
            Benchmark::Dotstar09 => (
                from_patterns(&patterns::dotstar_patterns(&mut rng, count, 0.09)),
                patterns::ALNUM,
                0.003,
            ),
            Benchmark::Ranges05 => (
                from_patterns(&patterns::ranges_patterns(&mut rng, count, 0.5)),
                patterns::ALNUM,
                0.0012,
            ),
            Benchmark::Ranges1 => (
                from_patterns(&patterns::ranges_patterns(&mut rng, count, 1.0)),
                patterns::ALNUM,
                0.0012,
            ),
            Benchmark::ExactMatch => (
                from_patterns(&patterns::exact_match_patterns(&mut rng, count)),
                patterns::ALNUM,
                0.0012,
            ),
            Benchmark::Bro217 => {
                (from_patterns(&patterns::bro_patterns(&mut rng, count)), patterns::ALNUM, 0.0015)
            }
            Benchmark::Tcp => {
                (from_patterns(&patterns::tcp_patterns(&mut rng, count)), patterns::ALNUM, 0.0015)
            }
            Benchmark::Snort => {
                (from_patterns(&patterns::snort_patterns(&mut rng, count)), patterns::ALNUM, 0.06)
            }
            Benchmark::Brill => (
                from_patterns(&patterns::brill_patterns(&mut rng, count)),
                b"abcdefghijklmnopqrstuvwxyz ",
                0.45,
            ),
            Benchmark::ClamAv => {
                (from_patterns(&patterns::clamav_patterns(&mut rng, count)), &[], 0.05)
            }
            Benchmark::Dotstar => (
                from_patterns(&patterns::dotstar_mixed_patterns(&mut rng, count)),
                patterns::ALNUM,
                0.0012,
            ),
            Benchmark::EntityResolution => {
                // Name parts from shared vocabularies — the sharing is what
                // the space-optimized design merges. Real name data clusters
                // (by region/culture), which is why the paper's merged ER
                // automaton splits into few connected components (5 in
                // Table 1). Our structural merging keeps more states than
                // the paper's semantic restructuring, so we use 12 pools —
                // each merged component then fits one way and routes via
                // the 16-port G-switch (see EXPERIMENTS.md section 4).
                const POOLS: usize = 12;
                let pools: Vec<Vec<String>> = (0..POOLS)
                    .map(|k| {
                        // disjoint initial-letter ranges keep the pools'
                        // merged components separate (ab, cd, ef, ...)
                        let initials: Vec<u8> = (0..2).map(|i| b'a' + (k * 2 + i) as u8).collect();
                        (0..30)
                            .map(|_| {
                                let len = rng.gen_range(4..10);
                                let first = initials[rng.gen_range(0..initials.len())] as char;
                                format!(
                                    "{first}{}",
                                    patterns::literal(&mut rng, len, b"abcdefghijklmnopqrstuvwxyz")
                                )
                            })
                            .collect()
                    })
                    .collect();
                let mut parts = Vec::new();
                for i in 0..count {
                    let pool = &pools[i % POOLS];
                    let pick = |rng: &mut StdRng| pool[rng.gen_range(0..pool.len())].clone();
                    let (p1, p2, p3) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
                    parts.push(entity::entity_nfa(
                        [p1.as_bytes(), p2.as_bytes(), p3.as_bytes()],
                        ReportCode(i as u32),
                    ));
                }
                (HomNfa::union_all(parts.iter(), false), b"abcdefghijklmnopqrstuvwxyz ", 0.4)
            }
            Benchmark::Levenshtein => {
                let mut parts = Vec::new();
                for i in 0..count {
                    let pattern = patterns::literal(&mut rng, 12, b"acgt");
                    parts.push(levenshtein_nfa(pattern.as_bytes(), 3, ReportCode(i as u32)));
                }
                (HomNfa::union_all(parts.iter(), false), b"acgtnrywskmbdhv-", 0.01)
            }
            Benchmark::Hamming => {
                let mut parts = Vec::new();
                for i in 0..count {
                    let pattern = patterns::literal(&mut rng, 24, b"acgt");
                    parts.push(hamming_nfa(pattern.as_bytes(), 2, ReportCode(i as u32)));
                }
                (HomNfa::union_all(parts.iter(), false), b"acgt", 0.01)
            }
            Benchmark::Fermi => (
                from_patterns(&patterns::fermi_patterns(&mut rng, count)),
                b"0123456789abcdef",
                0.7,
            ),
            Benchmark::Spm => {
                (from_patterns(&patterns::spm_patterns(&mut rng, count)), b"ix0123456789;", 0.5)
            }
            Benchmark::RandomForest => (
                from_patterns(&patterns::random_forest_patterns(&mut rng, count)),
                patterns::ALNUM,
                0.35,
            ),
            Benchmark::PowerEn => {
                (from_patterns(&patterns::poweren_patterns(&mut rng, count)), patterns::ALNUM, 0.02)
            }
            Benchmark::Protomata => (
                from_patterns(&patterns::protomata_patterns(&mut rng, count)),
                patterns::AMINO,
                0.4,
            ),
        };
        // harvest input fragments: literal-ish prefixes of the automaton's
        // chains, reconstructed by walking from start states
        let fragments = harvest_fragments(&nfa, &mut rng, 64);
        let alphabet: Vec<u8> = if alphabet.is_empty() {
            (0u8..=255).collect() // ClamAV scans binary data
        } else {
            alphabet.to_vec()
        };
        Workload { benchmark: self, nfa, fragments, alphabet, splice_rate }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn from_patterns(patterns: &[String]) -> HomNfa {
    let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
    compile_patterns(&refs).expect("synthesized patterns always compile")
}

/// Walks forward from random start states, picking one symbol per label,
/// producing realistic "hot" fragments for input synthesis.
fn harvest_fragments(nfa: &HomNfa, rng: &mut StdRng, how_many: usize) -> Vec<Vec<u8>> {
    let starts = nfa.start_states();
    if starts.is_empty() {
        return Vec::new();
    }
    let mut fragments = Vec::with_capacity(how_many);
    for _ in 0..how_many {
        let mut state = starts[rng.gen_range(0..starts.len())];
        let mut frag = Vec::new();
        for _ in 0..rng.gen_range(4..24) {
            let label = nfa.state(state).label;
            let symbols: Vec<u8> = label.iter().take(8).collect();
            if symbols.is_empty() {
                break;
            }
            frag.push(symbols[rng.gen_range(0..symbols.len())]);
            let succ = nfa.successors(state);
            if succ.is_empty() {
                break;
            }
            state = succ[rng.gen_range(0..succ.len())];
        }
        if !frag.is_empty() {
            fragments.push(frag);
        }
    }
    fragments
}

/// A synthesized benchmark workload: automaton plus input generator.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Which benchmark this is.
    pub benchmark: Benchmark,
    /// The performance-optimized (baseline) automaton.
    pub nfa: HomNfa,
    fragments: Vec<Vec<u8>>,
    alphabet: Vec<u8>,
    splice_rate: f64,
}

impl Workload {
    /// Generates `len` bytes of benchmark-flavoured input: alphabet noise
    /// with pattern fragments spliced in at the benchmark's hit rate.
    pub fn input(&self, len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1257_ace0);
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            if !self.fragments.is_empty() && rng.gen_bool(self.splice_rate) {
                let frag = &self.fragments[rng.gen_range(0..self.fragments.len())];
                out.extend_from_slice(frag);
            } else {
                out.push(self.alphabet[rng.gen_range(0..self.alphabet.len())]);
            }
        }
        out.truncate(len);
        out
    }

    /// The space-optimized automaton: dead-state removal plus common-prefix
    /// merging (the paper's CA_S input).
    pub fn space_optimized(&self) -> HomNfa {
        ca_automata::optimize::space_optimize(&self.nfa).0
    }

    /// Generates a worst-case trace: wall-to-wall pattern fragments with no
    /// noise. Drives maximum automaton activity (used by the DFA-blowup
    /// study and stress tests).
    pub fn adversarial_input(&self, len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xadf7_541e);
        let mut out = Vec::with_capacity(len + 32);
        while out.len() < len {
            if self.fragments.is_empty() {
                out.push(self.alphabet[rng.gen_range(0..self.alphabet.len())]);
            } else {
                let frag = &self.fragments[rng.gen_range(0..self.fragments.len())];
                out.extend_from_slice(frag);
            }
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_automata::analysis::connected_components;

    #[test]
    fn tiny_scale_builds_every_benchmark() {
        for b in Benchmark::all() {
            let w = b.build(Scale::tiny(), 1);
            assert!(w.nfa.validate().is_ok(), "{b} invalid");
            assert!(!w.nfa.is_empty(), "{b} empty");
            let input = w.input(512, 3);
            assert_eq!(input.len(), 512);
        }
    }

    #[test]
    fn component_counts_scale() {
        let w = Benchmark::ExactMatch.build(Scale(0.1), 2);
        let cc = connected_components(&w.nfa);
        let expect = (297.0f64 * 0.1).round() as usize;
        assert_eq!(cc.len(), expect);
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Benchmark::Snort.build(Scale::tiny(), 9);
        let b = Benchmark::Snort.build(Scale::tiny(), 9);
        assert_eq!(a.nfa, b.nfa);
        assert_eq!(a.input(256, 1), b.input(256, 1));
        let c = Benchmark::Snort.build(Scale::tiny(), 10);
        assert_ne!(a.nfa, c.nfa);
    }

    #[test]
    fn space_optimization_shrinks_mergeable_benchmarks() {
        for b in [Benchmark::Spm, Benchmark::EntityResolution, Benchmark::Brill] {
            let w = b.build(Scale::tiny(), 5);
            let opt = w.space_optimized();
            assert!(opt.len() < w.nfa.len(), "{b}: {} !< {}", opt.len(), w.nfa.len());
        }
    }

    /// The CA_S input of every benchmark at `Scale(0.1)`, seed 2017, pinned
    /// by its state count, its canonical fingerprint and a digest of every
    /// successor list *in stored order* — which the fingerprint sorts away
    /// but the compiler's packing and partitioning see.
    #[test]
    fn space_optimized_automata_are_pinned() {
        use ca_automata::fingerprint::StableHasher;
        use Benchmark::*;
        const PINS: [(Benchmark, usize, &str, &str); 20] = [
            (
                Dotstar03,
                1210,
                "7e78562faea0b67236c42f931dbee744",
                "f227d7ce4015f6b31512164ab9586a51",
            ),
            (
                Dotstar06,
                1239,
                "a73e31af11e7b28ec1c8fa0af8d672db",
                "486144796129e3db76e0551b62d3e7ec",
            ),
            (
                Dotstar09,
                1182,
                "ea4af7703dd91c69a4a3e1e9843beab5",
                "3c7bb1c0b3ed3605371d19d286d16779",
            ),
            (
                Ranges05,
                1275,
                "b1ccf91001a69c692327997ede699220",
                "ff7917af6e598c20f91016d72b4971cd",
            ),
            (Ranges1, 1047, "f944f229cee960a120fffa2f52dbc665", "32228b359d12f4f9aeee5c394dc505ae"),
            (
                ExactMatch,
                1040,
                "592fc0bedb813798ab9cb16302326e34",
                "5cdf89745db27b0c70fcd41f12071f1a",
            ),
            (Bro217, 205, "a22a7aef8b44d4015b0a44368178322c", "0230cc95bf4ffea6ec072297c21b94bd"),
            (Tcp, 2147, "2df92a4afa2b2c57806de25e2b52a1cf", "784f7332bad0e8e9aae33684f9cc6860"),
            (Snort, 4082, "a0f68472e4f97ec7d88ed136b2571c51", "292d884bc1273679957582f91f5acc60"),
            (Brill, 3869, "e5bc0bf78bfc474debc5da495ca3997b", "99afc3d4b2083f5b5d3d9ae45bd630f2"),
            (ClamAv, 4573, "7546a906cf4bca10d448edf57dbeeaf0", "c75cf312f2b0278362f7e9ec2331107f"),
            (Dotstar, 5829, "aa44c6f4903e29203854eeb9df9072f3", "c3064f70fc4d85c115bbe0baab6188e9"),
            (
                EntityResolution,
                7557,
                "fda852ea2694d160680893dc026ef874",
                "0f9b83c1c9587f873c5579122b1e0c41",
            ),
            (
                Levenshtein,
                243,
                "b0972efed881e3d0d0b711fdfb6697bf",
                "717025cb0745990faca034936589af9e",
            ),
            (Hamming, 1022, "03b6d804866760592f057552692c1278", "83401f0899888d3e81d3ecfcd2d31224"),
            (Fermi, 3764, "a2876b1916c1101a7be920f59c6f32a7", "a4f77f0206ed3083e8ddd2fcf974e8dd"),
            (Spm, 4425, "33f22ce5d363d81c1a7795d83e68f2c5", "ddab722b05446cc5087291aed17123fd"),
            (
                RandomForest,
                3177,
                "c57982db66afb38691b69c74ccdeda61",
                "c54926d57d25f7646bba22e4bfe76553",
            ),
            (PowerEn, 1095, "14abc4618ad9c0c3975c3bb3904e2602", "a95cd09dacf9b9f95c4bf81ebc7cfad4"),
            (
                Protomata,
                3776,
                "c0906bffbea3f6edf0108b57c5de7d58",
                "1fd47c9ae7c2ea172feac30f21e4f903",
            ),
        ];
        for (b, states, fingerprint, order) in PINS {
            let opt = b.build(Scale(0.1), 2017).space_optimized();
            let mut h = StableHasher::new();
            for (id, _) in opt.iter() {
                h.write_u64(opt.successors(id).len() as u64);
                for s in opt.successors(id) {
                    h.write_u32(s.0);
                }
            }
            assert_eq!(opt.len(), states, "{b}: states");
            assert_eq!(opt.fingerprint().to_string(), fingerprint, "{b}: fingerprint");
            assert_eq!(h.finish().to_string(), order, "{b}: successor order");
        }
    }

    #[test]
    fn inputs_trigger_matches() {
        use ca_automata::engine::{Engine, SparseEngine};
        // hot benchmarks should report on their own input streams
        for b in [Benchmark::Fermi, Benchmark::Spm, Benchmark::Brill] {
            let w = b.build(Scale::tiny(), 11);
            let input = w.input(16 * 1024, 13);
            let ev = SparseEngine::new(&w.nfa).run(&input);
            assert!(!ev.is_empty(), "{b} produced no matches on its own trace");
        }
    }

    #[test]
    fn table1_links() {
        assert_eq!(Benchmark::Snort.table1().states, 69029);
        assert_eq!(Benchmark::Tcp.name(), "TCP");
        assert_eq!(Benchmark::all().len(), 20);
    }
}
