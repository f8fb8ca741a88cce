//! Workspace-level differential tests for the parallel sharded scan
//! pipeline and the streaming Scanner session: on every synthesized
//! benchmark and both design points, splitting the input — across threads
//! (`run_parallel`) or across time (`Scanner::feed`) — must reproduce the
//! serial `run` byte for byte.

use ca_telemetry::MemoryRecorder;
use ca_workloads::{Benchmark, Scale};
use cache_automaton::{CacheAutomaton, Design, Optimize, Parallelism};
use std::sync::Arc;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn check_design(design: Design, build_seed: u64, input_seed: u64) {
    let ca = CacheAutomaton::builder().design(design).optimize(Optimize::Never).build();
    for benchmark in Benchmark::all() {
        let w = benchmark.build(Scale::tiny(), build_seed);
        let input = w.input(8 * 1024, input_seed);
        let program = ca.compile_nfa(&w.nfa).unwrap_or_else(|e| panic!("{benchmark}: {e}"));
        let serial = program.run(&input);
        for shards in SHARD_COUNTS {
            let parallel = program
                .run_parallel(&input, Parallelism::Threads(shards))
                .unwrap_or_else(|e| panic!("{benchmark} x{shards}: {e}"));
            assert_eq!(
                parallel.matches, serial.matches,
                "{benchmark} diverged on {design} with {shards} shards"
            );
            // Differential stats invariants: the enumerative-correct stitch
            // reconstructs the serial run's activity exactly — every counter
            // except `cycles` must be EQUAL, and `cycles` (guess makespan +
            // correction reruns) can never exceed the serial scan.
            let p = &parallel.exec;
            let s = &serial.exec;
            let ctx = format!("{benchmark} on {design} with {shards} shards");
            assert_eq!(p.symbols, s.symbols, "{ctx}: symbols");
            assert_eq!(p.reports, s.reports, "{ctx}: reports");
            assert_eq!(p.matched_total, s.matched_total, "{ctx}: matched_total");
            assert_eq!(
                p.active_partition_cycles, s.active_partition_cycles,
                "{ctx}: active_partition_cycles"
            );
            assert_eq!(p.g1_signals, s.g1_signals, "{ctx}: g1_signals");
            assert_eq!(p.g4_signals, s.g4_signals, "{ctx}: g4_signals");
            assert_eq!(p.output_interrupts, s.output_interrupts, "{ctx}: output_interrupts");
            assert!(
                p.cycles <= s.cycles,
                "{ctx}: parallel cycles {} exceed serial {}",
                p.cycles,
                s.cycles
            );
        }
    }
}

#[test]
fn run_parallel_matches_serial_on_every_benchmark_performance_design() {
    check_design(Design::Performance, 17, 3);
}

#[test]
fn run_parallel_matches_serial_on_every_benchmark_space_design() {
    check_design(Design::Space, 23, 5);
}

#[test]
fn odd_shard_counts_and_uneven_stripes_agree() {
    // Stripe boundaries that don't divide the input evenly exercise the
    // one-byte-longer leading stripes and the boundary handoff at
    // unaligned offsets.
    let w = Benchmark::Snort.build(Scale::tiny(), 29);
    let input = w.input(8 * 1024 + 13, 19);
    let program = CacheAutomaton::new().compile_nfa(&w.nfa).unwrap();
    let serial = program.run(&input);
    for shards in [3usize, 5, 7, 11, 31] {
        let parallel = program.run_parallel(&input, Parallelism::Threads(shards)).unwrap();
        assert_eq!(parallel.matches, serial.matches, "{shards} shards diverged");
    }
}

#[test]
fn scanner_chunk_boundaries_landing_mid_match_are_invisible() {
    // Chunk sizes chosen so boundaries land inside pattern occurrences;
    // the session must carry the partial-match state across feed() calls.
    for benchmark in [Benchmark::Snort, Benchmark::Brill, Benchmark::Levenshtein] {
        let w = benchmark.build(Scale::tiny(), 37);
        let input = w.input(4 * 1024, 23);
        let program = CacheAutomaton::new().compile_nfa(&w.nfa).unwrap();
        let serial = program.run(&input);
        for chunk in [1usize, 3, 7, 64, 1000] {
            let mut scanner = program.scanner();
            for piece in input.chunks(chunk) {
                scanner.feed(piece);
            }
            let report = scanner.finish();
            assert_eq!(report.matches, serial.matches, "{benchmark} chunk={chunk}");
            assert_eq!(report.exec, serial.exec, "{benchmark} chunk={chunk} stats");
        }
    }
}

#[test]
fn telemetry_counters_reconcile_with_exec_stats() {
    let recorder = Arc::new(MemoryRecorder::new());
    let telemetry = cache_automaton::Telemetry::from_arc(recorder.clone());
    let ca = CacheAutomaton::builder().telemetry_handle(telemetry).build();
    let w = Benchmark::Snort.build(Scale::tiny(), 11);
    let input = w.input(8 * 1024, 7);
    let program = ca.compile_nfa(&w.nfa).unwrap();

    // Compilation already left its footprint: one compilation counter and
    // at least one timed sample per mandatory pass.
    assert_eq!(recorder.counter("compile.compilations"), 1);
    for pass in ["plan", "place", "emit", "validate"] {
        assert!(
            !recorder.spans(&format!("compile.pass.{pass}")).is_empty(),
            "missing span for pass {pass}"
        );
    }

    // A serial scan's counters must equal its ExecStats field for field.
    let serial = program.run(&input);
    let s = &serial.exec;
    assert_eq!(recorder.counter("fabric.symbols"), s.symbols);
    assert_eq!(recorder.counter("fabric.cycles"), s.cycles);
    assert_eq!(recorder.counter("fabric.active_partition_cycles"), s.active_partition_cycles);
    assert_eq!(recorder.counter("fabric.matched_total"), s.matched_total);
    assert_eq!(recorder.counter("fabric.g1_signals"), s.g1_signals);
    assert_eq!(recorder.counter("fabric.g4_signals"), s.g4_signals);
    assert_eq!(recorder.counter("fabric.reports"), s.reports);
    assert_eq!(recorder.counter("fabric.output_interrupts"), s.output_interrupts);
    assert_eq!(recorder.counter("fabric.fifo_refills"), s.fifo_refills);

    // A parallel scan accumulates by exactly its own reconciled stats —
    // guess runs and correction reruns never leak into the counters.
    let parallel = program.run_parallel(&input, Parallelism::Threads(4)).unwrap();
    let p = &parallel.exec;
    assert_eq!(recorder.counter("fabric.symbols"), s.symbols + p.symbols);
    assert_eq!(recorder.counter("fabric.cycles"), s.cycles + p.cycles);
    assert_eq!(recorder.counter("fabric.matched_total"), s.matched_total + p.matched_total);
    assert_eq!(recorder.counter("fabric.reports"), s.reports + p.reports);
    assert_eq!(recorder.counter("scan.stripes"), 4);
    assert_eq!(recorder.spans("scan.stripe.guess").len(), 4, "one guess span per stripe");
}

#[test]
fn telemetry_cache_counters_mirror_cache_stats() {
    let recorder = Arc::new(MemoryRecorder::new());
    let telemetry = cache_automaton::Telemetry::from_arc(recorder.clone());
    let ca = CacheAutomaton::builder().telemetry_handle(telemetry).build();
    let w = Benchmark::Spm.build(Scale::tiny(), 3);
    let _first = ca.compile_nfa(&w.nfa).unwrap(); // miss + insertion
    let _second = ca.compile_nfa(&w.nfa).unwrap(); // hit
    let stats = ca.cache_stats();
    assert!(stats.hits >= 1 && stats.misses >= 1, "test must exercise both paths");
    assert_eq!(recorder.counter("cache.hits"), stats.hits);
    assert_eq!(recorder.counter("cache.misses"), stats.misses);
    assert_eq!(recorder.counter("cache.insertions"), stats.insertions);
    assert_eq!(recorder.counter("cache.evictions"), stats.evictions);
    assert_eq!(recorder.counter("cache.rejected"), stats.rejected);
}

#[test]
fn worklist_loop_is_bit_identical_to_dense_reference() {
    // The sparse active-set scheduler must reproduce the dense reference
    // loop exactly — match streams, every ExecStats counter and the exit
    // snapshot — on every benchmark and both design points.
    for design in [Design::Performance, Design::Space] {
        let ca = CacheAutomaton::builder().design(design).optimize(Optimize::Never).build();
        for benchmark in Benchmark::all() {
            let w = benchmark.build(Scale::tiny(), 31);
            let input = w.input(8 * 1024, 13);
            let program = ca.compile_nfa(&w.nfa).unwrap_or_else(|e| panic!("{benchmark}: {e}"));
            let sparse = program.compiled().fabric().unwrap().run(&input);
            let dense = program
                .compiled()
                .fabric()
                .unwrap()
                .run_dense(&input, &ca_sim::RunOptions::default())
                .unwrap();
            assert_eq!(sparse.events, dense.events, "{benchmark} on {design}: events");
            assert_eq!(sparse.stats, dense.stats, "{benchmark} on {design}: stats");
            assert_eq!(sparse.snapshot, dense.snapshot, "{benchmark} on {design}: snapshot");
        }
    }
}

#[test]
fn fifo_refill_gauge_is_cumulative_across_chunks() {
    // The fabric.fifo_refills gauge is sampled against the global symbol
    // counter; a streaming session feeding many chunks must show one
    // monotone series (refills = position / 64), not a sawtooth that
    // re-zeroes at every chunk boundary.
    let recorder = Arc::new(MemoryRecorder::new());
    let telemetry = cache_automaton::Telemetry::from_arc(recorder.clone());
    let ca = CacheAutomaton::builder().telemetry_handle(telemetry).build();
    let w = Benchmark::Snort.build(Scale::tiny(), 11);
    let input = w.input(8 * 1024, 7);
    let program = ca.compile_nfa(&w.nfa).unwrap();

    let mut scanner = program.scanner();
    for piece in input.chunks(1000) {
        scanner.feed(piece);
    }
    let report = scanner.finish();

    let samples = recorder.gauges("fabric.fifo_refills");
    assert!(samples.len() >= 7, "8 KiB at one sample per 1024 symbols: got {}", samples.len());
    for pair in samples.windows(2) {
        assert!(pair[0].label < pair[1].label, "positions advance: {samples:?}");
        assert!(
            pair[0].value <= pair[1].value,
            "gauge never rewinds at a chunk boundary: {samples:?}"
        );
    }
    for s in &samples {
        assert_eq!(
            s.value,
            (s.label / 64) as f64,
            "refills at symbol {} reconcile with position",
            s.label
        );
    }
    // and the end-of-run counter still reconciles with ExecStats
    assert_eq!(recorder.counter("fabric.fifo_refills"), report.exec.fifo_refills);
}

#[test]
fn parallel_report_is_deterministic() {
    let w = Benchmark::ClamAv.build(Scale::tiny(), 47);
    let input = w.input(8 * 1024, 31);
    let program = CacheAutomaton::new().compile_nfa(&w.nfa).unwrap();
    let a = program.run_parallel(&input, Parallelism::Threads(4)).unwrap();
    let b = program.run_parallel(&input, Parallelism::Threads(4)).unwrap();
    assert_eq!(a.matches, b.matches);
    assert_eq!(a.exec, b.exec);
    // position-sorted, no duplicates
    assert!(a.matches.windows(2).all(|w| w[0] < w[1]));
}
