//! Workspace-level tests for the multi-stream scan service: a [`ScanPool`]
//! multiplexing K logical streams over N workers (one fabric each) must
//! report, per stream, exactly what a dedicated `Scanner` session over the
//! same chunks reports — whatever the interleaving or worker count — and
//! must fail typed (never panic) under backpressure, mid-stream shutdown,
//! and abort.

use ca_telemetry::MemoryRecorder;
use ca_workloads::{Benchmark, Scale};
use cache_automaton::{CaError, CacheAutomaton, Optimize, PoolOptions, ScanPool};
use std::sync::Arc;

/// Chunks `input` into deterministic, irregular pieces seeded by `salt` so
/// boundaries land mid-pattern differently per stream.
fn chunks_of(input: &[u8], salt: u64) -> Vec<&[u8]> {
    let sizes = [7usize, 64, 3, 1000, 129, 1, 512];
    let mut out = Vec::new();
    let mut offset = 0usize;
    let mut i = salt as usize;
    while offset < input.len() {
        let len = sizes[i % sizes.len()].min(input.len() - offset);
        out.push(&input[offset..offset + len]);
        offset += len;
        i += 1;
    }
    out
}

/// Feeds `streams[i]`'s chunks through `pool` with a round-robin
/// interleave and returns each stream's final report; the serial
/// references are computed with per-stream `Scanner` sessions over the
/// *same* chunks.
fn differential(
    pool: &ScanPool,
    program: &cache_automaton::Program,
    streams: &[Vec<u8>],
    context: &str,
) {
    let mut handles: Vec<_> = streams.iter().map(|_| Some(pool.open_stream().unwrap())).collect();
    let chunked: Vec<Vec<&[u8]>> =
        streams.iter().enumerate().map(|(i, s)| chunks_of(s, i as u64)).collect();
    // Round-robin interleave: one chunk per stream per round, so every
    // stream is mid-flight at once and the DRR ring stays populated.
    let rounds = chunked.iter().map(|c| c.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for (i, chunks) in chunked.iter().enumerate() {
            if let Some(chunk) = chunks.get(round) {
                handles[i].as_mut().unwrap().feed(chunk).unwrap();
            }
        }
    }
    for (i, handle) in handles.iter_mut().enumerate() {
        let report = handle.take().unwrap().finish().unwrap();
        let mut scanner = program.scanner();
        for chunk in &chunked[i] {
            scanner.feed(chunk);
        }
        let reference = scanner.finish();
        assert_eq!(report.matches, reference.matches, "{context}: stream {i} matches");
        assert_eq!(report.exec, reference.exec, "{context}: stream {i} exec");
        assert_eq!(
            report.simulated_seconds, reference.simulated_seconds,
            "{context}: stream {i} simulated time"
        );
    }
}

#[test]
fn pool_streams_match_serial_scanner_sessions_across_workers() {
    // K x workers matrix on one representative benchmark; every stream
    // gets a distinct input so cross-stream state leakage would show.
    let w = Benchmark::Snort.build(Scale::tiny(), 17);
    let program = CacheAutomaton::new().compile_nfa(&w.nfa).unwrap();
    for workers in 1..=4usize {
        for k in [1usize, 4, 16, 64] {
            let streams: Vec<Vec<u8>> =
                (0..k).map(|i| w.input(256 + (i * 97) % 2048, 1000 + i as u64)).collect();
            let pool = ScanPool::new(
                &program,
                PoolOptions { workers, quantum: 256, ..PoolOptions::default() },
            )
            .unwrap();
            differential(&pool, &program, &streams, &format!("{k} streams x{workers} workers"));
            pool.shutdown().unwrap();
        }
    }
}

#[test]
fn pool_streams_match_serial_on_every_benchmark() {
    // All ANMLZoo-style benchmarks at a fixed 4x2 configuration.
    let ca = CacheAutomaton::builder().optimize(Optimize::Never).build();
    for benchmark in Benchmark::all() {
        let w = benchmark.build(Scale::tiny(), 29);
        let program = ca.compile_nfa(&w.nfa).unwrap_or_else(|e| panic!("{benchmark}: {e}"));
        let streams: Vec<Vec<u8>> = (0..4).map(|i| w.input(2048, 40 + i)).collect();
        let pool = ScanPool::new(
            &program,
            PoolOptions { workers: 2, quantum: 512, ..PoolOptions::default() },
        )
        .unwrap();
        differential(&pool, &program, &streams, &format!("{benchmark}"));
        pool.shutdown().unwrap();
    }
}

#[test]
fn single_worker_fabric_is_shared_across_streams() {
    // One worker, so one fabric: every 128-byte batch of every stream goes
    // through the same instance, so any state leaking from one batch into
    // the next would corrupt the differential.
    let w = Benchmark::ClamAv.build(Scale::tiny(), 7);
    let program = CacheAutomaton::new().compile_nfa(&w.nfa).unwrap();
    let streams: Vec<Vec<u8>> = (0..8).map(|i| w.input(1024, 70 + i)).collect();
    let pool =
        ScanPool::new(&program, PoolOptions { workers: 1, quantum: 128, ..PoolOptions::default() })
            .unwrap();
    differential(&pool, &program, &streams, "single-fabric pool");
    pool.shutdown().unwrap();
}

#[test]
fn backpressure_blocks_feeders_without_losing_data() {
    let recorder = Arc::new(MemoryRecorder::new());
    let telemetry = cache_automaton::Telemetry::from_arc(recorder.clone());
    let ca = CacheAutomaton::builder().telemetry_handle(telemetry).build();
    let w = Benchmark::Snort.build(Scale::tiny(), 11);
    let program = ca.compile_nfa(&w.nfa).unwrap();
    let input = w.input(64 * 1024, 13);
    let reference = program.run(&input);

    // A 64-byte queue bound against 64 KiB of input: the feeder can only
    // be admitted into an empty queue, so it must stall whenever the
    // single worker has not fully drained between two feeds — with 1024
    // chunks that is effectively every round.
    let pool =
        ScanPool::new(&program, PoolOptions { workers: 1, queue_bytes: 64, quantum: 64 }).unwrap();
    let mut stream = pool.open_stream().unwrap();
    for chunk in input.chunks(64) {
        stream.feed(chunk).unwrap();
    }
    let report = stream.finish().unwrap();
    assert_eq!(report.matches, reference.matches);
    assert_eq!(report.exec, reference.exec);
    assert_eq!(recorder.counter("serve.fed_bytes"), input.len() as u64);
    assert!(
        recorder.counter("serve.backpressure_stalls") > 0,
        "a 256-byte bound must have stalled the feeder at least once"
    );
    pool.shutdown().unwrap();
}

#[test]
fn incremental_matches_arrive_before_finish() {
    let program = CacheAutomaton::new().compile_patterns(&["ab"]).unwrap();
    let pool = ScanPool::new(&program, PoolOptions::default()).unwrap();
    let mut stream = pool.open_stream().unwrap();
    let mut delivered = Vec::new();
    for chunk in [&b"xxab"[..], b"xxxxab", b"abxx"] {
        stream.feed(chunk).unwrap();
        delivered.extend(stream.poll_matches());
    }
    let report = stream.finish().unwrap();
    assert!(delivered.len() <= report.matches.len());
    assert_eq!(report.matches.len(), 3);
    // Everything delivered incrementally appears in the final report.
    for event in &delivered {
        assert!(report.matches.contains(event), "{event:?} lost between poll and finish");
    }
    pool.shutdown().unwrap();
}

#[test]
fn empty_chunk_feed_is_a_no_op() {
    let program = CacheAutomaton::new().compile_patterns(&["needle"]).unwrap();
    let pool = ScanPool::new(&program, PoolOptions::default()).unwrap();

    // Interleaving empty chunks changes nothing.
    let mut with_empties = pool.open_stream().unwrap();
    let mut plain = pool.open_stream().unwrap();
    with_empties.feed(b"").unwrap();
    with_empties.feed(b"xxneed").unwrap();
    with_empties.feed(b"").unwrap();
    with_empties.feed(b"lexx").unwrap();
    with_empties.feed(b"").unwrap();
    plain.feed(b"xxneed").unwrap();
    plain.feed(b"lexx").unwrap();
    let a = with_empties.finish().unwrap();
    let b = plain.finish().unwrap();
    assert_eq!(a.matches, b.matches);
    assert_eq!(a.exec, b.exec);

    // A stream fed only empty chunks reports zero work, like an unfed one.
    let mut empty_only = pool.open_stream().unwrap();
    empty_only.feed(b"").unwrap();
    let report = empty_only.finish().unwrap();
    assert!(report.matches.is_empty());
    assert_eq!(report.exec.cycles, 0);
    assert_eq!(report.simulated_seconds, 0.0);
    pool.shutdown().unwrap();
}

#[test]
fn shutdown_drains_queued_work_then_rejects_new_input() {
    let w = Benchmark::Brill.build(Scale::tiny(), 3);
    let program = CacheAutomaton::new().compile_nfa(&w.nfa).unwrap();
    let input = w.input(8 * 1024, 5);
    let reference = program.run(&input);

    let pool =
        ScanPool::new(&program, PoolOptions { workers: 2, quantum: 512, ..PoolOptions::default() })
            .unwrap();
    let mut stream = pool.open_stream().unwrap();
    for chunk in input.chunks(700) {
        stream.feed(chunk).unwrap();
    }
    // Shut down with chunks still queued: drain must process all of them.
    pool.shutdown().unwrap();
    let report = stream.finish().unwrap();
    assert_eq!(report.matches, reference.matches);
    assert_eq!(report.exec, reference.exec);
}

#[test]
fn feed_and_open_fail_typed_after_shutdown() {
    let program = CacheAutomaton::new().compile_patterns(&["x"]).unwrap();
    let pool = ScanPool::new(&program, PoolOptions::default()).unwrap();
    let mut stream = pool.open_stream().unwrap();
    pool.shutdown().unwrap();
    let err = stream.feed(b"abc").unwrap_err();
    assert!(matches!(err, CaError::Config(_)), "{err}");
    // The unfed stream still finishes cleanly with a zero-work report.
    assert_eq!(stream.finish().unwrap().exec.cycles, 0);
}

#[test]
fn abort_discards_queued_work_with_typed_errors() {
    let w = Benchmark::Levenshtein.build(Scale::tiny(), 19);
    let program = CacheAutomaton::new().compile_nfa(&w.nfa).unwrap();
    // Queue a megabyte and abort immediately: the single worker (which
    // still has to build its first fabric) cannot plausibly have scanned
    // it all, so discarded bytes — and the typed error — are guaranteed.
    let input = w.input(1024 * 1024, 23);
    let pool = ScanPool::new(
        &program,
        PoolOptions { workers: 1, quantum: 4096, queue_bytes: 2 * 1024 * 1024 },
    )
    .unwrap();
    let mut stream = pool.open_stream().unwrap();
    for chunk in input.chunks(64 * 1024) {
        stream.feed(chunk).unwrap();
    }
    pool.abort().unwrap();
    let err = stream.finish().unwrap_err();
    assert!(matches!(err, CaError::Internal(_)), "{err}");
}

#[test]
fn dropping_an_unfinished_stream_does_not_wedge_the_pool() {
    let program = CacheAutomaton::new().compile_patterns(&["ab"]).unwrap();
    let pool =
        ScanPool::new(&program, PoolOptions { workers: 2, ..PoolOptions::default() }).unwrap();
    {
        let mut abandoned = pool.open_stream().unwrap();
        abandoned.feed(b"abababab").unwrap();
        // dropped without finish()
    }
    let mut survivor = pool.open_stream().unwrap();
    survivor.feed(b"xxabxx").unwrap();
    assert_eq!(survivor.finish().unwrap().matches.len(), 1);
    assert_eq!(pool.live_streams(), 0);
    pool.shutdown().unwrap();
}

#[test]
fn pool_rejects_degenerate_configurations() {
    let program = CacheAutomaton::new().compile_patterns(&["x"]).unwrap();
    for options in [
        PoolOptions { workers: 0, ..PoolOptions::default() },
        PoolOptions { queue_bytes: 0, ..PoolOptions::default() },
        PoolOptions { quantum: 0, ..PoolOptions::default() },
    ] {
        let err = ScanPool::new(&program, options).map(|_| ()).unwrap_err();
        assert!(matches!(err, CaError::Config(_)), "{err}");
    }
}

#[test]
fn pool_telemetry_gauges_and_counters_flow() {
    let recorder = Arc::new(MemoryRecorder::new());
    let telemetry = cache_automaton::Telemetry::from_arc(recorder.clone());
    let ca = CacheAutomaton::builder().telemetry_handle(telemetry).build();
    let program = ca.compile_patterns(&["needle"]).unwrap();
    let pool =
        ScanPool::new(&program, PoolOptions { workers: 2, ..PoolOptions::default() }).unwrap();
    let mut a = pool.open_stream().unwrap();
    let mut b = pool.open_stream().unwrap();
    a.feed(b"a needle in a haystack").unwrap();
    b.feed(b"no hits").unwrap();
    let _ = a.finish().unwrap();
    let _ = b.finish().unwrap();
    pool.shutdown().unwrap();

    assert_eq!(recorder.counter("serve.fed_bytes"), 22 + 7);
    let live = recorder.gauges("serve.live_streams");
    assert!(live.iter().any(|s| s.value == 2.0), "two streams were live at once: {live:?}");
    assert!(live.last().unwrap().value == 0.0, "all streams closed at the end");
    assert!(!recorder.gauges("serve.queue_depth").is_empty());
    assert!(!recorder.gauges("serve.batch_size").is_empty());
    assert!(!recorder.gauges("serve.pool_occupancy").is_empty());
}
