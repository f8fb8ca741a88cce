//! Serving many streams: a [`ScanPool`] multiplexes logical scan streams
//! over a small fleet of worker threads — one fabric each, all sharing the
//! program's lookup tables — with bounded queues, incremental match
//! delivery and graceful shutdown.
//!
//! Run with: `cargo run --release --example serve_pool`

use cache_automaton::{CaError, CacheAutomaton, PoolOptions, RunReport, ScanPool, Session};

/// Drives one flow through any [`Session`] — here a pooled
/// `StreamHandle`, but the identical function works over a serial
/// [`Scanner`](cache_automaton::Scanner) or a daemon connection.
fn pump(mut session: impl Session, flow: usize, chunks: &[&[u8]]) -> Result<RunReport, CaError> {
    for chunk in chunks {
        session.feed(chunk)?;
        // Matches stream out as soon as a worker scans the chunk; a real
        // server would forward them here.
        for ev in session.poll_matches() {
            println!("flow {flow}: pattern {} at offset {}", ev.code.0, ev.pos);
        }
    }
    session.finish()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = CacheAutomaton::builder()
        .build()
        .compile_patterns(&["beacon[0-9]{4}", "exfil.*payload"])?;

    // Two workers, so two fabrics — each a few hundred bytes of scratch
    // over the program's one table set — no matter how many logical
    // streams connect.
    let pool = ScanPool::new(&program, PoolOptions { workers: 2, ..PoolOptions::default() })?;

    // Feed three concurrent "connections" from ordinary threads. Each
    // stream sees its own isolated automaton state, so a pattern spanning
    // two of one stream's chunks still matches while the other streams'
    // bytes interleave arbitrarily on the workers.
    let flows: [&[&[u8]]; 3] = [
        &[b"....beac", b"on1234...."],
        &[b"clean traffic, nothing to see"],
        &[b"exfil==", b"==payload", b"..beacon0007"],
    ];
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = flows
            .iter()
            .enumerate()
            .map(|(i, chunks)| {
                let stream = pool.open_stream().expect("pool is running");
                scope.spawn(move || pump(stream, i, chunks).expect("stream drains cleanly"))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("feeder thread")).collect::<Vec<_>>()
    });
    pool.shutdown()?;

    for (i, report) in reports.iter().enumerate() {
        println!(
            "flow {i}: {} match(es), {} bytes, {:.2} Gb/s simulated",
            report.matches.len(),
            report.exec.symbols,
            report.achieved_gbps()
        );
    }
    let total: usize = reports.iter().map(|r| r.matches.len()).sum();
    assert_eq!(total, 3, "two beacons and one exfil pair across the flows");
    Ok(())
}
