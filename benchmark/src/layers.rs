//! The traced run's per-layer probes: each times calls into one crate's
//! public functions from here, inside a span, once per round (the compile
//! path every third round), so layer numbers sample the whole window like
//! the end-to-end ones. No file under `crates/` is edited for this.
//!
//! Times labelled *program-reported* are read from what the program itself
//! measured (`MappingStats::timings`, telemetry spans) rather than from the
//! benchmark's clock.

use crate::oracle;
use crate::run::{automaton, drive_pass, pool_options, socket_addr, Bench, Measured, MIB};
use crate::spec::{self, Metric};
use cache_automaton::automata::{analysis, anml, optimize};
use cache_automaton::compiler::{self, CompilerOptions};
use cache_automaton::partition::{partition_kway, Graph, PartitionOptions};
use cache_automaton::serve::proto::Frame;
use cache_automaton::sim::{Fabric, RunOptions};
use cache_automaton::telemetry::MemoryRecorder;
use cache_automaton::{
    ArtifactCache, CacheKey, CacheServer, CacheTier, Client, Daemon, DaemonOptions, DiskCache,
    HomNfa, MatchEvent, Parallelism, Program, RemoteCache, ReportCode, ScanPool, Telemetry,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;

/// States one partition holds (`ca_compiler::plan` splits larger components).
const PARTITION_STATES: usize = 256;
/// Chunk size of the `Scanner` session probe.
const SCANNER_CHUNK: usize = 16 << 10;
/// Frames per codec timing loop / STATS round trips per probe.
const CODEC_FRAMES: usize = 256;
const EMPTY_RTTS: usize = 200;
/// The compile path (optimize, k-way, compile, daemon bind) is probed every
/// this many rounds: it costs as much as the rest of a round together.
const HEAVY_EVERY: usize = 3;

pub struct Layers {
    nfa: HomNfa,
    /// What `ca_compiler::compile` receives: the parsed automaton, space
    /// optimized when the workload's flow optimizes.
    compile_source: HomNfa,
    options: CompilerOptions,
    /// The compiler's graph of its largest component, and the `k` it would
    /// first try on it.
    graph: Graph,
    kway_parts: usize,
    artifact: Vec<u8>,
    key: CacheKey,
    memory: ArtifactCache,
    disk_dir: PathBuf,
    remote: RemoteCache,
    cache_server: CacheServer,
    fabric: Fabric,
    dense_bytes: usize,
    recorder: Arc<MemoryRecorder>,
    recorded: Program,
    /// In-process twin of the daemon's pool: one worker, lives for the run.
    pool: ScanPool,
    /// Batches the pool cuts one pass into (program-reported, counted once
    /// on a pool that reports to the recorder, outside every timer).
    batches_per_pass: f64,
    feed_frame: Frame,
    feed_wire: Vec<u8>,
    matches_wire: Vec<u8>,
    counts: BTreeMap<&'static str, f64>,
}

/// The undirected graph `ca_compiler::plan` hands the partitioner for one
/// component: local vertex ids, unit weights, one edge per transition that
/// joins two different states.
fn component_graph(nfa: &HomNfa, members: &[cache_automaton::StateId]) -> Graph {
    let local: std::collections::HashMap<u32, u32> =
        members.iter().enumerate().map(|(i, s)| (s.0, i as u32)).collect();
    let mut edges = Vec::new();
    for s in members {
        for t in nfa.successors(*s) {
            if s.0 != t.0 {
                edges.push((local[&s.0], local[&t.0], 1));
            }
        }
    }
    Graph::from_edges(members.len(), &edges)
}

impl Layers {
    pub fn new(bench: &mut Bench) -> Layers {
        let Bench { fx, tally } = bench;
        let nfa = anml::parse_anml(&fx.inputs.rules).expect("the rules compiled once already");
        let optimized = matches!(
            (fx.spec.optimize, fx.spec.design),
            (cache_automaton::Optimize::Always, _)
                | (cache_automaton::Optimize::Auto, cache_automaton::Design::Space)
        );
        let compile_source = if optimized { optimize::space_optimize(&nfa).0 } else { nfa.clone() };
        let defaults = CompilerOptions::default();
        let options = CompilerOptions { design: fx.spec.design, ..defaults };

        let components = analysis::connected_components(&compile_source);
        let largest = components
            .components
            .iter()
            .max_by_key(|members| members.len())
            .expect("a rule set has states");
        let graph = component_graph(&compile_source, largest);
        let kway_parts = largest.len().div_ceil(PARTITION_STATES).max(2);

        let artifact = fx.program.to_bytes();
        let key = CacheKey {
            fingerprint: nfa.fingerprint(),
            design: options.design,
            slices: options.slices,
            seed: options.seed,
            optimized,
        };
        let mut memory = ArtifactCache::new(4);
        memory.insert(key, fx.program.clone());

        let disk_dir = tally.fresh_dir(&fx.scratch, "layer-disk");
        DiskCache::new(&disk_dir).store(&key, &artifact);

        // A cache peer in this process, on a Unix socket, holding the artifact.
        let server_dir = tally.fresh_dir(&fx.scratch, "layer-peer");
        let cache_server = CacheServer::bind(&socket_addr(&fx.scratch, "c.sock"), &server_dir)
            .expect("cache peer binds in the scratch directory");
        let mut remote = RemoteCache::new(cache_server.local_addr());
        remote.store(&key, &artifact);

        let fabric = fx.program.compiled().fabric().expect("compiled bitstream is valid");
        let recorder = Arc::new(MemoryRecorder::new());
        let mut recorded = fx.program.clone();
        recorded.set_telemetry(Telemetry::from_arc(recorder.clone()));

        let chunk = fx.inputs.scan[..SCANNER_CHUNK.min(fx.inputs.scan.len())].to_vec();
        let feed_frame = Frame::FeedChunk { stream: 7, data: chunk };
        let feed_wire = feed_frame.encode().expect("a 16 KiB chunk is under the frame cap");
        let events = (0..64).map(|i| MatchEvent::new(i * 97, ReportCode(i as u32))).collect();
        let matches_wire =
            Frame::Matches { stream: 7, events }.encode().expect("64 events fit a frame");

        let counted = ScanPool::new(&recorded, pool_options()).expect("pool options are valid");
        let _ = drive_pass(&mut &counted, fx.spec, &fx.inputs.streams, &fx.tracer, 0);
        let _ = counted.shutdown();
        let batches_per_pass = recorder.gauges("serve.batch_size").len() as f64;
        let pool = ScanPool::new(&fx.program, pool_options()).expect("pool options are valid");
        // one untimed pass builds the pool's fabric
        let _ = drive_pass(&mut &pool, fx.spec, &fx.inputs.streams, &fx.tracer, 0);

        let mut counts = BTreeMap::new();
        counts.insert("automata.parse_states", nfa.len() as f64);
        counts.insert("artifact.bytes", artifact.len() as f64);
        counts.insert("fabric.partitions", fabric.partition_count() as f64);

        Layers {
            dense_bytes: fx.inputs.scan.len() / 4,
            nfa,
            compile_source,
            options,
            graph,
            kway_parts,
            artifact,
            key,
            memory,
            disk_dir,
            remote,
            cache_server,
            fabric,
            recorder,
            recorded,
            pool,
            batches_per_pass,
            feed_frame,
            feed_wire,
            matches_wire,
            counts,
        }
    }

    pub fn probe(&mut self, bench: &mut Bench, client: &mut Client, round: usize) {
        self.front_end(bench);
        if round.is_multiple_of(HEAVY_EVERY) {
            self.compile_path(bench);
            self.daemon_bind(bench);
        }
        self.artifact_and_cache(bench);
        self.fabric(bench);
        self.shards_and_sessions(bench);
        self.pool(bench);
        self.codec(bench);
        self.daemon(bench, client);
    }

    fn front_end(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        let (nfa, secs) =
            fx.tracer.timed("automata.parse_anml", 0, || anml::parse_anml(&fx.inputs.rules));
        tally.timed("automata.parse_s", secs);
        tally.record(match nfa {
            Ok(nfa) if nfa.fingerprint() == self.nfa.fingerprint() => Ok(()),
            Ok(_) => Err("parse_anml: fingerprint changed between parses".into()),
            Err(e) => Err(format!("parse_anml: {e}")),
        });
    }

    fn compile_path(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        let ((optimized, stats), secs) =
            fx.tracer.timed("automata.space_optimize", 0, || optimize::space_optimize(&self.nfa));
        tally.timed("automata.optimize_s", secs);
        self.counts.insert("automata.optimize_states_out", stats.states_after as f64);
        black_box(optimized.len());

        let options =
            PartitionOptions { seed: self.options.seed, epsilon: 0.03, ..Default::default() };
        let (parts, secs) = fx.tracer.timed("partition.partition_kway", 0, || {
            partition_kway(&self.graph, self.kway_parts, &options)
        });
        tally.timed("partition.kway_s", secs);
        self.counts.insert("partition.parts", parts.k as f64);
        self.counts.insert("partition.edge_cut", parts.edgecut as f64);

        let (compiled, secs) = fx.tracer.timed("compiler.compile", 0, || {
            compiler::compile(&self.compile_source, &self.options)
        });
        tally.timed("compiler.compile_s", secs);
        let verdict = match compiled {
            Ok(compiled) => {
                // program-reported pass times
                let t = compiled.stats.timings;
                tally.timed_same("compiler.plan_s", t.plan_ms / 1e3);
                tally.timed_same("compiler.place_s", t.place_ms / 1e3);
                tally.timed_same("compiler.emit_s", t.emit_ms / 1e3);
                self.counts.insert("compiler.retries", compiled.stats.retries as f64);
                if &compiled == fx.program.compiled() {
                    Ok(())
                } else {
                    Err("compiler::compile: image differs from the program under test".into())
                }
            }
            Err(e) => Err(format!("compiler::compile: {e}")),
        };
        tally.record(verdict);
    }

    fn artifact_and_cache(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        let (bytes, secs) = fx.tracer.timed("core.Program::to_bytes", 0, || fx.program.to_bytes());
        tally.timed("artifact.encode_s", secs);
        let (decoded, secs) =
            fx.tracer.timed("core.Program::from_bytes", 0, || Program::from_bytes(&bytes));
        tally.timed("artifact.decode_s", secs);
        tally.record(match decoded {
            Ok(p) if bytes == self.artifact && p.compiled() == fx.program.compiled() => Ok(()),
            Ok(_) => Err("artifact: encode/decode round trip changed the program".into()),
            Err(e) => Err(format!("Program::from_bytes: {e}")),
        });

        let (hit, secs) =
            fx.tracer.timed("core.ArtifactCache::get", 0, || self.memory.get(&self.key));
        tally.timed("cache.memory_hit_us", secs * 1e6);
        tally.record(hit.map(drop).ok_or_else(|| "memory tier missed a resident key".to_string()));

        let store_dir = tally.fresh_dir(&fx.scratch, "layer-store");
        let mut fresh = DiskCache::new(&store_dir);
        let ((), secs) =
            fx.tracer.timed("core.DiskCache::store", 0, || fresh.store(&self.key, &self.artifact));
        tally.timed("cache.disk_store_ms", secs * 1e3);
        tally.record(if fresh.stats().writes == 1 {
            Ok(())
        } else {
            Err("disk tier did not store".into())
        });
        let _ = std::fs::remove_dir_all(store_dir);

        let mut disk = DiskCache::new(&self.disk_dir);
        let (hit, secs) = fx.tracer.timed("core.DiskCache::load", 0, || disk.load(&self.key));
        tally.timed("cache.disk_hit_ms", secs * 1e3);
        tally.record(hit.map(drop).ok_or_else(|| "disk tier missed a stored key".to_string()));

        let (hit, secs) =
            fx.tracer.timed("core.RemoteCache::load", 0, || self.remote.load(&self.key));
        tally.timed("cache.remote_hit_ms", secs * 1e3);
        tally.record(hit.map(drop).ok_or_else(|| "remote tier missed a stored key".to_string()));
    }

    fn fabric(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        let bitstream = &fx.program.compiled().bitstream;
        let (built, secs) = fx.tracer.timed("sim.Fabric::new", 0, || Fabric::new(bitstream));
        tally.timed("fabric.new_ms", secs * 1e3);
        black_box(built.map(|f| f.partition_count()).unwrap_or(0));

        let scan = &fx.inputs.scan;
        let plain = RunOptions::default();
        let (report, secs) =
            fx.tracer.timed("sim.Fabric::run_with", 0, || self.fabric.run_with(scan, &plain));
        let ((), reset_secs) = fx.tracer.timed("sim.Fabric::reset", 0, || self.fabric.reset());
        let mut host_ns_per_cycle = f64::NAN;
        let verdict = match report {
            Ok(report) => {
                let stats = &report.stats;
                self.counts.insert(
                    "fabric.avg_active_partitions_per_symbol",
                    stats.avg_active_partitions_per_symbol(),
                );
                self.counts
                    .insert("fabric.matched_per_symbol", stats.avg_active_states_per_symbol());
                self.counts
                    .insert("fabric.sim_cycles_per_byte", stats.cycles as f64 / scan.len() as f64);
                host_ns_per_cycle = secs * 1e9 / stats.cycles as f64;
                // the fabric's cycle count excludes what the session adds at
                // finish, so events and symbols are what can be checked here
                if oracle::match_digest(&report.events) == fx.oracle.scan.matches
                    && stats.symbols == scan.len() as u64
                {
                    Ok(())
                } else {
                    Err("Fabric::run_with: events differ from the reference engine".to_string())
                }
            }
            Err(e) => Err(format!("Fabric::run_with: {e}")),
        };
        tally.timed("fabric.run_ns_per_byte", secs * 1e9 / scan.len() as f64);
        tally.timed_same("fabric.host_ns_per_sim_cycle", host_ns_per_cycle);
        tally.timed_same("fabric.reset_us", reset_secs * 1e6);
        tally.record(verdict);

        // sparse against the dense reference loop, on the same prefix
        let prefix = &scan[..self.dense_bytes];
        let (dense, dense_secs) =
            fx.tracer.timed("sim.Fabric::run_dense", 0, || self.fabric.run_dense(prefix, &plain));
        self.fabric.reset();
        let (sparse, sparse_secs) =
            fx.tracer.timed("sim.Fabric::run_with", 0, || self.fabric.run_with(prefix, &plain));
        self.fabric.reset();
        tally.timed("fabric.run_dense_ns_per_byte", dense_secs * 1e9 / prefix.len() as f64);
        tally.timed_same("fabric.sparse_prefix_s", sparse_secs);
        tally.timed_same("fabric.dense_prefix_s", dense_secs);
        tally.record(match (dense, sparse) {
            (Ok(d), Ok(s)) if d.events == s.events && d.stats == s.stats => Ok(()),
            (Ok(_), Ok(_)) => Err("run_dense and run_with disagree on the same bytes".into()),
            (Err(e), _) | (_, Err(e)) => Err(format!("fabric prefix run: {e}")),
        });
    }

    fn shards_and_sessions(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        let scan = &fx.inputs.scan;
        let busy_ms = |r: &MemoryRecorder| {
            r.span_total_ms("scan.stripe.guess") + r.span_total_ms("scan.stripe.correction")
        };
        let (busy_before, corrected_before) =
            (busy_ms(&self.recorder), self.recorder.counter("scan.correction_symbols"));
        let (report, secs) = fx.tracer.timed("core.Program::run_parallel", 0, || {
            self.recorded.run_parallel(scan, Parallelism::Threads(2))
        });
        tally.timed("shard.parallel2_s", secs);
        // program-reported: stripe and correction spans from the telemetry sink
        tally.timed_same("shard.busy2_s", (busy_ms(&self.recorder) - busy_before) / 1e3);
        self.counts.insert(
            "shard.corrected_bytes",
            (self.recorder.counter("scan.correction_symbols") - corrected_before) as f64,
        );
        tally.record(match report {
            Ok(r) => oracle::check(
                "run_parallel",
                &r.matches,
                &r.exec,
                &fx.oracle.scan,
                None,
                scan.len(),
            ),
            Err(e) => Err(format!("run_parallel: {e}")),
        });

        let (report, secs) = fx.tracer.timed("core.Scanner session", 0, || {
            let mut scanner = fx.program.scanner();
            for chunk in scan.chunks(SCANNER_CHUNK) {
                scanner.feed(chunk);
            }
            scanner.finish()
        });
        tally.timed("scanner.chunked_s", secs);
        tally.record(oracle::check(
            "chunked Scanner session",
            &report.matches,
            &report.exec,
            &fx.oracle.scan,
            Some(&fx.exec_scan),
            scan.len(),
        ));

        let (report, secs) =
            fx.tracer.timed("core.Program::run (recorded)", 0, || self.recorded.run(scan));
        tally.timed("telemetry.recorded_scan_s", secs);
        tally.record(oracle::check(
            "scan with a MemoryRecorder",
            &report.matches,
            &report.exec,
            &fx.oracle.scan,
            Some(&fx.exec_scan),
            scan.len(),
        ));
    }

    fn pool(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        // construction is timed on a throwaway pool, outside the pass timer
        let (pool, secs) =
            fx.tracer.timed("core.ScanPool::new", 0, || ScanPool::new(&fx.program, pool_options()));
        tally.timed("pool.new_ms", secs * 1e3);
        tally.record(
            pool.and_then(ScanPool::shutdown).map_err(|e| format!("throwaway ScanPool: {e}")),
        );

        // the pass runs on the long-lived pool, whose fabric is already
        // built — like the daemon's, so the two passes differ by the wire only
        let pool = &self.pool;
        let first_request = tally.requests(fx.inputs.streams.len());
        let (out, _) = fx.tracer.timed("bench.pool_pass", 0, || {
            drive_pass(&mut &*pool, fx.spec, &fx.inputs.streams, &fx.tracer, first_request)
        });
        let outputs = out.map(|(outputs, secs)| {
            tally.timed("pool.pass_s", secs);
            outputs
        });
        tally.check_streams(fx, "pool pass", outputs);

        // Σ kernel: the same streams, chunk by chunk like the serve pass,
        // straight through one recycled fabric (the suspend image carries
        // the state between chunks, as it does between pool batches)
        let (reports, secs) = fx.tracer.timed("bench.kernel_pass", 0, || {
            fx.inputs
                .streams
                .iter()
                .map(|stream| {
                    self.fabric.reset();
                    let mut events = 0;
                    let mut resume = None;
                    for chunk in stream.chunks(fx.spec.chunk_bytes) {
                        let options = RunOptions { resume: resume.take(), ..RunOptions::default() };
                        let report = self.fabric.run_with(chunk, &options)?;
                        events += report.events.len();
                        resume = report.snapshot;
                    }
                    Ok(events)
                })
                .collect::<Result<Vec<_>, cache_automaton::sim::RunError>>()
        });
        self.fabric.reset();
        tally.timed("kernel.pass_s", secs);
        tally.record(match reports {
            Ok(counts)
                if counts.iter().zip(&fx.oracle.streams).all(|(c, want)| *c == want.events) =>
            {
                Ok(())
            }
            Ok(_) => Err("kernel pass: event counts differ from the reference engine".into()),
            Err(e) => Err(format!("kernel pass: {e}")),
        });
    }

    fn codec(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        let (ok, secs) = fx.tracer.timed("core.Frame::encode", 0, || {
            (0..CODEC_FRAMES).all(|_| {
                black_box(&self.feed_frame).encode().is_ok_and(|w| w.len() == self.feed_wire.len())
            })
        });
        tally.timed("proto.encode_ns_per_frame", secs * 1e9 / CODEC_FRAMES as f64);
        tally.record(if ok { Ok(()) } else { Err("Frame::encode changed its output".into()) });
        let (ok, secs) = fx.tracer.timed("core.Frame::decode", 0, || {
            (0..CODEC_FRAMES).all(|_| {
                matches!(Frame::decode(black_box(&self.matches_wire)), Ok(Some((Frame::Matches { events, .. }, _))) if events.len() == 64)
            })
        });
        tally.timed("proto.decode_ns_per_frame", secs * 1e9 / CODEC_FRAMES as f64);
        tally.record(if ok { Ok(()) } else { Err("Frame::decode lost events".into()) });
    }

    fn daemon_bind(&mut self, bench: &mut Bench) {
        let Bench { fx, tally } = bench;
        // a second daemon on the same rules: the automaton's memory tier is
        // warm, so this is the parse, a cache hit, the pool and the socket
        let ca = automaton(fx.spec).no_disk_cache().build();
        let warmed = cache_automaton::serve::daemon::compile_rules(&ca, &fx.inputs.rules);
        let addr = socket_addr(&fx.scratch, "b.sock");
        let options = DaemonOptions { pool: pool_options() };
        let (daemon, secs) = fx
            .tracer
            .timed("core.Daemon::bind", 0, || Daemon::bind(&ca, &fx.inputs.rules, &addr, options));
        tally.timed("daemon.bind_ms", secs * 1e3);
        tally.record(match (warmed, daemon) {
            (Ok(_), Ok(daemon)) => daemon.shutdown().map_err(|e| format!("daemon shutdown: {e}")),
            (Err(e), _) | (_, Err(e)) => Err(format!("Daemon::bind: {e}")),
        });
    }

    fn daemon(&mut self, bench: &mut Bench, client: &mut Client) {
        let (ok, secs) = bench
            .fx
            .tracer
            .timed("core.Client::stats", 0, || (0..EMPTY_RTTS).all(|_| client.stats().is_ok()));
        bench.tally.timed("daemon.empty_rtt_us", secs * 1e6 / EMPTY_RTTS as f64);
        bench.tally.record(if ok { Ok(()) } else { Err("Client::stats failed".into()) });

        // the same serve pass with span recording off: what tracing costs
        bench.fx.tracer.set_enabled(false);
        bench.serve_pass(client, "serve_untraced_s");
        bench.fx.tracer.set_enabled(true);
    }

    /// Turns the samples into the per-layer metrics and runs the separation
    /// check. Returns the metrics and the check's report lines.
    pub fn finish(self, bench: &mut Bench, quick: bool) -> (Vec<Measured>, Vec<String>) {
        let Bench { fx, tally } = bench;
        let Layers { remote, pool, cache_server, counts, batches_per_pass, .. } = self;
        // the peer's connection thread ends when its client hangs up
        drop(remote);
        tally.record(pool.shutdown().map_err(|e| format!("pool shutdown: {e}")));
        tally.record(cache_server.shutdown().map_err(|e| format!("cache peer shutdown: {e}")));

        let stream_bytes: usize = fx.inputs.streams.iter().map(Vec::len).sum();
        let scan_bytes = fx.inputs.scan.len() as f64;
        let lookups = tally.disk.hits + tally.disk.misses;

        let pool_s = tally.fast("pool.pass_s");
        let kernel_s = tally.fast("kernel.pass_s");
        let serve_s = tally.fast("serve_untraced_s");
        let derived: BTreeMap<&str, f64> = BTreeMap::from([
            ("cache.disk_hit_share", tally.disk.hits as f64 / lookups as f64),
            (
                "fabric.sparse_over_dense",
                tally.fast("fabric.dense_prefix_s") / tally.fast("fabric.sparse_prefix_s"),
            ),
            ("shard.run_parallel2_mibps", scan_bytes / MIB / tally.fast("shard.parallel2_s")),
            ("shard.stitch_overhead", tally.fast("shard.busy2_s") / tally.fast("scan_s")),
            ("scanner.chunked_overhead", tally.fast("scanner.chunked_s") / tally.fast("scan_s")),
            ("pool.mibps", stream_bytes as f64 / MIB / pool_s),
            ("pool.sched_us_per_batch", (pool_s - kernel_s) * 1e6 / batches_per_pass),
            ("pool.kernel_share", kernel_s / pool_s),
            ("daemon.wire_overhead", serve_s / pool_s),
            (
                "daemon.stream_rtt_p90_ms",
                crate::stats::percentile(&crate::stats::sorted(tally.samples_of("rtt_ms")), 0.90),
            ),
            ("daemon.kernel_share", kernel_s / serve_s),
            (
                "telemetry.recorder_overhead",
                tally.fast("telemetry.recorded_scan_s") / tally.fast("scan_s"),
            ),
            ("trace.overhead", tally.fast("serve_s") / serve_s),
        ]);

        let measured: Vec<Measured> = spec::PER_LAYER
            .iter()
            .map(|metric: &'static Metric| {
                if let Some(&value) = derived.get(metric.name) {
                    Measured::untimed(metric, value, "ratio of p10s")
                } else if let Some(&value) = counts.get(metric.name) {
                    Measured::untimed(metric, value, "count")
                } else {
                    Measured::fast_decile(metric, tally, metric.name, "p10 across rounds")
                }
            })
            .collect();

        let check = match fx.spec.name {
            _ if quick => None,
            "bro_serve" => {
                let (share, max) =
                    (derived["daemon.kernel_share"], spec::BRO_MAX_DAEMON_KERNEL_SHARE);
                Some(("daemon.kernel_share", share, share <= max, format!("<= {max}")))
            }
            "clamav_scan" | "spm_scan" => {
                let (share, min) = (derived["pool.kernel_share"], spec::SCAN_MIN_POOL_KERNEL_SHARE);
                Some(("pool.kernel_share", share, share >= min, format!(">= {min}")))
            }
            _ => None,
        };
        let mut notes = Vec::new();
        match check {
            Some((name, share, holds, rule)) => {
                let verdict = if holds { "ok" } else { "VIOLATED" };
                let line =
                    format!("separation check: {name} = {share:.3} (must be {rule}): {verdict}");
                tally.record(if holds { Ok(()) } else { Err(line.clone()) });
                notes.push(line);
            }
            None if quick => notes.push(
                "separation check: skipped (--quick rule sets are not the benchmark's)".into(),
            ),
            None => {}
        }
        (measured, notes)
    }
}
