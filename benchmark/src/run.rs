//! One workload, one process: build the inputs, compute the oracle, then
//! repeat *interleaved rounds* until the time budget is spent.
//!
//! A round is {cold setup rep (every `cold_every`-th round), one warm-start
//! rep, one scan pass, one serve pass, one latency batch}. Every metric
//! therefore collects one sample per round, spread over the whole run, and
//! no multi-second burst of host noise can cover all the samples of any one
//! metric. The gated value of each timed metric is the fast decile of its
//! per-round samples (`stats::fast_decile`).
//!
//! Load shape: closed loop, one client thread on one Unix-socket
//! connection, a daemon with one pool worker — at most two busy threads,
//! which is all this host has.

use crate::inputs::Inputs;
use crate::json::Value;
use crate::oracle::{self, Expected, Oracle};
use crate::spec::{self, Better, Metric, Workload};
use crate::stats::{fast_decile, percentile, sorted, Summary};
use crate::trace::Tracer;
use crate::yardstick;
use cache_automaton::serve::daemon::compile_rules;
use cache_automaton::{
    CaError, CacheAutomaton, Client, Daemon, DaemonOptions, ExecStats, MatchEvent, PoolOptions,
    Program, ScanPool, Session, StreamHandle, TierStats,
};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const MIB: f64 = 1024.0 * 1024.0;
pub const RUN_SCHEMA: &str = "cabench-run-1";

pub struct RunOptions {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
}

pub struct Outcome {
    /// The full run document (written to `out/`, read by `compare`).
    pub doc: Value,
    /// The one-line result the driver reads.
    pub result: Value,
    pub ok: bool,
}

/// The four stream operations, so that one driver feeds the daemon (over
/// the wire) and the in-process pool with exactly the same stream shape.
pub trait Streams {
    type Handle;
    const OPEN: &'static str;
    const FEED: &'static str;
    const POLL: &'static str;
    const FINISH: &'static str;
    fn open(&mut self) -> Result<Self::Handle, CaError>;
    fn feed(&mut self, handle: &mut Self::Handle, chunk: &[u8]) -> Result<(), CaError>;
    fn poll(&mut self, handle: &mut Self::Handle) -> Result<usize, CaError>;
    fn finish(&mut self, handle: Self::Handle) -> Result<(Vec<MatchEvent>, ExecStats), CaError>;
}

impl Streams for Client {
    type Handle = u64;
    const OPEN: &'static str = "core.Client::open_stream";
    const FEED: &'static str = "core.Client::feed";
    const POLL: &'static str = "core.Client::poll_matches";
    const FINISH: &'static str = "core.Client::finish";
    fn open(&mut self) -> Result<u64, CaError> {
        self.open_stream().map(|(stream, _generation)| stream)
    }
    fn feed(&mut self, stream: &mut u64, chunk: &[u8]) -> Result<(), CaError> {
        Client::feed(self, *stream, chunk)
    }
    fn poll(&mut self, stream: &mut u64) -> Result<usize, CaError> {
        self.poll_matches(*stream).map(|events| events.len())
    }
    fn finish(&mut self, stream: u64) -> Result<(Vec<MatchEvent>, ExecStats), CaError> {
        Client::finish(self, stream).map(|report| (report.events, report.exec))
    }
}

impl Streams for &ScanPool {
    type Handle = StreamHandle;
    const OPEN: &'static str = "core.ScanPool::open_stream";
    const FEED: &'static str = "core.StreamHandle::feed";
    const POLL: &'static str = "core.StreamHandle::poll_matches";
    const FINISH: &'static str = "core.StreamHandle::finish";
    fn open(&mut self) -> Result<StreamHandle, CaError> {
        self.open_stream()
    }
    fn feed(&mut self, handle: &mut StreamHandle, chunk: &[u8]) -> Result<(), CaError> {
        Session::feed(handle, chunk)
    }
    fn poll(&mut self, handle: &mut StreamHandle) -> Result<usize, CaError> {
        Ok(handle.poll_matches().len())
    }
    fn finish(&mut self, handle: StreamHandle) -> Result<(Vec<MatchEvent>, ExecStats), CaError> {
        Session::finish(handle).map(|report| (report.matches, report.exec))
    }
}

/// One pool worker: with the single client thread that is two busy
/// threads, all this host has. The daemon's pool and its in-process twin
/// in the traced run share these options.
pub fn pool_options() -> PoolOptions {
    PoolOptions { workers: 1, ..PoolOptions::default() }
}

type StreamOutput = (Vec<MatchEvent>, ExecStats);

/// Drives every stream of a pass through `api` and returns the outputs in
/// stream order with the pass's wall time. At most `in_flight` streams are
/// open; a stream is fed its first chunk as soon as it opens, so the worker
/// always has queued work, then streams take turns chunk by chunk, and the
/// oldest is (polled and) finished once its bytes are in.
pub fn drive_pass<S: Streams>(
    api: &mut S,
    spec: &Workload,
    streams: &[Vec<u8>],
    tracer: &Tracer,
    first_request: u64,
) -> Result<(Vec<StreamOutput>, f64), CaError> {
    let mut outputs: Vec<Option<StreamOutput>> = streams.iter().map(|_| None).collect();
    let started = Instant::now();
    let mut open: VecDeque<(usize, S::Handle, usize)> = VecDeque::with_capacity(spec.in_flight);
    let mut next = 0;
    while next < streams.len() || !open.is_empty() {
        while open.len() < spec.in_flight && next < streams.len() {
            let request = first_request + next as u64;
            let mut handle = tracer.timed(S::OPEN, request, || api.open()).0?;
            let first = spec.chunk_bytes.min(streams[next].len());
            tracer.timed(S::FEED, request, || api.feed(&mut handle, &streams[next][..first])).0?;
            open.push_back((next, handle, first));
            next += 1;
        }
        let (index, mut handle, offset) = open.pop_front().expect("a stream is open");
        let request = first_request + index as u64;
        let bytes = &streams[index];
        if offset < bytes.len() {
            let end = (offset + spec.chunk_bytes).min(bytes.len());
            tracer.timed(S::FEED, request, || api.feed(&mut handle, &bytes[offset..end])).0?;
            open.push_back((index, handle, end));
        } else {
            if spec.poll {
                tracer.timed(S::POLL, request, || api.poll(&mut handle)).0?;
            }
            outputs[index] = Some(tracer.timed(S::FINISH, request, || api.finish(handle)).0?);
        }
    }
    let secs = started.elapsed().as_secs_f64();
    Ok((outputs.into_iter().map(|o| o.expect("every stream finished")).collect(), secs))
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A socket address inside `dir`. Unix socket paths are capped near 108
/// bytes, so the path is made relative to the working directory when it
/// can be.
pub fn socket_addr(dir: &Path, name: &str) -> String {
    let path = dir.join(name);
    let short = std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(&cwd).ok().map(Path::to_path_buf))
        .unwrap_or(path);
    format!("unix:{}", short.display())
}

/// What a run measures against: built once, read-only afterwards.
pub struct Fixture {
    pub spec: &'static Workload,
    pub inputs: Inputs,
    pub oracle: Oracle,
    /// Compiled once from the rules text; every rep must reproduce it.
    pub program: Program,
    /// In-process `ExecStats` of each input — what the daemon must report.
    pub exec_scan: ExecStats,
    pub exec_streams: Vec<ExecStats>,
    pub exec_requests: Vec<ExecStats>,
    pub scratch: PathBuf,
    pub warm_dir: PathBuf,
    pub tracer: Tracer,
}

/// What a run accumulates: samples by name and the operation counts.
#[derive(Default)]
pub struct Tally {
    /// Timed samples at reference host speed (see `yardstick.rs`), and
    /// counts and ratios as they are.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The same timed samples as the wall clock read them.
    pub wall: BTreeMap<&'static str, Vec<f64>>,
    /// Host slowdown (yardstick time ÷ reference) applied to each timed sample.
    pub slowdowns: Vec<f64>,
    /// The latest yardstick reading: taken after the previous timed sample,
    /// so also the one before the next.
    last_yardstick: f64,
    /// Disk-tier counters summed over every setup rep.
    pub disk: TierStats,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    next_dir: u64,
    next_request: u64,
}

pub struct Bench {
    pub fx: Fixture,
    pub tally: Tally,
}

impl Tally {
    /// A sample that is not a time (or a time the program reported about
    /// some earlier moment): stored as it is.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// A time just measured (any unit): runs the yardstick, and stores the
    /// time divided by the host's slowdown over the interval, judged from
    /// the yardstick readings on either side of it.
    pub fn timed(&mut self, name: &'static str, time: f64) {
        let after = yardstick::run();
        if self.last_yardstick == 0.0 {
            self.last_yardstick = after;
        }
        let slowdown = yardstick::slowdown(self.last_yardstick, after);
        self.last_yardstick = after;
        self.slowdowns.push(slowdown);
        self.wall.entry(name).or_default().push(time);
        self.sample(name, time / slowdown);
    }

    /// A second time over the interval of the latest [`timed`](Tally::timed)
    /// sample (a part of it, or the program's own report of it): the same
    /// slowdown applies, no new yardstick run.
    pub fn timed_same(&mut self, name: &'static str, time: f64) {
        let slowdown = self.slowdowns.last().copied().unwrap_or(1.0);
        self.wall.entry(name).or_default().push(time);
        self.sample(name, time / slowdown);
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Fast decile of a sample series (NaN when nothing was sampled).
    pub fn fast(&self, name: &str) -> f64 {
        let samples = self.samples_of(name);
        if samples.is_empty() {
            f64::NAN
        } else {
            fast_decile(samples)
        }
    }

    /// Counts one operation; an `Err` is a failed one.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                eprintln!("cabench: FAILED {message}");
                self.failures.push(message);
            }
        }
    }

    pub fn fresh_dir(&mut self, scratch: &Path, tag: &str) -> PathBuf {
        self.next_dir += 1;
        scratch.join(format!("{tag}-{}", self.next_dir))
    }

    /// Reserves `count` request identifiers (spans of one stream share one).
    pub fn requests(&mut self, count: usize) -> u64 {
        let first = self.next_request + 1;
        self.next_request += count as u64;
        first
    }

    /// Checks every stream output of a pass; one attempted operation each.
    pub fn check_streams(
        &mut self,
        fx: &Fixture,
        what: &str,
        outputs: Result<Vec<StreamOutput>, CaError>,
    ) {
        match outputs {
            Ok(outputs) => {
                for (i, (events, exec)) in outputs.iter().enumerate() {
                    self.record(oracle::check(
                        &format!("{what} stream {i}"),
                        events,
                        exec,
                        &fx.oracle.streams[i],
                        Some(&fx.exec_streams[i]),
                        fx.inputs.streams[i].len(),
                    ));
                }
            }
            // the whole pass is lost: every stream of it counts as failed
            Err(e) => {
                fx.inputs.streams.iter().for_each(|_| self.record(Err(format!("{what}: {e}"))))
            }
        }
    }

    fn check_setup(
        &mut self,
        fx: &Fixture,
        what: &str,
        out: Result<(Program, TierStats), String>,
        cold: bool,
    ) {
        let verdict = out.and_then(|(program, disk)| {
            self.disk.hits += disk.hits;
            self.disk.misses += disk.misses;
            self.disk.writes += disk.writes;
            let want = if cold { (0, 1, 1) } else { (1, 0, 0) };
            if (disk.hits, disk.misses, disk.writes) != want || disk.corrupt + disk.errors != 0 {
                return Err(format!(
                    "{what}: disk tier saw {disk:?}, expected hits/misses/writes {want:?}"
                ));
            }
            if program.compiled() != fx.program.compiled() {
                return Err(format!("{what}: program differs from the first compilation"));
            }
            Ok(())
        });
        self.record(verdict);
    }
}

/// The workload's flow, with the environment's cache tiers switched off
/// where the caller does not choose one.
pub fn automaton(spec: &Workload) -> cache_automaton::Builder {
    CacheAutomaton::builder().design(spec.design).optimize(spec.optimize).no_remote_cache()
}

impl Fixture {
    /// Rules text → `compile_rules` through a fresh `CacheAutomaton` over
    /// `dir` → first `Fabric`. Cold when `dir` is empty (compiles and
    /// writes through), warm when it is populated (loads the artifact;
    /// the tier counters returned prove no compiler pass ran).
    fn setup(&self, dir: &Path) -> Result<(Program, TierStats), String> {
        let ca = automaton(self.spec).disk_cache(dir).build();
        let program = self
            .tracer
            .timed("core.compile_rules", 0, || compile_rules(&ca, &self.inputs.rules))
            .0
            .map_err(|e| format!("compile_rules: {e}"))?;
        let fabric = self
            .tracer
            .timed("sim.Fabric::new", 0, || program.compiled().fabric())
            .0
            .map_err(|e| format!("Fabric::new: {e}"))?;
        black_box(fabric.partition_count());
        Ok((program, ca.disk_cache_stats().unwrap_or_default()))
    }
}

impl Bench {
    pub fn cold_rep(&mut self) {
        let Bench { fx, tally } = self;
        let dirs: Vec<PathBuf> =
            (0..fx.spec.setups_per_rep).map(|_| tally.fresh_dir(&fx.scratch, "cold")).collect();
        let (outs, secs) = fx.tracer.timed("bench.cold_setup", 0, || {
            dirs.iter().map(|dir| fx.setup(dir)).collect::<Vec<_>>()
        });
        tally.timed("setup_s", secs / dirs.len() as f64);
        for out in outs {
            tally.check_setup(fx, "cold setup", out, true);
        }
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    pub fn warm_rep(&mut self) {
        let Bench { fx, tally } = self;
        let reps = fx.spec.setups_per_rep;
        let (outs, secs) = fx.tracer.timed("bench.warm_start", 0, || {
            (0..reps).map(|_| fx.setup(&fx.warm_dir)).collect::<Vec<_>>()
        });
        tally.timed("warm_start_s", secs / reps as f64);
        for out in outs {
            tally.check_setup(fx, "warm start", out, false);
        }
    }

    pub fn scan_pass(&mut self) {
        let Bench { fx, tally } = self;
        let (report, secs) =
            fx.tracer.timed("core.Program::run", 0, || fx.program.run(&fx.inputs.scan));
        tally.timed("scan_s", secs);
        tally.record(oracle::check(
            "scan pass",
            &report.matches,
            &report.exec,
            &fx.oracle.scan,
            Some(&fx.exec_scan),
            fx.inputs.scan.len(),
        ));
    }

    /// Bytes in → final reports out through the daemon; samples the pass
    /// time under `sample`.
    pub fn serve_pass(&mut self, client: &mut Client, sample: &'static str) {
        let Bench { fx, tally } = self;
        let first_request = tally.requests(fx.inputs.streams.len());
        let (out, _) = fx.tracer.timed("bench.serve_pass", 0, || {
            drive_pass(client, fx.spec, &fx.inputs.streams, &fx.tracer, first_request)
        });
        let outputs = out.map(|(outputs, secs)| {
            tally.timed(sample, secs);
            outputs
        });
        tally.check_streams(fx, "serve pass", outputs);
    }

    /// Sequential requests, each open → feed → finish → report received.
    pub fn latency_batch(&mut self, client: &mut Client) {
        let Bench { fx, tally } = self;
        let tracer = &fx.tracer;
        let mut rtts_ms = Vec::with_capacity(fx.inputs.requests.len());
        for (i, bytes) in fx.inputs.requests.iter().enumerate() {
            let request = tally.requests(1);
            let (out, secs) = tracer.timed("bench.latency_request", request, || {
                let mut stream = tracer.timed(Client::OPEN, request, || client.open()).0?;
                tracer
                    .timed(Client::FEED, request, || Streams::feed(client, &mut stream, bytes))
                    .0?;
                tracer.timed(Client::FINISH, request, || Streams::finish(client, stream)).0
            });
            tally.record(match out {
                Ok((events, exec)) => {
                    rtts_ms.push(secs * 1e3);
                    oracle::check(
                        &format!("latency request {i}"),
                        &events,
                        &exec,
                        &fx.oracle.requests[i],
                        Some(&fx.exec_requests[i]),
                        bytes.len(),
                    )
                }
                Err(e) => Err(format!("latency request {i}: {e}")),
            });
        }
        if !rtts_ms.is_empty() {
            tally.timed("rtt_p50_ms", percentile(&sorted(&rtts_ms), 0.5));
            tally.samples.entry("rtt_ms").or_default().extend(rtts_ms);
        }
    }
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn metric_json(m: &Measured, wall: &[f64]) -> Value {
    let Measured { metric, value, estimator, samples, .. } = m;
    let mut pairs = vec![
        ("value".to_string(), Value::Num(*value)),
        ("unit".to_string(), Value::str(metric.unit)),
        ("better".to_string(), Value::str(metric.better.as_str())),
    ];
    if let Some(bound) = metric.bound {
        pairs.push(("bound".to_string(), Value::Num(bound)));
    }
    pairs.push(("estimator".to_string(), Value::str(*estimator)));
    let list = |values: &[f64]| Value::Arr(values.iter().map(|&v| Value::Num(v)).collect());
    if !samples.is_empty() {
        pairs.push(("samples".to_string(), Summary::of(samples).to_json()));
        pairs.push(("raw".to_string(), list(samples)));
    }
    if !wall.is_empty() {
        // the same samples as the wall clock read them, before the
        // yardstick brought them to reference host speed
        pairs.push(("wall".to_string(), Summary::of(wall).to_json()));
        pairs.push(("raw_wall".to_string(), list(wall)));
    }
    Value::Obj(pairs)
}

/// One measured metric: its definition, value, how it was estimated and
/// the per-round samples behind it (in the samples' own unit).
pub struct Measured {
    pub metric: &'static Metric,
    pub value: f64,
    pub estimator: &'static str,
    /// Name the samples were collected under (`Tally::samples`, `Tally::wall`).
    pub sample_key: &'static str,
    pub samples: Vec<f64>,
}

impl Measured {
    /// A count, a ratio or a reading with no per-round samples behind it.
    pub fn untimed(metric: &'static Metric, value: f64, estimator: &'static str) -> Measured {
        Measured { metric, value, estimator, sample_key: "", samples: Vec::new() }
    }

    /// The fast decile of the samples collected under `key`.
    pub fn fast_decile(
        metric: &'static Metric,
        tally: &Tally,
        key: &'static str,
        estimator: &'static str,
    ) -> Measured {
        let samples = tally.samples_of(key).to_vec();
        Measured { metric, value: tally.fast(key), estimator, sample_key: key, samples }
    }
}

impl Bench {
    fn end_to_end(&self, artifact_bytes: usize) -> Vec<Measured> {
        let Bench { fx, tally } = self;
        let serve_bytes: usize = fx.inputs.streams.iter().map(Vec::len).sum();
        spec::END_TO_END
            .iter()
            .map(|metric| {
                let time = |key, estimator| Measured::fast_decile(metric, tally, key, estimator);
                let rate = |key, bytes: usize| {
                    let pass = time(key, "bytes / p10 of pass seconds");
                    Measured { value: bytes as f64 / MIB / pass.value, ..pass }
                };
                match metric.name {
                    "setup_s" => time("setup_s", "p10 of cold reps"),
                    "warm_start_s" => time("warm_start_s", "p10 of warm reps"),
                    "scan_mibps" => rate("scan_s", fx.inputs.scan.len()),
                    "serve_mibps" => rate("serve_s", serve_bytes),
                    "stream_rtt_p50_ms" => {
                        time("rtt_p50_ms", "p10 across rounds of the round's p50")
                    }
                    "peak_rss_mib" => Measured::untimed(metric, peak_rss_mib(), "VmHWM at exit"),
                    "artifact_kib" => Measured::untimed(
                        metric,
                        artifact_bytes as f64 / 1024.0,
                        "Program::to_bytes().len()",
                    ),
                    other => unreachable!("no estimator for {other}"),
                }
            })
            .collect()
    }
}

/// Inputs, oracle, the program compiled from the rules text, and the
/// in-process reference scan of every input (each checked against the
/// oracle: `verdicts`).
struct Prepared {
    inputs: Inputs,
    oracle: Oracle,
    program: Program,
    exec_scan: ExecStats,
    exec_streams: Vec<ExecStats>,
    exec_requests: Vec<ExecStats>,
    verdicts: Vec<Result<(), String>>,
    pins: Value,
}

impl Prepared {
    fn new(spec: &Workload, scale: f64, seed: u64) -> Result<Prepared, String> {
        let inputs = Inputs::build(spec, scale, seed);
        let oracle = Oracle::compute(&inputs);
        let ca = automaton(spec).no_disk_cache().build();
        let program = compile_rules(&ca, &inputs.rules).map_err(|e| format!("compile: {e}"))?;
        let mut verdicts = Vec::new();
        let mut scan_all =
            |what: &str, inputs: &[Vec<u8>], expected: &[Expected]| -> Vec<ExecStats> {
                inputs
                    .iter()
                    .zip(expected)
                    .map(|(input, want)| {
                        let report = program.run(input);
                        verdicts.push(oracle::check(
                            what,
                            &report.matches,
                            &report.exec,
                            want,
                            None,
                            input.len(),
                        ));
                        report.exec
                    })
                    .collect()
            };
        let exec_scan = scan_all(
            "reference scan",
            std::slice::from_ref(&inputs.scan),
            std::slice::from_ref(&oracle.scan),
        )
        .pop()
        .expect("one scan trace");
        let exec_streams = scan_all("reference stream", &inputs.streams, &oracle.streams);
        let exec_requests = scan_all("reference request", &inputs.requests, &oracle.requests);
        let pins = oracle::pins(&inputs, &oracle, &exec_scan, &exec_streams, &exec_requests);
        Ok(Prepared {
            inputs,
            oracle,
            program,
            exec_scan,
            exec_streams,
            exec_requests,
            verdicts,
            pins,
        })
    }
}

/// The digests `cabench digests` prints and checks for one workload.
pub fn pins(spec: &Workload, seed: u64) -> Result<Value, String> {
    let prepared = Prepared::new(spec, spec.scale, seed)?;
    prepared.verdicts.into_iter().collect::<Result<Vec<()>, String>>()?;
    Ok(prepared.pins)
}

pub fn run(options: &RunOptions) -> Result<Outcome, String> {
    let spec = options.workload;
    let scale = if options.quick { spec::QUICK_SCALE } else { spec.scale };
    let started = Instant::now();
    let Prepared {
        inputs,
        oracle,
        program,
        exec_scan,
        exec_streams,
        exec_requests,
        verdicts,
        pins,
    } = Prepared::new(spec, scale, options.seed)?;
    let artifact_bytes = program.to_bytes().len();

    let scratch = options.out_dir.join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let _cleanup = Scratch(scratch.clone());

    let mut bench = Bench {
        fx: Fixture {
            spec,
            inputs,
            oracle,
            program,
            exec_scan,
            exec_streams,
            exec_requests,
            warm_dir: scratch.join("warm"),
            scratch,
            tracer: Tracer::new(false),
        },
        tally: Tally::default(),
    };
    verdicts.into_iter().for_each(|v| bench.tally.record(v));

    if options.seed == spec::DEFAULT_SEED && !options.quick {
        let diffs = oracle::differences_from_pinned(spec.name, &pins);
        bench.tally.record(if diffs.is_empty() {
            Ok(())
        } else {
            Err(format!("pinned digests: {}", diffs.join("; ")))
        });
    }

    // The populated directory warm starts load from (an untimed cold setup).
    let populated = bench.fx.setup(&bench.fx.warm_dir);
    bench.tally.check_setup(&bench.fx, "populate warm dir", populated, true);

    // Daemon and connection live for the whole run; binding (which compiles
    // and builds the pool) stays outside every serve timer.
    let daemon = Daemon::bind(
        &automaton(spec).no_disk_cache().build(),
        &bench.fx.inputs.rules,
        &socket_addr(&bench.fx.scratch, "d.sock"),
        DaemonOptions { pool: pool_options() },
    )
    .map_err(|e| format!("daemon bind: {e}"))?;
    let mut client = Client::connect(&daemon.local_addr()).map_err(|e| format!("connect: {e}"))?;

    let mut layers = options.trace.then(|| crate::layers::Layers::new(&mut bench));
    let prepare_secs = started.elapsed().as_secs_f64();
    bench.fx.tracer.set_enabled(options.trace);

    let min_rounds = match (options.quick, options.trace) {
        (true, _) => spec::QUICK_ROUNDS,
        (false, true) => spec::MIN_TRACED_ROUNDS,
        (false, false) => spec::MIN_ROUNDS,
    };
    let measuring = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds
        || (!options.quick && measuring.elapsed().as_secs_f64() < options.seconds)
    {
        if rounds.is_multiple_of(spec.cold_every) {
            bench.cold_rep();
        }
        bench.warm_rep();
        bench.scan_pass();
        bench.serve_pass(&mut client, "serve_s");
        bench.latency_batch(&mut client);
        if let Some(layers) = layers.as_mut() {
            layers.probe(&mut bench, &mut client, rounds);
        }
        rounds += 1;
    }
    let measured_secs = measuring.elapsed().as_secs_f64();
    bench.fx.tracer.set_enabled(false);

    drop(client);
    bench.tally.record(daemon.shutdown().map_err(|e| format!("daemon shutdown: {e}")));

    let (measured, notes) = match layers {
        Some(layers) => layers.finish(&mut bench, options.quick),
        None => (bench.end_to_end(artifact_bytes), Vec::new()),
    };
    let Bench { fx, tally } = &bench;
    let correct = tally.failed == 0;

    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        (
            "metrics",
            Value::Obj(
                measured
                    .iter()
                    .map(|m| {
                        let entry = Value::obj([
                            ("value", Value::Num(m.value)),
                            ("unit", Value::str(m.metric.unit)),
                        ]);
                        (m.metric.name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    let doc = Value::obj([
        ("schema", Value::str(RUN_SCHEMA)),
        ("workload", Value::str(spec.name)),
        ("seed", Value::Num(options.seed as f64)),
        ("seconds", Value::Num(options.seconds)),
        ("trace", Value::Bool(options.trace)),
        ("quick", Value::Bool(options.quick)),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rounds", Value::Num(rounds as f64)),
        // yardstick time ÷ reference, per timed sample: 1.0 is the host's fast state
        ("host_slowdown", Summary::of(&tally.slowdowns).to_json()),
        ("prepare_s", Value::Num(prepare_secs)),
        ("measured_s", Value::Num(measured_secs)),
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("failures", Value::Arr(tally.failures.iter().map(Value::str).collect())),
        ("notes", Value::Arr(notes.iter().map(Value::str).collect())),
        (
            "metrics",
            Value::Obj(
                measured
                    .iter()
                    .map(|m| {
                        let wall = tally.wall.get(m.sample_key).map_or(&[][..], Vec::as_slice);
                        (m.metric.name.to_string(), metric_json(m, wall))
                    })
                    .collect(),
            ),
        ),
        ("digests", pins),
    ]);

    println!(
        "== {} seed {} {}: {rounds} rounds in {measured_secs:.1} s (+{prepare_secs:.1} s to prepare), \
         {} operations, {} failed",
        spec.name,
        options.seed,
        if options.trace { "traced" } else { "untraced" },
        tally.attempted,
        tally.failed
    );
    let host = Summary::of(&tally.slowdowns);
    println!(
        "host slowdown (yardstick / reference; timed samples are divided by it): \
         min {:.3} median {:.3} max {:.3}",
        host.min, host.median, host.max
    );
    for m in &measured {
        let spread = if m.samples.is_empty() {
            String::new()
        } else {
            let s = Summary::of(&m.samples);
            format!(
                "  [n={} min {:.4} q1 {:.4} median {:.4} q3 {:.4}]",
                s.n, s.min, s.q1, s.median, s.q3
            )
        };
        let arrow = match m.metric.better {
            Better::Lower => "lower is better",
            Better::Higher => "higher is better",
        };
        println!("{:<40} {:>14.6} {:<9} ({arrow}){spread}", m.metric.name, m.value, m.metric.unit);
    }
    notes.iter().for_each(|note| println!("{note}"));
    if options.trace {
        let path = options.out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, fx.tracer.to_json(spec.name).compact())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", fx.tracer.span_count(), path.display());
        let mut by_self: Vec<_> = fx.tracer.self_times().into_iter().collect();
        by_self.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        println!("self time by span, seconds (span minus the spans opened inside it):");
        for (name, t) in by_self.iter().take(12) {
            println!(
                "  {name:<34} self {:>9.4}  total {:>9.4}  spans {}",
                t.self_s, t.total_s, t.spans
            );
        }
    }
    Ok(Outcome { doc, result, ok: correct })
}
