//! `cactl` — command-line front-end for the Cache Automaton reproduction.
//!
//! ```text
//! cactl compile <rules> [--design P|S] [--slices N] [--pages OUT] [--out ARTIFACT]
//! cactl run     <rules> <input-file> [--design P|S] [--limit N] [--trace OUT | --shards N]
//!                       [--metrics OUT]
//! cactl run     --program <artifact> <input-file> [--limit N] [--trace OUT | --shards N]
//!                       [--metrics OUT]
//! cactl inspect <rules> [--design P|S]
//! cactl anml    <rules>
//! cactl frompages <image.capg> <input-file>
//! cactl bench   <rules> <input-file> [--design P|S]
//! cactl mux     <rules> <input-file>... [--design P|S] [--workers N] [--metrics OUT]
//! cactl mux     --program <artifact> <input-file>... [--workers N] [--metrics OUT]
//! cactl serve   <rules> --listen <addr> [--design P|S] [--workers N] [--metrics OUT]
//! cactl connect --listen <addr> [<input-file>...] [--reload RULES] [--limit N]
//! cactl cache-serve --listen <addr> --cache-dir DIR [--metrics OUT]
//! cactl cache   <stats|clear> [--cache-dir DIR] [--remote <addr>]
//! cactl checkmetrics <metrics.jsonl>
//!
//! <rules> is either an ANML document (*.anml) or a newline-separated
//! regex pattern file (# comments allowed). Pattern i reports with code i.
//!
//! `mux` scans every input file (or FIFO) as an independent logical
//! stream through one ScanPool: streams are read incrementally, fed
//! concurrently, and multiplexed over `--workers` threads, each scanning
//! on its own fabric instance over the program's one shared table set.
//!
//! `compile --out` writes a versioned program artifact (.capr); `run
//! --program` loads one instead of compiling, so compilation and scanning
//! can happen in different processes (or on different days).
//!
//! `run --metrics OUT` streams telemetry (compile pass timings, scan
//! stripe spans, fabric activity counters) to OUT as JSON lines;
//! `checkmetrics` validates such a file against the schema.
//!
//! `--cache-dir DIR` (or the `CACHE_AUTOMATON_DIR` environment variable)
//! attaches a persistent disk tier to the compilation cache: any command
//! that compiles rules first looks for a previously stored artifact under
//! DIR and, on a miss, stores what it compiled so the *next* process
//! starts warm. `cache stats` summarizes what's on disk; `cache clear`
//! empties it.
//!
//! `--remote-cache ADDR` (or `CACHE_AUTOMATON_REMOTE`) chains a fleet
//! tier behind the disk tier: artifacts missing locally are fetched from
//! the cache peer at ADDR, and fresh compiles are pushed to it.
//! `cache-serve` runs that peer — a daemon answering CACHE_GET/CACHE_PUT
//! over the same wire protocol, backed by its own `--cache-dir`; `cache
//! stats --remote ADDR` asks a running peer for its request counters
//! instead of scanning a local directory.
//!
//! `serve` compiles the rules and answers the wire protocol on `--listen`
//! (`host:port` or `unix:<path>`) until killed; `connect` scans each
//! input file as one stream of a running daemon (`--reload RULES` hot-
//! swaps the daemon's rule set first, `--reload same` recompiles its
//! current rules). With no inputs, `connect` just prints daemon stats.
//! ```
//!
//! Exit codes are [`CaError::code`], shared with the daemon's wire-level
//! ERROR frames: 0 success, 2 usage/configuration, 3 i/o, 4 pattern or
//! ANML front-end, 5 mapping compiler, 6 artifact decode, 7 internal
//! (worker thread panic), 8 wire-protocol violation, 9 unsupported
//! request (e.g. cache frames sent to a scan daemon, or vice versa). An
//! error reported by a remote daemon exits with the code the daemon sent.

use ca_baselines::measure_cpu as ca_baselines_measure;
use cache_automaton::serve::daemon::nfa_from_rules_text;
use cache_automaton::{
    CaError, CacheAutomaton, CacheServer, Client, Daemon, DaemonOptions, Design, JsonLinesWriter,
    MatchEvent, Parallelism, PoolOptions, Program, ScanPool, Telemetry,
};
use std::fmt::Write as _;
use std::io::Read as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("cactl: {err}");
            // One stable exit code per error class — the same table the
            // wire protocol uses — so scripts can branch on failure kind
            // without parsing stderr, locally or against a daemon.
            ExitCode::from(err.code())
        }
    }
}

fn io_err(path: &str, e: impl std::fmt::Display) -> CaError {
    CaError::Io(format!("{path}: {e}"))
}

fn config_err(msg: impl Into<String>) -> CaError {
    CaError::Config(msg.into())
}

/// Every `--flag value` option with the hint for what its value must be.
const FLAGS: [(&str, &str); 15] = [
    ("--design", "P or S"),
    ("--slices", "a number"),
    ("--pages", "a path"),
    ("--out", "a path"),
    ("--program", "a path"),
    ("--trace", "a path"),
    ("--metrics", "a path"),
    ("--limit", "a number"),
    ("--listen", "host:port or unix:<path>"),
    ("--cache-dir", "a directory"),
    ("--remote-cache", "host:port or unix:<path>"),
    ("--remote", "host:port or unix:<path>"),
    ("--reload", "a rules file or 'same'"),
    ("--workers", "a number"),
    ("--shards", "a number or 'auto'"),
];

/// The parsed command line: flag values as given, plus the positionals.
#[derive(Default)]
struct Options {
    values: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Options {
    /// The value of `flag`, if given (the last occurrence wins).
    fn get(&self, flag: &str) -> Option<&str> {
        self.values.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn needs(flag: &str) -> CaError {
        let hint = FLAGS.iter().find(|(f, _)| *f == flag).map_or("a value", |(_, hint)| hint);
        config_err(format!("{flag} needs {hint}"))
    }

    fn number(&self, flag: &str) -> Result<Option<usize>, CaError> {
        self.get(flag).map(|v| v.parse().map_err(|_| Options::needs(flag))).transpose()
    }

    fn design(&self) -> Result<Design, CaError> {
        match self.get("--design").map(str::to_ascii_uppercase).as_deref() {
            None | Some("P" | "CA_P" | "PERFORMANCE") => Ok(Design::Performance),
            Some("S" | "CA_S" | "SPACE") => Ok(Design::Space),
            Some(other) => Err(config_err(format!("unknown design '{other}' (use P or S)"))),
        }
    }

    fn shards(&self) -> Result<Option<Parallelism>, CaError> {
        match self.get("--shards") {
            Some("auto") => Ok(Some(Parallelism::Auto)),
            _ => Ok(self.number("--shards")?.map(Parallelism::Threads)),
        }
    }

    /// The one positional argument `command` takes.
    fn single(&self, command: &str, what: &str) -> Result<&str, CaError> {
        match self.positional.as_slice() {
            [only] => Ok(only),
            _ => Err(config_err(format!("{command} needs exactly one {what}"))),
        }
    }

    fn listen(&self, command: &str) -> Result<&str, CaError> {
        self.get("--listen")
            .ok_or_else(|| config_err(format!("{command} needs --listen host:port or unix:<path>")))
    }

    /// The disk-cache root, resolved exactly as the Builder would: the
    /// explicit flag first, then the environment.
    fn cache_dir(&self, command: &str) -> Result<String, CaError> {
        let env = cache_automaton::CACHE_DIR_ENV;
        self.get("--cache-dir")
            .map(str::to_string)
            .or_else(|| std::env::var(env).ok().filter(|v| !v.is_empty()))
            .ok_or_else(|| config_err(format!("{command} needs --cache-dir DIR or {env} set")))
    }
}

fn parse_args(args: Vec<String>) -> Result<(String, Options), CaError> {
    let mut args = args.into_iter();
    let command = args.next().ok_or_else(|| config_err(USAGE))?;
    let mut opts = Options::default();
    while let Some(arg) = args.next() {
        if let Some(&(flag, _)) = FLAGS.iter().find(|(flag, _)| *flag == arg) {
            opts.values.push((flag, args.next().ok_or_else(|| Options::needs(flag))?));
        } else if arg.starts_with("--") {
            return Err(config_err(format!("unknown flag {arg}")));
        } else {
            opts.positional.push(arg);
        }
    }
    Ok((command, opts))
}

const USAGE: &str = "usage: cactl <compile|run|mux|serve|connect|cache-serve|cache|inspect|anml|\
                     frompages|bench|checkmetrics> <rules> [args] (see --help in the crate docs)";

fn load_rules_text(path: &str) -> Result<String, CaError> {
    std::fs::read_to_string(path).map_err(|e| io_err(path, e))
}

fn load_nfa(path: &str) -> Result<cache_automaton::HomNfa, CaError> {
    let text = load_rules_text(path)?;
    // Same front-end the daemon applies to RELOAD payloads (ANML sniffed
    // by content), so a file served locally and a file pushed over the
    // wire compile identically.
    nfa_from_rules_text(&text).map_err(|e| match e {
        CaError::Config(msg) => CaError::Config(format!("{path}: {msg}")),
        other => other,
    })
}

/// The builder every compiling command shares: design, slices, telemetry,
/// and — when `--cache-dir` / `--remote-cache` were given — the
/// persistent disk and fleet tiers. Without the flags the builder still
/// honors `CACHE_AUTOMATON_DIR` and `CACHE_AUTOMATON_REMOTE` on its own.
fn configured(opts: &Options, telemetry: &Telemetry) -> Result<CacheAutomaton, CaError> {
    let mut builder = CacheAutomaton::builder()
        .design(opts.design()?)
        .slices(opts.number("--slices")?.unwrap_or(8))
        .telemetry_handle(telemetry.clone());
    if let Some(dir) = opts.get("--cache-dir") {
        builder = builder.disk_cache(dir);
    }
    if let Some(addr) = opts.get("--remote-cache") {
        builder = builder.remote_cache(addr);
    }
    Ok(builder.build())
}

/// The program `run` and `mux` scan with — loaded from `--program`, or
/// compiled from the rules file that then leads the positionals — and
/// the input paths that follow.
fn program_and_inputs<'a>(
    command: &str,
    opts: &'a Options,
    ca: &CacheAutomaton,
    telemetry: &Telemetry,
) -> Result<(Program, &'a [String]), CaError> {
    if let Some(artifact) = opts.get("--program") {
        let mut program = Program::load(artifact)?;
        // loaded artifacts carry a disabled handle; attach the sink
        program.set_telemetry(telemetry.clone());
        return Ok((program, &opts.positional));
    }
    let (rules, inputs) = opts.positional.split_first().ok_or_else(|| {
        config_err(format!("{command} needs a rules file (or --program ARTIFACT) and input files"))
    })?;
    Ok((ca.compile_nfa(&load_nfa(rules)?)?, inputs))
}

/// Opens the `--metrics` sink if requested, else a disabled handle whose
/// event calls compile down to a single predictable branch.
fn open_metrics(opts: &Options) -> Result<Telemetry, CaError> {
    match opts.get("--metrics") {
        Some(path) => {
            let writer = JsonLinesWriter::create(path).map_err(|e| io_err(path, e))?;
            Ok(Telemetry::new(writer))
        }
        None => Ok(Telemetry::disabled()),
    }
}

fn metrics_footer(out: &mut String, opts: &Options, telemetry: &Telemetry) {
    if let Some(path) = opts.get("--metrics") {
        telemetry.flush();
        let _ = writeln!(out, "metrics written      : {path}");
    }
}

fn read_input(path: &str) -> Result<Vec<u8>, CaError> {
    std::fs::read(path).map_err(|e| io_err(path, e))
}

/// Reads the file (or FIFO) at `path` incrementally, handing each chunk to
/// `feed`; returns the bytes read.
fn pump_file(
    path: &str,
    mut feed: impl FnMut(&[u8]) -> Result<(), CaError>,
) -> Result<u64, CaError> {
    let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    let mut reader = std::io::BufReader::new(file);
    let mut buf = vec![0u8; 64 * 1024];
    let mut total = 0u64;
    loop {
        let n = reader.read(&mut buf).map_err(|e| io_err(path, e))?;
        if n == 0 {
            return Ok(total);
        }
        total += n as u64;
        feed(&buf[..n])?;
    }
}

/// Says the server is up before the caller blocks on it — scripts wait for
/// this line to know the socket is ready.
fn announce(line: &str) {
    println!("{line}");
    let _ = std::io::Write::flush(&mut std::io::stdout());
}

fn list_matches(out: &mut String, matches: &[MatchEvent], limit: usize) {
    for m in matches.iter().take(limit) {
        let _ = writeln!(out, "  pattern {:>4} @ byte {}", m.code.0, m.pos);
    }
    if matches.len() > limit {
        let _ = writeln!(out, "  ... {} more", matches.len() - limit);
    }
}

fn run(args: Vec<String>) -> Result<String, CaError> {
    let (command, opts) = parse_args(args)?;
    let command = command.as_str();
    let limit = opts.number("--limit")?.unwrap_or(20);
    let workers = opts.number("--workers")?;
    let shards = opts.shards()?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let telemetry = open_metrics(&opts)?;
    // Built (and every flag value above read) up front, so a bad value is
    // reported whichever command runs.
    let ca = configured(&opts, &telemetry)?;
    let mut out = String::new();
    match command {
        "compile" => {
            let program = ca.compile_nfa(&load_nfa(opts.single(command, "rules file")?)?)?;
            let s = program.stats();
            let _ = writeln!(out, "design            : {}", program.design());
            let _ = writeln!(out, "states            : {}", s.states);
            let _ = writeln!(out, "components        : {}", s.connected_components);
            let _ = writeln!(out, "partitions        : {}", s.partitions_used);
            let _ = writeln!(out, "cache utilization : {:.3} MB", program.utilization_mb());
            let _ = writeln!(out, "G1 / G4 routes    : {} / {}", s.g1_routes, s.g4_routes);
            let _ = writeln!(out, "peak throughput   : {} Gb/s", program.throughput_gbps());
            let _ = writeln!(
                out,
                "pass timings      : plan {:.2} ms, place {:.2} ms, emit {:.2} ms, validate {:.2} ms",
                s.timings.plan_ms, s.timings.place_ms, s.timings.emit_ms, s.timings.validate_ms
            );
            let image = ca_sim::emit_pages(&program.compiled().bitstream);
            let _ = writeln!(
                out,
                "config image      : {} pages, {} KB, loads in {:.3} ms",
                image.pages.len(),
                image.total_bytes() / 1024,
                image.config_time_ms()
            );
            if let Some(path) = opts.get("--pages") {
                std::fs::write(path, image.to_capg_bytes()).map_err(|e| io_err(path, e))?;
                let _ = writeln!(out, "pages written     : {path}");
            }
            if let Some(path) = opts.get("--out") {
                program.save(path).map_err(|e| match e {
                    CaError::Io(msg) => CaError::Io(format!("{path}: {msg}")),
                    other => other,
                })?;
                let _ = writeln!(out, "artifact written  : {path}");
            }
        }
        "run" => {
            // The cycle trace is one serial scan; a sharded scan has no
            // single per-cycle order to write down.
            if shards.is_some() && opts.get("--trace").is_some() {
                return Err(config_err("run takes --trace or --shards, not both"));
            }
            let (program, inputs) = program_and_inputs(command, &opts, &ca, &telemetry)?;
            let [input_path] = inputs else {
                return Err(config_err("run needs exactly one input file"));
            };
            let input = read_input(input_path)?;
            let report = if let Some(trace_path) = opts.get("--trace") {
                // one scan, writing the per-cycle trace alongside
                let file = std::fs::File::create(trace_path).map_err(|e| io_err(trace_path, e))?;
                let mut sink = std::io::BufWriter::new(file);
                let report =
                    program.run_traced(&input, &mut sink).map_err(|e| io_err(trace_path, e))?;
                std::io::Write::flush(&mut sink).map_err(|e| io_err(trace_path, e))?;
                let _ = writeln!(out, "cycle trace written  : {trace_path}");
                report
            } else if let Some(parallelism) = shards {
                // sharded parallel scan: stripes on concurrent fabric
                // instances, stitched into a serial-identical match list
                program.run_parallel(&input, parallelism)?
            } else {
                // stream the file through a scan session in FIFO-refill
                // sized chunks — what a deployed driver would do
                let mut scanner = program.scanner();
                for chunk in input.chunks(ca_sim::fabric::FIFO_REFILL_BYTES) {
                    scanner.feed(chunk);
                }
                scanner.finish()
            };
            let _ = writeln!(
                out,
                "scanned {} bytes: {} matches, {} interrupts",
                input.len(),
                report.matches.len(),
                report.exec.output_interrupts
            );
            list_matches(&mut out, &report.matches, limit);
            let _ = writeln!(
                out,
                "simulated: {:.3} ms at {} Gb/s | {:.3} nJ/symbol, {:.2} W avg",
                report.simulated_seconds * 1e3,
                program.throughput_gbps(),
                report.energy.per_symbol_nj,
                report.energy.avg_power_w
            );
            metrics_footer(&mut out, &opts, &telemetry);
        }
        "mux" => {
            let (program, inputs) = program_and_inputs(command, &opts, &ca, &telemetry)?;
            if inputs.is_empty() {
                return Err(config_err("mux needs at least one input file"));
            }
            let workers = workers.unwrap_or_else(|| cores.min(inputs.len()));
            let pool = ScanPool::new(&program, PoolOptions { workers, ..PoolOptions::default() })?;
            let started = std::time::Instant::now();
            // One feeder thread per input: each reads its file (or FIFO)
            // incrementally and feeds its own logical stream; the pool
            // multiplexes the scans over the shared workers.
            let results: Vec<_> = std::thread::scope(|scope| {
                let feeders: Vec<_> = inputs
                    .iter()
                    .map(|path| {
                        let stream = pool.open_stream();
                        scope.spawn(move || {
                            let mut stream = stream?;
                            let bytes = pump_file(path, |chunk| stream.feed(chunk))?;
                            Ok((stream.finish()?, bytes))
                        })
                    })
                    .collect();
                feeders
                    .into_iter()
                    .map(|handle| {
                        handle.join().unwrap_or_else(|_| {
                            Err(CaError::Internal("mux feeder thread panicked".into()))
                        })
                    })
                    .collect()
            });
            let wall = started.elapsed();
            pool.shutdown()?;
            let mut total_bytes = 0u64;
            let mut total_matches = 0usize;
            let mut simulated_max = 0.0f64;
            for (path, result) in inputs.iter().zip(results) {
                let (report, bytes) = result?;
                total_bytes += bytes;
                total_matches += report.matches.len();
                simulated_max = simulated_max.max(report.simulated_seconds);
                let _ = writeln!(
                    out,
                    "stream {path}: {bytes} bytes, {} matches, {:.3} ms simulated",
                    report.matches.len(),
                    report.simulated_seconds * 1e3
                );
            }
            let wall_s = wall.as_secs_f64();
            let _ = writeln!(
                out,
                "aggregate: {} streams x{workers} workers | {total_bytes} bytes, \
                 {total_matches} matches | wall {:.1} ms ({:.2} MB/s) | simulated makespan {:.3} ms",
                inputs.len(),
                wall_s * 1e3,
                total_bytes as f64 / wall_s.max(1e-12) / 1e6,
                simulated_max * 1e3
            );
            metrics_footer(&mut out, &opts, &telemetry);
        }
        "serve" => {
            let rules = opts.single(command, "rules file")?;
            let addr = opts.listen(command)?;
            let workers = workers.unwrap_or(cores);
            let options = DaemonOptions { pool: PoolOptions { workers, ..PoolOptions::default() } };
            let daemon = Daemon::bind(&ca, &load_rules_text(rules)?, addr, options)?;
            let addr = daemon.local_addr();
            announce(&format!("serving {rules} on {addr} ({workers} workers, generation 0)"));
            daemon.wait();
        }
        "connect" => {
            let mut client = Client::connect(opts.listen(command)?)?;
            if let Some(reload) = opts.get("--reload") {
                // `--reload same` recompiles the daemon's current rules —
                // a generation bump to an identical program.
                let rules_text =
                    if reload == "same" { None } else { Some(load_rules_text(reload)?) };
                let generation = client.reload(rules_text.as_deref())?;
                let _ = writeln!(out, "reloaded: generation {generation}");
            }
            let mut total_bytes = 0u64;
            let mut total_matches = 0usize;
            for path in &opts.positional {
                let (stream, generation) = client.open_stream()?;
                let mut live = 0usize;
                let bytes = pump_file(path, |chunk| {
                    client.feed(stream, chunk)?;
                    // Drain matches as the stream scans; the FINISH report
                    // still carries the complete, ordered event list.
                    live += client.poll_matches(stream)?.len();
                    Ok(())
                })?;
                live += client.poll_matches(stream)?.len();
                let report = client.finish(stream)?;
                total_bytes += bytes;
                total_matches += report.events.len();
                let _ = writeln!(
                    out,
                    "stream {path}: {bytes} bytes, {} matches, {live} delivered live \
                     (generation {generation})",
                    report.events.len()
                );
                list_matches(&mut out, &report.events, limit);
            }
            if !opts.positional.is_empty() {
                let _ = writeln!(
                    out,
                    "aggregate: {} streams, {total_bytes} bytes, {total_matches} matches",
                    opts.positional.len()
                );
            }
            let stats = client.stats()?;
            let _ = writeln!(
                out,
                "daemon: generation {}, {} reloads, {} streams served, {} live streams, \
                 {} connections",
                stats.generation,
                stats.reloads,
                stats.streams_served,
                stats.live_streams,
                stats.connections
            );
        }
        "inspect" => {
            let program = ca.compile_nfa(&load_nfa(opts.single(command, "rules file")?)?)?;
            let bs = &program.compiled().bitstream;
            let _ = writeln!(out, "{} partitions, {} routes", bs.partitions.len(), bs.routes.len());
            for (i, p) in bs.partitions.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "  partition {i:>3} @ {} : {:>3} STEs, {:>2} starts, {:>2} reports, {} import ports",
                    p.location,
                    p.ste_count(),
                    p.start_all.count() + p.start_sod.count(),
                    p.reports.len(),
                    p.import_dest.len()
                );
            }
            for r in bs.routes.iter().take(limit) {
                let _ = writeln!(
                    out,
                    "  route p{}:{} --{}--> p{} port {}",
                    r.src_partition, r.src_ste, r.via, r.dst_partition, r.dst_port
                );
            }
        }
        "bench" => {
            let [rules, input_path] = opts.positional.as_slice() else {
                return Err(config_err("bench needs a rules file and an input file"));
            };
            let nfa = load_nfa(rules)?;
            let input = read_input(input_path)?;
            let program = ca.compile_nfa(&nfa)?;
            // measured host CPU (VASim-style sparse engine)
            let cpu = ca_baselines_measure(&nfa, &input);
            // simulated hardware
            let report = program.run(&input);
            let hw_gbps = program.throughput_gbps();
            let _ = writeln!(out, "input               : {} bytes", input.len());
            let _ = writeln!(
                out,
                "host CPU (measured) : {:.4} Gb/s ({} matches in {:.3} ms)",
                cpu.throughput_gbps(),
                cpu.matches,
                cpu.seconds * 1e3
            );
            let _ = writeln!(
                out,
                "{} (simulated)    : {:.1} Gb/s ({} matches in {:.3} ms)",
                program.design(),
                hw_gbps,
                report.matches.len(),
                report.simulated_seconds * 1e3
            );
            let _ = writeln!(
                out,
                "speedup             : {:.0}x",
                hw_gbps / cpu.throughput_gbps().max(1e-12)
            );
        }
        "frompages" => {
            let [pages_path, input_path] = opts.positional.as_slice() else {
                return Err(config_err("frompages needs a .capg file and an input file"));
            };
            let bytes = read_input(pages_path)?;
            let image =
                ca_sim::ConfigImage::from_capg_bytes(&bytes).map_err(|e| io_err(pages_path, e))?;
            let bitstream = ca_sim::load_pages(&image).map_err(|e| io_err(pages_path, e))?;
            let mut fabric = ca_sim::Fabric::new(&bitstream).map_err(|e| io_err(pages_path, e))?;
            let input = read_input(input_path)?;
            let report = fabric.run(&input);
            let _ = writeln!(
                out,
                "loaded {} partitions / {} routes from pages; scanned {} bytes: {} matches",
                bitstream.partitions.len(),
                bitstream.routes.len(),
                input.len(),
                report.events.len()
            );
            list_matches(&mut out, &report.events, limit);
        }
        "cache-serve" => {
            if !opts.positional.is_empty() {
                return Err(config_err("cache-serve takes no positional arguments"));
            }
            let dir = opts.cache_dir(command)?;
            let server =
                CacheServer::bind_with_telemetry(opts.listen(command)?, &dir, telemetry.clone())?;
            announce(&format!("cache peer serving {dir} on {}", server.local_addr()));
            server.wait();
        }
        "cache" => {
            let action = match opts.positional.as_slice() {
                [] => "stats",
                [action] => action.as_str(),
                _ => return Err(config_err("cache takes one action: stats or clear")),
            };
            // `--remote` redirects `stats` at a running cache peer: the
            // counters come back over a CACHE_STATS frame instead of a
            // local directory scan.
            if let Some(addr) = opts.get("--remote") {
                if action != "stats" {
                    return Err(config_err(
                        "--remote only supports the stats action (clear is local-only)",
                    ));
                }
                let s = Client::connect(addr)?.cache_stats()?;
                let _ = writeln!(out, "cache peer   : {addr}");
                let _ = writeln!(
                    out,
                    "requests     : {} hits, {} misses, {} puts",
                    s.hits, s.misses, s.puts
                );
                let _ = writeln!(out, "rejected puts: {}", s.rejected);
                let _ = writeln!(
                    out,
                    "bytes        : {} served, {} stored",
                    s.bytes_served, s.bytes_stored
                );
                let _ = writeln!(
                    out,
                    "artifacts    : {} ({:.3} MB on disk)",
                    s.entries,
                    s.disk_bytes as f64 / (1024.0 * 1024.0)
                );
                return Ok(out);
            }
            let dir = opts.cache_dir(command)?;
            let disk = cache_automaton::DiskCache::new(&dir);
            match action {
                "stats" => {
                    let (entries, bytes) = disk.scan().map_err(|e| io_err(&dir, e))?;
                    let _ = writeln!(out, "cache root : {dir}");
                    let _ = writeln!(
                        out,
                        "artifacts  : {entries} ({:.3} MB)",
                        bytes as f64 / (1024.0 * 1024.0)
                    );
                }
                "clear" => {
                    disk.clear().map_err(|e| io_err(&dir, e))?;
                    let _ = writeln!(out, "cleared {dir}");
                }
                other => {
                    return Err(config_err(format!(
                        "unknown cache action '{other}' (use stats or clear)"
                    )))
                }
            }
        }
        "checkmetrics" => {
            let path = opts.single(command, "metrics file")?;
            let text = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
            let summary = cache_automaton::telemetry::validate_jsonl(&text)
                .map_err(|e| config_err(format!("{path}: invalid metrics stream: {e}")))?;
            let _ = writeln!(
                out,
                "{path}: {} events ok ({} counters, {} gauges, {} spans, {} logs)",
                summary.total(),
                summary.counters,
                summary.gauges,
                summary.spans,
                summary.logs
            );
        }
        "anml" => {
            let nfa = load_nfa(opts.single(command, "rules file")?)?;
            out = ca_automata::anml::to_anml(&nfa, "cactl");
        }
        _ => return Err(config_err(USAGE)),
    }
    Ok(out)
}
