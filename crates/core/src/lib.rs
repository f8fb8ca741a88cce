//! # Cache Automaton
//!
//! A full reproduction of *Cache Automaton* (Subramaniyan et al., MICRO-50
//! 2017): in-situ NFA processing in last-level cache, with the mapping
//! compiler, the cycle-level fabric simulator, calibrated timing / energy /
//! area models, and both published design points (performance-optimized
//! **CA_P** at 2 GHz and space-optimized **CA_S** at 1.2 GHz).
//!
//! This crate is the façade: compile patterns (regex strings, ANML
//! documents or prebuilt homogeneous NFAs) into a [`Program`], run it over
//! input streams, and read back matches plus the architectural report
//! (throughput, cache utilization, energy per symbol, power).
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cache_automaton::{CacheAutomaton, Design};
//!
//! let ca = CacheAutomaton::builder().design(Design::Performance).build();
//! let program = ca.compile_patterns(&["rain", "sp[ai]n", "plain?"])?;
//! let report = program.run(b"the rain in spain stays mainly in the plain");
//!
//! assert_eq!(report.matches.len(), 3);
//! assert_eq!(program.throughput_gbps(), 16.0);    // 2 GHz x 8 bit/cycle
//! assert!(report.energy.per_symbol_nj > 0.0);
//! # Ok(())
//! # }
//! ```
//!
//! The layers underneath are available as standalone crates and re-exported
//! in [`automata`], [`sim`], [`compiler`] and [`partition`] for direct use.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

pub mod artifact;
pub mod cache;
pub mod matches;
mod scanner;
pub mod serve;
mod session;
mod shard;

pub use ca_automata as automata;
pub use ca_compiler as compiler;
pub use ca_partition as partition;
pub use ca_sim as sim;
pub use ca_telemetry as telemetry;

pub use artifact::{PROGRAM_ARTIFACT_MAGIC, PROGRAM_ARTIFACT_VERSION};
pub use ca_automata::engine::MatchEvent;
pub use ca_automata::{CharClass, Fingerprint, HomNfa, ReportCode, StartKind, StateId};
pub use ca_compiler::{
    CompileError, CompiledAutomaton, CompilerOptions, MappingStats, PassTimings,
};
pub use ca_sim::DesignKind as Design;
pub use ca_sim::{ArtifactError, EnergyReport, ExecStats, PipelineTiming, Snapshot};
pub use ca_telemetry::{JsonLinesWriter, MemoryRecorder, Telemetry, TelemetrySink};
pub use cache::disk::DiskCache;
pub use cache::remote::RemoteCache;
pub use cache::{ArtifactCache, CacheKey, CacheStats, CacheTier, ProgramCache, TierStats};
pub use scanner::Scanner;
pub use serve::cache_server::CacheServer;
pub use serve::daemon::{Client, ClientOptions, Daemon, DaemonOptions, ListenAddr};
pub use serve::proto::{
    CacheServerStats, Frame, ProtoError, ServerStats, WireReport, PROTO_VERSION,
};
pub use serve::{PoolOptions, ScanPool, StreamHandle};
pub use session::Session;
pub use shard::Parallelism;

/// Default bound of the in-process program cache, in entries.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Environment variable naming the disk-tier cache directory. When set
/// (and non-empty), every instance built without an explicit
/// [`Builder::disk_cache`]/[`Builder::no_disk_cache`] choice persists
/// compiled artifacts there.
pub const CACHE_DIR_ENV: &str = "CACHE_AUTOMATON_DIR";

/// Environment variable naming a remote cache peer (`host:port` or
/// `unix:<path>`, the address of a `cactl cache-serve` process). When set
/// (and non-empty), every instance built without an explicit
/// [`Builder::remote_cache`]/[`Builder::no_remote_cache`] choice consults
/// that peer after the disk tier.
pub const CACHE_REMOTE_ENV: &str = "CACHE_AUTOMATON_REMOTE";

/// Largest LLC slice count the configuration accepts (well past any Xeon
/// die; larger values are treated as configuration mistakes).
pub const MAX_SLICES: usize = 64;

/// Errors surfaced by the high-level API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CaError {
    /// Pattern or ANML front-end failure.
    Automata(ca_automata::Error),
    /// Mapping compiler failure.
    Compile(CompileError),
    /// Invalid configuration or request (slice counts, empty pattern sets,
    /// zero-thread scans, over-subscribed multi-stream scans).
    Config(String),
    /// Input/output failure while reading a stream or image.
    Io(String),
    /// A serialized program artifact failed to decode (bad magic,
    /// unsupported version, checksum mismatch, structural damage).
    Artifact(ArtifactError),
    /// An invariant the library maintains was violated at runtime — e.g. a
    /// worker thread panicked mid-scan. The scan that hit it is lost, but
    /// the process (and any embedding service) survives with a typed
    /// error instead of an abort.
    Internal(String),
    /// A serving-daemon wire-protocol violation (bad frame header,
    /// unsupported version, oversized or malformed payload). See
    /// [`serve::proto`].
    Protocol(String),
    /// A well-formed, in-protocol request this server deliberately does
    /// not serve — e.g. CACHE_GET sent to a scan daemon (only `cactl
    /// cache-serve` answers cache frames), or a scan frame sent to a
    /// cache peer. Distinct from [`CaError::Protocol`] (malformed
    /// traffic): the connection stays healthy, the capability just is
    /// not there, so clients may degrade gracefully — a
    /// [`RemoteCache`] pointed at a scan daemon treats this code as a
    /// permanent miss.
    Unsupported(String),
    /// An error a serving daemon reported over the wire. `code` preserves
    /// the daemon-side [`CaError::code`] value for variants whose typed
    /// payload cannot cross a socket (automata, compiler, artifact
    /// errors), so exit codes survive the round trip.
    Remote {
        /// The daemon-side [`CaError::code`] value.
        code: u8,
        /// The daemon-side error message.
        message: String,
    },
}

impl fmt::Display for CaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaError::Automata(e) => write!(f, "{e}"),
            CaError::Compile(e) => write!(f, "{e}"),
            CaError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CaError::Io(msg) => write!(f, "i/o error: {msg}"),
            CaError::Artifact(e) => write!(f, "artifact error: {e}"),
            CaError::Internal(msg) => write!(f, "internal error: {msg}"),
            CaError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            CaError::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
            CaError::Remote { code, message } => {
                write!(f, "remote error (code {code}): {message}")
            }
        }
    }
}

impl CaError {
    /// Stable per-variant error code: 2 configuration, 3 i/o, 4 automata
    /// front-end, 5 mapping compiler, 6 artifact decode, 7 internal,
    /// 8 wire-protocol violation, 9 unsupported request. A
    /// [`CaError::Remote`] carries its daemon-side code through unchanged.
    ///
    /// This is the **one** error-code table of the project: `cactl` uses
    /// it as its process exit code for every subcommand, and the serving
    /// daemon's wire protocol carries it in ERROR frames (see
    /// [`serve::proto`]), so a scripted client can branch on failure kind
    /// identically whether the scan ran locally or over a socket.
    pub fn code(&self) -> u8 {
        match self {
            CaError::Config(_) => 2,
            CaError::Io(_) => 3,
            CaError::Automata(_) => 4,
            CaError::Compile(_) => 5,
            CaError::Artifact(_) => 6,
            CaError::Internal(_) => 7,
            CaError::Protocol(_) => 8,
            CaError::Unsupported(_) => 9,
            CaError::Remote { code, .. } => *code,
        }
    }
}

impl std::error::Error for CaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CaError::Automata(e) => Some(e),
            CaError::Compile(e) => Some(e),
            CaError::Artifact(e) => Some(e),
            CaError::Config(_)
            | CaError::Io(_)
            | CaError::Internal(_)
            | CaError::Protocol(_)
            | CaError::Unsupported(_)
            | CaError::Remote { .. } => None,
        }
    }
}

/// Converts a thread-join panic payload into [`CaError::Internal`],
/// salvaging the panic message when it is a string.
pub(crate) fn join_panic_to_internal(
    context: &str,
    payload: Box<dyn std::any::Any + Send>,
) -> CaError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic payload".to_string());
    CaError::Internal(format!("{context} thread panicked: {msg}"))
}

#[doc(hidden)]
impl From<std::io::Error> for CaError {
    fn from(e: std::io::Error) -> CaError {
        CaError::Io(e.to_string())
    }
}

#[doc(hidden)]
impl From<ca_automata::Error> for CaError {
    fn from(e: ca_automata::Error) -> CaError {
        CaError::Automata(e)
    }
}

#[doc(hidden)]
impl From<CompileError> for CaError {
    fn from(e: CompileError) -> CaError {
        CaError::Compile(e)
    }
}

#[doc(hidden)]
impl From<ArtifactError> for CaError {
    fn from(e: ArtifactError) -> CaError {
        CaError::Artifact(e)
    }
}

/// Whether to run the space optimizer (dead-state removal + common-prefix
/// merging) before mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Optimize {
    /// Optimize exactly when the design is [`Design::Space`] — the paper's
    /// CA_S flow.
    #[default]
    Auto,
    /// Always optimize.
    Always,
    /// Never optimize (map the baseline NFA as-is).
    Never,
}

/// Builder for [`CacheAutomaton`].
#[derive(Debug, Clone, Default)]
pub struct Builder {
    design: Design,
    slices: Option<usize>,
    seed: Option<u64>,
    optimize: Optimize,
    cache_capacity: Option<usize>,
    /// Outer `None` = undecided (consult [`CACHE_DIR_ENV`] at build time);
    /// `Some(None)` = explicitly disabled; `Some(Some(path))` = explicit.
    disk_cache: Option<Option<std::path::PathBuf>>,
    /// Same tri-state as `disk_cache`, against [`CACHE_REMOTE_ENV`].
    remote_cache: Option<Option<String>>,
    telemetry: Telemetry,
}

impl Builder {
    /// Selects the design point (default: [`Design::Performance`]).
    #[must_use]
    pub fn design(mut self, design: Design) -> Builder {
        self.design = design;
        self
    }

    /// Number of LLC slices to use (default: 8, the paper's prototype).
    ///
    /// Validated when a program is compiled: zero or more than
    /// [`MAX_SLICES`] slices is a [`CaError::Config`].
    #[must_use]
    pub fn slices(mut self, slices: usize) -> Builder {
        self.slices = Some(slices);
        self
    }

    /// Seed for the (deterministic) graph partitioner.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Builder {
        self.seed = Some(seed);
        self
    }

    /// Space-optimization policy (default: [`Optimize::Auto`]).
    #[must_use]
    pub fn optimize(mut self, optimize: Optimize) -> Builder {
        self.optimize = optimize;
        self
    }

    /// Bound of the in-process program cache, in entries (default:
    /// [`DEFAULT_CACHE_CAPACITY`]; 0 disables caching).
    ///
    /// Recompiling an identical (NFA, options) pair returns the cached
    /// [`Program`] — byte-identical bitstream, equal stats — instead of
    /// re-running the mapping pipeline. See [`cache`] for the replacement
    /// and admission policy.
    #[must_use]
    pub fn cache_capacity(mut self, entries: usize) -> Builder {
        self.cache_capacity = Some(entries);
        self
    }

    /// Persists compiled artifacts in a [`DiskCache`] rooted at `path`,
    /// shared by every process pointed at the same directory. Lookups go
    /// memory → disk → compile, and compilations write through to both
    /// tiers; see [`cache`] for the layout and corruption policy.
    ///
    /// Without an explicit choice, a non-empty [`CACHE_DIR_ENV`]
    /// environment variable enables the disk tier at build time.
    #[must_use]
    pub fn disk_cache<P: Into<std::path::PathBuf>>(mut self, path: P) -> Builder {
        self.disk_cache = Some(Some(path.into()));
        self
    }

    /// Disables the disk tier even when [`CACHE_DIR_ENV`] is set.
    #[must_use]
    pub fn no_disk_cache(mut self) -> Builder {
        self.disk_cache = Some(None);
        self
    }

    /// Adds a [`RemoteCache`] tier speaking CACHE_GET / CACHE_PUT frames
    /// to the cache peer at `addr` (`host:port` or `unix:<path>`, the
    /// address of a `cactl cache-serve` process), consulted after the
    /// disk tier. Nothing is dialed until the first compile; a failing
    /// peer degrades to misses, never errors.
    ///
    /// Without an explicit choice, a non-empty [`CACHE_REMOTE_ENV`]
    /// environment variable enables the remote tier at build time.
    #[must_use]
    pub fn remote_cache<S: Into<String>>(mut self, addr: S) -> Builder {
        self.remote_cache = Some(Some(addr.into()));
        self
    }

    /// Disables the remote tier even when [`CACHE_REMOTE_ENV`] is set.
    #[must_use]
    pub fn no_remote_cache(mut self) -> Builder {
        self.remote_cache = Some(None);
        self
    }

    /// Routes pipeline events (compile-pass spans, cache counters, fabric
    /// activity, scan-stripe timings) to `sink` — see the
    /// [`telemetry`] module for the sinks shipped in-tree and DESIGN.md §7
    /// for the event taxonomy. Programs compiled by the resulting instance
    /// inherit the handle; the default is disabled (zero overhead).
    #[must_use]
    pub fn telemetry(mut self, sink: impl TelemetrySink + 'static) -> Builder {
        self.telemetry = Telemetry::new(sink);
        self
    }

    /// Like [`telemetry`](Builder::telemetry), but takes a prebuilt
    /// [`Telemetry`] handle — use this to share one sink (e.g. an
    /// `Arc<MemoryRecorder>` you keep for inspection) across instances.
    #[must_use]
    pub fn telemetry_handle(mut self, telemetry: Telemetry) -> Builder {
        self.telemetry = telemetry;
        self
    }

    /// Finalizes the configuration.
    #[must_use]
    pub fn build(self) -> CacheAutomaton {
        let defaults = CompilerOptions::default();
        let capacity = self.cache_capacity.unwrap_or(DEFAULT_CACHE_CAPACITY);
        let mut cache = ArtifactCache::new(capacity);
        cache.set_telemetry(self.telemetry.clone());
        // undecided tiers: the environment may opt the process in
        let from_env = |name| std::env::var_os(name).filter(|v| !v.is_empty());
        let disk_root = self.disk_cache.unwrap_or_else(|| from_env(CACHE_DIR_ENV).map(Into::into));
        if let Some(root) = disk_root {
            cache.push_tier(Box::new(DiskCache::new(root)));
        }
        let remote_addr = self
            .remote_cache
            .unwrap_or_else(|| from_env(CACHE_REMOTE_ENV).and_then(|v| v.into_string().ok()));
        if let Some(addr) = remote_addr {
            cache.push_tier(Box::new(RemoteCache::new(addr)));
        }
        CacheAutomaton {
            options: CompilerOptions {
                design: self.design,
                slices: self.slices.unwrap_or(defaults.slices),
                seed: self.seed.unwrap_or(defaults.seed),
            },
            optimize: self.optimize,
            cache: Arc::new(Mutex::new(cache)),
            telemetry: self.telemetry,
        }
    }
}

/// A configured Cache Automaton instance (design point + geometry).
///
/// Cloning shares the tiered artifact cache: clones of one instance (and
/// the threads they live on) hit each other's compilations, and instances
/// in *different processes* sharing a disk-cache directory (or a remote
/// cache peer) hit each other's too.
#[derive(Debug, Clone)]
pub struct CacheAutomaton {
    options: CompilerOptions,
    optimize: Optimize,
    cache: Arc<Mutex<ArtifactCache>>,
    telemetry: Telemetry,
}

impl Default for CacheAutomaton {
    fn default() -> CacheAutomaton {
        CacheAutomaton::new()
    }
}

impl CacheAutomaton {
    /// The performance-optimized configuration with paper defaults.
    pub fn new() -> CacheAutomaton {
        CacheAutomaton::builder().build()
    }

    /// Starts a builder.
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// The resolved compiler options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// Behaviour counters of the in-memory cache tier (hits, misses,
    /// evictions, admission rejections).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("program cache poisoned").memory_stats()
    }

    /// `(name, stats)` counters of every persistent cache tier, in lookup
    /// order (empty when the instance has no disk or remote tier).
    pub fn tier_stats(&self) -> Vec<(&'static str, TierStats)> {
        self.cache.lock().expect("program cache poisoned").tier_stats()
    }

    /// Counters of the disk tier, if one is configured.
    pub fn disk_cache_stats(&self) -> Option<TierStats> {
        self.tier_stats().into_iter().find(|(name, _)| *name == "disk").map(|(_, s)| s)
    }

    /// Compiles a set of regex patterns; pattern `i` reports with code `i`.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] for an empty pattern set; otherwise pattern
    /// parse errors, nullable patterns, or mapping failures.
    pub fn compile_patterns<S: AsRef<str>>(&self, patterns: &[S]) -> Result<Program, CaError> {
        if patterns.is_empty() {
            return Err(CaError::Config(
                "empty pattern set: a program needs at least one pattern".into(),
            ));
        }
        let nfa = ca_automata::regex::compile_patterns(patterns)?;
        self.compile_nfa(&nfa)
    }

    /// Compiles an ANML document.
    ///
    /// # Errors
    ///
    /// ANML parse errors or mapping failures.
    pub fn compile_anml(&self, anml: &str) -> Result<Program, CaError> {
        let nfa = ca_automata::anml::parse_anml(anml)?;
        self.compile_nfa(&nfa)
    }

    /// Compiles a prebuilt homogeneous NFA.
    ///
    /// Under [`Optimize::Auto`] the space optimizer runs first when the
    /// design is [`Design::Space`], mirroring the paper's CA_S flow.
    ///
    /// Results are cached: recompiling an NFA with the same canonical
    /// fingerprint under the same options returns the stored [`Program`]
    /// (byte-identical bitstream) without re-running the mapping pipeline.
    /// With a disk tier configured ([`Builder::disk_cache`] /
    /// [`CACHE_DIR_ENV`]) the lookup goes memory → disk → compile and a
    /// fresh compilation writes through to every tier, so a *second
    /// process* pointed at the same directory skips compilation too.
    /// Failures are never cached.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] for an out-of-range slice count; otherwise
    /// mapping failures (capacity, routability).
    pub fn compile_nfa(&self, nfa: &HomNfa) -> Result<Program, CaError> {
        if self.options.slices == 0 || self.options.slices > MAX_SLICES {
            return Err(CaError::Config(format!(
                "slice count {} out of range (1..={MAX_SLICES})",
                self.options.slices
            )));
        }
        let optimize = match self.optimize {
            Optimize::Always => true,
            Optimize::Never => false,
            Optimize::Auto => self.options.design == Design::Space,
        };
        let key = CacheKey {
            fingerprint: nfa.fingerprint(),
            design: self.options.design,
            slices: self.options.slices,
            seed: self.options.seed,
            optimized: optimize,
        };
        if let Some(mut hit) = self.cache.lock().expect("program cache poisoned").get(&key) {
            // the stored program carries the telemetry of whoever compiled
            // it; the caller gets their own handle
            hit.set_telemetry(self.telemetry.clone());
            return Ok(hit);
        }
        let owned;
        let source: &HomNfa = if optimize {
            // not a `compile.pass.*` span: those reconcile with `PassTimings`
            let span = ca_telemetry::SpanGuard::start(&self.telemetry, "compile.optimize", 0);
            owned = ca_automata::optimize::space_optimize(nfa).0;
            span.finish();
            self.telemetry.gauge("compile.optimized_states", 0, owned.len() as f64);
            &owned
        } else {
            nfa
        };
        let compiled = ca_compiler::compile_with_telemetry(source, &self.options, &self.telemetry)?;
        let program = Program::new(compiled, self.telemetry.clone());
        self.cache.lock().expect("program cache poisoned").insert(key, program.clone());
        Ok(program)
    }
}

/// A compiled, loadable automaton program.
///
/// Like the hardware, a program is *configured once*: the compiled image
/// and the fabric lookup tables built from it (at the first scan) exist
/// once per program and are shared by reference. Cloning a program —
/// which a cache hit, [`ScanPool::new`], [`replicate`](Program::replicate)
/// and every daemon generation do — bumps a reference count; the only
/// thing a clone owns is its telemetry handle.
#[must_use = "compiling a program is expensive; run or scan it"]
#[derive(Debug, Clone)]
pub struct Program {
    image: Arc<Image>,
    telemetry: Telemetry,
}

/// The immutable part of a [`Program`], shared by all of its clones.
#[derive(Debug)]
struct Image {
    design: Design,
    timing: PipelineTiming,
    compiled: CompiledAutomaton,
    /// The fabric whose lookup tables every scan of this program shares.
    /// Built by the first scan, not at compile or load time, so obtaining
    /// a program never pays for tables it may not use.
    template: OnceLock<ca_sim::Fabric>,
}

impl Program {
    /// Wraps a compiled image; scans report to `telemetry`.
    pub(crate) fn new(compiled: CompiledAutomaton, telemetry: Telemetry) -> Program {
        let design = compiled.bitstream.design;
        let timing = ca_sim::design_timing(design);
        let image = Image { design, timing, compiled, template: OnceLock::new() };
        Program { image: Arc::new(image), telemetry }
    }

    /// The design point the program was compiled for.
    pub fn design(&self) -> Design {
        self.image.design
    }

    /// Mapping statistics (partitions, utilization, routes).
    pub fn stats(&self) -> &MappingStats {
        &self.image.compiled.stats
    }

    /// The underlying compiled image.
    pub fn compiled(&self) -> &CompiledAutomaton {
        &self.image.compiled
    }

    /// Resolved pipeline timing of the design point.
    pub fn timing(&self) -> &PipelineTiming {
        &self.image.timing
    }

    /// Cache space the program occupies, in MB (Figure 8's metric).
    pub fn utilization_mb(&self) -> f64 {
        self.stats().utilization_mb()
    }

    /// Deterministic scan throughput, Gbit/s (one symbol per cycle).
    pub fn throughput_gbps(&self) -> f64 {
        self.image.timing.throughput_gbps()
    }

    /// Scans `input` as one chunk and returns the report.
    ///
    /// This is a convenience wrapper over a one-chunk [`Scanner`] session;
    /// prefer [`scanner`](Program::scanner) for streams that arrive in
    /// pieces and [`run_parallel`](Program::run_parallel) to spread a large
    /// input across several fabric instances.
    pub fn run(&self, input: &[u8]) -> RunReport {
        let mut scanner = self.scanner();
        scanner.feed(input);
        scanner.finish()
    }

    /// Like [`run`](Program::run), additionally writing a per-cycle text
    /// trace to `sink` — one line per input symbol, see
    /// [`ca_sim::Fabric::run_traced`]. Matches and activity statistics
    /// equal [`run`](Program::run)'s.
    ///
    /// # Errors
    ///
    /// Propagates write failures from `sink`.
    pub fn run_traced<W: std::io::Write>(
        &self,
        input: &[u8],
        sink: &mut W,
    ) -> std::io::Result<RunReport> {
        let mut session = session::SessionCore::fresh();
        let options = ca_sim::RunOptions::default();
        session.record(self.fabric().run_traced(input, &options, sink)?);
        Ok(session.finish(self))
    }

    /// Opens a streaming scan session at the start of a fresh stream.
    pub fn scanner(&self) -> Scanner<'_> {
        Scanner::new(self, None)
    }

    /// Reopens a streaming scan session from a suspend image previously
    /// taken with [`Scanner::snapshot`].
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] if the snapshot was taken from a program with a
    /// different partition count — resuming it here would scramble the
    /// active-state vectors.
    pub fn resume_scanner(&self, snapshot: Snapshot) -> Result<Scanner<'_>, CaError> {
        let partitions = self.compiled().bitstream.partitions.len();
        if snapshot.active_vectors.len() != partitions {
            return Err(CaError::Config(format!(
                "resume snapshot carries {} active vectors but this program drives {} \
                 partitions (was it taken from another program?)",
                snapshot.active_vectors.len(),
                partitions
            )));
        }
        Ok(Scanner::new(self, Some(snapshot)))
    }

    /// Routes this program's scan events (fabric activity snapshots,
    /// stripe timings, end-of-run counters) to `telemetry`. Programs
    /// compiled through [`CacheAutomaton`] inherit the builder's handle;
    /// use this for programs loaded from artifacts, or to attach a
    /// different sink per scan site.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handle scans of this program report to (a cheap
    /// clone; disabled unless one was installed).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// A fabric instance for this program: per-stream scratch over the
    /// program's one shared table set, reporting to this handle's
    /// telemetry. The first call on any clone builds the tables.
    pub(crate) fn fabric(&self) -> ca_sim::Fabric {
        let template = self
            .image
            .template
            .get_or_init(|| self.image.compiled.fabric().expect("compiled bitstream is valid"));
        let mut fabric = template.clone();
        fabric.set_telemetry(self.telemetry.clone());
        fabric
    }

    /// Renders raw fabric activity into a [`RunReport`] using this
    /// program's design point (energy model, operating clock).
    pub(crate) fn report_from(&self, matches: Vec<MatchEvent>, exec: ExecStats) -> RunReport {
        let Image { design, timing, .. } = &*self.image;
        let freq = timing.operating_freq_ghz();
        let energy = ca_sim::energy_report(&exec, *design, &ca_sim::EnergyParams::default(), freq);
        let simulated_seconds = exec.cycles as f64 * timing.operating_clock_ps() * 1e-12;
        RunReport { matches, exec, energy, simulated_seconds }
    }

    /// How many independent instances of this program the configured cache
    /// can hold (the paper: "space savings can be directly translated to
    /// speedup by matching against multiple NFA instances", §5.2).
    pub fn max_instances(&self) -> usize {
        let total = self.compiled().bitstream.geometry.total_partitions();
        let used = self.stats().partitions_used.max(1);
        (total / used).max(1)
    }

    /// Replicates the program into a multi-stream scanner with `instances`
    /// copies, each processing its own input stream in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::CapacityExceeded`] (wrapped) if the cache
    /// cannot hold that many copies.
    pub fn replicate(&self, instances: usize) -> Result<MultiProgram, CaError> {
        let max = self.max_instances();
        if instances == 0 || instances > max {
            return Err(CaError::Compile(CompileError::CapacityExceeded {
                needed: instances * self.stats().partitions_used,
                available: self.compiled().bitstream.geometry.total_partitions(),
            }));
        }
        Ok(MultiProgram { program: self.clone(), instances })
    }
}

/// Several instances of one compiled automaton scanning independent input
/// streams concurrently — the throughput-scaling mode of §5.2.
#[derive(Debug, Clone)]
pub struct MultiProgram {
    program: Program,
    instances: usize,
}

impl MultiProgram {
    /// Number of instances.
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// The underlying single-stream program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Aggregate peak throughput: every instance sustains one symbol per
    /// cycle on its own stream.
    pub fn aggregate_throughput_gbps(&self) -> f64 {
        self.program.throughput_gbps() * self.instances as f64
    }

    /// Scans up to [`instances`](MultiProgram::instances) streams in
    /// parallel (one OS thread per stream), returning one report per
    /// stream in order.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] if more streams than instances are supplied;
    /// [`CaError::Internal`] if a stream's scan thread panics.
    pub fn run_streams(&self, streams: &[&[u8]]) -> Result<Vec<RunReport>, CaError> {
        if streams.len() > self.instances {
            return Err(CaError::Config(format!(
                "{} streams exceed the {} configured instances",
                streams.len(),
                self.instances
            )));
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    let program = &self.program;
                    scope.spawn(move || program.run(stream))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|e| join_panic_to_internal("stream scan", e)))
                .collect()
        })
    }
}

/// The result of running a [`Program`] over an input stream.
#[must_use]
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Reported matches in position order.
    pub matches: Vec<MatchEvent>,
    /// Fabric activity statistics.
    pub exec: ExecStats,
    /// Energy / power at the design's operating frequency.
    pub energy: EnergyReport,
    /// Wall-clock the hardware would take (cycles x clock period).
    pub simulated_seconds: f64,
}

impl RunReport {
    /// Simulated scan throughput in Gbit/s (includes pipeline fill, so it
    /// approaches the design's peak for long streams).
    pub fn achieved_gbps(&self) -> f64 {
        if self.simulated_seconds == 0.0 {
            0.0
        } else {
            self.exec.symbols as f64 * 8.0 / self.simulated_seconds / 1e9
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let ca = CacheAutomaton::new();
        let program = ca.compile_patterns(&["abc", "a.c"]).unwrap();
        let report = program.run(b"xxabcxx");
        assert_eq!(report.matches.len(), 2); // both patterns end at 'c'
        assert_eq!(report.exec.symbols, 7);
        assert!(report.simulated_seconds > 0.0);
        assert!(report.achieved_gbps() > 10.0);
    }

    #[test]
    fn design_selection_changes_throughput() {
        let p = CacheAutomaton::builder()
            .design(Design::Performance)
            .build()
            .compile_patterns(&["x"])
            .unwrap();
        let s = CacheAutomaton::builder()
            .design(Design::Space)
            .build()
            .compile_patterns(&["x"])
            .unwrap();
        assert_eq!(p.throughput_gbps(), 16.0);
        assert!((s.throughput_gbps() - 9.6).abs() < 1e-9);
    }

    #[test]
    fn auto_optimize_only_on_space() {
        let patterns: Vec<String> = (0..8).map(|i| format!("sharedprefix{i}")).collect();
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let nfa = ca_automata::regex::compile_patterns(&refs).unwrap();
        let p = CacheAutomaton::builder()
            .design(Design::Performance)
            .build()
            .compile_nfa(&nfa)
            .unwrap();
        let s = CacheAutomaton::builder().design(Design::Space).build().compile_nfa(&nfa).unwrap();
        assert_eq!(p.stats().states, nfa.len());
        assert!(s.stats().states < nfa.len(), "space flow must merge prefixes");
        // same matches either way
        let input = b"zz sharedprefix3 sharedprefix7";
        let mp = p.run(input).matches;
        let ms = s.run(input).matches;
        assert_eq!(mp, ms);
    }

    #[test]
    fn space_compiles_report_the_optimizer() {
        let patterns: Vec<String> = (0..8).map(|i| format!("sharedprefix{i}")).collect();
        let nfa = ca_automata::regex::compile_patterns(&patterns).unwrap();
        for design in [Design::Space, Design::Performance] {
            let recorder = Arc::new(MemoryRecorder::new());
            let ca = CacheAutomaton::builder()
                .design(design)
                .no_disk_cache()
                .no_remote_cache()
                .telemetry_handle(Telemetry::from_arc(recorder.clone()))
                .build();
            let program = ca.compile_nfa(&nfa).unwrap();
            let _hit = ca.compile_nfa(&nfa).unwrap();
            let spans = recorder.spans("compile.optimize");
            let states = recorder.gauges("compile.optimized_states");
            assert_eq!(recorder.spans("compile.pass.plan").len(), 1, "{design:?}");
            if design == Design::Space {
                assert_eq!(spans.len(), 1, "one optimizer run, none on the hit");
                assert_eq!(states.len(), 1);
                assert_eq!(states[0].value, program.stats().states as f64);
                assert!(program.stats().states < nfa.len());
            } else {
                assert!(spans.is_empty() && states.is_empty(), "CA_P never optimizes");
            }
        }
    }

    #[test]
    fn anml_entry_point() {
        let anml = r#"<anml-network id="t">
            <state-transition-element id="a" symbol-set="[xy]" start="all-input">
              <activate-on-match element="b"/>
            </state-transition-element>
            <state-transition-element id="b" symbol-set="z">
              <report-on-match reportcode="3"/>
            </state-transition-element>
        </anml-network>"#;
        let program = CacheAutomaton::new().compile_anml(anml).unwrap();
        let report = program.run(b"aaxzaa");
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.matches[0].code, ReportCode(3));
    }

    #[test]
    fn errors_propagate_with_display() {
        let err = CacheAutomaton::new().compile_patterns(&["("]).unwrap_err();
        assert!(err.to_string().contains("regex parse error"));
        assert!(std::error::Error::source(&err).is_some());
        let err = CacheAutomaton::new().compile_patterns(&["a*"]).unwrap_err();
        assert!(matches!(err, CaError::Automata(ca_automata::Error::NullableRegex)));
    }

    #[test]
    fn utilization_reported() {
        let program = CacheAutomaton::new().compile_patterns(&["hello"]).unwrap();
        assert!((program.utilization_mb() - 8192.0 / 1048576.0).abs() < 1e-12);
        assert_eq!(program.stats().partitions_used, 1);
    }

    #[test]
    fn replication_scales_throughput() {
        let program = CacheAutomaton::new().compile_patterns(&["alpha", "beta"]).unwrap();
        // 1 partition used, 512 available (8 slices x 64)
        assert_eq!(program.max_instances(), 512);
        let multi = program.replicate(4).unwrap();
        assert_eq!(multi.instances(), 4);
        assert_eq!(multi.aggregate_throughput_gbps(), 64.0);
        let streams: Vec<&[u8]> = vec![b"alpha", b"beta beta", b"nothing", b"alphabeta"];
        let reports = multi.run_streams(&streams).unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].matches.len(), 1);
        assert_eq!(reports[1].matches.len(), 2);
        assert_eq!(reports[2].matches.len(), 0);
        assert_eq!(reports[3].matches.len(), 2);
    }

    #[test]
    fn replication_respects_capacity() {
        let program = CacheAutomaton::new().compile_patterns(&["x"]).unwrap();
        assert!(program.replicate(0).is_err());
        assert!(program.replicate(program.max_instances()).is_ok());
        assert!(program.replicate(program.max_instances() + 1).is_err());
    }

    #[test]
    fn too_many_streams_is_a_config_error() {
        let program = CacheAutomaton::new().compile_patterns(&["x"]).unwrap();
        let multi = program.replicate(1).unwrap();
        let err = multi.run_streams(&[b"a", b"b"]).unwrap_err();
        assert!(matches!(err, CaError::Config(_)));
        assert!(err.to_string().contains("exceed"));
    }

    #[test]
    fn clones_and_memory_hits_share_one_image_and_one_table_set() {
        let ca = CacheAutomaton::new();
        let program = ca.compile_patterns(&["shared", "image"]).unwrap();
        let hit = ca.compile_patterns(&["shared", "image"]).unwrap();
        assert_eq!(ca.cache_stats().hits, 1);
        assert!(Arc::ptr_eq(&program.image, &hit.image), "a memory-tier hit copies nothing");
        assert!(Arc::ptr_eq(&program.image, &program.clone().image));
        let replicated = program.replicate(2).unwrap();
        assert!(Arc::ptr_eq(&program.image, &replicated.program().image));
        // Compiling, hitting and cloning build no tables; the first fabric
        // does, once, for every handle on the image.
        assert!(program.image.template.get().is_none(), "tables are built lazily");
        let (first, second) = (program.fabric(), hit.fabric());
        assert!(first.shares_tables(&second));
        assert!(first.shares_tables(&replicated.program().fabric()));
    }

    #[test]
    fn racing_first_scans_all_return_the_serial_report() {
        let patterns = ["needle", "na+il", "x[0-9]{3}y"];
        let input = b"xxneedle naaail x123y needlenail x12y".repeat(20);
        let serial = CacheAutomaton::new().compile_patterns(&patterns).unwrap().run(&input);
        assert!(!serial.matches.is_empty());
        // A program no scan has touched: the eight threads race its first
        // table build.
        let fresh = CacheAutomaton::new().compile_patterns(&patterns).unwrap();
        assert!(fresh.image.template.get().is_none());
        let barrier = std::sync::Barrier::new(8);
        let reports: Vec<RunReport> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        fresh.run(&input)
                    })
                })
                .collect();
            racers.into_iter().map(|h| h.join().expect("racer")).collect()
        });
        for report in reports {
            assert_eq!(report.matches, serial.matches);
            assert_eq!(report.exec, serial.exec);
        }
    }

    #[test]
    fn traced_run_reports_what_run_reports() {
        // One 400-state pattern cannot fit a 256-STE partition, so the
        // program is routed across partitions.
        let program = CacheAutomaton::new().compile_patterns(&["ab{400}c", "bbc"]).unwrap();
        assert!(program.stats().partitions_used > 1);
        assert!(program.stats().g1_routes + program.stats().g4_routes > 0);
        let mut input = b"zab".to_vec();
        input.extend(std::iter::repeat_n(b'b', 399));
        input.extend_from_slice(b"c abbc");
        let plain = program.run(&input);
        assert!(plain.matches.len() >= 3 && plain.exec.g1_signals + plain.exec.g4_signals > 0);
        let mut sink = Vec::new();
        let traced = program.run_traced(&input, &mut sink).unwrap();
        assert_eq!(traced.matches, plain.matches);
        assert_eq!(traced.exec, plain.exec);
        assert_eq!(traced.simulated_seconds, plain.simulated_seconds);
        assert_eq!(String::from_utf8(sink).unwrap().lines().count(), input.len());
        // and it scanned on the program's shared tables
        assert!(program.image.template.get().is_some());
    }

    #[test]
    fn builder_overrides() {
        let ca = CacheAutomaton::builder().slices(2).seed(7).build();
        assert_eq!(ca.options().slices, 2);
        assert_eq!(ca.options().seed, 7);
    }

    #[test]
    fn empty_pattern_set_is_a_config_error() {
        let err = CacheAutomaton::new().compile_patterns::<&str>(&[]).unwrap_err();
        assert!(matches!(err, CaError::Config(_)));
        assert!(err.to_string().contains("at least one pattern"));
    }

    #[test]
    fn absurd_slice_counts_are_config_errors() {
        for slices in [0usize, MAX_SLICES + 1, usize::MAX] {
            let err = CacheAutomaton::builder()
                .slices(slices)
                .build()
                .compile_patterns(&["x"])
                .unwrap_err();
            assert!(matches!(err, CaError::Config(_)), "slices = {slices}");
            assert!(err.to_string().contains("out of range"));
        }
        assert!(CacheAutomaton::builder()
            .slices(MAX_SLICES)
            .build()
            .compile_patterns(&["x"])
            .is_ok());
    }

    #[test]
    fn io_errors_convert() {
        let err: CaError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(err, CaError::Io(_)));
        assert!(err.to_string().contains("gone"));
        assert!(std::error::Error::source(&err).is_none());
    }
}
