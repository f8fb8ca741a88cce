//! Cycle-level functional simulator of the Cache Automaton fabric.
//!
//! Executes a [`Bitstream`] the way the hardware would: per input symbol,
//! every partition performs a state-match (SRAM row read AND active-state
//! vector), matching STEs propagate through the local switch and any
//! configured global-switch routes, reports enter the CBOX output buffer,
//! and the input FIFO refills one cache block at a time (paper §2.3–2.8).
//!
//! The three-stage pipeline (§2.5) does not change functional behaviour —
//! it overlaps the match of symbol *i+1* with the switch traversal of
//! symbol *i* — so the simulator executes symbols in order and accounts the
//! pipeline in the cycle count: `cycles = symbols + fill`.
//!
//! The hot loop is *activity-proportional*, mirroring the sparsity the
//! hardware exploits (§5.3: idle arrays are clock/precharge-gated). Arming
//! is implicit: an idle partition holds exactly its always-armed start
//! vector and is never visited, so the loop keeps a *hot set* of the
//! partitions whose vector differs from that baseline and each symbol
//! visits it merged with the precomputed partitions whose start states can
//! match that symbol — O(hot + start-matching partitions + matched routes)
//! instead of O(partitions + routes), with a sequential sweep of every
//! partition once the visit list would cover a third of the fabric.
//! [`Fabric::run_dense`] keeps the original O(P+R) loop as the reference
//! implementation for differential tests and benchmarks.
//!
//! The sweep's local switch is *bit-parallel*. The L-switch is a crossbar
//! whose matched rows all drive in one cycle (§2.3–2.5), and the matrices
//! rule sets compile to are almost pure chains, so [`Fabric::new`]
//! decomposes each partition's matrix into a hold mask (self-loops) and
//! at most three masked shifts (its most frequent forward distances,
//! each under 64 columns): a sweep visit costs those few word operations
//! however many STEs matched. A column owning any other edge — backward,
//! 64 or more columns forward, a fourth distance — is an *exception
//! column*: it is left out of the masks and its row is ORed in as before.
//! The sparse visit walk and the correction pass keep the
//! one-row-per-matched-STE walk — a visit there carries about one matched
//! state, and a single 32-byte OR is cheaper than a hold mask and three
//! shifts — and so does the dense reference, which has to stay
//! independent of what it checks.
//!
//! As in the hardware, an automaton is *configured once*: the lookup
//! tables [`Fabric::new`] compiles from a bitstream are immutable and
//! shared by reference between every clone of that fabric. All a clone
//! owns is per-stream scratch — what §2.9 writes out on suspend (the
//! active-state vectors) plus the hot-set bookkeeping — so cloning costs
//! O(partitions + report codes), not a copy of the configuration.

use crate::bitstream::{Bitstream, BitstreamError, Route, RouteVia};
use crate::local_switch::LocalSwitch;
use crate::mask::Mask256;
use ca_automata::engine::MatchEvent;
use ca_automata::ReportCode;
use ca_telemetry::Telemetry;
use std::sync::Arc;

/// Depth of the CBOX input FIFO (entries = symbols).
pub const INPUT_FIFO_ENTRIES: usize = 128;

/// Cache-block bytes fetched per FIFO refill.
pub const FIFO_REFILL_BYTES: usize = 64;

/// Entries in the CBOX output buffer; filling it raises an interrupt.
pub const OUTPUT_BUFFER_ENTRIES: usize = 64;

/// Pipeline fill cycles (stages minus one).
pub const PIPELINE_FILL_CYCLES: u64 = 2;

/// Symbols between telemetry activity snapshots in [`Fabric::run_with`]
/// (a power of two so the position check is a mask, not a division).
pub const TELEMETRY_SNAPSHOT_INTERVAL: u64 = 1024;

/// Activity statistics of one fabric run — the inputs to the energy model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Input symbols processed.
    pub symbols: u64,
    /// Total cycles including pipeline fill.
    pub cycles: u64,
    /// Sum over cycles of partitions with a non-zero active-state vector
    /// (each costs an array access + local-switch traversal; zero-activity
    /// partitions are clock/precharge-disabled, §5.3).
    pub active_partition_cycles: u64,
    /// Sum over cycles of matched STEs.
    pub matched_total: u64,
    /// Signals sent through per-way G-switches (one per asserted route).
    pub g1_signals: u64,
    /// Signals sent through cross-way G-switches.
    pub g4_signals: u64,
    /// Reports emitted.
    pub reports: u64,
    /// Output-buffer-full interrupts raised.
    pub output_interrupts: u64,
    /// Input FIFO refills (one cache-block read each).
    pub fifo_refills: u64,
    /// Per-partition active-cycle counts.
    pub per_partition_active: Vec<u64>,
}

impl ExecStats {
    /// Mean active partitions per *input symbol* (Table 1's normalisation:
    /// every symbol drives exactly one state-match, so dividing by symbols
    /// measures activity of the work actually performed, independent of
    /// pipeline-fill cycles).
    pub fn avg_active_partitions_per_symbol(&self) -> f64 {
        if self.symbols == 0 {
            0.0
        } else {
            self.active_partition_cycles as f64 / self.symbols as f64
        }
    }

    /// Mean active partitions per *cycle*, counting pipeline fill in the
    /// denominator — the utilisation a wall-clock observer of the fabric
    /// would see.
    pub fn avg_active_partitions_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.active_partition_cycles as f64 / self.cycles as f64
        }
    }

    /// Mean matched STEs per *input symbol* (Table 1's "Avg. Active
    /// States").
    pub fn avg_active_states_per_symbol(&self) -> f64 {
        if self.symbols == 0 {
            0.0
        } else {
            self.matched_total as f64 / self.symbols as f64
        }
    }

    /// Mean matched STEs per *cycle* (fill cycles included).
    pub fn avg_active_states_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.matched_total as f64 / self.cycles as f64
        }
    }

    /// Accumulates another run's *activity* counters into this one.
    ///
    /// `cycles` is deliberately **not** summed: how per-run cycle counts
    /// combine is a scheduling question (sequential chunks add, concurrent
    /// stripes take a makespan), so the caller sets `cycles` explicitly.
    pub fn absorb_activity(&mut self, other: &ExecStats) {
        self.symbols += other.symbols;
        self.active_partition_cycles += other.active_partition_cycles;
        self.matched_total += other.matched_total;
        self.g1_signals += other.g1_signals;
        self.g4_signals += other.g4_signals;
        self.reports += other.reports;
        self.output_interrupts += other.output_interrupts;
        self.fifo_refills += other.fifo_refills;
        if self.per_partition_active.len() < other.per_partition_active.len() {
            self.per_partition_active.resize(other.per_partition_active.len(), 0);
        }
        for (acc, n) in self.per_partition_active.iter_mut().zip(&other.per_partition_active) {
            *acc += n;
        }
    }

    /// Emits every counter of this run to `telemetry` under the `fabric.*`
    /// names (see DESIGN.md §7). Drivers call this once per finished scan
    /// with the final reconciled stats, so recorded totals match the
    /// returned `ExecStats` exactly — including on sharded runs, where raw
    /// per-stripe counters would double-count correction overlap.
    pub fn emit_counters(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.counter("fabric.symbols", self.symbols);
        telemetry.counter("fabric.cycles", self.cycles);
        telemetry.counter("fabric.active_partition_cycles", self.active_partition_cycles);
        telemetry.counter("fabric.matched_total", self.matched_total);
        telemetry.counter("fabric.g1_signals", self.g1_signals);
        telemetry.counter("fabric.g4_signals", self.g4_signals);
        telemetry.counter("fabric.reports", self.reports);
        telemetry.counter("fabric.output_interrupts", self.output_interrupts);
        telemetry.counter("fabric.fifo_refills", self.fifo_refills);
    }
}

/// Result of a fabric run: the match stream plus activity statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Reported matches in position order.
    pub events: Vec<MatchEvent>,
    /// Activity statistics.
    pub stats: ExecStats,
    /// Full CBOX output-buffer entries (populated when requested via
    /// [`RunOptions::collect_entries`]).
    pub entries: Vec<OutputEntry>,
    /// Execution image at the end of the run; feed it back through
    /// [`RunOptions::resume`] to continue the same logical stream.
    pub snapshot: Option<Snapshot>,
}

/// Execution options for [`Fabric::run_with`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Resume from a prior [`Snapshot`] instead of the start vectors.
    pub resume: Option<Snapshot>,
    /// Record full [`OutputEntry`] records alongside the match events.
    pub collect_entries: bool,
}

/// A CBOX output-buffer entry (§2.8): alongside the match position and
/// report code, the hardware records the partition, the matched column,
/// the input symbol and the symbol counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputEntry {
    /// Partition whose reporting STE matched.
    pub partition: u32,
    /// Matched column within the partition.
    pub column: u8,
    /// The input symbol that completed the match.
    pub symbol: u8,
    /// Symbol-counter value (position in the stream).
    pub symbol_counter: u64,
    /// Report code of the STE.
    pub code: ReportCode,
}

/// A suspended execution image (§2.9): "the NFA process may also be
/// suspended and later resumed by recording the number of input symbols
/// processed and the active state vector to memory."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Symbols consumed so far.
    pub symbol_counter: u64,
    /// Active-state vector of every partition.
    pub active_vectors: Vec<Mask256>,
    /// Occupancy of the CBOX output buffer at suspension time, so a resumed
    /// stream raises its buffer-full interrupt at the same point the
    /// uninterrupted stream would have.
    pub output_buffer_fill: u32,
}

impl Snapshot {
    /// Bytes the snapshot occupies in memory (what suspension writes out):
    /// the symbol counter, the output-buffer occupancy, and one 256-bit
    /// vector per partition.
    pub fn size_bytes(&self) -> usize {
        8 + 4 + self.active_vectors.len() * 32
    }
}

/// A run rejected its inputs before touching any fabric state.
///
/// These conditions are reachable from the public API with well-formed
/// programs — e.g. resuming a [`Snapshot`] taken from a *different*
/// program — so they surface as typed errors rather than panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// The resume snapshot's vector count does not match this fabric's
    /// partition count (a suspend image resumed against another program).
    SnapshotMismatch {
        /// Active vectors the snapshot carries.
        snapshot_vectors: usize,
        /// Partitions this fabric drives.
        fabric_partitions: usize,
    },
    /// A correction's true entry state does not contain the always-armed
    /// start vectors, so it cannot be the exit image of a run of this
    /// fabric.
    EntryMissingStarts {
        /// First partition whose entry vector lacks a `start_all` bit.
        partition: usize,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::SnapshotMismatch { snapshot_vectors, fabric_partitions } => write!(
                f,
                "resume snapshot carries {snapshot_vectors} active vectors but this fabric \
                 drives {fabric_partitions} partitions (was it taken from another program?)"
            ),
            RunError::EntryMissingStarts { partition } => write!(
                f,
                "correction entry state lacks the always-armed start vector of partition \
                 {partition}: not an exit image of this fabric"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Compiled execution state for one bitstream.
///
/// # Examples
///
/// Programs are normally produced by `ca-compiler`; driving the fabric is
/// then two lines:
///
/// ```no_run
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let bitstream: ca_sim::Bitstream = unimplemented!();
/// use ca_sim::Fabric;
/// let mut fabric = Fabric::new(&bitstream)?;
/// let report = fabric.run(b"stream of input symbols");
/// println!("{} matches", report.events.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Fabric {
    tables: Arc<Tables>,
    telemetry: Telemetry,
    scratch: Scratch,
}

/// Everything a fabric instance owns for itself. Invariants between runs:
/// `next` all-zero, `on_next` all false, every `code_epoch` stamp strictly
/// below `epoch + 1`.
#[derive(Debug, Clone)]
struct Scratch {
    enabled: Vec<Mask256>,
    next: Vec<Mask256>,
    active: Vec<u32>,
    touched: Vec<u32>,
    visit: Vec<u32>,
    on_next: Vec<bool>,
    code_epoch: Vec<u64>,
    epoch: u64,
    /// Cycles of the most recent run that took the sequential sweep.
    sweep_cycles: u64,
}

/// The read-only configuration of one bitstream, compiled by
/// [`Fabric::new`] and shared by every clone of the fabric it returns.
#[derive(Debug)]
struct Tables {
    /// Per-partition 256-row SRAM images: `rows[p][symbol]`.
    rows: Vec<Vec<Mask256>>,
    /// Per-partition per-STE local destinations.
    local: Vec<Vec<Mask256>>,
    /// `local[p]` decomposed into a hold mask and masked shifts — the
    /// form the sweep applies.
    switch: Vec<LocalSwitch>,
    /// Per-partition import-port destinations.
    import_dest: Vec<Vec<Mask256>>,
    start_all: Vec<Mask256>,
    start_sod: Vec<Mask256>,
    report_mask: Vec<Mask256>,
    /// Dense per-column report table: `report_code[p][col]` holds the code
    /// plus its index into the fabric-wide code set (the per-symbol dedup
    /// scratch). Only columns set in `report_mask[p]` are meaningful;
    /// [`Bitstream::validate`] guarantees mask and table stay consistent,
    /// which is what lets the hot loop index without a reachable panic.
    report_code: Vec<Vec<(ReportCode, u32)>>,
    routes: Vec<Route>,
    /// Route indices grouped by source partition: phase 3 visits only the
    /// routes of partitions that matched this cycle.
    routes_by_src: Vec<Vec<u32>>,
    /// Partitions with a non-zero `start_all` vector, ascending — the only
    /// partitions the per-cycle re-arm can wake.
    armed: Vec<u32>,
    /// `start_candidates[b]`: partitions whose always-armed start states
    /// can match symbol `b` (`start_all[p] & rows[p][b] != 0`), ascending.
    /// An idle armed partition (enabled == start_all) can only produce
    /// work on a symbol listed here, which is what lets the hot loop skip
    /// it entirely on every other symbol.
    start_candidates: Vec<Vec<u32>>,
}

impl Tables {
    /// Rejects an image whose vector count is not this fabric's partition
    /// count (a suspend image taken from another program).
    fn check_shape(&self, image: &Snapshot) -> Result<(), RunError> {
        if image.active_vectors.len() == self.rows.len() {
            return Ok(());
        }
        Err(RunError::SnapshotMismatch {
            snapshot_vectors: image.active_vectors.len(),
            fabric_partitions: self.rows.len(),
        })
    }
}

/// One run's accumulating outputs: opened by [`Scratch::enter`], threaded
/// through [`Scratch::scan_partition`], closed by [`Scratch::exit`].
struct Run {
    collect_entries: bool,
    /// Symbol counter at entry (non-zero when resuming).
    base_counter: u64,
    output_buffer_fill: usize,
    stats: ExecStats,
    events: Vec<MatchEvent>,
    entries: Vec<OutputEntry>,
    /// Partitions whose `next` received a transition this cycle (the
    /// fabric's scratch list, on loan for the run).
    touched: Vec<u32>,
}

impl Run {
    /// One activity-snapshot gauge batch at stream position `pos`.
    fn emit_snapshot(&self, telemetry: &Telemetry, pos: u64, active_partitions: u64) {
        let gauge = |name, value: u64| telemetry.gauge(name, pos, value as f64);
        gauge("fabric.active_partitions", active_partitions);
        gauge("fabric.g1_signals", self.stats.g1_signals);
        gauge("fabric.g4_signals", self.stats.g4_signals);
        // Cumulative from the stream origin (`pos`, not the chunk offset):
        // a chunked session's refill gauge keeps climbing across feed()
        // boundaries instead of re-zeroing under a monotone x-axis.
        gauge("fabric.fifo_refills", pos / FIFO_REFILL_BYTES as u64);
        gauge("fabric.output_buffer_fill", self.output_buffer_fill as u64);
    }
}

/// Merges two ascending partition lists into `out`, ascending and
/// deduplicated — a cycle's visit list.
#[inline]
fn merge_ascending(out: &mut Vec<u32>, a: &[u32], b: &[u32]) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl Scratch {
    /// Opens a run: loads the entry image into `enabled` — a resume image,
    /// or the start-of-data plus all-input vectors for a fresh stream —
    /// and returns the run's empty accumulators.
    fn enter(&mut self, t: &Tables, options: &RunOptions) -> Result<Run, RunError> {
        let (base_counter, output_buffer_fill) = match &options.resume {
            Some(snapshot) => {
                t.check_shape(snapshot)?;
                self.enabled.copy_from_slice(&snapshot.active_vectors);
                (snapshot.symbol_counter, snapshot.output_buffer_fill as usize)
            }
            None => {
                for (p, vector) in self.enabled.iter_mut().enumerate() {
                    *vector = t.start_sod[p].or(&t.start_all[p]);
                }
                (0, 0)
            }
        };
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        self.sweep_cycles = 0;
        Ok(Run {
            collect_entries: options.collect_entries,
            base_counter,
            output_buffer_fill,
            stats: ExecStats { per_partition_active: vec![0; t.rows.len()], ..Default::default() },
            events: Vec::new(),
            entries: Vec::new(),
            touched,
        })
    }

    /// Closes a run over `processed` symbols: whole-run counters and the
    /// exit image.
    fn exit(&mut self, run: Run, processed: usize) -> ExecReport {
        self.touched = run.touched;
        let mut stats = run.stats;
        stats.symbols = processed as u64;
        stats.cycles = if processed == 0 { 0 } else { processed as u64 + PIPELINE_FILL_CYCLES };
        stats.fifo_refills = processed.div_ceil(FIFO_REFILL_BYTES) as u64;
        let snapshot = Snapshot {
            symbol_counter: run.base_counter + processed as u64,
            active_vectors: self.enabled.clone(),
            output_buffer_fill: run.output_buffer_fill as u32,
        };
        ExecReport { events: run.events, stats, entries: run.entries, snapshot: Some(snapshot) }
    }

    /// One partition's phases 1–3 for one cycle: state-match, report
    /// extraction, local switch, then the global routes sourced at this
    /// partition — reusing the match vector the dense loop recomputed
    /// once per route. Shared by the sparse visit walk (`SPARSE`) and the
    /// sequential sweep, which differ in two places: only the sparse walk
    /// keeps `touched`/`on_next` (the sweep rebuilds the hot list from a
    /// full materialize pass), and only the sweep applies the local
    /// switch in its bit-parallel form (module docs have the reason).
    /// Both compute the same `next`.
    #[inline(always)]
    fn scan_partition<const SPARSE: bool>(
        &mut self,
        t: &Tables,
        run: &mut Run,
        p: usize,
        symbol: u8,
        pos: u64,
        epoch: u64,
    ) {
        let matched = self.enabled[p].and(&t.rows[p][symbol as usize]);
        if matched.is_zero() {
            return;
        }
        run.stats.matched_total += matched.count() as u64;
        // reports
        let reporting = matched.and(&t.report_mask[p]);
        for col in reporting.iter() {
            let (code, code_idx) = t.report_code[p][col as usize];
            if run.collect_entries {
                run.entries.push(OutputEntry {
                    partition: p as u32,
                    column: col,
                    symbol,
                    symbol_counter: pos,
                    code,
                });
            }
            if self.code_epoch[code_idx as usize] != epoch {
                self.code_epoch[code_idx as usize] = epoch;
                run.events.push(MatchEvent::new(pos, code));
                run.stats.reports += 1;
                run.output_buffer_fill += 1;
                if run.output_buffer_fill >= OUTPUT_BUFFER_ENTRIES {
                    run.stats.output_interrupts += 1;
                    run.output_buffer_fill = 0;
                }
            }
        }
        // local switch
        if SPARSE {
            // zero rows neither change `next` nor may mark the partition
            // touched — the touch list stays exact
            for s in matched.iter() {
                let row = &t.local[p][s as usize];
                if !row.is_zero() {
                    self.next[p].or_assign(row);
                    if !self.on_next[p] {
                        self.on_next[p] = true;
                        run.touched.push(p as u32);
                    }
                }
            }
        } else {
            self.next[p].or_assign(&t.switch[p].apply(&t.local[p], &matched));
        }
        // global-switch routes sourced at this partition
        for &ri in &t.routes_by_src[p] {
            let r = &t.routes[ri as usize];
            if !matched.get(r.src_ste) {
                continue;
            }
            match r.via {
                RouteVia::G1 => run.stats.g1_signals += 1,
                RouteVia::G4 => run.stats.g4_signals += 1,
            }
            let dst = r.dst_partition as usize;
            let dest_mask = t.import_dest[dst][r.dst_port as usize];
            if !dest_mask.is_zero() {
                self.next[dst].or_assign(&dest_mask);
                if SPARSE && !self.on_next[dst] {
                    self.on_next[dst] = true;
                    run.touched.push(r.dst_partition);
                }
            }
        }
    }
}

impl Fabric {
    /// Validates a bitstream and compiles its lookup tables — the only
    /// place they are built. Further instances for the same bitstream are
    /// clones of this one: they share the tables and own only scratch.
    ///
    /// # Errors
    ///
    /// Propagates [`Bitstream::validate`] failures.
    pub fn new(bitstream: &Bitstream) -> Result<Fabric, BitstreamError> {
        bitstream.validate()?;
        let n = bitstream.partitions.len();
        // Fabric-wide report-code set: the per-symbol dedup is an
        // epoch-stamped slot per distinct code instead of a linear scan.
        let mut code_set: Vec<ReportCode> = bitstream
            .partitions
            .iter()
            .flat_map(|p| p.reports.iter().map(|&(_, code)| code))
            .collect();
        code_set.sort_unstable();
        code_set.dedup();
        let mut rows = Vec::with_capacity(n);
        let mut local = Vec::with_capacity(n);
        let mut switch = Vec::with_capacity(n);
        let mut import_dest = Vec::with_capacity(n);
        let mut start_all = Vec::with_capacity(n);
        let mut start_sod = Vec::with_capacity(n);
        let mut report_mask = Vec::with_capacity(n);
        let mut report_code = Vec::with_capacity(n);
        for p in &bitstream.partitions {
            rows.push(p.sram_rows());
            local.push(p.local.clone());
            switch.push(LocalSwitch::build(&p.local));
            import_dest.push(p.import_dest.clone());
            start_all.push(p.start_all);
            start_sod.push(p.start_sod);
            let mut mask = Mask256::ZERO;
            let mut codes = vec![(ReportCode(0), 0u32); p.labels.len()];
            for &(col, code) in &p.reports {
                mask.set(col);
                let idx = code_set.binary_search(&code).expect("code set covers every report");
                codes[col as usize] = (code, idx as u32);
            }
            report_mask.push(mask);
            report_code.push(codes);
        }
        let mut routes_by_src: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, r) in bitstream.routes.iter().enumerate() {
            routes_by_src[r.src_partition as usize].push(i as u32);
        }
        let armed =
            (0..n).filter(|&p| !start_all[p].is_zero()).map(|p| p as u32).collect::<Vec<u32>>();
        let mut start_candidates: Vec<Vec<u32>> = vec![Vec::new(); 256];
        for &p in &armed {
            let pu = p as usize;
            for (b, candidates) in start_candidates.iter_mut().enumerate() {
                if !start_all[pu].and(&rows[pu][b]).is_zero() {
                    candidates.push(p);
                }
            }
        }
        let tables = Tables {
            rows,
            local,
            switch,
            import_dest,
            start_all,
            start_sod,
            report_mask,
            report_code,
            routes: bitstream.routes.clone(),
            routes_by_src,
            armed,
            start_candidates,
        };
        let scratch = Scratch {
            enabled: vec![Mask256::ZERO; n],
            next: vec![Mask256::ZERO; n],
            active: Vec::with_capacity(n),
            touched: Vec::with_capacity(n),
            visit: Vec::with_capacity(n),
            on_next: vec![false; n],
            code_epoch: vec![0; code_set.len()],
            epoch: 0,
            sweep_cycles: 0,
        };
        Ok(Fabric { tables: Arc::new(tables), telemetry: Telemetry::disabled(), scratch })
    }

    /// Number of partitions the fabric drives.
    pub fn partition_count(&self) -> usize {
        self.tables.rows.len()
    }

    /// Whether `other` scans over the very table set this instance does —
    /// true exactly for clones descending from one [`Fabric::new`].
    pub fn shares_tables(&self, other: &Fabric) -> bool {
        Arc::ptr_eq(&self.tables, &other.tables)
    }

    /// Symbols of the most recent [`run_with`](Fabric::run_with) that took
    /// the sequential sweep; the rest took the sparse visit walk. The two
    /// modes apply the local switch differently, so a differential test
    /// reads this to show that its inputs drove both.
    pub fn sweep_cycles(&self) -> u64 {
        self.scratch.sweep_cycles
    }

    /// Routes activity snapshots (a gauge batch every
    /// [`TELEMETRY_SNAPSHOT_INTERVAL`] symbols) to `telemetry`. The default
    /// is the disabled handle, which costs one hoisted branch per run.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Runs the fabric over `input`, returning matches and statistics.
    pub fn run(&mut self, input: &[u8]) -> ExecReport {
        match self.run_with(input, &RunOptions::default()) {
            Ok(report) => report,
            // Fresh options carry no resume image — the only rejectable
            // input — so this arm is statically unreachable.
            Err(e) => unreachable!("fresh run rejected: {e}"),
        }
    }

    /// Runs the fabric while writing a per-cycle text trace to `sink`:
    /// one line per symbol listing the matched STEs of every active
    /// partition and any reports — the debugging view a released simulator
    /// needs (VASim offers the equivalent).
    ///
    /// # Errors
    ///
    /// Propagates write failures from `sink`; a rejected resume snapshot
    /// ([`RunError`]) surfaces as [`std::io::ErrorKind::InvalidInput`].
    pub fn run_traced<W: std::io::Write>(
        &mut self,
        input: &[u8],
        options: &RunOptions,
        sink: &mut W,
    ) -> std::io::Result<ExecReport> {
        // Trace by re-simulating cycle windows of 1 symbol: simple, slow,
        // and guaranteed consistent with run_with (which it reuses). The
        // zero-length run validates the resume image and yields the report
        // an empty input must return: entry image, zeroed counters.
        let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        let mut combined = self.run_with(&[], options).map_err(invalid)?;
        let base = combined.snapshot.as_ref().map_or(0, |s| s.symbol_counter);
        for (i, &symbol) in input.iter().enumerate() {
            let step_opts = RunOptions { resume: combined.snapshot.take(), collect_entries: true };
            let step = self.run_with(std::slice::from_ref(&symbol), &step_opts).map_err(invalid)?;
            let printable = if symbol.is_ascii_graphic() { symbol as char } else { '.' };
            write!(sink, "cycle {:>6} sym 0x{symbol:02x} '{printable}' |", base + i as u64)?;
            for (p, &n) in step.stats.per_partition_active.iter().enumerate() {
                if n > 0 {
                    write!(sink, " p{p}")?;
                }
            }
            if !step.entries.is_empty() {
                write!(sink, " | reports:")?;
                for e in &step.entries {
                    write!(sink, " {}@p{}c{}", e.code, e.partition, e.column)?;
                }
            }
            writeln!(sink)?;
            combined.events.extend(step.events);
            if options.collect_entries {
                combined.entries.extend(step.entries);
            }
            combined.stats.absorb_activity(&step.stats);
            combined.snapshot = step.snapshot;
        }
        // Cycles and refills are whole-stream quantities: the per-step
        // values charge the pipeline fill and round refills up once per
        // single-symbol window.
        if !input.is_empty() {
            combined.stats.cycles = combined.stats.symbols + PIPELINE_FILL_CYCLES;
        }
        combined.stats.fifo_refills = input.len().div_ceil(FIFO_REFILL_BYTES) as u64;
        Ok(combined)
    }

    /// Runs the fabric with explicit [`RunOptions`] (resume, output-entry
    /// collection, output-buffer backpressure).
    ///
    /// Per symbol this loop costs O(hot partitions + start-matching
    /// partitions + matched routes). Arming is *implicit*: an idle armed
    /// partition holds exactly its baseline vector (`start_all`) and is
    /// never visited or reset — the
    /// hot list tracks only partitions whose vector *differs* from that
    /// baseline, and each cycle visits the hot list merged with the
    /// precomputed `start_candidates[symbol]` (the only idle partitions
    /// whose start states can match this symbol). `next[p]` is reset only
    /// for partitions touched this cycle, global routes are indexed by
    /// source partition so phase 3 reuses the match vector phase 1
    /// already computed, and the dense loop's per-partition activity
    /// counters are recovered analytically (armed partitions are active
    /// every cycle once the stream is underway). When a cycle's visit
    /// list would cover a third or more of the fabric the loop switches
    /// (with hysteresis) to a dense-style sequential sweep of all
    /// partitions, so high-activity inputs keep the dense loop's
    /// streaming memory behaviour instead of paying for sparsity that
    /// isn't there. The sweep also applies each partition's local switch
    /// bit-parallel (a hold mask, at most three masked shifts and a row
    /// walk over its exception columns — see the module docs), so a
    /// saturated cycle costs per partition, not per matched state.
    /// Behaviour is bit-identical to the dense reference loop
    /// ([`Fabric::run_dense`]) in every mode, including every
    /// [`ExecStats`] counter.
    ///
    /// # Errors
    ///
    /// [`RunError::SnapshotMismatch`] if a resume snapshot's vector count
    /// does not match this fabric's partition count.
    pub fn run_with(&mut self, input: &[u8], options: &RunOptions) -> Result<ExecReport, RunError> {
        let Fabric { tables, telemetry, scratch } = self;
        let t: &Tables = tables;
        let n = t.rows.len();
        let mut run = scratch.enter(t, options)?;

        // Build the entry hot list with the run's single O(n) scan: every
        // partition whose vector differs from its baseline (`start_all`).
        // From here on it stays exact — a partition off the list holds
        // exactly its baseline, so only a start-candidate symbol can make
        // it do anything. `entry_deficit` collects armed partitions
        // resuming with an all-zero vector (a hand-built image): they are
        // hot but *inactive* on the entry cycle, which the analytic
        // activity accounting below must discount.
        let mut active = std::mem::take(&mut scratch.active);
        let mut visit = std::mem::take(&mut scratch.visit);
        active.clear();
        let mut entry_deficit: Vec<u32> = Vec::new();
        for (p, vector) in scratch.enabled.iter().enumerate() {
            if *vector != t.start_all[p] {
                active.push(p as u32);
                if vector.is_zero() {
                    entry_deficit.push(p as u32);
                }
            }
        }
        let armed_count = t.armed.len() as u64;
        let has_unarmed = t.armed.len() < n;
        // True while `next` holds a sweep cycle's superseded vectors
        // instead of all-zero scratch.
        let mut next_dirty = false;

        let processed = input.len();
        // Hoisted so the disabled path pays one predictable branch per
        // symbol and never reaches the snapshot arithmetic.
        let telemetry_on = telemetry.is_enabled();
        for (rel_pos, &symbol) in input.iter().enumerate() {
            // Activity accounting, analytically. A partition is active
            // (non-zero vector) this cycle iff it is armed — baseline
            // `start_all` — or an unarmed hot member (guaranteed non-zero
            // once hot). The one exception is the entry cycle, where an
            // armed partition can resume with an all-zero vector. With
            // every partition armed (typical for literal rulesets) the
            // unarmed-hot walk has nothing to count and is skipped.
            let mut hot_unarmed = 0u64;
            if has_unarmed {
                for &pu in &active {
                    let p = pu as usize;
                    if t.start_all[p].is_zero() {
                        hot_unarmed += 1;
                        run.stats.per_partition_active[p] += 1;
                    }
                }
            }
            let deficit = if rel_pos == 0 { entry_deficit.len() as u64 } else { 0 };
            let cycle_active = armed_count + hot_unarmed - deficit;
            run.stats.active_partition_cycles += cycle_active;
            let pos = run.base_counter + rel_pos as u64;
            if telemetry_on && pos.is_multiple_of(TELEMETRY_SNAPSHOT_INTERVAL) {
                run.emit_snapshot(telemetry, pos, cycle_active);
            }
            scratch.epoch += 1;
            let epoch = scratch.epoch;
            // The cycle's visit list: the hot partitions merged (sorted,
            // deduplicated) with the idle-armed partitions whose start
            // states can match this symbol. Any partition outside the
            // merge holds exactly its baseline and its baseline cannot
            // match `symbol`, so it produces no matches, no reports and
            // no transitions — skipping it is exact. When the merge would
            // cover a third or more of the fabric, sweep every partition
            // in order instead: the sequential pass costs less per
            // partition than the merge's random access, and visiting a
            // partition that holds a non-matching baseline is a no-op, so
            // the sweep is just as exact. Either way partitions are
            // visited ascending — the dense loop's iteration order, so
            // events and entries come out identically.
            let candidates: &[u32] = &t.start_candidates[symbol as usize];
            // Hysteresis: entering sweep mode is cheap, leaving it
            // costs an O(n) re-zero of `next` — so only drop back to the
            // sparse walk once coverage falls to half the entry bar.
            let coverage = (active.len() + candidates.len()) * 3;
            let sweep = if next_dirty { coverage * 2 >= n } else { coverage >= n };
            if sweep {
                // Dense-style phase 0: prefill `next` with every
                // partition's baseline (one streaming copy), let the
                // body OR transitions on top, and swap buffers at the
                // end of the cycle. `next` is left holding the
                // superseded vectors — the dirty flag below makes the
                // next sparse cycle (or the run exit) restore the
                // all-zero scratch invariant.
                scratch.next.copy_from_slice(&t.start_all);
                next_dirty = true;
                scratch.sweep_cycles += 1;
                for p in 0..n {
                    scratch.scan_partition::<false>(t, &mut run, p, symbol, pos, epoch);
                }
                // The baseline prefill means an untouched partition's
                // `next` already IS its fallback state, so the swap
                // materializes everything at once; one streaming compare
                // pass rebuilds the hot list in ascending order.
                std::mem::swap(&mut scratch.enabled, &mut scratch.next);
                active.clear();
                for p in 0..n {
                    if scratch.enabled[p] != t.start_all[p] {
                        active.push(p as u32);
                    }
                }
                continue;
            }
            if next_dirty {
                scratch.next.fill(Mask256::ZERO);
                next_dirty = false;
            }
            merge_ascending(&mut visit, &active, candidates);
            for &pu in &visit {
                scratch.scan_partition::<true>(t, &mut run, pu as usize, symbol, pos, epoch);
            }
            // End of cycle. Hot partitions that received no transition
            // fall back to their baseline (idle again); touched partitions
            // materialize `next | start_all` in place, hand `next` back to
            // the all-zero scratch pool, and stay hot only if the result
            // differs from their baseline. No full-array swap: `enabled`
            // always holds complete absolute state, so snapshots stay
            // exact.
            for &pu in &active {
                let p = pu as usize;
                if !scratch.on_next[p] {
                    scratch.enabled[p] = t.start_all[p];
                }
            }
            active.clear();
            // The touch list, sorted, keeps the hot list ascending.
            run.touched.sort_unstable();
            for &pu in &run.touched {
                let p = pu as usize;
                scratch.on_next[p] = false;
                let baseline = t.start_all[p];
                let full = scratch.next[p].or(&baseline);
                scratch.enabled[p] = full;
                scratch.next[p] = Mask256::ZERO;
                if full != baseline {
                    active.push(pu);
                }
            }
            run.touched.clear();
        }
        // Armed partitions are active on every processed cycle (their
        // vector always covers `start_all` once the stream is underway) —
        // fold that in once, minus the entry-cycle deficit counted above.
        if processed > 0 {
            for &pu in &t.armed {
                run.stats.per_partition_active[pu as usize] += processed as u64;
            }
            for &pu in &entry_deficit {
                run.stats.per_partition_active[pu as usize] -= 1;
            }
        }
        if next_dirty {
            // The final cycle was a sweep: `next` still holds its
            // superseded vectors. Restore the all-zero scratch invariant.
            scratch.next.fill(Mask256::ZERO);
        }
        scratch.active = active;
        scratch.visit = visit;
        Ok(scratch.exit(run, processed))
    }

    /// The original dense O(partitions + routes) per-symbol loop, kept as
    /// the reference implementation: differential tests and the
    /// benchmark's `fabric.run_dense_ns_per_byte` row compare
    /// [`Fabric::run_with`] against it — match streams, entries, snapshots
    /// and every [`ExecStats`] counter must be identical.
    ///
    /// # Errors
    ///
    /// [`RunError::SnapshotMismatch`] if a resume snapshot's vector count
    /// does not match this fabric's partition count.
    pub fn run_dense(
        &mut self,
        input: &[u8],
        options: &RunOptions,
    ) -> Result<ExecReport, RunError> {
        let Fabric { tables, telemetry, scratch } = self;
        let t: &Tables = tables;
        let n = t.rows.len();
        let mut run = scratch.enter(t, options)?;
        let mut seen_codes: Vec<ReportCode> = Vec::new();
        let telemetry_on = telemetry.is_enabled();
        for (rel_pos, &symbol) in input.iter().enumerate() {
            let pos = run.base_counter + rel_pos as u64;
            if telemetry_on && pos.is_multiple_of(TELEMETRY_SNAPSHOT_INTERVAL) {
                let active = scratch.enabled.iter().filter(|m| !m.is_zero()).count();
                run.emit_snapshot(telemetry, pos, active as u64);
            }
            // Phase 1+2 per partition: state-match, then local transition.
            scratch.next.copy_from_slice(&t.start_all);
            seen_codes.clear();
            for p in 0..n {
                if scratch.enabled[p].is_zero() {
                    continue; // partition disabled: no precharge, no access
                }
                run.stats.active_partition_cycles += 1;
                run.stats.per_partition_active[p] += 1;
                let matched = scratch.enabled[p].and(&t.rows[p][symbol as usize]);
                if matched.is_zero() {
                    continue;
                }
                run.stats.matched_total += matched.count() as u64;
                // reports
                let reporting = matched.and(&t.report_mask[p]);
                for col in reporting.iter() {
                    let (code, _) = t.report_code[p][col as usize];
                    if run.collect_entries {
                        run.entries.push(OutputEntry {
                            partition: p as u32,
                            column: col,
                            symbol,
                            symbol_counter: pos,
                            code,
                        });
                    }
                    if !seen_codes.contains(&code) {
                        seen_codes.push(code);
                        run.events.push(MatchEvent::new(pos, code));
                        run.stats.reports += 1;
                        run.output_buffer_fill += 1;
                        if run.output_buffer_fill >= OUTPUT_BUFFER_ENTRIES {
                            run.stats.output_interrupts += 1;
                            run.output_buffer_fill = 0;
                        }
                    }
                }
                // local switch
                for s in matched.iter() {
                    scratch.next[p].or_assign(&t.local[p][s as usize]);
                }
            }
            // Phase 3: global-switch routes (computed against this cycle's
            // match vectors; results land in the next active-state vector).
            for r in &t.routes {
                let src = r.src_partition as usize;
                if scratch.enabled[src].is_zero() {
                    continue;
                }
                let matched = scratch.enabled[src].and(&t.rows[src][symbol as usize]);
                if matched.get(r.src_ste) {
                    match r.via {
                        RouteVia::G1 => run.stats.g1_signals += 1,
                        RouteVia::G4 => run.stats.g4_signals += 1,
                    }
                    let dst = r.dst_partition as usize;
                    let dest_mask = t.import_dest[dst][r.dst_port as usize];
                    scratch.next[dst].or_assign(&dest_mask);
                }
            }
            std::mem::swap(&mut scratch.enabled, &mut scratch.next);
        }
        // Restore the sparse loop's scratch invariant: after the final
        // swap `next` holds the superseded vectors, which may be non-zero.
        scratch.next.fill(Mask256::ZERO);
        Ok(scratch.exit(run, input.len()))
    }

    /// Corrects a mid-stream *guess* run against the true boundary state,
    /// returning exactly the events and activity the guess missed.
    ///
    /// The parallel scan driver runs every stripe after the first from the
    /// [`Fabric::midstream_snapshot`] guess (always-armed starts only).
    /// Once the true entry state is known, this method re-simulates the
    /// stripe evolving the **true** and **guess** active sets side by side
    /// and accumulates per-cycle *differences*: matched STEs, active
    /// partitions, G-switch signals and report events present under the
    /// true entry but absent under the guess. Because the guess entry is a
    /// subset of every true entry (every exit re-arms `start_all`) and the
    /// fabric transition is monotone in the active set, the guess
    /// evolution stays a subset of the true evolution cycle by cycle, so
    /// each difference is non-negative and the guess stats plus these
    /// deltas equal a serial run's stats exactly — including overlap-heavy
    /// workloads, where activity shared by both evolutions is counted once.
    ///
    /// The run exits as soon as the two evolutions converge (equal
    /// vectors evolve identically forever, so every later delta is zero);
    /// `snapshot` is `None` in that case — the caller already holds the
    /// correct exit image from the guess run — and `Some` of the true exit
    /// image when the delta survives to the end of `input`.
    ///
    /// `stats.cycles` counts only the symbols actually reprocessed, with
    /// no pipeline-fill charge: corrections ride the already-filled
    /// pipeline of the stitch pass.
    ///
    /// Like the forward scan, the dual evolution is activity-proportional
    /// with implicit arming: one hot list tracks partitions whose *true*
    /// vector differs from `start_all` (the guess is a pointwise subset
    /// of the true vector and a superset of `start_all`, so off the list
    /// both equal the baseline), each cycle visits it merged with
    /// `start_candidates[symbol]`, and the convergence check walks only
    /// the hot list.
    ///
    /// # Errors
    ///
    /// [`RunError::SnapshotMismatch`] if `true_entry` does not match this
    /// fabric's partition count; [`RunError::EntryMissingStarts`] if it
    /// does not contain the always-armed start vectors.
    pub fn run_correction(
        &self,
        input: &[u8],
        true_entry: &Snapshot,
    ) -> Result<ExecReport, RunError> {
        let t = &*self.tables;
        let n = t.rows.len();
        t.check_shape(true_entry)?;
        let mut stats = ExecStats { per_partition_active: vec![0; n], ..Default::default() };
        let mut events = Vec::new();
        let base_counter = true_entry.symbol_counter;

        let mut enabled_true = true_entry.active_vectors.clone();
        let mut enabled_guess: Vec<Mask256> = t.start_all.clone();
        for (p, entry) in enabled_true.iter().enumerate() {
            if entry.and(&t.start_all[p]) != t.start_all[p] {
                return Err(RunError::EntryMissingStarts { partition: p });
            }
        }
        let mut next_true = vec![Mask256::ZERO; n];
        let mut next_guess = vec![Mask256::ZERO; n];
        // `&self` receiver: worklist scratch is per call (one stripe's
        // worth), not shared fabric state. The hot list tracks partitions
        // whose *true* vector differs from the `start_all` baseline;
        // start_all ⊆ guess ⊆ true pins both vectors to the baseline
        // everywhere off the list, so it is exact for both evolutions.
        let mut active: Vec<u32> = Vec::with_capacity(n);
        for (p, vector) in enabled_true.iter().enumerate() {
            if *vector != t.start_all[p] {
                active.push(p as u32);
            }
        }
        let mut touched: Vec<u32> = Vec::with_capacity(n);
        let mut visit: Vec<u32> = Vec::with_capacity(n);
        let mut on_next = vec![false; n];
        // Per-cycle report-code dedup, epoch-stamped per distinct code.
        let mut epoch = 0u64;
        let mut seen_true = vec![0u64; self.scratch.code_epoch.len()];
        let mut seen_guess = vec![0u64; self.scratch.code_epoch.len()];
        let mut true_codes: Vec<(ReportCode, u32)> = Vec::new();

        let mut processed = input.len();
        let mut converged = false;
        for (rel_pos, &symbol) in input.iter().enumerate() {
            // Identical vectors evolve identically: every further delta
            // is zero and the guess exit image is already right. Off the
            // hot list both vectors equal the baseline, so equality over
            // the hot list is equality everywhere.
            if active.iter().all(|&p| enabled_true[p as usize] == enabled_guess[p as usize]) {
                processed = rel_pos;
                converged = true;
                break;
            }
            // Delta activity accounting: partitions only the true
            // evolution wakes. Armed partitions carry start_all in both
            // vectors (never guess-zero); off the hot list the vectors
            // are identical — so only hot members can contribute.
            for &pu in &active {
                let p = pu as usize;
                if enabled_guess[p].is_zero() {
                    stats.active_partition_cycles += 1;
                    stats.per_partition_active[p] += 1;
                }
            }
            let pos = base_counter + rel_pos as u64;
            epoch += 1;
            true_codes.clear();
            // The visit list: hot partitions merged with the idle-armed
            // partitions whose start states can match this symbol — the
            // same implicit-arming argument as the forward scan, applied
            // to both evolutions at once, with the same sequential-sweep
            // fallback once the merge would cover most of the fabric.
            let candidates: &[u32] = &t.start_candidates[symbol as usize];
            let sweep = (active.len() + candidates.len()) * 3 >= n;
            if sweep {
                visit.clear();
                visit.extend(0..n as u32);
            } else {
                merge_ascending(&mut visit, &active, candidates);
            }
            for &pu in &visit {
                let p = pu as usize;
                let matched_true = enabled_true[p].and(&t.rows[p][symbol as usize]);
                if matched_true.is_zero() {
                    continue;
                }
                let matched_guess = enabled_guess[p].and(&t.rows[p][symbol as usize]);
                stats.matched_total += (matched_true.count() - matched_guess.count()) as u64;
                let reporting_true = matched_true.and(&t.report_mask[p]);
                for col in reporting_true.iter() {
                    let (code, code_idx) = t.report_code[p][col as usize];
                    if seen_true[code_idx as usize] != epoch {
                        seen_true[code_idx as usize] = epoch;
                        true_codes.push((code, code_idx));
                    }
                    if matched_guess.get(col) {
                        seen_guess[code_idx as usize] = epoch;
                    }
                }
                for s in matched_true.iter() {
                    let row = &t.local[p][s as usize];
                    if !row.is_zero() {
                        next_true[p].or_assign(row);
                        if !on_next[p] {
                            on_next[p] = true;
                            touched.push(pu);
                        }
                    }
                }
                // matched_guess ⊆ matched_true: every row OR'd into the
                // guess was OR'd into the true vector above, so the touch
                // list already covers it.
                for s in matched_guess.iter() {
                    next_guess[p].or_assign(&t.local[p][s as usize]);
                }
                // Global-switch routes sourced at this partition, reusing
                // both match vectors.
                for &ri in &t.routes_by_src[p] {
                    let r = &t.routes[ri as usize];
                    if !matched_true.get(r.src_ste) {
                        continue;
                    }
                    let guess_signals = matched_guess.get(r.src_ste);
                    if !guess_signals {
                        match r.via {
                            RouteVia::G1 => stats.g1_signals += 1,
                            RouteVia::G4 => stats.g4_signals += 1,
                        }
                    }
                    let dst = r.dst_partition as usize;
                    let dest_mask = t.import_dest[dst][r.dst_port as usize];
                    if !dest_mask.is_zero() {
                        next_true[dst].or_assign(&dest_mask);
                        if !on_next[dst] {
                            on_next[dst] = true;
                            touched.push(r.dst_partition);
                        }
                        if guess_signals {
                            next_guess[dst].or_assign(&dest_mask);
                        }
                    }
                }
            }
            // The guess run deduplicates report codes per cycle, so the
            // missing events are exactly the codes the true evolution
            // reports this cycle that the guess evolution does not.
            for &(code, code_idx) in &true_codes {
                if seen_guess[code_idx as usize] != epoch {
                    events.push(MatchEvent::new(pos, code));
                    stats.reports += 1;
                }
            }
            // End of cycle: untouched hot partitions fall back to the
            // baseline in both evolutions (no transitions landed, so the
            // dense pair would have re-armed exactly `start_all`);
            // touched partitions materialize `next | start_all` and stay
            // hot only while the true vector differs from the baseline
            // (guess ⊆ true then pins the guess to the baseline too).
            for &pu in &active {
                let p = pu as usize;
                if !on_next[p] {
                    enabled_true[p] = t.start_all[p];
                    enabled_guess[p] = t.start_all[p];
                }
            }
            active.clear();
            // Ascending touch order keeps the hot list ascending; after a
            // sweep the flags give it without sorting most of the fabric.
            if sweep {
                touched.clear();
                touched.extend((0..n as u32).filter(|&p| on_next[p as usize]));
            } else {
                touched.sort_unstable();
            }
            for &pu in &touched {
                let p = pu as usize;
                on_next[p] = false;
                let full_true = next_true[p].or(&t.start_all[p]);
                enabled_true[p] = full_true;
                enabled_guess[p] = next_guess[p].or(&t.start_all[p]);
                next_true[p] = Mask256::ZERO;
                next_guess[p] = Mask256::ZERO;
                if full_true != t.start_all[p] {
                    active.push(pu);
                }
            }
            touched.clear();
        }
        stats.symbols = processed as u64;
        stats.cycles = processed as u64; // no fill: rides the stitch pipeline
        let snapshot = (!converged).then(|| Snapshot {
            symbol_counter: base_counter + input.len() as u64,
            active_vectors: enabled_true.clone(),
            output_buffer_fill: 0,
        });
        Ok(ExecReport { events, stats, entries: Vec::new(), snapshot })
    }

    /// Entry-state guess for resuming mid-stream with no history: every
    /// always-armed start STE active, nothing else (§2.9 suspend image of a
    /// stream whose prefix armed no carry-over state).
    ///
    /// The parallel scan driver seeds every stripe after the first with
    /// this image; once the true boundary state is known,
    /// [`Fabric::run_correction`] evolves both entries side by side and
    /// supplies exactly what the guess missed.
    pub fn midstream_snapshot(&self, symbol_counter: u64) -> Snapshot {
        let active_vectors = self.tables.start_all.clone();
        Snapshot { symbol_counter, active_vectors, output_buffer_fill: 0 }
    }

    /// Per-partition always-armed start vectors (the midstream entry guess).
    pub fn start_all_vectors(&self) -> &[Mask256] {
        &self.tables.start_all
    }

    /// Restores all mutable scratch to its post-construction state, so a
    /// long-lived instance starts its next logical stream exactly as a
    /// fresh clone would.
    ///
    /// A completed [`run_with`](Fabric::run_with) already re-establishes
    /// the between-run invariants (`next` all-zero, `on_next` all false,
    /// `code_epoch` stamps below `epoch + 1`), so this is cheap O(n)
    /// hygiene: it makes the instance's history — including the monotone
    /// `epoch` — indistinguishable from a fresh build, and keeps a session
    /// abandoned mid-configuration from leaking state into the next one.
    /// The shared tables and the telemetry handle are kept.
    pub fn reset(&mut self) {
        let s = &mut self.scratch;
        s.enabled.fill(Mask256::ZERO);
        s.next.fill(Mask256::ZERO);
        s.active.clear();
        s.touched.clear();
        s.visit.clear();
        s.on_next.fill(false);
        s.code_epoch.fill(0);
        s.epoch = 0;
        s.sweep_cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::PartitionImage;
    use crate::geometry::{CacheGeometry, DesignKind, PartitionLocation};
    use ca_automata::CharClass;

    /// Pattern "ab" in one partition: a (start, col 0) -> b (report, col 1).
    fn single_partition() -> Bitstream {
        let geometry = CacheGeometry::for_design(DesignKind::Performance, 1);
        let mut p = PartitionImage::new(PartitionLocation::from_index(&geometry, 0));
        p.labels = vec![CharClass::byte(b'a'), CharClass::byte(b'b')];
        p.local = vec![[1u8].into_iter().collect(), Mask256::ZERO];
        p.start_all.set(0);
        p.reports.push((1, ReportCode(0)));
        Bitstream { design: DesignKind::Performance, geometry, partitions: vec![p], routes: vec![] }
    }

    /// Pattern "ab" split across two partitions connected via G1:
    /// partition 0 holds 'a' (start), partition 1 holds 'b' (report).
    fn routed_pair() -> Bitstream {
        let geometry = CacheGeometry::for_design(DesignKind::Performance, 1);
        let mut p0 = PartitionImage::new(PartitionLocation::from_index(&geometry, 0));
        p0.labels = vec![CharClass::byte(b'a')];
        p0.local = vec![Mask256::ZERO];
        p0.start_all.set(0);
        let mut p1 = PartitionImage::new(PartitionLocation::from_index(&geometry, 1));
        p1.labels = vec![CharClass::byte(b'b')];
        p1.local = vec![Mask256::ZERO];
        p1.reports.push((0, ReportCode(7)));
        p1.import_dest = vec![[0u8].into_iter().collect()];
        let routes = vec![Route {
            src_partition: 0,
            src_ste: 0,
            via: RouteVia::G1,
            dst_partition: 1,
            dst_port: 0,
        }];
        Bitstream { design: DesignKind::Performance, geometry, partitions: vec![p0, p1], routes }
    }

    #[test]
    fn local_pattern_matches() {
        let mut fabric = Fabric::new(&single_partition()).unwrap();
        let report = fabric.run(b"xxabxxab");
        let positions: Vec<u64> = report.events.iter().map(|e| e.pos).collect();
        assert_eq!(positions, vec![3, 7]);
        assert_eq!(report.stats.reports, 2);
        assert_eq!(report.stats.symbols, 8);
        assert_eq!(report.stats.cycles, 8 + PIPELINE_FILL_CYCLES);
    }

    #[test]
    fn routed_pattern_matches() {
        let mut fabric = Fabric::new(&routed_pair()).unwrap();
        let report = fabric.run(b"zabz");
        assert_eq!(report.events, vec![MatchEvent::new(2, ReportCode(7))]);
        assert_eq!(report.stats.g1_signals, 1, "one 'a' match crosses the G-switch");
        assert_eq!(report.stats.g4_signals, 0);
    }

    #[test]
    fn partition_disabling_tracks_activity() {
        let mut fabric = Fabric::new(&routed_pair()).unwrap();
        let report = fabric.run(b"zzzz");
        // partition 0 (all-input start) is active every cycle; partition 1
        // never becomes active on this input.
        assert_eq!(report.stats.per_partition_active[0], 4);
        assert_eq!(report.stats.per_partition_active[1], 0);
        assert_eq!(report.stats.avg_active_partitions_per_symbol(), 1.0);
        // per-cycle divides by symbols + pipeline fill
        assert_eq!(report.stats.avg_active_partitions_per_cycle(), 4.0 / 6.0);
    }

    #[test]
    fn start_of_data_only_first_cycle() {
        let geometry = CacheGeometry::for_design(DesignKind::Performance, 1);
        let mut p = PartitionImage::new(PartitionLocation::from_index(&geometry, 0));
        p.labels = vec![CharClass::byte(b'a')];
        p.local = vec![Mask256::ZERO];
        p.start_sod.set(0);
        p.reports.push((0, ReportCode(0)));
        let bs = Bitstream {
            design: DesignKind::Performance,
            geometry,
            partitions: vec![p],
            routes: vec![],
        };
        let mut fabric = Fabric::new(&bs).unwrap();
        assert_eq!(fabric.run(b"aa").events.len(), 1);
        assert_eq!(fabric.run(b"ba").events.len(), 0);
    }

    #[test]
    fn reset_recycles_like_a_fresh_build() {
        let bs = routed_pair();
        let mut recycled = Fabric::new(&bs).unwrap();
        // Dirty the scratch: a mid-pattern suspend (carry-over state in
        // `enabled`), a resumed continuation, and a completed run, all of
        // which advance `epoch` and stamp `code_epoch`.
        let suspended = recycled.run(b"za");
        let options = RunOptions { resume: suspended.snapshot, ..Default::default() };
        let _ = recycled.run_with(b"b", &options).unwrap();
        let _ = recycled.run(b"abab");
        recycled.reset();

        let mut fresh = Fabric::new(&bs).unwrap();
        for input in [&b"zabz"[..], b"", b"aaab"] {
            assert_eq!(recycled.run(input), fresh.run(input), "input {input:?}");
        }
    }

    #[test]
    fn fifo_and_output_buffer_stats() {
        let mut fabric = Fabric::new(&single_partition()).unwrap();
        // 130 "ab" pairs = 260 bytes -> 130 reports -> 2 interrupts (64x2)
        let input: Vec<u8> = b"ab".repeat(130);
        let report = fabric.run(&input);
        assert_eq!(report.stats.reports, 130);
        assert_eq!(report.stats.output_interrupts, 2);
        assert_eq!(report.stats.fifo_refills, (260u64).div_ceil(64));
    }

    #[test]
    fn empty_input() {
        let mut fabric = Fabric::new(&single_partition()).unwrap();
        let report = fabric.run(b"");
        assert!(report.events.is_empty());
        assert_eq!(report.stats.cycles, 0);
        assert_eq!(report.stats.avg_active_states_per_symbol(), 0.0);
        assert_eq!(report.stats.avg_active_states_per_cycle(), 0.0);
    }

    #[test]
    fn rejects_invalid_bitstream() {
        let mut bs = single_partition();
        bs.partitions[0].reports.push((9, ReportCode(1)));
        assert!(Fabric::new(&bs).is_err());
    }

    #[test]
    fn rerun_is_reproducible() {
        let mut fabric = Fabric::new(&routed_pair()).unwrap();
        let a = fabric.run(b"abab");
        let b = fabric.run(b"abab");
        assert_eq!(a, b);
    }

    #[test]
    fn suspend_resume_is_transparent() {
        // Splitting a stream at ANY point and resuming from the snapshot
        // must reproduce the single-run match stream exactly (§2.9).
        let bs = single_partition();
        let input = b"xxabxabxxaabbab";
        let full = Fabric::new(&bs).unwrap().run(input);
        for split in 0..=input.len() {
            let mut fabric = Fabric::new(&bs).unwrap();
            let first = fabric.run(&input[..split]);
            let second = fabric
                .run_with(
                    &input[split..],
                    &RunOptions { resume: first.snapshot.clone(), ..Default::default() },
                )
                .unwrap();
            let mut stitched = first.events.clone();
            stitched.extend(second.events.iter().copied());
            assert_eq!(stitched, full.events, "split at {split}");
            assert_eq!(second.snapshot.as_ref().unwrap().symbol_counter, input.len() as u64);
        }
    }

    #[test]
    fn snapshot_size_accounting() {
        let bs = routed_pair();
        let report = Fabric::new(&bs).unwrap().run(b"ab");
        let snap = report.snapshot.unwrap();
        assert_eq!(snap.active_vectors.len(), 2);
        assert_eq!(snap.size_bytes(), 8 + 4 + 64);
    }

    #[test]
    fn resume_carries_output_buffer_fill() {
        // 64 reports fill the buffer exactly once, whether or not the
        // stream is suspended in the middle.
        let bs = single_partition();
        let input: Vec<u8> = b"ab".repeat(OUTPUT_BUFFER_ENTRIES);
        let whole = Fabric::new(&bs).unwrap().run(&input);
        assert_eq!(whole.stats.output_interrupts, 1);
        let mut fabric = Fabric::new(&bs).unwrap();
        let first = fabric.run(&input[..70]);
        assert_eq!(first.snapshot.as_ref().unwrap().output_buffer_fill, 35);
        let second = fabric
            .run_with(&input[70..], &RunOptions { resume: first.snapshot, ..Default::default() })
            .unwrap();
        assert_eq!(
            first.stats.output_interrupts + second.stats.output_interrupts,
            whole.stats.output_interrupts
        );
    }

    #[test]
    fn absorb_activity_sums_counters_but_not_cycles() {
        let bs = single_partition();
        let a = Fabric::new(&bs).unwrap().run(b"abab");
        let b = Fabric::new(&bs).unwrap().run(b"xxab");
        let mut merged = a.stats.clone();
        merged.absorb_activity(&b.stats);
        assert_eq!(merged.symbols, 8);
        assert_eq!(merged.reports, 3);
        assert_eq!(merged.cycles, a.stats.cycles, "cycles are the caller's scheduling decision");
        assert_eq!(merged.per_partition_active[0], 8);
    }

    #[test]
    fn output_entries_carry_cbox_fields() {
        let bs = single_partition();
        let mut fabric = Fabric::new(&bs).unwrap();
        let report = fabric
            .run_with(b"zabz", &RunOptions { collect_entries: true, ..Default::default() })
            .unwrap();
        assert_eq!(report.entries.len(), 1);
        let e = report.entries[0];
        assert_eq!(e.partition, 0);
        assert_eq!(e.column, 1);
        assert_eq!(e.symbol, b'b');
        assert_eq!(e.symbol_counter, 2);
        assert_eq!(e.code, ReportCode(0));
        // entries are off by default
        assert!(fabric.run(b"zabz").entries.is_empty());
    }

    #[test]
    fn traced_run_matches_untraced() {
        // Whole-report equality — events, every counter, entries and the
        // exit image — on a non-empty input, on an empty one, and on both
        // halves of the stream split and resumed at every offset (an empty
        // resumed half must hand the caller's suspend image back).
        let bs = routed_pair();
        let input = b"zabzzabab";
        let mut plain = Fabric::new(&bs).unwrap();
        let mut traced = plain.clone();
        for collect_entries in [false, true] {
            for split in 0..=input.len() {
                let mut resume = None;
                for half in [&input[..split], &input[split..]] {
                    let options = RunOptions { resume: resume.take(), collect_entries };
                    let expected = plain.run_with(half, &options).unwrap();
                    let mut sink = Vec::new();
                    let got = traced.run_traced(half, &options, &mut sink).unwrap();
                    assert_eq!(got, expected, "split {split}, half {half:?}");
                    let lines = String::from_utf8(sink).unwrap().lines().count();
                    assert_eq!(lines, half.len());
                    resume = expected.snapshot;
                }
            }
        }
        let mut sink = Vec::new();
        traced.run_traced(input, &RunOptions::default(), &mut sink).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.contains("sym 0x61 'a'"));
        assert!(text.contains("reports: r7@p1c0"));
    }

    #[test]
    fn clones_share_tables_and_scan_like_a_fresh_build() {
        let bs = routed_pair();
        let mut original = Fabric::new(&bs).unwrap();
        let early = original.clone();
        assert!(original.shares_tables(&early), "a clone copies scratch only");
        // A clone taken mid-life — after a suspended stream, a resumed one
        // and a completed one have dirtied the scratch and advanced the
        // epoch — still scans exactly like a fresh build.
        let suspended = original.run(b"za");
        let options = RunOptions { resume: suspended.snapshot, ..Default::default() };
        let _ = original.run_with(b"b", &options).unwrap();
        let _ = original.run(b"abab");
        let mut late = original.clone();
        assert!(original.shares_tables(&late));
        let mut fresh = Fabric::new(&bs).unwrap();
        assert!(!fresh.shares_tables(&late), "a second build owns its own tables");
        for input in [&b"zabz"[..], b"", b"aaab"] {
            assert_eq!(late.run(input), fresh.run(input), "input {input:?}");
        }
    }

    #[test]
    fn avg_active_states_counts_matches() {
        let mut fabric = Fabric::new(&single_partition()).unwrap();
        let report = fabric.run(b"aaaa");
        // 'a' matches every symbol (col 0); 'b' never.
        assert_eq!(report.stats.matched_total, 4);
        assert_eq!(report.stats.avg_active_states_per_symbol(), 1.0);
        assert_eq!(report.stats.avg_active_states_per_cycle(), 4.0 / 6.0);
    }

    /// Serial truth for resuming `tail` from `true_exit`, against which the
    /// correction tests compare.
    fn resumed_truth(bs: &Bitstream, tail: &[u8], true_exit: &Snapshot) -> ExecReport {
        Fabric::new(bs)
            .unwrap()
            .run_with(tail, &RunOptions { resume: Some(true_exit.clone()), ..Default::default() })
            .unwrap()
    }

    #[test]
    fn correction_reports_exact_deltas() {
        // guess stats + correction stats must equal the serial resumed
        // stats field by field (reports, matches, activity, signals) —
        // the dual evolution counts activity shared by both entries once.
        let bs = routed_pair();
        let head = b"za"; // arms partition 1 via the G1 route
        let tail = b"babz";
        let mut serial = Fabric::new(&bs).unwrap();
        let true_exit = serial.run(head).snapshot.unwrap();
        let truth = resumed_truth(&bs, tail, &true_exit);

        let mut guess_fabric = Fabric::new(&bs).unwrap();
        let guess_entry = guess_fabric.midstream_snapshot(head.len() as u64);
        let guess = guess_fabric
            .run_with(tail, &RunOptions { resume: Some(guess_entry), ..Default::default() })
            .unwrap();
        let correction = Fabric::new(&bs).unwrap().run_correction(tail, &true_exit).unwrap();

        let mut union: Vec<MatchEvent> =
            guess.events.iter().chain(correction.events.iter()).copied().collect();
        union.sort();
        assert_eq!(union, truth.events, "guess ∪ delta must equal truth with no duplicates");
        assert_eq!(
            guess.stats.matched_total + correction.stats.matched_total,
            truth.stats.matched_total
        );
        assert_eq!(guess.stats.reports + correction.stats.reports, truth.stats.reports);
        assert_eq!(
            guess.stats.active_partition_cycles + correction.stats.active_partition_cycles,
            truth.stats.active_partition_cycles
        );
        assert_eq!(guess.stats.g1_signals + correction.stats.g1_signals, truth.stats.g1_signals);
        assert_eq!(guess.stats.g4_signals + correction.stats.g4_signals, truth.stats.g4_signals);
        for p in 0..2 {
            assert_eq!(
                guess.stats.per_partition_active[p] + correction.stats.per_partition_active[p],
                truth.stats.per_partition_active[p],
                "partition {p}"
            );
        }
        // the correction's exit image (when present) is the true exit
        if let Some(snap) = correction.snapshot {
            assert_eq!(snap.active_vectors, truth.snapshot.unwrap().active_vectors);
            assert_eq!(snap.symbol_counter, (head.len() + tail.len()) as u64);
        } else {
            assert_eq!(
                guess.snapshot.unwrap().active_vectors,
                truth.snapshot.unwrap().active_vectors
            );
        }
    }

    #[test]
    fn correction_converges_and_exits_early() {
        // With the single-partition "ab" pattern, a carried 'a' state
        // either reports on the next symbol or dies; the true and guess
        // evolutions converge within two symbols and the correction must
        // stop there instead of rescanning the long tail.
        let bs = single_partition();
        let mut serial = Fabric::new(&bs).unwrap();
        let true_exit = serial.run(b"xa").snapshot.unwrap();
        let mut tail = vec![b'x'; 10_000];
        tail[0] = b'b'; // the carried 'a' completes a match the guess lacks
        let correction = Fabric::new(&bs).unwrap().run_correction(&tail, &true_exit).unwrap();
        assert_eq!(correction.events.len(), 1);
        assert_eq!(correction.events[0].pos, 2);
        assert!(correction.stats.symbols < 8, "converged evolutions must end the rescan");
        assert_eq!(correction.stats.cycles, correction.stats.symbols, "no pipeline-fill charge");
        assert!(correction.snapshot.is_none(), "converged: guess exit image is already correct");
    }

    #[test]
    fn correction_with_identical_entries_is_empty() {
        let bs = single_partition();
        let fabric = Fabric::new(&bs).unwrap();
        let entry = fabric.midstream_snapshot(5);
        let correction = fabric.run_correction(b"ababab", &entry).unwrap();
        assert!(correction.events.is_empty());
        assert_eq!(correction.stats.symbols, 0);
        assert!(correction.snapshot.is_none());
    }

    #[test]
    fn mismatched_snapshot_is_a_typed_error() {
        // A snapshot taken from a 1-partition program resumed against a
        // 2-partition fabric must be rejected, not panic (satellite 1).
        let mut fabric = Fabric::new(&routed_pair()).unwrap();
        let foreign = Fabric::new(&single_partition()).unwrap().run(b"ab").snapshot.unwrap();
        let err = fabric
            .run_with(b"ab", &RunOptions { resume: Some(foreign.clone()), ..Default::default() })
            .unwrap_err();
        assert_eq!(err, RunError::SnapshotMismatch { snapshot_vectors: 1, fabric_partitions: 2 });
        assert!(err.to_string().contains("another program"), "{err}");
        let err = fabric.run_correction(b"ab", &foreign).unwrap_err();
        assert!(matches!(err, RunError::SnapshotMismatch { .. }));
        let err = fabric
            .run_dense(b"ab", &RunOptions { resume: Some(foreign), ..Default::default() })
            .unwrap_err();
        assert!(matches!(err, RunError::SnapshotMismatch { .. }));
        // the fabric stays usable after a rejected run
        assert_eq!(fabric.run(b"zabz").events.len(), 1);
    }

    #[test]
    fn correction_entry_without_starts_is_a_typed_error() {
        let fabric = Fabric::new(&single_partition()).unwrap();
        let entry = Snapshot {
            symbol_counter: 0,
            active_vectors: vec![Mask256::ZERO],
            output_buffer_fill: 0,
        };
        let err = fabric.run_correction(b"ab", &entry).unwrap_err();
        assert_eq!(err, RunError::EntryMissingStarts { partition: 0 });
        assert!(err.to_string().contains("partition 0"), "{err}");
    }

    #[test]
    fn dense_reference_agrees_with_worklist_loop() {
        for bs in [single_partition(), routed_pair()] {
            let input = b"zababzzabzabbbaz";
            let sparse = Fabric::new(&bs).unwrap().run(input);
            let dense = Fabric::new(&bs).unwrap().run_dense(input, &RunOptions::default()).unwrap();
            assert_eq!(sparse, dense, "reports, stats, entries and snapshot must be identical");
        }
    }

    #[test]
    fn dense_and_sparse_runs_interleave_on_one_fabric() {
        // run_dense leaves the scratch invariants the worklist loop
        // depends on (`next` all-zero), so the two can alternate freely.
        let mut fabric = Fabric::new(&routed_pair()).unwrap();
        let a = fabric.run_dense(b"zababz", &RunOptions::default()).unwrap();
        let b = fabric.run(b"zababz");
        assert_eq!(a.events, b.events);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.snapshot, b.snapshot);
    }
}
