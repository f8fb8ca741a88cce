//! Multi-stream scan service: many logical streams over few workers.
//!
//! Everything built below the serving layer scans *one* stream per call —
//! [`Program::run`], [`Scanner`](crate::Scanner) sessions, the sharded
//! parallel driver. A service front-end has the opposite shape: thousands
//! of concurrent logical streams, each trickling in chunks, multiplexed
//! over a machine with a handful of cores. [`ScanPool`] closes that gap:
//!
//! - **M streams over N workers.** Clients open any number of
//!   [`StreamHandle`]s; a fixed set of worker threads services them.
//! - **One fabric per worker, one table set per program.** Each worker
//!   owns a [`Fabric`] — per-stream scratch over the lookup tables every
//!   scan of the [`Program`] shares — for its whole life. Between batches a
//!   stream's state lives in its compact [`Snapshot`](ca_sim::Snapshot)
//!   (paper §2.9), so a worker's fabric serves one stream's batch and
//!   moves on to any other stream.
//! - **Bounded queues with backpressure.** [`StreamHandle::feed`] blocks
//!   once [`PoolOptions::queue_bytes`] are buffered, so a fast producer
//!   cannot balloon memory.
//! - **Deficit-round-robin scheduling.** Ready streams are serviced in a
//!   ring; each service grants [`PoolOptions::quantum`] bytes of credit,
//!   so a hot stream with a deep queue cannot starve the others.
//! - **Typed errors, no cross-thread panics.** A worker panic is caught,
//!   converted to [`CaError::Internal`] on the stream that hit it, and the
//!   worker replaces its (possibly corrupt) fabric before the next batch;
//!   every other stream keeps running.
//!
//! Per-stream results are exact: the matches and
//! [`ExecStats`](ca_sim::ExecStats) a stream observes are bit-identical to
//! running its chunks through a dedicated [`Scanner`](crate::Scanner)
//! session, whatever the interleaving — both advance and finish the same
//! session core (`session.rs`), and activity counters are
//! chunking-invariant.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cache_automaton::{CacheAutomaton, PoolOptions, ScanPool};
//!
//! let program = CacheAutomaton::new().compile_patterns(&["spain"])?;
//! let pool = ScanPool::new(&program, PoolOptions { workers: 2, ..PoolOptions::default() })?;
//! let mut a = pool.open_stream()?;
//! let mut b = pool.open_stream()?;
//! a.feed(b"the rain in sp")?;
//! b.feed(b"no match here")?;
//! a.feed(b"ain")?;
//! assert_eq!(a.finish()?.matches.len(), 1);
//! assert_eq!(b.finish()?.matches.len(), 0);
//! pool.shutdown()?;
//! # Ok(())
//! # }
//! ```

pub mod cache_server;
pub mod daemon;
pub(crate) mod net;
pub mod proto;

use crate::session::SessionCore;
use crate::{join_panic_to_internal, CaError, MatchEvent, Program, RunReport, Session};
use ca_sim::Fabric;
use ca_telemetry::Telemetry;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Configuration of a [`ScanPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolOptions {
    /// Worker threads servicing stream batches. Must be at least 1.
    pub workers: usize,
    /// Per-stream buffered-byte bound; [`StreamHandle::feed`] blocks while
    /// a stream already holds this much unprocessed input.
    pub queue_bytes: usize,
    /// Deficit-round-robin quantum: byte credit a stream earns per
    /// service. Small values interleave finely; large values amortize
    /// scheduling overhead.
    pub quantum: usize,
}

impl Default for PoolOptions {
    fn default() -> PoolOptions {
        PoolOptions { workers: 1, queue_bytes: 1 << 20, quantum: 64 << 10 }
    }
}

/// Lifecycle of the pool as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    /// Accepting streams and input.
    #[default]
    Running,
    /// No new streams or input; queued work is still being processed.
    Draining,
    /// Queued work was discarded; unfinished streams report an error.
    Aborted,
}

/// Per-stream mutable state, owned by the pool's mutex.
#[derive(Debug, Default)]
struct StreamState {
    /// Unprocessed input chunks, oldest first.
    queue: VecDeque<Vec<u8>>,
    /// Total bytes across `queue` (the backpressure metric).
    queued_bytes: usize,
    /// Deficit-round-robin byte credit carried between services.
    deficit: usize,
    /// The stream's session: suspend image carrying fabric state between
    /// batches (§2.9), events, delivery cursor, accumulated activity.
    core: SessionCore,
    /// A worker is currently running a batch of this stream.
    running: bool,
    /// The stream sits in the ready ring.
    scheduled: bool,
    /// First failure that hit this stream (reported at the next call).
    error: Option<CaError>,
}

/// Pool state behind one mutex: streams and the DRR ring.
#[derive(Debug, Default)]
struct Inner {
    streams: BTreeMap<u64, StreamState>,
    /// Stream ids with queued work, in service order (the DRR ring).
    ready: VecDeque<u64>,
    /// Workers scanning a batch right now (the occupancy gauge).
    scanning: usize,
    next_id: u64,
    mode: Mode,
}

struct Shared {
    program: Program,
    telemetry: Telemetry,
    options: PoolOptions,
    inner: Mutex<Inner>,
    /// Wakes workers: ready work or a mode change.
    work_cv: Condvar,
    /// Wakes feeders blocked on a full stream queue.
    space_cv: Condvar,
    /// Wakes `finish` waiters when a stream's pending work completes.
    done_cv: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A worker panicking while holding the lock is already converted
        // to a typed stream error before the lock is released, so poisoning
        // carries no extra information — recover the guard.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on one of the pool's condition variables (same poison policy).
    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    fn emit_pool_gauges(&self, inner: &Inner) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.gauge("serve.live_streams", 0, inner.streams.len() as f64);
        self.telemetry.gauge("serve.pool_occupancy", 0, inner.scanning as f64);
    }
}

/// A multi-stream scan service over one compiled [`Program`].
///
/// See the [module documentation](self) for the full contract. Dropping
/// the pool drains queued work and joins the workers; use
/// [`shutdown`](ScanPool::shutdown) to observe errors from that path or
/// [`abort`](ScanPool::abort) to discard queued work instead.
pub struct ScanPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ScanPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.shared.lock();
        f.debug_struct("ScanPool")
            .field("workers", &self.workers.len())
            .field("live_streams", &inner.streams.len())
            .field("scanning", &inner.scanning)
            .field("mode", &inner.mode)
            .finish()
    }
}

impl ScanPool {
    /// Starts a pool of `options.workers` threads serving streams of
    /// `program`.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] when `workers` is zero, or a bound
    /// (`queue_bytes`, `quantum`) is zero.
    pub fn new(program: &Program, options: PoolOptions) -> Result<ScanPool, CaError> {
        if options.workers == 0 {
            return Err(CaError::Config("a scan pool needs at least one worker".into()));
        }
        if options.queue_bytes == 0 || options.quantum == 0 {
            return Err(CaError::Config(
                "scan pool queue_bytes and quantum must be non-zero".into(),
            ));
        }
        let shared = Arc::new(Shared {
            program: program.clone(),
            telemetry: program.telemetry(),
            options,
            inner: Mutex::default(),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..options.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(ScanPool { shared, workers })
    }

    /// Opens a new logical stream and returns its handle.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] once the pool is shutting down.
    pub fn open_stream(&self) -> Result<StreamHandle, CaError> {
        let mut inner = self.shared.lock();
        if inner.mode != Mode::Running {
            return Err(CaError::Config("scan pool is shutting down".into()));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        inner.streams.insert(id, StreamState::default());
        self.shared.emit_pool_gauges(&inner);
        Ok(StreamHandle {
            shared: Arc::clone(&self.shared),
            id,
            finished: false,
            polled: Vec::new(),
        })
    }

    /// Streams currently open (fed or not).
    pub fn live_streams(&self) -> usize {
        self.shared.lock().streams.len()
    }

    /// Stops accepting input, processes everything already queued, and
    /// joins the workers. Open streams can still be
    /// [`finish`](StreamHandle::finish)ed afterwards — their queued work
    /// has been fully processed.
    ///
    /// # Errors
    ///
    /// [`CaError::Internal`] if a worker thread died outside the per-batch
    /// containment (should be unreachable; per-batch panics surface on the
    /// stream that hit them, not here).
    pub fn shutdown(mut self) -> Result<(), CaError> {
        self.stop(Mode::Draining)
    }

    /// Discards all queued work, fails unfinished streams, and joins the
    /// workers. Streams that already completed their input still finish
    /// normally; streams with pending or future work get
    /// [`CaError::Internal`] from their next call.
    ///
    /// # Errors
    ///
    /// Same conditions as [`shutdown`](ScanPool::shutdown).
    pub fn abort(mut self) -> Result<(), CaError> {
        self.stop(Mode::Aborted)
    }

    /// The one stop-and-join behind [`shutdown`](ScanPool::shutdown),
    /// [`abort`](ScanPool::abort) and `Drop`: moves the pool to `mode`
    /// (discarding queued work when aborting), wakes everyone, and joins
    /// the workers. A second call finds no workers left and does nothing.
    fn stop(&mut self, mode: Mode) -> Result<(), CaError> {
        {
            let mut inner = self.shared.lock();
            if mode == Mode::Aborted {
                inner.mode = Mode::Aborted;
                inner.ready.clear();
                for stream in inner.streams.values_mut() {
                    // A stream whose input was discarded must not later
                    // render a prefix-only report as if it were complete.
                    if stream.queued_bytes > 0 {
                        stream.error.get_or_insert_with(|| {
                            CaError::Internal(format!(
                                "scan pool aborted with {} bytes of this stream unprocessed",
                                stream.queued_bytes
                            ))
                        });
                    }
                    stream.queue.clear();
                    stream.queued_bytes = 0;
                    stream.scheduled = false;
                }
            } else if inner.mode == Mode::Running {
                inner.mode = mode;
            }
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        self.shared.done_cv.notify_all();
        let mut first_error = None;
        for handle in std::mem::take(&mut self.workers) {
            if let Err(payload) = handle.join() {
                first_error
                    .get_or_insert_with(|| join_panic_to_internal("scan pool worker", payload));
            }
        }
        first_error.map_or(Ok(()), Err)
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        let _ = self.stop(Mode::Draining);
    }
}

/// One logical input stream multiplexed through a [`ScanPool`].
///
/// The handle is the stream's only owner: feed it chunks, poll matches
/// incrementally, and [`finish`](StreamHandle::finish) it for the final
/// per-stream [`RunReport`]. Dropping the handle without finishing
/// abandons the stream (queued work is discarded).
pub struct StreamHandle {
    shared: Arc<Shared>,
    id: u64,
    finished: bool,
    /// Reusable delivery buffer for [`StreamHandle::poll_matches`]:
    /// cleared and refilled per call, so polling an idle stream allocates
    /// nothing.
    polled: Vec<MatchEvent>,
}

impl std::fmt::Debug for StreamHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHandle").field("id", &self.id).finish()
    }
}

impl StreamHandle {
    /// Pool-assigned stream id (unique for the pool's lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Queues the next chunk of this stream, blocking while the stream's
    /// buffered bytes exceed [`PoolOptions::queue_bytes`] (backpressure).
    /// An empty chunk is a no-op.
    ///
    /// # Errors
    ///
    /// [`CaError::Config`] once the pool is shutting down;
    /// [`CaError::Internal`] if a worker failed while scanning this stream
    /// (the stream is lost, the pool and its other streams are not).
    pub fn feed(&mut self, chunk: &[u8]) -> Result<(), CaError> {
        if chunk.is_empty() {
            return Ok(());
        }
        let mut inner = self.shared.lock();
        let mut stalled = false;
        loop {
            if inner.mode != Mode::Running {
                return Err(CaError::Config("scan pool is shutting down".into()));
            }
            let stream =
                inner.streams.get_mut(&self.id).expect("stream state lives as long as its handle");
            if let Some(error) = &stream.error {
                return Err(error.clone());
            }
            if stream.queued_bytes < self.shared.options.queue_bytes {
                break;
            }
            if !stalled {
                stalled = true;
                self.shared.telemetry.counter("serve.backpressure_stalls", 1);
            }
            inner = self.shared.wait(&self.shared.space_cv, inner);
        }
        let id = self.id;
        let inner_mut = &mut *inner;
        let stream = inner_mut.streams.get_mut(&id).expect("checked above");
        stream.queue.push_back(chunk.to_vec());
        stream.queued_bytes += chunk.len();
        let depth = stream.queued_bytes;
        let newly_ready = !stream.scheduled && !stream.running;
        if newly_ready {
            stream.scheduled = true;
            inner_mut.ready.push_back(id);
        }
        drop(inner);
        self.shared.telemetry.counter("serve.fed_bytes", chunk.len() as u64);
        self.shared.telemetry.gauge("serve.queue_depth", id, depth as f64);
        if newly_ready {
            self.shared.work_cv.notify_one();
        }
        Ok(())
    }

    /// Matches reported since the previous call (or since the stream
    /// opened), in feed order with absolute stream positions — the
    /// incremental delivery path. The final [`finish`](StreamHandle::finish)
    /// report independently carries *all* matches, sorted and deduplicated.
    ///
    /// The returned slice borrows a buffer the handle reuses across calls;
    /// polling an idle stream performs no allocation. Every call records the
    /// drained count (zero included) in the `serve.polled_events` counter,
    /// so the metric's sum is the total delivered incrementally and its
    /// event count is the number of polls.
    pub fn poll_matches(&mut self) -> &[MatchEvent] {
        self.polled.clear();
        let drained = {
            let mut inner = self.shared.lock();
            let stream =
                inner.streams.get_mut(&self.id).expect("stream state lives as long as its handle");
            self.polled.extend_from_slice(stream.core.undelivered());
            self.polled.len()
        };
        self.shared.telemetry.counter("serve.polled_events", drained as u64);
        &self.polled
    }

    /// Closes the stream, waits for its queued chunks to be scanned, and
    /// returns the stream's [`RunReport`] — identical to what a dedicated
    /// [`Scanner`](crate::Scanner) session over the same chunks reports.
    ///
    /// # Errors
    ///
    /// [`CaError::Internal`] if a worker failed while scanning this stream
    /// or the pool was [`abort`](ScanPool::abort)ed first.
    pub fn finish(mut self) -> Result<RunReport, CaError> {
        self.finished = true;
        let shared = Arc::clone(&self.shared);
        let mut inner = shared.lock();
        let outcome = loop {
            let stream =
                inner.streams.get(&self.id).expect("stream state lives as long as its handle");
            if let Some(error) = stream.error.clone() {
                break Err(error);
            }
            if stream.queue.is_empty() && !stream.running {
                break Ok(());
            }
            if inner.mode == Mode::Aborted {
                break Err(CaError::Internal(
                    "scan pool aborted before the stream completed".into(),
                ));
            }
            inner = shared.wait(&shared.done_cv, inner);
        };
        let stream = inner.streams.remove(&self.id).expect("present in the loop above");
        shared.emit_pool_gauges(&inner);
        drop(inner);
        outcome?;
        // The finishing path `Scanner::finish` takes; pool streams always
        // start at offset zero.
        Ok(stream.core.finish(&shared.program))
    }
}

impl Session for StreamHandle {
    /// Queues the chunk on the pool, blocking under backpressure — see
    /// [`StreamHandle::feed`].
    fn feed(&mut self, chunk: &[u8]) -> Result<(), CaError> {
        StreamHandle::feed(self, chunk)
    }

    fn poll_matches(&mut self) -> &[MatchEvent] {
        StreamHandle::poll_matches(self)
    }

    fn finish(self) -> Result<RunReport, CaError> {
        StreamHandle::finish(self)
    }
}

impl Drop for StreamHandle {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let id = self.id;
        let mut inner = self.shared.lock();
        if inner.streams.remove(&id).is_some() {
            inner.ready.retain(|&ready_id| ready_id != id);
            self.shared.emit_pool_gauges(&inner);
        }
        drop(inner);
        // Abandoning a stream frees its queue; a feeder of another stream
        // is unaffected, but a worker may be waiting on this ring slot.
        self.shared.work_cv.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    // This worker's fabric: scratch over the program's shared tables,
    // cloned at the first batch and kept for the thread's lifetime.
    let mut own_fabric: Option<Fabric> = None;
    let mut inner = shared.lock();
    loop {
        // Wait for ready work — or an exit condition.
        let id = loop {
            match inner.mode {
                Mode::Aborted => return,
                Mode::Draining if inner.ready.is_empty() => return,
                _ => {}
            }
            if let Some(id) = inner.ready.pop_front() {
                break id;
            }
            inner = shared.wait(&shared.work_cv, inner);
        };

        // Deficit round robin: grant the quantum, take whole chunks up to
        // the accumulated credit (a single oversized chunk is still taken
        // whole — chunks are indivisible), and carry leftover credit only
        // while the stream stays backlogged.
        let Some(stream) = inner.streams.get_mut(&id) else {
            continue; // handle dropped between scheduling and service
        };
        stream.scheduled = false;
        stream.deficit = stream.deficit.saturating_add(shared.options.quantum);
        let mut batch: Vec<Vec<u8>> = Vec::new();
        let mut batch_bytes = 0usize;
        while batch_bytes < stream.deficit {
            let Some(chunk) = stream.queue.pop_front() else { break };
            batch_bytes += chunk.len();
            stream.queued_bytes -= chunk.len();
            batch.push(chunk);
        }
        if stream.queue.is_empty() {
            stream.deficit = 0;
        } else {
            stream.deficit -= batch_bytes.min(stream.deficit);
        }
        if batch.is_empty() {
            // Scheduled with nothing queued (e.g. racing an abandon) —
            // nothing to do.
            shared.done_cv.notify_all();
            continue;
        }
        stream.running = true;
        let mut session = stream.core.fork();
        inner.scanning += 1;
        shared.emit_pool_gauges(&inner);
        drop(inner);

        let fabric = own_fabric.get_or_insert_with(|| shared.program.fabric());
        shared.telemetry.gauge("serve.batch_size", id, batch_bytes as f64);

        // Run the batch with panic containment: a panicking scan must not
        // take down the pool. State rides in the stream's snapshot, not the
        // fabric, so the same instance then serves *any* stream — unless
        // the batch panicked: that fabric may hold corrupt scratch and is
        // never reused; the next batch clones a fresh one.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for chunk in &batch {
                session.advance(fabric, chunk).map_err(|e| {
                    CaError::Internal(format!("pooled fabric rejected its own snapshot: {e}"))
                })?;
            }
            Ok(session)
        }));
        if outcome.is_err() {
            own_fabric = None;
        }

        inner = shared.lock();
        inner.scanning -= 1;
        let inner_mut = &mut *inner;
        if let Some(stream) = inner_mut.streams.get_mut(&id) {
            stream.running = false;
            let failed = match outcome {
                Ok(Ok(session)) => {
                    stream.core.absorb(session);
                    if !stream.queue.is_empty() && inner_mut.mode != Mode::Aborted {
                        stream.scheduled = true;
                        inner_mut.ready.push_back(id);
                    }
                    None
                }
                Ok(Err(error)) => Some(error),
                Err(payload) => Some(join_panic_to_internal("scan pool batch", payload)),
            };
            if failed.is_some() {
                stream.error = failed;
                stream.queue.clear();
                stream.queued_bytes = 0;
            }
        }
        shared.emit_pool_gauges(&inner);
        // The stream may be ready again, queue space opened up and its
        // finisher may be waiting: everyone gets a look.
        shared.work_cv.notify_all();
        shared.space_cv.notify_all();
        shared.done_cv.notify_all();
    }
}
