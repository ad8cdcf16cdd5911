//! Background (async) compile tier: a bounded worker pool behind
//! [`Compiler::spawn_compile`].
//!
//! The blocking [`Compiler::compile`] path pays the full §4.3
//! specialization cost up front. The async tier makes that cost
//! latency-invisible: `spawn_compile` enqueues the job and returns a
//! [`CompileTicket`] immediately; a process-wide pool of worker threads
//! drains the queue by calling straight back into `Compiler::compile`.
//! Because the workers go through the same sharded single-flight cache,
//! a ticket and a blocking call for the same canonical key still cost
//! exactly one compilation — whichever starts first leads, the other
//! joins the flight (or hits the cache).
//!
//! Tickets are cancellable: a cancelled job is dropped at dequeue and
//! its ticket resolves with a `CompileError` so waiters never hang.
//! GPU-PF uses this to supersede a stale promotion when a module is
//! re-dirtied mid-flight.
//!
//! Accounting is exact, in the house style: every ticket resolves as
//! completed, failed, or cancelled, and at quiescence
//! `spawned == completed + failed + cancelled` (asserted by
//! `ks-prof --selfcheck`). Each outcome is counted once, in a
//! per-compiler cell under the `ks_core.async.*` registry counter of the
//! same name; [`AsyncStats`] is a snapshot of the cells.

use crate::{Binary, CompileError, Compiler, Defines};
use ks_store::Fingerprint;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

/// Queue-wait latency of every background job in the process (µs).
fn queue_wait_us() -> &'static ks_trace::Histogram {
    static H: OnceLock<ks_trace::Histogram> = OnceLock::new();
    H.get_or_init(|| ks_trace::registry().histogram(ks_trace::names::ASYNC_QUEUE_WAIT_US))
}

/// Per-compiler async-tier counters. At quiescence
/// `spawned == completed + failed + cancelled`; the `ks_core.async.*`
/// registry counters are the sums over all compilers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncStats {
    /// Tickets created by [`Compiler::spawn_compile`].
    pub spawned: u64,
    /// Tickets resolved with a binary.
    pub completed: u64,
    /// Tickets resolved with a `CompileError` (including worker-site
    /// injected faults and jobs whose compiler was dropped).
    pub failed: u64,
    /// Tickets cancelled before their job compiled.
    pub cancelled: u64,
}

impl std::fmt::Display for AsyncStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} spawned / {} completed / {} failed / {} cancelled",
            self.spawned, self.completed, self.failed, self.cancelled
        )
    }
}

/// One unregistered cell per ticket event, each under the registry
/// counter of the same name. Owned by each [`Compiler`], shared with its
/// in-flight jobs so accounting stays exact even if the compiler is
/// dropped mid-flight.
pub(crate) struct AsyncCells {
    spawned: ks_trace::Counter,
    completed: ks_trace::Counter,
    failed: ks_trace::Counter,
    cancelled: ks_trace::Counter,
}

impl AsyncCells {
    pub(crate) fn new() -> AsyncCells {
        use ks_trace::names;
        let cell = |name| ks_trace::registry().counter(name).cell();
        AsyncCells {
            spawned: cell(names::ASYNC_SPAWNED),
            completed: cell(names::ASYNC_COMPLETED),
            failed: cell(names::ASYNC_FAILED),
            cancelled: cell(names::ASYNC_CANCELLED),
        }
    }

    pub(crate) fn snapshot(&self) -> AsyncStats {
        AsyncStats {
            spawned: self.spawned.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            cancelled: self.cancelled.get(),
        }
    }
}

enum TicketOutcome {
    Completed,
    Failed,
    Cancelled,
}

struct TicketState {
    result: Option<Result<Arc<Binary>, CompileError>>,
}

struct TicketInner {
    key: Fingerprint,
    state: Mutex<TicketState>,
    ready: Condvar,
}

impl TicketInner {
    /// Resolve the ticket exactly once; later fulfills are no-ops
    /// (a job can race its own cancellation). Returns whether this call
    /// was the one that resolved it.
    fn fulfill(
        &self,
        stats: &AsyncCells,
        outcome: TicketOutcome,
        result: Result<Arc<Binary>, CompileError>,
    ) -> bool {
        let mut st = self.state.lock();
        if st.result.is_some() {
            return false;
        }
        st.result = Some(result);
        drop(st);
        match outcome {
            TicketOutcome::Completed => stats.completed.inc(),
            TicketOutcome::Failed => stats.failed.inc(),
            TicketOutcome::Cancelled => stats.cancelled.inc(),
        }
        self.ready.notify_all();
        true
    }
}

/// Handle to one background compilation. Cheap to clone; all clones
/// observe the same resolution.
#[derive(Clone)]
pub struct CompileTicket {
    inner: Arc<TicketInner>,
    stats: Arc<AsyncCells>,
    resolved_at_spawn: bool,
}

impl CompileTicket {
    /// The canonical cache key the job compiles under — the same key a
    /// blocking [`Compiler::compile`] of identical inputs would use.
    pub fn key(&self) -> Fingerprint {
        self.inner.key
    }

    /// True when [`Compiler::spawn_compile`] resolved this ticket before
    /// returning it — a committed cache or store entry, or invalid
    /// defines — so no worker was involved. Unlike asking
    /// [`CompileTicket::is_done`] right after the spawn, the answer does
    /// not depend on how fast a worker got to the job.
    pub fn resolved_at_spawn(&self) -> bool {
        self.resolved_at_spawn
    }

    /// True once a result (success, failure, or cancellation) is in.
    pub fn is_done(&self) -> bool {
        self.inner.state.lock().result.is_some()
    }

    /// Cancel the ticket: it resolves *immediately* with a "cancelled"
    /// `CompileError`, and the queued job is dropped at dequeue without
    /// compiling. A job already mid-compile still finishes into the
    /// shared cache (the work is never wasted), but this ticket's
    /// resolution stays "cancelled". Returns false if a result had
    /// already landed (too late to cancel).
    pub fn cancel(&self) -> bool {
        self.inner.fulfill(
            &self.stats,
            TicketOutcome::Cancelled,
            Err(CompileError {
                message: "async compile cancelled".to_string(),
                command_line: String::new(),
            }),
        )
    }

    /// The result, if the job has resolved (non-blocking).
    pub fn try_result(&self) -> Option<Result<Arc<Binary>, CompileError>> {
        self.inner.state.lock().result.clone()
    }

    /// Block until the job resolves and return its result. A ticket
    /// whose result slot is somehow absent after wakeup (a resolution
    /// bug, not a normal outcome) surfaces as a `CompileError` rather
    /// than unwinding into the waiting thread.
    pub fn wait(&self) -> Result<Arc<Binary>, CompileError> {
        let mut st = self.inner.state.lock();
        while st.result.is_none() {
            st = self.inner.ready.wait(st);
        }
        st.result.clone().unwrap_or_else(|| {
            Err(CompileError {
                message: "async compile ticket woke without a result".to_string(),
                command_line: String::new(),
            })
        })
    }
}

struct Job {
    /// Weak: a queued job must not keep a dropped compiler (and its
    /// cache) alive. Stats are held strongly so accounting survives.
    compiler: Weak<Compiler>,
    stats: Arc<AsyncCells>,
    source: String,
    defines: Defines,
    identity: String,
    ticket: Arc<TicketInner>,
    enqueued: Instant,
}

/// The process-wide bounded worker pool. Threads are started lazily on
/// first use and park on the queue condvar when idle; the process-wide
/// scope bounds background compile concurrency globally, not per
/// compiler, which is the production-correct knob (one machine, one
/// compile budget).
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

/// Worker count: `KS_ASYNC_WORKERS` if set (clamped to 1..=64), else
/// half the available parallelism, at least 1, at most 8 — background
/// specialization should never starve the foreground launch path.
fn worker_count() -> usize {
    if let Ok(v) = std::env::var("KS_ASYNC_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, 64);
        }
    }
    let avail = std::thread::available_parallelism().map_or(2, |n| n.get());
    (avail / 2).clamp(1, 8)
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for i in 0..worker_count() {
            std::thread::Builder::new()
                .name(format!("ks-async-{i}"))
                .spawn(move || worker_loop(pool))
                .expect("spawn async compile worker");
        }
        pool
    })
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let job = {
            let mut q = pool.queue.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                q = pool.available.wait(q);
            }
        };
        // Backstop: a panicking job must never kill a pool worker (the
        // pool is process-wide and never respawns). `run_job` already
        // converts compile panics into failed tickets; this catches
        // anything else.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(job)));
    }
}

fn run_job(job: Job) {
    queue_wait_us().record_duration_us(job.enqueued.elapsed());
    // A cancelled (or otherwise already-resolved) ticket's job is
    // dropped here without compiling; cancel() did the accounting.
    if job.ticket.state.lock().result.is_some() {
        return;
    }
    let Some(compiler) = job.compiler.upgrade() else {
        job.ticket.fulfill(
            &job.stats,
            TicketOutcome::Failed,
            Err(CompileError {
                message: "async compile abandoned: compiler dropped".to_string(),
                command_line: job.defines.command_line(),
            }),
        );
        return;
    };
    // Worker-site fault point: a plan can kill the job here (dropped
    // worker analogue) without the compile site ever seeing it.
    let plan = compiler.fault_plan.clone().or_else(ks_fault::active);
    if let Some(plan) = plan {
        if let Some(fault) = plan.check_worker(
            &job.identity,
            job.ticket.key.lo64(),
            &job.defines.command_line(),
        ) {
            job.ticket.fulfill(
                &job.stats,
                TicketOutcome::Failed,
                Err(CompileError {
                    message: fault.message(),
                    command_line: job.defines.command_line(),
                }),
            );
            return;
        }
    }
    // The real work: straight through the single-flight cache, so this
    // dedups against blocking callers and other tickets for the key.
    // Panics (worker-site injected or genuine) become failed tickets
    // through the normal accounting instead of unwinding the worker.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compiler.compile(&job.source, &job.defines)
    }))
    .unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic payload".to_string());
        Err(CompileError {
            message: format!("async compile panicked: {msg}"),
            command_line: job.defines.command_line(),
        })
    });
    let outcome = if result.is_ok() {
        TicketOutcome::Completed
    } else {
        TicketOutcome::Failed
    };
    job.ticket.fulfill(&job.stats, outcome, result);
}

/// Enqueue a background compile for `compiler`. Called from
/// [`Compiler::spawn_compile`].
pub(crate) fn spawn(
    compiler: &Arc<Compiler>,
    stats: Arc<AsyncCells>,
    key: Fingerprint,
    source: &str,
    defines: &Defines,
) -> CompileTicket {
    let inner = Arc::new(TicketInner {
        key,
        state: Mutex::new(TicketState { result: None }),
        ready: Condvar::new(),
    });
    stats.spawned.inc();
    // Invalid defines resolve immediately: they would never reach the
    // cache on the blocking path either.
    if let Some(msg) = defines.invalid() {
        inner.fulfill(
            &stats,
            TicketOutcome::Failed,
            Err(CompileError {
                message: msg.to_string(),
                command_line: defines.command_line(),
            }),
        );
        return CompileTicket {
            inner,
            stats,
            resolved_at_spawn: true,
        };
    }
    // Fast path: a committed result — in memory or in the persistent
    // store — resolves the ticket immediately, without occupying a
    // worker slot. Counted as a normal request + cache hit, so the
    // `hits + misses == requests` registry parity holds exactly as it
    // does for the blocking path.
    if let Some(bin) = compiler.cache.try_get(key, compiler.store.as_ref()) {
        compiler.metrics.requests.inc();
        inner.fulfill(&stats, TicketOutcome::Completed, Ok(bin));
        return CompileTicket {
            inner,
            stats,
            resolved_at_spawn: true,
        };
    }
    let identity = ks_fault::kernel_names(source)
        .into_iter()
        .next()
        .unwrap_or_else(|| "?".to_string());
    let job = Job {
        compiler: Arc::downgrade(compiler),
        stats: stats.clone(),
        source: source.to_string(),
        defines: defines.clone(),
        identity,
        ticket: inner.clone(),
        enqueued: Instant::now(),
    };
    let p = pool();
    p.queue.lock().push_back(job);
    p.available.notify_one();
    CompileTicket {
        inner,
        stats,
        resolved_at_spawn: false,
    }
}
