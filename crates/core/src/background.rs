//! Background (async) compile tier behind [`Compiler::spawn_compile`].
//!
//! The blocking [`Compiler::compile`] path pays the full §4.3
//! specialization cost up front. The async tier makes that cost
//! latency-invisible: `spawn_compile` hands the job to `rayon::spawn` and
//! returns a [`CompileTicket`] immediately. The job runs on the process's
//! one worker pool — its spawn lane: first in, first out, at most half the
//! cores at once, and behind any `par_iter` call that wants a worker — by
//! calling straight back into `Compiler::compile`.
//! Because the jobs go through the same sharded single-flight cache,
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

use crate::cache::{catch_panic, CompileResult, OneShot};
use crate::{Binary, CompileError, Compiler, Defines};
use ks_store::Fingerprint;
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

/// Handle to one background compilation. Cheap to clone; all clones
/// observe the same resolution.
#[derive(Clone)]
pub struct CompileTicket {
    key: Fingerprint,
    slot: Arc<OneShot>,
    stats: Arc<AsyncCells>,
    resolved_at_spawn: bool,
}

impl CompileTicket {
    /// The canonical cache key the job compiles under — the same key a
    /// blocking [`Compiler::compile`] of identical inputs would use.
    pub fn key(&self) -> Fingerprint {
        self.key
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
        self.slot.try_get().is_some()
    }

    /// Cancel the ticket: it resolves *immediately* with a "cancelled"
    /// `CompileError`, and the queued job is dropped at dequeue without
    /// compiling. A job already mid-compile still finishes into the
    /// shared cache (the work is never wasted), but this ticket's
    /// resolution stays "cancelled". Returns false if a result had
    /// already landed (too late to cancel).
    pub fn cancel(&self) -> bool {
        let cancelled = Err(CompileError {
            message: "async compile cancelled".to_string(),
            command_line: String::new(),
        });
        self.slot.set(cancelled, || self.stats.cancelled.inc())
    }

    /// The result, if the job has resolved (non-blocking).
    pub fn try_result(&self) -> Option<Result<Arc<Binary>, CompileError>> {
        self.slot.try_get()
    }

    /// Block until the job resolves and return its result.
    pub fn wait(&self) -> Result<Arc<Binary>, CompileError> {
        self.slot.wait()
    }

    /// Resolve with `result`, counted as completed or failed. Only the
    /// first resolution counts: a job can race its own cancellation.
    fn resolve(&self, result: CompileResult) {
        let outcome = if result.is_ok() {
            &self.stats.completed
        } else {
            &self.stats.failed
        };
        self.slot.set(result, || outcome.inc());
    }
}

struct Job {
    /// Weak: a queued job must not keep a dropped compiler (and its
    /// cache) alive. The ticket holds the stats strongly, so accounting
    /// survives.
    compiler: Weak<Compiler>,
    ticket: CompileTicket,
    source: String,
    defines: Defines,
    enqueued: Instant,
}

fn run_job(job: Job) {
    queue_wait_us().record_duration_us(job.enqueued.elapsed());
    // A cancelled (or otherwise already-resolved) ticket's job is
    // dropped here without compiling; cancel() did the accounting.
    if job.ticket.is_done() {
        return;
    }
    let Some(compiler) = job.compiler.upgrade() else {
        job.ticket.resolve(Err(CompileError {
            message: "async compile abandoned: compiler dropped".to_string(),
            command_line: job.defines.command_line(),
        }));
        return;
    };
    // Worker-site fault point: a plan can kill the job here (dropped
    // worker analogue) without the compile site ever seeing it.
    let plan = compiler.fault_plan.clone().or_else(ks_fault::active);
    if let Some(plan) = plan {
        if let Some(fault) = plan.check_worker(
            &crate::fault_identity(&job.source),
            job.ticket.key.lo64(),
            &job.defines.command_line(),
        ) {
            job.ticket.resolve(Err(CompileError {
                message: fault.message(),
                command_line: job.defines.command_line(),
            }));
            return;
        }
    }
    // The real work: straight through the single-flight cache, so this
    // dedups against blocking callers and other tickets for the key.
    // Panics (worker-site injected or genuine) become failed tickets
    // through the normal accounting instead of unwinding the worker.
    job.ticket.resolve(catch_panic(
        "async compile",
        || job.defines.command_line(),
        || compiler.compile(&job.source, &job.defines),
    ));
}

/// Queue a background compile for `compiler`. Called from
/// [`Compiler::spawn_compile`].
pub(crate) fn spawn(
    compiler: &Arc<Compiler>,
    key: Fingerprint,
    source: &str,
    defines: &Defines,
) -> CompileTicket {
    let mut ticket = CompileTicket {
        key,
        slot: Arc::default(),
        stats: compiler.async_stats.clone(),
        resolved_at_spawn: true,
    };
    ticket.stats.spawned.inc();
    // Invalid defines resolve immediately: they would never reach the
    // cache on the blocking path either.
    if let Some(msg) = defines.invalid() {
        ticket.resolve(Err(CompileError {
            message: msg.to_string(),
            command_line: defines.command_line(),
        }));
        return ticket;
    }
    // Fast path: a committed result — in memory or in the persistent
    // store — resolves the ticket immediately, without occupying a
    // worker slot. Counted as a normal request + cache hit, so the
    // `hits + misses == requests` registry parity holds exactly as it
    // does for the blocking path.
    let store = compiler.store.as_ref();
    if let Some(bin) = compiler.cache.try_get(key, &compiler.resilience, store) {
        compiler.metrics.requests.inc();
        ticket.resolve(Ok(bin));
        return ticket;
    }
    ticket.resolved_at_spawn = false;
    let job = Job {
        compiler: Arc::downgrade(compiler),
        ticket: ticket.clone(),
        source: source.to_string(),
        defines: defines.clone(),
        enqueued: Instant::now(),
    };
    rayon::spawn(move || run_job(job));
    ticket
}
