//! Sharded, single-flight binary cache.
//!
//! §4.3's amortization argument only holds if the cache is correct under
//! concurrency: N threads requesting the same specialization must cost
//! *one* compilation, and requests for distinct keys must not serialize
//! behind each other. This module provides both:
//!
//! * **Sharding** — the key space is split across independently locked
//!   shards, so compilations of distinct keys proceed fully in parallel.
//! * **Single-flight** — the first thread to miss on a key becomes the
//!   *leader* and compiles; every concurrent request for the same key
//!   blocks on an in-flight slot and receives the leader's `Arc<Binary>`.
//!   Exactly one miss is recorded; the followers count as hits (their
//!   wait is tracked separately as dedup time).
//! * **Bounded capacity** — an optional LRU bound with eviction
//!   accounting, for long-running services that sweep huge define spaces.
//!
//! Every event is counted once, in a per-cache ks-trace cell
//! ([`ks_trace::Counter::cell`]) that chains into the registry counters of
//! the compiler's metric scope: [`CacheStats`] is a snapshot of the cells,
//! the exported metrics are their aggregates, and the two cannot disagree.
//! A call moves its counters exactly once, so `hits + misses` equals the
//! number of successful calls under arbitrary interleavings.

use crate::store::StoreTier;
use crate::{Binary, CacheStats, CompileError, ResilienceConfig};
use ks_store::Fingerprint;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One unregistered cell per cache event, each under the registry
/// counter of the same event in the compiler's [`ks_trace::Scope`] (and so
/// under the unlabeled global too): an increment lands in this cache's
/// [`CacheStats`] and in every exported aggregate in one publish.
struct Cells {
    hits: ks_trace::Counter,
    misses: ks_trace::Counter,
    evictions: ks_trace::Counter,
    dedup_waits: ks_trace::Counter,
    failures: ks_trace::Counter,
    quarantined: ks_trace::Counter,
    retries: ks_trace::Counter,
    breaker_opens: ks_trace::Counter,
    disk_hits: ks_trace::Counter,
    disk_misses: ks_trace::Counter,
    store_errors: ks_trace::Counter,
}

impl Cells {
    fn from_scope(scope: &ks_trace::Scope<'_>) -> Cells {
        use ks_trace::names;
        let cell = |name| scope.counter(name).cell();
        Cells {
            hits: cell(names::CACHE_HITS),
            misses: cell(names::CACHE_MISSES),
            evictions: cell(names::CACHE_EVICTIONS),
            dedup_waits: cell(names::CACHE_DEDUP_WAITS),
            failures: cell(names::CACHE_FAILURES),
            quarantined: cell(names::CACHE_QUARANTINED),
            retries: cell(names::COMPILE_RETRIES),
            breaker_opens: cell(names::BREAKER_OPEN),
            disk_hits: cell(names::STORE_DISK_HITS),
            disk_misses: cell(names::STORE_DISK_MISSES),
            store_errors: cell(names::STORE_ERRORS),
        }
    }
}

pub(crate) type CompileResult = Result<Arc<Binary>, CompileError>;

/// Default shard count (capped by capacity when one is set, so the
/// per-shard capacity slices stay ≥ 1 and the global bound is exact).
const DEFAULT_SHARDS: usize = 16;

/// A result that is written once and read by any number of threads: a
/// compile flight's (the leader writes it, followers wait on it) and a
/// [`crate::CompileTicket`]'s (its job or its cancellation writes it).
#[derive(Default)]
pub(crate) struct OneShot {
    slot: Mutex<Option<CompileResult>>,
    ready: Condvar,
}

impl OneShot {
    /// Store `result` unless one is already in: the first write wins and
    /// runs `won` under the slot's lock, so whoever reads the result also
    /// sees what `won` did. Returns whether this write was the first.
    pub(crate) fn set(&self, result: CompileResult, won: impl FnOnce()) -> bool {
        let mut slot = self.slot.lock();
        if slot.is_some() {
            return false;
        }
        won();
        *slot = Some(result);
        self.ready.notify_all();
        true
    }

    /// The result, if one is in (non-blocking).
    pub(crate) fn try_get(&self) -> Option<CompileResult> {
        self.slot.lock().clone()
    }

    /// Block until a result is in and return it.
    pub(crate) fn wait(&self) -> CompileResult {
        let mut slot = self.slot.lock();
        loop {
            if let Some(result) = &*slot {
                return result.clone();
            }
            slot = self.ready.wait(slot);
        }
    }
}

struct Entry {
    bin: Arc<Binary>,
    /// Global LRU stamp (larger = more recently used).
    last_used: u64,
}

/// Quarantine record for a key whose last compile failed. Lives in a
/// map *separate* from `entries`, so failed keys never occupy LRU
/// capacity and can never be served as hits. Cleared on the next
/// successful compile of the key.
struct FailedEntry {
    err: CompileError,
    /// Fast-fail with `err` until this instant; afterwards the next
    /// call becomes a fresh leader (the breaker's half-open probe).
    until: Instant,
    /// Consecutive failed flights of this key (resets on success);
    /// drives the circuit breaker.
    consecutive: u32,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<Fingerprint, Entry>,
    inflight: HashMap<Fingerprint, Arc<OneShot>>,
    failed: HashMap<Fingerprint, FailedEntry>,
    /// This shard's slice of the global capacity (None = unbounded).
    capacity: Option<usize>,
}

impl Shard {
    /// The quarantine error to fast-fail with, if `key` is quarantined
    /// and the window hasn't lapsed.
    fn quarantined_error(&self, key: Fingerprint, res: &ResilienceConfig) -> Option<CompileError> {
        let fe = self.failed.get(&key)?;
        if Instant::now() >= fe.until {
            return None;
        }
        let breaker = res.breaker_threshold > 0 && fe.consecutive >= res.breaker_threshold;
        Some(if breaker {
            CompileError {
                message: format!(
                    "circuit breaker open ({} consecutive failures): {}",
                    fe.consecutive, fe.err.message
                ),
                command_line: fe.err.command_line.clone(),
            }
        } else {
            fe.err.clone()
        })
    }
}

pub(crate) struct BinaryCache {
    shards: Box<[Mutex<Shard>]>,
    /// LRU clock.
    tick: AtomicU64,
    cells: Cells,
    /// The two time sums of [`CacheStats`]; no registry metric carries
    /// them, so they are plain atomics.
    compile_micros: AtomicU64,
    dedup_wait_micros: AtomicU64,
}

/// What the memory tier holds for a key ([`BinaryCache::probe_locked`]).
enum Probe {
    /// A committed binary, already stamped and counted as a hit.
    Hit(Arc<Binary>),
    /// Another thread is compiling this key; wait for it.
    Follow(Arc<OneShot>),
    /// The key is quarantined (recent failure / open breaker): serve
    /// the recorded error without compiling.
    FastFail(CompileError),
    /// Nothing committed, in flight or quarantined. `failed`: a failure
    /// record exists all the same (its window lapsed).
    Vacant { failed: bool },
}

impl BinaryCache {
    pub(crate) fn new(capacity: Option<usize>) -> BinaryCache {
        let n = match capacity {
            // Capacity is distributed across shards; never more shards
            // than capacity so each shard holds at least one entry and
            // the per-shard bounds sum to exactly `cap`.
            Some(cap) => DEFAULT_SHARDS.min(cap.max(1)),
            None => DEFAULT_SHARDS,
        };
        let shards: Box<[Mutex<Shard>]> = (0..n)
            .map(|i| {
                Mutex::new(Shard {
                    capacity: capacity.map(|cap| cap / n + usize::from(i < cap % n)),
                    ..Shard::default()
                })
            })
            .collect();
        BinaryCache {
            shards,
            tick: AtomicU64::new(0),
            cells: Cells::from_scope(&ks_trace::registry().scoped(&[])),
            compile_micros: AtomicU64::new(0),
            dedup_wait_micros: AtomicU64::new(0),
        }
    }

    /// Count under a labeled scope from now on
    /// ([`crate::Compiler::with_metric_labels`]). Configure before
    /// compiling: the registry keeps what was already published where it
    /// landed, this cache's own [`CacheStats`] start over.
    pub(crate) fn set_metric_scope(&mut self, scope: &ks_trace::Scope<'_>) {
        self.cells = Cells::from_scope(scope);
    }

    fn shard(&self, key: Fingerprint) -> &Mutex<Shard> {
        &self.shards[(key.lo64() % self.shards.len() as u64) as usize]
    }

    fn stamp(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Cached entries across all shards.
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let c = &self.cells;
        CacheStats {
            hits: c.hits.get(),
            misses: c.misses.get(),
            evictions: c.evictions.get(),
            dedup_waits: c.dedup_waits.get(),
            total_compile_micros: self.compile_micros.load(Ordering::Relaxed),
            total_dedup_wait_micros: self.dedup_wait_micros.load(Ordering::Relaxed),
            failures: c.failures.get(),
            quarantined: c.quarantined.get(),
            retries: c.retries.get(),
            breaker_opens: c.breaker_opens.get(),
            disk_hits: c.disk_hits.get(),
            disk_misses: c.disk_misses.get(),
            store_errors: c.store_errors.get(),
        }
    }

    /// Insert a committed binary and enforce the LRU bound. Caller holds
    /// the shard lock.
    fn insert_entry_locked(&self, shard: &mut Shard, key: Fingerprint, bin: Arc<Binary>) {
        let stamp = self.stamp();
        shard.entries.insert(
            key,
            Entry {
                bin,
                last_used: stamp,
            },
        );
        if let Some(cap) = shard.capacity {
            while shard.entries.len() > cap {
                let lru = shard
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("nonempty over capacity");
                shard.entries.remove(&lru);
                self.cells.evictions.inc();
            }
        }
    }

    /// The one memory probe, under the shard lock the caller holds: a
    /// committed entry (stamped and counted as a hit here), a flight to
    /// join, a quarantined error, or a vacancy.
    fn probe_locked(&self, shard: &mut Shard, key: Fingerprint, res: &ResilienceConfig) -> Probe {
        if let Some(e) = shard.entries.get_mut(&key) {
            Probe::Hit(self.hit(e))
        } else if let Some(f) = shard.inflight.get(&key) {
            Probe::Follow(f.clone())
        } else if let Some(err) = shard.quarantined_error(key, res) {
            Probe::FastFail(err)
        } else {
            Probe::Vacant {
                failed: shard.failed.contains_key(&key),
            }
        }
    }

    /// Serve a committed entry: stamp it and count a hit.
    fn hit(&self, e: &mut Entry) -> Arc<Binary> {
        e.last_used = self.stamp();
        self.cells.hits.inc();
        e.bin.clone()
    }

    /// Commit a binary read from the persistent tier and count it as a
    /// disk hit — unless another caller committed `key` while the disk
    /// was read: then its entry is served (a memory hit), so `Arc`
    /// identity stays canonical. Caller holds the shard lock.
    fn commit_disk_locked(
        &self,
        shard: &mut Shard,
        key: Fingerprint,
        bin: Arc<Binary>,
    ) -> Arc<Binary> {
        if let Some(e) = shard.entries.get_mut(&key) {
            return self.hit(e);
        }
        shard.failed.remove(&key);
        self.insert_entry_locked(shard, key, bin.clone());
        self.cells.hits.inc();
        self.cells.disk_hits.inc();
        bin
    }

    /// Probe for an already-committed result — memory first, then the
    /// persistent tier — without joining or creating a flight. Used by
    /// the async tier's spawn fast path so tickets resolve from disk
    /// hits without occupying a worker slot. Returns `None` when the key
    /// is uncompiled, in flight, or has a failure record (expired or
    /// not); those paths keep their normal worker accounting. A probe
    /// miss moves no counters (the eventual leader records its own
    /// `disk_misses`).
    pub(crate) fn try_get(
        &self,
        key: Fingerprint,
        res: &ResilienceConfig,
        store: Option<&StoreTier>,
    ) -> Option<Arc<Binary>> {
        match self.probe_locked(&mut self.shard(key).lock(), key, res) {
            Probe::Hit(bin) => return Some(bin),
            Probe::Vacant { failed: false } => {}
            _ => return None,
        }
        // Disk probe outside the shard lock: a racing leader at worst
        // duplicates the read, never the compile.
        let bin = match store?.load(key) {
            Ok(bin) => bin?,
            Err(_) => {
                self.cells.store_errors.inc();
                return None;
            }
        };
        Some(self.commit_disk_locked(&mut self.shard(key).lock(), key, bin))
    }

    /// The single-flight fast path: return the cached binary for `key`,
    /// join an in-flight compilation of it, fast-fail from quarantine,
    /// or run `compile` as the leader — with bounded retries under the
    /// resilience policy — and publish the result to the cache and all
    /// followers.
    ///
    /// Accounting invariants, under arbitrary interleavings:
    /// * `hits + misses` == calls that returned `Ok` (a disk hit counts
    ///   as a hit, itemized in `disk_hits`);
    /// * `failures` == calls that returned `Err` (with `quarantined`
    ///   itemizing the fast-fail subset);
    /// * a retry wave happens at most once per flight, no matter how
    ///   many followers piled onto the key.
    ///
    /// With `store` attached the leader is a read-through/write-through
    /// tier: it probes the persistent store before compiling (a hit
    /// skips the compile entirely) and persists fresh compiles after
    /// committing them. Store failures in either direction count in
    /// `store_errors` and degrade to plain compilation — never a panic,
    /// never a failed call.
    pub(crate) fn get_or_compile(
        &self,
        key: Fingerprint,
        res: &ResilienceConfig,
        store: Option<&StoreTier>,
        compile: impl Fn() -> CompileResult,
    ) -> CompileResult {
        let (flight, lead) = {
            let mut shard = self.shard(key).lock();
            match self.probe_locked(&mut shard, key, res) {
                Probe::Hit(bin) => return Ok(bin),
                Probe::FastFail(err) => {
                    self.cells.failures.inc();
                    self.cells.quarantined.inc();
                    return Err(err);
                }
                Probe::Follow(flight) => (flight, false),
                Probe::Vacant { .. } => (shard.inflight.entry(key).or_default().clone(), true),
            }
        };
        if lead {
            self.lead(key, &flight, res, store, compile)
        } else {
            self.follow(&flight)
        }
    }

    /// Wait for another thread's flight of the same key.
    fn follow(&self, flight: &OneShot) -> CompileResult {
        let t0 = Instant::now();
        let result = flight.wait();
        self.cells.dedup_waits.inc();
        self.dedup_wait_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        // Duplicate-compile suppression is a hit, not a miss: the §4.3
        // overhead was paid once, by the leader. A failed flight fails
        // every follower, itemized per caller.
        if result.is_ok() {
            self.cells.hits.inc();
        } else {
            self.cells.failures.inc();
        }
        result
    }

    /// Fill the flight this thread registered for `key`: from the
    /// persistent tier, else by compiling (with retries), then commit
    /// the result and wake the followers.
    fn lead(
        &self,
        key: Fingerprint,
        flight: &OneShot,
        res: &ResilienceConfig,
        store: Option<&StoreTier>,
        compile: impl Fn() -> CompileResult,
    ) -> CompileResult {
        // If an attempt panics (and `catch_panics` is off), the guard
        // removes the in-flight slot, quarantines the key, and feeds
        // followers an error instead of deadlock.
        let guard = FlightGuard {
            cache: self,
            key,
            flight,
            res,
        };
        // Read-through: probe the persistent tier before paying for a
        // compile. Any store error degrades to compiling.
        let loaded = match store.map(|s| s.load(key)) {
            Some(Ok(Some(bin))) => Some(bin),
            Some(Ok(None)) => {
                self.cells.disk_misses.inc();
                None
            }
            Some(Err(_)) => {
                self.cells.store_errors.inc();
                None
            }
            None => None,
        };
        let fresh = loaded.is_none();
        let mut result = loaded.map_or_else(|| run_attempt(&compile, res), Ok);
        let mut attempt = 0u32;
        while result.is_err() && attempt < res.max_retries {
            attempt += 1;
            let _retry = ks_trace::span_fields("compile-retry", || {
                vec![
                    ("attempt".to_string(), attempt.to_string()),
                    ("key".to_string(), key.to_string()),
                ]
            });
            let delay = res.backoff(key.lo64(), attempt);
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            self.cells.retries.inc();
            result = run_attempt(&compile, res);
        }
        std::mem::forget(guard);
        let result = {
            let mut shard = self.shard(key).lock();
            shard.inflight.remove(&key);
            match result {
                // The §4.3 overhead was avoided: a disk hit is a hit, not
                // a miss, and adds no compile time.
                Ok(bin) if !fresh => Ok(self.commit_disk_locked(&mut shard, key, bin)),
                Ok(bin) => {
                    shard.failed.remove(&key);
                    self.cells.misses.inc();
                    self.compile_micros
                        .fetch_add(bin.compile_time.as_micros() as u64, Ordering::Relaxed);
                    self.insert_entry_locked(&mut shard, key, bin.clone());
                    Ok(bin)
                }
                Err(e) => {
                    self.cells.failures.inc();
                    self.record_failure_locked(&mut shard, key, &e, res);
                    Err(e)
                }
            }
        };
        flight.set(result.clone(), || {});
        // Write-through: persist fresh compiles after followers are
        // unblocked. A failed write is counted and ignored — the
        // in-memory result is already committed.
        if let (true, Ok(bin), Some(s)) = (fresh, &result, store) {
            if s.save(key, bin).is_err() {
                self.cells.store_errors.inc();
            }
        }
        result
    }

    /// Record a failed flight: refresh the quarantine record, bump the
    /// consecutive-failure count, and (re)open the breaker when the
    /// count reaches the threshold. Caller holds the shard lock.
    fn record_failure_locked(
        &self,
        shard: &mut Shard,
        key: Fingerprint,
        err: &CompileError,
        res: &ResilienceConfig,
    ) {
        let now = Instant::now();
        let fe = shard.failed.entry(key).or_insert(FailedEntry {
            err: err.clone(),
            until: now,
            consecutive: 0,
        });
        fe.err = err.clone();
        fe.consecutive += 1;
        let breaker = res.breaker_threshold > 0 && fe.consecutive >= res.breaker_threshold;
        if breaker {
            fe.until = now + res.breaker_cooldown;
            self.cells.breaker_opens.inc();
        } else {
            fe.until = now + res.quarantine_ttl;
        }
    }
}

/// Run one compile attempt, optionally converting panics into
/// `CompileError`s so the retry policy can treat them like any failure.
fn run_attempt(compile: &impl Fn() -> CompileResult, res: &ResilienceConfig) -> CompileResult {
    if !res.catch_panics {
        return compile();
    }
    catch_panic("compilation", String::new, compile)
}

/// Run `compile`, turning a panic into the `CompileError`
/// "`{what}` panicked: `{payload}`" with `command_line()`.
pub(crate) fn catch_panic(
    what: &str,
    command_line: impl FnOnce() -> String,
    compile: impl FnOnce() -> CompileResult,
) -> CompileResult {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(compile)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic payload".to_string());
        Err(CompileError {
            message: format!("{what} panicked: {msg}"),
            command_line: command_line(),
        })
    })
}

/// Panic guard for the leader path: on unwind, unregister the in-flight
/// slot, quarantine the key, and wake followers with an error so they
/// don't block forever.
struct FlightGuard<'a> {
    cache: &'a BinaryCache,
    key: Fingerprint,
    flight: &'a OneShot,
    res: &'a ResilienceConfig,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let err = CompileError {
            message: "compilation panicked in another thread".to_string(),
            command_line: String::new(),
        };
        {
            let mut shard = self.cache.shard(self.key).lock();
            shard.inflight.remove(&self.key);
            self.cache.cells.failures.inc();
            self.cache
                .record_failure_locked(&mut shard, self.key, &err, self.res);
        }
        self.flight.set(Err(err), || {});
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_binary() -> Arc<Binary> {
        let module = crate::LazyModule::decoded(ks_ir::Module::default());
        Arc::new(Binary {
            ptx: crate::Listing::of(&module),
            module,
            regalloc: HashMap::new(),
            defines: crate::Defines::new(),
            compile_time: std::time::Duration::from_micros(10),
            diagnostics: Vec::new(),
            metrics: crate::CompileMetrics::default(),
            verification: Vec::new(),
            key: Fingerprint::from_u128(0),
            plans: std::sync::OnceLock::new(),
        })
    }

    #[test]
    fn capacity_slices_sum_exactly() {
        for cap in [1usize, 2, 3, 7, 16, 17, 100] {
            let c = BinaryCache::new(Some(cap));
            let total: usize = c.shards.iter().map(|s| s.lock().capacity.unwrap()).sum();
            assert_eq!(total, cap, "capacity {cap}");
            assert!(c.shards.len() <= cap.clamp(1, DEFAULT_SHARDS));
            assert!(c.shards.iter().all(|s| s.lock().capacity.unwrap() >= 1));
        }
    }

    #[test]
    fn leader_panic_unblocks_followers() {
        let cache = Arc::new(BinaryCache::new(None));
        let c2 = cache.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let key = Fingerprint::from_u128(42);
        let leader = std::thread::spawn(move || {
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c2.get_or_compile(key, &ResilienceConfig::default(), None, || {
                    tx.send(()).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("boom")
                })
            }));
            assert!(res.is_err());
        });
        // Only probe once the leader holds the in-flight slot.
        rx.recv().unwrap();
        // Either we join the doomed flight and get the panic error, or we
        // probe after cleanup and become the new leader ourselves.
        if let Err(e) = cache.get_or_compile(key, &ResilienceConfig::default(), None, || {
            Ok(dummy_binary())
        }) {
            assert!(e.message.contains("panicked"), "{e}");
        }
        leader.join().unwrap();
    }
}
