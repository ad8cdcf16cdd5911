//! Concurrency herd over labeled scopes: N publisher threads hammer
//! per-thread scopes while reader threads race snapshots and rolling-
//! window rotations against them. The scoped roll-up must be **exact**
//! at every level once the herd joins — a publish lands in its cell and
//! every enclosing aggregate, so no interleaving can lose or
//! double-count an increment — and while the herd runs no snapshot may
//! show a cell ahead of an aggregate it chains into (publishes go
//! aggregate-first, snapshots read cells first). Half the publishes go
//! through unregistered per-instance leaves (`Counter::cell`), which obey
//! the same order and never show up in a snapshot.

use ks_trace::{scoped_counter_sum, History, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 5_000;

#[test]
fn herd_publishes_roll_up_exactly_under_racing_snapshots() {
    let r = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    // One unregistered leaf per worker, under that worker's scoped cell.
    let leaves: Vec<_> = (0..THREADS)
        .map(|t| {
            r.scoped(&[("worker", &format!("w{t}"))])
                .counter("herd.ops")
                .cell()
        })
        .collect();

    // Readers: one racing full snapshots, one racing window rotations.
    // Their observations may be torn across metrics, but each must be
    // internally sane (no cell ever exceeds the global it chains into).
    let snap_reader = {
        let (r, stop, leaves) = (r.clone(), stop.clone(), leaves.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // Leaves first: they are the deepest level of the chain.
                let leaf_sum: u64 = leaves.iter().map(|c| c.get()).sum();
                let snap = r.snapshot();
                let global = snap.counter("herd.ops");
                let sum = scoped_counter_sum(&snap, "herd.ops", "worker");
                assert!(
                    sum <= global,
                    "scoped sum {sum} overtook the global {global}"
                );
                assert!(
                    leaf_sum <= sum,
                    "unregistered leaves {leaf_sum} overtook their scoped cells {sum}"
                );
                let c = snap
                    .histograms
                    .get("herd.lat{worker=w0}")
                    .map_or(0, |h| h.count);
                let a = snap.histograms.get("herd.lat").map_or(0, |h| h.count);
                assert!(c <= a, "scoped histogram count {c} overtook global {a}");
            }
        })
    };
    let window_reader = {
        let (r, stop) = (r.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut h = History::new(4);
            let mut at = 0u64;
            while !stop.load(Ordering::Relaxed) {
                at += 100;
                h.tick_at(&r, at);
                let w = h.window(4);
                // Windowed deltas are saturating: never negative, and a
                // windowed quantile on a live histogram never panics.
                let _ = w.quantile("herd.lat", 0.95);
                let _ = w.counter("herd.ops");
            }
        })
    };

    let publishers: Vec<_> = (0..THREADS)
        .map(|t| {
            let r = r.clone();
            let ops = leaves[t].clone();
            std::thread::spawn(move || {
                let scope = r.scoped(&[("worker", &format!("w{t}"))]);
                let lat = scope.histogram("herd.lat");
                // Half the publishes go through a nested sub-scope, so
                // the chain is exercised three levels deep.
                let nested = scope.scoped(&[("shard", "s0")]);
                let nested_ops = nested.counter("herd.ops");
                for i in 0..OPS_PER_THREAD {
                    if i % 2 == 0 {
                        ops.inc();
                    } else {
                        nested_ops.inc();
                    }
                    lat.record(1 + (i % 977));
                }
            })
        })
        .collect();
    for p in publishers {
        p.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    snap_reader.join().unwrap();
    window_reader.join().unwrap();

    // Quiesced: parity is exact at every level.
    let total = THREADS as u64 * OPS_PER_THREAD;
    let snap = r.snapshot();
    assert_eq!(snap.counter("herd.ops"), total);
    assert_eq!(scoped_counter_sum(&snap, "herd.ops", "worker"), total);
    // The leaves hold their own share and are in no snapshot: the global,
    // eight worker cells and eight shard cells are all there is.
    assert_eq!(snap.counters.len(), 1 + 2 * THREADS);
    for (t, leaf) in leaves.iter().enumerate() {
        assert_eq!(leaf.get(), OPS_PER_THREAD / 2);
        assert_eq!(
            snap.counter(&format!("herd.ops{{worker=w{t}}}")),
            OPS_PER_THREAD
        );
        assert_eq!(
            snap.counter(&format!("herd.ops{{shard=s0,worker=w{t}}}")),
            OPS_PER_THREAD / 2
        );
    }
    let global = r.histogram("herd.lat").snapshot();
    assert_eq!(global.count, total);
    let per_worker: u64 = (0..THREADS)
        .map(|t| {
            r.histogram(&format!("herd.lat{{worker=w{t}}}"))
                .snapshot()
                .count
        })
        .sum();
    assert_eq!(per_worker, total);

    // A final full-history window over a fresh History sees exactly the
    // herd's publishes as one delta.
    let mut h = History::new(2);
    h.tick_at(&r, 0);
    assert_eq!(h.window(1).counter("herd.ops"), total);
}
