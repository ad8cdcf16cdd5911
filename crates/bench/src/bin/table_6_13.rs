//! Table 6.13 — Template matching partial sums: performance and optimal
//! configuration characteristics for the tiled summation kernel,
//! run-time evaluated (RE) vs specialized (SK).
//!
//! With `--store DIR` the sweep compilers attach the persistent artifact
//! store; `--assert-warm` then turns the run into the cold-start check:
//! every binary must come from disk (zero compiles, zero store errors),
//! read off the process-wide `ks_core.*` registry counters — the sums of
//! every sweep compiler's cache cells.

use ks_apps::Variant;
use ks_bench::*;

fn main() {
    let mut table = Table::new(
        "table_6_13",
        "Table 6.13: Template matching — RE vs SK, optimal configurations",
        &[
            "Device", "Data set", "RE ms", "RE tile", "RE thr", "RE regs", "SK ms", "SK tile",
            "SK thr", "SK regs", "Speedup",
        ],
    );
    for dev in devices() {
        let dev_name = dev.name.clone();
        let mut sweep = MatchSweep::new(dev);
        for (name, prob) in match_patients() {
            let (re_imp, re) = sweep.best(Variant::Re, &prob);
            let (sk_imp, sk) = sweep.best(Variant::Sk, &prob);
            table.row(vec![
                dev_name.clone(),
                name.to_string(),
                fmt_ms(re.sim_ms),
                format!("{}x{}", re_imp.tile_w, re_imp.tile_h),
                fmt(re_imp.threads),
                fmt(re.regs),
                fmt_ms(sk.sim_ms),
                format!("{}x{}", sk_imp.tile_w, sk_imp.tile_h),
                fmt(sk_imp.threads),
                fmt(sk.regs),
                format!("{:.2}x", re.sim_ms / sk.sim_ms),
            ]);
        }
        let stats = sweep.compiler.cache_stats();
        println!("[cache] {dev_name}: {stats}");
        table.tick(); // one telemetry window per device sweep
    }
    table.finish();

    if assert_warm() {
        // Cold-start check: a warm store must serve the entire suite.
        let reg = ks_trace::registry();
        let misses = reg.counter_value(ks_trace::names::CACHE_MISSES);
        let disk_hits = reg.counter_value(ks_trace::names::STORE_DISK_HITS);
        let errors = reg.counter_value(ks_trace::names::STORE_ERRORS);
        if misses != 0 || errors != 0 {
            eprintln!(
                "table_6_13: warm start FAILED: {misses} compiles, {errors} store \
                 errors (expected 0 and 0)"
            );
            std::process::exit(1);
        }
        println!("[store] warm start verified: 0 compiles, {disk_hits} disk hits");
    }
}
