//! `ks-bench <id>… | all [--quick] [--store DIR] [--out-dir DIR]
//! [--assert-warm]` — regenerate the dissertation's tables and figures.
//!
//! Each id names one entry of [`ks_bench::experiments::ALL`]; `all` runs
//! every one, in table order. `--store DIR` backs every compiler with the
//! persistent artifact store; `--assert-warm` then turns the run into the
//! cold-start check: after the selected experiments, every binary must
//! have come from disk (zero compiles, zero store errors), read off the
//! process-wide `ks_core.*` registry counters — the sums of every
//! compiler's cache cells.

use ks_bench::experiments::{Experiment, ALL};
use ks_bench::Ctx;

fn usage(problem: &str) -> ! {
    let ids: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "ks-bench: {problem}\n\
         usage: ks-bench <id>… | all [--quick] [--store DIR] [--out-dir DIR] [--assert-warm]\n\
         ids: {}",
        ids.join(" ")
    );
    std::process::exit(2);
}

fn dir(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage(&format!("{flag} needs a directory")))
}

fn main() {
    let mut ctx = Ctx {
        quick: false,
        store: None,
        out_dir: "bench_results".into(),
    };
    let mut assert_warm = false;
    let mut runs: Vec<Experiment> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => ctx.quick = true,
            "--assert-warm" => assert_warm = true,
            "--store" => ctx.store = Some(dir(&mut args, &arg).into()),
            "--out-dir" => ctx.out_dir = dir(&mut args, &arg).into(),
            "all" => runs.extend(ALL.iter().map(|(_, run)| *run)),
            id => match ALL.iter().find(|(name, _)| *name == id) {
                Some((_, run)) => runs.push(*run),
                None => usage(&format!("unknown experiment {id:?}")),
            },
        }
    }
    if runs.is_empty() {
        usage("no experiment given");
    }
    for run in runs {
        run(&ctx);
    }

    if assert_warm {
        let reg = ks_trace::registry();
        let misses = reg.counter_value(ks_trace::names::CACHE_MISSES);
        let disk_hits = reg.counter_value(ks_trace::names::STORE_DISK_HITS);
        let errors = reg.counter_value(ks_trace::names::STORE_ERRORS);
        if misses != 0 || errors != 0 {
            eprintln!(
                "ks-bench: warm start FAILED: {misses} compiles, {errors} store \
                 errors (expected 0 and 0)"
            );
            std::process::exit(1);
        }
        println!("[store] warm start verified: 0 compiles, {disk_hits} disk hits");
    }
}
