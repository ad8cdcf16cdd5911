//! Silent-data-corruption drill: seeded in-flight bit flips against the
//! three case-study app kernels, end-to-end integrity checking, and the
//! store scrub pass.
//!
//! Default mode runs each app kernel (template-matching `sum_partials`,
//! PIV `piv_ssd`, cone-beam `backproject`) through a GPU-PF pipeline
//! twice: a fault-free pass, then a pass under a seeded
//! [`ks_fault::FaultKind::SilentFlip`] plan that corrupts one output bit
//! of each pipeline's specialized variant mid-run. Integrity checking
//! ([`gpu_pf::IntegrityConfig`]) must detect every injected corruption
//! via its generic-binary witness, adjudicate it as a transient flip by
//! re-execution voting, and recover — leaving final outputs
//! byte-identical to the fault-free pass. Everything printed is
//! deterministic for a given seed (the CI integrity tier diffs two
//! same-seed runs).
//!
//! `--scrub-drill <dir>` populates a persistent store, rots one record's
//! payload (header left intact, so the fast load-path check stays
//! blind), and shows the full-checksum scrub catching and quarantining
//! it at attach time. `--warm-start <dir>` is its cross-process
//! counterpart: a fresh process re-attaches the scrubbed store, finds it
//! clean, and warm-starts both variants from disk.
//!
//! Run with: `cargo run --release --example sdc_drill -- --seed 77`

use gpu_pf::{Arg, IntegrityConfig, MacroBinding, Pipeline, ResId, Verdict};
use ks_apps::{piv, template_match};
use ks_core::{Compiler, Defines};
use ks_fault::{FaultKind, FaultPlan, FaultRule, Target};
use ks_sim::DeviceConfig;
use std::sync::Arc;

/// Iterations per pipeline; the flip rule fires on the second launch of
/// each targeted variant (iteration index 1).
const ITERS: u64 = 3;

fn arg_u64(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn arg_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn compiler() -> Arc<Compiler> {
    Arc::new(Compiler::new(DeviceConfig::tesla_c1060()))
}

fn integrity() -> IntegrityConfig {
    IntegrityConfig {
        witness_period: 1,
        vote_m: 3,
        vote_n: 2,
    }
}

fn f32_bytes(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Template-matching partial-sum reduction (`sum_partials`), NUM_TILES
/// specialized.
fn tm_pipeline(c: Arc<Compiler>) -> (Pipeline, ResId, ResId) {
    let (tiles, offsets) = (8u32, 128u32);
    let mut p = Pipeline::new(c, 16 << 20);
    p.set_integrity(Some(integrity()));
    let part_ext = p.extent_param("partial", [tiles * offsets, 1, 1], 4);
    let out_ext = p.extent_param("numer", [offsets, 1, 1], 4);
    let h_part = p.host_memory(part_ext);
    let d_part = p.global_memory(part_ext);
    let d_out = p.global_memory(out_ext);
    let h_out = p.host_memory(out_ext);
    let m = p.module(
        template_match::KERNELS,
        vec![("NUM_TILES", MacroBinding::Literal(tiles.to_string()))],
    );
    let k = p.kernel(m, "sum_partials");
    let grid = p.triplet_param("grid", [offsets.div_ceil(64), 1, 1]);
    let blk = p.triplet_param("block", [64, 1, 1]);
    let every = p.schedule_param("every", 1, 0);
    let tiles_p = p.int_param("numTiles", tiles as i64);
    let offs_p = p.int_param("numOffsets", offsets as i64);
    p.copy("h2d", h_part, d_part, every);
    p.exec(
        "sum_partials",
        k,
        grid,
        blk,
        None,
        vec![
            Arg::Mem(d_part),
            Arg::Mem(d_out),
            Arg::Param(tiles_p),
            Arg::Param(offs_p),
        ],
        every,
    );
    p.copy("d2h", d_out, h_out, every);
    let vals: Vec<f32> = (0..tiles * offsets)
        .map(|i| ((i * 7) % 101) as f32 * 0.25)
        .collect();
    p.set_host_data(h_part, &f32_bytes(&vals));
    (p, m, h_out)
}

/// PIV SSD correlation (`piv_ssd`), register-blocking and mask geometry
/// specialized.
fn piv_pipeline(c: Arc<Compiler>) -> (Pipeline, ResId, ResId) {
    let (img_w, mask, offs, rb, threads) = (64u32, 16u32, 8u32, 4u32, 64u32);
    let num_offsets = offs * offs; // 64
    let (masks_x, masks_y) = (2u32, 2u32);
    let num_masks = masks_x * masks_y;
    let mut p = Pipeline::new(c, 16 << 20);
    p.set_integrity(Some(integrity()));
    let img_ext = p.extent_param("img", [img_w * img_w, 1, 1], 4);
    let sc_ext = p.extent_param("scores", [num_masks * num_offsets, 1, 1], 4);
    let h_a = p.host_memory(img_ext);
    let h_b = p.host_memory(img_ext);
    let d_a = p.global_memory(img_ext);
    let d_b = p.global_memory(img_ext);
    let d_sc = p.global_memory(sc_ext);
    let h_sc = p.host_memory(sc_ext);
    let m = p.module(
        piv::KERNELS,
        vec![
            ("RB", MacroBinding::Literal(rb.to_string())),
            ("THREADS", MacroBinding::Literal(threads.to_string())),
            ("MASK_W", MacroBinding::Literal(mask.to_string())),
            ("MASK_H", MacroBinding::Literal(mask.to_string())),
            ("OFFS_W", MacroBinding::Literal(offs.to_string())),
        ],
    );
    let k = p.kernel(m, "piv_ssd");
    let grid = p.triplet_param("grid", [num_masks, num_offsets.div_ceil(rb), 1]);
    let blk = p.triplet_param("block", [threads, 1, 1]);
    let every = p.schedule_param("every", 1, 0);
    let args: Vec<Arg> = {
        let ints = [
            ("imgW", img_w),
            ("maskW", mask),
            ("maskH", mask),
            ("offsW", offs),
            ("numOffsets", num_offsets),
            ("masksX", masks_x),
            ("stepX", mask),
            ("stepY", mask),
            ("marginX", offs / 2),
            ("marginY", offs / 2),
            ("rb", rb),
        ];
        let mut v = vec![Arg::Mem(d_a), Arg::Mem(d_b), Arg::Mem(d_sc)];
        for (name, val) in ints {
            let id = p.int_param(name, val as i64);
            v.push(Arg::Param(id));
        }
        v
    };
    p.copy("h2d-a", h_a, d_a, every);
    p.copy("h2d-b", h_b, d_b, every);
    p.exec("piv_ssd", k, grid, blk, None, args, every);
    p.copy("d2h", d_sc, h_sc, every);
    let a: Vec<f32> = (0..img_w * img_w)
        .map(|i| ((i * 13) % 251) as f32 * 0.125)
        .collect();
    let b: Vec<f32> = (0..img_w * img_w)
        .map(|i| ((i * 13 + 29) % 251) as f32 * 0.125)
        .collect();
    p.set_host_data(h_a, &f32_bytes(&a));
    p.set_host_data(h_b, &f32_bytes(&b));
    (p, m, h_sc)
}

/// Cone-beam backprojection (`backproject`), geometry specialized; the
/// volume accumulates in place across iterations and the projection
/// geometry lives in constant memory.
fn bp_pipeline(c: Arc<Compiler>) -> (Pipeline, ResId, ResId) {
    let (vol_n, det, ppl, zb) = (16u32, 16u32, 4u32, 4u32);
    let mut p = Pipeline::new(c, 16 << 20);
    p.set_integrity(Some(integrity()));
    let proj_ext = p.extent_param("proj", [ppl * det * det, 1, 1], 4);
    let vol_ext = p.extent_param("vol", [vol_n * vol_n * vol_n, 1, 1], 4);
    let geo_ext = p.extent_param("geo", [ppl * 2, 1, 1], 4);
    let h_proj = p.host_memory(proj_ext);
    let d_proj = p.global_memory(proj_ext);
    let d_vol = p.global_memory(vol_ext);
    let h_vol = p.host_memory(vol_ext);
    let h_geo = p.host_memory(geo_ext);
    let m = p.module(
        ks_apps::backproj::KERNELS,
        vec![
            ("PPL", MacroBinding::Literal(ppl.to_string())),
            ("ZB", MacroBinding::Literal(zb.to_string())),
            ("VOL_N", MacroBinding::Literal(vol_n.to_string())),
        ],
    );
    let k = p.kernel(m, "backproject");
    let c_geo = p.constant_memory(m, "projGeo");
    let grid = p.triplet_param("grid", [vol_n / 8, vol_n / 8, vol_n / zb]);
    let blk = p.triplet_param("block", [8, 8, 1]);
    let every = p.schedule_param("every", 1, 0);
    let once = p.schedule_param("once", 1_000_000, 0);
    let int_args = [
        ("volN", vol_n as i64),
        ("detU", det as i64),
        ("detV", det as i64),
        ("ppl", ppl as i64),
        ("zb", zb as i64),
        ("z0", 0),
    ];
    let float_args = [
        ("sid", 40.0),
        ("sdd", 80.0),
        ("halfN", 8.0),
        ("halfU", 8.0),
        ("halfV", 8.0),
    ];
    let mut args = vec![Arg::Mem(d_proj), Arg::Mem(d_vol)];
    for (name, v) in int_args {
        let id = p.int_param(name, v);
        args.push(Arg::Param(id));
    }
    for (name, v) in float_args {
        let id = p.float_param(name, v);
        args.push(Arg::Param(id));
    }
    p.copy("geo2const", h_geo, c_geo, once);
    p.copy("h2d", h_proj, d_proj, every);
    p.exec("backproject", k, grid, blk, None, args, every);
    p.copy("d2h", d_vol, h_vol, every);
    let proj: Vec<f32> = (0..ppl * det * det)
        .map(|i| ((i * 11) % 127) as f32 * 0.5)
        .collect();
    let geo: Vec<f32> = (0..ppl)
        .flat_map(|pi| {
            let theta = pi as f32 * 0.7;
            [theta.cos(), theta.sin()]
        })
        .collect();
    p.set_host_data(h_proj, &f32_bytes(&proj));
    p.set_host_data(h_geo, &f32_bytes(&geo));
    (p, m, h_vol)
}

type Builder = fn(Arc<Compiler>) -> (Pipeline, ResId, ResId);

/// Refresh + run one pipeline; returns (bound key, final output bytes,
/// stats, violations).
fn drive(
    builder: Builder,
) -> (
    gpu_pf::BoundKey,
    Vec<u8>,
    gpu_pf::IntegrityStats,
    Vec<gpu_pf::IntegrityViolation>,
) {
    let (mut p, m, h_out) = builder(compiler());
    p.refresh().expect("refresh");
    let key = p.module_bound_key(m).expect("bound key").clone();
    p.run(ITERS).expect("run");
    (
        key,
        p.host_data(h_out).to_vec(),
        p.integrity_stats(),
        p.integrity_violations().to_vec(),
    )
}

fn flip_drill(seed: u64) {
    let drills: [(&str, Builder); 3] = [
        ("template_match", tm_pipeline),
        ("piv", piv_pipeline),
        ("backproj", bp_pipeline),
    ];

    // Fault-free pass: capture reference outputs and the per-variant
    // cache keys the flip rules will target.
    let mut clean = Vec::new();
    let mut clean_violations = 0u64;
    for (name, b) in drills {
        let (key, out, stats, violations) = drive(b);
        clean_violations += stats.violations;
        println!(
            "clean `{name}`: checks={} witness_launches={} violations={}",
            stats.checks,
            stats.witness_launches,
            violations.len()
        );
        clean.push((name, key, out));
    }
    assert_eq!(
        clean_violations, 0,
        "fault-free pass must be violation-free"
    );
    println!("clean pass: violations=0 across {} pipelines", clean.len());

    // Faulted pass: one silent flip per pipeline, keyed to exactly its
    // specialized variant (witness and vote launches carry the generic
    // key and stay clean), firing on the second launch.
    let mut plan = FaultPlan::new(seed);
    for (_, key, _) in &clean {
        plan = plan.rule(
            FaultRule::new(FaultKind::SilentFlip, Target::Key(key.fingerprint.lo64())).nth(2),
        );
    }
    let plan = Arc::new(plan);
    ks_fault::install(plan.clone());

    let mut detected = 0u64;
    let mut recovered = 0u64;
    let mut identical = 0usize;
    for (i, (name, b)) in drills.iter().enumerate() {
        let (key, out, stats, violations) = drive(*b);
        assert_eq!(
            key.fingerprint, clean[i].1.fingerprint,
            "variant key must be stable across passes"
        );
        detected += stats.violations;
        recovered += stats.recovered;
        let same = out == clean[i].2;
        if same {
            identical += 1;
        }
        let transient = violations
            .iter()
            .filter(|v| v.verdict == Verdict::TransientFlip)
            .count();
        println!(
            "faulted `{name}`: violations={} transient={} recovered={} \
             reexecutions={} outputs_match_clean={}",
            stats.violations, transient, stats.recovered, stats.reexecutions, same
        );
    }
    ks_fault::clear();

    println!("\n== fault event log (seed {seed}) ==");
    print!("{}", plan.event_log());
    println!("injected: {} faults", plan.injected_count());

    assert_eq!(plan.injected_count(), 3, "one flip per pipeline");
    assert_eq!(detected, 3);
    assert_eq!(recovered, 3);
    assert_eq!(identical, 3);
    println!(
        "\nsdc drill: pipelines 3/3, injected 3, detected 3, recovered 3, \
         outputs byte-identical to fault-free run"
    );
}

/// The two store-scrub variants: one gets its payload rotted, one stays
/// intact.
fn scrub_defines() -> (Defines, Defines) {
    (
        Defines::new().def("NUM_TILES", 8),
        Defines::new().def("NUM_TILES", 4),
    )
}

fn scrub_drill(dir: &str) {
    let (rot, keep) = scrub_defines();
    let c = Compiler::new(DeviceConfig::tesla_c1060())
        .with_store(dir)
        .expect("attach store");
    c.compile(template_match::KERNELS, &rot).expect("compile");
    c.compile(template_match::KERNELS, &keep).expect("compile");
    let hex = c.cache_key(template_match::KERNELS, &rot).to_hex();
    drop(c);

    // Rot one payload byte. The record header (magic, version,
    // fingerprint, length) stays intact, so the fast load-path header
    // check cannot see it — only the full-checksum scrub can.
    let path = std::path::Path::new(dir)
        .join(&hex[..2])
        .join(format!("{hex}.ksb"));
    let mut bytes = std::fs::read(&path).expect("read record");
    *bytes.last_mut().expect("non-empty record") ^= 0x40;
    std::fs::write(&path, &bytes).expect("write rotted record");

    // Attach-time scrub: the rotted record is caught and quarantined
    // before the load path can ever serve it.
    let (c, report) = Compiler::new(DeviceConfig::tesla_c1060())
        .with_store_scrubbed(dir)
        .expect("scrubbed attach");
    println!("{report}");
    assert_eq!(report.scanned, 2);
    assert_eq!(report.quarantined.len(), 1);
    assert!(!path.exists(), "rotted record must leave the fanout");

    // The quarantined key recompiles cleanly (a miss, then written
    // through) — no store error ever surfaces to the compile path.
    c.compile(template_match::KERNELS, &rot).expect("recompile");
    let s = c.cache_stats();
    assert_eq!(s.store_errors, 0);
    println!(
        "scrub drill: scanned=2 quarantined=1 recompiled store_errors={}",
        s.store_errors
    );
}

fn warm_start(dir: &str) {
    // Fresh process, same store: the scrub finds nothing left to
    // quarantine and both variants warm-start from disk.
    let (rot, keep) = scrub_defines();
    let (c, report) = Compiler::new(DeviceConfig::tesla_c1060())
        .with_store_scrubbed(dir)
        .expect("scrubbed attach");
    c.compile(template_match::KERNELS, &rot).expect("compile");
    c.compile(template_match::KERNELS, &keep).expect("compile");
    let s = c.cache_stats();
    assert_eq!(report.quarantined.len(), 0);
    assert_eq!(s.disk_hits, 2);
    assert_eq!(s.store_errors, 0);
    println!(
        "warm start: scanned={} quarantined=0 disk_hits={} store_errors={}",
        report.scanned, s.disk_hits, s.store_errors
    );
}

/// Measure the per-iteration cost of integrity checking (not part of
/// the deterministic CI drill — wall-clock timings vary by machine).
fn overhead() {
    let iters = 200u64;
    let configs: [(&str, Option<IntegrityConfig>); 3] = [
        ("off", None),
        (
            "period=16",
            Some(IntegrityConfig {
                witness_period: 16,
                ..IntegrityConfig::default()
            }),
        ),
        (
            "period=1",
            Some(IntegrityConfig {
                witness_period: 1,
                ..IntegrityConfig::default()
            }),
        ),
    ];
    let drills: [(&str, Builder); 3] = [
        ("template_match", tm_pipeline),
        ("piv", piv_pipeline),
        ("backproj", bp_pipeline),
    ];
    for (name, b) in drills {
        for (label, cfg) in &configs {
            let (mut p, _, _) = b(compiler());
            p.set_integrity(*cfg);
            p.refresh().expect("refresh");
            p.run(1).expect("warmup"); // compile + first-touch outside the clock
            let t0 = std::time::Instant::now();
            p.run(iters).expect("run");
            let us = t0.elapsed().as_micros() as u64 / u128::from(iters) as u64;
            let s = p.integrity_stats();
            println!(
                "overhead `{name}` integrity={label}: {us} us/iter \
                 (witness_launches={}, violations={})",
                s.witness_launches, s.violations
            );
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(dir) = arg_str(&args, "--scrub-drill") {
        scrub_drill(&dir);
        return;
    }
    if args.iter().any(|a| a == "--overhead") {
        overhead();
        return;
    }
    if let Some(dir) = arg_str(&args, "--warm-start") {
        warm_start(&dir);
        return;
    }
    let seed = arg_u64(&args, "--seed").unwrap_or(77);
    println!("sdc drill: seed={seed}, {ITERS} iterations per pipeline, witness every launch");
    flip_drill(seed);
}
