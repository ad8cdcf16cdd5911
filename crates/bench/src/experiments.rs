//! The dissertation's Chapter 6 experiments, one function each, and the
//! table the `ks-bench` driver dispatches on.

use crate::*;

/// One experiment: prints its tables and writes their CSVs.
pub type Experiment = fn(&Ctx);

/// Every experiment, in the order `all` runs them.
pub const ALL: &[(&str, Experiment)] = &[
    ("table_5_2", table_5_2),
    ("tables_6_1_to_6_9", tables_6_1_to_6_9),
    ("table_6_10", table_6_10),
    ("table_6_11", table_6_11),
    ("table_6_12", table_6_12),
    ("table_6_13", table_6_13),
    ("table_6_14", table_6_14),
    ("table_6_15", table_6_15),
    ("table_6_16", table_6_16),
    ("table_6_17", table_6_17),
    ("table_6_18", table_6_18),
    ("table_6_19", table_6_19),
    ("table_6_20", table_6_20),
    ("table_6_21", table_6_21),
    ("table_6_22", table_6_22),
    ("fig_6_1", fig_6_1),
    ("fig_6_2", fig_6_2),
    ("ablation_passes", ablation_passes),
    ("ablation_timing", ablation_timing),
];

/// Table 5.2 — Template tiling examples for the template size associated
/// with Patient 4 (156×116 pixels): how different main tile sizes
/// decompose the template into main + edge tile regions, and what each
/// choice implies for the number of specialized kernels compiled and the
/// total tile count the summation stage must reduce over.
fn table_5_2(ctx: &Ctx) {
    let (tw, th) = (156u32, 116u32);
    let mut table = Table::new(
        "table_5_2",
        "Table 5.2: tiling examples for the Patient-4 template (156x116)",
        &[
            "Main tile",
            "Regions",
            "Main tiles",
            "Edge tiles",
            "Total tiles",
            "Distinct sizes",
            "Coverage px",
        ],
    );
    for (mw, mh) in [
        (8u32, 8u32),
        (16, 8),
        (16, 16),
        (32, 16),
        (32, 32),
        (64, 58),
        (156, 116),
    ] {
        let regions = template_match::tile_regions(tw, th, mw, mh);
        let main_tiles = regions
            .first()
            .filter(|r| r.tw == mw && r.th == mh)
            .map(|r| r.num_tiles())
            .unwrap_or(0);
        let total: u32 = regions.iter().map(|r| r.num_tiles()).sum();
        let covered: u32 = regions.iter().map(|r| r.num_tiles() * r.tw * r.th).sum();
        let mut sizes: Vec<(u32, u32)> = regions.iter().map(|r| (r.tw, r.th)).collect();
        sizes.sort_unstable();
        sizes.dedup();
        assert_eq!(covered, tw * th, "tiling must cover the template exactly");
        table.row(vec![
            format!("{mw}x{mh}"),
            fmt(regions.len()),
            fmt(main_tiles),
            fmt(total - main_tiles),
            fmt(total),
            fmt(sizes.len()),
            fmt(covered),
        ]);
    }
    table.finish(&ctx.out_dir);
    println!(
        "\neach distinct tile size is one on-demand specialized compile; the\n\
         run-time-evaluated fallback needs exactly one compile regardless."
    );
}

/// Tables 6.1–6.9 — the problem and implementation parameterizations of
/// §6.1.2, printed from the same definitions the experiments use (so the
/// parameter tables and the measurements can never drift apart).
fn tables_6_1_to_6_9(ctx: &Ctx) {
    let list = |v: &[u32]| v.iter().map(u32::to_string).collect::<Vec<_>>().join(", ");

    // Table 6.1: template matching implementation parameters.
    let mut t = Table::new(
        "table_6_1",
        "Table 6.1: template matching GPU implementation parameters benchmarked",
        &["Parameter", "Values"],
    );
    let tiles: Vec<String> = ctx
        .match_tile_options()
        .iter()
        .map(|(w, h)| format!("{w}x{h}"))
        .collect();
    t.row(vec!["main tile (WxH)".into(), tiles.join(", ")]);
    t.row(vec![
        "threads per block".into(),
        list(&ctx.thread_options()),
    ]);
    t.finish(&ctx.out_dir);

    // Tables 6.2/6.3: the FPGA comparison set, in both the paper's
    // vocabularies (window/image dims; mask/offset counts).
    let mut t = Table::new(
        "table_6_2",
        "Table 6.2: PIV problem set — interrogation window and image dimensions",
        &["Set", "Image", "Window", "Step", "Search"],
    );
    for (name, p) in ctx.piv_fpga_sets() {
        t.row(vec![
            name,
            format!("{}x{}", p.img_w, p.img_h),
            format!("{}x{}", p.mask_w, p.mask_h),
            format!("{}x{}", p.step_x, p.step_y),
            format!("{}x{}", p.offs_w, p.offs_h),
        ]);
    }
    t.finish(&ctx.out_dir);

    let mut t = Table::new(
        "table_6_3",
        "Table 6.3: PIV problem set — mask and offset counts",
        &["Set", "Masks", "Offsets", "Mask-pixel x offset ops"],
    );
    for (name, p) in ctx.piv_fpga_sets() {
        let ops = p.num_masks() * p.num_offsets() * p.mask_w * p.mask_h;
        t.row(vec![
            name,
            fmt(p.num_masks()),
            fmt(p.num_offsets()),
            fmt(ops),
        ]);
    }
    t.finish(&ctx.out_dir);

    // Tables 6.4–6.6: the mask-size / search / overlap sweeps.
    for (name, title, sets) in [
        (
            "table_6_4",
            "Table 6.4: PIV mask-size sweep",
            ctx.piv_mask_sets(),
        ),
        (
            "table_6_5",
            "Table 6.5: PIV search-offset sweep",
            ctx.piv_search_sets(),
        ),
        (
            "table_6_6",
            "Table 6.6: PIV overlap sweep",
            ctx.piv_overlap_sets(),
        ),
    ] {
        let mut t = Table::new(
            name,
            title,
            &["Point", "Image", "Mask", "Step", "Offsets", "Masks"],
        );
        for (pname, p) in sets {
            t.row(vec![
                pname,
                format!("{}x{}", p.img_w, p.img_h),
                format!("{}x{}", p.mask_w, p.mask_h),
                format!("{}x{}", p.step_x, p.step_y),
                fmt(p.num_offsets()),
                fmt(p.num_masks()),
            ]);
        }
        t.finish(&ctx.out_dir);
    }

    // Table 6.7: PIV implementation parameters.
    let mut t = Table::new(
        "table_6_7",
        "Table 6.7: PIV GPU implementation parameters benchmarked",
        &["Parameter", "Values"],
    );
    t.row(vec![
        "data registers (RB)".into(),
        list(&ctx.piv_rb_options()),
    ]);
    t.row(vec![
        "threads per block".into(),
        list(&ctx.piv_thread_options()),
    ]);
    t.row(vec![
        "kernel variants".into(),
        "basic, warp-specialized".into(),
    ]);
    t.finish(&ctx.out_dir);

    // Tables 6.8/6.9: backprojection problem & implementation parameters.
    let p = ctx.backproj_problem();
    let mut t = Table::new(
        "table_6_8",
        "Table 6.8: cone beam backprojection problem parameters benchmarked",
        &["Parameter", "Values"],
    );
    t.row(vec!["volume".into(), format!("{}^3 voxels", p.n)]);
    t.row(vec![
        "projections".into(),
        format!("{} views of {}x{}", p.num_proj, p.det_u, p.det_v),
    ]);
    t.finish(&ctx.out_dir);

    let mut t = Table::new(
        "table_6_9",
        "Table 6.9: cone beam backprojection implementation parameters benchmarked",
        &["Parameter", "Values"],
    );
    t.row(vec![
        "projections per launch (PPL)".into(),
        "4, 8, 16".into(),
    ]);
    t.row(vec!["z register blocking (ZB)".into(), "1, 2, 4".into()]);
    t.row(vec!["thread block".into(), "16x8".into()]);
    t.finish(&ctx.out_dir);
}

/// Table 6.10 — Template matching: multi-threaded CPU vs the best
/// performing CUDA configuration on two GPUs. CPU times are wall-clock
/// (per frame); GPU times are simulated kernel time (per frame).
fn table_6_10(ctx: &Ctx) {
    let mut table = Table::new(
        "table_6_10",
        "Table 6.10: Template matching — CPU vs best CUDA configuration",
        &[
            "Data set",
            "corr2/frame",
            "CPU ms",
            "C1060 ms",
            "C2070 ms",
            "SU C1060",
            "SU C2070",
        ],
    );
    let mut sweeps: Vec<Sweep<MatchScenario>> = devices()
        .into_iter()
        .map(|d| Sweep::new(ctx, d, ctx.match_grid()))
        .collect();
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for (name, prob) in ctx.match_patients() {
        let scen = synth::match_scenario(
            prob.frame_w,
            prob.frame_h,
            prob.templ_w,
            prob.templ_h,
            prob.shift_w,
            prob.shift_h,
            1,
        );
        let cpu_ms = time_ms(2, || {
            let _ = template_match::cpu_ncc(&prob, &scen.frame, &scen.template, threads);
        });
        let gpu_ms: Vec<f64> = sweeps
            .iter_mut()
            .map(|s| s.best(Variant::Sk, &prob).1.sim_ms)
            .collect();
        table.row(vec![
            name.to_string(),
            fmt(prob.num_offsets()),
            fmt_ms(cpu_ms),
            fmt_ms(gpu_ms[0]),
            fmt_ms(gpu_ms[1]),
            format!("{:.1}x", cpu_ms / gpu_ms[0]),
            format!("{:.1}x", cpu_ms / gpu_ms[1]),
        ]);
    }
    table.finish(&ctx.out_dir);
}

/// Table 6.11 — PIV: FPGA reference (analytic model) vs the best
/// performing CUDA configuration on two GPUs.
fn table_6_11(ctx: &Ctx) {
    let mut table = Table::new(
        "table_6_11",
        "Table 6.11: PIV — FPGA vs best CUDA configuration",
        &[
            "Set", "Masks", "Offsets", "FPGA ms", "C1060 ms", "C2070 ms", "SU C1060", "SU C2070",
        ],
    );
    let mut sweeps: Vec<Sweep<PivScenario>> = devices()
        .into_iter()
        .map(|d| Sweep::new(ctx, d, ctx.piv_grid()))
        .collect();
    for (name, prob) in ctx.piv_fpga_sets() {
        let fpga = piv::fpga_model_ms(&prob);
        let gpu: Vec<f64> = sweeps
            .iter_mut()
            .map(|s| s.best((Variant::Sk, PivKernel::Basic), &prob).1.sim_ms)
            .collect();
        table.row(vec![
            name,
            fmt(prob.num_masks()),
            fmt(prob.num_offsets()),
            fmt_ms(fpga),
            fmt_ms(gpu[0]),
            fmt_ms(gpu[1]),
            format!("{:.1}x", fpga / gpu[0]),
            format!("{:.1}x", fpga / gpu[1]),
        ]);
    }
    table.finish(&ctx.out_dir);
}

/// The backprojection grid: every (block, PPL, ZB) whose PPL divides
/// the projection count, in tie-break order.
fn backproj_grid(p: &BackprojProblem, blocks: &[(u32, u32)], ppls: &[u32]) -> Vec<BackprojImpl> {
    let ppls = ppls
        .iter()
        .filter(|&&ppl| (p.num_proj as u32).is_multiple_of(ppl));
    let mut grid = Vec::new();
    for &(block_x, block_y) in blocks {
        for &ppl in ppls.clone() {
            grid.extend([1, 2, 4].map(|zb| BackprojImpl {
                block_x,
                block_y,
                ppl,
                zb,
            }));
        }
    }
    grid
}

/// Table 6.12 — Cone-beam backprojection: OpenMP-style CPU (4 threads)
/// vs the best performing configuration on both GPUs.
fn table_6_12(ctx: &Ctx) {
    let prob = ctx.backproj_problem();
    let scen = CtScenario::generate(&prob);
    let mut table = Table::new(
        "table_6_12",
        "Table 6.12: Backprojection — 4-thread CPU vs best GPU configuration",
        &[
            "Volume",
            "Projections",
            "CPU ms",
            "C1060 ms",
            "C2070 ms",
            "SU C1060",
            "SU C2070",
        ],
    );
    let cpu_ms = time_ms(2, || {
        let _ = backproj::cpu_backproject(&prob, &scen, 4);
    });
    let grid = backproj_grid(&prob, &[(16, 8)], &[4, 8, 16]);
    let gpu: Vec<f64> = devices()
        .into_iter()
        .map(|d| {
            let mut sweep = Sweep::<CtScenario>::new(ctx, d, grid.clone());
            sweep.best(Variant::Sk, &prob).1.sim_ms
        })
        .collect();
    table.row(vec![
        format!("{}^3", prob.n),
        fmt(prob.num_proj),
        fmt_ms(cpu_ms),
        fmt_ms(gpu[0]),
        fmt_ms(gpu[1]),
        format!("{:.1}x", cpu_ms / gpu[0]),
        format!("{:.1}x", cpu_ms / gpu[1]),
    ]);
    table.finish(&ctx.out_dir);
}

/// Table 6.13 — Template matching partial sums: performance and optimal
/// configuration characteristics for the tiled summation kernel,
/// run-time evaluated (RE) vs specialized (SK).
fn table_6_13(ctx: &Ctx) {
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
        let mut sweep = Sweep::<MatchScenario>::new(ctx, dev, ctx.match_grid());
        for (name, prob) in ctx.match_patients() {
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
    }
    table.finish(&ctx.out_dir);
}

/// Table 6.14 — PIV GPU performance comparisons for several kernel
/// variants across the FPGA benchmark set: run-time evaluated,
/// specialized, and specialized + warp-specialized reduction.
fn table_6_14(ctx: &Ctx) {
    let mut table = Table::new(
        "table_6_14",
        "Table 6.14: PIV kernel variants across the FPGA benchmark set",
        &[
            "Device",
            "Set",
            "RE ms",
            "SK ms",
            "SK+warp ms",
            "SK+tex ms",
            "SK/RE",
            "warp/SK",
            "tex/SK",
        ],
    );
    for dev in devices() {
        let dev_name = dev.name.clone();
        let mut sweep = Sweep::<PivScenario>::new(ctx, dev, ctx.piv_grid());
        for (name, prob) in ctx.piv_fpga_sets() {
            let (_, re) = sweep.best((Variant::Re, PivKernel::Basic), &prob);
            let (_, sk) = sweep.best((Variant::Sk, PivKernel::Basic), &prob);
            let (_, ws) = sweep.best((Variant::Sk, PivKernel::WarpSpec), &prob);
            let (_, tx) = sweep.best((Variant::Sk, PivKernel::Textured), &prob);
            table.row(vec![
                dev_name.clone(),
                name,
                fmt_ms(re.sim_ms),
                fmt_ms(sk.sim_ms),
                fmt_ms(ws.sim_ms),
                fmt_ms(tx.sim_ms),
                format!("{:.2}x", re.sim_ms / sk.sim_ms),
                format!("{:.2}x", sk.sim_ms / ws.sim_ms),
                format!("{:.2}x", sk.sim_ms / tx.sim_ms),
            ]);
        }
    }
    table.finish(&ctx.out_dir);
}

/// Tables 6.15–6.18: for each problem set, the specialized PIV kernel's
/// best (RB, threads) on each device — "performance + optimal
/// configuration".
fn piv_sweep_table(
    ctx: &Ctx,
    name: &str,
    title: &str,
    set_label: &str,
    sets: &[(String, PivProblem)],
) {
    let mut headers = vec![set_label.to_string(), "Masks".into(), "Offsets".into()];
    for d in devices() {
        headers.push(format!("{} ms", d.name));
        headers.extend(["RB", "Thr", "Regs", "Occ"].map(String::from));
    }
    let mut table = Table::new(name, title, &headers);
    let mut sweeps: Vec<Sweep<PivScenario>> = devices()
        .into_iter()
        .map(|d| Sweep::new(ctx, d, ctx.piv_grid()))
        .collect();
    for (set_name, prob) in sets {
        let mut row = vec![
            set_name.clone(),
            fmt(prob.num_masks()),
            fmt(prob.num_offsets()),
        ];
        for sweep in &mut sweeps {
            let (imp, s) = sweep.best((Variant::Sk, PivKernel::Basic), prob);
            row.push(fmt_ms(s.sim_ms));
            row.push(fmt(imp.rb));
            row.push(fmt(imp.threads));
            row.push(fmt(s.regs));
            row.push(format!("{:.2}", s.occupancy));
        }
        table.row(row);
    }
    table.finish(&ctx.out_dir);
}

/// Table 6.15 — PIV performance for the FPGA benchmark set, including the
/// optimal register blocking and thread counts per device.
fn table_6_15(ctx: &Ctx) {
    piv_sweep_table(
        ctx,
        "table_6_15",
        "Table 6.15: PIV FPGA benchmark set — optimal register blocking & threads",
        "Set",
        &ctx.piv_fpga_sets(),
    );
}

/// Table 6.16 — PIV performance versus interrogation-window (mask) size
/// (the Table 6.4 problem set), with optimal register blocking and thread
/// counts.
fn table_6_16(ctx: &Ctx) {
    piv_sweep_table(
        ctx,
        "table_6_16",
        "Table 6.16: PIV vs mask size — optimal register blocking & threads",
        "Mask",
        &ctx.piv_mask_sets(),
    );
}

/// Table 6.17 — PIV performance versus the number of search offsets (the
/// Table 6.5 problem set).
fn table_6_17(ctx: &Ctx) {
    piv_sweep_table(
        ctx,
        "table_6_17",
        "Table 6.17: PIV vs search offsets — optimal register blocking & threads",
        "Search",
        &ctx.piv_search_sets(),
    );
}

/// Table 6.18 — PIV performance versus interrogation-window overlap (the
/// Table 6.6 problem set).
fn table_6_18(ctx: &Ctx) {
    piv_sweep_table(
        ctx,
        "table_6_18",
        "Table 6.18: PIV vs window overlap — optimal register blocking & threads",
        "Overlap",
        &ctx.piv_overlap_sets(),
    );
}

/// Table 6.19 — Performance comparisons for the backprojection kernels:
/// RE vs SK across (projections-per-launch × z-blocking) configurations.
fn table_6_19(ctx: &Ctx) {
    let prob = ctx.backproj_problem();
    let grid = backproj_grid(&prob, &[(8, 8), (16, 8), (16, 16)], &[8, 16]);
    let mut table = Table::new(
        "table_6_19",
        "Table 6.19: Backprojection kernel comparisons (RE vs SK)",
        &[
            "Device", "Block", "PPL", "ZB", "RE ms", "RE regs", "SK ms", "SK regs", "Speedup",
        ],
    );
    for dev in devices() {
        let dev_name = dev.name.clone();
        let mut sweep = Sweep::<CtScenario>::new(ctx, dev, grid.clone());
        let (_, best_re) = sweep.best(Variant::Re, &prob);
        let (_, best_sk) = sweep.best(Variant::Sk, &prob);
        for imp in &grid {
            let re = sweep.eval(Variant::Re, &prob, imp);
            let sk = sweep.eval(Variant::Sk, &prob, imp);
            table.row(vec![
                dev_name.clone(),
                format!("{}x{}", imp.block_x, imp.block_y),
                fmt(imp.ppl),
                fmt(imp.zb),
                fmt_ms(re.sim_ms),
                fmt(re.regs),
                fmt_ms(sk.sim_ms),
                fmt(sk.regs),
                format!("{:.2}x", re.sim_ms / sk.sim_ms),
            ]);
        }
        table.row(vec![
            dev_name,
            "best".into(),
            "-".into(),
            "-".into(),
            fmt_ms(best_re.sim_ms),
            "-".into(),
            fmt_ms(best_sk.sim_ms),
            "-".into(),
            format!("{:.2}x", best_re.sim_ms / best_sk.sim_ms),
        ]);
    }
    table.finish(&ctx.out_dir);
}

/// Table 6.20 — Occupancy and execution data for the Tesla C1060 on the
/// PIV V2 data set: per kernel variant and configuration, registers per
/// thread, shared memory, blocks per SM, active warps, occupancy, time.
fn table_6_20(ctx: &Ctx) {
    let prob = ctx.piv_fpga_sets()[1].1;
    let mut sweep = Sweep::<PivScenario>::new(ctx, DeviceConfig::tesla_c1060(), Vec::new());
    let mut table = Table::new(
        "table_6_20",
        "Table 6.20: Occupancy & execution data, Tesla C1060, PIV V2 set",
        &[
            "Variant",
            "RB",
            "Threads",
            "Regs",
            "Shared B",
            "Local B",
            "Blk/SM",
            "Warps",
            "Occupancy",
            "ms",
        ],
    );
    for (variant, tag) in [
        ((Variant::Re, PivKernel::Basic), "RE"),
        ((Variant::Sk, PivKernel::Basic), "SK"),
        ((Variant::Sk, PivKernel::WarpSpec), "SK+warp"),
    ] {
        for rb in [2u32, 4, 8] {
            for threads in [64u32, 128, 256] {
                let s = sweep.eval(variant, &prob, &PivImpl { rb, threads });
                table.row(vec![
                    tag.to_string(),
                    fmt(rb),
                    fmt(threads),
                    fmt(s.regs),
                    fmt(s.shared_bytes),
                    fmt(s.local_bytes),
                    fmt(s.blocks_per_sm),
                    fmt(s.active_warps),
                    format!("{:.2}", s.occupancy),
                    fmt_ms(s.sim_ms),
                ]);
            }
        }
    }
    table.finish(&ctx.out_dir);
}

/// Tables 6.21/6.22: per device, every *fixed* configuration of a sweep
/// grid as a percentage of each data set's peak (its best configuration
/// on that grid), and the worst of those across the sets — how much
/// performance a one-size-fits-all configuration leaves behind.
/// `grid(dev)` gives one row per configuration: its label cells and its
/// simulated time on each set, in `headers` order.
fn pct_of_peak(
    ctx: &Ctx,
    name: &str,
    title: &str,
    mut headers: Vec<String>,
    grid: impl Fn(DeviceConfig) -> Vec<(Vec<String>, Vec<f64>)>,
) {
    headers.push("Min %".into());
    for dev in devices() {
        let dev_name = dev.name.clone();
        let rows = grid(dev);
        let peaks: Vec<f64> = (0..rows[0].1.len())
            .map(|s| rows.iter().map(|(_, t)| t[s]).fold(f64::INFINITY, f64::min))
            .collect();
        let tag = dev_name.replace(' ', "_").to_lowercase();
        let mut table = Table::new(
            &format!("{name}_{tag}"),
            &format!("{title} — {dev_name}"),
            &headers,
        );
        for (mut row, times) in rows {
            let pcts: Vec<f64> = peaks
                .iter()
                .zip(&times)
                .map(|(p, t)| p / t * 100.0)
                .collect();
            row.extend(pcts.iter().map(|pct| format!("{pct:.0}%")));
            let min_pct = pcts.into_iter().fold(f64::INFINITY, f64::min);
            row.push(format!("{min_pct:.0}%"));
            table.row(row);
        }
        table.finish(&ctx.out_dir);
    }
}

/// Table 6.21 — Percentage of peak performance for the template matching
/// application with various *fixed* main tile sizes and thread counts,
/// per data set (the motivation for adjustable implementation
/// parameters).
fn table_6_21(ctx: &Ctx) {
    let patients = ctx.match_patients();
    let mut headers = vec!["Tile".to_string(), "Threads".into()];
    headers.extend(patients.iter().map(|(n, _)| n.to_string()));
    let grid = |dev| {
        let mut sweep = Sweep::<MatchScenario>::new(ctx, dev, ctx.match_grid());
        for (_, p) in &patients {
            sweep.precompile(Variant::Sk, p);
        }
        let mut rows = Vec::new();
        for imp in sweep.grid.clone() {
            let label = vec![format!("{}x{}", imp.tile_w, imp.tile_h), fmt(imp.threads)];
            let times = patients
                .iter()
                .map(|(_, p)| sweep.eval(Variant::Sk, p, &imp));
            rows.push((label, times.map(|s| s.sim_ms).collect()));
        }
        rows
    };
    pct_of_peak(
        ctx,
        "table_6_21",
        "Table 6.21: % of peak with fixed configs",
        headers,
        grid,
    );
}

/// Table 6.22 — Percentage of peak performance for the PIV application
/// with various *fixed* data register counts and thread counts, across
/// the mask-size data sets (Table 6.4).
fn table_6_22(ctx: &Ctx) {
    let sets = ctx.piv_mask_sets();
    let mut headers = vec!["RB".to_string(), "Threads".into()];
    headers.extend(sets.iter().map(|(n, _)| n.clone()));
    let grid = |dev| {
        let mut sweep = Sweep::<PivScenario>::new(ctx, dev, ctx.piv_grid());
        for (_, p) in &sets {
            sweep.precompile((Variant::Sk, PivKernel::Basic), p);
        }
        let mut rows = Vec::new();
        for imp in sweep.grid.clone() {
            let label = vec![fmt(imp.rb), fmt(imp.threads)];
            let times = sets
                .iter()
                .map(|(_, p)| sweep.eval((Variant::Sk, PivKernel::Basic), p, &imp));
            rows.push((label, times.map(|s| s.sim_ms).collect()));
        }
        rows
    };
    pct_of_peak(
        ctx,
        "table_6_22",
        "Table 6.22: PIV % of peak with fixed configs",
        headers,
        grid,
    );
}

/// Figures 6.1/6.2: per Table 6.4 data set, a (threads × RB) grid of PIV
/// performance relative to the peak, printed as an ASCII contour (peak
/// marked `#`) and written as CSV.
fn piv_contour(ctx: &Ctx, name: &str, dev: DeviceConfig) {
    let dev_name = dev.name.clone();
    let mut sweep = Sweep::<PivScenario>::new(ctx, dev, ctx.piv_grid());
    let (rbs, threads) = (ctx.piv_rb_options(), ctx.piv_thread_options());
    println!("=== {name}: PIV performance relative to peak — {dev_name} ===");
    for (set_name, prob) in ctx.piv_mask_sets() {
        sweep.precompile((Variant::Sk, PivKernel::Basic), &prob);
        let times: Vec<Vec<f64>> = threads
            .iter()
            .map(|&t| {
                rbs.iter()
                    .map(|&rb| {
                        let imp = PivImpl { rb, threads: t };
                        sweep
                            .eval((Variant::Sk, PivKernel::Basic), &prob, &imp)
                            .sim_ms
                    })
                    .collect()
            })
            .collect();
        let best = times
            .iter()
            .flatten()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let rel: Vec<Vec<f64>> = times
            .iter()
            .map(|row| row.iter().map(|t| best / t).collect())
            .collect();
        println!("\n--- data set {set_name} (peak {} ms) ---", fmt_ms(best));
        print!("{}", ascii_contour(&threads, &rbs, &rel, "threads", "rb"));
        let mut headers = vec!["threads\\rb".to_string()];
        headers.extend(rbs.iter().map(|r| r.to_string()));
        let mut table = Table::new(
            &format!("{name}_{}", set_name.replace(['x', '%'], "_")),
            &format!("{name} data set {set_name} ({dev_name})"),
            &headers,
        );
        for (&t, rel) in threads.iter().zip(&rel) {
            let mut row = vec![t.to_string()];
            row.extend(rel.iter().map(|v| format!("{v:.3}")));
            table.row(row);
        }
        table.finish(&ctx.out_dir);
    }
}

/// Figure 6.1 — PIV performance contours on the Tesla C1060.
fn fig_6_1(ctx: &Ctx) {
    piv_contour(ctx, "fig_6_1", DeviceConfig::tesla_c1060());
}

/// Figure 6.2 — the same contours on the Tesla C2070.
fn fig_6_2(ctx: &Ctx) {
    piv_contour(ctx, "fig_6_2", DeviceConfig::tesla_c2070());
}

/// Ablation study: which compile-time optimization buys what?
///
/// The dissertation's thesis is that specialization matters because it
/// *enables* a set of static-value optimizations (§2.4). This isolates
/// each one on the specialized PIV kernel (V2 data set) by disabling
/// passes individually and re-running the simulator: no loop unrolling
/// (HIR `unroll_limit = 0`), no scalarization (HIR `scalarize_cap = 0` —
/// register blocking falls back to local memory even though RB is
/// compile-time), no strength reduction, no CSE, no address folding, no
/// IR optimization at all (-O0 backend), no HIR optimization.
fn ablation_passes(ctx: &Ctx) {
    let prob = PivProblem::standard(ctx.pick(512, 256), 32, 50, 8);
    let imp = PivImpl {
        rb: 4,
        threads: 128,
    };
    let scen = synth::piv_scenario(prob.img_w, prob.img_h, (3, 1), 42);
    let mut table = Table::new(
        "ablation_passes",
        "Ablation: specialized PIV kernel (V2 set, RB=4, 128 thr) with passes disabled",
        &[
            "Device",
            "Config",
            "ms",
            "vs full",
            "Regs",
            "Local B",
            "Dyn insts",
        ],
    );
    type Disable = fn(&mut CodegenOptions, &mut OptConfig);
    let configs: [(&str, Disable); 8] = [
        ("full", |_, _| {}),
        ("no-unroll", |c, _| c.unroll_limit = 0),
        ("no-scalarize", |c, _| c.scalarize_cap = 0),
        ("no-strength", |_, o| o.strength = false),
        ("no-cse", |_, o| o.cse = false),
        ("no-addrfold", |_, o| o.addrfold = false),
        ("-O0 backend", |_, o| *o = OptConfig::none()),
        ("no-hir-opts", |c, _| c.optimize = false),
    ];
    for dev in devices() {
        let mut full_ms = None;
        for (name, disable) in configs {
            let mut passes: (CodegenOptions, OptConfig) = Default::default();
            disable(&mut passes.0, &mut passes.1);
            let compiler = ctx.compiler(dev.clone(), passes);
            let out = piv::run_gpu(
                &compiler,
                Variant::Sk,
                PivKernel::Basic,
                &prob,
                &imp,
                &scen,
                false,
            )
            .expect(name);
            let ms = out.run.sim_ms;
            let base = *full_ms.get_or_insert(ms);
            let rep = &out.run.reports[0];
            table.row(vec![
                dev.name.clone(),
                name.to_string(),
                fmt_ms(ms),
                format!("{:+.1}%", (ms / base - 1.0) * 100.0),
                fmt(out.run.regs_per_thread()),
                fmt(rep.local_bytes_per_thread),
                fmt(rep.stats.dyn_insts),
            ]);
        }
    }
    table.finish(&ctx.out_dir);
}

/// Timing-model ablation: the default hybrid model (per-warp scoreboard +
/// analytic SM assembly) versus the event-driven SM scheduler, across the
/// PIV FPGA benchmark set. The models are independent implementations;
/// their agreement on RE/SK ordering and rough magnitudes is a validation
/// check on both.
fn ablation_timing(ctx: &Ctx) {
    let mut table = Table::new(
        "ablation_timing",
        "Timing-model ablation: hybrid vs event-driven SM scheduler (PIV)",
        &["Device", "Set", "Variant", "Hybrid ms", "Event ms", "ratio"],
    );
    let imp = PivImpl {
        rb: 4,
        threads: 128,
    };
    for dev in devices() {
        let compiler = ctx.compiler(dev.clone(), Default::default());
        for (name, prob) in ctx.piv_fpga_sets().into_iter().take(ctx.pick(3, 1)) {
            let scen = synth::piv_scenario(prob.img_w, prob.img_h, (2, 1), 9);
            for variant in [Variant::Re, Variant::Sk] {
                let time = |event_timing| {
                    let opts = ks_sim::LaunchOptions {
                        functional: false,
                        timing_sample_blocks: 6,
                        event_timing,
                        ..Default::default()
                    };
                    let out = piv::run_gpu_with(
                        &compiler,
                        variant,
                        PivKernel::Basic,
                        &prob,
                        &imp,
                        &scen,
                        opts,
                    );
                    out.unwrap().run.sim_ms
                };
                let (hybrid, event) = (time(false), time(true));
                table.row(vec![
                    dev.name.clone(),
                    name.clone(),
                    variant.to_string(),
                    fmt_ms(hybrid),
                    fmt_ms(event),
                    format!("{:.2}", event / hybrid),
                ]);
            }
        }
    }
    table.finish(&ctx.out_dir);
}
