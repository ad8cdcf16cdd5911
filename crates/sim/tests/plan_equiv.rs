//! The decode-once executor must be the same simulation as the
//! tree-walking interpreter it replaced. `golden/plan_equiv.txt` was
//! written by that interpreter (the commit before `LaunchPlan` existed)
//! with `cargo test -p ks-sim --test plan_equiv -- --ignored bless`; every
//! case below re-runs on the current executor and must reproduce its line
//! exactly: every `ExecStats` field, cycles, bound, occupancy, register
//! and instruction counts, the output bytes (hashed), and the text of
//! every trap. Every case runs twice through one `LaunchPlan`, so the
//! second run of a data-independent kernel takes its timing sample from
//! the plan's memo and must reproduce the same line.

use ks_codegen::{compile, CodegenOptions};
use ks_ir::{
    Address, BasicBlock, BinOp, BlockId, Function, Inst, KernelParam, Module, Operand, Space,
    SpecialReg, Terminator, Ty, VReg,
};
use ks_lang::frontend;
use ks_sim::*;
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plan_equiv.txt");

const TEMPLATE_MATCH: &str = include_str!("../../apps/src/kernels/template_match.cu");
const PIV: &str = include_str!("../../apps/src/kernels/piv.cu");
const BACKPROJ: &str = include_str!("../../apps/src/kernels/backproj.cu");

fn module(src: &str, defs: &[(&str, &str)]) -> Module {
    let defs: Vec<(String, String)> = defs
        .iter()
        .map(|(a, b)| (a.to_string(), b.to_string()))
        .collect();
    let prog = frontend(src, &defs).unwrap();
    let mut m = compile(&prog, &CodegenOptions::default()).unwrap();
    ks_opt::optimize_module(&mut m);
    m
}

/// Deterministic input data in [-1, 1).
fn noise(n: usize, seed: u32) -> Vec<f32> {
    let mut x = seed.wrapping_mul(2654435761).wrapping_add(12345);
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            (x >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x100000001b3)
    })
}

fn alloc_f32(st: &mut DeviceState, data: &[f32]) -> u64 {
    let p = st.global.alloc(data.len() as u64 * 4).unwrap();
    st.global.write_f32_slice(p, data).unwrap();
    p
}

/// One launch to compare: what to run and which buffers it writes.
struct Run {
    kernel: &'static str,
    dims: LaunchDims,
    args: Vec<KArg>,
    outputs: Vec<(u64, u64)>,
}

fn dims(grid: (u32, u32, u32), block: (u32, u32, u32)) -> LaunchDims {
    LaunchDims {
        grid,
        block,
        dynamic_shared: 0,
    }
}

const TM_SK: &[(&str, &str)] = &[
    ("TILE_W", "8"),
    ("TILE_H", "8"),
    ("SHIFT_W", "8"),
    ("NUM_TILES", "4"),
    ("TEMPL_W", "16"),
    ("TEMPL_H", "16"),
    ("THREADS", "64"),
];

/// 48-thread blocks (a partial second warp), two of them per tile so the
/// `o < numOffsets` guard splits a warp.
fn numerator_tiles(st: &mut DeviceState, _m: &Module) -> Run {
    let frame = alloc_f32(st, &noise(32 * 32, 1));
    let templ = alloc_f32(st, &noise(16 * 16, 2));
    let partial = alloc_f32(st, &[0.0; 4 * 64]);
    Run {
        kernel: "numerator_tiles",
        dims: dims((2, 4, 1), (48, 1, 1)),
        args: vec![
            KArg::Ptr(frame),
            KArg::Ptr(templ),
            KArg::Ptr(partial),
            KArg::I32(32),
            KArg::I32(8),
            KArg::I32(64),
            KArg::I32(16),
            KArg::I32(8),
            KArg::I32(8),
            KArg::I32(2),
            KArg::I32(0),
            KArg::I32(0),
            KArg::I32(0),
        ],
        outputs: vec![(partial, 4 * 64 * 4)],
    }
}

/// Shared memory, barriers, a divergent tree reduction.
fn window_stats(st: &mut DeviceState, _m: &Module) -> Run {
    let frame = alloc_f32(st, &noise(32 * 32, 3));
    let sums = alloc_f32(st, &[0.0; 12]);
    let sumsq = alloc_f32(st, &[0.0; 12]);
    Run {
        kernel: "window_stats",
        dims: dims((12, 1, 1), (64, 1, 1)),
        args: vec![
            KArg::Ptr(frame),
            KArg::Ptr(sums),
            KArg::Ptr(sumsq),
            KArg::I32(32),
            KArg::I32(8),
            KArg::I32(12),
            KArg::I32(16),
            KArg::I32(16),
        ],
        outputs: vec![(sums, 48), (sumsq, 48)],
    }
}

const PIV_SK: &[(&str, &str)] = &[
    ("RB", "2"),
    ("THREADS", "64"),
    ("MASK_W", "8"),
    ("MASK_H", "8"),
    ("OFFS_W", "3"),
];

fn piv_run(st: &mut DeviceState, kernel: &'static str) -> Run {
    let img_a = alloc_f32(st, &noise(32 * 32, 4));
    let img_b = alloc_f32(st, &noise(32 * 32, 5));
    let scores = alloc_f32(st, &[0.0; 4 * 9]);
    st.bind_texture("texA", img_a);
    st.bind_texture("texB", img_b);
    Run {
        kernel,
        dims: dims((4, 5, 1), (64, 1, 1)),
        args: vec![
            KArg::Ptr(img_a),
            KArg::Ptr(img_b),
            KArg::Ptr(scores),
            KArg::I32(32),
            KArg::I32(8),
            KArg::I32(8),
            KArg::I32(3),
            KArg::I32(9),
            KArg::I32(2),
            KArg::I32(8),
            KArg::I32(8),
            KArg::I32(2),
            KArg::I32(2),
            KArg::I32(2),
        ],
        outputs: vec![(scores, 4 * 9 * 4)],
    }
}

fn piv_ssd(st: &mut DeviceState, _m: &Module) -> Run {
    piv_run(st, "piv_ssd")
}

fn piv_ssd_tex(st: &mut DeviceState, _m: &Module) -> Run {
    piv_run(st, "piv_ssd_tex")
}

const BP_SK: &[(&str, &str)] = &[("PPL", "4"), ("ZB", "2"), ("VOL_N", "8")];

/// Constant memory, and in the RE build a dynamically indexed local array.
fn backproject(st: &mut DeviceState, m: &Module) -> Run {
    let proj = alloc_f32(st, &noise(4 * 12 * 12, 6));
    let vol = alloc_f32(st, &noise(8 * 8 * 8, 7));
    let geo: Vec<u8> = (0..4)
        .flat_map(|p| {
            let theta = p as f32 * 0.7;
            [theta.cos(), theta.sin()]
        })
        .flat_map(|v| v.to_le_bytes())
        .collect();
    st.set_const(m, "projGeo", &geo).unwrap();
    Run {
        kernel: "backproject",
        dims: dims((1, 2, 4), (8, 4, 1)),
        args: vec![
            KArg::Ptr(proj),
            KArg::Ptr(vol),
            KArg::I32(8),
            KArg::I32(12),
            KArg::I32(12),
            KArg::I32(4),
            KArg::I32(2),
            KArg::I32(0),
            KArg::F32(100.0),
            KArg::F32(150.0),
            KArg::F32(4.0),
            KArg::F32(6.0),
            KArg::F32(6.0),
        ],
        outputs: vec![(vol, 8 * 8 * 8 * 4)],
    }
}

/// An app kernel: its source, the `-D` set of its SK build, and a launch.
struct AppKernel {
    name: &'static str,
    source: &'static str,
    sk_defs: &'static [(&'static str, &'static str)],
    setup: fn(&mut DeviceState, &Module) -> Run,
}

const APP_KERNELS: &[AppKernel] = &[
    AppKernel {
        name: "tm.numerator_tiles",
        source: TEMPLATE_MATCH,
        sk_defs: TM_SK,
        setup: numerator_tiles,
    },
    AppKernel {
        name: "tm.window_stats",
        source: TEMPLATE_MATCH,
        sk_defs: TM_SK,
        setup: window_stats,
    },
    AppKernel {
        name: "piv.piv_ssd",
        source: PIV,
        sk_defs: PIV_SK,
        setup: piv_ssd,
    },
    AppKernel {
        name: "piv.piv_ssd_tex",
        source: PIV,
        sk_defs: PIV_SK,
        setup: piv_ssd_tex,
    },
    AppKernel {
        name: "bp.backproject",
        source: BACKPROJ,
        sk_defs: BP_SK,
        setup: backproject,
    },
];

/// Everything a launch reports that is not host time, on one line.
fn describe(st: &DeviceState, run: &Run, result: Result<LaunchReport, SimError>) -> String {
    let r = match result {
        Ok(r) => r,
        Err(e) => return format!("trap: {}", e.0),
    };
    let mut s = String::new();
    write!(
        s,
        "cycles={} time_ms={:?} bound={:?} occ={:?} regs={} preds={} shared={} local={} \
         static={} stats={:?}",
        r.cycles,
        r.time_ms,
        r.bound,
        r.occupancy,
        r.regs_per_thread,
        r.pred_regs,
        r.shared_per_block,
        r.local_bytes_per_thread,
        r.static_insts,
        r.stats
    )
    .unwrap();
    for (addr, len) in &run.outputs {
        let bytes = st.global.read_bytes(*addr, *len).unwrap();
        write!(s, " out={:016x}", fnv(bytes)).unwrap();
    }
    s
}

/// The case's line, from two launches through one plan on identical
/// fresh devices: the second reuses the first's timing sample wherever
/// the plan is data-independent and the first succeeded, and both must
/// describe the same launch.
fn run_case(
    dev: &DeviceConfig,
    m: &Module,
    setup: impl Fn(&mut DeviceState, &Module) -> Run,
    opts: LaunchOptions,
) -> String {
    let mut plan = None;
    let mut run_once = || {
        let mut st = DeviceState::new(dev.clone(), 4 << 20);
        let run = setup(&mut st, m);
        let plan =
            plan.get_or_insert_with(|| LaunchPlan::from_function(m.function(run.kernel).unwrap()));
        let result = launch_planned(&mut st, &m.textures, plan, run.dims, &run.args, opts, 0, "");
        let line = describe(&st, &run, result);
        (line, plan.timing_memo_len())
    };
    let (first, remembered) = run_once();
    let (second, still) = run_once();
    let data_independent = plan.as_ref().unwrap().timing_is_data_independent();
    if data_independent && !first.starts_with("trap") {
        assert_eq!(
            (remembered, still),
            (1, 1),
            "the second launch was not a hit"
        );
    }
    assert_eq!(second, first, "the memo hit differs from the miss");
    first
}

// ---- fixtures: the corners the row-wise executor could get wrong ----

fn fixture_module(src: &str) -> Module {
    module(src, &[])
}

/// `n` ints at a fresh allocation.
fn alloc_i32(st: &mut DeviceState, data: &[i32]) -> u64 {
    let p = st.global.alloc(data.len() as u64 * 4).unwrap();
    st.global.write_i32_slice(p, data).unwrap();
    p
}

const GUARDED_DIV: &str = r#"
    __global__ void guarded(int* d, int* out) {
        int t = (int)threadIdx.x;
        int v = -1;
        if (d[t] != 0) { v = 1000 / d[t] + 1000 % d[t]; }
        out[t] = v;
    }
    __global__ void unguarded_div(int* d, int* out) {
        int t = (int)threadIdx.x;
        out[t] = 1000 / d[t];
    }
    __global__ void unguarded_rem(int* d, int* out) {
        int t = (int)threadIdx.x;
        out[t] = 1000 % d[t];
    }
"#;

/// Divisors with zeros in lanes 3 and 17.
fn divisors() -> Vec<i32> {
    (0..32)
        .map(|i| if i == 3 || i == 17 { 0 } else { i - 8 })
        .collect()
}

fn div_run(kernel: &'static str) -> impl Fn(&mut DeviceState, &Module) -> Run {
    move |st, _| {
        let d = alloc_i32(st, &divisors());
        let out = alloc_i32(st, &[0; 32]);
        Run {
            kernel,
            dims: dims((1, 1, 1), (32, 1, 1)),
            args: vec![KArg::Ptr(d), KArg::Ptr(out)],
            outputs: vec![(out, 128)],
        }
    }
}

const DIVERGE: &str = r#"
    __global__ void diverge(int* in, int* out) {
        int t = (int)(blockIdx.x * blockDim.x + threadIdx.x);
        int v = 100 + t;
        int w = 7;
        for (int k = 0; k < (t & 3); k++) {
            v = v + in[k];
            w = w * 3;
        }
        if ((t & 5) == 1) { v = v * 2; } else { w = w - t; }
        out[t] = v + w;
    }
"#;

fn diverge_run(st: &mut DeviceState, _m: &Module) -> Run {
    let inp = alloc_i32(st, &[5, 11, 17, 23]);
    let out = alloc_i32(st, &[0; 80]);
    Run {
        kernel: "diverge",
        // 40 threads: a full warp and a quarter of one.
        dims: dims((2, 1, 1), (40, 1, 1)),
        args: vec![KArg::Ptr(inp), KArg::Ptr(out)],
        outputs: vec![(out, 320)],
    }
}

const STORE_AT: &str = r#"
    __global__ void store_at(int* out, int offset) {
        out[(int)threadIdx.x + offset] = 1;
    }
"#;

/// `store_at` through the pointer `adjust` makes of a 32-int buffer.
fn store_at(adjust: fn(u64) -> u64, offset: i32) -> impl Fn(&mut DeviceState, &Module) -> Run {
    move |st, _| {
        let out = alloc_i32(st, &[0; 32]);
        Run {
            kernel: "store_at",
            dims: dims((1, 1, 1), (32, 1, 1)),
            args: vec![KArg::Ptr(adjust(out)), KArg::I32(offset)],
            outputs: vec![(out, 128)],
        }
    }
}

const RACY: &str = r#"
    __global__ void racy(float* a, float* out) {
        __shared__ float s[64];
        int t = threadIdx.x;
        s[t] = a[t];
        out[t] = s[(t + 32) & 63];
    }
"#;

const HALF_BARRIER: &str = r#"
    __global__ void half_barrier(float* a, float* out) {
        int t = threadIdx.x;
        if (t < 32) { __syncthreads(); }
        out[t] = a[t];
    }
"#;

fn two_buffers(kernel: &'static str) -> impl Fn(&mut DeviceState, &Module) -> Run {
    move |st, _| {
        let a = alloc_f32(st, &noise(64, 9));
        let out = alloc_f32(st, &[0.0; 64]);
        Run {
            kernel,
            dims: dims((1, 1, 1), (64, 1, 1)),
            args: vec![KArg::Ptr(a), KArg::Ptr(out)],
            outputs: vec![(out, 256)],
        }
    }
}

/// A hand-built kernel no front end would emit: `out[gid] = r` with `r`
/// read before its only write (`r = tid + 1`, afterwards).
fn stale_register_module() -> Module {
    let ptr = Ty::Ptr(Space::Global);
    let mut f = Function {
        name: "stale".into(),
        params: vec![KernelParam {
            name: "out".into(),
            ty: ptr,
            offset: 0,
        }],
        blocks: vec![],
        vreg_types: vec![],
        shared: vec![],
        local_bytes: 0,
    };
    let out = f.new_vreg(ptr);
    let tid = f.new_vreg(Ty::S32);
    let cta = f.new_vreg(Ty::S32);
    let ntid = f.new_vreg(Ty::S32);
    let gid = f.new_vreg(Ty::S32);
    let off = f.new_vreg(Ty::S32);
    let addr = f.new_vreg(ptr);
    let stale = f.new_vreg(Ty::S32);
    let bin = |op, ty, dst, a: VReg, b: Operand| Inst::Bin {
        op,
        ty,
        dst,
        a: a.into(),
        b,
    };
    f.blocks.push(BasicBlock {
        id: BlockId(0),
        insts: vec![
            Inst::Ld {
                space: Space::Param,
                ty: ptr,
                dst: out,
                addr: Address::abs(0),
            },
            Inst::Special {
                dst: tid,
                reg: SpecialReg::TidX,
            },
            Inst::Special {
                dst: cta,
                reg: SpecialReg::CtaIdX,
            },
            Inst::Special {
                dst: ntid,
                reg: SpecialReg::NtidX,
            },
            Inst::Mad {
                ty: Ty::S32,
                dst: gid,
                a: cta.into(),
                b: ntid.into(),
                c: tid.into(),
            },
            bin(BinOp::Mul, Ty::S32, off, gid, Operand::ImmI(4)),
            bin(BinOp::Add, ptr, addr, out, off.into()),
            Inst::St {
                space: Space::Global,
                ty: Ty::S32,
                addr: Address::reg(addr),
                src: stale.into(),
            },
            bin(BinOp::Add, Ty::S32, stale, tid, Operand::ImmI(1)),
        ],
        term: Terminator::Ret,
    });
    Module {
        functions: vec![f],
        consts: vec![],
        textures: vec![],
    }
}

fn stale_run(st: &mut DeviceState, _m: &Module) -> Run {
    let out = alloc_i32(st, &[-1; 64 * 32]);
    Run {
        kernel: "stale",
        dims: dims((64, 1, 1), (32, 1, 1)),
        args: vec![KArg::Ptr(out)],
        outputs: vec![(out, 64 * 32 * 4)],
    }
}

/// Every golden case as `(name, line)`, in file order.
fn all_cases() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    let devices = DeviceConfig::presets();
    for app in APP_KERNELS {
        let (name, setup) = (app.name, app.setup);
        for (variant, defs) in [("re", &[][..]), ("sk", app.sk_defs)] {
            let m = module(app.source, defs);
            for dev in &devices {
                for event_timing in [false, true] {
                    let opts = LaunchOptions {
                        event_timing,
                        ..Default::default()
                    };
                    let mode = if event_timing { "event" } else { "analytic" };
                    let short = if dev.cc_major == 1 { "c1060" } else { "c2070" };
                    cases.push((
                        format!("{name}.{variant}.{short}.{mode}"),
                        run_case(dev, &m, setup, opts),
                    ));
                }
            }
        }
    }

    let c2070 = DeviceConfig::tesla_c2070();
    let c1060 = DeviceConfig::tesla_c1060();
    let default = LaunchOptions::default();
    let mut fixture = |name: &str, line: String| cases.push((format!("fixture.{name}"), line));

    let div = fixture_module(GUARDED_DIV);
    fixture(
        "zero_divisor_in_inactive_lanes",
        run_case(&c2070, &div, div_run("guarded"), default),
    );
    fixture(
        "zero_divisor_in_active_lane.div",
        run_case(&c2070, &div, div_run("unguarded_div"), default),
    );
    fixture(
        "zero_divisor_in_active_lane.rem",
        run_case(&c1060, &div, div_run("unguarded_rem"), default),
    );

    let diverge = fixture_module(DIVERGE);
    for dev in [&c1060, &c2070] {
        fixture(
            &format!("divergence_and_partial_warp.cc{}", dev.cc_major),
            run_case(dev, &diverge, diverge_run, default),
        );
    }

    let store = fixture_module(STORE_AT);
    fixture(
        "global.in_bounds",
        run_case(&c2070, &store, store_at(|p| p, 0), default),
    );
    fixture(
        "global.out_of_bounds",
        run_case(&c2070, &store, store_at(|p| p, 1 << 22), default),
    );
    fixture(
        "global.misaligned",
        run_case(&c2070, &store, store_at(|p| p + 2, 0), default),
    );
    fixture(
        "global.below_heap",
        run_case(&c2070, &store, store_at(|_| GLOBAL_BASE - 4096, 0), default),
    );

    let piv = module(PIV, PIV_SK);
    fixture(
        "unbound_texture",
        run_case(
            &c1060,
            &piv,
            |st, m| {
                let run = piv_ssd_tex(st, m);
                st.tex_bindings.clear();
                run
            },
            default,
        ),
    );

    let racy = fixture_module(RACY);
    fixture(
        "racecheck.hazard",
        run_case(
            &c2070,
            &racy,
            two_buffers("racy"),
            LaunchOptions {
                racecheck: true,
                ..default
            },
        ),
    );
    fixture(
        "racecheck.off",
        run_case(&c2070, &racy, two_buffers("racy"), default),
    );

    let half = fixture_module(HALF_BARRIER);
    fixture(
        "strict_barriers.on",
        run_case(
            &c2070,
            &half,
            two_buffers("half_barrier"),
            LaunchOptions {
                strict_barriers: true,
                ..default
            },
        ),
    );
    fixture(
        "strict_barriers.off",
        run_case(&c2070, &half, two_buffers("half_barrier"), default),
    );

    fixture(
        "register_read_before_written",
        run_case(&c2070, &stale_register_module(), stale_run, default),
    );
    cases
}

fn render(cases: &[(String, String)]) -> String {
    cases.iter().fold(String::new(), |mut s, (name, line)| {
        writeln!(s, "{name} | {line}").unwrap();
        s
    })
}

#[test]
fn every_case_reproduces_its_golden_line() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file");
    let cases = all_cases();
    let mut expected = golden.lines();
    for (name, line) in &cases {
        let want = expected.next().unwrap_or("<golden file ended>");
        assert_eq!(format!("{name} | {line}"), want, "case {name}");
    }
    assert_eq!(expected.next(), None, "golden file has extra lines");
    // 5 kernels × {RE, SK} × 2 devices × 2 timing modes, plus fixtures.
    assert_eq!(cases.len(), 40 + 15);
}

/// Rewrites the golden file from whatever executor this is. Only the
/// interpreter the goldens certify against should ever do that.
#[test]
#[ignore = "rewrites tests/golden/plan_equiv.txt"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN_PATH, render(&all_cases())).unwrap();
}

/// The fixtures' expectations, stated rather than only pinned.
#[test]
fn fixtures_mean_what_they_say() {
    let cases = all_cases();
    let line = |name: &str| {
        &cases
            .iter()
            .find(|(n, _)| n == &format!("fixture.{name}"))
            .unwrap_or_else(|| panic!("no fixture {name}"))
            .1
    };
    assert!(!line("zero_divisor_in_inactive_lanes").contains("trap"));
    assert_eq!(
        line("zero_divisor_in_active_lane.div"),
        "trap: division by zero"
    );
    assert_eq!(
        line("zero_divisor_in_active_lane.rem"),
        "trap: remainder by zero"
    );
    for cc in [1, 2] {
        let l = line(&format!("divergence_and_partial_warp.cc{cc}"));
        assert!(!l.contains("divergent_branches: 0,"), "{l}");
    }
    assert!(!line("global.in_bounds").contains("trap"));
    assert!(line("global.out_of_bounds").starts_with("trap: global access out of bounds at 0x"));
    assert!(line("global.misaligned").starts_with("trap: misaligned global access at 0x"));
    assert!(line("global.below_heap").starts_with("trap: global access below heap at 0x"));
    assert_eq!(line("unbound_texture"), "trap: texture 0 not bound");
    assert!(line("racecheck.hazard").starts_with("trap: racecheck: shared-memory"));
    assert!(!line("racecheck.off").contains("trap"));
    assert!(line("strict_barriers.on").starts_with("trap: divergent barrier: 1 warp(s) returned"));
    assert!(!line("strict_barriers.off").contains("trap"));
}

#[test]
fn masked_writes_leave_inactive_lanes_alone() {
    // The `diverge` kernel against a scalar re-computation.
    let m = fixture_module(DIVERGE);
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 20);
    let run = diverge_run(&mut st, &m);
    launch(
        &mut st,
        &m,
        run.kernel,
        run.dims,
        &run.args,
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(run.outputs[0].0, 80).unwrap();
    let inp = [5, 11, 17, 23];
    for t in 0..80i32 {
        let (mut v, mut w) = (100 + t, 7);
        for k in 0..(t & 3) {
            v += inp[k as usize];
            w *= 3;
        }
        if (t & 5) == 1 {
            v *= 2;
        } else {
            w -= t;
        }
        assert_eq!(out[t as usize], v + w, "thread {t}");
    }
}

#[test]
fn a_register_read_before_written_is_zero_in_every_block() {
    // 64 blocks over a handful of workers: each worker's scratch is
    // reused, and the register is overwritten after the store, so a
    // scratch that leaked between blocks would show as tid + 1.
    let m = stale_register_module();
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 20);
    let run = stale_run(&mut st, &m);
    launch(
        &mut st,
        &m,
        run.kernel,
        run.dims,
        &run.args,
        LaunchOptions::default(),
    )
    .unwrap();
    let out = st.global.read_i32_slice(run.outputs[0].0, 64 * 32).unwrap();
    assert!(out.iter().all(|&v| v == 0), "stale register value leaked");
}

#[test]
fn one_plan_serves_every_launch_and_device() {
    // A plan is decoded from the kernel alone: reused across devices,
    // geometries, arguments and timing modes it must report and compute
    // exactly what a plan built for that one launch does.
    let m = module(PIV, PIV_SK);
    let f = m.function("piv_ssd").unwrap();
    let plan = LaunchPlan::from_function(f);
    let mut launches = 0;
    for dev in DeviceConfig::presets() {
        for (grid, margin, event_timing) in [
            ((4, 5, 1), 2, false),
            ((2, 3, 1), 3, true),
            ((1, 1, 1), 1, false),
        ] {
            let opts = LaunchOptions {
                event_timing,
                ..Default::default()
            };
            let run_with = |planned: bool| {
                let mut st = DeviceState::new(dev.clone(), 4 << 20);
                let mut run = piv_ssd(&mut st, &m);
                run.dims.grid = grid;
                run.args[11] = KArg::I32(margin);
                let result = if planned {
                    launch_planned(
                        &mut st,
                        &m.textures,
                        &plan,
                        run.dims,
                        &run.args,
                        opts,
                        0,
                        "",
                    )
                } else {
                    launch(&mut st, &m, run.kernel, run.dims, &run.args, opts)
                };
                describe(&st, &run, result)
            };
            let fresh = run_with(false);
            assert!(!fresh.contains("trap"), "{fresh}");
            assert_eq!(run_with(true), fresh, "{} grid {grid:?}", dev.name);
            launches += 1;
        }
    }
    assert_eq!(launches, 6);
}
