//! The two copies of the block executor against each other.
//!
//! On a CPU with x86-64-v3, [`run_block`] always dispatches to
//! [`run_block_v3`], so no launch anywhere else in the suite reaches the
//! portable body. Here every block runs through both: `run_block_body`
//! inlined into this (baseline-target) code, and `run_block`. Timed and
//! untimed, from identical memory, they must leave identical memory,
//! registers, per-block `ExecStats` and trap text. The one freedom is
//! `tests/rows_vs_eval.rs`'s: which NaN a float operation on NaNs returns.
//! On a CPU without the features the tests print a note and pass.

use super::*;
use crate::launch::{marshal_params, KArg};
use crate::mem::GlobalMem;
use ks_ir::{
    Address, BasicBlock, BinOp, BlockId, Function, Inst, KernelParam, Operand, Terminator, Ty,
    UnOp, VReg,
};

/// Whether there are two copies to compare; prints why not otherwise.
fn two_copies() -> bool {
    if !has_v3() {
        eprintln!("note: this CPU lacks x86-64-v3; only the portable executor runs, skipped");
    }
    has_v3()
}

/// Same register bits, or (`float`) both f32 NaNs over the same upper word.
fn same_bits(x: u64, y: u64, float: bool) -> bool {
    let nan = |v: u64| f32::from_bits(v as u32).is_nan();
    x == y || (float && x >> 32 == y >> 32 && nan(x) && nan(y))
}

/// What a run of every block leaves behind.
struct Outcome {
    /// Each block's result, up to and including the first trap.
    blocks: Vec<Result<ExecStats, SimError>>,
    heap: Vec<u8>,
    /// The last block's register files, warp by warp.
    regs: Vec<Vec<Row>>,
}

/// One launch of a one-dimensional grid, run block by block on one
/// scratch, as a launch worker does.
struct Fixture<'a> {
    plan: &'a LaunchPlan,
    grid: u32,
    block: u32,
    global: GlobalMem,
    args: Vec<KArg>,
    racecheck: bool,
    strict_barriers: bool,
}

impl Fixture<'_> {
    fn run<const TIMING: bool>(&self, v3: bool) -> Outcome {
        let dev = DeviceConfig::tesla_c2070();
        let const_mem = vec![0; dev.const_bytes as usize];
        let params = marshal_params(self.plan, &self.args).expect("arguments match the kernel");
        let mut global = self.global.clone();
        let env = LaunchEnv {
            dev: &dev,
            plan: self.plan,
            global: GlobalView::new(global.raw_mut()),
            const_mem: &const_mem,
            params: &params,
            tex_bindings: &[],
            block_dim: (self.block, 1, 1),
            grid_dim: (self.grid, 1, 1),
            dynamic_shared: 0,
            trace: false,
            racecheck: self.racecheck,
            strict_barriers: self.strict_barriers,
            costs: Costs::new(&dev),
        };
        let mut scratch = BlockScratch::new(&env);
        let mut blocks = Vec::new();
        for b in 0..self.grid {
            let result = if v3 {
                run_block::<TIMING>(&env, (b, 0, 0), &mut scratch)
            } else {
                run_block_body::<TIMING>(&env, (b, 0, 0), &mut scratch)
            };
            let trapped = result.is_err();
            blocks.push(result);
            if trapped {
                break;
            }
        }
        Outcome {
            blocks,
            heap: global.raw_mut().to_vec(),
            regs: scratch.warps.iter().map(|w| w.state.regs.clone()).collect(),
        }
    }

    /// Run timed and untimed through both copies, hold them to each other,
    /// and return the portable copy's timed outcome.
    fn agree(&self, what: &str, float: bool) -> Outcome {
        let runs = [
            (self.run::<false>(false), self.run::<false>(true)),
            (self.run::<true>(false), self.run::<true>(true)),
        ];
        for (timing, (portable, v3)) in runs.iter().enumerate() {
            let ctx = format!("{what} (timing: {})", timing == 1);
            assert_eq!(portable.blocks, v3.blocks, "{ctx}: block stats or trap");
            assert!(portable.heap == v3.heap, "{ctx}: global memory");
            let lanes = |o: &'_ Outcome| o.regs.concat().concat();
            let (p, v) = (lanes(portable), lanes(v3));
            assert_eq!(p.len(), v.len());
            if let Some(i) = (0..p.len()).find(|&i| !same_bits(p[i], v[i], float)) {
                panic!(
                    "{ctx}: register {} lane {} is {:#x} portable, {:#x} x86-64-v3",
                    i / 32 % self.plan.num_vregs,
                    i % 32,
                    p[i],
                    v[i]
                );
            }
        }
        let [_, (timed, _)] = runs;
        timed
    }
}

// ---- every row kernel, rows_vs_eval-style ----

const PTR: Ty = Ty::Ptr(Space::Global);
const TYS: [Ty; 5] = [Ty::S32, Ty::U32, Ty::F32, Ty::Pred, PTR];
const BIN_OPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Mul24,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];
const UN_OPS: [UnOp; 6] = [
    UnOp::Neg,
    UnOp::Not,
    UnOp::Abs,
    UnOp::Sqrt,
    UnOp::Rsqrt,
    UnOp::Floor,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const DST: VReg = VReg(0);
const A: VReg = VReg(1);
const B: VReg = VReg(2);
const C: VReg = VReg(3);
/// Param space: three 32-entry tables of 64-bit lane values, then the mask.
const TABLE: i64 = 32 * 8;
const MASK_PARAM: i64 = 3 * TABLE;

/// Integer and f32 edges, as register bits.
fn edge_values() -> Vec<u64> {
    let mut v = vec![
        0,
        1,
        2,
        31,
        32,
        33,
        0x7FFF_FFFF,
        0x8000_0000,
        0xFFFF_FFFF,
        0x1_0000_0000,
        0xFFFF_FFFF_8000_0000,
        u64::MAX,
        0x1234_5678_9ABC_DEF0,
    ];
    v.extend(
        [
            -0.0f32,
            1.0,
            -2.5,
            3e9,
            -3e9,
            f32::MAX,
            f32::MIN_POSITIVE / 2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ]
        .map(|f| f.to_bits() as u64),
    );
    v
}

/// `inst` (reading `A`, `B`, `C`, writing `DST`) on the lanes the mask
/// parameter names, after each lane loads its operands from the tables.
fn probe(inst: Inst) -> LaunchPlan {
    let mut f = Function {
        name: "probe".into(),
        params: (0..97)
            .map(|i| {
                let ty = if i < 96 { PTR } else { Ty::U32 };
                KernelParam {
                    name: format!("p{i}"),
                    ty,
                    offset: i * 8,
                }
            })
            .collect(),
        blocks: vec![],
        vreg_types: vec![PTR; 4],
        shared: vec![],
        local_bytes: 0,
    };
    let [tid, lane8, mask, bit] = [(); 4].map(|_| f.new_vreg(Ty::U32));
    let active = f.new_vreg(Ty::Pred);
    let bin = |op, dst, a: VReg, b: Operand| Inst::Bin {
        op,
        ty: Ty::U32,
        dst,
        a: a.into(),
        b,
    };
    let ld = |ty, dst, addr| Inst::Ld {
        space: Space::Param,
        ty,
        dst,
        addr,
    };
    let mut entry = vec![
        Inst::Special {
            dst: tid,
            reg: SpecialReg::TidX,
        },
        bin(BinOp::Shl, lane8, tid, Operand::ImmI(3)),
    ];
    for (i, r) in [A, B, C].into_iter().enumerate() {
        entry.push(ld(PTR, r, Address::reg_off(lane8, i as i64 * TABLE)));
    }
    entry.extend([
        ld(Ty::U32, mask, Address::abs(MASK_PARAM)),
        bin(BinOp::Shr, bit, mask, tid.into()),
        bin(BinOp::And, bit, bit, Operand::ImmI(1)),
        Inst::Setp {
            cmp: CmpOp::Ne,
            ty: Ty::U32,
            dst: active,
            a: bit.into(),
            b: Operand::ImmI(0),
        },
    ]);
    let block = |id, insts, term| BasicBlock {
        id: BlockId(id),
        insts,
        term,
    };
    f.blocks = vec![
        block(
            0,
            entry,
            Terminator::CondBr {
                pred: active,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
        ),
        block(1, vec![inst], Terminator::Br { target: BlockId(2) }),
        block(2, vec![], Terminator::Ret),
    ];
    LaunchPlan::from_function(&f)
}

/// `inst` over every (x, y) of the edge table, under a full and a partial
/// mask; lanes that sit it out hold a zero divisor.
fn sweep(inst: Inst, float: bool) -> (u32, u32) {
    let what = format!("{inst:?}");
    let plan = probe(inst);
    let values: &[u64] = &edge_values();
    let n = values.len();
    let (mut ran, mut trapped) = (0, 0);
    for shift in 0..n {
        for mask in [u32::MAX, 0x0F0F_5A5A] {
            let on = |lane: usize| mask & (1 << lane) != 0;
            let column = |k: usize| (0..32).map(move |lane| (lane, values[(lane + k) % n]));
            let a = column(0).map(|(_, v)| v);
            let b = column(shift).map(|(lane, v)| if on(lane) { v } else { 0 });
            let c = column(5).map(|(_, v)| v);
            let fx = Fixture {
                plan: &plan,
                grid: 1,
                block: 32,
                global: GlobalMem::new(256),
                args: a
                    .chain(b)
                    .chain(c)
                    .map(KArg::Ptr)
                    .chain([KArg::U32(mask)])
                    .collect(),
                racecheck: false,
                strict_barriers: false,
            };
            let out = fx.agree(&format!("{what}, shift {shift}, mask {mask:#x}"), float);
            match out.blocks.last() {
                Some(Err(_)) => trapped += 1,
                _ => ran += 1,
            }
        }
    }
    (ran, trapped)
}

#[test]
fn every_row_kernel_agrees_across_copies() {
    if !two_copies() {
        return;
    }
    let (mut ran, mut trapped) = (0, 0);
    let mut tally = |(r, t)| {
        ran += r;
        trapped += t;
    };
    for ty in TYS {
        let float = ty == Ty::F32;
        for op in BIN_OPS {
            let (a, b) = (A.into(), B.into());
            tally(sweep(
                Inst::Bin {
                    op,
                    ty,
                    dst: DST,
                    a,
                    b,
                },
                float,
            ));
        }
        for op in UN_OPS {
            let a = A.into();
            tally(sweep(
                Inst::Un {
                    op,
                    ty,
                    dst: DST,
                    a,
                },
                float && op != UnOp::Not,
            ));
        }
        for cmp in CMP_OPS {
            let (a, b) = (A.into(), B.into());
            tally(sweep(
                Inst::Setp {
                    cmp,
                    ty,
                    dst: DST,
                    a,
                    b,
                },
                false,
            ));
        }
        for src_ty in TYS {
            let src = A.into();
            tally(sweep(
                Inst::Cvt {
                    dst_ty: ty,
                    src_ty,
                    dst: DST,
                    src,
                },
                false,
            ));
        }
        let (a, b, c) = (A.into(), B.into(), C.into());
        tally(sweep(
            Inst::Mad {
                ty,
                dst: DST,
                a,
                b,
                c,
            },
            float,
        ));
    }
    // Both outcomes were exercised, not just predicted.
    assert!(ran > 5000 && trapped > 1000, "{ran} ran, {trapped} trapped");
}

// ---- control flow, memory models and every check a launch can turn on ----

fn compile(src: &str, kernel: &str) -> LaunchPlan {
    let prog = ks_lang::frontend(src, &[]).expect("fixture parses");
    let mut m = ks_codegen::compile(&prog, &Default::default()).expect("fixture compiles");
    ks_opt::optimize_module(&mut m);
    LaunchPlan::from_function(m.function(kernel).expect("fixture names its kernel"))
}

/// A heap of `bytes` holding `buffers` back to back, and their addresses.
fn heap(bytes: u64, buffers: &[&[i32]]) -> (GlobalMem, Vec<KArg>) {
    let mut g = GlobalMem::new(bytes);
    let args = buffers
        .iter()
        .map(|data| {
            let p = g
                .alloc(data.len() as u64 * 4)
                .expect("heap fits the fixture");
            g.write_i32_slice(p, data).expect("just allocated");
            KArg::Ptr(p)
        })
        .collect();
    (g, args)
}

/// Run `kernel` over `grid` blocks of `block` threads through both copies;
/// returns the last block's trap, if any.
#[allow(clippy::too_many_arguments)]
fn check_kernel(
    src: &str,
    kernel: &str,
    grid: u32,
    block: u32,
    heap_bytes: u64,
    buffers: &[&[i32]],
    extra: &[KArg],
    (racecheck, strict_barriers): (bool, bool),
) -> (Option<String>, ExecStats) {
    let plan = compile(src, kernel);
    let (global, mut args) = heap(heap_bytes, buffers);
    args.extend_from_slice(extra);
    let fx = Fixture {
        plan: &plan,
        grid,
        block,
        global,
        args,
        racecheck,
        strict_barriers,
    };
    let out = fx.agree(kernel, false);
    let mut stats = ExecStats::default();
    let mut trap = None;
    for b in &out.blocks {
        match b {
            Ok(s) => stats.accumulate(s),
            Err(e) => trap = Some(e.0.clone()),
        }
    }
    (trap, stats)
}

const CHECKS_OFF: (bool, bool) = (false, false);

#[test]
fn divergence_barriers_and_shared_memory_agree() {
    if !two_copies() {
        return;
    }
    let diverge = r#"
        __global__ void diverge(int* in, int* out) {
            int t = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            int v = in[t];
            if ((v & 1) != 0) {
                for (int k = 0; k < 4; k++) {
                    if (k < (v & 3)) { v = v * 3 + k; }
                }
            } else if ((t & 2) != 0) {
                v = v - 7;
            }
            out[t] = v;
        }
    "#;
    let input: Vec<i32> = (0..128).map(|i| i * 37 % 101 - 50).collect();
    let buffers: [&[i32]; 2] = [&input, &[0; 128]];
    let (trap, stats) = check_kernel(diverge, "diverge", 2, 64, 4096, &buffers, &[], CHECKS_OFF);
    assert_eq!(trap, None);
    assert!(stats.divergent_branches > 0, "{stats:?}");

    let reduce = r#"
        __global__ void reduce(int* in, int* out) {
            __shared__ int buf[128];
            int t = threadIdx.x;
            buf[t] = in[blockIdx.x * 128 + t];
            __syncthreads();
            for (int s = 64; s > 0; s = s / 2) {
                if (t < s) { buf[t] = buf[t] + buf[t + s]; }
                __syncthreads();
            }
            if (t == 0) { out[blockIdx.x] = buf[0]; }
        }
    "#;
    let input: Vec<i32> = (0..256).collect();
    let buffers: [&[i32]; 2] = [&input, &[0; 2]];
    let checked = (true, true);
    let (trap, stats) = check_kernel(reduce, "reduce", 2, 128, 4096, &buffers, &[], checked);
    assert_eq!(trap, None);
    assert!(stats.barriers > 0 && stats.shared_accesses > 0, "{stats:?}");
}

#[test]
fn a_zero_divisor_in_an_inactive_lane_agrees() {
    if !two_copies() {
        return;
    }
    let guarded = r#"
        __global__ void guarded(int* a, int* d, int* out) {
            int t = threadIdx.x;
            int q = 0;
            if (d[t] != 0) { q = a[t] / d[t] + a[t] % d[t]; }
            out[t] = q;
        }
    "#;
    let a: Vec<i32> = (0..64).map(|i| i * 1001 - 30000).collect();
    let d: Vec<i32> = (0..64)
        .map(|i| if i % 3 == 0 { 0 } else { i - 32 })
        .collect();
    let buffers: [&[i32]; 3] = [&a, &d, &[0; 64]];
    let (trap, _) = check_kernel(guarded, "guarded", 1, 64, 4096, &buffers, &[], CHECKS_OFF);
    assert_eq!(trap, None);
}

#[test]
fn traps_agree() {
    if !two_copies() {
        return;
    }
    let copy_at = r#"
        __global__ void copy_at(int* src, int* dst, int off) {
            int t = (int)(blockIdx.x * blockDim.x + threadIdx.x);
            dst[t + off] = src[t] * 2 + 1;
        }
    "#;
    let src: Vec<i32> = (0..64).collect();
    let buffers: [&[i32]; 2] = [&src, &[0; 64]];
    let oob = [KArg::I32(2000)];
    let (trap, _) = check_kernel(copy_at, "copy_at", 2, 32, 4096, &buffers, &oob, CHECKS_OFF);
    let trap = trap.expect("the store leaves the heap");
    assert!(trap.starts_with("global access out of bounds"), "{trap}");

    let racy = r#"
        __global__ void racy(int* a, int* out) {
            __shared__ int s[64];
            int t = (int)threadIdx.x;
            s[t] = a[t];
            out[t] = s[(t + 32) & 63];
        }
    "#;
    let half_barrier = r#"
        __global__ void half_barrier(int* a, int* out) {
            int t = (int)threadIdx.x;
            if (t < 32) { __syncthreads(); }
            out[t] = a[t];
        }
    "#;
    for (source, kernel, checks, want) in [
        (racy, "racy", (true, false), "racecheck: "),
        (
            half_barrier,
            "half_barrier",
            (false, true),
            "divergent barrier",
        ),
    ] {
        let (trap, _) = check_kernel(source, kernel, 1, 64, 4096, &buffers, &[], checks);
        let trap = trap.unwrap_or_else(|| panic!("{kernel} must trap"));
        assert!(trap.starts_with(want), "{kernel}: {trap}");
    }
}
