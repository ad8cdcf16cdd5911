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
use crate::mem::{GlobalMem, GLOBAL_BASE};
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
    /// The last block's registers as 64 bits, warp by warp.
    regs: Vec<Vec<Row64>>,
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
            regs: scratch
                .warps
                .iter()
                .map(|w| {
                    (0..self.plan.num_vregs as u32)
                        .map(|r| w.state.reg(self.plan, r))
                        .collect()
                })
                .collect(),
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

/// The types of `DST`, `A`, `B` and `C` as `inst` reads and writes them (a
/// destination that is a source keeps the source's): in these types the
/// operands sit in the banks the op's row kernel reads.
fn typed(inst: &Inst) -> [Ty; 4] {
    let (dst, src, c) = match *inst {
        Inst::Bin { ty, .. } | Inst::Un { ty, .. } | Inst::Mad { ty, .. } => (ty, ty, ty),
        Inst::Setp { ty, .. } => (Ty::Pred, ty, ty),
        Inst::Selp { ty, .. } => (ty, ty, Ty::Pred),
        Inst::Cvt { dst_ty, src_ty, .. } => (dst_ty, src_ty, src_ty),
        _ => (PTR, PTR, PTR),
    };
    [dst, src, src, c]
}

/// `inst` (reading `A`, `B`, `C`, writing `DST`) on the lanes the mask
/// parameter names, after each lane loads its operands from the tables as
/// `tys` (of `DST`, `A`, `B`, `C`) says.
fn probe(inst: Inst, tys: [Ty; 4]) -> LaunchPlan {
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
        vreg_types: tys.to_vec(),
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
        let ty = tys[r.0 as usize];
        entry.push(ld(ty, r, Address::reg_off(lane8, i as i64 * TABLE)));
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

/// The lanes an instruction runs on: all, a scattered half, one.
const MASKS: [u32; 3] = [u32::MAX, 0x0F0F_5A5A, 1 << 31];

/// `inst` over every (x, y) of the edge table, under each of [`MASKS`];
/// lanes that sit it out hold a zero divisor. Once with pointer operands
/// (64-bit registers, which a 32-bit op reads lane by lane) and once with
/// [`typed`] ones (the row kernels).
fn sweep(inst: Inst, float: bool) -> (u32, u32) {
    let mut tally = (0, 0);
    for tys in [[PTR; 4], typed(&inst)] {
        let what = format!("{inst:?} as {tys:?}");
        let plan = probe(inst.clone(), tys);
        for shift in 0..edge_values().len() {
            run_masks(&plan, &what, shift, float, &mut tally);
        }
    }
    tally
}

/// `inst(y)` for every `y` of the edge table as an immediate second
/// operand (for integer division, a divisor by multiplication), with
/// pointer and with typed operands.
fn sweep_imm(inst: impl Fn(Operand) -> Inst, float: bool) -> (u32, u32) {
    let mut tally = (0, 0);
    for (shift, y) in edge_values().into_iter().enumerate() {
        let inst = inst(Operand::ImmI(y as i64));
        for tys in [[PTR; 4], typed(&inst)] {
            let what = format!("{inst:?} as {tys:?}");
            run_masks(&probe(inst.clone(), tys), &what, shift, float, &mut tally);
        }
    }
    tally
}

/// One run of `plan` per mask, the `B` column shifted by `shift` against
/// `A`; counts (ran, trapped) into `tally`.
fn run_masks(plan: &LaunchPlan, what: &str, shift: usize, float: bool, tally: &mut (u32, u32)) {
    let values: &[u64] = &edge_values();
    let n = values.len();
    for mask in MASKS {
        let on = |lane: usize| mask & (1 << lane) != 0;
        let column = |k: usize| (0..32).map(move |lane| (lane, values[(lane + k) % n]));
        let a = column(0).map(|(_, v)| v);
        let b = column(shift).map(|(lane, v)| if on(lane) { v } else { 0 });
        let c = column(5).map(|(_, v)| v);
        let fx = Fixture {
            plan,
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
            Some(Err(_)) => tally.1 += 1,
            _ => tally.0 += 1,
        }
    }
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
            let bin = |dst, a: Operand, b: Operand| Inst::Bin { op, ty, dst, a, b };
            tally(sweep(bin(DST, A.into(), B.into()), float));
            // In place: the destination is a source.
            tally(sweep(bin(A, A.into(), B.into()), float));
            tally(sweep(bin(B, A.into(), B.into()), float));
            tally(sweep(bin(A, A.into(), A.into()), float));
            tally(sweep_imm(|b| bin(DST, A.into(), b), float));
        }
        for op in UN_OPS {
            let un = |dst| Inst::Un {
                op,
                ty,
                dst,
                a: A.into(),
            };
            let float = float && op != UnOp::Not;
            tally(sweep(un(DST), float));
            tally(sweep(un(A), float));
        }
        for cmp in CMP_OPS {
            let (a, b) = (A.into(), B.into());
            tally(sweep(
                Inst::Setp {
                    cmp,
                    ty,
                    dst: B,
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
                dst: C,
                a,
                b,
                c,
            },
            float,
        ));
        tally(sweep(
            Inst::Selp {
                ty,
                dst: C,
                a,
                b,
                pred: C,
            },
            false,
        ));
    }
    // Both outcomes were exercised, not just predicted.
    assert!(
        ran > 20000 && trapped > 3000,
        "{ran} ran, {trapped} trapped"
    );
}

/// The divide-by-multiply against the hardware divide, over the edge
/// table's divisors (and their neighbours) × 2²⁰ random dividends plus
/// the edges themselves.
#[test]
fn divide_by_multiply_matches_wrapping_div_and_rem() {
    let mut divisors: Vec<u32> = edge_values().iter().map(|&v| v as u32).collect();
    divisors.extend([1, 3, 7, 10, 641, 0x7FFF_FFFE, 0x8000_0001, u32::MAX - 1]);
    divisors.extend([-1i32, -2, -3, -7, i32::MIN + 1].map(|d| d as u32));
    divisors.retain(|&d| d != 0);
    let mut dividends: Vec<u32> = edge_values().iter().map(|&v| v as u32).collect();
    dividends.extend([
        i32::MIN as u32,
        i32::MAX as u32,
        u32::MAX,
        0,
        1,
        0x8000_0001,
    ]);
    // splitmix64: a fixed, well-spread sequence.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u32
    };
    dividends.extend((0..1 << 20).map(|_| next()));
    assert!(Divisor::unsigned(0).is_none() && Divisor::signed(0).is_none());
    for &d in &divisors {
        let (u, s) = (
            Divisor::unsigned(d).unwrap(),
            Divisor::signed(d as i32).unwrap(),
        );
        for &n in &dividends {
            let (ni, di) = (n as i32, d as i32);
            assert_eq!(u.quot(n), n / d, "{n:#x} / {d:#x}");
            assert_eq!(u.rem(n), n % d, "{n:#x} % {d:#x}");
            assert_eq!(s.squot(ni), ni.wrapping_div(di), "{ni} / {di}");
            assert_eq!(s.srem(ni), ni.wrapping_rem(di), "{ni} % {di}");
        }
    }
    // The edges the sign fix must get right.
    let s = Divisor::signed(-1).unwrap();
    assert_eq!((s.squot(i32::MIN), s.srem(i32::MIN)), (i32::MIN, 0));
    let s = Divisor::signed(i32::MIN).unwrap();
    assert_eq!((s.squot(i32::MIN), s.squot(i32::MAX)), (1, 0));
    assert_eq!(Divisor::unsigned(u32::MAX).unwrap().quot(u32::MAX), 1);
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
    // A divisor every lane shares, zero: the lanes that run trap,
    // whether all of them or every other one.
    let div_by = r#"
        __global__ void div_by(int* a, int* out, int d) {
            int t = (int)threadIdx.x;
            out[t] = a[t] / d;
            if ((t & 1) != 0) { out[t] = a[t] % d; }
        }
    "#;
    let (trap, _) = check_kernel(
        div_by,
        "div_by",
        1,
        64,
        4096,
        &buffers,
        &[KArg::I32(0)],
        CHECKS_OFF,
    );
    assert_eq!(trap.as_deref(), Some("division by zero"));
    let rem_by = div_by.replace("out[t] = a[t] / d;", "");
    let (trap, _) = check_kernel(
        &rem_by,
        "div_by",
        1,
        64,
        4096,
        &buffers,
        &[KArg::I32(0)],
        CHECKS_OFF,
    );
    assert_eq!(trap.as_deref(), Some("remainder by zero"));
    for d in [-7, -1, 1, 3, i32::MIN] {
        let (trap, _) = check_kernel(
            div_by,
            "div_by",
            1,
            64,
            4096,
            &buffers,
            &[KArg::I32(d)],
            CHECKS_OFF,
        );
        assert_eq!(trap, None, "d = {d}");
    }

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

/// A global load or store with bad lanes under a full warp. The one
/// check over the warp fails and the lanes are checked one by one, so the
/// trap names the first failing lane; a load then writes no lane of its
/// destination, and a store has written the lanes before it.
#[test]
fn global_traps_name_the_first_failing_lane() {
    if !two_copies() {
        return;
    }
    let bad = [
        (GLOBAL_BASE + 256, "global access out of bounds at 0x10100"),
        (GLOBAL_BASE + 30, "misaligned global access at 0x1001e"),
        (GLOBAL_BASE - 4, "global access below heap at 0xfffc"),
        (
            u64::MAX - 1,
            "global access out of bounds at 0xfffffffffffffffe",
        ),
    ];
    let word = |lane: usize| 0x5000 + lane as u32;
    let mut heap = GlobalMem::new(256);
    let words: Vec<i32> = (0..64).map(|w| word(w) as i32).collect();
    heap.write_i32_slice(GLOBAL_BASE, &words).unwrap();
    let load = probe(
        Inst::Ld {
            space: Space::Global,
            ty: Ty::U32,
            dst: DST,
            addr: Address::reg(A),
        },
        [PTR; 4],
    );
    let store = probe(
        Inst::St {
            space: Space::Global,
            ty: Ty::U32,
            addr: Address::reg(A),
            src: B.into(),
        },
        [PTR; 4],
    );
    let (first, second) = (7, 20);
    for (i, &(addr1, msg1)) in bad.iter().enumerate() {
        let (addr2, msg2) = bad[(i + 1) % bad.len()];
        let addrs: Vec<u64> = (0..32)
            .map(|lane| match lane {
                7 => addr1,
                20 => addr2,
                _ => GLOBAL_BASE + 4 * lane as u64,
            })
            .collect();
        for (mask, want) in [
            (u32::MAX, Some((first, msg1))),
            (!(1 << first), Some((second, msg2))),
            (!(1 << first | 1 << second), None),
        ] {
            let on = |lane: usize| mask & (1 << lane) != 0;
            for (plan, is_load) in [(&load, true), (&store, false)] {
                let fx = Fixture {
                    plan,
                    grid: 1,
                    block: 32,
                    global: heap.clone(),
                    args: addrs
                        .iter()
                        .copied()
                        .chain((0..32).map(|lane| 0x9000 + lane as u64))
                        .chain([0; 32])
                        .map(KArg::Ptr)
                        .chain([KArg::U32(mask)])
                        .collect(),
                    racecheck: false,
                    strict_barriers: false,
                };
                let ctx = format!("load {is_load}, mask {mask:#x}, lane 7 at {addr1:#x}");
                let out = fx.agree(&ctx, false);
                // The row the probe's global load writes (the store
                // probe has none).
                let dst = plan
                    .ops
                    .iter()
                    .find(|op| {
                        matches!(
                            op.kind,
                            Kind::Ld {
                                space: Space::Global,
                                ..
                            }
                        )
                    })
                    .map_or([0; 32], |ld| out.regs[0][ld.dst as usize]);
                let stored = |lane: usize| {
                    let at = 4 * lane;
                    u32::from_le_bytes(out.heap[at..at + 4].try_into().unwrap())
                };
                match (want, out.blocks.last()) {
                    (Some((bad_lane, msg)), Some(Err(e))) => {
                        assert_eq!(e.0, msg, "{ctx}");
                        if is_load {
                            assert_eq!(dst, [0; 32], "{ctx}: a trapping load wrote lanes");
                        } else {
                            for lane in 0..32 {
                                let want = if on(lane) && lane < bad_lane {
                                    0x9000 + lane as u32
                                } else {
                                    word(lane)
                                };
                                assert_eq!(stored(lane), want, "{ctx}: lane {lane}");
                            }
                        }
                    }
                    (None, Some(Ok(_))) => {
                        for lane in (0..32).filter(|&l| on(l)) {
                            if is_load {
                                assert_eq!(dst[lane], word(lane) as u64, "{ctx}: lane {lane}");
                            } else {
                                assert_eq!(stored(lane), 0x9000 + lane as u32, "{ctx}");
                            }
                        }
                    }
                    (want, got) => panic!("{ctx}: want {want:?}, got {got:?}"),
                }
            }
        }
    }
}
