//! Out-of-range shared, constant and local addresses trap with a
//! `SimError` that names their space: never a panic, and never a read or
//! write of another lane's local memory. A global access of a full warp
//! with bad lanes names the first of them. Run in debug and in release
//! (`ci.sh`): only the release build wraps address arithmetic silently.

use ks_codegen::{compile, CodegenOptions};
use ks_ir::{
    Address, BasicBlock, BinOp, BlockId, Function, Inst, KernelParam, Operand, Space, SpecialReg,
    Terminator, Ty,
};
use ks_lang::frontend;
use ks_sim::*;

const SRC: &str = r#"
    __constant__ int c[4];
    __global__ void shared_st(int* out) {
        __shared__ int s[64];
        int t = (int)threadIdx.x;
        s[t - 1] = 1;
        __syncthreads();
        out[t] = s[t];
    }
    __global__ void shared_ld(int* out) {
        __shared__ int s[64];
        int t = (int)threadIdx.x;
        s[t] = t;
        __syncthreads();
        out[t] = s[t - 1];
    }
    __global__ void const_ld(int* out) {
        int t = (int)threadIdx.x;
        out[t] = c[t - 1];
    }
    __global__ void local_ld(int* out, int lane, int k) {
        int t = (int)threadIdx.x;
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = 100 * t + i; }
        if (t == lane) { out[t] = a[k]; }
    }
    __global__ void local_st(int* out, int lane, int k) {
        int t = (int)threadIdx.x;
        int a[8];
        for (int i = 0; i < 8; i++) { a[i] = 100 * t + i; }
        if (t == lane) { a[k] = -1; }
        out[t] = a[t & 7];
    }
"#;

fn module() -> ks_ir::Module {
    let prog = frontend(SRC, &[]).unwrap();
    let mut m = compile(&prog, &CodegenOptions::default()).unwrap();
    ks_opt::optimize_module(&mut m);
    m
}

/// Launches `kernel` on one block of 32 threads with `out` and then
/// `extra` as arguments; returns the output buffer or the trap.
fn run(m: &ks_ir::Module, kernel: &str, extra: &[KArg]) -> Result<Vec<i32>, SimError> {
    let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 20);
    st.set_const(m, "c", &[7u8; 16]).unwrap();
    let out = st.global.alloc(32 * 4).unwrap();
    st.global.write_i32_slice(out, &[-7; 32]).unwrap();
    let mut args = vec![KArg::Ptr(out)];
    args.extend_from_slice(extra);
    launch(
        &mut st,
        m,
        kernel,
        LaunchDims::linear(1, 32),
        &args,
        LaunchOptions::default(),
    )?;
    Ok(st.global.read_i32_slice(out, 32).unwrap())
}

fn assert_trap(m: &ks_ir::Module, kernel: &str, extra: &[KArg], space: &str) {
    match run(m, kernel, extra) {
        Err(e) => assert!(
            e.to_string().contains(&format!("bad {space} access")),
            "{kernel} {extra:?}: {e}"
        ),
        Ok(out) => panic!("{kernel} {extra:?} ran to completion: {out:?}"),
    }
}

#[test]
fn shared_address_below_zero_traps() {
    let m = module();
    assert_trap(&m, "shared_st", &[], "shared");
    assert_trap(&m, "shared_ld", &[], "shared");
}

#[test]
fn const_address_below_zero_traps() {
    let m = module();
    assert_trap(&m, "const_ld", &[], "const");
}

/// Lane 0 indexing below its array, and lane 1 above its own or into
/// its neighbour's window: each is a trap, not that neighbour's word.
#[test]
fn local_address_outside_its_lane_traps() {
    let m = module();
    for kernel in ["local_ld", "local_st"] {
        for (lane, k) in [(0, -1), (1, -1), (0, 8), (1, 8), (31, 8), (5, 1 << 20)] {
            assert_trap(&m, kernel, &[KArg::I32(lane), KArg::I32(k)], "local");
        }
    }
}

#[test]
fn in_range_addresses_still_run() {
    let m = module();
    let got = run(&m, "local_ld", &[KArg::I32(1), KArg::I32(7)]).unwrap();
    assert_eq!(got[1], 107);
    assert_eq!(got[0], -7);
    let got = run(&m, "local_st", &[KArg::I32(1), KArg::I32(1)]).unwrap();
    let want: Vec<i32> = (0..32)
        .map(|t| if t == 1 { -1 } else { 100 * t + (t & 7) })
        .collect();
    assert_eq!(got, want);
}

const PTR: Ty = Ty::Ptr(Space::Global);

/// A kernel whose lane `t` loads the word at parameter `a<t>` and stores
/// it to `out[t]` (`load`), or stores `t` at `a<t>`: one global access by
/// every lane of a warp at the addresses the launch names.
fn global_probe(load: bool) -> LaunchPlan {
    let mut f = Function {
        name: "global_probe".into(),
        params: (0..33)
            .map(|i| KernelParam {
                name: if i < 32 {
                    format!("a{i}")
                } else {
                    "out".into()
                },
                ty: PTR,
                offset: i * 8,
            })
            .collect(),
        blocks: vec![],
        vreg_types: vec![],
        shared: vec![],
        local_bytes: 0,
    };
    let [tid, lane8, lane4, v] = [(); 4].map(|_| f.new_vreg(Ty::U32));
    let [addr, out] = [(); 2].map(|_| f.new_vreg(PTR));
    let shl = |dst, by| Inst::Bin {
        op: BinOp::Shl,
        ty: Ty::U32,
        dst,
        a: tid.into(),
        b: Operand::ImmI(by),
    };
    let param = |dst, addr| Inst::Ld {
        space: Space::Param,
        ty: PTR,
        dst,
        addr,
    };
    let mut insts = vec![
        Inst::Special {
            dst: tid,
            reg: SpecialReg::TidX,
        },
        shl(lane8, 3),
        param(addr, Address::reg(lane8)),
    ];
    if load {
        insts.extend([
            Inst::Ld {
                space: Space::Global,
                ty: Ty::U32,
                dst: v,
                addr: Address::reg(addr),
            },
            param(out, Address::abs(32 * 8)),
            shl(lane4, 2),
            Inst::Bin {
                op: BinOp::Add,
                ty: PTR,
                dst: out,
                a: out.into(),
                b: lane4.into(),
            },
            Inst::St {
                space: Space::Global,
                ty: Ty::U32,
                addr: Address::reg(out),
                src: v.into(),
            },
        ]);
    } else {
        insts.push(Inst::St {
            space: Space::Global,
            ty: Ty::U32,
            addr: Address::reg(addr),
            src: tid.into(),
        });
    }
    f.blocks = vec![BasicBlock {
        id: BlockId(0),
        insts,
        term: Terminator::Ret,
    }];
    LaunchPlan::from_function(&f)
}

/// Lanes 5 and 9 of a full warp at a bad address each, every other lane
/// on its own word of a 32-word buffer: the trap names lane 5's address
/// and why it fails, through both `TIMING` instantiations (block 0 is the
/// timing sample). A load traps before it writes its destination
/// (`src/interp/tests.rs` checks the register row); here no lane reaches
/// the store that follows it. A store has written lanes 0–4 and no other.
#[test]
fn a_full_warp_global_access_names_its_first_bad_lane() {
    let heap = 1u64 << 16;
    let bad = [
        (GLOBAL_BASE + heap, "global access out of bounds at 0x20000"),
        (GLOBAL_BASE + 6, "misaligned global access at 0x10006"),
        (GLOBAL_BASE - 4, "global access below heap at 0xfffc"),
    ];
    for load in [true, false] {
        let plan = global_probe(load);
        for (i, &(first, msg)) in bad.iter().enumerate() {
            let second = bad[(i + 1) % bad.len()].0;
            let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), heap);
            let buf = st.global.alloc(32 * 4).unwrap();
            let out = st.global.alloc(32 * 4).unwrap();
            st.global.write_i32_slice(buf, &[-1; 32]).unwrap();
            st.global.write_i32_slice(out, &[-7; 32]).unwrap();
            let args: Vec<KArg> = (0..32u64)
                .map(|lane| match lane {
                    5 => first,
                    9 => second,
                    _ => buf + 4 * lane,
                })
                .chain([out])
                .map(KArg::Ptr)
                .collect();
            let opts = LaunchOptions {
                timing_sample_blocks: 1,
                ..LaunchOptions::default()
            };
            let dims = LaunchDims::linear(2, 32);
            let run = launch_planned(&mut st, &[], &plan, dims, &args, opts, 0, "");
            let ctx = format!("load {load}, lane 5 at {first:#x}, lane 9 at {second:#x}");
            match run {
                Err(e) => assert_eq!(e.0, msg, "{ctx}"),
                Ok(_) => panic!("{ctx}: ran to completion"),
            }
            assert_eq!(
                st.global.read_i32_slice(out, 32).unwrap(),
                [-7; 32],
                "{ctx}"
            );
            let words = st.global.read_i32_slice(buf, 32).unwrap();
            let want: Vec<i32> = (0..32)
                .map(|lane| if !load && lane < 5 { lane } else { -1 })
                .collect();
            assert_eq!(words, want, "{ctx}");
        }
    }
}

/// The same probe with every lane in bounds runs, so the traps above
/// are the bad lanes' alone.
#[test]
fn a_full_warp_global_access_in_bounds_runs() {
    for load in [true, false] {
        let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 16);
        let buf = st.global.alloc(32 * 4).unwrap();
        let out = st.global.alloc(32 * 4).unwrap();
        let words: Vec<i32> = (100..132).collect();
        st.global.write_i32_slice(buf, &words).unwrap();
        let args: Vec<KArg> = (0..32u64)
            .map(|lane| buf + 4 * lane)
            .chain([out])
            .map(KArg::Ptr)
            .collect();
        let dims = LaunchDims::linear(2, 32);
        let opts = LaunchOptions::default();
        launch_planned(&mut st, &[], &global_probe(load), dims, &args, opts, 0, "").unwrap();
        let (got, want) = if load {
            (st.global.read_i32_slice(out, 32).unwrap(), words)
        } else {
            (
                st.global.read_i32_slice(buf, 32).unwrap(),
                (0..32).collect(),
            )
        };
        assert_eq!(got, want, "load {load}");
    }
}
