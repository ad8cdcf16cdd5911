//! The executor's fused row kernels against the scalar definition of the
//! same operations in `ks_ir::eval`, lane by lane.
//!
//! Every `(op, type)` pair the IR can spell — 13 binary ops, 6 unary ops,
//! 6 comparisons, `cvt` and `mad`, each over all five types — is decoded
//! into a one-instruction kernel and run on rows drawn from an edge table
//! (every x against every y), with a full and a partial mask, through both
//! `TIMING` instantiations of the executor (block 0 is the timed sample,
//! block 1 the functional run). The executor's instantiations are
//! `TIMING` × ISA: a launch runs the ISA copy the CPU dispatches to
//! (x86-64-v3 where the CPU has it), and the unit tests in
//! `src/interp/tests.rs` hold the portable copy to that one bit for bit,
//! so both answer to `eval`. A lane's 64-bit result must equal `eval`'s,
//! the launch must trap exactly when `eval` says `None` for an active lane,
//! and inactive lanes — given a zero divisor on purpose — must neither
//! trap nor be written. One freedom: which NaN a float operation on NaNs
//! returns (x86 keeps the first operand's payload, and the compiler may
//! commute the operands of one copy and not the other), so where `eval`
//! computes a NaN any NaN matches. Runs in release too (`ci.sh`): the
//! vectorised lane loops the benchmark executes only exist at
//! `opt-level=3`.

use ks_ir::{
    eval, Address, BasicBlock, BinOp, BlockId, CmpOp, Function, Inst, KernelParam, Operand, Space,
    SpecialReg, Terminator, Ty, UnOp, VReg,
};
use ks_sim::{
    launch_planned, DeviceConfig, DeviceState, KArg, LaunchDims, LaunchOptions, LaunchPlan,
};

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

/// What an unwritten destination lane holds.
const SENTINEL: u64 = 0xDEAD_BEEF_CAFE_F00D;
const MASKS: [u32; 2] = [u32::MAX, 0x0F0F_5A5A];

/// Registers of the probe kernel.
const DST: VReg = VReg(0);
const A: VReg = VReg(1);
const B: VReg = VReg(2);
const C: VReg = VReg(3);

/// Param-space layout: four 32-entry tables of 64-bit lane values (the
/// operands and the expected result's upper word, in place), then the
/// output pointer and the active mask.
const TABLE: i64 = 32 * 8;
const OUT_PARAM: i64 = 4 * TABLE;
const MASK_PARAM: i64 = OUT_PARAM + 8;

/// Integer edges (32-bit boundaries, shift counts around 32, canonical
/// sign-extended negatives, a value only a pointer holds) and f32
/// specials, as register bits.
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
            -1.0,
            0.5,
            2.5,
            -2.5,
            4.0,
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
    assert!(v.len() <= 32);
    v
}

/// `inst` (reading `A`, `B`, `C`, writing `result`) wrapped so that each
/// lane loads its operands, the lanes of the mask run `inst`, and every
/// lane reports `result`: its low word, and whether its upper word is the
/// expected one (a store keeps 32 bits and a load zero-extends them back;
/// `setp.eq` on a pointer compares 64).
fn probe(inst: Inst, result: VReg) -> LaunchPlan {
    let mut f = Function {
        name: "probe".into(),
        params: (0..128)
            .map(|i| (format!("v{i}"), PTR))
            .chain([("out".into(), PTR), ("mask".into(), Ty::U32)])
            .scan(0, |offset, (name, ty)| {
                let p = KernelParam {
                    name,
                    ty,
                    offset: *offset,
                };
                *offset += ty.size_bytes();
                Some(p)
            })
            .collect(),
        blocks: vec![],
        vreg_types: vec![PTR; 4],
        shared: vec![],
        local_bytes: 0,
    };
    let [upper, low, out] = [(); 3].map(|_| f.new_vreg(PTR));
    let [tid, lane8, lane4, mask, bit, cta, slot] = [(); 7].map(|_| f.new_vreg(Ty::U32));
    let [active, same] = [(); 2].map(|_| f.new_vreg(Ty::Pred));
    let flag = f.new_vreg(Ty::U32);

    let bin = |op, ty, dst, a: VReg, b: Operand| Inst::Bin {
        op,
        ty,
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
    let st = |addr, src: VReg| Inst::St {
        space: Space::Global,
        ty: Ty::U32,
        addr,
        src: src.into(),
    };
    let mut entry = vec![
        Inst::Special {
            dst: tid,
            reg: SpecialReg::TidX,
        },
        bin(BinOp::Shl, Ty::U32, lane8, tid, Operand::ImmI(3)),
    ];
    for (i, r) in [A, B, C, upper].into_iter().enumerate() {
        entry.push(ld(PTR, r, Address::reg_off(lane8, i as i64 * TABLE)));
    }
    entry.extend([
        ld(PTR, out, Address::abs(OUT_PARAM)),
        ld(Ty::U32, mask, Address::abs(MASK_PARAM)),
        Inst::Mov {
            ty: PTR,
            dst: DST,
            src: Operand::ImmI(SENTINEL as i64),
        },
        bin(BinOp::Shr, Ty::U32, bit, mask, tid.into()),
        bin(BinOp::And, Ty::U32, bit, bit, Operand::ImmI(1)),
        Inst::Setp {
            cmp: CmpOp::Ne,
            ty: Ty::U32,
            dst: active,
            a: bit.into(),
            b: Operand::ImmI(0),
        },
    ]);
    let report = vec![
        // Each block reports into its own 256 bytes: 32 low words, 32 flags.
        Inst::Special {
            dst: cta,
            reg: SpecialReg::CtaIdX,
        },
        bin(BinOp::Shl, Ty::U32, slot, cta, Operand::ImmI(8)),
        bin(BinOp::Shl, Ty::U32, lane4, tid, Operand::ImmI(2)),
        bin(BinOp::Add, Ty::U32, slot, slot, lane4.into()),
        bin(BinOp::Add, PTR, out, out, slot.into()),
        st(Address::reg(out), result),
        Inst::Ld {
            space: Space::Global,
            ty: Ty::U32,
            dst: low,
            addr: Address::reg(out),
        },
        // (A pointer add sign-extends a 32-bit second operand; the first
        // is taken as it is.)
        bin(BinOp::Add, PTR, low, low, upper.into()),
        Inst::Setp {
            cmp: CmpOp::Eq,
            ty: PTR,
            dst: same,
            a: result.into(),
            b: low.into(),
        },
        Inst::Selp {
            ty: Ty::U32,
            dst: flag,
            a: Operand::ImmI(1),
            b: Operand::ImmI(0),
            pred: same,
        },
        st(Address::reg_off(out, 128), flag),
    ];
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
        block(2, report, Terminator::Ret),
    ];
    LaunchPlan::from_function(&f)
}

struct Sweep {
    st: DeviceState,
    out: u64,
    values: Vec<u64>,
    /// Launches whose lanes were compared / that trapped as predicted.
    compared: u32,
    trapped: u32,
}

impl Sweep {
    fn new() -> Sweep {
        let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 16);
        let out = st.global.alloc(512).unwrap();
        Sweep {
            st,
            out,
            values: edge_values(),
            compared: 0,
            trapped: 0,
        }
    }

    /// Run `inst` over the whole edge table and hold every lane to
    /// `scalar(a, b, c)` (`None` = the executor traps). `float`: the result
    /// comes out of f32 arithmetic, so a NaN's payload is not pinned.
    fn check(&mut self, inst: Inst, float: bool, scalar: impl Fn(u64, u64, u64) -> Option<u64>) {
        self.check_into(inst, DST, float, scalar);
    }

    /// As [`Sweep::check`], for an `inst` that writes `result`, which may
    /// be one of its sources: each active lane must read its operands
    /// before the row is written, and each inactive lane keep the value
    /// `result` held.
    fn check_into(
        &mut self,
        inst: Inst,
        result: VReg,
        float: bool,
        scalar: impl Fn(u64, u64, u64) -> Option<u64>,
    ) {
        let what = format!("{inst:?}");
        let plan = probe(inst, result);
        for y in self.values.clone() {
            self.run(&plan, &what, result, y, float, &scalar);
        }
    }

    /// `inst(y)` for every `y` of the edge table as an immediate second
    /// operand: a row every lane shares, which integer division takes by
    /// multiplication. The `B` row holds `y` too, so `scalar` sees it.
    fn check_imm(
        &mut self,
        inst: impl Fn(Operand) -> Inst,
        float: bool,
        scalar: impl Fn(u64, u64, u64) -> Option<u64>,
    ) {
        for y in self.values.clone() {
            let inst = inst(Operand::ImmI(y as i64));
            let what = format!("{inst:?}");
            self.run(&probe(inst, DST), &what, DST, y, float, &scalar);
        }
    }

    /// One launch per mask of `plan` with `y` in the active lanes' `B`,
    /// each lane held to `scalar` (active) or `result`'s value before the
    /// instruction (inactive).
    fn run(
        &mut self,
        plan: &LaunchPlan,
        what: &str,
        result: VReg,
        y: u64,
        float: bool,
        scalar: &impl Fn(u64, u64, u64) -> Option<u64>,
    ) {
        let n = self.values.len();
        let lane_values = |shift: usize| -> [u64; 32] {
            std::array::from_fn(|lane| self.values[(lane + shift) % n])
        };
        let (a, c) = (lane_values(0), lane_values(5));
        for mask in MASKS {
            let on = |lane: usize| mask & (1 << lane) != 0;
            // Lanes that sit the instruction out hold a zero divisor.
            let b: [u64; 32] = std::array::from_fn(|lane| if on(lane) { y } else { 0 });
            let before = |lane: usize| match result {
                A => a[lane],
                B => b[lane],
                C => c[lane],
                _ => SENTINEL,
            };
            let want: [Option<u64>; 32] = std::array::from_fn(|lane| {
                if on(lane) {
                    scalar(a[lane], b[lane], c[lane])
                } else {
                    Some(before(lane))
                }
            });
            let expect = want.map(|w| w.unwrap_or(0));
            let upper = expect.map(|e| e & !0xFFFF_FFFF);
            let args: Vec<KArg> = [a, b, c, upper]
                .iter()
                .flatten()
                .map(|&v| KArg::Ptr(v))
                .chain([KArg::Ptr(self.out), KArg::U32(mask)])
                .collect();
            let opts = LaunchOptions {
                timing_sample_blocks: 1,
                ..LaunchOptions::default()
            };
            let dims = LaunchDims::linear(2, 32);
            let run = launch_planned(&mut self.st, &[], plan, dims, &args, opts, 0, "");
            let ctx = format!("{what}, y = {y:#x}, mask {mask:#010x}");
            if want.contains(&None) {
                assert!(run.is_err(), "{ctx}: eval says a lane traps, the rows ran");
                self.trapped += 1;
                continue;
            }
            if let Err(e) = run {
                panic!("{ctx}: the rows trapped ({e}), eval has a value for every lane");
            }
            let words = self.st.global.read_i32_slice(self.out, 128).unwrap();
            for (block, report) in words.chunks(64).enumerate() {
                for lane in 0..32 {
                    let (low, upper_ok) = (report[lane] as u32, report[32 + lane]);
                    let want_low = expect[lane] as u32;
                    let any_nan = float
                        && on(lane)
                        && f32::from_bits(want_low).is_nan()
                        && f32::from_bits(low).is_nan();
                    assert!(
                        (low == want_low || any_nan) && upper_ok == 1,
                        "{ctx}: block {block} lane {lane} (a = {:#x}, c = {:#x}): \
                         eval says {:#x}, the row's low word is {low:#x} \
                         (upper word as expected: {upper_ok})",
                        a[lane],
                        c[lane],
                        expect[lane],
                    );
                }
            }
            self.compared += 1;
        }
    }
}

#[test]
fn every_row_kernel_matches_the_scalar_definition() {
    let mut s = Sweep::new();
    for ty in TYS {
        for op in BIN_OPS {
            let inst = Inst::Bin {
                op,
                ty,
                dst: DST,
                a: A.into(),
                b: B.into(),
            };
            s.check(inst, ty == Ty::F32, |x, y, _| eval::bin(op, ty, x, y));
        }
        for op in UN_OPS {
            let inst = Inst::Un {
                op,
                ty,
                dst: DST,
                a: A.into(),
            };
            let float = ty == Ty::F32 && op != UnOp::Not;
            s.check(inst, float, |x, _, _| Some(eval::un(op, ty, x)));
        }
        for cmp in CMP_OPS {
            let inst = Inst::Setp {
                cmp,
                ty,
                dst: DST,
                a: A.into(),
                b: B.into(),
            };
            s.check(inst, false, |x, y, _| {
                Some(u64::from(eval::cmp(cmp, ty, x, y)))
            });
        }
        for src_ty in TYS {
            let inst = Inst::Cvt {
                dst_ty: ty,
                src_ty,
                dst: DST,
                src: A.into(),
            };
            // Not a conversion: the executor copies the bits.
            s.check(inst, false, |x, _, _| {
                Some(eval::cvt(ty, src_ty, x).unwrap_or(x))
            });
        }
        // Multiply, round, add, round.
        let inst = Inst::Mad {
            ty,
            dst: DST,
            a: A.into(),
            b: B.into(),
            c: C.into(),
        };
        s.check(inst, ty == Ty::F32, |x, y, z| {
            eval::bin(BinOp::Mul, ty, x, y).and_then(|xy| eval::bin(BinOp::Add, ty, xy, z))
        });
    }
    // Both outcomes were exercised, not just predicted.
    assert!(
        s.compared > 5000 && s.trapped > 1000,
        "{} compared, {} trapped",
        s.compared,
        s.trapped
    );
}

/// Results are written in place, so a destination that is also a source
/// must still see every source lane as it was: `dst == a`, `dst == b` and
/// `dst == a == b` for every binary op, `dst == a` for the unary ops,
/// comparisons and conversions, `mad` into its addend and `selp` into its
/// predicate.
#[test]
fn a_destination_that_is_a_source_reads_it_first() {
    let mut s = Sweep::new();
    for ty in TYS {
        let float = ty == Ty::F32;
        for op in BIN_OPS {
            let bin = |dst, a: VReg, b: VReg| Inst::Bin {
                op,
                ty,
                dst,
                a: a.into(),
                b: b.into(),
            };
            let f = |x, y| eval::bin(op, ty, x, y);
            s.check_into(bin(A, A, B), A, float, |x, y, _| f(x, y));
            s.check_into(bin(B, A, B), B, float, |x, y, _| f(x, y));
            s.check_into(bin(A, A, A), A, float, |x, _, _| f(x, x));
        }
        for op in UN_OPS {
            let inst = Inst::Un {
                op,
                ty,
                dst: A,
                a: A.into(),
            };
            let float = float && op != UnOp::Not;
            s.check_into(inst, A, float, |x, _, _| Some(eval::un(op, ty, x)));
        }
        for cmp in CMP_OPS {
            let inst = Inst::Setp {
                cmp,
                ty,
                dst: B,
                a: A.into(),
                b: B.into(),
            };
            s.check_into(inst, B, false, |x, y, _| {
                Some(u64::from(eval::cmp(cmp, ty, x, y)))
            });
        }
        for src_ty in TYS {
            let inst = Inst::Cvt {
                dst_ty: ty,
                src_ty,
                dst: A,
                src: A.into(),
            };
            s.check_into(inst, A, false, |x, _, _| {
                Some(eval::cvt(ty, src_ty, x).unwrap_or(x))
            });
        }
        let inst = Inst::Mad {
            ty,
            dst: C,
            a: A.into(),
            b: B.into(),
            c: C.into(),
        };
        s.check_into(inst, C, float, |x, y, z| {
            eval::bin(BinOp::Mul, ty, x, y).and_then(|xy| eval::bin(BinOp::Add, ty, xy, z))
        });
        // `selp` picks its first operand where the predicate is nonzero.
        let inst = Inst::Selp {
            ty,
            dst: C,
            a: A.into(),
            b: B.into(),
            pred: C,
        };
        s.check_into(inst, C, false, |x, y, p| Some(if p != 0 { x } else { y }));
    }
    assert!(
        s.compared > 10000 && s.trapped > 1000,
        "{} compared, {} trapped",
        s.compared,
        s.trapped
    );
}

/// Every binary op by an immediate, for every `y` of the edge table: a
/// divisor every lane shares, which the executor divides by with a
/// multiplication.
#[test]
fn an_immediate_second_operand_matches_the_scalar_definition() {
    let mut s = Sweep::new();
    for ty in TYS {
        for op in BIN_OPS {
            s.check_imm(
                |b| Inst::Bin {
                    op,
                    ty,
                    dst: DST,
                    a: A.into(),
                    b,
                },
                ty == Ty::F32,
                |x, y, _| eval::bin(op, ty, x, y),
            );
        }
    }
    assert!(
        s.compared > 1500 && s.trapped > 1000,
        "{} compared, {} trapped",
        s.compared,
        s.trapped
    );
}
