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
//!
//! The probe declares its operand registers two ways ([`Layout`]). As
//! pointers they sit in the 64-bit bank, so every 32-bit kind reads them
//! across banks, lane by lane. Typed as the op reads them they sit in the
//! 32-bit bank and run the row kernels; a register then holds its load's
//! extension of the table value (`eval::load_extend`), and its 64-bit
//! read — the report compares all 64 bits of the result — is its 32-bit
//! value extended the way its writers extend it.

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

/// What an unwritten destination lane holds: 64 bits in the pointer
/// layout, a value either extension rebuilds in the typed one.
const SENTINEL: u64 = 0xDEAD_BEEF_CAFE_F00D;
const SENTINEL32: u64 = 0x0AFE_F00D;
const MASKS: [u32; 2] = [u32::MAX, 0x0F0F_5A5A];

/// Registers of the probe kernel, and a `u32` one its instructions may
/// use in between.
const DST: VReg = VReg(0);
const A: VReg = VReg(1);
const B: VReg = VReg(2);
const C: VReg = VReg(3);
const T: VReg = VReg(4);

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

/// How the probe declares `DST`, `A`, `B` and `C`.
#[derive(Debug, Clone, Copy)]
enum Layout {
    /// All pointers, loaded as 64 bits.
    Pointers,
    /// Each its own type, loaded as that type.
    Typed([Ty; 4]),
}

impl Layout {
    /// The types of `DST`, `A`, `B`, `C`.
    fn tys(self) -> [Ty; 4] {
        match self {
            Layout::Pointers => [PTR; 4],
            Layout::Typed(tys) => tys,
        }
    }

    /// Each operand as the op's own type; `dst` is the result's.
    fn of(dst: Ty, ty: Ty) -> Layout {
        Layout::Typed([dst, ty, ty, ty])
    }

    fn sentinel(self) -> u64 {
        match self {
            Layout::Pointers => SENTINEL,
            Layout::Typed(_) => SENTINEL32,
        }
    }

    /// What register `r` holds after loading table value `v`.
    fn loaded(self, r: VReg, v: u64) -> u64 {
        match self.tys()[r.0 as usize] {
            ty if ty.is_ptr() => v,
            ty => eval::load_extend(ty, v as u32),
        }
    }
}

/// `insts` (reading `A`, `B`, `C`, writing `result`) wrapped so that each
/// lane loads its operands, the lanes of the mask run `insts`, and every
/// lane reports `result`: its low word, and whether its upper word is the
/// expected one (a store keeps 32 bits and a load zero-extends them back;
/// `setp.eq` on a pointer compares 64).
fn probe(insts: Vec<Inst>, result: VReg, layout: Layout) -> LaunchPlan {
    let tys = layout.tys();
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
        vreg_types: [&tys[..], &[Ty::U32]].concat(),
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
    for (i, (r, ty)) in [(A, tys[1]), (B, tys[2]), (C, tys[3]), (upper, PTR)]
        .into_iter()
        .enumerate()
    {
        entry.push(ld(ty, r, Address::reg_off(lane8, i as i64 * TABLE)));
    }
    entry.extend([
        ld(PTR, out, Address::abs(OUT_PARAM)),
        ld(Ty::U32, mask, Address::abs(MASK_PARAM)),
        Inst::Mov {
            ty: tys[0],
            dst: DST,
            src: Operand::ImmI(layout.sentinel() as i64),
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
        block(1, insts, Terminator::Br { target: BlockId(2) }),
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

    /// As [`Sweep::check`], with the operands laid out as `layout` says.
    fn check_as(
        &mut self,
        layout: Layout,
        insts: Vec<Inst>,
        float: bool,
        scalar: impl Fn(u64, u64, u64) -> Option<u64>,
    ) {
        let what = format!("{insts:?} as {layout:?}");
        let plan = probe(insts, DST, layout);
        for y in self.values.clone() {
            self.run(&plan, &what, layout, DST, y, float, &scalar);
        }
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
        let plan = probe(vec![inst], result, Layout::Pointers);
        for y in self.values.clone() {
            self.run(&plan, &what, Layout::Pointers, result, y, float, &scalar);
        }
    }

    /// `inst(y)` for every `y` of the edge table as an immediate second
    /// operand: a row every lane shares, which integer division takes by
    /// multiplication. The `B` row holds `y` too, so `scalar` sees it.
    fn check_imm(
        &mut self,
        layout: Layout,
        inst: impl Fn(Operand) -> Inst,
        float: bool,
        scalar: impl Fn(u64, u64, u64) -> Option<u64>,
    ) {
        // `B` holds the immediate for `scalar`, all 64 bits of it.
        let layout = match layout {
            Layout::Typed([d, a, _, c]) => Layout::Typed([d, a, PTR, c]),
            pointers => pointers,
        };
        for y in self.values.clone() {
            let inst = inst(Operand::ImmI(y as i64));
            let what = format!("{inst:?} as {layout:?}");
            let plan = probe(vec![inst], DST, layout);
            self.run(&plan, &what, layout, DST, y, float, &scalar);
        }
    }

    /// One launch per mask of `plan` with `y` in the active lanes' `B`,
    /// each lane held to `scalar` of its registers (active) or `result`'s
    /// value before the instruction (inactive).
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        plan: &LaunchPlan,
        what: &str,
        layout: Layout,
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
            let reg = |r: VReg, lane: usize| {
                let v = [a, b, c][r.0 as usize - 1][lane];
                layout.loaded(r, v)
            };
            let before = |lane: usize| match result {
                A | B | C => reg(result, lane),
                _ => layout.sentinel(),
            };
            let want: [Option<u64>; 32] = std::array::from_fn(|lane| {
                if on(lane) {
                    scalar(reg(A, lane), reg(B, lane), reg(C, lane))
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
                        reg(A, lane),
                        reg(C, lane),
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
                Layout::Pointers,
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

/// Every `(op, type)` pair again, each operand loaded as the type the op
/// reads it as: the 32-bit bank's row kernels, and the 64-bit bank's for
/// pointers, against `eval` on what the registers hold.
#[test]
fn typed_operands_run_the_row_kernels_and_match_the_scalar_definition() {
    let mut s = Sweep::new();
    for ty in TYS {
        let float = ty == Ty::F32;
        let (a, b, c) = (A.into(), B.into(), C.into());
        for op in BIN_OPS {
            let inst = Inst::Bin {
                op,
                ty,
                dst: DST,
                a,
                b,
            };
            s.check_as(Layout::of(ty, ty), vec![inst], float, |x, y, _| {
                eval::bin(op, ty, x, y)
            });
            s.check_imm(
                Layout::of(ty, ty),
                |b| Inst::Bin {
                    op,
                    ty,
                    dst: DST,
                    a,
                    b,
                },
                float,
                |x, y, _| eval::bin(op, ty, x, y),
            );
        }
        for op in UN_OPS {
            let inst = Inst::Un {
                op,
                ty,
                dst: DST,
                a,
            };
            let float = float && op != UnOp::Not;
            s.check_as(Layout::of(ty, ty), vec![inst], float, |x, _, _| {
                Some(eval::un(op, ty, x))
            });
        }
        for cmp in CMP_OPS {
            let inst = Inst::Setp {
                cmp,
                ty,
                dst: DST,
                a,
                b,
            };
            s.check_as(Layout::of(Ty::Pred, ty), vec![inst], false, |x, y, _| {
                Some(u64::from(eval::cmp(cmp, ty, x, y)))
            });
        }
        for src_ty in TYS {
            let inst = Inst::Cvt {
                dst_ty: ty,
                src_ty,
                dst: DST,
                src: a,
            };
            s.check_as(Layout::of(ty, src_ty), vec![inst], false, |x, _, _| {
                Some(eval::cvt(ty, src_ty, x).unwrap_or(x))
            });
        }
        let inst = Inst::Mad {
            ty,
            dst: DST,
            a,
            b,
            c,
        };
        s.check_as(Layout::of(ty, ty), vec![inst], float, |x, y, z| {
            eval::bin(BinOp::Mul, ty, x, y).and_then(|xy| eval::bin(BinOp::Add, ty, xy, z))
        });
        let inst = Inst::Selp {
            ty,
            dst: DST,
            a,
            b,
            pred: C,
        };
        let layout = Layout::Typed([ty, ty, ty, Ty::Pred]);
        s.check_as(layout, vec![inst], false, |x, y, p| {
            Some(if p != 0 { x } else { y })
        });
    }
    assert!(
        s.compared > 5000 && s.trapped > 1000,
        "{} compared, {} trapped",
        s.compared,
        s.trapped
    );
}

/// The reads that cross banks on purpose: pointer arithmetic by a 32-bit
/// offset (unsigned with bit 31 set, negative signed) or by a 64-bit
/// immediate either side of `u32::MAX`; conversions between 32-bit
/// integers and pointers both ways; `setp.u64` on pointers and on 32-bit
/// registers.
#[test]
fn cross_width_reads_match_the_scalar_definition() {
    let mut s = Sweep::new();
    let (a, b) = (A.into(), B.into());
    for op in [BinOp::Add, BinOp::Sub] {
        let inst = Inst::Bin {
            op,
            ty: PTR,
            dst: DST,
            a,
            b,
        };
        for off in [Ty::U32, Ty::S32, PTR] {
            let layout = Layout::Typed([PTR, PTR, off, PTR]);
            s.check_as(layout, vec![inst.clone()], false, |x, y, _| {
                eval::bin(op, PTR, x, y)
            });
        }
        for y in [0xFFFF_FFFFu64, 0x8000_0000, 0x1_0000_0000, u64::MAX - 3] {
            let imm = Operand::ImmI(y as i64);
            let inst = Inst::Bin {
                op,
                ty: PTR,
                dst: DST,
                a,
                b: imm,
            };
            s.check_as(Layout::of(PTR, PTR), vec![inst], false, |x, _, _| {
                eval::bin(op, PTR, x, y)
            });
        }
    }
    for int in [Ty::S32, Ty::U32] {
        for (dst_ty, src_ty) in [(PTR, int), (int, PTR)] {
            let inst = Inst::Cvt {
                dst_ty,
                src_ty,
                dst: DST,
                src: a,
            };
            s.check_as(Layout::of(dst_ty, src_ty), vec![inst], false, |x, _, _| {
                eval::cvt(dst_ty, src_ty, x)
            });
        }
    }
    for operands in [PTR, Ty::S32, Ty::U32] {
        for cmp in CMP_OPS {
            let inst = Inst::Setp {
                cmp,
                ty: PTR,
                dst: DST,
                a,
                b,
            };
            s.check_as(
                Layout::of(Ty::Pred, operands),
                vec![inst],
                false,
                |x, y, _| Some(u64::from(eval::cmp(cmp, PTR, x, y))),
            );
        }
    }
    assert!(s.compared > 500, "{} compared", s.compared);
}

/// A negative `s32` that reaches a `u32` register through a `cvt` that is
/// no conversion keeps its sign-extended 64 bits (the register is placed
/// as a sign-extending one: that is how its one writer extends it). As a
/// pointer offset it moves the pointer back; as a shared-memory address
/// base, it addresses below its offset.
#[test]
fn a_negative_s32_copied_into_a_u32_register_stays_negative() {
    let mut s = Sweep::new();
    let copy = |src: VReg| Inst::Cvt {
        dst_ty: Ty::U32,
        src_ty: Ty::S32,
        dst: T,
        src: src.into(),
    };
    let offset = Inst::Bin {
        op: BinOp::Add,
        ty: PTR,
        dst: DST,
        a: B.into(),
        b: T.into(),
    };
    let layout = Layout::Typed([PTR, Ty::S32, PTR, PTR]);
    s.check_as(layout, vec![copy(A), offset], false, |x, y, _| {
        eval::bin(BinOp::Add, PTR, y, x)
    });
    assert!(s.compared > 50, "{} compared", s.compared);

    // Lane `t` stores `t` at shared `u + 252` with `u = -4t`, loads it
    // back and stores it to global memory at `out + 256 + u`.
    let mut f = Function {
        name: "negative_base".into(),
        params: vec![
            KernelParam {
                name: "out".into(),
                ty: PTR,
                offset: 0,
            },
            KernelParam {
                name: "mask".into(),
                ty: Ty::U32,
                offset: 8,
            },
        ],
        blocks: vec![],
        vreg_types: vec![],
        shared: vec![ks_ir::SharedDecl {
            name: "buf".into(),
            offset: 0,
            size_bytes: 256,
        }],
        local_bytes: 0,
    };
    let [tid, mask, bit, u, v] = [(); 5].map(|_| f.new_vreg(Ty::U32));
    let [out, q] = [(); 2].map(|_| f.new_vreg(PTR));
    let [neg] = [(); 1].map(|_| f.new_vreg(Ty::S32));
    let active = f.new_vreg(Ty::Pred);
    let bin = |op, ty, dst, a: VReg, b: Operand| Inst::Bin {
        op,
        ty,
        dst,
        a: a.into(),
        b,
    };
    let entry = vec![
        Inst::Special {
            dst: tid,
            reg: SpecialReg::TidX,
        },
        Inst::Ld {
            space: Space::Param,
            ty: PTR,
            dst: out,
            addr: Address::abs(0),
        },
        Inst::Ld {
            space: Space::Param,
            ty: Ty::U32,
            dst: mask,
            addr: Address::abs(8),
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
    ];
    let body = vec![
        bin(BinOp::Mul, Ty::S32, neg, tid, Operand::ImmI(-4)),
        Inst::Cvt {
            dst_ty: Ty::U32,
            src_ty: Ty::S32,
            dst: u,
            src: neg.into(),
        },
        Inst::St {
            space: Space::Shared,
            ty: Ty::U32,
            addr: Address::reg_off(u, 252),
            src: tid.into(),
        },
        Inst::Ld {
            space: Space::Shared,
            ty: Ty::U32,
            dst: v,
            addr: Address::reg_off(u, 252),
        },
        bin(BinOp::Add, PTR, q, out, u.into()),
        Inst::St {
            space: Space::Global,
            ty: Ty::U32,
            addr: Address::reg_off(q, 256),
            src: v.into(),
        },
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
        block(1, body, Terminator::Br { target: BlockId(2) }),
        block(2, vec![], Terminator::Ret),
    ];
    assert!(ks_ir::verify_module(&ks_ir::Module {
        functions: vec![f.clone()],
        ..Default::default()
    })
    .is_empty());
    let plan = LaunchPlan::from_function(&f);
    assert_eq!(plan.bank_census().mixed, 0);
    for mask in MASKS {
        let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 12);
        let buf = st.global.alloc(512).unwrap();
        let opts = LaunchOptions {
            timing_sample_blocks: 1,
            ..LaunchOptions::default()
        };
        // Block 0 runs timed, block 1 untimed; both write the same words.
        let dims = LaunchDims::linear(2, 32);
        let args = [KArg::Ptr(buf), KArg::U32(mask)];
        launch_planned(&mut st, &[], &plan, dims, &args, opts, 0, "")
            .unwrap_or_else(|e| panic!("mask {mask:#x}: {e}"));
        let words = st.global.read_i32_slice(buf, 128).unwrap();
        for t in 0..32 {
            let want = if mask & (1 << t) != 0 { t as i32 } else { 0 };
            assert_eq!(words[64 - t], want, "mask {mask:#x}, lane {t}");
        }
    }
}
