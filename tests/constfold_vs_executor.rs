//! The constant folder against the machine that runs its output.
//!
//! For every `(op, type)` the constfold pass folds, and every pair drawn
//! from an edge table that includes immediates no lowering would write
//! but the IR can hold — `0xFFFF_FFFF` and `-1` under both `u32` and
//! `s32`, `0xFFFF_FFFC` added to a pointer, `i32::MIN / -1`, shift counts
//! of 32 and more, `mul24` operands with high bits, NaN and −0.0 under
//! `min`/`max` — build the one-instruction function, fold a copy, and run
//! the original through `LaunchPlan` + `launch_planned`: the register the
//! executor computes must hold exactly the bits the folded immediate
//! would put there, all 64 of them (a `u32` result that reaches a pointer
//! add, or a pointer compare, reads the upper word). Where the executor
//! traps, the folder must not have folded. The one freedom is the payload
//! of a NaN computed from NaNs, which x86 takes from whichever operand the
//! compiler put first.

use ks_ir::{
    Address, BasicBlock, BinOp, BlockId, CmpOp, Function, Inst, KernelParam, Operand, Space,
    Terminator, Ty, UnOp, VReg,
};
use ks_sim::{
    launch_planned, DeviceConfig, DeviceState, KArg, LaunchDims, LaunchOptions, LaunchPlan,
};

const PTR: Ty = Ty::Ptr(Space::Global);
const INT_TYS: [Ty; 3] = [Ty::S32, Ty::U32, PTR];
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

const INTS: [i64; 15] = [
    0,
    1,
    2,
    16,
    31,
    32,
    33,
    -1,
    0xFFFF_FFFF,
    0xFFFF_FFFC,
    i32::MIN as i64,
    0x8000_0000,
    0x7FFF_FFFF,
    0x0100_0001,
    0x1_0000_0004,
];
const FLOATS: [f32; 9] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    2.5,
    -2.5,
    3e9,
    f32::INFINITY,
    f32::NAN,
];

const DST: VReg = VReg(0);
const OUT: VReg = VReg(1);

fn function(vregs: Vec<Ty>, blocks: Vec<(Vec<Inst>, Terminator)>) -> Function {
    Function {
        name: "k".into(),
        params: vec![KernelParam {
            name: "out".into(),
            ty: PTR,
            offset: 0,
        }],
        blocks: blocks
            .into_iter()
            .enumerate()
            .map(|(i, (insts, term))| BasicBlock {
                id: BlockId(i as u32),
                insts,
                term,
            })
            .collect(),
        vreg_types: vregs,
        shared: vec![],
        local_bytes: 0,
    }
}

fn load_out() -> Inst {
    Inst::Ld {
        space: Space::Param,
        ty: PTR,
        dst: OUT,
        addr: Address::abs(0),
    }
}

fn store(offset: i64, src: Operand) -> Inst {
    Inst::St {
        space: Space::Global,
        ty: Ty::U32,
        addr: Address::reg_off(OUT, offset),
        src,
    }
}

/// The bits an immediate puts into a register.
fn imm_bits(o: Operand) -> u64 {
    match o {
        Operand::ImmI(v) => v as u64,
        Operand::ImmF(v) => v.to_bits() as u64,
        Operand::Reg(r) => panic!("{r} is not an immediate"),
    }
}

struct Machine {
    st: DeviceState,
    out: u64,
    folded: u32,
}

impl Machine {
    fn new() -> Machine {
        let mut st = DeviceState::new(DeviceConfig::tesla_c2070(), 1 << 12);
        let out = st.global.alloc(8).unwrap();
        Machine { st, out, folded: 0 }
    }

    /// One thread through `f`; the two words it stored, or the trap.
    fn run(&mut self, f: &Function) -> Result<[u32; 2], String> {
        let plan = LaunchPlan::from_function(f);
        let args = [KArg::Ptr(self.out)];
        let dims = LaunchDims::linear(1, 1);
        launch_planned(
            &mut self.st,
            &[],
            &plan,
            dims,
            &args,
            LaunchOptions::default(),
            0,
            "",
        )
        .map_err(|e| e.to_string())?;
        let w = self.st.global.read_i32_slice(self.out, 2).unwrap();
        Ok([w[0] as u32, w[1] as u32])
    }

    /// `inst` writes `DST`. If constfold turns it into `mov DST, imm`, the
    /// executor must compute that immediate's bits from the original.
    fn value_case(&mut self, inst: Inst, float: bool) {
        let mut folded = function(vec![PTR, PTR], vec![(vec![inst.clone()], Terminator::Ret)]);
        ks_opt::constfold::run(&mut folded);
        let want = match &folded.blocks[0].insts[0] {
            Inst::Mov { src, .. } if !matches!(src, Operand::Reg(_)) => imm_bits(*src),
            _ => return,
        };
        self.folded += 1;

        // Store DST's low word, load it back zero-extended, add the upper
        // word the fold predicts and compare all 64 bits in the machine.
        let (low, same, flag) = (VReg(2), VReg(3), VReg(4));
        let report = vec![
            inst.clone(),
            load_out(),
            store(0, DST.into()),
            Inst::Ld {
                space: Space::Global,
                ty: Ty::U32,
                dst: low,
                addr: Address::reg(OUT),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: PTR,
                dst: low,
                a: low.into(),
                b: Operand::ImmI((want & !0xFFFF_FFFF) as i64),
            },
            Inst::Setp {
                cmp: CmpOp::Eq,
                ty: PTR,
                dst: same,
                a: DST.into(),
                b: low.into(),
            },
            Inst::Selp {
                ty: Ty::U32,
                dst: flag,
                a: Operand::ImmI(1),
                b: Operand::ImmI(0),
                pred: same,
            },
            store(4, flag.into()),
        ];
        let f = function(
            vec![PTR, PTR, PTR, Ty::Pred, Ty::U32],
            vec![(report, Terminator::Ret)],
        );
        let [low, upper_ok] = self.run(&f).unwrap_or_else(|trap| {
            panic!("{inst:?} folded to {want:#x}, the executor traps: {trap}")
        });
        let any_nan = float && f32::from_bits(want as u32).is_nan() && f32::from_bits(low).is_nan();
        assert!(
            (low == want as u32 || any_nan) && upper_ok == 1,
            "{inst:?} folded to {want:#x}; the executor computes low word {low:#x}, \
             upper word as folded: {upper_ok}"
        );
    }

    /// `setp` feeding a branch: if constfold resolves the branch, the
    /// executor must take the same side.
    fn branch_case(&mut self, cmp: CmpOp, ty: Ty, a: Operand, b: Operand) {
        let setp = Inst::Setp {
            cmp,
            ty,
            dst: DST,
            a,
            b,
        };
        let f = function(
            vec![Ty::Pred, PTR],
            vec![
                (
                    vec![load_out(), setp.clone()],
                    Terminator::CondBr {
                        pred: DST,
                        negate: false,
                        then_t: BlockId(1),
                        else_t: BlockId(2),
                    },
                ),
                (vec![store(0, Operand::ImmI(1))], Terminator::Ret),
                (vec![store(0, Operand::ImmI(0))], Terminator::Ret),
            ],
        );
        let mut folded = f.clone();
        ks_opt::constfold::run(&mut folded);
        let Terminator::Br { target } = folded.blocks[0].term else {
            return;
        };
        self.folded += 1;
        let [taken, _] = self.run(&f).unwrap();
        assert_eq!(
            taken,
            u32::from(target == BlockId(1)),
            "{setp:?}: the fold branches to {target}, the executor the other way"
        );
    }
}

#[test]
fn every_fold_is_what_the_executor_computes() {
    let mut m = Machine::new();
    let ints = INTS.map(Operand::ImmI);
    let floats = FLOATS.map(Operand::ImmF);
    let kinds: Vec<(Ty, &[Operand])> = INT_TYS
        .iter()
        .map(|&ty| (ty, &ints[..]))
        .chain([(Ty::F32, &floats[..])])
        .collect();
    for &(ty, imms) in &kinds {
        let float = ty == Ty::F32;
        for &a in imms {
            for op in UN_OPS {
                m.value_case(
                    Inst::Un {
                        op,
                        ty,
                        dst: DST,
                        a,
                    },
                    float && op != UnOp::Not,
                );
            }
            for &(dst_ty, _) in &kinds {
                let cvt = Inst::Cvt {
                    dst_ty,
                    src_ty: ty,
                    dst: DST,
                    src: a,
                };
                m.value_case(cvt, false);
            }
            for &b in imms {
                for op in BIN_OPS {
                    m.value_case(
                        Inst::Bin {
                            op,
                            ty,
                            dst: DST,
                            a,
                            b,
                        },
                        float,
                    );
                }
                for cmp in CMP_OPS {
                    m.branch_case(cmp, ty, a, b);
                }
            }
        }
    }
    // The table is not vacuous: most integer cases fold.
    assert!(m.folded > 8000, "only {} cases folded", m.folded);
}

/// The two cases the folder and the executor disagreed on before they
/// shared `ks_ir::eval`, by name.
#[test]
fn pointer_displacement_and_cvt_follow_the_executor() {
    let mut m = Machine::new();
    // A 32-bit value added to a pointer is sign-extended: 16 + (-4).
    m.value_case(
        Inst::Bin {
            op: BinOp::Add,
            ty: PTR,
            dst: DST,
            a: Operand::ImmI(16),
            b: Operand::ImmI(0xFFFF_FFFC),
        },
        false,
    );
    // s32 → pointer sign-extends the low word, u32 → pointer zero-extends
    // it, whatever the immediate's upper word held.
    for (src_ty, v) in [(Ty::S32, 0xFFFF_FFFF), (Ty::U32, -1)] {
        m.value_case(
            Inst::Cvt {
                dst_ty: PTR,
                src_ty,
                dst: DST,
                src: Operand::ImmI(v),
            },
            false,
        );
    }
    assert_eq!(m.folded, 3, "constfold folds all three");
}
