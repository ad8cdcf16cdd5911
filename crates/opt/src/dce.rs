//! Dead-code elimination. Removes instructions whose results are never
//! used and which have no side effects, chains included. In a fully
//! specialized kernel this is the pass that deletes the parameter-space
//! loads and special-register reads that constant propagation made
//! redundant.
//!
//! Registers are not SSA: a register dies only when *no* remaining
//! instruction reads it, and then every pure definition of it goes at
//! once. An instruction that reads its own destination (`r = r + 1`)
//! therefore keeps itself alive.
//!
//! Complexity: linear in the function. One sweep counts reads per
//! register and indexes definitions by register; a worklist of unread
//! registers then visits each dead instruction once, and one `retain`
//! per block drops them.

use ks_ir::{Function, Inst};

/// Remove dead instructions; returns how many were removed in total.
pub fn run(f: &mut Function) -> usize {
    const NONE: u32 = u32::MAX;
    let insts: Vec<&Inst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
    // Per register: how many reads remain, and the chain of instructions
    // defining it (`first_def[r]`, then `next_def[inst]`).
    let mut uses = vec![0u32; f.num_vregs()];
    let mut first_def = vec![NONE; f.num_vregs()];
    let mut next_def = vec![NONE; insts.len()];
    for (n, i) in insts.iter().enumerate() {
        i.for_each_use(|r| uses[r.0 as usize] += 1);
        if let (Some(d), false) = (i.def(), i.has_side_effect()) {
            next_def[n] = std::mem::replace(&mut first_def[d.0 as usize], n as u32);
        }
    }
    for p in f.blocks.iter().filter_map(|b| b.term.use_reg()) {
        uses[p.0 as usize] += 1;
    }
    // A register nobody reads takes all of its definitions with it; each
    // read those gave up may leave another register unread.
    let mut dead = vec![false; insts.len()];
    let mut removed = 0;
    let mut unread: Vec<usize> = (0..uses.len()).filter(|&r| uses[r] == 0).collect();
    while let Some(r) = unread.pop() {
        let mut n = first_def[r];
        while n != NONE {
            dead[n as usize] = true;
            removed += 1;
            insts[n as usize].for_each_use(|u| {
                let u = u.0 as usize;
                uses[u] -= 1;
                if uses[u] == 0 {
                    unread.push(u);
                }
            });
            n = next_def[n as usize];
        }
    }
    if removed > 0 {
        let mut dead = dead.into_iter();
        for b in &mut f.blocks {
            b.insts
                .retain(|_| !dead.next().expect("one flag per instruction"));
        }
    }
    removed
}

/// The pass as it stood before the use-count worklist (whole-function
/// rescans, one link of a dead chain per round): kept verbatim as the
/// model the worklist is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn run(f: &mut Function) -> usize {
        let mut removed_total = 0;
        loop {
            let mut used = vec![false; f.num_vregs()];
            for b in &f.blocks {
                for i in &b.insts {
                    i.for_each_use(|r| used[r.0 as usize] = true);
                }
                if let Some(p) = b.term.use_reg() {
                    used[p.0 as usize] = true;
                }
            }
            let mut removed = 0;
            for b in &mut f.blocks {
                b.insts.retain(|i| {
                    if i.has_side_effect() {
                        return true;
                    }
                    match i.def() {
                        Some(d) if !used[d.0 as usize] => {
                            removed += 1;
                            false
                        }
                        _ => true,
                    }
                });
            }
            removed_total += removed;
            if removed == 0 {
                break;
            }
        }
        removed_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    #[test]
    fn removes_dead_chain_but_keeps_stores_and_barriers() {
        let mut f = Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let a = f.new_vreg(Ty::S32);
        let b = f.new_vreg(Ty::S32);
        let live = f.new_vreg(Ty::F32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                // dead chain: a -> b -> nothing
                Inst::Mov {
                    ty: Ty::S32,
                    dst: a,
                    src: Operand::ImmI(1),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::S32,
                    dst: b,
                    a: a.into(),
                    b: Operand::ImmI(1),
                },
                // live value feeding a store
                Inst::Mov {
                    ty: Ty::F32,
                    dst: live,
                    src: Operand::ImmF(2.0),
                },
                Inst::Bar,
                Inst::St {
                    space: Space::Global,
                    ty: Ty::F32,
                    addr: Address::abs(0),
                    src: live.into(),
                },
            ],
            term: Terminator::Ret,
        });
        let removed = run(&mut f);
        assert_eq!(removed, 2);
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert!(f.blocks[0].insts.iter().any(|i| matches!(i, Inst::Bar)));
        assert!(f.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i, Inst::St { .. })));
    }

    #[test]
    fn keeps_branch_predicate() {
        let mut f = Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        };
        let p = f.new_vreg(Ty::Pred);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![Inst::Setp {
                cmp: CmpOp::Lt,
                ty: Ty::S32,
                dst: p,
                a: Operand::ImmI(0),
                b: Operand::ImmI(1),
            }],
            term: Terminator::CondBr {
                pred: p,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(1),
            },
        });
        f.blocks.push(BasicBlock {
            id: BlockId(1),
            insts: vec![],
            term: Terminator::Ret,
        });
        assert_eq!(run(&mut f), 0);
    }

    fn block(tys: Vec<Ty>, insts: Vec<Inst>) -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![BasicBlock {
                id: BlockId(0),
                insts,
                term: Terminator::Ret,
            }],
            vreg_types: tys,
            shared: vec![],
            local_bytes: 0,
        }
    }

    fn add(dst: u32, a: u32, imm: i64) -> Inst {
        Inst::Bin {
            op: BinOp::Add,
            ty: Ty::S32,
            dst: VReg(dst),
            a: VReg(a).into(),
            b: Operand::ImmI(imm),
        }
    }

    #[test]
    fn multiply_defined_dead_register_dies_as_a_unit() {
        // r1 is written twice and never read; r0 only fed those writes,
        // so it goes too. r2 is read by the store and stays.
        let store = Inst::St {
            space: Space::Global,
            ty: Ty::S32,
            addr: Address::abs(0),
            src: VReg(2).into(),
        };
        let mut f = block(
            vec![Ty::S32; 3],
            vec![
                Inst::Special {
                    dst: VReg(0),
                    reg: SpecialReg::TidX,
                },
                add(1, 0, 1),
                Inst::Special {
                    dst: VReg(2),
                    reg: SpecialReg::TidY,
                },
                add(1, 0, 2),
                store.clone(),
            ],
        );
        assert_eq!(run(&mut f), 3);
        assert_eq!(
            f.blocks[0].insts,
            vec![
                Inst::Special {
                    dst: VReg(2),
                    reg: SpecialReg::TidY,
                },
                store
            ]
        );
    }

    #[test]
    fn one_read_keeps_every_definition_of_a_register() {
        // Not SSA: the store may observe either write of r1.
        let mut f = block(
            vec![Ty::S32; 2],
            vec![
                add(1, 0, 1),
                add(1, 0, 2),
                Inst::St {
                    space: Space::Global,
                    ty: Ty::S32,
                    addr: Address::abs(0),
                    src: VReg(1).into(),
                },
            ],
        );
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn self_use_keeps_itself_alive() {
        // `r0 = r0 + 1` reads r0, so r0 counts as used — and with it the
        // move that initializes it.
        let mut f = block(
            vec![Ty::S32],
            vec![
                Inst::Mov {
                    ty: Ty::S32,
                    dst: VReg(0),
                    src: Operand::ImmI(0),
                },
                add(0, 0, 1),
            ],
        );
        assert_eq!(run(&mut f), 0);
        assert_eq!(f.blocks[0].insts.len(), 2);
    }

    mod against_reference {
        use super::super::{reference, run};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn worklist_pass_is_the_reference_pass(
                f in prop_oneof![crate::testgen::function(6), crate::testgen::function(48)],
            ) {
                let (mut new, mut old) = (f.clone(), f);
                let (n, o) = (run(&mut new), reference::run(&mut old));
                prop_assert_eq!(n, o, "removed count");
                prop_assert_eq!(new, old);
            }
        }
    }
}
