//! Virtual → physical register assignment ("PTX → SASS" translation).
//!
//! PTX registers are virtual; assignment happens during the JIT translation
//! to the binary ISA (§2.4). The per-thread physical register count this
//! produces drives the occupancy model — which is how the dissertation's
//! "reduced register usage with kernel specialization" claim becomes a
//! measurable performance effect here.
//!
//! Implementation: classic backward liveness dataflow over the CFG, then a
//! linear scan over a block-layout linearization. Predicate registers live
//! in a separate (SASS-like) predicate file and are reported separately.

use ks_ir::cfg::{liveness, Cfg};
use ks_ir::{Function, Ty};

/// Result of register allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RegAlloc {
    /// General-purpose physical registers needed per thread.
    pub gpr_count: u32,
    /// Predicate registers needed.
    pub pred_count: u32,
    /// Physical register assigned to each vreg (GPRs and preds numbered
    /// independently).
    pub assignment: Vec<u32>,
}

/// Compute live intervals over a linearization and run a linear scan.
///
/// Intervals are built per *live segment*, not per virtual register: a
/// register that is redefined after its previous value died (the reused
/// named temporaries of an unrolled loop body) contributes several short
/// segments instead of one function-spanning interval. Without this,
/// unrolled specialized kernels would report wildly inflated pressure.
pub fn allocate(f: &Function) -> RegAlloc {
    let nv = f.num_vregs();
    if nv == 0 {
        return RegAlloc {
            gpr_count: 0,
            pred_count: 0,
            assignment: vec![],
        };
    }
    let cfg = Cfg::build(f);
    let live = liveness(f, &cfg);

    // Assign global positions in layout order: each instruction gets two
    // positions (use at p, def at p+1) so a def can reuse a register whose
    // last use is the same instruction.
    let mut block_bounds = Vec::with_capacity(f.blocks.len());
    let mut pos = 0usize;
    for b in &f.blocks {
        let start = pos;
        pos += 2 * (b.insts.len() + 1);
        block_bounds.push((start, pos));
    }

    // Build live segments per block, walking backwards.
    #[derive(Debug, Clone, Copy)]
    struct Seg {
        start: usize,
        end: usize,
        vreg: usize,
    }
    let mut segs: Vec<Seg> = Vec::new();
    // open_end[v] = Some(end position) while v is live during the backward
    // walk of the current block.
    let mut open_end: Vec<Option<usize>> = vec![None; nv];
    for (bi, b) in f.blocks.iter().enumerate() {
        let (bstart, bend) = block_bounds[bi];
        for v in open_end.iter_mut() {
            *v = None;
        }
        // Everything live-out survives to the block end.
        for r in live.live_out(bi) {
            open_end[r as usize] = Some(bend);
        }
        // Terminator use.
        let term_pos = bend - 2;
        if let Some(p) = b.term.use_reg() {
            let e = open_end[p.0 as usize].get_or_insert(term_pos);
            *e = (*e).max(term_pos);
        }
        // Instructions backwards.
        for (ii, inst) in b.insts.iter().enumerate().rev() {
            let use_pos = bstart + 2 * ii;
            let def_pos = use_pos + 1;
            if let Some(d) = inst.def() {
                if let Some(end) = open_end[d.0 as usize].take() {
                    segs.push(Seg {
                        start: def_pos,
                        end,
                        vreg: d.0 as usize,
                    });
                }
                // A def whose value is never used still occupies its slot.
                // (open_end was None: emit a point segment.)
                else {
                    segs.push(Seg {
                        start: def_pos,
                        end: def_pos,
                        vreg: d.0 as usize,
                    });
                }
            }
            inst.for_each_use(|r| {
                let e = open_end[r.0 as usize].get_or_insert(use_pos);
                *e = (*e).max(use_pos);
            });
        }
        // Values still live at block entry (live-in or used before def).
        for (v, end) in open_end.iter_mut().enumerate() {
            if let Some(e) = end.take() {
                segs.push(Seg {
                    start: bstart,
                    end: e,
                    vreg: v,
                });
            }
        }
    }

    // Linear scan over segments; GPRs and predicates in separate files.
    let mut events: Vec<(usize, bool, usize)> = Vec::with_capacity(segs.len() * 2);
    for (si, s) in segs.iter().enumerate() {
        events.push((s.start, true, si));
        events.push((s.end + 1, false, si));
    }
    // Ends release before starts acquire at the same position.
    events.sort_by_key(|&(p, is_start, _)| (p, is_start));

    let mut assignment = vec![u32::MAX; nv];
    let mut seg_reg = vec![u32::MAX; segs.len()];
    let mut free_gpr: Vec<u32> = Vec::new();
    let mut free_pred: Vec<u32> = Vec::new();
    let mut next_gpr = 0u32;
    let mut next_pred = 0u32;
    for (_, is_start, si) in events {
        let v = segs[si].vreg;
        let is_pred = f.vreg_types[v] == Ty::Pred;
        if is_start {
            let reg = if is_pred {
                free_pred.pop().unwrap_or_else(|| {
                    let r = next_pred;
                    next_pred += 1;
                    r
                })
            } else {
                free_gpr.pop().unwrap_or_else(|| {
                    let r = next_gpr;
                    next_gpr += 1;
                    r
                })
            };
            seg_reg[si] = reg;
            // Record the first assignment for reporting purposes.
            if assignment[v] == u32::MAX {
                assignment[v] = reg;
            }
        } else if seg_reg[si] != u32::MAX {
            if is_pred {
                free_pred.push(seg_reg[si]);
            } else {
                free_gpr.push(seg_reg[si]);
            }
        }
    }
    RegAlloc {
        gpr_count: next_gpr,
        pred_count: next_pred,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    fn mk() -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![],
            local_bytes: 0,
        }
    }

    /// A chain a→b→c→store where each value dies at its single use needs
    /// very few physical registers.
    #[test]
    fn sequential_chain_reuses_registers() {
        let mut f = mk();
        let regs: Vec<VReg> = (0..16).map(|_| f.new_vreg(Ty::S32)).collect();
        let mut insts = vec![Inst::Mov {
            ty: Ty::S32,
            dst: regs[0],
            src: Operand::ImmI(0),
        }];
        for w in 1..16 {
            insts.push(Inst::Bin {
                op: BinOp::Add,
                ty: Ty::S32,
                dst: regs[w],
                a: regs[w - 1].into(),
                b: Operand::ImmI(1),
            });
        }
        insts.push(Inst::St {
            space: Space::Global,
            ty: Ty::S32,
            addr: Address::abs(0),
            src: regs[15].into(),
        });
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts,
            term: Terminator::Ret,
        });
        let ra = allocate(&f);
        assert!(
            ra.gpr_count <= 2,
            "chain should need ≤2 GPRs, got {}",
            ra.gpr_count
        );
    }

    /// Register blocking: K live accumulators force ≥K registers.
    #[test]
    fn live_accumulators_need_distinct_registers() {
        let mut f = mk();
        let k = 8;
        let accs: Vec<VReg> = (0..k).map(|_| f.new_vreg(Ty::F32)).collect();
        let mut insts: Vec<Inst> = accs
            .iter()
            .map(|&a| Inst::Mov {
                ty: Ty::F32,
                dst: a,
                src: Operand::ImmF(0.0),
            })
            .collect();
        // Touch all accumulators again so they're simultaneously live.
        for &a in &accs {
            insts.push(Inst::St {
                space: Space::Global,
                ty: Ty::F32,
                addr: Address::abs(0),
                src: a.into(),
            });
        }
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts,
            term: Terminator::Ret,
        });
        let ra = allocate(&f);
        assert!(ra.gpr_count >= k as u32, "got {}", ra.gpr_count);
    }

    /// Values live across a loop back-edge stay allocated for the loop.
    #[test]
    fn loop_carried_value_spans_loop() {
        let mut f = mk();
        let acc = f.new_vreg(Ty::S32);
        let i = f.new_vreg(Ty::S32);
        let p = f.new_vreg(Ty::Pred);
        // BB0: acc=0; i=0 → BB1
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Mov {
                    ty: Ty::S32,
                    dst: acc,
                    src: Operand::ImmI(0),
                },
                Inst::Mov {
                    ty: Ty::S32,
                    dst: i,
                    src: Operand::ImmI(0),
                },
            ],
            term: Terminator::Br { target: BlockId(1) },
        });
        // BB1: acc+=i; i+=1; p = i<10; br p BB1 else BB2
        f.blocks.push(BasicBlock {
            id: BlockId(1),
            insts: vec![
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::S32,
                    dst: acc,
                    a: acc.into(),
                    b: i.into(),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::S32,
                    dst: i,
                    a: i.into(),
                    b: Operand::ImmI(1),
                },
                Inst::Setp {
                    cmp: CmpOp::Lt,
                    ty: Ty::S32,
                    dst: p,
                    a: i.into(),
                    b: Operand::ImmI(10),
                },
            ],
            term: Terminator::CondBr {
                pred: p,
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
        });
        // BB2: store acc
        f.blocks.push(BasicBlock {
            id: BlockId(2),
            insts: vec![Inst::St {
                space: Space::Global,
                ty: Ty::S32,
                addr: Address::abs(0),
                src: acc.into(),
            }],
            term: Terminator::Ret,
        });
        let ra = allocate(&f);
        // acc and i must coexist; p is a predicate.
        assert!(ra.gpr_count >= 2);
        assert_eq!(ra.pred_count, 1);
        // Different physical GPRs for acc and i.
        assert_ne!(ra.assignment[acc.0 as usize], ra.assignment[i.0 as usize]);
    }

    /// A vreg reused for several *disjoint* lifetimes (the named
    /// temporaries of an unrolled loop) must not hold a register across
    /// the gaps: pressure is per-segment, not per-vreg.
    #[test]
    fn disjoint_reuse_does_not_inflate_pressure() {
        let mut f = mk();
        let tmp = f.new_vreg(Ty::F32); // reused temp
        let heavy: Vec<VReg> = (0..6).map(|_| f.new_vreg(Ty::F32)).collect();
        let mut insts = Vec::new();
        // Phase 1: tmp defined and consumed immediately.
        insts.push(Inst::Mov {
            ty: Ty::F32,
            dst: tmp,
            src: Operand::ImmF(1.0),
        });
        insts.push(Inst::St {
            space: Space::Global,
            ty: Ty::F32,
            addr: Address::abs(0),
            src: tmp.into(),
        });
        // Phase 2: six simultaneously-live values.
        for &h in &heavy {
            insts.push(Inst::Mov {
                ty: Ty::F32,
                dst: h,
                src: Operand::ImmF(2.0),
            });
        }
        for &h in &heavy {
            insts.push(Inst::St {
                space: Space::Global,
                ty: Ty::F32,
                addr: Address::abs(0),
                src: h.into(),
            });
        }
        // Phase 3: tmp reused after its first lifetime ended.
        insts.push(Inst::Mov {
            ty: Ty::F32,
            dst: tmp,
            src: Operand::ImmF(3.0),
        });
        insts.push(Inst::St {
            space: Space::Global,
            ty: Ty::F32,
            addr: Address::abs(4),
            src: tmp.into(),
        });
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts,
            term: Terminator::Ret,
        });
        let ra = allocate(&f);
        // tmp's two lifetimes don't overlap the heavy phase boundary-to-
        // boundary: peak = 6 (heavy), not 7.
        assert_eq!(ra.gpr_count, 6, "reused temp must not span the heavy phase");
    }

    #[test]
    fn predicates_do_not_consume_gprs() {
        let mut f = mk();
        let p1 = f.new_vreg(Ty::Pred);
        let p2 = f.new_vreg(Ty::Pred);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Setp {
                    cmp: CmpOp::Lt,
                    ty: Ty::S32,
                    dst: p1,
                    a: Operand::ImmI(0),
                    b: Operand::ImmI(1),
                },
                Inst::Setp {
                    cmp: CmpOp::Lt,
                    ty: Ty::S32,
                    dst: p2,
                    a: Operand::ImmI(0),
                    b: Operand::ImmI(1),
                },
                Inst::Bin {
                    op: BinOp::And,
                    ty: Ty::Pred,
                    dst: p1,
                    a: p1.into(),
                    b: p2.into(),
                },
            ],
            term: Terminator::CondBr {
                pred: p1,
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
        let ra = allocate(&f);
        assert_eq!(ra.gpr_count, 0);
        assert_eq!(ra.pred_count, 2);
    }
}
