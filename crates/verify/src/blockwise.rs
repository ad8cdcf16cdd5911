//! Block-by-block validation of one optimizer pass step, after Necula's
//! block-matching translation validation (PLDI 2000).
//!
//! None of the ks-opt passes adds, removes or renumbers a block: they
//! rewrite instructions in place, and constfold turns a `CondBr` on a
//! known predicate into a `Br`. So block `b` of the function after a pass
//! (*after*) stands in for block `b` of the function before it
//! (*before*), and a step can be checked one block pair at a time, with
//! no paths, no loop unrolling and no budget.
//!
//! **The block rule.** Both blocks are evaluated once ([`Summarizer`]'s
//! straight-line run, fully symbolic) from one entry state: every
//! register reads its entry leaf, the same on both sides, unless an entry
//! fact fixes it. The pair matches when the global/shared stores and
//! barriers, the local stores, the exit (return, jump target, or branch
//! predicate with its two targets) and every register live out of the
//! block in *after* are equal expressions. Blocks that are byte-identical
//! match by construction and are skipped; blocks *before* cannot reach
//! from its entry are skipped too (see below).
//!
//! **Entry facts, established, not trusted.** A register `d` of *before*
//! with a single definition that is pure (`mov`, arithmetic, `setp`,
//! `selp`, `cvt`, a special register, a param or const load) and
//! strictly dominates block `b` holds, at `b`'s entry, that definition
//! evaluated over the entry values of its operands — provided each
//! operand register is never defined or has one definition dominating
//! `d`'s. This covers constfold's facts (`d` holds an immediate, `d` is
//! an all-immediate computation, `d` copies single-def `s`) and
//! addrfold's (`d` is single-def `s` plus an immediate). The facts are
//! derived from *before* here, never read from a pass.
//!
//! **Why a match proves the step.** Claim: whenever both functions enter
//! block `b` in lockstep, memory and the observable trace so far are
//! equal, and every register live into `b` in *after* holds the same
//! value on both sides. At the function's entry this holds because both
//! start from the same initial register file (the simulator's, and
//! `Summarizer`'s `Undef(r)` leaves); as a guard, a step whose *after*
//! entry block reads a register before writing it where *before*'s does
//! not is never accepted here. If the claim holds at `b`'s entry, the
//! entry facts hold on *before*'s side by dominance, so the symbolic run
//! describes both executions. Equal effects keep memory and the trace
//! equal, the equal exit sends both to the same next block, and the
//! registers live into that block are live out of `b`, so the claim holds
//! there. By induction over any execution, *after* makes the same
//! observable effects as *before*, and it only ever runs blocks *before*
//! can reach. Symbolic equality implies equality under every concrete
//! sample, so one environment does what three did on the path check.
//!
//! A step with a block that does not match is not judged here: the
//! caller ([`crate::check_opt_step`]) falls back to the whole-function
//! path check, so this rule can never report a miscompile the path
//! check would not.

use crate::expr::{Arena, ExprId};
use crate::summary::{Limits, Regs, StraightRun, Summarizer};
use ks_ir::cfg::{idoms, liveness, Cfg};
use ks_ir::fxhash::FxHashMap;
use ks_ir::{BasicBlock, BlockId, Function, Inst, Module, Space, Terminator, VReg};

/// What a chain of steps keeps between them: each block's run on the
/// last step's *after* side — the next step's *before* — with the entry
/// state it ran from, in one arena. A step whose entry state for a block
/// is unchanged reuses that run instead of evaluating the block again (a
/// run is a function of the block, the entry state and the frame, which
/// `same_frame` holds fixed along a chain).
#[derive(Default)]
pub struct Memo {
    arena: Arena,
    runs: Vec<Option<BlockRun>>,
}

struct BlockRun {
    entry: Regs,
    run: StraightRun,
}

/// True when every block of `before` that can run matches its namesake
/// in `after` under the block rule; false sends the step to the path
/// check. `ctx` names the module's consts and textures. `memo` carries
/// what one step of a chain learned about its *after* to the next step,
/// whose *before* that is (a fresh one works for any single step).
pub fn blocks_match(before: &Function, after: &Function, ctx: &Module, memo: &mut Memo) -> bool {
    let matched = match_blocks(before, after, ctx, memo);
    if !matched {
        *memo = Memo::default();
    }
    matched
}

fn match_blocks(before: &Function, after: &Function, ctx: &Module, memo: &mut Memo) -> bool {
    if !same_frame(before, after) || !registers_in_range(before) || !registers_in_range(after) {
        return false;
    }
    let changed: Vec<bool> = (before.blocks.iter().zip(&after.blocks))
        .map(|(p, q)| p != q)
        .collect();
    // The base case: *after*'s entry block reads nothing before writing
    // it that *before*'s entry block does not.
    let nv = before.num_vregs();
    if changed[0] {
        let (pre, post) = (
            Side::of(&before.blocks[0], nv),
            Side::of(&after.blocks[0], nv),
        );
        if !post.reads.iter().all(|r| pre.reads.contains(r)) {
            return false;
        }
    }
    let live = liveness(after, &Cfg::build(after));
    let mut facts = Facts {
        f: before,
        ctx,
        idom: idoms(&Cfg::build(before)),
        defs: Defs::of(before),
        values: FxHashMap::default(),
        scratch: Regs::default(),
    };
    memo.runs.resize_with(before.blocks.len(), || None);
    for (b, (pre, post)) in before.blocks.iter().zip(&after.blocks).enumerate() {
        if !changed[b] {
            // Its run, if kept, is still this block's.
            continue;
        }
        if facts.idom[b].is_none() {
            memo.runs[b] = None;
            continue;
        }
        let (arena, slot) = (&mut memo.arena, &mut memo.runs[b]);
        let mut s = Summarizer::new(arena, Limits::default());
        let sides = [Side::of(pre, nv), Side::of(post, nv)];
        let mut entry = Regs::default();
        for &r in sides[0].reads.iter().chain(&sides[1].reads) {
            if let Some(v) = facts.at(r, b, &mut s) {
                entry.set(r, v);
            }
        }
        let live_out: Vec<VReg> = live.live_out(b).map(VReg).collect();
        if !block_matches(sides, after, ctx, entry, &live_out, &mut s, slot) {
            return false;
        }
    }
    true
}

/// Both functions have the same blocks (ids in order, targets in range),
/// registers, parameters and memory declarations: the shape the block
/// rule assumes. Anything else is the path check's to judge.
fn same_frame(before: &Function, after: &Function) -> bool {
    let n = before.blocks.len();
    let well_formed = |f: &Function| {
        f.blocks
            .iter()
            .enumerate()
            .all(|(i, b)| b.id.0 as usize == i && b.term.successors().all(|s| (s.0 as usize) < n))
    };
    n > 0
        && after.blocks.len() == n
        && before.vreg_types == after.vreg_types
        && before.params == after.params
        && before.shared == after.shared
        && before.local_bytes == after.local_bytes
        && well_formed(before)
        && well_formed(after)
}

/// One side of a block comparison.
struct Side<'a> {
    block: &'a BasicBlock,
    /// Registers the block reads before writing them (its terminator
    /// included), in first-read order.
    reads: Vec<VReg>,
    /// Bit `r` set: the block writes register `r`.
    writes: Vec<u64>,
}

impl Side<'_> {
    /// `nv` bounds the block's registers (`registers_in_range`).
    fn of(block: &BasicBlock, nv: usize) -> Side<'_> {
        let bit = |r: VReg| (r.0 as usize / 64, 1u64 << (r.0 % 64));
        let (mut seen, mut writes) = (vec![0u64; nv.div_ceil(64)], vec![0u64; nv.div_ceil(64)]);
        let mut reads = Vec::new();
        let mut read = |r: VReg, writes: &[u64]| {
            let (w, m) = bit(r);
            if (seen[w] | writes[w]) & m == 0 {
                seen[w] |= m;
                reads.push(r);
            }
        };
        for i in &block.insts {
            i.for_each_use(|r| read(r, &writes));
            if let Some(d) = i.def() {
                let (w, m) = bit(d);
                writes[w] |= m;
            }
        }
        if let Some(p) = block.term.use_reg() {
            read(p, &writes);
        }
        Side {
            block,
            reads,
            writes,
        }
    }

    fn writes(&self, r: VReg) -> bool {
        self.writes[r.0 as usize / 64] & (1 << (r.0 % 64)) != 0
    }
}

/// Run both blocks from `entry` and compare; either way, `slot` keeps
/// *after*'s run for the next step. *before*'s run is the kept one when
/// that ran from the same values of the registers the block reads, and
/// *after*'s takes every result the two blocks share from *before*'s.
/// `frame` is either side's function (`same_frame` holds them equal
/// where a run looks).
fn block_matches(
    [pre, post]: [Side; 2],
    frame: &Function,
    ctx: &Module,
    entry: Regs,
    live_out: &[VReg],
    s: &mut Summarizer,
    slot: &mut Option<BlockRun>,
) -> bool {
    let before = match slot.take() {
        Some(kept) if pre.reads.iter().all(|&r| kept.entry.get(r) == entry.get(r)) => kept.run,
        _ => s.run_straight(&pre.block.insts, frame, ctx, &entry, None),
    };
    let prior = Some((&pre.block.insts[..], &before));
    let run = s.run_straight(&post.block.insts, frame, ctx, &entry, prior);
    // A register a block does not write leaves it as it came in.
    let out = |side: &Side, ran: &StraightRun, r: VReg, arena: &mut Arena| {
        let kept = side.writes(r).then(|| ran.regs.get(r)).flatten();
        match kept.or_else(|| entry.get(r)) {
            Some(e) => e,
            None => arena.undef(r.0),
        }
    };
    let mut exit_of = |side: &Side, ran: &StraightRun| {
        let pred = side
            .block
            .term
            .use_reg()
            .map(|r| out(side, ran, r, s.arena));
        exit(&side.block.term, pred, s.arena)
    };
    let exits = [exit_of(&pre, &before), exit_of(&post, &run)];
    let matched = before.effects == run.effects
        && before.local == run.local
        && exits[0] == exits[1]
        && live_out
            .iter()
            .all(|&r| out(&pre, &before, r, s.arena) == out(&post, &run, r, s.arena));
    *slot = Some(BlockRun { entry, run });
    matched
}

/// Where a block goes next, as a function of its entry state.
#[derive(Debug, PartialEq)]
enum Exit {
    Ret,
    Goto(BlockId),
    Branch {
        pred: ExprId,
        nonzero: BlockId,
        zero: BlockId,
    },
}

/// The exit `term` takes when its predicate (if any) reads `pred`.
fn exit(term: &Terminator, pred: Option<ExprId>, arena: &Arena) -> Exit {
    match *term {
        Terminator::Ret => Exit::Ret,
        Terminator::Br { target } => Exit::Goto(target),
        Terminator::CondBr {
            negate,
            then_t,
            else_t,
            ..
        } => {
            let (nonzero, zero) = if negate {
                (else_t, then_t)
            } else {
                (then_t, else_t)
            };
            let pred = pred.expect("a conditional branch reads its predicate");
            match arena.as_const(pred) {
                Some(bits) => Exit::Goto(if bits != 0 { nonzero } else { zero }),
                None if nonzero == zero => Exit::Goto(nonzero),
                None => Exit::Branch {
                    pred,
                    nonzero,
                    zero,
                },
            }
        }
    }
}

/// Where each register is defined.
struct Defs {
    /// 0, 1, or 2 for "two or more".
    count: Vec<u8>,
    /// (block, instruction) of the definition, when there is exactly one.
    at: Vec<(usize, usize)>,
}

impl Defs {
    fn of(f: &Function) -> Defs {
        let nv = f.num_vregs();
        let mut defs = Defs {
            count: vec![0; nv],
            at: vec![(0, 0); nv],
        };
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, d) in b
                .insts
                .iter()
                .enumerate()
                .filter_map(|(ii, i)| Some((ii, i.def()?)))
            {
                let n = d.0 as usize;
                defs.count[n] = (defs.count[n] + 1).min(2);
                defs.at[n] = (bi, ii);
            }
        }
        defs
    }
}

/// Every register `f` names is one it declares.
fn registers_in_range(f: &Function) -> bool {
    let nv = f.num_vregs();
    let mut ok = true;
    for b in &f.blocks {
        for i in &b.insts {
            i.for_each_use(|r| ok &= (r.0 as usize) < nv);
            ok &= i.def().is_none_or(|d| (d.0 as usize) < nv);
        }
        ok &= b.term.use_reg().is_none_or(|p| (p.0 as usize) < nv);
    }
    ok
}

/// The entry facts of *before* (see the module docs).
struct Facts<'a> {
    f: &'a Function,
    ctx: &'a Module,
    /// `None`: a block *before* cannot reach from its entry.
    idom: Vec<Option<BlockId>>,
    defs: Defs,
    /// Per register: what its fact-giving definition computes, if it
    /// has one.
    values: FxHashMap<VReg, Option<ExprId>>,
    /// Holds a definition's operands while it is evaluated; unset
    /// otherwise.
    scratch: Regs,
}

impl Facts<'_> {
    /// Block `a` dominates block `b` (reflexively); `b` is reachable.
    fn dominates(&self, a: usize, mut b: usize) -> bool {
        loop {
            if a == b {
                return true;
            }
            match self.idom[b] {
                Some(d) if d.0 as usize != b => b = d.0 as usize,
                _ => return false,
            }
        }
    }

    /// `r`'s value at the entry of block `b`, if a fact fixes it there:
    /// `r`'s only definition strictly dominates `b` and gives a fact.
    fn at(&mut self, r: VReg, b: usize, s: &mut Summarizer) -> Option<ExprId> {
        let n = r.0 as usize;
        let (db, _) = self.defs.at[n];
        if self.defs.count[n] != 1 || db == b || !self.dominates(db, b) {
            return None;
        }
        self.value(r, s)
    }

    /// What `r`'s only definition computes, if it is pure and reads only
    /// registers that never change after it — then `r` holds that value
    /// at every block the definition strictly dominates, over the
    /// operands' values there. Memoized per step.
    fn value(&mut self, r: VReg, s: &mut Summarizer) -> Option<ExprId> {
        if let Some(&v) = self.values.get(&r) {
            return v;
        }
        let v = self.evaluate(r, s);
        self.values.insert(r, v);
        v
    }

    fn evaluate(&mut self, r: VReg, s: &mut Summarizer) -> Option<ExprId> {
        let f = self.f;
        let (db, di) = self.defs.at[r.0 as usize];
        let def = &f.blocks[db].insts[di];
        let pure = match def {
            Inst::Ld { space, .. } => matches!(space, Space::Param | Space::Const),
            Inst::St { .. } | Inst::Bar | Inst::Tex { .. } => false,
            _ => true,
        };
        if !pure {
            return None;
        }
        let mut uses = Vec::new();
        def.for_each_use(|u| uses.push(u));
        let mut operands = Vec::with_capacity(uses.len());
        for u in uses {
            let n = u.0 as usize;
            let v = match self.defs.count[n] {
                0 => s.arena.undef(u.0),
                1 => {
                    let (ub, ui) = self.defs.at[n];
                    let settled = if ub == db {
                        ui < di
                    } else {
                        self.dominates(ub, db)
                    };
                    if !settled {
                        return None;
                    }
                    match self.value(u, s) {
                        Some(v) => v,
                        None => s.arena.undef(u.0),
                    }
                }
                _ => return None,
            };
            operands.push((u, v));
        }
        for &(u, v) in &operands {
            self.scratch.set(u, v);
        }
        let value = s.value_of(def, f, self.ctx, &mut self.scratch);
        for u in operands.iter().map(|&(u, _)| u).chain(def.def()) {
            self.scratch.unset(u);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::{BinOp, Operand, Ty};

    fn function(blocks: Vec<(Vec<Inst>, Terminator)>, regs: &[Ty]) -> Function {
        Function {
            name: "k".into(),
            params: vec![],
            blocks: blocks
                .into_iter()
                .enumerate()
                .map(|(i, (insts, term))| BasicBlock {
                    id: BlockId(i as u32),
                    insts,
                    term,
                })
                .collect(),
            vreg_types: regs.to_vec(),
            shared: vec![],
            local_bytes: 0,
        }
    }

    fn ctx() -> Module {
        Module {
            functions: vec![],
            consts: vec![],
            textures: vec![],
        }
    }

    #[test]
    fn dominators_of_a_diamond_with_an_unreachable_block() {
        let br = |t| Terminator::Br { target: BlockId(t) };
        let f = function(
            vec![
                (
                    vec![],
                    Terminator::CondBr {
                        pred: VReg(0),
                        negate: false,
                        then_t: BlockId(1),
                        else_t: BlockId(2),
                    },
                ),
                (vec![], br(3)),
                (vec![], br(3)),
                (vec![], Terminator::Ret),
                (vec![], br(3)),
            ],
            &[Ty::Pred],
        );
        let dom = |b| Some(BlockId(b));
        assert_eq!(
            idoms(&Cfg::build(&f)),
            [dom(0), dom(0), dom(0), dom(0), None]
        );
    }

    #[test]
    fn a_copy_of_an_immediate_across_blocks_is_a_fact() {
        let mov = |dst, src| Inst::Mov {
            ty: Ty::S32,
            dst: VReg(dst),
            src,
        };
        let store = |src| Inst::St {
            space: Space::Global,
            ty: Ty::S32,
            addr: ks_ir::Address {
                base: None,
                offset: 0,
            },
            src,
        };
        let before = function(
            vec![
                (
                    vec![mov(0, Operand::ImmI(7)), mov(1, Operand::Reg(VReg(0)))],
                    Terminator::Br { target: BlockId(1) },
                ),
                (vec![store(Operand::Reg(VReg(1)))], Terminator::Ret),
            ],
            &[Ty::S32, Ty::S32],
        );
        let mut after = before.clone();
        after.blocks[1].insts = vec![store(Operand::ImmI(7))];
        assert!(blocks_match(&before, &after, &ctx(), &mut Memo::default()));
        after.blocks[1].insts = vec![store(Operand::ImmI(8))];
        assert!(!blocks_match(&before, &after, &ctx(), &mut Memo::default()));
        // A computation over a register defined after it is no fact.
        let mut late = before.clone();
        late.blocks[0].insts = vec![
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::S32,
                dst: VReg(1),
                a: Operand::Reg(VReg(0)),
                b: Operand::ImmI(0),
            },
            mov(0, Operand::ImmI(7)),
        ];
        let mut folded = late.clone();
        folded.blocks[1].insts = vec![store(Operand::ImmI(7))];
        assert!(!blocks_match(&late, &folded, &ctx(), &mut Memo::default()));
    }
}
