//! Control-flow-graph analyses shared by the optimizer and the simulator.
//!
//! The simulator needs immediate *post*-dominators to place SIMT
//! reconvergence points (the classic post-dominator stack used by real
//! hardware and by GPGPU-Sim); the validator's block check needs
//! immediate dominators, from the same core; the optimizer needs
//! predecessor lists and reverse post-order for dataflow; register
//! allocation and the block check need register liveness.

use crate::inst::VReg;
use crate::module::{BlockId, Function};

/// Predecessor/successor lists plus traversal orders for one function.
#[derive(Debug, Clone)]
pub struct Cfg {
    pub succs: Vec<Vec<BlockId>>,
    pub preds: Vec<Vec<BlockId>>,
    /// Reverse post-order over reachable blocks, starting at the entry.
    pub rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (usize::MAX if unreachable).
    pub rpo_pos: Vec<usize>,
}

impl Cfg {
    pub fn build(f: &Function) -> Cfg {
        let n = f.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for b in &f.blocks {
            for s in b.term.successors() {
                succs[b.id.0 as usize].push(s);
                preds[s.0 as usize].push(b.id);
            }
        }
        let (rpo, rpo_pos) = reverse_post_order(&succs, 0);
        Cfg {
            succs,
            preds,
            rpo,
            rpo_pos,
        }
    }
}

/// Reverse post-order of the nodes `root` reaches along `succs`
/// (iterative DFS), and each node's position in it (`usize::MAX` when
/// `root` does not reach it).
fn reverse_post_order(succs: &[Vec<BlockId>], root: usize) -> (Vec<BlockId>, Vec<usize>) {
    let n = succs.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Stack entries: (node, next successor index to visit).
    let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
    visited[root] = true;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        if *i < succs[v].len() {
            let s = succs[v][*i].0 as usize;
            *i += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(BlockId(v as u32));
            stack.pop();
        }
    }
    post.reverse();
    let mut pos = vec![usize::MAX; n];
    for (i, b) in post.iter().enumerate() {
        pos[b.0 as usize] = i;
    }
    (post, pos)
}

/// The one dominator core: immediate dominators by the iteration of
/// Cooper, Harvey and Kennedy ("A Simple, Fast Dominance Algorithm"),
/// over a graph given by `preds` and its reverse post-order from the
/// root (`rpo[0]`, with `pos` as [`reverse_post_order`] returns it). The
/// root is its own immediate dominator; a node the root does not reach
/// has none.
fn dominators(preds: &[Vec<BlockId>], rpo: &[BlockId], pos: &[usize]) -> Vec<Option<BlockId>> {
    const NONE: usize = usize::MAX;
    let mut idom = vec![NONE; preds.len()];
    idom[rpo[0].0 as usize] = rpo[0].0 as usize;
    let mut changed = true;
    while changed {
        changed = false;
        for b in rpo.iter().skip(1).map(|b| b.0 as usize) {
            let mut new = NONE;
            for p in preds[b].iter().map(|p| p.0 as usize) {
                if idom[p] == NONE {
                    continue; // unreached, or not processed yet
                }
                new = if new == NONE {
                    p
                } else {
                    let (mut x, mut y) = (p, new);
                    while x != y {
                        while pos[x] > pos[y] {
                            x = idom[x];
                        }
                        while pos[y] > pos[x] {
                            y = idom[y];
                        }
                    }
                    x
                };
            }
            if idom[b] != new {
                idom[b] = new;
                changed = true;
            }
        }
    }
    idom.into_iter()
        .map(|d| (d != NONE).then_some(BlockId(d as u32)))
        .collect()
}

/// Immediate dominators: `idom[b]` is the block every path from the
/// entry to `b` passes through last before `b`. The entry is its own;
/// a block the entry does not reach has none.
pub fn idoms(cfg: &Cfg) -> Vec<Option<BlockId>> {
    dominators(&cfg.preds, &cfg.rpo, &cfg.rpo_pos)
}

/// Immediate post-dominators: the dominator core on the reverse CFG
/// with a virtual exit node. `ipdom[b]` is `None` when the block's
/// immediate post-dominator is the virtual exit itself (i.e. paths from
/// `b` diverge all the way to function return) or when `b` cannot reach
/// an exit.
pub fn ipdoms(f: &Function, cfg: &Cfg) -> Vec<Option<BlockId>> {
    let n = f.blocks.len();
    let exit = BlockId(n as u32); // virtual exit node
                                  // The reverse graph: its successors are the forward predecessors
                                  // (the exit's are the Ret blocks), its predecessors the forward
                                  // successors (plus the exit for a Ret block).
    let mut rsuccs = cfg.preds.clone();
    let mut rpreds = cfg.succs.clone();
    rsuccs.push(Vec::new());
    rpreds.push(Vec::new());
    for b in &f.blocks {
        if matches!(b.term, crate::inst::Terminator::Ret) {
            rsuccs[n].push(b.id);
            rpreds[b.id.0 as usize].push(exit);
        }
    }
    let (rpo, pos) = reverse_post_order(&rsuccs, n);
    dominators(&rpreds, &rpo, &pos)[..n]
        .iter()
        .enumerate()
        .map(|(b, d)| d.filter(|&d| d != exit && d.0 as usize != b))
        .collect()
}

/// Per-block liveness: one bit row per block, one bit per vreg.
pub struct Liveness {
    /// `u64` words per row.
    words: usize,
    live_in: Vec<u64>,
    live_out: Vec<u64>,
}

impl Liveness {
    /// Registers live on entry to `block`: read on some path from its
    /// start before being written. Ascending.
    pub fn live_in(&self, block: usize) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.live_in[block * self.words..][..self.words])
    }

    /// Registers live at the exit of `block`: live on entry to some
    /// successor. Ascending.
    pub fn live_out(&self, block: usize) -> impl Iterator<Item = u32> + '_ {
        set_bits(&self.live_out[block * self.words..][..self.words])
    }
}

fn set_bits(row: &[u64]) -> impl Iterator<Item = u32> + '_ {
    row.iter().enumerate().flat_map(|(w, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                w as u32 * 64 + bit
            })
        })
    })
}

/// Classic backward liveness dataflow over the CFG (reachable blocks;
/// an unreachable block has nothing live).
pub fn liveness(f: &Function, cfg: &Cfg) -> Liveness {
    let n = f.blocks.len();
    let words = f.num_vregs().div_ceil(64);
    let has = |row: &[u64], r: VReg| row[r.0 as usize / 64] & (1 << (r.0 % 64)) != 0;
    let set = |row: &mut [u64], r: VReg| row[r.0 as usize / 64] |= 1 << (r.0 % 64);
    // use[b] = vars read before any write in b; def[b] = vars written.
    let mut use_s = vec![0u64; n * words];
    let mut def_s = vec![0u64; n * words];
    for (bi, b) in f.blocks.iter().enumerate() {
        let uses = &mut use_s[bi * words..][..words];
        let defs = &mut def_s[bi * words..][..words];
        for i in &b.insts {
            i.for_each_use(|r| {
                if !has(defs, r) {
                    set(uses, r);
                }
            });
            if let Some(d) = i.def() {
                set(defs, d);
            }
        }
        if let Some(p) = b.term.use_reg() {
            if !has(defs, p) {
                set(uses, p);
            }
        }
    }
    let mut live_in = vec![0u64; n * words];
    let mut live_out = vec![0u64; n * words];
    let mut out = vec![0u64; words];
    let mut changed = true;
    while changed {
        changed = false;
        // Iterate in reverse RPO for fast convergence.
        for &bid in cfg.rpo.iter().rev() {
            let b = bid.0 as usize;
            out.fill(0);
            for s in &cfg.succs[b] {
                for (o, i) in out
                    .iter_mut()
                    .zip(&live_in[s.0 as usize * words..][..words])
                {
                    *o |= i;
                }
            }
            let row = b * words;
            for w in 0..words {
                let inp = use_s[row + w] | (out[w] & !def_s[row + w]);
                changed |= inp != live_in[row + w] || out[w] != live_out[row + w];
                live_in[row + w] = inp;
                live_out[row + w] = out[w];
            }
        }
    }
    Liveness {
        words,
        live_in,
        live_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Terminator, VReg};
    use crate::module::{BasicBlock, Function};
    use crate::types::Ty;

    fn func_with(blocks: Vec<Terminator>) -> Function {
        Function {
            name: "t".into(),
            params: vec![],
            blocks: blocks
                .into_iter()
                .enumerate()
                .map(|(i, term)| BasicBlock {
                    id: BlockId(i as u32),
                    insts: vec![],
                    term,
                })
                .collect(),
            vreg_types: vec![Ty::Pred],
            shared: vec![],
            local_bytes: 0,
        }
    }

    /// Diamond: 0 -> {1,2} -> 3 -> ret. ipdom(0)=3, ipdom(1)=3, ipdom(2)=3.
    #[test]
    fn diamond_ipdom() {
        let f = func_with(vec![
            Terminator::CondBr {
                pred: VReg(0),
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
            Terminator::Br { target: BlockId(3) },
            Terminator::Br { target: BlockId(3) },
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&f);
        let pd = ipdoms(&f, &cfg);
        assert_eq!(pd[0], Some(BlockId(3)));
        assert_eq!(pd[1], Some(BlockId(3)));
        assert_eq!(pd[2], Some(BlockId(3)));
        assert_eq!(pd[3], None);
    }

    /// Loop: 0 -> 1; 1 -> {1, 2}; 2 ret. ipdom(1) = 2 (the loop exit).
    #[test]
    fn loop_ipdom_is_exit() {
        let f = func_with(vec![
            Terminator::Br { target: BlockId(1) },
            Terminator::CondBr {
                pred: VReg(0),
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&f);
        let pd = ipdoms(&f, &cfg);
        assert_eq!(pd[0], Some(BlockId(1)));
        assert_eq!(pd[1], Some(BlockId(2)));
        assert_eq!(pd[2], None);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable() {
        let f = func_with(vec![
            Terminator::Br { target: BlockId(2) },
            Terminator::Ret, // unreachable
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(cfg.rpo_pos[2], 1);
        assert_eq!(cfg.rpo_pos[1], usize::MAX);
        assert_eq!(cfg.rpo.len(), 2);
    }

    /// Regression: guard-if wrapping a loop (the shape every bounds-checked
    /// kernel lowers to). A reversed *forward* RPO mis-numbers the loop
    /// header here; a true reverse-graph RPO is required.
    /// 0→{2,3}; 2→4; 4→{5,7}; 5→6; 6→4; 7→3; 3→1(ret).
    #[test]
    fn guarded_loop_ipdoms() {
        let f = func_with(vec![
            Terminator::CondBr {
                pred: VReg(0),
                negate: false,
                then_t: BlockId(2),
                else_t: BlockId(3),
            },
            Terminator::Ret,
            Terminator::Br { target: BlockId(4) },
            Terminator::Br { target: BlockId(1) },
            Terminator::CondBr {
                pred: VReg(0),
                negate: false,
                then_t: BlockId(5),
                else_t: BlockId(7),
            },
            Terminator::Br { target: BlockId(6) },
            Terminator::Br { target: BlockId(4) },
            Terminator::Br { target: BlockId(3) },
        ]);
        let cfg = Cfg::build(&f);
        let pd = ipdoms(&f, &cfg);
        assert_eq!(pd[0], Some(BlockId(3)));
        assert_eq!(pd[4], Some(BlockId(7)));
        assert_eq!(pd[2], Some(BlockId(4)));
        assert_eq!(pd[6], Some(BlockId(4)));
    }

    /// An infinite loop cannot reach the exit; blocks inside it get None.
    #[test]
    fn infinite_loop_has_no_ipdom() {
        let f = func_with(vec![
            Terminator::Br { target: BlockId(1) },
            Terminator::Br { target: BlockId(1) },
        ]);
        let cfg = Cfg::build(&f);
        let pd = ipdoms(&f, &cfg);
        assert_eq!(pd[1], None);
    }

    #[test]
    fn preds_and_succs() {
        let f = func_with(vec![
            Terminator::CondBr {
                pred: VReg(0),
                negate: false,
                then_t: BlockId(1),
                else_t: BlockId(2),
            },
            Terminator::Br { target: BlockId(2) },
            Terminator::Ret,
        ]);
        let cfg = Cfg::build(&f);
        assert_eq!(cfg.succs[0], vec![BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds[2], vec![BlockId(0), BlockId(1)]);
    }
}
