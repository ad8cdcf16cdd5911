//! Control-flow-graph analyses shared by the optimizer and the simulator.
//!
//! The simulator needs immediate *post*-dominators to place SIMT
//! reconvergence points (the classic post-dominator stack used by real
//! hardware and by GPGPU-Sim); the optimizer needs predecessor lists and
//! reverse post-order for dataflow.

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
        // Iterative DFS post-order.
        let mut visited = vec![false; n];
        let mut post = Vec::with_capacity(n);
        // Stack entries: (block, next successor index to visit).
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b].len() {
                let s = succs[b][*i].0 as usize;
                *i += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(BlockId(b as u32));
                stack.pop();
            }
        }
        post.reverse();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, b) in post.iter().enumerate() {
            rpo_pos[b.0 as usize] = i;
        }
        Cfg {
            succs,
            preds,
            rpo: post,
            rpo_pos,
        }
    }

    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_pos[b.0 as usize] != usize::MAX
    }
}

/// Immediate post-dominators, computed by the Cooper–Harvey–Kennedy
/// algorithm on the reverse CFG with a virtual exit node. `ipdom[b]` is
/// `None` when the block's immediate post-dominator is the virtual exit
/// itself (i.e. paths from `b` diverge all the way to function return) or
/// when `b` cannot reach an exit.
pub fn ipdoms(f: &Function, cfg: &Cfg) -> Vec<Option<BlockId>> {
    let n = f.blocks.len();
    let exit = n; // virtual exit node

    // Reverse-graph successors: rsucc(exit) = every Ret block;
    // rsucc(b) = forward predecessors of b.
    let ret_blocks: Vec<usize> = f
        .blocks
        .iter()
        .filter(|b| matches!(b.term, crate::inst::Terminator::Ret))
        .map(|b| b.id.0 as usize)
        .collect();
    let rsucc = |v: usize| -> Vec<usize> {
        if v == exit {
            ret_blocks.clone()
        } else {
            cfg.preds[v].iter().map(|p| p.0 as usize).collect()
        }
    };

    // RPO of the reverse graph from the virtual exit (iterative DFS).
    let mut visited = vec![false; n + 1];
    let mut post: Vec<usize> = Vec::with_capacity(n + 1);
    let mut stack: Vec<(usize, usize)> = vec![(exit, 0)];
    visited[exit] = true;
    while let Some(&mut (v, ref mut i)) = stack.last_mut() {
        let succs = rsucc(v);
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if !visited[s] {
                visited[s] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(v);
            stack.pop();
        }
    }
    post.reverse(); // reverse-graph RPO, exit first
    let mut pos = vec![usize::MAX; n + 1];
    for (i, &v) in post.iter().enumerate() {
        pos[v] = i;
    }

    // rev_preds(b) in the reverse graph = forward successors (+ exit for
    // Ret blocks).
    let rev_preds = |b: usize| -> Vec<usize> {
        let blk = &f.blocks[b];
        let mut v: Vec<usize> = blk.term.successors().iter().map(|s| s.0 as usize).collect();
        if matches!(blk.term, crate::inst::Terminator::Ret) {
            v.push(exit);
        }
        v
    };

    let mut idom: Vec<Option<usize>> = vec![None; n + 1];
    idom[exit] = Some(exit);
    let intersect = |idom: &[Option<usize>], mut a: usize, mut b: usize| -> usize {
        while a != b {
            while pos[a] > pos[b] {
                a = idom[a].expect("processed");
            }
            while pos[b] > pos[a] {
                b = idom[b].expect("processed");
            }
        }
        a
    };

    let mut changed = true;
    while changed {
        changed = false;
        for &b in post.iter() {
            if b == exit {
                continue;
            }
            let mut new_idom: Option<usize> = None;
            for p in rev_preds(b) {
                if pos[p] == usize::MAX {
                    continue; // cannot reach exit
                }
                if idom[p].is_some() {
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
            }
            if new_idom.is_some() && idom[b] != new_idom {
                idom[b] = new_idom;
                changed = true;
            }
        }
    }

    (0..n)
        .map(|b| match idom[b] {
            Some(d) if d != exit && d != b => Some(BlockId(d as u32)),
            _ => None,
        })
        .collect()
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
        assert!(cfg.is_reachable(BlockId(2)));
        assert!(!cfg.is_reachable(BlockId(1)));
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
