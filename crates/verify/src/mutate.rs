//! Seeded IR mutations for the mutation-testing harness: each mutation is
//! a small, deliberately *wrong* rewrite of the kind a buggy optimization
//! pass could make. ks-verify must flag every one of them.

use ks_ir::{BinOp, Function, Inst, Operand, Space, Terminator};

/// The kinds of miscompiles we inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationKind {
    /// Delete an observable (global/shared) store — a DCE bug.
    DropStore,
    /// Shift a load/store address by one element — an address-folding bug.
    AddrOffByFour,
    /// Swap the operands of a non-commutative binary op.
    SwapOperands,
    /// Turn `x * 2ᵏ` into the wrong shift amount — a strength-reduction bug.
    WrongShift,
    /// Invert a conditional branch — a branch-simplification bug.
    NegateBranch,
}

/// One applicable mutation site.
#[derive(Debug, Clone)]
pub struct Mutation {
    pub kind: MutationKind,
    pub block: usize,
    pub inst: usize,
    pub desc: String,
}

/// Enumerate every applicable mutation site in `f`, deterministically.
pub fn enumerate(f: &Function) -> Vec<Mutation> {
    let mut out = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, i) in b.insts.iter().enumerate() {
            match i {
                Inst::St { space, .. } if matches!(space, Space::Global | Space::Shared) => {
                    out.push(Mutation {
                        kind: MutationKind::DropStore,
                        block: bi,
                        inst: ii,
                        desc: format!("drop st.{space} at BB{bi}#{ii}"),
                    });
                    out.push(Mutation {
                        kind: MutationKind::AddrOffByFour,
                        block: bi,
                        inst: ii,
                        desc: format!("offset st.{space} address by 4 at BB{bi}#{ii}"),
                    });
                }
                Inst::Bin { op, a, b: rhs, .. } => {
                    let non_commutative = matches!(
                        op,
                        BinOp::Sub | BinOp::Div | BinOp::Rem | BinOp::Shl | BinOp::Shr
                    );
                    if non_commutative && a != rhs {
                        out.push(Mutation {
                            kind: MutationKind::SwapOperands,
                            block: bi,
                            inst: ii,
                            desc: format!("swap {op:?} operands at BB{bi}#{ii}"),
                        });
                    }
                    // A `shl` by an immediate is both sites: one match
                    // arm per kind would let the first shadow the second.
                    if matches!((op, rhs), (BinOp::Shl, Operand::ImmI(k)) if *k > 0) {
                        out.push(Mutation {
                            kind: MutationKind::WrongShift,
                            block: bi,
                            inst: ii,
                            desc: format!("shrink shl amount at BB{bi}#{ii}"),
                        });
                    }
                }
                _ => {}
            }
        }
        if matches!(b.term, Terminator::CondBr { .. }) {
            out.push(Mutation {
                kind: MutationKind::NegateBranch,
                block: bi,
                inst: usize::MAX,
                desc: format!("negate branch of BB{bi}"),
            });
        }
    }
    out
}

/// Pick a deterministic pseudo-random subset of `n` sites using a seeded
/// splitmix64 walk (no external RNG dependency).
pub fn sample(sites: &[Mutation], seed: u64, n: usize) -> Vec<Mutation> {
    let mut order: Vec<usize> = (0..sites.len()).collect();
    let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    for i in (1..order.len()).rev() {
        s = splitmix(s);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order
        .into_iter()
        .take(n)
        .map(|i| sites[i].clone())
        .collect()
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Apply a mutation; returns `false` if the site no longer matches.
pub fn apply(f: &mut Function, m: &Mutation) -> bool {
    if m.kind == MutationKind::NegateBranch {
        let Some(b) = f.blocks.get_mut(m.block) else {
            return false;
        };
        if let Terminator::CondBr { negate, .. } = &mut b.term {
            *negate = !*negate;
            return true;
        }
        return false;
    }
    let Some(inst) = f
        .blocks
        .get_mut(m.block)
        .and_then(|b| b.insts.get_mut(m.inst))
    else {
        return false;
    };
    match m.kind {
        MutationKind::DropStore => {
            if matches!(inst, Inst::St { .. }) {
                f.blocks[m.block].insts.remove(m.inst);
                return true;
            }
            false
        }
        MutationKind::AddrOffByFour => {
            if let Inst::St { addr, .. } | Inst::Ld { addr, .. } = inst {
                addr.offset += 4;
                return true;
            }
            false
        }
        MutationKind::SwapOperands => {
            if let Inst::Bin { a, b, .. } = inst {
                std::mem::swap(a, b);
                return true;
            }
            false
        }
        MutationKind::WrongShift => {
            if let Inst::Bin {
                op: BinOp::Shl,
                b: Operand::ImmI(k),
                ..
            } = inst
            {
                if *k > 0 {
                    *k -= 1;
                    return true;
                }
            }
            false
        }
        MutationKind::NegateBranch => unreachable!(),
    }
}
