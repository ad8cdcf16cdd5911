//! Local common-subexpression elimination (per-basic-block value
//! numbering). Recomputed address arithmetic — ubiquitous in unrolled
//! specialized kernels and in rolled loops alike — collapses to a single
//! computation. Loads participate too, invalidated by stores/barriers to
//! the same state space.
//!
//! Complexity: linear in the block. A value is only reused within
//! [`REUSE_WINDOW`] instructions of its definition, so available
//! expressions are expired by position and the map never holds more than
//! a window's worth; every invalidation sweep is O(window), not O(block).

use ks_ir::{Function, Inst, Operand, Space, VReg};
use std::collections::{HashMap, VecDeque};

/// A hashable key describing a pure computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Bin(ks_ir::BinOp, ks_ir::Ty, OpKey, OpKey),
    Un(ks_ir::UnOp, ks_ir::Ty, OpKey),
    Mad(ks_ir::Ty, OpKey, OpKey, OpKey),
    Setp(ks_ir::CmpOp, ks_ir::Ty, OpKey, OpKey),
    Selp(ks_ir::Ty, OpKey, OpKey, VReg),
    Cvt(ks_ir::Ty, ks_ir::Ty, OpKey),
    Special(ks_ir::SpecialReg),
    Ld(Space, ks_ir::Ty, Option<VReg>, i64),
    Tex(u32, ks_ir::Ty, OpKey),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKey {
    Reg(VReg),
    ImmI(i64),
    /// Float immediates keyed by bit pattern.
    ImmF(u32),
}

fn op_key(o: &Operand) -> OpKey {
    match o {
        Operand::Reg(r) => OpKey::Reg(*r),
        Operand::ImmI(v) => OpKey::ImmI(*v),
        Operand::ImmF(v) => OpKey::ImmF(v.to_bits()),
    }
}

fn key_of(i: &Inst) -> Option<Key> {
    Some(match i {
        Inst::Bin { op, ty, a, b, .. } => Key::Bin(*op, *ty, op_key(a), op_key(b)),
        Inst::Un { op, ty, a, .. } => Key::Un(*op, *ty, op_key(a)),
        Inst::Mad { ty, a, b, c, .. } => Key::Mad(*ty, op_key(a), op_key(b), op_key(c)),
        Inst::Setp { cmp, ty, a, b, .. } => Key::Setp(*cmp, *ty, op_key(a), op_key(b)),
        Inst::Selp { ty, a, b, pred, .. } => Key::Selp(*ty, op_key(a), op_key(b), *pred),
        Inst::Cvt {
            dst_ty,
            src_ty,
            src,
            ..
        } => Key::Cvt(*dst_ty, *src_ty, op_key(src)),
        Inst::Special { reg, .. } => Key::Special(*reg),
        Inst::Ld {
            space, ty, addr, ..
        } => Key::Ld(*space, *ty, addr.base, addr.offset),
        Inst::Tex { ty, tex, idx, .. } => Key::Tex(*tex, *ty, op_key(idx)),
        _ => return None,
    })
}

fn key_uses(k: &Key, mut f: impl FnMut(VReg)) {
    let mut op = |o: &OpKey| {
        if let OpKey::Reg(r) = o {
            f(*r)
        }
    };
    match k {
        Key::Bin(_, _, a, b) | Key::Setp(_, _, a, b) => {
            op(a);
            op(b);
        }
        Key::Un(_, _, a) | Key::Cvt(_, _, a) => op(a),
        Key::Mad(_, a, b, c) => {
            op(a);
            op(b);
            op(c);
        }
        Key::Selp(_, a, b, p) => {
            op(a);
            op(b);
            f(*p);
        }
        Key::Special(_) => {}
        Key::Ld(_, _, base, _) => {
            if let Some(b) = base {
                f(*b)
            }
        }
        Key::Tex(_, _, i) => op(i),
    }
}

/// Maximum distance (in instructions) across which a value is reused.
/// Unbounded reuse would stretch live ranges across whole unrolled bodies
/// and explode register pressure — real compilers trade recomputation for
/// registers exactly like this.
const REUSE_WINDOW: usize = 24;

/// One CSE pass; returns the number of instructions replaced by copies.
pub fn run(f: &mut Function) -> usize {
    let mut replaced = 0;
    for b in &mut f.blocks {
        // value key -> (register holding it, instruction position defined)
        let mut avail: HashMap<Key, (VReg, usize)> = HashMap::new();
        // Insertion log in position order: what to expire, and when.
        let mut window: VecDeque<(usize, Key)> = VecDeque::new();
        for (pos, i) in b.insts.iter_mut().enumerate() {
            // An entry past the reuse window can only ever be overwritten,
            // never hit: drop it (unless a later insert already took its
            // slot), so `avail` stays at most a window long.
            while let Some(&(at, key)) = window.front() {
                if pos - at <= REUSE_WINDOW {
                    break;
                }
                window.pop_front();
                if avail.get(&key).is_some_and(|&(_, a)| a == at) {
                    avail.remove(&key);
                }
            }
            // Invalidate loads when memory may change.
            match i {
                Inst::St { space, .. } => {
                    let s = *space;
                    avail.retain(|k, _| {
                        // Texture fetches read global memory: a global
                        // store may alias them (the simulator is
                        // coherent, unlike real texture caches).
                        !(matches!(k, Key::Ld(sp, ..) if *sp == s)
                            || (s == Space::Global && matches!(k, Key::Tex(..))))
                    });
                }
                Inst::Bar => {
                    // A barrier publishes other threads' shared *and*
                    // global (and thus texture-visible) writes.
                    avail.retain(|k, _| {
                        !matches!(k, Key::Ld(Space::Shared | Space::Global, ..) | Key::Tex(..))
                    });
                }
                _ => {}
            }
            let Some(dst) = i.def() else { continue };
            let key = key_of(i);
            let hit = key.and_then(|k| avail.get(&k)).map(|&(prev, _)| prev);
            if let Some(prev) = hit {
                let ty = f.vreg_types[dst.0 as usize];
                *i = Inst::Mov {
                    ty,
                    dst,
                    src: Operand::Reg(prev),
                };
                replaced += 1;
            }
            // Redefinition kills every expression that used the old value,
            // and any expression currently cached in this register.
            avail.retain(|k, (v, _)| {
                let mut stale = *v == dst;
                key_uses(k, |r| stale |= r == dst);
                !stale
            });
            // ... except the one this very instruction produced (even when
            // it reads its own destination, as `r = r + 1` does).
            if let (Some(key), None) = (key, hit) {
                avail.insert(key, (dst, pos));
                window.push_back((pos, key));
            }
        }
    }
    replaced
}

/// The pass as it stood before available expressions expired by position
/// (whole-map sweeps on every definition): kept verbatim as the model the
/// windowed pass is tested against.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn run(f: &mut Function) -> usize {
        let mut replaced = 0;
        for b in &mut f.blocks {
            // value key -> (register holding it, instruction position defined)
            let mut avail: HashMap<Key, (VReg, usize)> = HashMap::new();
            for (pos, i) in b.insts.iter_mut().enumerate() {
                // Invalidate loads when memory may change.
                match i {
                    Inst::St { space, .. } => {
                        let s = *space;
                        avail.retain(|k, _| {
                            // Texture fetches read global memory: a global
                            // store may alias them (the simulator is
                            // coherent, unlike real texture caches).
                            !(matches!(k, Key::Ld(sp, ..) if *sp == s)
                                || (s == Space::Global && matches!(k, Key::Tex(..))))
                        });
                    }
                    Inst::Bar => {
                        // A barrier publishes other threads' shared *and*
                        // global (and thus texture-visible) writes.
                        avail.retain(|k, _| {
                            !matches!(k, Key::Ld(Space::Shared | Space::Global, ..) | Key::Tex(..))
                        });
                    }
                    _ => {}
                }
                let key = key_of(i);
                let def = i.def();
                if let (Some(key), Some(dst)) = (key, def) {
                    match avail.get(&key) {
                        Some(&(prev, at)) if pos - at <= REUSE_WINDOW => {
                            let ty = f.vreg_types[dst.0 as usize];
                            *i = Inst::Mov {
                                ty,
                                dst,
                                src: Operand::Reg(prev),
                            };
                            replaced += 1;
                        }
                        _ => {
                            avail.insert(key, (dst, pos));
                        }
                    }
                }
                // Redefinition kills every expression that used the old value,
                // and any expression currently cached in this register.
                if let Some(dst) = i.def() {
                    avail.retain(|k, (v, _)| {
                        if *v == dst {
                            // keep only if this very instruction produced it
                            key_of(i).as_ref() == Some(k)
                        } else {
                            let mut uses_dst = false;
                            key_uses(k, |r| uses_dst |= r == dst);
                            !uses_dst
                        }
                    });
                }
            }
        }
        replaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_ir::*;

    fn mk(insts: Vec<Inst>, tys: Vec<Ty>) -> Function {
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

    #[test]
    fn duplicate_arithmetic_collapses() {
        // r1 = r0*4; r2 = r0*4  →  r2 = mov r1
        let f_insts = vec![
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::S32,
                dst: VReg(1),
                a: VReg(0).into(),
                b: Operand::ImmI(4),
            },
            Inst::Bin {
                op: BinOp::Mul,
                ty: Ty::S32,
                dst: VReg(2),
                a: VReg(0).into(),
                b: Operand::ImmI(4),
            },
        ];
        let mut f = mk(f_insts, vec![Ty::S32; 3]);
        assert_eq!(run(&mut f), 1);
        assert!(matches!(
            f.blocks[0].insts[1],
            Inst::Mov {
                src: Operand::Reg(VReg(1)),
                ..
            }
        ));
    }

    #[test]
    fn redefinition_invalidates() {
        // r1 = r0+1; r0 = 9; r2 = r0+1  → r2 must NOT reuse r1.
        let insts = vec![
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::S32,
                dst: VReg(1),
                a: VReg(0).into(),
                b: Operand::ImmI(1),
            },
            Inst::Mov {
                ty: Ty::S32,
                dst: VReg(0),
                src: Operand::ImmI(9),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::S32,
                dst: VReg(2),
                a: VReg(0).into(),
                b: Operand::ImmI(1),
            },
        ];
        let mut f = mk(insts, vec![Ty::S32; 3]);
        assert_eq!(run(&mut f), 0);
    }

    #[test]
    fn loads_cse_until_store() {
        let addr = Address::reg(VReg(0));
        let insts = vec![
            Inst::Ld {
                space: Space::Global,
                ty: Ty::F32,
                dst: VReg(1),
                addr,
            },
            Inst::Ld {
                space: Space::Global,
                ty: Ty::F32,
                dst: VReg(2),
                addr,
            },
            Inst::St {
                space: Space::Global,
                ty: Ty::F32,
                addr,
                src: Operand::ImmF(0.0),
            },
            Inst::Ld {
                space: Space::Global,
                ty: Ty::F32,
                dst: VReg(3),
                addr,
            },
        ];
        let mut f = mk(
            insts,
            vec![Ty::Ptr(Space::Global), Ty::F32, Ty::F32, Ty::F32],
        );
        assert_eq!(run(&mut f), 1, "only the pre-store reload may CSE");
        assert!(matches!(f.blocks[0].insts[1], Inst::Mov { .. }));
        assert!(matches!(f.blocks[0].insts[3], Inst::Ld { .. }));
    }

    #[test]
    fn shared_loads_invalidate_at_barrier() {
        let addr = Address::abs(0);
        let insts = vec![
            Inst::Ld {
                space: Space::Shared,
                ty: Ty::F32,
                dst: VReg(0),
                addr,
            },
            Inst::Bar,
            Inst::Ld {
                space: Space::Shared,
                ty: Ty::F32,
                dst: VReg(1),
                addr,
            },
        ];
        let mut f = mk(insts, vec![Ty::F32, Ty::F32]);
        assert_eq!(run(&mut f), 0, "barrier publishes other threads' writes");
    }

    #[test]
    fn special_registers_cse() {
        let insts = vec![
            Inst::Special {
                dst: VReg(0),
                reg: SpecialReg::TidX,
            },
            Inst::Special {
                dst: VReg(1),
                reg: SpecialReg::TidX,
            },
        ];
        let mut f = mk(insts, vec![Ty::U32, Ty::U32]);
        assert_eq!(run(&mut f), 1);
    }

    /// `r1 = r0*4`, then `gap` unrelated moves, then `r2 = r0*4`: the
    /// recomputation sits `gap + 1` positions after the definition.
    fn recompute_after(gap: usize) -> Function {
        let mul = |dst| Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::S32,
            dst: VReg(dst),
            a: VReg(0).into(),
            b: Operand::ImmI(4),
        };
        let filler = Inst::Mov {
            ty: Ty::S32,
            dst: VReg(3),
            src: Operand::ImmI(7),
        };
        let mut insts = vec![mul(1)];
        insts.extend(std::iter::repeat_n(filler, gap));
        insts.push(mul(2));
        mk(insts, vec![Ty::S32; 4])
    }

    #[test]
    fn reuse_window_edge_is_inclusive() {
        let mut at_window = recompute_after(REUSE_WINDOW - 1);
        assert_eq!(run(&mut at_window), 1, "distance 24 still reuses");
        assert!(matches!(
            at_window.blocks[0].insts[REUSE_WINDOW],
            Inst::Mov {
                src: Operand::Reg(VReg(1)),
                ..
            }
        ));
        let mut past_window = recompute_after(REUSE_WINDOW);
        assert_eq!(run(&mut past_window), 0, "distance 25 recomputes");
    }

    #[test]
    fn expired_value_is_available_again_from_its_recomputation() {
        // r1 = r0*4 … (25 apart) … r2 = r0*4; r3 = r0*4: the middle one
        // recomputes and becomes the value the last one reuses.
        let mut f = recompute_after(REUSE_WINDOW);
        f.blocks[0].insts.push(Inst::Bin {
            op: BinOp::Mul,
            ty: Ty::S32,
            dst: VReg(3),
            a: VReg(0).into(),
            b: Operand::ImmI(4),
        });
        assert_eq!(run(&mut f), 1);
        assert!(matches!(
            f.blocks[0].insts.last(),
            Some(Inst::Mov {
                src: Operand::Reg(VReg(2)),
                ..
            })
        ));
    }

    mod against_reference {
        use super::super::{reference, run};
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn windowed_pass_is_the_reference_pass(
                f in prop_oneof![crate::testgen::function(6), crate::testgen::function(48)],
            ) {
                let (mut new, mut old) = (f.clone(), f);
                let (n, o) = (run(&mut new), reference::run(&mut old));
                prop_assert_eq!(n, o, "replaced count");
                prop_assert_eq!(new, old);
            }
        }
    }
}
