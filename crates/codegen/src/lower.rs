//! Lowering: typed HIR → PTX-like IR.
//!
//! Conventions that matter for the specialization story:
//!
//! * Scalar kernel *parameters* are loaded from param space on first use —
//!   a specialized kernel whose parameters all folded away never emits
//!   those loads (cf. §2.4 "independent parameters have to be loaded ...
//!   before they can be used").
//! * Per-thread local *arrays* that survived scalarization are placed in
//!   the `local` state space (slow), since registers cannot be indirectly
//!   addressed.
//! * Constant pointers (e.g. a specialized `PTR_IN`) lower to absolute
//!   addresses in `ld`/`st` instructions, exactly like Appendix D.

use crate::mapping::{
    bin_op, builtin, byte_offset, cast, cmp_op, elem_ty, ir_ty, ptr_add, un_op, Builtin, Cast, PTR,
};
use ks_ir::fxhash::FxHashMap;
use ks_ir::{
    Address, BasicBlock, BinOp, BlockId, CmpOp, ConstDecl, Function, Inst, KernelParam, Module,
    Operand, SharedDecl, Space, SpecialReg, Terminator, Ty, UnOp, VReg,
};
use ks_lang::ast::{BuiltinVar, Dim3};
use ks_lang::hir::*;

/// Lower a whole program to an IR module.
pub fn lower_program(p: &Program) -> Result<Module, String> {
    let (const_off, _) = layout(p.consts.iter().map(|c| c.len))?;
    let consts = (p.consts.iter().zip(&const_off))
        .map(|(c, &offset)| ConstDecl {
            name: c.name.clone(),
            offset,
            size_bytes: c.len * 4,
        })
        .collect();
    let mut functions = Vec::new();
    for k in &p.kernels {
        functions.push(lower_func(k, &const_off)?);
    }
    let textures = p.textures.iter().map(|t| t.name.clone()).collect();
    let m = Module {
        functions,
        consts,
        textures,
    };
    let errs = ks_ir::verify_module(&m);
    if let Some(e) = errs.first() {
        return Err(format!("internal codegen error: {e}"));
    }
    Ok(m)
}

/// Byte offsets of word arrays of `lens` elements laid out back to back,
/// and the end of the last one.
fn layout(lens: impl Iterator<Item = u32>) -> Result<(Vec<u32>, u32), String> {
    let mut offs = Vec::new();
    let mut end = 0u32;
    for len in lens {
        offs.push(end);
        end = (len.checked_mul(4))
            .and_then(|bytes| end.checked_add(bytes))
            .ok_or("arrays exceed the 4 GiB address space")?;
    }
    Ok((offs, end))
}

struct Lower<'a> {
    hir: &'a HFunc,
    f: Function,
    cur: BlockId,
    /// Scalar locals → dedicated virtual register.
    local_reg: FxHashMap<LocalId, VReg>,
    /// Array locals → byte offset in per-thread local memory.
    local_off: FxHashMap<LocalId, u32>,
    shared_off: Vec<u32>,
    const_off: &'a [u32],
    param_reg: Vec<Option<VReg>>,
    param_off: Vec<u32>,
    special_reg: FxHashMap<(BuiltinVar, Dim3), VReg>,
    /// Number of instructions in the entry preamble (lazy param/special
    /// loads are inserted here so they dominate all uses).
    preamble_len: usize,
    /// (continue target, break target) per enclosing loop.
    loop_stack: Vec<(BlockId, BlockId)>,
    exit: BlockId,
}

fn lower_func(k: &HFunc, const_off: &[u32]) -> Result<Function, String> {
    // Parameter layout: pointers 8-byte aligned, scalars 4-byte.
    let mut params = Vec::new();
    let mut param_off = Vec::new();
    let mut off = 0u32;
    for p in &k.params {
        let (size, align) = match p.ty {
            HTy::Ptr(_) => (8, 8),
            _ => (4, 4),
        };
        off = off.div_ceil(align) * align;
        param_off.push(off);
        params.push(KernelParam {
            name: p.name.clone(),
            ty: ir_ty(p.ty),
            offset: off,
        });
        off += size;
    }
    let (shared_off, _) = layout(k.shared.iter().map(|s| s.len))?;
    let shared = (k.shared.iter().zip(&shared_off))
        .map(|(s, &offset)| SharedDecl {
            name: s.name.clone(),
            offset,
            size_bytes: s.len * 4,
        })
        .collect();
    // Local (spill) layout for non-scalarized arrays.
    let arrays: Vec<LocalId> = (0..k.locals.len() as u32)
        .map(LocalId)
        .filter(|id| k.locals[id.0 as usize].array_len > 0)
        .collect();
    let (offs, local_bytes) = layout(arrays.iter().map(|id| k.locals[id.0 as usize].array_len))?;
    let local_off: FxHashMap<LocalId, u32> = arrays.into_iter().zip(offs).collect();

    let mut f = Function {
        name: k.name.clone(),
        params,
        blocks: vec![BasicBlock {
            id: BlockId(0),
            insts: vec![],
            term: Terminator::Ret,
        }],
        vreg_types: vec![],
        shared,
        local_bytes,
    };
    // One vreg per scalar local, allocated up front.
    let mut local_reg = FxHashMap::default();
    for (i, l) in k.locals.iter().enumerate() {
        if l.array_len == 0 {
            let r = f.new_vreg(ir_ty(l.ty));
            local_reg.insert(LocalId(i as u32), r);
        }
    }

    let mut lw = Lower {
        hir: k,
        f,
        cur: BlockId(0),
        local_reg,
        local_off,
        shared_off,
        const_off,
        param_reg: vec![None; k.params.len()],
        param_off,
        special_reg: FxHashMap::default(),
        preamble_len: 0,
        loop_stack: vec![],
        exit: BlockId(0), // patched below
    };
    // Dedicated exit block.
    let exit = lw.new_block();
    lw.exit = exit;
    lw.f.block_mut(exit).term = Terminator::Ret;

    lw.stmts(&k.body)?;
    // Fall-through to exit.
    let cur = lw.cur;
    lw.f.block_mut(cur).term = Terminator::Br { target: exit };
    Ok(lw.f)
}

impl<'a> Lower<'a> {
    /// Retarget the last instruction's destination to `dst` when it just
    /// defined the freshly allocated temp `v`. Returns true on success.
    fn try_retarget(&mut self, v: Operand, dst: VReg) -> bool {
        let Operand::Reg(tmp) = v else { return false };
        if tmp == dst {
            return true; // already in place
        }
        // Only fuse freshly created temporaries (highest vreg id), so no
        // other instruction can reference them yet.
        if tmp.0 as usize != self.f.num_vregs() - 1 {
            return false;
        }
        let cur = self.cur;
        let block = self.f.block_mut(cur);
        let Some(last) = block.insts.last_mut() else {
            return false;
        };
        if last.def() != Some(tmp) {
            return false;
        }
        // Don't fuse if the instruction also *reads* the temp (impossible
        // for a fresh temp, but stay defensive).
        let mut reads_tmp = false;
        last.for_each_use(|r| reads_tmp |= r == tmp);
        if reads_tmp {
            return false;
        }
        match last {
            Inst::Mov { dst: d, .. }
            | Inst::Bin { dst: d, .. }
            | Inst::Un { dst: d, .. }
            | Inst::Mad { dst: d, .. }
            | Inst::Selp { dst: d, .. }
            | Inst::Cvt { dst: d, .. }
            | Inst::Ld { dst: d, .. }
            | Inst::Special { dst: d, .. } => *d = dst,
            _ => return false,
        }
        // If that was a preamble load, it now writes the local: a later
        // use of the same parameter or special register loads it afresh.
        for r in self.param_reg.iter_mut().filter(|r| **r == Some(tmp)) {
            *r = None;
        }
        self.special_reg.retain(|_, r| *r != tmp);
        true
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.f.blocks.len() as u32);
        self.f.blocks.push(BasicBlock {
            id,
            insts: vec![],
            term: Terminator::Ret,
        });
        id
    }

    fn emit(&mut self, i: Inst) {
        let cur = self.cur;
        self.f.block_mut(cur).insts.push(i);
    }

    /// Insert an instruction into the entry preamble (dominates everything).
    fn emit_preamble(&mut self, i: Inst) {
        let at = self.preamble_len;
        self.f.block_mut(BlockId(0)).insts.insert(at, i);
        self.preamble_len += 1;
    }

    fn set_term(&mut self, b: BlockId, t: Terminator) {
        self.f.block_mut(b).term = t;
    }

    fn param_vreg(&mut self, id: ParamId) -> VReg {
        if let Some(r) = self.param_reg[id.0 as usize] {
            return r;
        }
        let hp = &self.hir.params[id.0 as usize];
        let ty = ir_ty(hp.ty);
        let r = self.f.new_vreg(ty);
        let off = self.param_off[id.0 as usize];
        self.emit_preamble(Inst::Ld {
            space: Space::Param,
            ty,
            dst: r,
            addr: Address::abs(off as i64),
        });
        self.param_reg[id.0 as usize] = Some(r);
        r
    }

    fn special_vreg(&mut self, b: BuiltinVar, d: Dim3) -> VReg {
        if let Some(r) = self.special_reg.get(&(b, d)) {
            return *r;
        }
        let reg = match (b, d) {
            (BuiltinVar::ThreadIdx, Dim3::X) => SpecialReg::TidX,
            (BuiltinVar::ThreadIdx, Dim3::Y) => SpecialReg::TidY,
            (BuiltinVar::ThreadIdx, Dim3::Z) => SpecialReg::TidZ,
            (BuiltinVar::BlockIdx, Dim3::X) => SpecialReg::CtaIdX,
            (BuiltinVar::BlockIdx, Dim3::Y) => SpecialReg::CtaIdY,
            (BuiltinVar::BlockIdx, Dim3::Z) => SpecialReg::CtaIdZ,
            (BuiltinVar::BlockDim, Dim3::X) => SpecialReg::NtidX,
            (BuiltinVar::BlockDim, Dim3::Y) => SpecialReg::NtidY,
            (BuiltinVar::BlockDim, Dim3::Z) => SpecialReg::NtidZ,
            (BuiltinVar::GridDim, Dim3::X) => SpecialReg::NctaIdX,
            (BuiltinVar::GridDim, Dim3::Y) => SpecialReg::NctaIdY,
            (BuiltinVar::GridDim, Dim3::Z) => SpecialReg::NctaIdZ,
        };
        let r = self.f.new_vreg(Ty::U32);
        self.emit_preamble(Inst::Special { dst: r, reg });
        self.special_reg.insert((b, d), r);
        r
    }

    /// Evaluate a Bool expression to a predicate register.
    fn pred(&mut self, e: &HExpr) -> Result<VReg, String> {
        let o = self.expr(e)?;
        match o {
            Operand::Reg(r) => Ok(r),
            Operand::ImmI(v) => {
                // A constant predicate that survived folding: materialize.
                let r = self.f.new_vreg(Ty::Pred);
                self.emit(Inst::Setp {
                    cmp: CmpOp::Ne,
                    ty: Ty::S32,
                    dst: r,
                    a: Operand::ImmI(v),
                    b: Operand::ImmI(0),
                });
                Ok(r)
            }
            Operand::ImmF(_) => Err("float used as predicate".into()),
        }
    }

    // ---- expressions ----

    fn expr(&mut self, e: &HExpr) -> Result<Operand, String> {
        Ok(match e {
            HExpr::IntLit { value, .. } => Operand::ImmI(*value),
            HExpr::FloatLit(v) => Operand::ImmF(*v),
            HExpr::Local(id, _) => {
                Operand::Reg(*self.local_reg.get(id).ok_or("array local read as scalar")?)
            }
            HExpr::Param(id, _) => Operand::Reg(self.param_vreg(*id)),
            HExpr::Builtin(b, d) => Operand::Reg(self.special_vreg(*b, *d)),
            HExpr::Unary(op, ty, a) => {
                let t = ir_ty(*ty);
                let a = self.expr(a)?;
                let dst = self.f.new_vreg(t);
                self.emit(Inst::Un {
                    op: un_op(*op),
                    ty: t,
                    dst,
                    a,
                });
                Operand::Reg(dst)
            }
            HExpr::Binary(op, ty, a, b) => {
                let t = ir_ty(*ty);
                let a = self.expr(a)?;
                let b = self.expr(b)?;
                let dst = self.f.new_vreg(t);
                self.emit(Inst::Bin {
                    op: bin_op(*op),
                    ty: t,
                    dst,
                    a,
                    b,
                });
                Operand::Reg(dst)
            }
            HExpr::Cmp(c, ty, a, b) => {
                let t = ir_ty(*ty);
                let a = self.expr(a)?;
                let b = self.expr(b)?;
                let dst = self.f.new_vreg(Ty::Pred);
                self.emit(Inst::Setp {
                    cmp: cmp_op(*c),
                    ty: t,
                    dst,
                    a,
                    b,
                });
                Operand::Reg(dst)
            }
            HExpr::LogAnd(a, b) => {
                let pa = self.pred(a)?;
                let pb = self.pred(b)?;
                let dst = self.f.new_vreg(Ty::Pred);
                self.emit(Inst::Bin {
                    op: BinOp::And,
                    ty: Ty::Pred,
                    dst,
                    a: pa.into(),
                    b: pb.into(),
                });
                Operand::Reg(dst)
            }
            HExpr::LogOr(a, b) => {
                let pa = self.pred(a)?;
                let pb = self.pred(b)?;
                let dst = self.f.new_vreg(Ty::Pred);
                self.emit(Inst::Bin {
                    op: BinOp::Or,
                    ty: Ty::Pred,
                    dst,
                    a: pa.into(),
                    b: pb.into(),
                });
                Operand::Reg(dst)
            }
            HExpr::LogNot(a) => {
                let p = self.pred(a)?;
                let dst = self.f.new_vreg(Ty::Pred);
                self.emit(Inst::Un {
                    op: UnOp::Not,
                    ty: Ty::Pred,
                    dst,
                    a: p.into(),
                });
                Operand::Reg(dst)
            }
            HExpr::Cond(c, a, b, ty) => {
                let p = self.pred(c)?;
                let t = ir_ty(*ty);
                let a = self.expr(a)?;
                let b = self.expr(b)?;
                let dst = self.f.new_vreg(t);
                self.emit(Inst::Selp {
                    ty: t,
                    dst,
                    a,
                    b,
                    pred: p,
                });
                Operand::Reg(dst)
            }
            HExpr::Load(place, ty) => self.load_place(place, *ty)?,
            HExpr::ConstElem(id, idx, elem) => {
                let base = self.const_off[id.0 as usize];
                let addr = self.elem_address(idx, base as i64)?;
                let t = elem_ty(*elem);
                let dst = self.f.new_vreg(t);
                self.emit(Inst::Ld {
                    space: Space::Const,
                    ty: t,
                    dst,
                    addr,
                });
                Operand::Reg(dst)
            }
            HExpr::TexFetch(id, idx, elem) => {
                let i = self.expr(idx)?;
                let t = elem_ty(*elem);
                let dst = self.f.new_vreg(t);
                self.emit(Inst::Tex {
                    ty: t,
                    dst,
                    tex: id.0,
                    idx: i,
                });
                Operand::Reg(dst)
            }
            HExpr::Call(fun, args, ty) => {
                let t = ir_ty(*ty);
                let vals = (args.iter().map(|a| self.expr(a))).collect::<Result<Vec<_>, _>>()?;
                let dst = self.f.new_vreg(t);
                match builtin(*fun) {
                    Builtin::Un(op) => self.emit(Inst::Un {
                        op,
                        ty: t,
                        dst,
                        a: vals[0],
                    }),
                    Builtin::Bin(op) => self.emit(Inst::Bin {
                        op,
                        ty: t,
                        dst,
                        a: vals[0],
                        b: vals[1],
                    }),
                }
                Operand::Reg(dst)
            }
            HExpr::Cast { to, from, val } => {
                let v = self.expr(val)?;
                let (tt, ft) = (ir_ty(*to), ir_ty(*from));
                match cast(*from, *to) {
                    Cast::Free => v,
                    Cast::Selp => {
                        let p = self.pred(val)?;
                        let dst = self.f.new_vreg(tt);
                        let (one, zero) = if *to == HTy::Float {
                            (Operand::ImmF(1.0), Operand::ImmF(0.0))
                        } else {
                            (Operand::ImmI(1), Operand::ImmI(0))
                        };
                        self.emit(Inst::Selp {
                            ty: tt,
                            dst,
                            a: one,
                            b: zero,
                            pred: p,
                        });
                        Operand::Reg(dst)
                    }
                    Cast::Cvt => {
                        let dst = self.f.new_vreg(tt);
                        self.emit(Inst::Cvt {
                            dst_ty: tt,
                            src_ty: ft,
                            dst,
                            src: v,
                        });
                        Operand::Reg(dst)
                    }
                }
            }
            HExpr::PtrAdd { ptr, offset, elem } => {
                let p = self.expr(ptr)?;
                let o = self.expr(offset)?;
                match o {
                    Operand::ImmI(c) => match p {
                        // Constant offset: fold into the pointer immediate
                        // itself, or into a single add.
                        Operand::ImmI(pv) => {
                            let v = ptr_add(pv as u64, c as u64, *elem).ok_or("bad pointer add")?;
                            Operand::ImmI(v as i64)
                        }
                        _ => {
                            let byte = byte_offset(c as u64, elem.size_bytes())
                                .ok_or("bad element offset")?;
                            let dst = self.f.new_vreg(PTR);
                            self.emit(Inst::Bin {
                                op: BinOp::Add,
                                ty: PTR,
                                dst,
                                a: p,
                                b: Operand::ImmI(byte as i64),
                            });
                            Operand::Reg(dst)
                        }
                    },
                    _ => {
                        let scaled = self.f.new_vreg(Ty::S32);
                        self.emit(Inst::Bin {
                            op: BinOp::Mul,
                            ty: Ty::S32,
                            dst: scaled,
                            a: o,
                            b: Operand::ImmI(elem.size_bytes() as i64),
                        });
                        let dst = self.f.new_vreg(PTR);
                        self.emit(Inst::Bin {
                            op: BinOp::Add,
                            ty: PTR,
                            dst,
                            a: p,
                            b: scaled.into(),
                        });
                        Operand::Reg(dst)
                    }
                }
            }
        })
    }

    /// Compute an element address `base_byte_off + idx*4`.
    fn elem_address(&mut self, idx: &HExpr, base: i64) -> Result<Address, String> {
        let i = self.expr(idx)?;
        Ok(match i {
            Operand::ImmI(c) => {
                let byte = byte_offset(c as u64, 4).ok_or("bad element offset")?;
                Address::abs(base + byte as i64)
            }
            Operand::Reg(r) => {
                let scaled = self.f.new_vreg(Ty::S32);
                self.emit(Inst::Bin {
                    op: BinOp::Mul,
                    ty: Ty::S32,
                    dst: scaled,
                    a: r.into(),
                    b: Operand::ImmI(4),
                });
                Address::reg_off(scaled, base)
            }
            Operand::ImmF(_) => return Err("float index".into()),
        })
    }

    fn load_place(&mut self, p: &Place, ty: HTy) -> Result<Operand, String> {
        if let Place::Local(id) = p {
            return Ok(Operand::Reg(
                *self.local_reg.get(id).ok_or("unlowered local")?,
            ));
        }
        let (space, ty, addr) = self.place_address(p, ty)?;
        let dst = self.f.new_vreg(ty);
        self.emit(Inst::Ld {
            space,
            ty,
            dst,
            addr,
        });
        Ok(Operand::Reg(dst))
    }

    /// The state space, access type and address of an array element or a
    /// dereference holding a `ty` value.
    fn place_address(&mut self, p: &Place, ty: HTy) -> Result<(Space, Ty, Address), String> {
        Ok(match p {
            Place::Local(_) => return Err("scalar local has no address".into()),
            Place::LocalElem(id, idx) => {
                let base = *self.local_off.get(id).ok_or("unlowered local array")? as i64;
                (Space::Local, ir_ty(ty), self.elem_address(idx, base)?)
            }
            Place::SharedElem(id, idx) => {
                let base = self.shared_off[id.0 as usize] as i64;
                (Space::Shared, ir_ty(ty), self.elem_address(idx, base)?)
            }
            Place::Deref { ptr, elem } => {
                let addr = match self.expr(ptr)? {
                    Operand::ImmI(a) => Address::abs(a),
                    Operand::Reg(r) => Address::reg(r),
                    Operand::ImmF(_) => return Err("float pointer".into()),
                };
                (Space::Global, elem_ty(*elem), addr)
            }
        })
    }

    // ---- statements ----

    fn stmts(&mut self, stmts: &[HStmt]) -> Result<(), String> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &HStmt) -> Result<(), String> {
        match s {
            HStmt::Assign { place, value } => {
                let v = self.expr(value)?;
                match place {
                    Place::Local(id) => {
                        let r = *self.local_reg.get(id).ok_or("unlowered local")?;
                        let ty = self.f.vreg_types[r.0 as usize];
                        // If the value was just computed into a fresh
                        // temporary by the immediately preceding
                        // instruction, retarget that instruction to write
                        // the local's register directly instead of
                        // emitting a copy (what a real register allocator
                        // does; avoids a dependent mov after every load).
                        if !self.try_retarget(v, r) {
                            self.emit(Inst::Mov { ty, dst: r, src: v });
                        }
                    }
                    _ => {
                        let (space, ty, addr) = self.place_address(place, value.ty())?;
                        self.emit(Inst::St {
                            space,
                            ty,
                            addr,
                            src: v,
                        });
                    }
                }
                Ok(())
            }
            HStmt::If {
                cond,
                then_s,
                else_s,
            } => {
                let p = self.pred(cond)?;
                let then_b = self.new_block();
                let join_b = self.new_block();
                let else_b = if else_s.is_empty() {
                    join_b
                } else {
                    self.new_block()
                };
                let cur = self.cur;
                self.set_term(
                    cur,
                    Terminator::CondBr {
                        pred: p,
                        negate: false,
                        then_t: then_b,
                        else_t: else_b,
                    },
                );
                self.cur = then_b;
                self.stmts(then_s)?;
                let end_then = self.cur;
                self.set_term(end_then, Terminator::Br { target: join_b });
                if !else_s.is_empty() {
                    self.cur = else_b;
                    self.stmts(else_s)?;
                    let end_else = self.cur;
                    self.set_term(end_else, Terminator::Br { target: join_b });
                }
                self.cur = join_b;
                Ok(())
            }
            HStmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                self.stmts(init)?;
                let header = self.new_block();
                let body_b = self.new_block();
                let step_b = self.new_block();
                let exit_b = self.new_block();
                let cur = self.cur;
                self.set_term(cur, Terminator::Br { target: header });
                self.cur = header;
                match cond {
                    Some(c) => {
                        let p = self.pred(c)?;
                        let h = self.cur;
                        self.set_term(
                            h,
                            Terminator::CondBr {
                                pred: p,
                                negate: false,
                                then_t: body_b,
                                else_t: exit_b,
                            },
                        );
                    }
                    None => {
                        let h = self.cur;
                        self.set_term(h, Terminator::Br { target: body_b });
                    }
                }
                self.loop_stack.push((step_b, exit_b));
                self.cur = body_b;
                self.stmts(body)?;
                let end_body = self.cur;
                self.set_term(end_body, Terminator::Br { target: step_b });
                self.cur = step_b;
                self.stmts(step)?;
                let end_step = self.cur;
                self.set_term(end_step, Terminator::Br { target: header });
                self.loop_stack.pop();
                self.cur = exit_b;
                Ok(())
            }
            HStmt::While { cond, body } => {
                let header = self.new_block();
                let body_b = self.new_block();
                let exit_b = self.new_block();
                let cur = self.cur;
                self.set_term(cur, Terminator::Br { target: header });
                self.cur = header;
                let p = self.pred(cond)?;
                let h = self.cur;
                self.set_term(
                    h,
                    Terminator::CondBr {
                        pred: p,
                        negate: false,
                        then_t: body_b,
                        else_t: exit_b,
                    },
                );
                self.loop_stack.push((header, exit_b));
                self.cur = body_b;
                self.stmts(body)?;
                let end_body = self.cur;
                self.set_term(end_body, Terminator::Br { target: header });
                self.loop_stack.pop();
                self.cur = exit_b;
                Ok(())
            }
            HStmt::DoWhile { body, cond } => {
                let body_b = self.new_block();
                let cond_b = self.new_block();
                let exit_b = self.new_block();
                let cur = self.cur;
                self.set_term(cur, Terminator::Br { target: body_b });
                self.loop_stack.push((cond_b, exit_b));
                self.cur = body_b;
                self.stmts(body)?;
                let end_body = self.cur;
                self.set_term(end_body, Terminator::Br { target: cond_b });
                self.cur = cond_b;
                let p = self.pred(cond)?;
                let c = self.cur;
                self.set_term(
                    c,
                    Terminator::CondBr {
                        pred: p,
                        negate: false,
                        then_t: body_b,
                        else_t: exit_b,
                    },
                );
                self.loop_stack.pop();
                self.cur = exit_b;
                Ok(())
            }
            HStmt::Break => {
                let (_, brk) = *self.loop_stack.last().ok_or("break outside loop")?;
                let cur = self.cur;
                self.set_term(cur, Terminator::Br { target: brk });
                self.cur = self.new_block(); // unreachable continuation
                Ok(())
            }
            HStmt::Continue => {
                let (cont, _) = *self.loop_stack.last().ok_or("continue outside loop")?;
                let cur = self.cur;
                self.set_term(cur, Terminator::Br { target: cont });
                self.cur = self.new_block();
                Ok(())
            }
            HStmt::Return => {
                let cur = self.cur;
                let exit = self.exit;
                self.set_term(cur, Terminator::Br { target: exit });
                self.cur = self.new_block();
                Ok(())
            }
            HStmt::Sync => {
                self.emit(Inst::Bar);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CodegenOptions};
    use ks_lang::frontend;

    fn lower(src: &str, defs: &[(&str, &str)], optimize: bool) -> Module {
        let defs: Vec<(String, String)> = defs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        let prog = frontend(src, &defs).unwrap();
        compile(
            &prog,
            &CodegenOptions {
                optimize,
                ..Default::default()
            },
        )
        .unwrap()
    }

    const MATHTEST: &str = r#"
        #ifndef LOOP_COUNT
        #define LOOP_COUNT loopCount
        #endif
        #ifndef ARG_A
        #define ARG_A argA
        #endif
        #ifndef ARG_B
        #define ARG_B argB
        #endif
        __global__ void mathTest(int* in, int* out, int argA, int argB, int loopCount) {
            int acc = 0;
            const unsigned int stride = ARG_A * ARG_B;
            const unsigned int offset = blockIdx.x * blockDim.x + threadIdx.x;
            for (int i = 0; i < LOOP_COUNT; i++) {
                acc += *(in + offset + i * stride);
            }
            *(out + offset) = acc;
            return;
        }
    "#;

    #[test]
    fn runtime_evaluated_kernel_has_control_flow() {
        let m = lower(MATHTEST, &[], true);
        let f = m.function("mathTest").unwrap();
        assert!(
            f.blocks.len() > 3,
            "rolled loop needs header/body/step blocks"
        );
        // Parameter loads present.
        let has_param_ld = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Ld {
                    space: Space::Param,
                    ..
                }
            )
        });
        assert!(has_param_ld);
    }

    #[test]
    fn specialized_kernel_is_straight_line() {
        let m = lower(
            MATHTEST,
            &[("LOOP_COUNT", "5"), ("ARG_A", "3"), ("ARG_B", "7")],
            true,
        );
        let f = m.function("mathTest").unwrap();
        // Fully unrolled: no conditional branches anywhere.
        let has_condbr = f
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::CondBr { .. }));
        assert!(!has_condbr, "specialized kernel must have no control flow");
        // Exactly 5 global loads and 1 store.
        let loads = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i,
                    Inst::Ld {
                        space: Space::Global,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(loads, 5);
    }

    #[test]
    fn shared_memory_lowering() {
        let src = r#"
            __global__ void k(float* in, float* out) {
                __shared__ float tile[8][4];
                tile[threadIdx.y][threadIdx.x] = in[threadIdx.x];
                __syncthreads();
                out[threadIdx.x] = tile[0][threadIdx.x];
            }
        "#;
        let m = lower(src, &[], true);
        let f = m.function("k").unwrap();
        assert_eq!(f.shared_bytes(), 8 * 4 * 4);
        let insts: Vec<&Inst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::St {
                space: Space::Shared,
                ..
            }
        )));
        assert!(insts.iter().any(|i| matches!(i, Inst::Bar)));
        assert!(insts.iter().any(|i| matches!(
            i,
            Inst::Ld {
                space: Space::Shared,
                ..
            }
        )));
    }

    #[test]
    fn dynamic_local_array_uses_local_space() {
        let src = r#"
            __global__ void k(float* out, int n) {
                float buf[16];
                for (int i = 0; i < n; i++) { buf[i & 15] = (float)i; }
                out[0] = buf[0];
            }
        "#;
        let m = lower(src, &[], true);
        let f = m.function("k").unwrap();
        assert_eq!(f.local_bytes, 64);
        let has_local_st = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::St {
                    space: Space::Local,
                    ..
                }
            )
        });
        assert!(has_local_st);
    }

    #[test]
    fn scalarized_array_needs_no_local_space() {
        let src = r#"
            __global__ void k(float* in, float* out) {
                float acc[4];
                for (int r = 0; r < 4; r++) { acc[r] = in[r]; }
                out[0] = acc[0] + acc[1] + acc[2] + acc[3];
            }
        "#;
        let m = lower(src, &[], true);
        let f = m.function("k").unwrap();
        assert_eq!(f.local_bytes, 0, "register blocking: no local memory");
    }

    #[test]
    fn constant_memory_lowering() {
        let src = r#"
            __constant__ float coef[16];
            __global__ void k(float* out) {
                out[threadIdx.x] = coef[threadIdx.x];
            }
        "#;
        let m = lower(src, &[], true);
        assert_eq!(m.const_bytes(), 64);
        let f = m.function("k").unwrap();
        let has_const_ld = f.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Ld {
                    space: Space::Const,
                    ..
                }
            )
        });
        assert!(has_const_ld);
    }

    #[test]
    fn specialized_pointer_becomes_absolute_address() {
        let src = r#"
            __global__ void k(float* out) {
                float* p = (float*)PTR_IN;
                out[0] = p[2];
            }
        "#;
        let m = lower(src, &[("PTR_IN", "0x10000")], true);
        let f = m.function("k").unwrap();
        let abs_load = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find_map(|i| match i {
                Inst::Ld {
                    space: Space::Global,
                    addr,
                    ..
                } if addr.base.is_none() => Some(addr.offset),
                _ => None,
            });
        assert_eq!(abs_load, Some(0x10000 + 8));
    }

    #[test]
    fn verifier_accepts_all_lowered_modules() {
        for (src, defs) in [(MATHTEST, vec![("LOOP_COUNT", "4")]), (MATHTEST, vec![])] {
            let m = lower(src, &defs, true);
            assert!(ks_ir::verify_module(&m).is_empty());
        }
    }

    #[test]
    fn arrays_past_4_gib_are_an_error() {
        let src = r#"
            __global__ void k(float* out) {
                __shared__ float s[1073741824];
                out[0] = s[threadIdx.x];
            }
        "#;
        let prog = frontend(src, &[]).unwrap();
        let e = compile(&prog, &CodegenOptions::default()).unwrap_err();
        assert!(e.contains("4 GiB"), "{e}");
    }

    #[test]
    fn preamble_loads_are_not_retargeted() {
        // The first statement copies a parameter and a special register
        // into locals; later uses must still read defined registers.
        let src = r#"
            __global__ void k(float* out) {
                float* p = out;
                unsigned int t = threadIdx.x;
                out[threadIdx.x] = p[t];
            }
        "#;
        let f = lower(src, &[], false).functions.remove(0);
        let insts: Vec<&Inst> = f.blocks.iter().flat_map(|b| &b.insts).collect();
        let defs: Vec<VReg> = insts.iter().filter_map(|i| i.def()).collect();
        for i in &insts {
            i.for_each_use(|r| assert!(defs.contains(&r), "{r} read, never written"));
        }
    }
}
