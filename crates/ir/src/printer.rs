//! PTX-style textual rendering of modules, for documentation, debugging,
//! and the RE-vs-SK listings contrast (Appendices C and D of the paper).

use crate::inst::{Inst, Operand, Terminator};
use crate::module::{Function, Module};
use std::fmt::Write;

fn op(o: &Operand) -> String {
    match o {
        Operand::Reg(r) => r.to_string(),
        Operand::ImmI(v) => v.to_string(),
        Operand::ImmF(v) => format!("0f{:08X} /*{v}*/", v.to_bits()),
    }
}

/// Render a single instruction as a PTX-flavoured line.
fn print_inst(i: &Inst) -> String {
    match i {
        Inst::Mov { ty, dst, src } => format!("mov.{ty} \t{dst}, {};", op(src)),
        Inst::Bin {
            op: o,
            ty,
            dst,
            a,
            b,
        } => {
            format!("{}.{ty} \t{dst}, {}, {};", o.mnemonic(), op(a), op(b))
        }
        Inst::Un { op: o, ty, dst, a } => format!("{}.{ty} \t{dst}, {};", o.mnemonic(), op(a)),
        Inst::Mad { ty, dst, a, b, c } => {
            format!("mad.lo.{ty} \t{dst}, {}, {}, {};", op(a), op(b), op(c))
        }
        Inst::Setp { cmp, ty, dst, a, b } => {
            format!(
                "setp.{}.{ty} \t{dst}, {}, {};",
                cmp.mnemonic(),
                op(a),
                op(b)
            )
        }
        Inst::Selp {
            ty,
            dst,
            a,
            b,
            pred,
        } => {
            format!("selp.{ty} \t{dst}, {}, {}, {pred};", op(a), op(b))
        }
        Inst::Cvt {
            dst_ty,
            src_ty,
            dst,
            src,
        } => {
            format!("cvt.{dst_ty}.{src_ty} \t{dst}, {};", op(src))
        }
        Inst::Ld {
            space,
            ty,
            dst,
            addr,
        } => format!("ld.{space}.{ty} \t{dst}, {addr};"),
        Inst::St {
            space,
            ty,
            addr,
            src,
        } => format!("st.{space}.{ty} \t{addr}, {};", op(src)),
        Inst::Bar => "bar.sync \t0;".to_string(),
        Inst::Special { dst, reg } => format!("mov.u32 \t{dst}, {};", reg.name()),
        Inst::Tex { ty, dst, tex, idx } => {
            format!("tex.1d.{ty} \t{dst}, tex{tex}, {};", op(idx))
        }
    }
}

fn print_term(t: &Terminator) -> String {
    match t {
        Terminator::Br { target } => format!("bra \t${target};"),
        Terminator::CondBr {
            pred,
            negate,
            then_t,
            else_t,
        } => {
            let neg = if *negate { "!" } else { "" };
            format!("@{neg}{pred} bra \t${then_t};\nbra \t${else_t};")
        }
        Terminator::Ret => "ret;".to_string(),
    }
}

/// Render a function in PTX-like syntax.
fn print_function(f: &Function) -> String {
    let mut s = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .map(|p| format!(".param .{} {}", p.ty, p.name))
        .collect();
    let _ = writeln!(s, ".entry {} ({})", f.name, params.join(", "));
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "\t.reg \t%r<{}>;", f.num_vregs());
    for sh in &f.shared {
        let _ = writeln!(s, "\t.shared .align 4 .b8 {}[{}];", sh.name, sh.size_bytes);
    }
    if f.local_bytes > 0 {
        let _ = writeln!(s, "\t.local .align 4 .b8 __local_depot[{}];", f.local_bytes);
    }
    for b in &f.blocks {
        let _ = writeln!(s, "${}:", b.id);
        for i in &b.insts {
            let _ = writeln!(s, "\t{}", print_inst(i));
        }
        for line in print_term(&b.term).lines() {
            let _ = writeln!(s, "\t{line}");
        }
    }
    let _ = writeln!(s, "}}");
    s
}

/// Render a whole module.
pub fn print_module(m: &Module) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "//\n// Generated by ks-codegen (PTX-like listing)\n//");
    for c in &m.consts {
        let _ = writeln!(s, ".const .align 4 .b8 {}[{}];", c.name, c.size_bytes);
    }
    for f in &m.functions {
        s.push('\n');
        s.push_str(&print_function(f));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::*;
    use crate::module::*;
    use crate::types::*;

    #[test]
    fn renders_ptx_like_listing() {
        let mut f = Function {
            name: "mathTest".into(),
            params: vec![KernelParam {
                name: "out".into(),
                ty: Ty::Ptr(Space::Global),
                offset: 0,
            }],
            blocks: vec![],
            vreg_types: vec![],
            shared: vec![SharedDecl {
                name: "tile".into(),
                offset: 0,
                size_bytes: 64,
            }],
            local_bytes: 0,
        };
        let r0 = f.new_vreg(Ty::U32);
        let r1 = f.new_vreg(Ty::U32);
        f.blocks.push(BasicBlock {
            id: BlockId(0),
            insts: vec![
                Inst::Special {
                    dst: r0,
                    reg: SpecialReg::TidX,
                },
                Inst::Bin {
                    op: BinOp::Shl,
                    ty: Ty::U32,
                    dst: r1,
                    a: r0.into(),
                    b: Operand::ImmI(7),
                },
            ],
            term: Terminator::Ret,
        });
        let text = print_function(&f);
        assert!(text.contains(".entry mathTest"));
        assert!(text.contains("mov.u32 \t%r0, %tid.x;"));
        assert!(text.contains("shl.u32 \t%r1, %r0, 7;"));
        assert!(text.contains(".shared .align 4 .b8 tile[64];"));
        assert!(text.contains("ret;"));
    }

    #[test]
    fn module_listing_includes_consts_and_functions() {
        let m = Module {
            functions: vec![Function {
                name: "k".into(),
                params: vec![],
                blocks: vec![BasicBlock {
                    id: BlockId(0),
                    insts: vec![],
                    term: Terminator::Ret,
                }],
                vreg_types: vec![],
                shared: vec![],
                local_bytes: 8,
            }],
            consts: vec![ConstDecl {
                name: "filt".into(),
                offset: 0,
                size_bytes: 128,
            }],
            textures: vec![],
        };
        let text = print_module(&m);
        assert!(text.contains(".const .align 4 .b8 filt[128];"));
        assert!(text.contains(".entry k ()"));
        assert!(text.contains(".local .align 4 .b8 __local_depot[8];"));
    }

    #[test]
    fn float_immediates_render_bits() {
        let i = Inst::Mov {
            ty: Ty::F32,
            dst: VReg(0),
            src: Operand::ImmF(1.0),
        };
        let s = print_inst(&i);
        assert!(s.contains("0f3F800000"), "{s}");
    }
}
