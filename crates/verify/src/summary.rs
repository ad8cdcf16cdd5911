//! Symbolic evaluation of an IR function into a canonical value-graph
//! summary: for each explored control path, the ordered trace of observable
//! memory effects (global/shared stores and barriers) with canonical
//! symbolic addresses and values, plus the path's branch conditions.
//!
//! The evaluator walks the CFG like the simulator walks instructions, but
//! over [`crate::expr`] expressions instead of concrete words:
//!
//! * kernel parameters evaluate to named symbols (or to constants when an
//!   [`Env`] binds them — that is how RE-vs-SK equivalence evaluates the
//!   generic kernel "under the defines");
//! * thread/block specials are symbolic by default, or concrete samples;
//! * branches on *concrete* predicates are followed without forking (this
//!   mirrors constfold's CondBr→Br simplification), branches on symbolic
//!   predicates fork both ways with a bounded per-site depth — the
//!   "bounded unroll" summary of run-time loops;
//! * loads first try store-to-load forwarding within the current barrier
//!   epoch (matching the CSE pass's invalidation model), then fall back to
//!   an opaque versioned `Load` node;
//! * shared/const addresses are re-expressed relative to the declaration
//!   they fall into, so RE and SK modules whose allocations differ in size
//!   (`THREADS_ALLOC 512` vs `THREADS`) still produce aligned addresses.

use crate::expr::{Arena, ExprId};
use ks_ir::fxhash::FxHashMap;
use ks_ir::{
    Address, BasicBlock, BlockId, Function, Inst, Module, Operand, Space, SpecialReg, Terminator,
    Ty, VReg,
};

/// Evaluation budgets. The defaults comfortably cover the shipped app
/// kernels; raising them trades time for deeper loop summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of control paths explored per function/env.
    pub max_paths: usize,
    /// Maximum executed instructions per path (guards concrete loops).
    pub max_steps: usize,
    /// Maximum forks taken at one branch site along a single path — the
    /// bounded unroll depth for run-time-bound loops.
    pub max_forks_per_site: u32,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_paths: 64,
            max_steps: 400_000,
            max_forks_per_site: 2,
        }
    }
}

/// A bound value for a kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    I(i64),
    F(f32),
}

/// Evaluation environment: optional concrete bindings for named params and
/// special registers. Anything unbound stays symbolic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Env {
    pub params: Vec<(String, Val)>,
    pub specials: Vec<(SpecialReg, i64)>,
    /// Human-readable label used in diagnostics ("tid=(0,0,0) ctaid=(0,0,0)").
    pub label: String,
}

impl Env {
    /// Fully symbolic environment.
    pub fn symbolic() -> Env {
        Env {
            label: "symbolic".into(),
            ..Env::default()
        }
    }

    /// Concrete thread/block sample with everything else symbolic.
    pub fn sample(tid: [i64; 3], ctaid: [i64; 3]) -> Env {
        Env {
            params: vec![],
            specials: vec![
                (SpecialReg::TidX, tid[0]),
                (SpecialReg::TidY, tid[1]),
                (SpecialReg::TidZ, tid[2]),
                (SpecialReg::CtaIdX, ctaid[0]),
                (SpecialReg::CtaIdY, ctaid[1]),
                (SpecialReg::CtaIdZ, ctaid[2]),
            ],
            label: format!(
                "tid=({},{},{}) ctaid=({},{},{})",
                tid[0], tid[1], tid[2], ctaid[0], ctaid[1], ctaid[2]
            ),
        }
    }

    pub fn bind_param(&mut self, name: &str, v: Val) {
        self.params.retain(|(n, _)| n != name);
        self.params.push((name.to_string(), v));
    }

    pub fn bind_special(&mut self, r: SpecialReg, v: i64) {
        self.specials.retain(|(s, _)| *s != r);
        self.specials.push((r, v));
    }

    fn special(&self, r: SpecialReg) -> Option<i64> {
        self.specials.iter().find(|(s, _)| *s == r).map(|(_, v)| *v)
    }

    fn param(&self, name: &str) -> Option<Val> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// One observable effect along a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    Store {
        space: Space,
        ty: Ty,
        addr: ExprId,
        value: ExprId,
    },
    Barrier,
}

/// How a path ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathEnd {
    /// Reached `ret`.
    Ret,
    /// Fork depth exhausted after `forks` symbolic branches: the remainder
    /// of this run-time loop is summarized by its explored prefix. (Keyed
    /// by fork count, not block id, so summaries stay CFG-shape
    /// independent.)
    Truncated { forks: u32 },
    /// Step budget exhausted — the summary is inconclusive on this path.
    StepBudget,
}

/// One explored control path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSummary {
    /// Symbolic branch conditions taken, in order: (predicate expression,
    /// whether the taken edge requires it nonzero).
    pub conds: Vec<(ExprId, bool)>,
    pub effects: Vec<Effect>,
    pub end: PathEnd,
}

/// Canonical summary of one function under one environment.
#[derive(Debug, Clone, PartialEq)]
pub struct FnSummary {
    pub function: String,
    pub paths: Vec<PathSummary>,
    /// False when `max_paths` stopped exploration early (still comparable:
    /// exploration order is deterministic).
    pub complete: bool,
}

impl FnSummary {
    /// True if any path ran out of step budget.
    pub fn inconclusive(&self) -> bool {
        self.paths.iter().any(|p| p.end == PathEnd::StepBudget) || !self.complete
    }
}

#[derive(Clone)]
struct StoreRec {
    addr: ExprId,
    ty: Ty,
    value: ExprId,
    epoch: u32,
}

#[derive(Clone, Default)]
struct SpaceState {
    stores: Vec<StoreRec>,
    /// Version counter: bumped on each store and (for shared/global) each
    /// barrier. Identifies "the memory state this load observed".
    events: u32,
    epoch: u32,
}

#[derive(Clone)]
struct PathState {
    regs: FxHashMap<VReg, ExprId>,
    global: SpaceState,
    shared: SpaceState,
    local: SpaceState,
    conds: Vec<(ExprId, bool)>,
    effects: Vec<Effect>,
    forks_at: FxHashMap<BlockId, u32>,
    steps: usize,
    block: BlockId,
    inst: usize,
}

/// Summarizes functions of one module into a shared [`Arena`].
pub struct Summarizer<'a> {
    pub arena: &'a mut Arena,
    limits: Limits,
}

impl<'a> Summarizer<'a> {
    pub fn new(arena: &'a mut Arena, limits: Limits) -> Self {
        Summarizer { arena, limits }
    }

    /// Summarize `f` (from module `m`, for shared/const/texture naming)
    /// under `env`.
    pub fn summarize(&mut self, f: &Function, m: &Module, env: &Env) -> FnSummary {
        let mut paths = Vec::new();
        let mut complete = true;
        let mut stack = vec![PathState {
            regs: FxHashMap::default(),
            global: SpaceState::default(),
            shared: SpaceState::default(),
            local: SpaceState::default(),
            conds: vec![],
            effects: vec![],
            forks_at: FxHashMap::default(),
            steps: 0,
            block: BlockId(0),
            inst: 0,
        }];
        while let Some(state) = stack.pop() {
            if paths.len() >= self.limits.max_paths {
                complete = false;
                break;
            }
            let path = self.run_path(state, f, m, env, &mut stack);
            paths.push(path);
        }
        FnSummary {
            function: f.name.clone(),
            paths,
            complete,
        }
    }

    /// Execute one path to completion, pushing forked continuations onto
    /// `stack` (else-edge pushed, then-edge explored first: deterministic
    /// DFS order on both sides of every comparison).
    fn run_path(
        &mut self,
        mut st: PathState,
        f: &Function,
        m: &Module,
        env: &Env,
        stack: &mut Vec<PathState>,
    ) -> PathSummary {
        loop {
            let Some(block) = f.blocks.get(st.block.0 as usize) else {
                // Verifier-invalid CFG; end the path.
                return finish(st, PathEnd::Ret);
            };
            if let Some(end) = self.run_block(&mut st, block, f, m, env) {
                return finish(st, end);
            }
            match block.term {
                Terminator::Ret => return finish(st, PathEnd::Ret),
                Terminator::Br { target } => {
                    st.block = target;
                    st.inst = 0;
                }
                Terminator::CondBr {
                    pred,
                    negate,
                    then_t,
                    else_t,
                } => {
                    let p = self.reg(&mut st, pred);
                    if let Some(bits) = self.arena.as_const(p) {
                        let taken = (bits != 0) ^ negate;
                        st.block = if taken { then_t } else { else_t };
                        st.inst = 0;
                    } else {
                        let site = st.block;
                        let depth = st.forks_at.entry(site).or_insert(0);
                        if *depth >= self.limits.max_forks_per_site {
                            let forks = st.conds.len() as u32;
                            return finish(st, PathEnd::Truncated { forks });
                        }
                        *depth += 1;
                        // Fork: queue the else edge, continue on then.
                        let mut other = st.clone();
                        other.conds.push((p, negate));
                        other.block = else_t;
                        other.inst = 0;
                        stack.push(other);
                        st.conds.push((p, !negate));
                        st.block = then_t;
                        st.inst = 0;
                    }
                }
            }
        }
    }

    /// Run the instructions of `block`; `Some(end)` if the path terminated
    /// inside the block (budget).
    fn run_block(
        &mut self,
        st: &mut PathState,
        block: &BasicBlock,
        f: &Function,
        m: &Module,
        env: &Env,
    ) -> Option<PathEnd> {
        // st.inst is nonzero only when resuming a forked state mid-block
        // (never happens today: forks occur at terminators) — kept for
        // clarity.
        for i in &block.insts[st.inst..] {
            st.steps += 1;
            if st.steps > self.limits.max_steps {
                return Some(PathEnd::StepBudget);
            }
            self.step(st, i, f, m, env);
        }
        st.inst = 0;
        None
    }

    fn reg(&mut self, st: &mut PathState, r: VReg) -> ExprId {
        match st.regs.get(&r) {
            Some(&e) => e,
            None => self.arena.undef(r.0),
        }
    }

    fn operand(&mut self, st: &mut PathState, o: &Operand, ty: Ty) -> ExprId {
        match o {
            Operand::Reg(r) => self.reg(st, *r),
            Operand::ImmI(v) => self.arena.cint(ty, *v),
            Operand::ImmF(v) => self.arena.cf32(*v),
        }
    }

    fn step(&mut self, st: &mut PathState, i: &Inst, f: &Function, m: &Module, env: &Env) {
        match i {
            Inst::Mov { ty, dst, src } => {
                let v = self.operand(st, src, *ty);
                self.define(st, *dst, v);
            }
            Inst::Bin { op, ty, dst, a, b } => {
                let ea = self.operand(st, a, *ty);
                let eb = self.operand(st, b, *ty);
                let v = self.arena.bin(*op, *ty, ea, eb);
                self.define(st, *dst, v);
            }
            Inst::Un { op, ty, dst, a } => {
                let ea = self.operand(st, a, *ty);
                let v = self.arena.un(*op, *ty, ea);
                self.define(st, *dst, v);
            }
            Inst::Mad { ty, dst, a, b, c } => {
                let ea = self.operand(st, a, *ty);
                let eb = self.operand(st, b, *ty);
                let ec = self.operand(st, c, *ty);
                let mul = self.arena.bin(ks_ir::BinOp::Mul, *ty, ea, eb);
                let v = self.arena.bin(ks_ir::BinOp::Add, *ty, mul, ec);
                self.define(st, *dst, v);
            }
            Inst::Setp { cmp, ty, dst, a, b } => {
                let ea = self.operand(st, a, *ty);
                let eb = self.operand(st, b, *ty);
                let v = self.arena.cmp(*cmp, *ty, ea, eb);
                self.define(st, *dst, v);
            }
            Inst::Selp {
                ty,
                dst,
                a,
                b,
                pred,
            } => {
                let ea = self.operand(st, a, *ty);
                let eb = self.operand(st, b, *ty);
                let p = self.reg(st, *pred);
                let v = self.arena.sel(*ty, p, ea, eb);
                self.define(st, *dst, v);
            }
            Inst::Cvt {
                dst_ty,
                src_ty,
                dst,
                src,
            } => {
                let e = self.operand(st, src, *src_ty);
                let v = self.arena.cvt(*dst_ty, *src_ty, e);
                self.define(st, *dst, v);
            }
            Inst::Special { dst, reg } => {
                let v = match env.special(*reg) {
                    Some(c) => self.arena.cint(Ty::U32, c),
                    None => self.arena.special(*reg),
                };
                self.define(st, *dst, v);
            }
            Inst::Ld {
                space,
                ty,
                dst,
                addr,
            } => {
                let v = self.load(st, *space, *ty, addr, f, m, env);
                self.define(st, *dst, v);
            }
            Inst::St {
                space,
                ty,
                addr,
                src,
            } => {
                let a = self.resolve_addr(st, addr, *space, f, m);
                let v = self.operand(st, src, *ty);
                if let Some(ss) = space_state(st, *space) {
                    ss.events += 1;
                    let epoch = ss.epoch;
                    ss.stores.push(StoreRec {
                        addr: a,
                        ty: *ty,
                        value: v,
                        epoch,
                    });
                }
                if matches!(space, Space::Global | Space::Shared) {
                    st.effects.push(Effect::Store {
                        space: *space,
                        ty: *ty,
                        addr: a,
                        value: v,
                    });
                }
            }
            Inst::Bar => {
                // A barrier publishes other threads' shared and global
                // writes: close the forwarding epoch (local memory is
                // private and unaffected).
                for space in [Space::Global, Space::Shared] {
                    if let Some(ss) = space_state(st, space) {
                        ss.events += 1;
                        ss.epoch += 1;
                    }
                }
                st.effects.push(Effect::Barrier);
            }
            Inst::Tex { ty, dst, tex, idx } => {
                let e = self.operand(st, idx, Ty::S32);
                let name = m
                    .textures
                    .get(*tex as usize)
                    .map(String::as_str)
                    .unwrap_or("<tex>");
                let sym = self.arena.symbol(name);
                // Texture fetches read global memory coherently in the
                // simulator: version them with the global event counter.
                let version = st.global.events;
                let v = self.arena.intern(crate::expr::Expr::Tex {
                    tex: sym,
                    ty: *ty,
                    idx: e,
                    version,
                });
                self.define(st, *dst, v);
            }
        }
    }

    fn define(&mut self, st: &mut PathState, dst: VReg, v: ExprId) {
        st.regs.insert(dst, v);
    }

    /// Resolve an address operand to a normalized expression.
    fn resolve_addr(
        &mut self,
        st: &mut PathState,
        addr: &Address,
        space: Space,
        f: &Function,
        m: &Module,
    ) -> ExprId {
        let raw = match addr.base {
            Some(base) => {
                let base_ty = f
                    .vreg_types
                    .get(base.0 as usize)
                    .copied()
                    .unwrap_or(Ty::Ptr(space));
                let b = self.reg(st, base);
                self.arena.addr_offset(b, base_ty, addr.offset)
            }
            None => self.arena.cint(Ty::Ptr(space), addr.offset),
        };
        self.normalize_space_addr(raw, space, f, m)
    }

    /// Rebase shared/const/local addresses onto their declarations so RE
    /// and SK layouts align.
    fn normalize_space_addr(
        &mut self,
        raw: ExprId,
        space: Space,
        f: &Function,
        m: &Module,
    ) -> ExprId {
        use crate::expr::{Expr, Width};
        // Extract the constant displacement of the expression (Lin konst /
        // plain const), leaving the symbolic remainder untouched.
        type Rebuild = Option<(Width, Vec<(ExprId, u64)>)>;
        let (disp, rebuild): (i64, Rebuild) = match self.arena.get(raw) {
            Expr::ConstI { w, bits } => {
                let v = match w {
                    Width::W32 => *bits as u32 as i64,
                    Width::W64 => *bits as i64,
                };
                (v, Some((*w, vec![])))
            }
            Expr::Lin { w, terms, k } => {
                let v = match w {
                    Width::W32 => *k as u32 as i64,
                    Width::W64 => *k as i64,
                };
                (v, Some((*w, terms.to_vec())))
            }
            _ => (0, None),
        };
        let decl: Option<(&str, i64)> = match space {
            Space::Shared => f
                .shared
                .iter()
                .find(|d| disp >= d.offset as i64 && disp < (d.offset + d.size_bytes) as i64)
                .map(|d| (d.name.as_str(), d.offset as i64)),
            Space::Const => m
                .consts
                .iter()
                .find(|d| disp >= d.offset as i64 && disp < (d.offset + d.size_bytes) as i64)
                .map(|d| (d.name.as_str(), d.offset as i64)),
            _ => None,
        };
        match (decl, rebuild) {
            (Some((name, base_off)), Some((_, mut terms))) => {
                let base = self.arena.base(space, name);
                terms.push((base, 1));
                // The rebased form is always a 32-bit linear combination
                // (shared/const windows are small), so RE and SK sides that
                // computed the raw address in different integer widths
                // still canonicalize identically.
                let k = (disp - base_off) as u64;
                self.arena.lin_with(Width::W32, terms, k)
            }
            _ => raw,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn load(
        &mut self,
        st: &mut PathState,
        space: Space,
        ty: Ty,
        addr: &Address,
        f: &Function,
        m: &Module,
        env: &Env,
    ) -> ExprId {
        if space == Space::Param {
            // Param loads resolve to the named parameter (bound or
            // symbolic); lowering always uses absolute offsets here.
            if addr.base.is_none() {
                if let Some(p) = f.params.iter().find(|p| p.offset as i64 == addr.offset) {
                    return match env.param(&p.name) {
                        Some(Val::I(v)) => self.arena.cint(p.ty, v),
                        Some(Val::F(v)) => self.arena.cf32(v),
                        None => self.arena.param(&p.name),
                    };
                }
            }
            let a = self.resolve_addr(st, addr, space, f, m);
            return self.arena.intern(crate::expr::Expr::Load {
                space,
                ty,
                addr: a,
                version: 0,
            });
        }
        let a = self.resolve_addr(st, addr, space, f, m);
        let (forwardable, version) = match space_state(st, space) {
            Some(ss) => {
                // Scan newest→oldest within the current epoch.
                let mut fwd = None;
                for rec in ss.stores.iter().rev() {
                    if rec.epoch != ss.epoch && matches!(space, Space::Shared | Space::Global) {
                        break; // barrier boundary: other threads' writes intervene
                    }
                    if rec.addr == a && rec.ty == ty {
                        fwd = Some(rec.value);
                        break;
                    }
                    if !self.disjoint(rec.addr, a, rec.ty, ty) {
                        break; // may alias: stop forwarding
                    }
                }
                (fwd, ss.events)
            }
            None => (None, 0),
        };
        if let Some(v) = forwardable {
            return v;
        }
        self.arena.intern(crate::expr::Expr::Load {
            space,
            ty,
            addr: a,
            version,
        })
    }

    /// Conservative disjointness: provable only when the symbolic parts
    /// match and the constant displacements are far enough apart, or the
    /// addresses are anchored at different declarations.
    fn disjoint(&self, a: ExprId, b: ExprId, ty_a: Ty, ty_b: Ty) -> bool {
        use crate::expr::{Expr, Width};
        if a == b {
            return false;
        }
        fn parts(arena: &Arena, id: ExprId) -> (Vec<(ExprId, u64)>, i64) {
            match arena.get(id) {
                Expr::ConstI { w, bits } => {
                    let v = match w {
                        Width::W32 => *bits as u32 as i64,
                        Width::W64 => *bits as i64,
                    };
                    (vec![], v)
                }
                Expr::Lin { w, terms, k } => {
                    let v = match w {
                        Width::W32 => *k as u32 as i64,
                        Width::W64 => *k as i64,
                    };
                    (terms.to_vec(), v)
                }
                _ => (vec![(id, 1)], 0),
            }
        }
        let (ta, ka) = parts(self.arena, a);
        let (tb, kb) = parts(self.arena, b);
        if ta == tb {
            let (lo, hi, lo_sz) = if ka <= kb {
                (ka, kb, ty_a.size_bytes() as i64)
            } else {
                (kb, ka, ty_b.size_bytes() as i64)
            };
            return lo + lo_sz <= hi;
        }
        // Different declaration anchors ⇒ different windows (assumes
        // in-bounds indexing, which KSA bounds lints check separately).
        let anchor = |terms: &[(ExprId, u64)]| -> Option<(Space, crate::expr::Symbol)> {
            terms.iter().find_map(|&(t, _)| match self.arena.get(t) {
                Expr::Base(space, s) => Some((*space, *s)),
                _ => None,
            })
        };
        if let (Some(aa), Some(ab)) = (anchor(&ta), anchor(&tb)) {
            if aa != ab {
                return true;
            }
        }
        false
    }
}

fn finish(st: PathState, end: PathEnd) -> PathSummary {
    PathSummary {
        conds: st.conds,
        effects: st.effects,
        end,
    }
}

fn space_state(st: &mut PathState, space: Space) -> Option<&mut SpaceState> {
    match space {
        Space::Global => Some(&mut st.global),
        Space::Shared => Some(&mut st.shared),
        Space::Local => Some(&mut st.local),
        _ => None,
    }
}
