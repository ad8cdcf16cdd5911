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
//!
//! The same instruction semantics also run one block at a time, straight
//! through from a given register file (`Summarizer::run_straight`):
//! that is what the block check of optimizer steps compares.

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
    regs: Regs,
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

impl PathState {
    /// A state at the entry block with registers `regs` and no store,
    /// barrier, branch or step taken yet.
    fn entry(regs: Regs) -> PathState {
        PathState {
            regs,
            global: SpaceState::default(),
            shared: SpaceState::default(),
            local: SpaceState::default(),
            conds: vec![],
            effects: vec![],
            forks_at: FxHashMap::default(),
            steps: 0,
            block: BlockId(0),
            inst: 0,
        }
    }
}

/// One straight-line run of instructions evaluated from a symbolic entry
/// state ([`Summarizer::run_straight`]).
pub(crate) struct StraightRun {
    /// Register values at the end; a register the run neither received
    /// nor defined reads as its entry leaf `Undef(r)`.
    pub regs: Regs,
    /// Global/shared stores and barriers, in order.
    pub effects: Vec<Effect>,
    /// Local-memory stores (address, type, value), in order. Not
    /// observable at a path's end, but a later block may load them.
    pub local: Vec<(ExprId, Ty, ExprId)>,
    /// What each instruction produced, in order.
    produced: Vec<Produced>,
}

impl StraightRun {
    fn from(st: PathState, produced: Vec<Produced>) -> StraightRun {
        StraightRun {
            regs: st.regs,
            effects: st.effects,
            local: st
                .local
                .stores
                .iter()
                .map(|s| (s.addr, s.ty, s.value))
                .collect(),
            produced,
        }
    }
}

/// A register file: what each register holds, by register number.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Regs(Vec<ExprId>);

/// The slot of a register nothing wrote: it reads as its `Undef` leaf.
const UNSET: ExprId = ExprId(u32::MAX);

impl Regs {
    pub fn get(&self, r: VReg) -> Option<ExprId> {
        self.0.get(r.0 as usize).copied().filter(|&e| e != UNSET)
    }

    pub fn set(&mut self, r: VReg, e: ExprId) {
        let i = r.0 as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, UNSET);
        }
        self.0[i] = e;
    }

    pub fn unset(&mut self, r: VReg) {
        if let Some(e) = self.0.get_mut(r.0 as usize) {
            *e = UNSET;
        }
    }
}

/// A set of registers.
#[derive(Default)]
struct RegSet(Vec<u64>);

impl RegSet {
    fn insert(&mut self, r: VReg) {
        let w = r.0 as usize / 64;
        if w >= self.0.len() {
            self.0.resize(w + 1, 0);
        }
        self.0[w] |= 1 << (r.0 % 64);
    }

    fn remove(&mut self, r: VReg) {
        if let Some(w) = self.0.get_mut(r.0 as usize / 64) {
            *w &= !(1 << (r.0 % 64));
        }
    }

    fn contains(&self, r: VReg) -> bool {
        self.0
            .get(r.0 as usize / 64)
            .is_some_and(|w| w & (1 << (r.0 % 64)) != 0)
    }
}

/// What one instruction of a straight-line run produced.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Produced {
    /// The value it defined.
    Value(ExprId),
    /// The address and value it stored.
    Stored(ExprId, ExprId),
    Nothing,
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
        let mut stack = vec![PathState::entry(Regs::default())];
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

    /// What `def` writes to its destination when the registers it reads
    /// hold what `regs` holds (fully symbolic environment, memory
    /// unknown). `regs` comes back as it went in, but for the destination.
    pub(crate) fn value_of(
        &mut self,
        def: &Inst,
        f: &Function,
        m: &Module,
        regs: &mut Regs,
    ) -> Option<ExprId> {
        let mut st = PathState::entry(std::mem::take(regs));
        self.step(&mut st, def, f, m, &Env::default());
        *regs = st.regs;
        regs.get(def.def()?)
    }

    /// Evaluate `insts` once, in order, under the fully symbolic
    /// environment: registers start at `regs` (else at their `Undef`
    /// leaf), memory starts unknown, loads forward from this run's own
    /// stores only. No budget applies: a straight line always finishes.
    ///
    /// `prior` is another block's instructions and their run from the
    /// same `regs` — the same block before a transform that replaced or
    /// deleted some of its instructions. An instruction identical to its
    /// counterpart there, reading registers that hold the same values on
    /// both sides (and, if it touches memory, with every earlier memory
    /// event matched pairwise), produces what its counterpart produced:
    /// that result is taken, not evaluated again.
    pub(crate) fn run_straight(
        &mut self,
        insts: &[Inst],
        f: &Function,
        m: &Module,
        regs: &Regs,
        prior: Option<(&[Inst], &StraightRun)>,
    ) -> StraightRun {
        let env = Env::default();
        let mut st = PathState::entry(regs.clone());
        let mut produced = Vec::with_capacity(insts.len());
        let Some((pi, pr)) = prior else {
            for i in insts {
                self.step(&mut st, i, f, m, &env);
                produced.push(produced_by(&mut st, i));
            }
            return StraightRun::from(st, produced);
        };
        // `j`: the counterpart of the next instruction in `pi`. `dirty`
        // holds every register whose value here may differ from the
        // prior run's at the counterpart; `same_memory`, whether memory
        // can.
        let (mut j, mut dirty, mut same_memory) = (0, RegSet::default(), true);
        for (n, i) in insts.iter().enumerate() {
            // Instructions the prior run has beyond this one's count were
            // deleted: step past any that do not match.
            while pi.len() - j > insts.len() - n && pi[j] != *i {
                same_memory &= !writes_memory(&pi[j]);
                if let Some(d) = pi[j].def() {
                    dirty.insert(d);
                }
                j += 1;
            }
            let counterpart = pi.get(j).map(|p| (p, pr.produced[j]));
            let reused = counterpart.filter(|(p, _)| {
                *p == i && (same_memory || !touches_memory(i)) && {
                    let mut clean = true;
                    i.for_each_use(|u| clean &= !dirty.contains(u));
                    clean
                }
            });
            let out = match reused {
                Some((_, out)) => {
                    apply(&mut st, i, out);
                    out
                }
                None => {
                    self.step(&mut st, i, f, m, &env);
                    produced_by(&mut st, i)
                }
            };
            let Some((p, prior_out)) = counterpart else {
                same_memory &= !writes_memory(i);
                if let Some(d) = i.def() {
                    dirty.insert(d);
                }
                produced.push(out);
                continue;
            };
            if writes_memory(p) || writes_memory(i) {
                same_memory &= match (p, i) {
                    (
                        Inst::St { space, ty, .. },
                        Inst::St {
                            space: s2, ty: t2, ..
                        },
                    ) => (space, ty) == (s2, t2) && prior_out == out,
                    (Inst::Bar, Inst::Bar) => true,
                    _ => false,
                };
            }
            match (p.def(), i.def()) {
                (Some(a), Some(b)) if a == b && prior_out == out => dirty.remove(a),
                (a, b) => {
                    a.into_iter().chain(b).for_each(|r| dirty.insert(r));
                }
            }
            j += 1;
            produced.push(out);
        }
        StraightRun::from(st, produced)
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
        match st.regs.get(r) {
            Some(e) => e,
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
                store(st, *space, *ty, a, v);
            }
            Inst::Bar => barrier(st),
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
        st.regs.set(dst, v);
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
        if !matches!(space, Space::Shared | Space::Const) {
            return raw;
        }
        // The constant displacement of the expression (Lin konst / plain
        // const); anything else has none to rebase.
        let disp = match self.arena.get(raw) {
            Expr::ConstI { w, bits: k } | Expr::Lin { w, k, .. } => match w {
                Width::W32 => *k as u32 as i64,
                Width::W64 => *k as i64,
            },
            _ => return raw,
        };
        let within =
            |offset: u32, size: u32| disp >= offset as i64 && disp < (offset + size) as i64;
        let decl = match space {
            Space::Shared => f
                .shared
                .iter()
                .find(|d| within(d.offset, d.size_bytes))
                .map(|d| (d.name.as_str(), d.offset as i64)),
            _ => m
                .consts
                .iter()
                .find(|d| within(d.offset, d.size_bytes))
                .map(|d| (d.name.as_str(), d.offset as i64)),
        };
        let Some((name, base_off)) = decl else {
            return raw;
        };
        // The symbolic remainder keeps its terms.
        let mut terms = match self.arena.get(raw) {
            Expr::Lin { terms, .. } => terms.to_vec(),
            _ => vec![],
        };
        let base = self.arena.base(space, name);
        terms.push((base, 1));
        // The rebased form is always a 32-bit linear combination
        // (shared/const windows are small), so RE and SK sides that
        // computed the raw address in different integer widths still
        // canonicalize identically.
        let k = (disp - base_off) as u64;
        self.arena.lin_with(Width::W32, terms, k)
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
        /// The symbolic terms and the constant displacement of `one`'s
        /// expression (which is its own single term if not linear).
        fn parts<'a>(arena: &'a Arena, one: &'a [(ExprId, u64); 1]) -> (&'a [(ExprId, u64)], i64) {
            let signed = |w: &Width, k: u64| match w {
                Width::W32 => k as u32 as i64,
                Width::W64 => k as i64,
            };
            match arena.get(one[0].0) {
                Expr::ConstI { w, bits } => (&[], signed(w, *bits)),
                Expr::Lin { w, terms, k } => (terms, signed(w, *k)),
                _ => (one, 0),
            }
        }
        let (one_a, one_b) = ([(a, 1)], [(b, 1)]);
        let (ta, ka) = parts(self.arena, &one_a);
        let (tb, kb) = parts(self.arena, &one_b);
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
        if let (Some(aa), Some(ab)) = (anchor(ta), anchor(tb)) {
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

fn store(st: &mut PathState, space: Space, ty: Ty, addr: ExprId, value: ExprId) {
    if let Some(ss) = space_state(st, space) {
        ss.events += 1;
        let epoch = ss.epoch;
        ss.stores.push(StoreRec {
            addr,
            ty,
            value,
            epoch,
        });
    }
    if matches!(space, Space::Global | Space::Shared) {
        st.effects.push(Effect::Store {
            space,
            ty,
            addr,
            value,
        });
    }
}

/// A barrier publishes other threads' shared and global writes: close
/// the forwarding epoch (local memory is private and unaffected).
fn barrier(st: &mut PathState) {
    for space in [Space::Global, Space::Shared] {
        if let Some(ss) = space_state(st, space) {
            ss.events += 1;
            ss.epoch += 1;
        }
    }
    st.effects.push(Effect::Barrier);
}

/// What `i`, just stepped, produced.
fn produced_by(st: &mut PathState, i: &Inst) -> Produced {
    if let Inst::St { space, .. } = i {
        return match space_state(st, *space).and_then(|ss| ss.stores.last()) {
            Some(rec) => Produced::Stored(rec.addr, rec.value),
            None => Produced::Nothing,
        };
    }
    match i.def().and_then(|d| st.regs.get(d)) {
        Some(v) => Produced::Value(v),
        None => Produced::Nothing,
    }
}

/// Step `i` by taking `out`, what it produced on an equal state.
fn apply(st: &mut PathState, i: &Inst, out: Produced) {
    match (i, out) {
        (Inst::St { space, ty, .. }, Produced::Stored(a, v)) => store(st, *space, *ty, a, v),
        (Inst::Bar, _) => barrier(st),
        (_, Produced::Value(v)) => {
            if let Some(d) = i.def() {
                st.regs.set(d, v);
            }
        }
        _ => {}
    }
}

/// `i` changes the memory state a later load sees.
fn writes_memory(i: &Inst) -> bool {
    matches!(i, Inst::St { .. } | Inst::Bar)
}

/// `i` reads or changes the memory state (param and const memory never
/// change).
fn touches_memory(i: &Inst) -> bool {
    match i {
        Inst::Ld { space, .. } => !matches!(space, Space::Param | Space::Const),
        Inst::Tex { .. } => true,
        _ => writes_memory(i),
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
