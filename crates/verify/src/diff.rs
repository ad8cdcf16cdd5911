//! Typed comparison of two function summaries, pinpointing the first
//! diverging value or effect.

use crate::expr::{Arena, Expr, ExprId};
use crate::summary::{Effect, FnSummary, PathEnd, PathSummary};
use std::fmt;

/// What diverged first between two summaries (`a` = pre/reference,
/// `b` = post/candidate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffKind {
    /// Control-path sets differ (a path exists on one side only).
    PathCount { a: usize, b: usize },
    /// The `index`-th branch condition of a path differs.
    Cond { path: usize, index: usize },
    /// A path's effect traces differ in length.
    EffectCount { path: usize, a: usize, b: usize },
    /// Effect `index` differs in kind (store vs barrier) or store shape.
    EffectKind { path: usize, index: usize },
    /// Effect `index` stores to different addresses.
    StoreAddr { path: usize, index: usize },
    /// Effect `index` stores different values.
    StoreValue { path: usize, index: usize },
    /// A path ended differently (ret vs truncation depth).
    End { path: usize },
}

/// A translation-validation finding: the first point where two summaries
/// of supposedly equivalent code disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyDiff {
    pub function: String,
    pub kind: DiffKind,
    /// Rendered expressions / context for the diverging point.
    pub detail: String,
}

impl fmt::Display for VerifyDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {:?}: {}", self.function, self.kind, self.detail)
    }
}

/// Result of comparing two summaries.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Equal,
    /// Budgets stopped one side before a verdict was possible; the common
    /// prefix matched.
    Inconclusive(String),
    Diff(VerifyDiff),
}

/// Descend into two differing expressions while exactly one child pair
/// differs, returning the smallest differing subexpression pair. This is
/// what makes `StoreValue` diffs readable when the divergence is buried in
/// a deep accumulation chain.
pub fn narrow(arena: &Arena, mut a: ExprId, mut b: ExprId) -> (ExprId, ExprId) {
    fn children(e: &Expr) -> Vec<ExprId> {
        match e {
            Expr::Bin { a, b, .. } | Expr::Cmp { a, b, .. } => vec![*a, *b],
            Expr::Un { a, .. } | Expr::Cvt { a, .. } => vec![*a],
            Expr::Sel { pred, a, b, .. } => vec![*pred, *a, *b],
            Expr::Load { addr, .. } => vec![*addr],
            Expr::Tex { idx, .. } => vec![*idx],
            Expr::Lin { terms, .. } => terms.iter().map(|&(t, _)| t).collect(),
            _ => vec![],
        }
    }
    loop {
        let (ea, eb) = (arena.get(a), arena.get(b));
        if std::mem::discriminant(ea) != std::mem::discriminant(eb) {
            return (a, b);
        }
        let (ca, cb) = (children(ea), children(eb));
        if ca.len() != cb.len() {
            return (a, b);
        }
        let diffs: Vec<usize> = (0..ca.len()).filter(|&i| ca[i] != cb[i]).collect();
        if diffs.len() != 1 {
            return (a, b);
        }
        a = ca[diffs[0]];
        b = cb[diffs[0]];
    }
}

/// Compare two summaries produced in the same [`Arena`].
///
/// Paths are aligned by their branch-condition sequence, not by discovery
/// order: a transform like loop unrolling turns one fork *site* into many,
/// so the two sides may truncate their exploration at different depths. A
/// path that ended early (fork budget / step budget) on one side is
/// validated against every path extending its condition sequence on the
/// other side — its effect trace must be a prefix of each extension's.
pub fn compare(arena: &Arena, a: &FnSummary, b: &FnSummary) -> Outcome {
    let mut used_a = vec![false; a.paths.len()];
    let mut used_b = vec![false; b.paths.len()];
    let mut partial: Option<String> = None;

    // 1. Exact condition-sequence matches compare strictly.
    for (i, pa) in a.paths.iter().enumerate() {
        let Some(j) = (0..b.paths.len()).find(|&j| !used_b[j] && b.paths[j].conds == pa.conds)
        else {
            continue;
        };
        used_a[i] = true;
        used_b[j] = true;
        match compare_path(arena, &a.function, i, pa, &b.paths[j]) {
            Outcome::Equal => {}
            Outcome::Inconclusive(m) => partial = Some(m),
            diff => return diff,
        }
    }

    // 2. Early-ended paths absorb the other side's extensions.
    for (i, pa) in a.paths.iter().enumerate() {
        if used_a[i] || !ended_early(pa) {
            continue;
        }
        let (matched, outcome) = absorb(arena, &a.function, i, pa, &b.paths, &mut used_b, false);
        match outcome {
            Outcome::Equal => {}
            Outcome::Inconclusive(m) => partial = Some(m),
            diff => return diff,
        }
        if matched {
            used_a[i] = true;
        }
    }
    for (j, pb) in b.paths.iter().enumerate() {
        if used_b[j] || !ended_early(pb) {
            continue;
        }
        let (matched, outcome) = absorb(arena, &a.function, j, pb, &a.paths, &mut used_a, true);
        match outcome {
            Outcome::Equal => {}
            Outcome::Inconclusive(m) => partial = Some(m),
            diff => return diff,
        }
        if matched {
            used_b[j] = true;
        }
    }

    // 3. Leftover paths exist on one side only.
    let leftover_a = used_a.iter().filter(|u| !**u).count();
    let leftover_b = used_b.iter().filter(|u| !**u).count();
    if leftover_a + leftover_b > 0 {
        // Incomplete exploration (or a leftover that itself ended early,
        // whose counterpart the other side never reached) is inconclusive,
        // not a miscompile.
        let early_leftover = used_a
            .iter()
            .enumerate()
            .any(|(i, u)| !*u && ended_early(&a.paths[i]))
            || used_b
                .iter()
                .enumerate()
                .any(|(j, u)| !*u && ended_early(&b.paths[j]));
        if !a.complete || !b.complete || early_leftover {
            return Outcome::Inconclusive(format!(
                "path exploration truncated ({} vs {} paths)",
                a.paths.len(),
                b.paths.len()
            ));
        }
        let detail = used_a
            .iter()
            .position(|u| !*u)
            .map(|i| (&a.paths[i], "pre"))
            .or_else(|| {
                used_b
                    .iter()
                    .position(|u| !*u)
                    .map(|j| (&b.paths[j], "post"))
            })
            .map(|(p, side)| {
                let conds: Vec<String> = p
                    .conds
                    .iter()
                    .map(|(c, taken)| format!("{}={}", arena.render(*c), taken))
                    .collect();
                format!("path only in {side}: [{}]", conds.join(", "))
            })
            .unwrap_or_default();
        return Outcome::Diff(VerifyDiff {
            function: a.function.clone(),
            kind: DiffKind::PathCount {
                a: a.paths.len(),
                b: b.paths.len(),
            },
            detail,
        });
    }
    if a.inconclusive() || b.inconclusive() {
        return Outcome::Inconclusive(
            partial.unwrap_or_else(|| "exploration budget exhausted on some path".into()),
        );
    }
    match partial {
        Some(m) => Outcome::Inconclusive(m),
        None => Outcome::Equal,
    }
}

fn ended_early(p: &PathSummary) -> bool {
    matches!(p.end, PathEnd::Truncated { .. } | PathEnd::StepBudget)
}

/// Validate an early-ended path `p` against every unused path of `others`
/// whose condition sequence extends `p.conds`: the explored effect prefix
/// must agree. Returns whether any extension was found, plus the outcome.
/// `swapped` flips pre/post labels in reported diffs.
fn absorb(
    arena: &Arena,
    function: &str,
    path: usize,
    p: &PathSummary,
    others: &[PathSummary],
    used: &mut [bool],
    swapped: bool,
) -> (bool, Outcome) {
    let mut any = false;
    for (j, q) in others.iter().enumerate() {
        if used[j] || q.conds.len() < p.conds.len() || q.conds[..p.conds.len()] != p.conds[..] {
            continue;
        }
        used[j] = true;
        any = true;
        let n = p.effects.len().min(q.effects.len());
        for i in 0..n {
            let (ea, eb) = if swapped {
                (&q.effects[i], &p.effects[i])
            } else {
                (&p.effects[i], &q.effects[i])
            };
            match compare_effect(arena, function, path, i, ea, eb) {
                Outcome::Equal => {}
                other => return (any, other),
            }
        }
        if q.effects.len() < p.effects.len() && !ended_early(q) {
            let (a_len, b_len) = if swapped {
                (q.effects.len(), p.effects.len())
            } else {
                (p.effects.len(), q.effects.len())
            };
            return (
                any,
                Outcome::Diff(VerifyDiff {
                    function: function.to_string(),
                    kind: DiffKind::EffectCount {
                        path,
                        a: a_len,
                        b: b_len,
                    },
                    detail: "extension path has fewer effects than the truncated prefix".into(),
                }),
            );
        }
    }
    if any {
        (
            true,
            Outcome::Inconclusive(format!(
                "path {path} compared only up to its truncation point"
            )),
        )
    } else {
        (false, Outcome::Equal)
    }
}

/// Compare two paths whose branch-condition sequences already matched.
fn compare_path(
    arena: &Arena,
    function: &str,
    path: usize,
    a: &PathSummary,
    b: &PathSummary,
) -> Outcome {
    // If either side ended early, only the common prefix is comparable.
    let lenient = ended_early(a) || ended_early(b);

    let ne = a.effects.len().min(b.effects.len());
    for i in 0..ne {
        match compare_effect(arena, function, path, i, &a.effects[i], &b.effects[i]) {
            Outcome::Equal => {}
            other => return other,
        }
    }
    if a.effects.len() != b.effects.len() {
        if lenient {
            return Outcome::Inconclusive(format!(
                "path {path} compared only up to its truncation point"
            ));
        }
        return Outcome::Diff(VerifyDiff {
            function: function.to_string(),
            kind: DiffKind::EffectCount {
                path,
                a: a.effects.len(),
                b: b.effects.len(),
            },
            detail: "observable effect traces differ in length".into(),
        });
    }
    if a.end != b.end {
        if lenient {
            return Outcome::Inconclusive(format!(
                "path {path} ended early on one side ({:?} vs {:?})",
                a.end, b.end
            ));
        }
        return Outcome::Diff(VerifyDiff {
            function: function.to_string(),
            kind: DiffKind::End { path },
            detail: format!("pre: {:?}, post: {:?}", a.end, b.end),
        });
    }
    Outcome::Equal
}

/// Compare one effect pair.
fn compare_effect(
    arena: &Arena,
    function: &str,
    path: usize,
    index: usize,
    a: &Effect,
    b: &Effect,
) -> Outcome {
    let diff = |kind: DiffKind, detail: String| {
        Outcome::Diff(VerifyDiff {
            function: function.to_string(),
            kind,
            detail,
        })
    };
    match (a, b) {
        (Effect::Barrier, Effect::Barrier) => Outcome::Equal,
        (
            Effect::Store {
                space: sa,
                ty: ta,
                addr: aa,
                value: va,
            },
            Effect::Store {
                space: sb,
                ty: tb,
                addr: ab,
                value: vb,
            },
        ) => {
            if sa != sb || ta != tb {
                return diff(
                    DiffKind::EffectKind { path, index },
                    format!("pre: st.{sa}.{ta}, post: st.{sb}.{tb}"),
                );
            }
            if aa != ab {
                let (na, nb) = narrow(arena, *aa, *ab);
                return diff(
                    DiffKind::StoreAddr { path, index },
                    format!(
                        "st.{sa} address pre: {}, post: {} (diverging at pre: {}, post: {})",
                        arena.render(*aa),
                        arena.render(*ab),
                        arena.render(na),
                        arena.render(nb)
                    ),
                );
            }
            if va != vb {
                let (na, nb) = narrow(arena, *va, *vb);
                return diff(
                    DiffKind::StoreValue { path, index },
                    format!(
                        "st.{sa}[{}] value diverging at pre: {}, post: {}",
                        arena.render(*aa),
                        arena.render(na),
                        arena.render(nb)
                    ),
                );
            }
            Outcome::Equal
        }
        _ => diff(
            DiffKind::EffectKind { path, index },
            "store vs barrier".into(),
        ),
    }
}
