//! The specialization grid `churn` compiles and `restart` reloads: 64
//! SK variants over eleven small problems (template_match
//! TILE_W×TILE_H×THREADS, piv RB×THREADS×MASK, backproj PPL×ZB×VOL_N).
//! The grid is fixed — the seed only orders visits — so every lap of
//! either workload handles the same variants and exact counts repeat
//! across seeds.
//!
//! Problems are small (a round simulates 1–20 k warp-instructions) so a
//! cold compile, not the launch, is what an operation costs; compile
//! cost spans 1 ms … 130 ms because `ks-opt`'s fixpoint is superlinear
//! in the unrolled instruction count.

use crate::apps::{Impl, Problem};
use ks_apps::backproj::BackprojProblem;
use ks_apps::piv::PivProblem;
use ks_apps::template_match::MatchProblem;

/// One grid point: a problem (index into [`problems`]) and the
/// implementation parameters to specialize it for.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    pub problem: usize,
    pub imp: Impl,
}

fn tm(templ_w: usize, templ_h: usize) -> Problem {
    Problem::Tm(MatchProblem {
        frame_w: 48,
        frame_h: 32,
        templ_w,
        templ_h,
        shift_w: 8,
        shift_h: 4,
        frames: 1,
    })
}

fn bp(n: usize, num_proj: usize) -> Problem {
    Problem::Bp(BackprojProblem {
        n,
        num_proj,
        det_u: n * 3 / 2,
        det_v: n * 3 / 2,
    })
}

pub fn problems() -> Vec<Problem> {
    vec![
        tm(16, 12),
        tm(24, 16),
        Problem::Piv(PivProblem::standard(32, 16, 0, 2)),
        Problem::Piv(PivProblem::standard(48, 32, 0, 2)),
        bp(12, 1),
        bp(12, 2),
        bp(12, 4),
        bp(12, 8),
        bp(8, 2),
        bp(8, 4),
        bp(8, 8),
    ]
}

/// The 64 variants in canonical order.
pub fn variants() -> Vec<Variant> {
    let mut out = Vec::new();
    let mut push = |problem: usize, imp: Impl| out.push(Variant { problem, imp });
    for (tile_w, tile_h) in [
        (4, 3),
        (4, 4),
        (8, 4),
        (8, 6),
        (16, 4),
        (16, 6),
        (8, 12),
        (16, 12),
    ] {
        for threads in [32, 64] {
            push(
                0,
                Impl::Tm {
                    tile_w,
                    tile_h,
                    threads,
                },
            );
        }
    }
    for (tile_w, tile_h) in [(4, 4), (8, 4), (6, 8), (8, 8), (12, 8), (24, 4)] {
        push(
            1,
            Impl::Tm {
                tile_w,
                tile_h,
                threads: 64,
            },
        );
    }
    for (problem, rbs) in [(2, &[1, 2, 4, 8][..]), (3, &[1, 2, 4][..])] {
        for &rb in rbs {
            for threads in [32, 64, 128] {
                push(problem, Impl::Piv { rb, threads });
            }
        }
    }
    for problem in 4..11 {
        for zb in [1, 2, 4] {
            push(problem, Impl::Bp { zb });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_64_distinct_valid_variants() {
        let problems = problems();
        let variants = variants();
        assert_eq!(variants.len(), 64);
        let mut lines: Vec<String> = variants
            .iter()
            .map(|v| crate::apps::defines(&problems[v.problem], v.imp).command_line())
            .collect();
        lines.sort();
        lines.dedup();
        assert_eq!(lines.len(), 64, "every variant is a distinct -D set");
    }
}
