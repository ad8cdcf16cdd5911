//! The 64-point specialization grid of `ks-ledger`'s `churn` workload
//! (`benchmark/src/grid.rs`), in its canonical order: every build's
//! `-D` set, the thread-block shape its application launches it with,
//! and the run-time arguments of its problem. Tests that walk the grid
//! include this file with `#[path]`; each reads what it needs.
#![allow(dead_code)]

pub const TEMPLATE_MATCH: &str = include_str!("../../crates/apps/src/kernels/template_match.cu");
pub const PIV: &str = include_str!("../../crates/apps/src/kernels/piv.cu");
pub const BACKPROJ: &str = include_str!("../../crates/apps/src/kernels/backproj.cu");

/// The three app sources, by the short name the grid gives them.
pub const APPS: [(&str, &str); 3] = [("tm", TEMPLATE_MATCH), ("piv", PIV), ("bp", BACKPROJ)];

/// A kernel argument's value.
#[derive(Debug, Clone, Copy)]
pub enum Arg {
    Int(u32),
    F32(f32),
}

/// One specialized build of the grid.
pub struct Build {
    /// `tm`, `piv` or `bp`.
    pub app: &'static str,
    pub source: &'static str,
    /// The `-D` set, in command-line order.
    pub defines: Vec<(&'static str, u32)>,
    /// The thread-block shape the application launches it with.
    pub block: (u32, u32, u32),
    /// The kernel arguments of the build's problem.
    pub args: Vec<(&'static str, Arg)>,
}

impl Build {
    /// The `-D` set as name/value strings.
    pub fn define_strings(&self) -> Vec<(String, String)> {
        self.defines
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    }
}

/// The 64 builds, in the ledger's order.
pub fn grid() -> Vec<Build> {
    let mut out = Vec::new();
    // template_match: (templ_w, templ_h) problems, shift_w 8, a 48-wide
    // frame searched over 8 × 4 offsets.
    let mut tm = |templ: (u32, u32), tile: (u32, u32), threads: u32| {
        let tiles = (templ.0 / tile.0) * (templ.1 / tile.1);
        out.push(Build {
            app: "tm",
            source: TEMPLATE_MATCH,
            defines: vec![
                ("TILE_W", tile.0),
                ("TILE_H", tile.1),
                ("SHIFT_W", 8),
                ("NUM_TILES", tiles),
                ("TEMPL_W", templ.0),
                ("TEMPL_H", templ.1),
                ("THREADS", threads),
            ],
            block: (threads, 1, 1),
            args: vec![
                ("frameW", Arg::Int(48)),
                ("numOffsets", Arg::Int(32)),
                ("templW", Arg::Int(templ.0)),
                ("templH", Arg::Int(templ.1)),
                ("tilesX", Arg::Int(templ.0 / tile.0)),
                ("tileX0", Arg::Int(0)),
                ("tileY0", Arg::Int(0)),
                ("tileBase", Arg::Int(0)),
                ("invN", Arg::F32(1.0 / (templ.0 * templ.1) as f32)),
                ("denomA", Arg::F32(1.0)),
            ],
        });
    };
    for tile in [
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
            tm((16, 12), tile, threads);
        }
    }
    for tile in [(4, 4), (8, 4), (6, 8), (8, 8), (12, 8), (24, 4)] {
        tm((24, 16), tile, 64);
    }
    // piv: mask 16 / 32, search radius 2 (OFFS_W 5) around
    // non-overlapping masks.
    for (img, mask, rbs) in [(32, 16, &[1, 2, 4, 8][..]), (48, 32, &[1, 2, 4][..])] {
        for &rb in rbs {
            for threads in [32, 64, 128] {
                out.push(Build {
                    app: "piv",
                    source: PIV,
                    defines: vec![
                        ("RB", rb),
                        ("THREADS", threads),
                        ("MASK_W", mask),
                        ("MASK_H", mask),
                        ("OFFS_W", 5),
                    ],
                    block: (threads, 1, 1),
                    args: vec![
                        ("imgW", Arg::Int(img)),
                        ("numOffsets", Arg::Int(25)),
                        ("masksX", Arg::Int(1)),
                        ("stepX", Arg::Int(mask)),
                        ("stepY", Arg::Int(mask)),
                        ("marginX", Arg::Int(2)),
                        ("marginY", Arg::Int(2)),
                        ("rb", Arg::Int(rb)),
                    ],
                });
            }
        }
    }
    // backproj: (VOL_N, PPL) problems.
    for (n, ppl) in [(12, 1), (12, 2), (12, 4), (12, 8), (8, 2), (8, 4), (8, 8)] {
        for zb in [1, 2, 4] {
            let det = n * 3 / 2;
            out.push(Build {
                app: "bp",
                source: BACKPROJ,
                defines: vec![("PPL", ppl), ("ZB", zb), ("VOL_N", n)],
                block: (8, 8, 1),
                args: vec![
                    ("detU", Arg::Int(det)),
                    ("detV", Arg::Int(det)),
                    ("ppl", Arg::Int(ppl)),
                    ("zb", Arg::Int(zb)),
                    ("z0", Arg::Int(0)),
                    ("sid", Arg::F32(100.0)),
                    ("sdd", Arg::F32(150.0)),
                    ("halfN", Arg::F32(n as f32 / 2.0)),
                    ("halfU", Arg::F32(det as f32 / 2.0)),
                    ("halfV", Arg::F32(det as f32 / 2.0)),
                ],
            });
        }
    }
    assert_eq!(out.len(), 64);
    out
}
