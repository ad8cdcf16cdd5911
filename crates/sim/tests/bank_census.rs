//! The shipped app kernels keep to the row kernels of the two-bank
//! register file: decoded as a launch decodes them, no op reads its
//! operands from banks its kind does not read, so none runs lane by lane
//! through the mixed-width path.
//!
//! Each kernel source is compiled the way the apps compile it — run-time
//! evaluated (no defines) and specialized under `ci.sh`'s `ks-lint` define
//! sets — then optimized, and every kernel of the module is decoded.

use ks_sim::LaunchPlan;

const TEMPLATE_MATCH: &str = include_str!("../../apps/src/kernels/template_match.cu");
const PIV: &str = include_str!("../../apps/src/kernels/piv.cu");
const BACKPROJ: &str = include_str!("../../apps/src/kernels/backproj.cu");

/// A source's defines: name and value.
type Defines = &'static [(&'static str, u32)];

/// Each source with its specialized define set (`ci.sh`'s `ks-lint` runs).
fn builds() -> [(&'static str, &'static str, Defines); 3] {
    [
        (
            "piv",
            PIV,
            &[
                ("RB", 4),
                ("THREADS", 64),
                ("MASK_W", 16),
                ("MASK_H", 16),
                ("OFFS_W", 9),
            ],
        ),
        (
            "template_match",
            TEMPLATE_MATCH,
            &[
                ("TILE_W", 16),
                ("TILE_H", 16),
                ("SHIFT_W", 16),
                ("NUM_TILES", 16),
                ("TEMPL_W", 64),
                ("TEMPL_H", 56),
                ("THREADS", 128),
            ],
        ),
        (
            "backproj",
            BACKPROJ,
            &[("PPL", 8), ("ZB", 4), ("VOL_N", 32)],
        ),
    ]
}

fn compile(source: &str, defines: &[(&str, u32)]) -> ks_ir::Module {
    let mut all = vec![("__CUDA_ARCH__".to_string(), "200".to_string())];
    all.extend(defines.iter().map(|(n, v)| (n.to_string(), v.to_string())));
    let program = ks_lang::frontend(source, &all).expect("frontend");
    let mut m = ks_codegen::compile(&program, &Default::default()).expect("codegen");
    ks_opt::optimize_module(&mut m);
    m
}

#[test]
fn shipped_kernels_never_take_the_mixed_width_path() {
    let mut kernels = 0;
    for (app, source, sk) in builds() {
        for (variant, defines) in [("RE", &[][..]), ("SK", sk)] {
            let m = compile(source, defines);
            for f in &m.functions {
                let census = LaunchPlan::from_function(f).bank_census();
                eprintln!("{app} {variant} {}: {census:?}", f.name);
                assert_eq!(census.mixed, 0, "{app} {variant} {}: {census:?}", f.name);
                // Most registers hold 32 bits.
                assert!(census.regs32 > census.regs64, "{app} {variant} {}", f.name);
                kernels += 1;
            }
        }
    }
    assert!(kernels >= 6, "{kernels} kernels decoded");
}
