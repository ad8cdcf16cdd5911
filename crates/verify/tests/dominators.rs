//! `ks_ir::cfg`'s one dominator core, forward (`idoms`, which the block
//! check reads) and on the reverse graph (`ipdoms`, which places SIMT
//! reconvergence points), on real control flow: the generic (RE) build
//! of each app kernel and the 64 specializations of the ledger's `churn`
//! grid, each as lowered and as optimized. `golden/dominators.txt` was
//! written, with `cargo test -p ks-verify --test dominators -- --ignored
//! bless`, by the two passes that came before the core: the block
//! check's own forward pass and the old reverse-graph `ipdoms`. It is
//! never re-blessed by a change that keeps the dominator trees.

#[path = "../../../tests/support/churn_grid.rs"]
mod churn_grid;

use ks_ir::cfg::{idoms, ipdoms, Cfg};
use ks_ir::{BlockId, Module};
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dominators.txt");

fn lowered(source: &str, defines: &[(String, String)]) -> Module {
    // The compiler predefines the device's architecture first.
    let mut all = vec![("__CUDA_ARCH__".to_string(), "130".to_string())];
    all.extend(defines.iter().cloned());
    let prog = ks_lang::frontend(source, &all).expect("frontend");
    ks_codegen::compile(&prog, &Default::default()).expect("codegen")
}

/// Block numbers, `-` where there is none.
fn list(tree: &[Option<BlockId>]) -> String {
    let items: Vec<String> = tree
        .iter()
        .map(|d| d.map_or("-".to_string(), |b| b.0.to_string()))
        .collect();
    items.join(",")
}

/// A labelled build: its source and `-D` set.
type Build = (String, &'static str, Vec<(String, String)>);

fn render() -> String {
    let mut builds: Vec<Build> = churn_grid::APPS
        .iter()
        .map(|&(app, source)| (format!("{app} generic"), source, vec![]))
        .collect();
    for b in churn_grid::grid() {
        let label: String = b
            .defines
            .iter()
            .map(|(n, v)| format!("-D{n}={v}"))
            .collect();
        builds.push((format!("{} {label}", b.app), b.source, b.define_strings()));
    }
    let mut out = String::new();
    for (label, source, defines) in builds {
        let mut m = lowered(source, &defines);
        for stage in ["lowered", "optimized"] {
            if stage == "optimized" {
                ks_opt::optimize_module_with(&mut m, &Default::default());
            }
            for f in &m.functions {
                let cfg = Cfg::build(f);
                writeln!(
                    out,
                    "{label} {stage} {}: idom {} ipdom {}",
                    f.name,
                    list(&idoms(&cfg)),
                    list(&ipdoms(f, &cfg))
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn dominator_trees_reproduce_the_two_passes_before_the_core() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden file is checked in");
    let now = render();
    let (mut want, mut got) = (golden.lines(), now.lines());
    loop {
        match (want.next(), got.next()) {
            (None, None) => break,
            (w, g) => assert_eq!(g, w, "a dominator tree moved against the golden"),
        }
    }
}

#[test]
#[ignore = "rewrites tests/golden/dominators.txt; a change that keeps the dominator trees never may"]
fn bless() {
    std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap()).unwrap();
    std::fs::write(GOLDEN_PATH, render()).unwrap();
}
