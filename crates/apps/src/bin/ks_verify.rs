//! ks-verify: translation validation from the command line.
//!
//! Validates the real compilation pipeline for one kernel — every
//! codegen stage and optimization pass of the Tesla C2070 compile must
//! preserve the kernel's symbolic summary — and checks that the
//! specialized (SK) build is equivalent to the generic (RE) build under
//! its `-D` bindings.
//!
//! ```text
//! ks-verify --kernel template_match --check all
//! ks-verify --kernel piv --check spec --export jsonl
//! ks-verify --source my_kernel.cu -D N=256 -D THREADS=64
//! ks-verify --kernel backproj --mutation-smoke
//! ```
//!
//! Named kernels use their canonical specialization geometry when no
//! `-D` pairs are given. Exits non-zero on any error finding (KSV0xx)
//! or any escaped mutation.

use ks_apps::{backproj, piv, template_match};
use ks_codegen::CodegenOptions;
use ks_core::{Compiler, Defines, ValidationConfig};
use ks_opt::OptConfig;
use ks_sim::DeviceConfig;
use ks_trace::names;
use ks_verify::{check_specialization, mutate, Limits, VerifyReport};

fn usage() -> ! {
    eprintln!(
        "usage: ks-verify [--kernel template_match|piv|backproj | --source FILE]\n\
         \x20               [-D NAME=VALUE ...] [--check pipeline|spec|all]\n\
         \x20               [--export text|jsonl] [--mutation-smoke] [--seed HEX]"
    );
    std::process::exit(2);
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| usage()))
}

/// The `-D NAME=VALUE` pairs, in order; a later one replaces an earlier
/// one of the same name, as in `Defines::def`.
fn arg_defines(args: &[String]) -> Defines {
    let mut out = Defines::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "-D" {
            let kv = args.get(i + 1).cloned().unwrap_or_else(|| usage());
            let Some((k, v)) = kv.split_once('=') else {
                eprintln!("ks-verify: -D expects NAME=VALUE, got {kv:?}");
                usage();
            };
            out = out.def(k, v);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn canonical_defines(kernel: &str) -> Vec<(&'static str, &'static str)> {
    match kernel {
        "template_match" => vec![
            ("TILE_W", "16"),
            ("TILE_H", "16"),
            ("SHIFT_W", "16"),
            ("NUM_TILES", "16"),
            ("TEMPL_W", "64"),
            ("TEMPL_H", "56"),
            ("THREADS", "128"),
        ],
        "piv" => vec![
            ("RB", "4"),
            ("THREADS", "64"),
            ("MASK_W", "16"),
            ("MASK_H", "16"),
            ("OFFS_W", "9"),
        ],
        "backproj" => vec![("PPL", "8"), ("ZB", "4"), ("VOL_N", "32")],
        _ => vec![],
    }
}

fn emit(report: &VerifyReport, jsonl: bool, context: &str) {
    if jsonl {
        for f in &report.findings {
            println!("{}", f.to_json());
        }
    } else {
        for f in &report.findings {
            println!("{f}");
        }
        println!(
            "{context}: {} checks, {} errors, {} warnings, {} block fallbacks",
            report.checks,
            report.error_count(),
            report.warning_count(),
            report.block_fallbacks
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
    }
    let source_path = arg_value(&args, "--source");
    let kernel = arg_value(&args, "--kernel").unwrap_or_else(|| {
        if source_path.is_some() {
            "custom".into()
        } else {
            "template_match".into()
        }
    });
    let source = match &source_path {
        Some(p) => std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("ks-verify: cannot read {p}: {e}");
            std::process::exit(1);
        }),
        None => match kernel.as_str() {
            "template_match" => template_match::KERNELS.to_string(),
            "piv" => piv::KERNELS.to_string(),
            "backproj" => backproj::KERNELS.to_string(),
            other => {
                eprintln!("ks-verify: unknown kernel {other:?}");
                usage();
            }
        },
    };
    let mut defines = arg_defines(&args);
    if defines.is_empty() {
        defines = canonical_defines(&kernel)
            .into_iter()
            .fold(Defines::new(), |d, (k, v)| d.def(k, v));
    }
    let check = arg_value(&args, "--check").unwrap_or_else(|| "all".into());
    if !matches!(check.as_str(), "pipeline" | "spec" | "all") {
        eprintln!("ks-verify: unknown check {check:?}");
        usage();
    }
    let jsonl = match arg_value(&args, "--export").as_deref() {
        None | Some("text") => false,
        Some("jsonl") => true,
        Some(f) => {
            eprintln!("ks-verify: unknown export format {f:?}");
            usage();
        }
    };
    let seed = match arg_value(&args, "--seed") {
        None => 0xC0FFEEu64,
        Some(s) => u64::from_str_radix(s.trim_start_matches("0x"), 16).unwrap_or_else(|_| {
            eprintln!("ks-verify: --seed expects hex, got {s:?}");
            usage();
        }),
    };
    let limits = Limits::default();
    let mut failed = false;

    if args.iter().any(|a| a == "--mutation-smoke") {
        match mutation_smoke(&source, &defines, seed, limits) {
            Ok((caught, total)) => {
                println!("{kernel}: mutation smoke: {caught}/{total} caught");
                if caught != total {
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("ks-verify: {kernel}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        if check == "pipeline" || check == "all" {
            // Validate both the specialized and the generic build, each
            // as the C2070 compiler builds it, with every stage and pass
            // checked. The check counts are the compile's own counters.
            let validated =
                Compiler::new(DeviceConfig::tesla_c2070()).with_validation(ValidationConfig {
                    limits,
                    deny: false,
                });
            let reg = ks_trace::registry();
            let counts = || {
                (
                    reg.counter_value(names::VERIFY_CHECKS) as usize,
                    reg.counter_value(names::VERIFY_BLOCK_FALLBACKS) as usize,
                )
            };
            for (label, defs) in [("sk", &defines), ("re", &Defines::new())] {
                let run = if defs.is_empty() && !defines.is_empty() {
                    format!("{kernel} {label}")
                } else {
                    format!("{kernel} {label} [{}]", render_defs(defs.items()))
                };
                let (checks, fallbacks) = counts();
                match validated.compile(&source, defs) {
                    Ok(bin) => {
                        let (checks_after, fallbacks_after) = counts();
                        let report = VerifyReport {
                            checks: checks_after - checks,
                            block_fallbacks: fallbacks_after - fallbacks,
                            findings: bin.verification.clone(),
                        };
                        failed |= report.error_count() > 0;
                        emit(&report, jsonl, &format!("pipeline {run}"));
                    }
                    Err(e) => {
                        eprintln!("ks-verify: {run}: {}", e.message);
                        std::process::exit(1);
                    }
                }
                if defines.is_empty() {
                    break; // sk == re; validate once
                }
            }
        }
        if (check == "spec" || check == "all") && !defines.is_empty() {
            // RE and SK as the HIR stages leave them, unoptimized.
            let staged = Compiler::with_passes(
                DeviceConfig::tesla_c2070(),
                CodegenOptions::default(),
                OptConfig::none(),
            );
            match (
                staged.compile(&source, Defines::new()),
                staged.compile(&source, &defines),
            ) {
                (Ok(re), Ok(sk)) => {
                    let report = check_specialization(
                        &re.module,
                        &sk.module,
                        &source,
                        defines.items(),
                        limits,
                    );
                    failed |= report.error_count() > 0;
                    emit(&report, jsonl, &format!("spec {kernel}"));
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("ks-verify: {kernel}: {}", e.message);
                    std::process::exit(1);
                }
            }
        }
    }

    std::process::exit(if failed { 1 } else { 0 });
}

fn render_defs(defs: &[(String, String)]) -> String {
    defs.iter()
        .map(|(k, v)| format!("-D {k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Compile the optimized module, seed mutations into every function, and
/// require the opt-step checker to flag each one. Returns (caught, total).
fn mutation_smoke(
    source: &str,
    defines: &Defines,
    seed: u64,
    limits: Limits,
) -> Result<(usize, usize), String> {
    let bin = Compiler::new(DeviceConfig::tesla_c2070())
        .compile(source, defines)
        .map_err(|e| e.message)?;
    let m = &*bin.module;
    let ctx = ks_ir::Module {
        functions: vec![],
        consts: m.consts.clone(),
        textures: m.textures.clone(),
    };
    let mut caught = 0;
    let mut total = 0;
    for f in &m.functions {
        let sites = mutate::enumerate(f);
        for mu in mutate::sample(&sites, seed, 3) {
            let mut bad = f.clone();
            if !mutate::apply(&mut bad, &mu) {
                continue;
            }
            total += 1;
            // The optimizer's own checker: an unsound block acceptance
            // would escape here.
            let report = ks_verify::check_opt_step(f, &bad, &ctx, limits, &mu.desc);
            if report.findings.iter().any(|fi| fi.is_error()) {
                caught += 1;
            } else {
                eprintln!("ks-verify: mutation ESCAPED: {}: {}", f.name, mu.desc);
            }
        }
    }
    Ok((caught, total))
}
