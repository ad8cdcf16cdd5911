//! `ks-lint` — compile a kernel source and run the KSA analysis suite.
//!
//! ```text
//! cargo run -p ks-apps --bin ks-lint -- kernel.cu -D N=64 --block 64
//! ```
//!
//! The kernel is compiled by `ks_core::Compiler` for the chosen device,
//! so the module analyzed is the one that device would run.
//!
//! Exit status: 0 when no deny-level diagnostics fired, 1 when at least
//! one did, 2 on usage or compile errors.

use ks_analysis::{analyze_module, AnalysisConfig, LintCode, ParamValue, Severity};
use ks_core::{Compiler, Defines};
use ks_sim::device::DeviceConfig;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ks-lint [options] <kernel.cu>

options:
  -D NAME[=VALUE]     preprocessor define (like nvcc -D); repeatable
  -A NAME=VALUE       assume a value for a run-time kernel parameter
                      (integer, 0x-hex pointer, or float); repeatable
  --block X[,Y[,Z]]   thread-block shape; enables the abstract executor
  --grid X[,Y[,Z]]    grid shape (default 1,1,1)
  --block-idx X,Y,Z   which block the executor analyzes (default 0,0,0)
  --shared BYTES      dynamic shared memory appended at launch
  --device NAME       tesla_c1060 | tesla_c2070 (default tesla_c2070)
  --max-steps N       abstract-execution instruction budget
  --allow KSA00x      suppress a lint; repeatable
  --warn KSA00x       demote a lint to a warning; repeatable
  --deny KSA00x       promote a lint to an error; repeatable
  --kernel NAME       analyze only the named kernel
  -v, --verbose       also print per-kernel memory predictions
  -h, --help          this text
";

struct Args {
    source_path: String,
    defines: Vec<(String, String)>,
    cfg: AnalysisConfig,
    device: DeviceConfig,
    kernel: Option<String>,
    verbose: bool,
}

fn parse_dims(s: &str) -> Result<(u32, u32, u32), String> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.is_empty() || parts.len() > 3 {
        return Err(format!("bad dimension triple `{s}`"));
    }
    let mut d = [1u32; 3];
    for (i, p) in parts.iter().enumerate() {
        d[i] = p
            .trim()
            .parse()
            .map_err(|_| format!("bad dimension `{p}` in `{s}`"))?;
    }
    Ok((d[0], d[1], d[2]))
}

fn parse_param_value(s: &str) -> Result<ParamValue, String> {
    let t = s.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16)
            .map(|v| ParamValue::Int(v as i64))
            .map_err(|_| format!("bad hex value `{s}`"));
    }
    if let Ok(v) = t.parse::<i64>() {
        return Ok(ParamValue::Int(v));
    }
    let ft = t.strip_suffix('f').unwrap_or(t);
    ft.parse::<f32>()
        .map(ParamValue::F32)
        .map_err(|_| format!("bad value `{s}`"))
}

fn parse_lint(s: &str) -> Result<LintCode, String> {
    LintCode::parse(s).ok_or_else(|| {
        format!(
            "unknown lint `{s}` (expected one of {})",
            LintCode::ALL.map(|c| c.code()).join(", ")
        )
    })
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        source_path: String::new(),
        defines: Vec::new(),
        cfg: AnalysisConfig::default(),
        device: DeviceConfig::tesla_c2070(),
        kernel: None,
        verbose: false,
    };
    let mut it = argv.iter();
    let next = |name: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{name} requires an argument"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "-v" | "--verbose" => args.verbose = true,
            "-D" => {
                let d = next("-D", &mut it)?;
                let (n, v) = d.split_once('=').unwrap_or((d.as_str(), ""));
                args.defines.push((n.to_string(), v.to_string()));
            }
            "-A" => {
                let d = next("-A", &mut it)?;
                let (n, v) = d
                    .split_once('=')
                    .ok_or_else(|| format!("-A expects NAME=VALUE, got `{d}`"))?;
                args.cfg
                    .param_assumptions
                    .push((n.to_string(), parse_param_value(v)?));
            }
            "--block" => args.cfg.block_dim = Some(parse_dims(&next("--block", &mut it)?)?),
            "--grid" => args.cfg.grid_dim = parse_dims(&next("--grid", &mut it)?)?,
            "--block-idx" => args.cfg.block_idx = parse_dims(&next("--block-idx", &mut it)?)?,
            "--shared" => {
                args.cfg.dynamic_shared = next("--shared", &mut it)?
                    .parse()
                    .map_err(|_| "bad --shared value".to_string())?
            }
            "--max-steps" => {
                args.cfg.max_steps = next("--max-steps", &mut it)?
                    .parse()
                    .map_err(|_| "bad --max-steps value".to_string())?
            }
            "--device" => {
                args.device = match next("--device", &mut it)?.as_str() {
                    "tesla_c1060" | "c1060" | "1060" => DeviceConfig::tesla_c1060(),
                    "tesla_c2070" | "c2070" | "2070" => DeviceConfig::tesla_c2070(),
                    other => return Err(format!("unknown device `{other}`")),
                }
            }
            "--allow" => {
                let c = parse_lint(&next("--allow", &mut it)?)?;
                args.cfg.levels.push((c, Severity::Allow));
            }
            "--warn" => {
                let c = parse_lint(&next("--warn", &mut it)?)?;
                args.cfg.levels.push((c, Severity::Warn));
            }
            "--deny" => {
                let c = parse_lint(&next("--deny", &mut it)?)?;
                args.cfg.levels.push((c, Severity::Deny));
            }
            "--kernel" => args.kernel = Some(next("--kernel", &mut it)?),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            path => {
                if !args.source_path.is_empty() {
                    return Err("multiple source files given".into());
                }
                args.source_path = path.to_string();
            }
        }
    }
    if args.source_path.is_empty() {
        return Err("no kernel source file given".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<bool, String> {
    let source = std::fs::read_to_string(&args.source_path)
        .map_err(|e| format!("cannot read {}: {e}", args.source_path))?;
    let defines = args
        .defines
        .iter()
        .fold(Defines::new(), |d, (n, v)| d.def(n, v));
    let bin = Compiler::new(args.device.clone())
        .compile(&source, &defines)
        .map_err(|e| e.message)?;
    let mut module = ks_ir::Module::clone(&bin.module);

    if let Some(k) = &args.kernel {
        module.functions.retain(|f| &f.name == k);
        if module.functions.is_empty() {
            return Err(format!("kernel `{k}` not found in {}", args.source_path));
        }
    }

    let report = analyze_module(&module, &args.device, &args.cfg);
    for d in &report.diagnostics {
        eprintln!("{d}");
    }
    for n in &report.inconclusive {
        eprintln!("note: {n}");
    }
    if args.verbose {
        for (f, m) in &report.mem {
            println!(
                "mem[{f}]: {} global transactions ({} ld, {} st), {} shared accesses, \
                 {} bank-conflict replays, {} unresolved",
                m.global_transactions,
                m.global_loads,
                m.global_stores,
                m.shared_accesses,
                m.bank_conflict_extra,
                m.unresolved_accesses
            );
        }
        println!("proven in-bounds accesses: {}", report.proven_bounds);
    }
    let denials = report.has_denials();
    let warnings = report.warnings().count();
    let kernels = module.functions.len();
    println!(
        "ks-lint: {kernels} kernel{} on {}: {} error{}, {warnings} warning{}",
        if kernels == 1 { "" } else { "s" },
        args.device.name,
        report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count(),
        if report
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
            == 1
        {
            ""
        } else {
            "s"
        },
        if warnings == 1 { "" } else { "s" },
    );
    Ok(denials)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("ks-lint: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ks-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
