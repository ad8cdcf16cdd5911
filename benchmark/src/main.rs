//! `ks-ledger` — the repository's end-to-end + per-layer host-time
//! benchmark. See `README.md` in this directory.
//!
//! ```text
//! ks-ledger --workload <stream|churn|restart|adapt> --seed <u64>
//!           --seconds <s> --trace <0|1> [--scale <n>] [--out-dir <dir>]
//! ks-ledger --check [--seed <u64>]
//! ks-ledger --aa [N] [--seed <u64>] [--seconds <s>]
//! ks-ledger --all --out <file> [--seed <u64>] [--seconds <s>]
//! ```

mod apps;
mod drive;
mod env;
mod grid;
mod layers;
mod metrics;
mod probes;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// The seed the committed baseline was measured with. Claims must also
/// hold on `HELD_BACK_SEED`, which no one tunes against.
pub const DEFAULT_SEED: u64 = 11;
pub const HELD_BACK_SEED: u64 = 4211;
/// `--check` runs every workload at this fraction of full size.
pub const CHECK_SCALE: u32 = 20;

enum Mode {
    /// One workload, one run: what the acceptance driver invokes.
    Run,
    Check,
    Aa(usize),
    All,
}

fn usage() -> String {
    format!(
        "usage: ks-ledger --workload <{}> --seed <u64> --seconds <s> --trace <0|1>\n       \
         ks-ledger --check | --aa [N] | --all --out <file>   (run from the repository root)\n\
         default seed {DEFAULT_SEED}, held-back seed {HELD_BACK_SEED}",
        workloads::NAMES.join("|")
    )
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("ks-ledger measures optimized builds only: build with --release");
        return ExitCode::from(2);
    }
    let mut args = std::env::args().skip(1).peekable();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = 1;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut out = None;
    let mut mode = Mode::Run;
    let bad = |what: &str| -> ExitCode {
        eprintln!("{what}\n{}", usage());
        ExitCode::from(2)
    };
    while let Some(flag) = args.next() {
        let flagged = match flag.as_str() {
            "--check" => Some(Mode::Check),
            "--all" => Some(Mode::All),
            "--aa" => {
                // The count is optional: `--aa` alone means five.
                let n = args.peek().and_then(|v| v.parse().ok());
                if n.is_some() {
                    args.next();
                }
                Some(Mode::Aa(n.unwrap_or(5)))
            }
            _ => None,
        };
        if let Some(m) = flagged {
            mode = m;
            continue;
        }
        let Some(value) = args.next() else {
            return bad(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value);
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = Some(v)).is_ok(),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    true
                }
                _ => false,
            },
            "--scale" => value.parse().map(|v| scale = v).is_ok(),
            "--out-dir" => {
                out_dir = PathBuf::from(value);
                true
            }
            "--out" => {
                out = Some(PathBuf::from(value));
                true
            }
            _ => return bad(&format!("unknown flag {flag}")),
        };
        if !ok {
            return bad(&format!("bad value for {flag}"));
        }
    }

    let done = match mode {
        Mode::Check => drive::check(seed),
        Mode::All => match &out {
            Some(out) => drive::all(seed, seconds, out),
            None => return bad("--all needs --out <file>"),
        },
        Mode::Aa(n) => drive::aa(n, seed, seconds),
        Mode::Run => {
            let (Some(workload), Some(seconds)) = (workload, seconds) else {
                return bad("--workload and --seconds are required");
            };
            let opts = run::Options {
                workload,
                seed,
                seconds,
                trace,
                scale,
                out_dir,
            };
            // The result is the last line; a run that printed one exits
            // 0 and says in `correct` whether its outputs verified.
            run::run(&opts).map(|outcome| println!("{}", outcome.to_json().render()))
        }
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
