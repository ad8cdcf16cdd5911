//! The `ks-lint` and `ks-verify` CLIs, run as built: exit codes, and
//! the module each one reports on is the one `ks_core::Compiler` builds
//! for the device, architecture macro included.

use ks_core::{Compiler, Defines, ValidationConfig};
use ks_sim::DeviceConfig;
use std::process::{Command, Output};

/// A kernel that exists only under `#if __CUDA_ARCH__ >= 200`.
const ARCH_GATED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/arch_gated.cu");

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ks-lint"))
        .args(args)
        .output()
        .expect("run ks-lint")
}

/// The analysis suite's fixture `name`.
fn analysis_fixture(name: &str) -> String {
    format!(
        "{}/../analysis/tests/fixtures/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

#[test]
fn ks_lint_cli_exit_codes_and_report() {
    let out = lint(&[&analysis_fixture("shared_race.cu"), "--block", "64"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "race fixture must fail the lint"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("KSA001"), "stderr: {stderr}");

    let out = lint(&[
        &analysis_fixture("clean.cu"),
        "--block",
        "64",
        "-A",
        "n=128",
        "--device",
        "tesla_c1060",
        "-v",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "clean fixture must pass: {stderr}"
    );

    // Allowing the lint turns failure into success.
    let out = lint(&[
        &analysis_fixture("shared_race.cu"),
        "--block",
        "64",
        "--allow",
        "KSA001",
    ]);
    assert_eq!(out.status.code(), Some(0));

    // Unknown files and bad flags are usage errors, not lint failures.
    let out = lint(&["does_not_exist.cu"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn ks_lint_sees_the_kernels_its_device_compiles() {
    let out = lint(&[ARCH_GATED, "--kernel", "fermi_scale", "--block", "64"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        stdout.contains("ks-lint: 1 kernel on Tesla C2070: 0 errors"),
        "{stdout}"
    );
    // Compute capability 1.3 compiles the other side of the `#if`.
    let out = lint(&[ARCH_GATED, "--kernel", "fermi_scale", "--device", "c1060"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(
        stderr.contains("kernel `fermi_scale` not found"),
        "{stderr}"
    );
}

/// The check count of `ks-verify`'s report line starting `prefix`.
fn checks(stdout: &str, prefix: &str) -> usize {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"));
    line.rsplit_once(": ")
        .and_then(|(_, counts)| counts.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no check count in `{line}`"))
}

/// The checks a validated C2070 compile of `source` runs under `defines`.
fn compiler_checks(source: &str, defines: Defines) -> usize {
    let labels = [("test", "tools.rs")];
    let compiler = Compiler::new(DeviceConfig::tesla_c2070())
        .with_validation(ValidationConfig {
            deny: false,
            ..ValidationConfig::default()
        })
        .with_metric_labels(&labels);
    let counter = ks_trace::registry()
        .scoped(&labels)
        .counter(ks_trace::names::VERIFY_CHECKS);
    let before = counter.get();
    compiler.compile(source, defines).expect("compiles");
    (counter.get() - before) as usize
}

#[test]
fn ks_verify_checks_the_kernels_its_device_compiles() {
    let out = Command::new(env!("CARGO_BIN_EXE_ks-verify"))
        .args(["--source", ARCH_GATED, "-D", "N=256", "--check", "all"])
        .output()
        .expect("run ks-verify");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    let source = std::fs::read_to_string(ARCH_GATED).unwrap();
    let sk = compiler_checks(&source, Defines::new().def("N", 256));
    let re = compiler_checks(&source, Defines::new());
    assert!(sk > 0 && re > 0, "the C2070 compile has a kernel to check");
    assert_eq!(checks(&stdout, "pipeline custom sk"), sk, "{stdout}");
    assert_eq!(checks(&stdout, "pipeline custom re"), re, "{stdout}");
    assert!(checks(&stdout, "spec custom") > 0, "{stdout}");
}
