//! `ks-verify --export jsonl` prints one JSON object per finding: every
//! line parses, and carries the six fields of a finding.

use ks_trace::Json;
use std::process::Command;

#[test]
fn every_jsonl_line_of_a_check_parses_as_a_finding() {
    let out = Command::new(env!("CARGO_BIN_EXE_ks-verify"))
        .args(["--kernel", "piv", "--check", "all", "--export", "jsonl"])
        .output()
        .expect("ks-verify runs");
    assert!(out.status.success(), "exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(!stdout.is_empty(), "piv's check reports findings");
    for line in stdout.lines() {
        let Ok(Json::Obj(fields)) = Json::parse(line) else {
            panic!("not a JSON object: {line}");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["code", "severity", "context", "env", "function", "message"],
            "{line}"
        );
        assert!(fields.iter().all(|(_, v)| v.as_str().is_some()), "{line}");
    }
}
