//! Binary-level integration tests for the `vswap` CLI: invalid inputs
//! must be rejected at the process boundary, with a non-zero exit code
//! and a diagnostic on stderr.

use std::process::Command;

fn vswap(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vswap")).args(args).output().expect("vswap binary runs")
}

#[test]
fn rejects_actual_above_mem() {
    let out = vswap(&["run", "--mem", "512", "--actual", "600"]);
    assert!(!out.status.success(), "oversubscribed --actual must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--actual cannot exceed --mem"),
        "stderr must explain the rejection: {stderr}"
    );
}

#[test]
fn rejects_zero_guests() {
    let out = vswap(&["run", "--guests", "0"]);
    assert!(!out.status.success(), "--guests 0 must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--guests must be at least 1"),
        "stderr must explain the rejection: {stderr}"
    );
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = vswap(&["--help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("--trace-out"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = vswap(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn verify_tables_rejects_figures_only_options() {
    for args in
        [&["verify-tables", "--seed", "9", "fig03"][..], &["verify-tables", "--smoke", "fig03"]]
    {
        let out = vswap(args);
        assert!(!out.status.success(), "{args:?} must fail instead of ignoring the option");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`verify-tables` does not take"), "{args:?}: {stderr}");
    }
}

#[test]
fn figures_rejects_verify_tables_only_options() {
    for args in [
        &["figures", "--smoke", "--bless", "fig15"][..],
        &["figures", "--smoke", "--dump-dir", "tables", "fig15"],
        &["figures", "--smoke", "--bench-out", "b.json", "fig15"],
    ] {
        let out = vswap(args);
        assert!(!out.status.success(), "{args:?} must fail instead of ignoring the option");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`figures` does not take"), "{args:?}: {stderr}");
    }
}
