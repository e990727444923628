//! Bad `holdcsim run` / `federate` inputs end in an error that names the
//! offending flag or fault target — never a panic, never a silent no-op.

use std::process::Command;

/// Runs the CLI; returns `(exit success, stderr)`.
fn holdcsim(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_holdcsim"))
        .args(args)
        .output()
        .expect("spawn holdcsim");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], needle: &str) {
    let (ok, stderr) = holdcsim(args);
    assert!(!ok, "{args:?} exited 0");
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    assert!(
        stderr.starts_with("error: ") && stderr.contains(needle),
        "{args:?}: expected an error naming `{needle}`, got:\n{stderr}"
    );
}

#[test]
fn run_rejects_degenerate_farms_by_flag() {
    assert_rejected(&["run", "--servers", "0", "--duration", "0.1"], "--servers");
    assert_rejected(&["run", "--cores", "0", "--duration", "0.1"], "--cores");
    for rho in ["0", "-0.5", "nan", "inf"] {
        assert_rejected(&["run", "--rho", rho, "--duration", "0.1"], "--rho");
    }
    for d in ["-1", "nan"] {
        assert_rejected(&["run", "--duration", d], "--duration");
    }
}

#[test]
fn run_rejects_out_of_range_fault_targets() {
    assert_rejected(
        &["run", "--duration", "2", "--faults", "crash@1s:999"],
        "server 999",
    );
    assert_rejected(
        &[
            "run",
            "--servers",
            "4",
            "--duration",
            "2",
            "--faults",
            "mtbf:server=4,mtbf=1s,mttr=1s",
        ],
        "server 4",
    );
}

#[test]
fn run_rejects_fabric_targets_outside_the_fabric() {
    // A 16-server run with --net builds a k=4 fat tree of 20 switches.
    assert_rejected(
        &[
            "run",
            "--net",
            "--duration",
            "0.2",
            "--faults",
            "switch-down@0.1s:999",
        ],
        "switch 999",
    );
    // Without --net there is no fabric to fail at all.
    assert_rejected(
        &["run", "--duration", "0.2", "--faults", "link-down@0.1s:3"],
        "link 3",
    );
    let (ok, stderr) = holdcsim(&[
        "run",
        "--net",
        "--duration",
        "0.2",
        "--faults",
        "switch-down@0.1s:3; link-down@0.1s:5",
        "--json",
    ]);
    assert!(ok, "in-range fabric targets must run:\n{stderr}");
}

#[test]
fn federate_rejects_site_targets_outside_the_federation() {
    assert_rejected(
        &[
            "federate",
            "--sites",
            "2",
            "--duration",
            "0.2",
            "--faults",
            "site7.crash@0.1s:0",
        ],
        "site 7",
    );
}

#[test]
fn federate_rejects_wan_targets_outside_the_mesh() {
    // Two sites share one WAN link (id 0); link 999 does not exist.
    assert_rejected(
        &[
            "federate",
            "--sites",
            "2",
            "--duration",
            "0.2",
            "--faults",
            "wan-down@0.01s:999",
        ],
        "WAN link 999",
    );
    let (ok, stderr) = holdcsim(&[
        "federate",
        "--sites",
        "2",
        "--duration",
        "0.2",
        "--faults",
        "wan-down@0.01s:0",
    ]);
    assert!(ok, "an in-range WAN target must run:\n{stderr}");
}

#[test]
fn federate_rejects_degenerate_farms_by_flag() {
    let base = ["federate", "--sites", "2", "--duration", "0.01"];
    for (flag, v) in [("--servers", "0"), ("--cores", "0"), ("--rho", "nan")] {
        let mut args = base.to_vec();
        args.extend([flag, v]);
        assert_rejected(&args, flag);
    }
}

#[test]
fn in_range_fault_targets_still_run() {
    let (ok, stderr) = holdcsim(&[
        "run",
        "--servers",
        "4",
        "--duration",
        "1",
        "--faults",
        "crash@200ms:3; recover@400ms:3",
        "--json",
    ]);
    assert!(ok, "{stderr}");
}
