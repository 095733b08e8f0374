//! `hplbench check` as the package's integration test: every workload at
//! test scale, twice, with the exact metrics compared (see `src/check.rs`).

#[test]
fn hplbench_check_passes() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hplbench"))
        .arg("check")
        .env_remove("OCLSIM_BACKEND")
        .env_remove("HPL_OPT_LEVEL")
        .env_remove("HPL_TELEMETRY")
        .output()
        .expect("hplbench runs");
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn refuses_to_run_under_a_forbidden_environment() {
    for var in ["OCLSIM_BACKEND", "HPL_OPT_LEVEL", "HPL_TELEMETRY"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hplbench"))
            .args([
                "--workload",
                "launch_chain",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ])
            .env(var, "1")
            .output()
            .expect("hplbench runs");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
}
