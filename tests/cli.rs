//! End-to-end tests of the `cpsrisk` command-line front-end.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_cpsrisk"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn run_with_stdin(args: &[&str], input: &str) -> (String, String, bool) {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_cpsrisk"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn table2_prints_the_paper_rows() {
    let (stdout, _, ok) = run(&["table2"]);
    assert!(ok);
    for label in ["S1", "S2", "S3", "S4", "S5", "S6", "S7"] {
        assert!(stdout.contains(label), "missing {label}");
    }
    assert_eq!(
        stdout.matches("Violated").count(),
        7,
        "4 R1 + 3 R2 verdicts"
    );
}

#[test]
fn assess_reports_hazards_and_a_recommendation() {
    let (stdout, _, ok) = run(&["assess"]);
    assert!(ok);
    assert!(stdout.contains("16 scenarios, 12 hazards"));
    assert!(stdout.contains("recommendation:"));
    assert!(stdout.contains("phase 1"));
}

#[test]
fn assess_json_is_parseable() {
    let (stdout, _, ok) = run(&["assess", "--json"]);
    assert!(ok);
    let parsed: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    assert!(parsed.as_array().is_some_and(|a| a.len() == 12));
}

#[test]
fn mitigated_assessment_blocks_the_workstation() {
    let (stdout, _, ok) = run(&["assess", "--mitigated"]);
    assert!(ok);
    assert!(stdout.contains("8 scenarios, 4 hazards"));
    assert!(!stdout.contains("f4"));
}

#[test]
fn simulate_reports_verdicts() {
    let (stdout, _, ok) = run(&["simulate", "f2,f3"]);
    assert!(ok);
    assert!(stdout.contains("R1 (no overflow):        VIOLATED"));
    assert!(stdout.contains("R2 (alert on overflow):  VIOLATED"));
    assert!(stdout.contains("overflow at t ="));
    let (nominal, _, ok2) = run(&["simulate", ""]);
    assert!(ok2);
    assert!(nominal.contains("satisfied"));
}

#[test]
fn solve_runs_a_program_file() {
    let dir = std::env::temp_dir().join("cpsrisk_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("p.lp");
    std::fs::write(&file, "{ a; b }. :- a, b.").unwrap();
    let (stdout, _, ok) = run(&["solve", file.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("3 model(s)"));
}

#[test]
fn solve_gate_rejects_programs_with_lint_errors() {
    let dir = std::env::temp_dir().join("cpsrisk_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("unsafe.lp");
    // Unsafe variable: lint error A003 must abort the solve.
    std::fs::write(&file, "q(a).\np(X, Y) :- q(X).").unwrap();
    let (_, stderr, ok) = run(&["solve", file.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("error[A003]"), "{stderr}");
    assert!(stderr.contains("lint errors"), "{stderr}");
}

#[test]
fn solve_gate_passes_warnings_to_stderr() {
    let dir = std::env::temp_dir().join("cpsrisk_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("warny.lp");
    // `ghost` is never defined: warning A001, but the program still solves.
    std::fs::write(&file, "a :- ghost.\n{ b }.").unwrap();
    let (stdout, stderr, ok) = run(&["solve", file.to_str().unwrap()]);
    assert!(ok, "warnings do not block: {stderr}");
    assert!(stderr.contains("warning[A001]"), "{stderr}");
    assert!(stdout.contains("2 model(s)"), "{stdout}");
}

#[test]
fn lint_command_checks_the_case_study() {
    let (stdout, _, ok) = run(&["lint"]);
    assert!(ok, "shipped case study must be lint-clean");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");
    assert!(stdout.contains("[M005]"), "advisory model findings shown");
    assert!(
        stdout.contains("[A008]"),
        "advisory encoding findings shown"
    );
}

#[test]
fn lint_command_checks_program_files() {
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let (stdout, _, ok) = run(&[
        "lint",
        &format!("{examples}/listing1.lp"),
        &format!("{examples}/water_tank.lp"),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");

    let dir = std::env::temp_dir().join("cpsrisk_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("broken.lp");
    std::fs::write(&file, "p(a\n").unwrap();
    let (stdout, stderr, ok) = run(&["lint", file.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("error[A000]"), "{stdout}");
    assert!(stderr.contains("lint failed"), "{stderr}");
}

#[test]
fn lint_reads_stdin_and_prints_per_file_headers() {
    let (stdout, _, ok) = run_with_stdin(&["lint", "-"], "p(a). q(X) :- p(X).");
    assert!(ok, "{stdout}");
    assert!(stdout.contains("== <stdin> =="), "{stdout}");
    assert!(stdout.contains("0 error(s), 0 warning(s)"), "{stdout}");

    let (stdout, stderr, ok) = run_with_stdin(&["lint", "-"], "p(a\n");
    assert!(!ok);
    assert!(stdout.contains("error[A000]"), "{stdout}");
    assert!(stderr.contains("lint failed"), "{stderr}");
}

#[test]
fn analyze_reports_on_example_programs() {
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let (stdout, stderr, ok) = run(&[
        "analyze",
        &format!("{examples}/listing1.lp"),
        &format!("{examples}/water_tank.lp"),
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("== "), "per-file headers: {stdout}");
    assert!(stdout.contains("solver fast path active"), "{stdout}");
    assert!(stdout.contains("divergence"), "{stdout}");
    assert!(stdout.contains("slice:"), "{stdout}");
}

#[test]
fn analyze_json_is_parseable() {
    let examples = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let (stdout, _, ok) = run(&["analyze", "--json", &format!("{examples}/listing1.lp")]);
    assert!(ok);
    let parsed: serde_json::Value = serde_json::from_str(&stdout).expect("valid JSON");
    let reports = parsed.as_array().expect("array of reports");
    assert_eq!(reports.len(), 1);
    let deps = reports[0].get("deps").expect("deps section");
    assert!(deps
        .get("ground_tight")
        .and_then(serde_json::Value::as_bool)
        .is_some());
    let size = reports[0].get("size").expect("size section");
    assert!(size
        .get("divergence")
        .and_then(serde_json::Value::as_f64)
        .is_some());
}

#[test]
fn analyze_fails_on_error_findings_and_divergence() {
    let dir = std::env::temp_dir().join("cpsrisk_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("analyze_broken.lp");
    std::fs::write(&file, "p(a\n").unwrap();
    let (stdout, stderr, ok) = run(&["analyze", file.to_str().unwrap()]);
    assert!(!ok);
    assert!(stdout.contains("error[A000]"), "{stdout}");
    assert!(stderr.contains("error-severity"), "{stderr}");

    // The temporal workload sits inside the 10x CI gate but not inside 1x.
    let (_, stderr, ok) = run(&[
        "analyze",
        "--workload",
        "temporal",
        "--max-divergence",
        "10",
    ]);
    assert!(ok, "temporal within the CI gate: {stderr}");
    let (_, stderr, ok) = run(&["analyze", "--workload", "temporal", "--max-divergence", "1"]);
    assert!(!ok, "an impossible gate trips");
    assert!(stderr.contains("diverged"), "{stderr}");
}

#[test]
fn lint_deny_warnings_promotes_warnings_to_failures() {
    let dir = std::env::temp_dir().join("cpsrisk_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("warn_only.lp");
    std::fs::write(&file, "a :- ghost.\n{ b }.").unwrap();
    let (stdout, _, ok) = run(&["lint", file.to_str().unwrap()]);
    assert!(ok, "a warning alone passes: {stdout}");
    let (stdout, _, ok) = run(&["lint", "--deny-warnings", file.to_str().unwrap()]);
    assert!(!ok, "--deny-warnings rejects it: {stdout}");
    // A misspelled flag must not silently disable the denial.
    let (_, stderr, ok) = run(&["lint", "--deny-warning", file.to_str().unwrap()]);
    assert!(!ok, "unknown flags are rejected");
    assert!(stderr.contains("unknown lint flag"), "{stderr}");
}

#[test]
fn unknown_commands_fail_with_help() {
    let (_, stderr, ok) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn bad_fault_ids_are_rejected() {
    let (_, stderr, ok) = run(&["simulate", "f9"]);
    assert!(!ok);
    assert!(stderr.contains("unknown fault"));
}

#[test]
fn analyze_rejects_an_unknown_workload() {
    let (_, stderr, ok) = run(&["analyze", "--workload", "mesh"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"), "{stderr}");
    // The error names every valid workload.
    for name in ["chain", "grid", "temporal", "adversarial", "catalog"] {
        assert!(
            stderr.contains(name),
            "error should list `{name}`: {stderr}"
        );
    }
}

#[test]
fn certified_solving_round_trips_through_check() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    // `solve --certify` writes a proof the `check` subcommand accepts.
    let lp = tmp.join("cpsrisk_cli_certify.lp");
    std::fs::write(&lp, "{ a; b }. c :- a, not b. :- a, b.").unwrap();
    let proof = tmp.join("cpsrisk_cli_solve.proof");
    let proof = proof.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["solve", lp.to_str().unwrap(), "--certify", proof]);
    assert!(ok, "certified solve runs: {stderr}");
    assert!(stdout.contains("wrote certificate"), "{stdout}");
    let (stdout, stderr, ok) = run(&["check", proof]);
    assert!(ok, "checker accepts the certificate: {stderr}");
    assert!(stdout.contains("certificate OK"), "{stdout}");
    // A corrupted proof is rejected with a nonzero exit.
    let text = std::fs::read_to_string(proof).unwrap();
    let corrupt = tmp.join("cpsrisk_cli_corrupt.proof");
    std::fs::write(&corrupt, text.replace("\nmodel", "\nunsat\nmodel")).unwrap();
    let (_, stderr, ok) = run(&["check", corrupt.to_str().unwrap()]);
    assert!(!ok, "corrupted certificate must be rejected");
    assert!(stderr.contains("REJECTED"), "{stderr}");
    std::fs::remove_file(&lp).ok();
    std::fs::remove_file(proof).ok();
    std::fs::remove_file(corrupt).ok();
    // A conflict-heavy refutation: the adversarial workload one budget
    // below its covering number is UNSAT, and its certificate carries
    // learned nogoods the stand-alone checker replays by reverse unit
    // propagation.
    let n = 9;
    let unsat = tmp.join("cpsrisk_cli_adversarial.lp");
    let program = cpsrisk::epa::workload::adversarial_problem(
        n,
        cpsrisk::epa::workload::adversarial_needed(n) - 1,
    );
    std::fs::write(&unsat, program.to_string()).unwrap();
    let proof = tmp.join("cpsrisk_cli_adversarial.proof");
    let proof = proof.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["solve", unsat.to_str().unwrap(), "--certify", proof]);
    assert!(ok, "certified adversarial solve runs: {stderr}");
    assert!(stdout.contains("0 model(s)"), "{stdout}");
    assert!(stdout.contains("wrote certificate"), "{stdout}");
    let (stdout, stderr, ok) = run(&["check", proof]);
    assert!(ok, "checker accepts the refutation: {stderr}");
    assert!(stdout.contains("certificate OK"), "{stdout}");
    assert!(stdout.contains("1 refutation(s) replayed"), "{stdout}");
    assert!(!stdout.contains(" 0 learned"), "{stdout}");
    std::fs::remove_file(&unsat).ok();
    std::fs::remove_file(proof).ok();
}
