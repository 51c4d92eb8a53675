//! The `pak-experiments` command line: a known experiment runs and matches
//! the paper; an unknown name is rejected, with the valid names on stderr,
//! before any experiment runs.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pak-experiments"))
        .args(args)
        .output()
        .expect("pak-experiments starts")
}

#[test]
fn unknown_experiment_name_fails_before_running_anything() {
    for args in [&["e99"][..], &["e1", "e99"][..]] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("e99") && stderr.contains("e1 e2 e3 e5 e8 e11"),
            "{args:?}: stderr must name the bad argument and list the valid ones: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
}

#[test]
fn known_experiment_runs_and_matches_the_paper() {
    let out = run(&["e1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "e1 must exit zero: {stdout}");
    assert!(stdout.contains("all rows match"), "{stdout}");
}
