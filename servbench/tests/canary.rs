//! The canary: a run whose reply was tampered with must fail its
//! checks, and the same run untampered must pass them. One-second runs
//! keep this quick.

use std::process::Command;

/// What one run of the benchmark binary left.
struct Run {
    code: Option<i32>,
    json: String,
    stderr: String,
}

fn run(workload: &str, tamper: bool) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_servbench"));
    cmd.args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", "0"]);
    if tamper {
        cmd.arg("--tamper");
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    Run {
        code: out.status.code(),
        json: stdout.lines().last().unwrap_or_default().to_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The tamper flips one bit of one reply's length and nothing else, so
/// the run can only fail through the comparison with the in-process
/// answer.
#[test]
fn a_tampered_reply_fails_through_the_answer_check() {
    for workload in ["wire_local", "wire_crossfield"] {
        let r = run(workload, true);
        assert_eq!(r.code, Some(1), "{workload}: {}", r.json);
        assert!(
            r.json.contains("\"correct\": false"),
            "{workload}: {}",
            r.json
        );
        let failed: Vec<&str> = r
            .stderr
            .lines()
            .filter(|l| l.starts_with("CHECK FAILED"))
            .collect();
        assert_eq!(failed.len(), 1, "{workload}: {}", r.stderr);
        assert!(
            failed[0].contains("differs from the in-process answer"),
            "{workload}: {}",
            r.stderr
        );
    }
}

#[test]
fn an_untampered_run_passes() {
    let r = run("wire_local", false);
    assert_eq!(r.code, Some(0), "{}\n{}", r.json, r.stderr);
    assert!(r.json.contains("\"correct\": true"), "{}", r.json);
    assert!(r.json.contains("\"query_p50_us\""), "{}", r.json);
    assert!(r.json.contains("\"move_ack_p50_ms\""), "{}", r.json);
}

#[test]
fn bad_arguments_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_servbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
