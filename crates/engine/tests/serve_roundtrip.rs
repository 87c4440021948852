//! End-to-end test of the `gomq-serve` binary: feed JSONL requests on
//! stdin, check the JSONL responses on stdout.

use std::io::Write;
use std::process::{Command, Stdio};

fn run_serve(input: &str, extra_args: &[&str]) -> (String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gomq-serve"))
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gomq-serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("gomq-serve exits");
    assert!(out.status.success(), "gomq-serve failed: {out:?}");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn jsonl_requests_roundtrip_with_plan_caching() {
    let requests = concat!(
        r#"{"id": "r1", "ontology": "Manager sub Employee\nEmployee sub Staff", "query": "Staff", "abox": "Manager(ada)\nStaff(alan)"}"#,
        "\n",
        "\n", // blank lines are skipped
        r#"{"id": "r2", "ontology": "Employee sub Staff\nManager sub Employee", "query": "Staff", "abox": "Employee(grace)"}"#,
        "\n",
        r#"{"id": "s", "op": "stats"}"#,
        "\n",
        r#"{"id": "r3", "ontology": "A sub B", "query": "B", "aboxes": ["A(x)", "", "A(y)\nB(z)"]}"#,
        "\n",
        r#"{"id": "r4", "ontology": "A sub B", "query": "Missing", "abox": ""}"#,
        "\n",
    );
    let (stdout, stderr) = run_serve(requests, &["--threads", "2"]);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "one response per request: {stdout}");

    // r1: fresh compile, both the asserted and the derived Staff answer.
    assert!(lines[0].contains(r#""id": "r1""#));
    assert!(lines[0].contains(r#""status": "ok""#));
    assert!(lines[0].contains(r#""cached": false"#));
    assert!(lines[0].contains(r#"["ada"]"#) && lines[0].contains(r#"["alan"]"#));

    // r2 poses the same OMQ with the axioms reordered: plan-cache hit.
    // The request-scoped stats carry the per-request hit flag; the
    // cumulative counters are the stats op's "engine" object.
    assert!(lines[1].contains(r#""id": "r2""#));
    assert!(lines[1].contains(r#""cached": true"#));
    assert!(lines[1].contains(r#"["grace"]"#));
    assert!(lines[1].contains(r#""stats": {"#));
    assert!(lines[1].contains(r#""cache_hit": true"#));
    assert!(!lines[1].contains(r#""engine""#));
    assert!(lines[2].contains(r#""id": "s", "status": "ok", "op": "stats""#));
    assert!(lines[2].contains(r#""engine": {"#));
    assert!(lines[2].contains(r#""cache_hits": 1"#));
    assert!(lines[2].contains(r#""cache_misses": 1"#));
    // r1 was a miss, and its request-scoped stats must say so even
    // though the engine totals later count hits.
    assert!(lines[0].contains(r#""cache_hit": false"#));

    // r3: a batch, one answer array per ABox in order.
    assert!(lines[3].contains(r#""batches": [[["x"]], [], [["y"], ["z"]]]"#));

    // r4: an error response, not a crash.
    assert!(lines[4].contains(r#""id": "r4""#));
    assert!(lines[4].contains(r#""status": "error""#));

    // The EOF summary on stderr reports the three served evaluations.
    assert!(
        stderr.contains(r#"gomq-serve: stats {"requests": 3, "cache_hits": 1, "#),
        "stderr: {stderr}"
    );
}

#[test]
fn limits_and_panics_are_survivable_end_to_end() {
    let requests = concat!(
        // Blows the session-wide --max-derived limit set below.
        r#"{"id": "hot", "ontology": "C0 sub C1\nC1 sub C2\nC2 sub C3", "query": "C3", "abox": "C0(a)\nC0(b)\nC0(c)\nC0(d)"}"#,
        "\n",
        // Uses R as a role, then as a concept: a typed parse error (this
        // input once tripped the vocabulary's arity assertion, a panic).
        r#"{"id": "boom", "ontology": "A sub ex R.A\nR sub B", "query": "B", "abox": ""}"#,
        "\n",
        // A well-behaved request afterwards still answers.
        r#"{"id": "ok", "ontology": "A sub B", "query": "B", "abox": "A(x)"}"#,
        "\n",
    );
    let (stdout, stderr) = run_serve(requests, &["--threads", "2", "--max-derived", "4"]);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one response per request: {stdout}");
    assert!(lines[0].contains(r#""id": "hot""#));
    assert!(lines[0].contains(r#""status": "overloaded""#));
    assert!(lines[0].contains(r#""limit": "derived""#));
    assert!(lines[1].contains(r#""id": "boom""#));
    assert!(lines[1].contains(r#""status": "error""#));
    assert!(lines[1].contains(
        "bad request: ontology: line 2: relation `R` used with arity 1 but declared with 2"
    ));
    assert!(lines[2].contains(r#""id": "ok""#));
    assert!(lines[2].contains(r#""status": "ok""#));
    assert!(lines[2].contains(r#"["x"]"#));
    assert!(stderr.contains(r#""overloaded": 1, "#), "stderr: {stderr}");
    assert!(stderr.contains(r#""panics": 0, "#), "stderr: {stderr}");
}

#[test]
fn help_flag_prints_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_gomq-serve"))
        .arg("--help")
        .output()
        .expect("run gomq-serve --help");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("Usage: gomq-serve"));
}
