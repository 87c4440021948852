//! Property and crash tests for proof-carrying answers: every tuple a
//! certified request answers must come with a certificate that the
//! *standalone* verifier (`gomq-cert`, which shares no code with the
//! engine) accepts, and whose verified answers are exactly the answers
//! in the response — across all three answer paths (one-shot fixpoint,
//! IVM-maintained session views, the bitset type kernel), in memory and
//! across a SIGKILL + WAL-replay restart (where the snapshot binding
//! `(lsn, base)` must also be byte-identical, pinning FactId/LSN
//! determinism of recovery).

mod common;

use common::{ScratchDir, Serve};
use gomq_cert::json::{self as cjson, Value};
use gomq_cert::{verify_value, Snapshot, Verified};
use gomq_engine::{Budget, Engine, ServeConfig, ServeSession};
use proptest::collection::vec;
use proptest::prelude::*;

/// The OMQ pool — three distinct plans so a tiny view cap also
/// exercises LRU eviction and recording rebuild on the certified path.
const OMQS: &[(&str, &str)] = &[
    (r"A sub B\nB sub C", "C"),
    (r"Manager sub Employee\nEmployee sub Staff", "Staff"),
    ("A sub B", "B"),
];

/// Relations asserts draw from: body relations of every OMQ plus noise.
const RELS: &[&str] = &["A", "B", "C", "Manager", "Employee", "Staff"];

/// Parses an `"ok"` query response with the *verifier's own* JSON
/// parser, checks the embedded certificate with [`verify_value`], and
/// checks the verified answer tuples are exactly the response's
/// `"answers"`. Returns the verification report (for snapshot checks).
fn check_certified(response: &str) -> Verified {
    let doc = cjson::parse(response).unwrap_or_else(|e| panic!("bad JSON ({e}): {response}"));
    let Value::Obj(obj) = &doc else {
        panic!("response is not an object: {response}")
    };
    assert_eq!(
        obj.get("status").and_then(Value::as_str),
        Some("ok"),
        "unexpected failure response: {response}"
    );
    let mut want: Vec<Vec<String>> = obj
        .get("answers")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("no answers array in {response}"))
        .iter()
        .map(|row| {
            row.as_arr()
                .expect("answer tuple is an array")
                .iter()
                .map(|t| t.as_str().expect("answer term is a string").to_owned())
                .collect()
        })
        .collect();
    let cert = obj
        .get("certificate")
        .unwrap_or_else(|| panic!("certified response has no certificate: {response}"));
    let verified =
        verify_value(cert).unwrap_or_else(|e| panic!("certificate rejected ({e}): {response}"));
    let mut got = verified.answers.clone();
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "verified answers diverge from response answers: {response}"
    );
    verified
}

/// An in-memory serving session with the given view-registry capacity.
fn session(max_views: usize) -> ServeSession {
    ServeSession::with_config(ServeConfig {
        threads: 1,
        max_views,
        ..ServeConfig::default()
    })
}

// ---------------------------------------------------------------------
// Path 1: one-shot fixpoint over a request ABox.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every certified plain-ABox answer verifies standalone, and a
    /// request-ABox certificate binds to no session position.
    #[test]
    fn plain_abox_certificates_verify(
        facts in vec((0u8..RELS.len() as u8, 0u8..10), 0..12),
        omq in 0u8..OMQS.len() as u8,
    ) {
        let mut s = session(0);
        let abox: Vec<String> = facts
            .iter()
            .map(|&(r, k)| format!("{}(k{k})", RELS[r as usize]))
            .collect();
        let (ontology, query) = OMQS[omq as usize];
        let line = format!(
            r#"{{"ontology": "{ontology}", "query": "{query}", "abox": "{}", "certificate": true}}"#,
            abox.join(r"\n")
        );
        let verified = check_certified(&s.handle_line(&line));
        prop_assert!(verified.snapshot.is_none(), "request-ABox cert claims a session binding");
        // The certificate's goal is the *rewriting's* goal relation
        // (e.g. "_goal"), not the user-facing query name.
        prop_assert!(!verified.goal.is_empty());
    }
}

// ---------------------------------------------------------------------
// Paths 1+2 together: session queries, views on vs. off.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Assert(Vec<(u8, u8)>),
    Mark,
    Rollback(u8),
    Query(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let assert_op = || vec((0u8..RELS.len() as u8, 0u8..12), 1..4).prop_map(Op::Assert);
    let query_op = || (0u8..OMQS.len() as u8).prop_map(Op::Query);
    prop_oneof![
        assert_op(),
        assert_op(),
        Just(Op::Mark),
        (0u8..8).prop_map(Op::Rollback),
        query_op(),
        query_op(),
    ]
}

/// Renders ops into request lines (every query certified). Mark ids and
/// store lengths are simulated client-side so rollbacks name live marks
/// — same bookkeeping as `ivm_props::script_lines`.
fn script_lines(ops: &[Op]) -> Vec<String> {
    let mut store: Vec<String> = Vec::new();
    let mut marks: Vec<(u64, usize)> = Vec::new();
    let mut next_mark = 0u64;
    let mut q = 0usize;
    let mut lines = Vec::new();
    for op in ops {
        match op {
            Op::Assert(batch) => {
                let mut parts = Vec::new();
                for &(r, k) in batch {
                    let fact = format!("{}(k{k})", RELS[r as usize % RELS.len()]);
                    if !store.contains(&fact) {
                        store.push(fact.clone());
                    }
                    parts.push(fact);
                }
                lines.push(format!(
                    r#"{{"op": "assert", "abox": "{}"}}"#,
                    parts.join(r"\n")
                ));
            }
            Op::Mark => {
                marks.push((next_mark, store.len()));
                next_mark += 1;
                lines.push(r#"{"op": "mark"}"#.to_owned());
            }
            Op::Rollback(i) => {
                if marks.is_empty() {
                    continue;
                }
                let (id, len) = marks[*i as usize % marks.len()];
                store.truncate(len);
                marks.retain(|&(_, l)| l <= len);
                lines.push(format!(r#"{{"op": "rollback", "mark": {id}}}"#));
            }
            Op::Query(i) => {
                let (ontology, query) = OMQS[*i as usize % OMQS.len()];
                q += 1;
                lines.push(format!(
                    r#"{{"id": "q{q}", "ontology": "{ontology}", "query": "{query}", "session": true, "certificate": true}}"#
                ));
            }
        }
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random session scripts where *every* query asks for a
    /// certificate: on the maintained-view path (tiny LRU cap, so
    /// eviction, recording rebuild and rollback maintenance all happen)
    /// and on the views-off from-scratch path, every answer verifies
    /// standalone, the two paths agree tuple-for-tuple, and both bind
    /// to the same session position.
    #[test]
    fn session_certificates_verify_on_both_paths(ops in vec(op_strategy(), 1..32)) {
        let lines = script_lines(&ops);
        let mut on = session(2);
        let mut off = session(0);
        for line in &lines {
            let a = on.handle_line(line);
            let b = off.handle_line(line);
            if !line.contains("\"certificate\": true") {
                continue;
            }
            let va = check_certified(&a);
            let vb = check_certified(&b);
            let mut maintained = va.answers.clone();
            maintained.sort();
            let mut recomputed = vb.answers.clone();
            recomputed.sort();
            prop_assert_eq!(
                maintained, recomputed,
                "certified answers diverge between maintained and recompute on {}", line
            );
            // In-memory sessions journal nothing, so the binding is
            // (lsn 0, live base size) — identical mutations, identical
            // position on both paths.
            prop_assert!(va.snapshot.is_some(), "session cert must bind to a position");
            prop_assert_eq!(&va.snapshot, &vb.snapshot, "paths bind to different positions");
        }
    }
}

// ---------------------------------------------------------------------
// Path 3: the bitset type kernel, which serves every uncertified
// request. It materializes no facts and so cannot witness its answers;
// the certified engine path must agree with it answer for answer and
// carry a certificate that verifies.
// ---------------------------------------------------------------------

#[test]
fn typed_kernel_certificates_verify() {
    use gomq_core::parse::parse_instance;
    use gomq_core::{Term, Vocab};
    use gomq_dl::parser::parse_ontology;
    use gomq_dl::translate::to_gf;
    use gomq_engine::{Certify, Input, Options};
    use std::sync::Mutex;

    let mut v = Vocab::new();
    let engine = Engine::with_threads(1);
    let dl = parse_ontology(
        "Manager sub Employee\nEmployee sub Staff\nManager sub ex ReportsTo.Employee\n",
        &mut v,
    )
    .unwrap();
    let o = to_gf(&dl);
    let staff = v.find_rel("Staff").unwrap();
    let (plan, _, _) = engine.plan(&o, staff, &mut v);
    let plan = plan.unwrap();
    let abox = parse_instance(
        "Manager(ada)\nEmployee(grace)\nReportsTo(grace,ada)\n",
        &mut v,
    )
    .unwrap();
    let mut kernel = engine
        .answer(&plan, Input::One(abox.store()), &Options::default())
        .expect("uncertified answering succeeds");
    let kernel_answers: Vec<Term> = kernel.answers.remove(0);
    assert!(kernel.stats.rounds > 0, "the kernel ran");
    let vocab = Mutex::new(v);
    let opts = Options {
        budget: Budget::UNLIMITED,
        certify: Some(Certify {
            vocab: &vocab,
            snapshot: None,
        }),
    };
    let mut answered = engine
        .answer(&plan, Input::One(abox.store()), &opts)
        .expect("certified answering succeeds");
    let answers = answered.answers.remove(0);
    let cert = answered.certificate.expect("certificate requested");
    assert_eq!(answers, kernel_answers, "certified path changed answers");
    assert_eq!(answered.stats.cert_bytes, cert.len());
    let verified = gomq_cert::verify(&cert).expect("kernel certificate verifies");
    assert_eq!(verified.answers.len(), answers.len());
    assert!(verified.snapshot.is_none());
}

// ---------------------------------------------------------------------
// Crash consistency: SIGKILL + WAL replay.
// ---------------------------------------------------------------------

/// Acceptance: a killed-and-recovered session answers every remaining
/// certified query with a certificate that (a) verifies standalone and
/// (b) carries the *same* answers and `(lsn, base)` binding as an
/// uninterrupted run — FactIds and LSNs are deterministic across
/// replay, so the binding survives the crash byte-for-byte.
#[test]
fn certificates_survive_sigkill_and_replay() {
    let extra = [
        "--threads",
        "1",
        "--snapshot-every",
        "3",
        "--max-views",
        "4",
    ];
    let ontology = r"A sub B\nB sub C";
    let query = |id: usize| {
        format!(
            r#"{{"id": "q{id}", "ontology": "{ontology}", "query": "C", "session": true, "certificate": true}}"#
        )
    };
    let assert_line = |facts: &str| format!(r#"{{"op": "assert", "abox": "{facts}"}}"#);
    let lines = vec![
        assert_line(r"A(x0)\nB(y0)"),
        query(0), // builds + registers the recording materialization
        assert_line("A(x1)"),
        query(1), // maintained hit, certified from the synced view
        r#"{"op": "mark"}"#.to_owned(),
        assert_line(r"A(x2)\nA(x3)"),
        query(2), // hot at the kill point
        // ---- kill point: 7 acknowledged requests ----
        r#"{"op": "rollback", "mark": 0}"#.to_owned(),
        query(3), // certified after rollback maintenance
        assert_line("A(x4)"),
        query(4),
    ];
    let kill_after = 7;

    let run = |dir: &std::path::Path, kill: bool| -> Vec<(Vec<Vec<String>>, Option<Snapshot>)> {
        let mut reports = Vec::new();
        let mut serve = Some(Serve::spawn(dir, &extra));
        for (i, line) in lines.iter().enumerate() {
            if kill && i == kill_after {
                serve.take().expect("server running").kill();
                serve = Some(Serve::spawn(dir, &extra));
            }
            let response = serve.as_mut().expect("server running").request(line);
            if line.contains("\"certificate\": true") {
                let verified = check_certified(&response);
                assert!(
                    verified.snapshot.is_some(),
                    "durable session cert must bind to a position: {response}"
                );
                let mut answers = verified.answers;
                answers.sort();
                reports.push((answers, verified.snapshot));
            }
        }
        serve.take().expect("server running").finish();
        reports
    };

    let base_dir = ScratchDir::new("cert-base");
    let base = run(&base_dir, false);
    assert_eq!(base.len(), 5, "the script poses five certified queries");
    let kill_dir = ScratchDir::new("cert-kill");
    let got = run(&kill_dir, true);
    assert_eq!(
        got, base,
        "certified answers or snapshot bindings diverged after SIGKILL + replay"
    );
}
