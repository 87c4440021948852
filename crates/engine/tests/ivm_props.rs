//! Property tests for incremental view maintenance: random session
//! scripts (asserts, marks, rollbacks, session queries) driven through
//! a views-on serving session must answer every query identically to a
//! views-off oracle that recomputes each fixpoint from scratch — in
//! memory, and across a drop-and-recover restart over the same WAL.
//! The same scripts drive a durable primary whose every journaled frame
//! is applied to a follower, which must answer like its primary. A
//! separate binary-level test SIGKILLs `gomq-serve` with an active
//! materialization and checks the recovered session answers
//! byte-identically.

mod common;

use common::{ScratchDir, Serve};
use gomq_engine::json::{self, Json};
use gomq_engine::repl::{apply_record, Role};
use gomq_engine::{ServeConfig, ServeSession, ServeShared, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// The OMQ pool: three distinct plans so a small view cap sees LRU
/// eviction and rebuild, not just steady-state hits.
const OMQS: &[(&str, &str)] = &[
    (r"A sub B\nB sub C", "C"),
    (r"Manager sub Employee\nEmployee sub Staff", "Staff"),
    ("A sub B", "B"),
];

/// Relations the asserts draw from: every OMQ sees base facts both of
/// its body relations and of unrelated ones.
const RELS: &[&str] = &["A", "B", "C", "Manager", "Employee", "Staff"];

#[derive(Clone, Debug)]
enum Op {
    /// Assert a small batch of `REL(k<n>)` facts (duplicates allowed).
    Assert(Vec<(u8, u8)>),
    /// Take a rollback mark.
    Mark,
    /// Roll back to a previously taken mark (index into the valid ones).
    Rollback(u8),
    /// Pose OMQ `i` with `"session": true`.
    Query(u8),
}

fn assert_op() -> impl Strategy<Value = Op> {
    vec((0u8..RELS.len() as u8, 0u8..12), 1..4).prop_map(Op::Assert)
}

fn query_op() -> impl Strategy<Value = Op> {
    (0u8..OMQS.len() as u8).prop_map(Op::Query)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's prop_oneof! has no weighted arms; repeating an arm
    // biases the stream toward asserts and queries.
    prop_oneof![
        assert_op(),
        assert_op(),
        Just(Op::Mark),
        (0u8..8).prop_map(Op::Rollback),
        query_op(),
        query_op(),
    ]
}

/// Renders the ops into concrete request lines. Mark ids and store
/// lengths are deterministic (ids count up from 0; asserts dedup in
/// insertion order; rollback truncates), so the valid-mark bookkeeping
/// is simulated client-side and every rollback names a live mark.
fn script_lines(ops: &[Op]) -> Vec<String> {
    let mut store: Vec<String> = Vec::new(); // unique facts, insertion order
    let mut marks: Vec<(u64, usize)> = Vec::new(); // valid (id, len)
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
                    r#"{{"id": "q{q}", "ontology": "{ontology}", "query": "{query}", "session": true}}"#
                ));
            }
        }
    }
    lines
}

/// An in-memory serving session with the given view-registry capacity.
fn session(max_views: usize) -> ServeSession {
    ServeSession::with_config(ServeConfig {
        threads: 1,
        max_views,
        ..ServeConfig::default()
    })
}

/// The `"answers"` of an `"ok"` query response; `None` for failures.
fn query_answers(response: &str) -> Option<Json> {
    let parsed = json::parse(response).unwrap_or_else(|e| panic!("bad JSON ({e}): {response}"));
    let Json::Obj(obj) = parsed else {
        panic!("response is not an object: {response}")
    };
    match obj.get("status").and_then(Json::as_str) {
        Some("ok") => Some(
            obj.get("answers")
                .cloned()
                .expect("query response has answers"),
        ),
        _ => None,
    }
}

/// Feeds identical lines to the maintained session and the recompute
/// oracle; every session query must agree.
fn drive_and_compare(lines: &[String], on: &mut ServeSession, off: &mut ServeSession) {
    compare_queries(
        lines,
        |line| on.handle_line(line),
        |line| off.handle_line(line),
    );
}

/// Feeds every line to `on`, then to `oracle`; the two must answer
/// every session query alike.
fn compare_queries(
    lines: &[String],
    mut on: impl FnMut(&str) -> String,
    mut oracle: impl FnMut(&str) -> String,
) {
    for line in lines {
        let a = on(line);
        let b = oracle(line);
        if !line.contains("\"session\": true") {
            continue;
        }
        let expect = query_answers(&b).expect("oracle query must succeed");
        let got = query_answers(&a).expect("query must succeed");
        assert_eq!(
            got, expect,
            "answers diverged from the oracle on {line}\nanswer: {a}\noracle: {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: a session whose queries are answered by
    /// counting-DRed maintained views (with a deliberately tiny LRU cap,
    /// so eviction and rebuild happen too) agrees with full recompute on
    /// every query of every random script.
    #[test]
    fn maintained_answers_match_recompute(ops in vec(op_strategy(), 1..32)) {
        let lines = script_lines(&ops);
        let mut on = session(2);
        let mut off = session(0);
        drive_and_compare(&lines, &mut on, &mut off);
    }

    /// Same invariant across a restart: the script is split, the durable
    /// views-on session is dropped mid-stream, and a fresh session
    /// recovered from the snapshot + WAL (with an empty view registry)
    /// must keep agreeing with an uninterrupted in-memory oracle.
    #[test]
    fn maintained_views_agree_after_wal_replay(
        ops in vec(op_strategy(), 1..24),
        split in 0usize..24,
    ) {
        let lines = script_lines(&ops);
        let split = split.min(lines.len());
        let dir = ScratchDir::new("ivm-replay");
        let durable = |_tag: &str| ServeSession::with_config(ServeConfig {
            threads: 1,
            max_views: 2,
            data_dir: Some(dir.to_path_buf()),
            snapshot_every: 3,
            ..ServeConfig::default()
        });
        let mut off = session(0);
        {
            let mut on = durable("a");
            drive_and_compare(&lines[..split], &mut on, &mut off);
        } // dropped: recovery must rebuild from snapshot + WAL alone
        let mut on = durable("b");
        drive_and_compare(&lines[split..], &mut on, &mut off);
        drop(on);
    }

    /// A follower applies every frame its primary journals through
    /// `apply_record`, the replication stream's apply call, before each
    /// of its reads; it must answer every session query of every random
    /// script like the primary does — rollbacks, view eviction and its
    /// own snapshots included. The primary never snapshots, so its log
    /// holds every frame it journaled.
    #[test]
    fn follower_answers_match_primary(ops in vec(op_strategy(), 1..32)) {
        let lines = script_lines(&ops);
        let (primary_dir, follower_dir) =
            (ScratchDir::new("ivm-primary"), ScratchDir::new("ivm-follower"));
        let durable = |dir: &ScratchDir, snapshot_every| ServeConfig {
            threads: 1,
            max_views: 2,
            data_dir: Some(dir.to_path_buf()),
            snapshot_every,
            ..ServeConfig::default()
        };
        let mut primary = ServeSession::with_config(durable(&primary_dir, 0));
        let follower = Arc::new(ServeShared::with_config(durable(&follower_dir, 3)));
        follower.repl().set_role(Role::Follower);
        let mut reads = ServeSession::with_shared(Arc::clone(&follower));
        let wal = primary_dir.join("wal.log");
        let mut shipped = 0; // bytes of the primary's log applied so far
        compare_queries(&lines, |line| primary.handle_line(line), |line| {
            let log = std::fs::read(&wal).expect("the primary's log");
            while shipped < log.len() {
                let (lsn, record, len) =
                    WalRecord::decode_frame(&log[shipped..]).expect("an intact frame");
                assert_eq!(apply_record(&follower, lsn, &record), Ok(true));
                shipped += len;
            }
            reads.handle_line(line)
        });
    }
}

/// The raw `"answers": [...]` bytes of a query response, so restart
/// equivalence is judged byte-for-byte, not just structurally.
fn raw_answers(response: &str) -> String {
    let start = response
        .find("\"answers\": ")
        .unwrap_or_else(|| panic!("no answers in {response}"));
    let end = response
        .find(", \"stats\"")
        .unwrap_or_else(|| panic!("no stats in {response}"));
    response[start..end].to_owned()
}

/// Acceptance: a server with an *active materialization* (a maintained
/// view serving repeat queries) is SIGKILLed and restarted over the same
/// data directory; the recovered session must answer every remaining
/// query byte-identically to an uninterrupted run.
#[test]
fn maintained_views_survive_sigkill_and_replay() {
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
        format!(r#"{{"id": "q{id}", "ontology": "{ontology}", "query": "C", "session": true}}"#)
    };
    let assert_line = |facts: &str| format!(r#"{{"op": "assert", "abox": "{facts}"}}"#);
    let lines = vec![
        assert_line(r"A(x0)\nB(y0)"),
        query(0), // builds + registers the materialization
        assert_line("A(x1)"),
        query(1), // maintained hit
        r#"{"op": "mark"}"#.to_owned(),
        assert_line(r"A(x2)\nA(x3)"),
        query(2), // maintained hit, view is hot at the kill point
        // ---- kill point: 7 acknowledged requests ----
        r#"{"op": "rollback", "mark": 0}"#.to_owned(),
        query(3),
        assert_line("A(x4)"),
        query(4),
    ];
    let kill_after = 7;

    let run = |dir: &std::path::Path, kill: bool| -> Vec<String> {
        let mut answers = Vec::new();
        let mut serve = Some(Serve::spawn(dir, &extra));
        for (i, line) in lines.iter().enumerate() {
            if kill && i == kill_after {
                serve.take().expect("server running").kill();
                serve = Some(Serve::spawn(dir, &extra));
            }
            let response = serve.as_mut().expect("server running").request(line);
            if line.contains("\"session\": true") {
                answers.push(raw_answers(&response));
            }
        }
        serve.take().expect("server running").finish();
        answers
    };

    let base_dir = ScratchDir::new("ivm-base");
    let base = run(&base_dir, false);
    assert_eq!(base.len(), 5, "the script poses five queries");
    let kill_dir = ScratchDir::new("ivm-kill");
    let got = run(&kill_dir, true);
    assert_eq!(
        got, base,
        "recovered session answers diverged byte-for-byte after SIGKILL"
    );
}
