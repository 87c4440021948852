//! Chaos-build check for incremental view maintenance: with panic
//! faults injected at the `ivm.apply` seam (the entry of every view
//! sync and rollback maintenance), a views-on session must never
//! answer a query *wrongly* — a fault either surfaces as an isolated
//! `"status": "error"` (sync path, view dropped and rebuilt next time)
//! or is swallowed by the rollback fence (view dropped) — and every
//! `"ok"` answer must still equal full recompute.
//!
//! This lives in its own integration binary because the fault plan is
//! process-global: installing it next to the fault-free `ivm_props`
//! cases would poison their assertions.

#![cfg(feature = "chaos")]

use gomq_engine::faults::{self, FaultKind, FaultPlan, IVM_APPLY};
use gomq_engine::json::{self, Json};
use gomq_engine::{Counter, ServeConfig, ServeSession};

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

fn session(max_views: usize) -> ServeSession {
    ServeSession::with_config(ServeConfig {
        threads: 1,
        max_views,
        ..ServeConfig::default()
    })
}

#[test]
fn ivm_faults_never_corrupt_answers() {
    let ontology = r"A sub B\nB sub C";
    let query = |id: usize| {
        format!(r#"{{"id": "q{id}", "ontology": "{ontology}", "query": "C", "session": true}}"#)
    };
    // A deterministic mixed script: asserts and queries with a mark /
    // rollback cycle, long enough for period-3 faults to fire often.
    let mut lines = Vec::new();
    for round in 0..12 {
        lines.push(format!(r#"{{"op": "assert", "abox": "A(x{round})"}}"#));
        if round == 4 {
            lines.push(r#"{"op": "mark"}"#.to_owned());
        }
        if round == 8 {
            lines.push(r#"{"op": "rollback", "mark": 0}"#.to_owned());
        }
        lines.push(query(round));
    }

    for seed in [1u64, 7, 42] {
        faults::install(FaultPlan::new(seed).rule(IVM_APPLY, FaultKind::Panic, 3));
        let mut on = session(4);
        let mut off = session(0); // never touches the IVM_APPLY seam
        let mut ok_answers = 0u64;
        let mut isolated = 0u64;
        for line in &lines {
            let a = on.handle_line(line);
            let b = off.handle_line(line);
            if !line.contains("\"session\": true") {
                continue;
            }
            let expect = query_answers(&b).expect("recompute oracle must succeed");
            match query_answers(&a) {
                Some(got) => {
                    assert_eq!(
                        got, expect,
                        "maintained answers diverged under ivm.apply faults (seed {seed}) \
                         on {line}\nmaintained: {a}\nrecompute: {b}"
                    );
                    ok_answers += 1;
                }
                None => isolated += 1, // fault fired mid-sync, fence held
            }
        }
        faults::uninstall();
        assert!(
            ok_answers > 0,
            "seed {seed}: every query faulted — the drop-and-rebuild path never ran"
        );
        // The engine's own telemetry saw the injected faults (directly as
        // error responses or swallowed by the rollback maintenance fence).
        let stats = on.engine().stats();
        assert!(
            isolated == 0 || stats[Counter::Panics] > 0 || stats[Counter::FaultsInjected] > 0,
            "isolated failures must be visible in the engine totals"
        );
    }
}
