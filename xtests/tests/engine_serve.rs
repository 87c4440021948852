//! Cross-crate integration: the `gomq-engine` serving layer round-trips
//! JSONL requests end-to-end and agrees with the research pipeline.

use gomq_bench::{horn_chain_ontology, propagation_instance};
use gomq_core::Vocab;
use gomq_engine::{Counter, Engine, Input, Options, ServeSession};
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::ElementTypeSystem;

/// The serve session answers a stream of JSONL requests, caching the
/// plan across requests that pose the same OMQ in different sentence
/// orders, and isolating errors per line.
#[test]
fn jsonl_session_roundtrip() {
    let mut s = ServeSession::with_threads(2);
    let r1 = s.handle_line(
        r#"{"id": "a", "ontology": "Manager sub Employee\nEmployee sub Staff", "query": "Staff", "abox": "Manager(ada)\nEmployee(grace)\nStaff(alan)"}"#,
    );
    assert!(r1.contains(r#""status": "ok""#), "{r1}");
    assert!(r1.contains(r#""cached": false"#), "{r1}");
    for who in ["ada", "grace", "alan"] {
        assert!(r1.contains(&format!(r#"["{who}"]"#)), "{r1}");
    }
    // Same OMQ, reordered axioms, new ABox: the plan is reused.
    let r2 = s.handle_line(
        r#"{"id": "b", "ontology": "Employee sub Staff\nManager sub Employee", "query": "Staff", "abox": "Manager(bob)"}"#,
    );
    assert!(r2.contains(r#""cached": true"#), "{r2}");
    assert!(r2.contains(r#"["bob"]"#), "{r2}");
    // A bad line reports an error without poisoning the session.
    let r3 = s.handle_line("not json at all");
    assert!(r3.contains(r#""status": "error""#), "{r3}");
    let r4 =
        s.handle_line(r#"{"ontology": "A sub B", "query": "B", "aboxes": ["A(x)", "A(y)\nB(z)"]}"#);
    assert!(
        r4.contains(r#""batches": [[["x"]], [["y"], ["z"]]]"#),
        "{r4}"
    );
    let stats = s.engine().stats();
    assert_eq!(stats[Counter::CacheHits], 1);
    assert_eq!(stats[Counter::CacheMisses], 2);
}

/// On the Theorem-7 horn-chain workload, the cached engine plan answers
/// exactly what the research pipeline (type system + emitted program)
/// answers — across instance sizes and across cache-hit re-evaluation.
#[test]
fn engine_agrees_with_research_pipeline_on_horn_chain() {
    let mut v = Vocab::new();
    let (o, names, r) = horn_chain_ontology(3, &mut v);
    let query = names[3];
    let engine = Engine::with_threads(2);
    let (plan, hit, _) = engine.plan(&o, query, &mut v);
    let plan = plan.expect("horn chains are rewritable");
    assert!(!hit);
    assert!(plan.report.type_rewritable);
    let sys = ElementTypeSystem::build(&o, &v).expect("supported");
    let program = emit_datalog(&sys, query, &mut v);
    for len in [5usize, 20, 60] {
        let d = propagation_instance(len, names[0], r, &mut v);
        // The program's goal is unary: one term per answer, in order.
        let reference: Vec<_> = program.eval(&d).into_iter().flatten().collect();
        let answered = engine
            .answer(&plan, Input::One(d.store()), &Options::default())
            .unwrap();
        assert_eq!(answered.answers[0], reference, "len {len}");
        assert!(answered.stats.rounds > 0);
        // Cache hit path: same plan, same answers.
        let (plan2, hit2, _) = engine.plan(&o, query, &mut v);
        assert!(hit2);
        let again = engine
            .answer(&plan2.unwrap(), Input::One(d.store()), &Options::default())
            .unwrap();
        assert_eq!(
            again.answers[0], reference,
            "cache-hit re-evaluation, len {len}"
        );
    }
}
