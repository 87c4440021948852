//! Cross-engine property tests: the chase, the type-elimination
//! rewriting and the SAT-based countermodel search must agree wherever
//! their soundness domains overlap — and `gomq-serve`'s answers, on
//! every serving path, must be the certain answers.

use gomq_core::query::CqBuilder;
use gomq_core::{Fact, Instance, Term, Ucq, Vocab};
use gomq_dl::concept::{Concept, Role};
use gomq_dl::translate::to_gf;
use gomq_dl::DlOntology;
use gomq_engine::json::{self, Json};
use gomq_engine::{ServeConfig, ServeSession};
use gomq_logic::eval::satisfies_ontology;
use gomq_reasoning::chase::{chase, ChaseConfig};
use gomq_reasoning::CertainEngine;
use gomq_rewriting::types::ElementTypeSystem;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Random Horn-ALC ontologies over a tiny signature: conjunctions of
/// axioms `A ⊑ B`, `A ⊑ ∃R.B`, `A ⊑ ∀R.B` (no disjunction, no negation —
/// always materializable; acyclic name usage keeps the chase finite).
#[derive(Clone, Debug)]
enum HornAxiom {
    Sub(u8, u8),
    Exists(u8, u8),
    Forall(u8, u8),
}

type HornCase = (Vec<HornAxiom>, Vec<(usize, usize)>, Vec<(usize, u8)>);

fn horn_strategy() -> impl Strategy<Value = HornCase> {
    (
        prop::collection::vec(
            prop_oneof![
                (0u8..4, 0u8..4).prop_map(|(a, b)| HornAxiom::Sub(a, b)),
                (0u8..4, 0u8..4).prop_map(|(a, b)| HornAxiom::Exists(a, b)),
                (0u8..4, 0u8..4).prop_map(|(a, b)| HornAxiom::Forall(a, b)),
            ],
            1..4,
        ),
        prop::collection::vec((0usize..3, 0usize..3), 0..4),
        prop::collection::vec((0usize..3, 0u8..4), 1..4),
    )
}

fn realize(
    axioms: &[HornAxiom],
    edges: &[(usize, usize)],
    labels: &[(usize, u8)],
    v: &mut Vocab,
) -> (gomq_logic::GfOntology, Instance, Vec<gomq_core::RelId>) {
    let names: Vec<_> = (0..4).map(|i| v.rel(&format!("N{i}"), 1)).collect();
    let r = v.rel("Rx", 2);
    let mut dl = DlOntology::new();
    for ax in axioms {
        match ax {
            // Only "forward" subsumptions a < b keep the chase acyclic.
            HornAxiom::Sub(a, b) => {
                let (a, b) = (*a.min(b) as usize, *a.max(b) as usize);
                if a != b {
                    dl.sub(Concept::Name(names[a]), Concept::Name(names[b]));
                }
            }
            HornAxiom::Exists(a, b) => {
                let (a, b) = (*a.min(b) as usize, *a.max(b) as usize);
                if a != b {
                    dl.sub(
                        Concept::Name(names[a]),
                        Concept::Exists(Role::new(r), Box::new(Concept::Name(names[b]))),
                    );
                }
            }
            HornAxiom::Forall(a, b) => {
                let (a, b) = (*a.min(b) as usize, *a.max(b) as usize);
                if a != b {
                    dl.sub(
                        Concept::Name(names[a]),
                        Concept::Forall(Role::new(r), Box::new(Concept::Name(names[b]))),
                    );
                }
            }
        }
    }
    let consts: Vec<_> = (0..3).map(|i| v.constant(&format!("e{i}"))).collect();
    let mut d = Instance::new();
    for &(a, b) in edges {
        if a != b {
            d.insert(Fact::consts(r, &[consts[a], consts[b]]));
        }
    }
    for &(a, n) in labels {
        d.insert(Fact::consts(names[n as usize], &[consts[a]]));
    }
    (to_gf(&dl), d, names)
}

/// The ontology [`realize`] builds, as `gomq-serve` DL text.
fn horn_text(axioms: &[HornAxiom]) -> String {
    let mut text = String::new();
    for ax in axioms {
        let (a, b, shape) = match ax {
            HornAxiom::Sub(a, b) => (a, b, ""),
            HornAxiom::Exists(a, b) => (a, b, "ex Rx."),
            HornAxiom::Forall(a, b) => (a, b, "all Rx."),
        };
        let (a, b) = (a.min(b), a.max(b));
        if a != b {
            text.push_str(&format!("N{a} sub {shape}N{b}\n"));
        }
    }
    text
}

/// The answer names of one `"answers"` array.
fn answer_names(answers: &Json) -> BTreeSet<String> {
    answers
        .as_arr()
        .expect("answers are an array")
        .iter()
        .map(|t| match t.as_arr() {
            Some([Json::Str(c)]) => c.clone(),
            other => panic!("unexpected answer tuple {other:?}"),
        })
        .collect()
}

/// Sends one request line and returns the parsed `"ok"` response.
fn serve(s: &mut ServeSession, line: &str) -> std::collections::BTreeMap<String, Json> {
    let resp = s.handle_line(line);
    match json::parse(&resp) {
        Ok(Json::Obj(o)) if o.get("status").and_then(Json::as_str) == Some("ok") => o,
        _ => panic!("request {line} failed: {resp}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chase_and_engine_agree_on_horn((axioms, edges, labels) in horn_strategy()) {
        let mut v = Vocab::new();
        let (o, d, names) = realize(&axioms, &edges, &labels, &mut v);
        let Ok(result) = chase(&o, &d, &mut v, ChaseConfig::default()) else {
            // Chase did not terminate within budget: skip this case.
            return Ok(());
        };
        let engine = CertainEngine::new(2);
        // Compare certain answers to every atomic query.
        for &rel in &names {
            let mut b = CqBuilder::new();
            let x = b.var("x");
            b.atom(rel, &[x]);
            let q = Ucq::from_cq(b.build(vec![x]));
            let from_chase = result.certain_answers(&q, &d);
            let from_engine = engine.certain_answers(&o, &d, &q, &mut v);
            prop_assert_eq!(&from_chase, &from_engine, "relation {:?}", rel);
        }
    }

    #[test]
    fn types_and_engine_agree_on_horn((axioms, edges, labels) in horn_strategy()) {
        let mut v = Vocab::new();
        let (o, d, names) = realize(&axioms, &edges, &labels, &mut v);
        let Ok(sys) = ElementTypeSystem::build(&o, &v) else {
            return Ok(());
        };
        let engine = CertainEngine::new(2);
        for &rel in &names {
            let from_types = sys.certain_unary(&d, rel);
            let mut b = CqBuilder::new();
            let x = b.var("x");
            b.atom(rel, &[x]);
            let q = Ucq::from_cq(b.build(vec![x]));
            let from_engine: std::collections::BTreeSet<Term> = engine
                .certain_answers(&o, &d, &q, &mut v)
                .into_iter()
                .map(|t| t[0])
                .collect();
            prop_assert_eq!(&from_types, &from_engine, "relation {:?}", rel);
        }
    }

    #[test]
    fn chase_leaves_model_the_ontology((axioms, edges, labels) in horn_strategy()) {
        let mut v = Vocab::new();
        let (o, d, _) = realize(&axioms, &edges, &labels, &mut v);
        if let Ok(result) = chase(&o, &d, &mut v, ChaseConfig::default()) {
            for leaf in &result.leaves {
                prop_assert!(satisfies_ontology(leaf, &o));
                prop_assert!(leaf.models_instance(&d));
            }
        }
    }

    #[test]
    fn countermodels_are_genuine((axioms, edges, labels) in horn_strategy()) {
        let mut v = Vocab::new();
        let (o, d, names) = realize(&axioms, &edges, &labels, &mut v);
        let engine = CertainEngine::new(1);
        let rel = names[0];
        let mut b = CqBuilder::new();
        let x = b.var("x");
        b.atom(rel, &[x]);
        let q = Ucq::from_cq(b.build(vec![x]));
        for elem in d.dom() {
            if let gomq_reasoning::CertainOutcome::NotCertain(m) =
                engine.certain(&o, &d, &q, &[elem], &mut v)
            {
                prop_assert!(satisfies_ontology(&m, &o), "countermodel models O");
                prop_assert!(m.models_instance(&d), "countermodel contains D");
                prop_assert!(!q.holds(&m, &[elem]), "countermodel refutes the query");
            }
        }
    }

    /// The dichotomy-zone half of the semantic oracle: on Horn-ALC
    /// OMQs with ABoxes over the ontology's signature, `gomq-serve`
    /// answers exactly the certain answers of the countermodel engine
    /// on the request-ABox, batch, certified and session paths, with
    /// view maintenance on and off.
    #[test]
    fn served_answers_are_certain_answers((axioms, edges, labels) in horn_strategy()) {
        let mut v = Vocab::new();
        let (o, d, names) = realize(&axioms, &edges, &labels, &mut v);
        let sig = o.sig();
        let d = d.reduct(&sig);
        let ontology = horn_text(&axioms);
        let mut abox = String::new();
        for f in d.sorted_facts() {
            let args: Vec<&str> = f
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(c) => v.const_name(*c),
                    other => panic!("ABox term {other:?} is not a constant"),
                })
                .collect();
            abox.push_str(&format!("{}({})\n", v.rel_name(f.rel), args.join(",")));
        }
        let engine = CertainEngine::new(2);
        let certain: Vec<(String, BTreeSet<String>)> = names
            .iter()
            .filter(|rel| sig.contains(rel))
            .map(|&rel| {
                let mut b = CqBuilder::new();
                let x = b.var("x");
                b.atom(rel, &[x]);
                let q = Ucq::from_cq(b.build(vec![x]));
                let answers = engine
                    .certain_answers(&o, &d, &q, &mut v)
                    .into_iter()
                    .map(|t| match t.as_slice() {
                        [Term::Const(c)] => v.const_name(*c).to_owned(),
                        other => panic!("unexpected certain answer {other:?}"),
                    })
                    .collect();
                (v.rel_name(rel).to_owned(), answers)
            })
            .collect();
        let quote = |text: &str| {
            let mut out = String::new();
            json::write_str(&mut out, text);
            out
        };
        let (onto, facts) = (quote(&ontology), quote(&abox));
        for max_views in [ServeConfig::default().max_views, 0] {
            let mut s = ServeSession::with_config(ServeConfig {
                threads: 2,
                max_views,
                ..ServeConfig::default()
            });
            serve(&mut s, &format!(r#"{{"op": "assert", "abox": {facts}}}"#));
            for (query, expected) in &certain {
                let head = format!(r#""ontology": {onto}, "query": "{query}""#);
                let one = serve(&mut s, &format!(r#"{{{head}, "abox": {facts}}}"#));
                prop_assert_eq!(&answer_names(&one["answers"]), expected, "abox {}", query);
                let batch = serve(&mut s, &format!(r#"{{{head}, "aboxes": [{facts}, {facts}]}}"#));
                for answers in batch["batches"].as_arr().expect("batches are an array") {
                    prop_assert_eq!(&answer_names(answers), expected, "batch {}", query);
                }
                let certified = serve(
                    &mut s,
                    &format!(r#"{{{head}, "abox": {facts}, "certificate": true}}"#),
                );
                prop_assert_eq!(&answer_names(&certified["answers"]), expected, "certified {}", query);
                // Twice: the second read of a maintained view is a hit.
                for _ in 0..2 {
                    let session = serve(&mut s, &format!(r#"{{{head}, "session": true}}"#));
                    prop_assert_eq!(
                        &answer_names(&session["answers"]),
                        expected,
                        "session {} (max_views {})",
                        query,
                        max_views
                    );
                }
            }
        }
    }
}
