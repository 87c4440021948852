//! Property tests: the engine's indexed, stratified, parallel executor
//! is answer-equivalent to the reference `Program::eval`, the plan's
//! type kernel that serves `Engine::answer` is answer-equivalent to the
//! plan's own Datalog≠ program, and the full cached OMQ path is
//! answer-equivalent to the one-shot classify-emit-eval pipeline —
//! including across cache-hit re-evaluation.

use gomq_core::{Fact, IndexedInstance, Instance, RelId, Term, Vocab};
use gomq_datalog::{DAtom, DTerm, Literal, Program, Rule};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{eval_strata, Budget, Engine, Input, Strata};
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::ElementTypeSystem;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A unary answer set as `Answered` lists it: one term per tuple, in
/// ascending order.
fn listed(tuples: &BTreeSet<Vec<Term>>) -> Vec<Term> {
    tuples
        .iter()
        .map(|t| match t.as_slice() {
            [t] => *t,
            _ => panic!("a served answer is one term, got {t:?}"),
        })
        .collect()
}

/// One randomly drawn rule: `(head_choice, body_atom_specs, neq_flag)`.
type RuleSpec = (u8, Vec<(u8, u32, u32)>, u8);

/// Builds a random but well-formed Datalog≠ program plus instance from
/// integer specs, so every generated case satisfies range restriction
/// and the goal-not-in-body invariant by construction.
fn build_case(rule_specs: &[RuleSpec], fact_specs: &[(u8, u8, u8)]) -> (Vocab, Program, Instance) {
    let mut v = Vocab::new();
    // Body-eligible relations: three unary, three binary, plus three
    // dedicated IDB relations. The goal G is kept out of bodies.
    let mut body_rels: Vec<RelId> = Vec::new();
    for i in 0..3 {
        body_rels.push(v.rel(&format!("U{i}"), 1));
    }
    for i in 0..3 {
        body_rels.push(v.rel(&format!("B{i}"), 2));
    }
    let idb: Vec<RelId> = vec![v.rel("I0", 1), v.rel("I1", 2), v.rel("I2", 1)];
    body_rels.extend(&idb);
    let goal = v.rel("G", 1);
    let consts: Vec<_> = (0..5).map(|i| v.constant(&format!("c{i}"))).collect();

    let mut rules = Vec::new();
    for (head_choice, body_spec, neq_flag) in rule_specs {
        let mut body: Vec<Literal> = Vec::new();
        let mut body_vars: Vec<u32> = Vec::new();
        for &(rel_choice, v1, v2) in body_spec {
            let rel = body_rels[rel_choice as usize % body_rels.len()];
            let args: Vec<u32> = if v.arity(rel) == 1 {
                vec![v1 % 3]
            } else {
                vec![v1 % 3, v2 % 3]
            };
            for &var in &args {
                if !body_vars.contains(&var) {
                    body_vars.push(var);
                }
            }
            body.push(Literal::Pos(DAtom::vars(rel, &args)));
        }
        if *neq_flag % 4 == 0 && body_vars.len() >= 2 {
            body.push(Literal::Neq(
                DTerm::Var(body_vars[0]),
                DTerm::Var(body_vars[1]),
            ));
        }
        // Head: goal for one in four rules, an IDB relation otherwise;
        // head variables are drawn from the body so range restriction
        // holds by construction.
        let head_rel = if *head_choice % 4 == 3 {
            goal
        } else {
            idb[*head_choice as usize % idb.len()]
        };
        let head_args: Vec<u32> = (0..v.arity(head_rel))
            .map(|i| body_vars[i % body_vars.len()])
            .collect();
        rules.push(Rule::new(DAtom::vars(head_rel, &head_args), body));
    }
    let program = Program::new(rules, goal);

    let mut d = Instance::new();
    // EDB facts over every relation, the goal included (goal facts in
    // the input are legal and must surface as answers).
    let mut all_rels = body_rels.clone();
    all_rels.push(goal);
    for &(rel_choice, c1, c2) in fact_specs {
        let rel = all_rels[rel_choice as usize % all_rels.len()];
        let args = if v.arity(rel) == 1 {
            vec![consts[c1 as usize % consts.len()]]
        } else {
            vec![
                consts[c1 as usize % consts.len()],
                consts[c2 as usize % consts.len()],
            ]
        };
        d.insert(Fact::consts(rel, &args));
    }
    (v, program, d)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed + stratified + parallel evaluation answers exactly what
    /// the reference semi-naive evaluator answers, for any thread count,
    /// and stays stable when the cached strata are re-evaluated.
    #[test]
    fn executor_matches_reference_eval(
        rule_specs in proptest::collection::vec(
            (
                proptest::arbitrary::any::<u8>(),
                proptest::collection::vec((0u8..9, 0u32..3, 0u32..3), 1..4),
                proptest::arbitrary::any::<u8>(),
            ),
            1..8,
        ),
        fact_specs in proptest::collection::vec((0u8..10, 0u8..5, 0u8..5), 0..30),
        threads in 1usize..5,
    ) {
        let (_v, program, d) = build_case(&rule_specs, &fact_specs);
        let expected = program.eval(&d);
        let indexed = IndexedInstance::from_interpretation(&d);
        // The strata are what an OmqPlan caches: evaluate twice to model
        // a cache-hit re-evaluation and demand identical answers.
        let strata = Strata::of(&program);
        let (first, stats) = eval_strata(&strata, program.goal, &indexed, threads);
        let (second, _) = eval_strata(&strata, program.goal, &indexed, threads);
        prop_assert_eq!(&first, &expected);
        prop_assert_eq!(&second, &expected);
        prop_assert!(stats.rounds >= strata.strata.len());
    }
}

/// Renders one random Horn ontology text from axiom specs.
fn ontology_text(axioms: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(i, j, kind) in axioms {
        let (a, b) = (i % 4, j % 4);
        match kind % 3 {
            0 => text.push_str(&format!("A{a} sub A{b}\n")),
            1 => text.push_str(&format!("A{a} sub ex R.A{b}\n")),
            _ => text.push_str(&format!("ex R.A{a} sub A{b}\n")),
        }
    }
    text
}

/// Renders one random ABox text (concept and role assertions).
fn abox_text(facts: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(r, c1, c2) in facts {
        match r % 5 {
            4 => text.push_str(&format!("R(c{},c{})\n", c1 % 6, c2 % 6)),
            a => text.push_str(&format!("A{a}(c{})\n", c1 % 6)),
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The full engine path (plan cache + indexed parallel executor)
    /// answers random Horn OMQs exactly like the one-shot
    /// build-emit-eval pipeline, and the second, cache-hit evaluation
    /// returns the same answers.
    #[test]
    fn cached_omq_path_matches_one_shot_pipeline(
        axioms in proptest::collection::vec(
            (0u8..4, 0u8..4, 0u8..3),
            1..6,
        ),
        facts in proptest::collection::vec(
            (proptest::arbitrary::any::<u8>(), 0u8..6, 0u8..6),
            0..15,
        ),
        query_choice in 0u8..4,
    ) {
        let mut v = Vocab::new();
        let dl = parse_ontology(&ontology_text(&axioms), &mut v)
            .expect("generated ontology must parse");
        let o = to_gf(&dl);
        let query = match v.find_rel(&format!("A{}", query_choice % 4)) {
            Some(r) => r,
            // The queried concept does not occur in this ontology draw.
            None => return Ok(()),
        };
        let abox = gomq_core::parse::parse_instance(&abox_text(&facts), &mut v)
            .expect("generated abox must parse");

        let engine = Engine::with_threads(4);
        let (plan1, hit1, _) = engine.plan(&o, query, &mut v);
        match plan1 {
            Ok(plan) => {
                prop_assert!(!hit1);
                // Reference: one-shot pipeline on the same vocabulary.
                let sys = ElementTypeSystem::build(&o, &v)
                    .expect("engine compiled, so the one-shot build must succeed");
                let reference = listed(&emit_datalog(&sys, query, &mut v).eval(&abox));
                let answer = |plan: &gomq_engine::OmqPlan| {
                    engine
                        .answer(plan, Input::One(abox.store()), &Budget::UNLIMITED)
                        .expect("unlimited budget")
                        .answers
                        .remove(0)
                };
                prop_assert_eq!(&answer(&plan), &reference);
                // Cache hit: same plan object, same answers.
                let (plan2, hit2, _) = engine.plan(&o, query, &mut v);
                prop_assert!(hit2);
                prop_assert_eq!(&answer(&plan2.unwrap()), &reference);
            }
            Err(_) => {
                // The engine may only reject what the rewriter rejects.
                prop_assert!(ElementTypeSystem::build(&o, &v).is_err());
            }
        }
    }
}

/// Renders one random ALCHIQ ontology text from axiom specs: concept
/// and existential/universal inclusions over an inverse-capable role,
/// qualified counting in both directions, functionality, role
/// inclusions (plain and inverse) and negation, so drawn ABoxes can be
/// inconsistent.
fn alchiq_text(axioms: &[(u8, u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(i, j, role, kind) in axioms {
        let (a, b) = (i % 4, j % 4);
        let r = ["R", "R-", "S", "S-"][role as usize % 4];
        let line = match kind % 9 {
            0 => format!("A{a} sub A{b}"),
            1 => format!("A{a} sub ex {r}.A{b}"),
            2 => format!("ex {r}.A{a} sub A{b}"),
            3 => format!("A{a} sub all {r}.A{b}"),
            4 => format!("A{a} sub >=2 {r}.A{b}"),
            5 => format!("A{a} sub <=1 {r}.Top"),
            6 => format!("func({r})"),
            7 => format!("role S sub {}", ["R", "R-"][role as usize % 2]),
            _ => format!("A{a} sub not A{b}"),
        };
        text.push_str(&line);
        text.push('\n');
    }
    text
}

/// Renders one random ABox text over the ontology's names plus the
/// out-of-signature `Z` and `T`, self-loops included.
fn alchiq_abox(facts: &[(u8, u8, u8)]) -> String {
    let mut text = String::new();
    for &(r, c1, c2) in facts {
        let (c1, c2) = (c1 % 5, c2 % 5);
        match r % 8 {
            a @ 0..=3 => text.push_str(&format!("A{a}(c{c1})\n")),
            4 => text.push_str(&format!("R(c{c1},c{c2})\n")),
            5 => text.push_str(&format!("S(c{c1},c{c2})\n")),
            6 => text.push_str(&format!("Z(c{c1})\n")),
            _ => text.push_str(&format!("T(c{c1},c{c2})\n")),
        }
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The type kernel behind `Engine::answer` — one ABox and a batch —
    /// answers exactly what the plan's Datalog≠ program answers under
    /// both `Program::eval` and the stratified executor, for ontologies
    /// with counting, functionality, inverse roles, role inclusions and
    /// negation, on ABoxes with out-of-signature facts, and for queries
    /// inside the closure, outside it and role-named.
    #[test]
    fn kernel_matches_program(
        axioms in proptest::collection::vec((0u8..4, 0u8..4, 0u8..4, 0u8..9), 1..5),
        batch in proptest::collection::vec(
            proptest::collection::vec((0u8..8, 0u8..5, 0u8..5), 0..12),
            1..4,
        ),
        query_choice in 0u8..7,
    ) {
        let mut v = Vocab::new();
        let dl = parse_ontology(&alchiq_text(&axioms), &mut v)
            .expect("generated ontology must parse");
        let o = to_gf(&dl);
        let aboxes: Vec<Instance> = batch
            .iter()
            .map(|facts| {
                gomq_core::parse::parse_instance(&alchiq_abox(facts), &mut v)
                    .expect("generated abox must parse")
            })
            .collect();
        let name = ["A0", "A1", "A2", "A3", "R", "Z", "T"][query_choice as usize];
        let Some(query) = v.find_rel(name) else {
            return Ok(());
        };
        let engine = Engine::with_threads(2);
        let (plan, _, _) = engine.plan(&o, query, &mut v);
        let Ok(plan) = plan else {
            // Closure past the 20-bit cap: nothing to serve.
            return Ok(());
        };
        let stores: Vec<_> = aboxes.iter().map(|d| d.store().clone()).collect();
        let batched = engine
            .answer(&plan, Input::Batch(&stores), &Budget::UNLIMITED)
            .expect("unlimited budget");
        for (i, d) in aboxes.iter().enumerate() {
            let expected = plan.program.eval(d);
            let indexed = IndexedInstance::from_interpretation(d);
            let (stratified, _) = eval_strata(&plan.strata, plan.program.goal, &indexed, 1);
            prop_assert_eq!(&stratified, &expected, "abox {}", i);
            let one = engine
                .answer(&plan, Input::One(d.store()), &Budget::UNLIMITED)
                .expect("unlimited budget");
            let expected = listed(&expected);
            prop_assert_eq!(&one.answers[0], &expected, "abox {}", i);
            prop_assert_eq!(&batched.answers[i], &expected, "batched abox {}", i);
        }
    }
}
