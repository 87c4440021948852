//! Property tests: the engine's indexed, stratified, parallel executor
//! is answer-equivalent to the reference `Program::eval`, and the full
//! cached OMQ path is answer-equivalent to the one-shot
//! classify-emit-eval pipeline — including across cache-hit
//! re-evaluation.

use gomq_core::{Fact, IndexedInstance, Instance, RelId, Vocab};
use gomq_datalog::{DAtom, DTerm, Literal, Program, Rule};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{eval_strata, Engine, Input, Options, Strata};
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::ElementTypeSystem;
use proptest::prelude::*;

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
                let reference = emit_datalog(&sys, query, &mut v).eval(&abox);
                let indexed = IndexedInstance::from_interpretation(&abox);
                let answer = |plan: &gomq_engine::OmqPlan| {
                    engine
                        .answer(plan, Input::One(&indexed), &Options::default())
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
