//! Native ≡ SQL cross-check: every generated non-recursive OMQ answers
//! identically on the native engine ([`Engine::answer`]) and on the
//! emitted SQL run by the in-process oracle ([`eval_sql_budgeted`]),
//! and every recursive one carries the typed
//! [`SqlEmitError::Recursive`] refusal instead of SQL text — never a
//! wrong answer.
//!
//! The two pipelines share nothing past the element-type system: the
//! native path runs the plan's bitset type kernel over interned term
//! columns, the SQL path renders the plan's stratified Datalog≠ program
//! as text and runs it on the `gomq-sqlexec` nested-loop executor over
//! string tables. Agreement is therefore strong evidence that both
//! implement the same certain-answer semantics.

use gomq_core::{IndexedInstance, Term, Vocab};
use gomq_datalog::Budget;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::backend::sql::eval_sql_budgeted;
use gomq_engine::{Engine, EngineError, Input, OmqPlan, Options};
use gomq_rewriting::SqlEmitError;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Renders a random pure concept hierarchy — always acyclic, so every
/// draw must compile to SQL.
fn hierarchy_text(axioms: &[(u8, u8)]) -> String {
    let mut text = String::new();
    for &(i, j) in axioms {
        text.push_str(&format!("A{} sub A{}\n", i % 5, j % 5));
    }
    text
}

/// Renders a random Horn ontology that may include existential role
/// axioms — those typically make the rewriting recursive.
fn role_text(axioms: &[(u8, u8, u8)]) -> String {
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
fn abox_text(facts: &[(u8, u8, u8)], roles: bool) -> String {
    let mut text = String::new();
    for &(r, c1, c2) in facts {
        match r % 6 {
            5 if roles => text.push_str(&format!("R(c{},c{})\n", c1 % 6, c2 % 6)),
            a => text.push_str(&format!("A{}(c{})\n", a % 5, c1 % 6)),
        }
    }
    text
}

/// Compiles `(ontology, query)`; `None` when the query relation does
/// not occur in the ontology.
fn compile(ontology: &str, query: &str, v: &mut Vocab) -> Option<Result<OmqPlan, EngineError>> {
    let dl = parse_ontology(ontology, v).expect("ontology must parse");
    let o = to_gf(&dl);
    let query = v.find_rel(query)?;
    Some(OmqPlan::compile(&o, query, v))
}

/// The native engine's answers over one ABox text.
fn native(plan: &OmqPlan, abox: &str, v: &mut Vocab) -> Vec<Term> {
    let abox = gomq_core::parse::parse_instance(abox, v).expect("abox must parse");
    Engine::with_threads(2)
        .answer(plan, Input::One(abox.store()), &Options::default())
        .expect("unlimited budget")
        .answers
        .remove(0)
}

/// The SQL oracle's answers over one ABox text, listed as the native
/// engine lists them (the goal is unary: one term per answer, in
/// order), or the plan's typed reason for having no SQL.
fn oracle(plan: &OmqPlan, abox: &str, v: &mut Vocab) -> Result<Vec<Term>, SqlEmitError> {
    let sql = plan.sql.as_ref().map_err(Clone::clone)?;
    let abox = gomq_core::parse::parse_instance(abox, v).expect("abox must parse");
    let indexed = IndexedInstance::from_interpretation(&abox);
    let answers: BTreeSet<Vec<Term>> =
        eval_sql_budgeted(sql, &indexed, v, &Budget::UNLIMITED).expect("non-recursive SQL runs");
    Ok(answers.into_iter().flatten().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure hierarchies always emit SQL, and the SQL answers equal the
    /// native answers on every random ABox.
    #[test]
    fn hierarchy_omqs_agree_across_backends(
        axioms in proptest::collection::vec((0u8..5, 0u8..5), 1..8),
        facts in proptest::collection::vec(
            (proptest::arbitrary::any::<u8>(), 0u8..6, 0u8..6),
            0..20,
        ),
        query_choice in 0u8..5,
    ) {
        let mut v = Vocab::new();
        let query = format!("A{}", query_choice % 5);
        let Some(plan) = compile(&hierarchy_text(&axioms), &query, &mut v) else {
            return Ok(()); // queried concept absent in this draw
        };
        let plan = plan.expect("hierarchies are Horn, hence rewritable");
        prop_assert!(
            plan.sql.is_ok(),
            "a pure hierarchy must emit SQL, got {:?}",
            plan.sql.as_ref().err()
        );
        let abox = abox_text(&facts, false);
        let sql = oracle(&plan, &abox, &mut v).expect("checked above");
        prop_assert_eq!(&sql, &native(&plan, &abox, &mut v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Role-bearing OMQs: a plan carries no SQL exactly when some
    /// stratum of its `PlanIr` is recursive, and then the refusal is
    /// the typed `Recursive` reason; otherwise the SQL oracle's answers
    /// equal [`Engine::answer`]'s — a wrong answer set is never
    /// produced.
    #[test]
    fn role_bearing_omqs_agree_or_refuse(
        axioms in proptest::collection::vec((0u8..4, 0u8..4, 0u8..3), 1..6),
        facts in proptest::collection::vec(
            (proptest::arbitrary::any::<u8>(), 0u8..6, 0u8..6),
            0..15,
        ),
        query_choice in 0u8..4,
    ) {
        let mut v = Vocab::new();
        let query = format!("A{}", query_choice % 4);
        let Some(plan) = compile(&role_text(&axioms), &query, &mut v) else {
            return Ok(()); // queried concept absent in this draw
        };
        let Ok(plan) = plan else {
            // Outside the element-type class: no plan, hence no SQL.
            return Ok(());
        };
        let recursive = plan.strata.strata.iter().any(|s| s.recursive);
        prop_assert_eq!(
            matches!(plan.sql, Err(SqlEmitError::Recursive { .. })),
            recursive,
            "SQL refusal must track stratum recursion: {:?}",
            plan.sql.as_ref().err()
        );
        let abox = abox_text(&facts, true);
        if !recursive {
            let sql = oracle(&plan, &abox, &mut v);
            prop_assert_eq!(sql, Ok(native(&plan, &abox, &mut v)));
        }
    }
}

/// The paper's example families from `examples/data`, deterministically:
/// the role-free org chart emits SQL whose answers equal the native
/// engine's; the role-bearing company ontology is SQL-refused but
/// natively answered; the transitive anatomy ontology is not rewritable
/// at all.
#[test]
fn example_families_cross_check() {
    let read = |name: &str| {
        std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../examples/data")
                .join(name),
        )
        .unwrap()
    };
    let mut v = Vocab::new();

    let org_facts = read("org.facts");
    let org = compile(&read("org.dl"), "Person", &mut v)
        .expect("Person occurs")
        .expect("org is rewritable");
    let sql = oracle(&org, &org_facts, &mut v).expect("org emits SQL");
    assert_eq!(sql, native(&org, &org_facts, &mut v));
    for name in ["ada", "grace", "alan"] {
        let c = Term::Const(v.find_constant(name).expect("interned"));
        assert!(sql.contains(&c), "missing {name}");
    }

    let company_facts = read("company.facts");
    let company = compile(&read("company.dl"), "Employee", &mut v)
        .expect("Employee occurs")
        .expect("company is rewritable");
    assert!(
        matches!(
            oracle(&company, &company_facts, &mut v),
            Err(SqlEmitError::Recursive { .. })
        ),
        "expected the typed recursive refusal"
    );
    assert!(!native(&company, &company_facts, &mut v).is_empty());

    let anatomy = compile(&read("anatomy.dl"), "Organ", &mut v).expect("Organ occurs");
    assert!(matches!(anatomy, Err(EngineError::NotRewritable(_))));
}
