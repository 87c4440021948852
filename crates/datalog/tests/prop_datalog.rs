//! Property tests: the semi-naive engine agrees with the naive reference
//! evaluator on random programs and instances.

mod strategies;

use gomq_core::{DeltaView, Fact, FactBuf, IndexedInstance, Instance, RelId, Term, Vocab};
use gomq_datalog::eval::{derive_round, eval_naive};
use gomq_datalog::{DAtom, DTerm, Literal, Program, Rule};
use proptest::prelude::*;
use std::collections::BTreeSet;
use strategies::rich_strategy;

/// Random graph + a random linear-recursive program over it.
fn setup_strategy() -> impl Strategy<Value = (Vocab, Program, Instance)> {
    (
        prop::collection::vec((0usize..5, 0usize..5), 1..10),
        prop::collection::vec((0usize..5,), 0..4),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(edges, labels, use_neq, reverse)| {
            let mut v = Vocab::new();
            let e = v.rel("E", 2);
            let u = v.rel("U", 1);
            let t = v.rel("T", 2);
            let goal = v.rel("goal", 2);
            let consts: Vec<_> = (0..5).map(|i| v.constant(&format!("n{i}"))).collect();
            let mut d = Instance::new();
            for (a, b) in edges {
                d.insert(Fact::consts(e, &[consts[a], consts[b]]));
            }
            for (a,) in labels {
                d.insert(Fact::consts(u, &[consts[a]]));
            }
            // T = transitive closure of E (possibly reversed); goal with
            // optional ≠ filter and optional unary restriction.
            let base_args: &[u32] = if reverse { &[1, 0] } else { &[0, 1] };
            let mut rules = vec![
                Rule::new(
                    DAtom::vars(t, base_args),
                    vec![Literal::Pos(DAtom::vars(e, &[0, 1]))],
                ),
                Rule::new(
                    DAtom::vars(t, &[0, 2]),
                    vec![
                        Literal::Pos(DAtom::vars(t, &[0, 1])),
                        Literal::Pos(DAtom::vars(t, &[1, 2])),
                    ],
                ),
            ];
            let mut goal_body = vec![Literal::Pos(DAtom::vars(t, &[0, 1]))];
            if use_neq {
                goal_body.push(Literal::Neq(DTerm::Var(0), DTerm::Var(1)));
            }
            rules.push(Rule::new(DAtom::vars(goal, &[0, 1]), goal_body));
            (v, Program::new(rules, goal), d)
        })
}

/// Drives the production kernel — [`derive_round`] over an
/// [`IndexedInstance`] with a [`DeltaView`] per round — to a fixpoint.
fn kernel_fixpoint(rules: &[Rule], d: &Instance) -> IndexedInstance {
    let mut total = IndexedInstance::from_interpretation(d);
    let mut staged = FactBuf::new();
    let mut frontier = 0u32;
    loop {
        staged.clear();
        derive_round(
            rules,
            &total,
            &DeltaView::new(&total, frontier),
            &mut staged,
        );
        frontier = total.len() as u32;
        for f in staged.iter() {
            total.insert_ref(f.rel, f.args);
        }
        if total.len() == frontier as usize {
            return total;
        }
    }
}

fn facts_of(total: &IndexedInstance, rel: RelId) -> BTreeSet<Vec<Term>> {
    total.facts_of(rel).map(|f| f.args.to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_kernel_agrees_with_naive((_v, p, d) in rich_strategy()) {
        let total = kernel_fixpoint(&p.rules, &d);
        prop_assert_eq!(facts_of(&total, p.goal), eval_naive(&p, &d));
        // The unindexed semi-naive path derives the very same store.
        let (plain, _) = p.fixpoint(&d);
        let indexed: BTreeSet<Fact> = total.iter().map(|f| f.to_fact()).collect();
        let plain: BTreeSet<Fact> = plain.iter().map(|f| f.to_fact()).collect();
        prop_assert_eq!(indexed, plain);
    }

    #[test]
    fn semi_naive_agrees_with_naive((_v, p, d) in setup_strategy()) {
        prop_assert_eq!(p.eval(&d), eval_naive(&p, &d));
    }

    #[test]
    fn fixpoint_is_monotone((_v, p, d) in setup_strategy()) {
        // Adding facts can only grow the answer set (positive programs
        // with built-in ≠ are monotone).
        let base = p.eval(&d);
        let mut bigger = d.clone();
        let mut v2 = Vocab::new();
        let e2 = v2.rel("E", 2);
        let extra_a = v2.constant("extraA");
        let extra_b = v2.constant("extraB");
        bigger.insert(Fact::consts(e2, &[extra_a, extra_b]));
        let grown = p.eval(&bigger);
        prop_assert!(base.is_subset(&grown));
    }

    #[test]
    fn derived_facts_do_not_shrink_with_rules((_v, p, d) in setup_strategy()) {
        // Dropping the goal rule yields a subset of goal facts (trivially
        // empty), and the full fixpoint is a superset of the EDB.
        let (total, _) = p.fixpoint(&d);
        prop_assert!(total.models_instance(&d));
    }
}
