//! Property tests: the semi-naive engine agrees with the naive reference
//! evaluator on random programs and instances.

use gomq_core::{ConstId, DeltaView, Fact, FactBuf, IndexedInstance, Instance, RelId, Term, Vocab};
use gomq_datalog::eval::{derive_round, eval_naive};
use gomq_datalog::{DAtom, DTerm, Literal, Program, Rule};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// Random EDB over `E`/`U` plus a program over `E, U` (EDB) and `T, S, V`
/// (IDB). Besides random rules — whose bodies repeat variables inside an
/// atom, carry constants, and bind atoms completely through earlier ones
/// — every program may carry fixed rules with exactly those shapes,
/// including the type-elimination shape `V(?0) <- E(?0,?1) & V(?1)`
/// whose guard atom is reachable only through its second argument. The
/// goal `G(tag, x, y)` copies every IDB relation, so goal answers
/// compare whole fixpoints.
///
/// A raw random rule is a head relation index into `[T, S, V]`, body
/// atoms, two head-argument picks among the body's variables, and
/// whether to add a `≠` between the first two of them. A raw body atom
/// is a relation index into `[E, U, T, S, V]` and two argument codes
/// (unary relations ignore the second): codes `0..4` are the variables
/// `?0..?3`, codes 4 and 5 the constants `n0` and `n1`.
fn rich_strategy() -> impl Strategy<Value = (Vocab, Program, Instance)> {
    (
        prop::collection::vec((0usize..5, 0usize..5), 1..12),
        prop::collection::vec(0usize..5, 0..4),
        prop::collection::vec(
            (
                0usize..3,
                prop::collection::vec((0usize..5, 0usize..6, 0usize..6), 1..4),
                0usize..5,
                0usize..5,
                any::<bool>(),
            ),
            0..5,
        ),
        prop::collection::vec(any::<bool>(), 4..5),
    )
        .prop_map(|(edges, labels, raw_rules, fixed)| {
            let mut v = Vocab::new();
            let [e, u, t, s, vv] = ["E", "U", "T", "S", "V"].map(|n| {
                let arity = if n == "U" || n == "V" { 1 } else { 2 };
                v.rel(n, arity)
            });
            let g = v.rel("G", 3);
            let consts: Vec<ConstId> = (0..5).map(|i| v.constant(&format!("n{i}"))).collect();
            let mut d = Instance::new();
            for (a, b) in edges {
                d.insert(Fact::consts(e, &[consts[a], consts[b]]));
            }
            for a in labels {
                d.insert(Fact::consts(u, &[consts[a]]));
            }
            let ground = |i: usize| DTerm::Ground(Term::Const(consts[i]));
            let pos = |rel, args: &[DTerm]| {
                Literal::Pos(DAtom {
                    rel,
                    args: args.to_vec(),
                })
            };
            let x = |i: u32| DTerm::Var(i);
            let mut rules = Vec::new();
            // Fixed shapes, each toggled by the generator.
            let fixed_rules = [
                // Repeated variable: loops are unary facts.
                Rule::new(DAtom::vars(vv, &[0]), vec![pos(e, &[x(0), x(0)])]),
                // Ground argument in body and head.
                Rule::new(
                    DAtom {
                        rel: s,
                        args: vec![x(0), ground(1)],
                    },
                    vec![pos(e, &[x(0), ground(1)])],
                ),
                // Type elimination: E reached with only ?1 bound.
                Rule::new(
                    DAtom::vars(vv, &[0]),
                    vec![pos(e, &[x(0), x(1)]), pos(vv, &[x(1)])],
                ),
                // After T binds both variables, E(?1,?0) is fully bound.
                Rule::new(
                    DAtom::vars(s, &[0, 1]),
                    vec![pos(t, &[x(0), x(1)]), pos(e, &[x(1), x(0)])],
                ),
            ];
            for (on, rule) in fixed.iter().zip(fixed_rules) {
                if *on {
                    rules.push(rule);
                }
            }
            // T is the transitive closure of E, so T has content.
            rules.push(Rule::new(
                DAtom::vars(t, &[0, 1]),
                vec![pos(e, &[x(0), x(1)])],
            ));
            rules.push(Rule::new(
                DAtom::vars(t, &[0, 2]),
                vec![pos(t, &[x(0), x(1)]), pos(e, &[x(1), x(2)])],
            ));
            let body_rels = [e, u, t, s, vv];
            let unary = |rel| rel == u || rel == vv;
            let term = |code: usize| {
                if code < 4 {
                    x(code as u32)
                } else {
                    ground(code - 4)
                }
            };
            for (head, body, h0, h1, neq) in raw_rules {
                let mut atoms = Vec::new();
                let mut vars = BTreeSet::new();
                for (rel, a, b) in body {
                    let rel = body_rels[rel];
                    let args: Vec<DTerm> = if unary(rel) {
                        vec![term(a)]
                    } else {
                        vec![term(a), term(b)]
                    };
                    for t in &args {
                        if let DTerm::Var(i) = t {
                            vars.insert(*i);
                        }
                    }
                    atoms.push(pos(rel, &args));
                }
                let vars: Vec<u32> = vars.into_iter().collect();
                // Head arguments range over the body's variables (or the
                // constant n0 when the body has none, or for pick 4).
                let pick = |h: usize| match vars.len() {
                    0 => ground(0),
                    _ if h == 4 => ground(0),
                    n => x(vars[h % n]),
                };
                let head_rel = [t, s, vv][head];
                let head_args = if unary(head_rel) {
                    vec![pick(h0)]
                } else {
                    vec![pick(h0), pick(h1)]
                };
                if neq && vars.len() >= 2 {
                    atoms.push(Literal::Neq(x(vars[0]), x(vars[1])));
                }
                rules.push(Rule::new(
                    DAtom {
                        rel: head_rel,
                        args: head_args,
                    },
                    atoms,
                ));
            }
            // The goal copies T, S and V under a tag constant.
            for (tag, rel) in [(2, t), (3, s)] {
                rules.push(Rule::new(
                    DAtom {
                        rel: g,
                        args: vec![ground(tag), x(0), x(1)],
                    },
                    vec![pos(rel, &[x(0), x(1)])],
                ));
            }
            rules.push(Rule::new(
                DAtom {
                    rel: g,
                    args: vec![ground(4), x(0), x(0)],
                },
                vec![pos(vv, &[x(0)])],
            ));
            (v, Program::new(rules, g), d)
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
