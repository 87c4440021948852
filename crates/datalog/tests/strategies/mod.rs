//! Random-program strategies shared by the evaluator property tests of
//! this crate and of `gomq-engine` (which includes this file by path).

use gomq_core::{ConstId, Fact, Instance, Term, Vocab};
use gomq_datalog::{DAtom, DTerm, Literal, Program, Rule};
use proptest::prelude::*;
use std::collections::BTreeSet;

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
pub fn rich_strategy() -> impl Strategy<Value = (Vocab, Program, Instance)> {
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
