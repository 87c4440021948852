//! Emitting the type-elimination computation as a Datalog program
//! (the shape of the paper's Theorem-5 rewriting).
//!
//! For each globally realizable type `θ` the program has a unary IDB
//! predicate `elim_θ` ("θ is eliminated here"); a type is eliminated at an
//! element when a unary fact contradicts it, or when along some edge every
//! compatible partner type has already been eliminated. The goal fires at
//! `x` when every type *not* entailing the query atom is eliminated at
//! `x`, or when some element has all types eliminated (inconsistency, the
//! paper's `P_∅` rule).

use crate::types::ElementTypeSystem;
use gomq_core::{bitset, RelId, Vocab};
use gomq_datalog::{DAtom, DTerm, Literal, Program, Rule};
use std::fmt::Write as _;

/// Emits the Datalog rewriting of the atomic query `query(x)` w.r.t. the
/// compiled ontology, already [`Program::optimized`].
///
/// The IDB relations have fixed names: `_elim{t}` for type index `t`,
/// `_dom`, `_goal`, and `_sedge{r}` for the counted relation with id
/// `r`. They are interned into `vocab` on first use and shared by every
/// program emitted into it, so the vocabulary stays bounded however
/// many OMQs are compiled. Sharing is safe because derived facts only
/// ever live in the private store of one evaluation, and the reserved
/// namespace ([`gomq_core::is_reserved_rel_name`]) keeps user text out
/// of these names.
///
/// The edge rules are read off the type system's [`TypeKernel`]
/// compatibility matrices (built here if not yet built).
///
/// [`TypeKernel`]: crate::types::TypeKernel
pub fn emit_datalog(sys: &ElementTypeSystem, query: RelId, vocab: &mut Vocab) -> Program {
    let (rules, goal) = emit_rules(sys, query, vocab);
    Program::optimized(rules, goal)
}

/// The rewriting [`emit_datalog`] optimizes, rule for rule as emitted.
///
/// Every rule body is allocated at its final length.
pub fn emit_datalog_unoptimized(
    sys: &ElementTypeSystem,
    query: RelId,
    vocab: &mut Vocab,
) -> Program {
    let (rules, goal) = emit_rules(sys, query, vocab);
    Program::new(rules, goal)
}

/// The emitted rules and the goal relation.
fn emit_rules(sys: &ElementTypeSystem, query: RelId, vocab: &mut Vocab) -> (Vec<Rule>, RelId) {
    let n = sys.num_types();
    let mut name = String::new();
    let elim: Vec<RelId> = (0..n)
        .map(|t| {
            name.clear();
            let _ = write!(name, "_elim{t}");
            vocab.rel(&name, 1)
        })
        .collect();
    let dom = vocab.rel("_dom", 1);
    let goal = vocab.rel("_goal", 1);
    let mut rules: Vec<Rule> = Vec::new();

    // Active-domain rules.
    for &u in sys.unary_rels() {
        rules.push(Rule::new(
            DAtom::vars(dom, &[0]),
            vec![Literal::Pos(DAtom::vars(u, &[0]))],
        ));
    }
    for &r in sys.binary_rels() {
        rules.push(Rule::new(
            DAtom::vars(dom, &[0]),
            vec![Literal::Pos(DAtom::vars(r, &[0, 1]))],
        ));
        rules.push(Rule::new(
            DAtom::vars(dom, &[1]),
            vec![Literal::Pos(DAtom::vars(r, &[0, 1]))],
        ));
    }

    // Initialization: a unary fact eliminates every type that refutes it.
    for (ti, _) in sys.types().iter().enumerate() {
        for &u in sys.unary_rels() {
            if sys.type_has_unary(ti, u) == Some(false) {
                rules.push(Rule::new(
                    DAtom::vars(elim[ti], &[0]),
                    vec![Literal::Pos(DAtom::vars(u, &[0]))],
                ));
            }
        }
    }

    // Edge propagation. With distinctness-restricted quantifiers the
    // proper-edge rules must exclude self-loops via built-in inequality —
    // this is exactly where the rewriting becomes Datalog≠ rather than
    // plain Datalog (Theorem 5's `≠` for fragments with equality).
    let needs_neq = sys.uses_distinctness();
    let kernel = sys.kernel();
    for (ri, &r) in sys.binary_rels().iter().enumerate() {
        for ti in 0..n {
            // Self-loops constrain a type against itself.
            if !bitset::test_bit(&kernel.loop_ok[ri], ti) {
                rules.push(Rule::new(
                    DAtom::vars(elim[ti], &[0]),
                    vec![Literal::Pos(DAtom::vars(r, &[0, 0]))],
                ));
            }
            // Forward: θ at x dies when all compatible successor types are
            // eliminated at y. Backward: θ at y dies when all compatible
            // predecessor types are eliminated at x.
            for (row, at, other) in [
                (kernel.fwd[ri].row(ti), 0, 1),
                (kernel.bwd[ri].row(ti), 1, 0),
            ] {
                let mut body =
                    Vec::with_capacity(1 + usize::from(needs_neq) + bitset::count_ones(row));
                body.push(Literal::Pos(DAtom::vars(r, &[0, 1])));
                if needs_neq {
                    body.push(Literal::Neq(DTerm::Var(0), DTerm::Var(1)));
                }
                body.extend(
                    bitset::ones(row).map(|j| Literal::Pos(DAtom::vars(elim[j], &[other]))),
                );
                rules.push(Rule::new(DAtom::vars(elim[ti], &[at]), body));
            }
        }
    }

    // Counting rules (uGC⁻₂(1,=)): a type with a FALSE `∃≥n` dies once n
    // distinct witnesses are forced. These rules are inherently Datalog≠.
    // With role hierarchies, the counted relation's edges are the union of
    // its sub-roles' edges, materialized into an auxiliary `_sedge{r}` IDB.
    let mut sedge_done: std::collections::BTreeSet<RelId> = std::collections::BTreeSet::new();
    let mut counting_rel = |rel: RelId, rules: &mut Vec<Rule>, vocab: &mut Vocab| -> RelId {
        let subs = sys.sub_rels(rel);
        if subs.as_slice() == [(rel, false)] {
            return rel;
        }
        let aux = vocab.rel(&format!("_sedge{}", rel.0), 2);
        if sedge_done.insert(rel) {
            for (r2, flipped) in subs {
                let head_args: &[u32] = if flipped { &[1, 0] } else { &[0, 1] };
                rules.push(Rule::new(
                    DAtom::vars(aux, head_args),
                    vec![Literal::Pos(DAtom::vars(r2, &[0, 1]))],
                ));
            }
        }
        aux
    };
    for (ti, base_rel, fwd, count, loop_witness, _distinct, avoiders) in sys.counting_constraints()
    {
        let rel = counting_rel(base_rel, &mut rules, vocab);
        let n = count as usize;
        let mut variants = vec![n];
        if loop_witness {
            variants.push(n - 1); // the self-loop supplies one witness
        }
        for k in variants {
            let len = usize::from(k < n) + 2 * k + k * k.saturating_sub(1) / 2 + k * avoiders.len();
            let mut body: Vec<Literal> = Vec::with_capacity(len);
            if k < n {
                body.push(Literal::Pos(DAtom::vars(rel, &[0, 0])));
            }
            for i in 1..=k as u32 {
                let args = if fwd { [0, i] } else { [i, 0] };
                body.push(Literal::Pos(DAtom::vars(rel, &args)));
                body.push(Literal::Neq(DTerm::Var(0), DTerm::Var(i)));
            }
            for i in 1..=k as u32 {
                for j in (i + 1)..=k as u32 {
                    body.push(Literal::Neq(DTerm::Var(i), DTerm::Var(j)));
                }
            }
            for i in 1..=k as u32 {
                for &tj in &avoiders {
                    body.push(Literal::Pos(DAtom {
                        rel: elim[tj],
                        args: vec![DTerm::Var(i)],
                    }));
                }
            }
            debug_assert_eq!(body.len(), len);
            rules.push(Rule::new(DAtom::vars(elim[ti], &[0]), body));
        }
    }

    // Goal. A query relation inside the closure is certain where every
    // type refuting it is eliminated; a relation outside the ontology's
    // closure is unconstrained, so only its asserted facts are certain.
    if sys.unary_rels().contains(&query) {
        let bad = |ti: &usize| sys.type_has_unary(*ti, query) != Some(true);
        let mut body = Vec::with_capacity(1 + (0..n).filter(bad).count());
        body.push(Literal::Pos(DAtom::vars(dom, &[0])));
        body.extend(
            (0..n)
                .filter(bad)
                .map(|ti| Literal::Pos(DAtom::vars(elim[ti], &[0]))),
        );
        rules.push(Rule::new(DAtom::vars(goal, &[0]), body));
    } else {
        rules.push(Rule::new(
            DAtom::vars(goal, &[0]),
            vec![Literal::Pos(DAtom::vars(query, &[0]))],
        ));
    }

    // Inconsistency (the P_∅ rule): some element has every type
    // eliminated.
    let mut body = Vec::with_capacity(1 + n);
    body.push(Literal::Pos(DAtom::vars(dom, &[0])));
    body.extend((0..n).map(|ti| Literal::Pos(DAtom::vars(elim[ti], &[1]))));
    rules.push(Rule::new(DAtom::vars(goal, &[0]), body));

    (rules, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::{Fact, Instance, Term};
    use gomq_dl::concept::{Concept, Role};
    use gomq_dl::translate::to_gf;
    use gomq_dl::DlOntology;
    use gomq_logic::GfOntology;

    fn simple(v: &mut Vocab) -> GfOntology {
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let c = v.rel("C", 1);
        let r = Role::new(v.rel("R", 2));
        let mut o = DlOntology::new();
        o.sub(
            Concept::Name(a),
            Concept::Exists(r, Box::new(Concept::Name(b))),
        );
        o.sub(Concept::Name(b), Concept::Name(c));
        to_gf(&o)
    }

    #[test]
    fn datalog_agrees_with_type_elimination() {
        let mut v = Vocab::new();
        let o = simple(&mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let c_rel = v.rel("C", 1);
        let program = emit_datalog(&sys, c_rel, &mut v);
        // D = chain with B at the end.
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let r = v.rel("R", 2);
        let ca = v.constant("a");
        let cb = v.constant("b");
        let cc = v.constant("c");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        d.insert(Fact::consts(r, &[ca, cb]));
        d.insert(Fact::consts(b_rel, &[cb]));
        d.insert(Fact::consts(r, &[cb, cc]));
        let from_types = sys.certain_unary(&d, c_rel);
        let from_datalog: std::collections::BTreeSet<Term> =
            program.eval(&d).into_iter().map(|tuple| tuple[0]).collect();
        assert_eq!(from_types, from_datalog);
        assert!(from_datalog.contains(&Term::Const(cb)));
    }

    #[test]
    fn inconsistency_rule_fires_everywhere() {
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let mut dl = DlOntology::new();
        dl.sub(Concept::Name(a_rel), Concept::Name(b_rel));
        dl.sub(Concept::Name(a_rel), Concept::Name(b_rel).neg());
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let n_rel = v.rel("N", 1);
        let program = emit_datalog(&sys, n_rel, &mut v);
        let ca = v.constant("a");
        let r = v.rel("R2x", 2);
        let cb = v.constant("b");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        d.insert(Fact::consts(r, &[ca, cb]));
        // N is a fresh relation, but inconsistency makes N(x) certain at
        // every domain element the program can see.
        let ans = program.eval(&d);
        assert!(ans.contains(&vec![Term::Const(ca)]));
    }

    #[test]
    fn distinctness_emits_datalog_neq() {
        use gomq_logic::{Formula, Guard, LVar, UgfSentence};
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let r = v.rel("R", 2);
        let (x, y) = (LVar(0), LVar(1));
        // ∀x(A(x) → ¬∃≠y R(x,y)).
        let o = GfOntology::from_ugf(vec![UgfSentence::forall_one(
            x,
            Formula::implies(
                Formula::unary(a_rel, x),
                Formula::Not(Box::new(Formula::Exists {
                    qvars: vec![y],
                    guard: Guard::Atom {
                        rel: r,
                        args: vec![x, y],
                    },
                    body: Box::new(Formula::Not(Box::new(Formula::Eq(x, y)))),
                })),
            ),
            vec!["x".into(), "y".into()],
        )]);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let n_rel = v.rel("Nq", 1);
        let program = emit_datalog(&sys, n_rel, &mut v);
        assert!(!program.is_pure_datalog(), "distinctness needs ≠");
        // Self-loop: consistent, goal silent.
        let ca = v.constant("d0");
        let cb = v.constant("d1");
        let mut d1 = Instance::new();
        d1.insert(Fact::consts(a_rel, &[ca]));
        d1.insert(Fact::consts(r, &[ca, ca]));
        assert!(program.eval(&d1).is_empty());
        // Proper edge: inconsistent, goal fires everywhere.
        let mut d2 = Instance::new();
        d2.insert(Fact::consts(a_rel, &[ca]));
        d2.insert(Fact::consts(r, &[ca, cb]));
        let ans = program.eval(&d2);
        assert!(ans.contains(&vec![Term::Const(ca)]));
        assert!(ans.contains(&vec![Term::Const(cb)]));
    }

    #[test]
    fn loop_rule_matches_type_elimination() {
        // The self-loop regression: A ⊑ ∀R.B on {A(a), R(a,a)}.
        let mut v = Vocab::new();
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let r = Role::new(v.rel("R", 2));
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(a_rel),
            Concept::Forall(r, Box::new(Concept::Name(b_rel))),
        );
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let program = emit_datalog(&sys, b_rel, &mut v);
        let rr = v.rel("R", 2);
        let ca = v.constant("lp");
        let mut d = Instance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        d.insert(Fact::consts(rr, &[ca, ca]));
        let ans = program.eval(&d);
        assert!(ans.contains(&vec![Term::Const(ca)]), "loop forces B(a)");
    }

    #[test]
    fn counting_rules_detect_overflow() {
        // Hand ⊑ (= 2 hasFinger ⊤): a hand with three explicit fingers is
        // inconsistent, and the counting Datalog≠ rules must see it.
        let mut v = Vocab::new();
        let hand = v.rel("Hand", 1);
        let hf_rel = v.rel("hasFinger", 2);
        let mut dl = DlOntology::new();
        dl.sub(
            Concept::Name(hand),
            Concept::exactly(2, Role::new(hf_rel), Concept::Top),
        );
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let nq = v.rel("NQc", 1);
        let program = emit_datalog(&sys, nq, &mut v);
        assert!(!program.is_pure_datalog(), "counting needs ≠");
        let h = v.constant("hq");
        let fingers: Vec<_> = (0..3).map(|i| v.constant(&format!("fq{i}"))).collect();
        let mut d2 = Instance::new();
        d2.insert(Fact::consts(hand, &[h]));
        for &f in &fingers[..2] {
            d2.insert(Fact::consts(hf_rel, &[h, f]));
        }
        assert!(program.eval(&d2).is_empty(), "two fingers are fine");
        let mut d3 = d2.clone();
        d3.insert(Fact::consts(hf_rel, &[h, fingers[2]]));
        let ans = program.eval(&d3);
        assert!(
            ans.contains(&vec![Term::Const(h)]),
            "three fingers overflow (≤ 2): inconsistency fires the goal"
        );
        // Agreement with the type-elimination route on both instances.
        for d in [&d2, &d3] {
            let from_types = sys.certain_unary(d, nq);
            let from_program: std::collections::BTreeSet<Term> =
                program.eval(d).into_iter().map(|t| t[0]).collect();
            assert_eq!(from_types, from_program);
        }
    }

    #[test]
    fn hierarchy_counting_uses_sedge_rules() {
        // func(worksOn), manages ⊑ worksOn: the counting rules must count
        // manages-edges too, via the auxiliary _sedge relation.
        let mut v = Vocab::new();
        let works = v.rel("worksOn", 2);
        let manages = v.rel("manages", 2);
        let mut dl = DlOntology::new();
        dl.functional(Role::new(works));
        dl.role_sub(Role::new(manages), Role::new(works));
        let o = to_gf(&dl);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let nq = v.rel("NQh", 1);
        let program = emit_datalog(&sys, nq, &mut v);
        let a = v.constant("h0");
        let p1 = v.constant("h1");
        let p2 = v.constant("h2");
        let mut bad = Instance::new();
        bad.insert(Fact::consts(manages, &[a, p1]));
        bad.insert(Fact::consts(works, &[a, p2]));
        let ans = program.eval(&bad);
        assert!(
            ans.contains(&vec![Term::Const(a)]),
            "mixed-role overflow detected by the program"
        );
        let mut ok = Instance::new();
        ok.insert(Fact::consts(manages, &[a, p1]));
        ok.insert(Fact::consts(works, &[a, p1]));
        assert!(program.eval(&ok).is_empty());
    }

    #[test]
    fn program_is_pure_datalog() {
        let mut v = Vocab::new();
        let o = simple(&mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let c_rel = v.rel("C", 1);
        let program = emit_datalog(&sys, c_rel, &mut v);
        assert!(program.is_pure_datalog());
        assert!(!program.is_empty());
    }

    /// The emitted Theorem-5 program must be *certifiable*: a traced
    /// fixpoint over it records, for every derived fact, a witness that
    /// re-derives the fact by pure substitution — premises aligned with
    /// the rule's positive body atoms, one consistent variable binding
    /// across body and head, `≠` side conditions ground to distinct
    /// constants, and every premise id strictly below the derived id
    /// (so the proof is checkable in one forward pass). This is the
    /// contract `gomq-cert` verifies downstream.
    #[test]
    fn traced_fixpoint_witnesses_replay_by_substitution() {
        use gomq_core::{FactId, IndexedInstance};
        use gomq_datalog::{fixpoint_traced, Budget, DTerm, Literal};

        let mut v = Vocab::new();
        let o = simple(&mut v);
        let sys = ElementTypeSystem::build(&o, &v).expect("supported");
        let c_rel = v.rel("C", 1);
        let program = emit_datalog(&sys, c_rel, &mut v);
        let a_rel = v.rel("A", 1);
        let b_rel = v.rel("B", 1);
        let r = v.rel("R", 2);
        let ca = v.constant("a");
        let cb = v.constant("b");
        let cc = v.constant("c");
        let mut d = IndexedInstance::new();
        d.insert(Fact::consts(a_rel, &[ca]));
        d.insert(Fact::consts(r, &[ca, cb]));
        d.insert(Fact::consts(b_rel, &[cb]));
        d.insert(Fact::consts(r, &[cb, cc]));
        let base_len = d.len() as u32;

        let (total, derivs, _) =
            fixpoint_traced(&program.rules, &d, &Budget::UNLIMITED).expect("unlimited");
        assert!(total.len() as u32 > base_len, "something was derived");

        // Unifies a rule term against a ground term under `binding`.
        let mut checked = 0usize;
        for id in base_len..total.len() as u32 {
            let witness = derivs[id as usize]
                .as_ref()
                .unwrap_or_else(|| panic!("derived fact {id} has no witness"));
            let rule = &program.rules[witness.rule as usize];
            let atoms: Vec<_> = rule.positive_atoms().collect();
            assert_eq!(
                witness.premises.len(),
                atoms.len(),
                "one premise per positive body atom"
            );
            let mut binding: std::collections::HashMap<u32, Term> = Default::default();
            let unify =
                |t: &DTerm, ground: Term, binding: &mut std::collections::HashMap<u32, Term>| {
                    match t {
                        DTerm::Ground(g) => {
                            assert_eq!(*g, ground, "ground term mismatch at fact {id}")
                        }
                        DTerm::Var(x) => {
                            let prev = binding.insert(*x, ground);
                            assert!(
                                prev.is_none_or(|p| p == ground),
                                "inconsistent binding for variable {x} at fact {id}"
                            );
                        }
                    }
                };
            for (atom, &p) in atoms.iter().zip(&witness.premises) {
                assert!(p < id, "premise {p} of fact {id} is not earlier");
                assert_eq!(total.store().rel(FactId(p)), atom.rel, "premise relation");
                for (t, &g) in atom.args.iter().zip(total.store().args(FactId(p))) {
                    unify(t, g, &mut binding);
                }
            }
            for (t, &g) in rule.head.args.iter().zip(total.store().args(FactId(id))) {
                unify(t, g, &mut binding);
            }
            assert_eq!(rule.head.rel, total.store().rel(FactId(id)));
            let ground_of = |t: &DTerm, binding: &std::collections::HashMap<u32, Term>| match t {
                DTerm::Ground(g) => *g,
                DTerm::Var(x) => *binding.get(x).expect("≠ variable bound"),
            };
            for lit in &rule.body {
                if let Literal::Neq(x, y) = lit {
                    assert_ne!(
                        ground_of(x, &binding),
                        ground_of(y, &binding),
                        "≠ side condition violated at fact {id}"
                    );
                }
            }
            checked += 1;
        }
        assert!(checked > 0);
    }
}
