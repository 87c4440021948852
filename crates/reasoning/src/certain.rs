//! Certain answers and consistency by bounded countermodel search.
//!
//! `O,D ⊨ q(ā)` iff every model of `D` and `O` satisfies `q(ā)` (§2). The
//! engine decides this by searching for a *countermodel*: a model of `D`
//! and `O` refuting `q(ā)`, over domains extending `dom(D)` by
//! `0, 1, …, max_fresh` fresh labelled nulls.
//!
//! * A found countermodel is definitive: the answer is **not** certain.
//! * If no countermodel exists up to the bound, the engine reports
//!   [`CertainOutcome::Certain`]. The guarded fragment has the finite
//!   model property and the constructions in the paper only require small
//!   models, so with an adequate bound this is exact; the bound used is
//!   recorded in the outcome for honesty.
//!
//! The same machinery decides consistency (no query) and *certainty of a
//! disjunction* of queries — the primitive behind materializability
//! testing (Theorem 17: materializable ⇔ the disjunction property holds).

use crate::ground::{domain_with_fresh, Grounder};
use gomq_core::{Instance, Interpretation, Term, Ucq, Vocab};
use gomq_logic::GfOntology;
use std::collections::BTreeSet;

/// Outcome of a certain-answer check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertainOutcome {
    /// No countermodel with at most `bound` fresh elements exists.
    Certain {
        /// The fresh-element bound that was exhausted.
        bound: usize,
    },
    /// A countermodel was found; the tuple is not a certain answer.
    NotCertain(Box<Interpretation>),
}

impl CertainOutcome {
    /// Whether the outcome is `Certain`.
    pub fn is_certain(&self) -> bool {
        matches!(self, CertainOutcome::Certain { .. })
    }
}

/// Consistency verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Consistency {
    /// A model with at most `max_fresh` fresh elements exists.
    Consistent(Box<Interpretation>),
    /// No model within the bound.
    InconsistentWithinBound {
        /// The exhausted bound.
        bound: usize,
    },
}

impl Consistency {
    /// Whether a model was found.
    pub fn is_consistent(&self) -> bool {
        matches!(self, Consistency::Consistent(_))
    }
}

/// The bounded countermodel-search engine.
///
/// ```
/// use gomq_core::{Vocab, parse::{parse_instance, parse_ucq}};
/// use gomq_dl::{parser::parse_ontology, translate::to_gf};
/// use gomq_reasoning::CertainEngine;
///
/// let mut vocab = Vocab::new();
/// let dl = parse_ontology("Manager sub Employee\n", &mut vocab).unwrap();
/// let onto = to_gf(&dl);
/// let data = parse_instance("Manager(ada)\n", &mut vocab).unwrap();
/// let query = parse_ucq("q(?x) :- Employee(?x)\n", &mut vocab).unwrap();
///
/// let engine = CertainEngine::new(2);
/// let answers = engine.certain_answers(&onto, &data, &query, &mut vocab);
/// assert_eq!(answers.len(), 1); // ada is certainly an Employee
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CertainEngine {
    /// Maximum number of fresh elements to add to the domain.
    pub max_fresh: usize,
}

impl Default for CertainEngine {
    fn default() -> Self {
        CertainEngine { max_fresh: 3 }
    }
}

impl CertainEngine {
    /// Creates an engine with the given fresh-element bound.
    pub fn new(max_fresh: usize) -> Self {
        CertainEngine { max_fresh }
    }

    /// Searches for a model of `D` and `O` (consistency of `D` w.r.t. `O`).
    pub fn consistency(&self, o: &GfOntology, d: &Instance, vocab: &mut Vocab) -> Consistency {
        for k in 0..=self.max_fresh {
            let dom = domain_with_fresh(d, k, vocab);
            let mut g = Grounder::new(dom);
            g.assert_instance(d);
            g.assert_ontology(o);
            if let Some(m) = g.solve() {
                return Consistency::Consistent(Box::new(m));
            }
        }
        Consistency::InconsistentWithinBound {
            bound: self.max_fresh,
        }
    }

    /// Decides whether `ā` is a certain answer to the UCQ `q` on `D`
    /// given `O`: searches for a model of `D` and `O` with `¬q(ā)`.
    pub fn certain(
        &self,
        o: &GfOntology,
        d: &Instance,
        q: &Ucq,
        tuple: &[Term],
        vocab: &mut Vocab,
    ) -> CertainOutcome {
        self.certain_disjunction(o, d, &[(q.clone(), tuple.to_vec())], vocab)
    }

    /// Decides whether the *disjunction* `⋁ᵢ qᵢ(āᵢ)` is certain: searches
    /// for a single model refuting every disjunct simultaneously.
    ///
    /// This is the primitive of the disjunction property (appendix
    /// Theorem 17): `O` is materializable iff certainty of a disjunction
    /// always implies certainty of some disjunct.
    pub fn certain_disjunction(
        &self,
        o: &GfOntology,
        d: &Instance,
        queries: &[(Ucq, Vec<Term>)],
        vocab: &mut Vocab,
    ) -> CertainOutcome {
        for k in 0..=self.max_fresh {
            let dom = domain_with_fresh(d, k, vocab);
            let mut g = Grounder::new(dom);
            g.assert_instance(d);
            g.assert_ontology(o);
            for (q, tuple) in queries {
                let l = g.ucq_lit(q, tuple);
                g.assert_lit(l.negate());
            }
            if let Some(m) = g.solve() {
                return CertainOutcome::NotCertain(Box::new(m));
            }
        }
        CertainOutcome::Certain {
            bound: self.max_fresh,
        }
    }

    /// Decides whether a unary GF/GC₂ formula `φ(x)` is certain at `term`:
    /// searches for a model of `D` and `O` with `¬φ(term)`. This extends
    /// certain answers beyond UCQs — the paper's marker formulas
    /// (`(= 1 P)`, `∃≥2y R(x,y)`, …) are of this shape.
    pub fn certain_formula(
        &self,
        o: &GfOntology,
        d: &Instance,
        phi: &gomq_logic::Formula,
        var: gomq_logic::LVar,
        term: Term,
        vocab: &mut Vocab,
    ) -> CertainOutcome {
        for k in 0..=self.max_fresh {
            let dom = domain_with_fresh(d, k, vocab);
            let mut g = Grounder::new(dom);
            g.assert_instance(d);
            g.assert_ontology(o);
            let mut asg = gomq_logic::eval::Assignment::new();
            asg.insert(var, term);
            let l = g.formula_lit(phi, &asg);
            g.assert_lit(l.negate());
            if let Some(m) = g.solve() {
                return CertainOutcome::NotCertain(Box::new(m));
            }
        }
        CertainOutcome::Certain {
            bound: self.max_fresh,
        }
    }

    /// All certain answers to `q` over tuples of constants from `dom(D)`.
    pub fn certain_answers(
        &self,
        o: &GfOntology,
        d: &Instance,
        q: &Ucq,
        vocab: &mut Vocab,
    ) -> BTreeSet<Vec<Term>> {
        let dom: Vec<Term> = d.dom().into_iter().collect();
        let arity = q.arity();
        let mut out = BTreeSet::new();
        let mut idx = vec![0usize; arity];
        if arity == 0 {
            if self.certain(o, d, q, &[], vocab).is_certain() {
                out.insert(Vec::new());
            }
            return out;
        }
        if dom.is_empty() {
            return out;
        }
        loop {
            let tuple: Vec<Term> = idx.iter().map(|&i| dom[i]).collect();
            if self.certain(o, d, q, &tuple, vocab).is_certain() {
                out.insert(tuple);
            }
            let mut j = 0;
            loop {
                idx[j] += 1;
                if idx[j] < dom.len() {
                    break;
                }
                idx[j] = 0;
                j += 1;
                if j == arity {
                    return out;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::query::CqBuilder;
    use gomq_core::Fact;
    use gomq_dl::concept::{Concept, Role};
    use gomq_dl::translate::to_gf;
    use gomq_dl::DlOntology;
    use gomq_logic::{Formula, Guard, LVar, UgfSentence};

    /// O₂ = { Hand ⊑ ∃hasFinger.Thumb }.
    fn o2(v: &mut Vocab) -> GfOntology {
        let hand = v.rel("Hand", 1);
        let thumb = v.rel("Thumb", 1);
        let hf = Role::new(v.rel("hasFinger", 2));
        let mut o = DlOntology::new();
        o.sub(
            Concept::Name(hand),
            Concept::Exists(hf, Box::new(Concept::Name(thumb))),
        );
        to_gf(&o)
    }

    #[test]
    fn certain_atomic_answer_via_chain() {
        // O = { ∀xy(R(x,y) → (A(x) → A(y))) }, D = R-path with A at start:
        // A propagates to the end — a classically certain answer.
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let a = v.rel("A", 1);
        let (x, y) = (LVar(0), LVar(1));
        let o = GfOntology::from_ugf(vec![UgfSentence::new(
            vec![x, y],
            Guard::Atom {
                rel: r,
                args: vec![x, y],
            },
            Formula::implies(Formula::unary(a, x), Formula::unary(a, y)),
            vec!["x".into(), "y".into()],
        )]);
        let c0 = v.constant("c0");
        let c1 = v.constant("c1");
        let c2 = v.constant("c2");
        let mut d = Instance::new();
        d.insert(Fact::consts(a, &[c0]));
        d.insert(Fact::consts(r, &[c0, c1]));
        d.insert(Fact::consts(r, &[c1, c2]));
        let mut b = CqBuilder::new();
        let qx = b.var("x");
        b.atom(a, &[qx]);
        let q = Ucq::from_cq(b.build(vec![qx]));
        let engine = CertainEngine::new(2);
        let ans = engine.certain_answers(&o, &d, &q, &mut v);
        let expected: BTreeSet<Vec<Term>> = [c0, c1, c2]
            .into_iter()
            .map(|c| vec![Term::Const(c)])
            .collect();
        assert_eq!(ans, expected);
    }

    #[test]
    fn existential_witness_is_not_a_named_answer() {
        // O₂, D = {Hand(h)}: "h has a finger that is a Thumb" is certain as
        // a Boolean query but Thumb(x) has no certain *named* answer.
        let mut v = Vocab::new();
        let o = o2(&mut v);
        let hand = v.rel("Hand", 1);
        let thumb = v.rel("Thumb", 1);
        let hf = v.rel("hasFinger", 2);
        let h = v.constant("h");
        let mut d = Instance::new();
        d.insert(Fact::consts(hand, &[h]));
        let engine = CertainEngine::new(2);
        // Boolean: ∃x∃y hasFinger(x,y) ∧ Thumb(y).
        let mut b = CqBuilder::new();
        let qx = b.var("x");
        let qy = b.var("y");
        b.atom(hf, &[qx, qy]).atom(thumb, &[qy]);
        let q_bool = Ucq::from_cq(b.build(vec![]));
        assert!(engine.certain(&o, &d, &q_bool, &[], &mut v).is_certain());
        // Named: Thumb(x) has no certain answer among constants.
        let mut b2 = CqBuilder::new();
        let qx2 = b2.var("x");
        b2.atom(thumb, &[qx2]);
        let q_named = Ucq::from_cq(b2.build(vec![qx2]));
        assert!(engine.certain_answers(&o, &d, &q_named, &mut v).is_empty());
    }

    #[test]
    fn hand_finger_union_disjunction_property_fails() {
        // The paper's introduction: O₁ ∪ O₂ with a hand that already has 5
        // fingers. The thumb must be one of them, but no single finger is
        // certainly a thumb: the disjunction is certain, no disjunct is.
        let mut v = Vocab::new();
        let hand = v.rel("Hand", 1);
        let thumb = v.rel("Thumb", 1);
        let hf_rel = v.rel("hasFinger", 2);
        let hf = Role::new(hf_rel);
        let mut dl = DlOntology::new();
        // O₁: a hand has exactly 5 fingers.
        dl.sub(Concept::Name(hand), Concept::exactly(5, hf, Concept::Top));
        // O₂: a hand has a thumb finger.
        dl.sub(
            Concept::Name(hand),
            Concept::Exists(hf, Box::new(Concept::Name(thumb))),
        );
        let o = to_gf(&dl);
        let h = v.constant("h");
        let mut d = Instance::new();
        d.insert(Fact::consts(hand, &[h]));
        let fingers: Vec<_> = (0..5).map(|i| v.constant(&format!("f{i}"))).collect();
        for &f in &fingers {
            d.insert(Fact::consts(hf_rel, &[h, f]));
        }
        let engine = CertainEngine::new(1);
        // Thumb(fᵢ) is not certain for any single finger…
        let mut b = CqBuilder::new();
        let qx = b.var("x");
        b.atom(thumb, &[qx]);
        let q = Ucq::from_cq(b.build(vec![qx]));
        let queries: Vec<(Ucq, Vec<Term>)> = fingers
            .iter()
            .map(|&f| (q.clone(), vec![Term::Const(f)]))
            .collect();
        for (qi, ti) in &queries {
            assert!(
                !engine.certain(&o, &d, qi, ti, &mut v).is_certain(),
                "no individual finger is certainly a thumb"
            );
        }
        // …but the disjunction over the five fingers is certain.
        assert!(engine
            .certain_disjunction(&o, &d, &queries, &mut v)
            .is_certain());
    }

    #[test]
    fn consistency_detects_clash() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let x = LVar(0);
        let o = GfOntology::from_ugf(vec![UgfSentence::forall_one(
            x,
            Formula::Not(Box::new(Formula::unary(a, x))),
            vec!["x".into()],
        )]);
        let c = v.constant("c");
        let mut d = Instance::new();
        d.insert(Fact::consts(a, &[c]));
        let engine = CertainEngine::new(1);
        assert!(!engine.consistency(&o, &d, &mut v).is_consistent());
        let mut d2 = Instance::new();
        let b = v.rel("B", 1);
        d2.insert(Fact::consts(b, &[c]));
        assert!(engine.consistency(&o, &d2, &mut v).is_consistent());
    }

    #[test]
    fn inconsistent_instance_makes_everything_certain() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let n = v.rel("N", 1);
        let x = LVar(0);
        let o = GfOntology::from_ugf(vec![UgfSentence::forall_one(
            x,
            Formula::Not(Box::new(Formula::unary(a, x))),
            vec!["x".into()],
        )]);
        let c = v.constant("c");
        let mut d = Instance::new();
        d.insert(Fact::consts(a, &[c]));
        let mut b = CqBuilder::new();
        let qx = b.var("x");
        b.atom(n, &[qx]);
        let q = Ucq::from_cq(b.build(vec![qx]));
        let engine = CertainEngine::new(1);
        assert!(engine
            .certain(&o, &d, &q, &[Term::Const(c)], &mut v)
            .is_certain());
    }
}
