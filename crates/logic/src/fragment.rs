//! The Figure-1 fragment lattice and ontology feature extraction.
//!
//! The paper parameterises uGF ontologies by: depth, number of variables
//! (`·₂`), whether the outermost guard must be equality (`·⁻`), whether
//! equality may occur in non-guard positions (`=`), whether partial
//! functions may be declared (`f`), and whether guarded counting
//! quantifiers are allowed (`GC₂`). This module extracts those features
//! from an ontology and matches them against the named fragments of
//! Figure 1, each of which carries its complexity-zone verdict.

use crate::depth::ontology_depth;
use crate::ontology::GfOntology;
use crate::syntax::Formula;
use gomq_core::Vocab;
use std::collections::BTreeSet;
use std::fmt;

/// Syntactic features of an ontology, extracted by [`FragmentFeatures::of`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FragmentFeatures {
    /// All sentences are uGF sentences (invariance under disjoint unions).
    pub is_ugf: bool,
    /// Maximum sentence depth (outermost quantifier not counted).
    pub depth: usize,
    /// Maximum number of distinct variables in any single sentence.
    pub max_vars: usize,
    /// Maximum arity of any relation symbol used.
    pub max_arity: usize,
    /// Every uGF sentence's outermost guard is an equality (`·⁻`).
    pub outer_guard_equality: bool,
    /// Equality occurs in a non-guard position (`=`).
    pub uses_equality: bool,
    /// A guarded counting quantifier occurs (GC₂).
    pub uses_counting: bool,
    /// A functionality axiom is declared (`f`).
    pub uses_functions: bool,
    /// A transitivity declaration occurs (outside every Figure-1
    /// fragment; the paper's conclusion leaves its study open).
    pub uses_transitivity: bool,
}

impl FragmentFeatures {
    /// Extracts the features of an ontology (the vocabulary supplies
    /// arities).
    pub fn of(o: &GfOntology, vocab: &Vocab) -> Self {
        let mut max_vars = 0usize;
        let mut uses_equality = false;
        let mut uses_counting = false;
        let mut outer_eq = true;
        let mut rels: BTreeSet<gomq_core::RelId> = BTreeSet::new();
        for s in &o.ugf_sentences {
            let mut vars = s.body.all_vars();
            vars.extend(s.qvars.iter().copied());
            vars.extend(s.guard.vars());
            max_vars = max_vars.max(vars.len());
            uses_equality |= s.body.uses_equality();
            uses_counting |= s.body.uses_counting();
            outer_eq &= s.outer_guard_is_equality();
            rels.extend(s.rels());
        }
        for s in &o.other_sentences {
            max_vars = max_vars.max(s.formula.all_vars().len());
            uses_equality |= formula_uses_equality_anywhere(&s.formula);
            uses_counting |= s.formula.uses_counting();
            outer_eq = false;
            rels.extend(s.formula.rels());
        }
        rels.extend(o.functional.iter().copied());
        rels.extend(o.inverse_functional.iter().copied());
        rels.extend(o.transitive.iter().copied());
        let max_arity = rels.iter().map(|&r| vocab.arity(r)).max().unwrap_or(0);
        FragmentFeatures {
            is_ugf: o.is_ugf(),
            depth: ontology_depth(o),
            max_vars,
            max_arity,
            outer_guard_equality: outer_eq,
            uses_equality,
            uses_counting,
            uses_functions: !o.functional.is_empty() || !o.inverse_functional.is_empty(),
            uses_transitivity: !o.transitive.is_empty(),
        }
    }
}

fn formula_uses_equality_anywhere(f: &Formula) -> bool {
    // For non-uGF sentences we count equality even in guards, conservatively.
    match f {
        Formula::Eq(_, _) => true,
        Formula::True | Formula::False | Formula::Atom { .. } => false,
        Formula::Not(g) => formula_uses_equality_anywhere(g),
        Formula::And(fs) | Formula::Or(fs) => fs.iter().any(formula_uses_equality_anywhere),
        Formula::Forall { body, .. }
        | Formula::Exists { body, .. }
        | Formula::CountExists { body, .. } => formula_uses_equality_anywhere(body),
    }
}

/// The complexity zone of a fragment in Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Zone {
    /// PTIME/coNP dichotomy holds; PTIME coincides with Datalog≠-
    /// rewritability (Theorem 7).
    Dichotomy,
    /// A dichotomy would imply the Feder–Vardi conjecture (Theorem 8).
    CspHard,
    /// Provably no dichotomy unless PTIME = NP (Theorem 11).
    NoDichotomy,
    /// Not placed by the paper.
    Unknown,
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Zone::Dichotomy => write!(f, "Dichotomy (Datalog!= = PTIME)"),
            Zone::CspHard => write!(f, "CSP-hard (Datalog!= != PTIME)"),
            Zone::NoDichotomy => write!(f, "No dichotomy"),
            Zone::Unknown => write!(f, "Unclassified"),
        }
    }
}

/// The named guarded-fragment ontology languages of Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Fragment {
    /// uGF(1): depth 1, no equality (except the outer guard), no counting.
    Ugf1,
    /// uGF⁻(1,=): depth 1, outer guard equality, equality allowed.
    UgfMinus1Eq,
    /// uGF⁻₂(2): two variables, depth 2, outer guard equality.
    UgfMinus2_2,
    /// uGC⁻₂(1,=): two variables with counting, depth 1, outer equality.
    UgcMinus2_1Eq,
    /// uGF₂(1,=): two variables, depth 1, equality, unrestricted outer guard.
    Ugf2_1Eq,
    /// uGF₂(2): two variables, depth 2, unrestricted outer guard.
    Ugf2_2,
    /// uGF₂(1,f): two variables, depth 1, partial functions.
    Ugf2_1F,
    /// uGF⁻₂(2,f): two variables, depth 2, outer equality, partial functions.
    UgfMinus2_2F,
    /// Full uGF with equality, any depth.
    UgfFull,
    /// Full GF (not invariant under disjoint unions).
    GfFull,
}

impl Fragment {
    /// All fragments, most restrictive first (so the first match in
    /// [`classify`] is the tightest Figure-1 label).
    pub fn all() -> &'static [Fragment] {
        &[
            Fragment::Ugf1,
            Fragment::UgfMinus1Eq,
            Fragment::UgcMinus2_1Eq,
            Fragment::Ugf2_1Eq,
            Fragment::Ugf2_1F,
            Fragment::UgfMinus2_2,
            Fragment::Ugf2_2,
            Fragment::UgfMinus2_2F,
            Fragment::UgfFull,
            Fragment::GfFull,
        ]
    }

    /// The paper's name for the fragment.
    pub fn name(self) -> &'static str {
        match self {
            Fragment::Ugf1 => "uGF(1)",
            Fragment::UgfMinus1Eq => "uGF-(1,=)",
            Fragment::UgfMinus2_2 => "uGF-2(2)",
            Fragment::UgcMinus2_1Eq => "uGC-2(1,=)",
            Fragment::Ugf2_1Eq => "uGF2(1,=)",
            Fragment::Ugf2_2 => "uGF2(2)",
            Fragment::Ugf2_1F => "uGF2(1,f)",
            Fragment::UgfMinus2_2F => "uGF-2(2,f)",
            Fragment::UgfFull => "uGF(=)",
            Fragment::GfFull => "GF(=)",
        }
    }

    /// The complexity zone Figure 1 assigns to the fragment.
    pub fn zone(self) -> Zone {
        match self {
            Fragment::Ugf1
            | Fragment::UgfMinus1Eq
            | Fragment::UgfMinus2_2
            | Fragment::UgcMinus2_1Eq => Zone::Dichotomy,
            Fragment::Ugf2_1Eq | Fragment::Ugf2_2 | Fragment::Ugf2_1F => Zone::CspHard,
            Fragment::UgfMinus2_2F => Zone::NoDichotomy,
            Fragment::UgfFull | Fragment::GfFull => Zone::Unknown,
        }
    }

    /// Whether an ontology with the given features belongs to the fragment.
    pub fn contains(self, f: &FragmentFeatures) -> bool {
        if f.uses_transitivity {
            return false; // outside GF and every Figure-1 fragment
        }
        let two_var = f.max_vars <= 2 && f.max_arity <= 2;
        match self {
            Fragment::Ugf1 => {
                f.is_ugf
                    && f.depth <= 1
                    && !f.uses_equality
                    && !f.uses_counting
                    && !f.uses_functions
            }
            Fragment::UgfMinus1Eq => {
                f.is_ugf
                    && f.depth <= 1
                    && f.outer_guard_equality
                    && !f.uses_counting
                    && !f.uses_functions
            }
            Fragment::UgfMinus2_2 => {
                f.is_ugf
                    && two_var
                    && f.depth <= 2
                    && f.outer_guard_equality
                    && !f.uses_equality
                    && !f.uses_counting
                    && !f.uses_functions
            }
            Fragment::UgcMinus2_1Eq => {
                f.is_ugf && two_var && f.depth <= 1 && f.outer_guard_equality && !f.uses_functions
            }
            Fragment::Ugf2_1Eq => {
                f.is_ugf && two_var && f.depth <= 1 && !f.uses_counting && !f.uses_functions
            }
            Fragment::Ugf2_2 => {
                f.is_ugf
                    && two_var
                    && f.depth <= 2
                    && !f.uses_equality
                    && !f.uses_counting
                    && !f.uses_functions
            }
            Fragment::Ugf2_1F => {
                f.is_ugf && two_var && f.depth <= 1 && !f.uses_equality && !f.uses_counting
            }
            Fragment::UgfMinus2_2F => {
                f.is_ugf
                    && two_var
                    && f.depth <= 2
                    && f.outer_guard_equality
                    && !f.uses_equality
                    && !f.uses_counting
            }
            Fragment::UgfFull => f.is_ugf && !f.uses_counting && !f.uses_functions,
            Fragment::GfFull => !f.uses_counting && !f.uses_functions,
        }
    }
}

impl fmt::Display for Fragment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// All Figure-1 fragments containing the ontology, most restrictive first.
pub fn classify(o: &GfOntology, vocab: &Vocab) -> Vec<Fragment> {
    Fragment::containing(&FragmentFeatures::of(o, vocab))
}

/// The tightest Figure-1 fragment containing the ontology, if any.
pub fn best_fragment(o: &GfOntology, vocab: &Vocab) -> Option<Fragment> {
    classify(o, vocab).into_iter().next()
}

/// The best complexity zone derivable from Figure 1 for the ontology: the
/// most favourable zone among the containing fragments (a dichotomy
/// fragment membership dominates).
pub fn best_zone(o: &GfOntology, vocab: &Vocab) -> Zone {
    Zone::best_of(&classify(o, vocab))
}

impl Fragment {
    /// All fragments containing an ontology with the given features,
    /// most restrictive first.
    pub fn containing(features: &FragmentFeatures) -> Vec<Fragment> {
        Fragment::all()
            .iter()
            .copied()
            .filter(|fr| fr.contains(features))
            .collect()
    }
}

impl Zone {
    /// The most favourable zone among the fragments' zones (a dichotomy
    /// fragment dominates; [`Zone::Unknown`] when there are none).
    pub fn best_of(fragments: &[Fragment]) -> Zone {
        let mut best = Zone::Unknown;
        for fr in fragments {
            best = match (best, fr.zone()) {
                (_, Zone::Dichotomy) | (Zone::Dichotomy, _) => Zone::Dichotomy,
                (Zone::CspHard, _) | (_, Zone::CspHard) => Zone::CspHard,
                (Zone::NoDichotomy, _) | (_, Zone::NoDichotomy) => Zone::NoDichotomy,
                _ => Zone::Unknown,
            };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::UgfSentence;
    use crate::syntax::{Guard, LVar};

    fn depth1_sentence(v: &mut Vocab) -> UgfSentence {
        let r = v.rel("R", 2);
        let a = v.rel("A", 1);
        let (x, y) = (LVar(0), LVar(1));
        // ∀x(x=x → ∃y(R(x,y) ∧ A(y)))
        UgfSentence::forall_one(
            x,
            Formula::Exists {
                qvars: vec![y],
                guard: Guard::Atom {
                    rel: r,
                    args: vec![x, y],
                },
                body: Box::new(Formula::unary(a, y)),
            },
            vec!["x".into(), "y".into()],
        )
    }

    #[test]
    fn depth1_no_eq_is_ugf1_dichotomy() {
        let mut v = Vocab::new();
        let o = GfOntology::from_ugf(vec![depth1_sentence(&mut v)]);
        let frags = classify(&o, &v);
        assert_eq!(frags[0], Fragment::Ugf1);
        assert_eq!(best_zone(&o, &v), Zone::Dichotomy);
    }

    #[test]
    fn functions_push_into_f_fragments() {
        let mut v = Vocab::new();
        let s = depth1_sentence(&mut v);
        let mut o = GfOntology::from_ugf(vec![s]);
        let f = v.rel("F", 2);
        o.declare_functional(f);
        let frags = classify(&o, &v);
        assert!(frags.contains(&Fragment::Ugf2_1F));
        assert!(!frags.contains(&Fragment::Ugf1));
        // Outer guard is equality and depth 1 ≤ 2, so uGF⁻₂(2,f) also contains it;
        // the best zone is still the CSP-hard uGF₂(1,f) → actually
        // dichotomy does not apply, so zone is CSP-hard at best.
        assert_eq!(best_zone(&o, &v), Zone::CspHard);
    }

    #[test]
    fn csp_hard_fragment_when_outer_guard_not_equality() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let a = v.rel("A", 1);
        let (x, y) = (LVar(0), LVar(1));
        // ∀xy(R(x,y) → (A(x) ∨ x=y)) — depth 0 body with equality, guard R.
        let s = UgfSentence::new(
            vec![x, y],
            Guard::Atom {
                rel: r,
                args: vec![x, y],
            },
            Formula::Or(vec![Formula::unary(a, x), Formula::Eq(x, y)]),
            vec!["x".into(), "y".into()],
        );
        let o = GfOntology::from_ugf(vec![s]);
        let frags = classify(&o, &v);
        // Equality in the body rules out uGF(1); non-equality outer guard
        // rules out the ·⁻ fragments except via counting-free uGC: the
        // tightest is uGF₂(1,=).
        assert_eq!(frags[0], Fragment::Ugf2_1Eq);
        assert_eq!(frags[0].zone(), Zone::CspHard);
    }

    #[test]
    fn counting_requires_ugc() {
        let mut v = Vocab::new();
        let r = v.rel("hasFinger", 2);
        let h = v.rel("Hand", 1);
        let (x, y) = (LVar(0), LVar(1));
        // ∀x(Hand(x) → ∃≥5 y hasFinger(x,y)) — as uGF⁻ sentence with equality
        // outer guard: ∀x(x=x → (Hand(x) → ∃≥5 y hasFinger(x,y))).
        let s = UgfSentence::forall_one(
            x,
            Formula::implies(
                Formula::unary(h, x),
                Formula::CountExists {
                    n: 5,
                    qvar: y,
                    guard: Guard::Atom {
                        rel: r,
                        args: vec![x, y],
                    },
                    body: Box::new(Formula::True),
                },
            ),
            vec!["x".into(), "y".into()],
        );
        let o = GfOntology::from_ugf(vec![s]);
        let frags = classify(&o, &v);
        assert_eq!(frags[0], Fragment::UgcMinus2_1Eq);
        assert_eq!(best_zone(&o, &v), Zone::Dichotomy);
    }

    #[test]
    fn three_variables_exclude_two_var_fragments() {
        let mut v = Vocab::new();
        let w = v.rel("W", 3);
        let (x, y, z) = (LVar(0), LVar(1), LVar(2));
        let s = UgfSentence::new(
            vec![x, y, z],
            Guard::Atom {
                rel: w,
                args: vec![x, y, z],
            },
            Formula::True,
            vec!["x".into(), "y".into(), "z".into()],
        );
        let o = GfOntology::from_ugf(vec![s]);
        let frags = classify(&o, &v);
        assert!(frags.contains(&Fragment::Ugf1));
        assert!(!frags.contains(&Fragment::Ugf2_2));
    }

    #[test]
    fn no_dichotomy_fragment() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let p = v.rel("P", 2);
        let (x, y, _) = (LVar(0), LVar(1), LVar(2));
        // depth-2, two-variable, outer equality, with a function: uGF⁻₂(2,f).
        let inner = Formula::Exists {
            qvars: vec![x],
            guard: Guard::Atom {
                rel: p,
                args: vec![y, x],
            },
            body: Box::new(Formula::True),
        };
        let s = UgfSentence::forall_one(
            x,
            Formula::Exists {
                qvars: vec![y],
                guard: Guard::Atom {
                    rel: r,
                    args: vec![x, y],
                },
                body: Box::new(inner),
            },
            vec!["x".into(), "y".into()],
        );
        let mut o = GfOntology::from_ugf(vec![s]);
        let f = v.rel("F", 2);
        o.declare_functional(f);
        let frags = classify(&o, &v);
        assert_eq!(frags[0], Fragment::UgfMinus2_2F);
        assert_eq!(best_zone(&o, &v), Zone::NoDichotomy);
    }
}
