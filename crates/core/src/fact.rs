//! Terms and facts (ground atoms).

use crate::symbols::{ConstId, NullId, RelId, Vocab};
use std::fmt;

/// A ground term: either a data constant or a labelled null.
///
/// Instances contain only constants; interpretations may additionally
/// contain labelled nulls (the anonymous elements invented by the chase or
/// present in forest models).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Term {
    /// A named data constant from ∆_D.
    Const(ConstId),
    /// A labelled null from ∆_N.
    Null(NullId),
}

impl Term {
    /// Whether this term is a constant.
    pub fn is_const(self) -> bool {
        matches!(self, Term::Const(_))
    }

    /// Whether this term is a labelled null.
    pub fn is_null(self) -> bool {
        matches!(self, Term::Null(_))
    }

    /// Renders the term using the vocabulary for constant names.
    pub fn display<'a>(&self, vocab: &'a Vocab) -> TermDisplay<'a> {
        TermDisplay { term: *self, vocab }
    }
}

impl From<ConstId> for Term {
    fn from(c: ConstId) -> Self {
        Term::Const(c)
    }
}

impl From<NullId> for Term {
    fn from(n: NullId) -> Self {
        Term::Null(n)
    }
}

/// Helper for rendering a [`Term`] with its human-readable name.
pub struct TermDisplay<'a> {
    term: Term,
    vocab: &'a Vocab,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Term::Const(c) => write!(f, "{}", self.vocab.const_name(c)),
            Term::Null(n) => write!(f, "_:{}", n.0),
        }
    }
}

/// A fact `R(t₁, …, t_k)`: a relation symbol applied to ground terms.
///
/// The arity of `rel` (as recorded in the [`Vocab`]) must equal
/// `args.len()`; ingestion boundaries enforce this: the text parser
/// before it interns a fact, and
/// [`crate::Interpretation::insert_checked`] for owned facts.
///
/// `Fact` is the *owned-escape* form of a fact, used at parse and display
/// boundaries and in tests; the working currency inside evaluation is the
/// borrowed [`crate::FactRef`], whose arguments live in a
/// [`crate::FactStore`] arena.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fact {
    /// The relation symbol.
    pub rel: RelId,
    /// The argument terms.
    pub args: Vec<Term>,
}

impl Fact {
    /// Creates a fact.
    pub fn new(rel: RelId, args: Vec<Term>) -> Self {
        Fact { rel, args }
    }

    /// Creates a fact whose arguments are all constants.
    pub fn consts(rel: RelId, args: &[ConstId]) -> Self {
        Fact {
            rel,
            args: args.iter().map(|&c| Term::Const(c)).collect(),
        }
    }

    /// Whether every argument is a constant.
    pub fn is_ground_over_consts(&self) -> bool {
        self.args.iter().all(|t| t.is_const())
    }

    /// Applies a term mapping to all arguments, producing a new fact.
    pub fn map_terms(&self, mut f: impl FnMut(Term) -> Term) -> Fact {
        Fact {
            rel: self.rel,
            args: self.args.iter().map(|&t| f(t)).collect(),
        }
    }

    /// This fact as a borrowed [`FactRef`] view.
    pub fn as_ref(&self) -> FactRef<'_> {
        FactRef::new(self.rel, &self.args)
    }

    /// Renders the fact using the vocabulary.
    pub fn display<'a>(&'a self, vocab: &'a Vocab) -> FactDisplay<'a> {
        FactDisplay::new(self.as_ref(), vocab)
    }
}

use crate::store::FactRef;

/// Helper for rendering a [`Fact`] or [`FactRef`] with human-readable
/// names.
pub struct FactDisplay<'a> {
    fact: FactRef<'a>,
    vocab: &'a Vocab,
}

impl<'a> FactDisplay<'a> {
    pub(crate) fn new(fact: FactRef<'a>, vocab: &'a Vocab) -> Self {
        FactDisplay { fact, vocab }
    }
}

impl fmt::Display for FactDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.vocab.rel_name(self.fact.rel))?;
        for (i, t) in self.fact.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", t.display(self.vocab))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_kinds() {
        let c = Term::Const(ConstId(0));
        let n = Term::Null(NullId(0));
        assert!(c.is_const() && !c.is_null());
        assert!(n.is_null() && !n.is_const());
        assert_ne!(c, n);
    }

    #[test]
    fn fact_display_and_map() {
        let mut v = Vocab::new();
        let r = v.rel("edge", 2);
        let a = v.constant("a");
        let b = v.constant("b");
        let f = Fact::consts(r, &[a, b]);
        assert_eq!(format!("{}", f.display(&v)), "edge(a,b)");
        assert!(f.is_ground_over_consts());
        let swapped = f.map_terms(|t| {
            if t == Term::Const(a) {
                Term::Const(b)
            } else {
                Term::Const(a)
            }
        });
        assert_eq!(format!("{}", swapped.display(&v)), "edge(b,a)");
    }
}
