//! Dense interning of [`Term`]s.
//!
//! Kernels that index per-element state by array offset (bitset rows,
//! CSR adjacency) need a bijection between the terms of an instance and
//! `0..n`. [`TermInterner`] provides it: insertion order assigns ids,
//! lookups are hash probes, and the reverse direction is a `Vec` index.

use crate::fact::Term;
use crate::store::FxHashMap;

/// A `Term → u32` interner with `u32 → Term` reverse lookup.
///
/// Keyed by the store's Fx hasher: terms are interned ids, never
/// client-controlled strings, so collision resistance buys nothing.
#[derive(Clone, Debug, Default)]
pub struct TermInterner {
    ids: FxHashMap<Term, u32>,
    terms: Vec<Term>,
}

impl TermInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a term, returning its dense id (stable across calls).
    pub fn intern(&mut self, t: Term) -> u32 {
        match self.ids.get(&t) {
            Some(&id) => id,
            None => {
                let id = self.terms.len() as u32;
                self.ids.insert(t, id);
                self.terms.push(t);
                id
            }
        }
    }

    /// The id of an already interned term.
    pub fn get(&self, t: Term) -> Option<u32> {
        self.ids.get(&t).copied()
    }

    /// The term with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never returned by [`TermInterner::intern`].
    pub fn term(&self, id: u32) -> Term {
        self.terms[id as usize]
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates over the interned terms in id order.
    pub fn iter(&self) -> impl Iterator<Item = Term> + '_ {
        self.terms.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocab;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut v = Vocab::new();
        let a = Term::Const(v.constant("a"));
        let b = Term::Const(v.constant("b"));
        let mut i = TermInterner::new();
        assert_eq!(i.intern(a), 0);
        assert_eq!(i.intern(b), 1);
        assert_eq!(i.intern(a), 0);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(b), Some(1));
        assert_eq!(i.term(1), b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(i.get(Term::Null(crate::symbols::NullId(7))), None);
    }
}
