//! Interpretations and instances.
//!
//! An [`Interpretation`] is a finite, non-empty-by-convention set of atoms
//! over constants and labelled nulls. A database *instance* is an
//! interpretation whose terms are all constants ([`Interpretation::is_instance`]).
//! Following the paper we make the strong open world assumption: an
//! interpretation `A` is a model of an instance `D` iff `D ⊆ A`.
//!
//! Since the columnar-fact-plane refactor an interpretation is a thin
//! view over a [`FactStore`]: the store owns the facts (one flat term
//! arena, dedup, per-relation index) and the interpretation adds only the
//! per-term index that the guarded-fragment algorithms need. Iteration
//! yields borrowed [`FactRef`]s; owned [`Fact`]s appear only at parse and
//! test boundaries.

use crate::fact::{Fact, Term};
use crate::store::{FactRef, FactStore, StoreStats};
use crate::symbols::{ConstId, RelId, Vocab};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// The arity recorded in the [`Vocab`] disagrees with a fact's argument
/// count — the fact is ill-formed and was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArityError {
    /// The relation symbol of the rejected fact.
    pub rel: RelId,
    /// The arity the vocabulary records for `rel`.
    pub expected: usize,
    /// The number of arguments the fact actually carried.
    pub got: usize,
}

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "arity mismatch: relation expects {} argument(s), fact has {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for ArityError {}

/// A finite set of facts over constants and labelled nulls, with indexes
/// by relation symbol and by term.
///
/// Insertion is deduplicating; iteration order is insertion order (which is
/// deterministic for deterministic construction code). Use
/// [`Interpretation::sorted_facts`] when canonical order is needed.
#[derive(Clone, Default)]
pub struct Interpretation {
    store: FactStore,
    by_term: HashMap<Term, Vec<u32>>,
}

/// A database instance: an interpretation over constants only.
///
/// This is a type alias; the invariant is checked where it matters via
/// [`Interpretation::is_instance`].
pub type Instance = Interpretation;

impl Interpretation {
    /// Creates an empty interpretation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an interpretation from facts.
    pub fn from_facts(facts: impl IntoIterator<Item = Fact>) -> Self {
        let mut a = Self::new();
        for f in facts {
            a.insert(f);
        }
        a
    }

    /// Rebuilds the per-term index over an existing store.
    pub fn from_store(store: FactStore) -> Self {
        let mut by_term: HashMap<Term, Vec<u32>> = HashMap::new();
        for (idx, f) in store.iter().enumerate() {
            for &t in f.args {
                let bucket = by_term.entry(t).or_default();
                if bucket.last() != Some(&(idx as u32)) {
                    bucket.push(idx as u32);
                }
            }
        }
        Interpretation { store, by_term }
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.insert_ref(fact.rel, &fact.args)
    }

    /// Inserts a fact given as a relation and an argument slice, without
    /// requiring an owned [`Fact`]; returns `true` if it was new.
    ///
    /// This is the allocation-free fast path: a duplicate costs one hash
    /// and one slice comparison, a new fact one arena append.
    pub fn insert_ref(&mut self, rel: RelId, args: &[Term]) -> bool {
        let (id, new) = self.store.intern(rel, args);
        if new {
            for &t in args {
                // A term repeated within one fact hits the same (freshly
                // pushed) bucket tail, so the dedup check is O(1) per
                // argument rather than a scan of the preceding arguments.
                let bucket = self.by_term.entry(t).or_default();
                if bucket.last() != Some(&id.0) {
                    bucket.push(id.0);
                }
            }
        }
        new
    }

    /// Inserts a fact after validating its argument count against the
    /// vocabulary; malformed facts are rejected with a typed error
    /// instead of (in release builds) silently corrupting the store.
    ///
    /// The textual parser makes the same check, with the same error,
    /// before it interns a fact into its store.
    pub fn insert_checked(&mut self, fact: &Fact, vocab: &Vocab) -> Result<bool, ArityError> {
        let expected = vocab.arity(fact.rel);
        if expected != fact.args.len() {
            return Err(ArityError {
                rel: fact.rel,
                expected,
                got: fact.args.len(),
            });
        }
        Ok(self.insert_ref(fact.rel, &fact.args))
    }

    /// Inserts every fact of `other`, borrowing its arena (no per-fact
    /// allocation).
    pub fn extend_from(&mut self, other: &Interpretation) {
        for f in other.iter() {
            self.insert_ref(f.rel, f.args);
        }
    }

    /// Consumes `other` and folds its facts into `self`. When `self` is
    /// empty this moves the whole store (arena and indexes) instead of
    /// re-interning fact by fact.
    pub fn absorb(&mut self, other: Interpretation) {
        if self.is_empty() {
            *self = other;
        } else {
            self.extend_from(&other);
        }
    }

    /// Whether the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.store.lookup(fact.rel, &fact.args).is_some()
    }

    /// Whether the fact given as relation and argument slice is present.
    pub fn contains_ref(&self, rel: RelId, args: &[Term]) -> bool {
        self.store.lookup(rel, args).is_some()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether there are no facts.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Iterates over all facts in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = FactRef<'_>> {
        self.store.iter()
    }

    /// All facts in canonical (sorted) order.
    pub fn sorted_facts(&self) -> Vec<FactRef<'_>> {
        let mut v: Vec<FactRef<'_>> = self.store.iter().collect();
        v.sort();
        v
    }

    /// The backing columnar store.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Consumes the interpretation, releasing its store (the per-term
    /// index is dropped). This is how [`crate::IndexedInstance`] adopts
    /// an interpretation's facts without copying them.
    pub fn into_store(self) -> FactStore {
        self.store
    }

    /// Storage-pressure counters of the backing store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Ids (positions in insertion order) of the facts of one relation;
    /// resolve them with [`Interpretation::fact_by_id`]. This is the raw
    /// form of [`Interpretation::facts_of`] used by the
    /// [`crate::index::FactLookup`] implementation. Buckets are ascending
    /// in fact id.
    pub fn rel_fact_ids(&self, rel: RelId) -> &[u32] {
        self.store.rel_ids(rel)
    }

    /// Resolves a fact id from [`Interpretation::rel_fact_ids`].
    pub fn fact_by_id(&self, id: u32) -> FactRef<'_> {
        self.store.fact_ref(crate::store::FactId(id))
    }

    /// Iterates over the facts of one relation symbol.
    pub fn facts_of(&self, rel: RelId) -> impl Iterator<Item = FactRef<'_>> {
        self.store
            .rel_ids(rel)
            .iter()
            .map(move |&i| self.fact_by_id(i))
    }

    /// Iterates over the facts mentioning a term.
    pub fn facts_with_term(&self, t: Term) -> impl Iterator<Item = FactRef<'_>> {
        self.by_term
            .get(&t)
            .into_iter()
            .flatten()
            .map(move |&i| self.fact_by_id(i))
    }

    /// The active domain: every term occurring in some fact, in canonical
    /// order.
    pub fn dom(&self) -> BTreeSet<Term> {
        self.by_term.keys().copied().collect()
    }

    /// The constants in the active domain.
    pub fn consts(&self) -> BTreeSet<ConstId> {
        self.by_term
            .keys()
            .filter_map(|t| match t {
                Term::Const(c) => Some(*c),
                Term::Null(_) => None,
            })
            .collect()
    }

    /// The relation symbols occurring in the interpretation (the paper's
    /// `sig(A)`).
    pub fn sig(&self) -> BTreeSet<RelId> {
        self.store.rels_present().collect()
    }

    /// Whether all terms are constants, i.e. this interpretation is a
    /// database instance in the paper's sense.
    pub fn is_instance(&self) -> bool {
        self.by_term.keys().all(|t| t.is_const())
    }

    /// Whether `self` is a model of the instance `d`, i.e. `d ⊆ self`.
    pub fn models_instance(&self, d: &Interpretation) -> bool {
        d.iter().all(|f| self.contains_ref(f.rel, f.args))
    }

    /// The subinterpretation induced by a set of terms: all facts whose
    /// arguments all lie in `domain` (the paper's `B|_A`).
    pub fn induced(&self, domain: &BTreeSet<Term>) -> Interpretation {
        let mut out = Interpretation::new();
        for f in self.iter() {
            if f.args.iter().all(|t| domain.contains(t)) {
                out.insert_ref(f.rel, f.args);
            }
        }
        out
    }

    /// The restriction of the interpretation to facts over a sub-signature.
    pub fn reduct(&self, sig: &BTreeSet<RelId>) -> Interpretation {
        let mut out = Interpretation::new();
        for f in self.iter() {
            if sig.contains(&f.rel) {
                out.insert_ref(f.rel, f.args);
            }
        }
        out
    }

    /// Applies a term mapping to every fact.
    pub fn map_terms(&self, mut f: impl FnMut(Term) -> Term) -> Interpretation {
        let mut out = Interpretation::new();
        let mut scratch: Vec<Term> = Vec::new();
        for fact in self.iter() {
            scratch.clear();
            scratch.extend(fact.args.iter().map(|&t| f(t)));
            out.insert_ref(fact.rel, &scratch);
        }
        out
    }

    /// Renames the domain of `self` apart from `other`'s domain by replacing
    /// every shared term with a fresh null, returning the renamed copy and
    /// the renaming.
    pub fn rename_apart(
        &self,
        other: &Interpretation,
        vocab: &mut Vocab,
    ) -> (Interpretation, BTreeMap<Term, Term>) {
        let other_dom = other.dom();
        let mut renaming: BTreeMap<Term, Term> = BTreeMap::new();
        for t in self.dom() {
            if other_dom.contains(&t) {
                renaming.insert(t, Term::Null(vocab.fresh_null()));
            }
        }
        let renamed = self.map_terms(|t| *renaming.get(&t).unwrap_or(&t));
        (renamed, renaming)
    }

    /// Disjoint union: renames `other` apart from `self`, then unions.
    pub fn disjoint_union(&self, other: &Interpretation, vocab: &mut Vocab) -> Interpretation {
        let (renamed, _) = other.rename_apart(self, vocab);
        let mut out = self.clone();
        out.absorb(renamed);
        out
    }

    /// Plain union of the fact sets.
    pub fn union(&self, other: &Interpretation) -> Interpretation {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }

    /// Renders the interpretation as a sorted, comma-separated fact list.
    pub fn display<'a>(&'a self, vocab: &'a Vocab) -> InterpretationDisplay<'a> {
        InterpretationDisplay {
            interp: self,
            vocab,
        }
    }
}

impl PartialEq for Interpretation {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().all(|f| other.contains_ref(f.rel, f.args))
    }
}

impl Eq for Interpretation {}

impl fmt::Debug for Interpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.sorted_facts()).finish()
    }
}

/// Helper for rendering an [`Interpretation`] with human-readable names.
pub struct InterpretationDisplay<'a> {
    interp: &'a Interpretation,
    vocab: &'a Vocab,
}

impl fmt::Display for InterpretationDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fact) in self.interp.sorted_facts().into_iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", fact.display(self.vocab))?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Vocab, Interpretation) {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let a = v.constant("a");
        let b = v.constant("b");
        let c = v.constant("c");
        let mut i = Interpretation::new();
        i.insert(Fact::consts(r, &[a, b]));
        i.insert(Fact::consts(r, &[b, c]));
        (v, i)
    }

    #[test]
    fn insert_dedupes() {
        let (mut v, mut i) = setup();
        let r = v.rel("R", 2);
        let a = v.constant("a");
        let b = v.constant("b");
        assert!(!i.insert(Fact::consts(r, &[a, b])));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn insert_checked_rejects_bad_arity() {
        let (mut v, mut i) = setup();
        let r = v.rel("R", 2);
        let a = v.constant("a");
        let bad = Fact::consts(r, &[a]);
        let err = i.insert_checked(&bad, &v).unwrap_err();
        assert_eq!(
            err,
            ArityError {
                rel: r,
                expected: 2,
                got: 1
            }
        );
        assert_eq!(i.len(), 2);
        let b = v.constant("b");
        assert_eq!(i.insert_checked(&Fact::consts(r, &[a, b]), &v), Ok(false));
        let d = v.constant("d");
        assert_eq!(i.insert_checked(&Fact::consts(r, &[a, d]), &v), Ok(true));
    }

    #[test]
    fn dom_and_sig() {
        let (mut v, i) = setup();
        assert_eq!(i.dom().len(), 3);
        assert_eq!(i.sig().len(), 1);
        assert!(i.is_instance());
        let n = v.fresh_null();
        let r = v.rel("R", 2);
        let mut j = i.clone();
        j.insert(Fact::new(r, vec![Term::Null(n), Term::Null(n)]));
        assert!(!j.is_instance());
    }

    #[test]
    fn repeated_terms_index_once() {
        let mut v = Vocab::new();
        let r = v.rel("R", 3);
        let a = v.constant("a");
        let b = v.constant("b");
        let mut i = Interpretation::new();
        i.insert(Fact::consts(r, &[a, a, b]));
        assert_eq!(i.facts_with_term(Term::Const(a)).count(), 1);
        assert_eq!(i.facts_with_term(Term::Const(b)).count(), 1);
    }

    #[test]
    fn absorb_moves_into_empty() {
        let (mut v, i) = setup();
        let mut empty = Interpretation::new();
        empty.absorb(i.clone());
        assert_eq!(empty, i);
        // Non-empty target: union semantics over a shared prefix.
        let r = v.rel("R", 2);
        let c = v.constant("c");
        let d = v.constant("d");
        let mut j = Interpretation::new();
        j.insert(Fact::consts(r, &[c, d]));
        j.insert(Fact::consts(r, &[v.constant("a"), v.constant("b")]));
        let mut k = i.clone();
        k.absorb(j);
        assert_eq!(k.len(), 3);
    }

    #[test]
    fn induced_subinterpretation() {
        let (mut v, i) = setup();
        let a = v.constant("a");
        let b = v.constant("b");
        let sub: BTreeSet<Term> = [Term::Const(a), Term::Const(b)].into_iter().collect();
        let ind = i.induced(&sub);
        assert_eq!(ind.len(), 1);
    }

    #[test]
    fn models_instance_is_superset_test() {
        let (_, i) = setup();
        let mut bigger = i.clone();
        assert!(bigger.models_instance(&i));
        let mut v2 = Vocab::new();
        let s = v2.rel("S", 1);
        let d = v2.constant("d");
        bigger.insert(Fact::consts(s, &[d]));
        assert!(bigger.models_instance(&i));
        assert!(!i.models_instance(&bigger));
    }

    #[test]
    fn disjoint_union_renames_shared_terms() {
        let (mut v, i) = setup();
        let u = i.disjoint_union(&i.clone(), &mut v);
        // All three terms of the copy get renamed to fresh nulls, so the
        // union has twice the facts and twice the domain.
        assert_eq!(u.len(), 4);
        assert_eq!(u.dom().len(), 6);
    }

    #[test]
    fn facts_with_term_index() {
        let (mut v, i) = setup();
        let b = Term::Const(v.constant("b"));
        assert_eq!(i.facts_with_term(b).count(), 2);
        let a = Term::Const(v.constant("a"));
        assert_eq!(i.facts_with_term(a).count(), 1);
    }

    #[test]
    fn from_store_rebuilds_term_index() {
        let (v, i) = setup();
        let _ = &v;
        let store = i.clone().into_store();
        let back = Interpretation::from_store(store);
        assert_eq!(back, i);
        assert_eq!(back.dom(), i.dom());
    }

    #[test]
    fn reduct_filters_signature() {
        let mut v = Vocab::new();
        let r = v.rel("R", 1);
        let s = v.rel("S", 1);
        let a = v.constant("a");
        let mut i = Interpretation::new();
        i.insert(Fact::consts(r, &[a]));
        i.insert(Fact::consts(s, &[a]));
        let sig: BTreeSet<RelId> = [r].into_iter().collect();
        assert_eq!(i.reduct(&sig).len(), 1);
    }
}
