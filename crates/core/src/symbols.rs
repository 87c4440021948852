//! Interned symbols: relation names (with arity), constants and labelled
//! nulls.
//!
//! All structural algorithms work on compact integer ids; a [`Vocab`] owns
//! the id ↔ name mapping and is only consulted for display and parsing.

use std::collections::HashMap;
use std::fmt;

/// Relation names beginning with this character are reserved for the
/// relations the system derives itself — the Theorem-5 rewriting's
/// `_elim{t}`, `_dom`, `_goal` and `_sedge{r}` IDB predicates, whose
/// names every compiled plan shares. The text parsers for ontologies
/// and instances refuse such names, so no user fact can land in (or
/// pin the arity of) a derived relation.
pub const RESERVED_REL_PREFIX: char = '_';

/// Whether `name` lies in the reserved relation namespace
/// ([`RESERVED_REL_PREFIX`]).
pub fn is_reserved_rel_name(name: &str) -> bool {
    name.starts_with(RESERVED_REL_PREFIX)
}

/// The refusal for a reserved relation name met where user data names a
/// relation.
pub fn reserved_rel_message(name: &str) -> String {
    format!(
        "relation name `{name}` is reserved (names starting with `{RESERVED_REL_PREFIX}` belong \
         to derived relations)"
    )
}

/// Identifier of a relation symbol. The arity is stored in the [`Vocab`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RelId(pub u32);

/// Identifier of a data constant (an element of the paper's ∆_D).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConstId(pub u32);

/// Identifier of a labelled null (an element of the paper's ∆_N).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NullId(pub u32);

impl fmt::Display for RelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl fmt::Display for ConstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A vocabulary: the bidirectional mapping between symbol names and ids.
///
/// Relation symbols carry an arity; registering the same name twice with
/// different arities is an error (the paper assumes a single signature Σ
/// with infinitely many symbols of every arity, so names uniquely determine
/// arities).
///
/// Nulls are anonymous: they are created fresh and displayed as `_:k`.
#[derive(Clone, Debug, Default)]
pub struct Vocab {
    rel_names: Vec<(String, usize)>,
    rel_by_name: HashMap<String, RelId>,
    const_names: Vec<String>,
    const_by_name: HashMap<String, ConstId>,
    next_null: u32,
}

impl Vocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a relation symbol with the given arity.
    ///
    /// # Panics
    ///
    /// Panics if `name` was previously registered with a different arity;
    /// a name determines its arity globally.
    pub fn rel(&mut self, name: &str, arity: usize) -> RelId {
        if let Some(&id) = self.rel_by_name.get(name) {
            assert_eq!(
                self.rel_names[id.0 as usize].1, arity,
                "relation symbol `{name}` re-registered with different arity"
            );
            return id;
        }
        let id = RelId(self.rel_names.len() as u32);
        self.rel_names.push((name.to_owned(), arity));
        self.rel_by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a relation symbol by name without interning it.
    pub fn find_rel(&self, name: &str) -> Option<RelId> {
        self.rel_by_name.get(name).copied()
    }

    /// The arity of a relation symbol.
    pub fn arity(&self, rel: RelId) -> usize {
        self.rel_names[rel.0 as usize].1
    }

    /// The name of a relation symbol.
    pub fn rel_name(&self, rel: RelId) -> &str {
        &self.rel_names[rel.0 as usize].0
    }

    /// Number of interned relation symbols.
    pub fn rel_count(&self) -> usize {
        self.rel_names.len()
    }

    /// Iterates over all interned relation ids.
    pub fn rels(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.rel_names.len() as u32).map(RelId)
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: &str) -> ConstId {
        if let Some(&id) = self.const_by_name.get(name) {
            return id;
        }
        let id = ConstId(self.const_names.len() as u32);
        self.const_names.push(name.to_owned());
        self.const_by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a constant by name without interning it.
    pub fn find_constant(&self, name: &str) -> Option<ConstId> {
        self.const_by_name.get(name).copied()
    }

    /// The name of a constant.
    pub fn const_name(&self, c: ConstId) -> &str {
        &self.const_names[c.0 as usize]
    }

    /// Number of interned constants.
    pub fn const_count(&self) -> usize {
        self.const_names.len()
    }

    /// A checkpoint of the constant table, for scoped interning: pass it
    /// to [`Vocab::truncate_consts`] to drop every constant interned
    /// after this point. Long-lived serving sessions use this to keep
    /// per-request ABox constants from accumulating forever.
    pub fn const_mark(&self) -> usize {
        self.const_names.len()
    }

    /// Drops every constant interned after `mark` (a value previously
    /// returned by [`Vocab::const_mark`]). Ids handed out after the mark
    /// become dangling — callers must not retain [`ConstId`]s across the
    /// truncation. Relation symbols and nulls are unaffected.
    pub fn truncate_consts(&mut self, mark: usize) {
        for name in self.const_names.drain(mark.min(self.const_names.len())..) {
            self.const_by_name.remove(&name);
        }
    }

    /// Creates a fresh labelled null.
    pub fn fresh_null(&mut self) -> NullId {
        let id = NullId(self.next_null);
        self.next_null += 1;
        id
    }

    /// Number of nulls created so far.
    pub fn null_count(&self) -> u32 {
        self.next_null
    }

    /// Raises the null counter to at least `n` (no-op if already there).
    /// Snapshot restore uses this to re-establish the pre-crash null
    /// horizon, so post-recovery requests mint the same fresh nulls the
    /// uninterrupted session would have.
    pub fn ensure_nulls(&mut self, n: u32) {
        self.next_null = self.next_null.max(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_interning_is_idempotent() {
        let mut v = Vocab::new();
        let r1 = v.rel("R", 2);
        let r2 = v.rel("R", 2);
        assert_eq!(r1, r2);
        assert_eq!(v.arity(r1), 2);
        assert_eq!(v.rel_name(r1), "R");
        assert_eq!(v.rel_count(), 1);
    }

    #[test]
    #[should_panic(expected = "different arity")]
    fn rel_arity_conflict_panics() {
        let mut v = Vocab::new();
        v.rel("R", 2);
        v.rel("R", 3);
    }

    #[test]
    fn constants_and_nulls_are_distinct_namespaces() {
        let mut v = Vocab::new();
        let a = v.constant("a");
        let b = v.constant("b");
        let a2 = v.constant("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let n0 = v.fresh_null();
        let n1 = v.fresh_null();
        assert_ne!(n0, n1);
        assert_eq!(v.null_count(), 2);
    }

    #[test]
    fn const_scoping_rolls_back_interning() {
        let mut v = Vocab::new();
        let kept = v.constant("kept");
        let mark = v.const_mark();
        v.constant("scoped_a");
        v.constant("scoped_b");
        assert_eq!(v.const_count(), 3);
        v.truncate_consts(mark);
        assert_eq!(v.const_count(), 1);
        assert_eq!(v.find_constant("kept"), Some(kept));
        assert!(v.find_constant("scoped_a").is_none());
        assert!(v.find_constant("scoped_b").is_none());
        // Re-interning after a rollback reuses the freed id range.
        let again = v.constant("scoped_a");
        assert_eq!(again.0, 1);
        // Truncating with a stale (too large) mark is a no-op.
        v.truncate_consts(99);
        assert_eq!(v.const_count(), 2);
    }

    #[test]
    fn find_without_interning() {
        let mut v = Vocab::new();
        assert!(v.find_rel("R").is_none());
        assert!(v.find_constant("a").is_none());
        v.rel("R", 1);
        v.constant("a");
        assert!(v.find_rel("R").is_some());
        assert!(v.find_constant("a").is_some());
    }
}
