//! Interned symbols: relation names (with arity), constants and labelled
//! nulls.
//!
//! All structural algorithms work on compact integer ids; a [`Vocab`] owns
//! the id ↔ name mapping and is only consulted for display and parsing.
//!
//! Constants churn: every request ABox interns its own and the serving
//! session rolls them back afterwards ([`Vocab::const_mark`],
//! [`Vocab::truncate_consts`]). So the constant table allocates nothing
//! per name. Names live end to end in one `String` arena with an end
//! offset per id. Each id also keeps its name's hash, computed once
//! with the process-keyed SipHash of [`RandomState`]. The index maps a
//! hash to the newest id that has it, and a chain links each id to the
//! next older id with the same hash. A lookup hashes the name once and
//! compares arena slices along the chain. A keyed hash leaves a client
//! no way to aim names at one chain. Truncation pops the arena and
//! unhooks ids newest first from their stored hashes, without rehashing.

use crate::store::FxHashMap;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;

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
    consts: ConstTable,
    next_null: u32,
}

/// No older id with the same hash (the end of a chain).
const NO_CONST: u32 = u32::MAX;

/// The constant table: see the [module docs](self).
#[derive(Clone, Debug, Default)]
struct ConstTable {
    /// Every name, end to end, in id order.
    text: String,
    /// `ends[i]` is where name `i` ends in `text`; it starts where name
    /// `i - 1` ends (or at 0).
    ends: Vec<u32>,
    /// The keyed hash of name `i`.
    hashes: Vec<u64>,
    /// The next older id whose name has the same hash, or [`NO_CONST`].
    older: Vec<u32>,
    /// Hash → the newest id whose name has it.
    newest: FxHashMap<u64, u32>,
    /// The process-keyed hash function.
    keys: RandomState,
}

impl ConstTable {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn start(&self, id: usize) -> usize {
        if id == 0 {
            0
        } else {
            self.ends[id - 1] as usize
        }
    }

    fn name(&self, id: usize) -> &str {
        &self.text[self.start(id)..self.ends[id] as usize]
    }

    /// The id of `name`, given its hash `h`.
    fn find(&self, name: &str, h: u64) -> Option<u32> {
        let mut id = *self.newest.get(&h)?;
        while id != NO_CONST {
            if self.name(id as usize) == name {
                return Some(id);
            }
            id = self.older[id as usize];
        }
        None
    }

    fn hash(&self, name: &str) -> u64 {
        self.keys.hash_one(name)
    }

    /// Interns `name`, given its hash `h`.
    fn intern(&mut self, name: &str, h: u64) -> u32 {
        if let Some(id) = self.find(name, h) {
            return id;
        }
        let id = self.len() as u32;
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
        self.hashes.push(h);
        self.older
            .push(self.newest.insert(h, id).unwrap_or(NO_CONST));
        id
    }

    fn truncate(&mut self, mark: usize) {
        if mark >= self.len() {
            return;
        }
        // Newest first: each id is still the head of its hash's chain
        // when it is reached, because every newer id went before it.
        for id in (mark..self.len()).rev() {
            let h = self.hashes[id];
            match self.older[id] {
                NO_CONST => self.newest.remove(&h),
                older => self.newest.insert(h, older),
            };
        }
        self.text.truncate(self.start(mark));
        self.ends.truncate(mark);
        self.hashes.truncate(mark);
        self.older.truncate(mark);
    }
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

    /// A checkpoint of the relation table: pass it to
    /// [`Vocab::truncate_rels`] to drop every relation interned after
    /// this point. A server uses it to take back the names of a request
    /// it refuses, so a refused text fixes no arity for later ones.
    pub fn rel_mark(&self) -> usize {
        self.rel_names.len()
    }

    /// Drops every relation interned after `mark` (a value previously
    /// returned by [`Vocab::rel_mark`]). Ids handed out after the mark
    /// become dangling — callers must not retain [`RelId`]s across the
    /// truncation. Constants and nulls are unaffected.
    pub fn truncate_rels(&mut self, mark: usize) {
        if mark >= self.rel_names.len() {
            return;
        }
        for (name, _) in self.rel_names.drain(mark..) {
            self.rel_by_name.remove(&name);
        }
    }

    /// Interns a constant.
    pub fn constant(&mut self, name: &str) -> ConstId {
        let h = self.consts.hash(name);
        ConstId(self.consts.intern(name, h))
    }

    /// Looks up a constant by name without interning it.
    pub fn find_constant(&self, name: &str) -> Option<ConstId> {
        self.consts.find(name, self.consts.hash(name)).map(ConstId)
    }

    /// The name of a constant.
    pub fn const_name(&self, c: ConstId) -> &str {
        self.consts.name(c.0 as usize)
    }

    /// Number of interned constants.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// A checkpoint of the constant table, for scoped interning: pass it
    /// to [`Vocab::truncate_consts`] to drop every constant interned
    /// after this point. Long-lived serving sessions use this to keep
    /// per-request ABox constants from accumulating forever.
    pub fn const_mark(&self) -> usize {
        self.consts.len()
    }

    /// Drops every constant interned after `mark` (a value previously
    /// returned by [`Vocab::const_mark`]). Ids handed out after the mark
    /// become dangling — callers must not retain [`ConstId`]s across the
    /// truncation. Relation symbols and nulls are unaffected.
    pub fn truncate_consts(&mut self, mark: usize) {
        self.consts.truncate(mark);
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
    fn truncate_rels_forgets_names_and_arities() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let mark = v.rel_mark();
        v.rel("R", 1);
        v.rel("B", 2);
        v.truncate_rels(mark);
        assert_eq!(v.rel_count(), 1);
        assert_eq!(v.find_rel("R"), None);
        assert_eq!(v.find_rel("A"), Some(a));
        // The dropped names may come back with another arity.
        let r = v.rel("R", 2);
        assert_eq!((r, v.arity(r)), (RelId(1), 2));
        v.truncate_rels(v.rel_mark() + 5);
        assert_eq!(v.rel_count(), 2);
    }

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

    const NAMES: [&str; 6] = ["a", "b", "ab", "", "ü", "名前"];

    /// The constant table against a `Vec` + `HashMap` model, under
    /// interleaved interns, lookups and truncations. `hash` gives each
    /// name's hash, so a coarse one forces chains of colliding names.
    fn table_matches_a_map(ops: &[(usize, usize)], hash: impl Fn(&ConstTable, &str) -> u64) {
        let mut t = ConstTable::default();
        let mut names: Vec<&str> = Vec::new();
        let mut ids: HashMap<&str, u32> = HashMap::new();
        for &(op, x) in ops {
            let name = NAMES[x % NAMES.len()];
            match op {
                0..=4 => {
                    let id = t.intern(name, hash(&t, name));
                    let want = *ids.entry(name).or_insert_with(|| {
                        names.push(name);
                        names.len() as u32 - 1
                    });
                    assert_eq!(id, want);
                }
                5..=7 => assert_eq!(t.find(name, hash(&t, name)), ids.get(name).copied()),
                _ => {
                    let mark = x % 6 * names.len() / 5;
                    t.truncate(mark);
                    for n in names.drain(mark..) {
                        ids.remove(n);
                    }
                }
            }
            assert_eq!(t.len(), names.len());
            for (i, n) in names.iter().enumerate() {
                assert_eq!(t.name(i), *n);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn const_table_matches_a_map(
            ops in proptest::collection::vec((0usize..10, 0usize..12), 0..60),
        ) {
            table_matches_a_map(&ops, |t, n| t.hash(n));
            table_matches_a_map(&ops, |t, n| t.hash(n) % 2);
            table_matches_a_map(&ops, |_, _| 7);
        }

        #[test]
        fn vocab_constants_match_a_map(
            ops in proptest::collection::vec((0usize..10, 0usize..12), 0..60),
        ) {
            let mut v = Vocab::new();
            let mut names: Vec<&str> = Vec::new();
            for &(op, x) in &ops {
                let name = NAMES[x % NAMES.len()];
                match op {
                    0..=4 => {
                        let id = v.constant(name);
                        if !names.contains(&name) {
                            names.push(name);
                        }
                        proptest::prop_assert_eq!(names[id.0 as usize], name);
                    }
                    5..=7 => {
                        let want = names.iter().position(|n| *n == name);
                        proptest::prop_assert_eq!(
                            v.find_constant(name).map(|c| c.0 as usize),
                            want
                        );
                    }
                    _ => {
                        let mark = x % 6 * names.len() / 5;
                        v.truncate_consts(mark);
                        names.truncate(mark);
                    }
                }
                proptest::prop_assert_eq!(v.const_count(), names.len());
                proptest::prop_assert_eq!(v.const_mark(), names.len());
            }
        }
    }
}
