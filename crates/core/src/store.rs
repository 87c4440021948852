//! The columnar fact plane: an arena-backed, deduplicating fact table.
//!
//! Every layer of the system — the chase, certain-answer evaluation,
//! Datalog≠ fixpoints and the serving engine — manipulates sets of ground
//! atoms. The seed representation (`Fact { rel, args: Vec<Term> }` held in
//! a `Vec<Fact>` *and* a `HashSet<Fact>`) costs one heap allocation per
//! fact and stores every fact at least twice. [`FactStore`] replaces it
//! with a columnar layout:
//!
//! * one flat argument arena (`Vec<Term>`) shared by all facts,
//! * parallel per-fact columns (`rels`, `starts`, `hashes`),
//! * dedup via a hash map keyed on the fact's hash with bucket
//!   verification against the arena slice (no owned `Fact` keys), and
//! * a per-relation id index whose buckets are ascending in
//!   [`FactId`], so "the facts derived since round `k`" is a contiguous
//!   id range rather than a cloned set.
//!
//! [`Interpretation`](crate::Interpretation) and
//! [`IndexedInstance`](crate::IndexedInstance) are thin views over a
//! `FactStore`; [`Fact`](crate::Fact) survives as the owned-escape type at
//! parse and display boundaries, with [`FactRef`] as the borrowed working
//! currency. [`FactBuf`] is the matching columnar scratch buffer used by
//! evaluation rounds to emit candidate facts without per-fact allocation.
//!
//! Every hash table here, and the join indexes built on top of the store
//! ([`crate::index`]), is keyed by interned, densely numbered ids, never
//! by client text. They hash with [`FxHasher`], a multiply-rotate hasher
//! that costs one multiply per word, instead of the standard library's
//! DoS-resistant SipHash. [`Vocab`] keeps SipHash for its name tables:
//! those are keyed by strings the client controls.

use crate::fact::{Fact, FactDisplay, Term};
use crate::symbols::{RelId, Vocab};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fast, non-cryptographic hasher for keys made of interned ids (the
/// "Fx" scheme: fold each word in with a rotate, xor and multiply).
///
/// It has no per-process seed, so it must never key a table by data an
/// adversary chooses; relation, constant, null and fact ids are dense
/// numbers handed out by the process itself.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        // The multiply mixes upward only; rotating moves the well-mixed
        // high bits down to where hash tables take their bucket index.
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`], for id-keyed tables.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Handle to a fact interned in a [`FactStore`].
///
/// Ids are dense and allocated in insertion order: the `n`-th distinct
/// fact interned gets id `n`. A `FactId` is only meaningful together with
/// the store that produced it and is invalidated by
/// [`FactStore::truncate`] to a mark at or below it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactId(pub u32);

impl FactId {
    /// The id as a dense array index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A borrowed view of one fact: a relation symbol plus an argument slice
/// living in some [`FactStore`] arena (or any other term slice).
///
/// `FactRef` is `Copy` and orders/compares exactly like the owned
/// [`Fact`] (relation first, then arguments lexicographically), so code
/// that sorted or compared `&Fact`s keeps its observable behaviour.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FactRef<'a> {
    /// The relation symbol.
    pub rel: RelId,
    /// The argument terms, borrowed from the backing arena.
    pub args: &'a [Term],
}

impl<'a> FactRef<'a> {
    /// Creates a fact view from parts.
    pub fn new(rel: RelId, args: &'a [Term]) -> Self {
        FactRef { rel, args }
    }

    /// Copies the view out into an owned [`Fact`].
    pub fn to_fact(self) -> Fact {
        Fact::new(self.rel, self.args.to_vec())
    }

    /// Whether every argument is a constant.
    pub fn is_ground_over_consts(self) -> bool {
        self.args.iter().all(|t| t.is_const())
    }

    /// Applies a term mapping to all arguments, producing an owned fact.
    pub fn map_terms(self, mut f: impl FnMut(Term) -> Term) -> Fact {
        Fact::new(self.rel, self.args.iter().map(|&t| f(t)).collect())
    }

    /// Renders the fact using the vocabulary.
    pub fn display(self, vocab: &'a Vocab) -> FactDisplay<'a> {
        FactDisplay::new(self, vocab)
    }
}

impl From<FactRef<'_>> for Fact {
    fn from(f: FactRef<'_>) -> Fact {
        f.to_fact()
    }
}

/// Storage-pressure counters of a [`FactStore`], cheap to snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Distinct facts interned (the store's length).
    pub facts: u64,
    /// Terms resident in the argument arena.
    pub arena_terms: u64,
    /// Intern calls answered by an existing fact instead of a new one.
    pub dedup_hits: u64,
}

impl StoreStats {
    /// Bytes held by the argument arena (terms × term size).
    pub fn arena_bytes(&self) -> u64 {
        self.arena_terms * std::mem::size_of::<Term>() as u64
    }

    /// Folds another snapshot into this one (summing every counter,
    /// saturating so long soak runs cannot overflow-panic in debug
    /// builds) — used to aggregate storage pressure across the stores of
    /// a batch.
    pub fn absorb(&mut self, other: &StoreStats) {
        self.facts = self.facts.saturating_add(other.facts);
        self.arena_terms = self.arena_terms.saturating_add(other.arena_terms);
        self.dedup_hits = self.dedup_hits.saturating_add(other.dedup_hits);
    }
}

/// A columnar, arena-backed, deduplicating fact table.
///
/// See the [module docs](self) for the layout. All per-fact data lives in
/// parallel columns indexed by [`FactId`]; the per-relation index buckets
/// hold ids in ascending order, which downstream semi-naive evaluation
/// exploits to expose a round's delta as an id range.
#[derive(Clone)]
pub struct FactStore {
    /// Relation symbol of fact `i`.
    rels: Vec<RelId>,
    /// `starts[i]..starts[i + 1]` is fact `i`'s argument slice in `arena`.
    /// Always one longer than `rels`, starting at 0.
    starts: Vec<u32>,
    /// The shared argument arena.
    arena: Vec<Term>,
    /// Hash of fact `i` (over relation and arguments); kept per fact so
    /// [`FactStore::truncate`] can unhook dedup entries without rehashing.
    hashes: Vec<u64>,
    /// Hash → ids of facts with that hash; membership is verified against
    /// the arena, so colliding facts simply share a bucket.
    dedup: FxHashMap<u64, Vec<u32>>,
    /// Relation → ascending ids of its facts.
    by_rel: FxHashMap<RelId, Vec<u32>>,
    /// Interns answered from `dedup` rather than by appending.
    dedup_hits: u64,
    /// Derivation-support count of fact `i` (incremental view
    /// maintenance). A count of 0 marks the fact *dead*: retracted but
    /// kept in place so ids stay stable; live-filtered readers skip it.
    /// Plain stores never touch support, so every fact stays at its
    /// intern-time count of 1 and nothing is ever dead.
    support: Vec<u32>,
    /// Number of facts whose support is currently 0 (dead facts); kept
    /// so [`FactStore::is_live`] is a single comparison when no fact has
    /// ever been retracted.
    dead: usize,
}

impl Default for FactStore {
    fn default() -> Self {
        FactStore {
            rels: Vec::new(),
            starts: vec![0],
            arena: Vec::new(),
            hashes: Vec::new(),
            dedup: FxHashMap::default(),
            by_rel: FxHashMap::default(),
            dedup_hits: 0,
            support: Vec::new(),
            dead: 0,
        }
    }
}

impl FactStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn hash_fact(rel: RelId, args: &[Term]) -> u64 {
        let mut h = FxHasher::default();
        rel.hash(&mut h);
        args.hash(&mut h);
        h.finish()
    }

    /// Looks up a fact without inserting it.
    pub fn lookup(&self, rel: RelId, args: &[Term]) -> Option<FactId> {
        let h = Self::hash_fact(rel, args);
        self.dedup.get(&h).and_then(|bucket| {
            bucket
                .iter()
                .find(|&&id| self.rels[id as usize] == rel && self.args_of(id) == args)
                .map(|&id| FactId(id))
        })
    }

    /// Interns a fact, returning its id and whether it was new.
    ///
    /// The argument slice is copied into the arena only when the fact is
    /// new; a duplicate costs one hash and one slice comparison.
    pub fn intern(&mut self, rel: RelId, args: &[Term]) -> (FactId, bool) {
        let h = Self::hash_fact(rel, args);
        if let Some(bucket) = self.dedup.get(&h) {
            if let Some(&id) = bucket
                .iter()
                .find(|&&id| self.rels[id as usize] == rel && self.args_of(id) == args)
            {
                self.dedup_hits = self.dedup_hits.saturating_add(1);
                return (FactId(id), false);
            }
        }
        crate::faults::alloc_point(
            crate::faults::STORE_INTERN,
            (self.arena.len() + args.len()) as u64,
        );
        let id = self.rels.len() as u32;
        self.rels.push(rel);
        self.arena.extend_from_slice(args);
        self.starts.push(self.arena.len() as u32);
        self.hashes.push(h);
        self.support.push(1);
        self.dedup.entry(h).or_default().push(id);
        self.by_rel.entry(rel).or_default().push(id);
        (FactId(id), true)
    }

    /// Interns an owned fact (parse-boundary convenience).
    pub fn intern_fact(&mut self, fact: &Fact) -> (FactId, bool) {
        self.intern(fact.rel, &fact.args)
    }

    fn args_of(&self, id: u32) -> &[Term] {
        let (lo, hi) = (self.starts[id as usize], self.starts[id as usize + 1]);
        &self.arena[lo as usize..hi as usize]
    }

    /// The relation symbol of a fact.
    pub fn rel(&self, id: FactId) -> RelId {
        self.rels[id.index()]
    }

    /// The argument slice of a fact.
    pub fn args(&self, id: FactId) -> &[Term] {
        self.args_of(id.0)
    }

    /// The fact as a borrowed view.
    pub fn fact_ref(&self, id: FactId) -> FactRef<'_> {
        FactRef::new(self.rels[id.index()], self.args_of(id.0))
    }

    /// Number of distinct facts interned.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether the store holds no facts.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Iterates over all facts in id (= insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = FactRef<'_>> {
        (0..self.rels.len() as u32)
            .map(move |id| FactRef::new(self.rels[id as usize], self.args_of(id)))
    }

    /// Ascending ids of the facts of one relation.
    pub fn rel_ids(&self, rel: RelId) -> &[u32] {
        self.by_rel.get(&rel).map_or(&[], Vec::as_slice)
    }

    /// Derivation-support count of a fact (0 = dead).
    pub fn support(&self, id: FactId) -> u32 {
        self.support[id.index()]
    }

    /// Whether a fact is live (support > 0). A single comparison when
    /// nothing has ever been retracted, which is every non-maintained
    /// store.
    pub fn is_live(&self, id: u32) -> bool {
        self.dead == 0 || self.support[id as usize] > 0
    }

    /// Adds `n` derivations of support to a fact; a dead fact becomes
    /// live again (a DRed *rederivation*).
    pub fn add_support(&mut self, id: FactId, n: u32) {
        let s = &mut self.support[id.index()];
        if *s == 0 && n > 0 {
            self.dead -= 1;
        }
        *s = s.saturating_add(n);
    }

    /// Removes up to `n` derivations of support from a fact; reaching 0
    /// marks it dead (a DRed *overcount deletion*). The fact's id, arena
    /// slice and index entries stay in place.
    pub fn sub_support(&mut self, id: FactId, n: u32) {
        let s = &mut self.support[id.index()];
        if *s > 0 && *s <= n {
            self.dead += 1;
        }
        *s = s.saturating_sub(n);
    }

    /// Overwrites a fact's support count, adjusting the dead counter.
    pub fn set_support(&mut self, id: FactId, n: u32) {
        let s = &mut self.support[id.index()];
        match (*s, n) {
            (0, m) if m > 0 => self.dead -= 1,
            (k, 0) if k > 0 => self.dead += 1,
            _ => {}
        }
        *s = n;
    }

    /// Number of dead (support-0) facts.
    pub fn dead_count(&self) -> usize {
        self.dead
    }

    /// Number of live facts ([`FactStore::len`] minus the dead ones).
    pub fn live_len(&self) -> usize {
        self.rels.len() - self.dead
    }

    /// The relation symbols with at least one fact.
    pub fn rels_present(&self) -> impl Iterator<Item = RelId> + '_ {
        self.by_rel.keys().copied()
    }

    /// Storage-pressure counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            facts: self.rels.len() as u64,
            arena_terms: self.arena.len() as u64,
            dedup_hits: self.dedup_hits,
        }
    }

    /// The raw columns `(rels, starts, arena)` of the store, for
    /// serialization: `starts[i]..starts[i + 1]` is fact `i`'s argument
    /// slice in `arena`. Hashes and indexes are derived data and are not
    /// exposed; [`FactStore::from_columns`] rebuilds them.
    pub fn columns(&self) -> (&[RelId], &[u32], &[Term]) {
        (&self.rels, &self.starts, &self.arena)
    }

    /// Rebuilds a store from raw columns (the inverse of
    /// [`FactStore::columns`]), recomputing hashes, the dedup map and the
    /// per-relation index. Fact ids are preserved: fact `i` of the dump
    /// is fact `i` of the rebuilt store.
    ///
    /// Returns an error when the columns are structurally inconsistent
    /// (offset table malformed or not covering the arena) — the
    /// deserialization boundary treats that as corruption, not a bug.
    pub fn from_columns(
        rels: Vec<RelId>,
        starts: Vec<u32>,
        arena: Vec<Term>,
    ) -> Result<Self, String> {
        if starts.len() != rels.len() + 1 {
            return Err(format!(
                "offset column has {} entries for {} facts",
                starts.len(),
                rels.len()
            ));
        }
        if starts.first() != Some(&0) || *starts.last().unwrap() as usize != arena.len() {
            return Err("offset column does not span the arena".to_owned());
        }
        if starts.windows(2).any(|w| w[0] > w[1]) {
            return Err("offset column is not monotone".to_owned());
        }
        let support = vec![1; rels.len()];
        let mut store = FactStore {
            rels,
            starts,
            arena,
            hashes: Vec::new(),
            dedup: FxHashMap::default(),
            by_rel: FxHashMap::default(),
            dedup_hits: 0,
            support,
            dead: 0,
        };
        store.hashes.reserve(store.rels.len());
        for id in 0..store.rels.len() as u32 {
            let rel = store.rels[id as usize];
            let h = Self::hash_fact(rel, store.args_of(id));
            store.hashes.push(h);
            store.dedup.entry(h).or_default().push(id);
            store.by_rel.entry(rel).or_default().push(id);
        }
        Ok(store)
    }

    /// Rolls the store back to its first `mark` facts, releasing the
    /// arena suffix and unhooking dedup and relation-index entries.
    ///
    /// This is the store-side analogue of
    /// [`Vocab::const_mark`](crate::Vocab::const_mark) /
    /// [`Vocab::truncate_consts`](crate::Vocab::truncate_consts): a serve
    /// session can mark the store before a request and truncate after it,
    /// reclaiming per-request facts without reallocating the arena.
    pub fn truncate(&mut self, mark: usize) {
        if mark >= self.rels.len() {
            return;
        }
        for id in (mark as u32)..self.rels.len() as u32 {
            let h = self.hashes[id as usize];
            if let Some(bucket) = self.dedup.get_mut(&h) {
                bucket.retain(|&i| i != id);
                if bucket.is_empty() {
                    self.dedup.remove(&h);
                }
            }
            if let Some(bucket) = self.by_rel.get_mut(&self.rels[id as usize]) {
                // Ids are appended in order, so the doomed ids form the
                // bucket's tail.
                while bucket.last().is_some_and(|&i| i >= mark as u32) {
                    bucket.pop();
                }
                if bucket.is_empty() {
                    self.by_rel.remove(&self.rels[id as usize]);
                }
            }
        }
        self.dead -= self.support[mark..].iter().filter(|&&s| s == 0).count();
        self.support.truncate(mark);
        self.arena.truncate(self.starts[mark] as usize);
        self.starts.truncate(mark + 1);
        self.rels.truncate(mark);
        self.hashes.truncate(mark);
    }
}

impl fmt::Debug for FactStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sorted: Vec<FactRef<'_>> = self.iter().collect();
        sorted.sort();
        f.debug_set().entries(sorted).finish()
    }
}

/// A columnar scratch buffer of candidate facts.
///
/// Evaluation rounds derive head facts faster than they can be checked
/// for novelty; `FactBuf` lets them stage those candidates in three flat
/// vectors (no per-fact `Vec<Term>`), be merged across worker threads
/// with [`FactBuf::append`], and be drained into a [`FactStore`] via
/// slice interning.
#[derive(Clone, Debug)]
pub struct FactBuf {
    rels: Vec<RelId>,
    /// `bounds[i]..bounds[i + 1]` is fact `i`'s slice of `terms`.
    bounds: Vec<u32>,
    terms: Vec<Term>,
}

impl Default for FactBuf {
    fn default() -> Self {
        FactBuf {
            rels: Vec::new(),
            bounds: vec![0],
            terms: Vec::new(),
        }
    }
}

impl FactBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stages a fact from a relation and an argument slice.
    pub fn push(&mut self, rel: RelId, args: &[Term]) {
        self.terms.extend_from_slice(args);
        self.bounds.push(self.terms.len() as u32);
        self.rels.push(rel);
    }

    /// Stages a fact whose arguments are produced by an iterator, writing
    /// them straight into the term column.
    pub fn push_with(&mut self, rel: RelId, args: impl IntoIterator<Item = Term>) {
        self.terms.extend(args);
        self.bounds.push(self.terms.len() as u32);
        self.rels.push(rel);
    }

    /// Number of staged facts.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Clears the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.rels.clear();
        self.bounds.truncate(1);
        self.terms.clear();
    }

    /// The `i`-th staged fact.
    pub fn get(&self, i: usize) -> FactRef<'_> {
        let (lo, hi) = (self.bounds[i] as usize, self.bounds[i + 1] as usize);
        FactRef::new(self.rels[i], &self.terms[lo..hi])
    }

    /// Iterates over the staged facts in staging order.
    pub fn iter(&self) -> impl Iterator<Item = FactRef<'_>> {
        (0..self.rels.len()).map(move |i| self.get(i))
    }

    /// Moves every fact of `other` to the end of `self`, leaving `other`
    /// empty (with its capacity intact). Used to merge per-worker buffers
    /// after a parallel round.
    pub fn append(&mut self, other: &mut FactBuf) {
        let shift = self.terms.len() as u32;
        self.terms.append(&mut other.terms);
        self.bounds
            .extend(other.bounds[1..].iter().map(|&b| b + shift));
        other.bounds.truncate(1);
        self.rels.append(&mut other.rels);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocab;

    fn terms(v: &mut Vocab, names: &[&str]) -> Vec<Term> {
        names.iter().map(|n| Term::Const(v.constant(n))).collect()
    }

    #[test]
    fn intern_dedupes_and_counts() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let ab = terms(&mut v, &["a", "b"]);
        let bc = terms(&mut v, &["b", "c"]);
        let mut s = FactStore::new();
        let (i0, new0) = s.intern(r, &ab);
        let (i1, new1) = s.intern(r, &bc);
        let (i2, new2) = s.intern(r, &ab);
        assert!(new0 && new1 && !new2);
        assert_eq!(i0, i2);
        assert_ne!(i0, i1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.args(i1), &bc[..]);
        assert_eq!(s.rel_ids(r), &[0, 1]);
        let st = s.stats();
        assert_eq!((st.facts, st.arena_terms, st.dedup_hits), (2, 4, 1));
        assert_eq!(st.arena_bytes(), 4 * std::mem::size_of::<Term>() as u64);
    }

    #[test]
    fn lookup_without_insert() {
        let mut v = Vocab::new();
        let r = v.rel("R", 1);
        let a = terms(&mut v, &["a"]);
        let b = terms(&mut v, &["b"]);
        let mut s = FactStore::new();
        let (id, _) = s.intern(r, &a);
        assert_eq!(s.lookup(r, &a), Some(id));
        assert_eq!(s.lookup(r, &b), None);
        assert_eq!(s.stats().dedup_hits, 0);
    }

    #[test]
    fn truncate_rolls_back_everything() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let s1 = v.rel("S", 1);
        let ab = terms(&mut v, &["a", "b"]);
        let c = terms(&mut v, &["c"]);
        let d = terms(&mut v, &["d"]);
        let mut s = FactStore::new();
        s.intern(r, &ab);
        let mark = s.len();
        s.intern(s1, &c);
        s.intern(s1, &d);
        s.truncate(mark);
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup(s1, &c), None);
        assert_eq!(s.rel_ids(s1), &[] as &[u32]);
        assert_eq!(s.stats().arena_terms, 2);
        // Re-interning after truncation assigns fresh ids cleanly.
        let (id, new) = s.intern(s1, &d);
        assert!(new);
        assert_eq!(id, FactId(1));
        // Truncating past the end is a no-op.
        s.truncate(10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn columns_roundtrip_preserves_ids_and_indexes() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let s1 = v.rel("S", 1);
        let ab = terms(&mut v, &["a", "b"]);
        let c = terms(&mut v, &["c"]);
        let mut s = FactStore::new();
        let (i0, _) = s.intern(r, &ab);
        let (i1, _) = s.intern(s1, &c);
        let (rels, starts, arena) = s.columns();
        let back = FactStore::from_columns(rels.to_vec(), starts.to_vec(), arena.to_vec()).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.lookup(r, &ab), Some(i0));
        assert_eq!(back.lookup(s1, &c), Some(i1));
        assert_eq!(back.rel_ids(r), &[0]);
        assert_eq!(back.rel_ids(s1), &[1]);
        // A rebuilt store dedupes against the restored facts.
        let mut back = back;
        let (id, new) = back.intern(r, &ab);
        assert!(!new);
        assert_eq!(id, i0);
    }

    #[test]
    fn from_columns_rejects_malformed_offsets() {
        let mut v = Vocab::new();
        let r = v.rel("R", 1);
        let a = terms(&mut v, &["a"]);
        assert!(FactStore::from_columns(vec![r], vec![0], a.clone()).is_err());
        assert!(FactStore::from_columns(vec![r], vec![0, 2], a.clone()).is_err());
        assert!(FactStore::from_columns(vec![r, r], vec![0, 1, 0], a).is_err());
    }

    #[test]
    fn support_counts_track_liveness() {
        let mut v = Vocab::new();
        let r = v.rel("R", 1);
        let a = terms(&mut v, &["a"]);
        let b = terms(&mut v, &["b"]);
        let mut s = FactStore::new();
        let (ia, _) = s.intern(r, &a);
        let (ib, _) = s.intern(r, &b);
        assert_eq!(s.support(ia), 1);
        assert!(s.is_live(ia.0) && s.is_live(ib.0));
        assert_eq!((s.live_len(), s.dead_count()), (2, 0));
        // Kill a: retraction keeps the id and index entries in place.
        s.sub_support(ia, 5);
        assert!(!s.is_live(ia.0));
        assert!(s.is_live(ib.0));
        assert_eq!((s.live_len(), s.dead_count()), (1, 1));
        assert_eq!(s.lookup(r, &a), Some(ia), "dead facts stay addressable");
        // Rederive a: it comes back under the same id.
        s.add_support(ia, 2);
        assert_eq!(s.support(ia), 2);
        assert_eq!((s.live_len(), s.dead_count()), (2, 0));
        // set_support crosses the boundary in both directions.
        s.set_support(ib, 0);
        assert_eq!(s.dead_count(), 1);
        s.set_support(ib, 3);
        assert_eq!(s.dead_count(), 0);
        // Truncating over a dead tail keeps the dead counter consistent.
        s.sub_support(ib, 3);
        s.truncate(1);
        assert_eq!((s.len(), s.dead_count()), (1, 0));
        assert!(s.is_live(ia.0));
    }

    #[test]
    fn fact_ref_orders_like_fact() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let s_ = v.rel("S", 1);
        let ab = terms(&mut v, &["a", "b"]);
        let ac = terms(&mut v, &["a", "c"]);
        let a = terms(&mut v, &["a"]);
        let mut refs = [
            FactRef::new(s_, &a),
            FactRef::new(r, &ac),
            FactRef::new(r, &ab),
        ];
        let mut facts: Vec<Fact> = refs.iter().map(|f| f.to_fact()).collect();
        refs.sort();
        facts.sort();
        for (fr, f) in refs.iter().zip(&facts) {
            assert_eq!(fr.to_fact(), *f);
        }
    }

    #[test]
    fn factbuf_append_rebases_bounds() {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let s_ = v.rel("S", 1);
        let ab = terms(&mut v, &["a", "b"]);
        let c = terms(&mut v, &["c"]);
        let mut left = FactBuf::new();
        left.push(r, &ab);
        let mut right = FactBuf::new();
        right.push(s_, &c);
        right.push_with(r, ab.iter().copied().rev());
        left.append(&mut right);
        assert!(right.is_empty());
        assert_eq!(left.len(), 3);
        assert_eq!(left.get(1).rel, s_);
        assert_eq!(left.get(1).args, &c[..]);
        assert_eq!(left.get(2).args, &[ab[1], ab[0]]);
        left.clear();
        assert!(left.is_empty());
    }
}
