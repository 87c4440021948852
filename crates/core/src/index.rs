//! Indexed fact storage for repeated query evaluation.
//!
//! [`IndexedInstance`] wraps a [`FactStore`] with one extra hash index
//! keyed by `(relation, argument position, term)`: every argument of
//! every fact is indexed. A join that has bound *any* argument of an atom
//! probes the smallest bucket among its bound positions instead of
//! scanning the whole relation — the guard atom `r(?0,?1)` of a
//! type-elimination rule reached with only `?1` bound costs one bucket,
//! not one pass over `r`. An atom with *every* argument bound needs no
//! bucket at all: [`FactLookup::lookup_id`] answers it with one probe of
//! the store's dedup table (a *membership probe*).
//!
//! The [`FactLookup`] trait abstracts over plain [`Interpretation`]s
//! (which fall back to the per-relation index), [`IndexedInstance`]s,
//! [`DeltaView`]s (the tail of a store past a frontier — a round's newly
//! derived facts as an id range) and [`IdSetView`]s (an explicit id set),
//! letting evaluation code be written once and run over any of them.
//! Every map here is keyed by interned ids and hashed with
//! [`FxHasher`](crate::store::FxHasher).

use crate::fact::{Fact, Term};
use crate::interpretation::Interpretation;
use crate::store::{FactId, FactRef, FactStore, FxHashMap, StoreStats};
use crate::symbols::RelId;

/// A bound argument of an atom: its position and the term there.
pub type Bound = (usize, Term);

/// The `(relation, position, term)` index: ascending ids of the facts of
/// the relation that carry the term at the position.
type PositionIndex = FxHashMap<(RelId, u32, Term), Vec<u32>>;

/// Appends fact `id` to the bucket of each of its argument positions.
fn index_fact(index: &mut PositionIndex, id: u32, rel: RelId, args: &[Term]) {
    for (pos, &t) in args.iter().enumerate() {
        index.entry((rel, pos as u32, t)).or_default().push(id);
    }
}

/// Read access to a fact store for join evaluation.
///
/// The contract of [`FactLookup::candidate_ids`] is deliberately loose:
/// the returned ids must cover every fact of `rel` carrying the `bound`
/// term at the `bound` position (when `Some`), but may include more —
/// callers re-check the arguments of every candidate. This lets
/// unindexed stores return the whole relation while indexed stores
/// return an exact bucket. [`FactLookup::lookup_id`] is exact.
pub trait FactLookup {
    /// Ids of a superset of the facts of `rel` (exactly the facts with
    /// term `t` at position `pos` for `bound = Some((pos, t))` where an
    /// index is available). The returned slice is ascending in fact id.
    fn candidate_ids(&self, rel: RelId, bound: Option<Bound>) -> &[u32];

    /// Resolves a fact id returned by [`FactLookup::candidate_ids`].
    fn fact(&self, id: u32) -> FactRef<'_>;

    /// Whether the store contains exactly the fact `rel(args…)`.
    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool;

    /// The id of the live fact `rel(args…)` if it is among the facts
    /// this lookup enumerates — a membership probe for a join atom whose
    /// arguments are all bound. Views narrow it like
    /// [`FactLookup::candidate_ids`]: a [`DeltaView`] only finds ids at
    /// or above its frontier, an [`IdSetView`] only ids in its set.
    fn lookup_id(&self, rel: RelId, args: &[Term]) -> Option<u32>;

    /// Whether the candidate `id` is live. Stores without retraction
    /// support report everything live; maintained stores
    /// ([`crate::FactStore::sub_support`]) report dead facts so join
    /// loops skip them.
    fn is_live(&self, _id: u32) -> bool {
        true
    }
}

impl FactLookup for Interpretation {
    fn candidate_ids(&self, rel: RelId, _bound: Option<Bound>) -> &[u32] {
        // No per-position index on plain interpretations: return the
        // whole relation (a superset, as the contract allows).
        self.rel_fact_ids(rel)
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.fact_by_id(id)
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        self.contains_ref(rel, args)
    }

    fn lookup_id(&self, rel: RelId, args: &[Term]) -> Option<u32> {
        self.store().lookup(rel, args).map(|id| id.0)
    }
}

/// A fact store with per-relation and per-`(relation, position, term)`
/// hash indexes, built once and maintained incrementally on insert.
///
/// Since the columnar-fact-plane refactor this is a view over the same
/// [`FactStore`] representation as [`Interpretation`]: adopting an
/// interpretation via [`IndexedInstance::from_instance`] *moves* its
/// store (arena, dedup, relation index) and only builds the position
/// index on top — no fact is copied.
#[derive(Clone, Default)]
pub struct IndexedInstance {
    store: FactStore,
    by_position: PositionIndex,
}

impl IndexedInstance {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts an interpretation's store zero-copy (the per-term index is
    /// dropped, the position index is built in one pass).
    pub fn from_instance(d: Interpretation) -> Self {
        Self::from_store(d.into_store())
    }

    /// Builds the position index over an existing store.
    pub fn from_store(store: FactStore) -> Self {
        let mut by_position = PositionIndex::default();
        for (idx, f) in store.iter().enumerate() {
            index_fact(&mut by_position, idx as u32, f.rel, f.args);
        }
        IndexedInstance { store, by_position }
    }

    /// Builds the indexed form of a borrowed interpretation. The store is
    /// cloned wholesale (four flat memcpy-style column clones), not fact
    /// by fact; prefer [`IndexedInstance::from_instance`] when the
    /// interpretation is owned.
    pub fn from_interpretation(d: &Interpretation) -> Self {
        Self::from_store(d.store().clone())
    }

    /// Inserts a fact; returns `true` if it was new.
    pub fn insert(&mut self, fact: Fact) -> bool {
        self.insert_ref(fact.rel, &fact.args)
    }

    /// Inserts a fact given as a relation and an argument slice; returns
    /// `true` if it was new. No allocation on the duplicate path.
    pub fn insert_ref(&mut self, rel: RelId, args: &[Term]) -> bool {
        self.intern_ref(rel, args).1
    }

    /// Inserts a fact and returns its id together with whether it was
    /// new — the id-aware form incremental view maintenance needs to
    /// track support per fact.
    pub fn intern_ref(&mut self, rel: RelId, args: &[Term]) -> (FactId, bool) {
        let (id, new) = self.store.intern(rel, args);
        if new {
            index_fact(&mut self.by_position, id.0, rel, args);
        }
        (id, new)
    }

    /// Adds derivation support to a fact (see
    /// [`FactStore::add_support`]).
    pub fn add_support(&mut self, id: FactId, n: u32) {
        self.store.add_support(id, n);
    }

    /// Removes derivation support from a fact (see
    /// [`FactStore::sub_support`]).
    pub fn sub_support(&mut self, id: FactId, n: u32) {
        self.store.sub_support(id, n);
    }

    /// Overwrites a fact's support count (see
    /// [`FactStore::set_support`]).
    pub fn set_support(&mut self, id: FactId, n: u32) {
        self.store.set_support(id, n);
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

    /// The backing columnar store.
    pub fn store(&self) -> &FactStore {
        &self.store
    }

    /// Storage-pressure counters of the backing store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Copies the facts back into a plain [`Interpretation`] (the store
    /// is cloned wholesale; only the per-term index is recomputed).
    pub fn to_interpretation(&self) -> Interpretation {
        Interpretation::from_store(self.store.clone())
    }

    /// Rolls the instance back to its first `mark` facts, unhooking the
    /// position-index tails of every argument position and truncating
    /// the backing store. The session layer pairs this with
    /// [`FactStore::truncate`]-style marks to implement rollback points.
    pub fn truncate(&mut self, mark: usize) {
        if mark >= self.store.len() {
            return;
        }
        for id in (mark as u32)..self.store.len() as u32 {
            let f = self.store.fact_ref(FactId(id));
            for (pos, &t) in f.args.iter().enumerate() {
                let key = (f.rel, pos as u32, t);
                if let Some(bucket) = self.by_position.get_mut(&key) {
                    // Buckets are ascending in fact id, so the doomed ids
                    // form the tail.
                    while bucket.last().is_some_and(|&i| i >= mark as u32) {
                        bucket.pop();
                    }
                    if bucket.is_empty() {
                        self.by_position.remove(&key);
                    }
                }
            }
        }
        self.store.truncate(mark);
    }

    /// Number of facts of one relation.
    pub fn rel_len(&self, rel: RelId) -> usize {
        self.store.rel_ids(rel).len()
    }

    /// Iterates over the facts of one relation.
    pub fn facts_of(&self, rel: RelId) -> impl Iterator<Item = FactRef<'_>> {
        self.store
            .rel_ids(rel)
            .iter()
            .map(move |&i| self.store.fact_ref(FactId(i)))
    }
}

impl FactLookup for IndexedInstance {
    fn candidate_ids(&self, rel: RelId, bound: Option<Bound>) -> &[u32] {
        match bound {
            Some((pos, t)) => self
                .by_position
                .get(&(rel, pos as u32, t))
                .map_or(&[], Vec::as_slice),
            None => self.store.rel_ids(rel),
        }
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.store.fact_ref(FactId(id))
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        // Membership is live membership: a retracted (dead) fact is not
        // in the instance even though its id is still allocated.
        self.lookup_id(rel, args).is_some()
    }

    fn lookup_id(&self, rel: RelId, args: &[Term]) -> Option<u32> {
        self.store
            .lookup(rel, args)
            .map(|id| id.0)
            .filter(|&id| self.store.is_live(id))
    }

    fn is_live(&self, id: u32) -> bool {
        self.store.is_live(id)
    }
}

impl std::fmt::Debug for IndexedInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.store.fmt(f)
    }
}

/// The tail of a base lookup past a fact-id frontier: the facts with id
/// `>= from`, i.e. exactly the facts derived since the frontier was
/// taken.
///
/// Because every index bucket is ascending in fact id, the view answers
/// [`FactLookup::candidate_ids`] with a suffix of the base's bucket found
/// by binary search — semi-naive evaluation passes rounds around as
/// `(base, frontier)` pairs instead of cloning delta sets.
/// [`FactLookup::lookup_id`] is narrowed the same way: it only finds
/// facts at or above the frontier.
///
/// [`FactLookup::contains_slice`] delegates to the *whole* base store:
/// the view narrows iteration, not membership (novelty checks must see
/// everything).
#[derive(Clone, Copy)]
pub struct DeltaView<'a, L: FactLookup> {
    base: &'a L,
    from: u32,
}

impl<'a, L: FactLookup> DeltaView<'a, L> {
    /// Views the facts of `base` with id at or above `from`.
    pub fn new(base: &'a L, from: u32) -> Self {
        DeltaView { base, from }
    }

    /// The frontier id the view starts at.
    pub fn from_id(&self) -> u32 {
        self.from
    }
}

impl<L: FactLookup> FactLookup for DeltaView<'_, L> {
    fn candidate_ids(&self, rel: RelId, bound: Option<Bound>) -> &[u32] {
        let ids = self.base.candidate_ids(rel, bound);
        let cut = ids.partition_point(|&i| i < self.from);
        &ids[cut..]
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.base.fact(id)
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        self.base.contains_slice(rel, args)
    }

    fn lookup_id(&self, rel: RelId, args: &[Term]) -> Option<u32> {
        self.base.lookup_id(rel, args).filter(|&id| id >= self.from)
    }

    fn is_live(&self, id: u32) -> bool {
        self.base.is_live(id)
    }
}

/// An explicit id-set delta over a base lookup: the *retraction /
/// revival* counterpart of [`DeltaView`].
///
/// A [`DeltaView`] can only express "everything past a frontier" — an
/// id *range* — which covers insertions (new facts always get tail
/// ids). Incremental view maintenance also needs deltas made of
/// arbitrary interior ids: the facts doomed by a rollback, or dead
/// facts revived by rederivation. `IdSetView` materializes its own
/// per-relation and per-`(relation, position, term)` buckets over the
/// given ids (O(|set|) to build), so [`FactLookup::candidate_ids`] can
/// hand out slices just like the indexed base, and
/// [`FactLookup::lookup_id`] only finds ids in the set.
///
/// Like [`DeltaView`], membership ([`FactLookup::contains_slice`]) and
/// liveness delegate to the whole base: the view narrows iteration, not
/// membership.
pub struct IdSetView<'a, L: FactLookup + ?Sized> {
    base: &'a L,
    by_rel: FxHashMap<RelId, Vec<u32>>,
    by_position: PositionIndex,
}

impl<'a, L: FactLookup + ?Sized> IdSetView<'a, L> {
    /// Builds the view over `ids` (in any order; duplicates are
    /// dropped). Each id must resolve in `base`.
    pub fn new(base: &'a L, ids: &[u32]) -> Self {
        let mut ids = ids.to_vec();
        // candidate_ids promises ascending ids (revival order can
        // interleave relations), and a set holds each id once.
        ids.sort_unstable();
        ids.dedup();
        let mut by_rel: FxHashMap<RelId, Vec<u32>> = FxHashMap::default();
        let mut by_position = PositionIndex::default();
        for id in ids {
            let f = base.fact(id);
            by_rel.entry(f.rel).or_default().push(id);
            index_fact(&mut by_position, id, f.rel, f.args);
        }
        IdSetView {
            base,
            by_rel,
            by_position,
        }
    }

    /// Number of ids in the view (summed over relations).
    pub fn len(&self) -> usize {
        self.by_rel.values().map(Vec::len).sum()
    }

    /// Whether the view holds no ids.
    pub fn is_empty(&self) -> bool {
        self.by_rel.is_empty()
    }
}

impl<L: FactLookup + ?Sized> FactLookup for IdSetView<'_, L> {
    fn candidate_ids(&self, rel: RelId, bound: Option<Bound>) -> &[u32] {
        match bound {
            Some((pos, t)) => self
                .by_position
                .get(&(rel, pos as u32, t))
                .map_or(&[], Vec::as_slice),
            None => self.by_rel.get(&rel).map_or(&[], Vec::as_slice),
        }
    }

    fn fact(&self, id: u32) -> FactRef<'_> {
        self.base.fact(id)
    }

    fn contains_slice(&self, rel: RelId, args: &[Term]) -> bool {
        self.base.contains_slice(rel, args)
    }

    fn lookup_id(&self, rel: RelId, args: &[Term]) -> Option<u32> {
        let id = self.base.lookup_id(rel, args)?;
        self.by_rel
            .get(&rel)
            .is_some_and(|ids| ids.binary_search(&id).is_ok())
            .then_some(id)
    }

    fn is_live(&self, id: u32) -> bool {
        self.base.is_live(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Vocab;

    fn setup() -> (Vocab, IndexedInstance) {
        let mut v = Vocab::new();
        let r = v.rel("R", 2);
        let s = v.rel("S", 1);
        let a = v.constant("a");
        let b = v.constant("b");
        let c = v.constant("c");
        let mut d = IndexedInstance::new();
        d.insert(Fact::consts(r, &[a, b]));
        d.insert(Fact::consts(r, &[a, c]));
        d.insert(Fact::consts(r, &[b, c]));
        d.insert(Fact::consts(s, &[a]));
        (v, d)
    }

    #[test]
    fn first_arg_index_is_exact() {
        let (mut v, d) = setup();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        let b = Term::Const(v.constant("b"));
        let zz = Term::Const(v.constant("zz"));
        assert_eq!(d.candidate_ids(r, Some((0, a))).len(), 2);
        assert_eq!(d.candidate_ids(r, Some((0, b))).len(), 1);
        assert_eq!(d.candidate_ids(r, Some((0, zz))).len(), 0);
        assert_eq!(d.candidate_ids(r, None).len(), 3);
        for &id in d.candidate_ids(r, Some((0, a))) {
            assert_eq!(d.fact(id).args[0], a);
        }
    }

    #[test]
    fn insert_dedupes_and_counts() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let a = v.constant("a");
        let b = v.constant("b");
        assert!(!d.insert(Fact::consts(r, &[a, b])));
        assert_eq!(d.len(), 4);
        assert_eq!(d.rel_len(r), 3);
    }

    #[test]
    fn roundtrip_through_interpretation() {
        let (_, d) = setup();
        let plain = d.to_interpretation();
        assert_eq!(plain.len(), d.len());
        let back = IndexedInstance::from_interpretation(&plain);
        assert_eq!(back.len(), d.len());
        for f in d.iter() {
            assert!(back.contains_slice(f.rel, f.args));
            assert!(plain.contains_ref(f.rel, f.args));
        }
        // Adopting the owned interpretation preserves the same facts.
        let adopted = IndexedInstance::from_instance(plain);
        assert_eq!(adopted.len(), d.len());
    }

    #[test]
    fn interpretation_lookup_returns_superset() {
        let (mut v, d) = setup();
        let plain = d.to_interpretation();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        // The plain store ignores the bound argument but must
        // still cover all matching facts.
        let ids = FactLookup::candidate_ids(&plain, r, Some((0, a)));
        assert_eq!(ids.len(), 3);
        let matching = ids
            .iter()
            .filter(|&&i| FactLookup::fact(&plain, i).args[0] == a)
            .count();
        assert_eq!(matching, 2);
    }

    #[test]
    fn truncate_rolls_back_first_arg_index() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        let e = v.constant("e");
        let mark = d.len();
        d.insert(Fact::consts(r, &[v.constant("a"), e]));
        d.insert(Fact::consts(r, &[e, e]));
        assert_eq!(d.candidate_ids(r, Some((0, a))).len(), 3);
        assert_eq!(d.candidate_ids(r, Some((1, Term::Const(e)))).len(), 2);
        d.truncate(mark);
        assert_eq!(d.len(), mark);
        assert_eq!(d.candidate_ids(r, Some((0, a))).len(), 2);
        assert_eq!(d.candidate_ids(r, Some((0, Term::Const(e)))).len(), 0);
        // Every position is unhooked, not just the first.
        assert_eq!(d.candidate_ids(r, Some((1, Term::Const(e)))).len(), 0);
        assert!(!d.contains_slice(r, &[Term::Const(e), Term::Const(e)]));
        assert_eq!(d.lookup_id(r, &[Term::Const(e), Term::Const(e)]), None);
        // Re-inserting after the rollback reindexes cleanly.
        assert!(d.insert(Fact::consts(r, &[e, e])));
        assert_eq!(d.candidate_ids(r, Some((0, Term::Const(e)))).len(), 1);
        assert_eq!(d.candidate_ids(r, Some((1, Term::Const(e)))).len(), 1);
        // Truncating past the end is a no-op.
        d.truncate(99);
        assert_eq!(d.len(), mark + 1);
    }

    #[test]
    fn id_set_view_buckets_interior_ids() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let s = v.rel("S", 1);
        let a = Term::Const(v.constant("a"));
        // Interior, non-contiguous ids: facts 1 (R(a,c)) and 3 (S(a)).
        let view = IdSetView::new(&d, &[1, 3]);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.candidate_ids(r, None), &[1]);
        assert_eq!(view.candidate_ids(r, Some((0, a))), &[1]);
        let c = Term::Const(v.constant("c"));
        assert_eq!(view.candidate_ids(r, Some((1, c))), &[1]);
        assert_eq!(view.candidate_ids(s, None), &[3]);
        let b = Term::Const(v.constant("b"));
        assert_eq!(view.candidate_ids(r, Some((0, b))), &[] as &[u32]);
        // Membership still sees the whole base.
        assert!(view.contains_slice(r, &[a, b]));
        assert_eq!(view.fact(1).rel, r);
        let empty = IdSetView::new(&d, &[]);
        assert!(empty.is_empty());
        // Liveness delegates to the base store's support column.
        d.sub_support(FactId(1), 1);
        let view = IdSetView::new(&d, &[1, 3]);
        assert!(!view.is_live(1));
        assert!(view.is_live(3));
        assert!(!d.contains_slice(r, &[a, c]));
    }

    #[test]
    fn delta_view_is_a_tail() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let c = v.constant("c");
        let a = Term::Const(v.constant("a"));
        let frontier = d.len() as u32;
        d.insert(Fact::consts(r, &[c, v.constant("a")]));
        d.insert(Fact::consts(r, &[v.constant("a"), v.constant("d")]));
        let delta = DeltaView::new(&d, frontier);
        assert_eq!(delta.candidate_ids(r, None).len(), 2);
        assert_eq!(delta.candidate_ids(r, Some((0, a))).len(), 1);
        assert_eq!(delta.candidate_ids(r, Some((1, a))).len(), 1);
        // Membership still sees pre-frontier facts.
        assert!(delta.contains_slice(r, &[a, Term::Const(v.constant("b"))]));
        // A frontier of zero sees everything.
        let all = DeltaView::new(&d, 0);
        assert_eq!(all.candidate_ids(r, None).len(), d.rel_len(r));
        assert_eq!(all.from_id(), 0);
    }

    #[test]
    fn delta_view_lookup_misses_ids_below_the_frontier() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        let b = Term::Const(v.constant("b"));
        let e = Term::Const(v.constant("e"));
        let frontier = d.len() as u32;
        d.insert_ref(r, &[e, a]);
        let delta = DeltaView::new(&d, frontier);
        // R(a,b) is stored, but below the frontier.
        assert_eq!(d.lookup_id(r, &[a, b]), Some(0));
        assert_eq!(delta.lookup_id(r, &[a, b]), None);
        assert!(delta.contains_slice(r, &[a, b]));
        assert_eq!(delta.lookup_id(r, &[e, a]), Some(frontier));
        assert_eq!(delta.lookup_id(r, &[e, e]), None);
    }

    #[test]
    fn id_set_view_lookup_misses_ids_outside_the_set() {
        let (mut v, d) = setup();
        let r = v.rel("R", 2);
        let s = v.rel("S", 1);
        let a = Term::Const(v.constant("a"));
        let b = Term::Const(v.constant("b"));
        let c = Term::Const(v.constant("c"));
        // Unsorted and with a duplicate: the view is the set {1, 3}.
        let view = IdSetView::new(&d, &[3, 1, 3]);
        assert_eq!(view.len(), 2);
        assert_eq!(view.candidate_ids(r, None), &[1]);
        assert_eq!(view.lookup_id(r, &[a, c]), Some(1));
        assert_eq!(view.lookup_id(s, &[a]), Some(3));
        // Stored in the base, but not in the set.
        assert_eq!(view.lookup_id(r, &[a, b]), None);
        assert_eq!(view.lookup_id(r, &[b, c]), None);
        assert!(view.contains_slice(r, &[a, b]));
    }

    #[test]
    fn membership_probes_never_match_dead_facts() {
        let (mut v, mut d) = setup();
        let r = v.rel("R", 2);
        let a = Term::Const(v.constant("a"));
        let c = Term::Const(v.constant("c"));
        let frontier = 1;
        d.sub_support(FactId(1), 1);
        assert!(!d.is_live(1));
        assert_eq!(d.lookup_id(r, &[a, c]), None);
        assert_eq!(DeltaView::new(&d, frontier).lookup_id(r, &[a, c]), None);
        assert_eq!(IdSetView::new(&d, &[1]).lookup_id(r, &[a, c]), None);
        // Reviving the fact makes every probe find it again.
        d.add_support(FactId(1), 1);
        assert_eq!(d.lookup_id(r, &[a, c]), Some(1));
        assert_eq!(DeltaView::new(&d, frontier).lookup_id(r, &[a, c]), Some(1));
        assert_eq!(IdSetView::new(&d, &[1]).lookup_id(r, &[a, c]), Some(1));
    }
}
