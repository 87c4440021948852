//! The plan cache: verified, single-flight, bounded LRU storage of
//! compiled plans.
//!
//! Three hardening guarantees on top of a plain hash map:
//!
//! 1. **Collision safety.** Entries are *keyed* by the 64-bit
//!    [`canonical_omq_hash`] but *verified* against the full canonical
//!    OMQ text on every lookup, so two OMQs whose hashes collide can
//!    never be served each other's plan (which would mean silently
//!    wrong certain answers). Colliding entries coexist in one bucket.
//! 2. **Single flight.** A miss installs an in-flight marker before
//!    compiling outside the lock; concurrent requests for the same OMQ
//!    wait on a condvar for the leader's result instead of compiling
//!    the same plan N times. Compilation panics are caught, reported as
//!    [`EngineError::Internal`], and *not* cached — the marker is
//!    removed so a later request retries.
//! 3. **Bounded size.** The cache holds at most `capacity` entries;
//!    overflow evicts the least-recently-used ready entry (in-flight
//!    markers are never evicted) and counts the eviction.
//!
//! Failed compilations are *negatively* cached (keyed the same way), so
//! a stream of requests posing a non-rewritable OMQ does not re-run
//! type elimination every time. All internal locks recover from
//! poisoning: one panicked request cannot permanently kill the serving
//! loop.
//!
//! ## Two keys: the canonical OMQ and the request text
//!
//! The canonical key needs a parsed ontology: a lookup parses and
//! translates the request's DL text, then renders and sorts its
//! canonical text. The *text memo* is a second way in that skips all of
//! it. Its key is a hash of the request's exact `(ontology, query)`
//! strings, and a hit is verified by full-text equality of both
//! strings, as a canonical hit is verified by its canonical text
//! ([`PlanCache::get_text`]). A text is recorded only after it was
//! parsed, its query validated and its plan fetched or compiled
//! ([`PlanCache::get_or_compile_text`]), as an *alias* of that plan's
//! entry. So a hit returns exactly what the full path would:
//!
//! - the serving vocabulary never drops a relation an accepted text
//!   interned (a refused request drops only the ones it interned
//!   itself), so the same text parses to the same relation ids every
//!   time, and ontology parsing interns no constants;
//! - whether a text parses, and whether its query occurs in its
//!   ontology, depends on the text alone once it has parsed once;
//! - refusals never reach the cache, so they are never aliased and are
//!   re-derived on every request. A negatively cached compile failure
//!   is aliased like a plan and replays as a hit. A compilation panic
//!   is not cached, so nothing aliases it.
//!
//! The memo needs no bound of its own. Each entry keeps at most
//! [`MAX_ALIASES`] aliases (a fifth replaces the oldest), and its
//! aliases die with it on eviction or [`PlanCache::clear`], so the memo
//! holds at most `MAX_ALIASES × capacity` texts. A text hit counts in
//! [`PlanCache::hits`] like any hit, refreshes the entry's LRU stamp,
//! and also counts in [`PlanCache::text_hits`].

use crate::plan::{EngineError, OmqPlan};
use gomq_core::{RelId, Vocab};
use gomq_logic::GfOntology;
use gomq_rewriting::{canonical_omq_text, fnv1a};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The outcome of a plan lookup: the shared plan, or the (cached)
/// compilation error.
pub type PlanOutcome = Result<Arc<OmqPlan>, EngineError>;

/// Default number of cached plans (positive and negative entries).
pub const DEFAULT_CAPACITY: usize = 256;

/// Most request texts one cache entry can be reached by through the
/// text memo (see the module docs).
pub const MAX_ALIASES: usize = 4;

/// Locks a mutex, recovering the guard from a poisoned lock. A poisoned
/// mutex means some request panicked mid-update; the cache's state is
/// still structurally sound (every transition is a single insert/replace
/// under the lock), so serving must continue rather than panic forever.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Renders a caught panic payload as a message string.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// One cached slot: being compiled right now, or done.
enum Slot {
    /// Some request is compiling this OMQ; wait for the condvar.
    InFlight,
    /// The compilation outcome (success or negatively cached failure).
    Ready(PlanOutcome),
}

/// One cache entry: the full canonical text it was keyed under (the
/// collision check), an LRU stamp, the slot and its text-memo aliases.
struct Entry {
    text: String,
    /// The tick the entry was created at. Aliases name an entry by its
    /// key and this stamp, so they never reach a later entry for the
    /// same OMQ.
    born: u64,
    last_used: u64,
    slot: Slot,
    /// Text-memo keys of the aliases naming this entry, oldest first
    /// (at most [`MAX_ALIASES`]).
    aliases: Vec<u64>,
}

/// One text-memo alias: a request's exact `(ontology, query)` texts and
/// the entry they planned to.
struct Alias {
    ontology: Box<str>,
    query: Box<str>,
    /// The entry's canonical key.
    key: u64,
    /// The entry's [`Entry::born`] stamp.
    born: u64,
}

impl Alias {
    fn names(&self, key: u64, born: u64) -> bool {
        self.key == key && self.born == born
    }
}

/// Mutable cache state behind the one lock.
#[derive(Default)]
struct CacheState {
    /// Hash → colliding entries (almost always a single-element bucket).
    entries: HashMap<u64, Vec<Entry>>,
    /// Text-memo hash → colliding aliases (almost always one).
    aliases: HashMap<u64, Vec<Alias>>,
    /// Monotone LRU clock.
    tick: u64,
    /// Total entries across all buckets.
    len: usize,
}

impl CacheState {
    /// Records `(ontology, query)` as an alias of the ready entry
    /// `(key, canonical)`, replacing the entry's oldest alias when it
    /// already has [`MAX_ALIASES`]. A text already aliased (a
    /// concurrent request for the same text got here first) is left as
    /// it is: the same text always plans to the same entry.
    fn alias(&mut self, key: u64, canonical: &str, text_key: u64, ontology: &str, query: &str) {
        let known = self.aliases.get(&text_key).is_some_and(|bucket| {
            bucket
                .iter()
                .any(|a| *a.ontology == *ontology && *a.query == *query)
        });
        let entry = self
            .entries
            .get_mut(&key)
            .and_then(|b| b.iter_mut().find(|e| e.text == canonical));
        let Some(entry) = entry.filter(|_| !known) else {
            return;
        };
        let born = entry.born;
        let oldest = (entry.aliases.len() == MAX_ALIASES).then(|| entry.aliases.remove(0));
        entry.aliases.push(text_key);
        if let Some(oldest) = oldest {
            // An entry's aliases sit in their buckets in the order they
            // were made, so the first one naming it is its oldest.
            let bucket = self.aliases.get_mut(&oldest).expect("alias bucket exists");
            let i = bucket
                .iter()
                .position(|a| a.names(key, born))
                .expect("alias exists");
            bucket.remove(i);
            if bucket.is_empty() {
                self.aliases.remove(&oldest);
            }
        }
        self.aliases.entry(text_key).or_default().push(Alias {
            ontology: ontology.into(),
            query: query.into(),
            key,
            born,
        });
    }

    /// Drops the aliases of `entry`, just removed from bucket `key`.
    fn unlink(&mut self, key: u64, entry: &Entry) {
        for text_key in &entry.aliases {
            if let Some(bucket) = self.aliases.get_mut(text_key) {
                bucket.retain(|a| !a.names(key, entry.born));
                if bucket.is_empty() {
                    self.aliases.remove(text_key);
                }
            }
        }
    }
}

/// A thread-safe, verified, single-flight, bounded LRU cache of
/// compiled [`OmqPlan`]s keyed by [`canonical_omq_hash`]
/// (`fnv1a(canonical_omq_text)`) and verified against the full text,
/// with a text memo in front (see the module docs).
///
/// [`canonical_omq_hash`]: gomq_rewriting::canonical_omq_hash
pub struct PlanCache {
    state: Mutex<CacheState>,
    ready: Condvar,
    capacity: usize,
    hasher: fn(&str) -> u64,
    text_hasher: fn(&str, &str) -> u64,
    hits: AtomicU64,
    text_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inflight_waits: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

fn default_hasher(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

/// The production text-memo hasher: FNV-1a of each text, combined.
fn default_text_hasher(ontology: &str, query: &str) -> u64 {
    fnv1a(ontology.as_bytes()).rotate_left(5) ^ fnv1a(query.as_bytes())
}

impl PlanCache {
    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An empty cache holding at most `capacity` plans (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::with_capacity_and_hasher(capacity, default_hasher)
    }

    /// An empty cache with an explicit key-hash function. The production
    /// hasher is FNV-1a over the canonical text; tests inject a constant
    /// function to force every OMQ into one bucket and prove that the
    /// full-text verification never serves a colliding OMQ the wrong
    /// plan.
    pub fn with_capacity_and_hasher(capacity: usize, hasher: fn(&str) -> u64) -> Self {
        PlanCache {
            state: Mutex::new(CacheState::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            hasher,
            text_hasher: default_text_hasher,
            hits: AtomicU64::new(0),
            text_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
        }
    }

    /// Replaces the text memo's hash function over `(ontology, query)`.
    /// Tests inject a constant function to prove that the full-text
    /// verification never serves a colliding request text the wrong
    /// plan.
    pub fn with_text_hasher(mut self, text_hasher: fn(&str, &str) -> u64) -> Self {
        self.text_hasher = text_hasher;
        self
    }

    /// Looks a request's exact `(ontology, query)` texts up in the text
    /// memo: the outcome they planned to before, or `None` when these
    /// texts were never planned or their entry has been evicted. A hit
    /// takes no vocabulary lock and parses nothing; it counts as a
    /// cache hit and refreshes the entry's LRU stamp.
    pub fn get_text(&self, ontology: &str, query: &str) -> Option<PlanOutcome> {
        let text_key = (self.text_hasher)(ontology, query);
        let mut state = lock_recover(&self.state);
        let st = &mut *state;
        let alias = st
            .aliases
            .get(&text_key)?
            .iter()
            .find(|a| *a.ontology == *ontology && *a.query == *query)?;
        let (key, born) = (alias.key, alias.born);
        let entry = st
            .entries
            .get_mut(&key)?
            .iter_mut()
            .find(|e| e.born == born)?;
        // Only ready entries are aliased.
        let Slot::Ready(outcome) = &entry.slot else {
            return None;
        };
        let outcome = outcome.clone();
        st.tick += 1;
        entry.last_used = st.tick;
        drop(state);
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.text_hits.fetch_add(1, Ordering::Relaxed);
        Some(outcome)
    }

    /// Looks the OMQ up by canonical hash + full canonical text,
    /// compiling (and storing the outcome) on a miss. The boolean is
    /// `true` on a cache hit.
    ///
    /// Concurrent callers requesting the same new OMQ compile it once:
    /// the first becomes the leader, the rest block until the leader's
    /// outcome is published. The same `vocab` must be used for every
    /// call on one cache: plans hold interned relation ids.
    pub fn get_or_compile(
        &self,
        o: &GfOntology,
        query: RelId,
        vocab: &Mutex<Vocab>,
    ) -> (PlanOutcome, bool) {
        self.lookup(o, query, vocab, None)
    }

    /// [`PlanCache::get_or_compile`] for a request whose texts
    /// `(ontology, query)` parsed to `(o, query)` with the query
    /// validated against the ontology's signature. Once the outcome is
    /// cached, the texts are recorded as an alias of its entry, so the
    /// next request with the same texts is served by
    /// [`PlanCache::get_text`].
    pub fn get_or_compile_text(
        &self,
        o: &GfOntology,
        query: RelId,
        vocab: &Mutex<Vocab>,
        texts: (&str, &str),
    ) -> (PlanOutcome, bool) {
        self.lookup(o, query, vocab, Some(texts))
    }

    /// [`PlanCache::get_or_compile`], recording `texts` (when given) as
    /// an alias of the entry once its outcome is cached.
    fn lookup(
        &self,
        o: &GfOntology,
        query: RelId,
        vocab: &Mutex<Vocab>,
        texts: Option<(&str, &str)>,
    ) -> (PlanOutcome, bool) {
        let text = {
            let v = lock_recover(vocab);
            canonical_omq_text(o, query, &v)
        };
        let key = (self.hasher)(&text);
        let alias =
            texts.map(|(ontology, query)| ((self.text_hasher)(ontology, query), ontology, query));

        let mut state = lock_recover(&self.state);
        let mut waited = false;
        loop {
            let st = &mut *state;
            st.tick += 1;
            let tick = st.tick;
            let bucket = st.entries.entry(key).or_default();
            match bucket.iter_mut().find(|e| e.text == text) {
                Some(entry) => {
                    entry.last_used = tick;
                    if let Slot::Ready(outcome) = &entry.slot {
                        let outcome = outcome.clone();
                        if let Some((text_key, ontology, query)) = alias {
                            st.alias(key, &text, text_key, ontology, query);
                        }
                        drop(state);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return (outcome, true);
                    }
                    // Slot::InFlight: fall through and wait below.
                }
                None => {
                    bucket.push(Entry {
                        text: text.clone(),
                        born: tick,
                        last_used: tick,
                        slot: Slot::InFlight,
                        aliases: Vec::new(),
                    });
                    st.len += 1;
                    break;
                }
            }
            if !waited {
                waited = true;
                self.inflight_waits.fetch_add(1, Ordering::Relaxed);
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        drop(state);
        self.misses.fetch_add(1, Ordering::Relaxed);

        // Leader path: compile outside the cache lock (the vocab lock is
        // held only for the compilation itself), with panic isolation.
        // The plan keeps the canonical text rendered above.
        let compiled = catch_unwind(AssertUnwindSafe(|| {
            gomq_core::faults::point(gomq_core::faults::CACHE_COMPILE);
            let mut v = lock_recover(vocab);
            OmqPlan::compile_canonical(o, query, &mut v, text.clone())
        }));

        let mut state = lock_recover(&self.state);
        let outcome = match compiled {
            Ok(result) => {
                let outcome = result.map(Arc::new);
                if let Some(entry) = state
                    .entries
                    .get_mut(&key)
                    .and_then(|b| b.iter_mut().find(|e| e.text == text))
                {
                    entry.slot = Slot::Ready(outcome.clone());
                }
                if let Some((text_key, ontology, query)) = alias {
                    state.alias(key, &text, text_key, ontology, query);
                }
                self.evict_over_capacity(&mut state, key, &text);
                outcome
            }
            Err(payload) => {
                // Panics are not cached: drop the in-flight marker so a
                // later request retries, and surface a structured error.
                // An in-flight entry has no aliases.
                let st = &mut *state;
                if let Some(bucket) = st.entries.get_mut(&key) {
                    if let Some(i) = bucket.iter().position(|e| e.text == text) {
                        bucket.remove(i);
                        st.len -= 1;
                    }
                    if bucket.is_empty() {
                        st.entries.remove(&key);
                    }
                }
                Err(EngineError::Internal(format!(
                    "plan compilation panicked: {}",
                    panic_message(payload)
                )))
            }
        };
        drop(state);
        self.ready.notify_all();
        (outcome, false)
    }

    /// Evicts least-recently-used ready entries, with their aliases,
    /// until the size respects the capacity. The just-inserted
    /// `(keep_key, keep_text)` entry and in-flight markers are never
    /// evicted.
    fn evict_over_capacity(&self, state: &mut CacheState, keep_key: u64, keep_text: &str) {
        while state.len > self.capacity {
            let mut victim: Option<(u64, usize, u64)> = None; // (key, index, stamp)
            for (&key, bucket) in state.entries.iter() {
                for (i, entry) in bucket.iter().enumerate() {
                    let protected = matches!(entry.slot, Slot::InFlight)
                        || (key == keep_key && entry.text == keep_text);
                    if protected {
                        continue;
                    }
                    if victim.is_none_or(|(_, _, stamp)| entry.last_used < stamp) {
                        victim = Some((key, i, entry.last_used));
                    }
                }
            }
            let Some((key, i, _)) = victim else {
                break; // everything is in flight or protected
            };
            let bucket = state.entries.get_mut(&key).expect("victim bucket exists");
            let evicted = bucket.remove(i);
            if bucket.is_empty() {
                state.entries.remove(&key);
            }
            state.unlink(key, &evicted);
            state.len -= 1;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Maximum number of cached entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of those hits served by the text memo, without parsing
    /// the request's ontology ([`PlanCache::get_text`]).
    pub fn text_hits(&self) -> u64 {
        self.text_hits.load(Ordering::Relaxed)
    }

    /// Number of request texts the text memo currently holds (at most
    /// [`MAX_ALIASES`] per cached entry).
    pub fn aliases(&self) -> usize {
        lock_recover(&self.state)
            .aliases
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Number of cache misses (compilations attempted) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of entries evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of lookups that waited for another request's in-flight
    /// compilation instead of compiling themselves.
    pub fn inflight_waits(&self) -> u64 {
        self.inflight_waits.load(Ordering::Relaxed)
    }

    /// Number of cached entries (successful and negative).
    pub fn len(&self) -> usize {
        lock_recover(&self.state).len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached plan and the text memo (counters are kept).
    pub fn clear(&self) {
        let mut state = lock_recover(&self.state);
        // Keep in-flight markers: their leaders will still publish. Only
        // ready entries have aliases.
        for bucket in state.entries.values_mut() {
            bucket.retain(|e| matches!(e.slot, Slot::InFlight));
        }
        state.entries.retain(|_, b| !b.is_empty());
        state.aliases.clear();
        state.len = state.entries.values().map(Vec::len).sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_dl::parser::parse_ontology;
    use gomq_dl::translate::to_gf;

    fn parse_in(vocab: &Mutex<Vocab>, text: &str) -> GfOntology {
        let mut v = lock_recover(vocab);
        to_gf(&parse_ontology(text, &mut v).unwrap())
    }

    fn rel(vocab: &Mutex<Vocab>, name: &str) -> RelId {
        lock_recover(vocab).find_rel(name).unwrap()
    }

    /// What serving does with a request's texts: the text memo first,
    /// else parse and plan them, recording the texts as an alias. The
    /// boolean is `true` on a text-memo hit.
    fn plan_texts(
        cache: &PlanCache,
        v: &Mutex<Vocab>,
        ontology: &str,
        query: &str,
    ) -> (Arc<OmqPlan>, bool) {
        if let Some(outcome) = cache.get_text(ontology, query) {
            return (outcome.unwrap(), true);
        }
        let o = parse_in(v, ontology);
        let q = rel(v, query);
        let (outcome, _) = cache.get_or_compile_text(&o, q, v, (ontology, query));
        (outcome.unwrap(), false)
    }

    /// With a constant text hasher every request text collides; only
    /// the full-text check keeps each text on its own plan.
    #[test]
    fn forced_text_collision_never_serves_the_wrong_plan() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::new().with_text_hasher(|_, _| 0x42);
        let (p1, _) = plan_texts(&cache, &v, "A sub B\n", "B");
        let (p2, _) = plan_texts(&cache, &v, "X sub Y\n", "Y");
        assert_eq!(cache.aliases(), 2);
        for _ in 0..2 {
            let (again1, hit1) = plan_texts(&cache, &v, "A sub B\n", "B");
            let (again2, hit2) = plan_texts(&cache, &v, "X sub Y\n", "Y");
            assert!(hit1 && hit2);
            assert!(Arc::ptr_eq(&p1, &again1));
            assert!(Arc::ptr_eq(&p2, &again2));
        }
        // Same bucket, texts never planned: no false hit. The query text
        // is part of the key as much as the ontology text.
        assert!(cache.get_text("A sub B\n", "A").is_none());
        assert!(cache.get_text("A sub B", "B").is_none());
        assert!(cache.get_text("X sub Y\n", "B").is_none());
        assert_eq!(cache.misses(), 2);
        assert_eq!((cache.hits(), cache.text_hits()), (4, 4));
    }

    /// Whitespace and comment variants of one OMQ share one canonical
    /// entry: they compile once, and each variant, once planned, hits
    /// by its own text.
    #[test]
    fn text_variants_compile_once_then_hit_without_a_parse() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::new();
        let variants = [
            "A sub B\nB sub C",
            "B sub C\nA sub B\n",
            "  A sub B\n\nB sub C   ",
            "# a comment\nA sub B # trailing\nB sub C",
        ];
        let plans: Vec<_> = variants
            .iter()
            .map(|o| plan_texts(&cache, &v, o, "C"))
            .collect();
        assert!(plans.iter().all(|(_, text_hit)| !text_hit));
        assert_eq!(cache.misses(), 1, "one compile for every variant");
        assert_eq!(cache.hits(), 3);
        for (o, (plan, _)) in variants.iter().zip(&plans) {
            let (again, text_hit) = plan_texts(&cache, &v, o, "C");
            assert!(text_hit, "{o:?} hits by text");
            assert!(Arc::ptr_eq(plan, &again));
            assert!(Arc::ptr_eq(&plans[0].0, &again));
        }
        assert_eq!(cache.text_hits(), 4);
        assert_eq!(cache.misses(), 1);
    }

    /// An entry keeps at most `MAX_ALIASES` texts, a new one replacing
    /// the oldest; aliases die with their entry, so the memo never holds
    /// more than `MAX_ALIASES × capacity` texts, and an evicted OMQ
    /// recompiles as a miss.
    #[test]
    fn aliases_stay_bounded_and_die_with_their_entry() {
        let v = Mutex::new(Vocab::new());
        let capacity = 2;
        let cache = PlanCache::with_capacity(capacity);
        let variant = |i: usize, k: usize| format!("O{i}A sub O{i}B{}", " ".repeat(k));
        // One OMQ posed in more variants than an entry keeps.
        for k in 0..MAX_ALIASES + 2 {
            plan_texts(&cache, &v, &variant(0, k), "O0B");
        }
        assert_eq!(cache.aliases(), MAX_ALIASES);
        assert!(
            cache.get_text(&variant(0, 0), "O0B").is_none(),
            "oldest replaced"
        );
        assert!(cache
            .get_text(&variant(0, MAX_ALIASES + 1), "O0B")
            .is_some());
        // More distinct OMQs than the cache holds, each in variants.
        for i in 1..=3 * capacity {
            for k in 0..MAX_ALIASES + 1 {
                plan_texts(&cache, &v, &variant(i, k), &format!("O{i}B"));
                assert!(cache.aliases() <= MAX_ALIASES * capacity);
                assert!(cache.len() <= capacity);
            }
        }
        // OMQ 1 was evicted with its aliases: its text misses the memo,
        // and planning it again compiles.
        let misses = cache.misses();
        assert!(cache.get_text(&variant(1, MAX_ALIASES), "O1B").is_none());
        let (_, text_hit) = plan_texts(&cache, &v, &variant(1, MAX_ALIASES), "O1B");
        assert!(!text_hit);
        assert_eq!(cache.misses(), misses + 1);
        // Clearing the cache clears the memo.
        cache.clear();
        assert_eq!(cache.aliases(), 0);
        assert!(cache.get_text(&variant(1, MAX_ALIASES), "O1B").is_none());
    }

    /// A negatively cached compile failure is aliased like a plan: its
    /// text replays the cached error without a compile.
    #[test]
    fn cached_failures_replay_by_text() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::new();
        let cycle: String = (0..21)
            .map(|i| format!("A{i} sub A{}\n", (i + 1) % 21))
            .collect();
        let o = parse_in(&v, &cycle);
        let q = rel(&v, "A0");
        let (first, _) = cache.get_or_compile_text(&o, q, &v, (&cycle, "A0"));
        let again = cache
            .get_text(&cycle, "A0")
            .expect("the failure is aliased");
        assert!(first.is_err() && again.is_err());
        assert_eq!(format!("{:?}", first.err()), format!("{:?}", again.err()));
        assert_eq!((cache.misses(), cache.text_hits()), (1, 1));
    }

    #[test]
    fn second_lookup_is_a_hit_with_identical_plan() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::new();
        let o = parse_in(&v, "A sub B\n");
        let b = rel(&v, "B");
        let (p1, hit1) = cache.get_or_compile(&o, b, &v);
        let (p2, hit2) = cache.get_or_compile(&o, b, &v);
        assert!(!hit1);
        assert!(hit2);
        let (p1, p2) = (p1.unwrap(), p2.unwrap());
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
        // Re-parsing the same text into the same vocab hits as well.
        let o2 = parse_in(&v, "A sub B\n");
        let (p3, hit3) = cache.get_or_compile(&o2, b, &v);
        assert!(hit3);
        assert!(Arc::ptr_eq(&p1, &p3.unwrap()));
    }

    #[test]
    fn failures_are_negatively_cached() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::new();
        let mut o = parse_in(&v, "A sub ex R.B\n");
        o.transitive.insert(rel(&v, "R"));
        let b = rel(&v, "B");
        let (r1, hit1) = cache.get_or_compile(&o, b, &v);
        let (r2, hit2) = cache.get_or_compile(&o, b, &v);
        assert!(r1.is_err() && r2.is_err());
        assert!(!hit1);
        assert!(hit2, "the failure itself must be cached");
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn distinct_queries_get_distinct_plans() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::new();
        let o = parse_in(&v, "A sub B\nB sub C\n");
        let b = rel(&v, "B");
        let c = rel(&v, "C");
        cache.get_or_compile(&o, b, &v).0.unwrap();
        let (_, hit) = cache.get_or_compile(&o, c, &v);
        assert!(!hit);
        assert_eq!(cache.len(), 2);
    }

    /// The collision regression: with a constant hash function *every*
    /// OMQ collides, and only the full-text verification keeps each OMQ
    /// on its own plan.
    #[test]
    fn forced_hash_collision_never_serves_the_wrong_plan() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::with_capacity_and_hasher(8, |_| 0x42);
        let o1 = parse_in(&v, "A sub B\n");
        let o2 = parse_in(&v, "X sub Y\n");
        let b = rel(&v, "B");
        let y = rel(&v, "Y");
        let (p1, hit1) = cache.get_or_compile(&o1, b, &v);
        let (p2, hit2) = cache.get_or_compile(&o2, y, &v);
        let (p1, p2) = (p1.unwrap(), p2.unwrap());
        // Both colliding OMQs compiled (no false hit) and kept apart.
        assert!(!hit1 && !hit2);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        assert_ne!(p1.canonical_text, p2.canonical_text);
        assert_eq!(p1.query, b);
        assert_eq!(p2.query, y);
        // Re-lookups under the colliding key select by text, each
        // returning exactly its own plan.
        let (again1, h1) = cache.get_or_compile(&o1, b, &v);
        let (again2, h2) = cache.get_or_compile(&o2, y, &v);
        assert!(h1 && h2);
        assert!(Arc::ptr_eq(&p1, &again1.unwrap()));
        assert!(Arc::ptr_eq(&p2, &again2.unwrap()));
    }

    #[test]
    fn lru_eviction_respects_the_cap_and_recency() {
        let v = Mutex::new(Vocab::new());
        let cache = PlanCache::with_capacity(2);
        let o = parse_in(&v, "A sub B\nB sub C\nC sub D\n");
        let (b, c, d) = (rel(&v, "B"), rel(&v, "C"), rel(&v, "D"));
        cache.get_or_compile(&o, b, &v).0.unwrap();
        cache.get_or_compile(&o, c, &v).0.unwrap();
        assert_eq!(cache.len(), 2);
        // Touch B so C becomes the LRU victim.
        assert!(cache.get_or_compile(&o, b, &v).1);
        cache.get_or_compile(&o, d, &v).0.unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // B survived (hit); C was evicted (miss, recompiled).
        assert!(cache.get_or_compile(&o, b, &v).1);
        assert!(!cache.get_or_compile(&o, c, &v).1);
    }
}
