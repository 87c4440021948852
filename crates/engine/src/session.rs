//! Crash-consistent session state: a fact store with rollback marks,
//! optionally backed by a write-ahead log and periodic snapshots.
//!
//! A serving session accumulates ABox state across requests via three
//! mutations — `assert` (a batch of facts), `mark` (a rollback point)
//! and `rollback` (truncate back to a mark). [`DurableSession`] applies
//! each mutation only *after* journaling it to the [`Wal`], so a crash
//! at any instant loses at most the unacknowledged record; restart with
//! the same data directory rebuilds the exact pre-crash store
//! ([`DurableSession::open`]): same [`gomq_core::FactId`]s, same
//! answers, torn final record tolerated.
//!
//! ## One apply path
//!
//! A live mutation, a record replayed by recovery and a record shipped
//! from a primary all change the store through one private function,
//! `DurableSession::apply`. It also keeps the maintained views in step:
//! a rollback fences checked-out views and runs the DRed pass over the
//! registered ones, so a replica's views follow its store exactly as
//! the primary's do. The only other store writes replace the store
//! whole — `open`'s snapshot restore and a replica's snapshot install,
//! which drops every registered view.
//!
//! ## Snapshots
//!
//! Every `snapshot_every` journaled records the session dumps itself to
//! `snapshot.bin` (columnar store dump plus the interned symbol tables,
//! checksummed, written via temp-file + atomic rename) and truncates the
//! WAL. Recovery restores the snapshot, then replays only WAL records
//! with an lsn above the snapshot's — which also covers a crash between
//! the snapshot rename and the WAL truncation.

use crate::serve::Limits;
use crate::wal::{put_str, put_u32, put_u64, Cursor, SymFact, SymTerm, Wal, WalRecord};
use gomq_core::{Fact, FactStore, IndexedInstance, NullId, RelId, Term, Vocab};
use gomq_datalog::{Budget, Materialization};
use gomq_rewriting::fnv1a;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of `snapshot.bin`.
const SNAP_MAGIC: &[u8; 8] = b"GOMQSNAP";
/// Snapshot format version. Version 2 added the replication epoch;
/// version-1 snapshots are still read (epoch 0).
const SNAP_VERSION: u32 = 2;
/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";

/// A session-persistence failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// An I/O failure (real or injected). The mutation was rolled back
    /// and was *not* applied; the session stays serviceable.
    Io(String),
    /// The snapshot or log is damaged beyond the tolerated torn tail.
    Corrupt(String),
    /// A rollback named a mark that does not exist (or was invalidated
    /// by an earlier rollback).
    UnknownMark(u64),
    /// An earlier failure left the log tail in an unknown state; every
    /// further mutation is refused (queries still work).
    Poisoned(String),
    /// A replicated record skipped ahead of the local log: the record
    /// was not applied. A follower recovers by reconnecting, which
    /// makes the primary re-ship from the follower's position.
    Gap {
        /// The next lsn the local log expects.
        expected: u64,
        /// The lsn the record carried.
        got: u64,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Io(e) => write!(f, "session I/O failure: {e}"),
            SessionError::Corrupt(e) => write!(f, "session data corrupt: {e}"),
            SessionError::UnknownMark(id) => write!(f, "unknown mark {id}"),
            SessionError::Poisoned(e) => {
                write!(f, "session persistence poisoned by an earlier failure: {e}")
            }
            SessionError::Gap { expected, got } => {
                write!(f, "replication gap: expected lsn {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// What recovery found in the data directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryInfo {
    /// Facts restored from the snapshot.
    pub snapshot_facts: u64,
    /// WAL records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Facts asserted by the replayed records.
    pub replayed_facts: u64,
    /// Whether a torn/corrupt WAL tail was truncated.
    pub truncated_tail: bool,
}

/// Outcome of one acknowledged mutation.
#[derive(Clone, Copy, Debug, Default)]
pub struct MutationInfo {
    /// Log sequence number of the journaled record (0 when in-memory).
    pub lsn: u64,
    /// Frame bytes appended to the WAL (0 when in-memory).
    pub wal_bytes: u64,
    /// New facts added by an assert (0 for mark/rollback).
    pub added: u64,
    /// Session store size after the mutation.
    pub facts: u64,
    /// The view maintenance the mutation ran (a rollback's DRed pass
    /// over the registered views; zero for the other records).
    pub views: ViewMaintenance,
}

/// The in-memory half: the session's fact store plus rollback marks.
///
/// The store sits behind an [`Arc`] so a query can snapshot it with a
/// reference-count bump instead of deep-copying the fact columns; only
/// mutations pay for isolation, via [`Arc::make_mut`] copy-on-write
/// (which copies nothing while no reader holds a snapshot).
#[derive(Default)]
struct SessionStore {
    facts: Arc<IndexedInstance>,
    /// Mark id → store length at mark time.
    marks: HashMap<u64, usize>,
    next_mark: u64,
}

impl SessionStore {
    fn apply_assert(&mut self, facts: &[Fact]) -> u64 {
        let store = Arc::make_mut(&mut self.facts);
        let mut added = 0u64;
        for f in facts {
            if store.insert_ref(f.rel, &f.args) {
                added += 1;
            }
        }
        added
    }

    fn apply_mark(&mut self, id: u64) {
        self.marks.insert(id, self.facts.len());
        self.next_mark = self.next_mark.max(id + 1);
    }

    fn apply_rollback(&mut self, id: u64) -> Result<(), SessionError> {
        let Some(&target) = self.marks.get(&id) else {
            return Err(SessionError::UnknownMark(id));
        };
        Arc::make_mut(&mut self.facts).truncate(target);
        // Marks taken after the restored point now dangle past the end;
        // the mark rolled back to stays valid (its length == target).
        self.marks.retain(|_, len| *len <= target);
        Ok(())
    }
}

/// Default number of maintained views kept per session.
pub const DEFAULT_MAX_VIEWS: usize = 8;

/// Aggregate outcome of maintaining every registered view through one
/// session rollback ([`DurableSession::maintain_views_rollback`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ViewMaintenance {
    /// Facts overcount-deleted across all views (DRed delete phase).
    pub deleted: u64,
    /// Facts rederived across all views (DRed rederive phase).
    pub rederived: u64,
    /// Views dropped because maintenance blew its budget.
    pub over_budget: u64,
    /// Views dropped because maintenance panicked (the panic is
    /// contained here; the session store itself was never touched).
    pub panicked: u64,
}

/// One registered materialized view plus its LRU recency stamp.
struct ViewSlot {
    view: Materialization,
    last_used: u64,
}

/// Plan-keyed registry of maintained session materializations, LRU-
/// capped like the plan cache.
///
/// Views are checked *out* for maintenance ([`ViewRegistry::take`]) and
/// re-registered afterwards ([`ViewRegistry::put`]), so the session
/// lock is never held across a sync. The registry's `epoch` is bumped
/// by every store shrink (a rollback or a snapshot install); `put`
/// refuses a view checked out under an older epoch — a view that raced
/// a shrink is dropped rather than re-registered stale (the next query
/// rebuilds it).
///
/// Views never outlive the process: recovery (snapshot restore + WAL
/// replay) starts with an empty registry, and because replay re-interns
/// symbolic facts deterministically — same [`gomq_core::FactId`]s, same
/// iteration order — a view rebuilt after recovery produces answers
/// byte-identical to the pre-crash ones.
pub struct ViewRegistry {
    views: HashMap<u64, ViewSlot>,
    cap: usize,
    tick: u64,
    evicted: u64,
    epoch: u64,
}

impl Default for ViewRegistry {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_VIEWS)
    }
}

impl ViewRegistry {
    /// An empty registry holding at most `cap` views (0 disables
    /// maintenance: `take` always misses and `put` always discards).
    pub fn new(cap: usize) -> Self {
        ViewRegistry {
            views: HashMap::new(),
            cap,
            tick: 0,
            evicted: 0,
            epoch: 0,
        }
    }

    /// Whether maintained views are enabled (capacity > 0).
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Changes the capacity, evicting LRU views if it shrank. Views
    /// dropped by the change count in [`ViewRegistry::evicted`].
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap;
        if cap == 0 {
            self.clear();
        } else {
            self.shrink_to_cap();
        }
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Views dropped so far, for *any* reason: the LRU cap, a
    /// stale-epoch re-registration refused after a rollback, failed
    /// maintenance, a capacity change, or an externally noted drop
    /// ([`ViewRegistry::note_dropped`]). The counter is authoritative
    /// for the engine's `views_evicted` total — every path a checked-
    /// out or registered view can die on must land here, or the
    /// cumulative block drifts from what actually happened.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Counts views that died outside the registry (a failed sync
    /// consumed one, or a non-recording view was discarded to rebuild
    /// with derivation recording).
    pub fn note_dropped(&mut self, n: u64) {
        self.evicted = self.evicted.saturating_add(n);
    }

    /// The current epoch (bumped by every store shrink).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Checks the view for `key` out of the registry (the caller owns
    /// it until [`ViewRegistry::put`]). `None` on a miss or when
    /// maintenance is disabled.
    pub fn take(&mut self, key: u64) -> Option<Materialization> {
        if !self.enabled() {
            return None;
        }
        self.views.remove(&key).map(|s| s.view)
    }

    /// Re-registers a view checked out under `epoch`. Returns `false`
    /// (dropping the view, counted in [`ViewRegistry::evicted`]) when
    /// maintenance is disabled or a rollback intervened since the
    /// checkout.
    pub fn put(&mut self, key: u64, view: Materialization, epoch: u64) -> bool {
        if !self.enabled() || epoch != self.epoch {
            self.evicted += 1;
            return false;
        }
        self.tick += 1;
        self.views.insert(
            key,
            ViewSlot {
                view,
                last_used: self.tick,
            },
        );
        self.shrink_to_cap();
        true
    }

    /// Invalidates checked-out views (called on every store shrink).
    fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Drops every registered view, counted in
    /// [`ViewRegistry::evicted`], and invalidates checked-out ones: the
    /// store they were synced against is gone.
    fn clear(&mut self) {
        self.evicted += self.views.len() as u64;
        self.views.clear();
        self.bump_epoch();
    }

    /// Evicts least-recently-used views down to the capacity. The view
    /// inserted last holds the newest stamp, so it is never the victim.
    fn shrink_to_cap(&mut self) {
        while self.views.len() > self.cap {
            let Some(victim) = self
                .views
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(&k, _)| k)
            else {
                break;
            };
            self.views.remove(&victim);
            self.evicted += 1;
        }
    }
}

/// Persistence state: the WAL handle plus snapshot policy.
struct Persistence {
    wal: Wal,
    dir: PathBuf,
    fsync: bool,
    /// Journaled records since the last snapshot; a snapshot fires when
    /// this reaches `snapshot_every` (0 disables periodic snapshots).
    snapshot_every: u64,
    records_since_snapshot: u64,
    poisoned: Option<String>,
}

/// Durability knobs for [`DurableSession::open`].
#[derive(Clone, Copy, Debug)]
pub struct PersistOptions {
    /// fsync the WAL after every record (and snapshot files always).
    pub fsync: bool,
    /// Snapshot after this many journaled records (0 = never).
    pub snapshot_every: u64,
}

impl Default for PersistOptions {
    fn default() -> Self {
        PersistOptions {
            fsync: false,
            snapshot_every: 64,
        }
    }
}

/// A sink for successfully journaled WAL frames. The replication hub
/// implements this: every acknowledged record is published to connected
/// replicas right after it becomes durable locally.
pub trait RecordSink: Send + Sync {
    /// Hands over one journaled frame (complete wire encoding, exactly
    /// the bytes appended to the log) at its lsn.
    fn publish(&self, lsn: u64, frame: Vec<u8>);

    /// Notes that a durable snapshot covering everything up to `lsn`
    /// was cut: frames at or below it are recoverable via snapshot
    /// bootstrap, so a sink may release them.
    fn note_snapshot(&self, _lsn: u64) {}
}

/// The session store, optionally journaled to disk. In-memory sessions
/// ([`DurableSession::in_memory`]) share the same mutation API with all
/// persistence calls skipped.
pub struct DurableSession {
    store: SessionStore,
    persist: Option<Persistence>,
    views: ViewRegistry,
    /// Highest replication epoch seen (journaled, snapshotted, or
    /// learned from a peer's promotion).
    repl_epoch: u64,
    /// Where journaled frames are published for replica shipping.
    publisher: Option<Arc<dyn RecordSink>>,
    /// Bounds a rollback's view maintenance (the server's default
    /// request limits; unlimited unless the serving layer sets them).
    limits: Limits,
}

impl Default for DurableSession {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl DurableSession {
    /// A purely in-memory session (no WAL, no snapshots).
    pub fn in_memory() -> Self {
        DurableSession {
            store: SessionStore::default(),
            persist: None,
            views: ViewRegistry::default(),
            repl_epoch: 0,
            publisher: None,
            limits: Limits::default(),
        }
    }

    /// Opens (and recovers) a session from `dir`: restores the snapshot
    /// if one exists, replays WAL records past it (truncating a torn
    /// tail), and leaves the log open for appending.
    ///
    /// Snapshot restore and replay intern every name they meet into
    /// `vocab`, which may already hold names of its own: ids are
    /// remapped by name, so a fresh vocabulary gets the dump's ids back
    /// unchanged.
    pub fn open(
        dir: &Path,
        opts: PersistOptions,
        vocab: &mut Vocab,
    ) -> Result<(Self, RecoveryInfo), SessionError> {
        std::fs::create_dir_all(dir).map_err(|e| SessionError::Io(e.to_string()))?;
        let mut info = RecoveryInfo::default();
        let mut session = Self::in_memory();
        let mut last_lsn = 0u64;
        match std::fs::read(dir.join(SNAPSHOT_FILE)) {
            Ok(bytes) => {
                let snap = decode_snapshot(&bytes, vocab)?;
                (last_lsn, session.repl_epoch, session.store) =
                    (snap.last_lsn, snap.epoch, snap.store);
                info.snapshot_facts = session.len() as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(SessionError::Io(e.to_string())),
        }
        let replayed =
            Wal::replay(&dir.join(WAL_FILE)).map_err(|e| SessionError::Io(e.to_string()))?;
        info.truncated_tail = replayed.truncated;
        for (lsn, record) in &replayed.records {
            if *lsn <= last_lsn {
                continue; // already folded into the snapshot
            }
            info.replayed_records += 1;
            let facts = resolve_record(vocab, record)?;
            info.replayed_facts += session.apply(record, &facts)?.added;
            last_lsn = last_lsn.max(*lsn);
        }
        let wal = Wal::open(&dir.join(WAL_FILE), opts.fsync, last_lsn + 1)
            .map_err(|e| SessionError::Io(e.to_string()))?;
        session.persist = Some(Persistence {
            wal,
            dir: dir.to_owned(),
            fsync: opts.fsync,
            snapshot_every: opts.snapshot_every,
            records_since_snapshot: replayed.records.len() as u64,
            poisoned: None,
        });
        Ok((session, info))
    }

    /// Number of facts in the session store.
    pub fn len(&self) -> usize {
        self.store.facts.len()
    }

    /// Whether the session store is empty.
    pub fn is_empty(&self) -> bool {
        self.store.facts.len() == 0
    }

    /// Whether the session journals to disk.
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// A shared snapshot of the session's indexed store: a reference-
    /// count bump, not a copy. Read paths (queries, view syncs) hold
    /// the `Arc` and evaluate outside the session lock; a concurrent
    /// mutation copies the store on write instead, so the snapshot is
    /// immutable for its whole lifetime.
    pub fn share_store(&self) -> Arc<IndexedInstance> {
        Arc::clone(&self.store.facts)
    }

    /// A full deep clone of the session's indexed store. Prefer
    /// [`DurableSession::share_store`] — the serve read path never
    /// copies the fact columns; this remains for callers that want a
    /// mutable private copy.
    pub fn clone_store(&self) -> IndexedInstance {
        (*self.store.facts).clone()
    }

    /// The session's maintained-view registry.
    pub fn views(&self) -> &ViewRegistry {
        &self.views
    }

    /// Mutable access to the maintained-view registry.
    pub fn views_mut(&mut self) -> &mut ViewRegistry {
        &mut self.views
    }

    /// Sets how many maintained views the session keeps (0 disables).
    pub fn set_view_capacity(&mut self, cap: usize) {
        self.views.set_capacity(cap);
    }

    /// Sets the limits a rollback's view maintenance runs under (the
    /// serving layer passes its default request limits once).
    pub(crate) fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Runs the DRed delete-rederive pass over every registered view
    /// after the session store shrank to `keep` facts. A view whose
    /// maintenance fails (blown budget or panic) is dropped — the next
    /// query rebuilds it from the store — so the session itself never
    /// pays for a pathological view. Every rollback already runs this
    /// pass under the session's limits (its [`MutationInfo::views`]);
    /// a further call finds the views at `keep` and changes nothing.
    pub fn maintain_views_rollback(&mut self, keep: usize, budget: &Budget) -> ViewMaintenance {
        let mut out = ViewMaintenance::default();
        let keys: Vec<u64> = self.views.views.keys().copied().collect();
        for key in keys {
            let Some(mut slot) = self.views.views.remove(&key) else {
                continue;
            };
            // A view that lagged behind on syncs never saw the doomed
            // facts; rolling back to its own frontier is a no-op.
            let target = keep.min(slot.view.base_len());
            match catch_unwind(AssertUnwindSafe(|| slot.view.rollback(target, budget))) {
                Ok(Ok(stats)) => {
                    out.deleted = out.deleted.saturating_add(stats.ivm_deleted as u64);
                    out.rederived = out.rederived.saturating_add(stats.ivm_rederived as u64);
                    self.views.views.insert(key, slot);
                }
                Ok(Err(_)) => {
                    out.over_budget += 1;
                    self.views.note_dropped(1);
                }
                Err(_) => {
                    out.panicked += 1;
                    self.views.note_dropped(1);
                }
            }
        }
        out
    }

    /// The session's durable position: `(last applied LSN, fact
    /// count)`. This is what a certificate's `snapshot` binding
    /// records — the pair identifies exactly which store state the
    /// answer was computed over (the LSN is 0 for in-memory sessions,
    /// where only the fact count binds).
    pub fn position(&self) -> (u64, u64) {
        let lsn = self
            .persist
            .as_ref()
            .map_or(0, |p| p.wal.next_lsn().saturating_sub(1));
        (lsn, self.store.facts.len() as u64)
    }

    /// Applies one record to the store and its views. This is the only
    /// code that changes either, apart from the two whole-store swaps
    /// (`open`'s snapshot restore and a replica's snapshot install).
    /// Recovery replay calls it directly; live and replicated mutations
    /// validate and journal first ([`DurableSession::commit`]). `facts`
    /// is an assert's batch, resolved against the vocabulary.
    fn apply(&mut self, record: &WalRecord, facts: &[Fact]) -> Result<MutationInfo, SessionError> {
        let mut info = MutationInfo::default();
        match record {
            WalRecord::Assert(_) => info.added = self.store.apply_assert(facts),
            WalRecord::Mark(id) => self.store.apply_mark(*id),
            WalRecord::Rollback(id) => {
                self.store.apply_rollback(*id)?;
                // Views checked out across the shrink may have synced
                // doomed facts: the epoch bump makes `put` refuse them.
                // Registered views are maintained now, eagerly: a lazy
                // pass would misread the positional base prefix once new
                // asserts land on the truncated store.
                self.views.bump_epoch();
                let budget = self.limits.budget_from_now();
                info.views = self.maintain_views_rollback(self.len(), &budget);
            }
            WalRecord::Epoch(e) => self.repl_epoch = self.repl_epoch.max(*e),
        }
        info.facts = self.len() as u64;
        Ok(info)
    }

    /// Validates, journals and applies one live or replicated mutation.
    /// A rollback's mark is checked before journaling, so an invalid
    /// rollback never reaches the log.
    fn commit(&mut self, record: &WalRecord, facts: &[Fact]) -> Result<MutationInfo, SessionError> {
        if let WalRecord::Rollback(id) = record {
            if !self.store.marks.contains_key(id) {
                return Err(SessionError::UnknownMark(*id));
            }
        }
        let (lsn, wal_bytes) = self.journal(record)?;
        let info = self.apply(record, facts)?;
        Ok(MutationInfo {
            lsn,
            wal_bytes,
            ..info
        })
    }

    /// Journals one record, rolling the mutation attempt back on
    /// failure, and counts it toward the snapshot policy. A durably
    /// journaled record is republished to the replication sink (if one
    /// is attached) — publication happens only *after* the append
    /// succeeded, so replicas can never hold a frame the primary rolled
    /// back.
    fn journal(&mut self, record: &WalRecord) -> Result<(u64, u64), SessionError> {
        let Some(p) = self.persist.as_mut() else {
            return Ok((0, 0));
        };
        if let Some(why) = &p.poisoned {
            return Err(SessionError::Poisoned(why.clone()));
        }
        match p.wal.append(record) {
            Ok((lsn, bytes)) => {
                p.records_since_snapshot += 1;
                if let Some(sink) = &self.publisher {
                    sink.publish(lsn, record.encode_frame(lsn));
                }
                Ok((lsn, bytes))
            }
            Err(e) => {
                let msg = e.to_string();
                if msg.contains("could not be rolled back") {
                    p.poisoned = Some(msg.clone());
                }
                Err(SessionError::Io(msg))
            }
        }
    }

    /// Attaches the sink journaled frames are republished to (the
    /// primary's replication hub).
    pub fn set_publisher(&mut self, sink: Arc<dyn RecordSink>) {
        self.publisher = Some(sink);
    }

    /// The highest replication epoch this session has seen (0 when the
    /// node never took part in a failover).
    pub fn repl_epoch(&self) -> u64 {
        self.repl_epoch
    }

    /// Raises the in-memory epoch without journaling — used when a node
    /// *learns* of a peer's higher epoch (fencing) rather than
    /// promoting itself.
    pub fn observe_epoch(&mut self, epoch: u64) {
        self.repl_epoch = self.repl_epoch.max(epoch);
    }

    /// Journals an epoch bump (promotion): the record fences any
    /// resurrected primary still on a lower epoch, and survives crash
    /// and snapshot like every other mutation.
    pub fn stamp_epoch(&mut self, epoch: u64) -> Result<MutationInfo, SessionError> {
        self.commit(&WalRecord::Epoch(epoch), &[])
    }

    /// Applies one record shipped from the primary, journaling it
    /// locally at the *primary's* lsn so the replica's durable position
    /// (and certificate bindings) match the primary's byte-for-byte.
    /// `facts` is the record's assert batch resolved against this
    /// node's vocabulary ([`resolve_record`]).
    ///
    /// Records must arrive in lsn order: one at or below the local
    /// position is a duplicate (already applied — `Ok(None)`), one past
    /// the expected next lsn is a gap and refuses with
    /// [`SessionError::Gap`] rather than silently diverging.
    pub fn apply_replicated(
        &mut self,
        lsn: u64,
        record: &WalRecord,
        facts: &[Fact],
    ) -> Result<Option<MutationInfo>, SessionError> {
        let Some(p) = self.persist.as_ref() else {
            return Err(SessionError::Io(
                "replica apply requires a durable session".into(),
            ));
        };
        let expected = p.wal.next_lsn();
        if lsn < expected {
            return Ok(None); // duplicate re-ship after a reconnect
        }
        if lsn > expected {
            return Err(SessionError::Gap { expected, got: lsn });
        }
        self.commit(record, facts).map(Some)
    }

    /// Installs a snapshot shipped by the primary: how a follower
    /// catches up whenever its position is behind the primary's retained
    /// log — on its first connection from an empty or stale data
    /// directory, or on a reconnect after the primary pruned past it
    /// ("copy immutable objects, then flip HEAD").
    ///
    /// The image is decoded against the live vocabulary (ids remapped by
    /// name, as on [`DurableSession::open`]), persisted as the local
    /// snapshot — always fsynced, its ids are self-consistent for a
    /// fresh recovery — and only then is the journal emptied and
    /// fast-forwarded to the snapshot's position and the store swapped,
    /// so a crash mid-install recovers either the old or the new
    /// position, never a torn mix. Returns the installed `(lsn, epoch)`.
    pub fn install_replicated_snapshot(
        &mut self,
        bytes: &[u8],
        vocab: &mut Vocab,
    ) -> Result<(u64, u64), SessionError> {
        let Some(p) = self.persist.as_mut() else {
            return Err(SessionError::Io(
                "snapshot install requires a durable session".into(),
            ));
        };
        if let Some(why) = &p.poisoned {
            return Err(SessionError::Poisoned(why.clone()));
        }
        let snap = decode_snapshot(bytes, vocab)?;
        let io = |e: std::io::Error| SessionError::Io(e.to_string());
        replace_snapshot(&p.dir, bytes, true).map_err(io)?;
        p.wal.reset_to(snap.last_lsn + 1).map_err(io)?;
        p.records_since_snapshot = 0;
        self.store = snap.store;
        self.repl_epoch = self.repl_epoch.max(snap.epoch);
        // Views synced against the replaced store must not survive it.
        self.views.clear();
        Ok((snap.last_lsn, snap.epoch))
    }

    /// Asserts a batch of facts: journal first, then apply. `syms` and
    /// `facts` must describe the same batch (the serve layer builds both
    /// while holding the vocabulary lock).
    pub fn assert(
        &mut self,
        syms: Vec<SymFact>,
        facts: &[Fact],
    ) -> Result<MutationInfo, SessionError> {
        self.commit(&WalRecord::Assert(syms), facts)
    }

    /// Creates a rollback mark, returning `(mark id, mutation info)`.
    pub fn mark(&mut self) -> Result<(u64, MutationInfo), SessionError> {
        let id = self.store.next_mark;
        Ok((id, self.commit(&WalRecord::Mark(id), &[])?))
    }

    /// Rolls the store back to a mark and maintains the registered
    /// views to match ([`MutationInfo::views`]). The mark is validated
    /// *before* journaling, so an invalid rollback never reaches the log.
    pub fn rollback(&mut self, id: u64) -> Result<MutationInfo, SessionError> {
        self.commit(&WalRecord::Rollback(id), &[])
    }

    /// Whether the snapshot policy says it is time to snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.persist.as_ref().is_some_and(|p| {
            p.poisoned.is_none()
                && p.snapshot_every > 0
                && p.records_since_snapshot >= p.snapshot_every
        })
    }

    /// Dumps the session to `snapshot.bin` (temp file + atomic rename)
    /// and truncates the WAL. A failed snapshot leaves the WAL intact —
    /// nothing is lost, the next mutation retries.
    pub fn snapshot_now(&mut self, vocab: &Vocab) -> Result<(), SessionError> {
        let Some(p) = self.persist.as_mut() else {
            return Ok(());
        };
        if let Some(why) = &p.poisoned {
            return Err(SessionError::Poisoned(why.clone()));
        }
        let last_lsn = p.wal.next_lsn() - 1;
        let bytes = encode_snapshot(vocab, &self.store, last_lsn, self.repl_epoch);
        if let Some(gomq_core::faults::IoFault::Error | gomq_core::faults::IoFault::Short) =
            gomq_core::faults::io_point(gomq_core::faults::SNAPSHOT_WRITE)
        {
            return Err(SessionError::Io("chaos: injected snapshot failure".into()));
        }
        replace_snapshot(&p.dir, &bytes, p.fsync).map_err(|e| SessionError::Io(e.to_string()))?;
        // Rotate rather than truncate: the pre-snapshot records are
        // sealed aside as `wal.old` for shipping and triage; they are
        // never replayed (all at or below the snapshot's lsn).
        p.wal
            .rotate()
            .map_err(|e| SessionError::Io(e.to_string()))?;
        p.records_since_snapshot = 0;
        if let Some(sink) = &self.publisher {
            sink.note_snapshot(last_lsn);
        }
        Ok(())
    }

    /// Encodes the session's current state as snapshot bytes — exactly
    /// what `snapshot.bin` would contain — without touching disk. The
    /// primary ships this to a bootstrapping replica, which installs it
    /// as its local snapshot and tails the log from the embedded lsn.
    pub fn encode_current_snapshot(&self, vocab: &Vocab) -> Vec<u8> {
        let last_lsn = self.position().0;
        encode_snapshot(vocab, &self.store, last_lsn, self.repl_epoch)
    }

    /// Orderly-shutdown flush: fsync the WAL (so every acknowledged
    /// mutation is stable even if the next step fails), then cut a final
    /// snapshot. After a clean drain a restart recovers from the
    /// snapshot alone — zero WAL replay — which is the deploy story the
    /// serving front end advertises. No-op for in-memory sessions.
    pub fn drain(&mut self, vocab: &Vocab) -> Result<(), SessionError> {
        let Some(p) = self.persist.as_mut() else {
            return Ok(());
        };
        if let Some(why) = &p.poisoned {
            return Err(SessionError::Poisoned(why.clone()));
        }
        p.wal.sync().map_err(|e| SessionError::Io(e.to_string()))?;
        self.snapshot_now(vocab)
    }
}

/// Resolves a symbolic fact against the vocabulary, interning names as
/// needed (replay re-creates exactly the names the live session used).
///
/// A journaled fact over a reserved relation name (only logs written
/// before the namespace was reserved can hold one) or at an arity the
/// vocabulary holds its name at differently is corrupt data: replaying
/// it would put a user fact into a derived relation, or trip the
/// vocabulary's arity assertion.
pub fn resolve_sym_fact(vocab: &mut Vocab, sf: &SymFact) -> Result<Fact, SessionError> {
    if gomq_core::is_reserved_rel_name(&sf.rel) {
        return Err(SessionError::Corrupt(reserved_fact(&sf.rel)));
    }
    let arity = sf.args.len();
    if let Some(r) = vocab.find_rel(&sf.rel) {
        if vocab.arity(r) != arity {
            return Err(SessionError::Corrupt(format!(
                "fact over {} with arity {arity}, declared with {}",
                sf.rel,
                vocab.arity(r)
            )));
        }
    }
    let rel = vocab.rel(&sf.rel, arity);
    let args = sf
        .args
        .iter()
        .map(|t| match t {
            SymTerm::Const(name) => Term::Const(vocab.constant(name)),
            SymTerm::Null(n) => {
                vocab.ensure_nulls(n + 1);
                Term::Null(NullId(*n))
            }
        })
        .collect();
    Ok(Fact::new(rel, args))
}

/// Why a stored fact over a reserved relation name is refused.
fn reserved_fact(name: &str) -> String {
    format!("stored fact: {}", gomq_core::reserved_rel_message(name))
}

/// Resolves a journaled record's facts ([`resolve_sym_fact`] per fact
/// of an assert; other records carry none).
pub fn resolve_record(vocab: &mut Vocab, record: &WalRecord) -> Result<Vec<Fact>, SessionError> {
    match record {
        WalRecord::Assert(syms) => syms.iter().map(|sf| resolve_sym_fact(vocab, sf)).collect(),
        _ => Ok(Vec::new()),
    }
}

/// Converts an interned fact to its symbolic form via the vocabulary.
pub fn sym_fact(vocab: &Vocab, rel: RelId, args: &[Term]) -> SymFact {
    SymFact {
        rel: vocab.rel_name(rel).to_owned(),
        args: args
            .iter()
            .map(|t| match t {
                Term::Const(c) => SymTerm::Const(vocab.const_name(*c).to_owned()),
                Term::Null(n) => SymTerm::Null(n.0),
            })
            .collect(),
    }
}

// ---- snapshot encode/decode ----

/// A decoded GOMQSNAP image: the log position it denotes and the store
/// it dumps, with every id remapped into the decoding vocabulary.
struct Snapshot {
    last_lsn: u64,
    epoch: u64,
    store: SessionStore,
}

/// Replaces `dir/snapshot.bin` with `bytes` atomically: write a temp
/// file, then rename it over the old snapshot. With `fsync` the temp
/// file is synced before the rename and the directory after it (best
/// effort on filesystems that refuse to fsync directories), so the new
/// snapshot survives a crash once this returns.
fn replace_snapshot(dir: &Path, bytes: &[u8], fsync: bool) -> std::io::Result<()> {
    let tmp = dir.join("snapshot.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    if fsync {
        f.sync_data()?;
    }
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    if fsync {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_data();
        }
    }
    Ok(())
}

fn encode_snapshot(vocab: &Vocab, store: &SessionStore, last_lsn: u64, epoch: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(4096);
    b.extend_from_slice(SNAP_MAGIC);
    put_u32(&mut b, SNAP_VERSION);
    put_u64(&mut b, last_lsn);
    put_u64(&mut b, epoch);
    put_u64(&mut b, store.next_mark);
    put_u32(&mut b, vocab.null_count());
    put_u32(&mut b, vocab.const_count() as u32);
    for i in 0..vocab.const_count() as u32 {
        put_str(&mut b, vocab.const_name(gomq_core::ConstId(i)));
    }
    put_u32(&mut b, vocab.rel_count() as u32);
    for r in vocab.rels() {
        put_str(&mut b, vocab.rel_name(r));
        put_u32(&mut b, vocab.arity(r) as u32);
    }
    let (rels, starts, arena) = store.facts.store().columns();
    put_u32(&mut b, rels.len() as u32);
    for r in rels {
        put_u32(&mut b, r.0);
    }
    for s in starts {
        put_u32(&mut b, *s);
    }
    put_u32(&mut b, arena.len() as u32);
    for t in arena {
        match t {
            Term::Const(c) => {
                b.push(0);
                put_u32(&mut b, c.0);
            }
            Term::Null(n) => {
                b.push(1);
                put_u32(&mut b, n.0);
            }
        }
    }
    put_u32(&mut b, store.marks.len() as u32);
    let mut marks: Vec<(u64, u64)> = store
        .marks
        .iter()
        .map(|(&id, &len)| (id, len as u64))
        .collect();
    marks.sort_unstable();
    for (id, len) in marks {
        put_u64(&mut b, id);
        put_u64(&mut b, len);
    }
    let sum = fnv1a(&b);
    put_u64(&mut b, sum);
    b
}

/// Checksum-verifies and decodes one GOMQSNAP image (version 1 or 2)
/// against `vocab`. The dumped names are interned by name and the
/// image's dense ids remapped through them, so the same decoder serves
/// a fresh vocabulary (where the remap is the identity) and a serving
/// replica's live one (which holds extra names interned by queries).
/// Dangling ids, duplicate names and marks past the end of the store
/// are corruption.
fn decode_snapshot(bytes: &[u8], vocab: &mut Vocab) -> Result<Snapshot, SessionError> {
    let corrupt = |why: String| SessionError::Corrupt(format!("snapshot: {why}"));
    if bytes.len() < SNAP_MAGIC.len() + 12 || &bytes[..8] != SNAP_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(tail.try_into().unwrap());
    if fnv1a(body) != sum {
        return Err(corrupt("checksum mismatch".into()));
    }
    let mut c = Cursor::new(&body[8..]);
    let mut decode = || -> Result<Snapshot, String> {
        let version = c.take_u32()?;
        if version != 1 && version != SNAP_VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let last_lsn = c.take_u64()?;
        let epoch = if version >= 2 { c.take_u64()? } else { 0 };
        let next_mark = c.take_u64()?;
        let null_horizon = c.take_u32()?;
        let n_consts = c.take_u32()? as usize;
        let mut consts = Vec::with_capacity(n_consts.min(1 << 20));
        for _ in 0..n_consts {
            consts.push(vocab.constant(&c.take_str()?));
        }
        let n_rels = c.take_u32()? as usize;
        // Dumped id → live id, or the reserved name the dump holds there.
        // Reserved names are never interned from a dump: the live
        // rewriting owns them (images written before the namespace was
        // reserved list every plan's IDB names, at whatever arity a
        // request once gave them). No fact may cite one.
        let mut rels: Vec<Result<RelId, String>> = Vec::with_capacity(n_rels.min(1 << 20));
        for _ in 0..n_rels {
            let name = c.take_str()?;
            let arity = c.take_u32()? as usize;
            if gomq_core::is_reserved_rel_name(&name) {
                rels.push(Err(name));
                continue;
            }
            if vocab
                .find_rel(&name)
                .is_some_and(|r| vocab.arity(r) != arity)
            {
                return Err(format!("relation {name} dumped with arity {arity}"));
            }
            rels.push(Ok(vocab.rel(&name, arity)));
        }
        if !all_distinct(&consts) {
            return Err("duplicate constant in dump".into());
        }
        let live: Vec<RelId> = rels
            .iter()
            .filter_map(|r| r.as_ref().ok().copied())
            .collect();
        if !all_distinct(&live) {
            return Err("duplicate relation in dump".into());
        }
        vocab.ensure_nulls(null_horizon);
        let n_facts = c.take_u32()? as usize;
        let mut store_rels = Vec::with_capacity(n_facts.min(1 << 20));
        for _ in 0..n_facts {
            match rels.get(c.take_u32()? as usize) {
                Some(Ok(r)) => store_rels.push(*r),
                Some(Err(name)) => return Err(reserved_fact(name)),
                None => return Err("dangling relation id".into()),
            }
        }
        let mut store_starts = Vec::with_capacity((n_facts + 1).min(1 << 20));
        for _ in 0..n_facts + 1 {
            store_starts.push(c.take_u32()?);
        }
        let n_terms = c.take_u32()? as usize;
        let mut store_arena = Vec::with_capacity(n_terms.min(1 << 20));
        for _ in 0..n_terms {
            store_arena.push(match (c.take_u8()?, c.take_u32()?) {
                (0, id) => Term::Const(*consts.get(id as usize).ok_or("dangling constant id")?),
                (1, id) if id < null_horizon => Term::Null(NullId(id)),
                (1, _) => return Err("dangling null id".into()),
                (t, _) => return Err(format!("unknown term tag {t}")),
            });
        }
        let facts = FactStore::from_columns(store_rels, store_starts, store_arena)?;
        let n_marks = c.take_u32()? as usize;
        let mut marks = HashMap::with_capacity(n_marks.min(1 << 20));
        for _ in 0..n_marks {
            let id = c.take_u64()?;
            let len = c.take_u64()?;
            if len > facts.len() as u64 {
                return Err("mark past the end of the store".into());
            }
            marks.insert(id, len as usize);
        }
        if !c.done() {
            return Err("trailing bytes".into());
        }
        Ok(Snapshot {
            last_lsn,
            epoch,
            store: SessionStore {
                facts: Arc::new(IndexedInstance::from_store(facts)),
                marks,
                next_mark,
            },
        })
    };
    decode().map_err(corrupt)
}

/// Whether no id occurs twice: two dumped names interning to one id
/// means the dump repeated a name.
fn all_distinct<T: Copy + Eq + std::hash::Hash>(ids: &[T]) -> bool {
    let mut seen = std::collections::HashSet::with_capacity(ids.len());
    ids.iter().all(|id| seen.insert(*id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use gomq_core::parse::parse_instance;

    fn assert_text(session: &mut DurableSession, vocab: &mut Vocab, text: &str) -> MutationInfo {
        let d = parse_instance(text, vocab).unwrap();
        let facts: Vec<Fact> = d.iter().map(|f| f.to_fact()).collect();
        let syms: Vec<SymFact> = facts
            .iter()
            .map(|f| sym_fact(vocab, f.rel, &f.args))
            .collect();
        session.assert(syms, &facts).unwrap()
    }

    fn store_shape(s: &DurableSession, vocab: &Vocab) -> Vec<String> {
        s.clone_store()
            .iter()
            .map(|f| format!("{}", f.display(vocab)))
            .collect()
    }

    #[test]
    fn mutations_survive_reopen() {
        let dir = ScratchDir::new("session-reopen");
        let shape_before;
        {
            let mut vocab = Vocab::new();
            let (mut s, info) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            assert_eq!(info.replayed_records, 0);
            let i1 = assert_text(&mut s, &mut vocab, "R(a,b)\nS(c)\n");
            assert_eq!(i1.added, 2);
            let (m, _) = s.mark().unwrap();
            assert_text(&mut s, &mut vocab, "S(doomed)\n");
            s.rollback(m).unwrap();
            assert_text(&mut s, &mut vocab, "R(b,c)\n");
            assert_eq!(s.len(), 3);
            shape_before = store_shape(&s, &vocab);
        }
        let mut vocab = Vocab::new();
        let (s, info) = DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
        assert_eq!(info.replayed_records, 5);
        assert_eq!(info.replayed_facts, 3 + 1); // doomed counts, then rolls back
        assert_eq!(s.len(), 3);
        assert_eq!(store_shape(&s, &vocab), shape_before);
    }

    #[test]
    fn snapshot_plus_tail_replay() {
        let dir = ScratchDir::new("session-snaptail");
        let shape_before;
        {
            let mut vocab = Vocab::new();
            let (mut s, _) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            assert_text(&mut s, &mut vocab, "R(a,b)\nR(b,c)\n");
            s.snapshot_now(&vocab).unwrap();
            // Mutations after the snapshot live only in the WAL.
            assert_text(&mut s, &mut vocab, "S(d)\n");
            shape_before = store_shape(&s, &vocab);
        }
        let mut vocab = Vocab::new();
        let (s, info) = DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
        assert_eq!(info.snapshot_facts, 2);
        assert_eq!(info.replayed_records, 1);
        assert_eq!(s.len(), 3);
        assert_eq!(store_shape(&s, &vocab), shape_before);
    }

    #[test]
    fn snapshot_due_follows_policy() {
        let dir = ScratchDir::new("session-due");
        let mut vocab = Vocab::new();
        let opts = PersistOptions {
            fsync: false,
            snapshot_every: 2,
        };
        let (mut s, _) = DurableSession::open(&dir, opts, &mut vocab).unwrap();
        assert!(!s.snapshot_due());
        assert_text(&mut s, &mut vocab, "R(a,b)\n");
        assert!(!s.snapshot_due());
        assert_text(&mut s, &mut vocab, "R(b,c)\n");
        assert!(s.snapshot_due());
        s.snapshot_now(&vocab).unwrap();
        assert!(!s.snapshot_due());
        // The WAL was truncated; reopening relies on the snapshot alone.
        let mut vocab2 = Vocab::new();
        let (s2, info) = DurableSession::open(&dir, opts, &mut vocab2).unwrap();
        assert_eq!(info.snapshot_facts, 2);
        assert_eq!(info.replayed_records, 0);
        assert_eq!(s2.len(), 2);
    }

    #[test]
    fn unknown_mark_is_rejected_without_journaling() {
        let dir = ScratchDir::new("session-badmark");
        let mut vocab = Vocab::new();
        let (mut s, _) = DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
        assert!(matches!(s.rollback(42), Err(SessionError::UnknownMark(42))));
        // Nothing was journaled: reopening replays zero records.
        drop(s);
        let mut vocab2 = Vocab::new();
        let (_, info) = DurableSession::open(&dir, PersistOptions::default(), &mut vocab2).unwrap();
        assert_eq!(info.replayed_records, 0);
    }

    #[test]
    fn rollback_invalidates_later_marks() {
        let mut s = DurableSession::in_memory();
        let mut vocab = Vocab::new();
        assert_text(&mut s, &mut vocab, "R(a,b)\n");
        let (m1, _) = s.mark().unwrap();
        assert_text(&mut s, &mut vocab, "R(b,c)\n");
        let (m2, _) = s.mark().unwrap();
        s.rollback(m1).unwrap();
        assert_eq!(s.len(), 1);
        // m2 pointed past the restored length and is gone; m1 survives.
        let err = s.rollback(m2).unwrap_err();
        assert_eq!(err, SessionError::UnknownMark(m2));
        s.rollback(m1).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn corrupt_snapshot_is_reported() {
        let dir = ScratchDir::new("session-corruptsnap");
        let mut vocab = Vocab::new();
        {
            let (mut s, _) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            assert_text(&mut s, &mut vocab, "R(a,b)\n");
            s.snapshot_now(&vocab).unwrap();
        }
        let snap = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&snap, &bytes).unwrap();
        let mut vocab2 = Vocab::new();
        let Err(err) = DurableSession::open(&dir, PersistOptions::default(), &mut vocab2) else {
            panic!("corrupt snapshot was accepted");
        };
        assert!(matches!(err, SessionError::Corrupt(_)), "{err}");
    }

    #[test]
    fn nulls_round_trip_through_log_and_snapshot() {
        let dir = ScratchDir::new("session-nulls");
        {
            let mut vocab = Vocab::new();
            let (mut s, _) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            let r = vocab.rel("R", 2);
            let a = Term::Const(vocab.constant("açai ☂"));
            let n = Term::Null(vocab.fresh_null());
            let f = Fact::new(r, vec![a, n]);
            let syms = vec![sym_fact(&vocab, f.rel, &f.args)];
            s.assert(syms, std::slice::from_ref(&f)).unwrap();
            s.snapshot_now(&vocab).unwrap();
        }
        let mut vocab = Vocab::new();
        let (s, _) = DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(vocab.null_count(), 1);
        let store = s.clone_store();
        let f = store.iter().next().unwrap();
        assert!(matches!(f.args[1], Term::Null(NullId(0))));
        assert_eq!(format!("{}", f.args[0].display(&vocab)), "açai ☂");
    }

    use gomq_datalog::{DAtom, Literal, Rule};

    /// `B(x) ← A(x)` — the smallest program a view can maintain.
    fn b_from_a(v: &mut Vocab) -> (Arc<[Rule]>, RelId) {
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        (
            Arc::new([Rule::new(
                DAtom::vars(b, &[0]),
                vec![Literal::Pos(DAtom::vars(a, &[0]))],
            )]),
            b,
        )
    }

    #[test]
    fn shared_store_snapshot_is_isolated_from_mutations() {
        let mut s = DurableSession::in_memory();
        let mut vocab = Vocab::new();
        assert_text(&mut s, &mut vocab, "R(a,b)\n");
        let snap = s.share_store();
        assert_text(&mut s, &mut vocab, "R(b,c)\n");
        assert_eq!(snap.len(), 1, "the snapshot is immutable");
        assert_eq!(s.len(), 2);
        assert_eq!(s.share_store().len(), 2, "fresh snapshots see the write");
    }

    #[test]
    fn view_registry_lru_caps_and_epoch_blocks_stale_reinsertion() {
        let mut s = DurableSession::in_memory();
        let mut vocab = Vocab::new();
        let (rules, goal) = b_from_a(&mut vocab);
        assert_text(&mut s, &mut vocab, "A(x)\n");
        let (m, _) = s.mark().unwrap();
        let (view, _) =
            Materialization::build(&rules, goal, &s.share_store(), &Budget::UNLIMITED).unwrap();
        // LRU: capacity 2, three inserts, the untouched one is evicted.
        s.set_view_capacity(2);
        let epoch = s.views().epoch();
        assert!(s.views_mut().put(1, view.clone(), epoch));
        assert!(s.views_mut().put(2, view.clone(), epoch));
        let _ = s.views_mut().take(1); // touch 1 so 2 becomes LRU
        assert!(s.views_mut().put(1, view.clone(), epoch));
        assert!(s.views_mut().put(3, view.clone(), epoch));
        assert_eq!(s.views().len(), 2);
        assert_eq!(s.views().evicted(), 1);
        assert!(s.views_mut().take(2).is_none(), "2 was the LRU victim");
        // Epoch: a view checked out across a rollback is refused — and
        // the refusal counts as a drop, so the cumulative eviction
        // total never understates how many views actually died.
        let out = s.views_mut().take(1).unwrap();
        s.rollback(m).unwrap();
        assert!(!s.views_mut().put(1, out, epoch));
        assert!(s.views_mut().take(1).is_none());
        assert_eq!(s.views().evicted(), 2, "stale-epoch drop is counted");
        // Capacity 0 disables the registry outright; the view it still
        // held is a counted drop, as is a put against the disabled
        // registry.
        s.set_view_capacity(0);
        let epoch = s.views().epoch();
        assert_eq!(s.views().evicted(), 3, "capacity-0 clear is counted");
        assert!(!s.views_mut().put(9, view, epoch));
        assert!(s.views().is_empty());
        assert_eq!(s.views().evicted(), 4, "disabled-registry put is counted");
        // External drops (failed syncs, recording rebuilds) are noted
        // through the same counter.
        s.views_mut().note_dropped(1);
        assert_eq!(s.views().evicted(), 5);
    }

    #[test]
    fn session_rollback_maintains_registered_views() {
        let mut s = DurableSession::in_memory();
        let mut vocab = Vocab::new();
        let (rules, goal) = b_from_a(&mut vocab);
        assert_text(&mut s, &mut vocab, "A(keep)\n");
        let (m, _) = s.mark().unwrap();
        assert_text(&mut s, &mut vocab, "A(doomed)\n");
        let (view, _) =
            Materialization::build(&rules, goal, &s.share_store(), &Budget::UNLIMITED).unwrap();
        assert_eq!(view.answers().len(), 2);
        let epoch = s.views().epoch();
        assert!(s.views_mut().put(1, view, epoch));
        let maint = s.rollback(m).unwrap().views;
        assert!(maint.deleted > 0, "DRed must retract doomed consequences");
        assert_eq!(maint.over_budget + maint.panicked, 0);
        // The rollback already maintained the view: a further pass over
        // the same prefix finds nothing to do.
        let again = s.maintain_views_rollback(s.len(), &Budget::UNLIMITED);
        assert_eq!((again.deleted, again.rederived), (0, 0));
        let view = s.views_mut().take(1).expect("the view survived");
        let keep = Term::Const(vocab.constant("keep"));
        assert_eq!(view.answers(), [vec![keep]].into_iter().collect());
    }

    #[test]
    fn failed_rollback_maintenance_counts_the_dropped_view() {
        let mut s = DurableSession::in_memory();
        let mut vocab = Vocab::new();
        let (rules, goal) = b_from_a(&mut vocab);
        assert_text(&mut s, &mut vocab, "A(keep)\n");
        let (m, _) = s.mark().unwrap();
        assert_text(&mut s, &mut vocab, "A(doomed)\n");
        let (view, _) =
            Materialization::build(&rules, goal, &s.share_store(), &Budget::UNLIMITED).unwrap();
        let epoch = s.views().epoch();
        assert!(s.views_mut().put(1, view, epoch));
        // A zero-round limit makes the rollback's DRed pass fail: the
        // view must be dropped *and* the drop must land in the eviction
        // total.
        s.set_limits(Limits {
            max_rounds: Some(0),
            ..Limits::default()
        });
        let before = s.views().evicted();
        let maint = s.rollback(m).unwrap().views;
        assert_eq!(maint.over_budget, 1);
        assert!(s.views().is_empty(), "the failed view was dropped");
        assert_eq!(s.views().evicted(), before + 1, "the drop is counted");
    }

    #[test]
    fn epoch_survives_replay_and_snapshot() {
        let dir = ScratchDir::new("session-epoch");
        {
            let mut vocab = Vocab::new();
            let (mut s, _) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            assert_eq!(s.repl_epoch(), 0);
            assert_text(&mut s, &mut vocab, "R(a,b)\n");
            s.stamp_epoch(3).unwrap();
            assert_eq!(s.repl_epoch(), 3);
        }
        // WAL replay rebuilds the epoch.
        {
            let mut vocab = Vocab::new();
            let (mut s, _) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            assert_eq!(s.repl_epoch(), 3);
            // A snapshot carries the epoch even after the log rotates.
            let vocab_now = vocab.clone();
            s.snapshot_now(&vocab_now).unwrap();
        }
        {
            let mut vocab = Vocab::new();
            let (s, info) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            assert_eq!(info.replayed_records, 0, "snapshot covers the log");
            assert_eq!(s.repl_epoch(), 3);
        }
    }

    #[test]
    fn observe_epoch_is_in_memory_until_stamped() {
        let dir = ScratchDir::new("session-observe");
        {
            let mut vocab = Vocab::new();
            let (mut s, _) =
                DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
            s.observe_epoch(7);
            assert_eq!(s.repl_epoch(), 7);
            s.observe_epoch(5);
            assert_eq!(s.repl_epoch(), 7, "observation is monotone");
        }
        let mut vocab = Vocab::new();
        let (s, _) = DurableSession::open(&dir, PersistOptions::default(), &mut vocab).unwrap();
        assert_eq!(s.repl_epoch(), 0, "an observed epoch is not journaled");
    }

    #[test]
    fn apply_replicated_roundtrips_duplicates_and_gaps() {
        let primary_dir = ScratchDir::new("session-repl-primary");
        let replica_dir = ScratchDir::new("session-repl-replica");
        // The primary journals mutations and we capture the exact
        // frames its publisher would ship.
        struct Captured(std::sync::Mutex<Vec<(u64, Vec<u8>)>>);
        impl RecordSink for Captured {
            fn publish(&self, lsn: u64, frame: Vec<u8>) {
                self.0.lock().unwrap().push((lsn, frame));
            }
        }
        let sink = Arc::new(Captured(std::sync::Mutex::new(Vec::new())));
        let mut primary_vocab = Vocab::new();
        let (mut primary, _) =
            DurableSession::open(&primary_dir, PersistOptions::default(), &mut primary_vocab)
                .unwrap();
        primary.set_publisher(Arc::clone(&sink) as Arc<dyn RecordSink>);
        assert_text(&mut primary, &mut primary_vocab, "R(a,b)\nS(c)\n");
        let (mark, _) = primary.mark().unwrap();
        assert_text(&mut primary, &mut primary_vocab, "S(doomed)\n");
        primary.rollback(mark).unwrap();
        let frames = sink.0.lock().unwrap().clone();
        assert_eq!(frames.len(), 4, "assert, mark, assert, rollback");

        // A replica applies the shipped frames and converges to the
        // same store and position.
        let mut replica_vocab = Vocab::new();
        let (mut replica, _) =
            DurableSession::open(&replica_dir, PersistOptions::default(), &mut replica_vocab)
                .unwrap();
        let mut apply = |replica: &mut DurableSession, lsn: u64, record: &WalRecord| {
            let facts = resolve_record(&mut replica_vocab, record).unwrap();
            replica.apply_replicated(lsn, record, &facts)
        };
        for (lsn, frame) in &frames {
            let (flsn, record, _) = WalRecord::decode_frame(frame).unwrap();
            assert_eq!(flsn, *lsn);
            assert!(apply(&mut replica, *lsn, &record).unwrap().is_some());
        }
        // A duplicate (re-shipped after reconnect) is a no-op.
        let (lsn, record, _) = WalRecord::decode_frame(&frames[0].1).unwrap();
        assert!(apply(&mut replica, lsn, &record).unwrap().is_none());
        assert_eq!(replica.position(), primary.position());
        // A gap (skipped lsn) is refused as a typed gap, not silently
        // applied out of order.
        let expected = replica.position().0 + 1;
        let next = expected + 4;
        match apply(&mut replica, next, &record) {
            Err(SessionError::Gap { expected: e, got }) => assert_eq!((e, got), (expected, next)),
            other => panic!("gap must be SessionError::Gap, got {other:?}"),
        }
        assert_eq!(
            store_shape(&replica, &replica_vocab),
            store_shape(&primary, &primary_vocab)
        );
    }

    #[test]
    fn shipped_snapshot_bootstraps_a_replica() {
        let primary_dir = ScratchDir::new("session-snapship-primary");
        let replica_dir = ScratchDir::new("session-snapship-replica");
        let mut vocab = Vocab::new();
        let (mut primary, _) =
            DurableSession::open(&primary_dir, PersistOptions::default(), &mut vocab).unwrap();
        assert_text(&mut primary, &mut vocab, "R(a,b)\nS(c)\n");
        primary.stamp_epoch(2).unwrap();
        let image = primary.encode_current_snapshot(&vocab);
        // Install the image the way a follower's first connection from
        // an empty data directory does.
        let mut replica_vocab = Vocab::new();
        let (mut replica, _) =
            DurableSession::open(&replica_dir, PersistOptions::default(), &mut replica_vocab)
                .unwrap();
        assert_eq!(
            replica.install_replicated_snapshot(&image, &mut replica_vocab),
            Ok((primary.position().0, 2)),
            "the installed position must agree with the primary's"
        );
        assert_eq!(replica.position().0, primary.position().0);
        assert_eq!(replica.repl_epoch(), 2);
        assert_eq!(
            store_shape(&replica, &replica_vocab),
            store_shape(&primary, &vocab)
        );
        // A restart recovers the installed image from disk.
        drop(replica);
        let mut fresh_vocab = Vocab::new();
        let (recovered, info) =
            DurableSession::open(&replica_dir, PersistOptions::default(), &mut fresh_vocab)
                .unwrap();
        assert_eq!(info.snapshot_facts, 2);
        assert_eq!(recovered.position().0, primary.position().0);
        assert_eq!(recovered.repl_epoch(), 2);
        assert_eq!(
            store_shape(&recovered, &fresh_vocab),
            store_shape(&primary, &vocab)
        );
    }

    /// A fact in [`image`]: relation id and `(term tag, id)` arguments.
    type RawFact<'a> = (u32, &'a [(u8, u32)]);

    /// Builds a checksummed GOMQSNAP image from raw parts (lsn 7, epoch
    /// 4 when the version carries one, next mark 9, null horizon 1).
    fn image(
        version: u32,
        consts: &[&str],
        rels: &[(&str, u32)],
        facts: &[RawFact<'_>],
        marks: &[(u64, u64)],
    ) -> Vec<u8> {
        let mut b = SNAP_MAGIC.to_vec();
        put_u32(&mut b, version);
        put_u64(&mut b, 7);
        if version >= 2 {
            put_u64(&mut b, 4);
        }
        put_u64(&mut b, 9);
        put_u32(&mut b, 1);
        put_u32(&mut b, consts.len() as u32);
        for c in consts {
            put_str(&mut b, c);
        }
        put_u32(&mut b, rels.len() as u32);
        for (name, arity) in rels {
            put_str(&mut b, name);
            put_u32(&mut b, *arity);
        }
        put_u32(&mut b, facts.len() as u32);
        for (rel, _) in facts {
            put_u32(&mut b, *rel);
        }
        let mut end = 0;
        put_u32(&mut b, end);
        for (_, args) in facts {
            end += args.len() as u32;
            put_u32(&mut b, end);
        }
        put_u32(&mut b, end);
        for (tag, id) in facts.iter().flat_map(|(_, args)| args.iter()) {
            b.push(*tag);
            put_u32(&mut b, *id);
        }
        put_u32(&mut b, marks.len() as u32);
        for (id, len) in marks {
            put_u64(&mut b, *id);
            put_u64(&mut b, *len);
        }
        let sum = fnv1a(&b);
        put_u64(&mut b, sum);
        b
    }

    #[test]
    fn snapshot_decoder_checks_every_image() {
        let fact: RawFact<'_> = (0, &[(0, 1), (1, 0)]); // R(b, null 0)
        let good = |version| image(version, &["a", "b"], &[("R", 2)], &[fact], &[(3, 1)]);
        // Versions 1 and 2 decode; a version-1 image reads as epoch 0.
        for (version, epoch) in [(1, 0), (2, 4)] {
            let snap = decode_snapshot(&good(version), &mut Vocab::new()).unwrap();
            assert_eq!((snap.last_lsn, snap.epoch), (7, epoch));
            assert_eq!((snap.store.facts.len(), snap.store.next_mark), (1, 9));
            assert_eq!(snap.store.marks, HashMap::from([(3, 1)]));
        }
        // A live vocabulary gets the dumped names remapped onto its ids.
        let mut live = Vocab::new();
        live.constant("b");
        live.rel("Q", 1);
        let snap = decode_snapshot(&good(2), &mut live).unwrap();
        let f = snap.store.facts.iter().next().unwrap();
        assert_eq!(live.rel_name(f.rel), "R");
        assert_eq!(f.args[0], Term::Const(live.find_constant("b").unwrap()));
        assert_eq!(f.args[1], Term::Null(NullId(0)));
        assert_eq!(live.null_count(), 1);

        let refused = |bytes: Vec<u8>| match decode_snapshot(&bytes, &mut Vocab::new()) {
            Err(SessionError::Corrupt(msg)) => msg,
            Err(e) => panic!("expected corruption, got {e}"),
            Ok(_) => panic!("a corrupt image was accepted"),
        };
        let mut flipped = good(2);
        flipped[20] ^= 0xff;
        let cases = [
            (flipped, "checksum mismatch"),
            (image(3, &[], &[], &[], &[]), "unsupported version 3"),
            (
                image(2, &["a", "a"], &[("R", 2)], &[], &[]),
                "duplicate constant",
            ),
            (
                image(2, &["a"], &[("R", 2), ("R", 2)], &[], &[]),
                "duplicate relation",
            ),
            (
                image(2, &["a"], &[("R", 2), ("R", 1)], &[], &[]),
                "dumped with arity 1",
            ),
            (
                image(2, &["a"], &[("R", 1)], &[(0, &[(0, 5)])], &[]),
                "dangling constant id",
            ),
            (
                image(2, &["a"], &[("R", 1)], &[(3, &[(0, 0)])], &[]),
                "dangling relation id",
            ),
            (
                image(2, &["a"], &[("R", 1)], &[(0, &[(1, 1)])], &[]),
                "dangling null id",
            ),
            (
                image(2, &["a"], &[("R", 1)], &[(0, &[(0, 0)])], &[(0, 2)]),
                "mark past the end of the store",
            ),
        ];
        for (bytes, why) in cases {
            let msg = refused(bytes);
            assert!(msg.contains(why), "{msg} should name {why}");
        }
    }

    /// Data directories written before the `_` namespace was reserved:
    /// the per-plan IDB names their snapshots dump are shed on decode
    /// (at any arity), and a stored fact over a reserved name — a
    /// snapshot fact, a journaled assert or a replicated one — refuses
    /// as corrupt instead of reaching a derived relation.
    #[test]
    fn reserved_names_in_old_data_dirs() {
        let fact: RawFact<'_> = (0, &[(0, 0), (0, 0)]); // R(a, a)
        let dump = [("R", 2), ("_goal", 2), ("_elim0_1", 1)];
        let mut vocab = Vocab::new();
        let snap = decode_snapshot(&image(2, &["a"], &dump, &[fact], &[]), &mut vocab).unwrap();
        assert_eq!(snap.store.facts.len(), 1);
        assert_eq!(vocab.rel_count(), 1, "only R is interned");
        vocab.rel("_goal", 1); // the rewriting's arity, free to take
        let smuggled: RawFact<'_> = (1, &[(0, 0), (0, 0)]); // _goal(a, a)
        let err = decode_snapshot(
            &image(2, &["a"], &dump, &[smuggled], &[]),
            &mut Vocab::new(),
        )
        .err()
        .expect("a fact over _goal is refused");
        assert!(
            err.to_string()
                .contains("stored fact: relation name `_goal` is reserved"),
            "{err}"
        );

        // A log holding `_goal(eve)`, as an older server journaled it.
        let dir = ScratchDir::new("session-reserved-wal");
        let goal = SymFact {
            rel: "_goal".into(),
            args: vec![SymTerm::Const("eve".into())],
        };
        {
            let mut old = Vocab::new();
            let (mut s, _) =
                DurableSession::open(&dir, PersistOptions::default(), &mut old).unwrap();
            let eve = Term::Const(old.constant("eve"));
            let fact = Fact::new(old.rel("_goal", 1), vec![eve]);
            s.assert(vec![goal.clone()], &[fact]).unwrap();
        }
        let err = DurableSession::open(&dir, PersistOptions::default(), &mut Vocab::new())
            .err()
            .expect("replaying _goal(eve) is refused");
        assert!(matches!(err, SessionError::Corrupt(_)), "{err}");
        assert!(
            err.to_string()
                .contains("stored fact: relation name `_goal` is reserved"),
            "{err}"
        );

        // A replica refuses the record before journaling it: resolving
        // its names fails, so it never reaches `apply_replicated`.
        let replica_dir = ScratchDir::new("session-reserved-replica");
        let mut rv = Vocab::new();
        let (replica, _) =
            DurableSession::open(&replica_dir, PersistOptions::default(), &mut rv).unwrap();
        let before = replica.position();
        let err = resolve_record(&mut rv, &WalRecord::Assert(vec![goal])).unwrap_err();
        assert!(
            err.to_string()
                .contains("stored fact: relation name `_goal` is reserved"),
            "{err}"
        );
        assert_eq!(replica.position(), before);
        assert!(rv.find_rel("_goal").is_none());
    }

    #[test]
    fn live_snapshot_install_remaps_a_polluted_vocab() {
        let primary_dir = ScratchDir::new("session-snapinstall-primary");
        let replica_dir = ScratchDir::new("session-snapinstall-replica");
        let mut vocab = Vocab::new();
        let (mut primary, _) =
            DurableSession::open(&primary_dir, PersistOptions::default(), &mut vocab).unwrap();
        assert_text(&mut primary, &mut vocab, "R(a,b)\nS(c)\n");
        primary.stamp_epoch(3).unwrap();
        let image = primary.encode_current_snapshot(&vocab);

        // A live replica whose vocabulary interned extra names before
        // the install (queries do this), so the dump's dense ids do not
        // line up with the live ids and must be remapped by name.
        let mut replica_vocab = Vocab::new();
        replica_vocab.constant("zebra");
        replica_vocab.rel("Query", 1);
        let (mut replica, _) =
            DurableSession::open(&replica_dir, PersistOptions::default(), &mut replica_vocab)
                .unwrap();
        assert_text(&mut replica, &mut replica_vocab, "Stale(x)\n");
        replica.snapshot_now(&replica_vocab).unwrap();
        assert_text(&mut replica, &mut replica_vocab, "Stale(y)\n");
        assert!(replica_dir.join("wal.old").exists());

        let (lsn, epoch) = replica
            .install_replicated_snapshot(&image, &mut replica_vocab)
            .unwrap();
        assert_eq!((lsn, epoch), (primary.position().0, 3));
        assert_eq!(replica.position(), primary.position());
        assert_eq!(replica.repl_epoch(), 3);
        assert_eq!(
            store_shape(&replica, &replica_vocab),
            store_shape(&primary, &vocab)
        );
        // The installed state is durable: a fresh open recovers it with
        // an empty journal (the stale pre-install log is gone).
        drop(replica);
        let mut fresh_vocab = Vocab::new();
        let (recovered, info) =
            DurableSession::open(&replica_dir, PersistOptions::default(), &mut fresh_vocab)
                .unwrap();
        assert_eq!(
            info.replayed_records, 0,
            "journal must be empty after install"
        );
        assert!(
            !replica_dir.join("wal.old").exists(),
            "the replaced history's sealed segment must be gone"
        );
        assert_eq!(recovered.position(), primary.position());
        assert_eq!(
            store_shape(&recovered, &fresh_vocab),
            store_shape(&primary, &vocab)
        );
    }
}
