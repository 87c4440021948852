//! Engine and per-request statistics.
//!
//! Every cumulative counter is declared once, in [`Counter`]: its wire
//! name, its position in the `{"op": "stats"}` object (declaration order
//! is protocol order; new counters only ever append) and its meaning.
//! The engine stores the table as atomics; [`EngineStats`] is one
//! snapshot of it, and the stats op, the `gomq-serve` exit summary and
//! the tests all read it by iterating [`Counter::ALL`].

use gomq_core::StoreStats;
use std::fmt;
use std::time::Duration;

/// Statistics of one served request (one OMQ evaluated against one
/// ABox, or one batch of ABoxes).
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestStats {
    /// Whether the plan came out of the cache.
    pub cache_hit: bool,
    /// Wall time spent compiling the plan (zero on a cache hit).
    pub compile: Duration,
    /// Wall time spent evaluating the Datalog≠ program.
    pub eval: Duration,
    /// Fixpoint rounds across all strata (summed over a batch).
    pub rounds: usize,
    /// IDB facts derived beyond the ABox (summed over a batch).
    pub derived: usize,
    /// Number of answer tuples (summed over a batch).
    pub answers: usize,
    /// Storage pressure of the request's fact store(s): facts interned,
    /// arena terms, dedup hits (summed over a batch).
    pub store: StoreStats,
    /// Whether a session query was answered from a maintained
    /// materialization that existed before the request (incremental
    /// sync instead of a from-scratch fixpoint).
    pub maintained: bool,
    /// Facts overcount-deleted by incremental view maintenance.
    pub ivm_deleted: usize,
    /// Facts rederived (revived) by incremental view maintenance.
    pub ivm_rederived: usize,
    /// Size in bytes of the derivation certificate attached to the
    /// response (0 when the request did not ask for one).
    pub cert_bytes: usize,
}

/// Declares [`Counter`] from `Variant = "wire_name"` entries, each with
/// its doc line.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $variant:ident = $name:literal,)+) => {
        /// One cumulative counter or gauge of a serving process.
        ///
        /// Declaration order is the key order of the stats op's
        /// `"engine"` object; new counters only ever append.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $($(#[doc = $doc])+ $variant,)+
        }

        impl Counter {
            /// Every counter, in protocol order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant),+];
            /// The number of counters.
            pub const COUNT: usize = Counter::ALL.len();

            /// The counter's key in the stats op's `"engine"` object.
            pub fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)+
                }
            }
        }
    };
}

counters! {
    /// Requests served (each [`crate::Engine::answer`] call, and each
    /// session query answered from a maintained view, counts once).
    Requests = "requests",
    /// Plan-cache hits (read from the [`crate::PlanCache`]).
    CacheHits = "cache_hits",
    /// Plan-cache misses, i.e. compilations attempted (read from the
    /// cache).
    CacheMisses = "cache_misses",
    /// Plans currently resident in the cache (gauge, read from the
    /// cache).
    CacheSize = "cache_size",
    /// Plans evicted from the cache to honour its capacity bound (read
    /// from the cache).
    CacheEvictions = "evictions",
    /// Lookups that blocked on another thread's in-flight compilation of
    /// the same OMQ (single flight; read from the cache).
    InflightWaits = "inflight_waits",
    /// Requests aborted because their resource budget (rounds, derived
    /// facts or deadline) ran out, at admission or mid-evaluation.
    Overloaded = "overloaded",
    /// Panics caught and isolated by the serving layer.
    Panics = "panics",
    /// Facts interned across all evaluation stores.
    FactsInterned = "facts_interned",
    /// Bytes of fact-argument arena across all evaluation stores.
    ArenaBytes = "arena_bytes",
    /// Candidate derivations answered by an existing fact (dedup hits)
    /// across all evaluation stores.
    DedupHits = "dedup_hits",
    /// Session mutations journaled to the write-ahead log.
    WalRecords = "wal_records",
    /// Frame bytes appended to the write-ahead log.
    WalBytes = "wal_bytes",
    /// Snapshots written (each truncates the WAL).
    Snapshots = "snapshots",
    /// WAL records replayed during recovery at startup.
    RecoveredRecords = "recovered_records",
    /// Facts rebuilt from the snapshot plus WAL replay at startup.
    RecoveredFacts = "recovered_facts",
    /// Facts in the session store (gauge, read from the session).
    SessionFacts = "session_facts",
    /// Requests refused because their plan's circuit breaker was open.
    Quarantined = "quarantined",
    /// Circuit breakers tripped (plans newly quarantined).
    BreakerTrips = "breaker_trips",
    /// Faults injected by the chaos layer (read from
    /// `gomq_core::faults`; 0 unless a fault plan is installed).
    FaultsInjected = "faults_injected",
    /// TCP connections accepted by the network front end.
    ConnsAccepted = "conns_accepted",
    /// TCP connections refused at accept time (global or per-IP
    /// connection cap reached).
    ConnsRefused = "conns_refused",
    /// TCP connections currently open (gauge).
    ConnsActive = "conns_active",
    /// Worker-pool jobs currently queued or executing (gauge).
    QueueDepth = "queue_depth",
    /// Requests refused with `"limit": "queue"` because the worker
    /// pool's backpressure queue was full.
    QueueRejects = "queue_rejects",
    /// Graceful drains initiated (SIGTERM, shutdown token, or stdin EOF
    /// finalization).
    Drains = "drains",
    /// Session queries answered from a maintained materialization that
    /// existed before the request (served in O(changed facts)).
    IvmMaintainedHits = "ivm_maintained_hits",
    /// Facts overcount-deleted by view maintenance (DRed delete phase),
    /// across query syncs and rollback maintenance.
    IvmDeleted = "ivm_deleted",
    /// Facts rederived by view maintenance (DRed rederive phase plus
    /// re-asserted revivals).
    IvmRederived = "ivm_rederived",
    /// Maintained views currently registered (gauge, read from the
    /// session's view registry).
    ViewsActive = "views_active",
    /// Views dropped for any reason: the registry's LRU capacity bound,
    /// a stale-epoch re-registration refused after a rollback, failed
    /// maintenance (blown budget or panic), a capacity change, or a
    /// rebuild with derivation recording (read from the registry).
    ViewsEvicted = "views_evicted",
    /// Responses that carried a derivation certificate.
    CertsEmitted = "certs_emitted",
    /// Total certificate bytes emitted.
    CertBytes = "cert_bytes",
    /// WAL record frames shipped to replicas (primary side).
    ReplFramesShipped = "repl_frames_shipped",
    /// Bytes shipped to replicas (record frames plus snapshots).
    ReplBytesShipped = "repl_bytes_shipped",
    /// Bootstrap snapshots shipped to replicas.
    ReplSnapshotsShipped = "repl_snapshots_shipped",
    /// Replicated WAL records applied locally (follower side; duplicates
    /// re-shipped after a reconnect are not counted).
    ReplRecordsApplied = "repl_records_applied",
    /// Record-frame bytes received and applied (follower side).
    ReplBytesApplied = "repl_bytes_applied",
    /// Follower reconnect attempts after a dropped primary connection.
    ReplReconnects = "repl_reconnects",
    /// Promotions to primary (operator `promote` op or
    /// `--promote-on-disconnect`).
    ReplPromotions = "repl_promotions",
    /// Writes refused because this node is a follower (`"read-only"`) or
    /// a fenced ex-primary (`"fenced"`).
    ReplWriteRefusals = "repl_write_refusals",
    /// Replica reads refused because the lsn lag exceeded
    /// `--max-staleness-lsn` (`"stale"`).
    ReplStaleRefusals = "repl_stale_refusals",
    /// Lsn lag behind the primary at the last applied record or
    /// heartbeat (gauge, follower side; 0 on a primary).
    ReplLagLsn = "repl_lag_lsn",
    /// Fixpoint (or kernel) rounds across all evaluations.
    Rounds = "rounds",
    /// IDB facts derived across all evaluations.
    Derived = "derived",
    /// Answer tuples produced across all evaluations.
    Answers = "answers",
    /// Total wall time in plan lookup and compilation, in nanoseconds.
    CompileNs = "compile_ns",
    /// Total wall time in evaluation, in nanoseconds.
    EvalNs = "eval_ns",
    /// Relation symbols interned in the serving vocabulary (gauge, read
    /// from the vocabulary). Compiling a plan adds only the rewriting's
    /// fixed IDB names it has not met before, so the gauge stays flat
    /// once the OMQs in use have been compiled.
    VocabRelations = "vocab_relations",
}

/// A snapshot of every [`Counter`], indexed by counter. Renders (via
/// `Display`) as the JSON object `{"requests": 1, "cache_hits": 0, ...}`
/// in protocol order; `Debug` prints the same object.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct EngineStats(pub(crate) [u64; Counter::COUNT]);

impl std::ops::Index<Counter> for EngineStats {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<Counter> for EngineStats {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}\"{}\": {}", c.name(), self[c])?;
        }
        f.write_str("}")
    }
}

impl fmt::Debug for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A duration as a counter increment: whole nanoseconds, saturating.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;

    #[test]
    fn absorb_saturates_instead_of_overflowing() {
        let engine = Engine::with_threads(1);
        for c in [
            Counter::Requests,
            Counter::Derived,
            Counter::Answers,
            Counter::FactsInterned,
            Counter::ArenaBytes,
            Counter::DedupHits,
            Counter::IvmMaintainedHits,
            Counter::IvmDeleted,
            Counter::IvmRederived,
            Counter::CertsEmitted,
            Counter::CertBytes,
        ] {
            engine.set(c, u64::MAX);
        }
        engine.set(Counter::Rounds, u64::MAX - 1);
        let r = RequestStats {
            rounds: 7,
            derived: 7,
            answers: 7,
            store: StoreStats {
                facts: 7,
                arena_terms: 7,
                dedup_hits: 7,
            },
            maintained: true,
            ivm_deleted: 7,
            ivm_rederived: 7,
            cert_bytes: 7,
            ..RequestStats::default()
        };
        engine.absorb(&r); // must not panic in debug builds
        let s = engine.stats();
        assert_eq!(s[Counter::Requests], u64::MAX);
        assert_eq!(s[Counter::Rounds], u64::MAX);
        assert_eq!(s[Counter::Derived], u64::MAX);
        assert_eq!(s[Counter::DedupHits], u64::MAX);
        assert_eq!(s[Counter::IvmMaintainedHits], u64::MAX);
        assert_eq!(s[Counter::IvmDeleted], u64::MAX);
        assert_eq!(s[Counter::IvmRederived], u64::MAX);
        assert_eq!(s[Counter::CertsEmitted], u64::MAX);
        assert_eq!(s[Counter::CertBytes], u64::MAX);
    }
}
