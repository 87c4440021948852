//! Engine and per-request statistics.

use gomq_core::StoreStats;
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

/// Cumulative statistics of an [`crate::Engine`] since construction.
///
/// All phase timings are wall-clock [`std::time::Instant`] spans
/// accumulated across requests.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    /// Requests served (each [`crate::Engine::answer`] call, and each
    /// session query answered from a maintained view, counts once).
    pub requests: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (= compilations attempted).
    pub cache_misses: u64,
    /// Fixpoint rounds across all evaluations.
    pub rounds: u64,
    /// IDB facts derived across all evaluations.
    pub derived: u64,
    /// Answer tuples produced across all evaluations.
    pub answers: u64,
    /// Total wall time in plan compilation.
    pub compile_time: Duration,
    /// Total wall time in evaluation.
    pub eval_time: Duration,
    /// Requests aborted because their resource budget (rounds, derived
    /// facts or deadline) ran out.
    pub overloaded: u64,
    /// Panics caught and isolated by the serving layer.
    pub panics: u64,
    /// Plans evicted from the cache to honour its capacity bound.
    pub cache_evictions: u64,
    /// Lookups that blocked on another thread's in-flight compilation of
    /// the same OMQ (single-flight deduplication).
    pub inflight_waits: u64,
    /// Plans currently resident in the cache (snapshot, not cumulative).
    pub cache_size: u64,
    /// Facts interned across all evaluation stores.
    pub facts_interned: u64,
    /// Bytes of fact-argument arena across all evaluation stores.
    pub arena_bytes: u64,
    /// Candidate derivations answered by an existing fact (dedup hits)
    /// across all evaluation stores.
    pub dedup_hits: u64,
    /// Session mutations journaled to the write-ahead log.
    pub wal_records: u64,
    /// Frame bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// Snapshots written (each truncates the WAL).
    pub snapshots: u64,
    /// WAL records replayed during recovery at startup.
    pub recovered_records: u64,
    /// Facts rebuilt from the snapshot plus WAL replay at startup.
    pub recovered_facts: u64,
    /// Requests refused because their plan's circuit breaker was open.
    pub quarantined: u64,
    /// Circuit breakers tripped (plans newly quarantined).
    pub breaker_trips: u64,
    /// Faults injected by the chaos layer (0 unless the `chaos` feature
    /// is on and a plan is installed).
    pub faults_injected: u64,
    /// TCP connections accepted by the network front end.
    pub conns_accepted: u64,
    /// TCP connections refused at accept time (global or per-IP
    /// connection cap reached).
    pub conns_refused: u64,
    /// TCP connections currently open (gauge, not cumulative).
    pub conns_active: u64,
    /// Worker-pool jobs currently queued or executing (gauge, sampled at
    /// the last enqueue/dequeue).
    pub queue_depth: u64,
    /// Requests refused with `"limit": "queue"` because the worker
    /// pool's backpressure queue was full.
    pub queue_rejects: u64,
    /// Graceful drains initiated (SIGTERM, shutdown token, or stdin
    /// EOF finalization).
    pub drains: u64,
    /// Session queries answered from a maintained materialization that
    /// existed before the request (served in O(changed facts)).
    pub ivm_maintained_hits: u64,
    /// Facts overcount-deleted by view maintenance (DRed delete
    /// phase), across query syncs and rollback maintenance.
    pub ivm_deleted: u64,
    /// Facts rederived by view maintenance (DRed rederive phase plus
    /// re-asserted revivals).
    pub ivm_rederived: u64,
    /// Maintained views currently registered (gauge, sampled at the
    /// last view operation).
    pub views_active: u64,
    /// Views dropped for any reason: the registry's LRU capacity
    /// bound, a stale-epoch re-registration refused after a rollback,
    /// failed maintenance (blown budget or panic), a capacity change,
    /// or a rebuild with derivation recording.
    pub views_evicted: u64,
    /// Responses that carried a derivation certificate.
    pub certs_emitted: u64,
    /// Total certificate bytes emitted.
    pub cert_bytes: u64,
    /// WAL record frames shipped to replicas (primary side).
    pub repl_frames_shipped: u64,
    /// Bytes shipped to replicas (record frames plus snapshots).
    pub repl_bytes_shipped: u64,
    /// Bootstrap snapshots shipped to replicas.
    pub repl_snapshots_shipped: u64,
    /// Replicated WAL records applied locally (follower side;
    /// duplicates re-shipped after a reconnect are not counted).
    pub repl_records_applied: u64,
    /// Record-frame bytes received and applied (follower side).
    pub repl_bytes_applied: u64,
    /// Follower reconnect attempts after a dropped primary connection.
    pub repl_reconnects: u64,
    /// Promotions to primary (operator `promote` op or
    /// `--promote-on-disconnect`).
    pub repl_promotions: u64,
    /// Writes refused because this node is a follower (`"read-only"`)
    /// or a fenced ex-primary (`"fenced"`).
    pub repl_write_refusals: u64,
    /// Replica reads refused because the lsn lag exceeded
    /// `--max-staleness-lsn` (`"stale"`).
    pub repl_stale_refusals: u64,
    /// Lsn lag behind the primary at the last applied record or
    /// heartbeat (gauge, follower side; 0 on a primary).
    pub repl_lag_lsn: u64,
}

impl EngineStats {
    /// Folds one request's statistics into the cumulative totals.
    ///
    /// All counter folds saturate: a pathological workload (or a fault
    /// plan lying about sizes) must skew the telemetry, never panic a
    /// debug build mid-request.
    pub(crate) fn absorb(&mut self, r: &RequestStats) {
        self.requests = self.requests.saturating_add(1);
        self.rounds = self.rounds.saturating_add(r.rounds as u64);
        self.derived = self.derived.saturating_add(r.derived as u64);
        self.answers = self.answers.saturating_add(r.answers as u64);
        self.compile_time = self.compile_time.saturating_add(r.compile);
        self.eval_time = self.eval_time.saturating_add(r.eval);
        self.facts_interned = self.facts_interned.saturating_add(r.store.facts);
        self.arena_bytes = self.arena_bytes.saturating_add(r.store.arena_bytes());
        self.dedup_hits = self.dedup_hits.saturating_add(r.store.dedup_hits);
        if r.maintained {
            self.ivm_maintained_hits = self.ivm_maintained_hits.saturating_add(1);
        }
        self.ivm_deleted = self.ivm_deleted.saturating_add(r.ivm_deleted as u64);
        self.ivm_rederived = self.ivm_rederived.saturating_add(r.ivm_rederived as u64);
        if r.cert_bytes > 0 {
            self.certs_emitted = self.certs_emitted.saturating_add(1);
            self.cert_bytes = self.cert_bytes.saturating_add(r.cert_bytes as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_saturates_instead_of_overflowing() {
        let mut s = EngineStats {
            requests: u64::MAX,
            rounds: u64::MAX - 1,
            derived: u64::MAX,
            answers: u64::MAX,
            facts_interned: u64::MAX,
            arena_bytes: u64::MAX,
            dedup_hits: u64::MAX,
            ivm_maintained_hits: u64::MAX,
            ivm_deleted: u64::MAX,
            ivm_rederived: u64::MAX,
            certs_emitted: u64::MAX,
            cert_bytes: u64::MAX,
            ..EngineStats::default()
        };
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
        s.absorb(&r); // must not panic in debug builds
        assert_eq!(s.requests, u64::MAX);
        assert_eq!(s.rounds, u64::MAX);
        assert_eq!(s.derived, u64::MAX);
        assert_eq!(s.dedup_hits, u64::MAX);
        assert_eq!(s.ivm_maintained_hits, u64::MAX);
        assert_eq!(s.ivm_deleted, u64::MAX);
        assert_eq!(s.ivm_rederived, u64::MAX);
        assert_eq!(s.certs_emitted, u64::MAX);
        assert_eq!(s.cert_bytes, u64::MAX);
    }
}
