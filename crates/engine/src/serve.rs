//! The JSONL serving protocol: one request object per line in, one
//! response object per line out.
//!
//! A query names an OMQ and the facts to answer it over — exactly one
//! of `abox` (one ABox), `aboxes` (a batch) or `"session": true` (the
//! session store). `certificate` and `limits` are optional; `limits` is
//! clamped by the session's own limits:
//!
//! ```json
//! {"id": "r1",
//!  "ontology": "Manager sub Employee\nEmployee sub Staff",
//!  "query": "Staff",
//!  "abox": "Manager(ada)\nEmployee(grace)",
//!  "limits": {"max_rounds": 1000, "max_derived": 100000, "timeout_ms": 250}}
//! ```
//!
//! Successful response — `"stats"` is strictly request-scoped:
//!
//! ```json
//! {"id": "r1", "status": "ok", "cached": false, "zone": "Dichotomy (Datalog!= = PTIME)",
//!  "fragment": "uGF",
//!  "answers": [["ada"], ["grace"]],
//!  "stats": {"compile_us": 412, "eval_us": 12, "rounds": 1, "derived": 9,
//!            "cache_hit": false, "maintained": false, "cert_bytes": 0}}
//! ```
//!
//! What `"rounds"` and `"derived"` count depends on the path. An
//! uncertified answer comes from the plan's type kernel: `"rounds"` are
//! kernel rounds and `"derived"` the facts the plan's Datalog≠ program
//! would derive — eliminated (element, type) pairs plus domain elements
//! plus answers — and no fact store is built (`"facts_interned"` stays
//! put). A certified answer and a maintained session view run the
//! program itself: `"rounds"` are fixpoint rounds and `"derived"` the
//! IDB facts it derived. The request's `"limits"` bound the same counts.
//!
//! With `"aboxes": ["...", "..."]` the response carries `"batches"` (one
//! answer array per ABox, evaluated concurrently) instead of
//! `"answers"`; with `"certificate": true` (one ABox or the session,
//! never a batch) it also carries a `"certificate"`. Every query is
//! parsed and validated once, before any plan compiles, then answered
//! by one [`Engine::answer`] call (or the session's maintained view).
//! Errors come back as
//! `{"id": ..., "status": "error", "error": "..."}`; a blown resource
//! budget comes back as `{"id": ..., "status": "overloaded", "error":
//! ..., "limit": "rounds" | "derived" | "deadline"}`. The session never
//! dies on a bad line: panics inside compilation or evaluation are
//! caught, reported as structured errors, and counted in the engine
//! totals.
//!
//! ## Cumulative totals
//!
//! `{"op": "stats"}` answers the process's cumulative counters and
//! gauges, one key per [`Counter`] in declaration order:
//!
//! ```json
//! {"id": "s1", "status": "ok", "op": "stats",
//!  "engine": {"requests": 1, "cache_hits": 0, "cache_misses": 1, "cache_size": 1,
//!             "evictions": 0, ..., "compile_ns": 412000, "eval_ns": 12000}}
//! ```
//!
//! It is read-only and answered on every replication role. No other
//! response carries cumulative totals.
//!
//! ABox constants interned while serving a request are rolled back once
//! no request is in flight, so a long-lived session's [`Vocab`] does not
//! grow with the ABoxes it has seen (plans keep only relation ids, which
//! are never rolled back). Constants asserted into the durable session
//! raise the rollback floor instead — session facts must keep their
//! names.
//!
//! ## Session mutations
//!
//! Besides (the default) `"op": "query"` and the read-only `"op":
//! "stats"`, a request can mutate the session-resident ABox: `{"op": "assert", "abox": "..."}` adds facts,
//! `{"op": "mark"}` takes a rollback point, `{"op": "rollback", "mark":
//! n}` truncates back to one. Queries evaluate against the session store
//! with `"session": true` in place of `"abox"`. When the session was
//! opened with a data directory ([`ServeConfig::data_dir`]), every
//! mutation is journaled to a write-ahead log *before* it is applied
//! ([`crate::session::DurableSession`]) and periodically folded into a
//! snapshot, so a crash at any instant loses at most the un-acked
//! record.
//!
//! ## Failure containment
//!
//! A plan whose *evaluation* keeps failing (panics or blown budgets,
//! [`ServeConfig::quarantine_after`] times) has its circuit breaker
//! latched open and answers `"status": "quarantined"` from then on. A
//! request whose deadline is already expired at admission is refused as
//! `"overloaded"` without entering the executor. Input lines beyond
//! [`ServeConfig::max_line_bytes`] are refused as `"status":
//! "malformed"` without being buffered in full ([`CappedLineReader`]).

use crate::cache::{lock_recover, panic_message, PlanCache};
use crate::engine::{goal_answers, Certify, Engine, Input, Options, CERTIFY_BATCH};
use crate::json::{self, Json};
use crate::plan::{EngineError, OmqPlan};
use crate::session::{
    DurableSession, MutationInfo, PersistOptions, RecoveryInfo, SessionError, DEFAULT_MAX_VIEWS,
};
use crate::stats::{nanos, Counter, EngineStats, RequestStats};
use crate::wal::SymFact;
use gomq_core::{Fact, FactStore, RelId, Term, Vocab};
use gomq_datalog::{Budget, BudgetExceeded, LimitKind, Materialization};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_logic::GfOntology;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-request resource limits. `None` means unlimited; a request's own
/// `"limits"` object is clamped pointwise against the session's.
#[derive(Clone, Copy, Debug, Default)]
pub struct Limits {
    /// Maximum fixpoint rounds per evaluation.
    pub max_rounds: Option<usize>,
    /// Maximum IDB facts derived per evaluation (per ABox in a batch).
    pub max_derived: Option<usize>,
    /// Wall-clock timeout per request (shared across a batch).
    pub timeout: Option<Duration>,
}

impl Limits {
    /// The pointwise minimum of two limit sets (`None` = unlimited).
    pub fn clamp(&self, other: &Limits) -> Limits {
        fn min_opt<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        Limits {
            max_rounds: min_opt(self.max_rounds, other.max_rounds),
            max_derived: min_opt(self.max_derived, other.max_derived),
            timeout: min_opt(self.timeout, other.timeout),
        }
    }

    /// Converts the limits into a [`Budget`] whose deadline starts now.
    pub fn budget_from_now(&self) -> Budget {
        Budget {
            max_rounds: self.max_rounds,
            max_derived: self.max_derived,
            deadline: self.timeout.map(|t| Instant::now() + t),
        }
    }
}

/// Configuration for a serving session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads for evaluation (1 = sequential).
    pub threads: usize,
    /// Plan-cache capacity (plans beyond this are LRU-evicted).
    pub cache_capacity: usize,
    /// Session-wide default limits (requests can only tighten them).
    pub limits: Limits,
    /// Data directory for crash-consistent session persistence (WAL +
    /// snapshots). `None` keeps the session in memory.
    pub data_dir: Option<PathBuf>,
    /// Snapshot after this many journaled mutations (0 = never).
    pub snapshot_every: u64,
    /// fsync the WAL after every journaled record.
    pub fsync: bool,
    /// Evaluation failures (panics or blown budgets) before a plan's
    /// circuit breaker opens and it answers `"quarantined"`; 0 disables.
    pub quarantine_after: u32,
    /// Maximum accepted request-line length in bytes; longer lines are
    /// refused as `"malformed"` without being buffered in full.
    pub max_line_bytes: usize,
    /// Maintained session materializations kept per session (LRU-
    /// evicted beyond this); 0 disables incremental view maintenance
    /// and session queries fall back to from-scratch fixpoints.
    pub max_views: usize,
    /// Follower staleness bound: replica session queries whose lsn lag
    /// behind the primary exceeds this are refused with `"status":
    /// "stale"`. `None` serves at any lag (the lag is still reported in
    /// the per-request `"staleness"` field).
    pub max_staleness_lsn: Option<u64>,
}

/// Default request-line cap: 16 MiB.
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 << 20;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cache_capacity: crate::cache::DEFAULT_CAPACITY,
            limits: Limits::default(),
            data_dir: None,
            snapshot_every: 64,
            fsync: false,
            quarantine_after: 3,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_views: DEFAULT_MAX_VIEWS,
            max_staleness_lsn: None,
        }
    }
}

/// Bookkeeping for rolling back ABox-constant interning: constants are
/// truncated to the burst's floor once no request is in flight.
#[derive(Debug, Default)]
struct ConstScope {
    active: usize,
    floor: usize,
}

/// State shared by every session on one serving process: the engine
/// (plan cache included), the vocabulary, and the constant-scoping
/// bookkeeping. Clone the [`Arc`] and build per-thread sessions with
/// [`ServeSession::with_shared`] to serve concurrently.
pub struct ServeShared {
    engine: Engine,
    vocab: Mutex<Vocab>,
    scope: Mutex<ConstScope>,
    session: Mutex<DurableSession>,
    limits: Limits,
    max_line_bytes: usize,
    repl: crate::repl::ReplContext,
}

impl ServeShared {
    /// Shared state per `config`. Panics if recovery from
    /// [`ServeConfig::data_dir`] fails; use
    /// [`ServeShared::try_with_config`] to handle corruption.
    pub fn with_config(config: ServeConfig) -> Self {
        Self::try_with_config(config)
            .expect("session recovery failed")
            .0
    }

    /// Shared state per `config`, recovering the durable session from
    /// the data directory when one is configured. Returns what recovery
    /// rebuilt (`None` when the session is in-memory).
    pub fn try_with_config(
        config: ServeConfig,
    ) -> Result<(Self, Option<RecoveryInfo>), SessionError> {
        let engine = Engine::with_cache(
            config.threads,
            PlanCache::with_capacity(config.cache_capacity),
        );
        engine.set_quarantine_after(config.quarantine_after);
        let mut vocab = Vocab::new();
        let (mut session, recovery) = match &config.data_dir {
            Some(dir) => {
                let opts = PersistOptions {
                    fsync: config.fsync,
                    snapshot_every: config.snapshot_every,
                };
                let (s, info) = DurableSession::open(dir, opts, &mut vocab)?;
                engine.add(Counter::RecoveredRecords, info.replayed_records);
                engine.add(
                    Counter::RecoveredFacts,
                    info.snapshot_facts.saturating_add(info.replayed_facts),
                );
                (s, Some(info))
            }
            None => (DurableSession::in_memory(), None),
        };
        session.set_view_capacity(config.max_views);
        session.set_limits(config.limits);
        let repl = crate::repl::ReplContext::default();
        if let Some(bound) = config.max_staleness_lsn {
            repl.set_max_staleness(bound);
        }
        repl.observe_epoch(session.repl_epoch());
        Ok((
            ServeShared {
                engine,
                vocab: Mutex::new(vocab),
                scope: Mutex::new(ConstScope::default()),
                session: Mutex::new(session),
                limits: config.limits,
                max_line_bytes: config.max_line_bytes,
                repl,
            },
            recovery,
        ))
    }

    /// Shared state around an existing engine (used by tests to inject a
    /// cache with a colliding hash function).
    pub fn with_engine(engine: Engine, limits: Limits) -> Self {
        let mut session = DurableSession::in_memory();
        session.set_limits(limits);
        ServeShared {
            engine,
            vocab: Mutex::new(Vocab::new()),
            scope: Mutex::new(ConstScope::default()),
            session: Mutex::new(session),
            limits,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            repl: crate::repl::ReplContext::default(),
        }
    }

    /// The underlying engine (for statistics inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A snapshot of every cumulative counter: the engine's own
    /// ([`Engine::stats`]) plus the session and vocabulary gauges, read
    /// from the session store, its view registry and the vocabulary now.
    pub fn stats(&self) -> EngineStats {
        let mut snap = self.engine.stats();
        let session = lock_recover(&self.session);
        snap[Counter::SessionFacts] = session.len() as u64;
        snap[Counter::ViewsActive] = session.views().len() as u64;
        snap[Counter::ViewsEvicted] = session.views().evicted();
        // session → vocab is the one permitted lock nesting order.
        let vocab = lock_recover(&self.vocab);
        snap[Counter::VocabRelations] = vocab.rel_count() as u64;
        snap[Counter::VocabConstants] = vocab.const_count() as u64;
        snap
    }

    /// Replication state: role, observed epoch, staleness bound.
    pub fn repl(&self) -> &crate::repl::ReplContext {
        &self.repl
    }

    /// The session mutex, poison-recovered (replication internals; the
    /// `session → vocab` nesting order applies here too).
    pub(crate) fn session_lock(&self) -> std::sync::MutexGuard<'_, DurableSession> {
        lock_recover(&self.session)
    }

    /// The vocabulary mutex, poison-recovered (replication internals).
    pub(crate) fn vocab_lock(&self) -> std::sync::MutexGuard<'_, Vocab> {
        lock_recover(&self.vocab)
    }

    /// Marks a request as in flight; the first request of a burst
    /// records the constant floor to roll back to.
    pub(crate) fn scope_enter(&self) {
        let mut scope = lock_recover(&self.scope);
        if scope.active == 0 {
            scope.floor = lock_recover(&self.vocab).const_mark();
        }
        scope.active += 1;
    }

    /// Marks a request as done; the last request of a burst rolls back
    /// every ABox constant the burst interned. (Rollback must wait for
    /// quiescence: constants are shared across concurrent requests.)
    pub(crate) fn scope_exit(&self) {
        let mut scope = lock_recover(&self.scope);
        scope.active -= 1;
        if scope.active == 0 {
            let floor = scope.floor;
            lock_recover(&self.vocab).truncate_consts(floor);
        }
    }

    /// Raises the burst's rollback floor to `mark`, so no scope exit
    /// truncates constants below it: session constants are durable.
    pub(crate) fn keep_consts(&self, mark: usize) {
        let mut scope = lock_recover(&self.scope);
        scope.floor = scope.floor.max(mark);
    }

    /// Runs `f` over the vocabulary as one more in-flight member of the
    /// constant scope, then keeps every constant it interned. For
    /// session mutations that arrive outside any request — replicated
    /// records and snapshots — whose constants the store references: a
    /// request in flight when they land must not roll those names back
    /// on its scope exit. A caller that holds the session lock takes it
    /// first (`session → vocab`).
    pub(crate) fn with_durable_consts<T>(&self, f: impl FnOnce(&mut Vocab) -> T) -> T {
        self.scope_enter();
        let (out, mark) = {
            let mut vocab = lock_recover(&self.vocab);
            let out = f(&mut vocab);
            (out, vocab.const_mark())
        };
        self.keep_consts(mark);
        self.scope_exit();
        out
    }

    /// Accounts an applied mutation — its view maintenance, and its WAL
    /// record when durable — and snapshots when due. Called with the
    /// session lock held; takes the vocab lock (session → vocab is the
    /// one permitted nesting order). A failed snapshot is not an error:
    /// the records are safe in the WAL and the policy retries on the
    /// next mutation. Returns whether a snapshot was cut.
    pub(crate) fn finish_mutation(
        &self,
        session: &mut DurableSession,
        info: &MutationInfo,
    ) -> bool {
        let engine = &self.engine;
        engine.add(Counter::IvmDeleted, info.views.deleted);
        engine.add(Counter::IvmRederived, info.views.rederived);
        engine.add(Counter::Panics, info.views.panicked);
        if !session.is_durable() {
            return false;
        }
        engine.add(Counter::WalRecords, 1);
        engine.add(Counter::WalBytes, info.wal_bytes);
        if !session.snapshot_due() {
            return false;
        }
        let snapshotted = session.snapshot_now(&lock_recover(&self.vocab)).is_ok();
        if snapshotted {
            engine.add(Counter::Snapshots, 1);
        }
        snapshotted
    }

    /// The configured request-line byte cap.
    pub fn max_line_bytes(&self) -> usize {
        self.max_line_bytes
    }

    /// Flushes the durable session for an orderly shutdown: fsync the
    /// WAL, then cut a final snapshot, so a deploy-time restart recovers
    /// from the snapshot alone instead of replaying the whole log.
    /// Returns `Ok(false)` for in-memory sessions. Counts the drain (and
    /// the snapshot, when one was cut) in the engine totals.
    pub fn drain_persist(&self) -> Result<bool, SessionError> {
        self.engine.add(Counter::Drains, 1);
        // Primary drain flushes to replicas first: every journaled frame
        // must be acknowledged by every connected replica (bounded wait)
        // before the process lets go, so a drain-then-promote loses
        // nothing. Only then is the hub closed — closing earlier would
        // stop the senders (and drop publishes) with acknowledged
        // frames still unshipped.
        if let Some(hub) = self.repl.hub() {
            if !hub.wait_replicated(std::time::Duration::from_secs(5)) {
                eprintln!("gomq-serve: repl: drain proceeding with unacknowledged replica frames");
            }
            hub.close();
        }
        let result = {
            let mut session = lock_recover(&self.session);
            if !session.is_durable() {
                return Ok(false);
            }
            // session → vocab is the one permitted lock nesting order.
            let vocab = lock_recover(&self.vocab);
            session.drain(&vocab)
        };
        if result.is_ok() {
            self.engine.add(Counter::Snapshots, 1);
        }
        result.map(|()| true)
    }
}

/// Where a query's facts come from.
enum Facts<'a> {
    /// One request-supplied ABox (`"abox"`).
    Abox(&'a str),
    /// A batch of request-supplied ABoxes (`"aboxes"`).
    Aboxes(Vec<&'a str>),
    /// The session-resident store (`"session": true`).
    Session,
}

/// A query request, parsed and validated once — every illegal
/// combination of inputs is refused here, before any plan compiles.
struct QueryRequest<'a> {
    ontology: &'a str,
    query: &'a str,
    input: Facts<'a>,
    certify: bool,
    limits: Limits,
}

impl<'a> QueryRequest<'a> {
    fn parse(obj: &'a BTreeMap<String, Json>) -> Result<Self, EngineError> {
        let bad = |msg: &str| EngineError::BadRequest(msg.into());
        let field = |name: &str| {
            obj.get(name)
                .and_then(Json::as_str)
                .ok_or_else(|| EngineError::BadRequest(format!("missing string field \"{name}\"")))
        };
        let ontology = field("ontology")?;
        let query = field("query")?;
        if gomq_core::is_reserved_rel_name(query) {
            return Err(EngineError::BadRequest(format!(
                "query: {}",
                gomq_core::reserved_rel_message(query)
            )));
        }
        let certify = match obj.get("certificate") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(bad("\"certificate\" must be a boolean")),
        };
        let (abox, aboxes) = (obj.contains_key("abox"), obj.contains_key("aboxes"));
        if certify && aboxes {
            return Err(bad(CERTIFY_BATCH));
        }
        let limits = parse_limits(obj)?;
        let input = if matches!(obj.get("session"), Some(Json::Bool(true))) {
            if abox || aboxes {
                return Err(bad(
                    "\"session\": true cannot be combined with \"abox\"/\"aboxes\"",
                ));
            }
            Facts::Session
        } else if let Some(texts) = obj.get("aboxes") {
            if abox {
                return Err(bad(
                    "\"abox\" cannot be combined with \"aboxes\" (send one ABox or a batch)",
                ));
            }
            let not_strings = || bad("\"aboxes\" must be an array of strings");
            let texts = texts.as_arr().ok_or_else(not_strings)?;
            Facts::Aboxes(
                texts
                    .iter()
                    .map(|t| t.as_str().ok_or_else(not_strings))
                    .collect::<Result<_, _>>()?,
            )
        } else {
            Facts::Abox(field("abox")?)
        };
        Ok(QueryRequest {
            ontology,
            query,
            input,
            certify,
            limits,
        })
    }
}

/// Parses a request's optional `"limits"` object.
fn parse_limits(obj: &BTreeMap<String, Json>) -> Result<Limits, EngineError> {
    let Some(limits) = obj.get("limits") else {
        return Ok(Limits::default());
    };
    let Json::Obj(l) = limits else {
        return Err(EngineError::BadRequest(
            "\"limits\" must be an object".into(),
        ));
    };
    let num = |name: &str| -> Result<Option<u64>, EngineError> {
        match l.get(name) {
            None => Ok(None),
            Some(Json::Num(n)) if *n >= 0.0 && n.is_finite() => Ok(Some(*n as u64)),
            Some(_) => Err(EngineError::BadRequest(format!(
                "\"limits.{name}\" must be a non-negative number"
            ))),
        }
    };
    for key in l.keys() {
        if !matches!(key.as_str(), "max_rounds" | "max_derived" | "timeout_ms") {
            return Err(EngineError::BadRequest(format!(
                "unknown limit \"{key}\" (expected max_rounds, max_derived, timeout_ms)"
            )));
        }
    }
    Ok(Limits {
        max_rounds: num("max_rounds")?.map(|n| n as usize),
        max_derived: num("max_derived")?.map(|n| n as usize),
        timeout: num("timeout_ms")?.map(Duration::from_millis),
    })
}

/// A query's plan with how the request obtained it.
struct Planned {
    plan: Arc<OmqPlan>,
    /// Whether the plan came out of the cache.
    cached: bool,
    /// Wall time of the cache lookup or compilation.
    compile: Duration,
}

/// Parses a request's ontology into `vocab` and finds its query
/// relation, which must occur in the ontology.
fn parse_omq(
    req: &QueryRequest<'_>,
    vocab: &mut Vocab,
) -> Result<(GfOntology, RelId), EngineError> {
    let dl = parse_ontology(req.ontology, vocab)
        .map_err(|e| EngineError::BadRequest(format!("ontology: {e}")))?;
    let o = to_gf(&dl);
    let query = vocab
        .find_rel(req.query)
        .filter(|rel| o.sig().contains(rel))
        .ok_or_else(|| {
            EngineError::BadRequest(format!(
                "query relation \"{}\" does not occur in the ontology",
                req.query
            ))
        })?;
    Ok((o, query))
}

/// Opens a response object: `{` plus the echoed `"id"`, if any.
fn open_response(id: Option<&str>) -> String {
    let mut out = String::from("{");
    if let Some(id) = id {
        out.push_str("\"id\": ");
        json::write_str(&mut out, id);
        out.push_str(", ");
    }
    out
}

/// A maintained view checked out of the session registry for one
/// query. Dropping the guard re-registers the synced or freshly built
/// view (`done`) under the epoch it was checked out at — `put` refuses
/// it if a store shrink intervened — or, when the query failed after
/// taking a registered view out, counts that view as dropped: the
/// registry's eviction total never misses a view that died.
struct ViewCheckout<'a> {
    session: &'a Mutex<DurableSession>,
    key: u64,
    epoch: u64,
    /// Whether a registered view was taken out of the registry.
    taken: bool,
    /// The view to re-register, set once the query succeeded.
    done: Option<Materialization>,
}

impl Drop for ViewCheckout<'_> {
    fn drop(&mut self) {
        match self.done.take() {
            Some(view) => {
                lock_recover(self.session)
                    .views_mut()
                    .put(self.key, view, self.epoch);
            }
            None if self.taken => lock_recover(self.session).views_mut().note_dropped(1),
            None => {}
        }
    }
}

/// A serving session: a view onto [`ServeShared`] state plus the
/// session's default limits. Single-threaded callers just construct one
/// with [`ServeSession::new`] / [`ServeSession::with_threads`];
/// concurrent servers build one session per thread over a shared
/// [`Arc<ServeShared>`].
pub struct ServeSession {
    shared: Arc<ServeShared>,
    limits: Limits,
}

impl Default for ServeSession {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeSession {
    /// A session sized to the machine.
    pub fn new() -> Self {
        Self::with_config(ServeConfig::default())
    }

    /// A session with an explicit worker budget.
    pub fn with_threads(threads: usize) -> Self {
        Self::with_config(ServeConfig {
            threads,
            ..ServeConfig::default()
        })
    }

    /// A session per `config` (cache capacity and default limits).
    pub fn with_config(config: ServeConfig) -> Self {
        Self::with_shared(Arc::new(ServeShared::with_config(config)))
    }

    /// A session over existing shared state (one per serving thread).
    pub fn with_shared(shared: Arc<ServeShared>) -> Self {
        let limits = shared.limits;
        ServeSession { shared, limits }
    }

    /// The shared state (clone it to build sibling sessions).
    pub fn shared(&self) -> &Arc<ServeShared> {
        &self.shared
    }

    /// The underlying engine (for statistics inspection).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Handles one request line, returning one response line (no
    /// trailing newline). Never panics and never poisons shared state,
    /// whatever the input: malformed requests, resource blowups and
    /// panicking corner cases all come back as structured responses.
    pub fn handle_line(&mut self, line: &str) -> String {
        self.shared.scope_enter();
        let dispatched = catch_unwind(AssertUnwindSafe(|| self.dispatch(line)));
        let (id, outcome) = match dispatched {
            Ok(r) => r,
            Err(payload) => {
                self.shared.engine.add(Counter::Panics, 1);
                // The id is re-parsed: the panicking dispatch cannot
                // hand it back.
                let id = match json::parse(line) {
                    Ok(Json::Obj(o)) => o.get("id").and_then(Json::as_str).map(str::to_owned),
                    _ => None,
                };
                (id, Err(EngineError::Internal(panic_message(payload))))
            }
        };
        let out = match outcome {
            Ok(body) => body,
            Err(e) => {
                let mut out = open_response(id.as_deref());
                let status = match &e {
                    EngineError::Overloaded(_) => "overloaded",
                    EngineError::Quarantined(_) => "quarantined",
                    EngineError::Malformed(_) => "malformed",
                    EngineError::Stale { .. } => "stale",
                    _ => "error",
                };
                let _ = write!(out, "\"status\": \"{status}\", ");
                if let EngineError::Stale { lag, bound } = &e {
                    let _ = write!(out, "\"staleness\": {lag}, \"max_staleness\": {bound}, ");
                }
                out.push_str("\"error\": ");
                json::write_str(&mut out, &format!("{e}"));
                match &e {
                    EngineError::Overloaded(be) => {
                        let _ = write!(out, ", \"limit\": \"{}\"", be.limit.name());
                    }
                    EngineError::Quarantined(n) => {
                        let _ = write!(out, ", \"failures\": {n}");
                    }
                    _ => {}
                }
                out.push('}');
                out
            }
        };
        self.shared.scope_exit();
        out
    }

    fn dispatch(&mut self, line: &str) -> (Option<String>, Result<String, EngineError>) {
        let parsed =
            json::parse(line).map_err(|e| EngineError::BadRequest(format!("invalid JSON: {e}")));
        let obj = match parsed {
            Ok(Json::Obj(o)) => o,
            Ok(_) => {
                return (
                    None,
                    Err(EngineError::BadRequest(
                        "request must be a JSON object".into(),
                    )),
                )
            }
            Err(e) => return (None, Err(e)),
        };
        let id = obj.get("id").and_then(Json::as_str).map(str::to_owned);
        (id.clone(), self.run(&obj, id.as_deref()))
    }

    fn run(
        &mut self,
        obj: &BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        match obj.get("op") {
            None => self.run_query(obj, id),
            Some(op) => match op.as_str() {
                Some("query") => self.run_query(obj, id),
                Some("assert") => self.run_assert(obj, id),
                Some("mark") => self.run_mark(id),
                Some("rollback") => self.run_rollback(obj, id),
                Some("promote") => self.run_promote(id),
                Some("stats") => Ok(self.run_stats(id)),
                Some(other) => Err(EngineError::BadRequest(format!(
                    "unknown op \"{other}\" (expected query, assert, mark, rollback, promote, stats)"
                ))),
                None => Err(EngineError::BadRequest("\"op\" must be a string".into())),
            },
        }
    }

    /// Answers a query: parse and validate the request once, admit it
    /// against its deadline, fetch or compile the plan, then evaluate
    /// under the plan's breaker ([`ServeSession::guarded`]) — one
    /// [`Engine::answer`] call for request-supplied ABoxes, the
    /// session's own path for `"session": true`.
    fn run_query(
        &self,
        obj: &BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        let req = QueryRequest::parse(obj)?;
        let budget = self.limits.clamp(&req.limits).budget_from_now();
        // Admission control: a request whose deadline has already passed
        // must not enter the executor at all — it would only burn a
        // worker to discover the same verdict.
        if budget.deadline.is_some_and(|d| Instant::now() >= d) {
            self.shared.engine.add(Counter::Overloaded, 1);
            return Err(EngineError::Overloaded(BudgetExceeded {
                limit: LimitKind::Deadline,
                rounds: 0,
                derived: 0,
            }));
        }
        // A text planned before is served from the plan cache's text
        // memo; any other text is parsed and validated first. Parsing
        // releases the vocab lock before planning: the cache takes it
        // itself, and single-flight waiters must not hold it.
        let (plan, cached, compile) =
            self.shared
                .engine
                .plan_text(req.ontology, req.query, &self.shared.vocab, || {
                    self.resolve_omq(&req)
                })?;
        self.shared.engine.add(Counter::CompileNs, nanos(compile));
        let planned = Planned {
            plan: plan?,
            cached,
            compile,
        };
        let plan = &planned.plan;
        let aboxes = match &req.input {
            Facts::Session => {
                return self.guarded(id, &planned, || {
                    self.session_answer(plan, &budget, req.certify)
                })
            }
            Facts::Abox(text) => vec![self.parse_abox(text)?],
            Facts::Aboxes(texts) => texts
                .iter()
                .map(|text| self.parse_abox(text))
                .collect::<Result<_, _>>()?,
        };
        let batch = matches!(req.input, Facts::Aboxes(_));
        // The ABox came with the request, so a certificate binds to no
        // session position (its base facts are self-contained).
        let opts = Options {
            budget,
            certify: req.certify.then_some(Certify {
                vocab: &self.shared.vocab,
                snapshot: None,
            }),
        };
        self.guarded(id, &planned, || {
            let input = if batch {
                Input::Batch(&aboxes)
            } else {
                Input::One(&aboxes[0])
            };
            let answered = self.shared.engine.answer(plan, input, &opts)?;
            let payload = self.payload(&answered.answers, batch, answered.certificate.as_deref());
            Ok((payload, answered.stats))
        })
    }

    /// Parses a query's ontology into the serving vocabulary and checks
    /// its query against the ontology's own signature: whether some
    /// earlier request interned the name must not matter.
    fn resolve_omq(&self, req: &QueryRequest<'_>) -> Result<(GfOntology, RelId), EngineError> {
        let mut vocab = lock_recover(&self.shared.vocab);
        // A refusal takes back every relation the text interned, under
        // the same lock, so a refused text fixes no arity for later
        // requests: whether a text parses depends on the texts accepted
        // before it, never on those refused.
        let mark = vocab.rel_mark();
        let resolved = parse_omq(req, &mut vocab);
        if resolved.is_err() {
            vocab.truncate_rels(mark);
        }
        resolved
    }

    /// Parses one request-supplied ABox text straight into a fact store,
    /// in one pass that allocates nothing per fact. Facts over relation
    /// names the vocabulary has never seen are dropped, not interned:
    /// the query and every relation the plan reads occur in the
    /// ontology, so such facts cannot reach an answer, and interning
    /// them would fix an arity for every later ontology.
    fn parse_abox(&self, text: &str) -> Result<FactStore, EngineError> {
        let mut vocab = lock_recover(&self.shared.vocab);
        gomq_core::parse::parse_known_facts(text, &mut vocab)
            .map_err(|e| EngineError::BadRequest(format!("abox: {e}")))
    }

    /// Evaluates a query under its plan's circuit breaker and renders
    /// the `"ok"` response. A quarantined plan is refused before `eval`
    /// runs; blown budgets and panics inside `eval` count against the
    /// breaker (bad requests do not) and a success resets it.
    fn guarded(
        &self,
        id: Option<&str>,
        planned: &Planned,
        eval: impl FnOnce() -> Result<(String, RequestStats), EngineError>,
    ) -> Result<String, EngineError> {
        let engine = &self.shared.engine;
        let key = planned.plan.key;
        if let Some(n) = engine.quarantine_reject(key) {
            return Err(EngineError::Quarantined(n));
        }
        match catch_unwind(AssertUnwindSafe(eval)) {
            Ok(Ok((payload, stats))) => {
                engine.record_eval_success(key);
                Ok(self.query_response(id, planned, &payload, &stats))
            }
            Ok(Err(e)) => {
                if matches!(e, EngineError::Overloaded(_)) {
                    engine.record_eval_failure(key);
                }
                Err(e)
            }
            Err(panic) => {
                engine.record_eval_failure(key);
                std::panic::resume_unwind(panic)
            }
        }
    }

    /// Answers a `"session": true` query over the session-resident
    /// store, returning the response payload. The store is snapshotted
    /// by an `Arc` refcount bump — the read path never deep-copies the
    /// fact columns — and, when view maintenance is enabled, the answer
    /// comes from the plan's maintained materialization: a registry hit
    /// pays one incremental sync over the facts asserted since the view
    /// last looked instead of a from-scratch fixpoint; a miss pays the
    /// one full fixpoint a view ever costs and registers it. With
    /// maintenance disabled (`max_views` 0) the query is one
    /// [`Engine::answer`] call over the shared snapshot.
    fn session_answer(
        &self,
        plan: &OmqPlan,
        budget: &Budget,
        want_cert: bool,
    ) -> Result<(String, RequestStats), EngineError> {
        let engine = &self.shared.engine;
        // Replica reads carry their lsn lag behind the primary's head
        // (`"staleness"`), and lag past the `--max-staleness-lsn` bound
        // is refused with a typed `"stale"` status before any view is
        // checked out.
        let staleness = match self.shared.repl().role() {
            crate::repl::Role::Follower => Some(
                self.shared
                    .repl()
                    .primary_lsn()
                    .saturating_sub(lock_recover(&self.shared.session).position().0),
            ),
            _ => None,
        };
        if let Some(lag) = staleness {
            let bound = self.shared.repl().max_staleness();
            if lag > bound {
                engine.add(Counter::ReplStaleRefusals, 1);
                return Err(EngineError::Stale { lag, bound });
            }
        }
        // Check the view out (and snapshot the store) under one lock
        // hold; evaluation runs lock-free on the snapshot. The epoch is
        // remembered so a rollback racing this request invalidates the
        // re-registration, never the other way round. The session
        // position is captured under the *same* hold, so the
        // certificate's snapshot binding names exactly the store state
        // the answer is computed over.
        let (store, view, epoch, views_on, position) = {
            let mut session = lock_recover(&self.shared.session);
            let store = session.share_store();
            let epoch = session.views().epoch();
            let views_on = session.views().enabled();
            let position = session.position();
            let mut view = session.views_mut().take(plan.key);
            // A certificate needs recorded witnesses. A view built
            // before any certificate was requested has none — discard
            // it (a counted drop) and rebuild with recording on; from
            // then on the session pays the recording overhead only
            // because it asked for certificates.
            if want_cert && view.as_ref().is_some_and(|v| !v.is_recording()) {
                view = None;
                session.views_mut().note_dropped(1);
            }
            (store, view, epoch, views_on, position)
        };
        let maintained = view.is_some();
        // From here on, every exit — an error or a panic included —
        // puts the view back or counts it as dropped.
        let mut checkout = ViewCheckout {
            session: &self.shared.session,
            key: plan.key,
            epoch,
            taken: maintained,
            done: None,
        };
        let t0 = Instant::now();
        let (answers, cert, stats) = if view.is_none() && !views_on {
            // Maintenance disabled: one engine call over the shared
            // snapshot (absorbs its own stats).
            let opts = Options {
                budget: *budget,
                certify: want_cert.then_some(Certify {
                    vocab: &self.shared.vocab,
                    snapshot: Some(position),
                }),
            };
            let answered = engine.answer(plan, Input::One(store.store()), &opts)?;
            (answered.answers, answered.certificate, answered.stats)
        } else {
            let (rules, goal) = (&plan.program.rules, plan.program.goal);
            let (view, es) = match view {
                // Maintained hit. A failed sync consumes the view — the
                // registry never holds a half-maintained materialization.
                Some(mut view) => view.sync(&store, budget).map(|es| (view, es)),
                // Miss: the one full fixpoint this view ever costs;
                // register it for the next query. Certificate-requesting
                // sessions build the recording variant, whose
                // sync/rollback maintenance keeps witnesses alongside
                // facts.
                None if want_cert => Materialization::build_recording(rules, goal, &store, budget),
                None => Materialization::build(rules, goal, &store, budget),
            }
            .map_err(|e| engine.overloaded(e))?;
            let answers = goal_answers(view.instance().store(), &view.answer_ids());
            let cert = want_cert
                .then(|| self.view_certificate(&view, position))
                .transpose()?;
            let stats = RequestStats {
                eval: t0.elapsed(),
                rounds: es.rounds,
                derived: es.derived,
                answers: answers.len(),
                store: es.store,
                maintained,
                ivm_deleted: es.ivm_deleted,
                ivm_rederived: es.ivm_rederived,
                cert_bytes: cert.as_ref().map_or(0, String::len),
                ..RequestStats::default()
            };
            engine.absorb(&stats);
            checkout.done = Some(view);
            (vec![answers], cert, stats)
        };
        drop(checkout);
        let mut payload = self.payload(&answers, false, cert.as_deref());
        if let Some(lag) = staleness {
            let _ = write!(payload, ", \"staleness\": {lag}");
        }
        Ok((payload, stats))
    }

    /// Assembles the certificate for a synced recording view, bound to
    /// the session position its store snapshot was taken at.
    fn view_certificate(
        &self,
        view: &Materialization,
        position: (u64, u64),
    ) -> Result<String, EngineError> {
        let answer_ids = view.answer_ids();
        let base: std::collections::HashSet<u32> = view.base_fact_ids().iter().copied().collect();
        let source = crate::certify::CertSource {
            instance: view.instance(),
            rules: view.rules(),
            goal: view.goal(),
            answer_ids: &answer_ids,
            snapshot: Some(position),
        };
        let vocab = lock_recover(&self.shared.vocab);
        crate::certify::emit_certificate(
            &vocab,
            &source,
            |fact| base.contains(&fact),
            |fact| view.derivation(fact),
        )
        .map_err(|e| EngineError::Internal(format!("certificate assembly: {e}")))
    }

    /// Renders the answer part of an `"ok"` query response: `"answers"`
    /// for one ABox or `"batches"` for a batch, then the certificate.
    fn payload(&self, answers: &[Vec<Term>], batch: bool, cert: Option<&str>) -> String {
        let mut out = String::new();
        if batch {
            out.push_str("\"batches\": [");
            for (i, answers) in answers.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                self.write_answers(&mut out, answers);
            }
            out.push(']');
        } else {
            out.push_str("\"answers\": ");
            self.write_answers(&mut out, &answers[0]);
        }
        if let Some(cert) = cert {
            out.push_str(", \"certificate\": ");
            out.push_str(cert);
        }
        out
    }

    /// The common `{"id": ..., "status": "ok", ..., "stats": ...}`
    /// response of every query.
    fn query_response(
        &self,
        id: Option<&str>,
        planned: &Planned,
        payload: &str,
        stats: &RequestStats,
    ) -> String {
        let mut out = open_response(id);
        let _ = write!(out, "\"status\": \"ok\", \"cached\": {}, ", planned.cached);
        out.push_str("\"zone\": ");
        json::write_str(&mut out, &format!("{}", planned.plan.report.zone));
        out.push_str(", \"fragment\": ");
        // The tightest containing Figure-1 fragment, or null when the
        // classifier placed the ontology in no listed fragment.
        match planned.plan.report.fragments.first() {
            Some(fr) => json::write_str(&mut out, &format!("{fr}")),
            None => out.push_str("null"),
        }
        out.push_str(", ");
        out.push_str(payload);
        let _ = write!(
            out,
            ", \"stats\": {{\"compile_us\": {}, \"eval_us\": {}, \"rounds\": {}, \
             \"derived\": {}, \"cache_hit\": {}, \"maintained\": {}, \"cert_bytes\": {}}}",
            planned.compile.as_micros(),
            stats.eval.as_micros(),
            stats.rounds,
            stats.derived,
            planned.cached,
            stats.maintained,
            stats.cert_bytes,
        );
        out.push('}');
        out
    }

    /// Refuses a write on a node that is not writable: followers answer
    /// a typed `"read-only"` status, fenced ex-primaries a typed
    /// `"fenced"` status carrying the superseding epoch. Returns `None`
    /// when writes are allowed (single-node or primary role).
    fn refuse_write(&self, id: Option<&str>, op: &str) -> Option<String> {
        use crate::repl::Role;
        let ctx = self.shared.repl();
        let role = ctx.role();
        let (status, detail) = match role {
            Role::Single | Role::Primary => return None,
            Role::Follower => (
                "read-only",
                "this node is a read replica; send writes to the primary".to_owned(),
            ),
            Role::Fenced => (
                "fenced",
                format!(
                    "this node was superseded at epoch {}; it no longer accepts writes",
                    ctx.epoch()
                ),
            ),
        };
        self.shared.engine.add(Counter::ReplWriteRefusals, 1);
        let mut out = open_response(id);
        let _ = write!(out, "\"status\": \"{status}\", \"op\": \"{op}\", ");
        if role == Role::Fenced {
            let _ = write!(out, "\"epoch\": {}, ", ctx.epoch());
        }
        out.push_str("\"error\": ");
        json::write_str(&mut out, &detail);
        out.push('}');
        Some(out)
    }

    /// Handles `{"op": "promote"}`: a follower stamps the next epoch
    /// into its own WAL, becomes the primary, and keeps fencing its old
    /// primary's replication address from here on.
    fn run_promote(&mut self, id: Option<&str>) -> Result<String, EngineError> {
        use crate::repl::Role;
        match self.shared.repl().role() {
            Role::Follower => {}
            r => {
                return Err(EngineError::BadRequest(format!(
                    "\"promote\" requires a follower (this node is {})",
                    r.name()
                )))
            }
        }
        let (epoch, lsn) = crate::repl::promote(&self.shared, "operator promote op")
            .map_err(|e| EngineError::Internal(format!("promotion: {e}")))?;
        let mut out = self.mutation_head(id, "promote");
        let _ = write!(out, "\"epoch\": {epoch}, \"lsn\": {lsn}");
        out.push('}');
        Ok(out)
    }

    /// Handles `{"op": "stats"}`: the cumulative totals of
    /// [`ServeShared::stats`] under `"engine"`. Read-only, so every
    /// replication role answers it.
    fn run_stats(&self, id: Option<&str>) -> String {
        let mut out = self.mutation_head(id, "stats");
        let _ = write!(out, "\"engine\": {}}}", self.shared.stats());
        out
    }

    /// Handles `{"op": "assert", "abox": "..."}`: journal the batch to
    /// the WAL (when durable), apply it to the session store, and
    /// snapshot if the policy says so.
    fn run_assert(
        &mut self,
        obj: &BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        if let Some(refusal) = self.refuse_write(id, "assert") {
            return Ok(refusal);
        }
        let text = obj
            .get("abox")
            .and_then(Json::as_str)
            .ok_or_else(|| EngineError::BadRequest("missing string field \"abox\"".into()))?;
        // Parse and symbolize under the vocab lock; the symbolic copy is
        // what the WAL journals (names survive constant-table shifts).
        let (facts, syms, const_floor) = {
            let mut vocab = lock_recover(&self.shared.vocab);
            let d = gomq_core::parse::parse_facts(text, &mut vocab)
                .map_err(|e| EngineError::BadRequest(format!("abox: {e}")))?;
            let facts: Vec<Fact> = d.iter().map(|f| f.to_fact()).collect();
            let syms: Vec<SymFact> = facts
                .iter()
                .map(|f| crate::session::sym_fact(&vocab, f.rel, &f.args))
                .collect();
            (facts, syms, vocab.const_mark())
        };
        // Session constants are durable: scope_exit must never truncate
        // names the session store still references.
        self.shared.keep_consts(const_floor);
        let (info, snapshotted) = {
            let mut session = lock_recover(&self.shared.session);
            let info = session.assert(syms, &facts)?;
            let snapshotted = self.shared.finish_mutation(&mut session, &info);
            (info, snapshotted)
        };
        let mut out = self.mutation_head(id, "assert");
        let _ = write!(
            out,
            "\"added\": {}, \"facts\": {}, \"lsn\": {}, \"snapshotted\": {snapshotted}",
            info.added, info.facts, info.lsn
        );
        out.push('}');
        Ok(out)
    }

    /// Handles `{"op": "mark"}`.
    fn run_mark(&mut self, id: Option<&str>) -> Result<String, EngineError> {
        if let Some(refusal) = self.refuse_write(id, "mark") {
            return Ok(refusal);
        }
        let (mark, info, snapshotted) = {
            let mut session = lock_recover(&self.shared.session);
            let (mark, info) = session.mark()?;
            let snapshotted = self.shared.finish_mutation(&mut session, &info);
            (mark, info, snapshotted)
        };
        let mut out = self.mutation_head(id, "mark");
        let _ = write!(
            out,
            "\"mark\": {mark}, \"facts\": {}, \"lsn\": {}, \"snapshotted\": {snapshotted}",
            info.facts, info.lsn
        );
        out.push('}');
        Ok(out)
    }

    /// Handles `{"op": "rollback", "mark": n}`.
    fn run_rollback(
        &mut self,
        obj: &BTreeMap<String, Json>,
        id: Option<&str>,
    ) -> Result<String, EngineError> {
        if let Some(refusal) = self.refuse_write(id, "rollback") {
            return Ok(refusal);
        }
        let mark = match obj.get("mark") {
            Some(Json::Num(n)) if *n >= 0.0 && n.is_finite() => *n as u64,
            _ => {
                return Err(EngineError::BadRequest(
                    "\"mark\" must be a non-negative number".into(),
                ))
            }
        };
        let (info, snapshotted) = {
            let mut session = lock_recover(&self.shared.session);
            let info = session.rollback(mark)?;
            let snapshotted = self.shared.finish_mutation(&mut session, &info);
            (info, snapshotted)
        };
        let mut out = self.mutation_head(id, "rollback");
        let _ = write!(
            out,
            "\"mark\": {mark}, \"facts\": {}, \"lsn\": {}, \"snapshotted\": {snapshotted}",
            info.facts, info.lsn
        );
        out.push('}');
        Ok(out)
    }

    /// The common `{"id": ..., "status": "ok", "op": ..., ` response
    /// prefix of session mutations and the stats op.
    fn mutation_head(&self, id: Option<&str>, op: &str) -> String {
        let mut out = open_response(id);
        let _ = write!(out, "\"status\": \"ok\", \"op\": \"{op}\", ");
        out
    }

    /// Renders one answer list as an array of one-term tuples, in the
    /// list's (ascending term) order.
    fn write_answers(&self, out: &mut String, answers: &[Term]) {
        let vocab = lock_recover(&self.shared.vocab);
        out.push('[');
        for (i, t) in answers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('[');
            match t {
                Term::Const(c) => json::write_str(out, vocab.const_name(*c)),
                Term::Null(_) => json::write_str(out, &t.display(&vocab).to_string()),
            }
            out.push(']');
        }
        out.push(']');
    }
}

/// One framed read from the request stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line within the byte cap (newline stripped).
    Line(String),
    /// The line exceeded the cap. Its bytes were *discarded as they
    /// streamed* — an adversarial line can cost at most one buffer of
    /// memory — and the reader is positioned after its newline, in sync
    /// for the next request.
    TooLong {
        /// The configured cap the line exceeded.
        limit: usize,
    },
    /// End of the stream.
    Eof,
}

/// Stateful capped line framing over any [`BufRead`]: lines longer
/// than `max_bytes` are refused, not buffered. Unlike
/// [`BufRead::read_line`], a hostile gigabyte-long line cannot balloon
/// resident memory — it is drained chunk by chunk and answered with
/// [`LineRead::TooLong`].
///
/// The partial-line buffer
/// lives *in the struct*, so a read timeout mid-line (a socket with
/// `SO_RCVTIMEO`, used by the TCP front end to poll its drain flag)
/// loses nothing: [`CappedLineReader::poll_line`] returns `Ok(None)` and
/// the next poll resumes exactly where the stream paused.
pub struct CappedLineReader<R> {
    inner: R,
    max_bytes: usize,
    buf: Vec<u8>,
    overflow: bool,
}

impl<R: BufRead> CappedLineReader<R> {
    /// A framer over `inner` refusing lines longer than `max_bytes`.
    pub fn new(inner: R, max_bytes: usize) -> Self {
        CappedLineReader {
            inner,
            max_bytes,
            buf: Vec::new(),
            overflow: false,
        }
    }

    /// Advances the framing by whatever bytes are available.
    ///
    /// Returns `Ok(Some(..))` for a framing event (a complete line, an
    /// over-cap refusal, end of stream), `Ok(None)` when the underlying
    /// read would block or timed out (`WouldBlock`, `TimedOut`,
    /// `Interrupted`) — partial input is retained for the next poll —
    /// and `Err` only for real I/O failures.
    pub fn poll_line(&mut self) -> std::io::Result<Option<LineRead>> {
        use std::io::ErrorKind;
        loop {
            let chunk = match self.inner.fill_buf() {
                Ok(c) => c,
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                // EOF: deliver what we have (a final unterminated line).
                return Ok(Some(if std::mem::take(&mut self.overflow) {
                    LineRead::TooLong {
                        limit: self.max_bytes,
                    }
                } else if self.buf.is_empty() {
                    LineRead::Eof
                } else {
                    finish_line(std::mem::take(&mut self.buf))
                }));
            }
            if let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
                if !self.overflow {
                    self.buf.extend_from_slice(&chunk[..pos]);
                }
                self.inner.consume(pos + 1);
                let overflowed = std::mem::take(&mut self.overflow);
                let buf = std::mem::take(&mut self.buf);
                return Ok(Some(if overflowed || buf.len() > self.max_bytes {
                    LineRead::TooLong {
                        limit: self.max_bytes,
                    }
                } else {
                    finish_line(buf)
                }));
            }
            let n = chunk.len();
            if !self.overflow {
                self.buf.extend_from_slice(chunk);
                if self.buf.len() > self.max_bytes {
                    self.overflow = true;
                    self.buf = Vec::new(); // drop, don't keep growing
                }
            }
            self.inner.consume(n);
        }
    }
}

/// Per-connection knobs for [`handle_connection`]: how the request loop
/// notices a server-wide drain and when it hangs up on an idle peer.
#[derive(Clone, Debug, Default)]
pub struct ConnControl {
    /// Server-wide drain token. Once tripped, requests the peer already
    /// sent are still answered, and the loop closes with
    /// [`ConnClose::Drained`] at the first read tick that finds no
    /// request pending. Only effective on streams whose reads time out;
    /// the blocking stdin transport drains at EOF instead.
    pub draining: Option<crate::drain::DrainToken>,
    /// Hang up after this long without a complete request. Only
    /// effective on streams whose reads time out (sockets with a read
    /// timeout); a blocking stdin pipe never produces idle ticks.
    pub idle_timeout: Option<Duration>,
}

impl ConnControl {
    fn is_draining(&self) -> bool {
        self.draining.as_ref().is_some_and(|t| t.is_draining())
    }
}

/// Why a connection's request loop ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnClose {
    /// The peer closed its write half (stdin EOF, socket shutdown).
    Eof,
    /// The server is draining: the loop stopped accepting new requests.
    Drained,
    /// The idle timeout elapsed without a complete request.
    Idle,
    /// Reading the request stream failed.
    Read(String),
    /// Writing a response failed (the peer hung up mid-response).
    Write(String),
}

/// Outcome of one connection's request loop.
#[derive(Clone, Debug)]
pub struct ConnOutcome {
    /// Requests answered (refusals for oversized lines included).
    pub requests: u64,
    /// Why the loop ended.
    pub close: ConnClose,
}

/// The transport-agnostic request loop: reads capped JSONL requests from
/// `reader`, obtains one response line per request from `exec`, and
/// writes it (newline-terminated, flushed) to `writer`.
///
/// Both serving transports are instances of this one function: stdin
/// mode passes `stdin.lock()` / `stdout.lock()` and an `exec` that calls
/// [`ServeSession::handle_line`] inline; the TCP front end
/// ([`crate::net`]) passes a socket with a short read timeout and an
/// `exec` that evaluates behind the bounded admission gate. Oversized lines are
/// refused in-loop with [`refuse_oversized_line`] without consulting
/// `exec`.
pub fn handle_connection<R, W, F>(
    reader: R,
    mut writer: W,
    max_line_bytes: usize,
    control: &ConnControl,
    mut exec: F,
) -> ConnOutcome
where
    R: BufRead,
    W: std::io::Write,
    F: FnMut(&str) -> String,
{
    let mut framer = CappedLineReader::new(reader, max_line_bytes);
    let mut requests = 0u64;
    let mut last_activity = Instant::now();
    let close = loop {
        let response = match framer.poll_line() {
            Ok(Some(LineRead::Eof)) => break ConnClose::Eof,
            Ok(Some(LineRead::Line(line))) => {
                last_activity = Instant::now();
                if line.trim().is_empty() {
                    continue;
                }
                exec(&line)
            }
            Ok(Some(LineRead::TooLong { limit })) => {
                last_activity = Instant::now();
                refuse_oversized_line(limit)
            }
            Ok(None) => {
                // Read timeout tick: no complete request pending. The
                // drain check lives here, not before every read, so
                // requests the peer already pipelined are still
                // answered — a drain cuts the connection once it goes
                // quiet for one tick (a peer streaming through a drain
                // is bounded by the server's drain timeout instead).
                if control.is_draining() {
                    break ConnClose::Drained;
                }
                if control
                    .idle_timeout
                    .is_some_and(|t| last_activity.elapsed() >= t)
                {
                    break ConnClose::Idle;
                }
                continue;
            }
            Err(e) => break ConnClose::Read(e.to_string()),
        };
        requests += 1;
        if let Err(e) = writeln!(writer, "{response}").and_then(|()| writer.flush()) {
            break ConnClose::Write(e.to_string());
        }
    };
    ConnOutcome { requests, close }
}

/// The structured refusal for an input line past the configured byte
/// cap (the line was never buffered, let alone parsed, so there is no
/// request id to echo).
pub fn refuse_oversized_line(limit: usize) -> String {
    let mut out = String::from("{\"status\": \"malformed\", \"error\": ");
    json::write_str(
        &mut out,
        &format!("request line exceeds the {limit}-byte cap"),
    );
    out.push('}');
    out
}

fn finish_line(mut buf: Vec<u8>) -> LineRead {
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    // Invalid UTF-8 still yields a line; JSON parsing rejects it with a
    // proper per-request error rather than killing the stream.
    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::ScratchDir;
    use std::collections::BTreeSet;

    fn ok_field<'a>(response: &'a str, needle: &str) -> &'a str {
        assert!(
            response.contains(needle),
            "expected {needle:?} in {response}"
        );
        response
    }

    /// The session's `{"op": "stats"}` response.
    fn stats_op(s: &mut ServeSession) -> String {
        s.handle_line(r#"{"op": "stats"}"#)
    }

    #[test]
    fn single_abox_roundtrip() {
        let mut s = ServeSession::with_threads(2);
        let resp = s.handle_line(
            r#"{"id": "r1", "ontology": "Manager sub Employee\nEmployee sub Staff", "query": "Staff", "abox": "Manager(ada)\nEmployee(grace)"}"#,
        );
        ok_field(&resp, "\"status\": \"ok\"");
        ok_field(&resp, "\"id\": \"r1\"");
        ok_field(&resp, "\"cached\": false");
        ok_field(&resp, r#"["ada"]"#);
        ok_field(&resp, r#"["grace"]"#);
        // Request-scoped stats say "miss"; engine totals count it.
        ok_field(&resp, "\"cache_hit\": false");
        ok_field(
            &stats_op(&mut s),
            "\"engine\": {\"requests\": 1, \"cache_hits\": 0, \"cache_misses\": 1",
        );
        // Same OMQ again: served from the cache.
        let resp2 = s.handle_line(
            r#"{"ontology": "Employee sub Staff\nManager sub Employee", "query": "Staff", "abox": "Manager(bob)"}"#,
        );
        ok_field(&resp2, "\"cached\": true");
        ok_field(&resp2, r#"["bob"]"#);
        ok_field(&resp2, "\"cache_hit\": true");
        ok_field(&stats_op(&mut s), "\"cache_hits\": 1, \"cache_misses\": 1");
        // Responses are valid JSON.
        assert!(crate::json::parse(&resp).is_ok());
        assert!(crate::json::parse(&resp2).is_ok());
    }

    /// Answers render in ascending constant id, whatever order the
    /// request text or the kernel's element numbering puts them in: `z`,
    /// interned by an earlier session assert, comes before `y` on every
    /// path.
    #[test]
    fn answers_render_in_constant_order() {
        let mut s = ServeSession::with_threads(2);
        ok_field(
            &s.handle_line(r#"{"op": "assert", "abox": "A(z)"}"#),
            "\"status\": \"ok\"",
        );
        let omq = r#""ontology": "A sub B", "query": "B""#;
        let one = s.handle_line(&format!(r#"{{{omq}, "abox": "A(y)\nA(z)"}}"#));
        ok_field(&one, r#""answers": [["z"], ["y"]]"#);
        let batch = s.handle_line(&format!(
            r#"{{{omq}, "aboxes": ["A(y)\nA(z)", "B(y)\nA(z)"]}}"#
        ));
        ok_field(&batch, r#""batches": [[["z"], ["y"]], [["z"], ["y"]]]"#);
        let certified = s.handle_line(&format!(
            r#"{{{omq}, "abox": "A(y)\nA(z)", "certificate": true}}"#
        ));
        ok_field(&certified, r#""answers": [["z"], ["y"]]"#);
        s.handle_line(r#"{"op": "assert", "abox": "A(y)"}"#);
        let session = s.handle_line(&format!(r#"{{{omq}, "session": true}}"#));
        ok_field(&session, r#""answers": [["z"], ["y"]]"#);
    }

    /// The stats op's `"engine"` keys, in wire order.
    fn engine_keys(response: &str) -> Vec<&str> {
        let from = response.find("\"engine\": {").expect("an engine object") + 11;
        let body = response[from..]
            .strip_suffix("}}")
            .expect("engine closes the response");
        body.split(", ")
            .map(|kv| kv.split(": ").next().unwrap().trim_matches('"'))
            .collect()
    }

    #[test]
    fn stats_op_pins_the_protocol() {
        // The 43 keys of the former per-response "engine" block, in its
        // order, then the counters the stats op appends.
        const WIRE: [&str; 51] = [
            "requests",
            "cache_hits",
            "cache_misses",
            "cache_size",
            "evictions",
            "inflight_waits",
            "overloaded",
            "panics",
            "facts_interned",
            "arena_bytes",
            "dedup_hits",
            "wal_records",
            "wal_bytes",
            "snapshots",
            "recovered_records",
            "recovered_facts",
            "session_facts",
            "quarantined",
            "breaker_trips",
            "faults_injected",
            "conns_accepted",
            "conns_refused",
            "conns_active",
            "queue_depth",
            "queue_rejects",
            "drains",
            "ivm_maintained_hits",
            "ivm_deleted",
            "ivm_rederived",
            "views_active",
            "views_evicted",
            "certs_emitted",
            "cert_bytes",
            "repl_frames_shipped",
            "repl_bytes_shipped",
            "repl_snapshots_shipped",
            "repl_records_applied",
            "repl_bytes_applied",
            "repl_reconnects",
            "repl_promotions",
            "repl_write_refusals",
            "repl_stale_refusals",
            "repl_lag_lsn",
            "rounds",
            "derived",
            "answers",
            "compile_ns",
            "eval_ns",
            "vocab_relations",
            "vocab_constants",
            "plan_text_hits",
        ];
        let mut s = ServeSession::with_threads(1);
        let st = s.handle_line(r#"{"id": "s", "op": "stats"}"#);
        ok_field(
            &st,
            r#"{"id": "s", "status": "ok", "op": "stats", "engine": {"#,
        );
        assert!(crate::json::parse(&st).is_ok(), "not JSON: {st}");
        let keys = engine_keys(&st);
        assert_eq!(keys, WIRE);
        assert_eq!(keys.len(), Counter::COUNT);
        for c in Counter::ALL {
            let n = keys.iter().filter(|k| **k == c.name()).count();
            assert_eq!(n, 1, "{c:?} must appear exactly once");
        }

        // No other response carries cumulative totals.
        let omq = r#""ontology": "A sub B", "query": "B""#;
        let mut responses = vec![
            s.handle_line(&format!(r#"{{{omq}, "abox": "A(x)"}}"#)),
            s.handle_line(&format!(r#"{{{omq}, "aboxes": ["A(x)", ""]}}"#)),
            s.handle_line(&format!(
                r#"{{{omq}, "abox": "A(x)", "certificate": true}}"#
            )),
            s.handle_line(r#"{"op": "assert", "abox": "A(ada)"}"#),
            s.handle_line(&format!(r#"{{{omq}, "session": true}}"#)),
            s.handle_line(r#"{"op": "mark"}"#),
            s.handle_line(r#"{"op": "rollback", "mark": 0}"#),
            s.handle_line(&format!(
                r#"{{{omq}, "abox": "A(x)", "limits": {{"timeout_ms": 0}}}}"#
            )),
            s.handle_line("{nope"),
        ];
        let unknown = s.handle_line(r#"{"op": "defragment"}"#);
        ok_field(
            &unknown,
            "(expected query, assert, mark, rollback, promote, stats)",
        );
        responses.push(unknown);

        // A follower refuses writes but answers the stats op; so does a
        // fenced node. Promotion answers without totals too.
        let repl = s.shared().repl();
        repl.set_role(crate::repl::Role::Follower);
        let refused = s.handle_line(r#"{"op": "assert", "abox": "A(bob)"}"#);
        ok_field(&refused, "\"status\": \"read-only\"");
        ok_field(&stats_op(&mut s), "\"status\": \"ok\", \"op\": \"stats\"");
        let promoted = s.handle_line(r#"{"op": "promote"}"#);
        ok_field(&promoted, "\"status\": \"ok\", \"op\": \"promote\"");
        s.shared().repl().set_role(crate::repl::Role::Fenced);
        let fenced = s.handle_line(r#"{"op": "mark"}"#);
        ok_field(&fenced, "\"status\": \"fenced\"");
        let st = stats_op(&mut s);
        ok_field(&st, "\"status\": \"ok\", \"op\": \"stats\"");
        ok_field(&st, "\"repl_promotions\": 1, \"repl_write_refusals\": 2, ");
        responses.extend([refused, promoted, fenced]);
        for r in &responses {
            assert!(!r.contains("\"engine\""), "totals leaked into {r}");
            assert!(crate::json::parse(r).is_ok(), "not JSON: {r}");
        }
    }

    #[test]
    fn stats_op_reports_the_former_engine_block_totals() {
        // Cache hits, an overload, a panic, certificates, maintained
        // session views, a view rebuilt for recording, a rollback, WAL
        // records and snapshots.
        const SCRIPT: [&str; 14] = [
            r#"{"id": "q1", "ontology": "Manager sub Employee\nEmployee sub Staff", "query": "Staff", "abox": "Manager(ada)\nEmployee(grace)"}"#,
            r#"{"id": "q2", "ontology": "Employee sub Staff\nManager sub Employee", "query": "Staff", "abox": "Manager(bob)"}"#,
            r#"{"id": "hot", "ontology": "C0 sub C1\nC1 sub C2\nC2 sub C3", "query": "C3", "abox": "C0(a)\nC0(b)\nC0(c)", "limits": {"max_derived": 2}}"#,
            r#"{"id": "boom", "ontology": "A sub ex R.A\nR sub B", "query": "B", "abox": ""}"#,
            r#"{"id": "c1", "ontology": "A sub B", "query": "B", "abox": "A(x)", "certificate": true}"#,
            r#"{"op": "assert", "abox": "A(ada)"}"#,
            r#"{"ontology": "A sub B", "query": "B", "session": true}"#,
            r#"{"op": "mark"}"#,
            r#"{"op": "assert", "abox": "A(bob)\nA(eve)"}"#,
            r#"{"ontology": "A sub B", "query": "B", "session": true}"#,
            r#"{"op": "rollback", "mark": 0}"#,
            r#"{"ontology": "A sub B", "query": "B", "session": true}"#,
            r#"{"ontology": "A sub B", "query": "B", "session": true, "certificate": true}"#,
            r#"{"id": "batch", "ontology": "A sub B", "query": "B", "aboxes": ["A(y)", "B(z)"]}"#,
        ];
        // The "engine" block of the last response to SCRIPT before the
        // block moved to the stats op (`gomq-serve --threads 1
        // --data-dir D --snapshot-every 2`), whose exit summary also
        // reported 16 rounds and 41 derived facts — with two figures
        // moved on purpose since. "boom"'s arity clash is a bad request,
        // no longer an isolated panic (`panics` 1 → 0), and certificates
        // cite the rewriting's fixed `_elim{t}`/`_dom`/`_goal` names
        // rather than per-plan suffixed ones (`cert_bytes` 823 → 787).
        const BEFORE: &str = concat!(
            r#"{"requests": 8, "cache_hits": 6, "cache_misses": 3, "cache_size": 3, "#,
            r#""evictions": 0, "inflight_waits": 0, "overloaded": 1, "panics": 0, "#,
            r#""facts_interned": 45, "arena_bytes": 360, "dedup_hits": 13, "#,
            r#""wal_records": 4, "wal_bytes": 159, "snapshots": 2, "#,
            r#""recovered_records": 0, "recovered_facts": 0, "session_facts": 1, "#,
            r#""quarantined": 0, "breaker_trips": 0, "faults_injected": 0, "#,
            r#""conns_accepted": 0, "conns_refused": 0, "conns_active": 0, "#,
            r#""queue_depth": 0, "queue_rejects": 0, "drains": 0, "#,
            r#""ivm_maintained_hits": 2, "ivm_deleted": 10, "ivm_rederived": 0, "#,
            r#""views_active": 1, "views_evicted": 1, "certs_emitted": 2, "#,
            r#""cert_bytes": 787, "repl_frames_shipped": 0, "repl_bytes_shipped": 0, "#,
            r#""repl_snapshots_shipped": 0, "repl_records_applied": 0, "#,
            r#""repl_bytes_applied": 0, "repl_reconnects": 0, "repl_promotions": 0, "#,
            r#""repl_write_refusals": 0, "repl_stale_refusals": 0, "repl_lag_lsn": 0, "#,
            r#""rounds": 16, "derived": 41, "#,
        );
        let dir = ScratchDir::new("serve-totals");
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            data_dir: Some(dir.to_path_buf()),
            snapshot_every: 2,
            ..ServeConfig::default()
        });
        for line in SCRIPT {
            s.handle_line(line);
        }
        let st = stats_op(&mut s);
        ok_field(&st, &format!("\"engine\": {BEFORE}"));
        let totals = s.shared().stats();
        assert!(totals[Counter::CompileNs] > 0 && totals[Counter::EvalNs] > 0);
    }

    #[test]
    fn batched_aboxes() {
        let mut s = ServeSession::with_threads(4);
        let resp = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "aboxes": ["A(x)", "B(y)\nA(z)", ""]}"#,
        );
        ok_field(&resp, "\"batches\": ");
        ok_field(&resp, r#"[["x"]], [["y"], ["z"]], []"#);
        assert!(crate::json::parse(&resp).is_ok());
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = ServeSession::with_threads(1);
        let bad_json = s.handle_line("{nope");
        ok_field(&bad_json, "\"status\": \"error\"");
        let bad_query = s.handle_line(r#"{"ontology": "A sub B", "query": "Zzz", "abox": ""}"#);
        ok_field(&bad_query, "does not occur in the ontology");
        let bad_abox = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x"}"#);
        ok_field(&bad_abox, "\"status\": \"error\"");
        // The session still works afterwards.
        let good = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&good, "\"status\": \"ok\"");
    }

    #[test]
    fn blown_budgets_report_overloaded_and_recover() {
        let mut s = ServeSession::with_threads(2);
        let chain = "C0 sub C1\nC1 sub C2\nC2 sub C3\nC3 sub C4\nC4 sub C5";
        let abox = (0..50).map(|i| format!("C0(x{i})\n")).collect::<String>();
        let req = format!(
            r#"{{"id": "hot", "ontology": "{chain}", "query": "C5", "abox": "{}", "limits": {{"max_derived": 5}}}}"#,
            abox.replace('\n', "\\n"),
        );
        let resp = s.handle_line(&req);
        ok_field(&resp, "\"status\": \"overloaded\"");
        ok_field(&resp, "\"limit\": \"derived\"");
        ok_field(&resp, "\"id\": \"hot\"");
        assert!(crate::json::parse(&resp).is_ok());
        // An expired deadline reports the deadline limit.
        let timed = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)", "limits": {"timeout_ms": 0}}"#,
        );
        ok_field(&timed, "\"status\": \"overloaded\"");
        ok_field(&timed, "\"limit\": \"deadline\"");
        // The session stays healthy and the same OMQ still answers.
        let good = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&good, "\"status\": \"ok\"");
        assert_eq!(s.engine().stats()[Counter::Overloaded], 2);
    }

    #[test]
    fn session_limits_clamp_request_limits() {
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            limits: Limits {
                max_derived: Some(3),
                ..Limits::default()
            },
            ..ServeConfig::default()
        });
        // The request asks for a *looser* limit; the session's wins.
        let resp = s.handle_line(
            r#"{"ontology": "C0 sub C1\nC1 sub C2", "query": "C2", "abox": "C0(a)\nC0(b)\nC0(c)", "limits": {"max_derived": 1000000}}"#,
        );
        ok_field(&resp, "\"status\": \"overloaded\"");
        ok_field(&resp, "\"limit\": \"derived\"");
    }

    #[test]
    fn malformed_limits_are_bad_requests() {
        let mut s = ServeSession::with_threads(1);
        let bad_type =
            s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "", "limits": 7}"#);
        ok_field(&bad_type, "must be an object");
        let bad_key = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "", "limits": {"fuel": 9}}"#,
        );
        ok_field(&bad_key, "unknown limit");
        let bad_value = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "abox": "", "limits": {"max_rounds": -1}}"#,
        );
        ok_field(&bad_value, "must be a non-negative number");
    }

    #[test]
    fn panics_are_isolated_and_counted() {
        // A plan-cache hasher that panics on one ontology stands in for
        // a bug anywhere on the request path. The fence must turn that
        // panic into a structured error.
        fn boom_hasher(text: &str) -> u64 {
            assert!(!text.contains("Boom"), "hasher tripped");
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(text, &mut h);
            std::hash::Hasher::finish(&h)
        }
        let engine = Engine::with_cache(1, PlanCache::with_capacity_and_hasher(8, boom_hasher));
        let shared = ServeShared::with_engine(engine, Limits::default());
        let mut s = ServeSession::with_shared(Arc::new(shared));
        let resp = s.handle_line(
            r#"{"id": "boom", "ontology": "A sub Boom", "query": "Boom", "abox": ""}"#,
        );
        ok_field(&resp, "\"status\": \"error\"");
        ok_field(&resp, "\"id\": \"boom\"");
        ok_field(&resp, "internal error (panic isolated): hasher tripped");
        assert!(crate::json::parse(&resp).is_ok());
        assert_eq!(s.engine().stats()[Counter::Panics], 1);
        // The session still works afterwards.
        let good = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&good, "\"status\": \"ok\"");
    }

    #[test]
    fn reserved_relation_names_are_refused() {
        let mut s = ServeSession::with_threads(1);
        let omq = r#""ontology": "Manager sub Employee", "query": "Employee""#;
        // Compile the plan first, so `_goal` is interned at arity 1.
        let warm = s.handle_line(&format!(r#"{{{omq}, "abox": "Manager(ada)"}}"#));
        ok_field(&warm, r#""answers": [["ada"]]"#);
        let rels = s.shared().stats()[Counter::VocabRelations];
        let reserved = "is reserved (names starting with `_` belong to derived relations)";
        for line in [
            format!(r#"{{{omq}, "abox": "_goal(eve)\nManager(ada)"}}"#),
            format!(r#"{{{omq}, "abox": "_goal(eve)\nManager(ada)", "certificate": true}}"#),
            format!(r#"{{{omq}, "aboxes": ["Manager(ada)", "_goal(eve, x)"]}}"#),
            r#"{"op": "assert", "abox": "Manager(ada)\n_goal(eve)"}"#.to_owned(),
            r#"{"op": "assert", "abox": "_elim0(eve, x)"}"#.to_owned(),
            r#"{"ontology": "A sub _goal", "query": "A", "abox": ""}"#.to_owned(),
            r#"{"ontology": "A sub ex _r.B", "query": "B", "abox": ""}"#.to_owned(),
            r#"{"ontology": "A sub B", "query": "_goal", "abox": ""}"#.to_owned(),
        ] {
            let resp = s.handle_line(&line);
            ok_field(&resp, "\"error\": \"bad request: ");
            ok_field(&resp, reserved);
        }
        // Nothing was interned or asserted, and the plan still answers
        // without the smuggled fact.
        assert_eq!(s.shared().stats()[Counter::VocabRelations], rels);
        assert_eq!(s.shared().stats()[Counter::SessionFacts], 0);
        s.handle_line(r#"{"op": "assert", "abox": "Manager(ada)"}"#);
        for line in [
            format!(r#"{{{omq}, "abox": "Manager(ada)", "certificate": true}}"#),
            format!(r#"{{{omq}, "session": true}}"#),
            format!(r#"{{{omq}, "session": true, "certificate": true}}"#),
        ] {
            ok_field(&s.handle_line(&line), r#""answers": [["ada"]]"#);
        }
    }

    #[test]
    fn request_aboxes_do_not_intern_relation_names() {
        let mut s = ServeSession::with_threads(1);
        // A fact over a never-seen name cannot reach an answer: dropped.
        let resp = s.handle_line(
            r#"{"ontology": "X sub Y", "query": "Y", "abox": "worksOn(ada)\nX(bob)"}"#,
        );
        ok_field(&resp, r#""answers": [["bob"]]"#);
        assert!(s.shared().vocab_lock().find_rel("worksOn").is_none());
        // So a later ontology may use the name at another arity.
        let resp = s.handle_line(
            r#"{"ontology": "X sub all worksOn.Y\nY sub Z", "query": "Z", "abox": "worksOn(a, b)\nX(a)"}"#,
        );
        ok_field(&resp, r#""answers": [["b"]]"#);
        // Known names keep their arity check.
        let resp =
            s.handle_line(r#"{"ontology": "X sub Y", "query": "Y", "abox": "worksOn(ada)"}"#);
        ok_field(
            &resp,
            "bad request: abox: line 1: relation `worksOn` used with arity 1",
        );
        // Session asserts still intern: the session store outlives any
        // one ontology.
        s.handle_line(r#"{"op": "assert", "abox": "hired(ada)"}"#);
        let resp =
            s.handle_line(r#"{"ontology": "hired sub Staff", "query": "Staff", "session": true}"#);
        ok_field(&resp, r#""answers": [["ada"]]"#);
    }

    #[test]
    fn vocab_constants_gauge_returns_to_its_floor_between_requests() {
        let gauge = |s: &ServeSession| s.shared().stats()[Counter::VocabConstants];
        let mut s = ServeSession::with_threads(1);
        let floor = gauge(&s);
        for i in 0..3 {
            let line =
                format!(r#"{{"ontology": "A sub B", "query": "B", "abox": "A(c{i})\nA(d{i})"}}"#);
            ok_field(&s.handle_line(&line), r#""status": "ok""#);
            assert_eq!(gauge(&s), floor, "request {i} left constants behind");
        }
        // Session constants are durable and count.
        s.handle_line(r#"{"op": "assert", "abox": "A(kept)"}"#);
        assert_eq!(gauge(&s), floor + 1);
    }

    #[test]
    fn query_validation_does_not_depend_on_server_history() {
        let line = r#"{"ontology": "A sub B", "query": "X", "abox": "X(c)\nA(d)"}"#;
        let refusal = r#"bad request: query relation \"X\" does not occur in the ontology"#;
        let mut fresh = ServeSession::with_threads(1);
        ok_field(&fresh.handle_line(line), refusal);
        // An earlier request interns `X`; the same line is still refused.
        let mut used = ServeSession::with_threads(1);
        let resp = used.handle_line(r#"{"ontology": "X sub Y", "query": "Y", "abox": "X(q)"}"#);
        ok_field(&resp, r#""answers": [["q"]]"#);
        ok_field(&used.handle_line(line), refusal);
    }

    #[test]
    fn refused_requests_leave_the_relation_table_as_they_found_it() {
        let line = r#"{"ontology": "A sub ex R.B", "query": "B", "abox": "A(x)"}"#;
        let mut fresh = ServeSession::with_threads(1);
        let expected = untimed(&fresh.handle_line(line));
        ok_field(&expected, r#""answers": []"#);
        let rels = |s: &ServeSession| s.shared().stats()[Counter::VocabRelations];
        let mut s = ServeSession::with_threads(1);
        let floor = rels(&s);
        // Each line interns `R` as a concept before it is refused: for a
        // parse error, a query outside the ontology, an arity clash.
        for refused in [
            r#"{"ontology": "R sub sub B", "query": "B", "abox": ""}"#,
            r#"{"ontology": "R sub C", "query": "B", "abox": ""}"#,
            r#"{"ontology": "R sub C\nD sub ex R.C", "query": "C", "abox": ""}"#,
        ] {
            ok_field(&s.handle_line(refused), r#""status": "error""#);
            assert_eq!(rels(&s), floor, "{refused} left relations behind");
        }
        assert_eq!(untimed(&s.handle_line(line)), expected);
    }

    #[test]
    fn arity_clashes_are_bad_requests_not_panics() {
        let mut s = ServeSession::with_threads(1);
        // "R" is first interned as a role (arity 2) by "ex R.A", then
        // used as a concept (arity 1) by "R sub B".
        let resp = s.handle_line(
            r#"{"id": "clash", "ontology": "A sub ex R.A\nR sub B", "query": "B", "abox": ""}"#,
        );
        ok_field(
            &resp,
            "\"error\": \"bad request: ontology: line 2: relation `R` used with arity 1 but \
             declared with 2\"",
        );
        // Within one line too: "A" is a concept, then a role.
        let resp = s.handle_line(r#"{"ontology": "A sub ex A.B", "query": "B", "abox": ""}"#);
        ok_field(
            &resp,
            "bad request: ontology: line 1: relation `A` used with arity 2",
        );
        assert_eq!(s.engine().stats()[Counter::Panics], 0);
        let good = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&good, r#"[["x"]]"#);
    }

    /// A response with its timing fields zeroed.
    fn untimed(response: &str) -> String {
        let mut out = response.to_owned();
        for field in ["\"compile_us\": ", "\"eval_us\": "] {
            let from = out.find(field).expect("a timing field") + field.len();
            let to = from + out[from..].find(',').expect("more stats");
            out.replace_range(from..to, "0");
        }
        out
    }

    #[test]
    fn text_memo_serves_repeats_and_variants_without_a_parse() {
        let mut s = ServeSession::with_threads(1);
        let line = |ontology: &str| {
            format!(r#"{{"ontology": "{ontology}", "query": "C", "abox": "A(x)\nB(y)"}}"#)
        };
        let variants = [
            r"A sub B\nB sub C",
            r"B sub C\nA sub B",
            r"  A sub B \n\nB sub C",
            r"# comment\nA sub B\nB sub C",
        ];
        let first: Vec<String> = variants.iter().map(|o| s.handle_line(&line(o))).collect();
        let stats = s.shared().stats();
        assert_eq!(stats[Counter::CacheMisses], 1, "variants share one plan");
        assert_eq!(stats[Counter::PlanTextHits], 0);
        for (o, before) in variants.iter().zip(&first) {
            let again = s.handle_line(&line(o));
            let hit = untimed(before)
                .replace(r#""cached": false"#, r#""cached": true"#)
                .replace(r#""cache_hit": false"#, r#""cache_hit": true"#);
            assert_eq!(untimed(&again), hit);
            ok_field(&again, r#""answers": [["x"], ["y"]]"#);
        }
        let stats = s.shared().stats();
        assert_eq!(stats[Counter::CacheMisses], 1);
        assert_eq!(stats[Counter::PlanTextHits], 4);
        assert_eq!(
            stats[Counter::CacheHits],
            3 + 4,
            "every hit counts in cache_hits"
        );
        // A session query over the same texts hits the memo too.
        let session = r#"{"ontology": "A sub B\nB sub C", "query": "C", "session": true}"#;
        ok_field(&s.handle_line(session), r#""answers": []"#);
        assert_eq!(s.shared().stats()[Counter::PlanTextHits], 5);
    }

    #[test]
    fn served_omq_does_not_admit_an_out_of_signature_query() {
        let mut s = ServeSession::with_threads(1);
        let served = r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#;
        ok_field(&s.handle_line(served), r#""answers": [["x"]]"#);
        ok_field(&s.handle_line(served), r#""cached": true"#);
        // `X` is interned by another OMQ; the served ontology's text with
        // `X` as its query is still refused, every time.
        s.handle_line(r#"{"ontology": "X sub Y", "query": "Y", "abox": "X(q)"}"#);
        let line = r#"{"ontology": "A sub B", "query": "X", "abox": "X(c)\nA(d)"}"#;
        for _ in 0..2 {
            ok_field(
                &s.handle_line(line),
                r#"bad request: query relation \"X\" does not occur in the ontology"#,
            );
        }
        // Refusals are never memoized, and the served text still hits.
        assert_eq!(s.shared().stats()[Counter::PlanTextHits], 1);
        ok_field(&s.handle_line(served), r#""answers": [["x"]]"#);
        assert_eq!(s.shared().stats()[Counter::PlanTextHits], 2);
    }

    #[test]
    fn session_ops_roundtrip() {
        let mut s = ServeSession::with_threads(1);
        let a1 = s.handle_line(r#"{"id": "a1", "op": "assert", "abox": "Manager(ada)"}"#);
        ok_field(&a1, "\"status\": \"ok\"");
        ok_field(&a1, "\"op\": \"assert\"");
        ok_field(&a1, "\"added\": 1, \"facts\": 1");
        let q1 = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q1, r#"[["ada"]]"#);
        let m = s.handle_line(r#"{"op": "mark"}"#);
        ok_field(&m, "\"op\": \"mark\"");
        ok_field(&m, "\"mark\": 0");
        s.handle_line(r#"{"op": "assert", "abox": "Manager(bob)"}"#);
        let q2 = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q2, r#"[["ada"], ["bob"]]"#);
        let rb = s.handle_line(r#"{"op": "rollback", "mark": 0}"#);
        ok_field(&rb, "\"op\": \"rollback\"");
        ok_field(&rb, "\"facts\": 1");
        let q3 = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q3, r#"[["ada"]]"#);
        // Bad mutations are structured errors, not session killers.
        let bad = s.handle_line(r#"{"op": "rollback", "mark": 99}"#);
        ok_field(&bad, "unknown mark 99");
        let unknown = s.handle_line(r#"{"op": "defragment"}"#);
        ok_field(&unknown, "unknown op");
        let mixed = s.handle_line(
            r#"{"ontology": "A sub B", "query": "B", "session": true, "abox": "A(x)"}"#,
        );
        ok_field(&mixed, "cannot be combined");
        for resp in [&a1, &q1, &m, &q2, &rb, &q3, &bad, &unknown, &mixed] {
            assert!(crate::json::parse(resp).is_ok(), "not JSON: {resp}");
        }
    }

    #[test]
    fn session_queries_hit_maintained_views() {
        let mut s = ServeSession::with_threads(1);
        s.handle_line(r#"{"op": "assert", "abox": "A(ada)"}"#);
        let q = r#"{"ontology": "A sub B", "query": "B", "session": true}"#;
        // First session query builds and registers the view.
        let q1 = s.handle_line(q);
        ok_field(&q1, r#"[["ada"]]"#);
        ok_field(&q1, "\"maintained\": false");
        let st1 = stats_op(&mut s);
        ok_field(&st1, "\"views_active\": 1");
        ok_field(&st1, "\"ivm_maintained_hits\": 0");
        // Repeat: answered from the maintained view (incremental sync
        // over the one new fact, not a from-scratch fixpoint).
        s.handle_line(r#"{"op": "assert", "abox": "A(bob)"}"#);
        let q2 = s.handle_line(q);
        ok_field(&q2, r#"[["ada"], ["bob"]]"#);
        ok_field(&q2, "\"maintained\": true");
        ok_field(&stats_op(&mut s), "\"ivm_maintained_hits\": 1");
        assert_eq!(s.engine().stats()[Counter::IvmMaintainedHits], 1);
        // A rollback maintains the view (DRed), so the next query is
        // still a hit and still agrees with the rolled-back store.
        let m = s.handle_line(r#"{"op": "mark"}"#);
        ok_field(&m, "\"mark\": 0");
        s.handle_line(r#"{"op": "assert", "abox": "A(eve)\nA(pat)"}"#);
        let q3 = s.handle_line(q);
        ok_field(&q3, r#"[["ada"], ["bob"], ["eve"], ["pat"]]"#);
        s.handle_line(r#"{"op": "rollback", "mark": 0}"#);
        let q4 = s.handle_line(q);
        ok_field(&q4, r#"[["ada"], ["bob"]]"#);
        ok_field(&q4, "\"maintained\": true");
        assert!(
            s.engine().stats()[Counter::IvmDeleted] > 0,
            "rollback must DRed"
        );
        for resp in [&q1, &q2, &q3, &q4] {
            assert!(crate::json::parse(resp).is_ok(), "not JSON: {resp}");
        }
    }

    #[test]
    fn disabled_views_fall_back_to_recompute() {
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            max_views: 0,
            ..ServeConfig::default()
        });
        s.handle_line(r#"{"op": "assert", "abox": "A(ada)"}"#);
        let q = r#"{"ontology": "A sub B", "query": "B", "session": true}"#;
        for _ in 0..2 {
            let resp = s.handle_line(q);
            ok_field(&resp, r#"[["ada"]]"#);
            ok_field(&resp, "\"maintained\": false");
            ok_field(&stats_op(&mut s), "\"views_active\": 0");
        }
        assert_eq!(s.engine().stats()[Counter::IvmMaintainedHits], 0);
    }

    #[test]
    fn session_constants_survive_scope_rollback() {
        let mut s = ServeSession::with_threads(1);
        s.handle_line(r#"{"op": "assert", "abox": "Manager(ada)"}"#);
        // Plain per-request ABoxes still roll their constants back...
        for i in 0..50 {
            s.handle_line(&format!(
                r#"{{"ontology": "A sub B", "query": "B", "abox": "A(tmp{i})"}}"#
            ));
        }
        // ...but the session fact still renders its constant by name.
        let q = s.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        ok_field(&q, r#"[["ada"]]"#);
    }

    #[test]
    fn durable_session_recovers_across_restart() {
        let dir = ScratchDir::new("serve-recover");
        let config = || ServeConfig {
            threads: 1,
            data_dir: Some(dir.to_path_buf()),
            snapshot_every: 2,
            ..ServeConfig::default()
        };
        let q = r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#;
        let alive = {
            let mut s = ServeSession::with_config(config());
            s.handle_line(r#"{"op": "assert", "abox": "Manager(ada)"}"#);
            s.handle_line(r#"{"op": "assert", "abox": "Manager(bob)\nEmployee(eve)"}"#);
            s.handle_line(r#"{"op": "assert", "abox": "Manager(pat)"}"#);
            s.handle_line(q)
        };
        ok_field(&alive, r#"[["ada"], ["bob"], ["eve"], ["pat"]]"#);
        // "Restart": fresh shared state over the same data directory.
        let (shared, recovery) = ServeShared::try_with_config(config()).unwrap();
        let info = recovery.expect("a data dir was configured");
        assert_eq!(
            info.snapshot_facts + info.replayed_facts,
            4,
            "recovery must rebuild all four facts: {info:?}"
        );
        let mut s2 = ServeSession::with_shared(Arc::new(shared));
        let revived = s2.handle_line(q);
        ok_field(&revived, r#"[["ada"], ["bob"], ["eve"], ["pat"]]"#);
        ok_field(&stats_op(&mut s2), "\"session_facts\": 4");
    }

    #[test]
    fn failing_plan_is_quarantined_but_others_serve() {
        let mut s = ServeSession::with_config(ServeConfig {
            threads: 1,
            quarantine_after: 3,
            ..ServeConfig::default()
        });
        let chain = "C0 sub C1\nC1 sub C2\nC2 sub C3";
        let hot = format!(
            r#"{{"ontology": "{chain}", "query": "C3", "abox": "C0(a)\nC0(b)\nC0(c)", "limits": {{"max_derived": 2}}}}"#
        );
        for _ in 0..3 {
            let resp = s.handle_line(&hot);
            ok_field(&resp, "\"status\": \"overloaded\"");
        }
        // The breaker is open now: even a request with no limits at all
        // is refused before evaluation.
        let blocked = s.handle_line(&format!(
            r#"{{"id": "q", "ontology": "{chain}", "query": "C3", "abox": "C0(a)"}}"#
        ));
        ok_field(&blocked, "\"status\": \"quarantined\"");
        ok_field(&blocked, "\"id\": \"q\"");
        ok_field(&blocked, "quarantined after 3 evaluation failures");
        assert!(crate::json::parse(&blocked).is_ok());
        // A different OMQ is unaffected.
        let other = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&other, "\"status\": \"ok\"");
        let stats = s.engine().stats();
        assert_eq!(stats[Counter::BreakerTrips], 1);
        assert_eq!(stats[Counter::Quarantined], 1);
    }

    #[test]
    fn expired_deadline_is_refused_at_admission() {
        let mut s = ServeSession::with_threads(1);
        // Warm the plan so the rounds counter below isolates evaluation.
        s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        let rounds_before = s.engine().stats()[Counter::Rounds];
        // Far more expired requests than the quarantine threshold: none
        // may enter the executor or count against the plan's breaker.
        for _ in 0..10 {
            let resp = s.handle_line(
                r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)", "limits": {"timeout_ms": 0}}"#,
            );
            ok_field(&resp, "\"status\": \"overloaded\"");
            ok_field(&resp, "\"limit\": \"deadline\"");
        }
        assert_eq!(s.engine().stats()[Counter::Rounds], rounds_before);
        assert_eq!(s.engine().stats()[Counter::Overloaded], 10);
        let fine = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&fine, "\"status\": \"ok\"");
    }

    #[test]
    fn capped_reader_frames_and_refuses() {
        use std::io::Cursor;
        let framer = |bytes: Vec<u8>, cap| CappedLineReader::new(Cursor::new(bytes), cap);
        let mut r = framer(b"short\r\nanother line\n".to_vec(), 64);
        assert_eq!(r.poll_line().unwrap(), Some(LineRead::Line("short".into())));
        assert_eq!(
            r.poll_line().unwrap(),
            Some(LineRead::Line("another line".into()))
        );
        assert_eq!(r.poll_line().unwrap(), Some(LineRead::Eof));
        // An oversized line is refused and the stream resyncs at its
        // newline; the following request is intact.
        let huge = "x".repeat(1 << 16);
        let mut r = framer(format!("{huge}\nnext\n").into_bytes(), 1024);
        assert_eq!(
            r.poll_line().unwrap(),
            Some(LineRead::TooLong { limit: 1024 })
        );
        assert_eq!(r.poll_line().unwrap(), Some(LineRead::Line("next".into())));
        // Exactly at the cap passes; one byte past it does not.
        let mut r = framer(b"abcd\nabcde\n".to_vec(), 4);
        assert_eq!(r.poll_line().unwrap(), Some(LineRead::Line("abcd".into())));
        assert_eq!(r.poll_line().unwrap(), Some(LineRead::TooLong { limit: 4 }));
        // Unterminated oversized tail at EOF is still refused.
        let mut r = framer(huge.into_bytes(), 1024);
        assert_eq!(
            r.poll_line().unwrap(),
            Some(LineRead::TooLong { limit: 1024 })
        );
        assert_eq!(r.poll_line().unwrap(), Some(LineRead::Eof));
        // The refusal the serve loop emits for such a line is valid JSON.
        let refusal = refuse_oversized_line(1024);
        assert!(refusal.contains("\"status\": \"malformed\""));
        assert!(crate::json::parse(&refusal).is_ok());
    }

    /// A [`BufRead`] replaying a script of chunks and injected errors,
    /// for driving [`CappedLineReader`] through timeout ticks at exact
    /// chunk boundaries.
    struct ScriptedReader {
        script: std::collections::VecDeque<std::io::Result<Vec<u8>>>,
        current: Vec<u8>,
        pos: usize,
    }

    impl ScriptedReader {
        fn new(script: Vec<std::io::Result<Vec<u8>>>) -> Self {
            ScriptedReader {
                script: script.into_iter().collect(),
                current: Vec::new(),
                pos: 0,
            }
        }
    }

    impl std::io::Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk = self.fill_buf()?;
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl std::io::BufRead for ScriptedReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pos >= self.current.len() {
                match self.script.pop_front() {
                    Some(Ok(bytes)) => {
                        self.current = bytes;
                        self.pos = 0;
                    }
                    Some(Err(e)) => return Err(e),
                    None => return Ok(&[]),
                }
            }
            Ok(&self.current[self.pos..])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn capped_reader_discard_state_survives_timeout_tick_at_chunk_boundary() {
        use std::io::{Error, ErrorKind};
        // An oversized line arrives in two chunks with a read-timeout
        // tick landing exactly on the boundary between them — i.e.
        // after the discarding reader consumed the first chunk in full,
        // with nothing buffered. The partial-discard state must survive
        // the tick: the line's tail must still be refused as TooLong,
        // never surfaced as a truncated Line.
        let cap = 8;
        let mut framer = CappedLineReader::new(
            ScriptedReader::new(vec![
                Ok(b"0123456789abcdef".to_vec()), // > cap, no newline yet
                Err(Error::new(ErrorKind::TimedOut, "tick")),
                Ok(b"tail\nnext\n".to_vec()),
            ]),
            cap,
        );
        assert_eq!(framer.poll_line().unwrap(), None, "tick yields no frame");
        assert_eq!(
            framer.poll_line().unwrap(),
            Some(LineRead::TooLong { limit: cap }),
            "discard state was lost across the timeout tick"
        );
        assert_eq!(
            framer.poll_line().unwrap(),
            Some(LineRead::Line("next".into())),
            "stream must resync after the refused line"
        );
        assert_eq!(framer.poll_line().unwrap(), Some(LineRead::Eof));

        // Same boundary condition at EOF: a tick, then the stream ends
        // mid-discard — still a refusal, not a phantom empty line.
        let mut framer = CappedLineReader::new(
            ScriptedReader::new(vec![
                Ok(b"0123456789abcdef".to_vec()),
                Err(Error::new(ErrorKind::TimedOut, "tick")),
            ]),
            cap,
        );
        assert_eq!(framer.poll_line().unwrap(), None);
        assert_eq!(
            framer.poll_line().unwrap(),
            Some(LineRead::TooLong { limit: cap })
        );
        assert_eq!(framer.poll_line().unwrap(), Some(LineRead::Eof));
    }

    #[test]
    fn sql_backend_answers_match_native() {
        let mut s = ServeSession::with_threads(2);
        let ontology = "Manager sub Employee\nEmployee sub Staff";
        let abox = "Manager(ada)\nEmployee(grace)";
        let mut req = String::from(r#"{"ontology": "#);
        json::write_str(&mut req, ontology);
        req.push_str(r#", "query": "Staff", "abox": "#);
        json::write_str(&mut req, abox);
        req.push_str(r#", "backend": "sql"}"#);
        let served = s.handle_line(&req);
        ok_field(&served, "\"status\": \"ok\"");
        ok_field(&served, r#"[["ada"], ["grace"]]"#);
        assert!(crate::json::parse(&served).is_ok());
        // The served plan, evaluated on the SQL backend, gives the same
        // answers the native path served.
        let mut vocab = lock_recover(&s.shared.vocab);
        let o = to_gf(&parse_ontology(ontology, &mut vocab).unwrap());
        let staff = vocab.find_rel("Staff").unwrap();
        let (plan, hit, _) = s.engine().plan(&o, staff, &mut vocab);
        assert!(hit, "the served request compiled and cached the plan");
        let plan = plan.unwrap();
        let sql = plan.sql.as_ref().expect("hierarchy plans are acyclic");
        let instance = gomq_core::parse::parse_instance(abox, &mut vocab).unwrap();
        let indexed = gomq_core::IndexedInstance::from_interpretation(&instance);
        let rows =
            crate::backend::sql::eval_sql_budgeted(sql, &indexed, &vocab, &Budget::UNLIMITED)
                .unwrap();
        let names: BTreeSet<&str> = rows
            .iter()
            .map(|row| match row.as_slice() {
                [Term::Const(c)] => vocab.const_name(*c),
                other => panic!("unexpected SQL row {other:?}"),
            })
            .collect();
        assert_eq!(names, BTreeSet::from(["ada", "grace"]));
    }

    #[test]
    fn bad_backend_requests_are_typed_errors() {
        let mut s = ServeSession::with_threads(1);
        let base = r#""ontology": "A sub B", "query": "B""#;
        // A "backend" field changes nothing about which input
        // combinations are refused: each is still a typed error.
        for (inputs, needle) in [
            (
                r#""abox": "A(x)", "backend": "sql", "aboxes": ["A(y)"]"#,
                r#"\"abox\" cannot be combined with \"aboxes\""#,
            ),
            (
                r#""aboxes": ["A(x)"], "backend": "sql", "certificate": true"#,
                r#"\"certificate\": true cannot be combined with \"aboxes\""#,
            ),
            (
                r#""session": true, "backend": "sql", "abox": "A(x)""#,
                r#"\"session\": true cannot be combined"#,
            ),
        ] {
            let resp = s.handle_line(&format!(r#"{{{base}, {inputs}}}"#));
            ok_field(&resp, "\"status\": \"error\"");
            ok_field(&resp, needle);
            assert!(crate::json::parse(&resp).is_ok(), "not JSON: {resp}");
        }
        // The session still answers afterwards.
        let good = s.handle_line(&format!(r#"{{{base}, "abox": "A(x)", "backend": "sql"}}"#));
        ok_field(&good, "\"status\": \"ok\"");
        ok_field(&good, r#"[["x"]]"#);
    }

    #[test]
    fn illegal_query_inputs_are_refused_before_planning() {
        let mut s = ServeSession::with_threads(1);
        let omq = r#""ontology": "A sub B", "query": "B""#;
        for (inputs, needle) in [
            (
                r#""aboxes": ["A(x)"], "certificate": true"#,
                r#"\"certificate\": true cannot be combined with \"aboxes\""#,
            ),
            (
                r#""session": true, "abox": "A(x)""#,
                r#"\"session\": true cannot be combined"#,
            ),
            (
                r#""session": true, "aboxes": ["A(x)"]"#,
                r#"\"session\": true cannot be combined"#,
            ),
            (
                r#""abox": "A(x)", "aboxes": ["A(y)"]"#,
                r#"\"abox\" cannot be combined with \"aboxes\""#,
            ),
        ] {
            let resp = s.handle_line(&format!(r#"{{"id": "bad", {omq}, {inputs}}}"#));
            ok_field(&resp, "\"status\": \"error\"");
            ok_field(&resp, "\"id\": \"bad\"");
            ok_field(&resp, needle);
            assert!(crate::json::parse(&resp).is_ok(), "not JSON: {resp}");
        }
        // Every refusal came from the one request parser: no plan was
        // looked up, let alone compiled.
        let totals = s.engine().stats();
        assert_eq!(
            (totals[Counter::CacheMisses], totals[Counter::CacheHits]),
            (0, 0)
        );
        // "backend" is not part of the protocol: like any unknown field
        // it is ignored, and the query is answered natively.
        let plain = s.handle_line(&format!(r#"{{{omq}, "abox": "A(x)"}}"#));
        let with_backend =
            s.handle_line(&format!(r#"{{{omq}, "abox": "A(x)", "backend": "sql"}}"#));
        ok_field(&with_backend, "\"status\": \"ok\"");
        ok_field(&with_backend, r#""answers": [["x"]]"#);
        assert!(!with_backend.contains("\"backend\""), "{with_backend}");
        let answers = |r: &str| {
            let from = r.find("\"answers\": ").unwrap();
            r[from..r.find(", \"stats\"").unwrap()].to_string()
        };
        assert_eq!(answers(&plain), answers(&with_backend));
    }

    #[test]
    fn fragment_field_surfaces_classification() {
        let mut s = ServeSession::with_threads(1);
        let resp = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
        ok_field(&resp, "\"fragment\": ");
        ok_field(&resp, "\"zone\": ");
        assert!(crate::json::parse(&resp).is_ok());
    }

    #[test]
    fn abox_constants_are_rolled_back_between_requests() {
        let mut s = ServeSession::with_threads(1);
        let baseline = {
            // Warm up the OMQ so only ABox constants vary below.
            s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(seed)"}"#);
            lock_recover(&s.shared.vocab).const_mark()
        };
        for i in 0..100 {
            let resp = s.handle_line(&format!(
                r#"{{"ontology": "A sub B", "query": "B", "abox": "A(fresh{i})"}}"#
            ));
            ok_field(&resp, &format!(r#"[["fresh{i}"]]"#));
        }
        assert_eq!(lock_recover(&s.shared.vocab).const_mark(), baseline);
    }
}
