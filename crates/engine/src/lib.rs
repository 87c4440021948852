//! # gomq-engine
//!
//! A caching, indexed, parallel OMQ serving engine on top of the
//! dichotomy machinery.
//!
//! The research crates answer one OMQ against one instance from
//! scratch: classify the ontology, run type elimination, emit the
//! Datalog≠ rewriting (Theorem 5), evaluate. A serving workload poses
//! the *same* few OMQs against a *stream* of ABoxes, which makes that
//! pipeline mostly redundant work. This crate restructures it:
//!
//! * [`plan`] — an [`OmqPlan`] bundles the classification verdict, the
//!   element-type system with its bitset kernel, the optimized
//!   rewriting, compiled once, and its SCC stratification
//!   ([`LazyStrata`]), built on the first read that needs it.
//! * [`cache`] — a [`PlanCache`] keyed by the canonical OMQ hash
//!   (`gomq_rewriting::canonical_omq_hash`) but *verified* against the
//!   full canonical text (hash collisions can never serve the wrong
//!   plan), with negative caching of non-rewritable OMQs, single-flight
//!   deduplication of concurrent compilations, and a capacity bound
//!   enforced by LRU eviction.
//! * [`backend`] — the executors behind one backend-agnostic
//!   [`gomq_datalog::ir::PlanIr`]: [`backend::native`], stratified
//!   semi-naive evaluation over [`gomq_core::IndexedInstance`]
//!   (hash probes on every argument position, scoped-thread parallelism across
//!   rule partitions within a round and across ABoxes within a batch,
//!   governed by a cooperative [`gomq_datalog::Budget`]), the reference
//!   the type kernel is checked against and the benchmark replays; and
//!   [`backend::sql`], which runs the portable SQL emitted from a plan
//!   on demand via the dependency-free `gomq-sqlexec` executor — the
//!   SQL text is an artifact for relational engines (`gomq-sql`) and
//!   its in-process execution the oracle the native engine is
//!   cross-checked against. Neither is on the serving path.
//! * [`engine`] — the [`Engine`] facade tying cache, type kernel and the
//!   [`Counter`] table together behind one answer method,
//!   [`Engine::answer`]: one ABox or a batch, under a budget, answered
//!   by the plan's type kernel.
//! * [`mod@certify`] — certificates, each cut from a recording
//!   [`gomq_datalog::Materialization`] of the plan's rewriting
//!   ([`certify()`]): built for one request ABox, maintained for a
//!   session, or built once over the session store when view
//!   maintenance is off.
//! * [`serve`] + the `gomq-serve` binary — a JSONL stdin/stdout
//!   protocol: one `{ontology, query, abox | aboxes | session}` request
//!   per line (optional `"certificate"` and `"limits"`), one
//!   answer+stats response per line; `{"op": "stats"}` reads the
//!   cumulative totals.
//!   Blown budgets answer `"status": "overloaded"`; panics in
//!   compilation or evaluation are caught and isolated, and poisoned
//!   locks are recovered, so a hostile line can never take the session
//!   down or wedge its siblings.
//! * [`net`] + [`drain`] — the TCP front end (`gomq-serve --listen`):
//!   a multi-connection accept loop speaking the same JSONL protocol,
//!   each request evaluated on its connection's thread behind a bounded
//!   admission gate (wait line full ⇒ typed `"overloaded"` refusals),
//!   connection caps, idle timeouts, and
//!   graceful drain on SIGTERM ([`DrainToken`]): in-flight requests
//!   finish, the WAL is fsynced and a final snapshot cut.
//! * [`repl`] — primary/replica replication (`gomq-serve
//!   --replicate-to` / `--follow`): the primary ships checksummed WAL
//!   frames, and a snapshot first to any replica behind its retained
//!   log (a fresh follower's first connection included); replicas
//!   serve session reads with a per-request `"staleness"` lsn lag
//!   bounded by `--max-staleness-lsn`, and failover promotes a
//!   replica via a `promote` op or `--promote-on-disconnect`, stamping
//!   an epoch into the WAL that fences the old primary.
//!
//! The executor is answer-equivalent to the reference
//! [`gomq_datalog::Program::eval`]; `tests/engine_props.rs` checks this
//! property on random programs and instances, including across
//! cache-hit re-evaluation.

#![warn(missing_docs)]

pub mod backend;
pub mod cache;
pub mod certify;
pub mod drain;
pub mod engine;
pub mod faults;
pub mod json;
pub mod net;
pub mod plan;
pub mod repl;
#[doc(hidden)]
pub mod scratch;
pub mod serve;
pub mod session;
pub mod stats;
pub mod wal;

pub use backend::native::{eval_strata, eval_strata_budgeted, Strata};
pub use cache::{PlanCache, PlanOutcome};
pub use certify::{certify, emit_certificate, CertSource, CertifyError};
pub use drain::DrainToken;
pub use engine::{Answered, Engine, Input};
pub use gomq_datalog::{Budget, BudgetExceeded, LimitKind};
pub use net::{NetConfig, NetReport, NetServer};
pub use plan::{EngineError, LazyStrata, OmqPlan};
pub use repl::{FollowConfig, ReplContext, ReplHub, ReplServer, Role};
pub use serve::{
    handle_connection, CappedLineReader, ConnClose, ConnControl, ConnOutcome, Limits, LineRead,
    ServeConfig, ServeSession, ServeShared,
};
pub use session::{
    DurableSession, MutationInfo, PersistOptions, RecoveryInfo, SessionError, ViewMaintenance,
    ViewRegistry, DEFAULT_MAX_VIEWS,
};
pub use stats::{Counter, EngineStats, RequestStats};
pub use wal::{SymFact, SymTerm, Wal, WalRecord};
