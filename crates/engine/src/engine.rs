//! The engine facade: cache + executor + statistics.

use crate::backend::native::par_map;
use crate::cache::{lock_recover, PlanCache, PlanOutcome};
use crate::plan::{EngineError, OmqPlan};
use crate::stats::{nanos, Counter, EngineStats, RequestStats};
use gomq_core::{FactId, FactStore, IndexedInstance, RelId, Term, Vocab};
use gomq_datalog::Budget;
use gomq_logic::GfOntology;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Per-plan circuit-breaker state: consecutive evaluation failures and
/// whether the breaker has latched open.
#[derive(Clone, Copy, Debug, Default)]
struct Breaker {
    failures: u32,
    open: bool,
}

/// What one [`Engine::answer`] call evaluates over.
#[derive(Clone, Copy, Debug)]
pub enum Input<'a> {
    /// One ABox.
    One(&'a FactStore),
    /// A batch of ABoxes, evaluated concurrently (one worker per ABox,
    /// work-stealing).
    Batch(&'a [FactStore]),
}

/// How [`Engine::answer`] evaluates: the resource budget and, for one
/// ABox, the certificate request. The default is unlimited and
/// uncertified.
#[derive(Clone, Copy, Debug, Default)]
pub struct Options<'a> {
    /// The cooperative resource budget (per ABox in a batch).
    pub budget: Budget,
    /// Attach a derivation certificate (one ABox only).
    pub certify: Option<Certify<'a>>,
}

/// A certificate request: the vocabulary to render the certificate
/// with and the session position to bind it to.
#[derive(Clone, Copy, Debug)]
pub struct Certify<'a> {
    /// The vocabulary the plan and ABox were interned in.
    pub vocab: &'a Mutex<Vocab>,
    /// The session position `(lsn, base)` the ABox snapshots, or `None`
    /// when the ABox came with the request.
    pub snapshot: Option<(u64, u64)>,
}

/// The result of one [`Engine::answer`] call.
#[derive(Clone, Debug)]
pub struct Answered {
    /// One answer list per input ABox, in input order. A served query
    /// is unary (its goal is `_goal/1`), so each answer is one term;
    /// every list is sorted, each answer once.
    pub answers: Vec<Vec<Term>>,
    /// The derivation certificate, when one was requested.
    pub certificate: Option<String>,
    /// The request's statistics (summed over a batch).
    pub stats: RequestStats,
}

/// The answers a set of `_goal` facts carries, as [`Answered`] lists
/// them: the goal's one term per fact, sorted.
pub(crate) fn goal_answers(store: &FactStore, goal_ids: &[u32]) -> Vec<Term> {
    let mut answers: Vec<Term> = goal_ids
        .iter()
        .map(|&id| match store.args(FactId(id)) {
            [t] => *t,
            args => unreachable!("the goal is unary, got {} terms", args.len()),
        })
        .collect();
    answers.sort_unstable();
    answers
}

/// The refusal for a certificate requested over a batch.
pub(crate) const CERTIFY_BATCH: &str =
    "\"certificate\": true cannot be combined with \"aboxes\" (certify one ABox per request)";

/// A caching, indexed, parallel OMQ serving engine.
///
/// One `Engine` owns a [`PlanCache`] and a thread budget; it is shared
/// per serving process, together with a single [`Vocab`] (plans hold
/// interned relation ids, so a plan compiled under one vocabulary must
/// not be evaluated under another). For concurrent use, share the vocab
/// behind a [`Mutex`] and plan through [`Engine::plan_shared`] — the
/// cache deduplicates concurrent compilations of the same OMQ.
pub struct Engine {
    cache: PlanCache,
    threads: usize,
    /// One slot per [`Counter`]; the cache-, fault- and session-owned
    /// slots stay 0 and are read from their owners at snapshot time.
    counters: [AtomicU64; Counter::COUNT],
    /// Plan key → breaker state. A plan whose evaluation fails
    /// (panics or blows its budget) `quarantine_after` times is refused
    /// further evaluation ([`EngineError::Quarantined`]); the breaker is
    /// sticky for the engine's lifetime.
    breakers: Mutex<HashMap<u64, Breaker>>,
    /// Failures before a plan's breaker opens; 0 disables quarantine.
    quarantine_after: AtomicU32,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An engine sized to the machine's available parallelism.
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_threads(threads)
    }

    /// An engine with an explicit worker budget (1 = sequential).
    pub fn with_threads(threads: usize) -> Self {
        Self::with_cache(threads, PlanCache::new())
    }

    /// An engine with an explicit worker budget and plan cache (used to
    /// configure the cache capacity, and by tests to inject a colliding
    /// hash function).
    pub fn with_cache(threads: usize, cache: PlanCache) -> Self {
        Engine {
            cache,
            threads: threads.max(1),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            breakers: Mutex::new(HashMap::new()),
            quarantine_after: AtomicU32::new(0),
        }
    }

    /// Sets how many evaluation failures open a plan's circuit breaker
    /// (0 disables quarantine — the default for directly constructed
    /// engines; the serving layer enables it).
    pub fn set_quarantine_after(&self, n: u32) {
        self.quarantine_after.store(n, Ordering::Relaxed);
    }

    /// Checks the plan's circuit breaker before evaluation. Returns the
    /// failure count if the breaker is open (the request must be refused
    /// with [`EngineError::Quarantined`]); counts the refusal.
    pub fn quarantine_reject(&self, key: u64) -> Option<u32> {
        let b = *lock_recover(&self.breakers).get(&key)?;
        if !b.open {
            return None;
        }
        self.add(Counter::Quarantined, 1);
        Some(b.failures)
    }

    /// Attributes one evaluation failure (panic or blown budget) to a
    /// plan. Returns `true` if this failure tripped the breaker open.
    pub fn record_eval_failure(&self, key: u64) -> bool {
        let threshold = self.quarantine_after.load(Ordering::Relaxed);
        if threshold == 0 {
            return false;
        }
        let mut breakers = lock_recover(&self.breakers);
        let b = breakers.entry(key).or_default();
        b.failures = b.failures.saturating_add(1);
        if !b.open && b.failures >= threshold {
            b.open = true;
            drop(breakers);
            self.add(Counter::BreakerTrips, 1);
            return true;
        }
        false
    }

    /// Records a successful evaluation: resets the plan's failure count
    /// unless its breaker already latched open (quarantine is sticky).
    pub fn record_eval_success(&self, key: u64) {
        let mut breakers = lock_recover(&self.breakers);
        if let Some(b) = breakers.get_mut(&key) {
            if !b.open {
                b.failures = 0;
            }
        }
    }

    /// The engine's plan cache.
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Fetches or compiles the plan for `(o, query)`. The boolean is
    /// `true` on a cache hit; compile wall time is accounted either way.
    ///
    /// Convenience wrapper over [`Engine::plan_shared`] for exclusive
    /// (single-threaded) vocabulary access.
    pub fn plan(
        &self,
        o: &GfOntology,
        query: RelId,
        vocab: &mut Vocab,
    ) -> (PlanOutcome, bool, std::time::Duration) {
        let shared = Mutex::new(std::mem::take(vocab));
        let result = self.plan_shared(o, query, &shared);
        *vocab = shared.into_inner().unwrap_or_else(|e| e.into_inner());
        result
    }

    /// Fetches or compiles the plan for `(o, query)` against a shared
    /// vocabulary. Concurrent requests for the same new OMQ compile it
    /// exactly once (single flight); the vocab lock is held only while
    /// hashing and compiling, never while waiting.
    pub fn plan_shared(
        &self,
        o: &GfOntology,
        query: RelId,
        vocab: &Mutex<Vocab>,
    ) -> (PlanOutcome, bool, std::time::Duration) {
        let t0 = Instant::now();
        let (outcome, hit) = self.cache.get_or_compile(o, query, vocab);
        (outcome, hit, t0.elapsed())
    }

    /// Fetches or compiles the plan for a request's raw `(ontology,
    /// query)` texts. Texts planned before are served from the cache's
    /// text memo without calling `resolve`. Otherwise `resolve` parses
    /// them and validates the query; its refusal is returned as it is
    /// and never memoized. A resolved OMQ is planned as by
    /// [`Engine::plan_shared`] and its texts are memoized. The duration
    /// is the wall time of the memo lookup or of the plan lookup or
    /// compilation, not of `resolve`.
    pub fn plan_text(
        &self,
        ontology: &str,
        query: &str,
        vocab: &Mutex<Vocab>,
        resolve: impl FnOnce() -> Result<(GfOntology, RelId), EngineError>,
    ) -> Result<(PlanOutcome, bool, std::time::Duration), EngineError> {
        let t0 = Instant::now();
        if let Some(outcome) = self.cache.get_text(ontology, query) {
            return Ok((outcome, true, t0.elapsed()));
        }
        let (o, rel) = resolve()?;
        let t0 = Instant::now();
        let (outcome, hit) = self
            .cache
            .get_or_compile_text(&o, rel, vocab, (ontology, query));
        Ok((outcome, hit, t0.elapsed()))
    }

    /// Answers one plan against one ABox or a batch of ABoxes, under
    /// the cooperative budget in `opts` (a batch shares its deadline;
    /// the first blown budget fails the whole batch) and, for one ABox,
    /// optionally with a derivation certificate. The request's stats
    /// are folded into the cumulative totals exactly once; a blown
    /// budget returns [`EngineError::Overloaded`] and counts in
    /// [`Counter::Overloaded`], leaving the engine fully
    /// serviceable. A certificate covers one ABox: certify + batch is
    /// refused as a [`EngineError::BadRequest`].
    ///
    /// Uncertified answers come from the plan's type kernel
    /// ([`gomq_rewriting::ElementTypeSystem::answer`]), which answers
    /// exactly what the plan's Datalog≠ program would; `rounds` and
    /// `derived` then count kernel rounds and the `_elim`/`_dom`/`_goal`
    /// facts the program would derive.
    pub fn answer(
        &self,
        plan: &OmqPlan,
        input: Input<'_>,
        opts: &Options<'_>,
    ) -> Result<Answered, EngineError> {
        let answered = match (input, &opts.certify) {
            (Input::One(abox), Some(certify)) => self.certified_eval(plan, abox, opts, certify)?,
            (Input::Batch(_), Some(_)) => {
                return Err(EngineError::BadRequest(CERTIFY_BATCH.into()))
            }
            (input, None) => {
                let t0 = Instant::now();
                let kernel = |abox: &FactStore| plan.types.answer(abox, plan.query, &opts.budget);
                let results = match input {
                    Input::One(abox) => vec![kernel(abox)],
                    Input::Batch(aboxes) => par_map(aboxes, self.threads, kernel),
                };
                let mut stats = RequestStats::default();
                let mut answers = Vec::with_capacity(results.len());
                for result in results {
                    let (ans, es) = result.map_err(|e| self.overloaded(e))?;
                    stats.rounds += es.rounds;
                    stats.derived += es.derived;
                    stats.answers += ans.len();
                    answers.push(ans);
                }
                stats.eval = t0.elapsed();
                Answered {
                    answers,
                    certificate: None,
                    stats,
                }
            }
        };
        self.absorb(&answered.stats);
        Ok(answered)
    }

    /// The certified branch of [`Engine::answer`]: evaluation runs the
    /// *traced* flat fixpoint of the plan's Datalog≠ program over the
    /// ABox, indexed on demand, recording one witness per derived
    /// fact; the certificate is then assembled by walking the witnesses
    /// backwards from the goal facts. The vocabulary is locked only
    /// during certificate rendering, never across evaluation.
    fn certified_eval(
        &self,
        plan: &OmqPlan,
        abox: &FactStore,
        opts: &Options<'_>,
        certify: &Certify<'_>,
    ) -> Result<Answered, EngineError> {
        let t0 = Instant::now();
        let abox = IndexedInstance::from_store(abox.clone());
        let base_len = abox.len() as u32;
        let (total, derivs, eval_stats) =
            gomq_datalog::fixpoint_traced(&plan.program.rules, &abox, &opts.budget)
                .map_err(|e| self.overloaded(e))?;
        let goal = plan.program.goal;
        let answer_ids: Vec<u32> = (0..total.len() as u32)
            .filter(|&i| total.store().rel(FactId(i)) == goal)
            .collect();
        let answers = goal_answers(total.store(), &answer_ids);
        let source = crate::certify::CertSource {
            instance: &total,
            rules: &plan.program.rules,
            goal,
            answer_ids: &answer_ids,
            snapshot: certify.snapshot,
        };
        let cert = {
            let vocab = lock_recover(certify.vocab);
            crate::certify::emit_certificate(
                &vocab,
                &source,
                |id| id < base_len,
                |id| derivs[id as usize].as_ref(),
            )
            .map_err(|e| EngineError::Internal(format!("certificate assembly: {e}")))?
        };
        let stats = RequestStats {
            eval: t0.elapsed(),
            rounds: eval_stats.rounds,
            derived: eval_stats.derived,
            answers: answers.len(),
            store: eval_stats.store,
            cert_bytes: cert.len(),
            ..RequestStats::default()
        };
        Ok(Answered {
            answers: vec![answers],
            certificate: Some(cert),
            stats,
        })
    }

    /// Counts a blown budget and wraps it as [`EngineError::Overloaded`].
    pub(crate) fn overloaded(&self, e: gomq_datalog::BudgetExceeded) -> EngineError {
        self.add(Counter::Overloaded, 1);
        EngineError::Overloaded(e)
    }

    /// Adds `n` to a counter (or raises a gauge), saturating at
    /// `u64::MAX`: a pathological workload (or a fault plan lying about
    /// sizes) must skew the telemetry, never panic a debug build
    /// mid-request.
    pub fn add(&self, c: Counter, n: u64) {
        if n > 0 {
            let _ =
                self.counters[c as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_add(n))
                });
        }
    }

    /// Lowers a gauge by `n`, saturating at zero.
    pub fn sub(&self, c: Counter, n: u64) {
        let _ = self.counters[c as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(n))
        });
    }

    /// Overwrites a gauge.
    pub fn set(&self, c: Counter, v: u64) {
        self.counters[c as usize].store(v, Ordering::Relaxed);
    }

    /// Folds one request's statistics into the cumulative totals. The
    /// serving layer calls it for requests answered outside
    /// [`Engine::answer`] (session queries served from or building a
    /// maintained materialization).
    pub fn absorb(&self, r: &RequestStats) {
        self.add(Counter::Requests, 1);
        self.add(Counter::Rounds, r.rounds as u64);
        self.add(Counter::Derived, r.derived as u64);
        self.add(Counter::Answers, r.answers as u64);
        self.add(Counter::CompileNs, nanos(r.compile));
        self.add(Counter::EvalNs, nanos(r.eval));
        self.add(Counter::FactsInterned, r.store.facts);
        self.add(Counter::ArenaBytes, r.store.arena_bytes());
        self.add(Counter::DedupHits, r.store.dedup_hits);
        self.add(Counter::IvmMaintainedHits, u64::from(r.maintained));
        self.add(Counter::IvmDeleted, r.ivm_deleted as u64);
        self.add(Counter::IvmRederived, r.ivm_rederived as u64);
        if r.cert_bytes > 0 {
            self.add(Counter::CertsEmitted, 1);
            self.add(Counter::CertBytes, r.cert_bytes as u64);
        }
    }

    /// A snapshot of the engine-owned totals: its own counters plus the
    /// plan cache's and the fault layer's, read now. The session gauges
    /// (`session_facts`, `views_*`) stay 0 here;
    /// [`crate::ServeShared::stats`] fills them in.
    pub fn stats(&self) -> EngineStats {
        let mut snap = EngineStats(std::array::from_fn(|i| {
            self.counters[i].load(Ordering::Relaxed)
        }));
        snap[Counter::CacheHits] = self.cache.hits();
        snap[Counter::PlanTextHits] = self.cache.text_hits();
        snap[Counter::CacheMisses] = self.cache.misses();
        snap[Counter::CacheEvictions] = self.cache.evictions();
        snap[Counter::InflightWaits] = self.cache.inflight_waits();
        snap[Counter::CacheSize] = self.cache.len() as u64;
        snap[Counter::FaultsInjected] = gomq_core::faults::injected();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::parse::parse_instance;
    use gomq_core::Instance;
    use gomq_dl::parser::parse_ontology;
    use gomq_dl::translate::to_gf;
    use std::sync::Arc;

    /// A unary answer set as [`Answered`] lists it.
    fn listed(tuples: std::collections::BTreeSet<Vec<Term>>) -> Vec<Term> {
        tuples.into_iter().flatten().collect()
    }

    /// One unlimited, uncertified answer over one plain ABox.
    fn eval_one(engine: &Engine, plan: &OmqPlan, abox: &Instance) -> (Vec<Term>, RequestStats) {
        let mut answered = engine
            .answer(plan, Input::One(abox.store()), &Options::default())
            .expect("the unlimited budget cannot be exceeded");
        (answered.answers.remove(0), answered.stats)
    }

    #[test]
    fn end_to_end_answer_with_cache_reuse() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(2);
        let dl = parse_ontology("Manager sub Employee\nEmployee sub Staff\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let staff = v.find_rel("Staff").unwrap();
        let (plan, hit, d1) = engine.plan(&o, staff, &mut v);
        let plan = plan.unwrap();
        engine.add(Counter::CompileNs, nanos(d1));
        assert!(!hit);
        let abox = parse_instance("Manager(ada)\nEmployee(grace)\n", &mut v).unwrap();
        let (answers, rs) = eval_one(&engine, &plan, &abox);
        let ada = Term::Const(v.constant("ada"));
        let grace = Term::Const(v.constant("grace"));
        assert_eq!(answers, [ada, grace]);
        assert_eq!(rs.answers, 2);
        assert!(rs.rounds > 0);
        // Second request for the same OMQ: cache hit, same plan.
        let (plan2, hit2, _) = engine.plan(&o, staff, &mut v);
        assert!(hit2);
        assert!(Arc::ptr_eq(&plan, &plan2.unwrap()));
        let snap = engine.stats();
        assert_eq!(snap[Counter::Requests], 1);
        assert_eq!(snap[Counter::CacheHits], 1);
        assert_eq!(snap[Counter::CacheMisses], 1);
        assert!(snap[Counter::EvalNs] > 0);
    }

    #[test]
    fn typed_answers_match_datalog_path() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(2);
        let dl = parse_ontology(
            "Manager sub Employee\nEmployee sub Staff\nManager sub ex ReportsTo.Employee\n",
            &mut v,
        )
        .unwrap();
        let o = to_gf(&dl);
        let staff = v.find_rel("Staff").unwrap();
        let (plan, _, _) = engine.plan(&o, staff, &mut v);
        let plan = plan.unwrap();
        let abox = parse_instance(
            "Manager(ada)\nEmployee(grace)\nReportsTo(grace,ada)\n",
            &mut v,
        )
        .unwrap();
        let (typed_answers, rs) = eval_one(&engine, &plan, &abox);
        let (datalog_answers, _) = crate::backend::native::eval_strata(
            &plan.strata,
            plan.program.goal,
            &IndexedInstance::from_interpretation(&abox),
            1,
        );
        assert_eq!(typed_answers, listed(datalog_answers));
        // Two domain elements, both answers, at least one kernel round.
        assert_eq!(typed_answers.len(), 2);
        assert!(rs.rounds >= 1);
        assert!(rs.derived >= 2 + typed_answers.len());
    }

    /// Kernel answers against `Program::eval` for one OMQ and ABox.
    fn kernel_vs_program(ontology: &str, query: &str, abox: &str) -> Vec<String> {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(1);
        let o = to_gf(&parse_ontology(ontology, &mut v).unwrap());
        let q = v.find_rel(query).unwrap();
        let (plan, _, _) = engine.plan(&o, q, &mut v);
        let plan = plan.unwrap();
        let d = parse_instance(abox, &mut v).unwrap();
        let (kernel, _) = eval_one(&engine, &plan, &d);
        assert_eq!(
            kernel,
            listed(plan.program.eval(&d)),
            "{ontology} / {query} / {abox}"
        );
        kernel
            .iter()
            .map(|t| match t {
                Term::Const(c) => v.const_name(*c).to_owned(),
                other => panic!("unexpected answer {other:?}"),
            })
            .collect()
    }

    /// Served answers range over the rewriting's `_dom` — terms of facts
    /// over the ontology's relations — not over the whole active domain
    /// `certain_unary` uses: `c`, seen only in the out-of-signature
    /// `Z(c)`, is no answer even when everything is certain.
    #[test]
    fn kernel_answers_keep_the_rewriting_domain() {
        // Inconsistent (A ⊑ ¬B with A(a), B(a)): the whole `_dom`.
        assert_eq!(
            kernel_vs_program("A sub not B", "A", "A(a)\nB(a)\nZ(c)"),
            ["a"]
        );
        // ⊤ ⊑ A: certain at every `_dom` element.
        assert_eq!(
            kernel_vs_program("Top sub A\nB sub C", "A", "Z(c)\nB(b)"),
            ["b"]
        );
        // A role-named query has no unary facts to answer…
        assert!(kernel_vs_program("A sub ex R.B", "R", "A(a)\nR(a,b)").is_empty());
        // …unless the ABox is inconsistent.
        assert_eq!(
            kernel_vs_program("A sub all R.(not B)", "R", "A(a)\nR(a,b)\nB(b)"),
            ["a", "b"]
        );
    }

    #[test]
    fn expired_deadline_stops_the_kernel() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(1);
        let o = to_gf(&parse_ontology("A sub ex R.B\nB sub C\n", &mut v).unwrap());
        let c = v.find_rel("C").unwrap();
        let (plan, _, _) = engine.plan(&o, c, &mut v);
        let plan = plan.unwrap();
        let text: String = (0..2500)
            .map(|i| format!("A(x{i})\nR(x{i},x{})\n", i + 1))
            .collect();
        let abox = parse_instance(&text, &mut v).unwrap();
        assert_eq!(abox.len(), 5000);
        let opts = Options {
            budget: Budget {
                deadline: Some(Instant::now()),
                ..Budget::UNLIMITED
            },
            certify: None,
        };
        let err = engine
            .answer(&plan, Input::One(abox.store()), &opts)
            .unwrap_err();
        let EngineError::Overloaded(e) = err else {
            panic!("expected overloaded, got {err:?}");
        };
        assert_eq!(e.limit, gomq_datalog::LimitKind::Deadline);
        assert_eq!(engine.stats()[Counter::Overloaded], 1);
    }

    #[test]
    fn breaker_trips_after_threshold_and_is_sticky() {
        let engine = Engine::with_threads(1);
        engine.set_quarantine_after(3);
        let key = 0xfeed;
        assert_eq!(engine.quarantine_reject(key), None);
        assert!(!engine.record_eval_failure(key));
        assert!(!engine.record_eval_failure(key));
        // A success between failures resets the count.
        engine.record_eval_success(key);
        assert!(!engine.record_eval_failure(key));
        assert!(!engine.record_eval_failure(key));
        assert!(engine.record_eval_failure(key));
        assert_eq!(engine.quarantine_reject(key), Some(3));
        // Sticky: success after the trip does not close the breaker.
        engine.record_eval_success(key);
        assert!(engine.quarantine_reject(key).is_some());
        let snap = engine.stats();
        assert_eq!(snap[Counter::BreakerTrips], 1);
        assert_eq!(snap[Counter::Quarantined], 2);
        // Other plans are unaffected.
        assert_eq!(engine.quarantine_reject(0xbeef), None);
    }

    #[test]
    fn quarantine_disabled_by_default() {
        let engine = Engine::with_threads(1);
        for _ in 0..100 {
            assert!(!engine.record_eval_failure(7));
        }
        assert_eq!(engine.quarantine_reject(7), None);
    }

    #[test]
    fn recursive_plan_gets_typed_sql_refusal() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(1);
        // An existential role restriction makes emit_datalog's elim
        // propagation recursive, so the plan compiles natively but
        // carries no SQL text.
        let dl = parse_ontology("A sub ex R.B\nB sub C\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let c = v.find_rel("C").unwrap();
        let (plan, _, _) = engine.plan(&o, c, &mut v);
        let plan = plan.unwrap();
        let err = plan
            .sql
            .as_ref()
            .expect_err("role-bearing plan should be recursive");
        assert!(matches!(
            err,
            gomq_rewriting::SqlEmitError::Recursive { .. }
        ));
        assert!(format!("{err}").contains("not expressible as SQL"));
        // The native path still answers the same plan.
        let abox = parse_instance("B(x)\n", &mut v).unwrap();
        let (answers, _) = eval_one(&engine, &plan, &abox);
        assert_eq!(answers.len(), 1);
    }

    #[test]
    fn batch_answers_match_singles() {
        let mut v = Vocab::new();
        let engine = Engine::with_threads(4);
        let dl = parse_ontology("A sub B\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let b = v.find_rel("B").unwrap();
        let (plan, _, _) = engine.plan(&o, b, &mut v);
        let plan = plan.unwrap();
        let texts = ["A(x1)\n", "A(y1)\nA(y2)\n", "B(z1)\n", ""];
        let aboxes: Vec<FactStore> = texts
            .iter()
            .map(|t| parse_instance(t, &mut v).unwrap().into_store())
            .collect();
        let batch = engine
            .answer(&plan, Input::Batch(&aboxes), &Options::default())
            .unwrap();
        assert_eq!(batch.answers.len(), 4);
        assert_eq!(batch.stats.answers, 1 + 2 + 1);
        for (i, d) in aboxes.iter().enumerate() {
            let single = engine
                .answer(&plan, Input::One(d), &Options::default())
                .unwrap();
            assert_eq!(batch.answers[i], single.answers[0], "abox {i}");
        }
        // A certificate covers one ABox: certify + batch is refused
        // before any evaluation.
        let requests = engine.stats()[Counter::Requests];
        let vocab = Mutex::new(v);
        let certify = Options {
            certify: Some(Certify {
                vocab: &vocab,
                snapshot: None,
            }),
            ..Options::default()
        };
        let err = engine
            .answer(&plan, Input::Batch(&aboxes), &certify)
            .unwrap_err();
        assert_eq!(err, EngineError::BadRequest(CERTIFY_BATCH.into()));
        assert_eq!(engine.stats()[Counter::Requests], requests);
    }

    /// Distinct OMQs over one fixed pool of names, compiled through a
    /// 2-plan cache: after one pass over them the vocabulary holds every
    /// IDB name the rewritings use, and a second pass — every plan
    /// evicted and recompiled — interns nothing.
    #[test]
    fn recompiling_over_a_name_pool_interns_nothing_new() {
        fn omq(i: usize) -> (String, String) {
            let (a, b, k) = (i % 5, (i / 5) % 4 + 1, (i / 20) % 2);
            let c = (a + b) % 5;
            let axioms = [
                format!("C{a} sub ex r{k}.C{b}"),
                format!("C{b} sub C{c}"),
                match i % 4 {
                    0 => "func(r0)\nrole r1 sub r0".to_owned(),
                    1 => format!("C{c} sub all r{k}-.C{a}"),
                    2 => format!("C{a} sub not C{c}"),
                    _ => format!("C{c} sub >=2 r1.C{b}"),
                },
            ];
            (axioms.join("\n"), format!("C{c}"))
        }
        const N: usize = 40;
        let mut v = Vocab::new();
        let engine = Engine::with_cache(1, PlanCache::with_capacity(2));
        let compile = |v: &mut Vocab, i: usize| {
            let (text, query) = omq(i);
            let o = to_gf(&parse_ontology(&text, v).unwrap());
            let q = v.find_rel(&query).unwrap();
            let (plan, hit, _) = engine.plan(&o, q, v);
            assert!(!hit, "omq {i} must be a miss");
            plan.unwrap_or_else(|e| panic!("omq {i}: {e}"))
        };
        for i in 0..N {
            compile(&mut v, i);
        }
        let warm = v.rel_count();
        let mut sedge = false;
        for i in 0..N {
            let plan = compile(&mut v, i);
            sedge |= plan
                .program
                .idb()
                .iter()
                .any(|&r| v.rel_name(r).starts_with("_sedge"));
            assert_eq!(
                v.rel_count(),
                warm,
                "recompiling omq {i} interned a relation"
            );
        }
        assert!(sedge, "the pool exercises the counting auxiliaries");
        assert_eq!(engine.cache().evictions() as usize, 2 * N - 2);
    }
}
