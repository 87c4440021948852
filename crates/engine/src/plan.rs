//! Compiled OMQ plans.
//!
//! An [`OmqPlan`] packages everything the serving layer needs to answer
//! an ontology-mediated query `(O, q)` against arbitrary ABoxes:
//!
//! * the **classification verdict** ([`OntologyReport`]) — the
//!   executable Figure-1 zone/fragment report from `gomq-rewriting`,
//! * the **element-type system** with its prebuilt bitset kernel, which
//!   answers every uncertified request,
//! * the **compiled Datalog≠ rewriting** (Theorem 5: one `elim_θ`
//!   predicate per surviving element type), as `emit_datalog` returns
//!   it, optimized — what certificates cite and session views maintain,
//!   sharing its rules with every view built from it.
//!   Its IDB relations have fixed reserved names (`_elim{t}`, `_dom`,
//!   `_goal`, `_sedge{r}`) that every plan in a vocabulary shares, so
//!   compiling costs the same and interns nothing new however many
//!   plans came before,
//! * the rewriting's SCC strata ([`LazyStrata`]), built on first read:
//!   nothing on the serving path reads them (the SQL emitter, the
//!   stratified executor's callers and tests do), so a compile does not
//!   pay for them,
//! * the **canonical cache key**
//!   ([`canonical_omq_hash`](gomq_rewriting::canonical_omq_hash)) under which
//!   the plan is stored.
//!
//! Compilation is the expensive part of serving (type elimination is
//! exponential in the signature); the whole point of the engine is to
//! pay it once per distinct OMQ.

use crate::backend::native::Strata;
use gomq_core::{RelId, Vocab};
use gomq_datalog::Program;
use gomq_logic::GfOntology;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::{canonical_omq_text, fnv1a, ElementTypeSystem, OntologyReport, RewriteError};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Errors surfaced by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The ontology is outside the element-type rewritable class — the
    /// engine cannot compile a Datalog≠ plan for it (it may well be
    /// coNP-hard by the dichotomy; the report's zone says more).
    NotRewritable(RewriteError),
    /// A malformed serving request (bad JSON, unknown relation, parse
    /// failure in the ontology or ABox text).
    BadRequest(String),
    /// Evaluation gave up because its resource budget (rounds, derived
    /// facts or wall-clock deadline) ran out. The session stays healthy;
    /// the serving layer reports `"status": "overloaded"`.
    Overloaded(gomq_datalog::BudgetExceeded),
    /// A panic was caught and isolated (compilation or evaluation); the
    /// payload is the panic message. The session stays healthy.
    Internal(String),
    /// The plan's circuit breaker is open: evaluation failed (panicked
    /// or blew its budget) this many times, so the engine refuses to
    /// evaluate it again. The serving layer reports
    /// `"status": "quarantined"`.
    Quarantined(u32),
    /// The request violated the transport framing (e.g. a line past the
    /// configured byte cap). The serving layer reports
    /// `"status": "malformed"` — distinct from [`EngineError::BadRequest`]
    /// so operators can tell protocol abuse from bad payloads.
    Malformed(String),
    /// Session persistence failed (WAL append, snapshot, recovery). The
    /// mutation was not applied; queries keep working.
    Persist(String),
    /// A replica session read lags the primary by `lag` lsns, past the
    /// `--max-staleness-lsn` `bound`. The serving layer reports
    /// `"status": "stale"`.
    Stale {
        /// The replica's lsn lag behind the primary.
        lag: u64,
        /// The configured staleness bound.
        bound: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NotRewritable(e) => {
                write!(f, "OMQ is not element-type rewritable: {e}")
            }
            EngineError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            EngineError::Overloaded(e) => write!(f, "overloaded: {e}"),
            EngineError::Internal(msg) => write!(f, "internal error (panic isolated): {msg}"),
            EngineError::Quarantined(n) => {
                write!(f, "plan quarantined after {n} evaluation failures")
            }
            EngineError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            EngineError::Persist(msg) => write!(f, "persistence error: {msg}"),
            EngineError::Stale { .. } => f.write_str(
                "replica lag exceeds --max-staleness-lsn; retry on the primary or relax the bound",
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<RewriteError> for EngineError {
    fn from(e: RewriteError) -> Self {
        EngineError::NotRewritable(e)
    }
}

impl From<crate::session::SessionError> for EngineError {
    fn from(e: crate::session::SessionError) -> Self {
        match e {
            crate::session::SessionError::UnknownMark(id) => {
                EngineError::BadRequest(format!("unknown mark {id}"))
            }
            other => EngineError::Persist(other.to_string()),
        }
    }
}

/// A compiled, cacheable plan for one OMQ.
#[derive(Clone, Debug)]
pub struct OmqPlan {
    /// The plan-cache key:
    /// [`canonical_omq_hash`](gomq_rewriting::canonical_omq_hash) of `(O, q)`.
    pub key: u64,
    /// The canonical OMQ text the key hashes (kept for diagnostics and
    /// collision checks).
    pub canonical_text: String,
    /// The queried relation.
    pub query: RelId,
    /// The classification verdict for the ontology.
    pub report: OntologyReport,
    /// The Datalog≠ rewriting (goal = the emitted `_goal` relation).
    /// Uncertified answers never run it (they come from `types`); its
    /// rules are what recording views materialize and certificates cite,
    /// what maintained session views maintain, and what the benchmark's
    /// oracle and traced replay evaluate. Views share the rules rather
    /// than copy them.
    pub program: Program,
    /// The rewriting's rules partitioned into SCC strata — the
    /// backend-agnostic [`gomq_datalog::ir::PlanIr`] the stratified
    /// executor and the SQL emitter consume (`Strata` is its
    /// engine-historical name), built on first read: read by the
    /// benchmark's traced replay, by tests that check the kernel against
    /// the executor, and by the SQL emitter on demand
    /// (`emit_sql(&plan.strata, &vocab)`). Nothing on the serving path
    /// reads them, so compiling a plan builds no strata and emits no SQL.
    pub strata: LazyStrata,
    /// The element-type system the rewriting was emitted from, with its
    /// bitset propagation kernel pre-built:
    /// [`ElementTypeSystem::answer`] over it answers every uncertified
    /// request, exactly as `program` would.
    pub types: Arc<ElementTypeSystem>,
}

impl OmqPlan {
    /// Compiles a plan: classifies the ontology, builds the element-type
    /// system and emits the optimized Datalog≠ rewriting from its kernel.
    /// The rewriting is stratified on first read of
    /// [`OmqPlan::strata`], not here.
    ///
    /// Interns the rewriting's fixed `_elim{t}`/`_dom`/`_goal`/`_sedge{r}`
    /// relations in `vocab` on first use only; a cached plan must only
    /// be reused with the same vocabulary.
    pub fn compile(
        o: &GfOntology,
        query: RelId,
        vocab: &mut Vocab,
    ) -> Result<OmqPlan, EngineError> {
        let canonical_text = canonical_omq_text(o, query, vocab);
        Self::compile_canonical(o, query, vocab, canonical_text)
    }

    /// [`OmqPlan::compile`] for a caller that has already rendered the
    /// OMQ's canonical text, which must be
    /// `canonical_omq_text(o, query, vocab)`: the plan keeps it and its
    /// key is its FNV-1a hash, so the text is rendered once per compile.
    ///
    /// Every stage runs once: the type system is built once, and the
    /// report's `type_rewritable` is that build's verdict.
    pub(crate) fn compile_canonical(
        o: &GfOntology,
        query: RelId,
        vocab: &mut Vocab,
        canonical_text: String,
    ) -> Result<OmqPlan, EngineError> {
        debug_assert_eq!(canonical_text, canonical_omq_text(o, query, vocab));
        let key = fnv1a(canonical_text.as_bytes());
        let sys = ElementTypeSystem::build(o, vocab)?;
        // Classification without materializability probes: the serving
        // layer only needs the syntactic verdict (zone, fragment,
        // rewritability); probing is a research-tool concern.
        let report = OntologyReport::syntactic(o, vocab, true);
        // The emitter builds the bitset kernel to read its edge rules
        // off it, so cached plans never pay a first-use stall.
        let program = emit_datalog(&sys, query, vocab);
        let strata = LazyStrata::new(&program);
        let types = Arc::new(sys);
        Ok(OmqPlan {
            key,
            canonical_text,
            query,
            report,
            program,
            strata,
            types,
        })
    }
}

/// A plan's SCC strata, built from its rules on first read.
///
/// Holds the plan's rewriting (its shared rules and its goal) and runs
/// [`Strata::of`] the first time it is dereferenced; concurrent first
/// reads build the strata once and all read that build.
#[derive(Clone, Debug)]
pub struct LazyStrata {
    program: Program,
    built: OnceLock<Strata>,
}

impl LazyStrata {
    fn new(program: &Program) -> Self {
        LazyStrata {
            program: program.clone(),
            built: OnceLock::new(),
        }
    }

    /// Whether the strata have been built (some read came first).
    pub fn is_built(&self) -> bool {
        self.built.get().is_some()
    }
}

impl Deref for LazyStrata {
    type Target = Strata;

    fn deref(&self) -> &Strata {
        self.built.get_or_init(|| Strata::of(&self.program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_dl::parser::parse_ontology;
    use gomq_dl::translate::to_gf;

    #[test]
    fn compile_horn_ontology() {
        let mut v = Vocab::new();
        let dl = parse_ontology("A sub B\nB sub C\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let c = v.find_rel("C").unwrap();
        let plan = OmqPlan::compile(&o, c, &mut v).unwrap();
        assert!(plan.report.type_rewritable);
        assert!(!plan.program.is_empty());
        assert!(!plan.strata.is_empty());
        assert_eq!(plan.key, gomq_rewriting::canonical_omq_hash(&o, c, &v));
        assert!(plan.canonical_text.contains("query: C"));
    }

    fn compile_text(ontology: &str, query: &str, v: &mut Vocab) -> OmqPlan {
        let o = to_gf(&parse_ontology(ontology, v).unwrap());
        let q = v.find_rel(query).unwrap();
        OmqPlan::compile(&o, q, v).unwrap()
    }

    /// The ontologies of the lazy-strata tests: a hierarchy (one
    /// non-recursive stratum per level) and two whose rewritings
    /// recurse along their roles.
    const LAZY_OMQS: [(&str, &str); 3] = [
        ("A sub B\nB sub C\n", "C"),
        ("A sub all R.A\nA sub B\n", "B"),
        ("A sub ex R.B\nB sub all S.C\nC sub D\n", "D"),
    ];

    #[test]
    fn strata_are_built_on_first_read_as_plan_ir_builds_them() {
        let mut v = Vocab::new();
        let mut recursive = 0;
        for (ontology, query) in LAZY_OMQS {
            let plan = compile_text(ontology, query, &mut v);
            assert!(!plan.strata.is_built(), "compiling builds no strata");
            let expected = gomq_datalog::ir::PlanIr::of(&plan.program);
            assert_eq!(plan.strata.len(), expected.len());
            assert!(plan.strata.is_built());
            assert_eq!(plan.strata.goal, expected.goal);
            for (got, want) in plan.strata.strata.iter().zip(&expected.strata) {
                assert_eq!(got.rules, want.rules);
                assert_eq!(got.recursive, want.recursive);
            }
            recursive += usize::from(plan.strata.is_recursive());
        }
        assert_eq!(recursive, 2, "the two role ontologies recurse");
    }

    #[test]
    fn concurrent_first_reads_share_one_build() {
        let mut v = Vocab::new();
        for (ontology, query) in LAZY_OMQS {
            let plan = compile_text(ontology, query, &mut v);
            assert!(!plan.strata.is_built());
            let threads = 4;
            let start = std::sync::Barrier::new(threads);
            let reads: Vec<&Strata> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            &*plan.strata
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(
                reads.iter().all(|r| std::ptr::eq(*r, &*plan.strata)),
                "one build, read by all"
            );
            assert_eq!(plan.strata.len(), Strata::of(&plan.program).len());
        }
    }

    #[test]
    fn transitive_ontology_is_rejected_with_report_intact() {
        let mut v = Vocab::new();
        let dl = parse_ontology("A sub ex R.B\n", &mut v).unwrap();
        let mut o = to_gf(&dl);
        let r = v.find_rel("R").unwrap();
        o.transitive.insert(r);
        let b = v.find_rel("B").unwrap();
        let err = OmqPlan::compile(&o, b, &mut v).unwrap_err();
        assert!(matches!(err, EngineError::NotRewritable(_)));
        assert!(format!("{err}").contains("not element-type rewritable"));
    }
}
