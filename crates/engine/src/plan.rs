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
//!   it, optimized — what certificates cite and session views maintain.
//!   Its IDB relations have fixed reserved names (`_elim{t}`, `_dom`,
//!   `_goal`, `_sedge{r}`) that every plan in a vocabulary shares, so
//!   compiling costs the same and interns nothing new however many
//!   plans came before,
//! * the rewriting pre-**stratified** into SCC strata ([`Strata`]), so
//!   Datalog evaluation never pays the stratification cost per request,
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
use gomq_rewriting::{
    canonical_omq_text, emit_sql, fnv1a, ElementTypeSystem, OntologyReport, RewriteError,
    SqlEmitError, SqlPlan,
};
use std::fmt;
use std::sync::Arc;

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
    /// rules are what certified answers trace and cite, what maintained
    /// session views maintain, and what the benchmark's oracle and
    /// traced replay evaluate.
    pub program: Program,
    /// The rewriting's rules pre-partitioned into SCC strata — the
    /// backend-agnostic [`gomq_datalog::ir::PlanIr`] the stratified
    /// executor and the SQL emitter consume (`Strata` is its
    /// engine-historical name); read by the benchmark's traced replay
    /// and by tests that check the kernel against the executor.
    pub strata: Strata,
    /// The plan lowered to portable SQL, or the typed reason it cannot
    /// be (recursive rewriting). Emitted eagerly at compile time: the
    /// text is ABox-independent — the artifact `gomq-sql` prints for
    /// relational engines and the oracle `tests/sql_crosscheck.rs` runs.
    pub sql: Result<SqlPlan, SqlEmitError>,
    /// The element-type system the rewriting was emitted from, with its
    /// bitset propagation kernel pre-built:
    /// [`ElementTypeSystem::answer`] over it answers every uncertified
    /// request, exactly as `program` would.
    pub types: Arc<ElementTypeSystem>,
}

impl OmqPlan {
    /// Compiles a plan: classifies the ontology, builds the element-type
    /// system, emits the optimized Datalog≠ rewriting from its kernel,
    /// and stratifies it.
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
        let strata = Strata::of(&program);
        let sql = emit_sql(&strata, vocab);
        let types = Arc::new(sys);
        Ok(OmqPlan {
            key,
            canonical_text,
            query,
            report,
            program,
            strata,
            sql,
            types,
        })
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
