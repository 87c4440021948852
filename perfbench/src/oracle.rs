//! The answer oracle. It shares no state with the server: every OMQ is
//! compiled again here, in a vocabulary of its own. Queries over a
//! request ABox, which the server answers with its stratified native
//! backend, are evaluated by the reference evaluator
//! `gomq_datalog::Program::eval`. Session queries, which the server
//! answers from maintained views (`datalog::ivm`), are checked against
//! the answers at every state of the session store, computed by driving
//! the reference evaluator's semi-naive round (`derive_round`) forward
//! over the facts each acknowledged write adds. Certificates are
//! checked by the standalone `gomq_cert` verifier.

use crate::gen::{Omq, Op, Request};
use gomq_cert::json::Value;
use gomq_core::{DeltaView, FactBuf, FactId, Instance, Term, Vocab};
use gomq_datalog::{derive_round, Program};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::OmqPlan;
use std::collections::{BTreeSet, HashSet};

/// A set of answer tuples, as constant names.
pub type Answers = BTreeSet<Vec<String>>;

/// One independently compiled OMQ.
pub struct OracleOmq {
    /// The canonical OMQ text (distinct OMQs have distinct texts).
    pub canonical: String,
    vocab: Vocab,
    program: Program,
}

impl OracleOmq {
    pub fn rules(&self) -> usize {
        self.program.rules.len()
    }
}

#[derive(Default)]
pub struct Oracle {
    omqs: Vec<OracleOmq>,
}

impl Oracle {
    /// Compiles `omq` in a fresh vocabulary; `Err` when the rewriter
    /// refuses it.
    pub fn compile(&self, omq: &Omq) -> Result<OracleOmq, String> {
        let mut vocab = Vocab::new();
        let dl = parse_ontology(&omq.ontology, &mut vocab).map_err(|e| e.to_string())?;
        let o = to_gf(&dl);
        let query = vocab
            .find_rel(&omq.query)
            .ok_or("query relation is not in the ontology")?;
        let plan = OmqPlan::compile(&o, query, &mut vocab).map_err(|e| e.to_string())?;
        Ok(OracleOmq {
            canonical: plan.canonical_text,
            vocab,
            program: plan.program,
        })
    }

    pub fn add(&mut self, compiled: OracleOmq) {
        self.omqs.push(compiled);
    }

    /// The certain answers of OMQ `omq` over the facts in `abox`, by
    /// the reference evaluator.
    pub fn answers(&self, omq: usize, abox: &str) -> Answers {
        let o = &self.omqs[omq];
        let mut vocab = o.vocab.clone();
        let instance =
            gomq_core::parse::parse_instance(abox, &mut vocab).expect("generated ABoxes parse");
        names(&vocab, o.program.eval(&instance))
    }

    /// The certain answers of session OMQ `omq` at every writer step:
    /// `setup` (the preload, step 0) and then one step per operation of
    /// `writes`. Computed in one pass by semi-naive rounds of the
    /// reference evaluator's `derive_round` over only the facts each
    /// step adds; a rollback restores the closure saved at its mark.
    pub fn session_timeline(&self, omq: usize, setup: &[Request], writes: &[Request]) -> Timeline {
        let o = &self.omqs[omq];
        let mut run = Incremental {
            vocab: o.vocab.clone(),
            program: &o.program,
            total: Instance::new(),
            timeline: Timeline::default(),
        };
        for r in setup {
            if let Op::Assert { abox } = &r.op {
                run.assert(abox);
            }
        }
        run.close(0, 0);
        let mut marks: Vec<(Instance, usize)> = Vec::new();
        for (k, r) in writes.iter().enumerate() {
            let step = k + 1;
            match &r.op {
                Op::Assert { abox } => {
                    let from = run.total.len();
                    run.assert(abox);
                    run.close(from, step);
                }
                Op::Mark => marks.push((run.total.clone(), run.timeline.entries.len())),
                Op::Rollback { mark } => {
                    let (saved, born) = marks[*mark as usize].clone();
                    run.total = saved;
                    for e in &mut run.timeline.entries[born..] {
                        e.1 = e.1.min(step);
                    }
                }
                _ => {}
            }
        }
        run.timeline
    }
}

/// The state of one incremental evaluation.
struct Incremental<'a> {
    vocab: Vocab,
    program: &'a Program,
    total: Instance,
    timeline: Timeline,
}

impl Incremental<'_> {
    fn assert(&mut self, text: &str) {
        let d = gomq_core::parse::parse_instance(text, &mut self.vocab)
            .expect("generated ABoxes parse");
        for f in d.iter() {
            self.total.insert_ref(f.rel, f.args);
        }
    }

    /// Saturates the closure from fact `from` on and records the goal
    /// facts that appeared as answers born at `step`.
    fn close(&mut self, from: usize, step: usize) {
        let mut frontier = from as u32;
        let mut staged = FactBuf::new();
        loop {
            staged.clear();
            let before = self.total.len();
            let delta = DeltaView::new(&self.total, frontier);
            derive_round(&self.program.rules, &self.total, &delta, &mut staged);
            frontier = before as u32;
            for f in staged.iter() {
                self.total.insert_ref(f.rel, f.args);
            }
            if self.total.len() == before {
                break;
            }
        }
        let store = self.total.store();
        for i in from as u32..self.total.len() as u32 {
            if store.rel(FactId(i)) == self.program.goal {
                let tuple = store
                    .args(FactId(i))
                    .iter()
                    .map(|t| name(&self.vocab, t))
                    .collect();
                self.timeline.entries.push((step, usize::MAX, tuple));
            }
        }
    }
}

/// Every answer tuple of one session OMQ with the writer steps it is an
/// answer at: `(first step, first step it is not, tuple)`.
#[derive(Default)]
pub struct Timeline {
    entries: Vec<(usize, usize, Vec<String>)>,
}

impl Timeline {
    pub fn at(&self, step: usize) -> Answers {
        self.entries
            .iter()
            .filter(|(born, died, _)| *born <= step && step < *died)
            .map(|(_, _, t)| t.clone())
            .collect()
    }
}

fn names(vocab: &Vocab, tuples: BTreeSet<Vec<Term>>) -> Answers {
    tuples
        .into_iter()
        .map(|tuple| tuple.iter().map(|t| name(vocab, t)).collect())
        .collect()
}

fn name(vocab: &Vocab, t: &Term) -> String {
    match t {
        Term::Const(c) => vocab.const_name(*c).to_owned(),
        Term::Null(n) => format!("_null{n:?}"),
    }
}

/// The answer set in a response's `"answers"` array (or one element of
/// `"batches"`).
pub fn answer_set(v: &Value) -> Result<Answers, String> {
    let rows = v.as_arr().ok_or("answers are not an array")?;
    rows.iter()
        .map(|row| {
            row.as_arr()
                .ok_or("answer row is not an array")?
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_owned)
                        .ok_or("answer is not a string")
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()
        .map_err(str::to_owned)
}

/// Checks a response's status and, for a query, its answers against
/// `expected` (one set per ABox; any one set for a session query whose
/// linearization point is uncertain) and its certificate against the
/// verifier.
pub fn check_query(op: &Op, resp: &Value, expected: &[&Answers]) -> Result<(), String> {
    let obj = ok_obj(resp)?;
    let served: Vec<Answers> = match op {
        Op::Query { batch: true, .. } => obj
            .get("batches")
            .and_then(Value::as_arr)
            .ok_or("missing \"batches\"")?
            .iter()
            .map(answer_set)
            .collect::<Result<_, _>>()?,
        _ => vec![answer_set(
            obj.get("answers").ok_or("missing \"answers\"")?,
        )?],
    };
    let matches = match op {
        Op::SessionQuery { .. } => expected.iter().any(|e| **e == served[0]),
        _ => served.iter().eq(expected.iter().copied()),
    };
    if !matches {
        return Err(format!(
            "wrong answers: served {} tuple(s), the oracle expects {}",
            served.iter().map(BTreeSet::len).sum::<usize>(),
            expected.iter().map(|e| e.len()).max().unwrap_or(0)
        ));
    }
    let wants_cert = matches!(
        op,
        Op::Query {
            certificate: true,
            ..
        } | Op::SessionQuery {
            certificate: true,
            ..
        }
    );
    if wants_cert {
        let cert = obj.get("certificate").ok_or("missing \"certificate\"")?;
        let verified = gomq_cert::verify_value(cert).map_err(|e| format!("certificate: {e}"))?;
        let certified: Answers = verified.answers.into_iter().collect();
        if certified != served[0] {
            return Err("certificate proves other answers than were served".into());
        }
    }
    Ok(())
}

/// A response object whose `"status"` is `"ok"`.
pub fn ok_obj(resp: &Value) -> Result<&std::collections::BTreeMap<String, Value>, String> {
    let obj = resp.as_obj().ok_or("response is not an object")?;
    match obj.get("status").and_then(Value::as_str) {
        Some("ok") => Ok(obj),
        Some(s) => Err(format!(
            "status {s}: {}",
            obj.get("error").and_then(Value::as_str).unwrap_or("")
        )),
        None => Err("response has no status".into()),
    }
}

/// The number of distinct facts in the session store after the preload
/// (index 0) and after each of the writer's operations, as the
/// acknowledged writes imply.
pub fn store_sizes(setup: &[Request], writes: &[Request]) -> Vec<u64> {
    let mut facts: Vec<&str> = Vec::new();
    let mut present: HashSet<&str> = HashSet::new();
    let mut marks = Vec::new();
    let mut sizes = Vec::with_capacity(writes.len() + 1);
    if setup.is_empty() {
        sizes.push(0);
    }
    for (k, r) in setup.iter().chain(writes).enumerate() {
        match &r.op {
            Op::Assert { abox } => {
                for line in abox.lines() {
                    if present.insert(line) {
                        facts.push(line);
                    }
                }
            }
            Op::Mark => marks.push(facts.len()),
            Op::Rollback { mark } => {
                for line in facts.drain(marks[*mark as usize]..) {
                    present.remove(line);
                }
            }
            _ => {}
        }
        if k + 1 >= setup.len() {
            sizes.push(facts.len() as u64);
        }
    }
    sizes
}
