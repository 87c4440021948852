//! Certificate assembly: turning recorded derivations into the JSON
//! certificates `gomq-cert` verifies.
//!
//! The emitter walks the derivation graph backwards from the answer
//! facts, so a certificate cites only the rules, base facts and
//! derivation steps that actually support an answer — not the whole
//! fixpoint. Steps are emitted in topological order (premises strictly
//! before use), which is exactly the order the standalone verifier
//! checks them in; a citation graph that is cyclic, that reaches a dead
//! fact, or that reaches a derived fact without a recorded witness is
//! an engine bug and surfaces here as an error instead of an invalid
//! certificate.
//!
//! This module is part of the *untrusted* prover. It deliberately
//! shares no code with `gomq-cert` — the verifier has its own JSON
//! parser and its own matching logic, so a bug here is caught there.

use crate::json;
use gomq_core::{FactId, IndexedInstance, RelId, RequestConsts, Term, Vocab};
use gomq_datalog::{Derivation, Literal, Materialization, Rule};
use std::fmt::Write as _;

/// Everything the emitter needs to know about one answered query,
/// independent of which evaluation path produced it.
pub struct CertSource<'a> {
    /// The total instance (base ∪ derived) the ids index into.
    pub instance: &'a IndexedInstance,
    /// The program rules; recorded rule indices point into this slice.
    pub rules: &'a [Rule],
    /// The goal relation.
    pub goal: RelId,
    /// Ids of the (live) goal facts backing the answer tuples.
    pub answer_ids: &'a [u32],
    /// The session position `(last lsn, base fact count)` the answer
    /// was computed at, or `None` for a self-contained request ABox.
    pub snapshot: Option<(u64, u64)>,
}

/// Why certificate assembly failed. Every variant is an engine
/// invariant violation — recorded witnesses are supposed to make these
/// impossible — so callers surface it as an internal error, never as a
/// bad request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertifyError {
    /// A derived fact in the citation graph has no recorded witness.
    MissingWitness(u32),
    /// The citation graph contains a cycle (fact id on the cycle).
    CyclicWitness(u32),
    /// A cited fact is dead in the instance (retracted by maintenance).
    DeadFact(u32),
    /// A recorded rule index is outside the program.
    BadRule(u32, u32),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::MissingWitness(id) => {
                write!(f, "derived fact {id} has no recorded witness")
            }
            CertifyError::CyclicWitness(id) => {
                write!(f, "witness citation graph is cyclic at fact {id}")
            }
            CertifyError::DeadFact(id) => write!(f, "witness cites dead fact {id}"),
            CertifyError::BadRule(id, rule) => {
                write!(f, "fact {id} cites rule {rule} outside the program")
            }
        }
    }
}

impl std::error::Error for CertifyError {}

/// Assembles the version-1 certificate JSON for `source`.
///
/// `is_base` says whether a fact id is a base (EDB / session) fact —
/// base facts are cited symbolically and never need a witness, *even
/// if* a stale derivation was once recorded for the same id (a kept
/// EDB duplicate of a derived fact is justified by its presence in the
/// store, not by a derivation whose premises may since have died).
/// `derivation` returns the recorded witness of a derived fact. Every
/// constant is named by `vocab`.
pub fn emit_certificate<'d>(
    vocab: &Vocab,
    source: &CertSource<'_>,
    is_base: impl Fn(u32) -> bool,
    derivation: impl Fn(u32) -> Option<&'d Derivation>,
) -> Result<String, CertifyError> {
    let names = Names(vocab, &RequestConsts::default());
    emit_named(&names, source, is_base, derivation)
}

/// Cuts the certificate of a recording view's current answers, bound to
/// the session position `snapshot` (`None` for a self-contained ABox):
/// the view's base facts are cited as base facts, every other fact by
/// its recorded witness. Every constant is named by `vocab`. A view that
/// records no witnesses fails with [`CertifyError::MissingWitness`].
pub fn certify(
    vocab: &Vocab,
    view: &Materialization,
    snapshot: Option<(u64, u64)>,
) -> Result<String, CertifyError> {
    let names = Names(vocab, &RequestConsts::default());
    cut(&names, view, &view.answer_ids(), snapshot)
}

/// [`certify`] for the answers `answer_ids` (the view's
/// [`Materialization::answer_ids`]), naming constants through `names`.
pub(crate) fn cut(
    names: &Names<'_>,
    view: &Materialization,
    answer_ids: &[u32],
    snapshot: Option<(u64, u64)>,
) -> Result<String, CertifyError> {
    let mut base = vec![false; view.len()];
    for &id in view.base_fact_ids() {
        base[id as usize] = true;
    }
    let source = CertSource {
        instance: view.instance(),
        rules: view.rules(),
        goal: view.goal(),
        answer_ids,
        snapshot,
    };
    emit_named(
        names,
        &source,
        |id| base[id as usize],
        |id| view.derivation(id),
    )
}

/// [`emit_certificate`] naming constants through a request's table
/// ([`RequestConsts::name`]).
fn emit_named<'d>(
    names: &Names<'_>,
    source: &CertSource<'_>,
    is_base: impl Fn(u32) -> bool,
    derivation: impl Fn(u32) -> Option<&'d Derivation>,
) -> Result<String, CertifyError> {
    let store = source.instance.store();
    let n = store.len();

    // Topological sort of the support of the answer ids: iterative DFS
    // with tri-state marks (0 unvisited, 1 in progress, 2 done). The
    // in-progress mark doubles as the cycle detector.
    let mut state = vec![0u8; n];
    let mut base_cited: Vec<u32> = Vec::new();
    let mut step_order: Vec<u32> = Vec::new();
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for &root in source.answer_ids {
        if state[root as usize] == 2 {
            continue;
        }
        stack.push((root, 0));
        while let Some(&mut (id, ref mut next)) = stack.last_mut() {
            let idx = id as usize;
            if state[idx] == 2 {
                stack.pop();
                continue;
            }
            if !store.is_live(id) {
                return Err(CertifyError::DeadFact(id));
            }
            if is_base(id) {
                state[idx] = 2;
                base_cited.push(id);
                stack.pop();
                continue;
            }
            let d = derivation(id).ok_or(CertifyError::MissingWitness(id))?;
            if *next == 0 {
                state[idx] = 1;
            }
            if let Some(&p) = d.premises.get(*next) {
                *next += 1;
                match state[p as usize] {
                    1 => return Err(CertifyError::CyclicWitness(p)),
                    0 => stack.push((p, 0)),
                    _ => {}
                }
            } else {
                state[idx] = 2;
                step_order.push(id);
                stack.pop();
            }
        }
    }
    base_cited.sort_unstable();

    // Only the rules the steps actually fire go into the certificate;
    // recorded indices are remapped to the compact table (first-use
    // order).
    let mut rule_remap: Vec<Option<u32>> = vec![None; source.rules.len()];
    let mut rule_table: Vec<u32> = Vec::new();
    for &id in &step_order {
        let d = derivation(id).expect("checked during the walk");
        let ri = d.rule as usize;
        if ri >= source.rules.len() {
            return Err(CertifyError::BadRule(id, d.rule));
        }
        if rule_remap[ri].is_none() {
            rule_remap[ri] = Some(rule_table.len() as u32);
            rule_table.push(d.rule);
        }
    }

    let mut out = String::from("{\"v\": 1, \"goal\": ");
    json::write_str(&mut out, names.0.rel_name(source.goal));
    match source.snapshot {
        Some((lsn, base)) => {
            let _ = write!(out, ", \"snapshot\": {{\"lsn\": {lsn}, \"base\": {base}}}");
        }
        None => out.push_str(", \"snapshot\": null"),
    }

    out.push_str(", \"rules\": [");
    for (i, &ri) in rule_table.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_rule(&mut out, names, &source.rules[ri as usize]);
    }
    out.push(']');

    out.push_str(", \"base\": [");
    for (i, &id) in base_cited.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{id}, ");
        write_named_fact(
            &mut out,
            names,
            store.rel(FactId(id)),
            store.args(FactId(id)),
        );
        out.push(']');
    }
    out.push(']');

    out.push_str(", \"steps\": [");
    for (i, &id) in step_order.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let d = derivation(id).expect("checked during the walk");
        let compact = rule_remap[d.rule as usize].expect("remapped above");
        let _ = write!(out, "[{id}, {compact}, [");
        for (j, p) in d.premises.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{p}");
        }
        out.push_str("], ");
        write_named_fact(
            &mut out,
            names,
            store.rel(FactId(id)),
            store.args(FactId(id)),
        );
        out.push(']');
    }
    out.push(']');

    out.push_str(", \"answers\": [");
    for (i, &id) in source.answer_ids.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "[{id}");
        for &t in store.args(FactId(id)) {
            out.push_str(", ");
            names.write_term(&mut out, t);
        }
        out.push(']');
    }
    out.push_str("]}");
    Ok(out)
}

/// How certificates and responses name symbols: relations by the
/// vocabulary, constants through a request's table.
pub(crate) struct Names<'a>(pub(crate) &'a Vocab, pub(crate) &'a RequestConsts);

impl Names<'_> {
    /// Writes `t` as a JSON string: a constant's name, a null as `_:k`.
    pub(crate) fn write_term(&self, out: &mut String, t: Term) {
        match t {
            Term::Const(c) => json::write_str(out, self.1.name(self.0, c)),
            Term::Null(_) => json::write_str(out, &t.display(self.0).to_string()),
        }
    }
}

/// Writes `"Rel", arg...` (no surrounding brackets) with arguments
/// rendered exactly like the response's answer tuples.
fn write_named_fact(out: &mut String, names: &Names<'_>, rel: RelId, args: &[Term]) {
    json::write_str(out, names.0.rel_name(rel));
    for &t in args {
        out.push_str(", ");
        names.write_term(out, t);
    }
}

/// Writes one rule object. Variables become integer slots, ground
/// terms become strings — the int/string split is what keeps the
/// encoding unambiguous for the verifier.
fn write_rule(out: &mut String, names: &Names<'_>, rule: &Rule) {
    let write_term = |out: &mut String, t: &gomq_datalog::DTerm| match t {
        gomq_datalog::DTerm::Var(v) => {
            let _ = write!(out, "{v}");
        }
        gomq_datalog::DTerm::Ground(g) => names.write_term(out, *g),
    };
    let write_atom = |out: &mut String, a: &gomq_datalog::DAtom| {
        out.push('[');
        json::write_str(out, names.0.rel_name(a.rel));
        for t in &a.args {
            out.push_str(", ");
            write_term(out, t);
        }
        out.push(']');
    };
    out.push_str("{\"head\": ");
    write_atom(out, &rule.head);
    out.push_str(", \"body\": [");
    let mut first = true;
    for a in rule.positive_atoms() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        write_atom(out, a);
    }
    out.push_str("], \"neq\": [");
    let mut first = true;
    for l in &rule.body {
        if let Literal::Neq(a, b) = l {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push('[');
            write_term(out, a);
            out.push_str(", ");
            write_term(out, b);
            out.push(']');
        }
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::Fact;
    use gomq_datalog::{fixpoint_traced, Budget, DAtom, DTerm};

    /// E(a,b), E(b,c) with transitive closure and an inequality-guarded
    /// goal — the same shape as the verifier's own reference test.
    fn tc_setup() -> (Vocab, Vec<Rule>, IndexedInstance, RelId) {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        let g = v.rel("goal", 2);
        let rules = vec![
            Rule::new(
                DAtom::vars(t, &[0, 1]),
                vec![Literal::Pos(DAtom::vars(e, &[0, 1]))],
            ),
            Rule::new(
                DAtom::vars(t, &[0, 2]),
                vec![
                    Literal::Pos(DAtom::vars(t, &[0, 1])),
                    Literal::Pos(DAtom::vars(e, &[1, 2])),
                ],
            ),
            Rule::new(
                DAtom::vars(g, &[0, 1]),
                vec![
                    Literal::Pos(DAtom::vars(t, &[0, 1])),
                    Literal::Neq(DTerm::Var(0), DTerm::Var(1)),
                ],
            ),
        ];
        let a = Term::Const(v.constant("a"));
        let b = Term::Const(v.constant("b"));
        let c = Term::Const(v.constant("c"));
        let mut base = IndexedInstance::new();
        base.insert(Fact::new(e, vec![a, b]));
        base.insert(Fact::new(e, vec![b, c]));
        (v, rules, base, g)
    }

    #[test]
    fn emitted_certificate_verifies_with_gomq_cert() {
        let (v, rules, base, goal) = tc_setup();
        let base_len = base.len() as u32;
        let (total, derivs, _) =
            fixpoint_traced(&rules, &base, &Budget::UNLIMITED).expect("unlimited");
        let answer_ids: Vec<u32> = (0..total.len() as u32)
            .filter(|&i| total.store().rel(FactId(i)) == goal)
            .collect();
        assert!(!answer_ids.is_empty());
        let source = CertSource {
            instance: &total,
            rules: &rules,
            goal,
            answer_ids: &answer_ids,
            snapshot: Some((7, 2)),
        };
        let cert = emit_certificate(
            &v,
            &source,
            |id| id < base_len,
            |id| derivs[id as usize].as_ref(),
        )
        .expect("emits");
        let verified = gomq_cert::verify(&cert).expect("verifies");
        assert_eq!(verified.goal, "goal");
        assert_eq!(verified.base_facts, 2);
        assert_eq!(
            verified.snapshot,
            Some(gomq_cert::Snapshot { lsn: 7, base: 2 })
        );
        let mut tuples = verified.answers.clone();
        tuples.sort();
        assert_eq!(
            tuples,
            vec![
                vec!["a".to_owned(), "b".to_owned()],
                vec!["a".to_owned(), "c".to_owned()],
                vec!["b".to_owned(), "c".to_owned()],
            ]
        );
    }

    #[test]
    fn missing_witness_is_an_internal_error_not_a_bad_certificate() {
        let (v, rules, base, goal) = tc_setup();
        let base_len = base.len() as u32;
        let (total, _, _) = fixpoint_traced(&rules, &base, &Budget::UNLIMITED).expect("unlimited");
        let answer_ids: Vec<u32> = (0..total.len() as u32)
            .filter(|&i| total.store().rel(FactId(i)) == goal)
            .collect();
        let source = CertSource {
            instance: &total,
            rules: &rules,
            goal,
            answer_ids: &answer_ids,
            snapshot: None,
        };
        let got = emit_certificate(&v, &source, |id| id < base_len, |_| None);
        assert!(matches!(got, Err(CertifyError::MissingWitness(_))));
    }

    #[test]
    fn cyclic_witnesses_are_rejected_at_emission() {
        let (v, rules, base, goal) = tc_setup();
        let base_len = base.len() as u32;
        let (total, derivs, _) =
            fixpoint_traced(&rules, &base, &Budget::UNLIMITED).expect("unlimited");
        let answer_ids: Vec<u32> = (0..total.len() as u32)
            .filter(|&i| total.store().rel(FactId(i)) == goal)
            .collect();
        // Corrupt one witness to cite the fact it derives.
        let victim = answer_ids[0] as usize;
        let mut bad = derivs.clone();
        if let Some(d) = bad[victim].as_mut() {
            d.premises = vec![victim as u32];
        }
        let source = CertSource {
            instance: &total,
            rules: &rules,
            goal,
            answer_ids: &answer_ids,
            snapshot: None,
        };
        let got = emit_certificate(
            &v,
            &source,
            |id| id < base_len,
            |id| bad[id as usize].as_ref(),
        );
        assert!(matches!(got, Err(CertifyError::CyclicWitness(_))));
    }
}
