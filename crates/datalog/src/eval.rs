//! Bottom-up evaluation: naive (reference) and semi-naive (production).
//!
//! The join loop is generic over [`FactLookup`], so the same matcher
//! runs against plain [`Interpretation`]s (per-relation scan) and
//! against [`gomq_core::IndexedInstance`]s (hash probes on every argument
//! position, used by `gomq-engine`). Within a rule body:
//!
//! * an atom whose arguments are all bound is matched first, by one
//!   membership probe ([`FactLookup::lookup_id`]) — the delta for the
//!   pivot atom, the total store otherwise;
//! * otherwise the next atom is chosen greedily by candidate count: the
//!   smallest bucket among its bound positions, or its whole relation
//!   when nothing is bound.
//!
//! Membership probes return the matched fact's id, so the premises the
//! matcher reports ([`Emitter::note_premise`]) are real fact ids on every
//! path and certificates cite them.

use crate::program::{DAtom, DTerm, Literal, Program, Rule};
use gomq_core::{
    DeltaView, FactBuf, FactLookup, FactRef, IndexedInstance, Instance, Interpretation, RelId,
    StoreStats, Term,
};
use std::collections::BTreeSet;
use std::fmt;
use std::time::Instant;

/// Statistics of an evaluation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint rounds.
    pub rounds: usize,
    /// Number of facts derived (beyond the EDB).
    pub derived: usize,
    /// Facts retracted by incremental view maintenance (the DRed
    /// overcount-deletion phase). Always 0 outside [`crate::ivm`].
    pub ivm_deleted: usize,
    /// Facts reinstated by incremental view maintenance (the DRed
    /// rederivation phase). Always 0 outside [`crate::ivm`].
    pub ivm_rederived: usize,
    /// Storage pressure of the evaluation's total store (EDB ∪ IDB):
    /// facts interned, arena terms, dedup hits.
    pub store: StoreStats,
}

/// A cooperative resource budget for fixpoint evaluation.
///
/// Fields set to `None` are unlimited. The evaluator checks the budget
/// between rounds (cooperatively — a single round always completes), so
/// an evaluation may overshoot a limit by at most one round's worth of
/// work before returning [`BudgetExceeded`]. This is what lets a
/// serving layer survive a pathological OMQ/ABox pair — e.g. the
/// paper's Example-6 odd-cycle ontology on a large cyclic ABox —
/// instead of monopolizing the session.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// Maximum fixpoint rounds across all strata.
    pub max_rounds: Option<usize>,
    /// Maximum IDB facts derived beyond the EDB.
    pub max_derived: Option<usize>,
    /// Wall-clock deadline for the whole evaluation.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// The unlimited budget: every check passes.
    pub const UNLIMITED: Budget = Budget {
        max_rounds: None,
        max_derived: None,
        deadline: None,
    };

    /// Checks the accumulated statistics against the limits.
    pub fn check(&self, stats: &EvalStats) -> Result<(), BudgetExceeded> {
        let exceeded = |limit| {
            Err(BudgetExceeded {
                limit,
                rounds: stats.rounds,
                derived: stats.derived,
            })
        };
        if self.max_rounds.is_some_and(|max| stats.rounds > max) {
            return exceeded(LimitKind::Rounds);
        }
        if self.max_derived.is_some_and(|max| stats.derived > max) {
            return exceeded(LimitKind::Derived);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return exceeded(LimitKind::Deadline);
        }
        Ok(())
    }
}

/// Which budget limit an evaluation ran into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LimitKind {
    /// [`Budget::max_rounds`].
    Rounds,
    /// [`Budget::max_derived`].
    Derived,
    /// [`Budget::deadline`].
    Deadline,
}

impl LimitKind {
    /// The protocol name of the limit (`"rounds"`, `"derived"`,
    /// `"deadline"`).
    pub fn name(&self) -> &'static str {
        match self {
            LimitKind::Rounds => "rounds",
            LimitKind::Derived => "derived",
            LimitKind::Deadline => "deadline",
        }
    }
}

/// An evaluation gave up because its [`Budget`] ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The limit that was hit.
    pub limit: LimitKind,
    /// Rounds completed when evaluation stopped.
    pub rounds: usize,
    /// Facts derived when evaluation stopped.
    pub derived: usize,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "evaluation exceeded its {} budget after {} rounds / {} derived facts",
            self.limit.name(),
            self.rounds,
            self.derived
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// A sink for facts staged by the join matcher.
///
/// The matcher is generic over its sink so the production hot path
/// (plain [`FactBuf`], whose premise hooks are empty and fold away under
/// monomorphization) and the certificate-recording path ([`TracedBuf`])
/// share one join loop instead of two drifting copies.
pub trait Emitter {
    /// Called once per rule before its instantiations are enumerated;
    /// `rule_idx` is the rule's position in the slice being evaluated.
    fn begin_rule(&mut self, _rule_idx: usize) {}

    /// A body atom was matched against fact `id`: `atom_idx` is the
    /// atom's position among the rule's *positive* atoms (body order,
    /// not join order). Paired with [`Emitter::unnote_premise`] on
    /// backtrack.
    fn note_premise(&mut self, _atom_idx: usize, _id: u32) {}

    /// Backtrack over the most recent [`Emitter::note_premise`].
    fn unnote_premise(&mut self) {}

    /// All body literals are satisfied: stage the instantiated head.
    fn emit(&mut self, rel: RelId, args: impl Iterator<Item = Term>);
}

impl Emitter for FactBuf {
    fn emit(&mut self, rel: RelId, args: impl Iterator<Item = Term>) {
        self.push_with(rel, args);
    }
}

/// One recorded rule application: which rule fired and which facts
/// instantiated its positive body atoms.
///
/// `premises[i]` is the store id of the fact matched against the rule's
/// `i`-th positive body atom, so a checker can re-verify the step by
/// *linear substitution matching* — walk the atoms in order, unify each
/// against its cited premise, then compare the instantiated head. No
/// join search is ever needed to check a derivation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Index of the fired rule in the evaluated program's rule slice.
    pub rule: u32,
    /// Premise fact ids, aligned with the rule's positive body atoms.
    pub premises: Vec<u32>,
}

/// A [`FactBuf`] that additionally records a [`Derivation`] per staged
/// fact (aligned by position: `derivs[i]` justifies `buf.get(i)`).
#[derive(Default)]
pub struct TracedBuf {
    /// The staged facts.
    pub buf: FactBuf,
    /// `derivs[i]` is the rule application that staged `buf.get(i)`.
    pub derivs: Vec<Derivation>,
    rule_idx: u32,
    trail: Vec<(u32, u32)>,
}

impl TracedBuf {
    /// Creates an empty traced buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears staged facts and derivations, keeping capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.derivs.clear();
        self.trail.clear();
    }

    /// Iterates staged facts together with their derivations.
    pub fn iter(&self) -> impl Iterator<Item = (FactRef<'_>, &Derivation)> {
        (0..self.buf.len()).map(|i| (self.buf.get(i), &self.derivs[i]))
    }
}

impl Emitter for TracedBuf {
    fn begin_rule(&mut self, rule_idx: usize) {
        self.rule_idx = rule_idx as u32;
        // A panic between note/unnote pairs (fault injection) may leave
        // a stale trail; rule entry is a safe reset point.
        self.trail.clear();
    }

    fn note_premise(&mut self, atom_idx: usize, id: u32) {
        self.trail.push((atom_idx as u32, id));
    }

    fn unnote_premise(&mut self) {
        self.trail.pop();
    }

    fn emit(&mut self, rel: RelId, args: impl Iterator<Item = Term>) {
        self.buf.push_with(rel, args);
        // The trail is in greedy join order; certificates cite premises
        // in body-atom order so the checker can match linearly.
        let mut cited = self.trail.clone();
        cited.sort_unstable_by_key(|&(atom_idx, _)| atom_idx);
        self.derivs.push(Derivation {
            rule: self.rule_idx,
            premises: cited.into_iter().map(|(_, id)| id).collect(),
        });
    }
}

impl Program {
    /// Semi-naive evaluation: computes the least fixpoint of the program
    /// over the instance and returns the set of goal tuples.
    pub fn eval(&self, d: &Instance) -> BTreeSet<Vec<Term>> {
        self.eval_with_stats(d).0
    }

    /// Semi-naive evaluation returning the full derived interpretation
    /// (EDB ∪ IDB) together with statistics.
    pub fn fixpoint(&self, d: &Instance) -> (Interpretation, EvalStats) {
        self.fixpoint_budgeted(d, &Budget::UNLIMITED)
            .expect("the unlimited budget cannot be exceeded")
    }

    /// [`Program::fixpoint`] under a cooperative resource [`Budget`]:
    /// rounds, derived-fact fuel and wall-clock deadline are checked
    /// between rounds, and evaluation returns [`BudgetExceeded`] instead
    /// of running to completion when a limit is hit.
    pub fn fixpoint_budgeted(
        &self,
        d: &Instance,
        budget: &Budget,
    ) -> Result<(Interpretation, EvalStats), BudgetExceeded> {
        // The total store is a clone of the EDB's columns (bulk copies,
        // no per-fact allocation); a round's delta is just the id range
        // past the previous round's frontier.
        let mut total = d.clone();
        let mut stats = EvalStats::default();
        budget.check(&stats)?;
        let mut staged = FactBuf::new();
        let mut frontier = 0u32;
        loop {
            gomq_core::faults::point(gomq_core::faults::EVAL_ROUND);
            stats.rounds = stats.rounds.saturating_add(1);
            staged.clear();
            // In the first round the frontier is 0, so the delta view is
            // `total` itself — no second clone of the input.
            derive_round(
                &self.rules,
                &total,
                &DeltaView::new(&total, frontier),
                &mut staged,
            );
            frontier = total.len() as u32;
            for f in staged.iter() {
                total.insert_ref(f.rel, f.args);
            }
            let derived_now = total.len() - frontier as usize;
            if derived_now == 0 {
                break;
            }
            stats.derived = stats.derived.saturating_add(derived_now);
            budget.check(&stats)?;
        }
        stats.store = total.store_stats();
        Ok((total, stats))
    }

    /// Semi-naive evaluation returning goal tuples and statistics.
    pub fn eval_with_stats(&self, d: &Instance) -> (BTreeSet<Vec<Term>>, EvalStats) {
        let (total, stats) = self.fixpoint(d);
        let answers = total.facts_of(self.goal).map(|f| f.args.to_vec()).collect();
        (answers, stats)
    }

    /// Whether `D ⊨ Π(ā)`.
    pub fn holds(&self, d: &Instance, tuple: &[Term]) -> bool {
        self.eval(d).contains(tuple)
    }
}

/// One semi-naive round: stages into `out` every head fact of `rules`
/// with at least one body atom matched in `delta` (`total` must include
/// `delta`; the delta is typically a [`DeltaView`] over the total store
/// past the previous round's frontier). This is the building block both
/// of [`Program::fixpoint`] and of the stratified parallel evaluator in
/// `gomq-engine`, which calls it concurrently on disjoint rule
/// partitions, merging the per-worker [`FactBuf`]s afterwards.
pub fn derive_round<T, D>(rules: &[Rule], total: &T, delta: &D, out: &mut FactBuf)
where
    T: FactLookup + ?Sized,
    D: FactLookup + ?Sized,
{
    derive_round_into(rules, total, delta, out);
}

/// [`derive_round`] with derivation recording: `out.derivs[i]` records
/// the rule application (rule index into `rules`, premise fact ids in
/// body-atom order) that staged `out.buf.get(i)`.
pub fn derive_round_traced<T, D>(rules: &[Rule], total: &T, delta: &D, out: &mut TracedBuf)
where
    T: FactLookup + ?Sized,
    D: FactLookup + ?Sized,
{
    derive_round_into(rules, total, delta, out);
}

fn derive_round_into<T, D, E>(rules: &[Rule], total: &T, delta: &D, out: &mut E)
where
    T: FactLookup + ?Sized,
    D: FactLookup + ?Sized,
    E: Emitter,
{
    for (i, rule) in rules.iter().enumerate() {
        out.begin_rule(i);
        derive(rule, total, delta, out);
    }
}

/// Derives all head facts of `rule` with at least one body atom matched in
/// `delta` (semi-naive restriction). `total` includes `delta`.
fn derive<T, D, E>(rule: &Rule, total: &T, delta: &D, out: &mut E)
where
    T: FactLookup + ?Sized,
    D: FactLookup + ?Sized,
    E: Emitter,
{
    let mut join = Join::new(rule, total, delta);
    // The join restores every frame slot it fills on backtrack, so one
    // frame serves all pivots.
    for pivot in 0..join.atoms.len() {
        join.pivot = Some(pivot);
        let mut remaining: Vec<usize> = (0..join.atoms.len()).collect();
        join.run(&mut remaining, out);
    }
}

/// The join search of one rule body: its positive atoms, the binding
/// frame, and the stores the atoms are matched against — the pivot atom
/// (if any) against `delta`, every other atom against `total`.
struct Join<'r, T: ?Sized, D: ?Sized> {
    rule: &'r Rule,
    atoms: Vec<&'r DAtom>,
    pivot: Option<usize>,
    total: &'r T,
    delta: &'r D,
    /// Flat binding frame indexed by variable slot.
    frame: Vec<Option<Term>>,
    /// Slots bound so far, in binding order; backtracking pops it.
    trail: Vec<u32>,
    /// The resolved arguments of a membership probe.
    probe: Vec<Term>,
}

impl<'r, T, D> Join<'r, T, D>
where
    T: FactLookup + ?Sized,
    D: FactLookup + ?Sized,
{
    fn new(rule: &'r Rule, total: &'r T, delta: &'r D) -> Self {
        Join {
            rule,
            atoms: rule.positive_atoms().collect(),
            pivot: None,
            total,
            delta,
            frame: vec![None; rule.num_slots()],
            trail: Vec::new(),
            probe: Vec::new(),
        }
    }

    /// The term `t` denotes under the current binding, if determined.
    fn bound(&self, t: &DTerm) -> Option<Term> {
        match t {
            DTerm::Ground(g) => Some(*g),
            DTerm::Var(v) => self.frame[*v as usize],
        }
    }

    /// The smallest candidate bucket of atom `ai` under the current
    /// binding: the smallest among its bound positions' buckets, or the
    /// whole relation when no argument is bound.
    fn cheapest_candidates(&self, ai: usize) -> &'r [u32] {
        let atom = self.atoms[ai];
        let from_delta = self.pivot == Some(ai);
        let lookup = |bound| {
            if from_delta {
                self.delta.candidate_ids(atom.rel, bound)
            } else {
                self.total.candidate_ids(atom.rel, bound)
            }
        };
        let mut best: Option<&'r [u32]> = None;
        for (pos, t) in atom.args.iter().enumerate() {
            if let Some(t) = self.bound(t) {
                let ids = lookup(Some((pos, t)));
                if best.is_none_or(|b| ids.len() < b.len()) {
                    best = Some(ids);
                    if ids.is_empty() {
                        break;
                    }
                }
            }
        }
        best.unwrap_or_else(|| lookup(None))
    }

    /// Binds the variables of `atom` against `args`; `false` on a
    /// mismatch. Slots it fills are pushed on the trail either way.
    fn bind(&mut self, atom: &DAtom, args: &[Term]) -> bool {
        for (pat, &t) in atom.args.iter().zip(args) {
            match *pat {
                DTerm::Ground(g) => {
                    if g != t {
                        return false;
                    }
                }
                DTerm::Var(v) => match self.frame[v as usize] {
                    Some(prev) if prev != t => return false,
                    Some(_) => {}
                    None => {
                        self.frame[v as usize] = Some(t);
                        self.trail.push(v);
                    }
                },
            }
        }
        true
    }

    /// Unbinds every slot bound since the trail had length `mark`.
    fn unbind(&mut self, mark: usize) {
        for v in self.trail.drain(mark..) {
            self.frame[v as usize] = None;
        }
    }

    /// Matches the `remaining` body atoms recursively and emits the head
    /// of every complete match.
    ///
    /// An atom whose arguments are all bound is matched first, by one
    /// [`FactLookup::lookup_id`] membership probe. Otherwise the next
    /// atom is chosen greedily: the one with the fewest candidates under
    /// the current binding.
    fn run<E: Emitter>(&mut self, remaining: &mut Vec<usize>, out: &mut E) {
        if remaining.is_empty() {
            // All positive atoms matched: check inequalities, then emit
            // straight into the columnar buffer (no per-fact `Vec<Term>`).
            for l in &self.rule.body {
                if let Literal::Neq(a, b) = l {
                    if resolve(a, &self.frame) == resolve(b, &self.frame) {
                        return;
                    }
                }
            }
            out.emit(
                self.rule.head.rel,
                self.rule.head.args.iter().map(|t| resolve(t, &self.frame)),
            );
            return;
        }
        let fully_bound = remaining
            .iter()
            .position(|&ai| self.atoms[ai].args.iter().all(|t| self.bound(t).is_some()));
        if let Some(k) = fully_bound {
            let ai = remaining.swap_remove(k);
            let atom = self.atoms[ai];
            self.probe.clear();
            self.probe
                .extend(atom.args.iter().map(|t| resolve(t, &self.frame)));
            // lookup_id only finds live facts, and the pivot's probe only
            // facts in the delta.
            let found = if self.pivot == Some(ai) {
                self.delta.lookup_id(atom.rel, &self.probe)
            } else {
                self.total.lookup_id(atom.rel, &self.probe)
            };
            if let Some(id) = found {
                out.note_premise(ai, id);
                self.run(remaining, out);
                out.unnote_premise();
            }
            remaining.push(ai);
            return;
        }
        // Greedy join ordering: pick the cheapest remaining atom.
        let mut best_k = 0usize;
        let mut candidates: &[u32] = &[];
        for (k, &ai) in remaining.iter().enumerate() {
            let ids = self.cheapest_candidates(ai);
            if k == 0 || ids.len() < candidates.len() {
                best_k = k;
                candidates = ids;
                if ids.is_empty() {
                    break;
                }
            }
        }
        let ai = remaining.swap_remove(best_k);
        let atom = self.atoms[ai];
        let from_delta = self.pivot == Some(ai);
        for &id in candidates {
            // Maintained stores keep retracted facts in place with support
            // 0; they are not part of the instance, so the join skips them.
            // For plain stores is_live is a constant `true` and the branch
            // folds away.
            let (live, fact) = if from_delta {
                (self.delta.is_live(id), self.delta.fact(id))
            } else {
                (self.total.is_live(id), self.total.fact(id))
            };
            if !live || fact.args.len() != atom.args.len() {
                continue;
            }
            let mark = self.trail.len();
            if self.bind(atom, fact.args) {
                out.note_premise(ai, id);
                self.run(remaining, out);
                out.unnote_premise();
            }
            self.unbind(mark);
        }
        remaining.push(ai);
    }
}

fn resolve(t: &DTerm, frame: &[Option<Term>]) -> Term {
    match t {
        DTerm::Ground(g) => *g,
        DTerm::Var(v) => frame[*v as usize].unwrap_or_else(|| panic!("unbound rule variable ?{v}")),
    }
}

/// One *naive* derivation pass: stages every head fact of every
/// satisfying instantiation of `rules` over `total` — the `pivot: None`
/// mode of the matcher, with no delta restriction. [`eval_naive`] loops
/// this to a fixpoint; incremental maintenance ([`crate::ivm`]) uses a
/// single pass as the DRed rederivation probe, restricted to the rules
/// whose head relations were overdeleted.
pub fn derive_all<T>(rules: &[Rule], total: &T, out: &mut FactBuf)
where
    T: FactLookup + ?Sized,
{
    derive_all_into(rules, total, out);
}

/// [`derive_all`] with derivation recording (see
/// [`derive_round_traced`]). Rule indices in the recorded derivations
/// refer to positions in `rules` — a caller probing with a rule *subset*
/// must remap them to its full program afterwards.
pub fn derive_all_traced<T>(rules: &[Rule], total: &T, out: &mut TracedBuf)
where
    T: FactLookup + ?Sized,
{
    derive_all_into(rules, total, out);
}

fn derive_all_into<T, E>(rules: &[Rule], total: &T, out: &mut E)
where
    T: FactLookup + ?Sized,
    E: Emitter,
{
    for (i, rule) in rules.iter().enumerate() {
        out.begin_rule(i);
        let mut join = Join::new(rule, total, total);
        if join.atoms.is_empty() {
            continue;
        }
        let mut remaining: Vec<usize> = (0..join.atoms.len()).collect();
        join.run(&mut remaining, out);
    }
}

/// A fixpoint together with one recorded [`Derivation`] per derived
/// fact: `derivs[id]` is `None` for the base facts (ids below
/// `base.len()`) and `Some` for every fact the fixpoint added. Each
/// recorded derivation's premises carry ids strictly below the derived
/// fact's own id, so replaying `derivs` in id order re-checks the whole
/// fixpoint in one linear pass — the shape a certificate checker wants.
///
/// This is the *reference* traced evaluation: sequential semi-naive
/// with no stratification. Program bodies contain only positive atoms
/// and inequalities, so the flat fixpoint is answer-equivalent to the
/// stratified parallel executor, and its derivation order is trivially
/// topological. A certificate cut from a fresh recording
/// [`crate::Materialization`] over the same base records the same
/// derivations in the same order, which is what makes this the
/// reference the serving path's certificates are pinned to. `base` must
/// be a plain (all-live) instance.
pub fn fixpoint_traced(
    rules: &[Rule],
    base: &IndexedInstance,
    budget: &Budget,
) -> Result<(IndexedInstance, Vec<Option<Derivation>>, EvalStats), BudgetExceeded> {
    let mut total = base.clone();
    let mut derivs: Vec<Option<Derivation>> = vec![None; total.len()];
    let mut stats = EvalStats::default();
    budget.check(&stats)?;
    let mut staged = TracedBuf::new();
    let mut frontier = 0u32;
    loop {
        gomq_core::faults::point(gomq_core::faults::EVAL_ROUND);
        stats.rounds = stats.rounds.saturating_add(1);
        staged.clear();
        derive_round_traced(
            rules,
            &total,
            &DeltaView::new(&total, frontier),
            &mut staged,
        );
        frontier = total.len() as u32;
        for (f, d) in staged.iter() {
            let (_, new) = total.intern_ref(f.rel, f.args);
            if new {
                derivs.push(Some(d.clone()));
            }
        }
        let derived_now = total.len() - frontier as usize;
        if derived_now == 0 {
            break;
        }
        stats.derived = stats.derived.saturating_add(derived_now);
        budget.check(&stats)?;
    }
    stats.store = total.store_stats();
    Ok((total, derivs, stats))
}

/// Naive (reference) evaluation: applies every rule against the whole
/// database each round. Used to cross-check the semi-naive engine.
pub fn eval_naive(p: &Program, d: &Instance) -> BTreeSet<Vec<Term>> {
    let mut total = d.clone();
    loop {
        let mut new_facts = FactBuf::new();
        derive_all(&p.rules, &total, &mut new_facts);
        let before = total.len();
        for f in new_facts.iter() {
            total.insert_ref(f.rel, f.args);
        }
        if total.len() == before {
            break;
        }
    }
    total.facts_of(p.goal).map(|f| f.args.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{DAtom, Literal, Rule};
    use gomq_core::{Fact, IndexedInstance, Vocab};

    /// Transitive closure program with goal = pairs of distinct connected
    /// nodes.
    fn tc_program(v: &mut Vocab) -> Program {
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        let g = v.rel("goal", 2);
        Program::new(
            vec![
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
            ],
            g,
        )
    }

    fn path_instance(v: &mut Vocab, n: usize) -> Instance {
        let e = v.rel("E", 2);
        let mut d = Instance::new();
        for i in 0..n {
            let a = v.constant(&format!("n{i}"));
            let b = v.constant(&format!("n{}", i + 1));
            d.insert(Fact::consts(e, &[a, b]));
        }
        d
    }

    #[test]
    fn transitive_closure_on_path() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let d = path_instance(&mut v, 4); // n0→…→n4
        let ans = p.eval(&d);
        // All ordered pairs (i,j) with i<j: C(5,2) = 10.
        assert_eq!(ans.len(), 10);
    }

    #[test]
    fn inequality_filters_loops() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let e = v.rel("E", 2);
        let a = v.constant("a");
        let mut d = Instance::new();
        d.insert(Fact::consts(e, &[a, a]));
        // Only the loop (a,a) is connected, and it is filtered by ≠.
        assert!(p.eval(&d).is_empty());
    }

    #[test]
    fn semi_naive_matches_naive_on_cycles() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let e = v.rel("E", 2);
        let mut d = Instance::new();
        for i in 0..6 {
            let a = v.constant(&format!("c{i}"));
            let b = v.constant(&format!("c{}", (i + 1) % 6));
            d.insert(Fact::consts(e, &[a, b]));
        }
        let semi = p.eval(&d);
        let naive = eval_naive(&p, &d);
        assert_eq!(semi, naive);
        // Every ordered pair of distinct nodes: 6*5 = 30.
        assert_eq!(semi.len(), 30);
    }

    #[test]
    fn stats_reflect_rounds() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let d = path_instance(&mut v, 8);
        let (_, stats) = p.eval_with_stats(&d);
        assert!(stats.rounds >= 3);
        assert!(stats.derived > 0);
    }

    #[test]
    fn budget_limits_abort_evaluation() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let d = path_instance(&mut v, 12);
        // Unlimited budget: identical to the plain fixpoint.
        let (full, full_stats) = p.fixpoint(&d);
        let (budgeted, budgeted_stats) = p
            .fixpoint_budgeted(&d, &Budget::UNLIMITED)
            .expect("unlimited");
        assert_eq!(full.len(), budgeted.len());
        assert_eq!(full_stats, budgeted_stats);
        // Round fuel: the transitive closure needs many rounds.
        let err = p
            .fixpoint_budgeted(
                &d,
                &Budget {
                    max_rounds: Some(2),
                    ..Budget::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.limit, LimitKind::Rounds);
        assert!(err.rounds > 2);
        // Derived-fact fuel.
        let err = p
            .fixpoint_budgeted(
                &d,
                &Budget {
                    max_derived: Some(3),
                    ..Budget::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.limit, LimitKind::Derived);
        // An already-expired deadline trips before the first round.
        let err = p
            .fixpoint_budgeted(
                &d,
                &Budget {
                    deadline: Some(Instant::now()),
                    ..Budget::default()
                },
            )
            .unwrap_err();
        assert_eq!(err.limit, LimitKind::Deadline);
        assert_eq!(err.rounds, 0);
    }

    #[test]
    fn ground_terms_in_rules() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let g = v.rel("goal", 1);
        let a = v.constant("a");
        // goal(x) <- E(a, x): only successors of the constant a.
        let rule = Rule::new(
            DAtom {
                rel: g,
                args: vec![DTerm::Var(0)],
            },
            vec![Literal::Pos(DAtom {
                rel: e,
                args: vec![DTerm::Ground(Term::Const(a)), DTerm::Var(0)],
            })],
        );
        let p = Program::new(vec![rule], g);
        let b = v.constant("b");
        let c = v.constant("c");
        let mut d = Instance::new();
        d.insert(Fact::consts(e, &[a, b]));
        d.insert(Fact::consts(e, &[b, c]));
        let ans = p.eval(&d);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Term::Const(b)]));
    }

    #[test]
    fn empty_program_derives_nothing() {
        let mut v = Vocab::new();
        let g = v.rel("goal", 1);
        let p = Program::new(vec![], g);
        let d = path_instance(&mut v, 2);
        assert!(p.eval(&d).is_empty());
    }

    /// Replays a recorded derivation by linear substitution matching —
    /// the same check `gomq-cert` performs — against the store the
    /// fixpoint produced.
    fn check_derivation(
        rules: &[Rule],
        total: &IndexedInstance,
        id: usize,
        d: &Derivation,
    ) -> Result<(), String> {
        let rule = &rules[d.rule as usize];
        let atoms: Vec<&DAtom> = rule.positive_atoms().collect();
        if atoms.len() != d.premises.len() {
            return Err(format!("premise count {} != atoms", d.premises.len()));
        }
        let mut frame: Vec<Option<Term>> = vec![None; rule.num_slots()];
        for (atom, &pid) in atoms.iter().zip(&d.premises) {
            if pid as usize >= id {
                return Err(format!("premise {pid} not before fact {id}"));
            }
            let f = total.fact(pid);
            if f.rel != atom.rel || f.args.len() != atom.args.len() {
                return Err("premise shape mismatch".into());
            }
            for (pat, &t) in atom.args.iter().zip(f.args.iter()) {
                match pat {
                    DTerm::Ground(g) if *g != t => return Err("ground mismatch".into()),
                    DTerm::Ground(_) => {}
                    DTerm::Var(v) => match frame[*v as usize] {
                        Some(prev) if prev != t => return Err("binding conflict".into()),
                        _ => frame[*v as usize] = Some(t),
                    },
                }
            }
        }
        for l in &rule.body {
            if let Literal::Neq(a, b) = l {
                if resolve(a, &frame) == resolve(b, &frame) {
                    return Err("inequality violated".into());
                }
            }
        }
        let head: Vec<Term> = rule.head.args.iter().map(|t| resolve(t, &frame)).collect();
        let got = total.fact(id as u32);
        if got.rel != rule.head.rel || got.args != head.as_slice() {
            return Err("instantiated head differs from derived fact".into());
        }
        Ok(())
    }

    #[test]
    fn traced_fixpoint_records_checkable_derivations() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let d = path_instance(&mut v, 6);
        let base = IndexedInstance::from_interpretation(&d);
        let (total, derivs, stats) =
            fixpoint_traced(&p.rules, &base, &Budget::UNLIMITED).expect("unlimited");
        // Same answers as the untraced reference evaluation.
        let traced_answers: BTreeSet<Vec<Term>> =
            total.facts_of(p.goal).map(|f| f.args.to_vec()).collect();
        assert_eq!(traced_answers, p.eval(&d));
        assert_eq!(derivs.len(), total.len());
        assert!(stats.derived > 0);
        // Base facts carry no derivation; every derived fact's recorded
        // rule application replays by substitution matching alone.
        let mut derived = 0usize;
        for (id, entry) in derivs.iter().enumerate() {
            match entry {
                None => assert!(id < base.len(), "underived non-base fact {id}"),
                Some(deriv) => {
                    derived += 1;
                    check_derivation(&p.rules, &total, id, deriv)
                        .unwrap_or_else(|e| panic!("fact {id}: {e}"));
                }
            }
        }
        assert_eq!(derived, stats.derived);
    }

    #[test]
    fn traced_round_matches_untraced_round() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let d = path_instance(&mut v, 6);
        let indexed = IndexedInstance::from_interpretation(&d);
        let mut plain_out = FactBuf::new();
        derive_round(&p.rules, &indexed, &indexed, &mut plain_out);
        let mut traced_out = TracedBuf::new();
        derive_round_traced(&p.rules, &indexed, &indexed, &mut traced_out);
        assert_eq!(plain_out.len(), traced_out.buf.len());
        for i in 0..plain_out.len() {
            assert_eq!(plain_out.get(i), traced_out.buf.get(i));
        }
        // Each staged fact has a premise per positive body atom.
        for (f, deriv) in traced_out.iter() {
            let rule = &p.rules[deriv.rule as usize];
            assert_eq!(rule.head.rel, f.rel);
            assert_eq!(rule.positive_atoms().count(), deriv.premises.len());
        }
    }

    #[test]
    fn derive_round_agrees_between_plain_and_indexed_stores() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let d = path_instance(&mut v, 6);
        let indexed = IndexedInstance::from_interpretation(&d);
        let mut plain_out = FactBuf::new();
        derive_round(&p.rules, &d, &d, &mut plain_out);
        let mut indexed_out = FactBuf::new();
        derive_round(&p.rules, &indexed, &indexed, &mut indexed_out);
        let plain: BTreeSet<Fact> = plain_out.iter().map(|f| f.to_fact()).collect();
        let indexed_set: BTreeSet<Fact> = indexed_out.iter().map(|f| f.to_fact()).collect();
        assert_eq!(plain, indexed_set);
        assert!(!plain.is_empty());
    }

    #[test]
    fn greedy_ordering_preserves_answers_with_ground_probe() {
        // A join whose cheap side is the singleton unary relation; the
        // greedy planner must start there and still find all answers.
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let u = v.rel("U", 1);
        let g = v.rel("goal", 1);
        let rule = Rule::new(
            DAtom::vars(g, &[1]),
            vec![
                Literal::Pos(DAtom::vars(e, &[0, 1])),
                Literal::Pos(DAtom::vars(u, &[0])),
            ],
        );
        let p = Program::new(vec![rule], g);
        let mut d = Instance::new();
        let names: Vec<_> = (0..20).map(|i| v.constant(&format!("m{i}"))).collect();
        for i in 0..19 {
            d.insert(Fact::consts(e, &[names[i], names[i + 1]]));
        }
        d.insert(Fact::consts(u, &[names[4]]));
        let ans = p.eval(&d);
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![Term::Const(names[5])]));
        assert_eq!(p.eval(&d), eval_naive(&p, &d));
    }
}
