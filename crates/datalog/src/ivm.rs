//! Incremental view maintenance: counting DRed over the columnar store.
//!
//! A [`Materialization`] keeps the least fixpoint of a Datalog≠ rule set
//! over a growing-and-shrinking base instance *maintained* instead of
//! recomputing it per query:
//!
//! * **Insertions** ([`Materialization::sync`]) are propagated
//!   semi-naively: the new base facts form the delta — read in place
//!   as an id range ([`gomq_core::DeltaView`]) when they are exactly the
//!   facts past some id, as in every round of a fresh build, else as an
//!   id set ([`gomq_core::IdSetView`]) — and [`derive_round`] runs
//!   restricted to it, so the cost is proportional to the consequences
//!   of the *changed* facts, not to the instance.
//! * **Retractions** ([`Materialization::rollback`]) run
//!   delete-rederive (DRed): first every fact with any derivation
//!   through a doomed fact is *overcounted* out (support set to 0 — the
//!   fact stays in place, dead, so ids never shift), then facts still
//!   derivable from the survivors are *rederived* and their
//!   consequences re-propagated as insertions.
//!
//! Support counts ([`gomq_core::FactStore::sub_support`]) are an upper
//! bound on the number of derivations (the semi-naive matcher counts an
//! instantiation once per delta atom it contains), so correctness never
//! rests on a count reaching zero — only the DRed mark/rederive phases
//! decide liveness. The counts exist to keep the dead/live boundary
//! cheap to test and to surface maintenance pressure in statistics.
//!
//! Every maintenance round and the rederive probe stage through one
//! [`TracedBuf`], which records a witness derivation per staged fact
//! exactly when the view is a recording one.
//!
//! The maintained store only ever grows; a rolled-back fact that is
//! never re-derived stays dead in place. Sessions that churn heavily
//! should eventually rebuild (the serving layer's view registry drops a
//! view whenever maintenance fails, which doubles as the compaction
//! valve).

use crate::eval::{
    derive_all, derive_round, Budget, BudgetExceeded, Derivation, EvalStats, TracedBuf,
};
use crate::program::Rule;
use gomq_core::{DeltaView, FactId, FactStore, IdSetView, IndexedInstance, RelId, Term};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// A maintained fixpoint of one rule set over a base instance.
///
/// The base is identified positionally: fact `i` of the base instance
/// (its interning order) corresponds to `base_ids[i]` in the maintained
/// store. The base may only change by appending facts or truncating to
/// a prefix — exactly the session store's assert/rollback protocol.
#[derive(Clone, Debug)]
pub struct Materialization {
    /// The maintained rule set (flattened; positive Datalog≠ needs no
    /// stratification for maintenance correctness), shared with the
    /// program the view was built from.
    rules: Arc<[Rule]>,
    /// The goal relation whose live facts are the answers.
    goal: RelId,
    /// Base ∪ IDB with stable ids; retracted facts stay dead in place.
    total: IndexedInstance,
    /// Base fact index → maintained fact id, in base insertion order.
    base_ids: Vec<u32>,
    /// Whether maintenance records witness derivations.
    record: bool,
    /// `derivs[id]` is the recorded rule application justifying fact
    /// `id`, kept current for every *live derived* fact while
    /// `record` is on. Base facts need no justification (emission cites
    /// them symbolically — which is also what keeps a kept EDB
    /// duplicate's certificate honest after its derived support is
    /// rolled back); entries of dead facts are stale until revival
    /// re-records them.
    derivs: Vec<Option<Derivation>>,
}

impl Materialization {
    /// Builds a materialization of `rules` over `base` by saturating
    /// from scratch (the one full fixpoint a maintained view ever pays).
    pub fn build(
        rules: &Arc<[Rule]>,
        goal: RelId,
        base: &IndexedInstance,
        budget: &Budget,
    ) -> Result<(Materialization, EvalStats), BudgetExceeded> {
        Self::build_inner(rules, goal, base.store(), budget, false)
    }

    /// [`Materialization::build`] with witness recording: every derived
    /// fact keeps the rule application that produced it, so answers can
    /// be emitted with a derivation certificate without re-evaluating.
    pub fn build_recording(
        rules: &Arc<[Rule]>,
        goal: RelId,
        base: &IndexedInstance,
        budget: &Budget,
    ) -> Result<(Materialization, EvalStats), BudgetExceeded> {
        Self::build_inner(rules, goal, base.store(), budget, true)
    }

    /// [`Materialization::build_recording`] over a plain fact store: a
    /// view reads its base only in interning order, so a base built for
    /// this one view needs no per-position index.
    pub fn build_recording_from_store(
        rules: &Arc<[Rule]>,
        goal: RelId,
        base: &FactStore,
        budget: &Budget,
    ) -> Result<(Materialization, EvalStats), BudgetExceeded> {
        Self::build_inner(rules, goal, base, budget, true)
    }

    fn build_inner(
        rules: &Arc<[Rule]>,
        goal: RelId,
        base: &FactStore,
        budget: &Budget,
        record: bool,
    ) -> Result<(Materialization, EvalStats), BudgetExceeded> {
        let mut m = Materialization {
            rules: Arc::clone(rules),
            goal,
            total: IndexedInstance::new(),
            base_ids: Vec::new(),
            record,
            derivs: Vec::new(),
        };
        let mut stats = EvalStats::default();
        m.sync_inner(base, budget, &mut stats)?;
        stats.store = m.total.store_stats();
        Ok((m, stats))
    }

    /// Whether this view records witness derivations.
    pub fn is_recording(&self) -> bool {
        self.record
    }

    /// The maintained store (base ∪ IDB, dead facts in place).
    pub fn instance(&self) -> &IndexedInstance {
        &self.total
    }

    /// The maintained fact ids of the current base, in base insertion
    /// order (an id appears once per duplicate assert).
    pub fn base_fact_ids(&self) -> &[u32] {
        &self.base_ids
    }

    /// Ids of the live goal facts — the answers, with their store
    /// identity (the id a certificate will cite).
    pub fn answer_ids(&self) -> Vec<u32> {
        let store = self.total.store();
        store
            .rel_ids(self.goal)
            .iter()
            .copied()
            .filter(|&id| store.is_live(id))
            .collect()
    }

    /// The recorded derivation of fact `id`, if recording is on and the
    /// fact was derived (base facts and pre-recording facts have none).
    pub fn derivation(&self, id: u32) -> Option<&Derivation> {
        self.derivs.get(id as usize).and_then(Option::as_ref)
    }

    /// The maintained rule set (indices match recorded derivations),
    /// shared with the program the view was built from.
    pub fn rules(&self) -> &Arc<[Rule]> {
        &self.rules
    }

    /// Number of base facts currently incorporated.
    pub fn base_len(&self) -> usize {
        self.base_ids.len()
    }

    /// Total maintained facts (live and dead).
    pub fn len(&self) -> usize {
        self.total.len()
    }

    /// Whether the maintained store is empty.
    pub fn is_empty(&self) -> bool {
        self.total.is_empty()
    }

    /// Live maintained facts.
    pub fn live_len(&self) -> usize {
        self.total.store().live_len()
    }

    /// Dead (retracted, not rederived) maintained facts.
    pub fn dead_len(&self) -> usize {
        self.total.store().dead_count()
    }

    /// The goal relation.
    pub fn goal(&self) -> RelId {
        self.goal
    }

    /// The current answers: argument tuples of the live goal facts.
    pub fn answers(&self) -> BTreeSet<Vec<Term>> {
        let store = self.total.store();
        store
            .rel_ids(self.goal)
            .iter()
            .filter(|&&id| store.is_live(id))
            .map(|&id| store.args(FactId(id)).to_vec())
            .collect()
    }

    /// Incorporates the base facts appended since the last maintenance
    /// call (`base` must extend the prefix this view has seen; a shorter
    /// one panics) and propagates their consequences. O(consequences of
    /// the new facts).
    pub fn sync(
        &mut self,
        base: &IndexedInstance,
        budget: &Budget,
    ) -> Result<EvalStats, BudgetExceeded> {
        gomq_core::faults::point(gomq_core::faults::IVM_APPLY);
        let mut stats = EvalStats::default();
        self.sync_inner(base.store(), budget, &mut stats)?;
        stats.store = self.total.store_stats();
        Ok(stats)
    }

    fn sync_inner(
        &mut self,
        base: &FactStore,
        budget: &Budget,
        stats: &mut EvalStats,
    ) -> Result<(), BudgetExceeded> {
        // Checked in every build profile: a base shorter than the frontier
        // means a rollback skipped this view, and syncing would silently
        // serve facts the store no longer holds.
        assert!(
            base.len() >= self.base_ids.len(),
            "sync on a shrunk base: rollback must run first"
        );
        let mut frontier: Vec<u32> = Vec::new();
        for idx in self.base_ids.len()..base.len() {
            let f = base.fact_ref(FactId(idx as u32));
            let (id, new) = self.total.intern_ref(f.rel, f.args);
            if new {
                frontier.push(id.0);
            } else if self.total.store().is_live(id.0) {
                // Already derivable: the assert just adds base support;
                // its consequences are all present.
                self.total.add_support(id, 1);
            } else {
                // Re-asserting a retracted fact revives it; retracted
                // consequences come back through propagation.
                self.total.set_support(id, 1);
                stats.ivm_rederived = stats.ivm_rederived.saturating_add(1);
                frontier.push(id.0);
            }
            self.base_ids.push(id.0);
        }
        self.propagate(frontier, &mut TracedBuf::new(self.record), budget, stats)
    }

    /// Retracts every base fact past the first `keep` (the session's
    /// rollback-to-mark) by counting DRed: overcount-delete everything
    /// with a derivation through a doomed fact, then rederive what the
    /// survivors still support.
    pub fn rollback(&mut self, keep: usize, budget: &Budget) -> Result<EvalStats, BudgetExceeded> {
        gomq_core::faults::point(gomq_core::faults::IVM_APPLY);
        let mut stats = EvalStats::default();
        debug_assert!(keep <= self.base_ids.len(), "rollback past the base");
        let doomed: Vec<u32> = self.base_ids.split_off(keep.min(self.base_ids.len()));
        if doomed.is_empty() {
            stats.store = self.total.store_stats();
            return Ok(stats);
        }
        // Facts of the surviving EDB can never be deleted, so deletions
        // are not propagated through them (the standard DRed shortcut).
        let kept: HashSet<u32> = self.base_ids.iter().copied().collect();

        // Phase 1 — overcount: transitively mark everything with a
        // derivation using a doomed fact. Nothing is dead yet, so the
        // delta rounds run over the full pre-deletion store. Marking
        // needs no witnesses, so these rounds stage into the buffer's
        // fact column alone.
        let mut marked: HashSet<u32> = doomed
            .iter()
            .filter(|id| !kept.contains(id))
            .copied()
            .collect();
        let mut frontier: Vec<u32> = marked.iter().copied().collect();
        frontier.sort_unstable();
        let mut staged = TracedBuf::new(self.record);
        while !frontier.is_empty() {
            budget.check(&stats)?;
            stats.rounds = stats.rounds.saturating_add(1);
            staged.clear();
            let delta = IdSetView::new(&self.total, &frontier);
            derive_round(&self.rules, &self.total, &delta, &mut staged.buf);
            frontier.clear();
            for f in staged.buf.iter() {
                if let Some(id) = self.total.store().lookup(f.rel, f.args) {
                    if !kept.contains(&id.0) && marked.insert(id.0) {
                        frontier.push(id.0);
                    }
                }
            }
            frontier.sort_unstable();
        }

        // Phase 2 — delete: the marked facts go dead in place.
        stats.ivm_deleted = stats.ivm_deleted.saturating_add(marked.len());
        for &id in &marked {
            self.total.set_support(FactId(id), 0);
        }

        // Phase 3 — rederive: one naive probe of the rules whose head
        // relations lost facts, over the surviving live store; every
        // dead head it derives comes back, and revivals propagate as
        // insertions.
        budget.check(&stats)?;
        let dead_rels: HashSet<RelId> = marked
            .iter()
            .map(|&id| self.total.store().rel(FactId(id)))
            .collect();
        staged.clear();
        derive_all(
            &self.rules,
            |r| dead_rels.contains(&r.head.rel),
            &self.total,
            &mut staged,
        );
        stats.rounds = stats.rounds.saturating_add(1);
        let mut revived: Vec<u32> = Vec::new();
        // A live head already has its support; the probe only revives.
        self.absorb(&staged, false, &mut revived, &mut stats);
        self.propagate(revived, &mut staged, budget, &mut stats)?;
        stats.store = self.total.store_stats();
        Ok(stats)
    }

    /// Semi-naive insertion propagation from an explicit frontier of
    /// ids: each round restricts [`derive_round`] to the facts added or
    /// revived by the previous one.
    fn propagate(
        &mut self,
        mut frontier: Vec<u32>,
        staged: &mut TracedBuf,
        budget: &Budget,
        stats: &mut EvalStats,
    ) -> Result<(), BudgetExceeded> {
        while !frontier.is_empty() {
            budget.check(stats)?;
            gomq_core::faults::point(gomq_core::faults::EVAL_ROUND);
            stats.rounds = stats.rounds.saturating_add(1);
            staged.clear();
            frontier.sort_unstable();
            frontier.dedup();
            let first = frontier[0];
            // A frontier that is exactly the id range past its first id
            // (every round of a fresh build, a sync that interned only new
            // facts) is read in place; any other is indexed as a set. Both
            // views yield the same ids in the same order.
            if frontier.len() == self.total.len() - first as usize {
                let delta = DeltaView::new(&self.total, first);
                derive_round(&self.rules, &self.total, &delta, staged);
            } else {
                let delta = IdSetView::new(&self.total, &frontier);
                derive_round(&self.rules, &self.total, &delta, staged);
            }
            frontier.clear();
            self.absorb(staged, true, &mut frontier, stats);
        }
        Ok(())
    }

    /// Interns the staged facts. A new fact counts as derived and a dead
    /// one is revived; both join `frontier`, and a recording view keeps
    /// the instantiation that staged them as their witness (a revived
    /// fact's old witness may cite facts that are now dead; the new one's
    /// premises were live this round). A live fact gains one support when
    /// `support_live` (one more derivation; its first witness stays, its
    /// premises older and themselves still justified).
    fn absorb(
        &mut self,
        staged: &TracedBuf,
        support_live: bool,
        frontier: &mut Vec<u32>,
        stats: &mut EvalStats,
    ) {
        for (i, f) in staged.buf.iter().enumerate() {
            let (id, new) = self.total.intern_ref(f.rel, f.args);
            if new {
                stats.derived = stats.derived.saturating_add(1);
            } else if self.total.store().is_live(id.0) {
                if support_live {
                    self.total.add_support(id, 1);
                }
                continue;
            } else {
                self.total.set_support(id, 1);
                stats.ivm_rederived = stats.ivm_rederived.saturating_add(1);
            }
            frontier.push(id.0);
            if let Some(d) = staged.derivs.get(i) {
                let slot = id.0 as usize;
                if self.derivs.len() <= slot {
                    self.derivs.resize(slot + 1, None);
                }
                self.derivs[slot] = Some(d.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{DAtom, DTerm, Literal, Program};
    use gomq_core::{Fact, Vocab};

    /// Transitive closure with a ≠-guarded goal — the same shape the
    /// evaluator tests use, so maintained answers can be cross-checked
    /// against `Program::eval`.
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

    fn recompute(p: &Program, base: &IndexedInstance) -> BTreeSet<Vec<Term>> {
        p.eval(&base.to_interpretation())
    }

    /// Asserts the recording invariant certificates rely on: every live
    /// fact is either base (cited symbolically) or carries a recorded
    /// derivation whose premises are live, match the rule's body by
    /// substitution, instantiate its head to the fact — and whose
    /// citation graph is acyclic (well-founded justification).
    fn assert_witnesses_sound(m: &Materialization) {
        use crate::program::DTerm;
        let store = m.instance().store();
        let base: HashSet<u32> = m.base_fact_ids().iter().copied().collect();
        // 0 = unvisited, 1 = in progress (cycle if revisited), 2 = done.
        let mut state = vec![0u8; m.len()];
        fn visit(m: &Materialization, base: &HashSet<u32>, state: &mut Vec<u8>, id: u32) {
            if state[id as usize] == 2 {
                return;
            }
            assert_ne!(state[id as usize], 1, "cyclic justification at fact {id}");
            state[id as usize] = 1;
            if !base.contains(&id) {
                let store = m.instance().store();
                let d = m
                    .derivation(id)
                    .unwrap_or_else(|| panic!("live derived fact {id} has no witness"));
                let rule = &m.rules()[d.rule as usize];
                let atoms: Vec<_> = rule.positive_atoms().collect();
                assert_eq!(atoms.len(), d.premises.len(), "fact {id}");
                let mut frame: Vec<Option<Term>> = vec![None; rule.num_slots()];
                for (atom, &pid) in atoms.iter().zip(&d.premises) {
                    assert!(store.is_live(pid), "fact {id} cites dead premise {pid}");
                    visit(m, base, state, pid);
                    let f = store.fact_ref(FactId(pid));
                    assert_eq!(f.rel, atom.rel, "fact {id}");
                    for (pat, &t) in atom.args.iter().zip(f.args.iter()) {
                        match pat {
                            DTerm::Ground(g) => assert_eq!(*g, t, "fact {id}"),
                            DTerm::Var(v) => match frame[*v as usize] {
                                Some(prev) => assert_eq!(prev, t, "fact {id}"),
                                None => frame[*v as usize] = Some(t),
                            },
                        }
                    }
                }
                let resolve = |t: &DTerm| match t {
                    DTerm::Ground(g) => *g,
                    DTerm::Var(v) => frame[*v as usize].expect("bound"),
                };
                for l in &rule.body {
                    if let crate::program::Literal::Neq(a, b) = l {
                        assert_ne!(resolve(a), resolve(b), "fact {id}");
                    }
                }
                let head: Vec<Term> = rule.head.args.iter().map(resolve).collect();
                let got = store.fact_ref(FactId(id));
                assert_eq!(got.rel, rule.head.rel, "fact {id}");
                assert_eq!(got.args, head.as_slice(), "fact {id}");
            }
            state[id as usize] = 2;
        }
        for id in 0..m.len() as u32 {
            if store.is_live(id) {
                visit(m, &base, &mut state, id);
            }
        }
    }

    fn edge(v: &mut Vocab, base: &mut IndexedInstance, from: &str, to: &str) {
        let e = v.rel("E", 2);
        let a = v.constant(from);
        let b = v.constant(to);
        base.insert(Fact::consts(e, &[a, b]));
    }

    #[test]
    fn sync_and_rollback_track_recompute() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let mut base = IndexedInstance::new();
        let (mut m, _) =
            Materialization::build(&p.rules, p.goal, &base, &Budget::UNLIMITED).unwrap();
        assert!(m.answers().is_empty());

        // Grow a path, syncing incrementally after each batch.
        edge(&mut v, &mut base, "n0", "n1");
        edge(&mut v, &mut base, "n1", "n2");
        m.sync(&base, &Budget::UNLIMITED).unwrap();
        assert_eq!(m.answers(), recompute(&p, &base));
        let mark = base.len();
        let answers_at_mark = m.answers();

        edge(&mut v, &mut base, "n2", "n3");
        edge(&mut v, &mut base, "n3", "n0"); // closes a cycle
        let stats = m.sync(&base, &Budget::UNLIMITED).unwrap();
        assert!(stats.derived > 0);
        assert_eq!(m.answers(), recompute(&p, &base));

        // Roll the cycle back out: DRed must retract its consequences.
        base.truncate(mark);
        let stats = m.rollback(mark, &Budget::UNLIMITED).unwrap();
        assert!(stats.ivm_deleted > 0);
        assert_eq!(m.answers(), answers_at_mark);
        assert_eq!(m.answers(), recompute(&p, &base));
        assert_eq!(m.base_len(), mark);
        assert!(m.dead_len() > 0, "retracted facts stay dead in place");

        // Re-assert one of the rolled-back edges: revival, not growth.
        let before = m.len();
        edge(&mut v, &mut base, "n2", "n3");
        let stats = m.sync(&base, &Budget::UNLIMITED).unwrap();
        assert!(stats.ivm_rederived > 0, "re-assert revives dead facts");
        assert_eq!(m.answers(), recompute(&p, &base));
        assert_eq!(m.len(), before, "revival allocates no new facts");
    }

    #[test]
    fn rollback_keeps_edb_duplicates_of_derived_facts() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let t = v.rel("T", 2);
        let a = v.constant("a");
        let b = v.constant("b");
        let mut base = IndexedInstance::new();
        // T(a,b) asserted directly as EDB…
        base.insert(Fact::consts(t, &[a, b]));
        let (mut m, _) =
            Materialization::build_recording(&p.rules, p.goal, &base, &Budget::UNLIMITED).unwrap();
        let mark = base.len();
        // …then also derived via E(a,b), then the edge rolled back.
        edge(&mut v, &mut base, "a", "b");
        m.sync(&base, &Budget::UNLIMITED).unwrap();
        base.truncate(mark);
        m.rollback(mark, &Budget::UNLIMITED).unwrap();
        // The kept EDB fact must survive the deletion of its derived
        // duplicate's support.
        assert_eq!(m.answers(), recompute(&p, &base));
        assert!(m.answers().contains(&vec![Term::Const(a), Term::Const(b)]));
        // Certificate path: the kept fact's justification must not go
        // through the doomed edge. It is cited as a *base* fact (it is
        // one), which sidesteps its stale derived witness entirely; the
        // soundness sweep below would catch a citation of the dead
        // E(a,b) or of any other doomed premise.
        let t_id = m
            .instance()
            .store()
            .lookup(t, &[Term::Const(a), Term::Const(b)])
            .expect("T(a,b) maintained");
        assert!(
            m.base_fact_ids().contains(&t_id.0),
            "kept EDB duplicate is certified as a base fact"
        );
        assert_witnesses_sound(&m);

        // The mirror case: derived fact loses its EDB duplicate but
        // stays derivable — rederivation must reinstate it, and its
        // fresh witness must cite the surviving premises.
        let mut base = IndexedInstance::new();
        edge(&mut v, &mut base, "a", "b");
        let mark = base.len();
        base.insert(Fact::consts(t, &[a, b]));
        let (mut m, _) =
            Materialization::build_recording(&p.rules, p.goal, &base, &Budget::UNLIMITED).unwrap();
        base.truncate(mark);
        let stats = m.rollback(mark, &Budget::UNLIMITED).unwrap();
        assert!(stats.ivm_rederived > 0, "T(a,b) must be rederived");
        assert_eq!(m.answers(), recompute(&p, &base));
        let t_id = m
            .instance()
            .store()
            .lookup(t, &[Term::Const(a), Term::Const(b)])
            .expect("T(a,b) maintained");
        assert!(
            !m.base_fact_ids().contains(&t_id.0),
            "rolled-back EDB duplicate is no longer base"
        );
        let witness = m.derivation(t_id.0).expect("rederived fact has a witness");
        for &pid in &witness.premises {
            assert!(
                m.instance().store().is_live(pid),
                "rederived T(a,b) cites doomed premise {pid}"
            );
        }
        assert_witnesses_sound(&m);
    }

    #[test]
    fn recorded_witnesses_stay_sound_across_maintenance() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let mut base = IndexedInstance::new();
        let (mut m, _) =
            Materialization::build_recording(&p.rules, p.goal, &base, &Budget::UNLIMITED).unwrap();
        assert!(m.is_recording());

        edge(&mut v, &mut base, "n0", "n1");
        edge(&mut v, &mut base, "n1", "n2");
        m.sync(&base, &Budget::UNLIMITED).unwrap();
        assert_witnesses_sound(&m);
        let mark = base.len();

        edge(&mut v, &mut base, "n2", "n3");
        edge(&mut v, &mut base, "n3", "n0"); // closes a cycle
        m.sync(&base, &Budget::UNLIMITED).unwrap();
        assert_witnesses_sound(&m);

        // Rollback kills the cycle's consequences; survivors must keep
        // well-founded witnesses and rederivations must re-record.
        base.truncate(mark);
        m.rollback(mark, &Budget::UNLIMITED).unwrap();
        assert_witnesses_sound(&m);
        assert_eq!(m.answers(), recompute(&p, &base));

        // Revival via re-assert replaces the stale witness.
        edge(&mut v, &mut base, "n2", "n3");
        m.sync(&base, &Budget::UNLIMITED).unwrap();
        assert_witnesses_sound(&m);
        assert_eq!(m.answers(), recompute(&p, &base));

        // Answer ids point at live goal facts.
        for id in m.answer_ids() {
            assert!(m.instance().store().is_live(id));
        }

        // A non-recording view records nothing.
        let (m2, _) = Materialization::build(&p.rules, p.goal, &base, &Budget::UNLIMITED).unwrap();
        assert!(!m2.is_recording());
        assert!((0..m2.len() as u32).all(|id| m2.derivation(id).is_none()));
    }

    #[test]
    fn maintenance_respects_the_budget() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let mut base = IndexedInstance::new();
        for i in 0..12 {
            edge(&mut v, &mut base, &format!("m{i}"), &format!("m{}", i + 1));
        }
        let err = Materialization::build(
            &p.rules,
            p.goal,
            &base,
            &Budget {
                max_derived: Some(3),
                ..Budget::default()
            },
        )
        .unwrap_err();
        assert_eq!(err.limit, crate::eval::LimitKind::Derived);
    }
}
