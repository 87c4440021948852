//! The native backend: stratified, indexed, parallel Datalog≠ evaluation.
//!
//! The one-shot evaluator in `gomq-datalog` re-runs every rule of the
//! program in every fixpoint round. This module consumes the
//! backend-agnostic [`PlanIr`] (one SCC stratum at a time, bodies-first
//! order — see `gomq_datalog::ir`) and:
//!
//! 1. runs one semi-naive fixpoint per stratum, so rules whose inputs
//!    are already saturated are never revisited (a non-recursive
//!    stratum saturates in a single pass);
//! 2. evaluates against [`IndexedInstance`]s, so joins with any bound
//!    argument probe a hash bucket instead of scanning, and fully bound
//!    atoms are one membership probe;
//! 3. splits the rules of a stratum across a scoped worker pool within
//!    each round ([`std::thread::scope`] — no external dependencies),
//!    merging the per-worker derivations into the next delta.
//!
//! [`eval_program`] is answer-equivalent to [`Program::eval`]; the
//! property tests in `tests/engine_props.rs` check exactly that, and
//! `tests/sql_crosscheck.rs` checks it against the SQL backend.

use gomq_core::{DeltaView, FactBuf, IndexedInstance, Instance, RelId, Term};
use gomq_datalog::eval::EvalStats;
use gomq_datalog::ir::{PlanIr, StratumIr};
use gomq_datalog::{derive_round, Budget, BudgetExceeded, Program, Rule};
use std::collections::BTreeSet;

/// Backward-compatible name for the shared [`PlanIr`]: the native
/// executor predates the backend split and its callers construct and
/// pass "strata".
pub type Strata = PlanIr;

/// Backward-compatible name for [`StratumIr`].
pub type Stratum = StratumIr;

/// Minimum number of delta facts per round before a round is worth
/// splitting across threads; below this the spawn overhead dominates.
const PARALLEL_DELTA_THRESHOLD: usize = 64;

/// One semi-naive round over `rules`, split across `threads` workers.
///
/// The round's delta is the id range of `total` past `frontier` (a
/// [`DeltaView`] — no delta set is materialized, let alone cloned);
/// staged head facts land in the columnar `out` buffer, per-worker
/// buffers being merged with bulk [`FactBuf::append`]s.
fn parallel_round(
    rules: &[Rule],
    total: &IndexedInstance,
    frontier: u32,
    threads: usize,
    out: &mut FactBuf,
) {
    let delta_len = total.len() - frontier as usize;
    let workers = threads.min(rules.len()).max(1);
    if workers == 1 || delta_len < PARALLEL_DELTA_THRESHOLD {
        derive_round(rules, total, &DeltaView::new(total, frontier), out);
        return;
    }
    let chunk_size = rules.len().div_ceil(workers);
    let chunks: Vec<&[Rule]> = rules.chunks(chunk_size).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut buf = FactBuf::new();
                    derive_round(chunk, total, &DeltaView::new(total, frontier), &mut buf);
                    buf
                })
            })
            .collect();
        for h in handles {
            // Re-raise worker panics on the calling thread so the serving
            // layer's catch_unwind isolates them per request.
            let mut buf = h.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            out.append(&mut buf);
        }
    });
}

/// Interns the staged facts into `total` (slice interning — the only
/// copy is the new facts' arguments landing in the arena) and returns
/// how many were new. The next round's delta is `total`'s id range past
/// the pre-absorb frontier.
fn absorb(staged: &FactBuf, total: &mut IndexedInstance) -> usize {
    let before = total.len();
    for f in staged.iter() {
        total.insert_ref(f.rel, f.args);
    }
    total.len() - before
}

/// Runs the semi-naive fixpoint of one stratum on top of `total`,
/// checking the cooperative budget between rounds.
fn fixpoint_stratum(
    stratum: &StratumIr,
    total: &mut IndexedInstance,
    threads: usize,
    stats: &mut EvalStats,
    budget: &Budget,
) -> Result<(), BudgetExceeded> {
    budget.check(stats)?;
    // First pass: every fact so far is "new" for this stratum, so the
    // delta view starts at id 0 (the whole saturated total). The pass is
    // complete for the stratum's inputs because earlier strata are
    // already saturated.
    gomq_core::faults::point(gomq_core::faults::EVAL_ROUND);
    stats.rounds = stats.rounds.saturating_add(1);
    let mut staged = FactBuf::new();
    parallel_round(&stratum.rules, total, 0, threads, &mut staged);
    let mut frontier = total.len() as u32;
    stats.derived = stats.derived.saturating_add(absorb(&staged, total));
    if !stratum.recursive {
        // Heads never feed bodies within this stratum: one pass is the
        // fixpoint, skip the would-be-empty confirmation round.
        return Ok(());
    }
    while (frontier as usize) < total.len() {
        budget.check(stats)?;
        gomq_core::faults::point(gomq_core::faults::EVAL_ROUND);
        stats.rounds = stats.rounds.saturating_add(1);
        staged.clear();
        parallel_round(&stratum.rules, total, frontier, threads, &mut staged);
        frontier = total.len() as u32;
        stats.derived = stats.derived.saturating_add(absorb(&staged, total));
    }
    Ok(())
}

/// An answer set paired with its evaluation statistics.
pub type EvalOutcome = (BTreeSet<Vec<Term>>, EvalStats);

/// Evaluates `strata` (from `program`) over an indexed instance with up
/// to `threads` workers; returns the goal tuples and statistics.
///
/// Answer-equivalent to [`Program::eval`] on the corresponding plain
/// instance.
pub fn eval_strata(
    strata: &PlanIr,
    goal: RelId,
    d: &IndexedInstance,
    threads: usize,
) -> EvalOutcome {
    eval_strata_budgeted(strata, goal, d, threads, &Budget::UNLIMITED)
        .expect("the unlimited budget cannot be exceeded")
}

/// [`eval_strata`] under a cooperative resource [`Budget`]: rounds,
/// derived-fact fuel and the wall-clock deadline are checked between
/// rounds (a pathological request stops with [`BudgetExceeded`] instead
/// of monopolizing the session; the work done so far is discarded).
pub fn eval_strata_budgeted(
    strata: &PlanIr,
    goal: RelId,
    d: &IndexedInstance,
    threads: usize,
    budget: &Budget,
) -> Result<EvalOutcome, BudgetExceeded> {
    // Clones the EDB's store columns wholesale (no per-fact work); every
    // round then appends into this one arena.
    let mut total = d.clone();
    let mut stats = EvalStats::default();
    for stratum in &strata.strata {
        fixpoint_stratum(stratum, &mut total, threads, &mut stats, budget)?;
    }
    let answers = total.facts_of(goal).map(|f| f.args.to_vec()).collect();
    stats.store = total.store_stats();
    Ok((answers, stats))
}

/// Stratifies and evaluates `program` in one call (plan-less entry
/// point; `gomq-engine` plans cache the [`PlanIr`] instead).
pub fn eval_program(
    program: &Program,
    d: &IndexedInstance,
    threads: usize,
) -> (BTreeSet<Vec<Term>>, EvalStats) {
    eval_strata(&PlanIr::of(program), program.goal, d, threads)
}

/// Evaluates one stratified plan against many instances concurrently
/// (one instance per worker, work-stealing via an atomic cursor).
pub fn eval_batch(
    strata: &PlanIr,
    goal: RelId,
    aboxes: &[IndexedInstance],
    threads: usize,
) -> Vec<EvalOutcome> {
    eval_batch_budgeted(strata, goal, aboxes, threads, &Budget::UNLIMITED)
        .expect("the unlimited budget cannot be exceeded")
}

/// [`eval_batch`] under a cooperative [`Budget`]. Round and
/// derived-fact fuel apply *per ABox*; the deadline is shared wall
/// clock. The first exhausted ABox fails the whole batch (remaining
/// workers drain quickly: each checks the budget between rounds).
pub fn eval_batch_budgeted(
    strata: &PlanIr,
    goal: RelId,
    aboxes: &[IndexedInstance],
    threads: usize,
    budget: &Budget,
) -> Result<Vec<EvalOutcome>, BudgetExceeded> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let workers = threads.min(aboxes.len()).max(1);
    if workers <= 1 {
        return aboxes
            .iter()
            .map(|d| eval_strata_budgeted(strata, goal, d, threads, budget))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<EvalOutcome, BudgetExceeded>>>> =
        aboxes.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= aboxes.len() {
                    break;
                }
                // Each worker evaluates its instance single-threaded;
                // parallelism comes from the batch dimension here.
                let r = eval_strata_budgeted(strata, goal, &aboxes[i], 1, budget);
                *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every slot filled")
        })
        .collect()
}

/// Convenience: index a plain instance and evaluate (used by tests and
/// by callers that hold plain [`Instance`]s).
pub fn eval_plain(
    program: &Program,
    d: &Instance,
    threads: usize,
) -> (BTreeSet<Vec<Term>>, EvalStats) {
    eval_program(program, &IndexedInstance::from_interpretation(d), threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::{Fact, Vocab};
    use gomq_datalog::{DAtom, DTerm, Literal};

    fn tc_program(v: &mut Vocab) -> Program {
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        let s = v.rel("S", 2);
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
                // A second layer on top of T, so there are ≥ 3 strata.
                Rule::new(
                    DAtom::vars(s, &[0, 1]),
                    vec![
                        Literal::Pos(DAtom::vars(t, &[0, 1])),
                        Literal::Neq(DTerm::Var(0), DTerm::Var(1)),
                    ],
                ),
                Rule::new(
                    DAtom::vars(g, &[0, 1]),
                    vec![Literal::Pos(DAtom::vars(s, &[0, 1]))],
                ),
            ],
            g,
        )
    }

    fn cycle(v: &mut Vocab, n: usize) -> Instance {
        let e = v.rel("E", 2);
        let mut d = Instance::new();
        for i in 0..n {
            let a = v.constant(&format!("c{i}"));
            let b = v.constant(&format!("c{}", (i + 1) % n));
            d.insert(Fact::consts(e, &[a, b]));
        }
        d
    }

    #[test]
    fn strata_order_is_bodies_first() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let strata = Strata::of(&p);
        assert_eq!(strata.len(), 3);
        let t = v.rel("T", 2);
        let s = v.rel("S", 2);
        let g = v.rel("goal", 2);
        let heads: Vec<BTreeSet<RelId>> = strata
            .strata
            .iter()
            .map(|s| s.rules.iter().map(|r| r.head.rel).collect())
            .collect();
        assert_eq!(heads[0], [t].into_iter().collect());
        assert_eq!(heads[1], [s].into_iter().collect());
        assert_eq!(heads[2], [g].into_iter().collect());
    }

    #[test]
    fn stratified_matches_one_shot() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let d = cycle(&mut v, 7);
        let expected = p.eval(&d);
        for threads in [1, 4] {
            let (got, stats) = eval_plain(&p, &d, threads);
            assert_eq!(got, expected, "threads = {threads}");
            assert!(stats.rounds >= 3);
        }
        assert_eq!(expected.len(), 7 * 6);
    }

    #[test]
    fn batch_matches_individual_evaluation() {
        let mut v = Vocab::new();
        let p = tc_program(&mut v);
        let strata = Strata::of(&p);
        let aboxes: Vec<IndexedInstance> = (3..9)
            .map(|n| IndexedInstance::from_interpretation(&cycle(&mut v, n)))
            .collect();
        let batch = eval_batch(&strata, p.goal, &aboxes, 4);
        assert_eq!(batch.len(), aboxes.len());
        for (i, d) in aboxes.iter().enumerate() {
            let (individual, _) = eval_strata(&strata, p.goal, d, 1);
            assert_eq!(batch[i].0, individual, "abox {i}");
        }
    }

    #[test]
    fn empty_program_and_goal_edb_facts() {
        let mut v = Vocab::new();
        let g = v.rel("goal", 1);
        let p = Program::new(vec![], g);
        let a = v.constant("a");
        let mut d = Instance::new();
        d.insert(Fact::consts(g, &[a]));
        // Goal facts already in the EDB are answers, as in Program::eval.
        let (ans, _) = eval_plain(&p, &d, 2);
        assert_eq!(ans, p.eval(&d));
        assert_eq!(ans.len(), 1);
    }
}
