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
//! [`eval_strata`] is answer-equivalent to [`Program::eval`](gomq_datalog::Program::eval); the
//! property tests in `tests/engine_props.rs` check exactly that, and
//! `tests/sql_crosscheck.rs` checks it against the SQL backend.

use gomq_core::{DeltaView, FactBuf, IndexedInstance, RelId, Term};
use gomq_datalog::eval::{semi_naive, EvalStats};
use gomq_datalog::ir::PlanIr;
use gomq_datalog::{derive_round, Budget, BudgetExceeded, Rule, TracedBuf};
use std::collections::BTreeSet;

/// Backward-compatible name for the shared [`PlanIr`]: the native
/// executor predates the backend split and its callers construct and
/// pass "strata".
pub type Strata = PlanIr;

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

/// An answer set paired with its evaluation statistics.
pub type EvalOutcome = (BTreeSet<Vec<Term>>, EvalStats);

/// Evaluates `strata` (from `program`) over an indexed instance with up
/// to `threads` workers; returns the goal tuples and statistics.
///
/// Answer-equivalent to [`Program::eval`](gomq_datalog::Program::eval) on the corresponding plain
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
    let mut staged = TracedBuf::new(false);
    // Each stratum's first round reads every fact so far as its delta;
    // that pass is complete for the stratum's inputs because earlier
    // strata are already saturated.
    for stratum in &strata.strata {
        semi_naive(
            &mut total,
            &mut staged,
            &mut Vec::new(),
            stratum.recursive,
            &mut stats,
            budget,
            |total, frontier, staged| {
                parallel_round(&stratum.rules, total, frontier, threads, &mut staged.buf)
            },
        )?;
    }
    let answers = total.facts_of(goal).map(|f| f.args.to_vec()).collect();
    stats.store = total.store_stats();
    Ok((answers, stats))
}

/// Evaluates one stratified plan against many instances concurrently
/// (one instance per worker, work-stealing via an atomic cursor) under
/// a cooperative [`Budget`]. Round and derived-fact fuel apply *per
/// ABox*; the deadline is shared wall clock. The first exhausted ABox fails the whole batch (remaining
/// workers drain quickly: each checks the budget between rounds).
pub fn eval_batch_budgeted(
    strata: &PlanIr,
    goal: RelId,
    aboxes: &[IndexedInstance],
    threads: usize,
    budget: &Budget,
) -> Result<Vec<EvalOutcome>, BudgetExceeded> {
    if threads.min(aboxes.len()) <= 1 {
        return aboxes
            .iter()
            .map(|d| eval_strata_budgeted(strata, goal, d, threads, budget))
            .collect();
    }
    // Each worker evaluates its instance single-threaded; parallelism
    // comes from the batch dimension here.
    par_map(aboxes, threads, |d| {
        eval_strata_budgeted(strata, goal, d, 1, budget)
    })
    .into_iter()
    .collect()
}

/// Maps `f` over `items` with up to `threads` scoped workers (one item
/// per worker at a time, work-stealing via an atomic cursor); results
/// come back in input order. A worker panic propagates out of the
/// scope to the caller.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let workers = threads.min(items.len()).max(1);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::{Fact, Instance, Vocab};
    use gomq_datalog::{DAtom, DTerm, Literal, Program};

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
            let d = IndexedInstance::from_interpretation(&d);
            let (got, stats) = eval_strata(&Strata::of(&p), p.goal, &d, threads);
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
        let batch = eval_batch_budgeted(&strata, p.goal, &aboxes, 4, &Budget::UNLIMITED).unwrap();
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
        let indexed = IndexedInstance::from_interpretation(&d);
        let (ans, _) = eval_strata(&Strata::of(&p), g, &indexed, 2);
        assert_eq!(ans, p.eval(&d));
        assert_eq!(ans.len(), 1);
    }
}
