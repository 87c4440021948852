//! Property tests for the one semi-naive loop and the one view staging
//! path, over `gomq-datalog`'s random rich programs:
//!
//! * `Program::fixpoint_budgeted`, `fixpoint_traced` and
//!   `eval_strata_budgeted` (at 1 and 4 threads) return exactly what
//!   reference copies of the three hand-written loops they replaced
//!   return — facts in id order, derivations, `EvalStats` and
//!   `BudgetExceeded` — under unlimited, round, derived-fact and
//!   expired-deadline budgets;
//! * a recording and a non-recording `Materialization` driven through
//!   one random build/sync/rollback script hold identical stores, stats
//!   and answers after every step, and the recording view's certificate
//!   verifies standalone.

#[path = "../../datalog/tests/strategies/mod.rs"]
mod strategies;

use gomq_core::faults::{self, EVAL_ROUND};
use gomq_core::{
    DeltaView, Fact, FactBuf, FactId, FactRef, IndexedInstance, Instance, Interpretation,
};
use gomq_datalog::ir::StratumIr;
use gomq_datalog::{
    derive_round, fixpoint_traced, Budget, BudgetExceeded, Derivation, EvalStats, Materialization,
    Program, Rule, TracedBuf,
};
use gomq_engine::{certify, eval_strata_budgeted, Strata};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Instant;
use strategies::rich_strategy;

// ---------------------------------------------------------------------
// Reference copies of the loops the shared `semi_naive` loop replaced.
// ---------------------------------------------------------------------

/// The former `Program::fixpoint_budgeted` loop.
fn reference_fixpoint(
    p: &Program,
    d: &Instance,
    budget: &Budget,
) -> Result<(Interpretation, EvalStats), BudgetExceeded> {
    let mut total = d.clone();
    let mut stats = EvalStats::default();
    budget.check(&stats)?;
    let mut staged = FactBuf::new();
    let mut frontier = 0u32;
    loop {
        faults::point(EVAL_ROUND);
        stats.rounds = stats.rounds.saturating_add(1);
        staged.clear();
        derive_round(
            &p.rules,
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

type Traced = (IndexedInstance, Vec<Option<Derivation>>, EvalStats);

/// The former `fixpoint_traced` loop.
fn reference_traced(
    rules: &[Rule],
    base: &IndexedInstance,
    budget: &Budget,
) -> Result<Traced, BudgetExceeded> {
    let mut total = base.clone();
    let mut derivs: Vec<Option<Derivation>> = vec![None; total.len()];
    let mut stats = EvalStats::default();
    budget.check(&stats)?;
    let mut staged = TracedBuf::new(true);
    let mut frontier = 0u32;
    loop {
        faults::point(EVAL_ROUND);
        stats.rounds = stats.rounds.saturating_add(1);
        staged.clear();
        derive_round(
            rules,
            &total,
            &DeltaView::new(&total, frontier),
            &mut staged,
        );
        frontier = total.len() as u32;
        for (f, d) in staged.buf.iter().zip(&staged.derivs) {
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

/// The former `backend::native::fixpoint_stratum`. Its round is a
/// sequential `derive_round`, which stages exactly what the parallel
/// round does: workers take contiguous rule chunks and their buffers
/// are appended in chunk order.
fn reference_stratum(
    stratum: &StratumIr,
    total: &mut IndexedInstance,
    stats: &mut EvalStats,
    budget: &Budget,
) -> Result<(), BudgetExceeded> {
    let absorb = |staged: &FactBuf, total: &mut IndexedInstance| {
        let before = total.len();
        for f in staged.iter() {
            total.insert_ref(f.rel, f.args);
        }
        total.len() - before
    };
    budget.check(stats)?;
    faults::point(EVAL_ROUND);
    stats.rounds = stats.rounds.saturating_add(1);
    let mut staged = FactBuf::new();
    derive_round(
        &stratum.rules,
        total,
        &DeltaView::new(total, 0),
        &mut staged,
    );
    let mut frontier = total.len() as u32;
    stats.derived = stats.derived.saturating_add(absorb(&staged, total));
    if !stratum.recursive {
        return Ok(());
    }
    while (frontier as usize) < total.len() {
        budget.check(stats)?;
        faults::point(EVAL_ROUND);
        stats.rounds = stats.rounds.saturating_add(1);
        staged.clear();
        derive_round(
            &stratum.rules,
            total,
            &DeltaView::new(&*total, frontier),
            &mut staged,
        );
        frontier = total.len() as u32;
        stats.derived = stats.derived.saturating_add(absorb(&staged, total));
    }
    Ok(())
}

type Outcome = (BTreeSet<Vec<gomq_core::Term>>, EvalStats);

/// The former `eval_strata_budgeted` body over [`reference_stratum`].
fn reference_strata(
    strata: &Strata,
    p: &Program,
    d: &IndexedInstance,
    budget: &Budget,
) -> Result<Outcome, BudgetExceeded> {
    let mut total = d.clone();
    let mut stats = EvalStats::default();
    for stratum in &strata.strata {
        reference_stratum(stratum, &mut total, &mut stats, budget)?;
    }
    let answers = total.facts_of(p.goal).map(|f| f.args.to_vec()).collect();
    stats.store = total.store_stats();
    Ok((answers, stats))
}

/// The budgets every pair is run under: unlimited, 0–3 rounds, small
/// derived-fact fuel, and a deadline that has already passed.
fn budgets() -> Vec<Budget> {
    let mut out = vec![Budget::UNLIMITED];
    for max in 0..=3 {
        out.push(Budget {
            max_rounds: Some(max),
            ..Budget::default()
        });
    }
    for max in [0, 3, 8] {
        out.push(Budget {
            max_derived: Some(max),
            ..Budget::default()
        });
    }
    out.push(Budget {
        deadline: Some(Instant::now()),
        ..Budget::default()
    });
    out
}

/// The facts of a store in id order.
fn facts<'a>(store: impl Iterator<Item = FactRef<'a>>) -> Vec<Fact> {
    store.map(|f| f.to_fact()).collect()
}

// ---------------------------------------------------------------------
// Lockstep of the two view modes.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Step {
    /// Assert `E(n_a, n_b)` (`rel` 0) or `U(n_a)` (`rel` 1) facts, then
    /// sync both views.
    Assert(Vec<(u8, u8, u8)>),
    /// Take a rollback mark at the current base length.
    Mark,
    /// Roll back to a taken mark (index into them, modulo their count).
    Rollback(u8),
    /// Rebuild both views from scratch over the current base.
    Build,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let assert = vec((0u8..2, 0u8..5, 0u8..5), 1..4).prop_map(Step::Assert);
    prop_oneof![
        assert.clone(),
        assert,
        Just(Step::Mark),
        (0u8..8).prop_map(Step::Rollback),
        Just(Step::Build),
    ]
}

/// Per fact id: relation, arguments, liveness and support count.
fn store_rows(m: &Materialization) -> Vec<(Fact, bool, u32)> {
    let store = m.instance().store();
    (0..store.len() as u32)
        .map(|id| {
            let f = store.fact_ref(FactId(id)).to_fact();
            (f, store.is_live(id), store.support(FactId(id)))
        })
        .collect()
}

fn assert_lockstep(
    vocab: &gomq_core::Vocab,
    rec: &Materialization,
    plain: &Materialization,
    stats: (EvalStats, EvalStats),
    step: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(stats.0, stats.1, "stats after {}", step);
    prop_assert_eq!(store_rows(rec), store_rows(plain), "store after {}", step);
    prop_assert_eq!(rec.base_fact_ids(), plain.base_fact_ids(), "{}", step);
    prop_assert_eq!(rec.answer_ids(), plain.answer_ids(), "{}", step);
    prop_assert_eq!(rec.answers(), plain.answers(), "{}", step);
    let cert = certify(vocab, rec, None).expect("a recording view certifies");
    let verified = gomq_cert::verify(&cert)
        .unwrap_or_else(|e| panic!("certificate rejected after {step} ({e}): {cert}"));
    prop_assert_eq!(verified.answers.len(), rec.answer_ids().len(), "{}", step);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shared loop reproduces every former loop exactly, under
    /// every budget: the flat fixpoint, the traced fixpoint and the
    /// stratified executor at 1 and 4 threads.
    #[test]
    fn shared_loop_matches_the_reference_loops((_v, p, d) in rich_strategy()) {
        let base = IndexedInstance::from_interpretation(&d);
        let strata = Strata::of(&p);
        for budget in budgets() {
            let flat = |r: Result<(Interpretation, EvalStats), BudgetExceeded>| {
                r.map(|(t, s)| (facts(t.iter()), s))
            };
            let got = flat(p.fixpoint_budgeted(&d, &budget));
            let want = flat(reference_fixpoint(&p, &d, &budget));
            prop_assert_eq!(got, want, "fixpoint_budgeted under {:?}", budget);

            let traced = |r: Result<Traced, BudgetExceeded>| {
                r.map(|(t, derivs, s)| (facts(t.iter()), derivs, s))
            };
            let got = traced(fixpoint_traced(&p.rules, &base, &budget));
            let want = traced(reference_traced(&p.rules, &base, &budget));
            prop_assert_eq!(got, want, "fixpoint_traced under {:?}", budget);

            let want = reference_strata(&strata, &p, &base, &budget);
            for threads in [1, 4] {
                let got = eval_strata_budgeted(&strata, p.goal, &base, threads, &budget);
                prop_assert_eq!(
                    &got, &want,
                    "eval_strata_budgeted at {} threads under {:?}", threads, budget
                );
            }
        }
    }

    /// A recording and a non-recording view stage through the same
    /// path: after every build, sync and rollback they hold the same
    /// store (relation, arguments, liveness and support per id), report
    /// the same stats and answers, and the recording view's certificate
    /// verifies.
    #[test]
    fn recording_and_plain_views_run_in_lockstep(
        (mut v, p, d) in rich_strategy(),
        steps in vec(step_strategy(), 1..16),
    ) {
        let e = v.find_rel("E").expect("the strategy declares E");
        let u = v.find_rel("U").expect("the strategy declares U");
        let consts: Vec<_> = (0..5).map(|i| v.constant(&format!("n{i}"))).collect();
        let unlimited = Budget::UNLIMITED;
        let mut base = IndexedInstance::from_interpretation(&d);
        let build = |base: &IndexedInstance| {
            let (rules, goal) = (&p.rules, p.goal);
            let (r, rs) = Materialization::build_recording(rules, goal, base, &unlimited).unwrap();
            let (q, ps) = Materialization::build(rules, goal, base, &unlimited).unwrap();
            ((r, q), (rs, ps))
        };
        let ((mut rec, mut plain), stats) = build(&base);
        prop_assert!(rec.is_recording() && !plain.is_recording());
        assert_lockstep(&v, &rec, &plain, stats, "build")?;
        let mut marks: Vec<usize> = Vec::new();
        for step in &steps {
            let stats = match step {
                Step::Assert(batch) => {
                    for &(rel, a, b) in batch {
                        let (a, b) = (consts[a as usize], consts[b as usize]);
                        let fact = if rel == 0 {
                            Fact::consts(e, &[a, b])
                        } else {
                            Fact::consts(u, &[a])
                        };
                        base.insert(fact);
                    }
                    let rs = rec.sync(&base, &unlimited).unwrap();
                    (rs, plain.sync(&base, &unlimited).unwrap())
                }
                Step::Mark => {
                    marks.push(base.len());
                    continue;
                }
                Step::Rollback(k) => {
                    if marks.is_empty() {
                        continue;
                    }
                    let keep = marks[*k as usize % marks.len()];
                    marks.retain(|&m| m <= keep);
                    base.truncate(keep);
                    let rs = rec.rollback(keep, &unlimited).unwrap();
                    (rs, plain.rollback(keep, &unlimited).unwrap())
                }
                Step::Build => {
                    let (views, stats) = build(&base);
                    (rec, plain) = views;
                    stats
                }
            };
            assert_lockstep(&v, &rec, &plain, stats, &format!("{step:?}"))?;
        }
    }
}
