//! E18: incremental view maintenance for session materializations vs
//! from-scratch recompute.
//!
//! Workload: the Example-6 odd-cycle ontology compiled by the real
//! rewriting pipeline into a Datalog≠ program, posed as a *session*
//! query stream against an `R`-cycle of `n` base facts that keeps
//! growing: blocks of asserts (fresh `R`-edges chained off the cycle)
//! interleaved with repeat queries at assert:query ratios 1:10, 1:1 and
//! 10:1. Two implementations of the same stream:
//!
//! * `maintained_*`: one `Materialization::build` (the single full
//!   fixpoint a view ever pays), then each query is an incremental
//!   `sync` over the facts asserted since the view last looked —
//!   counting semi-naive insertion propagation restricted to the delta.
//! * `recompute_*`: every query re-runs the full stratified fixpoint
//!   over the current store (`eval_strata_budgeted`, the stratified
//!   executor; an uncertified served session read is answered from
//!   a maintained view or, with views off, from the type kernel).
//!
//! Both streams produce the same answer sets; the harness asserts
//! per-query equality outside the measured region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gomq_bench::cycle_instance;
use gomq_core::{Fact, IndexedInstance, RelId, Term, Vocab};
use gomq_datalog::{Budget, Materialization, Rule};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{eval_strata_budgeted, Strata};
use gomq_logic::GfOntology;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::ElementTypeSystem;
use std::collections::BTreeSet;
use std::sync::Arc;

fn odd_cycle_dl(vocab: &mut Vocab) -> (GfOntology, RelId, RelId) {
    let text = "A6 and ex R6.A6 sub E6\n\
                not A6 and ex R6.not A6 sub E6\n\
                E6 sub all R6.E6\n\
                E6 sub all R6-.E6\n";
    let dl = parse_ontology(text, vocab).expect("odd-cycle DL text parses");
    let o = to_gf(&dl);
    let r = vocab.find_rel("R6").expect("R6");
    let e = vocab.find_rel("E6").expect("E6");
    (o, r, e)
}

/// One step of the session stream.
#[derive(Clone, Copy)]
enum Op {
    /// Assert the next fresh fact.
    Assert,
    /// Pose the session query.
    Query,
}

/// `blocks` repetitions of (`a` asserts, then `q` queries).
fn stream(a: usize, q: usize, blocks: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for _ in 0..blocks {
        ops.extend(std::iter::repeat_n(Op::Assert, a));
        ops.extend(std::iter::repeat_n(Op::Query, q));
    }
    ops
}

/// The maintained side: build once, then sync per query.
fn run_maintained(
    rules: &Arc<[Rule]>,
    goal: RelId,
    base: &IndexedInstance,
    ops: &[Op],
    fresh: &[Fact],
) -> Vec<BTreeSet<Vec<Term>>> {
    let budget = Budget::UNLIMITED;
    let mut store = base.clone();
    let (mut view, _) = Materialization::build(rules, goal, &store, &budget).expect("unlimited");
    let mut next = 0usize;
    let mut answers = Vec::new();
    for op in ops {
        match op {
            Op::Assert => {
                let f = &fresh[next];
                store.insert_ref(f.rel, &f.args);
                next += 1;
            }
            Op::Query => {
                view.sync(&store, &budget).expect("unlimited");
                answers.push(view.answers());
            }
        }
    }
    answers
}

/// The recompute side: every query re-runs the full fixpoint.
fn run_recompute(
    strata: &Strata,
    goal: RelId,
    base: &IndexedInstance,
    ops: &[Op],
    fresh: &[Fact],
) -> Vec<BTreeSet<Vec<Term>>> {
    let budget = Budget::UNLIMITED;
    let mut store = base.clone();
    let mut next = 0usize;
    let mut answers = Vec::new();
    for op in ops {
        match op {
            Op::Assert => {
                let f = &fresh[next];
                store.insert_ref(f.rel, &f.args);
                next += 1;
            }
            Op::Query => {
                let (a, _) =
                    eval_strata_budgeted(strata, goal, &store, 1, &budget).expect("unlimited");
                answers.push(a);
            }
        }
    }
    answers
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_ivm");
    group.sample_size(10);
    let mut v = Vocab::new();
    let (o, r, e) = odd_cycle_dl(&mut v);
    let sys = ElementTypeSystem::build(&o, &v).expect("supported");
    let program = emit_datalog(&sys, e, &mut v);
    let strata = Strata::of(&program);

    // CI smoke (xtests/ci.sh) runs the tiny size only; the recorded
    // BENCH_ivm.json numbers come from the full sweep.
    let sizes: &[usize] = if std::env::var_os("E15_TINY").is_some() {
        &[30]
    } else {
        &[30, 300]
    };
    // (label, asserts per block, queries per block, blocks): the three
    // assert:query mixes, comparable stream lengths.
    let ratios: &[(&str, usize, usize, usize)] =
        &[("1to10", 1, 10, 3), ("1to1", 1, 1, 8), ("10to1", 10, 1, 3)];

    for &n in sizes {
        let base = IndexedInstance::from_instance(cycle_instance(r, n, &format!("s{n}_"), &mut v));
        // Fresh R-edges chained off cycle node 0, so every assert can
        // participate in derivations instead of floating disconnected.
        let max_asserts = ratios.iter().map(|&(_, a, _, b)| a * b).max().unwrap();
        let fresh: Vec<Fact> = (0..max_asserts)
            .map(|i| {
                let from = if i == 0 {
                    v.constant(&format!("s{n}_0"))
                } else {
                    v.constant(&format!("f{n}_{}", i - 1))
                };
                let to = v.constant(&format!("f{n}_{i}"));
                Fact::consts(r, &[from, to])
            })
            .collect();

        for &(label, a, q, blocks) in ratios {
            let ops = stream(a, q, blocks);
            // Equal answer sets — checked once, outside the measured
            // region.
            let maintained = run_maintained(&program.rules, e, &base, &ops, &fresh);
            let recomputed = run_recompute(&strata, e, &base, &ops, &fresh);
            assert_eq!(
                maintained, recomputed,
                "maintained answers diverged from recompute ({label}, n={n})"
            );

            let id = format!("{label}_{n}");
            group.bench_with_input(BenchmarkId::new("maintained", &id), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        run_maintained(&program.rules, e, &base, &ops, &fresh).len(),
                    )
                })
            });
            group.bench_with_input(BenchmarkId::new("recompute", &id), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(run_recompute(&strata, e, &base, &ops, &fresh).len())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
