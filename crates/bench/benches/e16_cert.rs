//! E19: certificate overhead — certified vs plain answering on
//! e15-style session streams.
//!
//! Workload: the Example-6 odd-cycle ontology compiled by the engine's
//! own planner, posed as a query stream against an `R`-cycle of `n`
//! base facts that keeps growing: blocks of asserts (fresh `R`-edges
//! chained off the cycle) interleaved with queries at assert:query
//! ratios 1:10, 1:1 and 10:1. Three pipelines over identical streams:
//!
//! * `plain`: `Engine::answer` — the plan's type kernel (the
//!   no-certificate baseline).
//! * `certified`: `Engine::answer` with a certificate request — on-demand
//!   indexing, the traced fixpoint of the plan's Datalog≠ program plus
//!   certificate assembly; the certificate JSON's length
//!   is black-boxed so assembly cannot be optimized away.
//! * `verified`: certified plus a standalone `gomq_cert::verify` per
//!   response — what a client that trusts nothing pays end to end.
//!
//! All pipelines produce the same answer sets; the harness asserts
//! per-query equality outside the measured region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gomq_bench::cycle_instance;
use gomq_core::{Fact, IndexedInstance, RelId, Term, Vocab};
use gomq_datalog::Budget;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{Certify, Engine, Input, Options};
use gomq_logic::GfOntology;
use std::sync::Mutex;

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

#[derive(Clone, Copy)]
enum Op {
    Assert,
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

/// How each query of the stream is answered.
enum Mode<'a> {
    Plain,
    Certified {
        vocab: &'a Mutex<Vocab>,
        verify: bool,
    },
}

/// Drives one stream; returns per-query answers and total cert bytes.
fn run(
    engine: &Engine,
    plan: &gomq_engine::OmqPlan,
    base: &IndexedInstance,
    ops: &[Op],
    fresh: &[Fact],
    mode: &Mode<'_>,
) -> (Vec<Vec<Term>>, usize) {
    let budget = Budget::UNLIMITED;
    let mut store = base.clone();
    let mut next = 0usize;
    let mut answers = Vec::new();
    let mut cert_bytes = 0usize;
    for op in ops {
        match op {
            Op::Assert => {
                let f = &fresh[next];
                store.insert_ref(f.rel, &f.args);
                next += 1;
            }
            Op::Query => match mode {
                Mode::Plain => {
                    let opts = Options {
                        budget,
                        certify: None,
                    };
                    let mut a = engine
                        .answer(plan, Input::One(store.store()), &opts)
                        .expect("unlimited");
                    answers.push(a.answers.remove(0));
                }
                Mode::Certified { vocab, verify } => {
                    let opts = Options {
                        budget,
                        certify: Some(Certify {
                            vocab,
                            snapshot: None,
                        }),
                    };
                    let mut a = engine
                        .answer(plan, Input::One(store.store()), &opts)
                        .expect("unlimited");
                    let cert = a.certificate.expect("certificate requested");
                    cert_bytes += cert.len();
                    if *verify {
                        gomq_cert::verify(&cert).expect("certificate verifies");
                    }
                    answers.push(a.answers.remove(0));
                }
            },
        }
    }
    (answers, cert_bytes)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_cert");
    group.sample_size(10);
    let mut v = Vocab::new();
    let (o, r, e) = odd_cycle_dl(&mut v);
    let engine = Engine::with_threads(1);
    let (plan, _, _) = engine.plan(&o, e, &mut v);
    let plan = plan.expect("odd-cycle OMQ is rewritable");

    // CI smoke (xtests/ci.sh) runs the tiny size only; the recorded
    // BENCH_cert.json numbers come from the full sweep.
    let sizes: &[usize] = if std::env::var_os("E16_TINY").is_some() {
        &[30]
    } else {
        &[30, 300]
    };
    let ratios: &[(&str, usize, usize, usize)] =
        &[("1to10", 1, 10, 3), ("1to1", 1, 1, 8), ("10to1", 10, 1, 3)];

    for &n in sizes {
        let base = IndexedInstance::from_instance(cycle_instance(r, n, &format!("s{n}_"), &mut v));
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
        // Certificate assembly reads the vocab behind the serving tier's
        // mutex; constants are interned above, outside the measured
        // region, so the lock is uncontended here exactly as in a
        // single-connection serving session.
        let vocab = Mutex::new(std::mem::take(&mut v));

        for &(label, a, q, blocks) in ratios {
            let ops = stream(a, q, blocks);
            let (plain, _) = run(&engine, &plan, &base, &ops, &fresh, &Mode::Plain);
            let certified_mode = Mode::Certified {
                vocab: &vocab,
                verify: false,
            };
            let verified_mode = Mode::Certified {
                vocab: &vocab,
                verify: true,
            };
            let (certified, bytes) = run(&engine, &plan, &base, &ops, &fresh, &certified_mode);
            assert_eq!(
                plain, certified,
                "certified answers diverged from plain ({label}, n={n})"
            );
            assert!(bytes > 0, "certified stream emitted no certificates");

            let id = format!("{label}_{n}");
            group.bench_with_input(BenchmarkId::new("plain", &id), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        run(&engine, &plan, &base, &ops, &fresh, &Mode::Plain)
                            .0
                            .len(),
                    )
                })
            });
            group.bench_with_input(BenchmarkId::new("certified", &id), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(
                        run(&engine, &plan, &base, &ops, &fresh, &certified_mode).1,
                    )
                })
            });
            group.bench_with_input(BenchmarkId::new("verified", &id), &n, |b, _| {
                b.iter(|| {
                    std::hint::black_box(run(&engine, &plan, &base, &ops, &fresh, &verified_mode).1)
                })
            });
        }
        v = vocab.into_inner().expect("unpoisoned");
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
