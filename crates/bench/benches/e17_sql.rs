//! E20: SQL oracle overhead — native fixpoint vs in-process emitted
//! SQL on non-recursive (hierarchy) OMQs.
//!
//! Workload: a pure concept hierarchy of depth 8 (the only shape both
//! backends answer — role axioms make the rewriting recursive and
//! SQL-refused), queried at the top concept against ABoxes of `n`
//! facts spread uniformly over the concepts. Two pipelines per size:
//!
//! * `native`: `Engine::answer` — the plan's bitset type kernel over
//!   the interned fact store.
//! * `sql`: `backend::sql::eval_sql_budgeted` — render the ABox to
//!   string tables, run the plan's emitted SQL on the `gomq-sqlexec`
//!   nested-loop executor, map rows back to terms.
//!
//! The SQL path is a portability reference, not a performance contender
//! (it re-renders the ABox per request and joins without indexes); the
//! bench quantifies exactly what that costs. Answer equality is
//! asserted outside the measured region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gomq_core::{IndexedInstance, Vocab};
use gomq_datalog::Budget;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::backend::sql::eval_sql_budgeted;
use gomq_engine::{Engine, Input};
use gomq_rewriting::emit_sql;

const DEPTH: usize = 8;

fn hierarchy_text() -> String {
    (0..DEPTH)
        .map(|i| format!("C{} sub C{}\n", i, i + 1))
        .collect()
}

fn abox_text(n: usize) -> String {
    // Facts spread over every level; only the C0 chain contributes new
    // derivations at the top, the rest is realistic dead weight.
    (0..n)
        .map(|i| format!("C{}(x{i})\n", i % (DEPTH + 1)))
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_sql");
    group.sample_size(10);
    let mut v = Vocab::new();
    let dl = parse_ontology(&hierarchy_text(), &mut v).expect("hierarchy parses");
    let o = to_gf(&dl);
    let goal = v.find_rel(&format!("C{DEPTH}")).expect("top concept");
    let engine = Engine::with_threads(1);
    let (plan, _, _) = engine.plan(&o, goal, &mut v);
    let plan = plan.expect("hierarchies are rewritable");
    let sql = emit_sql(&plan.strata, &v).expect("hierarchy plans must emit SQL");
    let sql = &sql;

    // CI smoke (xtests/ci.sh) runs the tiny size only; the recorded
    // BENCH_sql.json numbers come from the full sweep.
    let sizes: &[usize] = if std::env::var_os("E17_TINY").is_some() {
        &[100]
    } else {
        &[100, 1000]
    };

    for &n in sizes {
        let abox = gomq_core::parse::parse_instance(&abox_text(n), &mut v).expect("abox parses");
        let indexed = IndexedInstance::from_interpretation(&abox);
        let native = |indexed: &IndexedInstance| {
            engine
                .answer(&plan, Input::One(indexed.store()), &Budget::UNLIMITED)
                .expect("unlimited")
                .answers
                .remove(0)
        };

        let oracle = eval_sql_budgeted(sql, &indexed, &v, &Budget::UNLIMITED)
            .expect("non-recursive plan runs as SQL");
        let oracle: Vec<_> = oracle.into_iter().flatten().collect();
        assert_eq!(native(&indexed), oracle, "backends diverged at n={n}");

        group.bench_with_input(BenchmarkId::new("native", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(native(&indexed).len()))
        });
        group.bench_with_input(BenchmarkId::new("sql", n), &n, |b, _| {
            b.iter(|| {
                std::hint::black_box(
                    eval_sql_budgeted(sql, &indexed, &v, &Budget::UNLIMITED)
                        .expect("non-recursive")
                        .len(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
