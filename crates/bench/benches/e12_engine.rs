//! E12: serving throughput of `gomq-engine` — cached-plan batched
//! evaluation vs the one-shot build-emit-eval loop.
//!
//! Workload: the Example-6 odd-cycle ontology in its engine-compatible
//! DL form (`A ⊓ ∃R.A ⊑ E`, `¬A ⊓ ∃R.¬A ⊑ E`, `E ⊑ ∀R.E`, `E ⊑ ∀R⁻.E`)
//! posed against batches of `R`-cycles of growing size. Note the OMQ
//! `(O₆, E)` itself is the paper's coNP-hard example — the type
//! rewriting evaluated here is the Theorem-5 machinery, whose tree-type
//! propagation is what a serving engine would run; the bench measures
//! that serving cost, not the (coNP-hard) exact certain answers.
//!
//! Per batch of `BATCH` ABoxes:
//! * `one_shot`: rebuild the element-type system, re-emit the Datalog≠
//!   program and evaluate with the reference evaluator — per ABox, the
//!   way the research crates are driven.
//! * `cached_batched`: fetch the plan from the engine's cache (a hit
//!   after the first request) and answer the batch concurrently with
//!   the plan's type kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gomq_bench::cycle_instance;
use gomq_core::{FactStore, Instance, RelId, Vocab};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{Budget, Engine, Input};
use gomq_logic::GfOntology;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::ElementTypeSystem;

const BATCH: usize = 8;

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

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_engine");
    group.sample_size(10);
    let mut v = Vocab::new();
    let (o, r, e) = odd_cycle_dl(&mut v);

    for n in [30usize, 100, 300] {
        let aboxes: Vec<Instance> = (0..BATCH)
            .map(|i| cycle_instance(r, n, &format!("b{n}_{i}_"), &mut v))
            .collect();

        // The research-pipeline loop: every request pays type
        // elimination, program emission and unindexed evaluation.
        group.bench_with_input(BenchmarkId::new("one_shot", n), &n, |b, _| {
            b.iter(|| {
                let mut total_answers = 0usize;
                for d in &aboxes {
                    let sys = ElementTypeSystem::build(&o, &v).expect("supported");
                    let program = emit_datalog(&sys, e, &mut v);
                    total_answers += program.eval(d).len();
                }
                std::hint::black_box(total_answers)
            })
        });

        // The engine: plan compiled once (cache hit on every iteration
        // after the first), batch answered in parallel by the plan's
        // type kernel. Copying the stores is inside the measured region.
        let engine = Engine::new();
        group.bench_with_input(BenchmarkId::new("cached_batched", n), &n, |b, _| {
            b.iter(|| {
                let (plan, _, _) = engine.plan(&o, e, &mut v);
                let plan = plan.expect("supported");
                let stores: Vec<FactStore> = aboxes.iter().map(|d| d.store().clone()).collect();
                let answered = engine
                    .answer(&plan, Input::Batch(&stores), &Budget::UNLIMITED)
                    .expect("unlimited");
                std::hint::black_box(answered.answers.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
