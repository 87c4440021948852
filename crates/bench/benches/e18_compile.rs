//! E29: plan compilation, stage by stage, on `cold_compile`-shaped OMQs.
//!
//! Workload: 320 distinct random ALCHI depth-1 hierarchies over one
//! shared pool of concept names `C0..C4` and role names `r0`, `r1`
//! (4–5 concepts, a subsumption tree, one existential restriction and
//! one of a universal restriction, a domain axiom or a role inclusion),
//! each renamed by its own seeded permutation of the pool: the shape
//! the benchmark's `cold_compile` workload poses. Hierarchies the
//! rewriter refuses or that compile to more than 120 rules are skipped,
//! as there.
//!
//! Every OMQ is compiled into one shared vocabulary, as `gomq-serve`
//! does. The bench prints:
//!
//! * the median cost of each public compile stage, timed one call at a
//!   time: canonical text, `classify_ontology`,
//!   `ElementTypeSystem::build`, `emit_datalog`, `PlanIr::of`,
//!   `emit_sql`;
//! * `strata_first_read`: the first read of a compiled plan's strata,
//!   which runs `PlanIr::of` then (`OmqPlan::compile` no longer does;
//!   `omq_plan_compile` excludes it);
//! * the wall time of `OmqPlan::compile` over the whole set, once per
//!   round, and the median round. Running the bench in several
//!   processes shows the per-process spread of compile time.
//!
//! Names and order come from seed 1, and the set is compiled in 20
//! rounds; `E18_TINY` runs one round over 20 OMQs (the CI smoke).
//!
//! ```text
//! cargo bench -p gomq-bench --bench e18_compile
//! ```

use gomq_core::{RelId, Vocab};
use gomq_datalog::ir::PlanIr;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::OmqPlan;
use gomq_logic::GfOntology;
use gomq_reasoning::CertainEngine;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::{canonical_omq_text, classify_ontology, emit_sql, ElementTypeSystem};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

const OMQS: usize = 320;
const SEED: u64 = 1;
const ROUNDS: usize = 20;
const MAX_RULES: usize = 120;

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One random hierarchy over the renamed pool: `(ontology, query)`.
fn hierarchy(shapes: &mut Rng, names: &mut Rng) -> (String, String) {
    let n = 4 + shapes.below(2);
    let mut perm: Vec<usize> = (0..5).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, names.below(i + 1));
    }
    let flip = names.below(2);
    let c = |i: usize| format!("C{}", perm[i]);
    let r = |i: usize| format!("r{}", i ^ flip);
    let mut axioms = Vec::new();
    for i in 1..n {
        axioms.push(format!("{} sub {}", c(i), c(shapes.below(i))));
    }
    let (a, b) = (shapes.below(n), shapes.below(n));
    axioms.push(format!("{} sub ex {}.{}", c(a), r(0), c(b)));
    match shapes.below(3) {
        0 => {
            let (a, b) = (shapes.below(n), shapes.below(n));
            axioms.push(format!("{} sub all {}.{}", c(a), r(0), c(b)));
        }
        1 => {
            let (a, b) = (shapes.below(n), shapes.below(n));
            axioms.push(format!("ex {}.{} sub {}", r(1), c(a), c(b)));
        }
        _ => axioms.push(format!("role {} sub {}", r(1), r(0))),
    }
    (axioms.join("\n"), c(shapes.below(2)))
}

/// The first `count` distinct OMQs that compile to at most
/// [`MAX_RULES`] rules, parsed into `vocab`.
fn omqs(seed: u64, count: usize, vocab: &mut Vocab) -> Vec<(GfOntology, RelId)> {
    let mut shapes = Rng(0x0d15_c0de);
    let mut names = Rng(seed ^ 0x005e_ed0f_903a_b1c4);
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let (text, query) = hierarchy(&mut shapes, &mut names);
        let o = to_gf(&parse_ontology(&text, vocab).expect("generated text parses"));
        let q = vocab.find_rel(&query).expect("query is a pool concept");
        let Ok(plan) = OmqPlan::compile(&o, q, vocab) else {
            continue;
        };
        if plan.program.len() <= MAX_RULES && seen.insert(plan.canonical_text) {
            out.push((o, q));
        }
    }
    out
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median over `n` calls `f(0..n)` of one stage's cost in µs.
fn stage<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let us = (0..n)
        .map(|i| {
            let t = Instant::now();
            black_box(f(i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(us)
}

fn main() {
    let tiny = std::env::var_os("E18_TINY").is_some();
    let rounds = if tiny { 1 } else { ROUNDS };
    let mut v = Vocab::new();
    let set = omqs(SEED, if tiny { 20 } else { OMQS }, &mut v);

    let probe = CertainEngine::new(1);
    let systems: Vec<ElementTypeSystem> = set
        .iter()
        .map(|(o, _)| ElementTypeSystem::build(o, &v).expect("rewritable"))
        .collect();
    let plans: Vec<OmqPlan> = set
        .iter()
        .map(|(o, q)| OmqPlan::compile(o, *q, &mut v).expect("rewritable"))
        .collect();
    let rules = plans.iter().map(|p| p.program.len()).sum::<usize>() as f64 / plans.len() as f64;
    println!(
        "e18_compile: seed {SEED}, {} OMQs, {rules:.1} rules/plan",
        set.len()
    );
    let n = set.len();
    let stages = [
        (
            "canonical_text",
            stage(n, |i| canonical_omq_text(&set[i].0, set[i].1, &v)),
        ),
        (
            "classify_ontology",
            stage(n, |i| classify_ontology(&set[i].0, &[], &probe, &mut v)),
        ),
        (
            "type_system_build",
            stage(n, |i| ElementTypeSystem::build(&set[i].0, &v)),
        ),
        (
            "emit_datalog",
            stage(n, |i| emit_datalog(&systems[i], set[i].1, &mut v)),
        ),
        ("plan_ir", stage(n, |i| PlanIr::of(&plans[i].program))),
        // The plans are unread so far: this is each one's first read.
        ("strata_first_read", stage(n, |i| plans[i].strata.len())),
        ("emit_sql", stage(n, |i| emit_sql(&plans[i].strata, &v))),
        (
            "omq_plan_compile",
            stage(n, |i| OmqPlan::compile(&set[i].0, set[i].1, &mut v)),
        ),
    ];
    for (name, us) in stages {
        println!("  {name:<18} median {us:8.1} us");
    }
    let totals: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            for (o, q) in &set {
                black_box(OmqPlan::compile(o, *q, &mut v).expect("rewritable"));
            }
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let (lo, hi) = totals
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    println!(
        "  whole set          median {:8.2} ms over {rounds} rounds (min {lo:.2}, max {hi:.2})",
        median(totals.clone())
    );
}
