//! E17: the columnar fact plane (`FactStore`) vs the seed-style row
//! store it replaced.
//!
//! Workload: the Example-6 odd-cycle ontology compiled by the real
//! rewriting pipeline into a Datalog≠ program, posed against `R`-cycles
//! of growing size. Two axes:
//!
//! * `ingest_*`: turning `n` parsed facts into an indexed evaluation
//!   instance. The row side allocates one `Vec<Term>` per fact, dedups
//!   through a `HashSet<Fact>` and clones every fact again into
//!   per-relation index buckets — exactly the seed's
//!   `Interpretation` + `IndexedInstance::from_interpretation` shape.
//!   The columnar side interns argument slices into one arena and moves
//!   the store into the index without touching a fact.
//! * `fixpoint_*`: the semi-naive saturation itself. The row side is a
//!   faithful reimplementation of the seed evaluator (owned `Fact`
//!   staging vectors, per-round delta sets of cloned facts); the
//!   columnar side is the live `Program::fixpoint`, whose rounds stage
//!   into a reused `FactBuf` and pass deltas as id ranges — no per-fact
//!   heap allocation in steady state.
//!
//! Both evaluators compute the same fixpoint; the harness asserts equal
//! derived counts outside the measured region.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gomq_bench::cycle_instance;
use gomq_core::{Fact, IndexedInstance, Instance, RelId, Term, Vocab};
use gomq_datalog::{DAtom, DTerm, Literal, Rule};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_logic::GfOntology;
use gomq_rewriting::emit::emit_datalog;
use gomq_rewriting::ElementTypeSystem;
use std::collections::{HashMap, HashSet};

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

/// The seed's storage shape: ordered owned rows, a hash set for dedup,
/// per-relation buckets of row indices, and the by-term index the seed
/// `Interpretation` maintained (including its quadratic repeated-term
/// scan per insertion).
#[derive(Default)]
struct RowStore {
    facts: Vec<Fact>,
    seen: HashSet<Fact>,
    by_rel: HashMap<RelId, Vec<usize>>,
    by_term: HashMap<Term, Vec<usize>>,
}

impl RowStore {
    fn insert(&mut self, fact: Fact) -> bool {
        if self.seen.contains(&fact) {
            return false;
        }
        let id = self.facts.len();
        self.by_rel.entry(fact.rel).or_default().push(id);
        for (k, &t) in fact.args.iter().enumerate() {
            if !fact.args[..k].contains(&t) {
                self.by_term.entry(t).or_default().push(id);
            }
        }
        self.seen.insert(fact.clone());
        self.facts.push(fact);
        true
    }
}

type RowIndex = HashMap<(RelId, Term), Vec<usize>>;

/// The seed's `IndexedInstance::from_interpretation`: every fact cloned
/// again into the evaluation index's own storage.
fn index_rows(store: &RowStore) -> (Vec<Fact>, RowIndex) {
    let mut facts = Vec::with_capacity(store.facts.len());
    let mut by_rel_first = RowIndex::new();
    for f in &store.facts {
        let id = facts.len();
        if let Some(&first) = f.args.first() {
            by_rel_first.entry((f.rel, first)).or_default().push(id);
        }
        facts.push(f.clone());
    }
    (facts, by_rel_first)
}

fn resolve(t: &DTerm, frame: &[Option<Term>]) -> Option<Term> {
    match t {
        DTerm::Ground(g) => Some(*g),
        DTerm::Var(v) => frame[*v as usize],
    }
}

/// Seed-style matcher: nested-loop join over owned facts, the
/// `pivot`-th positive atom drawn from the delta rows.
#[allow(clippy::too_many_arguments)]
fn row_match(
    rule: &Rule,
    atoms: &[&DAtom],
    ai: usize,
    pivot: usize,
    total: &RowStore,
    delta: &[Fact],
    frame: &mut Vec<Option<Term>>,
    out: &mut Vec<Fact>,
) {
    if ai == atoms.len() {
        for lit in &rule.body {
            if let Literal::Neq(x, y) = lit {
                let (a, b) = (resolve(x, frame), resolve(y, frame));
                if a.is_none() || a == b {
                    return;
                }
            }
        }
        // The seed's per-derivation heap allocation: one Vec per head.
        let args: Vec<Term> = rule
            .head
            .args
            .iter()
            .map(|t| resolve(t, frame).expect("range-restricted head"))
            .collect();
        out.push(Fact::new(rule.head.rel, args));
        return;
    }
    let atom = atoms[ai];
    let candidates: Box<dyn Iterator<Item = &Fact>> = if ai == pivot {
        Box::new(delta.iter().filter(|f| f.rel == atom.rel))
    } else {
        let bucket = total
            .by_rel
            .get(&atom.rel)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        Box::new(bucket.iter().map(|&i| &total.facts[i]))
    };
    'cand: for fact in candidates {
        if fact.args.len() != atom.args.len() {
            continue;
        }
        let mut bound: Vec<u32> = Vec::new();
        for (t, &val) in atom.args.iter().zip(fact.args.iter()) {
            match t {
                DTerm::Ground(g) => {
                    if *g != val {
                        for v in bound.drain(..) {
                            frame[v as usize] = None;
                        }
                        continue 'cand;
                    }
                }
                DTerm::Var(v) => match frame[*v as usize] {
                    Some(prev) if prev != val => {
                        for b in bound.drain(..) {
                            frame[b as usize] = None;
                        }
                        continue 'cand;
                    }
                    Some(_) => {}
                    None => {
                        frame[*v as usize] = Some(val);
                        bound.push(*v);
                    }
                },
            }
        }
        row_match(rule, atoms, ai + 1, pivot, total, delta, frame, out);
        for v in bound {
            frame[v as usize] = None;
        }
    }
}

/// The seed semi-naive loop: clone the instance into rows, then per
/// round stage owned facts and rebuild the delta as a fresh `Vec<Fact>`.
fn row_fixpoint(rules: &[Rule], d: &Instance) -> usize {
    let mut total = RowStore::default();
    for f in d.iter() {
        total.insert(f.to_fact());
    }
    let mut delta: Vec<Fact> = total.facts.clone();
    let mut derived = 0usize;
    while !delta.is_empty() {
        let mut staged: Vec<Fact> = Vec::new();
        for rule in rules {
            let atoms: Vec<&DAtom> = rule.positive_atoms().collect();
            let mut frame: Vec<Option<Term>> = vec![None; rule.num_slots()];
            for pivot in 0..atoms.len() {
                row_match(
                    rule,
                    &atoms,
                    0,
                    pivot,
                    &total,
                    &delta,
                    &mut frame,
                    &mut staged,
                );
            }
        }
        delta = staged
            .into_iter()
            .filter(|f| total.insert(f.clone()))
            .collect();
        derived += delta.len();
    }
    derived
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_store");
    group.sample_size(10);
    let mut v = Vocab::new();
    let (o, r, e) = odd_cycle_dl(&mut v);
    let sys = ElementTypeSystem::build(&o, &v).expect("supported");
    let program = emit_datalog(&sys, e, &mut v);

    // CI smoke (xtests/ci.sh) runs the tiny size only; the recorded
    // BENCH_store.json numbers come from the full sweep.
    let sizes: &[usize] = if std::env::var_os("E14_TINY").is_some() {
        &[30]
    } else {
        &[30, 100, 300]
    };
    for &n in sizes {
        let d = cycle_instance(r, n, &format!("s{n}_"), &mut v);
        let rows: Vec<Fact> = d.iter().map(|f| f.to_fact()).collect();

        // Equal fixpoints — checked once, outside the measured region.
        let (sat, stats) = program.fixpoint(&d);
        assert_eq!(row_fixpoint(&program.rules, &d), stats.derived);
        assert!(sat.len() >= d.len());

        group.bench_with_input(BenchmarkId::new("ingest_row", n), &n, |b, _| {
            b.iter(|| {
                let mut store = RowStore::default();
                for f in &rows {
                    store.insert(f.clone());
                }
                let (facts, index) = index_rows(&store);
                std::hint::black_box((facts.len(), index.len()))
            })
        });

        group.bench_with_input(BenchmarkId::new("ingest_columnar", n), &n, |b, _| {
            b.iter(|| {
                let mut d = Instance::new();
                for f in &rows {
                    d.insert_ref(f.rel, &f.args);
                }
                std::hint::black_box(IndexedInstance::from_instance(d).len())
            })
        });

        group.bench_with_input(BenchmarkId::new("fixpoint_row", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(row_fixpoint(&program.rules, &d)))
        });

        group.bench_with_input(BenchmarkId::new("fixpoint_columnar", n), &n, |b, _| {
            b.iter(|| {
                let (_, stats) = program.fixpoint(&d);
                std::hint::black_box(stats.derived)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
