//! Observational equivalence of the columnar [`gomq_core::FactStore`]
//! plane against a straightforward row-store reference model.
//!
//! The reference keeps every fact as an owned [`Fact`] in insertion
//! order next to a `HashSet` for dedup — exactly the shape
//! `Interpretation` had before the arena refactor. Random operation
//! streams (with labelled nulls and repeated terms in the same tuple)
//! must be indistinguishable through the public API: insertion order,
//! dedup verdicts, per-relation and per-term lookups, and the sorted
//! canonical order. The join index of [`gomq_core::IndexedInstance`]
//! (one bucket per relation, argument position and term) and its
//! membership probes are checked against the same model, across
//! rollbacks.

use gomq_core::{Fact, FactLookup, IndexedInstance, Interpretation, Term, Vocab};
use proptest::prelude::*;
use std::collections::HashSet;

/// Pre-refactor model: ordered rows plus a hash set.
#[derive(Default)]
struct RowStore {
    facts: Vec<Fact>,
    seen: HashSet<Fact>,
}

impl RowStore {
    fn insert(&mut self, fact: Fact) -> bool {
        if self.seen.contains(&fact) {
            return false;
        }
        self.seen.insert(fact.clone());
        self.facts.push(fact);
        true
    }
}

/// One raw operation: a relation index and three term indices (unary
/// and binary relations ignore the tail). Term indices ≥ `N_CONSTS`
/// select labelled nulls, and nothing stops an op from repeating the
/// same index across positions.
type Op = (usize, usize, usize, usize);

const N_CONSTS: usize = 5;
const N_NULLS: usize = 3;

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0usize..3,
            0usize..(N_CONSTS + N_NULLS),
            0usize..(N_CONSTS + N_NULLS),
            0usize..(N_CONSTS + N_NULLS),
        ),
        0..40,
    )
}

/// The fact an op denotes over the term universe.
fn op_fact(rels: &[gomq_core::RelId], terms: &[Term], &(r, a, b, c): &Op) -> Fact {
    Fact::new(rels[r], [a, b, c][..=r].iter().map(|&i| terms[i]).collect())
}

/// Replays `ops` into both stores, checking dedup verdicts agree
/// op-by-op. Returns the pair plus the term universe for lookups.
fn replay(ops: &[Op]) -> (Vocab, Interpretation, RowStore, Vec<Term>) {
    let mut v = Vocab::new();
    let rels = [v.rel("P1", 1), v.rel("P2", 2), v.rel("P3", 3)];
    let mut terms: Vec<Term> = (0..N_CONSTS)
        .map(|i| Term::Const(v.constant(&format!("c{i}"))))
        .collect();
    for _ in 0..N_NULLS {
        terms.push(Term::Null(v.fresh_null()));
    }
    let mut d = Interpretation::new();
    let mut rows = RowStore::default();
    for op in ops {
        let fact = op_fact(&rels, &terms, op);
        let fresh_cols = d.insert_ref(fact.rel, &fact.args);
        let fresh_rows = rows.insert(fact);
        assert_eq!(fresh_cols, fresh_rows, "dedup verdicts diverged");
    }
    (v, d, rows, terms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn iteration_preserves_insertion_order(ops in ops_strategy()) {
        let (_v, d, rows, _terms) = replay(&ops);
        prop_assert_eq!(d.len(), rows.facts.len());
        let cols: Vec<Fact> = d.iter().map(|f| f.to_fact()).collect();
        prop_assert_eq!(cols, rows.facts);
    }

    #[test]
    fn by_rel_lookup_matches_a_filter(ops in ops_strategy()) {
        let (v, d, rows, _terms) = replay(&ops);
        for rel in v.rels() {
            let cols: Vec<Fact> = d.facts_of(rel).map(|f| f.to_fact()).collect();
            let reference: Vec<Fact> = rows
                .facts
                .iter()
                .filter(|f| f.rel == rel)
                .cloned()
                .collect();
            prop_assert_eq!(cols, reference);
        }
    }

    #[test]
    fn by_term_lookup_matches_a_filter(ops in ops_strategy()) {
        let (_v, d, rows, terms) = replay(&ops);
        for &t in &terms {
            let cols: Vec<Fact> = d.facts_with_term(t).map(|f| f.to_fact()).collect();
            // A fact with the term repeated must still come out once.
            let reference: Vec<Fact> = rows
                .facts
                .iter()
                .filter(|f| f.args.contains(&t))
                .cloned()
                .collect();
            prop_assert_eq!(cols, reference);
        }
    }

    #[test]
    fn sorted_facts_is_the_canonical_order(ops in ops_strategy()) {
        let (_v, d, rows, _terms) = replay(&ops);
        let cols: Vec<Fact> = d.sorted_facts().into_iter().map(|f| f.to_fact()).collect();
        let mut reference = rows.facts.clone();
        reference.sort();
        prop_assert_eq!(cols, reference);
    }

    #[test]
    fn contains_and_dom_agree(ops in ops_strategy()) {
        let (_v, d, rows, terms) = replay(&ops);
        for f in &rows.facts {
            prop_assert!(d.contains(f));
            prop_assert!(d.contains_ref(f.rel, &f.args));
        }
        let dom = d.dom();
        for &t in &terms {
            let used = rows.facts.iter().any(|f| f.args.contains(&t));
            prop_assert_eq!(dom.contains(&t), used);
        }
    }

    #[test]
    fn absorb_equals_sequential_insertion(ops in ops_strategy()) {
        // Splitting the stream in half and absorbing the second
        // interpretation into the first is observationally the same as
        // replaying the whole stream into one store.
        let (_v, whole, _rows, _terms) = replay(&ops);
        let mid = ops.len() / 2;
        let (_v1, mut left, _r1, _t1) = replay(&ops[..mid]);
        let (_v2, right, _r2, _t2) = replay(&ops[mid..]);
        left.absorb(right);
        prop_assert_eq!(left.len(), whole.len());
        let a: Vec<Fact> = left.sorted_facts().into_iter().map(|f| f.to_fact()).collect();
        let b: Vec<Fact> = whole.sorted_facts().into_iter().map(|f| f.to_fact()).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn position_index_and_lookup_match_the_row_model(
        before in ops_strategy(),
        mark in 0usize..41,
        after in ops_strategy(),
    ) {
        let mut v = Vocab::new();
        let rels = [v.rel("P1", 1), v.rel("P2", 2), v.rel("P3", 3)];
        let mut terms: Vec<Term> = (0..N_CONSTS)
            .map(|i| Term::Const(v.constant(&format!("c{i}"))))
            .collect();
        for _ in 0..N_NULLS {
            terms.push(Term::Null(v.fresh_null()));
        }
        let mut d = IndexedInstance::new();
        let mut rows = RowStore::default();
        for op in &before {
            let fact = op_fact(&rels, &terms, op);
            prop_assert_eq!(d.insert_ref(fact.rel, &fact.args), rows.insert(fact));
        }
        // Roll both back to a mark, then keep inserting.
        let mark = mark.min(rows.facts.len());
        d.truncate(mark);
        rows.facts.truncate(mark);
        rows.seen = rows.facts.iter().cloned().collect();
        for op in &after {
            let fact = op_fact(&rels, &terms, op);
            prop_assert_eq!(d.insert_ref(fact.rel, &fact.args), rows.insert(fact));
        }
        prop_assert_eq!(d.len(), rows.facts.len());
        // Fact ids are positions in the row model.
        let ids_where = |keep: &dyn Fn(&Fact) -> bool| -> Vec<u32> {
            (0..rows.facts.len() as u32)
                .filter(|&i| keep(&rows.facts[i as usize]))
                .collect()
        };
        for (arity, &rel) in (1..).zip(&rels) {
            prop_assert_eq!(d.candidate_ids(rel, None).to_vec(), ids_where(&|f| f.rel == rel));
            // Every position, including one past the arity.
            for pos in 0..=arity {
                for &t in &terms {
                    let want = ids_where(&|f| f.rel == rel && f.args.get(pos) == Some(&t));
                    prop_assert_eq!(d.candidate_ids(rel, Some((pos, t))).to_vec(), want);
                }
            }
        }
        // Membership probes: every op of both batches (present or rolled
        // back) finds exactly the model's id.
        for op in before.iter().chain(&after) {
            let fact = op_fact(&rels, &terms, op);
            let want = rows.facts.iter().position(|f| *f == fact).map(|i| i as u32);
            prop_assert_eq!(d.lookup_id(fact.rel, &fact.args), want);
            prop_assert_eq!(d.contains_slice(fact.rel, &fact.args), want.is_some());
        }
    }
}
