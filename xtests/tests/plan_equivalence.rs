//! Plan equivalence: the one-pass compile pipeline produces exactly the
//! plan of the straightforward pipeline it replaced.
//!
//! `OmqPlan::compile` renders the canonical text once, builds the
//! element-type system once, optimizes the emitted rewriting by moving
//! rules, and stratifies over densely numbered nodes. This module keeps
//! reference copies of the straightforward stages — a cloning,
//! SipHash-bucketed `optimize`, a `BTreeMap`/`BTreeSet` stratifier and
//! a classification that extracts the features per question and builds
//! its own type system — and checks, over random ALCHI depth-1
//! hierarchies and over `generate_corpus` ontologies with at most 14
//! closure bits (and at most [`MAX_CORPUS_TYPES`] element types), all
//! compiled into one shared vocabulary as a server does:
//!
//! * the rules, in order (their `Display` text and their structure);
//! * the strata, in order, with their `recursive` flags;
//! * the emitted SQL text (or its refusal);
//! * the canonical text and key;
//! * every report field;
//! * the number of element types.
//!
//! A fingerprint of the same outputs, recorded before the pipeline was
//! reworked, pins the emitter and the type enumeration too. A
//! deliberate change to the rewriting changes the fingerprint and must
//! record the new one.

use gomq_core::{RelId, Vocab};
use gomq_corpus::{generate_corpus, CorpusSpec};
use gomq_datalog::ir::{PlanIr, StratumIr};
use gomq_datalog::{Literal, Program, Rule};
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::{EngineError, OmqPlan};
use gomq_logic::fragment::{Fragment, FragmentFeatures, Zone};
use gomq_logic::GfOntology;
use gomq_reasoning::CertainEngine;
use gomq_rewriting::emit::emit_datalog_unoptimized;
use gomq_rewriting::types::closure_stats;
use gomq_rewriting::{
    canonical_omq_hash, canonical_omq_text, classify_ontology, emit_sql, fnv1a, ElementTypeSystem,
    OntologyReport,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

/// Reference `Program::optimized`: clones every kept literal and buckets
/// rules by a SipHash of `(head, body)`.
fn reference_optimize(p: &Program) -> Program {
    let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(p.rules.len());
    let mut rules: Vec<Rule> = Vec::with_capacity(p.rules.len());
    for r in p.rules.iter() {
        let falsum = r.body.iter().any(|l| match l {
            Literal::Neq(a, b) => a == b,
            Literal::Pos(_) => false,
        });
        if falsum {
            continue;
        }
        let mut body: Vec<Literal> = Vec::with_capacity(r.body.len());
        for l in &r.body {
            if !body.contains(l) {
                body.push(l.clone());
            }
        }
        let mut h = DefaultHasher::new();
        (&r.head, &body).hash(&mut h);
        let bucket = seen.entry(h.finish()).or_default();
        if bucket
            .iter()
            .any(|&i| rules[i].head == r.head && rules[i].body == body)
        {
            continue;
        }
        bucket.push(rules.len());
        rules.push(Rule::new(r.head.clone(), body));
    }
    Program::new(rules, p.goal)
}

/// Reference `PlanIr::of`: relation-keyed maps and per-node successor
/// sets.
fn reference_plan_ir(program: &Program) -> PlanIr {
    let idb: BTreeSet<RelId> = program.idb();
    let nodes: Vec<RelId> = idb.iter().copied().collect();
    let index_of: BTreeMap<RelId, usize> = nodes.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nodes.len()];
    for rule in program.rules.iter() {
        let h = index_of[&rule.head.rel];
        for atom in rule.positive_atoms() {
            if let Some(&b) = index_of.get(&atom.rel) {
                succ[b].insert(h);
            }
        }
    }
    let comp = reference_scc(&succ);
    let n_comps = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut cond_succ: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n_comps];
    let mut indegree = vec![0usize; n_comps];
    for (b, hs) in succ.iter().enumerate() {
        for &h in hs {
            let (cb, ch) = (comp[b], comp[h]);
            if cb != ch && cond_succ[cb].insert(ch) {
                indegree[ch] += 1;
            }
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(n_comps);
    let mut queue: Vec<usize> = (0..n_comps).filter(|&c| indegree[c] == 0).collect();
    while let Some(c) = queue.pop() {
        order.push(c);
        for &d in &cond_succ[c] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(d);
            }
        }
    }
    let rank_of_comp: BTreeMap<usize, usize> = order
        .iter()
        .enumerate()
        .map(|(rank, &c)| (c, rank))
        .collect();
    let mut buckets: Vec<Vec<Rule>> = vec![Vec::new(); n_comps];
    for rule in program.rules.iter() {
        let c = comp[index_of[&rule.head.rel]];
        buckets[rank_of_comp[&c]].push(rule.clone());
    }
    let strata = buckets
        .into_iter()
        .filter(|rules| !rules.is_empty())
        .map(|rules| {
            let heads: BTreeSet<RelId> = rules.iter().map(|r| r.head.rel).collect();
            let recursive = rules
                .iter()
                .any(|r| r.positive_atoms().any(|a| heads.contains(&a.rel)));
            StratumIr { rules, recursive }
        })
        .collect();
    PlanIr {
        strata,
        goal: program.goal,
    }
}

/// Reference iterative Tarjan SCC over successor sets; returns the
/// component id of every node.
fn reference_scc(succ: &[BTreeSet<usize>]) -> Vec<usize> {
    let n = succ.len();
    let mut comp = vec![usize::MAX; n];
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // Explicit DFS stack: (node, iterator position over successors).
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut dfs: Vec<(usize, Vec<usize>, usize)> = Vec::new();
        let push = |v: usize,
                    dfs: &mut Vec<(usize, Vec<usize>, usize)>,
                    index: &mut Vec<usize>,
                    low: &mut Vec<usize>,
                    on_stack: &mut Vec<bool>,
                    stack: &mut Vec<usize>,
                    next_index: &mut usize| {
            index[v] = *next_index;
            low[v] = *next_index;
            *next_index += 1;
            stack.push(v);
            on_stack[v] = true;
            dfs.push((v, succ[v].iter().copied().collect(), 0));
        };
        push(
            root,
            &mut dfs,
            &mut index,
            &mut low,
            &mut on_stack,
            &mut stack,
            &mut next_index,
        );
        while let Some((v, children, pos)) = dfs.last_mut() {
            if *pos < children.len() {
                let w = children[*pos];
                *pos += 1;
                if index[w] == usize::MAX {
                    push(
                        w,
                        &mut dfs,
                        &mut index,
                        &mut low,
                        &mut on_stack,
                        &mut stack,
                        &mut next_index,
                    );
                } else if on_stack[w] {
                    let v = *v;
                    low[v] = low[v].min(index[w]);
                }
            } else {
                let v = *v;
                dfs.pop();
                if let Some((parent, _, _)) = dfs.last() {
                    low[*parent] = low[*parent].min(low[v]);
                }
                if low[v] == index[v] {
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// Reference classification: features extracted per question, and a
/// type system built only for its verdict.
fn reference_report(o: &GfOntology, vocab: &Vocab) -> OntologyReport {
    let contains = |features: &FragmentFeatures| -> Vec<Fragment> {
        Fragment::all()
            .iter()
            .copied()
            .filter(|fr| fr.contains(features))
            .collect()
    };
    let features = FragmentFeatures::of(o, vocab);
    let fragments = contains(&FragmentFeatures::of(o, vocab));
    let mut zone = Zone::Unknown;
    for fr in contains(&FragmentFeatures::of(o, vocab)) {
        zone = match (zone, fr.zone()) {
            (_, Zone::Dichotomy) | (Zone::Dichotomy, _) => Zone::Dichotomy,
            (Zone::CspHard, _) | (_, Zone::CspHard) => Zone::CspHard,
            (Zone::NoDichotomy, _) | (_, Zone::NoDichotomy) => Zone::NoDichotomy,
            _ => Zone::Unknown,
        };
    }
    OntologyReport {
        features,
        fragments,
        zone,
        type_rewritable: ElementTypeSystem::build(o, vocab).is_ok(),
        non_materializability_witness: None,
    }
}

/// Everything a plan's users observe, rendered to text.
fn render(plan: &OmqPlan, vocab: &Vocab) -> String {
    let mut out = format!(
        "key {:016x}\n{}report {:?}\n{}\ntypes {}\nrules\n{}",
        plan.key,
        plan.canonical_text,
        plan.report,
        plan.report,
        plan.types.num_types(),
        plan.program.display(vocab),
    );
    for (i, stratum) in plan.strata.strata.iter().enumerate() {
        let rules = Program::new(stratum.rules.clone(), plan.strata.goal);
        out.push_str(&format!(
            "stratum {i} recursive {}\n{}",
            stratum.recursive,
            rules.display(vocab)
        ));
    }
    match &emit_sql(&plan.strata, vocab) {
        Ok(sql) => out.push_str(&format!(
            "sql {:?} {}\n{}\n",
            sql.tables, sql.goal_columns, sql.sql
        )),
        Err(e) => out.push_str(&format!("sql refused: {e:?}\n")),
    }
    out
}

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

/// A random ALCHI depth-1 hierarchy over `C0..C5`, `r0`, `r1`: a
/// subsumption tree plus one to three axioms with existential and
/// universal restrictions (on inverse roles too), negation,
/// disjunction, conjunction and role inclusions.
fn hierarchy(rng: &mut Rng) -> String {
    let n = 3 + rng.below(4);
    let c = |i: usize| format!("C{i}");
    let mut axioms: Vec<String> = (1..n)
        .map(|i| format!("{} sub {}", c(i), c(rng.below(i))))
        .collect();
    for _ in 0..1 + rng.below(3) {
        let (a, b, d) = (c(rng.below(n)), c(rng.below(n)), c(rng.below(n)));
        let r = format!("r{}", rng.below(2));
        axioms.push(match rng.below(11) {
            0 => format!("{a} sub ex {r}.{b}"),
            1 => format!("{a} sub all {r}.{b}"),
            2 => format!("ex {r}-.{a} sub {b}"),
            3 => "role r1 sub r0".to_owned(),
            4 => "role r1 sub r0-".to_owned(),
            5 => format!("{a} sub not {b}"),
            6 => format!("{a} sub {b} or {d}"),
            7 => format!("{a} and {b} sub {d}"),
            8 => format!("ex {r}.{a} sub {b}"),
            9 => format!("{a} sub all {r}-.{b}"),
            // Depth 2: outside the rewriter's shape, so refused.
            _ => format!("{a} sub ex {r}.(all {r}.{b})"),
        });
    }
    axioms.join("\n")
}

/// Most element types a corpus ontology may have here. The type count
/// bounds the rewriting's size (rules grow with it, rule bodies with
/// its square): a 14-bit closure can reach 1,404 types and 8.8 million
/// body literals, seconds per compile even in a release build.
const MAX_CORPUS_TYPES: usize = 64;

/// The OMQs under test, all in `vocab`: random hierarchies queried at
/// two of their concepts and at a relation outside them, then corpus
/// ontologies with at most 14 closure bits and [`MAX_CORPUS_TYPES`]
/// element types, queried at their first and last concept.
fn omqs(vocab: &mut Vocab) -> Vec<(GfOntology, RelId)> {
    let outside = vocab.rel("Outside", 1);
    let mut out = Vec::new();
    let mut rng = Rng(0x0e9e_1a7e);
    for _ in 0..150 {
        let o = to_gf(&parse_ontology(&hierarchy(&mut rng), vocab).expect("hierarchies parse"));
        let concepts: Vec<RelId> = o
            .sig()
            .into_iter()
            .filter(|&r| vocab.arity(r) == 1)
            .collect();
        let picked = [concepts[0], concepts[rng.below(concepts.len())], outside];
        out.extend(picked.into_iter().map(|q| (o.clone(), q)));
    }
    for seed in [2017, 5] {
        let spec = CorpusSpec {
            seed,
            ..CorpusSpec::default()
        };
        for entry in generate_corpus(&spec, vocab) {
            let o = to_gf(&entry.onto);
            let small = closure_stats(&o, vocab).is_ok_and(|s| s.bits <= 14)
                && ElementTypeSystem::build(&o, vocab)
                    .is_ok_and(|sys| sys.num_types() <= MAX_CORPUS_TYPES);
            if small {
                let concepts: Vec<RelId> = o
                    .sig()
                    .into_iter()
                    .filter(|&r| vocab.arity(r) == 1)
                    .collect();
                out.push((o.clone(), concepts[0]));
                out.push((o, concepts[concepts.len() - 1]));
            }
        }
    }
    out
}

#[test]
fn compiled_plans_match_the_reference_pipeline() {
    let mut v = Vocab::new();
    let omqs = omqs(&mut v);
    let probe = CertainEngine::new(1);
    let (mut compiled, mut refused, mut recursive, mut corpus_like) = (0, 0, 0, 0);
    for (o, q) in &omqs {
        let expected_report = reference_report(o, &v);
        let report = classify_ontology(o, &[], &probe, &mut v);
        assert_eq!(format!("{report:?}"), format!("{expected_report:?}"));
        assert_eq!(report.to_string(), expected_report.to_string());
        let text = canonical_omq_text(o, *q, &v);
        let sys = ElementTypeSystem::build(o, &v);
        let plan = OmqPlan::compile(o, *q, &mut v);
        let (sys, plan) = match (sys, plan) {
            (Err(expected), Err(EngineError::NotRewritable(e))) => {
                assert_eq!(e, expected);
                assert!(!report.type_rewritable);
                refused += 1;
                continue;
            }
            (Ok(sys), Ok(plan)) => (sys, plan),
            (sys, plan) => panic!("build {:?} but compile {:?}", sys.err(), plan.err()),
        };
        compiled += 1;
        corpus_like += usize::from(sys.closure_bits() > 10);
        assert_eq!(plan.canonical_text, text);
        assert_eq!(plan.key, canonical_omq_hash(o, *q, &v));
        assert_eq!(plan.key, fnv1a(text.as_bytes()));
        assert_eq!(format!("{:?}", plan.report), format!("{expected_report:?}"));
        assert_eq!(plan.types.num_types(), sys.num_types());

        let expected = reference_optimize(&emit_datalog_unoptimized(&sys, *q, &mut v));
        assert_eq!(
            plan.program.display(&v).to_string(),
            expected.display(&v).to_string()
        );
        assert_eq!(plan.program, expected);
        // The rules are a shared slice, allocated at their exact length.
        let _: &std::sync::Arc<[Rule]> = &plan.program.rules;
        for rule in plan.program.rules.iter() {
            let slots = rule
                .positive_atoms()
                .flat_map(|a| &a.args)
                .filter_map(|t| match t {
                    gomq_datalog::DTerm::Var(x) => Some(*x as usize + 1),
                    gomq_datalog::DTerm::Ground(_) => None,
                })
                .max()
                .unwrap_or(0);
            assert_eq!(rule.num_slots(), slots);
            assert_eq!(
                rule.body.capacity(),
                rule.body.len(),
                "exact-capacity bodies"
            );
        }

        let expected_ir = reference_plan_ir(&expected);
        assert_eq!(plan.strata.len(), expected_ir.len());
        for (got, want) in plan.strata.strata.iter().zip(&expected_ir.strata) {
            assert_eq!(got.rules, want.rules);
            assert_eq!(got.rules.capacity(), got.rules.len());
            assert_eq!(got.recursive, want.recursive);
        }
        recursive += usize::from(plan.strata.is_recursive());
        let sql = |r: &Result<gomq_rewriting::SqlPlan, gomq_rewriting::SqlEmitError>| match r {
            Ok(p) => format!("{:?}", (&p.sql, &p.tables, p.goal_columns)),
            Err(e) => format!("{e:?}"),
        };
        assert_eq!(
            sql(&emit_sql(&plan.strata, &v)),
            sql(&emit_sql(&expected_ir, &v))
        );
    }
    // The draw exercises every branch: refusals, recursive and
    // non-recursive rewritings, and closures past 10 bits.
    assert!(
        compiled > 300 && refused > 0,
        "{compiled} compiled, {refused} refused"
    );
    assert!(
        recursive > 0 && recursive < compiled,
        "{recursive} recursive"
    );
    assert!(corpus_like >= 10, "{corpus_like} closures past 10 bits");
}

/// FNV-1a of every OMQ's [`render`]ed plan (or its refusal), in order.
fn fingerprint() -> (u64, usize) {
    let mut v = Vocab::new();
    let omqs = omqs(&mut v);
    let mut all = String::new();
    for (o, q) in &omqs {
        match OmqPlan::compile(o, *q, &mut v) {
            Ok(plan) => all.push_str(&render(&plan, &v)),
            Err(e) => all.push_str(&format!("refused: {e}\n")),
        }
    }
    (fnv1a(all.as_bytes()), omqs.len())
}

/// The fingerprint the pipeline before this rework produced on the same
/// 468 OMQs.
const RECORDED: (u64, usize) = (0xbb56_6264_fd47_aa97, 468);

#[test]
fn compiled_plans_match_the_recorded_fingerprint() {
    assert_eq!(fingerprint(), RECORDED);
}
