//! Backend-agnostic plan IR: the SCC-stratified rule graph.
//!
//! A compiled OMQ plan used to be a bag of executor-specific state; this
//! module is the part every backend shares. [`PlanIr::of`] partitions a
//! [`Program`]'s rules into the strongly connected components of its
//! head-dependency graph (body IDB relation → head relation) and orders
//! the components bodies-first. Each [`StratumIr`] carries the
//! annotations a backend needs to pick an execution strategy:
//!
//! * `recursive` — some rule's positive body atom mentions a head
//!   relation of the same stratum, so a fixpoint loop is required. A
//!   non-recursive stratum saturates in a single derivation pass.
//! * `uses_neq` — some rule carries a `≠` guard. The dialect has no
//!   negation-as-failure (only the built-in inequality), and `≠` atoms
//!   never create dependency edges: they constrain bindings but derive
//!   nothing.
//!
//! The [`Rewritability`] verdict summarizes the whole graph: an IR with
//! no recursive stratum is a bounded union of select-project-join
//! queries and can be emitted as portable SQL (`rewriting::emit_sql`);
//! a recursive IR needs a fixpoint engine. The ontology-level half of
//! the verdict (whether a Datalog≠ rewriting exists at all) lives in
//! `rewriting::classify_ontology`; the plan layer combines both.

use crate::program::{Program, Rule};
use gomq_core::RelId;
use std::collections::BTreeSet;

/// One SCC stratum: a rule partition plus its execution annotations.
///
/// A non-recursive stratum (no rule's body mentions a head relation of
/// the same stratum) saturates in a single derivation pass — no
/// fixpoint iteration, no empty final round.
#[derive(Clone, Debug)]
pub struct StratumIr {
    /// The rules of this stratum.
    pub rules: Vec<Rule>,
    /// Whether any rule's body depends on a head relation of this
    /// stratum (then a fixpoint loop is needed).
    pub recursive: bool,
}

impl StratumIr {
    /// The head relations defined by this stratum.
    pub fn heads(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.rel).collect()
    }

    /// Whether any rule of this stratum carries a `≠` guard.
    pub fn uses_neq(&self) -> bool {
        self.rules.iter().any(|r| r.uses_neq())
    }
}

/// Which backends can execute a plan, judged from the rule graph alone.
///
/// Derived by [`PlanIr::rewritability`] from SCC acyclicity. The
/// ontology-level classification (is there a Datalog≠ rewriting at
/// all?) is upstream of this: by the time an IR exists, the answer was
/// yes, and this verdict splits the rewritable world further.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rewritability {
    /// No recursive stratum: the plan is a bounded sequence of
    /// select-project-join-union layers (UCQ-shaped rewritings and
    /// acyclic Theorem-5 type programs), expressible as first-order /
    /// SQL text — any relational backend can run it.
    FirstOrder,
    /// At least one stratum needs a fixpoint loop: the plan is genuine
    /// recursive Datalog≠ and only fixpoint backends apply.
    DatalogOnly,
}

impl std::fmt::Display for Rewritability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rewritability::FirstOrder => write!(f, "first-order"),
            Rewritability::DatalogOnly => write!(f, "datalog-only"),
        }
    }
}

/// Rules grouped into SCC strata in topological (bodies-first) order.
///
/// Computed once per compiled plan and reused for every instance the
/// plan is evaluated against, by whichever backend.
#[derive(Clone, Debug)]
pub struct PlanIr {
    /// One rule partition per stratum, dependency order.
    pub strata: Vec<StratumIr>,
    /// The program's goal relation (answers are its tuples).
    pub goal: RelId,
}

impl PlanIr {
    /// Stratifies a program by the SCCs of its head-dependency graph.
    ///
    /// The graph's nodes are the IDB relations, numbered densely in
    /// relation-id order; edges are visited in target order, so the
    /// components and their order depend on the rules alone.
    pub fn of(program: &Program) -> PlanIr {
        // Dense node numbers: `node[rel]` for every head relation.
        let n_rels = program
            .rules
            .iter()
            .map(|r| r.head.rel.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut node = vec![NO_NODE; n_rels];
        for r in program.rules.iter() {
            node[r.head.rel.0 as usize] = 0;
        }
        let mut n_nodes = 0u32;
        for slot in node.iter_mut().filter(|n| **n != NO_NODE) {
            *slot = n_nodes;
            n_nodes += 1;
        }
        let node_of = |rel: RelId| match node.get(rel.0 as usize) {
            Some(&n) if n != NO_NODE => Some(n),
            _ => None,
        };
        // Dependency edges body-IDB-relation → head relation.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for rule in program.rules.iter() {
            let h = node[rule.head.rel.0 as usize];
            edges.extend(
                rule.positive_atoms()
                    .filter_map(|a| Some((node_of(a.rel)?, h))),
            );
        }
        let succ = Csr::of(n_nodes as usize, edges);
        let comp = scc(&succ);
        let n_comps = comp.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        // Condensation edges + Kahn topological order.
        let mut cond_edges: Vec<(u32, u32)> = Vec::new();
        for b in 0..n_nodes as usize {
            for &h in succ.row(b) {
                let (cb, ch) = (comp[b], comp[h as usize]);
                if cb != ch {
                    cond_edges.push((cb, ch));
                }
            }
        }
        let cond = Csr::of(n_comps, cond_edges);
        let mut indegree = vec![0usize; n_comps];
        for &ch in &cond.targets {
            indegree[ch as usize] += 1;
        }
        let mut order: Vec<usize> = Vec::with_capacity(n_comps);
        let mut queue: Vec<usize> = (0..n_comps).filter(|&c| indegree[c] == 0).collect();
        while let Some(c) = queue.pop() {
            order.push(c);
            for &d in cond.row(c) {
                let d = d as usize;
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push(d);
                }
            }
        }
        debug_assert_eq!(order.len(), n_comps, "condensation must be acyclic");
        let mut rank_of_comp = vec![0usize; n_comps];
        for (rank, &c) in order.iter().enumerate() {
            rank_of_comp[c] = rank;
        }
        let comp_of = |rel: RelId| comp[node[rel.0 as usize] as usize] as usize;
        let mut sizes = vec![0usize; n_comps];
        for rule in program.rules.iter() {
            sizes[rank_of_comp[comp_of(rule.head.rel)]] += 1;
        }
        let mut buckets: Vec<Vec<Rule>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for rule in program.rules.iter() {
            buckets[rank_of_comp[comp_of(rule.head.rel)]].push(rule.clone());
        }
        // A stratum is recursive when a positive body atom names a head
        // relation of its own component.
        let strata = buckets
            .into_iter()
            .filter(|rules| !rules.is_empty())
            .map(|rules| {
                let c = comp_of(rules[0].head.rel);
                let recursive = rules.iter().any(|r| {
                    r.positive_atoms()
                        .any(|a| node_of(a.rel).is_some_and(|n| comp[n as usize] as usize == c))
                });
                StratumIr { rules, recursive }
            })
            .collect();
        PlanIr {
            strata,
            goal: program.goal,
        }
    }

    /// Number of strata.
    pub fn len(&self) -> usize {
        self.strata.len()
    }

    /// Whether there are no strata (empty program).
    pub fn is_empty(&self) -> bool {
        self.strata.is_empty()
    }

    /// Whether any stratum needs a fixpoint loop.
    pub fn is_recursive(&self) -> bool {
        self.strata.iter().any(|s| s.recursive)
    }

    /// Whether any rule anywhere carries a `≠` guard.
    pub fn uses_neq(&self) -> bool {
        self.strata.iter().any(|s| s.uses_neq())
    }

    /// All rules in stratum order.
    pub fn rules(&self) -> impl Iterator<Item = &Rule> {
        self.strata.iter().flat_map(|s| s.rules.iter())
    }

    /// The backend verdict: SQL-expressible iff no stratum is recursive.
    pub fn rewritability(&self) -> Rewritability {
        if self.is_recursive() {
            Rewritability::DatalogOnly
        } else {
            Rewritability::FirstOrder
        }
    }
}

/// Not an IDB relation (in [`PlanIr::of`]'s dense numbering).
const NO_NODE: u32 = u32::MAX;

/// A graph in compressed rows: the successors of node `i` are
/// `targets[offsets[i]..offsets[i + 1]]`, ascending and distinct.
struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Csr {
    /// The graph on `n` nodes with the given edges (repeats allowed).
    fn of(n: usize, mut edges: Vec<(u32, u32)>) -> Csr {
        edges.sort_unstable();
        edges.dedup();
        let mut offsets = vec![0usize; n + 1];
        for &(a, _) in &edges {
            offsets[a as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.into_iter().map(|(_, b)| b).collect();
        Csr { offsets, targets }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }
}

/// Iterative Tarjan SCC; returns the component id of every node.
/// Components are numbered in the order they complete.
fn scc(succ: &Csr) -> Vec<u32> {
    let n = succ.len();
    let mut t = Tarjan {
        index: vec![usize::MAX; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        dfs: Vec::new(),
        next_index: 0,
    };
    let mut comp = vec![u32::MAX; n];
    let mut next_comp = 0u32;
    for root in 0..n {
        if t.index[root] != usize::MAX {
            continue;
        }
        t.visit(root);
        while let Some(&mut (v, ref mut pos)) = t.dfs.last_mut() {
            if let Some(&w) = succ.row(v).get(*pos) {
                *pos += 1;
                let w = w as usize;
                if t.index[w] == usize::MAX {
                    t.visit(w);
                } else if t.on_stack[w] {
                    t.low[v] = t.low[v].min(t.index[w]);
                }
            } else {
                t.dfs.pop();
                if let Some(&(parent, _)) = t.dfs.last() {
                    t.low[parent] = t.low[parent].min(t.low[v]);
                }
                if t.low[v] == t.index[v] {
                    while let Some(w) = t.stack.pop() {
                        t.on_stack[w] = false;
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

/// The state of [`scc`]'s depth-first search.
struct Tarjan {
    index: Vec<usize>,
    low: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    /// Explicit DFS stack: (node, position in its successor row).
    dfs: Vec<(usize, usize)>,
    next_index: usize,
}

impl Tarjan {
    fn visit(&mut self, v: usize) {
        self.index[v] = self.next_index;
        self.low[v] = self.next_index;
        self.next_index += 1;
        self.stack.push(v);
        self.on_stack[v] = true;
        self.dfs.push((v, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{DAtom, DTerm, Literal};
    use gomq_core::Vocab;

    /// Reference acyclicity check: a head relation is recursive iff it
    /// can reach itself in the body-IDB → head dependency graph
    /// (transitive closure by naive iteration, independent of Tarjan).
    fn reachability_says_recursive(program: &Program) -> bool {
        let idb = program.idb();
        let mut reach: BTreeSet<(RelId, RelId)> = BTreeSet::new();
        for rule in program.rules.iter() {
            for atom in rule.positive_atoms() {
                if idb.contains(&atom.rel) {
                    reach.insert((atom.rel, rule.head.rel));
                }
            }
        }
        loop {
            let mut grew = false;
            let edges: Vec<_> = reach.iter().copied().collect();
            for &(a, b) in &edges {
                for &(c, d) in &edges {
                    if b == c && reach.insert((a, d)) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        idb.iter().any(|&r| reach.contains(&(r, r)))
    }

    fn pos(rel: RelId, vars: &[u32]) -> Literal {
        Literal::Pos(DAtom::vars(rel, vars))
    }

    #[test]
    fn transitive_closure_is_recursive_and_datalog_only() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        let g = v.rel("goal", 2);
        let p = Program::new(
            vec![
                Rule::new(DAtom::vars(t, &[0, 1]), vec![pos(e, &[0, 1])]),
                Rule::new(
                    DAtom::vars(t, &[0, 2]),
                    vec![pos(t, &[0, 1]), pos(e, &[1, 2])],
                ),
                Rule::new(DAtom::vars(g, &[0, 1]), vec![pos(t, &[0, 1])]),
            ],
            g,
        );
        let ir = PlanIr::of(&p);
        assert!(ir.is_recursive());
        assert!(reachability_says_recursive(&p));
        assert_eq!(ir.rewritability(), Rewritability::DatalogOnly);
        // Exactly the T-stratum is recursive, not the goal layer.
        let flags: Vec<bool> = ir.strata.iter().map(|s| s.recursive).collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn layered_ucq_shape_is_first_order() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let g = v.rel("goal", 1);
        let p = Program::new(
            vec![
                Rule::new(DAtom::vars(b, &[0]), vec![pos(a, &[0])]),
                Rule::new(DAtom::vars(b, &[0]), vec![pos(e, &[0, 1])]),
                Rule::new(DAtom::vars(g, &[0]), vec![pos(b, &[0])]),
            ],
            g,
        );
        let ir = PlanIr::of(&p);
        assert!(!ir.is_recursive());
        assert!(!reachability_says_recursive(&p));
        assert_eq!(ir.rewritability(), Rewritability::FirstOrder);
        assert_eq!(ir.goal, g);
        assert_eq!(ir.len(), 2);
    }

    #[test]
    fn mutual_recursion_lands_in_one_stratum() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let odd = v.rel("Odd", 1);
        let even = v.rel("Even", 1);
        let g = v.rel("goal", 1);
        let p = Program::new(
            vec![
                Rule::new(
                    DAtom::vars(odd, &[0]),
                    vec![pos(e, &[1, 0]), pos(even, &[1])],
                ),
                Rule::new(
                    DAtom::vars(even, &[0]),
                    vec![pos(e, &[1, 0]), pos(odd, &[1])],
                ),
                Rule::new(DAtom::vars(even, &[0]), vec![pos(e, &[0, 1])]),
                Rule::new(DAtom::vars(g, &[0]), vec![pos(odd, &[0])]),
            ],
            g,
        );
        let ir = PlanIr::of(&p);
        assert!(ir.is_recursive());
        assert!(reachability_says_recursive(&p));
        // Odd and Even share one SCC; goal sits above it.
        assert_eq!(ir.len(), 2);
        assert_eq!(
            ir.strata[0].heads(),
            [odd, even].into_iter().collect::<BTreeSet<_>>()
        );
        assert!(ir.strata[0].recursive);
        assert!(!ir.strata[1].recursive);
    }

    #[test]
    fn neq_atoms_do_not_create_dependency_edges() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let s = v.rel("S", 2);
        let g = v.rel("goal", 2);
        // Identical programs except one ≠ guard: same stratification,
        // same (non-)recursion verdict, but the annotation flips.
        let without = Program::new(
            vec![
                Rule::new(DAtom::vars(s, &[0, 1]), vec![pos(e, &[0, 1])]),
                Rule::new(DAtom::vars(g, &[0, 1]), vec![pos(s, &[0, 1])]),
            ],
            g,
        );
        let with = Program::new(
            vec![
                Rule::new(
                    DAtom::vars(s, &[0, 1]),
                    vec![pos(e, &[0, 1]), Literal::Neq(DTerm::Var(0), DTerm::Var(1))],
                ),
                Rule::new(DAtom::vars(g, &[0, 1]), vec![pos(s, &[0, 1])]),
            ],
            g,
        );
        let ir_without = PlanIr::of(&without);
        let ir_with = PlanIr::of(&with);
        assert_eq!(ir_without.len(), ir_with.len());
        assert!(!ir_with.is_recursive());
        assert!(!reachability_says_recursive(&with));
        assert!(ir_with.uses_neq() && !ir_without.uses_neq());
        assert!(ir_with.strata[0].uses_neq());
        assert_eq!(ir_with.rewritability(), Rewritability::FirstOrder);
    }

    #[test]
    fn self_loop_rule_is_recursive_even_alone() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        let g = v.rel("goal", 2);
        let p = Program::new(
            vec![
                Rule::new(DAtom::vars(t, &[0, 1]), vec![pos(e, &[0, 1])]),
                Rule::new(DAtom::vars(t, &[1, 0]), vec![pos(t, &[0, 1])]),
                Rule::new(DAtom::vars(g, &[0, 1]), vec![pos(t, &[0, 1])]),
            ],
            g,
        );
        let ir = PlanIr::of(&p);
        assert!(ir.is_recursive());
        assert!(reachability_says_recursive(&p));
    }

    #[test]
    fn empty_program_is_first_order() {
        let mut v = Vocab::new();
        let g = v.rel("goal", 1);
        let ir = PlanIr::of(&Program::new(vec![], g));
        assert!(ir.is_empty());
        assert!(!ir.is_recursive());
        assert_eq!(ir.rewritability(), Rewritability::FirstOrder);
    }

    /// The Tarjan-based verdict and the naive reachability verdict agree
    /// on a family of random-ish layered programs (deterministic LCG).
    #[test]
    fn scc_verdict_matches_reachability_on_generated_programs() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for case in 0..200 {
            let mut v = Vocab::new();
            let n_rels = 2 + next() % 6;
            let rels: Vec<RelId> = (0..n_rels).map(|i| v.rel(&format!("R{i}"), 1)).collect();
            let edb = v.rel("edb", 1);
            let g = v.rel("goal", 1);
            let n_rules = 1 + next() % 8;
            let mut rules = Vec::new();
            for _ in 0..n_rules {
                let head = rels[next() % n_rels];
                let mut body = vec![pos(edb, &[0])];
                for _ in 0..(next() % 3) {
                    body.push(pos(rels[next() % n_rels], &[0]));
                }
                rules.push(Rule::new(DAtom::vars(head, &[0]), body));
            }
            rules.push(Rule::new(DAtom::vars(g, &[0]), vec![pos(rels[0], &[0])]));
            let p = Program::new(rules, g);
            let ir = PlanIr::of(&p);
            assert_eq!(
                ir.is_recursive(),
                reachability_says_recursive(&p),
                "case {case}"
            );
            // Strata are bodies-first: every positive body atom of a
            // non-recursive stratum resolves to EDB or an earlier head.
            let mut seen: BTreeSet<RelId> = BTreeSet::new();
            let idb = p.idb();
            for s in &ir.strata {
                if !s.recursive {
                    for r in &s.rules {
                        for a in r.positive_atoms() {
                            assert!(
                                !idb.contains(&a.rel) || seen.contains(&a.rel),
                                "case {case}: unsaturated input"
                            );
                        }
                    }
                }
                seen.extend(s.heads());
            }
        }
    }
}
