//! Rule and program representation.

use gomq_core::store::{FxHashMap, FxHasher};
use gomq_core::{bitset, RelId, Term, Vocab};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// No older kept rule with the same hash (the end of a chain in
/// [`Program::optimized`]).
const NONE: u32 = u32::MAX;

/// A term in a rule: a variable or a fixed ground term.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DTerm {
    /// A rule variable (rule-scoped index).
    Var(u32),
    /// A ground term (constant or null) baked into the rule.
    Ground(Term),
}

/// An atom `R(t₁,…,t_k)` in a rule head or body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DAtom {
    /// The relation symbol.
    pub rel: RelId,
    /// The arguments.
    pub args: Vec<DTerm>,
}

impl DAtom {
    /// Creates an atom over variables only.
    pub fn vars(rel: RelId, vars: &[u32]) -> Self {
        DAtom {
            rel,
            args: vars.iter().map(|&v| DTerm::Var(v)).collect(),
        }
    }
}

/// A body literal: a positive atom or a built-in inequality.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Literal {
    /// A positive relational atom.
    Pos(DAtom),
    /// The built-in `t ≠ u`.
    Neq(DTerm, DTerm),
}

/// A Datalog≠ rule `head ← body`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// The head atom.
    pub head: DAtom,
    /// The body literals.
    pub body: Vec<Literal>,
    /// Cached variable-slot count (1 + the largest variable index), so the
    /// matcher can allocate a flat binding frame without rescanning the rule.
    slots: u32,
}

impl Rule {
    /// Creates a rule, checking range restriction: every head variable and
    /// every inequality variable occurs in a positive body atom.
    ///
    /// # Panics
    ///
    /// Panics on violated range restriction.
    pub fn new(head: DAtom, body: Vec<Literal>) -> Self {
        let slots = positive_vars(&body).map(|v| v + 1).max().unwrap_or(0);
        // The variables of the positive body atoms, as a bitset.
        let mut bound = vec![0u64; bitset::words_for(slots as usize)];
        for v in positive_vars(&body) {
            bitset::set_bit(&mut bound, v as usize);
        }
        let check = |t: &DTerm| {
            if let DTerm::Var(v) = *t {
                assert!(
                    v < slots && bitset::test_bit(&bound, v as usize),
                    "variable ?{v} not bound by a positive body atom"
                );
            }
        };
        for t in &head.args {
            check(t);
        }
        for l in &body {
            if let Literal::Neq(a, b) = l {
                check(a);
                check(b);
            }
        }
        // Range restriction holds, so positive body atoms mention every
        // variable of the rule.
        Rule { head, body, slots }
    }

    /// Number of variable slots a binding frame for this rule needs
    /// (1 + the largest variable index; 0 for a variable-free rule).
    pub fn num_slots(&self) -> usize {
        self.slots as usize
    }

    /// Whether the rule uses inequality.
    pub fn uses_neq(&self) -> bool {
        self.body.iter().any(|l| matches!(l, Literal::Neq(_, _)))
    }

    /// The positive body atoms.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &DAtom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            Literal::Neq(_, _) => None,
        })
    }
}

/// The variables of the positive atoms of `body`, with repeats.
fn positive_vars(body: &[Literal]) -> impl Iterator<Item = u32> + '_ {
    body.iter()
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a.args.iter()),
            Literal::Neq(_, _) => None,
        })
        .flatten()
        .filter_map(|t| match t {
            DTerm::Var(v) => Some(*v),
            DTerm::Ground(_) => None,
        })
}

/// A Datalog≠ program with a designated goal relation.
///
/// Its rules are immutable and shared: cloning a program, or building a
/// view of it ([`crate::ivm::Materialization`]), copies a pointer, not
/// the rules.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// The rules.
    pub rules: Arc<[Rule]>,
    /// The goal relation (must not occur in rule bodies).
    pub goal: RelId,
}

impl Program {
    /// Creates a program, checking that `goal` never occurs in a body.
    ///
    /// # Panics
    ///
    /// Panics if the goal relation occurs in a rule body.
    pub fn new(rules: Vec<Rule>, goal: RelId) -> Self {
        for r in &rules {
            for a in r.positive_atoms() {
                assert!(a.rel != goal, "goal relation must not occur in rule bodies");
            }
        }
        Program {
            rules: rules.into(),
            goal,
        }
    }

    /// Whether this is a pure Datalog program (no inequality).
    pub fn is_pure_datalog(&self) -> bool {
        !self.rules.iter().any(Rule::uses_neq)
    }

    /// The intensional (derived) relations: those occurring in a head.
    pub fn idb(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.rel).collect()
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The program of `rules`, simplified without changing its answers
    /// ([`Program::new`] of the simplified rules):
    ///
    /// * drops rules with a trivially false body (`t ≠ t`),
    /// * deduplicates body literals within each rule,
    /// * deduplicates identical rules (same head, same body literals in
    ///   the same order), keeping the first.
    ///
    /// Rules are moved, not cloned: a kept rule is the input rule with
    /// its duplicate literals removed. Idempotent: optimizing an
    /// optimized program's rules gives the same program.
    pub fn optimized(mut rules: Vec<Rule>, goal: RelId) -> Program {
        // Kept rules chained by a structural hash of (head, body): the
        // newest kept index per hash, and for each kept index the next
        // older one with the same hash. A chain is verified by equality,
        // so collisions cannot merge distinct rules.
        let mut newest: FxHashMap<u64, u32> = FxHashMap::default();
        newest.reserve(rules.len());
        let mut older: Vec<u32> = Vec::with_capacity(rules.len());
        let mut kept = 0usize;
        for i in 0..rules.len() {
            let r = &mut rules[i];
            let falsum = r
                .body
                .iter()
                .any(|l| matches!(l, Literal::Neq(a, b) if a == b));
            if falsum {
                continue;
            }
            // Dropping duplicate literals keeps one copy of each, in
            // order, so the range-restriction checks and the slot count
            // carry over.
            let mut len = 0;
            for j in 0..r.body.len() {
                if !r.body[..len].contains(&r.body[j]) {
                    r.body.swap(len, j);
                    len += 1;
                }
            }
            if len < r.body.len() {
                r.body.truncate(len);
                r.body.shrink_to_fit();
            }
            let mut h = FxHasher::default();
            (&r.head, &r.body).hash(&mut h);
            let h = h.finish();
            let mut at = newest.get(&h).copied().unwrap_or(NONE);
            while at != NONE {
                let k = &rules[at as usize];
                if k.head == rules[i].head && k.body == rules[i].body {
                    break;
                }
                at = older[at as usize];
            }
            if at != NONE {
                continue;
            }
            older.push(newest.insert(h, kept as u32).unwrap_or(NONE));
            rules.swap(kept, i);
            kept += 1;
        }
        rules.truncate(kept);
        Program::new(rules, goal)
    }

    /// Renders the program with relation names from the vocabulary.
    pub fn display<'a>(&'a self, vocab: &'a Vocab) -> ProgramDisplay<'a> {
        ProgramDisplay {
            program: self,
            vocab,
        }
    }
}

/// Helper for rendering a [`Program`].
pub struct ProgramDisplay<'a> {
    program: &'a Program,
    vocab: &'a Vocab,
}

impl ProgramDisplay<'_> {
    fn fmt_term(&self, t: &DTerm, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match t {
            DTerm::Var(v) => write!(f, "?{v}"),
            DTerm::Ground(g) => write!(f, "{}", g.display(self.vocab)),
        }
    }

    fn fmt_atom(&self, a: &DAtom, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.vocab.rel_name(a.rel))?;
        for (i, t) in a.args.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            self.fmt_term(t, f)?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for ProgramDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.program.rules.iter() {
            self.fmt_atom(&r.head, f)?;
            write!(f, " <- ")?;
            for (i, l) in r.body.iter().enumerate() {
                if i > 0 {
                    write!(f, " & ")?;
                }
                match l {
                    Literal::Pos(a) => self.fmt_atom(a, f)?,
                    Literal::Neq(a, b) => {
                        self.fmt_term(a, f)?;
                        write!(f, " != ")?;
                        self.fmt_term(b, f)?;
                    }
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_restriction_enforced() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        // T(x,y) <- E(x,y) is fine.
        let r = Rule::new(
            DAtom::vars(t, &[0, 1]),
            vec![Literal::Pos(DAtom::vars(e, &[0, 1]))],
        );
        assert!(!r.uses_neq());
    }

    #[test]
    #[should_panic(expected = "not bound")]
    fn unbound_head_variable_panics() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        Rule::new(
            DAtom::vars(t, &[0, 2]),
            vec![Literal::Pos(DAtom::vars(e, &[0, 1]))],
        );
    }

    #[test]
    fn range_restriction_past_64_variables() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        let r = Rule::new(
            DAtom::vars(t, &[3, 130]),
            vec![
                Literal::Pos(DAtom::vars(e, &[3, 70])),
                Literal::Pos(DAtom::vars(e, &[70, 130])),
                Literal::Neq(DTerm::Var(3), DTerm::Var(130)),
            ],
        );
        assert_eq!(r.num_slots(), 131);
    }

    #[test]
    #[should_panic(expected = "?129 not bound")]
    fn unbound_inequality_variable_past_64_panics() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 1);
        Rule::new(
            DAtom::vars(t, &[3]),
            vec![
                Literal::Pos(DAtom::vars(e, &[3, 130])),
                Literal::Neq(DTerm::Var(3), DTerm::Var(129)),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "goal relation")]
    fn goal_in_body_panics() {
        let mut v = Vocab::new();
        let g = v.rel("goal", 1);
        let r = Rule::new(
            DAtom::vars(g, &[0]),
            vec![Literal::Pos(DAtom::vars(g, &[0]))],
        );
        Program::new(vec![r], g);
    }

    #[test]
    fn optimize_drops_dead_and_duplicate_rules() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let g = v.rel("goal", 2);
        let live = Rule::new(
            DAtom::vars(g, &[0, 1]),
            vec![
                Literal::Pos(DAtom::vars(e, &[0, 1])),
                Literal::Pos(DAtom::vars(e, &[0, 1])), // duplicate literal
            ],
        );
        let dead = Rule::new(
            DAtom::vars(g, &[0, 1]),
            vec![
                Literal::Pos(DAtom::vars(e, &[0, 1])),
                Literal::Neq(DTerm::Var(0), DTerm::Var(0)), // t ≠ t
            ],
        );
        let p = Program::new(vec![live.clone(), live, dead], g);
        let opt = Program::optimized(p.rules.to_vec(), p.goal);
        assert_eq!(opt.len(), 1);
        assert_eq!(opt.rules[0].body.len(), 1);
        // Answers unchanged.
        let a = v.constant("a");
        let b = v.constant("b");
        let mut d = gomq_core::Instance::new();
        d.insert(gomq_core::Fact::consts(e, &[a, b]));
        assert_eq!(p.eval(&d), opt.eval(&d));
    }

    /// The structural dedup keeps exactly the rules a `format!("{rule:?}")`
    /// key keeps, in the same order, over random programs full of
    /// duplicate rules, duplicate literals, literal permutations and
    /// `t ≠ t` bodies.
    #[test]
    fn structural_dedup_matches_the_debug_string_key() {
        fn debug_key_optimize(p: &Program) -> Vec<Rule> {
            let mut seen = BTreeSet::new();
            let mut out = Vec::new();
            for r in p.rules.iter() {
                if r.body
                    .iter()
                    .any(|l| matches!(l, Literal::Neq(a, b) if a == b))
                {
                    continue;
                }
                let mut kept: Vec<Literal> = Vec::new();
                for l in &r.body {
                    if !kept.contains(l) {
                        kept.push(l.clone());
                    }
                }
                let rule = Rule::new(r.head.clone(), kept);
                if seen.insert(format!("{rule:?}")) {
                    out.push(rule);
                }
            }
            out
        }
        let mut v = Vocab::new();
        let rels: Vec<RelId> = (0..3).map(|i| v.rel(&format!("E{i}"), 2)).collect();
        let goal = v.rel("goal", 1);
        let c = Term::Const(v.constant("c"));
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let (mut kept_total, mut dropped_total) = (0, 0);
        for _ in 0..200 {
            let mut rules = Vec::new();
            for _ in 0..30 {
                let mut body: Vec<Literal> = (0..1 + next(3))
                    .map(|_| {
                        let rel = rels[next(3) as usize];
                        let args = if next(5) == 0 {
                            vec![DTerm::Var(next(3) as u32), DTerm::Ground(c)]
                        } else {
                            vec![DTerm::Var(next(3) as u32), DTerm::Var(next(3) as u32)]
                        };
                        Literal::Pos(DAtom { rel, args })
                    })
                    .collect();
                let DTerm::Var(x) = (match &body[0] {
                    Literal::Pos(a) => a.args[0],
                    Literal::Neq(..) => unreachable!(),
                }) else {
                    unreachable!()
                };
                if next(4) == 0 {
                    let y = if next(3) == 0 { x } else { 0 };
                    let bound = body
                        .iter()
                        .any(|l| matches!(l, Literal::Pos(a) if a.args.contains(&DTerm::Var(y))));
                    if bound {
                        body.push(Literal::Neq(DTerm::Var(x), DTerm::Var(y)));
                    }
                }
                if next(3) == 0 {
                    let dup = body[next(body.len() as u64) as usize].clone();
                    body.push(dup);
                }
                rules.push(Rule::new(DAtom::vars(goal, &[x]), body));
                if next(3) == 0 {
                    let again = rules[next(rules.len() as u64) as usize].clone();
                    rules.push(again);
                }
            }
            let p = Program::new(rules, goal);
            let expected = debug_key_optimize(&p);
            let opt = Program::optimized(p.rules.to_vec(), goal);
            assert_eq!(*opt.rules, expected[..]);
            assert_eq!(
                Program::optimized(opt.rules.to_vec(), goal),
                opt,
                "optimize is idempotent"
            );
            kept_total += opt.len();
            dropped_total += p.len() - opt.len();
        }
        assert!(kept_total > 0 && dropped_total > 0);
    }

    #[test]
    fn idb_and_display() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let t = v.rel("T", 2);
        let g = v.rel("goal", 2);
        let rules = vec![
            Rule::new(
                DAtom::vars(t, &[0, 1]),
                vec![Literal::Pos(DAtom::vars(e, &[0, 1]))],
            ),
            Rule::new(
                DAtom::vars(t, &[0, 2]),
                vec![
                    Literal::Pos(DAtom::vars(t, &[0, 1])),
                    Literal::Pos(DAtom::vars(e, &[1, 2])),
                ],
            ),
            Rule::new(
                DAtom::vars(g, &[0, 1]),
                vec![
                    Literal::Pos(DAtom::vars(t, &[0, 1])),
                    Literal::Neq(DTerm::Var(0), DTerm::Var(1)),
                ],
            ),
        ];
        let p = Program::new(rules, g);
        assert_eq!(p.idb().len(), 2);
        assert!(!p.is_pure_datalog());
        let s = format!("{}", p.display(&v));
        assert!(s.contains("goal(?0,?1) <- T(?0,?1) & ?0 != ?1"));
    }
}
