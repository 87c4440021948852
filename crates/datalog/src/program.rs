//! Rule and program representation.

use gomq_core::{RelId, Term, Vocab};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};

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
        let mut positive_vars: BTreeSet<u32> = BTreeSet::new();
        for l in &body {
            if let Literal::Pos(a) = l {
                for t in &a.args {
                    if let DTerm::Var(v) = t {
                        positive_vars.insert(*v);
                    }
                }
            }
        }
        let check = |t: &DTerm| {
            if let DTerm::Var(v) = t {
                assert!(
                    positive_vars.contains(v),
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
        let slots = positive_vars.last().map_or(0, |&v| v + 1);
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

/// A Datalog≠ program with a designated goal relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
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
        Program { rules, goal }
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

    /// Simplifies the program without changing its answers:
    ///
    /// * drops rules with a trivially false body (`t ≠ t`),
    /// * deduplicates body literals within each rule,
    /// * deduplicates identical rules (same head, same body literals in
    ///   the same order), keeping the first.
    ///
    /// Idempotent: an optimized program optimizes to itself.
    pub fn optimize(&self) -> Program {
        // Kept rules bucketed by a structural hash of (head, body); a
        // bucket is verified by equality, so collisions cannot merge
        // distinct rules.
        let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(self.rules.len());
        let mut rules: Vec<Rule> = Vec::with_capacity(self.rules.len());
        for r in &self.rules {
            // Trivially false inequality?
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
            // Dropping duplicate literals keeps one copy of each, so the
            // range-restriction checks and the slot count carry over.
            rules.push(Rule {
                head: r.head.clone(),
                body,
                slots: r.slots,
            });
        }
        Program {
            rules,
            goal: self.goal,
        }
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
        for r in &self.program.rules {
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
        let opt = p.optimize();
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
            for r in &p.rules {
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
            let opt = p.optimize();
            assert_eq!(opt.rules, expected);
            assert_eq!(opt.optimize(), opt, "optimize is idempotent");
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
