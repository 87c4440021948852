//! Emitting non-recursive plan IRs as portable SQL text.
//!
//! A [`PlanIr`] whose strata are all non-recursive is a bounded tower
//! of select-project-join-union layers: the UCQ-shaped rewritings and
//! the acyclic Theorem-5 type programs. [`emit_sql`] compiles such an
//! IR to one SQL statement — one CTE per stratum, in bodies-first
//! order — that any relational database can run:
//!
//! * each rule becomes a `SELECT DISTINCT` block whose `FROM` items are
//!   the positive body atoms (one alias per atom), with join equalities
//!   for repeated variables, `= '…'` equalities for ground arguments
//!   and `<>` comparisons for `≠` guards;
//! * the rules of one head relation are `UNION`ed together, after a
//!   base branch reading the relation's own table — the fixpoint
//!   engine seeds every IDB relation with its EDB facts, and the SQL
//!   translation must agree;
//! * recursive IRs are refused with the typed
//!   [`SqlEmitError::Recursive`] — the caller surfaces this as the
//!   `non-rewritable-to-sql` status, never as a wrong answer.
//!
//! The emitted dialect is deliberately tiny (see `gomq-sqlexec`, the
//! in-process reference executor it is cross-checked against): `WITH`,
//! `SELECT DISTINCT`, `UNION`, `=`/`<>`, `ORDER BY`, single-quoted
//! string literals and double-quoted identifiers.

use gomq_core::{Term, Vocab};
use gomq_datalog::ir::PlanIr;
use gomq_datalog::{DTerm, Literal, Rule};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// A compiled SQL statement plus the schema it expects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SqlPlan {
    /// The full statement text (independent of any concrete ABox).
    pub sql: String,
    /// Base tables the statement reads, as `(name, arity)` in name
    /// order. Columns of a table of arity `n` are `c0 … c{n-1}`. IDB
    /// relations appear here too: their tables seed the corresponding
    /// CTE (empty for the reserved `_elim{t}`/`_dom`/`_goal`/`_sedge{r}`
    /// relations of an OMQ rewriting, which no user data may name, but
    /// required to exist).
    pub tables: Vec<(String, usize)>,
    /// Number of answer columns (the goal relation's arity).
    pub goal_columns: usize,
}

/// Why an IR could not be emitted as SQL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqlEmitError {
    /// Some stratum needs a fixpoint loop; SQL (without recursive CTEs)
    /// cannot express it. `heads` names the offending relations.
    Recursive {
        /// Head relations of the recursive strata, name order.
        heads: Vec<String>,
    },
    /// A referenced relation has arity 0 (no columns to select).
    ZeroArity(String),
    /// A `≠` guard mentions a variable no positive atom binds (such a
    /// rule is ill-formed for the native engine too).
    UnboundNeqVar(u32),
}

impl fmt::Display for SqlEmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlEmitError::Recursive { heads } => write!(
                f,
                "rewriting is recursive (fixpoint strata over {}); not expressible as SQL",
                heads.join(", ")
            ),
            SqlEmitError::ZeroArity(name) => {
                write!(
                    f,
                    "relation {name} has arity 0; SQL needs at least one column"
                )
            }
            SqlEmitError::UnboundNeqVar(v) => {
                write!(f, "inequality over unbound variable ?{v}")
            }
        }
    }
}

impl std::error::Error for SqlEmitError {}

/// `'…'` string literal with `''` escaping.
fn str_lit(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// `"…"` identifier with `""` escaping.
fn ident(s: &str) -> String {
    format!("\"{}\"", s.replace('"', "\"\""))
}

fn term_lit(t: Term, vocab: &Vocab) -> String {
    str_lit(&t.display(vocab).to_string())
}

/// Compiles a non-recursive `ir` to one portable SQL statement.
///
/// Fails with [`SqlEmitError::Recursive`] when any stratum needs a
/// fixpoint. Bodyless rules are skipped: the native engine derives
/// nothing from them (`derive` returns early without a positive atom),
/// and the translation must agree.
pub fn emit_sql(ir: &PlanIr, vocab: &Vocab) -> Result<SqlPlan, SqlEmitError> {
    if ir.is_recursive() {
        let heads: BTreeSet<String> = ir
            .strata
            .iter()
            .filter(|s| s.recursive)
            .flat_map(|s| s.heads())
            .map(|r| vocab.rel_name(r).to_string())
            .collect();
        return Err(SqlEmitError::Recursive {
            heads: heads.into_iter().collect(),
        });
    }

    let idb: BTreeSet<_> = ir.rules().map(|r| r.head.rel).collect();
    // Every relation read as a base table: EDB body relations, the EDB
    // seed of each IDB relation, and the goal itself.
    let mut base: BTreeSet<_> = idb.clone();
    base.insert(ir.goal);
    for rule in ir.rules() {
        for atom in rule.positive_atoms() {
            base.insert(atom.rel);
        }
    }
    for &rel in &base {
        if vocab.arity(rel) == 0 {
            return Err(SqlEmitError::ZeroArity(vocab.rel_name(rel).to_string()));
        }
    }

    // CTE names: `cte_<rel>`, kept clear of every real relation name so
    // a CTE can never shadow a base table in the executor.
    let cte_name = |rel| {
        let mut name = format!("cte_{}", vocab.rel_name(rel));
        while vocab.find_rel(&name).is_some() {
            name.push('_');
        }
        name
    };
    let cte_names: BTreeMap<_, String> = idb.iter().map(|&r| (r, cte_name(r))).collect();
    let table_of = |rel| match cte_names.get(&rel) {
        Some(cte) => ident(cte),
        None => ident(vocab.rel_name(rel)),
    };

    let mut sql = String::new();
    let goal_columns = vocab.arity(ir.goal);
    let _ = writeln!(
        sql,
        "-- certain-answer rewriting for goal {} ({goal_columns} column{})",
        ident(vocab.rel_name(ir.goal)),
        if goal_columns == 1 { "" } else { "s" }
    );
    let tables: Vec<(String, usize)> = {
        let mut named: Vec<_> = base
            .iter()
            .map(|&r| (vocab.rel_name(r).to_string(), vocab.arity(r)))
            .collect();
        named.sort();
        named
    };
    for (name, arity) in &tables {
        let cols: Vec<String> = (0..*arity).map(|i| format!("c{i}")).collect();
        let _ = writeln!(
            sql,
            "-- requires table {}({})",
            ident(name),
            cols.join(", ")
        );
    }

    // One CTE per IDB relation, stratum order (each non-recursive
    // stratum defines exactly one relation, but group defensively).
    let mut ctes: Vec<(String, String)> = Vec::new();
    for stratum in &ir.strata {
        let mut heads_in_order: Vec<_> = Vec::new();
        for rule in &stratum.rules {
            if !heads_in_order.contains(&rule.head.rel) {
                heads_in_order.push(rule.head.rel);
            }
        }
        for head in heads_in_order {
            let arity = vocab.arity(head);
            let mut branches = Vec::new();
            // Base branch: the relation's own EDB facts.
            let cols: Vec<String> = (0..arity).map(|i| format!("t0.c{i} AS c{i}")).collect();
            branches.push(format!(
                "  SELECT DISTINCT {} FROM {} t0",
                cols.join(", "),
                ident(vocab.rel_name(head))
            ));
            for rule in stratum.rules.iter().filter(|r| r.head.rel == head) {
                if let Some(b) = rule_branch(rule, vocab, &table_of)? {
                    branches.push(b);
                }
            }
            ctes.push((cte_names[&head].clone(), branches.join("\n  UNION\n")));
        }
    }
    if !ctes.is_empty() {
        let _ = writeln!(sql, "WITH");
        for (i, (name, body)) in ctes.iter().enumerate() {
            let sep = if i + 1 < ctes.len() { "," } else { "" };
            let _ = writeln!(sql, "{} AS (\n{body}\n){sep}", ident(name));
        }
    }
    let answer_cols: Vec<String> = (0..goal_columns)
        .map(|i| format!("t0.c{i} AS c{i}"))
        .collect();
    let order: Vec<String> = (0..goal_columns).map(|i| format!("c{i}")).collect();
    let _ = writeln!(
        sql,
        "SELECT DISTINCT {} FROM {} t0 ORDER BY {};",
        answer_cols.join(", "),
        table_of(ir.goal),
        order.join(", ")
    );

    Ok(SqlPlan {
        sql,
        tables,
        goal_columns,
    })
}

/// One rule as a `SELECT DISTINCT` branch, or `None` for a bodyless
/// rule (derives nothing under the native semantics).
fn rule_branch(
    rule: &Rule,
    vocab: &Vocab,
    table_of: &dyn Fn(gomq_core::RelId) -> String,
) -> Result<Option<String>, SqlEmitError> {
    let atoms: Vec<_> = rule.positive_atoms().collect();
    if atoms.is_empty() {
        return Ok(None);
    }
    // First occurrence of each variable across the body atoms.
    let mut bound: BTreeMap<u32, (usize, usize)> = BTreeMap::new();
    let mut conds: Vec<String> = Vec::new();
    for (i, atom) in atoms.iter().enumerate() {
        for (j, arg) in atom.args.iter().enumerate() {
            match arg {
                DTerm::Var(v) => match bound.get(v) {
                    Some(&(bi, bj)) => conds.push(format!("t{i}.c{j} = t{bi}.c{bj}")),
                    None => {
                        bound.insert(*v, (i, j));
                    }
                },
                DTerm::Ground(t) => conds.push(format!("t{i}.c{j} = {}", term_lit(*t, vocab))),
            }
        }
    }
    let resolve = |t: &DTerm| -> Result<String, SqlEmitError> {
        match t {
            DTerm::Ground(g) => Ok(term_lit(*g, vocab)),
            DTerm::Var(v) => bound
                .get(v)
                .map(|&(i, j)| format!("t{i}.c{j}"))
                .ok_or(SqlEmitError::UnboundNeqVar(*v)),
        }
    };
    for l in &rule.body {
        if let Literal::Neq(a, b) = l {
            conds.push(format!("{} <> {}", resolve(a)?, resolve(b)?));
        }
    }
    let mut items = Vec::with_capacity(rule.head.args.len());
    for (p, arg) in rule.head.args.iter().enumerate() {
        // Head variables are bound by range restriction (Rule::new
        // rejects violations) and ground head terms become literals.
        let e = resolve(arg)?;
        items.push(format!("{e} AS c{p}"));
    }
    let from: Vec<String> = atoms
        .iter()
        .enumerate()
        .map(|(i, a)| format!("{} t{i}", table_of(a.rel)))
        .collect();
    let where_clause = if conds.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", conds.join(" AND "))
    };
    Ok(Some(format!(
        "  SELECT DISTINCT {} FROM {}{}",
        items.join(", "),
        from.join(", "),
        where_clause
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_datalog::{DAtom, Program};
    use gomq_sqlexec::{run, Database, Limits};

    fn pos(rel: gomq_core::RelId, vars: &[u32]) -> Literal {
        Literal::Pos(DAtom::vars(rel, vars))
    }

    /// Executes an emitted plan over the instance's facts and compares
    /// with the program's own one-shot evaluation.
    fn crosscheck(p: &Program, v: &Vocab, d: &gomq_core::Instance) {
        let ir = PlanIr::of(p);
        let plan = emit_sql(&ir, v).expect("non-recursive");
        let mut db = Database::new();
        for (name, arity) in &plan.tables {
            db.create(name, *arity);
        }
        for f in d.iter() {
            let name = v.rel_name(f.rel).to_string();
            let row: Vec<String> = f.args.iter().map(|t| t.display(v).to_string()).collect();
            db.create(&name, row.len()).insert(row);
        }
        let got = run(&plan.sql, &db, &Limits::UNLIMITED).expect("execute");
        let expected: BTreeSet<Vec<String>> = p
            .eval(d)
            .into_iter()
            .map(|row| row.iter().map(|t| t.display(v).to_string()).collect())
            .collect();
        let got_rows: BTreeSet<Vec<String>> = got.rows.into_iter().collect();
        assert_eq!(got_rows, expected);
    }

    #[test]
    fn layered_program_round_trips() {
        let mut v = Vocab::new();
        let e = v.rel("E", 2);
        let a = v.rel("A", 1);
        let b = v.rel("B", 1);
        let g = v.rel("goal", 1);
        let p = Program::new(
            vec![
                Rule::new(DAtom::vars(b, &[0]), vec![pos(a, &[0])]),
                Rule::new(DAtom::vars(b, &[0]), vec![pos(e, &[0, 1])]),
                Rule::new(
                    DAtom::vars(g, &[0]),
                    vec![
                        pos(b, &[0]),
                        pos(e, &[0, 1]),
                        Literal::Neq(DTerm::Var(0), DTerm::Var(1)),
                    ],
                ),
            ],
            g,
        );
        let mut d = gomq_core::Instance::new();
        let c1 = v.constant("c1");
        let c2 = v.constant("c2");
        let c3 = v.constant("c3");
        d.insert(gomq_core::Fact::consts(a, &[c1]));
        d.insert(gomq_core::Fact::consts(e, &[c1, c2]));
        d.insert(gomq_core::Fact::consts(e, &[c3, c3]));
        crosscheck(&p, &v, &d);
    }

    #[test]
    fn goal_edb_facts_survive_translation() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let g = v.rel("goal", 1);
        let p = Program::new(vec![Rule::new(DAtom::vars(g, &[0]), vec![pos(a, &[0])])], g);
        let mut d = gomq_core::Instance::new();
        let c1 = v.constant("c1");
        let c2 = v.constant("c2");
        d.insert(gomq_core::Fact::consts(a, &[c1]));
        // An answer already present as a goal EDB fact.
        d.insert(gomq_core::Fact::consts(g, &[c2]));
        crosscheck(&p, &v, &d);
    }

    #[test]
    fn recursive_ir_is_refused_with_heads_named() {
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
        match emit_sql(&PlanIr::of(&p), &v) {
            Err(SqlEmitError::Recursive { heads }) => assert_eq!(heads, vec!["T".to_string()]),
            other => panic!("expected recursive refusal, got {other:?}"),
        }
    }

    #[test]
    fn ground_terms_and_quotes_are_escaped() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let g = v.rel("goal", 1);
        let odd = v.constant("it's");
        let p = Program::new(
            vec![Rule::new(
                DAtom {
                    rel: g,
                    args: vec![DTerm::Var(0)],
                },
                vec![
                    pos(a, &[0]),
                    Literal::Neq(DTerm::Var(0), DTerm::Ground(Term::Const(odd))),
                ],
            )],
            g,
        );
        let mut d = gomq_core::Instance::new();
        let plain = v.constant("plain");
        d.insert(gomq_core::Fact::consts(a, &[odd]));
        d.insert(gomq_core::Fact::consts(a, &[plain]));
        crosscheck(&p, &v, &d);
    }

    #[test]
    fn emitted_text_lists_required_tables() {
        let mut v = Vocab::new();
        let a = v.rel("A", 1);
        let g = v.rel("goal", 1);
        let p = Program::new(vec![Rule::new(DAtom::vars(g, &[0]), vec![pos(a, &[0])])], g);
        let plan = emit_sql(&PlanIr::of(&p), &v).unwrap();
        assert_eq!(
            plan.tables,
            vec![("A".to_string(), 1), ("goal".to_string(), 1)]
        );
        assert!(plan.sql.contains("-- requires table \"A\"(c0)"));
        assert_eq!(plan.goal_columns, 1);
    }
}
