//! The SQL backend: executing a plan's emitted SQL in-process.
//!
//! `gomq_rewriting::emit_sql` lowers a non-recursive plan's strata to
//! portable SQL text on demand; this module runs that text against an
//! ABox using the dependency-free
//! `gomq-sqlexec` reference executor. The pipeline is deliberately
//! different from the native fixpoint at every layer — emitted text
//! instead of rule structs, string tables instead of interned term
//! arenas, nested-loop SQL evaluation instead of semi-naive rounds —
//! which is exactly what makes the native ≡ SQL cross-check in
//! `tests/sql_crosscheck.rs` meaningful.
//!
//! Recursive plans never reach this module: their emission yields a
//! typed [`SqlEmitError::Recursive`](gomq_rewriting::SqlEmitError)
//! instead of SQL text, so the SQL path refuses rather than
//! under-approximates.

use crate::plan::EngineError;
use gomq_core::{IndexedInstance, Term, Vocab};
use gomq_datalog::{Budget, BudgetExceeded, LimitKind};
use gomq_rewriting::SqlPlan;
use gomq_sqlexec::{run, Database, Limits, SqlError};
use std::collections::{BTreeMap, BTreeSet};

/// Executes an emitted SQL plan over one ABox and maps the string rows
/// back to interned terms.
///
/// The ABox is rendered into a fresh string-valued [`Database`] (every
/// required table from [`SqlPlan::tables`] is created, empty or not),
/// the statement runs under the request budget (`max_derived` caps
/// materialized rows, the deadline is checked cooperatively), and each
/// answer value is resolved back through the terms seen while building
/// the database — falling back to the vocabulary for ground literals
/// baked into rules.
pub fn eval_sql_budgeted(
    sql: &SqlPlan,
    abox: &IndexedInstance,
    vocab: &Vocab,
    budget: &Budget,
) -> Result<BTreeSet<Vec<Term>>, EngineError> {
    let mut db = Database::new();
    for (name, arity) in &sql.tables {
        db.create(name, *arity);
    }
    let mut values: BTreeMap<String, Term> = BTreeMap::new();
    for f in abox.iter() {
        let name = vocab.rel_name(f.rel).to_string();
        let row: Vec<String> = f
            .args
            .iter()
            .map(|t| {
                let s = t.display(vocab).to_string();
                values.entry(s.clone()).or_insert(*t);
                s
            })
            .collect();
        db.create(&name, row.len()).insert(row);
    }
    let limits = Limits {
        max_rows: budget.max_derived,
        deadline: budget.deadline,
    };
    let result = run(&sql.sql, &db, &limits).map_err(|e| match e {
        SqlError::RowLimit(n) => EngineError::Overloaded(BudgetExceeded {
            limit: LimitKind::Derived,
            rounds: 0,
            derived: n,
        }),
        SqlError::Deadline => EngineError::Overloaded(BudgetExceeded {
            limit: LimitKind::Deadline,
            rounds: 0,
            derived: 0,
        }),
        other => EngineError::Internal(format!("SQL backend: {other}")),
    })?;
    result
        .rows
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|v| {
                    values
                        .get(&v)
                        .copied()
                        .or_else(|| vocab.find_constant(&v).map(Term::Const))
                        .ok_or_else(|| {
                            EngineError::Internal(format!(
                                "SQL answer value {v:?} is not a known constant"
                            ))
                        })
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::OmqPlan;
    use gomq_core::parse::parse_instance;
    use gomq_dl::parser::parse_ontology;
    use gomq_dl::translate::to_gf;

    /// A pure concept hierarchy compiles to a non-recursive plan whose
    /// SQL execution matches the native answers.
    #[test]
    fn hierarchy_plan_runs_on_both_backends() {
        let mut v = Vocab::new();
        let dl = parse_ontology("A sub B\nB sub C\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let c = v.find_rel("C").unwrap();
        let plan = OmqPlan::compile(&o, c, &mut v).unwrap();
        let sql = gomq_rewriting::emit_sql(&plan.strata, &v).expect("hierarchy plans are acyclic");
        let abox = parse_instance("A(x)\nC(y)\n", &mut v).unwrap();
        let indexed = IndexedInstance::from_interpretation(&abox);
        let got = eval_sql_budgeted(&sql, &indexed, &v, &Budget::UNLIMITED).unwrap();
        let (native, _) =
            crate::backend::native::eval_strata(&plan.strata, plan.program.goal, &indexed, 1);
        assert_eq!(got, native);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn row_budget_maps_to_overloaded() {
        let mut v = Vocab::new();
        let dl = parse_ontology("A sub B\n", &mut v).unwrap();
        let o = to_gf(&dl);
        let b = v.find_rel("B").unwrap();
        let plan = OmqPlan::compile(&o, b, &mut v).unwrap();
        let sql = gomq_rewriting::emit_sql(&plan.strata, &v).expect("acyclic");
        let mut text = String::new();
        for i in 0..64 {
            text.push_str(&format!("A(x{i})\n"));
        }
        let abox = parse_instance(&text, &mut v).unwrap();
        let indexed = IndexedInstance::from_interpretation(&abox);
        let budget = Budget {
            max_derived: Some(3),
            ..Budget::UNLIMITED
        };
        match eval_sql_budgeted(&sql, &indexed, &v, &budget) {
            Err(EngineError::Overloaded(e)) => assert_eq!(e.limit, LimitKind::Derived),
            other => panic!("expected overloaded, got {other:?}"),
        }
    }
}
