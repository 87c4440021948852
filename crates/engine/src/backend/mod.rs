//! Executors over the shared plan IR.
//!
//! A plan's [`LazyStrata`](crate::plan::LazyStrata) lowers its
//! rewriting to a [`gomq_datalog::ir::PlanIr`] — a stratified rule
//! graph annotated with recursion and `≠` information — on the first
//! read that needs it, and both modules consume that one IR:
//!
//! * [`native`] — the in-process semi-naive fixpoint engine (indexed,
//!   parallel, budgeted). Runs every plan, recursive or not. It is not
//!   the served answer path: uncertified answers come from the plan's
//!   type kernel, and certificates and maintained session reads from
//!   materializations of the rewriting (`gomq_datalog::Materialization`).
//! * [`sql`] — executes the portable SQL emitted by
//!   `gomq_rewriting::emit_sql` against the zero-dependency
//!   `gomq-sqlexec` table model: the oracle `tests/sql_crosscheck.rs`
//!   checks the native engine against, and `gomq-sql --execute`. Only
//!   non-recursive plans (the
//!   [`Rewritability::FirstOrder`](gomq_datalog::ir::Rewritability)
//!   tier) are SQL-expressible; recursive plans carry a typed
//!   [`SqlEmitError::Recursive`](gomq_rewriting::SqlEmitError) instead
//!   of SQL text, never a wrong answer.

pub mod native;
pub mod sql;
