//! `gomq-sql`: print the portable SQL rewriting of an OMQ.
//!
//! Compiles `(ontology, query)` exactly like the serving engine and
//! prints the SQL emitted from the plan's strata — one CTE per stratum, portable
//! `WITH`/`UNION`/`NOT EXISTS` dialect — so the certain-answer
//! rewriting can be carried to any SQL database. The header comments
//! list the base tables the statement expects (`-- requires table
//! ...`); load the ABox into those tables and run the statement as-is.
//!
//! A recursive rewriting cannot be expressed in this dialect; the tool
//! then prints the typed `non-rewritable-to-sql` reason to stderr and
//! exits 1 (`gomq-serve`, which always evaluates natively, still
//! answers such plans).
//!
//! ```text
//! $ gomq-sql --ontology company.dl --query Employee
//! -- certain-answer rewriting for goal "_goal" (1 columns)
//! ...
//! $ gomq-sql --ontology company.dl --query Employee --abox staff.abox --execute
//! ```

use gomq_core::parse::parse_instance;
use gomq_core::{IndexedInstance, Vocab};
use gomq_datalog::Budget;
use gomq_dl::parser::parse_ontology;
use gomq_dl::translate::to_gf;
use gomq_engine::plan::EngineError;
use gomq_engine::OmqPlan;
use gomq_rewriting::emit_sql;

const USAGE: &str = "gomq-sql — print the portable SQL rewriting of an OMQ

Usage: gomq-sql --ontology FILE --query REL [--abox FILE] [--execute]

  --ontology FILE  DL ontology axioms (same syntax as gomq-serve's
                   \"ontology\" field); \"-\" reads stdin
  --query REL      the queried relation name
  --abox FILE      ABox facts, one R(a) or R(a,b) per line; only
                   meaningful with --execute
  --execute        additionally run the emitted SQL on the in-process
                   executor over the ABox (empty without --abox) and
                   print the answer rows after the statement

The SQL goes to stdout. A recursive rewriting is refused with
\"non-rewritable-to-sql\" on stderr and exit status 1; gomq-serve
still answers such plans (from the type kernel, or a recording
materialization of the rewriting when a certificate is asked for).
";

fn usage_error(message: &str) -> ! {
    eprintln!("gomq-sql: {message}");
    eprintln!("run gomq-sql --help for usage");
    std::process::exit(2);
}

/// Resolved command line: ontology path, query relation, optional ABox
/// path, whether to execute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Cli {
    ontology: String,
    query: String,
    abox: Option<String>,
    execute: bool,
    help: bool,
}

/// Pure argument resolution, separated from `main` so the usage errors
/// are unit-testable: `Err` is the usage message to die with.
fn resolve_args(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                cli.help = true;
                return Ok(cli);
            }
            "--ontology" => match args.next() {
                Some(path) => cli.ontology = path,
                None => return Err("--ontology needs a file path".into()),
            },
            "--query" => match args.next() {
                Some(rel) => cli.query = rel,
                None => return Err("--query needs a relation name".into()),
            },
            "--abox" => match args.next() {
                Some(path) => cli.abox = Some(path),
                None => return Err("--abox needs a file path".into()),
            },
            "--execute" => cli.execute = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if cli.ontology.is_empty() {
        return Err("--ontology FILE is required".into());
    }
    if cli.query.is_empty() {
        return Err("--query REL is required".into());
    }
    if cli.abox.is_some() && !cli.execute {
        return Err("--abox is only meaningful with --execute".into());
    }
    Ok(cli)
}

fn read_input(path: &str) -> String {
    let result = if path == "-" {
        std::io::read_to_string(std::io::stdin())
    } else {
        std::fs::read_to_string(path)
    };
    match result {
        Ok(text) => text,
        Err(e) => {
            eprintln!("gomq-sql: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let cli = match resolve_args(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(message) => usage_error(&message),
    };
    if cli.help {
        print!("{USAGE}");
        return;
    }
    let text = read_input(&cli.ontology);
    let mut vocab = Vocab::new();
    let dl = match parse_ontology(&text, &mut vocab) {
        Ok(dl) => dl,
        Err(e) => {
            eprintln!("gomq-sql: cannot parse ontology: {e}");
            std::process::exit(1);
        }
    };
    let o = to_gf(&dl);
    let Some(query) = vocab.find_rel(&cli.query) else {
        eprintln!(
            "gomq-sql: query relation {:?} does not occur in the ontology",
            cli.query
        );
        std::process::exit(1);
    };
    let plan = match OmqPlan::compile(&o, query, &mut vocab) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("gomq-sql: {e}");
            std::process::exit(1);
        }
    };
    let sql = match emit_sql(&plan.strata, &vocab) {
        Ok(sql) => sql,
        Err(e) => {
            // The typed refusal: the plan's SqlEmitError itself.
            eprintln!("gomq-sql: non-rewritable-to-sql: {e}");
            eprintln!(
                "gomq-sql: (zone: {}; gomq-serve still answers this plan natively)",
                plan.report.zone
            );
            std::process::exit(1);
        }
    };
    print!("{}", sql.sql);
    if !cli.execute {
        return;
    }
    let abox_text = cli.abox.as_deref().map(read_input).unwrap_or_default();
    let abox = match parse_instance(&abox_text, &mut vocab) {
        Ok(abox) => abox,
        Err(e) => {
            eprintln!("gomq-sql: cannot parse ABox: {e}");
            std::process::exit(1);
        }
    };
    let indexed = IndexedInstance::from_interpretation(&abox);
    let answers = match gomq_engine::backend::sql::eval_sql_budgeted(
        &sql,
        &indexed,
        &vocab,
        &Budget::UNLIMITED,
    ) {
        Ok(answers) => answers,
        Err(EngineError::Overloaded(e)) => {
            eprintln!("gomq-sql: execution overloaded: {e}");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("gomq-sql: execution failed: {e}");
            std::process::exit(1);
        }
    };
    println!("-- {} answer row(s):", answers.len());
    for row in &answers {
        let cells: Vec<String> = row.iter().map(|t| t.display(&vocab).to_string()).collect();
        println!("-- ({})", cells.join(", "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> impl Iterator<Item = String> {
        items
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn full_command_line_resolves() {
        let cli = resolve_args(strs(&[
            "--ontology",
            "o.dl",
            "--query",
            "C",
            "--abox",
            "a.abox",
            "--execute",
        ]))
        .unwrap();
        assert_eq!(cli.ontology, "o.dl");
        assert_eq!(cli.query, "C");
        assert_eq!(cli.abox.as_deref(), Some("a.abox"));
        assert!(cli.execute);
    }

    #[test]
    fn missing_inputs_are_usage_errors() {
        assert_eq!(
            resolve_args(strs(&["--query", "C"])).unwrap_err(),
            "--ontology FILE is required"
        );
        assert_eq!(
            resolve_args(strs(&["--ontology", "o.dl"])).unwrap_err(),
            "--query REL is required"
        );
        assert_eq!(
            resolve_args(strs(&["--ontology"])).unwrap_err(),
            "--ontology needs a file path"
        );
        assert_eq!(
            resolve_args(strs(&[
                "--ontology",
                "o.dl",
                "--query",
                "C",
                "--frobnicate"
            ]))
            .unwrap_err(),
            "unknown argument: --frobnicate"
        );
    }

    #[test]
    fn abox_without_execute_is_refused() {
        assert_eq!(
            resolve_args(strs(&[
                "--ontology",
                "o.dl",
                "--query",
                "C",
                "--abox",
                "a.abox"
            ]))
            .unwrap_err(),
            "--abox is only meaningful with --execute"
        );
    }

    #[test]
    fn help_short_circuits_required_flags() {
        assert!(resolve_args(strs(&["--help"])).unwrap().help);
    }
}
