//! Golden outputs for the shipped `examples/data` OMQs.
//!
//! The files under `tests/golden/` pin, byte for byte, what `gomq-sql`
//! prints for each example OMQ (its exit status, stdout and stderr) and
//! the certificate `gomq-serve` attaches to a certified `company`
//! answer. They change only when the rewriting's text is meant to
//! change: compilation speed-ups and IDB-naming work must leave them
//! alone.

use gomq_engine::ServeSession;
use std::path::{Path, PathBuf};
use std::process::Command;

fn examples() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/data")
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Runs `gomq-sql` and renders the run as its golden file does.
fn gomq_sql(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gomq-sql"))
        .current_dir(examples())
        .args(args)
        .output()
        .expect("gomq-sql runs");
    format!(
        "exit {}\n--- stdout\n{}--- stderr\n{}",
        out.status.code().expect("gomq-sql exits"),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    )
}

#[test]
fn gomq_sql_text_matches_the_goldens() {
    let runs: [(&str, &[&str]); 4] = [
        ("org", &["--ontology", "org.dl", "--query", "Person"]),
        (
            "org-execute",
            &[
                "--ontology",
                "org.dl",
                "--query",
                "Person",
                "--abox",
                "org.facts",
                "--execute",
            ],
        ),
        (
            "company",
            &["--ontology", "company.dl", "--query", "Employee"],
        ),
        (
            "anatomy",
            &["--ontology", "anatomy.dl", "--query", "partOf"],
        ),
    ];
    for (name, args) in runs {
        assert_eq!(
            gomq_sql(args),
            golden(&format!("{name}.gomq-sql")),
            "gomq-sql output for {name} drifted"
        );
    }
}

#[test]
fn company_certificate_matches_the_golden() {
    let read = |file: &str| std::fs::read_to_string(examples().join(file)).unwrap();
    let request = format!(
        "{{\"id\": \"c\", \"ontology\": {:?}, \"query\": \"Employee\", \"abox\": {:?}, \
         \"certificate\": true}}",
        read("company.dl"),
        read("company.facts")
    );
    let response = ServeSession::with_threads(1).handle_line(&request);
    let from = response.find("\"certificate\": ").expect("a certificate") + 15;
    let to = response.find(", \"stats\": ").expect("stats follow");
    assert_eq!(
        format!("{}\n", &response[from..to]),
        golden("company.cert.json"),
        "company certificate drifted"
    );
}
