//! Property test of the plan cache's text memo: a long-lived session
//! that serves repeated request texts from the memo answers every line
//! exactly as a fresh session answers that line alone.
//!
//! The random stream mixes repeats and whitespace, comment and
//! axiom-order variants of a small OMQ pool with bad ontologies,
//! reserved names, arity clashes, out-of-signature queries, batches and
//! session queries, through a 3-plan cache so entries (and their
//! aliases) are evicted mid-stream. Fields that depend on history by
//! design are masked: `cached`/`cache_hit` and the timings.

use gomq_engine::{Counter, ServeConfig, ServeSession};
use proptest::prelude::*;

/// The OMQ pool over concepts `A0`..`A3` and the role `R`, each with
/// its query. Every name keeps one arity across the pool, so no line is
/// refused because of what an earlier line interned.
const POOL: [(&[&str], &str); 4] = [
    (&["A0 sub A1", "A1 sub A2"], "A2"),
    (&["A0 sub ex R.A1", "ex R.A1 sub A2"], "A2"),
    (&["A1 sub A3", "A3 sub A0"], "A0"),
    (&["A2 sub ex R.A3", "A3 sub A1", "ex R.A0 sub A3"], "A3"),
];

const ABOXES: [&str; 4] = [
    "A0(c0)",
    "A0(c0)\nR(c0,c1)\nA1(c1)",
    "A1(c2)\nA3(c3)\nR(c2,c3)",
    "",
];

/// Renders an OMQ pool entry's axioms as one of 16 texts with the same
/// meaning.
fn variant(axioms: &[&str], v: u8) -> String {
    let mut lines: Vec<String> = axioms.iter().map(|a| (*a).to_owned()).collect();
    if v & 1 != 0 {
        lines.reverse();
    }
    if v & 2 != 0 {
        lines.insert(1, String::new());
        lines[0].insert_str(0, "  ");
    }
    if v & 4 != 0 {
        lines.push("# a comment".to_owned());
    }
    if v & 8 != 0 {
        lines[0].push_str("   ");
    }
    lines.join("\n")
}

/// A JSON string literal.
fn json_str(text: &str) -> String {
    format!(
        "\"{}\"",
        text.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    )
}

/// One request line from a drawn spec.
fn line((kind, omq, v, input): (u8, u8, u8, u8)) -> String {
    // Three hot OMQs fit the 3-plan cache; the fourth, drawn rarely,
    // evicts one of them.
    let (axioms, query) = POOL[if omq < 14 { omq as usize % 3 } else { 3 }];
    let mut ontology = variant(axioms, v);
    // Mostly the pool's query; sometimes another concept, which may not
    // occur in the ontology.
    let mut query = match input {
        14 | 15 => format!("A{}", v % 4),
        _ => query.to_owned(),
    };
    match kind % 8 {
        5 => ontology.push_str("\nA0 sub sub A1"),
        6 if v % 2 == 0 => ontology.push_str("\nA0 sub _goal"),
        6 => query = "_goal".to_owned(),
        7 => ontology.push_str("\nA1 sub ex A1.A2"),
        _ => {}
    }
    let facts = match kind % 8 {
        4 => "\"session\": true".to_owned(),
        3 => format!(
            "\"aboxes\": [{}, {}]",
            json_str(ABOXES[input as usize / 4 % 4]),
            json_str(ABOXES[v as usize % 4])
        ),
        _ => format!("\"abox\": {}", json_str(ABOXES[input as usize / 4 % 4])),
    };
    format!(
        "{{\"ontology\": {}, \"query\": {}, {facts}}}",
        json_str(&ontology),
        json_str(&query)
    )
}

/// The response with every history-dependent field's value replaced.
fn masked(response: &str) -> String {
    let mut out = response.to_owned();
    for field in [
        "\"cached\": ",
        "\"cache_hit\": ",
        "\"compile_us\": ",
        "\"eval_us\": ",
    ] {
        if let Some(at) = out.find(field) {
            let from = at + field.len();
            let to = from + out[from..].find([',', '}']).expect("a value");
            out.replace_range(from..to, "_");
        }
    }
    out
}

fn config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        threads: 1,
        cache_capacity,
        // Maintained views report history by design ("maintained"); the
        // memo is about planning, so session reads recompute.
        max_views: 0,
        ..ServeConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn memo_served_stream_answers_like_fresh_sessions(
        specs in proptest::collection::vec((0u8..8, 0u8..16, 0u8..8, 0u8..16), 1..48),
    ) {
        let mut served = ServeSession::with_config(config(3));
        for &spec in &specs {
            let line = line(spec);
            let got = served.handle_line(&line);
            let want = ServeSession::with_config(config(3)).handle_line(&line);
            prop_assert_eq!(masked(&got), masked(&want), "line {}", line);
        }
        let stats = served.shared().stats();
        prop_assert!(stats[Counter::PlanTextHits] <= stats[Counter::CacheHits]);
        prop_assert_eq!(stats[Counter::Panics], 0);
    }
}

/// The stream above does reach the memo: a repeated line is a text hit.
#[test]
fn repeated_lines_are_text_hits() {
    let mut served = ServeSession::with_config(config(3));
    let spec = (0, 1, 6, 2);
    let first = served.handle_line(&line(spec));
    let again = served.handle_line(&line(spec));
    assert!(first.contains("\"status\": \"ok\""), "{first}");
    assert_eq!(masked(&first), masked(&again));
    assert_eq!(served.shared().stats()[Counter::PlanTextHits], 1);
}
