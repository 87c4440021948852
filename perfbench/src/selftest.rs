//! Self-tests of the benchmark: scripts are a pure function of the
//! seed, the oracle rejects wrong answers, and the report carries
//! exactly the metrics `BENCHMARK.json` names.

use crate::gen::{generate, Op, Workload};
use crate::json;
use crate::oracle::check_query;
use crate::report::{Report, END_TO_END, PER_LAYER};
use gomq_cert::json::Value;

fn lines(w: Workload, seed: u64) -> String {
    let s = generate(w, seed);
    let mut out = String::new();
    for r in s.setup.iter().chain(s.conns.iter().flatten()) {
        out.push_str(&r.line);
        out.push('\n');
    }
    out
}

#[test]
fn the_same_seed_yields_byte_identical_scripts() {
    for w in Workload::ALL {
        let a = lines(w, 7);
        assert_eq!(a, lines(w, 7), "{}", w.name());
        assert_ne!(a, lines(w, 8), "{}", w.name());
    }
}

/// A served response for `answers`, as `gomq-serve` renders one.
fn response(answers: &[Vec<String>]) -> Value {
    let rows: Vec<String> = answers
        .iter()
        .map(|t| {
            format!(
                "[{}]",
                t.iter()
                    .map(|c| format!("\"{c}\""))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
        .collect();
    json::parse(&format!(
        "{{\"status\": \"ok\", \"answers\": [{}]}}",
        rows.join(", ")
    ))
    .expect("well-formed")
}

#[test]
fn the_oracle_rejects_a_planted_wrong_answer() {
    let script = generate(Workload::HotSmall, 3);
    let (r, expected) = script.conns[0]
        .iter()
        .find_map(|r| match &r.op {
            Op::Query {
                omq,
                aboxes,
                certificate: false,
                ..
            } => {
                let e = script.oracle.answers(*omq, &aboxes[0]);
                (e.len() >= 2).then_some((r, e))
            }
            _ => None,
        })
        .expect("some query has two answers");
    let right: Vec<Vec<String>> = expected.iter().cloned().collect();
    assert!(check_query(&r.op, &response(&right), &[&expected]).is_ok());
    let missing = &right[1..];
    assert!(check_query(&r.op, &response(missing), &[&expected]).is_err());
    let mut extra = right.clone();
    extra.push(vec!["planted".into()]);
    assert!(check_query(&r.op, &response(&extra), &[&expected]).is_err());
}

#[test]
fn the_oracle_rejects_a_tampered_certificate() {
    let script = generate(Workload::HotSmall, 3);
    let mut served = gomq_engine::ServeSession::new();
    let (r, expected) = script.conns[0]
        .iter()
        .find_map(|r| match &r.op {
            Op::Query {
                omq,
                aboxes,
                certificate: true,
                ..
            } => Some((r, script.oracle.answers(*omq, &aboxes[0]))),
            _ => None,
        })
        .expect("some query is certified");
    let mut resp = json::parse(&served.handle_line(&r.line)).expect("well-formed");
    assert!(check_query(&r.op, &resp, &[&expected]).is_ok());
    let Value::Obj(obj) = &mut resp else {
        panic!("an object")
    };
    let Some(Value::Obj(cert)) = obj.get_mut("certificate") else {
        panic!("a certificate")
    };
    cert.insert("v".into(), Value::Num(99.0));
    assert!(check_query(&r.op, &resp, &[&expected]).is_err());
}

/// The names under `key` in `BENCHMARK.json`.
fn benchmark_names(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.as_obj()
        .and_then(|o| o.get(key))
        .and_then(Value::as_arr)
        .expect("a list")
        .iter()
        .map(|m| {
            m.as_obj()
                .and_then(|o| o.get("name"))
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

#[test]
fn the_metric_lists_match_benchmark_json() {
    assert_eq!(benchmark_names("end_to_end"), END_TO_END);
    assert_eq!(benchmark_names("per_layer"), PER_LAYER);
}

#[test]
fn the_report_parses_with_every_named_metric() {
    for (names, extra) in [
        (&END_TO_END[..], "failed_frac"),
        (&PER_LAYER[..], "self.json_ms"),
    ] {
        let mut report = Report::new(10, 0, Vec::new());
        for (i, name) in names.iter().chain([&extra]).enumerate() {
            report.metric(name, 1.0 + i as f64 / 7.0, "ms");
        }
        let doc = json::parse(&report.json()).expect("the JSON line parses");
        let obj = doc.as_obj().expect("an object");
        assert_eq!(obj.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(obj.get("attempted").and_then(Value::as_u64), Some(10));
        assert_eq!(obj.get("failed").and_then(Value::as_u64), Some(0));
        let metrics = obj.get("metrics").and_then(Value::as_obj).expect("metrics");
        let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want = names.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        for m in metrics.values() {
            let m = m.as_obj().expect("a metric object");
            assert!(matches!(m.get("value"), Some(Value::Num(_))));
            assert!(m.get("unit").and_then(Value::as_str).is_some());
        }
    }
}
