//! Stress tests for the hardened serving path: single-flight plan
//! compilation under thread contention, LRU capacity bounds, budget
//! exhaustion, panic isolation, and the E16 adversarial request stream
//! (see EXPERIMENTS.md) — all through the public `ServeSession` JSONL
//! surface.

use gomq_engine::cache::PlanCache;
use gomq_engine::{Counter, Engine, Limits, ServeConfig, ServeSession, ServeShared};
use std::sync::Arc;
use std::thread;

fn request(id: &str, ontology: &str, query: &str, abox: &str) -> String {
    format!(
        r#"{{"id": "{id}", "ontology": "{}", "query": "{query}", "abox": "{}"}}"#,
        ontology.replace('\n', "\\n"),
        abox.replace('\n', "\\n"),
    )
}

/// N threads hammer one shared engine with the same small set of OMQs:
/// every distinct OMQ compiles exactly once (single flight), everything
/// else is a verified cache hit, and every response is correct.
#[test]
fn concurrent_sessions_compile_each_omq_once() {
    const THREADS: usize = 8;
    const ITERS: usize = 5;
    const OMQS: usize = 4;
    let shared = Arc::new(ServeShared::with_config(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                let mut session = ServeSession::with_shared(shared);
                for iter in 0..ITERS {
                    for omq in 0..OMQS {
                        let ontology = format!("K{omq}A sub K{omq}B\nK{omq}B sub K{omq}C");
                        let abox = format!("K{omq}A(t{t}i{iter})");
                        let resp = session.handle_line(&request(
                            &format!("t{t}-{iter}-{omq}"),
                            &ontology,
                            &format!("K{omq}C"),
                            &abox,
                        ));
                        assert!(
                            resp.contains("\"status\": \"ok\""),
                            "thread {t} iter {iter} omq {omq}: {resp}"
                        );
                        assert!(
                            resp.contains(&format!(r#"[["t{t}i{iter}"]]"#)),
                            "wrong answers: {resp}"
                        );
                    }
                }
            });
        }
    });
    let stats = shared.engine().stats();
    let lookups = (THREADS * ITERS * OMQS) as u64;
    assert_eq!(
        stats[Counter::CacheMisses],
        OMQS as u64,
        "one compile per OMQ"
    );
    assert_eq!(stats[Counter::CacheHits], lookups - OMQS as u64);
    assert_eq!(stats[Counter::CacheSize], OMQS as u64);
    assert_eq!(stats[Counter::Requests], lookups);
    assert_eq!(stats[Counter::Overloaded], 0);
    assert_eq!(stats[Counter::Panics], 0);
}

/// Threads posing one OMQ in several texts share one compile: a text is
/// parsed until some request has planned it, then served from the text
/// memo, and every thread gets the same answers.
#[test]
fn concurrent_text_variants_compile_once() {
    const THREADS: usize = 8;
    const ITERS: usize = 10;
    const VARIANTS: [&str; 4] = [
        "V0 sub V1\nV1 sub V2",
        "V1 sub V2\nV0 sub V1",
        "  V0 sub V1 \n\nV1 sub V2",
        "# a comment\nV0 sub V1\nV1 sub V2",
    ];
    let shared = Arc::new(ServeShared::with_config(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let shared = Arc::clone(&shared);
            scope.spawn(move || {
                let mut session = ServeSession::with_shared(shared);
                for iter in 0..ITERS {
                    let ontology = VARIANTS[(t + iter) % VARIANTS.len()];
                    let id = format!("t{t}-{iter}");
                    let resp = session.handle_line(&request(&id, ontology, "V2", "V0(a)\nV1(b)"));
                    assert!(
                        resp.contains(r#""status": "ok""#) && resp.contains(r#"[["a"], ["b"]]"#),
                        "thread {t} iter {iter}: {resp}"
                    );
                }
            });
        }
    });
    let stats = shared.engine().stats();
    let lookups = (THREADS * ITERS) as u64;
    assert_eq!(stats[Counter::CacheMisses], 1, "one compile for every text");
    assert_eq!(stats[Counter::CacheHits], lookups - 1);
    // Only requests that raced a text's first plan parsed it again.
    let parsed = (VARIANTS.len() * THREADS) as u64;
    assert!(
        stats[Counter::PlanTextHits] >= lookups - parsed,
        "stats: {stats:?}"
    );
    assert_eq!(shared.engine().cache().aliases(), VARIANTS.len());
}

/// A capacity-2 cache serving four OMQs never grows past its cap and
/// keeps answering correctly through evictions and recompiles.
#[test]
fn lru_cache_stays_bounded_across_requests() {
    let mut session = ServeSession::with_config(ServeConfig {
        threads: 1,
        cache_capacity: 2,
        ..ServeConfig::default()
    });
    for round in 0..3 {
        for omq in 0..4 {
            let ontology = format!("L{omq}A sub L{omq}B");
            let resp = session.handle_line(&request(
                &format!("r{round}-{omq}"),
                &ontology,
                &format!("L{omq}B"),
                &format!("L{omq}A(c{round})"),
            ));
            assert!(resp.contains("\"status\": \"ok\""), "{resp}");
            assert!(resp.contains(&format!(r#"[["c{round}"]]"#)), "{resp}");
            assert!(session.engine().cache().len() <= 2, "cache over capacity");
        }
    }
    let stats = session.engine().stats();
    assert!(stats[Counter::CacheSize] <= 2);
    assert!(stats[Counter::CacheEvictions] >= 2, "stats: {stats:?}");
    // Cycling through 4 OMQs with room for 2 forces recompiles.
    assert!(stats[Counter::CacheMisses] > 4, "stats: {stats:?}");
}

/// A budget-exhausted request answers "overloaded" and leaves the
/// session fully serviceable — including for the very same OMQ.
#[test]
fn exhausted_budgets_leave_the_session_healthy() {
    let mut session = ServeSession::with_threads(2);
    let chain = (0..10)
        .map(|i| format!("C{i} sub C{}\n", i + 1))
        .collect::<String>();
    let big_abox = (0..100).map(|i| format!("C0(x{i})\n")).collect::<String>();
    let mut blow = request("blow", &chain, "C10", &big_abox);
    blow.truncate(blow.len() - 1);
    blow.push_str(r#", "limits": {"max_derived": 5}}"#);
    let resp = session.handle_line(&blow);
    assert!(resp.contains("\"status\": \"overloaded\""), "{resp}");
    assert!(resp.contains("\"limit\": \"derived\""), "{resp}");

    let mut timed = request("timed", &chain, "C10", "C0(y)");
    timed.truncate(timed.len() - 1);
    timed.push_str(r#", "limits": {"timeout_ms": 0}}"#);
    let resp = session.handle_line(&timed);
    assert!(resp.contains("\"status\": \"overloaded\""), "{resp}");
    assert!(resp.contains("\"limit\": \"deadline\""), "{resp}");

    // Unlimited retry of the same OMQ (already cached) succeeds.
    let resp = session.handle_line(&request("ok", &chain, "C10", "C0(z)"));
    assert!(resp.contains("\"status\": \"ok\""), "{resp}");
    assert!(resp.contains(r#"[["z"]]"#), "{resp}");
    let stats = session.engine().stats();
    assert_eq!(stats[Counter::Overloaded], 2);
    assert_eq!(
        stats[Counter::CacheMisses],
        1,
        "one compile covers all three"
    );
}

/// The E16 adversarial stream: a forced-collision cache (every OMQ
/// hashes to the same bucket), a non-rewritable OMQ, a budget-blowing
/// ABox, an arity-clashing ontology and a panicking input — interleaved
/// with good requests. Every line gets a structured response, later
/// answers stay correct, and the cache never exceeds its cap.
#[test]
fn adversarial_stream_is_fully_survivable() {
    /// Collides every OMQ, and panics on one ontology — a stand-in for
    /// a bug on the request path.
    fn colliding(text: &str) -> u64 {
        assert!(!text.contains("Boom"), "hasher tripped");
        0x42
    }
    let engine = Engine::with_cache(2, PlanCache::with_capacity_and_hasher(2, colliding));
    let shared = Arc::new(ServeShared::with_engine(engine, Limits::default()));
    let mut session = ServeSession::with_shared(Arc::clone(&shared));

    // A 21-concept cycle: its closure needs more than 20 bits, which the
    // element-type construction rejects — a protocol-reachable
    // non-rewritable OMQ.
    let big_cycle = (0..21)
        .map(|i| format!("A{i} sub A{}\n", (i + 1) % 21))
        .collect::<String>();
    let chain = (0..10)
        .map(|i| format!("C{i} sub C{}\n", i + 1))
        .collect::<String>();
    let big_abox = (0..100).map(|i| format!("C0(x{i})\n")).collect::<String>();
    let mut blow = request("blow", &chain, "C10", &big_abox);
    blow.truncate(blow.len() - 1);
    blow.push_str(r#", "limits": {"max_derived": 5}}"#);

    let stream: Vec<(String, &str)> = vec![
        // Two different OMQs that collide in the hash: the full-text
        // check must keep their plans apart.
        (request("c1", "P sub Q", "Q", "P(p)"), r#"[["p"]]"#),
        (request("c2", "X sub Y", "Y", "X(x)"), r#"[["x"]]"#),
        // Non-rewritable: structured error, negatively cached.
        (
            request("nr", &big_cycle, "A0", "A0(a)"),
            "not element-type rewritable",
        ),
        // Budget blowup.
        (blow, "\"status\": \"overloaded\""),
        // Arity clash on R inside the DL parser: a typed refusal.
        (
            request("clash", "A sub ex R.A\nR sub B", "B", ""),
            "bad request: ontology: line 2",
        ),
        // Panicking input.
        (request("boom", "A sub Boom", "Boom", ""), "panic isolated"),
        // The same colliding OMQs again: still correct, now cache hits
        // (or clean recompiles after eviction, never wrong answers).
        (request("c1b", "P sub Q", "Q", "P(pp)"), r#"[["pp"]]"#),
        (request("c2b", "X sub Y", "Y", "X(xx)"), r#"[["xx"]]"#),
        // The non-rewritable OMQ again: the cached failure replays.
        (
            request("nrb", &big_cycle, "A0", "A0(a)"),
            "not element-type rewritable",
        ),
        // And a fresh good request to close the stream.
        (request("end", "M sub N", "N", "M(m)"), r#"[["m"]]"#),
    ];
    for (line, expect) in &stream {
        let resp = session.handle_line(line);
        assert!(resp.contains(expect), "expected {expect:?} in {resp}");
        assert!(
            resp.contains("\"status\": "),
            "unstructured response: {resp}"
        );
        assert!(
            session.engine().cache().len() <= 2,
            "cache exceeded its cap mid-stream"
        );
    }
    let stats = shared.engine().stats();
    assert!(stats[Counter::Panics] >= 1, "stats: {stats:?}");
    assert!(stats[Counter::Overloaded] >= 1, "stats: {stats:?}");
    assert!(stats[Counter::CacheSize] <= 2, "stats: {stats:?}");
}

/// SplitMix64: every run draws the same requests.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Request lines whose ABoxes share the constants `x`, `y`, `z` and
/// `w`, named in every order, over two OMQs: single ABoxes, batches,
/// certified ABoxes, and `y`-before-`x` texts padded with filler facts
/// so they stay in flight while shorter requests run.
fn overlapping_lines(seed: u64) -> Vec<String> {
    const OMQS: [(&str, &str); 2] = [("A sub B", "B"), ("A sub B\\nex R.B sub D", "D")];
    const NAMES: [&str; 4] = ["x", "y", "z", "w"];
    let mut rng = seed;
    let abox = |rng: &mut u64| {
        let facts = 1 + splitmix(rng) % 6;
        (0..facts)
            .map(|_| {
                let a = NAMES[splitmix(rng) as usize % 4];
                let b = NAMES[splitmix(rng) as usize % 4];
                match splitmix(rng) % 3 {
                    0 => format!("R({a}, {b})"),
                    1 => format!("B({a})"),
                    _ => format!("A({a})"),
                }
            })
            .collect::<Vec<_>>()
            .join("\\n")
    };
    let mut lines: Vec<String> = (0..40)
        .map(|i| {
            let (ontology, query) = OMQS[i % 2];
            let facts = match i % 5 {
                0 => format!(r#""aboxes": ["{}", "{}"]"#, abox(&mut rng), abox(&mut rng)),
                1 => format!(r#""abox": "{}", "certificate": true"#, abox(&mut rng)),
                _ => format!(r#""abox": "{}""#, abox(&mut rng)),
            };
            format!(r#"{{"ontology": "{ontology}", "query": "{query}", {facts}}}"#)
        })
        .collect();
    for (ontology, query) in OMQS {
        let fillers: String = (0..300).map(|i| format!("\\nA(f{i})")).collect();
        lines.push(format!(
            r#"{{"ontology": "{ontology}", "query": "{query}", "abox": "A(y){fillers}\nR(x, y)\nA(x)"}}"#
        ));
        lines.push(format!(
            r#"{{"ontology": "{ontology}", "query": "{query}", "abox": "A(x)\nA(y)"}}"#
        ));
    }
    lines
}

/// The response with the fields that depend on history or timing by
/// design masked.
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

/// Concurrent requests over overlapping constants answer exactly as a
/// fresh session answers each line alone: a request's constants are its
/// own, so neither the order of its answers nor its certificate depends
/// on the requests served beside it.
#[test]
fn concurrent_requests_answer_like_fresh_sessions() {
    const THREADS: usize = 4;
    const ITERS: usize = 150;
    let lines = overlapping_lines(7);
    let fresh: Vec<String> = lines
        .iter()
        .map(|line| {
            let resp = ServeSession::with_threads(1).handle_line(line);
            assert!(resp.contains("\"status\": \"ok\""), "{line}: {resp}");
            masked(&resp)
        })
        .collect();
    let shared = Arc::new(ServeShared::with_config(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    }));
    thread::scope(|scope| {
        for t in 0..THREADS {
            let (shared, lines, fresh) = (Arc::clone(&shared), &lines, &fresh);
            scope.spawn(move || {
                let mut session = ServeSession::with_shared(shared);
                let mut rng = t as u64;
                for _ in 0..ITERS {
                    // Every other request is one of the four
                    // `x`/`y`-ordered lines at the end of the pool.
                    let pick = splitmix(&mut rng) as usize;
                    let i = match pick % 2 {
                        0 => lines.len() - 1 - pick / 2 % 4,
                        _ => pick / 2 % lines.len(),
                    };
                    let got = masked(&session.handle_line(&lines[i]));
                    assert_eq!(got, fresh[i], "thread {t}, line {}", lines[i]);
                }
            });
        }
    });
    let stats = shared.stats();
    assert_eq!(stats[Counter::Panics], 0);
    assert_eq!(
        stats[Counter::VocabConstants],
        0,
        "request constants stayed out"
    );
}
