//! Chaos harness: drives the serving stack with the deterministic
//! fault-injection layer installed (this crate builds `gomq-engine`
//! with the `chaos` feature on).
//!
//! The fault plan is process-global, so every test here serializes on
//! one mutex and uninstalls the plan before releasing it — tests must
//! never observe each other's injected faults.

use gomq_engine::faults::{self, FaultKind, FaultPlan};
use gomq_engine::scratch::ScratchDir;
use gomq_engine::{Counter, ServeConfig, ServeSession};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Serializes chaos tests (the installed plan is process-global).
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// An installed plan that uninstalls on drop, even if the test panics.
struct Installed;
impl Installed {
    fn new(plan: FaultPlan) -> Installed {
        faults::install(plan);
        Installed
    }
}
impl Drop for Installed {
    fn drop(&mut self) {
        faults::uninstall();
    }
}

fn request(i: usize) -> String {
    format!(
        r#"{{"id": "r{i}", "ontology": "C0 sub C1\nC1 sub C2\nC2 sub C3", "query": "C3", "abox": "C0(a{i})\nC0(b{i})"}}"#
    )
}

/// Statuses only — engine counters and timings vary, the injected fault
/// *schedule* must not.
fn statuses(responses: &[String]) -> Vec<String> {
    responses
        .iter()
        .map(|r| {
            for status in ["\"ok\"", "\"error\"", "\"overloaded\"", "\"quarantined\""] {
                if r.contains(&format!("\"status\": {status}")) {
                    return status.trim_matches('"').to_owned();
                }
            }
            panic!("no status in {r}")
        })
        .collect()
}

fn drive(seed: u64, n: usize) -> (Vec<String>, u64) {
    let _plan = Installed::new(FaultPlan::standard(seed));
    let mut s = ServeSession::with_config(ServeConfig {
        threads: 1,
        quarantine_after: 0, // observe the raw fault schedule
        ..ServeConfig::default()
    });
    let responses = (0..n).map(|i| s.handle_line(&request(i))).collect();
    (responses, faults::injected())
}

#[test]
fn same_seed_same_schedule() {
    let _guard = chaos_lock();
    let (a, injected_a) = drive(42, 40);
    let (b, injected_b) = drive(42, 40);
    assert_eq!(
        statuses(&a),
        statuses(&b),
        "same seed must replay identically"
    );
    assert_eq!(injected_a, injected_b);
    assert!(
        injected_a > 0,
        "the standard plan must fire within 40 requests"
    );
    // A different seed produces a different schedule (the standard plan
    // keys every draw on the seed).
    let (c, _) = drive(1337, 40);
    assert_ne!(
        statuses(&a),
        statuses(&c),
        "different seeds should diverge within 40 requests"
    );
}

#[test]
fn session_survives_the_standard_fault_plan() {
    let _guard = chaos_lock();
    let _plan = Installed::new(FaultPlan::standard(7));
    let mut s = ServeSession::with_config(ServeConfig {
        threads: 1,
        quarantine_after: 0,
        ..ServeConfig::default()
    });
    let mut oks = 0;
    let mut faulted = 0;
    for i in 0..60 {
        let resp = s.handle_line(&request(i));
        if resp.contains("\"status\": \"ok\"") {
            oks += 1;
        } else {
            faulted += 1;
            assert!(
                resp.contains("\"status\": \"error\"")
                    || resp.contains("\"status\": \"overloaded\""),
                "fault must surface as a structured response: {resp}"
            );
        }
    }
    assert!(oks > 0, "some requests must get through");
    assert!(faulted > 0, "the plan must inject within 60 requests");
    // Every isolated panic was counted, none escaped.
    let stats = s.engine().stats();
    assert!(stats[Counter::FaultsInjected] > 0);
    // With the plan gone, the session serves cleanly again.
    drop(_plan);
    let calm = s.handle_line(&request(999));
    assert!(
        calm.contains("\"status\": \"ok\""),
        "post-chaos request failed: {calm}"
    );
}

#[test]
fn eval_panics_trip_the_quarantine_breaker() {
    let _guard = chaos_lock();
    // Panic on *every* evaluation round: each request fails, so the
    // breaker must open after exactly `quarantine_after` requests.
    let _plan = Installed::new(FaultPlan::new(3).rule(faults::EVAL_ROUND, FaultKind::Panic, 1));
    let mut s = ServeSession::with_config(ServeConfig {
        threads: 1,
        quarantine_after: 2,
        ..ServeConfig::default()
    });
    let first = s.handle_line(&request(0));
    assert!(first.contains("\"status\": \"error\""), "{first}");
    assert!(first.contains("panic isolated"), "{first}");
    let second = s.handle_line(&request(1));
    assert!(second.contains("\"status\": \"error\""), "{second}");
    let third = s.handle_line(&request(2));
    assert!(
        third.contains("\"status\": \"quarantined\""),
        "breaker should be open: {third}"
    );
    assert!(third.contains("after 2 evaluation failures"), "{third}");
    let stats = s.engine().stats();
    assert_eq!(stats[Counter::BreakerTrips], 1);
    assert_eq!(stats[Counter::Quarantined], 1);
    assert_eq!(stats[Counter::Panics], 2);
    // Another OMQ compiles to a different plan key and still runs —
    // remove the plan first so its own evaluation succeeds.
    drop(_plan);
    let other = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#);
    assert!(other.contains("\"status\": \"ok\""), "{other}");
}

#[test]
fn wal_faults_poison_writes_not_queries() {
    let _guard = chaos_lock();
    let dir = ScratchDir::new("chaos-wal");
    // Every WAL write fails with a (deterministic) injected I/O error.
    let _plan = Installed::new(FaultPlan::new(11).rule(faults::WAL_WRITE, FaultKind::IoError, 1));
    let mut s = ServeSession::with_config(ServeConfig {
        threads: 1,
        data_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    });
    let refused = s.handle_line(r#"{"op": "assert", "abox": "A(x)"}"#);
    assert!(refused.contains("\"status\": \"error\""), "{refused}");
    assert!(refused.contains("persistence error"), "{refused}");
    // The journal-before-apply contract: the refused batch must NOT be
    // in the session store.
    let q = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "session": true}"#);
    assert!(q.contains("\"answers\": []"), "refused assert leaked: {q}");
    // Queries with inline ABoxes never touch the WAL and keep working.
    let inline = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "abox": "A(y)"}"#);
    assert!(inline.contains("\"status\": \"ok\""), "{inline}");
    // With the faults gone the same mutation goes through and persists.
    drop(_plan);
    let ok = s.handle_line(r#"{"op": "assert", "abox": "A(x)"}"#);
    assert!(ok.contains("\"status\": \"ok\""), "{ok}");
    let q2 = s.handle_line(r#"{"ontology": "A sub B", "query": "B", "session": true}"#);
    assert!(q2.contains(r#"[["x"]]"#), "{q2}");
}

#[test]
fn alloc_cap_surfaces_as_isolated_panic() {
    let _guard = chaos_lock();
    // A 1-byte alloc cap trips on the first interned fact.
    let _plan =
        Installed::new(FaultPlan::new(5).rule(faults::STORE_INTERN, FaultKind::AllocCap(1), 1));
    let mut s = ServeSession::with_config(ServeConfig {
        threads: 1,
        quarantine_after: 0,
        ..ServeConfig::default()
    });
    let resp = s.handle_line(&request(0));
    assert!(resp.contains("\"status\": \"error\""), "{resp}");
    assert!(resp.contains("alloc cap"), "{resp}");
    assert_eq!(s.engine().stats()[Counter::Panics], 1);
}
