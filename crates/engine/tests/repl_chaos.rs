//! Chaos-proven failover for WAL-shipped read replicas.
//!
//! A primary (`--replicate-to`) ships its journal to a follower
//! (`--follow --promote-on-disconnect`) while a TCP client drives
//! acknowledged asserts at the primary. The primary is then SIGKILLed at
//! several distinct points mid-stream. The failover contract says:
//!
//! * before the kill, the follower serves session reads with an honest
//!   per-request `"staleness"` field and refuses writes with a typed
//!   `"read-only"` status;
//! * after the kill, the follower promotes itself and answers the
//!   session query byte-identically to a fresh single node fed exactly
//!   the acknowledged asserts — nothing lost, nothing invented;
//! * certified replica reads carry certificates the standalone
//!   `gomq-cert` verifier accepts, bound to the replayed `(lsn, base)`;
//! * a resurrected old primary is fenced by the promoted node and
//!   refuses writes with a typed `"fenced"` status.
//!
//! In a `--features chaos` build the child processes run under
//! `--chaos-seed`, so the `repl.ship` / `repl.apply` fault seams inject
//! periodic I/O errors into the shipping path and the failover must
//! additionally survive mid-stream disconnect/reconnect cycles.

mod common;

use common::{answers_of, ScratchDir, Serve};
use gomq_cert::json::{self as cjson, Value};
use gomq_cert::{verify_value, Verified};
use gomq_engine::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ONTOLOGY: &str = r"Manager sub Employee\nEmployee sub Staff";

/// Extra flags shared by every node; in a chaos build the standard
/// deterministic fault plan is installed in each child, firing the
/// `repl.ship` and `repl.apply` seams.
fn node_flags() -> Vec<&'static str> {
    let mut flags = vec!["--threads", "1", "--workers", "2", "--snapshot-every", "4"];
    if cfg!(feature = "chaos") {
        flags.extend(["--chaos-seed", "20260808"]);
    }
    flags
}

/// A `gomq-serve --listen` child with its announced client address (and
/// replication address, for a primary) and a thread draining stderr
/// into a shared log, so a failing test can show what each node said.
struct Node {
    child: Child,
    addr: String,
    repl_addr: Option<String>,
    log: Arc<Mutex<String>>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Node {
    /// Spawns a node and waits for its client address — and, when
    /// `extra` carries `--replicate-to`, for the address its replication
    /// listener actually bound (pass port 0 to let the kernel pick one:
    /// no port is ever reserved and released for a later bind).
    fn spawn(dir: &Path, extra: &[&str]) -> Node {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gomq-serve"))
            .arg("--data-dir")
            .arg(dir)
            .args(["--listen", "127.0.0.1:0"])
            .args(node_flags())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn gomq-serve --listen");
        let mut lines = BufReader::new(child.stderr.take().expect("stderr piped"));
        let log = Arc::new(Mutex::new(String::new()));
        let primary = extra.contains(&"--replicate-to");
        let (mut addr, mut repl_addr) = (None, None);
        while addr.is_none() || (primary && repl_addr.is_none()) {
            let mut line = String::new();
            let read = lines.read_line(&mut line).expect("read stderr");
            assert!(
                read > 0,
                "node exited before announcing its addresses:\n{}",
                log.lock().unwrap()
            );
            log.lock().unwrap().push_str(&line);
            let line = line.trim();
            if let Some(a) = line.strip_prefix("gomq-serve: listening on ") {
                addr = Some(a.to_owned());
            } else if let Some(a) = line.strip_prefix("gomq-serve: replication listening on ") {
                repl_addr = Some(a.to_owned());
            }
        }
        // Keep draining stderr so the child can never block on a full
        // pipe (reconnect chatter under chaos is noisy).
        let sink = Arc::clone(&log);
        let drain = std::thread::spawn(move || {
            let mut line = String::new();
            while lines.read_line(&mut line).unwrap_or(0) > 0 {
                sink.lock().unwrap().push_str(&line);
                line.clear();
            }
        });
        Node {
            child,
            addr: addr.expect("loop ran until announced"),
            repl_addr,
            log,
            drain: Some(drain),
        }
    }

    /// Everything the node has written to stderr so far.
    fn log(&self) -> String {
        self.log.lock().unwrap().clone()
    }

    /// SIGKILL — no flush, no drain, the hard crash. Returns the node's
    /// complete stderr.
    fn kill(mut self) -> String {
        self.child.kill().expect("kill node");
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            drain.join().expect("stderr thread");
        }
        self.log()
    }
}

/// A node a failing test never reached `kill` for must not outlive it.
impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A line-oriented TCP client for one node.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(Instant::now() < deadline, "connect to {addr} failed: {e}");
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client {
            writer: stream,
            reader,
        }
    }

    /// Sends one request line and blocks for its response; `None` when
    /// the node closed the connection instead.
    fn try_request(&mut self, line: &str) -> Option<String> {
        if writeln!(self.writer, "{line}").is_err() {
            return None;
        }
        let _ = self.writer.flush();
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(n) if n > 0 => Some(response.trim_end().to_owned()),
            _ => None,
        }
    }

    fn request(&mut self, line: &str) -> String {
        self.try_request(line)
            .unwrap_or_else(|| panic!("node closed the connection on: {line}"))
    }
}

fn assert_line(i: usize) -> String {
    format!(r#"{{"id": "a{i}", "op": "assert", "abox": "Manager(f{i})"}}"#)
}

/// Drives one request to an `"ok"` acknowledgement, retrying typed
/// `"error"` responses: under `--chaos-seed` the WAL seams inject
/// append failures, which roll the journal back and leave the request
/// unacknowledged — exactly the case a real client retries.
fn acked(client: &mut Client, line: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let response = client.request(line);
        let obj = parse_obj(&response);
        match obj.get("status").and_then(Json::as_str) {
            Some("ok") => return response,
            Some("error") => {
                assert!(
                    Instant::now() < deadline,
                    "request never acknowledged: {response}"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            _ => panic!("unexpected response to {line}: {response}"),
        }
    }
}

fn query_line(id: &str, certificate: bool) -> String {
    let cert = if certificate {
        r#", "certificate": true"#
    } else {
        ""
    };
    format!(
        r#"{{"id": "{id}", "ontology": "{ONTOLOGY}", "query": "Staff", "session": true{cert}}}"#
    )
}

/// Parses a response into its JSON object, panicking on malformed JSON.
fn parse_obj(response: &str) -> std::collections::BTreeMap<String, Json> {
    match json::parse(response).unwrap_or_else(|e| panic!("bad JSON ({e}): {response}")) {
        Json::Obj(obj) => obj,
        other => panic!("response is not an object: {other:?}"),
    }
}

/// Checks the embedded certificate of an `"ok"` response with the
/// standalone verifier and cross-checks the verified answers against
/// the response's own `"answers"`.
fn check_certified(response: &str) -> Verified {
    let doc = cjson::parse(response).unwrap_or_else(|e| panic!("bad JSON ({e}): {response}"));
    let Value::Obj(obj) = &doc else {
        panic!("response is not an object: {response}")
    };
    assert_eq!(
        obj.get("status").and_then(Value::as_str),
        Some("ok"),
        "certified request failed: {response}"
    );
    let mut want: Vec<Vec<String>> = obj
        .get("answers")
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("no answers array in {response}"))
        .iter()
        .map(|row| {
            row.as_arr()
                .expect("answer tuple is an array")
                .iter()
                .map(|t| t.as_str().expect("answer term is a string").to_owned())
                .collect()
        })
        .collect();
    let cert = obj
        .get("certificate")
        .unwrap_or_else(|| panic!("certified response has no certificate: {response}"));
    let verified =
        verify_value(cert).unwrap_or_else(|e| panic!("certificate rejected ({e}): {response}"));
    let mut got = verified.answers.clone();
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "verified answers diverge from response answers: {response}"
    );
    verified
}

/// Polls the replica until it answers the session query with
/// `"staleness": 0` and exactly `expect_facts` Staff answers, returning
/// the caught-up response.
fn await_caught_up(client: &mut Client, expect_facts: usize) -> String {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let response = client.request(&query_line("probe", false));
        let obj = parse_obj(&response);
        if obj.get("status").and_then(Json::as_str) == Some("ok")
            && matches!(obj.get("staleness"), Some(Json::Num(n)) if *n == 0.0)
            && obj
                .get("answers")
                .and_then(Json::as_arr)
                .is_some_and(|a| a.len() == expect_facts)
        {
            return response;
        }
        assert!(
            Instant::now() < deadline,
            "replica never caught up to {expect_facts} facts: {response}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// What a failover round leaves behind: the promoted node, a client on
/// it, its data dir (removed when the round is dropped), and the
/// replication address the dead primary served on (the promoted node
/// keeps fencing that address).
struct Failover {
    replica: Node,
    reads: Client,
    _replica_dir: ScratchDir,
    repl_addr: String,
}

/// Runs the acknowledged-prefix failover round: drive `kill_after`
/// acknowledged asserts at the primary, wait for the replica to catch
/// up, SIGKILL the primary, and return the promoted node plus the
/// replica client once promotion has landed.
fn failover_round(tag: &str, kill_after: usize) -> Failover {
    let primary_dir = ScratchDir::new(&format!("repl-{tag}-primary"));
    let replica_dir = ScratchDir::new(&format!("repl-{tag}-replica"));
    let primary = Node::spawn(&primary_dir, &["--replicate-to", "127.0.0.1:0"]);
    let repl_addr = primary.repl_addr.clone().expect("primary announces");
    let replica = Node::spawn(
        &replica_dir,
        &["--follow", &repl_addr, "--promote-on-disconnect"],
    );

    let mut writes = Client::connect(&primary.addr);
    for i in 0..kill_after {
        acked(&mut writes, &assert_line(i));
    }

    // The follower refuses writes with the typed read-only status while
    // it still follows.
    let mut reads = Client::connect(&replica.addr);
    let refusal = reads.request(r#"{"id": "w", "op": "assert", "abox": "Manager(doomed)"}"#);
    let obj = parse_obj(&refusal);
    assert_eq!(
        obj.get("status").and_then(Json::as_str),
        Some("read-only"),
        "follower write was not refused as read-only: {refusal}"
    );

    await_caught_up(&mut reads, kill_after);
    let primary_log = primary.kill();

    // Promotion (reconnect window exhausted) drops the `"staleness"`
    // field from replica answers: the node is a primary now.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let response = reads.request(&query_line("promoted", false));
        let obj = parse_obj(&response);
        if obj.get("status").and_then(Json::as_str) == Some("ok") && !obj.contains_key("staleness")
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica never promoted itself: {response}\n\
             --- primary stderr ---\n{primary_log}--- replica stderr ---\n{}",
            replica.log()
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    Failover {
        replica,
        reads,
        _replica_dir: replica_dir,
        repl_addr,
    }
}

/// The oracle: a fresh single node fed exactly the acknowledged
/// asserts, answering the same session query.
fn oracle_answers(tag: &str, kill_after: usize, query: &str) -> Json {
    let dir = ScratchDir::new(&format!("repl-{tag}-oracle"));
    let mut serve = Serve::spawn(&dir, &["--threads", "1"]);
    for i in 0..kill_after {
        let response = serve.request(&assert_line(i));
        let obj = parse_obj(&response);
        assert_eq!(obj.get("status").and_then(Json::as_str), Some("ok"));
    }
    let response = serve.request(query);
    serve.finish();
    let (_, answers) = answers_of(&response).expect("oracle query answers");
    answers
}

#[test]
fn promoted_replica_serves_exactly_the_acknowledged_facts() {
    // Three distinct kill points: early (inside the first snapshot
    // window), mid-stream, and late (past a snapshot rotation).
    for (tag, kill_after) in [("k3", 3), ("k7", 7), ("k11", 11)] {
        let mut round = failover_round(tag, kill_after);
        let reads = &mut round.reads;

        let promoted = acked(reads, &query_line("final", false));
        let (_, got) = answers_of(&promoted).expect("promoted query answers");
        let want = oracle_answers(tag, kill_after, &query_line("final", false));
        assert_eq!(
            got, want,
            "promoted replica diverged from the acknowledged prefix at kill point {kill_after}"
        );

        // The promoted node accepts writes again.
        acked(reads, &assert_line(kill_after));

        round.replica.kill();
    }
}

#[test]
fn replica_reads_carry_verifiable_certificates() {
    let kill_after = 5;
    let primary_dir = ScratchDir::new("repl-cert-primary");
    let replica_dir = ScratchDir::new("repl-cert-replica");
    let primary = Node::spawn(&primary_dir, &["--replicate-to", "127.0.0.1:0"]);
    let repl_addr = primary.repl_addr.clone().expect("primary announces");
    let replica = Node::spawn(&replica_dir, &["--follow", &repl_addr]);

    let mut writes = Client::connect(&primary.addr);
    for i in 0..kill_after {
        acked(&mut writes, &assert_line(i));
    }
    let mut reads = Client::connect(&replica.addr);
    await_caught_up(&mut reads, kill_after);

    // A certified read on the *follower* verifies standalone and binds
    // to the replayed position: one WAL record and one base fact per
    // acknowledged assert.
    let certified = acked(&mut reads, &query_line("cert", true));
    let verified = check_certified(&certified);
    let snapshot = verified
        .snapshot
        .expect("replica session certificate has a snapshot binding");
    assert_eq!(
        (snapshot.lsn, snapshot.base),
        (kill_after as u64, kill_after as u64),
        "certificate binds to the wrong replayed position"
    );

    primary.kill();
    replica.kill();
}

#[test]
fn resurrected_primary_is_fenced_by_the_promoted_node() {
    let kill_after = 4;
    let mut round = failover_round("fence", kill_after);

    // The old primary comes back from an empty directory on the same
    // replication address the promoted node keeps pinging. (Its data
    // dir is gone — the fence must not depend on any local state.)
    acked(&mut round.reads, &query_line("post", false));
    let resurrected_dir = ScratchDir::new("repl-fence-resurrected");
    let resurrected = Node::spawn(&resurrected_dir, &["--replicate-to", &round.repl_addr]);

    // The promoted node's fencer pings every 250ms; the resurrected
    // primary must flip to the typed fenced refusal.
    let mut old = Client::connect(&resurrected.addr);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let Some(response) =
            old.try_request(r#"{"id": "z", "op": "assert", "abox": "Manager(zombie)"}"#)
        else {
            // The node may drop the connection while flipping roles;
            // reconnect and keep probing.
            std::thread::sleep(Duration::from_millis(100));
            old = Client::connect(&resurrected.addr);
            continue;
        };
        let obj = parse_obj(&response);
        if obj.get("status").and_then(Json::as_str) == Some("fenced") {
            assert!(
                matches!(obj.get("epoch"), Some(Json::Num(n)) if *n >= 1.0),
                "fenced refusal must carry the superseding epoch: {response}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "resurrected primary was never fenced: {response}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    resurrected.kill();
    round.replica.kill();
}
