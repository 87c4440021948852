//! Graceful-drain equivalence for `gomq-serve --listen`.
//!
//! K concurrent TCP connections pipeline session asserts at the server,
//! and SIGTERM lands while they are in flight. The drain contract says:
//! (a) every request the clients sent is still answered before the
//! server closes the connections and exits, and (b) the shutdown cuts a
//! final snapshot, so a restart over the same `--data-dir` serves the
//! exact same session store — judged byte-identically across two
//! independent restarts, and against the statically known fact set.

mod common;

use common::{answers_of, ScratchDir, Serve};
use gomq_engine::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const ONTOLOGY: &str = r"Manager sub Employee\nEmployee sub Staff";
const CONNS: usize = 4;
const ASSERTS_PER_CONN: usize = 5;

/// A `gomq-serve --listen` child plus its resolved ephemeral address
/// and a thread collecting its stderr.
struct Listener {
    child: Child,
    addr: String,
    stderr: std::thread::JoinHandle<String>,
}

fn spawn_listener(dir: &std::path::Path) -> Listener {
    let mut child = Command::new(env!("CARGO_BIN_EXE_gomq-serve"))
        .arg("--data-dir")
        .arg(dir)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--workers",
            "2",
            "--drain-timeout-ms",
            "10000",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn gomq-serve --listen");
    let mut lines = BufReader::new(child.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert!(
            lines.read_line(&mut line).expect("read stderr") > 0,
            "server exited before announcing its address"
        );
        if let Some(addr) = line.trim().strip_prefix("gomq-serve: listening on ") {
            break addr.to_owned();
        }
    };
    // Keep draining stderr so the child can never block on a full pipe;
    // the collected text carries the drain summary we assert on.
    let stderr = std::thread::spawn(move || {
        let mut rest = String::new();
        let mut line = String::new();
        while lines.read_line(&mut line).unwrap_or(0) > 0 {
            rest.push_str(&line);
            line.clear();
        }
        rest
    });
    Listener {
        child,
        addr,
        stderr,
    }
}

fn sigterm(child: &Child) {
    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");
}

/// The constant asserted by connection `c`'s request `i`.
fn fact_const(c: usize, i: usize) -> String {
    format!("w{c}x{i}")
}

fn session_query(id: &str) -> String {
    format!(r#"{{"id": "{id}", "ontology": "{ONTOLOGY}", "query": "Staff", "session": true}}"#)
}

/// Flattens a query's `"answers"` (an array of tuples) into a sorted
/// list of constants for set comparison.
fn constants_of(answers: &Json) -> Vec<String> {
    let mut constants: Vec<String> = answers
        .as_arr()
        .expect("answers is an array")
        .iter()
        .map(|tuple| {
            let tuple = tuple.as_arr().expect("answer tuple");
            assert_eq!(tuple.len(), 1, "Staff is unary");
            tuple[0].as_str().expect("constant").to_owned()
        })
        .collect();
    constants.sort();
    constants
}

#[test]
fn sigterm_mid_load_answers_in_flight_and_recovers_identically() {
    let dir = ScratchDir::new("net-drain");

    // Phase 1: K connections pipeline their asserts without reading a
    // single response, so SIGTERM lands with requests in flight at
    // every stage: unread in socket buffers, waiting at the admission
    // gate, and executing.
    let listener = spawn_listener(&dir);
    let mut conns: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(&listener.addr).expect("connect"))
        .collect();
    for (c, conn) in conns.iter_mut().enumerate() {
        for i in 0..ASSERTS_PER_CONN {
            let line = format!(
                r#"{{"id": "a{c}-{i}", "op": "assert", "abox": "Manager({})"}}"#,
                fact_const(c, i)
            );
            writeln!(conn, "{line}").expect("send assert");
        }
        conn.flush().expect("flush asserts");
    }
    std::thread::sleep(std::time::Duration::from_millis(150));
    sigterm(&listener.child);

    // (a) Every pipelined request is answered, in order, then the
    // server closes the connection.
    for (c, conn) in conns.into_iter().enumerate() {
        let mut lines = BufReader::new(conn);
        for i in 0..ASSERTS_PER_CONN {
            let mut response = String::new();
            assert!(
                lines.read_line(&mut response).expect("read response") > 0,
                "conn {c}: response {i} lost in the drain"
            );
            let parsed = json::parse(response.trim_end()).expect("response parses");
            let Json::Obj(obj) = parsed else {
                panic!("conn {c}: response {i} is not an object")
            };
            assert_eq!(
                obj.get("status").and_then(Json::as_str),
                Some("ok"),
                "conn {c}: assert {i} failed: {response}"
            );
            assert_eq!(
                obj.get("id").and_then(Json::as_str),
                Some(format!("a{c}-{i}").as_str()),
                "conn {c}: response {i} out of order: {response}"
            );
        }
        let mut eof = String::new();
        assert_eq!(
            lines.read_line(&mut eof).expect("read eof"),
            0,
            "conn {c}: expected EOF after drain, got {eof}"
        );
    }
    let mut child = listener.child;
    let status = child.wait().expect("wait for drained server");
    assert!(status.success(), "drained server exited with {status}");
    let stderr = listener.stderr.join().expect("stderr thread");
    assert!(
        stderr.contains("final snapshot cut"),
        "drain summary missing the final snapshot: {stderr}"
    );

    // (b) Two independent restarts over the same --data-dir answer the
    // session query byte-identically, and the store holds exactly the
    // acknowledged facts.
    let mut restart = Serve::spawn(&dir, &["--threads", "1"]);
    let first = restart.request(&session_query("q-restart-1"));
    restart.finish();
    let mut restart = Serve::spawn(&dir, &["--threads", "1"]);
    let second = restart.request(&session_query("q-restart-2"));
    restart.finish();

    let (_, first_answers) = answers_of(&first).expect("first restart answers");
    let (_, second_answers) = answers_of(&second).expect("second restart answers");
    assert_eq!(
        first_answers, second_answers,
        "restarts over the same data dir diverged"
    );
    let mut expected: Vec<String> = (0..CONNS)
        .flat_map(|c| (0..ASSERTS_PER_CONN).map(move |i| fact_const(c, i)))
        .collect();
    expected.sort();
    assert_eq!(
        constants_of(&first_answers),
        expected,
        "recovered store does not hold exactly the acknowledged facts"
    );
}
