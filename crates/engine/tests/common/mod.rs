//! Shared driver for integration tests that spawn the `gomq-serve`
//! binary: a request-by-request stdin-mode harness and the response
//! comparison helpers the recovery tests judge equivalence with.
//!
//! Each integration test compiles this module independently, so not
//! every test uses every helper.
#![allow(dead_code)]

use gomq_engine::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory for a `--data-dir`, unique per call (pid
/// plus a process-wide counter), so parallel tests using the same tag
/// never share — or delete — each other's directories.
pub fn tmpdir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("gomq-chaos-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running stdin-mode `gomq-serve` driven one acknowledged request at
/// a time.
pub struct Serve {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    /// Spawns `gomq-serve --data-dir <dir> <extra...>` with piped
    /// stdin/stdout.
    pub fn spawn(dir: &Path, extra: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_gomq-serve"))
            .arg("--data-dir")
            .arg(dir)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn gomq-serve");
        let stdin = child.stdin.take().expect("stdin piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        Serve {
            child,
            stdin,
            stdout,
        }
    }

    /// Sends one request line and blocks for its response — the request
    /// is *acknowledged* once this returns, so a later kill must not
    /// lose its effect.
    pub fn request(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("write request");
        self.stdin.flush().expect("flush request");
        let mut response = String::new();
        self.stdout.read_line(&mut response).expect("read response");
        assert!(!response.is_empty(), "server died before responding");
        response.trim_end().to_owned()
    }

    /// SIGKILL — no flush, no shutdown hook, the hard crash.
    pub fn kill(mut self) {
        self.child.kill().expect("kill gomq-serve");
        let _ = self.child.wait();
    }

    /// Orderly EOF shutdown.
    pub fn finish(self) {
        drop(self.stdin);
        let mut child = self.child;
        let _ = child.wait();
    }
}

/// Extracts `(id, answers)` from a query response; `None` for mutation
/// acknowledgements. Engine counters and cache flags legitimately
/// differ across restarts, so equivalence is judged on answers alone.
pub fn answers_of(response: &str) -> Option<(String, Json)> {
    let parsed = json::parse(response).unwrap_or_else(|e| panic!("bad JSON ({e}): {response}"));
    let Json::Obj(obj) = parsed else {
        panic!("response is not an object: {response}")
    };
    assert_eq!(
        obj.get("status").and_then(Json::as_str),
        Some("ok"),
        "unexpected failure response: {response}"
    );
    let id = obj.get("id").and_then(Json::as_str)?.to_owned();
    Some((id, obj.get("answers").cloned().expect("query has answers")))
}
