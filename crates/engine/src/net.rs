//! The TCP serving front end: a multi-connection JSONL listener over
//! the same request core as stdin mode.
//!
//! ## Architecture
//!
//! ```text
//!   accept loop (blocking accept) ◄── waker thread: polls the DrainToken,
//!          │                          self-connects once when it trips
//!          │  admission: global + per-IP connection caps
//!          ▼
//!   one thread per connection, each a ServeSession over one shared
//!   Arc<ServeShared> (plan cache, vocab, durable session)
//!     capped JSONL framing (CappedLineReader,   handle_connection
//!     read-timeout ticks → drain/idle checks)   (crate::serve)
//!          │ each request passes
//!          ▼
//!   admission gate: at most `workers` evaluate at once, at most
//!   `queue_depth` wait (FIFO); beyond that ⇒ typed
//!   {"status": "overloaded", "limit": "queue"} refusal
//! ```
//!
//! A connection's requests are answered strictly in order: its thread
//! reads one line, evaluates it and writes the response before reading
//! the next, so JSONL pipelining works exactly as it does over stdin.
//! Concurrency comes from connections, capped by the gate — when every
//! slot is busy and the wait line is full, requests are refused
//! *immediately* with the same `"overloaded"` shape a blown budget
//! produces, instead of queueing without bound. The read-only
//! `{"op": "stats"}` skips the gate, so an operator can read the totals
//! of a server whose wait line is full.
//!
//! ## Graceful drain
//!
//! When the [`DrainToken`] trips (SIGTERM/SIGINT or programmatic), the
//! waker connects once to the listener so the blocked `accept` returns,
//! the listener stops accepting, every connection finishes the request
//! it is serving (requests waiting at the gate included) and closes,
//! and the durable session is flushed: WAL fsync, then a final snapshot
//! ([`ServeShared::drain_persist`]), so a deploy-time restart recovers
//! from the snapshot alone. Connections that ignore the drain longer
//! than [`NetConfig::drain_timeout`] are abandoned (the process is
//! exiting); everything they had acknowledged is already in the WAL.

use crate::drain::{accept_until_drain, DrainToken};
use crate::json::{self, Json};
use crate::serve::{handle_connection, ConnControl, ServeSession, ServeShared};
use crate::stats::Counter;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the TCP front end (the serve core itself is
/// configured by [`crate::ServeConfig`]).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Requests evaluated at once (each on its connection's thread).
    pub workers: usize,
    /// Backpressure bound: requests waiting for an evaluation slot
    /// beyond this are refused with `"limit": "queue"`.
    pub queue_depth: usize,
    /// Global cap on simultaneously open connections.
    pub max_conns: usize,
    /// Per-peer-IP cap on simultaneously open connections.
    pub max_conns_per_ip: usize,
    /// Hang up on a connection idle (no complete request) this long.
    /// `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// How long a drain waits for open connections to finish their
    /// in-flight requests before abandoning them.
    pub drain_timeout: Duration,
    /// Socket read timeout — the tick at which connection threads
    /// re-check the drain flag and idle deadline.
    pub poll_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        NetConfig {
            workers: cores,
            queue_depth: (cores * 16).max(64),
            max_conns: 1024,
            max_conns_per_ip: 1024,
            idle_timeout: None,
            drain_timeout: Duration::from_millis(5_000),
            poll_interval: Duration::from_millis(100),
        }
    }
}

/// What a [`NetServer::serve`] run that drained did.
#[derive(Clone, Debug)]
pub struct NetReport {
    /// Connections accepted over the server's lifetime.
    pub conns_accepted: u64,
    /// Connections refused at accept time (connection caps).
    pub conns_refused: u64,
    /// Whether some connections outlived [`NetConfig::drain_timeout`]
    /// and were abandoned.
    pub drain_timed_out: bool,
    /// Whether the drain cut a final snapshot (`false` for in-memory
    /// sessions or if the flush failed — the WAL still has everything).
    pub final_snapshot: bool,
}

/// A bound TCP listener, ready to serve. Binding is separate from
/// serving so callers can learn the actual address first (`--listen
/// 127.0.0.1:0` binds an ephemeral port).
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
}

impl NetServer {
    /// Binds `addr` (any `ToSocketAddrs` string, e.g. `"127.0.0.1:7401"`).
    pub fn bind(addr: &str) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(NetServer { listener, addr })
    }

    /// The actually bound address (ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the accept loop until `drain` trips, then drains: stop
    /// accepting, finish in-flight requests, flush the durable session.
    /// Blocks the calling thread for the server's whole lifetime.
    pub fn serve(
        self,
        shared: Arc<ServeShared>,
        config: NetConfig,
        drain: DrainToken,
    ) -> std::io::Result<NetReport> {
        let config = Arc::new(sanitize(config));
        let gate = Arc::new(Gate::new(shared.clone(), &config));
        let conns = Arc::new(ConnTable::default());
        let mut accepted = 0u64;
        let mut refused = 0u64;

        accept_until_drain(
            &self.listener,
            &drain,
            config.poll_interval,
            |stream, peer| {
                if conns.try_admit(peer.ip(), &config) {
                    accepted += 1;
                    shared.engine().add(Counter::ConnsAccepted, 1);
                    shared.engine().add(Counter::ConnsActive, 1);
                    spawn_connection(
                        stream,
                        peer,
                        shared.clone(),
                        gate.clone(),
                        conns.clone(),
                        config.clone(),
                        drain.clone(),
                    );
                } else {
                    refused += 1;
                    shared.engine().add(Counter::ConnsRefused, 1);
                    refuse_connection(stream, config.max_conns);
                }
            },
        )?;
        drop(self.listener); // stop the kernel accepting more

        // Connections notice the drain within one poll tick and close
        // once their in-flight request (if any) is answered. Requests
        // of stragglers abandoned past the timeout are refused from
        // here on rather than evaluated.
        let drain_timed_out = !conns.wait_empty(config.drain_timeout);
        gate.close();
        let final_snapshot = shared.drain_persist().unwrap_or(false);
        Ok(NetReport {
            conns_accepted: accepted,
            conns_refused: refused,
            drain_timed_out,
            final_snapshot,
        })
    }
}

/// Clamps nonsensical zero-valued knobs to their working minima.
fn sanitize(mut c: NetConfig) -> NetConfig {
    c.workers = c.workers.max(1);
    c.queue_depth = c.queue_depth.max(1);
    c.max_conns = c.max_conns.max(1);
    c.max_conns_per_ip = c.max_conns_per_ip.max(1);
    if c.poll_interval.is_zero() {
        c.poll_interval = Duration::from_millis(100);
    }
    c
}

/// Writes the one-line admission refusal and hangs up.
fn refuse_connection(stream: TcpStream, max_conns: usize) {
    let mut out = String::from("{\"status\": \"overloaded\", \"error\": ");
    json::write_str(
        &mut out,
        &format!("connection limit reached ({max_conns} allowed)"),
    );
    out.push_str(", \"limit\": \"conns\"}");
    let mut stream = stream;
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

// ---- connection accounting ----

#[derive(Default)]
struct ConnTableInner {
    active: usize,
    per_ip: HashMap<IpAddr, usize>,
}

/// Active-connection registry: admission caps plus the condition the
/// drain waits on.
#[derive(Default)]
struct ConnTable {
    inner: Mutex<ConnTableInner>,
    emptied: Condvar,
}

impl ConnTable {
    /// Admits the connection unless a cap is hit; on admit the caller
    /// *must* pair with [`ConnTable::release`].
    fn try_admit(&self, ip: IpAddr, config: &NetConfig) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let per_ip = inner.per_ip.get(&ip).copied().unwrap_or(0);
        if inner.active >= config.max_conns || per_ip >= config.max_conns_per_ip {
            return false;
        }
        inner.active += 1;
        *inner.per_ip.entry(ip).or_insert(0) += 1;
        true
    }

    fn release(&self, ip: IpAddr) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.active = inner.active.saturating_sub(1);
        // Zero-count entries are dropped, not kept: the map must not
        // accumulate an entry per IP ever seen for the life of the
        // process. The decrement saturates for the same reason the
        // active count does — an unpaired release (a bug upstream)
        // must skew accounting, never panic the accept loop.
        if let Some(n) = inner.per_ip.get_mut(&ip) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                inner.per_ip.remove(&ip);
            }
        }
        if inner.active == 0 {
            self.emptied.notify_all();
        }
    }

    /// Per-IP map entries currently tracked (tests: pruning invariant).
    #[cfg(test)]
    fn tracked_ips(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .per_ip
            .len()
    }

    /// Waits until no connection is active; `false` on timeout.
    fn wait_empty(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        while inner.active > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) = self
                .emptied
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner());
            inner = guard;
        }
        true
    }
}

// ---- the admission gate ----

#[derive(Default)]
struct GateState {
    /// Requests evaluating now (at most `workers`).
    running: usize,
    /// The ticket the next arrival takes.
    next_ticket: u64,
    /// Tickets below this have been let through; those from here to
    /// `next_ticket` are waiting.
    serving: u64,
    /// Set once the drain has finished waiting for connections.
    closed: bool,
}

/// Bounds evaluation: at most `workers` requests run at once, at most
/// `queue_depth` wait for a slot, and waiters go through in arrival
/// order (tickets, not condvar wake order).
struct Gate {
    state: Mutex<GateState>,
    turn: Condvar,
    workers: usize,
    queue_depth: usize,
    shared: Arc<ServeShared>,
}

/// What the gate did with a request.
#[derive(Debug, PartialEq)]
enum Admit {
    /// The request was admitted and evaluated to this response.
    Done(String),
    /// `queue_depth` requests were already waiting — refuse with
    /// `"limit": "queue"`.
    Full,
    /// The gate is closed (only reachable from a connection abandoned
    /// past the drain timeout).
    Closing,
}

impl Gate {
    fn new(shared: Arc<ServeShared>, config: &NetConfig) -> Gate {
        Gate {
            state: Mutex::default(),
            turn: Condvar::new(),
            workers: config.workers,
            queue_depth: config.queue_depth,
            shared,
        }
    }

    /// Runs `f` once a slot is free and every earlier arrival has had
    /// its turn.
    fn run(&self, f: impl FnOnce() -> String) -> Admit {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Admit::Closing;
        }
        if state.next_ticket - state.serving >= self.queue_depth as u64 {
            drop(state);
            self.shared.engine().add(Counter::QueueRejects, 1);
            return Admit::Full;
        }
        // The gauge counts admitted requests, running or waiting.
        self.shared.engine().add(Counter::QueueDepth, 1);
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        while ticket != state.serving || state.running >= self.workers {
            state = self.turn.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.serving += 1;
        state.running += 1;
        drop(state);
        // The next ticket may fit in a slot that is still free.
        self.turn.notify_all();
        // handle_line never panics (its catch_unwind fence turns
        // panics into structured errors), so the slot is always freed.
        let response = f();
        self.state.lock().unwrap_or_else(|e| e.into_inner()).running -= 1;
        self.turn.notify_all();
        // Completed: the gauge drops before the response is written,
        // so a peer that has every response sees an idle gate.
        self.shared.engine().sub(Counter::QueueDepth, 1);
        Admit::Done(response)
    }

    /// Refuses arrivals from now on; requests already admitted run.
    fn close(&self) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
    }
}

// ---- per-connection threads ----

fn spawn_connection(
    stream: TcpStream,
    peer: SocketAddr,
    shared: Arc<ServeShared>,
    gate: Arc<Gate>,
    conns: Arc<ConnTable>,
    config: Arc<NetConfig>,
    drain: DrainToken,
) {
    let shared2 = shared.clone();
    let conns2 = conns.clone();
    let spawned = std::thread::Builder::new()
        .name("gomq-conn".to_owned())
        .spawn(move || {
            run_connection(&stream, shared.clone(), &gate, &config, drain);
            shared.engine().sub(Counter::ConnsActive, 1);
            conns.release(peer.ip());
        });
    if spawned.is_err() {
        // Thread exhaustion: the closure never ran, so undo the
        // admission accounting the accept loop already recorded.
        shared2.engine().sub(Counter::ConnsActive, 1);
        conns2.release(peer.ip());
    }
}

fn run_connection(
    stream: &TcpStream,
    shared: Arc<ServeShared>,
    gate: &Gate,
    config: &NetConfig,
    drain: DrainToken,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(config.poll_interval)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let control = ConnControl {
        draining: Some(drain),
        idle_timeout: config.idle_timeout,
    };
    let max_line = shared.max_line_bytes();
    let mut session = ServeSession::with_shared(shared);
    handle_connection(
        BufReader::new(read_half),
        BufWriter::new(stream),
        max_line,
        &control,
        |line| {
            // The stats op skips the gate: it answers even when every
            // slot is busy, and `queue_depth` counts evaluation only.
            if is_stats_op(line) {
                return session.handle_line(line);
            }
            match gate.run(|| session.handle_line(line)) {
                Admit::Done(response) => response,
                Admit::Full => refuse_queue_full(line),
                Admit::Closing => refuse_draining(line),
            }
        },
    );
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Whether `line` is `{"op": "stats"}` (lines that cannot be one skip
/// the parse).
fn is_stats_op(line: &str) -> bool {
    line.contains("\"stats\"")
        && matches!(json::parse(line), Ok(Json::Obj(o)) if o.get("op").and_then(Json::as_str) == Some("stats"))
}

/// Best-effort request-id extraction for refusals produced without
/// running the request (the line did parse as JSON or we echo nothing).
fn echo_id(line: &str) -> String {
    match json::parse(line) {
        Ok(Json::Obj(o)) => match o.get("id").and_then(Json::as_str) {
            Some(id) => {
                let mut out = String::from("\"id\": ");
                json::write_str(&mut out, id);
                out.push_str(", ");
                out
            }
            None => String::new(),
        },
        _ => String::new(),
    }
}

/// The typed backpressure refusal, mirroring the budget-exhaustion
/// answer shape: `"status": "overloaded"` plus a `"limit"` tag.
fn refuse_queue_full(line: &str) -> String {
    format!(
        "{{{}\"status\": \"overloaded\", \"error\": \"server overloaded: the worker queue is full\", \"limit\": \"queue\"}}",
        echo_id(line)
    )
}

/// Refusal for a request that arrives after the gate closed.
fn refuse_draining(line: &str) -> String {
    format!(
        "{{{}\"status\": \"overloaded\", \"error\": \"server is draining\", \"limit\": \"queue\"}}",
        echo_id(line)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServeConfig;
    use std::io::{BufRead, Write};
    use std::sync::mpsc;

    #[test]
    fn conn_table_prunes_departed_ips() {
        let table = ConnTable::default();
        let config = NetConfig::default();
        let ips: Vec<IpAddr> = (0..16u8)
            .map(|i| IpAddr::from([127, 0, 0, i + 1]))
            .collect();
        for ip in &ips {
            assert!(table.try_admit(*ip, &config));
            assert!(table.try_admit(*ip, &config));
        }
        assert_eq!(table.tracked_ips(), ips.len());
        // One of two connections per IP closes: entries must survive.
        for ip in &ips {
            table.release(*ip);
        }
        assert_eq!(table.tracked_ips(), ips.len());
        // The last connection per IP closes: the entry must go with it,
        // not accumulate for the life of the process.
        for ip in &ips {
            table.release(*ip);
        }
        assert_eq!(table.tracked_ips(), 0);
        assert!(table.wait_empty(Duration::from_millis(10)));
        // A departed IP admits again from a clean slate.
        assert!(table.try_admit(ips[0], &config));
        assert_eq!(table.tracked_ips(), 1);
        table.release(ips[0]);
        assert_eq!(table.tracked_ips(), 0);
    }

    #[test]
    fn conn_table_release_tolerates_unpaired_calls() {
        let table = ConnTable::default();
        let config = NetConfig::default();
        let ip = IpAddr::from([127, 0, 0, 1]);
        assert!(table.try_admit(ip, &config));
        table.release(ip);
        // An unpaired release (upstream bug) must not panic or
        // resurrect the entry.
        table.release(ip);
        assert_eq!(table.tracked_ips(), 0);
        assert!(table.try_admit(ip, &config));
    }

    fn shared() -> Arc<ServeShared> {
        Arc::new(ServeShared::with_config(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        }))
    }

    fn gate(workers: usize, queue_depth: usize) -> Arc<Gate> {
        let config = NetConfig {
            workers,
            queue_depth,
            ..NetConfig::default()
        };
        Arc::new(Gate::new(shared(), &config))
    }

    fn counter(gate: &Gate, c: Counter) -> u64 {
        gate.shared.engine().stats()[c]
    }

    type Log = Arc<Mutex<Vec<&'static str>>>;

    /// A request on its own thread whose evaluation logs `name` when it
    /// starts, then holds its slot until the returned sender fires.
    fn spawn_request(
        gate: &Arc<Gate>,
        name: &'static str,
        log: &Log,
    ) -> (mpsc::Sender<()>, std::thread::JoinHandle<Admit>) {
        let (release, released) = mpsc::channel::<()>();
        let (gate, log) = (gate.clone(), log.clone());
        let handle = std::thread::spawn(move || {
            gate.run(|| {
                log.lock().unwrap().push(name);
                released.recv().expect("release");
                name.to_owned()
            })
        });
        (release, handle)
    }

    /// Spins until `n` requests have passed the gate's admission check.
    fn wait_admitted(gate: &Gate, n: u64) {
        while gate.state.lock().unwrap().next_ticket < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn gate_refuses_past_queue_depth_and_balances_the_gauge() {
        let gate = gate(1, 1);
        let log = Log::default();
        let (release1, first) = spawn_request(&gate, "first", &log);
        wait_admitted(&gate, 1);
        let (release2, second) = spawn_request(&gate, "second", &log);
        wait_admitted(&gate, 2);
        // One runs, one waits: the third finds the wait line full. It
        // runs on its own thread so that a gate wrongly admitting it
        // fails the assertions below instead of blocking the test.
        let third = std::thread::spawn({
            let gate = gate.clone();
            move || gate.run(|| "third".to_owned())
        });
        while counter(&gate, Counter::QueueRejects) == 0
            && gate.state.lock().unwrap().next_ticket < 3
        {
            std::thread::yield_now();
        }
        assert_eq!(counter(&gate, Counter::QueueRejects), 1);
        assert_eq!(counter(&gate, Counter::QueueDepth), 2);
        assert_eq!(*log.lock().unwrap(), ["first"]);
        release1.send(()).unwrap();
        release2.send(()).unwrap();
        assert_eq!(third.join().unwrap(), Admit::Full);
        assert_eq!(first.join().unwrap(), Admit::Done("first".into()));
        assert_eq!(second.join().unwrap(), Admit::Done("second".into()));
        assert_eq!(counter(&gate, Counter::QueueDepth), 0);
        assert_eq!(counter(&gate, Counter::QueueRejects), 1);
    }

    #[test]
    fn gate_admits_waiters_in_arrival_order() {
        const NAMES: [&str; 6] = ["r0", "r1", "r2", "r3", "r4", "r5"];
        // With five waiters, a gate that ignored tickets would get the
        // order right by luck only rarely.
        for depth in [2, 5] {
            let gate = gate(1, depth);
            let log = Log::default();
            let requests: Vec<_> = NAMES[..=depth]
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let request = spawn_request(&gate, name, &log);
                    wait_admitted(&gate, i as u64 + 1);
                    request
                })
                .collect();
            // Every waiter may run as soon as it is let through (later
            // ones are released first); only the gate decides the order.
            for (release, _) in requests.iter().rev() {
                release.send(()).unwrap();
            }
            for ((_, handle), name) in requests.into_iter().zip(NAMES) {
                assert_eq!(handle.join().unwrap(), Admit::Done(name.into()));
            }
            assert_eq!(*log.lock().unwrap(), NAMES[..=depth]);
            assert_eq!(counter(&gate, Counter::QueueDepth), 0);
        }
    }

    #[test]
    fn closed_gate_refuses_arrivals_but_runs_admitted_waiters() {
        let gate = gate(1, 1);
        let log = Log::default();
        let (release1, first) = spawn_request(&gate, "first", &log);
        wait_admitted(&gate, 1);
        let (release2, second) = spawn_request(&gate, "second", &log);
        wait_admitted(&gate, 2);
        gate.close();
        assert_eq!(gate.run(|| unreachable!("refused")), Admit::Closing);
        release1.send(()).unwrap();
        release2.send(()).unwrap();
        assert_eq!(first.join().unwrap(), Admit::Done("first".into()));
        assert_eq!(second.join().unwrap(), Admit::Done("second".into()));
        assert_eq!(counter(&gate, Counter::QueueRejects), 0);
        assert_eq!(counter(&gate, Counter::QueueDepth), 0);
    }

    #[test]
    fn gate_refusal_lines_are_exact() {
        let with_id = r#"{"id": "q7", "ontology": "A sub B", "query": "B", "abox": "A(x)"}"#;
        let without_id = r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#;
        assert_eq!(
            refuse_queue_full(with_id),
            r#"{"id": "q7", "status": "overloaded", "error": "server overloaded: the worker queue is full", "limit": "queue"}"#
        );
        assert_eq!(
            refuse_queue_full(without_id),
            r#"{"status": "overloaded", "error": "server overloaded: the worker queue is full", "limit": "queue"}"#
        );
        assert_eq!(
            refuse_draining(with_id),
            r#"{"id": "q7", "status": "overloaded", "error": "server is draining", "limit": "queue"}"#
        );
        assert_eq!(
            refuse_draining(without_id),
            r#"{"status": "overloaded", "error": "server is draining", "limit": "queue"}"#
        );
    }

    fn start_server(
        config: NetConfig,
    ) -> (SocketAddr, DrainToken, std::thread::JoinHandle<NetReport>) {
        let shared = shared();
        let server = NetServer::bind("127.0.0.1:0").expect("bind ephemeral");
        let addr = server.local_addr();
        let drain = DrainToken::new();
        let drain2 = drain.clone();
        let handle = std::thread::spawn(move || {
            server
                .serve(shared, config, drain2)
                .expect("serve loop failed")
        });
        (addr, drain, handle)
    }

    fn request(stream: &mut TcpStream, line: &str) -> String {
        writeln!(stream, "{line}").expect("send");
        stream.flush().expect("flush");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response.trim_end().to_owned()
    }

    #[test]
    fn tcp_roundtrip_and_drain() {
        let config = NetConfig {
            workers: 2,
            poll_interval: Duration::from_millis(20),
            drain_timeout: Duration::from_millis(2_000),
            ..NetConfig::default()
        };
        let (addr, drain, handle) = start_server(config);
        let mut c1 = TcpStream::connect(addr).expect("connect");
        let mut c2 = TcpStream::connect(addr).expect("connect");
        let r1 = request(
            &mut c1,
            r#"{"id": "n1", "ontology": "A sub B", "query": "B", "abox": "A(x)"}"#,
        );
        assert!(r1.contains("\"status\": \"ok\""), "{r1}");
        assert!(r1.contains(r#"[["x"]]"#), "{r1}");
        // The second connection shares the plan cache.
        let r2 = request(
            &mut c2,
            r#"{"id": "n2", "ontology": "A sub B", "query": "B", "abox": "A(y)"}"#,
        );
        assert!(r2.contains("\"cached\": true"), "{r2}");
        // c2 was accepted before r2 could be answered, so the totals
        // read on c1 now count both connections.
        let st = request(&mut c1, r#"{"op": "stats"}"#);
        assert!(st.contains("\"conns_accepted\": 2"), "{st}");
        assert!(!r1.contains("\"engine\"") && !r2.contains("\"engine\""));
        assert!(crate::json::parse(&r1).is_ok() && crate::json::parse(&r2).is_ok());
        drain.trigger();
        let report = handle.join().expect("server thread");
        assert!(!report.drain_timed_out);
        assert_eq!(report.conns_accepted, 2);
        // Drained connections are closed server-side.
        let mut end = String::new();
        BufReader::new(&mut c1).read_line(&mut end).expect("eof");
        assert!(end.is_empty(), "expected EOF after drain, got {end}");
    }

    #[test]
    fn queue_depth_returns_to_zero_after_a_burst() {
        let config = NetConfig {
            workers: 2,
            poll_interval: Duration::from_millis(20),
            drain_timeout: Duration::from_millis(2_000),
            ..NetConfig::default()
        };
        let (addr, drain, handle) = start_server(config);
        let clients: Vec<_> = (0..6)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(addr).expect("connect");
                    for i in 0..20 {
                        let r = request(
                            &mut conn,
                            &format!(
                                r#"{{"ontology": "A sub B\nB sub C", "query": "C", "abox": "A(x{c}_{i})"}}"#
                            ),
                        );
                        assert!(r.contains("\"status\": \"ok\""), "{r}");
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client thread");
        }
        // Every response is in, so no job is queued or executing.
        let mut conn = TcpStream::connect(addr).expect("connect");
        let st = request(&mut conn, r#"{"id": "s", "op": "stats"}"#);
        assert!(st.contains("\"status\": \"ok\", \"op\": \"stats\""), "{st}");
        assert!(st.contains("\"queue_depth\": 0,"), "{st}");
        assert!(st.contains("\"requests\": 120,"), "{st}");
        drain.trigger();
        handle.join().expect("server thread");
    }

    #[test]
    fn connection_cap_refuses_with_typed_line() {
        let config = NetConfig {
            workers: 1,
            max_conns: 1,
            poll_interval: Duration::from_millis(20),
            drain_timeout: Duration::from_millis(1_000),
            ..NetConfig::default()
        };
        let (addr, drain, handle) = start_server(config);
        let mut keeper = TcpStream::connect(addr).expect("connect");
        // Prove the first connection is admitted before racing a second.
        let ok = request(
            &mut keeper,
            r#"{"ontology": "A sub B", "query": "B", "abox": "A(x)"}"#,
        );
        assert!(ok.contains("\"status\": \"ok\""), "{ok}");
        let mut refused = TcpStream::connect(addr).expect("connect");
        let mut line = String::new();
        BufReader::new(&mut refused)
            .read_line(&mut line)
            .expect("refusal line");
        assert!(line.contains("\"limit\": \"conns\""), "{line}");
        assert!(crate::json::parse(line.trim_end()).is_ok(), "{line}");
        drain.trigger();
        let report = handle.join().expect("server thread");
        assert_eq!(report.conns_refused, 1);
    }
}
