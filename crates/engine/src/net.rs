//! The TCP serving front end: a multi-connection JSONL listener over
//! the same request core as stdin mode.
//!
//! ## Architecture
//!
//! ```text
//!             accept loop (nonblocking, polls the DrainToken)
//!                  │  admission: global + per-IP connection caps
//!                  ▼
//!   one I/O thread per connection ──────────────┐
//!     capped JSONL framing (CappedLineReader,   │ handle_connection
//!     read-timeout ticks → drain/idle checks)   │ (crate::serve)
//!                  │ submit line                ▼
//!        bounded worker pool (backpressure queue; full ⇒ typed
//!        {"status": "overloaded", "limit": "queue"} refusal)
//!                  │
//!        N workers, each a ServeSession over one shared
//!        Arc<ServeShared> (plan cache, vocab, durable session)
//! ```
//!
//! A connection's requests are answered strictly in order: the I/O
//! thread submits one line at a time and blocks for its response, so
//! JSONL pipelining works exactly as it does over stdin. Concurrency
//! comes from connections, capped by the worker pool — when every
//! worker is busy and the queue is full, requests are refused
//! *immediately* with the same `"overloaded"` shape a blown budget
//! produces, instead of queueing without bound. The read-only
//! `{"op": "stats"}` is the one request the I/O thread answers itself,
//! so an operator can read the totals of a server whose queue is full.
//!
//! ## Graceful drain
//!
//! When the [`DrainToken`] trips (SIGTERM/SIGINT or programmatic), the
//! listener stops accepting, every connection finishes the request it
//! is serving (queued requests included — the pool drains its queue
//! before workers exit) and closes, and the durable session is flushed:
//! WAL fsync, then a final snapshot
//! ([`ServeShared::drain_persist`]), so a deploy-time restart recovers
//! from the snapshot alone. Connections that ignore the drain longer
//! than [`NetConfig::drain_timeout`] are abandoned (the process is
//! exiting); everything they had acknowledged is already in the WAL.

use crate::drain::DrainToken;
use crate::json::{self, Json};
use crate::serve::{handle_connection, ConnControl, ServeSession, ServeShared};
use crate::stats::Counter;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of the TCP front end (the serve core itself is
/// configured by [`crate::ServeConfig`]).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Worker threads executing requests (each owns a [`ServeSession`]
    /// over the shared state).
    pub workers: usize,
    /// Backpressure bound: requests queued (not yet picked up by a
    /// worker) beyond this are refused with `"limit": "queue"`.
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

/// What a completed [`NetServer::serve`] run did.
#[derive(Clone, Debug)]
pub struct NetReport {
    /// Connections accepted over the server's lifetime.
    pub conns_accepted: u64,
    /// Connections refused at accept time (connection caps).
    pub conns_refused: u64,
    /// Whether the run ended in a graceful drain (currently the only
    /// exit; kept explicit for future listener-error exits).
    pub drained: bool,
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
        self.listener.set_nonblocking(true)?;
        let pool = Pool::start(shared.clone(), &config);
        let conns = Arc::new(ConnTable::default());
        let mut accepted = 0u64;
        let mut refused = 0u64;
        let mut accept_errors = 0u32;

        while !drain.is_draining() {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    accept_errors = 0;
                    if conns.try_admit(peer.ip(), &config) {
                        accepted += 1;
                        shared.engine().add(Counter::ConnsAccepted, 1);
                        shared.engine().add(Counter::ConnsActive, 1);
                        spawn_connection(
                            stream,
                            peer,
                            shared.clone(),
                            pool.clone(),
                            conns.clone(),
                            config.clone(),
                            drain.clone(),
                        );
                    } else {
                        refused += 1;
                        shared.engine().add(Counter::ConnsRefused, 1);
                        refuse_connection(stream, config.max_conns);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(config.poll_interval.min(Duration::from_millis(50)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (EMFILE under a conn
                    // flood) must not kill the server; a persistent
                    // failure streak must not spin it either.
                    accept_errors += 1;
                    if accept_errors >= 100 {
                        return Err(e);
                    }
                    std::thread::sleep(config.poll_interval);
                }
            }
        }
        drop(self.listener); // stop the kernel accepting more

        // Connections notice the drain within one poll tick and close
        // once their in-flight request (if any) is answered.
        let drain_timed_out = !conns.wait_empty(config.drain_timeout);
        // Closing the pool lets workers exit after the queue is empty;
        // queued jobs of abandoned stragglers still complete first, so
        // joining is safe unless we timed out (a stuck evaluation could
        // block forever — the process is exiting anyway).
        pool.close();
        if !drain_timed_out {
            pool.join();
        }
        let final_snapshot = shared.drain_persist().unwrap_or(false);
        Ok(NetReport {
            conns_accepted: accepted,
            conns_refused: refused,
            drained: true,
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

// ---- the bounded worker pool ----

/// One request handed to the pool; the submitting connection thread
/// blocks on `reply`.
struct Job {
    line: String,
    reply: Arc<Reply>,
}

/// A one-shot response slot.
#[derive(Default)]
struct Reply {
    slot: Mutex<Option<String>>,
    ready: Condvar,
}

impl Reply {
    fn put(&self, response: String) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(response);
        self.ready.notify_all();
    }

    fn wait(&self) -> String {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(response) = slot.take() {
                return response;
            }
            slot = self.ready.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct PoolInner {
    jobs: VecDeque<Job>,
    closing: bool,
}

/// The bounded worker pool: a queue with a hard depth cap, drained by
/// `workers` threads each owning a [`ServeSession`].
struct Pool {
    inner: Mutex<PoolInner>,
    work: Condvar,
    depth: usize,
    shared: Arc<ServeShared>,
}

enum Submit {
    /// The job was queued; wait on the reply.
    Queued(Arc<Reply>),
    /// The queue is at capacity — refuse with `"limit": "queue"`.
    Full,
    /// The pool is shutting down (only reachable from a connection
    /// abandoned past the drain timeout).
    Closing,
}

impl Pool {
    fn start(shared: Arc<ServeShared>, config: &NetConfig) -> Arc<PoolHandle> {
        let pool = Arc::new(Pool {
            inner: Mutex::new(PoolInner {
                jobs: VecDeque::new(),
                closing: false,
            }),
            work: Condvar::new(),
            depth: config.queue_depth,
            shared,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let pool = pool.clone();
                std::thread::Builder::new()
                    .name(format!("gomq-worker-{i}"))
                    .spawn(move || pool.worker_loop())
                    .expect("spawn worker thread")
            })
            .collect();
        Arc::new(PoolHandle {
            pool,
            workers: Mutex::new(workers),
        })
    }

    fn submit(&self, line: String) -> Submit {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closing {
            return Submit::Closing;
        }
        if inner.jobs.len() >= self.depth {
            drop(inner);
            self.shared.engine().add(Counter::QueueRejects, 1);
            return Submit::Full;
        }
        let reply = Arc::new(Reply::default());
        // The gauge rises before any worker can see the job (the lock
        // is held), so the job's completion can never lower it first.
        self.shared.engine().add(Counter::QueueDepth, 1);
        inner.jobs.push_back(Job {
            line,
            reply: reply.clone(),
        });
        drop(inner);
        self.work.notify_one();
        Submit::Queued(reply)
    }

    fn worker_loop(&self) {
        let mut session = ServeSession::with_shared(self.shared.clone());
        loop {
            let job = {
                let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(job) = inner.jobs.pop_front() {
                        break job;
                    }
                    if inner.closing {
                        return;
                    }
                    inner = self.work.wait(inner).unwrap_or_else(|e| e.into_inner());
                }
            };
            // handle_line never panics (its catch_unwind fence turns
            // panics into structured errors), so the reply always lands
            // and the submitter can never deadlock.
            let response = session.handle_line(&job.line);
            // Completed: the gauge drops before the reply is released,
            // so a peer that has every response sees an idle pool.
            self.shared.engine().sub(Counter::QueueDepth, 1);
            job.reply.put(response);
        }
    }
}

/// The pool plus its worker join handles.
struct PoolHandle {
    pool: Arc<Pool>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl PoolHandle {
    fn submit(&self, line: String) -> Submit {
        self.pool.submit(line)
    }

    /// Lets workers exit once the queue is empty (queued jobs still
    /// complete first).
    fn close(&self) {
        self.pool
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .closing = true;
        self.pool.work.notify_all();
    }

    fn join(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

// ---- per-connection I/O threads ----

fn spawn_connection(
    stream: TcpStream,
    peer: SocketAddr,
    shared: Arc<ServeShared>,
    pool: Arc<PoolHandle>,
    conns: Arc<ConnTable>,
    config: Arc<NetConfig>,
    drain: DrainToken,
) {
    let shared2 = shared.clone();
    let conns2 = conns.clone();
    let spawned = std::thread::Builder::new()
        .name("gomq-conn".to_owned())
        .spawn(move || {
            run_connection(&stream, shared.clone(), &pool, &config, drain);
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
    pool: &PoolHandle,
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
    // The stats op never queues: it answers even when every worker is
    // busy, and `queue_depth` counts evaluation work only.
    let mut inline = ServeSession::with_shared(shared);
    handle_connection(
        BufReader::new(read_half),
        BufWriter::new(stream),
        max_line,
        &control,
        |line| {
            if is_stats_op(line) {
                return inline.handle_line(line);
            }
            match pool.submit(line.to_owned()) {
                Submit::Queued(reply) => reply.wait(),
                Submit::Full => refuse_queue_full(line),
                Submit::Closing => refuse_draining(line),
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

/// Refusal for a request submitted after the pool began shutting down.
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

    fn start_server(
        config: NetConfig,
    ) -> (SocketAddr, DrainToken, std::thread::JoinHandle<NetReport>) {
        let shared = Arc::new(ServeShared::with_config(ServeConfig {
            threads: 1,
            ..ServeConfig::default()
        }));
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
        assert!(report.drained);
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
