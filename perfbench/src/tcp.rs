//! The timed TCP runs: a fresh `gomq-serve --listen --workers 2` per
//! round, driven closed-loop (each connection sends its next line only
//! after the previous reply) from this one client process.

use crate::gen::{Request, Script};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One request as the client saw it. `resp` is `None` when the reply
/// was lost (connection error or early close).
pub struct Sample {
    pub send: Instant,
    pub recv: Instant,
    pub resp: Option<String>,
}

impl Sample {
    pub fn latency(&self) -> Duration {
        self.recv - self.send
    }
}

/// Everything one round observed; answers are checked afterwards,
/// outside the timed region.
pub struct Round {
    pub setup: Vec<Sample>,
    pub conns: Vec<Vec<Sample>>,
    /// Wall time of the script (first send to last reply).
    pub wall: Duration,
    /// Spawn → listening, plus the set-up requests.
    pub setup_s: f64,
    /// Server `VmHWM` at the end of the script, MiB.
    pub peak_rss_mb: f64,
    /// Server CPU time (user + system) spent during the script, s.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// script, in percent.
    pub steal_pct: f64,
    /// Bytes in the data directory at the end of the script.
    pub stored_bytes: u64,
    /// When the server was restarted after the SIGKILL, and the replies
    /// to the recovery probes sent then.
    pub restart: Instant,
    pub recovery: Vec<Sample>,
}

/// How long the client waits after the server reports listening before
/// it connects. The accept loop polls a non-blocking listener and
/// sleeps 50 ms whenever nothing is pending; a connection that races
/// the loop's very first poll is accepted at once, any later one waits
/// out the sleep. Connecting a little after the report always meets the
/// sleep, so set-up and recovery times are not bimodal (3 vs 53 ms).
const SETTLE: Duration = Duration::from_millis(10);

/// A running server; killed (SIGKILL) and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawns `bin` on an ephemeral port and waits until it listens.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--listen", "127.0.0.1:0", "--workers", "2"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match lines.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    addr = line
                        .trim()
                        .strip_prefix("gomq-serve: listening on ")
                        .map(str::to_owned)
                }
            }
        }
        // Keep draining stderr so the server never blocks on a full pipe.
        let stderr = std::thread::spawn(move || {
            let _ = std::io::copy(&mut lines, &mut std::io::sink());
        });
        let mut server = Server {
            child,
            addr: String::new(),
            stderr: Some(stderr),
        };
        server.addr = addr.ok_or("the server exited before listening")?;
        std::thread::sleep(SETTLE);
        Ok(server)
    }

    /// CPU time (user + system, all threads) the server has used so
    /// far, in seconds; `/proc` counts it in ticks of 1/100 s.
    pub fn cpu_s(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: u64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|x| x.parse::<u64>().ok())
            .sum();
        ticks as f64 / 100.0
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// A connection sending one line at a time and waiting for the reply.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer: s, reader })
    }

    pub fn call(&mut self, line: &str) -> Sample {
        let send = Instant::now();
        let mut resp = String::new();
        let ok = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|_| self.writer.write_all(b"\n"))
            .and_then(|_| self.reader.read_line(&mut resp))
            .is_ok_and(|n| n > 0);
        Sample {
            send,
            recv: Instant::now(),
            resp: ok.then(|| resp.trim_end().to_owned()),
        }
    }

    pub fn run(&mut self, script: &[Request]) -> Vec<Sample> {
        script.iter().map(|r| self.call(&r.line)).collect()
    }

    pub fn run_lines(&mut self, lines: &[&str]) -> Vec<Sample> {
        lines.iter().map(|l| self.call(l)).collect()
    }
}

/// Runs one round: fresh server (and data directory), set-up, the timed
/// script on one thread per connection, SIGKILL, restart, and the
/// recovery probes. `data_dir` is used only by the session workload.
pub fn round(
    bin: &Path,
    script: &Script,
    data_dir: Option<&Path>,
    probes: &[&str],
) -> Result<Round, String> {
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let server = Server::spawn(bin, data_dir)?;
    // Every connection is opened before the first set-up request: the
    // accept loop takes all pending connections in one wake-up, so once
    // set-up is answered the script's connections are accepted too and
    // the accept poll never lands inside the timed script.
    let mut setup_conn = Conn::open(&server.addr)?;
    let conns = script
        .conns
        .iter()
        .map(|_| Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let setup = setup_conn.run(&script.setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let cpu_before = server.cpu_s();
    let host = crate::report::CpuCounters::now();
    let barrier = Arc::new(Barrier::new(script.conns.len()));
    let results: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&script.conns)
            .map(|(mut conn, reqs)| {
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    conn.run(reqs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let first = results
        .iter()
        .filter_map(|c| c.first())
        .map(|s| s.send)
        .min();
    let last = results
        .iter()
        .filter_map(|c| c.last())
        .map(|s| s.recv)
        .max();
    let wall = match (first, last) {
        (Some(a), Some(b)) => b - a,
        _ => Duration::ZERO,
    };
    let cpu_s = server.cpu_s() - cpu_before;
    let steal_pct = host.steal_since().unwrap_or(0.0);
    let peak_rss_mb = server.peak_rss_mb();
    let stored_bytes = data_dir.map_or(0, dir_bytes);
    drop(server); // SIGKILL

    let restart = Instant::now();
    let server = Server::spawn(bin, data_dir)?;
    let recovery = Conn::open(&server.addr)?.run_lines(probes);
    drop(server);
    if let Some(dir) = data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(Round {
        setup,
        conns: results,
        wall,
        setup_s,
        peak_rss_mb,
        cpu_s,
        steal_pct,
        stored_bytes,
        restart,
        recovery,
    })
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let p: PathBuf = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&p),
                Ok(m) => m.len(),
                Err(_) => 0,
            }
        })
        .sum()
}
