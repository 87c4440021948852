//! `gomq-serve`: JSONL OMQ answering over stdin/stdout or TCP.
//!
//! Reads one JSON request object per line and writes one JSON response
//! per line (see `gomq_engine::serve` for the protocol). By default the
//! transport is stdin/stdout; with `--listen ADDR` the same protocol is
//! served over TCP to many concurrent connections, backed by a bounded
//! worker pool (`gomq_engine::net`). Plans are cached across lines and
//! connections, so a stream of requests posing the same OMQ compiles it
//! once. With `--data-dir` the session ABox (`"op": "assert"` /
//! `"mark"` / `"rollback"`) is journaled to a write-ahead log and
//! periodically snapshotted, so a crash — even a SIGKILL mid-write —
//! loses at most the un-acknowledged mutation and a restart over the
//! same directory resumes with the exact same store. A TCP server
//! drains gracefully on SIGTERM/SIGINT: in-flight requests finish, the
//! WAL is fsynced, and a final snapshot is cut. At exit the cumulative
//! totals go to stderr on one line, `gomq-serve: stats {...}`: the same
//! object `{"op": "stats"}` answers under `"engine"`.
//!
//! ```text
//! $ echo '{"ontology": "A sub B", "query": "B", "abox": "A(ada)"}' | gomq-serve
//! {"status": "ok", "cached": false, ..., "answers": [["ada"]], ...}
//! ```

use gomq_engine::{
    handle_connection, resolve_view_flags, ConnClose, ConnControl, DrainToken, NetConfig,
    NetServer, ServeConfig, ServeSession, ServeShared,
};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "gomq-serve — JSONL OMQ answering over stdin/stdout or TCP

Usage: gomq-serve [--threads N] [--cache N] [--max-rounds N]
                  [--max-derived N] [--timeout-ms N] [--data-dir PATH]
                  [--snapshot-every N] [--fsync] [--quarantine-after N]
                  [--max-line-bytes N] [--chaos-seed N]
                  [--views on|off] [--max-views N]
                  [--listen ADDR] [--workers N] [--queue-depth N]
                  [--max-conns N] [--max-conns-per-ip N]
                  [--idle-timeout-ms N] [--drain-timeout-ms N]
                  [--replicate-to ADDR | --follow ADDR]
                  [--promote-on-disconnect] [--max-staleness-lsn N]
                  [--epoch N]

  --threads N          worker threads for evaluation (default: all cores;
                       0 also means all cores, with a warning)
  --cache N            plan-cache capacity; older plans are LRU-evicted
  --max-rounds N       per-request fixpoint-round ceiling
  --max-derived N      per-request derived-fact ceiling (per ABox in a batch)
  --timeout-ms N       per-request wall-clock deadline in milliseconds
  --data-dir PATH      persist the session ABox: WAL + snapshots in PATH,
                       recovered on startup (exact pre-crash store)
  --snapshot-every N   snapshot after N journaled mutations (default 64;
                       0 disables periodic snapshots)
  --fsync              fsync the WAL after every journaled record
  --quarantine-after N open a plan's circuit breaker after N evaluation
                       failures (default 3; 0 disables quarantine)
  --max-line-bytes N   refuse request lines longer than N bytes as
                       \"malformed\" (default 16777216)
  --chaos-seed N       install the standard deterministic fault plan with
                       seed N (needs a build with the `chaos` feature)
  --views on|off       incremental view maintenance for session queries:
                       repeat \"session\": true queries are answered from
                       a maintained materialization in O(changed facts)
                       instead of a from-scratch fixpoint (default: on)
  --max-views N        maintained materializations kept per session,
                       LRU-evicted beyond N (default 8). N must be at
                       least 1 — to disable maintenance say --views off,
                       not --max-views 0; combining --views off with
                       --max-views is a usage error

TCP mode (the flags below require --listen):
  --listen ADDR        serve the JSONL protocol over TCP on ADDR (e.g.
                       127.0.0.1:7401; port 0 binds an ephemeral port,
                       printed to stderr as \"listening on <addr>\").
                       SIGTERM/SIGINT drain gracefully: in-flight
                       requests finish, the WAL is fsynced, and a final
                       snapshot is cut before exit
  --workers N          request-executing worker threads (default: all
                       cores)
  --queue-depth N      backpressure bound: requests queued beyond N are
                       refused with {\"status\": \"overloaded\",
                       \"limit\": \"queue\"} (default: 16 x workers,
                       at least 64)
  --max-conns N        refuse connections beyond N open at once
                       (default 1024)
  --max-conns-per-ip N refuse connections beyond N open per peer IP
                       (default 1024)
  --idle-timeout-ms N  hang up on a connection idle for N ms (default:
                       never)
  --drain-timeout-ms N at shutdown, wait at most N ms for open
                       connections to finish before abandoning them
                       (default 5000)

Replication (requires --listen and --data-dir):
  --replicate-to ADDR  primary: accept replica connections on ADDR and
                       ship every journaled WAL frame (port 0 binds an
                       ephemeral port, printed to stderr as
                       \"replication listening on <addr>\"). Drain
                       waits for replicas to acknowledge before exit
  --follow ADDR        follower: bootstrap from the primary's
                       replication listener at ADDR (snapshot if
                       behind, then tail the log), serve reads locally,
                       and refuse writes with \"status\": \"read-only\".
                       {\"op\": \"promote\"} promotes this node: it
                       stamps the next epoch into its WAL and fences
                       the old primary
  --promote-on-disconnect
                       with --follow: promote automatically once the
                       primary has been unreachable past the reconnect
                       window (8 x 125ms)
  --max-staleness-lsn N
                       with --follow: refuse session reads lagging more
                       than N lsns behind the primary with \"status\":
                       \"stale\" (default: serve at any lag; the lag is
                       always reported as \"staleness\")
  --epoch N            start with epoch floor N (operator override for
                       resurrecting a node at a known fencing point)

Each request line is a JSON object:
  {\"ontology\": \"<dl axioms>\", \"query\": \"<relation>\", \"abox\": \"<facts>\"}
with optional \"id\", optional \"limits\" ({\"max_rounds\", \"max_derived\",
\"timeout_ms\"}; clamped by the session limits above) and, instead of
\"abox\", a batched \"aboxes\": [\"<facts>\", ...] or \"session\": true to
query the session store. \"certificate\": true attaches a derivation
certificate (one ABox or the session, not a batch). Every query runs on
the native fixpoint engine; the SQL rewriting is printed by gomq-sql.
Session mutations: {\"op\": \"assert\", \"abox\": ...}, {\"op\": \"mark\"},
{\"op\": \"rollback\", \"mark\": N}. One JSON response per line; a blown
limit answers {\"status\": \"overloaded\", ...}, a quarantined plan
{\"status\": \"quarantined\", ...}.
";

fn usage_error(message: &str) -> ! {
    eprintln!("gomq-serve: {message}");
    eprintln!("run gomq-serve --help for usage");
    std::process::exit(2);
}

fn numeric(args: &mut impl Iterator<Item = String>, flag: &str) -> u64 {
    let Some(value) = args.next() else {
        usage_error(&format!("{flag} needs a non-negative integer"));
    };
    match value.parse::<u64>() {
        Ok(n) => n,
        Err(_) => usage_error(&format!(
            "{flag} needs a non-negative integer, got {value:?}"
        )),
    }
}

fn main() {
    let mut config = ServeConfig::default();
    // --views / --max-views are collected and resolved together after
    // the loop (resolve_view_flags), so the outcome is order-independent
    // and the ambiguous "--max-views 0" spelling is a typed usage error.
    let mut views_flag: Option<bool> = None;
    let mut max_views_flag: Option<u64> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut listen: Option<String> = None;
    let mut replicate_to: Option<String> = None;
    let mut follow: Option<String> = None;
    let mut promote_on_disconnect = false;
    let mut epoch_floor: Option<u64> = None;
    let mut net = NetConfig::default();
    // Flags that only make sense with --listen, remembered for the
    // "--workers requires --listen" usage error.
    let mut net_flag: Option<&'static str> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--threads" => {
                let n = numeric(&mut args, "--threads");
                if n == 0 {
                    eprintln!(
                        "gomq-serve: --threads 0 means \"all cores\" ({} here)",
                        config.threads
                    );
                } else {
                    config.threads = n as usize;
                }
            }
            "--cache" => config.cache_capacity = numeric(&mut args, "--cache") as usize,
            "--max-rounds" => {
                config.limits.max_rounds = Some(numeric(&mut args, "--max-rounds") as usize)
            }
            "--max-derived" => {
                config.limits.max_derived = Some(numeric(&mut args, "--max-derived") as usize)
            }
            "--timeout-ms" => {
                config.limits.timeout =
                    Some(Duration::from_millis(numeric(&mut args, "--timeout-ms")))
            }
            "--data-dir" => {
                let Some(path) = args.next() else {
                    usage_error("--data-dir needs a path");
                };
                config.data_dir = Some(path.into());
            }
            "--snapshot-every" => config.snapshot_every = numeric(&mut args, "--snapshot-every"),
            "--fsync" => config.fsync = true,
            "--quarantine-after" => {
                config.quarantine_after = numeric(&mut args, "--quarantine-after") as u32
            }
            "--max-line-bytes" => {
                config.max_line_bytes = numeric(&mut args, "--max-line-bytes").max(1) as usize
            }
            "--chaos-seed" => chaos_seed = Some(numeric(&mut args, "--chaos-seed")),
            "--views" => match args.next().as_deref() {
                Some("on") => views_flag = Some(true),
                Some("off") => views_flag = Some(false),
                _ => usage_error("--views needs \"on\" or \"off\""),
            },
            "--max-views" => max_views_flag = Some(numeric(&mut args, "--max-views")),
            "--listen" => {
                let Some(addr) = args.next() else {
                    usage_error("--listen needs an address, e.g. 127.0.0.1:7401");
                };
                listen = Some(addr);
            }
            "--workers" => {
                net_flag = Some("--workers");
                match numeric(&mut args, "--workers") as usize {
                    0 => usage_error("--workers must be at least 1"),
                    n => net.workers = n,
                }
            }
            "--queue-depth" => {
                net_flag = Some("--queue-depth");
                match numeric(&mut args, "--queue-depth") as usize {
                    0 => usage_error("--queue-depth must be at least 1"),
                    n => net.queue_depth = n,
                }
            }
            "--max-conns" => {
                net_flag = Some("--max-conns");
                match numeric(&mut args, "--max-conns") as usize {
                    0 => usage_error("--max-conns must be at least 1"),
                    n => net.max_conns = n,
                }
            }
            "--max-conns-per-ip" => {
                net_flag = Some("--max-conns-per-ip");
                match numeric(&mut args, "--max-conns-per-ip") as usize {
                    0 => usage_error("--max-conns-per-ip must be at least 1"),
                    n => net.max_conns_per_ip = n,
                }
            }
            "--idle-timeout-ms" => {
                net_flag = Some("--idle-timeout-ms");
                net.idle_timeout = Some(Duration::from_millis(numeric(
                    &mut args,
                    "--idle-timeout-ms",
                )));
            }
            "--drain-timeout-ms" => {
                net_flag = Some("--drain-timeout-ms");
                net.drain_timeout = Duration::from_millis(numeric(&mut args, "--drain-timeout-ms"));
            }
            "--replicate-to" => {
                let Some(addr) = args.next() else {
                    usage_error("--replicate-to needs an address, e.g. 127.0.0.1:7402");
                };
                replicate_to = Some(addr);
            }
            "--follow" => {
                let Some(addr) = args.next() else {
                    usage_error("--follow needs the primary's replication address");
                };
                follow = Some(addr);
            }
            "--promote-on-disconnect" => promote_on_disconnect = true,
            "--max-staleness-lsn" => {
                config.max_staleness_lsn = Some(numeric(&mut args, "--max-staleness-lsn"))
            }
            "--epoch" => epoch_floor = Some(numeric(&mut args, "--epoch")),
            other => {
                eprintln!("unknown argument: {other}\n\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    if listen.is_none() {
        if let Some(flag) = net_flag {
            usage_error(&format!("{flag} requires --listen"));
        }
        if replicate_to.is_some() {
            usage_error("--replicate-to requires --listen");
        }
        if follow.is_some() {
            usage_error("--follow requires --listen");
        }
    }
    if replicate_to.is_some() && follow.is_some() {
        usage_error("--replicate-to and --follow are mutually exclusive (one role per node)");
    }
    if (replicate_to.is_some() || follow.is_some()) && config.data_dir.is_none() {
        usage_error("replication ships the WAL: --replicate-to/--follow require --data-dir");
    }
    if promote_on_disconnect && follow.is_none() {
        usage_error("--promote-on-disconnect requires --follow");
    }
    if config.max_staleness_lsn.is_some() && follow.is_none() {
        usage_error("--max-staleness-lsn requires --follow");
    }
    if epoch_floor.is_some() && replicate_to.is_none() && follow.is_none() {
        usage_error("--epoch requires --replicate-to or --follow");
    }
    match resolve_view_flags(views_flag, max_views_flag) {
        Ok(n) => config.max_views = n,
        Err(e) => usage_error(&e),
    }
    if let Some(seed) = chaos_seed {
        if cfg!(feature = "chaos") {
            gomq_engine::faults::install_standard(seed);
            eprintln!("gomq-serve: chaos plan installed (seed {seed})");
        } else {
            eprintln!("gomq-serve: --chaos-seed ignored (built without the chaos feature)");
        }
    }
    // Follower bootstrap runs before the session opens: if the local
    // log is behind the primary's retained window, the shipped snapshot
    // replaces the data directory's contents and recovery below starts
    // from it ("copy immutable objects, then flip HEAD").
    if let Some(addr) = &follow {
        let dir = config.data_dir.clone().expect("validated above");
        match gomq_engine::repl::bootstrap_follower(&dir, addr) {
            Ok((lsn, epoch)) => {
                eprintln!("gomq-serve: follower bootstrapped at lsn {lsn} (epoch {epoch})")
            }
            Err(e) => {
                eprintln!("gomq-serve: cannot bootstrap from {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    let (shared, recovery) = match ServeShared::try_with_config(config) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("gomq-serve: cannot open data dir: {e}");
            std::process::exit(1);
        }
    };
    if let Some(info) = recovery {
        eprintln!(
            "gomq-serve: recovered session: {} facts from snapshot, {} WAL records \
             replayed ({} facts){}",
            info.snapshot_facts,
            info.replayed_records,
            info.replayed_facts,
            if info.truncated_tail {
                ", torn WAL tail truncated"
            } else {
                ""
            },
        );
    }
    let shared = Arc::new(shared);
    if let Some(epoch) = epoch_floor {
        gomq_engine::repl::force_epoch(&shared, epoch);
        eprintln!("gomq-serve: epoch floor forced to {epoch}");
    }
    let repl = ReplOptions {
        replicate_to,
        follow,
        promote_on_disconnect,
    };
    match listen {
        Some(addr) => serve_tcp(&addr, shared.clone(), net, repl),
        None => serve_stdin(shared.clone()),
    }
    eprintln!("gomq-serve: stats {}", shared.stats());
}

/// Replication role flags forwarded into TCP mode.
struct ReplOptions {
    replicate_to: Option<String>,
    follow: Option<String>,
    promote_on_disconnect: bool,
}

/// TCP mode: accept loop + worker pool until SIGTERM/SIGINT, then a
/// graceful drain (finish in-flight, fsync WAL, final snapshot).
fn serve_tcp(addr: &str, shared: Arc<ServeShared>, net: NetConfig, repl: ReplOptions) {
    let drain = match DrainToken::with_signals() {
        Ok(token) => token,
        Err(e) => {
            eprintln!("gomq-serve: cannot install signal handlers: {e}");
            std::process::exit(1);
        }
    };
    let server = match NetServer::bind(addr) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("gomq-serve: cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("gomq-serve: listening on {}", server.local_addr());
    if let Some(repl_addr) = &repl.replicate_to {
        match gomq_engine::repl::start_primary(&shared, repl_addr, drain.clone()) {
            Ok(bound) => eprintln!("gomq-serve: replication listening on {bound}"),
            Err(e) => {
                eprintln!("gomq-serve: cannot listen for replicas on {repl_addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(primary) = &repl.follow {
        gomq_engine::repl::start_follower(
            &shared,
            gomq_engine::repl::FollowConfig {
                addr: primary.clone(),
                promote_on_disconnect: repl.promote_on_disconnect,
            },
            drain.clone(),
        );
        eprintln!("gomq-serve: following {primary}");
    }
    match server.serve(shared, net, drain) {
        Ok(report) => {
            eprintln!(
                "gomq-serve: drained: {} connections accepted, {} refused{}{}",
                report.conns_accepted,
                report.conns_refused,
                if report.drain_timed_out {
                    ", drain timed out (stragglers abandoned)"
                } else {
                    ""
                },
                if report.final_snapshot {
                    ", final snapshot cut"
                } else {
                    ""
                },
            );
        }
        Err(e) => {
            eprintln!("gomq-serve: listener failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Stdin mode: one session over stdin/stdout, sharing the TCP code
/// path via `handle_connection`. EOF finalizes durable sessions the
/// same way a TCP drain does.
fn serve_stdin(shared: Arc<ServeShared>) {
    let mut session = ServeSession::with_shared(shared.clone());
    let max_line = shared.max_line_bytes();
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let control = ConnControl {
        draining: None,
        idle_timeout: None,
    };
    let outcome = handle_connection(stdin.lock(), stdout.lock(), max_line, &control, |line| {
        session.handle_line(line)
    });
    match outcome.close {
        ConnClose::Read(e) => eprintln!("stdin error: {e}"),
        ConnClose::Write(_) => {} // downstream closed the pipe
        ConnClose::Eof | ConnClose::Drained | ConnClose::Idle => {}
    }
    if let Err(e) = shared.drain_persist() {
        eprintln!("gomq-serve: final session flush failed: {e}");
    }
}
