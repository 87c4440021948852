//! Primary/replica replication: WAL shipping over TCP with snapshot
//! bootstrap, staleness-bounded replica reads, and epoch fencing.
//!
//! # Wire protocol
//!
//! The replication stream reuses the WAL's outer frame format —
//! `[u32 payload_len][u64 fnv1a(payload)][payload]`, little-endian —
//! so both directions get the same torn/corrupt detection the journal
//! has. The first payload byte is a message tag:
//!
//! | tag | message     | body                                         |
//! |-----|-------------|----------------------------------------------|
//! | 1   | `HELLO`     | `u32` proto, `u64` last applied lsn, `u64` epoch |
//! | 2   | `SNAPSHOT`  | raw GOMQSNAP image                           |
//! | 3   | `RECORD`    | one complete inner WAL frame                 |
//! | 4   | `HEARTBEAT` | `u64` next lsn, `u64` epoch                  |
//! | 5   | `ACK`       | `u64` applied lsn                            |
//! | 6   | `FENCE`     | `u64` epoch                                  |
//!
//! A replica connection is: replica sends `HELLO` with its durable
//! position; the primary answers with a `SNAPSHOT` if the replica is
//! behind the retained log, then streams `RECORD` frames (each body is
//! byte-identical to what the primary journaled, so the replica
//! re-checks the checksum and re-interns the same symbolic facts —
//! replaying to byte-identical answers). The replica acknowledges
//! applied lsns with `ACK`; `HEARTBEAT` carries liveness plus the
//! primary's head lsn so the replica can report per-request staleness.
//!
//! # Fencing
//!
//! Promotion stamps `epoch = max(seen) + 1` into the WAL
//! ([`DurableSession::stamp_epoch`]) and then pushes `FENCE(epoch)` at
//! the old primary's replication address forever. Any node that
//! observes a higher epoch than its own while acting as a primary
//! flips to [`Role::Fenced`] and refuses writes with a typed
//! `"fenced"` status. Epoch records travel in the WAL itself, so a
//! fenced history is visible to recovery and to `gomq-cert`.
//!
//! Fault seams: [`faults::REPL_SHIP`] (primary drops a replica
//! connection mid-ship) and [`faults::REPL_APPLY`] (replica drops the
//! connection before applying) — both model TCP failure, never
//! corruption, because the frame checksums make corruption a *detected*
//! condition rather than a silent one.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gomq_core::faults;

use crate::cache::lock_recover;
use crate::drain::DrainToken;
use crate::serve::ServeShared;
use crate::session::{self, RecordSink, SessionError};
use crate::stats::Counter;
use crate::wal::{WalRecord, MAX_FRAME_BYTES};
use gomq_rewriting::fnv1a;

/// Replication protocol version carried in `HELLO`.
pub const PROTO_VERSION: u32 = 1;

const MSG_HELLO: u8 = 1;
const MSG_SNAPSHOT: u8 = 2;
const MSG_RECORD: u8 = 3;
const MSG_HEARTBEAT: u8 = 4;
const MSG_ACK: u8 = 5;
const MSG_FENCE: u8 = 6;

/// How long a sender waits on the hub before emitting a heartbeat.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(100);

/// Reconnect policy before `--promote-on-disconnect` fires: the
/// follower retries this many times with [`RECONNECT_DELAY`] between
/// attempts, so a transient drop (including the injected
/// `repl.ship`/`repl.apply` faults) reconnects instead of promoting.
const RECONNECT_ATTEMPTS: u32 = 8;
const RECONNECT_DELAY: Duration = Duration::from_millis(125);

/// One decoded replication message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplMsg {
    /// Replica → primary: protocol version, last applied lsn, epoch.
    Hello {
        /// Protocol version ([`PROTO_VERSION`]).
        proto: u32,
        /// The replica's last durably applied lsn.
        last_lsn: u64,
        /// The highest epoch the replica has seen.
        epoch: u64,
    },
    /// Primary → replica: a full GOMQSNAP image to install.
    Snapshot(Vec<u8>),
    /// Primary → replica: one inner WAL frame, byte-identical to the
    /// primary's journal.
    Record(Vec<u8>),
    /// Primary → replica: head lsn (next to be assigned) and epoch.
    Heartbeat {
        /// The next lsn the primary will assign (head + 1).
        next_lsn: u64,
        /// The primary's current epoch.
        epoch: u64,
    },
    /// Replica → primary: highest contiguously applied lsn.
    Ack(u64),
    /// Promoted node → old primary: you are superseded.
    Fence(u64),
}

impl ReplMsg {
    fn encode_payload(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            ReplMsg::Hello {
                proto,
                last_lsn,
                epoch,
            } => {
                b.push(MSG_HELLO);
                b.extend_from_slice(&proto.to_le_bytes());
                b.extend_from_slice(&last_lsn.to_le_bytes());
                b.extend_from_slice(&epoch.to_le_bytes());
            }
            ReplMsg::Snapshot(bytes) => {
                b.push(MSG_SNAPSHOT);
                b.extend_from_slice(bytes);
            }
            ReplMsg::Record(frame) => {
                b.push(MSG_RECORD);
                b.extend_from_slice(frame);
            }
            ReplMsg::Heartbeat { next_lsn, epoch } => {
                b.push(MSG_HEARTBEAT);
                b.extend_from_slice(&next_lsn.to_le_bytes());
                b.extend_from_slice(&epoch.to_le_bytes());
            }
            ReplMsg::Ack(lsn) => {
                b.push(MSG_ACK);
                b.extend_from_slice(&lsn.to_le_bytes());
            }
            ReplMsg::Fence(epoch) => {
                b.push(MSG_FENCE);
                b.extend_from_slice(&epoch.to_le_bytes());
            }
        }
        b
    }

    fn decode_payload(payload: &[u8]) -> Result<ReplMsg, String> {
        let (&tag, body) = payload.split_first().ok_or("empty repl payload")?;
        let u32_at = |off: usize| -> Result<u32, String> {
            body.get(off..off + 4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(|| "short repl message body".to_owned())
        };
        let u64_at = |off: usize| -> Result<u64, String> {
            body.get(off..off + 8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .ok_or_else(|| "short repl message body".to_owned())
        };
        match tag {
            MSG_HELLO => Ok(ReplMsg::Hello {
                proto: u32_at(0)?,
                last_lsn: u64_at(4)?,
                epoch: u64_at(12)?,
            }),
            MSG_SNAPSHOT => Ok(ReplMsg::Snapshot(body.to_vec())),
            MSG_RECORD => Ok(ReplMsg::Record(body.to_vec())),
            MSG_HEARTBEAT => Ok(ReplMsg::Heartbeat {
                next_lsn: u64_at(0)?,
                epoch: u64_at(8)?,
            }),
            MSG_ACK => Ok(ReplMsg::Ack(u64_at(0)?)),
            MSG_FENCE => Ok(ReplMsg::Fence(u64_at(0)?)),
            other => Err(format!("unknown repl message tag {other}")),
        }
    }
}

/// Writes one framed message: `[len][fnv1a][payload]`.
pub fn write_msg(w: &mut impl Write, msg: &ReplMsg) -> io::Result<usize> {
    let payload = msg.encode_payload();
    let mut frame = Vec::with_capacity(12 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Outcome of one framed read attempt.
enum ReadOutcome {
    Msg(ReplMsg),
    /// Read timeout expired with no bytes consumed — caller may poll
    /// shutdown conditions and retry.
    Idle,
    /// Peer closed the stream cleanly.
    Eof,
}

/// Reads one framed message. A read timeout *between* frames surfaces
/// as [`ReadOutcome::Idle`]; a timeout mid-frame keeps blocking on the
/// remainder (frames are small and the peer is mid-write), and EOF or a
/// checksum mismatch is an error.
fn read_msg(r: &mut impl Read) -> io::Result<ReadOutcome> {
    let mut header = [0u8; 12];
    match r.read(&mut header) {
        Ok(0) => return Ok(ReadOutcome::Eof),
        Ok(n) => {
            if let Err(e) = read_exact_blocking(r, &mut header[n..]) {
                return Err(corrupt(format!("torn repl frame header: {e}")));
            }
        }
        Err(e) if is_timeout(&e) => return Ok(ReadOutcome::Idle),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Err(corrupt(format!("repl frame of {len} bytes exceeds cap")));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_blocking(r, &mut payload)
        .map_err(|e| corrupt(format!("torn repl frame body: {e}")))?;
    if fnv1a(&payload) != sum {
        return Err(corrupt("repl frame checksum mismatch".to_owned()));
    }
    ReplMsg::decode_payload(&payload)
        .map(ReadOutcome::Msg)
        .map_err(corrupt)
}

/// `read_exact` that retries through read-timeout ticks (used once a
/// frame has started arriving, where a tick is not a liveness signal).
fn read_exact_blocking(r: &mut impl Read, mut buf: &mut [u8]) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !buf.is_empty() {
        match r.read(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            Ok(n) => buf = &mut buf[n..],
            Err(e) if is_timeout(&e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(io::ErrorKind::TimedOut, "stalled mid-frame"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// What a serving node currently is, replication-wise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// No replication configured — the pre-PR single-node behaviour.
    Single,
    /// Accepts writes and ships them to replicas.
    Primary,
    /// Applies the primary's stream; refuses writes (`"read-only"`).
    Follower,
    /// A primary superseded by a higher epoch; refuses writes
    /// (`"fenced"`) until an operator intervenes.
    Fenced,
}

impl Role {
    /// The role's wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            Role::Single => "single",
            Role::Primary => "primary",
            Role::Follower => "follower",
            Role::Fenced => "fenced",
        }
    }
}

/// Per-process replication state hanging off [`ServeShared`]. All
/// fields are lock-free reads on the hot request path.
pub struct ReplContext {
    role: AtomicU8,
    /// Highest primary head lsn observed (followers: from heartbeats).
    primary_lsn: AtomicU64,
    /// Highest epoch this node has seen (mirrors the session's durable
    /// view for lock-free reads).
    epoch: AtomicU64,
    /// Replica reads with `primary_lsn - position > max_staleness` are
    /// refused with `"status": "stale"`. `u64::MAX` = unbounded.
    max_staleness: AtomicU64,
    hub: Mutex<Option<Arc<ReplHub>>>,
    /// The address a promoted node fences (its old primary's
    /// replication listener).
    fence_target: Mutex<Option<String>>,
    /// The process drain token, so replication-spawned threads (the
    /// [`fencer`]) terminate on shutdown instead of leaking.
    drain: Mutex<Option<DrainToken>>,
}

impl Default for ReplContext {
    fn default() -> Self {
        ReplContext {
            role: AtomicU8::new(Role::Single as u8),
            primary_lsn: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            max_staleness: AtomicU64::new(u64::MAX),
            hub: Mutex::new(None),
            fence_target: Mutex::new(None),
            drain: Mutex::new(None),
        }
    }
}

impl ReplContext {
    /// This node's current role.
    pub fn role(&self) -> Role {
        match self.role.load(Ordering::Acquire) {
            1 => Role::Primary,
            2 => Role::Follower,
            3 => Role::Fenced,
            _ => Role::Single,
        }
    }

    /// Transitions the node's role.
    pub fn set_role(&self, role: Role) {
        self.role.store(role as u8, Ordering::Release);
    }

    /// The highest epoch this node has observed.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Raises the observed epoch (monotone).
    pub fn observe_epoch(&self, epoch: u64) {
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
    }

    /// The primary's head lsn as last observed (follower side).
    pub fn primary_lsn(&self) -> u64 {
        self.primary_lsn.load(Ordering::Acquire)
    }

    /// Raises the observed primary head lsn (monotone).
    pub fn note_primary_lsn(&self, lsn: u64) {
        self.primary_lsn.fetch_max(lsn, Ordering::AcqRel);
    }

    /// The configured staleness refusal bound (`u64::MAX` = none).
    pub fn max_staleness(&self) -> u64 {
        self.max_staleness.load(Ordering::Acquire)
    }

    /// Sets the staleness refusal bound.
    pub fn set_max_staleness(&self, bound: u64) {
        self.max_staleness.store(bound, Ordering::Release);
    }

    /// The primary's fan-out hub, when replication is serving.
    pub fn hub(&self) -> Option<Arc<ReplHub>> {
        lock_recover(&self.hub).clone()
    }

    /// Installs the fan-out hub (primary startup).
    pub fn set_hub(&self, hub: Arc<ReplHub>) {
        *lock_recover(&self.hub) = Some(hub);
    }

    /// The old primary's replication address a promotion will fence.
    pub fn fence_target(&self) -> Option<String> {
        lock_recover(&self.fence_target).clone()
    }

    /// Remembers the address to fence on promotion (follower startup).
    pub fn set_fence_target(&self, addr: String) {
        *lock_recover(&self.fence_target) = Some(addr);
    }

    /// The process drain token (set at replication startup). Falls back
    /// to a never-tripping token for contexts that never registered one.
    pub fn drain_token(&self) -> DrainToken {
        lock_recover(&self.drain).clone().unwrap_or_default()
    }

    /// Registers the process drain token replication threads observe.
    pub fn set_drain_token(&self, token: DrainToken) {
        *lock_recover(&self.drain) = Some(token);
    }
}

struct HubInner {
    /// Lsn floor: frames with lsn ≤ `floor_lsn` predate the hub or have
    /// been pruned after every connected replica acknowledged them, and
    /// can only be obtained via snapshot bootstrap.
    floor_lsn: u64,
    /// Published frames past `floor_lsn`, ascending lsn (publishes come
    /// off the journal under the session lock, so lsns arrive in
    /// order). Pruned up to `min(acks)` as replicas acknowledge — or,
    /// with no replica connected, up to the last durable snapshot — so
    /// memory is bounded by the furthest-behind connected replica plus
    /// one snapshot interval, not the process lifetime.
    frames: Vec<(u64, Vec<u8>)>,
    /// Lsn of the primary's most recent durable snapshot. Frames at or
    /// below it are recoverable via snapshot bootstrap, so they need no
    /// retention once no connected replica still wants them.
    snapshot_lsn: u64,
    last_lsn: u64,
    acks: HashMap<u64, u64>,
    next_conn: u64,
    closed: bool,
}

impl HubInner {
    /// Drops frames every connected replica has acknowledged — or, with
    /// no replica connected, frames the last durable snapshot covers —
    /// and advances the floor. A replica that later HELLOs from below
    /// the floor is routed through snapshot bootstrap instead; a
    /// *connected* replica's cursor can never fall below the floor,
    /// because its own ack entry pins `min(acks)`.
    fn prune(&mut self) {
        let target = self
            .acks
            .values()
            .copied()
            .min()
            .unwrap_or(self.snapshot_lsn)
            .min(self.last_lsn);
        if target > self.floor_lsn {
            let keep = self.frames.partition_point(|(l, _)| *l <= target);
            self.frames.drain(..keep);
            self.floor_lsn = target;
        }
    }
}

/// The primary's fan-out buffer: the durable session publishes every
/// journaled frame here (via [`RecordSink`]), and one sender thread per
/// replica connection drains it at its own pace.
pub struct ReplHub {
    inner: Mutex<HubInner>,
    cv: Condvar,
}

/// What a sender learns from waiting on the hub.
enum HubWait {
    /// New frames past the cursor (ascending lsn).
    Frames(Vec<(u64, Vec<u8>)>),
    /// Nothing new within the heartbeat interval.
    Quiet {
        last_lsn: u64,
    },
    Closed,
}

impl ReplHub {
    /// `base_lsn` is the primary's last applied lsn at hub creation:
    /// everything at or before it is only reachable via snapshot.
    pub fn new(base_lsn: u64) -> Self {
        ReplHub {
            inner: Mutex::new(HubInner {
                floor_lsn: base_lsn,
                frames: Vec::new(),
                snapshot_lsn: base_lsn,
                last_lsn: base_lsn,
                acks: HashMap::new(),
                next_conn: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// The lsn floor below which only a snapshot can catch a replica up
    /// (advances as acknowledged frames are pruned).
    pub fn retained_floor(&self) -> u64 {
        lock_recover(&self.inner).floor_lsn
    }

    /// The highest lsn published to the hub.
    pub fn last_lsn(&self) -> u64 {
        lock_recover(&self.inner).last_lsn
    }

    fn register(&self, acked: u64) -> u64 {
        let mut g = lock_recover(&self.inner);
        let id = g.next_conn;
        g.next_conn += 1;
        g.acks.insert(id, acked);
        id
    }

    fn deregister(&self, id: u64) {
        let mut g = lock_recover(&self.inner);
        g.acks.remove(&id);
        g.prune();
        drop(g);
        self.cv.notify_all();
    }

    fn record_ack(&self, id: u64, lsn: u64) {
        let mut g = lock_recover(&self.inner);
        if let Some(a) = g.acks.get_mut(&id) {
            *a = (*a).max(lsn);
        }
        g.prune();
        drop(g);
        self.cv.notify_all();
    }

    /// Blocks until every currently connected replica has acknowledged
    /// the hub's head lsn (or `timeout` passes). Returns `true` when
    /// fully replicated — with zero connected replicas that is
    /// trivially true, matching single-node drain semantics.
    pub fn wait_replicated(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = lock_recover(&self.inner);
        loop {
            let head = g.last_lsn;
            if g.acks.values().all(|&a| a >= head) {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }

    /// Marks the hub closed: senders ship any remaining backlog and
    /// then drain out; further publishes become no-ops. Call only after
    /// [`ReplHub::wait_replicated`] — [`crate::ServeShared::drain_persist`]
    /// owns this ordering — so closing never strands frames a client was
    /// already acknowledged for.
    pub fn close(&self) {
        lock_recover(&self.inner).closed = true;
        self.cv.notify_all();
    }

    /// Waits up to [`HEARTBEAT_EVERY`] for frames past `cursor`.
    /// Pending frames are delivered even on a closed hub — `Closed`
    /// only surfaces once nothing past the cursor remains, so a
    /// drain-time close cannot drop acknowledged-but-unshipped frames.
    fn wait_past(&self, cursor: u64) -> HubWait {
        let deadline = Instant::now() + HEARTBEAT_EVERY;
        let mut g = lock_recover(&self.inner);
        loop {
            if g.last_lsn > cursor {
                let from = g.frames.partition_point(|(l, _)| *l <= cursor);
                if from < g.frames.len() {
                    return HubWait::Frames(g.frames[from..].to_vec());
                }
            }
            if g.closed {
                return HubWait::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return HubWait::Quiet {
                    last_lsn: g.last_lsn,
                };
            }
            let (guard, _) = self
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
    }
}

impl RecordSink for ReplHub {
    fn publish(&self, lsn: u64, frame: Vec<u8>) {
        let mut g = lock_recover(&self.inner);
        if g.closed {
            return;
        }
        g.frames.push((lsn, frame));
        g.last_lsn = g.last_lsn.max(lsn);
        drop(g);
        self.cv.notify_all();
    }

    fn note_snapshot(&self, lsn: u64) {
        let mut g = lock_recover(&self.inner);
        g.snapshot_lsn = g.snapshot_lsn.max(lsn);
        g.prune();
    }
}

/// The primary's replication listener. Bind first (so the caller can
/// report the bound address), then [`ReplServer::serve`] on a thread.
pub struct ReplServer {
    listener: TcpListener,
}

impl ReplServer {
    /// Binds the replication listener (non-blocking accepts).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(ReplServer { listener })
    }

    /// The bound listener address (for `:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop: one sender thread + one ack-reader thread per
    /// replica connection. Blocks until drain. Deliberately does NOT
    /// close the hub on drain: in-flight requests may still be
    /// journaling acknowledged writes, and the senders must keep
    /// shipping until replicas ack them. The hub is closed by
    /// [`crate::ServeShared::drain_persist`] after its replication
    /// flush.
    pub fn serve(self, shared: Arc<ServeShared>, hub: Arc<ReplHub>, token: DrainToken) {
        loop {
            if token.is_draining() {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&shared);
                    let hub = Arc::clone(&hub);
                    let token = token.clone();
                    std::thread::spawn(move || serve_replica(stream, shared, hub, token));
                }
                Err(e) if is_timeout(&e) => std::thread::sleep(Duration::from_millis(25)),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }
}

/// One replica connection on the primary: handshake, optional snapshot,
/// then stream records until the replica drops, drain starts, or the
/// `repl.ship` fault seam fires.
fn serve_replica(
    stream: TcpStream,
    shared: Arc<ServeShared>,
    hub: Arc<ReplHub>,
    token: DrainToken,
) {
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return;
    }
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;

    // Handshake: wait (bounded) for HELLO. A FENCE here is the
    // resurrected-primary case: a promoted replica is telling us we
    // are superseded.
    let hello_deadline = Instant::now() + Duration::from_secs(10);
    let (replica_lsn, replica_epoch) = loop {
        match read_msg(&mut reader) {
            Ok(ReadOutcome::Msg(ReplMsg::Hello {
                proto,
                last_lsn,
                epoch,
            })) => {
                if proto != PROTO_VERSION {
                    eprintln!("gomq-serve: repl: refusing replica with protocol {proto}");
                    return;
                }
                break (last_lsn, epoch);
            }
            Ok(ReadOutcome::Msg(ReplMsg::Fence(epoch))) => {
                fence_if_superseded(&shared, epoch);
                return;
            }
            Ok(ReadOutcome::Msg(_)) | Ok(ReadOutcome::Eof) | Err(_) => return,
            Ok(ReadOutcome::Idle) => {
                if token.is_draining() || Instant::now() >= hello_deadline {
                    return;
                }
            }
        }
    };
    // A replica that has lived through a higher epoch than ours means
    // *we* are the stale primary.
    if replica_epoch > shared.repl().epoch() {
        fence_if_superseded(&shared, replica_epoch);
        return;
    }

    let conn = hub.register(replica_lsn);
    let alive = Arc::new(AtomicBool::new(true));

    // Ack/fence reader.
    {
        let hub = Arc::clone(&hub);
        let shared = Arc::clone(&shared);
        let alive = Arc::clone(&alive);
        std::thread::spawn(move || {
            loop {
                match read_msg(&mut reader) {
                    Ok(ReadOutcome::Msg(ReplMsg::Ack(lsn))) => hub.record_ack(conn, lsn),
                    Ok(ReadOutcome::Msg(ReplMsg::Fence(epoch))) => {
                        fence_if_superseded(&shared, epoch);
                    }
                    Ok(ReadOutcome::Msg(_)) => {}
                    Ok(ReadOutcome::Idle) => {
                        if !alive.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    Ok(ReadOutcome::Eof) | Err(_) => break,
                }
            }
            alive.store(false, Ordering::Release);
        });
    }

    let mut cursor = replica_lsn;
    // Bootstrap: a replica behind the hub's retained window gets the
    // current snapshot ("copy immutable objects, then flip HEAD"), and
    // resumes tailing from the snapshot's lsn. Checked after register:
    // our ack entry pins the prune floor, so the floor cannot race past
    // a cursor it was just observed at or below.
    if cursor < hub.retained_floor() {
        let (bytes, snap_lsn) = {
            let session = shared.session_lock();
            let vocab = shared.vocab_lock();
            (
                session.encode_current_snapshot(&vocab),
                session.position().0,
            )
        };
        let size = bytes.len() as u64;
        if write_msg(&mut writer, &ReplMsg::Snapshot(bytes)).is_err() {
            hub.deregister(conn);
            alive.store(false, Ordering::Release);
            return;
        }
        shared.engine().add(Counter::ReplSnapshotsShipped, 1);
        shared.engine().add(Counter::ReplBytesShipped, size);
        cursor = snap_lsn;
    }

    loop {
        if token.is_draining() && hub.wait_replicated(Duration::from_millis(0)) {
            // Drained and everything acked — let the connection go.
            break;
        }
        if !alive.load(Ordering::Acquire) {
            break;
        }
        match hub.wait_past(cursor) {
            HubWait::Frames(frames) => {
                let mut failed = false;
                for (lsn, frame) in frames {
                    if let Some(faults::IoFault::Error | faults::IoFault::Short) =
                        faults::io_point(faults::REPL_SHIP)
                    {
                        eprintln!("gomq-serve: repl: chaos dropped replica connection (ship)");
                        failed = true;
                        break;
                    }
                    match write_msg(&mut writer, &ReplMsg::Record(frame)) {
                        Ok(n) => {
                            shared.engine().add(Counter::ReplFramesShipped, 1);
                            shared.engine().add(Counter::ReplBytesShipped, n as u64);
                            cursor = lsn;
                        }
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                if failed {
                    break;
                }
            }
            HubWait::Quiet { last_lsn } => {
                let msg = ReplMsg::Heartbeat {
                    next_lsn: last_lsn + 1,
                    epoch: shared.repl().epoch(),
                };
                if write_msg(&mut writer, &msg).is_err() {
                    break;
                }
            }
            HubWait::Closed => break,
        }
    }
    let _ = writer.shutdown(std::net::Shutdown::Both);
    alive.store(false, Ordering::Release);
    hub.deregister(conn);
}

/// Observes a peer epoch and, if this node believed itself writable,
/// fences it: writes are refused with `"status": "fenced"` from here on.
pub fn fence_if_superseded(shared: &Arc<ServeShared>, peer_epoch: u64) {
    let ctx = shared.repl();
    if peer_epoch <= ctx.epoch() {
        return;
    }
    ctx.observe_epoch(peer_epoch);
    {
        let mut session = shared.session_lock();
        session.observe_epoch(peer_epoch);
    }
    match ctx.role() {
        Role::Primary | Role::Single => {
            ctx.set_role(Role::Fenced);
            eprintln!("gomq-serve: repl: fenced by epoch {peer_epoch} — refusing writes");
        }
        Role::Follower | Role::Fenced => {}
    }
}

/// Promotes this node to primary: stamps `max(seen epoch) + 1` into the
/// WAL and starts fencing the old primary's replication address.
/// Returns `(epoch, lsn of the epoch record)`.
pub fn promote(shared: &Arc<ServeShared>, reason: &str) -> Result<(u64, u64), SessionError> {
    let ctx = shared.repl();
    let (epoch, lsn) = {
        let mut session = shared.session_lock();
        let epoch = session.repl_epoch().max(ctx.epoch()) + 1;
        let info = session.stamp_epoch(epoch)?;
        (epoch, info.lsn)
    };
    ctx.observe_epoch(epoch);
    ctx.set_role(Role::Primary);
    shared.engine().add(Counter::ReplPromotions, 1);
    eprintln!("gomq-serve: repl: promoted to primary at epoch {epoch} (lsn {lsn}): {reason}");
    if let Some(addr) = ctx.fence_target() {
        let token = ctx.drain_token();
        std::thread::spawn(move || fencer(addr, epoch, token));
    }
    Ok((epoch, lsn))
}

/// Starts primary-side replication: binds the replication listener on
/// `addr`, wires the durable session's journal into a fan-out
/// [`ReplHub`], and spawns the accept loop. Returns the bound address
/// (for `:0` ephemeral ports). Requires a durable session — there is
/// no WAL to ship otherwise.
pub fn start_primary(
    shared: &Arc<ServeShared>,
    addr: &str,
    token: DrainToken,
) -> io::Result<SocketAddr> {
    let hub = {
        let mut session = shared.session_lock();
        if !session.is_durable() {
            return Err(io::Error::other(
                "--replicate-to requires --data-dir (replication ships the WAL)",
            ));
        }
        let hub = Arc::new(ReplHub::new(session.position().0));
        session.set_publisher(Arc::clone(&hub) as Arc<dyn RecordSink>);
        hub
    };
    shared.repl().set_hub(Arc::clone(&hub));
    shared.repl().set_role(Role::Primary);
    shared.repl().set_drain_token(token.clone());
    let server = ReplServer::bind(addr)?;
    let bound = server.local_addr()?;
    let shared = Arc::clone(shared);
    std::thread::spawn(move || server.serve(shared, hub, token));
    Ok(bound)
}

/// Starts follower-side replication: flips the role to
/// [`Role::Follower`], remembers the primary's address as the fence
/// target for a later promotion, and spawns the tailing loop
/// ([`run_follower`]). Call after [`bootstrap_follower`] and session
/// recovery.
pub fn start_follower(shared: &Arc<ServeShared>, cfg: FollowConfig, token: DrainToken) {
    shared.repl().set_fence_target(cfg.addr.clone());
    shared.repl().set_role(Role::Follower);
    shared.repl().set_drain_token(token.clone());
    let shared = Arc::clone(shared);
    std::thread::spawn(move || run_follower(shared, cfg, token));
}

/// Forces the node's observed epoch floor (the `--epoch` operator
/// override, for resurrecting a node at a known fencing point).
pub fn force_epoch(shared: &Arc<ServeShared>, epoch: u64) {
    shared.repl().observe_epoch(epoch);
    shared.session_lock().observe_epoch(epoch);
}

/// Pushes `FENCE(epoch)` at the old primary's replication address until
/// the process drains, so a resurrected process is fenced no matter
/// when it comes back during this primary's lifetime. One connection
/// attempt every 250ms is negligible load, and the drain token bounds
/// the thread's life.
fn fencer(addr: String, epoch: u64, token: DrainToken) {
    while !token.is_draining() {
        if let Ok(mut stream) = TcpStream::connect_timeout_compat(&addr, Duration::from_millis(500))
        {
            let _ = write_msg(&mut stream, &ReplMsg::Fence(epoch));
            // Give the peer a beat to read before we drop the socket.
            std::thread::sleep(Duration::from_millis(50));
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// `TcpStream::connect_timeout` needs a resolved `SocketAddr`; this
/// resolves a host:port string first (taking the first resolution).
trait ConnectCompat {
    fn connect_timeout_compat(addr: &str, timeout: Duration) -> io::Result<TcpStream>;
}

impl ConnectCompat for TcpStream {
    fn connect_timeout_compat(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
        use std::net::ToSocketAddrs;
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address did not resolve"))?;
        TcpStream::connect_timeout(&resolved, timeout)
    }
}

/// Follower configuration (`gomq-serve --follow`).
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// The primary's replication listener address.
    pub addr: String,
    /// Promote automatically once the reconnect window is exhausted.
    pub promote_on_disconnect: bool,
}

/// Pre-open bootstrap: probe the data directory's durable position,
/// ask the primary for a snapshot if we are behind its retained log,
/// and install it (then the normal [`ServeShared`] open recovers from
/// it). Returns the position the follower will recover to. Failure to
/// reach the primary is an error — a follower must not silently start
/// from a stale position without even trying.
pub fn bootstrap_follower(dir: &Path, addr: &str) -> io::Result<(u64, u64)> {
    let (local_lsn, local_epoch) = session::local_log_position(dir)
        .map_err(|e| corrupt(format!("probing {}: {e}", dir.display())))?;
    let mut stream = connect_with_retry(addr, 40)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    write_msg(
        &mut stream,
        &ReplMsg::Hello {
            proto: PROTO_VERSION,
            last_lsn: local_lsn,
            epoch: local_epoch,
        },
    )?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match read_msg(&mut stream)? {
            ReadOutcome::Msg(ReplMsg::Snapshot(bytes)) => {
                let (snap_lsn, snap_epoch) = session::snapshot_position(&bytes)
                    .ok_or_else(|| corrupt("primary shipped an unparseable snapshot".to_owned()))?;
                install_snapshot(dir, &bytes)?;
                eprintln!(
                    "gomq-serve: repl: bootstrap installed snapshot (lsn {snap_lsn}, epoch {snap_epoch}, {} bytes)",
                    bytes.len()
                );
                return Ok((snap_lsn, snap_epoch));
            }
            // Record or heartbeat first means our local log is within
            // the primary's retained window — recover locally and tail.
            ReadOutcome::Msg(ReplMsg::Record(_) | ReplMsg::Heartbeat { .. }) => {
                return Ok((local_lsn, local_epoch));
            }
            ReadOutcome::Msg(ReplMsg::Fence(epoch)) => {
                return Err(corrupt(format!("primary is fenced at epoch {epoch}")));
            }
            ReadOutcome::Msg(_) => return Err(corrupt("unexpected bootstrap message".to_owned())),
            ReadOutcome::Eof => return Err(corrupt("primary closed during bootstrap".to_owned())),
            ReadOutcome::Idle => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "primary sent nothing during bootstrap",
                    ));
                }
            }
        }
    }
}

fn connect_with_retry(addr: &str, attempts: u32) -> io::Result<TcpStream> {
    let mut last = None;
    for _ in 0..attempts {
        match TcpStream::connect_timeout_compat(addr, Duration::from_millis(500)) {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("no connect attempts made")))
}

/// Atomically installs a shipped snapshot image and clears any stale
/// journal, so the next open recovers exactly the snapshot state. The
/// image and its rename are fsynced *before* the old journal is
/// removed: a crash at any point leaves either the old (snapshot, wal)
/// pair or a durable new snapshot — never a torn snapshot with the
/// journal already gone.
fn install_snapshot(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join("snapshot.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(session::SNAPSHOT_FILE))?;
    // Durable rename needs the directory synced too; best effort on
    // filesystems that refuse to fsync directories.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_data();
    }
    for stale in [session::WAL_FILE, "wal.old"] {
        match std::fs::remove_file(dir.join(stale)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The follower's tailing loop: connect, HELLO from the session's
/// position, apply the stream, reconnect on drops, and (optionally)
/// promote once the reconnect window is exhausted. Blocks; run on a
/// thread. Returns when the node stops being a follower.
pub fn run_follower(shared: Arc<ServeShared>, cfg: FollowConfig, token: DrainToken) {
    let mut failures = 0u32;
    loop {
        if shared.repl().role() != Role::Follower || token.is_draining() {
            return;
        }
        match follow_once(&shared, &cfg.addr, &token) {
            FollowEnd::Progress => failures = 0,
            FollowEnd::NoProgress => failures += 1,
            FollowEnd::Stop => return,
        }
        if shared.repl().role() != Role::Follower || token.is_draining() {
            return;
        }
        shared.engine().add(Counter::ReplReconnects, 1);
        if failures >= RECONNECT_ATTEMPTS {
            if cfg.promote_on_disconnect {
                // Stamping the epoch journals one record; a transient
                // (or chaos-injected) append failure rolls the log back
                // cleanly, so retry a few times before giving up.
                for attempt in 1..=5 {
                    match promote(&shared, "primary unreachable past reconnect window") {
                        Ok(_) => return,
                        Err(e) if attempt < 5 => {
                            eprintln!("gomq-serve: repl: promotion attempt {attempt} failed: {e}");
                            std::thread::sleep(Duration::from_millis(100));
                        }
                        Err(e) => {
                            eprintln!("gomq-serve: repl: promotion failed: {e}");
                            return;
                        }
                    }
                }
                return;
            }
            // No auto-promotion: keep trying at a gentle pace forever.
            std::thread::sleep(Duration::from_secs(1));
        } else {
            std::thread::sleep(RECONNECT_DELAY);
        }
    }
}

enum FollowEnd {
    /// The connection made progress (applied records or heartbeats) —
    /// reset the reconnect counter.
    Progress,
    /// Could not connect, or dropped before any message arrived.
    NoProgress,
    /// Stop following entirely (drain, role change, fatal apply error).
    Stop,
}

/// One follower connection: returns when it drops.
fn follow_once(shared: &Arc<ServeShared>, addr: &str, token: &DrainToken) -> FollowEnd {
    let mut stream = match TcpStream::connect_timeout_compat(addr, Duration::from_millis(500)) {
        Ok(s) => s,
        Err(_) => return FollowEnd::NoProgress,
    };
    let _ = stream.set_nodelay(true);
    if stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .is_err()
    {
        return FollowEnd::NoProgress;
    }
    let (last_lsn, epoch) = {
        let session = shared.session_lock();
        (session.position().0, session.repl_epoch())
    };
    if write_msg(
        &mut stream,
        &ReplMsg::Hello {
            proto: PROTO_VERSION,
            last_lsn,
            epoch,
        },
    )
    .is_err()
    {
        return FollowEnd::NoProgress;
    }
    let mut progressed = false;
    let outcome = loop {
        if token.is_draining() || shared.repl().role() != Role::Follower {
            break FollowEnd::Stop;
        }
        match read_msg(&mut stream) {
            Ok(ReadOutcome::Msg(ReplMsg::Record(frame))) => {
                if let Some(faults::IoFault::Error | faults::IoFault::Short) =
                    faults::io_point(faults::REPL_APPLY)
                {
                    eprintln!("gomq-serve: repl: chaos dropped primary connection (apply)");
                    break end(progressed);
                }
                let (lsn, record, _len) = match WalRecord::decode_frame(&frame) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("gomq-serve: repl: bad record frame: {e}");
                        break end(progressed);
                    }
                };
                match apply_record(shared, lsn, &record) {
                    Ok(fresh) => {
                        progressed = true;
                        shared.repl().note_primary_lsn(lsn);
                        let applied_lsn = shared.session_lock().position().0;
                        let engine = shared.engine();
                        engine.add(Counter::ReplRecordsApplied, u64::from(fresh));
                        engine.add(Counter::ReplBytesApplied, frame.len() as u64);
                        engine.set(
                            Counter::ReplLagLsn,
                            shared.repl().primary_lsn().saturating_sub(applied_lsn),
                        );
                        if write_msg(&mut stream, &ReplMsg::Ack(applied_lsn)).is_err() {
                            break end(progressed);
                        }
                    }
                    Err(SessionError::Corrupt(msg)) if msg.contains("replication gap") => {
                        // Reconnect re-HELLOs from our durable position,
                        // which makes the primary re-ship the gap.
                        eprintln!("gomq-serve: repl: {msg}; reconnecting");
                        break end(progressed);
                    }
                    Err(SessionError::Io(msg)) => {
                        // A failed journal append rolled the local log
                        // back to the pre-record position, so the
                        // record was not applied and a reconnect makes
                        // the primary re-ship it. Transient (and
                        // chaos-injected) I/O must not kill replication
                        // for good.
                        eprintln!("gomq-serve: repl: apply I/O error: {msg}; reconnecting");
                        break end(progressed);
                    }
                    Err(e) => {
                        eprintln!("gomq-serve: repl: fatal apply error: {e}");
                        break FollowEnd::Stop;
                    }
                }
            }
            Ok(ReadOutcome::Msg(ReplMsg::Heartbeat { next_lsn, epoch })) => {
                progressed = true;
                shared.repl().note_primary_lsn(next_lsn.saturating_sub(1));
                if epoch > shared.repl().epoch() {
                    shared.repl().observe_epoch(epoch);
                    shared.session_lock().observe_epoch(epoch);
                }
                let applied = shared.session_lock().position().0;
                shared.engine().set(
                    Counter::ReplLagLsn,
                    shared.repl().primary_lsn().saturating_sub(applied),
                );
            }
            Ok(ReadOutcome::Msg(ReplMsg::Snapshot(bytes))) => {
                // The primary pruned its retained log past our position
                // while we were disconnected: re-bootstrap in place by
                // installing the shipped snapshot over the live session
                // and tail from its lsn.
                let installed = shared.with_durable_consts(|session, vocab| {
                    session.install_replicated_snapshot(&bytes, vocab)
                });
                match installed {
                    Ok((lsn, _epoch)) => {
                        eprintln!(
                            "gomq-serve: repl: installed primary snapshot (lsn {lsn}, {} bytes)",
                            bytes.len()
                        );
                        progressed = true;
                        shared.repl().note_primary_lsn(lsn);
                        if write_msg(&mut stream, &ReplMsg::Ack(lsn)).is_err() {
                            break end(progressed);
                        }
                    }
                    Err(SessionError::Io(msg)) => {
                        // Disk trouble is transient; reconnecting re-ships
                        // the snapshot.
                        eprintln!(
                            "gomq-serve: repl: snapshot install I/O error: {msg}; reconnecting"
                        );
                        break end(progressed);
                    }
                    Err(e) => {
                        eprintln!("gomq-serve: repl: fatal snapshot install error: {e}");
                        break FollowEnd::Stop;
                    }
                }
            }
            Ok(ReadOutcome::Msg(ReplMsg::Fence(epoch))) => {
                fence_if_superseded(shared, epoch);
            }
            Ok(ReadOutcome::Msg(_)) => {}
            Ok(ReadOutcome::Idle) => {}
            Ok(ReadOutcome::Eof) | Err(_) => break end(progressed),
        }
    };
    let _ = stream.shutdown(std::net::Shutdown::Both);
    outcome
}

/// Applies one replicated record to the live session, snapshotting
/// when the policy says so. The record's constants are session
/// constants, kept past the scope of any request in flight.
fn apply_record(shared: &ServeShared, lsn: u64, record: &WalRecord) -> Result<bool, SessionError> {
    shared.with_durable_consts(|session, vocab| {
        let r = session.apply_replicated(lsn, record, vocab);
        if r.is_ok() && session.snapshot_due() {
            if let Err(e) = session.snapshot_now(vocab) {
                eprintln!("gomq-serve: repl: replica snapshot failed: {e}");
            } else {
                shared.engine().add(Counter::Snapshots, 1);
            }
        }
        r
    })
}

fn end(progressed: bool) -> FollowEnd {
    if progressed {
        FollowEnd::Progress
    } else {
        FollowEnd::NoProgress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gomq_core::{Term, Vocab};

    /// A follower applies replicated asserts while client requests are
    /// in flight. The record's constants belong to the session store,
    /// so the in-flight request's scope exit must not roll them back —
    /// a later read would render (or panic on) a dangling constant.
    #[test]
    fn replicated_constants_survive_an_in_flight_request() {
        use crate::serve::{ServeConfig, ServeSession};
        let dir = crate::scratch::ScratchDir::new("repl-consts");
        let config = ServeConfig {
            threads: 1,
            data_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        };
        let shared = Arc::new(ServeShared::try_with_config(config).unwrap().0);
        let record = {
            let mut v = Vocab::new();
            let manager = v.rel("Manager", 1);
            let f0 = Term::Const(v.constant("f0"));
            WalRecord::Assert(vec![session::sym_fact(&v, manager, &[f0])])
        };
        // A request's scope is open when the record lands.
        shared.scope_enter();
        assert_eq!(apply_record(&shared, 1, &record), Ok(true));
        shared.scope_exit();
        let mut reads = ServeSession::with_shared(Arc::clone(&shared));
        let q = reads.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        assert!(q.contains(r#""answers": [["f0"]]"#), "{q}");
    }

    #[test]
    fn messages_roundtrip_through_frames() {
        let msgs = [
            ReplMsg::Hello {
                proto: PROTO_VERSION,
                last_lsn: 42,
                epoch: 7,
            },
            ReplMsg::Snapshot(vec![1, 2, 3, 4]),
            ReplMsg::Record(vec![9; 33]),
            ReplMsg::Heartbeat {
                next_lsn: 100,
                epoch: 3,
            },
            ReplMsg::Ack(99),
            ReplMsg::Fence(5),
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            write_msg(&mut wire, m).unwrap();
        }
        let mut r = io::Cursor::new(wire);
        for m in &msgs {
            match read_msg(&mut r).unwrap() {
                ReadOutcome::Msg(got) => assert_eq!(&got, m),
                _ => panic!("expected a message"),
            }
        }
        match read_msg(&mut r).unwrap() {
            ReadOutcome::Eof => {}
            _ => panic!("expected eof"),
        }
    }

    #[test]
    fn corrupt_frame_is_rejected() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &ReplMsg::Ack(7)).unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0xff;
        let mut r = io::Cursor::new(wire);
        let err = match read_msg(&mut r) {
            Err(e) => e,
            Ok(_) => panic!("checksum mismatch must error"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        wire.extend_from_slice(&0u64.to_le_bytes());
        let mut r = io::Cursor::new(wire);
        assert!(read_msg(&mut r).is_err());
    }

    #[test]
    fn hub_tracks_acks_and_wait_replicated() {
        let hub = ReplHub::new(10);
        assert!(
            hub.wait_replicated(Duration::from_millis(0)),
            "no replicas = replicated"
        );
        let a = hub.register(10);
        hub.publish(11, vec![1]);
        hub.publish(12, vec![2]);
        assert!(!hub.wait_replicated(Duration::from_millis(10)));
        match hub.wait_past(10) {
            HubWait::Frames(f) => {
                assert_eq!(f.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![11, 12]);
            }
            _ => panic!("expected frames"),
        }
        hub.record_ack(a, 12);
        assert!(hub.wait_replicated(Duration::from_millis(10)));
        match hub.wait_past(12) {
            HubWait::Quiet { last_lsn } => assert_eq!(last_lsn, 12),
            _ => panic!("expected quiet"),
        }
        hub.deregister(a);
        assert!(hub.wait_replicated(Duration::from_millis(0)));
    }

    #[test]
    fn hub_prunes_acknowledged_frames() {
        let hub = ReplHub::new(0);
        // No replica connected, no snapshot yet: frames are retained so
        // a reconnecting replica can still tail the log.
        hub.publish(1, vec![1]);
        assert_eq!(hub.retained_floor(), 0);
        // A durable snapshot releases everything it covers.
        hub.note_snapshot(1);
        assert_eq!(hub.retained_floor(), 1);
        let a = hub.register(1);
        hub.publish(2, vec![2]);
        hub.publish(3, vec![3]);
        // Retained while the connected replica is behind...
        assert_eq!(hub.retained_floor(), 1);
        hub.record_ack(a, 2);
        // ...pruned up to its ack...
        assert_eq!(hub.retained_floor(), 2);
        match hub.wait_past(2) {
            HubWait::Frames(f) => {
                assert_eq!(f.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![3]);
            }
            _ => panic!("expected frames"),
        }
        // A connected-but-behind replica pins the floor across a
        // snapshot cut (no gap can open under its cursor)...
        hub.note_snapshot(3);
        assert_eq!(hub.retained_floor(), 2);
        hub.deregister(a);
        // ...and departure releases the snapshot-covered remainder: a
        // newcomer below the floor bootstraps from a snapshot.
        assert_eq!(hub.retained_floor(), 3);
    }

    #[test]
    fn hub_close_delivers_backlog_before_closed() {
        let hub = ReplHub::new(0);
        let a = hub.register(0);
        hub.publish(1, vec![1]);
        hub.publish(2, vec![2]);
        hub.close();
        // A sender on a closed hub still receives the backlog — a
        // drain-time close must not strand acknowledged frames...
        match hub.wait_past(0) {
            HubWait::Frames(f) => {
                assert_eq!(f.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![1, 2]);
            }
            _ => panic!("backlog must be delivered on a closed hub"),
        }
        hub.record_ack(a, 2);
        // ...while publishes after close are dropped, and Closed only
        // surfaces once nothing past the cursor remains.
        hub.publish(3, vec![3]);
        match hub.wait_past(2) {
            HubWait::Closed => {}
            _ => panic!("expected closed"),
        }
    }

    #[test]
    fn hub_close_wakes_waiters() {
        let hub = Arc::new(ReplHub::new(0));
        let h2 = Arc::clone(&hub);
        let t = std::thread::spawn(move || matches!(h2.wait_past(0), HubWait::Closed));
        std::thread::sleep(Duration::from_millis(20));
        hub.close();
        assert!(t.join().unwrap());
    }

    #[test]
    fn repl_context_role_and_epoch() {
        let ctx = ReplContext::default();
        assert_eq!(ctx.role(), Role::Single);
        ctx.set_role(Role::Follower);
        assert_eq!(ctx.role(), Role::Follower);
        ctx.observe_epoch(3);
        ctx.observe_epoch(2);
        assert_eq!(ctx.epoch(), 3);
        ctx.note_primary_lsn(9);
        ctx.note_primary_lsn(4);
        assert_eq!(ctx.primary_lsn(), 9);
        assert_eq!(Role::Fenced.name(), "fenced");
    }
}
