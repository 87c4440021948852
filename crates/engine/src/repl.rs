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
//! There is no separate bootstrap protocol. A follower opens its data
//! directory like any node (empty, stale or current) and its first
//! connection is an ordinary one: a `SNAPSHOT` answer is installed over
//! the live session ([`DurableSession::install_replicated_snapshot`]),
//! exactly as on a reconnect after the primary pruned past it.
//! [`start_follower`] returns once that first answer has been handled,
//! so `gomq-serve --follow` binds its client listener only after first
//! contact.
//!
//! [`DurableSession::install_replicated_snapshot`]:
//! crate::session::DurableSession::install_replicated_snapshot
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gomq_core::faults;

use crate::cache::lock_recover;
use crate::drain::{accept_until_drain, DrainToken};
use crate::serve::ServeShared;
use crate::session::{resolve_record, RecordSink, SessionError};
use crate::stats::Counter;
use crate::wal::{self, put_u32, put_u64, Cursor, WalRecord};
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

/// How long [`start_follower`] waits for the primary's first answer.
const FIRST_CONTACT_DEADLINE: Duration = Duration::from_secs(30);

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
                put_u32(&mut b, *proto);
                put_u64(&mut b, *last_lsn);
                put_u64(&mut b, *epoch);
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
                put_u64(&mut b, *next_lsn);
                put_u64(&mut b, *epoch);
            }
            ReplMsg::Ack(lsn) => {
                b.push(MSG_ACK);
                put_u64(&mut b, *lsn);
            }
            ReplMsg::Fence(epoch) => {
                b.push(MSG_FENCE);
                put_u64(&mut b, *epoch);
            }
        }
        b
    }

    fn decode_payload(payload: &[u8]) -> Result<ReplMsg, String> {
        let (&tag, body) = payload.split_first().ok_or("empty repl payload")?;
        let mut c = Cursor::new(body);
        match tag {
            MSG_HELLO => Ok(ReplMsg::Hello {
                proto: c.take_u32()?,
                last_lsn: c.take_u64()?,
                epoch: c.take_u64()?,
            }),
            MSG_SNAPSHOT => Ok(ReplMsg::Snapshot(body.to_vec())),
            MSG_RECORD => Ok(ReplMsg::Record(body.to_vec())),
            MSG_HEARTBEAT => Ok(ReplMsg::Heartbeat {
                next_lsn: c.take_u64()?,
                epoch: c.take_u64()?,
            }),
            MSG_ACK => Ok(ReplMsg::Ack(c.take_u64()?)),
            MSG_FENCE => Ok(ReplMsg::Fence(c.take_u64()?)),
            other => Err(format!("unknown repl message tag {other}")),
        }
    }
}

/// Writes one message, framed exactly like a WAL record.
pub fn write_msg(w: &mut impl Write, msg: &ReplMsg) -> io::Result<usize> {
    let frame = wal::frame(&msg.encode_payload());
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
    let (len, sum) = wal::frame_header(&header).ok_or_else(|| corrupt("bad repl frame length"))?;
    let mut payload = vec![0u8; len];
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
    /// Whether this follower has heard from its primary since the
    /// process started (a handled SNAPSHOT, RECORD or HEARTBEAT).
    contacted: Mutex<bool>,
    contact: Condvar,
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
            contacted: Mutex::new(false),
            contact: Condvar::new(),
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

    /// Whether this follower has heard from its primary yet.
    fn contacted(&self) -> bool {
        *lock_recover(&self.contacted)
    }

    /// Records the follower's contact with its primary.
    fn note_contact(&self) {
        *lock_recover(&self.contacted) = true;
        self.contact.notify_all();
    }

    /// Waits up to `timeout` for the first contact; `true` once made.
    fn wait_contact(&self, timeout: Duration) -> bool {
        let g = lock_recover(&self.contacted);
        let (g, _) = self
            .contact
            .wait_timeout_while(g, timeout, |made| !*made)
            .unwrap_or_else(|e| e.into_inner());
        *g
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
    /// Binds the replication listener.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(ReplServer {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound listener address (for `:0` ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop ([`accept_until_drain`]): one sender thread + one
    /// ack-reader thread per replica connection. Blocks until drain.
    /// Deliberately does NOT close the hub on drain: in-flight requests
    /// may still be journaling acknowledged writes, and the senders must
    /// keep shipping until replicas ack them. The hub is closed by
    /// [`crate::ServeShared::drain_persist`] after its replication
    /// flush.
    pub fn serve(self, shared: Arc<ServeShared>, hub: Arc<ReplHub>, token: DrainToken) {
        let poll = Duration::from_millis(100);
        let served = accept_until_drain(&self.listener, &token, poll, |stream, _peer| {
            let (shared, hub, token) = (Arc::clone(&shared), Arc::clone(&hub), token.clone());
            std::thread::spawn(move || serve_replica(stream, shared, hub, token));
        });
        if let Err(e) = served {
            eprintln!("gomq-serve: repl: replication listener failed: {e}");
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
/// target for a later promotion, spawns the tailing loop
/// ([`run_follower`]) over the recovered session, and blocks until the
/// primary has answered its first HELLO — with a SNAPSHOT when the
/// session is behind the primary's retained log, else RECORDs or a
/// HEARTBEAT — so the caller serves nothing before first contact. Fails
/// when no contact is made within 30 s or the tailing loop stops first;
/// the loop keeps retrying until `token` drains.
pub fn start_follower(
    shared: &Arc<ServeShared>,
    cfg: FollowConfig,
    token: DrainToken,
) -> io::Result<()> {
    shared.repl().set_fence_target(cfg.addr.clone());
    shared.repl().set_role(Role::Follower);
    shared.repl().set_drain_token(token.clone());
    let follower = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || run_follower(shared, cfg, token))
    };
    let deadline = Instant::now() + FIRST_CONTACT_DEADLINE;
    while !shared.repl().wait_contact(Duration::from_millis(100)) {
        if follower.is_finished() {
            return Err(io::Error::other("follower stopped before first contact"));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "primary sent nothing within 30s",
            ));
        }
    }
    Ok(())
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
        if let Ok(mut stream) = connect_timeout(&addr, Duration::from_millis(500)) {
            let _ = write_msg(&mut stream, &ReplMsg::Fence(epoch));
            // Give the peer a beat to read before we drop the socket.
            std::thread::sleep(Duration::from_millis(50));
        }
        std::thread::sleep(Duration::from_millis(250));
    }
}

/// `TcpStream::connect_timeout` needs a resolved `SocketAddr`; this
/// resolves a host:port string first (taking the first resolution).
fn connect_timeout(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    use std::net::ToSocketAddrs;
    let resolved = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "address did not resolve"))?;
    TcpStream::connect_timeout(&resolved, timeout)
}

/// Follower configuration (`gomq-serve --follow`).
#[derive(Debug, Clone)]
pub struct FollowConfig {
    /// The primary's replication listener address.
    pub addr: String,
    /// Promote automatically once the reconnect window is exhausted.
    pub promote_on_disconnect: bool,
}

/// The follower's tailing loop: connect, HELLO from the session's
/// position, apply the stream, reconnect on drops, and (optionally)
/// promote once the reconnect window is exhausted — never before the
/// first contact, so a follower that never reached its primary cannot
/// stamp an epoch into an empty or stale store. Blocks; run on a
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
            if cfg.promote_on_disconnect && shared.repl().contacted() {
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
    let mut stream = match connect_timeout(addr, Duration::from_millis(500)) {
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
                        shared.repl().note_contact();
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
                    Err(e @ SessionError::Gap { .. }) => {
                        // Reconnect re-HELLOs from our durable position,
                        // which makes the primary re-ship the gap.
                        eprintln!("gomq-serve: repl: {e}; reconnecting");
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
                shared.repl().note_contact();
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
                // Our position is behind the primary's retained log (a
                // fresh or stale data dir, or the primary pruned past us
                // while we were disconnected): install the shipped
                // snapshot over the live session and tail from its lsn.
                match install_snapshot(shared, &bytes) {
                    Ok((lsn, _epoch)) => {
                        eprintln!(
                            "gomq-serve: repl: installed primary snapshot (lsn {lsn}, {} bytes)",
                            bytes.len()
                        );
                        progressed = true;
                        shared.repl().note_contact();
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

/// Applies one replicated record to the live session through the
/// session's apply path, then accounts it and snapshots when the policy
/// says so, as a live mutation is. The record's names are resolved under
/// the vocabulary lock into durable constants; the view maintenance a
/// rollback runs happens after that lock is released. Returns
/// `Ok(false)` for a duplicate.
pub fn apply_record(
    shared: &ServeShared,
    lsn: u64,
    record: &WalRecord,
) -> Result<bool, SessionError> {
    let mut session = shared.session_lock();
    let facts = resolve_record(&mut shared.vocab_lock(), record)?;
    let Some(info) = session.apply_replicated(lsn, record, &facts)? else {
        return Ok(false);
    };
    shared.finish_mutation(&mut session, &info);
    Ok(true)
}

/// Installs a snapshot shipped by the primary over the live session;
/// its names are durable constants, like a replicated record's.
fn install_snapshot(shared: &ServeShared, bytes: &[u8]) -> Result<(u64, u64), SessionError> {
    // session → vocab: the receiver's lock is taken first.
    (shared.session_lock()).install_replicated_snapshot(bytes, &mut shared.vocab_lock())
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
    use crate::serve::ServeConfig;
    use crate::session;
    use gomq_core::{Term, Vocab};

    /// A durable single-threaded serving state over a scratch data dir.
    fn durable_shared(dir: &crate::scratch::ScratchDir) -> Arc<ServeShared> {
        let config = ServeConfig {
            threads: 1,
            data_dir: Some(dir.to_path_buf()),
            ..ServeConfig::default()
        };
        Arc::new(ServeShared::try_with_config(config).unwrap().0)
    }

    /// `--promote-on-disconnect` must not fire for a follower that never
    /// reached its primary: promoting would stamp an epoch into an
    /// empty store and take writes no primary ever saw.
    #[test]
    fn follower_never_promotes_before_first_contact() {
        let dir = crate::scratch::ScratchDir::new("repl-no-contact");
        let shared = durable_shared(&dir);
        // A port nothing listens on: bound, then released.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        shared.repl().set_role(Role::Follower);
        let token = DrainToken::new();
        let follower = {
            let (shared, token) = (Arc::clone(&shared), token.clone());
            let cfg = FollowConfig {
                addr,
                promote_on_disconnect: true,
            };
            std::thread::spawn(move || run_follower(shared, cfg, token))
        };
        // Wait past the reconnect window, where a contacted follower
        // would have promoted (and stopped counting reconnects).
        let deadline = Instant::now() + Duration::from_secs(30);
        while shared.stats()[Counter::ReplReconnects] <= u64::from(RECONNECT_ATTEMPTS)
            && shared.repl().role() == Role::Follower
        {
            assert!(Instant::now() < deadline, "the follower stopped retrying");
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(shared.repl().role(), Role::Follower);
        assert!(!shared.repl().contacted());
        {
            let session = shared.session_lock();
            assert_eq!(session.position().0, 0, "nothing was journaled");
            assert_eq!(session.repl_epoch(), 0, "no epoch was stamped");
        }
        assert_eq!(shared.stats()[Counter::ReplPromotions], 0);
        token.trigger();
        follower.join().unwrap();
    }

    /// A record that skips ahead of the follower's log is a gap, not a
    /// fatal error: the follower drops the connection and says HELLO
    /// again from its own position, so the primary re-ships what it
    /// missed, and following resumes.
    #[test]
    fn replication_gap_reconnects_from_the_follower_position() {
        let dir = crate::scratch::ScratchDir::new("repl-gap");
        let shared = durable_shared(&dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        shared.repl().set_role(Role::Follower);
        let token = DrainToken::new();
        let follower = {
            let (shared, token) = (Arc::clone(&shared), token.clone());
            let cfg = FollowConfig {
                addr: listener.local_addr().unwrap().to_string(),
                promote_on_disconnect: false,
            };
            std::thread::spawn(move || run_follower(shared, cfg, token))
        };
        // The next message the fake primary reads (`None` at EOF),
        // skipping idle ticks.
        let next = |stream: &mut TcpStream| {
            let deadline = Instant::now() + Duration::from_secs(30);
            loop {
                match read_msg(stream).unwrap() {
                    ReadOutcome::Msg(msg) => break Some(msg),
                    ReadOutcome::Idle => {
                        assert!(Instant::now() < deadline, "the follower is silent")
                    }
                    ReadOutcome::Eof => break None,
                }
            }
        };
        listener.set_nonblocking(true).unwrap();
        let accept = || {
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        assert!(Instant::now() < deadline, "the follower never connected");
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => panic!("accept: {e}"),
                }
            };
            stream.set_nonblocking(false).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let hello = next(&mut stream);
            let Some(ReplMsg::Hello { last_lsn, .. }) = hello else {
                panic!("expected HELLO, got {hello:?}");
            };
            (stream, last_lsn)
        };
        // Ship lsn 3 to a follower whose log is empty.
        let (mut first, last_lsn) = accept();
        assert_eq!(last_lsn, 0);
        write_msg(
            &mut first,
            &ReplMsg::Record(manager("late").encode_frame(3)),
        )
        .unwrap();
        assert_eq!(next(&mut first), None, "the follower dropped the gap");
        // It reconnects from lsn 0 and applies the re-shipped record.
        let (mut second, last_lsn) = accept();
        assert_eq!(last_lsn, 0);
        write_msg(&mut second, &ReplMsg::Record(manager("a").encode_frame(1))).unwrap();
        assert_eq!(next(&mut second), Some(ReplMsg::Ack(1)));
        assert_eq!(shared.repl().role(), Role::Follower);
        let stats = shared.stats();
        assert_eq!(stats[Counter::ReplReconnects], 1);
        assert_eq!(stats[Counter::ReplRecordsApplied], 1);
        token.trigger();
        follower.join().unwrap();
        let mut reads = crate::serve::ServeSession::with_shared(Arc::clone(&shared));
        assert_eq!(employees(&mut reads), [["a"]]);
    }

    /// A follower applies a replicated assert while client requests
    /// naming the same constant are in flight. The record's constant is
    /// durable the moment it lands, so a later session read renders it;
    /// the requests' own constants never enter the vocabulary, so each
    /// answers exactly as on a fresh node.
    #[test]
    fn replicated_constants_survive_an_in_flight_request() {
        use crate::serve::ServeSession;
        let dir = crate::scratch::ScratchDir::new("repl-consts");
        let shared = durable_shared(&dir);
        let record = {
            let mut v = Vocab::new();
            let manager = v.rel("Manager", 1);
            let f0 = Term::Const(v.constant("f0"));
            WalRecord::Assert(vec![session::sym_fact(&v, manager, &[f0])])
        };
        // The text names `f0` first, so it answers first whether or not
        // `f0` is durable when the request starts.
        let line = r#"{"ontology": "A sub B", "query": "B", "abox": "A(f0)\nA(g1)\nA(g0)"}"#;
        let answers = r#""answers": [["f0"], ["g1"], ["g0"]]"#;
        let fresh = ServeSession::with_threads(1).handle_line(line);
        assert!(fresh.contains(answers), "{fresh}");
        let mut requests = ServeSession::with_shared(Arc::clone(&shared));
        std::thread::scope(|scope| {
            let answering = scope.spawn(move || {
                (0..200)
                    .map(|_| requests.handle_line(line))
                    .collect::<Vec<_>>()
            });
            assert_eq!(apply_record(&shared, 1, &record), Ok(true));
            for got in answering.join().unwrap() {
                assert!(got.contains(answers), "answered unlike a fresh node: {got}");
            }
        });
        assert_eq!(shared.vocab_lock().find_constant("g1"), None);
        let mut reads = ServeSession::with_shared(Arc::clone(&shared));
        let q = reads.handle_line(
            r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#,
        );
        assert!(q.contains(r#""answers": [["f0"]]"#), "{q}");
    }

    /// A follower's registered view must follow a replicated rollback:
    /// the follower answers every step of assert/mark/assert/rollback/
    /// assert like an in-memory primary fed the same lines, and its
    /// totals count the rollback's view maintenance.
    #[test]
    fn replicated_rollback_maintains_follower_views() {
        use crate::serve::ServeSession;
        let dir = crate::scratch::ScratchDir::new("repl-rollback-view");
        let follower = durable_shared(&dir);
        let mut reads = ServeSession::with_shared(Arc::clone(&follower));
        let mut primary = ServeSession::with_threads(1);
        let steps = [
            (r#"{"op": "assert", "abox": "Manager(a)"}"#, manager("a")),
            (r#"{"op": "mark"}"#, WalRecord::Mark(0)),
            (r#"{"op": "assert", "abox": "Manager(b)"}"#, manager("b")),
            (r#"{"op": "rollback", "mark": 0}"#, WalRecord::Rollback(0)),
            (r#"{"op": "assert", "abox": "Manager(c)"}"#, manager("c")),
        ];
        for (lsn, (line, record)) in (1..).zip(&steps) {
            primary.handle_line(line);
            assert_eq!(apply_record(&follower, lsn, record), Ok(true));
            // Queried after every step, so the view is registered
            // before the rollback and must be maintained through it.
            let want = employees(&mut primary);
            assert_eq!(employees(&mut reads), want, "diverged after {line}");
        }
        assert_eq!(employees(&mut reads), [["a"], ["c"]]);
        let stats = follower.stats();
        assert!(stats[Counter::IvmDeleted] > 0, "the rollback ran DRed");
        assert_eq!(stats[Counter::ViewsActive], 1, "the view survived");
    }

    /// A snapshot install replaces the store whole: every registered
    /// view is dropped and counted, so reads answer only the image's
    /// facts.
    #[test]
    fn snapshot_install_drops_follower_views() {
        use crate::serve::ServeSession;
        let dir = crate::scratch::ScratchDir::new("repl-install-view");
        let follower = durable_shared(&dir);
        let mut reads = ServeSession::with_shared(Arc::clone(&follower));
        assert_eq!(apply_record(&follower, 1, &manager("a")), Ok(true));
        assert_eq!(employees(&mut reads), [["a"]]);
        let mut primary = ServeSession::with_threads(1);
        primary.handle_line(r#"{"op": "assert", "abox": "Manager(z)\nManager(y)"}"#);
        let image = (primary.shared().session_lock())
            .encode_current_snapshot(&primary.shared().vocab_lock());
        let evicted = follower.stats()[Counter::ViewsEvicted];
        install_snapshot(&follower, &image).unwrap();
        assert_eq!(employees(&mut reads), [["y"], ["z"]]);
        // The dropped view is counted; the read registered a fresh one.
        let stats = follower.stats();
        assert_eq!(stats[Counter::ViewsEvicted], evicted + 1);
        assert_eq!(stats[Counter::ViewsActive], 1);
    }

    /// A replicated assert of `Manager(name)`.
    fn manager(name: &str) -> WalRecord {
        let mut v = Vocab::new();
        let manager = v.rel("Manager", 1);
        let c = Term::Const(v.constant(name));
        WalRecord::Assert(vec![session::sym_fact(&v, manager, &[c])])
    }

    /// The sorted answers of `Manager sub Employee` asking `Employee`
    /// over the session store.
    fn employees(reads: &mut crate::serve::ServeSession) -> Vec<Vec<String>> {
        use crate::json::{self, Json};
        let q = r#"{"ontology": "Manager sub Employee", "query": "Employee", "session": true}"#;
        let response = reads.handle_line(q);
        let Ok(Json::Obj(obj)) = json::parse(&response) else {
            panic!("not a JSON object: {response}");
        };
        let Some(Json::Arr(rows)) = obj.get("answers") else {
            panic!("no answers: {response}");
        };
        let mut answers: Vec<Vec<String>> = rows
            .iter()
            .map(|row| match row {
                Json::Arr(terms) => terms
                    .iter()
                    .map(|t| t.as_str().expect("a constant").to_owned())
                    .collect(),
                _ => panic!("bad answer row: {response}"),
            })
            .collect();
        answers.sort();
        answers
    }

    #[test]
    fn messages_roundtrip_through_frames() {
        // Each message with its pinned wire bytes: the framing is the
        // WAL's and must not change under either side.
        let msgs = [
            (
                ReplMsg::Hello {
                    proto: PROTO_VERSION,
                    last_lsn: 42,
                    epoch: 7,
                },
                "150000003032c93ee7add05e01010000002a000000000000000700000000000000",
            ),
            (
                ReplMsg::Snapshot(vec![1, 2, 3, 4]),
                "050000007d2262d325fe6e6f0201020304",
            ),
            (
                ReplMsg::Record(vec![9; 33]),
                "22000000016bc67b124ffb0003090909090909090909090909090909090909090909\
                 090909090909090909090909",
            ),
            (
                ReplMsg::Heartbeat {
                    next_lsn: 100,
                    epoch: 3,
                },
                "11000000d45806722a6aed900464000000000000000300000000000000",
            ),
            (
                ReplMsg::Ack(99),
                "09000000636d9b441d89d6c3056300000000000000",
            ),
            (
                ReplMsg::Fence(5),
                "09000000fc1b281c9a2c201c060500000000000000",
            ),
        ];
        let mut wire = Vec::new();
        for (m, pinned) in &msgs {
            let start = wire.len();
            write_msg(&mut wire, m).unwrap();
            let hex: String = wire[start..].iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, *pinned, "wire bytes of {m:?} changed");
        }
        let mut r = io::Cursor::new(wire);
        for (m, _) in &msgs {
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
        wire.extend_from_slice(&(wal::MAX_FRAME_BYTES + 1).to_le_bytes());
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
