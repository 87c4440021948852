//! Graceful-shutdown signaling for the serving front ends.
//!
//! A [`DrainToken`] is a cheap, cloneable flag shared by the accept
//! loop, its waker and every connection thread. Once it trips —
//! programmatically via [`DrainToken::trigger`], or by SIGTERM/SIGINT
//! when the token was built with [`DrainToken::with_signals`] — the
//! server stops accepting connections and reading new requests, finishes
//! every request already in flight, flushes the durable session (WAL
//! fsync + final snapshot, [`crate::ServeShared::drain_persist`]), and
//! exits. That is the deploy contract: a SIGTERM'd server loses nothing
//! it acknowledged and restarts from a fresh snapshot.
//!
//! Signal handling is deliberately primitive: the handler only stores to
//! a process-wide atomic (the only async-signal-safe thing it could do),
//! and everything else *polls* that atomic. Connection threads check it
//! on their read-timeout ticks. Both TCP listeners — client
//! ([`crate::net`]) and replication ([`crate::repl`]) — run one accept
//! loop, [`accept_until_drain`], which blocks in `accept`; one waker
//! thread per listener checks the flag on a short tick and, once it
//! trips, connects to the listener to wake the loop. No self-pipe is
//! needed.

use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

/// Set by the SIGTERM/SIGINT handler; merged into every token built
/// with [`DrainToken::with_signals`].
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

/// A shared "start draining" flag. Clones observe the same flag.
#[derive(Clone, Debug, Default)]
pub struct DrainToken {
    flag: Arc<AtomicBool>,
    follow_signals: bool,
}

impl DrainToken {
    /// A token that only trips programmatically.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally trips on SIGTERM or SIGINT. Installing
    /// the handlers is idempotent; on non-Unix platforms the token
    /// behaves like [`DrainToken::new`].
    pub fn with_signals() -> io::Result<Self> {
        install_signal_handlers()?;
        Ok(DrainToken {
            flag: Arc::new(AtomicBool::new(false)),
            follow_signals: true,
        })
    }

    /// Trips the flag: every clone starts draining.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether a drain has been requested (by any clone or, for
    /// signal-following tokens, by SIGTERM/SIGINT).
    pub fn is_draining(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
            || (self.follow_signals && SIGNAL_DRAIN.load(Ordering::SeqCst))
    }
}

/// Blocks in `accept` on `listener`, handing every connection to
/// `on_conn`, until `drain` trips. A waker thread checks the token every
/// `poll` (at most 50 ms) and, once it trips, connects to the listener
/// so the blocked `accept` returns; whatever is accepted after the drain
/// (the waker's connection, or a client that raced it) is dropped
/// unhandled. Transient accept failures (EMFILE under a connection
/// flood) back off for `poll` and must not end the loop; a streak of
/// 100 does, returning the last error, so a persistent failure cannot
/// spin it either.
pub(crate) fn accept_until_drain(
    listener: &TcpListener,
    drain: &DrainToken,
    poll: Duration,
    mut on_conn: impl FnMut(TcpStream, SocketAddr),
) -> io::Result<()> {
    let addr = listener.local_addr()?;
    // The waker lives exactly as long as the accept loop: the scope
    // joins it on every way out, and dropping `_stop` ends its wait.
    std::thread::scope(|scope| {
        let (_stop, stopped) = mpsc::channel::<()>();
        let tick = poll.min(Duration::from_millis(50));
        scope.spawn(move || wake_on_drain(addr, drain, &stopped, tick));
        let mut errors = 0u32;
        while !drain.is_draining() {
            let result = listener.accept();
            if drain.is_draining() {
                break;
            }
            match result {
                Ok((stream, peer)) => {
                    errors = 0;
                    on_conn(stream, peer);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    errors += 1;
                    if errors >= 100 {
                        return Err(e);
                    }
                    std::thread::sleep(poll);
                }
            }
        }
        Ok(())
    })
}

/// The waker: checks `drain` every `tick` and, once it trips, connects
/// to the listener at `addr` so the blocked `accept` returns. Ends when
/// the accept loop drops the sender behind `stopped`.
fn wake_on_drain(
    mut addr: SocketAddr,
    drain: &DrainToken,
    stopped: &mpsc::Receiver<()>,
    tick: Duration,
) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(tick) {
        // A failed connect retries on the next tick.
        if drain.is_draining() && TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
        {
            return;
        }
    }
}

#[cfg(unix)]
fn install_signal_handlers() -> io::Result<()> {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// The libc `sighandler_t`; `SIG_ERR` is `(sighandler_t) -1`.
    type RawHandler = usize;
    extern "C" {
        // std links the platform libc already; declaring the symbol
        // avoids depending on the `libc` crate for two constants and
        // one call.
        fn signal(signum: i32, handler: RawHandler) -> RawHandler;
    }
    extern "C" fn on_signal(_sig: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        SIGNAL_DRAIN.store(true, Ordering::SeqCst);
    }
    for sig in [SIGTERM, SIGINT] {
        let prev = unsafe { signal(sig, on_signal as *const () as RawHandler) };
        if prev == usize::MAX {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn install_signal_handlers() -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        let t = DrainToken::new();
        let clone = t.clone();
        assert!(!t.is_draining());
        assert!(!clone.is_draining());
        clone.trigger();
        assert!(t.is_draining());
        // Independent tokens are unaffected.
        assert!(!DrainToken::new().is_draining());
    }
}
