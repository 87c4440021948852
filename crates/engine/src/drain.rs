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
//! on their read-timeout ticks; the TCP accept loop blocks in `accept`,
//! so one waker thread per listener ([`crate::net`]) checks it on a
//! short tick and, once it trips, connects to the listener to wake the
//! loop. No self-pipe is needed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
    pub fn with_signals() -> std::io::Result<Self> {
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

#[cfg(unix)]
fn install_signal_handlers() -> std::io::Result<()> {
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
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}

#[cfg(not(unix))]
fn install_signal_handlers() -> std::io::Result<()> {
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
