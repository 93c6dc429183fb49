//! The pluggable transport seam.
//!
//! A [`Rank`](crate::Rank) never touches mailboxes directly; it sends and
//! receives envelopes through a boxed `Transport`. Two backends exist:
//!
//! * **inproc** (`InprocTransport`) — the original fast path: every
//!   rank is an OS thread in one process, an envelope is a moved `Vec`,
//!   `send` is a mutex-guarded queue push. Zero serialization, zero
//!   steady-state allocation; all determinism, verification, and BENCH
//!   guarantees are native to this path.
//! * **socket** (`crate::socket`) — every rank is a child *process*
//!   connected to a rank-0 launcher hub over a Unix-domain socket,
//!   speaking the versioned [`crate::wire`] frame format. This is
//!   the backend that escapes the one-process core count and puts real
//!   wire time behind every message.
//!
//! The trait is deliberately narrow — the entire matching machinery
//! (FIFO per source/tag, deadlock timers, verifier
//! piggybacking) lives above it in `rank.rs` and is therefore *shared*
//! by both backends, which is what makes cross-backend bitwise identity
//! checkable rather than aspirational.

use std::sync::Arc;
use std::time::Duration;

use crate::envelope::Envelope;
use crate::mailbox::Mailbox;

/// How a rank moves envelopes: the backend seam behind [`crate::Rank`].
///
/// `send` returns the nanoseconds spent *serializing* (0 for in-process
/// moves) so the caller can book wire overhead under `transport_ser`
/// instead of folding it into `MPI_Send`/`MPI_Wait`.
pub(crate) trait Transport: Send {
    /// Deliver `env` to `dest`'s incoming queue. Returns serialization
    /// nanoseconds (0 when no serialization happened).
    fn send(&self, dest: usize, env: Envelope) -> u64;

    /// Dequeue the next incoming envelope without blocking.
    fn try_pop(&self) -> Option<Envelope>;

    /// Dequeue, blocking up to `timeout` for an envelope to arrive.
    fn pop_timeout(&self, timeout: Duration) -> Option<Envelope>;

    /// Drain receive-side accounting accumulated off the rank thread
    /// (a socket backend's reader thread). Called once at rank epilogue;
    /// the default (inproc) has nothing to report.
    fn rx_drain(&mut self) -> RxDrain {
        RxDrain::default()
    }
}

/// Receive-side accounting drained from a transport at rank epilogue.
#[derive(Debug, Default)]
pub(crate) struct RxDrain {
    /// Total deserialization time, seconds.
    pub deser_s: f64,
    /// Data frames decoded.
    pub frames: u64,
    /// On-wire bytes received (frame bodies, headers included).
    pub bytes: u64,
    /// Largest single frame received, bytes.
    pub max_frame: u64,
}

/// The in-process backend: a view over the world's shared mailbox array.
pub(crate) struct InprocTransport {
    /// All ranks' mailboxes (shared by every rank thread).
    boxes: Arc<Vec<Mailbox>>,
    /// Which mailbox is ours.
    me: usize,
}

impl InprocTransport {
    pub(crate) fn new(boxes: Arc<Vec<Mailbox>>, me: usize) -> Self {
        InprocTransport { boxes, me }
    }
}

impl Transport for InprocTransport {
    fn send(&self, dest: usize, env: Envelope) -> u64 {
        self.boxes[dest].push(env);
        0
    }

    fn try_pop(&self) -> Option<Envelope> {
        self.boxes[self.me].try_pop()
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.boxes[self.me].pop_timeout(timeout)
    }
}

/// Which transport backend a [`crate::World`] runs on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Ranks are OS threads in this process; envelopes are moved values.
    /// The default, and the only backend usable via [`crate::World::run`].
    #[default]
    Inproc,
    /// Ranks are separate processes (or, in test mode, threads) speaking
    /// the wire format over Unix-domain sockets via a rank-0 hub.
    /// Usable via [`crate::World::run_dist`].
    Socket(SocketConfig),
}

impl TransportKind {
    /// Check the parts a backend would otherwise refuse only at startup:
    /// a socket address must be `unix:<path>`.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TransportKind::Socket(SocketConfig { addr: Some(a), .. }) => {
                crate::socket::unix_path(a)
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            }
            _ => Ok(()),
        }
    }
}

/// Configuration of the socket backend.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocketConfig {
    /// Listen/connect address, `"unix:<path>"` (the only form).
    /// `None` picks a fresh Unix-domain socket under the temp directory.
    pub addr: Option<String>,
    /// Run rank "children" as threads of the launcher process instead of
    /// spawned child processes. Same sockets, same wire format, same hub
    /// — but usable from library tests and benches, where re-executing
    /// the current binary would re-enter the test harness.
    pub threads: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_send_reports_zero_serialization() {
        let boxes = Arc::new(vec![Mailbox::new(), Mailbox::new()]);
        let t0 = InprocTransport::new(Arc::clone(&boxes), 0);
        let t1 = InprocTransport::new(boxes, 1);
        let ser = t0.send(1, Envelope::new(0, 7, vec![1.0f64, 2.0]));
        assert_eq!(ser, 0);
        let env = t1.try_pop().expect("delivered");
        assert_eq!((env.src, env.tag), (0, 7));
        assert_eq!(env.open::<f64>(), vec![1.0, 2.0]);
        assert!(t1.try_pop().is_none());
    }

    #[test]
    fn inproc_rx_drain_is_empty() {
        let boxes = Arc::new(vec![Mailbox::new()]);
        let mut t = InprocTransport::new(boxes, 0);
        let d = t.rx_drain();
        assert_eq!((d.frames, d.bytes, d.max_frame), (0, 0, 0));
    }

    #[test]
    fn transport_kind_defaults_to_inproc() {
        assert_eq!(TransportKind::default(), TransportKind::Inproc);
        let s = SocketConfig::default();
        assert!(s.addr.is_none());
        assert!(!s.threads);
    }

    #[test]
    fn only_unix_socket_addresses_validate() {
        let socket = |addr: &str| {
            TransportKind::Socket(SocketConfig {
                addr: Some(addr.into()),
                threads: false,
            })
        };
        assert_eq!(TransportKind::Inproc.validate(), Ok(()));
        assert_eq!(
            TransportKind::Socket(SocketConfig::default()).validate(),
            Ok(())
        );
        assert_eq!(socket("unix:/tmp/w.sock").validate(), Ok(()));
        let err = socket("tcp:127.0.0.1:0").validate().unwrap_err();
        assert!(err.contains("want unix:<path>"), "{err}");
    }
}
