//! The multi-process socket backend.
//!
//! Topology is a star: the launcher (the process the user started) binds
//! a Unix-domain or TCP listener and acts as a **hub**; every rank is a
//! **child** — a re-executed copy of the current binary in process mode,
//! or a thread of the launcher in [`crate::SocketConfig::threads`] test
//! mode — holding exactly one connection to the hub. The hub forwards
//! data frames between children by peeking the destination rank at a
//! fixed offset ([`crate::wire::peek_data_dest`]), serves verifier-hook
//! RPCs against the launcher's single [`VerifyHooks`] instance (checker
//! state must be global across ranks), collects each child's encoded
//! return value + [`CommStats`], and broadcasts a poison frame when a
//! child dies so blocked peers abort instead of deadlocking — the same
//! guarantee the in-process backend gets from its shared poison flag.
//!
//! Each child runs a detached **reader thread** that decodes incoming
//! data frames (staging payload buffers through the rank's shared
//! [`BufferPool`]) into an in-memory [`Mailbox`], so the rank thread's
//! receive path above the transport seam is byte-for-byte the same code
//! as inproc. The reader also counts decoded frames, their on-wire bytes
//! and the largest one, which the rank books under `transport_ser`.
//!
//! Process-mode children are spawned as `current_exe()` with the
//! launcher's own arguments plus three environment variables
//! (`SIMMPI_SOCKET_RANK`/`_SIZE`/`_ADDR`); the child re-parses the
//! identical argv, rebuilds the identical `World` (fault plans, verifier,
//! pooling, workers), and [`crate::World::run_dist`] diverts it
//! into [`child_env`]-guided [`run_child_process`], which never returns.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::envelope::Envelope;
use crate::mailbox::Mailbox;
use crate::pool::BufferPool;
use crate::rank::{Rank, Tag};
use crate::stats::CommStats;
use crate::transport::{RxDrain, SocketConfig, Transport};
use crate::verify::{CollFingerprint, CollKind, LeakInfo, VerifyHooks};
use crate::wire::{
    self, put_str, put_u32, put_u64, put_u8, FrameKind, WireCodec, WireError, WireReader,
};
use crate::world::{World, WorldResult};

const ENV_RANK: &str = "SIMMPI_SOCKET_RANK";
const ENV_SIZE: &str = "SIMMPI_SOCKET_SIZE";
const ENV_ADDR: &str = "SIMMPI_SOCKET_ADDR";

/// How long the hub waits for all ranks to connect at startup.
const CONNECT_DEADLINE: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// connections and addressing
// ---------------------------------------------------------------------

/// One duplex connection, Unix-domain or TCP.
pub(crate) enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_nonblocking(v),
            Conn::Tcp(s) => s.set_nonblocking(v),
        }
    }

    fn shutdown_write(&self) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn set_nonblocking(&self, v: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(v),
            Listener::Tcp(l) => l.set_nonblocking(v),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
        }
    }
}

/// A fresh auto-assigned Unix-domain address under the temp directory.
fn auto_addr() -> String {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    format!(
        "unix:{}/simmpi-{}-{}.sock",
        std::env::temp_dir().display(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    )
}

/// Bind `addr`, returning the listener and the *resolved* address string
/// children must connect to (TCP port 0 resolves to the assigned port).
fn bind(addr: &str) -> io::Result<(Listener, String)> {
    if let Some(path) = addr.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
        Ok((Listener::Unix(UnixListener::bind(path)?), addr.to_owned()))
    } else if let Some(hp) = addr.strip_prefix("tcp:") {
        let l = TcpListener::bind(hp)?;
        let actual = format!("tcp:{}", l.local_addr()?);
        Ok((Listener::Tcp(l), actual))
    } else {
        Err(io::Error::other(format!(
            "bad transport address {addr:?} (want unix:<path> or tcp:<host>:<port>)"
        )))
    }
}

/// Connect to the hub, retrying briefly (a process-mode child can win the
/// race against the launcher finishing its spawn loop).
fn connect(addr: &str) -> io::Result<Conn> {
    let mut last = io::Error::other("no connection attempt made");
    for _ in 0..500 {
        let res = if let Some(path) = addr.strip_prefix("unix:") {
            UnixStream::connect(path).map(Conn::Unix)
        } else if let Some(hp) = addr.strip_prefix("tcp:") {
            TcpStream::connect(hp).map(|s| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            })
        } else {
            return Err(io::Error::other(format!(
                "bad transport address {addr:?} (want unix:<path> or tcp:<host>:<port>)"
            )));
        };
        match res {
            Ok(c) => return Ok(c),
            Err(e) => last = e,
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err(last)
}

/// Read one frame, length prefix included, into `buf` (what
/// [`wire::open_frame`] takes and the hub forwards). `Ok(false)` is a
/// clean EOF at a frame boundary; EOF mid-frame is an error.
///
/// The prefix bounds the read but never sizes an allocation: the body
/// grows `buf` only as its bytes arrive.
fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len4 = [0u8; wire::LEN_BYTES];
    match r.read_exact(&mut len4) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(false),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len4) as usize;
    if len > wire::MAX_FRAME {
        return Err(io::Error::other(format!("oversized frame ({len} bytes)")));
    }
    buf.clear();
    buf.extend_from_slice(&len4);
    if r.take(len as u64).read_to_end(buf)? != len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(true)
}

fn control_frame(kind: FrameKind) -> Vec<u8> {
    let mut frame = Vec::with_capacity(wire::LEN_BYTES + 16);
    wire::begin_frame(&mut frame, kind);
    wire::end_frame(&mut frame);
    frame
}

// ---------------------------------------------------------------------
// child endpoint
// ---------------------------------------------------------------------

/// Single-slot blocking reply channel for verifier RPCs. At most one
/// reply-bearing call is outstanding per child (guarded by
/// [`VerifyClient::call`]), so one slot suffices.
#[derive(Default)]
struct RpcSlot {
    slot: Mutex<Option<Vec<u8>>>,
    dead: AtomicBool,
    cv: Condvar,
}

impl RpcSlot {
    fn put(&self, v: Vec<u8>) {
        *self.slot.lock().unwrap() = Some(v);
        self.cv.notify_all();
    }

    /// Permanently wake waiters with failure (the hub went away).
    fn fail(&self) {
        self.dead.store(true, Ordering::Relaxed);
        self.cv.notify_all();
    }

    fn wait(&self) -> Vec<u8> {
        let mut g = self.slot.lock().unwrap();
        loop {
            if let Some(v) = g.take() {
                return v;
            }
            if self.dead.load(Ordering::Relaxed) {
                panic!("verify channel lost: the launcher hub went away");
            }
            let (g2, _) = self.cv.wait_timeout(g, Duration::from_millis(50)).unwrap();
            g = g2;
        }
    }
}

/// A child rank's shared connection state: the write half (under a lock,
/// shared by the rank thread and the verify client), the inbox the
/// reader thread fills, and the receive-side accounting the transport
/// drains at rank epilogue.
struct Endpoint {
    me: usize,
    writer: Mutex<Conn>,
    /// Reused serialization scratch buffer — steady-state sends reuse its
    /// capacity instead of allocating per message.
    tx: Mutex<Vec<u8>>,
    inbox: Mailbox,
    pool: BufferPool,
    poisoned: Arc<AtomicBool>,
    rx_deser_nanos: AtomicU64,
    rx_frames: AtomicU64,
    rx_bytes: AtomicU64,
    rx_max_frame: AtomicU64,
    rpc: RpcSlot,
}

impl Endpoint {
    /// Write one complete frame: a single `write_all`, so the peer is
    /// woken once per frame, not once for the prefix and again for the body.
    fn send_frame(&self, frame: &[u8]) -> io::Result<()> {
        self.writer.lock().unwrap().write_all(frame)
    }
}

/// The child's receive loop, run on a detached thread: decode data
/// frames into the inbox, hand verify replies to the waiting RPC slot,
/// and raise the poison flag on a poison frame or on any disconnect.
fn reader_loop(ep: Arc<Endpoint>, mut conn: Conn) {
    let mut buf = Vec::new();
    while let Ok(true) = read_frame(&mut conn, &mut buf) {
        match wire::open_frame(&buf) {
            Ok((FrameKind::Data, mut r)) => {
                let t0 = Instant::now();
                match wire::decode_data(&mut r, &ep.pool) {
                    Ok(d) => {
                        let dt = t0.elapsed().as_nanos() as u64;
                        ep.rx_deser_nanos.fetch_add(dt, Ordering::Relaxed);
                        ep.rx_frames.fetch_add(1, Ordering::Relaxed);
                        ep.rx_bytes.fetch_add(d.wire_bytes, Ordering::Relaxed);
                        ep.rx_max_frame.fetch_max(d.wire_bytes, Ordering::Relaxed);
                        ep.inbox.push(d.env);
                    }
                    Err(_) => break,
                }
            }
            Ok((FrameKind::VerifyRep, mut r)) => ep.rpc.put(r.rest().to_vec()),
            Ok((FrameKind::Poison, _)) => {
                ep.poisoned.store(true, Ordering::Relaxed);
            }
            _ => break,
        }
    }
    // Disconnect (clean or not): a blocked rank must not wait out the
    // deadlock timer for a hub that is gone. By the time the hub closes
    // a *healthy* child's connection, that child's closure has already
    // returned, so the late poison is unobserved.
    ep.poisoned.store(true, Ordering::Relaxed);
    ep.rpc.fail();
}

/// The [`Transport`] over a child endpoint.
pub(crate) struct SocketTransport {
    ep: Arc<Endpoint>,
}

impl Transport for SocketTransport {
    fn send(&self, dest: usize, env: Envelope) -> u64 {
        if dest == self.ep.me {
            // Self-sends never leave the process: no serialization, and
            // bitwise-identical payload delivery, exactly as inproc.
            self.ep.inbox.push(env);
            return 0;
        }
        let mut tx = self.ep.tx.lock().unwrap();
        let t0 = Instant::now();
        wire::encode_data(&mut tx, dest, &env);
        let ser = (t0.elapsed().as_nanos() as u64).max(1);
        if let Err(e) = self.ep.send_frame(&tx) {
            if self.ep.poisoned.load(Ordering::Relaxed) {
                panic!(
                    "rank {}: aborting send to rank {dest}: a peer rank failed",
                    self.ep.me
                );
            }
            panic!(
                "rank {}: socket send to rank {dest} failed: {e}",
                self.ep.me
            );
        }
        ser
    }

    fn try_pop(&self) -> Option<Envelope> {
        self.ep.inbox.try_pop()
    }

    fn pop_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.ep.inbox.pop_timeout(timeout)
    }

    fn rx_drain(&mut self) -> RxDrain {
        RxDrain {
            deser_s: self.ep.rx_deser_nanos.swap(0, Ordering::Relaxed) as f64 * 1e-9,
            frames: self.ep.rx_frames.swap(0, Ordering::Relaxed),
            bytes: self.ep.rx_bytes.swap(0, Ordering::Relaxed),
            max_frame: self.ep.rx_max_frame.swap(0, Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// verifier RPC
// ---------------------------------------------------------------------

// A request names no rank: the hub takes it from the connection.
const M_COLLECTIVE: u8 = 1;
const M_BLOCK: u8 = 2;
const M_BLOCK_POLL: u8 = 3;
const M_UNBLOCK: u8 = 4;
const M_EXCHANGE_START: u8 = 5;
const M_EXCHANGE_FINISH: u8 = 6;
const M_DISCARDED: u8 = 7;
const M_FINALIZE: u8 = 8;

fn coll_kind_to_u8(k: CollKind) -> u8 {
    match k {
        CollKind::Barrier => 0,
        CollKind::Allreduce => 1,
        CollKind::Exscan => 2,
        CollKind::Alltoallv => 3,
        CollKind::CrystalRouter => 4,
    }
}

fn coll_kind_from_u8(v: u8) -> Result<CollKind, WireError> {
    Ok(match v {
        0 => CollKind::Barrier,
        1 => CollKind::Allreduce,
        2 => CollKind::Exscan,
        3 => CollKind::Alltoallv,
        4 => CollKind::CrystalRouter,
        _ => return Err(WireError::Malformed("collective kind")),
    })
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => put_u8(buf, 0),
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
    }
}

/// Intern a decoded element-type name: [`CollFingerprint::elem_type`]
/// wants `&'static str`. The distinct type names per program are a
/// handful, so the leak is bounded.
fn intern(s: &str) -> &'static str {
    static CACHE: OnceLock<Mutex<std::collections::HashMap<String, &'static str>>> =
        OnceLock::new();
    let mut map = CACHE
        .get_or_init(|| Mutex::new(std::collections::HashMap::new()))
        .lock()
        .unwrap();
    if let Some(&v) = map.get(s) {
        return v;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

/// A child-side [`VerifyHooks`] proxy: every hook call is serialized to
/// the hub, where the launcher's real checker runs with global state.
/// Reply-bearing hooks block on the RPC slot; notification-only hooks
/// are fire-and-forget (per-stream FIFO keeps them ordered ahead of the
/// child's result frame). Not an allocation-free path — the verifier is
/// a debugging mode on every backend.
struct VerifyClient {
    ep: Arc<Endpoint>,
    /// Serializes reply-bearing calls so replies match requests.
    call: Mutex<()>,
}

impl std::fmt::Debug for VerifyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifyClient")
            .field("rank", &self.ep.me)
            .finish()
    }
}

impl VerifyClient {
    /// Fire-and-forget notification.
    fn notify(&self, build: impl FnOnce(&mut Vec<u8>)) {
        let mut body = Vec::new();
        wire::begin_frame(&mut body, FrameKind::VerifyReq);
        build(&mut body);
        wire::end_frame(&mut body);
        if self.ep.send_frame(&body).is_err() {
            self.ep.poisoned.store(true, Ordering::Relaxed);
        }
    }

    /// Reply-bearing call: send the request and block for the hub's reply.
    fn rpc(&self, build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let _g = self.call.lock().unwrap();
        let mut body = Vec::new();
        wire::begin_frame(&mut body, FrameKind::VerifyReq);
        build(&mut body);
        wire::end_frame(&mut body);
        if self.ep.send_frame(&body).is_err() {
            panic!("verify channel lost: the launcher hub went away");
        }
        self.ep.rpc.wait()
    }
}

impl VerifyHooks for VerifyClient {
    fn on_start(&self, _size: usize) {
        // The hub announces the world before spawning children.
    }

    fn on_collective(&self, _rank: usize, seq: u64, fp: CollFingerprint<'_>) -> Result<(), String> {
        let rep = self.rpc(|b| {
            put_u8(b, M_COLLECTIVE);
            put_u64(b, seq);
            put_u8(b, coll_kind_to_u8(fp.kind));
            put_str(b, fp.elem_type);
            fp.len.map(|v| v as u64).encode(b);
            put_str(b, fp.context);
        });
        let mut r = WireReader::new(&rep);
        match Option::<String>::decode(&mut r).expect("on_collective reply") {
            None => Ok(()),
            Some(diag) => Err(diag),
        }
    }

    fn on_block(&self, _rank: usize, src: usize, tag: Tag, context: &str) -> u64 {
        let rep = self.rpc(|b| {
            put_u8(b, M_BLOCK);
            put_u32(b, src as u32);
            put_u64(b, tag);
            put_str(b, context);
        });
        let mut r = WireReader::new(&rep);
        u64::decode(&mut r).expect("on_block reply")
    }

    fn on_block_poll(&self, _rank: usize, block_id: u64) -> Option<String> {
        let rep = self.rpc(|b| {
            put_u8(b, M_BLOCK_POLL);
            put_u64(b, block_id);
        });
        let mut r = WireReader::new(&rep);
        Option::<String>::decode(&mut r).expect("on_block_poll reply")
    }

    fn on_unblock(&self, _rank: usize, block_id: u64) {
        self.notify(|b| {
            put_u8(b, M_UNBLOCK);
            put_u64(b, block_id);
        });
    }

    fn on_exchange_start(&self, _rank: usize, context: &str) -> u64 {
        let rep = self.rpc(|b| {
            put_u8(b, M_EXCHANGE_START);
            put_str(b, context);
        });
        let mut r = WireReader::new(&rep);
        u64::decode(&mut r).expect("on_exchange_start reply")
    }

    fn on_exchange_finish(&self, _rank: usize, epoch: u64) {
        self.notify(|b| {
            put_u8(b, M_EXCHANGE_FINISH);
            put_u64(b, epoch);
        });
    }

    fn on_discarded(
        &self,
        _rank: usize,
        src: usize,
        tag: Tag,
        bytes: u64,
        sender_context: Option<&str>,
    ) {
        self.notify(|b| {
            put_u8(b, M_DISCARDED);
            put_u32(b, src as u32);
            put_u64(b, tag);
            put_u64(b, bytes);
            put_opt_str(b, sender_context);
        });
    }

    fn on_finalize(
        &self,
        _rank: usize,
        coll_seq: u64,
        leaked: &[LeakInfo],
        unclaimed: &[(usize, Tag, u64)],
    ) {
        self.notify(|b| {
            put_u8(b, M_FINALIZE);
            put_u64(b, coll_seq);
            put_u64(b, leaked.len() as u64);
            for l in leaked {
                l.encode(b);
            }
            put_u64(b, unclaimed.len() as u64);
            for &(src, tag, n) in unclaimed {
                put_u64(b, src as u64);
                put_u64(b, tag);
                put_u64(b, n);
            }
        });
    }
}

/// Hub side: decode one verify-hook request from the child connected as
/// `rank` and dispatch it to the real checker. Returns the encoded reply
/// for reply-bearing methods.
fn serve_verify(
    hooks: &dyn VerifyHooks,
    rank: usize,
    r: &mut WireReader<'_>,
) -> Result<Option<Vec<u8>>, WireError> {
    match r.u8()? {
        M_COLLECTIVE => {
            let seq = r.u64()?;
            let kind = coll_kind_from_u8(r.u8()?)?;
            let elem_type = intern(r.str()?);
            let len = Option::<u64>::decode(r)?.map(|v| v as usize);
            let context = r.str()?;
            let fp = CollFingerprint {
                kind,
                elem_type,
                len,
                context,
            };
            let reply: Option<String> = hooks.on_collective(rank, seq, fp).err();
            let mut out = Vec::new();
            reply.encode(&mut out);
            Ok(Some(out))
        }
        M_BLOCK => {
            let src = r.u32()? as usize;
            let tag = r.u64()?;
            let ctx = r.str()?;
            let id = hooks.on_block(rank, src, tag, ctx);
            let mut out = Vec::new();
            id.encode(&mut out);
            Ok(Some(out))
        }
        M_BLOCK_POLL => {
            let block_id = r.u64()?;
            let diag = hooks.on_block_poll(rank, block_id);
            let mut out = Vec::new();
            diag.encode(&mut out);
            Ok(Some(out))
        }
        M_UNBLOCK => {
            let block_id = r.u64()?;
            hooks.on_unblock(rank, block_id);
            Ok(None)
        }
        M_EXCHANGE_START => {
            let ctx = r.str()?;
            let epoch = hooks.on_exchange_start(rank, ctx);
            let mut out = Vec::new();
            epoch.encode(&mut out);
            Ok(Some(out))
        }
        M_EXCHANGE_FINISH => {
            let epoch = r.u64()?;
            hooks.on_exchange_finish(rank, epoch);
            Ok(None)
        }
        M_DISCARDED => {
            let src = r.u32()? as usize;
            let tag = r.u64()?;
            let bytes = r.u64()?;
            let sender_ctx = Option::<String>::decode(r)?;
            hooks.on_discarded(rank, src, tag, bytes, sender_ctx.as_deref());
            Ok(None)
        }
        M_FINALIZE => {
            let coll_seq = r.u64()?;
            let leaked = Vec::<LeakInfo>::decode(r)?;
            let n = r.count(24)?;
            let mut unclaimed = Vec::with_capacity(n);
            for _ in 0..n {
                let src = r.u64()? as usize;
                let tag = r.u64()?;
                let count = r.u64()?;
                unclaimed.push((src, tag, count));
            }
            hooks.on_finalize(rank, coll_seq, &leaked, &unclaimed);
            Ok(None)
        }
        _ => Err(WireError::Malformed("verify method")),
    }
}

// ---------------------------------------------------------------------
// child session
// ---------------------------------------------------------------------

/// `(rank, size, addr)` when this process is a spawned socket-backend
/// child, from the environment the launcher set.
pub(crate) fn child_env() -> Option<(usize, usize, String)> {
    let rank = std::env::var(ENV_RANK).ok()?.parse().ok()?;
    let size = std::env::var(ENV_SIZE).ok()?.parse().ok()?;
    let addr = std::env::var(ENV_ADDR).ok()?;
    Some((rank, size, addr))
}

/// Entry point for a process-mode child: run the rank session, then exit
/// without returning to the driver (the launcher prints reports; a child
/// that "returned" would re-run the driver's post-world code).
pub(crate) fn run_child_process<T, F>(
    world: &World,
    rank: usize,
    size: usize,
    addr: &str,
    f: &F,
) -> !
where
    T: Send + WireCodec,
    F: Fn(&mut Rank) -> T + Send + Sync,
{
    let conn = connect(addr)
        .unwrap_or_else(|e| panic!("rank {rank}: cannot reach launcher at {addr}: {e}"));
    child_session(world, rank, size, conn, f);
    std::process::exit(0);
}

/// One rank's life on the socket backend: handshake, run the SPMD
/// closure over a [`SocketTransport`], ship the encoded result. Shared
/// verbatim by process-mode children and thread-mode child threads.
fn child_session<T, F>(world: &World, rank: usize, size: usize, mut conn: Conn, f: &F)
where
    T: Send + WireCodec,
    F: Fn(&mut Rank) -> T + Send + Sync,
{
    let mut buf = Vec::new();
    wire::begin_frame(&mut buf, FrameKind::Hello);
    put_u32(&mut buf, rank as u32);
    put_u32(&mut buf, size as u32);
    wire::end_frame(&mut buf);
    conn.write_all(&buf)
        .unwrap_or_else(|e| panic!("rank {rank}: hello failed: {e}"));
    let got =
        read_frame(&mut conn, &mut buf).unwrap_or_else(|e| panic!("rank {rank}: lost hub: {e}"));
    assert!(got, "rank {rank}: hub closed before go");
    match wire::open_frame(&buf) {
        Ok((FrameKind::Go, _)) => {}
        other => panic!("rank {rank}: expected go frame, got {other:?}"),
    }

    let writer = conn.try_clone().expect("connection clone");
    let poisoned = Arc::new(AtomicBool::new(false));
    let ep = Arc::new(Endpoint {
        me: rank,
        writer: Mutex::new(writer),
        tx: Mutex::new(Vec::new()),
        inbox: Mailbox::new(),
        pool: BufferPool::new(world.pooling),
        poisoned: Arc::clone(&poisoned),
        rx_deser_nanos: AtomicU64::new(0),
        rx_frames: AtomicU64::new(0),
        rx_bytes: AtomicU64::new(0),
        rx_max_frame: AtomicU64::new(0),
        rpc: RpcSlot::default(),
    });
    let ep_r = Arc::clone(&ep);
    // Detached: exits on hub disconnect, which the launcher triggers by
    // closing its connections once every rank has delivered its result.
    std::thread::spawn(move || reader_loop(ep_r, conn));

    // A dying *process* closes its socket and the hub sees EOF; a dying
    // *thread* (thread mode, or any panic that unwinds through here)
    // must close it explicitly, or the hub never learns and every peer
    // blocks until its deadlock timer.
    struct ShutdownOnPanic(Arc<Endpoint>);
    impl Drop for ShutdownOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Ok(w) = self.0.writer.lock() {
                    w.shutdown_write();
                }
            }
        }
    }
    let _guard = ShutdownOnPanic(Arc::clone(&ep));

    // Hook calls must reach the *launcher's* checker — verifier state
    // (wait-for graphs, collective fingerprints) spans ranks, and with
    // process isolation a local checker instance would see one rank only.
    let verify: Option<Arc<dyn VerifyHooks>> = world.verify.as_ref().map(|_| {
        Arc::new(VerifyClient {
            ep: Arc::clone(&ep),
            call: Mutex::new(()),
        }) as Arc<dyn VerifyHooks>
    });
    let transport = Box::new(SocketTransport {
        ep: Arc::clone(&ep),
    });
    let (out, stats) = crate::world::execute_rank(
        world,
        rank,
        size,
        transport,
        ep.pool.clone(),
        poisoned,
        verify,
        f,
    );

    let mut body = Vec::new();
    wire::begin_frame(&mut body, FrameKind::Result);
    out.encode(&mut body);
    stats.encode(&mut body);
    wire::end_frame(&mut body);
    ep.send_frame(&body)
        .unwrap_or_else(|e| panic!("rank {rank}: result delivery failed: {e}"));
    // Clean-EOF the hub's reader; the write half going down is the
    // "this rank is done" signal, the read half stays open for late
    // traffic until the launcher tears the world down.
    ep.writer.lock().unwrap().shutdown_write();
}

// ---------------------------------------------------------------------
// launcher hub
// ---------------------------------------------------------------------

/// Per-child hub loop: forward data frames to their destination writer,
/// serve verify RPCs, capture the result frame. Returns the child's
/// encoded result, or `None` if it disconnected without one (died) —
/// in which case every other child has been sent a poison frame.
fn hub_reader(
    r: usize,
    p: usize,
    mut conn: Conn,
    writers: Arc<Vec<Mutex<Conn>>>,
    verify: Option<Arc<dyn VerifyHooks>>,
) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    let mut result: Option<Vec<u8>> = None;
    while let Ok(true) = read_frame(&mut conn, &mut buf) {
        if let Some(dest) = wire::peek_data_dest(&buf) {
            if dest >= p {
                break; // corrupt destination
            }
            // Forwarded verbatim — the destination child validates the
            // checksum. Write errors are ignored: the destination may
            // have finished and exited (its unreceived messages are the
            // same app-level leak the inproc backend tolerates); genuine
            // deaths are caught by that child's own EOF.
            let _ = writers[dest].lock().unwrap().write_all(&buf);
            continue;
        }
        match wire::open_frame(&buf) {
            Ok((FrameKind::VerifyReq, mut rd)) => {
                let Some(v) = verify.as_deref() else { break };
                match serve_verify(v, r, &mut rd) {
                    Ok(Some(reply)) => {
                        let mut body = Vec::new();
                        wire::begin_frame(&mut body, FrameKind::VerifyRep);
                        body.extend_from_slice(&reply);
                        wire::end_frame(&mut body);
                        let _ = writers[r].lock().unwrap().write_all(&body);
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            Ok((FrameKind::Result, mut rd)) => result = Some(rd.rest().to_vec()),
            _ => break,
        }
    }
    if result.is_none() {
        let poison = control_frame(FrameKind::Poison);
        for (q, w) in writers.iter().enumerate() {
            if q != r {
                let _ = w.lock().unwrap().write_all(&poison);
            }
        }
    }
    result
}

/// Launcher entry: bind, spawn the ranks (processes or threads), route
/// traffic until every rank delivers a result or dies, and decode the
/// per-rank results and statistics into a [`WorldResult`].
pub(crate) fn run_launcher<T, F>(
    world: &World,
    p: usize,
    cfg: &SocketConfig,
    f: &F,
) -> WorldResult<T>
where
    T: Send + WireCodec,
    F: Fn(&mut Rank) -> T + Send + Sync,
{
    let requested = cfg.addr.clone().unwrap_or_else(auto_addr);
    let (listener, addr) = bind(&requested)
        .unwrap_or_else(|e| panic!("socket transport cannot bind {requested}: {e}"));
    if let Some(v) = &world.verify {
        v.on_start(p);
    }

    let mut procs: Vec<Child> = Vec::new();
    if !cfg.threads {
        let exe = std::env::current_exe().expect("current_exe for child re-exec");
        for r in 0..p {
            // The child re-parses the identical argv, rebuilds the
            // identical World (fault plan, net model, pooling, workers),
            // and diverts into child_session via the env triple.
            let child = Command::new(&exe)
                .args(std::env::args_os().skip(1))
                .env(ENV_RANK, r.to_string())
                .env(ENV_SIZE, p.to_string())
                .env(ENV_ADDR, &addr)
                .spawn()
                .unwrap_or_else(|e| panic!("cannot spawn rank {r}: {e}"));
            procs.push(child);
        }
    }

    let mut result_bytes: Vec<Option<Vec<u8>>> = (0..p).map(|_| None).collect();
    let mut failed: Vec<usize> = Vec::new();
    let mut child_panic: Option<Box<dyn std::any::Any + Send>> = None;

    std::thread::scope(|scope| {
        let mut kids = Vec::new();
        if cfg.threads {
            for r in 0..p {
                let addr = addr.clone();
                kids.push(scope.spawn(move || {
                    let conn = connect(&addr)
                        .unwrap_or_else(|e| panic!("rank {r}: cannot reach hub: {e}"));
                    child_session(world, r, p, conn, f);
                }));
            }
        }

        // Accept all ranks' hellos (non-blocking so a child that died
        // before connecting fails the launch instead of hanging it).
        listener.set_nonblocking(true).expect("listener mode");
        let deadline = Instant::now() + CONNECT_DEADLINE;
        let mut conns: Vec<Option<Conn>> = (0..p).map(|_| None).collect();
        let mut accepted = 0usize;
        let mut startup_err: Option<String> = None;
        while accepted < p {
            match listener.accept() {
                Ok(conn) => {
                    conn.set_nonblocking(false).expect("conn mode");
                    let mut conn = conn;
                    let mut buf = Vec::new();
                    let hello = (|| -> Result<usize, String> {
                        if !read_frame(&mut conn, &mut buf).map_err(|e| e.to_string())? {
                            return Err("closed before hello".into());
                        }
                        let (kind, mut rd) = wire::open_frame(&buf).map_err(|e| e.to_string())?;
                        if kind != FrameKind::Hello {
                            return Err(format!("expected hello, got {kind:?}"));
                        }
                        let rank = rd.u32().map_err(|e| e.to_string())? as usize;
                        let size = rd.u32().map_err(|e| e.to_string())? as usize;
                        if size != p || rank >= p {
                            return Err(format!(
                                "rank {rank}/{size} does not fit a {p}-rank world"
                            ));
                        }
                        Ok(rank)
                    })();
                    match hello {
                        Ok(rank) if conns[rank].is_none() => {
                            conns[rank] = Some(conn);
                            accepted += 1;
                        }
                        Ok(rank) => {
                            startup_err = Some(format!("rank {rank} connected twice"));
                            break;
                        }
                        Err(e) => {
                            startup_err = Some(e);
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Some(dead) = procs
                        .iter_mut()
                        .position(|c| matches!(c.try_wait(), Ok(Some(_))))
                    {
                        startup_err = Some(format!("rank {dead} exited before connecting"));
                        break;
                    }
                    if Instant::now() > deadline {
                        startup_err = Some(format!("only {accepted}/{p} ranks connected"));
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => {
                    startup_err = Some(e.to_string());
                    break;
                }
            }
        }
        if let Some(e) = startup_err {
            for c in &mut procs {
                let _ = c.kill();
            }
            // Thread-mode kids fail on their own (connect retry window
            // expires / hub conns drop) and their panics surface below.
            panic!("socket transport startup failed: {e}");
        }

        let writers: Arc<Vec<Mutex<Conn>>> = Arc::new(
            conns
                .iter()
                .map(|c| Mutex::new(c.as_ref().unwrap().try_clone().expect("connection clone")))
                .collect(),
        );
        let go = control_frame(FrameKind::Go);
        for w in writers.iter() {
            w.lock().unwrap().write_all(&go).expect("go frame");
        }

        let mut readers = Vec::with_capacity(p);
        for (r, slot) in conns.iter_mut().enumerate() {
            let conn = slot.take().unwrap();
            let writers = Arc::clone(&writers);
            let verify = world.verify.clone();
            readers.push(scope.spawn(move || hub_reader(r, p, conn, writers, verify)));
        }
        for (r, h) in readers.into_iter().enumerate() {
            match h.join() {
                Ok(Some(bytes)) => result_bytes[r] = Some(bytes),
                Ok(None) => failed.push(r),
                Err(_) => failed.push(r),
            }
        }
        for h in kids {
            if let Err(payload) = h.join() {
                if child_panic.is_none() {
                    child_panic = Some(payload);
                }
            }
        }
    });

    for (r, mut c) in procs.into_iter().enumerate() {
        match c.wait() {
            Ok(status) if status.success() => {}
            _ => failed.push(r),
        }
    }
    if let Some(path) = addr.strip_prefix("unix:") {
        let _ = std::fs::remove_file(path);
    }
    // Thread-mode parity with inproc: re-raise the original panic payload.
    if let Some(payload) = child_panic {
        std::panic::resume_unwind(payload);
    }
    failed.sort_unstable();
    failed.dedup();
    if let Some(&r) = failed.first() {
        panic!("rank {r} failed on the socket transport");
    }

    let mut results = Vec::with_capacity(p);
    let mut stats = Vec::with_capacity(p);
    for (r, bytes) in result_bytes.into_iter().enumerate() {
        let bytes = bytes.expect("every rank delivered or failed");
        let mut rd = WireReader::new(&bytes);
        let out = T::decode(&mut rd)
            .unwrap_or_else(|e| panic!("rank {r}: result frame does not decode: {e}"));
        let st = CommStats::decode(&mut rd)
            .unwrap_or_else(|e| panic!("rank {r}: stats frame does not decode: {e}"));
        results.push(out);
        stats.push(st);
    }
    WorldResult { results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MpiOp;
    use crate::transport::TransportKind;
    use crate::ReduceOp;

    /// A socket-backend world in thread mode (children as threads of the
    /// test process; process mode would re-exec the test harness).
    fn socket_world() -> World {
        World::new().with_transport(TransportKind::Socket(SocketConfig {
            addr: None,
            threads: true,
        }))
    }

    #[test]
    fn socket_ring_matches_inproc() {
        let program = |rank: &mut Rank| {
            let next = (rank.rank() + 1) % rank.size();
            let prev = (rank.rank() + rank.size() - 1) % rank.size();
            rank.send(next, 7, &[rank.rank() as u64 * 3 + 1]);
            rank.recv::<u64>(prev, 7)[0]
        };
        for p in [2usize, 3, 5] {
            let inproc = World::new().run(p, program);
            let socket = socket_world().run_dist(p, program);
            assert_eq!(inproc.results, socket.results, "p={p}");
        }
    }

    #[test]
    fn socket_collectives_and_crystal_match_inproc() {
        let program = |rank: &mut Rank| {
            rank.set_context("smoke");
            let sum = rank.allreduce_f64(&[rank.rank() as f64 + 0.25], ReduceOp::Sum)[0];
            let base = rank.exscan_u64(rank.rank() as u64 * 41 + 7);
            let outgoing: Vec<(usize, Vec<u64>)> = (0..rank.size())
                .map(|q| (q, vec![(rank.rank() * 100 + q) as u64; 40]))
                .collect();
            let arrived = rank.crystal_router(outgoing);
            let routed: u64 = arrived.iter().flat_map(|(_, d)| d.iter()).sum();
            (sum, base + routed, arrived.len())
        };
        let p = 5;
        let inproc = World::new().run(p, program);
        let socket = socket_world().run_dist(p, program);
        for r in 0..p {
            assert_eq!(inproc.results[r].0.to_bits(), socket.results[r].0.to_bits());
            assert_eq!(inproc.results[r].1, socket.results[r].1);
            assert_eq!(inproc.results[r].2, socket.results[r].2);
        }
    }

    /// The receive row books every decoded frame, and its `max_bytes` is
    /// the largest frame on the wire, not the mean.
    #[test]
    fn socket_stats_carry_wire_overhead_and_max_frame() {
        let len = |i: u64| if i % 2 == 0 { 64 } else { 512 };
        let program = move |rank: &mut Rank| {
            let next = (rank.rank() + 1) % rank.size();
            let prev = (rank.rank() + rank.size() - 1) % rank.size();
            for i in 0..4u64 {
                rank.send(next, i, &vec![1.0f64; len(i)]);
                let _ = rank.recv::<f64>(prev, i);
            }
            0u64
        };
        let mut frame = Vec::new();
        crate::wire::encode_data(&mut frame, 1, &Envelope::new(0, 1, vec![1.0f64; 512]));
        let largest = (frame.len() - wire::LEN_BYTES) as u64;
        let res = socket_world().run_dist(3, program);
        for st in &res.stats {
            let tx = st
                .sites
                .iter()
                .any(|(k, _)| k.op == MpiOp::TransportSer && k.context != "transport:rx");
            assert!(tx, "rank {} recorded no serialization site", st.rank);
            let rx = st.site(MpiOp::TransportSer, "transport:rx").unwrap();
            assert_eq!(rx.calls, 4, "rank {} decoded frames", st.rank);
            assert_eq!(rx.max_bytes, largest, "rank {} largest frame", st.rank);
            assert!(rx.max_bytes > rx.bytes / rx.calls, "max is the mean");
        }
        // inproc books on the same program carry no wire rows
        let inproc = World::new().run(3, program);
        for st in &inproc.stats {
            assert!(st.sites.iter().all(|(k, _)| k.op != MpiOp::TransportSer));
        }
    }

    #[test]
    #[should_panic]
    fn socket_peer_failure_poisons_blocked_ranks() {
        let _ = socket_world().run_dist(3, |rank: &mut Rank| {
            match rank.rank() {
                1 => panic!("rank 1 exploded"),
                _ => {
                    let from = (rank.rank() + 1) % rank.size();
                    let _ = rank.recv::<f64>(from, 99);
                }
            }
            0u64
        });
    }

    #[derive(Debug, Default)]
    struct CountingHooks {
        starts: AtomicU64,
        colls: AtomicU64,
        /// Bit `r` is set once rank `r` finalized.
        finalized: AtomicU64,
        leaks: AtomicU64,
    }

    impl VerifyHooks for CountingHooks {
        fn on_start(&self, _size: usize) {
            self.starts.fetch_add(1, Ordering::Relaxed);
        }
        fn on_collective(
            &self,
            _rank: usize,
            _seq: u64,
            _fp: CollFingerprint<'_>,
        ) -> Result<(), String> {
            self.colls.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn on_block(&self, _rank: usize, _src: usize, _tag: Tag, _ctx: &str) -> u64 {
            11
        }
        fn on_block_poll(&self, _rank: usize, _block_id: u64) -> Option<String> {
            None
        }
        fn on_unblock(&self, _rank: usize, _block_id: u64) {}
        fn on_exchange_start(&self, _rank: usize, _ctx: &str) -> u64 {
            0
        }
        fn on_exchange_finish(&self, _rank: usize, _epoch: u64) {}
        fn on_discarded(
            &self,
            _rank: usize,
            _src: usize,
            _tag: Tag,
            _bytes: u64,
            _ctx: Option<&str>,
        ) {
        }
        fn on_finalize(
            &self,
            rank: usize,
            _seq: u64,
            leaked: &[LeakInfo],
            unclaimed: &[(usize, Tag, u64)],
        ) {
            let n = (leaked.len() + unclaimed.len()) as u64;
            self.leaks.fetch_add(n, Ordering::Relaxed);
            self.finalized.fetch_or(1 << rank, Ordering::Relaxed);
        }
    }

    #[test]
    fn socket_verify_hooks_reach_the_hub_checker() {
        let hooks = Arc::new(CountingHooks::default());
        let res = socket_world()
            .with_verifier(hooks.clone())
            .run_dist(3, |rank: &mut Rank| {
                let next = (rank.rank() + 1) % rank.size();
                let prev = (rank.rank() + rank.size() - 1) % rank.size();
                rank.send(next, 3, &[rank.rank() as f64; 32]);
                let got = rank.recv::<f64>(prev, 3);
                rank.allreduce_u64(&[got.len() as u64], ReduceOp::Sum)[0]
            });
        assert_eq!(res.results, vec![96, 96, 96]);
        assert_eq!(hooks.starts.load(Ordering::Relaxed), 1);
        // allreduce + the finalize barrier, fingerprinted on each rank
        assert!(hooks.colls.load(Ordering::Relaxed) >= 6);
        // each rank finalized once, under the rank of its own connection
        assert_eq!(hooks.finalized.load(Ordering::Relaxed), 0b111);
        assert_eq!(hooks.leaks.load(Ordering::Relaxed), 0);
    }

    /// One valid request body per verify method, in the layout
    /// `VerifyClient` writes.
    fn verify_requests() -> Vec<(u8, Vec<u8>)> {
        let mut collective = Vec::new();
        put_u64(&mut collective, 5); // seq
        put_u8(&mut collective, coll_kind_to_u8(CollKind::Allreduce));
        put_str(&mut collective, "f64");
        Some(4u64).encode(&mut collective);
        put_str(&mut collective, "dot");
        let mut block = Vec::new();
        put_u32(&mut block, 1);
        put_u64(&mut block, 9);
        put_str(&mut block, "halo");
        let mut exchange_start = Vec::new();
        put_str(&mut exchange_start, "gs");
        let mut discarded = Vec::new();
        put_u32(&mut discarded, 1);
        put_u64(&mut discarded, 9);
        put_u64(&mut discarded, 64);
        Some(String::from("gs")).encode(&mut discarded);
        let mut finalize = Vec::new();
        put_u64(&mut finalize, 5); // collective count
        put_u64(&mut finalize, 1);
        LeakInfo {
            src: 1,
            tag: 9,
            bytes: 64,
            sender_context: Some("orphan".into()),
        }
        .encode(&mut finalize);
        put_u64(&mut finalize, 1);
        for v in [1, 9, 2] {
            put_u64(&mut finalize, v);
        }
        vec![
            (M_COLLECTIVE, collective),
            (M_BLOCK, block),
            (M_BLOCK_POLL, 11u64.to_le_bytes().to_vec()),
            (M_UNBLOCK, 11u64.to_le_bytes().to_vec()),
            (M_EXCHANGE_START, exchange_start),
            (M_EXCHANGE_FINISH, 0u64.to_le_bytes().to_vec()),
            (M_DISCARDED, discarded),
            (M_FINALIZE, finalize),
        ]
    }

    /// The hub's request decoder on hostile bodies: every method's valid
    /// body serves, the same body cut short anywhere is an error (before
    /// any hook runs), and an unknown method byte is refused.
    #[test]
    fn truncated_verify_requests_are_errors() {
        let hooks = CountingHooks::default();
        hooks.on_start(2);
        for (method, body) in verify_requests() {
            let mut req = vec![method];
            req.extend_from_slice(&body);
            let ok = serve_verify(&hooks, 1, &mut WireReader::new(&req));
            assert!(ok.is_ok(), "method {method}: {ok:?}");
            for cut in 0..req.len() {
                let got = serve_verify(&hooks, 1, &mut WireReader::new(&req[..cut]));
                assert!(got.is_err(), "method {method} accepted {cut} bytes");
            }
        }
        assert_eq!(hooks.finalized.load(Ordering::Relaxed), 0b10);
        for method in [0u8, 9, 0xff] {
            let got = serve_verify(&hooks, 0, &mut WireReader::new(&[method]));
            assert_eq!(got, Err(WireError::Malformed("verify method")));
        }
    }

    /// A prefix that claims a gigabyte, sixteen body bytes, then EOF: an
    /// error, and the buffer grew with the bytes that came, not the claim.
    #[test]
    fn read_frame_does_not_allocate_what_a_prefix_claims() {
        let mut stream = (1u32 << 30).to_le_bytes().to_vec();
        stream.extend_from_slice(&[7u8; 16]);
        let mut buf = Vec::new();
        assert!(read_frame(&mut stream.as_slice(), &mut buf).is_err());
        assert!(buf.capacity() < 1 << 20, "grew to {} bytes", buf.capacity());
    }

    /// Frames of falling and rising sizes through one reused buffer come
    /// back whole, prefix included; EOF between frames is clean.
    #[test]
    fn read_frame_returns_each_frame_whole() {
        let frames: Vec<Vec<u8>> = [3000usize, 2, 200_000, 40]
            .iter()
            .map(|&n| {
                let mut f = Vec::new();
                wire::encode_data(&mut f, 1, &Envelope::new(0, 1, vec![0x5Au8; n]));
                f
            })
            .collect();
        let stream = frames.concat();
        let mut rd = stream.as_slice();
        let mut buf = Vec::new();
        for f in &frames {
            assert!(read_frame(&mut rd, &mut buf).unwrap());
            assert_eq!(buf, *f);
            assert!(wire::open_frame(&buf).is_ok());
        }
        assert!(!read_frame(&mut rd, &mut buf).unwrap());
        // EOF inside a body is an error, not a clean end
        let mut rd = &stream[..frames[0].len() - 1];
        assert!(read_frame(&mut rd, &mut buf).is_err());
    }

    #[test]
    fn socket_transport_works_over_tcp() {
        let world = World::new().with_transport(TransportKind::Socket(SocketConfig {
            addr: Some("tcp:127.0.0.1:0".into()),
            threads: true,
        }));
        let res = world.run_dist(3, |rank: &mut Rank| {
            rank.allreduce_u64(&[rank.rank() as u64 + 1], ReduceOp::Sum)[0]
        });
        assert_eq!(res.results, vec![6, 6, 6]);
    }
}
