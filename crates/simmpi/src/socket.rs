//! The multi-process socket backend.
//!
//! Topology is a star: the launcher (the process the user started) binds
//! a Unix-domain listener (`unix:<path>`, the only address form) and acts
//! as a **hub**; every rank is a **child** — a re-executed copy of the
//! current binary in process mode, or a thread of the launcher in
//! [`crate::SocketConfig::threads`] test mode — holding exactly one
//! connection to the hub. The hub forwards data frames between children
//! by peeking their source and destination ranks at fixed offsets
//! ([`crate::wire::peek_data_ends`]), collects each child's encoded
//! return value + [`CommStats`], and broadcasts a poison frame when a
//! child dies so blocked peers abort instead of deadlocking — the same
//! guarantee the in-process backend gets from its shared poison flag.
//! The transport carries data only: a verifier runs in-process only, and
//! [`crate::World::run_dist`] refuses a socket world that has one.
//!
//! Each of the hub's decisions is a plain function over one frame's
//! bytes: [`hello`] names a new connection's rank, [`route`] says what to
//! do with every later frame, and [`poisoned_by_close`] names the peers a
//! closed connection poisons.
//! `hub_reader` (one thread per connection, writing straight to the
//! destination's connection) and `run_launcher` are the I/O shell around
//! them, so every hostile-input case is a unit test without a socket.
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
//! identical argv, rebuilds the identical `World` (fault plan, pooling),
//! and [`crate::World::run_dist`] diverts it
//! into [`child_env`]-guided [`run_child_process`], which never returns.

use std::io::{self, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::envelope::Envelope;
use crate::mailbox::Mailbox;
use crate::pool::BufferPool;
use crate::rank::Rank;
use crate::stats::CommStats;
use crate::transport::{RxDrain, SocketConfig, Transport};
use crate::wire::{self, put_u32, FrameKind, WireCodec, WireError, WireReader};
use crate::world::{World, WorldResult};

const ENV_RANK: &str = "SIMMPI_SOCKET_RANK";
const ENV_SIZE: &str = "SIMMPI_SOCKET_SIZE";
const ENV_ADDR: &str = "SIMMPI_SOCKET_ADDR";

/// How long the hub waits for all ranks to connect at startup.
const CONNECT_DEADLINE: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------
// addressing
// ---------------------------------------------------------------------

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

/// The socket path of a transport address; `unix:<path>` is the only form.
pub(crate) fn unix_path(addr: &str) -> io::Result<&str> {
    addr.strip_prefix("unix:").ok_or_else(|| {
        io::Error::other(format!("bad transport address {addr:?} (want unix:<path>)"))
    })
}

/// Bind the hub's listener at `addr`, replacing a stale socket file.
fn bind(addr: &str) -> io::Result<UnixListener> {
    let path = unix_path(addr)?;
    let _ = std::fs::remove_file(path);
    UnixListener::bind(path)
}

/// Connect to the hub, retrying briefly (a process-mode child can win the
/// race against the launcher finishing its spawn loop).
fn connect(addr: &str) -> io::Result<UnixStream> {
    let path = unix_path(addr)?;
    let mut last = io::Error::other("no connection attempt made");
    for _ in 0..500 {
        match UnixStream::connect(path) {
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

/// A child rank's shared connection state: the write half (written by
/// the rank thread alone, so frames need no lock to stay whole), the
/// inbox the reader thread fills, and the receive-side accounting the
/// transport drains at rank epilogue.
struct Endpoint {
    me: usize,
    writer: UnixStream,
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
}

impl Endpoint {
    /// Write one complete frame: a single `write_all`, so the peer is
    /// woken once per frame, not once for the prefix and again for the body.
    fn send_frame(&self, frame: &[u8]) -> io::Result<()> {
        (&self.writer).write_all(frame)
    }
}

/// The child's receive loop, run on a detached thread: decode data
/// frames into the inbox and raise the poison flag on a poison frame or
/// on any disconnect.
fn reader_loop(ep: Arc<Endpoint>, mut conn: UnixStream) {
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
fn child_session<T, F>(world: &World, rank: usize, size: usize, mut conn: UnixStream, f: &F)
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
    // The hub answers a hello with go, or closes the connection.
    let go = read_frame(&mut conn, &mut buf)
        .unwrap_or_else(|e| panic!("rank {rank}: lost hub: {e}"))
        && matches!(wire::open_frame(&buf), Ok((FrameKind::Go, _)));
    assert!(go, "rank {rank}: hub closed before go");

    let writer = conn.try_clone().expect("connection clone");
    let poisoned = Arc::new(AtomicBool::new(false));
    let ep = Arc::new(Endpoint {
        me: rank,
        writer,
        tx: Mutex::new(Vec::new()),
        inbox: Mailbox::new(),
        pool: BufferPool::new(world.pooling),
        poisoned: Arc::clone(&poisoned),
        rx_deser_nanos: AtomicU64::new(0),
        rx_frames: AtomicU64::new(0),
        rx_bytes: AtomicU64::new(0),
        rx_max_frame: AtomicU64::new(0),
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
                let _ = self.0.writer.shutdown(Shutdown::Write);
            }
        }
    }
    let _guard = ShutdownOnPanic(Arc::clone(&ep));

    let transport = Box::new(SocketTransport {
        ep: Arc::clone(&ep),
    });
    let (out, stats) =
        crate::world::execute_rank(world, rank, size, transport, ep.pool.clone(), poisoned, f);

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
    let _ = ep.writer.shutdown(Shutdown::Write);
}

// ---------------------------------------------------------------------
// launcher hub: decisions over one frame
// ---------------------------------------------------------------------

/// Why the hub refuses a frame. A refused frame closes its connection,
/// and a rank whose connection closes before its result poisons its peers.
#[derive(Debug, PartialEq)]
enum HubError {
    /// The frame does not open, or its body does not decode.
    Wire(WireError),
    /// A frame kind a child does not send at this point of the protocol.
    Unexpected(FrameKind),
    /// A hello naming rank `rank` of a `size`-rank world that is not this one.
    Misfit { rank: usize, size: usize },
    /// A data frame not from its connection's rank or not to a rank of the world.
    Misaddressed { src: usize, dest: usize },
}

impl From<WireError> for HubError {
    fn from(e: WireError) -> Self {
        HubError::Wire(e)
    }
}

/// The rank that a connection's first frame, its hello, names in a
/// `p`-rank world.
fn hello(frame: &[u8], p: usize) -> Result<usize, HubError> {
    let (kind, mut rd) = wire::open_frame(frame)?;
    if kind != FrameKind::Hello {
        return Err(HubError::Unexpected(kind));
    }
    let rank = rd.u32()? as usize;
    let size = rd.u32()? as usize;
    if rd.remaining() != 0 {
        return Err(WireError::Malformed("hello").into());
    }
    if size != p || rank >= p {
        return Err(HubError::Misfit { rank, size });
    }
    Ok(rank)
}

/// What the hub does with one frame read from rank `r`'s connection.
#[derive(Debug, PartialEq)]
enum Route<'a> {
    /// Write the frame, verbatim, to rank `dest`.
    Forward(usize),
    /// Rank `r`'s encoded return value and [`CommStats`].
    Result(&'a [u8]),
    /// Stop reading the connection.
    Close(HubError),
}

/// Route one frame from rank `r` of a `p`-rank world. A data frame is
/// routed on a peek at its two rank fields and never opened: the
/// destination child checks magic, version and checksum when it decodes.
fn route(r: usize, p: usize, frame: &[u8]) -> Route<'_> {
    if let Some((src, dest)) = wire::peek_data_ends(frame) {
        return if src == r && dest < p {
            Route::Forward(dest)
        } else {
            Route::Close(HubError::Misaddressed { src, dest })
        };
    }
    match wire::open_frame(frame) {
        Ok((FrameKind::Result, mut rd)) => Route::Result(rd.rest()),
        Ok((kind, _)) => Route::Close(HubError::Unexpected(kind)),
        Err(e) => Route::Close(e.into()),
    }
}

/// The peers poisoned when rank `r`'s connection closes: every other rank
/// if `r` never delivered its result (it died), none once it has.
fn poisoned_by_close(r: usize, p: usize, delivered: bool) -> impl Iterator<Item = usize> {
    (0..p).filter(move |&q| !delivered && q != r)
}

// ---------------------------------------------------------------------
// launcher hub: the I/O shell
// ---------------------------------------------------------------------

/// Per-child hub loop: read rank `r`'s frames and do what [`route`] says
/// until the connection closes or a frame is refused. Returns the
/// child's encoded result, or `None` if it closed without one (died) —
/// in which case every other child has been sent a poison frame.
fn hub_reader(
    r: usize,
    p: usize,
    mut conn: UnixStream,
    writers: &[Mutex<UnixStream>],
) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    let mut result: Option<Vec<u8>> = None;
    while let Ok(true) = read_frame(&mut conn, &mut buf) {
        match route(r, p, &buf) {
            // Write errors are ignored: the destination may have finished
            // and exited (its unreceived messages are the same app-level
            // leak the inproc backend tolerates); genuine deaths are
            // caught by that child's own EOF.
            Route::Forward(dest) => {
                let _ = writers[dest].lock().unwrap().write_all(&buf);
            }
            Route::Result(bytes) => result = Some(bytes.to_vec()),
            Route::Close(_) => break,
        }
    }
    let poison = control_frame(FrameKind::Poison);
    for q in poisoned_by_close(r, p, result.is_some()) {
        let _ = writers[q].lock().unwrap().write_all(&poison);
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
    let addr = cfg.addr.clone().unwrap_or_else(auto_addr);
    let listener =
        bind(&addr).unwrap_or_else(|e| panic!("socket transport cannot bind {addr}: {e}"));

    let mut procs: Vec<Child> = Vec::new();
    if !cfg.threads {
        let exe = std::env::current_exe().expect("current_exe for child re-exec");
        for r in 0..p {
            // The child re-parses the identical argv, rebuilds the
            // identical World (fault plan, pooling)
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
                let addr = &addr;
                kids.push(scope.spawn(move || {
                    let conn =
                        connect(addr).unwrap_or_else(|e| panic!("rank {r}: cannot reach hub: {e}"));
                    child_session(world, r, p, conn, f);
                }));
            }
        }

        // Accept all ranks' hellos (non-blocking so a child that died
        // before connecting fails the launch instead of hanging it).
        listener.set_nonblocking(true).expect("listener mode");
        let deadline = Instant::now() + CONNECT_DEADLINE;
        let mut conns: Vec<Option<UnixStream>> = (0..p).map(|_| None).collect();
        let mut accepted = 0usize;
        let mut startup_err: Option<String> = None;
        while accepted < p {
            match listener.accept() {
                Ok((mut conn, _)) => {
                    conn.set_nonblocking(false).expect("conn mode");
                    let mut buf = Vec::new();
                    let rank = match read_frame(&mut conn, &mut buf) {
                        Ok(true) => hello(&buf, p).map_err(|e| format!("{e:?}")),
                        Ok(false) => Err("closed before hello".into()),
                        Err(e) => Err(e.to_string()),
                    };
                    match rank {
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

        // Every rank connected exactly once, so every slot is filled.
        let conns: Vec<UnixStream> = conns.into_iter().flatten().collect();
        let writers: Vec<Mutex<UnixStream>> = conns
            .iter()
            .map(|c| c.try_clone().map(Mutex::new))
            .collect::<io::Result<_>>()
            .expect("connection clone");
        let go = control_frame(FrameKind::Go);
        for w in &writers {
            w.lock().unwrap().write_all(&go).expect("go frame");
        }

        let writers = &writers;
        std::thread::scope(|hub| {
            let readers: Vec<_> = conns
                .into_iter()
                .enumerate()
                .map(|(r, conn)| hub.spawn(move || hub_reader(r, p, conn, writers)))
                .collect();
            for (r, h) in readers.into_iter().enumerate() {
                match h.join() {
                    Ok(Some(bytes)) => result_bytes[r] = Some(bytes),
                    Ok(None) | Err(_) => failed.push(r),
                }
            }
        });
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
    if let Ok(path) = unix_path(&addr) {
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
    use crate::rank::Tag;
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

    /// A hook set no refused world reaches.
    #[derive(Debug)]
    struct NoHooks;

    impl crate::VerifyHooks for NoHooks {
        fn on_start(&self, _size: usize) {}
        fn on_collective(
            &self,
            _rank: usize,
            _seq: u64,
            _fp: crate::CollFingerprint<'_>,
        ) -> Result<(), String> {
            Ok(())
        }
        fn on_block(&self, _rank: usize, _src: usize, _tag: Tag, _ctx: &str) -> u64 {
            0
        }
        fn on_block_poll(&self, _rank: usize, _block_id: u64) -> Option<String> {
            None
        }
        fn on_unblock(&self, _rank: usize, _block_id: u64) {}
        fn on_finalize(&self, _rank: usize, _seq: u64, _leaked: &[crate::LeakInfo]) {}
    }

    /// A verifier runs in-process only: a socket world that has one is
    /// refused before the hub binds (the address names a directory that
    /// does not exist, so a bind would panic with another message).
    #[test]
    #[should_panic(expected = "a verifier runs in-process only")]
    fn a_socket_world_with_a_verifier_is_refused() {
        let addr = std::env::temp_dir().join("simmpi-absent-dir/hub.sock");
        let _ = World::new()
            .with_transport(TransportKind::Socket(SocketConfig {
                addr: Some(format!("unix:{}", addr.display())),
                threads: true,
            }))
            .with_verifier(Arc::new(NoHooks))
            .run_dist(2, |_: &mut Rank| 0u64);
    }

    // The hub's decisions, over byte slices: no socket, thread or process.

    const P: usize = 4;
    const R: usize = 1;

    /// A complete frame of `kind` carrying `body`.
    fn frame(kind: FrameKind, body: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        wire::begin_frame(&mut f, kind);
        f.extend_from_slice(body);
        wire::end_frame(&mut f);
        f
    }

    fn hello_frame(rank: u32, size: u32) -> Vec<u8> {
        let mut body = Vec::new();
        put_u32(&mut body, rank);
        put_u32(&mut body, size);
        frame(FrameKind::Hello, &body)
    }

    fn data_frame(src: usize, dest: usize) -> Vec<u8> {
        let mut f = Vec::new();
        wire::encode_data(&mut f, dest, &Envelope::new(src, 9, vec![1.5f64; 3]));
        f
    }

    /// What a result frame carries; the hub hands it on undecoded.
    const RESULT: &[u8] = b"result and stats";

    /// Every kind of frame rank `R` sends: its hello, then one data frame
    /// per peer and its result.
    fn child_frames() -> Vec<Vec<u8>> {
        let mut frames = vec![hello_frame(R as u32, P as u32)];
        frames.extend((0..P).filter(|&q| q != R).map(|q| data_frame(R, q)));
        frames.push(frame(FrameKind::Result, RESULT));
        frames
    }

    #[test]
    fn hello_names_a_rank_of_this_world_only() {
        assert_eq!(hello(&hello_frame(R as u32, P as u32), P), Ok(R));
        let misfit = |rank, size| Err(HubError::Misfit { rank, size });
        assert_eq!(hello(&hello_frame(P as u32, P as u32), P), misfit(P, P));
        assert_eq!(hello(&hello_frame(1, 3), P), misfit(1, 3));
        let mut long = Vec::new();
        for v in [1, 4, 0] {
            put_u32(&mut long, v);
        }
        let long = frame(FrameKind::Hello, &long);
        assert_eq!(hello(&long, P), Err(WireError::Malformed("hello").into()));
        // every later frame a child sends, and every frame only the hub sends
        for f in &child_frames()[1..] {
            assert!(hello(f, P).is_err());
        }
        for kind in [FrameKind::Go, FrameKind::Poison] {
            assert_eq!(hello(&frame(kind, &[]), P), Err(HubError::Unexpected(kind)));
        }
    }

    #[test]
    fn route_sends_every_child_frame_where_it_belongs() {
        for q in (0..P).filter(|&q| q != R) {
            assert_eq!(route(R, P, &data_frame(R, q)), Route::Forward(q));
        }
        let f = frame(FrameKind::Result, RESULT);
        assert_eq!(route(R, P, &f), Route::Result(RESULT));
        // a second hello, and the kinds only the hub sends
        for kind in [FrameKind::Hello, FrameKind::Go, FrameKind::Poison] {
            let f = frame(kind, &[]);
            assert_eq!(route(R, P, &f), Route::Close(HubError::Unexpected(kind)));
        }
    }

    #[test]
    fn route_refuses_a_misaddressed_data_frame() {
        let misaddressed = |src, dest| Route::Close(HubError::Misaddressed { src, dest });
        assert_eq!(route(R, P, &data_frame(R, P)), misaddressed(R, P));
        let far = u32::MAX as usize;
        assert_eq!(route(R, P, &data_frame(R, far)), misaddressed(R, far));
        // a child sends only as itself
        assert_eq!(route(R, P, &data_frame(2, 0)), misaddressed(2, 0));
        // forwarded unopened: the destination checks the checksum
        let mut torn = data_frame(R, 0);
        *torn.last_mut().unwrap() ^= 1;
        assert_eq!(route(R, P, &torn), Route::Forward(0));
    }

    #[test]
    fn every_truncation_of_a_child_frame_is_refused() {
        for f in child_frames() {
            for cut in 0..f.len() {
                let got = route(R, P, &f[..cut]);
                assert!(matches!(got, Route::Close(_)), "{cut} bytes: {got:?}");
                assert!(hello(&f[..cut], P).is_err(), "{cut} bytes");
            }
        }
    }

    #[test]
    fn a_close_poisons_the_peers_only_before_a_result() {
        let poisoned = |r, p, delivered| poisoned_by_close(r, p, delivered).collect::<Vec<_>>();
        assert_eq!(poisoned(R, P, false), [0, 2, 3]);
        assert_eq!(poisoned(R, P, true), []);
        assert_eq!(poisoned(0, 1, false), []);
    }

    /// Seeded arbitrary bytes, raw, framed as every kind, and as a child
    /// frame with one byte bent: the hub's decisions refuse or route them
    /// and never panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_hub() {
        use crate::rng::SmallRng;
        let kinds = [
            FrameKind::Hello,
            FrameKind::Go,
            FrameKind::Data,
            FrameKind::Result,
            FrameKind::Poison,
        ];
        let valid = child_frames();
        let decide = |f: &[u8]| {
            let _ = hello(f, P);
            if let Route::Forward(dest) = route(R, P, f) {
                assert!(dest < P);
            }
        };
        let mut rng = SmallRng::seed_from_u64(0x4855_4231);
        for _ in 0..20_000 {
            let junk: Vec<u8> = (0..rng.range_usize(0, 96))
                .map(|_| rng.next_u64() as u8)
                .collect();
            assert!(hello(&junk, P).is_err());
            assert!(matches!(route(R, P, &junk), Route::Close(_)));
            decide(&frame(kinds[rng.range_usize(0, kinds.len())], &junk));
            let mut bent = valid[rng.range_usize(0, valid.len())].clone();
            let at = rng.range_usize(0, bent.len());
            bent[at] ^= rng.range_u64(1, 256) as u8;
            decide(&bent);
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
}
