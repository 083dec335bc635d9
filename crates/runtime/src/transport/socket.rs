//! The socket transport: the actor fabric over length-prefixed frames
//! on Unix-domain or TCP sockets.
//!
//! Every participant (each worker, plus the driver) owns an
//! [`Endpoint`]: one listening socket, an accept pump, one reader
//! thread per accepted connection, a cache of lazily-dialed outbound
//! links, and one inbox every reader delivers into. A link's dialer
//! introduces itself with a one-field `[HELLO][from]` handshake; what
//! the link is follows from the pair `(me, from)`:
//!
//! * **control links** — driver → worker (commands and the driver's
//!   aborts) and worker → driver (replies and heartbeats). A broken
//!   control link *is* the death (or respawn) signal: it is never
//!   re-dialed mid-send, and its reader posts `Gone` for the far side
//!   when it ends — on the driver for the worker's incarnation (which
//!   the driver reports as `RuntimeError::ActorDied`), on a worker for
//!   the driver (the worker shuts down).
//! * **data links** — worker → worker, lazily dialed, carrying data
//!   and aborts. A write failure drops the link and re-dials once with
//!   bounded exponential backoff — the per-peer reconnect path.
//!
//! A link ends at EOF, on a severed endpoint, or at the first frame
//! that does not decode (a protocol error).
//!
//! Wire-level chaos (one-way partitions, one-shot connection drops and
//! delays) lives in the *sending* endpoint and is injected through the
//! ordinary fault queue; `kill -9` semantics are an endpoint
//! [`Endpoint::sever`] (threads backend) or a real `SIGKILL` (process
//! backend) — no goodbye frames, detection is bounded by control-link
//! EOF plus heartbeat suspicion.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use raxpp_taskgraph::MpmdProgram;

use crate::actor::{actor_main, Exit, Msg, Payload, DRIVER};
use crate::fault::Fault;
use crate::runtime::ActorLink;
use crate::transport::wire::{
    decode, decode_hello, encode, encode_heartbeat, encode_hello, read_frame, write_frame,
};
use crate::transport::{Fabric, Transport, TransportKind, TransportStats};

/// Total budget of one dial (bounded retries inside).
const CONNECT_BUDGET: Duration = Duration::from_millis(1500);
/// Write deadline per frame.
const WRITE_TIMEOUT: Duration = Duration::from_millis(5000);
/// Worker heartbeat period.
const HB_INTERVAL: Duration = Duration::from_millis(25);
/// Driver-side silence threshold: an actor not heard from for this long
/// is suspected dead.
const HB_TIMEOUT: Duration = Duration::from_millis(500);
/// How often the accept pump polls its (non-blocking) listener.
const ACCEPT_POLL: Duration = Duration::from_millis(3);
/// First connect-retry backoff; doubles per attempt up to [`DIAL_BACKOFF_CAP`].
const DIAL_BACKOFF: Duration = Duration::from_millis(1);
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(64);

/// Wire scheme: Unix-domain sockets (default) or TCP over loopback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scheme {
    Uds,
    Tcp,
}

/// Fleet-wide wire counters, shared by every endpoint of a transport.
#[derive(Debug, Default)]
pub(crate) struct WireStats {
    pub(crate) bytes_tx: AtomicU64,
    pub(crate) bytes_rx: AtomicU64,
    pub(crate) reconnects: AtomicU64,
    pub(crate) heartbeat_misses: AtomicU64,
}

impl WireStats {
    pub(crate) fn snapshot(&self) -> TransportStats {
        TransportStats {
            bytes_tx: self.bytes_tx.load(Ordering::Relaxed),
            bytes_rx: self.bytes_rx.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            heartbeat_misses: self.heartbeat_misses.load(Ordering::Relaxed),
        }
    }
}

/// A connected stream of either scheme.
enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_write_timeout(&self, d: Duration) {
        let _ = match self {
            Stream::Unix(s) => s.set_write_timeout(Some(d)),
            Stream::Tcp(s) => s.set_write_timeout(Some(d)),
        };
    }

    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// Socket path for endpoint `id` under the fleet directory.
fn sock_path(dir: &Path, id: usize) -> PathBuf {
    if id == DRIVER {
        dir.join("driver.sock")
    } else {
        dir.join(format!("ep{id}.sock"))
    }
}

/// TCP port-discovery file (the listener binds `127.0.0.1:0`).
fn port_path(dir: &Path, id: usize) -> PathBuf {
    if id == DRIVER {
        dir.join("driver.port")
    } else {
        dir.join(format!("ep{id}.port"))
    }
}

/// One cached outbound link: the stream under its write lock, plus a
/// flag marking whether this slot was ever connected (a later dial is
/// then a *re*connect).
struct LinkSlot {
    stream: Mutex<Option<Stream>>,
    was_connected: AtomicBool,
}

/// Sender-side wire chaos, consulted on every outbound frame.
#[derive(Default)]
struct Chaos {
    /// One-way partition: frames to these peers are silently discarded
    /// until [`Endpoint::heal`].
    partition: HashSet<usize>,
    /// One-shot delay (ms) before the next frame to the peer.
    delay: HashMap<usize, u64>,
    /// One-shot: close the cached link to the peer before the next
    /// frame, forcing a transparent re-dial.
    drop_next: HashSet<usize>,
}

/// The driver's view of one actor.
struct Peer {
    /// Last heartbeat (or reply) arrival.
    heard: Instant,
    /// The incarnation a link from this actor belongs to, fixed at its
    /// handshake: the `Gone` its end posts names it.
    incarnation: u64,
}

impl Peer {
    /// Incarnation `incarnation`, just heard from.
    fn fresh(incarnation: u64) -> Peer {
        let heard = Instant::now();
        Peer { heard, incarnation }
    }
}

/// One participant's socket presence: listener, accept/reader pumps,
/// outbound link cache, chaos state, inbox.
pub(crate) struct Endpoint {
    me: usize,
    dir: PathBuf,
    scheme: Scheme,
    alive: AtomicBool,
    listener: Mutex<Option<Listener>>,
    links: Mutex<HashMap<usize, Arc<LinkSlot>>>,
    /// Clones of accepted connections, kept so [`Endpoint::sever`] can
    /// shut them down (waking their readers).
    conns: Mutex<Vec<Stream>>,
    chaos: Mutex<Chaos>,
    stats: Arc<WireStats>,
    /// This participant's inbox; readers clone it per connection.
    /// Taken by [`Endpoint::sever`] so a severed actor's blocking
    /// receive observes "inbox closed" once the readers drain.
    inbox: Mutex<Option<Sender<Msg>>>,
    /// The driver's table, one row per actor (empty on a worker).
    peers: Vec<Mutex<Peer>>,
}

impl Endpoint {
    /// Binds the endpoint's listener and starts its accept pump;
    /// `actors` rows of peer table on the driver, none on a worker.
    fn bind(
        me: usize,
        dir: &Path,
        scheme: Scheme,
        stats: Arc<WireStats>,
        inbox: Sender<Msg>,
        actors: usize,
    ) -> std::io::Result<Arc<Endpoint>> {
        let sp = sock_path(dir, me);
        let _ = std::fs::remove_file(&sp);
        let listener = match scheme {
            Scheme::Uds => {
                let l = UnixListener::bind(&sp)?;
                l.set_nonblocking(true)?;
                Listener::Unix(l)
            }
            Scheme::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")?;
                l.set_nonblocking(true)?;
                let port = l.local_addr()?.port();
                let pp = port_path(dir, me);
                let tmp = pp.with_extension("tmp");
                std::fs::write(&tmp, port.to_string())?;
                std::fs::rename(&tmp, &pp)?;
                Listener::Tcp(l)
            }
        };
        let ep = Arc::new(Endpoint {
            me,
            dir: dir.to_path_buf(),
            scheme,
            alive: AtomicBool::new(true),
            listener: Mutex::new(Some(listener)),
            links: Mutex::new(HashMap::new()),
            conns: Mutex::new(Vec::new()),
            chaos: Mutex::new(Chaos::default()),
            stats,
            inbox: Mutex::new(Some(inbox)),
            peers: (0..actors).map(|_| Mutex::new(Peer::fresh(0))).collect(),
        });
        let pump = Arc::clone(&ep);
        std::thread::Builder::new()
            .name(format!("raxpp-wire-accept-{me}"))
            .spawn(move || pump.accept_pump())
            .expect("spawn accept pump");
        Ok(ep)
    }

    fn accept_pump(self: Arc<Endpoint>) {
        while self.alive.load(Ordering::Relaxed) {
            let accepted = {
                let guard = self.listener.lock().unwrap();
                match guard.as_ref() {
                    Some(l) => l.accept(),
                    None => return,
                }
            };
            match accepted {
                Ok(s) => {
                    let _ = s.set_nonblocking(false);
                    if let Ok(c) = s.try_clone() {
                        self.conns.lock().unwrap().push(c);
                    }
                    let ep = Arc::clone(&self);
                    let _ = std::thread::Builder::new()
                        .name(format!("raxpp-wire-rd-{}", self.me))
                        .spawn(move || ep.reader(s));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => return,
            }
        }
    }

    /// Per-connection reader: handshake, then pump envelopes into the
    /// inbox until EOF, a sever, or a frame that does not decode — all
    /// three end the link. The end of a control link is a departure.
    fn reader(self: Arc<Endpoint>, mut s: Stream) {
        let from = read_frame(&mut s).ok().and_then(|f| decode_hello(&f).ok());
        let inbox = self.inbox.lock().unwrap().clone();
        let (Some(from), Some(inbox)) = (from, inbox) else {
            s.shutdown();
            return;
        };
        let peer = self.peers.get(from);
        let incarnation = peer.map_or(0, |p| p.lock().unwrap().incarnation);
        while self.alive.load(Ordering::Relaxed) {
            let Ok(frame) = read_frame(&mut s) else {
                break; // EOF, or severed
            };
            self.stats
                .bytes_rx
                .fetch_add(4 + frame.len() as u64, Ordering::Relaxed);
            let Ok(msg) = decode(from, &frame) else {
                break; // protocol error: treat like a dead link
            };
            if let Some(p) = peer {
                p.lock().unwrap().heard = Instant::now();
            }
            // A heartbeat carries no envelope; a closed inbox means the
            // actor loop ended.
            if msg.is_some_and(|m| inbox.send(m).is_err()) {
                break;
            }
        }
        s.shutdown();
        if self.me == DRIVER || from == DRIVER {
            let _ = inbox.send(Msg {
                from,
                payload: Payload::Gone(incarnation),
            });
        }
    }

    /// Dials `to`, retrying with bounded exponential backoff until the
    /// connect budget runs out, then performs the HELLO handshake.
    /// `quick` dials exactly once — for best-effort traffic (abort
    /// poison, heartbeats) that must not stall on a dead peer.
    fn dial(&self, to: usize, quick: bool) -> Result<Stream, ()> {
        let deadline = if quick {
            Instant::now()
        } else {
            Instant::now() + CONNECT_BUDGET
        };
        let mut backoff = DIAL_BACKOFF;
        let stream = loop {
            let attempt = match self.scheme {
                Scheme::Uds => UnixStream::connect(sock_path(&self.dir, to)).map(Stream::Unix),
                Scheme::Tcp => std::fs::read_to_string(port_path(&self.dir, to)).and_then(|p| {
                    let port: u16 = p.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad port file")
                    })?;
                    TcpStream::connect(("127.0.0.1", port)).map(Stream::Tcp)
                }),
            };
            match attempt {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline && self.alive.load(Ordering::Relaxed) => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(DIAL_BACKOFF_CAP);
                }
                Err(_) => return Err(()),
            }
        };
        stream.set_write_timeout(WRITE_TIMEOUT);
        let hello = encode_hello(self.me);
        let mut s = stream;
        match write_frame(&mut s, &hello) {
            Ok(n) => {
                self.stats.bytes_tx.fetch_add(n, Ordering::Relaxed);
                Ok(s)
            }
            Err(_) => Err(()),
        }
    }

    /// Whether a write failure toward `to` may transparently re-dial:
    /// only on a worker↔worker data link — a broken control link *is*
    /// the death/respawn signal and must not be papered over.
    fn redials(&self, to: usize) -> bool {
        self.me != DRIVER && to != DRIVER
    }

    /// Sends one frame to `to`, consulting chaos, dialing lazily, and
    /// (on data links) re-dialing once after a write failure.
    fn send_frame(&self, to: usize, payload: &[u8], quick: bool) -> Result<(), ()> {
        if !self.alive.load(Ordering::Relaxed) {
            return Err(());
        }
        // Chaos gate (sender side, per peer).
        let mut forced_drop = false;
        {
            let mut chaos = self.chaos.lock().unwrap();
            if chaos.partition.contains(&to) {
                // One-way partition: pretend success, deliver nothing.
                return Ok(());
            }
            if chaos.drop_next.remove(&to) {
                forced_drop = true;
            }
            if let Some(ms) = chaos.delay.remove(&to) {
                drop(chaos);
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        let slot = {
            let mut links = self.links.lock().unwrap();
            Arc::clone(links.entry(to).or_insert_with(|| {
                Arc::new(LinkSlot {
                    stream: Mutex::new(None),
                    was_connected: AtomicBool::new(false),
                })
            }))
        };
        let mut guard = slot.stream.lock().unwrap();
        if forced_drop {
            if let Some(s) = guard.take() {
                s.shutdown();
            }
        }
        let mut attempts = if self.redials(to) || forced_drop {
            2
        } else {
            1
        };
        loop {
            if guard.is_none() {
                if slot.was_connected.load(Ordering::Relaxed) {
                    self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                *guard = Some(self.dial(to, quick)?);
                slot.was_connected.store(true, Ordering::Relaxed);
            }
            let s = guard.as_mut().expect("dialed above");
            match write_frame(s, payload) {
                Ok(n) => {
                    self.stats.bytes_tx.fetch_add(n, Ordering::Relaxed);
                    return Ok(());
                }
                Err(_) => {
                    if let Some(s) = guard.take() {
                        s.shutdown();
                    }
                    attempts -= 1;
                    if attempts == 0 {
                        return Err(());
                    }
                }
            }
        }
    }

    /// Sends one envelope to `to` in its frame. A departure has none:
    /// the wire observes it as EOF.
    pub(crate) fn send(&self, to: usize, m: &Msg) -> Result<(), ()> {
        let frame = encode(m).ok_or(())?;
        // Abort poison is best-effort: a dead peer must not stall the
        // broadcaster for the full connect budget.
        let quick = matches!(m.payload, Payload::Abort(..));
        self.send_frame(to, &frame, quick)
    }

    /// Applies a wire fault to this endpoint's outbound chaos state.
    pub(crate) fn inject(&self, f: &Fault) {
        let mut chaos = self.chaos.lock().unwrap();
        match f {
            Fault::DropLink { peer } if *peer != DRIVER => {
                chaos.drop_next.insert(*peer);
            }
            Fault::DelayLink { peer, ms } => {
                chaos.delay.insert(*peer, *ms);
            }
            Fault::Partition { to } => {
                chaos.partition.insert(*to);
            }
            _ => {}
        }
    }

    /// Clears all wire chaos (partitions, pending delays/drops).
    pub(crate) fn heal(&self) {
        let mut chaos = self.chaos.lock().unwrap();
        chaos.partition.clear();
        chaos.delay.clear();
        chaos.drop_next.clear();
    }

    /// Kill -9 semantics: closes the listener, every accepted
    /// connection and every outbound link *without any goodbye frame*.
    /// Peers discover the death through EOF/EPIPE (bounded), the driver
    /// through control-link EOF or heartbeat silence. Idempotent.
    pub(crate) fn sever(&self) {
        // One-shot: a late second sever (e.g. `Drop` after an explicit
        // sever, racing a respawn that re-bound the same path) must not
        // unlink the replacement endpoint's socket file.
        if !self.alive.swap(false, Ordering::Relaxed) {
            return;
        }
        drop(self.listener.lock().unwrap().take());
        let _ = std::fs::remove_file(sock_path(&self.dir, self.me));
        if self.scheme == Scheme::Tcp {
            let _ = std::fs::remove_file(port_path(&self.dir, self.me));
        }
        for c in self.conns.lock().unwrap().drain(..) {
            c.shutdown();
        }
        for (_, slot) in self.links.lock().unwrap().drain() {
            if let Some(s) = slot.stream.lock().unwrap().take() {
                s.shutdown();
            }
        }
        drop(self.inbox.lock().unwrap().take());
    }

    // Driver-side bookkeeping -----------------------------------------

    /// Readies the driver for incarnation `incarnation` of actor `a`:
    /// a link from `a` now belongs to it, its heartbeat clock restarts,
    /// and the cached command link to the previous incarnation is
    /// dropped so the next send dials the fresh listener.
    fn expect(&self, a: usize, incarnation: u64) {
        *self.peers[a].lock().unwrap() = Peer::fresh(incarnation);
        if let Some(slot) = self.links.lock().unwrap().remove(&a) {
            if let Some(s) = slot.stream.lock().unwrap().take() {
                s.shutdown();
            }
        }
    }

    fn heard_elapsed(&self, a: usize) -> Duration {
        self.peers[a].lock().unwrap().heard.elapsed()
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.sever();
    }
}

/// Starts the worker-side heartbeat pump: a beacon on the driver link
/// every [`HB_INTERVAL`] while the endpoint lives.
pub(crate) fn spawn_heartbeat(ep: Arc<Endpoint>) {
    let _ = std::thread::Builder::new()
        .name(format!("raxpp-hb-{}", ep.me))
        .spawn(move || {
            let beat = encode_heartbeat(ep.me);
            while ep.alive.load(Ordering::Relaxed) {
                let _ = ep.send_frame(DRIVER, &beat, true);
                std::thread::sleep(HB_INTERVAL);
            }
        });
}

// ---------------------------------------------------------------------
// Driver-side transport
// ---------------------------------------------------------------------

/// Monotone fleet-directory counter so concurrent runtimes in one
/// process never collide.
static FLEET_COUNTER: AtomicU64 = AtomicU64::new(0);

fn fresh_fleet_dir() -> PathBuf {
    let c = FLEET_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("raxpp-wire-{}-{c}", std::process::id()))
}

enum Backend {
    /// Workers are threads in this process, but every byte of fabric
    /// traffic crosses real sockets — the wire path CI exercises.
    Threads { eps: Vec<Option<Arc<Endpoint>>> },
    /// Workers are separate OS processes (`raxpp-launch`).
    Processes {
        children: Vec<Option<Child>>,
        spawn: Box<dyn FnMut(usize) -> std::io::Result<Child> + Send>,
    },
}

/// The socket [`Transport`]: a driver endpoint plus a worker fleet on
/// either the thread or the process backend.
pub(crate) struct SocketTransport {
    n: usize,
    scheme: Scheme,
    dir: PathBuf,
    own_dir: bool,
    driver_ep: Arc<Endpoint>,
    stats: Arc<WireStats>,
    backend: Backend,
}

impl SocketTransport {
    /// Binds the driver's endpoint in `dir`, delivering into `inbox`.
    fn new(
        n: usize,
        dir: PathBuf,
        own_dir: bool,
        scheme: Scheme,
        backend: Backend,
        inbox: Sender<Msg>,
    ) -> Self {
        let stats = Arc::new(WireStats::default());
        let driver_ep = Endpoint::bind(DRIVER, &dir, scheme, Arc::clone(&stats), inbox, n)
            .expect("bind driver endpoint");
        SocketTransport {
            n,
            scheme,
            dir,
            own_dir,
            driver_ep,
            stats,
            backend,
        }
    }

    /// Thread-backed socket fleet in a fresh temp directory.
    pub(crate) fn threads(n: usize, scheme: Scheme, inbox: Sender<Msg>) -> SocketTransport {
        let dir = fresh_fleet_dir();
        std::fs::create_dir_all(&dir).expect("create fleet dir");
        let eps = (0..n).map(|_| None).collect();
        Self::new(n, dir, true, scheme, Backend::Threads { eps }, inbox)
    }

    /// Process-backed fleet: `spawn(a)` launches worker `a` (which must
    /// call [`crate::transport::serve_worker`] against the same
    /// directory).
    pub(crate) fn processes(
        n: usize,
        dir: &Path,
        scheme: Scheme,
        spawn: Box<dyn FnMut(usize) -> std::io::Result<Child> + Send>,
        inbox: Sender<Msg>,
    ) -> std::io::Result<SocketTransport> {
        std::fs::create_dir_all(dir)?;
        let children = (0..n).map(|_| None).collect();
        let backend = Backend::Processes { children, spawn };
        Ok(Self::new(
            n,
            dir.to_path_buf(),
            false,
            scheme,
            backend,
            inbox,
        ))
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        match self.scheme {
            Scheme::Uds => TransportKind::UnixSocket,
            Scheme::Tcp => TransportKind::Tcp,
        }
    }

    fn fabric(&self) -> Fabric {
        Fabric::Wire {
            ep: Arc::clone(&self.driver_ep),
            n: self.n,
        }
    }

    fn spawn_actor(
        &mut self,
        a: usize,
        incarnation: u64,
        program: &Arc<MpmdProgram>,
        origin: Instant,
    ) -> ActorLink {
        // Order matters: retire the old presence first so nothing stale
        // can accept or dial, then ready the driver for the new
        // incarnation, then bring it up.
        let handle = match &mut self.backend {
            Backend::Threads { eps } => {
                if let Some(old) = eps[a].take() {
                    old.sever();
                }
                self.driver_ep.expect(a, incarnation);
                let stats = Arc::clone(&self.stats);
                let worker = Worker::bind(a, self.n, &self.dir, self.scheme, stats)
                    .expect("bind worker endpoint");
                eps[a] = Some(Arc::clone(&worker.ep));
                let program = Arc::clone(program);
                let handle = std::thread::Builder::new()
                    .name(format!("raxpp-actor-{a}"))
                    .spawn(move || {
                        worker.serve(program, origin);
                    })
                    .expect("spawn actor thread");
                Some(handle)
            }
            Backend::Processes { children, spawn } => {
                if let Some(mut old) = children[a].take() {
                    let _ = old.kill();
                    let _ = old.wait();
                }
                // A killed worker leaves a stale socket file behind;
                // the respawned process re-binds the same path.
                self.driver_ep.expect(a, incarnation);
                children[a] = Some(spawn(a).expect("spawn worker process"));
                None
            }
        };
        ActorLink {
            handle,
            dead: false,
        }
    }

    fn heartbeat_suspect(&self, a: usize) -> bool {
        self.driver_ep.heard_elapsed(a) > HB_TIMEOUT
    }

    fn note_heartbeat_miss(&self) {
        self.stats.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
    }

    fn heal_wire(&self) {
        for peer in &self.driver_ep.peers {
            peer.lock().unwrap().heard = Instant::now();
        }
    }

    fn needs_program_replay(&self) -> bool {
        matches!(self.backend, Backend::Processes { .. })
    }

    fn kill_process(&mut self, a: usize) -> bool {
        match &mut self.backend {
            Backend::Threads { .. } => false,
            Backend::Processes { children, .. } => children[a]
                .as_mut()
                .map(|c| c.kill().is_ok())
                .unwrap_or(false),
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats.snapshot()
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        match &mut self.backend {
            Backend::Threads { eps } => {
                for ep in eps.iter().flatten() {
                    ep.sever();
                }
            }
            Backend::Processes { children, .. } => {
                // The driver already sent Shutdown; give each worker a
                // moment to exit cleanly, then force it.
                let deadline = Instant::now() + Duration::from_secs(5);
                for c in children.iter_mut().flatten() {
                    loop {
                        match c.try_wait() {
                            Ok(Some(_)) => break,
                            Ok(None) if Instant::now() < deadline => {
                                std::thread::sleep(Duration::from_millis(10))
                            }
                            _ => {
                                let _ = c.kill();
                                let _ = c.wait();
                                break;
                            }
                        }
                    }
                }
            }
        }
        self.driver_ep.sever();
        if self.own_dir {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

// ---------------------------------------------------------------------
// Worker-process entry point
// ---------------------------------------------------------------------

/// Configuration for one worker process of a socket fleet.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// This worker's actor id.
    pub me: usize,
    /// Number of actors in the fleet.
    pub n_actors: usize,
    /// The fleet directory holding every endpoint's socket.
    pub dir: PathBuf,
    /// Use TCP over loopback instead of Unix-domain sockets.
    pub tcp: bool,
}

/// One socket worker, bound and heartbeating: what the thread backend
/// spawns and a worker process runs as its main loop.
struct Worker {
    ep: Arc<Endpoint>,
    n: usize,
    inbox: Receiver<Msg>,
}

impl Worker {
    /// Binds actor `me`'s endpoint in `dir` and starts its heartbeat.
    fn bind(
        me: usize,
        n: usize,
        dir: &Path,
        scheme: Scheme,
        stats: Arc<WireStats>,
    ) -> std::io::Result<Worker> {
        let (tx, inbox) = channel();
        let ep = Endpoint::bind(me, dir, scheme, stats, tx, 0)?;
        spawn_heartbeat(Arc::clone(&ep));
        Ok(Worker { ep, n, inbox })
    }

    /// Serves the actor loop over the endpoint until it exits.
    fn serve(self, program: Arc<MpmdProgram>, origin: Instant) -> Exit {
        let me = self.ep.me;
        let fabric = Fabric::Wire {
            ep: self.ep,
            n: self.n,
        };
        actor_main(me, program, fabric, self.inbox, origin)
    }
}

/// Runs one worker of a process fleet to completion: binds the
/// worker's endpoint in `cfg.dir`, starts its heartbeat, and serves
/// the actor loop until the driver shuts it down (or its control link
/// closes). A worker that consumes a kill fault exits via
/// [`std::process::abort`] — genuine kill -9 semantics, no unwinding,
/// no goodbye.
///
/// `program` must be the same compiled program the driver executes;
/// compilation is deterministic, so driver and workers compile it
/// independently from the same spec instead of shipping it across the
/// wire.
///
/// # Errors
///
/// Returns any I/O error from binding the worker's socket.
pub fn serve_worker(program: MpmdProgram, cfg: &WorkerConfig) -> std::io::Result<()> {
    let scheme = if cfg.tcp { Scheme::Tcp } else { Scheme::Uds };
    let worker = Worker::bind(cfg.me, cfg.n_actors, &cfg.dir, scheme, Arc::default())?;
    let exit = worker.serve(Arc::new(program), Instant::now());
    if matches!(exit, Exit::Killed) {
        std::process::abort();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Reply, ReplyKind};
    use crate::store::SendToken;
    use raxpp_ir::Tensor;
    use raxpp_taskgraph::BufferId;
    use std::sync::mpsc::RecvTimeoutError;

    /// A frame that does not decode ends the link, as EOF does: on a
    /// control link the driver hears `Gone` for the incarnation at once
    /// — it does not wait out the step timeout while heartbeats keep
    /// arriving — and the dialer reads EOF.
    #[test]
    fn a_truncated_reply_ends_the_control_link_with_gone() {
        let dir = fresh_fleet_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let (tx, inbox) = channel();
        let driver = Endpoint::bind(DRIVER, &dir, Scheme::Uds, Arc::default(), tx, 1).unwrap();
        driver.expect(0, 3);
        let mut worker = UnixStream::connect(sock_path(&dir, DRIVER)).unwrap();
        write_frame(&mut worker, &encode_hello(0)).unwrap();
        write_frame(&mut worker, &encode_heartbeat(0)).unwrap();
        let reply = Msg {
            from: 0,
            payload: Payload::Reply(Reply {
                seq: 1,
                kind: ReplyKind::StoreBytes(64),
            }),
        };
        let reply = encode(&reply).unwrap();
        write_frame(&mut worker, &reply[..reply.len() - 1]).unwrap();
        let msg = inbox
            .recv_timeout(HB_TIMEOUT)
            .expect("Gone within the heartbeat threshold");
        assert_eq!(msg.from, 0);
        assert!(
            matches!(msg.payload, Payload::Gone(3)),
            "the link's incarnation"
        );
        assert_eq!(worker.read(&mut [0u8; 1]).unwrap(), 0, "the link ended");
        driver.sever();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A data frame the reader rejects ends that data link and nothing
    /// else: the message in front of it is delivered, the one behind it
    /// never is, no `Gone` is posted (only the end of a control link is
    /// a departure), and the dialer reads EOF.
    #[test]
    fn a_malformed_data_frame_ends_only_that_data_link() {
        let dir = fresh_fleet_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let (tx, inbox) = channel();
        let worker = Endpoint::bind(0, &dir, Scheme::Uds, Arc::default(), tx, 0).unwrap();
        let mut peer = UnixStream::connect(sock_path(&dir, 0)).unwrap();
        peer.set_read_timeout(Some(HB_TIMEOUT)).unwrap();
        write_frame(&mut peer, &encode_hello(1)).unwrap();
        let data = |epoch| {
            let t = Tensor::scalar(1.5);
            let payload = Payload::Data(epoch, BufferId(2), t, SendToken::new());
            encode(&Msg { from: 1, payload }).unwrap()
        };
        write_frame(&mut peer, &data(1)).unwrap();
        write_frame(&mut peer, &[data(2).as_slice(), &[0]].concat()).unwrap();
        // The reader may already have closed the link: the write may fail.
        let _ = write_frame(&mut peer, &data(3));
        let msg = inbox.recv_timeout(HB_TIMEOUT).expect("the first message");
        assert_eq!(msg.from, 1);
        assert!(matches!(msg.payload, Payload::Data(1, BufferId(2), ..)));
        assert_eq!(peer.read(&mut [0u8; 1]).unwrap(), 0, "the link ended");
        // Severed, the endpoint drops its inbox sender and the ended
        // reader has dropped its own: nothing else was delivered.
        worker.sever();
        assert_eq!(
            inbox.recv_timeout(HB_TIMEOUT).err(),
            Some(RecvTimeoutError::Disconnected),
            "no second message and no Gone"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
