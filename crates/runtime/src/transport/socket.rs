//! The socket transport: the actor fabric over length-prefixed frames
//! on Unix-domain or TCP sockets.
//!
//! Every participant (each worker, plus the driver) owns an
//! [`Endpoint`]: one listening socket, an accept pump, one reader
//! thread per accepted connection, and a cache of lazily-dialed
//! outbound links. Link topology:
//!
//! * **driver → worker** (one per worker): carries [`Command`] frames
//!   and driver-originated abort [`Msg`]s. EOF on this link tells the
//!   worker the driver is gone (or it is being respawned) and it shuts
//!   down.
//! * **worker → driver** (one per worker): carries [`Reply`] frames
//!   and heartbeats. The driver-side reader *takes* the actor's reply
//!   sender at the handshake and drops it on EOF, so a dead worker
//!   surfaces through the exact channel-disconnect path the in-process
//!   transport uses (`RuntimeError::ActorDied`).
//! * **worker → worker** (lazily dialed): carries data-plane [`Msg`]s.
//!   A write failure drops the link and re-dials once with bounded
//!   exponential backoff — the per-peer reconnect path.
//!
//! Wire-level chaos (one-way partitions, one-shot connection drops and
//! delays) lives in the *sending* endpoint and is injected through the
//! ordinary fault queue; `kill -9` semantics are an endpoint
//! [`Endpoint::sever`] (threads backend) or a real `SIGKILL` (process
//! backend) — no goodbye frames, detection is bounded by reply-link
//! EOF plus heartbeat suspicion.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use raxpp_taskgraph::MpmdProgram;

use crate::actor::{actor_main, Command, Exit, Msg, Payload, Reply, DRIVER};
use crate::fault::Fault;
use crate::runtime::ActorLink;
use crate::transport::wire::{
    decode_command, decode_msg, decode_reply, encode_command, encode_heartbeat, encode_hello,
    encode_msg, encode_reply, read_frame, write_frame, CMD, DATA, HEARTBEAT, HELLO, LINK_CMD,
    LINK_DATA, LINK_REPLY, REPLY,
};
use crate::transport::{CmdPort, Fabric, ReplyPort, Transport, TransportKind, TransportStats};

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

/// Inbound routing tables: what an endpoint's readers deliver into.
enum Routes {
    Worker {
        /// Master inbox sender; readers clone it per connection. Taken
        /// by [`Endpoint::sever`] so a severed actor's blocking `Recv`
        /// observes "inbox closed" once the readers drain.
        inbox: Mutex<Option<Sender<Msg>>>,
        /// The actor-loop command sender, *taken* by the driver link's
        /// reader at the handshake; EOF drops it, ending the actor
        /// loop cleanly.
        cmd: Mutex<Option<Sender<Command>>>,
    },
    Driver {
        /// Per-actor reply senders, taken by the reply-link reader at
        /// the handshake; EOF drops the sender, surfacing as the
        /// `Disconnected` the driver already maps to `ActorDied`.
        slots: Vec<Mutex<Option<Sender<Reply>>>>,
        /// Last heartbeat (or reply) arrival per actor.
        last_heard: Vec<Mutex<Instant>>,
    },
}

/// One participant's socket presence: listener, accept/reader pumps,
/// outbound link cache, chaos state.
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
    routes: Routes,
}

impl Endpoint {
    /// Binds the endpoint's listener and starts its accept pump.
    fn bind(
        me: usize,
        dir: &Path,
        scheme: Scheme,
        stats: Arc<WireStats>,
        routes: Routes,
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
            routes,
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

    /// Per-connection reader: handshake, then pump frames into the
    /// routing tables until EOF or error.
    fn reader(self: Arc<Endpoint>, mut s: Stream) {
        let hello = match read_frame(&mut s) {
            Ok(b) => b,
            Err(_) => return,
        };
        let mut d = crate::transport::wire::Dec::new(&hello);
        let (from, link_kind) = match (d.u8(), d.actor(), d.u8()) {
            (Ok(HELLO), Ok(f), Ok(k)) => (f, k),
            _ => return,
        };
        // Capture the sender this link's EOF must release.
        let mut cmd_tx: Option<Sender<Command>> = None;
        let mut reply_tx: Option<Sender<Reply>> = None;
        let inbox_tx: Option<Sender<Msg>> = match &self.routes {
            Routes::Worker { inbox, cmd } => {
                if link_kind == LINK_CMD {
                    cmd_tx = cmd.lock().unwrap().take();
                }
                inbox.lock().unwrap().clone()
            }
            Routes::Driver { slots, .. } => {
                if link_kind == LINK_REPLY {
                    if let Some(slot) = slots.get(from) {
                        reply_tx = slot.lock().unwrap().take();
                    }
                }
                None
            }
        };
        while self.alive.load(Ordering::Relaxed) {
            let frame = match read_frame(&mut s) {
                Ok(f) => f,
                Err(_) => break, // EOF or severed: drop the senders below
            };
            self.stats
                .bytes_rx
                .fetch_add(4 + frame.len() as u64, Ordering::Relaxed);
            let mut d = crate::transport::wire::Dec::new(&frame);
            match d.u8() {
                Ok(DATA) => {
                    if let (Ok(m), Some(inbox)) = (decode_msg(&mut d), inbox_tx.as_ref()) {
                        let _ = inbox.send(m);
                    }
                }
                Ok(CMD) => {
                    if let (Ok(c), Some(tx)) = (decode_command(&mut d), cmd_tx.as_ref()) {
                        if tx.send(c).is_err() {
                            break; // actor loop ended
                        }
                    }
                }
                Ok(REPLY) => {
                    if let (Ok(r), Some(tx)) = (decode_reply(&mut d), reply_tx.as_ref()) {
                        self.note_heard(from);
                        let _ = tx.send(r);
                    }
                }
                Ok(HEARTBEAT) => self.note_heard(from),
                _ => break, // protocol error: treat like a dead link
            }
        }
        // Dropping cmd_tx / reply_tx here is the liveness signal: the
        // far side of the corresponding in-process channel observes
        // Disconnected.
        drop(cmd_tx);
        drop(reply_tx);
    }

    fn note_heard(&self, from: usize) {
        if let Routes::Driver { last_heard, .. } = &self.routes {
            if let Some(m) = last_heard.get(from) {
                *m.lock().unwrap() = Instant::now();
            }
        }
    }

    /// Dials `to`, retrying with bounded exponential backoff until the
    /// connect budget runs out, then performs the HELLO handshake.
    /// `quick` dials exactly once — for best-effort traffic (abort
    /// poison, heartbeats) that must not stall on a dead peer.
    fn dial(&self, to: usize, link_kind: u8, quick: bool) -> Result<Stream, ()> {
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
        let hello = encode_hello(self.me, link_kind);
        let mut s = stream;
        match write_frame(&mut s, &hello) {
            Ok(n) => {
                self.stats.bytes_tx.fetch_add(n, Ordering::Relaxed);
                Ok(s)
            }
            Err(_) => Err(()),
        }
    }

    /// Which link kind an outbound frame to `to` travels on, and
    /// whether a write failure may transparently re-dial (only
    /// worker↔worker data links: a broken control link *is* the
    /// death/respawn signal and must not be papered over).
    fn link_kind_for(&self, to: usize) -> (u8, bool) {
        if self.me == DRIVER {
            (LINK_CMD, false)
        } else if to == DRIVER {
            (LINK_REPLY, false)
        } else {
            (LINK_DATA, true)
        }
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
        let (kind, redial) = self.link_kind_for(to);
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
        let mut attempts = if redial || forced_drop { 2 } else { 1 };
        loop {
            if guard.is_none() {
                if slot.was_connected.load(Ordering::Relaxed) {
                    self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                }
                *guard = Some(self.dial(to, kind, quick)?);
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

    pub(crate) fn send_msg(&self, to: usize, m: &Msg) -> Result<(), ()> {
        // Abort poison is best-effort: a dead peer must not stall the
        // broadcaster for the full connect budget.
        let quick = matches!(m.payload, Payload::Abort(_));
        self.send_frame(to, &encode_msg(m), quick)
    }

    pub(crate) fn send_command(&self, to: usize, c: &Command) -> Result<(), ()> {
        self.send_frame(to, &encode_command(c), false)
    }

    pub(crate) fn send_reply(&self, r: &Reply) -> Result<(), ()> {
        self.send_frame(DRIVER, &encode_reply(r), false)
    }

    pub(crate) fn send_heartbeat(&self) -> Result<(), ()> {
        self.send_frame(DRIVER, &encode_heartbeat(self.me), true)
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
    /// through reply-link EOF or heartbeat silence. Idempotent.
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
        if let Routes::Worker { inbox, cmd } = &self.routes {
            drop(inbox.lock().unwrap().take());
            drop(cmd.lock().unwrap().take());
        }
    }

    // Driver-side bookkeeping -----------------------------------------

    fn set_reply_slot(&self, a: usize, tx: Sender<Reply>) {
        if let Routes::Driver { slots, .. } = &self.routes {
            *slots[a].lock().unwrap() = Some(tx);
        }
    }

    fn reset_heard(&self, a: usize) {
        if let Routes::Driver { last_heard, .. } = &self.routes {
            *last_heard[a].lock().unwrap() = Instant::now();
        }
    }

    fn heard_elapsed(&self, a: usize) -> Duration {
        match &self.routes {
            Routes::Driver { last_heard, .. } => last_heard[a].lock().unwrap().elapsed(),
            _ => Duration::ZERO,
        }
    }

    /// Drops the cached outbound link to `a` (used by the driver when
    /// respawning `a`: the next command dials the fresh listener).
    fn clear_link(&self, a: usize) {
        if let Some(slot) = self.links.lock().unwrap().remove(&a) {
            if let Some(s) = slot.stream.lock().unwrap().take() {
                s.shutdown();
            }
        }
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
            while ep.alive.load(Ordering::Relaxed) {
                let _ = ep.send_heartbeat();
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
    /// Binds the driver's endpoint in `dir`.
    fn new(n: usize, dir: PathBuf, own_dir: bool, scheme: Scheme, backend: Backend) -> Self {
        let stats = Arc::new(WireStats::default());
        let routes = Routes::Driver {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            last_heard: (0..n).map(|_| Mutex::new(Instant::now())).collect(),
        };
        let driver_ep = Endpoint::bind(DRIVER, &dir, scheme, Arc::clone(&stats), routes)
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
    pub(crate) fn threads(n: usize, scheme: Scheme) -> SocketTransport {
        let dir = fresh_fleet_dir();
        std::fs::create_dir_all(&dir).expect("create fleet dir");
        let eps = (0..n).map(|_| None).collect();
        Self::new(n, dir, true, scheme, Backend::Threads { eps })
    }

    /// Process-backed fleet: `spawn(a)` launches worker `a` (which must
    /// call [`crate::transport::serve_worker`] against the same
    /// directory).
    pub(crate) fn processes(
        n: usize,
        dir: &Path,
        scheme: Scheme,
        spawn: Box<dyn FnMut(usize) -> std::io::Result<Child> + Send>,
    ) -> std::io::Result<SocketTransport> {
        std::fs::create_dir_all(dir)?;
        let children = (0..n).map(|_| None).collect();
        let backend = Backend::Processes { children, spawn };
        Ok(Self::new(n, dir.to_path_buf(), false, scheme, backend))
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        match self.scheme {
            Scheme::Uds => TransportKind::UnixSocket,
            Scheme::Tcp => TransportKind::Tcp,
        }
    }

    fn spawn_actor(&mut self, a: usize, program: &Arc<MpmdProgram>, origin: Instant) -> ActorLink {
        let (reply_tx, reply_rx) = channel::<Reply>();
        // Order matters: sever the old presence first so nothing stale
        // can accept, then install the fresh reply slot and clear the
        // driver's cached command link so the next send re-dials.
        match &mut self.backend {
            Backend::Threads { eps } => {
                if let Some(old) = eps[a].take() {
                    old.sever();
                }
                self.driver_ep.set_reply_slot(a, reply_tx);
                self.driver_ep.reset_heard(a);
                self.driver_ep.clear_link(a);
                let (cmd_tx, cmd_rx) = channel::<Command>();
                let (inbox_tx, inbox_rx) = channel::<Msg>();
                let routes = Routes::Worker {
                    inbox: Mutex::new(Some(inbox_tx)),
                    cmd: Mutex::new(Some(cmd_tx)),
                };
                let stats = Arc::clone(&self.stats);
                let ep = Endpoint::bind(a, &self.dir, self.scheme, stats, routes)
                    .expect("bind worker endpoint");
                spawn_heartbeat(Arc::clone(&ep));
                let fabric = Fabric::Wire {
                    ep: Arc::clone(&ep),
                    n: self.n,
                };
                let reply = ReplyPort::Wire(Arc::clone(&ep));
                let program = Arc::clone(program);
                let handle = std::thread::Builder::new()
                    .name(format!("raxpp-actor-{a}"))
                    .spawn(move || {
                        let _ = actor_main(a, program, cmd_rx, reply, fabric, inbox_rx, origin);
                    })
                    .expect("spawn actor thread");
                eps[a] = Some(ep);
                ActorLink {
                    cmd: CmdPort::Wire {
                        ep: Arc::clone(&self.driver_ep),
                        peer: a,
                    },
                    reply: reply_rx,
                    handle: Some(handle),
                    dead: false,
                }
            }
            Backend::Processes { children, spawn } => {
                if let Some(mut old) = children[a].take() {
                    let _ = old.kill();
                    let _ = old.wait();
                }
                // A killed worker leaves a stale socket file behind;
                // the respawned process re-binds the same path.
                self.driver_ep.set_reply_slot(a, reply_tx);
                self.driver_ep.reset_heard(a);
                self.driver_ep.clear_link(a);
                let child = spawn(a).expect("spawn worker process");
                children[a] = Some(child);
                ActorLink {
                    cmd: CmdPort::Wire {
                        ep: Arc::clone(&self.driver_ep),
                        peer: a,
                    },
                    reply: reply_rx,
                    handle: None,
                    dead: false,
                }
            }
        }
    }

    fn broadcast_abort(&self, epoch: u64, reason: &str) {
        for a in 0..self.n {
            let _ = self.driver_ep.send_msg(
                a,
                &Msg {
                    from: DRIVER,
                    epoch,
                    payload: Payload::Abort(reason.to_string()),
                },
            );
        }
    }

    fn heartbeat_suspect(&self, a: usize) -> bool {
        self.driver_ep.heard_elapsed(a) > HB_TIMEOUT
    }

    fn note_heartbeat_miss(&self) {
        self.stats.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
    }

    fn heal_wire(&self) {
        for a in 0..self.n {
            self.driver_ep.reset_heard(a);
        }
    }

    fn finished(&mut self, a: usize) -> bool {
        match &mut self.backend {
            Backend::Threads { .. } => false,
            Backend::Processes { children, .. } => match children[a].as_mut() {
                Some(c) => matches!(c.try_wait(), Ok(Some(_))),
                None => true,
            },
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
    let stats = Arc::new(WireStats::default());
    let (cmd_tx, cmd_rx) = channel::<Command>();
    let (inbox_tx, inbox_rx) = channel::<Msg>();
    let routes = Routes::Worker {
        inbox: Mutex::new(Some(inbox_tx)),
        cmd: Mutex::new(Some(cmd_tx)),
    };
    let ep = Endpoint::bind(cfg.me, &cfg.dir, scheme, stats, routes)?;
    spawn_heartbeat(Arc::clone(&ep));
    let fabric = Fabric::Wire {
        ep: Arc::clone(&ep),
        n: cfg.n_actors,
    };
    let reply = ReplyPort::Wire(Arc::clone(&ep));
    let exit = actor_main(
        cfg.me,
        Arc::new(program),
        cmd_rx,
        reply,
        fabric,
        inbox_rx,
        Instant::now(),
    );
    if matches!(exit, Exit::Killed) {
        std::process::abort();
    }
    Ok(())
}
