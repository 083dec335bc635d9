//! Pluggable actor-fabric transports.
//!
//! The single-controller runtime talks to its actors over three
//! logical channels: a command channel per actor (driver → actor), a
//! reply channel per actor (actor → driver), and the data fabric
//! (actor → actor `Msg`s plus driver abort broadcasts, demuxed
//! per-peer FIFO by each actor's `Mailbox`). The
//! [`Transport`] trait abstracts how those channels are carried:
//!
//! * [`MpscTransport`] — the original in-process fabric: one thread
//!   per actor, `std::sync::mpsc` channels, a shared sender row.
//!   Default; zero behavior change.
//! * `SocketTransport` — every fabric byte crosses a length-prefixed
//!   Unix-domain or TCP socket, with a connect/accept handshake,
//!   worker heartbeats, per-peer reconnect under bounded exponential
//!   backoff, and wire-level fault injection. Workers are either
//!   threads (CI's wire path) or real OS processes (`raxpp-launch`).
//!
//! Whatever the carrier, replies always terminate in an in-process
//! `Receiver<Reply>` held by the driver: the socket transport's reader
//! pumps feed that channel and drop its sender on connection EOF, so a
//! dead peer surfaces through the exact `Disconnected` path the mpsc
//! transport uses. Bounded-time detection therefore needs no new
//! driver machinery — plus heartbeat suspicion for the one failure
//! mpsc cannot express: a peer that is silent but not yet closed
//! (one-way partition).

mod socket;
pub(crate) mod wire;

use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use raxpp_taskgraph::MpmdProgram;

use crate::actor::{actor_main, Command, Msg, Payload, Reply, DRIVER};
use crate::fault::Fault;
use crate::runtime::ActorLink;

pub use socket::{serve_worker, WorkerConfig};
pub(crate) use socket::{Endpoint, Scheme, SocketTransport};

/// Which carrier the actor fabric runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-process threads and `mpsc` channels (default).
    Mpsc,
    /// Unix-domain sockets under a per-fleet temp directory.
    UnixSocket,
    /// TCP over loopback (`127.0.0.1`), ports discovered via files.
    Tcp,
}

impl TransportKind {
    /// Reads `RAXPP_TRANSPORT`: unset, empty, `mpsc` or `thread` select
    /// the in-process transport, `socket`/`uds`/`unix` the Unix-socket
    /// transport, `tcp` the TCP transport.
    ///
    /// # Panics
    ///
    /// Panics on any other value, naming it and the accepted forms.
    pub fn from_env() -> TransportKind {
        crate::env::TRANSPORT.read()
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Mpsc => "mpsc",
            TransportKind::UnixSocket => "uds",
            TransportKind::Tcp => "tcp",
        })
    }
}

/// Cumulative wire counters for a runtime's transport. All zero on the
/// in-process transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Bytes written to sockets (frames + handshakes + heartbeats).
    pub bytes_tx: u64,
    /// Bytes read from sockets.
    pub bytes_rx: u64,
    /// Times a peer link was re-dialed after it was already connected
    /// once (write-failure re-dials and post-respawn re-dials).
    pub reconnects: u64,
    /// Times the driver declared an actor heartbeat-silent.
    pub heartbeat_misses: u64,
}

/// A fleet factory plus the driver-side operations that differ by
/// carrier. One instance lives in the runtime's `Inner` and spawns
/// every actor — both at construction and on respawn during recovery.
pub(crate) trait Transport: Send {
    /// Which carrier this is.
    fn kind(&self) -> TransportKind;

    /// Spawns (or respawns) actor `a` and returns its driver-side
    /// link. Respawn must fully retire any previous incarnation first.
    fn spawn_actor(&mut self, a: usize, program: &Arc<MpmdProgram>, origin: Instant) -> ActorLink;

    /// Best-effort abort broadcast to every actor's data inbox.
    fn broadcast_abort(&self, epoch: u64, reason: &str);

    /// True when the transport suspects `a` is silently dead (no
    /// heartbeat within the timeout). Always false for mpsc.
    fn heartbeat_suspect(&self, _a: usize) -> bool {
        false
    }

    /// Records one heartbeat-silence declaration in the stats.
    fn note_heartbeat_miss(&self) {}

    /// Clears driver-side wire suspicion after recovery (workers clear
    /// their own chaos on `Command::HealWire`).
    fn heal_wire(&self) {}

    /// True when actor `a`'s OS process has exited (process backend
    /// only; threads report through `JoinHandle::is_finished`).
    fn finished(&mut self, _a: usize) -> bool {
        false
    }

    /// Whether respawned actors come up with the *original* program
    /// and must replay the rebalance history (process backend: workers
    /// recompile from the spec; thread backends respawn with the
    /// driver's current `Arc<MpmdProgram>` directly).
    fn needs_program_replay(&self) -> bool {
        false
    }

    /// Delivers a real SIGKILL to actor `a`'s process. Returns false
    /// when the backend has no processes to kill.
    fn kill_process(&mut self, _a: usize) -> bool {
        false
    }

    /// Snapshot of the wire counters.
    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

// ---------------------------------------------------------------------
// Ports: the per-channel handles the driver and actors hold
// ---------------------------------------------------------------------

/// Driver-side command port for one actor.
pub(crate) enum CmdPort {
    /// Direct channel into the actor thread.
    Mpsc(Sender<Command>),
    /// Encode and send over the driver endpoint's link to `peer`.
    Wire { ep: Arc<Endpoint>, peer: usize },
}

impl CmdPort {
    /// Sends one command; `Err` means the actor is unreachable (dead
    /// or its link is down), matching `Sender::send` semantics.
    pub(crate) fn send(&self, c: Command) -> Result<(), ()> {
        match self {
            CmdPort::Mpsc(tx) => tx.send(c).map_err(|_| ()),
            CmdPort::Wire { ep, peer } => ep.send_command(*peer, &c),
        }
    }
}

impl fmt::Debug for CmdPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmdPort::Mpsc(_) => f.write_str("CmdPort::Mpsc"),
            CmdPort::Wire { peer, .. } => write!(f, "CmdPort::Wire({peer})"),
        }
    }
}

/// Actor-side reply port back to the driver.
pub(crate) enum ReplyPort {
    /// Direct channel into the driver's `ActorLink`.
    Mpsc(Sender<Reply>),
    /// Encode and send over the worker endpoint's driver link.
    Wire(Arc<Endpoint>),
}

impl ReplyPort {
    pub(crate) fn send(&self, r: Reply) -> Result<(), ()> {
        match self {
            ReplyPort::Mpsc(tx) => tx.send(r).map_err(|_| ()),
            ReplyPort::Wire(ep) => ep.send_reply(&r),
        }
    }
}

/// Actor-side handle on the data fabric: how an actor sends `Msg`s to
/// peers, and where wire faults land.
pub(crate) enum Fabric {
    /// Shared row of inbox senders (in-process).
    Mpsc { row: Arc<RwLock<Vec<Sender<Msg>>>> },
    /// This actor's socket endpoint.
    Wire { ep: Arc<Endpoint>, n: usize },
}

impl Fabric {
    /// Number of actors addressable on the fabric.
    pub(crate) fn n(&self) -> usize {
        match self {
            Fabric::Mpsc { row } => row.read().unwrap().len(),
            Fabric::Wire { n, .. } => *n,
        }
    }

    /// Sends one message to `to`. On the wire, a successful
    /// synchronous write completes the payload's send token (the bytes
    /// have left this actor's store); in process, the receiver
    /// completes it on `Recv` as before.
    pub(crate) fn send(&self, to: usize, msg: Msg) -> Result<(), ()> {
        match self {
            Fabric::Mpsc { row } => {
                let row = row.read().unwrap();
                match row.get(to) {
                    Some(tx) => tx.send(msg).map_err(|_| ()),
                    None => Err(()),
                }
            }
            Fabric::Wire { ep, .. } => {
                ep.send_msg(to, &msg)?;
                if let Payload::Data(_, _, token) = &msg.payload {
                    token.complete();
                }
                Ok(())
            }
        }
    }

    /// Applies a wire fault (drop/delay/partition). Documented no-op
    /// on the in-process fabric, so one seeded chaos schedule drives
    /// both transports.
    pub(crate) fn inject(&self, f: &Fault) {
        if let Fabric::Wire { ep, .. } = self {
            ep.inject(f);
        }
    }

    /// Clears wire chaos (`Command::HealWire`).
    pub(crate) fn heal(&self) {
        if let Fabric::Wire { ep, .. } = self {
            ep.heal();
        }
    }

    /// Tears the endpoint down without a goodbye (kill semantics, and
    /// the normal last act of a wire actor on any exit).
    pub(crate) fn sever(&self) {
        if let Fabric::Wire { ep, .. } = self {
            ep.sever();
        }
    }

    /// True on a socket fabric (drives the `wire` span kind).
    pub(crate) fn is_wire(&self) -> bool {
        matches!(self, Fabric::Wire { .. })
    }
}

// ---------------------------------------------------------------------
// In-process transport
// ---------------------------------------------------------------------

/// The original threads + `mpsc` fabric.
pub(crate) struct MpscTransport {
    /// Shared sender row; actors index it to reach peers, the driver
    /// uses it for abort broadcasts, and respawn swaps in fresh
    /// senders in place.
    row: Arc<RwLock<Vec<Sender<Msg>>>>,
    /// Inbox receivers for actors not yet spawned (all created
    /// upfront so early senders never race a later spawn).
    pending: Vec<Option<Receiver<Msg>>>,
}

impl MpscTransport {
    pub(crate) fn new(n: usize) -> MpscTransport {
        let mut row = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel::<Msg>();
            row.push(tx);
            pending.push(Some(rx));
        }
        MpscTransport {
            row: Arc::new(RwLock::new(row)),
            pending,
        }
    }
}

impl Transport for MpscTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Mpsc
    }

    fn spawn_actor(&mut self, a: usize, program: &Arc<MpmdProgram>, origin: Instant) -> ActorLink {
        // First spawn takes the pre-created inbox; respawn installs a
        // fresh channel in the shared row.
        let inbox_rx = match self.pending[a].take() {
            Some(rx) => rx,
            None => {
                let (tx, rx) = channel::<Msg>();
                self.row.write().unwrap()[a] = tx;
                rx
            }
        };
        let (cmd_tx, cmd_rx) = channel::<Command>();
        let (reply_tx, reply_rx) = channel::<Reply>();
        let fabric = Fabric::Mpsc {
            row: Arc::clone(&self.row),
        };
        let program = Arc::clone(program);
        let handle = std::thread::Builder::new()
            .name(format!("raxpp-actor-{a}"))
            .spawn(move || {
                let _ = actor_main(
                    a,
                    program,
                    cmd_rx,
                    ReplyPort::Mpsc(reply_tx),
                    fabric,
                    inbox_rx,
                    origin,
                );
            })
            .expect("spawn actor thread");
        ActorLink {
            cmd: CmdPort::Mpsc(cmd_tx),
            reply: reply_rx,
            handle: Some(handle),
            dead: false,
        }
    }

    fn broadcast_abort(&self, epoch: u64, reason: &str) {
        let row = self.row.read().unwrap();
        for tx in row.iter() {
            let _ = tx.send(Msg {
                from: DRIVER,
                epoch,
                payload: Payload::Abort(reason.to_string()),
            });
        }
    }
}

#[allow(unused)]
fn _assert_transport_object_safe(_t: &Mutex<Box<dyn Transport>>) {}
