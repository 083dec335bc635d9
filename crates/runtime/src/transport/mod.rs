//! Pluggable actor-fabric transports.
//!
//! The single-controller runtime and its actors are peers on one
//! fabric. Every participant — each actor, and the driver as
//! [`DRIVER`] — owns exactly one inbox, and every send is
//! [`Fabric::send`] of one envelope (`Msg`): commands go driver →
//! actor, data and aborts actor → actor or driver → actor, replies
//! actor → driver. A participant that leaves is announced by a `Gone`
//! posted to the inbox of the side that cares, by whoever saw it go.
//! The [`Transport`] trait abstracts how the fabric is carried:
//!
//! * [`MpscTransport`] — the original in-process fabric: one thread
//!   per actor, `std::sync::mpsc` channels, a shared sender row. An
//!   actor thread posts `Gone` to the driver from a guard dropped when
//!   the thread ends. Default.
//! * `SocketTransport` — every fabric byte crosses a length-prefixed
//!   Unix-domain or TCP socket, with a connect/accept handshake,
//!   worker heartbeats, per-peer reconnect under bounded exponential
//!   backoff, and wire-level fault injection. The reader of a control
//!   link posts `Gone` when the link ends. Workers are either threads
//!   (CI's wire path) or real OS processes (`raxpp-launch`).
//!
//! Whatever the carrier, the driver reads one in-process
//! `Receiver<Msg>`. Heartbeat suspicion covers the one failure mpsc
//! cannot express: a peer that is silent but not yet closed (one-way
//! partition).

mod socket;
pub(crate) mod wire;

use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use raxpp_taskgraph::MpmdProgram;

use crate::actor::{actor_main, Epoch, Msg, Payload, Refold, DRIVER};
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
        crate::env::transport()
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

    /// The driver's handle on the fabric.
    fn fabric(&self) -> Fabric;

    /// Spawns (or respawns) incarnation `incarnation` of actor `a`,
    /// running `program` and taking the program of each later fold
    /// from `refold`, and returns its driver-side link; the `Gone` that
    /// announces its end carries `incarnation`. Respawn must fully
    /// retire any previous incarnation first. A worker process ignores
    /// both: it compiles its programs from its own spec.
    fn spawn_actor(
        &mut self,
        a: usize,
        incarnation: u64,
        program: &Arc<MpmdProgram>,
        refold: &Refold,
        origin: Instant,
    ) -> ActorLink;

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

/// A participant's handle on the fabric: how it sends envelopes to
/// the others, and where wire faults land.
pub(crate) enum Fabric {
    /// Shared row of actor inbox senders plus the driver's (in-process).
    Mpsc {
        row: Arc<RwLock<Vec<Sender<Msg>>>>,
        driver: Sender<Msg>,
    },
    /// This participant's socket endpoint.
    Wire { ep: Arc<Endpoint>, n: usize },
}

impl Fabric {
    /// Number of actors addressable on the fabric.
    pub(crate) fn n(&self) -> usize {
        match self {
            Fabric::Mpsc { row, .. } => row.read().unwrap().len(),
            Fabric::Wire { n, .. } => *n,
        }
    }

    /// Sends one envelope to `to` (an actor, or [`DRIVER`]); `Err`
    /// means `to` is unreachable. On the wire, a successful
    /// synchronous write completes a data payload's send token (the
    /// bytes have left this actor's store); in process, the receiver
    /// completes it on `Recv`.
    pub(crate) fn send(&self, to: usize, msg: Msg) -> Result<(), ()> {
        match self {
            Fabric::Mpsc { row, driver } => {
                let sent = match to {
                    DRIVER => driver.send(msg),
                    _ => row.read().unwrap().get(to).ok_or(())?.send(msg),
                };
                sent.map_err(|_| ())
            }
            Fabric::Wire { ep, .. } => {
                ep.send(to, &msg)?;
                if let Payload::Data(_, _, _, token) = &msg.payload {
                    token.complete();
                }
                Ok(())
            }
        }
    }

    /// Poisons every actor's inbox but `from`'s own for `epoch`
    /// (§4.1-style abort broadcast), best effort — the one broadcaster
    /// of actors and driver alike. Safe to call more than once;
    /// receivers drop duplicates as stale after the epoch advances.
    pub(crate) fn broadcast_abort(&self, from: usize, epoch: Epoch, reason: &str) {
        for to in (0..self.n()).filter(|&to| to != from) {
            let payload = Payload::Abort(epoch, reason.to_string());
            let _ = self.send(to, Msg { from, payload });
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
    /// Shared sender row; actors and the driver index it to reach an
    /// actor, and respawn swaps in fresh senders in place.
    row: Arc<RwLock<Vec<Sender<Msg>>>>,
    /// The driver's inbox.
    driver: Sender<Msg>,
    /// Inbox receivers for actors not yet spawned (all created
    /// upfront so early senders never race a later spawn).
    pending: Vec<Option<Receiver<Msg>>>,
}

impl MpscTransport {
    pub(crate) fn new(n: usize, driver: Sender<Msg>) -> MpscTransport {
        let (row, pending) = (0..n)
            .map(|_| {
                let (tx, rx) = channel::<Msg>();
                (tx, Some(rx))
            })
            .unzip();
        MpscTransport {
            row: Arc::new(RwLock::new(row)),
            driver,
            pending,
        }
    }
}

/// Posts `Gone` for one incarnation of an actor to the driver when
/// dropped — at the very end of the actor's thread, however it ends.
struct Departure {
    driver: Sender<Msg>,
    from: usize,
    incarnation: u64,
}

impl Drop for Departure {
    fn drop(&mut self) {
        let payload = Payload::Gone(self.incarnation);
        let _ = self.driver.send(Msg {
            from: self.from,
            payload,
        });
    }
}

impl Transport for MpscTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Mpsc
    }

    fn fabric(&self) -> Fabric {
        Fabric::Mpsc {
            row: Arc::clone(&self.row),
            driver: self.driver.clone(),
        }
    }

    fn spawn_actor(
        &mut self,
        a: usize,
        incarnation: u64,
        program: &Arc<MpmdProgram>,
        refold: &Refold,
        origin: Instant,
    ) -> ActorLink {
        // First spawn takes the pre-created inbox; respawn installs a
        // fresh channel in the shared row.
        let inbox = match self.pending[a].take() {
            Some(rx) => rx,
            None => {
                let (tx, rx) = channel::<Msg>();
                self.row.write().unwrap()[a] = tx;
                rx
            }
        };
        let fabric = self.fabric();
        let departure = Departure {
            driver: self.driver.clone(),
            from: a,
            incarnation,
        };
        let (program, refold) = (Arc::clone(program), Arc::clone(refold));
        let handle = std::thread::Builder::new()
            .name(format!("raxpp-actor-{a}"))
            .spawn(move || {
                let _departure = departure;
                actor_main(a, program, refold, fabric, inbox, origin);
            })
            .expect("spawn actor thread");
        ActorLink {
            handle: Some(handle),
            dead: false,
        }
    }
}
