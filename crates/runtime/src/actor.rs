//! The actor side of the runtime: the one envelope every participant
//! sends ([`Msg`]), the command/reply protocol an actor speaks with the
//! driver, the [`Mailbox`] over the actor's one inbox (per-peer FIFO
//! data, commands in arrival order), and the command loop itself (with
//! the death guard that poisons the fleet when an actor exits
//! abnormally).

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use raxpp_ir::Tensor;
use raxpp_taskgraph::{BufferId, MpmdProgram};

use crate::exec::{execute_stream, ActorProfile, StreamFailure};
use crate::fault::Fault;
use crate::store::{ObjectStore, SendToken};
use crate::trace::ActorTrace;
use crate::transport::Fabric;

/// A step sequence number: the `Execute` command's sequence number tags
/// every data message the step produces.
pub(crate) type Epoch = u64;

/// The driver's id on the fabric: the `from` of its commands and
/// aborts, the `to` of every reply.
pub(crate) const DRIVER: usize = usize::MAX;

/// The peer id naming the *driver* in wire faults — e.g.
/// `Fault::Partition { to: DRIVER_PEER }` injected on an actor discards
/// its outbound reply/heartbeat frames, so the driver detects the
/// silence via heartbeat timeout.
pub const DRIVER_PEER: usize = DRIVER;

pub(crate) enum Payload {
    /// A tensor for `buf` in step `epoch`, completing via the send token.
    Data(Epoch, BufferId, Tensor, SendToken),
    /// The sender abandoned `epoch`; the receiver must too.
    Abort(Epoch, String),
    /// Driver → actor.
    Command(Command),
    /// Actor → driver.
    Reply(Reply),
    /// The participant `from` left: posted by whoever saw it go, never
    /// sent by the leaver. Carries the incarnation that left, so a late
    /// goodbye never marks a replacement dead.
    Gone(u64),
}

/// The one envelope of the fabric: whatever travels between two
/// participants (the actors, and the driver as [`DRIVER`]) lands in the
/// receiver's one inbox as a `Msg`. Per-pair FIFO order is the
/// carrier's; the receiver demultiplexes by `from`.
pub(crate) struct Msg {
    pub(crate) from: usize,
    pub(crate) payload: Payload,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Command {
    Place {
        seq: u64,
        bufs: Vec<(BufferId, Tensor)>,
    },
    /// The step's one exchange (§4.4): the actor's data inputs ride in,
    /// its share of the program's fetches rides back in the reply.
    Execute {
        seq: u64,
        /// Record per-instruction spans into a ring buffer this step.
        traced: bool,
        /// This actor's data inputs for the step, inserted into its
        /// store before the stream runs.
        inputs: Vec<(BufferId, Tensor)>,
    },
    Fetch {
        seq: u64,
        bufs: Vec<BufferId>,
    },
    PeakBytes {
        seq: u64,
    },
    LiveBytes {
        seq: u64,
    },
    /// Run the program of the fleet's fold (after a rebalance):
    /// `assign[a]` is the actor now hosting launch-time actor `a`'s
    /// stages, cumulative since launch. The actor takes that program
    /// from its [`Refold`] and empties its store, which the driver
    /// refills. No reply.
    Reprogram {
        assign: Vec<usize>,
    },
    /// Arm a one-shot fault (wire faults apply immediately). No reply.
    InjectFault(Fault),
    /// Clear wire chaos (partitions, pending drops/delays) after
    /// recovery. No reply.
    HealWire,
    Shutdown,
}

/// Why an `Execute` failed on one actor, as reported on the wire.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ExecFailure {
    /// A genuine error on this actor (task error, protocol violation).
    Error(String),
    /// Cascade: peer `by` aborted the epoch and this actor abandoned it.
    Aborted { by: usize, reason: String },
}

/// What an actor reports back from one `Execute`: the result, plus the
/// recorded spans when the step was traced (also on the failure path —
/// partial traces of aborted steps are exactly what post-mortems need).
pub(crate) struct ExecOutcome {
    pub(crate) result: Result<ActorProfile, ExecFailure>,
    /// This actor's share of `program.fetches`, in program order; empty
    /// when the stream failed.
    pub(crate) fetched: Vec<Tensor>,
    pub(crate) trace: Option<ActorTrace>,
}

pub(crate) enum ReplyKind {
    Placed,
    Executed(Box<ExecOutcome>),
    Fetched(Result<Vec<Tensor>, String>),
    /// The answer to `PeakBytes` and `LiveBytes` alike.
    StoreBytes(usize),
}

pub(crate) struct Reply {
    pub(crate) seq: u64,
    pub(crate) kind: ReplyKind,
}

/// The demultiplexer over the actor's one inbox. Queues hold data that
/// arrived from other peers while a `Recv` waited on a specific one, and
/// commands that arrived while a stream ran; aborts are surfaced
/// immediately, stale epochs dropped.
pub(crate) struct Mailbox {
    rx: Receiver<Msg>,
    queues: Vec<VecDeque<(Epoch, BufferId, Tensor, SendToken)>>,
    /// Commands not yet served, in arrival order.
    commands: VecDeque<Command>,
    /// An abort observed for an epoch not yet abandoned.
    pending_abort: Option<(Epoch, usize, String)>,
}

impl Mailbox {
    fn new(n: usize, rx: Receiver<Msg>) -> Mailbox {
        Mailbox {
            rx,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            commands: VecDeque::new(),
            pending_abort: None,
        }
    }

    /// Drops everything belonging to epochs before `epoch` — called at
    /// the start of each Execute so an aborted step's leftovers can
    /// never be matched against this step's Recvs.
    fn purge_stale(&mut self, epoch: Epoch) {
        if matches!(self.pending_abort, Some((e, _, _)) if e < epoch) {
            self.pending_abort = None;
        }
        for q in &mut self.queues {
            q.retain(|(e, _, _, _)| *e >= epoch);
        }
        while let Ok(msg) = self.rx.try_recv() {
            self.intake(msg, epoch);
        }
    }

    /// Files one envelope. Data and aborts of epochs before `epoch` are
    /// stale (an aborted earlier step's) and dropped. Of two pending
    /// aborts the later epoch's wins: the earlier epoch is purged first,
    /// and its abort must not mask the next one's. The driver's
    /// departure queues as a `Shutdown`: the actor's service is over
    /// either way.
    fn intake(&mut self, msg: Msg, epoch: Epoch) {
        match msg.payload {
            Payload::Data(e, buf, t, token) if e >= epoch => {
                self.queues[msg.from].push_back((e, buf, t, token));
            }
            Payload::Abort(e, reason)
                if e >= epoch && self.pending_abort.as_ref().is_none_or(|(p, _, _)| e > *p) =>
            {
                self.pending_abort = Some((e, msg.from, reason));
            }
            Payload::Command(c) => self.commands.push_back(c),
            Payload::Gone(_) => self.commands.push_back(Command::Shutdown),
            _ => {} // stale, or a reply (never addressed to an actor)
        }
    }

    /// The next command in arrival order — first those that arrived
    /// while a stream ran. Data and aborts met while waiting are filed
    /// against `epoch`, the last stream's. A closed inbox reads as
    /// `Shutdown`.
    fn next_command(&mut self, epoch: Epoch) -> Command {
        loop {
            if let Some(c) = self.commands.pop_front() {
                return c;
            }
            match self.rx.recv() {
                Ok(msg) => self.intake(msg, epoch),
                Err(_) => return Command::Shutdown,
            }
        }
    }

    /// Receives the next current-epoch data message from `from`,
    /// stashing messages from other peers. Any abort for this epoch (or
    /// a later one — the shutdown poison uses `u64::MAX`) ends the wait.
    pub(crate) fn recv_from(
        &mut self,
        from: usize,
        epoch: Epoch,
    ) -> Result<(BufferId, Tensor, SendToken), StreamFailure> {
        loop {
            if let Some((e, by, reason)) = &self.pending_abort {
                if *e >= epoch {
                    return Err(StreamFailure::Aborted {
                        by: *by,
                        reason: reason.clone(),
                    });
                }
                self.pending_abort = None;
            }
            while let Some((e, buf, t, token)) = self.queues[from].pop_front() {
                if e >= epoch {
                    return Ok((buf, t, token));
                } // else stale: dropped
            }
            match self.rx.recv() {
                Ok(msg) => self.intake(msg, epoch),
                // Every peer and the driver dropped their senders: the
                // runtime is gone.
                Err(_) => {
                    return Err(StreamFailure::Aborted {
                        by: DRIVER,
                        reason: "inbox closed".to_string(),
                    })
                }
            }
        }
    }
}

/// Where an actor gets the program of a cumulative fold assignment
/// (`Command::Reprogram`): an in-process actor takes the one the driver
/// compiled, a worker process compiles it from its own spec — so a
/// program never crosses the wire.
pub(crate) type Refold = Arc<dyn Fn(&[usize]) -> Result<Arc<MpmdProgram>, String> + Send + Sync>;

pub(crate) struct ActorState {
    pub(crate) me: usize,
    pub(crate) program: Arc<MpmdProgram>,
    refold: Refold,
    pub(crate) store: ObjectStore,
    pub(crate) mailbox: Mailbox,
    /// This actor's handle on the data fabric: the shared sender row
    /// in process, or the actor's socket endpoint on the wire.
    pub(crate) fabric: Fabric,
    /// Epoch of the stream currently (or last) executed.
    pub(crate) epoch: Epoch,
    /// Armed one-shot faults, consumed front-to-back as they trigger.
    pub(crate) faults: VecDeque<Fault>,
    /// The runtime-wide zero point for span timestamps.
    pub(crate) origin: Instant,
}

impl ActorState {
    /// An O(1) handle on resident buffer `buf`, for the instruction
    /// named `what`; a missing buffer is a programming error reported
    /// as this actor's own failure.
    pub(crate) fn load(&self, buf: BufferId, what: &str) -> Result<Tensor, StreamFailure> {
        let t = self.store.get(buf).cloned();
        t.ok_or_else(|| StreamFailure::Error(format!("{what} of missing buffer {buf}")))
    }

    /// Inserts buffers arriving with a command (`Place`'s payload, the
    /// data inputs riding `Execute`), after the command-boundary
    /// reclaim: every legitimately outstanding send of previous steps
    /// has been consumed (the driver collects all replies before the
    /// next command), so any incomplete token belongs to an aborted
    /// epoch whose receiver will never complete it — also on an actor
    /// whose stream tail had no Recvs and which therefore survived a
    /// peer's abort without observing it. Reclaiming first matters
    /// because the buffer ids inserted here (and by the stream that
    /// follows) may still sit parked in the deferred-deletion list;
    /// their bytes would otherwise be double-counted in live/peak
    /// accounting.
    fn install(&mut self, bufs: Vec<(BufferId, Tensor)>) {
        self.store.abandon_outstanding_sends();
        for (b, t) in bufs {
            self.store.insert(b, t);
        }
    }

    /// This actor's share of the program's fetches, in program order —
    /// what rides back in the `Executed` reply.
    fn fetch_outputs(&self) -> Result<Vec<Tensor>, StreamFailure> {
        let mine = self.program.fetches.iter().filter(|f| f.actor == self.me);
        mine.map(|f| self.load(f.buf, "fetch")).collect()
    }

    /// Sends one data message for the current epoch to `to`. A closed
    /// peer inbox means that actor is dead: this is a cascade of the
    /// peer's failure, not a genuine error on this actor.
    pub(crate) fn send_data(
        &self,
        to: usize,
        buf: BufferId,
        t: Tensor,
        token: SendToken,
    ) -> Result<(), StreamFailure> {
        let msg = Msg {
            from: self.me,
            payload: Payload::Data(self.epoch, buf, t, token),
        };
        self.fabric
            .send(to, msg)
            .map_err(|_| StreamFailure::Aborted {
                by: to,
                reason: format!("actor {to} hung up"),
            })
    }
}

pub(crate) enum Exit {
    /// Orderly shutdown: no poison needed.
    Clean,
    /// The actor "crashed" (injected death): poison the fleet on the way
    /// out.
    Died,
    /// kill -9: the actor vanishes with *no* poison and no goodbye —
    /// peers and the driver must discover the death through closed
    /// connections (or heartbeat silence) alone. On the process
    /// backend the worker process aborts.
    Killed,
}

pub(crate) fn actor_main(
    me: usize,
    program: Arc<MpmdProgram>,
    refold: Refold,
    fabric: Fabric,
    inbox: Receiver<Msg>,
    origin: Instant,
) -> Exit {
    let n = fabric.n();
    let mut st = ActorState {
        me,
        program,
        refold,
        store: ObjectStore::new(),
        mailbox: Mailbox::new(n, inbox),
        fabric,
        epoch: 0,
        faults: VecDeque::new(),
        origin,
    };
    // The death guard: any exit that is not an orderly shutdown — an
    // injected death or a panic in actor code — broadcasts an abort for
    // the epoch in flight, so no peer blocks forever on this actor. This
    // is the thread-scale stand-in for Ray's actor-death notifications.
    // A *kill* deliberately skips the guard: SIGKILL leaves no time for
    // goodbyes, and the bounded-time claim must hold without them.
    let exit = std::panic::catch_unwind(AssertUnwindSafe(|| actor_loop(&mut st)));
    let exit = match exit {
        Ok(Exit::Clean) => Exit::Clean,
        Ok(Exit::Killed) => Exit::Killed,
        Ok(Exit::Died) => {
            st.fabric
                .broadcast_abort(me, st.epoch, &format!("actor {me} died"));
            Exit::Died
        }
        Err(_) => {
            st.fabric
                .broadcast_abort(me, st.epoch, &format!("actor {me} panicked"));
            Exit::Died
        }
    };
    // On a socket fabric, tear the endpoint down on *every* exit: this
    // closes the link to the driver (whose reader posts `Gone`) and
    // errors peers' cached data links. No-op in process, where the
    // thread's own guard posts `Gone`. Must come after the death
    // broadcast above so the poison gets out first.
    st.fabric.sever();
    exit
}

fn actor_loop(st: &mut ActorState) -> Exit {
    loop {
        // Commands that answer produce `(seq, kind)`; the rest `continue`.
        let (seq, kind) = match st.mailbox.next_command(st.epoch) {
            Command::Place { seq, bufs } => {
                st.install(bufs);
                (seq, ReplyKind::Placed)
            }
            Command::Execute {
                seq,
                traced,
                inputs,
            } => {
                st.install(inputs);
                st.epoch = seq;
                st.mailbox.purge_stale(seq);
                let mut fetched = Vec::new();
                let (ran, trace) = execute_stream(st, traced);
                let ran = ran.and_then(|profile| Ok((profile, st.fetch_outputs()?)));
                let result = match ran {
                    Ok((profile, outputs)) => {
                        fetched = outputs;
                        Ok(profile)
                    }
                    Err(StreamFailure::Die) => return Exit::Died,
                    Err(StreamFailure::Killed) => return Exit::Killed,
                    Err(StreamFailure::Error(message)) => {
                        st.fabric.broadcast_abort(st.me, seq, &message);
                        st.store.abandon_outstanding_sends();
                        Err(ExecFailure::Error(message))
                    }
                    Err(StreamFailure::Aborted { by, reason }) => {
                        st.store.abandon_outstanding_sends();
                        Err(ExecFailure::Aborted { by, reason })
                    }
                };
                let outcome = ExecOutcome {
                    result,
                    fetched,
                    trace,
                };
                (seq, ReplyKind::Executed(Box::new(outcome)))
            }
            Command::Fetch { seq, bufs } => {
                let fetch = |b: &BufferId| {
                    let t = st.store.get(*b).cloned();
                    t.ok_or_else(|| format!("missing buffer {b}"))
                };
                (seq, ReplyKind::Fetched(bufs.iter().map(fetch).collect()))
            }
            Command::PeakBytes { seq } => (seq, ReplyKind::StoreBytes(st.store.peak_bytes())),
            Command::LiveBytes { seq } => {
                // A deletion point (§4.3): reclaim parked deletions whose
                // sends have since completed, so the answer reflects what
                // is genuinely resident rather than reclaim lag.
                st.store.drain_pending();
                (seq, ReplyKind::StoreBytes(st.store.live_bytes()))
            }
            Command::Reprogram { assign } => {
                // The old program's buffers mean nothing to the new one:
                // the driver re-places the state after a rebalance. A
                // refold that fails is a protocol bug; the panic trips
                // the death guard and recovery takes over.
                st.program =
                    (st.refold)(&assign).expect("Reprogram must yield the fleet's program");
                st.store.clear();
                continue;
            }
            Command::HealWire => {
                st.fabric.heal();
                continue;
            }
            Command::InjectFault(Fault::DieNow) => return Exit::Died,
            Command::InjectFault(Fault::KillNow) => return Exit::Killed,
            Command::InjectFault(
                f @ (Fault::DropLink { .. } | Fault::DelayLink { .. } | Fault::Partition { .. }),
            ) => {
                st.fabric.inject(&f);
                continue;
            }
            Command::InjectFault(f) => {
                st.faults.push_back(f);
                continue;
            }
            Command::Shutdown => return Exit::Clean,
        };
        // A driver that cannot be reached is gone.
        let reply = Msg {
            from: st.me,
            payload: Payload::Reply(Reply { seq, kind }),
        };
        if st.fabric.send(DRIVER, reply).is_err() {
            return Exit::Clean;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::channel;

    use super::*;

    /// Commands share the actor's one inbox with the data: one that
    /// arrives while a stream is receiving is queued, not lost or
    /// reordered, and is served after the stream in arrival order. The
    /// driver's departure reads as a `Shutdown` behind them.
    #[test]
    fn a_command_arriving_mid_stream_is_served_after_it_in_arrival_order() {
        let (tx, rx) = channel();
        let mut mailbox = Mailbox::new(2, rx);
        let command = |seq| Msg {
            from: DRIVER,
            payload: Payload::Command(Command::PeakBytes { seq }),
        };
        let data = Payload::Data(5, BufferId(3), Tensor::scalar(1.0), SendToken::new());
        tx.send(command(1)).unwrap();
        tx.send(Msg {
            from: 1,
            payload: data,
        })
        .unwrap();
        tx.send(command(2)).unwrap();
        // The stream's `Recv` reaches past the first command to the data.
        let Ok((buf, _, _)) = mailbox.recv_from(1, 5) else {
            panic!("the data is received");
        };
        assert_eq!(buf, BufferId(3));
        tx.send(command(3)).unwrap();
        tx.send(Msg {
            from: DRIVER,
            payload: Payload::Gone(0),
        })
        .unwrap();
        for seq in 1..=3 {
            assert_eq!(mailbox.next_command(5), Command::PeakBytes { seq });
        }
        assert_eq!(mailbox.next_command(5), Command::Shutdown);
    }
}
