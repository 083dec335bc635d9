//! The single-controller MPMD runtime (paper §4.1) with fail-fast
//! failure semantics.
//!
//! A [`Runtime`] spawns one OS thread per actor (standing in for the
//! paper's Ray workers, each managing an SPMD device group). The driver
//! dispatches each actor's *entire fused instruction stream* in a single
//! message per step (§4.4) — the step's data inputs ride that message
//! and its fetched outputs ride the reply, so a step is one exchange per
//! actor. The driver is one more participant on the actors' fabric: it
//! and every actor own one inbox each, and commands, replies, data and
//! aborts all travel as one envelope over per-pair FIFO streams
//! (standing in for NCCL P2P, whose matching-order requirement the
//! compiler's §4.2 pass guarantees).
//!
//! # Failure protocol
//!
//! Failure is a first-class, bounded-time outcome, mirroring what the
//! paper inherits from Ray actor supervision plus NCCL communicator
//! aborts:
//!
//! * **Step epochs.** Every driver command carries a sequence number
//!   that its reply echoes, and every data message carries the epoch
//!   (the `Execute` sequence number) it belongs to. Stale messages from
//!   an aborted step are drained instead of being matched against the
//!   next step's expectations, so one failed step can never desynchronize
//!   the driver's exchanges or the data streams.
//! * **Abort broadcast.** When an instruction errors on an actor, the
//!   actor broadcasts a poison `Abort` message to *every* peer inbox
//!   before replying, so peers blocked in `Recv` wake and abandon the
//!   epoch instead of hanging. A dying actor thread (injected death or
//!   panic) broadcasts the same poison on its way out, and the driver
//!   broadcasts on the actors' behalf when it detects a death itself —
//!   the thread-scale analogue of Ray's death notifications.
//! * **Complete reply collection.** The driver collects one reply per
//!   dispatched actor per command — also on the error path — so its
//!   inbox holds nothing but stale replies after a failed step and the
//!   same `Runtime` can run the next step.
//! * **One death signal.** The driver learns of a death from exactly
//!   three sources: a `Gone` envelope in its inbox (posted by an mpsc
//!   actor thread's exit guard, or by the socket reader of a control
//!   link at EOF), a command it cannot send, and silence — heartbeat
//!   suspicion or the step deadline. A `Gone` names the incarnation
//!   that left, so a late goodbye never marks a replacement dead.
//! * **Recovery.** [`Runtime::recover`] respawns dead actor threads and
//!   rewires the surviving actors' fabric to the replacements. The
//!   replacements come back with empty stores: the runtime keeps no
//!   copy of any buffer, so the caller re-places state (`raxpp-core`'s
//!   fleet handle restores its post-step restore point fleet-wide for
//!   bitwise-identical retries).
//!
//! Tensors are `Arc`-backed handles, so placing a buffer, sending it to
//! a peer actor, and fetching it back to the driver are all O(1) moves
//! of a reference. Each `Run` instruction executes through the liveness
//! interpreter and its allocator counters are accumulated into the
//! actor's [`ActorProfile`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use raxpp_ir::Tensor;
use raxpp_sched::{DpMap, TpMap};
use raxpp_taskgraph::{replace_program, BufferId, Fetch, InputSource, MpmdProgram};

use crate::actor::{Command, ExecFailure, Msg, Payload, Reply, ReplyKind, DRIVER};
use crate::env;
use crate::error::RuntimeError;
use crate::exec::StepStats;
use crate::fault::Fault;
use crate::fold::plan_fold;
use crate::trace::{ActorTrace, StepEvent, StepTrace};
use crate::transport::{
    Fabric, MpscTransport, Scheme, SocketTransport, Transport, TransportKind, TransportStats,
};

/// How long the driver blocks on its inbox between heartbeat checks
/// while waiting on an exchange — bounds the latency of detecting a
/// silent actor.
const REPLY_POLL: Duration = Duration::from_millis(20);

/// The driver's handle on one actor, whatever the transport.
pub(crate) struct ActorLink {
    /// The actor thread, when the transport runs actors in this
    /// process (`None` on the process backend).
    pub(crate) handle: Option<JoinHandle<()>>,
    pub(crate) dead: bool,
}

/// The outputs of one step: every fetched buffer with its [`Fetch`]
/// descriptor (gradients, per-microbatch losses/metrics). A traced
/// step's trace is not here: it is parked in the runtime until
/// [`Runtime::take_step_trace`] moves it out.
#[derive(Debug, Clone)]
pub struct StepOutputs {
    /// Fetched buffers in program fetch order.
    pub fetched: Vec<(Fetch, Tensor)>,
    /// Step statistics.
    pub stats: StepStats,
}

/// What [`Runtime::recover`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Actors whose threads were respawned (with empty stores).
    pub respawned: Vec<usize>,
}

/// What [`Runtime::rebalance`] did: which actors were permanently
/// retired and where every old actor's work now lives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Actors permanently retired by this call, ascending.
    pub retired: Vec<usize>,
    /// `assign[a]` is the actor now hosting old actor `a`'s stages
    /// (survivors map to themselves).
    pub assign: Vec<usize>,
}

struct Inner {
    /// The program currently executed; swapped atomically (under this
    /// lock, plus a `Reprogram` broadcast) by [`Runtime::rebalance`].
    program: Arc<MpmdProgram>,
    actors: Vec<ActorLink>,
    /// Each actor's current incarnation (bumped per respawn): a `Gone`
    /// naming an earlier one is a late goodbye and is dropped.
    incarnation: Vec<u64>,
    /// The driver's handle on the fabric: commands and aborts go out
    /// through it.
    fabric: Fabric,
    /// The driver's one inbox: every actor's replies and departures.
    inbox: Receiver<Msg>,
    /// The fleet factory and carrier-specific driver operations.
    transport: Box<dyn Transport>,
    /// Monotone command sequence counter; the `Execute` seq is the step
    /// epoch.
    seq: u64,
    /// Trace of the most recent step if it was traced (success or
    /// failure) — its one home until [`Runtime::take_step_trace`] moves
    /// it out.
    last_trace: Option<StepTrace>,
    /// Actors permanently removed by [`Runtime::rebalance`]: never
    /// dispatched to, never respawned by [`Runtime::recover`].
    retired: Vec<bool>,
    /// Every rebalance assignment applied so far, in order. Process
    /// workers respawn with the *original* program (recompiled from
    /// the spec), so [`Runtime::recover`] replays this history onto
    /// them via `Reprogram` to reconstruct the driver's current
    /// program deterministically.
    assign_history: Vec<Vec<usize>>,
}

impl Inner {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Sends one command to actor `a`. An actor already known dead is
    /// not dialed again; an unreachable one is marked dead.
    fn post(&mut self, a: usize, cmd: Command) -> Result<(), RuntimeError> {
        let link = &mut self.actors[a];
        let msg = Msg {
            from: DRIVER,
            payload: Payload::Command(cmd),
        };
        if link.dead || self.fabric.send(a, msg).is_err() {
            link.dead = true;
            return Err(RuntimeError::ActorDied { actor: a });
        }
        Ok(())
    }

    /// Files one envelope from the driver's inbox: a departure of an
    /// actor's current incarnation marks it dead, and a reply is handed
    /// back with its sender. Anything else is dropped.
    fn receive(&mut self, msg: Msg) -> Option<(usize, Reply)> {
        match msg.payload {
            Payload::Reply(r) => Some((msg.from, r)),
            Payload::Gone(incarnation) if self.incarnation.get(msg.from) == Some(&incarnation) => {
                self.actors[msg.from].dead = true;
                None
            }
            _ => None,
        }
    }

    /// The driver's one reply collector: returns once no slot is
    /// `Waiting` on its reply to `seq`. Replies to other sequence
    /// numbers are stale (an aborted earlier command's) and dropped; a
    /// dead actor's slot fails with `ActorDied`; an actor silent past
    /// the heartbeat threshold (socket transports only — e.g. a one-way
    /// partition toward the driver) is declared timed out long before
    /// `timeout`, the last-resort bound. As soon as any slot has
    /// failed, `abort` (the step's epoch) is broadcast once.
    fn collect(&mut self, slots: &mut [Slot], seq: u64, timeout: Duration, abort: Option<u64>) {
        let mut notified = false;
        let mut notify_once = |fabric: &Fabric, slots: &[Slot], reason: &str| {
            if !notified && slots.iter().any(Slot::failed) {
                if let Some(epoch) = abort {
                    fabric.broadcast_abort(DRIVER, epoch, reason);
                }
                notified = true;
            }
        };
        notify_once(&self.fabric, slots, "actor died before dispatch");
        let deadline = Instant::now() + timeout;
        let mut next = None;
        loop {
            // File what was delivered (blocking briefly below when
            // nothing was), then judge who is still waiting.
            while let Some(msg) = next.take().or_else(|| self.inbox.try_recv().ok()) {
                if let Some((a, r)) = self.receive(msg) {
                    if let Some(slot) = slots.get_mut(a) {
                        slot.file(r, seq);
                    }
                }
            }
            for (a, slot) in slots.iter_mut().enumerate() {
                if !matches!(slot, Slot::Waiting) {
                    continue;
                }
                if self.actors[a].dead {
                    *slot = Slot::Fatal(RuntimeError::ActorDied { actor: a });
                } else if self.transport.heartbeat_suspect(a) {
                    *slot = Slot::Fatal(RuntimeError::Timeout { actor: a });
                    self.transport.note_heartbeat_miss();
                }
            }
            notify_once(&self.fabric, slots, "step aborted by driver");
            if !slots.iter().any(|s| matches!(s, Slot::Waiting)) {
                break;
            }
            if Instant::now() >= deadline {
                for (a, slot) in slots.iter_mut().enumerate() {
                    if matches!(slot, Slot::Waiting) {
                        *slot = Slot::Fatal(RuntimeError::Timeout { actor: a });
                    }
                }
                notify_once(&self.fabric, slots, "step timeout");
                break;
            }
            next = self.inbox.recv_timeout(REPLY_POLL).ok();
        }
    }
}

/// A single-controller MPMD runtime executing a compiled
/// [`MpmdProgram`] on actor threads.
///
/// # Examples
///
/// See `raxpp-core`'s `distributed` API, which compiles traced training
/// steps into programs and drives this runtime.
pub struct Runtime {
    inner: Mutex<Inner>,
    /// Step timeout in milliseconds (atomic so tests can tighten it on
    /// a shared runtime without exclusive access).
    step_timeout: AtomicU64,
    /// Whether [`Runtime::step`] records per-instruction span traces.
    tracing: AtomicBool,
    /// The shared zero point of every span timestamp: all actors (and
    /// respawned replacements) measure against this instant, so spans
    /// from different threads align on one timeline.
    origin: Instant,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.lock().map(|i| i.actors.len()).unwrap_or(0);
        write!(f, "Runtime {{ n_actors: {n} }}")
    }
}

/// Buffers to place, grouped by destination actor.
type PerActor = Vec<Vec<(BufferId, Tensor)>>;

/// Resolves the program's input placements through `pick` (which maps
/// an [`InputSource`] to the caller's tensor, `Some(None)` when the
/// caller did not supply it, or `None` to skip the placement),
/// validating every shape.
fn gather_placements<'a>(
    program: &MpmdProgram,
    pick: impl Fn(InputSource) -> Option<Option<&'a Tensor>>,
) -> Result<PerActor, RuntimeError> {
    let mut per_actor: PerActor = vec![Vec::new(); program.n_actors()];
    for p in &program.placements {
        let Some(t) = pick(p.source) else {
            continue;
        };
        let what = || match p.source {
            InputSource::Param(i) => format!("parameter {i}"),
            InputSource::Data { input, mubatch } => {
                format!("data input {input} microbatch {mubatch}")
            }
            InputSource::State { param, slot } => format!("state {slot} of parameter {param}"),
        };
        let t = t.ok_or_else(|| RuntimeError::BadInput(format!("missing {}", what())))?;
        if t.shape() != &p.shape {
            return Err(RuntimeError::BadInput(format!(
                "{} has shape {} but program expects {}",
                what(),
                t.shape(),
                p.shape
            )));
        }
        per_actor[p.actor].push((p.buf, t.clone()));
    }
    Ok(per_actor)
}

impl Runtime {
    /// Spawns the actor fleet on the transport selected by
    /// `RAXPP_TRANSPORT` (in-process mpsc by default; see
    /// [`TransportKind::from_env`]).
    pub fn new(program: MpmdProgram) -> Runtime {
        Runtime::with_transport(program, TransportKind::from_env())
    }

    /// Spawns the actor fleet on an explicit transport: in-process
    /// mpsc, or thread-backed workers whose every fabric byte crosses
    /// a Unix-domain/TCP socket. Execution is bitwise-identical across
    /// transports: point-to-point traffic and collectives alike are
    /// ordinary messages on whichever fabric is chosen.
    pub fn with_transport(program: MpmdProgram, kind: TransportKind) -> Runtime {
        let n = program.n_actors();
        let (tx, inbox) = channel();
        let transport: Box<dyn Transport> = match kind {
            TransportKind::Mpsc => Box::new(MpscTransport::new(n, tx)),
            TransportKind::UnixSocket => Box::new(SocketTransport::threads(n, Scheme::Uds, tx)),
            TransportKind::Tcp => Box::new(SocketTransport::threads(n, Scheme::Tcp, tx)),
        };
        Runtime::build(program, transport, inbox)
    }

    /// Spawns the actor fleet as separate OS processes over sockets in
    /// `dir`: `spawn(a)` must launch a worker process that calls
    /// [`crate::serve_worker`] for actor `a` against the same
    /// directory (see the `raxpp-launch` binary). A worker SIGKILLed
    /// mid-step ([`Runtime::kill_worker`]) surfaces as
    /// [`RuntimeError::ActorDied`] in bounded time and is respawned by
    /// [`Runtime::recover`].
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the fleet directory or
    /// binding the driver's socket.
    pub fn with_process_fleet(
        program: MpmdProgram,
        dir: &std::path::Path,
        tcp: bool,
        spawn: Box<dyn FnMut(usize) -> std::io::Result<std::process::Child> + Send>,
    ) -> std::io::Result<Runtime> {
        let n = program.n_actors();
        let scheme = if tcp { Scheme::Tcp } else { Scheme::Uds };
        let (tx, inbox) = channel();
        let transport = Box::new(SocketTransport::processes(n, dir, scheme, spawn, tx)?);
        Ok(Runtime::build(program, transport, inbox))
    }

    fn build(
        program: MpmdProgram,
        mut transport: Box<dyn Transport>,
        inbox: Receiver<Msg>,
    ) -> Runtime {
        let n = program.n_actors();
        let program = Arc::new(program);
        let origin = Instant::now();
        let actors = (0..n)
            .map(|a| transport.spawn_actor(a, 0, &program, origin))
            .collect();
        Runtime {
            inner: Mutex::new(Inner {
                program,
                actors,
                incarnation: vec![0; n],
                fabric: transport.fabric(),
                inbox,
                transport,
                seq: 0,
                last_trace: None,
                retired: vec![false; n],
                assign_history: Vec::new(),
            }),
            step_timeout: AtomicU64::new(env::STEP_TIMEOUT.read().as_millis() as u64),
            tracing: AtomicBool::new(env::TRACE.read()),
            origin,
        }
    }

    /// Which transport the fleet runs on.
    pub fn transport_kind(&self) -> TransportKind {
        self.inner.lock().unwrap().transport.kind()
    }

    /// Cumulative wire counters (bytes, reconnects, heartbeat misses).
    /// All zero on the in-process transport.
    pub fn transport_stats(&self) -> TransportStats {
        self.inner.lock().unwrap().transport.stats()
    }

    /// Delivers a real SIGKILL to actor `a`'s worker process (process
    /// fleets only; returns `false` on thread-backed transports). The
    /// link is marked dead so the next step fails fast with
    /// [`RuntimeError::ActorDied`]; [`Runtime::recover`] respawns the
    /// worker.
    pub fn kill_worker(&self, a: usize) -> bool {
        let mut inner = self.inner.lock().unwrap();
        if a >= inner.actors.len() {
            return false;
        }
        let killed = inner.transport.kill_process(a);
        if killed {
            inner.actors[a].dead = true;
        }
        killed
    }

    fn timeout(&self) -> Duration {
        Duration::from_millis(self.step_timeout.load(Ordering::Relaxed))
    }

    /// Enables or disables per-instruction step tracing (initially set
    /// from `RAXPP_TRACE`). Takes effect on the next [`Runtime::step`].
    ///
    /// Tracing only records timestamps and byte counts — it cannot
    /// change what any kernel computes, so traced execution stays
    /// bitwise identical to untraced execution.
    pub fn set_tracing(&self, enabled: bool) {
        self.tracing.store(enabled, Ordering::Relaxed);
    }

    /// Whether the next step will be traced.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// Takes the trace of the most recent step, successful or failed,
    /// if it was traced (`RAXPP_TRACE=1` or [`Runtime::set_tracing`]) —
    /// the only way a trace leaves the runtime, and one-shot. Failed
    /// steps leave their (partial) trace here even though
    /// [`Runtime::step`] returns an error — the abort events and the
    /// spans executed before the failure are the post-mortem record.
    pub fn take_step_trace(&self) -> Option<StepTrace> {
        self.inner.lock().unwrap().last_trace.take()
    }

    /// Reads the parked trace [`Runtime::take_step_trace`] would take,
    /// leaving it in place.
    pub fn with_step_trace<T>(&self, read: impl FnOnce(Option<&StepTrace>) -> T) -> T {
        read(self.inner.lock().unwrap().last_trace.as_ref())
    }

    /// Nanoseconds elapsed since the runtime's launch — the zero point
    /// of every span and event timestamp, so callers (e.g. the trainer's
    /// retry loop) can stamp their own [`StepEvent`]s on the same
    /// timeline.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The program currently being executed. [`Runtime::rebalance`]
    /// swaps it, so callers get a snapshot handle rather than a
    /// reference.
    pub fn program(&self) -> Arc<MpmdProgram> {
        Arc::clone(&self.inner.lock().unwrap().program)
    }

    /// Number of actors still in service (neither retired by
    /// [`Runtime::rebalance`] — dead-but-recoverable actors count as
    /// alive, since [`Runtime::recover`] will respawn them).
    pub fn alive_actors(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.retired.iter().filter(|&&r| !r).count()
    }

    /// Actors permanently retired by [`Runtime::rebalance`], ascending.
    pub fn retired_actors(&self) -> Vec<usize> {
        let inner = self.inner.lock().unwrap();
        (0..inner.retired.len())
            .filter(|&a| inner.retired[a])
            .collect()
    }

    /// Overrides the step timeout (default 60 s, or
    /// `RAXPP_STEP_TIMEOUT_MS`): the bound on how long the driver waits
    /// for any single actor's reply before declaring the step failed.
    /// On socket transports heartbeat suspicion usually fires first on
    /// a silently dead or partitioned peer; this is the backstop.
    pub fn set_step_timeout(&self, timeout: Duration) {
        self.step_timeout
            .store(timeout.as_millis().max(1) as u64, Ordering::Relaxed);
    }

    /// Places the model parameters on their actors (parameters stay
    /// resident across steps and are updated in place by optimizer
    /// tasks). The runtime keeps no copy: after [`Runtime::recover`]
    /// respawns an actor, the caller places them again.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadInput`] on shape mismatch and
    /// [`RuntimeError::ActorDied`] if an actor is gone.
    pub fn place_params(&self, params: &[Tensor]) -> Result<(), RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        let per_actor = gather_placements(&inner.program, |source| match source {
            InputSource::Param(i) => Some(params.get(i)),
            _ => None,
        })?;
        self.place(&mut inner, per_actor)
    }

    /// Runs one step as one exchange per actor (§4.4): each `Execute`
    /// carries the actor's per-microbatch data inputs and dispatches its
    /// fused stream, and each reply brings back the actor's share of the
    /// program's fetches.
    ///
    /// `data[input][mubatch]` follows the traced function's data-input
    /// order.
    ///
    /// A failed step returns in bounded time (the failing actor's abort
    /// broadcast wakes every blocked peer; the step timeout is the
    /// last-resort bound) and leaves the runtime in a clean state: the
    /// same `Runtime` can run the next step, after [`Runtime::recover`]
    /// if an actor died.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on bad inputs, actor failure, task
    /// execution errors, or timeout.
    pub fn step(&self, data: &[Vec<Tensor>]) -> Result<StepOutputs, RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let start = Instant::now();
        let program = Arc::clone(&inner.program);
        let n = program.n_actors();
        let mut per_actor = gather_placements(&program, |source| match source {
            InputSource::Data { input, mubatch } => {
                Some(data.get(input).and_then(|mbs| mbs.get(mubatch)))
            }
            _ => None,
        })?;

        // One fused dispatch per actor (§4.4): the Execute seq is the
        // step epoch tagging every data message of this step.
        let traced = self.tracing.load(Ordering::Relaxed);
        let epoch = inner.next_seq();
        let mut slots: Vec<Slot> = (0..n)
            .map(|a| {
                if inner.retired[a] {
                    return Slot::Idle; // folded away: no stream, no reply expected
                }
                let execute = Command::Execute {
                    seq: epoch,
                    traced,
                    inputs: std::mem::take(&mut per_actor[a]),
                };
                match inner.post(a, execute) {
                    Ok(()) => Slot::Waiting,
                    Err(e) => Slot::Fatal(e),
                }
            })
            .collect();
        let rpcs = slots.iter().filter(|s| matches!(s, Slot::Waiting)).count();
        // A failure wakes the peers blocked in Recv on this epoch. The
        // failing actor (or its death guard) broadcast already; this
        // covers deaths whose guard ran under an older epoch, and is
        // harmless otherwise.
        inner.collect(&mut slots, epoch, self.timeout(), Some(epoch));
        // Assemble the step trace (also for failed steps — the partial
        // spans plus the abort events are the post-mortem record) before
        // the error return below.
        inner.last_trace = traced.then(|| StepTrace {
            step: epoch,
            actors: slots.iter_mut().filter_map(Slot::take_trace).collect(),
            events: failure_events(self.now_ns(), &slots),
        });
        if let Some(err) = step_error(&slots) {
            return Err(err);
        }
        // Each reply carries its actor's fetches in program order, so
        // one pass over `program.fetches` reassembles them.
        let mut profiles = Vec::with_capacity(n);
        let mut outputs = Vec::with_capacity(n);
        for slot in slots {
            let (profile, fetched) = match slot {
                Slot::Replied(ReplyKind::Executed(outcome)) => (
                    outcome.result.expect("step_error saw none"),
                    outcome.fetched,
                ),
                Slot::Idle => Default::default(),
                _ => unreachable!("step_error covers every other slot"),
            };
            profiles.push(profile);
            outputs.push(fetched.into_iter());
        }
        let fetched = program
            .fetches
            .iter()
            .map(|f| {
                let t = outputs[f.actor].next().ok_or_else(|| RuntimeError::Exec {
                    actor: f.actor,
                    message: format!("protocol error: reply lacks fetched buffer {}", f.buf),
                })?;
                Ok((*f, t))
            })
            .collect::<Result<_, RuntimeError>>()?;
        let wall = start.elapsed();
        Ok(StepOutputs {
            fetched,
            stats: StepStats {
                wall,
                rpcs,
                profiles,
            },
        })
    }

    /// Places arbitrary buffers on actors (e.g. optimizer state appended
    /// by `raxpp-core`'s compiler, which the program lists with a
    /// `State` source).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ActorDied`] if an actor is gone.
    pub fn place_buffers(&self, items: &[(usize, BufferId, Tensor)]) -> Result<(), RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        let n = inner.actors.len();
        let mut per_actor: PerActor = vec![Vec::new(); n];
        for (actor, buf, t) in items {
            if *actor >= n {
                return Err(RuntimeError::BadInput(format!("unknown actor {actor}")));
            }
            per_actor[*actor].push((*buf, t.clone()));
        }
        self.place(&mut inner, per_actor)
    }

    /// Reads one buffer from an actor's store (e.g. an updated parameter).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] if the actor died or the buffer is
    /// missing.
    pub fn read_buffer(&self, actor: usize, buf: BufferId) -> Result<Tensor, RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        if actor >= inner.actors.len() || inner.retired[actor] {
            return Err(RuntimeError::ActorDied { actor });
        }
        let mut replies = self.call(
            &mut inner,
            &[actor],
            |_, seq| Command::Fetch {
                seq,
                bufs: vec![buf],
            },
            |kind| match kind {
                ReplyKind::Fetched(r) => Some(r),
                _ => None,
            },
        );
        let mut tensors = replies.pop().expect("one target, one reply")?;
        Ok(tensors.pop().expect("one buffer fetched, one tensor"))
    }

    /// Peak object-store bytes per actor since launch — the executable
    /// analogue of the schedules' activation-memory footprints
    /// (§2.2.1: GPipe's grows with the microbatch count, 1F1B's with
    /// the stage count). Answers even after failed steps: stores survive
    /// aborts.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ActorDied`] if an actor is gone.
    pub fn peak_store_bytes(&self) -> Result<Vec<usize>, RuntimeError> {
        self.store_bytes(|seq| Command::PeakBytes { seq })
    }

    /// Bytes currently resident in each actor's object store, after
    /// reclaiming any parked deletions whose sends have completed. At
    /// quiescence (between steps) this is the deterministic resident
    /// set — parameters, optimizer state, and fetched outputs — which
    /// makes it the leak detector [`Runtime::peak_store_bytes`] (a
    /// timing-sensitive high-water mark) cannot be.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ActorDied`] if an actor is gone.
    pub fn live_store_bytes(&self) -> Result<Vec<usize>, RuntimeError> {
        self.store_bytes(|seq| Command::LiveBytes { seq })
    }

    /// One store-size query to every actor in service; retired actors
    /// report 0 (folded away: store discarded with the thread).
    fn store_bytes(&self, make: impl Fn(u64) -> Command) -> Result<Vec<usize>, RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        let n = inner.actors.len();
        let targets: Vec<usize> = (0..n).filter(|&a| !inner.retired[a]).collect();
        let replies = self.call(
            &mut inner,
            &targets,
            |_, seq| make(seq),
            |kind| match kind {
                ReplyKind::StoreBytes(b) => Some(Ok(b)),
                _ => None,
            },
        );
        let mut out = vec![0; n];
        for (&a, r) in targets.iter().zip(replies) {
            out[a] = r?;
        }
        Ok(out)
    }

    /// Arms a one-shot deterministic [`Fault`] on one actor: die or
    /// error at a chosen instruction index or task label of the next
    /// executed stream. Repeated injections queue and fire in order, one
    /// per triggering execution. The fault-injection surface behind
    /// every failure test and the failure-mode bench.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ActorDied`] if the actor is already gone.
    pub fn inject_fault(&self, actor: usize, fault: Fault) -> Result<(), RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        if actor >= inner.actors.len() {
            return Err(RuntimeError::ActorDied { actor });
        }
        inner.post(actor, Command::InjectFault(fault))
    }

    /// Respawns dead actors and reconnects the fleet: each dead actor's
    /// thread is replaced and every survivor's route to it is rewired.
    ///
    /// A replacement starts with an **empty store**. The runtime holds
    /// no copy of parameters or optimizer state, so the caller must
    /// place them again before the next step — `raxpp-core`'s fleet
    /// handle re-places its post-step restore point fleet-wide, which is
    /// what makes a recovered run bitwise-identical.
    ///
    /// # Errors
    ///
    /// Infallible today; the `Result` leaves room for a transport that
    /// can fail to respawn.
    pub fn recover(&self) -> Result<RecoveryReport, RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let n = inner.actors.len();
        // Heal the wire first: clear driver-side heartbeat suspicion
        // and every survivor's chaos state (partitions, pending
        // drops/delays). A heal that cannot be delivered reveals a dead
        // survivor before the respawn scan below.
        inner.transport.heal_wire();
        for a in 0..n {
            let _ = inner.post(a, Command::HealWire);
        }
        // Every departure already announced marks its actor dead.
        while let Ok(msg) = inner.inbox.try_recv() {
            inner.receive(msg);
        }
        let dead: Vec<usize> = (0..n)
            .filter(|&a| !inner.retired[a] && inner.actors[a].dead)
            .collect();
        for &a in &dead {
            // Respawn before joining the old thread: on socket
            // transports the respawn severs the old endpoint, which is
            // what unblocks an old thread the driver declared dead
            // while it was still wedged in a receive.
            let old = inner.actors[a].handle.take();
            inner.incarnation[a] += 1;
            let incarnation = inner.incarnation[a];
            let link = inner
                .transport
                .spawn_actor(a, incarnation, &inner.program, self.origin);
            if let Some(h) = old {
                let _ = h.join();
            }
            inner.actors[a] = link;
        }
        // Process workers come back with the original (recompiled)
        // program; replay the rebalance history so they converge on the
        // driver's current program.
        if inner.transport.needs_program_replay() {
            for &a in &dead {
                for assign in inner.assign_history.clone() {
                    if inner.post(a, Command::Reprogram { assign }).is_err() {
                        break;
                    }
                }
            }
        }
        Ok(RecoveryReport { respawned: dead })
    }

    /// Permanently folds the given actors' pipeline stages onto the
    /// nearest surviving actors (elastic degraded mode).
    ///
    /// The running [`MpmdProgram`] is re-placed via
    /// [`raxpp_taskgraph::replace_program`]: every `Run` instruction is
    /// kept byte-identical (so training remains bitwise-deterministic),
    /// co-located sends/recvs collapse to local moves, and cross-actor
    /// transfers are rewired to the new owners. The folded actors are
    /// shut down and marked *retired* — they are never respawned, and
    /// [`Runtime::recover`] skips them from then on.
    ///
    /// Only the program moves: the buffers a retired actor held go with
    /// its store. Call [`Runtime::recover`] afterwards to respawn any
    /// survivor that died in the same incident, then place parameters
    /// and state again under the new program (`raxpp-core`'s fleet
    /// handle does both and restores its restore point).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadInput`] for out-of-range or
    /// already-retired actor ids, and [`RuntimeError::Rebalance`] when
    /// no survivor remains or the program cannot be re-placed (the
    /// fleet is left untouched in that case).
    pub fn rebalance(&self, dead: &[usize]) -> Result<RebalanceReport, RuntimeError> {
        let mut inner = self.inner.lock().unwrap();
        let inner = &mut *inner;
        let n = inner.actors.len();
        let (assign, retired) = {
            let p = &inner.program;
            let tp = TpMap::new(p.tp.as_ref().map_or(1, |m| m.degree.max(1)));
            // (`max`: an actor-less fleet has nothing to fold, and
            // `plan_fold` says so before it consults the layout.)
            let dp = p.dp.map_or(DpMap::new(1, n.max(1)), |m| {
                DpMap::new(m.replicas.max(1), m.base_actors)
            });
            plan_fold(tp, dp, &inner.retired, dead)?
        };
        if retired.is_empty() {
            return Ok(RebalanceReport { retired, assign });
        }
        let new_program = replace_program(&inner.program, &assign)
            .map_err(|e| RuntimeError::Rebalance(e.to_string()))?;
        // Point of no return: retire the folded actors.
        for &d in &retired {
            let _ = inner.post(d, Command::Shutdown);
            if let Some(h) = inner.actors[d].handle.take() {
                let _ = h.join();
            }
            inner.actors[d].dead = true;
            inner.retired[d] = true;
        }
        inner.program = Arc::new(new_program);
        inner.assign_history.push(assign.clone());
        for a in 0..n {
            // A dead survivor is left for recover(), which respawns it
            // with the new program straight from `inner.program`
            // (process workers replay the assign history instead).
            let assign = assign.clone();
            let _ = inner.post(a, Command::Reprogram { assign });
        }
        Ok(RebalanceReport { retired, assign })
    }

    fn place(&self, inner: &mut Inner, per_actor: PerActor) -> Result<(), RuntimeError> {
        let targets: Vec<usize> = (0..per_actor.len())
            .filter(|&a| !per_actor[a].is_empty())
            .collect();
        let placed = self.call(
            inner,
            &targets,
            |a, seq| Command::Place {
                seq,
                bufs: per_actor[a].clone(),
            },
            |kind| matches!(kind, ReplyKind::Placed).then_some(Ok(())),
        );
        // Every reply is collected above, so the first error can be
        // reported without leaving a reply behind to desync the next
        // exchange.
        placed.into_iter().collect()
    }

    /// The driver's one request/reply exchange: sends `make(actor, seq)`
    /// to every target under one fresh sequence number, then collects
    /// every dispatched reply — also on the error path, so no reply is
    /// left to desync the next exchange. `unpack` extracts the expected
    /// reply kind's payload (`None` = some other kind, a protocol
    /// error). An actor that turns out unreachable is marked dead.
    /// Results align with `targets`.
    fn call<T>(
        &self,
        inner: &mut Inner,
        targets: &[usize],
        make: impl Fn(usize, u64) -> Command,
        unpack: impl Fn(ReplyKind) -> Option<Result<T, String>>,
    ) -> Vec<Result<T, RuntimeError>> {
        let seq = inner.next_seq();
        let mut slots: Vec<Slot> = inner.actors.iter().map(|_| Slot::Idle).collect();
        for &a in targets {
            slots[a] = match inner.post(a, make(a, seq)) {
                Ok(()) => Slot::Waiting,
                Err(e) => Slot::Fatal(e),
            };
        }
        // No peer waits on these commands, so a failure wakes nobody.
        inner.collect(&mut slots, seq, self.timeout(), None);
        let result = |a: usize| {
            let message = match std::mem::replace(&mut slots[a], Slot::Idle) {
                Slot::Fatal(e) => return Err(e),
                Slot::Replied(kind) => match unpack(kind) {
                    Some(Ok(v)) => return Ok(v),
                    Some(Err(message)) => message,
                    None => "protocol error: unexpected reply kind".into(),
                },
                Slot::Idle | Slot::Waiting => unreachable!("collect leaves no slot waiting"),
            };
            Err(RuntimeError::Exec { actor: a, message })
        };
        targets.iter().copied().map(result).collect()
    }
}

/// Where one actor stands in the exchange being collected.
enum Slot {
    /// Nothing dispatched (retired, or not a target): no reply expected.
    Idle,
    /// Dispatched; its reply is outstanding.
    Waiting,
    /// The actor's reply to this exchange.
    Replied(ReplyKind),
    /// The driver's verdict on an actor that cannot report: died or
    /// timed out.
    Fatal(RuntimeError),
}

impl Slot {
    /// Files a reply to `seq` into a waiting slot. A stale reply (an
    /// earlier aborted command's), or one that arrives after the
    /// driver's verdict, is dropped.
    fn file(&mut self, r: Reply, seq: u64) {
        if matches!(self, Slot::Waiting) && r.seq == seq {
            *self = Slot::Replied(r.kind);
        }
    }

    /// The failure an `Executed` reply reports, if any.
    fn exec_failure(&self) -> Option<&ExecFailure> {
        match self {
            Slot::Replied(ReplyKind::Executed(outcome)) => outcome.result.as_ref().err(),
            _ => None,
        }
    }

    fn failed(&self) -> bool {
        matches!(self, Slot::Fatal(_)) || self.exec_failure().is_some()
    }

    fn take_trace(&mut self) -> Option<ActorTrace> {
        match self {
            Slot::Replied(ReplyKind::Executed(outcome)) => outcome.trace.take(),
            _ => None,
        }
    }
}

/// The step-trace events describing how a step failed, one per actor
/// with a fatal driver-side verdict or a failed report.
fn failure_events(ts_ns: u64, slots: &[Slot]) -> Vec<StepEvent> {
    let event = |(a, slot): (usize, &Slot)| {
        let (kind, detail) = match (slot, slot.exec_failure()) {
            (Slot::Fatal(RuntimeError::Timeout { .. }), _) => ("timeout", format!("actor {a}")),
            (Slot::Fatal(e), _) => ("actor_died", e.to_string()),
            (_, Some(ExecFailure::Error(m))) => ("abort", m.clone()),
            (_, Some(ExecFailure::Aborted { by, reason })) => {
                let who = if *by == DRIVER {
                    "driver".to_string()
                } else {
                    format!("actor {by}")
                };
                ("cascade", format!("aborted by {who}: {reason}"))
            }
            _ => return None,
        };
        Some(StepEvent {
            ts_ns,
            actor: Some(a),
            kind: kind.to_string(),
            detail,
        })
    };
    slots.iter().enumerate().filter_map(event).collect()
}

/// Maps one step's per-actor slots to the root-cause error, if any.
/// Priority: a genuine task error, then a death, then a timeout, then a
/// pure abort cascade (possible only transiently).
fn step_error(slots: &[Slot]) -> Option<RuntimeError> {
    let (mut error, mut died, mut timeout, mut cascade) = (None, None, None, None);
    for (a, slot) in slots.iter().enumerate() {
        let (class, actor, message) = match (slot, slot.exec_failure()) {
            (Slot::Fatal(e @ RuntimeError::Timeout { .. }), _) => {
                timeout.get_or_insert(e.clone());
                continue;
            }
            (Slot::Fatal(e), _) => {
                died.get_or_insert(e.clone());
                continue;
            }
            (_, Some(ExecFailure::Error(message))) => (&mut error, a, message),
            (_, Some(ExecFailure::Aborted { by, reason })) => {
                (&mut cascade, if *by == DRIVER { a } else { *by }, reason)
            }
            _ => continue,
        };
        class.get_or_insert(RuntimeError::Exec {
            actor,
            message: message.clone(),
        });
    }
    error.or(died).or(timeout).or(cascade)
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let inner = &mut *self.inner.lock().unwrap();
        // Not through `post`, which skips every actor marked dead: one
        // marked dead while its thread still serves must hear this, or
        // the join below waits forever.
        for (a, link) in inner.actors.iter().enumerate() {
            if !link.dead || link.handle.is_some() {
                let payload = Payload::Command(Command::Shutdown);
                let _ = inner.fabric.send(
                    a,
                    Msg {
                        from: DRIVER,
                        payload,
                    },
                );
            }
        }
        // Wake any actor still parked in a Recv from a timed-out step so
        // it can reach the Shutdown command: epoch MAX outranks every
        // current epoch.
        inner
            .fabric
            .broadcast_abort(DRIVER, u64::MAX, "runtime shutdown");
        for link in &mut inner.actors {
            if let Some(h) = link.handle.take() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An empty two-actor fleet: enough for exchanges that run no stream.
    fn fleet() -> Runtime {
        let program = MpmdProgram {
            jaxprs: Vec::new(),
            actors: vec![Vec::new(); 2],
            placements: Vec::new(),
            fetches: Vec::new(),
            tp: None,
            dp: None,
        };
        Runtime::with_transport(program, TransportKind::Mpsc)
    }

    /// Drops `rt` on a helper thread and fails unless the drop returns
    /// within a few seconds, so a shutdown that hangs fails the test
    /// instead of wedging the suite.
    fn assert_drops_promptly(rt: Runtime) {
        let (done, dropped) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            drop(rt);
            let _ = done.send(());
        });
        let waited = dropped.recv_timeout(Duration::from_secs(5));
        assert_ne!(
            waited,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout),
            "dropping the runtime did not return within 5 s"
        );
        helper.join().expect("dropping the runtime panicked");
    }

    /// An actor the driver marked dead while its thread still serves
    /// (here: a forged goodbye of its current incarnation) is still told
    /// to shut down when the runtime drops, without a `recover` first.
    #[test]
    fn dropping_a_runtime_shuts_down_an_actor_marked_dead_while_serving() {
        let rt = fleet();
        {
            let mut inner = rt.inner.lock().unwrap();
            let incarnation = inner.incarnation[1];
            inner.receive(Msg {
                from: 1,
                payload: Payload::Gone(incarnation),
            });
            assert!(inner.actors[1].dead);
            assert!(inner.actors[1].handle.is_some(), "its thread still serves");
        }
        assert_drops_promptly(rt);
    }

    /// The incarnation rule, forced: a goodbye from an actor's replaced
    /// incarnation is dropped however late it lands, while one from the
    /// current incarnation is a death.
    #[test]
    fn a_late_goodbye_never_marks_the_replacement_dead() {
        let rt = fleet();
        rt.inject_fault(1, Fault::DieNow).unwrap();
        assert_eq!(
            rt.live_store_bytes(),
            Err(RuntimeError::ActorDied { actor: 1 })
        );
        assert_eq!(rt.recover().unwrap().respawned, vec![1]);
        let (late, current) = {
            let mut inner = rt.inner.lock().unwrap();
            let gone = |incarnation| Msg {
                from: 1,
                payload: Payload::Gone(incarnation),
            };
            inner.receive(gone(0));
            let late = inner.actors[1].dead;
            inner.receive(gone(1));
            (late, inner.actors[1].dead)
        };
        assert!(!late, "a late goodbye marked the replacement dead");
        assert!(current, "the current incarnation's goodbye is a death");
        // The forged goodbye condemned a live thread; shutdown reaches it.
        assert_drops_promptly(rt);
    }
}
