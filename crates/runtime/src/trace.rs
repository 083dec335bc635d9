//! Structured step tracing: per-instruction span events, collected per
//! actor into a [`StepTrace`] and exportable as Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` and <https://ui.perfetto.dev>).
//!
//! Tracing is the executable counterpart of `raxpp-simcluster`'s
//! predicted timelines (the paper's Figure 8-style plots).
//!
//! **One record, two views.** The actor's instruction loop reports each
//! instruction once, to the [`Recorder`] it owns for the step:
//! `(index, Kind, bytes, alloc)` plus a closure that can render a name.
//! The recorder reads the clock — once per instruction; a span starts
//! where its predecessor ended, so an actor's top-level spans tile its
//! stream — adds `(duration, 1)` to the step's [`ActorProfile`] under
//! the kind and, iff the step is traced, pushes the matching
//! [`SpanEvent`] onto a [`SpanRing`] the actor exclusively owns (one
//! actor = one OS thread, so recording is lock-free by construction).
//! Intervals inside an instruction (`op`, `wire`, the collective waits)
//! take the same path through [`Recorder::sub`]. The profile and the
//! trace are therefore written by the same call from the same duration:
//! [`ActorTrace::profile`] folds the spans back into the profile, entry
//! for entry. Both ride the actor's `Executed` reply; the driver
//! assembles the rings into a [`StepTrace`] keyed by the step's epoch.
//!
//! Tracing is off by default. An untraced step makes the very same
//! recorder calls with the ring absent: whether a record also becomes a
//! span is decided once, in `Recorder::record`, and names are rendered
//! only behind that branch (the interpreter is likewise handed an `op`
//! hook only when there is a ring to fill). What enabling it costs is
//! the benchmark's `runtime.trace_overhead`. Recording only *observes* execution —
//! timestamps and byte counts — so it cannot perturb the
//! bit-compatibility contract (`determinism_guard` runs with tracing
//! enabled).

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use raxpp_ir::EvalStats;

use crate::exec::ActorProfile;
use crate::kind::Kind;

/// Default capacity of one actor's span ring (events per step).
const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// Version of the trace schema: span kinds, step-event kinds, and the
/// Chrome `trace_event` field order pinned by the golden test.
///
/// History:
/// - **1** — initial schema (PR 3): span kinds `"fwd"`, `"bwd"`,
///   `"bwdw"`, `"accum_grad"`, `"ct_sum"`, `"grad_reduce"`, `"update"`,
///   `"send"`, `"recv"`, `"free"`, `"op"`; step-event kinds `"abort"`,
///   `"cascade"`, `"actor_died"`, `"timeout"`, `"retry"`.
/// - **2** — adds the `"copy"` span kind (local move produced by
///   program re-placement when a send/recv pair collapses onto one
///   actor) and the `"rebalanced"` step-event kind (emitted by
///   `Trainer` when elastic degraded-mode rebalancing folds lost
///   actors' stages onto survivors).
/// - **3** — adds the `"collective"` span kind (one tensor-parallel
///   collective, an all-gather, executed by one rank; `bytes` carries
///   the rank's wire volume).
/// - **4** — adds the `"collective_wait"` span kind (the time a rank
///   spent blocked in its exchange's receives waiting for its peers'
///   pieces — the exposed share of communication; nested inside its
///   `"collective"` span, starting at the first receive and as long as
///   the receives' waits summed). The `"collective"` span's `bytes`
///   carries the bytes the rank sent, `(t-1) * 4 * numel` for an
///   all-gather.
/// - **5** — adds the `"dp_collective"` and `"dp_collective_wait"`
///   span kinds: one data-parallel collective between pipeline
///   replicas and the time a replica spent blocked in its exchange's
///   receives. Same shape as `"collective"`/`"collective_wait"`,
///   separate kinds so TP and DP traffic stay distinguishable in a
///   3-D (dp × tp × pp) trace.
/// - **6** — adds the `"wire"` span kind (the synchronous socket write
///   of one `Send` instruction on a socket transport — transport cost
///   separated from store bookkeeping; nested inside its `"send"` span,
///   `bytes` carries the payload size). Emitted only when
///   `RAXPP_TRANSPORT` selects a socket fabric; mpsc traces are
///   unchanged.
/// - **7** — adds the `"serve"` span kind: one served request's
///   lifetime inside the continuous-batching tier, recorded by
///   `raxpp-serve` onto a pseudo-actor track appended after the real
///   actors' tracks (its index is one past the highest real actor, so
///   its Perfetto thread name is `actor <n_actors>`); spans are named
///   `request <id> (slot s)`
///   with `ts` at admission and `dur` to reply, so queue wait and the
///   enclosing forward dispatch line up against the pipeline actors'
///   `fwd` spans on the shared timeline (`docs/serving.md`). Emitted
///   only when tracing is enabled on the serving runtime; training
///   traces are unchanged.
///
/// The `"copy"` span kind of version 2 is no longer emitted: a
/// rebalance recompiles the folded schedule, and compiled programs
/// carry no local copies. No field changed and a kind that never
/// appears breaks no reader, so the version stays at 7.
pub const TRACE_SCHEMA_VERSION: u32 = 7;

/// One traced span: a single executed instruction, or (for `cat ==
/// "op"`) one interpreter equation inside a `Run` instruction.
///
/// Timestamps are monotonic nanoseconds relative to the runtime's
/// launch instant, shared by every actor of the runtime, so spans from
/// different actors align on one timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Index of the instruction in the actor's fused stream (op spans
    /// carry their parent `Run`'s index).
    pub instr: u32,
    /// What the span's time was spent on: a [`Kind`] name
    /// ([`Kind::as_str`]) — an instruction kind, or one of the kinds
    /// nested inside an instruction ([`Kind::is_nested`]).
    pub kind: &'static str,
    /// Human-readable name: the task label rendering (`fwd(mb=0, s=1)`),
    /// a transport description (`send b12 -> actor 1`), or the primitive
    /// name for op spans.
    pub name: String,
    /// Start, in nanoseconds since the runtime's launch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes for `send`/`recv` spans, and for `collective` /
    /// `dp_collective` spans the bytes the member *sent* in its exchange
    /// (4 bytes per f32 element); 0 otherwise.
    pub bytes: u64,
    /// Buffer-allocator counters for `Run` spans; `None` otherwise.
    pub alloc: Option<EvalStats>,
}

/// A fixed-capacity ring buffer of [`SpanEvent`]s, owned exclusively by
/// one actor thread while a traced step executes.
///
/// Because every actor is a single OS thread and the ring travels back
/// to the driver inside the actor's `Executed` reply, pushes never
/// contend with anything: no locks, no atomics. When the ring is full
/// the oldest span is overwritten and counted in the trace's
/// [`ActorTrace::dropped`].
#[derive(Debug, Default)]
pub(crate) struct SpanRing {
    buf: VecDeque<SpanEvent>,
    cap: usize,
    dropped: u64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` spans (minimum 1). The
    /// buffer grows on demand up to that bound.
    fn new(capacity: usize) -> SpanRing {
        SpanRing {
            buf: VecDeque::new(),
            cap: capacity.max(1),
            dropped: 0,
        }
    }

    /// The ring an actor records a step of a `len`-instruction stream
    /// into: [`DEFAULT_SPAN_CAPACITY`], with room reserved for one span
    /// per instruction (sub-spans grow it).
    pub(crate) fn for_stream(len: usize) -> SpanRing {
        let mut ring = SpanRing::new(DEFAULT_SPAN_CAPACITY);
        ring.buf.reserve(len.min(ring.cap));
        ring
    }

    /// Appends a span, evicting the oldest one when full.
    fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Hands the ring's spans over as the [`ActorTrace`] of actor
    /// `actor`, without copying them.
    fn into_trace(self, actor: usize) -> ActorTrace {
        ActorTrace {
            actor,
            spans: self.buf.into(),
            dropped: self.dropped,
        }
    }
}

/// Nanoseconds from the runtime-wide span origin to `t`.
fn ns_since(origin: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(origin).as_nanos() as u64
}

/// The step's one book: every instruction, and every named interval
/// inside one, is recorded here once. The profile is always written;
/// the ring is present iff the step is traced.
pub(crate) struct Recorder {
    pub(crate) profile: ActorProfile,
    ring: Option<SpanRing>,
    /// The runtime-wide zero point of span timestamps.
    origin: Instant,
    /// Where the previous instruction ended and the next one starts.
    cursor: Instant,
}

impl Recorder {
    /// A recorder whose first instruction starts now.
    pub(crate) fn new(ring: Option<SpanRing>, origin: Instant) -> Recorder {
        Recorder {
            profile: ActorProfile::default(),
            ring,
            origin,
            cursor: Instant::now(),
        }
    }

    /// What the step recorded: its profile and, if it was traced, the
    /// spans of actor `actor`.
    pub(crate) fn finish(self, actor: usize) -> (ActorProfile, Option<ActorTrace>) {
        let trace = self.ring.map(|ring| ring.into_trace(actor));
        (self.profile, trace)
    }

    /// Records the instruction at `idx`: it ends now and started where
    /// its predecessor ended, so top-level spans tile the stream on one
    /// clock read each.
    pub(crate) fn instr(
        &mut self,
        idx: usize,
        kind: Kind,
        bytes: u64,
        alloc: Option<EvalStats>,
        name: impl FnOnce() -> String,
    ) {
        let (start, end) = (self.cursor, Instant::now());
        self.cursor = end;
        let dur = end.saturating_duration_since(start);
        self.record(idx, kind, start, dur, bytes, alloc, name);
    }

    /// Records a named interval inside the instruction at `idx`.
    pub(crate) fn sub(
        &mut self,
        idx: usize,
        kind: Kind,
        start: Instant,
        dur: Duration,
        bytes: u64,
        name: impl FnOnce() -> String,
    ) {
        self.record(idx, kind, start, dur, bytes, None, name);
    }

    /// The interpreter hook recording one `op` span per equation of the
    /// `Run` at `idx`; `None` on an untraced step, so the interpreter
    /// takes no timestamps.
    pub(crate) fn op_hook(
        &mut self,
        idx: usize,
    ) -> Option<impl FnMut(usize, &'static str, Instant, Instant) + '_> {
        self.ring.is_some().then_some(
            move |_eqn: usize, op: &'static str, s: Instant, e: Instant| {
                self.sub(idx, Kind::Op, s, e.saturating_duration_since(s), 0, || {
                    op.to_string()
                })
            },
        )
    }

    /// The one write: the profile entry always (for the kinds a profile
    /// accounts), the span iff the step is traced — `name` is rendered
    /// only then.
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        idx: usize,
        kind: Kind,
        start: Instant,
        dur: Duration,
        bytes: u64,
        alloc: Option<EvalStats>,
        name: impl FnOnce() -> String,
    ) {
        if kind.is_profiled() {
            self.profile.add(kind, dur, 1);
        }
        if let Some(stats) = &alloc {
            self.profile.alloc.merge(stats);
        }
        if let Some(ring) = &mut self.ring {
            ring.push(SpanEvent {
                instr: idx as u32,
                kind: kind.as_str(),
                name: name(),
                start_ns: ns_since(self.origin, start),
                dur_ns: dur.as_nanos() as u64,
                bytes,
                alloc,
            });
        }
    }
}

/// One actor's spans for one step, in execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ActorTrace {
    /// The actor that recorded these spans.
    pub actor: usize,
    /// Recorded spans in execution order.
    pub spans: Vec<SpanEvent>,
    /// Spans lost to ring overflow (0 unless the stream exceeded the
    /// ring capacity).
    pub dropped: u64,
}

impl ActorTrace {
    /// Folds the spans back into the [`ActorProfile`] the actor reported
    /// for the step: time and count per kind, plus the allocator
    /// counters of the `Run` spans. Trace-only kinds (`op`, `wire`,
    /// `serve`) are not part of a profile; neither are the profile's
    /// byte counters part of a trace. On a step that lost no spans this
    /// equals `StepStats::profiles[actor]` entry for entry, because one
    /// call wrote both from the same duration.
    pub fn profile(&self) -> ActorProfile {
        let mut profile = ActorProfile::default();
        for s in &self.spans {
            let Some(kind) = Kind::parse(s.kind).filter(|k| k.is_profiled()) else {
                continue;
            };
            profile.add(kind, Duration::from_nanos(s.dur_ns), 1);
            if let Some(stats) = &s.alloc {
                profile.alloc.merge(stats);
            }
        }
        profile
    }
}

/// A step-level (non-span) event: aborts, deaths, timeouts observed by
/// the driver, and retries recorded by `Trainer::step_with_recovery`.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// Nanoseconds since the runtime's launch when the driver recorded
    /// the event.
    pub ts_ns: u64,
    /// The actor the event concerns, if any (`None` for step-global
    /// events such as retries).
    pub actor: Option<usize>,
    /// Event kind: `"abort"`, `"cascade"`, `"actor_died"`, `"timeout"`,
    /// `"retry"`, or `"rebalanced"`.
    pub kind: String,
    /// Human-readable detail (error message, retry attempt, …).
    pub detail: String,
}

/// The trace of one step: every actor's spans plus the step-level
/// events, keyed by the step's epoch (the `Execute` sequence number).
///
/// Produced by the driver when tracing is enabled
/// (`Runtime::set_tracing`); export with
/// [`StepTrace::chrome_trace_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTrace {
    /// The step epoch this trace belongs to.
    pub step: u64,
    /// Per-actor spans (one entry per actor that returned a trace).
    pub actors: Vec<ActorTrace>,
    /// Step-level abort/death/timeout/retry events.
    pub events: Vec<StepEvent>,
}

impl StepTrace {
    /// Total spans across all actors.
    pub fn span_count(&self) -> usize {
        self.actors.iter().map(|a| a.spans.len()).sum()
    }

    /// Whether any step-level event of `kind` was recorded.
    pub fn has_event(&self, kind: &str) -> bool {
        self.events.iter().any(|e| e.kind == kind)
    }

    /// Serializes the trace to Chrome `trace_event` JSON (an array of
    /// events), loadable in `chrome://tracing` and Perfetto.
    ///
    /// The schema is stable (pinned by a golden test so external tooling
    /// can rely on it): per event, the fields appear in the order
    /// `name`, `cat`, `ph`, `ts`, `dur`, `pid`, `tid`, `args`.
    /// Durations are `ph: "X"` complete events; step-level events are
    /// `ph: "i"` instants. Timestamps are microseconds with three
    /// decimals; `tid` is the actor index; `pid` is always 0. `args`
    /// carries `instr` and `step` on every span, `bytes` on
    /// `send`/`recv`, and `allocated`/`reused`/`freed` on `Run` spans.
    /// `raxpp-simcluster`'s predicted-timeline exports use the same
    /// field order, so measured and predicted traces diff cleanly.
    pub fn chrome_trace_json(&self) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.span_count() + self.actors.len() + 1);
        for at in &self.actors {
            rows.push(format!(
                "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {}, \
                 \"args\": {{\"name\": \"actor {}\"}}}}",
                at.actor, at.actor
            ));
        }
        for at in &self.actors {
            for s in &at.spans {
                let mut args = format!("{{\"instr\": {}, \"step\": {}", s.instr, self.step);
                if s.bytes > 0 {
                    let _ = write!(args, ", \"bytes\": {}", s.bytes);
                }
                if let Some(a) = &s.alloc {
                    let _ = write!(
                        args,
                        ", \"allocated\": {}, \"reused\": {}, \"freed\": {}",
                        a.allocated, a.reused, a.freed
                    );
                }
                args.push('}');
                rows.push(format!(
                    "  {{\"name\": {}, \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, \"args\": {}}}",
                    json_str(&s.name),
                    s.kind,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    at.actor,
                    args
                ));
            }
        }
        for e in &self.events {
            let tid = e.actor.unwrap_or(0);
            rows.push(format!(
                "  {{\"name\": {}, \"cat\": \"{}\", \"ph\": \"i\", \"ts\": {:.3}, \
                 \"pid\": 0, \"tid\": {}, \"s\": \"g\", \"args\": {{\"step\": {}}}}}",
                json_str(&format!("{}: {}", e.kind, e.detail)),
                e.kind,
                e.ts_ns as f64 / 1e3,
                tid,
                self.step
            ));
        }
        let mut out = String::from("[\n");
        out.push_str(&rows.join(",\n"));
        out.push_str("\n]");
        out
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(instr: u32, kind: &'static str, name: &str) -> SpanEvent {
        SpanEvent {
            instr,
            kind,
            name: name.to_string(),
            start_ns: 1_000 * u64::from(instr),
            dur_ns: 500,
            bytes: 0,
            alloc: None,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut r = SpanRing::new(3);
        for i in 0..5 {
            r.push(span(i, "fwd", "t"));
        }
        let t = r.into_trace(0);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[0].instr, 2, "oldest spans evicted first");
    }

    #[test]
    fn json_escapes_strings() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn chrome_json_is_wellformed() {
        let trace = StepTrace {
            step: 7,
            actors: vec![ActorTrace {
                actor: 1,
                spans: vec![
                    span(0, "fwd", "fwd(mb=0, s=1)"),
                    SpanEvent {
                        bytes: 64,
                        ..span(1, "send", "send b3 -> actor 0")
                    },
                ],
                dropped: 0,
            }],
            events: vec![StepEvent {
                ts_ns: 9_000,
                actor: Some(1),
                kind: "abort".into(),
                detail: "boom".into(),
            }],
        };
        let json = trace.chrome_trace_json();
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"fwd(mb=0, s=1)\""));
        assert!(json.contains("\"bytes\": 64"));
        assert!(json.contains("\"abort: boom\""));
        assert!(!json.contains(",\n]"), "no trailing comma");
    }
}
