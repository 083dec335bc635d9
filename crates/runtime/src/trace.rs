//! Structured step tracing: per-instruction span events, collected per
//! actor into a [`StepTrace`] and exportable as Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` and <https://ui.perfetto.dev>).
//!
//! Tracing is the executable counterpart of `raxpp-simcluster`'s
//! predicted timelines (the paper's Figure 8-style plots): each actor
//! thread records one [`SpanEvent`] per executed instruction — task
//! label, instruction kind, monotonic start/duration, bytes moved for
//! `Send`/`Recv`, and the interpreter's buffer-reuse counters for `Run`
//! — into a [`SpanRing`] it exclusively owns (one actor = one OS
//! thread, so recording is lock-free by construction). The driver
//! collects the rings with the `Executed` replies and assembles a
//! [`StepTrace`] keyed by the step's epoch.
//!
//! Tracing is off by default and zero-cost when disabled: actors see a
//! single `traced` flag per `Execute` dispatch and skip every recording
//! branch when it is false (what enabling it costs is the benchmark's
//! `runtime.trace_overhead`). Recording only *observes* execution — timestamps and byte
//! counts — so it cannot perturb the bit-compatibility contract
//! (`determinism_guard` runs with tracing enabled).

use std::collections::VecDeque;
use std::fmt::Write as _;

use raxpp_ir::EvalStats;

/// Default capacity of one actor's span ring (events per step).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

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
///   ring collective — all-gather, all-reduce, or reduce-scatter —
///   executed by one rank; `bytes` carries the rank's ring-received
///   wire volume).
/// - **4** — adds the `"collective_wait"` span kind (the interval a
///   shard lane spent parked at the collective rendezvous waiting for
///   its peers' contributions — the exposed, non-overlapped share of
///   communication; emitted only in lane mode, nested inside its
///   `"collective"` span). In lane mode the `"collective"` span's
///   `bytes` carries the modelled wire volume `(t-1) * 4 * numel`
///   (equal to what the serial ring physically receives).
/// - **5** — adds the `"dp_collective"` and `"dp_collective_wait"`
///   span kinds: the data-parallel gradient all-reduce between
///   pipeline replicas and the interval a replica spent parked at its
///   rendezvous. Same shape as `"collective"`/`"collective_wait"`,
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
    /// Instruction kind: one of `"fwd"`, `"bwd"`, `"bwdw"`,
    /// `"accum_grad"`, `"ct_sum"`, `"grad_reduce"`, `"update"`,
    /// `"send"`, `"recv"`, `"copy"`, `"collective"`, `"free"`, `"op"`
    /// for interpreter sub-spans, or `"collective_wait"` for the parked
    /// interval inside a lane-mode collective.
    pub kind: &'static str,
    /// Human-readable name: the task label rendering (`fwd(mb=0, s=1)`),
    /// a transport description (`send b12 -> actor 1`), or the primitive
    /// name for op spans.
    pub name: String,
    /// Start, in nanoseconds since the runtime's launch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Payload bytes for `send`/`recv` spans and ring-received wire
    /// bytes for `collective` spans (4 bytes per f32 element); 0
    /// otherwise.
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
/// the oldest span is overwritten and counted in
/// [`SpanRing::dropped`].
///
/// # Examples
///
/// ```
/// use raxpp_runtime::{SpanEvent, SpanRing};
///
/// let mut ring = SpanRing::new(2);
/// for i in 0..3 {
///     ring.push(SpanEvent {
///         instr: i,
///         kind: "fwd",
///         name: format!("fwd(mb={i}, s=0)"),
///         start_ns: 10 * u64::from(i),
///         dur_ns: 5,
///         bytes: 0,
///         alloc: None,
///     });
/// }
/// assert_eq!(ring.len(), 2); // capacity 2: the oldest span was evicted
/// assert_eq!(ring.dropped(), 1);
/// ```
#[derive(Debug, Default)]
pub struct SpanRing {
    buf: VecDeque<SpanEvent>,
    cap: usize,
    dropped: u64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` spans (minimum 1).
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.max(1);
        SpanRing {
            buf: VecDeque::with_capacity(cap.min(DEFAULT_SPAN_CAPACITY)),
            cap,
            dropped: 0,
        }
    }

    /// Appends a span, evicting the oldest one when full.
    pub fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring into an [`ActorTrace`] for actor `actor`.
    pub fn into_trace(self, actor: usize) -> ActorTrace {
        ActorTrace {
            actor,
            spans: self.buf.into_iter().collect(),
            dropped: self.dropped,
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
/// Produced by the driver when tracing is enabled (`RAXPP_TRACE=1` or
/// `Runtime::set_tracing`); export with
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
