//! Step-trace observability tests: the golden chrome-trace schema
//! (external tooling parses these field names and their order — do not
//! change it casually), end-to-end span recording on a real pipeline
//! step, and the object-store accounting regression around aborted
//! epochs.

use raxpp_ir::{EvalStats, Jaxpr, Tensor, TraceCtx};
use raxpp_runtime::{
    ActorTrace, Fault, Runtime, SpanEvent, StepEvent, StepTrace, TRACE_SCHEMA_VERSION,
};
use raxpp_sched::{gpipe, one_f1b, Schedule};
use raxpp_taskgraph::{
    insert_frees, pipeline_model, unroll_loop, verify_program, Instr, MpmdProgram, UnrollOptions,
};

fn chain(emb: usize, n_stages: usize) -> (Jaxpr, usize) {
    let ctx = TraceCtx::new();
    let ws: Vec<_> = (0..n_stages).map(|_| ctx.input([emb, emb])).collect();
    let x = ctx.input([2, emb]);
    let mut h = x;
    for (i, w) in ws.iter().enumerate() {
        h = h.matmul(w).unwrap().tanh();
        if i + 1 < n_stages {
            h = ctx.pipeline_yield(&h);
        }
    }
    let loss = h.mul(&h).unwrap().sum().scale(0.5);
    (ctx.finish(&[loss]).unwrap(), n_stages)
}

fn compile(jaxpr: &Jaxpr, n_params: usize, schedule: &Schedule) -> MpmdProgram {
    let model = pipeline_model(jaxpr, n_params).unwrap();
    let mut compiled = unroll_loop(&model, schedule, UnrollOptions::default()).unwrap();
    verify_program(&compiled.program).unwrap();
    insert_frees(&mut compiled.program);
    compiled.program
}

fn rand_inputs(
    jaxpr: &Jaxpr,
    n_params: usize,
    n_mb: usize,
    seed: u64,
) -> (Vec<Tensor>, Vec<Vec<Tensor>>) {
    use raxpp_ir::rng::SeedableRng;
    let mut rng = raxpp_ir::rng::StdRng::seed_from_u64(seed);
    let shapes = jaxpr.in_shapes();
    let params = shapes[..n_params]
        .iter()
        .map(|s| Tensor::randn(s.clone(), 0.4, &mut rng))
        .collect();
    let data = shapes[n_params..]
        .iter()
        .map(|s| {
            (0..n_mb)
                .map(|_| Tensor::randn(s.clone(), 1.0, &mut rng))
                .collect()
        })
        .collect();
    (params, data)
}

/// The golden trace: every field name, every separator, the exact
/// ordering. `docs/observability.md` documents this schema and
/// `raxpp-simcluster`'s predicted-timeline export mirrors it; any change
/// here is a breaking change for external trace consumers.
#[test]
fn golden_chrome_trace_schema() {
    let trace = StepTrace {
        step: 3,
        actors: vec![ActorTrace {
            actor: 1,
            spans: vec![
                SpanEvent {
                    instr: 0,
                    kind: "fwd",
                    name: "fwd(mb=0, s=1)".into(),
                    start_ns: 1_000,
                    dur_ns: 2_500,
                    bytes: 0,
                    alloc: Some(EvalStats {
                        allocated: 3,
                        reused: 1,
                        freed: 2,
                    }),
                },
                SpanEvent {
                    instr: 1,
                    kind: "send",
                    name: "send b2 -> actor 0".into(),
                    start_ns: 4_000,
                    dur_ns: 500,
                    bytes: 64,
                    alloc: None,
                },
            ],
            dropped: 0,
        }],
        events: vec![
            StepEvent {
                ts_ns: 5_000,
                actor: None,
                kind: "retry".into(),
                detail: "attempt 2".into(),
            },
            StepEvent {
                ts_ns: 6_000,
                actor: None,
                kind: "rebalanced".into(),
                detail: "retired [2]".into(),
            },
        ],
    };
    let expected = concat!(
        "[\n",
        "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 1, ",
        "\"args\": {\"name\": \"actor 1\"}},\n",
        "  {\"name\": \"fwd(mb=0, s=1)\", \"cat\": \"fwd\", \"ph\": \"X\", \"ts\": 1.000, ",
        "\"dur\": 2.500, \"pid\": 0, \"tid\": 1, ",
        "\"args\": {\"instr\": 0, \"step\": 3, \"allocated\": 3, \"reused\": 1, \"freed\": 2}},\n",
        "  {\"name\": \"send b2 -> actor 0\", \"cat\": \"send\", \"ph\": \"X\", \"ts\": 4.000, ",
        "\"dur\": 0.500, \"pid\": 0, \"tid\": 1, ",
        "\"args\": {\"instr\": 1, \"step\": 3, \"bytes\": 64}},\n",
        "  {\"name\": \"retry: attempt 2\", \"cat\": \"retry\", \"ph\": \"i\", \"ts\": 5.000, ",
        "\"pid\": 0, \"tid\": 0, \"s\": \"g\", \"args\": {\"step\": 3}},\n",
        "  {\"name\": \"rebalanced: retired [2]\", ",
        "\"cat\": \"rebalanced\", \"ph\": \"i\", \"ts\": 6.000, ",
        "\"pid\": 0, \"tid\": 0, \"s\": \"g\", \"args\": {\"step\": 3}}\n",
        "]",
    );
    assert_eq!(trace.chrome_trace_json(), expected);
    // Schema v6: the additions of v2 (the "copy" span kind and the
    // "rebalanced" step event) are covered by this golden file; the
    // "collective" span kind added in v3, the "collective_wait" span
    // kind added in v4, and the "dp_collective"/"dp_collective_wait"
    // span kinds added in v5 use the same X-event fields as send/recv
    // spans and are exercised end-to-end by tests/tensor_parallel.rs
    // and tests/data_parallel.rs. The "wire" span kind added in v6
    // (socket-transport write inside a Send) uses the same X-event
    // fields and is exercised by the socket-transport suites. The
    // "serve" span kind added in v7 (one served request's lifetime on
    // a pseudo-actor track) also uses the same X-event fields and is
    // exercised by tests/serving.rs.
    assert_eq!(TRACE_SCHEMA_VERSION, 7);
}

#[test]
fn traced_step_records_spans_end_to_end() {
    let (jaxpr, n_params) = chain(4, 2);
    let schedule = one_f1b(2, 4).unwrap();
    let program = compile(&jaxpr, n_params, &schedule);
    let (params, data) = rand_inputs(&jaxpr, n_params, 4, 41);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();

    // Untraced by default: no trace parked.
    rt.step(&data).unwrap();
    assert!(rt.take_step_trace().is_none());

    rt.set_tracing(true);
    assert!(rt.tracing_enabled());
    rt.step(&data).unwrap();
    let trace = rt.take_step_trace().expect("traced step parks a trace");
    assert_eq!(trace.actors.len(), 2, "one ActorTrace per actor");
    assert!(trace.events.is_empty(), "clean step has no step events");

    for at in &trace.actors {
        assert!(!at.spans.is_empty(), "actor {} recorded spans", at.actor);
        assert_eq!(at.dropped, 0);
        // Spans are in execution order on a shared monotonic timeline.
        // Nested kinds ("op" inside Run, "wire" inside a socket send,
        // the "*_wait" kinds inside their collective) are pushed before
        // their parent instruction span and start later, so exempt them.
        let nested = |k: &str| {
            k == "op" || k == "wire" || k == "collective_wait" || k == "dp_collective_wait"
        };
        for w in at.spans.windows(2) {
            if !nested(w[0].kind) && !nested(w[1].kind) {
                assert!(w[0].start_ns <= w[1].start_ns);
            }
        }
        // Every send/recv span carries the payload size: activations and
        // cotangents here are [2, 4] f32 = 32 bytes.
        for s in at
            .spans
            .iter()
            .filter(|s| s.kind == "send" || s.kind == "recv")
        {
            assert_eq!(s.bytes, 4 * 2 * 4, "{} span bytes", s.kind);
        }
        // Run spans carry the interpreter's buffer-reuse counters and
        // contain nested per-primitive op spans.
        assert!(at.spans.iter().any(|s| s.alloc.is_some()));
        assert!(at.spans.iter().any(|s| s.kind == "op"));
        // 4 microbatches of fwd and bwd each.
        assert_eq!(at.spans.iter().filter(|s| s.kind == "fwd").count(), 4);
        assert_eq!(at.spans.iter().filter(|s| s.kind == "bwd").count(), 4);
    }
    // `take_step_trace` (the path `Trainer::step_traced` uses) moved
    // the trace out of its one home; taking it is one-shot.
    assert!(rt.take_step_trace().is_none());

    // Tracing off again: back to zero-overhead mode.
    rt.set_tracing(false);
    rt.step(&data).unwrap();
    assert!(rt.take_step_trace().is_none());
}

#[test]
fn failed_traced_step_keeps_partial_trace_with_abort_events() {
    let (jaxpr, n_params) = chain(4, 2);
    let program = compile(&jaxpr, n_params, &gpipe(2, 2).unwrap());
    // Fail stage 1 at its first Recv: stage 0 has already run (and
    // traced) its forward sends by then.
    let recv_idx = program.actors[1]
        .iter()
        .position(|i| matches!(i, Instr::Recv { .. }))
        .unwrap();
    let (params, data) = rand_inputs(&jaxpr, n_params, 2, 42);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    rt.set_tracing(true);
    rt.inject_fault(1, Fault::ErrorAtInstr(recv_idx)).unwrap();
    rt.step(&data).unwrap_err();

    let trace = rt.take_step_trace().expect("failed step keeps its trace");
    assert!(trace.has_event("abort"), "events: {:?}", trace.events);
    let abort = trace.events.iter().find(|e| e.kind == "abort").unwrap();
    assert_eq!(abort.actor, Some(1));
    assert!(
        abort.detail.contains("injected"),
        "detail: {}",
        abort.detail
    );
    // The surviving stage aborted in cascade, and both stages still
    // report the spans they executed before the failure.
    assert!(trace.has_event("cascade"), "events: {:?}", trace.events);
    assert!(trace
        .actors
        .iter()
        .any(|a| a.actor == 0 && a.spans.iter().any(|s| s.kind == "fwd")));
}

/// Regression: ghost parked deletions from aborted epochs must not
/// stay resident in the store accounting forever.
///
/// Under GPipe, stage 1's stream tail (backwards + cotangent sends +
/// update) contains no Recv, so when stage 0 fails *after* forwarding
/// all its microbatches, stage 1 finishes its whole stream successfully
/// — with every cotangent send unconsumed. The deferred deletions of
/// those send buffers park with tokens nobody will ever complete. Each
/// such failed epoch used to stack another copy of those bytes onto
/// `live_bytes` (the next epoch re-inserts the same buffer ids while
/// the ghosts stay parked), ratcheting live/peak accounting up on every
/// fail/recover cycle. The fix reclaims abandoned sends at each command
/// boundary, so residency after a fail/recover cycle is identical to
/// residency after a clean step.
#[test]
fn store_live_bytes_stable_across_aborted_epochs() {
    let (jaxpr, n_params) = chain(4, 2);
    let program = compile(&jaxpr, n_params, &gpipe(2, 4).unwrap());
    // Stage 0's first Recv is the first cotangent receive — past every
    // forward send, so stage 1 runs to completion.
    let recv_idx = program.actors[0]
        .iter()
        .position(|i| matches!(i, Instr::Recv { .. }))
        .unwrap();
    let (params, data) = rand_inputs(&jaxpr, n_params, 4, 43);
    let rt = Runtime::new(program);
    rt.place_params(&params).unwrap();
    rt.step(&data).unwrap();
    // The deterministic quiescent resident set: params plus the step's
    // surviving output buffers (every later step overwrites the same
    // ids).
    let base = rt.live_store_bytes().unwrap();

    for round in 0..4 {
        rt.inject_fault(0, Fault::ErrorAtInstr(recv_idx)).unwrap();
        rt.step(&data).unwrap_err();
        rt.step(&data).unwrap();
        assert_eq!(
            rt.live_store_bytes().unwrap(),
            base,
            "round {round}: aborted epochs must not leave ghost bytes resident"
        );
    }
}
