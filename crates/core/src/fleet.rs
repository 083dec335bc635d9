//! The fleet handle: one launched program, the runtime executing it,
//! and the **single restore point** that goes back onto the actors
//! after a fault.
//!
//! The paper's driver is a thin single controller over actor object
//! stores (§4.1, §4.3), and a forward-only step is the same task graph
//! with the backward half projected away. [`crate::Trainer`] and
//! [`crate::ForwardStep`] are therefore two projections of this one
//! handle: they differ in what they compile and return, not in how a
//! step is run, measured, recovered or rebalanced.
//!
//! State lives in one place. The runtime keeps no copy of any buffer
//! (`Runtime::recover` hands back empty stores); the restore point here
//! — parameters, then optimizer moments, none for a forward step — is
//! what [`Fleet::recover`] and [`Fleet::rebalance`] re-place fleet-wide.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use raxpp_ir::{Shape, Tensor};
use raxpp_runtime::{
    Counter, Gauge, Histogram, Kind, Metrics, RebalanceReport, RecoveryReport, Runtime,
    RuntimeError, StepEvent, StepStats, TransportKind, TransportStats,
};
use raxpp_sched::{simulate, DpMap, Schedule, TpMap, UniformCost};
use raxpp_taskgraph::{
    bucket_collectives, dp_split, dp_treated, insert_frees, replicate_program, shard_program,
    verify_program, ActorId, BufferId, FetchRole, MpmdProgram,
};

use crate::compile::{CoreError, DpConfig, StepMeta, TpConfig};
use crate::optimizer::Optimizer;
use crate::trainer::{RetryPolicy, StepResult};

/// A launched step program with everything needed to run, observe and
/// repair it.
#[derive(Debug)]
pub(crate) struct Fleet {
    pub(crate) runtime: Runtime,
    /// Cross-step counters/gauges/histograms (see `docs/observability.md`
    /// for the catalog).
    pub(crate) metrics: Metrics,
    /// The pipeline schedule the step was compiled for.
    pub(crate) schedule: Schedule,
    /// Idle share the schedule itself prescribes
    /// (`simulate(..).bubble_ratio` under unit costs), computed once:
    /// the subtrahend of the `bubble_excess` gauge.
    ideal_bubble: f64,
    pub(crate) meta: StepMeta,
    /// Compile-time host actor → the host now running its stages
    /// (identity until the first rebalance). `meta`'s placements stay in
    /// compile-time host space and go through this map at every use.
    hosts: Mutex<Vec<usize>>,
    /// Last-known-good state (parameters, then optimizer moments), set
    /// by [`Fleet::install`] and after every step the retry ladder
    /// completes: the only thing ever re-placed after a fault, so a
    /// retry is bitwise-identical.
    restore_point: Mutex<Option<Vec<Tensor>>>,
    /// Cumulative [`TransportStats`] at the last metrics flush — the
    /// subtrahend for per-step `transport_*` counter deltas (socket
    /// transports only; stays zero on mpsc).
    wire_prev: Mutex<TransportStats>,
}

impl Fleet {
    /// The compile tail every step program goes through, training or
    /// forward-only: tensor-parallel sharding, data-parallel
    /// replication, free insertion, collective bucketing and static
    /// verification. Returns the actor arithmetic of the two axes.
    ///
    /// `dp` carries, next to the config, what ZeRO-1 needs to rebuild
    /// each parameter's update on a first-dim slice.
    pub(crate) fn lower(
        program: &mut MpmdProgram,
        tp: Option<&TpConfig>,
        dp: Option<(DpConfig, &Optimizer, &[Shape])>,
    ) -> Result<(TpMap, DpMap), CoreError> {
        // Rewrite the finished host-actor program into `degree` shard
        // streams per pipeline actor.
        let tp = TpMap::new(tp.map_or(1, TpConfig::degree));
        if tp.degree() > 1 {
            *program = shard_program(program, tp.degree())
                .map_err(|e| CoreError::BadInput(format!("tensor-parallel lowering: {e}")))?;
        }
        // Clone the (possibly TP-sharded) pipeline into `replicas`
        // copies that each consume a disjoint slice of the global batch,
        // linked by DP-axis gradient all-reduce sums, optionally sharding
        // optimizer state (ZeRO-1, first-dim — composes with any tp
        // degree).
        let dp = match dp {
            Some((cfg, optimizer, param_shapes)) if cfg.replicas > 1 => {
                let base = program.n_actors();
                let mut build = |param: usize, start: usize, len: usize| {
                    optimizer
                        .sharded_update_jaxpr(&param_shapes[param], start, len)
                        .map_err(|e| e.to_string())
                };
                let zero1: Option<&mut dyn FnMut(usize, usize, usize) -> Result<_, String>> =
                    if cfg.zero1 { Some(&mut build) } else { None };
                *program = replicate_program(program, cfg.replicas, zero1)
                    .map_err(|e| CoreError::BadInput(format!("data-parallel lowering: {e}")))?;
                DpMap::new(cfg.replicas, base)
            }
            _ => DpMap::new(1, program.n_actors()),
        };
        insert_frees(program);
        if tp.degree() > 1 || dp.replicas() > 1 {
            // Coalesce back-to-back collectives into contiguous buckets
            // (hoisting the frees insert_frees interleaved between them).
            bucket_collectives(program);
        }
        // The one checker, in every build profile: shape-level abstract
        // execution of all streams, §4.2 matching order included.
        verify_program(program).map_err(|e| CoreError::BadInput(format!("internal error: {e}")))?;
        Ok((tp, dp))
    }

    /// The handle over a freshly launched `runtime` executing the
    /// program `meta` describes.
    pub(crate) fn new(runtime: Runtime, meta: StepMeta, schedule: &Schedule) -> Fleet {
        // A forward-only step runs none of the schedule's backward tasks.
        let mut cost = UniformCost::default();
        if meta.param_read.is_empty() {
            (cost.bwd, cost.wgrad) = (0.0, 0.0);
        }
        Fleet {
            runtime,
            metrics: Metrics::new(),
            schedule: schedule.clone(),
            ideal_bubble: simulate(schedule, cost).map_or(0.0, |sim| sim.bubble_ratio),
            meta,
            hosts: Mutex::new((0..schedule.n_actors()).collect()),
            restore_point: Mutex::new(None),
            wire_prev: Mutex::new(TransportStats::default()),
        }
    }

    /// The raw runtime actor of `(replica, compile-time host, tp rank)` —
    /// the DP block offset composed outside the TP rank expansion of the
    /// host's current home. All ranks and replicas hold bitwise-identical
    /// copies, so reads pick replica 0, rank 0.
    fn raw_actor(&self, rep: usize, host: ActorId, rank: usize) -> usize {
        let host = self.hosts.lock().unwrap()[host];
        let (tp, dp) = (&self.meta.tp, &self.meta.dp);
        dp.replica_actor(rep, tp.shard_actor(host, rank))
    }

    /// Whether an optimizer-state slot of full shape `s` is held as
    /// per-replica first-dim slices (ZeRO-1) rather than whole.
    fn sliced(&self, s: &Shape) -> bool {
        self.meta.zero1 && dp_treated(s, self.meta.dp.replicas())
    }

    /// Refreshes the `actors_alive` / `stages_per_actor_max` gauges
    /// from the runtime and the composed fold assignment.
    fn update_fleet_gauges(&self) {
        self.metrics
            .set_gauge(Gauge::ActorsAlive, self.runtime.alive_actors() as f64);
        let hosts = self.hosts.lock().unwrap();
        let mut per_host: HashMap<usize, usize> = HashMap::new();
        for &a in &self.schedule.stage_actor() {
            *per_host.entry(hosts[a]).or_insert(0) += 1;
        }
        let max = per_host.values().copied().max().unwrap_or(0);
        self.metrics.set_gauge(Gauge::StagesPerActorMax, max as f64);
    }

    /// Checks `state` (parameters, then optimizer moments, all
    /// full-shape) against the compiled shapes, places it fleet-wide and
    /// makes it the restore point.
    pub(crate) fn install(&self, state: Vec<Tensor>) -> Result<(), CoreError> {
        let meta = &self.meta;
        if state.len() != meta.param_shapes.len() + meta.state_init.len() {
            return Err(CoreError::BadInput(format!(
                "expected {} parameters and {} optimizer moments, got {} tensors",
                meta.param_shapes.len(),
                meta.state_init.len(),
                state.len()
            )));
        }
        let moment_shapes = meta.state_init.iter().map(|(_, _, s)| s);
        let shapes = meta.param_shapes.iter().chain(moment_shapes);
        for (i, (t, s)) in state.iter().zip(shapes).enumerate() {
            if t.shape() != s {
                return Err(CoreError::BadInput(format!(
                    "state tensor {i} shape mismatch: {} vs {s}",
                    t.shape()
                )));
            }
        }
        self.place_state(&state)?;
        *self.restore_point() = Some(state);
        self.update_fleet_gauges();
        Ok(())
    }

    /// The restore point, `None` until the first [`Fleet::install`].
    pub(crate) fn restore_point(&self) -> MutexGuard<'_, Option<Vec<Tensor>>> {
        self.restore_point.lock().unwrap()
    }

    /// Places a full state on every actor: parameters to all of their
    /// replicas, moments to their owners in every DP replica — sliced
    /// per replica under ZeRO-1.
    fn place_state(&self, state: &[Tensor]) -> Result<(), CoreError> {
        let (params, moments) = state.split_at(self.meta.param_shapes.len());
        self.runtime.place_params(params)?;
        let replicas = self.meta.dp.replicas();
        let mut items: Vec<(usize, BufferId, Tensor)> = Vec::new();
        for (&(a, b, ref s), t) in self.meta.state_init.iter().zip(moments) {
            for rep in 0..replicas {
                let tt = if self.sliced(s) {
                    // The host-side mirror of `Prim::SliceFirst`.
                    let (start, len) = dp_split(s.dim(0), replicas, rep);
                    t.slice_dim(0, start, len)?
                } else {
                    t.clone()
                };
                for r in 0..self.meta.tp.degree() {
                    items.push((self.raw_actor(rep, a, r), b, tt.clone()));
                }
            }
        }
        if !items.is_empty() {
            self.runtime.place_buffers(&items)?;
        }
        Ok(())
    }

    /// Re-places the restore point on the whole fleet. The respawned or
    /// re-programmed actors need it; placing it everywhere also rolls
    /// the survivors back to the same step.
    fn restore(&self) -> Result<(), CoreError> {
        match self.restore_point().as_ref() {
            Some(state) => self.place_state(state),
            None => Ok(()),
        }
    }

    /// Reads the current (updated) parameter values back from the
    /// actors.
    pub(crate) fn params(&self) -> Result<Vec<Tensor>, CoreError> {
        let read = |&(a, b)| Ok(self.runtime.read_buffer(self.raw_actor(0, a, 0), b)?);
        self.meta.param_read.iter().map(read).collect()
    }

    /// Reads the full live state (parameters, then optimizer moments)
    /// back from the actors — O(1) `Arc` handle moves per tensor, not
    /// data copies. ZeRO-1 state slices are read from every replica and
    /// reassembled, so captured state (and hence checkpoints) is always
    /// full-shape and portable across DP degrees.
    pub(crate) fn capture_state(&self) -> Result<Vec<Tensor>, CoreError> {
        let mut tensors = self.params()?;
        for &(a, b, ref s) in &self.meta.state_init {
            if self.sliced(s) {
                let slices: Vec<Tensor> = (0..self.meta.dp.replicas())
                    .map(|rep| self.runtime.read_buffer(self.raw_actor(rep, a, 0), b))
                    .collect::<Result<_, _>>()?;
                let slices: Vec<&Tensor> = slices.iter().collect();
                tensors.push(Tensor::concat(&slices, 0)?);
            } else {
                tensors.push(self.runtime.read_buffer(self.raw_actor(0, a, 0), b)?);
            }
        }
        Ok(tensors)
    }

    /// Runs one step over `data[input][mubatch]`: validates the input
    /// counts, dispatches, publishes the step's metrics, and sorts the
    /// fetched buffers into `outputs[output][mubatch]` (and gradients).
    /// Output 0 is the loss in a forward-only program too — it is the
    /// training step's forward half.
    pub(crate) fn run(&self, data: &[Vec<Tensor>]) -> Result<StepResult, CoreError> {
        let meta = &self.meta;
        if data.len() != meta.data_shapes.len() {
            return Err(CoreError::BadInput(format!(
                "expected {} data inputs, got {}",
                meta.data_shapes.len(),
                data.len()
            )));
        }
        for (i, mbs) in data.iter().enumerate() {
            if mbs.len() != meta.n_mubatches {
                return Err(CoreError::BadInput(format!(
                    "data input {i} has {} microbatches, expected {}",
                    mbs.len(),
                    meta.n_mubatches
                )));
            }
        }
        let out = match self.runtime.step(data) {
            Ok(o) => o,
            Err(e) => {
                self.metrics.inc(Counter::StepFailuresTotal, 1);
                return Err(e.into());
            }
        };
        self.publish(&out.stats);
        let mut outputs: Vec<Vec<Option<Tensor>>> =
            vec![vec![None; meta.n_mubatches]; meta.n_outputs];
        let mut grads: Vec<Option<Tensor>> = vec![None; meta.param_shapes.len()];
        for (f, t) in out.fetched {
            match f.role {
                FetchRole::Output { output, mubatch } => outputs[output][mubatch] = Some(t),
                // Under ZeRO-1 each replica fetches its first-dim block
                // of the gradient, replica-ascending.
                FetchRole::Grad(p) => {
                    grads[p] = Some(match grads[p].take() {
                        Some(head) => Tensor::concat(&[&head, &t], 0)?,
                        None => t,
                    })
                }
            }
        }
        let all = |row: Vec<Option<Tensor>>, what| -> Vec<Tensor> {
            row.into_iter().map(|t| t.expect(what)).collect()
        };
        let outputs: Vec<Vec<Tensor>> = outputs
            .into_iter()
            .map(|row| all(row, "missing output"))
            .collect();
        let losses: Vec<f32> = outputs[0]
            .iter()
            .map(|t| t.item().expect("loss must be scalar"))
            .collect();
        Ok(StepResult {
            mean_loss: losses.iter().sum::<f32>() / losses.len().max(1) as f32,
            losses,
            outputs,
            // Gradient fetches are compiled in for every parameter or
            // for none.
            grads: grads
                .iter()
                .any(Option::is_some)
                .then(|| all(grads, "missing grad")),
            stats: out.stats,
        })
    }

    /// Publishes one successful step into the metrics registry.
    fn publish(&self, stats: &StepStats) {
        let m = &self.metrics;
        m.inc(Counter::StepsTotal, 1);
        m.observe(Histogram::StepTimeS, stats.wall.as_secs_f64());
        // The fleet's profile: (time, invocations) of a kind and the
        // byte counters, summed over actors.
        let total = stats.total();
        let of = |k: Kind| total.get(k).unwrap_or_default();
        let alloc = total.alloc_stats();
        m.inc(Counter::AllocAllocatedTotal, alloc.allocated);
        m.inc(Counter::AllocReusedTotal, alloc.reused);
        m.inc(Counter::AllocFreedTotal, alloc.freed);
        let touched = alloc.allocated + alloc.reused;
        if touched > 0 {
            m.set_gauge(Gauge::AllocReuseRate, alloc.reused as f64 / touched as f64);
        }
        // Where the actors' time went, tracing off: the share of actor
        // time blocked in `Recv`, and how much of it the schedule does
        // not account for (a placement or runtime regression shows here
        // without a benchmark run).
        let actor_time = stats.rpcs as f64 * stats.wall.as_secs_f64();
        if actor_time > 0.0 {
            let wait = of(Kind::Recv).0.as_secs_f64() / actor_time;
            m.set_gauge(Gauge::RecvWaitShare, wait);
            m.set_gauge(Gauge::BubbleExcess, wait - self.ideal_bubble);
        }
        if self.runtime.transport_kind() != TransportKind::Mpsc {
            // Wire counters are cumulative on the transport; publish
            // per-step deltas so they compose with counter semantics.
            let now = self.runtime.transport_stats();
            let mut prev = self.wire_prev.lock().unwrap();
            let delta = |f: fn(&TransportStats) -> u64| f(&now).saturating_sub(f(&prev));
            m.inc(Counter::TransportBytesTx, delta(|s| s.bytes_tx));
            m.inc(Counter::TransportBytesRx, delta(|s| s.bytes_rx));
            m.inc(Counter::ReconnectsTotal, delta(|s| s.reconnects));
            m.inc(Counter::HeartbeatMissesTotal, delta(|s| s.heartbeat_misses));
            *prev = now;
        }
        if self.meta.tp.degree() > 1 {
            m.inc(Counter::TpCollectivesTotal, of(Kind::Collective).1.into());
            m.inc(Counter::TpBytesWire, total.bytes_wire());
            let wait = of(Kind::CollectiveWait).0;
            m.inc(Counter::TpCollectiveWaitUs, wait.as_micros() as u64);
        }
        if self.meta.dp.replicas() > 1 {
            m.inc(Counter::DpCollectivesTotal, of(Kind::DpCollective).1.into());
            m.inc(Counter::DpBytesWire, total.dp_bytes_wire());
            let wait = of(Kind::DpCollectiveWait).0;
            m.inc(Counter::DpCollectiveWaitUs, wait.as_micros() as u64);
            // Each replica runs its compiled (per-replica) schedule:
            // the global batch divided by the DP degree.
            m.set_gauge(
                Gauge::DpMicrobatchesPerReplica,
                (self.meta.n_mubatches / self.meta.dp.replicas()) as f64,
            );
        }
        if (self.meta.tp.degree(), self.meta.dp.replicas()) == (1, 1) {
            // Bubble accounting maps trace actors 1:1 onto pipeline
            // ranks; under tensor or data parallelism each rank owns
            // multiple actor timelines, so the report is only computed
            // for pure PP. A traced step's trace stays parked in the
            // runtime for whoever takes it.
            self.runtime.with_step_trace(|trace| {
                if let Some(trace) = trace {
                    let report = crate::observe::bubble_report(trace, &self.schedule);
                    m.set_gauge(Gauge::BubbleFractionMeasured, report.measured_bubble);
                }
            });
        }
    }

    /// Runs `f` with per-instruction tracing forced on, restoring the
    /// previous setting afterwards.
    pub(crate) fn traced<T>(&self, f: impl FnOnce() -> T) -> T {
        let was = self.runtime.tracing_enabled();
        self.runtime.set_tracing(true);
        let out = f();
        self.runtime.set_tracing(was);
        out
    }

    /// The retry ladder: runs the step; on a recoverable failure either
    /// folds a repeatedly-dying actor away ([`Fleet::rebalance`]) or
    /// backs off and respawns ([`Fleet::recover`]) — both put the
    /// restore point back — and tries again, up to `policy.max_retries`
    /// times. The state a successful step leaves becomes the restore
    /// point: that step will never be retried.
    ///
    /// Also returns what the step survived, in timeline order: the
    /// abort/death events of every failed attempt that was traced, a
    /// `"retry"` marker per round, and a `"rebalanced"` marker per fold.
    pub(crate) fn run_with_recovery(
        &self,
        data: &[Vec<Tensor>],
        policy: RetryPolicy,
    ) -> Result<(StepResult, Vec<StepEvent>), CoreError> {
        let mut attempt = 0u32;
        let mut deaths: HashMap<usize, u32> = HashMap::new();
        let mut events: Vec<StepEvent> = Vec::new();
        let marker = |kind: &str, detail: String| StepEvent {
            ts_ns: self.runtime.now_ns(),
            actor: None,
            kind: kind.to_string(),
            detail,
        };
        loop {
            match self.run(data) {
                Ok(out) => {
                    let state = self.capture_state()?;
                    *self.restore_point() = Some(state);
                    return Ok((out, events));
                }
                Err(CoreError::Runtime(e))
                    if e.is_recoverable() && attempt < policy.max_retries =>
                {
                    // Keep the failed attempt's abort/death events; its
                    // spans are droppable (the successful attempt rewrites
                    // the same instruction timeline).
                    if let Some(t) = self.runtime.take_step_trace() {
                        events.extend(t.events);
                    }
                    let detail = format!("attempt {} after: {e}", attempt + 1);
                    events.push(marker("retry", detail));
                    if let Some(report) = self.maybe_rebalance(&e, policy, &mut deaths)? {
                        let detail = format!("retired {:?}", report.retired);
                        events.push(marker("rebalanced", detail));
                    } else {
                        let backoff = policy.backoff * 2u32.saturating_pow(attempt);
                        if !backoff.is_zero() {
                            std::thread::sleep(backoff);
                        }
                        self.recover()?;
                        self.metrics.inc(Counter::RetriesTotal, 1);
                    }
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The rebalance rung of the recovery ladder: when `policy` enables
    /// elastic mode and `e` is the `rebalance_after`-th death of the
    /// same actor within this step's retry loop (and at least one other
    /// actor survives), folds that actor away instead of respawning it.
    /// Returns the report when a rebalance happened.
    fn maybe_rebalance(
        &self,
        e: &RuntimeError,
        policy: RetryPolicy,
        deaths: &mut HashMap<usize, u32>,
    ) -> Result<Option<RebalanceReport>, CoreError> {
        let (RuntimeError::ActorDied { actor }, Some(after)) = (e, policy.rebalance_after) else {
            return Ok(None);
        };
        let count = deaths.entry(*actor).or_insert(0);
        *count += 1;
        // A fold retires the dead actor's whole host group in every
        // replica (t × R raw actors); without at least one more group's
        // worth of survivors there is nothing to fold onto.
        let group = self.meta.tp.degree() * self.meta.dp.replicas();
        if *count < after.max(1) || self.runtime.alive_actors() <= group {
            return Ok(None);
        }
        self.rebalance(&[*actor]).map(Some)
    }

    /// Respawns dead actors ([`Runtime::recover`]) and re-places the
    /// restore point on the whole fleet.
    pub(crate) fn recover(&self) -> Result<RecoveryReport, CoreError> {
        let report = self.runtime.recover()?;
        self.metrics.inc(Counter::RecoveriesTotal, 1);
        self.metrics
            .inc(Counter::RespawnedActorsTotal, report.respawned.len() as u64);
        self.restore()?;
        Ok(report)
    }

    /// Permanently folds the given actors' stages onto the survivors
    /// ([`Runtime::rebalance`]), respawns any survivor that died in the
    /// same incident, and re-places the restore point under the new
    /// program.
    pub(crate) fn rebalance(&self, dead: &[usize]) -> Result<RebalanceReport, CoreError> {
        let report = self.runtime.rebalance(dead)?;
        self.runtime.recover()?;
        // `report.assign` is in raw actor space, `hosts` in host space.
        // Host-level uniform folds guarantee `assign[host*t] = new_host*t`
        // (replica 0, rank 0), which recovers the host mapping for any
        // tp/dp degree.
        let t = self.meta.tp.degree();
        for host in self.hosts.lock().unwrap().iter_mut() {
            *host = report.assign[*host * t] / t;
        }
        self.restore()?;
        self.metrics.inc(Counter::RebalancesTotal, 1);
        self.update_fleet_gauges();
        Ok(report)
    }
}
