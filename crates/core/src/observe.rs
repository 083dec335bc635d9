//! Bubble accounting: measured per-stage idle time from a [`StepTrace`]
//! diffed against the `raxpp-sched` simulator's prediction for the same
//! schedule — the loop-closer between the analytical model and the real
//! runtime (the paper's Fig. 8-style analysis).
//!
//! The measured side reads each actor's spans folded back into its
//! profile (`ActorTrace::profile`): compute time is every kind that
//! runs a task graph (`Kind::is_compute`), communication is `send`, and
//! `recv` time is almost entirely *waiting* for upstream data — the
//! executable form of the pipeline bubble. The predicted side
//! simulates the same schedule under a [`UniformCost`] model whose
//! `fwd`/`bwd`/`wgrad` durations are the medians measured in this very
//! trace, so the two sides are directly comparable.

use std::fmt;

use raxpp_runtime::{Kind, StepTrace};
use raxpp_sched::{simulate, Schedule, UniformCost};

/// One actor's time breakdown for a step.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// The actor (pipeline rank).
    pub actor: usize,
    /// Seconds spent executing task graphs.
    pub compute_s: f64,
    /// Seconds spent in `send` instructions.
    pub comm_s: f64,
    /// Seconds spent blocked in `recv` instructions (waiting for
    /// upstream data — the dominant component of measured idle).
    pub wait_s: f64,
    /// Measured idle fraction: share of the step window this actor was
    /// not computing or sending.
    pub measured_idle_frac: f64,
    /// The simulator's predicted idle fraction for the same actor under
    /// the trace-derived cost model.
    pub predicted_idle_frac: f64,
}

/// Measured vs predicted bubble accounting for one traced step.
///
/// Render with `{}` for a per-stage table, or read the fields directly.
#[derive(Debug, Clone, PartialEq)]
pub struct BubbleReport {
    /// Measured step window in seconds (first span start to last span
    /// end across all actors).
    pub makespan_s: f64,
    /// Measured bubble fraction: share of total actor-time (window ×
    /// actors) not spent computing or sending.
    pub measured_bubble: f64,
    /// The simulator's bubble ratio for the same schedule under the
    /// trace-derived cost model.
    pub predicted_bubble: f64,
    /// Per-actor breakdowns, indexed by actor.
    pub stages: Vec<StageReport>,
}

impl fmt::Display for BubbleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "step window {:.3} ms | bubble measured {:.1}% vs predicted {:.1}%",
            self.makespan_s * 1e3,
            self.measured_bubble * 100.0,
            self.predicted_bubble * 100.0
        )?;
        writeln!(
            f,
            "{:<6} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "actor", "compute_ms", "send_ms", "recv_ms", "idle_meas", "idle_pred"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "{:<6} {:>12.3} {:>12.3} {:>12.3} {:>9.1}% {:>9.1}%",
                s.actor,
                s.compute_s * 1e3,
                s.comm_s * 1e3,
                s.wait_s * 1e3,
                s.measured_idle_frac * 100.0,
                s.predicted_idle_frac * 100.0
            )?;
        }
        Ok(())
    }
}

fn median(mut v: Vec<f64>) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Some(v[v.len() / 2])
}

/// Computes measured per-stage idle time from `trace` and diffs it
/// against the simulator's prediction for `schedule`.
///
/// The prediction runs [`simulate`] with `fwd`/`bwd`/`wgrad` set to the
/// median measured durations of the corresponding span kinds (`p2p` is
/// left at zero: thread-channel sends are not a modeled latency). The
/// measured and predicted idle fractions then answer the same question —
/// "what share of the step did each pipeline rank wait?" — from the
/// trace and from the analytical model respectively.
pub fn bubble_report(trace: &StepTrace, schedule: &Schedule) -> BubbleReport {
    let mut start_ns = u64::MAX;
    let mut end_ns = 0u64;
    for at in &trace.actors {
        for s in &at.spans {
            if s.kind == Kind::Op.as_str() {
                continue;
            }
            start_ns = start_ns.min(s.start_ns);
            end_ns = end_ns.max(s.start_ns + s.dur_ns);
        }
    }
    let window_s = if end_ns > start_ns {
        (end_ns - start_ns) as f64 / 1e9
    } else {
        0.0
    };

    // Trace-derived uniform cost model: median per-kind task durations.
    let kind_durs = |kind: Kind| -> Vec<f64> {
        trace
            .actors
            .iter()
            .flat_map(|at| at.spans.iter())
            .filter(|s| s.kind == kind.as_str())
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect()
    };
    let fwd = median(kind_durs(Kind::Fwd)).unwrap_or(1.0);
    let cost = UniformCost {
        fwd,
        bwd: median(kind_durs(Kind::Bwd)).unwrap_or(2.0 * fwd),
        wgrad: median(kind_durs(Kind::BwdW)).unwrap_or(fwd),
        p2p: 0.0,
    };
    let sim = simulate(schedule, cost).ok();
    let predicted_bubble = sim.as_ref().map(|r| r.bubble_ratio).unwrap_or(f64::NAN);

    let n_actors = schedule.n_actors();
    let mut stages = Vec::with_capacity(n_actors);
    let mut total_busy_s = 0.0;
    for a in 0..n_actors {
        let at = trace.actors.iter().find(|at| at.actor == a);
        let profile = at.map(|at| at.profile()).unwrap_or_default();
        let secs = |k: Kind| profile.get(k).map_or(0.0, |(d, _)| d.as_secs_f64());
        let compute = Kind::ALL.into_iter().filter(|k| k.is_compute());
        let compute_s: f64 = compute.map(secs).sum();
        let comm_s = secs(Kind::Send);
        let wait_s = secs(Kind::Recv);
        total_busy_s += compute_s + comm_s;
        let measured_idle_frac = if window_s > 0.0 {
            (1.0 - (compute_s + comm_s) / window_s).max(0.0)
        } else {
            0.0
        };
        let predicted_idle_frac = sim
            .as_ref()
            .map(|r| {
                let busy: f64 = r
                    .timeline
                    .get(a)
                    .map(|tl| tl.iter().map(|e| e.end - e.start).sum())
                    .unwrap_or(0.0);
                if r.makespan > 0.0 {
                    (1.0 - busy / r.makespan).max(0.0)
                } else {
                    0.0
                }
            })
            .unwrap_or(f64::NAN);
        stages.push(StageReport {
            actor: a,
            compute_s,
            comm_s,
            wait_s,
            measured_idle_frac,
            predicted_idle_frac,
        });
    }
    let measured_bubble = if window_s > 0.0 && n_actors > 0 {
        (1.0 - total_busy_s / (window_s * n_actors as f64)).max(0.0)
    } else {
        0.0
    };
    BubbleReport {
        makespan_s: window_s,
        measured_bubble,
        predicted_bubble,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raxpp_runtime::{ActorTrace, SpanEvent};
    use raxpp_sched::gpipe;

    fn span(kind: &'static str, start_ns: u64, dur_ns: u64) -> SpanEvent {
        SpanEvent {
            instr: 0,
            kind,
            name: String::new(),
            start_ns,
            dur_ns,
            bytes: 0,
            alloc: None,
        }
    }

    #[test]
    fn idle_actor_shows_bubble() {
        // Two actors over a 10 ms window; actor 1 computes half of it.
        let trace = StepTrace {
            step: 1,
            actors: vec![
                ActorTrace {
                    actor: 0,
                    spans: vec![span("fwd", 0, 10_000_000), span("bwd", 10_000_000, 0)],
                    dropped: 0,
                },
                ActorTrace {
                    actor: 1,
                    spans: vec![
                        span("recv", 0, 5_000_000),
                        span("fwd", 5_000_000, 5_000_000),
                    ],
                    dropped: 0,
                },
            ],
            events: vec![],
        };
        let schedule = gpipe(2, 4).unwrap();
        let r = bubble_report(&trace, &schedule);
        assert!((r.makespan_s - 0.010).abs() < 1e-9);
        assert!(r.stages[0].measured_idle_frac < 0.01);
        assert!((r.stages[1].measured_idle_frac - 0.5).abs() < 0.01);
        assert!((r.stages[1].wait_s - 0.005).abs() < 1e-9);
        assert!(r.predicted_bubble > 0.0, "gpipe must predict a bubble");
        let rendered = r.to_string();
        assert!(rendered.contains("idle_meas"));
    }
}
