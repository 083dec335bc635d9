//! Chrome-trace export of simulated timelines.
//!
//! Writes the `chrome://tracing` / Perfetto JSON array format, one
//! complete-duration event per simulated task, with pipeline ranks as
//! "threads". Open the file at <https://ui.perfetto.dev> to inspect
//! warm-up bubbles, steady-state interleaving, and cool-down drain
//! exactly as the paper's Figure 2 diagrams them.

use raxpp_sched::{Dir, TimelineEntry};

/// Serializes a timeline (per actor, its executed tasks — what both
/// [`raxpp_sched::simulate`] and [`crate::simulate_pipeline`] return)
/// to chrome-trace JSON.
///
/// The format's unit is microseconds: pass `us_per_unit = 1e6` for a
/// [`crate::StepReport`] (seconds) and `1.0` to read a unitless
/// uniform-cost simulation as microseconds. Events use the runtime's
/// span schema — the same `fwd(mb=…, s=…)` names and
/// `name`/`cat`/`ph`/`ts`/`dur`/`pid`/`tid`/`args` field order that
/// `raxpp-runtime`'s `StepTrace::chrome_trace_json` emits — so a
/// predicted timeline diffs cleanly against a measured one. The category
/// is the task direction so the UI can color by it.
pub fn chrome_trace_json(timeline: &[Vec<TimelineEntry>], us_per_unit: f64) -> String {
    let n_events: usize = timeline.iter().map(Vec::len).sum();
    let mut out = String::from("[\n");
    let events = timeline
        .iter()
        .enumerate()
        .flat_map(|(actor, tasks)| tasks.iter().map(move |e| (actor, e)));
    for (i, (actor, e)) in events.enumerate() {
        let name = match e.task.dir {
            Dir::Fwd => "fwd",
            Dir::Bwd => "bwd",
            Dir::BwdW => "bwdw",
        };
        let ts = e.start * us_per_unit;
        let dur = (e.end - e.start) * us_per_unit;
        out.push_str(&format!(
            concat!(
                "  {{\"name\": \"{}(mb={}, s={})\", \"cat\": \"{}\", \"ph\": \"X\", ",
                "\"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 0, \"tid\": {}, ",
                "\"args\": {{\"mubatch\": {}, \"stage\": {}}}}}"
            ),
            name, e.task.mubatch, e.task.stage, name, ts, dur, actor, e.task.mubatch, e.task.stage,
        ));
        out.push_str(if i + 1 < n_events { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ParallelConfig};
    use crate::sim::{simulate_pipeline, SimOptions};
    use crate::specs::ClusterSpec;
    use raxpp_sched::Task;

    #[test]
    fn trace_json_is_wellformed() {
        let timeline = vec![
            vec![TimelineEntry {
                task: Task::fwd(0, 0),
                start: 0.0,
                end: 0.5,
            }],
            vec![TimelineEntry {
                task: Task::bwd(0, 1),
                start: 0.5,
                end: 1.5,
            }],
        ];
        let json = chrome_trace_json(&timeline, 1e6);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"fwd(mb=0, s=0)\""));
        assert!(json.contains("\"tid\": 1"));
        assert!(json.contains("\"dur\": 1000000.000"));
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn predicted_export_matches_runtime_schema() {
        use raxpp_sched::{gpipe, simulate, UniformCost};
        let r = simulate(&gpipe(4, 4).unwrap(), UniformCost::default()).unwrap();
        let json = chrome_trace_json(&r.timeline, 1.0);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        // Runtime span naming: fwd(mb=0, s=0), one entry per task.
        assert!(json.contains("\"fwd(mb=0, s=0)\""));
        assert!(json.contains("\"bwd(mb=3, s=3)\""));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4 * 4 * 2);
        // Field order is pinned by the runtime's golden trace test.
        assert!(json.contains("\"name\": \"fwd(mb=0, s=0)\", \"cat\": \"fwd\", \"ph\": \"X\""));
    }

    #[test]
    fn recorded_simulation_exports() {
        let r = simulate_pipeline(
            &ModelConfig::gpt3_175b(),
            ParallelConfig::jaxpp_gpt3(1),
            &ClusterSpec::eos(),
            &SimOptions::default(),
        )
        .unwrap();
        // 48 stages × 32 microbatches × (fwd + bwd), always recorded.
        assert_eq!(r.timeline.iter().map(Vec::len).sum::<usize>(), 48 * 32 * 2);
        assert!(chrome_trace_json(&r.timeline, 1e6).len() > 10_000);
    }
}
