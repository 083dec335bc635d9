//! The traced run's span recorder. Spans are taken in the benchmark,
//! around each call into a layer; no span is added inside a library
//! crate. They stay in memory and are written once, at exit, as a
//! Chrome trace (`chrome://tracing`, Perfetto).

use std::fmt::Write as _;
use std::time::Instant;

use raxpp_runtime::StepTrace;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (in the same log) of the span that caused this one.
    pub parent: Option<usize>,
    /// The step or request the span belongs to; spans of one step or
    /// one request share it.
    pub id: u64,
    /// Chrome-trace track: the benchmark thread the span was taken on.
    pub track: u32,
}

/// The run's spans, on one clock.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.ns(Instant::now())
    }

    /// `t` on this log's clock.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a top-level span now; close it with [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            id,
            track: 0,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, id);
        let out = f();
        self.end(s);
        out
    }

    /// Seconds spent in spans called `name`, summed.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }
}

/// A runtime step trace hung under one of the benchmark's `step`
/// spans: `offset_ns` moves the runtime's clock onto the log's.
pub struct AttachedTrace<'a> {
    pub trace: &'a StepTrace,
    pub parent: usize,
    pub offset_ns: i64,
}

/// Renders the log (and at most one attached runtime trace) as Chrome
/// trace-event JSON. The benchmark's spans are process 0, one track
/// per benchmark thread; the runtime's actors are process 1, one track
/// per actor.
pub fn chrome_trace(log: &SpanLog, attached: Option<AttachedTrace<'_>>) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut event = |out: &mut String,
                     name: &str,
                     cat: &str,
                     pid: u32,
                     tid: u32,
                     start_ns: u64,
                     dur_ns: u64,
                     args: &str| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            name.replace('\\', "\\\\").replace('"', "\\\""),
            start_ns as f64 / 1e3,
            dur_ns as f64 / 1e3,
        );
    };
    for (i, s) in log.spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        event(
            &mut out,
            s.name,
            "bench",
            0,
            s.track,
            s.start_ns,
            s.end_ns - s.start_ns,
            &format!("\"span\":{i},\"parent\":{parent},\"id\":{}", s.id),
        );
    }
    if let Some(a) = attached {
        for actor in &a.trace.actors {
            for s in &actor.spans {
                let start = (s.start_ns as i64 + a.offset_ns).max(0) as u64;
                event(
                    &mut out,
                    &s.name,
                    s.kind,
                    1,
                    actor.actor as u32,
                    start,
                    s.dur_ns,
                    &format!("\"parent\":{},\"instr\":{}", a.parent, s.instr),
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let mut log = SpanLog::new();
        let step = log.begin("step", 7);
        log.scope("ckpt.save", 7, || ());
        log.spans[1].parent = Some(step);
        log.end(step);
        assert_eq!(log.spans[1].parent, Some(0));
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        assert!(log.total_s("step") >= log.total_s("ckpt.save"));
        let json = chrome_trace(&log, None);
        let doc = crate::json::parse(&json).unwrap();
        let Some(crate::json::Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").unwrap().as_str(), Some("ckpt.save"));
    }
}
