//! The metrics registry: fixed storage for the closed catalogue of
//! counters, gauges and histograms RaxPP records, behind an `Arc` so
//! the registry can be cloned into trainers, servers and tests.
//!
//! Every metric is declared once, as a row of [`Counter`], [`Gauge`] or
//! [`Histogram`]; its one human-readable copy is the Metrics table of
//! `docs/observability.md` (a unit test keeps the two equal). Writes
//! take the typed id — a counter cannot be set as a gauge, and no write
//! takes a lock (histograms aside), touches a map or allocates. Reads
//! go by name ([`Metrics::counter`], [`Metrics::snapshot`], …), sorted
//! lexicographically so renders are deterministic and easy to diff.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

catalogue! {
    /// A monotonic counter: what [`Metrics::inc`] adds to.
    pub enum Counter {
        StepsTotal => "steps_total",
        StepFailuresTotal => "step_failures_total",
        AllocAllocatedTotal => "alloc_allocated_total",
        AllocReusedTotal => "alloc_reused_total",
        AllocFreedTotal => "alloc_freed_total",
        RetriesTotal => "retries_total",
        RecoveriesTotal => "recoveries_total",
        RespawnedActorsTotal => "respawned_actors_total",
        RebalancesTotal => "rebalances_total",
        CheckpointsTotal => "checkpoints_total",
        TpCollectivesTotal => "tp_collectives_total",
        TpBytesWire => "tp_bytes_wire",
        TpCollectiveWaitUs => "tp_collective_wait_us",
        DpCollectivesTotal => "dp_collectives_total",
        DpBytesWire => "dp_bytes_wire",
        DpCollectiveWaitUs => "dp_collective_wait_us",
        TransportBytesTx => "transport_bytes_tx",
        TransportBytesRx => "transport_bytes_rx",
        ReconnectsTotal => "reconnects_total",
        HeartbeatMissesTotal => "heartbeat_misses_total",
        ServeRequestsTotal => "serve_requests_total",
        ServeRepliesTotal => "serve_replies_total",
        ServeRequestFailuresTotal => "serve_request_failures_total",
        ServeBatchesTotal => "serve_batches_total",
        ServeFailedBatchesTotal => "serve_failed_batches_total",
        ServePaddedSlotsTotal => "serve_padded_slots_total",
        ServeWeightSwapsTotal => "serve_weight_swaps_total",
    }
}

catalogue! {
    /// A last-write gauge: what [`Metrics::set_gauge`] sets.
    pub enum Gauge {
        AllocReuseRate => "alloc_reuse_rate",
        BubbleFractionMeasured => "bubble_fraction_measured",
        RecvWaitShare => "recv_wait_share",
        BubbleExcess => "bubble_excess",
        ActorsAlive => "actors_alive",
        StagesPerActorMax => "stages_per_actor_max",
        DpMicrobatchesPerReplica => "dp_microbatches_per_replica",
        ServeQueueDepth => "serve_queue_depth",
        ServeSlotUtilization => "serve_slot_utilization",
        ServeP50Us => "serve_p50_us",
        ServeP99Us => "serve_p99_us",
    }
}

catalogue! {
    /// A summarised distribution: what [`Metrics::observe`] records into.
    pub enum Histogram {
        StepTimeS => "step_time_s",
        ServeBatchTimeS => "serve_batch_time_s",
    }
}

/// Summary statistics of an observed distribution (histogram values are
/// summarized, not bucketed, to stay allocation-light).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Most recent observation.
    pub last: f64,
}

impl HistogramSummary {
    /// No observations: the first one sets every field (`-0.0 + v` is
    /// `v` for every `v`, `-0.0` included).
    const EMPTY: HistogramSummary = HistogramSummary {
        count: 0,
        sum: -0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        last: 0.0,
    };

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Mean of all observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One metric value: a monotonic counter, a last-write gauge, or a
/// histogram summary.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last written value.
    Gauge(f64),
    /// Distribution summary of observed values.
    Histogram(HistogramSummary),
}

/// One counter, or one gauge as its `f64` bits, and whether it was ever
/// written: an entry never written is absent from every read. A write
/// stores the value, then `written` with `Release`; a read that loads
/// `written` with `Acquire` therefore sees that value or a later one.
#[derive(Debug, Default)]
struct Slot {
    value: AtomicU64,
    written: AtomicBool,
}

impl Slot {
    fn mark(&self) {
        self.written.store(true, Ordering::Release);
    }

    fn read(&self) -> Option<u64> {
        let written = self.written.load(Ordering::Acquire);
        written.then(|| self.value.load(Ordering::Relaxed))
    }
}

const POISONED: &str = "a histogram lock is never held across a panic";

#[derive(Debug)]
struct Registry {
    counters: [Slot; Counter::COUNT],
    gauges: [Slot; Gauge::COUNT],
    histograms: [Mutex<HistogramSummary>; Histogram::COUNT],
}

/// A cloneable, thread-safe registry of the catalogued metrics.
///
/// # Examples
///
/// ```
/// use raxpp_runtime::{Counter, Gauge, Histogram, MetricValue, Metrics};
///
/// let m = Metrics::new();
/// m.inc(Counter::StepsTotal, 1);
/// m.set_gauge(Gauge::AllocReuseRate, 0.85);
/// m.observe(Histogram::StepTimeS, 0.012);
/// assert_eq!(m.counter("steps_total"), 1);
/// assert_eq!(m.gauge("alloc_reuse_rate"), Some(0.85));
/// let snap = m.snapshot();
/// assert!(matches!(snap["step_time_s"], MetricValue::Histogram(h) if h.count == 1));
/// ```
#[derive(Debug, Clone)]
pub struct Metrics(Arc<Registry>);

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics(Arc::new(Registry {
            counters: std::array::from_fn(|_| Slot::default()),
            gauges: std::array::from_fn(|_| Slot::default()),
            histograms: std::array::from_fn(|_| Mutex::new(HistogramSummary::EMPTY)),
        }))
    }
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `by` to `counter` (which then reads as present, even at 0).
    pub fn inc(&self, counter: Counter, by: u64) {
        let slot = &self.0.counters[counter as usize];
        slot.value.fetch_add(by, Ordering::Relaxed);
        slot.mark();
    }

    /// Sets `gauge` to `value`.
    pub fn set_gauge(&self, gauge: Gauge, value: f64) {
        let slot = &self.0.gauges[gauge as usize];
        slot.value.store(value.to_bits(), Ordering::Relaxed);
        slot.mark();
    }

    /// Records `value` into `histogram`.
    pub fn observe(&self, histogram: Histogram, value: f64) {
        let summary = &self.0.histograms[histogram as usize];
        summary.lock().expect(POISONED).observe(value);
    }

    /// Current value of counter `name` (0 if never written or not a
    /// counter).
    pub fn counter(&self, name: &str) -> u64 {
        let counter = Counter::parse(name);
        counter
            .and_then(|c| self.0.counters[c as usize].read())
            .unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let gauge = Gauge::parse(name)?;
        self.0.gauges[gauge as usize].read().map(f64::from_bits)
    }

    /// Summary of histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        self.summary(Histogram::parse(name)?)
    }

    /// `histogram`'s summary, if it was ever observed into.
    fn summary(&self, histogram: Histogram) -> Option<HistogramSummary> {
        let summary = *self.0.histograms[histogram as usize]
            .lock()
            .expect(POISONED);
        (summary.count > 0).then_some(summary)
    }

    /// Every metric written so far, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<&'static str, MetricValue> {
        let counters = Counter::ALL.into_iter().filter_map(|c| {
            let value = self.0.counters[c as usize].read()?;
            Some((c.as_str(), MetricValue::Counter(value)))
        });
        let gauges = Gauge::ALL.into_iter().filter_map(|g| {
            let value = self.0.gauges[g as usize].read()?;
            Some((g.as_str(), MetricValue::Gauge(f64::from_bits(value))))
        });
        let histograms = Histogram::ALL
            .into_iter()
            .filter_map(|h| Some((h.as_str(), MetricValue::Histogram(self.summary(h)?))));
        counters.chain(gauges).chain(histograms).collect()
    }

    /// Renders the registry as one `name value` line per metric,
    /// sorted by name — handy for logs and tests.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.snapshot() {
            match v {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{name} {c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{name} {g:.6}");
                }
                MetricValue::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name} count={} mean={:.6} min={:.6} max={:.6} last={:.6}",
                        h.count,
                        h.mean(),
                        h.min,
                        h.max,
                        h.last
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.inc(Counter::StepsTotal, 2);
        m.inc(Counter::StepsTotal, 3);
        assert_eq!(m.counter("steps_total"), 5);
        assert_eq!(m.counter("retries_total"), 0);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histograms_summarize() {
        let m = Metrics::new();
        m.observe(Histogram::StepTimeS, 2.0);
        m.observe(Histogram::StepTimeS, 4.0);
        let h = m.histogram("step_time_s").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 2.0);
        assert_eq!(h.max, 4.0);
        assert_eq!(h.last, 4.0);
        assert_eq!(h.mean(), 3.0);
    }

    #[test]
    fn render_is_sorted() {
        let m = Metrics::new();
        m.set_gauge(Gauge::StagesPerActorMax, 1.0);
        m.inc(Counter::AllocFreedTotal, 1);
        let r = m.render();
        let alloc = r.find("alloc_freed_total").unwrap();
        let stages = r.find("stages_per_actor_max").unwrap();
        assert!(alloc < stages);
    }

    #[test]
    fn clones_share_state() {
        let m = Metrics::new();
        let m2 = m.clone();
        m2.inc(Counter::RebalancesTotal, 7);
        assert_eq!(m.counter("rebalances_total"), 7);
    }

    /// One fixed write sequence, rendered: a histogram over several
    /// observations, a counter incremented by 0 (present at 0), and a
    /// gauge never set (absent).
    #[test]
    fn render_golden() {
        let m = Metrics::new();
        m.observe(Histogram::StepTimeS, 0.5);
        m.inc(Counter::StepsTotal, 3);
        m.observe(Histogram::StepTimeS, 0.25);
        m.set_gauge(Gauge::AllocReuseRate, 0.5);
        m.inc(Counter::RetriesTotal, 0);
        m.set_gauge(Gauge::ActorsAlive, 4.0);
        m.observe(Histogram::StepTimeS, 1.0);
        m.inc(Counter::StepsTotal, 2);
        m.set_gauge(Gauge::AllocReuseRate, 0.125);
        m.observe(Histogram::ServeBatchTimeS, 0.002);
        assert_eq!(
            m.render(),
            "actors_alive 4.000000\n\
             alloc_reuse_rate 0.125000\n\
             retries_total 0\n\
             serve_batch_time_s count=1 mean=0.002000 min=0.002000 max=0.002000 last=0.002000\n\
             step_time_s count=3 mean=0.583333 min=0.250000 max=1.000000 last=1.000000\n\
             steps_total 5\n"
        );
        assert_eq!(m.gauge("serve_p50_us"), None);
        assert_eq!(m.counter("retries_total"), 0);
        assert!(m.snapshot().contains_key("retries_total"));
    }

    /// Concurrent increments are neither lost nor doubled.
    #[test]
    fn concurrent_increments_are_exact() {
        let m = Metrics::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        m.inc(Counter::StepsTotal, 1);
                    }
                });
            }
        });
        assert_eq!(m.counter("steps_total"), 40_000);
    }

    /// The Metrics table of `docs/observability.md` is the
    /// human-readable copy of the three catalogues: every name once,
    /// with its catalogue's type in the Type column.
    #[test]
    fn doc_metrics_table_is_the_catalogues() {
        let table = crate::catalogue::doc_table("| Metric | Type | Meaning |");
        let mut documented: Vec<(&str, &str)> = table
            .into_iter()
            .flat_map(|(names, ty)| names.into_iter().map(move |n| (n, ty)))
            .collect();
        let counters = Counter::ALL.map(|c| (c.as_str(), "counter"));
        let gauges = Gauge::ALL.map(|g| (g.as_str(), "gauge"));
        let histograms = Histogram::ALL.map(|h| (h.as_str(), "histogram"));
        let mut catalogued: Vec<(&str, &str)> = [&counters[..], &gauges, &histograms].concat();
        documented.sort_unstable();
        catalogued.sort_unstable();
        assert!(
            catalogued.windows(2).all(|w| w[0].0 != w[1].0),
            "a name in two catalogues"
        );
        assert_eq!(documented, catalogued);
    }
}
