//! The benchmark's arithmetic: percentiles, run-to-run spread, the
//! regression bound, the rate ladder and the queue-growth test. Kept
//! apart from the workloads so that every rule a later comparison
//! rests on has a unit test.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile: the smallest sample with at least `p`
/// percent of the samples at or below it. 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median as `statistics.median` computes it (mean of the two
/// middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median over `windows` consecutive, equally long runs of `values` of
/// `f(run)`. A host stall lands in one window or two and leaves the
/// median alone, where it would drag a percentile or a rate taken over
/// the whole phase; two such runs in ten are enough to blow up the
/// quartile spread a benchmark is accepted on.
pub fn windowed(values: &[f64], windows: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
    let windows = windows.clamp(1, values.len().max(1));
    let per_window: Vec<f64> = (0..windows)
        .map(|i| {
            let (lo, hi) = (i * values.len() / windows, (i + 1) * values.len() / windows);
            f(&values[lo..hi])
        })
        .collect();
    median(&per_window)
}

/// How many samples lie strictly beyond the `p`-th nearest-rank
/// percentile — the guide asks for at least ten.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method), so the spread printed here is the one the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// Run-to-run spread of one metric: the distance between the first and
/// third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// The share of `parent` by which `change` is worse (negative when it
/// is better).
pub fn worsening(parent: f64, change: f64, better: Better) -> f64 {
    if parent == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (change - parent) / parent.abs(),
        Better::Higher => (parent - change) / parent.abs(),
    }
}

/// The bound a metric gets from its observed `(max - min) / median`
/// over repeated whole runs: twice the observation, at least 0.10, at
/// most the 0.25 a `BENCHMARK.json` may state.
pub fn bound_from_range(observed_range: f64) -> f64 {
    (2.0 * observed_range).clamp(0.10, 0.25)
}

/// What `compare` says about one (workload, metric) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is no worse than the parent's by more than
    /// the bound.
    Within,
    /// It is worse by more than the bound.
    Worse,
    /// One side's own spread is wider than the bound, so neither of
    /// the above can be said.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one row from both sides' samples.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if spread(parent) > bound || spread(change) > bound {
        Verdict::Unresolved
    } else if worsening(median(parent), median(change), better) > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// One rung of the serving rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate: f64,
    /// p95 latency from due time, seconds.
    pub p95_s: f64,
    /// Requests refused, errored, answered wrongly or left unanswered.
    pub failed: u64,
    /// Whether the queue kept growing over the rung's second half (or
    /// the rung was cut short because it overflowed).
    pub backlog_grew: bool,
}

/// The latency limit of the ladder: p95 from due time.
pub const LATENCY_LIMIT_S: f64 = 0.010;

impl Rung {
    pub fn passes(&self) -> bool {
        self.failed == 0 && !self.backlog_grew && self.p95_s <= LATENCY_LIMIT_S
    }
}

/// The highest rate that meets the limit with every lower rung meeting
/// it too (the ladder stops at the first failing rung); 0 when the
/// lowest rung fails.
pub fn max_rate(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passes())
        .last()
        .map_or(0.0, |r| r.rate)
}

/// Whether a queue kept growing over the second half of a phase:
/// `depths` are the depths seen at each submit of that half, in order;
/// growth means the last quarter's mean depth exceeds the third
/// quarter's by more than `slack` requests.
pub fn backlog_grew(depths: &[usize], slack: f64) -> bool {
    if depths.len() < 4 {
        return false;
    }
    let (a, b) = depths.split_at(depths.len() / 2);
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(b) > mean(a) + slack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn windowed_median_ignores_a_stall() {
        // 100 requests at 3 ms; a stall delays seven in a row by 2 s.
        let mut v = vec![0.003; 100];
        v[40..47].fill(2.0);
        assert_eq!(percentile(&v, 95.0), 2.0);
        assert_eq!(windowed(&v, 5, |w| percentile(w, 95.0)), 0.003);
        // Windows cover every sample once, also when they do not divide.
        let count = std::cell::Cell::new(0);
        windowed(&v[..97], 8, |w| {
            count.set(count.get() + w.len());
            0.0
        });
        assert_eq!(count.get(), 97);
        assert_eq!(windowed(&[], 5, |w| w.len() as f64), 0.0);
        assert_eq!(windowed(&[1.0, 2.0], 5, |w| w[0]), 1.5);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(100, 95.0), 5);
        assert_eq!(samples_beyond(3000, 95.0), 150);
        assert_eq!(samples_beyond(0, 90.0), 0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        assert!((spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, Better::Lower), 0.0);
    }

    #[test]
    fn bound_is_clamped_twice_the_range() {
        assert_eq!(bound_from_range(0.01), 0.10);
        assert!((bound_from_range(0.07) - 0.14).abs() < 1e-12);
        assert_eq!(bound_from_range(0.4), 0.25);
    }

    #[test]
    fn verdict_distinguishes_the_three_cases() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
        let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
        let noisy = [0.7, 1.0, 1.4, 0.8, 1.3];
        assert_eq!(
            verdict(&steady, &steady, Better::Lower, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady, &slower, Better::Lower, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&slower, &steady, Better::Lower, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady, &slower, Better::Higher, 0.1),
            Verdict::Within
        );
        assert_eq!(
            verdict(&steady, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let ok = |rate| Rung {
            rate,
            p95_s: 0.004,
            failed: 0,
            backlog_grew: false,
        };
        let late = Rung {
            p95_s: 0.011,
            ..ok(2000.0)
        };
        assert_eq!(max_rate(&[ok(500.0), ok(1000.0), late]), 1000.0);
        // A rung that passes above a failing one does not count.
        assert_eq!(max_rate(&[ok(500.0), late, ok(4000.0)]), 500.0);
        let refused = Rung {
            failed: 1,
            ..ok(500.0)
        };
        assert_eq!(max_rate(&[refused, ok(1000.0)]), 0.0);
        let backlog = Rung {
            backlog_grew: true,
            ..ok(1000.0)
        };
        assert_eq!(max_rate(&[ok(500.0), backlog]), 500.0);
        assert_eq!(max_rate(&[]), 0.0);
    }

    #[test]
    fn backlog_growth_compares_the_last_two_quarters() {
        let flat = vec![3usize; 100];
        assert!(!backlog_grew(&flat, 8.0));
        let ramp: Vec<usize> = (0..100).collect();
        assert!(backlog_grew(&ramp, 8.0));
        let wobble: Vec<usize> = (0..100).map(|i| 2 + i % 5).collect();
        assert!(!backlog_grew(&wobble, 8.0));
        assert!(!backlog_grew(&[1, 2], 8.0));
    }
}
