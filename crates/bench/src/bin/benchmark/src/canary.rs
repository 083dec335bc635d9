//! Host canary: a stamp on every run, not a metric. The same binary
//! has moved 0.65 → 0.78 s/step within a quarter of an hour on the
//! shared VM this was sized on while back-to-back runs agreed within
//! 2 %, so each report says what the host was doing around it.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Json;

/// Work the benchmark owns and never changes: a dependent integer
/// chain (scalar core speed) and one 64 MiB copy (memory bandwidth).
pub fn host_calib_s() -> f64 {
    const CHAIN: u64 = 40_000_000;
    const COPY_BYTES: usize = 64 << 20;
    let src = vec![1u8; COPY_BYTES];
    let mut dst = vec![0u8; COPY_BYTES];
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CHAIN {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    dst.copy_from_slice(black_box(&src));
    black_box(&dst);
    t0.elapsed().as_secs_f64()
}

/// Cumulative `(steal, total)` jiffies from the first line of
/// `/proc/stat`; `None` where that file does not exist.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Taken before a workload; [`Canary::finish`] after it.
pub struct Canary {
    calib_before_s: f64,
    jiffies: Option<(u64, u64)>,
}

impl Canary {
    pub fn start() -> Canary {
        Canary {
            calib_before_s: host_calib_s(),
            jiffies: cpu_jiffies(),
        }
    }

    pub fn finish(self) -> Json {
        let steal_share = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                Json::Num((s1 - s0) as f64 / (t1 - t0) as f64)
            }
            _ => Json::Null,
        };
        Json::obj(vec![
            ("available_cores", Json::Num(available_cores() as f64)),
            ("host_calib_before_s", Json::Num(self.calib_before_s)),
            ("host_calib_after_s", Json::Num(host_calib_s())),
            ("steal_share", steal_share),
        ])
    }
}
