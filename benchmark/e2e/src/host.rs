//! Facts about the machine a result was taken on. Two results are only
//! comparable when these agree, so they are recorded with every result.

use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct HostFacts {
    pub nproc: usize,
    /// Size of the largest cache `cpu0` reports, 0 when sysfs has none.
    pub llc_bytes: u64,
    /// STREAM-triad rate at [`TRIAD_BYTES`].
    pub triad_gbs: f64,
    /// Share of a one-second spin during which the thread was not running.
    pub jitter_pct: f64,
}

/// Footprint of the host-fact triad: three arrays of 16 MiB. Below this
/// box's last-level cache (260 MiB), so it is a cache rate and is compared
/// only with itself across results, never called a DRAM bandwidth.
pub const TRIAD_BYTES: usize = 3 * (16 << 20);

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn llc_bytes() -> u64 {
    let mut best = 0;
    for index in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let t = text.trim();
        let (digits, unit) = t.split_at(t.trim_end_matches(char::is_alphabetic).len());
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        best = best.max(digits.parse::<u64>().unwrap_or(0) * scale);
    }
    best
}

/// Best `a[i] = b[i] + s·c[i]` rate over a few passes, in GB/s, counting the
/// three arrays once each (24 bytes per element), with a total footprint of
/// about `bytes`.
pub fn triad_gbs(bytes: usize) -> f64 {
    let n = (bytes / 24).max(1024);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    let started = Instant::now();
    let mut passes = 0;
    while passes < 5 || (started.elapsed() < Duration::from_millis(200) && passes < 2000) {
        let s = black_box(3.0);
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
        passes += 1;
    }
    (n * 24) as f64 / best / 1e9
}

/// Spins for `window`, reading the clock back to back. A gap far above the
/// usual gap means the thread was descheduled; the total of such gaps as a
/// share of the window is how much a measurement here can be disturbed.
pub fn jitter_pct(window: Duration) -> f64 {
    // The usual gap: median of a short burst.
    let mut burst: Vec<u64> = Vec::with_capacity(10_000);
    let mut last = Instant::now();
    for _ in 0..10_000 {
        let now = Instant::now();
        burst.push((now - last).as_nanos() as u64);
        last = now;
    }
    burst.sort_unstable();
    let threshold = Duration::from_nanos((burst[burst.len() / 2] * 20).max(2_000));
    let t0 = Instant::now();
    let mut last = t0;
    let mut stolen = Duration::ZERO;
    loop {
        let now = Instant::now();
        if now - last > threshold {
            stolen += now - last;
        }
        last = now;
        if now - t0 >= window {
            break;
        }
    }
    100.0 * stolen.as_secs_f64() / (last - t0).as_secs_f64()
}

/// The host-speed probe: a fixed amount of benchmark-owned, memory-bound
/// work (CSR products with a five-point Laplacian), run on every core at
/// once while no request is in flight.
///
/// Why it exists: this benchmark was defined on a two-vCPU guest whose
/// physical cores are shared with other tenants. Their load slows
/// throughput-bound code here by up to 1.6x for tens of seconds at a time
/// (a dependent-multiply loop is unaffected, a cache-resident stream loses
/// 40 %), so the raw median latency of identical 20-second runs moves by
/// ±15 % and more. The probe sees the same slowdown. Each timed request is
/// divided by the slowdown the probes around it measured, which removes
/// most of what the neighbours add and none of what the program costs.
pub struct SpeedProbe {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    vals: Vec<f64>,
    x: Vec<f64>,
}

/// Seconds one [`SpeedProbe::sample`] takes on the defining host when
/// nothing else runs on its cores: the lower quartile of the run medians
/// seen over several hours (single samples go down to 0.82 ms). A request
/// measured while the probe takes this long is reported as measured. Only
/// the scale of the reported times depends on it; `run.sh probe` samples
/// the probe alone to re-derive it elsewhere.
pub const PROBE_NOMINAL_S: f64 = 0.9e-3;

const PROBE_GRID: usize = 192;
const PROBE_REPS: usize = 4;

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe::new()
    }
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        let g = PROBE_GRID;
        let (mut row_ptr, mut col_idx, mut vals) = (vec![0], Vec::new(), Vec::new());
        for i in 0..g {
            for j in 0..g {
                let me = i * g + j;
                let mut push = |c: usize, v: f64| {
                    col_idx.push(c);
                    vals.push(v);
                };
                if i > 0 {
                    push(me - g, -1.0);
                }
                if j > 0 {
                    push(me - 1, -1.0);
                }
                push(me, 4.0);
                if j + 1 < g {
                    push(me + 1, -1.0);
                }
                if i + 1 < g {
                    push(me + g, -1.0);
                }
                row_ptr.push(col_idx.len());
            }
        }
        SpeedProbe {
            row_ptr,
            col_idx,
            vals,
            x: vec![1.0; g * g],
        }
    }

    fn work(&self) -> f64 {
        let mut y = vec![0.0; self.x.len()];
        let t0 = Instant::now();
        for _ in 0..PROBE_REPS {
            for (i, yi) in y.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                    acc += self.vals[k] * self.x[self.col_idx[k]];
                }
                *yi = acc;
            }
            black_box(&mut y);
        }
        t0.elapsed().as_secs_f64()
    }

    /// One probe: the same work on every core at once; the mean of the
    /// threads' own times, in seconds.
    pub fn sample(&self) -> f64 {
        let threads = nproc();
        let total: f64 = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(|| self.work())).collect();
            let mine = self.work();
            mine + others
                .into_iter()
                .map(|h| h.join().expect("probe thread"))
                .sum::<f64>()
        });
        total / threads as f64
    }
}

pub fn facts() -> HostFacts {
    HostFacts {
        nproc: nproc(),
        llc_bytes: llc_bytes(),
        triad_gbs: triad_gbs(TRIAD_BYTES),
        jitter_pct: jitter_pct(Duration::from_secs(1)),
    }
}
