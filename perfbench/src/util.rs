//! Seeded inputs, timing statistics and the metric report.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the benchmark's only source of randomness, so the same
/// `--seed` always generates the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds since `start`.
pub fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, or 0 when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `times` times, keeping the last result, and returns it
/// with the median set-up time in seconds. Each earlier result goes to
/// `teardown` before the next set-up starts.
pub fn repeated_setup<T>(
    times: usize,
    mut setup: impl FnMut() -> T,
    teardown: impl Fn(T),
) -> (T, f64) {
    let mut durations = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let start = Instant::now();
        kept = Some(setup());
        durations.push(secs(start));
    }
    (kept.expect("times > 0"), median(&durations))
}

/// Operation outcomes: attempted and loudly failed operations. Silent
/// corruption never gets here — it aborts the run (see [`silent`]).
#[derive(Default, Debug, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Aborts the run: the program delivered wrong bytes without reporting
/// damage. The benchmark prints no result, so the run cannot be scored.
pub fn silent(what: &str) -> ! {
    eprintln!("perfbench: SILENT CORRUPTION: {what}");
    std::process::exit(3);
}

/// Aborts the run on a benchmark-side invariant failure (fidelity or
/// attribution check, unexpected error).
pub fn fail(what: &str) -> ! {
    eprintln!("perfbench: check failed: {what}");
    std::process::exit(2);
}

/// Flips one byte of `bytes` when the run was asked to inject a wrong
/// byte: the self-test's proof that the correctness gate trips.
pub fn maybe_inject(bytes: &mut [u8], inject: bool) {
    if inject {
        if let Some(b) = bytes.first_mut() {
            *b ^= 0x01;
        }
    }
}

/// Named metrics with their units.
#[derive(Default)]
pub struct Metrics {
    pub values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.values.insert(name, (value, unit));
    }
}
