//! Summary statistics and process readings the benchmark reports with.

use std::time::Instant;

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        let hi = v.swap_remove(n / 2);
        (v[n / 2 - 1] + hi) / 2.0
    })
}

/// First and third quartiles with Python's `statistics.quantiles(xs, n=4)`
/// ("exclusive" method), so the steadiness mode reads the same spread the
/// benchmark's consumers compute. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: i64| -> f64 {
        // statistics.quantiles(method='exclusive') with n=4, m = len + 1.
        let m = n as i64 + 1;
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Fewest samples that must lie beyond a reported tail percentile. A tail
/// with fewer samples past it is one or two outliers, not a tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Below this many samples only the median is reported: even p75 would
/// have fewer than [`TAIL_MIN_BEYOND`] samples past it.
pub const TAIL_MIN_SAMPLES: usize = 4 * TAIL_MIN_BEYOND;

/// The `pct` percentile of `xs` (nearest rank), but only when at least
/// [`TAIL_MIN_BEYOND`] samples lie beyond it and the sample holds at least
/// [`TAIL_MIN_SAMPLES`]; otherwise `None`. `pct` is in `(50, 100)`.
pub fn tail(xs: &[f64], pct: f64) -> Option<f64> {
    let n = xs.len();
    if n < TAIL_MIN_SAMPLES || pct <= 50.0 || pct >= 100.0 {
        return None;
    }
    // Nearest rank: the smallest value with at least pct% of the sample at
    // or below it.
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < TAIL_MIN_BEYOND {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not a positive finite number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set size in MiB from a `/proc/<pid>/status` text
/// (`VmHWM`, reported by the kernel in kB).
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// User + system CPU seconds from a `/proc/<pid>/stat` line. Fields 14 and
/// 15 (`utime`, `stime`) count clock ticks of every thread of the process,
/// exited ones included; `ticks_per_s` is the kernel's `USER_HZ`.
pub fn parse_cpu_s(stat: &str, ticks_per_s: f64) -> Option<f64> {
    // The command name (field 2) is parenthesised and may hold spaces.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3, so utime (14) is its 12th entry.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / ticks_per_s)
}

/// Linux's `USER_HZ`: fixed at 100 on every architecture the kernel
/// exposes to user space through `/proc/<pid>/stat`.
const USER_HZ: f64 = 100.0;

/// This process's user + system CPU seconds so far (10 ms resolution).
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_s(&s, USER_HZ))
        .unwrap_or(0.0)
}

/// Wall and CPU time of one timed section.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// (wall seconds, CPU seconds) since [`Stopwatch::start`].
    pub fn read(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_s() - self.cpu)
    }
}

/// Seeded splitmix64 stream: every input the benchmark draws comes from
/// the `--seed` argument through this generator.
pub struct SeedStream(u64);

impl SeedStream {
    pub fn new(seed: u64) -> Self {
        SeedStream(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_forty_samples_and_ten_beyond() {
        let xs: Vec<f64> = (1..=39).map(f64::from).collect();
        for pct in [75.0, 90.0, 99.0] {
            assert_eq!(tail(&xs, pct), None, "below forty samples: median only");
        }

        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        // p75 of 40 leaves exactly ten samples beyond it.
        assert_eq!(tail(&xs, 75.0), Some(30.0));
        // p90 of 40 would leave four beyond it.
        assert_eq!(tail(&xs, 90.0), None);

        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), None, "nine samples beyond p90 of 99");
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), Some(90.0));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0), Some(990.0));
        assert_eq!(tail(&xs, 99.9), None, "one sample beyond p99.9 of 1000");
        assert_eq!(tail(&xs, 50.0), None, "the median is not a tail");
    }

    #[test]
    fn geomean_of_ratios() {
        let g = geomean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn peak_rss_from_status_text() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  300000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_mb(status), Some(2.0));
        assert_eq!(parse_peak_rss_mb("Name:\tx\n"), None);
        let live = peak_rss_mb().expect("VmHWM readable for this process");
        assert!(live > 0.0);
    }

    #[test]
    fn cpu_seconds_from_stat_line() {
        // utime 250 ticks, stime 50 ticks; a command name with spaces and
        // a parenthesis must not shift the fields.
        let stat = "42 (perf bench) x) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0";
        assert_eq!(parse_cpu_s(stat, 100.0), Some(3.0));
        assert!(cpu_s() >= 0.0);
    }

    #[test]
    fn seed_stream_is_deterministic() {
        let a: Vec<u64> = {
            let mut s = SeedStream::new(7);
            (0..4).map(|_| s.next_u64()).collect()
        };
        let mut s = SeedStream::new(7);
        assert_eq!(a, (0..4).map(|_| s.next_u64()).collect::<Vec<_>>());
        let mut t = SeedStream::new(8);
        assert_ne!(a[0], t.next_u64());
    }
}
