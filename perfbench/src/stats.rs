//! Order statistics, process counters and the result line.

use std::fmt::Write as _;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `v` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentile reported as `p90`: the 90th percentile
/// (nearest-rank) when at least [`TAIL_BEYOND`] samples lie beyond it,
/// otherwise the highest percentile that still has that many beyond it.
/// Returns `(percentile, value)`, or `None` when there are too few samples
/// for any percentile to qualify.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    // Nearest rank of p90, 1-based, and the highest rank with enough
    // samples beyond it.
    let rank90 = (n * 9).div_ceil(10);
    let rank = rank90.min(n - TAIL_BEYOND);
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Process user + system CPU time so far, seconds, from `/proc/self/stat`
/// (all threads, live and exited).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, i.e. the 12th and 13th after it.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    // USER_HZ, fixed at 100 by the Linux user-space ABI.
    ticks as f64 / 100.0
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// FNV-1a over 64-bit words: the virtual-time digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// One metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result line: the last line the benchmark prints.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        // JSON has no NaN or infinity; a metric that cannot be measured is
        // a bug, not a value.
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 100 samples: the 90th nearest-rank value has exactly 10 beyond.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 90.0)));
        // 200 samples: plain p90.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90.0, 180.0)));
        // 50 samples: p90 would leave 5 beyond; drop to rank 40 (p80).
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&v), Some((80.0, 40.0)));
        // 11 samples: only the lowest value has ten beyond it.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(x, 1.0);
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        // 10 samples: nothing qualifies.
        assert_eq!(tail(&[1.0; 10]), None);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v: Vec<f64> = (1..=120).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v), Some((90.0, 108.0)));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            12,
            0,
            &[
                Metric {
                    name: "job_ms.p50".into(),
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s".into(),
                    value: 0.5,
                    unit: "s",
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"job_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn digest_depends_on_every_word_and_order() {
        let d = |ws: &[u64]| {
            let mut d = Digest::default();
            ws.iter().for_each(|&w| d.add(w));
            d.value()
        };
        assert_ne!(d(&[1, 2]), d(&[2, 1]));
        assert_ne!(d(&[1]), d(&[1, 0]));
        assert_eq!(d(&[5, 6]), d(&[5, 6]));
    }
}
