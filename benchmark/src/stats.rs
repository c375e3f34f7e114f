//! The arithmetic every reported number rests on: percentiles with a
//! sample-count floor, median-of-segments, quartile spread as Python's
//! `statistics.quantiles(values, n=4)` computes it, bound comparison in
//! both directions, and `/proc` parsing.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn token(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Sorts samples ascending; NaN (never produced by a clock) sorts last.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples, `q` in 0..=1.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The percentiles a tail metric may fall back to, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];

/// The highest percentile of the ladder that has at least ten of
/// `samples` ranked values beyond it: p99 from 1,000 samples up, lower
/// below.
pub fn tail_quantile(samples: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|q| samples as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(0.50)
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The three quartile cut points, by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses. Needs two values or more.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values.to_vec());
    let n = s.len();
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (slot, i) in cuts.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    cuts
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread the benchmark is accepted on.
pub fn spread_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Share of `base` by which `new` is *worse* (negative when better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// True when `new` is no worse than `base` by more than `bound`.
pub fn within_bound(better: Better, base: f64, new: f64, bound: f64) -> bool {
    worse_by(better, base, new) <= bound
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`: `USER_HZ`, 100 on every Linux ABI.
pub const TICKS_PER_SEC: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command come state (3) … ; utime is field 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU time (user + system, every thread) in milliseconds.
pub fn cpu_ms() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("cannot parse /proc/self/stat")?;
    Ok(ticks as f64 * 1e3 / TICKS_PER_SEC)
}

/// The 1-minute load average, 0 when `/proc/loadavg` is unreadable.
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(1000), 0.99);
        let s: Vec<f64> = (0..1024).map(f64::from).collect();
        assert_eq!(percentile(&s, tail_quantile(s.len())), 1013.0);
        // 999 samples leave only 9.99 beyond p99: fall back to p95.
        assert_eq!(tail_quantile(999), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(199), 0.90);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(20), 0.50);
        assert_eq!(tail_quantile(3), 0.50);
    }

    #[test]
    fn median_of_segments() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[10.0, 1.0, 100.0]), 10.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([2, 4, 4, 5, 9, 11, 12], n=4) == [4, 5, 11]
        assert_eq!(
            quartiles(&[2.0, 4.0, 4.0, 5.0, 9.0, 11.0, 12.0]),
            [4.0, 5.0, 11.0]
        );
        assert_eq!(spread_share(&v), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn bounds_compare_in_both_directions() {
        // Lower is better: 110 against 100 is 10 % worse, 90 is better.
        assert!((worse_by(Better::Lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Lower, 100.0, 90.0) < 0.0);
        assert!(within_bound(Better::Lower, 100.0, 108.0, 0.08));
        assert!(!within_bound(Better::Lower, 100.0, 108.1, 0.08));
        // Higher is better: 90 against 100 is 10 % worse, 110 is better.
        assert!((worse_by(Better::Higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worse_by(Better::Higher, 100.0, 110.0) < 0.0);
        assert!(within_bound(Better::Higher, 100.0, 92.0, 0.08));
        assert!(!within_bound(Better::Higher, 100.0, 91.9, 0.08));
        // An improvement of any size is within any bound.
        assert!(within_bound(Better::Lower, 100.0, 1.0, 0.0));
        assert!(within_bound(Better::Higher, 100.0, 1e9, 0.0));
    }

    #[test]
    fn cpu_ticks_parse_past_hostile_command_names() {
        let plain = "42 (bench) S 1 42 42 0 -1 4194304 500 0 0 0 123 45 0 0 20 0 3 0 100 1 2";
        assert_eq!(parse_cpu_ticks(plain), Some(168));
        let hostile = "42 (a b) c) (d) R 1 42 42 0 -1 4194304 500 0 0 0 7 8 0 0 20 0 3 0 100";
        assert_eq!(parse_cpu_ticks(hostile), Some(15));
        assert_eq!(parse_cpu_ticks("42 (short) S 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        if cfg!(target_os = "linux") {
            assert!(cpu_ms().is_ok());
        }
    }
}
