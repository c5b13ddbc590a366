//! Summary statistics and process measurements.

/// Median (mean of the two middle values for an even count). `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// the rule the spreads in `BENCHMARK.json` are judged by. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Candidate tail percentiles in tenths of a percent, highest first.
const TAIL_TENTHS: [usize; 4] = [999, 990, 900, 750];

/// Below this many samples a latency is reported by its median alone: no
/// candidate percentile would have ten samples beyond it.
pub const MIN_TAIL_SAMPLES: usize = 40;

/// The highest of p99.9, p99, p90 and p75 that has at least ten samples
/// beyond it, as `(percentile, nearest-rank value)`; `None` under
/// [`MIN_TAIL_SAMPLES`] samples, where the median must stand alone.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    let v = sorted(values);
    TAIL_TENTHS.iter().find_map(|&tenths| {
        let rank = (n * tenths).div_ceil(1000); // nearest rank, 1-based
        (n - rank >= 10).then(|| (tenths as f64 / 10.0, v[rank - 1]))
    })
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`) in MiB.
pub fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?;
    let kib: f64 = line[field.len() + 1..].trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM").unwrap_or(f64::NAN)
}

/// Current resident set of this process, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS").unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_is_median_alone_under_forty_samples() {
        let v: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_percentile() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 40 samples: p75 is the 30th value, with 10 beyond it.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 99 samples: p90 has only 9 beyond it, so p75 is the highest.
        assert_eq!(tail(&ramp(99)), Some((75.0, 75.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        // 1000 samples support p99 but not p99.9.
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(1440)), Some((99.0, 1426.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn resident_set_is_readable() {
        let (rss, peak) = (rss_mib(), peak_rss_mib());
        assert!(rss > 0.0 && peak >= rss, "rss {rss} peak {peak}");
    }
}
