//! Sample statistics: medians, the quartile spread the benchmark driver
//! gates on, the "ten samples beyond" percentile rule, and a bootstrap
//! interval of the median for the printed report.

use rand::SeedableRng;

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (mean of the middle two for an even count); 0 for an
/// empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (the exclusive method) gives them — the rule the benchmark driver
/// applies to ten runs. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the driver
/// holds against a metric's bound. 0 when it cannot be computed.
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    match quartiles(xs) {
        Some((q1, q3)) if m != 0.0 => ((q3 - q1) / m).abs(),
        _ => 0.0,
    }
}

/// The percentiles a latency report may name, lowest first, each with the
/// share of a sample beyond it in parts per thousand.
const PERCENTILES: [(f64, usize); 5] =
    [(50.0, 500), (75.0, 250), (90.0, 100), (99.0, 10), (99.9, 1)];

/// The highest percentile of [`PERCENTILES`] that still has at least ten
/// of `n` samples beyond it, or `None` when not even the median does. p99
/// needs 1000 samples, p90 100, p75 40, p50 20.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .find(|(_, beyond_per_mille)| n * beyond_per_mille >= 10 * 1000)
        .map(|(p, _)| *p)
}

/// The tail of a response-time sample: its [`highest_supported_percentile`],
/// or its median when the sample supports none. Returns the percentile
/// with the value.
pub fn supported_tail(xs: &[f64]) -> (f64, f64) {
    let p = highest_supported_percentile(xs.len()).unwrap_or(50.0);
    (p, percentile(xs, p))
}

/// Nearest-rank percentile `p` (0–100) of `xs`; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One timing as the report prints it: sample count, median, quartiles
/// and a 95 % bootstrap interval of the median.
pub fn describe(xs: &[f64]) -> String {
    if xs.is_empty() {
        return "n=0".to_string();
    }
    let (q1, q3) = quartiles(xs).unwrap_or((xs[0], xs[0]));
    // Fixed seed: the interval is a function of the sample alone.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    let ci = hpc_stats::bootstrap::bootstrap_ci(xs, 400, 0.95, &mut rng, median)
        .map(|ci| format!("{:.6}..{:.6}", ci.lo, ci.hi))
        .unwrap_or_else(|e| format!("unavailable ({e})"));
    format!(
        "n={} median={:.6} q1={q1:.6} q3={q3:.6} spread={:.2}% ci95(median)={ci}",
        xs.len(),
        median(xs),
        100.0 * spread(xs)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(99), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn the_tail_is_the_highest_percentile_the_sample_supports() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_tail(&xs), (99.0, 990.0));
        assert_eq!(supported_tail(&xs[..40]), (75.0, 30.0));
        assert_eq!(supported_tail(&xs[..9]), (50.0, 5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn describe_states_the_sample_count() {
        let text = describe(&[1.0, 2.0, 3.0, 4.0]);
        assert!(text.starts_with("n=4 median=2.5"), "{text}");
        assert!(text.contains("ci95(median)="), "{text}");
    }
}
