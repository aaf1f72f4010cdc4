//! Order statistics over samples.

use std::time::Duration;

/// Median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Seconds of each duration.
pub fn secs(durations: &[Duration]) -> Vec<f64> {
    durations.iter().map(Duration::as_secs_f64).collect()
}

/// The tail latency: the highest whole percentile with at least ten
/// samples beyond it, never below the median. Returns the nearest-rank
/// value, the percentile and how many samples lie beyond it.
pub fn tail(samples: &[f64]) -> (f64, usize, usize) {
    let n = samples.len();
    if n == 0 {
        return (0.0, 50, 0);
    }
    let pct = (100 * n.saturating_sub(10) / n).max(50);
    let rank = (pct * n).div_ceil(100).max(1);
    (sorted(samples)[rank - 1], pct, n - rank)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=155).map(f64::from).collect();
        let (value, pct, beyond) = tail(&xs);
        assert_eq!((pct, beyond), (93, 10));
        assert_eq!(value, 145.0);
        let few: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(tail(&few), (12.0, 54, 10));
        assert_eq!(tail(&few[..11]).1, 50);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
