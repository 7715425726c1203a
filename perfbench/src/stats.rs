//! Summary statistics of latency samples.

/// Median of a sample (mean of the two middle values for an even count);
/// `NaN` for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank `p`-th percentile (`0 < p <= 100`) of a sample; `NaN` for
/// an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(f64::NAN)
}

/// The shape of a sample, as context JSON: extremes, low and high
/// percentiles, the median and the mean.
pub fn shape_json(samples: &[f64]) -> String {
    let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
    format!(
        "{{\"min\": {}, \"p10\": {}, \"p50\": {}, \"p90\": {}, \"max\": {}, \"mean\": {mean}, \"samples\": {}}}",
        percentile(samples, 0.0),
        percentile(samples, 10.0),
        percentile(samples, 50.0),
        percentile(samples, 90.0),
        percentile(samples, 100.0),
        samples.len(),
    )
}

/// The tail of a latency sample: the highest nearest-rank percentile that
/// still has at least [`Tail::MIN_BEYOND`] samples above it.
///
/// A sample of at least two [`Tail::WINDOW`]s is cut, in time order, into
/// consecutive windows of at least that many samples; the tail is then the
/// median of the windows' tails. On a shared host a single stall (a
/// preempted vCPU, a slow `fsync`) delays a burst of requests; without
/// windows, whether ten of them land in one run decides the figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at that percentile (median over windows).
    pub value: f64,
    /// The percentile, in percent.
    pub percentile: f64,
    /// Samples behind each window's estimate.
    pub samples: usize,
    /// Windows the median is taken over.
    pub windows: usize,
}

impl Tail {
    /// Samples that must lie beyond the reported percentile.
    pub const MIN_BEYOND: usize = 10;
    /// Smallest window.
    pub const WINDOW: usize = 400;

    /// The tail of `samples`, given in the order they were taken; `None`
    /// when there are none.
    pub fn of(samples: &[f64]) -> Option<Tail> {
        let windows = (samples.len() / Self::WINDOW).max(1);
        let size = samples.len() / windows;
        let tails: Vec<Tail> = samples
            .chunks(size.max(1))
            .take(windows)
            .filter_map(Self::of_window)
            .collect();
        let first = *tails.first()?;
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        Some(Tail {
            value: median(&values),
            windows: tails.len(),
            ..first
        })
    }

    /// With [`Tail::MIN_BEYOND`] samples or fewer, the maximum (p100).
    fn of_window(samples: &[f64]) -> Option<Tail> {
        let sorted = sorted(samples);
        let n = sorted.len();
        if n == 0 {
            return None;
        }
        let rank = if n > Self::MIN_BEYOND {
            n - Self::MIN_BEYOND
        } else {
            n
        };
        Some(Tail {
            value: sorted[rank - 1],
            percentile: 100.0 * rank as f64 / n as f64,
            samples: n,
            windows: 1,
        })
    }

    /// `{"value": …, "percentile": …, "samples": …, "windows": …}`, the
    /// context printed beside the metric.
    pub fn json(&self) -> String {
        format!(
            "{{\"value\": {}, \"percentile\": {:.3}, \"samples\": {}, \"windows\": {}}}",
            self.value, self.percentile, self.samples, self.windows
        )
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 90.0), 18.0);
        assert_eq!(percentile(&samples, 50.0), 10.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 90.0).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=50).map(f64::from).collect();
        let tail = Tail::of(&samples).unwrap();
        assert_eq!(tail.value, 40.0);
        assert_eq!(tail.percentile, 80.0);
        assert_eq!(tail.samples, 50);
        assert_eq!(samples.iter().filter(|&&s| s > tail.value).count(), 10);
        assert_eq!(Tail::of(&samples[..11]).unwrap().value, 1.0);
        let short = Tail::of(&samples[..10]).unwrap();
        assert_eq!((short.value, short.percentile), (10.0, 100.0));
        assert!(Tail::of(&[]).is_none());
    }

    #[test]
    fn long_samples_take_the_median_of_window_tails() {
        // Three windows; the second starts with a stall of 50 slow samples.
        let w = Tail::WINDOW;
        let mut samples = vec![1.0; 3 * w];
        for s in &mut samples[w..w + 50] {
            *s = 100.0;
        }
        let tail = Tail::of(&samples).unwrap();
        assert_eq!(tail.windows, 3);
        assert_eq!(tail.samples, w);
        assert_eq!(tail.percentile, 100.0 * (w - 10) as f64 / w as f64);
        assert_eq!(tail.value, 1.0);
        // Below two windows' worth, one window covers everything.
        assert_eq!(Tail::of(&samples[..2 * w - 1]).unwrap().windows, 1);
    }
}
