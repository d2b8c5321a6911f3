//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// One latency sample: when it started (s since timing began) and how
/// long it took (ms).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub ms: f64,
}

/// Split `[0, span_s)` into `windows` equal windows, apply `f` to each
/// window's latencies and return the median over windows. A burst of
/// load from outside the benchmark then moves one window, not the result.
pub fn windowed(
    samples: &[Sample],
    windows: usize,
    span_s: f64,
    f: impl Fn(&[f64]) -> Option<f64>,
) -> Option<f64> {
    let mut buckets = vec![Vec::new(); windows];
    for s in samples {
        let w = ((s.at_s / span_s * windows as f64) as usize).min(windows - 1);
        buckets[w].push(s.ms);
    }
    let per: Vec<f64> = buckets.iter().filter_map(|b| f(b)).collect();
    median(&per)
}

/// `num / den`, `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&xs), Some(2.5));
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn windowed_median_ignores_one_slow_window() {
        let samples: Vec<Sample> = (0..30)
            .map(|i| Sample {
                at_s: i as f64 / 10.0,
                ms: if i < 10 { 100.0 } else { 1.0 + (i % 10) as f64 },
            })
            .collect();
        let got = windowed(&samples, 3, 3.0, median);
        assert_eq!(got, Some(5.5));
        let counts = windowed(&samples, 3, 3.0, |xs| Some(xs.len() as f64));
        assert_eq!(counts, Some(10.0));
    }
}
