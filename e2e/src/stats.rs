//! Order statistics over a handful of wall-clock samples.

/// Median, extremes and count of a sample set — what every timing in
/// the ledger is reported as.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarise `samples`. The median of an even count is the mean of the
/// two middle values. Panics on an empty set: every caller times at
/// least one rep.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "summarize needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    Summary {
        median,
        min: s[0],
        max: s[n - 1],
        n,
    }
}

/// Median alone.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method)
/// — the spread the benchmark's acceptance check uses. Fewer than two
/// samples have no spread.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(&s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((iqr_share(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[3.0]), 0.0);
    }

    #[test]
    fn odd_and_even_medians() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
    }

    #[test]
    fn single_sample_is_its_own_summary() {
        let s = summarize(&[7.5]);
        assert_eq!((s.median, s.min, s.max, s.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn unsorted_input_with_duplicates() {
        assert_eq!(median(&[5.0, 5.0, 1.0, 9.0, 5.0]), 5.0);
    }
}
