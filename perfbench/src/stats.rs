//! Order statistics and the metric-name grammar shared by every workload.

/// A tail needs at least this many samples above it to count as measured.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of the middle half of `xs` (the lowest
/// and highest `len / 4` values dropped). Robust to a few outlying inputs
/// like the median, but smooth where values cluster. `NaN` for an empty
/// slice.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A tail latency: the nearest-rank value at `percentile`, with the number
/// of samples ranked above it and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Whole percentile, 1–100.
    pub percentile: u32,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples ranked above `value`.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest whole percentile that still has at least [`MIN_BEYOND`]
/// samples ranked above it (nearest-rank definition). With too few
/// samples for any such percentile, falls back to the maximum
/// (`percentile` 100, `beyond` 0) so the caller can report — and flag —
/// an unmeasured tail. `None` only for an empty slice.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let s = sorted(xs);
    let last = *s.last()?;
    for p in (1..100u32).rev() {
        let rank = (p as usize * n).div_ceil(100).max(1);
        let beyond = n - rank;
        if beyond >= MIN_BEYOND {
            return Some(Tail {
                percentile: p,
                value: s[rank - 1],
                beyond,
                samples: n,
            });
        }
    }
    Some(Tail {
        percentile: 100,
        value: last,
        beyond: 0,
        samples: n,
    })
}

/// The metric-name grammar: non-empty, at most 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]),
            3.5
        );
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(interquartile_mean(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90, 90.0, 10, 100)
        );

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));
    }

    #[test]
    fn tail_of_few_samples_uses_a_low_percentile() {
        // 24 samples: p58 is rank 14 with 10 above; p59 is rank 15 with 9.
        let xs: Vec<f64> = (1..=24).rev().map(f64::from).collect();
        let t = tail(&xs).expect("non-empty");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (58, 14.0, 10, 24)
        );
        assert!(t.beyond >= MIN_BEYOND);
    }

    #[test]
    fn tail_without_enough_samples_falls_back_to_max() {
        let t = tail(&[5.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (100, 5.0, 0, 3)
        );
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "run_s",
            "store.read_mb_per_s",
            "tick_ms_p50",
            "a-b.c_1",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".dot",
            "has space",
            "cost$",
            "ümlaut",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
