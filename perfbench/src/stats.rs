//! Summary statistics over timing samples.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median over consecutive batches of `batch` samples of each
/// batch's mean; a trailing partial batch is left out. When samples
/// fall into two clusters whose shares vary from run to run, the plain
/// median jumps from one cluster to the other, while this moves in step
/// with the shares.
#[must_use]
pub fn median_of_batch_means(samples: &[f64], batch: usize) -> f64 {
    let means: Vec<f64> = samples
        .chunks_exact(batch.max(1))
        .map(|b| b.iter().sum::<f64>() / b.len() as f64)
        .collect();
    median(&means)
}

/// `"min a ms, max b ms"` over seconds-valued `values`, for the notes
/// that show how far the samples behind a median spread.
#[must_use]
pub fn spread_note(values: &[f64]) -> String {
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    format!("min {:.3} ms, max {:.3} ms", lo * 1e3, hi * 1e3)
}

/// The tail figure reported as `p99`: the sample at the highest
/// percentile, at most the 99th, that still has at least [`TAIL_BEYOND`]
/// samples above it. Below `TAIL_BEYOND + 1` samples no percentile
/// qualifies and the maximum stands in, with `beyond` 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile rank, `100 * (index + 1) / samples`.
    pub percentile: f64,
    /// Samples strictly above it in rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples a reported tail must leave above itself.
pub const TAIL_BEYOND: usize = 10;

/// The [`Tail`] of `values`; `None` for an empty slice.
#[must_use]
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // p99 rank: the smallest index whose rank reaches 99%.
    let p99 = (n * 99).div_ceil(100) - 1;
    let index = if n > TAIL_BEYOND {
        p99.min(n - 1 - TAIL_BEYOND)
    } else {
        n - 1
    };
    Some(Tail {
        value: v[index],
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond: n - 1 - index,
        samples: n,
    })
}

/// Samples per window of [`windowed_tail`]: enough for a p99 with ten
/// samples beyond it.
pub const WINDOW: usize = 1000;

/// The median, over consecutive windows of at least [`WINDOW`] samples
/// in send order, of each window's [`tail`] value, and the window count.
/// A host stall lands in a few windows and moves the median little; with
/// fewer than `2 * WINDOW` samples there is one window.
#[must_use]
pub fn windowed_tail(in_order: &[f64]) -> Option<(f64, usize)> {
    let windows = (in_order.len() / WINDOW).max(1);
    let size = in_order.len() / windows;
    let tails: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                in_order.len()
            } else {
                (w + 1) * size
            };
            tail(&in_order[w * size..end]).map_or(0.0, |t| t.value)
        })
        .collect();
    (!in_order.is_empty()).then(|| (median(&tails), windows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_means_follow_cluster_shares() {
        // Half the samples in each cluster: the plain median can land
        // anywhere between the clusters; batch means sit between them.
        let samples = [7.0, 10.0, 7.0, 10.0, 10.0, 7.0, 10.0, 7.0, 7.0];
        assert_eq!(median_of_batch_means(&samples, 4), 8.5);
        // A 3:1 share moves it a quarter of the way, not to a cluster.
        let samples = [7.0, 7.0, 7.0, 11.0, 7.0, 11.0, 7.0, 7.0];
        assert_eq!(median_of_batch_means(&samples, 4), 8.0);
        assert_eq!(median_of_batch_means(&[1.0, 2.0], 4), 0.0, "no whole batch");
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond() {
        // 2000 samples: p99 is index 1979, with 20 beyond it.
        let v: Vec<f64> = (0..2000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 1979.0);
        assert_eq!(t.beyond, 20);
        assert!((t.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        // 1000 samples: p99 (index 989) has exactly 10 beyond.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).unwrap().beyond, 10);
        // 100 samples: p99 would leave 1 beyond, so the rule takes index 89.
        let v: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (89.0, 10, 100));
        assert!((t.percentile - 90.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_tail_shrugs_off_one_stalled_window() {
        let mut v = vec![1.0; 5000];
        // A stall: 200 slow requests inside the second window.
        for x in &mut v[1200..1400] {
            *x = 50.0;
        }
        assert_eq!(windowed_tail(&v), Some((1.0, 5)));
        assert_eq!(tail(&v).unwrap().value, 50.0);
        // Below two windows' worth it is the plain tail.
        let short: Vec<f64> = (0..1500).map(f64::from).collect();
        assert_eq!(
            windowed_tail(&short),
            Some((tail(&short).unwrap().value, 1))
        );
        assert_eq!(windowed_tail(&[]), None);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((t.value, t.beyond), (5.0, 0));
        let t = tail(&(0..11).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((t.value, t.beyond), (0.0, 10));
        assert!(tail(&[]).is_none());
    }
}
