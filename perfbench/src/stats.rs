//! Order statistics and failure arithmetic for the benchmark's reports.

/// Percentiles the summaries consider, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile must leave above it before it is reported as a
/// tail: a tail resting on fewer points is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct`% of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// [`percentile`] of unsorted samples.
pub fn percentile_of(samples: &[f64], pct: f64) -> Option<f64> {
    percentile(&sorted(samples), pct)
}

/// The sum over columns of each column's smallest value, for `rows` of
/// equal length (one row per repetition of the same parts). `None` when
/// there are no rows or their lengths differ.
pub fn fastest_parts(rows: &[Vec<f64>]) -> Option<f64> {
    let width = rows.first()?.len();
    if rows.iter().any(|row| row.len() != width) {
        return None;
    }
    Some(
        (0..width)
            .map(|part| {
                rows.iter()
                    .map(|row| row[part])
                    .min_by(f64::total_cmp)
                    .expect("at least one row")
            })
            .sum(),
    )
}

/// The median of unsorted samples (nearest rank), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile_of(samples, 50.0)
}

/// 1-based nearest rank of `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    // The epsilon keeps binary rounding of `pct` (99.9 is inexact) from
    // pushing an exact rank up by one.
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the `pct` percentile's rank.
pub fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A timing distribution as the benchmark reports it: the median, and the
/// highest percentile with at least [`MIN_BEYOND`] samples beyond it, with
/// the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// `(percentile, value)` of the highest supported tail, or `None` when
    /// even the median leaves fewer than [`MIN_BEYOND`] samples above it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let sorted = sorted(samples);
        let p50 = percentile(&sorted, 50.0)?;
        let tail = LADDER
            .iter()
            .rev()
            .find(|&&pct| beyond(sorted.len(), pct) >= MIN_BEYOND)
            .map(|&pct| (pct, percentile(&sorted, pct).expect("non-empty")));
        Some(Summary {
            n: sorted.len(),
            p50,
            tail,
        })
    }

    /// One human-readable line: `p50 X, p99 Y (n=N)`.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail {
            Some((pct, value)) if pct > 50.0 => format!(
                "p50 {:.4} {unit}, p{pct} {value:.4} {unit} (n={})",
                self.p50, self.n
            ),
            Some(_) => format!(
                "p50 {:.4} {unit} (n={}, no higher percentile has {MIN_BEYOND} samples beyond it)",
                self.p50, self.n
            ),
            None => format!(
                "p50 {:.4} {unit} (n={}, too few samples for a tail)",
                self.p50, self.n
            ),
        }
    }
}

/// Everything counted as a failed trial: abnormal terminations
/// (`Termination::is_abnormal`), plus a campaign's trial failures,
/// quarantines, soundness bugs and job errors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// Trials that ended abnormally (step/heap budget, deadline, engine
    /// error) but were still absorbed into a report.
    pub abnormal_trials: u64,
    /// Campaign trial attempts recorded as failures (each retried or
    /// quarantined).
    pub trial_failures: u64,
    /// Pairs pulled from rotation.
    pub quarantines: u64,
    /// Confirmed races the static filter claimed impossible.
    pub soundness_bugs: u64,
    /// Jobs abandoned with an error.
    pub job_errors: u64,
}

impl Failures {
    /// Total failure count.
    pub fn total(&self) -> u64 {
        self.abnormal_trials
            + self.trial_failures
            + self.quarantines
            + self.soundness_bugs
            + self.job_errors
    }

    /// `failed_trial_share`: failures over trials attempted (0 when nothing
    /// was attempted).
    pub fn share(&self, attempted: u64) -> f64 {
        if attempted == 0 {
            0.0
        } else {
            self.total() as f64 / attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled so the summary has to sort.
        let mut samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        samples.reverse();
        samples.swap(0, n / 2);
        samples
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(5.0));
        assert_eq!(percentile(&sorted, 90.0), Some(9.0));
        assert_eq!(percentile(&sorted, 99.0), Some(10.0));
        assert_eq!(percentile(&sorted, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(percentile_of(&[4.0, 1.0, 3.0, 2.0], 100.0), Some(4.0));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 above it, p99 only 1.
        let summary = Summary::of(&ramp(100)).expect("samples");
        assert_eq!(summary.n, 100);
        assert_eq!(summary.p50, 50.0);
        assert_eq!(summary.tail, Some((90.0, 90.0)));

        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let summary = Summary::of(&ramp(1000)).expect("samples");
        assert_eq!(summary.tail, Some((99.0, 990.0)));

        // 99 samples fall one short of p90; the median is the tail.
        let summary = Summary::of(&ramp(99)).expect("samples");
        assert_eq!(summary.tail, Some((50.0, 50.0)));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        let summary = Summary::of(&ramp(19)).expect("samples");
        assert_eq!(summary.n, 19);
        assert_eq!(summary.p50, 10.0);
        assert_eq!(summary.tail, None);
        assert!(summary.describe("ms").contains("too few samples"));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn fastest_parts_sums_each_parts_minimum() {
        let rows = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.5],
            vec![2.5, 1.5, 4.0],
        ];
        assert_eq!(fastest_parts(&rows), Some(2.0 + 1.0 + 4.0));
        assert_eq!(fastest_parts(&[vec![0.25]]), Some(0.25));
        assert_eq!(fastest_parts(&[]), None);
        assert_eq!(fastest_parts(&[vec![1.0, 2.0], vec![1.0]]), None);
    }

    #[test]
    fn failed_trial_share_adds_every_failure_kind() {
        let failures = Failures {
            abnormal_trials: 3,
            trial_failures: 4,
            quarantines: 1,
            soundness_bugs: 1,
            job_errors: 1,
        };
        assert_eq!(failures.total(), 10);
        assert_eq!(failures.share(200), 0.05);
        assert_eq!(Failures::default().share(17_700), 0.0);
        assert_eq!(failures.share(0), 0.0);
    }
}
