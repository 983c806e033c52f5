//! The benchmark's own arithmetic: order statistics over timing samples
//! and the semantic pair-slot count of an engine report.

use rdv_sim::MeetingReport;

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every metric is computed from at least one
/// sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartiles of `xs` by the exclusive method, the default of
/// Python's `statistics.quantiles(xs, n=4)`, so spreads computed here and
/// by a script over the printed results agree. A single sample is its own
/// quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return [s[0]; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (q, slot) in out.iter_mut().enumerate() {
        let i = q + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    assert!(!s.is_empty(), "percentile of no samples");
    s[rank(p, s.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples; the
/// small slack keeps `90 × 100 / 100` from rounding up to 91.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of the reported percentiles that still has at least ten
/// samples above it, with its value — `None` when there are fewer than
/// twenty samples, so no tail figure rests on a handful of calls.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| xs.len() >= 20 && xs.len() - rank(p, xs.len()) >= 10)
        .map(|p| (p, percentile(xs, p)))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Semantic pair-slots of a run: for each overlapping pair, the slots
/// from the later wake to its first meeting inclusive, or to the horizon
/// when it never met. The same accounting as `bench_report`'s
/// `pair_slots`, so throughputs are comparable with the `BENCH_*` files.
pub fn pair_slots(
    wakes: &[u64],
    horizon: u64,
    met: impl IntoIterator<Item = ((usize, usize), u64)>,
    missed: impl IntoIterator<Item = (usize, usize)>,
) -> u64 {
    let start = |i: usize, j: usize| wakes[i].max(wakes[j]).min(horizon);
    let met: u64 = met.into_iter().map(|((i, j), t)| t - start(i, j) + 1).sum();
    let missed: u64 = missed.into_iter().map(|(i, j)| horizon - start(i, j)).sum();
    met + missed
}

/// [`pair_slots`] of an engine report over agents woken at `wakes`.
pub fn report_pair_slots(wakes: &[u64], report: &MeetingReport) -> u64 {
    pair_slots(
        wakes,
        report.horizon,
        report.first_meeting.iter(),
        report.missed_pairs(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail_percentile(&few), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn pair_slots_on_a_hand_built_report() {
        // Agents wake at 0, 5 and 20; horizon 100.
        let wakes = [0, 5, 20];
        // (0,1) meets at slot 9: slots 5..=9 from the later wake → 5.
        // (1,2) meets at slot 20, the later wake itself → 1.
        // (0,2) never meets: slots 20..100 → 80.
        let met = [((0, 1), 9), ((1, 2), 20)];
        let missed = [(0, 2)];
        assert_eq!(pair_slots(&wakes, 100, met, missed), 5 + 1 + 80);
    }

    #[test]
    fn pair_slots_clamps_wakes_past_the_horizon() {
        // A pair whose later wake lies beyond the horizon contributes no
        // slots, never an underflow.
        assert_eq!(pair_slots(&[0, 150], 100, [], [(0, 1)]), 0);
    }
}
