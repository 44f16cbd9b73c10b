//! Percentiles, latency summaries and the result line's JSON.

use std::time::Instant;

/// Percentiles tried for the tail, highest first.
const TAIL_CANDIDATES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank position of `pct` (0..=100) among `n` samples.
/// The epsilon keeps e.g. 99.9% of 10,000 at rank 9,990 despite rounding.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Number of samples strictly beyond the nearest-rank `pct` position.
fn beyond(n: usize, pct: f64) -> usize {
    n.saturating_sub(rank(n, pct))
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
}

pub fn tail(sorted: &[f64]) -> Option<Tail> {
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let b = beyond(sorted.len(), pct);
        (b >= MIN_BEYOND).then(|| Tail { pct, value: percentile(sorted, pct), beyond: b })
    })
}

/// Latencies of one phase with failures folded in as infinitely late: a
/// failed request misses every latency limit.
pub struct LatencySummary {
    pub n: usize,
    pub failed: usize,
    pub p50: f64,
    pub p99: f64,
    pub tail: Option<Tail>,
}

pub fn summarize(latency_ms: &[Option<f64>]) -> LatencySummary {
    let mut v: Vec<f64> = latency_ms.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    LatencySummary {
        n: v.len(),
        failed: latency_ms.iter().filter(|l| l.is_none()).count(),
        p50: percentile(&v, 50.0),
        p99: percentile(&v, 99.0),
        tail: tail(&v),
    }
}

/// Consecutive blocks of at least `size` items (a short tail joins the
/// last block; fewer than `size` items make one block).
fn blocks<T>(v: &[T], size: usize) -> impl Iterator<Item = &[T]> {
    let n = (v.len() / size).max(1);
    (0..n).map(move |k| &v[k * size..if k + 1 == n { v.len() } else { (k + 1) * size }])
}

/// Completions per second: the median over consecutive blocks of `size`
/// completions (ascending instants after `start`) of each block's rate.
pub fn block_rate(start: Instant, done: &[Instant], size: usize) -> f64 {
    let mut prev = start;
    let rates: Vec<f64> = blocks(done, size)
        .filter_map(|b| {
            let end = *b.last()?;
            let secs = (end - std::mem::replace(&mut prev, end)).as_secs_f64();
            Some(b.len() as f64 / secs.max(1e-9))
        })
        .collect();
    if rates.is_empty() {
        0.0
    } else {
        median(&rates)
    }
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// JSON number; non-finite values (a percentile landing on a failed
/// request) become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, json_num(m.value), m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99.9 leaves 1 beyond, p99 leaves exactly 10.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        // 10000 samples: p99.9 leaves 10 beyond.
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.pct, t.value, t.beyond), (99.9, 9990.0, 10));
        // 999 samples: p99 leaves only 9, so fall back to p90.
        let t = tail(&ramp(999)).unwrap();
        assert_eq!((t.pct, t.beyond), (90.0, 99));
    }

    #[test]
    fn tail_absent_below_twenty_samples() {
        assert!(tail(&ramp(19)).is_none());
        assert_eq!(tail(&ramp(20)).unwrap().pct, 50.0);
    }

    #[test]
    fn failures_are_infinitely_late() {
        let mut lat: Vec<Option<f64>> = (1..=98).map(|i| Some(i as f64)).collect();
        lat.extend([None, None]);
        let s = summarize(&lat);
        assert_eq!((s.n, s.failed, s.p50), (100, 2, 50.0));
        assert!(s.p99.is_infinite());
    }

    #[test]
    fn p99_sees_a_burst_in_one_stretch() {
        // 3,000 requests; 50 in a row stall at 50 ms, as a periodic stall
        // in one part of a run would. The pooled p99 moves with them.
        let mut lat: Vec<Option<f64>> = (0..3000).map(|i| Some((i % 100) as f64 / 10.0)).collect();
        for l in &mut lat[1000..1050] {
            *l = Some(50.0);
        }
        assert_eq!(summarize(&lat).p99, 50.0);
    }

    #[test]
    fn block_rate_takes_the_median_block() {
        let t0 = Instant::now();
        // 10 completions per 10 ms, except one block that took 100 ms.
        let gaps = [10u64, 10, 100, 10, 10];
        let mut done = Vec::new();
        let mut t = t0;
        for g in gaps {
            for i in 1..=10u64 {
                done.push(t + Duration::from_millis(g * i / 10));
            }
            t += Duration::from_millis(g);
        }
        let rate = block_rate(t0, &done, 10);
        assert!((rate - 1000.0).abs() < 1.0, "rate {rate}");
        assert_eq!(block_rate(t0, &[], 10), 0.0);
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric { name: "setup_s".into(), value: 0.5, unit: "s" }];
        assert_eq!(
            result_line(true, 3, 0, &m),
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }
}
