//! Timing statistics, peak memory and the result format shared by every
//! workload.

use std::time::Instant;

/// Fewest samples a reported percentile must leave beyond it. A tail
/// percentile read off fewer samples is one or two outliers, not a tail.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank percentile `p` (0–100] of `samples`, in any order.
///
/// # Errors
///
/// Refuses when `samples` is empty or fewer than `min_tail` samples lie
/// beyond the percentile.
pub fn percentile(samples: &[f64], p: f64, min_tail: usize) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let beyond = sorted.len() - rank;
    if beyond < min_tail {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it; at least {min_tail} are needed",
            sorted.len()
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method).
/// Fewer than two values repeat the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Median wall-clock seconds of `reps` runs of `f`.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time the hypervisor gave to other guests (`steal` in
/// `/proc/stat`), in seconds summed over all CPUs, or `None` where it is
/// not reported. Reported next to the timings: on a shared host it is the
/// main reason two runs of the same code differ.
pub fn steal_secs() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat
        .lines()
        .next()?
        .split_whitespace()
        .nth(8)?
        .parse()
        .ok()?;
    // `/proc/stat` counts in USER_HZ, which Linux fixes at 100.
    Some(ticks / 100.0)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The one-line result object: `correct`, `attempted`, `failed` and every
/// metric as `{"value": v, "unit": u}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0, MIN_TAIL), Ok(50.0));
        assert!(percentile(&samples, 99.0, MIN_TAIL).is_err());
        assert_eq!(percentile(&samples, 90.0, MIN_TAIL), Ok(90.0));
        let more: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&more, 99.0, MIN_TAIL), Ok(990.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]),
            [2.75, 5.5, 8.25]
        );
        // statistics.quantiles([1, 2, 3], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn json_keeps_every_digit() {
        let line = result_json(
            true,
            3,
            0,
            &[Metric {
                name: "x",
                value: 0.123_456_789_012_3,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 0.1234567890123, \"unit\": \"s\"}}}"
        );
    }
}
