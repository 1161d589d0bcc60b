//! Order statistics, the tail-percentile rule, metric names and the
//! result line.

/// The median of `values` (mean of the middle two for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail percentile a sample of `n` supports: the highest percentile
/// with at least ten samples beyond it, capped at 99. `None` when fewer
/// than eleven samples leave no such percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n <= 10 {
        return None;
    }
    Some((100.0 * (1.0 - 10.0 / n as f64)).min(99.0))
}

/// The nearest-rank `p`th percentile of `values` (`0 < p <= 100`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon keeps float rounding from pushing an exact rank up one.
    let rank = ((p / 100.0) * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
/// Whether `name` is a legal metric name: a letter or digit first, then
/// at most 63 more of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        body.join(",")
    )
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 of a string, rendered as 16 hex digits (output digests).
pub fn digest(text: &str) -> String {
    format!("{:016x}", mipsx_explore::fnv1a(text.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(100_000), Some(99.0));
        let p = tail_percentile(200).unwrap();
        assert!((p - 95.0).abs() < 1e-9);
        for n in [11usize, 37, 200, 999, 1000, 5000] {
            let values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let p = tail_percentile(n).unwrap();
            let cut = percentile(&values, p);
            let beyond = values.iter().filter(|&&v| v > cut).count();
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        assert!(valid_name("pass_s"));
        assert!(valid_name("reorg.us_per_word"));
        assert!(valid_name("9-x"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn result_line_is_json_with_exactly_the_four_keys() {
        let line = result_json(
            7,
            1,
            &[
                Metric {
                    name: "pass_s",
                    unit: "s",
                    value: 0.25,
                },
                Metric {
                    name: "bad",
                    unit: "ms",
                    value: f64::NAN,
                },
            ],
        );
        assert!(mipsx_bench::json_is_valid(&line), "{line}");
        assert!(line.starts_with("{\"correct\":false,\"attempted\":7,\"failed\":1,\"metrics\":{"));
        assert!(line.contains("\"pass_s\":{\"value\":0.25,\"unit\":\"s\"}"));
        assert!(line.contains("\"bad\":{\"value\":0.0,\"unit\":\"ms\"}"));
    }
}
