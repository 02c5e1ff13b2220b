//! Small statistics helpers.

use std::collections::BTreeMap;

/// Nearest-rank percentile `q` (0–100) of `values`; `None` when empty.
/// Infinite values (failed jobs) sort last.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean with equal weight per group: the geometric mean of each
/// group's geometric mean. Groups or values ≤ 0 are skipped.
pub fn grouped_geomean<K: Ord>(values: impl IntoIterator<Item = (K, f64)>) -> f64 {
    let mut groups: BTreeMap<K, (f64, f64)> = BTreeMap::new();
    for (k, v) in values {
        if v > 0.0 {
            let g = groups.entry(k).or_insert((0.0, 0.0));
            g.0 += v.ln();
            g.1 += 1.0;
        }
    }
    if groups.is_empty() {
        return 0.0;
    }
    let logs: f64 = groups.values().map(|(sum, n)| sum / n).sum();
    (logs / groups.len() as f64).exp()
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
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
