//! Small measurement helpers: quantiles, medians, digests, resident memory.

use edgstr_runtime::CrdtSet;
use edgstr_sim::LatencyStats;
use std::time::Instant;

/// Nearest-rank `q`-quantile of `values` (sorted in place); 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let idx = ((values.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    values[idx]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Every sample of a run's virtual latency distribution, in microseconds.
/// `LatencyStats` exposes nearest-rank quantiles only; probing rank `i`
/// of `n` with `q = i / (n - 1)` returns exactly the `i`-th sorted sample.
pub fn latency_samples(stats: &mut LatencyStats, out: &mut Vec<u64>) {
    let n = stats.len();
    if n == 1 {
        out.extend(stats.quantile(0.0).map(|d| d.0));
        return;
    }
    for i in 0..n {
        if let Some(d) = stats.quantile(i as f64 / (n - 1) as f64) {
            out.push(d.0);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, chained from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Digest of the replicated state a CRDT set holds: every bound table,
/// file and global. Actor ids and retained history are excluded, so
/// converged replicas digest equal.
pub fn crdt_digest(set: &CrdtSet) -> u64 {
    let mut h = FNV_OFFSET;
    for (name, table) in &set.tables {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, table.to_json().to_string().as_bytes());
    }
    for path in set.files.list() {
        h = fnv1a(h, path.as_bytes());
        h = fnv1a(h, &set.files.get_file(&path).unwrap_or_default());
    }
    fnv1a(h, set.globals.to_json().to_string().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_sim::SimDuration;

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.9), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn latency_samples_round_trip() {
        let mut s = LatencyStats::new();
        for us in [30, 10, 20, 20, 50] {
            s.record(SimDuration(us));
        }
        let mut out = Vec::new();
        latency_samples(&mut s, &mut out);
        assert_eq!(out, vec![10, 20, 20, 30, 50]);
    }
}
