//! End-to-end measurements of one run and their reduction to the metrics
//! `BENCHMARK.json` names.

use crate::stats::{latency_samples, median, peak_rss_mb, quantile};
use edgstr_runtime::RunStats;

/// Raw end-to-end samples collected by a workload.
#[derive(Debug, Default)]
pub struct E2e {
    /// Seconds per set-up (several per run; the median is reported).
    pub setup_s: Vec<f64>,
    /// Capture→deploy milliseconds of one app.
    pub transform_ms: Vec<f64>,
    /// Every timed `run()` call, in order.
    pub runs: Vec<TimedRun>,
    /// Virtual client latencies, microseconds.
    pub virt_us: Vec<u64>,
    pub wan_sync_bytes: u64,
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Passes the timed phase completed.
    pub passes: usize,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
}

/// One timed `run()` call.
#[derive(Debug, Clone, Copy)]
pub struct TimedRun {
    pub completed: usize,
    /// Host seconds.
    pub host_s: f64,
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

impl E2e {
    /// Record an error that ends the run early.
    pub fn fatal(mut self, err: String) -> E2e {
        self.problems.push(err);
        self.attempted = self.attempted.max(1);
        self.failed = self.failed.max(1);
        self
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut transform = self.transform_ms.clone();
        let mut tick: Vec<f64> = self.runs.iter().map(|r| r.host_s * 1e3).collect();
        let mut virt: Vec<f64> = self.virt_us.iter().map(|&us| us as f64 / 1e3).collect();
        let kreq = (self.completed as f64 / 1e3).max(1e-9);
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("transform_ms_p50", quantile(&mut transform, 0.5), "ms"),
            ("transform_ms_p90", quantile(&mut transform, 0.9), "ms"),
            ("host_rps", Self::throughput(&self.runs), "req/s"),
            ("tick_ms_p50", quantile(&mut tick, 0.5), "ms"),
            ("tick_ms_p90", quantile(&mut tick, 0.9), "ms"),
            ("virt_p50_ms", quantile(&mut virt, 0.5), "ms"),
            ("virt_p99_ms", quantile(&mut virt, 0.99), "ms"),
            (
                "wan_sync_kb_per_kreq",
                self.wan_sync_bytes as f64 / 1024.0 / kreq,
                "KB",
            ),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ]
    }

    /// Account one `run()` call that was given `requests` requests and
    /// took `host_s` host seconds.
    pub fn record_run(&mut self, requests: usize, host_s: f64, stats: &mut RunStats) {
        self.runs.push(TimedRun {
            completed: stats.completed,
            host_s,
        });
        self.attempted += requests as u64;
        self.failed += stats.failed as u64;
        self.completed += stats.completed as u64;
        self.wan_sync_bytes += stats.wan_sync_bytes as u64;
        latency_samples(&mut stats.latency, &mut self.virt_us);
    }

    /// Completed requests per host second over `runs`.
    fn throughput(runs: &[TimedRun]) -> f64 {
        let completed: usize = runs.iter().map(|r| r.completed).sum();
        let host: f64 = runs.iter().map(|r| r.host_s).sum();
        completed as f64 / host.max(1e-9)
    }

    /// Throughput in each tenth of the timed phase, to show drift within
    /// a run.
    pub fn rps_by_tenth(&self) -> String {
        let n = self.runs.len();
        (0..10)
            .map(|k| Self::throughput(&self.runs[k * n / 10..(k + 1) * n / 10]))
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Failed over attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / (self.attempted.max(1) as f64)
    }
}
