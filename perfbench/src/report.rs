//! Measurements taken from outside the program: node metric registries
//! (`NodeHandle::metrics()`), the process's peak RSS, and the host.

use gdp_obs::{HistogramSnapshot, Metrics, LATENCY_BUCKETS_US};
use std::collections::BTreeMap;
use std::path::Path;

/// Histograms the registries keep that the benchmark reads.
const HISTOGRAMS: [(&str, &str); 3] =
    [("store", "fsync_us"), ("store", "fsync_batch_entries"), ("node", "tick_us")];

/// One node's registry at one instant.
#[derive(Clone, Default)]
pub struct NodeSnap {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

pub fn snap(m: &Metrics) -> NodeSnap {
    let counters = m.counters().into_iter().map(|((c, n), v)| (format!("{c}.{n}"), v)).collect();
    let hists = HISTOGRAMS
        .iter()
        .filter_map(|(c, n)| m.histogram_snapshot(c, n).map(|h| (format!("{c}.{n}"), h)))
        .collect();
    NodeSnap { counters, hists }
}

/// Counter and histogram deltas of a group of nodes over one interval.
#[derive(Default)]
pub struct Delta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

impl Delta {
    pub fn between(before: &[NodeSnap], after: &[NodeSnap]) -> Delta {
        let mut d = Delta::default();
        for (b, a) in before.iter().zip(after) {
            for (k, v) in &a.counters {
                let prev = b.counters.get(k).copied().unwrap_or(0);
                *d.counters.entry(k.clone()).or_default() += v.saturating_sub(prev);
            }
            for (k, h) in &a.hists {
                let e = d.hists.entry(k.clone()).or_insert_with(empty_hist);
                let p = b.hists.get(k).copied().unwrap_or_else(empty_hist);
                for (i, c) in h.buckets.iter().enumerate() {
                    e.buckets[i] += c.saturating_sub(p.buckets[i]);
                }
                e.count += h.count.saturating_sub(p.count);
                e.sum += h.sum.saturating_sub(p.sum);
                e.max = e.max.max(h.max);
            }
        }
        d
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Bucket upper bound holding the `q` quantile (0 when empty).
    pub fn hist_quantile(&self, key: &str, q: f64) -> f64 {
        let Some(h) = self.hists.get(key).filter(|h| h.count > 0) else { return 0.0 };
        let want = (q * h.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, c) in h.buckets.iter().enumerate() {
            seen += c;
            if seen >= want {
                return LATENCY_BUCKETS_US.get(i).copied().unwrap_or(h.max) as f64;
            }
        }
        h.max as f64
    }

    pub fn hist_mean(&self, key: &str) -> f64 {
        match self.hists.get(key) {
            Some(h) if h.count > 0 => h.sum as f64 / h.count as f64,
            _ => 0.0,
        }
    }
}

fn empty_hist() -> HistogramSnapshot {
    HistogramSnapshot {
        buckets: [0; LATENCY_BUCKETS_US.len() + 1],
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
    }
}

/// The process's peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// nproc, kernel release, and the filesystem type holding `dir`.
pub fn host_fingerprint(dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("nproc={nproc} kernel={} data_fs={}", kernel.trim(), fs_type(dir))
}

fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else { return "unknown".into() };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}
