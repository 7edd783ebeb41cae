//! Sample sets, percentiles and registry deltas.

use gps_telemetry::{HistogramSnapshot, MetricsSnapshot};
use std::time::Duration;

/// CPU time the whole process has used so far (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// Unlike wall time it leaves out the time the process waited: descheduled
/// by the kernel, stolen by the hypervisor (the kernel accounts steal time
/// apart), or blocked on I/O such as an fsync.  On a shared host that makes
/// an operation's cost repeat from run to run where its latency does not.
pub fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut now = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `now` is a valid, writable timespec of the 64-bit Linux ABI.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(now.tv_sec as u64, now.tv_nsec as u32)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the process CPU clock through the 64-bit Linux ABI");

/// Samples of one timed quantity, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, duration: Duration) {
        self.0.push(duration.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (nearest rank), or `None` when fewer than ten
    /// samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let beyond = (self.0.len() as f64 * (1.0 - q)).floor();
        (beyond >= 10.0).then(|| self.quantile(q))
    }

    /// The `q`-quantile (nearest rank) of any non-empty set; `0.0` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }
}

/// The median of a few values (set-up repetitions).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// What one histogram recorded between two registry snapshots.
#[derive(Debug, Clone, Default)]
pub struct HistDelta {
    pub count: u64,
    pub sum_ns: u64,
    buckets: Vec<u64>,
}

impl HistDelta {
    pub fn merge(mut self, other: &HistDelta) -> HistDelta {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self
    }

    pub fn sum_ms(&self) -> f64 {
        self.sum_ns as f64 / 1e6
    }

    /// Median in milliseconds, interpolated linearly inside its log2 bucket
    /// (bucket `i >= 1` holds values in `[2^(i-1), 2^i - 1]` ns), or the
    /// exact mean when every sample shares that bucket; `0.0` when nothing
    /// was recorded.
    pub fn p50_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = self.count.div_ceil(2);
        let mut below = 0u64;
        for (index, &count) in self.buckets.iter().enumerate() {
            if count == self.count {
                return self.sum_ns as f64 / self.count as f64 / 1e6;
            }
            if count > 0 && below + count >= rank {
                let hi = HistogramSnapshot::upper_bound(index) as f64;
                let lo = if index == 0 { 0.0 } else { (hi + 1.0) / 2.0 };
                let within = (rank - below) as f64 / count as f64;
                return (lo + (hi - lo) * within) / 1e6;
            }
            below += count;
        }
        0.0
    }
}

/// Series deltas between two snapshots of one registry.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn counter(&self, name: &str) -> u64 {
        let at = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
        at(self.after).saturating_sub(at(self.before))
    }

    pub fn hist(&self, name: &str) -> HistDelta {
        let Some(after) = self.after.histogram(name) else {
            return HistDelta::default();
        };
        let empty = Vec::new();
        let (count, sum, buckets) = match self.before.histogram(name) {
            Some(b) => (b.count, b.sum, &b.buckets),
            None => (0, 0, &empty),
        };
        HistDelta {
            count: after.count - count,
            sum_ns: after.sum.wrapping_sub(sum),
            buckets: after
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &c)| c - buckets.get(i).copied().unwrap_or(0))
                .collect(),
        }
    }
}
