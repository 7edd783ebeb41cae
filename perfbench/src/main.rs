//! The GPS benchmark: three workloads against the public API, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload specify|ingest|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints one `metric` line per figure (name, value, unit, sample count),
//! the machine profile, and as its last line a JSON object with `correct`,
//! `attempted`, `failed` and the metrics `BENCHMARK.json` lists for the mode.
//! Exits non-zero when any operation or correctness check failed.

mod corpus;
mod drive;
mod gauge;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

/// End-to-end metrics every workload reports (untraced runs).
const END_TO_END: &[&str] = &["setup_s", "op_ref_p50", "op_ref_p90", "peak_heap_mb"];

/// Per-layer metrics every workload reports (traced runs).
const PER_LAYER: &[&str] = &[
    "interactive.propose_ms_p50",
    "interactive.prune_refresh_ms_p50",
    "interactive.prune_full_sweeps",
    "interactive.prune_incremental_refreshes",
    "interactive.prune_foreign_rescans",
    "interactive.zooms_per_interaction",
    "learner.learn_ms_p50",
    "bench.user_ms_p50",
    "rpq.cache_hit_ratio",
    "rpq.cache_misses",
    "rpq.cache_evictions",
    "rpq.word_evictions",
    "rpq.eval_ms_p50",
    "rpq.migrate_useful_ratio",
    "rpq.reseed_ms_p50",
    "rpq.words_inherit_ms_p50",
    "exec.evals",
    "exec.rounds_per_eval",
    "exec.eval_ms_p50",
    "exec.index_patch_ms_p50",
    "exec.support_overdeleted",
    "graph.resolve_ms_p50",
    "graph.compact_ms_p50",
    "store.fsync_ms_p50",
    "store.checkpoint_ms_p50",
    "store.checkpoints",
    "store.wal_bytes",
    "core.open_ms_p50",
    "core.stage_ms_p50",
    "core.live_epochs_max",
    "core.step_unattributed_ms_p50",
    "core.publish_unattributed_ms_p50",
    "bench.publish_lag_ms_p50",
    "telemetry.overhead_ratio",
];

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    pub note: &'static str,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
            samples,
            note: "",
        }
    }
}

/// Everything a run reports: metrics, operations attempted and failed.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Counts one attempted operation; an `Err` is a failure.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result.map_err(|failure| self.failures.push(failure)).ok()
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Where durable stores live while a run lasts: inside the checkout.
pub fn work_root() -> PathBuf {
    PathBuf::from(".bench_work")
}

/// The system allocator with live and peak byte counters (`peak_heap_mb`).
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct Counting;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    fn grow(size: usize) {
        let now = LIVE.fetch_add(size, Ordering::Relaxed) + size;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            let ptr = System.alloc_zeroed(layout);
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let new_ptr = System.realloc(ptr, layout, new_size);
            if !new_ptr.is_null() {
                LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
                grow(new_size);
            }
            new_ptr
        }
    }

    /// Restarts peak tracking from the current live footprint.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Peak live heap since the last reset, in MiB.
    pub fn peak_mib() -> f64 {
        PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
    }
}

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

fn parse_args() -> Result<workloads::Args, String> {
    let mut args = workloads::Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The machine and build the figures come from.
fn profile(work: &std::path::Path) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // The filesystem type of the longest mount point containing `work`.
    let absolute = std::env::current_dir()
        .map(|d| d.join(work))
        .unwrap_or_default();
    let fs = std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            absolute
                .starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind);
    format!(
        "profile: nproc={nproc} os={} arch={} rustc=\"{rustc}\" store=\"fsync per commit, \
         checkpoint every 32 publishes\" work_dir_fs={fs} (fsync and latency figures are this \
         machine's page cache and scheduler, not a device's)",
        std::env::consts::OS,
        std::env::consts::ARCH,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    std::fs::create_dir_all(work_root()).expect("create the work directory");
    if let Err(error) = workloads::run(&args, &mut out) {
        eprintln!("perfbench: {error}");
        std::process::exit(2);
    }
    let _ = std::fs::remove_dir(work_root());

    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for name in wanted {
        let found = out.metrics.iter().find(|m| m.name == *name);
        if !found.is_some_and(|m| m.value.is_finite()) {
            out.failures.push(format!("metric {name} was not measured"));
        }
    }
    let failed = out.failures.len() as u64;
    out.attempted = out.attempted.max(failed).max(1);
    out.metric(Metric::new(
        "failed_ratio",
        "ratio",
        failed as f64 / out.attempted as f64,
        out.attempted as usize,
    ));

    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for metric in &out.metrics {
        println!(
            "metric {} = {} {} (n={}){}",
            metric.name, metric.value, metric.unit, metric.samples, metric.note
        );
    }
    for note in &out.notes {
        println!("note: {note}");
    }
    for failure in &out.failures {
        println!("FAILED: {failure}");
    }
    println!("{}", profile(&work_root()));
    let fields: Vec<String> = wanted
        .iter()
        .filter_map(|name| out.metrics.iter().find(|m| m.name == *name))
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted,
        fields.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
