//! The three workloads.  Each sets up several times (the median is
//! `setup_s`); on the last set-up it runs its measured loop.  A traced run
//! sets up once, runs a traced stack beside an untraced twin, and takes the
//! per-layer figures.

use crate::corpus::{self, GoalStream};
use crate::drive::{
    managed_session, publish_cycle, traced_publish_cycle, traced_session, Checker, PublishLog,
    Replica, SessionLog,
};
use crate::gauge::Gauge;
use crate::stats::{median, Delta, Samples};
use crate::trace::{LayerTrace, Twin};
use crate::{alloc, Metric, Outcome};
use gps_core::prelude::*;
use gps_graph::UpdateOp;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Sessions (specify) and publishes (ingest) whose counts must repeat
/// exactly on every set-up of a run.
const GUARD_SESSIONS: usize = 24;
const GUARD_PUBLISHES: usize = 8;
/// Publish batches generated per run: far more than a run consumes.
const INGEST_BATCHES: usize = 1024;
const SERVE_BATCHES: usize = 256;
/// The serve-mixed writer's period (open loop).
const SERVE_PERIOD: Duration = Duration::from_secs(1);
/// Traced sessions of the probe that stands in for idle layers.
const PROBE_SESSIONS: usize = 12;
/// Seed offsets of the derived input streams.
const SERVE_GOAL_SEED: u64 = 0x5EED_0001;
const BATCH_SEED: u64 = 0x5EED_0002;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let run = Run {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
    };
    match (args.workload.as_str(), args.trace) {
        ("specify", false) => run.specify(out),
        ("specify", true) => run.specify_traced(out),
        ("ingest", false) => run.ingest(out),
        ("ingest", true) => run.ingest_traced(out),
        ("serve-mixed", false) => run.serve_mixed(out),
        ("serve-mixed", true) => run.serve_mixed_traced(out),
        (other, _) => return Err(format!("unknown workload {other:?}")),
    }
    Ok(())
}

/// The builder every workload uses: the README's serving configuration
/// (`EvalMode::Frontier`), everything else at the defaults.
fn builder(graph: Graph, registry: Option<&Arc<MetricsRegistry>>) -> GpsBuilder {
    let builder = Engine::builder(graph).eval_mode(EvalMode::Frontier);
    match registry {
        Some(registry) => builder.metrics(Arc::clone(registry)),
        None => builder,
    }
}

fn warm_words(core: &EngineCore) {
    core.eval_cache()
        .bounded_words(core.session_config().path_bound);
}

fn warm_reads(store: &VersionedStore, reads: &[String], out: &mut Outcome) {
    let core = store.latest();
    let result: Result<Vec<_>, _> = reads.iter().map(|q| core.evaluate(q)).collect();
    out.record(result.map_err(|e| format!("warm read: {e}")));
}

/// A durable store's directory inside the working directory, removed on
/// drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Self {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = crate::work_root().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable(
    tag: &str,
    builder: GpsBuilder,
    out: &mut Outcome,
) -> Option<(WorkDir, Arc<VersionedStore>)> {
    let dir = WorkDir::new(tag);
    let store = VersionedStore::open_durable(&dir.0, builder);
    let (store, _) = out.record(store.map_err(|e| format!("open_durable: {e}")))?;
    Some((dir, Arc::new(store)))
}

fn ms_metric(out: &mut Outcome, name: &str, samples: &Samples, q: f64) {
    percentile_metric(out, name, "ms", samples, q);
}

fn percentile_metric(out: &mut Outcome, name: &str, unit: &'static str, samples: &Samples, q: f64) {
    match samples.percentile(q) {
        Some(value) => out.metric(Metric::new(name, unit, value, samples.len())),
        None => out.note(format!(
            "{name}: {} samples, too few for this percentile",
            samples.len()
        )),
    }
}

/// The closed-loop client's operation: its process CPU time in ms and the
/// same over the gauge's kernel time, and the kernel's own runs.
struct Op<'a> {
    cpu: &'a Samples,
    per_ref: &'a Samples,
    kernel: &'a Samples,
}

fn common_metrics(out: &mut Outcome, setups: &[f64], op: Op, done: f64, elapsed_s: f64) {
    out.metric(Metric::new("setup_s", "s", median(setups), setups.len()));
    percentile_metric(out, "op_ref_p50", "ref", op.per_ref, 0.5);
    percentile_metric(out, "op_ref_p90", "ref", op.per_ref, 0.9);
    ms_metric(out, "op_cpu_ms_p50", op.cpu, 0.5);
    ms_metric(out, "op_cpu_ms_p90", op.cpu, 0.9);
    out.metric(Metric::new(
        "ref_kernel_ms_p50",
        "ms",
        op.kernel.quantile(0.5),
        op.kernel.len(),
    ));
    out.metric(Metric::new(
        "done_per_s",
        "1/s",
        done / elapsed_s,
        done as usize,
    ));
    out.metric(Metric::new("peak_heap_mb", "MiB", alloc::peak_mib(), 1));
}

/// Compares the count metrics of every set-up's guard prefix.
fn guard<T: PartialEq + std::fmt::Debug>(out: &mut Outcome, what: &str, records: &[T]) {
    let same = records.windows(2).all(|w| w[0] == w[1]);
    out.note(format!("determinism guard ({what}): {records:?}"));
    out.record(if same {
        Ok(())
    } else {
        Err(format!(
            "determinism guard: {what} differ between set-ups: {records:?}"
        ))
    });
}

struct Run {
    seed: u64,
    seconds: Duration,
}

impl Run {
    fn specify(&self, out: &mut Outcome) {
        let mut setups = Vec::new();
        let mut guards = Vec::new();
        for rep in 0..SETUP_REPS {
            let last = rep + 1 == SETUP_REPS;
            if last {
                alloc::reset_peak();
            }
            let started = Instant::now();
            let graph = corpus::session_graph();
            let mut goals = GoalStream::new(&graph, self.seed);
            let core = builder(graph, None).build_core();
            warm_words(&core);
            let manager = SessionManager::new(core);
            setups.push(started.elapsed().as_secs_f64());

            let mut log = SessionLog::default();
            let mut checker = Checker::default();
            let mut gauge = last.then(Gauge::new);
            let cache = manager.core();
            let misses = cache.eval_cache().stats().1;
            let deadline = Instant::now() + self.seconds;
            for _ in 0..GUARD_SESSIONS {
                log.kernel_ms = gauge.as_mut().map(Gauge::sample);
                managed_session(&manager, goals.next_goal(), &mut log, &mut checker, out);
            }
            guards.push((log.interactions, cache.eval_cache().stats().1 - misses));
            if !last {
                continue;
            }
            let prefix_interactions = log.interactions;
            let gauge = gauge.as_mut().expect("the last set-up has a gauge");
            while Instant::now() < deadline {
                log.kernel_ms = Some(gauge.sample());
                managed_session(&manager, goals.next_goal(), &mut log, &mut checker, out);
            }
            let sessions = log.sessions.len() as f64;
            let busy_s = log.sessions.sum() / 1e3;
            let op = Op {
                cpu: &log.step_cpu,
                per_ref: &log.step_ref,
                kernel: &gauge.runs,
            };
            common_metrics(out, &setups, op, sessions, busy_s);
            ms_metric(out, "step_ms_p50", &log.steps, 0.5);
            ms_metric(out, "step_ms_p99", &log.steps, 0.99);
            ms_metric(out, "session_ms_p50", &log.sessions, 0.5);
            out.metric(Metric::new(
                "sessions_per_s",
                "1/s",
                sessions / busy_s,
                sessions as usize,
            ));
            out.metric(Metric::new(
                "interactions_per_session",
                "count",
                prefix_interactions as f64 / GUARD_SESSIONS as f64,
                GUARD_SESSIONS,
            ));
        }
        guard(
            out,
            "interactions, cache misses over the first sessions",
            &guards,
        );
    }

    fn ingest(&self, out: &mut Outcome) {
        let reads = corpus::warm_queries();
        let mut setups = Vec::new();
        let mut guards = Vec::new();
        for rep in 0..SETUP_REPS {
            let last = rep + 1 == SETUP_REPS;
            if last {
                alloc::reset_peak();
            }
            let started = Instant::now();
            let graph = corpus::ingest_graph();
            let batches = corpus::update_batches(&graph, 8, INGEST_BATCHES, self.seed ^ BATCH_SEED);
            let Some((dir, store)) = durable("ingest", builder(graph, None), out) else {
                return;
            };
            warm_reads(&store, &reads, out);
            setups.push(started.elapsed().as_secs_f64());

            let mut log = PublishLog::default();
            let mut gauge = last.then(Gauge::new);
            let mut batches = batches.iter();
            let deadline = Instant::now() + self.seconds;
            let mut answers = None;
            for batch in batches.by_ref().take(GUARD_PUBLISHES) {
                log.kernel_ms = gauge.as_mut().map(Gauge::sample);
                answers = publish_cycle(&store, batch, &reads, Instant::now(), &mut log, out);
            }
            let guard_wal = (log.wal_bytes, log.ops);
            guards.push((log.migrated, guard_wal, log.read_misses));
            if !last {
                continue;
            }
            let gauge = gauge.as_mut().expect("the last set-up has a gauge");
            while Instant::now() < deadline {
                let Some(batch) = batches.next() else {
                    out.note("ingest: update batches exhausted before the deadline".into());
                    break;
                };
                log.kernel_ms = Some(gauge.sample());
                answers = publish_cycle(&store, batch, &reads, Instant::now(), &mut log, out);
                if answers.is_none() {
                    break;
                }
            }
            let cycles = log.publishes.len() as f64;
            let op = Op {
                cpu: &log.publish_cpu,
                per_ref: &log.publish_ref,
                kernel: &gauge.runs,
            };
            common_metrics(out, &setups, op, cycles, log.cycle_s);
            ms_metric(out, "publish_ms_p50", &log.publishes, 0.5);
            ms_metric(out, "publish_ms_p90", &log.publishes, 0.9);
            ms_metric(out, "first_read_ms_p50", &log.first_reads, 0.5);
            out.metric(Metric::new(
                "wal_bytes_per_op",
                "B",
                guard_wal.0 as f64 / guard_wal.1 as f64,
                guard_wal.1 as usize,
            ));
            if let Some(answers) = answers {
                self.verify_and_reopen(store, &dir, &reads, answers, out);
            }
        }
        guard(
            out,
            "migration outcomes, WAL bytes/ops, cache misses over the first publishes",
            &guards,
        );
    }

    /// The last epoch's migrated answers must equal a cold naive
    /// recompute; the reopened directory must serve the same graph and
    /// answers.
    fn verify_and_reopen(
        &self,
        store: Arc<VersionedStore>,
        dir: &WorkDir,
        reads: &[String],
        answers: Vec<QueryAnswer>,
        out: &mut Outcome,
    ) {
        let core = store.latest();
        let cold: Vec<QueryAnswer> = reads
            .iter()
            .map(|q| {
                core.parse_query(q)
                    .expect("warm set parses")
                    .evaluate_csr(core.snapshot())
            })
            .collect();
        out.record(if cold == answers {
            Ok(())
        } else {
            Err("migrated warm-set answers differ from a cold recompute".to_string())
        });
        let shape = (core.snapshot().node_count(), core.snapshot().edge_count());
        drop(core);
        drop(store);
        let started = Instant::now();
        let reopened = VersionedStore::open_durable(&dir.0, builder(Graph::new(), None));
        let recover_s = started.elapsed().as_secs_f64();
        let Some((reopened, _)) = out.record(reopened.map_err(|e| format!("reopen: {e}"))) else {
            return;
        };
        out.metric(Metric::new("recover_s", "s", recover_s, 1));
        let core = reopened.latest();
        let again: Result<Vec<_>, _> = reads.iter().map(|q| core.evaluate(q)).collect();
        let reshape = (core.snapshot().node_count(), core.snapshot().edge_count());
        out.record(match again {
            Ok(again) if again == answers && reshape == shape => Ok(()),
            Ok(_) => Err(format!(
                "reopened store differs: shape {reshape:?} vs {shape:?} or answers"
            )),
            Err(e) => Err(format!("reopened store: {e}")),
        });
    }

    fn serve_mixed(&self, out: &mut Outcome) {
        let reads = corpus::warm_queries();
        let mut setups = Vec::new();
        for rep in 0..SETUP_REPS {
            let last = rep + 1 == SETUP_REPS;
            if last {
                alloc::reset_peak();
            }
            let started = Instant::now();
            let graph = corpus::session_graph();
            let mut goals = GoalStream::new(&graph, self.seed ^ SERVE_GOAL_SEED);
            let batches = corpus::update_batches(&graph, 4, SERVE_BATCHES, self.seed ^ BATCH_SEED);
            let Some((_dir, store)) = durable("serve", builder(graph, None), out) else {
                return;
            };
            let service = GpsService::over(Arc::clone(&store));
            warm_words(&service.core());
            warm_reads(&store, &reads, out);
            setups.push(started.elapsed().as_secs_f64());
            if !last {
                continue;
            }

            let mut gauge = Gauge::new();
            let start = Instant::now();
            let deadline = start + self.seconds;
            let (mut log, mut plog) = (SessionLog::default(), PublishLog::default());
            let mut wout = Outcome::default();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    open_loop(start, deadline, &batches, |batch, due| {
                        publish_cycle(&store, batch, &reads, due, &mut plog, &mut wout).is_some()
                    })
                });
                let mut checker = Checker::default();
                while Instant::now() < deadline {
                    log.kernel_ms = Some(gauge.sample());
                    managed_session(
                        service.manager(),
                        goals.next_goal(),
                        &mut log,
                        &mut checker,
                        out,
                    );
                }
            });
            out.absorb(wout);
            let sessions = log.sessions.len() as f64;
            let busy_s = log.sessions.sum() / 1e3;
            let op = Op {
                cpu: &log.step_cpu,
                per_ref: &log.step_ref,
                kernel: &gauge.runs,
            };
            common_metrics(out, &setups, op, sessions, busy_s);
            ms_metric(out, "step_ms_p50", &log.steps, 0.5);
            ms_metric(out, "step_ms_p99", &log.steps, 0.99);
            out.metric(Metric::new(
                "sessions_per_s",
                "1/s",
                sessions / busy_s,
                sessions as usize,
            ));
            ms_metric(out, "publish_ms_p50", &plog.publishes, 0.5);
            ms_metric(out, "first_read_ms_p50", &plog.first_reads, 0.5);
            out.note(format!(
                "serve-mixed writer: {} publishes, lag p50 {:.3} ms",
                plog.publishes.len(),
                plog.lag.quantile(0.5)
            ));
        }
    }

    fn specify_traced(&self, out: &mut Outcome) {
        let registry = Arc::new(MetricsRegistry::enabled());
        let graph = corpus::session_graph();
        let mut goals = GoalStream::new(&graph, self.seed);
        let traced = builder(graph.clone(), Some(&registry)).build_core();
        let twin = builder(graph, None).build_core_over(traced.shared_snapshot());
        warm_words(&traced);
        warm_words(&twin);
        let traced = VersionedStore::new(traced);
        let twin = SessionManager::new(twin);

        let (mut trace, mut twin_log) = (LayerTrace::default(), Twin::default());
        let (mut replica, mut checker) = (Replica::default(), Checker::default());
        let before = registry.snapshot();
        let deadline = Instant::now() + self.seconds;
        let mut round = 0usize;
        while Instant::now() < deadline {
            let goal = goals.next_goal().to_string();
            let mut log = SessionLog::default();
            let (mut a, mut b) = (None, None);
            for traced_turn in alternate(round) {
                if traced_turn {
                    b = traced_session(&traced, &goal, &mut replica, &mut trace, &mut checker, out);
                } else {
                    a = managed_session(&twin, &goal, &mut log, &mut checker, out);
                }
            }
            twin_log.steps.extend(&log.steps);
            same_transcripts(out, &goal, a, b);
            round += 1;
        }
        self.layer_report(out, &trace, &registry, &before, &twin_log);
    }

    fn ingest_traced(&self, out: &mut Outcome) {
        let reads = corpus::warm_queries();
        let registry = Arc::new(MetricsRegistry::enabled());
        let graph = corpus::ingest_graph();
        let batches = corpus::update_batches(&graph, 8, INGEST_BATCHES, self.seed ^ BATCH_SEED);
        let Some((_dir_t, traced)) = durable(
            "ingest-traced",
            builder(graph.clone(), Some(&registry)),
            out,
        ) else {
            return;
        };
        let Some((_dir_u, twin)) = durable("ingest-twin", builder(graph, None), out) else {
            return;
        };
        warm_reads(&traced, &reads, out);
        warm_reads(&twin, &reads, out);

        let (mut trace, mut twin_log) = (LayerTrace::default(), Twin::default());
        let (mut tlog, mut ulog) = (PublishLog::default(), PublishLog::default());
        let before = registry.snapshot();
        let deadline = Instant::now() + self.seconds;
        for (round, batch) in batches.iter().enumerate() {
            if Instant::now() >= deadline {
                break;
            }
            let (mut a, mut b) = (None, None);
            for traced_turn in alternate(round) {
                let now = Instant::now();
                if traced_turn {
                    b = traced_publish_cycle(
                        &traced, batch, &reads, now, &mut tlog, &mut trace, out,
                    );
                } else {
                    a = publish_cycle(&twin, batch, &reads, now, &mut ulog, out);
                }
            }
            let same = a.is_some() && a == b;
            out.record(if same {
                Ok(())
            } else {
                Err("traced and untraced warm answers differ".to_string())
            });
        }
        twin_log.publishes = ulog.publishes;
        self.layer_report(out, &trace, &registry, &before, &twin_log);
    }

    fn serve_mixed_traced(&self, out: &mut Outcome) {
        let reads = corpus::warm_queries();
        let registry = Arc::new(MetricsRegistry::enabled());
        let graph = corpus::session_graph();
        let mut goals = GoalStream::new(&graph, self.seed ^ SERVE_GOAL_SEED);
        let batches = corpus::update_batches(&graph, 4, SERVE_BATCHES, self.seed ^ BATCH_SEED);
        let Some((_dir_t, traced)) =
            durable("serve-traced", builder(graph.clone(), Some(&registry)), out)
        else {
            return;
        };
        let Some((_dir_u, twin)) = durable("serve-twin", builder(graph, None), out) else {
            return;
        };
        let twin_manager = SessionManager::over(Arc::clone(&twin));
        warm_words(&traced.latest());
        warm_words(&twin.latest());
        warm_reads(&traced, &reads, out);
        warm_reads(&twin, &reads, out);

        let (mut trace, mut twin_log) = (LayerTrace::default(), Twin::default());
        let (mut tlog, mut ulog) = (PublishLog::default(), PublishLog::default());
        let mut wout = Outcome::default();
        let before = registry.snapshot();
        let start = Instant::now();
        let deadline = start + self.seconds;
        let mut writer_trace = LayerTrace::default();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                open_loop(start, deadline, &batches, |batch, due| {
                    let b = traced_publish_cycle(
                        &traced,
                        batch,
                        &reads,
                        due,
                        &mut tlog,
                        &mut writer_trace,
                        &mut wout,
                    );
                    let a =
                        publish_cycle(&twin, batch, &reads, Instant::now(), &mut ulog, &mut wout);
                    let same = a.is_some() && a == b;
                    wout.record(if same {
                        Ok(())
                    } else {
                        Err("traced and untraced warm answers differ".to_string())
                    });
                    same
                })
            });
            let (mut replica, mut checker) = (Replica::default(), Checker::default());
            let mut round = 0usize;
            while Instant::now() < deadline {
                let goal = goals.next_goal().to_string();
                let mut log = SessionLog::default();
                let (mut a, mut b) = (None, None);
                for traced_turn in alternate(round) {
                    if traced_turn {
                        b = traced_session(
                            &traced,
                            &goal,
                            &mut replica,
                            &mut trace,
                            &mut checker,
                            out,
                        );
                    } else {
                        a = managed_session(&twin_manager, &goal, &mut log, &mut checker, out);
                    }
                }
                twin_log.steps.extend(&log.steps);
                // Both sides publish the same batches, so equal epochs hold
                // equal graphs; across a publish the transcripts may differ.
                if let (Some((ea, _)), Some((eb, _))) = (&a, &b) {
                    if ea == eb {
                        same_transcripts(out, &goal, a, b);
                    }
                }
                round += 1;
            }
        });
        out.absorb(wout);
        trace.absorb_publishes(writer_trace);
        twin_log.publishes = ulog.publishes;
        self.layer_report(out, &trace, &registry, &before, &twin_log);
    }

    /// Emits the per-layer metrics.  A time a workload's loop leaves without
    /// samples (its layer idles there) comes from a fixed probe on the
    /// session corpus — a dozen traced sessions, then publishes up to the
    /// first checkpoint on a second stack — and is flagged as such.
    fn layer_report(
        &self,
        out: &mut Outcome,
        trace: &LayerTrace,
        registry: &MetricsRegistry,
        before: &MetricsSnapshot,
        twin: &Twin,
    ) {
        let after = registry.snapshot();
        let delta = Delta {
            before,
            after: &after,
        };
        let mut metrics = trace.metrics(&delta, twin);
        if metrics.iter().any(|m| m.unit == "ms" && m.samples == 0) {
            let probe = self.probe(out);
            for metric in metrics
                .iter_mut()
                .filter(|m| m.unit == "ms" && m.samples == 0)
            {
                if let Some(p) = probe.iter().find(|p| p.name == metric.name) {
                    *metric = p.clone();
                    metric.note = " [probe]";
                }
            }
        }
        for metric in metrics {
            out.metric(metric);
        }
    }

    fn probe(&self, out: &mut Outcome) -> Vec<Metric> {
        let reads = corpus::warm_queries();
        let registry = Arc::new(MetricsRegistry::enabled());
        let graph = corpus::session_graph();
        let mut goals = GoalStream::new(&graph, self.seed);
        let batches = corpus::update_batches(&graph, 4, 40, self.seed ^ BATCH_SEED);
        // Sessions on the corpus as generated, publishes on a second stack
        // with a cold word cache: each half stays cheap.
        let sessions = VersionedStore::new(builder(graph.clone(), Some(&registry)).build_core());
        warm_words(&sessions.latest());
        let Some((_dir, store)) = durable("probe", builder(graph, Some(&registry)), out) else {
            return Vec::new();
        };
        warm_reads(&store, &reads, out);
        let mut trace = LayerTrace::default();
        let before = registry.snapshot();
        let (mut replica, mut checker) = (Replica::default(), Checker::default());
        for _ in 0..PROBE_SESSIONS {
            traced_session(
                &sessions,
                goals.next_goal(),
                &mut replica,
                &mut trace,
                &mut checker,
                out,
            );
        }
        let mut log = PublishLog::default();
        for batch in &batches {
            traced_publish_cycle(
                &store,
                batch,
                &reads,
                Instant::now(),
                &mut log,
                &mut trace,
                out,
            );
            if registry
                .snapshot()
                .counter("gps_store_checkpoints_total")
                .unwrap_or(0)
                > 1
            {
                break;
            }
        }
        let after = registry.snapshot();
        trace.metrics(
            &Delta {
                before: &before,
                after: &after,
            },
            &Twin::default(),
        )
    }
}

/// The order of the traced and the untraced side in one round (`true` is the
/// traced side); it alternates so order effects favour neither.
fn alternate(round: usize) -> [bool; 2] {
    let traced_first = round.is_multiple_of(2);
    [traced_first, !traced_first]
}

/// Runs `publish` once per `SERVE_PERIOD`, each due at its slot whether or
/// not the previous one finished in time, until `deadline` (a writer that
/// fell behind does not run past it).
fn open_loop(
    start: Instant,
    deadline: Instant,
    batches: &[Vec<UpdateOp>],
    mut publish: impl FnMut(&[UpdateOp], Instant) -> bool,
) {
    for (k, batch) in batches.iter().enumerate() {
        let due = start + SERVE_PERIOD * k as u32;
        if due >= deadline || Instant::now() >= deadline {
            return;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if !publish(batch, due) {
            return;
        }
    }
}

fn same_transcripts(
    out: &mut Outcome,
    goal: &str,
    a: Option<(u64, String)>,
    b: Option<(u64, String)>,
) {
    if let (Some((_, a)), Some((_, b))) = (a, b) {
        out.record(if a == b {
            Ok(())
        } else {
            Err(format!(
                "goal {goal}: traced transcript differs from the untraced one"
            ))
        });
    }
}
