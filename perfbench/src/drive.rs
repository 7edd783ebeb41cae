//! The operations a workload issues against the public API — one session
//! (open, step until halt, close) and one publish cycle (stage, publish, read
//! the warm set) — untraced and traced, with their correctness checks.

use crate::stats::{cpu_time, Delta, Samples};
use crate::trace::{LayerTrace, TimedStrategy, TimedUser};
use crate::Outcome;
use gps_core::prelude::*;
use gps_graph::{DeltaGraph, UpdateOp};
use gps_interactive::pruning::PruningState;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What the untraced session client saw.
#[derive(Default)]
pub struct SessionLog {
    pub steps: Samples,
    /// Process CPU time of each step.
    pub step_cpu: Samples,
    /// Each step's CPU time over `kernel_ms`, when that is set.
    pub step_ref: Samples,
    /// The gauge's reference-kernel time at the current session.
    pub kernel_ms: Option<f64>,
    pub sessions: Samples,
    pub interactions: u64,
}

/// What the writer saw.
#[derive(Default)]
pub struct PublishLog {
    /// Stage plus publish, from when the publish was due.
    pub publishes: Samples,
    /// Process CPU time of each stage plus publish.
    pub publish_cpu: Samples,
    /// Each publish's CPU time over `kernel_ms`, when that is set.
    pub publish_ref: Samples,
    /// The gauge's reference-kernel time at the current publish.
    pub kernel_ms: Option<f64>,
    pub first_reads: Samples,
    /// How late the writer started each publish.
    pub lag: Samples,
    pub ops: u64,
    pub wal_bytes: u64,
    /// Carried, reseeded, delete-reseeded and recomputed answers.
    pub migrated: [u64; 4],
    /// Stage + publish + first read, the closed-loop writer's cycle.
    pub cycle_s: f64,
    /// Answer-cache misses of the warm reads (each epoch's cache counts its
    /// own).
    pub read_misses: u64,
}

/// Checks a converged session: it halted with `UserSatisfied` and its
/// learned query selects exactly the goal's answer on the session's
/// snapshot, both recomputed cold with the naive evaluator.
#[derive(Default)]
pub struct Checker {
    epoch: u64,
    answers: HashMap<String, QueryAnswer>,
}

impl Checker {
    fn answer(&mut self, core: &EngineCore, query: PathQuery) -> QueryAnswer {
        if self.epoch != core.epoch() {
            self.epoch = core.epoch();
            self.answers.clear();
        }
        let key = query.display(core.snapshot().labels());
        self.answers
            .entry(key)
            .or_insert_with(|| query.evaluate_csr(core.snapshot()))
            .clone()
    }

    pub fn check(
        &mut self,
        core: &EngineCore,
        goal: &str,
        outcome: &SessionOutcome,
    ) -> Result<(), String> {
        if outcome.halt_reason != HaltReason::UserSatisfied {
            return Err(format!(
                "goal {goal}: session halted with {:?}",
                outcome.halt_reason
            ));
        }
        let learned = outcome
            .learned
            .as_ref()
            .ok_or_else(|| format!("goal {goal}: satisfied without a hypothesis"))?;
        let goal_query = core.parse_query(goal).map_err(|e| e.to_string())?;
        let expected = self.answer(core, goal_query);
        let got = self.answer(core, PathQuery::new(learned.regex.clone()));
        if expected != got {
            return Err(format!(
                "goal {goal}: learned query's answer differs from the goal's"
            ));
        }
        Ok(())
    }
}

/// One session through `SessionManager`: open, step until halt, close.
/// Returns the transcript (for identity checks) when the session passed.
pub fn managed_session(
    manager: &SessionManager,
    goal: &str,
    log: &mut SessionLog,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Option<(u64, String)> {
    let before = manager.core();
    let result = (|| {
        let started = Instant::now();
        let id = manager.open(goal)?;
        let epoch = manager.session_epoch(id)?;
        loop {
            let step = Instant::now();
            let cpu = cpu_time();
            let status = manager.step(id)?;
            let cpu = cpu_time() - cpu;
            log.step_cpu.push(cpu);
            if let Some(kernel_ms) = log.kernel_ms {
                log.step_ref.push_ms(ms(cpu) / kernel_ms);
            }
            log.steps.push(step.elapsed());
            if let SessionStatus::Halted(_) = status {
                break;
            }
        }
        let outcome = manager.close(id)?;
        log.sessions.push(started.elapsed());
        Ok::<_, GpsError>((epoch, outcome))
    })();
    let verdict = result
        .map_err(|error| format!("goal {goal}: {error}"))
        .and_then(|(epoch, outcome)| {
            log.interactions += outcome.stats.interactions as u64;
            // The session's snapshot: the latest one when it opened (a
            // publish may have landed just before the open).
            let core = [before, manager.core()]
                .into_iter()
                .find(|core| core.epoch() == epoch)
                .ok_or_else(|| format!("goal {goal}: epoch {epoch} no longer reachable"))?;
            checker
                .check(&core, goal, &outcome)
                .map(|()| (epoch, format!("{:?}", outcome.transcript)))
        });
    out.record(verdict)
}

/// A replica evaluation stack over one snapshot, private to the benchmark:
/// side replays evaluate through it so they never touch the measured
/// cache or its counters.
#[derive(Default)]
pub struct Replica {
    core: Option<EngineCore>,
}

impl Replica {
    fn over(&mut self, core: &EngineCore) -> &EngineCore {
        if self.core.as_ref().is_none_or(|r| r.epoch() != core.epoch()) {
            self.core = Some(
                Engine::builder(Graph::new())
                    .eval_mode(EvalMode::Frontier)
                    .build_core_over(core.shared_snapshot()),
            );
        }
        self.core.as_ref().expect("just built")
    }
}

/// One traced session, driven through the same triple `SessionManager::open`
/// composes (`open_session`, `instantiate_strategy`, `simulated_user`) with
/// the strategy and user wrapped.  After each step the session's previous
/// end-of-step pruning refresh and learning are replayed on the side.
pub fn traced_session(
    store: &VersionedStore,
    goal: &str,
    replica: &mut Replica,
    trace: &mut LayerTrace,
    checker: &mut Checker,
    out: &mut Outcome,
) -> Option<(u64, String)> {
    let core = store.pin_latest();
    trace.live_epochs_max = trace.live_epochs_max.max(store.live_epochs() as u64);
    let verdict = traced_session_on(&core, goal, replica, trace).and_then(|outcome| {
        checker
            .check(&core, goal, &outcome)
            .map(|()| (core.epoch(), format!("{:?}", outcome.transcript)))
    });
    store.unpin(core.epoch());
    out.record(verdict)
}

fn traced_session_on(
    core: &EngineCore,
    goal: &str,
    replica: &mut Replica,
    trace: &mut LayerTrace,
) -> Result<SessionOutcome, String> {
    let started = Instant::now();
    let mut session = core.open_session();
    let mut strategy = TimedStrategy::new(core.instantiate_strategy());
    let mut user = TimedUser::new(core.simulated_user(goal).map_err(|e| e.to_string())?);
    trace.open.push(started.elapsed());

    let mut side = SideReplay {
        core,
        replica: replica.over(core).eval_handle(),
        pruning: PruningState::new(core.session_config().path_bound),
    };
    // Step time net of bench capture, propose and user, and of the replayed
    // parts known so far, in ms; the previous step's waits for its
    // end-of-step replay.
    let mut pending: Option<f64> = None;
    let mut last_seen: Option<(ExampleSet, NegativeCoverage)> = None;
    let (reason, labeled) = loop {
        let interactions = session.stats().interactions;
        let started = Instant::now();
        let halted = session.step(&mut strategy, &mut user);
        let elapsed = started.elapsed();
        let step = elapsed.saturating_sub(std::mem::take(&mut strategy.capture));
        let propose = std::mem::take(&mut strategy.propose);
        let user_time = std::mem::take(&mut user.spent);
        trace.steps.push(step);
        trace.propose.push(propose);
        trace.user.push(user_time);
        let mut rest = ms(step) - ms(propose) - ms(user_time);

        if let Some(seen) = strategy.captured.take() {
            let replayed = side.replay(session.graph(), &seen.0, &seen.1, trace);
            // What was replayed closes the previous step (or, on the first
            // step, is this step's opening refresh).
            match pending.take() {
                Some(previous) => trace.step_rest.push_ms(previous - replayed),
                None => rest -= replayed,
            }
            last_seen = Some(seen);
        }
        pending = Some(rest);
        if let Some(reason) = halted {
            break (reason, session.stats().interactions > interactions);
        }
    };
    let outcome = session.outcome(reason);
    // The final step's own end-of-step work, when it labeled a node: the
    // label applied to what the strategy last saw, as the session applies it.
    if let (true, Some((_, mut coverage)), Some(record), Some(rest)) =
        (labeled, last_seen, outcome.transcript.last(), pending)
    {
        if record.label == Label::Negative {
            let words = core.eval_handle().bounded_words(coverage.bound());
            coverage.add_negative_with_words(record.node, &words[record.node.index()]);
        }
        let replayed = side.replay(session.graph(), session.examples(), &coverage, trace);
        trace.step_rest.push_ms(rest - replayed);
    }
    trace.interactions += outcome.stats.interactions as u64;
    trace.zooms += outcome.stats.zooms as u64;
    Ok(outcome)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays a session's end-of-step pruning refresh and learning on a
/// bench-held pruning state and the replica stack.
struct SideReplay<'a> {
    core: &'a EngineCore,
    replica: gps_rpq::EvalHandle,
    pruning: PruningState,
}

impl SideReplay<'_> {
    /// Returns the replayed time in ms.
    fn replay(
        &mut self,
        graph: &CsrGraph,
        examples: &ExampleSet,
        coverage: &NegativeCoverage,
        trace: &mut LayerTrace,
    ) -> f64 {
        // The first refresh is the baseline copy of the shared per-snapshot
        // word counts; later ones are incremental sweeps.
        let exec = if coverage.version() == 0 {
            self.core.eval_handle()
        } else {
            self.replica.clone()
        };
        let started = Instant::now();
        self.pruning.refresh_with(graph, examples, coverage, &exec);
        let prune = started.elapsed();
        trace.prune.push(prune);
        let mut replayed = ms(prune);
        if examples.positive_count() > 0 {
            let started = Instant::now();
            let _ = self
                .core
                .learner()
                .learn_with(graph, examples, coverage, &self.replica);
            let learn = started.elapsed();
            trace.learn.push(learn);
            replayed += ms(learn);
        }
        replayed
    }
}

/// The warm set read on the latest epoch.
fn read_warm(store: &VersionedStore, reads: &[String]) -> Result<Vec<QueryAnswer>, GpsError> {
    let core = store.latest();
    reads.iter().map(|q| core.evaluate(q)).collect()
}

fn record_report(log: &mut PublishLog, batch: &[UpdateOp], report: &PublishReport) {
    log.ops += batch.len() as u64;
    log.wal_bytes += report.durability.wal_bytes;
    for (slot, n) in log.migrated.iter_mut().zip([
        report.carried_answers,
        report.reseeded_answers,
        report.delete_reseeded_answers,
        report.recomputed_answers,
    ]) {
        *slot += n as u64;
    }
}

/// One publish cycle: stage the batch, publish it, read the warm set on the
/// new epoch.  `due` is when the writer meant to start.  Returns the warm
/// answers.
pub fn publish_cycle(
    store: &VersionedStore,
    batch: &[UpdateOp],
    reads: &[String],
    due: Instant,
    log: &mut PublishLog,
    out: &mut Outcome,
) -> Option<Vec<QueryAnswer>> {
    let result = (|| {
        log.lag.push(due.elapsed());
        let cpu = cpu_time();
        store.stage(GraphUpdate::from_ops(batch.to_vec()))?;
        let report = store.publish()?;
        let cpu = cpu_time() - cpu;
        log.publish_cpu.push(cpu);
        if let Some(kernel_ms) = log.kernel_ms {
            log.publish_ref.push_ms(ms(cpu) / kernel_ms);
        }
        log.publishes.push(due.elapsed());
        let read = Instant::now();
        let answers = read_warm(store, reads)?;
        log.first_reads.push(read.elapsed());
        log.cycle_s += due.elapsed().as_secs_f64();
        log.read_misses += store.latest().eval_cache().stats().1;
        record_report(log, batch, &report);
        Ok::<_, GpsError>(answers)
    })();
    out.record(result.map_err(|e| format!("publish: {e}")))
}

/// A traced publish cycle.  Before the publish, the graph layer
/// (`DeltaGraph` resolve and compaction) and word inheritance are replayed on
/// the pre-publish base; around it, registry deltas attribute index patch,
/// reseeds, fsync and checkpoint time.
pub fn traced_publish_cycle(
    store: &VersionedStore,
    batch: &[UpdateOp],
    reads: &[String],
    due: Instant,
    log: &mut PublishLog,
    trace: &mut LayerTrace,
    out: &mut Outcome,
) -> Option<Vec<QueryAnswer>> {
    let result = (|| {
        let lag = due.elapsed();
        let base = store.latest();
        let replay = Instant::now();
        let mut overlay = DeltaGraph::new(base.shared_snapshot());
        overlay.apply_all(batch)?;
        let resolve = replay.elapsed();
        let replay = Instant::now();
        let delta = overlay.delta();
        let compacted = overlay.compact();
        let compact = replay.elapsed();
        drop(overlay);
        let throwaway = gps_rpq::EvalCache::from_csr(compacted);
        let replay = Instant::now();
        throwaway.inherit_words(base.eval_cache(), &delta);
        let inherit = replay.elapsed();
        drop((throwaway, base));

        let registry = store.metrics_registry();
        let before = registry.snapshot();
        let started = Instant::now();
        store.stage(GraphUpdate::from_ops(batch.to_vec()))?;
        let stage = started.elapsed();
        let report = store.publish()?;
        let total = started.elapsed();
        let after = registry.snapshot();
        log.publishes.push(lag + total);
        let read = Instant::now();
        let answers = read_warm(store, reads)?;
        log.first_reads.push(read.elapsed());
        record_report(log, batch, &report);

        let d = Delta {
            before: &before,
            after: &after,
        };
        let recorded_ms = [
            "gps_exec_index_build_ns",
            "gps_rpq_reseed_latency_ns",
            "gps_rpq_delete_reseed_latency_ns",
            "gps_store_fsync_latency_ns",
            "gps_store_checkpoint_latency_ns",
        ]
        .iter()
        .map(|name| d.hist(name).sum_ms())
        .sum::<f64>();
        trace.lag.push(lag);
        trace.publishes.push(total);
        trace.stage.push(stage);
        trace.resolve.push(resolve);
        trace.compact.push(compact);
        trace.inherit.push(inherit);
        trace
            .publish_rest
            .push_ms(ms(total) - ms(stage) - ms(resolve) - ms(compact) - ms(inherit) - recorded_ms);
        for (slot, n) in trace.migrated.iter_mut().zip([
            report.carried_answers,
            report.reseeded_answers,
            report.delete_reseeded_answers,
            report.recomputed_answers,
        ]) {
            *slot += n as u64;
        }
        trace.live_epochs_max = trace.live_epochs_max.max(store.live_epochs() as u64);
        Ok::<_, GpsError>(answers)
    })();
    out.record(result.map_err(|e| format!("publish: {e}")))
}
