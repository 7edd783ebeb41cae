//! Per-layer attribution from outside the program: timing wrappers around the
//! `Strategy` and `User` objects a session calls back into, replicas of pure
//! public functions replayed on the side, and telemetry deltas.

use crate::stats::{Delta, Samples};
use crate::Metric;
use gps_core::prelude::*;
use gps_graph::{Neighborhood, Word};
use gps_interactive::strategy::StrategyContext;
use std::time::{Duration, Instant};

/// Wraps the configured strategy: times `propose` and keeps a copy of the
/// examples and coverage it was shown, so the session's end-of-step pruning
/// and learning can be replayed on the side after `step` returns.
pub struct TimedStrategy {
    inner: Box<dyn Strategy<CsrGraph> + Send>,
    pub propose: Duration,
    /// Time spent taking the copy (bench cost inside the step).
    pub capture: Duration,
    pub captured: Option<(ExampleSet, NegativeCoverage)>,
}

impl TimedStrategy {
    pub fn new(inner: Box<dyn Strategy<CsrGraph> + Send>) -> Self {
        Self {
            inner,
            propose: Duration::ZERO,
            capture: Duration::ZERO,
            captured: None,
        }
    }
}

impl Strategy<CsrGraph> for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(&mut self, ctx: &StrategyContext<'_, CsrGraph>) -> Option<NodeId> {
        let started = Instant::now();
        let node = self.inner.propose(ctx);
        self.propose += started.elapsed();
        let started = Instant::now();
        self.captured = Some((ctx.examples.clone(), ctx.coverage.clone()));
        self.capture += started.elapsed();
        node
    }
}

/// Wraps the simulated user: the load generator's own cost inside a step.
pub struct TimedUser {
    inner: SimulatedUser,
    pub spent: Duration,
}

impl TimedUser {
    pub fn new(inner: SimulatedUser) -> Self {
        Self {
            inner,
            spent: Duration::ZERO,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut SimulatedUser) -> T) -> T {
        let started = Instant::now();
        let out = f(&mut self.inner);
        self.spent += started.elapsed();
        out
    }
}

impl User<CsrGraph> for TimedUser {
    fn label_node(&mut self, graph: &CsrGraph, node: NodeId, hood: &Neighborhood) -> UserResponse {
        self.timed(|user| user.label_node(graph, node, hood))
    }

    fn validate_path(
        &mut self,
        graph: &CsrGraph,
        node: NodeId,
        candidates: &[Word],
        suggested: &Word,
    ) -> Word {
        self.timed(|user| user.validate_path(graph, node, candidates, suggested))
    }

    fn satisfied_with(&mut self, graph: &CsrGraph, hypothesis: &LearnedQuery) -> bool {
        self.timed(|user| User::<CsrGraph>::satisfied_with(user, graph, hypothesis))
    }
}

/// Everything the traced run measures itself (the registry supplies the
/// rest).
#[derive(Default)]
pub struct LayerTrace {
    pub steps: Samples,
    pub propose: Samples,
    pub prune: Samples,
    pub learn: Samples,
    pub user: Samples,
    pub open: Samples,
    pub step_rest: Samples,
    pub interactions: u64,
    pub zooms: u64,
    pub publishes: Samples,
    pub stage: Samples,
    pub resolve: Samples,
    pub compact: Samples,
    pub inherit: Samples,
    pub publish_rest: Samples,
    pub lag: Samples,
    /// Carried, reseeded, delete-reseeded and recomputed answers.
    pub migrated: [u64; 4],
    pub live_epochs_max: u64,
}

impl LayerTrace {
    /// Takes over the publish-side figures of a writer thread's trace.
    pub fn absorb_publishes(&mut self, writer: LayerTrace) {
        self.publishes = writer.publishes;
        self.stage = writer.stage;
        self.resolve = writer.resolve;
        self.compact = writer.compact;
        self.inherit = writer.inherit;
        self.publish_rest = writer.publish_rest;
        self.lag = writer.lag;
        self.migrated = writer.migrated;
        self.live_epochs_max = self.live_epochs_max.max(writer.live_epochs_max);
    }

    /// Folds the per-layer figures into metrics, given the registry delta
    /// over the same interval and the untraced twin's medians for the
    /// overhead ratio.
    pub fn metrics(&self, delta: &Delta, twin: &Twin) -> Vec<Metric> {
        let mut out = Vec::new();
        let mut ms = |name: &str, s: &Samples| {
            out.push(Metric::new(name, "ms", s.quantile(0.5), s.len()));
        };
        ms("interactive.propose_ms_p50", &self.propose);
        ms("interactive.prune_refresh_ms_p50", &self.prune);
        ms("learner.learn_ms_p50", &self.learn);
        ms("bench.user_ms_p50", &self.user);
        ms("rpq.words_inherit_ms_p50", &self.inherit);
        ms("graph.resolve_ms_p50", &self.resolve);
        ms("graph.compact_ms_p50", &self.compact);
        ms("core.open_ms_p50", &self.open);
        ms("core.stage_ms_p50", &self.stage);
        ms("core.step_unattributed_ms_p50", &self.step_rest);
        ms("core.publish_unattributed_ms_p50", &self.publish_rest);
        ms("bench.publish_lag_ms_p50", &self.lag);

        let hist = |name: &str| delta.hist(name);
        let mut hist_ms = |metric: &str, h: crate::stats::HistDelta| {
            out.push(Metric::new(metric, "ms", h.p50_ms(), h.count as usize));
        };
        hist_ms("rpq.eval_ms_p50", hist("gps_rpq_eval_latency_ns"));
        hist_ms(
            "rpq.reseed_ms_p50",
            hist("gps_rpq_reseed_latency_ns").merge(&hist("gps_rpq_delete_reseed_latency_ns")),
        );
        hist_ms("exec.eval_ms_p50", hist("gps_exec_eval_latency_ns"));
        hist_ms("exec.index_patch_ms_p50", hist("gps_exec_index_build_ns"));
        hist_ms("store.fsync_ms_p50", hist("gps_store_fsync_latency_ns"));
        hist_ms(
            "store.checkpoint_ms_p50",
            hist("gps_store_checkpoint_latency_ns"),
        );

        let steps = self.steps.len();
        let publishes = self.publishes.len();
        let mut count = |name: &str, value: u64, n: usize| {
            out.push(Metric::new(name, "count", value as f64, n));
        };
        for (metric, series) in [
            (
                "interactive.prune_full_sweeps",
                "gps_interactive_pruning_full_sweeps_total",
            ),
            (
                "interactive.prune_incremental_refreshes",
                "gps_interactive_pruning_incremental_refreshes_total",
            ),
            (
                "interactive.prune_foreign_rescans",
                "gps_interactive_pruning_foreign_rescans_total",
            ),
        ] {
            count(metric, delta.counter(series), steps);
        }
        let (hits, misses) = (
            delta.counter("gps_rpq_cache_hits_total"),
            delta.counter("gps_rpq_cache_misses_total"),
        );
        count("rpq.cache_misses", misses, (hits + misses) as usize);
        count(
            "rpq.cache_evictions",
            delta.counter("gps_rpq_cache_evictions_total"),
            0,
        );
        count(
            "rpq.word_evictions",
            delta.counter("gps_rpq_cache_word_evictions_total"),
            0,
        );
        let evals = delta.counter("gps_exec_evals_total");
        count("exec.evals", evals, evals as usize);
        count(
            "exec.support_overdeleted",
            delta.counter("gps_exec_support_overdeleted_total"),
            publishes,
        );
        count(
            "store.checkpoints",
            delta.counter("gps_store_checkpoints_total"),
            publishes,
        );
        count(
            "core.live_epochs_max",
            self.live_epochs_max,
            steps + publishes,
        );
        out.push(Metric::new(
            "store.wal_bytes",
            "B",
            delta.counter("gps_store_wal_bytes_total") as f64,
            publishes,
        ));

        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut share = |name: &str, value: f64, n: usize| {
            out.push(Metric::new(name, "ratio", value, n));
        };
        share(
            "interactive.zooms_per_interaction",
            ratio(self.zooms as f64, self.interactions as f64),
            self.interactions as usize,
        );
        share(
            "rpq.cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            (hits + misses) as usize,
        );
        let [carried, reseeded, delete_reseeded, recomputed] = self.migrated;
        let migrated = carried + reseeded + delete_reseeded + recomputed;
        share(
            "rpq.migrate_useful_ratio",
            ratio(
                (carried + reseeded + delete_reseeded) as f64,
                migrated as f64,
            ),
            migrated as usize,
        );
        share(
            "exec.rounds_per_eval",
            ratio(
                delta.counter("gps_exec_frontier_rounds_total") as f64,
                evals as f64,
            ),
            evals as usize,
        );
        share(
            "telemetry.overhead_ratio",
            twin.overhead(self),
            twin.samples(),
        );
        out
    }
}

/// The untraced twin stack run interleaved with the traced one: its medians
/// are the denominators of `telemetry.overhead_ratio`.
#[derive(Default)]
pub struct Twin {
    pub steps: Samples,
    pub publishes: Samples,
}

impl Twin {
    fn samples(&self) -> usize {
        self.steps.len() + self.publishes.len()
    }

    /// Traced over untraced median, per primary operation; the geometric
    /// mean when a workload has both steps and publishes.
    fn overhead(&self, traced: &LayerTrace) -> f64 {
        let ratios: Vec<f64> = [
            (&traced.steps, &self.steps),
            (&traced.publishes, &self.publishes),
        ]
        .into_iter()
        .filter(|(t, u)| t.len() > 0 && u.len() > 0)
        .map(|(t, u)| t.quantile(0.5) / u.quantile(0.5))
        .collect();
        if ratios.is_empty() {
            return 0.0;
        }
        ratios
            .iter()
            .product::<f64>()
            .powf(1.0 / ratios.len() as f64)
    }
}
