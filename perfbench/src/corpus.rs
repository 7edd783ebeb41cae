//! Seeded inputs: corpora, goal streams, the warm query set and update
//! batches.  The program under test receives only these.

use gps_core::prelude::*;
use gps_datasets::queries::batch_workload;
use gps_datasets::scale_free::{generate, ScaleFreeConfig};
use gps_datasets::updates::{update_stream, UpdateStreamConfig};
use gps_graph::UpdateOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct goals in the pool (5 templates x 4 labels repeat after 20).
const GOAL_POOL: usize = 20;

/// The corpora are generated from this fixed seed; the workload seed drives
/// the goal and update streams.  Corpus-to-corpus differences (one graph
/// makes a goal need 40 interactions, another 3) moved the session
/// throughput by more than any useful regression bound.
const CORPUS_SEED: u64 = 1;

/// The read-side corpus of `specify` and `serve-mixed`: 100k nodes, 2 edges
/// per node, 4 skewed labels.
pub fn session_graph() -> Graph {
    generate(&ScaleFreeConfig {
        nodes: 100_000,
        edges_per_node: 2,
        alphabet_size: 4,
        skewed_labels: true,
        seed: CORPUS_SEED,
    })
}

/// The write-side corpus of `ingest`: 250k nodes, 4 edges per node, 8
/// skewed labels.
pub fn ingest_graph() -> Graph {
    generate(&ScaleFreeConfig {
        nodes: 250_000,
        edges_per_node: 4,
        alphabet_size: 8,
        skewed_labels: true,
        seed: CORPUS_SEED,
    })
}

/// Sessions per deck of the goal stream.
const DECK: usize = 72;

/// An endless goal stream with Zipf popularity over the query-template pool.
/// Goal `r` of the pool has weight `1 / (r + 1)`, so the head repeats
/// (answer-cache hits) and the tail misses.  The stream deals shuffled decks
/// in which every goal appears in proportion to its weight (at least once),
/// so the seed changes the order of the goals but not their mix.
pub struct GoalStream {
    pool: Vec<String>,
    deck: Vec<usize>,
    next: usize,
    rng: StdRng,
}

impl GoalStream {
    pub fn new(graph: &Graph, seed: u64) -> Self {
        let pool: Vec<String> = batch_workload(graph, GOAL_POOL)
            .queries
            .iter()
            .map(|q| q.display(graph.labels()))
            .collect();
        let total: f64 = (0..pool.len()).map(|r| 1.0 / (r as f64 + 1.0)).sum();
        let deck = (0..pool.len())
            .flat_map(|r| {
                let share = DECK as f64 / (r as f64 + 1.0) / total;
                std::iter::repeat_n(r, (share.round() as usize).max(1))
            })
            .collect::<Vec<_>>();
        let next = deck.len();
        Self {
            pool,
            deck,
            next,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_goal(&mut self) -> &str {
        if self.next == self.deck.len() {
            // Fisher-Yates.
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                self.deck.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        &self.pool[self.deck[self.next - 1]]
    }
}

/// The 16-query warm set read after every publish, over the four most
/// frequent labels `a0..a3`.
pub fn warm_queries() -> Vec<String> {
    [
        "a0",
        "a1",
        "a2",
        "a3",
        "a0.a1",
        "a1.a2",
        "a2.a3",
        "a3.a0",
        "a0*",
        "a1*.a2",
        "(a0+a1)*.a2",
        "(a2+a3)*.a0",
        "a0.a1*",
        "(a0+a2).a3",
        "a1.a2.a3",
        "(a1+a3)*.a2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Publish batches over `graph`: a balanced insert/delete stream (deletes
/// target live edges, about one insertion in ten brings a new node), cut
/// into batches of `edge_ops` edge operations each; a new node travels in
/// the batch of the edge that introduces it.
pub fn update_batches(
    graph: &Graph,
    edge_ops: usize,
    batches: usize,
    seed: u64,
) -> Vec<Vec<UpdateOp>> {
    let ops = update_stream(
        graph,
        &UpdateStreamConfig {
            operations: edge_ops * batches,
            insert_ratio: 0.5,
            new_node_ratio: 0.1,
            seed,
        },
    );
    let mut out = Vec::with_capacity(batches);
    let mut batch = Vec::new();
    let mut edges = 0;
    for op in ops {
        let is_edge = !matches!(op, UpdateOp::AddNode(_));
        batch.push(op);
        if is_edge {
            edges += 1;
            if edges == edge_ops {
                out.push(std::mem::take(&mut batch));
                edges = 0;
            }
        }
    }
    out
}
