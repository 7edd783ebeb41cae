//! Resume conformance — the resumed seed must be indistinguishable from
//! starting over.
//!
//! Property: across chained random mixed insert+delete epochs, the
//! [`EvalResume`] produced by `resume` — the per-state alive words — equals
//! a from-scratch captured evaluation on the patched graph, and the answer
//! equals a cold evaluation.  Checked under both frontier backends
//! ([`FrontierPolicy::Dense`] and [`FrontierPolicy::Sparse`]) with a
//! deterministic xorshift generator (no external RNG dependency).

use gps_automata::{Dfa, Regex};
use gps_exec::frontier::{evaluate_captured, resume, Scratch};
use gps_exec::planner::Plan;
use gps_exec::{FrontierPolicy, LabelIndex};
use gps_graph::{CsrGraph, DeltaGraph, Edge, Graph, GraphBackend, LabelId, NodeId};
use std::sync::Arc;

/// xorshift64* — deterministic, dependency-free.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

const NODES: usize = 60;
const EDGES: usize = 150;
const EPOCHS: usize = 4;
const REMOVALS_PER_EPOCH: usize = 3;
const ADDS_PER_EPOCH: usize = 3;

fn random_graph(rng: &mut XorShift) -> Graph {
    let mut g = Graph::new();
    for i in 0..NODES {
        g.add_node(format!("n{i}"));
    }
    for _ in 0..EDGES {
        let s = NodeId::from(rng.below(NODES));
        let t = NodeId::from(rng.below(NODES));
        let label = ["a", "b", "c"][rng.below(3)];
        g.add_edge_by_name(s, label, t);
    }
    g
}

fn query_set(g: &Graph) -> Vec<Dfa> {
    let a = Regex::symbol(g.label_id("a").unwrap());
    let b = Regex::symbol(g.label_id("b").unwrap());
    let c = Regex::symbol(g.label_id("c").unwrap());
    [
        a.clone(),
        Regex::concat([a.clone(), b.clone()]),
        Regex::star(a.clone()),
        Regex::concat([Regex::star(a.clone()), b.clone()]),
        Regex::concat([Regex::star(Regex::union([a.clone(), b.clone()])), c.clone()]),
        Regex::concat([c.clone(), Regex::star(Regex::union([a.clone(), b.clone()]))]),
        Regex::concat([a, Regex::concat([b, c])]),
    ]
    .iter()
    .map(Dfa::from_regex)
    .collect()
}

/// Picks `count` distinct existing edges of `snapshot` to remove.
fn pick_removals(snapshot: &CsrGraph, rng: &mut XorShift, count: usize) -> Vec<Edge> {
    let all: Vec<Edge> = snapshot.edges_by_source().map(|(_, edge)| edge).collect();
    let mut picked: Vec<Edge> = Vec::new();
    let mut guard = 0;
    while picked.len() < count && guard < 100 {
        guard += 1;
        let edge = all[rng.below(all.len())];
        if !picked
            .iter()
            .any(|e| e.source == edge.source && e.label == edge.label && e.target == edge.target)
        {
            picked.push(edge);
        }
    }
    picked
}

fn chained_epochs_reproduce_fresh_captures(policy: FrontierPolicy, seed: u64) {
    let mut rng = XorShift(seed);
    let graph = random_graph(&mut rng);
    let queries = query_set(&graph);
    let labels: Vec<LabelId> = ["a", "b", "c"]
        .iter()
        .map(|name| graph.label_id(name).unwrap())
        .collect();

    let mut base = Arc::new(CsrGraph::from_graph(&graph));
    let mut index = LabelIndex::from_backend(&*base);
    let mut scratch = Scratch::with_policy(policy);
    let mut seeds: Vec<_> = queries
        .iter()
        .map(|dfa| {
            let (_, _, resume) = evaluate_captured(&index, dfa, Plan::Bidirectional, &mut scratch);
            resume.expect("capturing evaluations always produce a seed")
        })
        .collect();

    for epoch in 1..=EPOCHS {
        let mut delta = DeltaGraph::new(Arc::clone(&base));
        let fresh = delta.add_node(format!("fresh{epoch}"));
        delta.add_edge(fresh, labels[rng.below(labels.len())], {
            NodeId::from(rng.below(base.node_count()))
        });
        for _ in 0..ADDS_PER_EPOCH {
            let s = NodeId::from(rng.below(base.node_count()));
            let t = NodeId::from(rng.below(base.node_count()));
            delta.add_edge(s, labels[rng.below(labels.len())], t);
        }
        for edge in pick_removals(&base, &mut rng, REMOVALS_PER_EPOCH) {
            assert!(delta.remove_edge(edge.source, edge.label, edge.target));
        }
        let summary = delta.delta();
        assert!(!summary.removed_edges.is_empty(), "epoch {epoch} removes");
        let compacted = delta.compact();
        let patched = index.apply_delta(&summary, compacted.node_count(), compacted.label_count());

        for (dfa, seed) in queries.iter().zip(seeds.iter_mut()) {
            // Limit 1.0 never bails: the resume must succeed on every delta.
            let (answer, _, _, next) = resume(&patched, dfa, seed, &summary, &mut scratch, 1.0)
                .expect("limit 1.0 never falls back");
            assert_eq!(
                answer,
                gps_rpq::eval::evaluate(&compacted, dfa),
                "{policy:?}, epoch {epoch}: resumed answer diverged from cold"
            );
            // The resumed seed's alive words must be identical to capturing
            // from scratch on the patched graph.
            let (_, _, fresh_seed) =
                evaluate_captured(&patched, dfa, Plan::Bidirectional, &mut scratch);
            assert_eq!(
                next,
                fresh_seed.expect("fresh capture"),
                "{policy:?}, epoch {epoch}: resumed alive words diverged from a fresh capture"
            );
            *seed = next;
        }

        base = Arc::new(compacted);
        index = patched;
    }
}

#[test]
fn dense_backend_chained_mixed_epochs() {
    chained_epochs_reproduce_fresh_captures(FrontierPolicy::Dense, 0xA11CE);
}

#[test]
fn sparse_backend_chained_mixed_epochs() {
    chained_epochs_reproduce_fresh_captures(FrontierPolicy::Sparse, 0x0B0B_5EED);
}
