//! MVCC conformance suite — the contract of the epoch-versioned live store:
//!
//! 1. **Compaction is exact.**  Any random insert/delete sequence applied
//!    through a [`DeltaGraph`] and [`compact`](DeltaGraph::compact)ed yields
//!    a snapshot byte-identical to a from-scratch [`Graph`] → [`CsrGraph`]
//!    build of the surviving edges (names, labels, adjacency order, edge
//!    ids, both directions) — including across chained compactions.
//! 2. **Pinned sessions are byte-stable.**  A session opened before a
//!    publish replays exactly the transcript it would have produced had the
//!    publish never happened, across every [`EvalMode`], while the publish
//!    lands mid-run.
//! 3. **New sessions observe the update.**  Sessions (and plain reads)
//!    opened after a publish run on the new epoch and see the inserted
//!    edges, across every [`EvalMode`].
//! 4. **The node-name table is isolated.**  Epochs share their name table,
//!    yet a failed batch, a sibling overlay or a crash and recovery never
//!    changes the names any epoch sees.

use gps_core::prelude::*;
use gps_core::service::GpsService;
use gps_core::versioned::{GraphUpdate, VersionedStore};
use gps_datasets::figure1::{figure1_graph, MOTIVATING_QUERY};
use gps_exec::{Direction, LabelIndex};
use gps_graph::delta::UpdateOp;
use gps_graph::DeltaGraph;
use gps_interactive::session::InteractionRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const MODES: [EvalMode; 3] = [EvalMode::Naive, EvalMode::Frontier, EvalMode::Parallel];

// ------------------------------------------------------ 1. compaction exact

/// The shadow model: node names in insertion order, label names in interner
/// order, surviving edges (by name triple) in insertion order.
#[derive(Debug, Clone, Default)]
struct Shadow {
    nodes: Vec<String>,
    labels: Vec<String>,
    edges: Vec<(usize, usize, usize)>, // (node idx, label idx, node idx)
}

impl Shadow {
    fn from_graph(graph: &Graph) -> Self {
        Self {
            nodes: graph
                .nodes()
                .map(|n| graph.node_name(n).to_string())
                .collect(),
            labels: graph
                .labels()
                .iter()
                .map(|(_, name)| name.to_string())
                .collect(),
            edges: graph
                .edges()
                .map(|(_, e)| (e.source.index(), e.label.index(), e.target.index()))
                .collect(),
        }
    }

    /// Rebuilds the expected snapshot from scratch.
    fn build(&self) -> CsrGraph {
        let mut g = Graph::new();
        for label in &self.labels {
            g.label(label);
        }
        for name in &self.nodes {
            g.add_node(name.clone());
        }
        for &(source, label, target) in &self.edges {
            g.add_edge(
                NodeId::from(source),
                LabelId::from(label),
                NodeId::from(target),
            );
        }
        CsrGraph::from_graph(&g)
    }
}

fn assert_snapshots_identical(got: &CsrGraph, want: &CsrGraph, context: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{context}: node count");
    assert_eq!(got.edge_count(), want.edge_count(), "{context}: edge count");
    assert_eq!(got.labels(), want.labels(), "{context}: interner");
    for node in want.nodes() {
        assert_eq!(
            got.node_name(node),
            want.node_name(node),
            "{context}: name of {node}"
        );
        assert_eq!(got.out(node), want.out(node), "{context}: out({node})");
        assert_eq!(got.inc(node), want.inc(node), "{context}: inc({node})");
        let got_out: Vec<(EdgeId, Edge)> = GraphBackend::out_edges(got, node).collect();
        let want_out: Vec<(EdgeId, Edge)> = GraphBackend::out_edges(want, node).collect();
        assert_eq!(got_out, want_out, "{context}: out edge ids of {node}");
        let got_in: Vec<(EdgeId, Edge)> = GraphBackend::in_edges(got, node).collect();
        let want_in: Vec<(EdgeId, Edge)> = GraphBackend::in_edges(want, node).collect();
        assert_eq!(got_in, want_in, "{context}: in edge ids of {node}");
    }
    for name in want.nodes().map(|n| want.node_name(n)) {
        assert_eq!(
            got.node_by_name(name),
            want.node_by_name(name),
            "{context}: lookup of {name}"
        );
    }
}

fn random_base(rng: &mut StdRng) -> Graph {
    let mut g = Graph::new();
    for label in ["x", "y", "z"] {
        g.label(label);
    }
    let n = rng.gen_range(1..=10usize);
    for i in 0..n {
        // Deliberately collide some names so first-wins lookup is exercised.
        g.add_node(format!("n{}", i % 7));
    }
    let m = rng.gen_range(0..=24usize);
    for _ in 0..m {
        let s = NodeId::from(rng.gen_range(0..n));
        let t = NodeId::from(rng.gen_range(0..n));
        let l = LabelId::from(rng.gen_range(0..3usize));
        g.add_edge(s, l, t);
    }
    g
}

/// Applies one random op to both the delta graph and the shadow model.
fn random_op(rng: &mut StdRng, delta: &mut DeltaGraph, shadow: &mut Shadow, fresh: &mut usize) {
    match rng.gen_range(0..10u32) {
        // Insert a node (20%).
        0..=1 => {
            let name = format!("f{}", *fresh);
            *fresh += 1;
            delta.add_node(name.clone());
            shadow.nodes.push(name);
        }
        // Insert an edge (40%), sometimes with a brand-new label.
        2..=5 => {
            let s = rng.gen_range(0..shadow.nodes.len());
            let t = rng.gen_range(0..shadow.nodes.len());
            let label_name = if rng.gen_range(0..8u32) == 0 {
                format!("l{}", rng.gen_range(0..2u32))
            } else {
                shadow.labels[rng.gen_range(0..shadow.labels.len())].clone()
            };
            let label = delta.label(&label_name);
            if label.index() == shadow.labels.len() {
                shadow.labels.push(label_name);
            }
            delta.add_edge(NodeId::from(s), label, NodeId::from(t));
            shadow.edges.push((s, label.index(), t));
        }
        // Delete an edge (40%): first surviving occurrence of the triple.
        _ => {
            if shadow.edges.is_empty() {
                return;
            }
            let (s, l, t) = shadow.edges[rng.gen_range(0..shadow.edges.len())];
            assert!(delta.remove_edge(NodeId::from(s), LabelId::from(l), NodeId::from(t)));
            let first = shadow
                .edges
                .iter()
                .position(|&e| e == (s, l, t))
                .expect("sampled from the live set");
            shadow.edges.remove(first);
        }
    }
}

#[test]
fn compacted_delta_graphs_equal_from_scratch_builds() {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAFE);
    for trial in 0..40 {
        let base = random_base(&mut rng);
        let mut shadow = Shadow::from_graph(&base);
        let mut snapshot = Arc::new(CsrGraph::from_graph(&base));
        let mut fresh = 0usize;
        // Two rounds of (random ops → compact) chained, so epoch N+1 builds
        // on a compacted epoch N, not only on a fresh snapshot.
        for round in 0..2 {
            let mut delta = DeltaGraph::new(Arc::clone(&snapshot));
            for _ in 0..rng.gen_range(1..=12usize) {
                random_op(&mut rng, &mut delta, &mut shadow, &mut fresh);
            }
            let compacted = delta.compact();
            assert_snapshots_identical(
                &compacted,
                &shadow.build(),
                &format!("trial {trial}, round {round}"),
            );
            assert_eq!(compacted.epoch(), round + 1, "trial {trial}");
            snapshot = Arc::new(compacted);
        }
    }
}

/// One overlay step of a splice edge case (node indices, label names).
#[derive(Debug, Clone, Copy)]
enum Step {
    Node(&'static str),
    Add(usize, &'static str, usize),
    Remove(usize, &'static str, usize),
}

/// Six nodes `a0..a5`; edge ids in insertion order, so `a0 -x-> a1` is edge
/// 0 (with a parallel duplicate, edge 1) and `a5 -x-> a1` the last edge.
fn splice_base() -> Graph {
    let mut g = Graph::new();
    let a: Vec<NodeId> = (0..6).map(|i| g.add_node(format!("a{i}"))).collect();
    for (s, label, t) in [
        (0, "x", 1),
        (0, "x", 1),
        (1, "y", 2),
        (1, "x", 3),
        (1, "x", 4),
        (3, "y", 0),
        (4, "x", 5),
        (5, "y", 0),
        (5, "x", 1),
    ] {
        g.add_edge_by_name(a[s], label, a[t]);
    }
    g
}

/// Forward and reverse partitions must be identical to a fresh build's: a
/// reverse partition lists each node's sources in ascending order, and the
/// patch merges insertions into that order.
fn assert_indexes_equal(got: &LabelIndex, want: &LabelIndex, context: &str) {
    assert_eq!(
        got.node_count(),
        want.node_count(),
        "{context}: index nodes"
    );
    assert_eq!(got.label_count(), want.label_count(), "{context}: labels");
    for label in (0..want.label_count()).map(LabelId::from) {
        assert_eq!(
            got.label_edge_count(label),
            want.label_edge_count(label),
            "{context}: edges of {label:?}"
        );
        for node in 0..want.node_count() {
            assert_eq!(
                got.neighbors(Direction::Forward, label, node),
                want.neighbors(Direction::Forward, label, node),
                "{context}: forward {label:?} of node {node}"
            );
            assert_eq!(
                got.neighbors(Direction::Reverse, label, node),
                want.neighbors(Direction::Reverse, label, node),
                "{context}: reverse {label:?} of node {node}"
            );
        }
    }
}

#[test]
fn splice_edge_cases_match_from_scratch_builds() {
    use Step::{Add, Node, Remove};
    let cases: [(&str, Vec<Step>); 8] = [
        (
            "changes at node 0 and at the last node",
            vec![
                Add(0, "y", 5),
                Remove(5, "x", 1),
                Add(5, "x", 0),
                Remove(3, "y", 0),
            ],
        ),
        (
            "edges on added nodes beyond the old coverage",
            vec![
                Node("b0"),
                Node("b1"),
                Node("b2"),
                Add(7, "x", 8),
                Add(8, "y", 0),
                Add(2, "x", 8),
                Add(8, "x", 8),
            ],
        ),
        (
            "a label first interned in this delta",
            vec![Add(1, "w", 3), Add(3, "w", 1), Add(3, "w", 1)],
        ),
        (
            "every edge of a node removed",
            vec![
                Remove(1, "y", 2),
                Remove(1, "x", 3),
                Remove(1, "x", 4),
                Remove(0, "x", 1),
                Remove(0, "x", 1),
                Remove(5, "x", 1),
            ],
        ),
        (
            "parallel duplicates lose their first occurrences",
            vec![
                Add(0, "x", 1),
                Add(0, "x", 1),
                Remove(0, "x", 1),
                Remove(0, "x", 1),
                Remove(0, "x", 1),
            ],
        ),
        (
            "edges inserted and deleted inside one overlay",
            vec![
                Add(2, "z", 3),
                Remove(2, "z", 3),
                Add(4, "x", 2),
                Remove(4, "x", 2),
            ],
        ),
        (
            "tombstones at the first and the last edge id",
            vec![Remove(0, "x", 1), Remove(5, "x", 1)],
        ),
        (
            "reverse insertions merge between existing sources",
            vec![
                Add(2, "x", 1),
                Add(0, "x", 1),
                Remove(0, "x", 1),
                Add(4, "x", 1),
                Add(3, "x", 1),
            ],
        ),
    ];
    for (context, steps) in cases {
        let base = splice_base();
        let mut shadow = Shadow::from_graph(&base);
        let snapshot = Arc::new(CsrGraph::from_graph(&base));
        let mut delta = DeltaGraph::new(Arc::clone(&snapshot));
        for step in steps {
            match step {
                Node(name) => {
                    delta.add_node(name);
                    shadow.nodes.push(name.to_string());
                }
                Add(s, name, t) => {
                    let label = delta.label(name);
                    if label.index() == shadow.labels.len() {
                        shadow.labels.push(name.to_string());
                    }
                    delta.add_edge(NodeId::from(s), label, NodeId::from(t));
                    shadow.edges.push((s, label.index(), t));
                }
                Remove(s, name, t) => {
                    let label = delta.labels().get(name).expect("label exists");
                    assert!(
                        delta.remove_edge(NodeId::from(s), label, NodeId::from(t)),
                        "{context}"
                    );
                    let first = shadow
                        .edges
                        .iter()
                        .position(|&e| e == (s, label.index(), t))
                        .expect("the shadow holds the removed edge");
                    shadow.edges.remove(first);
                }
            }
        }
        let summary = delta.delta();
        let compacted = delta.compact();
        let expected = shadow.build();
        assert_snapshots_identical(&compacted, &expected, context);
        let patched = LabelIndex::from_csr(&snapshot).apply_delta(
            &summary,
            compacted.node_count(),
            compacted.label_count(),
        );
        assert_indexes_equal(&patched, &LabelIndex::from_csr(&expected), context);
    }
}

/// Stages one edge insertion on both the overlay and the shadow model.
fn stage_add(delta: &mut DeltaGraph, shadow: &mut Shadow, s: usize, name: &str, t: usize) {
    let label = delta.label(name);
    if label.index() == shadow.labels.len() {
        shadow.labels.push(name.to_string());
    }
    delta.add_edge(NodeId::from(s), label, NodeId::from(t));
    shadow.edges.push((s, label.index(), t));
}

/// Stages the removal of the first surviving `(s, label, t)` edge on both.
fn stage_remove(delta: &mut DeltaGraph, shadow: &mut Shadow, edge: (usize, usize, usize)) {
    let (s, l, t) = edge;
    assert!(delta.remove_edge(NodeId::from(s), LabelId::from(l), NodeId::from(t)));
    let first = shadow
        .edges
        .iter()
        .position(|&e| e == edge)
        .expect("the shadow holds the removed edge");
    shadow.edges.remove(first);
}

/// Chained publishes over a base spanning three full chunks and a partial
/// fourth, with edits placed on the chunk layout's edges: a chunk's first
/// and last node, the partial last chunk, added nodes that open a new
/// chunk, a node emptied of edges, parallel duplicates split across
/// publishes, and enough deletions to cross the re-key threshold.  Every
/// epoch's snapshot, edge ids, checkpoint bytes and patched index must
/// equal a from-scratch build's.
#[test]
fn chunk_boundary_publishes_match_from_scratch_builds() {
    const CHUNK: usize = gps_graph::CHUNK_NODES;
    let mut rng = StdRng::seed_from_u64(0xC0_FFEE);
    let n = 3 * CHUNK + 40;
    let mut g = Graph::new();
    for label in ["x", "y", "z"] {
        g.label(label);
    }
    for i in 0..n {
        g.add_node(format!("n{i}"));
    }
    for _ in 0..3 * n {
        let s = NodeId::from(rng.gen_range(0..n));
        let t = NodeId::from(rng.gen_range(0..n));
        g.add_edge(s, LabelId::from(rng.gen_range(0..3usize)), t);
    }
    let mut shadow = Shadow::from_graph(&g);
    let mut snapshot = Arc::new(CsrGraph::from_graph(&g));
    let mut index = LabelIndex::from_csr(&snapshot);

    let (first, last, partial, emptied) = (CHUNK, 2 * CHUNK - 1, 3 * CHUNK + 7, CHUNK + 100);
    let opened = 4 * CHUNK + 3;
    let (mut saw_dead_keys, mut saw_rekey) = (false, false);
    for round in 0..10 {
        let context = format!("round {round}");
        let mut delta = DeltaGraph::new(Arc::clone(&snapshot));
        let mut removed = 0;
        match round {
            0 => {
                // A chunk's first and last node, and the partial last chunk.
                stage_add(&mut delta, &mut shadow, first, "x", last);
                stage_add(&mut delta, &mut shadow, last, "y", first);
                stage_add(&mut delta, &mut shadow, partial, "z", 0);
                stage_add(&mut delta, &mut shadow, n - 1, "x", partial);
                for node in [first, last, partial] {
                    if let Some(&edge) = shadow.edges.iter().find(|e| e.0 == node) {
                        stage_remove(&mut delta, &mut shadow, edge);
                        removed += 1;
                    }
                }
            }
            1 => {
                // Nodes that fill the partial chunk and open a fifth.
                while shadow.nodes.len() <= opened {
                    let name = format!("fresh{}", shadow.nodes.len());
                    delta.add_node(name.clone());
                    shadow.nodes.push(name);
                }
                stage_add(&mut delta, &mut shadow, opened, "x", first);
                stage_add(&mut delta, &mut shadow, last, "w", opened);
                stage_add(&mut delta, &mut shadow, opened, "y", opened);
            }
            2 => {
                // Empty a node of every edge, outgoing and incoming.
                while let Some(&edge) = shadow
                    .edges
                    .iter()
                    .find(|e| e.0 == emptied || e.2 == emptied)
                {
                    stage_remove(&mut delta, &mut shadow, edge);
                    removed += 1;
                }
                // The first parallel duplicate of first -z-> partial.
                stage_add(&mut delta, &mut shadow, first, "z", partial);
            }
            3 => stage_add(&mut delta, &mut shadow, first, "z", partial),
            4 => {
                stage_remove(&mut delta, &mut shadow, (first, 2, partial));
                removed += 1;
            }
            _ => {}
        }
        // Random deletions and insertions on top: the deletions pile up in
        // the dead key list until a publish crosses the re-key threshold.
        for _ in 0..rng.gen_range(6..12usize) {
            let edge = shadow.edges[rng.gen_range(0..shadow.edges.len())];
            stage_remove(&mut delta, &mut shadow, edge);
            removed += 1;
        }
        for _ in 0..rng.gen_range(1..6usize) {
            let s = rng.gen_range(0..shadow.nodes.len());
            let t = rng.gen_range(0..shadow.nodes.len());
            stage_add(
                &mut delta,
                &mut shadow,
                s,
                ["x", "y", "z"][rng.gen_range(0..3usize)],
                t,
            );
        }

        let summary = delta.delta();
        let compacted = delta.compact();
        let expected = shadow.build();
        assert_snapshots_identical(&compacted, &expected, &context);
        assert_eq!(
            gps_store::encode_snapshot(&compacted.clone().with_epoch(0)),
            gps_store::encode_snapshot(&expected),
            "{context}: checkpoint bytes"
        );
        let patched = index.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        assert_indexes_equal(&patched, &LabelIndex::from_csr(&expected), &context);

        // A key space wider than the edge set means dead keys are listed;
        // a deleting publish that leaves none behind re-keyed.
        let keys = compacted.edge_ids_by_key().len();
        if keys > compacted.edge_count() {
            saw_dead_keys = true;
        } else if removed > 0 && saw_dead_keys {
            saw_rekey = true;
        }
        snapshot = Arc::new(compacted);
        index = patched;
    }
    assert!(saw_dead_keys, "some publish kept a dead key list");
    assert!(saw_rekey, "some publish crossed the re-key threshold");
}

// ------------------------------------------- 2. pinned sessions byte-stable

#[derive(Debug, PartialEq)]
struct SessionFingerprint {
    transcript: Vec<InteractionRecord>,
    learned: Option<(String, Vec<NodeId>)>,
    halt: HaltReason,
    examples: ExampleSet,
    pruned_after_interaction: Vec<usize>,
}

fn fingerprint(
    labels: &LabelInterner,
    outcome: &gps_interactive::session::SessionOutcome,
) -> SessionFingerprint {
    SessionFingerprint {
        transcript: outcome.transcript.clone(),
        learned: outcome.learned.as_ref().map(|l| {
            (
                gps_automata::printer::print(&l.regex, labels),
                l.answer.nodes(),
            )
        }),
        halt: outcome.halt_reason,
        examples: outcome.examples.clone(),
        pruned_after_interaction: outcome.stats.pruned_after_interaction.clone(),
    }
}

/// The update used by the session tests: grows the answer of the motivating
/// query (a new cinema reachable from N5) and deletes an unrelated edge.
fn figure1_update() -> GraphUpdate {
    GraphUpdate::new()
        .add_node("C9")
        .add_edge("N5", "cinema", "C9")
        .add_edge("N5", "bus", "N1")
        .remove_edge("N2", "restaurant", "R1")
}

fn service(mode: EvalMode) -> GpsService {
    let (graph, _) = figure1_graph();
    GpsService::new(Engine::builder(graph).eval_mode(mode).build_core())
}

#[test]
fn pinned_sessions_replay_identically_across_a_mid_run_publish() {
    for mode in MODES {
        for goal in [MOTIVATING_QUERY, "cinema", "bus.tram*.cinema"] {
            // Baseline: the same manager-driven session with no publish.
            let baseline_service = service(mode);
            let labels = baseline_service.core().snapshot().labels().clone();
            let baseline = {
                let manager = baseline_service.manager();
                let id = manager.open(goal).unwrap();
                manager.run_to_completion(id).unwrap();
                fingerprint(&labels, &manager.close(id).unwrap())
            };

            // Live: identical session, but a publish lands after step 2.
            let live_service = service(mode);
            let manager = live_service.manager();
            let id = manager.open(goal).unwrap();
            assert_eq!(manager.session_epoch(id).unwrap(), 0);
            let mut halted = false;
            for _ in 0..2 {
                if let SessionStatus::Halted(_) = manager.step(id).unwrap() {
                    halted = true;
                    break;
                }
            }
            let report = live_service.update(figure1_update()).unwrap();
            assert_eq!(report.epoch, 1, "{mode:?}");
            if !halted {
                assert_eq!(
                    live_service.stats().live_epochs,
                    2,
                    "{mode:?}: the pinned birth epoch stays live"
                );
            }
            manager.run_to_completion(id).unwrap();
            assert_eq!(
                manager.session_epoch(id).unwrap(),
                0,
                "{mode:?}: the session never migrates epochs"
            );
            let live = fingerprint(&labels, &manager.close(id).unwrap());
            assert_eq!(
                live, baseline,
                "{mode:?}/{goal}: a mid-run publish must not perturb a pinned session"
            );
            assert_eq!(
                live_service.stats().live_epochs,
                1,
                "{mode:?}: closing the last pinned session retires epoch 0"
            );
        }
    }
}

#[test]
fn pinned_sessions_survive_a_storm_of_publishes() {
    // Same property under repeated mid-run publishes (insertions and
    // deletions oscillating), interleaved step by step.
    for mode in MODES {
        let baseline_service = service(mode);
        let labels = baseline_service.core().snapshot().labels().clone();
        let baseline = {
            let manager = baseline_service.manager();
            let id = manager.open(MOTIVATING_QUERY).unwrap();
            manager.run_to_completion(id).unwrap();
            fingerprint(&labels, &manager.close(id).unwrap())
        };
        let live_service = service(mode);
        let manager = live_service.manager();
        let id = manager.open(MOTIVATING_QUERY).unwrap();
        let mut toggle = false;
        loop {
            let update = if toggle {
                GraphUpdate::new().remove_edge("N6", "tram", "N1")
            } else {
                GraphUpdate::new().add_edge("N6", "tram", "N1")
            };
            toggle = !toggle;
            live_service.update(update).unwrap();
            if let SessionStatus::Halted(_) = manager.step(id).unwrap() {
                break;
            }
        }
        let live = fingerprint(&labels, &manager.close(id).unwrap());
        assert_eq!(live, baseline, "{mode:?}");
    }
}

// ------------------------------------------------- 3. new sessions see more

#[test]
fn post_publish_sessions_observe_the_new_edges() {
    for mode in MODES {
        let live = service(mode);
        let n5 = live.core().snapshot().node_by_name("N5").unwrap();
        let before = live.core().evaluate(MOTIVATING_QUERY).unwrap();
        assert!(
            !before.contains(n5),
            "{mode:?}: N5 reaches no cinema in the base graph"
        );

        live.update(figure1_update()).unwrap();

        // Plain reads on the latest core see the new edge…
        let after = live.core().evaluate(MOTIVATING_QUERY).unwrap();
        assert!(after.contains(n5), "{mode:?}");
        assert!(live.core().snapshot().node_by_name("C9").is_some());

        // …and a full served session converges onto the *new* answer.
        let outcome = live.serve_one(MOTIVATING_QUERY).unwrap();
        assert!(outcome.halt_reason.is_convergence(), "{mode:?}");
        let learned = outcome.learned.expect("a query is learned");
        assert_eq!(
            learned.answer.nodes(),
            after.nodes(),
            "{mode:?}: the learned answer is the post-publish answer"
        );
    }
}

#[test]
fn versioned_reads_and_writes_interleave_across_threads() {
    // One writer publishing oscillating updates, several reader threads
    // serving sessions — sessions always converge, every observed answer is
    // one of the two publishable states, and the store ends at a bounded
    // number of live epochs.
    let live = Arc::new(service(EvalMode::Frontier));
    let store: Arc<VersionedStore> = Arc::clone(live.store());
    std::thread::scope(|scope| {
        let writer = {
            let store = Arc::clone(&store);
            scope.spawn(move || {
                for round in 0..6 {
                    let update = if round % 2 == 0 {
                        GraphUpdate::new().add_edge("N5", "bus", "N1")
                    } else {
                        GraphUpdate::new().remove_edge("N5", "bus", "N1")
                    };
                    store.update(update).unwrap();
                }
            })
        };
        for _ in 0..3 {
            let live = Arc::clone(&live);
            scope.spawn(move || {
                for _ in 0..4 {
                    let outcome = live.serve_one(MOTIVATING_QUERY).unwrap();
                    assert!(outcome.halt_reason.is_convergence());
                }
            });
        }
        writer.join().unwrap();
    });
    assert_eq!(store.publish_count(), 6);
    assert_eq!(
        store.live_epochs(),
        1,
        "every superseded epoch was retired once its sessions closed"
    );
    let stream_ops: Vec<UpdateOp> = gps_datasets::update_stream(
        &figure1_graph().0,
        &gps_datasets::UpdateStreamConfig {
            operations: 20,
            seed: 9,
            ..Default::default()
        },
    );
    // A generated stream applies cleanly through the service update API too.
    live.update(GraphUpdate::from_ops(stream_ops)).unwrap();
    assert!(store.current_epoch() >= 7);
}

// ------------------------------------------------ 4. name table isolated

/// A graph of 300 nodes (large enough that a publish adding a few nodes
/// shares the base name table instead of folding it), with colliding names
/// so first-bearer lookups are exercised.
fn named_graph() -> Graph {
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..300)
        .map(|i| g.add_node(format!("v{}", i % 280)))
        .collect();
    for i in 0..300 {
        g.add_edge_by_name(nodes[i], "e", nodes[(i * 7 + 1) % 300]);
    }
    g
}

fn assert_same_names(got: &CsrGraph, want: &CsrGraph, context: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{context}");
    for node in want.nodes() {
        let name = want.node_name(node);
        assert_eq!(got.node_name(node), name, "{context}: name of {node}");
        assert_eq!(
            got.node_by_name(name),
            want.node_by_name(name),
            "{context}: {name}"
        );
    }
}

#[test]
fn a_failed_batch_leaves_no_name_behind() {
    let store = VersionedStore::new(
        Engine::builder(named_graph())
            .eval_mode(EvalMode::Frontier)
            .build_core(),
    );
    let before = store.latest();
    let n = before.snapshot().node_count();
    let failed = store.update(
        GraphUpdate::new()
            .add_node("ghost")
            .add_edge("ghost", "e", "nowhere"),
    );
    assert!(failed.is_err(), "an edge to a missing node fails the batch");
    assert_eq!(store.current_epoch(), before.epoch());
    assert_eq!(store.latest().snapshot().node_by_name("ghost"), None);

    store
        .update(
            GraphUpdate::new()
                .add_node("ghost")
                .add_node("v3")
                .add_edge("v3", "e", "ghost"),
        )
        .unwrap();
    let after = store.latest();
    let ghost = NodeId::from(n);
    assert_eq!(
        after.snapshot().inc(ghost)[0].node,
        NodeId::from(3usize),
        "the batch's own ops resolve a re-used name to its first bearer"
    );
    assert_eq!(
        after.snapshot().node_by_name("ghost"),
        Some(NodeId::from(n)),
        "a re-add gets the next dense id"
    );
    assert_eq!(after.snapshot().node_name(NodeId::from(n + 1)), "v3");
    assert_eq!(
        after.snapshot().node_by_name("v3"),
        Some(NodeId::from(3usize)),
        "a re-used name still resolves to its first bearer"
    );
    assert_eq!(before.snapshot().node_by_name("ghost"), None);
    assert_eq!(before.snapshot().node_count(), n);
}

#[test]
fn sibling_overlays_see_only_their_own_names() {
    let base = Arc::new(CsrGraph::from_graph(&named_graph()));
    let n = base.node_count();
    let mut left = DeltaGraph::new(Arc::clone(&base));
    let mut right = DeltaGraph::new(Arc::clone(&base));
    left.add_node("left");
    right.add_node("right");
    right.add_node("left-of-right");
    let (left, right) = (left.compact(), right.compact());
    assert_eq!(left.node_by_name("left"), Some(NodeId::from(n)));
    assert_eq!(left.node_by_name("right"), None);
    assert_eq!(left.node_count(), n + 1);
    assert_eq!(right.node_by_name("right"), Some(NodeId::from(n)));
    assert_eq!(right.node_by_name("left"), None);
    assert_eq!(right.node_name(NodeId::from(n + 1)), "left-of-right");
    assert_eq!(base.node_by_name("left"), None);
    assert_eq!(base.node_by_name("right"), None);
    assert_eq!(base.node_count(), n);
    // Each compaction equals a from-scratch build of its own graph.
    for (snapshot, added) in [
        (&left, &["left"][..]),
        (&right, &["right", "left-of-right"][..]),
    ] {
        let mut g = named_graph();
        for name in added {
            g.add_node(*name);
        }
        assert_snapshots_identical(snapshot, &CsrGraph::from_graph(&g), added[0]);
    }
}

#[test]
fn recovered_names_equal_the_names_before_the_crash() {
    let dir = std::env::temp_dir().join(format!("gps-mvcc-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let builder = || {
        Engine::builder(named_graph())
            .eval_mode(EvalMode::Frontier)
            .checkpoint_every_n_publishes(3)
    };
    let (store, _) = VersionedStore::open_durable(&dir, builder()).unwrap();
    for round in 0..5 {
        // New names, a name re-used within the batch and a base name again.
        store
            .update(
                GraphUpdate::new()
                    .add_node(format!("r{round}"))
                    .add_node(format!("r{round}"))
                    .add_node("v7")
                    .add_edge(format!("r{round}").as_str(), "e", "v0"),
            )
            .unwrap();
    }
    let before = store.latest();
    drop(store); // crash: the last publishes live only in the log
    let (recovered, report) = VersionedStore::open_durable(&dir, builder()).unwrap();
    assert!(report.replayed_publishes > 0, "the WAL tail was replayed");
    assert_eq!(recovered.current_epoch(), before.epoch());
    assert_same_names(
        recovered.latest().snapshot(),
        before.snapshot(),
        "recovered",
    );
    assert_eq!(
        gps_store::encode_snapshot(recovered.latest().snapshot()),
        gps_store::encode_snapshot(before.snapshot()),
        "the recovered snapshot is byte-identical"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}
