//! The frontier evaluator — set-at-a-time product fixed point.
//!
//! Semantics are identical to `gps_rpq::eval::evaluate`: a node `v` is
//! selected iff configuration `(v, start)` can reach an accepting
//! configuration in the product of the graph with the query DFA.  Where the
//! naive evaluator propagates one `(node, state)` configuration at a time
//! through a queue, this evaluator keeps one bitset of nodes per DFA state
//! and advances the whole frontier per DFA transition in label-partitioned
//! slice sweeps (semi-naive/delta evaluation: only configurations discovered
//! in round `k` are expanded in round `k+1`).
//!
//! Each round runs in one of two modes (see [`Plan`]):
//!
//! * **push** — expand the frontier backward through the reverse adjacency;
//! * **pull** — scan still-dead configurations forward for an alive
//!   successor.
//!
//! [`Plan::Bidirectional`] re-picks the cheaper mode every round from the
//! estimated frontier/dead edge volumes, mirroring direction-optimizing BFS.

use crate::bitset::{FixedBitSet, Ones, SparseBitSet, SparseOnes};
use crate::index::{Direction, LabelIndex};
use crate::planner::Plan;
use gps_automata::Dfa;
use gps_graph::{GraphDelta, LabelId, NodeId, Path};
use gps_rpq::{EvalResume, QueryAnswer};

/// Default cap on the delete-aware reseed's over-deletion, as a fraction of
/// the post-insert alive configuration population: when a removal's
/// transitive over-delete cone grows past `limit × alive_total`
/// configurations, [`resume`] gives up (`None`) and the caller falls back to
/// a cold recompute — at that point the cold fixed point is in the same cost
/// class as over-delete *plus* re-derive.
pub const DEFAULT_OVERDELETE_LIMIT: f64 = 0.5;

/// Node count at which [`FrontierPolicy::Auto`] switches the frontier/delta
/// bitsets from dense to sparse.  Below this a dense sweep fits comfortably
/// in cache and the summary level is pure overhead; above it, per-round
/// clears and scans of near-empty frontiers dominate and the sparse
/// representation's `O(population)` operations win.
pub const SPARSE_FRONTIER_NODES: usize = 1 << 16;

/// How the evaluator represents the per-round frontier/delta sets.
///
/// The **alive** sets stay dense regardless (they fill monotonically toward
/// the answer and back the [`EvalResume`] word-snapshot format); only the
/// frontier and its staging double are switched.  Every policy produces
/// bit-identical answers — the representation changes constants, not
/// semantics — which `tests/exec_conformance.rs` asserts differentially.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FrontierPolicy {
    /// Sparse when the graph has at least [`SPARSE_FRONTIER_NODES`] nodes,
    /// dense below.
    #[default]
    Auto,
    /// Always dense ([`FixedBitSet`]): one bit per node, `O(nodes)` clears.
    Dense,
    /// Always sparse ([`SparseBitSet`]): summary-word + chunk two-level
    /// sets with `O(population)` clears/scans.
    Sparse,
}

impl FrontierPolicy {
    /// Whether `nodes` resolves to the sparse representation.
    #[inline]
    pub fn is_sparse(self, nodes: usize) -> bool {
        match self {
            FrontierPolicy::Auto => nodes >= SPARSE_FRONTIER_NODES,
            FrontierPolicy::Dense => false,
            FrontierPolicy::Sparse => true,
        }
    }
}

/// One frontier/delta set in whichever representation the policy resolved.
#[derive(Debug, Clone)]
enum FrontierSet {
    Dense(FixedBitSet),
    Sparse(SparseBitSet),
}

impl Default for FrontierSet {
    fn default() -> Self {
        FrontierSet::Dense(FixedBitSet::default())
    }
}

impl FrontierSet {
    /// Resizes to the universe `0..len` in the requested representation and
    /// clears every bit, reusing the allocation when the variant matches.
    fn reset_as(&mut self, len: usize, sparse: bool) {
        match self {
            FrontierSet::Dense(bits) if !sparse => bits.reset(len),
            FrontierSet::Sparse(bits) if sparse => bits.reset(len),
            slot => {
                *slot = if sparse {
                    FrontierSet::Sparse(SparseBitSet::new(len))
                } else {
                    FrontierSet::Dense(FixedBitSet::new(len))
                };
            }
        }
    }

    #[inline]
    fn insert(&mut self, bit: usize) -> bool {
        match self {
            FrontierSet::Dense(bits) => bits.insert(bit),
            FrontierSet::Sparse(bits) => bits.insert(bit),
        }
    }

    fn insert_all(&mut self) {
        match self {
            FrontierSet::Dense(bits) => bits.insert_all(),
            FrontierSet::Sparse(bits) => bits.insert_all(),
        }
    }

    fn clear(&mut self) {
        match self {
            FrontierSet::Dense(bits) => bits.clear(),
            FrontierSet::Sparse(bits) => bits.clear(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            FrontierSet::Dense(bits) => bits.is_empty(),
            FrontierSet::Sparse(bits) => bits.is_empty(),
        }
    }

    fn count(&self) -> usize {
        match self {
            FrontierSet::Dense(bits) => bits.count(),
            FrontierSet::Sparse(bits) => bits.count(),
        }
    }

    fn ones(&self) -> FrontierOnes<'_> {
        match self {
            FrontierSet::Dense(bits) => FrontierOnes::Dense(bits.ones()),
            FrontierSet::Sparse(bits) => FrontierOnes::Sparse(bits.ones()),
        }
    }

    /// ORs this set into `dense`; returns `true` when any new bit appeared.
    fn union_into(&self, dense: &mut FixedBitSet) -> bool {
        match self {
            FrontierSet::Dense(bits) => dense.union_with(bits),
            FrontierSet::Sparse(bits) => bits.union_into(dense),
        }
    }
}

enum FrontierOnes<'a> {
    Dense(Ones<'a>),
    Sparse(SparseOnes<'a>),
}

impl<'a> Iterator for FrontierOnes<'a> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            FrontierOnes::Dense(ones) => ones.next(),
            FrontierOnes::Sparse(ones) => ones.next(),
        }
    }
}

/// Reusable allocation for one evaluation: per-state alive/frontier/delta
/// bitsets.  Batch callers keep one `Scratch` per worker and amortize the
/// allocations across every query of the workload.
///
/// The alive sets are always dense; the frontier/staging sets follow the
/// configured [`FrontierPolicy`] (default [`FrontierPolicy::Auto`]).
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    alive: Vec<FixedBitSet>,
    frontier: Vec<FrontierSet>,
    next: Vec<FrontierSet>,
    policy: FrontierPolicy,
}

impl Scratch {
    /// A scratch whose frontier sets follow `policy`.
    pub fn with_policy(policy: FrontierPolicy) -> Self {
        Self {
            policy,
            ..Self::default()
        }
    }

    /// The configured frontier representation policy.
    pub fn policy(&self) -> FrontierPolicy {
        self.policy
    }

    /// Resizes for `states` × `nodes` and clears every bit.
    fn prepare(&mut self, states: usize, nodes: usize) {
        self.alive.resize_with(states, FixedBitSet::default);
        for bits in &mut self.alive {
            bits.reset(nodes);
        }
        let sparse = self.policy.is_sparse(nodes);
        for set in [&mut self.frontier, &mut self.next] {
            set.resize_with(states, FrontierSet::default);
            for bits in set.iter_mut() {
                bits.reset_as(nodes, sparse);
            }
        }
    }
}

/// Evaluates `dfa` over `index` with the given expansion plan, reusing
/// `scratch` for the per-state bitsets.
pub fn evaluate_with(
    index: &LabelIndex,
    dfa: &Dfa,
    plan: Plan,
    scratch: &mut Scratch,
) -> QueryAnswer {
    evaluate_counting(index, dfa, plan, scratch).0
}

/// [`evaluate_with`], additionally reporting how many frontier rounds the
/// fixed point swept (what `gps_exec_frontier_rounds_total` aggregates).
pub fn evaluate_counting(
    index: &LabelIndex,
    dfa: &Dfa,
    plan: Plan,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64) {
    let (answer, rounds, _) = fixed_point(index, dfa, plan, scratch, false);
    (answer, rounds)
}

/// [`evaluate_counting`], additionally capturing the per-state alive sets as
/// an [`EvalResume`] seed for later delta-restricted re-derivation; the
/// answer shares the seed's start-state row.
///
/// The seed is only sound when the fixed point actually completed, so when
/// the start state saturates early (a query selecting every node) the
/// capturing evaluation keeps deriving the remaining states' closure to the
/// true fixed point instead of early-exiting — the answer is already final,
/// the extra rounds only finish the seed.  Capturing therefore always
/// returns `Some` on non-empty inputs, and uncaptured evaluations keep the
/// early exit (satellite states stay under-derived, which is fine when
/// nothing is recorded).
pub fn evaluate_captured(
    index: &LabelIndex,
    dfa: &Dfa,
    plan: Plan,
    scratch: &mut Scratch,
) -> (QueryAnswer, u64, Option<EvalResume>) {
    fixed_point(index, dfa, plan, scratch, true)
}

fn fixed_point(
    index: &LabelIndex,
    dfa: &Dfa,
    plan: Plan,
    scratch: &mut Scratch,
    capture: bool,
) -> (QueryAnswer, u64, Option<EvalResume>) {
    let n = index.node_count();
    let s = dfa.state_count();
    if n == 0 || s == 0 {
        return (QueryAnswer::none(n), 0, None);
    }
    scratch.prepare(s, n);

    // DFA transitions, forward (pull) and reversed (push), plus per-state
    // mean-degree weights for the adaptive cost model.
    let mut rev_dfa: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    let mut fwd_dfa: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    let mut push_weight = vec![0.0f64; s];
    let mut pull_weight = vec![0.0f64; s];
    let mean_degree = |label: LabelId| index.label_edge_count(label) as f64 / n as f64;
    for state in 0..s {
        for (label, target) in dfa.transitions_from(state) {
            rev_dfa[target].push((label, state));
            fwd_dfa[state].push((label, target));
            push_weight[target] += mean_degree(label);
            pull_weight[state] += mean_degree(label);
        }
    }

    // Seed: every configuration whose DFA state is accepting.
    for state in 0..s {
        if dfa.is_accepting(state) {
            scratch.alive[state].insert_all();
            scratch.frontier[state].insert_all();
        }
    }

    let start = dfa.start();
    let mut rounds = 0u64;
    loop {
        // The answer only reads `alive[start]`; once every node is selected
        // no further round can change it.  This exit can leave *other*
        // states under-derived, so a capturing evaluation skips it and runs
        // on to the true fixed point — the seed must cover every state.
        if !capture && scratch.alive[start].count() == n {
            break;
        }
        rounds += 1;

        let pull = match plan {
            Plan::Reverse => false,
            Plan::Forward => true,
            Plan::Bidirectional => {
                let push_cost: f64 = (0..s)
                    .map(|q| scratch.frontier[q].count() as f64 * push_weight[q])
                    .sum();
                let pull_cost: f64 = (0..s)
                    .map(|p| (n - scratch.alive[p].count()) as f64 * pull_weight[p])
                    .sum();
                pull_cost < push_cost
            }
        };

        let mut progress = false;
        if pull {
            // Jacobi round: read `alive`, stage discoveries in `next`.
            for (p, transitions) in fwd_dfa.iter().enumerate() {
                if transitions.is_empty() {
                    continue;
                }
                'dead: for w in scratch.alive[p].zeros() {
                    for &(label, q) in transitions {
                        for &u in index.neighbors(Direction::Forward, label, w) {
                            if scratch.alive[q].contains(u as usize) {
                                scratch.next[p].insert(w);
                                continue 'dead;
                            }
                        }
                    }
                }
            }
            for p in 0..s {
                progress |= scratch.next[p].union_into(&mut scratch.alive[p]);
            }
        } else {
            // Gauss-Seidel round: mark `alive` immediately, collect the
            // delta in `next`.
            for (q, transitions) in rev_dfa.iter().enumerate() {
                if scratch.frontier[q].is_empty() {
                    continue;
                }
                for &(label, p) in transitions {
                    for u in scratch.frontier[q].ones() {
                        for &w in index.neighbors(Direction::Reverse, label, u) {
                            if scratch.alive[p].insert(w as usize) {
                                scratch.next[p].insert(w as usize);
                                progress = true;
                            }
                        }
                    }
                }
            }
        }
        if !progress {
            // No round mode can derive anything further: a true fixed point.
            break;
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        for bits in &mut scratch.next {
            bits.clear();
        }
    }

    if capture {
        let seed = capture_seed(n, scratch);
        (seed.answer(start), rounds, Some(seed))
    } else {
        let answer = QueryAnswer::from_words(n, scratch.alive[start].as_words().into());
        (answer, rounds, None)
    }
}

/// Packs `scratch`'s per-state alive sets as a seed over `n` nodes.
fn capture_seed(n: usize, scratch: &Scratch) -> EvalResume {
    EvalResume::new(
        n,
        scratch
            .alive
            .iter()
            .map(|bits| bits.as_words().into())
            .collect(),
    )
}

/// Resumes the product fixed point from a captured [`EvalResume`] across a
/// [`GraphDelta`], over the patched `index` — DRed (delete and re-derive)
/// in three phases, the last two only when the delta removes edges:
///
/// 1. **Insert.** The seed's alive sets are restored, nodes added since the
///    capture seed the accepting states, the added edges' direct
///    derivations seed the frontier, and push rounds expand only what the
///    inserts newly derive.  The fixed point is monotone in the edge set, so
///    for an insert-only delta this is already the new fixed point.
/// 2. **Over-delete.** Every alive non-accepting configuration `(u, p)` that
///    lost a derivation — a removed edge `u --a--> v` with `p --a--> q` and
///    `(v, q)` alive in the seed — is *doomed*, and dooming propagates over
///    the reverse index to every alive non-accepting configuration with a
///    derivation through a doomed one.  Doomed configurations leave the
///    alive sets.  Dooming is unconditional: a remaining derivation may rest
///    on a cycle of doomed configurations that only support each other.
///    Once the doomed population passes `overdelete_limit × alive
///    population` the resume gives up — a cold recompute is in the same cost
///    class by then; `overdelete_limit <= 0` refuses every removal.
/// 3. **Re-derive.** A doomed configuration `(u, p)` revives iff some DFA
///    transition `p --a--> q` has a forward `a`-neighbour `v` of `u` with
///    `(v, q)` alive after the over-delete (the scan stops at the first).
///    The revived configurations push to closure through doomed ones: the
///    survivors under-approximate the new fixed point, and re-derivation
///    from the still-derivable boundary restores it exactly.
///
/// Returns `(answer, push rounds, configurations over-deleted, next seed)`,
/// the answer sharing the next seed's start-state row.  `None` when the
/// seed's shape does not match the DFA or the index, or the over-delete
/// gave up.
pub fn resume(
    index: &LabelIndex,
    dfa: &Dfa,
    seed: &EvalResume,
    delta: &GraphDelta,
    scratch: &mut Scratch,
    overdelete_limit: f64,
) -> Option<(QueryAnswer, u64, u64, EvalResume)> {
    let n = index.node_count();
    let s = dfa.state_count();
    let removals = !delta.removed_edges.is_empty();
    if (removals && overdelete_limit <= 0.0)
        || n == 0
        || s == 0
        || seed.state_count() != s
        || seed.nodes() > n
    {
        return None;
    }
    scratch.prepare(s, n);
    for state in 0..s {
        scratch.alive[state].load_prefix(seed.state_words(state));
    }
    let mut rev_dfa: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    for state in 0..s {
        for (label, target) in dfa.transitions_from(state) {
            rev_dfa[target].push((label, state));
        }
    }

    // --- Insert -----------------------------------------------------------
    // Nodes added since the capture: their accepting configurations are
    // alive by definition and expand like any fresh discovery.
    for state in 0..s {
        if dfa.is_accepting(state) {
            for node in seed.nodes()..n {
                if scratch.alive[state].insert(node) {
                    scratch.frontier[state].insert(node);
                }
            }
        }
    }
    // Direct consequences of the added edges: (u, p) is alive when
    // u --a--> v was inserted, p --a--> q in the DFA and (v, q) is alive.
    // Cascades through *old* edges are left to the push rounds — every new
    // discovery enters the frontier and expands through the patched index.
    for edge in &delta.added_edges {
        let (u, v) = (edge.source.index(), edge.target.index());
        if u >= n || v >= n {
            return None;
        }
        for p in 0..s {
            if let Some(q) = dfa.step(p, edge.label) {
                if scratch.alive[q].contains(v) && scratch.alive[p].insert(u) {
                    scratch.frontier[p].insert(u);
                }
            }
        }
    }
    let mut rounds = push_rounds(index, &rev_dfa, scratch, None);
    if !removals {
        let next = capture_seed(n, scratch);
        return Some((next.answer(dfa.start()), rounds, 0, next));
    }

    // --- Over-delete ------------------------------------------------------
    let alive_total: usize = scratch.alive.iter().map(FixedBitSet::count).sum();
    let budget = overdelete_limit * alive_total as f64;
    let mut doomed: Vec<FixedBitSet> = (0..s).map(|_| FixedBitSet::new(n)).collect();
    // Every doomed configuration in doom order; it doubles as the worklist.
    let mut doomed_configs: Vec<(usize, usize)> = Vec::new();
    let doom = |p: usize,
                u: usize,
                alive: &[FixedBitSet],
                doomed: &mut [FixedBitSet],
                configs: &mut Vec<(usize, usize)>|
     -> bool {
        if !dfa.is_accepting(p) && alive[p].contains(u) && doomed[p].insert(u) {
            configs.push((p, u));
        }
        configs.len() as f64 <= budget
    };
    for edge in &delta.removed_edges {
        let (u, v) = (edge.source.index(), edge.target.index());
        if u >= n || v >= n {
            return None;
        }
        for p in 0..s {
            if let Some(q) = dfa.step(p, edge.label) {
                if seed_alive(seed, q, v)
                    && !doom(p, u, &scratch.alive, &mut doomed, &mut doomed_configs)
                {
                    return None;
                }
            }
        }
    }
    let mut popped = 0;
    while let Some(&(q, v)) = doomed_configs.get(popped) {
        popped += 1;
        scratch.alive[q].remove(v);
        for &(label, p) in &rev_dfa[q] {
            for &w in index.neighbors(Direction::Reverse, label, v) {
                if !doom(
                    p,
                    w as usize,
                    &scratch.alive,
                    &mut doomed,
                    &mut doomed_configs,
                ) {
                    return None;
                }
            }
        }
    }

    // --- Re-derive --------------------------------------------------------
    // Only doomed configurations can revive — everything else alive-eligible
    // survived.  The boundary is read against the post-over-delete alive sets
    // and staged in the frontier, so revivals do not feed each other here.
    for set in scratch.frontier.iter_mut().chain(scratch.next.iter_mut()) {
        set.clear();
    }
    for &(p, u) in &doomed_configs {
        let derivable = dfa.transitions_from(p).any(|(label, q)| {
            index
                .neighbors(Direction::Forward, label, u)
                .iter()
                .any(|&v| scratch.alive[q].contains(v as usize))
        });
        if derivable {
            scratch.frontier[p].insert(u);
        }
    }
    for p in 0..s {
        scratch.frontier[p].union_into(&mut scratch.alive[p]);
    }
    rounds += push_rounds(index, &rev_dfa, scratch, Some(&doomed));

    let next = capture_seed(n, scratch);
    Some((
        next.answer(dfa.start()),
        rounds,
        doomed_configs.len() as u64,
        next,
    ))
}

/// Push rounds from the current frontier to closure over the reverse index:
/// each round marks newly derived configurations alive at once and stages
/// them as the next frontier.  With `within`, only configurations in those
/// per-state sets may turn alive.  Returns the rounds that derived
/// something.
fn push_rounds(
    index: &LabelIndex,
    rev_dfa: &[Vec<(LabelId, usize)>],
    scratch: &mut Scratch,
    within: Option<&[FixedBitSet]>,
) -> u64 {
    let mut rounds = 0u64;
    loop {
        let mut progress = false;
        for (q, transitions) in rev_dfa.iter().enumerate() {
            if scratch.frontier[q].is_empty() {
                continue;
            }
            for &(label, p) in transitions {
                for v in scratch.frontier[q].ones() {
                    for &w in index.neighbors(Direction::Reverse, label, v) {
                        let w = w as usize;
                        if within.is_none_or(|sets| sets[p].contains(w))
                            && scratch.alive[p].insert(w)
                        {
                            scratch.next[p].insert(w);
                            progress = true;
                        }
                    }
                }
            }
        }
        if !progress {
            return rounds;
        }
        rounds += 1;
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
        for bits in &mut scratch.next {
            bits.clear();
        }
    }
}

/// Was configuration `(node, state)` alive in the captured seed?  Reads the
/// immutable snapshot words, so it stays answerable after `scratch` has
/// moved on — the old-alive test the removal sweep needs.
#[inline]
fn seed_alive(seed: &EvalResume, state: usize, node: usize) -> bool {
    node < seed.nodes() && seed.state_words(state)[node / 64] & (1u64 << (node % 64)) != 0
}

/// Forward single-source check: does some path from `source` spell an
/// accepted word?  Early-exits on the first accepting configuration, so for
/// selective queries over a handful of sources this beats the global fixed
/// point.
pub fn selects_from(index: &LabelIndex, dfa: &Dfa, source: usize) -> bool {
    let n = index.node_count();
    let s = dfa.state_count();
    if n == 0 || s == 0 || source >= n {
        return false;
    }
    if dfa.is_accepting(dfa.start()) {
        return true;
    }
    let mut fwd_dfa: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); s];
    for (state, transitions) in fwd_dfa.iter_mut().enumerate() {
        transitions.extend(dfa.transitions_from(state));
    }
    let mut visited: Vec<FixedBitSet> = (0..s).map(|_| FixedBitSet::new(n)).collect();
    let mut queue = std::collections::VecDeque::new();
    visited[dfa.start()].insert(source);
    queue.push_back((source, dfa.start()));
    while let Some((node, state)) = queue.pop_front() {
        for &(label, next_state) in &fwd_dfa[state] {
            for &u in index.neighbors(Direction::Forward, label, node) {
                if visited[next_state].insert(u as usize) {
                    if dfa.is_accepting(next_state) {
                        return true;
                    }
                    queue.push_back((u as usize, next_state));
                }
            }
        }
    }
    false
}

/// Shortest witness extraction over the label index: a BFS over `(node, DFA
/// state)` configurations following the per-label forward slices, with
/// parent links for path reconstruction.
///
/// Returns a path of the same (minimal) length as
/// `gps_rpq::witness::shortest_witness` — the concrete path may differ when
/// several shortest witnesses exist, but the length (what the interactive
/// layer's zooming decision consumes) is unique.
pub fn witness_from(index: &LabelIndex, dfa: &Dfa, source: usize) -> Option<Path> {
    let n = index.node_count();
    let s = dfa.state_count();
    if s == 0 || source >= n {
        return None;
    }
    let start_node = NodeId::from(source);
    if dfa.is_accepting(dfa.start()) {
        return Some(Path::empty(start_node));
    }
    // Parent links: (node, state) -> (parent node, parent state, label).
    let mut parents: std::collections::HashMap<(usize, usize), (usize, usize, LabelId)> =
        std::collections::HashMap::new();
    let mut visited: Vec<FixedBitSet> = (0..s).map(|_| FixedBitSet::new(n)).collect();
    let mut queue = std::collections::VecDeque::new();
    visited[dfa.start()].insert(source);
    queue.push_back((source, dfa.start()));
    while let Some((node, state)) = queue.pop_front() {
        for (label, next_state) in dfa.transitions_from(state) {
            for &u in index.neighbors(Direction::Forward, label, node) {
                let next = (u as usize, next_state);
                if visited[next_state].insert(u as usize) {
                    parents.insert(next, (node, state, label));
                    if dfa.is_accepting(next_state) {
                        // Reconstruct by walking the parent links back.
                        let mut word = Vec::new();
                        let mut nodes = vec![NodeId::from(next.0)];
                        let mut current = next;
                        while let Some(&(pn, ps, label)) = parents.get(&current) {
                            word.push(label);
                            nodes.push(NodeId::from(pn));
                            current = (pn, ps);
                        }
                        word.reverse();
                        nodes.reverse();
                        return Some(Path {
                            start: start_node,
                            word,
                            nodes,
                        });
                    }
                    queue.push_back(next);
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_automata::Regex;
    use gps_graph::{Graph, GraphBackend};

    fn figure1_like() -> Graph {
        let mut g = Graph::new();
        let n1 = g.add_node("N1");
        let n2 = g.add_node("N2");
        let n4 = g.add_node("N4");
        let c1 = g.add_node("C1");
        g.add_edge_by_name(n2, "bus", n1);
        g.add_edge_by_name(n1, "tram", n4);
        g.add_edge_by_name(n4, "cinema", c1);
        g
    }

    fn motivating(g: &Graph) -> Dfa {
        let tram = g.label_id("tram").unwrap();
        let bus = g.label_id("bus").unwrap();
        let cinema = g.label_id("cinema").unwrap();
        Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::union([Regex::symbol(tram), Regex::symbol(bus)])),
            Regex::symbol(cinema),
        ]))
    }

    fn eval(g: &Graph, dfa: &Dfa, plan: Plan) -> QueryAnswer {
        let index = LabelIndex::from_backend(g);
        let mut scratch = Scratch::default();
        evaluate_with(&index, dfa, plan, &mut scratch)
    }

    #[test]
    fn all_plans_match_the_naive_evaluator() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let expected = gps_rpq::eval::evaluate(&g, &dfa);
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            assert_eq!(eval(&g, &dfa, plan), expected, "{plan:?}");
        }
    }

    #[test]
    fn epsilon_selects_everything_and_empty_nothing() {
        let g = figure1_like();
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            let eps = eval(&g, &Dfa::from_regex(&Regex::Epsilon), plan);
            assert_eq!(eps.len(), g.node_count(), "{plan:?}");
            let empty = eval(&g, &Dfa::from_regex(&Regex::Empty), plan);
            assert!(empty.is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn scratch_reuse_across_different_shapes() {
        let g = figure1_like();
        let index = LabelIndex::from_backend(&g);
        let mut scratch = Scratch::default();
        let big = motivating(&g);
        let small = Dfa::from_regex(&Regex::symbol(g.label_id("cinema").unwrap()));
        let first = evaluate_with(&index, &big, Plan::Bidirectional, &mut scratch);
        let second = evaluate_with(&index, &small, Plan::Bidirectional, &mut scratch);
        let third = evaluate_with(&index, &big, Plan::Bidirectional, &mut scratch);
        assert_eq!(first, third, "scratch reuse must not leak state");
        assert_eq!(second, gps_rpq::eval::evaluate(&g, &small));
    }

    #[test]
    fn selects_from_agrees_with_global_answer() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let index = LabelIndex::from_backend(&g);
        let expected = gps_rpq::eval::evaluate(&g, &dfa);
        for node in 0..g.node_count() {
            assert_eq!(
                selects_from(&index, &dfa, node),
                expected.contains(gps_graph::NodeId::from(node)),
                "node {node}"
            );
        }
        assert!(!selects_from(&index, &dfa, 99), "out of range is false");
    }

    #[test]
    fn witness_from_matches_naive_witness_lengths() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let index = LabelIndex::from_backend(&g);
        for node in GraphBackend::nodes(&g) {
            let naive = gps_rpq::witness::shortest_witness(&g, &dfa, node);
            let indexed = witness_from(&index, &dfa, node.index());
            match (naive, indexed) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.len(), b.len(), "node {node}");
                    assert!(dfa.accepts(&b.word), "node {node}");
                    assert_eq!(b.start, node);
                    assert_eq!(b.nodes.len(), b.word.len() + 1);
                }
                (None, None) => {}
                (a, b) => panic!("node {node}: naive {a:?} vs indexed {b:?}"),
            }
        }
        // Nullable query: the empty witness at the node itself.
        let eps = Dfa::from_regex(&Regex::Epsilon);
        let path = witness_from(&index, &eps, 0).unwrap();
        assert!(path.is_empty());
        assert!(witness_from(&index, &eps, 99).is_none(), "out of range");
    }

    #[test]
    fn sparse_and_dense_frontiers_agree() {
        let g = figure1_like();
        let index = LabelIndex::from_backend(&g);
        let dfa = motivating(&g);
        let mut dense = Scratch::with_policy(FrontierPolicy::Dense);
        let mut sparse = Scratch::with_policy(FrontierPolicy::Sparse);
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            let (a, a_rounds) = evaluate_counting(&index, &dfa, plan, &mut dense);
            let (b, b_rounds) = evaluate_counting(&index, &dfa, plan, &mut sparse);
            assert_eq!(a, b, "{plan:?}");
            assert_eq!(a_rounds, b_rounds, "{plan:?}");
        }
        // Swapping one scratch between policies must not leak state.
        let mut auto = Scratch::with_policy(FrontierPolicy::Sparse);
        let first = evaluate_with(&index, &dfa, Plan::Bidirectional, &mut auto);
        let expected = gps_rpq::eval::evaluate(&g, &dfa);
        assert_eq!(first, expected);
    }

    #[test]
    fn capture_survives_start_state_saturation() {
        // `x*` from a start state that is accepting: every node is selected
        // in round 0, so the uncaptured path takes the early exit.  The
        // capturing path must keep going and still produce a seed.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", c);
        let x = g.label_id("x").unwrap();
        let dfa = Dfa::from_regex(&Regex::star(Regex::symbol(x)));
        let index = LabelIndex::from_backend(&g);
        let mut scratch = Scratch::default();
        let (answer, _, seed) = evaluate_captured(&index, &dfa, Plan::Bidirectional, &mut scratch);
        assert_eq!(answer.len(), g.node_count(), "saturating query");
        let seed = seed.expect("saturated fixed points now capture a seed");
        assert_eq!(seed.state_count(), dfa.state_count());
        assert_eq!(seed.nodes(), g.node_count());
        assert_eq!(
            answer,
            seed.answer(dfa.start()),
            "the answer is the start row"
        );
        // The captured seed must be the *true* fixed point: answers resumed
        // from it after an insert-only delta match a cold evaluation.
        let base = std::sync::Arc::new(gps_graph::CsrGraph::from_graph(&g));
        let mut delta = gps_graph::DeltaGraph::new(std::sync::Arc::clone(&base));
        let d = delta.add_node("d");
        delta.add_edge(c, x, d);
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = index.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        let (resumed, _, overdeleted, _) =
            resume(&patched, &dfa, &seed, &summary, &mut scratch, 0.0).expect("insert-only");
        assert_eq!(overdeleted, 0, "no removals, no over-delete");
        assert_eq!(resumed, gps_rpq::eval::evaluate(&compacted, &dfa));
    }

    #[test]
    fn cyclic_graphs_terminate() {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", a);
        let x = g.label_id("x").unwrap();
        let dfa = Dfa::from_regex(&Regex::star(Regex::symbol(x)));
        for plan in [Plan::Reverse, Plan::Forward, Plan::Bidirectional] {
            assert_eq!(eval(&g, &dfa, plan).len(), 2, "{plan:?}");
        }
    }

    /// What [`resume_removal_case`] hands back: the resumed answer, the
    /// configurations over-deleted, the next seed, the compacted graph and
    /// its patched index.
    type Resumed = (
        QueryAnswer,
        u64,
        EvalResume,
        gps_graph::CsrGraph,
        LabelIndex,
    );

    /// Captures a seed on `g`, applies `mutate` on a [`DeltaGraph`] over it,
    /// and resumes across the delta; `None` when the resume bails.
    fn resume_removal_case(
        g: &Graph,
        dfa: &Dfa,
        limit: f64,
        mutate: impl FnOnce(&mut gps_graph::DeltaGraph),
    ) -> Option<Resumed> {
        let index = LabelIndex::from_backend(g);
        let mut scratch = Scratch::default();
        let (_, _, seed) = evaluate_captured(&index, dfa, Plan::Bidirectional, &mut scratch);
        let seed = seed.expect("base capture");
        let base = std::sync::Arc::new(gps_graph::CsrGraph::from_graph(g));
        let mut delta = gps_graph::DeltaGraph::new(base);
        mutate(&mut delta);
        let summary = delta.delta();
        let compacted = delta.compact();
        let patched = index.apply_delta(&summary, compacted.node_count(), compacted.label_count());
        let (answer, _, overdeleted, next) =
            resume(&patched, dfa, &seed, &summary, &mut scratch, limit)?;
        Some((answer, overdeleted, next, compacted, patched))
    }

    /// A seed captured from scratch on `index`.
    fn fresh_seed(index: &LabelIndex, dfa: &Dfa) -> EvalResume {
        let mut scratch = Scratch::default();
        let (_, _, seed) = evaluate_captured(index, dfa, Plan::Bidirectional, &mut scratch);
        seed.expect("fresh capture")
    }

    #[test]
    fn removal_in_a_cycle_kills_non_well_founded_derivations() {
        // a --x--> b --x--> a and b --y--> c, query `x*.y`.  Removing the
        // only `y` edge leaves (s0,a) and (s0,b) supporting each other
        // through the x-cycle; pure count-to-zero propagation would keep
        // both alive.  The DRed over-delete must doom the whole cycle and
        // re-derivation must revive nothing.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "x", a);
        g.add_edge_by_name(b, "y", c);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let dfa = Dfa::from_regex(&Regex::concat([
            Regex::star(Regex::symbol(x)),
            Regex::symbol(y),
        ]));
        let (answer, _, next, compacted, patched) = resume_removal_case(&g, &dfa, 1.0, |delta| {
            assert!(delta.remove_edge(b, y, c));
        })
        .expect("within budget");
        assert!(answer.is_empty(), "the cycle must not keep itself alive");
        assert_eq!(answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        // The produced seed must equal a from-scratch capture on the
        // patched graph.
        assert_eq!(next, fresh_seed(&patched, &dfa));
    }

    #[test]
    fn mixed_delta_matches_cold_evaluation() {
        // Remove one derivation of a multi-supported configuration and add a
        // replacement edge in the same delta: the surviving support must keep
        // N1 selected without re-derivation, and the insert must extend the
        // answer — all byte-identical to a cold evaluation.
        let g = figure1_like();
        let dfa = motivating(&g);
        let n1 = NodeId::from(0usize);
        let n2 = NodeId::from(1usize);
        let n4 = NodeId::from(2usize);
        let tram = g.label_id("tram").unwrap();
        let bus = g.label_id("bus").unwrap();
        let (answer, _, next, compacted, patched) = resume_removal_case(&g, &dfa, 1.0, |delta| {
            let n5 = delta.add_node("N5");
            delta.add_edge(n2, tram, n5);
            delta.add_edge(n5, bus, n4);
            assert!(delta.remove_edge(n2, bus, n1));
        })
        .expect("within budget");
        assert_eq!(answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        assert!(answer.contains(n1), "N1 still reaches the cinema via tram");
        assert_eq!(next, fresh_seed(&patched, &dfa));
    }

    #[test]
    fn removing_one_of_two_parallel_edges_keeps_the_configuration_alive() {
        // a --x--> b twice, b --y--> c, query `x.y`.  Removing one of the
        // parallel edges dooms (a, start) — it lost a derivation from an
        // alive target — but the any-successor check finds the surviving
        // twin and revives it.  Removing the twin as well kills it.
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(a, "x", b);
        g.add_edge_by_name(b, "y", c);
        let x = g.label_id("x").unwrap();
        let y = g.label_id("y").unwrap();
        let dfa = Dfa::from_regex(&Regex::concat([Regex::symbol(x), Regex::symbol(y)]));
        let (answer, overdeleted, next, compacted, patched) =
            resume_removal_case(&g, &dfa, 1.0, |delta| {
                assert!(delta.remove_edge(a, x, b));
            })
            .expect("within budget");
        assert_eq!(overdeleted, 1, "the source configuration is over-deleted");
        assert!(answer.contains(a), "the twin edge re-derives it");
        assert_eq!(answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        assert_eq!(next, fresh_seed(&patched, &dfa));

        let (answer, overdeleted, next, compacted, patched) =
            resume_removal_case(&g, &dfa, 1.0, |delta| {
                assert!(delta.remove_edge(a, x, b));
                assert!(delta.remove_edge(a, x, b));
            })
            .expect("within budget");
        assert_eq!(overdeleted, 1);
        assert!(answer.is_empty(), "no derivation is left");
        assert_eq!(answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        assert_eq!(next, fresh_seed(&patched, &dfa));
    }

    #[test]
    fn overdelete_budget_zero_bails_to_cold() {
        let g = figure1_like();
        let dfa = motivating(&g);
        let n1 = NodeId::from(0usize);
        let bus = g.label_id("bus").unwrap();
        // Removing N2's only outgoing edge dooms (at least) one non-accepting
        // configuration, which a zero budget refuses to over-delete.
        let bailed = resume_removal_case(&g, &dfa, 0.0, |delta| {
            assert!(delta.remove_edge(NodeId::from(1usize), bus, n1));
        });
        assert!(bailed.is_none(), "budget 0.0 must force the cold fallback");
    }

    #[test]
    fn overdelete_budget_zero_refuses_even_an_empty_cone() {
        // N4 --bus--> C1 leads nowhere (C1 has no way on to a cinema), so
        // removing it dooms no configuration.  Budget 0.0 is a kill switch
        // all the same: every removal recomputes cold.
        let mut g = figure1_like();
        let n4 = NodeId::from(2usize);
        let c1 = NodeId::from(3usize);
        g.add_edge_by_name(n4, "bus", c1);
        let dfa = motivating(&g);
        let bus = g.label_id("bus").unwrap();
        let remove = |delta: &mut gps_graph::DeltaGraph| {
            assert!(delta.remove_edge(n4, bus, c1));
        };
        let (answer, overdeleted, _, compacted, _) =
            resume_removal_case(&g, &dfa, DEFAULT_OVERDELETE_LIMIT, remove)
                .expect("an empty cone fits any positive budget");
        assert_eq!(overdeleted, 0, "the removed edge derived nothing");
        assert_eq!(answer, gps_rpq::eval::evaluate(&compacted, &dfa));
        assert!(
            resume_removal_case(&g, &dfa, 0.0, remove).is_none(),
            "budget 0.0 refuses every removal"
        );
    }
}
