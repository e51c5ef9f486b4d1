//! Landmark (ALT) distance oracle over the walking graph.
//!
//! The paper's query evaluators need shortest *network* distances on
//! `G(N, E)` (§4.2) at two granularities: point→point (candidate
//! pruning) and point→many-anchors in ascending order (kNN frontier
//! expansion). A full [`crate::ShortestPaths`] tree answers both by
//! settling **every** node; this module answers them goal-directed:
//!
//! * **Landmark tables** — `L` landmarks chosen by deterministic
//!   farthest-point selection, each with a full node-distance table. By
//!   the triangle inequality, `|d(l, v) − d(l, t)| ≤ d(v, t)` for every
//!   landmark `l`, so the tables yield an admissible A* heuristic
//!   (Goldberg & Harrelson, SODA 2005).
//! * **Exact unidirectional ALT** ([`DistanceOracle::distance`]) — A*
//!   with the landmark lower bound, engineered so the returned `f64` is
//!   *bit-identical* to [`crate::ShortestPaths::distance_to`]: the exact
//!   relaxation expressions are reused (left-to-right float sums), nodes
//!   may reopen, and the heuristic is deflated
//!   (`h = max(0, lb·(1−1e-9) − 1e-9)`) so float error in the tables can
//!   never make it inadmissible against float path sums. A bidirectional
//!   meet-in-the-middle variant would be faster still but sums path
//!   halves in a different order, which breaks bit-identity — the
//!   differential suite in `tests/oracle.rs` pins this choice.
//! * **Lazy ascending anchor scan** ([`DistanceOracle::scan`]) — a
//!   truncated Dijkstra that emits `(anchor, distance)` pairs in exactly
//!   the order a full sort of all anchor distances would produce,
//!   allowing kNN evaluation to stop as soon as enough probability mass
//!   has accumulated. Emission is safe because anchors sit at strictly
//!   interior edge offsets: any candidate produced by a future settle at
//!   distance `g` is ≥ `g`, so a pending anchor strictly below the node
//!   frontier can never be preempted.
//!
//! The tables are cheap to derive (one Dijkstra pass per landmark) and
//! are never persisted: owners build them once per graph.

use crate::{AnchorId, AnchorSet, EdgeId, GraphPos, NodeId, ShortestPaths, WalkingGraph};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{PoisonError, RwLock};

/// Default number of landmarks ([`DistanceOracle::build`]).
pub const DEFAULT_LANDMARKS: usize = 8;

/// Logical-cost counters of a [`DistanceOracle`]: atomic adds, so totals
/// are independent of thread interleaving. Settle counts are the
/// oracle's distance-computation cost units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Point-to-point queries answered (including memoized ones).
    pub p2p_queries: u64,
    /// Point-to-point queries served from the memo table.
    pub p2p_memo_hits: u64,
    /// Nodes settled across all ALT point-to-point searches.
    pub p2p_settled: u64,
    /// Ascending anchor scans started.
    pub scan_queries: u64,
    /// Nodes settled across all anchor scans.
    pub scan_settled: u64,
    /// Anchor distance candidates evaluated by scans.
    pub scan_anchor_candidates: u64,
}

#[derive(Debug, Default)]
struct Counters {
    p2p_queries: AtomicU64,
    p2p_memo_hits: AtomicU64,
    p2p_settled: AtomicU64,
    scan_queries: AtomicU64,
    scan_settled: AtomicU64,
    scan_anchor_candidates: AtomicU64,
}

/// A graph position as an exact hashable key: the edge plus the *bit
/// pattern* of the offset, so two positions compare equal exactly when
/// every search from them produces identical results.
type PosKey = (EdgeId, u64);

/// Landmark/ALT distance oracle. See the module docs for the design and
/// the exactness argument; `tests/oracle.rs` enforces both.
#[derive(Debug)]
pub struct DistanceOracle {
    landmarks: Vec<NodeId>,
    /// `tables[l][node.index()]` = shortest network distance from
    /// landmark `l`'s node to `node` (∞ when unreachable).
    tables: Vec<Vec<f64>>,
    memo: RwLock<HashMap<(PosKey, PosKey), f64>>,
    counters: Counters,
}

impl DistanceOracle {
    /// Precomputes landmark tables for `graph`.
    ///
    /// Landmark selection is deterministic farthest-point: the first
    /// landmark is the node farthest from node 0 (ties → smallest id),
    /// then each subsequent landmark maximizes the minimum distance to
    /// the already-chosen set. Selection stops early when every node is
    /// at distance 0 from a landmark (tiny graphs).
    pub fn build(graph: &WalkingGraph, landmark_count: usize) -> Self {
        let n = graph.nodes().len();
        assert!(n > 0, "cannot build an oracle over an empty graph");
        let want = landmark_count.clamp(1, n);

        let mut landmarks: Vec<NodeId> = Vec::with_capacity(want);
        let mut tables: Vec<Vec<f64>> = Vec::with_capacity(want);
        let mut chosen = vec![false; n];
        let mut min_dist = vec![f64::INFINITY; n];

        let d0 = Self::node_distances(graph, NodeId::new(0));
        let mut next = Self::farthest(&d0, &chosen);
        loop {
            chosen[next] = true;
            let lm = NodeId::new(next as u32);
            let table = Self::node_distances(graph, lm);
            for (md, &d) in min_dist.iter_mut().zip(&table) {
                if d < *md {
                    *md = d;
                }
            }
            landmarks.push(lm);
            tables.push(table);
            if landmarks.len() == want {
                break;
            }
            next = Self::farthest(&min_dist, &chosen);
            if min_dist[next] <= 0.0 {
                break; // every remaining node coincides with a landmark
            }
        }

        DistanceOracle {
            landmarks,
            tables,
            memo: RwLock::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// Index of the largest entry (∞ allowed, ties → smallest index)
    /// among non-chosen nodes.
    fn farthest(dist: &[f64], chosen: &[bool]) -> usize {
        let mut best = usize::MAX;
        let mut best_d = f64::NEG_INFINITY;
        for (i, &d) in dist.iter().enumerate() {
            if !chosen[i] && d > best_d {
                best_d = d;
                best = i;
            }
        }
        if best == usize::MAX {
            // Everything chosen already (want == n); caller stops anyway.
            0
        } else {
            best
        }
    }

    /// Exact node-to-node Dijkstra distances from `src`, by seeding the
    /// standard position-based search at `src`'s end of an incident edge
    /// (distance 0 at the node itself).
    fn node_distances(graph: &WalkingGraph, src: NodeId) -> Vec<f64> {
        let n = graph.nodes().len();
        let incident = graph.edges_at(src);
        let Some(&eid) = incident.first() else {
            let mut d = vec![f64::INFINITY; n];
            d[src.index()] = 0.0;
            return d;
        };
        let e = graph.edge(eid);
        let off = if e.a == src { 0.0 } else { e.length() };
        let sp = ShortestPaths::from_pos(graph, GraphPos::new(eid, off));
        (0..n)
            .map(|i| sp.node_distance(NodeId::new(i as u32)))
            .collect()
    }

    /// The selected landmark nodes, in selection order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> OracleStats {
        let c = &self.counters;
        let ld = |a: &AtomicU64| a.load(AtomicOrdering::Relaxed);
        OracleStats {
            p2p_queries: ld(&c.p2p_queries),
            p2p_memo_hits: ld(&c.p2p_memo_hits),
            p2p_settled: ld(&c.p2p_settled),
            scan_queries: ld(&c.scan_queries),
            scan_settled: ld(&c.scan_settled),
            scan_anchor_candidates: ld(&c.scan_anchor_candidates),
        }
    }

    /// Per-landmark distance to an arbitrary graph position, using the
    /// same float expression as [`ShortestPaths::distance_to`].
    fn target_potentials(&self, graph: &WalkingGraph, to: GraphPos) -> Vec<f64> {
        let e = graph.edge(to.edge);
        let len = e.length();
        self.tables
            .iter()
            .map(|t| {
                let via_a = t[e.a.index()] + to.offset;
                let via_b = t[e.b.index()] + (len - to.offset).max(0.0);
                via_a.min(via_b)
            })
            .collect()
    }

    /// Landmark lower bound `max_l |d(l, v) − d(l, t)|` for a node
    /// against precomputed target potentials. `∞` is a *proof* of
    /// disconnection (one side reaches the landmark, the other does
    /// not); a landmark disconnected from both sides contributes
    /// nothing.
    fn lower_bound(&self, v: NodeId, potentials: &[f64]) -> f64 {
        let mut lb = 0.0f64;
        for (t, &dt) in self.tables.iter().zip(potentials) {
            let diff = (t[v.index()] - dt).abs();
            if diff > lb {
                lb = diff; // NaN (∞ − ∞) never passes the comparison
            }
        }
        lb
    }

    /// Deflates an admissible real-arithmetic lower bound far enough
    /// that float error in table entries and path sums can never make it
    /// overestimate a *float* path sum (relative 1e-9 + absolute 1e-9
    /// dwarf the ~1e-12 accumulation error of any realistic path).
    fn h_safe(lb: f64) -> f64 {
        if !lb.is_finite() {
            return lb;
        }
        (lb * (1.0 - 1e-9) - 1e-9).max(0.0)
    }

    /// Exact shortest network distance from `from` to `to`, bit-identical
    /// to `ShortestPaths::from_pos(graph, from).distance_to(graph, to)`.
    ///
    /// Repeated queries for the same (source, target) pair are served
    /// from a memo table.
    pub fn distance(&self, graph: &WalkingGraph, from: GraphPos, to: GraphPos) -> f64 {
        self.counters
            .p2p_queries
            .fetch_add(1, AtomicOrdering::Relaxed);
        let key = (
            (from.edge, from.offset.to_bits()),
            (to.edge, to.offset.to_bits()),
        );
        if let Some(&d) = self
            .memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            self.counters
                .p2p_memo_hits
                .fetch_add(1, AtomicOrdering::Relaxed);
            return d;
        }
        let d = self.alt_distance(graph, from, to);
        self.memo
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, d);
        d
    }

    /// Unidirectional ALT (A* + landmark bounds) with reopening.
    fn alt_distance(&self, graph: &WalkingGraph, from: GraphPos, to: GraphPos) -> f64 {
        let potentials = self.target_potentials(graph, to);
        let te = graph.edge(to.edge);
        let tlen = te.length();
        let n = graph.nodes().len();
        let mut g = vec![f64::INFINITY; n];
        let mut best = if to.edge == from.edge {
            (to.offset - from.offset).abs()
        } else {
            f64::INFINITY
        };
        // Exact expressions of `distance_to`, applied whenever a target
        // edge endpoint improves: min over improvements equals the value
        // on the final distance because x ↦ fl(x + c) is monotone.
        let update_best = |node: NodeId, d: f64, best: &mut f64| {
            if node == te.a {
                let via_a = d + to.offset;
                if via_a < *best {
                    *best = via_a;
                }
            }
            if node == te.b {
                let via_b = d + (tlen - to.offset).max(0.0);
                if via_b < *best {
                    *best = via_b;
                }
            }
        };

        let mut heap: BinaryHeap<AltEntry> = BinaryHeap::new();
        let se = graph.edge(from.edge);
        let slen = se.length();
        for (node, d) in [(se.a, from.offset), (se.b, (slen - from.offset).max(0.0))] {
            if d < g[node.index()] {
                g[node.index()] = d;
                update_best(node, d, &mut best);
                heap.push(AltEntry {
                    f: d + Self::h_safe(self.lower_bound(node, &potentials)),
                    g: d,
                    node,
                });
            }
        }

        let mut settled = 0u64;
        while let Some(AltEntry { f, g: gd, node }) = heap.pop() {
            if gd > g[node.index()] {
                continue; // stale entry
            }
            if f >= best {
                // Every remaining frontier entry has f' ≥ f; with the
                // deflated admissible heuristic no remaining path can
                // strictly improve `best`.
                break;
            }
            settled += 1;
            for &eid in graph.edges_at(node) {
                let e = graph.edge(eid);
                let other = e.other_end(node).expect("incident edge");
                let nd = gd + e.length();
                if nd < g[other.index()] {
                    g[other.index()] = nd;
                    update_best(other, nd, &mut best);
                    heap.push(AltEntry {
                        f: nd + Self::h_safe(self.lower_bound(other, &potentials)),
                        g: nd,
                        node: other,
                    });
                }
            }
        }
        self.counters
            .p2p_settled
            .fetch_add(settled, AtomicOrdering::Relaxed);
        best
    }

    /// Starts a lazy ascending anchor scan from `from`: emitted
    /// `(anchor, distance)` pairs are exactly the full list of anchor
    /// distances (every anchor, unreachable ones at ∞) ordered by
    /// `(distance, anchor id)`, with distances bit-identical to
    /// [`ShortestPaths::distance_to`] — but computed incrementally, so a
    /// consumer that stops early only pays for the frontier it touched.
    pub fn scan<'a>(
        &'a self,
        graph: &'a WalkingGraph,
        anchors: &'a AnchorSet,
        from: GraphPos,
    ) -> AnchorScan<'a> {
        AnchorScan::new(graph, anchors, from, &self.counters)
    }

    /// Distances from `from` to exactly the `needed` anchors, via one
    /// anchor scan truncated as soon as the last needed anchor is
    /// resolved. Values are bit-identical to `distance_to`.
    pub fn distances_to_anchors(
        &self,
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        from: GraphPos,
        needed: &BTreeSet<AnchorId>,
    ) -> BTreeMap<AnchorId, f64> {
        let mut out = BTreeMap::new();
        if needed.is_empty() {
            return out;
        }
        for (a, d) in self.scan(graph, anchors, from) {
            if needed.contains(&a) {
                out.insert(a, d);
                if out.len() == needed.len() {
                    break;
                }
            }
        }
        out
    }
}

/// ALT frontier entry: min-heap on `f`, then `g`, then node id. The tie
/// levels beyond `f` only make heap behaviour deterministic — the
/// returned distance is a min over all relaxations and does not depend
/// on pop order.
#[derive(PartialEq)]
struct AltEntry {
    f: f64,
    g: f64,
    node: NodeId,
}

impl Eq for AltEntry {}

impl Ord for AltEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .f
            .partial_cmp(&self.f)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.g.partial_cmp(&self.g).unwrap_or(Ordering::Equal))
            .then_with(|| other.node.raw().cmp(&self.node.raw()))
    }
}

impl PartialOrd for AltEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra frontier entry of the anchor scan: min (dist, node id).
#[derive(PartialEq)]
struct ScanNode {
    dist: f64,
    node: NodeId,
}

impl Eq for ScanNode {}

impl Ord for ScanNode {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.raw().cmp(&self.node.raw()))
    }
}

impl PartialOrd for ScanNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pending anchor candidate: min (dist, anchor id) — the same ordering
/// the kNN evaluator's full heap uses, so emission order matches it
/// exactly, including ∞-distance ties broken by anchor id.
#[derive(PartialEq)]
struct ScanAnchor {
    dist: f64,
    anchor: AnchorId,
}

impl Eq for ScanAnchor {}

impl Ord for ScanAnchor {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.anchor.raw().cmp(&self.anchor.raw()))
    }
}

impl PartialOrd for ScanAnchor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lazy ascending anchor scan; see [`DistanceOracle::scan`].
///
/// An anchor is emitted only while its pending distance is *strictly*
/// below the node frontier's minimum: every candidate a future settle at
/// distance `g` can produce is `fl(g + offset) ≥ g` (offsets are
/// non-negative and float addition of non-negatives is monotone), so no
/// later candidate can precede — or tie and out-rank by id — an anchor
/// emitted under that rule. Once the node search is exhausted, remaining
/// anchors are resolved with the final-tree distance formula (∞ for
/// unreachable ones) and drained in heap order.
pub struct AnchorScan<'a> {
    graph: &'a WalkingGraph,
    anchors: &'a AnchorSet,
    source: GraphPos,
    node_dist: Vec<f64>,
    node_heap: BinaryHeap<ScanNode>,
    pending: BinaryHeap<ScanAnchor>,
    emitted: Vec<bool>,
    drained: bool,
    counters: &'a Counters,
}

impl<'a> AnchorScan<'a> {
    fn new(
        graph: &'a WalkingGraph,
        anchors: &'a AnchorSet,
        from: GraphPos,
        counters: &'a Counters,
    ) -> Self {
        counters.scan_queries.fetch_add(1, AtomicOrdering::Relaxed);
        let n = graph.nodes().len();
        let mut scan = AnchorScan {
            graph,
            anchors,
            source: from,
            node_dist: vec![f64::INFINITY; n],
            node_heap: BinaryHeap::new(),
            pending: BinaryHeap::new(),
            emitted: vec![false; anchors.anchors().len()],
            drained: false,
            counters,
        };
        // Same-edge direct candidates (the third arm of `distance_to`).
        for &aid in anchors.on_edge(from.edge) {
            let off = anchors.anchor(aid).pos.offset;
            scan.pending.push(ScanAnchor {
                dist: (off - from.offset).abs(),
                anchor: aid,
            });
            counters
                .scan_anchor_candidates
                .fetch_add(1, AtomicOrdering::Relaxed);
        }
        let se = graph.edge(from.edge);
        let slen = se.length();
        for (node, d) in [(se.a, from.offset), (se.b, (slen - from.offset).max(0.0))] {
            if d < scan.node_dist[node.index()] {
                scan.node_dist[node.index()] = d;
                scan.node_heap.push(ScanNode { dist: d, node });
            }
        }
        scan
    }

    /// Final-tree distance to every not-yet-emitted anchor, pushed into
    /// the pending heap. Only valid once the node search is exhausted.
    fn drain_remaining(&mut self) {
        for a in self.anchors.anchors() {
            if self.emitted[a.id.index()] {
                continue;
            }
            let e = self.graph.edge(a.pos.edge);
            let len = e.length();
            let via_a = self.node_dist[e.a.index()] + a.pos.offset;
            let via_b = self.node_dist[e.b.index()] + (len - a.pos.offset).max(0.0);
            let mut d = via_a.min(via_b);
            if a.pos.edge == self.source.edge {
                d = d.min((a.pos.offset - self.source.offset).abs());
            }
            self.pending.push(ScanAnchor {
                dist: d,
                anchor: a.id,
            });
        }
    }
}

impl Iterator for AnchorScan<'_> {
    type Item = (AnchorId, f64);

    fn next(&mut self) -> Option<(AnchorId, f64)> {
        loop {
            let threshold = self.node_heap.peek().map(|e| e.dist);
            if let Some(p) = self.pending.peek() {
                if threshold.is_none_or(|t| p.dist < t) {
                    let ScanAnchor { dist, anchor } =
                        self.pending.pop().expect("peeked entry present");
                    if self.emitted[anchor.index()] {
                        continue; // duplicate candidate of an emitted anchor
                    }
                    self.emitted[anchor.index()] = true;
                    return Some((anchor, dist));
                }
            }
            match threshold {
                None => {
                    if self.drained {
                        return None;
                    }
                    self.drained = true;
                    self.drain_remaining();
                    if self.pending.is_empty() {
                        return None;
                    }
                }
                Some(_) => {
                    let ScanNode { dist, node } =
                        self.node_heap.pop().expect("peeked entry present");
                    if dist > self.node_dist[node.index()] {
                        continue; // stale entry
                    }
                    self.counters
                        .scan_settled
                        .fetch_add(1, AtomicOrdering::Relaxed);
                    for &eid in self.graph.edges_at(node) {
                        let e = self.graph.edge(eid);
                        let len = e.length();
                        for &aid in self.anchors.on_edge(eid) {
                            if self.emitted[aid.index()] {
                                continue;
                            }
                            let off = self.anchors.anchor(aid).pos.offset;
                            // Exact via_a / via_b expressions of
                            // `distance_to`, with a settled (= final)
                            // endpoint distance.
                            let cand = if node == e.a {
                                dist + off
                            } else {
                                dist + (len - off).max(0.0)
                            };
                            self.pending.push(ScanAnchor {
                                dist: cand,
                                anchor: aid,
                            });
                            self.counters
                                .scan_anchor_candidates
                                .fetch_add(1, AtomicOrdering::Relaxed);
                        }
                        let other = e.other_end(node).expect("incident edge");
                        let nd = dist + len;
                        if nd < self.node_dist[other.index()] {
                            self.node_dist[other.index()] = nd;
                            self.node_heap.push(ScanNode {
                                dist: nd,
                                node: other,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_walking_graph;
    use ripq_floorplan::{office_building, OfficeParams};

    fn office() -> (ripq_floorplan::FloorPlan, WalkingGraph) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let g = build_walking_graph(&plan);
        (plan, g)
    }

    #[test]
    fn landmark_selection_is_deterministic_and_distinct() {
        let (_, g) = office();
        let a = DistanceOracle::build(&g, 8);
        let b = DistanceOracle::build(&g, 8);
        assert_eq!(a.landmarks(), b.landmarks());
        assert_eq!(a.landmarks().len(), 8);
        let set: BTreeSet<NodeId> = a.landmarks().iter().copied().collect();
        assert_eq!(set.len(), 8, "landmarks must be distinct");
    }

    #[test]
    fn p2p_matches_dijkstra_bit_for_bit() {
        let (plan, g) = office();
        let oracle = DistanceOracle::build(&g, 8);
        for i in 0..plan.rooms().len() {
            let from = g.project(plan.rooms()[i].center());
            let sp = ShortestPaths::from_pos(&g, from);
            for j in (0..plan.rooms().len()).step_by(3) {
                let to = g.project(plan.rooms()[j].center());
                assert_eq!(
                    oracle.distance(&g, from, to).to_bits(),
                    sp.distance_to(&g, to).to_bits(),
                    "rooms {i} -> {j}"
                );
            }
        }
    }

    #[test]
    fn p2p_memoizes_repeat_queries() {
        let (plan, g) = office();
        let oracle = DistanceOracle::build(&g, 4);
        let from = g.project(plan.rooms()[0].center());
        let to = g.project(plan.rooms()[9].center());
        let d1 = oracle.distance(&g, from, to);
        let d2 = oracle.distance(&g, from, to);
        assert_eq!(d1.to_bits(), d2.to_bits());
        let s = oracle.stats();
        assert_eq!(s.p2p_queries, 2);
        assert_eq!(s.p2p_memo_hits, 1);
    }

    #[test]
    fn scan_emits_every_anchor_in_exact_full_sort_order() {
        let (plan, g) = office();
        let anchors = AnchorSet::generate(&g, &plan, 1.0);
        let oracle = DistanceOracle::build(&g, 8);
        for room in [0usize, 13, 29] {
            let from = g.project(plan.rooms()[room].center());
            let sp = ShortestPaths::from_pos(&g, from);
            // Reference: the eager all-anchors ordering the kNN
            // evaluator's heap would pop.
            let mut expect: Vec<(AnchorId, f64)> = anchors
                .anchors()
                .iter()
                .map(|a| (a.id, sp.distance_to(&g, a.pos)))
                .collect();
            expect.sort_by(|(ia, da), (ib, db)| {
                da.partial_cmp(db)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| ia.cmp(ib))
            });
            let got: Vec<(AnchorId, f64)> = oracle.scan(&g, &anchors, from).collect();
            assert_eq!(got.len(), expect.len());
            for (idx, ((ga, gd), (ea, ed))) in got.iter().zip(&expect).enumerate() {
                assert_eq!(ga, ea, "anchor order diverged at {idx} (room {room})");
                assert_eq!(gd.to_bits(), ed.to_bits(), "distance bits at {idx}");
            }
        }
    }

    #[test]
    fn truncated_scan_settles_fewer_nodes_than_full_dijkstra() {
        let (plan, g) = office();
        let anchors = AnchorSet::generate(&g, &plan, 1.0);
        let oracle = DistanceOracle::build(&g, 8);
        let from = g.project(plan.rooms()[15].center());
        let mut scan = oracle.scan(&g, &anchors, from);
        for _ in 0..10 {
            scan.next().expect("anchors available");
        }
        drop(scan);
        let s = oracle.stats();
        assert!(
            (s.scan_settled as usize) < g.nodes().len() / 2,
            "10 nearest anchors settled {} of {} nodes",
            s.scan_settled,
            g.nodes().len()
        );
    }

    #[test]
    fn distances_to_anchors_truncates_and_matches() {
        let (plan, g) = office();
        let anchors = AnchorSet::generate(&g, &plan, 1.0);
        let oracle = DistanceOracle::build(&g, 8);
        let from = g.project(plan.rooms()[4].center());
        let sp = ShortestPaths::from_pos(&g, from);
        let needed: BTreeSet<AnchorId> =
            [3u32, 17, 40, 99].into_iter().map(AnchorId::new).collect();
        let got = oracle.distances_to_anchors(&g, &anchors, from, &needed);
        assert_eq!(got.len(), needed.len());
        for (&a, &d) in &got {
            assert_eq!(
                d.to_bits(),
                sp.distance_to(&g, anchors.anchor(a).pos).to_bits()
            );
        }
    }

    #[test]
    fn lower_bound_is_admissible_for_node_pairs() {
        let (_, g) = office();
        let oracle = DistanceOracle::build(&g, 8);
        for v in g.nodes().iter().step_by(3) {
            let sp = DistanceOracle::node_distances(&g, v.id);
            for t in g.nodes().iter().step_by(5) {
                let pos = node_pos(&g, t.id);
                let potentials = oracle.target_potentials(&g, pos);
                let lb = DistanceOracle::h_safe(oracle.lower_bound(v.id, &potentials));
                let true_d = sp[t.id.index()];
                assert!(
                    lb <= true_d + 1e-9,
                    "lb {lb} > true {true_d} for {} -> {}",
                    v.id,
                    t.id
                );
            }
        }
    }

    /// A graph position sitting exactly on a node.
    fn node_pos(g: &WalkingGraph, n: NodeId) -> GraphPos {
        let eid = g.edges_at(n)[0];
        let e = g.edge(eid);
        let off = if e.a == n { 0.0 } else { e.length() };
        GraphPos::new(eid, off)
    }
}
