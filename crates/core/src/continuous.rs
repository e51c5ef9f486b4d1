//! Continuous indoor queries — the paper's stated future work ("we intend
//! to extend our framework to support more spatial query types such as
//! continuous range, continuous kNN", §6).
//!
//! A continuous query stays registered across timestamps; after each new
//! evaluation of the underlying `APtoObjHT` index it reports a *delta*
//! (which objects appeared, disappeared, or changed probability) instead
//! of a full result, which is what monitoring applications consume.

use crate::system::EvaluationReport;
use crate::{evaluate_knn, evaluate_range, KnnQuery, QueryId, RangeQuery, ResultSet, RipqError};
use ripq_floorplan::FloorPlan;
use ripq_geom::{Point2, Rect};
use ripq_graph::{AnchorObjectIndex, AnchorSet, WalkingGraph};
use ripq_rfid::ObjectId;
use std::collections::BTreeMap;

/// Probability movements below this threshold are not reported as changes.
pub const CHANGE_EPSILON: f64 = 1e-9;

/// The difference between two consecutive evaluations of a continuous
/// query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResultDelta {
    /// Objects that entered the result set, with their new probability.
    pub appeared: Vec<(ObjectId, f64)>,
    /// Objects that left the result set.
    pub disappeared: Vec<ObjectId>,
    /// Objects whose probability changed: `(object, old, new)`.
    pub changed: Vec<(ObjectId, f64, f64)>,
}

impl ResultDelta {
    /// `true` when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.appeared.is_empty() && self.disappeared.is_empty() && self.changed.is_empty()
    }

    /// Computes the delta that turns `old` into `new`. Output vectors are
    /// sorted by object id, so a delta renders identically on every run.
    pub fn between(old: &ResultSet, new: &ResultSet) -> ResultDelta {
        let mut delta = ResultDelta::default();
        for (o, p_new) in new.iter() {
            let p_old = old.probability(o);
            // ripq-lint: allow(prob-hygiene) -- exact zero is ResultSet's absent-object sentinel, not a float tolerance
            if p_old == 0.0 {
                delta.appeared.push((o, p_new));
            } else if (p_new - p_old).abs() > CHANGE_EPSILON {
                delta.changed.push((o, p_old, p_new));
            }
        }
        for (o, _) in old.iter() {
            // ripq-lint: allow(prob-hygiene) -- exact zero is ResultSet's absent-object sentinel, not a float tolerance
            if new.probability(o) == 0.0 {
                delta.disappeared.push(o);
            }
        }
        delta.appeared.sort_by_key(|&(o, _)| o);
        delta.disappeared.sort_unstable();
        delta.changed.sort_by_key(|&(o, _, _)| o);
        delta
    }

    /// Folds this delta into `rs` — the inverse of
    /// [`ResultDelta::between`]: applying every delta of a run, in order,
    /// onto an empty set reproduces the latest full result exactly.
    pub fn apply(&self, rs: &mut ResultSet) {
        for &(o, p) in &self.appeared {
            rs.set(o, p);
        }
        for &o in &self.disappeared {
            rs.set(o, 0.0);
        }
        for &(o, _, p_new) in &self.changed {
            rs.set(o, p_new);
        }
    }
}

/// What a continuous subscription watches — enough information to
/// re-register the underlying query after a restart (queries are
/// deliberately not part of durable snapshots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubscriptionKind {
    /// A continuous range query over a fixed window.
    Range(Rect),
    /// A continuous kNN query anchored at a fixed point.
    Knn(Point2, usize),
}

/// One registered continuous subscription: the externally chosen id maps
/// to the engine-side [`QueryId`] plus the most recent full result.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// What the subscription watches.
    pub kind: SubscriptionKind,
    /// The engine-side query backing this subscription. May differ
    /// across process lives (queries are re-registered on recovery); the
    /// subscription id is the stable external identity.
    pub query: QueryId,
    current: ResultSet,
}

impl Subscription {
    /// The most recent full result delivered for this subscription.
    pub fn current(&self) -> &ResultSet {
        &self.current
    }
}

/// The server-facing subscription registry: maps client-chosen
/// subscription ids to engine queries and computes per-epoch
/// [`ResultDelta`]s from full [`EvaluationReport`]s.
///
/// Unlike [`ContinuousEngine`] — which owns its queries and re-evaluates
/// them against a raw index — the registry rides on queries registered
/// with an [`crate::IndoorQuerySystem`], so candidate pruning and degraded
/// evaluation apply to continuous queries exactly as to snapshot ones.
#[derive(Debug, Default)]
pub struct SubscriptionRegistry {
    subs: BTreeMap<u64, Subscription>,
}

impl SubscriptionRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers subscription `sub` as watching `kind` through engine
    /// query `query`. Fails when the id is already taken.
    pub fn insert(
        &mut self,
        sub: u64,
        kind: SubscriptionKind,
        query: QueryId,
    ) -> Result<(), RipqError> {
        if self.subs.contains_key(&sub) {
            return Err(RipqError::DuplicateSubscription(sub));
        }
        self.subs.insert(
            sub,
            Subscription {
                kind,
                query,
                current: ResultSet::new(),
            },
        );
        Ok(())
    }

    /// Removes a subscription, returning it (deregister its
    /// [`Subscription::query`] from the system too).
    pub fn remove(&mut self, sub: u64) -> Option<Subscription> {
        self.subs.remove(&sub)
    }

    /// Looks up a subscription.
    pub fn get(&self, sub: u64) -> Option<&Subscription> {
        self.subs.get(&sub)
    }

    /// Iterates subscriptions in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Subscription)> + '_ {
        self.subs.iter().map(|(&id, s)| (id, s))
    }

    /// Number of registered subscriptions.
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` when no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Replaces a subscription's maintained result with checkpointed
    /// state (recovery support). Returns `false` for unknown ids.
    pub fn restore_current(&mut self, sub: u64, current: ResultSet) -> bool {
        match self.subs.get_mut(&sub) {
            Some(s) => {
                s.current = current;
                true
            }
            None => false,
        }
    }

    /// Folds one evaluation pass into every subscription: each
    /// subscription whose backing query answered in `report` advances its
    /// maintained result and contributes its delta. Returns the non-empty
    /// deltas in subscription-id order.
    pub fn deltas(&mut self, report: &EvaluationReport) -> Vec<(u64, ResultDelta)> {
        let mut out = Vec::new();
        for (&id, s) in &mut self.subs {
            let new = report
                .range_results
                .get(&s.query)
                .or_else(|| report.knn_results.get(&s.query));
            let Some(new) = new else {
                continue;
            };
            let delta = ResultDelta::between(&s.current, new);
            s.current = new.clone();
            if !delta.is_empty() {
                out.push((id, delta));
            }
        }
        out
    }
}

/// A continuous range query with incremental result maintenance.
#[derive(Debug, Clone)]
pub struct ContinuousRangeQuery {
    query: RangeQuery,
    current: ResultSet,
}

impl ContinuousRangeQuery {
    /// Wraps a range query for continuous monitoring.
    pub fn new(query: RangeQuery) -> Self {
        ContinuousRangeQuery {
            query,
            current: ResultSet::new(),
        }
    }

    /// The underlying query.
    pub fn query(&self) -> &RangeQuery {
        &self.query
    }

    /// The most recent full result.
    pub fn current(&self) -> &ResultSet {
        &self.current
    }

    /// Re-evaluates against a fresh index and returns the delta.
    pub fn update(
        &mut self,
        plan: &FloorPlan,
        anchors: &AnchorSet,
        index: &AnchorObjectIndex<ObjectId>,
    ) -> ResultDelta {
        let new = evaluate_range(plan, anchors, index, &self.query.window);
        let delta = ResultDelta::between(&self.current, &new);
        self.current = new;
        delta
    }
}

/// A continuous kNN query with incremental result maintenance.
#[derive(Debug, Clone)]
pub struct ContinuousKnnQuery {
    query: KnnQuery,
    current: ResultSet,
}

impl ContinuousKnnQuery {
    /// Wraps a kNN query for continuous monitoring.
    pub fn new(query: KnnQuery) -> Self {
        ContinuousKnnQuery {
            query,
            current: ResultSet::new(),
        }
    }

    /// The underlying query.
    pub fn query(&self) -> &KnnQuery {
        &self.query
    }

    /// The most recent full result.
    pub fn current(&self) -> &ResultSet {
        &self.current
    }

    /// Re-evaluates against a fresh index and returns the delta.
    pub fn update(
        &mut self,
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        index: &AnchorObjectIndex<ObjectId>,
    ) -> ResultDelta {
        let new = evaluate_knn(graph, anchors, index, &self.query);
        let delta = ResultDelta::between(&self.current, &new);
        self.current = new;
        delta
    }
}

/// A registry that owns many continuous queries and refreshes all of them
/// against each new index in one call — the monitoring loop's driver.
#[derive(Debug, Default)]
pub struct ContinuousEngine {
    ranges: Vec<(crate::QueryId, ContinuousRangeQuery)>,
    knns: Vec<(crate::QueryId, ContinuousKnnQuery)>,
    next: u32,
}

impl ContinuousEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a continuous range query.
    pub fn add_range(
        &mut self,
        window: ripq_geom::Rect,
    ) -> Result<crate::QueryId, crate::CoreError> {
        let id = crate::QueryId::new(self.next);
        let q = RangeQuery::new(id, window)?;
        self.next += 1;
        self.ranges.push((id, ContinuousRangeQuery::new(q)));
        Ok(id)
    }

    /// Registers a continuous kNN query.
    pub fn add_knn(
        &mut self,
        point: ripq_geom::Point2,
        k: usize,
    ) -> Result<crate::QueryId, crate::CoreError> {
        let id = crate::QueryId::new(self.next);
        let q = KnnQuery::new(id, point, k)?;
        self.next += 1;
        self.knns.push((id, ContinuousKnnQuery::new(q)));
        Ok(id)
    }

    /// Number of registered continuous queries.
    pub fn len(&self) -> usize {
        self.ranges.len() + self.knns.len()
    }

    /// `true` when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty() && self.knns.is_empty()
    }

    /// Refreshes every query against a fresh index; returns the non-empty
    /// deltas in registration order.
    pub fn update_all(
        &mut self,
        plan: &FloorPlan,
        graph: &WalkingGraph,
        anchors: &AnchorSet,
        index: &AnchorObjectIndex<ObjectId>,
    ) -> Vec<(crate::QueryId, ResultDelta)> {
        let mut out = Vec::new();
        for (id, q) in &mut self.ranges {
            let d = q.update(plan, anchors, index);
            if !d.is_empty() {
                out.push((*id, d));
            }
        }
        for (id, q) in &mut self.knns {
            let d = q.update(graph, anchors, index);
            if !d.is_empty() {
                out.push((*id, d));
            }
        }
        out
    }

    /// The current full result of a registered query, if it exists.
    pub fn current(&self, id: crate::QueryId) -> Option<&ResultSet> {
        self.ranges
            .iter()
            .find(|(qid, _)| *qid == id)
            .map(|(_, q)| q.current())
            .or_else(|| {
                self.knns
                    .iter()
                    .find(|(qid, _)| *qid == id)
                    .map(|(_, q)| q.current())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryId;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;

    fn o(i: u32) -> ObjectId {
        ObjectId::new(i)
    }

    fn world() -> (FloorPlan, WalkingGraph, AnchorSet) {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        (plan, graph, anchors)
    }

    #[test]
    fn delta_between_result_sets() {
        let old: ResultSet = [(o(1), 0.5), (o(2), 0.5)].into_iter().collect();
        let new: ResultSet = [(o(2), 0.8), (o(3), 0.2)].into_iter().collect();
        let d = ResultDelta::between(&old, &new);
        assert_eq!(d.appeared, vec![(o(3), 0.2)]);
        assert_eq!(d.disappeared, vec![o(1)]);
        assert_eq!(d.changed, vec![(o(2), 0.5, 0.8)]);
        assert!(!d.is_empty());
    }

    #[test]
    fn no_change_yields_empty_delta() {
        let rs: ResultSet = [(o(1), 0.5)].into_iter().collect();
        let d = ResultDelta::between(&rs, &rs.clone());
        assert!(d.is_empty());
    }

    #[test]
    fn continuous_range_reports_appearance_and_disappearance() {
        let (plan, _, anchors) = world();
        let room = &plan.rooms()[3];
        let q = RangeQuery::new(QueryId::new(0), *room.footprint()).unwrap();
        let mut cq = ContinuousRangeQuery::new(q);

        // t0: object in the room.
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(anchors.in_room(room.id())[0], 1.0)]);
        let d0 = cq.update(&plan, &anchors, &index);
        assert_eq!(d0.appeared.len(), 1);
        assert!((cq.current().probability(o(0)) - 1.0).abs() < 1e-9);

        // t1: object moved to a hallway anchor far away.
        let far = anchors.in_hallway(plan.hallways()[2].id())[0];
        index.set_object(o(0), vec![(far, 1.0)]);
        let d1 = cq.update(&plan, &anchors, &index);
        assert_eq!(d1.disappeared, vec![o(0)]);
        assert!(cq.current().is_empty());

        // t2: nothing changed.
        let d2 = cq.update(&plan, &anchors, &index);
        assert!(d2.is_empty());
    }

    #[test]
    fn engine_drives_many_queries() {
        let (plan, graph, anchors) = world();
        let mut engine = ContinuousEngine::new();
        let room = &plan.rooms()[2];
        let rq = engine.add_range(*room.footprint()).unwrap();
        let kq = engine
            .add_knn(plan.hallways()[0].footprint().center(), 1)
            .unwrap();
        assert_eq!(engine.len(), 2);
        assert!(!engine.is_empty());

        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(anchors.in_room(room.id())[0], 1.0)]);
        let deltas = engine.update_all(&plan, &graph, &anchors, &index);
        // Both queries see the object appear.
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().any(|(id, _)| *id == rq));
        assert!(deltas.iter().any(|(id, _)| *id == kq));
        assert!((engine.current(rq).unwrap().probability(o(0)) - 1.0).abs() < 1e-9);

        // No change → no deltas.
        let deltas = engine.update_all(&plan, &graph, &anchors, &index);
        assert!(deltas.is_empty());
        // Unknown id → None.
        assert!(engine.current(crate::QueryId::new(99)).is_none());
        // Validation errors propagate.
        assert!(engine.add_knn(ripq_geom::Point2::ORIGIN, 0).is_err());
    }

    #[test]
    fn deltas_fold_back_into_the_full_result() {
        let old: ResultSet = [(o(1), 0.5), (o(2), 0.5)].into_iter().collect();
        let new: ResultSet = [(o(2), 0.8), (o(3), 0.2)].into_iter().collect();
        let d = ResultDelta::between(&old, &new);
        let mut folded = old.clone();
        d.apply(&mut folded);
        assert_eq!(folded, new);
        // From empty through both states.
        let mut from_empty = ResultSet::new();
        ResultDelta::between(&ResultSet::new(), &old).apply(&mut from_empty);
        d.apply(&mut from_empty);
        assert_eq!(from_empty, new);
    }

    #[test]
    fn subscription_registry_maps_reports_to_deltas() {
        use crate::{IndoorQuerySystem, SystemConfig};
        let plan = office_building(&OfficeParams::default()).unwrap();
        let mut sys = IndoorQuerySystem::new(plan, SystemConfig::default(), 7);
        let reader = sys.readers()[2];
        for s in 0..3u64 {
            sys.ingest_detections(s, &[(o(0), reader.id())]);
        }
        let window = ripq_geom::Rect::centered(reader.position(), 10.0, 6.0);
        let qid = sys.register_range(window).unwrap();
        let mut reg = SubscriptionRegistry::new();
        reg.insert(7, SubscriptionKind::Range(window), qid).unwrap();
        assert_eq!(
            reg.insert(7, SubscriptionKind::Range(window), qid),
            Err(RipqError::DuplicateSubscription(7))
        );
        assert_eq!(reg.len(), 1);

        let report = sys.evaluate(3);
        let deltas = reg.deltas(&report);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].0, 7);
        assert!(!deltas[0].1.appeared.is_empty());
        assert_eq!(reg.get(7).unwrap().current(), &report.range_results[&qid]);

        // Same state again: no deltas.
        let report2 = sys.evaluate(3);
        assert!(reg.deltas(&report2).is_empty());

        // Removal hands back the subscription for query deregistration.
        let s = reg.remove(7).unwrap();
        assert_eq!(s.query, qid);
        assert!(reg.is_empty());
        assert!(reg.remove(7).is_none());
        assert!(!reg.restore_current(7, ResultSet::new()));
    }

    #[test]
    fn continuous_knn_tracks_probability_changes() {
        let (plan, graph, anchors) = world();
        let center = plan.hallways()[0].footprint().center();
        let q = KnnQuery::new(QueryId::new(0), center, 1).unwrap();
        let mut cq = ContinuousKnnQuery::new(q);

        let near = anchors.nearest(graph.project(center));
        let mut index = AnchorObjectIndex::new();
        index.set_object(o(0), vec![(near, 1.0)]);
        let d0 = cq.update(&graph, &anchors, &index);
        assert_eq!(d0.appeared, vec![(o(0), 1.0)]);

        // The object's inference becomes uncertain: probability drops but a
        // second object fills the result set.
        let far = anchors.in_hallway(plan.hallways()[2].id())[0];
        index.set_object(o(0), vec![(near, 0.4), (far, 0.6)]);
        index.set_object(o(1), vec![(near, 1.0)]);
        let d1 = cq.update(&graph, &anchors, &index);
        assert!(d1.appeared.iter().any(|&(obj, _)| obj == o(1)));
        assert!(d1
            .changed
            .iter()
            .any(|&(obj, old, new)| obj == o(0) && old == 1.0 && (new - 0.4).abs() < 1e-9));
    }
}
