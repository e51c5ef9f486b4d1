//! Full-history reading storage for historical queries.
//!
//! §4.1: "since this research focuses on snapshot queries launched at the
//! present time, the data collector module can be designed as above to
//! save storage space. For systems which are required to answer historical
//! queries, the data collector module needs to be modified accordingly to
//! keep a longer reading history." This module is that modification:
//! [`HistoryCollector`] retains every aggregated entry, and
//! [`HistoryCollector::view_at`] materializes a read-only view that
//! behaves exactly like the space-bounded [`crate::DataCollector`] *as of
//! any past second* — the particle filter replays it unchanged and
//! answers "where was everyone at 10:42?" queries.

use crate::{AggregatedReadings, ObjectId, ReaderId, ReadingStore};
use std::collections::HashMap;

/// One full detection episode.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Episode {
    reader: ReaderId,
    first_second: u64,
    last_second: u64,
}

#[derive(Debug, Clone)]
struct ObjectHistory {
    start_second: u64,
    entries: Vec<Option<ReaderId>>,
    episodes: Vec<Episode>,
}

/// A data collector that never discards history.
#[derive(Debug, Clone, Default)]
pub struct HistoryCollector {
    objects: HashMap<ObjectId, ObjectHistory>,
    current_second: Option<u64>,
    /// Same-reader re-detections within this many seconds continue the
    /// episode (mirrors [`crate::DataCollector`]).
    gap_tolerance: u64,
}

impl HistoryCollector {
    /// Creates an empty history collector.
    pub fn new() -> Self {
        HistoryCollector {
            gap_tolerance: 2,
            ..Default::default()
        }
    }

    /// Ingests pre-aggregated per-second detections (at most one reader
    /// per object). Seconds must be non-decreasing.
    pub fn ingest_second(&mut self, second: u64, detections: &[(ObjectId, ReaderId)]) {
        if let Some(cur) = self.current_second {
            if second < cur {
                return; // stale batch (see DataCollector::ingest_second)
            }
        }
        self.current_second = Some(second);
        let mut det: HashMap<ObjectId, ReaderId> = HashMap::new();
        for &(o, r) in detections {
            det.insert(o, r);
        }
        let ids: Vec<ObjectId> = self.objects.keys().copied().collect();
        for id in ids {
            let reading = det.remove(&id);
            self.append(id, second, reading);
        }
        for (id, reader) in det {
            self.objects.insert(
                id,
                ObjectHistory {
                    start_second: second,
                    entries: Vec::new(),
                    episodes: Vec::new(),
                },
            );
            self.append(id, second, Some(reader));
        }
    }

    fn append(&mut self, id: ObjectId, second: u64, reading: Option<ReaderId>) {
        let gap = self.gap_tolerance;
        let st = self.objects.get_mut(&id).expect("caller ensures presence");
        let expected = st.start_second + st.entries.len() as u64;
        for _ in expected..second {
            st.entries.push(None);
        }
        st.entries.push(reading);
        if let Some(reader) = reading {
            let cont = st
                .episodes
                .last()
                .is_some_and(|e| e.reader == reader && second - e.last_second <= gap + 1);
            if cont {
                st.episodes.last_mut().expect("checked").last_second = second;
            } else {
                st.episodes.push(Episode {
                    reader,
                    first_second: second,
                    last_second: second,
                });
            }
        }
    }

    /// The last second fed in.
    pub fn current_second(&self) -> Option<u64> {
        self.current_second
    }

    /// Total retained entries across all objects (storage diagnostic; the
    /// §4.1 space argument is that [`crate::DataCollector`]'s equivalent
    /// figure stays bounded while this one grows with time).
    pub fn total_entries(&self) -> usize {
        self.objects.values().map(|h| h.entries.len()).sum()
    }

    /// A read-only view of the world as of `second` (inclusive),
    /// reproducing the snapshot collector's two-episode retention policy
    /// at that instant.
    pub fn view_at(&self, second: u64) -> HistoryView<'_> {
        HistoryView {
            inner: self,
            at: second,
        }
    }
}

/// The state of a [`HistoryCollector`] as of a fixed past second.
#[derive(Debug, Clone, Copy)]
pub struct HistoryView<'a> {
    inner: &'a HistoryCollector,
    at: u64,
}

impl HistoryView<'_> {
    /// The second this view is frozen at.
    pub fn at(&self) -> u64 {
        self.at
    }

    /// Episodes of `o` clipped to the view instant: drops episodes that
    /// start later, truncates one spanning it.
    fn episodes_at(&self, o: ObjectId) -> Option<(&ObjectHistory, Vec<Episode>)> {
        let st = self.inner.objects.get(&o)?;
        if st.start_second > self.at {
            return None; // object not yet seen at this instant
        }
        let eps: Vec<Episode> = st
            .episodes
            .iter()
            .filter(|e| e.first_second <= self.at)
            .map(|e| Episode {
                last_second: e.last_second.min(self.at),
                ..*e
            })
            .collect();
        if eps.is_empty() {
            return None;
        }
        Some((st, eps))
    }
}

impl ReadingStore for HistoryView<'_> {
    fn aggregated(&self, o: ObjectId) -> Option<AggregatedReadings<'_>> {
        let (st, eps) = self.episodes_at(o)?;
        // Retention: keep from the older of the two most recent episodes.
        let keep_from = if eps.len() >= 2 {
            eps[eps.len() - 2].first_second
        } else {
            eps[0].first_second
        };
        let lo = (keep_from - st.start_second) as usize;
        let hi = ((self.at - st.start_second) as usize + 1).min(st.entries.len());
        Some(AggregatedReadings {
            start_second: keep_from,
            entries: &st.entries[lo..hi],
        })
    }

    fn last_detection(&self, o: ObjectId) -> Option<(ReaderId, u64)> {
        let (_, eps) = self.episodes_at(o)?;
        eps.last().map(|e| (e.reader, e.last_second))
    }

    fn last_two_devices(&self, o: ObjectId) -> Option<(ReaderId, Option<ReaderId>)> {
        let (_, eps) = self.episodes_at(o)?;
        match eps.as_slice() {
            [] => None,
            [only] => Some((only.reader, None)),
            [.., prev, last] => Some((prev.reader, Some(last.reader))),
        }
    }

    fn last_episode(&self, o: ObjectId) -> Option<(ReaderId, u64, u64)> {
        let (_, eps) = self.episodes_at(o)?;
        eps.last()
            .map(|e| (e.reader, e.first_second, e.last_second))
    }

    fn object_ids(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self
            .inner
            .objects
            .iter()
            .filter(|(_, h)| h.start_second <= self.at)
            .map(|(&o, _)| o)
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataCollector;

    const O: ObjectId = ObjectId::new(0);
    const D1: ReaderId = ReaderId::new(1);
    const D2: ReaderId = ReaderId::new(2);
    const D3: ReaderId = ReaderId::new(3);

    fn feed_both(plan: &[(u64, Option<ReaderId>)]) -> (HistoryCollector, DataCollector) {
        let mut h = HistoryCollector::new();
        let mut d = DataCollector::new();
        for &(s, r) in plan {
            let det: Vec<(ObjectId, ReaderId)> = r.map(|r| (O, r)).into_iter().collect();
            h.ingest_second(s, &det);
            d.ingest_second(s, &det);
        }
        (h, d)
    }

    #[test]
    fn view_at_now_matches_snapshot_collector() {
        let plan = [
            (0, Some(D1)),
            (1, Some(D1)),
            (2, None),
            (3, Some(D2)),
            (4, None),
            (5, Some(D3)),
            (6, None),
        ];
        let (h, d) = feed_both(&plan);
        let v = h.view_at(6);
        // Retention agrees with the snapshot collector.
        let dv = d.aggregated(O).unwrap();
        let hv = ReadingStore::aggregated(&v, O).unwrap();
        assert_eq!(hv.start_second, dv.start_second);
        assert_eq!(hv.entries, dv.entries);
        assert_eq!(ReadingStore::last_two_devices(&v, O), d.last_two_devices(O));
        assert_eq!(ReadingStore::last_detection(&v, O), d.last_detection(O));
        assert_eq!(ReadingStore::last_episode(&v, O), d.last_episode(O));
    }

    #[test]
    fn view_at_past_instant_rewinds() {
        let plan = [
            (0, Some(D1)),
            (1, None),
            (2, Some(D2)),
            (3, None),
            (4, Some(D3)),
        ];
        let (h, _) = feed_both(&plan);
        // As of t=3, D3 has not happened: last two devices are D1, D2.
        let v = h.view_at(3);
        assert_eq!(ReadingStore::last_two_devices(&v, O), Some((D1, Some(D2))));
        assert_eq!(ReadingStore::last_detection(&v, O), Some((D2, 2)));
        let agg = ReadingStore::aggregated(&v, O).unwrap();
        assert_eq!(agg.start_second, 0);
        assert_eq!(agg.entries, &[Some(D1), None, Some(D2), None]);
    }

    #[test]
    fn view_truncates_spanning_episode() {
        let plan = [(0, Some(D1)), (1, Some(D1)), (2, Some(D1))];
        let (h, _) = feed_both(&plan);
        let v = h.view_at(1);
        assert_eq!(ReadingStore::last_episode(&v, O), Some((D1, 0, 1)));
        let agg = ReadingStore::aggregated(&v, O).unwrap();
        assert_eq!(agg.entries.len(), 2);
    }

    #[test]
    fn object_unknown_before_first_detection() {
        let plan = [(5, Some(D1))];
        let (h, _) = feed_both(&plan);
        let v = h.view_at(3);
        assert!(ReadingStore::aggregated(&v, O).is_none());
        assert!(ReadingStore::last_detection(&v, O).is_none());
        assert!(v.object_ids().is_empty());
        let v5 = h.view_at(5);
        assert_eq!(v5.object_ids(), vec![O]);
    }

    #[test]
    fn history_grows_while_snapshot_stays_bounded() {
        let mut h = HistoryCollector::new();
        let mut d = DataCollector::new();
        // Cycle through three readers over and over: the snapshot collector
        // keeps only two episodes, the history keeps everything.
        for round in 0..50u64 {
            for (i, reader) in [D1, D2, D3].into_iter().enumerate() {
                let s = round * 6 + i as u64 * 2;
                h.ingest_second(s, &[(O, reader)]);
                d.ingest_second(s, &[(O, reader)]);
                h.ingest_second(s + 1, &[]);
                d.ingest_second(s + 1, &[]);
            }
        }
        let snapshot_len = d.aggregated(O).unwrap().entries.len();
        assert!(snapshot_len <= 8, "snapshot retained {snapshot_len}");
        assert!(h.total_entries() >= 290, "history: {}", h.total_entries());
        // And at any past instant the view's retention is two episodes.
        let v = h.view_at(100);
        let agg = ReadingStore::aggregated(&v, O).unwrap();
        assert!(agg.entries.len() <= 8);
    }
}
