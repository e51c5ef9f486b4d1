//! The cache management module (§4.5).
//!
//! "Insertion to the cache happens every time when Algorithm 2 is done for
//! an object oᵢ. In case near future queries need to determine the location
//! distribution for the same object oᵢ again, we do not need to run the
//! Particle Filter algorithm from the start; instead, previous computation
//! is reused by retrieving the particles of oᵢ from the cache and resuming
//! the Particle Filter algorithm from the cache-stored time stamp."
//!
//! Invalidation follows the paper exactly: "we decide to discard processed
//! particles of oᵢ from the cache every time oᵢ is detected by a new
//! device" — implemented by keying each entry with the identity of the
//! detection episode it was filtered under.
//!
//! [`ParticleCache`] is sharded and internally synchronized (`&self`
//! throughout), so the parallel preprocessing workers share one instance.
//! Each object maps to exactly one shard, and the hit/miss/invalidation
//! counters are atomics, so the statistics are the same whatever order
//! objects are processed in.

use crate::{Heading, IndoorState};
use ripq_graph::{EdgeId, GraphPos};
use ripq_persist::{ByteReader, ByteWriter, PersistError};
use ripq_rfid::{ObjectId, ReaderId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An episode identity: the most recent detecting reader plus the second
/// its episode began. A new episode (new device, or the same device after
/// a long gap) produces a different key and therefore a cache miss.
pub type EpisodeKey = (ReaderId, u64);

#[derive(Debug, Clone)]
struct CacheEntry {
    particles: Vec<IndoorState>,
    /// The simulated second the particle states correspond to.
    timestamp: u64,
    episode: EpisodeKey,
}

/// Hit/miss counters for cache effectiveness reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found reusable particles.
    pub hits: u64,
    /// Lookups that found nothing (or a stale episode).
    pub misses: u64,
    /// Entries evicted because the object was detected by a new device.
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Locks `mutex`, recovering the guard if a panic poisoned it. Every
/// critical section in this crate is a single map or slot operation, so the
/// data stays consistent, and a filter panic caught by supervision must not
/// turn into a pass-wide one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of independently locked shards. Objects hash to shards by id, so
/// concurrent workers mostly touch different locks.
const SHARDS: usize = 16;

/// A concurrently usable particle-state cache, one entry per object.
///
/// All methods take `&self`: the entry map is split into [`SHARDS`]
/// mutex-protected shards and the statistics are atomic counters. Because
/// every lookup/store touches only the shard of its own object, and the
/// counters commute, the observable state after preprocessing a candidate
/// set is independent of the order (or thread) the objects were processed
/// on.
#[derive(Debug)]
pub struct ParticleCache {
    shards: Vec<Mutex<HashMap<ObjectId, CacheEntry>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for ParticleCache {
    fn default() -> Self {
        ParticleCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }
}

impl ParticleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the shard of `object`.
    fn shard(&self, object: ObjectId) -> MutexGuard<'_, HashMap<ObjectId, CacheEntry>> {
        lock(&self.shards[object.raw() as usize % SHARDS])
    }

    /// Looks up reusable particles for `object`, valid only if they were
    /// filtered under the same detection episode `current_episode`.
    /// Returns the cached states and their timestamp on a hit.
    pub fn lookup(
        &self,
        object: ObjectId,
        current_episode: EpisodeKey,
    ) -> Option<(Vec<IndoorState>, u64)> {
        let mut shard = self.shard(object);
        match shard.get(&object) {
            Some(e) if e.episode == current_episode => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some((e.particles.clone(), e.timestamp))
            }
            Some(_) => {
                // Detected by a new device since this entry was stored:
                // discard it, per §4.5.
                shard.remove(&object);
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The episode a cached entry (if any) was filtered under, without
    /// touching the hit/miss statistics. A peek used by the preprocessor
    /// to classify an upcoming invalidation: same reader, new episode =
    /// an outage-style gap; different reader = a device handoff.
    pub fn cached_episode(&self, object: ObjectId) -> Option<EpisodeKey> {
        self.shard(object).get(&object).map(|e| e.episode)
    }

    /// Stores the post-filtering particle states of `object` at simulated
    /// second `timestamp`, tagged with the episode they were filtered
    /// under.
    pub fn store(
        &self,
        object: ObjectId,
        particles: Vec<IndoorState>,
        timestamp: u64,
        episode: EpisodeKey,
    ) {
        self.shard(object).insert(
            object,
            CacheEntry {
                particles,
                timestamp,
                episode,
            },
        );
    }

    /// Drops an object's entry.
    pub fn invalidate(&self, object: ObjectId) {
        if self.shard(object).remove(&object).is_some() {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// Appends the cache's full state — every entry plus the hit/miss
    /// counters — to `w` in the canonical checkpoint encoding (entries
    /// sorted by object id, so equal state always encodes identically
    /// regardless of shard hash order).
    pub fn encode_state(&self, w: &mut ByteWriter) {
        let mut entries: Vec<(ObjectId, CacheEntry)> = Vec::new();
        for shard in &self.shards {
            for (&o, e) in lock(shard).iter() {
                entries.push((o, e.clone()));
            }
        }
        entries.sort_by_key(|(o, _)| *o);
        w.put_seq_len(entries.len());
        for (o, e) in entries {
            w.put_u32(o.raw());
            w.put_u64(e.timestamp);
            w.put_u32(e.episode.0.raw());
            w.put_u64(e.episode.1);
            w.put_seq_len(e.particles.len());
            for p in &e.particles {
                w.put_u32(p.pos.edge.raw());
                w.put_f64(p.pos.offset);
                w.put_bool(matches!(p.heading, Heading::TowardB));
                w.put_f64(p.speed);
            }
        }
        w.put_u64(self.hits.load(Ordering::Relaxed));
        w.put_u64(self.misses.load(Ordering::Relaxed));
        w.put_u64(self.invalidations.load(Ordering::Relaxed));
    }

    /// Rebuilds a cache from bytes written by
    /// [`ParticleCache::encode_state`]. Any truncation or invalid
    /// tag is [`PersistError::Torn`].
    pub fn decode_state(r: &mut ByteReader<'_>) -> Result<ParticleCache, PersistError> {
        let cache = ParticleCache::new();
        let n_entries = r.get_seq_len(28)?;
        for _ in 0..n_entries {
            let object = ObjectId::new(r.get_u32()?);
            let timestamp = r.get_u64()?;
            let episode = (ReaderId::new(r.get_u32()?), r.get_u64()?);
            let n_particles = r.get_seq_len(21)?;
            let mut particles = Vec::with_capacity(n_particles);
            for _ in 0..n_particles {
                let edge = EdgeId::new(r.get_u32()?);
                let offset = r.get_f64()?;
                let heading = if r.get_bool()? {
                    Heading::TowardB
                } else {
                    Heading::TowardA
                };
                let speed = r.get_f64()?;
                particles.push(IndoorState {
                    pos: GraphPos::new(edge, offset),
                    heading,
                    speed,
                });
            }
            cache.store(object, particles, timestamp, episode);
        }
        cache.hits.store(r.get_u64()?, Ordering::Relaxed);
        cache.misses.store(r.get_u64()?, Ordering::Relaxed);
        cache.invalidations.store(r.get_u64()?, Ordering::Relaxed);
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Heading;
    use ripq_graph::{EdgeId, GraphPos};

    fn particle(offset: f64) -> IndoorState {
        IndoorState {
            pos: GraphPos::new(EdgeId::new(0), offset),
            heading: Heading::TowardB,
            speed: 1.0,
        }
    }

    const O: ObjectId = ObjectId::new(1);
    const EP1: EpisodeKey = (ReaderId::new(3), 100);
    const EP2: EpisodeKey = (ReaderId::new(4), 120);

    #[test]
    fn store_then_hit() {
        let c = ParticleCache::new();
        c.store(O, vec![particle(1.0)], 110, EP1);
        let (states, t) = c.lookup(O, EP1).expect("hit");
        assert_eq!(states.len(), 1);
        assert_eq!(t, 110);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn new_episode_invalidates() {
        let c = ParticleCache::new();
        c.store(O, vec![particle(1.0)], 110, EP1);
        assert!(c.lookup(O, EP2).is_none());
        assert_eq!(c.stats().invalidations, 1);
        // Entry is gone entirely.
        assert!(c.is_empty());
        assert!(c.lookup(O, EP1).is_none());
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn unknown_object_misses() {
        let c = ParticleCache::new();
        assert!(c.lookup(O, EP1).is_none());
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn hit_rate_math() {
        let c = ParticleCache::new();
        c.store(O, vec![particle(0.0)], 5, EP1);
        let _ = c.lookup(O, EP1);
        let _ = c.lookup(O, EP1);
        let _ = c.lookup(ObjectId::new(9), EP1);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn explicit_invalidation() {
        let c = ParticleCache::new();
        c.store(O, vec![particle(0.0)], 5, EP1);
        c.invalidate(O);
        assert!(c.is_empty());
        assert_eq!(c.stats().invalidations, 1);
        // Double-invalidation is a no-op.
        c.invalidate(O);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn store_overwrites() {
        let c = ParticleCache::new();
        c.store(O, vec![particle(0.0)], 5, EP1);
        c.store(O, vec![particle(9.0), particle(8.0)], 7, EP1);
        let (states, t) = c.lookup(O, EP1).unwrap();
        assert_eq!(states.len(), 2);
        assert_eq!(t, 7);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn shared_cache_is_usable_from_many_threads() {
        let c = ParticleCache::new();
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..50u32 {
                        let o = ObjectId::new(w * 50 + i);
                        c.store(o, vec![particle(f64::from(i))], 10, EP1);
                        assert!(c.lookup(o, EP1).is_some());
                        assert!(c.lookup(o, EP2).is_none());
                    }
                });
            }
        });
        // Each worker: 50 hits, then 50 invalidating misses.
        let s = c.stats();
        assert_eq!(s.hits, 200);
        assert_eq!(s.misses, 200);
        assert_eq!(s.invalidations, 200);
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn panic_while_a_shard_is_locked_does_not_poison_the_cache() {
        let c = ParticleCache::new();
        c.store(O, vec![particle(1.0)], 5, EP1);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _shard = c.shard(O);
            panic!("filter fault while the shard is locked");
        }));
        assert!(caught.is_err());
        assert!(c.lookup(O, EP1).is_some());
        c.store(O, vec![particle(2.0)], 6, EP1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn state_codec_round_trips_and_is_canonical() {
        let build = || {
            let c = ParticleCache::new();
            // Objects across different shards, some traffic for counters.
            for i in [0u32, 3, 16, 17, 40] {
                let o = ObjectId::new(i);
                c.store(
                    o,
                    vec![particle(f64::from(i)), particle(0.5)],
                    100 + u64::from(i),
                    EP1,
                );
            }
            let _ = c.lookup(ObjectId::new(0), EP1); // hit
            let _ = c.lookup(ObjectId::new(3), EP2); // invalidating miss
            let _ = c.lookup(ObjectId::new(99), EP1); // plain miss
            c
        };
        let c = build();
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();

        let mut w2 = ByteWriter::new();
        build().encode_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "encoding is not canonical");

        let mut r = ByteReader::new(&bytes);
        let d = ParticleCache::decode_state(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(d.stats(), c.stats());
        assert_eq!(d.len(), c.len());
        assert_eq!(
            d.lookup(ObjectId::new(0), EP1),
            c.lookup(ObjectId::new(0), EP1)
        );
        let mut w3 = ByteWriter::new();
        d.encode_state(&mut w3);
        // Both sides did one more identical hit above, so re-encode after
        // mirroring traffic must still agree.
        let mut w4 = ByteWriter::new();
        c.encode_state(&mut w4);
        assert_eq!(w3.into_bytes(), w4.into_bytes());
    }

    #[test]
    fn truncated_cache_state_is_torn_not_a_panic() {
        let c = ParticleCache::new();
        c.store(O, vec![particle(1.0), particle(2.0)], 9, EP1);
        let mut w = ByteWriter::new();
        c.encode_state(&mut w);
        let bytes = w.into_bytes();
        for cut in [0, 3, 11, bytes.len() / 2, bytes.len() - 1] {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert_eq!(
                ParticleCache::decode_state(&mut r).unwrap_err(),
                PersistError::Torn,
                "cut at {cut} not detected"
            );
        }
    }
}
