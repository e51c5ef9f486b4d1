//! The particle filter-based preprocessing module — **Algorithm 2**.
//!
//! For every candidate object the preprocessor replays its retained
//! aggregated readings through the SIR filter: particles are seeded inside
//! the activation range of the second-most-recent detecting device, move
//! along the walking graph second by second, are reweighted and resampled
//! at every observation, coast for at most 60 s beyond the last reading,
//! and are finally snapped to anchor points to populate the `APtoObjHT`
//! hash table (§4.4).
//!
//! # Parallel preprocessing
//!
//! Objects are independent once the shared world state (graph, anchors,
//! readers, cache) is read-only or internally synchronized, so
//! [`ParticlePreprocessor::process`] can fan candidates out over worker
//! threads. To keep the output *bit-identical* regardless of the
//! worker count, each object draws from its own RNG stream, derived
//! deterministically from `(pass_seed, object id, resume timestamp)` by
//! [`derive_stream_seed`] — no draw ever depends on which objects were
//! processed before it, or on which thread it ran.

use crate::cache::{lock, EpisodeKey};
use crate::{
    IndoorState, KldConfig, MeasurementModel, MotionModel, ParticleCache, ParticleFilter,
    SensorGeometry,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ripq_graph::{
    AnchorId, AnchorObjectIndex, AnchorSet, DeltaOutcome, IndexDeltaStats, WalkingGraph,
};
use ripq_obs::{Counter, Histogram, Recorder};
use ripq_rfid::{ObjectId, Reader, ReaderId, ReadingStore};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Derives the seed of one object's private RNG stream for one
/// preprocessing pass.
///
/// The three inputs are folded into a SplitMix64 chain one at a time:
/// `pass_seed` separates evaluation passes, the object id separates
/// objects within a pass, and the resume timestamp separates a fresh
/// filter run from a cache-resumed one (which starts at a different
/// second and must not replay the same deviates). The result is
/// independent of processing order, which is what makes the parallel
/// fan-out bit-identical to the sequential loop.
pub fn derive_stream_seed(pass_seed: u64, object: ObjectId, resume_timestamp: u64) -> u64 {
    rand::mix_seed(
        pass_seed,
        &[u64::from(object.raw()).rotate_left(32), resume_timestamp],
    )
}

/// Tuning parameters of Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessorConfig {
    /// Number of particles per object (`Ns`; Table 2 default: 64).
    pub num_particles: usize,
    /// Object motion model.
    pub motion: MotionModel,
    /// Device sensing model for weighting.
    pub measurement: MeasurementModel,
    /// Maximum seconds the filter keeps running past the last active
    /// reading (Algorithm 2 line 6: `tmin = min(td + 60, tcurrent)`).
    pub coast_seconds: u64,
    /// Use *negative* observations too: during a second with no reading,
    /// particles sitting inside any reader's activation range are
    /// down-weighted — the aggregated per-second miss probability is
    /// essentially zero (§4.1), so an undetected object cannot be inside a
    /// range. Algorithm 2 as printed skips null entries (lines 18–19);
    /// this flag is our documented strengthening, on by default, with an
    /// ablation benchmark quantifying its effect.
    pub negative_evidence: bool,
    /// Resample when the effective sample size drops below this fraction
    /// of `Ns`. The original SIR filter (and the paper) resamples at every
    /// observation (`1.0`); the default `0.5` preserves hypothesis
    /// diversity at small particle counts, where per-second resampling
    /// collapses the cloud into clones of a single lineage.
    pub resample_threshold: f64,
    /// Kernel-density bandwidth (meters) used when converting the final
    /// particle set into an anchor distribution. A raw `Ns`-particle
    /// histogram is overconfident; triangular-kernel smoothing is the
    /// standard density conversion. `0` = plain nearest-anchor snapping.
    pub kde_bandwidth: f64,
    /// KLD-sampling (Fox 2001): adapt the particle count to the posterior
    /// spread at every resampling step. `None` keeps the paper's fixed
    /// `Ns`.
    pub adaptive: Option<KldConfig>,
}

impl Default for PreprocessorConfig {
    fn default() -> Self {
        PreprocessorConfig {
            num_particles: 64,
            motion: MotionModel::default(),
            measurement: MeasurementModel::default(),
            coast_seconds: 60,
            negative_evidence: true,
            resample_threshold: 0.5,
            kde_bandwidth: 2.0,
            adaptive: None,
        }
    }
}

/// How much of the full particle-filter pipeline produced an object's
/// answer distribution, ordered from best to worst. A query's overall
/// level is the maximum over the objects it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Full Algorithm 2 run at the configured particle count.
    Full,
    /// The per-query budget forced a reduced particle count (the
    /// KLD-sampling floor), trading sharpness for latency.
    ReducedParticles,
    /// The budget was exhausted: the answer is a uniform distribution
    /// over the anchors inside the object's pruning circle (§4.3) — the
    /// weakest statement the readings still support.
    UniformFallback,
    /// The object's filter panicked past the retry limit; the answer is
    /// the same uniform pruning-circle distribution, and the object is
    /// flagged so operators know inference is persistently failing.
    Quarantined,
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradationLevel::Full => "full",
            DegradationLevel::ReducedParticles => "reduced-particles",
            DegradationLevel::UniformFallback => "uniform-fallback",
            DegradationLevel::Quarantined => "quarantined",
        })
    }
}

/// Knobs of [`ParticlePreprocessor::process`]: worker
/// isolation, bounded retry and the per-pass evaluation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionOptions {
    /// Panicking filter runs are retried (from a fresh reseed, cache
    /// disabled) at most this many times before quarantining the object.
    pub retry_limit: usize,
    /// Evaluation budget for the whole pass in cost units (simulated
    /// seconds × particle count, a deterministic logical-clock model).
    /// `None` = unbounded (every object runs the full filter).
    pub budget: Option<u64>,
    /// Deterministic fault hook for tests: this object's filter panics on
    /// its first [`SupervisionOptions::panic_attempts`] attempts.
    pub panic_object: Option<ObjectId>,
    /// How many attempts of [`SupervisionOptions::panic_object`] panic.
    pub panic_attempts: usize,
}

impl Default for SupervisionOptions {
    fn default() -> Self {
        SupervisionOptions {
            retry_limit: 1,
            budget: None,
            panic_object: None,
            panic_attempts: 1,
        }
    }
}

/// Everything [`ParticlePreprocessor::filter_object`] needs that was
/// decided *before* any random draw: the episode identity, the simulation
/// window, and the (already consumed) cache-lookup result. Splitting this
/// out lets the pass derive the per-object RNG from the resume timestamp
/// before the filter body runs.
struct ObjectPlan {
    episode_key: EpisodeKey,
    /// `tmin = min(td + coast, now)` — Algorithm 2 line 6.
    tmin: u64,
    /// Second-most-recent detecting device (`dᵢ`), the fresh-seed source.
    seed_device: ReaderId,
    /// First retained second of the aggregated readings.
    agg_start: u64,
    /// The cache-lookup result (the lookup itself already happened and
    /// counted toward the statistics).
    cached: Option<(Vec<IndoorState>, u64)>,
    /// The second this pass's filtering effectively starts from: the
    /// cached timestamp on a hit, the aggregation start on a miss. Feeds
    /// [`derive_stream_seed`].
    resume_timestamp: u64,
}

/// Resolved `pf.*` metric handles. Every recording operation is
/// commutative (atomic adds, histogram bucket counts), so worker threads
/// sharing one preprocessor produce interleaving-independent totals.
/// All handles default to no-ops until a recorder is attached.
#[derive(Debug, Clone, Default)]
struct PfMetrics {
    /// Objects run through Algorithm 2.
    objects: Counter,
    /// SIR main-loop seconds simulated (Algorithm 2 lines 7–31).
    sir_iterations: Counter,
    /// Effective sample size at each observation step, floored.
    ess: Histogram,
    /// Resampling steps actually taken (ESS below threshold).
    resamples: Counter,
    /// Sensor resets (reading contradicted every hypothesis).
    sensor_resets: Counter,
    /// Filter runs resumed from cached particles.
    cache_resumes: Counter,
    /// Seconds of replay a cache resume skipped.
    resume_depth: Histogram,
    /// Passes where the 60 s coast cutoff truncated the simulation.
    cutoff_hits: Counter,
    /// Seconds the coast cutoff culled from the simulation window.
    cutoff_seconds_skipped: Counter,
    /// Final particle-set size per object (KLD sampling may shrink it).
    final_particles: Histogram,
    /// Cache invalidations caused by a same-device episode split: the
    /// reading stream went dark long enough (reader outage, deep drop
    /// burst) to break the episode even though the same reader re-detected
    /// the object, forcing a fresh reseed.
    outage_resets: Counter,
}

/// Algorithm 2 runner, borrowing the static world description.
pub struct ParticlePreprocessor<'a> {
    graph: &'a WalkingGraph,
    anchors: &'a AnchorSet,
    readers: &'a [Reader],
    /// Reader reach and seeding spans of `graph` and `readers`: owned when
    /// built by [`ParticlePreprocessor::new`], borrowed from a caller that
    /// keeps one across preprocessors.
    geometry: Cow<'a, SensorGeometry>,
    config: PreprocessorConfig,
    metrics: PfMetrics,
    /// Kept for lazily registered `degrade.*` counters: unlike the
    /// pre-resolved [`PfMetrics`] handles (which register their names at
    /// zero the moment a recorder is attached), degradation counters only
    /// appear in snapshots once degradation actually happens.
    recorder: Recorder,
}

impl<'a> ParticlePreprocessor<'a> {
    /// Creates a preprocessor over a fixed graph / anchor set / reader
    /// deployment, building its [`SensorGeometry`]. `readers` must be
    /// dense: `readers[id.index()].id() == id`.
    pub fn new(
        graph: &'a WalkingGraph,
        anchors: &'a AnchorSet,
        readers: &'a [Reader],
        config: PreprocessorConfig,
    ) -> Self {
        let geometry = Cow::Owned(SensorGeometry::new(graph, readers));
        Self::over(graph, anchors, readers, geometry, config)
    }

    /// Like [`ParticlePreprocessor::new`], but borrows a `geometry` the
    /// caller keeps for the world's lifetime, so creating a preprocessor
    /// per evaluation pass costs no table build. `geometry` must have been
    /// built by [`SensorGeometry::new`] from the same `graph` and
    /// `readers`.
    pub fn with_geometry(
        graph: &'a WalkingGraph,
        anchors: &'a AnchorSet,
        readers: &'a [Reader],
        geometry: &'a SensorGeometry,
        config: PreprocessorConfig,
    ) -> Self {
        Self::over(graph, anchors, readers, Cow::Borrowed(geometry), config)
    }

    fn over(
        graph: &'a WalkingGraph,
        anchors: &'a AnchorSet,
        readers: &'a [Reader],
        geometry: Cow<'a, SensorGeometry>,
        config: PreprocessorConfig,
    ) -> Self {
        debug_assert!(readers.iter().enumerate().all(|(i, r)| r.id().index() == i));
        ParticlePreprocessor {
            graph,
            anchors,
            readers,
            geometry,
            config,
            metrics: PfMetrics::default(),
            recorder: Recorder::default(),
        }
    }

    /// Attaches an observability recorder: `pf.*` counters and histograms
    /// are recorded from now on. Handles are resolved once here, so the
    /// per-step cost is an atomic add (or a no-op branch when the
    /// recorder is disabled).
    pub fn with_recorder(mut self, recorder: &Recorder) -> Self {
        self.metrics = PfMetrics {
            objects: recorder.counter("pf.objects_processed"),
            sir_iterations: recorder.counter("pf.sir_iterations"),
            ess: recorder.histogram("pf.ess"),
            resamples: recorder.counter("pf.resamples"),
            sensor_resets: recorder.counter("pf.sensor_resets"),
            cache_resumes: recorder.counter("pf.cache_resumes"),
            resume_depth: recorder.histogram("pf.resume_depth_seconds"),
            cutoff_hits: recorder.counter("pf.coast_cutoff_hits"),
            cutoff_seconds_skipped: recorder.counter("pf.coast_seconds_skipped"),
            final_particles: recorder.histogram("pf.final_particles"),
            outage_resets: recorder.counter("pf.outage_resets"),
        };
        self.recorder = recorder.clone();
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &PreprocessorConfig {
        &self.config
    }

    fn reader(&self, id: ReaderId) -> &Reader {
        &self.readers[id.index()]
    }

    /// Lines 1–6 of Algorithm 2 plus the cache lookup (§4.5): everything
    /// that happens before the first random draw. `None` when the
    /// collector has never seen the object.
    fn plan_object<S: ReadingStore + ?Sized>(
        &self,
        collector: &S,
        object: ObjectId,
        now: u64,
        cache: Option<&ParticleCache>,
    ) -> Option<ObjectPlan> {
        let agg = collector.aggregated(object)?;
        let (_, td) = collector.last_detection(object)?;
        let (di, _) = collector.last_two_devices(object)?;
        let (ep_reader, ep_first, _) = collector.last_episode(object)?;
        let episode_key = (ep_reader, ep_first);

        // `tmin = min(td + 60, tcurrent)` — line 6.
        let tmin = (td + self.config.coast_seconds).min(now);
        if tmin < now {
            self.metrics.cutoff_hits.inc();
            self.metrics.cutoff_seconds_skipped.add(now - tmin);
        }
        let agg_start = agg.start_second;

        let prior_episode = cache.and_then(|c| c.cached_episode(object));
        let cached = cache.and_then(|c| c.lookup(object, episode_key));
        if cached.is_none() {
            // Classify the invalidation: the same reader starting a new
            // episode means the stream went dark past the gap tolerance
            // (outage-style), not that the object moved to a new device.
            if let Some(prev) = prior_episode {
                if prev != episode_key && prev.0 == episode_key.0 {
                    self.metrics.outage_resets.inc();
                }
            }
        }
        let resume_timestamp = match &cached {
            Some((_, t)) => *t,
            None => agg_start,
        };
        Some(ObjectPlan {
            episode_key,
            tmin,
            seed_device: di,
            agg_start,
            cached,
            resume_timestamp,
        })
    }

    /// Lines 7–36 of Algorithm 2: seed or resume the filter, replay the
    /// aggregated readings up to `tmin`, store back into the cache, snap
    /// to anchors. All random draws of the pass happen here, in a fixed
    /// order independent of other objects. `particles_override` is the
    /// degraded-evaluation path: the same filter with fewer particles
    /// instead of a different algorithm.
    ///
    /// Returns the object's distribution over anchor points, or `None`
    /// only if the object vanished from the collector between planning and
    /// filtering (unobservable, but handled for the supervised fan-out).
    fn filter_object<R: Rng, S: ReadingStore + ?Sized>(
        &self,
        rng: &mut R,
        collector: &S,
        object: ObjectId,
        mut plan: ObjectPlan,
        cache: Option<&ParticleCache>,
        particles_override: Option<usize>,
    ) -> Option<Vec<(AnchorId, f64)>> {
        let agg = collector.aggregated(object)?;
        let num_particles = particles_override.unwrap_or(self.config.num_particles);
        if let (Some(n), Some((states, _))) = (particles_override, plan.cached.as_mut()) {
            // A reduced-budget resume keeps (a deterministic prefix of)
            // the cached cloud rather than discarding the prior entirely.
            states.truncate(n);
        }

        if plan.cached.is_some() {
            self.metrics.cache_resumes.inc();
            self.metrics
                .resume_depth
                .observe(plan.resume_timestamp.saturating_sub(plan.agg_start));
        }
        let (mut filter, start) = match plan.cached {
            Some((states, t)) if t <= plan.tmin => (ParticleFilter::from_states(states), t + 1),
            Some((states, _)) => {
                // Cached states are already at/after tmin: reuse directly.
                return Some(self.finish(ParticleFilter::from_states(states), 0));
            }
            None => {
                // Fresh start: seed within the second-most-recent device's
                // activation range at the first retained second (line 5).
                let seeds = self.geometry.seed_particles(
                    rng,
                    self.graph,
                    self.reader(plan.seed_device),
                    &self.config.motion,
                    num_particles,
                );
                (ParticleFilter::from_states(seeds), plan.agg_start + 1)
            }
        };

        // Main loop — lines 7..31.
        let mut simulated = 0u64;
        for tj in start..=plan.tmin {
            filter.predict(|s| self.config.motion.step(rng, self.graph, s, 1.0));
            simulated += 1;
            // Line 17: the aggregated reading entry of tj (None both when
            // the entry says "no detection" and beyond the retained
            // window).
            let reading = agg.entry_at(tj).flatten();
            if let Some(device) = reading {
                let reader = self.reader(device);
                let mut any_consistent = false;
                filter.reweight(|s| {
                    let inside = self.geometry.covers(self.graph, reader, s.pos);
                    any_consistent |= inside;
                    self.config.measurement.likelihood(inside)
                });
                if any_consistent {
                    filter.normalize();
                    let ess = filter.effective_sample_size();
                    self.metrics.ess.observe_f64(ess);
                    if ess < filter.len() as f64 * self.config.resample_threshold {
                        self.resample(rng, &mut filter);
                        self.metrics.resamples.inc();
                    }
                } else {
                    // Sensor reset: the reading contradicts every
                    // hypothesis (the cloud drifted the wrong way), so
                    // the uniform low weights carry no information —
                    // reseed the whole set inside the detecting range
                    // instead. Standard kidnapped-robot recovery for low
                    // particle counts.
                    let n = filter.len();
                    let seeds = self.geometry.seed_particles(
                        rng,
                        self.graph,
                        reader,
                        &self.config.motion,
                        n,
                    );
                    filter = ParticleFilter::from_states(seeds);
                    self.metrics.sensor_resets.inc();
                }
            } else if self.config.negative_evidence {
                // No reading this second ⇒ the object is outside every
                // activation range (per-second misses are ~impossible
                // after aggregation). Down-weight particles inside one.
                let mm = self.config.measurement;
                let mut any_inside = false;
                filter.reweight(|s| {
                    if self.geometry.any_covers(self.graph, s.pos) {
                        any_inside = true;
                        mm.low_weight
                    } else {
                        mm.high_weight
                    }
                });
                if any_inside {
                    filter.normalize();
                    // Resample only on real degeneracy to preserve
                    // hypothesis diversity during long silent stretches.
                    let ess = filter.effective_sample_size();
                    self.metrics.ess.observe_f64(ess);
                    if ess < filter.len() as f64 * self.config.resample_threshold {
                        self.resample(rng, &mut filter);
                        self.metrics.resamples.inc();
                    }
                }
            }
        }

        let timestamp = plan.tmin.max(start.saturating_sub(1));
        if let Some(c) = cache {
            c.store(
                object,
                filter.states().to_vec(),
                timestamp,
                plan.episode_key,
            );
        }
        Some(self.finish(filter, simulated))
    }

    /// Resamples, adapting the output size per KLD-sampling when enabled.
    fn resample<R: Rng>(&self, rng: &mut R, filter: &mut ParticleFilter<IndoorState>) {
        match self.config.adaptive {
            Some(cfg) => {
                let bins = cfg.occupied_bins(self.anchors, filter.states());
                filter.resample_to(rng, cfg.target_count(bins));
            }
            None => filter.resample(rng),
        }
    }

    fn finish(&self, filter: ParticleFilter<IndoorState>, simulated: u64) -> Vec<(AnchorId, f64)> {
        self.metrics.objects.inc();
        self.metrics.sir_iterations.add(simulated);
        self.metrics.final_particles.observe(filter.len() as u64);
        // Lines 32–36: snap each particle to its nearest anchor point;
        // p(o at ap) = n/Ns.
        let n = filter.len() as f64;
        self.anchors.kde_distribution(
            filter.states().iter().map(|s| (s.pos, 1.0 / n)),
            self.config.kde_bandwidth,
        )
    }

    /// The weakest answer the readings still support: a uniform
    /// distribution over the anchors inside the object's pruning circle
    /// (§4.3), centered at the last detecting reader with radius
    /// `activation_range + v_max · (now − t_last)`. `None` when the
    /// collector has never detected the object (or no anchors exist).
    fn fallback_distribution<S: ReadingStore + ?Sized>(
        &self,
        collector: &S,
        object: ObjectId,
        now: u64,
    ) -> Option<Vec<(AnchorId, f64)>> {
        let (reader, t_last) = collector.last_detection(object)?;
        let r = self.reader(reader);
        let center = r.position();
        // The motion model draws speeds from N(μ, σ²); μ + 3σ bounds the
        // population for the same purpose SystemConfig::max_speed serves
        // in query pruning.
        let v_max = self.config.motion.speed_mean + 3.0 * self.config.motion.speed_std;
        let radius = r.activation_range() + v_max * now.saturating_sub(t_last) as f64;
        let inside: Vec<AnchorId> = self
            .anchors
            .anchors()
            .iter()
            .filter(|a| a.point.distance(center) <= radius)
            .map(|a| a.id)
            .collect();
        let ids = if inside.is_empty() {
            // Degenerate circle (no anchor inside): the nearest anchor to
            // the reader carries all the mass.
            vec![self.anchors.nearest(r.graph_pos())]
        } else {
            inside
        };
        let mass = 1.0 / ids.len() as f64;
        Some(ids.into_iter().map(|a| (a, mass)).collect())
    }

    /// One supervised candidate: run the (possibly budget-reduced) filter
    /// under panic isolation with bounded retry, degrading to the uniform
    /// fallback when the filter is persistently poisoned. Returns the
    /// answered distribution and the level it was produced at.
    #[allow(clippy::too_many_arguments)]
    fn run_supervised_object<S: ReadingStore + Sync + ?Sized>(
        &self,
        pass_seed: u64,
        collector: &S,
        object: ObjectId,
        mut plan: Option<ObjectPlan>,
        level: DegradationLevel,
        now: u64,
        cache: Option<&ParticleCache>,
        options: &SupervisionOptions,
    ) -> Option<(Vec<(AnchorId, f64)>, DegradationLevel)> {
        if matches!(level, DegradationLevel::UniformFallback) {
            return self
                .fallback_distribution(collector, object, now)
                .map(|d| (d, level));
        }
        let particles_override = match level {
            DegradationLevel::ReducedParticles => Some(
                self.config
                    .adaptive
                    .unwrap_or_default()
                    .min_particles
                    .min(self.config.num_particles),
            ),
            _ => None,
        };
        let mut attempt = 0usize;
        loop {
            let p = match plan.take() {
                Some(p) => p,
                // Retry path: replan with the cache disabled, so the
                // filter reseeds from the last readings instead of
                // resuming whatever states the panicking run left behind.
                None => match self.plan_object(collector, object, now, None) {
                    Some(p) => p,
                    None => {
                        return self
                            .fallback_distribution(collector, object, now)
                            .map(|d| (d, DegradationLevel::Quarantined))
                    }
                },
            };
            let resume = p.resume_timestamp;
            let result = catch_unwind(AssertUnwindSafe(|| {
                if options.panic_object == Some(object) && attempt < options.panic_attempts {
                    // ripq-lint: allow(no-panic-paths) -- deliberate fault injection: the panic is the supervision test fixture, caught by this catch_unwind
                    panic!("injected particle-filter fault (attempt {attempt})");
                }
                let mut rng = StdRng::seed_from_u64(derive_stream_seed(pass_seed, object, resume));
                self.filter_object(&mut rng, collector, object, p, cache, particles_override)
            }));
            match result {
                Ok(out) => return out.map(|d| (d, level)),
                Err(_) => {
                    self.recorder.add("degrade.pf_panics", 1);
                    // Whatever half-updated states the panicking attempt
                    // stored must not poison later passes.
                    if let Some(c) = cache {
                        c.invalidate(object);
                    }
                    if attempt >= options.retry_limit {
                        self.recorder.add("degrade.quarantined", 1);
                        return self
                            .fallback_distribution(collector, object, now)
                            .map(|d| (d, DegradationLevel::Quarantined));
                    }
                    self.recorder.add("degrade.retries", 1);
                    attempt += 1;
                }
            }
        }
    }

    /// Runs Algorithm 2 for every candidate and applies the answers to the
    /// caller-owned `APtoObjHT` `index` — the one way to run the particle
    /// filter.
    ///
    /// Each object draws from its own RNG stream, derived from `pass_seed`
    /// by [`derive_stream_seed`], so no draw depends on candidate order or
    /// on the worker it ran on. Three deterministic phases:
    ///
    /// 1. **Plan** (sequential, candidate order): lines 1–6 of Algorithm 2
    ///    plus the cache lookup for every candidate. All metric updates
    ///    commute, so planning everything up front is bit-identical to
    ///    interleaving plan and filter per object.
    /// 2. **Budget** (sequential, candidate order): each object's filter
    ///    cost is `simulated seconds × particle count` — a logical-clock
    ///    model, so the ladder decisions are reproducible. Objects run
    ///    full-size while the budget lasts, then at the KLD floor, then
    ///    degrade to the uniform pruning-circle fallback.
    /// 3. **Filter** (fan-out over `parallelism` workers; `None` or
    ///    `Some(0|1)` runs on the calling thread): each object runs under
    ///    `catch_unwind` isolation with bounded retry; a persistently
    ///    panicking object is quarantined with a fallback answer instead of
    ///    aborting the pass. Results merge in candidate order, so any
    ///    worker count stays bit-identical.
    ///
    /// The index is maintained *incrementally*: objects that left the
    /// answered set are retracted, answered objects are applied as deltas
    /// ([`AnchorObjectIndex::apply_object`]), and a bit-identical stored
    /// distribution costs no structural work at all. Because per-anchor
    /// lists are kept sorted by object key, the index after any delta
    /// sequence equals a from-scratch rebuild of the same answer set; pass
    /// a fresh index for a one-off build.
    ///
    /// Returns the per-object degradation levels (objects the collector
    /// has never seen are absent, exactly as they are absent from the
    /// index) plus the [`IndexDeltaStats`] of this pass (the `index.delta_*`
    /// observability family).
    #[allow(clippy::too_many_arguments)]
    pub fn process<S: ReadingStore + Sync + ?Sized>(
        &self,
        pass_seed: u64,
        collector: &S,
        candidates: &[ObjectId],
        now: u64,
        cache: Option<&ParticleCache>,
        parallelism: Option<usize>,
        options: &SupervisionOptions,
        index: &mut AnchorObjectIndex<ObjectId>,
    ) -> (BTreeMap<ObjectId, DegradationLevel>, IndexDeltaStats) {
        /// One answered candidate: its position in the candidate list (the
        /// merge key), the object, its distribution, and its level.
        type Answered = (usize, ObjectId, Vec<(AnchorId, f64)>, DegradationLevel);
        /// One queued candidate awaiting its supervised filter run.
        type Queued = (usize, ObjectId, Option<ObjectPlan>, DegradationLevel);

        // Phase 1: plan.
        let planned: Vec<(usize, ObjectId, ObjectPlan)> = candidates
            .iter()
            .enumerate()
            .filter_map(|(i, &o)| {
                self.plan_object(collector, o, now, cache)
                    .map(|p| (i, o, p))
            })
            .collect();

        // Phase 2: budget ladder.
        let mut remaining = options.budget;
        let reduced_count = self
            .config
            .adaptive
            .unwrap_or_default()
            .min_particles
            .min(self.config.num_particles) as u64;
        let items: Vec<(usize, ObjectId, Option<ObjectPlan>, DegradationLevel)> = planned
            .into_iter()
            .map(|(i, o, plan)| {
                let level = match remaining.as_mut() {
                    None => DegradationLevel::Full,
                    Some(rem) => {
                        let secs = now.saturating_sub(plan.resume_timestamp).max(1);
                        let cost_full = secs.saturating_mul(self.config.num_particles as u64);
                        let cost_reduced = secs.saturating_mul(reduced_count);
                        if *rem >= cost_full {
                            *rem -= cost_full;
                            DegradationLevel::Full
                        } else if *rem >= cost_reduced {
                            *rem -= cost_reduced;
                            self.recorder.add("degrade.reduced", 1);
                            DegradationLevel::ReducedParticles
                        } else {
                            *rem = rem.saturating_sub(1);
                            self.recorder.add("degrade.fallback", 1);
                            self.recorder.add("degrade.budget_exhausted", 1);
                            DegradationLevel::UniformFallback
                        }
                    }
                };
                (i, o, Some(plan), level)
            })
            .collect();

        // Phase 3: supervised filtering.
        let workers = parallelism.unwrap_or(1).clamp(1, items.len().max(1));
        let mut results: Vec<Answered> = if workers <= 1 {
            items
                .into_iter()
                .filter_map(|(i, o, plan, level)| {
                    self.run_supervised_object(
                        pass_seed, collector, o, plan, level, now, cache, options,
                    )
                    .map(|(d, lv)| (i, o, d, lv))
                })
                .collect()
        } else {
            let slots: Vec<Mutex<Option<Queued>>> =
                items.into_iter().map(|it| Mutex::new(Some(it))).collect();
            let next = AtomicUsize::new(0);
            let collected: Mutex<Vec<Answered>> = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut local: Vec<Answered> = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= slots.len() {
                                    break;
                                }
                                let Some((idx, o, plan, level)) = lock(&slots[i]).take() else {
                                    continue;
                                };
                                if let Some((d, lv)) = self.run_supervised_object(
                                    pass_seed, collector, o, plan, level, now, cache, options,
                                ) {
                                    local.push((idx, o, d, lv));
                                }
                            }
                            lock(&collected).extend(local);
                        })
                    })
                    .collect();
                for h in handles {
                    // Per-object panics are already caught inside
                    // run_supervised_object, so a worker thread dying is
                    // out of model; its unfinished objects would simply be
                    // absent from the merged answer set.
                    let _ = h.join();
                }
            });
            let mut merged = collected
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner);
            merged.sort_unstable_by_key(|&(i, _, _, _)| i);
            merged
        };

        // Incremental maintenance: retract objects that fell out of the
        // answered set (pruned away, vanished, never seen this pass),
        // then apply each answered distribution as a delta.
        let answered: BTreeSet<ObjectId> = results.iter().map(|&(_, o, _, _)| o).collect();
        let mut stats = IndexDeltaStats {
            retracted: index.retain_objects(|o| answered.contains(o)),
            ..IndexDeltaStats::default()
        };
        let mut degradation = BTreeMap::new();
        for (_, o, distribution, level) in results.drain(..) {
            match index.apply_object(o, distribution) {
                DeltaOutcome::Inserted | DeltaOutcome::Updated => stats.applied += 1,
                DeltaOutcome::Unchanged => stats.unchanged += 1,
            }
            degradation.insert(o, level);
        }
        (degradation, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::build_walking_graph;
    use ripq_obs::Recorder;
    use ripq_rfid::{deploy_uniform, DataCollector};

    struct World {
        graph: WalkingGraph,
        anchors: AnchorSet,
        readers: Vec<Reader>,
    }

    fn world() -> World {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let _ = &plan;
        World {
            graph,
            anchors,
            readers,
        }
    }

    const O: ObjectId = ObjectId::new(0);

    /// What one object's filter run did, read back from its `pf.*`
    /// metrics.
    struct Observed {
        distribution: Vec<(AnchorId, f64)>,
        resumed_from_cache: bool,
        seconds_simulated: u64,
        final_particles: u64,
    }

    /// Plans and filters one object on the caller's RNG, observed through
    /// a fresh recorder. `None` when the collector has never seen it.
    fn run_object(
        w: &World,
        config: PreprocessorConfig,
        rng: &mut StdRng,
        c: &DataCollector,
        now: u64,
        cache: Option<&ParticleCache>,
    ) -> Option<Observed> {
        let recorder = Recorder::enabled();
        let pre = ParticlePreprocessor::new(&w.graph, &w.anchors, &w.readers, config)
            .with_recorder(&recorder);
        let plan = pre.plan_object(c, O, now, cache)?;
        let distribution = pre.filter_object(rng, c, O, plan, cache, None)?;
        let snap = recorder.snapshot();
        Some(Observed {
            distribution,
            resumed_from_cache: snap.counters["pf.cache_resumes"] > 0,
            seconds_simulated: snap.counters["pf.sir_iterations"],
            final_particles: snap.histograms["pf.final_particles"].max,
        })
    }

    /// One pass into a fresh index: the index plus each object's level.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        pre: &ParticlePreprocessor<'_>,
        pass_seed: u64,
        c: &DataCollector,
        candidates: &[ObjectId],
        now: u64,
        cache: Option<&ParticleCache>,
        parallelism: Option<usize>,
        options: &SupervisionOptions,
    ) -> (
        AnchorObjectIndex<ObjectId>,
        BTreeMap<ObjectId, DegradationLevel>,
    ) {
        let mut index = AnchorObjectIndex::new();
        let (levels, _) = pre.process(
            pass_seed,
            c,
            candidates,
            now,
            cache,
            parallelism,
            options,
            &mut index,
        );
        (index, levels)
    }

    /// Feeds the collector a synthetic walk past two adjacent readers on
    /// the same hallway, left to right.
    fn feed_two_reader_walk(w: &World, c: &mut DataCollector) -> (ReaderId, ReaderId, u64) {
        // Two readers on hallway 0 (same y), adjacent in deployment order.
        let (r1, r2) = {
            let mut found = None;
            for pair in w.readers.windows(2) {
                if (pair[0].position().y - pair[1].position().y).abs() < 1e-9 {
                    found = Some((pair[0], pair[1]));
                    break;
                }
            }
            found.expect("adjacent same-hallway readers exist")
        };
        let gap = r1.position().distance(r2.position());
        // Walk at 1 m/s from r1 to r2: in r1's range seconds 0..4,
        // silent while between, in r2's range near the end.
        let mut t = 0u64;
        let total_seconds = gap.ceil() as u64 + 4;
        for s in 0..=total_seconds {
            let x = r1.position().x - 2.0 + s as f64; // enters r1 range at t=0
            let p = ripq_geom::Point2::new(x, r1.position().y);
            if r1.covers(p) {
                c.ingest_second(s, &[(O, r1.id())]);
            } else if r2.covers(p) {
                c.ingest_second(s, &[(O, r2.id())]);
            } else {
                c.ingest_second(s, &[]);
            }
            t = s;
        }
        (r1.id(), r2.id(), t)
    }

    #[test]
    fn distribution_sums_to_one() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let mut rng = StdRng::seed_from_u64(20);
        let out = run_object(&w, PreprocessorConfig::default(), &mut rng, &c, now, None)
            .expect("object known");
        let total: f64 = out.distribution.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
        assert!(!out.resumed_from_cache);
        assert_eq!(out.final_particles, 64);
    }

    #[test]
    fn filter_learns_direction_after_two_readers() {
        // The Fig. 1 scenario: after d2 then d3 readings, mass should be
        // ahead of (or at) the second reader, not behind the first.
        let w = world();
        let mut c = DataCollector::new();
        let (r1, r2, now) = feed_two_reader_walk(&w, &mut c);
        let mut rng = StdRng::seed_from_u64(21);
        let out = run_object(&w, PreprocessorConfig::default(), &mut rng, &c, now, None).unwrap();
        let p1 = w.readers[r1.index()].position();
        let p2 = w.readers[r2.index()].position();
        // Probability mass closer to r2 than to r1:
        let mut near_r2 = 0.0;
        for &(a, p) in &out.distribution {
            let pt = w.anchors.anchor(a).point;
            if pt.distance(p2) < pt.distance(p1) {
                near_r2 += p;
            }
        }
        assert!(
            near_r2 > 0.7,
            "mass near the most recent reader should dominate, got {near_r2}"
        );
    }

    #[test]
    fn coast_cutoff_limits_simulation() {
        let w = world();
        let mut c = DataCollector::new();
        // One short detection, then a very long silence.
        c.ingest_second(0, &[(O, w.readers[0].id())]);
        for s in 1..=500 {
            c.ingest_second(s, &[]);
        }
        let cache = ParticleCache::new();
        let mut rng = StdRng::seed_from_u64(22);
        let out = run_object(
            &w,
            PreprocessorConfig::default(),
            &mut rng,
            &c,
            500,
            Some(&cache),
        )
        .unwrap();
        // td = 0, coast = 60 → at most 60 simulated seconds.
        assert!(out.seconds_simulated <= 60, "{}", out.seconds_simulated);
        let (_, timestamp) = cache.lookup(O, (w.readers[0].id(), 0)).unwrap();
        assert_eq!(timestamp, 60);
    }

    #[test]
    fn cache_resume_skips_earlier_seconds() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let cfg = PreprocessorConfig::default();
        let cache = ParticleCache::new();
        let mut rng = StdRng::seed_from_u64(23);
        let first = run_object(&w, cfg, &mut rng, &c, now, Some(&cache)).unwrap();
        assert!(!first.resumed_from_cache);
        // Advance the world a little with no new readings.
        let later = now + 5;
        for s in now + 1..=later {
            c.ingest_second(s, &[]);
        }
        let second = run_object(&w, cfg, &mut rng, &c, later, Some(&cache)).unwrap();
        assert!(second.resumed_from_cache);
        assert!(
            second.seconds_simulated <= 5,
            "resume should only simulate the delta, got {}",
            second.seconds_simulated
        );
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn cache_invalidated_by_new_device() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let cfg = PreprocessorConfig::default();
        let cache = ParticleCache::new();
        let mut rng = StdRng::seed_from_u64(24);
        run_object(&w, cfg, &mut rng, &c, now, Some(&cache)).unwrap();
        // A brand-new reader episode starts.
        let other = w.readers[10].id();
        c.ingest_second(now + 1, &[(O, other)]);
        let out = run_object(&w, cfg, &mut rng, &c, now + 1, Some(&cache)).unwrap();
        assert!(!out.resumed_from_cache, "new device must invalidate");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn cache_invalidated_when_new_device_detects_mid_resume() {
        // The §4.5 contract under a device handoff that happens *between*
        // cache resumes: fill the cache, resume it once (hit), then let a
        // brand-new device detect the object — the next pass must discard
        // the cached particles instead of resuming them.
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let recorder = Recorder::enabled();
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        )
        .with_recorder(&recorder);
        let cache = ParticleCache::new();
        let opts = SupervisionOptions::default();
        let resumes = || recorder.snapshot().counters["pf.cache_resumes"];

        pass(&pre, 11, &c, &[O], now, Some(&cache), None, &opts);
        assert_eq!(resumes(), 0);

        // Mid-stream resume: silent seconds, same episode → cache hit.
        for s in now + 1..=now + 4 {
            c.ingest_second(s, &[]);
        }
        pass(&pre, 12, &c, &[O], now + 4, Some(&cache), None, &opts);
        assert_eq!(resumes(), 1);

        // A new device detects the object before the next resume.
        let other = w.readers[10].id();
        c.ingest_second(now + 5, &[(O, other)]);
        pass(&pre, 13, &c, &[O], now + 5, Some(&cache), None, &opts);
        assert_eq!(resumes(), 1, "new device must invalidate");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().invalidations, 1);
        // A handoff to a *different* device is not an outage reset.
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("pf.outage_resets"), Some(&0));
    }

    #[test]
    fn same_device_episode_split_counts_as_outage_reset() {
        let w = world();
        let mut c = DataCollector::new();
        let r = w.readers[2].id();
        for s in 0..3u64 {
            c.ingest_second(s, &[(O, r)]);
        }
        let recorder = Recorder::enabled();
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        )
        .with_recorder(&recorder);
        let cache = ParticleCache::new();
        let opts = SupervisionOptions::default();
        pass(&pre, 21, &c, &[O], 3, Some(&cache), None, &opts);

        // Dark stream past the gap tolerance, then the *same* reader
        // re-detects: a new episode of the same device.
        for s in 3..=9u64 {
            c.ingest_second(s, &[]);
        }
        c.ingest_second(10, &[(O, r)]);
        pass(&pre, 22, &c, &[O], 10, Some(&cache), None, &opts);
        let counters = recorder.snapshot().counters;
        assert_eq!(
            counters.get("pf.cache_resumes"),
            Some(&0),
            "episode split must invalidate"
        );
        assert_eq!(counters.get("pf.outage_resets"), Some(&1));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn unknown_object_yields_none() {
        let w = world();
        let c = DataCollector::new();
        let mut rng = StdRng::seed_from_u64(25);
        assert!(run_object(&w, PreprocessorConfig::default(), &mut rng, &c, 10, None).is_none());
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        );
        let (index, levels) = pass(
            &pre,
            7,
            &c,
            &[ObjectId::new(42)],
            10,
            None,
            None,
            &SupervisionOptions::default(),
        );
        assert_eq!(index.object_count(), 0);
        assert!(levels.is_empty());
    }

    #[test]
    fn process_builds_index_for_all_candidates() {
        let w = world();
        let mut c = DataCollector::new();
        let o2 = ObjectId::new(7);
        c.ingest_second(0, &[(O, w.readers[0].id()), (o2, w.readers[5].id())]);
        c.ingest_second(1, &[(O, w.readers[0].id()), (o2, w.readers[5].id())]);
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        );
        let mut rng = StdRng::seed_from_u64(26);
        let (index, _) = pass(
            &pre,
            rng.random(),
            &c,
            &[O, o2, ObjectId::new(99)],
            5,
            None,
            None,
            &SupervisionOptions::default(),
        );
        assert_eq!(index.object_count(), 2, "unknown candidate skipped");
        assert!((index.total_probability(&O) - 1.0).abs() < 1e-9);
        assert!((index.total_probability(&o2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_reading_object_still_processable() {
        // Only one device has ever seen the object — Algorithm 2 "still
        // runs, although one device's readings alone can hardly determine
        // the object's moving direction".
        let w = world();
        let mut c = DataCollector::new();
        c.ingest_second(0, &[(O, w.readers[3].id())]);
        let mut rng = StdRng::seed_from_u64(27);
        let out = run_object(&w, PreprocessorConfig::default(), &mut rng, &c, 3, None).unwrap();
        let total: f64 = out.distribution.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Mass is spread around reader 3 within ~3 s of walking.
        let rp = w.readers[3].position();
        for &(a, _) in &out.distribution {
            let d = w.anchors.anchor(a).point.distance(rp);
            assert!(d < 2.0 + 3.0 * 1.5 + 3.0, "anchor too far: {d}");
        }
    }

    #[test]
    fn adaptive_particles_shrink_when_confined() {
        // A freshly observed object is confined to one activation range
        // (few anchor bins): KLD-sampling drops the particle count toward
        // the minimum, while the fixed-size filter keeps 64.
        let w = world();
        let mut c = DataCollector::new();
        for s in 0..6u64 {
            c.ingest_second(s, &[(O, w.readers[4].id())]);
        }
        let cfg = PreprocessorConfig {
            adaptive: Some(crate::KldConfig::default()),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(30);
        let out = run_object(&w, cfg, &mut rng, &c, 6, None).unwrap();
        assert!(
            out.final_particles < 64,
            "confined cloud should shrink, kept {}",
            out.final_particles
        );
        let total: f64 = out.distribution.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = world();
        let mut c = DataCollector::new();
        let (_, _, now) = feed_two_reader_walk(&w, &mut c);
        let cfg = PreprocessorConfig::default();
        let out1 = run_object(&w, cfg, &mut StdRng::seed_from_u64(42), &c, now, None).unwrap();
        let out2 = run_object(&w, cfg, &mut StdRng::seed_from_u64(42), &c, now, None).unwrap();
        assert_eq!(out1.distribution, out2.distribution);
    }

    #[test]
    fn stream_seeds_separate_objects_passes_and_resume_points() {
        let o1 = ObjectId::new(1);
        let o2 = ObjectId::new(2);
        assert_eq!(derive_stream_seed(5, o1, 10), derive_stream_seed(5, o1, 10));
        assert_ne!(derive_stream_seed(5, o1, 10), derive_stream_seed(5, o2, 10));
        assert_ne!(derive_stream_seed(5, o1, 10), derive_stream_seed(6, o1, 10));
        assert_ne!(derive_stream_seed(5, o1, 10), derive_stream_seed(5, o1, 11));
    }

    #[test]
    fn stream_seed_is_pinned_bit_for_bit() {
        // Every golden particle cloud depends on these exact bits.
        assert_eq!(
            derive_stream_seed(0x5eed, ObjectId::new(7), 42),
            0xe758_ee7b_275e_34f8
        );
        assert_eq!(
            derive_stream_seed(0, ObjectId::new(0), 0),
            0x8a9c_6b4b_5aad_ed14
        );
        assert_eq!(
            derive_stream_seed(u64::MAX, ObjectId::new(u32::MAX), u64::MAX),
            0xef4b_61b9_8cc4_aa2e
        );
    }

    #[test]
    fn result_is_independent_of_candidate_order() {
        let w = world();
        let mut c = DataCollector::new();
        let o2 = ObjectId::new(7);
        for s in 0..4u64 {
            c.ingest_second(s, &[(O, w.readers[0].id()), (o2, w.readers[5].id())]);
        }
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        );
        let opts = SupervisionOptions::default();
        let (fwd, _) = pass(&pre, 99, &c, &[O, o2], 6, None, None, &opts);
        let (rev, _) = pass(&pre, 99, &c, &[o2, O], 6, None, None, &opts);
        assert_eq!(fwd.distribution(&O), rev.distribution(&O));
        assert_eq!(fwd.distribution(&o2), rev.distribution(&o2));
    }

    /// A collector with `n` objects walking past distinct readers.
    fn populated_collector(w: &World, n: u32) -> DataCollector {
        let mut c = DataCollector::new();
        for s in 0..6u64 {
            let det: Vec<_> = (0..n)
                .map(|i| {
                    (
                        ObjectId::new(i),
                        w.readers[i as usize % w.readers.len()].id(),
                    )
                })
                .collect();
            c.ingest_second(s, &det);
        }
        c
    }

    #[test]
    fn process_is_pinned_bit_for_bit() {
        // Five objects detected for six seconds, then object 0 jumps to a
        // far reader (a sensor reset), then silence (negative evidence);
        // a second pass resumes from the cache. A digest of every answer
        // bit: any reordered draw or changed float operation moves it.
        let w = world();
        let mut c = populated_collector(&w, 5);
        c.ingest_second(6, &[(O, w.readers[10].id())]);
        for s in 7..=30u64 {
            c.ingest_second(s, &[]);
        }
        let objects: Vec<ObjectId> = (0..5u32).map(ObjectId::new).collect();
        let recorder = Recorder::enabled();
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        )
        .with_recorder(&recorder);
        let cache = ParticleCache::new();
        let opts = SupervisionOptions::default();
        let mut words = Vec::new();
        for (pass_seed, now) in [(41u64, 20u64), (42, 30)] {
            let (index, _) = pass(
                &pre,
                pass_seed,
                &c,
                &objects,
                now,
                Some(&cache),
                None,
                &opts,
            );
            for o in &objects {
                for &(a, p) in index.distribution(o).unwrap_or_default() {
                    words.extend([u64::from(o.raw()), u64::from(a.raw()), p.to_bits()]);
                }
            }
        }
        let counters = recorder.snapshot().counters;
        let counts = [
            "pf.sir_iterations",
            "pf.resamples",
            "pf.sensor_resets",
            "pf.cache_resumes",
        ]
        .map(|k| counters[k]);
        assert_eq!(counts, [150, 22, 3, 5]);
        assert_eq!(rand::mix_seed(0, &words), 0x4542_da78_4e28_ed87);
    }

    #[test]
    fn incremental_index_pass_equals_fresh_rebuild() {
        let w = world();
        let c = populated_collector(&w, 5);
        let objects: Vec<ObjectId> = (0..5u32).map(ObjectId::new).collect();
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        );
        let opts = SupervisionOptions::default();

        // Pass 1 on an empty live index: everything is an insert.
        let mut live = AnchorObjectIndex::new();
        let (_, s1) = pre.process(31, &c, &objects, 8, None, None, &opts, &mut live);
        assert_eq!(s1.applied, 5);
        assert_eq!(s1.retracted, 0);
        let (fresh1, _) = pass(&pre, 31, &c, &objects, 8, None, None, &opts);
        assert_eq!(live, fresh1, "first pass equals a rebuild");

        // Pass 2 with a shrunk candidate set and a different seed: the two
        // dropped objects are retracted, the rest are updated in place —
        // and the maintained index still equals the fresh build.
        let keep = &objects[..3];
        let (_, s2) = pre.process(32, &c, keep, 9, None, None, &opts, &mut live);
        assert_eq!(s2.retracted, 2);
        assert_eq!(s2.applied + s2.unchanged, 3);
        let (fresh2, _) = pass(&pre, 32, &c, keep, 9, None, None, &opts);
        assert_eq!(live, fresh2, "incremental pass equals a rebuild");

        // Replaying the identical pass is all no-ops.
        let (_, s3) = pre.process(32, &c, keep, 9, None, None, &opts, &mut live);
        assert_eq!(s3.unchanged, 3);
        assert_eq!(s3.applied, 0);
        assert_eq!(s3.retracted, 0);
        assert_eq!(live, fresh2);
    }

    #[test]
    fn panicking_object_is_retried_then_recovers() {
        let w = world();
        let c = populated_collector(&w, 4);
        let objects: Vec<ObjectId> = (0..4u32).map(ObjectId::new).collect();
        let recorder = ripq_obs::Recorder::enabled();
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        )
        .with_recorder(&recorder);
        let victim = ObjectId::new(2);
        let (index, levels) = pass(
            &pre,
            5,
            &c,
            &objects,
            8,
            None,
            None,
            &SupervisionOptions {
                panic_object: Some(victim),
                panic_attempts: 1,
                ..Default::default()
            },
        );
        // One panic, one successful retry: the object still gets a full
        // answer and nobody else is affected.
        assert_eq!(levels.get(&victim), Some(&DegradationLevel::Full));
        assert_eq!(index.object_count(), 4);
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("degrade.pf_panics"), Some(&1));
        assert_eq!(counters.get("degrade.retries"), Some(&1));
        assert_eq!(counters.get("degrade.quarantined"), None);
    }

    #[test]
    fn persistently_panicking_object_is_quarantined_with_fallback() {
        let w = world();
        let c = populated_collector(&w, 4);
        let objects: Vec<ObjectId> = (0..4u32).map(ObjectId::new).collect();
        let recorder = ripq_obs::Recorder::enabled();
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        )
        .with_recorder(&recorder);
        let victim = ObjectId::new(1);
        for workers in [1usize, 3] {
            let (index, levels) = pass(
                &pre,
                6,
                &c,
                &objects,
                8,
                Some(&ParticleCache::new()),
                Some(workers),
                &SupervisionOptions {
                    panic_object: Some(victim),
                    panic_attempts: usize::MAX,
                    ..Default::default()
                },
            );
            assert_eq!(
                levels.get(&victim),
                Some(&DegradationLevel::Quarantined),
                "at {workers} workers"
            );
            // The quarantined answer is still a proper distribution...
            let total: f64 = index.total_probability(&victim);
            assert!((total - 1.0).abs() < 1e-9, "total {total}");
            // ...and the healthy objects got full answers.
            for o in objects.iter().filter(|&&o| o != victim) {
                assert_eq!(levels.get(o), Some(&DegradationLevel::Full));
            }
        }
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("degrade.quarantined"), Some(&2));
    }

    #[test]
    fn budget_ladder_degrades_later_objects_deterministically() {
        let w = world();
        let c = populated_collector(&w, 6);
        let objects: Vec<ObjectId> = (0..6u32).map(ObjectId::new).collect();
        let recorder = ripq_obs::Recorder::enabled();
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        )
        .with_recorder(&recorder);
        // Each object costs ~(8-0)·64 = 512 full / 8·16 = 128 reduced.
        // 700 buys one full run, one reduced run, then fallbacks.
        let opts = SupervisionOptions {
            budget: Some(700),
            ..Default::default()
        };
        let run = |workers| pass(&pre, 9, &c, &objects, 8, None, Some(workers), &opts);
        let (index, by_object) = run(1);
        let levels: Vec<DegradationLevel> = objects.iter().map(|o| by_object[o]).collect();
        assert_eq!(levels[0], DegradationLevel::Full);
        assert_eq!(levels[1], DegradationLevel::ReducedParticles);
        assert!(levels[2..]
            .iter()
            .all(|&l| l == DegradationLevel::UniformFallback));
        // Every answer is still a distribution.
        for o in &objects {
            let total: f64 = index.total_probability(o);
            assert!((total - 1.0).abs() < 1e-9);
        }
        // Same budget, more workers: identical ladder and answers.
        let (par_index, par_levels) = run(4);
        for o in &objects {
            assert_eq!(by_object.get(o), par_levels.get(o));
            assert_eq!(index.distribution(o), par_index.distribution(o));
        }
        let counters = recorder.snapshot().counters;
        assert_eq!(counters.get("degrade.reduced"), Some(&2));
        assert_eq!(counters.get("degrade.fallback"), Some(&8));
        assert_eq!(counters.get("degrade.budget_exhausted"), Some(&8));
    }

    #[test]
    fn degradation_levels_order_worst_last() {
        assert!(DegradationLevel::Full < DegradationLevel::ReducedParticles);
        assert!(DegradationLevel::ReducedParticles < DegradationLevel::UniformFallback);
        assert!(DegradationLevel::UniformFallback < DegradationLevel::Quarantined);
        assert_eq!(
            DegradationLevel::ReducedParticles.to_string(),
            "reduced-particles"
        );
    }

    #[test]
    fn fallback_distribution_stays_near_last_reader() {
        let w = world();
        let mut c = DataCollector::new();
        let r = &w.readers[6];
        for s in 0..3u64 {
            c.ingest_second(s, &[(O, r.id())]);
        }
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        );
        let (index, levels) = pass(
            &pre,
            3,
            &c,
            &[O],
            4,
            None,
            None,
            &SupervisionOptions {
                budget: Some(0),
                ..Default::default()
            },
        );
        assert_eq!(levels.get(&O), Some(&DegradationLevel::UniformFallback));
        let dist = index.distribution(&O).unwrap();
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // now=4, t_last=2 → radius = 2.0 + (1.0+0.3)·2 = 4.6.
        for &(a, _) in dist {
            let d = w.anchors.anchor(a).point.distance(r.position());
            assert!(d <= 4.6 + 1e-9, "anchor {a} at distance {d} outside circle");
        }
    }

    #[test]
    fn parallel_process_matches_sequential_bit_for_bit() {
        let w = world();
        let mut c = DataCollector::new();
        let objects: Vec<ObjectId> = (0..12u32).map(ObjectId::new).collect();
        for s in 0..6u64 {
            let det: Vec<_> = objects
                .iter()
                .enumerate()
                .map(|(i, &o)| (o, w.readers[i % w.readers.len()].id()))
                .collect();
            c.ingest_second(s, &det);
        }
        let pre = ParticlePreprocessor::new(
            &w.graph,
            &w.anchors,
            &w.readers,
            PreprocessorConfig::default(),
        );
        let opts = SupervisionOptions::default();
        let seq_cache = ParticleCache::new();
        let (sequential, _) = pass(&pre, 1234, &c, &objects, 8, Some(&seq_cache), None, &opts);
        for workers in [1usize, 2, 4] {
            let par_cache = ParticleCache::new();
            let (parallel, _) = pass(
                &pre,
                1234,
                &c,
                &objects,
                8,
                Some(&par_cache),
                Some(workers),
                &opts,
            );
            for o in &objects {
                assert_eq!(
                    sequential.distribution(o),
                    parallel.distribution(o),
                    "distribution of {o} differs at {workers} workers"
                );
            }
            assert_eq!(seq_cache.stats(), par_cache.stats());
            assert_eq!(seq_cache.len(), par_cache.len());
        }
    }
}
