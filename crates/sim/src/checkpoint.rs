//! Crash-safe checkpointing of a running [`crate::Experiment`].
//!
//! An experiment drives one [`ripq_core::IndoorQuerySystem`], whose own
//! `system.ckpt` carries the pipeline state — collector, particle cache,
//! the particle filter's RNG stream and the cumulative metrics. This
//! module writes the driver's sidecar next to it, `experiment.ckpt`,
//! holding only what the per-second loop of `Experiment::run` owns: the
//! next second and timestamp, the sensing and query RNG streams, the
//! accuracy accumulators and the fault injector's jitter buffer.
//! Everything *else* (true traces, reader deployment, kNN query points,
//! the outage schedule) is a pure function of [`ExperimentParams`] and is
//! regenerated on resume; a CRC32 fingerprint of the result-relevant
//! parameters is embedded in the payload so a snapshot can never be
//! resumed into a different experiment.
//!
//! Damaged files — torn, bit-flipped, wrong format version, or written
//! by a different parameter set — are quarantined to
//! `experiment.ckpt.corrupt` and the run cold-starts; a resumed run is
//! bit-for-bit identical to an uninterrupted one.

use crate::{ExperimentParams, TaggedReading};
use ripq_obs::Recorder;
use ripq_persist::{
    crc32, load_snapshot, quarantine, seal_snapshot, write_atomic, ByteReader, ByteWriter,
    PersistError,
};
use ripq_rfid::{DeploymentStrategy, ObjectId, ReaderId};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

pub use ripq_core::RecoveryOutcome;

/// File name of the experiment sidecar inside the checkpoint directory.
/// Distinct from the core facade's `system.ckpt`, which sits beside it.
pub const SNAPSHOT_FILE: &str = "experiment.ckpt";

/// Full path of the experiment sidecar for a checkpoint directory.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// The number of [`crate::metrics::Mean`] accumulators a checkpoint
/// carries (KL ×2, hit rate ×2, top-k ×2, mean error ×2).
pub(crate) const MEAN_SLOTS: usize = 8;

/// The driver state the per-second loop owns.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DriverState {
    /// First second the resumed loop must process; pairs with the
    /// `replay_from` of the `system.ckpt` written beside it.
    pub next_second: u64,
    /// Index into the evaluation-timestamp list.
    pub next_ts: u64,
    pub rng_sense: [u64; 4],
    pub rng_query: [u64; 4],
    pub means: [(f64, u64); MEAN_SLOTS],
    /// The fault injector's in-flight jitter buffer (empty when the run
    /// has no active fault plan).
    pub pending: BTreeMap<u64, Vec<TaggedReading>>,
}

/// CRC32 fingerprint over the canonical encoding of every parameter that
/// influences the numbers. Knobs that provably cannot change results —
/// `parallelism` (bit-identical by construction), `checkpoint_every` and
/// `observability` — are excluded, so a snapshot survives resuming under
/// a different worker count or cadence.
pub(crate) fn params_fingerprint(p: &ExperimentParams) -> u32 {
    let mut w = ByteWriter::new();
    w.put_u64(p.num_particles as u64);
    w.put_f64(p.query_window_fraction);
    w.put_u64(p.num_objects as u64);
    w.put_u64(p.k as u64);
    w.put_f64(p.activation_range);
    w.put_u32(p.reader_count);
    match p.deployment {
        DeploymentStrategy::Uniform => w.put_u8(0),
        DeploymentStrategy::AtDoors => w.put_u8(1),
        DeploymentStrategy::Random { seed } => {
            w.put_u8(2);
            w.put_u64(seed);
        }
    }
    w.put_f64(p.anchor_spacing);
    w.put_f64(p.max_speed);
    w.put_u32(p.sensing.samples_per_second);
    w.put_f64(p.sensing.detection_probability);
    w.put_f64(p.sensing.false_positive_rate);
    w.put_u64(p.duration);
    w.put_u64(p.warmup);
    w.put_u64(p.eval_timestamps as u64);
    w.put_u64(p.range_queries_per_timestamp as u64);
    w.put_u64(p.knn_query_points as u64);
    w.put_f64(p.room_dwell_mean);
    w.put_bool(p.negative_evidence);
    w.put_f64(p.resample_threshold);
    w.put_f64(p.room_enter_probability);
    w.put_u64(p.coast_seconds);
    w.put_f64(p.kde_bandwidth);
    w.put_bool(p.kld_adaptive);
    w.put_f64(p.faults.drop_probability);
    w.put_f64(p.faults.duplicate_probability);
    w.put_u64(p.faults.max_delay_seconds);
    w.put_f64(p.faults.outage_rate);
    w.put_f64(p.faults.outage_mean_seconds);
    w.put_u64(p.faults.seed);
    w.put_opt_u64(p.query_budget);
    w.put_u64(p.seed);
    crc32(&w.into_bytes())
}

fn encode(fingerprint: u32, state: &DriverState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(fingerprint);
    w.put_u64(state.next_second);
    w.put_u64(state.next_ts);
    for word in state.rng_sense.iter().chain(&state.rng_query) {
        w.put_u64(*word);
    }
    for (sum, n) in state.means {
        w.put_f64(sum);
        w.put_u64(n);
    }
    w.put_seq_len(state.pending.len());
    for (&delivery, bucket) in &state.pending {
        w.put_u64(delivery);
        w.put_seq_len(bucket.len());
        for &(logical, object, reader) in bucket {
            w.put_u64(logical);
            w.put_u32(object.raw());
            w.put_u32(reader.raw());
        }
    }
    w.into_bytes()
}

fn decode(payload: &[u8], expected_fingerprint: u32) -> Result<DriverState, PersistError> {
    let mut r = ByteReader::new(payload);
    let fingerprint = r.get_u32()?;
    if fingerprint != expected_fingerprint {
        // A valid frame for a *different* experiment. Resuming it would
        // silently mix parameter sets, so treat it like a stale format.
        return Err(PersistError::StaleVersion {
            found: fingerprint,
            supported: expected_fingerprint,
        });
    }
    let next_second = r.get_u64()?;
    let next_ts = r.get_u64()?;
    let mut words = [0u64; 8];
    for word in &mut words {
        *word = r.get_u64()?;
    }
    let mut means = [(0.0, 0u64); MEAN_SLOTS];
    for slot in &mut means {
        *slot = (r.get_f64()?, r.get_u64()?);
    }
    let mut pending: BTreeMap<u64, Vec<TaggedReading>> = BTreeMap::new();
    let n_buckets = r.get_seq_len(10)?;
    for _ in 0..n_buckets {
        let delivery = r.get_u64()?;
        let n = r.get_seq_len(16)?;
        let mut bucket = Vec::with_capacity(n);
        for _ in 0..n {
            let logical = r.get_u64()?;
            let object = ObjectId::new(r.get_u32()?);
            let reader = ReaderId::new(r.get_u32()?);
            bucket.push((logical, object, reader));
        }
        pending.insert(delivery, bucket);
    }
    if r.remaining() != 0 {
        return Err(PersistError::Torn);
    }
    Ok(DriverState {
        next_second,
        next_ts,
        rng_sense: words[0..4].try_into().expect("slice of 4"),
        rng_query: words[4..8].try_into().expect("slice of 4"),
        means,
        pending,
    })
}

/// Atomically writes one sealed sidecar frame to `path`.
pub(crate) fn save(path: &Path, fingerprint: u32, state: &DriverState) -> Result<(), PersistError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| PersistError::Io(e.to_string()))?;
    }
    write_atomic(path, &seal_snapshot(&encode(fingerprint, state)))
}

/// Loads the sidecar at `path`. A file from another parameter set is
/// [`PersistError::StaleVersion`]; the caller quarantines every error
/// but [`PersistError::Missing`].
pub(crate) fn load(path: &Path, expected_fingerprint: u32) -> Result<DriverState, PersistError> {
    decode(&load_snapshot(path)?, expected_fingerprint)
}

/// Moves an unusable sidecar aside, counting `recovery.quarantined`
/// (like every `recovery.*` counter, *not* part of any golden —
/// harnesses strip the prefix before comparing).
pub(crate) fn quarantine_damaged(path: &Path, recorder: &Recorder) -> RecoveryOutcome {
    recorder.add("recovery.quarantined", 1);
    match quarantine(path) {
        Ok(moved) => RecoveryOutcome::Quarantined { path: moved },
        // The move itself failed (e.g. the file vanished); the run still
        // cold-starts, pointing at the original path.
        Err(_) => RecoveryOutcome::Quarantined {
            path: path.to_path_buf(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const FINGERPRINT: u32 = 0xABCD_1234;

    fn fixture() -> DriverState {
        let mut pending = BTreeMap::new();
        pending.insert(
            7,
            vec![
                (5, ObjectId::new(1), ReaderId::new(2)),
                (6, ObjectId::new(3), ReaderId::new(0)),
            ],
        );
        DriverState {
            next_second: 42,
            next_ts: 3,
            rng_sense: StdRng::seed_from_u64(1).state(),
            rng_query: StdRng::seed_from_u64(3).state(),
            means: [
                (1.5, 2),
                (0.0, 0),
                (3.25, 4),
                (0.5, 1),
                (0.75, 3),
                (0.25, 3),
                (9.0, 2),
                (11.0, 2),
            ],
            pending,
        }
    }

    #[test]
    fn checkpoint_codec_round_trips() {
        let state = fixture();
        let bytes = encode(FINGERPRINT, &state);
        assert_eq!(decode(&bytes, FINGERPRINT).unwrap(), state);
    }

    #[test]
    fn fingerprint_mismatch_is_stale_not_a_resume() {
        let bytes = encode(FINGERPRINT, &fixture());
        assert!(matches!(
            decode(&bytes, FINGERPRINT ^ 1),
            Err(PersistError::StaleVersion { .. })
        ));
    }

    #[test]
    fn truncation_anywhere_is_torn_never_a_panic() {
        let bytes = encode(FINGERPRINT, &fixture());
        for cut in 0..bytes.len() {
            assert!(
                decode(&bytes[..cut], FINGERPRINT).is_err(),
                "cut at {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn params_fingerprint_tracks_result_relevant_knobs_only() {
        let base = ExperimentParams::smoke();
        let fp = params_fingerprint(&base);
        assert_eq!(fp, params_fingerprint(&base), "fingerprint is stable");
        // Result-relevant changes move it.
        assert_ne!(
            fp,
            params_fingerprint(&ExperimentParams {
                seed: base.seed + 1,
                ..base
            })
        );
        assert_ne!(
            fp,
            params_fingerprint(&ExperimentParams {
                query_budget: Some(1000),
                ..base
            })
        );
        // Provably result-neutral knobs do not.
        assert_eq!(
            fp,
            params_fingerprint(&ExperimentParams {
                parallelism: Some(4),
                checkpoint_every: 7,
                observability: true,
                ..base
            })
        );
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let dir = std::env::temp_dir().join("ripq_sim_ckpt_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let path = snapshot_path(&dir);
        assert!(matches!(
            load(&path, FINGERPRINT),
            Err(PersistError::Missing)
        ));
        save(&path, FINGERPRINT, &fixture()).unwrap();
        assert_eq!(load(&path, FINGERPRINT).unwrap(), fixture());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_file_is_quarantined_with_a_counter() {
        let dir = std::env::temp_dir().join("ripq_sim_ckpt_damaged");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = snapshot_path(&dir);
        // ripq-lint: allow(atomic-persistence) -- test deliberately writes a torn non-atomic file
        std::fs::write(&path, b"RIPQSNAPgarbage").unwrap();
        assert!(load(&path, 0).is_err());
        let recorder = Recorder::enabled();
        match quarantine_damaged(&path, &recorder) {
            RecoveryOutcome::Quarantined { path: moved } => {
                assert!(moved.to_string_lossy().ends_with(".corrupt"));
                assert!(moved.exists());
                assert!(!path.exists());
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
        assert_eq!(
            recorder.snapshot().counters.get("recovery.quarantined"),
            Some(&1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
