//! The reading write-ahead log: durable, append-only, idempotent.
//!
//! One record per accepted upload batch:
//!
//! ```text
//! len: u32 LE | checksum: u64 LE (FNV-1a of payload) | payload
//! ```
//!
//! where `payload` is the batch's [`ReadingBatch::encode`] bytes. Replay
//! scans from the start and stops at the first record that is short,
//! oversized, fails its checksum, or fails to decode — everything from
//! that point on is a *torn tail* (a crash mid-write) and is truncated so
//! the next append starts from a clean record boundary. Records before the
//! tear are untouched: the recovered prefix is byte-identical to what was
//! previously acknowledged.
//!
//! Idempotency: the log remembers every batch ID it has ever accepted
//! (including IDs later compacted out by [`SegmentStore`]'s checkpoint,
//! which persists them in the manifest), so a client retrying after a lost
//! ack gets [`AppendOutcome::Duplicate`] instead of a second ingest.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use waldo::wire::{fnv1a64, ReadingBatch};

use crate::StoreError;

/// Upper bound on one WAL record's payload; a corrupt length prefix must
/// not trigger a multi-gigabyte allocation during replay.
pub const MAX_WAL_RECORD_BYTES: usize = 16 << 20;

/// `len u32 | checksum u64` preceding every payload.
const RECORD_HEADER_BYTES: usize = 12;

/// What [`ReadingLog::append`] did with a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// First sighting: the batch is on disk (and synced, per the sync
    /// policy) and counted.
    Appended,
    /// The batch ID was already accepted — nothing written. The caller
    /// should still acknowledge success to the client: this is the retry
    /// path working as intended.
    Duplicate,
}

/// What replay found when the log was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayReport {
    /// Intact batches recovered.
    pub batches: usize,
    /// Total readings across recovered batches.
    pub readings: usize,
    /// Bytes dropped from the torn tail (0 for a clean shutdown).
    pub truncated_bytes: u64,
    /// Records skipped because their batch ID repeated an earlier record.
    pub duplicates_skipped: usize,
}

/// The durable append-only upload log. See the module docs for the record
/// format and recovery semantics.
#[derive(Debug)]
pub struct ReadingLog {
    file: File,
    path: PathBuf,
    seen: HashSet<u64>,
    batches: Vec<ReadingBatch>,
    bytes: u64,
    sync_every: usize,
    pending: usize,
    replay: ReplayReport,
}

impl ReadingLog {
    /// Opens (creating if absent) the log at `path`, replaying existing
    /// records and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure. Corruption is not
    /// an error: it is truncated and reported via [`replay_report`].
    ///
    /// [`replay_report`]: Self::replay_report
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self, StoreError> {
        let _t = waldo_obs::timed("wal_replay");
        let path = path.as_ref().to_path_buf();
        // Existing contents are the whole point of a WAL: open keep-contents
        // (truncate(false)) and replay them below.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut raw = Vec::new();
        file.read_to_end(&mut raw)?;

        let mut seen = HashSet::new();
        let mut batches = Vec::new();
        let mut replay = ReplayReport::default();
        let mut valid = 0usize;
        let mut cursor = 0usize;
        while raw.len() - cursor >= RECORD_HEADER_BYTES {
            let len =
                u32::from_le_bytes(raw[cursor..cursor + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_WAL_RECORD_BYTES || raw.len() - cursor - RECORD_HEADER_BYTES < len {
                break; // oversized or short: torn tail
            }
            let checksum =
                u64::from_le_bytes(raw[cursor + 4..cursor + 12].try_into().expect("8 bytes"));
            let payload = &raw[cursor + RECORD_HEADER_BYTES..cursor + RECORD_HEADER_BYTES + len];
            if fnv1a64(payload) != checksum {
                break; // bit flip in the tail
            }
            let Ok(batch) = ReadingBatch::decode(payload) else {
                break; // checksummed but undecodable: treat as a tear
            };
            cursor += RECORD_HEADER_BYTES + len;
            valid = cursor;
            if seen.insert(batch.batch_id) {
                replay.batches += 1;
                replay.readings += batch.readings.len();
                batches.push(batch);
            } else {
                replay.duplicates_skipped += 1;
            }
        }
        replay.truncated_bytes = (raw.len() - valid) as u64;
        if replay.truncated_bytes > 0 {
            file.set_len(valid as u64)?;
            file.sync_all()?;
        }

        // Reopen in append mode so writes always land at the (possibly
        // truncated) end.
        let file = OpenOptions::new().append(true).create(true).open(&path)?;
        Ok(Self {
            file,
            path,
            seen,
            batches,
            bytes: valid as u64,
            sync_every: 1,
            pending: 0,
            replay,
        })
    }

    /// Sets the fsync batching factor: sync after every `n`th appended
    /// record instead of every record. `1` (the default) is the durable
    /// ack contract; larger values trade durability of the last `n − 1`
    /// records for throughput and are meant for bulk loads.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn sync_every(mut self, n: usize) -> Self {
        assert!(n > 0, "sync batching factor must be at least 1");
        self.sync_every = n;
        self
    }

    /// Appends one batch, deduplicating by batch ID.
    ///
    /// On [`AppendOutcome::Appended`] the record is written and — when the
    /// sync policy says so — fsynced before returning, so the caller may
    /// acknowledge the upload. [`AppendOutcome::Duplicate`] writes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure; the batch is not
    /// counted as accepted in that case.
    pub fn append(&mut self, batch: &ReadingBatch) -> Result<AppendOutcome, StoreError> {
        let _t = waldo_obs::timed("wal_append");
        if self.seen.contains(&batch.batch_id) {
            return Ok(AppendOutcome::Duplicate);
        }
        let payload = batch.encode();
        let mut record = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        record.extend_from_slice(&payload);
        self.file.write_all(&record)?;
        self.pending += 1;
        if self.pending >= self.sync_every {
            self.sync()?;
        }
        self.bytes += record.len() as u64;
        self.seen.insert(batch.batch_id);
        self.batches.push(batch.clone());
        Ok(AppendOutcome::Appended)
    }

    /// Forces any unsynced appends to disk. A no-op when nothing is
    /// pending.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if self.pending > 0 {
            self.file.sync_all()?;
            self.pending = 0;
        }
        Ok(())
    }

    /// The batches currently in the log (replayed plus appended), in
    /// arrival order — the uncompacted working set a checkpoint drains.
    pub fn batches(&self) -> &[ReadingBatch] {
        &self.batches
    }

    /// Whether a batch ID has ever been accepted (including IDs already
    /// compacted into segments, if seeded via [`remember`]).
    ///
    /// [`remember`]: Self::remember
    pub fn contains_batch(&self, batch_id: u64) -> bool {
        self.seen.contains(&batch_id)
    }

    /// Seeds the dedupe set with IDs accepted in earlier incarnations —
    /// the manifest's absorbed set — so compaction does not reopen the
    /// retry window.
    pub fn remember<I: IntoIterator<Item = u64>>(&mut self, ids: I) {
        self.seen.extend(ids);
    }

    /// Drops the in-memory batch set and truncates the file after a
    /// successful checkpoint has made the records redundant. Accepted
    /// batch IDs are retained for dedupe.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn truncate_after_checkpoint(&mut self) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        self.file.sync_all()?;
        self.pending = 0;
        self.bytes = 0;
        self.batches.clear();
        Ok(())
    }

    /// Number of uncompacted batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the log holds no uncompacted batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Bytes of valid records on disk.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// What replay found when this log was opened.
    pub fn replay_report(&self) -> &ReplayReport {
        &self.replay
    }

    /// The backing file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use waldo_geo::Point;
    use waldo_iq::FeatureVector;
    use waldo_sensors::ReadingSample;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("waldo-wal-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("readings.wal")
    }

    fn sample(i: usize) -> ReadingSample {
        let v = i as f64;
        ReadingSample {
            location: Point::new(v * 10.0, v * -5.0),
            rss_dbm: -80.0 - v,
            features: FeatureVector {
                rss_db: -80.0 - v,
                cft_db: -91.0 - v,
                aft_db: -92.0 - v,
                quadrature_imbalance_db: 0.1 * v,
                iq_kurtosis: 2.0,
                edge_bin_db: -110.0,
            },
        }
    }

    fn batch(id: u64, n: usize) -> ReadingBatch {
        ReadingBatch { batch_id: id, channel: 30, readings: (0..n).map(sample).collect() }
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let path = temp_path("reopen");
        {
            let mut log = ReadingLog::open(&path).unwrap();
            for id in 0..5u64 {
                assert_eq!(log.append(&batch(id, 3)).unwrap(), AppendOutcome::Appended);
            }
        }
        let log = ReadingLog::open(&path).unwrap();
        assert_eq!(
            *log.replay_report(),
            ReplayReport { batches: 5, readings: 15, truncated_bytes: 0, duplicates_skipped: 0 }
        );
        assert_eq!(log.batches().len(), 5);
        assert_eq!(log.batches()[2], batch(2, 3));
        assert!(log.contains_batch(4));
        assert!(!log.contains_batch(5));
    }

    #[test]
    fn duplicate_batch_ids_are_not_reingested() {
        let path = temp_path("dup");
        let mut log = ReadingLog::open(&path).unwrap();
        assert_eq!(log.append(&batch(7, 2)).unwrap(), AppendOutcome::Appended);
        let bytes_after_first = log.bytes();
        assert_eq!(log.append(&batch(7, 2)).unwrap(), AppendOutcome::Duplicate);
        assert_eq!(log.bytes(), bytes_after_first, "duplicates must write nothing");
        assert_eq!(log.len(), 1);

        // The retry window survives a restart.
        drop(log);
        let mut log = ReadingLog::open(&path).unwrap();
        assert_eq!(log.append(&batch(7, 2)).unwrap(), AppendOutcome::Duplicate);
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_preserved() {
        let path = temp_path("torn");
        {
            let mut log = ReadingLog::open(&path).unwrap();
            log.append(&batch(1, 4)).unwrap();
            log.append(&batch(2, 4)).unwrap();
        }
        let clean = fs::read(&path).unwrap();
        // Simulate a crash mid-write: half a third record.
        let mut torn = clean.clone();
        torn.extend_from_slice(&[9, 0, 0, 0, 1, 2, 3]);
        fs::write(&path, &torn).unwrap();

        let log = ReadingLog::open(&path).unwrap();
        assert_eq!(log.replay_report().batches, 2);
        assert_eq!(log.replay_report().truncated_bytes, 7);
        assert_eq!(fs::read(&path).unwrap(), clean, "recovered prefix must be byte-identical");
    }

    #[test]
    fn checksum_failure_truncates_from_the_flip() {
        let path = temp_path("flip");
        {
            let mut log = ReadingLog::open(&path).unwrap();
            log.append(&batch(1, 2)).unwrap();
            log.append(&batch(2, 2)).unwrap();
        }
        let clean = fs::read(&path).unwrap();
        let first_record_end = {
            let len = u32::from_le_bytes(clean[..4].try_into().unwrap()) as usize;
            RECORD_HEADER_BYTES + len
        };
        let mut flipped = clean.clone();
        *flipped.last_mut().unwrap() ^= 0x40; // corrupt the second record's payload
        fs::write(&path, &flipped).unwrap();

        let log = ReadingLog::open(&path).unwrap();
        assert_eq!(log.replay_report().batches, 1);
        assert_eq!(fs::read(&path).unwrap(), clean[..first_record_end]);
        assert!(log.contains_batch(1));
        assert!(!log.contains_batch(2), "the torn batch was never acknowledged");
    }

    #[test]
    fn oversized_length_prefix_does_not_allocate() {
        let path = temp_path("oversize");
        {
            let mut log = ReadingLog::open(&path).unwrap();
            log.append(&batch(1, 1)).unwrap();
        }
        let mut raw = fs::read(&path).unwrap();
        let prefix = raw.clone();
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 16]);
        fs::write(&path, &raw).unwrap();
        let log = ReadingLog::open(&path).unwrap();
        assert_eq!(log.replay_report().batches, 1);
        assert_eq!(fs::read(&path).unwrap(), prefix);
    }

    #[test]
    fn sync_batching_defers_fsync_but_not_writes() {
        let path = temp_path("batched");
        let mut log = ReadingLog::open(&path).unwrap().sync_every(4);
        for id in 0..3u64 {
            log.append(&batch(id, 1)).unwrap();
        }
        assert_eq!(log.pending, 3, "below the batching factor nothing synced yet");
        log.append(&batch(3, 1)).unwrap();
        assert_eq!(log.pending, 0, "the fourth append crossed the factor");
        log.append(&batch(4, 1)).unwrap();
        log.sync().unwrap();
        assert_eq!(log.pending, 0);
    }

    #[test]
    fn truncate_after_checkpoint_keeps_dedupe() {
        let path = temp_path("checkpointed");
        let mut log = ReadingLog::open(&path).unwrap();
        log.append(&batch(1, 2)).unwrap();
        log.append(&batch(2, 2)).unwrap();
        log.truncate_after_checkpoint().unwrap();
        assert!(log.is_empty());
        assert_eq!(log.bytes(), 0);
        assert_eq!(fs::metadata(&path).unwrap().len(), 0);
        assert_eq!(log.append(&batch(1, 2)).unwrap(), AppendOutcome::Duplicate);

        // A fresh process learns the absorbed IDs from the manifest.
        let mut reopened = ReadingLog::open(&path).unwrap();
        assert_eq!(reopened.replay_report().batches, 0);
        reopened.remember([1, 2]);
        assert_eq!(reopened.append(&batch(2, 2)).unwrap(), AppendOutcome::Duplicate);
        assert_eq!(reopened.append(&batch(3, 2)).unwrap(), AppendOutcome::Appended);
    }
}
