//! Checkpoint/compaction: immutable per-locality segments plus a manifest.
//!
//! A checkpoint drains the WAL's accumulated batches into one file per
//! *locality* (the model's k-means cell — the unit the refit layer
//! retrains). Segment files are immutable: a checkpoint that adds readings
//! to a locality writes a brand-new file under the next sequence number
//! and retires the old one, so a locality's manifest digest changes iff
//! its reading set changed. That digest diff is the entire refit trigger.
//!
//! The manifest is the atomicity point: it is written to a temp file,
//! fsynced, then renamed over `MANIFEST`. A crash anywhere during a
//! checkpoint leaves either the old manifest (new segment files are
//! unreferenced garbage, re-created next time) or the new one — never a
//! half-checkpoint. The manifest also persists the set of *absorbed* batch
//! IDs so the WAL's dedupe window survives compaction across restarts.
//!
//! Determinism: batches are folded in ascending batch-ID order and
//! readings keep their in-batch order, so the same record set always
//! compacts to byte-identical segments regardless of arrival order.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use waldo::wire::{fnv1a64, put_f64, put_u16, put_u32, put_u64, Reader, ReadingBatch};
use waldo_geo::Point;
use waldo_iq::FeatureVector;
use waldo_sensors::ReadingSample;

use crate::StoreError;

/// Segment file magic.
const SEGMENT_MAGIC: [u8; 4] = *b"WLSG";
/// Manifest file magic.
const MANIFEST_MAGIC: [u8; 4] = *b"WLMF";
/// On-disk format version for both files.
const FORMAT_VERSION: u8 = 1;
/// The manifest's file name inside the store directory.
const MANIFEST_NAME: &str = "MANIFEST";
/// f64 fields per serialized reading: x, y, rss, six features.
const READING_F64S: usize = 9;

/// One locality's immutable segment, as referenced by the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment file name within the store directory.
    pub file: String,
    /// FNV-1a digest of the whole segment file — the refit trigger.
    pub digest: u64,
    /// Readings in the segment.
    pub readings: u32,
}

/// The store's root metadata: which segment serves each locality and which
/// batch IDs have been absorbed by compaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Monotone checkpoint counter; also the sequence number stamped into
    /// segment file names.
    pub checkpoint_seq: u64,
    /// Batch IDs already folded into segments (dedupe survives WAL
    /// truncation through this set).
    pub absorbed: BTreeSet<u64>,
    /// Live segment per locality.
    pub segments: BTreeMap<usize, SegmentMeta>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.push(FORMAT_VERSION);
        put_u64(&mut out, self.checkpoint_seq);
        put_u32(&mut out, self.absorbed.len() as u32);
        for &id in &self.absorbed {
            put_u64(&mut out, id);
        }
        put_u32(&mut out, self.segments.len() as u32);
        for (&locality, meta) in &self.segments {
            put_u32(&mut out, locality as u32);
            put_u64(&mut out, meta.digest);
            put_u32(&mut out, meta.readings);
            put_u16(&mut out, meta.file.len() as u16);
            out.extend_from_slice(meta.file.as_bytes());
        }
        let checksum = fnv1a64(&out);
        put_u64(&mut out, checksum);
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < 8 {
            return Err(StoreError::Corrupt("manifest shorter than its checksum"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let checksum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
        if fnv1a64(body) != checksum {
            return Err(StoreError::Corrupt("manifest checksum mismatch"));
        }
        let mut r = Reader::new(body);
        let fail = |_| StoreError::Corrupt("manifest structure");
        if r.bytes(4).map_err(fail)? != MANIFEST_MAGIC {
            return Err(StoreError::Corrupt("manifest magic"));
        }
        if r.u8().map_err(fail)? != FORMAT_VERSION {
            return Err(StoreError::Corrupt("manifest version"));
        }
        let mut m = Manifest { checkpoint_seq: r.u64().map_err(fail)?, ..Manifest::default() };
        let absorbed = r.u32().map_err(fail)?;
        for _ in 0..absorbed {
            m.absorbed.insert(r.u64().map_err(fail)?);
        }
        let segments = r.u32().map_err(fail)?;
        for _ in 0..segments {
            let locality = r.u32().map_err(fail)? as usize;
            let digest = r.u64().map_err(fail)?;
            let readings = r.u32().map_err(fail)?;
            let name_len = r.u16().map_err(fail)? as usize;
            let name = r.bytes(name_len).map_err(fail)?;
            let file = std::str::from_utf8(name)
                .map_err(|_| StoreError::Corrupt("segment name not UTF-8"))?
                .to_string();
            m.segments.insert(locality, SegmentMeta { file, digest, readings });
        }
        r.finish().map_err(|_| StoreError::Corrupt("manifest trailing bytes"))?;
        Ok(m)
    }
}

/// What one checkpoint did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The checkpoint's sequence number.
    pub seq: u64,
    /// Batches folded in.
    pub batches: usize,
    /// Readings folded in.
    pub readings: usize,
    /// Localities whose segment (and digest) changed.
    pub changed_localities: Vec<usize>,
}

/// The on-disk segment store: a directory holding `MANIFEST` plus one
/// immutable segment file per locality.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl SegmentStore {
    /// Opens (creating if absent) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure; [`StoreError::Corrupt`]
    /// if an existing manifest fails validation (the manifest is renamed
    /// into place atomically, so this indicates external damage, not a
    /// crash).
    pub fn open<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest = match fs::read(&manifest_path) {
            Ok(bytes) => Manifest::decode(&bytes)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Manifest::default(),
            Err(e) => return Err(e.into()),
        };
        Ok(Self { dir, manifest })
    }

    /// The current manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Folds `batches` into per-locality segments, routing each reading
    /// through `locality_of`, and atomically publishes the new manifest.
    /// Batches whose ID is already absorbed are skipped (idempotent
    /// re-checkpoint after a crash between manifest rename and WAL
    /// truncation).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure — the old manifest stays
    /// authoritative in that case.
    pub fn checkpoint<F>(
        &mut self,
        batches: &[ReadingBatch],
        locality_of: F,
    ) -> Result<CheckpointReport, StoreError>
    where
        F: Fn(&ReadingSample) -> usize,
    {
        let _t = waldo_obs::timed("store_checkpoint");
        // Deterministic fold order: ascending batch ID, in-batch order.
        let mut fresh: Vec<&ReadingBatch> =
            batches.iter().filter(|b| !self.manifest.absorbed.contains(&b.batch_id)).collect();
        fresh.sort_by_key(|b| b.batch_id);
        fresh.dedup_by_key(|b| b.batch_id);

        let mut added: BTreeMap<usize, Vec<ReadingSample>> = BTreeMap::new();
        let mut reading_count = 0usize;
        for b in &fresh {
            for s in &b.readings {
                added.entry(locality_of(s)).or_default().push(*s);
                reading_count += 1;
            }
        }

        let seq = self.manifest.checkpoint_seq + 1;
        let mut next = self.manifest.clone();
        next.checkpoint_seq = seq;
        next.absorbed.extend(fresh.iter().map(|b| b.batch_id));
        let mut changed = Vec::new();
        let mut retired = Vec::new();
        for (&locality, new_readings) in &added {
            let mut readings = match self.manifest.segments.get(&locality) {
                Some(meta) => {
                    retired.push(meta.file.clone());
                    self.read_segment(locality, meta)?
                }
                None => Vec::new(),
            };
            readings.extend_from_slice(new_readings);
            let file = format!("seg-{locality:04}-{seq:08}.wls");
            let digest = self.write_segment(locality, &file, &readings)?;
            next.segments
                .insert(locality, SegmentMeta { file, digest, readings: readings.len() as u32 });
            changed.push(locality);
        }

        self.publish_manifest(&next)?;
        self.manifest = next;
        // Retired segments are garbage once the manifest no longer points
        // at them; removal is best-effort.
        for file in retired {
            let _ = fs::remove_file(self.dir.join(file));
        }
        Ok(CheckpointReport {
            seq,
            batches: fresh.len(),
            readings: reading_count,
            changed_localities: changed,
        })
    }

    /// Reads one locality's full reading set back (empty if the locality
    /// has no segment yet).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure, [`StoreError::Corrupt`]
    /// if the file does not match its manifest entry.
    pub fn locality_readings(&self, locality: usize) -> Result<Vec<ReadingSample>, StoreError> {
        match self.manifest.segments.get(&locality) {
            Some(meta) => self.read_segment(locality, meta),
            None => Ok(Vec::new()),
        }
    }

    /// All stored readings across localities, in (locality, fold-order)
    /// order — the global set the labeler needs.
    ///
    /// # Errors
    ///
    /// Same as [`locality_readings`](Self::locality_readings).
    pub fn all_readings(&self) -> Result<Vec<ReadingSample>, StoreError> {
        let mut out = Vec::new();
        for &locality in self.manifest.segments.keys() {
            out.extend(self.locality_readings(locality)?);
        }
        Ok(out)
    }

    /// Total readings across all segments, from the manifest alone.
    pub fn reading_count(&self) -> usize {
        self.manifest.segments.values().map(|m| m.readings as usize).sum()
    }

    fn write_segment(
        &self,
        locality: usize,
        file: &str,
        readings: &[ReadingSample],
    ) -> Result<u64, StoreError> {
        let mut out = Vec::with_capacity(13 + readings.len() * READING_F64S * 8);
        out.extend_from_slice(&SEGMENT_MAGIC);
        out.push(FORMAT_VERSION);
        put_u32(&mut out, locality as u32);
        put_u32(&mut out, readings.len() as u32);
        for s in readings {
            put_f64(&mut out, s.location.x);
            put_f64(&mut out, s.location.y);
            put_f64(&mut out, s.rss_dbm);
            let f = &s.features;
            for v in [
                f.rss_db,
                f.cft_db,
                f.aft_db,
                f.quadrature_imbalance_db,
                f.iq_kurtosis,
                f.edge_bin_db,
            ] {
                put_f64(&mut out, v);
            }
        }
        let mut fh =
            OpenOptions::new().write(true).create(true).truncate(true).open(self.dir.join(file))?;
        fh.write_all(&out)?;
        fh.sync_all()?;
        Ok(fnv1a64(&out))
    }

    fn read_segment(
        &self,
        locality: usize,
        meta: &SegmentMeta,
    ) -> Result<Vec<ReadingSample>, StoreError> {
        let mut bytes = Vec::new();
        File::open(self.dir.join(&meta.file))?.read_to_end(&mut bytes)?;
        if fnv1a64(&bytes) != meta.digest {
            return Err(StoreError::Corrupt("segment digest mismatch"));
        }
        let fail = |_| StoreError::Corrupt("segment structure");
        let mut r = Reader::new(&bytes);
        if r.bytes(4).map_err(fail)? != SEGMENT_MAGIC {
            return Err(StoreError::Corrupt("segment magic"));
        }
        if r.u8().map_err(fail)? != FORMAT_VERSION {
            return Err(StoreError::Corrupt("segment version"));
        }
        if r.u32().map_err(fail)? as usize != locality {
            return Err(StoreError::Corrupt("segment locality mismatch"));
        }
        let count = r.u32().map_err(fail)? as usize;
        if count != meta.readings as usize {
            return Err(StoreError::Corrupt("segment reading count mismatch"));
        }
        let mut readings = Vec::with_capacity(count);
        for _ in 0..count {
            let x = r.f64().map_err(fail)?;
            let y = r.f64().map_err(fail)?;
            let rss_dbm = r.f64().map_err(fail)?;
            let mut f = [0.0f64; 6];
            for v in &mut f {
                *v = r.f64().map_err(fail)?;
            }
            readings.push(ReadingSample {
                location: Point::new(x, y),
                rss_dbm,
                features: FeatureVector {
                    rss_db: f[0],
                    cft_db: f[1],
                    aft_db: f[2],
                    quadrature_imbalance_db: f[3],
                    iq_kurtosis: f[4],
                    edge_bin_db: f[5],
                },
            });
        }
        r.finish().map_err(|_| StoreError::Corrupt("segment trailing bytes"))?;
        Ok(readings)
    }

    fn publish_manifest(&self, manifest: &Manifest) -> Result<(), StoreError> {
        let tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        let target = self.dir.join(MANIFEST_NAME);
        let mut fh = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        fh.write_all(&manifest.encode())?;
        fh.sync_all()?;
        drop(fh);
        fs::rename(&tmp, &target)?;
        // Make the rename itself durable.
        if let Ok(dir) = File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("waldo-seg-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(x: f64) -> ReadingSample {
        ReadingSample {
            location: Point::new(x, x / 2.0),
            rss_dbm: -85.0,
            features: FeatureVector {
                rss_db: -85.0,
                cft_db: -96.0,
                aft_db: -97.0,
                quadrature_imbalance_db: 0.0,
                iq_kurtosis: 2.0,
                edge_bin_db: -110.0,
            },
        }
    }

    fn batch(id: u64, xs: &[f64]) -> ReadingBatch {
        ReadingBatch {
            batch_id: id,
            channel: 30,
            readings: xs.iter().map(|&x| sample(x)).collect(),
        }
    }

    // Route by sign of x: two localities.
    fn locality_of(s: &ReadingSample) -> usize {
        usize::from(s.location.x >= 0.0)
    }

    #[test]
    fn checkpoint_roundtrips_readings_by_locality() {
        let dir = temp_dir("roundtrip");
        let mut store = SegmentStore::open(&dir).unwrap();
        let report =
            store.checkpoint(&[batch(1, &[-5.0, 3.0]), batch(2, &[7.0])], locality_of).unwrap();
        assert_eq!(report.seq, 1);
        assert_eq!(report.batches, 2);
        assert_eq!(report.readings, 3);
        assert_eq!(report.changed_localities, vec![0, 1]);
        assert_eq!(store.locality_readings(0).unwrap(), vec![sample(-5.0)]);
        assert_eq!(store.locality_readings(1).unwrap(), vec![sample(3.0), sample(7.0)]);
        assert_eq!(store.reading_count(), 3);

        // Reopen: the manifest is the source of truth.
        let reopened = SegmentStore::open(&dir).unwrap();
        assert_eq!(reopened.manifest(), store.manifest());
        assert_eq!(reopened.all_readings().unwrap().len(), 3);
    }

    #[test]
    fn untouched_localities_keep_their_digest() {
        let dir = temp_dir("digests");
        let mut store = SegmentStore::open(&dir).unwrap();
        store.checkpoint(&[batch(1, &[-5.0, 3.0])], locality_of).unwrap();
        let before = store.manifest().segments.clone();

        let report = store.checkpoint(&[batch(2, &[8.0])], locality_of).unwrap();
        assert_eq!(report.changed_localities, vec![1]);
        let after = &store.manifest().segments;
        assert_eq!(after[&0].digest, before[&0].digest, "locality 0 saw no new readings");
        assert_ne!(after[&1].digest, before[&1].digest, "locality 1 grew");
        assert_eq!(after[&1].readings, 2);
    }

    #[test]
    fn compaction_is_deterministic_regardless_of_arrival_order() {
        let dir_a = temp_dir("det-a");
        let dir_b = temp_dir("det-b");
        let mut a = SegmentStore::open(&dir_a).unwrap();
        let mut b = SegmentStore::open(&dir_b).unwrap();
        let batches = [batch(3, &[1.0]), batch(1, &[2.0, -4.0]), batch(2, &[5.0])];
        let mut reversed = batches.clone().to_vec();
        reversed.reverse();
        a.checkpoint(&batches, locality_of).unwrap();
        b.checkpoint(&reversed, locality_of).unwrap();
        assert_eq!(a.manifest(), b.manifest());
        for loc in [0usize, 1] {
            assert_eq!(
                fs::read(dir_a.join(&a.manifest().segments[&loc].file)).unwrap(),
                fs::read(dir_b.join(&b.manifest().segments[&loc].file)).unwrap(),
                "segment bytes must not depend on arrival order"
            );
        }
    }

    #[test]
    fn absorbed_batches_are_skipped_on_recheckpoint() {
        let dir = temp_dir("absorbed");
        let mut store = SegmentStore::open(&dir).unwrap();
        store.checkpoint(&[batch(1, &[1.0])], locality_of).unwrap();
        let before = store.manifest().segments.clone();
        // Crash-window replay: the same batch comes around again.
        let report = store.checkpoint(&[batch(1, &[1.0]), batch(2, &[2.0])], locality_of).unwrap();
        assert_eq!(report.batches, 1, "batch 1 is already absorbed");
        assert_eq!(store.manifest().segments[&1].readings, 2);
        assert_ne!(store.manifest().segments[&1].digest, before[&1].digest);
        assert!(store.manifest().absorbed.contains(&1));
        assert!(store.manifest().absorbed.contains(&2));
    }

    #[test]
    fn corrupt_manifest_is_refused_not_misread() {
        let dir = temp_dir("corrupt");
        let mut store = SegmentStore::open(&dir).unwrap();
        store.checkpoint(&[batch(1, &[1.0])], locality_of).unwrap();
        let path = dir.join(MANIFEST_NAME);
        let mut bytes = fs::read(&path).unwrap();
        bytes[6] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(SegmentStore::open(&dir), Err(StoreError::Corrupt(_))));
    }

    #[test]
    fn empty_checkpoint_is_a_noop() {
        let dir = temp_dir("noop");
        let mut store = SegmentStore::open(&dir).unwrap();
        let report = store.checkpoint(&[], locality_of).unwrap();
        assert_eq!(report.readings, 0);
        assert!(report.changed_localities.is_empty());
        assert_eq!(store.manifest().checkpoint_seq, 1, "the sequence still advances");
    }
}
