//! The server-side ingestion plane: durable upload acceptance plus the
//! background refit worker that closes the paper's crowd-sourcing loop.
//!
//! Reactor threads call [`IngestPlane::ingest`] on every `UPLOAD` frame.
//! The batch is appended to the [`ReadingLog`] WAL — the ack is not sent
//! until the record is fsynced, so an acknowledged batch survives a kill —
//! and the refit worker is woken. The worker checkpoints accumulated
//! batches into per-locality segments, diffs segment digests, retrains
//! only the changed localities, and publishes the refreshed model into the
//! [`ModelCatalog`]. Publishing bumps the channel epoch and rebuilds the
//! pre-encoded response tails, so existing delta-fetch clients observe the
//! update on their next fetch with no extra plumbing.
//!
//! # Idempotency contract
//!
//! Batch IDs are minted by the client and remembered by the WAL (and, once
//! absorbed into segments, by the manifest). A retry after a lost ack —
//! the short-write/reconnect path — re-sends the same batch ID and is
//! acknowledged as a duplicate without re-ingesting the readings.
//!
//! # WAL truncation safety
//!
//! The worker snapshots the WAL's batches, checkpoints and refits without
//! holding the WAL lock (uploads keep landing meanwhile), then truncates
//! the WAL only if nothing new arrived. If an upload raced in, the WAL is
//! left to grow until a quieter pass; the manifest's absorbed-ID set makes
//! re-checkpointing the already-absorbed prefix a no-op.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use waldo::wire::{put_u64, Reader, ReadingBatch, WireError};
use waldo_store::{
    AppendOutcome, ReadingLog, RefitEngine, RefitError, RefitReport, SegmentStore, StoreError,
};

use crate::catalog::ModelCatalog;
use crate::protocol::UploadAck;

/// Version byte of the encoded [`IngestSnapshot`] body.
pub const INGEST_SNAPSHOT_VERSION: u8 = 1;

/// Point-in-time counters of the ingestion plane, as served by the
/// `INGEST_STATS` opcode. Process-lifetime counters (`uploads_total` …)
/// reset on restart; durable-state gauges (`wal_batches` …) do not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSnapshot {
    /// Batches accepted and durably appended (duplicates excluded).
    pub uploads_total: u64,
    /// Readings across accepted batches.
    pub readings_total: u64,
    /// Batches acknowledged as already-ingested duplicates.
    pub duplicates_total: u64,
    /// Refit passes that published a refreshed model.
    pub refits_total: u64,
    /// Batches currently sitting in the WAL awaiting checkpoint.
    pub wal_batches: u64,
    /// Readings stored across all segments.
    pub stored_readings: u64,
    /// The segment store's checkpoint sequence number.
    pub checkpoint_seq: u64,
    /// Current catalog epoch of the ingesting channel.
    pub model_epoch: u64,
}

impl IngestSnapshot {
    /// Encodes the snapshot body (appended after an `Ok` response header).
    pub fn encode_body(&self) -> Vec<u8> {
        let mut out = vec![INGEST_SNAPSHOT_VERSION];
        for v in [
            self.uploads_total,
            self.readings_total,
            self.duplicates_total,
            self.refits_total,
            self.wal_batches,
            self.stored_readings,
            self.checkpoint_seq,
            self.model_epoch,
        ] {
            put_u64(&mut out, v);
        }
        out
    }

    /// Decodes a snapshot body from a response reader.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation or a snapshot version newer
    /// than this decoder understands.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let version = r.u8()?;
        if version > INGEST_SNAPSHOT_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        Ok(Self {
            uploads_total: r.u64()?,
            readings_total: r.u64()?,
            duplicates_total: r.u64()?,
            refits_total: r.u64()?,
            wal_batches: r.u64()?,
            stored_readings: r.u64()?,
            checkpoint_seq: r.u64()?,
            model_epoch: r.u64()?,
        })
    }
}

/// The ingestion plane: WAL + segment store + refit engine + catalog
/// publisher, shared between reactor threads and the refit worker.
#[derive(Debug)]
pub struct IngestPlane {
    wal: Mutex<ReadingLog>,
    store: Mutex<SegmentStore>,
    engine: Mutex<RefitEngine>,
    catalog: Arc<RwLock<ModelCatalog>>,
    channel: u8,
    dirty: Mutex<bool>,
    wake: Condvar,
    stop: AtomicBool,
    uploads_total: AtomicU64,
    readings_total: AtomicU64,
    duplicates_total: AtomicU64,
    refits_total: AtomicU64,
    /// Trace ID of the most recent traced upload whose readings await
    /// refit (0 = none). The refit worker consumes it so the publish —
    /// and everything downstream (replication, client delta fetch) —
    /// joins the uploader's request chain.
    pending_trace: AtomicU64,
}

impl IngestPlane {
    /// Opens (or creates) the ingestion state under `dir`: the WAL at
    /// `dir/readings.wal` (replayed, torn tail truncated) and the segment
    /// store in `dir` itself. `engine` carries the current model; its
    /// refits publish into `catalog` under `channel`. Batch IDs already
    /// absorbed into segments are seeded into the WAL's dedupe set, so
    /// retries stay idempotent across restarts.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the WAL or manifest cannot be opened.
    pub fn open(
        dir: impl AsRef<Path>,
        catalog: Arc<RwLock<ModelCatalog>>,
        channel: u8,
        engine: RefitEngine,
    ) -> Result<Arc<Self>, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut wal = ReadingLog::open(dir.join("readings.wal"))?;
        let store = SegmentStore::open(dir)?;
        wal.remember(store.manifest().absorbed.iter().copied());
        let dirty = !wal.is_empty();
        Ok(Arc::new(Self {
            wal: Mutex::new(wal),
            store: Mutex::new(store),
            engine: Mutex::new(engine),
            catalog,
            channel,
            dirty: Mutex::new(dirty),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            uploads_total: AtomicU64::new(0),
            readings_total: AtomicU64::new(0),
            duplicates_total: AtomicU64::new(0),
            refits_total: AtomicU64::new(0),
            pending_trace: AtomicU64::new(0),
        }))
    }

    /// The channel this plane ingests for.
    pub fn channel(&self) -> u8 {
        self.channel
    }

    /// Durably ingests one upload batch and returns the ack to send. The
    /// append fsyncs before returning (the WAL's default batching), so a
    /// sent ack implies the batch survives a crash. Duplicate batch IDs —
    /// client retries after a lost ack — are acknowledged without
    /// re-ingesting.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the WAL write fails; the caller should
    /// answer `Internal` and leave the client to retry.
    pub fn ingest(&self, batch: &ReadingBatch) -> Result<UploadAck, StoreError> {
        self.ingest_traced(batch, 0)
    }

    /// [`ingest`](Self::ingest) carrying the uploader's request ID, so the
    /// append span — and the refit pass the accepted readings trigger —
    /// continues the uploader's trace instead of starting an orphan one.
    /// `trace_id == 0` means untraced (the span inherits whatever request
    /// is current on this thread, and the refit mints its own ID).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the WAL write fails; the caller should
    /// answer `Internal` and leave the client to retry.
    pub fn ingest_traced(
        &self,
        batch: &ReadingBatch,
        trace_id: u64,
    ) -> Result<UploadAck, StoreError> {
        let _span = waldo_obs::span_req("ingest_append", trace_id);
        let _t = waldo_obs::timed("ingest_append");
        let readings = batch.readings.len() as u32;
        let outcome = self.wal.lock().unwrap_or_else(|e| e.into_inner()).append(batch)?;
        match outcome {
            AppendOutcome::Appended => {
                self.uploads_total.fetch_add(1, Ordering::Relaxed);
                self.readings_total.fetch_add(u64::from(readings), Ordering::Relaxed);
                if trace_id != 0 {
                    self.pending_trace.store(trace_id, Ordering::Relaxed);
                }
                self.mark_dirty();
                Ok(UploadAck { duplicate: false, readings })
            }
            AppendOutcome::Duplicate => {
                self.duplicates_total.fetch_add(1, Ordering::Relaxed);
                Ok(UploadAck { duplicate: true, readings })
            }
        }
    }

    /// Runs one checkpoint + refit pass synchronously: the worker's body,
    /// exposed for deterministic tests and drains. Returns the refit
    /// report if a refreshed model was published, `None` if the WAL was
    /// empty or no locality's segment digest moved.
    ///
    /// # Errors
    ///
    /// Returns [`RefitError`] on segment I/O or training failure; the WAL
    /// is left intact so the pass can be retried.
    pub fn run_refit_now(&self) -> Result<Option<RefitReport>, RefitError> {
        let _t = waldo_obs::timed("ingest_refit");
        let (batches, taken) = {
            let wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
            if wal.is_empty() {
                return Ok(None);
            }
            (wal.batches().to_vec(), wal.len())
        };

        // The pass continues the most recent traced upload's request
        // chain; internally-originated work (WAL replay at startup, the
        // shutdown drain) mints a fresh ID so its spans still correlate.
        let trace_id = match self.pending_trace.swap(0, Ordering::Relaxed) {
            0 => waldo_obs::next_request_id(),
            pending => pending,
        };
        let _span = waldo_obs::span_req("ingest_refit", trace_id);

        let report = {
            let mut engine = self.engine.lock().unwrap_or_else(|e| e.into_inner());
            let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
            store.checkpoint(&batches, |s| engine.locality_of(s))?;
            match engine.refit(&store)? {
                Some((model, report)) => {
                    let epoch = self
                        .catalog
                        .write()
                        .unwrap_or_else(|e| e.into_inner())
                        .publish_traced(self.channel, &model, trace_id);
                    self.refits_total.fetch_add(1, Ordering::Relaxed);
                    waldo_obs::event("ingest_refit_published", &[("epoch", &epoch.to_string())]);
                    Some(report)
                }
                None => None,
            }
        };

        // Truncate only if no upload raced in while we were off the lock:
        // absorbed-ID filtering makes leaving the batches in place safe,
        // losing an unprocessed one would not be.
        let mut wal = self.wal.lock().unwrap_or_else(|e| e.into_inner());
        if wal.len() == taken {
            wal.truncate_after_checkpoint()?;
        }
        Ok(report)
    }

    /// Current counters and durable-state gauges.
    ///
    /// The WAL lock is released before the store lock is taken: a refit
    /// holds the store lock for its whole pass, and uploads must not queue
    /// behind a sampler that waits on it. The WAL is still read first.
    /// The refit worker checkpoints before it truncates, so a snapshot
    /// that sees `wal_batches == 0` also sees every checkpointed row.
    pub fn snapshot(&self) -> IngestSnapshot {
        let wal_batches = self.wal.lock().unwrap_or_else(|e| e.into_inner()).len() as u64;
        let (stored_readings, checkpoint_seq) = {
            let store = self.store.lock().unwrap_or_else(|e| e.into_inner());
            (store.reading_count() as u64, store.manifest().checkpoint_seq)
        };
        let model_epoch = self
            .catalog
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .channel(self.channel)
            .map_or(0, |c| c.epoch);
        IngestSnapshot {
            uploads_total: self.uploads_total.load(Ordering::Relaxed),
            readings_total: self.readings_total.load(Ordering::Relaxed),
            duplicates_total: self.duplicates_total.load(Ordering::Relaxed),
            refits_total: self.refits_total.load(Ordering::Relaxed),
            wal_batches,
            stored_readings,
            checkpoint_seq,
            model_epoch,
        }
    }

    /// Spawns the background refit worker. Keep the returned handle alive
    /// for the server's lifetime; dropping it stops and joins the worker
    /// (after a final drain pass).
    pub fn spawn_worker(self: &Arc<Self>) -> IngestWorker {
        let plane = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("waldo-ingest".into())
            .spawn(move || plane.worker_loop())
            .expect("spawn ingest worker");
        IngestWorker { plane: Arc::clone(self), handle: Some(handle) }
    }

    fn mark_dirty(&self) {
        let mut dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
        *dirty = true;
        self.wake.notify_one();
    }

    fn worker_loop(&self) {
        while !self.stop.load(Ordering::Acquire) {
            {
                let mut dirty = self.dirty.lock().unwrap_or_else(|e| e.into_inner());
                while !*dirty && !self.stop.load(Ordering::Acquire) {
                    let (guard, timeout) = self
                        .wake
                        .wait_timeout(dirty, Duration::from_millis(50))
                        .unwrap_or_else(|e| e.into_inner());
                    dirty = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
                *dirty = false;
            }
            if let Err(e) = self.run_refit_now() {
                waldo_obs::event("ingest_refit_failed", &[("error", &e.to_string())]);
            }
        }
        // Final drain so a clean shutdown leaves no acknowledged batch
        // un-checkpointed (it would still be recovered from the WAL).
        let _ = self.run_refit_now();
    }
}

/// Owns the refit worker thread; stops and joins it on drop.
#[derive(Debug)]
pub struct IngestWorker {
    plane: Arc<IngestPlane>,
    handle: Option<JoinHandle<()>>,
}

impl IngestWorker {
    /// Stops the worker: sets the stop flag, wakes it, and joins. The
    /// worker runs one final drain pass before exiting. Idempotent.
    pub fn stop(&mut self) {
        self.plane.stop.store(true, Ordering::Release);
        self.plane.wake.notify_one();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for IngestWorker {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use waldo::{ModelConstructor, WaldoConfig};
    use waldo_data::{ChannelDataset, Labeler, Measurement, Safety};
    use waldo_geo::Point;
    use waldo_iq::FeatureVector;
    use waldo_rf::TvChannel;
    use waldo_sensors::{Observation, ReadingSample, SensorKind};

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("waldo-ingest-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn features_for(rss: f64) -> FeatureVector {
        FeatureVector {
            rss_db: rss,
            cft_db: rss - 11.3,
            aft_db: rss - 12.5,
            quadrature_imbalance_db: 0.0,
            iq_kurtosis: 2.0,
            edge_bin_db: -110.0,
        }
    }

    fn base_dataset(n: usize) -> ChannelDataset {
        let mut measurements = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let x = (i as f64 / n as f64) * 30_000.0;
            let y = ((i * 7) % 20) as f64 * 1_000.0;
            let rss = if x > 15_000.0 { -70.0 } else { -100.0 } + ((i % 5) as f64 - 2.0);
            measurements.push(Measurement {
                location: Point::new(x, y),
                odometer_m: i as f64 * 100.0,
                observation: Observation {
                    rss_dbm: rss,
                    features: features_for(rss),
                    raw_pilot_db: rss - 11.3,
                },
                true_rss_dbm: rss,
            });
            labels.push(Safety::from_not_safe(x > 15_000.0));
        }
        ChannelDataset::new(TvChannel::new(30).unwrap(), SensorKind::RtlSdr, measurements, labels)
    }

    fn plane_in(dir: &Path) -> (Arc<IngestPlane>, Arc<RwLock<ModelCatalog>>) {
        let constructor = ModelConstructor::new(WaldoConfig::default().localities(3).seed(2));
        let base = base_dataset(300);
        let model = constructor.fit(&base).unwrap();
        let catalog = Arc::new(RwLock::new(ModelCatalog::new()));
        catalog.write().unwrap().publish(30, &model);
        let engine = RefitEngine::new(constructor, Labeler::new(), base, model);
        let plane = IngestPlane::open(dir, Arc::clone(&catalog), 30, engine).unwrap();
        (plane, catalog)
    }

    fn strong_batch(id: u64, n: usize) -> ReadingBatch {
        // A transmitter in the quiet west: flips labels there on refit.
        ReadingBatch {
            batch_id: id,
            channel: 30,
            readings: (0..n)
                .map(|i| ReadingSample {
                    location: Point::new(
                        2_000.0 + (i % 7) as f64 * 150.0,
                        4_000.0 + (i / 7) as f64 * 150.0,
                    ),
                    rss_dbm: -60.0,
                    features: features_for(-60.0),
                })
                .collect(),
        }
    }

    #[test]
    fn upload_then_refit_publishes_a_new_epoch() {
        let dir = temp_dir("publish");
        let (plane, catalog) = plane_in(&dir);

        let ack = plane.ingest(&strong_batch(1, 40)).unwrap();
        assert_eq!(ack, UploadAck { duplicate: false, readings: 40 });
        let report = plane.run_refit_now().unwrap().expect("uploads changed a locality");
        assert_eq!(report.uploaded_readings, 40);

        let snap = plane.snapshot();
        assert_eq!(snap.uploads_total, 1);
        assert_eq!(snap.readings_total, 40);
        assert_eq!(snap.refits_total, 1);
        assert_eq!(snap.wal_batches, 0, "quiet checkpoint truncates the WAL");
        assert_eq!(snap.stored_readings, 40);
        assert_eq!(snap.model_epoch, 2, "refit publish bumps the epoch");
        assert_eq!(catalog.read().unwrap().channel(30).unwrap().epoch, 2);

        // Nothing new: the next pass is a no-op.
        assert!(plane.run_refit_now().unwrap().is_none());
    }

    #[test]
    fn duplicate_batches_are_acked_but_not_reingested() {
        let dir = temp_dir("dupes");
        let (plane, _catalog) = plane_in(&dir);

        assert!(!plane.ingest(&strong_batch(7, 5)).unwrap().duplicate);
        assert!(plane.ingest(&strong_batch(7, 5)).unwrap().duplicate);
        plane.run_refit_now().unwrap();
        // Even after the WAL was checkpointed away, the ID is remembered.
        assert!(plane.ingest(&strong_batch(7, 5)).unwrap().duplicate);

        let snap = plane.snapshot();
        assert_eq!(snap.uploads_total, 1);
        assert_eq!(snap.duplicates_total, 2);
        assert_eq!(snap.stored_readings, 5);
    }

    #[test]
    fn absorbed_ids_stay_deduped_across_reopen() {
        let dir = temp_dir("reopen");
        {
            let (plane, _catalog) = plane_in(&dir);
            plane.ingest(&strong_batch(3, 4)).unwrap();
            plane.run_refit_now().unwrap();
        }
        let (plane, _catalog) = plane_in(&dir);
        assert!(plane.ingest(&strong_batch(3, 4)).unwrap().duplicate);
        assert_eq!(plane.snapshot().stored_readings, 4);
    }

    #[test]
    fn worker_drains_uploads_in_the_background() {
        let dir = temp_dir("worker");
        let (plane, catalog) = plane_in(&dir);
        let mut worker = plane.spawn_worker();

        plane.ingest(&strong_batch(11, 40)).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while plane.refits_total.load(Ordering::Relaxed) == 0 {
            assert!(std::time::Instant::now() < deadline, "worker never refitted");
            std::thread::sleep(Duration::from_millis(10));
        }
        worker.stop();
        assert_eq!(catalog.read().unwrap().channel(30).unwrap().epoch, 2);
        assert_eq!(plane.snapshot().wal_batches, 0);
    }

    #[test]
    fn snapshot_waiting_on_the_store_does_not_block_uploads() {
        let dir = temp_dir("snapshot-stall");
        let (plane, _catalog) = plane_in(&dir);
        let plane = &*plane;
        // Stand in for a long refit pass: hold the store lock throughout.
        let store = plane.store.lock().unwrap();
        std::thread::scope(|s| {
            let sampler = s.spawn(move || plane.snapshot());
            // Let the sampler reach the store lock before the upload.
            std::thread::sleep(Duration::from_millis(200));
            let (tx, rx) = std::sync::mpsc::channel();
            s.spawn(move || tx.send(plane.ingest(&strong_batch(21, 4))));
            let acked = rx.recv_timeout(Duration::from_secs(2));
            drop(store);
            sampler.join().unwrap();
            let ack = acked.expect("upload blocked behind a snapshot waiting on the store");
            assert!(!ack.unwrap().duplicate);
        });
    }

    #[test]
    fn snapshot_body_roundtrips_and_refuses_future_versions() {
        let snap = IngestSnapshot {
            uploads_total: 9,
            readings_total: 360,
            duplicates_total: 2,
            refits_total: 3,
            wal_batches: 1,
            stored_readings: 355,
            checkpoint_seq: 4,
            model_epoch: 5,
        };
        let body = snap.encode_body();
        let mut r = Reader::new(&body);
        let decoded = IngestSnapshot::decode_from(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, snap);

        let mut future = body.clone();
        future[0] = INGEST_SNAPSHOT_VERSION + 1;
        let mut r = Reader::new(&future);
        assert!(matches!(
            IngestSnapshot::decode_from(&mut r),
            Err(WireError::UnsupportedVersion(_))
        ));
    }
}
