//! The versioned statistics snapshot served by the `Stats` opcode.
//!
//! The snapshot carries its own version byte (independent of the frame
//! protocol version). Encoders write the current [`STATS_VERSION`] and
//! decoders accept exactly that version: every peer that speaks the
//! format builds from this repository, so a layout change bumps the
//! version and both ends move together.
//!
//! ```text
//! body := stats_version u8 | protocol_version u8 | flags u8
//!       | accepted_total u64 | active_connections u64
//!       | busy_rejections u64 | requests_total u64 | errors_total u64
//!       | cache_hits u64 | cache_misses u64 | reactors u64
//!       | uploads_total u64 | upload_readings u64
//!       | upload_duplicates u64 | refits_total u64
//!       | repl_syncs_total u64 | obs_exports_total u64
//!       | endpoint count u32 | endpoint…
//! endpoint := name len u16 | name utf-8
//!           | count u64 | sum u64 | min u64 | max u64
//!           | bucket count u32 | (bucket index u32 | bucket count u64)…
//! flags    := bit 0: obs compiled in on the server
//!             bit 1: obs recording enabled at snapshot time
//! ```
//!
//! Histograms travel in sparse `(bucket index, count)` form with their
//! exact count/sum/min/max, so the receiving side reconstructs a
//! [`Histogram`] whose quantiles match the server's to bucket resolution.

use waldo::wire::{put_u16, put_u32, put_u64, Reader, WireError};
use waldo_obs::Histogram;

/// Version written by this build's encoder.
pub const STATS_VERSION: u8 = 4;

const FLAG_OBS_COMPILED: u8 = 1 << 0;
const FLAG_OBS_ENABLED: u8 = 1 << 1;

/// One named latency histogram in a snapshot (e.g. `serve_handle`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointStats {
    /// Hot-path name as recorded by `waldo_obs::timed`.
    pub name: String,
    /// The latency distribution, in nanoseconds.
    pub hist: Histogram,
}

/// A point-in-time view of a running server's health.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Whether the server was built with the `obs` feature.
    pub obs_compiled: bool,
    /// Whether obs recording was enabled when the snapshot was taken.
    pub obs_enabled: bool,
    /// Connections accepted since startup (including later-closed ones).
    pub accepted_total: u64,
    /// Connections open right now.
    pub active_connections: u64,
    /// Connections turned away with [`super::protocol::Status::Busy`].
    pub busy_rejections: u64,
    /// Requests handled across all connections.
    pub requests_total: u64,
    /// Requests answered with a non-`Ok` status.
    pub errors_total: u64,
    /// Fetches answered from the pre-encoded response cache.
    pub cache_hits: u64,
    /// Fetches that had to encode a response (cache build or scoped).
    pub cache_misses: u64,
    /// Reactor event-loop threads the server is running.
    pub reactors: u64,
    /// Upload batches accepted and durably appended (zero when no
    /// ingestion plane is attached).
    pub uploads_total: u64,
    /// Readings across accepted upload batches.
    pub upload_readings: u64,
    /// Upload batches acknowledged as already-ingested duplicates.
    pub upload_duplicates: u64,
    /// Refit passes that published a refreshed model.
    pub refits_total: u64,
    /// Replication pulls served to followers. On a leader this is the
    /// fleet's replication liveness signal: a healthy follower set keeps
    /// it moving.
    pub repl_syncs_total: u64,
    /// Metrics-series exports served to observers.
    pub obs_exports_total: u64,
    /// Per-endpoint latency histograms (empty unless obs is recording).
    pub endpoints: Vec<EndpointStats>,
}

impl StatsSnapshot {
    /// Encodes the snapshot as a `Stats` response body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.push(STATS_VERSION);
        out.push(super::protocol::PROTOCOL_VERSION);
        let mut flags = 0u8;
        if self.obs_compiled {
            flags |= FLAG_OBS_COMPILED;
        }
        if self.obs_enabled {
            flags |= FLAG_OBS_ENABLED;
        }
        out.push(flags);
        put_u64(&mut out, self.accepted_total);
        put_u64(&mut out, self.active_connections);
        put_u64(&mut out, self.busy_rejections);
        put_u64(&mut out, self.requests_total);
        put_u64(&mut out, self.errors_total);
        put_u64(&mut out, self.cache_hits);
        put_u64(&mut out, self.cache_misses);
        put_u64(&mut out, self.reactors);
        put_u64(&mut out, self.uploads_total);
        put_u64(&mut out, self.upload_readings);
        put_u64(&mut out, self.upload_duplicates);
        put_u64(&mut out, self.refits_total);
        put_u64(&mut out, self.repl_syncs_total);
        put_u64(&mut out, self.obs_exports_total);
        put_u32(&mut out, self.endpoints.len() as u32);
        for ep in &self.endpoints {
            put_u16(&mut out, ep.name.len() as u16);
            out.extend_from_slice(ep.name.as_bytes());
            put_u64(&mut out, ep.hist.count());
            put_u64(&mut out, ep.hist.sum());
            put_u64(&mut out, ep.hist.min());
            put_u64(&mut out, ep.hist.max());
            let sparse = ep.hist.sparse_buckets();
            put_u32(&mut out, sparse.len() as u32);
            for (idx, n) in sparse {
                put_u32(&mut out, idx);
                put_u64(&mut out, n);
            }
        }
        out
    }

    /// Decodes a `Stats` response body written by [`encode`](Self::encode).
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let version = r.u8()?;
        if version != STATS_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let _protocol_version = r.u8()?;
        let flags = r.u8()?;
        let accepted_total = r.u64()?;
        let active_connections = r.u64()?;
        let busy_rejections = r.u64()?;
        let requests_total = r.u64()?;
        let errors_total = r.u64()?;
        let cache_hits = r.u64()?;
        let cache_misses = r.u64()?;
        let reactors = r.u64()?;
        let uploads_total = r.u64()?;
        let upload_readings = r.u64()?;
        let upload_duplicates = r.u64()?;
        let refits_total = r.u64()?;
        let repl_syncs_total = r.u64()?;
        let obs_exports_total = r.u64()?;
        let n = r.u32()? as usize;
        let mut endpoints = Vec::with_capacity(n.min(r.remaining() + 1));
        for _ in 0..n {
            let name_len = r.u16()? as usize;
            let name = std::str::from_utf8(r.bytes(name_len)?)
                .map_err(|_| WireError::BadTag { what: "endpoint name", tag: 0 })?
                .to_owned();
            let count = r.u64()?;
            let sum = r.u64()?;
            let min = r.u64()?;
            let max = r.u64()?;
            let buckets = r.u32()? as usize;
            let mut sparse = Vec::with_capacity(buckets.min(r.remaining() + 1));
            for _ in 0..buckets {
                let idx = r.u32()?;
                let bucket_count = r.u64()?;
                sparse.push((idx, bucket_count));
            }
            endpoints.push(EndpointStats {
                name,
                hist: Histogram::from_parts(count, sum, min, max, &sparse),
            });
        }
        r.finish()?;
        Ok(StatsSnapshot {
            obs_compiled: flags & FLAG_OBS_COMPILED != 0,
            obs_enabled: flags & FLAG_OBS_ENABLED != 0,
            accepted_total,
            active_connections,
            busy_rejections,
            requests_total,
            errors_total,
            cache_hits,
            cache_misses,
            reactors,
            uploads_total,
            upload_readings,
            upload_duplicates,
            refits_total,
            repl_syncs_total,
            obs_exports_total,
            endpoints,
        })
    }

    /// The endpoint named `name`, if the snapshot carries it.
    pub fn endpoint(&self, name: &str) -> Option<&EndpointStats> {
        self.endpoints.iter().find(|ep| ep.name == name)
    }
}

/// Encodes a full `Stats` response frame payload (header + body).
pub fn encode_stats_response(req_id: u64, snapshot: &StatsSnapshot) -> Vec<u8> {
    let mut out = super::protocol::encode_response_header(req_id, super::protocol::Status::Ok);
    out.extend_from_slice(&snapshot.encode());
    out
}

/// Decodes a `Stats` response frame payload into `(req_id, snapshot)`.
/// Non-`Ok` statuses surface as `BadTag` on the status byte — a stats
/// query has no legitimate error body to pass through.
pub fn decode_stats_response(payload: &[u8]) -> Result<(u64, StatsSnapshot), WireError> {
    let (req_id, status, mut r) = super::protocol::decode_response_header(payload)?;
    if status != super::protocol::Status::Ok {
        return Err(WireError::BadTag { what: "stats status", tag: status.code() });
    }
    let snapshot = StatsSnapshot::decode(&mut r)?;
    Ok((req_id, snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> StatsSnapshot {
        let mut handle = Histogram::new();
        let mut encode = Histogram::new();
        for v in [125_000u64, 250_000, 375_000, 2_000_000] {
            handle.record(v);
            encode.record(v / 3);
        }
        StatsSnapshot {
            obs_compiled: true,
            obs_enabled: true,
            accepted_total: 12,
            active_connections: 3,
            busy_rejections: 2,
            requests_total: 4,
            errors_total: 1,
            cache_hits: 100,
            cache_misses: 5,
            reactors: 4,
            uploads_total: 9,
            upload_readings: 360,
            upload_duplicates: 2,
            refits_total: 3,
            repl_syncs_total: 6,
            obs_exports_total: 8,
            endpoints: vec![
                EndpointStats { name: "serve_encode".into(), hist: encode },
                EndpointStats { name: "serve_handle".into(), hist: handle },
            ],
        }
    }

    #[test]
    fn snapshot_roundtrip() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let back = StatsSnapshot::decode(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, snap);
        let handle = back.endpoint("serve_handle").unwrap();
        assert_eq!(handle.hist.count(), 4);
        assert_eq!(handle.hist.quantile(0.5), snap.endpoints[1].hist.quantile(0.5));
    }

    #[test]
    fn empty_snapshot_roundtrip() {
        let snap = StatsSnapshot::default();
        let back = StatsSnapshot::decode(&mut Reader::new(&snap.encode())).unwrap();
        assert_eq!(back, snap);
        assert!(back.endpoint("anything").is_none());
    }

    #[test]
    fn full_frame_roundtrip() {
        let snap = sample_snapshot();
        let frame = encode_stats_response(77, &snap);
        let (req_id, back) = decode_stats_response(&frame).unwrap();
        assert_eq!(req_id, 77);
        assert_eq!(back, snap);
    }

    #[test]
    fn future_snapshot_version_is_refused() {
        // Newer and older version bytes alike: a decoder reads exactly the
        // layout its own encoder writes.
        for version in [STATS_VERSION + 1, STATS_VERSION - 1] {
            let mut bytes = sample_snapshot().encode();
            bytes[0] = version;
            assert_eq!(
                StatsSnapshot::decode(&mut Reader::new(&bytes)),
                Err(WireError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn error_status_is_not_a_snapshot() {
        let frame = super::super::protocol::encode_response_header(
            5,
            super::super::protocol::Status::Internal,
        );
        assert!(decode_stats_response(&frame).is_err());
    }
}
